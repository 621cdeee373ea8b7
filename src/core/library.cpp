#include "core/library.hpp"

#include "core/driver.hpp"

namespace pinsim::core {

Library::Library(Endpoint& ep)
    : ep_(ep),
      eng_(ep.driver().engine()),
      cache_(ep.driver().config().cache,
             [this](const std::vector<Segment>& segs) {
               // Declaration is a syscall; its cost lands on the process
               // core ahead of the communication that triggered it.
               ep_.process_core().consume(
                   cpu::Priority::kKernel,
                   ep_.driver().config().protocol.syscall_cost);
               return ep_.declare_region(segs);
             },
             [this](RegionId id) { ep_.undeclare_region(id); }) {}

Library::~Library() = default;

std::size_t Library::total_length(
    const std::vector<Segment>& segments) noexcept {
  std::size_t total = 0;
  for (const Segment& s : segments) total += s.len;
  return total;
}

bool Library::proceed(Request* r, RegionId rid) {
  if (!r->cancel_requested_) return true;
  if (rid != kInvalidRegion) cache_.release(rid);
  r->complete(Status{false, false, 0});
  return false;
}

template <typename Ioctl>
void Library::syscall(Request* r, RegionId rid, std::vector<Segment> segs,
                      Ioctl ioctl) {
  ep_.process_core().submit(
      cpu::Priority::kKernel, ep_.driver().config().protocol.syscall_cost,
      [this, alive = std::weak_ptr<void>(alive_), r, rid,
       segs = std::move(segs), ioctl = std::move(ioctl)]() mutable {
        if (alive.expired() || !proceed(r, rid)) return;  // died mid-queue
        r->submitted_ = true;
        Completion done = [r](Status st) { r->complete(st); };
        if (rid != kInvalidRegion) {
          done = [this, r](Status st) {
            cache_.release(r->region_);
            r->complete(st);
          };
        }
        ioctl(ep_, *r, rid, std::move(segs), std::move(done));
      });
}

template <typename Ioctl>
void Library::submit(Request* r, std::vector<Segment> segments, Ioctl ioctl) {
  const auto& proto = ep_.driver().config().protocol;
  if (total_length(segments) <= proto.eager_threshold) {
    syscall(r, kInvalidRegion, std::move(segments), std::move(ioctl));
    return;
  }
  // User-space region-cache lookup, then the ioctl.
  ep_.process_core().submit(
      cpu::Priority::kUser, kCacheLookupCost,
      [this, alive = std::weak_ptr<void>(alive_), r,
       segs = std::move(segments), ioctl = std::move(ioctl)]() mutable {
        if (alive.expired() || !proceed(r, kInvalidRegion)) return;
        const RegionId rid = cache_.acquire(segs);
        r->region_ = rid;
        syscall(r, rid, std::move(segs), std::move(ioctl));
      });
}

RequestPtr Library::isend(EndpointAddr dest, std::uint64_t match,
                          mem::VirtAddr buf, std::size_t len,
                          bool blocking_hint) {
  return isendv(dest, match, segments_of(buf, len), blocking_hint);
}

RequestPtr Library::isendv(EndpointAddr dest, std::uint64_t match,
                           std::vector<Segment> segments,
                           bool blocking_hint) {
  // The watchdog already declared this node dead: fail fast in the caller's
  // context instead of spending the whole retry budget against silence.
  if (ep_.driver().peer_dead(dest.node)) throw PeerDeadError(dest.node);
  auto req = std::make_unique<Request>(eng_);
  Request* r = req.get();
  r->kind_ = Request::Kind::kSend;
  const std::size_t total = total_length(segments);
  submit(r, std::move(segments),
         [dest, match, total, blocking_hint](
             Endpoint& ep, Request& q, RegionId rid,
             std::vector<Segment> segs, Completion done) {
           q.send_seq_ =
               rid == kInvalidRegion
                   ? ep.isend_eager(dest, match, std::move(segs),
                                    std::move(done))
                   : ep.isend_rndv(dest, match, rid, total, std::move(done),
                                   blocking_hint);
         });
  return req;
}

RequestPtr Library::irecv(std::uint64_t match, std::uint64_t mask,
                          mem::VirtAddr buf, std::size_t len,
                          bool blocking_hint) {
  return irecvv(match, mask, segments_of(buf, len), blocking_hint);
}

RequestPtr Library::irecvv(std::uint64_t match, std::uint64_t mask,
                           std::vector<Segment> segments,
                           bool blocking_hint) {
  auto req = std::make_unique<Request>(eng_);
  Request* r = req.get();
  r->kind_ = Request::Kind::kRecv;
  submit(r, std::move(segments),
         [match, mask, blocking_hint](Endpoint& ep, Request& q, RegionId rid,
                                      std::vector<Segment> segs,
                                      Completion done) {
           q.recv_id_ = ep.irecv(match, mask, std::move(segs), rid,
                                 std::move(done), blocking_hint);
         });
  return req;
}

bool Library::cancel(Request& req) {
  if (req.completed()) return false;
  if (!req.submitted_) {
    // Still queued behind the syscall: the submission stage will observe the
    // flag and complete the request with ok == false.
    req.cancel_requested_ = true;
    return true;
  }
  if (req.kind_ == Request::Kind::kRecv) {
    return ep_.cancel_recv(req.recv_id_);
  }
  return ep_.cancel_send(req.send_seq_);
}

sim::Task<Status> Library::send(EndpointAddr dest, std::uint64_t match,
                                mem::VirtAddr buf, std::size_t len) {
  auto req = isend(dest, match, buf, len, /*blocking_hint=*/true);
  co_await req->wait();
  co_return req->status();
}

sim::Task<Status> Library::recv(std::uint64_t match, std::uint64_t mask,
                                mem::VirtAddr buf, std::size_t len) {
  auto req = irecv(match, mask, buf, len, /*blocking_hint=*/true);
  co_await req->wait();
  co_return req->status();
}

}  // namespace pinsim::core
