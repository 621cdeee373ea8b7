#include "core/endpoint.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "core/driver.hpp"

namespace pinsim::core {

namespace {

/// Notifier registered on the process address space when the endpoint opens
/// (paper §3.1). All it does is forward invalidations to the pin manager —
/// the user-space library never hears about them.
struct EndpointNotifier final : mem::MmuNotifier {
  explicit EndpointNotifier(Endpoint& e) : ep(&e) {}
  void invalidate_range(mem::VirtAddr start, mem::VirtAddr end) override {
    ep->pin_manager().invalidate_range(start, end);
  }
  void release() override { address_space_alive = false; }
  Endpoint* ep;
  bool address_space_alive = true;
};

}  // namespace

template <typename SendPred, typename PullPred>
void Endpoint::fail_matching(SendPred send_pred, PullPred pull_pred,
                             bool send_abort, bool peer_dead) {
  std::vector<std::uint32_t> ids;
  for (const auto& [seq, req] : sends_) {
    if (send_pred(*req)) ids.push_back(seq);
  }
  for (std::uint32_t seq : ids) fail_send(seq, send_abort, peer_dead);
  ids.clear();
  for (const auto& [handle, ps] : pulls_) {
    if (pull_pred(*ps)) ids.push_back(handle);
  }
  for (std::uint32_t handle : ids) fail_pull(handle, send_abort, peer_dead);
}

Endpoint::Endpoint(Driver& driver, std::uint8_t id, mem::AddressSpace& as,
                   cpu::Core& process_core)
    : driver_(driver),
      id_(id),
      as_(as),
      process_core_(process_core),
      counters_(driver.slot_counters(id)),
      pins_(driver.engine(), process_core, driver.cpu(),
            driver.config().pinning, counters_, &driver.relay()) {
  pins_.set_identity(driver.node(), id_);
  auto notifier = std::make_unique<EndpointNotifier>(*this);
  as_.register_notifier(notifier.get());
  notifier_ = std::move(notifier);

  pins_.set_failure_handler([this](Region& r) {
    // Abort every in-flight request still using this region, telling each
    // peer. The ascending-id order is the order the abort packets and their
    // events must leave in for replays to be bit-exact.
    fail_matching(
        [&r](const SendRequest& req) {
          return !req.eager && req.region == r.id();
        },
        [&r](const PullState& ps) { return ps.region == &r && !ps.done; },
        /*send_abort=*/true, /*peer_dead=*/false);
  });
}

Endpoint::~Endpoint() {
  // Disarm every guarded() closure still sitting in the engine's event
  // queue or a core's run queue, then drop the timers we know about. An
  // endpoint closed mid-transfer otherwise leaves retransmit timers and
  // queued bottom halves pointing at freed memory.
  alive_.reset();
  for (auto& [seq, req] : sends_) driver_.engine().cancel(req->rto);
  for (auto& [handle, ps] : pulls_) driver_.engine().cancel(ps->rto);

  // Regions still declared (an endpoint closed mid-transfer, or one driven
  // without a Library): cancel in-flight pin jobs and release their pins so
  // the pin manager never holds a pointer into the freed region table.
  // Unregistering emits unpin events; the flat map iterates in ascending-id
  // order, which is the order replays expect.
  for (auto& [id, region] : regions_) pins_.unregister_region(*region);
  regions_.clear();

  // If the address space died first, its destructor already fired the
  // notifier's release() — touching it again would be use-after-free.
  auto* notifier = static_cast<EndpointNotifier*>(notifier_.get());
  if (notifier->address_space_alive) as_.unregister_notifier(notifier);
}

EndpointAddr Endpoint::addr() const noexcept {
  return EndpointAddr{driver_.node(), id_};
}

bool Endpoint::overlap_for(bool blocking_hint) const {
  const auto& p = driver_.config().pinning;
  return p.overlapped && (!p.overlap_blocking_only || blocking_hint);
}

cpu::Core& Endpoint::bh_core() noexcept {
  return driver_.config().protocol.distribute_interrupts
             ? process_core_
             : driver_.nic().irq_core();
}

std::size_t Endpoint::inflight() const noexcept {
  return sends_.size() + pulls_.size() + posted_.size();
}

// --- regions -----------------------------------------------------------------

RegionId Endpoint::declare_region(std::vector<Segment> segments) {
  const RegionId id = next_region_++;
  auto region = std::make_unique<Region>(id, as_, std::move(segments));
  pins_.register_region(*region);
  Region& ref = *region;
  regions_.emplace(id, std::move(region));
  if (driver_.config().pinning.mode == PinMode::kPermanent) {
    pins_.ensure_pinned(ref, [](bool) {});
  }
  return id;
}

void Endpoint::undeclare_region(RegionId id) {
  auto it = regions_.find(id);
  if (it == regions_.end()) throw std::invalid_argument("unknown region");
  assert(it->second->use_count() == 0 && "undeclaring a region in use");
  pins_.unregister_region(*it->second);
  regions_.erase(it);
}

Region* Endpoint::find_region(RegionId id) {
  auto it = regions_.find(id);
  return it == regions_.end() ? nullptr : it->second.get();
}

// --- eager send ----------------------------------------------------------------

std::uint32_t Endpoint::isend_eager(EndpointAddr dest, std::uint64_t match,
                                    mem::VirtAddr buf, std::size_t len,
                                    Completion done) {
  return isend_eager(dest, match, segments_of(buf, len), std::move(done));
}

std::uint32_t Endpoint::isend_eager(EndpointAddr dest, std::uint64_t match,
                                    std::vector<Segment> segments,
                                    Completion done) {
  const std::uint32_t seq = next_send_seq_++;
  auto node = send_pool_.acquire();
  SendRequest& req = *node;
  req.seq = seq;
  req.dest = dest;
  req.match = match;
  req.eager = true;
  req.done = std::move(done);
  // Gather the (possibly vectorial) user data into the kernel staging copy.
  try {
    for (const Segment& s : segments) {
      const std::size_t off = req.eager_data.size();
      req.eager_data.resize(off + s.len);
      as_.read(s.addr, std::span<std::byte>(req.eager_data.data() + off,
                                            s.len));  // copy_from_user
    }
  } catch (const mem::InvalidAddressError&) {
    req.done(Status{false, false, 0});
    return seq;
  }
  req.len = req.eager_data.size();
  const std::size_t len = req.len;
  ++counters_.eager_sent;
  emit_request(obs::EventKind::kEagerPost, seq, dest, 0, len);
  sends_.emplace(seq, std::move(node));
  // The kernel-side copy into frames costs CPU on the submitting core.
  process_core_.submit(cpu::Priority::kKernel, driver_.cpu().copy_cost(len),
                       guarded([this, seq] {
                         if (sends_.count(seq) != 0) transmit_eager(seq);
                       }));
  return seq;
}

void Endpoint::transmit_eager(std::uint32_t seq) {
  SendRequest& req = *sends_.at(seq);
  req.transmitted = true;
  const std::size_t chunk = driver_.config().protocol.frame_payload;
  std::size_t off = 0;
  do {
    const std::size_t n = std::min(chunk, req.len - off);
    EagerBody body;
    body.match = req.match;
    body.msg_len = static_cast<std::uint32_t>(req.len);
    body.frag_offset = static_cast<std::uint32_t>(off);
    body.seq = seq;
    body.data.assign(req.eager_data.begin() + static_cast<std::ptrdiff_t>(off),
                     req.eager_data.begin() +
                         static_cast<std::ptrdiff_t>(off + n));
    send_packet(req.dest, std::move(body), cpu::Priority::kKernel);
    off += n;
  } while (off < req.len);
  arm_send_rto(req);
}

// --- rendezvous send -----------------------------------------------------------

std::uint32_t Endpoint::isend_rndv(EndpointAddr dest, std::uint64_t match,
                                   RegionId region_id, std::size_t len,
                                   Completion done, bool blocking_hint) {
  Region* region = find_region(region_id);
  if (region == nullptr) throw std::invalid_argument("isend on unknown region");
  if (len > region->total_length()) {
    throw std::invalid_argument("isend length exceeds region");
  }
  const std::uint32_t seq = next_send_seq_++;
  auto node = send_pool_.acquire();
  SendRequest& req = *node;
  req.seq = seq;
  req.dest = dest;
  req.match = match;
  req.len = len;
  req.eager = false;
  req.region = region_id;
  req.done = std::move(done);
  region->add_use();
  ++counters_.rndv_sent;
  emit_request(obs::EventKind::kRndvPost, seq, dest, 0, len, region_id);
  sends_.emplace(seq, std::move(node));

  // Pin per configuration: with overlapping the completion fires right away
  // (or after the pre-pin threshold) and the RNDV leaves before the region
  // is fully pinned (Figure 5); otherwise it waits (Figure 2).
  pins_.ensure_pinned(*region, overlap_for(blocking_hint),
                      guarded([this, seq](bool ok) {
    auto it = sends_.find(seq);
    if (it == sends_.end()) return;  // already failed/aborted
    if (!ok) {
      fail_send(seq, /*send_abort=*/it->second->rndv_sent);
      return;
    }
    if (!it->second->rndv_sent) send_rndv_frame(*it->second);
  }));
  return seq;
}

void Endpoint::send_rndv_frame(SendRequest& req) {
  req.rndv_sent = true;
  req.transmitted = true;
  RndvBody body;
  body.match = req.match;
  body.msg_len = req.len;
  body.region = req.region;
  body.seq = req.seq;
  send_packet(req.dest, body, cpu::Priority::kKernel);
  arm_send_rto(req);
}

sim::Time Endpoint::backoff_timeout(int retries) const {
  const auto& proto = driver_.config().protocol;
  sim::Time t = proto.retransmit_timeout;
  for (int i = 0; i < retries && t < proto.retransmit_backoff_max; ++i) {
    t *= 2;
  }
  return std::min(t, proto.retransmit_backoff_max);
}

void Endpoint::arm_send_rto(SendRequest& req) {
  const auto seq = req.seq;
  req.rto = driver_.engine().schedule_after(
      backoff_timeout(req.retries), guarded([this, seq] {
        auto it = sends_.find(seq);
        if (it == sends_.end()) return;
        SendRequest& r = *it->second;
        ++counters_.retransmit_timeouts;
        ++r.retries;
        emit_request(obs::EventKind::kRetransmit, seq, r.dest,
                     static_cast<std::uint64_t>(r.retries));
        if (r.retries > driver_.config().protocol.retry_budget) {
          // Budget exhausted: give up gracefully instead of hammering a
          // peer that is clearly not answering.
          ++counters_.retry_exhausted;
          fail_send(seq, /*send_abort=*/!r.eager && r.rndv_sent);
          return;
        }
        if (r.eager) {
          transmit_eager(seq);  // re-arms the timer
        } else if (!r.pull_seen) {
          send_rndv_frame(r);  // RNDV itself was probably lost
        } else {
          arm_send_rto(r);  // passive: receiver drives; just keep waiting
        }
      }),
      {"core", "send_rto"});
}

void Endpoint::fail_send(std::uint32_t seq, bool send_abort, bool peer_dead) {
  auto it = sends_.find(seq);
  if (it == sends_.end()) return;
  // Move the pooled node out before erasing: the entry must be gone before
  // the completion runs, and the node recycles when this frame returns.
  auto node = std::move(it->second);
  sends_.erase(it);
  SendRequest& req = *node;
  driver_.engine().cancel(req.rto);
  ++counters_.aborts;
  emit_request(obs::EventKind::kSendAbort, seq, req.dest);
  if (send_abort) {
    send_packet(req.dest, AbortBody{seq}, cpu::Priority::kKernel);
  }
  if (!req.eager) {
    if (Region* r = find_region(req.region); r != nullptr) r->drop_use();
  }
  req.done(Status{false, false, 0, peer_dead});
}

void Endpoint::complete_send(std::uint32_t seq) {
  auto it = sends_.find(seq);
  auto node = std::move(it->second);
  sends_.erase(it);
  SendRequest& req = *node;
  driver_.engine().cancel(req.rto);
  if (Region* r = find_region(req.region); r != nullptr) r->drop_use();
  emit_request(obs::EventKind::kSendDone, seq, req.dest, 0, req.len);
  req.done(Status{true, false, req.len});
}

void Endpoint::fail_pull(std::uint32_t handle, bool send_abort,
                         bool peer_dead) {
  // The pooled node keeps `p` valid while the completion below runs user
  // code that may insert into pulls_.
  auto it = pulls_.find(handle);
  if (it == pulls_.end()) return;
  PullState& p = *it->second;
  if (p.done) {
    // Data already delivered and completed; only the NOTIFY handshake was
    // still retransmitting. Just free the handle.
    destroy_pull(handle);
    return;
  }
  ++counters_.aborts;
  if (send_abort) {
    send_packet(p.peer(), AbortBody{p.sender_seq}, cpu::Priority::kKernel);
  }
  if (p.region != nullptr) p.region->drop_use();
  emit_request(obs::EventKind::kRecvAbort, handle, p.peer(), p.sender_seq);
  complete_recv(p.recv, Status{false, false, 0, peer_dead});
  destroy_pull(handle);
}

void Endpoint::fail_all_inflight() {
  const auto all = [](const auto&) { return true; };
  fail_matching(all, all, /*send_abort=*/false, /*peer_dead=*/false);
  while (!posted_.empty()) {
    RecvRequest recv = std::move(posted_.front());
    posted_.pop_front();
    complete_recv(recv, Status{false, false, 0});
  }
  inbound_.clear();
}

void Endpoint::fail_requests_to(net::NodeId node, int peer_ep) {
  const auto to = [node, peer_ep](net::NodeId n, std::uint8_t ep) {
    return n == node &&
           (peer_ep < 0 || ep == static_cast<std::uint8_t>(peer_ep));
  };
  fail_matching(
      [&to](const SendRequest& req) { return to(req.dest.node, req.dest.ep); },
      [&to](const PullState& ps) { return to(ps.peer_node, ps.peer_ep); },
      /*send_abort=*/false, /*peer_dead=*/true);
}

void Endpoint::on_peer_restarted(net::NodeId node, std::uint8_t peer_ep) {
  fail_requests_to(node, peer_ep);
  // Reassembly records from the dead incarnation: unbound ones evaporate,
  // bound ones fail their receive.
  for (auto it = inbound_.begin(); it != inbound_.end();) {
    if (it->peer_node != node || it->peer_ep != peer_ep) {
      ++it;
      continue;
    }
    if (it->bound) complete_recv(it->recv, Status{false, false, 0, true});
    it = inbound_.erase(it);
  }
  // Duplicate-suppression memory keyed by the old incarnation's seq space:
  // the new incarnation reuses seqs from 1, so stale "already completed"
  // records would silently swallow its messages. inbound_key packs node/ep
  // into disjoint bit ranges, so prefix filtering is exact.
  completed_.erase_if([node, peer_ep](std::uint64_t key) {
    return (key >> 41) == node && ((key >> 33) & 0xff) == peer_ep;
  });
}

// --- receive posting -----------------------------------------------------------

std::uint64_t Endpoint::irecv(std::uint64_t match, std::uint64_t mask,
                              mem::VirtAddr buf, std::size_t len,
                              RegionId region, Completion done,
                              bool blocking_hint) {
  return irecv(match, mask, segments_of(buf, len), region, std::move(done),
               blocking_hint);
}

std::uint64_t Endpoint::irecv(std::uint64_t match, std::uint64_t mask,
                              std::vector<Segment> segments, RegionId region,
                              Completion done, bool blocking_hint) {
  RecvRequest recv;
  recv.match = match;
  recv.mask = mask;
  recv.segments = std::move(segments);
  for (const Segment& s : recv.segments) recv.total_len += s.len;
  recv.region = region;
  recv.id = next_recv_id_++;
  recv.blocking_hint = blocking_hint;
  const std::uint64_t id = recv.id;
  recv.done = std::move(done);

  // Warm the pin before the rendezvous arrives (Figure 3: MPI_Recv -> pin).
  if (Region* r = find_region(region); r != nullptr) {
    pins_.ensure_pinned(*r, overlap_for(blocking_hint), [](bool) {});
  }

  // Match already-arrived messages in arrival order (MPI non-overtaking).
  for (auto it = inbound_.begin(); it != inbound_.end(); ++it) {
    if (it->bound || !match_ok(recv, it->match)) continue;
    if (it->rndv) {
      InboundMsg msg = std::move(*it);
      inbound_.erase(it);
      start_pull(std::move(msg), std::move(recv));
    } else {
      it->bound = true;
      it->recv = std::move(recv);
      if (it->bytes_received >= it->msg_len) finish_eager_inbound(*it);
    }
    return id;
  }
  posted_.push_back(std::move(recv));
  return id;
}

bool Endpoint::cancel_recv(std::uint64_t recv_id) {
  for (auto it = posted_.begin(); it != posted_.end(); ++it) {
    if (it->id != recv_id) continue;
    RecvRequest recv = std::move(*it);
    posted_.erase(it);
    complete_recv(recv, Status{false, false, 0});
    return true;
  }
  return false;  // already matched (or completed): too late
}

bool Endpoint::cancel_send(std::uint32_t seq) {
  auto it = sends_.find(seq);
  if (it == sends_.end() || it->second->transmitted) return false;
  fail_send(seq, /*send_abort=*/false);
  return true;
}

// --- packet dispatch -----------------------------------------------------------

void Endpoint::handle_packet(net::NodeId src_node, Packet&& pkt) {
  const std::uint8_t src_ep = pkt.header.src_ep;
  std::visit(
      [&](auto&& body) {
        using T = std::decay_t<decltype(body)>;
        if constexpr (std::is_same_v<T, EagerBody>) {
          on_eager(src_node, src_ep, std::move(body));
        } else if constexpr (std::is_same_v<T, EagerAckBody>) {
          on_eager_ack(src_node, src_ep, body);
        } else if constexpr (std::is_same_v<T, RndvBody>) {
          on_rndv(src_node, src_ep, body);
        } else if constexpr (std::is_same_v<T, PullBody>) {
          on_pull(src_node, src_ep, body);
        } else if constexpr (std::is_same_v<T, PullReplyBody>) {
          on_pull_reply(src_node, src_ep, std::move(body));
        } else if constexpr (std::is_same_v<T, NotifyBody>) {
          on_notify(src_node, src_ep, body);
        } else if constexpr (std::is_same_v<T, NotifyAckBody>) {
          on_notify_ack(src_node, src_ep, body);
        } else if constexpr (std::is_same_v<T, AbortBody>) {
          on_abort(src_node, src_ep, body);
        }
      },
      std::move(pkt.body));
}

// --- eager receive ---------------------------------------------------------------

void Endpoint::on_eager(net::NodeId src, std::uint8_t src_ep,
                        EagerBody&& body) {
  const std::uint64_t key = inbound_key(src, src_ep, body.seq, false);
  if (completed_.contains(key)) {
    // Retransmission of a message we already delivered: re-ack (the ack was
    // probably lost) but never touch the user buffer again.
    ++counters_.duplicate_frames;
    ++counters_.duplicates_suppressed;
    send_packet({src, src_ep}, EagerAckBody{body.seq},
                cpu::Priority::kBottomHalf);
    return;
  }

  // Find (or create) the reassembly record; matching happens on the first
  // fragment so message order is fixed by arrival order.
  auto msg = find_inbound(false, src, src_ep, body.seq);
  if (msg == inbound_.end()) {
    InboundMsg m;
    m.rndv = false;
    m.peer_node = src;
    m.peer_ep = src_ep;
    m.seq = body.seq;
    m.match = body.match;
    m.msg_len = body.msg_len;
    m.bound = take_posted(body.match, m.recv);
    if (!m.bound) m.kernel_buffer.resize(m.msg_len);
    msg = inbound_.insert(inbound_.end(), std::move(m));
  }

  if (msg->frags_seen.count(body.frag_offset) != 0) {
    ++counters_.duplicate_frames;
    ++counters_.duplicates_suppressed;
    return;
  }
  msg->frags_seen.insert(body.frag_offset);
  eager_deliver_frag(*msg, body.frag_offset, std::move(body.data));
}

void Endpoint::eager_deliver_frag(InboundMsg& msg, std::uint32_t frag_offset,
                                  DataChunk&& data) {
  const std::size_t n = data.size();
  const std::uint32_t seq = msg.seq;
  const net::NodeId peer = msg.peer_node;
  const std::uint8_t peer_ep = msg.peer_ep;
  charge_rx_copy(n, [this, peer, peer_ep, seq, frag_offset,
                     data = std::move(data)]() mutable {
    // Re-find the record: it may have completed/vanished while the copy
    // cost was accruing (e.g. duplicate path).
    auto it = find_inbound(false, peer, peer_ep, seq);
    if (it == inbound_.end()) return;
    InboundMsg& m = *it;
    if (m.bound && m.kernel_buffer.empty()) {
      // Matched before the first fragment arrived: copy directly into the
      // user buffer (bounded by the posted size).
      scatter_to_user(m.recv, frag_offset, data);
    } else if (!data.empty()) {
      // Started as unexpected: every fragment stays in the kernel staging
      // buffer, even if an irecv bound the message mid-reassembly, so the
      // final staged copy delivers a consistent whole. A zero-length
      // message has no bytes (and a null data pointer) to copy.
      std::memcpy(m.kernel_buffer.data() + frag_offset, data.data(),
                  data.size());
    }
    m.bytes_received += data.size();
    if (m.bytes_received >= m.msg_len) finish_eager_inbound(m);
  });
}

void Endpoint::finish_eager_inbound(InboundMsg& msg) {
  if (!msg.acked) {
    msg.acked = true;
    send_packet({msg.peer_node, msg.peer_ep}, EagerAckBody{msg.seq},
                cpu::Priority::kBottomHalf);
  }

  // Unexpected and complete: wait in the inbound list for a matching irecv.
  // (finish runs again, on the bound path, when irecv binds it.)
  if (!msg.bound) return;
  const bool trunc = msg.msg_len > msg.recv.total_len;
  const std::size_t delivered = std::min(msg.msg_len, msg.recv.total_len);
  const RecvRequest recv = msg.recv;
  std::vector<std::byte> staged = std::move(msg.kernel_buffer);
  completed_.insert(inbound_key(msg.peer_node, msg.peer_ep, msg.seq, false));
  erase_inbound(msg);
  if (staged.empty()) {
    complete_recv(recv, Status{true, trunc, delivered});
    return;
  }
  // Was unexpected when it started arriving: one more copy from the kernel
  // staging buffer into the user buffer.
  charge_rx_copy(delivered, [this, recv, staged = std::move(staged), delivered,
                             trunc]() mutable {
    scatter_to_user(recv, 0,
                    std::span<const std::byte>(staged.data(), delivered));
    complete_recv(recv, Status{true, trunc, delivered});
  });
}

void Endpoint::scatter_to_user(const RecvRequest& recv, std::size_t offset,
                               std::span<const std::byte> data) {
  if (offset >= recv.total_len) return;
  std::size_t remaining = std::min(data.size(), recv.total_len - offset);
  std::size_t cur = offset;   // message offset being written
  std::size_t src_off = 0;    // consumed bytes of `data`
  std::size_t seg_base = 0;   // message offset where this segment starts
  for (const Segment& s : recv.segments) {
    if (remaining == 0) break;
    const std::size_t seg_end = seg_base + s.len;
    if (cur < seg_end) {
      const std::size_t in_off = cur - seg_base;
      const std::size_t chunk = std::min(remaining, s.len - in_off);
      as_.write(s.addr + in_off, data.subspan(src_off, chunk));
      cur += chunk;
      src_off += chunk;
      remaining -= chunk;
    }
    seg_base = seg_end;
  }
}

std::list<Endpoint::InboundMsg>::iterator Endpoint::find_inbound(
    bool rndv, net::NodeId node, std::uint8_t ep, std::uint32_t seq) {
  return std::find_if(inbound_.begin(), inbound_.end(),
                      [&](const InboundMsg& m) {
                        return m.rndv == rndv && m.peer_node == node &&
                               m.peer_ep == ep && m.seq == seq;
                      });
}

bool Endpoint::take_posted(std::uint64_t match, RecvRequest& out) {
  auto it = std::find_if(
      posted_.begin(), posted_.end(),
      [&](const RecvRequest& r) { return match_ok(r, match); });
  if (it == posted_.end()) return false;
  out = std::move(*it);
  posted_.erase(it);
  return true;
}

Endpoint::SendRequest* Endpoint::send_to(std::uint32_t seq, net::NodeId node,
                                         std::uint8_t ep) {
  auto it = sends_.find(seq);
  if (it == sends_.end() || it->second->dest != EndpointAddr{node, ep}) {
    return nullptr;
  }
  return it->second.get();
}

Endpoint::PullState* Endpoint::pull_with(std::uint32_t handle,
                                         net::NodeId node, std::uint8_t ep) {
  auto it = pulls_.find(handle);
  if (it == pulls_.end() || it->second->peer_node != node ||
      it->second->peer_ep != ep) {
    return nullptr;
  }
  return it->second.get();
}

Endpoint::PullState* Endpoint::pull_from(net::NodeId node, std::uint8_t ep,
                                         std::uint32_t seq) {
  for (const auto& [handle, ps] : pulls_) {
    if (ps->peer_node == node && ps->peer_ep == ep && ps->sender_seq == seq) {
      return ps.get();
    }
  }
  return nullptr;
}

void Endpoint::erase_inbound(InboundMsg& msg) {
  for (auto it = inbound_.begin(); it != inbound_.end(); ++it) {
    if (&*it == &msg) {
      inbound_.erase(it);
      return;
    }
  }
}

void Endpoint::complete_recv(const RecvRequest& recv, Status st) {
  ++counters_.eager_completed;
  if (recv.done) recv.done(st);
}

void Endpoint::on_eager_ack(net::NodeId src, std::uint8_t src_ep,
                            const EagerAckBody& body) {
  if (send_to(body.seq, src, src_ep) == nullptr) {
    ++counters_.duplicates_suppressed;  // duplicate or stray ack
    return;
  }
  complete_send(body.seq);
}

// --- rendezvous receive ----------------------------------------------------------

void Endpoint::on_rndv(net::NodeId src, std::uint8_t src_ep,
                       const RndvBody& body) {
  ++counters_.rndv_received;
  const std::uint64_t key = inbound_key(src, src_ep, body.seq, true);
  if (completed_.contains(key)) {
    ++counters_.duplicates_suppressed;  // stale duplicate
    return;
  }
  if (pull_from(src, src_ep, body.seq) != nullptr ||
      find_inbound(true, src, src_ep, body.seq) != inbound_.end()) {
    // Dup of an in-progress transfer or of an unmatched rendezvous.
    ++counters_.duplicates_suppressed;
    return;
  }

  InboundMsg msg;
  msg.rndv = true;
  msg.peer_node = src;
  msg.peer_ep = src_ep;
  msg.seq = body.seq;
  msg.match = body.match;
  msg.msg_len = body.msg_len;
  msg.sender_region = body.region;

  if (RecvRequest recv; take_posted(body.match, recv)) {
    start_pull(std::move(msg), std::move(recv));
    return;
  }
  inbound_.push_back(std::move(msg));
}

void Endpoint::start_pull(InboundMsg&& rndv_msg, RecvRequest recv) {
  const std::size_t wanted = std::min(rndv_msg.msg_len, recv.total_len);
  Region* region = find_region(recv.region);
  if (region == nullptr && wanted > 0) {
    // No region to land the data in (severe posted-size mismatch): abort.
    ++counters_.aborts;
    send_packet({rndv_msg.peer_node, rndv_msg.peer_ep},
                AbortBody{rndv_msg.seq}, cpu::Priority::kBottomHalf);
    complete_recv(recv, Status{false, true, 0});
    return;
  }

  auto state = pull_pool_.acquire();
  PullState& ps = *state;
  ps.handle = next_pull_handle_++;
  ps.peer_node = rndv_msg.peer_node;
  ps.peer_ep = rndv_msg.peer_ep;
  ps.sender_seq = rndv_msg.seq;
  ps.sender_region = rndv_msg.sender_region;
  ps.full_len = rndv_msg.msg_len;
  ps.msg_len = wanted;
  ps.recv = std::move(recv);
  ps.region = region;

  const auto& proto = driver_.config().protocol;
  for (std::size_t off = 0; off < wanted; off += proto.pull_block) {
    PullBlock blk;
    blk.offset = off;
    blk.len = std::min(proto.pull_block, wanted - off);
    blk.frame_seen.assign(
        (blk.len + proto.frame_payload - 1) / proto.frame_payload, false);
    ps.blocks.push_back(std::move(blk));
  }

  // `ps` stays valid across the emplace: the pooled node's address is
  // stable even as the table itself shifts.
  const std::uint32_t handle = ps.handle;
  pulls_.emplace(handle, std::move(state));
  emit_request(obs::EventKind::kPullStart, handle, ps.peer(), ps.sender_seq,
               wanted, ps.recv.region);

  if (wanted == 0) {
    finish_pull(ps);
    return;
  }

  region->add_use();
  arm_pull_rto(ps);
  pins_.ensure_pinned(*region, overlap_for(ps.recv.blocking_hint),
                      guarded([this, handle](bool ok) {
    auto it = pulls_.find(handle);
    if (it == pulls_.end()) return;
    PullState& p = *it->second;
    if (!ok) {
      fail_pull(handle, /*send_abort=*/true);
      return;
    }
    if (!p.started) {
      p.started = true;
      pump_pull_window(p);
    }
  }));
}

void Endpoint::pump_pull_window(PullState& ps) {
  const auto& proto = driver_.config().protocol;
  while (ps.requested_incomplete < proto.pull_window &&
         ps.next_block < ps.blocks.size()) {
    request_block(ps, ps.next_block++);
  }
}

void Endpoint::request_block(PullState& ps, std::size_t block_idx) {
  PullBlock& blk = ps.blocks[block_idx];
  if (blk.complete) return;
  if (!blk.requested) {
    blk.requested = true;
    ++ps.requested_incomplete;
  }
  blk.last_request = driver_.engine().now();
  ++counters_.pulls_sent;
  emit_request(obs::EventKind::kPullBlockReq, ps.handle, ps.peer(),
               blk.offset, blk.len);
  PullBody body;
  body.region = ps.sender_region;
  body.handle = ps.handle;
  body.offset = blk.offset;
  body.len = static_cast<std::uint32_t>(blk.len);
  body.seq = ps.sender_seq;
  send_packet(ps.peer(), body, cpu::Priority::kBottomHalf);
}

// Sender side: serve a pull request straight from the (pinned) region.
void Endpoint::on_pull(net::NodeId src, std::uint8_t src_ep,
                       const PullBody& body) {
  if (auto it = sends_.find(body.seq); it != sends_.end()) {
    it->second->pull_seen = true;  // the RNDV clearly arrived
  }
  Region* region = find_region(body.region);
  if (region == nullptr) return;  // undeclared (aborted): ignore
  pins_.touch(*region);

  // A pull must stay inside the region it names; a request that escapes it
  // (corrupted-but-parseable, or hostile) is dropped, never served.
  if (body.offset > region->total_length() ||
      body.len > region->total_length() - body.offset) {
    ++counters_.checksum_drops;
    return;
  }

  const auto& proto = driver_.config().protocol;
  const std::size_t end = body.offset + body.len;
  for (std::size_t off = body.offset; off < end;
       off += proto.frame_payload) {
    const std::size_t n = std::min(proto.frame_payload, end - off);
    ++counters_.region_accesses;
    // Zero-copy send: the NIC reads the pinned pages during serialization,
    // so the bytes go from the pinned frames straight into the frame's data
    // window and no CPU copy cost is charged. If a page is not pinned yet
    // this is an overlap miss and the frame is simply not sent (paper §3.3).
    const bool paged = driver_.config().pinning.mode == PinMode::kNone;
    if (!paged && !region->range_pinned(off, n)) {
      note_overlap_miss(/*receiver=*/false, body.region, off, n, body.seq,
                        {src, src_ep});
      arm_sender_fast_retry(src, src_ep, body);
      continue;
    }
    const EndpointAddr dest{src, src_ep};
    PullReplyFrame frame(header_to(dest, PacketType::kPullReply), body.handle,
                         off, n);
    if (paged) {
      region->copy_out_paged(off, frame.data());  // NIC-MMU walk, never misses
    } else {
      const Region::AccessResult copied = region->copy_out(off, frame.data());
      assert(copied == Region::AccessResult::kOk);  // range checked above
      (void)copied;
    }
    // The send seq binds the copy to its send chain for attribution.
    emit_request(obs::EventKind::kCopyOut, body.seq, dest, off, n,
                 body.region);
    ++counters_.pull_replies_sent;
    transmit(dest, PacketType::kPullReply, std::move(frame).finish(),
             cpu::Priority::kBottomHalf);
  }
}

void Endpoint::on_pull_reply(net::NodeId src, std::uint8_t src_ep,
                             PullReplyBody&& body) {
  PullState* found = pull_with(body.handle, src, src_ep);
  if (found == nullptr) {
    // Stale reply for a finished transfer, or a stray one for someone
    // else's: either way it never touches the region.
    ++counters_.duplicate_frames;
    ++counters_.duplicates_suppressed;
    return;
  }
  PullState& ps = *found;
  const auto& proto = driver_.config().protocol;
  // Validate the frame against this pull state before touching any memory:
  // the offset must land on a frame boundary inside a known block and the
  // payload must be exactly the frame the protocol would send for that slot.
  // Anything else is a corrupted-but-parseable or hostile frame — drop it
  // and let retransmission recover; never scribble into the region.
  if (body.offset >= ps.msg_len) {
    ++counters_.checksum_drops;
    return;
  }
  const std::size_t block_idx = body.offset / proto.pull_block;
  if (block_idx >= ps.blocks.size()) {
    ++counters_.checksum_drops;
    return;
  }
  PullBlock& blk = ps.blocks[block_idx];
  const std::size_t in_block = body.offset - blk.offset;
  if (in_block % proto.frame_payload != 0 || in_block >= blk.len) {
    ++counters_.checksum_drops;
    return;
  }
  const std::size_t frame_idx = in_block / proto.frame_payload;
  if (body.data.size() != std::min(proto.frame_payload, blk.len - in_block)) {
    ++counters_.checksum_drops;
    return;
  }
  if (blk.frame_seen[frame_idx]) {
    ++counters_.duplicate_frames;
    ++counters_.duplicates_suppressed;
    return;
  }

  // The paper's cheap test on the region descriptor: not pinned yet ->
  // overlap miss -> drop the packet, retransmission recovers (§3.3).
  ++counters_.region_accesses;
  const bool paged = driver_.config().pinning.mode == PinMode::kNone;
  if (!paged && !ps.region->range_pinned(body.offset, body.data.size())) {
    note_overlap_miss(/*receiver=*/true, ps.region->id(), body.offset,
                      body.data.size(), ps.handle, ps.peer());
    arm_receiver_fast_retry(ps, block_idx);
    maybe_optimistic_rerequest(ps, block_idx);
    return;
  }

  blk.frame_seen[frame_idx] = true;
  ++blk.frames_received;
  const std::uint32_t handle = ps.handle;
  const std::size_t n = body.data.size();
  charge_rx_copy(n, [this, handle, block_idx, paged,
                     body = std::move(body)]() mutable {
    auto pit = pulls_.find(handle);
    if (pit == pulls_.end()) return;
    PullState& p = *pit->second;
    if (paged) {
      p.region->copy_in_paged(body.offset, body.data);
    } else if (p.region->copy_in(body.offset, body.data) !=
               Region::AccessResult::kOk) {
      // Invalidated between the check and the copy: count it as a miss and
      // let the re-request machinery recover (after a repin).
      note_overlap_miss(/*receiver=*/true, p.region->id(), body.offset,
                        body.data.size(), p.handle, p.peer());
      PullBlock& b = p.blocks[block_idx];
      const std::size_t fi = (body.offset - b.offset) /
                             driver_.config().protocol.frame_payload;
      b.frame_seen[fi] = false;
      --b.frames_received;
      pins_.ensure_pinned(*p.region, [](bool) {});
      return;
    }
    // The handle binds the copy to its pull chain for attribution.
    emit_request(obs::EventKind::kCopyIn, p.handle, p.peer(), body.offset,
                 body.data.size(), p.region->id());
    PullBlock& b = p.blocks[block_idx];
    if (++b.frames_done == b.frame_seen.size()) {
      b.complete = true;
      --p.requested_incomplete;
      ++p.blocks_done;
      if (p.blocks_done == p.blocks.size()) {
        finish_pull(p);
        return;
      }
      pump_pull_window(p);
    }
  });
  maybe_optimistic_rerequest(ps, block_idx);
}

void Endpoint::note_overlap_miss(bool receiver, RegionId region,
                                 std::size_t offset, std::size_t len,
                                 std::uint32_t seq, EndpointAddr peer) {
  ++counters_.overlap_misses;
  ++counters_.frames_dropped_on_miss;
  emit_request(receiver ? obs::EventKind::kOverlapMissRecv
                        : obs::EventKind::kOverlapMissSend,
               seq, peer, offset, len, region);
}

void Endpoint::arm_receiver_fast_retry(PullState& ps, std::size_t block_idx) {
  PullBlock& blk = ps.blocks[block_idx];
  if (blk.fast_retry) return;
  blk.fast_retry = true;
  FastRetry fr;
  fr.pull.handle = ps.handle;
  fr.pull.offset = blk.offset;
  fr.deadline =
      driver_.engine().now() + driver_.config().protocol.pull_retry_timeout;
  schedule_fast_retry(fr);
}

std::uint64_t Endpoint::sender_retry_key(const PullBody& body) const {
  return (static_cast<std::uint64_t>(body.handle) << 32) ^
         (body.offset / driver_.config().protocol.pull_block);
}

void Endpoint::arm_sender_fast_retry(net::NodeId src, std::uint8_t src_ep,
                                     const PullBody& body) {
  // At most one poll per (handle, offset): on_pull retries re-enter here.
  if (!pending_pull_retries_.insert(sender_retry_key(body)).second) return;
  FastRetry fr;
  fr.peer = {src, src_ep};
  fr.pull = body;
  fr.deadline =
      driver_.engine().now() + driver_.config().protocol.pull_retry_timeout;
  schedule_fast_retry(fr);
}

void Endpoint::schedule_fast_retry(const FastRetry& fr) {
  driver_.engine().schedule_after(driver_.config().protocol.rerequest_cooldown,
                                  guarded([this, fr] { fast_retry_tick(fr); }),
                                  {"core", "pull_retry"});
}

void Endpoint::fast_retry_tick(const FastRetry& fr) {
  // The pinned range the poll waits for; no region once the poll is moot
  // (region undeclared, or the block already arrived another way).
  const Region* region = nullptr;
  std::size_t offset = 0;
  std::size_t len = 0;
  PullState* ps = nullptr;
  const std::size_t block =
      fr.pull.offset / driver_.config().protocol.pull_block;
  if (fr.sender()) {
    region = find_region(fr.pull.region);
    if (region != nullptr) {
      offset = fr.pull.offset;
      len = std::min<std::size_t>(fr.pull.len,
                                  region->total_length() - fr.pull.offset);
    }
  } else {
    auto it = pulls_.find(fr.pull.handle);
    if (it == pulls_.end()) return;  // the block's marker went with it
    ps = it->second.get();
    const PullBlock& b = ps->blocks[block];
    if (!ps->done && !b.complete) {
      region = ps->region;
      offset = b.offset;
      len = b.len;
    }
  }
  const bool pinned = region != nullptr && region->range_pinned(offset, len);
  if (region != nullptr && !pinned &&
      driver_.engine().now() < fr.deadline) {
    schedule_fast_retry(fr);
    return;
  }
  // The poll ends; past the deadline the coarse retry timer owns recovery.
  if (fr.sender()) {
    pending_pull_retries_.erase(sender_retry_key(fr.pull));
    // Re-serve the whole request; the receiver discards duplicates.
    if (pinned) on_pull(fr.peer.node, fr.peer.ep, fr.pull);
  } else {
    ps->blocks[block].fast_retry = false;
    if (pinned) {
      ++counters_.pull_rerequests;
      request_block(*ps, block);
    }
  }
}

void Endpoint::maybe_optimistic_rerequest(PullState& ps,
                                          std::size_t arrived_block) {
  const auto& proto = driver_.config().protocol;
  if (!proto.optimistic_rerequest) return;
  // Data for a later block implies earlier requests were (partly) lost:
  // re-request the oldest incomplete block, rate-limited (footnote 4).
  // "Lost" means missing on the wire — a block whose frames all arrived and
  // are merely queued behind the copy engine is fine.
  for (std::size_t i = 0; i < arrived_block; ++i) {
    PullBlock& blk = ps.blocks[i];
    if (!blk.requested || blk.complete ||
        blk.frames_received == blk.frame_seen.size()) {
      continue;
    }
    if (driver_.engine().now() - blk.last_request <
        proto.rerequest_cooldown) {
      return;
    }
    ++counters_.pull_rerequests;
    request_block(ps, i);
    return;
  }
}

void Endpoint::finish_pull(PullState& ps) {
  ps.done = true;
  driver_.engine().cancel(ps.rto);
  const bool trunc = ps.full_len > ps.msg_len;
  if (ps.region != nullptr) {
    ps.region->drop_use();
  }
  emit_request(obs::EventKind::kRecvDone, ps.handle, ps.peer(), ps.sender_seq,
               ps.msg_len);
  completed_.insert(inbound_key(ps.peer_node, ps.peer_ep, ps.sender_seq, true));
  complete_recv(ps.recv, Status{true, trunc, ps.msg_len});
  send_notify(ps);
}

void Endpoint::send_notify(PullState& ps) {
  ++counters_.notifies_sent;
  send_packet(ps.peer(), NotifyBody{ps.sender_seq, ps.handle},
              cpu::Priority::kBottomHalf);
  const std::uint32_t handle = ps.handle;
  ps.rto = driver_.engine().schedule_after(
      backoff_timeout(ps.notify_retries), guarded([this, handle] {
        auto it = pulls_.find(handle);
        if (it == pulls_.end()) return;
        PullState& p = *it->second;
        if (++p.notify_retries >
            driver_.config().protocol.notify_retry_budget) {
          // The data is safely delivered; only the sender-side release is
          // lost. Stop retransmitting and free the handle.
          ++counters_.retry_exhausted;
          destroy_pull(handle);
          return;
        }
        ++counters_.retransmit_timeouts;
        send_notify(p);
      }),
      {"core", "notify_rto"});
}

void Endpoint::arm_pull_rto(PullState& ps) {
  const std::uint32_t handle = ps.handle;
  ps.rto = driver_.engine().schedule_after(
      driver_.config().protocol.pull_retry_timeout, guarded([this, handle] {
        auto it = pulls_.find(handle);
        if (it == pulls_.end()) return;
        PullState& p = *it->second;
        if (p.done) return;
        // Only a transfer that made no progress since the last tick is
        // stalled (tail-dropped by an overlap miss, or lost on the wire);
        // one that is merely streaming must not be re-pulled.
        const std::size_t progress = p.frames_received_total();
        if (p.started && progress == p.last_progress) {
          if (++p.stall_ticks > driver_.config().protocol.pull_stall_budget) {
            // The sender has been silent for the whole budget: stop holding
            // receiver state for it, tell it we gave up, fail the receive.
            ++counters_.retry_exhausted;
            fail_pull(handle, /*send_abort=*/true);
            return;
          }
          ++counters_.retransmit_timeouts;
          emit_request(obs::EventKind::kPullRetry, handle, p.peer(),
                       p.sender_seq, static_cast<std::uint64_t>(p.stall_ticks));
          for (std::size_t i = 0; i < p.blocks.size(); ++i) {
            PullBlock& blk = p.blocks[i];
            if (blk.requested && !blk.complete) request_block(p, i);
          }
        } else {
          p.stall_ticks = 0;
        }
        p.last_progress = progress;
        arm_pull_rto(p);
      }),
      {"core", "pull_rto"});
}

void Endpoint::destroy_pull(std::uint32_t handle) {
  auto it = pulls_.find(handle);
  if (it == pulls_.end()) return;
  driver_.engine().cancel(it->second->rto);
  pulls_.erase(it);
}

// Sender: the receiver has everything; release and complete.
void Endpoint::on_notify(net::NodeId src, std::uint8_t src_ep,
                         const NotifyBody& body) {
  // Always ack: the notify may be a retransmission after our ack was lost.
  send_packet({src, src_ep}, NotifyAckBody{body.handle},
              cpu::Priority::kBottomHalf);
  if (send_to(body.seq, src, src_ep) == nullptr) {
    ++counters_.duplicates_suppressed;  // notify retransmission, or stray
    return;
  }
  complete_send(body.seq);
}

void Endpoint::on_notify_ack(net::NodeId src, std::uint8_t src_ep,
                             const NotifyAckBody& body) {
  // Only a pull whose data completed sends NOTIFY, so only such a pull can
  // be acked; anything else is an ack for a freed handle, or a stray.
  if (PullState* ps = pull_with(body.handle, src, src_ep);
      ps == nullptr || !ps->done) {
    ++counters_.duplicates_suppressed;
    return;
  }
  destroy_pull(body.handle);
}

void Endpoint::on_abort(net::NodeId src, std::uint8_t src_ep,
                        const AbortBody& body) {
  // Receiver side: the sender gave up on (src, seq). At most one in-progress
  // pull matches (on_rndv suppresses duplicates), so scan order cannot leak.
  if (PullState* ps = pull_from(src, src_ep, body.seq);
      ps != nullptr && !ps->done) {
    fail_pull(ps->handle, /*send_abort=*/false);
    return;
  }
  if (auto it = find_inbound(true, src, src_ep, body.seq);
      it != inbound_.end()) {
    inbound_.erase(it);
    return;
  }
  // Sender side: the receiver aborted our request.
  if (send_to(body.seq, src, src_ep) != nullptr) {
    fail_send(body.seq, /*send_abort=*/false);
  }
}

// --- plumbing ---------------------------------------------------------------------

void Endpoint::charge_rx_copy(std::size_t bytes, sim::UniqueFunction raw) {
  // The continuation captures `this` and runs after an arbitrary queueing
  // delay (CPU run queue or DMA channel) — guard it against endpoint close.
  sim::UniqueFunction after = guarded(std::move(raw));
  cpu::Core& irq = bh_core();
  ioat::DmaEngine* dma = driver_.dma();
  if (driver_.config().protocol.use_ioat && dma != nullptr) {
    // Bottom half only writes the descriptor; the engine moves the data.
    const sim::Time cpu_cost = driver_.cpu().copy_cost(bytes);
    irq.submit(cpu::Priority::kBottomHalf, 300,
               // pinlint: allow(D7: dma and irq are host hardware owned by
               // the Driver, which outlives every endpoint; the endpoint
               // state itself rides inside `after`, already guarded above)
               [dma, bytes, cpu_cost, after = std::move(after),
                &irq]() mutable {
                 if (dma->full()) {
                   // Descriptor ring full: fall back to a CPU copy.
                   irq.submit(cpu::Priority::kBottomHalf, cpu_cost,
                              std::move(after));
                   return;
                 }
                 dma->copy(bytes, [] {}, std::move(after));
               });
    return;
  }
  irq.submit(cpu::Priority::kBottomHalf, driver_.cpu().copy_cost(bytes),
             std::move(after));
}

void Endpoint::emit_request(obs::EventKind kind, std::uint32_t seq,
                            EndpointAddr peer, std::uint64_t offset,
                            std::uint64_t len, RegionId region) {
  obs::Event e;
  e.kind = kind;
  e.seq = seq;
  e.peer = peer.node;
  e.peer_ep = peer.ep;
  e.offset = offset;
  e.len = len;
  e.region = region;
  obs_emit(e);
}

void Endpoint::obs_emit(obs::Event e) {
  const obs::Relay& relay = driver_.relay();
  if (!relay.active()) return;
  e.node = driver_.node();
  e.ep = id_;
  relay.emit(e);
}

void Endpoint::send_packet(EndpointAddr dest, PacketBody body,
                           cpu::Priority priority) {
  const auto t = static_cast<PacketType>(body.index() + 1);
  Packet pkt;
  pkt.header = header_to(dest, t);
  pkt.body = std::move(body);
  transmit(dest, t, encode(pkt), priority);
}

PacketHeader Endpoint::header_to(EndpointAddr dest, PacketType t) const {
  PacketHeader h;
  h.type = t;
  h.src_ep = id_;
  h.dst_ep = dest.ep;
  // Incarnation fencing: our epoch, and the destination's as far as we have
  // learned it (0 = unknown, never fenced — first contact always lands).
  h.src_epoch = epoch_;
  h.dst_epoch = driver_.peer_epoch(dest.node, dest.ep);
  return h;
}

void Endpoint::transmit(EndpointAddr dest, PacketType t,
                        std::vector<std::byte> payload,
                        cpu::Priority priority) {
  {
    obs::Event e;
    e.kind = obs::EventKind::kPktTx;
    e.pkt = static_cast<std::uint8_t>(t);
    e.label = packet_type_name(t);
    e.peer = dest.node;
    e.peer_ep = dest.ep;
    obs_emit(e);
  }
  net::Frame frame;
  frame.dst = dest.node;
  frame.payload = std::move(payload);

  cpu::Core& core = priority == cpu::Priority::kBottomHalf
                        ? bh_core()
                        : process_core_;
  core.submit(priority, driver_.cpu().tx_frame_overhead,
              guarded([this, f = std::move(frame)]() mutable {
                driver_.nic().send(std::move(f));
              }));
}

std::uint64_t Endpoint::inbound_key(net::NodeId node, std::uint8_t ep,
                                    std::uint32_t seq, bool rndv) {
  return (static_cast<std::uint64_t>(node) << 41) ^
         (static_cast<std::uint64_t>(ep) << 33) ^
         (static_cast<std::uint64_t>(rndv ? 1 : 0) << 32) ^
         static_cast<std::uint64_t>(seq);
}

}  // namespace pinsim::core
