// Protocol edge cases driven by hand-crafted packets injected straight into
// the endpoint's dispatch path: duplicate control packets, stale data,
// malformed frames, and unknown handles must never corrupt state or crash.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/host.hpp"
#include "core/wire.hpp"
#include "event_log.hpp"
#include "obs/bus.hpp"
#include "sim/task.hpp"

namespace pinsim::core {
namespace {

constexpr std::uint64_t kAll = ~std::uint64_t{0};

struct Rig {
  explicit Rig(StackConfig stack = pinning_cache_config()) {
    fabric = std::make_unique<net::Fabric>(eng);
    Host::Config hc;
    hc.memory_frames = 16384;
    a = std::make_unique<Host>(eng, *fabric, hc, stack);
    b = std::make_unique<Host>(eng, *fabric, hc, stack);
    pa = &a->spawn_process();
    pb = &b->spawn_process();
  }

  /// Injects a raw frame into `to`'s NIC as if it came from node `src`.
  static void inject(Host& to, net::NodeId src, const Packet& pkt) {
    net::Frame f;
    f.src = src;
    f.dst = to.nic().node_id();
    f.payload = encode(pkt);
    to.nic().deliver(std::move(f));
  }
  void inject_to_b(const Packet& pkt) { inject(*b, a->nic().node_id(), pkt); }

  void drain() {
    eng.run();
    eng.rethrow_task_failures();
  }

  sim::Engine eng;
  std::unique_ptr<net::Fabric> fabric;
  std::unique_ptr<Host> a, b;
  Host::Process* pa = nullptr;
  Host::Process* pb = nullptr;
};

Packet make_packet(PacketBody body) {
  Packet p;
  p.header.type = static_cast<PacketType>(body.index() + 1);
  p.header.src_ep = 0;
  p.header.dst_ep = 0;
  p.body = std::move(body);
  return p;
}

TEST(EndpointEdge, DuplicateEagerFragmentsAreIgnored) {
  Rig rig;
  const auto dst = rig.pb->heap.malloc(1024);
  auto req = rig.pb->lib.irecv(0x7, kAll, dst, 1024);
  rig.eng.run_until(10 * sim::kMicrosecond);

  EagerBody body;
  body.match = 0x7;
  body.msg_len = 8;
  body.frag_offset = 0;
  body.seq = 1;
  body.data.assign(8, std::byte{0x11});
  rig.inject_to_b(make_packet(body));
  rig.inject_to_b(make_packet(body));  // duplicate of the same fragment
  rig.inject_to_b(make_packet(body));
  rig.drain();

  EXPECT_TRUE(req->completed());
  EXPECT_TRUE(req->status().ok);
  EXPECT_EQ(req->status().len, 8u);
  EXPECT_GE(rig.pb->lib.counters().duplicate_frames, 1u);
}

TEST(EndpointEdge, DuplicateOfCompletedEagerMessageIsReAcked) {
  Rig rig;
  const auto dst = rig.pb->heap.malloc(64);
  auto req = rig.pb->lib.irecv(0x8, kAll, dst, 64);
  rig.eng.run_until(10 * sim::kMicrosecond);

  EagerBody body;
  body.match = 0x8;
  body.msg_len = 4;
  body.seq = 9;
  body.data.assign(4, std::byte{0x22});
  rig.inject_to_b(make_packet(body));
  rig.drain();
  ASSERT_TRUE(req->completed());
  const auto acks_before = rig.b->nic().stats().tx_frames;

  // A late retransmission of the whole message: must be acked again (the
  // first ack may have been lost), not delivered again.
  rig.inject_to_b(make_packet(body));
  rig.drain();
  EXPECT_GT(rig.b->nic().stats().tx_frames, acks_before);
  EXPECT_EQ(rig.pb->ep.inflight(), 0u);
}

EagerBody eager_msg(std::uint32_t seq, std::uint64_t match, std::byte fill) {
  EagerBody body;
  body.match = match;
  body.msg_len = 8;
  body.seq = seq;
  body.data.assign(8, fill);
  return body;
}

// Duplicate-suppression memory holds the last 8,192 completions: after a
// long run from one peer, a retransmission of a recent message is still
// recognised, re-acked, and kept out of the user's buffers, while a recent
// seq that never arrived is still taken as new.
TEST(EndpointEdge, DuplicateOfRecentEagerIsSuppressedAfterLongTraffic) {
  Rig rig;
  constexpr std::uint32_t kMessages = 20'000;
  constexpr std::uint32_t kLost = kMessages - 5;  // arrives only at the end
  const auto dst = rig.pb->heap.malloc(8);
  for (std::uint32_t seq = 1; seq <= kMessages; ++seq) {
    if (seq == kLost) continue;
    auto req = rig.pb->lib.irecv(0x10, kAll, dst, 8);
    rig.inject_to_b(make_packet(eager_msg(seq, 0x10, std::byte{0x22})));
    rig.drain();
    ASSERT_TRUE(req->completed()) << "seq " << seq;
  }
  ASSERT_EQ(rig.pb->lib.counters().eager_completed, kMessages - 1);

  // A posted receive the duplicate would match if it were taken as new.
  const auto sentinel = rig.pb->heap.malloc(8);
  const std::vector<std::byte> untouched(8, std::byte{0xee});
  rig.pb->as.write(sentinel, untouched);
  auto spare = rig.pb->lib.irecv(0x10, kAll, sentinel, 8);
  const auto dups_before = rig.pb->lib.counters().duplicates_suppressed;
  const auto tx_before = rig.b->nic().stats().tx_frames;

  rig.inject_to_b(
      make_packet(eager_msg(kMessages - 10, 0x10, std::byte{0x5a})));
  rig.drain();

  EXPECT_EQ(rig.pb->lib.counters().duplicates_suppressed, dups_before + 1);
  EXPECT_GT(rig.b->nic().stats().tx_frames, tx_before);  // re-acked
  EXPECT_EQ(rig.pb->lib.counters().eager_completed, kMessages - 1);
  EXPECT_FALSE(spare->completed());
  std::vector<std::byte> got(8);
  rig.pb->as.read(sentinel, got);
  EXPECT_EQ(got, untouched);
  rig.pb->as.read(dst, got);
  EXPECT_EQ(got, std::vector<std::byte>(8, std::byte{0x22}));

  // The lost message's retransmission finally lands: new, so delivered.
  rig.inject_to_b(make_packet(eager_msg(kLost, 0x10, std::byte{0x77})));
  rig.drain();
  ASSERT_TRUE(spare->completed());
  EXPECT_TRUE(spare->status().ok);
  rig.pb->as.read(sentinel, got);
  EXPECT_EQ(got, std::vector<std::byte>(8, std::byte{0x77}));
}

// A sender numbers its sends from one counter shared by all its peers, so
// a flow's seqs can jump by thousands, and a retransmitted message can
// complete after much newer ones from the same peer. Suppression remembers
// completions in completion order, not a window of seq space, so the late
// message's own retransmission is still recognised.
TEST(EndpointEdge, LateCompletionOfAnOldSeqIsRemembered) {
  Rig rig;
  constexpr std::uint32_t kLost = 5;
  constexpr std::uint32_t kNewer = kLost + 20'000;
  const auto dst = rig.pb->heap.malloc(8);
  auto newer = rig.pb->lib.irecv(0x12, kAll, dst, 8);
  rig.inject_to_b(make_packet(eager_msg(kNewer, 0x12, std::byte{0x01})));
  rig.drain();
  ASSERT_TRUE(newer->completed());
  auto late = rig.pb->lib.irecv(0x12, kAll, dst, 8);
  rig.inject_to_b(make_packet(eager_msg(kLost, 0x12, std::byte{0x02})));
  rig.drain();
  ASSERT_TRUE(late->completed());

  // Its ack was lost too, so the sender retransmits it once more.
  const auto sentinel = rig.pb->heap.malloc(8);
  const std::vector<std::byte> untouched(8, std::byte{0xee});
  rig.pb->as.write(sentinel, untouched);
  auto spare = rig.pb->lib.irecv(0x12, kAll, sentinel, 8);
  const auto dups_before = rig.pb->lib.counters().duplicates_suppressed;
  const auto tx_before = rig.b->nic().stats().tx_frames;
  rig.inject_to_b(make_packet(eager_msg(kLost, 0x12, std::byte{0x03})));
  rig.drain();

  EXPECT_EQ(rig.pb->lib.counters().duplicates_suppressed, dups_before + 1);
  EXPECT_GT(rig.b->nic().stats().tx_frames, tx_before);  // re-acked
  EXPECT_FALSE(spare->completed());
  std::vector<std::byte> got(8);
  rig.pb->as.read(sentinel, got);
  EXPECT_EQ(got, untouched);
  rig.pb->as.read(dst, got);
  EXPECT_EQ(got, std::vector<std::byte>(8, std::byte{0x02}));
}

// A restarted peer starts its seq space over: its seq 1 is a new message,
// not a duplicate of the old incarnation's seq 1.
TEST(EndpointEdge, RestartedPeersFirstSeqIsDelivered) {
  Rig rig;
  const auto dst = rig.pb->heap.malloc(8);
  auto first = rig.pb->lib.irecv(0x11, kAll, dst, 8);
  rig.inject_to_b(make_packet(eager_msg(1, 0x11, std::byte{0x01})));
  rig.drain();
  ASSERT_TRUE(first->completed());

  // Before the restart, seq 1 again is a duplicate.
  auto second = rig.pb->lib.irecv(0x11, kAll, dst, 8);
  rig.inject_to_b(make_packet(eager_msg(1, 0x11, std::byte{0x02})));
  rig.drain();
  EXPECT_FALSE(second->completed());

  rig.pb->ep.on_peer_restarted(rig.a->nic().node_id(), 0);
  rig.inject_to_b(make_packet(eager_msg(1, 0x11, std::byte{0x03})));
  rig.drain();
  ASSERT_TRUE(second->completed());
  EXPECT_TRUE(second->status().ok);
  std::vector<std::byte> got(8);
  rig.pb->as.read(dst, got);
  EXPECT_EQ(got, std::vector<std::byte>(8, std::byte{0x03}));
}

TEST(EndpointEdge, DuplicateRndvDoesNotStartASecondPull) {
  Rig rig;
  const auto dst = rig.pb->heap.malloc(256 * 1024);
  auto req = rig.pb->lib.irecv(0x9, kAll, dst, 256 * 1024);
  rig.eng.run_until(10 * sim::kMicrosecond);

  RndvBody rndv;
  rndv.match = 0x9;
  rndv.msg_len = 256 * 1024;
  rndv.region = 12345;  // sender region id (opaque to the receiver)
  rndv.seq = 77;
  rig.inject_to_b(make_packet(rndv));
  rig.eng.run_until(20 * sim::kMicrosecond);
  const auto pulls_after_first = rig.pb->lib.counters().pulls_sent;
  EXPECT_GT(pulls_after_first, 0u);

  rig.inject_to_b(make_packet(rndv));  // retransmitted rendezvous
  rig.eng.run_until(30 * sim::kMicrosecond);
  // No extra pull state: the pulls in flight belong to the single transfer
  // (the retry timer may re-request, but no *new* handle appears).
  EXPECT_EQ(rig.pb->lib.counters().rndv_received, 2u);
  EXPECT_FALSE(req->completed());  // still waiting for data (none served)
}

TEST(EndpointEdge, PullReplyWithUnknownHandleIsDropped) {
  Rig rig;
  PullReplyBody reply;
  reply.handle = 4242;  // no such pull state
  reply.offset = 0;
  reply.data.assign(512, std::byte{0x33});
  rig.inject_to_b(make_packet(reply));
  rig.drain();
  EXPECT_EQ(rig.pb->lib.counters().duplicate_frames, 1u);
  EXPECT_EQ(rig.pb->ep.inflight(), 0u);
}

TEST(EndpointEdge, PullReplyBeyondMessageBoundsIsIgnored) {
  Rig rig;
  const auto dst = rig.pb->heap.malloc(64 * 1024);
  auto req = rig.pb->lib.irecv(0xa, kAll, dst, 64 * 1024);
  rig.eng.run_until(10 * sim::kMicrosecond);
  RndvBody rndv;
  rndv.match = 0xa;
  rndv.msg_len = 64 * 1024;
  rndv.region = 1;
  rndv.seq = 5;
  rig.inject_to_b(make_packet(rndv));
  rig.eng.run_until(20 * sim::kMicrosecond);

  PullReplyBody reply;
  reply.handle = 1;  // first handle allocated by the endpoint
  reply.offset = 10 * 1024 * 1024;  // absurd offset
  reply.data.assign(128, std::byte{0x44});
  rig.inject_to_b(make_packet(reply));
  rig.eng.run_until(30 * sim::kMicrosecond);
  EXPECT_FALSE(req->completed());  // nothing delivered, nothing crashed
}

TEST(EndpointEdge, NotifyForUnknownSeqStillGetsAcked) {
  Rig rig;
  NotifyBody notify;
  notify.seq = 999;  // no such send request
  notify.handle = 3;
  const auto tx_before = rig.b->nic().stats().tx_frames;
  rig.inject_to_b(make_packet(notify));
  rig.drain();
  // The ack must go out regardless (our previous ack may have been lost and
  // the sender state already retired).
  EXPECT_GT(rig.b->nic().stats().tx_frames, tx_before);
}

TEST(EndpointEdge, AbortForUnknownSeqIsHarmless) {
  Rig rig;
  rig.inject_to_b(make_packet(AbortBody{31337}));
  rig.drain();
  EXPECT_EQ(rig.pb->ep.inflight(), 0u);
  EXPECT_EQ(rig.pb->lib.counters().aborts, 0u);
}

TEST(EndpointEdge, MalformedFrameIsDroppedByTheDriver) {
  Rig rig;
  net::Frame f;
  f.src = rig.a->nic().node_id();
  f.dst = rig.b->nic().node_id();
  f.payload.assign(5, std::byte{0xff});  // bad type, truncated
  rig.b->nic().deliver(std::move(f));
  rig.drain();  // no crash, no state
  EXPECT_EQ(rig.pb->ep.inflight(), 0u);
}

TEST(EndpointEdge, FrameToClosedEndpointIsDropped) {
  Rig rig;
  Packet p = make_packet(EagerBody{0x1, 4, 0, 1, {4, std::byte{0x55}}});
  p.header.dst_ep = 9;  // never opened
  rig.inject_to_b(p);
  rig.drain();
  EXPECT_EQ(rig.pb->ep.inflight(), 0u);
}

TEST(EndpointEdge, PullForUndeclaredRegionIsIgnored) {
  Rig rig;
  PullBody pull;
  pull.region = 777;  // sender-side region that does not exist
  pull.handle = 1;
  pull.offset = 0;
  pull.len = 32768;
  pull.seq = 1;
  const auto replies_before = rig.pb->lib.counters().pull_replies_sent;
  rig.inject_to_b(make_packet(pull));
  rig.drain();
  EXPECT_EQ(rig.pb->lib.counters().pull_replies_sent, replies_before);
}

TEST(EndpointEdge, TruncatedRndvIntoTinyPostedRecvAborts) {
  // A rendezvous-sized message matched to an eager-sized posted buffer with
  // no backing region: the receiver must abort cleanly and tell the sender.
  Rig rig;
  const auto dst = rig.pb->heap.malloc(128);
  auto req = rig.pb->lib.irecv(0xb, kAll, dst, 128);  // eager-sized: no region
  rig.eng.run_until(10 * sim::kMicrosecond);

  RndvBody rndv;
  rndv.match = 0xb;
  rndv.msg_len = 1024 * 1024;
  rndv.region = 2;
  rndv.seq = 8;
  rig.inject_to_b(make_packet(rndv));
  rig.drain();
  ASSERT_TRUE(req->completed());
  EXPECT_FALSE(req->status().ok);
  EXPECT_TRUE(req->status().truncated);
  EXPECT_GE(rig.pb->lib.counters().aborts, 1u);
}

TEST(EndpointEdge, RegionDeclarationLimitsAndErrors) {
  Rig rig;
  auto& ep = rig.pb->ep;
  EXPECT_THROW(ep.undeclare_region(9999), std::invalid_argument);
  EXPECT_THROW((void)ep.declare_region({}), std::invalid_argument);
  // isend on a region id that does not exist.
  EXPECT_THROW(
      (void)ep.isend_rndv({0, 0}, 1, 9999, 100, [](Status) {}),
      std::invalid_argument);
  // isend longer than the region.
  const auto buf = rig.pb->heap.malloc(4096);
  const RegionId rid = ep.declare_region({Segment{buf, 4096}});
  EXPECT_THROW(
      (void)ep.isend_rndv({0, 0}, 1, rid, 8192, [](Status) {}),
      std::invalid_argument);
  ep.undeclare_region(rid);
}

TEST(EndpointEdge, SixteenEndpointsPerDriverThenFull) {
  Rig rig;
  // One endpoint exists per process already; fill the rest.
  std::vector<Endpoint*> eps;
  for (int i = 1; i < 16; ++i) {
    eps.push_back(&rig.b->driver().open_endpoint(rig.pb->as, rig.pb->core));
  }
  EXPECT_THROW(rig.b->driver().open_endpoint(rig.pb->as, rig.pb->core),
               std::runtime_error);
  for (Endpoint* ep : eps) rig.b->driver().close_endpoint(ep->id());
  // Slots are reusable after close.
  EXPECT_NO_THROW(rig.b->driver().open_endpoint(rig.pb->as, rig.pb->core));
}

// --- one receive teardown --------------------------------------------------

enum class AbortCause { kPinBeforeStart, kPinAfterStart, kStall, kSenderAbort,
                        kPeerDeath };

const char* cause_name(AbortCause c) {
  switch (c) {
    case AbortCause::kPinBeforeStart: return "PinFailsBeforeStart";
    case AbortCause::kPinAfterStart: return "PinFailsAfterStart";
    case AbortCause::kStall: return "StallBudget";
    case AbortCause::kSenderAbort: return "SenderAbort";
    case AbortCause::kPeerDeath: return "PeerDeath";
  }
  return "?";
}

// Every way a receive can die goes through one teardown: exactly one
// kRecvAbort, one ok=false completion, one abort counted, nothing left in
// flight, and an ABORT frame to the sender (ahead of kRecvAbort) only when
// the receiver is the side that gave up.
class RecvTeardown : public ::testing::TestWithParam<AbortCause> {};

TEST_P(RecvTeardown, OneAbortOneCompletion) {
  const AbortCause cause = GetParam();
  StackConfig stack = cause == AbortCause::kPinAfterStart
                          ? overlapped_cache_config()
                          : pinning_cache_config();
  stack.protocol.pull_stall_budget = 2;
  Rig rig(stack);
  net::FaultPlan silent;  // the sender's node never hears a thing
  silent.loss = 1.0;
  rig.fabric->faults().set_plan(silent);
  testutil::EventLog log;
  obs::Bus bus(rig.eng);
  bus.attach(&log);
  rig.b->driver().set_bus(&bus);

  // The receive buffer: 128 KiB, wholly unmapped when pinning must fail
  // before the pull starts, its upper half unmapped when it must fail
  // after.
  constexpr std::size_t kLen = 128 * 1024;
  Endpoint& ep = rig.pb->ep;
  const mem::VirtAddr buf = rig.pb->as.mmap(kLen);
  if (cause == AbortCause::kPinBeforeStart) rig.pb->as.munmap(buf, kLen);
  if (cause == AbortCause::kPinAfterStart) {
    rig.pb->as.munmap(buf + kLen / 2, kLen / 2);
  }
  const RegionId region = ep.declare_region({Segment{buf, kLen}});
  std::vector<Status> done;
  ep.irecv(0x5, kAll, buf, kLen, region,
           [&done](Status st) { done.push_back(st); });
  const Counters before = ep.counters();

  RndvBody rndv;
  rndv.match = 0x5;
  rndv.msg_len = kLen;
  rndv.region = 9;  // the sender never serves it
  rndv.seq = 3;
  rig.inject_to_b(make_packet(rndv));
  rig.eng.run_until(rig.eng.now() + 200 * sim::kMicrosecond);
  const bool started = log.find_first(obs::EventKind::kPullBlockReq) !=
                       testutil::EventLog::npos;
  EXPECT_EQ(started, cause != AbortCause::kPinBeforeStart);
  if (cause == AbortCause::kSenderAbort) {
    rig.inject_to_b(make_packet(AbortBody{3}));
  }
  if (cause == AbortCause::kPeerDeath) {
    ep.fail_requests_to(rig.a->nic().node_id());
  }
  rig.drain();
  rig.b->driver().set_bus(nullptr);

  std::size_t recv_aborts = 0;
  std::size_t abort_at = testutil::EventLog::npos;
  for (std::size_t i = 0; i < log.events().size(); ++i) {
    if (log.events()[i].kind != obs::EventKind::kRecvAbort) continue;
    ++recv_aborts;
    abort_at = i;
  }
  EXPECT_EQ(recv_aborts, 1u);
  const std::size_t abort_frame =
      log.find_first(obs::EventKind::kPktTx, PacketType::kAbort);
  const bool receiver_gave_up = cause != AbortCause::kSenderAbort &&
                                cause != AbortCause::kPeerDeath;
  if (receiver_gave_up) {
    ASSERT_NE(abort_frame, testutil::EventLog::npos);
    EXPECT_LT(abort_frame, abort_at);
  } else {
    EXPECT_EQ(abort_frame, testutil::EventLog::npos);
  }
  ASSERT_EQ(done.size(), 1u);
  EXPECT_FALSE(done[0].ok);
  EXPECT_EQ(done[0].peer_dead, cause == AbortCause::kPeerDeath);
  EXPECT_EQ(ep.counters().aborts, before.aborts + 1);
  EXPECT_EQ(ep.counters().retry_exhausted,
            before.retry_exhausted + (cause == AbortCause::kStall ? 1 : 0));
  EXPECT_EQ(ep.inflight(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Causes, RecvTeardown,
    ::testing::Values(AbortCause::kPinBeforeStart, AbortCause::kPinAfterStart,
                      AbortCause::kStall, AbortCause::kSenderAbort,
                      AbortCause::kPeerDeath),
    [](const ::testing::TestParamInfo<AbortCause>& info) {
      return std::string(cause_name(info.param));
    });

// --- replies from the wrong peer --------------------------------------------

// A reply carrying a live seq or handle but sent by a third endpoint (a
// stale or stray frame; without a watchdog nothing fences it) must not
// complete someone else's send, free someone else's pull, or write into
// someone else's receive buffer.
class ForgedReply : public ::testing::TestWithParam<PacketType> {};

TEST_P(ForgedReply, FromAThirdEndpointIsSuppressed) {
  const PacketType type = GetParam();
  Rig rig;
  net::FaultPlan silent;  // A and B never hear each other
  silent.loss = 1.0;
  rig.fabric->faults().set_plan(silent);
  Host::Config hc;
  hc.memory_frames = 4096;
  Host c(rig.eng, *rig.fabric, hc, pinning_cache_config());
  const net::NodeId third = c.nic().node_id();
  constexpr std::size_t kLen = 64 * 1024;
  bool completed = false;
  const auto mark = [&completed](Status) { completed = true; };

  if (type == PacketType::kEagerAck || type == PacketType::kNotify) {
    // A live send from A to B.
    Endpoint& ep = rig.pa->ep;
    const mem::VirtAddr src = rig.pa->heap.malloc(kLen);
    const std::uint32_t seq =
        type == PacketType::kEagerAck
            ? ep.isend_eager(rig.pb->addr(), 0x1, src, 64, mark)
            : ep.isend_rndv(rig.pb->addr(), 0x1,
                            ep.declare_region({Segment{src, kLen}}), kLen,
                            mark);
    rig.eng.run_until(rig.eng.now() + 50 * sim::kMicrosecond);
    const Counters before = ep.counters();
    if (type == PacketType::kEagerAck) {
      Rig::inject(*rig.a, third, make_packet(EagerAckBody{seq}));
    } else {
      Rig::inject(*rig.a, third, make_packet(NotifyBody{seq, 1}));
    }
    rig.eng.run_until(rig.eng.now() + 50 * sim::kMicrosecond);
    EXPECT_FALSE(completed);
    EXPECT_EQ(ep.inflight(), 1u);
    EXPECT_EQ(ep.counters().duplicates_suppressed,
              before.duplicates_suppressed + 1);
    return;
  }

  // A live pull on B of a rendezvous from A, its region pinned.
  Endpoint& ep = rig.pb->ep;
  const mem::VirtAddr dst = rig.pb->heap.malloc(kLen);
  const std::vector<std::byte> zeros(kLen, std::byte{0});
  rig.pb->as.write(dst, zeros);
  ep.irecv(0x2, kAll, dst, kLen, ep.declare_region({Segment{dst, kLen}}),
           mark);
  RndvBody rndv;
  rndv.match = 0x2;
  rndv.msg_len = kLen;
  rndv.region = 9;
  rndv.seq = 4;
  rig.inject_to_b(make_packet(rndv));
  rig.eng.run_until(rig.eng.now() + 200 * sim::kMicrosecond);
  ASSERT_GT(ep.counters().pulls_sent, 0u);
  const Counters before = ep.counters();
  if (type == PacketType::kNotifyAck) {
    Rig::inject(*rig.b, third, make_packet(NotifyAckBody{1}));
    // Even the right peer cannot free a pull whose data is not all in.
    rig.inject_to_b(make_packet(NotifyAckBody{1}));
  } else {
    PullReplyBody reply;
    reply.handle = 1;
    reply.offset = 0;
    reply.data.assign(pinning_cache_config().protocol.frame_payload,
                      std::byte{0xee});
    Rig::inject(*rig.b, third, make_packet(std::move(reply)));
  }
  rig.eng.run_until(rig.eng.now() + 50 * sim::kMicrosecond);
  EXPECT_FALSE(completed);
  EXPECT_EQ(ep.inflight(), 1u);
  EXPECT_EQ(ep.counters().duplicates_suppressed,
            before.duplicates_suppressed +
                (type == PacketType::kNotifyAck ? 2 : 1));
  std::vector<std::byte> got(kLen);
  rig.pb->as.read(dst, got);
  EXPECT_EQ(got, zeros);
}

INSTANTIATE_TEST_SUITE_P(
    Replies, ForgedReply,
    ::testing::Values(PacketType::kEagerAck, PacketType::kNotify,
                      PacketType::kNotifyAck, PacketType::kPullReply),
    [](const ::testing::TestParamInfo<PacketType>& info) {
      return std::string(packet_type_name(info.param));
    });

}  // namespace
}  // namespace pinsim::core
