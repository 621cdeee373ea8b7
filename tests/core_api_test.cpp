// API-surface tests: vectorial (iovec) transfers, request cancellation, and
// the QsNet-style no-pin mode.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <numeric>
#include <vector>

#include "core/host.hpp"
#include "mem/swap_daemon.hpp"
#include "sim/random.hpp"
#include "sim/task.hpp"

namespace pinsim::core {
namespace {

constexpr std::uint64_t kAll = ~std::uint64_t{0};

struct Rig {
  explicit Rig(StackConfig stack, std::size_t frames = 32768) {
    fabric = std::make_unique<net::Fabric>(eng);
    Host::Config hc;
    hc.memory_frames = frames;
    a = std::make_unique<Host>(eng, *fabric, hc, stack);
    b = std::make_unique<Host>(eng, *fabric, hc, stack);
    pa = &a->spawn_process();
    pb = &b->spawn_process();
  }

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

std::vector<std::byte> pattern(std::size_t n, std::uint8_t salt) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((i * 37 + salt) % 251);
  }
  return v;
}

/// Reads the concatenation of segments through the page table.
std::vector<std::byte> gather(Host::Process& p,
                              const std::vector<Segment>& segs) {
  std::vector<std::byte> out;
  for (const Segment& s : segs) {
    std::vector<std::byte> part(s.len);
    p.as.read(s.addr, part);
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

void scatter(Host::Process& p, const std::vector<Segment>& segs,
             const std::vector<std::byte>& data) {
  std::size_t off = 0;
  for (const Segment& s : segs) {
    p.as.write(s.addr, std::span<const std::byte>(data.data() + off, s.len));
    off += s.len;
  }
}

class VectorialTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(VectorialTest, MultiSegmentRoundTrip) {
  const std::size_t total = GetParam();
  Rig rig(overlapped_cache_config());

  // Sender: three ragged segments; receiver: two, differently split.
  const std::size_t s1 = total / 3;
  const std::size_t s2 = total / 4;
  const std::size_t s3 = total - s1 - s2;
  std::vector<Segment> send_segs = {
      {rig.pa->heap.malloc(s1 + 128) + 64, s1},  // deliberately unaligned
      {rig.pa->heap.malloc(s2), s2},
      {rig.pa->heap.malloc(s3 + 16) + 8, s3},
  };
  const std::size_t r1 = total / 2 + 13;
  const std::size_t r2 = total - r1;
  std::vector<Segment> recv_segs = {
      {rig.pb->heap.malloc(r1), r1},
      {rig.pb->heap.malloc(r2 + 32) + 16, r2},
  };

  const auto data = pattern(total, 42);
  scatter(*rig.pa, send_segs, data);

  Status s_st, r_st;
  sim::spawn(rig.eng, [](Library& lib, EndpointAddr to,
                         std::vector<Segment> segs, Status& out) -> sim::Task<> {
    auto req = lib.isendv(to, 0x11, std::move(segs));
    co_await req->wait();
    out = req->status();
  }(rig.pa->lib, rig.pb->addr(), send_segs, s_st));
  sim::spawn(rig.eng, [](Library& lib, std::vector<Segment> segs,
                         Status& out) -> sim::Task<> {
    auto req = lib.irecvv(0x11, kAll, std::move(segs));
    co_await req->wait();
    out = req->status();
  }(rig.pb->lib, recv_segs, r_st));
  rig.drain();

  EXPECT_TRUE(s_st.ok);
  EXPECT_TRUE(r_st.ok);
  EXPECT_EQ(r_st.len, total);
  EXPECT_EQ(gather(*rig.pb, recv_segs), data)
      << "vectorial payload corrupted at total=" << total;
}

// Below and above the eager threshold, and page-boundary sizes.
INSTANTIATE_TEST_SUITE_P(Sizes, VectorialTest,
                         ::testing::Values(300, 4096, 30000, 32769, 100000,
                                           1048576));

TEST(Vectorial, RandomSegmentationFuzz) {
  Rig rig(pinning_cache_config());
  sim::Rng rng(2024);
  for (int round = 0; round < 10; ++round) {
    const std::size_t total = 1000 + rng.next_below(200000);
    auto cut = [&](std::size_t n) {
      std::vector<std::size_t> cuts;
      std::size_t left = n;
      while (left > 0) {
        const std::size_t piece = 1 + rng.next_below(std::min<std::size_t>(
                                          left, 60000));
        cuts.push_back(piece);
        left -= piece;
      }
      return cuts;
    };
    std::vector<Segment> send_segs, recv_segs;
    for (std::size_t piece : cut(total)) {
      send_segs.push_back({rig.pa->heap.malloc(piece), piece});
    }
    for (std::size_t piece : cut(total)) {
      recv_segs.push_back({rig.pb->heap.malloc(piece), piece});
    }
    const auto data = pattern(total, static_cast<std::uint8_t>(round));
    scatter(*rig.pa, send_segs, data);

    Status r_st;
    sim::spawn(rig.eng, [](Library& lib, EndpointAddr to,
                           std::vector<Segment> segs) -> sim::Task<> {
      auto req = lib.isendv(to, 0x22, std::move(segs));
      co_await req->wait();
    }(rig.pa->lib, rig.pb->addr(), send_segs));
    sim::spawn(rig.eng, [](Library& lib, std::vector<Segment> segs,
                           Status& out) -> sim::Task<> {
      auto req = lib.irecvv(0x22, kAll, std::move(segs));
      co_await req->wait();
      out = req->status();
    }(rig.pb->lib, recv_segs, r_st));
    rig.drain();
    ASSERT_TRUE(r_st.ok) << "round " << round;
    ASSERT_EQ(gather(*rig.pb, recv_segs), data) << "round " << round;
  }
}

TEST(Vectorial, TruncationIntoSmallerVectorialBuffer) {
  Rig rig(pinning_cache_config());
  const std::size_t send_len = 200000;
  const std::size_t recv_len = 120001;
  const auto src = rig.pa->heap.malloc(send_len);
  std::vector<Segment> recv_segs = {
      {rig.pb->heap.malloc(70000), 70000},
      {rig.pb->heap.malloc(recv_len - 70000), recv_len - 70000},
  };
  const auto data = pattern(send_len, 9);
  rig.pa->as.write(src, data);

  Status r_st;
  sim::spawn(rig.eng, [](Library& lib, EndpointAddr to, mem::VirtAddr buf,
                         std::size_t n) -> sim::Task<> {
    (void)co_await lib.send(to, 0x33, buf, n);
  }(rig.pa->lib, rig.pb->addr(), src, send_len));
  sim::spawn(rig.eng, [](Library& lib, std::vector<Segment> segs,
                         Status& out) -> sim::Task<> {
    auto req = lib.irecvv(0x33, kAll, std::move(segs));
    co_await req->wait();
    out = req->status();
  }(rig.pb->lib, recv_segs, r_st));
  rig.drain();
  EXPECT_TRUE(r_st.ok);
  EXPECT_TRUE(r_st.truncated);
  EXPECT_EQ(r_st.len, recv_len);
  const auto got = gather(*rig.pb, recv_segs);
  EXPECT_EQ(0, std::memcmp(got.data(), data.data(), recv_len));
}

// --- cancellation ----------------------------------------------------------------

TEST(Cancel, UnmatchedRecvCancels) {
  Rig rig(pinning_cache_config());
  const auto dst = rig.pb->heap.malloc(4096);
  auto req = rig.pb->lib.irecv(0x99, kAll, dst, 4096);
  rig.eng.run_until(sim::kMillisecond);  // let the post reach the driver
  EXPECT_FALSE(req->completed());
  EXPECT_TRUE(rig.pb->lib.cancel(*req));
  rig.drain();
  EXPECT_TRUE(req->completed());
  EXPECT_FALSE(req->status().ok);
  EXPECT_EQ(rig.pb->ep.inflight(), 0u);
}

TEST(Cancel, CancelBeforeSubmissionCompletesWithError) {
  Rig rig(pinning_cache_config());
  const auto dst = rig.pb->heap.malloc(256 * 1024);
  auto req = rig.pb->lib.irecv(0x99, kAll, dst, 256 * 1024);
  // Cancel immediately, before the deferred syscall stage ran.
  EXPECT_TRUE(rig.pb->lib.cancel(*req));
  rig.drain();
  EXPECT_TRUE(req->completed());
  EXPECT_FALSE(req->status().ok);
  // No region leaked in the cache's use counts: a later identical recv works.
  EXPECT_EQ(rig.pb->ep.inflight(), 0u);
}

TEST(Cancel, MatchedRecvCannotCancel) {
  Rig rig(pinning_cache_config());
  const std::size_t len = 256 * 1024;
  const auto src = rig.pa->heap.malloc(len);
  const auto dst = rig.pb->heap.malloc(len);
  auto req = rig.pb->lib.irecv(0x55, kAll, dst, len);
  sim::spawn(rig.eng, [](Library& lib, EndpointAddr to, mem::VirtAddr buf,
                         std::size_t n) -> sim::Task<> {
    (void)co_await lib.send(to, 0x55, buf, n);
  }(rig.pa->lib, rig.pb->addr(), src, len));
  // Run until the rendezvous matched, then try to cancel.
  rig.eng.run_until(200 * sim::kMicrosecond);
  EXPECT_FALSE(rig.pb->lib.cancel(*req));
  rig.drain();
  EXPECT_TRUE(req->completed());
  EXPECT_TRUE(req->status().ok);  // completed normally despite the attempt
}

TEST(Cancel, CompletedRequestCannotCancel) {
  Rig rig(pinning_cache_config());
  const auto src = rig.pa->heap.malloc(64);
  const auto dst = rig.pb->heap.malloc(64);
  auto rreq = rig.pb->lib.irecv(0x56, kAll, dst, 64);
  auto sreq = rig.pa->lib.isend(rig.pb->addr(), 0x56, src, 64);
  rig.drain();
  EXPECT_TRUE(rreq->completed());
  EXPECT_FALSE(rig.pb->lib.cancel(*rreq));
  EXPECT_FALSE(rig.pa->lib.cancel(*sreq));
}

TEST(Cancel, SendCancelsOnlyBeforeTheWire) {
  Rig rig(pinning_cache_config());
  const std::size_t len = 1024 * 1024;
  const auto src = rig.pa->heap.malloc(len);
  auto req = rig.pa->lib.isend(rig.pb->addr(), 0x57, src, len);
  // Immediately: still in the submission pipeline -> cancellable.
  EXPECT_TRUE(rig.pa->lib.cancel(*req));
  rig.drain();
  EXPECT_TRUE(req->completed());
  EXPECT_FALSE(req->status().ok);
  EXPECT_EQ(rig.pa->ep.inflight(), 0u);
  EXPECT_EQ(rig.a->memory().pinned_pages(),
            rig.pa->lib.cache().size() > 0 ? rig.a->memory().pinned_pages()
                                           : 0u);

  // A send whose RNDV already left cannot be cancelled.
  const auto dst = rig.pb->heap.malloc(len);
  auto rreq = rig.pb->lib.irecv(0x58, kAll, dst, len);
  auto sreq = rig.pa->lib.isend(rig.pb->addr(), 0x58, src, len);
  rig.eng.run_until(rig.eng.now() + 300 * sim::kMicrosecond);
  EXPECT_FALSE(rig.pa->lib.cancel(*sreq));
  rig.drain();
  EXPECT_TRUE(sreq->status().ok);
  EXPECT_TRUE(rreq->status().ok);
}

// --- the QsNet-style no-pin bound -------------------------------------------------

TEST(NoPinMode, TransfersWorkWithZeroPins) {
  Rig rig(qsnet_ideal_config());
  const std::size_t len = 2 * 1024 * 1024;
  const auto src = rig.pa->heap.malloc(len);
  const auto dst = rig.pb->heap.malloc(len);
  const auto data = pattern(len, 77);
  rig.pa->as.write(src, data);

  Status r_st;
  sim::spawn(rig.eng, [](Library& lib, EndpointAddr to, mem::VirtAddr buf,
                         std::size_t n) -> sim::Task<> {
    (void)co_await lib.send(to, 0x60, buf, n);
  }(rig.pa->lib, rig.pb->addr(), src, len));
  sim::spawn(rig.eng, [](Library& lib, mem::VirtAddr buf, std::size_t n,
                         Status& out) -> sim::Task<> {
    out = co_await lib.recv(0x60, kAll, buf, n);
  }(rig.pb->lib, dst, len, r_st));
  rig.drain();

  EXPECT_TRUE(r_st.ok);
  std::vector<std::byte> got(len);
  rig.pb->as.read(dst, got);
  EXPECT_EQ(got, data);
  // The whole point: nothing was ever pinned, nothing ever missed.
  EXPECT_EQ(rig.a->memory().pinned_pages(), 0u);
  EXPECT_EQ(rig.b->memory().pinned_pages(), 0u);
  EXPECT_EQ(rig.pa->lib.counters().pages_pinned, 0u);
  EXPECT_EQ(rig.pb->lib.counters().pages_pinned, 0u);
  EXPECT_EQ(rig.pa->lib.counters().overlap_misses, 0u);
  EXPECT_EQ(rig.pb->lib.counters().overlap_misses, 0u);
}

TEST(NoPinMode, SurvivesSwapPressureMidStream) {
  // Without pins nothing protects the pages from reclaim — but the
  // page-table walk faults them back, so data must still be correct.
  Rig rig(qsnet_ideal_config(), /*frames=*/2560);
  mem::SwapDaemon::Config sd;
  sd.period = 20 * sim::kMicrosecond;
  sd.high_watermark = 0.5;
  sd.low_watermark = 0.3;
  mem::SwapDaemon daemon_a(rig.eng, rig.a->memory(), sd);
  daemon_a.watch(&rig.pa->as);
  daemon_a.start();
  mem::SwapDaemon daemon_b(rig.eng, rig.b->memory(), sd);
  daemon_b.watch(&rig.pb->as);
  daemon_b.start();

  const std::size_t len = 6 * 1024 * 1024;  // ~1.5k pages of 4k-frame pool
  const auto src = rig.pa->heap.malloc(len);
  const auto dst = rig.pb->heap.malloc(len);
  const auto data = pattern(len, 13);
  rig.pa->as.write(src, data);

  Status r_st;
  bool recv_done = false;
  sim::spawn(rig.eng, [](Library& lib, EndpointAddr to, mem::VirtAddr buf,
                         std::size_t n) -> sim::Task<> {
    (void)co_await lib.send(to, 0x61, buf, n);
  }(rig.pa->lib, rig.pb->addr(), src, len));
  sim::spawn(rig.eng, [](Library& lib, mem::VirtAddr buf, std::size_t n,
                         Status& out, bool& flag) -> sim::Task<> {
    out = co_await lib.recv(0x61, kAll, buf, n);
    flag = true;
  }(rig.pb->lib, dst, len, r_st, recv_done));
  // Run until completion (the daemons tick forever, so don't drain fully).
  while (!recv_done && rig.eng.step()) {
  }
  rig.eng.rethrow_task_failures();
  daemon_a.stop();
  daemon_b.stop();
  rig.drain();  // let the sender coroutine and deferred unpins finish

  EXPECT_TRUE(r_st.ok);
  std::vector<std::byte> got(len);
  rig.pb->as.read(dst, got);
  EXPECT_EQ(got, data);
  EXPECT_GT(daemon_a.total_reclaimed() + daemon_b.total_reclaimed(), 0u);
}

// Tearing a host down unpins its cached regions, which charges work to its
// cores. A destroyed core must take its pending job event with it, or an
// engine that runs on dispatches into freed memory.
TEST(Teardown, DestroyingHostsLeavesNoEngineWork) {
  Rig rig(pinning_cache_config());
  const std::size_t len = 256 * 1024;
  const auto src = rig.pa->heap.malloc(len);
  const auto dst = rig.pb->heap.malloc(len);
  rig.pa->as.write(src, pattern(len, 5));
  Status s_st, r_st;
  sim::spawn(rig.eng, [](Library& lib, EndpointAddr to, mem::VirtAddr buf,
                         std::size_t n, Status& out) -> sim::Task<> {
    out = co_await lib.send(to, 0x61, buf, n);
  }(rig.pa->lib, rig.pb->addr(), src, len, s_st));
  sim::spawn(rig.eng, [](Library& lib, mem::VirtAddr buf, std::size_t n,
                         Status& out) -> sim::Task<> {
    out = co_await lib.recv(0x61, kAll, buf, n);
  }(rig.pb->lib, dst, len, r_st));
  rig.drain();
  ASSERT_TRUE(s_st.ok);
  ASSERT_TRUE(r_st.ok);
  ASSERT_GT(rig.pa->lib.counters().pages_pinned, 0u);  // cached, still held

  const std::size_t before = rig.eng.pending();
  rig.b.reset();
  rig.a.reset();
  EXPECT_EQ(rig.eng.pending(), before);
  EXPECT_EQ(rig.eng.run(), 0u);
}

}  // namespace
}  // namespace pinsim::core
