// Mini-MPI correctness: point-to-point and all collectives, 4 ranks over
// 2 hosts (the paper's Table 2 topology), real data verified element-wise.
#include "mpi/communicator.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "core/host.hpp"
#include "net/fault.hpp"

namespace pinsim::mpi {
namespace {

class MpiTest : public ::testing::Test {
 protected:
  /// Builds `nranks` processes spread round-robin over 2 hosts.
  void build(int nranks, core::StackConfig stack = core::pinning_cache_config()) {
    fabric_ = std::make_unique<net::Fabric>(eng_);
    core::Host::Config hc;
    hc.memory_frames = 24576;  // 96 MiB per host
    hosts_.push_back(std::make_unique<core::Host>(eng_, *fabric_, hc, stack));
    hosts_.push_back(std::make_unique<core::Host>(eng_, *fabric_, hc, stack));
    std::vector<core::Host::Process*> procs;
    for (int r = 0; r < nranks; ++r) {
      procs.push_back(&hosts_[static_cast<std::size_t>(r % 2)]->spawn_process());
    }
    comm_ = std::make_unique<Communicator>(procs);
  }

  /// Writes `count` int32 values v[i] = f(i) into rank's memory.
  template <typename F>
  mem::VirtAddr make_ints(int rank, std::size_t count, F f) {
    auto& p = comm_->process(rank);
    const auto addr = p.heap.malloc(count * 4);
    std::vector<std::int32_t> vals(count);
    for (std::size_t i = 0; i < count; ++i) vals[i] = f(i);
    std::vector<std::byte> raw(count * 4);
    std::memcpy(raw.data(), vals.data(), raw.size());
    p.as.write(addr, raw);
    return addr;
  }

  std::vector<std::int32_t> read_ints(int rank, mem::VirtAddr addr,
                                      std::size_t count) {
    std::vector<std::byte> raw(count * 4);
    comm_->process(rank).as.read(addr, raw);
    std::vector<std::int32_t> vals(count);
    std::memcpy(vals.data(), raw.data(), raw.size());
    return vals;
  }

  /// Every rank sends a distinct 64 kB block to every rank, itself
  /// included; every received int must be bit-exact.
  void alltoallv_bit_exact() {
    const std::size_t block = 64 * 1024;
    const std::size_t ints = block / 4;
    const auto value = [](int to, int from, std::size_t i) {
      return to * 100 + from + int(i) * 1000;
    };
    std::vector<mem::VirtAddr> src(4), dst(4);
    std::vector<std::size_t> counts(4, block), displs(4);
    for (std::size_t r = 0; r < 4; ++r) displs[r] = block * r;
    for (int r = 0; r < 4; ++r) {
      src[static_cast<size_t>(r)] = make_ints(r, 4 * ints, [&](std::size_t i) {
        return value(int(i / ints), r, i % ints);
      });
      dst[static_cast<size_t>(r)] = comm_->process(r).heap.malloc(4 * block);
    }
    run_ranks(eng_, 4, [&](int me) -> sim::Task<> {
      co_await comm_->alltoallv(me, src[static_cast<size_t>(me)], counts,
                                displs, dst[static_cast<size_t>(me)], counts,
                                displs);
    });
    for (int r = 0; r < 4; ++r) {
      const auto got = read_ints(r, dst[static_cast<size_t>(r)], 4 * ints);
      for (std::size_t i = 0; i < got.size(); ++i) {
        const int from = int(i / ints);
        ASSERT_EQ(got[i], value(r, from, i % ints))
            << "rank " << r << " from " << from << " int " << i % ints;
      }
    }
  }

  sim::Engine eng_;
  std::unique_ptr<net::Fabric> fabric_;
  std::vector<std::unique_ptr<core::Host>> hosts_;
  std::unique_ptr<Communicator> comm_;
};

TEST_F(MpiTest, PingPongAcrossHosts) {
  build(2);
  const std::size_t len = 64 * 1024;
  auto src = make_ints(0, len / 4, [](std::size_t i) { return int(i * 3); });
  auto dst = comm_->process(1).heap.malloc(len);

  run_ranks(eng_, 2, [&](int me) -> sim::Task<> {
    if (me == 0) {
      auto st = co_await comm_->send(0, 1, 7, src, len);
      EXPECT_TRUE(st.ok);
    } else {
      auto st = co_await comm_->recv(1, 0, 7, dst, len);
      EXPECT_TRUE(st.ok);
      EXPECT_EQ(st.len, len);
    }
  });
  auto got = read_ints(1, dst, len / 4);
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], static_cast<std::int32_t>(i * 3)) << "at " << i;
  }
}

TEST_F(MpiTest, SendRecvRingRotatesData) {
  build(4);
  const std::size_t len = 128 * 1024;
  std::vector<mem::VirtAddr> src(4), dst(4);
  for (int r = 0; r < 4; ++r) {
    src[static_cast<size_t>(r)] =
        make_ints(r, len / 4, [r](std::size_t i) { return int(i) + r * 1000; });
    dst[static_cast<size_t>(r)] = comm_->process(r).heap.malloc(len);
  }
  run_ranks(eng_, 4, [&](int me) -> sim::Task<> {
    const int right = (me + 1) % 4;
    const int left = (me + 3) % 4;
    co_await comm_->sendrecv(me, right, src[static_cast<size_t>(me)], len,
                             left, dst[static_cast<size_t>(me)], len, 5);
  });
  for (int r = 0; r < 4; ++r) {
    const int left = (r + 3) % 4;
    auto got = read_ints(r, dst[static_cast<size_t>(r)], 8);
    EXPECT_EQ(got[3], 3 + left * 1000);
  }
}

TEST_F(MpiTest, BarrierSynchronizesRanks) {
  build(4);
  std::vector<sim::Time> after(4);
  sim::Time slowest_before = 0;
  run_ranks(eng_, 4, [&](int me) -> sim::Task<> {
    // Stagger arrival; nobody may leave before the last arrives.
    co_await sim::delay(eng_, static_cast<sim::Time>(me) * 100 *
                                  sim::kMicrosecond);
    if (me == 3) slowest_before = eng_.now();
    co_await comm_->barrier(me);
    after[static_cast<size_t>(me)] = eng_.now();
  });
  for (int r = 0; r < 4; ++r) {
    EXPECT_GE(after[static_cast<size_t>(r)], slowest_before);
  }
}

TEST_F(MpiTest, BroadcastFromEveryRoot) {
  build(4);
  const std::size_t count = 50000;
  for (int root = 0; root < 4; ++root) {
    std::vector<mem::VirtAddr> buf(4);
    for (int r = 0; r < 4; ++r) {
      buf[static_cast<size_t>(r)] = make_ints(
          r, count, [&](std::size_t i) { return r == root ? int(i) + root : -1; });
    }
    run_ranks(eng_, 4, [&](int me) -> sim::Task<> {
      co_await comm_->bcast(me, root, buf[static_cast<size_t>(me)], count * 4);
    });
    for (int r = 0; r < 4; ++r) {
      auto got = read_ints(r, buf[static_cast<size_t>(r)], count);
      ASSERT_EQ(got[0], root);
      ASSERT_EQ(got[count - 1], static_cast<std::int32_t>(count - 1) + root);
    }
  }
}

TEST_F(MpiTest, ReduceSumsElementwise) {
  build(4);
  const std::size_t count = 40000;
  std::vector<mem::VirtAddr> src(4);
  for (int r = 0; r < 4; ++r) {
    src[static_cast<size_t>(r)] =
        make_ints(r, count, [r](std::size_t i) { return int(i) * (r + 1); });
  }
  auto dst = comm_->process(2).heap.malloc(count * 4);
  run_ranks(eng_, 4, [&](int me) -> sim::Task<> {
    co_await comm_->reduce(me, 2, src[static_cast<size_t>(me)],
                           me == 2 ? dst : comm_->process(me).heap.malloc(
                                               count * 4),
                           count, Datatype::kInt32, Op::kSum);
  });
  auto got = read_ints(2, dst, count);
  // sum over r of i*(r+1) = i * 10
  for (std::size_t i : {std::size_t{0}, std::size_t{17}, count - 1}) {
    ASSERT_EQ(got[i], static_cast<std::int32_t>(i) * 10);
  }
}

TEST_F(MpiTest, AllreduceMatchesOnAllRanks) {
  build(4);
  const std::size_t count = 30000;
  std::vector<mem::VirtAddr> src(4), dst(4);
  for (int r = 0; r < 4; ++r) {
    src[static_cast<size_t>(r)] =
        make_ints(r, count, [r](std::size_t i) { return int(i % 100) + r; });
    dst[static_cast<size_t>(r)] = comm_->process(r).heap.malloc(count * 4);
  }
  run_ranks(eng_, 4, [&](int me) -> sim::Task<> {
    co_await comm_->allreduce(me, src[static_cast<size_t>(me)],
                              dst[static_cast<size_t>(me)], count,
                              Datatype::kInt32, Op::kSum);
  });
  for (int r = 0; r < 4; ++r) {
    auto got = read_ints(r, dst[static_cast<size_t>(r)], count);
    for (std::size_t i : {std::size_t{0}, std::size_t{123}, count - 1}) {
      ASSERT_EQ(got[i], static_cast<std::int32_t>(i % 100) * 4 + 6);
    }
  }
}

TEST_F(MpiTest, AllreduceMaxNonPowerOfTwoRanks) {
  build(3);
  const std::size_t count = 10000;
  std::vector<mem::VirtAddr> src(3), dst(3);
  for (int r = 0; r < 3; ++r) {
    src[static_cast<size_t>(r)] =
        make_ints(r, count, [r](std::size_t i) { return int(i) * ((r + int(i)) % 3); });
    dst[static_cast<size_t>(r)] = comm_->process(r).heap.malloc(count * 4);
  }
  run_ranks(eng_, 3, [&](int me) -> sim::Task<> {
    co_await comm_->allreduce(me, src[static_cast<size_t>(me)],
                              dst[static_cast<size_t>(me)], count,
                              Datatype::kInt32, Op::kMax);
  });
  for (int r = 0; r < 3; ++r) {
    auto got = read_ints(r, dst[static_cast<size_t>(r)], count);
    for (std::size_t i : {std::size_t{1}, std::size_t{5000}, count - 1}) {
      const int expected = static_cast<int>(i) *
                           std::max({(0 + int(i)) % 3, (1 + int(i)) % 3,
                                     (2 + int(i)) % 3});
      ASSERT_EQ(got[i], expected) << i;
    }
  }
}

TEST_F(MpiTest, AllgathervConcatenatesUnevenBlocks) {
  build(4);
  std::vector<std::size_t> counts = {100 * 1024, 50 * 1024, 200 * 1024,
                                     4 * 1024};
  std::vector<std::size_t> displs(4);
  std::size_t total = 0;
  for (int r = 0; r < 4; ++r) {
    displs[static_cast<size_t>(r)] = total;
    total += counts[static_cast<size_t>(r)];
  }
  std::vector<mem::VirtAddr> src(4), dst(4);
  for (int r = 0; r < 4; ++r) {
    const auto ri = static_cast<size_t>(r);
    src[ri] = make_ints(r, counts[ri] / 4,
                        [r](std::size_t i) { return int(i) ^ (r << 20); });
    dst[ri] = comm_->process(r).heap.malloc(total);
  }
  run_ranks(eng_, 4, [&](int me) -> sim::Task<> {
    co_await comm_->allgatherv(me, src[static_cast<size_t>(me)],
                               dst[static_cast<size_t>(me)], counts, displs);
  });
  for (int r = 0; r < 4; ++r) {
    for (int b = 0; b < 4; ++b) {
      const auto bi = static_cast<size_t>(b);
      auto got = read_ints(r, dst[static_cast<size_t>(r)] + displs[bi], 4);
      ASSERT_EQ(got[2], 2 ^ (b << 20)) << "rank " << r << " block " << b;
    }
  }
}

TEST_F(MpiTest, ReduceScatterDistributesReducedBlocks) {
  build(4);
  const std::size_t per_rank = 20000;  // elements per block
  const std::size_t count = per_rank * 4;
  std::vector<mem::VirtAddr> src(4), dst(4);
  for (int r = 0; r < 4; ++r) {
    src[static_cast<size_t>(r)] =
        make_ints(r, count, [r](std::size_t i) { return int(i / 1000) + r; });
    dst[static_cast<size_t>(r)] = comm_->process(r).heap.malloc(per_rank * 4);
  }
  run_ranks(eng_, 4, [&](int me) -> sim::Task<> {
    co_await comm_->reduce_scatter(me, src[static_cast<size_t>(me)],
                                   dst[static_cast<size_t>(me)], per_rank,
                                   Datatype::kInt32, Op::kSum);
  });
  for (int r = 0; r < 4; ++r) {
    auto got = read_ints(r, dst[static_cast<size_t>(r)], per_rank);
    // Element j of rank r's block is global index r*per_rank + j; the sum
    // over ranks is 4*(idx/1000) + 6.
    for (std::size_t j : {std::size_t{0}, per_rank - 1}) {
      const std::size_t idx = static_cast<std::size_t>(r) * per_rank + j;
      ASSERT_EQ(got[j], static_cast<std::int32_t>(idx / 1000) * 4 + 6);
    }
  }
}

TEST_F(MpiTest, AlltoallvExchangesBlocks) {
  build(4);
  alltoallv_bit_exact();
}

TEST_F(MpiTest, AlltoallvExchangesBlocksUnderFaults) {
  // The chaos soak's mixed fault plan (5% loss, 2% corruption, 2%
  // duplication, 5% reordering) with the soak's short protocol timers.
  core::StackConfig stack = core::overlapped_cache_config();
  stack.protocol.retransmit_timeout = 300 * sim::kMicrosecond;
  stack.protocol.retransmit_backoff_max = 10 * sim::kMillisecond;
  stack.protocol.pull_retry_timeout = 300 * sim::kMicrosecond;
  build(4, stack);
  net::FaultPlan mixed;
  mixed.loss = 0.05;
  mixed.corrupt = 0.02;
  mixed.duplicate = 0.02;
  mixed.reorder = 0.05;
  fabric_->faults().set_plan(mixed);
  alltoallv_bit_exact();
  const auto& fs = fabric_->faults().stats();  // the faults must have bitten
  EXPECT_GT(fs.drops + fs.corruptions + fs.duplicates + fs.reorders, 0u);
}

TEST_F(MpiTest, BackToBackCollectivesDoNotCrossTalk) {
  build(4);
  const std::size_t count = 10000;
  std::vector<mem::VirtAddr> buf_a(4), buf_b(4);
  for (int r = 0; r < 4; ++r) {
    buf_a[static_cast<size_t>(r)] =
        make_ints(r, count, [r](std::size_t) { return 100 + r; });
    buf_b[static_cast<size_t>(r)] =
        make_ints(r, count, [r](std::size_t) { return 200 + r; });
  }
  // Two different broadcasts back to back; traffic must not interleave
  // across the collectives even though ranks enter the second one at
  // different times.
  run_ranks(eng_, 4, [&](int me) -> sim::Task<> {
    co_await comm_->bcast(me, 0, buf_a[static_cast<size_t>(me)], count * 4);
    co_await comm_->bcast(me, 3, buf_b[static_cast<size_t>(me)], count * 4);
  });
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(read_ints(r, buf_a[static_cast<size_t>(r)], 1)[0], 100);
    EXPECT_EQ(read_ints(r, buf_b[static_cast<size_t>(r)], 1)[0], 203);
  }
}

TEST_F(MpiTest, CollectivesWorkWithRegularPinningToo) {
  build(4, core::regular_pinning_config());
  const std::size_t count = 50000;
  std::vector<mem::VirtAddr> src(4), dst(4);
  for (int r = 0; r < 4; ++r) {
    src[static_cast<size_t>(r)] = make_ints(r, count, [](std::size_t i) { return int(i); });
    dst[static_cast<size_t>(r)] = comm_->process(r).heap.malloc(count * 4);
  }
  run_ranks(eng_, 4, [&](int me) -> sim::Task<> {
    co_await comm_->allreduce(me, src[static_cast<size_t>(me)],
                              dst[static_cast<size_t>(me)], count,
                              Datatype::kInt32, Op::kSum);
  });
  auto got = read_ints(0, dst[0], count);
  EXPECT_EQ(got[100], 400);
  // Per-communication pinning must leave nothing pinned behind.
  EXPECT_EQ(hosts_[0]->memory().pinned_pages(), 0u);
  EXPECT_EQ(hosts_[1]->memory().pinned_pages(), 0u);
}

TEST_F(MpiTest, EmptyCommunicatorRejected) {
  EXPECT_THROW(Communicator({}), std::invalid_argument);
}

TEST_F(MpiTest, GathervCollectsUnevenContributions) {
  build(4);
  std::vector<std::size_t> counts = {40000, 80000, 8000, 120000};
  std::vector<std::size_t> displs(4);
  std::size_t total = 0;
  for (int r = 0; r < 4; ++r) {
    displs[static_cast<size_t>(r)] = total;
    total += counts[static_cast<size_t>(r)];
  }
  std::vector<mem::VirtAddr> src(4);
  for (int r = 0; r < 4; ++r) {
    const auto ri = static_cast<size_t>(r);
    src[ri] = make_ints(r, counts[ri] / 4,
                        [r](std::size_t i) { return int(i) + (r << 16); });
  }
  const auto dst = comm_->process(2).heap.malloc(total);
  run_ranks(eng_, 4, [&](int me) -> sim::Task<> {
    co_await comm_->gatherv(me, 2, src[static_cast<size_t>(me)],
                            counts[static_cast<size_t>(me)], dst, counts,
                            displs);
  });
  for (int r = 0; r < 4; ++r) {
    const auto ri = static_cast<size_t>(r);
    auto got = read_ints(2, dst + displs[ri], 3);
    EXPECT_EQ(got[1], 1 + (r << 16)) << "rank " << r;
  }
}

TEST_F(MpiTest, ScattervDistributesFromRoot) {
  build(4);
  std::vector<std::size_t> counts = {4000, 100000, 50000, 12000};
  std::vector<std::size_t> displs(4);
  std::size_t total = 0;
  for (int r = 0; r < 4; ++r) {
    displs[static_cast<size_t>(r)] = total;
    total += counts[static_cast<size_t>(r)];
  }
  const auto src = make_ints(1, total / 4, [&](std::size_t i) {
    // Value encodes which rank's slice the word belongs to.
    const std::size_t byte = i * 4;
    int owner = 3;
    for (int r = 0; r < 4; ++r) {
      if (byte >= displs[static_cast<size_t>(r)] &&
          byte < displs[static_cast<size_t>(r)] + counts[static_cast<size_t>(r)]) {
        owner = r;
      }
    }
    return owner * 1000 + int(i % 100);
  });
  std::vector<mem::VirtAddr> dst(4);
  for (int r = 0; r < 4; ++r) {
    dst[static_cast<size_t>(r)] =
        comm_->process(r).heap.malloc(counts[static_cast<size_t>(r)]);
  }
  run_ranks(eng_, 4, [&](int me) -> sim::Task<> {
    co_await comm_->scatterv(me, 1, src, counts, displs,
                             dst[static_cast<size_t>(me)],
                             counts[static_cast<size_t>(me)]);
  });
  for (int r = 0; r < 4; ++r) {
    auto got = read_ints(r, dst[static_cast<size_t>(r)], 1);
    EXPECT_EQ(got[0] / 1000, r) << "rank " << r;
  }
}

TEST_F(MpiTest, ScanComputesInclusivePrefixSums) {
  build(4);
  const std::size_t count = 20000;
  std::vector<mem::VirtAddr> src(4), dst(4);
  for (int r = 0; r < 4; ++r) {
    src[static_cast<size_t>(r)] =
        make_ints(r, count, [r](std::size_t i) { return int(i % 50) + r; });
    dst[static_cast<size_t>(r)] = comm_->process(r).heap.malloc(count * 4);
  }
  run_ranks(eng_, 4, [&](int me) -> sim::Task<> {
    co_await comm_->scan(me, src[static_cast<size_t>(me)],
                         dst[static_cast<size_t>(me)], count,
                         Datatype::kInt32, Op::kSum);
  });
  // Rank r's result element i = sum over q<=r of (i%50 + q).
  for (int r = 0; r < 4; ++r) {
    auto got = read_ints(r, dst[static_cast<size_t>(r)], count);
    const int base = (r + 1);
    const int qsum = r * (r + 1) / 2;
    for (std::size_t i : {std::size_t{0}, std::size_t{49}, count - 1}) {
      ASSERT_EQ(got[i], base * static_cast<int>(i % 50) + qsum)
          << "rank " << r << " i " << i;
    }
  }
}

TEST_F(MpiTest, AlltoallRegularBlocks) {
  build(4);
  const std::size_t block = 100000;
  std::vector<mem::VirtAddr> src(4), dst(4);
  for (int r = 0; r < 4; ++r) {
    const auto ri = static_cast<size_t>(r);
    src[ri] = make_ints(r, block, [r, block](std::size_t i) {
      return int(i * 4 / block) * 100 + r;  // destination * 100 + me
    });
    dst[ri] = comm_->process(r).heap.malloc(4 * block);
  }
  run_ranks(eng_, 4, [&](int me) -> sim::Task<> {
    co_await comm_->alltoall(me, src[static_cast<size_t>(me)],
                             dst[static_cast<size_t>(me)], block);
  });
  for (int r = 0; r < 4; ++r) {
    for (int from = 0; from < 4; ++from) {
      auto got = read_ints(
          r, dst[static_cast<size_t>(r)] + block * static_cast<size_t>(from),
          1);
      EXPECT_EQ(got[0], r * 100 + from);
    }
  }
}

}  // namespace
}  // namespace pinsim::mpi
