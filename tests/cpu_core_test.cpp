#include "cpu/core.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "cpu/cpu_model.hpp"
#include "mem/types.hpp"
#include "sim/engine.hpp"

namespace pinsim::cpu {
namespace {

TEST(Core, SingleJobFinishesAfterItsDuration) {
  sim::Engine eng;
  Core core(eng, "cpu0");
  sim::Time done_at = 0;
  core.submit(Priority::kUser, 500, [&] { done_at = eng.now(); });
  eng.run();
  EXPECT_EQ(done_at, 500u);
  EXPECT_FALSE(core.busy());
  EXPECT_EQ(core.stats().jobs[2], 1u);
  EXPECT_EQ(core.stats().busy[2], 500u);
}

TEST(Core, JobsOfSamePriorityRunFifo) {
  sim::Engine eng;
  Core core(eng, "cpu0");
  std::vector<std::pair<int, sim::Time>> done;
  for (int i = 0; i < 3; ++i) {
    core.submit(Priority::kUser, 100,
                [&, i] { done.emplace_back(i, eng.now()); });
  }
  eng.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0], std::make_pair(0, sim::Time{100}));
  EXPECT_EQ(done[1], std::make_pair(1, sim::Time{200}));
  EXPECT_EQ(done[2], std::make_pair(2, sim::Time{300}));
}

TEST(Core, HigherPriorityJumpsQueueButDoesNotPreempt) {
  sim::Engine eng;
  Core core(eng, "cpu0");
  std::vector<char> order;
  // Long user job starts; while it runs, a BH and another user job arrive.
  core.submit(Priority::kUser, 1000, [&] { order.push_back('U'); });
  eng.schedule_at(10, [&] {
    core.submit(Priority::kUser, 100, [&] { order.push_back('u'); });
    core.submit(Priority::kBottomHalf, 50, [&] { order.push_back('B'); });
  });
  eng.run();
  // The running user job completes (no preemption), then the BH runs before
  // the queued user job.
  EXPECT_EQ(order, (std::vector<char>{'U', 'B', 'u'}));
}

TEST(Core, ContinuousBottomHalfStreamStarvesUserWork) {
  // The §4.3 scenario: interrupt flood leaves no core time for pinning.
  sim::Engine eng;
  Core core(eng, "cpu0");
  bool user_done = false;

  // Self-sustaining BH load: each job resubmits itself until t > 1 ms.
  struct Flood {
    Core& core;
    sim::Engine& eng;
    void operator()() const {
      if (eng.now() < sim::kMillisecond) {
        core.submit(Priority::kBottomHalf, 100, Flood{core, eng});
      }
    }
  };
  core.submit(Priority::kBottomHalf, 100, Flood{core, eng});
  core.submit(Priority::kUser, 50, [&] { user_done = true; });

  eng.run_until(sim::kMillisecond);
  EXPECT_FALSE(user_done);  // starved the whole window
  eng.run();
  EXPECT_TRUE(user_done);  // runs once the flood stops
}

TEST(Core, ZeroDurationJobStillQueues) {
  sim::Engine eng;
  Core core(eng, "cpu0");
  bool ran = false;
  core.submit(Priority::kKernel, 0, [&] { ran = true; });
  EXPECT_FALSE(ran);  // asynchronous even with zero cost
  eng.run();
  EXPECT_TRUE(ran);
}

TEST(Core, CompletionMaySubmitFollowUpWork) {
  sim::Engine eng;
  Core core(eng, "cpu0");
  sim::Time second_done = 0;
  core.submit(Priority::kKernel, 100, [&] {
    core.submit(Priority::kKernel, 100, [&] { second_done = eng.now(); });
  });
  eng.run();
  EXPECT_EQ(second_done, 200u);

  // A completion that owns move-only state and submits to its own (now
  // idle) core: the follow-up starts at once and takes the core's slot for
  // the running job's completion, yet the first completion's state stays
  // alive until it returns and is destroyed exactly once.
  struct Owned {
    explicit Owned(int* destroyed) : destroyed(destroyed) {}
    Owned(Owned&& o) noexcept
        : destroyed(std::exchange(o.destroyed, nullptr)) {}
    Owned& operator=(Owned&&) = delete;
    ~Owned() {
      if (destroyed != nullptr) ++*destroyed;
    }
    int* destroyed;
  };
  int destroyed = 0;
  bool alive_after_submit = false;
  sim::Time third_done = 0;
  core.submit(Priority::kKernel, 100, [&, owned = Owned(&destroyed)] {
    core.submit(Priority::kKernel, 100, [&] { third_done = eng.now(); });
    alive_after_submit = owned.destroyed == &destroyed && destroyed == 0;
  });
  eng.run();
  EXPECT_TRUE(alive_after_submit);
  EXPECT_EQ(third_done, 400u);
  EXPECT_EQ(destroyed, 1);
}

TEST(Core, UtilizationReflectsBusyFraction) {
  sim::Engine eng;
  Core core(eng, "cpu0");
  core.consume(Priority::kUser, 300);
  eng.run_until(1000);
  EXPECT_NEAR(core.utilization(), 0.3, 1e-9);
}

TEST(Core, QueuedCounts) {
  sim::Engine eng;
  Core core(eng, "cpu0");
  core.submit(Priority::kUser, 100, [] {});
  core.submit(Priority::kUser, 100, [] {});
  core.submit(Priority::kBottomHalf, 100, [] {});
  // First job is running (not queued); one user + one BH wait.
  EXPECT_EQ(core.queued(), 2u);
  EXPECT_EQ(core.queued_at(Priority::kBottomHalf), 1u);
  eng.run();
  EXPECT_EQ(core.queued(), 0u);
}

TEST(CpuModel, Table1Parameters) {
  const CpuModel& slow = opteron265();
  EXPECT_DOUBLE_EQ(slow.ghz, 1.8);
  EXPECT_EQ(slow.pin_base, sim::from_usec(4.2));
  EXPECT_EQ(slow.pin_per_page, 720u);

  const CpuModel& fast = xeon_e5460();
  EXPECT_DOUBLE_EQ(fast.ghz, 3.16);
  EXPECT_EQ(fast.pin_base, sim::from_usec(1.3));
  EXPECT_EQ(fast.pin_per_page, 150u);
}

TEST(CpuModel, PinPlusUnpinEqualsTable1Pair) {
  for (const CpuModel& m : all_cpu_models()) {
    for (std::size_t pages : {std::size_t{1}, std::size_t{64},
                              std::size_t{4096}}) {
      const auto pair = m.pin_cost(pages) + m.unpin_cost(pages);
      const auto expected = m.pin_unpin_cost(pages);
      // Rounding of the split may cost at most 2 ns.
      EXPECT_NEAR(static_cast<double>(pair), static_cast<double>(expected),
                  2.0)
          << m.name << " pages=" << pages;
    }
  }
}

TEST(CpuModel, PinThroughputMatchesTable1Column) {
  // Paper reports 5.5 / 12 / 16 / 26.5 GB/s; the pure per-page rate lands
  // within ~5% of those (the paper's column amortizes some base cost).
  EXPECT_NEAR(opteron265().pin_throughput_gbps(), 5.5, 0.35);
  EXPECT_NEAR(opteron8347().pin_throughput_gbps(), 12.0, 0.5);
  EXPECT_NEAR(xeon_e5435().pin_throughput_gbps(), 16.0, 0.5);
  EXPECT_NEAR(xeon_e5460().pin_throughput_gbps(), 26.5, 0.9);
}

TEST(CpuModel, FasterCpuPinsFaster) {
  EXPECT_LT(xeon_e5460().pin_cost(1024), xeon_e5435().pin_cost(1024));
  EXPECT_LT(xeon_e5435().pin_cost(1024), opteron8347().pin_cost(1024));
  EXPECT_LT(opteron8347().pin_cost(1024), opteron265().pin_cost(1024));
}

TEST(CpuModel, CopyCostScalesWithBytes) {
  const CpuModel& m = xeon_e5460();
  EXPECT_EQ(m.copy_cost(0), 0u);
  // 2.2 GB/s -> 8 kB in ~3.72 µs.
  EXPECT_NEAR(static_cast<double>(m.copy_cost(8192)), 8192 / 2.2, 2.0);
  EXPECT_GT(opteron265().copy_cost(8192), m.copy_cost(8192));
}

TEST(CpuModel, LookupByName) {
  EXPECT_EQ(cpu_model_by_name("xeon-e5460").pin_per_page,
            xeon_e5460().pin_per_page);
  EXPECT_EQ(cpu_model_by_name("opteron265").pin_base, opteron265().pin_base);
  EXPECT_THROW((void)cpu_model_by_name("pentium4"), std::invalid_argument);
}

TEST(CpuModel, PinCostExamplesFromPaperScale) {
  // 16 MB = 4096 pages on the E5460: pin+unpin pair ~= 1.3us + 4096*150ns
  // ~= 615 us; §4.1 argues this is ~4-5% of the 16 MB transfer time.
  const auto pair = xeon_e5460().pin_unpin_cost(4096);
  EXPECT_NEAR(sim::to_usec(pair), 615.7, 1.0);
}

}  // namespace
}  // namespace pinsim::cpu
