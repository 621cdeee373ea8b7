#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <string>

#include "sim/engine.hpp"
#include "sim/time.hpp"
#include "sim/unique_function.hpp"

namespace pinsim::cpu {

/// Work priority on a core. Lower value runs first. Mirrors the split the
/// paper's §4.3 failure analysis depends on: receive bottom-half processing
/// is "strongly privileged" and can starve everything else on the core —
/// including the asynchronous pinning that overlapped mode relies on.
enum class Priority : int {
  kBottomHalf = 0,  // NIC interrupt/softirq work
  kKernel = 1,      // syscall-context driver work (pinning, copies)
  kUser = 2,        // application compute
  kIdle = 3,        // deferred cleanup (page release workqueues)
};

inline constexpr int kPriorityCount = 4;

/// A CPU core as a non-preemptive prioritized work queue.
///
/// `submit()` enqueues a job that occupies the core for `duration`; when it
/// finishes, its completion callback runs and the next job is picked —
/// always from the highest-priority non-empty queue. Jobs are not preempted,
/// so submitters model long operations as chains of short quanta (the pin
/// manager pins in bounded page batches for exactly this reason).
class Core {
 public:
  struct Stats {
    std::array<std::uint64_t, kPriorityCount> jobs{};
    std::array<sim::Time, kPriorityCount> busy{};

    [[nodiscard]] sim::Time total_busy() const noexcept {
      sim::Time t = 0;
      for (auto b : busy) t += b;
      return t;
    }
  };

  Core(sim::Engine& eng, std::string name);
  /// Cancels the running job's end event: a core torn down with its engine
  /// still live (a host destroyed mid-simulation) leaves nothing behind to
  /// fire into freed memory. Queued jobs die unrun.
  ~Core();

  Core(const Core&) = delete;
  Core& operator=(const Core&) = delete;

  /// Enqueues `duration` of work at priority `p`; `done` fires when the work
  /// completes (at the simulated instant the core finishes it). A zero
  /// duration is allowed and still round-trips through the queue.
  void submit(Priority p, sim::Time duration, sim::UniqueFunction done);

  /// Convenience for fire-and-forget time consumption.
  void consume(Priority p, sim::Time duration) {
    submit(p, duration, [] {});
  }

  [[nodiscard]] bool busy() const noexcept { return running_; }
  [[nodiscard]] std::size_t queued() const noexcept;
  [[nodiscard]] std::size_t queued_at(Priority p) const noexcept {
    return queues_[static_cast<std::size_t>(p)].size();
  }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] sim::Engine& engine() noexcept { return eng_; }

  /// Fraction of [0, now] this core spent executing work.
  [[nodiscard]] double utilization() const noexcept;

 private:
  struct Job {
    sim::Time duration;
    sim::UniqueFunction done;
  };

  void dispatch();
  void finish_job();

  sim::Engine& eng_;
  std::string name_;
  std::array<std::deque<Job>, kPriorityCount> queues_;
  bool running_ = false;
  /// Completion of the running job. A core runs one job at a time, so one
  /// slot suffices, and the engine event that ends the job captures only
  /// `this` (small enough to store inline, unlike the 80-byte `done`).
  sim::UniqueFunction running_done_;
  sim::Engine::EventId running_event_{};  // ends the running job
  Stats stats_;
};

}  // namespace pinsim::cpu
