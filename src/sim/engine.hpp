#pragma once

#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "sim/unique_function.hpp"

namespace pinsim::sim {

/// Schedule-site identity stamped on a scheduled closure: which component
/// filed it ("net", "pin", "cpu", ...) and what the handler does
/// ("nic_tx", "send_rto", ...) — the EventKind-style taxonomy for engine
/// callbacks. Both strings must have static storage duration (string
/// literals); the engine and any dispatch observer keep only the pointers.
/// A default-constructed tag means "untagged" and is always legal.
struct TaskTag {
  const char* component = nullptr;
  const char* label = nullptr;
  [[nodiscard]] constexpr bool empty() const noexcept {
    return component == nullptr && label == nullptr;
  }
};

/// Hook around every engine dispatch. At most one observer is attached at a
/// time (obs::Profiler in practice); with none attached the hot path pays a
/// single pointer compare. Observers must not destroy the engine or mutate
/// the queue from inside the hooks; scheduling from the observed callback
/// itself is of course fine.
class DispatchObserver {
 public:
  virtual ~DispatchObserver() = default;
  /// Runs immediately before a callback fires. `tag` is the schedule-site
  /// tag (empty for untagged sites), `scheduled_at` the simulated time the
  /// closure was filed, `now` the dispatch time — their difference is the
  /// schedule->dispatch sim-time lag.
  virtual void on_dispatch_begin(const TaskTag& tag, Time scheduled_at,
                                 Time now) = 0;
  /// Runs after the callback returns (skipped if the callback throws; the
  /// exception propagates out of the engine either way).
  virtual void on_dispatch_end(const TaskTag& tag) = 0;
};

/// Discrete-event simulation engine.
///
/// Events are (time, sequence)-ordered: two events scheduled for the same
/// instant fire in scheduling order, which makes every run bit-reproducible.
/// The engine is strictly single-threaded; everything above it (memory, NIC
/// interrupts, the Open-MX driver, MPI ranks) is a state machine or coroutine
/// driven by these callbacks.
///
/// Internally the queue is an indexed 4-ary min-heap of (when, seq, slot)
/// entries over a slab of pooled nodes. Each node records its heap position,
/// so cancellation is eager and O(log n); an EventId carries the node's slot
/// plus its generation-unique sequence number, so cancellation needs no
/// lookup structure. The heap pays off while queues stay shallow, as the
/// simulator's do (2 to ~170 events pending on average, DESIGN §6f).
class Engine {
 public:
  using Callback = UniqueFunction;

  /// Opaque handle for cancelling a scheduled event. `seq` is the globally
  /// unique scheduling sequence number; `slot` locates the slab node so
  /// cancellation needs no lookup structure (the node's own `seq` acts as a
  /// generation tag against slot reuse).
  struct EventId {
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
    [[nodiscard]] constexpr bool valid() const noexcept { return seq != 0; }
  };

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Schedules `cb` at absolute time `when`. Scheduling in the past fires at
  /// `now()` (the event still runs after the current callback returns).
  /// `tag` names the schedule site for dispatch observers (profilers); it
  /// costs two pointer copies and is invisible to untagged callers.
  EventId schedule_at(Time when, Callback cb, TaskTag tag = {});

  /// Schedules `cb` `delay` nanoseconds from `now()`.
  EventId schedule_after(Time delay, Callback cb, TaskTag tag = {}) {
    return schedule_at(now_ + delay, std::move(cb), tag);
  }

  /// Attaches (or, with nullptr, detaches) the dispatch observer. The
  /// observer must outlive its attachment — detach before destroying it.
  void set_dispatch_observer(DispatchObserver* o) noexcept { observer_ = o; }
  [[nodiscard]] DispatchObserver* dispatch_observer() const noexcept {
    return observer_;
  }

  /// Cancels a pending event. Returns false if it already fired, was already
  /// cancelled, or `id` is invalid. Cancellation is eager, O(log n): the
  /// entry leaves the heap and its node is recycled immediately, so
  /// `pending()` always equals live queue occupancy (no lazily-dead entries
  /// linger).
  bool cancel(EventId id);

  /// Runs the single next event. Returns false if the queue is empty.
  bool step();

  /// Runs until the queue drains or `stop()` is called. Returns the number of
  /// events processed by this call.
  std::size_t run();

  /// Runs every event with timestamp <= `deadline`, then advances `now()` to
  /// `deadline` (even if idle) — unless `stop()` interrupted the run. A
  /// stopped run returns with `now()` parked at the interrupting event's
  /// timestamp and the remaining due events still queued, so a subsequent
  /// `run_until(deadline)` resumes the unfinished window instead of skipping
  /// it; check `stop_requested()` to distinguish the two outcomes. Returns
  /// events processed.
  std::size_t run_until(Time deadline);

  /// Makes `run()`/`run_until()` return after the current event completes.
  void stop() noexcept { stopped_ = true; }
  [[nodiscard]] bool stop_requested() const noexcept { return stopped_; }
  void clear_stop() noexcept { stopped_ = false; }

  /// Number of live (non-cancelled) pending events.
  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }

  /// Total events executed since construction.
  [[nodiscard]] std::uint64_t processed() const noexcept { return processed_; }

  /// Exhaustive accounting audit for tests: checks the heap order, every
  /// node's stored heap position and the slab free list against
  /// `pending()`. Returns true when consistent; otherwise fills
  /// `why` (if non-null) with the first discrepancy. O(slab size) — not for
  /// hot paths.
  [[nodiscard]] bool self_check(std::string* why = nullptr) const;

  /// Detached coroutines report uncaught exceptions here (see task.hpp)
  /// instead of terminating, so tests can assert on failure paths.
  void report_task_failure(std::exception_ptr e) { failures_.push_back(e); }
  [[nodiscard]] const std::vector<std::exception_ptr>& task_failures()
      const noexcept {
    return failures_;
  }

  /// Rethrows the first recorded detached-task failure, if any. Harnesses call
  /// this after run() so coroutine bugs surface as test failures.
  void rethrow_task_failures() const;

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  /// Heap entry: the (when, seq) order key plus the node it schedules.
  struct Entry {
    Time when = 0;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
  };

  struct Node {
    Callback cb;
    Time created = 0;  // now() at the schedule call (observer lag metric)
    TaskTag tag;       // schedule-site identity for dispatch observers
    std::uint64_t seq = 0;  // generation tag; 0 = free
    std::uint32_t pos = kNil;  // heap index; next free slot while free
  };

  [[nodiscard]] static bool earlier(const Entry& a, const Entry& b) noexcept {
    return a.when < b.when || (a.when == b.when && a.seq < b.seq);
  }

  std::uint32_t alloc_node();
  void free_node(std::uint32_t slot);
  /// Stores `e` at heap index `pos` and records the position in its node.
  void place(std::size_t pos, const Entry& e);
  void sift_up(std::size_t pos, Entry e);
  void sift_down(std::size_t pos, Entry e);
  /// Removes the entry at heap index `pos`, restoring the heap order.
  void remove_at(std::size_t pos);
  /// Pops the earliest entry, advances `now()` to it and dispatches it.
  void fire_next();

  std::vector<Node> slab_;
  std::vector<Entry> heap_;
  std::uint32_t free_head_ = kNil;
  std::size_t free_count_ = 0;
  Time now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t processed_ = 0;
  DispatchObserver* observer_ = nullptr;
  bool stopped_ = false;
  std::vector<std::exception_ptr> failures_;
};

}  // namespace pinsim::sim
