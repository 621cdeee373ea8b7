#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/config.hpp"
#include "core/counters.hpp"
#include "core/region.hpp"
#include "cpu/core.hpp"
#include "cpu/cpu_model.hpp"
#include "mem/pin_arbiter.hpp"
#include "mem/pool.hpp"
#include "obs/event.hpp"
#include "obs/relay.hpp"
#include "sim/engine.hpp"
#include "sim/flat_map.hpp"

namespace pinsim::core {

/// Driver-side pinning engine (paper §3.1/§3.3): pins declared regions on
/// demand, strictly in address order, charging Table-1-calibrated costs to
/// the owning process's core at kernel priority; unpins on MMU-notifier
/// invalidation, memory pressure or undeclare; repins transparently on next
/// use.
///
/// `ensure_pinned` is the single entry point communications use:
///  * non-overlapped: the completion fires once the whole region is pinned
///    (the communication start waits — Figure 2);
///  * overlapped: the completion fires after only `sync_prepin_pages` are
///    pinned (default 0, i.e. immediately) and the rest keeps pinning in the
///    background while the rendezvous round-trip runs (Figure 5).
///
/// On multi-tenant hosts the manager doubles as one tenant of the host's
/// `mem::PinArbiter`: it joins arbitration lazily on first quota contact,
/// answers shed requests with its own LRU walk, and asks the arbiter for
/// headroom (shedding over-floor tenants) when the shared quota denies it.
class PinManager : public mem::PinArbiter::TenantOps {
 public:
  /// done(ok): ok=false means a segment was invalid (or went away) and the
  /// region is PinState::kFailed; the caller aborts its request.
  using Completion = std::function<void(bool ok)>;

  /// `relay` (optional) is the typed observability emission point; it must
  /// outlive the manager (the Endpoint passes its Driver's relay, whose
  /// address is stable). Bus attachment happens on the relay, so a bus
  /// attached after construction is still picked up.
  PinManager(sim::Engine& eng, cpu::Core& core, const cpu::CpuModel& cpu,
             const PinningConfig& cfg, Counters& counters,
             const obs::Relay* relay = nullptr);

  void set_relay(const obs::Relay* relay) noexcept { relay_ = relay; }
  /// (node, endpoint) stamped onto emitted events.
  void set_identity(std::uint32_t node, std::uint8_t ep) noexcept {
    node_ = node;
    ep_ = ep;
  }

  PinManager(const PinManager&) = delete;
  PinManager& operator=(const PinManager&) = delete;
  ~PinManager() override;

  /// Tracks a declared region for LRU/pressure management.
  void register_region(Region& r);
  /// Stops tracking (undeclare). Any pins are released first.
  void unregister_region(Region& r);

  /// Makes sure `r` is pinned according to the configured mode, then calls
  /// `done`. Safe to call concurrently for the same region; completions
  /// queue. Counted as a repin if the region had been pinned before and lost
  /// its pages (invalidation/pressure).
  void ensure_pinned(Region& r, Completion done);

  /// Per-request override of the overlap decision (§6: "only enabling
  /// decoupled/overlapped pinning for blocking operations").
  void ensure_pinned(Region& r, bool overlapped, Completion done);

  /// Releases every pin of `r` (charging the unpin cost) without
  /// undeclaring it. Next ensure_pinned repins.
  void unpin(Region& r);

  /// MMU-notifier path: the VM is invalidating [start, end). Every tracked
  /// region overlapping it loses its pins *now* (before the VM proceeds);
  /// in-flight asynchronous pinning of it is cancelled.
  void invalidate_range(mem::VirtAddr start, mem::VirtAddr end);

  /// Marks `r` recently used (for LRU eviction under pressure).
  void touch(Region& r);

  /// Invoked when asynchronous pinning fails after the communication already
  /// started (overlapped mode): the driver aborts the affected requests.
  void set_failure_handler(std::function<void(Region&)> h) {
    failure_handler_ = std::move(h);
  }

  [[nodiscard]] const PinningConfig& config() const noexcept { return cfg_; }

 private:
  struct PinJob {
    std::uint64_t generation = 0;
    std::vector<Completion> full_waiters;   // run when fully pinned
    std::vector<Completion> early_waiters;  // run at the overlap threshold
    std::size_t early_threshold = 0;        // pages pinned before early release
    bool charged_base = false;
    bool active = false;
    int retries = 0;        // consecutive zero-progress chunk attempts
    int inval_restarts = 0; // notifier invalidations absorbed by this job
  };

  /// Everything the manager knows about one region, keyed by the region's
  /// stable id in an *ordered* flat map: iteration order (notifier
  /// invalidation, LRU shedding ties) is then part of the deterministic
  /// contract instead of hash-of-pointer happenstance (pinlint D1/D2). The
  /// Region pointer is re-validated against the tracked entry before any
  /// deref from a timer callback, so a region destroyed during a backoff
  /// cannot be touched. Entries live in pooled nodes so references survive
  /// reentrant completions that insert into the map, and churn (declare/
  /// undeclare cycles) stops allocating at steady state.
  struct Tracked {
    Region* region = nullptr;
    sim::Time last_use = 0;
    bool registered = false;  // register_region() called: visible to the
                              // LRU shedder and the MMU-notifier path
    bool was_pinned = false;  // pinned at least once (repin counting)
    PinJob job;
  };

  /// The tracked entry for `r`, created on first use (a region pinned
  /// without register_region() still needs job state, but stays invisible
  /// to the LRU/notifier paths until registered).
  Tracked& track(Region& r);
  /// The entry for `rid` iff it still tracks the exact object `expected` —
  /// the timer-callback guard (undeclare + id reuse cannot alias).
  Tracked* find_alive(RegionId rid, const Region* expected);

  /// Wraps `fn(Tracked&)` for a core queue or timer so it runs only while
  /// the manager lives and `r`'s pin job is still active at generation
  /// `gen` (not invalidated, finished or undeclared while it waited).
  template <typename F>
  auto while_current(Region& r, std::uint64_t gen, F fn);
  /// Backs off, then resumes `r`'s current pin job with its next chunk.
  void resume_after(Region& r, sim::Time backoff, sim::TaskTag tag);

  void start_or_join(Region& r, bool wait_full, Completion done);
  void schedule_chunk(Region& r);
  void retry_or_fail(Region& r);
  /// Fails `r`'s pin job once a retry budget runs out; `why` is static.
  void give_up(Region& r, const char* why);
  [[nodiscard]] sim::Time retry_backoff(int retries) const;
  void finish(Region& r, bool ok);
  void release_early_waiters(Region& r, bool ok);
  void shed_pins_if_needed(mem::PhysicalMemory& pm,
                           std::size_t incoming_pages);
  bool shed_one_victim();

  // Cross-tenant arbitration (mem::PinArbiter::TenantOps).
  [[nodiscard]] std::size_t arb_pinned_pages() const override;
  bool arb_shed_idle() override;
  void arb_note_floor_protected() override;
  /// Registers with the host arbiter on first quota contact (idempotent).
  void maybe_join_arbitration(mem::PhysicalMemory& pm);
  /// Asks the arbiter to shed another tenant below us. True when headroom
  /// exists on return.
  bool arbitrate_headroom();
  void do_unpin(Region& r, std::uint64_t& op_counter);
  void do_unpin_from(Region& r, std::size_t first_slot,
                     std::uint64_t& op_counter);

  sim::Engine& eng_;
  cpu::Core& core_;
  const cpu::CpuModel& cpu_;
  PinningConfig cfg_;
  Counters& counters_;
  // Pool declared before the map: map entries hold pool nodes, so the pool
  // must outlive them on destruction.
  mem::ObjectPool<Tracked> tracked_pool_;
  sim::FlatMap<RegionId, mem::ObjectPool<Tracked>::Ptr> tracked_;
  std::function<void(Region&)> failure_handler_;
  const obs::Relay* relay_ = nullptr;
  std::uint32_t node_ = 0;
  std::uint8_t ep_ = 0;
  mem::PinArbiter* arbiter_ = nullptr;  // joined lazily; not owned
  std::uint32_t arb_id_ = 0;
  bool arb_registered_ = false;
  // Liveness token for engine timers (retry backoff): a timer may fire after
  // the endpoint (and its PinManager) is destroyed; captured weakly.
  std::shared_ptr<char> alive_ = std::make_shared<char>('p');

  /// Emits a pin event carrying the region's current frontier/total pages.
  /// `what` must have static storage duration. A kPinInvalidate carries the
  /// first invalidated slot in `cut`; its frontier snapshot must already be
  /// post-truncation so the invariant `offset <= cut` is checkable.
  void emit(obs::EventKind kind, Region& r, const char* what,
            std::size_t cut = 0);
};

}  // namespace pinsim::core
