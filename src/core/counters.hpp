#pragma once

#include <cstdint>

namespace pinsim::core {

/// Per-endpoint instrumentation. The §4.3 overlap-miss probability and the
/// retransmission behaviour reported in the paper are computed from these.
struct Counters {
  // Pinning activity (driver side).
  std::uint64_t pin_ops = 0;            // whole-region pin operations started
  std::uint64_t pages_pinned = 0;
  std::uint64_t unpin_ops = 0;
  std::uint64_t pages_unpinned = 0;
  std::uint64_t repins = 0;             // region pinned again after losing pins
  std::uint64_t notifier_invalidations = 0;  // regions unpinned by MMU notifier
  std::uint64_t pressure_unpins = 0;         // regions unpinned for memory pressure
  std::uint64_t pin_failures = 0;            // region pin ultimately failed

  // Memory-pressure degradation (pin denial, quota, retry/backoff). The
  // acceptance bar for chaos runs: pins_denied and pin_retry_exhausted move,
  // everything still ends in clean completions or ok=false aborts.
  std::uint64_t pins_denied = 0;         // page pins refused (quota/injected)
  std::uint64_t pin_retries = 0;         // chunk retries after a denial
  std::uint64_t pin_retry_exhausted = 0; // regions failed after the budget
  std::uint64_t pin_chunk_shrinks = 0;   // chunks shrunk to the quota headroom
  std::uint64_t pin_fail_resets = 0;     // kFailed regions retried on next use
  std::uint64_t pin_inval_restarts = 0;  // in-flight pin jobs restarted by
                                         // a notifier invalidation

  // Overlapped-pinning behaviour (§4.3).
  std::uint64_t region_accesses = 0;    // packet-driven reads/writes of regions
  std::uint64_t overlap_misses = 0;     // access hit a not-yet-pinned page

  // Protocol.
  std::uint64_t eager_sent = 0;
  std::uint64_t eager_completed = 0;
  std::uint64_t rndv_sent = 0;
  std::uint64_t rndv_received = 0;
  std::uint64_t pulls_sent = 0;
  std::uint64_t pull_replies_sent = 0;
  std::uint64_t notifies_sent = 0;
  std::uint64_t frames_dropped_on_miss = 0;
  std::uint64_t pull_rerequests = 0;     // optimistic gap-driven re-requests
  std::uint64_t retransmit_timeouts = 0;
  std::uint64_t duplicate_frames = 0;
  std::uint64_t aborts = 0;

  // Fault tolerance (frame checksum, duplicate suppression, retry budget).
  std::uint64_t frames_corrupted = 0;      // frames that failed to decode
  std::uint64_t checksum_drops = 0;        // checksum mismatch or bounds abuse
  std::uint64_t duplicates_suppressed = 0; // dup frames discarded side-effect-free
  std::uint64_t retry_exhausted = 0;       // requests given up after the budget

  // Component lifecycle (crash/restart injection). Like every counter here
  // they belong to the driver's endpoint slot, not the endpoint object, so
  // the report after a restart still shows the slot's full story.
  std::uint64_t lifecycle_crashes = 0;       // times this slot was killed
  std::uint64_t lifecycle_restarts = 0;      // times it came back
  std::uint64_t lifecycle_reclaimed_pages = 0;  // pins swept on those crashes
  std::uint64_t fenced_stale_frames = 0;     // stale-epoch frames dropped
  std::uint64_t heartbeat_timeouts = 0;      // peers declared dead by watchdog

  // Cross-tenant pin arbitration (mem/pin_arbiter.hpp): how this tenant
  // fared against the other processes sharing the host's pin quota.
  std::uint64_t tenant_arb_requests = 0;   // headroom requests to the arbiter
  std::uint64_t tenant_arb_grants = 0;     // requests satisfied by shedding
  std::uint64_t tenant_sheds_suffered = 0; // regions shed for another tenant
  std::uint64_t tenant_floor_protected = 0;  // times the fair-share floor
                                             // shielded this tenant's pins

  /// §4.3's headline metric: fraction of packet-driven region accesses that
  /// found their page not pinned yet.
  [[nodiscard]] double overlap_miss_rate() const noexcept {
    return region_accesses == 0 ? 0.0
                                : static_cast<double>(overlap_misses) /
                                      static_cast<double>(region_accesses);
  }
};

}  // namespace pinsim::core
