#include "core/report.hpp"

#include <cstdarg>
#include <cstdio>
#include <limits>
#include <string_view>

#include "obs/json.hpp"

namespace pinsim::core {

namespace {

void line(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  out += buf;
  out += '\n';
}

}  // namespace

std::string format_report(Host::Process& p, Host& host) {
  const Counters& c = p.lib.counters();
  const auto& cache = p.lib.cache().stats();
  const auto& core_stats = p.core.stats();

  std::string out;
  line(out, "endpoint %u @ node %u", static_cast<unsigned>(p.ep.id()),
       static_cast<unsigned>(p.addr().node));
  line(out, "  protocol: eager=%llu rndv=%llu pulls=%llu replies=%llu "
            "notifies=%llu",
       static_cast<unsigned long long>(c.eager_sent),
       static_cast<unsigned long long>(c.rndv_sent),
       static_cast<unsigned long long>(c.pulls_sent),
       static_cast<unsigned long long>(c.pull_replies_sent),
       static_cast<unsigned long long>(c.notifies_sent));
  line(out, "  receive side: eager_done=%llu rndv_rx=%llu",
       static_cast<unsigned long long>(c.eager_completed),
       static_cast<unsigned long long>(c.rndv_received));
  line(out, "  reliability: rerequests=%llu timeouts=%llu dups=%llu "
            "aborts=%llu",
       static_cast<unsigned long long>(c.pull_rerequests),
       static_cast<unsigned long long>(c.retransmit_timeouts),
       static_cast<unsigned long long>(c.duplicate_frames),
       static_cast<unsigned long long>(c.aborts));
  line(out, "  faults: corrupted=%llu checksum_drops=%llu dup_suppressed=%llu "
            "retry_exhausted=%llu miss_drops=%llu",
       static_cast<unsigned long long>(c.frames_corrupted),
       static_cast<unsigned long long>(c.checksum_drops),
       static_cast<unsigned long long>(c.duplicates_suppressed),
       static_cast<unsigned long long>(c.retry_exhausted),
       static_cast<unsigned long long>(c.frames_dropped_on_miss));
  line(out, "  pinning: ops=%llu pages=%llu unpins=%llu pages_unpinned=%llu "
            "repins=%llu failures=%llu",
       static_cast<unsigned long long>(c.pin_ops),
       static_cast<unsigned long long>(c.pages_pinned),
       static_cast<unsigned long long>(c.unpin_ops),
       static_cast<unsigned long long>(c.pages_unpinned),
       static_cast<unsigned long long>(c.repins),
       static_cast<unsigned long long>(c.pin_failures));
  line(out, "  invalidations: notifier=%llu pressure=%llu",
       static_cast<unsigned long long>(c.notifier_invalidations),
       static_cast<unsigned long long>(c.pressure_unpins));
  line(out, "  pressure: denied=%llu retries=%llu retry_exhausted=%llu "
            "shrinks=%llu failed_resets=%llu inval_restarts=%llu",
       static_cast<unsigned long long>(c.pins_denied),
       static_cast<unsigned long long>(c.pin_retries),
       static_cast<unsigned long long>(c.pin_retry_exhausted),
       static_cast<unsigned long long>(c.pin_chunk_shrinks),
       static_cast<unsigned long long>(c.pin_fail_resets),
       static_cast<unsigned long long>(c.pin_inval_restarts));
  line(out, "  overlap: accesses=%llu misses=%llu (rate %.2e)",
       static_cast<unsigned long long>(c.region_accesses),
       static_cast<unsigned long long>(c.overlap_misses),
       c.overlap_miss_rate());
  line(out, "  lifecycle: crashes=%llu restarts=%llu reclaimed_pages=%llu "
            "fenced=%llu hb_timeouts=%llu",
       static_cast<unsigned long long>(c.lifecycle_crashes),
       static_cast<unsigned long long>(c.lifecycle_restarts),
       static_cast<unsigned long long>(c.lifecycle_reclaimed_pages),
       static_cast<unsigned long long>(c.fenced_stale_frames),
       static_cast<unsigned long long>(c.heartbeat_timeouts));
  line(out, "  tenant: arb_requests=%llu arb_grants=%llu sheds_suffered=%llu "
            "floor_protected=%llu",
       static_cast<unsigned long long>(c.tenant_arb_requests),
       static_cast<unsigned long long>(c.tenant_arb_grants),
       static_cast<unsigned long long>(c.tenant_sheds_suffered),
       static_cast<unsigned long long>(c.tenant_floor_protected));
  line(out, "  region cache: hits=%llu misses=%llu evictions=%llu live=%zu",
       static_cast<unsigned long long>(cache.hits),
       static_cast<unsigned long long>(cache.misses),
       static_cast<unsigned long long>(cache.evictions),
       p.lib.cache().size());
  line(out, "  core '%s': bh=%.1fus kernel=%.1fus user=%.1fus idleq=%.1fus "
            "(util %.1f%%)",
       p.core.name().c_str(), sim::to_usec(core_stats.busy[0]),
       sim::to_usec(core_stats.busy[1]), sim::to_usec(core_stats.busy[2]),
       sim::to_usec(core_stats.busy[3]), p.core.utilization() * 100.0);
  if (host.memory().pin_quota() !=
      std::numeric_limits<std::size_t>::max()) {
    line(out, "  host pinned pages now: %zu (quota %zu, denials %llu)",
         host.memory().pinned_pages(), host.memory().pin_quota(),
         static_cast<unsigned long long>(host.memory().quota_denials()));
  } else {
    line(out, "  host pinned pages now: %zu", host.memory().pinned_pages());
  }
  return out;
}

std::string format_json_report(Host::Process& p, Host& host) {
  const Counters& c = p.lib.counters();
  const auto& cache = p.lib.cache().stats();

  // All emission goes through the obs/json.hpp helpers — the one escaping
  // and number-formatting authority — so a host or core name containing
  // `"` or `\` cannot produce invalid JSON.
  std::string out = "{";
  bool first = true;
  const auto field = [&out, &first](const char* key, std::uint64_t v) {
    if (!first) out += ',';
    first = false;
    out += obs::json_str(key);
    out += ':';
    out += obs::json_num(v);
  };
  const auto str_field = [&out, &first](const char* key,
                                        std::string_view v) {
    if (!first) out += ',';
    first = false;
    out += obs::json_str(key);
    out += ':';
    out += obs::json_str(v);
  };
  field("endpoint", p.ep.id());
  field("node", p.addr().node);
  str_field("host", host.config().name);
  str_field("core", p.core.name());
  field("eager_sent", c.eager_sent);
  field("eager_completed", c.eager_completed);
  field("rndv_sent", c.rndv_sent);
  field("rndv_received", c.rndv_received);
  field("pulls_sent", c.pulls_sent);
  field("pull_replies_sent", c.pull_replies_sent);
  field("notifies_sent", c.notifies_sent);
  field("pull_rerequests", c.pull_rerequests);
  field("retransmit_timeouts", c.retransmit_timeouts);
  field("duplicate_frames", c.duplicate_frames);
  field("aborts", c.aborts);
  field("frames_corrupted", c.frames_corrupted);
  field("checksum_drops", c.checksum_drops);
  field("duplicates_suppressed", c.duplicates_suppressed);
  field("retry_exhausted", c.retry_exhausted);
  field("frames_dropped_on_miss", c.frames_dropped_on_miss);
  field("pin_ops", c.pin_ops);
  field("pages_pinned", c.pages_pinned);
  field("unpin_ops", c.unpin_ops);
  field("pages_unpinned", c.pages_unpinned);
  field("repins", c.repins);
  field("pin_failures", c.pin_failures);
  field("notifier_invalidations", c.notifier_invalidations);
  field("pressure_unpins", c.pressure_unpins);
  field("pins_denied", c.pins_denied);
  field("pin_retries", c.pin_retries);
  field("pin_retry_exhausted", c.pin_retry_exhausted);
  field("pin_chunk_shrinks", c.pin_chunk_shrinks);
  field("pin_fail_resets", c.pin_fail_resets);
  field("pin_inval_restarts", c.pin_inval_restarts);
  field("region_accesses", c.region_accesses);
  field("overlap_misses", c.overlap_misses);
  field("lifecycle_crashes", c.lifecycle_crashes);
  field("lifecycle_restarts", c.lifecycle_restarts);
  field("lifecycle_reclaimed_pages", c.lifecycle_reclaimed_pages);
  field("fenced_stale_frames", c.fenced_stale_frames);
  field("heartbeat_timeouts", c.heartbeat_timeouts);
  field("tenant_arb_requests", c.tenant_arb_requests);
  field("tenant_arb_grants", c.tenant_arb_grants);
  field("tenant_sheds_suffered", c.tenant_sheds_suffered);
  field("tenant_floor_protected", c.tenant_floor_protected);
  field("cache_hits", cache.hits);
  field("cache_misses", cache.misses);
  field("cache_evictions", cache.evictions);
  field("host_pinned_pages", host.memory().pinned_pages());
  if (host.memory().pin_quota() != std::numeric_limits<std::size_t>::max()) {
    field("host_pin_quota", host.memory().pin_quota());
    field("host_quota_denials", host.memory().quota_denials());
  }
  out += '}';
  return out;
}

}  // namespace pinsim::core
