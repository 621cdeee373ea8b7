// Soak runner: the fault-tolerance acceptance bench. One table of scenario
// rows covers the paper's three recovery paths and their rack-scale
// composition, grouped in four families:
//  * chaos    — drop-and-retransmit (§3.3) under loss, corruption,
//               duplication, reordering and Gilbert-Elliott bursts;
//  * pressure — unpin under pressure and repin on demand (§3.1) under pin
//               denial, a tight pinned-page quota and notifier storms, plus
//               a quota-0 starvation probe;
//  * crash    — MMU-notifier teardown of a dying process (§3.2) under
//               seeded kill/restart cycles, loss, pin pressure, link flaps
//               and NIC resets;
//  * cluster  — all of it at rack scale: 16 hosts x 16 tenants behind a
//               switched topology, per-host pin quotas arbitrated across
//               tenants, incast congestion.
//
// Every row runs on one traffic source: a round-based pump of nonblocking
// Library requests. A round posts a set of (sender, receiver, size)
// flights, drains them in time-sliced run_until() windows, cancels flights
// stuck past the row's stall window, and drops handles owned by a crashed
// incarnation (a crash epoch per victim); the survivor<->victim exchange
// keeps its round open as a sliding window. Every received payload byte is
// checked. Every row runs twice from one seed with the observability rig
// attached, and the two JSON run reports must be byte-identical; with
// --trace-out, a quick run adds a third, traced run and a full run archives
// the untraced report.
//
//   soak [--quick] [--family=chaos|pressure|crash|cluster] [--trace-out=P]
//
// Exits non-zero when any row predicate fails, so `soak --quick
// --family=<f>` doubles as a ctest entry and an ASan+UBSan target.
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "mem/pressure.hpp"
#include "net/fault.hpp"
#include "net/watchdog.hpp"
#include "sim/lifecycle.hpp"

namespace {

using namespace pinsim;

constexpr std::size_t kNoQuota = std::numeric_limits<std::size_t>::max();
constexpr std::size_t kRackHosts = 16;  // two racks of 8
constexpr std::size_t kNodesPerRack = 8;
constexpr std::size_t kTenants = 16;  // processes per rack host
constexpr std::size_t kEager = 2048;
constexpr std::size_t kKiB = 1024;
constexpr std::size_t kExchangeWindow = 4;  // exchanges in flight

/// Payload of one flight. The key is spread over the high bits so that
/// flights differing only in sender or receiver still differ in most bytes.
std::vector<std::byte> pattern(std::size_t n, std::uint32_t key) {
  const std::uint32_t salt = key * 0x9e3779b9u;
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((i * 2654435761u + salt) >> 13);
  }
  return v;
}

enum class Family { kChaos, kPressure, kCrash, kCluster };

enum class Traffic {
  kPingPong,    // one message per round, 0->1 then 1 echoes; 2/64/512 kB
  kAlltoallv,   // every ordered rank pair, mixed 8/40/96 kB blocks
  kExchange,    // survivor <-> victim both ways, a sliding window of 4
  kUniform,     // rack: hosts paired by XOR mask, one send + recv per tenant
  kIncast,      // rack: every tenant off host 0 into endpoint 0
  kStarvation,  // 512 kB into a quota-0 receiver, then again, quota lifted
};

/// Per traffic pattern, in enum order: its name and its largest message,
/// which is the size of one buffer slot.
constexpr const char* kTrafficNames[] = {"pingpong", "alltoallv", "exchange",
                                         "uniform",  "incast",
                                         "starvation probe"};
constexpr std::size_t kSlotBytes[] = {512 * kKiB, 96 * kKiB, 96 * kKiB,
                                      64 * kKiB,  64 * kKiB, 512 * kKiB};

std::size_t a2av_block(std::size_t from, std::size_t to) {
  constexpr std::size_t kSizes[] = {8 * kKiB, 40 * kKiB, 96 * kKiB};
  return kSizes[(from + to) % 3];
}

/// A quantity that differs between --quick and full runs.
struct Scale {
  std::int64_t quick = 0;
  std::int64_t full = 0;
  [[nodiscard]] std::int64_t at(bool q) const { return q ? quick : full; }
};

struct Lifecycle {
  std::vector<std::size_t> victims;  // endpoints killed and restarted
  Scale crashes;                     // crash target; 0 = no lifecycle
  double flap_prob = 0.0;
  double nic_reset_prob = 0.0;
  std::vector<std::array<std::size_t, 2>> watchdogs;  // heartbeating hosts
  bool bystander = false;  // pinned process on the first victim's host
};

struct Row {
  Family family;
  const char* label;
  // Fabric: rack_queue == 0 is the two-host pair with `ranks` processes
  // placed round-robin; otherwise the 16-host/2-rack topology with 16
  // tenants per host and `rack_queue` frames of downlink queue.
  int ranks;
  std::size_t rack_queue;
  core::StackConfig stack;
  net::FaultPlan faults;
  mem::PressurePlan pressure;
  std::vector<std::size_t> pressure_hosts;
  std::size_t quota;  // per-host pinned pages; arbitrated on the rack
  Lifecycle life;
  Traffic traffic;
  Scale rounds;  // lifecycle rows also run until the crash target is met
  sim::Time stall;  // a round stuck this long has its flights canceled
  // Acceptance predicates beyond the ones every row asserts (bit-exact,
  // engine self-check, no invariant violation, byte-equal determinism
  // pair, no stalled pump, no fault drops without injected wire faults,
  // lifecycle counters equal the injector's).
  Scale max_failed{0, 0};   // failed_ops bound; -1 = unbounded
  Scale min_ok{1, 1};       // completed-flight floor
  bool congestion = false;  // congestion_dropped > 0
  bool arbiter = false;     // the pin arbiter received requests
};

/// Short protocol timers: the paper's 1 s pessimistic timeouts would
/// stretch a soak under injected loss to minutes of simulated time.
core::StackConfig wire_timers(sim::Time backoff_max) {
  core::StackConfig stack = core::overlapped_cache_config();
  stack.protocol.retransmit_timeout = 300 * sim::kMicrosecond;
  stack.protocol.retransmit_backoff_max = backoff_max;
  stack.protocol.pull_retry_timeout = 300 * sim::kMicrosecond;
  return stack;
}

/// Pin-retry backoff for rows that deny pins.
core::StackConfig pin_timers(core::StackConfig stack, sim::Time backoff_max,
                             int budget) {
  stack.pinning.pin_retry_backoff = 30 * sim::kMicrosecond;
  stack.pinning.pin_retry_backoff_max = backoff_max;
  stack.pinning.pin_retry_budget = budget;
  return stack;
}

/// A send into a dead peer must resolve (peer_dead or retry_exhausted) well
/// inside one victim downtime window.
core::StackConfig crash_stack() {
  core::StackConfig stack =
      pin_timers(wire_timers(2 * sim::kMillisecond), sim::kMillisecond, 16);
  stack.protocol.retry_budget = 12;
  return stack;
}

/// Abandoned pulls (sender aborted mid-rendezvous) must abort well inside
/// one pump stall window: 24 ticks x 300 us ~= 7 ms of silence.
core::StackConfig cluster_stack() {
  core::StackConfig stack = crash_stack();
  stack.protocol.pull_stall_budget = 24;
  return stack;
}

std::vector<Row> rows() {
  std::vector<Row> out;
  const Scale kUnbounded{-1, -1};

  // chaos: network faults, every stage under ping-pong and alltoallv.
  const core::StackConfig chaos = wire_timers(10 * sim::kMillisecond);
  net::FaultPlan loss2;
  loss2.loss = 0.02;
  net::FaultPlan mixed;
  mixed.loss = 0.05;
  mixed.corrupt = 0.02;
  mixed.duplicate = 0.02;
  mixed.reorder = 0.05;
  net::FaultPlan bursty = mixed;
  bursty.loss = 0.01;
  bursty.burst_enter = 0.02;
  bursty.burst_exit = 0.25;
  bursty.burst_loss = 1.0;
  const std::pair<const char*, net::FaultPlan> chaos_stages[] = {
      {"clean", {}},
      {"loss 2%", loss2},
      {"loss 5% + corrupt/dup/reorder", mixed},
      {"bursty (Gilbert-Elliott) + corrupt/dup/reorder", bursty}};
  for (const auto& [label, plan] : chaos_stages) {
    out.push_back({Family::kChaos, label, 2, 0, chaos, plan, {}, {}, kNoQuota,
                   {}, Traffic::kPingPong, {18, 48}, sim::kSecond});
    out.push_back({Family::kChaos, label, 4, 0, chaos, plan, {}, {}, kNoQuota,
                   {}, Traffic::kAlltoallv, {2, 5}, sim::kSecond});
  }

  // pressure: memory-subsystem faults on both hosts under ping-pong.
  const core::StackConfig pressure = pin_timers(
      wire_timers(10 * sim::kMillisecond), 2 * sim::kMillisecond, 32);
  mem::PressurePlan fail;
  fail.pin_fail = 0.10;
  mem::PressurePlan denial;
  denial.pin_fail = 0.05;
  denial.burst_enter = 0.02;
  denial.burst_exit = 0.25;
  denial.burst_fail = 1.0;
  mem::PressurePlan squeeze;
  squeeze.pin_fail = 0.05;
  mem::PressurePlan storm;
  storm.pin_fail = 0.02;
  storm.sweep = 0.8;
  storm.sweep_pages = 16;
  storm.migrate = 0.5;
  storm.migrate_pages = 4;
  storm.cow = 0.4;
  storm.cow_pages = 2;
  storm.storm_period = 20 * sim::kMicrosecond;
  // 512 kB messages span 128 pages: a 160-page quota cannot hold a cached
  // send region and an active receive region together, so every round
  // sheds the LRU region and shrinks chunks to the remaining headroom.
  const std::tuple<const char*, mem::PressurePlan, std::size_t>
      pressure_stages[] = {
          {"clean", {}, kNoQuota},
          {"pin failures 10%", fail, kNoQuota},
          {"bursty (Gilbert-Elliott) denial episodes", denial, kNoQuota},
          {"tight quota (160 pages) + pin failures 5%", squeeze, 160},
          {"notifier storms (sweep/migrate/cow) + pin failures 2%", storm,
           kNoQuota}};
  for (const auto& [label, plan, quota] : pressure_stages) {
    out.push_back({Family::kPressure, label, 2, 0, pressure, {}, plan, {0, 1},
                   quota, {}, Traffic::kPingPong, {18, 48}, sim::kSecond});
  }
  // The probe's first flight must fail on both sides (checked in the pump);
  // the retry with the quota lifted must land bit-exact.
  out.push_back({Family::kPressure, "receiver quota 0, then lifted", 2, 0,
                 pressure, {}, {}, {}, kNoQuota, {}, Traffic::kStarvation,
                 {2, 2}, sim::kSecond, {1, 1}});

  // crash: a survivor exchanges with a victim killed and restarted on
  // engine timers; a pinned bystander on the victim's host keeps the
  // reclaim proof's baseline nonzero. Node liveness via watchdogs. Each
  // row's ok-flight floor is two delivered payloads per exchange the
  // earlier sliding-window crash soak completed from the same seed.
  net::FaultPlan loss1;
  loss1.loss = 0.01;
  mem::PressurePlan crash_denial;
  crash_denial.pin_fail = 0.05;
  const Lifecycle crash_life{{1}, {30, 100}, 0.0, 0.0, {{0, 1}}, true};
  Lifecycle flapping = crash_life;
  flapping.flap_prob = 0.35;
  flapping.nic_reset_prob = 0.25;
  const std::tuple<const char*, net::FaultPlan, std::vector<std::size_t>,
                   Lifecycle, Scale>
      crash_stages[] = {
          {"crash/restart only", {}, {}, crash_life, {264, 802}},
          {"crashes + 2% frame loss", loss2, {}, crash_life, {196, 602}},
          {"crashes + 1% loss + pin pressure", loss1, {1}, crash_life,
           {186, 612}},
          {"crashes + loss + pressure + flaps + NIC resets", loss1, {1},
           flapping, {200, 498}}};
  for (const auto& [label, plan, hosts, life, min_ok] : crash_stages) {
    out.push_back({Family::kCrash, label, 2, 0, crash_stack(), plan,
                   crash_denial, hosts, kNoQuota, life, Traffic::kExchange,
                   {0, 0}, 3 * sim::kMillisecond, kUnbounded, min_ok});
  }

  // cluster: 256 tenants, 160 pinned pages per host against 16 tenants'
  // rendezvous working sets, so fair-share shedding does real work.
  // The uniform row injects nothing, yet a 64 kB region needs 16 pinned
  // pages against a fair floor of 160/16 = 10, so transfers that cannot
  // pin abort when the pin retry budget runs out. Its bound ratchets the
  // failure count at today's value; bounded pin windows with back-pressure
  // (ROADMAP item 1) are the fix, and will tighten it to 0.
  out.push_back({Family::kCluster, "uniform pairwise, intra+cross rack", 0,
                 64, cluster_stack(), {}, {}, {}, 160, {}, Traffic::kUniform,
                 {50, 1200}, 25 * sim::kMillisecond, {1320, 34323}, {1, 1},
                 false, true});
  // A shallow hub downlink queue so 240-into-1 must overflow it.
  out.push_back({Family::kCluster, "incast: 240 tenants into one hub", 0, 16,
                 cluster_stack(), {}, {}, {}, 160, {}, Traffic::kIncast,
                 {50, 500}, 25 * sim::kMillisecond, {0, 0}, {1, 1}, true});
  // Crash/restart of two tenant slots, one per rack: (host 1, slot 0) and
  // (host 9, slot 0), watched by one heartbeating host pair per rack.
  mem::PressurePlan cluster_denial;
  cluster_denial.pin_fail = 0.03;
  out.push_back({Family::kCluster,
                 "composed: 1% loss + pressure + crash/restart", 0, 64,
                 cluster_stack(), loss1, cluster_denial, {1}, 160,
                 {{1 * kTenants, 9 * kTenants}, {8, 40}, 0.0, 0.0,
                  {{0, 1}, {8, 9}}, false},
                 Traffic::kUniform, {40, 500}, 25 * sim::kMillisecond,
                 kUnbounded, {1, 1}, false, true});
  return out;
}

/// Per-family data: banner, master seed and the predicates that sum over
/// the family's rows. The message floor counts both runs of every
/// determinism pair.
struct FamilySpec {
  Family family;
  const char* name;
  const char* title;
  const char* paper_ref;
  std::uint64_t master_seed;
  Scale min_posted;
  std::uint64_t min_crashes;
  bool reclaim;  // some crash must reclaim pinned pages
};

constexpr FamilySpec kFamilies[] = {
    {Family::kChaos, "chaos",
     "Chaos soak: MXoE retransmission hardening under injected faults",
     "paper §3.3 drop-and-retransmit recovery, generalized to loss, bursty "
     "loss, corruption, duplication and reordering",
     0xc4a0'5000, {0, 0}, 0, false},
    {Family::kPressure, "pressure",
     "Pressure soak: graceful degradation under memory-subsystem chaos",
     "paper §3.1 unpin-under-pressure / repin-on-demand, generalized to pin "
     "denial, quotas and notifier storms",
     0x9e55'0e00, {0, 0}, 0, false},
    {Family::kCrash, "crash",
     "Crash soak: kill/restart lifecycle faults with pin-state recovery",
     "paper §3.2 MMU-notifier teardown as the recovery path for a dying "
     "process, plus watchdog liveness and epoch fencing",
     0xc4a5'11fe, {0, 0}, 100, true},
    {Family::kCluster, "cluster",
     "Cluster soak: rack-scale multi-tenant fabric with pin arbitration",
     "paper §5 scaled out: N nodes behind shared switch ports, per-host pin "
     "quotas arbitrated across tenant processes",
     0xc1a5'7e25, {60'000, 1'000'000}, 0, false},
};

struct Flight {
  std::uint32_t sender = 0;  // endpoint index
  std::uint32_t receiver = 0;
  std::size_t size = 0;
  std::size_t slot = 0;  // window slot (exchange rows)
  sim::Time posted = 0;
  sim::Time stuck_at = 0;  // cancel what is still pending past this
  int cancel_passes = 0;
  bool counted = false;       // both requests posted successfully
  std::uint64_t s_epoch = 0;  // victim crash epochs at post time: a bump
  std::uint64_t r_epoch = 0;  // means the owning library died
  mem::VirtAddr snd{}, rcv{};
  bool own_snd = false, own_rcv = false;  // malloc'd for this flight
  core::RequestPtr send{}, recv{};
  std::vector<std::byte> expect{};
};

struct Result {
  int failures = 0;
  std::string report;   // byte-compared across the determinism pair
  std::string summary;  // printed once per row
  std::uint64_t posted = 0;
  std::uint64_t crashes = 0;
  std::uint64_t reclaimed = 0;
};

double jain_index(const std::vector<std::uint64_t>& xs) {
  double sum = 0.0, sq = 0.0;
  for (std::uint64_t x : xs) {
    const double v = static_cast<double>(x);
    sum += v;
    sq += v * v;
  }
  if (sq == 0.0) return 1.0;  // nobody got anything: trivially fair
  return (sum * sum) / (static_cast<double>(xs.size()) * sq);
}

sim::Time p99_of(std::vector<sim::Time>& xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  return xs[(99 * (xs.size() - 1)) / 100];
}

/// 64-bit integers reach printf as (unsigned) long long, so formats use
/// %llu / %lld for counters, sizes and times alike.
template <typename T>
auto widen(T v) {
  if constexpr (std::is_same_v<T, std::uint64_t>) {
    return static_cast<unsigned long long>(v);
  } else if constexpr (std::is_same_v<T, std::int64_t>) {
    return static_cast<long long>(v);
  } else {
    return v;
  }
}

template <typename... Args>
std::string format(const char* fmt, Args... args) {
  char buf[512];
  std::snprintf(buf, sizeof buf, fmt, widen(args)...);
  return buf;
}

template <typename... Args>
void say(const char* fmt, Args... args) {
  std::fputs(format(fmt, args...).c_str(), stdout);
}

Result run_row(const Row& row, const bench::Options& opt, std::uint64_t seed,
               const std::string& tag) {
  Result res;
  const auto fail = [&res](const std::string& why) {
    say("  FAIL: %s\n", why.c_str());
    ++res.failures;
  };
  const bool rack = row.rack_queue != 0;
  const std::size_t nep =
      rack ? kRackHosts * kTenants : static_cast<std::size_t>(row.ranks);
  const auto host_of = [rack](std::size_t e) {
    return rack ? e / kTenants : e % 2;
  };
  const auto slot_of = [rack](std::size_t e) {
    return rack ? e % kTenants : e / 2;
  };

  net::Topology::Config tc;
  tc.nodes_per_rack = kNodesPerRack;
  tc.uplinks_per_rack = 2;
  tc.downlink_queue_frames = row.rack_queue;
  tc.uplink_queue_frames = 128;
  tc.link.seed = seed ^ 0x70b0u;
  const auto owner =
      rack ? std::make_unique<bench::Cluster>(*opt.cpu, row.stack, tc,
                                              kRackHosts, kTenants + 1,
                                              /*memory_frames=*/4096)
           : std::make_unique<bench::Cluster>(*opt.cpu, row.stack,
                                              /*nranks=*/0, /*with_ioat=*/false);
  bench::Cluster& cluster = *owner;
  sim::Engine& eng = cluster.eng;
  for (auto& h : cluster.hosts) {
    if (rack) h->enable_pin_arbitration();
    h->memory().set_pin_quota(row.quota);
  }
  for (std::size_t e = 0; e < nep; ++e) {
    cluster.hosts[host_of(e)]->spawn_process();
  }
  const auto ep = [&](std::size_t e) -> core::Host::Process& {
    return cluster.hosts[host_of(e)]->process(slot_of(e));
  };
  const auto ep_alive = [&](std::size_t e) {
    return cluster.hosts[host_of(e)]->process_alive(slot_of(e));
  };
  core::Host::Process* byst = nullptr;
  if (row.life.bystander) {
    byst = &cluster.hosts[host_of(row.life.victims.front())]->spawn_process();
  }

  // Per-endpoint buffers, re-carved on restart: a killed process's address
  // space dies with it. Alltoallv gives every peer its own slot, the
  // exchange every flight of its window. An exchange victim carves none: it
  // mallocs each flight's buffer and frees it when the flight resolves, so
  // crashes land while its heap churns.
  const auto victim_of = [&row](std::size_t e) -> int {
    const auto& v = row.life.victims;
    const auto it = std::find(v.begin(), v.end(), e);
    return it == v.end() ? -1 : static_cast<int>(it - v.begin());
  };
  const std::size_t slots =
      row.traffic == Traffic::kAlltoallv   ? static_cast<std::size_t>(row.ranks)
      : row.traffic == Traffic::kExchange ? kExchangeWindow
                                          : 1;
  const std::size_t stride = kSlotBytes[static_cast<int>(row.traffic)];
  struct EpBuf {
    mem::VirtAddr snd{}, rcv{};
  };
  std::vector<EpBuf> bufs(nep);
  const auto carve = [&](std::size_t e) {
    if (row.traffic == Traffic::kExchange && victim_of(e) >= 0) return;
    bufs[e].snd = ep(e).heap.malloc(stride * slots);
    bufs[e].rcv = ep(e).heap.malloc(stride * slots);
  };
  for (std::size_t e = 0; e < nep; ++e) carve(e);

  // Incast hub slots: one landing buffer per remote sender.
  std::vector<mem::VirtAddr> hub_rcv;
  if (row.traffic == Traffic::kIncast) {
    for (std::size_t s = kTenants; s < nep; ++s) {
      hub_rcv.push_back(ep(0).heap.malloc(kEager));
    }
  }

  // Watchdogs before the rig, so the bus reaches their heartbeats too.
  for (const auto& pr : row.life.watchdogs) {
    for (std::size_t side = 0; side < 2; ++side) {
      net::Watchdog::Config wc;
      wc.seed = (seed ^ 0x4deadu) + pr[side];
      core::Host& self = *cluster.hosts[pr[side]];
      self.enable_watchdog(wc).add_peer(
          cluster.hosts[pr[1 - side]]->nic().node_id());
      self.watchdog()->start();
    }
  }

  bench::ObsRig obs(cluster,
                    tag.empty() ? std::string() : tag + ".trace.json");
  cluster.fabric->faults().set_plan(row.faults);

  std::vector<std::unique_ptr<mem::PressureInjector>> pressure;
  for (std::size_t i = 0; i < row.pressure_hosts.size(); ++i) {
    const std::size_t h = row.pressure_hosts[i];
    auto inj = std::make_unique<mem::PressureInjector>((seed ^ 0x9e55u) + i);
    inj->set_plan(row.pressure);
    inj->set_bus(&obs.bus);
    cluster.hosts[h]->memory().set_pressure(inj.get());
    if (row.pressure.storms()) {  // storm rows have no crash victims
      for (std::size_t e = 0; e < nep; ++e) {
        if (host_of(e) == h) inj->watch(&ep(e).as);
      }
      inj->start_storm(eng);
    }
    pressure.push_back(std::move(inj));
  }

  const sim::Time kSlice = 20 * sim::kMicrosecond;

  // Bystander warm-up: one rendezvous send leaves its region pinned in the
  // bystander's cache, so the victim host's non-tenant baseline is nonzero
  // and the per-crash reclaim proof cannot pass vacuously.
  if (byst != nullptr) {
    const std::size_t n = 256 * kKiB;
    core::Host::Process& surv = ep(0);
    const mem::VirtAddr src = byst->heap.malloc(n);
    const mem::VirtAddr dst = surv.heap.malloc(n);
    byst->as.write(src, pattern(n, 0xb57));
    core::RequestPtr r = surv.lib.irecv(0xb00, ~0ull, dst, n);
    core::RequestPtr s = byst->lib.isend(surv.addr(), 0xb00, src, n);
    const sim::Time warm_deadline = eng.now() + 100 * sim::kMillisecond;
    while (!(r->completed() && s->completed()) && eng.now() < warm_deadline) {
      eng.run_until(eng.now() + kSlice);
    }
    if (!r->completed() || !s->completed() || !r->status().ok ||
        !s->status().ok) {
      fail("bystander warm-up did not complete");
    }
  }

  // Lifecycle: a per-victim crash epoch lets the pump recognize request
  // handles whose owning library died — those are dropped, not awaited
  // (the dead incarnation's unmatched requests never complete).
  const auto crash_target =
      static_cast<std::uint64_t>(row.life.crashes.at(opt.quick));
  std::vector<std::uint64_t> crash_epoch(row.life.victims.size(), 0);
  std::unique_ptr<sim::LifecycleInjector> inj;
  if (crash_target > 0) {
    sim::LifecycleInjector::Plan lp;
    lp.seed = seed;
    lp.victims = row.life.victims.size();
    lp.uptime_min = 150 * sim::kMicrosecond;
    lp.uptime_max = 500 * sim::kMicrosecond;
    lp.downtime_min = 60 * sim::kMicrosecond;   // > one pump slice, so every
    lp.downtime_max = 200 * sim::kMicrosecond;  // death window is observed
    lp.max_crashes = crash_target;
    sim::LifecycleInjector::Hooks hooks;
    hooks.crash = [&](std::size_t v) {
      const std::size_t e = row.life.victims[v];
      if (!ep_alive(e)) return;
      ++crash_epoch[v];
      cluster.hosts[host_of(e)]->kill_process(slot_of(e));
    };
    hooks.restart = [&](std::size_t v) {
      const std::size_t e = row.life.victims[v];
      if (ep_alive(e)) return;
      cluster.hosts[host_of(e)]->restart_process(slot_of(e));
      carve(e);
    };
    if (row.life.flap_prob > 0.0 || row.life.nic_reset_prob > 0.0) {
      lp.ports = 2;
      lp.flap_prob = row.life.flap_prob;
      lp.flap_min = 30 * sim::kMicrosecond;
      lp.flap_max = 120 * sim::kMicrosecond;
      lp.nic_reset_prob = row.life.nic_reset_prob;
      hooks.link = [&cluster](std::size_t port, bool up) {
        cluster.fabric->set_port_up(static_cast<net::NodeId>(port), up);
      };
      hooks.nic_reset = [&cluster](std::size_t port) {
        cluster.hosts[port]->nic().reset();
      };
    }
    inj = std::make_unique<sim::LifecycleInjector>(eng, lp);
    inj->set_hooks(hooks);
    inj->start();
  }
  const auto life_done = [&] {
    return !inj || (inj->stats().crashes >= crash_target && inj->quiescent());
  };

  std::uint64_t ok_pairs = 0, failed_ops = 0, canceled = 0, mismatches = 0,
                skipped_dead = 0;
  std::vector<std::vector<sim::Time>> lat(nep);  // per-tenant
  std::vector<std::uint64_t> ok_by_ep(nep, 0);
  std::vector<Flight> flights;
  flights.reserve(nep);
  const std::int64_t rounds = row.rounds.at(opt.quick);
  const bool window = row.traffic == Traffic::kExchange;
  std::uint64_t exchanges = 0;  // window rows: exchanges posted so far

  const auto epoch_of = [&](std::size_t e) -> std::uint64_t {
    const int v = victim_of(e);
    return v < 0 ? 0 : crash_epoch[static_cast<std::size_t>(v)];
  };
  // Handles owned by a crashed incarnation are dead weight: the library that
  // created them is gone.
  const auto drop_dead = [&](Flight& f) {
    if (f.send && epoch_of(f.sender) != f.s_epoch) f.send.reset();
    if (f.recv && epoch_of(f.receiver) != f.r_epoch) f.recv.reset();
  };
  const auto pending = [](const Flight& f) {
    return (f.send && !f.send->completed()) ||
           (f.recv && !f.recv->completed());
  };
  // A buffer malloc'd for one flight goes back to the heap only if the
  // incarnation that allocated it still lives.
  const auto release = [&](std::size_t e, mem::VirtAddr a,
                           std::uint64_t epoch) {
    if (ep_alive(e) && epoch_of(e) == epoch) ep(e).heap.free(a);
  };

  for (std::int64_t r = 0; (r < rounds || !life_done()) && res.failures == 0;
       ++r) {
    flights.clear();
    // `k` tells apart flights with the same sender and receiver in a round;
    // an exchange passes its sequence number and its window slot. A buffer
    // address of 0 is malloc'd for the flight and freed when it resolves.
    const auto post = [&](std::size_t se, std::size_t re, std::size_t size,
                          mem::VirtAddr snd, mem::VirtAddr rcv,
                          std::uint64_t k = 0, std::size_t slot = 0) {
      if (!ep_alive(se) || !ep_alive(re)) {
        ++skipped_dead;
        return;
      }
      Flight f{.sender = static_cast<std::uint32_t>(se),
               .receiver = static_cast<std::uint32_t>(re),
               .size = size,
               .slot = slot,
               .posted = eng.now(),
               .stuck_at = eng.now() + row.stall,
               .s_epoch = epoch_of(se),
               .r_epoch = epoch_of(re),
               .own_snd = snd == 0,
               .own_rcv = rcv == 0};
      f.snd = f.own_snd ? ep(se).heap.malloc(size) : snd;
      f.rcv = f.own_rcv ? ep(re).heap.malloc(size) : rcv;
      const std::uint64_t match =
          (static_cast<std::uint64_t>(r) << 32) | (k << 16) | se;
      f.expect = pattern(size, static_cast<std::uint32_t>(
                                   ((static_cast<std::uint64_t>(r) * 4 + k)
                                    << 16) |
                                   (se << 8 | re)));
      try {
        ep(se).as.write(f.snd, f.expect);
        f.recv = ep(re).lib.irecv(match, ~0ull, f.rcv, size);
        f.send = ep(se).lib.isend(ep(re).addr(), match, f.snd, size);
        f.counted = true;
        ++res.posted;
      } catch (const core::PeerDeadError&) {
        // isend raced a death declaration: cancel the receive, but keep
        // the flight alive — the library references the request until its
        // (possibly deferred) completion, so the handle must survive until
        // the reap path sees it completed.
        ++skipped_dead;
        if (!f.recv->completed()) ep(re).lib.cancel(*f.recv);
      }
      flights.push_back(std::move(f));
    };
    // One survivor (0) <-> victim (1) exchange into window slot k, eager
    // and rendezvous sizes alternating; the victim's send is posted first.
    const auto exchange = [&](std::size_t k) {
      const std::size_t size = exchanges % 2 == 0 ? kEager : 96 * kKiB;
      const std::size_t off = k * stride;
      const std::size_t before = flights.size();
      post(1, 0, size, 0, bufs[0].rcv + off, exchanges, k);
      post(0, 1, size, bufs[0].snd + off, 0, exchanges, k);
      if (flights.size() != before) ++exchanges;
    };
    // Settles one resolved flight: counts it, checks every received byte
    // and hands back the buffers malloc'd for it.
    const auto reap = [&](Flight& f) {
      if (f.counted) {  // not half-posted against a dead peer
        // A payload that landed in a since-crashed incarnation cannot be
        // checked, so it does not count as delivered.
        const bool sok = f.send && f.send->status().ok;
        const bool rok = f.recv && f.recv->status().ok &&
                         epoch_of(f.receiver) == f.r_epoch;
        if (sok && rok) {
          ++ok_pairs;
          ++ok_by_ep[f.sender];
          lat[f.sender].push_back(eng.now() - f.posted);
        } else {
          ++failed_ops;  // bounded by the row's max_failed; never silent
        }
        if (rok && ep_alive(f.receiver)) {
          std::vector<std::byte> got(f.size);
          ep(f.receiver).as.read(f.rcv, got);
          if (std::memcmp(got.data(), f.expect.data(), f.size) != 0) {
            std::size_t first = 0;
            while (first < f.size && got[first] == f.expect[first]) ++first;
            say("  CORRUPT: round=%lld %u->%u size=%llu sok=%d "
                "first_bad=%llu\n",
                r, f.sender, f.receiver, f.size, sok ? 1 : 0, first);
            ++mismatches;
          }
        }
        // The starved transfer must end ok=false on both sides — no hang,
        // no silent corruption — with the denial visible in the receiver's
        // pin counters; kFailed is retryable, so round 1 reuses its
        // buffers.
        if (row.traffic == Traffic::kStarvation && r == 0) {
          const core::Counters& c = ep(1).lib.counters();
          res.summary += format(
              "  starved: send ok=%d recv ok=%d denied=%llu exhausted=%llu\n",
              sok ? 1 : 0, rok ? 1 : 0, c.pins_denied, c.pin_retry_exhausted);
          if (sok || rok) fail("starved transfer reported success");
          if (c.pins_denied == 0 || c.pin_retry_exhausted == 0) {
            fail("starvation not visible in the pin counters");
          }
        }
      }
      if (f.own_snd) release(f.sender, f.snd, f.s_epoch);
      if (f.own_rcv) release(f.receiver, f.rcv, f.r_epoch);
    };

    switch (row.traffic) {
      case Traffic::kPingPong: {
        // Rank 1 echoes from its landing buffer, so a region pinned and
        // cached for a receive is reused as a send source.
        const std::size_t sizes[] = {kEager, 64 * kKiB, 512 * kKiB};
        const std::size_t size = sizes[(r / 2) % 3];
        if (r % 2 == 0) {
          post(0, 1, size, bufs[0].snd, bufs[1].rcv);
        } else {
          post(1, 0, size, bufs[1].rcv, bufs[0].rcv);
        }
        break;
      }
      case Traffic::kStarvation:
        cluster.hosts[1]->memory().set_pin_quota(r == 0 ? 0 : row.quota);
        post(0, 1, 512 * kKiB, bufs[0].snd, bufs[1].rcv);
        break;
      case Traffic::kAlltoallv:
        for (std::size_t i = 0; i < nep; ++i) {
          for (std::size_t j = 0; j < nep; ++j) {
            if (i == j) continue;
            post(i, j, a2av_block(i, j), bufs[i].snd + j * stride,
                 bufs[j].rcv + i * stride);
          }
        }
        break;
      case Traffic::kExchange:  // the drain loop fills the other slots
        exchange(0);
        break;
      case Traffic::kUniform: {
        // Pair hosts by XOR mask, alternating intra-rack (^1, ^3) and
        // cross-rack (^8, ^11) rounds; the slot is preserved, so every
        // endpoint sends one message and receives one message per round.
        static constexpr std::size_t kMasks[4] = {1, 8, 3, 11};
        const std::size_t hmask = kMasks[static_cast<std::size_t>(r) % 4];
        for (std::size_t e = 0; e < nep; ++e) {
          const std::size_t partner =
              (host_of(e) ^ hmask) * kTenants + slot_of(e);
          const std::size_t size =
              (static_cast<std::size_t>(r) + e) % 8 == 0 ? 64 * kKiB : kEager;
          post(e, partner, size, bufs[e].snd, bufs[partner].rcv);
        }
        break;
      }
      case Traffic::kIncast:
        for (std::size_t e = kTenants; e < nep; ++e) {
          post(e, 0, kEager, bufs[e].snd, hub_rcv[e - kTenants]);
        }
        break;
    }

    if (flights.empty()) {  // every pair has a dead end: let time pass
      eng.run_until(eng.now() + kSlice);
      continue;
    }

    // Drain the round in time-sliced windows until every request resolves.
    // A window row settles each flight as soon as it resolves, before its
    // victim's next crash can take the landed payload with it, and while
    // the lifecycle schedule still runs posts one exchange per slice into a
    // slot whose flights are all settled.
    while (true) {
      if (window) {
        for (Flight& f : flights) {
          if (!pending(f)) reap(f);
        }
        std::erase_if(flights, [&](const Flight& f) { return !pending(f); });
        for (std::size_t k = 0; k < kExchangeWindow && !life_done(); ++k) {
          if (std::none_of(flights.begin(), flights.end(),
                           [k](const Flight& f) { return f.slot == k; })) {
            exchange(k);
            break;
          }
        }
      }
      for (Flight& f : flights) drop_dead(f);
      if (std::none_of(flights.begin(), flights.end(), pending)) break;

      // Reclaim whatever a dead peer or a loss burst orphaned: a flight
      // stuck past the stall window has its pending requests canceled, and
      // the third window it sticks through fails the row.
      const auto cancel = [&](std::size_t e, const core::RequestPtr& q) {
        if (q && !q->completed() && ep_alive(e) && ep(e).lib.cancel(*q)) {
          ++canceled;
        }
      };
      for (Flight& f : flights) {
        if (!pending(f) || eng.now() <= f.stuck_at) continue;
        if (++f.cancel_passes > 2) {
          fail(format("pump stalled in round %lld at t=%llu: %u->%u, %llu kB",
                      r, eng.now(), f.sender, f.receiver, f.size / kKiB));
          break;
        }
        cancel(f.sender, f.send);
        cancel(f.receiver, f.recv);
        f.stuck_at = eng.now() + row.stall;
      }
      if (res.failures != 0) break;
      eng.run_until(eng.now() + kSlice);
    }
    if (res.failures != 0) break;
    for (Flight& f : flights) reap(f);
  }

  // Stage boundary: the engine's own structural invariants must hold after
  // the barrage. A failure dumps the flight recorder's window.
  if (!obs.check_engine()) fail("engine self-check (see flight dump)");
  const std::int64_t max_failed = row.max_failed.at(opt.quick);
  if (const std::int64_t floor = row.min_ok.at(opt.quick);
      ok_pairs < static_cast<std::uint64_t>(floor)) {
    fail(format("only %llu ok flight(s), floor %lld", ok_pairs, floor));
  }
  if (mismatches != 0) fail("corrupted payload(s)");
  if (max_failed >= 0 && failed_ops > static_cast<std::uint64_t>(max_failed)) {
    fail(format("%llu failed operation(s), bound %lld", failed_ops,
                max_failed));
  }
  const std::uint64_t congestion_dropped = cluster.fabric->congestion_dropped();
  const std::uint64_t fault_dropped = cluster.fabric->fault_dropped();
  if (row.congestion && congestion_dropped == 0) {
    fail("incast never overflowed a switch queue");
  }
  if (!row.faults.active() && row.life.flap_prob == 0.0 &&
      row.life.nic_reset_prob == 0.0 && fault_dropped != 0) {
    fail("fault drops without an injected wire fault");
  }

  // Lifecycle: the schedule ran to completion and the slots' own counters
  // (stamped from the host slot history across restarts) agree with the
  // injector.
  sim::LifecycleInjector::Stats life;
  if (inj) {
    life = inj->stats();
    std::uint64_t slot_crashes = 0, slot_restarts = 0;
    for (std::size_t e : row.life.victims) {
      if (!ep_alive(e)) continue;
      slot_crashes += ep(e).lib.counters().lifecycle_crashes;
      slot_restarts += ep(e).lib.counters().lifecycle_restarts;
    }
    if (life.crashes != crash_target || life.restarts != life.crashes) {
      fail("lifecycle schedule incomplete");
    }
    if (slot_crashes != life.crashes || slot_restarts != life.restarts) {
      fail("slot lifecycle counters diverge from the injector");
    }
  }
  res.crashes = life.crashes;

  // Per-tenant fairness digest. Everything here is simulation-derived, so
  // it byte-compares across the determinism pair like the rest of the
  // report.
  std::vector<std::uint64_t> denied_by_ep(nep, 0);
  core::Counters sum;
  for (std::size_t e = 0; e < nep; ++e) {
    if (!ep_alive(e)) continue;
    const core::Counters& c = ep(e).lib.counters();
    denied_by_ep[e] = c.pins_denied;
    for (auto field :
         {&core::Counters::tenant_arb_requests,
          &core::Counters::tenant_arb_grants,
          &core::Counters::tenant_sheds_suffered,
          &core::Counters::tenant_floor_protected,
          &core::Counters::retransmit_timeouts,
          &core::Counters::retry_exhausted, &core::Counters::checksum_drops,
          &core::Counters::duplicates_suppressed, &core::Counters::pins_denied,
          &core::Counters::pin_retries, &core::Counters::pin_retry_exhausted,
          &core::Counters::pin_chunk_shrinks,
          &core::Counters::pressure_unpins,
          &core::Counters::notifier_invalidations, &core::Counters::repins,
          &core::Counters::overlap_misses, &core::Counters::aborts,
          &core::Counters::pin_fail_resets,
          &core::Counters::fenced_stale_frames,
          &core::Counters::heartbeat_timeouts}) {
      sum.*field += c.*field;
    }
  }
  if (row.arbiter && sum.tenant_arb_requests == 0) {
    fail("the pin arbiter never fired");
  }
  const double jain_ok = jain_index(ok_by_ep);
  const double jain_denied = jain_index(denied_by_ep);
  sim::Time p99_min = 0, p99_max = 0;
  for (std::size_t e = 0; e < nep; ++e) {
    if (lat[e].size() < 8) continue;  // too few samples to rank
    const sim::Time p = p99_of(lat[e]);
    if (p99_min == 0 || p < p99_min) p99_min = p;
    if (p > p99_max) p99_max = p;
  }
  const double p99_spread = p99_min > 0 ? static_cast<double>(p99_max) /
                                              static_cast<double>(p99_min)
                                        : 1.0;

  for (auto& pi : pressure) {
    pi->stop_storm();
    pi->set_bus(nullptr);
  }
  for (std::size_t h : row.pressure_hosts) {
    cluster.hosts[h]->memory().set_pressure(nullptr);
  }
  const int violations = obs.finish();
  if (violations != 0) {
    say("  %d INVARIANT VIOLATION(S)\n", violations);
    res.failures += violations;
  }
  res.reclaimed = obs.lifecycle.totals().reclaimed_pages;

  std::string& s = res.summary;
  s += format(
      "  traffic: posted=%llu ok=%llu failed=%llu canceled=%llu "
      "dead_skips=%llu -> %s\n"
      "  fabric:  congestion_dropped=%llu fault_dropped=%llu\n"
      "  tenants: arb_requests=%llu grants=%llu sheds=%llu jain_ok=%.4f "
      "p99_spread=%.2fx\n",
      res.posted, ok_pairs, failed_ops, canceled, skipped_dead,
      mismatches == 0 ? "bit-exact" : "CORRUPTED", congestion_dropped,
      fault_dropped, sum.tenant_arb_requests, sum.tenant_arb_grants,
      sum.tenant_sheds_suffered, jain_ok, p99_spread);
  s += format(
      "  endpoint: timeouts=%llu retry_exhausted=%llu checksum_drops=%llu "
      "dup_suppressed=%llu aborts=%llu misses=%llu\n"
      "  pinning:  denied=%llu retries=%llu exhausted=%llu shrinks=%llu "
      "shed=%llu inval=%llu repins=%llu fail_resets=%llu\n",
      sum.retransmit_timeouts, sum.retry_exhausted, sum.checksum_drops,
      sum.duplicates_suppressed, sum.aborts, sum.overlap_misses,
      sum.pins_denied, sum.pin_retries, sum.pin_retry_exhausted,
      sum.pin_chunk_shrinks, sum.pressure_unpins, sum.notifier_invalidations,
      sum.repins, sum.pin_fail_resets);
  if (row.faults.active()) {
    const auto& fs = cluster.fabric->faults().stats();
    s += format(
        "  faults:   frames=%llu drops=%llu+%llu corrupt=%llu dups=%llu "
        "reorders=%llu\n",
        fs.frames_seen, fs.drops, fs.burst_drops, fs.corruptions,
        fs.duplicates, fs.reorders);
  }
  for (std::size_t i = 0; i < pressure.size(); ++i) {
    const mem::PressureInjector::Stats& t = pressure[i]->stats();
    s += format(
        "  pressure: host=%llu attempts=%llu denied=%llu+%llu sweeps=%llu "
        "migr=%llu cow=%llu\n",
        row.pressure_hosts[i], t.pin_attempts, t.pins_denied, t.burst_denied,
        t.swept_pages, t.migrated_pages, t.cow_breaks);
  }
  if (inj) {
    const net::Watchdog::Stats wd =
        cluster.hosts[row.life.watchdogs.front()[0]]->watchdog()->stats();
    s += format(
        "  lifecycle: crashes=%llu restarts=%llu flaps=%llu nic_resets=%llu "
        "reclaimed_pages=%llu\n"
        "  watchdog:  deaths=%llu revivals=%llu beats=%llu/%llu fenced=%llu "
        "hb_timeouts=%llu\n",
        life.crashes, life.restarts, life.flaps, life.nic_resets,
        res.reclaimed, wd.deaths, wd.revivals, wd.beats_heard, wd.beats_sent,
        sum.fenced_stale_frames, sum.heartbeat_timeouts);
  }

  const std::string digest = format(
      "\"tenant_fairness\":{\"tenants\":%llu,\"jain_ok_pairs\":%.6f,"
      "\"jain_pin_denials\":%.6f,\"p99_spread_ratio\":%.6f,"
      "\"arb_requests\":%llu,\"arb_grants\":%llu,\"arb_sheds\":%llu,"
      "\"floor_protected\":%llu},",
      nep, jain_ok, jain_denied, p99_spread, sum.tenant_arb_requests,
      sum.tenant_arb_grants, sum.tenant_sheds_suffered,
      sum.tenant_floor_protected);
  res.report = obs.json_report();
  res.report.insert(1, digest);
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::Options::parse(argc, argv);
  std::string only;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--family=", 0) == 0) only = arg.substr(9);
  }
  if (!only.empty() &&
      std::none_of(std::begin(kFamilies), std::end(kFamilies),
                   [&only](const FamilySpec& f) { return only == f.name; })) {
    std::fprintf(stderr,
                 "unknown --family=%s (chaos|pressure|crash|cluster)\n",
                 only.c_str());
    return 2;
  }

  const std::vector<Row> table = rows();
  int failures = 0;
  for (const FamilySpec& fam : kFamilies) {
    if (!only.empty() && only != fam.name) continue;
    bench::print_header(fam.title, fam.paper_ref);
    std::uint64_t posted = 0, crashes = 0, reclaimed = 0;
    std::uint64_t idx = 0;
    for (const Row& row : table) {
      if (row.family != fam.family) continue;
      say("row %s-s%llu: %s / %s\n", fam.name, idx, row.label,
          kTrafficNames[static_cast<int>(row.traffic)]);
      const std::uint64_t seed = fam.master_seed + idx * 0x9e3779b9u;

      // Determinism pair: identical seed, no tracing (wall-clock metrics
      // are trace-only and would differ) — the reports must match byte for
      // byte.
      const Result a = run_row(row, opt, seed, "");
      const Result b = run_row(row, opt, seed, "");
      std::fputs(a.summary.c_str(), stdout);
      if (a.report != b.report) {
        say("  FAIL: determinism mismatch (%llu vs %llu bytes)\n",
            a.report.size(), b.report.size());
        ++failures;
      }
      failures += a.failures + b.failures;
      posted += a.posted + b.posted;
      crashes += a.crashes;
      reclaimed += a.reclaimed;

      if (!opt.trace_out.empty()) {
        const std::string tag = opt.trace_out + "-" + fam.name + "-s" +
                                std::to_string(idx);
        if (opt.quick) {
          // Instrumented third run: Chrome trace + archived report.
          // Full-length traces would be multi-GB, so a full run archives
          // the untraced report instead.
          const Result c = run_row(row, opt, seed, tag);
          failures += c.failures;
          bench::write_report(tag + ".report.json", c.report);
        } else {
          bench::write_report(tag + ".report.json", a.report);
        }
      }
      ++idx;
    }

    const auto check = [&failures](bool ok, const std::string& why) {
      if (!ok) {
        say("FAIL: %s\n", why.c_str());
        ++failures;
      }
    };
    const auto min_posted = fam.min_posted.at(opt.quick);
    check(posted >= static_cast<std::uint64_t>(min_posted),
          format("only %llu messages posted, floor %lld", posted, min_posted));
    check(crashes >= fam.min_crashes,
          format("only %llu crash cycles, floor %llu", crashes,
                 fam.min_crashes));
    check(!fam.reclaim || reclaimed > 0,
          "no crash ever reclaimed a pinned page");
  }

  if (failures != 0) {
    std::printf("\nFAIL: %d soak failure(s)\n", failures);
    return 1;
  }
  std::printf("\nevery row passed: payloads bit-exact, reports "
              "byte-identical, no invariant violations\n");
  return 0;
}
