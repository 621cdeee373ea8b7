// perfbench_driver: runs one benchmark workload against the simulator's
// public API and prints one JSON line of raw measurements. run.py generates
// the inputs from the seed, launches this program once per measurement in a
// fresh process, checks the layer guards and turns the raw numbers into the
// metrics named in BENCHMARK.json. README.md explains the workloads.
//
//   perfbench_driver --workload W --input FILE --mode untraced|traced|setup
//                    --warmup ROUNDS --measure ROUNDS --seconds S
//                    [--spans FILE]
//
// Traffic is closed-loop ping-pong on "lanes" (endpoint pairs): in every
// round each lane sends one message a->b, and b replies b->a once the first
// message has completed on both sides. A round ends when all its lanes are
// done. Rounds [0, warmup) are warm-up; the next `measure` rounds are the
// measured set, whose counts and simulated times are pure functions of the
// input file; rounds keep running after that until `seconds` of wall time
// have passed since the warm-up ended (the wall-clock window).
//
// Exit codes: 0 ok, 1 usage/input error, 2 payload mismatch, 3 stalled
// traffic, 4 invariant violation, 5 engine self-check or task failure.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "core/host.hpp"
#include "net/fabric.hpp"
#include "net/topology.hpp"
#include "obs/bus.hpp"
#include "obs/critical_path.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/invariants.hpp"
#include "obs/latency.hpp"
#include "obs/metrics.hpp"
#include "trace.hpp"

namespace {

using namespace pinsim;
using perfbench::SpanLog;
using perfbench::wall_ns;

[[noreturn]] void die(int code, const char* fmt, const char* what) {
  std::fprintf(stderr, "perfbench_driver: ");
  std::fprintf(stderr, fmt, what);
  std::fputc('\n', stderr);
  std::fflush(stdout);
  std::_Exit(code);
}

// --- inputs -----------------------------------------------------------------------

struct Options {
  std::string workload, input, mode = "untraced", spans;
  double seconds = 1.0;
  std::uint64_t warmup = 0, measure = 1;
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") o.workload = v;
    else if (k == "--input") o.input = v;
    else if (k == "--mode") o.mode = v;
    else if (k == "--spans") o.spans = v;
    else if (k == "--seconds") o.seconds = std::stod(v);
    else if (k == "--warmup") o.warmup = std::stoull(v);
    else if (k == "--measure") o.measure = std::stoull(v);
    else die(1, "unknown option %s", k.c_str());
  }
  if ((argc - 1) % 2 != 0) die(1, "%s", "options come in --key value pairs");
  if (o.mode != "untraced" && o.mode != "traced" && o.mode != "setup") {
    die(1, "unknown mode %s", o.mode.c_str());
  }
  if (o.measure == 0) die(1, "%s", "--measure must be at least 1");
  return o;
}

/// The message stream run.py generated from the seed: message i of the run
/// uses entry i modulo the stream length.
struct Input {
  std::uint64_t seed = 0;
  std::vector<std::uint32_t> sizes;
  std::vector<std::uint64_t> salts;
};

Input read_input(const Options& o) {
  std::ifstream in(o.input);
  if (!in) die(1, "cannot open input %s", o.input.c_str());
  std::string magic, key, workload;
  int version = 0;
  std::size_t count = 0;
  Input inp;
  in >> magic >> version >> key >> workload;
  if (magic != "perfbench-input" || version != 1 || key != "workload") {
    die(1, "malformed input header in %s", o.input.c_str());
  }
  if (workload != o.workload) die(1, "input is for workload %s", workload.c_str());
  in >> key >> inp.seed;
  if (key != "seed") die(1, "%s", "input lacks a seed line");
  in >> key >> count;
  if (key != "messages" || count == 0) die(1, "%s", "input lacks messages");
  inp.sizes.resize(count);
  inp.salts.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (!(in >> inp.sizes[i] >> inp.salts[i]) || inp.sizes[i] == 0) {
      die(1, "malformed message line in %s", o.input.c_str());
    }
  }
  return inp;
}

/// The seeded payload of one message: word i is a multiplicative hash of
/// (salt, i), cheap enough that generating it stays a small share of a run.
void fill_pattern(std::uint64_t salt, std::span<std::byte> out) {
  const auto word = [salt](std::size_t i) {
    const std::uint64_t z = (salt ^ i) * 0x9e3779b97f4a7c15ull;
    return z ^ (z >> 29);
  };
  std::size_t i = 0;
  for (; i + 8 <= out.size(); i += 8) {
    const std::uint64_t z = word(i);
    std::memcpy(out.data() + i, &z, 8);
  }
  const std::uint64_t z = word(i);
  std::memcpy(out.data() + i, &z, out.size() - i);
}

// --- the simulated world --------------------------------------------------------

struct Spec {
  bool cluster = false;      // rack topology with tenants, else 2-host fabric
  bool churn = false;        // free + malloc both buffers before each message
  std::size_t buf_bytes = 0; // fixed per-endpoint send/recv buffers (no churn)
};

Spec spec_for(const std::string& workload) {
  if (workload == "eager_small") return {false, false, 1024};
  if (workload == "rndv_churn") return {false, true, 0};
  if (workload == "cluster_contended") return {true, false, 64 * 1024};
  die(1, "unknown workload %s", workload.c_str());
}

// cluster_contended: two racks of four hosts, eight tenants per host, and a
// per-host pin quota of 10 pages per tenant — the fair floor sits below the
// 16 pages of one 64 KiB rendezvous region, as in cluster_soak's uniform
// stage. Protocol timers and budgets are cluster_soak's, so a denied
// transfer resolves (or aborts) in simulated milliseconds.
constexpr std::size_t kRacks = 2, kNodesPerRack = 4, kTenants = 8;
constexpr std::size_t kPagesPerTenant = 10;

core::StackConfig contended_stack() {
  core::StackConfig stack = core::overlapped_cache_config();
  stack.protocol.retransmit_timeout = 300 * sim::kMicrosecond;
  stack.protocol.retransmit_backoff_max = 2 * sim::kMillisecond;
  stack.protocol.retry_budget = 12;
  stack.protocol.pull_retry_timeout = 300 * sim::kMicrosecond;
  stack.protocol.pull_stall_budget = 24;
  stack.pinning.pin_retry_backoff = 30 * sim::kMicrosecond;
  stack.pinning.pin_retry_backoff_max = 1 * sim::kMillisecond;
  stack.pinning.pin_retry_budget = 16;
  return stack;
}

/// Engine, fabric and hosts, destroyed in reverse order (hosts first).
struct World {
  sim::Engine eng;
  std::unique_ptr<net::Fabric> fabric;
  net::Topology* topo = nullptr;
  std::vector<std::unique_ptr<core::Host>> hosts;
  std::vector<core::Host::Process*> eps;
  std::int64_t host_ctor_ns = 0;

  void add_host(const core::Host::Config& hc, const core::StackConfig& stack) {
    const std::int64_t t0 = wall_ns();
    hosts.push_back(std::make_unique<core::Host>(eng, *fabric, hc, stack));
    host_ctor_ns += wall_ns() - t0;
  }

  explicit World(const Spec& spec) {
    if (!spec.cluster) {
      // The paper's testbed: two default hosts on the ideal 10G fabric, the
      // full stack (overlapped on-demand pinning + region cache), no I/OAT.
      fabric = std::make_unique<net::Fabric>(eng);
      core::Host::Config hc;
      for (const char* name : {"hostA", "hostB"}) {
        hc.name = name;
        add_host(hc, core::overlapped_cache_config());
      }
      for (auto& h : hosts) eps.push_back(&h->spawn_process());
      return;
    }
    net::Topology::Config tc;
    tc.nodes_per_rack = kNodesPerRack;
    tc.uplinks_per_rack = 2;
    auto t = std::make_unique<net::Topology>(eng, tc);
    topo = t.get();
    fabric = std::move(t);
    core::Host::Config hc;
    hc.cores = kTenants + 1;  // core 0 stays the interrupt core
    hc.memory_frames = 4096;
    const core::StackConfig stack = contended_stack();
    for (std::size_t h = 0; h < kRacks * kNodesPerRack; ++h) {
      hc.name = "host" + std::to_string(h);
      add_host(hc, stack);
    }
    for (auto& h : hosts) {
      h->enable_pin_arbitration();
      h->memory().set_pin_quota(kPagesPerTenant * kTenants);
      for (std::size_t p = 0; p < kTenants; ++p) {
        eps.push_back(&h->spawn_process());
      }
    }
  }
};

/// Lanes of round `r`. Two-host workloads: one lane. Cluster: every tenant
/// pairs with the same tenant index on host (h XOR mask); the masks cycle
/// through all seven partners of a host, alternating intra-rack (1, 2, 3)
/// and cross-rack (4..7) rounds.
std::vector<std::pair<std::size_t, std::size_t>> lanes_for(const Spec& spec,
                                                           std::uint64_t r) {
  if (!spec.cluster) return {{0, 1}};
  static constexpr std::size_t kMasks[] = {1, 4, 2, 5, 3, 6, 7};
  const std::size_t mask = kMasks[r % std::size(kMasks)];
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t e = 0; e < kRacks * kNodesPerRack * kTenants; ++e) {
    const std::size_t partner = ((e / kTenants) ^ mask) * kTenants + e % kTenants;
    if (e < partner) out.emplace_back(e, partner);
  }
  return out;
}

// --- counters ---------------------------------------------------------------------

/// Sums of every layer counter the benchmark reports, read at a round
/// boundary. Deltas between two snapshots are the measured-set counts.
struct Snapshot {
  // core (endpoint Counters)
  std::uint64_t pin_ops = 0, pages_pinned = 0, repins = 0, ep_invalidations = 0,
                pins_denied = 0, arb_requests = 0, region_accesses = 0,
                overlap_misses = 0, eager_sent = 0, rndv_sent = 0,
                frames_dropped_on_miss = 0, pull_rerequests = 0,
                retransmit_timeouts = 0, aborts = 0;
  // mem
  std::uint64_t minor_faults = 0, as_invalidations = 0;
  // core region cache
  std::uint64_t cache_hits = 0, cache_misses = 0;
  // net
  std::uint64_t tx_frames = 0, tx_bytes = 0, ring_drops = 0, fault_drops = 0,
                congestion_drops = 0, uplink_busy_ns = 0, switch_max_depth = 0;
  // cpu: bottom-half (interrupt context) busy time, summed over all cores
  std::uint64_t irq_busy_ns = 0;
  // sim
  std::uint64_t events = 0, sim_ns = 0;
  // per endpoint, for the rndv_churn guards
  std::vector<std::uint64_t> ep_pin_ops, ep_invals;
};

Snapshot snapshot(World& w) {
  Snapshot s;
  for (core::Host::Process* p : w.eps) {
    const core::Counters& c = p->lib.counters();
    s.pin_ops += c.pin_ops;
    s.pages_pinned += c.pages_pinned;
    s.repins += c.repins;
    s.ep_invalidations += c.notifier_invalidations;
    s.pins_denied += c.pins_denied;
    s.arb_requests += c.tenant_arb_requests;
    s.region_accesses += c.region_accesses;
    s.overlap_misses += c.overlap_misses;
    s.eager_sent += c.eager_sent;
    s.rndv_sent += c.rndv_sent;
    s.frames_dropped_on_miss += c.frames_dropped_on_miss;
    s.pull_rerequests += c.pull_rerequests;
    s.retransmit_timeouts += c.retransmit_timeouts;
    s.aborts += c.aborts;
    s.minor_faults += p->as.stats().minor_faults;
    s.as_invalidations += p->as.stats().notifier_invalidations;
    s.cache_hits += p->lib.cache().stats().hits;
    s.cache_misses += p->lib.cache().stats().misses;
    s.ep_pin_ops.push_back(c.pin_ops);
    s.ep_invals.push_back(c.notifier_invalidations);
  }
  for (auto& h : w.hosts) {
    s.tx_frames += h->nic().stats().tx_frames;
    s.tx_bytes += h->nic().stats().tx_bytes;
    s.ring_drops += h->nic().stats().tx_ring_drops + h->nic().stats().rx_ring_drops;
    for (std::size_t c = 0; c < h->core_count(); ++c) {
      s.irq_busy_ns += static_cast<std::uint64_t>(
          h->core(c).stats().busy[static_cast<std::size_t>(
              cpu::Priority::kBottomHalf)]);
    }
  }
  s.fault_drops = w.fabric->fault_dropped();
  s.congestion_drops = w.fabric->congestion_dropped();
  if (w.topo != nullptr) {
    s.uplink_busy_ns = static_cast<std::uint64_t>(w.topo->uplink_busy_time());
    for (std::size_t n = 0; n < w.hosts.size(); ++n) {
      s.switch_max_depth = std::max<std::uint64_t>(
          s.switch_max_depth, w.topo->downlink(static_cast<net::NodeId>(n))
                                  .stats().max_depth);
    }
    for (std::size_t r = 0; r < w.topo->rack_count(); ++r) {
      for (std::size_t u = 0; u < w.topo->topology_config().uplinks_per_rack;
           ++u) {
        s.switch_max_depth = std::max<std::uint64_t>(
            s.switch_max_depth, w.topo->uplink(r, u).stats().max_depth);
      }
    }
  }
  s.events = w.eng.processed();
  s.sim_ns = static_cast<std::uint64_t>(w.eng.now());
  return s;
}

// --- the observability rig (traced mode) -----------------------------------------

/// The sinks of bench::ObsRig, each behind a timing decorator, plus the
/// benchmark's frame-mix recorder. Declared after the World and detached
/// before it dies (the bus aborts if emitters outlive it).
struct Rig {
  explicit Rig(World& w)
      : world(w), bus(w.eng), flight(flight_config()),
        frame_mix(core::overlapped_cache_config().protocol.frame_payload) {
    for (perfbench::TimedSink* s : sinks()) bus.attach(s);
    for (auto& h : w.hosts) h->driver().set_bus(&bus);
    w.fabric->faults().set_bus(&bus);
    w.fabric->set_bus(&bus);
    w.eng.set_dispatch_observer(&dispatch);
  }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;
  ~Rig() { detach(); }

  void detach() {
    world.eng.set_dispatch_observer(nullptr);
    for (auto& h : world.hosts) h->driver().set_bus(nullptr);
    world.fabric->faults().set_bus(nullptr);
    world.fabric->set_bus(nullptr);
  }

  std::vector<perfbench::TimedSink*> sinks() {
    return {&t_checker, &t_latency, &t_critical_path, &t_metrics, &t_flight,
            &t_bench};
  }

  // Flight dumps would write files on every protocol abort; the ring still
  // records every event, only the file writes are capped to zero.
  static obs::FlightRecorder::Config flight_config() {
    obs::FlightRecorder::Config fc;
    fc.max_dumps = 0;
    return fc;
  }

  World& world;
  obs::Bus bus;
  obs::InvariantChecker checker;
  obs::LatencyRecorder latency;
  obs::CriticalPathAnalyzer critical_path;
  obs::MetricsSampler metrics;
  obs::FlightRecorder flight;
  perfbench::FrameMix frame_mix;
  perfbench::TimedSink t_checker{"checker", checker};
  perfbench::TimedSink t_latency{"latency", latency};
  perfbench::TimedSink t_critical_path{"critical_path", critical_path};
  perfbench::TimedSink t_metrics{"metrics", metrics};
  perfbench::TimedSink t_flight{"flight", flight};
  perfbench::TimedSink t_bench{"bench", frame_mix};
  perfbench::DispatchTimer dispatch;
};

// --- output ------------------------------------------------------------------------

/// One flat JSON object, written as the program's last stdout line.
class Out {
 public:
  void num(const std::string& k, std::uint64_t v) {
    add(k, std::to_string(v));
  }
  void num(const std::string& k, std::int64_t v) { add(k, std::to_string(v)); }
  void real(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    add(k, buf);
  }
  void str(const std::string& k, const std::string& v) {
    add(k, "\"" + v + "\"");
  }
  void print() const { std::printf("{%s}\n", body_.c_str()); }

 private:
  void add(const std::string& k, const std::string& v) {
    if (!body_.empty()) body_ += ',';
    body_ += "\"" + k + "\":" + v;
  }
  std::string body_;
};

std::uint64_t percentile(std::vector<std::int64_t> xs, double q) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  // Nearest rank: the smallest sample with at least q of the samples <= it.
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(xs.size()))));
  return static_cast<std::uint64_t>(xs[rank - 1]);
}

long rusage_self(long rusage::*field) {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.*field;
}

// --- the closed loop -----------------------------------------------------------

struct Flight {
  std::uint64_t idx = 0;
  std::size_t lane = 0;
  bool reply = false;  // the b->a half of the lane's exchange
  std::size_t snd = 0, rcv = 0, size = 0;
  std::uint64_t salt = 0;
  mem::VirtAddr rbuf = 0;
  sim::Time posted = 0;
  sim::Time recv_done = 0;
  bool recv_seen = false;
  std::uint32_t span = 0;
  core::RequestPtr send, recv;
};

struct Totals {
  std::uint64_t attempted = 0, completed = 0, failed = 0, payload_bytes = 0;
  std::vector<std::int64_t> latency_ns;  // sim, completed messages
};

class Runner {
 public:
  Runner(const Input& in, const Spec& spec, World& w, Rig* rig,
         SpanLog& spans)
      : in_(in), spec_(spec), w_(w), rig_(rig), spans_(spans),
        cur_(w.eps.size(), 0), sbuf_(w.eps.size(), 0), rbuf_(w.eps.size(), 0),
        max_size_(*std::max_element(in.sizes.begin(), in.sizes.end())),
        got_(max_size_) {
    if (!spec.churn) {
      for (std::size_t e = 0; e < w.eps.size(); ++e) {
        sbuf_[e] = w.eps[e]->heap.malloc(spec.buf_bytes);
        rbuf_[e] = w.eps[e]->heap.malloc(spec.buf_bytes);
      }
    }
  }

  /// Posts the first message of every lane of round `r` and pumps the
  /// engine until every lane has finished its exchange.
  void round(std::uint64_t r) {
    const auto lanes = lanes_for(spec_, r);
    if (expect_.size() < 2 * lanes.size()) {
      expect_.resize(2 * lanes.size(), std::vector<std::byte>(max_size_));
    }
    round_start_ = w_.eng.now();
    cancel_passes_ = 0;
    round_span_ = span_open("round", 0, 0, SpanLog::kNoMsg);
    const std::uint64_t base = next_idx_;
    next_idx_ += 2 * lanes.size();
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      post(base + 2 * l, l, lanes[l].first, lanes[l].second, false);
    }
    while (!pending_.empty()) pump();
    span_close(round_span_);
  }

  /// Monotonic clock at the first posted message of the process.
  std::int64_t first_post_ns = 0;
  long first_post_minflt = 0;
  bool windowed = false;   // inside the wall-clock window (after warm-up)
  bool measuring = false;  // inside the measured set
  Totals window, measured;
  std::vector<std::int64_t> post_ns, malloc_ns, free_ns;  // traced calls
  std::int64_t pump_ns = 0;  // traced wall inside Engine::step loops

 private:
  std::uint32_t span_open(const char* name, std::uint32_t parent,
                          std::uint32_t track, std::uint64_t msg) {
    return spans_.open(name, parent, track, msg, wall_ns(), w_.eng.now());
  }
  void span_close(std::uint32_t id) { spans_.close(id, wall_ns(), w_.eng.now()); }

  /// Runs `f` and, on traced runs inside the measured set, records it as a
  /// child span of the round and its duration in `samples`.
  template <typename F>
  auto timed(const char* name, std::uint64_t msg,
             std::vector<std::int64_t>* samples, F&& f) {
    if (rig_ == nullptr || !measuring) return f();
    const std::uint32_t id = span_open(name, round_span_, 0, msg);
    const std::int64_t t0 = wall_ns();
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      const std::int64_t d = wall_ns() - t0;
      span_close(id);
      if (samples != nullptr) samples->push_back(d);
    } else {
      auto v = f();
      const std::int64_t d = wall_ns() - t0;
      span_close(id);
      if (samples != nullptr) samples->push_back(d);
      return v;
    }
  }

  void post(std::uint64_t idx, std::size_t lane, std::size_t snd,
            std::size_t rcv, bool reply) {
    if (first_post_ns == 0) {
      first_post_ns = wall_ns();
      first_post_minflt = rusage_self(&rusage::ru_minflt);
    }
    Flight f;
    f.idx = idx;
    f.lane = lane;
    f.reply = reply;
    f.snd = snd;
    f.rcv = rcv;
    f.size = in_.sizes[idx % in_.sizes.size()];
    f.salt = in_.salts[idx % in_.salts.size()];
    f.span = span_open("message", 0, static_cast<std::uint32_t>(lane) + 1, idx);
    core::Host::Process& ps = *w_.eps[snd];
    core::Host::Process& pr = *w_.eps[rcv];
    mem::VirtAddr sbuf = sbuf_[snd];
    f.rbuf = rbuf_[rcv];
    if (spec_.churn) {
      // Fresh mmap-threshold buffers on both sides: the munmap of the old
      // one fires the MMU notifier on the region the cache still holds.
      for (std::size_t e : {snd, rcv}) {
        core::Host::Process& p = *w_.eps[e];
        if (cur_[e] != 0) {
          timed("free", idx, &free_ns, [&] { p.heap.free(cur_[e]); });
        }
        cur_[e] = timed("malloc", idx, &malloc_ns,
                        [&] { return p.heap.malloc(f.size); });
      }
      sbuf = cur_[snd];
      f.rbuf = cur_[rcv];
    }
    const std::span<std::byte> expect(
        expect_[2 * lane + (reply ? 1 : 0)].data(), f.size);
    fill_pattern(f.salt, expect);
    timed("as_write", idx, nullptr, [&] { ps.as.write(sbuf, expect); });
    f.posted = w_.eng.now();
    f.recv = timed("irecv", idx, &post_ns, [&] {
      return pr.lib.irecv(idx, ~std::uint64_t{0}, f.rbuf, f.size);
    });
    f.send = timed("isend", idx, &post_ns, [&] {
      return ps.lib.isend(pr.addr(), idx, sbuf, f.size);
    });
    if (windowed) ++window.attempted;
    if (measuring) ++measured.attempted;
    pending_.push_back(std::move(f));
  }

  /// Steps the engine until some pending message finishes on both sides,
  /// then retires the finished ones (posting lane replies).
  void pump() {
    const std::uint32_t id = span_open("engine", round_span_, 0, SpanLog::kNoMsg);
    const std::int64_t t0 = rig_ != nullptr ? wall_ns() : 0;
    bool any = false;
    while (!any) {
      if (!w_.eng.step()) die(3, "%s", "engine drained with messages pending");
      for (Flight& f : pending_) {
        if (!f.recv_seen && f.recv->completed()) {
          f.recv_seen = true;
          f.recv_done = w_.eng.now();
        }
        any = any || (f.recv_seen && f.send->completed());
      }
      if (!any && w_.eng.now() - round_start_ > stall_limit()) unstick();
    }
    if (rig_ != nullptr && measuring) pump_ns += wall_ns() - t0;
    span_close(id);
    std::vector<Flight> done;
    for (std::size_t i = 0; i < pending_.size();) {
      if (pending_[i].recv_seen && pending_[i].send->completed()) {
        done.push_back(std::move(pending_[i]));
        pending_[i] = std::move(pending_.back());
        pending_.pop_back();
      } else {
        ++i;
      }
    }
    // Retire in message order so replies are posted deterministically.
    std::sort(done.begin(), done.end(),
              [](const Flight& a, const Flight& b) { return a.idx < b.idx; });
    for (Flight& f : done) retire(f);
  }

  /// A fault-free run should never get here; the contended cluster can leave
  /// a transfer parked behind pin denials. Cancel what is still pending
  /// (it then completes with ok == false and counts as failed); give up
  /// after three passes.
  void unstick() {
    if (++cancel_passes_ > 3) die(3, "%s", "traffic stalled after cancelling");
    for (Flight& f : pending_) {
      if (!f.recv->completed()) w_.eps[f.rcv]->lib.cancel(*f.recv);
      if (!f.send->completed()) w_.eps[f.snd]->lib.cancel(*f.send);
    }
    round_start_ = w_.eng.now();
  }

  [[nodiscard]] sim::Time stall_limit() const {
    return spec_.cluster ? 25 * sim::kMillisecond : 2 * sim::kSecond;
  }

  void retire(Flight& f) {
    span_close(f.span);
    const core::Status rs = f.recv->status();
    const bool ok = rs.ok;
    if (ok) {
      if (rs.len != f.size) {
        std::fprintf(stderr, "message %" PRIu64 ": received %zu of %zu bytes\n",
                     f.idx, rs.len, f.size);
        die(2, "%s", "payload length mismatch");
      }
      const std::vector<std::byte>& expect =
          expect_[2 * f.lane + (f.reply ? 1 : 0)];
      timed("as_read", f.idx, nullptr, [&] {
        w_.eps[f.rcv]->as.read(f.rbuf, std::span(got_.data(), f.size));
      });
      if (std::memcmp(got_.data(), expect.data(), f.size) != 0) {
        std::size_t first = 0;
        while (got_[first] == expect[first]) ++first;
        std::fprintf(stderr,
                     "message %" PRIu64 " (%zu -> %zu, %zu bytes): first bad "
                     "byte at %zu\n",
                     f.idx, f.snd, f.rcv, f.size, first);
        die(2, "%s", "payload mismatch");
      }
    }
    for (Totals* t : {windowed ? &window : nullptr,
                      measuring ? &measured : nullptr}) {
      if (t == nullptr) continue;
      if (ok) {
        ++t->completed;
        t->payload_bytes += f.size;
      } else {
        ++t->failed;
      }
    }
    if (ok && measuring) measured.latency_ns.push_back(f.recv_done - f.posted);
    if (!f.reply) post(f.idx + 1, f.lane, f.rcv, f.snd, true);
  }

  const Input& in_;
  const Spec& spec_;
  World& w_;
  Rig* rig_;
  SpanLog& spans_;
  std::vector<mem::VirtAddr> cur_, sbuf_, rbuf_;
  std::vector<Flight> pending_;
  // Expected payload per (lane, direction), written at post and compared at
  // retire; every buffer holds the largest message of the stream, so the
  // loop never allocates.
  std::size_t max_size_;
  std::vector<std::vector<std::byte>> expect_;
  std::vector<std::byte> got_;
  std::uint64_t next_idx_ = 0;
  sim::Time round_start_ = 0;
  int cancel_passes_ = 0;
  std::uint32_t round_span_ = 0;
};

void emit_delta(Out& out, const Snapshot& a, const Snapshot& b) {
#define PERFBENCH_DELTA(field) out.num("k." #field, b.field - a.field)
  PERFBENCH_DELTA(pin_ops);
  PERFBENCH_DELTA(pages_pinned);
  PERFBENCH_DELTA(repins);
  PERFBENCH_DELTA(ep_invalidations);
  PERFBENCH_DELTA(pins_denied);
  PERFBENCH_DELTA(arb_requests);
  PERFBENCH_DELTA(region_accesses);
  PERFBENCH_DELTA(overlap_misses);
  PERFBENCH_DELTA(eager_sent);
  PERFBENCH_DELTA(rndv_sent);
  PERFBENCH_DELTA(frames_dropped_on_miss);
  PERFBENCH_DELTA(pull_rerequests);
  PERFBENCH_DELTA(retransmit_timeouts);
  PERFBENCH_DELTA(aborts);
  PERFBENCH_DELTA(minor_faults);
  PERFBENCH_DELTA(as_invalidations);
  PERFBENCH_DELTA(cache_hits);
  PERFBENCH_DELTA(cache_misses);
  PERFBENCH_DELTA(tx_frames);
  PERFBENCH_DELTA(tx_bytes);
  PERFBENCH_DELTA(ring_drops);
  PERFBENCH_DELTA(fault_drops);
  PERFBENCH_DELTA(congestion_drops);
  PERFBENCH_DELTA(uplink_busy_ns);
  PERFBENCH_DELTA(irq_busy_ns);
  PERFBENCH_DELTA(events);
  PERFBENCH_DELTA(sim_ns);
#undef PERFBENCH_DELTA
  out.num("k.switch_max_depth", b.switch_max_depth);
  std::uint64_t min_pin = ~0ull, min_inval = ~0ull;
  for (std::size_t e = 0; e < a.ep_pin_ops.size(); ++e) {
    min_pin = std::min(min_pin, b.ep_pin_ops[e] - a.ep_pin_ops[e]);
    min_inval = std::min(min_inval, b.ep_invals[e] - a.ep_invals[e]);
  }
  out.num("k.min_ep_pin_ops", min_pin);
  out.num("k.min_ep_invalidations", min_inval);
}

void emit_totals(Out& out, const std::string& p, const Totals& t) {
  out.num(p + "attempted", t.attempted);
  out.num(p + "completed", t.completed);
  out.num(p + "failed", t.failed);
  out.num(p + "payload_bytes", t.payload_bytes);
  out.num(p + "lat_n", static_cast<std::uint64_t>(t.latency_ns.size()));
  out.num(p + "lat_p50_ns", percentile(t.latency_ns, 0.50));
  out.num(p + "lat_p99_ns", percentile(t.latency_ns, 0.99));
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const Spec spec = spec_for(opt.workload);
  const Input in = read_input(opt);
  const bool traced = opt.mode == "traced";

  World world(spec);
  std::unique_ptr<Rig> rig;
  if (traced) rig = std::make_unique<Rig>(world);
  SpanLog spans(wall_ns());
  Runner run(in, spec, world, rig.get(), spans);

  Out out;
  out.str("workload", opt.workload);
  out.str("mode", opt.mode);
  out.num("seed", in.seed);
  out.num("host_ctor_ns", world.host_ctor_ns);
  out.num("hosts", static_cast<std::uint64_t>(world.hosts.size()));
  out.num("uplinks", static_cast<std::uint64_t>(
                         world.topo == nullptr
                             ? 0
                             : world.topo->rack_count() *
                                   world.topo->topology_config().uplinks_per_rack));

  if (opt.mode == "setup") {
    // Everything up to the first posted message is set-up; stop there.
    run.first_post_ns = wall_ns();
    out.num("first_post_mono_ns", run.first_post_ns);
    out.print();
    std::fflush(stdout);
    std::_Exit(0);
  }

  std::uint64_t r = 0;
  for (; r < opt.warmup; ++r) run.round(r);

  const Snapshot s0 = snapshot(world);
  std::array<perfbench::Tally, perfbench::kLayers> d0{};
  std::vector<perfbench::Tally> sink0;
  if (rig) {
    d0 = rig->dispatch.tally();
    for (auto* s : rig->sinks()) sink0.push_back(s->tally());
    rig->frame_mix.recording = true;
  }
  const std::uint64_t obs_events0 = rig ? rig->frame_mix.events() : 0;
  spans.recording = traced;
  run.windowed = true;
  run.measuring = true;
  const std::int64_t w0 = wall_ns();
  const auto deadline = w0 + static_cast<std::int64_t>(opt.seconds * 1e9);

  for (std::uint64_t m = 0; m < opt.measure; ++m, ++r) run.round(r);
  const std::int64_t k_wall = wall_ns() - w0;
  const Snapshot s1 = snapshot(world);
  run.measuring = false;
  spans.recording = false;
  if (rig) rig->frame_mix.recording = false;
  std::array<perfbench::Tally, perfbench::kLayers> d1{};
  std::vector<perfbench::Tally> sink1;
  if (rig) {
    d1 = rig->dispatch.tally();
    for (auto* s : rig->sinks()) sink1.push_back(s->tally());
  }
  const std::uint64_t obs_events1 = rig ? rig->frame_mix.events() : 0;

  while (wall_ns() < deadline) run.round(r++);
  const std::int64_t window_wall = wall_ns() - w0;

  try {
    world.eng.rethrow_task_failures();
  } catch (const std::exception& e) {
    die(5, "detached task failed: %s", e.what());
  }
  std::string why;
  if (!world.eng.self_check(&why)) die(5, "engine self-check: %s", why.c_str());

  out.num("first_post_mono_ns", run.first_post_ns);
  out.num("setup_minflt", static_cast<std::int64_t>(run.first_post_minflt));
  out.num("peak_rss_kib", static_cast<std::int64_t>(rusage_self(&rusage::ru_maxrss)));
  out.num("rounds", r);
  out.num("window.wall_ns", window_wall);
  emit_totals(out, "window.", run.window);
  out.num("k.wall_ns", k_wall);
  emit_totals(out, "k.", run.measured);
  emit_delta(out, s0, s1);

  if (rig) {
    rig->bus.finalize();
    const std::uint64_t violations = rig->checker.violation_count();
    out.num("t.invariant_violations", violations);
    if (violations != 0) {
      std::fputs(rig->checker.report().c_str(), stderr);
      out.print();
      die(4, "%s", "invariant checker reported violations");
    }
    for (std::size_t l = 0; l < perfbench::kLayers; ++l) {
      const std::string name = perfbench::kLayerNames[l];
      out.num("t.dispatch." + name + "_n", d1[l].n - d0[l].n);
      out.num("t.dispatch." + name + "_ns", d1[l].ns - d0[l].ns);
    }
    const auto sinks = rig->sinks();
    for (std::size_t i = 0; i < sinks.size(); ++i) {
      out.num(std::string("t.sink.") + sinks[i]->name() + "_ns",
              sink1[i].ns - sink0[i].ns);
    }
    out.num("t.obs_events", obs_events1 - obs_events0);
    out.num("t.pump_ns", run.pump_ns);
    out.num("t.harness_self_ns", spans.self_ns("round"));
    out.num("t.post_ns_p50", percentile(run.post_ns, 0.50));
    out.num("t.malloc_ns_p50", percentile(run.malloc_ns, 0.50));
    out.num("t.free_ns_p50", percentile(run.free_ns, 0.50));
    out.num("t.free_ns_p99", percentile(run.free_ns, 0.99));
    out.num("t.free_n", static_cast<std::uint64_t>(run.free_ns.size()));
    perfbench::CodecReplay codec;
    if (!perfbench::replay_codec(rig->frame_mix.frames, codec)) {
      die(5, "%s", "codec replay: a frame did not round-trip");
    }
    out.num("t.codec.frames", codec.frames);
    out.num("t.codec.sampled", codec.sampled);
    out.num("t.codec.wire_bytes", codec.wire_bytes);
    out.real("t.codec.ns_per_pass", codec.ns_per_pass);
    out.real("t.codec.est_total_ns", codec.est_total_ns());
    out.num("t.spans", static_cast<std::uint64_t>(spans.size()));
    if (!opt.spans.empty() && !spans.write_chrome(opt.spans, 50000)) {
      die(1, "cannot write spans to %s", opt.spans.c_str());
    }
    rig->detach();
  }
  out.print();
  return 0;
}
