#!/usr/bin/env python3
"""Layer-separating benchmark for the pinsim simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench_driver (this directory's
CMake project, which compiles ../src) into .bench_build/, generates the
workload's message stream from the seed, runs the driver in fresh processes
and prints the metrics. The last stdout line is one JSON object:

    {"correct": true, "attempted": A, "failed": F, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (untraced run plus
set-up probes); with --trace 1 they are the per-layer ones (an untraced and
a traced run of the same stream). Any wrong payload, failed layer guard,
invariant violation or engine check exits non-zero without a result line.
README.md in this directory describes the workloads and every metric.
"""
import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
DRIVER = os.path.join(BUILD, "perfbench_driver")

STREAM_LEN = 65536  # message entries per input file; the driver cycles them
SETUP_PROBES = 5    # extra set-up-only processes per end-to-end run
RUN_BUDGET_S = 170  # wall budget for the measuring processes of one run

KIB = 1024


def log_uniform(rng, lo, hi):
    return int(math.floor(math.exp(rng.uniform(math.log(lo), math.log(hi + 1)))))


def eager_small_size(rng):
    return log_uniform(rng, 8, 1 * KIB)


def rndv_churn_size(rng):
    return log_uniform(rng, 128 * KIB, 1024 * KIB)


def cluster_contended_size(rng):
    if rng.random() < 0.25:
        return 64 * KIB  # the tenant's whole reused rendezvous buffer
    return log_uniform(rng, 8, 2 * KIB)


# warmup/measure are rounds: one ping-pong exchange per lane (two messages);
# cluster_contended has 32 lanes per round. `measure` rounds form the
# measured set whose counts and simulated times repeat bit-exactly per seed.
WORKLOADS = {
    "eager_small": dict(size=eager_small_size, warmup=2000, measure=50000),
    "rndv_churn": dict(size=rndv_churn_size, warmup=20, measure=1200),
    "cluster_contended": dict(size=cluster_contended_size, warmup=3, measure=512),
}

# Guards: each workload must keep exercising the layers it exists for.
GUARDS = {
    "eager_small": [
        ("no rendezvous sends", lambda k: k["k.rndv_sent"] == 0),
        ("no pages pinned", lambda k: k["k.pages_pinned"] == 0),
    ],
    "rndv_churn": [
        ("every side sees >= 1 notifier invalidation per message",
         lambda k: k["k.min_ep_invalidations"] >= k["k.attempted"]),
        ("every side starts >= 1 pin op per message",
         lambda k: k["k.min_ep_pin_ops"] >= k["k.attempted"]),
    ],
    "cluster_contended": [
        ("pin arbiter requests > 0", lambda k: k["k.arb_requests"] > 0),
        ("some switch port reached depth > 1",
         lambda k: k["k.switch_max_depth"] > 1),
        ("zero fault drops", lambda k: k["k.fault_drops"] == 0),
    ],
}


# Names the driver reports: dispatch layers (by TaskTag component) and the
# timed sinks of the traced run's observability rig.
LAYERS = ["cpu", "net", "core", "pin", "sim", "other"]
SINKS = ["checker", "latency", "critical_path", "metrics", "flight", "bench"]


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("simulator sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench_driver", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")


def make_input(workload, seed):
    """Writes the seeded message stream; returns (path, sizes)."""
    rng = random.Random(seed)
    draw = WORKLOADS[workload]["size"]
    sizes = [draw(rng) for _ in range(STREAM_LEN)]
    salts = [rng.getrandbits(64) for _ in range(STREAM_LEN)]
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"input-{workload}-{seed}.txt")
    with open(path, "w") as f:
        f.write(f"perfbench-input 1\nworkload {workload}\nseed {seed}\n")
        f.write(f"messages {STREAM_LEN}\n")
        f.writelines(f"{s} {t}\n" for s, t in zip(sizes, salts))
    return path, sizes


def run_driver(workload, input_path, mode, seconds, deadline, warmup=None,
               measure=None, spans=None):
    """Runs the driver once in a fresh process and returns its JSON result
    plus the monotonic clock (ns) just before it was spawned."""
    wl = WORKLOADS[workload]
    cmd = [DRIVER, "--workload", workload, "--input", input_path, "--mode", mode,
           "--seconds", repr(float(seconds)),
           "--warmup", str(wl["warmup"] if warmup is None else warmup),
           "--measure", str(wl["measure"] if measure is None else measure)]
    if spans:
        cmd += ["--spans", spans]
    timeout = max(1.0, deadline - time.monotonic())
    spawned = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} run exceeded its wall budget")
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} run failed with exit code "
                         f"{proc.returncode} (2 payload, 3 stall, 4 invariant, "
                         f"5 engine)")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} {mode} run printed no result")
    return json.loads(lines[-1]), spawned


def check_guards(workload, r):
    failed = [name for name, ok in GUARDS[workload] if not ok(r)]
    if failed:
        raise BenchError(f"{workload} layer guard failed: " + "; ".join(failed))


def per_msg(r, key):
    return r[key] / r["k.attempted"]


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(workload, seed, seconds, deadline):
    path, _ = make_input(workload, seed)
    r, spawned = run_driver(workload, path, "untraced", seconds, deadline)
    check_guards(workload, r)
    if r["k.lat_n"] < 1000:
        raise BenchError(f"{workload}: {r['k.lat_n']} latency samples leave fewer "
                         "than 10 beyond p99")
    setups = [(r["first_post_mono_ns"] - spawned) / 1e9]
    for _ in range(SETUP_PROBES):
        p, t = run_driver(workload, path, "setup", 0, deadline)
        setups.append((p["first_post_mono_ns"] - t) / 1e9)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_msgs_per_s": (r["window.completed"] / (r["window.wall_ns"] / 1e9), "1/s"),
        "peak_rss_mib": (r["peak_rss_kib"] / 1024.0, "MiB"),
        "completed_frac": (r["k.completed"] / r["k.attempted"], "frac"),
        "sim_goodput_mib_s": (r["k.payload_bytes"] / 2**20 / (r["k.sim_ns"] / 1e9), "MiB/s"),
        "sim_latency_p50_us": (r["k.lat_p50_ns"] / 1e3, "us"),
        "sim_latency_p99_us": (r["k.lat_p99_ns"] / 1e3, "us"),
    }
    samples = {
        "setup_s": f"median of {len(setups)} fresh processes",
        "wall_msgs_per_s": f"{r['window.completed']} msgs in {r['window.wall_ns'] / 1e9:.2f} s",
        "completed_frac": f"{r['k.completed']}/{r['k.attempted']} measured msgs",
        "sim_goodput_mib_s": f"{r['k.payload_bytes']} B in {r['k.sim_ns'] / 1e9:.4f} sim s",
        "sim_latency_p50_us": f"n={r['k.lat_n']}",
        "sim_latency_p99_us": (f"n={r['k.lat_n']}, "
                               f"{r['k.lat_n'] - math.ceil(0.99 * r['k.lat_n'])} beyond p99"),
    }
    return metrics, samples, r["window.attempted"], r["window.failed"]


def per_layer(workload, seed, seconds, deadline):
    path, _ = make_input(workload, seed)
    u, _ = run_driver(workload, path, "untraced", seconds / 2, deadline)
    spans = os.path.join(OUT, f"spans-{workload}-{seed}.trace.json")
    t, _ = run_driver(workload, path, "traced", seconds / 2, deadline, spans=spans)
    check_guards(workload, u)
    # The traced run only observes: every measured-set count and simulated
    # time must match the untraced run bit for bit.
    diff = [k for k in u if k.startswith("k.") and k != "k.wall_ns" and u[k] != t[k]]
    if diff:
        raise BenchError("traced run diverged from the untraced run on " + ", ".join(diff))
    if t["t.invariant_violations"] != 0:
        raise BenchError("invariant violations in the traced run")

    n = u["k.attempted"]
    events = u["k.events"]
    dispatch_ns = sum(t[f"t.dispatch.{l}_ns"] for l in LAYERS)
    queue_ns = t["t.pump_ns"] - dispatch_ns
    m = {}
    m["sim.events_per_msg"] = (events / n, "count")
    m["sim.queue_ns_per_event"] = (queue_ns / events, "ns")
    for l in LAYERS:
        m[f"dispatch.{l}_ms"] = (t[f"t.dispatch.{l}_ns"] / 1e6, "ms")
        m[f"dispatch.{l}_n"] = (t[f"t.dispatch.{l}_n"], "count")
    m["trace.wall_ms"] = (t["k.wall_ns"] / 1e6, "ms")
    m["trace.engine_queue_ms"] = (queue_ns / 1e6, "ms")
    m["trace.remainder_ms"] = ((t["k.wall_ns"] - t["t.pump_ns"]) / 1e6, "ms")
    m["trace.harness_self_ms"] = (t["t.harness_self_ns"] / 1e6, "ms")
    m["core.wire.frames_per_msg"] = (per_msg(u, "k.tx_frames"), "count")
    m["core.wire.bytes_per_payload_byte"] = (
        ratio(u["k.tx_bytes"], u["k.payload_bytes"]), "ratio")
    m["core.wire.codec_ns_per_byte"] = (
        ratio(t["t.codec.ns_per_pass"], t["t.codec.wire_bytes"]), "ns/B")
    m["core.wire.codec_share_est"] = (t["t.codec.est_total_ns"] / u["k.wall_ns"], "frac")
    m["core.proto.post_ns_p50"] = (t["t.post_ns_p50"], "ns")
    m["core.proto.frames_dropped_on_miss_per_msg"] = (
        per_msg(u, "k.frames_dropped_on_miss"), "count")
    m["core.proto.pull_rerequests_per_msg"] = (per_msg(u, "k.pull_rerequests"), "count")
    m["core.proto.retransmit_timeouts_per_msg"] = (
        per_msg(u, "k.retransmit_timeouts"), "count")
    m["core.proto.aborts"] = (u["k.aborts"], "count")
    m["core.pin.pin_ops_per_msg"] = (per_msg(u, "k.pin_ops"), "count")
    m["core.pin.pages_pinned_per_msg"] = (per_msg(u, "k.pages_pinned"), "count")
    m["core.pin.repins_per_msg"] = (per_msg(u, "k.repins"), "count")
    m["core.pin.overlap_miss_rate"] = (
        ratio(u["k.overlap_misses"], u["k.region_accesses"]), "frac")
    m["core.pin.pins_denied_per_msg"] = (per_msg(u, "k.pins_denied"), "count")
    m["core.pin.arb_requests_per_msg"] = (per_msg(u, "k.arb_requests"), "count")
    m["core.pin.region_cache_hit_ratio"] = (
        ratio(u["k.cache_hits"], u["k.cache_hits"] + u["k.cache_misses"]), "frac")
    m["mem.host_ctor_ms"] = (t["host_ctor_ns"] / 1e6, "ms")
    m["mem.setup_minflt"] = (t["setup_minflt"], "count")
    m["mem.free_us_p50"] = (t["t.free_ns_p50"] / 1e3, "us")
    m["mem.free_us_p99"] = (t["t.free_ns_p99"] / 1e3, "us")
    m["mem.malloc_us_p50"] = (t["t.malloc_ns_p50"] / 1e3, "us")
    m["mem.notifier_invalidations_per_msg"] = (per_msg(u, "k.as_invalidations"), "count")
    m["mem.minor_faults_per_msg"] = (per_msg(u, "k.minor_faults"), "count")
    m["net.congestion_drops_per_msg"] = (per_msg(u, "k.congestion_drops"), "count")
    m["net.switch_max_depth"] = (u["k.switch_max_depth"], "frames")
    m["net.uplink_busy_frac"] = (
        ratio(u["k.uplink_busy_ns"], u["k.sim_ns"] * u["uplinks"]), "frac")
    m["net.nic_ring_drops"] = (u["k.ring_drops"], "count")
    m["cpu.irq_core_busy_frac"] = (
        ratio(u["k.irq_busy_ns"], u["k.sim_ns"] * u["hosts"]), "frac")
    for s in SINKS:
        m[f"obs.sink_ms.{s}"] = (t[f"t.sink.{s}_ns"] / 1e6, "ms")
    m["obs.events_per_msg"] = (t["t.obs_events"] / n, "count")
    m["obs.trace_overhead_frac"] = (t["k.wall_ns"] / u["k.wall_ns"] - 1.0, "frac")
    samples = {
        "mem.free_us_p99": f"n={t['t.free_n']}",
        "core.wire.codec_ns_per_byte": (f"{t['t.codec.sampled']} of "
                                        f"{t['t.codec.frames']} frames replayed"),
        "trace.wall_ms": f"{t['t.spans']} spans in {spans}",
    }
    return m, samples, u["k.attempted"], u["k.failed"]


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    try:
        build()
        deadline = time.monotonic() + RUN_BUDGET_S
        measure = per_layer if args.trace else end_to_end
        metrics, samples, attempted, failed = measure(
            args.workload, args.seed, args.seconds, deadline)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds:g}")
    for name, (value, unit) in metrics.items():
        note = samples.get(name, "")
        print(f"  {name:<44} {value:>16.6f} {unit:<6} {note}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
