#!/usr/bin/env python3
"""Self-test of the benchmark's determinism, at a tiny size.

    python3 perfbench/selftest.py

For every workload: two untraced runs with one seed must agree bit for bit
on every count and simulated-time result; the traced run of that seed must
agree with them too (the tracing only observes) and report no invariant
violations; and a second seed must change the message-size sequence and the
measured payload. Exits non-zero on the first disagreement.
"""
import sys

import run

TINY = {  # (warmup rounds, measured rounds)
    "eager_small": (10, 200),
    "rndv_churn": (2, 10),
    "cluster_contended": (1, 3),
}
# The run mode and the wall-clock or host-dependent outputs; everything else
# must repeat.
NOT_REPEATABLE = {"mode", "first_post_mono_ns", "host_ctor_ns", "setup_minflt",
                  "peak_rss_kib", "k.wall_ns", "window.wall_ns"}


def deterministic(result):
    return {k: v for k, v in result.items()
            if k not in NOT_REPEATABLE and not k.startswith("t.")}


def check(cond, what):
    if not cond:
        raise run.BenchError(what)


def selftest(workload, seed_a=7, seed_b=8):
    warmup, measure = TINY[workload]
    deadline = run.time.monotonic() + run.RUN_BUDGET_S

    def once(path, mode):
        result, _ = run.run_driver(workload, path, mode, 0, deadline,
                                   warmup=warmup, measure=measure)
        return result

    path_a, sizes_a = run.make_input(workload, seed_a)
    first = once(path_a, "untraced")
    second = once(path_a, "untraced")
    traced = once(path_a, "traced")
    check(deterministic(first) == deterministic(second),
          f"{workload}: two runs of seed {seed_a} differ")
    check(deterministic(first) == deterministic(traced),
          f"{workload}: the traced run of seed {seed_a} differs from the untraced one")
    check(traced["t.invariant_violations"] == 0,
          f"{workload}: invariant violations in the traced run")
    check(first["seed"] == seed_a, f"{workload}: the output does not record the seed")

    path_b, sizes_b = run.make_input(workload, seed_b)
    check(sizes_a != sizes_b, f"{workload}: seeds {seed_a} and {seed_b} give one size sequence")
    other = once(path_b, "untraced")
    check(other["k.payload_bytes"] != first["k.payload_bytes"],
          f"{workload}: seed {seed_b} measured the same payload as seed {seed_a}")
    print(f"{workload}: ok ({len(deterministic(first))} outputs repeat, "
          f"{first['k.attempted']} measured msgs)")


def main():
    try:
        run.build()
        for workload in run.WORKLOADS:
            selftest(workload)
    except run.BenchError as e:
        print(f"selftest: {e}", file=sys.stderr)
        return 1
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
