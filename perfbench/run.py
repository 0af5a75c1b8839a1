#!/usr/bin/env python3
"""Host-time benchmark of OxMLC: builds the benchmark binary, runs one
workload, checks its outputs and prints the result.

Run from the root of a checkout:

  python3 perfbench/run.py --workload replay_1m --seed 0 --seconds 36 --trace 0
  python3 perfbench/run.py --smoke                 # tiny inputs, all workloads
  python3 perfbench/run.py --record-reference [--workload W]  # rewrite reference.json

Workloads: replay_1m, ecc_frontier4, bank_program (see README.md).
--trace 0 prints the end-to-end metrics (wall_s.t1, wall_s.tN, setup_s,
peak_rss_mb); --trace 1 makes a separate traced pass and prints the per-layer
metrics. The last stdout line is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
where attempted/failed count the correctness checks (failed_fraction is their
ratio). Seed 0 selects the workloads' default seeds; for the seeds listed in
reference.json the simulated figures are also compared with the recorded ones.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD_DIR = os.path.join(REPO, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "oxmlc_perfbench")
RESULTS_DIR = os.path.join(BUILD_DIR, "results")
REFERENCE = os.path.join(HERE, "reference.json")
BENCHMARK_JSON = os.path.join(REPO, "BENCHMARK.json")

WORKLOADS = ("replay_1m", "ecc_frontier4", "bank_program")
MAX_THREADS = 4      # N of wall_s.tN: this repo's reference host has 4 cores
RUN_LIMIT_S = 170.0  # a run must end within 180 s once the binary is built
REFERENCE_SEEDS = range(0, 11)


def worker_threads():
    return max(1, min(MAX_THREADS, len(os.sched_getaffinity(0))))


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the Release benchmark binary."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "oxmlc_perfbench",
                  "-j", str(worker_threads())])
    for step in steps:
        proc = subprocess.run(step, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            fail("build failed: " + " ".join(step))


def run_binary(workload, seed, seconds, trace, tiny, deadline):
    os.makedirs(RESULTS_DIR, exist_ok=True)
    spans = os.path.join(RESULTS_DIR, "spans-%s-seed%d.json" % (workload, seed))
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--threads", str(worker_threads()), "--trace", str(trace), "--spans-out", spans]
    if tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("%s did not finish in time" % workload)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        fail("%s exited with code %d" % (workload, proc.returncode))
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def max_drift(simulated, reference):
    """Largest relative difference between two sets of simulated figures."""
    worst = 0.0
    for key in set(simulated) | set(reference):
        got, want = simulated.get(key), reference.get(key)
        if isinstance(got, (int, float)) and isinstance(want, (int, float)):
            if got == want:
                continue
            drift = abs(got - want) / abs(want) if want != 0 else float("inf")
        else:
            drift = 0.0 if got == want and got is not None else float("inf")
        worst = max(worst, drift)
    return worst


def load_reference():
    with open(REFERENCE) as f:
        return json.load(f)


def measure(workload, seed, seconds, trace, tiny=False):
    """Runs one workload and returns the result object printed last."""
    deadline = time.monotonic() + RUN_LIMIT_S
    raw = run_binary(workload, seed, seconds, trace, tiny, deadline)
    checks = [(c["name"], c["ok"]) for c in raw["checks"]]

    reference = load_reference()
    recorded = reference["workloads"].get(workload, {}).get(str(seed))
    if tiny or recorded is None:
        print("simulated drift: not compared (%s)"
              % ("tiny inputs" if tiny else "no reference for seed %d" % seed))
    else:
        drift = max_drift(raw["simulated"], recorded)
        tolerance = reference["tolerance_rel"]
        print("simulated drift: max relative %.3g vs reference (tolerance %g)"
              % (drift, tolerance))
        checks.append(("reference.simulated_drift_within_tolerance", drift <= tolerance))

    provenance = raw["provenance"]
    print("provenance: %s simd=%s nproc=%d N=%d"
          % (json.dumps(provenance), raw["simd_backend"], raw["nproc"], raw["threads_n"]))
    if provenance.get("build_type") != "Release":
        print("WARNING: build type is %r, not Release; timings are not comparable"
              % provenance.get("build_type"))

    t1 = statistics.median(raw["wall_t1_s"])
    tn = statistics.median(raw["wall_tn_s"])
    print("util.thread_speedup %.3f (t1 %.3f s / tN %.3f s, N=%d): tN no slower than t1: %s"
          " (diagnostic, not gated)"
          % (t1 / tn, t1, tn, raw["threads_n"], "yes" if tn <= t1 else "NO"))

    failed = sum(1 for _, ok in checks if not ok)
    for name, ok in checks:
        if not ok:
            print("FAILED check: " + name)
    print("failed_fraction %d/%d = %g (ratio)" % (failed, len(checks), failed / len(checks)))

    if trace:
        metrics = raw["layers"]
    else:
        metrics = {
            "wall_s.t1": {"value": t1, "unit": "s"},
            "wall_s.tN": {"value": tn, "unit": "s"},
            "setup_s": {"value": statistics.median(raw["setup_s"]), "unit": "s"},
            "peak_rss_mb": {"value": raw["peak_rss_mb"], "unit": "MB"},
        }
    for name, metric in metrics.items():
        print("  %-34s %.6g %s" % (name, metric["value"], metric["unit"]))

    record = dict(raw, checks=[{"name": n, "ok": ok} for n, ok in checks], metrics=metrics)
    path = os.path.join(RESULTS_DIR, "%s-seed%d-trace%d.json" % (workload, seed, trace))
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    return {"correct": failed == 0, "attempted": len(checks), "failed": failed,
            "metrics": metrics}


def smoke():
    """Tiny inputs: every metric is printed with its unit, checks pass."""
    with open(BENCHMARK_JSON) as f:
        spec = json.load(f)
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = measure(workload, 0, 0, trace, tiny=True)
            if not result["correct"]:
                problems.append("%s trace %d: a check failed" % (workload, trace))
            for metric in wanted:
                got = result["metrics"].get(metric["name"])
                if got is None or got.get("unit") != metric["unit"]:
                    problems.append("%s trace %d: %s missing or not in %s"
                                    % (workload, trace, metric["name"], metric["unit"]))
    for problem in problems:
        print("smoke: " + problem)
    print("smoke: " + ("FAILED" if problems else "OK"))
    return 1 if problems else 0


def record_reference(workloads, seeds):
    reference = load_reference()
    for workload in workloads:
        reference["workloads"][workload] = {}
        for seed in seeds:
            deadline = time.monotonic() + RUN_LIMIT_S
            raw = run_binary(workload, seed, 0, 0, False, deadline)
            if not all(c["ok"] for c in raw["checks"]):
                fail("%s seed %d fails its checks; not recorded" % (workload, seed))
            reference["workloads"].setdefault(workload, {})[str(seed)] = raw["simulated"]
    with open(REFERENCE, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    build()
    if args.smoke:
        return smoke()
    if args.record_reference:
        return record_reference([args.workload] if args.workload else WORKLOADS,
                                REFERENCE_SEEDS)
    if args.workload is None:
        parser.error("--workload is required")
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
