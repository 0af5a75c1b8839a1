#!/usr/bin/env python3
"""CI perf-regression gate for BENCH_*.json artifacts.

Compares the machine-comparable metrics of a fresh bench run against the
committed baselines in bench_results/baselines/ and exits non-zero when any
gated metric regressed by more than the threshold (25% by default).

Which metrics are gated
-----------------------
Absolute cells/s numbers are machine-dependent — a laptop baseline would trip
on every CI runner. The gate therefore checks *ratio* metrics, which carry
their own same-machine control group:

* BENCH_batch.json: ``speedup`` per lane-count sweep — the CellBatch engine
  vs a serial loop of the reference stepper (oxram/reference_pulse.hpp)
  measured in the same process.
* BENCH_array_scale.json: ``cells_per_s`` normalized is not possible (no
  in-run control), so only its invariants are gated: every cell must have
  terminated.

A regression in such a ratio means the optimized path lost ground against
its in-process reference — that is a code regression, not machine noise.

Provenance is checked first: if the baseline and the current run disagree on
compiler or build type, the comparison is skipped with a warning instead of
producing an apples-to-oranges failure. (Flags and git SHA are reported but
not enforced: the SHA *should* differ, and flags legitimately drift.)

Overriding
----------
A genuine trade-off (e.g. accepting slower batch throughput for accuracy)
lands by either updating the baseline JSON in the same PR or applying the
``perf-regression-ok`` label, which skips this gate in CI
(.github/workflows/ci.yml).

Self test
---------
``--self-test`` verifies the gate actually trips: it loads the baselines,
synthesizes a current run with a 30% regression injected into every gated
ratio, and asserts the comparison fails (and that an un-regressed run
passes). It also feeds the loader a malformed baseline and a schema-broken
bench and asserts both produce an actionable error instead of a traceback.
Run once before trusting a freshly committed baseline.

Exit status: 0 pass, 1 gated regression, 2 unusable input (unreadable or
malformed JSON, unexpected bench schema) — a 2 means fix the artifact, not
the code under test.

Usage:
  scripts/compare_bench.py --results bench_results --baselines bench_results/baselines
  scripts/compare_bench.py --self-test
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
from pathlib import Path

DEFAULT_THRESHOLD = 0.25

# Gated ratio metrics per bench id: (json_file, description).
GATED_BENCHES = {
    "batch_throughput": "BENCH_batch.json",
    "array_scale": "BENCH_array_scale.json",
    "trace_replay": "BENCH_trace.json",
    "hier_mna": "BENCH_hier_mna.json",
    "ecc_frontier": "BENCH_ecc.json",
}


class BenchDataError(Exception):
    """A bench artifact is unreadable or malformed — actionable, not a bug."""


def load(path: Path, role: str = "bench file"):
    """Loads a BENCH_*.json, turning I/O and parse failures into an
    actionable BenchDataError instead of a traceback."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise BenchDataError(
            f"{role} {path} is not valid JSON (line {e.lineno}: {e.msg}); "
            f"re-generate it with the bench binary (see bench/README or "
            f"the bench-smoke CI job) — or, for a baseline, delete it to "
            f"skip that gate") from e
    except OSError as e:
        raise BenchDataError(
            f"cannot read {role} {path}: {e.strerror or e}; check the path "
            f"passed via --results/--baselines") from e


def provenance_mismatch(baseline: dict, current: dict) -> str | None:
    """Returns a reason string when the two runs are not comparable.

    Compiler is compared by family only ("GNU 12.2.0" vs "GNU 13.1.0" is
    fine — CI runners track distro GCC while baselines age); build type is
    exact, since Debug-vs-Release ratios are meaningless.
    """
    bp = baseline.get("provenance", {})
    cp = current.get("provenance", {})
    b_family = bp.get("compiler", "").split(" ")[0]
    c_family = cp.get("compiler", "").split(" ")[0]
    if b_family and c_family and b_family != c_family:
        return (f"compiler family: baseline '{bp['compiler']}' vs "
                f"current '{cp['compiler']}'")
    if bp.get("build_type") and cp.get("build_type") and \
            bp["build_type"] != cp["build_type"]:
        return (f"build_type: baseline '{bp['build_type']}' vs "
                f"current '{cp['build_type']}'")
    return None


def gated_metrics(bench: dict) -> dict[str, float]:
    """Extracts {metric_name: value} for the ratio metrics of one bench."""
    metrics: dict[str, float] = {}
    if bench.get("bench") == "batch_throughput":
        for sweep in bench.get("sweeps", []):
            lanes = sweep["lanes"]
            metrics[f"speedup@{lanes}"] = float(sweep["speedup"])
    elif bench.get("bench") == "array_scale":
        # Invariant, not a ratio: a partial image is always a failure.
        cells = float(bench.get("cells", 0))
        terminated = float(bench.get("terminated", 0))
        metrics["terminated_fraction"] = terminated / cells if cells else 0.0
    elif bench.get("bench") == "trace_replay":
        # SIMULATED figures of merit: pure functions of (trace, geometry),
        # identical on any runner, so a drop is a scheduler/model regression
        # and never machine noise. Wall-clock requests_per_s is deliberately
        # NOT gated. All three are higher-is-better ratios, matching the
        # gate's floor logic.
        metrics["sustained_mb_s"] = float(bench["sustained_mb_s"])
        metrics["row_hit_rate"] = float(bench["row_hit_rate"])
        metrics["retired_fraction"] = float(bench["retired_fraction"])
    elif bench.get("bench") == "hier_mna":
        # mono/hier ratios are measured back-to-back (best-of-N) on the same
        # machine in one run, so they are runner-speed-immune (like
        # BENCH_trace). The solver is serial, so there is no thread ratio.
        # The sub-32 points are not gated — those transients finish in tens
        # of milliseconds, where the ratio is timing noise even best-of-N.
        # 32x32 is the acceptance-criterion size (>=10x) and its
        # multi-second monolithic denominator keeps the ratio stable.
        for sweep in bench.get("sweeps", []):
            if "speedup" in sweep and sweep.get("size", 0) >= 32:
                metrics[f"speedup@{sweep['size']}"] = float(sweep["speedup"])
    elif bench.get("bench") == "ecc_frontier":
        # SIMULATED quantities — deterministic functions of (seed, config),
        # bit-identical on any runner (like BENCH_trace). The per-code
        # corrected-word fractions pin the decode behavior of the BCH/SECDED
        # ladder against the physics channel; uber_monotone is the PR's
        # acceptance invariant (1.0 = holds). Wall time is NOT gated.
        for key, value in bench.items():
            if key.startswith("corrected_word_fraction@"):
                metrics[key] = float(value)
        metrics["uber_monotone"] = float(bench["uber_monotone"])
    return metrics


def compare_bench(name: str, baseline: dict, current: dict,
                  threshold: float) -> tuple[list[str], list[str]]:
    """Returns (failures, report_rows) for one bench pair."""
    failures: list[str] = []
    rows: list[str] = []

    mismatch = provenance_mismatch(baseline, current)
    if mismatch:
        rows.append(f"| {name} | — | — | — | skipped: provenance mismatch ({mismatch}) |")
        print(f"[compare_bench] SKIP {name}: provenance mismatch ({mismatch})")
        return failures, rows

    try:
        base_metrics = gated_metrics(baseline)
        cur_metrics = gated_metrics(current)
    except (KeyError, TypeError, ValueError) as e:
        raise BenchDataError(
            f"bench '{name}' has an unexpected schema ({type(e).__name__}: {e}); "
            f"the gated fields are documented in scripts/compare_bench.py "
            f"(gated_metrics) — re-generate the artifact with the current bench "
            f"binary") from e
    for metric, base_value in sorted(base_metrics.items()):
        if metric not in cur_metrics:
            failures.append(f"{name}:{metric} missing from current run")
            rows.append(f"| {name} | {metric} | {base_value:.3g} | missing | FAIL |")
            continue
        cur_value = cur_metrics[metric]
        floor = base_value * (1.0 - threshold)
        ok = cur_value >= floor
        change = (cur_value - base_value) / base_value if base_value else 0.0
        status = "ok" if ok else f"FAIL (>{threshold:.0%} regression)"
        rows.append(
            f"| {name} | {metric} | {base_value:.3g} | {cur_value:.3g} "
            f"({change:+.1%}) | {status} |")
        if not ok:
            failures.append(
                f"{name}:{metric} regressed {-change:.1%} "
                f"(baseline {base_value:.3g}, current {cur_value:.3g}, "
                f"floor {floor:.3g})")
    return failures, rows


def write_summary(rows: list[str], failures: list[str], threshold: float) -> None:
    lines = [
        "## Bench perf gate",
        "",
        f"Threshold: fail on >{threshold:.0%} regression of any gated ratio "
        "metric. Override: `perf-regression-ok` label or update "
        "`bench_results/baselines/`.",
        "",
        "| bench | metric | baseline | current | status |",
        "|---|---|---|---|---|",
        *rows,
        "",
        ("**FAILED**: " + "; ".join(failures)) if failures else "**PASSED**",
    ]
    text = "\n".join(lines)
    print(text)
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as fh:
            fh.write(text + "\n")


def run_compare(results_dir: Path, baselines_dir: Path, threshold: float) -> int:
    failures: list[str] = []
    rows: list[str] = []
    compared = 0
    for bench_id, filename in GATED_BENCHES.items():
        baseline_path = baselines_dir / filename
        current_path = results_dir / filename
        if not baseline_path.exists():
            print(f"[compare_bench] no baseline for {bench_id} "
                  f"({baseline_path}); skipping")
            continue
        if not current_path.exists():
            failures.append(f"{bench_id}: baseline exists but current run "
                            f"produced no {filename}")
            rows.append(f"| {bench_id} | — | — | missing | FAIL |")
            continue
        f, r = compare_bench(bench_id, load(baseline_path, "baseline"),
                             load(current_path, "current run"), threshold)
        failures.extend(f)
        rows.extend(r)
        compared += 1
    write_summary(rows, failures, threshold)
    if compared == 0 and not failures:
        print("[compare_bench] nothing compared (no baselines found)")
    return 1 if failures else 0


def self_test(baselines_dir: Path, threshold: float) -> int:
    """Verifies the gate trips on a synthetic 30% regression."""
    tested = 0
    for bench_id, filename in GATED_BENCHES.items():
        baseline_path = baselines_dir / filename
        if not baseline_path.exists():
            continue
        baseline = load(baseline_path, "baseline")
        clean = copy.deepcopy(baseline)

        # An identical run must pass.
        ok_failures, _ = compare_bench(bench_id, baseline, clean, threshold)
        if ok_failures:
            print(f"[self-test] FAIL: identical run flagged for {bench_id}: "
                  f"{ok_failures}")
            return 1

        # A 30% regression on every gated metric must fail.
        regressed = copy.deepcopy(baseline)
        if regressed.get("bench") == "batch_throughput":
            for sweep in regressed.get("sweeps", []):
                sweep["speedup"] *= 0.7
        elif regressed.get("bench") == "array_scale":
            regressed["terminated"] = int(regressed.get("terminated", 0) * 0.7)
        elif regressed.get("bench") == "trace_replay":
            regressed["sustained_mb_s"] *= 0.7
            regressed["row_hit_rate"] *= 0.7
            regressed["retired_fraction"] *= 0.7
        elif regressed.get("bench") == "hier_mna":
            for sweep in regressed.get("sweeps", []):
                if "speedup" in sweep:
                    sweep["speedup"] *= 0.7
        elif regressed.get("bench") == "ecc_frontier":
            for key in list(regressed):
                if key.startswith("corrected_word_fraction@"):
                    regressed[key] *= 0.7
            regressed["uber_monotone"] = 0.0
        bad_failures, _ = compare_bench(bench_id, baseline, regressed, threshold)
        if not bad_failures:
            print(f"[self-test] FAIL: synthetic 30% regression NOT caught "
                  f"for {bench_id}")
            return 1
        print(f"[self-test] ok: {bench_id} gate trips on 30% regression "
              f"({len(bad_failures)} metric(s)) and passes clean run")
        tested += 1
    if tested == 0:
        print("[self-test] FAIL: no baselines to test against")
        return 1

    # Unusable inputs must produce an actionable message, not a traceback.
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        malformed = Path(tmp) / "BENCH_batch.json"
        malformed.write_text("{ this is not json")
        try:
            load(malformed, "baseline")
            print("[self-test] FAIL: malformed JSON not rejected")
            return 1
        except BenchDataError as e:
            if "not valid JSON" not in str(e) or "re-generate" not in str(e):
                print(f"[self-test] FAIL: malformed-JSON message not "
                      f"actionable: {e}")
                return 1
        try:
            load(Path(tmp) / "missing.json", "current run")
            print("[self-test] FAIL: missing file not rejected")
            return 1
        except BenchDataError as e:
            if "--results/--baselines" not in str(e):
                print(f"[self-test] FAIL: missing-file message not "
                      f"actionable: {e}")
                return 1
    try:
        compare_bench("batch_throughput",
                      {"bench": "batch_throughput", "sweeps": [{"lanes": 4}]},
                      {"bench": "batch_throughput", "sweeps": []}, threshold)
        print("[self-test] FAIL: schema-broken bench not rejected")
        return 1
    except BenchDataError as e:
        if "unexpected schema" not in str(e):
            print(f"[self-test] FAIL: schema message not actionable: {e}")
            return 1
    print("[self-test] ok: unusable inputs produce actionable errors (exit 2)")
    print(f"[self-test] PASSED ({tested} bench(es))")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--results", default="bench_results",
                        help="directory with the fresh BENCH_*.json artifacts")
    parser.add_argument("--baselines", default="bench_results/baselines",
                        help="directory with the committed baseline JSONs")
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        help="relative regression that fails the gate "
                             "(default 0.25)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the gate trips on an injected 30%% "
                             "regression, then exit")
    args = parser.parse_args()

    baselines_dir = Path(args.baselines)
    try:
        if args.self_test:
            return self_test(baselines_dir, args.threshold)
        return run_compare(Path(args.results), baselines_dir, args.threshold)
    except BenchDataError as e:
        print(f"[compare_bench] ERROR: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
