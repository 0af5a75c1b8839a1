#!/usr/bin/env python3
"""Include-graph layering checker for src/.

The module dependency graph is a strict DAG (documented in DESIGN.md,
"Static analysis"): a file in module M may #include from module N only when
rank(N) <= rank(M). Link-time layering is already pinned by the per-module
CMake targets; this checker pins the *include* graph to the same shape, so a
header cannot quietly grow an upward dependency that CMake's transitive link
interface would mask.

    rank 0  util         error/rng/stats/table/ascii_plot/parallel_for
    rank 1  obs          metrics registry, JSON
    rank 2  numeric      LU, Newton, SIMD packs
    rank 3  spice        MNA core, devices-agnostic solvers, analyze/
    rank 4  devices      R/C/L, sources, MOSFET, diode
    rank 5  oxram        cell model, fast path, batch kernels, aging physics
                         (drift trajectory, read disturb, endurance wear)
    rank 6  array, mc    crossbar + write path; MC runner
    rank 7  netlist      src/spice/netlist.{hpp,cpp} only: the parser is its
                         own module (own CMake target oxmlc_netlist) because
                         instantiating device cards needs devices/ and oxram/
                         above the spice core
    rank 8  mlc          levels, programmer, controller (which ages its own
                         cells), analyze/
    rank 9  memsys       geometry, command scheduler, trace replay
    rank 10 ecc          Gray/SECDED/BCH codes, channel bridge, policy
                         explorer (top)

ALLOWLIST below holds temporarily-tolerated back-edges as
("including file", "included header") pairs. It is empty — keep it that way;
fix the include instead of adding to it.

Usage:
  scripts/check_layering.py [--root REPO] [--dot]   check src/ (|--dot: graph)
  scripts/check_layering.py --self-test             prove detection works

Exit status: 0 clean, 1 violations, 2 usage/environment error.
"""

import argparse
import glob
import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

RANK = {
    "util": 0,
    "obs": 1,
    "numeric": 2,
    "spice": 3,
    "devices": 4,
    "oxram": 5,
    "array": 6,
    "mc": 6,
    "netlist": 7,
    "mlc": 8,
    "memsys": 9,
    "ecc": 10,
}

# The netlist parser is carved out of src/spice/ as its own (virtual) module;
# see the rank table above.
NETLIST_FILES = {"spice/netlist.hpp", "spice/netlist.cpp"}

# ("src-relative including file", "src-relative included header") pairs that
# are tolerated despite breaking the DAG. Empty by design.
ALLOWLIST = set()

INCLUDE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.M)


def module_of(rel):
    """Module of an src-relative path like 'mlc/analyze/config_lint.hpp'."""
    rel = rel.replace(os.sep, "/")
    if rel in NETLIST_FILES:
        return "netlist"
    return rel.split("/", 1)[0]


def scan(root):
    """Returns (violations, edges) over src/.

    edges: {(from_module, to_module)} for the --dot rendering, self-edges
    dropped.
    """
    src = os.path.join(root, "src")
    if not os.path.isdir(src):
        raise RuntimeError(f"{src} is not a directory")
    violations = []
    edges = set()
    files = sorted(
        glob.glob(os.path.join(src, "**", "*.hpp"), recursive=True)
        + glob.glob(os.path.join(src, "**", "*.cpp"), recursive=True)
    )
    for path in files:
        rel = os.path.relpath(path, src).replace(os.sep, "/")
        mod = module_of(rel)
        if mod not in RANK:
            violations.append(f"{rel}: unknown module '{mod}' — add it to the "
                              f"rank table in scripts/check_layering.py")
            continue
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
        for inc in INCLUDE.findall(text):
            inc = inc.replace(os.sep, "/")
            target = module_of(inc)
            if target not in RANK:
                continue  # system-style or external quoted include
            if target != mod:
                edges.add((mod, target))
            if RANK[target] <= RANK[mod]:
                continue
            if (rel, inc) in ALLOWLIST:
                continue
            violations.append(
                f'src/{rel}: #include "{inc}" points up the layering '
                f"({mod}, rank {RANK[mod]} -> {target}, rank {RANK[target]}); "
                f"move the shared piece down or invert the dependency")
    return violations, edges


def render_dot(edges):
    lines = ["digraph oxmlc_layering {", "  rankdir=BT;"]
    for mod in sorted(RANK, key=RANK.get):
        lines.append(f'  {mod} [label="{mod} (rank {RANK[mod]})"];')
    for a, b in sorted(edges):
        lines.append(f"  {a} -> {b};")
    lines.append("}")
    return "\n".join(lines)


def self_test():
    """Detection must work: a synthetic back-edge in every direction fires."""
    failures = []

    # 1. The module mapper: netlist carve-out and plain modules.
    if module_of("spice/netlist.cpp") != "netlist":
        failures.append("module_of: netlist carve-out broken")
    if module_of("spice/circuit.hpp") != "spice":
        failures.append("module_of: plain spice file misattributed")
    if module_of("mlc/analyze/config_lint.hpp") != "mlc":
        failures.append("module_of: nested path misattributed")
    if module_of("numeric/schur_lu.cpp") != "numeric":
        failures.append("module_of: bordered-block solver misattributed")
    if module_of("spice/analyze/partition.hpp") != "spice":
        failures.append("module_of: partition derivation must live in spice")

    # 2. Rank comparison on synthetic includes, one per direction.
    cases = [
        ("util/error.hpp", "mlc/levels.hpp", True),      # up: must fire
        ("mlc/levels.hpp", "util/error.hpp", False),     # down: clean
        ("spice/circuit.hpp", "spice/netlist.hpp", True),  # into the carve-out
        ("spice/netlist.cpp", "devices/diode.hpp", False),  # carve-out down
        ("array/crossbar.hpp", "mc/runner.hpp", False),  # equal rank: clean
        # The hierarchical-MNA split: BlockSchurLu is pure numerics and must
        # never reach up for circuit topology; the partition DERIVATION
        # (device cliques, border folding) is spice-level and may look down.
        ("numeric/schur_lu.hpp", "spice/analyze/partition.hpp", True),
        ("spice/analyze/partition.cpp", "numeric/schur_lu.hpp", False),
        ("memsys/fidelity.cpp", "array/bank_write_path.hpp", False),
        # The ECC tier sits on top: it may reach down into memsys (scheduler
        # probe) and mlc (channel physics); nothing below may include it.
        ("ecc/explorer.cpp", "memsys/scheduler.hpp", False),
        ("ecc/channel.cpp", "mlc/program.hpp", False),
        ("memsys/replay.cpp", "ecc/code.hpp", True),
        ("mlc/controller.cpp", "ecc/secded.hpp", True),
        # The aging physics sits in oxram below its one owner, the
        # controller, and must not reach back up to it.
        ("oxram/drift.cpp", "mlc/controller.hpp", True),
        ("mlc/controller.cpp", "oxram/drift.hpp", False),
    ]
    for src_rel, inc, should_fire in cases:
        mod, target = module_of(src_rel), module_of(inc)
        fired = RANK[target] > RANK[mod]
        if fired != should_fire:
            failures.append(f"self-test: {src_rel} -> {inc}: fired={fired}, "
                            f"expected {should_fire}")

    # 3. End-to-end on a synthetic tree with one planted violation.
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        os.makedirs(os.path.join(tmp, "src", "util"))
        os.makedirs(os.path.join(tmp, "src", "mlc"))
        with open(os.path.join(tmp, "src", "util", "bad.hpp"), "w") as f:
            f.write('#include "mlc/levels.hpp"\n')
        with open(os.path.join(tmp, "src", "mlc", "good.hpp"), "w") as f:
            f.write('#include "util/error.hpp"\n#include <vector>\n')
        # A module missing from the rank table (such as a deleted one that
        # left a file behind) is flagged, whatever it includes.
        os.makedirs(os.path.join(tmp, "src", "reliability"))
        with open(os.path.join(tmp, "src", "reliability", "engine.hpp"), "w") as f:
            f.write('#include "oxram/drift.hpp"\n')
        violations, edges = scan(tmp)
        if (len(violations) != 2
                or not any("util/bad.hpp" in v for v in violations)
                or not any("unknown module 'reliability'" in v for v in violations)):
            failures.append(f"self-test: planted violations not found: {violations}")
        if ("mlc", "util") not in edges:
            failures.append(f"self-test: edge collection broken: {edges}")

    if failures:
        print("check_layering --self-test: FAIL", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("check_layering --self-test: OK")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=REPO, help="repository root")
    parser.add_argument("--dot", action="store_true",
                        help="print the module graph as graphviz DOT")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    try:
        violations, edges = scan(os.path.abspath(args.root))
    except RuntimeError as e:
        print(f"check_layering: {e}", file=sys.stderr)
        return 2
    if args.dot:
        print(render_dot(edges))
    for v in violations:
        print(v)
    if violations:
        print(f"check_layering: {len(violations)} violation(s) "
              f"(allowlist has {len(ALLOWLIST)} entries)", file=sys.stderr)
        return 1
    if not args.dot:
        print(f"check_layering: OK ({len(edges)} module edges, all downward; "
              f"allowlist empty)" if not ALLOWLIST else
              f"check_layering: OK ({len(ALLOWLIST)} allowlisted back-edges remain)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
