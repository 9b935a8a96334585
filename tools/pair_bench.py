"""Paired timing of two uccert source trees, pass against pass, in one process.

    python tools/pair_bench.py --base <other src/uccert> --workload pointwise \
        --pairs 60 --clock cpu

This checkout's ``src/uccert`` (head) and the base tree are loaded as
packages under names of their own, so each must import its own modules
relatively: a tree with an absolute ``uccert`` import would read
modules of the other tree, and the tool exits 2 naming the first such line.
Each tree's workload is built by ``perfbench/workloads.py``, which the tool
reads and does not change; ``--clock cpu`` times every op by this thread's
CPU time instead of the wall clock.  After one warm-up of each tree, every
pair runs one pass of each in a random order, so a slow or fast stretch of
the machine falls on both.  A failed op ends the run with exit 1.

It prints, for the whole pass and for each part, the median time of each
tree, the median of the per-pair ratios head / base with a distribution-free
95% interval for it (order statistics), and the number of pairs in which
head was faster; then each tree's median count of minor page faults per
pass (``getrusage``'s ``ru_minflt`` for this process, read around the pass).
"""

from __future__ import annotations

import argparse
import ast
import gc
import importlib
import importlib.util
import math
import random
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "perfbench" / "workloads.py"
HEAD = ROOT / "src" / "uccert"
CLOCKS = {"cpu": time.thread_time, "wall": time.perf_counter}
SEED = 992                  # the workloads' seed
ORDER_SEED = 0              # the seed of the pass order within each pair


def absolute_imports(tree: Path) -> list:
    """``file:line`` of every absolute import of ``uccert`` in the tree's modules."""
    found = []
    for path in sorted(tree.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            if any(name == "uccert" or name.startswith("uccert.") for name in names):
                found.append(f"{path}:{node.lineno}")
    return found


def median_interval(values, level: float = 0.95) -> tuple:
    """(lo, median, hi): the median of values and a distribution-free interval
    for the median of their population.

    With B ~ Binomial(n, 1/2) the number of values below that median, the
    order statistics x_(r) <= x_(n+1-r) enclose it with probability
    P(r <= B <= n - r) = 1 - 2 P(B <= r - 1); r is the largest for which
    that is at least ``level``.  Raises ValueError when no r reaches it
    (fewer than 6 values at 95%).
    """
    xs = sorted(values)
    n = len(xs)
    cdf, r = 0.0, 0
    while r < n // 2:
        cdf += math.comb(n, r) / 2.0 ** n              # P(B <= r)
        if 1.0 - 2.0 * cdf < level:
            break
        r += 1
    if r == 0:
        raise ValueError(f"{n} values are too few for a {level:.0%} interval of the median")
    return xs[r - 1], median(xs), xs[n - r]


def load_tree(tree: Path, name: str) -> dict:
    """The tree's package, imported under ``name``: its modules by their stem."""
    spec = importlib.util.spec_from_file_location(name, tree / "__init__.py",
                                                  submodule_search_locations=[str(tree)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return {p.stem: importlib.import_module(f"{name}.{p.stem}")
            for p in sorted(tree.glob("*.py")) if not p.stem.startswith("__")}


def load_workloads(clock):
    spec = importlib.util.spec_from_file_location("pair_bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.clock = clock            # the name every op is timed by
    return module


def minor_faults() -> int:
    """This process's minor page faults so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def run_pass(workload) -> dict:
    """Seconds per part of one pass, "pass" their sum, and "minflt" the
    minor page faults the pass made; raises on a failed op."""
    gc.collect()
    parts = {}
    faults = minor_faults()
    ops = workload.run_pass()
    faults = minor_faults() - faults
    for op in ops:
        if op.failures:
            raise RuntimeError(f"op {op.label} failed: {'; '.join(op.failures)}")
        parts[op.part] = parts.get(op.part, 0.0) + op.seconds
    parts["pass"] = sum(parts.values())
    parts["minflt"] = faults
    return parts


def table(parts: list, times: dict) -> list:
    """One printable row per part: medians, ratio interval, pairs head won."""
    rows = [f"{'':10s} {'base ms':>9s} {'head ms':>9s}  {'ratio':>6s}  {'95% interval':>15s}  head faster"]
    for part in parts:
        base, head = times["base"][part], times["head"][part]
        ratios = [h / b if b > 0 else math.inf for b, h in zip(base, head)]
        lo, mid, hi = median_interval(ratios)
        wins = sum(h < b for b, h in zip(base, head))
        rows.append(f"{part:10s} {1e3 * median(base):9.2f} {1e3 * median(head):9.2f}  {mid:6.3f}  "
                    f"[{lo:6.3f}, {hi:6.3f}]  {wins}/{len(base)}")
    return rows


def fault_row(times: dict) -> str:
    """Each tree's median minor page faults per pass."""
    return "minor page faults per pass, median: " + ", ".join(
        f"{side} {median(t['minflt'] for t in runs):g}" for side, runs in times.items())


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", type=Path, required=True, help="the src/uccert directory compared against")
    p.add_argument("--workload", default="pointwise")
    p.add_argument("--pairs", type=int, default=60)
    p.add_argument("--clock", choices=sorted(CLOCKS), default="cpu")
    args = p.parse_args(argv)

    for tree in (args.base, HEAD):
        if not (tree / "__init__.py").is_file():
            print(f"pair_bench: {tree} is not a uccert package directory", file=sys.stderr)
            return 2
        found = absolute_imports(tree)
        if found:
            print(f"pair_bench: {found[0]} imports uccert absolutely; "
                  "a tree loaded under another name must import itself relatively", file=sys.stderr)
            return 2
    if args.pairs < 6:
        print("pair_bench: --pairs must be at least 6 for a 95% interval", file=sys.stderr)
        return 2
    workloads = load_workloads(CLOCKS[args.clock])
    if args.workload not in workloads.WORKLOADS:
        print(f"pair_bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    workdir = Path(tempfile.mkdtemp(prefix="pair_bench_"))
    try:
        trees = {}
        for side, tree in (("base", args.base), ("head", HEAD)):
            uc = load_tree(tree.resolve(), f"uccert_{side}")
            wl = workloads.WORKLOADS[args.workload](args.workload, SEED, str(workdir / side), uc)
            wl.setup()
            for op in wl.warm_up():
                if op.failures:
                    raise RuntimeError(f"{side} warm-up op {op.label} failed: {'; '.join(op.failures)}")
            trees[side] = wl
        order = random.Random(ORDER_SEED)
        times = {"base": [], "head": []}
        for _ in range(args.pairs):
            sides = ["base", "head"]
            order.shuffle(sides)
            for side in sides:
                times[side].append(run_pass(trees[side]))
    except RuntimeError as e:
        print(f"pair_bench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    parts = ["pass"] + list(workloads.PARTS[args.workload])
    by_part = {side: {part: [t[part] for t in runs] for part in parts} for side, runs in times.items()}
    print(f"{args.workload}: {args.pairs} pairs, {args.clock} clock, head {HEAD}, base {args.base}")
    print("\n".join(table(parts, by_part)))
    print(fault_row(times))
    return 0


if __name__ == "__main__":
    sys.exit(main())
