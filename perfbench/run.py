"""uccert benchmark: wall times end to end, per-layer counts traced.

    python3 perfbench/run.py --workload pointwise --seed 0 --seconds 35 --trace 0

Workloads: pointwise, corner-lab (see workloads.py), or ``all`` to run both in
turn.  The run starts ``worker.py`` in a child process
whose BLAS/OpenMP pools are capped at one thread, times its passes for about
``--seconds`` seconds after an untimed warm-up pass, checks every op's output
and prints one table per workload, then one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones from a traced run.

Set-up time is measured from process start until the workload's inputs are
built, three times (the worker plus two set-up-only children), and reported
as the median.

Everything the run writes goes to ``.perfbench_work/`` in the repository
root; the traced run leaves its spans in
``.perfbench_work/<workload>/spans.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, HERE)

from tracer import LAYER_METRICS  # noqa: E402
from workloads import PARTS  # noqa: E402

THREAD_CAP = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                     "NUMEXPR_NUM_THREADS")}
SETUP_REPEATS = 3
TIME_LIMIT = 170.0          # the whole run must end well inside 180 s

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}
# Layer times of modules that a workload never calls would read 0.0 on every
# run of that workload, so the JSON line carries the layer counters plus the
# one layer time every workload exercises; the table prints all of them.
PER_LAYER = {name: unit for name, (unit, _, _) in LAYER_METRICS.items() if unit != "s"}
PER_LAYER.update({"cli.write_s": "s", "trace.pass_s": "s", "trace.overhead_s": "s"})


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def start_worker(workload, seed, seconds, trace, result, setup_only, timeout):
    """Run worker.py; return (its result dict, the monotonic time it was spawned)."""
    env = dict(os.environ, **THREAD_CAP)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--src", SRC, "--workdir", os.path.join(WORK, workload), "--result", result]
    if setup_only:
        cmd.append("--setup-only")
    if os.path.exists(result):
        os.remove(result)
    spawned = monotonic()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=sys.stderr)
    try:
        rc = proc.wait(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{workload} worker did not finish within {timeout:.0f} s")
    if rc != 0 or not os.path.exists(result):
        raise RuntimeError(f"{workload} worker exited with code {rc}")
    with open(result, encoding="utf-8") as f:
        return json.load(f), spawned


def op_medians(passes) -> dict:
    """Per op, keyed by (part, label): its median time over the passes."""
    times = {}
    for p in passes:
        for part, label, seconds, _ in p["ops"]:
            times.setdefault((part, label), []).append(seconds)
    return {key: median(v) for key, v in times.items()}


def part_seconds(medians: dict, part: str) -> float:
    return sum(t for (p, _), t in medians.items() if p == part)


def measure(workload, seed, seconds, trace, deadline) -> dict:
    """One workload: the metrics, op counts and a printable table."""
    wdir = os.path.join(WORK, workload)
    shutil.rmtree(wdir, ignore_errors=True)
    os.makedirs(wdir)
    result_path = os.path.join(wdir, "result.json")
    res, spawned = start_worker(workload, seed, seconds, trace, result_path, False,
                                deadline - monotonic())
    setups = [res["setup_done"] - spawned]
    if not trace:
        for _ in range(SETUP_REPEATS - 1):
            r, t0 = start_worker(workload, seed, seconds, trace, result_path + ".setup",
                                 True, min(60.0, deadline - monotonic()))
            setups.append(r["setup_done"] - t0)

    ops = [op for p in res["passes"] for op in p["ops"]]
    failed = [op for op in ops if op[3]]
    rows = []           # (name, value, unit, samples, note)
    if not trace:
        timed = [p for p in res["passes"] if p["kind"] == "timed"]
        med = op_medians(timed)
        n = len(timed)
        rows.append(("setup_s", median(setups), "s", len(setups),
                     "process start to inputs built"))
        rows.append(("pass_s", sum(med.values()), "s", n, "one full pass, per-op medians"))
        rows.append(("peak_rss_mb", res["peak_rss_kb"] / 1024.0, "MB", 1, "worker max RSS"))
        for part in PARTS[workload]:
            rows.append((f"{part}_s", part_seconds(med, part), "s", n, "table only"))
        reported = END_TO_END
    else:
        untraced = sum(op_medians(p for p in res["passes"] if p["kind"] == "untraced").values())
        traced_passes = [p for p in res["passes"] if p["kind"] == "traced"]
        traced = sum(op_medians(traced_passes).values())
        n = len(traced_passes)
        for name, (unit, _, _) in LAYER_METRICS.items():
            rows.append((name, res["layers"][name], unit, n, ""))
        rows.append(("trace.pass_s", traced, "s", n, "traced pass"))
        rows.append(("trace.overhead_s", traced - untraced, "s", n,
                     f"untraced pass {untraced:.4f} s"))
        reported = PER_LAYER
    rows.append(("ops_failed_frac", len(failed) / len(ops), "ratio", len(ops),
                 f"{len(failed)}/{len(ops)} ops"))

    lines = [f"== {workload}  seed {seed}  trace {trace}  "
             f"passes {len(res['passes']) - 1} (+1 warm-up)"]
    lines += [f"  {name:36s} {value:14.6g} {unit:6s} n={samples:<4d} {note}"
              for name, value, unit, samples, note in rows]
    for part, label, _, reasons in failed[:10]:
        lines.append(f"  FAILED {part}/{label}: {'; '.join(reasons)}")
    metrics = {name: {"value": value, "unit": unit}
               for name, value, unit, _, _ in rows if name in reported}
    return {"attempted": len(ops), "failed": len(failed), "metrics": metrics,
            "lines": lines}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="uccert benchmark")
    p.add_argument("--workload", required=True, choices=sorted(PARTS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not os.path.isdir(os.path.join(SRC, "uccert")):
        print(f"run.py: no uccert sources under {SRC}", file=sys.stderr)
        return 2

    names = sorted(PARTS) if args.workload == "all" else [args.workload]
    deadline = monotonic() + TIME_LIMIT * len(names)
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, args.trace, deadline)
    except (RuntimeError, OSError, KeyError, ValueError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2

    for res in results.values():
        print("\n".join(res["lines"]))
    if args.workload == "all":
        metrics = {f"{w}.{m}": v for w, res in results.items() for m, v in res["metrics"].items()}
    else:
        metrics = results[args.workload]["metrics"]
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
