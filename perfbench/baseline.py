"""Run every workload on several seeds and record the spread of each metric.

    python3 perfbench/baseline.py --seeds 0-9 --out perfbench/baseline.json

For each workload it runs ``run.py`` once per seed with tracing off and once
(first seed) with tracing on, then writes one JSON file with, per workload
and metric, the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread (third minus first quartile, over the median), plus the median wall
time of every single op over all timed passes.  The file also records the
machine, every metric's unit and kind, why each workload was chosen and
which end-to-end metric each layer should move on which workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import END_TO_END, PER_LAYER, THREAD_CAP, WORK  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402
from workloads import PARTS  # noqa: E402

# layer -> the part of each workload whose time (in pass_s) it should move
LAYER_MAP = {
    "fields": {"pointwise": "check, certmap"},
    "expressions": {"pointwise": "certmap"},
    "symbols": {"pointwise": "certify, certmap"},
    "hypotheses": {"pointwise": "check, sample"},
    "certify": {"pointwise": "certify, rays, certmap"},
    "rays": {"pointwise": "rays"},
    "grids": {"corner-lab": "corner2"},
    "corner": {"corner-lab": "corner2"},
    "carleman": {},
    "cli": {"pointwise": "certify, write", "corner-lab": "corner2"},
}
KINDS = {"s": "time", "MB": "memory", "B": "bytes", "ratio": "ratio"}


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                         capture_output=True, text=True, cwd=ROOT, timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    print("\n".join(lines[:-1]), flush=True)
    return json.loads(lines[-1])


def summarize(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "n": len(values)}


def machine() -> dict:
    import numpy
    import scipy
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "platform": platform.platform(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_thread_cap": THREAD_CAP}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="0-9")
    p.add_argument("--seconds", type=int, default=None,
                   help="run length (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--workloads", default=",".join(PARTS))
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    seeds = parse_seeds(args.seeds)

    results = {}
    for wl in args.workloads.split(","):
        runs, op_times = [], {}
        for s in seeds:
            runs.append(run_once(wl, s, seconds, 0))
            with open(os.path.join(WORK, wl, "result.json"), encoding="utf-8") as f:
                for p in json.load(f)["passes"]:
                    if p["kind"] == "timed":
                        for _, label, op_seconds, _ in p["ops"]:
                            op_times.setdefault(label, []).append(op_seconds)
        traced = run_once(wl, seeds[0], seconds, 1)
        metrics = {name: summarize([r["metrics"][name]["value"] for r in runs])
                   for name in END_TO_END}
        results[wl] = {"seeds": seeds, "attempted": sum(r["attempted"] for r in runs),
                       "failed": sum(r["failed"] for r in runs),
                       "end_to_end": metrics,
                       "op_median_s": {k: statistics.median(v) for k, v in op_times.items()
                                       if not k.startswith("point")},
                       "certificate_median_s": statistics.median(
                           [t for k, v in op_times.items() if k.startswith("point") for t in v]
                           or [0.0]),
                       "traced_seed": seeds[0],
                       "per_layer": {k: v["value"] for k, v in traced["metrics"].items()}}

    doc = {
        "machine": machine(),
        "run_seconds": seconds,
        "workloads": {w["name"]: {"why": w["why"], "parts": PARTS[w["name"]]}
                      for w in bench["workloads"]},
        "metrics": ([{"name": n, "unit": u, "kind": KINDS.get(u, "count"), "level": "end_to_end",
                      "in_json_line": True} for n, u in END_TO_END.items()]
                    + [{"name": n, "unit": u, "kind": KINDS.get(u, "count"), "level": "per_layer",
                        "in_json_line": n in PER_LAYER}
                       for n, u in [(n, u) for n, (u, _, _) in LAYER_METRICS.items()]
                       + [("trace.pass_s", "s"), ("trace.overhead_s", "s")]]),
        "layer_map": LAYER_MAP,
        "results": results,
    }
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    for wl, res in results.items():
        for name, s in res["end_to_end"].items():
            print(f"{wl:14s} {name:12s} median {s['median']:.4f} spread {s['spread']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
