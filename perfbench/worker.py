"""Run one workload in this process and write the raw timings as JSON.

``run.py`` starts this script with the BLAS/OpenMP thread pools capped at one
thread and ``src`` on PYTHONPATH; it is not meant to be run by hand.  Every
run makes one untimed warm-up pass first; on pointwise it is shortened to the
ik2 cone ops and one bumpy map.  The first report of each op
becomes the reference that later passes must reproduce byte for byte.  With ``--trace 1`` the run alternates an
untraced and a traced pass, so the tracing overhead is measured on the same
inputs.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import sys
import time
from time import perf_counter as clock

from tracer import Tracer, layer_metrics, layer_targets
from workloads import WORKLOADS

MODULES = ("fields", "expressions", "symbols", "hypotheses", "certify", "rays",
           "grids", "corner", "carleman", "models", "cli")


def load_uccert(src: str) -> dict:
    uccert = importlib.import_module("uccert")
    if not os.path.realpath(uccert.__file__).startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"uccert was imported from {uccert.__file__}, not from {src}")
    return {name: importlib.import_module(f"uccert.{name}") for name in MODULES}


def run_pass(wl, kind: str) -> dict:
    gc.collect()
    ops = wl.warm_up() if kind == "warmup" else wl.run_pass()
    return {"kind": kind, "ops": [op.as_list() for op in ops]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--src", required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    uc = load_uccert(args.src)
    wl = WORKLOADS[args.workload](args.workload, args.seed, args.workdir, uc)
    wl.setup()
    result = {"setup_done": time.clock_gettime(time.CLOCK_MONOTONIC), "passes": []}
    if not args.setup_only:
        passes = result["passes"]
        passes.append(run_pass(wl, "warmup"))
        t_start = clock()
        if not args.trace:
            while True:
                passes.append(run_pass(wl, "timed"))
                if clock() - t_start >= args.seconds:
                    break
        else:
            tracer = Tracer()
            modules = [importlib.import_module("uccert")] + list(uc.values())
            targets = layer_targets(uc)
            pass_id = 0
            while True:
                wl.setup()
                passes.append(run_pass(wl, "untraced"))
                tracer.install(modules, targets)
                try:
                    # inputs are rebuilt under the wrappers, because fields
                    # built earlier hold bound methods of the unwrapped nodes
                    wl.setup()
                    tracer.begin_pass(pass_id)
                    passes.append(run_pass(wl, "traced"))
                    tracer.end_pass()
                finally:
                    tracer.uninstall()
                pass_id += 1
                if clock() - t_start >= args.seconds:
                    break
            result["layers"] = layer_metrics(tracer)
            tracer.write(os.path.join(args.workdir, "spans.json"))
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tmp = args.result + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(result, f)
    os.replace(tmp, args.result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
