"""Runtime tracing of uccert's layers, installed from outside the package.

A ``Tracer`` replaces public functions and methods of the uccert modules with
wrappers while it is installed, and puts the originals back on uninstall.
Layer-boundary functions record spans (name, start, end, parent, pass id) in
memory; hot leaf methods (field and expression-node evaluation) only bump a
counter, because they run hundreds of thousands of times per pass and a span
each would cost more than the work it measures.

Because ``cli``, ``corner``, ``carleman`` and others import names directly
(``from .certify import certify``), a wrapper is installed in every uccert
module namespace that holds the original object, not only where it is
defined.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter
from statistics import median

clock = time.perf_counter


# ---------------------------------------------------------------------------
# spans and self time
# ---------------------------------------------------------------------------

class Span:
    __slots__ = ("name", "start", "end", "parent", "pass_id")

    def __init__(self, name, start, end, parent, pass_id):
        self.name, self.start, self.end = name, start, end
        self.parent, self.pass_id = parent, pass_id

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list) -> list:
    """Per span: its duration minus the part of it that its child spans cover.

    Children are the spans whose ``parent`` is the span's index.  Their
    intervals are merged before subtraction, so overlapping children are
    not counted twice, and clipped to the parent's interval.
    """
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c].start, s.start), min(spans[c].end, s.end))
                             for c in children[i]):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s.duration - covered)
    return out


def covered_time(spans: list, names: set) -> float:
    """Wall time inside spans named in ``names``, nested repeats counted once.

    A span counts only when no ancestor is also in ``names`` (so ``d1d1``
    calling ``d1`` twice is not counted three times).  Spans are listed in
    start order, so a parent always precedes its children.
    """
    inside = [False] * len(spans)
    total = 0.0
    for i, s in enumerate(spans):
        p = s.parent
        nested = p >= 0 and (inside[p] or spans[p].name in names)
        inside[i] = nested
        if s.name in names and not nested:
            total += s.duration
    return total


# ---------------------------------------------------------------------------
# the tracer
# ---------------------------------------------------------------------------

class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.pass_counts: dict = {}
        self.pass_id = -1
        self._stack: list = []
        self._patches: list = []

    # wrappers -------------------------------------------------------------

    def span_wrapper(self, name, fn, observe=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = Span(name, clock(), 0.0, stack[-1] if stack else -1, self.pass_id)
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.end = clock()
                stack.pop()
            counts[name] += 1
            if observe is not None:
                observe(counts, args, kwargs, out)
            return out
        return wrapper

    def count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # installation ---------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, modules: list, targets: list):
        """Wrap every target; ``targets`` rows are (name, owner, attr, kind, observe).

        A function target (owner is a module) is replaced in every module of
        ``modules`` that holds the same object; a method target is replaced
        on its class.
        """
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for name, owner, attr, kind, observe in targets:
            original = owner.__dict__[attr]
            if kind == "span":
                new = self.span_wrapper(name, original, observe)
            else:
                new = self.count_wrapper(name, original)
            if isinstance(owner, type):
                self._patch(owner, attr, new)
                continue
            holders = [m for m in modules if any(v is original for v in vars(m).values())]
            for mod in holders:
                for key in [k for k, v in vars(mod).items() if v is original]:
                    self._patch(mod, key, new)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # passes ---------------------------------------------------------------

    def begin_pass(self, pass_id: int):
        self.pass_id = pass_id
        self.counts.clear()

    def end_pass(self):
        self.pass_counts[self.pass_id] = Counter(self.counts)
        self.counts.clear()
        self.pass_id = -1

    def write(self, path: str):
        """Write every span and the per-pass counters as JSON."""
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "pass_id"],
                       "spans": [[s.name, s.start, s.end, s.parent, s.pass_id]
                                 for s in self.spans],
                       "counters": {str(k): dict(v) for k, v in self.pass_counts.items()}}, f)


# ---------------------------------------------------------------------------
# what is wrapped, and the per-layer metrics computed from it
# ---------------------------------------------------------------------------

def _arg(args, kwargs, pos, key):
    return kwargs[key] if key in kwargs else args[pos]


def _observe_sample_surface(counts, args, kwargs, out):
    spec = _arg(args, kwargs, 0, "spec")
    counts["hypotheses.surface_points"] += len(out)
    counts["hypotheses.shortfall"] += max(0, spec.n_surface_samples - len(out))


def _observe_constraint_samples(counts, args, kwargs, out):
    counts["certify.seeds"] += int(_arg(args, kwargs, 3, "n"))
    counts["certify.directions"] += len(out)


def _observe_integrate(counts, args, kwargs, out):
    counts["rays.steps"] += len(out.s)


def _observe_write_report(counts, args, kwargs, out):
    out_dir = _arg(args, kwargs, 0, "out_dir")
    counts["cli.report_bytes"] += os.path.getsize(os.path.join(out_dir, "report.json"))


def _observe_write_csv(counts, args, kwargs, out):
    counts["cli.csv_rows"] += len(_arg(args, kwargs, 3, "rows"))


def layer_targets(uc) -> list:
    """(name, owner, attr, kind, observe) for every wrapped uccert callable.

    ``uc`` maps module short names to the imported uccert modules.
    """
    fields, expressions = uc["fields"], uc["expressions"]
    rows = [
        ("fields.scalar_value_calls", fields.ScalarField, "__call__", "count", None),
        ("fields.scalar_grad_calls", fields.ScalarField, "grad", "count", None),
        ("fields.scalar_hess_calls", fields.ScalarField, "hess", "count", None),
        ("fields.metric_calls", fields.MetricField, "__call__", "count", None),
        ("fields.metric_deriv_calls", fields.MetricField, "deriv", "count", None),
    ]
    for cls in vars(expressions).values():
        if isinstance(cls, type) and issubclass(cls, expressions.Expr) and cls is not expressions.Expr:
            for attr in ("ev", "gr", "he"):
                if attr in cls.__dict__:
                    rows.append(("expressions.node_evals", cls, attr, "count", None))
    spans = [
        ("symbols", "hp", None), ("symbols", "hp2", None), ("symbols", "hp2_matrix", None),
        ("hypotheses", "sample_surface", _observe_sample_surface),
        ("hypotheses", "check_assumptions", None),
        ("hypotheses", "verify_split_signs", None),
        ("hypotheses", "verify_sublevel_inclusion", None),
        ("certify", "certify", None), ("certify", "certify_fields", None),
        ("certify", "constraint_samples", _observe_constraint_samples),
        ("certify", "compute_m0", None), ("certify", "compute_lambda0", None),
        ("rays", "integrate", _observe_integrate), ("rays", "contact", None),
        ("grids", "trapezoid", None), ("grids", "restricted_trapezoid", None),
        ("grids", "trapezoid_richardson", None),
        ("grids", "d1", None), ("grids", "d2", None), ("grids", "d1d1", None),
        ("grids", "bump_corpus", None), ("grids", "bump_superposition_values", None),
        ("corner", "verify_extension_identities", None), ("corner", "weak_pairing", None),
        ("corner", "detect_layer", None), ("corner", "verify_inequality_transfer", None),
        ("corner", "mollifier_commutator", None), ("corner", "fftconvolve", None),
        ("corner", "corner_corpus", None), ("corner", "kink_profile_corpus", None),
        ("cli", "write_report", _observe_write_report),
        ("cli", "write_csv", _observe_write_csv),
    ]
    for mod, attr, observe in spans:
        rows.append((f"{mod}.{attr}", uc[mod], attr, "span", observe))
    rows.append(("rays.annotate", uc["rays"].RayTrajectory, "annotate", "span", None))
    rows.append(("grids.bump_partial", uc["grids"].ProductBump, "partial_on_grid", "span", None))
    return rows


# Per-layer metrics: name -> (unit, rule, span or counter names).
#   count: sum of the named counters (a span's name counts its calls)
#   time:  wall time inside the named spans, nested repeats counted once
#   self:  summed self time of the named spans
#   ratio: first counter divided by the second (0 when the second is 0)
LAYER_METRICS = {
    "fields.scalar_value_calls": ("count", "count", ["fields.scalar_value_calls"]),
    "fields.scalar_grad_calls": ("count", "count", ["fields.scalar_grad_calls"]),
    "fields.scalar_hess_calls": ("count", "count", ["fields.scalar_hess_calls"]),
    "fields.metric_calls": ("count", "count", ["fields.metric_calls"]),
    "fields.metric_deriv_calls": ("count", "count", ["fields.metric_deriv_calls"]),
    "expressions.node_evals": ("count", "count", ["expressions.node_evals"]),
    "symbols.hp_calls": ("count", "count", ["symbols.hp"]),
    "symbols.hp2_calls": ("count", "count", ["symbols.hp2"]),
    "symbols.hp2_matrix_calls": ("count", "count", ["symbols.hp2_matrix"]),
    "symbols.hp2_s": ("s", "time", ["symbols.hp2"]),
    "symbols.hp2_matrix_s": ("s", "time", ["symbols.hp2_matrix"]),
    "hypotheses.sample_surface_calls": ("count", "count", ["hypotheses.sample_surface"]),
    "hypotheses.sample_surface_s": ("s", "time", ["hypotheses.sample_surface"]),
    "hypotheses.surface_points": ("count", "count", ["hypotheses.surface_points"]),
    "hypotheses.shortfall": ("count", "count", ["hypotheses.shortfall"]),
    "hypotheses.check_assumptions_self_s": ("s", "self", ["hypotheses.check_assumptions"]),
    "hypotheses.split_signs_s": ("s", "time", ["hypotheses.verify_split_signs"]),
    "hypotheses.sublevel_s": ("s", "time", ["hypotheses.verify_sublevel_inclusion"]),
    "certify.calls": ("count", "count", ["certify.certify"]),
    "certify.constraint_samples_s": ("s", "time", ["certify.constraint_samples"]),
    "certify.directions": ("count", "count", ["certify.directions"]),
    "certify.seeds": ("count", "count", ["certify.seeds"]),
    "certify.direction_yield": ("ratio", "ratio", ["certify.directions", "certify.seeds"]),
    "certify.m0_s": ("s", "time", ["certify.compute_m0"]),
    "certify.lambda0_s": ("s", "time", ["certify.compute_lambda0"]),
    "certify.fields_self_s": ("s", "self", ["certify.certify_fields"]),
    "rays.integrate_calls": ("count", "count", ["rays.integrate"]),
    "rays.integrate_s": ("s", "time", ["rays.integrate"]),
    "rays.steps": ("count", "count", ["rays.steps"]),
    "rays.contact_s": ("s", "time", ["rays.contact"]),
    "rays.annotate_s": ("s", "time", ["rays.annotate"]),
    "grids.trapezoid_calls": ("count", "count", ["grids.trapezoid", "grids.restricted_trapezoid"]),
    "grids.trapezoid_s": ("s", "time", ["grids.trapezoid", "grids.restricted_trapezoid",
                                        "grids.trapezoid_richardson"]),
    "grids.bump_partial_calls": ("count", "count", ["grids.bump_partial"]),
    "grids.bump_partial_s": ("s", "time", ["grids.bump_partial"]),
    "grids.stencil_s": ("s", "time", ["grids.d1", "grids.d2", "grids.d1d1"]),
    "grids.corpus_s": ("s", "time", ["grids.bump_corpus", "grids.bump_superposition_values",
                                     "corner.corner_corpus", "corner.kink_profile_corpus"]),
    "corner.identities_self_s": ("s", "self", ["corner.verify_extension_identities"]),
    "corner.weak_pairing_calls": ("count", "count", ["corner.weak_pairing"]),
    "corner.weak_pairing_s": ("s", "time", ["corner.weak_pairing"]),
    "corner.layer_s": ("s", "time", ["corner.detect_layer"]),
    "corner.transfer_s": ("s", "time", ["corner.verify_inequality_transfer"]),
    "corner.mollifier_s": ("s", "time", ["corner.mollifier_commutator"]),
    "corner.fft_calls": ("count", "count", ["corner.fftconvolve"]),
    "corner.fft_s": ("s", "time", ["corner.fftconvolve"]),
    "cli.write_s": ("s", "time", ["cli.write_report", "cli.write_csv"]),
    "cli.csv_rows": ("count", "count", ["cli.csv_rows"]),
    "cli.report_bytes": ("B", "count", ["cli.report_bytes"]),
}


def pass_layer_metrics(spans: list, counts: Counter) -> dict:
    """Every LAYER_METRICS value for one pass, from its spans and counters."""
    selfs = None
    out = {}
    for name, (_, rule, keys) in LAYER_METRICS.items():
        if rule == "count":
            out[name] = sum(counts[k] for k in keys)
        elif rule == "ratio":
            out[name] = counts[keys[0]] / counts[keys[1]] if counts[keys[1]] else 0.0
        elif rule == "time":
            out[name] = covered_time(spans, set(keys))
        else:
            if selfs is None:
                selfs = self_times(spans)
            out[name] = sum(t for s, t in zip(spans, selfs) if s.name in keys)
    return out


def layer_metrics(tracer: Tracer) -> dict:
    """Median over the traced passes of every per-layer metric."""
    per_pass = []
    for pid, counts in sorted(tracer.pass_counts.items()):
        # a pass's spans are contiguous and their parents lie inside the pass
        idx = [i for i, s in enumerate(tracer.spans) if s.pass_id == pid]
        lo = idx[0] if idx else 0
        local = [Span(s.name, s.start, s.end, s.parent - lo if s.parent >= 0 else -1, pid)
                 for s in tracer.spans[lo:lo + len(idx)]]
        per_pass.append(pass_layer_metrics(local, counts))
    return {name: median(p[name] for p in per_pass) for name in LAYER_METRICS}
