"""Tests of the benchmark itself: self-time arithmetic, metric names, the failure rule.

    python3 -m pytest perfbench
"""

import json
import math
import os
import re
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import (LAYER_METRICS, Span, Tracer, covered_time, layer_metrics,  # noqa: E402
                    layer_targets, self_times)
from workloads import op_failures, surface_failures  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 4] and b [5, 6]; a holds c [2, 3]
    spans = [Span("root", 0.0, 10.0, -1, 0), Span("a", 1.0, 4.0, 0, 0),
             Span("c", 2.0, 3.0, 1, 0), Span("b", 5.0, 6.0, 0, 0)]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_self_time_merges_overlapping_children_and_clips_them():
    spans = [Span("root", 0.0, 10.0, -1, 0), Span("a", 1.0, 5.0, 0, 0),
             Span("b", 3.0, 7.0, 0, 0), Span("c", 9.0, 12.0, 0, 0)]
    # children cover [1, 7] and [9, 10]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_covered_time_counts_nested_repeats_once():
    spans = [Span("d1d1", 0.0, 4.0, -1, 0), Span("d1", 0.5, 1.5, 0, 0),
             Span("d1", 2.0, 3.0, 0, 0), Span("other", 4.0, 9.0, -1, 0),
             Span("d1", 5.0, 6.0, 3, 0)]
    assert covered_time(spans, {"d1", "d1d1"}) == pytest.approx(5.0)
    assert covered_time(spans, {"d1"}) == pytest.approx(3.0)


def test_tracer_wraps_every_binding_and_restores_it():
    lib = types.ModuleType("lib")
    user = types.ModuleType("user")

    def leaf(x):
        return x + 1

    def outer(x):
        return user.leaf(x) * 2

    class Thing:
        def method(self):
            return 3

    original_method = Thing.__dict__["method"]
    lib.leaf, lib.outer, user.leaf = leaf, outer, leaf     # user imported leaf directly
    tr = Tracer()
    tr.install([lib, user], [("lib.leaf", lib, "leaf", "span", None),
                             ("lib.outer", lib, "outer", "span", None),
                             ("thing.method", Thing, "method", "count", None)])
    tr.begin_pass(0)
    assert lib.outer(1) == 4 and Thing().method() == 3
    tr.end_pass()
    tr.uninstall()
    assert lib.leaf is leaf and user.leaf is leaf and lib.outer is outer
    assert Thing.__dict__["method"] is original_method
    assert [(s.name, s.parent) for s in tr.spans] == [("lib.outer", -1), ("lib.leaf", 0)]
    assert tr.pass_counts[0] == {"lib.outer": 1, "lib.leaf": 1, "thing.method": 1}


def test_tracer_on_uccert_counts_layers_and_leaves_reports_alone():
    import importlib
    uc = {name: importlib.import_module(f"uccert.{name}") for name in
          ("fields", "expressions", "symbols", "hypotheses", "certify", "rays",
           "grids", "corner", "carleman", "models", "cli")}
    package = importlib.import_module("uccert")
    before = {m.__name__: dict(vars(m)) for m in [package] + list(uc.values())}
    model = uc["models"].ik_model(2)
    plain = uc["certify"].certify(model.geometry, model.x0, lam=2.0).to_dict()
    tr = Tracer()
    tr.install([package] + list(uc.values()), layer_targets(uc))
    try:
        tr.begin_pass(0)
        traced = uc["cli"].certify(model.geometry, model.x0, lam=2.0).to_dict()
        tr.end_pass()
    finally:
        tr.uninstall()
    assert traced == plain
    for m in [package] + list(uc.values()):
        assert all(vars(m)[k] is v for k, v in before[m.__name__].items())
    got = layer_metrics(tr)
    assert got["certify.calls"] == 1
    assert got["symbols.hp2_matrix_calls"] == 3       # lambda0, surface and bent forms
    assert got["certify.directions"] == 4 and got["certify.seeds"] == 2000
    assert got["fields.scalar_grad_calls"] > 0 and got["rays.integrate_calls"] == 0
    assert 0.0 < got["certify.fields_self_s"] < got["certify.constraint_samples_s"] + 1.0


# ---------------------------------------------------------------------------
# metric names
# ---------------------------------------------------------------------------

def test_metric_names_follow_the_grammar_and_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    names = ([m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
             + [w["name"] for w in bench["workloads"]] + list(LAYER_METRICS))
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(set(m["name"] for m in bench["end_to_end"] + bench["per_layer"])) == \
        len(bench["end_to_end"]) + len(bench["per_layer"])
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.PARTS)
    assert sorted(workloads.WORKLOADS) == sorted(workloads.PARTS)


@pytest.mark.parametrize("bad", ["cli write_s", "cli/write_s", "", "métrique"])
def test_grammar_rejects_other_names(bad):
    assert not NAME.fullmatch(bad)


# ---------------------------------------------------------------------------
# the failure rule
# ---------------------------------------------------------------------------

def _certify_report(**changes) -> bytes:
    cert = {"m0": math.sqrt(2.0), "lambda0": 1.0, "worst_margin": -6.0, "status": "certified"}
    cert.update(changes)
    return json.dumps({"command": "certify", "model": "ik3", "certificate": cert,
                       "passed": True}).encode()


def test_closed_form_certificate_is_a_correct_op():
    assert op_failures(None, 0, _certify_report(), None) == []


def test_m0_off_by_1e_3_is_a_failed_op():
    fails = op_failures(None, 0, _certify_report(m0=math.sqrt(2.0) + 1e-3), None)
    assert len(fails) == 1 and fails[0].startswith("m0 =")


@pytest.mark.parametrize("args, reason", [
    (("raised ValueError: x", None, None, None), "raised"),
    ((None, 1, _certify_report(), None), "exit code 1"),
    ((None, 0, None, None), "no report.json"),
    ((None, 0, _certify_report(lambda0=1.01), None), "lambda0 ="),
    ((None, 0, _certify_report(worst_margin=None), None), "worst_margin ="),
    ((None, 0, json.dumps({"command": "rays", "passed": False}).encode(), None), "passed: false"),
    ((None, 0, json.dumps({"command": "carleman", "passed": True,
                           "r_floor_from_lam4": 3.99}).encode(), None), "r_floor_from_lam4"),
    ((None, 0, json.dumps({"command": "certmap", "passed": True, "certificates": [
        {"status": "certified"}, {"status": "failed"}]}).encode(), None), "not certified"),
    ((None, 0, json.dumps({"command": "check", "model": "ik2", "passed": True,
                           "hypotheses": {"checks": {"sign_condition": {
                               "min_value": 1.9, "max_value": 2.0}}}}).encode(), None),
     "sign condition min_value"),
    ((None, 0, _certify_report(), _certify_report(m0=1.4142135)), "differs from the first pass"),
])
def test_failure_rule(args, reason):
    fails = op_failures(*args)
    assert any(reason in f for f in fails), fails


def test_surface_points_are_checked_independently():
    box = [[-0.4, 0.4], [0.6, 1.4], [-0.4, 0.4]]
    on = [(0.0, 1.0, 0.0), (0.0, math.cos(0.3), math.sin(0.3))]
    assert surface_failures(on, box) == []
    assert surface_failures([], box) == ["no intersection points sampled"]
    assert "off the cones" in surface_failures([(0.0, 1.0 + 1e-6, 0.0)], box)[0]
