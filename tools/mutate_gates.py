"""Weaken one certify, hypothesis, corner, rays or CLI gate at a time and run the tests that name it.

Each mutant replaces one expression of ``src/uccert``, found by its syntax
tree (stdlib ``ast``), in a temporary copy of the package; the checkout's
sources are never written.  A mutant is killed when its tests fail against
the copy, and survives when they pass.

    python tools/mutate_gates.py

It runs pytest once per mutant, so it stays out of the suite;
``tests/test_mutate_gates.py`` only checks that every pattern matches exactly
one site in today's source and that every gate of ``hypotheses.GATES`` has a
mutant.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "uccert"


class Mutant(NamedTuple):
    name: str
    module: str             # file under src/uccert
    original: str           # an expression, matched by its syntax tree
    mutated: str            # what replaces it
    tests: tuple            # pytest node ids, relative to the repository root


_CERTIFY = "tests/test_certify.py"
_RAYS = "tests/test_rays.py"
_CORNER_GATES = "tests/test_corner.py::TestLabGateThresholds"
# each gate of hypotheses.GATES, through check at its samples and through certify at x0
_CHECK_GATES = "tests/test_hypotheses.py::TestCheckGateThresholds"
MUTANTS = (
    Mutant("on_surfaces", "certify.py", "off > spec.tol_zero", "off > spec.tol_zero * 100",
           (f"{_CERTIFY}::TestGateThresholds::test_on_surfaces", f"{_CERTIFY}::TestSoundnessGates")),
    Mutant("space_like_base", "certify.py", "space_like <= tol_pos", "space_like <= -tol_pos",
           (f"{_CERTIFY}::TestGateThresholds::test_space_like_base",)),
    Mutant("margin", "certify.py", "worst < -tol_pos", "worst < tol_pos",
           (f"{_CERTIFY}::TestSoundnessGates", f"{_CERTIFY}::TestGateThresholds")),
    Mutant("lambda_threshold", "certify.py", "lam_used > lambda0", "lam_used >= lambda0",
           (f"{_CERTIFY}::TestGateThresholds::test_lambda_threshold_is_strict",
            f"{_CERTIFY}::TestSoundnessGates")),
    Mutant("route_agreement", "certify.py", "worst_rel <= KEY_IDENTITY_RTOL",
           "worst_rel <= KEY_IDENTITY_RTOL * 1000",
           (f"{_CERTIFY}::TestGateThresholds::test_route_disagreement_above_its_tolerance_raises",
            f"{_CERTIFY}::TestGateThresholds::test_consistent_routes_do_not_raise")),
    Mutant("characteristic", "hypotheses.py", "residuals[k] <= tol_char", "residuals[k] <= tol_char * 1000",
           (f"{_CHECK_GATES}::test_characteristic_residual", f"{_CHECK_GATES}::test_characteristic_residual_at_x0",
            "tests/test_hypotheses.py::TestAssumptions")),
    Mutant("nondegenerate_gradients", "hypotheses.py", "norms[k] > tol_pos", "norms[k] >= 0",
           (f"{_CHECK_GATES}::test_vanishing_gradient", f"{_CHECK_GATES}::test_vanishing_gradient_at_x0",
            "tests/test_hypotheses.py::TestAssumptions")),
    Mutant("transversality", "hypotheses.py", "sv[k] > tol_pos", "sv[k] > 0",
           (f"{_CHECK_GATES}::test_transversality", f"{_CHECK_GATES}::test_transversality_at_x0")),
    Mutant("sign_condition", "hypotheses.py", "vals[k] > tol_pos", "vals[k] > 0",
           (f"{_CHECK_GATES}::test_sign_condition", f"{_CHECK_GATES}::test_sign_condition_at_x0")),
    Mutant("signature", "hypotheses.py", "worst <= 1e-12", "worst <= 1e-10",
           (f"{_CHECK_GATES}::test_symmetry_defect", f"{_CHECK_GATES}::test_symmetry_defect_at_x0")),
    Mutant("split_sum_identity", "hypotheses.py", "np.abs(e1 + e0) <= DEFAULT_TOL_ID",
           "np.abs(e1 + e0) <= DEFAULT_TOL_ID * 100",
           ("tests/test_hypotheses.py::TestSplitFields::test_sum_identity_tolerance",)),
    Mutant("smoothing_ladder", "cli.py", "len(eps_list) < 2", "len(eps_list) < 1",
           ("tests/test_cli.py::TestCornerGridBound::test_one_width_is_usage_error",
            "tests/test_cli.py::TestCornerGridBound::test_coarse_grid_is_usage_error")),
    Mutant("ray_launch", "rays.py", "abs(jet.value) > 10 * max(tol_zero, 1e-14)",
           "abs(jet.value) > 100 * max(tol_zero, 1e-14)",
           (f"{_RAYS}::TestContactGateThresholds::test_launch_on_the_level_set",
            f"{_RAYS}::TestContact::test_launch_off_level_set_rejected")),
    Mutant("ray_tangency", "rays.py", "np.abs(c1) <= tol_tan", "np.abs(c1) <= tol_tan * 2",
           (f"{_RAYS}::TestContactGateThresholds::test_tangency",)),
    Mutant("identity_tolerance", "corner.py", "fam_max[f] <= tol_weak[f]", "fam_max[f] <= tol_weak[f] * 2",
           (f"{_CORNER_GATES}::test_identity_tolerance",)),
    Mutant("identity_nan", "corner.py", "float(np.max(block))", "max(0.0, *block.ravel().tolist())",
           (f"{_CORNER_GATES}::test_nan_off_the_faces_fails_the_identities",)),
    Mutant("layer_probe", "cli.py",
           'layer["max_mismatch"] <= max(0.01 * layer["max_layer_magnitude"], 10 * h2)',
           'layer["max_mismatch"] <= 2 * max(0.01 * layer["max_layer_magnitude"], 10 * h2)',
           (f"{_CORNER_GATES}::test_layer_probe_bound",)),
    Mutant("mollifier_decay", "cli.py", "ns[-1] <= decay_bound * ns[0]", "ns[-1] <= 2 * decay_bound * ns[0]",
           (f"{_CORNER_GATES}::test_mollifier_decay_bound",)),
    Mutant("mollifier_monotone", "cli.py", "n1 > n2", "n1 >= n2",
           (f"{_CORNER_GATES}::test_mollifier_decay_bound",)),
    Mutant("transfer_slack", "corner.py", "1e-12 * (1.0 + np.abs(rhs))", "1e-6 * (1.0 + np.abs(rhs))",
           (f"{_CORNER_GATES}::test_transfer_constant_at_and_below_the_supremum",)),
    Mutant("transfer_nan", "corner.py", "np.isnan(lhs) | np.isnan(denom)", "np.zeros(lhs.shape, dtype=bool)",
           (f"{_CORNER_GATES}::test_nan_in_the_open_quadrant_fails_the_transfer",)),
)


def sites(source: str, expression: str) -> list:
    """The expression nodes of source whose syntax tree equals expression's."""
    want = ast.dump(ast.parse(expression, mode="eval").body)
    return [node for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.expr) and ast.dump(node) == want]


def mutate(source: str, mutant: Mutant) -> str:
    """source with the one site of mutant.original replaced by the
    parenthesized mutant.mutated; ValueError unless there is exactly one."""
    found = sites(source, mutant.original)
    if len(found) != 1:
        raise ValueError(f"{mutant.name}: {mutant.original!r} matches {len(found)} sites "
                         f"in {mutant.module}, not one")
    node = found[0]
    data = source.encode()                  # ast columns are UTF-8 byte offsets
    starts = [0]
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    begin = starts[node.lineno - 1] + node.col_offset
    end = starts[node.end_lineno - 1] + node.end_col_offset
    return (data[:begin] + f"({mutant.mutated})".encode() + data[end:]).decode()


def run(mutant: Mutant) -> str:
    """'killed', 'survived', or an error, from the mutant's tests run
    against a mutated copy of the package."""
    with tempfile.TemporaryDirectory(prefix="mutate_gates_") as tmp:
        copy = Path(tmp) / "uccert"
        shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
        target = copy / mutant.module
        target.write_text(mutate(target.read_text(encoding="utf-8"), mutant), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=tmp, PYTHONDONTWRITEBYTECODE="1")
        where = subprocess.run([sys.executable, "-c", "import uccert; print(uccert.__file__)"],
                               env=env, cwd=ROOT, capture_output=True, text=True).stdout.strip()
        if not where.startswith(str(copy)):
            return f"error (uccert imported from {where or 'nowhere'}, not the copy)"
        code = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                               *mutant.tests],
                              env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL).returncode
    return {0: "survived", 1: "killed"}.get(code, f"error (pytest exit {code})")


def main() -> int:
    outcomes = {}
    for mutant in MUTANTS:
        outcomes[mutant.name] = run(mutant)
        print(f"{mutant.name:24s} {mutant.original!r} -> {mutant.mutated!r}: {outcomes[mutant.name]}",
              flush=True)
    killed = sum(o == "killed" for o in outcomes.values())
    print(f"{killed} of {len(outcomes)} mutants killed")
    return 0 if all(o in ("killed", "survived") for o in outcomes.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
