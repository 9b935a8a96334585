"""The gate mutation tool's patterns against today's source.  The tool
itself runs tests on each mutant, so it stays out of the suite."""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutate_gates", ROOT / "tools" / "mutate_gates.py")
mutate_gates = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutate_gates)

MUTANTS = {m.name: m for m in mutate_gates.MUTANTS}


def _source(mutant):
    return (mutate_gates.PACKAGE / mutant.module).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_pattern_matches_one_site_and_the_mutant_replaces_it(name):
    mutant = MUTANTS[name]
    source = _source(mutant)
    assert len(mutate_gates.sites(source, mutant.original)) == 1
    mutated = mutate_gates.mutate(source, mutant)
    assert mutate_gates.sites(mutated, mutant.original) == []
    assert len(mutate_gates.sites(mutated, mutant.mutated)) == 1
    assert len(mutated.splitlines()) == len(source.splitlines())


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_listed_tests_exist(name):
    for node_id in MUTANTS[name].tests:
        path, *names = node_id.split("::")
        scope = ast.parse((ROOT / path).read_text(encoding="utf-8"))
        for part in names:
            scope = next(n for n in scope.body if getattr(n, "name", None) == part)


def test_a_pattern_without_exactly_one_site_is_refused():
    mutant = MUTANTS["margin"]._replace(original="tol_pos")
    with pytest.raises(ValueError, match="matches .* sites"):
        mutate_gates.mutate(_source(mutant), mutant)
