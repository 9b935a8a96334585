import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from uccert.cli import main
from uccert.errors import ContractViolation
from uccert.expressions import (MAX_DEPTH, BinOp, Const, Expr, Pow, Var, expression_field,
                                norm_expr, parse_expression)
from uccert.fields import Jet, ScalarField


def fd_check(field, x, rtol=1e-5, atol=1e-7):
    bare = ScalarField(field)
    assert_allclose(field.grad(x), bare.grad(x), rtol=rtol, atol=atol)
    assert_allclose(field.hess(x), bare.hess(x), rtol=1e-3, atol=1e-4)


class TestParsing:
    def test_cone_surface_expression(self):
        f = expression_field("norm(x2, x3) - 1 - x1", 3)
        x = np.array([0.2, 0.8, 0.6])
        assert f(x) == pytest.approx(1.0 - 1.0 - 0.2)
        assert_allclose(f.grad(x), [-1.0, 0.8, 0.6], atol=1e-12)

    def test_precedence_and_power(self):
        f = expression_field("2*x1^2 + x2/4 - 3", 2)
        assert f([2.0, 8.0]) == pytest.approx(2 * 4 + 2 - 3)
        f2 = expression_field("x1**3", 1)
        assert f2([2.0]) == pytest.approx(8.0)
        assert f2.grad([2.0])[0] == pytest.approx(12.0)

    def test_unary_minus(self):
        f = expression_field("-x1 + +x2", 2)
        assert f([3.0, 5.0]) == pytest.approx(2.0)

    def test_sqrt(self):
        f = expression_field("sqrt(x1*x1 + x2*x2)", 2)
        assert f([3.0, 4.0]) == pytest.approx(5.0)
        assert_allclose(f.grad([3.0, 4.0]), [0.6, 0.8], atol=1e-12)

    def test_division_rules(self, rng):
        f = expression_field("(x1 + 2*x2) / (1 + x2^2)", 2)
        for _ in range(5):
            fd_check(f, rng.normal(size=2))

    def test_nested_norm_hessian(self, rng):
        f = expression_field("norm(x2, x3) - 1 - x1", 3)
        for _ in range(5):
            x = np.array([rng.normal(), 1.0 + 0.3 * rng.normal(), 0.3 * rng.normal()])
            fd_check(f, x)

    def test_scientific_notation(self):
        f = expression_field("1e-2 * x1 + 2.5E+1", 1)
        assert f([4.0]) == pytest.approx(0.04 + 25.0)


@pytest.mark.parametrize("text", [
    "x1 +", "x5", "x0", "y", "foo(x1)", "x1(2)", "x1 ^ x2", "x1 $ 2", "x1 # c", "x\u0661",
    "x1 % 2", "x1 // 2", "x1 < x2", "x1 is x2", "x1 in x2", "x1 and x2", "not x1",
    "x1 if x2 else x3", "1if x1 else 2", "x1.real", "x1[0]", "(x1, x2)", "x1,", "[x1]", "'x1'", "True", "x1 + None",
    "1j", "0x10", "1_0", "007", "norm(*x1)", "norm(x2, x3=1)", "norm(**x1)", "norm(x1,)",
    "(norm)(x1)", "norm()", "sqrt()", "sqrt(x1, x2)", "sqrt(x1)(x2)",
    "x1^(2)", "x1^-(2)", "x1^x2", "x1^True", "x1**2**3", "x1^2^3",
    pytest.param("(" * 201 + "x1" + ")" * 201, id="201-nested-parentheses")])
def test_rejected(text):
    with warnings.catch_warnings(record=True) as caught, pytest.raises(ContractViolation):
        warnings.simplefilter("always")
        parse_expression(text, 3)
    assert not caught     # Python's SyntaxWarning ("1if") would print a second line


def _shape(node):
    """A node's type and fields, floats bit for bit."""
    return (type(node),) + tuple(_shape(v) if isinstance(v, Expr) else v.hex() if isinstance(v, float) else v
                                 for v in vars(node).values())


def _depth(node):
    depth, level = 0, [node]
    while level:
        depth += 1
        level = list({id(c): c for n in level for c in vars(n).values() if isinstance(c, Expr)}.values())
    return depth


def _bits(node, xs):
    """The bits of node.ev(xs), or the type of the error it raises."""
    try:
        with np.errstate(all="ignore"):
            v = node.ev(xs)
    except (ArithmeticError, TypeError) as e:   # 1/0; a complex constant in a Jet
        return type(e)
    parts = (v.value, v.grad, v.hess) if isinstance(v, Jet) else (v,)
    return [(np.asarray(p).dtype, np.asarray(p).tobytes()) for p in parts]


ATOM, POWER, UNARY, TERM, SUM = 4, 3, 2, 1, 0   # how tightly a text's outermost form binds
_space = st.sampled_from(["", "", " ", "  ", "\t"])
_literals = st.from_regex(r"(0|[1-9][0-9]{0,2})(\.[0-9]{0,2})?([eE][+-]?[0-9])?|\.[0-9]{1,2}([eE][+-]?[0-9])?",
                          fullmatch=True)


def _operand(draw, children, at_least):
    """A child (text, tree, binding), parenthesized where it binds looser than
    at_least, and at random."""
    text, node, binding = draw(children)
    if binding < at_least or draw(st.integers(0, 5)) == 0:
        return f"({draw(_space)}{text}{draw(_space)})", node, ATOM
    return text, node, binding


@st.composite
def _binary(draw, children):
    op = draw(st.sampled_from("+-*/"))
    binding = SUM if op in "+-" else TERM
    a, b = _operand(draw, children, binding), _operand(draw, children, binding + 1)
    return f"{a[0]}{draw(_space)}{op}{draw(_space)}{b[0]}", BinOp(op, a[1], b[1]), binding


@st.composite
def _signs(draw, min_size=0):
    """A run of signs written together, and its product."""
    run = draw(st.lists(st.sampled_from("+-"), min_size=min_size, max_size=3))
    return "".join(s + draw(_space) for s in run), -1.0 if run.count("-") % 2 else 1.0


@st.composite
def _power(draw, children):
    base = _operand(draw, children, ATOM)
    (run, sign), lit = draw(_signs()), draw(_literals)
    spelling = draw(st.sampled_from(["^", "**"]))
    return f"{base[0]}{draw(_space)}{spelling}{draw(_space)}{run}{lit}", Pow(base[1], sign * float(lit)), POWER


@st.composite
def _signed(draw, children):
    (run, sign), e = draw(_signs(min_size=1)), _operand(draw, children, POWER)
    return run + e[0], (e[1] if sign > 0 else BinOp("-", Const(0.0), e[1])), UNARY


@st.composite
def _call(draw, children):
    name = draw(st.sampled_from(["sqrt", "norm"]))
    args = [_operand(draw, children, SUM) for _ in range(1 if name == "sqrt" else draw(st.integers(1, 3)))]
    text = f"{name}{draw(_space)}({draw(_space)}" + f",{draw(_space)}".join(a[0] for a in args) + ")"
    return text, (Pow(args[0][1], 0.5) if name == "sqrt" else norm_expr([a[1] for a in args])), ATOM


_leaves = st.one_of(_literals.map(lambda t: (t, Const(float(t)), ATOM)),
                    st.integers(0, 2).map(lambda i: (f"x{i + 1}", Var(i, 3), ATOM)))
_expressions = st.recursive(
    _leaves, lambda c: st.one_of(_binary(c), _power(c), _signed(c), _call(c)), max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(_expressions, _space, _space, st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
def test_parses_to_the_tree_it_was_written_from(expr, lead, trail, x):
    text, tree = lead + expr[0] + trail, expr[1]
    parsed = parse_expression(text, 3)
    assert _shape(parsed) == _shape(tree), text
    x = np.array(x)
    assert _bits(parsed, x.tolist()) == _bits(tree, x.tolist())
    assert _bits(parsed, Jet.variables(x, 2)) == _bits(tree, Jet.variables(x, 2))
    assert _bits(parsed, Jet.variables(x[None, :], 2)) == _bits(tree, Jet.variables(x[None, :], 2))


class TestDepthBound:
    SUM = "norm(x2, x3) - 1 - x1"      # 6 levels; each "+ 0*x1" adds one

    def _config(self, tmp_path, phi_plus):
        conf = tmp_path / "deep.conf"
        conf.write_text("[geometry]\ndim = 3\nmetric = diag(-1, 1, 1)\n"
                        f"phi_plus = {phi_plus}\nphi_minus = norm(x2, x3) - 1 + x1\n"
                        "box = -0.4:0.4, 0.6:1.4, -0.4:0.4\nx0 = 0, 1, 0\n")
        return str(conf)

    def test_tree_at_the_bound_certifies(self, tmp_path):
        phi_plus = self.SUM + " + 0*x1" * (MAX_DEPTH - 6)
        assert _depth(parse_expression(phi_plus, 3)) == MAX_DEPTH
        out = tmp_path / "o"
        assert main(["certify", "--config", self._config(tmp_path, phi_plus), "--lambda", "2",
                     "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["certificate"]["status"] == "certified"

    def test_one_level_deeper_is_a_usage_error(self, tmp_path, capsys):
        phi_plus = self.SUM + " + 0*x1" * (MAX_DEPTH - 5)
        assert main(["certify", "--config", self._config(tmp_path, phi_plus),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"nested deeper than {MAX_DEPTH} levels" in err and err.count("\n") == 1

    @pytest.mark.parametrize("text, levels", [
        ("x1", 1), ("-x1", 2), ("--x1", 1), ("-(-x1)", 3), ("sqrt(x1)", 2), ("x1^2", 2),
        ("norm(x1)", 3), ("norm(x1, x2)", 4), ("norm(x1, x2, x3)", 5), ("norm(x1, x2, -x3)", 5),
        ("norm(x1, -x2, x3)", 6), ("norm(-x1, x2, x3)", 6), ("norm(norm(x1, x2), x3)", 7)])
    def test_depth_counts_built_levels(self, text, levels, monkeypatch):
        assert _depth(parse_expression(text, 3)) == levels
        monkeypatch.setattr("uccert.expressions.MAX_DEPTH", levels)
        parse_expression(text, 3)
        monkeypatch.setattr("uccert.expressions.MAX_DEPTH", levels - 1)
        with pytest.raises(ContractViolation, match="nested deeper"):
            parse_expression(text, 3)
