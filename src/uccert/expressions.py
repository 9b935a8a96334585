"""Closed-form expression trees for user-supplied scalar fields.

The driver accepts surface definitions like ``norm(x2, x3) - 1 - x1`` in its
config files.  ``parse_expression`` reads them with Python's parser (``ast``;
the text is never evaluated) and builds, from an allow-list, a small tree over
the coordinates x1..xn: decimal literals, + - * / and signs with Python's
precedence, ``^`` or ``**`` to a signed numeric literal, sqrt and norm.  Any
other form, and a tree deeper than ``MAX_DEPTH``, is a ``ContractViolation``.
Each node has one method, ``ev(xs)``, over the coordinates ``xs``: floats for
one point, coordinate rows for a batch of points, or ``Jet`` variables of
either, which give exact gradients and Hessians by forward mode and keep
every downstream derivative supplier twice differentiable.
"""

from __future__ import annotations

import ast
import operator
import re
import warnings

import numpy as np

from .errors import ContractViolation
from .fields import Jet, ScalarField, power


class Expr:
    def ev(self, xs):
        raise NotImplementedError


class Const(Expr):
    """A literal, held as a numpy scalar: arithmetic on constants alone
    follows IEEE (1/0 is inf, 0^-1 is inf, inf*0 is nan) where Python floats
    would raise."""

    def __init__(self, v: float):
        self.v = np.float64(v)

    def ev(self, xs):
        return self.v


class Var(Expr):
    def __init__(self, idx: int, dim: int):
        if not 0 <= idx < dim:
            raise ContractViolation(f"variable x{idx + 1} out of range for dim {dim}")
        self.idx = idx

    def ev(self, xs):
        return xs[self.idx]


class BinOp(Expr):
    """a op b for one of + - * /."""

    OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}

    def __init__(self, op: str, a: Expr, b: Expr):
        self.op, self.a, self.b = self.OPS[op], a, b

    def ev(self, xs):
        return self.op(self.a.ev(xs), self.b.ev(xs))


class Pow(Expr):
    def __init__(self, a: Expr, p: float):
        self.a = a
        self.p = float(p)

    def ev(self, xs):
        return power(self.a.ev(xs), self.p)


def norm_expr(args: list) -> Expr:
    """sqrt of the sum of squares, built from the core nodes."""
    if not args:
        raise ContractViolation("norm() needs at least one argument")
    total: Expr = BinOp("*", args[0], args[0])
    for a in args[1:]:
        total = BinOp("+", total, BinOp("*", a, a))
    return Pow(total, 0.5)


MAX_DEPTH = 500   # levels of a built tree; ``ev`` recurses once per level

_OUTSIDE = re.compile(r"[^0-9A-Za-z_.()+\-*/, ]")
_DECIMAL = re.compile(r"\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?")
_BINOPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}
_SIGNS = (ast.UAdd, ast.USub)


def parse_expression(text: str, dim: int) -> Expr:
    # collapsed whitespace keeps the text on one line, so that column offsets
    # index it, and drops a leading indent, which Python would reject
    src = " ".join(text.replace("^", "**").split())
    bad = _OUTSIDE.search(src)
    if bad:
        raise ContractViolation(f"character {bad.group()!r} is not allowed in an expression")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", SyntaxWarning)
            body = ast.parse(src, mode="eval").body
    except (SyntaxError, RecursionError, MemoryError) as e:   # the last two: nested too deeply
        raise ContractViolation(f"cannot parse expression: {getattr(e, 'msg', 'nested too deeply')}") from e

    def sign_run(node):
        """The product of the signs written together, as in ``--x1``, and the
        operand after them; a parenthesis ends the run, so ``-(-x1)`` has two."""
        sign = 1.0
        while isinstance(node, ast.UnaryOp) and isinstance(node.op, _SIGNS):
            sign *= -1.0 if isinstance(node.op, ast.USub) else 1.0
            if src[node.col_offset + 1:].lstrip().startswith("("):
                return sign, node.operand
            node = node.operand
        return sign, node

    def literal(node) -> float:
        digits = src[node.col_offset:node.end_col_offset]
        if not _DECIMAL.fullmatch(digits):
            raise ContractViolation(f"unsupported literal {digits!r}")
        return float(digits)

    def build(node, level: int) -> Expr:
        if level > MAX_DEPTH:
            raise ContractViolation(f"expression is nested deeper than {MAX_DEPTH} levels")
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            return BinOp(_BINOPS[type(node.op)], build(node.left, level + 1), build(node.right, level + 1))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            sign, lit = sign_run(node.right)
            if not isinstance(lit, ast.Constant) or "(" in src[node.left.end_col_offset:lit.col_offset]:
                raise ContractViolation("exponent must be a numeric literal")
            return Pow(build(node.left, level + 1), sign * literal(lit))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, _SIGNS):
            sign, node = sign_run(node)
            return build(node, level) if sign > 0 else BinOp("-", Const(0.0), build(node, level + 1))
        if isinstance(node, ast.Constant):
            return Const(literal(node))
        if isinstance(node, ast.Name):
            m = re.fullmatch(r"x(\d+)", node.id)
            if not m:
                raise ContractViolation(f"unknown symbol {node.id!r}; variables are x1..x{dim}")
            return Var(int(m.group(1)) - 1, dim)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.col_offset == node.col_offset and not node.keywords
                and not (node.args and "," in src[node.args[-1].end_col_offset:node.end_col_offset])):
            name, args = node.func.id, node.args
            if name == "sqrt":
                if len(args) != 1:
                    raise ContractViolation("sqrt() takes one argument")
                return Pow(build(args[0], level + 1), 0.5)
            if name == "norm":
                # norm_expr puts argument i under the Pow, k - max(i, 1) sums and a product
                k = len(args)
                return norm_expr([build(a, level + k + 2 - max(i, 1)) for i, a in enumerate(args)])
            raise ContractViolation(f"unknown function {name!r}")
        raise ContractViolation(f"unsupported syntax {src[node.col_offset:node.end_col_offset]!r}")

    return build(body, 1)


def expression_field(text: str, dim: int, name: str = "") -> ScalarField:
    """Parse a closed-form expression into an analytic scalar field."""
    node = parse_expression(text, dim)

    def jet(x, order):
        # a constant that divides by zero or overflows is inf or nan, as an
        # array is at a batch of points; the callers' finiteness gates name it
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if order:
                return node.ev(Jet.variables(x, order))
            return node.ev(x.tolist() if x.ndim == 1 else x.T)

    return ScalarField(jet, name=name or text)
