"""Closed-form expression trees for user-supplied scalar fields.

The driver accepts surface definitions like ``norm(x2, x3) - 1 - x1`` in its
config files.  Expressions are parsed into a small AST supporting +, -, *, /,
^ (numeric exponent), sqrt and norm over the coordinate variables x1..xn.
Each node has one method, ``ev(xs)``, over the coordinates ``xs``: floats for
one point, coordinate rows for a batch of points, or ``Jet`` variables of
either, which give exact gradients and Hessians by forward mode and keep
every downstream derivative supplier twice differentiable.
"""

from __future__ import annotations

import operator
import re
from typing import List, Tuple

from .errors import ContractViolation
from .fields import Jet, ScalarField, power


class Expr:
    def ev(self, xs):
        raise NotImplementedError


class Const(Expr):
    def __init__(self, v: float):
        self.v = float(v)

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


def norm_expr(args: List[Expr]) -> Expr:
    """sqrt of the sum of squares, built from the core nodes."""
    if not args:
        raise ContractViolation("norm() needs at least one argument")
    total: Expr = BinOp("*", args[0], args[0])
    for a in args[1:]:
        total = BinOp("+", total, BinOp("*", a, a))
    return Pow(total, 0.5)


_TOKEN_RE = re.compile(r"\s*(?:(\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
                       r"|([A-Za-z_][A-Za-z_0-9]*)|(\*\*)|([()+\-*/^,]))")


def _tokenize(text: str) -> List[Tuple[str, str]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ContractViolation(f"cannot tokenize expression at: {text[pos:pos + 20]!r}")
        num, name, dstar, op = m.groups()
        if num is not None:
            out.append(("num", num))
        elif name is not None:
            out.append(("name", name))
        elif dstar is not None:
            out.append(("op", "^"))
        else:
            out.append(("op", op))
        pos = m.end()
    out.append(("end", ""))
    return out


class _Parser:
    def __init__(self, tokens: List[Tuple[str, str]], dim: int):
        self.toks = tokens
        self.pos = 0
        self.dim = dim

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect_op(self, op: str):
        kind, val = self.next()
        if kind != "op" or val != op:
            raise ContractViolation(f"expected {op!r}, got {val!r}")

    def parse(self) -> Expr:
        e = self.expr()
        if self.peek()[0] != "end":
            raise ContractViolation(f"trailing input at {self.peek()[1]!r}")
        return e

    def expr(self) -> Expr:
        node = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.next()
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.unary()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            _, op = self.next()
            node = BinOp(op, node, self.unary())
        return node

    def _sign(self) -> float:
        """Product of the leading unary + and - signs."""
        sign = 1.0
        while self.peek() in (("op", "-"), ("op", "+")):
            if self.next()[1] == "-":
                sign = -sign
        return sign

    def unary(self) -> Expr:
        sign = self._sign()
        node = self.power()
        return BinOp("-", Const(0.0), node) if sign < 0 else node

    def power(self) -> Expr:
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.next()
            expo = self._numeric_exponent()
            return Pow(base, expo)
        return base

    def _numeric_exponent(self) -> float:
        sign = self._sign()
        kind, val = self.next()
        if kind != "num":
            raise ContractViolation("exponent must be a numeric literal")
        return sign * float(val)

    def atom(self) -> Expr:
        kind, val = self.next()
        if kind == "num":
            return Const(float(val))
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "name":
            if self.peek() == ("op", "("):
                self.next()
                args = [self.expr()]
                while self.peek() == ("op", ","):
                    self.next()
                    args.append(self.expr())
                self.expect_op(")")
                if val == "sqrt":
                    if len(args) != 1:
                        raise ContractViolation("sqrt() takes one argument")
                    return Pow(args[0], 0.5)
                if val == "norm":
                    return norm_expr(args)
                raise ContractViolation(f"unknown function {val!r}")
            m = re.fullmatch(r"x(\d+)", val)
            if not m:
                raise ContractViolation(f"unknown symbol {val!r}; variables are x1..x{self.dim}")
            return Var(int(m.group(1)) - 1, self.dim)
        raise ContractViolation(f"unexpected token {val!r}")


def parse_expression(text: str, dim: int) -> Expr:
    return _Parser(_tokenize(text), dim).parse()


def expression_field(text: str, dim: int, name: str = "") -> ScalarField:
    """Parse a closed-form expression into an analytic scalar field."""
    node = parse_expression(text, dim)

    def jet(x, order):
        if order:
            return node.ev(Jet.variables(x, order))
        return node.ev(x.tolist() if x.ndim == 1 else x.T)

    return ScalarField.from_jet(jet, name=name or text)
