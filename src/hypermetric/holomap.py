"""Expression trees for holomorphic maps C^n -> C^m.

Grammar: complex literals (0.5, 2i, 1+2i), variables z1..zn, the operators
+ - * / ^ (nonnegative integer exponents) and parentheses; components are
separated by ";".  Derivatives are forward-mode dual numbers over complex
scalars, exact to rounding; finite differences exist only as a test oracle.
"""

from __future__ import annotations

import dataclasses
import math
import re
from typing import Optional

import numpy as np

from .domains import (
    Domain,
    Point,
    as_point,
    as_vector,
    sample,
)
from .errors import ArgumentError, ParseError, SingularityError

SINGULARITY_FLOOR = 1e-300


def _mul(a, b):
    """a * b; arrays are multiplied part by part, rounded as numpy rounds two
    scalars, since its array loops for * and ^2 may fuse multiply-adds and
    differ in the last bit."""
    if np.ndim(a) == 0 and np.ndim(b) == 0:
        return a * b
    ar, ai, br, bi = np.real(a), np.imag(a), np.real(b), np.imag(b)
    re = ar * br - ai * bi
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = ar * bi + ai * br
    return out


def _pow(b, k: int):
    """b**k, squaring through _mul."""
    return _mul(b, b) if k == 2 else b**k


class Expr:
    """Base class of AST nodes; immutable after construction."""

    def eval(self, z: np.ndarray) -> complex:
        """Value at z of shape (n,), or values at the N columns of z of shape (n, N)."""
        raise NotImplementedError

    def eval_dual(self, z: np.ndarray, v: np.ndarray) -> tuple:
        """(value, directional derivative along v) at z of shape (n,), or both
        at the N columns of z and v of shape (n, N)."""
        raise NotImplementedError

    # precedence levels: 0 additive, 1 multiplicative, 2 unary, 3 power, 4 atom
    def precedence(self) -> int:
        raise NotImplementedError

    def to_text(self) -> str:
        raise NotImplementedError

    def _child_text(self, child: "Expr", min_prec: int) -> str:
        t = child.to_text()
        if child.precedence() < min_prec:
            return f"({t})"
        return t


def _fmt_real(x: float) -> str:
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


@dataclasses.dataclass(frozen=True)
class Const(Expr):
    value: complex

    def eval(self, z):
        return self.value

    def eval_dual(self, z, v):
        return self.value, 0j

    def precedence(self):
        c = self.value
        if c.real != 0 and c.imag != 0:
            return 0
        if c.real < 0 or c.imag < 0:
            return 2
        return 4

    def to_text(self):
        c = self.value
        if c.imag == 0:
            return _fmt_real(c.real)
        if c.real == 0:
            return _fmt_real(c.imag) + "i"
        sign = "+" if c.imag > 0 else "-"
        return f"{_fmt_real(c.real)}{sign}{_fmt_real(abs(c.imag))}i"


@dataclasses.dataclass(frozen=True)
class Var(Expr):
    index: int  # zero-based

    def eval(self, z):
        return z[self.index]

    def eval_dual(self, z, v):
        return z[self.index], v[self.index]

    def precedence(self):
        return 4

    def to_text(self):
        return f"z{self.index + 1}"


@dataclasses.dataclass(frozen=True)
class Neg(Expr):
    a: Expr

    def eval(self, z):
        return -self.a.eval(z)

    def eval_dual(self, z, v):
        val, dv = self.a.eval_dual(z, v)
        return -val, -dv

    def precedence(self):
        return 2

    def to_text(self):
        return "-" + self._child_text(self.a, 2)


@dataclasses.dataclass(frozen=True)
class Add(Expr):
    a: Expr
    b: Expr

    def eval(self, z):
        return self.a.eval(z) + self.b.eval(z)

    def eval_dual(self, z, v):
        av, ad = self.a.eval_dual(z, v)
        bv, bd = self.b.eval_dual(z, v)
        return av + bv, ad + bd

    def precedence(self):
        return 0

    def to_text(self):
        return self._child_text(self.a, 0) + " + " + self._child_text(self.b, 1)


@dataclasses.dataclass(frozen=True)
class Sub(Expr):
    a: Expr
    b: Expr

    def eval(self, z):
        return self.a.eval(z) - self.b.eval(z)

    def eval_dual(self, z, v):
        av, ad = self.a.eval_dual(z, v)
        bv, bd = self.b.eval_dual(z, v)
        return av - bv, ad - bd

    def precedence(self):
        return 0

    def to_text(self):
        return self._child_text(self.a, 0) + " - " + self._child_text(self.b, 1)


@dataclasses.dataclass(frozen=True)
class Mul(Expr):
    a: Expr
    b: Expr

    def eval(self, z):
        return _mul(self.a.eval(z), self.b.eval(z))

    def eval_dual(self, z, v):
        av, ad = self.a.eval_dual(z, v)
        bv, bd = self.b.eval_dual(z, v)
        return _mul(av, bv), _mul(ad, bv) + _mul(av, bd)

    def precedence(self):
        return 1

    def to_text(self):
        return self._child_text(self.a, 1) + "*" + self._child_text(self.b, 2)


@dataclasses.dataclass(frozen=True)
class Div(Expr):
    a: Expr
    b: Expr

    def eval(self, z):
        den = self.b.eval(z)
        if np.any(np.abs(den) < SINGULARITY_FLOOR):
            raise SingularityError("division by a near-zero complex value")
        return self.a.eval(z) / den

    def eval_dual(self, z, v):
        bv, bd = self.b.eval_dual(z, v)
        if np.any(np.abs(bv) < SINGULARITY_FLOOR):
            raise SingularityError("division by a near-zero complex value")
        av, ad = self.a.eval_dual(z, v)
        q = av / bv
        return q, (ad - _mul(q, bd)) / bv

    def precedence(self):
        return 1

    def to_text(self):
        return self._child_text(self.a, 1) + "/" + self._child_text(self.b, 2)


@dataclasses.dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int

    def eval(self, z):
        return _pow(self.base.eval(z), self.exponent)

    def eval_dual(self, z, v):
        bv, bd = self.base.eval_dual(z, v)
        k = self.exponent
        if k == 0:
            return 1 + 0j, 0j
        return _pow(bv, k), _mul(k * _pow(bv, k - 1), bd)

    def precedence(self):
        return 3

    def to_text(self):
        return self._child_text(self.base, 4) + f"^{self.exponent}"


# Smart constructors fold constant subtrees (except quotients, whose
# zero denominators must surface at evaluation time, not parse time).


def add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    return Div(a, b)


def neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    return Neg(a)


def pow_(a: Expr, k: int) -> Expr:
    if k < 0:
        raise ArgumentError("exponent must be a nonnegative integer")
    if isinstance(a, Const):
        return Const(a.value**k)
    return Pow(a, k)


@dataclasses.dataclass(frozen=True)
class HoloMap:
    """A holomorphic map C^n -> C^m given by m expression components."""

    n: int
    components: tuple

    @property
    def m(self) -> int:
        return len(self.components)

    def eval_array(self, z: np.ndarray) -> np.ndarray:
        """f(z) of shape (m,) for z of shape (n,); column-wise (m, N) for (n, N)."""
        out = np.empty((self.m,) + np.shape(z)[1:], dtype=complex)
        for i, c in enumerate(self.components):
            out[i] = c.eval(z)  # a constant component broadcasts
        return out

    def eval(self, p) -> Point:
        p = as_point(p)
        if p.dim != self.n:
            raise ArgumentError(f"map expects dimension {self.n}, got {p.dim}")
        return Point(self.eval_array(p.as_array()))

    def jvp(self, p, v) -> np.ndarray:
        """Directional derivative f'(p)·v via dual-number propagation."""
        p = as_point(p)
        if p.dim != self.n:
            raise ArgumentError(f"map expects dimension {self.n}, got {p.dim}")
        varr = as_vector(v, self.n)
        z = p.as_array()
        return np.array(
            [c.eval_dual(z, varr)[1] for c in self.components], dtype=complex
        )

    def to_text(self) -> str:
        return "; ".join(c.to_text() for c in self.components)


def identity_map(n: int) -> HoloMap:
    return HoloMap(n, tuple(Var(j) for j in range(n)))


def constant_map(values, n: int) -> HoloMap:
    return HoloMap(n, tuple(Const(complex(c)) for c in values))


# ---------------------------------------------------------------------------
# parser

_TOKEN_RE = re.compile(
    r"""
    (?P<num>(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?i?|i)
  | (?P<var>z\d+)
  | (?P<op>[-+*/^();])
  | (?P<ws>\s+)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        tokens.append((kind, m.group(), m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, n: int):
        self.text = text
        self.n = n
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, val, off = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", off)
        return self.advance()

    def parse_map(self) -> HoloMap:
        comps = [self.parse_expr()]
        while self.peek()[0] == "op" and self.peek()[1] == ";":
            self.advance()
            comps.append(self.parse_expr())
        kind, val, off = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {val!r}", off)
        return HoloMap(self.n, tuple(comps))

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.parse_term()
                node = add(node, rhs) if val == "+" else sub(node, rhs)
            else:
                return node

    def parse_term(self) -> Expr:
        node = self.parse_unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                rhs = self.parse_unary()
                node = mul(node, rhs) if val == "*" else div(node, rhs)
            else:
                return node

    def parse_unary(self) -> Expr:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return neg(self.parse_unary())
        if kind == "op" and val == "+":
            self.advance()
            return self.parse_unary()
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            k = self.parse_exponent()
            return pow_(base, k)
        return base

    def parse_exponent(self) -> int:
        kind, val, off = self.peek()
        if kind != "num" or val.endswith("i") or "." in val or "e" in val.lower():
            raise ParseError("exponent must be a nonnegative integer", off)
        self.advance()
        return int(val)

    def parse_atom(self) -> Expr:
        kind, val, off = self.advance()
        if kind == "num":
            if val == "i":
                return Const(1j)
            if val.endswith("i"):
                return Const(complex(0.0, float(val[:-1])))
            return Const(complex(float(val)))
        if kind == "var":
            j = int(val[1:])
            if not (1 <= j <= self.n):
                raise ParseError(
                    f"unknown variable {val!r} for dimension {self.n}", off
                )
            return Var(j - 1)
        if kind == "op" and val == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {val!r}" if val else "unexpected end of input", off)


def parse(text: str, n: int) -> HoloMap:
    """Parse map source text into a HoloMap of input dimension n."""
    if n < 1:
        raise ArgumentError("dimension must be >= 1")
    return _Parser(text, n).parse_map()


def compose(f: HoloMap, g: HoloMap) -> HoloMap:
    """AST substitution so that compose(f, g)(p) = f(g(p)) exactly."""
    if g.m != f.n:
        raise ArgumentError(
            f"cannot compose: g has output dimension {g.m}, f expects {f.n}"
        )
    subs = g.components

    def rewrite(e: Expr) -> Expr:
        if isinstance(e, Const):
            return e
        if isinstance(e, Var):
            return subs[e.index]
        if isinstance(e, Neg):
            return neg(rewrite(e.a))
        if isinstance(e, Add):
            return add(rewrite(e.a), rewrite(e.b))
        if isinstance(e, Sub):
            return sub(rewrite(e.a), rewrite(e.b))
        if isinstance(e, Mul):
            return mul(rewrite(e.a), rewrite(e.b))
        if isinstance(e, Div):
            return div(rewrite(e.a), rewrite(e.b))
        if isinstance(e, Pow):
            return pow_(rewrite(e.base), e.exponent)
        raise TypeError(f"unknown node {e!r}")

    return HoloMap(g.n, tuple(rewrite(c) for c in f.components))


# ---------------------------------------------------------------------------
# range evidence

SUPPORTED = "supported"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"


@dataclasses.dataclass(frozen=True)
class RangeEvidence:
    """Sampled evidence that f maps X into U with positive margin."""

    checked: int
    worst_margin: float
    verdict: str
    witness: Optional[Point] = None

    def to_json(self) -> dict:
        return {
            "checked": self.checked,
            "worst_margin": self.worst_margin,
            "verdict": self.verdict,
        }


def range_check(
    f: HoloMap,
    X: Domain,
    U: Domain,
    samples: int = 512,
    seed: int = 0,
    margin_floor: Optional[float] = None,
) -> RangeEvidence:
    """Evidence (not proof) that f(X) lies in U with a safety margin."""
    if f.n != X.dim or f.m != U.dim:
        raise ArgumentError("map dimensions do not match the domains")
    if margin_floor is None:
        margin_floor = 1e-7 * U.box_scale()
    pts = sample(X, samples, seed)
    images = f.eval_array(np.array([p.as_array() for p in pts]).T).T
    inside = U.contains_many(images)
    if not inside.all():
        return RangeEvidence(len(pts), -math.inf, REFUTED, witness=pts[np.argmin(inside)])
    worst = float(U.boundary_distance_many(images).min())
    verdict = SUPPORTED if worst >= margin_floor else INCONCLUSIVE
    return RangeEvidence(len(pts), worst, verdict)


__all__ = [
    "Expr",
    "Const",
    "Var",
    "Neg",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Pow",
    "HoloMap",
    "RangeEvidence",
    "parse",
    "compose",
    "range_check",
    "identity_map",
    "constant_map",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "pow_",
    "SUPPORTED",
    "REFUTED",
    "INCONCLUSIVE",
]
