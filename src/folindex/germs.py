"""Bivariate polynomial germs over Q: parsing and local properties.

Input germs are polynomials in x, y with rational coefficients, written
with explicit operators: `x*y + y^2 - 3/2*x^3` (`**` works as well as `^`).
The parser is a small recursive-descent affair so that syntax errors carry
the offending position; no implicit multiplication, no floats, no names
other than x and y.  Division is constant division only and exponents are
literal nonnegative integers — anything else is not a polynomial germ.

Germ wraps a sympy Poly in (x, y) and answers the local questions the
front-end needs: the multiplicity at the origin and the members of the
pencil spanned with another germ.
`substitute` is the one linear-substitution kernel: the oracle's shears
and the resolution tower's translations both call it.
"""

import string
from fractions import Fraction

import sympy
from sympy import QQ, Poly

from .errors import GermSyntaxError, InputError, NonPolynomial

X, Y = sympy.symbols("x y")

_OPS = {"+", "-", "*", "/", "^", "(", ")"}


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in " \t\n":
            i += 1
            continue
        if c in string.digits:
            j = i
            while j < n and text[j] in string.digits:
                j += 1
            tokens.append(("num", int(text[i:j]), i))
            i = j
        elif c in string.ascii_letters or c == "_":
            j = i
            while j < n and (text[j] in string.ascii_letters + string.digits
                             or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        elif c == "*" and i + 1 < n and text[i + 1] == "*":
            tokens.append(("op", "^", i))
            i += 2
        elif c in _OPS:
            tokens.append(("op", c, i))
            i += 1
        else:
            raise GermSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    """Pratt parser producing {(deg_x, deg_y): Fraction} dictionaries."""

    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, value, at = self.next()
        if kind != "op" or value != op:
            raise GermSyntaxError(f"expected {op!r}", at)

    def parse(self):
        result = self.expr(0)
        kind, value, at = self.peek()
        if kind != "end":
            raise GermSyntaxError(f"unexpected {value!r}", at)
        return result

    def expr(self, min_prec):
        left = self.atom()
        while True:
            kind, op, at = self.peek()
            if kind != "op" or op in ("(", ")"):
                break
            prec = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}.get(op)
            if prec is None or prec < min_prec:
                break
            self.next()
            if op == "^":
                exponent = self.atom_exponent(at)
                left = _pow(left, exponent, at)
                continue
            right = self.expr(prec + 1)
            if op == "+":
                left = _add(left, right)
            elif op == "-":
                left = _add(left, _neg(right))
            elif op == "*":
                left = _mul(left, right)
            else:
                left = _div(left, right, at)
        return left

    def atom(self):
        kind, value, at = self.next()
        if kind == "num":
            return {(0, 0): Fraction(value)} if value else {}
        if kind == "name":
            if value == "x":
                return {(1, 0): Fraction(1)}
            if value == "y":
                return {(0, 1): Fraction(1)}
            raise GermSyntaxError(f"unknown name {value!r}; germs use x and y", at)
        if kind == "op" and value == "(":
            inner = self.expr(0)
            self.expect_op(")")
            return inner
        if kind == "op" and value == "-":
            return _neg(self.expr(25))   # binds tighter than * but looser than ^
        if kind == "op" and value == "+":
            return self.expr(25)
        raise GermSyntaxError(f"unexpected {value!r}", at)

    def atom_exponent(self, at):
        # exponents must be literal nonnegative integers, parenthesized or not
        kind, value, pos = self.peek()
        if kind == "num":
            self.next()
            return value
        if kind == "op" and value == "(":
            self.next()
            kind, value, pos = self.next()
            if kind == "num":
                self.expect_op(")")
                return value
        raise NonPolynomial(f"exponent at position {at} must be a literal "
                            "nonnegative integer")


def _add(p, q):
    out = dict(p)
    for k, v in q.items():
        s = out.get(k, 0) + v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def _neg(p):
    return {k: -v for k, v in p.items()}


def _mul(p, q):
    out = {}
    for (a, b), u in p.items():
        for (c, d), v in q.items():
            k = (a + c, b + d)
            s = out.get(k, 0) + u * v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def _div(p, q, at):
    if set(q) - {(0, 0)}:
        raise NonPolynomial(f"division at position {at} is by a non-constant; "
                            "germs are polynomials")
    if not q:
        raise GermSyntaxError("division by zero", at)
    c = q[(0, 0)]
    return {k: v / c for k, v in p.items()}


def _pow(p, e, at):
    out = {(0, 0): Fraction(1)}
    for _ in range(e):
        out = _mul(out, p)
    return out


def parse_germ(text):
    """Parse a polynomial germ; returns {(deg_x, deg_y): Fraction}."""
    if not isinstance(text, str) or not text.strip():
        raise GermSyntaxError("empty germ", 0)
    return _Parser(text).parse()


def substitute(p, lx, ly):
    """p(lx, ly) for Polys lx, ly in p's ring, from cached powers.

    x and y are found through p.gens, so the oracle's (y, x, t) and the
    tower's (x, y) both work; coefficients stay in p's domain."""
    if p.is_zero:
        return p
    ix, iy = p.gens.index(X), p.gens.index(Y)
    xs, ys = [p.one], [p.one]
    for _ in range(p.degree(X)):
        xs.append(xs[-1] * lx)
    for _ in range(p.degree(Y)):
        ys.append(ys[-1] * ly)
    out = p.zero
    for monom, coeff in p.as_dict(native=True).items():
        rest = list(monom)
        rest[ix] = rest[iy] = 0
        term = Poly.from_dict({tuple(rest): coeff}, p.gens, domain=p.domain)
        out += term * xs[monom[ix]] * ys[monom[iy]]
    return out


class Germ:
    """A polynomial germ at the origin of the (x, y) plane."""

    def __init__(self, poly, name=None):
        if isinstance(poly, str):
            self.poly = Poly.from_dict(
                {m: QQ(v.numerator, v.denominator)
                 for m, v in parse_germ(poly).items()}, X, Y, domain=QQ)
        elif isinstance(poly, sympy.Poly):
            self.poly = sympy.Poly(poly, X, Y)
        else:
            self.poly = sympy.Poly(sympy.sympify(poly), X, Y, domain="QQ")
        if self.poly.is_zero:
            raise InputError("the zero polynomial is not a germ")
        self.name = name

    @property
    def expr(self):
        return self.poly.as_expr()

    def __repr__(self):
        label = f" {self.name}" if self.name else ""
        return f"<Germ{label}: {self.expr}>"

    def __eq__(self, other):
        return isinstance(other, Germ) and self.poly == other.poly

    def order(self):
        """Multiplicity at the origin: least total degree of a monomial."""
        return min(a + b for a, b in self.poly.monoms())

    def combine(self, other, t):
        """The member f + t*other of the pencil spanned with another germ."""
        return Germ(self.poly + t * other.poly)
