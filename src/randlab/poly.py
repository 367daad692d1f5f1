"""Univariate polynomials over the rationals and Sturm-based sign decisions.

The only hard question asked of this module is: is q(p) >= 0 for every p in
[0, 1]?  That is decided completely (tangential zeros included) by counting
real roots of the squarefree part with Sturm sequences and sampling the sign
between consecutive roots, all in exact rational arithmetic.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence


@dataclass(frozen=True)
class UnivariatePoly:
    """Coefficients in ascending degree order, trailing zeros trimmed."""

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Sequence[Fraction]):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x: Fraction) -> Fraction:
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "UnivariatePoly") -> "UnivariatePoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UnivariatePoly(
            [
                (self.coeffs[i] if i < len(self.coeffs) else 0)
                + (other.coeffs[i] if i < len(other.coeffs) else 0)
                for i in range(n)
            ]
        )

    def __neg__(self) -> "UnivariatePoly":
        return UnivariatePoly([-c for c in self.coeffs])

    def __sub__(self, other: "UnivariatePoly") -> "UnivariatePoly":
        return self + (-other)

    def __mul__(self, other: "UnivariatePoly") -> "UnivariatePoly":
        if self.is_zero() or other.is_zero():
            return UnivariatePoly([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UnivariatePoly(out)

    def scale(self, c: Fraction) -> "UnivariatePoly":
        return UnivariatePoly([Fraction(c) * a for a in self.coeffs])

    def derivative(self) -> "UnivariatePoly":
        return UnivariatePoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def divmod(self, other: "UnivariatePoly") -> tuple["UnivariatePoly", "UnivariatePoly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        quotient = [Fraction(0)] * max(len(self.coeffs) - len(other.coeffs) + 1, 1)
        rem = list(self.coeffs)
        d = other.degree
        lead = other.coeffs[-1]
        while len(rem) - 1 >= d and any(c != 0 for c in rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < d:
                break
            shift = len(rem) - 1 - d
            factor = rem[-1] / lead
            quotient[shift] += factor
            for i in range(d + 1):
                rem[shift + i] -= factor * other.coeffs[i]
        return UnivariatePoly(quotient), UnivariatePoly(rem)

    def __repr__(self) -> str:
        return f"UnivariatePoly({list(self.coeffs)})"


def constant(c: Fraction) -> UnivariatePoly:
    return UnivariatePoly([Fraction(c)])


def poly_gcd(a: UnivariatePoly, b: UnivariatePoly) -> UnivariatePoly:
    while not b.is_zero():
        _, r = a.divmod(b)
        a, b = b, r
    if a.is_zero():
        return a
    return a.scale(1 / a.coeffs[-1])


def squarefree_part(p: UnivariatePoly) -> UnivariatePoly:
    if p.degree <= 0:
        return p
    g = poly_gcd(p, p.derivative())
    if g.degree <= 0:
        return p
    q, r = p.divmod(g)
    if not r.is_zero():
        raise AssertionError("gcd(p, p') does not divide p")
    return q


def sturm_chain(p: UnivariatePoly) -> list[UnivariatePoly]:
    chain = [p, p.derivative()]
    while not chain[-1].is_zero() and chain[-1].degree > 0:
        _, r = chain[-2].divmod(chain[-1])
        if r.is_zero():
            break
        chain.append(-r)
    return [q for q in chain if not q.is_zero()]


def sign_variations(chain: Sequence[UnivariatePoly], x: Fraction) -> int:
    signs = [q(x) for q in chain]
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))


def count_roots_halfopen(chain: Sequence[UnivariatePoly], a: Fraction, b: Fraction) -> int:
    """Distinct real roots of chain[0] in (a, b], assuming chain[0] squarefree."""
    if a >= b:
        return 0
    return sign_variations(chain, a) - sign_variations(chain, b)


def count_roots_open(chain: Sequence[UnivariatePoly], a: Fraction, b: Fraction) -> int:
    n = count_roots_halfopen(chain, a, b)
    if chain and chain[0](b) == 0:
        n -= 1
    return n


def nonneg_on_unit_interval(p: UnivariatePoly) -> tuple[bool, Optional[Fraction]]:
    """Decide p(x) >= 0 for all x in [0, 1]; on failure return a witness x.

    Sign changes can only happen across roots of the squarefree part, so the
    interval is bisected until every piece either contains no root (one
    sample decides it) or is bracketed by strictly positive endpoint values
    around a single root (where no dip below zero is possible).
    """
    if p.is_zero():
        return True, None
    zero, one = Fraction(0), Fraction(1)
    if p(zero) < 0:
        return False, zero
    if p(one) < 0:
        return False, one
    sf = squarefree_part(p)
    chain = sturm_chain(sf)

    stack = [(zero, one)]
    while stack:
        a, b = stack.pop()
        if p(a) < 0:
            return False, a
        if p(b) < 0:
            return False, b
        n = count_roots_open(chain, a, b)
        mid = (a + b) / 2
        if n == 0:
            v = p(mid)
            if v < 0:
                return False, mid
            continue
        if n == 1 and p(a) > 0 and p(b) > 0:
            # A single root with strictly positive brackets: the sign is
            # constant on each side, hence nonnegative throughout.
            continue
        stack.append((a, mid))
        stack.append((mid, b))
    return True, None
