"""Sturm-based sign decisions on integer coefficient rows.

A polynomial is a `list[int]`, ascending in degree with trailing zeros
trimmed.  Whether q(p) >= 0 for every p in [0, 1] is decided completely
(tangential zeros included) by Sturm root counts of the squarefree part and
a sign sample between roots.  Pseudo-divisions multiply by powers of
|leading coefficient| and Sturm rows are divided by their content, so each
row is a positive multiple of its rational counterpart with the same signs.
A `Fraction` is only a point of [0, 1]: a bisection endpoint or the witness.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Optional, Sequence


def _trimmed(row: Sequence[int]) -> list[int]:
    out = list(row)
    while out and not out[-1]:
        out.pop()
    return out


def _primitive(row: list[int]) -> list[int]:
    g = gcd(*row)
    return [c // g for c in row] if g > 1 else row


def _derivative(row: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(row)][1:]


def _pseudo_divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """(q, r) with |lc(b)|^k a = q b + r and deg r < deg b, for some k >= 0.
    The multiplier is positive, so r keeps the rational remainder's signs."""
    lead, sign, d = abs(b[-1]), (1 if b[-1] > 0 else -1), len(b) - 1
    q, r = [0] * (len(a) - d), list(a)
    while len(r) > d:
        shift, top = len(r) - 1 - d, sign * r[-1]
        q = [lead * c for c in q]
        q[shift] += top
        r = [lead * c for c in r]
        for i, c in enumerate(b):
            r[shift + i] -= top * c
        r = _trimmed(r)
    return q, r


def _sign_at(row: list[int], x: Fraction) -> int:
    """Sign of row(u/v) as the sign of sum_i c_i u^i v^(d-i), with v > 0."""
    u, v = x.numerator, x.denominator
    acc, scale = 0, 1
    for c in reversed(row):
        acc = acc * u + c * scale
        scale *= v
    return (acc > 0) - (acc < 0)


def squarefree_part(p: list[int]) -> list[int]:
    """p / gcd(p, p') up to a nonzero constant: p's distinct roots, each simple."""
    a, b = p, _derivative(p)
    while b:
        a, b = b, _primitive(_pseudo_divmod(a, b)[1])
    if len(a) <= 1:
        return p
    q, r = _pseudo_divmod(p, a)
    if r:
        raise AssertionError("gcd(p, p') does not divide p")
    return _primitive(q)


def sturm_chain(p: list[int]) -> list[list[int]]:
    """p, p' and the negated remainders, each a positive multiple of the
    rational Sturm sequence's row."""
    chain = [p, _derivative(p)]
    while len(chain[-1]) > 1 and (r := _pseudo_divmod(chain[-2], chain[-1])[1]):
        chain.append(_primitive([-c for c in r]))
    return [q for q in chain if q]


def _variations(chain: Sequence[list[int]], x: Fraction) -> int:
    signs = [s for s in (_sign_at(q, x) for q in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots_open(chain: Sequence[list[int]], a: Fraction, b: Fraction) -> int:
    """Distinct real roots of chain[0] in (a, b), for a < b and chain[0] squarefree."""
    n = _variations(chain, a) - _variations(chain, b)
    return n - 1 if chain and _sign_at(chain[0], b) == 0 else n


def nonneg_on_unit_interval(p: Sequence[int]) -> tuple[bool, Optional[Fraction]]:
    """Decide p(x) >= 0 for all x in [0, 1]; on failure return a witness x.

    Sign changes can only happen across roots of the squarefree part, so the
    interval is bisected until every piece either contains no root (one
    sample decides it) or holds a single root between strictly positive
    endpoint values (where the sign cannot dip below zero).
    """
    p = _trimmed(p)
    if not p:
        return True, None
    chain = sturm_chain(squarefree_part(p))
    stack = [(Fraction(0), Fraction(1))]
    while stack:
        a, b = stack.pop()
        sa, sb = _sign_at(p, a), _sign_at(p, b)
        if sa < 0:
            return False, a
        if sb < 0:
            return False, b
        n = count_roots_open(chain, a, b)
        mid = (a + b) / 2
        if n == 0 and _sign_at(p, mid) < 0:
            return False, mid
        if n > 1 or (n == 1 and sa * sb == 0):
            stack += [(a, mid), (mid, b)]
    return True, None
