"""Exact arithmetic helpers: rationals, a first-class +infinity, dyadic logs.

Every quantity in this package is either a `fractions.Fraction` or the
singleton `INF`.  No floats are used anywhere in the core: all asserted
inequalities are decided over the integers.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Union


class _Infinity:
    """Positive infinity with total order against rationals.

    Arithmetic follows the conventions inf + r = inf and r * inf = inf for
    r > 0.  The product 0 * inf is deliberately not defined on the operator:
    use :func:`mul_nonneg`, which applies the measure-theoretic 0 * inf = 0.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "inf"

    def __eq__(self, other) -> bool:
        return other is self

    def __hash__(self) -> int:
        return hash("randlab-inf")

    def __lt__(self, other) -> bool:
        return False

    def __le__(self, other) -> bool:
        return other is self

    def __gt__(self, other) -> bool:
        return other is not self

    def __ge__(self, other) -> bool:
        return True

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __mul__(self, other):
        if other is self:
            return self
        if other > 0:
            return self
        raise ArithmeticError("0 * inf is undefined; use mul_nonneg")

    __rmul__ = __mul__


INF = _Infinity()

Ext = Union[Fraction, _Infinity]


def is_inf(v: Ext) -> bool:
    return v is INF


def mul_nonneg(p: Fraction, v: Ext) -> Ext:
    """p * v for p >= 0 with the convention 0 * inf = 0."""
    if p == 0:
        return Fraction(0)
    if v is INF:
        return INF
    return p * v


def div_ratio(num: Fraction, den: Fraction) -> tuple[Ext, bool]:
    """num / den for nonnegative rationals, in [0, inf].

    Returns (value, flagged).  den = 0 with num > 0 gives inf; the 0/0 case
    is defined as 0 but flagged so callers can report it.
    """
    if den > 0:
        return num / den, False
    if num > 0:
        return INF, False
    return Fraction(0), True


def parse_rational(text: str) -> Fraction:
    """Parse `<num>/<den>` or an integer literal into lowest terms."""
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational literal {text!r}") from exc


def fmt(v) -> str:
    """Canonical text form: `num/den` with den >= 1, or `inf`."""
    if v is INF:
        return "inf"
    if isinstance(v, bool):
        raise TypeError("refusing to format a bool as a rational")
    f = Fraction(v)
    return f"{f.numerator}/{f.denominator}"


def fmt_ratio(num: int, den: int) -> str:
    """`fmt` of num/den for integers, den > 0, reduced by one gcd."""
    g = gcd(num, den)
    return f"{num // g}/{den // g}"


def is_power_of_two(f: Fraction) -> bool:
    """True when f equals 2**k for some (possibly negative) integer k."""
    if f <= 0:
        return False
    n, d = f.numerator, f.denominator
    return (n == 1 or (n & (n - 1)) == 0) and (d == 1 or (d & (d - 1)) == 0) and (n == 1 or d == 1)


def floor_log2(f: Fraction) -> int:
    """Largest k with 2**k <= f, for f > 0.  Exact integer comparisons only.

    With k the numerator's bit length minus the denominator's, f lies
    strictly between 2**(k-1) and 2**(k+1); one comparison places it
    against 2**k.
    """
    if f <= 0:
        raise ValueError("floor_log2 needs a positive argument")
    n, d = f.numerator, f.denominator
    k = n.bit_length() - d.bit_length()
    return k if (n << max(-k, 0)) >= (d << max(k, 0)) else k - 1


def ceil_log2(f: Fraction) -> int:
    """Smallest k with 2**k >= f, for f > 0: 2**k >= f exactly when 2**-k <= 1/f."""
    if f <= 0:
        raise ValueError("ceil_log2 needs a positive argument")
    return -floor_log2(Fraction(f.denominator, f.numerator))
