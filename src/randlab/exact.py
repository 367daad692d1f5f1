"""Exact arithmetic helpers: rationals, a first-class +infinity, dyadic logs.

Every quantity in this package is either a `fractions.Fraction` or the
singleton `INF`.  No floats are used anywhere in the core: all asserted
inequalities are decided over the integers.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union


class CapabilityError(ValueError):
    """The requested instance exceeds a documented cap on its size or on its printed values."""


#: Python's default limit on the decimal digits of an integer turned into
#: text, applied on every version: a report value past it is refused, never
#: printed on one version and an error on another.
MAX_PRINTED_DIGITS = 4300
_PAST_PRINTED = 10 ** MAX_PRINTED_DIGITS


class _Infinity:
    """Positive infinity with total order against rationals.

    Arithmetic follows the conventions inf + r = inf and r * inf = inf for
    r > 0.  The product 0 * inf is deliberately not defined on the operator:
    use :func:`mul_nonneg`, which applies the measure-theoretic 0 * inf = 0.
    Equality and hashing are those of the one instance.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "inf"

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


def _common_denominator(values: Iterable[Fraction]) -> tuple[list[int], int]:
    """Rationals as integer numerators over the lcm of their denominators, and that lcm."""
    values = list(values)
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


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
    return _ratio_text(f.numerator, f.denominator)


def fmt_ratio(num: int, den: int) -> str:
    """`fmt` of num/den for integers, den > 0, reduced by one gcd."""
    g = gcd(num, den)
    return _ratio_text(num // g, den // g)


def _ratio_text(num: int, den: int) -> str:
    """`num/den`, already in lowest terms, as text: the one place a rational becomes text."""
    if den >= _PAST_PRINTED or abs(num) >= _PAST_PRINTED:
        raise CapabilityError(f"printed integers are capped at {MAX_PRINTED_DIGITS} digits, Python's limit on integer strings")
    return f"{num}/{den}"


def fmt_ratios(row: Sequence[int], den: int) -> list[str]:
    """`fmt_ratio` of every numerator in a row over one `den`, each distinct numerator once."""
    text = {v: fmt_ratio(v, den) for v in set(row)}
    return list(map(text.__getitem__, row))


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
