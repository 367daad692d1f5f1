"""Frequency separator for the Bernoulli family, certified without floats.

The test watches the one-counts of dyadic blocks: a length-2^k prefix whose
count strays from 2^k p by more than 2^(0.6k) marks level k as violated, and
the test value is the largest violated k.  All comparisons against the
irrational thresholds n^0.6 and n^-0.2 are cleared by raising both sides to
the fifth power, turning them into integer comparisons.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .exact import fmt
from .measures import CapabilityError, class_masses, validate_bits
from .randtests import ExtendedTest, Verdict

__all__ = [
    "deviation_exceeds",
    "chebyshev_tail_check",
    "MAX_TAIL_N",
    "MAX_TAIL_DIGITS",
    "KRecord",
    "SeparatorReport",
    "separator_value",
    "ClassSeparatorResult",
    "class_plus_separator",
    "SEPARATOR_NORMALIZER",
]


def _deviates(n: int, p: Fraction) -> Callable[[int], bool]:
    """count -> |count - n p| > n^(3/5), exactly, for one n and p = a/b: the
    inequality is |count*b - n*a|^5 > n^3 b^5, an integer comparison whose
    centre and bound are computed once."""
    a, b = p.numerator, p.denominator
    centre, bound = n * a, n ** 3 * b ** 5
    return lambda count: abs(count * b - centre) ** 5 > bound


def deviation_exceeds(count: int, n: int, p: Fraction) -> bool:
    """Decide |count - n p| > n^(3/5) exactly."""
    return _deviates(n, Fraction(p))(count)


#: Largest tail-check block length: the check at n = 2000, p = 1/97 takes
#: about 0.01 s on a 2-core x86-64 machine with Python 3.11.
MAX_TAIL_N = 2048
#: Cap on n times the decimal digits of p's denominator b.  The tail mass
#: has a denominator dividing b^n, so this keeps it below Python's
#: 4300-digit limit on printing an integer.
MAX_TAIL_DIGITS = 4000


def chebyshev_tail_check(n: int, p: Fraction) -> Verdict:
    """Exact coin mass mu of {length-n words whose one-count deviates by more
    than n^0.6} and the certificate mu^5 < 1/n (i.e. mu < n^-0.2).

    One row: n, p, mu, the deviating counts and whether mu is certified;
    `ok` is the certificate, and the witness is mu when it fails.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError("p outside [0,1]")
    if n > MAX_TAIL_N:
        raise CapabilityError(f"tail check capped at n = {MAX_TAIL_N}, got {n}")
    digits = len(str(p.denominator))
    if n * digits > MAX_TAIL_DIGITS:
        raise CapabilityError(
            f"tail check capped at n * digits(denominator of p) = {MAX_TAIL_DIGITS}, got {n} * {digits}"
        )
    deviating = list(filter(_deviates(n, p), range(n + 1)))
    masses, den = class_masses(p.numerator, p.denominator - p.numerator, n, 0)
    mu = Fraction(sum(masses[c] for c in deviating), den)
    ok = mu.numerator ** 5 * n < mu.denominator ** 5
    counts = ",".join(map(str, deviating)) or "-"
    row = (str(n), fmt(p), fmt(mu), counts, "certified" if ok else "fail")
    return Verdict(ok=ok, rows=[row], witness=None if ok else mu)


def _normalizer_bound() -> Fraction:
    """Certified rational upper bound on sum_{k>=1} k 2^(-k/5).

    Each term is over-bounded through a rational r >= 2^(-1/5) (certified by
    2 r^5 >= 1); the first fifty terms are summed and the remainder is closed
    off by the exact geometric tail formula at r.
    """
    r = Fraction(871, 1000)
    if 2 * r ** 5 < 1:
        raise AssertionError("ratio below 2^(-1/5): the bound would not be certified")
    partial = sum((k * r ** k for k in range(1, 51)), Fraction(0))
    tail = r ** 51 * (51 * (1 - r) + r) / (1 - r) ** 2
    return partial + tail


#: Certified over-estimate of the normalizing constant; dividing the raw
#: level count by it only shrinks the test, the safe direction.
SEPARATOR_NORMALIZER: Fraction = _normalizer_bound()


@dataclass
class KRecord:
    """The one-count of the length-2^k block and whether it deviates."""

    k: int
    count: int
    violated: bool


@dataclass
class SeparatorReport:
    records: list[KRecord]
    g_value: int
    scaled_value: Fraction

    def tsv_rows(self):
        rows = [
            (str(r.k), str(2 ** r.k), str(r.count), "violated" if r.violated else "ok")
            for r in self.records
        ]
        rows.append(("g", str(self.g_value), fmt(self.scaled_value), fmt(SEPARATOR_NORMALIZER)))
        return rows


def separator_value(omega: str, p: Fraction) -> SeparatorReport:
    """Largest k whose dyadic block count deviates past 2^(0.6k); 0 if none.

    The scaled value g divided by the certified normalizer is reported so the
    result can stand in for a test value directly.
    """
    validate_bits(omega)
    if not omega:
        raise ValueError("need a nonempty word")
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError("p outside [0,1]")
    records = []
    g = 0
    k = 0
    while 2 ** k <= len(omega):
        block = 2 ** k
        count = omega[:block].count("1")
        violated = deviation_exceeds(count, block, p)
        records.append(KRecord(k=k, count=count, violated=violated))
        if violated:
            g = k
        k += 1
    return SeparatorReport(records=records, g_value=g, scaled_value=Fraction(g) / SEPARATOR_NORMALIZER)


@dataclass
class ClassSeparatorResult:
    class_value: Fraction
    separator_scaled: Fraction
    combined: Fraction

    def tsv_rows(self):
        return [(fmt(self.class_value), fmt(self.separator_scaled), fmt(self.combined))]


def class_plus_separator(
    x: str,
    p: Fraction,
    b: Optional[ExtendedTest],
) -> ClassSeparatorResult:
    """Composite surrogate for the per-measure test: max of a class-test value
    at x and the scaled separator value at x.

    With no class test given the class coordinate is taken as 0 and the
    separator speaks alone.
    """
    validate_bits(x)
    if b is None:
        class_value = Fraction(0)
    else:
        if len(x) > b.depth:
            raise ValueError("prefix deeper than the class test")
        class_value = b.value(x)
    sep = separator_value(x, p)
    combined = max(class_value, sep.scaled_value)
    return ClassSeparatorResult(
        class_value=class_value,
        separator_scaled=sep.scaled_value,
        combined=combined,
    )
