"""Frequency separator for the Bernoulli family, certified without floats.

The test watches the one-counts of dyadic blocks: a length-2^k prefix whose
count strays from 2^k p by more than 2^(0.6k) marks level k as violated, and
the test value is the largest violated k.  All comparisons against the
irrational thresholds n^0.6 and n^-0.2 are cleared by raising both sides to
the fifth power, turning them into integer comparisons.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Optional

from .exact import fmt
from .measures import validate_bits
from .randtests import ExtendedTest

__all__ = [
    "deviation_exceeds",
    "TailReport",
    "chebyshev_tail_check",
    "KRecord",
    "SeparatorReport",
    "separator_value",
    "ClassSeparatorResult",
    "class_plus_separator",
    "SEPARATOR_NORMALIZER",
]


def deviation_exceeds(count: int, n: int, p: Fraction) -> bool:
    """Decide |count - n p| > n^(3/5) exactly.

    With p = a/b the inequality is equivalent to |count*b - n*a|^5 > n^3 b^5,
    an integer comparison.
    """
    p = Fraction(p)
    a, b = p.numerator, p.denominator
    lhs = abs(count * b - n * a) ** 5
    return lhs > n ** 3 * b ** 5


@dataclass
class TailReport:
    n: int
    p: Fraction
    mu: Fraction
    certified: bool  # mu^5 * n < 1, the exact form of mu < n^(-1/5... times)
    deviating_counts: list[int]

    def tsv_rows(self):
        return [
            (
                str(self.n),
                fmt(self.p),
                fmt(self.mu),
                ",".join(map(str, self.deviating_counts)) or "-",
                "certified" if self.certified else "fail",
            )
        ]


def chebyshev_tail_check(n: int, p: Fraction) -> TailReport:
    """Exact coin mass of {length-n words whose one-count deviates by more
    than n^0.6} and the certificate mu^5 < 1/n (i.e. mu < n^-0.2)."""
    if n < 1:
        raise ValueError("need n >= 1")
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError("p outside [0,1]")
    deviating = [c for c in range(n + 1) if deviation_exceeds(c, n, p)]
    mu = sum(
        (comb(n, c) * p ** c * (1 - p) ** (n - c) for c in deviating), Fraction(0)
    )
    certified = mu ** 5 * n < 1
    return TailReport(n=n, p=p, mu=mu, certified=certified, deviating_counts=deviating)


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
    k: int
    block_length: int
    count: int
    violated: bool


@dataclass
class SeparatorReport:
    p: Fraction
    records: list[KRecord] = field(default_factory=list)
    g_value: int = 0
    scaled_value: Fraction = Fraction(0)
    normalizer: Fraction = SEPARATOR_NORMALIZER

    def tsv_rows(self):
        rows = [
            (
                str(r.k),
                str(r.block_length),
                str(r.count),
                "violated" if r.violated else "ok",
            )
            for r in self.records
        ]
        rows.append(("g", str(self.g_value), fmt(self.scaled_value), fmt(self.normalizer)))
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
        records.append(KRecord(k=k, block_length=block, count=count, violated=violated))
        if violated:
            g = k
        k += 1
    return SeparatorReport(
        p=p,
        records=records,
        g_value=g,
        scaled_value=Fraction(g) / SEPARATOR_NORMALIZER,
    )


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
