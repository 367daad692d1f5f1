"""Combinatorial tests for the Bernoulli family and their certification.

A combinatorial test must average below 1 on every constant-composition
class B(n, k).  This module validates that, extends tests by monotonicity,
compares sampling without replacement against the i.i.d. coin (the n^2-urn
bound), and certifies the full Bernoulli property by deciding polynomial
nonnegativity on [0, 1] with Sturm sequences.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Mapping, Optional

from .exact import fmt
from .measures import (
    CapabilityError,
    _doubled,
    _integer_levels,
    _word,
    all_words,
    bernoulli_mass,
    fill_down,
    prefixes,
    validate_bits,
)
from .poly import UnivariatePoly, constant, nonneg_on_unit_interval
from .randtests import ExtendedTest, Verdict, _non_monotone_children

__all__ = [
    "MAX_URN_N",
    "CombinatorialTest",
    "words_with_ones",
    "class_average",
    "validate_combinatorial_test",
    "extension_values",
    "extend_by_monotonicity",
    "hypergeom_prefix_prob",
    "UrnReport",
    "replacement_domination_check",
    "bernoulli_poly",
    "certify_bernoulli_test",
]


class CombinatorialTest(ExtendedTest):
    """An extended test whose class averages have been checked."""


def words_with_ones(n: int, k: int) -> list[str]:
    """B(n, k): length-n words with exactly k ones, lexicographic."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    return [x for x in all_words(n) if x.count("1") == k]


def class_average(f: Mapping[str, Fraction], n: int, k: int) -> Fraction:
    """Average of f over B(n, k)."""
    members = words_with_ones(n, k)
    total = Fraction(0)
    for x in members:
        if x not in f:
            raise ValueError(f"function undefined on {x!r}")
        total += Fraction(f[x])
    return total / comb(n, k)


def _class_sums(row: list[int], n: int) -> list[int]:
    """Sums of a level-n row over each class B(n, k), k = 0..n, in one pass."""
    sums = [0] * (n + 1)
    for i, v in enumerate(row):
        sums[i.bit_count()] += v
    return sums


_Rows = tuple[list[list[int]], list[int]]


def _rows(f: Mapping[str, Fraction] | ExtendedTest, depth: int) -> _Rows | str:
    """f's levels up to `depth` as integer rows, or the first prefix it leaves undefined."""
    if isinstance(f, ExtendedTest):
        return "0" * (f.depth + 1) if depth > f.depth else (f.nums[: depth + 1], f.dens[: depth + 1])
    missing = next((x for x in prefixes(depth) if x not in f), None)
    if missing is not None:
        return missing
    return _integer_levels([[Fraction(f[x]) for x in all_words(n)] for n in range(depth + 1)])


def validate_combinatorial_test(
    f: Mapping[str, Fraction] | ExtendedTest, depth: int
) -> Verdict:
    """Check monotonicity and the B(n, k) average bound for every n <= depth.

    Every non-monotone child gets a row; the witness is a message naming
    the first violation.
    """
    rows = _rows(f, depth)
    if isinstance(rows, str):
        return Verdict(False, [(rows, "-", "-", "missing")], f"value missing at {rows!r}")
    return _combinatorial_verdict(*rows)


def _combinatorial_verdict(nums: list[list[int]], dens: list[int]) -> Verdict:
    rows: list[tuple[str, str, str, str]] = []
    first: Optional[str] = None
    for n, i in _non_monotone_children(nums, dens):
        child = _word(i, n)
        value, parent = Fraction(nums[n][i], dens[n]), Fraction(nums[n - 1][i >> 1], dens[n - 1])
        rows.append((child, fmt(value), fmt(parent), "non-monotone"))
        if first is None:
            first = f"monotonicity fails at {child!r}"
    for n, (row, den) in enumerate(zip(nums, dens)):
        for k, total in enumerate(_class_sums(row, n)):
            average = Fraction(total, den * comb(n, k))
            ok_class = average <= 1
            rows.append(
                (f"B({n},{k})", fmt(average), fmt(1), "pass" if ok_class else "fail")
            )
            if not ok_class and first is None:
                first = f"class average at B({n},{k}) is {average} > 1"
    return Verdict(ok=first is None, rows=rows, witness=first)


def _extended(rows: _Rows, n_target: int) -> _Rows:
    """Levels down to n_target, each new child holding its parent's value."""
    nums, dens = rows
    depth = len(nums) - 1
    if n_target < depth:
        raise ValueError("target depth below the given depth")
    extended = fill_down(n_target, nums[0][0], lambda above, n: nums[n] if n <= depth else _doubled(above))
    return extended, dens + [dens[-1]] * (n_target - depth)


def extension_values(
    values: Mapping[str, Fraction], n_target: int
) -> dict[str, Fraction]:
    """Copy each deepest value onto both children, repeatedly, up to n_target."""
    rows = _rows(values, max(len(x) for x in values))
    if isinstance(rows, str):
        raise ValueError(f"value missing at {rows!r}")
    nums, dens = _extended(rows, n_target)
    fractions = (Fraction(v, den) for row, den in zip(nums, dens) for v in row)
    return dict(zip(prefixes(n_target), fractions))


def extend_by_monotonicity(
    f: Mapping[str, Fraction] | ExtendedTest, n_target: int
) -> CombinatorialTest:
    """Extend a combinatorial test to longer words by value copying.

    The input must already be a valid combinatorial test on its own depth;
    the output is validated again rather than trusted.
    """
    depth = f.depth if isinstance(f, ExtendedTest) else max(len(x) for x in f)
    base = validate_combinatorial_test(f, depth)
    if not base.ok:
        raise ValueError(f"input is not a combinatorial test: {base.witness}")
    nums, dens = _extended(_rows(f, depth), n_target)
    extended = _combinatorial_verdict(nums, dens)
    if not extended.ok:
        raise AssertionError(
            f"monotone extension broke validity: {extended.witness}"
        )
    return CombinatorialTest._of_levels(nums, dens)


def hypergeom_prefix_prob(N: int, K: int, x: str) -> Fraction:
    """Probability that draws without replacement from an N-ball urn
    (K of them marked 1) produce exactly the word x.

    Impossible draws yield 0 rather than an error.
    """
    validate_bits(x)
    if not 0 <= K <= N:
        raise ValueError(f"need 0 <= K <= N, got K={K}, N={N}")
    if len(x) > N:
        raise ValueError(f"word longer than the urn: {len(x)} > {N}")
    ones_left, zeros_left = K, N - K
    prob = Fraction(1)
    for i, bit in enumerate(x):
        remaining = N - i
        if bit == "1":
            if ones_left == 0:
                return Fraction(0)
            prob *= Fraction(ones_left, remaining)
            ones_left -= 1
        else:
            if zeros_left == 0:
                return Fraction(0)
            prob *= Fraction(zeros_left, remaining)
            zeros_left -= 1
    return prob


#: Largest urn-check word length: the check grows about as n^3.5 in exact
#: rationals, and n = 20 takes about a second.
MAX_URN_N = 20


@dataclass
class UrnReport:
    ok: bool
    n: int
    N: int
    factor: Fraction
    max_ratio: Fraction
    argmax: Optional[tuple[int, str]]  # (K, word) attaining the max ratio

    def tsv_rows(self):
        where = f"K={self.argmax[0]},x={self.argmax[1]}" if self.argmax else "-"
        return [
            (
                str(self.n),
                fmt(self.factor),
                fmt(self.max_ratio),
                where,
                "pass" if self.ok else "fail",
            )
        ]


def replacement_domination_check(n: int) -> UrnReport:
    """Verify the urn bound at N = n^2: sampling K of N without replacement
    never beats the p = K/N coin by more than (N/(N-n))^n on length-n words.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if n > MAX_URN_N:
        raise CapabilityError(f"urn check capped at n = {MAX_URN_N}, got {n}")
    N = n * n
    factor = Fraction(N, N - n) ** n
    max_ratio = Fraction(0)
    argmax: Optional[tuple[int, str]] = None
    ok = True
    # Both laws give every word of B(n, k) the same mass, so one word per
    # class decides; 0^(n-k) 1^k is the first of its class in word order.
    for K in range(N + 1):
        p = Fraction(K, N)
        for x in ("0" * (n - k) + "1" * k for k in range(n + 1)):
            hyper = hypergeom_prefix_prob(N, K, x)
            bern = bernoulli_mass(p, x)
            if hyper > factor * bern:
                ok = False
            if bern > 0 and hyper / bern > max_ratio:
                max_ratio = hyper / bern
                argmax = (K, x)
    return UrnReport(ok=ok, n=n, N=N, factor=factor, max_ratio=max_ratio, argmax=argmax)


def bernoulli_poly(test: ExtendedTest, n: int) -> UnivariatePoly:
    """The level-n coin average sum_x T(x) p^ones(x) (1-p)^zeros(x), expanded."""
    if n > test.depth:
        raise ValueError("level beyond test depth")
    by_ones = [Fraction(total, test.dens[n]) for total in _class_sums(test.nums[n], n)]
    # p^k (1-p)^(n-k) expanded via the binomial theorem
    result = UnivariatePoly([])
    p_power = constant(Fraction(1))
    p_poly = UnivariatePoly([Fraction(0), Fraction(1)])
    one_minus_p = UnivariatePoly([Fraction(1), Fraction(-1)])
    for k in range(n + 1):
        if by_ones[k] != 0:
            q = p_power
            for _ in range(n - k):
                q = q * one_minus_p
            result = result + q.scale(by_ones[k])
        p_power = p_power * p_poly
    return result


def certify_bernoulli_test(test: ExtendedTest) -> Verdict:
    """Decide, level by level, whether the coin average stays below 1 for
    every p in [0, 1].  A failing level carries an exact rational witness p;
    the verdict's witness is (level, p) for the first such level.
    """
    rows = []
    witness: Optional[tuple[int, Fraction]] = None
    for n in range(test.depth + 1):
        integral = bernoulli_poly(test, n)
        slack = constant(Fraction(1)) - integral
        ok_level, bad_p = nonneg_on_unit_interval(slack)
        rows.append(
            (
                str(n),
                str(max(integral.degree, 0)),
                "certified" if ok_level else "rejected",
                fmt(bad_p) if bad_p is not None else "-",
            )
        )
        if not ok_level and witness is None:
            witness = (n, bad_p)
    return Verdict(ok=witness is None, rows=rows, witness=witness)
