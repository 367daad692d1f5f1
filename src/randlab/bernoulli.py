"""Combinatorial tests for the Bernoulli family and their certification.

A combinatorial test must average below 1 on every constant-composition
class B(n, k).  This module validates that, extends tests by monotonicity,
compares sampling without replacement against the i.i.d. coin (the n^2-urn
bound), and certifies the full Bernoulli property by deciding polynomial
nonnegativity on [0, 1] with Sturm sequences.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Optional

from .exact import fmt
from .measures import CapabilityError, _doubled, _word, class_masses, fill_down
from .poly import _trimmed, nonneg_on_unit_interval
from .randtests import ExtendedTest, Verdict, _non_monotone_children

__all__ = [
    "MAX_URN_N",
    "validate_combinatorial_test",
    "extend_by_monotonicity",
    "replacement_domination_check",
    "bernoulli_poly",
    "certify_bernoulli_test",
]


def _class_sums(row: list[int], n: int) -> list[int]:
    """Sums of a level-n row over each class B(n, k), k = 0..n, in one pass."""
    sums = [0] * (n + 1)
    for i, v in enumerate(row):
        sums[i.bit_count()] += v
    return sums


def validate_combinatorial_test(test: ExtendedTest) -> Verdict:
    """Check monotonicity and the B(n, k) average bound at every level of the test.

    Every non-monotone child gets a row; the witness is a message naming
    the first violation.
    """
    nums, den = test.nums, test.den
    rows: list[tuple[str, str, str, str]] = []
    first: Optional[str] = None
    for n, i in _non_monotone_children(nums):
        child = _word(i, n)
        value, parent = Fraction(nums[n][i], den), Fraction(nums[n - 1][i >> 1], den)
        rows.append((child, fmt(value), fmt(parent), "non-monotone"))
        if first is None:
            first = f"monotonicity fails at {child!r}"
    for n, row in enumerate(nums):
        for k, total in enumerate(_class_sums(row, n)):
            average = Fraction(total, den * comb(n, k))
            ok_class = average <= 1
            rows.append(
                (f"B({n},{k})", fmt(average), fmt(1), "pass" if ok_class else "fail")
            )
            if not ok_class and first is None:
                first = f"class average at B({n},{k}) is {average} > 1"
    return Verdict(ok=first is None, rows=rows, witness=first)


def extend_by_monotonicity(test: ExtendedTest, n_target: int) -> ExtendedTest:
    """Extend a combinatorial test to longer words by value copying: each
    new child holds its parent's value.

    The input must already be a valid combinatorial test on its own depth;
    the output is validated again rather than trusted.
    """
    base = validate_combinatorial_test(test)
    if not base.ok:
        raise ValueError(f"input is not a combinatorial test: {base.witness}")
    depth = test.depth
    if n_target < depth:
        raise ValueError("target depth below the given depth")
    nums = fill_down(n_target, test.nums[0][0], lambda above, n: test.nums[n] if n <= depth else _doubled(above))
    extended = ExtendedTest._of_levels(nums, test.den)
    check = validate_combinatorial_test(extended)
    if not check.ok:
        raise AssertionError(
            f"monotone extension broke validity: {check.witness}"
        )
    return extended


#: Largest urn-check word length: the check takes about 0.01 s at n = 20,
#: but its integers grow with n and its time faster than n^4 (5.5 s at n = 80).
MAX_URN_N = 20


def replacement_domination_check(n: int) -> Verdict:
    """Verify the urn bound at N = n^2: sampling K of N without replacement
    never beats the p = K/N coin by more than (N/(N-n))^n on length-n words.

    One row: n, the factor, the largest ratio and the (K, word) attaining
    it, first in K and word order; that (K, word) is the witness on failure.

    Both laws give every word of B(n, k) the same mass, 1/C(n, k) of the
    class's `class_masses`, so the classes are ranked by urn mass / coin
    mass, compared by integer cross-multiplication; 0^(n-k) 1^k is the
    first word of its class.  A class the coin cannot draw, the urn cannot
    either, so the bound holds iff it holds at the largest ratio."""
    if n < 2:
        raise ValueError("need n >= 2")
    if n > MAX_URN_N:
        raise CapabilityError(f"urn check capped at n = {MAX_URN_N}, got {n}")
    N = n * n
    best_a, best_b, argmax = 0, 1, None
    for K in range(N + 1):
        urn, draws = class_masses(K, N - K, n, -1)
        coin, tosses = class_masses(K, N - K, n, 0)
        for k, (a, b) in enumerate(zip(urn, coin)):
            if a * best_b > best_a * b:
                best_a, best_b, argmax = a, b, (K, k)
    ok = best_a * (N - n) ** n <= best_b * draws
    K, k = argmax
    word = "0" * (n - k) + "1" * k
    ratio = Fraction(best_a * tosses, best_b * draws)
    row = (str(n), fmt(Fraction(N, N - n) ** n), fmt(ratio), f"K={K},x={word}", "pass" if ok else "fail")
    return Verdict(ok=ok, rows=[row], witness=None if ok else (K, word))


def bernoulli_poly(test: ExtendedTest, n: int) -> tuple[list[int], int]:
    """The level-n coin average sum_x T(x) p^ones(x) (1-p)^zeros(x), expanded
    as (coeffs, den): an integer coefficient row in ascending degree with
    trailing zeros trimmed, over the test's denominator.

    With S_k the row's sum over B(n, k), expanding (1-p)^(n-k) by the
    binomial theorem gives p^j the numerator
    sum_{k <= j} S_k (-1)^(j-k) C(n-k, j-k).
    """
    if n > test.depth:
        raise ValueError("level beyond test depth")
    sums = _class_sums(test.nums[n], n)
    coeffs = [
        sum((-1) ** (j - k) * comb(n - k, j - k) * s for k, s in enumerate(sums[: j + 1]))
        for j in range(n + 1)
    ]
    return _trimmed(coeffs), test.den


def certify_bernoulli_test(test: ExtendedTest) -> Verdict:
    """Decide, level by level, whether the coin average stays below 1 for
    every p in [0, 1].  A failing level carries an exact rational witness p;
    the verdict's witness is (level, p) for the first such level.
    """
    rows = []
    witness: Optional[tuple[int, Fraction]] = None
    for n in range(test.depth + 1):
        coeffs, den = bernoulli_poly(test, n)
        slack = [-c for c in coeffs] or [0]
        slack[0] += den
        ok_level, bad_p = nonneg_on_unit_interval(slack)
        rows.append(
            (
                str(n),
                str(max(len(coeffs) - 1, 0)),
                "certified" if ok_level else "rejected",
                fmt(bad_p) if bad_p is not None else "-",
            )
        )
        if not ok_level and witness is None:
            witness = (n, bad_p)
    return Verdict(ok=witness is None, rows=rows, witness=witness)
