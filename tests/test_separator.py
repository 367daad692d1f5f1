import random
from fractions import Fraction as F
from math import comb

import pytest

from helpers import level
from randlab.measures import (
    Bernoulli,
    Mixture,
    all_words,
    count_upcrossings,
    realize,
)
from randlab.randtests import ExtendedTest
from randlab.separator import (
    SEPARATOR_NORMALIZER,
    chebyshev_tail_check,
    class_plus_separator,
    deviation_exceeds,
    separator_value,
)


def brute_force_tail_mass(n: int, p: F) -> F:
    """Independent oracle: enumerate all words and test each deviation."""
    total = F(0)
    for x in all_words(n):
        count = x.count("1")
        gap = abs(F(count) - n * p)
        if gap ** 5 > F(n) ** 3:
            ones = x.count("1")
            total += p ** ones * (1 - p) ** (n - ones)
    return total


def tail_mass(report) -> F:
    """The mu column of a tail check's one row."""
    [(_, _, mu, _, _)] = report.rows
    return F(mu)


def test_tail_n8_half_exact_mass():
    report = chebyshev_tail_check(8, F(1, 2))
    assert report.rows == [("8", "1/2", "1/128", "0,8", "certified")]
    assert report.ok and report.witness is None


def test_tail_degenerate_p_zero():
    report = chebyshev_tail_check(1, F(0))
    assert tail_mass(report) == 0 and report.ok


def test_tail_n4_against_enumeration_oracle():
    for p in (F(0), F(1, 4), F(1, 3), F(1, 2)):
        report = chebyshev_tail_check(4, p)
        assert tail_mass(report) == brute_force_tail_mass(4, p)


def test_tail_certified_grid():
    for k in range(1, 7):
        n = 2 ** k
        for p in (F(0), F(1, 4), F(1, 3), F(1, 2)):
            report = chebyshev_tail_check(n, p)
            assert report.ok, (n, p)
            assert tail_mass(report) ** 5 * n < 1


def per_term_tail_mass(n: int, p: F) -> F:
    """The tail mass summed term by term: C(n, c) p^c (1-p)^(n-c) over every
    count c with |c - n p| > n^(3/5)."""
    deviating = [c for c in range(n + 1) if abs(c - n * p) ** 5 > n ** 3]
    return sum((comb(n, c) * p ** c * (1 - p) ** (n - c) for c in deviating), F(0))


@pytest.mark.parametrize("p", [F(0), F(1), F(1, 2), F(1, 97), F(500, 997)])
def test_tail_mass_matches_the_per_term_sum(p):
    for n in range(1, 201):
        assert tail_mass(chebyshev_tail_check(n, p)) == per_term_tail_mass(n, p), n


def test_deviation_comparison_matches_fifth_powers():
    rng = random.Random(61)
    for _ in range(200):
        n = rng.randrange(1, 80)
        count = rng.randrange(0, n + 1)
        p = F(rng.randrange(0, 9), 8)
        expected = abs(F(count) - n * p) ** 5 > F(n) ** 3
        assert deviation_exceeds(count, n, p) == expected


def test_separator_perfect_frequencies_score_zero():
    omega = "10" * 32  # every dyadic block count sits exactly at its mean
    report = separator_value(omega, F(1, 2))
    assert report.g_value == 0


def test_separator_all_ones_against_zero():
    report = separator_value("1" * 16, F(0))
    assert report.g_value == 4
    assert [r.k for r in report.records if r.violated] == [1, 2, 3, 4]


def test_separator_all_zeros_against_zero():
    assert separator_value("0" * 64, F(0)).g_value == 0


def test_normalizer_is_certified_overestimate():
    r = F(871, 1000)
    assert 2 * r ** 5 >= 1  # r dominates 2^(-1/5)
    # the true constant is about 51.9; the bound must sit above it
    assert F(51) < SEPARATOR_NORMALIZER < F(53)


def test_scaled_value_uses_normalizer():
    report = separator_value("1" * 16, F(0))
    assert report.scaled_value == F(4) / SEPARATOR_NORMALIZER


def test_composite_takes_maximum():
    flat = ExtendedTest.from_partial(4, {"": F(1)})
    result = class_plus_separator("1111", F(0), flat)
    assert result.combined == max(result.class_value, result.separator_scaled)
    assert result.class_value == 1
    zero = ExtendedTest.from_partial(2, {})
    result0 = class_plus_separator("10", F(1, 2), zero)
    assert result0.combined == 0
    machineless = class_plus_separator("1" * 16, F(0), None)
    assert machineless.class_value == 0
    assert machineless.combined == machineless.separator_scaled > 0


def test_separation_property_at_extremal_scale():
    # Once 2^(0.4K) > 2/|p - q| no word can score g = 0 for both parameters:
    # checked at K = 6 for the extremal pairs and frequency-tracking words.
    K = 6
    n = 2 ** K
    pairs = [(F(0), F(1, 2)), (F(0), F(1)), (F(1, 4), F(3, 4)), (F(1, 2), F(1))]
    for p, q in pairs:
        gap = q - p
        assert 2 ** (2 * K) * gap ** 5 > 32  # (2^(0.4K))^5 > (2/gap)^5
        for r in (p, q, (p + q) / 2):
            omega = tracking_word(n, r)
            g_p = separator_value(omega, p).g_value
            g_q = separator_value(omega, q).g_value
            assert g_p > 0 or g_q > 0, (p, q, r)


def tracking_word(n: int, rate: F) -> str:
    """Greedy word whose every prefix count is the floor of rate * length."""
    bits = []
    count = 0
    for i in range(1, n + 1):
        target = (rate * i).__floor__()
        if count < target:
            bits.append("1")
            count += 1
        else:
            bits.append("0")
    return "".join(bits)


@pytest.mark.parametrize(
    "spec",
    [
        Bernoulli(F(1, 2)),
        Bernoulli(F(1, 4)),
        Mixture((F(1, 2), F(1, 2)), (Bernoulli(F(0)), Bernoulli(F(1)))),
    ],
)
def test_upcrossing_expectation_bound_for_stationary_tables(spec):
    # the upcrossing inequality (1 + 1/alpha)(beta - alpha) E[sigma] <= 1,
    # checked exhaustively at depth 10 for shipped stationary tables
    depth = 10
    measure = realize(spec, depth)
    for alpha, beta in [(F(1, 4), F(1, 2)), (F(1, 3), F(2, 3)), (F(1, 2), F(9, 10))]:
        expectation = F(0)
        for omega, mass in level(measure, depth):
            if mass == 0:
                continue
            expectation += mass * count_upcrossings(omega, "1", alpha, beta)
        assert (1 + 1 / alpha) * (beta - alpha) * expectation <= 1
