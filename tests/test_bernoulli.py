import itertools
import random
from fractions import Fraction as F
from math import comb

import pytest

from helpers import (
    bernoulli_mass,
    by_word,
    class_average,
    hypergeom_prefix_prob,
    poly_at,
    random_listed,
    reference_bernoulli_poly,
    reference_urn_check,
    reference_urn_check_by_class,
    words_with_ones,
)
from randlab.bernoulli import (
    bernoulli_poly,
    certify_bernoulli_test,
    extend_by_monotonicity,
    replacement_domination_check,
    validate_combinatorial_test,
)
from randlab.exact import fmt
from randlab.measures import all_words, class_masses, prefixes
from randlab.randtests import ExtendedTest

SEED_GRID = [F(0), F(1, 2), F(1), F(2)]


def seed_test_from_leaves(leaves: dict[str, F]) -> dict[str, F]:
    """Depth-2 prefix function with interior values as minima of children."""
    values = dict(leaves)
    for x in all_words(1):
        values[x] = min(values[x + "0"], values[x + "1"])
    values[""] = min(values["0"], values["1"])
    return values


def test_class_average_examples():
    ones = {x: F(1) for x in words_with_ones(3, 2)}
    assert class_average(ones, 3, 2) == 1
    spiked = {x: F(3) if x == "001" else F(0) for x in words_with_ones(3, 1)}
    assert class_average(spiked, 3, 1) == 1
    indicator = {x: F(1) if x == "10" else F(0) for x in words_with_ones(2, 1)}
    assert class_average(indicator, 2, 1) == F(1, 2)


def test_class_average_domain_error():
    with pytest.raises(ValueError):
        class_average({}, 2, 3)


def test_validate_constant_one():
    values = {x: F(1) for n in range(3) for x in all_words(n)}
    assert validate_combinatorial_test(ExtendedTest(2, values)).ok


def test_validate_rejects_level_one_overload():
    values = {"": F(0), "0": F(2), "1": F(2)}
    report = validate_combinatorial_test(ExtendedTest(1, values))
    assert not report.ok
    assert "B(1,0)" in report.witness or "monotonicity" in report.witness


def test_extend_flat():
    values = {"": F(1), "0": F(1), "1": F(1)}
    extended = extend_by_monotonicity(ExtendedTest(1, values), 3)
    assert all(v == 1 for v in by_word(extended).values())


def test_extension_replays_split_argument():
    # B(2,1) splits into B(1,1)0 and B(1,0)1, so the copied level averages
    # the two parent classes with equal weights
    seed = ExtendedTest(1, {"": F(0), "0": F(1), "1": F(0)})
    extended = by_word(extend_by_monotonicity(seed, 2))
    assert [extended[x] for x in all_words(2)] == [F(1), F(1), F(0), F(0)]
    split = (class_average(extended, 1, 1) + class_average(extended, 1, 0)) / 2
    assert class_average(extended, 2, 1) == split == F(1, 2)


def test_extend_full_operation_on_valid_seed():
    values = {"": F(0), "0": F(1), "1": F(0)}
    extended = extend_by_monotonicity(ExtendedTest(1, values), 3)
    assert validate_combinatorial_test(extended).ok
    assert extended.value("011") == F(1) and extended.value("100") == F(0)


def test_extend_indicator_brute_force():
    leaves = {x: F(3) if x == "001" else F(0) for x in all_words(3)}
    values = dict(leaves)
    for length in (2, 1, 0):
        for x in all_words(length):
            values[x] = min(values[x + "0"], values[x + "1"])
    extended = by_word(extend_by_monotonicity(ExtendedTest(3, values), 4))
    for k in range(5):
        assert class_average(extended, 4, k) <= 1


def test_extend_rejects_invalid_input():
    values = {"": F(2), "0": F(2), "1": F(2)}
    with pytest.raises(ValueError):
        extend_by_monotonicity(ExtendedTest(1, values), 3)


def test_hypergeom_examples():
    assert hypergeom_prefix_prob(2, 1, "1") == F(1, 2)
    assert hypergeom_prefix_prob(2, 1, "11") == 0
    assert hypergeom_prefix_prob(4, 2, "10") == F(1, 3)


def test_hypergeom_sums_to_one():
    for N, K, length in [(5, 2, 3), (6, 3, 6), (12, 5, 4), (9, 0, 3)]:
        total = sum(
            (hypergeom_prefix_prob(N, K, x) for x in all_words(length)), F(0)
        )
        assert total == 1


def test_hypergeom_matches_exchangeable_formula():
    N, K, length = 8, 3, 5
    for x in all_words(length):
        ones = x.count("1")
        zeros = length - ones
        if ones > K or zeros > N - K:
            assert hypergeom_prefix_prob(N, K, x) == 0
        else:
            direct = F(comb(K, ones) * comb(N - K, zeros), comb(N, length)) / comb(
                length, ones
            )
            assert hypergeom_prefix_prob(N, K, x) == direct


@pytest.mark.parametrize("n,factor", [(2, F(4)), (3, F(27, 8)), (4, F(256, 81))])
def test_urn_domination(n, factor):
    report = replacement_domination_check(n)
    assert report.ok and report.witness is None
    [(n_text, factor_text, max_ratio, _, verdict)] = report.rows
    assert (n_text, factor_text, verdict) == (str(n), fmt(factor), "pass")
    assert F(max_ratio) <= factor


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_urn_check_scores_one_word_per_class_like_every_word(n):
    # the row carries n, the factor, the largest ratio and its (K, word)
    assert replacement_domination_check(n) == reference_urn_check(n) == reference_urn_check_by_class(n)


@pytest.mark.parametrize("n", range(9, 21))
def test_urn_check_matches_the_class_probabilities_past_word_scoring(n):
    assert replacement_domination_check(n) == reference_urn_check_by_class(n)


def test_class_masses_are_the_urn_and_coin_class_probabilities():
    def first_word(n, k):
        return "0" * (n - k) + "1" * k

    for N in range(1, 9):
        for K in range(N + 1):
            for n in range(N + 1):
                urn, draws = class_masses(K, N - K, n, -1)
                coin, tosses = class_masses(K, N - K, n, 0)
                assert [F(m, draws) for m in urn] == [
                    comb(n, k) * hypergeom_prefix_prob(N, K, first_word(n, k)) for k in range(n + 1)
                ]
                assert [F(m, tosses) for m in coin] == [
                    comb(n, k) * bernoulli_mass(F(K, N), first_word(n, k)) for k in range(n + 1)
                ]
                assert sum(urn) == draws and sum(coin) == tosses
    # the coin at p = 0 and p = 1 as the tail check passes it: a lone class
    for ones, zeros in ((0, 1), (1, 0)):
        for n in range(9):
            coin, tosses = class_masses(ones, zeros, n, 0)
            assert [F(m, tosses) for m in coin] == [
                comb(n, k) * bernoulli_mass(F(ones), first_word(n, k)) for k in range(n + 1)
            ]
            assert sum(coin) == tosses == 1


def test_class_average_rows_match_class_average_on_random_tables():
    rng = random.Random(11)
    for _ in range(200):
        depth = rng.randrange(5)
        values = {x: F(rng.randrange(4), rng.choice((1, 2, 3))) for x in prefixes(depth)}
        rows = [row for row in validate_combinatorial_test(ExtendedTest(depth, values)).rows if row[0].startswith("B(")]
        expected = []
        for n in range(depth + 1):
            for k in range(n + 1):
                average = class_average(values, n, k)
                expected.append((f"B({n},{k})", fmt(average), fmt(1), "pass" if average <= 1 else "fail"))
        assert rows == expected


def test_bernoulli_poly_examples():
    flat = ExtendedTest.from_partial(2, {"": F(1)})
    assert bernoulli_poly(flat, 2) == ([1], 1)  # trailing zeros trimmed
    up = ExtendedTest.from_partial(1, {"1": F(2)})
    assert bernoulli_poly(up, 1) == ([0, 2], 1)
    down = ExtendedTest(1, {"": F(0), "0": F(2), "1": F(0)})
    assert bernoulli_poly(down, 1) == ([2, -2], 1)
    thirds = ExtendedTest(1, {"": F(1, 3), "0": F(1, 3), "1": F(2, 3)})
    assert bernoulli_poly(thirds, 1) == ([1, 1], 3)
    assert bernoulli_poly(ExtendedTest.from_partial(2, {}), 2) == ([], 1)


def test_bernoulli_poly_matches_the_product_expansion():
    rng = random.Random(11)
    for _ in range(300):
        depth = rng.randint(0, 7)
        test = ExtendedTest.from_partial(depth, random_listed(rng, depth))
        for n in range(depth + 1):
            coeffs, den = bernoulli_poly(test, n)
            assert [F(c, den) for c in coeffs] == reference_bernoulli_poly(test, n)


def test_certify_flat_and_counterexample():
    flat = ExtendedTest.from_partial(2, {"": F(1)})
    assert certify_bernoulli_test(flat).ok
    twop = ExtendedTest.from_partial(1, {"1": F(2)})
    report = certify_bernoulli_test(twop)
    assert not report.ok
    level, witness = report.witness
    assert level == 1
    coeffs, den = bernoulli_poly(twop, 1)
    assert poly_at(coeffs, witness) > den
    assert witness > F(1, 2)


def test_every_valid_seed_certifies():
    confirmed = 0
    for leaf_values in itertools.product(SEED_GRID, repeat=4):
        leaves = dict(zip(all_words(2), leaf_values))
        test = ExtendedTest(2, seed_test_from_leaves(leaves))
        if not validate_combinatorial_test(test).ok:
            continue
        extended = extend_by_monotonicity(test, 4)
        assert certify_bernoulli_test(extended).ok
        confirmed += 1
    assert confirmed > 10


def test_combinatorial_average_bound_transfers_to_coins():
    rng = random.Random(5)
    for _ in range(10):
        leaf_values = [rng.choice(SEED_GRID) for _ in range(4)]
        test = ExtendedTest(2, seed_test_from_leaves(dict(zip(all_words(2), leaf_values))))
        if not validate_combinatorial_test(test).ok:
            continue
        for p in (F(0), F(1, 7), F(1, 2), F(9, 10), F(1)):
            for n in range(3):
                integral = sum(
                    (bernoulli_mass(p, x) * test.value(x) for x in all_words(n)),
                    F(0),
                )
                assert integral <= 1
