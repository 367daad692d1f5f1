import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from helpers import check_pushdown, level, leq_words, point_mass, random_dyadic_measure, reference_pushdown
from randlab.coupling import (
    MAX_COUPLING_N,
    CapabilityError,
    enumerate_upper_sets,
    is_coupled_below,
    monotone_criterion_check,
    pushdown_measure,
    sparsity_value,
    submask_hull,
)
from randlab.exact import fmt
from randlab.measures import Bernoulli, all_words, realize
from randlab.randtests import from_weights


def test_point_mass_at_bottom_couples_below_anything():
    rng = random.Random(41)
    bottom = point_mass("000", 3)
    for _ in range(10):
        q = random_dyadic_measure(rng, 3)
        assert is_coupled_below(bottom, q, 3).ok


def test_top_point_mass_vs_uniform_certificate():
    result = is_coupled_below(point_mass("1", 1), realize(Bernoulli(F(1, 2)), 1), 1)
    assert not result.ok
    assert result.witness == (["1"], 1, F(1, 2))
    assert result.rows == [("1", "1/1", "1/2")]


def test_bernoulli_family_is_stochastically_monotone():
    b13 = realize(Bernoulli(F(1, 3)), 3)
    b12 = realize(Bernoulli(F(1, 2)), 3)
    result = is_coupled_below(b13, b12, 3)
    assert result.ok
    plan = result.witness
    assert result.rows == [(x, y, fmt(v)) for (x, y), v in sorted(plan.items())]
    for x in all_words(3):
        assert sum((v for (a, _), v in plan.items() if a == x), F(0)) == b13.mass(x)
        assert sum((v for (_, b), v in plan.items() if b == x), F(0)) == b12.mass(x)
    for (x, y) in plan:
        assert leq_words(x, y)


def test_dedekind_counts():
    assert [len(enumerate_upper_sets(n)) for n in range(5)] == [2, 3, 6, 20, 168]


def test_enumeration_refuses_n5():
    with pytest.raises(CapabilityError):
        enumerate_upper_sets(5)


def test_enumeration_refuses_a_negative_level():
    with pytest.raises(ValueError, match="^depth must be nonnegative$"):
        enumerate_upper_sets(-1)


def brute_force_upper_sets(n: int) -> list[tuple[int, ...]]:
    """Every subset of the level-n word indices that is up-closed in the
    coordinatewise order, by size and then by increasing indices: the order
    in which `combinations` draws them."""
    words = all_words(n)
    return [
        chosen
        for size in range(len(words) + 1)
        for chosen in itertools.combinations(range(len(words)), size)
        if all(j in chosen for i in chosen for j, y in enumerate(words) if leq_words(words[i], y))
    ]


@pytest.mark.parametrize("n", range(4))
def test_enumeration_matches_the_up_closed_subsets_in_order(n):
    assert list(enumerate_upper_sets(n)) == brute_force_upper_sets(n)


def test_enumeration_at_its_cap_lists_168_distinct_up_closed_sets():
    words = all_words(4)
    uppers = enumerate_upper_sets(4)
    assert len(set(uppers)) == 168
    assert list(uppers) == sorted(uppers, key=lambda u: (len(u), u))
    for u in uppers:
        assert list(u) == sorted(set(u))
        assert all(j in u for i in u for j, y in enumerate(words) if leq_words(words[i], y))


def test_criterion_witness_is_the_first_violating_upper_set():
    rng = random.Random(67)
    seen = 0
    for _ in range(120):
        n = rng.randrange(1, 5)
        p = random_dyadic_measure(rng, n)
        q = random_dyadic_measure(rng, n)
        words = all_words(n)
        first = None
        for u in enumerate_upper_sets(n):
            p_u = sum((p.mass(words[x]) for x in u), F(0))
            q_u = sum((q.mass(words[x]) for x in u), F(0))
            if p_u > q_u:
                first = ([words[x] for x in u], p_u, q_u)
                break
        result = monotone_criterion_check(p, q, n)
        assert result.ok == (first is None)
        if first is not None:
            seen += 1
            assert result.witness == first
            assert result.rows == [(y, fmt(first[1]), fmt(first[2])) for y in first[0]]
    assert seen > 20


def test_coupling_refuses_a_level_past_its_cap():
    n = MAX_COUPLING_N + 1
    coin = realize(Bernoulli(F(1, 2)), n)
    with pytest.raises(CapabilityError, match=f"^coupling capped at n = {MAX_COUPLING_N}, got {n}$"):
        is_coupled_below(coin, coin, n)


@pytest.mark.parametrize("check", [is_coupled_below, monotone_criterion_check])
def test_checks_refuse_a_negative_level(check):
    # a negative index would read the leaf row
    coin = realize(Bernoulli(F(1, 3)), 2)
    with pytest.raises(ValueError, match="^depth must be nonnegative$"):
        check(coin, coin, -1)


def test_criterion_identical_measures_pass():
    m = realize(Bernoulli(F(2, 7)), 2)
    assert monotone_criterion_check(m, m, 2).ok


def test_criterion_failure_names_upper_set():
    result = monotone_criterion_check(
        point_mass("11", 2), realize(Bernoulli(F(1, 2)), 2), 2
    )
    assert not result.ok
    assert result.witness == (["11"], 1, F(1, 4))
    assert result.rows == [("11", "1/1", "1/4")]


def test_criterion_quarter_below_three_quarters():
    low = realize(Bernoulli(F(1, 4)), 2)
    high = realize(Bernoulli(F(3, 4)), 2)
    assert monotone_criterion_check(low, high, 2).ok


def test_flow_and_criterion_agree():
    rng = random.Random(43)
    for _ in range(60):
        n = rng.randrange(1, 5)
        p = random_dyadic_measure(rng, n)
        q = random_dyadic_measure(rng, n)
        assert is_coupled_below(p, q, n).ok == monotone_criterion_check(p, q, n).ok


def test_monotonize_examples():
    # rows list the words in word order: 0, 1 and 00, 01, 10, 11
    assert submask_hull([F(2), F(0)]) == [F(2), F(2)]
    already = [F(0), F(1), F(1), F(2)]
    assert submask_hull(already) == already
    assert submask_hull([F(0), F(1), F(0), F(0)]) == [F(0), F(1), F(0), F(1)]


@given(st.lists(st.integers(min_value=0, max_value=8), min_size=8, max_size=8))
@settings(max_examples=60)
def test_monotonize_idempotent_and_dominating(raw):
    t = [F(v) for v in raw]
    hull = submask_hull(t)
    assert submask_hull(hull) == hull
    words = all_words(3)
    for i, x in enumerate(words):
        assert hull[i] >= t[i]
        for j, y in enumerate(words):
            if leq_words(x, y):
                assert hull[i] <= hull[j]


def brute_force_hull(row: list) -> list:
    """Entry i is the max over the entries whose index is a submask of i."""
    return [max(v for j, v in enumerate(row) if j & i == j) for i in range(len(row))]


@pytest.mark.parametrize("n", range(9))
def test_hull_matches_submask_maxima(n):
    # lengths 1..256 cross the switch from strided slices to contiguous blocks
    rng = random.Random(n)
    for _ in range(3):
        row = [rng.randint(0, 3) for _ in range(2 ** n)]  # ties everywhere
        assert submask_hull(row) == brute_force_hull(row)
        pairs = [(v, -y) for y, v in enumerate(row)]  # the pushdown's smallest maximizers
        assert submask_hull(pairs) == brute_force_hull(pairs)


def test_pushdown_monotone_input_is_identity():
    t = {"0": F(1), "1": F(2)}
    q_star, integral = pushdown_measure(t, F(1, 3), 1)
    assert integral == F(2, 3) * 1 + F(1, 3) * 2
    assert q_star.mass("0") == F(2, 3) and q_star.mass("1") == F(1, 3)


def test_pushdown_indicator_of_zero():
    t = {"0": F(1), "1": F(0)}
    q_star, integral = pushdown_measure(t, F(1, 2), 1)
    assert q_star.mass("0") == 1
    assert integral == 1


def test_pushdown_corner_spike():
    t = {"00": F(2), "01": F(0), "10": F(0), "11": F(0)}
    q_star, integral = pushdown_measure(t, F(1, 2), 2)
    assert q_star.mass("00") == 1
    assert integral == 2


def test_pushdown_random_instances():
    rng = random.Random(47)
    for _ in range(40):
        n = rng.randrange(1, 4)
        t = {x: F(rng.randrange(0, 6), rng.choice((1, 2))) for x in all_words(n)}
        p = F(rng.randrange(0, 5), 4)
        check_pushdown(t, p, n)


@pytest.mark.parametrize("t", [{"0": F(1), "1": F(0)}, {"00": F(1), "01": F(0), "10": F(0)}])
def test_pushdown_refuses_a_function_that_is_not_total_on_its_level(t):
    with pytest.raises(ValueError, match="need a total function on level 2"):
        pushdown_measure(t, F(1, 2), 2)


def test_pushdown_moves_each_leaf_to_its_first_maximizer():
    # few values, so most down-sets hold several maximizers and the
    # tie-break decides where the mass lands
    rng = random.Random(53)
    for _ in range(150):
        n = rng.randint(0, 6)
        t = {x: F(rng.randrange(3)) for x in all_words(n)}
        p = F(rng.randrange(0, 8), 7)
        q_star, _ = pushdown_measure(t, p, n)
        expected = reference_pushdown(t, p, n)
        assert [q_star.mass(x) for x in all_words(n)] == [expected[x] for x in all_words(n)]


def test_sparsity_examples():
    uni = realize(Bernoulli(F(1, 2)), 2)
    T = from_weights({"1": F(2)}, uni, 2)
    assert sparsity_value(T, "11") == T.value("11")
    assert sparsity_value(T, "00") == min(v for _, v in level(T, 2))
    assert sparsity_value(T, "0") == 0
    assert sparsity_value(T, "1") == 2


def test_flow_feasibility_matches_scipy_beyond_criterion_cap():
    import numpy as np
    from math import lcm
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_flow

    rng = random.Random(59)
    for n in (5, 6, 7, 8):
        for _ in range(8):
            p = random_dyadic_measure(rng, n)
            q = random_dyadic_measure(rng, n)
            words = all_words(n)
            denom = lcm(
                *[p.mass(w).denominator for w in words],
                *[q.mass(w).denominator for w in words],
            )
            assert denom < 2 ** 31  # scipy's max flow runs on int32 capacities
            size = 2 + 2 * len(words)
            cap = np.zeros((size, size), dtype=np.int64)
            index = np.arange(len(words))
            below = (index[:, None] & index[None, :]) == index[:, None]  # x <= y bitwise
            cap[1 : 1 + len(words), 1 + len(words) : size - 1] = np.where(below, denom, 0)
            for i, x in enumerate(words):
                cap[0, 1 + i] = int(p.mass(x) * denom)
                cap[1 + len(words) + i, size - 1] = int(q.mass(x) * denom)
            flow = maximum_flow(csr_matrix(cap), 0, size - 1).flow_value
            result = is_coupled_below(p, q, n)
            assert result.ok == (flow == denom)
            if not result.ok:
                # the certificate attains the min cut: P(U) - Q(U) = 1 - max flow
                _, p_u, q_u = result.witness
                assert p_u - q_u == 1 - F(int(flow), denom)


def test_certificate_is_the_minimal_maximizing_upper_set():
    rng = random.Random(61)
    seen = 0
    for _ in range(150):
        n = rng.randrange(1, 5)
        p = random_dyadic_measure(rng, n)
        q = random_dyadic_measure(rng, n)
        result = is_coupled_below(p, q, n)
        if result.ok:
            continue
        seen += 1
        words = all_words(n)
        gap = {u: sum((p.mass(words[x]) - q.mass(words[x]) for x in u), F(0)) for u in enumerate_upper_sets(n)}
        best = max(gap.values())
        maximizers = [u for u, g in gap.items() if g == best]
        minimal = tuple(sorted(set.intersection(*map(set, maximizers))))
        assert minimal in maximizers
        upper, p_u, q_u = result.witness
        assert upper == [words[x] for x in minimal]
        assert p_u - q_u == best
        assert result.rows == [(y, fmt(p_u), fmt(q_u)) for y in upper]
    assert seen > 20


def test_sparsity_monotone_in_coordinatewise_order():
    rng = random.Random(53)
    uni = realize(Bernoulli(F(1, 2)), 3)
    for _ in range(20):
        weights = {
            x: F(rng.randrange(0, 3))
            for x in all_words(rng.randrange(1, 4))
            if rng.random() < 0.5
        }
        budget = sum((uni.mass(x) * w for x, w in weights.items()), F(0))
        if budget > 1:
            weights = {x: w / budget for x, w in weights.items()}
        T = from_weights(weights, uni, 3)
        for length in range(4):
            for x in all_words(length):
                for y in all_words(length):
                    if leq_words(x, y):
                        assert sparsity_value(T, x) <= sparsity_value(T, y)
