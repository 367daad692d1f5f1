"""The level-array core against dict-based references.

Every kernel that reads integer rows is compared with the word-by-word
definition it replaced (`helpers.reference_*`) on random measures, mixtures
with coprime denominators and tests at depth 0-6.
"""
import random
import tracemalloc
from fractions import Fraction as F

import pytest

from helpers import (
    random_dyadic_measure,
    random_listed,
    random_spec,
    random_word,
    reference_check,
    reference_convert,
    reference_fold,
    reference_from_partial,
    reference_hull,
    reference_level_averages,
    reference_martingale_failures,
    reference_prob_bound,
    reference_realize,
    reference_sparsity,
)
from randlab.coupling import monotonize, sparsity_value, submask_hull
from randlab.exact import INF, fmt
from randlab.measures import CapabilityError, DyadicMeasure, MeasureError, all_words, prefixes, realize
from randlab.randtests import (
    ExtendedTest,
    from_weights,
    conditional_average,
    martingale_check,
    min_extension,
    prob_bound_check,
    prob_to_avg_convert,
    validate_extended_test,
)

CASES = [(seed, depth) for depth in range(7) for seed in range(6)]


def masses(measure: DyadicMeasure) -> dict:
    return {x: measure.mass(x) for x in prefixes(measure.depth)}


@pytest.mark.parametrize("seed,depth", CASES)
def test_realize_matches_the_dict_walk(seed, depth):
    rng = random.Random(seed * 31 + depth)
    spec = random_spec(rng, depth)
    measure = realize(spec, depth)
    assert masses(measure) == reference_realize(spec, depth)
    assert measure.check() is None
    for length in range(depth + 1):
        assert len(measure.nums[length]) == 2 ** length


@pytest.mark.parametrize("seed,depth", CASES)
def test_from_leaves_reports_the_first_offending_prefix(seed, depth):
    rng = random.Random(seed * 37 + depth)
    leaves = {x: F(rng.randint(-1, 4), rng.choice((2, 3, 4))) for x in all_words(depth)}
    if rng.random() < 0.5:  # a few tables that sum to 1
        total = sum(abs(v) for v in leaves.values()) or F(1)
        leaves = {x: abs(v) / total for x, v in leaves.items()}
        leaves[all_words(depth)[0]] += 1 - sum(leaves.values())
    expected = reference_check(reference_fold(leaves, depth), depth)
    if expected is None:
        assert masses(DyadicMeasure.from_leaves(depth, leaves)) == reference_fold(leaves, depth)
    else:
        with pytest.raises(MeasureError) as err:
            DyadicMeasure.from_leaves(depth, leaves)
        assert (str(err.value), err.value.prefix) == expected


def test_from_leaves_names_an_interior_offender():
    # "" holds 1, but "0" holds 3/2 and "1" holds -1/2; the leaves are in range
    leaves = {"00": F(3, 4), "01": F(3, 4), "10": F(-1, 4), "11": F(-1, 4)}
    with pytest.raises(MeasureError) as err:
        DyadicMeasure.from_leaves(2, leaves)
    assert err.value.prefix == "0"
    assert reference_check(reference_fold(leaves, 2), 2)[1] == "0"


@pytest.mark.parametrize("seed,depth", CASES)
def test_from_partial_matches_the_dict_walk(seed, depth):
    rng = random.Random(seed * 41 + depth)
    listed = random_listed(rng, depth)
    test = ExtendedTest.from_partial(depth, listed)
    assert dict(test.values) == reference_from_partial(depth, listed)
    assert all(test.value(x) == v for x, v in test.values.items())


@pytest.mark.parametrize("seed,depth", CASES)
def test_test_kernels_match_the_dict_walks(seed, depth):
    rng = random.Random(seed * 43 + depth)
    measure = realize(random_spec(rng, depth), depth)
    mass = masses(measure)
    test = ExtendedTest.from_partial(depth, random_listed(rng, depth))
    values = dict(test.values)

    averages = reference_level_averages(values, mass, depth)
    rows = validate_extended_test(test, measure).rows
    assert [r[1] for r in rows if r[0].startswith("len=")] == [fmt(a) for a in averages]

    for mode in ("martingale", "supermartingale"):
        report = martingale_check(test, measure, mode)
        assert report.failures == reference_martingale_failures(values, mass, depth, mode)

    pairs, holds = reference_prob_bound(values, mass, depth)
    verdict = prob_bound_check(test, measure)
    assert verdict.ok == holds
    assert [r[:2] for r in verdict.rows] == [(f"value={fmt(v)}", fmt(t)) for v, t in pairs]
    if holds:
        converted, report = prob_to_avg_convert(test, measure)
        expected, average = reference_convert(values, mass, depth)
        assert dict(converted.values) == expected and report.average == average

    x = random_word(rng, rng.randint(0, depth))
    below = [y for y in all_words(depth) if y.startswith(x)]
    assert min_extension(test, x) == min(values[y] for y in below)
    weighted = sum((mass[y] * values[y] for y in below), F(0))
    assert conditional_average(test, measure, x) == (weighted / mass[x] if mass[x] else 0)
    assert sparsity_value(test, x) == reference_sparsity(values, depth, x)


@pytest.mark.parametrize("seed,depth", CASES)
def test_martingale_mapping_with_infinities_matches_the_dict_walk(seed, depth):
    rng = random.Random(seed * 47 + depth)
    measure = random_dyadic_measure(rng, depth)  # null prefixes occur
    g = reference_from_partial(depth, random_listed(rng, depth, inf=True))
    for mode in ("martingale", "supermartingale"):
        report = martingale_check(g, measure, mode)
        assert report.failures == reference_martingale_failures(g, masses(measure), depth, mode)


@pytest.mark.parametrize("seed,depth", CASES)
def test_hull_matches_the_word_by_word_max(seed, depth):
    rng = random.Random(seed * 53 + depth)
    t = {x: F(rng.randint(0, 9), rng.choice((1, 2, 3))) for x in all_words(depth)}
    expected = reference_hull(t)
    assert monotonize(t) == expected
    assert submask_hull([t[x] for x in all_words(depth)]) == [expected[x] for x in all_words(depth)]


def test_martingale_oracle_sees_infinities():
    # the mapping case must reach INF products, or it compares only rationals
    measure = random_dyadic_measure(random.Random(0), 3)
    g = {x: INF for x in prefixes(3)}
    failures = martingale_check(g, measure).failures
    assert failures == reference_martingale_failures(g, masses(measure), 3, "martingale")


@pytest.mark.parametrize("word", ["0b1", "1_0", " 1", "1 ", "2"])
def test_words_are_checked_before_they_become_indices(word):
    # int(word, 2) alone would read "0b1", "1_0" and " 1" as numbers
    measure = realize(random_spec(random.Random(1), 3), 3)
    test = ExtendedTest.from_partial(3, {"1": F(2)})
    for lookup in (measure.mass, test.value, lambda x: min_extension(test, x)):
        with pytest.raises((ValueError, KeyError)):
            lookup(word)
    with pytest.raises(ValueError):
        ExtendedTest.from_partial(3, {word: F(1)})


@pytest.mark.parametrize(
    "build",
    [
        lambda d: DyadicMeasure(d, {}),
        lambda d: DyadicMeasure.from_leaves(d, {}),
        lambda d: ExtendedTest(d, {}),
        lambda d: ExtendedTest.from_partial(d, {}),
        lambda d: from_weights({}, realize(random_spec(random.Random(0), 0), 0), d),
    ],
    ids=["measure", "from-leaves", "test", "from-partial", "from-weights"],
)
def test_deep_tables_are_refused_before_anything_is_allocated(build):
    # a `test 1000000` header must cost nothing; a per-level list built
    # before the cap would take tens of megabytes here (and far more for
    # a longer header)
    tracemalloc.start()
    try:
        with pytest.raises(CapabilityError):
            build(10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
