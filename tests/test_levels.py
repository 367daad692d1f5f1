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
    by_word,
    level,
    point_mass,
    random_dyadic_measure,
    random_listed,
    random_monotone_test,
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
    reference_pushdown,
    reference_realize,
    reference_sparsity,
)
from randlab.bernoulli import extend_by_monotonicity
from randlab.coupling import pushdown_measure, sparsity_value, submask_hull
from randlab.exact import INF, fmt
from randlab.formats import parse_test_file
from randlab.measures import (
    Bernoulli,
    CapabilityError,
    DyadicMeasure,
    MeasureError,
    Mixture,
    all_words,
    prefixes,
    realize,
)
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


@pytest.mark.parametrize("seed,depth", CASES)
def test_realize_matches_the_dict_walk(seed, depth):
    rng = random.Random(seed * 31 + depth)
    spec = random_spec(rng, depth)
    measure = realize(spec, depth)
    assert by_word(measure) == reference_realize(spec, depth)
    assert measure.check() is None
    for length in range(depth + 1):
        assert len(measure.nums[length]) == 2 ** length


@pytest.mark.parametrize("seed,depth", CASES)
def test_mixtures_are_flat_and_keep_their_masses(seed, depth):
    # parts drawn with nested and shared mixtures, and one part listed again
    rng = random.Random(seed * 43 + depth)
    drawn: list = []
    parts = [random_spec(rng, depth, 2, drawn) for _ in range(rng.randint(1, 4))]
    parts.append(rng.choice(drawn))
    raw = [rng.randint(1, 6) for _ in parts]
    weights = [F(r, sum(raw)) for r in raw]
    mix = Mixture(tuple(weights), tuple(parts))
    assert not any(isinstance(part, Mixture) for part in mix.parts)
    first: dict = {}  # each coin or table by identity, in order of first appearance
    for part in parts:
        for leaf in part.parts if isinstance(part, Mixture) else (part,):
            first.setdefault(id(leaf), leaf)
    assert [id(part) for part in mix.parts] == list(first)
    assert sum(mix.weights) == 1 and min(mix.weights) > 0
    masses = [reference_realize(part, depth) for part in parts]
    expected = {x: sum((w * m[x] for w, m in zip(weights, masses)), F(0)) for x in prefixes(depth)}
    assert by_word(realize(mix, depth)) == expected


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
        assert by_word(DyadicMeasure.from_leaves(depth, leaves)) == reference_fold(leaves, depth)
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


@pytest.mark.parametrize(
    "entry, message",
    [("2", "not a binary word: '2'"), ("00", "leaf '00' is not at depth 1"), ("", "leaf '' is not at depth 1")],
)
def test_from_leaves_refuses_an_entry_off_its_level(entry, message):
    # the uniform table's leaves plus one entry that is not a leaf word
    leaves = {"0": F(1, 2), "1": F(1, 2), entry: F(5)}
    with pytest.raises(ValueError) as err:
        DyadicMeasure.from_leaves(1, leaves)
    assert str(err.value) == message and not isinstance(err.value, MeasureError)


@pytest.mark.parametrize("seed,depth", CASES)
def test_from_partial_matches_the_dict_walk(seed, depth):
    rng = random.Random(seed * 41 + depth)
    listed = random_listed(rng, depth)
    test = ExtendedTest.from_partial(depth, listed)
    assert by_word(test) == reference_from_partial(depth, listed)
    assert all(test.value(x) == v for x, v in by_word(test).items())


@pytest.mark.parametrize("seed,depth", CASES)
def test_measures_and_tests_read_a_mapping_into_the_same_table(seed, depth):
    mass = by_word(realize(random_spec(random.Random(seed * 31 + depth), depth), depth))
    measure, test = DyadicMeasure(depth, mass), ExtendedTest(depth, mass)
    assert (measure.nums, measure.den) == (test.nums, test.den)
    for k in range(depth + 1):
        assert level(test, k) == level(measure, k) == [(x, mass[x]) for x in all_words(k)]
        shallow = {x: v for x, v in mass.items() if len(x) <= k}
        assert by_word(test.truncated(k)) == by_word(ExtendedTest(k, shallow))
        assert measure.truncated(k) == DyadicMeasure(k, shallow)
    assert (repr(measure), repr(test)) == (f"DyadicMeasure(depth={depth})", f"ExtendedTest(depth={depth})")


@pytest.mark.parametrize("seed,depth", CASES)
def test_test_kernels_match_the_dict_walks(seed, depth):
    rng = random.Random(seed * 43 + depth)
    measure = realize(random_spec(rng, depth), depth)
    mass = by_word(measure)
    test = ExtendedTest.from_partial(depth, random_listed(rng, depth))
    values = by_word(test)

    averages = reference_level_averages(values, mass, depth)
    rows = validate_extended_test(test, measure).rows
    assert [r[1] for r in rows if r[0].startswith("len=")] == [fmt(a) for a in averages]

    for mode in ("martingale", "supermartingale"):
        verdict = martingale_check(test, measure, mode)
        assert (verdict.witness or []) == reference_martingale_failures(values, mass, depth, mode)

    pairs, holds = reference_prob_bound(values, mass, depth)
    verdict = prob_bound_check(test, measure)
    assert verdict.ok == holds
    expected = [(f"value={fmt(v)}", fmt(t), fmt(v * t), "pass" if v * t <= 1 else "fail") for v, t in pairs]
    failing = next((i for i, (v, t) in enumerate(pairs) if v * t > 1), None)
    if failing is not None:
        # a threshold N between the previous value and v, above 1/tail: P{T > N} = tail > 1/N
        v, tail = pairs[failing]
        n_value = (max(pairs[failing - 1][0] if failing else F(0), 1 / tail) + v) / 2
        expected.append((f"witness-N={fmt(n_value)}", fmt(tail), fmt(1 / n_value), "fail"))
    assert verdict.rows == (expected or [("all", "-", "-", "pass")])  # no positive leaf value
    if holds:
        converted, average = prob_to_avg_convert(test, measure)
        assert (by_word(converted), average) == reference_convert(values, mass, depth)

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
        verdict = martingale_check(g, measure, mode)
        assert (verdict.witness or []) == reference_martingale_failures(g, by_word(measure), depth, mode)


@pytest.mark.parametrize("seed,depth", CASES)
def test_hull_matches_the_word_by_word_max(seed, depth):
    rng = random.Random(seed * 53 + depth)
    t = {x: F(rng.randint(0, 9), rng.choice((1, 2, 3))) for x in all_words(depth)}
    expected = reference_hull(t)
    assert submask_hull([t[x] for x in all_words(depth)]) == [expected[x] for x in all_words(depth)]


def test_martingale_oracle_sees_infinities():
    # the mapping case must reach INF products, or it compares only rationals
    measure = random_dyadic_measure(random.Random(0), 3)
    g = {x: INF for x in prefixes(3)}
    failures = martingale_check(g, measure).witness or []
    assert failures == reference_martingale_failures(g, by_word(measure), 3, "martingale")


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
    "table, values, message",
    [
        (DyadicMeasure, {"": F(1), "0": F(1, 2)}, "missing mass for prefix '1'"),
        (DyadicMeasure, {"": F(1), "0": F(3, 2), "1": F(-1, 2)}, "mass out of [0,1] at prefix '0'"),
        (ExtendedTest, {"": F(1), "1": F(1)}, "test value missing for prefix '0'"),
        (ExtendedTest, {"": F(1), "0": F(1), "1": F(-1)}, "negative test value at prefix '1'"),
        # a missing prefix is refused before any value is checked
        (DyadicMeasure, {"": F(1), "0": F(3, 2)}, "missing mass for prefix '1'"),
        (ExtendedTest, {"": F(-1)}, "test value missing for prefix '0'"),
    ],
    ids=[
        "measure-missing", "measure-out-of-range", "test-missing", "test-negative",
        "measure-missing-before-out-of-range", "test-missing-before-negative",
    ],
)
def test_tables_refuse_a_missing_or_out_of_range_value(table, values, message):
    with pytest.raises(ValueError) as err:
        table(1, values)
    assert str(err.value) == message
    if table is DyadicMeasure:
        assert isinstance(err.value, MeasureError) and message.endswith(repr(err.value.prefix))


@pytest.mark.parametrize("seed,depth", CASES)
def test_every_test_builder_gives_nonnegative_rows(tmp_path, seed, depth):
    # Only the mapping constructor scans its rows for a negative value; the
    # other builders refuse a negative input or make their rows from a test
    # already built, and these are all of them.
    rng = random.Random(seed * 53 + depth)
    measure = realize(random_spec(rng, depth), depth)
    signed = {x: v - 6 if rng.random() < 0.3 else v for x, v in random_listed(rng, depth).items()}
    path = tmp_path / "signed.test"
    path.write_text(f"test {depth}\n" + "".join(f"{x or '-'} {v}\n" for x, v in signed.items()), encoding="ascii")
    builders = [
        lambda: ExtendedTest.from_partial(depth, signed),
        lambda: parse_test_file(str(path)),
        lambda: from_weights({x: v / 72 for x, v in signed.items()}, measure, depth),  # budget <= 6 * 12 / 72
    ]
    tests = []
    for build in builders:
        if any(v < 0 for v in signed.values()):
            with pytest.raises(ValueError, match="negative"):
                build()
        else:
            tests.append(build())
    bounded = random_monotone_test(rng, measure, depth)
    below_one = ExtendedTest.from_partial(depth, {x: v / 12 for x, v in random_listed(rng, depth).items()})
    tests += [bounded, prob_to_avg_convert(bounded, measure)[0], extend_by_monotonicity(below_one, depth + 2)]
    tests += [test.truncated(k) for test in list(tests) for k in range(depth + 1)]
    assert all(min(row) >= 0 for test in tests for row in test.nums)


# Inputs of the constructor cases below, at depth 3; their denominators are
# coprime, so a table over one denominator has to take their lcm.
LEAVES = {"000": F(1, 6), "011": F(1, 3), "101": F(1, 4), "111": F(1, 4)}
LISTED = {"": F(1, 2), "01": F(3), "110": F(7, 5)}
WEIGHTS = {"": F(1, 3), "1": F(1, 2), "011": F(2, 7)}
TABLE = DyadicMeasure.from_leaves(3, LEAVES)
NESTED = Mixture((F(1, 3), F(2, 3)), (Bernoulli(F(1, 5)), Mixture((F(1, 7), F(6, 7)), (Bernoulli(F(3, 7)), TABLE))))
COIN = realize(Bernoulli(F(2, 3)), 3)


def _written(tmp_path, listed):
    path = tmp_path / "listed.test"
    path.write_text("test 3\n" + "".join(f"{x or '-'} {v}\n" for x, v in listed.items()), encoding="ascii")
    return str(path)


TABLE_CASES = {
    # name: tmp_path -> (table, its every prefix's value read word by word)
    "measure-mapping": lambda _: (DyadicMeasure(3, reference_realize(NESTED, 3)), reference_realize(NESTED, 3)),
    "test-mapping": lambda _: (ExtendedTest(3, reference_from_partial(3, LISTED)), reference_from_partial(3, LISTED)),
    "from-partial": lambda _: (ExtendedTest.from_partial(3, LISTED), reference_from_partial(3, LISTED)),
    "from-weights": lambda _: (
        from_weights(WEIGHTS, COIN, 3),
        {x: sum((w for y, w in WEIGHTS.items() if x.startswith(y)), F(0)) for x in prefixes(3)},
    ),
    "from-leaves": lambda _: (TABLE, reference_fold({x: LEAVES.get(x, F(0)) for x in all_words(3)}, 3)),
    "parse-test-file": lambda tmp: (parse_test_file(_written(tmp, LISTED)), reference_from_partial(3, LISTED)),
    "realize-coin-0": lambda _: (realize(Bernoulli(F(0)), 4), reference_realize(Bernoulli(F(0)), 4)),
    "realize-coin-1/2": lambda _: (realize(Bernoulli(F(1, 2)), 4), reference_realize(Bernoulli(F(1, 2)), 4)),
    "realize-coin-97/100": lambda _: (realize(Bernoulli(F(97, 100)), 4), reference_realize(Bernoulli(F(97, 100)), 4)),
    "realize-table": lambda _: (realize(TABLE, 2), reference_realize(TABLE, 2)),
    "realize-nested-mix": lambda _: (realize(NESTED, 3), reference_realize(NESTED, 3)),
    "point-mass": lambda _: (point_mass("0110", 3), {x: F("0110".startswith(x)) for x in prefixes(3)}),
    "truncated": lambda _: (realize(NESTED, 3).truncated(1), reference_realize(NESTED, 1)),
    "convert": lambda _: (
        prob_to_avg_convert(from_weights(WEIGHTS, COIN, 3), COIN)[0],
        reference_convert(by_word(from_weights(WEIGHTS, COIN, 3)), by_word(COIN), 3)[0],
    ),
    "bernoulli-extend": lambda _: (
        extend_by_monotonicity(ExtendedTest.from_partial(2, {"1": F(2, 3), "11": F(1)}), 5),
        reference_from_partial(5, {"1": F(2, 3), "11": F(1)}),
    ),
    "pushdown": lambda _: (
        pushdown_measure({x: F(i % 3, 5) for i, x in enumerate(all_words(3))}, F(2, 7), 3)[0],
        reference_fold(reference_pushdown({x: F(i % 3, 5) for i, x in enumerate(all_words(3))}, F(2, 7), 3), 3),
    ),
}


@pytest.mark.parametrize("name", TABLE_CASES)
def test_every_table_is_its_rows_over_one_denominator(tmp_path, name):
    table, expected = TABLE_CASES[name](tmp_path)
    assert type(table.den) is int and table.den > 0
    assert [len(row) for row in table.nums] == [2 ** k for k in range(table.depth + 1)]
    assert all(type(v) is int for row in table.nums for v in row)
    assert by_word(table) == expected


@pytest.mark.parametrize("p", [F(0), F(1), F(1, 2), F(1, 97), F(3, 7), F(97, 100)])
@pytest.mark.parametrize("depth", [0, 1, 5, 16])
def test_a_coin_table_is_over_b_to_the_depth(p, depth):
    assert realize(Bernoulli(p), depth).den == p.denominator ** depth


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
