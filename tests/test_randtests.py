import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from helpers import (
    by_word,
    canonical_monotone_machine,
    level,
    point_mass,
    random_dyadic_measure,
    random_monotone_machine,
    random_monotone_test,
    random_prefix_machine,
    random_word,
    reference_profile_rows,
    sum_test_values,
    tiny_machine,
)
from randlab.cli import main
from randlab.exact import ceil_log2, floor_log2, is_inf, mul_nonneg
from randlab.machines import PrefixMachine, canonical_machine
from randlab.measures import Bernoulli, DyadicMeasure, Mixture, all_words, prefixes, realize
from randlab.randtests import (
    CONVERT_AVG_BOUND,
    ExtendedTest,
    conditional_average,
    convert_value,
    deficiency_profile,
    from_weights,
    martingale_check,
    min_extension,
    prob_bound_check,
    prob_to_avg_convert,
    validate_extended_test,
)

UNIFORM2 = realize(Bernoulli(F(1, 2)), 2)


def test_validate_constant_one_passes():
    T = ExtendedTest.from_partial(2, {"": F(1)})
    assert validate_extended_test(T, UNIFORM2).ok


def test_validate_level_average_exactly_one():
    T = ExtendedTest(1, {"": F(0), "0": F(2), "1": F(0)})
    assert validate_extended_test(T, realize(Bernoulli(F(1, 2)), 1)).ok


def test_validate_constant_two_fails_at_root():
    T = ExtendedTest.from_partial(2, {"": F(2)})
    report = validate_extended_test(T, UNIFORM2)
    assert not report.ok
    assert "level 0" in report.witness


def test_validate_reports_a_non_monotone_child_and_names_it():
    # a test file is max-closed, so only a table built in the library gets here
    T = ExtendedTest(2, {"": F(1), "0": F(0), "1": F(1), "00": F(0), "01": F(0), "10": F(1), "11": F(1)})
    report = validate_extended_test(T, UNIFORM2)
    assert not report.ok
    assert report.rows[0] == ("0", "0/1", "1/1", "non-monotone")
    assert [row[3] for row in report.rows[1:]] == ["pass", "pass", "pass"]
    assert report.witness == "monotonicity fails at '0'"


@st.composite
def prefix_free_sets(draw, depth: int) -> list[str]:
    """A random antichain of words of length <= depth, grown down the tree."""
    def grow(x: str) -> list[str]:
        if len(x) < depth and draw(st.booleans()):
            return grow(x + "0") + grow(x + "1")
        return [x] if draw(st.booleans()) else []

    return grow("")


@given(st.integers(0, 2 ** 32), st.integers(1, 5), st.data())
def test_a_valid_test_sums_to_at_most_one_over_a_prefix_free_set(seed, depth, data):
    # sum_{x in A} P(x) T(x) <= 1 for a valid test T and a prefix-free A; the
    # weights are scaled to budget 1, so the leaf level sums to exactly 1
    rng = random.Random(seed)
    measure = random_dyadic_measure(rng, depth)
    mass = by_word(measure)
    weights = {x: F(rng.randrange(1, 9), rng.randrange(1, 4)) for x in prefixes(depth) if rng.random() < 0.3}
    budget = sum((mass[x] * w for x, w in weights.items()), F(0))
    if budget:
        weights = {x: w / budget for x, w in weights.items()}
    T = from_weights(weights, measure, depth)
    assert validate_extended_test(T, measure).ok
    value = by_word(T)
    members = data.draw(prefix_free_sets(depth))
    assert sum((mass[x] * value[x] for x in members), F(0)) <= 1
    assert sum((mass[x] * value[x] for x in all_words(depth)), F(0)) == (1 if budget else 0)


def test_from_weights_examples():
    T = from_weights({"": F(1)}, UNIFORM2, 2)
    assert all(v == 1 for v in by_word(T).values())
    T2 = from_weights({"1": F(2)}, UNIFORM2, 2)
    assert T2.value("") == 0 and T2.value("0") == 0 and T2.value("1") == 2
    assert T2.value("10") == T2.value("11") == 2
    T3 = from_weights({"0": F(1), "1": F(1)}, UNIFORM2, 2)
    assert T3.value("0") == T3.value("1") == 1


def test_from_weights_budget_error_reports_sum():
    with pytest.raises(ValueError) as err:
        from_weights({"": F(3)}, UNIFORM2, 2)
    assert "3" in str(err.value)


@pytest.mark.parametrize(
    "weights, prefix",
    [({"": F(1), "0": F(-1)}, "0"), ({"0": F(3), "1": F(-1)}, "1")],
    ids=["within-budget", "exact-budget"],
)
def test_from_weights_refuses_a_negative_weight(weights, prefix):
    # both budgets are at most 1; the first used to build a non-monotone table
    with pytest.raises(ValueError) as err:
        from_weights(weights, UNIFORM2, 2)
    assert str(err.value) == f"negative weight at prefix {prefix!r}"


def test_from_weights_always_validates():
    rng = random.Random(11)
    for _ in range(60):
        depth = rng.randrange(1, 5)
        measure = random_dyadic_measure(rng, depth)
        T = random_monotone_test(rng, measure, depth)
        assert validate_extended_test(T, measure).ok


def test_min_extension_examples():
    T = ExtendedTest(1, {"": F(2), "0": F(2), "1": F(3)})
    assert min_extension(T, "0") == 2
    T2 = from_weights({"1": F(2)}, UNIFORM2, 2)
    assert min_extension(T2, "") == 0
    assert min_extension(T2, "1") == 2


def test_conditional_average_examples():
    T = ExtendedTest.from_partial(2, {"": F(3, 4)})
    assert conditional_average(T, UNIFORM2, "0") == F(3, 4)
    uni1 = realize(Bernoulli(F(1, 2)), 1)
    T2 = ExtendedTest(1, {"": F(0), "0": F(2), "1": F(0)})
    assert conditional_average(T2, uni1, "") == 1
    assert conditional_average(T2, uni1, "0") == 2


def test_conditional_average_on_null_cylinder():
    # additivity forces the cylinder integral to vanish with the cylinder
    # mass, so the null case lands on the flagged-zero convention
    pm = point_mass("11", 2)
    T = ExtendedTest.from_partial(2, {"00": F(5)})
    assert conditional_average(T, pm, "0") == 0
    T2 = ExtendedTest.from_partial(2, {"": F(1)})
    assert conditional_average(T2, pm, "0") == 0


def test_min_never_exceeds_average():
    rng = random.Random(13)
    for _ in range(80):
        depth = rng.randrange(1, 5)
        measure = random_dyadic_measure(rng, depth)
        T = random_monotone_test(rng, measure, depth)
        for length in range(depth + 1):
            for x in all_words(length):
                if measure.mass(x) > 0:
                    assert min_extension(T, x) <= conditional_average(T, measure, x)


def test_martingale_doubling_along_branch():
    g = {x: F(2 ** len(x)) if "11111"[: len(x)] == x else F(0) for length in range(4) for x in all_words(length)}
    measure = realize(Bernoulli(F(1, 2)), 3)
    assert martingale_check(g, measure, "martingale").ok


def test_martingale_constant_one():
    g = {x: F(1) for length in range(3) for x in all_words(length)}
    assert martingale_check(g, UNIFORM2, "martingale").ok


def test_martingale_mass_drop():
    g = {"": F(1), "0": F(0), "1": F(0)}
    assert not martingale_check(g, UNIFORM2, "martingale").ok
    assert martingale_check(g, UNIFORM2, "supermartingale").ok


def test_conditional_average_is_martingale():
    rng = random.Random(17)
    for _ in range(40):
        depth = rng.randrange(1, 5)
        measure = random_dyadic_measure(rng, depth)
        T = random_monotone_test(rng, measure, depth)
        g = {
            x: conditional_average(T, measure, x)
            for length in range(depth + 1)
            for x in all_words(length)
        }
        assert martingale_check(g, measure, "martingale").ok


def test_shipped_monotone_machine_ratio_is_supermartingale():
    from randlab.exact import div_ratio
    from randlab.machines import monotone_output_prob

    machine = canonical_monotone_machine()
    horizon = machine.max_program_length()
    depth = 3
    measure = realize(Bernoulli(F(1, 2)), depth)
    g = {
        x: div_ratio(monotone_output_prob(machine, x, horizon), measure.mass(x))[0]
        for length in range(depth + 1)
        for x in all_words(length)
    }
    assert martingale_check(g, measure, "supermartingale").ok


def test_prob_bound_examples():
    T = ExtendedTest.from_partial(2, {"00": F(4)})
    report = prob_bound_check(T, UNIFORM2)
    assert report.ok
    T2 = ExtendedTest.from_partial(2, {"00": F(8), "01": F(8)})
    report2 = prob_bound_check(T2, UNIFORM2)
    assert not report2.ok
    n_witness, tail = report2.witness
    assert tail > 1 / n_witness  # the witness certifies the violation


def test_prob_bound_without_positive_values_reports_one_row(tmp_path, capsys):
    # no positive leaf value: the bound holds at every N, in one `all` row
    for T in (ExtendedTest.from_partial(2, {}), ExtendedTest.from_partial(2, {"0": F(0)})):
        report = prob_bound_check(T, UNIFORM2)
        assert (report.ok, report.rows, report.witness) == (True, [("all", "-", "-", "pass")], None)
    (tmp_path / "t.test").write_text("test 2\n", encoding="ascii")
    (tmp_path / "u.measure").write_text("bernoulli 1/2\n", encoding="ascii")
    assert main(["prob-check", str(tmp_path / "t.test"), "--measure", str(tmp_path / "u.measure")]) == 0
    assert capsys.readouterr() == ("prefix\tvalue\tbound\tverdict\nall\t-\t-\tpass\n", "")


def test_average_bounded_implies_prob_bounded():
    rng = random.Random(19)
    for _ in range(60):
        depth = rng.randrange(1, 5)
        measure = random_dyadic_measure(rng, depth)
        T = random_monotone_test(rng, measure, depth)
        assert prob_bound_check(T, measure).ok


def test_convert_value_guard_and_seam():
    assert convert_value(F(1)) == F(1, 4)
    assert convert_value(F(4)) == 1
    assert convert_value(F(16)) == 1
    assert convert_value(F(5)) == F(5, 9)  # ceil(log2 5) = 3
    assert convert_value(F(0)) == 0


@given(
    st.one_of(
        st.fractions(min_value=F(1, 10**9), max_value=10**9),
        st.integers(-80, 80).map(lambda k: F(2) ** k),
    ).filter(lambda f: f > 0)
)
def test_floor_and_ceil_log2_meet_their_definitions(f):
    k = floor_log2(f)
    assert F(2) ** k <= f < F(2) ** (k + 1)
    k = ceil_log2(f)
    assert F(2) ** (k - 1) < f <= F(2) ** k


def test_convert_flat_test():
    T = ExtendedTest.from_partial(2, {"": F(1)})
    converted, average = prob_to_avg_convert(T, UNIFORM2)
    assert all(v == F(1, 4) for _, v in level(converted, converted.depth))
    assert average == F(1, 4) <= CONVERT_AVG_BOUND


def test_convert_constant_four():
    T = ExtendedTest.from_partial(2, {"": F(4)})
    with pytest.raises(ValueError):
        # constant 4 is not probability bounded: P{T > 2} = 1 > 1/2
        prob_to_avg_convert(T, UNIFORM2)


def test_convert_requires_prob_bound():
    T = ExtendedTest.from_partial(2, {"00": F(8), "01": F(8)})
    with pytest.raises(ValueError):
        prob_to_avg_convert(T, UNIFORM2)


def test_convert_random_instances_within_bound():
    rng = random.Random(23)
    for _ in range(60):
        depth = rng.randrange(1, 5)
        measure = random_dyadic_measure(rng, depth)
        T = random_monotone_test(rng, measure, depth)
        converted, average = prob_to_avg_convert(T, measure)
        assert average <= CONVERT_AVG_BOUND
        assert converted.is_monotone() is None


def test_deficiency_profile_empty_machine():
    profile = deficiency_profile(PrefixMachine({}), None, UNIFORM2, "01")
    for row in profile.rows:
        assert row.m_ratio == 0 and row.running_sum == 0 and row.running_sup == 0


def test_deficiency_profile_infinite_ratio_convention():
    machine = PrefixMachine({"0": "1"})
    pm = point_mass("00", 2)
    profile = deficiency_profile(machine, None, pm, "1")
    assert is_inf(profile.rows[-1].m_ratio)
    assert is_inf(profile.rows[-1].running_sum)


def test_deficiency_profile_canonical_sum():
    machine = canonical_machine()
    uni = realize(Bernoulli(F(1, 2)), 1)
    profile = deficiency_profile(machine, None, uni, "0")
    mass = machine.output_mass()
    expected = mass[""] + mass["0"] / F(1, 2)
    assert profile.rows[-1].running_sum == expected


def test_deficiency_chain_on_random_instances():
    rng = random.Random(29)
    for _ in range(30):
        depth = rng.randrange(1, 5)
        measure = random_dyadic_measure(rng, depth)
        machine = random_prefix_machine(rng)
        x = "".join(rng.choice("01") for _ in range(depth))
        profile = deficiency_profile(machine, random_monotone_machine(rng), measure, x)
        for row in profile.rows:
            assert row.running_sup <= row.running_sum
            if measure.mass(row.prefix) > 0:
                assert row.tbar <= row.that


def test_deficiency_profile_reads_its_running_sum_test():
    # With full support the running sum of m(t)/P(t) is finite: it is the
    # test with weights m(t)/P(t), whose budget is the Kraft sum.
    rng = random.Random(37)
    rows = 0
    for _ in range(60):
        depth = rng.randrange(0, 6)
        mass = {"": F(1)}
        for length in range(depth):
            for x in all_words(length):
                theta = F(rng.randint(1, 6), 7)
                mass[x + "0"], mass[x + "1"] = mass[x] * (1 - theta), mass[x] * theta
        measure = DyadicMeasure(depth, mass)
        machine = random_prefix_machine(rng)
        weights = {t: m / measure.mass(t) for t, m in machine.output_mass().items() if len(t) <= depth}
        T = from_weights(weights, measure, depth)
        x = "".join(rng.choice("01") for _ in range(rng.randint(0, depth)))
        for row in deficiency_profile(machine, None, measure, x).rows:
            assert row.running_sum == T.value(row.prefix)
            assert row.tbar == min_extension(T, row.prefix)
            assert row.that == conditional_average(T, measure, row.prefix)
            rows += 1
    assert rows > 100


def _measure_of_kind(rng: random.Random, kind: str, depth: int) -> DyadicMeasure:
    """A measure of one kind; all but `full` can leave a prefix without mass."""
    if kind == "full":
        mass = {"": F(1)}
        for length in range(depth):
            for x in all_words(length):
                theta = F(rng.randint(1, 6), 7)
                mass[x + "0"], mass[x + "1"] = mass[x] * (1 - theta), mass[x] * theta
        return DyadicMeasure(depth, mass)
    if kind == "coin":
        return realize(Bernoulli(rng.choice((F(0), F(1, 3), F(2, 3), F(1)))), depth)
    if kind == "point":
        return point_mass(random_word(rng, depth), depth)
    if kind == "sparse":
        chosen = rng.sample(all_words(depth), min(rng.randint(1, 3), 2 ** depth))
        shares = [rng.randint(1, 5) for _ in chosen]
        return DyadicMeasure.from_leaves(depth, {x: F(v, sum(shares)) for x, v in zip(chosen, shares)})
    weight = F(rng.randint(1, 3), 4)
    parts = (Bernoulli(F(rng.randint(0, 1))), Bernoulli(F(rng.randint(0, 5), 5)))
    return realize(Mixture((weight, 1 - weight), parts), depth)


@pytest.mark.parametrize("kind", ["full", "coin", "point", "sparse", "mix"])
def test_deficiency_profile_matches_the_word_by_word_sums(kind):
    # Without full support an output t can have P(t) = 0: the running sum is
    # inf on its cylinder, T-bar skips those leaves (inf when all are such)
    # and T-hat gives them no mass.
    rng = random.Random(kind)
    rows = inf_tbar = skipped = 0
    for _ in range(60):
        depth = rng.randint(0, 7)
        measure = _measure_of_kind(rng, kind, depth)
        machine = (random_prefix_machine(rng, 5, 6), canonical_machine(), tiny_machine())[rng.randrange(3)]
        monotone = random_monotone_machine(rng) if rng.random() < 0.5 else None
        x = random_word(rng, rng.randint(0, depth))
        expected = reference_profile_rows(machine, monotone, measure, x)
        assert deficiency_profile(machine, monotone, measure, x).tsv_rows() == expected
        values, _ = sum_test_values(machine, measure)
        for row in expected:
            t = row[0].strip("-")
            leaves = [values[t + y] for y in all_words(depth - len(t))]
            inf_tbar += row[4] == "inf"
            skipped += row[4] != "inf" and any(map(is_inf, leaves))
            rows += 1
    assert rows > 150
    if kind != "full":
        assert inf_tbar > 0 and skipped > 0


def test_sum_test_is_average_bounded():
    rng = random.Random(31)
    for _ in range(30):
        depth = rng.randrange(1, 5)
        measure = random_dyadic_measure(rng, depth)
        machine = random_prefix_machine(rng)
        values, _ = sum_test_values(machine, measure)
        level_avg = sum(
            (mul_nonneg(measure.mass(y), values[y]) for y in all_words(depth)),
            F(0),
        )
        assert level_avg <= 1
