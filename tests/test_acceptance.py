"""Acceptance criteria: exact properties, fixed seeds, stated runtime caps.

Run with `pytest tests/test_acceptance.py -s` to see one line per criterion.
"""
import filecmp
import itertools
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

from helpers import (
    check_pushdown,
    grid_weights,
    leq_words,
    level,
    mixture_deficiency,
    monotone_output,
    poly_at,
    random_dyadic_measure,
    random_monotone_machine,
    random_monotone_test,
    random_prefix_machine,
    random_word,
    report,
    shipped_measure_specs,
    sum_test_values,
    tiny_machine,
)
from randlab.bernoulli import (
    certify_bernoulli_test,
    extend_by_monotonicity,
    replacement_domination_check,
    validate_combinatorial_test,
)
from randlab.coupling import is_coupled_below, monotone_criterion_check
from randlab.exact import div_ratio, fmt, mul_nonneg, parse_rational
from randlab.formats import parse_measure_spec_file
from randlab.machines import canonical_machine, monotone_output_prob, semimeasure_total
from randlab.measures import DyadicMeasure, all_words, realize
from randlab.neutral import sperner_search
from randlab.randtests import (
    CONVERT_AVG_BOUND,
    deficiency_profile,
    martingale_check,
    prob_bound_check,
    prob_to_avg_convert,
    validate_extended_test,
)
from randlab.separator import chebyshev_tail_check
from randlab.bernoulli import bernoulli_poly
from randlab.randtests import ExtendedTest

#: Golden copies of the demo battery's reports, read here and never written.
GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden"


def test_criterion_01_measure_consistency():
    started = time.perf_counter()
    for name, spec in sorted(shipped_measure_specs().items()):
        depth = min(10, spec.depth) if isinstance(spec, DyadicMeasure) else 10
        measure = realize(spec, depth)
        assert measure.check() is None, name
        for length in range(depth + 1):
            assert sum((v for _, v in level(measure, length)), F(0)) == 1
    report("criterion 1: measure consistency", 1.0, started)


def test_criterion_02_kraft_semimeasure():
    started = time.perf_counter()
    assert semimeasure_total(canonical_machine()) == F(127, 128) <= 1
    assert semimeasure_total(tiny_machine()) == 1
    report("criterion 2: Kraft and semimeasure totals", 1.0, started)


def monotone_mass_table(machine, depth):
    horizon = machine.max_program_length()
    table = {}
    share = F(1, 2 ** horizon)
    for program in all_words(horizon):
        output = monotone_output(machine, program)
        for length in range(min(len(output), depth) + 1):
            t = output[:length]
            table[t] = table.get(t, F(0)) + share
    return table


def test_criterion_03_deficiency_chain():
    started = time.perf_counter()
    rng = random.Random(2026)
    for instance in range(1000):
        depth = rng.randint(2, 8)
        measure = random_dyadic_measure(rng, depth)
        machine = random_prefix_machine(rng)
        monotone = random_monotone_machine(rng)
        x = random_word(rng, depth)

        profile = deficiency_profile(machine, monotone, measure, x)
        for row in profile.rows:
            assert row.running_sup <= row.running_sum
            if measure.mass(row.prefix) > 0:
                assert row.tbar <= row.that

        values, _ = sum_test_values(machine, measure)
        integral = {y: mul_nonneg(measure.mass(y), values[y]) for y in all_words(depth)}
        for length in range(depth - 1, -1, -1):
            for t in all_words(length):
                integral[t] = integral[t + "0"] + integral[t + "1"]
        that = {
            t: div_ratio(integral[t], measure.mass(t))[0]
            for length in range(depth + 1)
            for t in all_words(length)
        }
        assert martingale_check(that, measure, "martingale").ok

        m_table = monotone_mass_table(monotone, depth)
        if instance < 5:
            horizon = monotone.max_program_length()
            for length in range(min(depth, 3) + 1):
                for t in all_words(length):
                    assert m_table.get(t, F(0)) == monotone_output_prob(
                        monotone, t, horizon
                    )
        g = {
            t: div_ratio(m_table.get(t, F(0)), measure.mass(t))[0]
            for length in range(depth + 1)
            for t in all_words(length)
        }
        assert martingale_check(g, measure, "supermartingale").ok
    report("criterion 3: deficiency chain on 1000 instances", 30.0, started)


def _five_hundred_instances():
    rng = random.Random(509)
    for _ in range(500):
        depth = rng.randint(1, 6)
        measure = random_dyadic_measure(rng, depth)
        test = random_monotone_test(rng, measure, depth)
        yield measure, test


def test_criterion_04_average_implies_probability():
    started = time.perf_counter()
    for measure, test in _five_hundred_instances():
        assert validate_extended_test(test, measure).ok
        assert prob_bound_check(test, measure).ok
    report("criterion 4: average-bounded implies probability-bounded", 30.0, started)


def test_criterion_05_conversion_bound():
    started = time.perf_counter()
    for measure, test in _five_hundred_instances():
        _, average = prob_to_avg_convert(test, measure)
        assert average <= CONVERT_AVG_BOUND
    report("criterion 5: conversion stays within the documented bound", 30.0, started)


def test_criterion_06_combinatorial_bernoulli():
    started = time.perf_counter()
    grid = [F(0), F(1, 2), F(1), F(2)]
    leaves2 = all_words(2)
    valid = 0
    for leaf_values in itertools.product(grid, repeat=4):
        values = dict(zip(leaves2, leaf_values))
        for x in all_words(1):
            values[x] = min(values[x + "0"], values[x + "1"])
        values[""] = min(values["0"], values["1"])
        seed = ExtendedTest(2, values)
        if not validate_combinatorial_test(seed).ok:
            continue
        valid += 1
        extended = extend_by_monotonicity(seed, 5)
        assert validate_combinatorial_test(extended).ok
        assert certify_bernoulli_test(extended).ok
    assert valid == 99  # seeds surviving the class-average constraints
    twop = ExtendedTest.from_partial(1, {"1": F(2)})
    rejection = certify_bernoulli_test(twop)
    assert not rejection.ok
    level, witness = rejection.witness
    coeffs, den = bernoulli_poly(twop, level)
    assert poly_at(coeffs, witness) > den
    report("criterion 6: combinatorial Bernoulli seeds and counterexample", 60.0, started)


def test_criterion_07_urn_bound():
    started = time.perf_counter()
    expected = {2: F(4), 3: F(27, 8), 4: F(256, 81), 5: F(3125, 1024)}
    for n in (2, 3, 4, 5):
        result = replacement_domination_check(n)
        assert result.ok
        assert parse_rational(result.rows[0][1]) == expected[n] == F(n * n, n * n - n) ** n
    report("criterion 7: urn domination bound for n in 2..5", 60.0, started)


def test_criterion_08_strassen_equivalence():
    started = time.perf_counter()
    rng = random.Random(811)
    for n in (2, 3, 4):
        for _ in range(200):
            p = random_dyadic_measure(rng, n)
            q = random_dyadic_measure(rng, n)
            assert (
                is_coupled_below(p, q, n).ok
                == monotone_criterion_check(p, q, n).ok
            )
    report("criterion 8: max-flow agrees with the monotone criterion", 60.0, started)


def test_criterion_09_monotonization_lemma():
    started = time.perf_counter()
    rng = random.Random(907)
    for _ in range(200):
        n = rng.randint(1, 4)
        t = {
            x: F(rng.randrange(0, 9), rng.choice((1, 2, 4)))
            for x in all_words(n)
        }
        p = F(rng.randrange(0, 9), 8)
        check_pushdown(t, p, n)
    report("criterion 9: monotonization lemma on 200 instances", 30.0, started)


def test_criterion_10_chebyshev_separator():
    started = time.perf_counter()
    for n in (2, 4, 8, 16, 32, 64):
        for p in (F(0), F(1, 4), F(1, 3), F(1, 2)):
            result = chebyshev_tail_check(n, p)
            assert result.ok
            assert parse_rational(result.rows[0][2]) ** 5 * n < 1
    assert chebyshev_tail_check(8, F(1, 2)).rows[0][2] == "1/128"
    report("criterion 10: Chebyshev tail certificates", 60.0, started)


def test_criterion_11_sperner_neutral_search():
    started = time.perf_counter()
    machine = canonical_machine()
    pair = ["0" * 8, "1" * 8]
    cell2 = sperner_search(pair, machine, 8, 64)
    assert sorted(cell2.labels) == [0, 1]
    for point, label, value in zip(cell2.points, cell2.labels, cell2.values):
        assert value <= 1
        assert value == mixture_deficiency(grid_weights(point, 64), pair, label, machine, 8)
    triple = ["0" * 8, "01" * 4, "11" * 4]
    cell3 = sperner_search(triple, machine, 8, 32)
    assert sorted(cell3.labels) == [0, 1, 2]
    for point, label, value in zip(cell3.points, cell3.labels, cell3.values):
        assert value <= 1
        assert value == mixture_deficiency(grid_weights(point, 32), triple, label, machine, 8)
    report("criterion 11: Sperner neutral-mixture search", 120.0, started)


def demo_measure(directory: Path, name: str, depth: int) -> DyadicMeasure:
    return realize(parse_measure_spec_file(str(directory / name)), depth)


def tsv_body(path: Path) -> list[list[str]]:
    return [line.split("\t") for line in path.read_text(encoding="ascii").splitlines()[1:]]


def check_coupling_plan(directory: Path) -> None:
    """coupling third uniform: a plan on pairs x <= y with marginals P and Q."""
    p = demo_measure(directory, "third.measure", 3)
    q = demo_measure(directory, "uniform.measure", 3)
    rows, cols = {}, {}
    for x, y, flow in tsv_body(directory / "coupling_third_uniform.tsv"):
        assert leq_words(x, y) and parse_rational(flow) > 0
        rows[x] = rows.get(x, F(0)) + parse_rational(flow)
        cols[y] = cols.get(y, F(0)) + parse_rational(flow)
    for word in all_words(3):
        assert rows.get(word, F(0)) == p.mass(word)
        assert cols.get(word, F(0)) == q.mass(word)


def check_coupling_certificate(directory: Path) -> None:
    """coupling uniform third: an upper set U with P(U) > Q(U)."""
    p = demo_measure(directory, "uniform.measure", 3)
    q = demo_measure(directory, "third.measure", 3)
    body = tsv_body(directory / "coupling_uniform_third.tsv")
    upper = {word for word, _, _ in body}
    assert upper and all(y in upper for x in upper for y in all_words(3) if leq_words(x, y))
    p_mass = sum((p.mass(x) for x in upper), F(0))
    q_mass = sum((q.mass(x) for x in upper), F(0))
    assert p_mass > q_mass
    assert {(row[1], row[2]) for row in body} == {(fmt(p_mass), fmt(q_mass))}


def test_criterion_12_cli_determinism(tmp_path):
    started = time.perf_counter()
    dirs = [str(tmp_path / "run1"), str(tmp_path / "run2")]
    for directory in dirs:
        subprocess.run(
            [sys.executable, "-m", "randlab.demo", directory],
            check=True,
            capture_output=True,
        )
    comparison = filecmp.dircmp(*dirs)
    assert not comparison.left_only and not comparison.right_only
    match, mismatch, errors = filecmp.cmpfiles(
        *dirs, common=comparison.common_files, shallow=False
    )
    assert not mismatch and not errors
    assert len(match) > 20
    run1 = Path(dirs[0])
    golden = sorted(GOLDEN.glob("*.tsv"))
    assert len(golden) == 24  # 23 non-witness reports and exit_codes.tsv
    for path in golden:
        assert (run1 / path.name).read_bytes() == path.read_bytes(), path.name
    check_coupling_plan(run1)
    check_coupling_certificate(run1)
    report("criterion 12: demo battery is byte-deterministic and matches golden", 120.0, started)
