import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    canonical_monotone_machine,
    kp_of,
    random_monotone_machine,
    random_prefix_machine,
    random_word,
    reference_monotone_conflict,
    reference_monotone_output_prob,
    reference_output_mass,
    tiny_machine,
)
from randlab.cli import main
from randlab.exact import INF, parse_rational
from randlab.machines import (
    MachineError,
    MonotoneMachine,
    PrefixMachine,
    canonical_machine,
    monotone_output_prob,
    semimeasure_total,
)
from randlab.measures import all_words


def test_kp_table_readoff():
    m = tiny_machine()
    assert kp_of(m, "0") == 2
    assert kp_of(m, "") == 1
    assert kp_of(m, "00") is INF


def test_discrete_semimeasure_examples():
    m = tiny_machine()
    assert m.output_mass()["0"] == F(1, 4)
    two = PrefixMachine({"0": "1", "10": "1"})
    assert two.output_mass()["1"] == F(3, 4)
    assert "0110" not in m.output_mass()  # a word no program outputs has mass 0


def test_semimeasure_total_examples():
    assert semimeasure_total(tiny_machine()) == 1
    assert semimeasure_total(PrefixMachine({"00": ""})) == F(1, 4)
    assert semimeasure_total(PrefixMachine({})) == 0


def test_prefix_freeness_violation_names_pair():
    with pytest.raises(MachineError) as err:
        PrefixMachine({"1": "0", "11": "1"})
    assert err.value.pair == ("1", "11")


def test_kraft_on_random_machines():
    rng = random.Random(1)
    for _ in range(50):
        machine = random_prefix_machine(rng)
        assert semimeasure_total(machine) <= 1


def test_mass_dominates_shortest_program():
    rng = random.Random(2)
    for _ in range(30):
        machine = random_prefix_machine(rng)
        for output in set(machine.entries.values()):
            kp = kp_of(machine, output)
            assert machine.output_mass()[output] >= F(1, 2 ** kp)


def test_canonical_machine_shape():
    m = canonical_machine()
    assert semimeasure_total(m) == F(127, 128)
    for length in range(7):
        for x in all_words(length):
            assert kp_of(m, x) == 2 * length + 1
            assert reference_output_mass(m, x) == F(1, 2 ** (2 * length + 1))


def test_monotone_output_prob_examples():
    mm = MonotoneMachine([("0", "0"), ("1", "1")])
    assert monotone_output_prob(mm, "0", 1) == F(1, 2)
    unconditional = MonotoneMachine([("", "1")])
    assert monotone_output_prob(unconditional, "1", 0) == 1
    mm3 = MonotoneMachine([("0", "0"), ("00", "00"), ("1", "1")])
    assert monotone_output_prob(mm3, "00", 2) == F(1, 4)


def test_monotone_horizon_too_small():
    mm = MonotoneMachine([("00", "0")])
    with pytest.raises(ValueError):
        monotone_output_prob(mm, "0", 1)


def test_monotone_inconsistency_names_pair():
    with pytest.raises(MachineError) as err:
        MonotoneMachine([("0", "0"), ("01", "10")])
    assert err.value.pair == ("0", "01")


def test_monotone_inconsistency_names_the_first_program_with_a_conflict():
    # 00 -> 00 and 000 -> 01 conflict first in program order, but 0 -> 0
    # comes before 00 and conflicts with its later extension 01 -> 1
    with pytest.raises(MachineError) as err:
        MonotoneMachine([("0", "0"), ("00", "00"), ("000", "01"), ("01", "1")])
    assert err.value.pair == ("0", "01")
    assert str(err.value) == (
        "entries ('0' -> '0') and ('01' -> '1') have comparable programs but incomparable outputs"
    )


def test_monotone_check_names_the_plain_definitions_witness():
    # short programs nest often, and one output in four is drawn at random,
    # so a table often holds several conflicts and their order matters
    rng = random.Random(4)
    for _ in range(3000):
        entries = []
        for _ in range(rng.randrange(10)):
            p = random_word(rng, rng.randrange(4))
            out = p.translate(str.maketrans("01", "10"))[: rng.randrange(5)]
            entries.append((p, out if rng.randrange(4) else random_word(rng, rng.randrange(5))))
        conflict = reference_monotone_conflict(entries)
        if conflict is None:
            assert MonotoneMachine(entries).entries == sorted(set(entries))
            continue
        with pytest.raises(MachineError) as err:
            MonotoneMachine(entries)
        assert err.value.pair == (conflict[0], conflict[2])


def test_monotone_inconsistency_deep_in_a_large_table_names_pair():
    # 2^12 entries: the copy machine on every program up to length 11, and one
    # length-12 program whose output leaves its own path at the third bit
    deep = "011010010110"
    entries = [*canonical_monotone_machine(11).entries, (deep, "010" + deep[3:])]
    assert len(entries) == 2 ** 12
    with pytest.raises(MachineError) as err:
        MonotoneMachine(entries)
    assert err.value.pair == ("011", deep)


def test_monotone_machines_yield_continuous_semimeasures():
    rng = random.Random(3)
    for _ in range(25):
        mm = random_monotone_machine(rng)
        horizon = mm.max_program_length()
        table = {
            x: monotone_output_prob(mm, x, horizon)
            for length in range(4)
            for x in all_words(length)
        }
        assert table[""] <= 1
        for length in range(3):
            for x in all_words(length):
                assert table[x] >= table[x + "0"] + table[x + "1"]


def test_canonical_monotone_machine_is_copy():
    mm = canonical_monotone_machine()
    assert monotone_output_prob(mm, "010", 3) == F(1, 8)
    assert monotone_output_prob(mm, "", 3) == 1


@given(
    seed=st.integers(min_value=0, max_value=2 ** 32),
    max_len=st.integers(min_value=0, max_value=8),
    extra=st.integers(min_value=0, max_value=2),
    xs=st.lists(st.text(alphabet="01", min_size=1, max_size=5), max_size=3),
)
@settings(max_examples=40, deadline=None)
def test_monotone_output_prob_matches_input_enumeration(seed, max_len, extra, xs):
    rng = random.Random(seed)
    mm = random_monotone_machine(rng, max_len)
    horizon = min(8, mm.max_program_length() + extra)
    produced = [out[:k] for _, out in mm.entries for k in range(1, len(out) + 1)]
    for x in ["", *xs, *rng.sample(produced, min(3, len(produced)))]:
        expected = reference_monotone_output_prob(mm, x, horizon)
        assert monotone_output_prob(mm, x, horizon) == expected


@st.composite
def mixed_length_tables(draw):
    """A prefix-free table of programs of 0-3 bits and a few of 200-260 bits,
    over outputs of at most two bits, so that outputs repeat across lengths.
    Candidates are kept in draw order unless comparable with a kept one, and
    the long ones are drawn first, so that short ones cannot crowd them out;
    the table lists the kept programs in a drawn order, so that a longer
    program may follow a shorter one of the same output."""
    bits = lambda lo, hi: st.integers(lo, hi).flatmap(lambda n: st.text("01", min_size=n, max_size=n))
    kept: list[str] = []
    for word in draw(st.lists(bits(200, 260), max_size=3)) + draw(st.lists(bits(0, 3), max_size=12)):
        if not any(word.startswith(p) or p.startswith(word) for p in kept):
            kept.append(word)
    return PrefixMachine({p: draw(st.text("01", max_size=2)) for p in draw(st.permutations(kept))})


@settings(max_examples=200, deadline=None)
@given(machine=mixed_length_tables())
def test_one_pass_matches_the_per_program_sums(tmp_path_factory, machine):
    mass = machine.output_mass()
    assert set(mass) == set(machine.entries.values())
    assert all(mass[output] == reference_output_mass(machine, output) for output in mass)
    assert semimeasure_total(machine) == sum((F(1, 2 ** len(p)) for p in machine.entries), F(0))
    folder = tmp_path_factory.mktemp("table")
    table, report = folder / "t.machine", folder / "r.tsv"
    table.write_text("".join(f"{p or '-'} {o or '-'}\n" for p, o in machine.entries.items()), encoding="ascii")
    assert main(["machine-info", str(table), "--out", str(report)]) == 0
    rows = [line.split("\t") for line in report.read_text(encoding="ascii").splitlines()[1:]]
    assert rows[-1][0] == "total" and all(row[3] == "output" for row in rows[:-1])
    assert parse_rational(rows[-1][1]) == sum(map(parse_rational, (row[1] for row in rows[:-1])), F(0))
