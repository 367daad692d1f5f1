import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from helpers import mixture_deficiency, reference_sperner_search
from randlab.exact import is_inf
from randlab.machines import PrefixMachine, canonical_machine
from randlab.neutral import (
    PointMixture,
    _grid_points,
    _labeller,
    sperner_search,
)


def test_single_sequence_scores_below_kraft_total():
    machine = canonical_machine()
    value = mixture_deficiency([F(1)], ["0" * 8], 0, machine, 8)
    assert value <= 1


def test_empty_machine_scores_zero():
    value = mixture_deficiency([F(1)], ["0101"], 0, PrefixMachine({}), 4)
    assert value == 0


def test_zero_weight_gives_infinite_deficiency():
    machine = canonical_machine()
    value = mixture_deficiency(
        [F(0), F(1)], ["0" * 4, "1" * 4], 0, machine, 4
    )
    assert is_inf(value)


def test_two_point_mixture_exact_value():
    machine = canonical_machine()
    seqs = ["00", "11"]
    value = mixture_deficiency([F(1, 2), F(1, 2)], seqs, 0, machine, 2)
    # shared prefix: only the empty word; m/X = (1/2)/1, then deeper prefixes
    # carry mixture mass 1/2 each: m(0)/X(0) = (1/8)/(1/2), m(00)/X(00) = (1/32)/(1/2)
    assert value == F(1, 2) + F(1, 8) / F(1, 2) + F(1, 32) / F(1, 2)


def test_mixture_weights_validated():
    with pytest.raises(ValueError):
        PointMixture((F(1, 2), F(1, 3)))
    with pytest.raises(ValueError):
        PointMixture((F(3, 2), F(-1, 2)))


def test_search_k1_returns_the_single_vertex():
    machine = canonical_machine()
    cell = sperner_search(["0" * 8], machine, 8, 16)
    assert cell.labels == (0,)
    assert cell.vertices[0].weights == (F(1),)
    assert cell.values[0] <= 1
    assert cell.diameter == 0


def test_search_duplicate_sequences_rejected():
    machine = canonical_machine()
    with pytest.raises(ValueError):
        sperner_search(["0101", "0101"], machine, 4, 8)


def one_dimensional_scan_oracle(machine, seqs, depth, m):
    """Labels along the edge grid; reports whether adjacent labels flip."""
    labels = []
    for j in range(m + 1):
        mix = PointMixture((F(m - j, m), F(j, m)))
        chosen = None
        for i in mix.support():
            v = mixture_deficiency(mix, seqs, i, machine, depth)
            if not is_inf(v) and v <= 1:
                chosen = i
                break
        assert chosen is not None
        labels.append(chosen)
    return any(set(pair) == {0, 1} for pair in zip(labels, labels[1:]))


def test_search_k2_matches_scan_oracle():
    machine = canonical_machine()
    seqs = ["0" * 8, "1" * 8]
    assert one_dimensional_scan_oracle(machine, seqs, 8, 64)
    cell = sperner_search(seqs, machine, 8, 64)
    assert sorted(cell.labels) == [0, 1]
    for mix, label, value in zip(cell.vertices, cell.labels, cell.values):
        assert value == mixture_deficiency(mix, seqs, label, machine, 8)
        assert value <= 1
    assert cell.diameter == F(2, 64)


def test_search_k3_fully_labelled_cell():
    machine = canonical_machine()
    seqs = ["0" * 8, "01" * 4, "11" * 4]
    cell = sperner_search(seqs, machine, 8, 32)
    assert sorted(cell.labels) == [0, 1, 2]
    for mix, label, value in zip(cell.vertices, cell.labels, cell.values):
        assert value <= 1
        assert mix.weights[label] > 0
    assert cell.diameter == F(4, 32)


def test_every_grid_point_admits_a_label():
    machine = canonical_machine()
    seqs = ["00" + "0" * 2, "01" + "0" * 2, "11" + "0" * 2]
    m = 8
    for a in range(m + 1):
        for b in range(m + 1 - a):
            mix = PointMixture((F(a, m), F(b, m), F(m - a - b, m)))
            found = False
            for i in mix.support():
                v = mixture_deficiency(mix, seqs, i, machine, 4)
                if not is_inf(v) and v <= 1:
                    found = True
                    break
            assert found, mix


def test_refinement_shrinks_diameter():
    machine = canonical_machine()
    seqs = ["0" * 6, "1" * 6]
    for m in (4, 8, 16, 32):
        coarse = sperner_search(seqs, machine, 6, m)
        fine = sperner_search(seqs, machine, 6, 2 * m)
        assert fine.diameter <= coarse.diameter


def test_search_needs_distinct_heads():
    machine = canonical_machine()
    with pytest.raises(ValueError):
        sperner_search(["0011", "0010"], machine, 3, 4)


def test_negative_depth_is_refused():
    # a negative depth would slice bits off the end of every sequence
    machine = canonical_machine()
    with pytest.raises(ValueError, match="depth must be nonnegative"):
        sperner_search(["0" * 8, "1" * 8], machine, -1, 4)
    with pytest.raises(ValueError, match="depth must be nonnegative"):
        mixture_deficiency([F(1, 2), F(1, 2)], ["0" * 8, "1" * 8], 0, machine, -1)


def test_random_mixtures_respect_budget_identity():
    # the weighted average of supported deficiencies equals the machine mass
    # of the covered prefixes, hence stays below 1
    rng = random.Random(71)
    machine = canonical_machine()
    seqs = ["000000", "010101", "110011"]
    for _ in range(25):
        cuts = sorted(rng.randrange(0, 13) for _ in range(2))
        weights = (
            F(cuts[0], 12),
            F(cuts[1] - cuts[0], 12),
            F(12 - cuts[1], 12),
        )
        mix = PointMixture(weights)
        average = F(0)
        for i in mix.support():
            v = mixture_deficiency(mix, seqs, i, machine, 6)
            assert not is_inf(v)
            average += mix.weights[i] * v
        assert average <= 1


def test_search_builds_the_machine_table_once(monkeypatch):
    import randlab.machines as machines

    builds = []
    build = machines._mass_pass

    def counting(entries):
        builds.append(entries)
        return build(entries)

    monkeypatch.setattr(machines, "_mass_pass", counting)
    seqs = ["0" * 6, "01" * 3, "11" * 3]
    first, second = canonical_machine(), canonical_machine()
    sperner_search(seqs, first, 6, 12)
    assert len(builds) == 1 and builds[0] is first.entries
    sperner_search(seqs, first, 6, 16)
    sperner_search(seqs, second, 6, 12)
    assert len(builds) == 2 and builds[1] is second.entries


@st.composite
def neutral_instances(draw):
    """1-4 distinct sequences, a depth that tells them apart, a resolution
    up to 12, and a prefix machine whose outputs include "" and prefixes of
    the sequences at every length, below the depth too."""
    k = draw(st.integers(1, 4))
    depth = draw(st.integers((k - 1).bit_length(), 6))
    heads = draw(st.lists(st.text(alphabet="01", min_size=depth, max_size=depth),
                          min_size=k, max_size=k, unique=True))
    sequences = [h + draw(st.text(alphabet="01", max_size=3)) for h in heads]
    outputs = sorted({s[:n] for s in sequences for n in range(len(s) + 1)})
    programs = draw(st.sampled_from([
        [""], ["0", "1"], ["0", "10", "11"], ["00", "01", "10", "110", "111"],
        ["0", "100", "101", "1100", "1101", "111"], [f"{i:03b}" for i in range(8)],
    ]))
    machine = PrefixMachine({
        p: draw(st.one_of(st.sampled_from(outputs), st.text(alphabet="01", max_size=4)))
        for p in draw(st.lists(st.sampled_from(programs), unique=True))
    })
    return sequences, machine, depth, draw(st.integers(1, 12))


@settings(max_examples=80, deadline=None)
@given(neutral_instances())
def test_search_matches_the_fraction_search(case):
    sequences, machine, depth, m = case
    assert sperner_search(sequences, machine, depth, m) == reference_sperner_search(sequences, machine, depth, m)


@settings(max_examples=40, deadline=None)
@given(neutral_instances())
def test_label_is_the_least_supported_index_scoring_at_most_1(case):
    sequences, machine, depth, m = case
    k = len(sequences)
    points = list(_grid_points(k, m))
    assert points == sorted(
        tuple(combo.count(i) for i in range(k))
        for combo in itertools.combinations_with_replacement(range(k), m)
    )
    label_of = _labeller(sequences, machine, depth, m)
    for point in points:
        mix = PointMixture(tuple(F(c, m) for c in point))
        values = {i: mixture_deficiency(mix, sequences, i, machine, depth) for i in mix.support()}
        first = min(i for i, v in values.items() if not is_inf(v) and v <= 1)
        label, num, den = label_of(point)
        assert (label, F(num, den)) == (first, values[first])
