import itertools
import operator
import random
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, strategies as st

from helpers import bernoulli_mass, level, point_mass, reference_upcrossings, shipped_measure_specs
from randlab.measures import (
    MAX_DEPTH,
    MAX_TABLE_BITS,
    Bernoulli,
    CapabilityError,
    DyadicMeasure,
    MeasureError,
    Mixture,
    all_words,
    block_frequency,
    count_upcrossings,
    fill_down,
    fold_up,
    prefixes,
    realize,
)

words = st.text(alphabet="01", max_size=8)


def test_bernoulli_mass_symmetric_coin():
    assert bernoulli_mass(F(1, 2), "101") == F(1, 8)


def test_bernoulli_mass_empty_word():
    assert bernoulli_mass(F(2, 7), "") == 1


def test_bernoulli_mass_third():
    assert bernoulli_mass(F(1, 3), "10") == F(2, 9)


def test_bernoulli_mass_domain_error():
    with pytest.raises(ValueError):
        bernoulli_mass(F(3, 2), "0")


def test_realize_uniform_depth_one():
    m = realize(Bernoulli(F(1, 2)), 1)
    assert m.mass("") == 1 and m.mass("0") == F(1, 2) and m.mass("1") == F(1, 2)


def test_realize_endpoint_mixture_matches_uniform_level_one():
    mix = Mixture((F(1, 2), F(1, 2)), (Bernoulli(F(0)), Bernoulli(F(1))))
    m = realize(mix, 1)
    assert m.mass("0") == F(1, 2) and m.mass("1") == F(1, 2)


def test_realize_third_depth_two_product_expansion():
    m = realize(Bernoulli(F(1, 3)), 2)
    assert m.mass("11") == F(1, 9)
    assert m.mass("10") == m.mass("01") == F(2, 9)
    assert m.mass("00") == F(4, 9)


def test_inconsistent_table_names_offending_prefix():
    mass = {"": F(1), "0": F(1, 2), "1": F(1, 3)}
    with pytest.raises(MeasureError) as err:
        DyadicMeasure(1, mass)
    assert err.value.prefix == ""


def test_point_mass_examples():
    m = point_mass("00", 2)
    assert m.mass("00") == 1
    assert all(m.mass(x) == 0 for x in all_words(2) if x != "00")
    m1 = point_mass("1", 1)
    assert m1.mass("") == 1 and m1.mass("0") == 0 and m1.mass("1") == 1
    assert point_mass("0110", 3).mass("011") == 1


def test_point_mass_short_prefix_rejected():
    with pytest.raises(ValueError):
        point_mass("0", 2)


def test_block_frequency_examples():
    assert block_frequency("1111", "1", 4) == 1
    assert block_frequency("0101", "01", 3) == F(2, 3)
    assert block_frequency("0000", "1", 4) == 0


def test_block_frequency_too_short():
    with pytest.raises(ValueError):
        block_frequency("01", "01", 2)


def test_upcrossings_never_below_alpha():
    assert count_upcrossings("1111", "1", F(1, 4), F(1, 2)) == 0


def test_upcrossings_strict_at_upper_threshold():
    # Averages along "0011" are 0, 0, 1/3, 1/2: the final value sits exactly
    # on beta = 1/2, so the strict scan does not count a crossing...
    assert count_upcrossings("0011", "1", F(1, 4), F(1, 2)) == 0
    # ...but any beta strictly below 1/2 is crossed once.
    assert count_upcrossings("0011", "1", F(1, 4), F(49, 100)) == 1


def test_upcrossings_never_above_beta():
    assert count_upcrossings("00", "1", F(1, 3), F(2, 3)) == 0


def test_upcrossings_bad_band():
    with pytest.raises(ValueError):
        count_upcrossings("0011", "1", F(1, 2), F(1, 2))


@given(
    omega=st.text(alphabet="01", min_size=2, max_size=24),
    beta_step=st.integers(min_value=1, max_value=4),
)
def test_upcrossings_nonincreasing_in_beta(omega, beta_step):
    alpha = F(1, 4)
    beta_lo = F(1, 3)
    beta_hi = beta_lo + F(beta_step, 8)
    lo = count_upcrossings(omega, "1", alpha, beta_lo)
    hi = count_upcrossings(omega, "1", alpha, beta_hi)
    assert hi <= lo


@given(
    omega=st.text(alphabet="01", min_size=2, max_size=20),
    extra=st.text(alphabet="01", min_size=0, max_size=8),
)
def test_upcrossings_nondecreasing_under_extension(omega, extra):
    alpha, beta = F(1, 4), F(3, 5)
    assert count_upcrossings(omega + extra, "1", alpha, beta) >= count_upcrossings(
        omega, "1", alpha, beta
    )


@given(
    omega=st.text(alphabet="01", min_size=1, max_size=120),
    x=st.text(alphabet="01", max_size=3),
    den=st.integers(min_value=2, max_value=12),
    lo=st.integers(min_value=1, max_value=11),
    width=st.integers(min_value=1, max_value=11),
)
def test_upcrossings_match_block_frequency_reference(omega, x, den, lo, width):
    assume(len(x) <= len(omega))
    alpha, beta = F(lo, den), F(lo + width, den)
    assert count_upcrossings(omega, x, alpha, beta) == reference_upcrossings(omega, x, alpha, beta)


@pytest.mark.parametrize("name,spec", sorted(shipped_measure_specs().items()))
def test_shipped_specs_level_sums(name, spec):
    depth = 6 if not isinstance(spec, DyadicMeasure) else spec.depth
    m = realize(spec, depth)
    for length in range(depth + 1):
        assert sum((v for _, v in level(m, length)), F(0)) == 1


def test_mixture_realization_is_linear():
    rng = random.Random(7)
    parts = (Bernoulli(F(1, 4)), Bernoulli(F(2, 3)))
    weights = (F(1, 3), F(2, 3))
    mix = realize(Mixture(weights, parts), 4)
    expanded = [realize(p, 4) for p in parts]
    for _ in range(20):
        x = "".join(rng.choice("01") for _ in range(rng.randrange(5)))
        assert mix.mass(x) == sum(
            (w * e.mass(x) for w, e in zip(weights, expanded)), F(0)
        )


def test_mixture_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        Mixture((F(1, 2), F(1, 3)), (Bernoulli(F(0)), Bernoulli(F(1))))


def test_table_cannot_realize_beyond_its_depth():
    table = DyadicMeasure.from_leaves(1, {"0": F(1, 2), "1": F(1, 2)})
    assert realize(table, 1).mass("0") == F(1, 2)
    with pytest.raises(ValueError):
        realize(table, 2)


def test_mass_rejects_garbage_words():
    m = realize(Bernoulli(F(1, 2)), 2)
    with pytest.raises(ValueError):
        m.mass("2x")
    with pytest.raises(ValueError):
        m.mass("000")


def test_realize_agrees_with_bernoulli_mass():
    m = realize(Bernoulli(F(2, 5)), 5)
    for length in range(6):
        for x in all_words(length):
            assert m.mass(x) == bernoulli_mass(F(2, 5), x)


@given(st.integers(min_value=0, max_value=6), st.data())
def test_walks_meet_their_definitions(depth, data):
    assert list(prefixes(depth)) == [x for n in range(depth + 1) for x in all_words(n)]
    handed = []  # each step sees its parent level; an entry's value is its word
    down = fill_down(depth, "", lambda above, n: handed.append((n, above)) or all_words(n))
    assert down == [all_words(n) for n in range(depth + 1)]
    assert handed == [(n, all_words(n - 1)) for n in range(1, depth + 1)]
    leaves = [data.draw(st.integers(min_value=-5, max_value=5)) for _ in range(2 ** depth)]
    up = fold_up(leaves, lambda evens, odds: list(map(operator.add, evens, odds)))
    assert [len(level) for level in up] == [2 ** n for n in range(depth + 1)]
    for n in range(depth + 1):
        for i, x in enumerate(all_words(n)):
            assert up[n][i] == sum(v for y, v in zip(all_words(depth), leaves) if y.startswith(x))


@pytest.mark.parametrize("depth", range(11))
def test_words_match_the_product_order(depth):
    levels = [["".join(bits) for bits in itertools.product("01", repeat=n)] for n in range(depth + 1)]
    assert list(prefixes(depth)) == [x for level in levels for x in level]
    assert all_words(depth) == levels[-1]


def test_walks_refuse_past_the_depth_cap():
    with pytest.raises(CapabilityError):
        fill_down(MAX_DEPTH + 1, 0, lambda above, n: above * 2)
    with pytest.raises(CapabilityError):
        fold_up([0] * 2 ** (MAX_DEPTH + 1), operator.add)


def test_realize_refuses_a_table_past_the_bit_cap_before_its_rows():
    # 2^(depth+1) entries times the denominator's bit length: b^16 with
    # b = 2^32 - 1 has 512 bits, exactly the cap at depth 16; 2^32 one more
    at_cap = realize(Bernoulli(F(2 ** 31, 2 ** 32 - 1)), 16)
    assert (2 << 16) * at_cap.den.bit_length() == MAX_TABLE_BITS
    with pytest.raises(CapabilityError, match="got 67239936 at depth 16"):
        realize(Bernoulli(F(1, 2 ** 32)), 16)
    assert realize(Bernoulli(F(1, 2 ** 32)), 15).den == 2 ** 480
    # a mixture is refused on its combined denominator, though each part passes
    parts = (Bernoulli(F(1, 2 ** 18)), Bernoulli(F(1, 3 ** 11)))
    for part in parts:
        realize(part, 16)
    with pytest.raises(CapabilityError, match="got 74448896 at depth 16"):
        realize(Mixture((F(1, 2), F(1, 2)), parts), 16)
    # the running lcm is refused at the part where it passes the cap: 3 x
    # 2^288 x 3^176 at the second, not 79429632 bits with the third's 5^16
    with pytest.raises(CapabilityError, match="got 74579968 at depth 16"):
        realize(Mixture((F(1, 3),) * 3, (*parts, Bernoulli(F(1, 5)))), 16)
    # a table is held to the same rule
    tiny = F(1, 10 ** 10000)  # 33 220 bits: past the cap from depth 10 on
    table = DyadicMeasure.from_leaves(10, {"0" * 10: tiny, "1" * 10: 1 - tiny})
    with pytest.raises(CapabilityError, match="got 68034560 at depth 10"):
        realize(table, 10)
    assert realize(table, 9).depth == 9
    # each part's own refusal comes before the combined one, as when the
    # parts' rows were built first
    with pytest.raises(ValueError, match="table of depth 10 cannot realize depth 16"):
        realize(Mixture((F(1, 3),) * 3, (*parts, table)), 16)


def test_a_mixture_is_flat_and_sums_a_shared_part_once():
    a, b, c = Bernoulli(F(1, 3)), Bernoulli(F(1, 2)), Bernoulli(F(1, 5))
    twice = Mixture((F(1, 4), F(1, 2), F(1, 4)), (a, b, a))
    assert [id(part) for part in twice.parts] == [id(a), id(b)] and twice.weights == (F(1, 2), F(1, 2))
    left, right = Mixture((F(1, 2), F(1, 2)), (a, b)), Mixture((F(1, 3), F(2, 3)), (a, c))
    both = Mixture((F(1, 2), F(1, 2)), (left, right))  # a reached through two parents
    assert [id(part) for part in both.parts] == [id(a), id(b), id(c)]
    assert both.weights == (F(5, 12), F(1, 4), F(1, 3))
    # parts are matched by identity: two equal coins stay two parts
    assert len(Mixture((F(1, 2), F(1, 2)), (Bernoulli(F(1, 3)), Bernoulli(F(1, 3)))).parts) == 2


def test_realize_holds_one_row_however_the_mixes_nest():
    # eight two-coin mixes under one mix peak as one two-coin mix does: the
    # parts' rows are added into one running row, none kept for later
    p = 2 ** 31 - 1
    coins = [Bernoulli(F(p // 3 + 7919 * i, p)) for i in range(16)]
    pairs = [Mixture((F(1, 2), F(1, 2)), coins[i : i + 2]) for i in range(0, 16, 2)]
    peaks = []
    for spec in (pairs[0], Mixture((F(1, 8),) * 8, pairs)):
        tracemalloc.start()
        try:
            realize(spec, 12)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0]
