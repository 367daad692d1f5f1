from fractions import Fraction as F

from helpers import poly_at, poly_mul
from randlab.poly import (
    count_roots_open,
    nonneg_on_unit_interval,
    squarefree_part,
    sturm_chain,
)


def test_trailing_zeros_trimmed():
    # a row with trailing zeros is decided as the trimmed row
    assert nonneg_on_unit_interval([1, -2, 0, 0]) == nonneg_on_unit_interval([1, -2]) == (False, F(1))
    assert nonneg_on_unit_interval([0, 0]) == (True, None)
    assert all(row[-1] != 0 for row in sturm_chain([3, -16, 16]))


def test_evaluation_and_arithmetic():
    # (1-x)(1-2x) vanishes at 1/2 and at the endpoint 1, which an open count leaves out
    chain = sturm_chain([1, -3, 2])
    intervals = [(F(0), F(1)), (F(0), F(1, 2)), (F(1, 4), F(3, 4)), (F(1, 2), F(2))]
    assert [count_roots_open(chain, a, b) for a, b in intervals] == [1, 0, 1, 1]
    # x * x: the squared factor keeps one simple root
    assert squarefree_part([0, 0, 1]) == [0, 1]
    # p - p: the zero row holds everywhere
    assert nonneg_on_unit_interval([c - c for c in [1, -3, 2]]) == (True, None)


def test_divmod_exact():
    # x^2 - x by 2x - 1 leaves -1/4; the chain negates it to 1/4, here 1
    assert sturm_chain([0, -1, 1]) == [[0, -1, 1], [-1, 2], [1]]
    # -x^3 + 3x by -3x^2 + 3 leaves 2x in one step: a multiplier lc^1 = -3
    # would negate the third row, |lc| keeps its rational sign
    chain = sturm_chain([0, 3, 0, -1])
    assert chain == [[0, 3, 0, -1], [3, 0, -3], [0, -1], [-1]]
    assert count_roots_open(chain, F(-2), F(2)) == 3  # 0 and +-sqrt(3)
    assert count_roots_open(chain, F(0), F(1)) == 0


def test_sturm_counts_roots_in_interval():
    # 16 (x - 1/4)(x - 3/4) has two roots in (0, 1)
    chain = sturm_chain([3, -16, 16])
    assert count_roots_open(chain, F(0), F(1)) == 2
    assert count_roots_open(chain, F(0), F(1, 2)) == 1
    assert count_roots_open(chain, F(1, 2), F(1)) == 1


def test_sturm_endpoint_roots_excluded_from_open_count():
    chain = sturm_chain([0, 1])  # root at 0
    assert count_roots_open(chain, F(0), F(1)) == 0


def test_squarefree_part_drops_multiplicity():
    assert squarefree_part([1, -4, 4]) == [-1, 2]  # (2x - 1)^2
    cube_times_x = poly_mul([0, 1], poly_mul([-1, 2], poly_mul([-1, 2], [-1, 2])))
    assert squarefree_part(cube_times_x) in ([0, -1, 2], [0, 1, -2])


def test_nonneg_decisions():
    assert nonneg_on_unit_interval([1]) == (True, None)
    assert nonneg_on_unit_interval([]) == (True, None)
    ok, witness = nonneg_on_unit_interval([1, -2])  # 1 - 2x
    assert not ok and poly_at([1, -2], witness) < 0
    # tangential zero inside the interval stays nonnegative
    assert nonneg_on_unit_interval([1, -4, 4]) == (True, None)
    # its negation dips below zero
    ok2, witness2 = nonneg_on_unit_interval([-1, 4, -4])
    assert not ok2 and poly_at([-1, 4, -4], witness2) < 0
    # zeros at both endpoints, positive inside
    assert nonneg_on_unit_interval([0, 1, -1]) == (True, None)
    # zeros at both endpoints and no root between: the midpoint sample decides
    assert nonneg_on_unit_interval([0, -1, 1]) == (False, F(1, 2))


def test_nonneg_negative_dip_between_positive_endpoints():
    # 9 (x-1/3)(x-2/3): positive at 0 and 1, negative in the middle
    p = [2, -9, 9]
    ok, witness = nonneg_on_unit_interval(p)
    assert not ok and poly_at(p, witness) < 0


def test_nonneg_high_multiplicity_touch():
    # (2x - 1)^4 touches zero at 1/2; an odd power (2x - 1)^5 changes sign there
    square = poly_mul([-1, 2], [-1, 2])
    p = poly_mul(square, square)
    assert nonneg_on_unit_interval(p) == (True, None)
    assert nonneg_on_unit_interval(poly_mul(p, [1, -2])) == (False, F(1))


def test_nonneg_root_exactly_at_sample_midpoint():
    # root at 1/2 with odd multiplicity and negative right side
    p = [1, -2]  # 1 - 2x
    ok, witness = nonneg_on_unit_interval(p)
    assert not ok and poly_at(p, witness) < 0


def test_constant_helper():
    # constant rows: a positive one holds, a negative one fails at 0
    assert nonneg_on_unit_interval([3]) == (True, None)
    assert nonneg_on_unit_interval([-3]) == (False, F(0))
    assert sturm_chain([3]) == [[3]] and squarefree_part([3]) == [3]


def _random_rows(rng, count):
    """`count` integer rows of degree <= 10, the range `compute` certifies,
    each followed by its negation, so both leading signs occur.  Half of
    them are a random row times a squared rational factor (v x - u)^2 with
    u/v in [0, 1], a multiple root, and half of those have nonnegative
    coefficients, so the touch decides."""
    rows = []
    while len(rows) < 2 * count:
        squared = rng.random() < 0.5
        low = 0 if squared and rng.random() < 0.5 else -6
        row = [rng.randint(low, 6) for _ in range(rng.randint(0, 8 if squared else 10) + 1)]
        if squared:
            v = rng.randint(1, 6)
            u = rng.randint(0, v)
            row = poly_mul(row, poly_mul([-u, v], [-u, v]))
        while row and row[-1] == 0:
            row.pop()
        if row:
            rows += [row, [-c for c in row]]
    return rows


def _to_sympy(row, x, sympy):
    return sympy.Poly(list(reversed(row)), x, domain="QQ")


def _rational_between(a, b, sympy):
    lo, hi = sympy.Rational(0), sympy.Rational(1)
    while True:
        mid = (lo + hi) / 2
        if a < mid < b:
            return mid
        if mid <= a:
            lo = mid
        else:
            hi = mid


def test_root_counts_match_sympy():
    import random

    import sympy

    x = sympy.symbols("x")
    rng = random.Random(123)
    checked = 0
    for p in _random_rows(rng, 60):
        if len(p) < 2:
            continue
        chain = sturm_chain(squarefree_part(p))
        distinct = _to_sympy(p, x, sympy).sqf_part()  # sympy's own squarefree part
        for _ in range(3):
            a = F(rng.randint(0, 7), 8)
            b = min(a + F(rng.randint(1, 8), 8), F(1))
            if a >= b:
                continue
            lo, hi = (sympy.Rational(e.numerator, e.denominator) for e in (a, b))
            expected = (
                distinct.count_roots(lo, hi)
                - (1 if poly_at(p, a) == 0 else 0)
                - (1 if poly_at(p, b) == 0 else 0)
            )
            assert count_roots_open(chain, a, b) == expected, (p, a, b)
            checked += 1
    assert checked > 200


def test_nonneg_decision_matches_sympy_root_isolation():
    import random

    import sympy

    x = sympy.symbols("x")
    rng = random.Random(321)

    def oracle(p):
        if not p:
            return True
        if poly_at(p, F(0)) < 0 or poly_at(p, F(1)) < 0:
            return False
        roots = sorted(set(_to_sympy(p, x, sympy).real_roots()))
        points = [sympy.Rational(0)]
        points += [r for r in roots if 0 <= r <= 1]
        points.append(sympy.Rational(1))
        for lo, hi in zip(points, points[1:]):
            if lo == hi:
                continue
            s = _rational_between(lo, hi, sympy)
            if poly_at(p, F(int(s.p), int(s.q))) < 0:
                return False
        return True

    verdicts = []
    for p in _random_rows(rng, 60):
        ok, witness = nonneg_on_unit_interval(p)
        if not ok:
            assert poly_at(p, witness) < 0
        assert ok == oracle(p), p
        verdicts.append(ok)
    assert 10 < sum(verdicts) < len(verdicts) - 10
