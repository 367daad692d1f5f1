"""Extended randomness tests on finite prefixes.

An extended test is a monotone nonnegative rational function on prefixes
whose measure-weighted average at every level stays below 1.  This module
validates that contract, builds tests from weight budgets, derives the
minimal-extension and conditional-average functionals, checks martingale
identities, and converts probability-bounded tests into average-bounded
ones.  The deficiency profile ties these to a prefix machine's output mass.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress
from typing import Callable, Iterable, Iterator, Mapping, Optional, Union

from .exact import INF, Ext, _common_denominator, ceil_log2, div_ratio, fmt, is_inf
from .machines import MonotoneMachine, PrefixMachine, monotone_output_prob
from .measures import (
    MAX_DEPTH,
    DyadicMeasure,
    _capped,
    _doubled,
    _index,
    _maxima,
    _minima,
    _PrefixTable,
    _sums,
    _unbalanced_parents,
    _word,
    all_words,
    fill_down,
    fold_up,
    prefixes,
    validate_bits,
)

__all__ = [
    "ExtendedTest",
    "Verdict",
    "validate_extended_test",
    "from_weights",
    "DeficiencyProfile",
    "ProfileRow",
    "deficiency_profile",
    "min_extension",
    "conditional_average",
    "martingale_check",
    "prob_bound_check",
    "prob_to_avg_convert",
    "convert_value",
    "CONVERT_AVG_BOUND",
]


class ExtendedTest(_PrefixTable):
    """Nonnegative rational values on every prefix up to `depth`, in the
    table format of :class:`DyadicMeasure`.

    Construction from a prefix -> value mapping raises a ValueError naming
    the first offending prefix, checking in this order: a missing prefix,
    then a negative value.  Monotonicity and the average bound are
    :func:`validate_extended_test`'s to report."""

    __slots__ = ()

    def __init__(self, depth: int, values: Mapping[str, Fraction]):
        self._fill(depth, values, lambda x: ValueError(f"test value missing for prefix {x!r}"))
        for length, row in enumerate(self.nums):
            if min(row) < 0:
                x = _word(next(i for i, v in enumerate(row) if v < 0), length)
                raise ValueError(f"negative test value at prefix {x!r}")

    @classmethod
    def from_partial(cls, depth: int, listed: Mapping[str, Fraction]) -> "ExtendedTest":
        """Monotone closure: unlisted prefixes get the max over listed ancestors.

        Refuses a word that is not binary, then whatever `_closure` refuses."""
        for x in listed:
            validate_bits(x)
        values = list(map(Fraction, listed.values()))
        negative = next((x for x, v in zip(listed, values) if v < 0), None)
        return _closure(depth, *_by_length(depth, listed), values, negative)

    def value(self, x: str) -> Fraction:
        if len(x) > self.depth or x.strip("01"):
            raise KeyError(x)
        return self._at(x)

    def is_monotone(self) -> Optional[str]:
        """None when monotone under prefix extension, else the first bad child."""
        bad = next(_non_monotone_children(self.nums), None)
        return None if bad is None else _word(bad[1], bad[0])


def _by_length(depth: int, words: Iterable[str]) -> tuple[list[dict[str, int]], dict[str, int]]:
    """Words grouped into dicts word -> position in `words`: one dict per
    length 0..min(depth, MAX_DEPTH), then one for all longer words."""
    levels: list[dict[str, int]] = [{} for _ in range(min(depth, MAX_DEPTH) + 1)]
    deeper: dict[str, int] = {}
    for position, x in enumerate(words):
        (levels[len(x)] if len(x) < len(levels) else deeper)[x] = position
    return levels, deeper


def _closure(
    depth: int, levels: list[dict[str, int]], deeper: Mapping[str, int], values: list[Fraction],
    negative: Optional[str],
) -> ExtendedTest:
    """The monotone closure of listed words grouped as by `_by_length`, each
    mapped to the position of its value in `values`: a listed word holds
    the max of its value and its parent's, an unlisted one its parent's,
    and an unlisted root 0.

    Refuses, in this order, the first word of `deeper` longer than `depth`,
    the word `negative` (listed with a negative value) and a depth past the
    cap, each with a ValueError (the cap with a CapabilityError)."""
    too_deep = next((x for x in deeper if len(x) > depth), None)
    if too_deep is not None:
        raise ValueError(f"listed prefix {too_deep!r} deeper than {depth}")
    if negative is not None:
        raise ValueError(f"negative test value at prefix {negative!r}")
    _capped(depth)
    nums, den = _common_denominator(values)
    return ExtendedTest._of_levels(*_spread(levels, nums, den, _maxima))


def _spread(
    levels: list[dict[str, int]],
    nums: list[int],
    den: int,
    combine: Callable[[list[int], Iterable[int]], list[int]],
) -> tuple[list[list[int]], int]:
    """Rows for the levels of `_by_length`, each word mapped to the position
    of its numerator in `nums`, all over `den`: the root holds its listed
    numerator (else 0), and every other prefix what its parent holds,
    combined by the entrywise `combine` with its own listed numerator.

    A level that lists every word is one `combine` of the doubled parent
    row with the listed row in word order; a partial level combines entry
    by entry."""

    def step(parent: list[int], length: int) -> list[int]:
        child = _doubled(parent)
        listed = levels[length]
        if len(listed) == len(child):
            return combine(child, map(nums.__getitem__, map(listed.__getitem__, sorted(listed))))
        for x, position in listed.items():
            i = _index(x)
            child[i : i + 1] = combine(child[i : i + 1], (nums[position],))
        return child

    root = nums[levels[0][""]] if levels[0] else 0
    return fill_down(len(levels) - 1, root, step), den


def _non_monotone_children(nums: list[list[int]]) -> Iterator[tuple[int, int]]:
    """(length, index) of every child valued below its parent, level by
    level, in word order; the levels share one denominator."""
    for length in range(1, len(nums)):
        row = nums[length]
        for i in compress(range(len(row)), map(operator.gt, _doubled(nums[length - 1]), row)):
            yield length, i


def _dot(a: list[int], b: list[int]) -> int:
    return sum(map(operator.mul, a, b))


@dataclass
class Verdict:
    """An exact check: `ok`, its report rows and a witness.

    Rows are tuples of strings, one per column of the report's header.  The
    witness is None when the check holds, except for a coupling, and
    otherwise refutes it.  Its form per check:

    - `validate_extended_test`, `bernoulli.validate_combinatorial_test`: a
      message naming the first violation;
    - `prob_bound_check`: (N, P{T > N}) with P{T > N} > 1/N;
    - `martingale_check`: the list of failing (prefix, lhs, rhs);
    - `bernoulli.certify_bernoulli_test`: (level, p) for the first level
      whose coin average exceeds 1 at p;
    - `bernoulli.replacement_domination_check`: the (K, word) whose ratio
      exceeds the factor;
    - `separator.chebyshev_tail_check`: the tail mass mu, when mu^5 n >= 1;
    - `coupling.monotone_criterion_check`: (sorted upper set U, P(U), Q(U))
      with P(U) > Q(U);
    - `coupling.is_coupled_below`: the plan {(x, y): mass} when `ok` (P is
      coupled below Q), else (U, P(U), Q(U)) as above.
    """

    ok: bool
    rows: list[tuple[str, ...]]
    witness: object = None


def validate_extended_test(test: ExtendedTest, measure: DyadicMeasure) -> Verdict:
    """Check monotonicity and the level-average bound, exactly.

    Failures are report rows, never exceptions; the witness is a message
    naming the first one.
    """
    if test.depth > measure.depth:
        raise ValueError("test deeper than measure table")
    rows: list[tuple[str, str, str, str]] = []
    first: Optional[str] = None

    bad = test.is_monotone()
    if bad is not None:
        rows.append((bad, fmt(test.value(bad)), fmt(test.value(bad[:-1])), "non-monotone"))
        first = f"monotonicity fails at {bad!r}"

    den = measure.den * test.den
    for length, row in enumerate(test.nums):
        average = Fraction(_dot(measure.nums[length], row), den)
        ok_level = average <= 1
        rows.append((f"len={length}", fmt(average), fmt(1), "pass" if ok_level else "fail"))
        if not ok_level and first is None:
            first = f"level {length} average {average} exceeds 1"

    return Verdict(ok=first is None, rows=rows, witness=first)


def from_weights(
    weights: Mapping[str, Fraction], measure: DyadicMeasure, depth: int
) -> ExtendedTest:
    """T(x) = sum of weights over prefixes of x; needs nonnegative weights and
    budget sum(P*w) <= 1."""
    for x, w in weights.items():
        validate_bits(x)
        if len(x) > depth:
            raise ValueError(f"weight on prefix {x!r} deeper than {depth}")
        if w < 0:
            raise ValueError(f"negative weight at prefix {x!r}")
    nums, den = _common_denominator(map(Fraction, weights.values()))
    if (deep := next((x for x in weights if len(x) > measure.depth), None)) is not None:
        raise ValueError(f"prefix {deep!r} deeper than table depth {measure.depth}")
    budget = sum(measure.nums[len(x)][_index(x)] * v for x, v in zip(weights, nums))
    if budget > measure.den * den:
        raise ValueError(f"weight budget exceeded: sum P*w = {Fraction(budget, measure.den * den)}")
    levels, _ = _by_length(_capped(depth), weights)
    return ExtendedTest._of_levels(*_spread(levels, nums, den, _sums))


@dataclass
class ProfileRow:
    prefix: str
    m_ratio: Ext
    running_sum: Ext
    running_sup: Ext
    tbar: Ext
    that: Ext
    mono_ratio: Optional[Ext]
    flagged: bool


@dataclass
class DeficiencyProfile:
    rows: list[ProfileRow]

    def tsv_rows(self) -> list[tuple[str, ...]]:
        out = []
        for r in self.rows:
            ratio = (
                fmt(r.running_sum / r.running_sup)
                if (not is_inf(r.running_sum) and not is_inf(r.running_sup) and r.running_sup > 0)
                else ("inf" if is_inf(r.running_sum) else "-")
            )
            out.append(
                (
                    r.prefix if r.prefix else "-",
                    fmt(r.m_ratio),
                    fmt(r.running_sum),
                    fmt(r.running_sup),
                    fmt(r.tbar),
                    fmt(r.that),
                    fmt(r.mono_ratio) if r.mono_ratio is not None else "-",
                    "flagged" if r.flagged else "ok",
                    ratio,
                )
            )
        return out


def deficiency_profile(
    machine: PrefixMachine,
    monotone: Optional[MonotoneMachine],
    measure: DyadicMeasure,
    x: str,
) -> DeficiencyProfile:
    """Per-prefix deficiency quantities along the path to x.

    The running sum of m(t)/P(t) is the :func:`from_weights` test of the
    weights m(t)/P(t) on the outputs t with P(t) > 0, whose budget is the
    machine's Kraft sum, and `inf` below an output of mass 0.  Its minimal
    extension and conditional average at each prefix of x are reported next
    to the raw ratio, the running sup and, when a monotone machine is
    supplied, M(t)/P(t).
    """
    validate_bits(x)
    if len(x) > measure.depth:
        raise ValueError("prefix deeper than measure table")
    depth = measure.depth
    mass = machine.output_mass()
    outputs = {t: measure.mass(t) for t in mass if len(t) <= depth}
    test = from_weights({t: mass[t] / p for t, p in outputs.items() if p}, measure, depth)
    finite = bytearray(b"\x01") * (1 << depth)  # 0 below an output of mass 0
    for t, p in outputs.items():
        if not p:
            finite[_span(t, depth)] = bytes(1 << (depth - len(t)))
    horizon = monotone.max_program_length() if monotone is not None else 0

    rows = []
    running_sup: Ext = Fraction(0)
    flagged = False
    for length in range(len(x) + 1):
        t = x[:length]
        ratio, zero_over_zero = div_ratio(mass.get(t, Fraction(0)), measure.mass(t))
        running_sup = max(running_sup, ratio)
        flagged = flagged or zero_over_zero
        mono_ratio: Optional[Ext] = None
        if monotone is not None:
            mono_ratio, _ = div_ratio(monotone_output_prob(monotone, t, horizon), measure.mass(t))
        running_sum = INF if is_inf(running_sup) else test.value(t)
        if running_sup > running_sum:
            raise AssertionError("running sup exceeded running sum")
        cylinder = _span(t, depth)
        tbar = min(compress(test.nums[-1][cylinder], finite[cylinder]), default=None)
        rows.append(
            ProfileRow(
                prefix=t,
                m_ratio=ratio,
                running_sum=running_sum,
                running_sup=running_sup,
                tbar=INF if tbar is None else Fraction(tbar, test.den),
                that=conditional_average(test, measure, t),
                mono_ratio=mono_ratio,
                flagged=flagged,
            )
        )
    return DeficiencyProfile(rows)


def min_extension(test: ExtendedTest, x: str) -> Fraction:
    """Minimum of the test over the depth-level words extending x."""
    validate_bits(x)
    if len(x) > test.depth:
        raise ValueError("prefix deeper than test")
    return Fraction(min(test.nums[-1][_span(x, test.depth)]), test.den)


def _span(x: str, depth: int) -> slice:
    """The positions of a level-`depth` row under the cylinder at x."""
    tail = depth - len(x)
    start = _index(x) << tail
    return slice(start, start + (1 << tail))


def conditional_average(test: ExtendedTest, measure: DyadicMeasure, x: str) -> Fraction:
    """Average of the leaf values over the cylinder at x, weighted by the measure.

    Never infinite: a cylinder without mass has only massless leaves, so its
    integral is 0 too, and the 0/0 case is defined as 0.
    """
    validate_bits(x)
    if not len(x) <= test.depth <= measure.depth:
        raise ValueError("need |x| <= test depth <= measure depth")
    depth = test.depth
    cylinder = _span(x, depth)
    weighted = _dot(measure.nums[depth][cylinder], test.nums[depth][cylinder])
    value, _ = div_ratio(Fraction(weighted, measure.den * test.den), measure.mass(x))
    return value


def martingale_check(
    g: Union[ExtendedTest, Mapping[str, Ext]], measure: DyadicMeasure, mode: str = "martingale"
) -> Verdict:
    """Verify P(x)g(x) = (or >=) P(x0)g(x0) + P(x1)g(x1) at every interior x.

    One row per failing prefix, or one `all` row when none fails; the
    witness lists the failing (prefix, lhs, rhs).

    A mapping g may hold `INF`; it is defined up to one less than the length
    of its first missing prefix.  The products use the convention
    0 * inf = 0, so infinite values on measure-null prefixes do not poison
    the check.
    """
    if mode not in ("martingale", "supermartingale"):
        raise ValueError(f"unknown mode {mode!r}")
    if isinstance(g, ExtendedTest):
        level = g.depth
    else:
        if "" not in g:
            raise ValueError("g must be defined on the empty prefix")
        scan = min(measure.depth + 1, MAX_DEPTH)
        missing = next((x for x in prefixes(scan) if x not in g), None)
        level = scan if missing is None else len(missing) - 1
    if level > measure.depth:
        raise ValueError("g defined deeper than the measure table")
    if isinstance(g, ExtendedTest):
        values, den = g.nums, g.den
    else:
        values = [[g[x] for x in all_words(length)] for length in range(level + 1)]
        finite, den = _common_denominator(Fraction(v) for v in chain.from_iterable(values) if not is_inf(v))
        scaled = iter(finite)
        values = [[v if is_inf(v) else next(scaled) for v in row] for row in values]  # `INF` kept
    products = [[p and p * v for p, v in zip(masses, row)] for masses, row in zip(measure.nums, values)]  # 0 * inf = 0
    den *= measure.den
    fails = operator.ne if mode == "martingale" else operator.lt
    failures = [
        (_word(i, length), _ratio(lhs, den), _ratio(rhs, den))
        for length, i, lhs, rhs in _unbalanced_parents(products, fails)
    ]
    if not failures:
        return Verdict(ok=True, rows=[("all", "-", "-", f"{mode}:pass")])
    rows = [(x or "-", fmt(lhs), fmt(rhs), f"{mode}:fail") for x, lhs, rhs in failures]
    return Verdict(ok=False, rows=rows, witness=failures)


def _ratio(num, den: int) -> Ext:
    return INF if is_inf(num) else Fraction(num, den)


def prob_bound_check(test: ExtendedTest, measure: DyadicMeasure) -> Verdict:
    """Decide the probability bound P{T > N} <= 1/N for every threshold N > 0.

    The tail mass is a step function of N that only changes at leaf values,
    so the bound holds for all N exactly when v * P{T >= v} <= 1 at every
    distinct positive leaf value v.  The leaf masses are grouped by value
    once, and each tail P{T >= v} is a suffix sum over the sorted values.
    On failure the witness is (N, P{T > N}) for a rational N strictly
    between the previous value and v with P{T > N} > 1/N; no leaf value lies
    in that gap, so P{T > N} is the tail at v.  One row per positive value,
    then, on failure, a `witness-N=` row with P{T > N} and 1/N; one `all`
    row when no leaf value is positive.
    """
    if test.depth > measure.depth:
        raise ValueError("test deeper than measure table")
    td, md = test.den, measure.den
    mass_at: dict[int, int] = {}
    for v, m in zip(test.nums[-1], measure.nums[test.depth]):
        mass_at[v] = mass_at.get(v, 0) + m
    distinct = sorted(mass_at)
    tails: dict[int, int] = {}
    running = 0
    for v in reversed(distinct):
        running += mass_at[v]
        tails[v] = running
    rows = []
    witness = None
    previous = Fraction(0)
    for num in distinct:
        if num == 0:
            continue
        v, tail = Fraction(num, td), Fraction(tails[num], md)
        ok_v = num * tails[num] <= td * md
        rows.append((f"value={fmt(v)}", fmt(tail), fmt(v * tail), "pass" if ok_v else "fail"))
        if not ok_v and witness is None:
            lower = max(previous, 1 / tail)
            witness = ((lower + v) / 2, tail)
        previous = v
    if witness is not None:
        n_value, tail = witness
        rows.append((f"witness-N={fmt(n_value)}", fmt(tail), fmt(1 / n_value), "fail"))
    return Verdict(ok=witness is None, rows=rows or [("all", "-", "-", "pass")], witness=witness)


def _sum_inverse_squares_bound(terms: int = 50) -> Fraction:
    partial = sum((Fraction(2, i * i) for i in range(1, terms + 1)), Fraction(0))
    return partial + Fraction(2, terms)


#: Certified rational upper bound on sum_{i>=1} 2/i^2, the average that a
#: converted probability-bounded test can reach.
CONVERT_AVG_BOUND: Fraction = _sum_inverse_squares_bound()


def convert_value(t: Fraction) -> Fraction:
    """The damping t -> t/log^2 t, guarded below 4 and certified above.

    Below 4 the value is t/4 (meeting t/log2(t)^2 = 1 at the seam t = 4).
    Above it the base-2 log is rounded up to an integer (exact at powers of
    two), which lowers the result, keeping every asserted average a
    certified upper bound.
    """
    t = Fraction(t)
    if t < 0:
        raise ValueError("test values are nonnegative")
    if t < 4:
        return t / 4
    log = ceil_log2(t)
    return t / (log * log)


def prob_to_avg_convert(
    test: ExtendedTest, measure: DyadicMeasure
) -> tuple[ExtendedTest, Fraction]:
    """Damp a probability-bounded test into an average-bounded one.

    Leaf values are mapped through :func:`convert_value`; interior values
    are the minima over descendant leaves, which restores monotonicity.
    Returns the converted test and its exact leaf-level average, which is
    re-verified against :data:`CONVERT_AVG_BOUND`.
    """
    check = prob_bound_check(test, measure)
    if not check.ok:
        raise ValueError(
            f"input is not probability-bounded: witness N={fmt(check.witness[0])}"
        )
    td = test.den
    damped = {v: convert_value(Fraction(v, td)) for v in set(test.nums[-1])}
    nums, den = _common_denominator(damped.values())
    scaled = dict(zip(damped, nums))
    leaves = list(map(scaled.__getitem__, test.nums[-1]))
    converted = ExtendedTest._of_levels(fold_up(leaves, _minima), den)
    average = Fraction(_dot(measure.nums[test.depth], leaves), measure.den * den)
    if average > CONVERT_AVG_BOUND:
        raise AssertionError(
            f"certified conversion bound violated: {average} > {CONVERT_AVG_BOUND}"
        )
    return converted, average
