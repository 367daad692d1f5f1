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
from typing import Iterator, Mapping, Optional, Sequence

from .exact import INF, Ext, div_ratio, fmt, is_inf, is_power_of_two, ceil_log2, floor_log2, mul_nonneg
from .machines import MonotoneMachine, PrefixMachine, monotone_output_prob
from .measures import MAX_DEPTH, DyadicMeasure, all_words, fill_down, fold_up, prefixes, validate_bits

__all__ = [
    "ExtendedTest",
    "Verdict",
    "validate_extended_test",
    "from_weights",
    "DeficiencyProfile",
    "ProfileRow",
    "deficiency_profile",
    "sum_test_values",
    "min_extension",
    "conditional_average",
    "MartingaleReport",
    "martingale_check",
    "prob_bound_check",
    "ConvertReport",
    "prob_to_avg_convert",
    "convert_value",
    "CONVERT_AVG_BOUND",
]


class ExtendedTest:
    """Nonnegative rational values on every prefix up to `depth`."""

    __slots__ = ("depth", "values")

    def __init__(self, depth: int, values: Mapping[str, Fraction]):
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        self.depth = depth
        self.values = {}
        for x in prefixes(depth):
            if x not in values:
                raise ValueError(f"test value missing for prefix {x!r}")
            v = Fraction(values[x])
            if v < 0:
                raise ValueError(f"negative test value at prefix {x!r}")
            self.values[x] = v

    @classmethod
    def from_partial(cls, depth: int, listed: Mapping[str, Fraction]) -> "ExtendedTest":
        """Monotone closure: unlisted prefixes get the max over listed ancestors."""
        for x in listed:
            validate_bits(x)
            if len(x) > depth:
                raise ValueError(f"listed prefix {x!r} deeper than {depth}")
        root = Fraction(listed.get("", 0))
        return cls(depth, fill_down(depth, root, lambda v, x: max(Fraction(listed.get(x, 0)), v)))

    def value(self, x: str) -> Fraction:
        return self.values[x]

    def leaves(self) -> list[tuple[str, Fraction]]:
        return [(x, self.values[x]) for x in all_words(self.depth)]

    def is_monotone(self) -> Optional[str]:
        """None when monotone under prefix extension, else the first bad child."""
        return next(_non_monotone_children(self.values, self.depth), None)

    def __repr__(self) -> str:
        return f"ExtendedTest(depth={self.depth})"


def _non_monotone_children(values: Mapping[str, Fraction], depth: int) -> Iterator[str]:
    """Every child valued below its parent, level by level, in word order."""
    for x in prefixes(depth - 1):
        for b in "01":
            if values[x] > values[x + b]:
                yield x + b


@dataclass
class Verdict:
    """An exact check: 4-column report rows and, when `ok` is false, a witness.

    The witness is the first violation found; each checking function
    documents its form (a message, or the exact values that refute the
    property).
    """

    ok: bool
    rows: list[tuple[str, str, str, str]]
    witness: object = None


def validate_extended_test(
    test: ExtendedTest,
    measure: DyadicMeasure,
    antichain: Optional[Sequence[str]] = None,
) -> Verdict:
    """Check monotonicity and the level-average bound, exactly.

    When an antichain is supplied, its prefix-freeness and the average bound
    over it are checked as well.  Failures are report rows, never exceptions;
    the witness is a message naming the first one.
    """
    if test.depth > measure.depth:
        raise ValueError("test deeper than measure table")
    rows: list[tuple[str, str, str, str]] = []
    first: Optional[str] = None

    bad = test.is_monotone()
    if bad is not None:
        rows.append((bad, fmt(test.values[bad]), fmt(test.values[bad[:-1]]), "non-monotone"))
        first = f"monotonicity fails at {bad!r}"

    averages = [Fraction(0)] * (test.depth + 1)
    for x in prefixes(test.depth):
        averages[len(x)] += measure.mass(x) * test.values[x]
    for length, average in enumerate(averages):
        ok_level = average <= 1
        rows.append((f"len={length}", fmt(average), fmt(1), "pass" if ok_level else "fail"))
        if not ok_level and first is None:
            first = f"level {length} average {average} exceeds 1"

    if antichain is not None:
        members = sorted(antichain)
        for a, b in zip(members, members[1:]):
            if b.startswith(a):
                rows.append((a, b, "", "not-an-antichain"))
                if first is None:
                    first = f"antichain members {a!r} and {b!r} are comparable"
        total = sum(
            (measure.mass(x) * test.values[x] for x in members), Fraction(0)
        )
        ok_set = total <= 1
        rows.append(("antichain", fmt(total), fmt(1), "pass" if ok_set else "fail"))
        if not ok_set and first is None:
            first = f"antichain average {total} exceeds 1"

    return Verdict(ok=first is None, rows=rows, witness=first)


def from_weights(
    weights: Mapping[str, Fraction], measure: DyadicMeasure, depth: int
) -> ExtendedTest:
    """T(x) = sum of weights over prefixes of x; needs budget sum(P*w) <= 1."""
    for x in weights:
        validate_bits(x)
        if len(x) > depth:
            raise ValueError(f"weight on prefix {x!r} deeper than {depth}")
    budget = sum(
        (measure.mass(x) * Fraction(w) for x, w in weights.items()), Fraction(0)
    )
    if budget > 1:
        raise ValueError(f"weight budget exceeded: sum P*w = {budget}")
    root = Fraction(weights.get("", 0))
    return ExtendedTest(depth, fill_down(depth, root, lambda v, x: v + Fraction(weights.get(x, 0))))


def sum_test_values(
    machine: PrefixMachine, measure: DyadicMeasure
) -> tuple[dict[str, Ext], dict[str, bool]]:
    """Running sums of m(t)/P(t) on every prefix up to the measure depth.

    Returns (values, flags); `flags[x]` marks a 0/0 ratio somewhere on the
    path to x (the ratio is taken as 0 by convention).
    """
    mass = machine.output_mass()

    def step(parent: tuple[Ext, bool], x: str) -> tuple[Ext, bool]:
        ratio, flagged = div_ratio(mass.get(x, Fraction(0)), measure.mass(x))
        return parent[0] + ratio, parent[1] or flagged

    root = div_ratio(mass.get("", Fraction(0)), measure.mass(""))
    table = fill_down(measure.depth, root, step)
    return {x: v for x, (v, _) in table.items()}, {x: f for x, (_, f) in table.items()}


def div_ratio_ext(num: Ext, den: Fraction) -> tuple[Ext, bool]:
    """div_ratio extended to an infinite numerator."""
    if is_inf(num):
        return INF, False
    return div_ratio(num, den)


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

    The running sum of m(t)/P(t) defines a test on the whole tree; its
    minimal extension and conditional average at each prefix of x are
    reported next to the raw ratio, the running sup and, when a monotone
    machine is supplied, M(t)/P(t).
    """
    validate_bits(x)
    if len(x) > measure.depth:
        raise ValueError("prefix deeper than measure table")
    values, flags = sum_test_values(machine, measure)
    depth = measure.depth

    leaves = all_words(depth)
    tbar = fold_up({y: values[y] for y in leaves}, depth, min)
    integral = fold_up({y: mul_nonneg(measure.mass(y), values[y]) for y in leaves}, depth, operator.add)

    mono_cache: dict[str, Fraction] = {}
    if monotone is not None:
        horizon = monotone.max_program_length()
        for length in range(len(x) + 1):
            t = x[:length]
            mono_cache[t] = monotone_output_prob(monotone, t, horizon)

    rows = []
    running_sup: Ext = Fraction(0)
    mass = machine.output_mass()
    for length in range(len(x) + 1):
        t = x[:length]
        ratio, _ = div_ratio(mass.get(t, Fraction(0)), measure.mass(t))
        running_sup = max(running_sup, ratio)
        that, _ = div_ratio_ext(integral[t], measure.mass(t))
        mono_ratio: Optional[Ext] = None
        if monotone is not None:
            mono_ratio, _ = div_ratio(mono_cache[t], measure.mass(t))
        if running_sup > values[t]:
            raise AssertionError("running sup exceeded running sum")
        rows.append(
            ProfileRow(
                prefix=t,
                m_ratio=ratio,
                running_sum=values[t],
                running_sup=running_sup,
                tbar=tbar[t],
                that=that,
                mono_ratio=mono_ratio,
                flagged=flags[t],
            )
        )
    return DeficiencyProfile(rows)


def min_extension(test: ExtendedTest, x: str) -> Fraction:
    """Minimum of the test over the depth-level words extending x."""
    validate_bits(x)
    if len(x) > test.depth:
        raise ValueError("prefix deeper than test")
    tail = test.depth - len(x)
    return min(test.values[x + suffix] for suffix in all_words(tail))


def conditional_average(test: ExtendedTest, measure: DyadicMeasure, x: str) -> Ext:
    """Average of the leaf values over the cylinder at x, weighted by the measure.

    Infinite when the cylinder carries no mass but the leaf integral is
    positive; the 0/0 case is defined as 0.
    """
    validate_bits(x)
    if not len(x) <= test.depth <= measure.depth:
        raise ValueError("need |x| <= test depth <= measure depth")
    tail = test.depth - len(x)
    weighted = sum(
        (measure.mass(x + s) * test.values[x + s] for s in all_words(tail)),
        Fraction(0),
    )
    value, _ = div_ratio(weighted, measure.mass(x))
    return value


@dataclass
class MartingaleReport:
    ok: bool
    mode: str
    failures: list[tuple[str, Ext, Ext]]

    def tsv_rows(self) -> list[tuple[str, str, str, str]]:
        if self.ok:
            return [("all", "-", "-", f"{self.mode}:pass")]
        return [
            (x if x else "-", fmt(lhs), fmt(rhs), f"{self.mode}:fail")
            for x, lhs, rhs in self.failures
        ]


def martingale_check(
    g: Mapping[str, Ext], measure: DyadicMeasure, mode: str = "martingale"
) -> MartingaleReport:
    """Verify P(x)g(x) = (or >=) P(x0)g(x0) + P(x1)g(x1) at every interior x.

    The products use the convention 0 * inf = 0, so infinite values on
    measure-null prefixes do not poison the check.
    """
    if mode not in ("martingale", "supermartingale"):
        raise ValueError(f"unknown mode {mode!r}")
    if "" not in g:
        raise ValueError("g must be defined on the empty prefix")
    # g's level is one less than the length of its first missing prefix
    scan = min(measure.depth + 1, MAX_DEPTH)
    missing = next((x for x in prefixes(scan) if x not in g), None)
    level = scan if missing is None else len(missing) - 1
    if level > measure.depth:
        raise ValueError("g defined deeper than the measure table")
    product = {x: mul_nonneg(measure.mass(x), g[x]) for x in prefixes(level)}
    failures = []
    for x in prefixes(level - 1):
        lhs, rhs = product[x], product[x + "0"] + product[x + "1"]
        holds = lhs == rhs if mode == "martingale" else lhs >= rhs
        if not holds:
            failures.append((x, lhs, rhs))
    return MartingaleReport(ok=not failures, mode=mode, failures=failures)


def prob_bound_check(test: ExtendedTest, measure: DyadicMeasure) -> Verdict:
    """Decide the probability bound P{T > N} <= 1/N for every threshold N > 0.

    The tail mass is a step function of N that only changes at leaf values,
    so the bound holds for all N exactly when v * P{T >= v} <= 1 at every
    distinct positive leaf value v.  The leaf masses are grouped by value
    once, and each tail P{T >= v} is a suffix sum over the sorted values.
    On failure the witness is (N, P{T > N}) for a rational N strictly
    between the previous value and v with P{T > N} > 1/N; no leaf value lies
    in that gap, so P{T > N} is the tail at v.
    """
    if test.depth > measure.depth:
        raise ValueError("test deeper than measure table")
    mass_at: dict[Fraction, Fraction] = {}
    for x, v in test.leaves():
        mass_at[v] = mass_at.get(v, Fraction(0)) + measure.mass(x)
    distinct = sorted(mass_at)
    tails: dict[Fraction, Fraction] = {}
    running = Fraction(0)
    for v in reversed(distinct):
        running += mass_at[v]
        tails[v] = running
    rows = []
    witness = None
    previous = Fraction(0)
    for v in distinct:
        if v == 0:
            continue
        tail = tails[v]
        ok_v = v * tail <= 1
        rows.append((f"value={fmt(v)}", fmt(tail), fmt(v * tail), "pass" if ok_v else "fail"))
        if not ok_v and witness is None:
            lower = max(previous, 1 / tail)
            witness = ((lower + v) / 2, tail)
        previous = v
    return Verdict(ok=witness is None, rows=rows, witness=witness)


def _sum_inverse_squares_bound(terms: int = 50) -> Fraction:
    partial = sum((Fraction(2, i * i) for i in range(1, terms + 1)), Fraction(0))
    return partial + Fraction(2, terms)


#: Certified rational upper bound on sum_{i>=1} 2/i^2, the average that a
#: converted probability-bounded test can reach.
CONVERT_AVG_BOUND: Fraction = _sum_inverse_squares_bound()


def convert_value(t: Fraction) -> Fraction:
    """The damping t -> t/log^2 t, guarded below 4 and certified above.

    Below 4 the value is t/4 (meeting t/log2(t)^2 = 1 at the seam t = 4).
    At powers of two the base-2 log is exact; elsewhere the log is rounded
    up to the next integer, which lowers the result, keeping every asserted
    average a certified upper bound.
    """
    t = Fraction(t)
    if t < 0:
        raise ValueError("test values are nonnegative")
    if t < 4:
        return t / 4
    if is_power_of_two(t):
        log = floor_log2(t)
    else:
        log = ceil_log2(t)
    return t / (log * log)


@dataclass
class ConvertReport:
    ok: bool
    average: Fraction
    bound: Fraction

    def tsv_rows(self) -> list[tuple[str, str, str, str]]:
        return [("leaf-average", fmt(self.average), fmt(self.bound), "pass" if self.ok else "fail")]


def prob_to_avg_convert(
    test: ExtendedTest, measure: DyadicMeasure
) -> tuple[ExtendedTest, ConvertReport]:
    """Damp a probability-bounded test into an average-bounded one.

    Leaf values are mapped through :func:`convert_value`; interior values
    are the minima over descendant leaves, which restores monotonicity.
    The exact leaf-level average is reported against the documented bound.
    """
    check = prob_bound_check(test, measure)
    if not check.ok:
        raise ValueError(
            f"input is not probability-bounded: witness N={fmt(check.witness[0])}"
        )
    leaves = {y: convert_value(test.values[y]) for y in all_words(test.depth)}
    values = fold_up(leaves, test.depth, min)
    converted = ExtendedTest(test.depth, values)
    average = sum(
        (measure.mass(y) * values[y] for y in all_words(test.depth)), Fraction(0)
    )
    ok = average <= CONVERT_AVG_BOUND
    if not ok:
        raise AssertionError(
            f"certified conversion bound violated: {average} > {CONVERT_AVG_BOUND}"
        )
    return converted, ConvertReport(ok=ok, average=average, bound=CONVERT_AVG_BOUND)
