"""Coupling decisions on the hypercube, monotonization, and sparsity values.

Whether one level-n mass vector can be coupled below another along the
coordinatewise order is decided by an exact integer max flow on the
hypercube's Hasse diagram; feasibility is witnessed by the transportation
plan {(x, y): mass}, infeasibility by the violating monotone upper set on
the source side of the minimal min cut.  The brute-force criterion over all
monotone 0/1 functions gives the same answer (Strassen) and serves as a
cross-check up to n = 4.

A level-n function is a row indexed by the words read as binary numbers,
so the words below x coordinatewise are the submasks of x's index: the
monotone hull (`submask_hull`) and the pushdown's smallest maximizers are
one pass over the row each.
"""
from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Mapping, Sequence, TypeVar

from .exact import fmt
from .formats import format_word
from .measures import (
    Bernoulli,
    CapabilityError,
    DyadicMeasure,
    _capped,
    _index,
    _maxima,
    _sums,
    _word,
    all_words,
    fold_up,
    realize,
    validate_bits,
)
from .randtests import ExtendedTest, Verdict

V = TypeVar("V")

__all__ = [
    "CapabilityError",
    "MAX_COUPLING_N",
    "is_coupled_below",
    "enumerate_upper_sets",
    "monotone_criterion_check",
    "submask_hull",
    "pushdown_measure",
    "sparsity_value",
]


def _hasse_flow(
    n: int, supply: list[int], demand: list[int]
) -> tuple[int, dict[tuple[int, int], int], list[bool]]:
    """Integer max flow from `supply` to `demand` along the Hasse diagram.

    Node x < 2^n stands for the level-n word with binary value x.  Arcs
    flip a single 0 to 1 and carry unbounded capacity, so a unit can travel
    from x to y exactly when x <= y coordinatewise.  Dinic's algorithm on
    adjacency lists; edge e ^ 1 is the reverse of edge e.

    Returns (flow value, plan, residual-reachable words).  The plan maps
    (x, y) to the amount of x's supply routed to y's demand, read off by
    decomposing the acyclic flow into paths.  The reachable words form the
    source side of the minimal min cut: an upper set, because every flip arc
    keeps residual capacity.
    """
    size = 1 << n
    source, sink = size, size + 1
    head: list[list[int]] = [[] for _ in range(size + 2)]
    to: list[int] = []
    cap: list[int] = []

    def add_arc(u: int, v: int, c: int) -> None:
        head[u].append(len(to))
        to.append(v)
        cap.append(c)
        head[v].append(len(to))
        to.append(u)
        cap.append(0)

    unbounded = sum(supply) + 1
    for x in range(size):
        if supply[x]:
            add_arc(source, x, supply[x])
    for x in range(size):
        if demand[x]:
            add_arc(x, sink, demand[x])
        for k in range(n):
            if not x >> k & 1:
                add_arc(x, x | 1 << k, unbounded)

    def reach() -> list[int]:
        """BFS levels over arcs with residual capacity (-1: unreachable)."""
        level = [-1] * (size + 2)
        level[source] = 0
        queue = [source]
        for u in queue:
            for e in head[u]:
                v = to[e]
                if cap[e] and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level

    def augment(u: int, limit: int) -> int:
        if u == sink:
            return limit
        edges = head[u]
        while cursor[u] < len(edges):
            e = edges[cursor[u]]
            v = to[e]
            if cap[e] and level[v] == level[u] + 1:
                pushed = augment(v, min(limit, cap[e]))
                if pushed:
                    cap[e] -= pushed
                    cap[e ^ 1] += pushed
                    return pushed
            cursor[u] += 1
        return 0

    total = 0
    while True:
        level = reach()
        if level[sink] < 0:
            break
        cursor = [0] * (size + 2)
        pushed = augment(source, unbounded)
        while pushed:
            total += pushed
            pushed = augment(source, unbounded)

    # Path decomposition: words in increasing value are in topological
    # order, and each word passes on the parcels it received, by origin.
    parcels: list[dict[int, int]] = [{} for _ in range(size)]
    for e in head[source]:
        if cap[e ^ 1]:
            parcels[to[e]][to[e]] = cap[e ^ 1]
    plan: dict[tuple[int, int], int] = {}
    for x in range(size):
        arrived = list(parcels[x].items())
        i = 0
        for e in head[x]:
            amount = cap[e ^ 1] if e % 2 == 0 else 0  # flow on a forward arc
            while amount:
                origin, held = arrived[i]
                moved = min(held, amount)
                if to[e] == sink:
                    plan[origin, x] = plan.get((origin, x), 0) + moved
                else:
                    out = parcels[to[e]]
                    out[origin] = out.get(origin, 0) + moved
                amount -= moved
                if moved == held:
                    i += 1
                else:
                    arrived[i] = (origin, held - moved)
    return total, plan, [d >= 0 for d in level[:size]]


#: Largest level `is_coupled_below` decides: 0.3-0.6 s at n = 12, and each
#: level past it at least doubles that (17 s and 180 MB at n = 16).
MAX_COUPLING_N = 12


def _refuse_past_cap(n: int) -> None:
    if n > MAX_COUPLING_N:
        raise CapabilityError(f"coupling capped at n = {MAX_COUPLING_N}, got {n}")


def _level_rows(P: DyadicMeasure, Q: DyadicMeasure, n: int) -> tuple[list[int], list[int], int]:
    """P's and Q's level-n rows of numerators over one denominator, the lcm
    of the two tables' denominators, and that denominator."""
    if n > min(P.depth, Q.depth):
        raise ValueError("level beyond a measure table depth")
    _capped(n)  # a negative level would index the rows from the leaves
    scale = lcm(P.den, Q.den)
    return [v * (scale // P.den) for v in P.nums[n]], [v * (scale // Q.den) for v in Q.nums[n]], scale


def is_coupled_below(P: DyadicMeasure, Q: DyadicMeasure, n: int) -> Verdict:
    """Decide whether the level-n restriction of P can be coupled below Q.

    The masses are scaled to integers by the lcm of the two tables'
    denominators and sent through an integer max flow on the Hasse diagram
    of {0,1}^n, which by Strassen's theorem has the same value as the flow
    over all pairs x <= y.  Feasibility returns the transportation plan,
    one (x, y, mass) row per pair in word order; infeasibility returns the
    residual-reachable side of the min cut: the inclusion-minimal upper set
    U maximizing P(U) - Q(U), with P(U) > Q(U).  Refuses n > `MAX_COUPLING_N`.
    """
    _refuse_past_cap(n)
    supply, demand, scale = _level_rows(P, Q, n)
    total, plan, reachable = _hasse_flow(n, supply, demand)
    if total == sum(supply):
        words = all_words(n)
        flow = {(words[x], words[y]): Fraction(v, scale) for (x, y), v in plan.items()}
        rows = [(format_word(x), format_word(y), fmt(v)) for (x, y), v in sorted(flow.items())]
        return Verdict(ok=True, rows=rows, witness=flow)
    return _refuted(n, [x for x, inside in enumerate(reachable) if inside], supply, demand, scale)


def _refuted(n: int, upper: Sequence[int], p_row: list[int], q_row: list[int], scale: int) -> Verdict:
    """The failed verdict of an upper set U of level-n indices, in increasing
    order, whose mass in `p_row` exceeds its mass in `q_row`."""
    p_u = Fraction(sum(p_row[x] for x in upper), scale)
    q_u = Fraction(sum(q_row[x] for x in upper), scale)
    if not p_u > q_u:
        raise AssertionError("min-cut certificate failed to separate the masses")
    words = [_word(x, n) for x in upper]
    rows = [(format_word(y), fmt(p_u), fmt(q_u)) for y in words]
    return Verdict(ok=False, rows=rows, witness=(words, p_u, q_u))


@lru_cache(maxsize=None)
def enumerate_upper_sets(n: int) -> tuple[tuple[int, ...], ...]:
    """All monotone upper subsets of {0,1}^n, each as its increasing word
    indices, ordered by size and then by those indices.

    A leading bit k splits an upper set of the longer words into the upper
    sets A (bit 0) and B (bit 1) of the shorter ones, with A a subset of B,
    and every such pair occurs: the sets grow from those of {0,1}^0 a bit
    at a time.  Refuses n > 4: the count is the Dedekind number (168 at
    n = 4) and the next one is out of desk range by policy.
    """
    if n > 4:
        raise CapabilityError(f"monotone-function enumeration capped at n = 4, got {n}")
    uppers: list[tuple[int, ...]] = [(), (0,)]
    for k in range(_capped(n)):
        uppers = [a + tuple(1 << k | y for y in b) for b in uppers for a in uppers if set(a) <= set(b)]
    return tuple(sorted(uppers, key=lambda u: (len(u), u)))


def monotone_criterion_check(P: DyadicMeasure, Q: DyadicMeasure, n: int) -> Verdict:
    """Brute-force Strassen criterion: P(U) <= Q(U) for every upper set U.

    Holding, it reports one `all` row; failing, one row per word of the
    first violating upper set in `enumerate_upper_sets` order.
    """
    p_row, q_row, scale = _level_rows(P, Q, n)
    for upper in enumerate_upper_sets(n):
        if sum(p_row[x] for x in upper) > sum(q_row[x] for x in upper):
            return _refuted(n, upper, p_row, q_row, scale)
    return Verdict(ok=True, rows=[("all", "-", "pass")])


def submask_hull(row: list[V]) -> list[V]:
    """Monotone hull of a level row of 2^n entries: entry i becomes the max
    over the entries whose index is a submask of i, i.e. over the
    coordinatewise-smaller words.

    Bit by bit, each entry with the bit set takes the larger of itself and
    its partner without it (itself on ties).  The entries with bit `step`
    set form blocks of `step` entries every 2 `step`; below sqrt(len)
    steps, one strided slice per offset in the block is fewer slices than
    one contiguous slice per block."""
    hull = list(row)
    size = len(hull)
    step = 1
    while step < size:
        if step * step < size:
            for offset in range(step, 2 * step):
                hull[offset :: 2 * step] = _maxima(hull[offset :: 2 * step], hull[offset - step :: 2 * step])
        else:
            for start in range(step, size, 2 * step):
                hull[start : start + step] = _maxima(hull[start : start + step], hull[start - step : start])
        step *= 2
    return hull


def pushdown_measure(
    t: Mapping[str, Fraction], p: Fraction, n: int
) -> tuple[DyadicMeasure, Fraction]:
    """Move each coin-measure leaf mass down to the smallest maximizer of t.

    Realizes the monotonization argument exactly: the resulting measure Q*
    couples below the coin measure and integrates t to the same value the
    coin measure gives the monotone hull of t.  Both claims are re-verified;
    returns Q* and that integral.
    """
    words = all_words(n)
    if len(t) != len(words) or any(x not in t for x in words):
        raise ValueError(f"need a total function on level {n}")
    row = [Fraction(t[x]) for x in words]
    # Over the words y <= x, the largest (t(y), -y) is t's maximum below x
    # at the first maximizer in word order: its value is the hull at x.
    best = submask_hull([(v, -y) for y, v in enumerate(row)])
    coin = realize(Bernoulli(p), n)
    leaves, den = coin.nums[n], coin.den
    moved = [0] * len(row)
    for mass, (_, y) in zip(leaves, best):
        moved[-y] += mass
    q_star = DyadicMeasure._of_levels(fold_up(moved, _sums), den)
    lhs = sum(map(operator.mul, moved, row), Fraction(0)) / den
    rhs = sum((mass * hull for mass, (hull, _) in zip(leaves, best)), Fraction(0)) / den
    if not (is_coupled_below(q_star, coin, n).ok and lhs == rhs):
        raise AssertionError("pushdown proof obligations failed")
    return q_star, lhs


def sparsity_value(test: ExtendedTest, x: str) -> Fraction:
    """Depth-level lower bound for the sparsity test at x: the minimum of the
    test over leaves whose first |x| coordinates dominate x."""
    validate_bits(x)
    if len(x) > test.depth:
        raise ValueError("prefix deeper than test")
    tail, i, leaves = test.depth - len(x), _index(x), test.nums[-1]
    best = min(
        min(leaves[y << tail : (y + 1) << tail])
        for y in range(i, 1 << len(x))
        if y & i == i
    )
    return Fraction(best, test.den)
