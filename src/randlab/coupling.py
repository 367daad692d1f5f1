"""Coupling decisions on the hypercube, monotonization, and sparsity values.

Whether one level-n mass vector can be coupled below another along the
coordinatewise order is decided by an exact integer max flow on the
hypercube's Hasse diagram; infeasibility is certified by the violating
monotone upper set on the source side of the minimal min cut.
The brute-force criterion over all monotone 0/1 functions gives the same
answer (Strassen) and serves as a cross-check up to n = 4.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Mapping, Optional, TypeVar

from .measures import (
    Bernoulli,
    CapabilityError,
    DyadicMeasure,
    _index,
    _rescaled,
    all_words,
    bernoulli_mass,
    realize,
    validate_bits,
)
from .randtests import ExtendedTest

V = TypeVar("V")

__all__ = [
    "CapabilityError",
    "CouplingWitness",
    "CouplingResult",
    "leq_words",
    "is_coupled_below",
    "enumerate_upper_sets",
    "CriterionResult",
    "monotone_criterion_check",
    "monotonize",
    "submask_hull",
    "PushdownReport",
    "pushdown_measure",
    "sparsity_value",
]


def leq_words(x: str, y: str) -> bool:
    """Coordinatewise order on words of equal length."""
    if len(x) != len(y):
        raise ValueError("coordinatewise order needs equal lengths")
    return all(a <= b for a, b in zip(x, y))


@dataclass
class CouplingWitness:
    """A transportation plan on pairs x <= y with prescribed marginals."""

    flow: dict[tuple[str, str], Fraction]

    def row_sums(self) -> dict[str, Fraction]:
        out: dict[str, Fraction] = {}
        for (x, _), v in self.flow.items():
            out[x] = out.get(x, Fraction(0)) + v
        return out

    def col_sums(self) -> dict[str, Fraction]:
        out: dict[str, Fraction] = {}
        for (_, y), v in self.flow.items():
            out[y] = out.get(y, Fraction(0)) + v
        return out


@dataclass
class CouplingResult:
    coupled: bool
    witness: Optional[CouplingWitness]
    certificate: Optional[list[str]]  # violating upper set, sorted
    p_mass: Optional[Fraction] = None
    q_mass: Optional[Fraction] = None


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


def is_coupled_below(P: DyadicMeasure, Q: DyadicMeasure, n: int) -> CouplingResult:
    """Decide whether the level-n restriction of P can be coupled below Q.

    The masses are scaled to integers by the lcm of the level's
    denominators and sent through an integer max flow on the Hasse diagram
    of {0,1}^n, which by Strassen's theorem has the same value as the flow
    over all pairs x <= y.  Feasibility returns the transportation plan;
    infeasibility returns the residual-reachable side of the min cut: the
    inclusion-minimal upper set U maximizing P(U) - Q(U), with P(U) > Q(U).
    """
    if n > min(P.depth, Q.depth):
        raise ValueError("level beyond a measure table depth")
    words = all_words(n)
    scale = lcm(P.dens[n], Q.dens[n])
    supply = _rescaled(P.nums[n], P.dens[n], scale)
    demand = _rescaled(Q.nums[n], Q.dens[n], scale)
    total, plan, reachable = _hasse_flow(n, supply, demand)
    if total == sum(supply):
        flow = {(words[x], words[y]): Fraction(v, scale) for (x, y), v in plan.items()}
        return CouplingResult(coupled=True, witness=CouplingWitness(flow), certificate=None)
    upper = [x for x, inside in enumerate(reachable) if inside]
    p_u = Fraction(sum(supply[x] for x in upper), scale)
    q_u = Fraction(sum(demand[x] for x in upper), scale)
    if not p_u > q_u:
        raise AssertionError("min-cut certificate failed to separate the masses")
    return CouplingResult(
        coupled=False,
        witness=None,
        certificate=[words[x] for x in upper],
        p_mass=p_u,
        q_mass=q_u,
    )


@lru_cache(maxsize=None)
def enumerate_upper_sets(n: int) -> tuple[frozenset, ...]:
    """All monotone upper subsets of {0,1}^n, built from antichains.

    Refuses n > 4: the count is the Dedekind number (168 at n = 4) and the
    next one is out of desk range by policy.
    """
    if n > 4:
        raise CapabilityError(f"monotone-function enumeration capped at n = 4, got {n}")
    words = all_words(n)

    def up_closure(members: tuple[str, ...]) -> frozenset:
        return frozenset(
            y for y in words if any(leq_words(x, y) for x in members)
        )

    antichains: list[tuple[str, ...]] = []

    def grow(chosen: tuple[str, ...], start: int):
        antichains.append(chosen)
        for i in range(start, len(words)):
            w = words[i]
            if all(
                not leq_words(w, c) and not leq_words(c, w) for c in chosen
            ):
                grow(chosen + (w,), i + 1)

    grow((), 0)
    closures = {up_closure(a) for a in antichains}
    return tuple(sorted(closures, key=lambda s: (len(s), tuple(sorted(s)))))


@dataclass
class CriterionResult:
    ok: bool
    failing_upper_set: Optional[list[str]]
    p_mass: Optional[Fraction] = None
    q_mass: Optional[Fraction] = None


def monotone_criterion_check(P: DyadicMeasure, Q: DyadicMeasure, n: int) -> CriterionResult:
    """Brute-force Strassen criterion: P(U) <= Q(U) for every upper set U."""
    if n > min(P.depth, Q.depth):
        raise ValueError("level beyond a measure table depth")
    for upper in enumerate_upper_sets(n):
        p_u = sum((P.mass(x) for x in upper), Fraction(0))
        q_u = sum((Q.mass(y) for y in upper), Fraction(0))
        if p_u > q_u:
            return CriterionResult(
                ok=False, failing_upper_set=sorted(upper), p_mass=p_u, q_mass=q_u
            )
    return CriterionResult(ok=True, failing_upper_set=None)


def monotonize(t: Mapping[str, Fraction]) -> dict[str, Fraction]:
    """Pointwise max over coordinatewise-smaller words: the monotone hull."""
    words = sorted(t)
    if not words:
        return {}
    n = len(words[0])
    if len(words) != 2 ** n or any(len(w) != n for w in words):
        raise ValueError("need a total function on one level")
    return dict(zip(words, submask_hull([Fraction(t[x]) for x in words])))


def submask_hull(row: list[V]) -> list[V]:
    """Monotone hull of a level row: entry i becomes the max over the entries
    whose index is a submask of i, i.e. over the coordinatewise-smaller words."""
    hull = list(row)
    step = 1
    while step < len(hull):
        for start in range(step, len(hull), 2 * step):
            hull[start : start + step] = map(max, hull[start : start + step], hull[start - step : start])
        step *= 2
    return hull


@dataclass
class PushdownReport:
    coupled_ok: bool
    equality_ok: bool
    lhs: Fraction  # sum t dQ*
    rhs: Fraction  # sum monotonized-t dB_p


def pushdown_measure(
    t: Mapping[str, Fraction], p: Fraction, n: int
) -> tuple[DyadicMeasure, PushdownReport]:
    """Move each coin-measure leaf mass down to the smallest maximizer of t.

    Realizes the monotonization argument exactly: the resulting measure Q*
    couples below the coin measure and integrates t to the same value the
    coin measure gives the monotone hull of t.  Both claims are re-verified.
    """
    p = Fraction(p)
    hull = monotonize(t)
    q_leaves: dict[str, Fraction] = {x: Fraction(0) for x in all_words(n)}
    for x in all_words(n):
        candidates = _down_set(x)
        best = candidates[0]
        for c in candidates[1:]:
            if Fraction(t[c]) > Fraction(t[best]):
                best = c
        q_leaves[best] += bernoulli_mass(p, x)
    q_star = DyadicMeasure.from_leaves(n, q_leaves)
    lhs = sum((q_leaves[x] * Fraction(t[x]) for x in all_words(n)), Fraction(0))
    rhs = sum(
        (bernoulli_mass(p, x) * hull[x] for x in all_words(n)), Fraction(0)
    )
    coin = realize(Bernoulli(p), n)
    coupled = is_coupled_below(q_star, coin, n).coupled
    report = PushdownReport(
        coupled_ok=coupled, equality_ok=lhs == rhs, lhs=lhs, rhs=rhs
    )
    if not (report.coupled_ok and report.equality_ok):
        raise AssertionError("pushdown proof obligations failed")
    return q_star, report


def _down_set(x: str) -> list[str]:
    """All words <= x coordinatewise, in lexicographic order."""
    positions = [i for i, bit in enumerate(x) if bit == "1"]
    out = []
    for choice in itertools.product("01", repeat=len(positions)):
        word = list(x)
        for pos, bit in zip(positions, choice):
            word[pos] = bit
        out.append("".join(word))
    return sorted(out)


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
    return Fraction(best, test.dens[-1])
