"""Finite neutral-measure search over mixtures of point masses.

Given k sequence prefixes and a prefix machine, every mixture X of their
point masses assigns each sequence a deficiency value; the weighted average
of those values never exceeds the machine's output mass, so at every mixture
some supported sequence scores at most 1.  Labelling a simplicial grid by
the smallest such index satisfies Sperner's boundary condition, and a fully
labelled cell of the Kuhn subdivision is an exactly certified finite stand-in
for a neutral measure.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Callable, Iterator, Sequence

from .exact import _common_denominator
from .machines import PrefixMachine
from .measures import CapabilityError, validate_bits

__all__ = [
    "MAX_KUHN_CHAINS",
    "NeutralInvariantError",
    "PointMixture",
    "SpernerCell",
    "sperner_search",
]


#: Most Kuhn chains a search may try: C(m+k-1, k-1) grid points for k
#: sequences at resolution m, times (k-1)! orderings at each.  Three
#: sequences at m = 48 try 2 450; four at m = 48 try 124 950.
MAX_KUHN_CHAINS = 2 ** 17


class NeutralInvariantError(AssertionError):
    """No admissible label at a grid point: the machine mass must exceed 1."""


@dataclass(frozen=True)
class PointMixture:
    """Barycentric weights over the point masses of the input sequences."""

    weights: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "weights", tuple(Fraction(w) for w in self.weights)
        )
        if any(w < 0 for w in self.weights):
            raise ValueError("mixture weights must be nonnegative")
        if sum(self.weights) != 1:
            raise ValueError("mixture weights must sum to 1 exactly")

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, w in enumerate(self.weights) if w > 0)


@dataclass
class SpernerCell:
    """A fully labelled cell: vertex i carries label `labels[i]`, and the
    sequence with that index scores at most 1 at that vertex (`values[i]`)."""

    vertices: tuple[PointMixture, ...]
    labels: tuple[int, ...]
    values: tuple[Fraction, ...]
    diameter: Fraction


def _grid_points(k: int, m: int) -> Iterator[tuple[int, ...]]:
    """Integer barycentric points, nonnegative k-tuples summing to m, in sorted order."""
    if k == 1:
        yield (m,)
        return
    for first in range(m + 1):
        for rest in _grid_points(k - 1, m - first):
            yield (first, *rest)


def _kuhn_cells(base: tuple[int, ...], moves: list[tuple[int, ...]]) -> Iterator[list[tuple[int, ...]]]:
    """Kuhn-subdivision cells anchored at `base`: each permutation in `moves`
    of the unit transfers coordinate i -> i+1 yields a chain of k vertices;
    only chains staying nonnegative are cells."""
    for perm in moves:
        chain = [base]
        for move in perm:
            nxt = list(chain[-1])
            if not nxt[move]:
                break
            nxt[move] -= 1
            nxt[move + 1] += 1
            chain.append(tuple(nxt))
        else:
            yield chain


def _labeller(
    sequences: Sequence[str], machine: PrefixMachine, depth: int, m: int
) -> Callable[[tuple[int, ...]], tuple[int, int, int]]:
    """The Sperner label of a grid point (counts c summing to m) and its value,
    as integers `(label, num, den)`: the smallest supported i whose
    deficiency num/den, the sum over the prefixes of sequence i up to
    `depth` of machine mass over mixture mass, is at most 1.

    Every prefix x of sequence i with machine mass lies in the cylinders of
    the sequences sharing x, a set S that always holds i.  Grouping the
    masses by S, the deficiency at c is (m / D) * sum_S a_S / c(S) with
    integers a_S over one denominator D and c(S) = sum of c_j over S, which
    is positive when c_i is; so `<= 1` is one integer comparison, and the
    caller builds a `Fraction` only for the values it reports.
    """
    mass = machine.output_mass()
    heads = [omega[:depth] for omega in sequences]
    terms = []
    for head in heads:
        groups: dict[tuple[int, ...], Fraction] = {}
        for length in range(depth + 1):
            x = head[:length]
            w = mass.get(x)
            if w:
                sharing = tuple(j for j, h in enumerate(heads) if h.startswith(x))
                groups[sharing] = groups.get(sharing, 0) + w
        nums, den = _common_denominator(groups.values())
        terms.append((den, list(zip(groups, nums))))

    def label_of(point: tuple[int, ...]) -> tuple[int, int, int]:
        for i, (den, groups) in enumerate(terms):
            if not point[i]:
                continue
            num, div = 0, 1
            for sharing, a in groups:
                total = sum(map(point.__getitem__, sharing))
                num, div = num * total + a * div, div * total
            if m * num <= den * div:
                return i, m * num, den * div
        raise NeutralInvariantError(
            f"no admissible label at grid point {point}: "
            "machine output mass exceeds 1"
        )

    return label_of


def sperner_search(
    sequences: Sequence[str],
    machine: PrefixMachine,
    depth: int,
    resolution: int,
) -> SpernerCell:
    """Scan the Kuhn subdivision at grid step 1/resolution for a fully
    labelled cell; Sperner's lemma guarantees one exists.

    Each grid point is labelled with the smallest supported index whose
    deficiency there is at most 1.  Every label reads the machine's output
    mass from the one table that :meth:`PrefixMachine.output_mass` keeps, so
    a search builds it at most once.  The admissibility of that rule is
    exactly the machine's output-mass budget; if it ever fails,
    :class:`NeutralInvariantError` is raised.
    """
    k = len(sequences)
    if k < 1:
        raise ValueError("need at least one sequence")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if resolution < 1:
        raise ValueError("resolution must be positive")
    chains = comb(resolution + k - 1, k - 1) * factorial(k - 1)
    if chains > MAX_KUHN_CHAINS:
        raise CapabilityError(
            f"Sperner search capped at {MAX_KUHN_CHAINS} Kuhn chains, "
            f"got {chains} for {k} sequences at resolution {resolution}"
        )
    for omega in sequences:
        validate_bits(omega)
        if len(omega) < depth:
            raise ValueError("every sequence must be at least `depth` long")
    heads = [omega[:depth] for omega in sequences]
    if len(set(heads)) != k:
        raise ValueError("sequences must be pairwise distinct on their first `depth` bits")

    m = resolution
    label_of = _labeller(sequences, machine, depth, m)

    def to_mixture(point: tuple[int, ...]) -> PointMixture:
        return PointMixture(tuple(Fraction(c, m) for c in point))

    labels: dict[tuple[int, ...], tuple[int, int, int]] = {}
    everyone = set(range(k))
    moves = list(itertools.permutations(range(k - 1)))
    diameter_bound = Fraction(2 * (k - 1), m)
    for base in _grid_points(k, m):
        for chain in _kuhn_cells(base, moves):
            seen = []
            for v in chain:
                if v not in labels:
                    labels[v] = label_of(v)
                seen.append(labels[v])
            if {idx for idx, _, _ in seen} == everyone:
                return SpernerCell(
                    vertices=tuple(to_mixture(v) for v in chain),
                    labels=tuple(idx for idx, _, _ in seen),
                    values=tuple(Fraction(num, den) for _, num, den in seen),
                    diameter=diameter_bound,
                )
    raise NeutralInvariantError(
        "no fully labelled cell found; the labelling violates Sperner's "
        "boundary condition, which cannot happen for a valid machine"
    )
