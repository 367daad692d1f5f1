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
from typing import Sequence

from .exact import Ext, INF, div_ratio
from .machines import PrefixMachine
from .measures import validate_bits

__all__ = [
    "NeutralInvariantError",
    "PointMixture",
    "SpernerCell",
    "mixture_deficiency",
    "sperner_search",
]


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


def mixture_deficiency(
    weights: PointMixture | Sequence[Fraction],
    sequences: Sequence[str],
    i: int,
    machine: PrefixMachine,
    depth: int,
) -> Ext:
    """Deficiency of sequence i against the mixture: the sum over its
    prefixes (up to `depth`) of machine mass divided by mixture mass.

    Infinite as soon as some prefix of sequence i has machine mass but no
    mixture mass.
    """
    mix = weights if isinstance(weights, PointMixture) else PointMixture(tuple(weights))
    if not 0 <= i < len(sequences):
        raise ValueError("sequence index out of range")
    if len(mix.weights) != len(sequences):
        raise ValueError("one weight per sequence required")
    for omega in sequences:
        validate_bits(omega)
        if len(omega) < depth:
            raise ValueError("every sequence must be at least `depth` long")
    mass = machine.output_mass()
    omega_i = sequences[i]
    total: Ext = Fraction(0)
    for length in range(depth + 1):
        x = omega_i[:length]
        m = mass.get(x, Fraction(0))
        if m == 0:
            continue
        mix_mass = sum(
            (w for w, omega in zip(mix.weights, sequences) if omega.startswith(x)),
            Fraction(0),
        )
        ratio, _ = div_ratio(m, mix_mass)
        total = total + ratio
    return total


def _grid_points(k: int, m: int) -> list[tuple[int, ...]]:
    """Integer barycentric points: nonnegative k-tuples summing to m."""
    points = []
    for combo in itertools.combinations_with_replacement(range(k), m):
        counts = [0] * k
        for idx in combo:
            counts[idx] += 1
        points.append(tuple(counts))
    return sorted(points)


def _kuhn_cells(base: tuple[int, ...], m: int) -> list[list[tuple[int, ...]]]:
    """Kuhn-subdivision cells anchored at `base`: each permutation of the
    unit transfers coordinate i -> i+1 yields a chain of k vertices; only
    chains staying nonnegative are cells."""
    k = len(base)
    cells = []
    for perm in itertools.permutations(range(k - 1)):
        chain = [base]
        good = True
        for move in perm:
            prev = chain[-1]
            nxt = list(prev)
            nxt[move] -= 1
            nxt[move + 1] += 1
            if nxt[move] < 0:
                good = False
                break
            chain.append(tuple(nxt))
        if good:
            cells.append(chain)
    return cells


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
    if resolution < 1:
        raise ValueError("resolution must be positive")
    for omega in sequences:
        validate_bits(omega)
        if len(omega) < depth:
            raise ValueError("every sequence must be at least `depth` long")
    heads = [omega[:depth] for omega in sequences]
    if len(set(heads)) != k:
        raise ValueError("sequences must be pairwise distinct on their first `depth` bits")

    m = resolution

    def to_mixture(point: tuple[int, ...]) -> PointMixture:
        return PointMixture(tuple(Fraction(c, m) for c in point))

    labels: dict[tuple[int, ...], tuple[int, Fraction]] = {}

    def label_of(point: tuple[int, ...]) -> tuple[int, Fraction]:
        if point not in labels:
            mix = to_mixture(point)
            for i in mix.support():
                value = mixture_deficiency(mix, sequences, i, machine, depth)
                if value is not INF and value <= 1:
                    labels[point] = (i, value)
                    break
            else:
                raise NeutralInvariantError(
                    f"no admissible label at grid point {point}: "
                    "machine output mass exceeds 1"
                )
        return labels[point]

    if k == 1:
        point = (m,)
        idx, value = label_of(point)
        return SpernerCell(
            vertices=(to_mixture(point),),
            labels=(idx,),
            values=(value,),
            diameter=Fraction(0),
        )

    diameter_bound = Fraction(2 * (k - 1), m)
    for base in _grid_points(k, m):
        for chain in _kuhn_cells(base, m):
            seen = [label_of(v) for v in chain]
            if {idx for idx, _ in seen} == set(range(k)):
                return SpernerCell(
                    vertices=tuple(to_mixture(v) for v in chain),
                    labels=tuple(idx for idx, _ in seen),
                    values=tuple(value for _, value in seen),
                    diameter=diameter_bound,
                )
    raise NeutralInvariantError(
        "no fully labelled cell found; the labelling violates Sperner's "
        "boundary condition, which cannot happen for a valid machine"
    )
