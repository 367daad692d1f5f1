"""Exact measures on the binary Cantor space, truncated at an explicit depth.

A finite word over {0,1} is represented as a plain `str` of '0'/'1'
characters; the empty word is `""`.  A measure is stored as a table of
rational masses on every prefix up to its depth, with mass("") = 1 and
mass(x) = mass(x0) + mass(x1) at every interior prefix.  Frequency
statistics (sliding block averages and their upcrossing counts) live here
too, since they are functions of words and masses only.

Every whole-tree walk of the package is one of three here: `prefixes`
lists the prefixes, `fill_down` fills a table from the root down, `fold_up`
from the leaves up.  They and `all_words` refuse a depth above `MAX_DEPTH`
with a :class:`CapabilityError` before they build a single word.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Mapping, TypeVar, Union

__all__ = [
    "MAX_DEPTH",
    "CapabilityError",
    "MeasureError",
    "validate_bits",
    "all_words",
    "prefixes",
    "fill_down",
    "fold_up",
    "DyadicMeasure",
    "Bernoulli",
    "Table",
    "Mixture",
    "MeasureSpec",
    "bernoulli_mass",
    "realize",
    "point_mass",
    "block_frequency",
    "count_upcrossings",
    "shipped_measure_specs",
]


#: Deepest prefix table any walk builds: 2^17 - 1 prefixes.
MAX_DEPTH = 16

V = TypeVar("V")


class CapabilityError(ValueError):
    """The requested instance exceeds a documented enumeration cap."""


class MeasureError(ValueError):
    """A measure table violates an axiom; `prefix` names the offender."""

    def __init__(self, message: str, prefix: str | None = None):
        super().__init__(message)
        self.prefix = prefix


def validate_bits(word: str) -> str:
    if any(c not in "01" for c in word):
        raise ValueError(f"not a binary word: {word!r}")
    return word


def _capped(depth: int) -> int:
    if depth > MAX_DEPTH:
        raise CapabilityError(f"prefix tables are capped at depth {MAX_DEPTH}, got {depth}")
    return depth


def all_words(length: int) -> list[str]:
    """All binary words of the given length, in lexicographic order."""
    return ["".join(bits) for bits in itertools.product("01", repeat=_capped(length))]


def prefixes(depth: int) -> Iterator[str]:
    """Every word up to `depth`, shorter first, each length in word order, a level at a time."""
    return (x for length in range(_capped(depth) + 1) for x in all_words(length))


def fill_down(depth: int, root: V, step: Callable[[V, str], V]) -> dict[str, V]:
    """Top-down in `prefixes` order: table[""] = root, table[child] = step(table[parent], child)."""
    table = {"": root}
    for x in prefixes(_capped(depth) - 1):
        value = table[x]
        table[x + "0"] = step(value, x + "0")
        table[x + "1"] = step(value, x + "1")
    return table


def fold_up(leaves: Mapping[str, V], depth: int, combine: Callable[[V, V], V]) -> dict[str, V]:
    """Bottom-up table over the level-`depth` leaves: table[x] = combine(table[x0], table[x1])."""
    table = dict(leaves)
    for length in range(depth - 1, -1, -1):
        for x in all_words(length):
            table[x] = combine(table[x + "0"], table[x + "1"])
    return table


class DyadicMeasure:
    """Rational masses on all prefixes up to `depth`, Kolmogorov-consistent.

    Instances are immutable after construction.  Construction validates the
    three axioms (mass("") = 1, additivity, masses in [0, 1]) and raises
    :class:`MeasureError` naming the first offending prefix.
    """

    __slots__ = ("depth", "_mass")

    def __init__(self, depth: int, mass: Mapping[str, Fraction], validate: bool = True):
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        self.depth = depth
        self._mass = {x: Fraction(v) for x, v in mass.items()}
        if validate:
            err = self.check(self._mass, depth)
            if err is not None:
                raise MeasureError(*err)

    @staticmethod
    def check(mass: Mapping[str, Fraction], depth: int) -> tuple[str, str] | None:
        """Return (message, prefix) for the first violated axiom, else None."""
        for x in prefixes(depth):
            if x not in mass:
                return (f"missing mass for prefix {x!r}", x)
            if not 0 <= mass[x] <= 1:
                return (f"mass out of [0,1] at prefix {x!r}", x)
        if mass[""] != 1:
            return ("mass of the empty word must be 1", "")
        for x in prefixes(depth - 1):
            if mass[x] != mass[x + "0"] + mass[x + "1"]:
                return (f"additivity fails at prefix {x!r}", x)
        return None

    @classmethod
    def from_leaves(cls, depth: int, leaves: Mapping[str, Fraction]) -> "DyadicMeasure":
        """Build a table from level-`depth` masses, deriving interior masses."""
        mass = {x: Fraction(leaves.get(x, 0)) for x in all_words(depth)}
        return cls(depth, fold_up(mass, depth, operator.add))

    def mass(self, x: str) -> Fraction:
        if len(x) > self.depth:
            raise ValueError(f"prefix {x!r} deeper than table depth {self.depth}")
        try:
            return self._mass[x]
        except KeyError:
            raise ValueError(f"not a binary word: {x!r}") from None

    def level(self, length: int) -> Iterator[tuple[str, Fraction]]:
        """(word, mass) pairs at one level, in lexicographic order."""
        if not 0 <= length <= self.depth:
            raise ValueError("level out of range")
        for x in all_words(length):
            yield x, self._mass[x]

    def truncated(self, depth: int) -> "DyadicMeasure":
        if depth > self.depth:
            raise ValueError("cannot deepen a table by truncation")
        keep = {x: v for x, v in self._mass.items() if len(x) <= depth}
        return DyadicMeasure(depth, keep, validate=False)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DyadicMeasure)
            and self.depth == other.depth
            and self._mass == other._mass
        )

    def __repr__(self) -> str:
        return f"DyadicMeasure(depth={self.depth})"


@dataclass(frozen=True)
class Bernoulli:
    """Independent tosses of a coin with success probability p."""

    p: Fraction

    def __post_init__(self):
        object.__setattr__(self, "p", Fraction(self.p))
        if not 0 <= self.p <= 1:
            raise ValueError(f"Bernoulli parameter {self.p} outside [0,1]")


@dataclass(frozen=True)
class Table:
    measure: DyadicMeasure


@dataclass(frozen=True)
class Mixture:
    """Convex combination of component specs; weights are positive, sum 1."""

    weights: tuple[Fraction, ...]
    parts: tuple["MeasureSpec", ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(Fraction(w) for w in self.weights))
        object.__setattr__(self, "parts", tuple(self.parts))
        if len(self.weights) != len(self.parts) or not self.parts:
            raise ValueError("mixture needs matching, nonempty weights and parts")
        if any(w <= 0 for w in self.weights):
            raise ValueError("mixture weights must be positive")
        if sum(self.weights) != 1:
            raise ValueError("mixture weights must sum to 1 exactly")


MeasureSpec = Union[Bernoulli, Table, Mixture]


def bernoulli_mass(p: Fraction, x: str) -> Fraction:
    """p^(#ones in x) * (1-p)^(#zeros in x), exactly."""
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError(f"Bernoulli parameter {p} outside [0,1]")
    validate_bits(x)
    ones = x.count("1")
    return p ** ones * (1 - p) ** (len(x) - ones)


def realize(spec: MeasureSpec, depth: int) -> DyadicMeasure:
    """Expand a spec into its depth-truncated mass table."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if isinstance(spec, Bernoulli):
        p, q = spec.p, 1 - spec.p
        mass = fill_down(depth, Fraction(1), lambda m, x: m * (p if x[-1] == "1" else q))
        return DyadicMeasure(depth, mass, validate=False)
    if isinstance(spec, Table):
        if depth > spec.measure.depth:
            raise ValueError(
                f"table of depth {spec.measure.depth} cannot realize depth {depth}"
            )
        return spec.measure.truncated(depth)
    if isinstance(spec, Mixture):
        parts = [realize(part, depth) for part in spec.parts]
        mass = {
            x: sum((w * part.mass(x) for w, part in zip(spec.weights, parts)), Fraction(0))
            for x in prefixes(depth)
        }
        return DyadicMeasure(depth, mass, validate=False)
    raise TypeError(f"not a measure spec: {spec!r}")


def point_mass(omega_prefix: str, depth: int) -> DyadicMeasure:
    """The measure concentrated on all extensions of the given prefix."""
    validate_bits(omega_prefix)
    if len(omega_prefix) < depth:
        raise ValueError(
            f"prefix of length {len(omega_prefix)} too short for depth {depth}"
        )
    mass = {x: Fraction(omega_prefix.startswith(x)) for x in prefixes(depth)}
    return DyadicMeasure(depth, mass, validate=False)


def block_frequency(omega: str, x: str, n: int) -> Fraction:
    """Sliding average: fraction of the first n shifts of omega starting with x."""
    validate_bits(omega)
    validate_bits(x)
    if n < 1:
        raise ValueError("need at least one shift")
    if len(omega) < n + len(x) - 1:
        raise ValueError(
            f"word of length {len(omega)} too short for {n} shifts of a "
            f"length-{len(x)} block"
        )
    hits = sum(1 for i in range(n) if omega[i : i + len(x)] == x)
    return Fraction(hits, n)


def count_upcrossings(omega: str, x: str, alpha: Fraction, beta: Fraction) -> int:
    """Completed strict upcrossings of (alpha, beta) by n -> block_frequency(omega, x, n).

    A crossing is counted when a value strictly below alpha is later followed
    by a value strictly above beta, with no completed crossing in between.
    One pass: the hit count of the first n shifts is kept running, and
    hits/n is compared with the thresholds by integer cross-multiplication.
    """
    alpha, beta = Fraction(alpha), Fraction(beta)
    if not 0 < alpha < beta:
        raise ValueError("need 0 < alpha < beta")
    validate_bits(omega)
    validate_bits(x)
    n_max = len(omega) - len(x) + 1
    if n_max < 1:
        raise ValueError("word too short for a single block average")
    a_num, a_den = alpha.numerator, alpha.denominator
    b_num, b_den = beta.numerator, beta.denominator
    count = 0
    hits = 0
    armed = False
    for n in range(1, n_max + 1):
        hits += omega.startswith(x, n - 1)
        if not armed:
            if hits * a_den < a_num * n:
                armed = True
        elif hits * b_den > b_num * n:
            count += 1
            armed = False
    return count


def shipped_measure_specs() -> dict[str, MeasureSpec]:
    """The demonstration measures exercised by the acceptance suite."""
    half = Fraction(1, 2)
    exchangeable = DyadicMeasure.from_leaves(
        2,
        {
            "00": Fraction(1, 6),
            "01": Fraction(1, 3),
            "10": Fraction(1, 3),
            "11": Fraction(1, 6),
        },
    )
    return {
        "uniform": Bernoulli(half),
        "third": Bernoulli(Fraction(1, 3)),
        "zero": Bernoulli(Fraction(0)),
        "one": Bernoulli(Fraction(1)),
        "quarter": Bernoulli(Fraction(1, 4)),
        "endpoint-mix": Mixture(
            (half, half), (Bernoulli(Fraction(0)), Bernoulli(Fraction(1)))
        ),
        "biased-mix": Mixture(
            (Fraction(1, 3), Fraction(2, 3)),
            (Bernoulli(Fraction(1, 4)), Bernoulli(Fraction(3, 4))),
        ),
        "exchangeable-table": Table(exchangeable),
    }
