"""Exact measures on the binary Cantor space, truncated at an explicit depth.

A finite word over {0,1} is a plain `str` of '0'/'1' characters; the empty
word is `""`.  Words appear only where text is read or written.  Inside,
every prefix table is stored a level at a time: level k is a list of the
2^k words of length k in word order, so the word whose bits, read as a
binary number, equal i sits at index i.  A :class:`DyadicMeasure` keeps
integer numerators `nums[k][i]` over one denominator `dens[k]` per level,
with mass("") = 1 and mass(x) = mass(x0) + mass(x1) at every interior
prefix; `randtests.ExtendedTest` keeps its values the same way.  The
kernels read these rows directly and decide every (in)equality by integer
arithmetic.  Frequency statistics (sliding block averages and their
upcrossing counts) live here too, since they are functions of words and
masses only.

Every whole-tree walk of the package is one of two here: `fill_down`
builds each level from the one above it, `fold_up` each level from the one
below it.  `prefixes` and `all_words` list the words for the text
boundary.  All four refuse a depth above `MAX_DEPTH` with a
:class:`CapabilityError` before they build a single level.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Iterator, Mapping, Sequence, TypeVar, Union

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
    if word.strip("01"):
        raise ValueError(f"not a binary word: {word!r}")
    return word


def _capped(depth: int) -> int:
    if depth > MAX_DEPTH:
        raise CapabilityError(f"prefix tables are capped at depth {MAX_DEPTH}, got {depth}")
    return depth


# Word <-> position helpers.  They stay private: a public name would get a
# span per word from the benchmark's tracer.

def _words(length: int) -> list[str]:
    return ["".join(bits) for bits in itertools.product("01", repeat=length)]


def _word(i: int, length: int) -> str:
    return format(i, f"0{length}b") if length else ""


def _index(word: str) -> int:
    """Position of a word already checked to be binary (`int` alone would take `_`, `0b`, spaces)."""
    return int(word, 2) if word else 0


def _doubled(row: Sequence[V]) -> list[V]:
    """The next level down with every child holding its parent's entry."""
    child = [row[0]] * (2 * len(row))
    child[0::2] = row
    child[1::2] = row
    return child


def _rescaled(row: list[int], den: int, target: int) -> list[int]:
    """Numerators of row/den over `target`, a multiple of `den`."""
    return row if den == target else [v * (target // den) for v in row]


def _integer_levels(levels: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], list[int]]:
    """Rational levels as integer numerators over each level's lcm denominator."""
    nums, dens = [], []
    for level in levels:
        den = lcm(*(v.denominator for v in level))
        nums.append([v.numerator * (den // v.denominator) for v in level])
        dens.append(den)
    return nums, dens


def all_words(length: int) -> list[str]:
    """All binary words of the given length, in lexicographic order."""
    return _words(_capped(length))


def prefixes(depth: int) -> Iterator[str]:
    """Every word up to `depth`, shorter first, each length in word order, a level at a time."""
    return (x for length in range(_capped(depth) + 1) for x in _words(length))


def fill_down(depth: int, root: V, step: Callable[[list[V], int], list[V]]) -> list[list[V]]:
    """Levels 0..depth top-down: level 0 is [root], level k is step(level k-1, k)."""
    levels = [[root]]
    for length in range(1, _capped(depth) + 1):
        levels.append(step(levels[-1], length))
    return levels


def fold_up(leaves: list[V], combine: Callable[[V, V], V]) -> list[list[V]]:
    """Levels 0..depth bottom-up from a leaf row of 2^depth entries (kept as the
    last level): entry i of a level is combine(entry 2i, entry 2i+1) below."""
    size = len(leaves)
    if not size or size & (size - 1):
        raise ValueError(f"a leaf row holds 2^depth entries, got {size}")
    levels = [leaves]
    for _ in range(_capped(size.bit_length() - 1)):
        below = levels[-1]
        levels.append(list(map(combine, below[0::2], below[1::2])))
    levels.reverse()
    return levels


class DyadicMeasure:
    """Rational masses on all prefixes up to `depth`, Kolmogorov-consistent.

    Level k is `nums[k]` over `dens[k]`, in word order.  Instances are
    immutable after construction.  Construction from a prefix -> mass
    mapping validates the three axioms (mass("") = 1, additivity, masses
    in [0, 1]) and raises :class:`MeasureError` naming the first offending
    prefix.
    """

    __slots__ = ("depth", "nums", "dens")

    def __init__(self, depth: int, mass: Mapping[str, Fraction], validate: bool = True):
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        levels: list[list[Fraction]] = [[] for _ in range(_capped(depth) + 1)]
        for x in prefixes(depth):
            if x not in mass:
                raise MeasureError(f"missing mass for prefix {x!r}", x)
            v = Fraction(mass[x])
            if validate and not 0 <= v <= 1:
                raise MeasureError(f"mass out of [0,1] at prefix {x!r}", x)
            levels[len(x)].append(v)
        self.depth = depth
        self.nums, self.dens = _integer_levels(levels)
        if validate:
            err = self.check()
            if err is not None:
                raise MeasureError(*err)

    @classmethod
    def _of_levels(cls, nums: list[list[int]], dens: list[int]) -> "DyadicMeasure":
        measure = object.__new__(cls)
        measure.depth = len(nums) - 1
        measure.nums, measure.dens = nums, dens
        return measure

    def check(self) -> tuple[str, str] | None:
        """Return (message, prefix) for the first violated axiom, else None."""
        return self._bounds_error() or self._additivity_error()

    def _bounds_error(self) -> tuple[str, str] | None:
        for length, (row, den) in enumerate(zip(self.nums, self.dens)):
            if min(row) < 0 or max(row) > den:
                i = next(i for i, v in enumerate(row) if not 0 <= v <= den)
                x = _word(i, length)
                return (f"mass out of [0,1] at prefix {x!r}", x)
        if self.nums[0][0] != self.dens[0]:
            return ("mass of the empty word must be 1", "")
        return None

    def _additivity_error(self) -> tuple[str, str] | None:
        for length in range(self.depth):
            below = self.nums[length + 1]
            den = lcm(self.dens[length], self.dens[length + 1])
            sums = _rescaled(list(map(operator.add, below[0::2], below[1::2])), self.dens[length + 1], den)
            bad = list(map(operator.ne, _rescaled(self.nums[length], self.dens[length], den), sums))
            if True in bad:
                x = _word(bad.index(True), length)
                return (f"additivity fails at prefix {x!r}", x)
        return None

    @classmethod
    def from_leaves(cls, depth: int, leaves: Mapping[str, Fraction]) -> "DyadicMeasure":
        """Build a table from level-`depth` masses, deriving interior masses.

        Entries that are not binary words of length `depth` are ignored.
        """
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        row = [0] * (1 << _capped(depth))
        given = {x: Fraction(v) for x, v in leaves.items() if len(x) == depth and not x.strip("01")}
        den = lcm(*(v.denominator for v in given.values()))
        for x, v in given.items():
            row[_index(x)] = v.numerator * (den // v.denominator)
        measure = cls._of_levels(fold_up(row, operator.add), [den] * (depth + 1))
        err = measure._bounds_error()
        if err is not None:
            raise MeasureError(*err)
        return measure

    def mass(self, x: str) -> Fraction:
        if len(x) > self.depth:
            raise ValueError(f"prefix {x!r} deeper than table depth {self.depth}")
        validate_bits(x)
        return Fraction(self.nums[len(x)][_index(x)], self.dens[len(x)])

    def level(self, length: int) -> Iterator[tuple[str, Fraction]]:
        """(word, mass) pairs at one level, in lexicographic order."""
        if not 0 <= length <= self.depth:
            raise ValueError("level out of range")
        den = self.dens[length]
        for x, v in zip(_words(length), self.nums[length]):
            yield x, Fraction(v, den)

    def truncated(self, depth: int) -> "DyadicMeasure":
        if depth > self.depth:
            raise ValueError("cannot deepen a table by truncation")
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        return DyadicMeasure._of_levels(self.nums[: depth + 1], self.dens[: depth + 1])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DyadicMeasure)
            and self.depth == other.depth
            and all(
                [v * db for v in a] == [v * da for v in b]
                for a, da, b, db in zip(self.nums, self.dens, other.nums, other.dens)
            )
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
    """Expand a spec into its depth-truncated mass table.

    Bernoulli(a/b) has numerators (b-a)^zeros a^ones over b^k at level k; a
    mixture puts each level over the lcm of (weight denominator x part
    denominator).
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if isinstance(spec, Bernoulli):
        a, b = spec.p.numerator, spec.p.denominator

        def step(parent: list[int], length: int) -> list[int]:
            child = [0] * (2 * len(parent))
            child[0::2] = [v * (b - a) for v in parent]
            child[1::2] = [v * a for v in parent]
            return child

        return DyadicMeasure._of_levels(fill_down(depth, 1, step), [b ** k for k in range(depth + 1)])
    if isinstance(spec, Table):
        if depth > spec.measure.depth:
            raise ValueError(
                f"table of depth {spec.measure.depth} cannot realize depth {depth}"
            )
        return spec.measure.truncated(depth)
    if isinstance(spec, Mixture):
        parts = [realize(part, depth) for part in spec.parts]
        nums, dens = [], []
        for length in range(depth + 1):
            scales = [w.denominator * part.dens[length] for w, part in zip(spec.weights, parts)]
            den = lcm(*scales)
            row = [0] * (1 << length)
            for w, part, scale in zip(spec.weights, parts, scales):
                factor = w.numerator * (den // scale)
                row = list(map(operator.add, row, [v * factor for v in part.nums[length]]))
            nums.append(row)
            dens.append(den)
        return DyadicMeasure._of_levels(nums, dens)
    raise TypeError(f"not a measure spec: {spec!r}")


def point_mass(omega_prefix: str, depth: int) -> DyadicMeasure:
    """The measure concentrated on all extensions of the given prefix."""
    validate_bits(omega_prefix)
    if len(omega_prefix) < depth:
        raise ValueError(
            f"prefix of length {len(omega_prefix)} too short for depth {depth}"
        )
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    nums = [[0] * (1 << length) for length in range(_capped(depth) + 1)]
    for length, row in enumerate(nums):
        row[_index(omega_prefix[:length])] = 1
    return DyadicMeasure._of_levels(nums, [1] * (depth + 1))


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
