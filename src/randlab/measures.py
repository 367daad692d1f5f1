"""Exact measures on the binary Cantor space, truncated at an explicit depth.

A finite word over {0,1} is a plain `str` of '0'/'1' characters; the empty
word is `""`.  Words appear only where text is read or written.  Inside,
every prefix table is stored a level at a time: level k is a list of the
2^k words of length k in word order, so the word whose bits, read as a
binary number, equal i sits at index i.  Measures and tests share one
table type: integer numerators `nums[k][i]` over one denominator `den` for
the whole table, so rows of different levels compare as they stand.  A
:class:`DyadicMeasure` has mass("") = 1 and mass(x) = mass(x0) + mass(x1)
at every interior prefix; `randtests.ExtendedTest` has nonnegative values.
A word -> value mapping becomes a table once, in its constructor; past
that, the kernels take and return these level rows only, read them
directly and decide every (in)equality by integer arithmetic.  `realize`
fixes a spec's one denominator, capped, before it builds a row; every
measure it or `from_leaves` builds is one leaf row summed up the tree by
`fold_up`, and a table spec is only cut to depth.
Frequency statistics (sliding block averages and their upcrossing counts)
live here too, since they are functions of words and masses only.

Every whole-tree walk of the package is one of three here: `fill_down`
builds each level from the one above it, `fold_up` each level from the one
below it, and a table read from a word -> value mapping reads it a level of
words at a time, refusing there only a missing word; the table's other
axioms are checked on its rows.  All of them refuse a depth above
`MAX_DEPTH` with a :class:`CapabilityError` before they build a single
level.
"""
from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm, prod
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar, Union

from .exact import CapabilityError, _common_denominator

__all__ = [
    "MAX_DEPTH",
    "MAX_TABLE_BITS",
    "CapabilityError",
    "MeasureError",
    "validate_bits",
    "all_words",
    "prefixes",
    "fill_down",
    "fold_up",
    "DyadicMeasure",
    "Bernoulli",
    "Mixture",
    "MeasureSpec",
    "realize",
    "class_masses",
    "block_frequency",
    "count_upcrossings",
]


#: Deepest prefix table any walk builds: 2^17 - 1 prefixes.
MAX_DEPTH = 16
#: Most bits a realized measure table may span, counted as its 2^(depth+1)
#: entries times the bit length of its one denominator: 512 bits at depth
#: 16 (a coin b^16 with b < 2^32), 2^14 at depth 11.
MAX_TABLE_BITS = 2 ** 26

V = TypeVar("V")


class MeasureError(ValueError):
    """A measure table violates an axiom; `prefix` names the offender."""

    def __init__(self, message: str, prefix: str | None = None):
        super().__init__(message)
        self.prefix = prefix


def validate_bits(word: str) -> str:
    if word.strip("01"):
        raise ValueError(f"not a binary word: {word!r}")
    return word


def _sized(depth: int, den: int) -> int:
    """`den` itself, refused when a depth-`depth` table over it would pass
    `MAX_TABLE_BITS`; `depth` is already capped."""
    bits = (2 << depth) * den.bit_length()
    if bits > MAX_TABLE_BITS:
        raise CapabilityError(f"measure tables are capped at {MAX_TABLE_BITS} bits (2^(depth+1) entries "
                              f"times the denominator's bit length), got {bits} at depth {depth}")
    return den


def _capped(depth: int) -> int:
    """`depth` itself, refused past the cap, and refused when negative with a
    plain ValueError, which a test file reports as a bad file."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if depth > MAX_DEPTH:
        raise CapabilityError(f"prefix tables are capped at depth {MAX_DEPTH}, got {depth}")
    return depth


# Word <-> position helpers.  They stay private: a public name would get a
# span per word from the benchmark's tracer.

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


def _next_words(words: list[str]) -> list[str]:
    """The words one bit longer than a level's words, in word order: one
    concatenation per word."""
    return list(map(operator.add, _doubled(words), itertools.cycle("01")))


def _word_levels(depth: int) -> Iterator[list[str]]:
    """The words of each length 0..depth (none when depth is negative), each
    level built from the one above."""
    words = [""]
    for length in range(depth + 1):
        if length:
            words = _next_words(words)
        yield words


# Entrywise combinations of two rows of equal length, for `fold_up` and the
# closures: a comparison per entry instead of a call to `min`/`max`, and on
# ties the entry of the first row, as `min`/`max` keep their first argument.

def _sums(a: Sequence[V], b: Iterable[V]) -> list[V]:
    return list(map(operator.add, a, b))


def _minima(a: Sequence[V], b: Iterable[V]) -> list[V]:
    return [y if y < x else x for x, y in zip(a, b)]


def _maxima(a: Sequence[V], b: Iterable[V]) -> list[V]:
    return [y if y > x else x for x, y in zip(a, b)]


def all_words(length: int) -> list[str]:
    """All binary words of the given length, in lexicographic order."""
    words = [""]
    for _ in range(_capped(length)):
        words = _next_words(words)
    return words


def prefixes(depth: int) -> Iterator[str]:
    """Every word up to `depth`, shorter first, each length in word order, a
    level at a time; none when `depth` is negative."""
    return itertools.chain.from_iterable(_word_levels(_capped(depth) if depth >= 0 else -1))


def fill_down(depth: int, root: V, step: Callable[[list[V], int], list[V]]) -> list[list[V]]:
    """Levels 0..depth top-down: level 0 is [root], level k is step(level k-1, k)."""
    levels = [[root]]
    for length in range(1, _capped(depth) + 1):
        levels.append(step(levels[-1], length))
    return levels


def fold_up(leaves: list[V], combine: Callable[[list[V], list[V]], list[V]]) -> list[list[V]]:
    """Levels 0..depth bottom-up from a leaf row of 2^depth entries (kept as the
    last level): a level is combine(even entries, odd entries) of the one
    below, an entrywise combination such as `_sums` or `_minima`."""
    size = len(leaves)
    if not size or size & (size - 1):
        raise ValueError(f"a leaf row holds 2^depth entries, got {size}")
    levels = [leaves]
    for _ in range(_capped(size.bit_length() - 1)):
        below = levels[-1]
        levels.append(combine(below[0::2], below[1::2]))
    levels.reverse()
    return levels


def _unbalanced_parents(nums: list[list], fails=operator.ne) -> Iterator[tuple]:
    """(length, index, parent, children's sum) of every interior prefix with
    fails(parent, sum), level by level in word order; the levels share one
    denominator.  Additivity of a measure is the martingale identity with
    g = 1."""
    for length in range(len(nums) - 1):
        parents, below = nums[length], nums[length + 1]
        sums = _sums(below[0::2], below[1::2])
        for i in itertools.compress(range(len(parents)), map(fails, parents, sums)):
            yield length, i, parents[i], sums[i]


class _PrefixTable:
    """Rational values on every prefix up to `depth`: level k is `nums[k]`
    over the table's one denominator `den`, in word order.  Instances are
    immutable after construction."""

    __slots__ = ("depth", "nums", "den")

    def _fill(self, depth: int, values: Mapping[str, Fraction], missing: Callable[[str], ValueError]) -> None:
        """Hold values[x] at every prefix x, all over one lcm, reading the
        mapping a level of words at a time; the first prefix it does not
        list is refused with missing(prefix).  The subclass checks the rows
        for the values it does not take."""
        rows = []
        for words in _word_levels(_capped(depth)):
            absent = next((x for x in words if x not in values), None)
            if absent is not None:
                raise missing(absent)
            rows.append([Fraction(values[x]) for x in words])
        nums, self.den = _common_denominator(itertools.chain.from_iterable(rows))
        self.depth = depth
        self.nums = [nums[(1 << length) - 1 : (2 << length) - 1] for length in range(depth + 1)]

    @classmethod
    def _of_levels(cls, nums: list[list[int]], den: int):
        table = object.__new__(cls)
        table.depth = len(nums) - 1
        table.nums, table.den = nums, den
        return table

    def _at(self, x: str) -> Fraction:
        """The value at a binary word no deeper than the table."""
        return Fraction(self.nums[len(x)][_index(x)], self.den)

    def truncated(self, depth: int):
        if depth > self.depth:
            raise ValueError("cannot deepen a table by truncation")
        return self._of_levels(self.nums[: _capped(depth) + 1], self.den)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(depth={self.depth})"


class DyadicMeasure(_PrefixTable):
    """Rational masses on all prefixes up to `depth`, Kolmogorov-consistent.

    Construction from a prefix -> mass mapping raises :class:`MeasureError`
    naming the first offending prefix, checking in this order: a missing
    prefix, then masses in [0, 1] and mass("") = 1, then additivity.
    """

    __slots__ = ()

    def __init__(self, depth: int, mass: Mapping[str, Fraction]):
        self._fill(depth, mass, lambda x: MeasureError(f"missing mass for prefix {x!r}", x))
        err = self.check()
        if err is not None:
            raise MeasureError(*err)

    def check(self) -> tuple[str, str] | None:
        """Return (message, prefix) for the first violated axiom, else None."""
        return self._bounds_error() or self._additivity_error()

    def _bounds_error(self) -> tuple[str, str] | None:
        den = self.den
        for length, row in enumerate(self.nums):
            if min(row) < 0 or max(row) > den:
                i = next(i for i, v in enumerate(row) if not 0 <= v <= den)
                x = _word(i, length)
                return (f"mass out of [0,1] at prefix {x!r}", x)
        if self.nums[0][0] != den:
            return ("mass of the empty word must be 1", "")
        return None

    def _additivity_error(self) -> tuple[str, str] | None:
        bad = next(_unbalanced_parents(self.nums), None)
        if bad is None:
            return None
        x = _word(bad[1], bad[0])
        return (f"additivity fails at prefix {x!r}", x)

    @classmethod
    def from_leaves(cls, depth: int, leaves: Mapping[str, Fraction]) -> "DyadicMeasure":
        """Build a table from level-`depth` masses (0 where unlisted),
        deriving interior masses.  Refuses an entry that is not a binary
        word of length `depth` with a ValueError naming it."""
        row = [0] * (1 << _capped(depth))
        for x in leaves:
            if len(validate_bits(x)) != depth:
                raise ValueError(f"leaf {x!r} is not at depth {depth}")
        scaled, den = _common_denominator(map(Fraction, leaves.values()))
        for x, v in zip(leaves, scaled):
            row[_index(x)] = v
        measure = cls._of_levels(fold_up(row, _sums), den)
        err = measure._bounds_error()
        if err is not None:
            raise MeasureError(*err)
        return measure

    def mass(self, x: str) -> Fraction:
        if len(x) > self.depth:
            raise ValueError(f"prefix {x!r} deeper than table depth {self.depth}")
        validate_bits(x)
        return self._at(x)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DyadicMeasure)
            and self.depth == other.depth
            and all(
                [v * other.den for v in a] == [v * self.den for v in b]
                for a, b in zip(self.nums, other.nums)
            )
        )


@dataclass(frozen=True)
class Bernoulli:
    """Independent tosses of a coin with success probability p."""

    p: Fraction

    def __post_init__(self):
        object.__setattr__(self, "p", Fraction(self.p))
        if not 0 <= self.p <= 1:
            raise ValueError(f"Bernoulli parameter {self.p} outside [0,1]")


@dataclass(frozen=True)
class Mixture:
    """Convex combination of coins and tables; weights are positive, sum 1.
    Built flat: an inner mixture's parts come in, weights multiplied, and a
    part object listed twice is one part, with the summed weight, where it first comes."""

    weights: tuple[Fraction, ...]
    parts: tuple["MeasureSpec", ...]

    def __post_init__(self):
        weights, parts = tuple(map(Fraction, self.weights)), tuple(self.parts)
        if len(weights) != len(parts) or not parts:
            raise ValueError("mixture needs matching, nonempty weights and parts")
        if any(w <= 0 for w in weights):
            raise ValueError("mixture weights must be positive")
        if sum(weights) != 1:
            raise ValueError("mixture weights must sum to 1 exactly")
        flat: dict[int, list] = {}  # id -> [part, weight]; an inner mixture is already flat
        for w, part in zip(weights, parts):
            for v, leaf in zip(part.weights, part.parts) if isinstance(part, Mixture) else ((1, part),):
                flat.setdefault(id(leaf), [leaf, 0])[1] += w * v
        object.__setattr__(self, "parts", tuple(leaf for leaf, _ in flat.values()))
        object.__setattr__(self, "weights", tuple(w for _, w in flat.values()))


MeasureSpec = Union[Bernoulli, DyadicMeasure, Mixture]


def _den(spec: MeasureSpec, depth: int) -> int:
    """The one denominator of a spec's level-`depth` row: b^depth for a coin
    a/b, a table's own, for a mixture the running lcm of (weight denominator
    x part denominator); each part's and then the lcm refused past the cap."""
    if isinstance(spec, Bernoulli):
        return _sized(depth, spec.p.denominator ** _capped(depth))
    if isinstance(spec, DyadicMeasure):
        if depth > spec.depth:
            raise ValueError(f"table of depth {spec.depth} cannot realize depth {depth}")
        return _sized(_capped(depth), spec.den)
    if isinstance(spec, Mixture):
        den = 1  # every part's own refusal before the lcm's, as when each row came first
        for scale in [w.denominator * _den(part, depth) for w, part in zip(spec.weights, spec.parts)]:
            den = _sized(depth, lcm(den, scale))
        return den
    raise TypeError(f"not a measure spec: {spec!r}")


def _leaves(spec: MeasureSpec, depth: int, den: int) -> list[int]:
    """A spec's level-`depth` masses over `den`, a multiple of `_den`: a coin
    a/b gives a word with k ones (b-a)^(depth-k) a^k den/b^depth, a table its
    row scaled once, and a mixture adds into one running row each part's row
    over den w, its weighted mass over den, so no part's row outlives its turn."""
    if isinstance(spec, Bernoulli):
        a, b = spec.p.numerator, spec.p.denominator
        factor = den // b ** depth
        masses = [(b - a) ** (depth - k) * a ** k * factor for k in range(depth + 1)]
        return [masses[i.bit_count()] for i in range(1 << depth)]
    if isinstance(spec, DyadicMeasure):
        return list(map(operator.mul, spec.nums[depth], itertools.repeat(den // spec.den)))
    weighted = (_leaves(part, depth, den // w.denominator * w.numerator) for w, part in zip(spec.weights, spec.parts))
    return functools.reduce(_sums, weighted)


def realize(spec: MeasureSpec, depth: int) -> DyadicMeasure:
    """Expand a spec into its depth-truncated mass table: its one denominator
    first (`_den`, capped), then a table's cut or `fold_up` over `_leaves`."""
    den = _den(spec, depth)
    if isinstance(spec, DyadicMeasure):
        return spec.truncated(depth)
    return DyadicMeasure._of_levels(fold_up(_leaves(spec, depth, den), _sums), den)


def class_masses(ones: int, zeros: int, n: int, step: int) -> tuple[list[int], int]:
    """Masses of the classes B(n, 0..n) when n balls are drawn from `ones`
    ones and `zeros` zeros, each draw adding `step` balls of its colour: the
    integers C(n, k) ones^(k) zeros^(n-k) over (ones + zeros)^(n), where
    a^(j) = a (a + step) ... (a + (j-1) step).  Step 0 is the coin
    ones/(ones + zeros), step -1 an urn drawn without replacement.  The first
    nonzero class comes from its factors, each next one from the last by the
    exact ratio (n - k)(ones + k step) / ((k + 1)(zeros + (n - k - 1) step)),
    whose divisor is a factor of the first class."""
    def rising(a: int, j: int) -> int:
        return a ** j if step == 0 else prod(range(a, a + j * step, step))

    start = next((n - i for i in range(n) if zeros + i * step == 0), 0)
    mass = comb(n, start) * rising(ones, start) * rising(zeros, n - start)
    masses = [0] * start + [mass]
    up, down = ones + start * step, zeros + (n - start - 1) * step
    for k in range(start + 1, n + 1):
        mass = mass * ((n - k + 1) * up) // (k * down)  # one big-integer product and quotient
        masses.append(mass)
        up, down = up + step, down - step
    return masses, rising(ones + zeros, n)


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
