"""Finite prefix-free and monotone machines, and the masses they induce.

A prefix machine is a finite program table; its 2^-|p| output mass is read
off exactly.  A monotone machine is a finite consistent relation between
programs and outputs; feeding it fair coin flips induces an output mass on
prefixes.  All results are relative to the supplied table: no universality
is attempted.
"""
from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping

from .measures import prefixes, validate_bits

__all__ = [
    "MachineError",
    "PrefixMachine",
    "MonotoneMachine",
    "semimeasure_total",
    "monotone_output_prob",
    "canonical_machine",
]


class MachineError(ValueError):
    """A machine table violates its structural invariant; names the pair."""

    def __init__(self, message: str, pair: tuple[str, str] | None = None):
        super().__init__(message)
        self.pair = pair


class PrefixMachine:
    """Finite map from programs to outputs with a prefix-free domain.

    Treat instances as immutable: the output masses and their total are
    built in one pass on first use and kept.
    """

    __slots__ = ("entries", "_masses")

    def __init__(self, entries: Mapping[str, str]):
        table = {}
        for program, output in entries.items():
            table[validate_bits(program)] = validate_bits(output)
        programs = sorted(table)
        for first, second in zip(programs, programs[1:]):
            if second.startswith(first):
                raise MachineError(
                    f"programs {first!r} and {second!r} violate prefix-freeness",
                    (first, second),
                )
        self.entries = table
        self._masses: tuple[Mapping[str, Fraction], Fraction] | None = None

    def output_mass(self) -> Mapping[str, Fraction]:
        """Output mass per produced word (words not produced are absent), read-only."""
        if self._masses is None:
            self._masses = _mass_pass(self.entries)
        return self._masses[0]

    def __repr__(self) -> str:
        return f"PrefixMachine({len(self.entries)} entries)"


def _comparable(u: str, v: str) -> bool:
    return u.startswith(v) or v.startswith(u)


class MonotoneMachine:
    """Finite set of (program, output) pairs, consistent on comparable programs."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[tuple[str, str]]):
        pairs = sorted({(validate_bits(p), validate_bits(o)) for p, o in entries})
        # One pass in program order over the open ancestors, each with the longest
        # output up to it: an output comparable with that one is comparable with all.
        # A conflict keeps the ancestors before the first it hits, to name the witness.
        chain: list[tuple[str, str]] = []
        error = None
        for q, out in pairs:
            while chain and not q.startswith(chain[-1][0]):
                chain.pop()
            longest = chain[-1][1] if chain else ""
            if not _comparable(out, longest):
                first = bisect_left(chain, True, key=lambda entry: not _comparable(out, entry[1]))
                p, out_p = chain[first]
                error = MachineError(
                    f"entries ({p!r} -> {out_p!r}) and ({q!r} -> {out!r}) "
                    "have comparable programs but incomparable outputs",
                    (p, q),
                )
                del chain[first:]
            elif error is None:
                chain.append((q, max(longest, out, key=len)))
        if error is not None:
            raise error
        self.entries = pairs

    def max_program_length(self) -> int:
        return max((len(p) for p, _ in self.entries), default=0)

    def __repr__(self) -> str:
        return f"MonotoneMachine({len(self.entries)} entries)"


def _mass_pass(entries: Mapping[str, str]) -> tuple[Mapping[str, Fraction], Fraction]:
    """Each output's mass, the sum of 2^-|p| over its programs p, from one pass
    over the programs, and their total, the Kraft sum, from those masses.  A
    mass is held as an integer over 2^k, k its output's longest program so far,
    shifted when a longer one comes: a long program lengthens its own numerator only."""
    held: dict[str, tuple[int, int]] = {}
    for program, output in entries.items():
        k = len(program)
        num, exp = held.get(output, (0, k))
        if k > exp:
            num, exp = num << (k - exp), k
        held[output] = num + (1 << (exp - k)), exp
    top = max((exp for _, exp in held.values()), default=0)
    total = sum(num << (top - exp) for num, exp in held.values())
    masses = {output: Fraction(num, 1 << exp) for output, (num, exp) in held.items()}
    return MappingProxyType(masses), Fraction(total, 1 << top)


def semimeasure_total(machine: PrefixMachine) -> Fraction:
    """Total output mass, the Kraft sum kept by the pass of :meth:`PrefixMachine.output_mass`;
    <= 1 is forced by prefix-freeness, so a larger sum is an internal failure."""
    machine.output_mass()
    total = machine._masses[1]
    if total > 1:
        raise AssertionError("Kraft sum exceeds 1 on a prefix-free table")
    return total


def monotone_output_prob(machine: MonotoneMachine, x: str, horizon: int) -> Fraction:
    """Coin-flip probability that the machine output begins with x.

    The entries that apply to one input have pairwise comparable programs,
    so their outputs are pairwise comparable too, and the output begins with
    a nonempty x exactly when one of them has an output extending x.  The
    probability is therefore the sum of 2^-|p| over the minimal programs p
    whose output extends x; every output begins with x = "".  The horizon
    must cover the whole program table, so longer inputs cannot change the
    verdict; no input is enumerated.
    """
    validate_bits(x)
    if horizon < machine.max_program_length():
        raise ValueError(
            f"horizon {horizon} below the maximal program length "
            f"{machine.max_program_length()}"
        )
    if not x:
        return Fraction(1)
    hits = 0
    minimal = None  # last minimal program; entries are sorted by program
    for p, out in machine.entries:
        if out.startswith(x) and (minimal is None or not p.startswith(minimal)):
            hits += 1 << (horizon - len(p))
            minimal = p
    return Fraction(hits, 1 << horizon)


def canonical_machine() -> PrefixMachine:
    """The shipped length-conditional encoder: 1^L 0 x -> x for |x| = L <= 6,
    so each such word has one program, of length 2L + 1, its shortest."""
    return PrefixMachine({"1" * len(x) + "0" + x: x for x in prefixes(6)})
