"""Text formats: measure specs, sequences, machine tables, test tables, TSV.

All formats are line oriented; `-` stands for the empty word wherever a
binary word is expected.  Rationals are written `num/den` and parsed to
lowest terms.  Report writing is centralized here so every subcommand emits
byte-identical output for identical inputs.
"""
from __future__ import annotations

import os
from fractions import Fraction
from itertools import chain
from typing import Iterable, Sequence

from .exact import _common_denominator, fmt_ratios, parse_rational
from .machines import MonotoneMachine, PrefixMachine
from .measures import (
    Bernoulli,
    CapabilityError,
    DyadicMeasure,
    MeasureError,
    MeasureSpec,
    Mixture,
    Table,
    prefixes,
    validate_bits,
)
from .randtests import ExtendedTest

__all__ = [
    "ParseError",
    "parse_word",
    "format_word",
    "parse_measure_spec_file",
    "parse_sequence_file",
    "parse_machine_file",
    "parse_test_file",
    "format_values",
    "render_test_file",
    "render_tsv",
]


class ParseError(ValueError):
    pass


#: Most `mix` files a measure spec may nest, so parsing and `realize` recurse
#: a bounded number of levels.
MAX_MIX_NESTING = 64


def parse_word(token: str) -> str:
    """A binary word; `-` denotes the empty word."""
    if token == "-":
        return ""
    try:
        return validate_bits(token)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def format_word(word: str) -> str:
    return word if word else "-"


def _read(path: str, what: str) -> str:
    try:
        with open(path, "r", encoding="ascii") as handle:
            return handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {what} {path!r}: {exc}") from exc


def _meaningful_lines(text: str) -> list[str]:
    return [line for line in map(str.strip, text.splitlines()) if line and line[0] != "#"]


def parse_measure_spec_file(path: str, including: tuple[str, ...] = ()) -> MeasureSpec:
    """One construct per file: `bernoulli p` | `table depth` + leaf lines |
    `mix` + weighted sub-spec lines (paths relative to this file).

    `including` holds the resolved paths of the `mix` files whose parsing is
    still open above this one; a file that includes itself, directly or
    through others, or that sits below more than `MAX_MIX_NESTING` of them,
    is a parse error.  A file may appear under several parents.
    """
    resolved = os.path.realpath(path)
    if resolved in including:
        raise ParseError(f"measure spec {path!r} includes itself")
    if len(including) > MAX_MIX_NESTING:
        raise ParseError(
            f"measure spec {path!r} is nested below more than {MAX_MIX_NESTING} mix files"
        )
    lines = _meaningful_lines(_read(path, "measure spec"))
    if not lines:
        raise ParseError(f"empty measure spec {path!r}")
    head = lines[0].split()
    try:
        if head[0] == "bernoulli" and len(head) == 2:
            return Bernoulli(parse_rational(head[1]))
        if head[0] == "table" and len(head) == 2:
            depth = int(head[1])
            leaves: dict[str, Fraction] = {}
            for line in lines[1:]:
                word_token, value_token = line.split()
                word = parse_word(word_token)
                if len(word) != depth:
                    raise ParseError(
                        f"table line prefix {word_token!r} is not at depth {depth}"
                    )
                leaves[word] = parse_rational(value_token)
            return Table(DyadicMeasure.from_leaves(depth, leaves))
        if head[0] == "mix" and len(head) == 1:
            weights = []
            parts = []
            base = os.path.dirname(os.path.abspath(path))
            for line in lines[1:]:
                weight_token, sub = line.split(maxsplit=1)
                weights.append(parse_rational(weight_token))
                sub_path = sub if os.path.isabs(sub) else os.path.join(base, sub)
                parts.append(parse_measure_spec_file(sub_path, including + (resolved,)))
            return Mixture(tuple(weights), tuple(parts))
    except (ParseError, MeasureError, CapabilityError):
        raise  # a bad table is a certified violation, not a parse failure
    except (ValueError, IndexError) as exc:
        raise ParseError(f"bad measure spec {path!r}: {exc}") from exc
    raise ParseError(f"unrecognized measure spec header {lines[0]!r} in {path!r}")


def parse_sequence_file(path: str) -> str:
    """ASCII '0'/'1' characters; all whitespace is ignored."""
    bits = "".join(_read(path, "sequence").split())
    try:
        return validate_bits(bits)
    except ValueError as exc:
        raise ParseError(f"bad sequence file {path!r}: {exc}") from exc


def parse_machine_file(path: str) -> PrefixMachine | MonotoneMachine:
    """Lines `<program> <output>`; a leading `monotone` line switches kinds."""
    lines = _meaningful_lines(_read(path, "machine"))
    monotone = bool(lines) and lines[0] == "monotone"
    if monotone:
        lines = lines[1:]
    pairs = []
    for line in lines:
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(f"bad machine line {line!r} in {path!r}")
        pairs.append((parse_word(tokens[0]), parse_word(tokens[1])))
    if monotone:
        return MonotoneMachine(pairs)
    table: dict[str, str] = {}
    for program, output in pairs:
        if program in table:
            raise ParseError(f"duplicate program {format_word(program)!r} in {path!r}")
        table[program] = output
    return PrefixMachine(table)


def parse_test_file(path: str) -> ExtendedTest:
    """Header `test <depth>`, lines `<prefix> <num>/<den>`; unlisted prefixes
    take the maximum over their listed ancestors.

    Lines are checked in file order.  Each distinct value token is parsed
    once and scaled once to the lcm of the denominators, and the integer
    numerators go straight into the table's level rows.
    """
    lines = _meaningful_lines(_read(path, "test"))
    if not lines or lines[0].split()[0] != "test":
        raise ParseError(f"test file {path!r} must start with `test <depth>`")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(f"bad test header {lines[0]!r} in {path!r}")
    try:
        depth = int(head[1])
    except ValueError as exc:
        raise ParseError(f"bad test depth in {path!r}") from exc
    # Lines with the same value token share the position of its one parsed
    # value, so no line keeps a token or a value of its own alive; once the
    # lcm is known, each position is replaced in place by its numerator.
    positions: dict[str, int] = {}
    values: list[Fraction] = []
    listed: dict[str, int] = {}
    for line in lines[1:]:
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(f"bad test line {line!r} in {path!r}")
        word, token = parse_word(tokens[0]), tokens[1]
        if word in listed:
            raise ParseError(f"duplicate prefix {tokens[0]!r} in {path!r}")
        position = positions.get(token)
        if position is None:
            position = positions[token] = len(values)
            values.append(parse_rational(token))
        listed[word] = position
    nums, den = _common_denominator(values)
    for word, position in listed.items():
        listed[word] = nums[position]
    try:
        return ExtendedTest.from_numerators(depth, listed, den)
    except CapabilityError:
        raise
    except ValueError as exc:
        raise ParseError(f"bad test file {path!r}: {exc}") from exc


def format_values(test: ExtendedTest) -> list[tuple[str, str]]:
    """(word, `num/den`) for every prefix of a test, in `prefixes` order."""
    words = list(prefixes(test.depth))
    words[0] = format_word(words[0])
    return list(zip(words, chain.from_iterable(map(fmt_ratios, test.nums, test.dens))))


def render_test_file(test: ExtendedTest) -> str:
    lines = [f"test {test.depth}", *map(" ".join, format_values(test))]
    return "\n".join(lines) + "\n"


def render_tsv(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """Tab-separated lines; every cell is already text."""
    lines = ["\t".join(header)]
    lines.extend(map("\t".join, rows))
    return "\n".join(lines) + "\n"
