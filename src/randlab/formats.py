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
from typing import Iterable, Iterator, Sequence

from .exact import fmt_ratios, parse_rational
from .machines import MonotoneMachine, PrefixMachine
from .measures import (
    Bernoulli,
    CapabilityError,
    DyadicMeasure,
    MeasureError,
    MeasureSpec,
    Mixture,
    prefixes,
    validate_bits,
)
from .randtests import ExtendedTest, _by_length, _closure

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


#: Most `mix` files a measure spec may nest, so parsing recurses a bounded
#: number of levels (`realize` does not recurse: a `Mixture` is flat).
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


def _pairs(lines: Iterable[str], path: str, kind: str, maxsplit: int = -1) -> Iterator[list[str]]:
    """The two tokens of each line; any other count is a bad `kind` line."""
    for line in lines:
        tokens = line.split(None, maxsplit)
        if len(tokens) != 2:
            raise ParseError(f"bad {kind} line {line!r} in {path!r}")
        yield tokens


def parse_measure_spec_file(path: str, including: tuple[str, ...] = (), parsed: dict | None = None) -> MeasureSpec:
    """One construct per file, named by the header: `bernoulli p` alone |
    `table depth` + leaf lines | `mix` + weighted paths relative to this file.

    `including` holds the resolved paths of the `mix` files whose parsing is
    still open above this one; a file that includes itself, directly or
    through others, or that sits below more than `MAX_MIX_NESTING` of them,
    is a parse error.  A file may appear under several parents: `parsed`
    keeps the spec read at each (resolved path, nesting), read there once.
    """
    resolved = os.path.realpath(path)
    if resolved in including:
        raise ParseError(f"measure spec {path!r} includes itself")
    if len(including) > MAX_MIX_NESTING:
        raise ParseError(f"measure spec {path!r} is nested below more than {MAX_MIX_NESTING} mix files")
    parsed = {} if parsed is None else parsed
    key = (resolved, len(including))
    if key in parsed:
        return parsed[key]
    lines = _meaningful_lines(_read(path, "measure spec"))
    if not lines:
        raise ParseError(f"empty measure spec {path!r}")
    head = lines[0].split()  # the kind, then as many parameters as it takes
    if len(head) - 1 != {"bernoulli": 1, "table": 1, "mix": 0}.get(head[0]):
        raise ParseError(f"unrecognized measure spec header {lines[0]!r} in {path!r}")
    try:
        if head[0] == "bernoulli":
            spec = Bernoulli(parse_rational(head[1]))
            if len(lines) > 1:  # the header is the whole spec
                raise ParseError(f"bad bernoulli line {lines[1]!r} in {path!r}")
        elif head[0] == "table":
            depth = int(head[1])
            leaves: dict[str, Fraction] = {}
            for word_token, value_token in _pairs(lines[1:], path, "table"):
                word = parse_word(word_token)
                if len(word) != depth:
                    raise ParseError(f"table line prefix {word_token!r} is not at depth {depth}")
                if word in leaves:
                    raise ParseError(f"duplicate prefix {format_word(word)!r} in {path!r}")
                leaves[word] = parse_rational(value_token)
            spec = DyadicMeasure.from_leaves(depth, leaves)
        else:  # mix
            weights, parts = [], []
            base = os.path.dirname(os.path.abspath(path))
            for weight_token, sub in _pairs(lines[1:], path, "mix", maxsplit=1):
                weights.append(parse_rational(weight_token))
                parts.append(parse_measure_spec_file(os.path.join(base, sub), including + (resolved,), parsed))
            spec = Mixture(tuple(weights), tuple(parts))
    except (ParseError, MeasureError, CapabilityError):
        raise  # a bad table is a certified violation, not a parse failure
    except ValueError as exc:
        raise ParseError(f"bad measure spec {path!r}: {exc}") from exc
    parsed[key] = spec
    return spec


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
    monotone = lines[:1] == ["monotone"]
    pairs = [(parse_word(p), parse_word(o)) for p, o in _pairs(lines[monotone:], path, "machine")]
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

    One pass over the lines checks each in file order (its token count, its
    word, a repeated word, its value) and puts its word straight into its
    level, mapped to the position of its value token: each distinct token
    is parsed once, and the lines that repeat it share its one value.  The
    checks that need every line come after the last one, in
    `randtests._closure`: a word deeper than the header, a negative value,
    the depth cap.
    """
    lines = iter(_meaningful_lines(_read(path, "test")))
    header = next(lines, "")
    head = header.split()
    if not head or head[0] != "test":
        raise ParseError(f"test file {path!r} must start with `test <depth>`")
    if len(head) != 2:
        raise ParseError(f"bad test header {header!r} in {path!r}")
    try:
        depth = int(head[1])
    except ValueError as exc:
        raise ParseError(f"bad test depth in {path!r}") from exc
    levels, deeper = _by_length(depth, ())  # empty; the loop fills them
    positions: dict[str, int] = {}
    values: list[Fraction] = []
    negative = None
    for word, token in _pairs(lines, path, "test"):
        if word.strip("01"):  # the empty word `-`, or not a word
            word = parse_word(word)
        try:
            level = levels[len(word)]
        except IndexError:
            level = deeper
        if word in level:
            raise ParseError(f"duplicate prefix {format_word(word)!r} in {path!r}")
        try:
            position = positions[token]
        except KeyError:
            position = positions[token] = len(values)
            values.append(parse_rational(token))
            if values[-1] < 0 and negative is None:
                negative = word
        level[word] = position
    try:
        return _closure(depth, levels, deeper, values, negative)
    except CapabilityError:
        raise
    except ValueError as exc:
        raise ParseError(f"bad test file {path!r}: {exc}") from exc


def format_values(test: ExtendedTest) -> Iterator[tuple[str, str]]:
    """(word, `num/den`) for every prefix of a test, in `prefixes` order,
    produced a level at a time."""
    words = prefixes(test.depth)
    next(words)  # the empty word, written `-`
    return zip(chain(["-"], words), chain.from_iterable(fmt_ratios(row, test.den) for row in test.nums))


def render_test_file(test: ExtendedTest) -> str:
    lines = [f"test {test.depth}", *map(" ".join, format_values(test))]
    return "\n".join(lines) + "\n"


def render_tsv(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """Tab-separated lines; every cell is already text."""
    return "\n".join(map("\t".join, chain([header], rows))) + "\n"
