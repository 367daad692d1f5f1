"""Seeded random generators for measures, machines, and tests.

Everything is built from exact rationals so the properties under test are
decided exactly; the RNG only chooses structure, never precision.
"""
from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction
from math import comb
from typing import Sequence

from randlab.coupling import is_coupled_below, pushdown_measure
from randlab.exact import INF, Ext, div_ratio, fmt, mul_nonneg, parse_rational
from randlab.formats import ParseError
from randlab.machines import MachineError, MonotoneMachine, PrefixMachine
from randlab.measures import (
    Bernoulli,
    DyadicMeasure,
    MeasureError,
    MeasureSpec,
    Mixture,
    all_words,
    block_frequency,
    prefixes,
    realize,
    validate_bits,
)
from randlab.neutral import SpernerCell
from randlab.randtests import convert_value, ExtendedTest, Verdict, from_weights

def report(name: str, limit: float, started: float) -> None:
    """Print how long a budgeted step took since `started`, and fail past `limit` seconds."""
    elapsed = time.perf_counter() - started
    print(f"[PASS] {name} ({elapsed:.2f}s < {limit:.0f}s)")
    assert elapsed < limit, f"{name} exceeded its runtime budget"


def tiny_machine() -> PrefixMachine:
    """Three entries saturating the Kraft inequality exactly."""
    return PrefixMachine({"0": "", "10": "0", "11": "1"})


def canonical_monotone_machine(max_len: int = 3) -> MonotoneMachine:
    """The copy machine: every program up to max_len outputs itself."""
    return MonotoneMachine((p, p) for p in prefixes(max_len))


def point_mass(omega_prefix: str, depth: int) -> DyadicMeasure:
    """The measure concentrated on all extensions of the prefix's first `depth` bits."""
    return DyadicMeasure.from_leaves(depth, {omega_prefix[:depth]: 1})


def shipped_measure_specs() -> dict[str, MeasureSpec]:
    """The demonstration measures exercised by the acceptance suite."""
    half = Fraction(1, 2)
    exchangeable = DyadicMeasure.from_leaves(
        2, {"00": Fraction(1, 6), "01": Fraction(1, 3), "10": Fraction(1, 3), "11": Fraction(1, 6)}
    )
    return {
        "uniform": Bernoulli(half),
        "third": Bernoulli(Fraction(1, 3)),
        "zero": Bernoulli(Fraction(0)),
        "one": Bernoulli(Fraction(1)),
        "quarter": Bernoulli(Fraction(1, 4)),
        "endpoint-mix": Mixture((half, half), (Bernoulli(Fraction(0)), Bernoulli(Fraction(1)))),
        "biased-mix": Mixture(
            (Fraction(1, 3), Fraction(2, 3)), (Bernoulli(Fraction(1, 4)), Bernoulli(Fraction(3, 4)))
        ),
        "exchangeable-table": exchangeable,
    }


SPLIT_GRID = [Fraction(n, d) for d in (1, 2, 3, 4, 8) for n in range(d + 1)]


def random_dyadic_measure(rng: random.Random, depth: int) -> DyadicMeasure:
    """Random exact table built by recursive mass splitting.

    The split grid includes 0 and 1 so null prefixes occur regularly.
    """
    mass = {"": Fraction(1)}
    for length in range(depth):
        for x in all_words(length):
            theta = rng.choice(SPLIT_GRID)
            mass[x + "0"] = mass[x] * (1 - theta)
            mass[x + "1"] = mass[x] * theta
    return DyadicMeasure(depth, mass)


def random_prefix_machine(rng: random.Random, max_program_len: int = 5, max_output_len: int = 4) -> PrefixMachine:
    """Random prefix-free table grown as a random code tree."""
    entries: dict[str, str] = {}

    def grow(node: str):
        if len(node) >= max_program_len or (node and rng.random() < 0.4):
            if rng.random() < 0.8:
                out_len = rng.randrange(max_output_len + 1)
                entries[node] = "".join(rng.choice("01") for _ in range(out_len))
            return
        grow(node + "0")
        grow(node + "1")

    grow("")
    if not entries:
        entries["0"] = ""
    return PrefixMachine(entries)


def random_monotone_machine(rng: random.Random, max_program_len: int = 3) -> MonotoneMachine:
    """Random consistent relation: outputs grow along a random monotone map."""
    out: dict[str, str] = {"": ""}
    for length in range(max_program_len):
        for p in all_words(length):
            for b in "01":
                suffix = "".join(rng.choice("01") for _ in range(rng.randrange(3)))
                out[p + b] = out[p] + suffix
    chosen = [
        (p, out[p])
        for length in range(max_program_len + 1)
        for p in all_words(length)
        if rng.random() < 0.6
    ]
    if not chosen:
        chosen = [("", "")]
    return MonotoneMachine(chosen)


def random_monotone_test(rng: random.Random, measure: DyadicMeasure, depth: int) -> ExtendedTest:
    """Random extended test passing the average bound, built from a scaled
    random weight budget (every monotone test arises this way)."""
    weights: dict[str, Fraction] = {}
    for length in range(depth + 1):
        for x in all_words(length):
            if rng.random() < 0.3:
                weights[x] = Fraction(rng.randrange(1, 9), rng.choice((1, 2, 3, 4)))
    budget = sum(
        (measure.mass(x) * w for x, w in weights.items()), Fraction(0)
    )
    if budget > 1:
        scale = Fraction(rng.randrange(1, 5), 4) / budget
        weights = {x: w * scale for x, w in weights.items()}
    return from_weights(weights, measure, depth)


def leq_words(x: str, y: str) -> bool:
    """Coordinatewise order on words of equal length."""
    return len(x) == len(y) and all(a <= b for a, b in zip(x, y))


def random_word(rng: random.Random, length: int) -> str:
    return "".join(rng.choice("01") for _ in range(length))


def reference_upcrossings(omega: str, x: str, alpha: Fraction, beta: Fraction) -> int:
    """Upcrossing count with `block_frequency` recomputed at every n: the
    quadratic definition that `count_upcrossings` must agree with."""
    count = 0
    armed = False
    for n in range(1, len(omega) - len(x) + 2):
        value = block_frequency(omega, x, n)
        if not armed:
            armed = value < alpha
        elif value > beta:
            count += 1
            armed = False
    return count


def reference_output_mass(machine: PrefixMachine, x: str) -> Fraction:
    """Discrete semimeasure m(x): the sum of 2^-|p| over the programs p producing exactly x."""
    return sum((Fraction(1, 2 ** len(p)) for p, out in machine.entries.items() if out == x), Fraction(0))


def kp_of(machine: PrefixMachine, x: str):
    """Length of a shortest program producing exactly x; INF if none: the
    per-word definition of the `kp` column of `machine-info`."""
    validate_bits(x)
    lengths = [len(p) for p, out in machine.entries.items() if out == x]
    if not lengths:
        return INF
    return min(lengths)


def monotone_output(machine: MonotoneMachine, program: str) -> str:
    """sup of outputs over table entries whose program prefixes `program`."""
    best = ""
    for p, out in machine.entries:
        if program.startswith(p) and len(out) > len(best):
            best = out
    return best


def reference_monotone_output_prob(machine: MonotoneMachine, x: str, horizon: int) -> Fraction:
    """Output probability by running every input of length `horizon`."""
    hits = sum(1 for p in all_words(horizon) if monotone_output(machine, p).startswith(x))
    return Fraction(hits, 2 ** horizon)


def sum_test_values(machine: PrefixMachine, measure: DyadicMeasure) -> tuple[dict, dict[str, bool]]:
    """Running sums of m(t)/P(t) on every prefix up to the measure depth,
    word by word: (values, flags), where `flags[x]` marks a 0/0 ratio
    somewhere on the path to x (the ratio is taken as 0 by convention)."""
    mass = machine.output_mass()
    values, flags = {}, {}
    for x in prefixes(measure.depth):
        ratio, flagged = div_ratio(mass.get(x, Fraction(0)), measure.mass(x))
        values[x] = values[x[:-1]] + ratio if x else ratio
        flags[x] = flagged or (x != "" and flags[x[:-1]])
    return values, flags


def reference_profile_rows(machine: PrefixMachine, monotone, measure: DyadicMeasure, x: str) -> list[tuple]:
    """The nine report cells of `deficiency_profile` along x, word by word
    from `sum_test_values`: T-bar is the least running sum over the leaves
    of the prefix's cylinder, T-hat the sum of mul_nonneg(P(y), S(y)) over
    those leaves divided by the prefix's mass with `div_ratio`."""
    values, flags = sum_test_values(machine, measure)
    mass = machine.output_mass()
    horizon = monotone.max_program_length() if monotone is not None else 0
    rows, sup = [], Fraction(0)
    for length in range(len(x) + 1):
        t = x[:length]
        p = measure.mass(t)
        ratio, _ = div_ratio(mass.get(t, Fraction(0)), p)
        sup = max(sup, ratio)
        leaves = [t + y for y in all_words(measure.depth - length)]
        weighted = sum((mul_nonneg(measure.mass(y), values[y]) for y in leaves), Fraction(0))
        mono = "-" if monotone is None else fmt(div_ratio(reference_monotone_output_prob(monotone, t, horizon), p)[0])
        if values[t] is INF:
            last = "inf"
        else:
            last = fmt(values[t] / sup) if sup is not INF and sup > 0 else "-"
        rows.append((
            t or "-", fmt(ratio), fmt(values[t]), fmt(sup), fmt(min(values[y] for y in leaves)),
            fmt(div_ratio(weighted, p)[0]), mono, "flagged" if flags[t] else "ok", last,
        ))
    return rows


def bernoulli_mass(p: Fraction, x: str) -> Fraction:
    """p^(#ones in x) * (1-p)^(#zeros in x), exactly."""
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError(f"Bernoulli parameter {p} outside [0,1]")
    validate_bits(x)
    ones = x.count("1")
    return p ** ones * (1 - p) ** (len(x) - ones)


def hypergeom_prefix_prob(N: int, K: int, x: str) -> Fraction:
    """Probability that draws without replacement from an N-ball urn
    (K of them marked 1) produce exactly the word x, one draw at a time.

    Impossible draws yield 0 rather than an error.
    """
    validate_bits(x)
    if not 0 <= K <= N:
        raise ValueError(f"need 0 <= K <= N, got K={K}, N={N}")
    if len(x) > N:
        raise ValueError(f"word longer than the urn: {len(x)} > {N}")
    ones_left, zeros_left = K, N - K
    prob = Fraction(1)
    for i, bit in enumerate(x):
        remaining = N - i
        if bit == "1":
            if ones_left == 0:
                return Fraction(0)
            prob *= Fraction(ones_left, remaining)
            ones_left -= 1
        else:
            if zeros_left == 0:
                return Fraction(0)
            prob *= Fraction(zeros_left, remaining)
            zeros_left -= 1
    return prob


URN_HEADER = ("n", "factor", "max_ratio", "argmax", "verdict")


def reference_urn_check(n: int) -> Verdict:
    """The urn bound at N = n^2 scored on every length-n word, K by K in
    word order: the definition `replacement_domination_check` must agree with."""
    N = n * n
    factor = Fraction(N, N - n) ** n
    max_ratio, argmax, ok = Fraction(0), None, True
    for K in range(N + 1):
        p = Fraction(K, N)
        for x in all_words(n):
            hyper = hypergeom_prefix_prob(N, K, x)
            bern = bernoulli_mass(p, x)
            if hyper > factor * bern:
                ok = False
            if bern > 0 and hyper / bern > max_ratio:
                max_ratio = hyper / bern
                argmax = (K, x)
    where = f"K={argmax[0]},x={argmax[1]}"
    row = (str(n), fmt(factor), fmt(max_ratio), where, "pass" if ok else "fail")
    return Verdict(ok=ok, header=URN_HEADER, rows=[row], witness=None if ok else argmax)


def reference_urn_check_by_class(n: int) -> Verdict:
    """The urn bound at N = n^2 scored one class B(n, k) at a time in
    `Fraction`s, from hypergeometric and binomial class probabilities:
    C(K, k) C(N-K, n-k) / C(N, n) for the urn against C(n, k) p^k (1-p)^(n-k)
    for the coin.  A word's ratio is its class's, and 0^(n-k) 1^k is the first
    word of B(n, k), so this agrees with `reference_urn_check` past the n at
    which scoring every word stops being practical."""
    N = n * n
    factor = Fraction(N, N - n) ** n
    max_ratio, argmax, ok = Fraction(0), None, True
    for K in range(N + 1):
        p = Fraction(K, N)
        for k in range(n + 1):
            hyper = Fraction(comb(K, k) * comb(N - K, n - k), comb(N, n))
            bern = comb(n, k) * p ** k * (1 - p) ** (n - k)
            if hyper > factor * bern:
                ok = False
            if bern > 0 and hyper / bern > max_ratio:
                max_ratio = hyper / bern
                argmax = (K, "0" * (n - k) + "1" * k)
    where = f"K={argmax[0]},x={argmax[1]}"
    row = (str(n), fmt(factor), fmt(max_ratio), where, "pass" if ok else "fail")
    return Verdict(ok=ok, header=URN_HEADER, rows=[row], witness=None if ok else argmax)


def words_with_ones(n: int, k: int) -> list[str]:
    """B(n, k): length-n words with exactly k ones, lexicographic."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    return [x for x in all_words(n) if x.count("1") == k]


def class_average(f: dict[str, Fraction], n: int, k: int) -> Fraction:
    """Average of f over B(n, k), word by word: the reference for the class
    rows of `validate_combinatorial_test`."""
    members = words_with_ones(n, k)
    total = Fraction(0)
    for x in members:
        if x not in f:
            raise ValueError(f"function undefined on {x!r}")
        total += Fraction(f[x])
    return total / comb(n, k)


# ---------------------------------------------------------------------------
# Dict-based references for the level-array core: each table is a
# prefix -> Fraction dict walked word by word, as the package did before it
# stored tables as integer rows.


def level(table, length: int) -> list[tuple[str, Fraction]]:
    """(word, value) pairs of a measure or test table at one level, in word order."""
    if not 0 <= length <= table.depth:
        raise ValueError("level out of range")
    den = table.den
    return [(x, Fraction(v, den)) for x, v in zip(all_words(length), table.nums[length])]


def by_word(table) -> dict[str, Fraction]:
    """Every prefix's value of a measure or test table, read level by level."""
    return {x: v for length in range(table.depth + 1) for x, v in level(table, length)}


def reference_realize(spec, depth: int) -> dict[str, Fraction]:
    """Every prefix's mass, by products down the tree and weighted sums."""
    if isinstance(spec, Bernoulli):
        mass = {"": Fraction(1)}
        for x in prefixes(depth - 1):
            mass[x + "0"] = mass[x] * (1 - spec.p)
            mass[x + "1"] = mass[x] * spec.p
        return mass
    if isinstance(spec, DyadicMeasure):
        return {x: spec.mass(x) for x in prefixes(depth)}
    parts = [reference_realize(part, depth) for part in spec.parts]
    return {
        x: sum((w * part[x] for w, part in zip(spec.weights, parts)), Fraction(0))
        for x in prefixes(depth)
    }


def reference_check(mass: dict[str, Fraction], depth: int):
    """(message, prefix) of the first violated measure axiom, else None."""
    for x in prefixes(depth):
        if not 0 <= mass[x] <= 1:
            return (f"mass out of [0,1] at prefix {x!r}", x)
    if mass[""] != 1:
        return ("mass of the empty word must be 1", "")
    for x in prefixes(depth - 1):
        if mass[x] != mass[x + "0"] + mass[x + "1"]:
            return (f"additivity fails at prefix {x!r}", x)
    return None


def reference_fold(leaves: dict[str, Fraction], depth: int) -> dict[str, Fraction]:
    """Interior masses as sums of the leaves below."""
    mass = dict(leaves)
    for length in range(depth - 1, -1, -1):
        for x in all_words(length):
            mass[x] = mass[x + "0"] + mass[x + "1"]
    return mass


def reference_from_partial(depth: int, listed: dict[str, Fraction]) -> dict[str, Fraction]:
    """Unlisted prefixes take the max over their listed ancestors (else 0)."""
    values = {"": listed.get("", Fraction(0))}
    for x in prefixes(depth):
        if x:
            values[x] = max(listed.get(x, Fraction(0)), values[x[:-1]])
    return values


def plain_lines(path: str) -> list[str]:
    """A file's lines, stripped, without blank lines and `#` comments."""
    with open(path, encoding="ascii") as handle:
        lines = [line.strip() for line in handle.read().splitlines()]
    return [line for line in lines if line and not line.startswith("#")]


def reference_word(token: str) -> str:
    """A binary word token; `-` is the empty word."""
    word = "" if token == "-" else token
    if word.strip("01"):
        raise ParseError(f"not a binary word: {word!r}")
    return word


def reference_parse_test_file(path: str) -> dict[str, Fraction]:
    """A test file's values, word by word, read the plain way.

    Each line is checked in file order: two tokens, a binary word (`-` is
    the empty word), a word not listed before, a rational value.  Then come
    the first word deeper than the header and the first negative value.
    The errors and their messages are those of `parse_test_file`; the header
    is taken to be well formed.
    """
    header, *body = plain_lines(path)
    depth = int(header.split()[1])
    listed: dict[str, Fraction] = {}
    for line in body:
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(f"bad test line {line!r} in {path!r}")
        word = reference_word(tokens[0])
        if word in listed:
            raise ParseError(f"duplicate prefix {tokens[0]!r} in {path!r}")
        listed[word] = parse_rational(tokens[1])
    for x in listed:
        if len(x) > depth:
            raise ParseError(f"bad test file {path!r}: listed prefix {x!r} deeper than {depth}")
    for x, v in listed.items():
        if v < 0:
            raise ParseError(f"bad test file {path!r}: negative test value at prefix {x!r}")
    return reference_from_partial(depth, listed)


def reference_parse_table_spec(path: str) -> dict[str, Fraction]:
    """A `table` measure spec's masses, word by word, read the plain way.

    Each leaf line is checked in file order: two tokens, a binary word (`-`
    is the empty word), a word at the header's depth, a word not listed
    before, a rational value.  Then the masses summed up from the leaves
    must pass `reference_check`.  The errors and their messages are those
    of `parse_measure_spec_file`; the header is taken to be well formed.
    """
    header, *body = plain_lines(path)
    depth = int(header.split()[1])
    leaves = dict.fromkeys(all_words(depth), Fraction(0))
    listed = set()
    for line in body:
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(f"bad table line {line!r} in {path!r}")
        word = reference_word(tokens[0])
        if len(word) != depth:
            raise ParseError(f"table line prefix {tokens[0]!r} is not at depth {depth}")
        if word in listed:
            raise ParseError(f"duplicate prefix {tokens[0]!r} in {path!r}")
        listed.add(word)
        try:
            leaves[word] = parse_rational(tokens[1])
        except ValueError as exc:
            raise ParseError(f"bad measure spec {path!r}: {exc}") from exc
    mass = reference_fold(leaves, depth)
    error = reference_check(mass, depth)
    if error is not None:
        raise MeasureError(*error)
    return mass


def reference_monotone_conflict(pairs) -> tuple[str, str, str, str] | None:
    """(p, out, q, out2): the first distinct pair (p, out) in sorted order
    whose program has an extension q with an output incomparable with out,
    and the first such (q, out2); None for a consistent table."""
    pairs = sorted(set(pairs))
    for i, (p, out) in enumerate(pairs):
        for q, out2 in pairs[i + 1 :]:
            if q.startswith(p) and not (out.startswith(out2) or out2.startswith(out)):
                return p, out, q, out2
    return None


def reference_parse_machine_file(path: str):
    """A machine file's entries read the plain way: a prefix machine's
    program -> output mapping, or a monotone machine's sorted distinct pairs.

    Each line is checked in file order: two tokens, two binary words.  Then
    a prefix machine refuses a repeated program, and the first program in
    sorted order that has a proper extension, with its first one.  A
    monotone machine refuses the first pair in sorted order whose program
    has an extension with an incomparable output, with the first such
    extension.  The errors and their messages are those of
    `parse_machine_file`.
    """
    lines = plain_lines(path)
    monotone = bool(lines) and lines[0] == "monotone"
    pairs = []
    for line in lines[1:] if monotone else lines:
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(f"bad machine line {line!r} in {path!r}")
        pairs.append((reference_word(tokens[0]), reference_word(tokens[1])))
    if monotone:
        conflict = reference_monotone_conflict(pairs)
        if conflict is not None:
            p, out, q, out2 = conflict
            raise MachineError(
                f"entries ({p!r} -> {out!r}) and ({q!r} -> {out2!r}) "
                "have comparable programs but incomparable outputs",
                (p, q),
            )
        return sorted(set(pairs))
    table: dict[str, str] = {}
    for p, out in pairs:
        if p in table:
            raise ParseError(f"duplicate program {p or '-'!r} in {path!r}")
        table[p] = out
    programs = sorted(table)
    for i, p in enumerate(programs):
        for q in programs[i + 1 :]:
            if q.startswith(p):
                raise MachineError(f"programs {p!r} and {q!r} violate prefix-freeness", (p, q))
    return table


def reference_level_averages(values, mass, depth: int) -> list[Fraction]:
    averages = [Fraction(0)] * (depth + 1)
    for x in prefixes(depth):
        averages[len(x)] += mass[x] * values[x]
    return averages


def reference_martingale_failures(g, mass, level: int, mode: str) -> list[tuple]:
    product = {x: mul_nonneg(mass[x], g[x]) for x in prefixes(level)}
    failures = []
    for x in prefixes(level - 1):
        lhs, rhs = product[x], product[x + "0"] + product[x + "1"]
        if not (lhs == rhs if mode == "martingale" else lhs >= rhs):
            failures.append((x, lhs, rhs))
    return failures


def reference_prob_bound(values, mass, depth: int) -> tuple[list[tuple[Fraction, Fraction]], bool]:
    """(value, tail mass P{T >= value}) for each distinct positive leaf value,
    and whether v * tail <= 1 at all of them."""
    leaves = all_words(depth)
    pairs = []
    for v in sorted({values[y] for y in leaves if values[y] > 0}):
        pairs.append((v, sum((mass[y] for y in leaves if values[y] >= v), Fraction(0))))
    return pairs, all(v * tail <= 1 for v, tail in pairs)


def reference_convert(values, mass, depth: int) -> tuple[dict[str, Fraction], Fraction]:
    """Damped leaves, interior minima over the leaves below, leaf average."""
    leaves = {y: convert_value(values[y]) for y in all_words(depth)}
    converted = dict(leaves)
    for length in range(depth - 1, -1, -1):
        for x in all_words(length):
            converted[x] = min(converted[x + "0"], converted[x + "1"])
    return converted, sum((mass[y] * leaves[y] for y in leaves), Fraction(0))


def poly_mul(a: list, b: list) -> list:
    """Product of two coefficient lists in ascending degree."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_at(coeffs, x: Fraction) -> Fraction:
    """sum_i coeffs[i] x^i, by Horner's rule in Fractions."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def reference_bernoulli_poly(test: ExtendedTest, n: int) -> list[Fraction]:
    """sum_x T(x) p^ones(x) (1-p)^zeros(x) over the level-n words, as a sum
    of the products p^k (1-p)^(n-k) scaled by the B(n, k) class sums: its
    Fraction coefficients in ascending degree, trailing zeros trimmed."""
    by_ones = [Fraction(0)] * (n + 1)
    for x in all_words(n):
        by_ones[x.count("1")] += test.value(x)
    result = [Fraction(0)] * (n + 1)
    p_power = [Fraction(1)]
    for k in range(n + 1):
        if by_ones[k] != 0:
            q = p_power
            for _ in range(n - k):
                q = poly_mul(q, [Fraction(1), Fraction(-1)])
            result = [r + by_ones[k] * c for r, c in zip(result, q)]
        p_power = poly_mul(p_power, [Fraction(0), Fraction(1)])
    while result and result[-1] == 0:
        result.pop()
    return result


def reference_hull(t: dict[str, Fraction]) -> dict[str, Fraction]:
    """Max over coordinatewise-smaller words, one word at a time."""
    return {
        x: max(v for y, v in t.items() if all(a <= b for a, b in zip(y, x)))
        for x in t
    }


def check_pushdown(t: dict[str, Fraction], p: Fraction, n: int) -> None:
    """Both claims of `pushdown_measure`, checked again from outside: Q*
    couples below the coin, and its integral of t, which it returns, equals
    the coin's integral of the monotone hull of t."""
    q_star, integral = pushdown_measure(t, p, n)
    coin = realize(Bernoulli(p), n)
    assert is_coupled_below(q_star, coin, n).ok
    hull = reference_hull(t)
    assert integral == sum((q_star.mass(x) * t[x] for x in t), Fraction(0))
    assert integral == sum((coin.mass(x) * hull[x] for x in t), Fraction(0))


def reference_pushdown(t: dict[str, Fraction], p: Fraction, n: int) -> dict[str, Fraction]:
    """Leaf masses of the pushdown: each coin leaf x moves to the first word
    in word order that maximizes t over the words <= x coordinatewise."""
    leaves = dict.fromkeys(all_words(n), Fraction(0))
    for x in all_words(n):
        below = [y for y in all_words(n) if all(a <= b for a, b in zip(y, x))]
        best = below[0]
        for y in below[1:]:
            if t[y] > t[best]:
                best = y
        leaves[best] += bernoulli_mass(p, x)
    return leaves


def reference_sparsity(values, depth: int, x: str) -> Fraction:
    return min(
        values[y] for y in all_words(depth) if all(a <= b for a, b in zip(x, y[: len(x)]))
    )


COPRIME_DENOMINATORS = (2, 3, 5, 7, 11, 13)


def random_spec(rng: random.Random, depth: int, nesting: int = 2, drawn: list | None = None):
    """A Bernoulli, table or mixture spec; mixture weights and coins take
    pairwise coprime denominators, so table denominators grow as lcms.  A
    part may be a spec drawn before (`drawn` holds them all), so one part
    object can sit twice under one mixture, or under two parents."""
    drawn = [] if drawn is None else drawn
    if drawn and rng.random() < 0.3:
        return rng.choice(drawn)
    kind = rng.choice(("bernoulli", "table", "mix") if nesting else ("bernoulli", "table"))
    if kind == "bernoulli":
        b = rng.choice(COPRIME_DENOMINATORS)
        spec = Bernoulli(Fraction(rng.randint(0, b), b))
    elif kind == "table":
        spec = random_dyadic_measure(rng, depth)
    else:
        dens = rng.sample(COPRIME_DENOMINATORS[1:], rng.randint(1, 2))
        weights = [Fraction(rng.randint(1, (d - 1) // 2), d) for d in dens]  # each below 1/2
        weights.append(1 - sum(weights))
        spec = Mixture(tuple(weights), tuple(random_spec(rng, depth, nesting - 1, drawn) for _ in weights))
    drawn.append(spec)
    return spec


def random_listed(rng: random.Random, depth: int, inf: bool = False) -> dict:
    """A few prefixes with random nonnegative rationals (and, with `inf`, INF)."""
    listed = {}
    for _ in range(rng.randint(0, 6)):
        x = random_word(rng, rng.randint(0, depth))
        listed[x] = INF if inf and rng.random() < 0.2 else Fraction(rng.randint(0, 12), rng.choice((1, 2, 3, 5, 7)))
    return listed


def mixture_deficiency(
    weights: Sequence[Fraction],
    sequences: Sequence[str],
    i: int,
    machine: PrefixMachine,
    depth: int,
) -> Ext:
    """Deficiency of sequence i against the mixture: the sum over its
    prefixes (up to `depth`) of machine mass divided by mixture mass, word
    by word: the definition that `neutral._labeller` must agree with.

    Infinite as soon as some prefix of sequence i has machine mass but no
    mixture mass.
    """
    weights = tuple(map(Fraction, weights))
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if not 0 <= i < len(sequences):
        raise ValueError("sequence index out of range")
    if len(weights) != len(sequences):
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
            (w for w, omega in zip(weights, sequences) if omega.startswith(x)),
            Fraction(0),
        )
        ratio, _ = div_ratio(m, mix_mass)
        total = total + ratio
    return total


def grid_weights(point: Sequence[int], resolution: int) -> tuple[Fraction, ...]:
    """The mixture weights c / resolution of an integer grid point."""
    return tuple(Fraction(c, resolution) for c in point)


def reference_sperner_search(sequences, machine: PrefixMachine, depth: int, resolution: int) -> SpernerCell:
    """The Sperner search with every label taken from `mixture_deficiency`
    over the grid points' `Fraction` weights, the grid listed by sorting the
    multisets of `combinations_with_replacement`, and the Kuhn chains
    rebuilt at every base point: the definition that `sperner_search` must
    agree with."""
    k, m = len(sequences), resolution
    labels = {}

    def label_of(point):
        if point not in labels:
            weights = grid_weights(point, m)
            for i in (i for i, w in enumerate(weights) if w):
                value = mixture_deficiency(weights, sequences, i, machine, depth)
                if value is not INF and value <= 1:
                    labels[point] = (i, value)
                    break
            else:
                raise AssertionError(f"no admissible label at grid point {point}")
        return labels[point]

    if k == 1:
        idx, value = label_of((m,))
        return SpernerCell(((m,),), (idx,), (value,), m)
    points = []
    for combo in itertools.combinations_with_replacement(range(k), m):
        counts = [0] * k
        for idx in combo:
            counts[idx] += 1
        points.append(tuple(counts))
    for base in sorted(points):
        for perm in itertools.permutations(range(k - 1)):
            chain = [base]
            for move in perm:
                nxt = list(chain[-1])
                nxt[move] -= 1
                nxt[move + 1] += 1
                if nxt[move] < 0:
                    break
                chain.append(tuple(nxt))
            else:
                seen = [label_of(v) for v in chain]
                if {idx for idx, _ in seen} == set(range(k)):
                    return SpernerCell(
                        tuple(chain),
                        tuple(idx for idx, _ in seen),
                        tuple(value for _, value in seen),
                        m,
                    )
    raise AssertionError("no fully labelled cell found")
