"""Seeded random generators for measures, machines, and tests.

Everything is built from exact rationals so the properties under test are
decided exactly; the RNG only chooses structure, never precision.
"""
from __future__ import annotations

import random
from fractions import Fraction

from randlab.bernoulli import UrnReport, hypergeom_prefix_prob
from randlab.exact import INF, mul_nonneg
from randlab.machines import MonotoneMachine, PrefixMachine
from randlab.measures import (
    Bernoulli,
    DyadicMeasure,
    Mixture,
    Table,
    all_words,
    bernoulli_mass,
    block_frequency,
    prefixes,
)
from randlab.randtests import convert_value, ExtendedTest, from_weights

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
    return DyadicMeasure(depth, mass, validate=False)


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


def reference_monotone_output_prob(machine: MonotoneMachine, x: str, horizon: int) -> Fraction:
    """Output probability by running every input of length `horizon`."""
    hits = sum(1 for p in all_words(horizon) if machine.output(p).startswith(x))
    return Fraction(hits, 2 ** horizon)


def reference_urn_check(n: int) -> UrnReport:
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
    return UrnReport(ok=ok, n=n, N=N, factor=factor, max_ratio=max_ratio, argmax=argmax)


# ---------------------------------------------------------------------------
# Dict-based references for the level-array core: each table is a
# prefix -> Fraction dict walked word by word, as the package did before it
# stored tables as integer rows.


def reference_realize(spec, depth: int) -> dict[str, Fraction]:
    """Every prefix's mass, by products down the tree and weighted sums."""
    if isinstance(spec, Bernoulli):
        mass = {"": Fraction(1)}
        for x in prefixes(depth - 1):
            mass[x + "0"] = mass[x] * (1 - spec.p)
            mass[x + "1"] = mass[x] * spec.p
        return mass
    if isinstance(spec, Table):
        return {x: spec.measure.mass(x) for x in prefixes(depth)}
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


def reference_hull(t: dict[str, Fraction]) -> dict[str, Fraction]:
    """Max over coordinatewise-smaller words, one word at a time."""
    return {
        x: max(v for y, v in t.items() if all(a <= b for a, b in zip(y, x)))
        for x in t
    }


def reference_sparsity(values, depth: int, x: str) -> Fraction:
    return min(
        values[y] for y in all_words(depth) if all(a <= b for a, b in zip(x, y[: len(x)]))
    )


COPRIME_DENOMINATORS = (2, 3, 5, 7, 11, 13)


def random_spec(rng: random.Random, depth: int, nesting: int = 2):
    """A Bernoulli, table or mixture spec; mixture weights and coins take
    pairwise coprime denominators, so level denominators grow as lcms."""
    kind = rng.choice(("bernoulli", "table", "mix") if nesting else ("bernoulli", "table"))
    if kind == "bernoulli":
        b = rng.choice(COPRIME_DENOMINATORS)
        return Bernoulli(Fraction(rng.randint(0, b), b))
    if kind == "table":
        return Table(random_dyadic_measure(rng, depth))
    dens = rng.sample(COPRIME_DENOMINATORS[1:], rng.randint(1, 2))
    weights = [Fraction(rng.randint(1, (d - 1) // 2), d) for d in dens]  # each below 1/2
    weights.append(1 - sum(weights))
    return Mixture(tuple(weights), tuple(random_spec(rng, depth, nesting - 1) for _ in weights))


def random_listed(rng: random.Random, depth: int, inf: bool = False) -> dict:
    """A few prefixes with random nonnegative rationals (and, with `inf`, INF)."""
    listed = {}
    for _ in range(rng.randint(0, 6)):
        x = random_word(rng, rng.randint(0, depth))
        listed[x] = INF if inf and rng.random() < 0.2 else Fraction(rng.randint(0, 12), rng.choice((1, 2, 3, 5, 7)))
    return listed
