"""Seeded random generators for measures, machines, and tests.

Everything is built from exact rationals so the properties under test are
decided exactly; the RNG only chooses structure, never precision.
"""
from __future__ import annotations

import random
from fractions import Fraction

from randlab.bernoulli import UrnReport, hypergeom_prefix_prob
from randlab.machines import MonotoneMachine, PrefixMachine
from randlab.measures import DyadicMeasure, all_words, bernoulli_mass, block_frequency
from randlab.randtests import ExtendedTest, from_weights

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
