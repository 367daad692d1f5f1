"""Seeded inputs and their expected reports, one generator per workload.

A generator returns one round: a request per template (a subcommand at one
size).  The loop sends the round again and again, so every run has the same
mix of work; the seed only changes the content (coin parameters, listed
prefixes, bits).  The expected exit code of each request follows from how
its input was built, and its `check` recomputes the report with `reference`.
"""
from __future__ import annotations

import functools
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction as F
from typing import Callable, Optional

from reference import (
    CONVERT_AVG_BOUND,
    Bern,
    LeafTable,
    Mix,
    SparseTest,
    check_certify,
    check_martingale_failures,
    check_neutral,
    check_plan,
    check_prob_witness,
    check_upper_set,
    check_urn,
    convert_value,
    canonical_mass,
    fmt,
    identity_machine_prob,
    rows_of,
    tsv,
    upcrossings,
    validate_rows,
    word,
    words,
)

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

#: Coin parameters share one denominator, so every seed does arithmetic on
#: integers of the same size.
COINS = [F(a, 7) for a in range(1, 7)]
#: Coupling pair p < q per level n, three sevenths apart and the same for
#: every seed: the cost of `coupling` at n = 7 differs by up to 3x between
#: pairs, so a seeded pair would let the seed set the run's cost.
COUPLING_PAIRS = {5: (F(3, 7), F(6, 7)), 6: (F(1, 7), F(4, 7)), 7: (F(2, 7), F(5, 7))}


@dataclass
class Request:
    kind: str  # the subcommand
    size: str  # growth tag such as "n6"; empty when the kind is not swept
    argv: list[str]  # names in `files` stand for paths in the work directory
    expect_exit: int
    check: Callable[[str], Optional[str]]  # report text -> None or a reason
    files: dict[str, str] = field(default_factory=dict)


def same(expected: str) -> Callable[[str], Optional[str]]:
    return lambda text: None if text == expected else "report differs from the expected bytes"


def same_as(build: Callable[[], str]) -> Callable[[str], Optional[str]]:
    """`same` for reports of 2^depth lines: the expected text is built on the
    first check and only its hash is kept for the later rounds."""
    digest = None

    def check(text: str) -> Optional[str]:
        nonlocal digest
        if digest is None:
            digest = hash(build())
        return None if hash(text) == digest else "report differs from the expected bytes"

    return check


# ----------------------------------------------------------------- battery

#: Demo reports whose rows are witnesses; the rest are compared as bytes.
def _battery_witness_checks() -> dict[str, Callable[[str], Optional[str]]]:
    third, half = Bern(F(1, 3)), Bern(F(1, 2))
    return {
        "coupling_third_uniform.tsv": lambda t: check_plan(t, third, half, 3),
        "coupling_uniform_third.tsv": lambda t: check_upper_set(t, half, third, 3),
        "supermartingale_onesided.tsv": lambda t: check_martingale_failures(
            t, SparseTest(2, {"1": F(2)}), half, "supermartingale"
        ),
        "certify_twop.tsv": lambda t: check_certify(t, SparseTest(1, {"1": F(2)}), 1),
        "neutral_pair.tsv": lambda t: check_neutral(t, ["0" * 16, "1" * 16], 8, 64),
    }


def battery(rng: random.Random) -> list[Request]:
    from randlab import demo

    with open(os.path.join(GOLDEN, "exit_codes.tsv"), encoding="ascii") as fh:
        _, rows = rows_of(fh.read())
    exits = {name: int(code) for name, code in rows}
    witness = _battery_witness_checks()
    requests = []
    for name, argv in demo.COMMANDS:
        if name in witness:
            check = witness[name]
        else:
            with open(os.path.join(GOLDEN, name), encoding="ascii") as fh:
                check = same(fh.read())
        requests.append(Request(argv[0], "", list(argv), exits[name], check, dict(demo.INPUTS)))
    return requests


# -------------------------------------------------------------- deep-check

CHECK_DEPTHS = (10, 11, 12, 13)
CHECK_KINDS = ("validate-measure", "validate-test", "prob-check", "martingale", "cond-average", "sparsity")


def _random_word(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("01") for _ in range(n))


def _measure(rng, style: str, depth: int, stem: str, files: dict):
    """A Bernoulli, mixture or sparse-table spec; returns (model, spec file)."""
    name = stem + ".measure"
    if style == "bernoulli":
        model = Bern(rng.choice(COINS))
        files[name] = model.spec()
    elif style == "mix":
        a, b = (Bern(p) for p in rng.sample(COINS, 2))
        w = rng.choice([F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4)])
        model = Mix([(w, a), (1 - w, b)])
        files[stem + ".a.measure"], files[stem + ".b.measure"] = a.spec(), b.spec()
        files[name] = f"mix\n{fmt(w)} {stem}.a.measure\n{fmt(1 - w)} {stem}.b.measure\n"
    else:
        leaves = {}
        while len(leaves) < 8:
            leaves[_random_word(rng, depth)] = rng.randint(1, 9)
        total = sum(leaves.values())
        model = LeafTable(depth, {x: F(v, total) for x, v in leaves.items()})
        files[name] = model.spec()
    return model, name


def _supported_word(rng, measure, n: int) -> str:
    """A random word of length n with positive mass."""
    if isinstance(measure, LeafTable):
        return rng.choice(sorted(measure.leaves))[:n]
    return _random_word(rng, n)


def _budget_test(rng, measure, depth: int, spike: bool = False) -> SparseTest:
    """Weights on ten random prefixes, scaled so sum P(z) w(z) <= 1; listed
    values are the running sums of weights, so the test validates.  With
    `spike`, one shallow prefix y gets an extra weight v with v P(y) > 2,
    which breaks the probability bound."""
    weights: dict[str, F] = {}
    for _ in range(10):
        z = _supported_word(rng, measure, rng.randint(1, depth)) if rng.random() < 0.7 else _random_word(rng, rng.randint(1, depth))
        weights[z] = F(rng.randint(1, 8), 2)
    weights[""] = F(rng.randint(0, 2), 4)
    budget = sum((measure.mass(z) * w for z, w in weights.items()), F(0))
    while budget > 1:
        weights = {z: w / 2 for z, w in weights.items()}
        budget /= 2
    if spike:
        y = _supported_word(rng, measure, rng.randint(1, 3))
        weights[y] = weights.get(y, F(0)) + math.floor(2 / measure.mass(y)) + 1
    listed = {z: sum((w for u, w in weights.items() if z.startswith(u)), F(0)) for z in weights}
    return SparseTest(depth, listed)


def _prob_check_expect(test: SparseTest, measure) -> tuple[int, Callable[[str], Optional[str]]]:
    pieces = test.pieces(measure)
    rows = []
    failing = False
    for v in sorted({v for v, _, _ in pieces if v > 0}):
        tail = sum((m for u, _, m in pieces if u >= v), F(0))
        ok = v * tail <= 1
        failing = failing or not ok
        rows.append((f"value={fmt(v)}", fmt(tail), fmt(v * tail), "pass" if ok else "fail"))
    expected = tsv(("prefix", "value", "bound", "verdict"), rows)

    def check(text: str) -> Optional[str]:
        if not failing:
            return same(expected)(text)
        head = text.rsplit("\n", 2)[0] + "\n"
        if head != expected:
            return "probability-bound rows differ from the recomputed tail masses"
        return check_prob_witness(rows_of(text)[1][-1], test, measure)

    return (1 if failing else 0), check


def _martingale_test(rng, measure, depth: int) -> SparseTest:
    """Constant on the support; off a table measure's support, arbitrary bumps."""
    c = F(rng.randint(1, 9), rng.randint(1, 9))
    listed = {"": c}
    for _ in range(4):
        listed[_random_word(rng, rng.randint(1, depth))] = c
    if isinstance(measure, LeafTable):
        for _ in range(12):
            leaf = rng.choice(sorted(measure.leaves))
            i = rng.randint(1, depth)
            y = leaf[: i - 1] + ("1" if leaf[i - 1] == "0" else "0")
            if measure.mass(y) == 0:
                listed[y] = c + rng.randint(1, 5)
    return SparseTest(depth, listed)


def deep_check(rng: random.Random) -> list[Request]:
    requests = []
    for d in CHECK_DEPTHS:
        for k, kind in enumerate(CHECK_KINDS):
            stem = f"c{d}k{k}"
            files: dict[str, str] = {}
            style = ("bernoulli", "mix", "table")[(k + d) % 3]
            measure, spec = _measure(rng, style, d, stem, files)
            test_name = stem + ".test"
            expect = 0
            if kind == "validate-measure":
                argv = [kind, spec, "--depth", str(d)]
                rows = [(f"len={n}", "1/1", "1/1", "pass") for n in range(d + 1)]
                check = same(tsv(("prefix", "value", "bound", "verdict"), rows))
            elif kind == "validate-test":
                test = _budget_test(rng, measure, d)
                argv = [kind, test_name, "--measure", spec]
                check = same(tsv(("prefix", "value", "bound", "verdict"), validate_rows(test, measure)))
            elif kind == "prob-check":
                test = _budget_test(rng, measure, d, spike=d % 2 == 1)
                argv = [kind, test_name, "--measure", spec]
                expect, check = _prob_check_expect(test, measure)
            elif kind == "martingale":
                test = _martingale_test(rng, measure, d)
                argv = [kind, test_name, "--measure", spec]
                check = same("prefix\tlhs\trhs\tverdict\nall\t-\t-\tmartingale:pass\n")
            elif kind == "cond-average":
                test = _budget_test(rng, measure, d)
                x = _supported_word(rng, measure, rng.randint(1, 5))
                argv = [kind, test_name, x, "--measure", spec]
                px = measure.mass(x)
                value = test.integral(measure, x) / px if px else F(0)
                flag = "flagged" if px == 0 else "ok"
                check = same(tsv(("prefix", "value", "bound", "verdict"), [(x, fmt(value), "-", flag)]))
            else:
                test = _budget_test(rng, measure, d)
                x = _random_word(rng, rng.randint(1, 4))
                argv = [kind, test_name, x, "--measure", spec]
                rows = validate_rows(test, measure)
                rows.append((x, fmt(test.sparsity(x)), f"depth-{d}-lower-bound", "ok"))
                check = same(tsv(("prefix", "value", "bound", "verdict"), rows))
            if kind != "validate-measure":
                files[test_name] = test.text()
            requests.append(Request(kind, f"depth{d}", argv, expect, check, files))
    return requests


# -------------------------------------------------------------- deep-build

BUILD_DEPTHS = (10, 11, 12)
BUILD_KINDS = ("convert", "bernoulli-extend", "monotonize", "min-extension")


def _leaf_file(depth: int, leaves: dict[str, F]) -> str:
    return f"test {depth}\n" + "".join(f"{x} {fmt(v)}\n" for x, v in leaves.items())


def _bounded_leaves(rng, measure, depth: int) -> dict[str, F]:
    """Leaf values at most 1, plus a few high values v placed while
    v * P{T >= v} <= 1 holds: a probability-bounded test."""
    leaves = {x: rng.choice([F(0), F(1, 2), F(3, 4), F(1)]) for x in words(depth)}
    order = list(leaves)
    rng.shuffle(order)
    tail = F(0)
    at = 0
    for v in (F(16), F(8), F(6), F(4), F(3), F(2)):
        for x in order[at : at + 2 ** depth // 8]:
            if (tail + measure.mass(x)) * v <= 1:
                leaves[x] = v
                tail += measure.mass(x)
        at += 2 ** depth // 8
    return leaves


def _convert_report(leaves: dict[str, F], measure, depth: int) -> str:
    values = {x: convert_value(v) for x, v in leaves.items()}
    levels = [list(values.items())]
    for n in range(depth - 1, -1, -1):
        level = [(x, min(values[x + "0"], values[x + "1"])) for x in words(n)]
        values.update(level)
        levels.append(level)
    rows = [(word(x), fmt(v), "-", "value") for level in reversed(levels) for x, v in level]
    average = sum((measure.mass(x) * convert_value(v) for x, v in leaves.items()), F(0))
    rows.append(("leaf-average", fmt(average), fmt(CONVERT_AVG_BOUND), "pass"))
    return tsv(("prefix", "value", "bound", "verdict"), rows)


def _class_bounded_leaves(rng, depth: int) -> dict[str, F]:
    """Leaf values whose average over every class B(depth, k) is at most 1."""
    leaves: dict[str, F] = {}
    by_class: dict[int, list[str]] = {}
    for x in words(depth):
        by_class.setdefault(x.count("1"), []).append(x)
    for members in by_class.values():
        draws = [rng.randint(0, 8) for _ in members]
        den = max(4, -(-sum(draws) // len(members)))
        leaves.update({x: F(a, den) for x, a in zip(members, draws)})
    return dict(sorted(leaves.items()))


def _extend_report(leaves: dict[str, F], depth: int, target: int) -> str:
    lines = [f"test {target}"]
    for n in range(target + 1):
        for x in words(n):
            v = leaves[x[:depth]] if n >= depth else F(0)
            lines.append(f"{word(x)} {fmt(v)}")
    return "\n".join(lines) + "\n"


def _hull_report(leaves: dict[str, F], depth: int) -> str:
    hull = list(leaves.values())  # index = the word read as a binary number
    for bit in range(depth):
        step = 1 << bit
        for i in range(len(hull)):
            if i & step and hull[i ^ step] > hull[i]:
                hull[i] = hull[i ^ step]
    return tsv(("word", "value"), [(x, fmt(v)) for x, v in zip(leaves, hull)])


def deep_build(rng: random.Random) -> list[Request]:
    requests = []
    for d in BUILD_DEPTHS:
        for k, kind in enumerate(BUILD_KINDS):
            stem = f"b{d}k{k}"
            files: dict[str, str] = {}
            test_name = stem + ".test"
            if kind == "convert":
                measure = Bern(rng.choice(COINS))
                files[stem + ".measure"] = measure.spec()
                leaves = _bounded_leaves(rng, measure, d)
                argv = [kind, test_name, "--measure", stem + ".measure"]
                check = same_as(functools.partial(_convert_report, leaves, measure, d))
                files[test_name] = _leaf_file(d, leaves)
            elif kind == "bernoulli-extend":
                leaves = _class_bounded_leaves(rng, d - 1)
                argv = [kind, test_name, "--depth", str(d)]
                check = same_as(functools.partial(_extend_report, leaves, d - 1, d))
                files[test_name] = _leaf_file(d - 1, leaves)
            elif kind == "monotonize":
                leaves = {x: F(rng.randint(0, 8), 4) for x in words(d)}
                argv = [kind, test_name]
                check = same_as(functools.partial(_hull_report, leaves, d))
                files[test_name] = _leaf_file(d, leaves)
            else:
                leaves = {x: F(rng.randint(0, 8), 4) for x in words(d)}
                x = _random_word(rng, rng.randint(1, 3))
                argv = [kind, test_name, x]
                low = min(v for y, v in leaves.items() if y.startswith(x))
                check = same(tsv(("prefix", "value", "bound", "verdict"), [(x, fmt(low), "-", "ok")]))
                files[test_name] = _leaf_file(d, leaves)
            requests.append(Request(kind, f"depth{d}", argv, 0, check, files))
    return requests


# ----------------------------------------------------------------- kernels


def _deficiency_expect(seq: str, measure, entries: set[str], horizon: int, depth: int):
    x = seq[:depth]
    leaves = words(depth)
    every = [y for n in range(depth + 1) for y in words(n)]
    ratio = {t: canonical_mass(t) / measure.mass(t) for t in every}
    running = {"": ratio[""]}
    for t in every[1:]:
        running[t] = running[t[:-1]] + ratio[t]
    rows = []
    sup = F(0)
    for n in range(depth + 1):
        t = x[:n]
        below = [y for y in leaves if y.startswith(t)]
        sup = max(sup, ratio[t])
        tbar = min(running[y] for y in below)
        that = sum((measure.mass(y) * running[y] for y in below), F(0)) / measure.mass(t)
        mono = identity_machine_prob(entries, horizon, t) / measure.mass(t)
        rows.append((word(t), fmt(ratio[t]), fmt(running[t]), fmt(sup), fmt(tbar), fmt(that),
                     fmt(mono), "ok", fmt(running[t] / sup)))
    header = ("prefix", "m_ratio", "sum", "sup", "tbar", "that", "M_ratio", "flag", "sum_over_sup")
    return same(tsv(header, rows))


def _upcrossing_bits(rng, n: int) -> str:
    """Alternating sparse and dense stretches of growing length."""
    bits = []
    length, dense = 8, False
    while len(bits) < n:
        bias = 0.8 if dense else 0.2
        bits.extend("1" if rng.random() < bias else "0" for _ in range(length))
        length, dense = int(length * 1.6) + 1, not dense
    return "".join(bits[:n])


def _certify_test(rng, depth: int, violate: bool) -> tuple[SparseTest, Optional[int]]:
    """Base value b plus disjoint bumps y with heights V chosen against
    M(y) = max_p p^ones (1-p)^zeros.  Bumps with sum (V - b) M <= 3(1 - b)/4
    keep every level average below 1; a bump with (V - b) M = 2(1 - b) pushes
    every level from |y| on above 1 at p = ones/|y|."""
    b = rng.choice([F(1, 4), F(1, 3), F(1, 2), F(2, 3)])
    bumps: list[str] = []
    while len(bumps) < (4 if violate else 3):
        y = _random_word(rng, rng.randint(3, 4) if violate and len(bumps) == 3 else rng.randint(2, 5))
        if not any(y.startswith(z) or z.startswith(y) for z in bumps):
            bumps.append(y)
    listed = {"": b}
    for i, y in enumerate(bumps):
        a, c = y.count("1"), y.count("0")
        peak = F(a ** a * c ** c, (a + c) ** (a + c))
        share = F(2) if i == 3 else F(1, 4)
        listed[y] = b + (1 - b) * share / peak
    return SparseTest(depth, listed), (len(bumps[3]) if violate else None)


def _split_sequences(rng) -> list[str]:
    """Three 12-bit sequences: the first leaves the other two at bit 0, and
    those two part at bit 5.  The search cost depends only on this prefix
    tree and the file order (deficiencies see prefix lengths and which
    sequences share them), so the seed draws the bits and leaves the cost."""
    shared = _random_word(rng, 5)
    flip = {"0": "1", "1": "0"}
    first = flip[shared[0]] + _random_word(rng, 11)
    return [first, shared + "0" + _random_word(rng, 6), shared + "1" + _random_word(rng, 6)]


def kernels(rng: random.Random) -> list[Request]:
    requests = []
    for n, (low, high) in COUPLING_PAIRS.items():
        files = {f"n{n}.low.measure": Bern(low).spec(), f"n{n}.high.measure": Bern(high).spec()}
        lo, hi = f"n{n}.low.measure", f"n{n}.high.measure"
        requests.append(Request("coupling", f"n{n}", ["coupling", lo, hi, "--depth", str(n)], 0,
                                lambda t, a=Bern(low), b=Bern(high), n=n: check_plan(t, a, b, n), files))
        requests.append(Request("coupling", f"n{n}", ["coupling", hi, lo, "--depth", str(n)], 1,
                                lambda t, a=Bern(high), b=Bern(low), n=n: check_upper_set(t, a, b, n), files))
    for h in (7, 8, 9):
        stem = f"h{h}"
        entries = {y for n in range(h + 1) for y in words(n) if rng.random() < 0.5}
        entries.add(_random_word(rng, h))
        measure = Bern(rng.choice(COINS))
        seq = _random_word(rng, 16)
        files = {
            stem + ".machine": "monotone\n" + "".join(f"{word(y)} {word(y)}\n" for y in sorted(entries)),
            stem + ".measure": measure.spec(),
            stem + ".seq": seq + "\n",
        }
        argv = ["deficiency", stem + ".seq", "--measure", stem + ".measure", "--machine", stem + ".machine", "--depth", "4"]
        requests.append(Request("deficiency", f"copy{h}", argv, 0, _deficiency_expect(seq, measure, entries, h, 4), files))
    for bits in (1000, 1500, 2000, 2500):
        name = f"u{bits}.seq"
        omega = _upcrossing_bits(rng, bits)
        alpha, beta = rng.choice([(F(2, 5), F(3, 5)), (F(1, 3), F(2, 3)), (F(3, 10), F(1, 2))])
        count = upcrossings(omega, "1", alpha, beta)
        expected = tsv(("block", "alpha", "beta", "count"), [("1", fmt(alpha), fmt(beta), str(count))])
        argv = ["upcrossings", name, "1", fmt(alpha), fmt(beta)]
        requests.append(Request("upcrossings", f"bits{bits}", argv, 0, same(expected), {name: omega + "\n"}))
    for depth in (8, 9, 10):
        name = f"cert{depth}.test"
        test, rejected_from = _certify_test(rng, depth, violate=depth == 9)
        requests.append(Request("certify-bernoulli", "", ["certify-bernoulli", name], 0 if rejected_from is None else 1,
                                lambda t, s=test, r=rejected_from: check_certify(t, s, r), {name: test.text()}))
    for n in (4, 5):
        requests.append(Request("urn-check", "", ["urn-check", str(n)], 0, lambda t, n=n: check_urn(t, n)))
    for resolution in (24, 36, 48):
        seqs = _split_sequences(rng)
        files = {f"r{resolution}.{i}.seq": s + "\n" for i, s in enumerate(seqs)}
        argv = ["neutral", *files, "--depth", "8", "--resolution", str(resolution)]
        requests.append(Request("neutral", "", argv, 0, lambda t, s=seqs, r=resolution: check_neutral(t, s, 8, r), files))
    return requests


def compute(rng: random.Random) -> list[Request]:
    """Every request whose own work dwarfs the CLI: the read path
    (`deep_check`) and the build path (`deep_build`) over 2^depth prefix
    tables, and the combinatorial `kernels`, in one mix.  One workload
    rather than three, so that a run can be long enough to average out
    the host's drift within the benchmark's time budget."""
    return deep_check(rng) + deep_build(rng) + kernels(rng)


WORKLOADS = {"battery": battery, "compute": compute}
