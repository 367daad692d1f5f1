"""Exact reference arithmetic that the benchmark checks randlab's reports against.

Nothing here imports randlab.  Every expected value is derived from how an
input was built (a Bernoulli parameter, a sparse weight listing, an identity
machine) with the benchmark's own `Fraction` arithmetic, so a report passes
only if it agrees with an independent computation.  Report text that carries
no witness is rebuilt here byte for byte; witness rows (coupling plans,
upper sets, Sturm witnesses, probability-bound thresholds, martingale
failures, neutral cells) are checked for what they claim, not for their
bytes, because a correct change may pick a different witness.
"""
from __future__ import annotations

import itertools
from fractions import Fraction as F
from math import comb
from typing import Iterable, Optional, Sequence


def fmt(v: F) -> str:
    v = F(v)
    return f"{v.numerator}/{v.denominator}"


def word(x: str) -> str:
    return x if x else "-"


def tsv(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    return "\n".join(["\t".join(header)] + ["\t".join(map(str, r)) for r in rows]) + "\n"


def words(n: int) -> list[str]:
    return ["".join(bits) for bits in itertools.product("01", repeat=n)]


def rows_of(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.split("\n")
    if not text.endswith("\n") or not lines[0]:
        raise ValueError("report is not newline-terminated TSV")
    cells = [line.split("\t") for line in lines[:-1]]
    return cells[0], cells[1:]


def parse_fraction(token: str) -> F:
    num, den = token.split("/")
    return F(int(num), int(den))


def leq(x: str, y: str) -> bool:
    return len(x) == len(y) and all(a <= b for a, b in zip(x, y))


# ---------------------------------------------------------------- measures


class Bern:
    """Bernoulli(p): mass(x) = p^ones (1-p)^zeros."""

    def __init__(self, p: F):
        self.p = F(p)
        self._cache: dict[tuple[int, int], F] = {}

    def mass(self, x: str) -> F:
        key = (x.count("1"), len(x))
        if key not in self._cache:
            ones, n = key
            self._cache[key] = self.p ** ones * (1 - self.p) ** (n - ones)
        return self._cache[key]

    def spec(self) -> str:
        return f"bernoulli {fmt(self.p)}\n"


class Mix:
    """Convex combination of Bernoulli measures."""

    def __init__(self, parts: Sequence[tuple[F, Bern]]):
        self.parts = [(F(w), b) for w, b in parts]
        assert sum(w for w, _ in self.parts) == 1

    def mass(self, x: str) -> F:
        return sum((w * b.mass(x) for w, b in self.parts), F(0))


class LeafTable:
    """A measure given by a few positive leaf masses at one depth."""

    def __init__(self, depth: int, leaves: dict[str, F]):
        assert sum(leaves.values()) == 1 and all(len(x) == depth for x in leaves)
        self.depth = depth
        self.leaves = leaves
        self._cache: dict[str, F] = {}

    def mass(self, x: str) -> F:
        if x not in self._cache:
            self._cache[x] = sum(
                (v for y, v in self.leaves.items() if y.startswith(x)), F(0)
            )
        return self._cache[x]

    def spec(self) -> str:
        lines = [f"table {self.depth}"] + [f"{y} {fmt(v)}" for y, v in sorted(self.leaves.items())]
        return "\n".join(lines) + "\n"


# ------------------------------------------------------------------- tests


class SparseTest:
    """A test file's listing and its closure: an unlisted prefix takes the
    maximum over its listed ancestors, 0 when there is none."""

    def __init__(self, depth: int, listed: dict[str, F]):
        self.depth = depth
        self.listed = {x: F(v) for x, v in listed.items()}
        self._nodes = sorted(set(self.listed) | {""}, key=lambda w: (len(w), w))

    def text(self) -> str:
        lines = [f"test {self.depth}"]
        lines += [f"{word(x)} {fmt(v)}" for x, v in sorted(self.listed.items(), key=lambda kv: (len(kv[0]), kv[0]))]
        return "\n".join(lines) + "\n"

    def value(self, x: str) -> F:
        best = F(0)
        for k in range(len(x) + 1):
            v = self.listed.get(x[:k])
            if v is not None and v > best:
                best = v
        return best

    def increments(self):
        """(z, T(z) - T(parent of z)) for listed z != "", nonzero ones only."""
        for z in self._nodes:
            if z:
                step = self.value(z) - self.value(z[:-1])
                if step:
                    yield z, step

    def integral(self, measure, x: str = "", level: Optional[int] = None) -> F:
        """Sum of P(y) T(y) over the words y of length `level` (default: the
        test depth) that extend x."""
        level = self.depth if level is None else level
        total = measure.mass(x) * self.value(x)
        for z, step in self.increments():
            if len(x) < len(z) <= level and z.startswith(x):
                total += measure.mass(z) * step
        return total

    def pieces(self, measure):
        """(value, leaf count, leaf mass) for the regions between listed nodes."""
        out = []
        for y in self._nodes:
            below = [z for z in self._nodes if len(z) > len(y) and z.startswith(y)]
            maximal = [z for z in below if not any(len(w) < len(z) and z.startswith(w) for w in below)]
            count = 2 ** (self.depth - len(y)) - sum(2 ** (self.depth - len(z)) for z in maximal)
            mass = measure.mass(y) - sum((measure.mass(z) for z in maximal), F(0))
            if count > 0:
                out.append((self.value(y), count, mass))
        return out

    def sparsity(self, x: str) -> F:
        """min T(y) over leaves y whose first |x| bits dominate x."""

        def best(u: str) -> F:
            if len(u) == self.depth or not any(z.startswith(u) and len(z) > len(u) for z in self.listed):
                return self.value(u)
            allowed = "1" if len(u) < len(x) and x[len(u)] == "1" else "01"
            return min(best(u + b) for b in allowed)

        return best("")


def validate_rows(test: SparseTest, measure) -> list[tuple[str, str, str, str]]:
    rows = []
    for k in range(test.depth + 1):
        avg = test.integral(measure, "", k)
        rows.append((f"len={k}", fmt(avg), "1/1", "pass" if avg <= 1 else "fail"))
    return rows


# -------------------------------------------------------------- conversions


def convert_value(t: F) -> F:
    """t/4 below 4, t/log2(t)^2 at powers of two, t/ceil(log2 t)^2 otherwise."""
    if t < 4:
        return t / 4
    if t.denominator == 1 and t.numerator & (t.numerator - 1) == 0:
        log = t.numerator.bit_length() - 1
    else:
        log = (-(-t.numerator // t.denominator) - 1).bit_length()
    return t / (log * log)


CONVERT_AVG_BOUND = sum((F(2, i * i) for i in range(1, 51)), F(0)) + F(2, 50)


def upcrossings(omega: str, x: str, alpha: F, beta: F) -> int:
    hits = 0
    count = 0
    armed = False
    for n in range(1, len(omega) - len(x) + 2):
        if omega[n - 1 : n - 1 + len(x)] == x:
            hits += 1
        value = F(hits, n)
        if not armed:
            armed = value < alpha
        elif value > beta:
            count += 1
            armed = False
    return count


def canonical_mass(t: str) -> F:
    """Output mass of randlab's default prefix machine: 1^L 0 x -> x, L <= 6."""
    return F(1, 2 ** (2 * len(t) + 1)) if len(t) <= 6 else F(0)


def identity_machine_prob(entries: set[str], horizon: int, t: str) -> F:
    """Coin-flip probability that an identity machine's output extends t:
    some entry e with t <= e must prefix the input; every output extends ""."""
    if t in entries or not t:
        return F(1, 2 ** len(t))
    if len(t) >= horizon:
        return F(0)
    return identity_machine_prob(entries, horizon, t + "0") + identity_machine_prob(entries, horizon, t + "1")


def hypergeom(N: int, K: int, x: str) -> F:
    prob = F(1)
    ones, zeros = K, N - K
    for i, bit in enumerate(x):
        left = ones if bit == "1" else zeros
        if left == 0:
            return F(0)
        prob *= F(left, N - i)
        if bit == "1":
            ones -= 1
        else:
            zeros -= 1
    return prob


def level_poly(test: SparseTest, n: int) -> list[F]:
    """Ascending coefficients of sum_x T(x) p^ones (1-p)^zeros over |x| = n."""
    by_ones = [F(test.value("")) * comb(n, k) for k in range(n + 1)]
    for z, step in test.increments():
        if len(z) <= n:
            a = z.count("1")
            for k in range(a, a + n - len(z) + 1):
                by_ones[k] += step * comb(n - len(z), k - a)
    coeffs = [F(0)] * (n + 1)
    for k, s in enumerate(by_ones):
        for j in range(n - k + 1):
            coeffs[k + j] += s * comb(n - k, j) * (-1) ** j
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def poly_at(coeffs: Sequence[F], p: F) -> F:
    acc = F(0)
    for c in reversed(coeffs):
        acc = acc * p + c
    return acc


# ------------------------------------------------------- witness checkers
# Each returns None when the report holds, else the reason it does not.


def check_plan(text: str, P, Q, n: int) -> Optional[str]:
    """A transport plan: pairs x <= y whose marginals are P and Q on level n."""
    header, rows = rows_of(text)
    if header != ["x", "y", "flow"] or not rows:
        return "not a coupling plan"
    out_sum = {x: F(0) for x in words(n)}
    in_sum = {y: F(0) for y in words(n)}
    seen = set()
    for x, y, v in rows:
        flow = parse_fraction(v)
        if x not in out_sum or y not in in_sum or not leq(x, y) or flow <= 0 or (x, y) in seen:
            return f"bad plan row {x} {y} {v}"
        seen.add((x, y))
        out_sum[x] += flow
        in_sum[y] += flow
    for x in out_sum:
        if out_sum[x] != P.mass(x):
            return f"plan row sum at {x} is {fmt(out_sum[x])}, P gives {fmt(P.mass(x))}"
    for y in in_sum:
        if in_sum[y] != Q.mass(y):
            return f"plan column sum at {y} is {fmt(in_sum[y])}, Q gives {fmt(Q.mass(y))}"
    return None


def check_upper_set(text: str, P, Q, n: int) -> Optional[str]:
    """A certificate: an up-closed set U on level n with P(U) > Q(U)."""
    header, rows = rows_of(text)
    if header != ["upper_set_word", "P(U)", "Q(U)"] or not rows:
        return "not an upper-set certificate"
    upper = {r[0] for r in rows}
    if len(upper) != len(rows) or not upper <= set(words(n)):
        return "certificate words are not distinct level-n words"
    for y in upper:
        for i, bit in enumerate(y):
            if bit == "0" and y[:i] + "1" + y[i + 1 :] not in upper:
                return f"certificate is not up-closed at {y}"
    p_u = sum((P.mass(y) for y in upper), F(0))
    q_u = sum((Q.mass(y) for y in upper), F(0))
    if any(r[1] != fmt(p_u) or r[2] != fmt(q_u) for r in rows):
        return "reported P(U), Q(U) differ from the recomputed masses"
    if not p_u > q_u:
        return f"P(U) = {fmt(p_u)} does not exceed Q(U) = {fmt(q_u)}"
    return None


def check_martingale_failures(text: str, test: SparseTest, measure, mode: str) -> Optional[str]:
    """Every failing prefix is listed, and each listed row really fails."""
    header, rows = rows_of(text)
    if header != ["prefix", "lhs", "rhs", "verdict"]:
        return "not a martingale report"
    expected = []
    for k in range(test.depth):
        for x in words(k):
            lhs = measure.mass(x) * test.value(x)
            rhs = sum((measure.mass(x + b) * test.value(x + b) for b in "01"), F(0))
            if (lhs != rhs) if mode == "martingale" else (lhs < rhs):
                expected.append([word(x), fmt(lhs), fmt(rhs), f"{mode}:fail"])
    if not expected:
        return "benchmark input has no failure to report"
    if rows != expected:
        return "martingale failure rows differ from the recomputed failures"
    return None


def check_certify(text: str, test: SparseTest, rejected_from: Optional[int]) -> Optional[str]:
    """Per level: the level polynomial's degree, the verdict known from the
    construction, and for a rejection a p in [0, 1] with average > 1."""
    header, rows = rows_of(text)
    if header != ["level", "degree", "verdict", "witness"] or len(rows) != test.depth + 1:
        return "not a certification report"
    for n, (level, degree, verdict, witness) in enumerate(rows):
        coeffs = level_poly(test, n)
        if level != str(n) or degree != str(max(len(coeffs) - 1, 0)):
            return f"level {n}: bad level or degree column"
        rejected = rejected_from is not None and n >= rejected_from
        if verdict != ("rejected" if rejected else "certified"):
            return f"level {n}: verdict {verdict} contradicts the construction"
        if not rejected:
            if witness != "-":
                return f"level {n}: certified level carries a witness"
            continue
        p = parse_fraction(witness)
        if not 0 <= p <= 1 or not poly_at(coeffs, p) > 1:
            return f"level {n}: witness p = {witness} does not push the average above 1"
    return None


def check_prob_witness(row: Sequence[str], test: SparseTest, measure) -> Optional[str]:
    """`witness-N=<N>  P{T > N}  1/N  fail` with P{T > N} > 1/N."""
    if len(row) != 4 or not row[0].startswith("witness-N=") or row[3] != "fail":
        return "missing probability-bound witness row"
    n_value = parse_fraction(row[0][len("witness-N="):])
    if n_value <= 0:
        return "witness N is not positive"
    tail = sum((m for v, _, m in test.pieces(measure) if v > n_value), F(0))
    if row[1] != fmt(tail) or row[2] != fmt(1 / n_value):
        return "witness tail or bound differs from the recomputed values"
    if not tail > 1 / n_value:
        return f"P{{T > {fmt(n_value)}}} = {fmt(tail)} does not exceed 1/N"
    return None


def mixture_deficiency(weights: Sequence[F], seqs: Sequence[str], i: int, depth: int) -> Optional[F]:
    total = F(0)
    for k in range(depth + 1):
        t = seqs[i][:k]
        m = canonical_mass(t)
        if m == 0:
            continue
        mix = sum((w for w, s in zip(weights, seqs) if s.startswith(t)), F(0))
        if mix == 0:
            return None
        total += m / mix
    return total


def check_neutral(text: str, seqs: Sequence[str], depth: int, resolution: int) -> Optional[str]:
    """A fully labelled cell of diameter 2(k-1)/r: each vertex is a grid
    mixture, labels cover every sequence, and the labelled sequence is
    supported there with deficiency at most 1."""
    header, rows = rows_of(text)
    k = len(seqs)
    if header != ["weights", "label", "value", "diameter"] or len(rows) != k:
        return "not a neutral cell report"
    diameter = F(2 * (k - 1), resolution)
    vertices = []
    for weights_text, label, value, diam in rows:
        weights = [parse_fraction(w) for w in weights_text.split(",")]
        i = int(label)
        if len(weights) != k or sum(weights) != 1 or any(w < 0 or (w * resolution).denominator != 1 for w in weights):
            return f"vertex {weights_text} is not a resolution-{resolution} grid mixture"
        if diam != fmt(diameter) or not 0 <= i < k or weights[i] == 0:
            return f"vertex {weights_text}: bad diameter or unsupported label"
        expect = mixture_deficiency(weights, seqs, i, depth)
        if expect is None or value != fmt(expect) or expect > 1:
            return f"vertex {weights_text}: deficiency {value} is not a certified value <= 1"
        vertices.append((weights, i))
    if {i for _, i in vertices} != set(range(k)):
        return "cell is not fully labelled"
    for a, _ in vertices:
        for b, _ in vertices:
            if sum(abs(u - v) for u, v in zip(a, b)) > diameter:
                return "cell is wider than its stated diameter"
    return None


def check_urn(text: str, n: int) -> Optional[str]:
    """The n^2-urn bound: factor, maximal ratio, an argmax attaining it, pass."""
    N = n * n
    factor = F(N, N - n) ** n
    best = F(0)
    holds = True
    for K in range(N + 1):
        coin = Bern(F(K, N))
        for x in words(n):
            hyper, bern = hypergeom(N, K, x), coin.mass(x)
            holds = holds and hyper <= factor * bern
            if bern > 0 and hyper / bern > best:
                best = hyper / bern
    header, rows = rows_of(text)
    if header != ["n", "factor", "max_ratio", "argmax", "verdict"] or len(rows) != 1:
        return "not an urn report"
    got_n, got_factor, got_max, argmax, verdict = rows[0]
    if [got_n, got_factor, got_max, verdict] != [str(n), fmt(factor), fmt(best), "pass" if holds else "fail"]:
        return "urn factor, maximum or verdict differs from the recomputation"
    k_part, x_part = argmax.split(",")
    K, x = int(k_part[2:]), x_part[2:]
    bern = Bern(F(K, N)).mass(x)
    if bern == 0 or hypergeom(N, K, x) / bern != best:
        return f"argmax {argmax} does not attain the maximal ratio"
    return None
