"""randlab benchmark: verdict workloads through `randlab.cli.main`, in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; randlab is imported from `src/`.  One client
sends requests in a closed loop: each `cli.main(argv)` call starts after
the previous one returned and its report was checked.  Inputs are generated
from the seed into `.perfbench_work/<workload>/`; the program sees only those
files.  The loop sends whole rounds, each a seeded shuffle of the workload's
requests, for about `--seconds` of wall time and at least 100 requests.

`--trace 0` reports the end-to-end metrics; `--trace 1` runs each request
twice, once plain and once with spans around every layer, and reports the
per-layer metrics.  The last line of standard output is one JSON object.
See perfbench/README.md for the workloads and what each metric should show.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction as F

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from reference import Bern, check_plan, check_upper_set  # noqa: E402
from spans import COUNTER_NAMES, LAYERS  # noqa: E402
from workloads import GOLDEN, WORKLOADS  # noqa: E402

WORKDIR = ".perfbench_work"
MIN_REQUESTS = 100
SETUP_SAMPLES = 3

END_TO_END = {
    "verdicts_per_s": "1/s",
    "verdict_p50_ms": "ms",
    "verdict_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: Size-swept parameters: layer -> growth tags whose self time is reported.
GROWTH = {
    "coupling": ("n5", "n6", "n7"),
    "machines": ("copy7", "copy8", "copy9"),
    "measures": ("bits1000", "bits1500", "bits2000", "bits2500", "depth10", "depth11", "depth12", "depth13"),
    "randtests": ("depth10", "depth11", "depth12", "depth13"),
}
COUNTER_UNITS = {"formats.bytes_in": "bytes", "formats.bytes_out": "bytes"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in LAYERS:
        units.update({f"{layer}.calls": "count", f"{layer}.self_ms": "ms", f"{layer}.share": "ratio", f"{layer}.errors": "count"})
    units.update({name: COUNTER_UNITS.get(name, "count") for name in COUNTER_NAMES})
    units.update({"unattributed.share": "ratio", "trace_overhead_pct": "%"})
    units.update({f"{layer}.self_ms.{tag}": "ms" for layer, tags in GROWTH.items() for tag in tags})
    return units


# ------------------------------------------------------------------ running


class Runner:
    """Sends one request through `cli.main` and checks what came back."""

    def __init__(self, cli, workdir: str):
        self.cli = cli  # `cli.main` is looked up per call, so installed spans see it
        self.out = os.path.join(workdir, "report.tsv")

    def run(self, request) -> tuple[int, str | None]:
        """(wall time in ns, failure reason or None)."""
        if os.path.exists(self.out):
            os.remove(self.out)
        argv = request.argv + ["--out", self.out]
        start = time.perf_counter_ns()
        try:
            code = self.cli.main(argv)
        except Exception as exc:  # a crash is a failed request, not the end of the run
            elapsed = time.perf_counter_ns() - start
            return elapsed, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter_ns() - start
        return elapsed, self.verify(request, code)

    def verify(self, request, code) -> str | None:
        try:
            with open(self.out, encoding="ascii") as fh:
                text = fh.read()
        except OSError:
            text = None
        return judge(request, code, text)


def judge(request, code, text: str | None) -> str | None:
    """None when the exit code and the report are what the input implies."""
    if code != request.expect_exit:
        return f"exit {code}, expected {request.expect_exit}"
    if text is None:
        return "no report written"
    try:
        return request.check(text)
    except (ValueError, IndexError, KeyError, ZeroDivisionError) as exc:
        return f"malformed report: {exc}"


def set_up(workload: str, seed: int):
    """Import randlab, generate and write the inputs, warm up each kind once."""
    from randlab import cli

    requests = WORKLOADS[workload](random.Random(seed))
    workdir = os.path.join(WORKDIR, workload)
    os.makedirs(workdir, exist_ok=True)
    written: dict[str, str] = {}
    for request in requests:
        for name, content in request.files.items():
            if name not in written:
                written[name] = os.path.join(workdir, name)
                with open(written[name], "w", encoding="ascii", newline="\n") as fh:
                    fh.write(content)
        request.argv = [written.get(a, a) for a in request.argv]
    runner = Runner(cli, workdir)
    warm = {}
    for request in requests:
        warm.setdefault(request.kind, request)
    for request in warm.values():
        runner.run(request)
    return requests, runner


def peak_rss_mb() -> float:
    """This process's resident high-water mark.  `ru_maxrss` is not used: it
    survives exec, so it would include the memory of whatever spawned us."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Wall time of fresh processes that each do the whole set-up and exit."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed), "--setup-only"],
            capture_output=True, timeout=150,
        )
        samples.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"set-up process failed: {done.stderr.decode(errors='replace')}")
    return samples


def rounds(requests, seconds: float, rng: random.Random, sent):
    """Seeded shuffles of `requests`, one per round, for about `seconds` of
    wall time: the next round starts only if it is expected to end less than
    half a round past the deadline, or while fewer than MIN_REQUESTS were
    sent (`sent()` counts them)."""
    start = time.perf_counter()
    done = 0
    while True:
        elapsed = time.perf_counter() - start
        if done and sent() >= MIN_REQUESTS and elapsed + elapsed / done / 2 >= seconds:
            return
        batch = list(requests)
        rng.shuffle(batch)
        yield batch
        done += 1


def closed_loop(requests, runner: Runner, seconds: float, rng: random.Random):
    """Whole rounds for about `seconds`, with at least MIN_REQUESTS requests."""
    times, failures = [], []
    for batch in rounds(requests, seconds, rng, lambda: len(times)):
        for request in batch:
            elapsed, reason = runner.run(request)
            times.append(elapsed)
            if reason:
                failures.append(f"{request.kind} {request.size}: {reason}")
    return times, failures


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    setup = setup_seconds(workload, seed)
    requests, runner = set_up(workload, seed)
    problems = self_check()
    times, failures = closed_loop(requests, runner, seconds, random.Random(seed))
    ms = [t / 1e6 for t in times]
    values = {
        "verdicts_per_s": (len(times) - len(failures)) / (sum(times) / 1e9),
        "verdict_p50_ms": statistics.median(ms),
        "verdict_p90_ms": statistics.quantiles(ms, n=10)[8],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(),
    }
    print(f"{workload}: seed {seed}, {len(times)} requests, {len(failures)} failed, "
          f"failed_ratio {len(failures) / len(times):.4f}, p90 over {len(times)} samples, "
          f"set-up samples {', '.join(f'{s:.3f}' for s in setup)} s")
    for name, unit in END_TO_END.items():
        print(f"  {name:16s} {values[name]:12.4f} {unit}")
    return result(problems, failures, len(times), {n: (values[n], u) for n, u in END_TO_END.items()})


def traced(workload: str, seed: int, seconds: float) -> dict:
    from spans import Tracer

    requests, runner = set_up(workload, seed)
    problems = self_check()
    tracer = Tracer()
    tracer.install()
    problems += [f"binding left unwrapped: {b}" for b in tracer.unwrapped_bindings()]
    tracer.uninstall()
    plain, traced_ns, tags, failures = [], [], [], []
    for batch in rounds(requests, seconds, random.Random(seed), lambda: len(traced_ns)):
        for request in batch:
            order = (False, True) if len(traced_ns) % 2 == 0 else (True, False)
            for with_spans in order:
                if with_spans:
                    tracer.request = len(traced_ns)
                    tracer.install()
                    elapsed, reason = runner.run(request)
                    tracer.uninstall()
                    traced_ns.append(elapsed)
                    tags.append(request.size)
                else:
                    elapsed, reason = runner.run(request)
                    plain.append(elapsed)
                if reason:
                    failures.append(f"{request.kind} {request.size}: {reason}")
    values, span_problems = layer_metrics(tracer, traced_ns, plain, tags)
    problems += span_problems
    tracer.write(os.path.join(WORKDIR, workload, "spans.tsv"))
    units = per_layer_units()
    print(f"{workload}: seed {seed}, {len(traced_ns)} traced requests ({len(tracer.spans)} spans), "
          f"{len(failures)} failed")
    for layer in LAYERS:
        print(f"  {layer:10s} calls {values[layer + '.calls']:10.1f}  self {values[layer + '.self_ms']:9.3f} ms"
              f"  share {values[layer + '.share']:.4f}  errors {values[layer + '.errors']:.1f}")
    for name in list(units)[4 * len(LAYERS):]:
        print(f"  {name:28s} {values[name]:14.4f} {units[name]}")
    return result(problems, failures, 2 * len(traced_ns), {n: (values[n], u) for n, u in units.items()})


def layer_metrics(tracer, traced_ns: list[int], plain: list[int], tags: list[str]):
    """Per request averages of span counts and self times, by layer."""
    own = tracer.self_times()
    layer_of = [site.split(".")[0] for site in tracer.sites]
    calls, errors, self_ns = defaultdict(int), defaultdict(int), defaultdict(int)
    by_request = defaultdict(lambda: defaultdict(int))
    covered = defaultdict(int)
    problems = []
    for i, (site, parent, start, end, raised, request) in enumerate(tracer.spans):
        layer = layer_of[site]
        calls[layer] += 1
        errors[layer] += raised
        self_ns[layer] += own[i]
        by_request[request][layer] += own[i]
        if parent < 0:
            covered[request] += end - start
        if own[i] < 0:
            problems.append(f"span {i} ({tracer.sites[site]}) is shorter than its children")
    total = sum(traced_ns)
    unattributed = sum(t - covered[r] for r, t in enumerate(traced_ns))
    if any(t < covered[r] for r, t in enumerate(traced_ns)):
        problems.append("spans extend past their request")
    if sum(self_ns.values()) + unattributed != total:
        problems.append("layer self times and unattributed time do not add up to the request time")
    n = len(traced_ns)
    values = {}
    for layer in LAYERS:
        values[f"{layer}.calls"] = calls[layer] / n
        values[f"{layer}.self_ms"] = self_ns[layer] / n / 1e6
        values[f"{layer}.share"] = self_ns[layer] / total
        values[f"{layer}.errors"] = errors[layer] / n
    for name in COUNTER_NAMES:
        values[name] = tracer.counts[name] / n
    values["unattributed.share"] = unattributed / total
    values["trace_overhead_pct"] = (total / sum(plain) - 1) * 100
    for layer, sizes in GROWTH.items():
        for tag in sizes:
            hits = [r for r in range(n) if tags[r] == tag]
            mean = sum(by_request[r][layer] for r in hits) / len(hits) / 1e6 if hits else 0.0
            values[f"{layer}.self_ms.{tag}"] = mean
    return values, problems


def result(problems, failures, attempted: int, metrics: dict) -> dict:
    for line in (problems + failures)[:20]:
        print(f"  FAILED {line}")
    return {
        "correct": not problems and not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


# -------------------------------------------------------------- self-check


def self_check() -> list[str]:
    """Corrupted reports must fail verification, and their originals pass.

    The originals are a demo report and coupling witnesses worked out by
    hand for level 1: Bernoulli(1/3) couples below Bernoulli(1/2) through
    0->0 1/2, 0->1 1/6, 1->1 1/3; the reverse is refuted by U = {1}.
    """
    from workloads import battery

    flat = next(r for r in battery(random.Random(0)) if r.argv[:2] == ["validate-test", "flat.test"])
    with open(os.path.join(GOLDEN, "validate_test_flat.tsv"), encoding="ascii") as fh:
        report = fh.read()
    third, half = Bern(F(1, 3)), Bern(F(1, 2))
    plan = "x\ty\tflow\n0\t0\t1/2\n0\t1\t1/6\n1\t1\t1/3\n"
    upper = "upper_set_word\tP(U)\tQ(U)\n1\t1/2\t1/3\n"
    everything = "upper_set_word\tP(U)\tQ(U)\n0\t1/1\t1/1\n1\t1/1\t1/1\n"
    ok = flat.expect_exit
    cases = [  # (corruption, verdict on the original, verdict on the corrupted copy)
        ("flipped verdict row", judge(flat, ok, report), judge(flat, ok, report.replace("pass", "fail", 1))),
        ("flipped exit code", judge(flat, ok, report), judge(flat, 1 - ok, report)),
        ("wrong plan marginal", check_plan(plan, third, half, 1), check_plan(plan.replace("1/6", "1/5"), third, half, 1)),
        ("upper set with P(U) <= Q(U)", check_upper_set(upper, half, third, 1), check_upper_set(everything, half, third, 1)),
    ]
    problems = []
    for name, sound, corrupted in cases:
        if sound is not None:
            problems.append(f"self-check: the original behind '{name}' fails: {sound}")
        if corrupted is None:
            problems.append(f"self-check: a report with a {name} passes")
    print(f"verifier self-check: {sum(c[2] is not None for c in cases)}/{len(cases)} corruptions caught")
    return problems


# --------------------------------------------------------------------- main


def run_all(args) -> int:
    """Every workload in its own process; one row per workload."""
    rows = {}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        rows[workload] = json.loads(done.stdout.strip().splitlines()[-1])
    names = list(next(iter(rows.values()))["metrics"])
    units = {n: rows[next(iter(rows))]["metrics"][n]["unit"] for n in names}
    if args.trace:
        print(f"\n{'metric':34s}" + "".join(f"{w:>13s}" for w in rows))
        for n in names:
            print(f"{n + ' (' + units[n] + ')':34s}" + "".join(f"{r['metrics'][n]['value']:13.4f}" for r in rows.values()))
    else:
        print(f"\n{'workload':12s}" + "".join(f"{n + ' (' + units[n] + ')':>24s}" for n in names) + f"{'failed_ratio':>14s}")
        for workload, r in rows.items():
            cells = "".join(f"{r['metrics'][n]['value']:24.4f}" for n in names)
            print(f"{workload:12s}{cells}{r['failed'] / r['attempted']:14.4f}")
    combined = {f"{w}.{n}": v for w, r in rows.items() for n, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in rows.values()),
        "attempted": sum(r["attempted"] for r in rows.values()),
        "failed": sum(r["failed"] for r in rows.values()),
        "metrics": combined,
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "randlab", "cli.py")):
        sys.stderr.write("perfbench: run from the repository root; src/randlab is missing\n")
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        set_up(args.workload, args.seed)
        return 0
    measure = traced if args.trace else end_to_end
    print(json.dumps(measure(args.workload, args.seed, args.seconds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
