"""Command-line entry point.

Exit codes: 0 when every asserted property holds, 1 for a certified
violation (the report carries a machine-checkable witness), 2 for usage,
parse, or capability errors, 3 for an internal failure (a broken invariant
or any other unexpected exception), reported as one stderr line.  Output is
TSV with a header row, on stdout or `--out`, and is byte-for-byte
deterministic for identical inputs.

Each subcommand is one row of `SUBCOMMANDS`: a help line, its argument
specs, and a `run(args)` that returns `(header, rows, ok)`.  `main` is the
one place that renders a report, writes it, and maps `ok` to an exit code.
"""
from __future__ import annotations

import argparse
import sys

from . import bernoulli as bl
from . import coupling as cp
from . import neutral as nt
from . import randtests as rt
from . import separator as sp
from .exact import fmt, fmt_ratio, parse_rational
from .formats import (
    ParseError,
    format_values,
    format_word,
    parse_machine_file,
    parse_measure_spec_file,
    parse_sequence_file,
    parse_test_file,
    parse_word,
    render_test_file,
    render_tsv,
)
from .machines import (
    MachineError,
    MonotoneMachine,
    PrefixMachine,
    canonical_machine,
    kp_of,
    semimeasure_table,
    semimeasure_total,
)
from .measures import CapabilityError, MeasureError, _words, count_upcrossings, realize

OK, VIOLATION, USAGE, INTERNAL = 0, 1, 2, 3

VERDICT = ("prefix", "value", "bound", "verdict")
UPPER_SET = ("upper_set_word", "P(U)", "Q(U)")

# Argument specs: a bare name is a positional argument, otherwise (flag, options).
OUT = ("--out", {"help": "write the report to this path"})
MEASURE = ("--measure", {"required": True, "help": "measure spec file"})
DEPTH = ("--depth", {"type": int, "default": None})
NEEDS_DEPTH = ("--depth", {"type": int, "required": True})
MACHINE = ("--machine", {"action": "append", "help": "machine table file"})
MODE = ("--mode", {"choices": ("martingale", "supermartingale"), "default": "martingale"})


def _validate_measure(args):
    spec = parse_measure_spec_file(args.spec)
    try:
        measure = realize(spec, args.depth)
    except MeasureError as exc:
        return VERDICT, [(format_word(exc.prefix or ""), "-", "-", "fail")], False
    sums = [fmt_ratio(sum(row), den) for row, den in zip(measure.nums, measure.dens)]
    return VERDICT, [(f"len={n}", total, fmt(1), "pass") for n, total in enumerate(sums)], True


def _validate_test(args):
    test = parse_test_file(args.test)
    depth = args.depth if args.depth is not None else test.depth
    verdict = rt.validate_extended_test(test, realize(parse_measure_spec_file(args.measure), depth))
    return VERDICT, verdict.rows, verdict.ok


def _deficiency(args):
    sequence = parse_sequence_file(args.sequence)
    prefix_machine, monotone_machine = None, None
    for machine in map(parse_machine_file, args.machine or []):
        if isinstance(machine, PrefixMachine):
            prefix_machine = machine
        else:
            monotone_machine = machine
    if prefix_machine is None:
        prefix_machine = canonical_machine()
    depth = args.depth if args.depth is not None else min(len(sequence), 6)
    if len(sequence) < depth:
        raise ParseError("sequence shorter than the requested depth")
    measure = realize(parse_measure_spec_file(args.measure), depth)
    profile = rt.deficiency_profile(prefix_machine, monotone_machine, measure, sequence[:depth])
    header = ("prefix", "m_ratio", "sum", "sup", "tbar", "that", "M_ratio", "flag", "sum_over_sup")
    return header, profile.tsv_rows(), True


def _min_extension(args):
    test = parse_test_file(args.test)
    x = parse_word(args.prefix)
    return VERDICT, [(format_word(x), fmt(rt.min_extension(test, x)), "-", "ok")], True


def _cond_average(args):
    test = parse_test_file(args.test)
    x = parse_word(args.prefix)
    measure = realize(parse_measure_spec_file(args.measure), test.depth)
    value = rt.conditional_average(test, measure, x)
    flagged = measure.mass(x) == 0 and value == 0
    return VERDICT, [(format_word(x), fmt(value), "-", "flagged" if flagged else "ok")], True


def _martingale(args):
    test = parse_test_file(args.g)
    measure = realize(parse_measure_spec_file(args.measure), test.depth)
    report = rt.martingale_check(test, measure, args.mode)
    return ("prefix", "lhs", "rhs", "verdict"), report.tsv_rows(), report.ok


def _prob_check(args):
    test = parse_test_file(args.test)
    verdict = rt.prob_bound_check(test, realize(parse_measure_spec_file(args.measure), test.depth))
    rows = list(verdict.rows)
    if verdict.witness is not None:
        n_value, tail = verdict.witness
        rows.append((f"witness-N={fmt(n_value)}", fmt(tail), fmt(1 / n_value), "fail"))
    return VERDICT, rows, verdict.ok


def _convert(args):
    test = parse_test_file(args.test)
    measure = realize(parse_measure_spec_file(args.measure), test.depth)
    converted, report = rt.prob_to_avg_convert(test, measure)
    rows = [(x, v, "-", "value") for x, v in format_values(converted)]
    return VERDICT, rows + report.tsv_rows(), report.ok


def _bernoulli_validate(args):
    test = parse_test_file(args.test)
    verdict = bl.validate_combinatorial_test(test, test.depth)
    return ("class", "average", "bound", "verdict"), verdict.rows, verdict.ok


def _bernoulli_extend(args):
    test = parse_test_file(args.test)
    return None, render_test_file(bl.extend_by_monotonicity(test, args.depth)), True


def _urn_check(args):
    report = bl.replacement_domination_check(args.n)
    return ("n", "factor", "max_ratio", "argmax", "verdict"), report.tsv_rows(), report.ok


def _certify_bernoulli(args):
    verdict = bl.certify_bernoulli_test(parse_test_file(args.test))
    return ("level", "degree", "verdict", "witness"), verdict.rows, verdict.ok


def _lower_upper(args):
    lower = realize(parse_measure_spec_file(args.lower), args.depth)
    return lower, realize(parse_measure_spec_file(args.upper), args.depth)


def _coupling(args):
    result = cp.is_coupled_below(*_lower_upper(args), args.depth)
    if result.coupled:
        rows = [(x, y, fmt(v)) for (x, y), v in sorted(result.witness.flow.items())]
        return ("x", "y", "flow"), rows, True
    rows = [(y, fmt(result.p_mass), fmt(result.q_mass)) for y in result.certificate]
    return UPPER_SET, rows, False


def _monotone_criterion(args):
    result = cp.monotone_criterion_check(*_lower_upper(args), args.depth)
    if result.ok:
        return UPPER_SET, [("all", "-", "pass")], True
    rows = [(y, fmt(result.p_mass), fmt(result.q_mass)) for y in result.failing_upper_set]
    return UPPER_SET, rows, False


def _monotonize(args):
    test = parse_test_file(args.test)
    hull, den = cp.submask_hull(test.nums[-1]), test.dens[-1]
    return ("word", "value"), [(x, fmt_ratio(v, den)) for x, v in zip(_words(test.depth), hull)], True


def _sparsity(args):
    test = parse_test_file(args.test)
    measure = realize(parse_measure_spec_file(args.measure), test.depth)
    verdict = rt.validate_extended_test(test, measure)
    x = parse_word(args.prefix)
    value = cp.sparsity_value(test, x)
    row = (format_word(x), fmt(value), f"depth-{test.depth}-lower-bound",
           "ok" if verdict.ok else "invalid-test")
    return VERDICT, verdict.rows + [row], verdict.ok


def _separator(args):
    p = parse_rational(args.p)
    if args.certify:
        try:
            n = int(args.target)
        except ValueError as exc:
            raise ParseError("--certify expects an integer block length") from exc
        report = sp.chebyshev_tail_check(n, p)
        return ("n", "p", "mu", "deviating_counts", "verdict"), report.tsv_rows(), report.certified
    omega = parse_sequence_file(args.target)
    rows = sp.separator_value(omega, p).tsv_rows()
    if args.class_test:
        class_test = parse_test_file(args.class_test)
        composite = sp.class_plus_separator(omega[: class_test.depth], p, class_test)
        rows.append(("composite", *composite.tsv_rows()[0]))
    return ("k", "block", "count", "verdict"), rows, True


def _upcrossings(args):
    omega = parse_sequence_file(args.sequence)
    x = parse_word(args.block)
    alpha, beta = parse_rational(args.alpha), parse_rational(args.beta)
    row = (format_word(x), fmt(alpha), fmt(beta), str(count_upcrossings(omega, x, alpha, beta)))
    return ("block", "alpha", "beta", "count"), [row], True


def _neutral(args):
    sequences = [parse_sequence_file(path) for path in args.sequences]
    if args.machine:
        machine = parse_machine_file(args.machine[0])
        if not isinstance(machine, PrefixMachine):
            raise ParseError("neutral search needs a prefix machine")
    else:
        machine = canonical_machine()
    depth = args.depth if args.depth is not None else min(len(s) for s in sequences)
    cell = nt.sperner_search(sequences, machine, depth, args.resolution)
    rows = [
        (",".join(fmt(w) for w in mix.weights), str(label), fmt(value), fmt(cell.diameter))
        for mix, label, value in zip(cell.vertices, cell.labels, cell.values)
    ]
    return ("weights", "label", "value", "diameter"), rows, True


def _machine_info(args):
    machine = parse_machine_file(args.machine_file)
    if isinstance(machine, MonotoneMachine):
        rows = [(format_word(p), format_word(o), "-", "entry") for p, o in machine.entries]
        rows.append(("consistent", "-", "-", "pass"))
        return ("program", "output", "kp", "verdict"), rows, True
    total = semimeasure_total(machine)
    table = semimeasure_table(machine)
    rows = [
        (format_word(output), fmt(table[output]), fmt(kp_of(machine, output)), "output")
        for output in sorted(table, key=lambda w: (len(w), w))
    ]
    rows.append(("total", fmt(total), fmt(1), "pass" if total <= 1 else "fail"))
    return ("word", "mass", "kp", "verdict"), rows, True


#: name -> (help line, argument specs, run); every subcommand also takes `--out`.
SUBCOMMANDS = {
    "validate-measure": ("check measure table axioms", ["spec", NEEDS_DEPTH], _validate_measure),
    "validate-test": ("check extended-test averages", ["test", MEASURE, DEPTH], _validate_test),
    "deficiency": ("deficiency profile along a sequence",
                   ["sequence", MEASURE, DEPTH, MACHINE], _deficiency),
    "min-extension": ("minimal leaf value over extensions", ["test", "prefix"], _min_extension),
    "cond-average": ("conditional average over a cylinder",
                     ["test", "prefix", MEASURE], _cond_average),
    "martingale": ("check the (super)martingale identity", ["g", MEASURE, MODE], _martingale),
    "prob-check": ("probability-bound check", ["test", MEASURE], _prob_check),
    "convert": ("probability-bounded to average-bounded", ["test", MEASURE], _convert),
    "bernoulli-validate": ("combinatorial class averages", ["test"], _bernoulli_validate),
    "bernoulli-extend": ("extend a test by monotonicity", ["test", NEEDS_DEPTH], _bernoulli_extend),
    "urn-check": ("without-replacement domination bound", [("n", {"type": int})], _urn_check),
    "certify-bernoulli": ("Sturm certification per level", ["test"], _certify_bernoulli),
    "coupling": ("max-flow coupling feasibility", ["lower", "upper", NEEDS_DEPTH], _coupling),
    "monotone-criterion": ("brute-force Strassen check",
                           ["lower", "upper", NEEDS_DEPTH], _monotone_criterion),
    "monotonize": ("monotone hull of a leaf function", ["test"], _monotonize),
    "sparsity": ("depth-level sparsity lower bound", ["test", "prefix", MEASURE], _sparsity),
    "separator": ("dyadic-block frequency separator", [
        ("target", {"help": "sequence file, or block length with --certify"}), "p",
        ("--certify", {"action": "store_true"}),
        ("--class-test", {"help": "combinatorial test file for the composite"}),
    ], _separator),
    "upcrossings": ("count strict upcrossings of block averages",
                    ["sequence", "block", "alpha", "beta"], _upcrossings),
    "neutral": ("Sperner search for a neutral mixture cell", [
        ("sequences", {"nargs": "+"}), DEPTH, MACHINE,
        ("--resolution", {"type": int, "default": 16}),
    ], _neutral),
    "machine-info": ("machine table summary and checks", ["machine_file"], _machine_info),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randlab",
        description="Exact-rational laboratory for randomness tests on binary prefixes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, specs, run) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for spec in [*specs, OUT]:
            flag, options = (spec, {}) if isinstance(spec, str) else spec
            p.add_argument(flag, **options)
        p.set_defaults(run=run)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else OK
    try:
        try:
            header, rows, ok = args.run(args)
        except (MachineError, MeasureError) as exc:
            # a machine error names a pair of programs, a measure error one prefix
            words = getattr(exc, "pair", None) or (getattr(exc, "prefix", None) or "",)
            header, ok = ("error", "witness", "detail"), False
            rows = [("validation", ",".join(map(format_word, words)), str(exc))]
        text = rows if header is None else render_tsv(header, rows)
        if args.out:
            with open(args.out, "w", encoding="ascii", newline="\n") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
        return OK if ok else VIOLATION
    except CapabilityError as exc:
        sys.stderr.write(f"capability error: {exc}\n")
        return USAGE
    except (ParseError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE
    except Exception as exc:  # an internal failure must never read as a certified violation
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return INTERNAL


if __name__ == "__main__":
    sys.exit(main())
