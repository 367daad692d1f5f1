"""Command-line entry point.

Exit codes: 0 when every asserted property holds, 1 for a certified
violation (the report carries a machine-checkable witness), 2 for usage,
parse, or capability errors, 3 for an internal failure (a broken invariant
or any other unexpected exception).  Every exit 2 or 3 is one stderr line;
a malformed command line reads `error: <argparse's message>`.  Output is
TSV with a header row, on stdout or `--out`, and is byte-for-byte
deterministic for identical inputs.  Help text wraps at 78 columns on
every terminal.

Each subcommand is one row of `SUBCOMMANDS`: a help line, its argument
specs, and a `run(args)` that returns a `randtests.Verdict`, which names
its columns (`bernoulli-extend` returns a test file's text).  A `run` looks
its kernels up by name when called (`rt.prob_bound_check`): the benchmark's
tracer wraps module bindings only, not a kernel held in a table or closure.
`build_parser` makes a parser per subcommand with its help line; a
subcommand's specs become arguments only when argparse dispatches to its
parser, so a request builds the arguments of one subcommand.  `main` is the
one place that renders a report, writes it, and maps `ok` to an exit code.
"""
from __future__ import annotations

import argparse
import functools
import gc
import sys

from . import bernoulli as bl
from . import coupling as cp
from . import neutral as nt
from . import randtests as rt
from . import separator as sp
from .exact import fmt, fmt_ratio, fmt_ratios, parse_rational
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
    semimeasure_total,
)
from .measures import CapabilityError, MeasureError, all_words, count_upcrossings, realize

OK, VIOLATION, USAGE, INTERNAL = 0, 1, 2, 3

# Argument specs: a bare name is a positional argument, otherwise (flag, options).
OUT = ("--out", {"help": "write the report to this path"})
MEASURE = ("--measure", {"required": True, "help": "measure spec file"})
DEPTH = ("--depth", {"type": int, "default": None})
NEEDS_DEPTH = ("--depth", {"type": int, "required": True})
MACHINE = ("--machine", {"action": "append", "help": "machine table file"})
MODE = ("--mode", {"choices": ("martingale", "supermartingale"), "default": "martingale"})


def _validate_measure(args):
    measure = realize(parse_measure_spec_file(args.spec), args.depth)
    sums = [fmt_ratio(sum(row), measure.den) for row in measure.nums]
    rows = [(f"len={n}", total, fmt(1), "pass") for n, total in enumerate(sums)]
    return rt.Verdict(True, rt.VERDICT, rows)


def _validate_test(args):
    test = parse_test_file(args.test)
    depth = args.depth if args.depth is not None else test.depth
    return rt.validate_extended_test(test, realize(parse_measure_spec_file(args.measure), depth))


def _deficiency(args):
    sequence = parse_sequence_file(args.sequence)
    machines = list(map(parse_machine_file, args.machine or []))
    prefix = [m for m in machines if isinstance(m, PrefixMachine)]
    monotone = [m for m in machines if isinstance(m, MonotoneMachine)]
    if len(prefix) > 1 or len(monotone) > 1:
        raise ParseError("deficiency takes at most one prefix and one monotone machine")
    prefix_machine = prefix[0] if prefix else canonical_machine()
    monotone_machine = monotone[0] if monotone else None
    depth = args.depth if args.depth is not None else min(len(sequence), 6)
    if len(sequence) < depth:
        raise ParseError("sequence shorter than the requested depth")
    measure = realize(parse_measure_spec_file(args.measure), depth)
    profile = rt.deficiency_profile(prefix_machine, monotone_machine, measure, sequence[:depth])
    header = ("prefix", "m_ratio", "sum", "sup", "tbar", "that", "M_ratio", "flag", "sum_over_sup")
    return rt.Verdict(True, header, profile.tsv_rows())


def _min_extension(args):
    test = parse_test_file(args.test)
    x = parse_word(args.prefix)
    row = (format_word(x), fmt(rt.min_extension(test, x)), "-", "ok")
    return rt.Verdict(True, rt.VERDICT, [row])


def _cond_average(args):
    test = parse_test_file(args.test)
    x = parse_word(args.prefix)
    measure = realize(parse_measure_spec_file(args.measure), test.depth)
    value = rt.conditional_average(test, measure, x)
    flagged = measure.mass(x) == 0 and value == 0
    row = (format_word(x), fmt(value), "-", "flagged" if flagged else "ok")
    return rt.Verdict(True, rt.VERDICT, [row])


def _martingale(args):
    test = parse_test_file(args.g)
    measure = realize(parse_measure_spec_file(args.measure), test.depth)
    return rt.martingale_check(test, measure, args.mode)


def _prob_check(args):
    test = parse_test_file(args.test)
    return rt.prob_bound_check(test, realize(parse_measure_spec_file(args.measure), test.depth))


def _convert(args):
    test = parse_test_file(args.test)
    measure = realize(parse_measure_spec_file(args.measure), test.depth)
    converted, average = rt.prob_to_avg_convert(test, measure)
    rows = [(x, v, "-", "value") for x, v in format_values(converted)]
    rows.append(("leaf-average", fmt(average), fmt(rt.CONVERT_AVG_BOUND), "pass"))
    return rt.Verdict(True, rt.VERDICT, rows)


def _bernoulli_validate(args):
    return bl.validate_combinatorial_test(parse_test_file(args.test))


def _bernoulli_extend(args):
    return render_test_file(bl.extend_by_monotonicity(parse_test_file(args.test), args.depth))


def _urn_check(args):
    return bl.replacement_domination_check(args.n)


def _certify_bernoulli(args):
    return bl.certify_bernoulli_test(parse_test_file(args.test))


def _lower_upper(args):
    lower = realize(parse_measure_spec_file(args.lower), args.depth)
    return lower, realize(parse_measure_spec_file(args.upper), args.depth)


def _coupling(args):
    cp._refuse_past_cap(args.depth)  # before either table is realized
    return cp.is_coupled_below(*_lower_upper(args), args.depth)


def _monotone_criterion(args):
    cp.enumerate_upper_sets(args.depth)  # refuses n > 4 before a table is built; the check reuses it
    return cp.monotone_criterion_check(*_lower_upper(args), args.depth)


def _monotonize(args):
    test = parse_test_file(args.test)
    hull, den = cp.submask_hull(test.nums[-1]), test.den
    words = map(format_word, all_words(test.depth))
    return rt.Verdict(True, ("word", "value"), list(zip(words, fmt_ratios(hull, den))))


def _sparsity(args):
    test = parse_test_file(args.test)
    measure = realize(parse_measure_spec_file(args.measure), test.depth)
    verdict = rt.validate_extended_test(test, measure)
    x = parse_word(args.prefix)
    value = cp.sparsity_value(test, x)
    row = (format_word(x), fmt(value), f"depth-{test.depth}-lower-bound",
           "ok" if verdict.ok else "invalid-test")
    verdict.rows.append(row)
    return verdict


def _separator(args):
    p = parse_rational(args.p)
    if args.certify:
        if args.class_test:
            raise ParseError("--class-test does not apply with --certify")
        try:
            n = int(args.target)
        except ValueError as exc:
            raise ParseError("--certify expects an integer block length") from exc
        return sp.chebyshev_tail_check(n, p)
    omega = parse_sequence_file(args.target)
    rows = sp.separator_value(omega, p).tsv_rows()
    if args.class_test:
        class_test = parse_test_file(args.class_test)
        composite = sp.class_plus_separator(omega[: class_test.depth], p, class_test)
        rows.append(("composite", *composite.tsv_rows()[0]))
    return rt.Verdict(True, ("k", "block", "count", "verdict"), rows)


def _upcrossings(args):
    omega = parse_sequence_file(args.sequence)
    x = parse_word(args.block)
    alpha, beta = parse_rational(args.alpha), parse_rational(args.beta)
    row = (format_word(x), fmt(alpha), fmt(beta), str(count_upcrossings(omega, x, alpha, beta)))
    return rt.Verdict(True, ("block", "alpha", "beta", "count"), [row])


def _neutral(args):
    if len(args.machine or []) > 1:
        raise ParseError("neutral takes at most one --machine")
    sequences = [parse_sequence_file(path) for path in args.sequences]
    if args.machine:
        machine = parse_machine_file(args.machine[0])
        if not isinstance(machine, PrefixMachine):
            raise ParseError("neutral search needs a prefix machine")
    else:
        machine = canonical_machine()
    depth = args.depth if args.depth is not None else min(len(s) for s in sequences)
    cell = nt.sperner_search(sequences, machine, depth, args.resolution)
    m, diameter = cell.resolution, fmt(cell.diameter)
    rows = [
        (",".join(fmt_ratio(c, m) for c in point), str(label), fmt(value), diameter)
        for point, label, value in zip(cell.points, cell.labels, cell.values)
    ]
    return rt.Verdict(True, ("weights", "label", "value", "diameter"), rows)


def _machine_info(args):
    machine = parse_machine_file(args.machine_file)
    if isinstance(machine, MonotoneMachine):
        rows = [(format_word(p), format_word(o), "-", "entry") for p, o in machine.entries]
        rows.append(("consistent", "-", "-", "pass"))
        return rt.Verdict(True, ("program", "output", "kp", "verdict"), rows)
    mass, total = machine.output_mass(), semimeasure_total(machine)
    shortest: dict[str, int] = {}  # shortest program length per output, in one pass
    for program, output in machine.entries.items():
        shortest[output] = min(len(program), shortest.get(output, len(program)))
    outputs = sorted(mass, key=lambda w: (len(w), w))
    rows = [(format_word(w), fmt(mass[w]), fmt(shortest[w]), "output") for w in outputs]
    rows.append(("total", fmt(total), fmt(1), "pass"))
    return rt.Verdict(True, ("word", "mass", "kp", "verdict"), rows)


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


# A fixed width: argparse otherwise asks the terminal for its size in every
# formatter it makes, one per `add_argument` for the metavar check.  78 is
# what it picks when stdout is not a terminal (80 columns minus 2).
_FORMATTER = functools.partial(argparse.HelpFormatter, width=78)


class _Parser(argparse.ArgumentParser):
    """Raises a usage error instead of printing the usage block and exiting,
    so that `main` reports it as one `error:` line like every other exit 2;
    subcommand parsers are of the same class.

    `specs` are added as arguments the first time the parser parses, which
    for a subcommand parser is when argparse dispatches to it: a request
    builds the arguments of its own subcommand only.  Each spec is added
    once, so one parser can serve any number of requests.
    """

    def __init__(self, *, specs=(), **kwargs):
        super().__init__(**kwargs)
        self._specs = specs

    def parse_known_args(self, args=None, namespace=None):
        specs, self._specs = self._specs, ()
        for spec in specs:
            flag, options = (spec, {}) if isinstance(spec, str) else spec
            self.add_argument(flag, **options)
        return super().parse_known_args(args, namespace)

    def error(self, message):
        raise ParseError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="randlab",
        description="Exact-rational laboratory for randomness tests on binary prefixes.",
        formatter_class=_FORMATTER,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, specs, run) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_line, formatter_class=_FORMATTER, specs=[*specs, OUT])
        p.set_defaults(run=run)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # The parser is now cyclic garbage: a young collection frees about 550
        # objects (75 KiB) of it, in a fraction of a millisecond; left to the
        # next automatic collection it survives into the request's own peak.
        gc.collect(1)
        try:
            report = args.run(args)
        except (MachineError, MeasureError) as exc:
            # a machine error names a pair of programs, a measure error one prefix
            words = getattr(exc, "pair", None) or (getattr(exc, "prefix", None) or "",)
            row = ("validation", ",".join(map(format_word, words)), str(exc))
            report = rt.Verdict(False, ("error", "witness", "detail"), [row])
        extended = isinstance(report, str)  # `bernoulli-extend`: a test file, not a report
        text = report if extended else render_tsv(report.header, report.rows)
        if args.out:
            with open(args.out, "w", encoding="ascii", newline="\n") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
        return OK if extended or report.ok else VIOLATION
    except SystemExit as exc:  # `--help` prints its text and exits 0
        return USAGE if exc.code not in (0, None) else OK
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
