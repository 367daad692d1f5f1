import argparse
import math
import random
import shutil
import time
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    by_word,
    kp_of,
    random_prefix_machine,
    reference_from_partial,
    reference_output_mass,
    reference_parse_machine_file,
    reference_parse_table_spec,
    reference_parse_test_file,
    report,
)
import randlab.cli
import randlab.coupling
import randlab.machines
from randlab import demo
from randlab.cli import SUBCOMMANDS, main
from randlab.formats import (
    MAX_MIX_NESTING,
    ParseError,
    parse_machine_file,
    parse_measure_spec_file,
    parse_sequence_file,
    parse_test_file,
    render_test_file,
    render_tsv,
)
from randlab.machines import MonotoneMachine, PrefixMachine
from randlab.bernoulli import MAX_URN_N
from randlab.coupling import MAX_COUPLING_N
from randlab.measures import MAX_DEPTH, Bernoulli, CapabilityError, DyadicMeasure, Mixture, all_words, realize
from randlab.neutral import MAX_KUHN_CHAINS
from randlab.separator import MAX_TAIL_DIGITS, MAX_TAIL_N
from randlab.exact import fmt, parse_rational
from randlab.randtests import ExtendedTest


def write(tmp_path, name, content):
    path = tmp_path / name
    path.write_text(content, encoding="ascii")
    return str(path)


def many_coins(tmp_path, n):
    """A `mix` of n equally weighted coins 1/(2^31 - 1 - 2i)."""
    lines = [f"1/{n} {write(tmp_path, f'k{i}.measure', f'bernoulli 1/{2 ** 31 - 1 - 2 * i}')}" for i in range(n)]
    return write(tmp_path, "coins.measure", "\n".join(["mix", *lines]) + "\n")


def test_parse_bernoulli_spec(tmp_path):
    path = write(tmp_path, "b.measure", "bernoulli 2/3\n")
    spec = parse_measure_spec_file(path)
    assert isinstance(spec, Bernoulli) and spec.p == F(2, 3)


def test_parse_table_spec_derives_interior(tmp_path):
    path = write(tmp_path, "t.measure", "table 1\n0 1/4\n1 3/4\n")
    spec = parse_measure_spec_file(path)
    assert isinstance(spec, DyadicMeasure)
    assert spec.mass("") == 1 and spec.mass("0") == F(1, 4)


def test_parse_mix_spec_resolves_relative_paths(tmp_path):
    write(tmp_path, "u.measure", "bernoulli 1/2\n")
    write(tmp_path, "z.measure", "bernoulli 0/1\n")
    path = write(tmp_path, "m.measure", "mix\n1/3 u.measure\n2/3 z.measure\n")
    spec = parse_measure_spec_file(path)
    assert isinstance(spec, Mixture)
    m = realize(spec, 1)
    assert m.mass("1") == F(1, 3) * F(1, 2)


def test_mix_spec_including_itself_is_a_parse_error(tmp_path, capsys):
    path = write(tmp_path, "self.measure", "mix\n1 self.measure\n")
    with pytest.raises(ParseError, match="includes itself"):
        parse_measure_spec_file(path)
    assert main(["validate-measure", path, "--depth", "2"]) == 2
    captured = capsys.readouterr()
    assert "includes itself" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_mix_spec_two_file_cycle_is_a_parse_error(tmp_path):
    write(tmp_path, "a.measure", "mix\n1/2 b.measure\n1/2 u.measure\n")
    write(tmp_path, "b.measure", "mix\n1/1 sub/../a.measure\n")
    write(tmp_path, "u.measure", "bernoulli 1/2\n")
    (tmp_path / "sub").mkdir()
    with pytest.raises(ParseError, match="includes itself"):
        parse_measure_spec_file(str(tmp_path / "a.measure"))


def test_mix_spec_diamond_parses(tmp_path):
    write(tmp_path, "u.measure", "bernoulli 1/2\n")
    write(tmp_path, "z.measure", "bernoulli 0/1\n")
    write(tmp_path, "left.measure", "mix\n1/2 u.measure\n1/2 z.measure\n")
    write(tmp_path, "right.measure", "mix\n1/4 u.measure\n3/4 z.measure\n")
    top = write(tmp_path, "top.measure", "mix\n1/2 left.measure\n1/2 right.measure\n")
    m = realize(parse_measure_spec_file(top), 1)
    assert m.mass("1") == F(1, 2) * F(1, 4) + F(1, 2) * F(1, 8)


def mix_chain(tmp_path, mix_files):
    """m0 mixes m1, ..., the last `mix` file mixes a Bernoulli leaf."""
    write(tmp_path, f"m{mix_files}.measure", "bernoulli 1/2\n")
    for i in range(mix_files):
        write(tmp_path, f"m{i}.measure", f"mix\n1/1 m{i + 1}.measure\n")
    return str(tmp_path / "m0.measure")


def test_mix_chain_at_the_nesting_cap_parses(tmp_path):
    spec = parse_measure_spec_file(mix_chain(tmp_path, MAX_MIX_NESTING))
    assert realize(spec, 2).mass("1") == F(1, 2)


def test_mix_chain_past_the_nesting_cap_is_a_parse_error(tmp_path, capsys):
    path = mix_chain(tmp_path, MAX_MIX_NESTING + 1)
    assert main(["validate-measure", path, "--depth", "2"]) == 2
    captured = capsys.readouterr()
    assert "nested below more than" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def mix_diamond(tmp_path, mix_files):
    """m0 mixes m1 twice, ..., the last `mix` file mixes a Bernoulli leaf
    twice: 2^mix_files paths down through mix_files + 1 files."""
    write(tmp_path, f"m{mix_files}.measure", "bernoulli 1/3\n")
    for i in range(mix_files):
        write(tmp_path, f"m{i}.measure", f"mix\n1/2 m{i + 1}.measure\n1/2 m{i + 1}.measure\n")
    return str(tmp_path / "m0.measure")


def test_mix_diamond_reads_each_file_once(tmp_path, monkeypatch):
    reads = []
    read = randlab.formats._read
    monkeypatch.setattr(randlab.formats, "_read", lambda path, what: reads.append(path) or read(path, what))
    (tmp_path / "small").mkdir()
    spec = parse_measure_spec_file(mix_diamond(tmp_path / "small", 12))
    assert len(reads) == 13
    assert realize(spec, 3) == realize(Bernoulli(F(1, 3)), 3)
    # at the nesting cap the spec has 2^64 paths down to its coin
    (tmp_path / "deep").mkdir()
    deep = parse_measure_spec_file(mix_diamond(tmp_path / "deep", MAX_MIX_NESTING))
    assert len(reads) == 13 + MAX_MIX_NESTING + 1
    assert realize(deep, 6) == realize(Bernoulli(F(1, 3)), 6)


def test_parse_sequence_ignores_whitespace(tmp_path):
    path = write(tmp_path, "s.seq", "01 10\n1\t1\n")
    assert parse_sequence_file(path) == "011011"


def test_parse_sequence_rejects_garbage(tmp_path):
    path = write(tmp_path, "s.seq", "01x0\n")
    with pytest.raises(ParseError):
        parse_sequence_file(path)


def test_nested_monotone_table_parses_within_budget(tmp_path):
    # programs 0^i -> 0^i for i <= 3000: every program is comparable with
    # every later one, so checking pairs against all their extensions is
    # quadratic (4.5 million pairs) where one pass down the chain is linear
    n = 3000
    lines = "".join(f"{'0' * i or '-'} {'0' * i or '-'}\n" for i in range(n + 1))
    path = write(tmp_path, "nested.machine", "monotone\n" + lines)
    started = time.perf_counter()
    machine = parse_machine_file(path)
    report(f"{n + 1}-entry nested monotone table", 1.0, started)
    assert len(machine.entries) == n + 1


def test_parse_machine_kinds(tmp_path):
    prefix = parse_machine_file(write(tmp_path, "p.machine", "0 -\n10 0\n11 1\n"))
    assert isinstance(prefix, PrefixMachine)
    assert prefix.entries["0"] == ""
    mono = parse_machine_file(write(tmp_path, "m.machine", "monotone\n- -\n0 00\n"))
    assert isinstance(mono, MonotoneMachine)


def test_parse_test_monotone_closure(tmp_path):
    path = write(tmp_path, "t.test", "test 2\n1 2/1\n")
    test = parse_test_file(path)
    assert test.value("") == 0 and test.value("1") == 2 and test.value("11") == 2


def test_test_file_round_trip(tmp_path):
    path = write(tmp_path, "t.test", "test 2\n- 1/2\n1 2/1\n")
    test = parse_test_file(path)
    rendered = render_test_file(test)
    path2 = write(tmp_path, "t2.test", rendered)
    assert by_word(parse_test_file(path2)) == by_word(test)


def run_cli(*argv):
    return main(list(argv))


def test_cli_validate_measure_ok(tmp_path, capsys):
    spec = write(tmp_path, "u.measure", "bernoulli 1/2\n")
    assert run_cli("validate-measure", spec, "--depth", "3") == 0
    out = capsys.readouterr().out
    assert out.startswith("prefix\tvalue\tbound\tverdict")
    assert "pass" in out


def test_cli_validate_measure_bad_table(tmp_path, capsys):
    spec = write(tmp_path, "bad.measure", "table 1\n0 1/4\n1 1/4\n")
    assert run_cli("validate-measure", spec, "--depth", "1") == 1
    out = capsys.readouterr().out
    assert "validation" in out and "-" in out  # witness names the empty prefix


def test_cli_validate_test_exit_codes(tmp_path, capsys):
    measure = write(tmp_path, "u.measure", "bernoulli 1/2\n")
    good = write(tmp_path, "good.test", "test 2\n- 1/1\n")
    bad = write(tmp_path, "bad.test", "test 2\n- 2/1\n")
    assert run_cli("validate-test", good, "--measure", measure) == 0
    capsys.readouterr()
    assert run_cli("validate-test", bad, "--measure", measure) == 1


def test_cli_coupling_certificate(tmp_path, capsys):
    top = write(tmp_path, "top.measure", "table 2\n00 0/1\n01 0/1\n10 0/1\n11 1/1\n")
    uni = write(tmp_path, "u.measure", "bernoulli 1/2\n")
    assert run_cli("coupling", top, uni, "--depth", "2") == 1
    out = capsys.readouterr().out
    assert "11" in out  # certificate upper set printed
    assert run_cli("coupling", uni, uni, "--depth", "2") == 0


def test_every_report_row_fills_its_header(tmp_path, monkeypatch):
    # `render_tsv` joins the cells as given: a short row would shift the
    # columns, and an empty cell (the empty word at depth 0) would vanish
    reports = []

    def recording(header, rows):
        rows = list(rows)
        reports.append((header, rows))
        return render_tsv(header, rows)

    monkeypatch.setattr(randlab.cli, "render_tsv", recording)
    monkeypatch.chdir(tmp_path)
    for name, content in {**demo.INPUTS, "zero.test": "test 0\n- 3/1\n"}.items():
        write(tmp_path, name, content)
    depth_zero = [
        ["coupling", "uniform.measure", "uniform.measure", "--depth", "0"],
        ["monotonize", "zero.test"],
    ]
    for argv in [argv for _, argv in demo.COMMANDS] + depth_zero:
        reports.clear()
        assert main(argv + ["--out", "report.tsv"]) in (0, 1), argv
        for header, rows in reports:
            assert rows, argv
            for row in rows:
                assert len(row) == len(header), (argv, row)
                assert all(isinstance(cell, str) and cell for cell in row), (argv, row)


def test_cli_internal_failure_exits_3(tmp_path, capsys, monkeypatch):
    def broken(*args):
        raise AssertionError("min-cut certificate failed to separate the masses")

    monkeypatch.setattr(randlab.coupling, "is_coupled_below", broken)
    uni = write(tmp_path, "u.measure", "bernoulli 1/2\n")
    assert run_cli("coupling", uni, uni, "--depth", "2") == 3
    captured = capsys.readouterr()
    assert captured.err == (
        "internal error: AssertionError: min-cut certificate failed to separate the masses\n"
    )
    assert captured.out == ""


def test_cli_broken_kraft_invariant_exits_3(tmp_path, capsys, monkeypatch):
    # prefix-freeness forces a Kraft sum <= 1, so a larger one is an internal failure, not a verdict
    one_pass = randlab.machines._mass_pass
    monkeypatch.setattr(randlab.machines, "_mass_pass", lambda entries: (one_pass(entries)[0], F(2)))
    tiny = write(tmp_path, "tiny.machine", "0 -\n10 0\n11 1\n")
    assert run_cli("machine-info", tiny) == 3
    captured = capsys.readouterr()
    assert captured.err == "internal error: AssertionError: Kraft sum exceeds 1 on a prefix-free table\n"
    assert captured.out == ""


@pytest.mark.parametrize("case", ["measure-depth", "table-spec", "test-file", "extend-depth"])
def test_cli_refuses_prefix_tables_past_the_depth_cap(tmp_path, capsys, case):
    # one past the cap, so a missing cap costs seconds rather than memory
    deep = str(MAX_DEPTH + 1)
    uni = write(tmp_path, "u.measure", "bernoulli 1/2\n")
    argv = {
        "measure-depth": ["validate-measure", uni, "--depth", deep],
        "table-spec": ["validate-measure", write(tmp_path, "t.measure", f"table {deep}\n"), "--depth", "1"],
        "test-file": ["validate-test", write(tmp_path, "d.test", f"test {deep}\n"), "--measure", uni],
        "extend-depth": ["bernoulli-extend", write(tmp_path, "s.test", "test 1\n"), "--depth", deep],
    }[case]
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"capability error: prefix tables are capped at depth {MAX_DEPTH}, got {deep}\n"
    assert captured.out == ""
    assert randlab.coupling.CapabilityError is CapabilityError


@pytest.mark.parametrize("case", ["urn-n", "neutral-grid", "tail-n", "tail-digits", "criterion-n", "coupling-n", "mix-lcm"])
def test_cli_refuses_kernels_past_their_caps(tmp_path, capsys, case):
    # one past each cap: four sequences try C(52, 3) * 3! Kuhn chains at
    # resolution 49, against C(51, 3) * 3! at 48, which the cap admits
    assert math.comb(51, 3) * 6 <= MAX_KUHN_CHAINS < math.comb(52, 3) * 6
    seqs = [write(tmp_path, f"{i}.seq", f"{i:02b}" + "0" * 6) for i in range(4)]
    coins = [write(tmp_path, f"{p}.measure", f"bernoulli {p}/3\n") for p in (1, 2)]
    argv = {
        "urn-n": ["urn-check", str(MAX_URN_N + 1)],
        "neutral-grid": ["neutral", *seqs, "--depth", "2", "--resolution", "49"],
        # one past the length cap, and 720 * 7 digits past the digit cap:
        # uncapped, both end in an integer too long to print
        "tail-n": ["separator", str(MAX_TAIL_N + 1), "1/3", "--certify"],
        "tail-digits": ["separator", "720", "1/1000003", "--certify"],
        # monotone functions stop at n = 4; the two tables at the depth cap
        # would take megabytes before that refusal
        "criterion-n": ["monotone-criterion", *coins, "--depth", str(MAX_DEPTH)],
        # the flow stops at MAX_COUPLING_N; here too the tables would take megabytes
        "coupling-n": ["coupling", *coins, "--depth", str(MAX_DEPTH)],
        # the running lcm of 300 coins' denominators passes the cap after a few
        # dozen parts, before any part's row is built
        "mix-lcm": ["validate-measure", many_coins(tmp_path, 300), "--depth", "12"],
    }[case]
    assert 720 * 7 > MAX_TAIL_DIGITS and MAX_COUPLING_N < MAX_DEPTH
    tracemalloc.start()
    try:
        assert run_cli(*argv) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20  # each refusal comes before the work it caps
    captured = capsys.readouterr()
    assert captured.err.startswith("capability error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


def test_cli_certify_bernoulli_witness(tmp_path, capsys):
    bad = write(tmp_path, "twop.test", "test 1\n1 2/1\n")
    assert run_cli("certify-bernoulli", bad) == 1
    out = capsys.readouterr().out
    assert "rejected" in out


def test_cli_monotone_criterion_capability_error(tmp_path, capsys):
    uni = write(tmp_path, "u.measure", "bernoulli 1/2\n")
    assert run_cli("monotone-criterion", uni, uni, "--depth", "5") == 2


def test_cli_parse_error_is_usage(tmp_path):
    assert run_cli("validate-measure", str(tmp_path / "missing.measure"), "--depth", "2") == 2


def test_cli_machine_info_prefix_violation(tmp_path, capsys):
    bad = write(tmp_path, "bad.machine", "0 -\n01 1\n")
    assert run_cli("machine-info", bad) == 1
    out = capsys.readouterr().out
    assert "validation" in out


def test_cli_machine_info_rows_match_the_per_word_reference(tmp_path, capsys):
    rng = random.Random(4)
    for trial in range(40):
        machine = random_prefix_machine(rng, max_program_len=7, max_output_len=3)
        lines = [f"{p or '-'} {o or '-'}" for p, o in machine.entries.items()]
        path = write(tmp_path, f"m{trial}.machine", "\n".join(lines) + "\n")
        assert run_cli("machine-info", path) == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()[1:]]
        outputs = sorted(set(machine.entries.values()), key=lambda w: (len(w), w))
        assert rows[:-1] == [
            [w or "-", fmt(reference_output_mass(machine, w)), fmt(kp_of(machine, w)), "output"]
            for w in outputs
        ]
        assert rows[-1][0] == "total"


def test_cli_separator_certify(tmp_path, capsys):
    assert run_cli("separator", "8", "1/2", "--certify") == 0
    out = capsys.readouterr().out
    assert "1/128" in out


def test_cli_separator_class_test_appends_the_composite_row(tmp_path, capsys):
    # the composite scores the sequence cut to the class test's depth: at
    # "111" no block deviates, so only the class value 2 speaks
    ones = write(tmp_path, "ones.seq", "1" * 8)
    class_test = write(tmp_path, "c.test", "test 3\n111 2\n")
    assert run_cli("separator", ones, "1/2", "--class-test", class_test) == 0
    assert capsys.readouterr().out == (
        "k\tblock\tcount\tverdict\n"
        "0\t1\t1\tok\n"
        "1\t2\t2\tok\n"
        "2\t4\t4\tok\n"
        "3\t8\t8\tviolated\n"
        "g\t3\t49923/871000\t871000/16641\n"
        "composite\t2/1\t0/1\t2/1\n"
    )


def test_cli_neutral_writes_report(tmp_path):
    zeros = write(tmp_path, "z.seq", "0" * 8)
    ones = write(tmp_path, "o.seq", "1" * 8)
    out_path = str(tmp_path / "cell.tsv")
    assert (
        run_cli(
            "neutral", zeros, ones, "--depth", "8", "--resolution", "16", "--out", out_path
        )
        == 0
    )
    content = Path(out_path).read_text(encoding="ascii")
    assert content.splitlines()[0] == "weights\tlabel\tvalue\tdiameter"
    assert len(content.splitlines()) == 3


def test_cli_upcrossings(tmp_path, capsys):
    seq = write(tmp_path, "s.seq", "0011")
    assert run_cli("upcrossings", seq, "1", "1/4", "49/100") == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1].endswith("\t1")


def test_cli_deficiency_prints_infinite_ratios(tmp_path, capsys):
    # a point-mass table sends the off-branch ratios to inf
    table = write(tmp_path, "pm.measure", "table 2\n00 1/1\n01 0/1\n10 0/1\n11 0/1\n")
    machine = write(tmp_path, "m.machine", "0 1\n10 11\n")
    seq = write(tmp_path, "s.seq", "11")
    assert (
        run_cli(
            "deficiency", seq, "--measure", table, "--machine", machine, "--depth", "2"
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "inf" in out


def test_cli_deterministic_output(tmp_path):
    uni = write(tmp_path, "u.measure", "bernoulli 1/2\n")
    test = write(tmp_path, "t.test", "test 3\n1 3/2\n01 1/2\n")
    out1, out2 = str(tmp_path / "a.tsv"), str(tmp_path / "b.tsv")
    assert run_cli("validate-test", test, "--measure", uni, "--out", out1) == 0
    assert run_cli("validate-test", test, "--measure", uni, "--out", out2) == 0
    assert Path(out1).read_bytes() == Path(out2).read_bytes()


# Test files against the parse that builds every value as a `Fraction`
# first, and malformed test files with the lines each one has always
# printed: checks run line by line in file order, so the first bad line
# wins, and only then come the depth checks of the listed prefixes and then
# their signs, each in file order.  A negative value is refused wherever it
# is listed.

token = st.one_of(
    st.builds(lambda a, b: f"{a}/{b}", st.integers(-2, 24), st.integers(-3, 12).filter(bool)),
    st.integers(0, 9).map(str),
)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 5).flatmap(
        lambda depth: st.tuples(
            st.just(depth),
            st.dictionaries(st.text(alphabet="01", max_size=depth + 1), token, max_size=12),
            st.booleans(),
        )
    )
)
def test_parse_test_file_matches_from_partial(tmp_path_factory, case):
    depth, listed, comments = case
    lines = [f"test {depth}"]
    for x, t in listed.items():
        lines += ["# note", "", f"  {x or '-'} {t}  "] if comments else [f"{x or '-'} {t}"]
    path = write(tmp_path_factory.mktemp("parse"), "t.test", "\n".join(lines) + "\n")
    values = {x: parse_rational(t) for x, t in listed.items()}
    try:
        expected = ExtendedTest.from_partial(depth, values)
    except ValueError as exc:
        with pytest.raises(ParseError) as raised:
            parse_test_file(path)
        assert str(raised.value) == f"bad test file {path!r}: {exc}"
        return
    test = parse_test_file(path)
    assert (test.depth, test.nums, test.den) == (expected.depth, expected.nums, expected.den)
    assert by_word(test) == reference_from_partial(depth, values)


# Whole test files against the plain line-by-line reading: full and partial
# levels, lines in any order, comments and blank lines, `-` for the root,
# value tokens repeated and equal values written two ways; then the same
# file with one bad line put in, which must fail with the same message.

VALUE_TOKENS = ("0", "1", "1/2", "2/4", "3", "7/3", "0/5", "12/7")
SEPARATORS = (" ", "  ", "\t")
FILLER = ("# note", "", "   ", "#two tokens", "  # a comment of four")
FAULTS = ("0 1 2", "2 1", "0x 1/2", "01 1//2", "1 1/0", "0 -1/3", "- -2", "1 x")


@st.composite
def listed_lines(draw):
    depth = draw(st.integers(0, 5))
    full = draw(st.sets(st.integers(0, depth)))
    words = [x for n in range(depth + 1) for x in all_words(n) if n in full or draw(st.booleans())]
    lines = [f"{x or '-'}{draw(st.sampled_from(SEPARATORS))}{draw(st.sampled_from(VALUE_TOKENS))}"
             for x in draw(st.permutations(words))]
    for filler in draw(st.lists(st.sampled_from(FILLER), max_size=4)):
        lines.insert(draw(st.integers(0, len(lines))), filler)
    fault = draw(st.one_of(
        st.sampled_from(FAULTS),
        st.just("0" * (depth + 1) + " 1"),  # deeper than the header
        st.sampled_from(words or [""]).map(lambda x: f"{x or '-'} 5"),  # a repeated word
    ))
    return depth, lines, fault, draw(st.integers(0, len(lines)))


@settings(max_examples=150, deadline=None)
@given(listed_lines())
def test_parse_test_file_matches_the_line_by_line_reading(tmp_path_factory, case):
    depth, lines, fault, at = case
    folder = tmp_path_factory.mktemp("oracle")
    path = write(folder, "t.test", "\n".join([f"test {depth}", *lines]) + "\n")
    test = parse_test_file(path)
    assert by_word(test) == reference_parse_test_file(path)
    path = write(folder, "bad.test", "\n".join([f"test {depth}", *lines[:at], fault, *lines[at:]]) + "\n")
    try:
        expected = reference_parse_test_file(path)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            parse_test_file(path)
        assert (type(raised.value), str(raised.value)) == (type(exc), str(exc))
    else:
        assert by_word(parse_test_file(path)) == expected


# Machine tables and `table` specs against their plain line-by-line
# readings, with the test files' filler lines and faults: a well-formed
# table, then the same table with one bad line put in anywhere.

def flipped(word):
    return word.translate(str.maketrans("01", "10"))


@st.composite
def machine_lines(draw):
    monotone = draw(st.booleans())
    if monotone:  # outputs mostly prefixes of flipped(program), which agree on comparable programs
        programs = draw(st.lists(st.text(alphabet="01", max_size=5), max_size=10))
        outputs = [flipped(p)[: draw(st.integers(0, 5))] if draw(st.integers(0, 7)) else
                   draw(st.text(alphabet="01", max_size=4)) for p in programs]
    else:  # distinct words of one length are prefix-free
        length = draw(st.integers(0, 4))
        programs = sorted(draw(st.sets(st.sampled_from(all_words(length)), min_size=1)))
        outputs = [flipped(p)[: draw(st.integers(0, 3))] for p in programs]
    lines = ["monotone"] if monotone else []
    lines += [f"{p or '-'}{draw(st.sampled_from(SEPARATORS))}{out or '-'}" for p, out in zip(programs, outputs)]
    for filler in draw(st.lists(st.sampled_from(FILLER), max_size=4)):
        lines.insert(draw(st.integers(0, len(lines))), filler)
    fault = draw(st.one_of(
        st.sampled_from(FAULTS),
        st.sampled_from(programs or [""]).map(lambda p: f"{p or '-'} 1"),  # a repeated program
        st.text(alphabet="01", max_size=5).map(lambda p: f"{p or '-'} 10"),  # maybe not prefix-free or consistent
    ))
    return lines, fault, draw(st.integers(0, len(lines)))


@st.composite
def table_lines(draw):
    depth = draw(st.integers(0, 4))
    words = draw(st.permutations(sorted(draw(st.sets(st.sampled_from(all_words(depth)), min_size=1)))))
    nums = draw(st.lists(st.integers(0, 5), min_size=len(words), max_size=len(words)))
    nums[0] += sum(nums) == 0
    scale = [draw(st.sampled_from((1, 2))) for _ in words]  # 1/2 also written 2/4
    lines = [f"table {depth}"]
    lines += [f"{x or '-'}{draw(st.sampled_from(SEPARATORS))}{k * n}/{k * sum(nums)}"
              for x, n, k in zip(words, nums, scale)]
    for filler in draw(st.lists(st.sampled_from(FILLER), max_size=4)):
        lines.insert(draw(st.integers(1, len(lines))), filler)
    fault = draw(st.one_of(
        st.sampled_from(FAULTS),
        st.sampled_from(words).map(lambda x: f"{x or '-'} 0"),  # a repeated word
        st.sampled_from(all_words(depth)).map(lambda x: f"{x or '-'} 1/8"),  # mass past 1, or a repeat
        st.just("0" * (depth + 1) + " 0"),  # deeper than the header
    ))
    return lines, fault, draw(st.integers(1, len(lines)))


def assert_same_readings(parse, reference, folder, lines, fault, at):
    """The file as drawn and with the fault put in: `parse` gives the plain
    reading of each, or fails with the same error."""
    for name, body in (("plain", lines), ("faulty", [*lines[:at], fault, *lines[at:]])):
        path = write(folder, name, "\n".join(body) + "\n")
        try:
            expected = reference(path)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                parse(path)
            assert (type(raised.value), str(raised.value)) == (type(exc), str(exc))
            assert getattr(raised.value, "pair", None) == getattr(exc, "pair", None)
        else:
            assert parse(path) == expected


@settings(max_examples=150, deadline=None)
@given(machine_lines())
def test_parse_machine_file_matches_the_line_by_line_reading(tmp_path_factory, case):
    def entries(path):
        return parse_machine_file(path).entries

    assert_same_readings(entries, reference_parse_machine_file, tmp_path_factory.mktemp("machine"), *case)


@settings(max_examples=150, deadline=None)
@given(table_lines())
def test_parse_table_spec_matches_the_line_by_line_reading(tmp_path_factory, case):
    def masses(path):
        return by_word(parse_measure_spec_file(path))

    assert_same_readings(masses, reference_parse_table_spec, tmp_path_factory.mktemp("table"), *case)


@pytest.mark.parametrize(
    "content, code, message",
    [
        ("test 2\n0x 1/2\n", 2, "error: not a binary word: '0x'"),
        ("test 2\n01 1//2\n", 2, "error: bad rational literal '1//2'"),
        ("test 2\n01 1/0\n", 2, "error: bad rational literal '1/0'"),
        ("test 2\n- 1/-3\n", 2, "error: bad test file {path}: negative test value at prefix ''"),
        ("test 2\n- 1/2\n0 1/-3\n", 2, "error: bad test file {path}: negative test value at prefix '0'"),
        ("test 2\n0 -1/3\n", 2, "error: bad test file {path}: negative test value at prefix '0'"),
        ("test 2\n1 1\n01 -1\n- -1\n", 2, "error: bad test file {path}: negative test value at prefix '01'"),
        ("test 2\n01 1\n01 2\n", 2, "error: duplicate prefix '01' in {path}"),
        ("test 1\n011 1\n", 2, "error: bad test file {path}: listed prefix '011' deeper than 1"),
        ("test 1\n011 1\n0 x\n", 2, "error: bad rational literal 'x'"),
        ("test 2\n- -1/3\n", 2, "error: bad test file {path}: negative test value at prefix ''"),
        ("test\n", 2, "error: bad test header 'test' in {path}"),
        ("test 2 3\n", 2, "error: bad test header 'test 2 3' in {path}"),
        ("tset 2\n", 2, "error: test file {path} must start with `test <depth>`"),
        ("test x\n", 2, "error: bad test depth in {path}"),
        ("test 17\n", 2, "capability error: prefix tables are capped at depth 16, got 17"),
        ("test 17\n- 1\n" + "0" * 18 + " 1\n", 2,
         "error: bad test file {path}: listed prefix '" + "0" * 18 + "' deeper than 17"),
        ("test -1\n", 2, "error: bad test file {path}: depth must be nonnegative"),
        ("test -1\n- 1\n", 2, "error: bad test file {path}: listed prefix '' deeper than -1"),
        ("test 2\n0 1 2\n", 2, "error: bad test line '0 1 2' in {path}"),
        ("# only a comment\n", 2, "error: test file {path} must start with `test <depth>`"),
        ("test 2\n000 1/2\n- 1/0\n", 2, "error: bad rational literal '1/0'"),
        ("test 1\n00 1\n- -1\n", 2, "error: bad test file {path}: listed prefix '00' deeper than 1"),
        ("test 1\n- -1\n00 1\n", 2, "error: bad test file {path}: listed prefix '00' deeper than 1"),
        ("test 2\n11 1\n00 0\n10 1/2\n01 1/4\n", 0, ""),
        ("test 17\n" + "0" * 17 + " -1\n", 2,
         "error: bad test file {path}: negative test value at prefix '" + "0" * 17 + "'"),
        ("test 17\n" + "0" * 17 + " 1\n" + "0" * 17 + " 2\n", 2,
         "error: duplicate prefix '" + "0" * 17 + "' in {path}"),
        ("test 1\n- 1\n- 2\n", 2, "error: duplicate prefix '-' in {path}"),
        ("test 2\n1 -1/2\n0 -1\n", 2, "error: bad test file {path}: negative test value at prefix '1'"),
    ],
    ids=[
        "bad-word", "bad-rational", "zero-denominator", "negative-denominator-at-root",
        "negative-denominator-below-root", "negative-value-below-unlisted-root",
        "first-negative-line-wins", "duplicate-prefix", "deeper-than-header",
        "first-bad-line-wins", "negative-value", "header-without-depth", "header-with-two-depths",
        "not-a-test", "bad-depth", "test-17", "deeper-than-17", "negative-depth",
        "listed-below-negative-depth", "three-tokens", "comment-only",
        "deeper-line-before-bad-rational", "deeper-line-before-negative-value",
        "negative-value-before-deeper-line", "full-level-out-of-order",
        "negative-value-past-the-cap", "duplicate-past-the-cap", "duplicate-root",
        "first-of-two-negative-values",
    ],
)
def test_malformed_test_files_keep_their_message(tmp_path, capsys, content, code, message):
    path = write(tmp_path, "t.test", content)
    assert main(["min-extension", path, "-"]) == code
    err = capsys.readouterr().err
    assert err == (message.format(path=repr(path)) + "\n" if message else "")


TABLE_CAP = ("capability error: measure tables are capped at 67108864 bits (2^(depth+1) entries "
             "times the denominator's bit length), got {bits} at depth {depth}")

# a known kind with the wrong count of header tokens
WRONG_HEADERS = ["bernoulli", "bernoulli 1/2 1/3", "table", "table 1 2", "mix 1"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["upcrossings", "s.seq", "--", "1/3", "2/3"], "the following arguments are required: beta"),
        (["upcrossings", "s.seq", "--", "1/3", "2/3", "--out", "r.tsv"], "unrecognized arguments: r.tsv"),
        (["min-extension", "t.test", "-x"], "the following arguments are required: prefix"),
        (["urn-check", "x"], "argument n: invalid int value: 'x'"),
        (["--bogus"], "the following arguments are required: command"),
        ([], "the following arguments are required: command"),
        (["separator", "8", "1/2", "--certify", "--class-test", "t.test"],
         "--class-test does not apply with --certify"),
        (["neutral", "s.seq", "--machine", "p.machine", "--machine", "p.machine"],
         "neutral takes at most one --machine"),
        (["deficiency", "s.seq", "--measure", "u.measure", "--machine", "p.machine", "--machine", "p.machine"],
         "deficiency takes at most one prefix and one monotone machine"),
        (["deficiency", "s.seq", "--measure", "u.measure", "--machine", "m.machine", "--machine", "m.machine"],
         "deficiency takes at most one prefix and one monotone machine"),
        (["neutral", "s.seq", "s.seq", "--depth", "-1", "--resolution", "4"], "depth must be nonnegative"),
        (["separator", "x", "1/2", "--certify"], "--certify expects an integer block length"),
        (["validate-measure", "t2.measure", "--depth", "2"], "table line prefix '0' is not at depth 2"),
        (["machine-info", "dup.machine"], "duplicate program '0' in 'dup.machine'"),
        (["neutral", "s.seq", "s.seq", "--machine", "m.machine"], "neutral search needs a prefix machine"),
        (["validate-measure", "dup.measure", "--depth", "1"], "duplicate prefix '0' in 'dup.measure'"),
        (["validate-measure", "three.measure", "--depth", "1"], "bad table line '0 1/2 x' in 'three.measure'"),
        (["validate-measure", "lone.measure", "--depth", "1"], "bad mix line '1/2' in 'lone.measure'"),
        *(
            (["validate-measure", f"h{i}.measure", "--depth", "1"],
             f"unrecognized measure spec header {header!r} in 'h{i}.measure'")
            for i, header in enumerate(WRONG_HEADERS)
        ),
        (["validate-measure", "body.measure", "--depth", "1"],
         "bad bernoulli line 'this line is ignored' in 'body.measure'"),
        (["validate-measure", "pair.measure", "--depth", "1"], "bad bernoulli line '0 1' in 'pair.measure'"),
        (["coupling", "u.measure", "u.measure", "--depth", "-1"], "depth must be nonnegative"),
        (["monotone-criterion", "u.measure", "u.measure", "--depth", "-1"], "depth must be nonnegative"),
        # a measure table past the bit cap is refused before any row is built:
        # 2^(depth+1) entries times the bit length of 10^(300*16), and of the
        # mix's 2^289 3^176, whose parts each pass on their own
        (["validate-measure", "z300.measure", "--depth", "16"], TABLE_CAP.format(bits=2090074112, depth=16)),
        (["validate-measure", "z1000.measure", "--depth", "12"], TABLE_CAP.format(bits=326565888, depth=12)),
        (["martingale", "one16.test", "--measure", "z300.measure"], TABLE_CAP.format(bits=2090074112, depth=16)),
        (["validate-measure", "wide.measure", "--depth", "16"], TABLE_CAP.format(bits=74448896, depth=16)),
    ],
)
def test_usage_errors_are_one_line(tmp_path, monkeypatch, capsys, argv, message):
    # inputs a command would otherwise drop are refused, not ignored
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "s.seq", "0110")
    write(tmp_path, "u.measure", "bernoulli 1/2\n")
    write(tmp_path, "p.machine", "0 1\n10 11\n")
    write(tmp_path, "m.machine", "monotone\n- -\n0 0\n")
    write(tmp_path, "t2.measure", "table 2\n00 1/2\n0 1/2\n")
    write(tmp_path, "dup.machine", "0 1\n0 1\n")
    write(tmp_path, "dup.measure", "table 1\n0 1/3\n0 1/2\n1 1/2\n")
    write(tmp_path, "three.measure", "table 1\n0 1/2 x\n1 1/2\n")
    write(tmp_path, "lone.measure", "mix\n1/2 u.measure\n1/2\n")
    for i, header in enumerate(WRONG_HEADERS):
        write(tmp_path, f"h{i}.measure", header + "\n")
    write(tmp_path, "body.measure", "bernoulli 1/2\nthis line is ignored\n0 1 2\n")
    write(tmp_path, "pair.measure", "bernoulli 1/2\n0 1\n")
    write(tmp_path, "z300.measure", "bernoulli 1/1" + "0" * 300 + "\n")
    write(tmp_path, "z1000.measure", "bernoulli 1/1" + "0" * 1000 + "\n")
    write(tmp_path, "one16.test", "test 16\n- 1/1\n")
    write(tmp_path, "coin2.measure", f"bernoulli 1/{2 ** 18}\n")
    write(tmp_path, "coin3.measure", f"bernoulli 1/{3 ** 11}\n")
    write(tmp_path, "wide.measure", "mix\n1/2 coin2.measure\n1/2 coin3.measure\n")
    assert main(argv) == 2
    out, err = capsys.readouterr()
    line = message if message.startswith("capability error: ") else f"error: {message}"
    assert (out, err) == ("", f"{line}\n")


@pytest.mark.parametrize(
    "argv, columns",
    [
        pytest.param(argv, columns, id=f"argv{i}" + (f"-COLUMNS={columns}" if columns else ""))
        for columns in (None, "40", "200")
        for i, argv in enumerate((["--help"], ["neutral", "--help"]))
    ],
)
def test_help_exits_0(capsys, monkeypatch, argv, columns):
    # help wraps at a fixed width, so the terminal's width never changes its bytes
    monkeypatch.delenv("COLUMNS", raising=False)
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: randlab") and err == ""
    if columns is not None:
        monkeypatch.setenv("COLUMNS", columns)
        assert main(argv) == 0
        assert capsys.readouterr() == (out, "")


def test_cli_never_asks_the_terminal_for_its_size(capsys, monkeypatch):
    def refuse():
        raise RuntimeError("terminal size queried")

    monkeypatch.setattr(shutil, "get_terminal_size", refuse)
    assert main(["urn-check", "2"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("n\tfactor\t") and err == ""
    assert main(["--help"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: randlab") and err == ""


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_every_subcommand_help_lists_its_arguments(capsys, name):
    # each subcommand parser adds its arguments when it parses; its help must still list them all
    assert main([name, "--help"]) == 0
    out, err = capsys.readouterr()
    listed = {line.split()[0] for line in out.splitlines() if line.startswith("  ")}
    names = {spec if isinstance(spec, str) else spec[0] for spec in SUBCOMMANDS[name][1]}
    assert out.startswith(f"usage: randlab {name} ") and err == ""
    assert names | {"--out"} <= listed


def test_one_parser_serves_many_requests_and_builds_only_their_arguments(tmp_path, monkeypatch):
    calls = []
    add_argument = argparse._ActionsContainer.add_argument

    def counted(self, *args, **kwargs):
        calls.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counted)
    test = write(tmp_path, "t.test", "test 1\n0 1\n1 1\n")
    measure = write(tmp_path, "u.measure", "bernoulli 1/2\n")
    argv = ["validate-test", test, "--measure", measure]
    shells = len(SUBCOMMANDS) + 1  # one `-h` per parser

    def own(name):  # the specs of one subcommand, and `--out`
        return len(SUBCOMMANDS[name][1]) + 1

    assert main(argv) == 0
    assert len(calls) == shells + own("validate-test") == 25

    calls.clear()
    parser = randlab.cli.build_parser()
    for depth in ("1", "2"):
        args = parser.parse_args([*argv, "--depth", depth])
        assert (args.test, args.measure, args.depth, args.out) == (test, measure, int(depth), None)
    args = parser.parse_args(["urn-check", "4", "--out", "r.tsv"])
    assert (args.n, args.out, args.run) == (4, "r.tsv", randlab.cli._urn_check)
    assert len(calls) == shells + own("validate-test") + own("urn-check")


@pytest.mark.parametrize("case", ["machine-info", "deficiency", "convert", "validate-test", "prob-check"])
def test_report_values_past_the_printed_digit_cap_are_refused(tmp_path, monkeypatch, capsys, case):
    # the report is worked out, then refused as a capability error at the one
    # place a rational becomes text, on every Python version alike
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "big.machine", "0" * 14300 + " -\n1 1\n")  # mass 2^-14300: 4305 digits
    write(tmp_path, "s.seq", "0101")
    write(tmp_path, "u.measure", "bernoulli 1/2\n")
    write(tmp_path, "t.test", "test 2\n00 4/1\n01 0/1\n10 0/1\n11 0/1\n")
    write(tmp_path, "p.measure", "bernoulli 1/1" + "0" * 3000 + "\n")  # p^2 has 6001 digits
    argv = {
        "machine-info": ["machine-info", "big.machine"],
        "deficiency": ["deficiency", "s.seq", "--measure", "u.measure", "--machine", "big.machine", "--depth", "2"],
        "convert": ["convert", "t.test", "--measure", "p.measure"],
        "validate-test": ["validate-test", "t.test", "--measure", "p.measure"],
        "prob-check": ["prob-check", "t.test", "--measure", "p.measure"],
    }[case]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "capability error: printed integers are capped at 4300 digits, "
                              "Python's limit on integer strings\n")


def test_report_values_at_the_printed_digit_cap_print(tmp_path, capsys):
    # 2^14284 has 4300 digits, the most a printed integer may have
    machine = write(tmp_path, "edge.machine", "0" * 14284 + " -\n1 1\n")
    assert main(["machine-info", machine]) == 0
    total = capsys.readouterr().out.splitlines()[-1].split("\t")
    assert len(str(2 ** 14284)) == 4300
    assert total == ["total", f"{2 ** 14283 + 1}/{2 ** 14284}", "1/1", "pass"]
