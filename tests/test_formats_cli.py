import math
from fractions import Fraction as F

import pytest

import randlab.coupling
from randlab.cli import main
from randlab.formats import (
    MAX_MIX_NESTING,
    ParseError,
    parse_machine_file,
    parse_measure_spec_file,
    parse_sequence_file,
    parse_test_file,
    render_test_file,
)
from randlab.machines import MonotoneMachine, PrefixMachine
from randlab.bernoulli import MAX_URN_N
from randlab.measures import MAX_DEPTH, Bernoulli, CapabilityError, Mixture, Table, realize
from randlab.neutral import MAX_KUHN_CHAINS


def write(tmp_path, name, content):
    path = tmp_path / name
    path.write_text(content, encoding="ascii")
    return str(path)


def test_parse_bernoulli_spec(tmp_path):
    path = write(tmp_path, "b.measure", "bernoulli 2/3\n")
    spec = parse_measure_spec_file(path)
    assert isinstance(spec, Bernoulli) and spec.p == F(2, 3)


def test_parse_table_spec_derives_interior(tmp_path):
    path = write(tmp_path, "t.measure", "table 1\n0 1/4\n1 3/4\n")
    spec = parse_measure_spec_file(path)
    assert isinstance(spec, Table)
    assert spec.measure.mass("") == 1 and spec.measure.mass("0") == F(1, 4)


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


def test_parse_sequence_ignores_whitespace(tmp_path):
    path = write(tmp_path, "s.seq", "01 10\n1\t1\n")
    assert parse_sequence_file(path) == "011011"


def test_parse_sequence_rejects_garbage(tmp_path):
    path = write(tmp_path, "s.seq", "01x0\n")
    with pytest.raises(ParseError):
        parse_sequence_file(path)


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
    assert parse_test_file(path2).values == test.values


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


@pytest.mark.parametrize("case", ["urn-n", "neutral-grid"])
def test_cli_refuses_kernels_past_their_caps(tmp_path, capsys, case):
    # one past each cap: four sequences try C(52, 3) * 3! Kuhn chains at
    # resolution 49, against C(51, 3) * 3! at 48, which the cap admits
    assert math.comb(51, 3) * 6 <= MAX_KUHN_CHAINS < math.comb(52, 3) * 6
    seqs = [write(tmp_path, f"{i}.seq", f"{i:02b}" + "0" * 6) for i in range(4)]
    argv = {
        "urn-n": ["urn-check", str(MAX_URN_N + 1)],
        "neutral-grid": ["neutral", *seqs, "--depth", "2", "--resolution", "49"],
    }[case]
    assert run_cli(*argv) == 2
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


def test_cli_separator_certify(tmp_path, capsys):
    assert run_cli("separator", "8", "1/2", "--certify") == 0
    out = capsys.readouterr().out
    assert "1/128" in out


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
    content = open(out_path, encoding="ascii").read()
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
    assert open(out1, "rb").read() == open(out2, "rb").read()
