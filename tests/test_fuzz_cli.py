"""Malformed input files and command lines fed through the four parsers and `cli.main`.

Whatever the files hold, a command exits 0, 1 or 2 and says at most one
line on stderr, never a traceback: 3 would be an internal failure.  Words,
depths and levels given on the command line are drawn like the words in
the files, plus tokens that look like options (`--`, `-x`, `--bogus`), so
argparse's usage errors are drawn too.  A report that exits 1 claims a
certified violation, so it must carry a row that names it.
"""
import io
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from randlab.cli import main
from randlab.measures import all_words

BAD_WORDS = ["2", "0b1", "1_0", "x", " 1"]
BAD_RATIONALS = ["-1/3", "1/0", "a/b", "1//2", "1.5"]
DEPTHS = ["0", "1", "2", "3", "4", "-1", "x", "17"]
FILES = ["m.measure", "n.measure", "t.test", "k.machine", "q.seq", "missing.measure"]
OPTION_LIKE = ["--", "-x", "--bogus"]
# coins whose denominators pass the measure-table bit cap at depth 16 (and
# the 1000-digit one from depth 10), refused before any row is built
HUGE_RATIONALS = ["1/1" + "0" * 300, "1/1" + "0" * 1000]

# Mostly well-formed pieces, so that most files get past the parsers and
# into the kernels; the rest are malformed in one place or another.
word = st.one_of(
    st.just("-"), st.text(alphabet="01", min_size=1, max_size=4), st.sampled_from(BAD_WORDS)
)
rational = st.one_of(
    st.builds(lambda a, b: f"{a}/{b}", st.integers(0, 9), st.integers(1, 9)),
    st.integers(0, 3).map(str),
    st.sampled_from(BAD_RATIONALS),
    st.sampled_from(HUGE_RATIONALS),
)
pair = st.builds("{} {}".format, word, rational)
noise = st.text(alphabet="01-/ x#", max_size=12)


def document(head, body):
    return st.builds(lambda h, lines: "\n".join([h, *lines]) + "\n", head, st.lists(body, max_size=8))


measure_text = st.one_of(
    document(st.builds("bernoulli {}".format, rational), st.one_of(pair, noise)),
    document(st.builds("table {}".format, st.sampled_from(DEPTHS)), st.one_of(pair, noise)),
    document(st.just("mix"), st.one_of(st.builds("{} {}".format, rational, st.sampled_from(FILES)), noise)),
    noise,
)
test_text = st.one_of(
    document(st.builds("test {}".format, st.sampled_from(DEPTHS)), st.one_of(pair, pair, noise)), noise
)
machine_text = document(
    st.sampled_from(["monotone", "0 1", "- -"]), st.one_of(st.builds("{} {}".format, word, word), noise)
)
sequence = st.one_of(st.text(alphabet="01", max_size=10), st.text(alphabet="01 \n2", max_size=10))

depth = st.sampled_from(["0", "1", "2", "3", "4", "16", "17", "-1", *OPTION_LIKE])
small = st.sampled_from(["0", "1", "2", "3", "4", *OPTION_LIKE])
prefix = st.one_of(word, st.sampled_from(OPTION_LIKE))

COMMANDS = [
    lambda d, s, x: ["validate-measure", "m.measure", "--depth", d],
    lambda d, s, x: ["validate-test", "t.test", "--measure", "m.measure", "--depth", d],
    lambda d, s, x: ["martingale", "t.test", "--measure", "m.measure", "--mode", "supermartingale"],
    lambda d, s, x: ["prob-check", "t.test", "--measure", "m.measure"],
    lambda d, s, x: ["convert", "t.test", "--measure", "m.measure"],
    lambda d, s, x: ["min-extension", "t.test", x],
    lambda d, s, x: ["cond-average", "t.test", x, "--measure", "m.measure"],
    lambda d, s, x: ["sparsity", "t.test", x, "--measure", "m.measure"],
    lambda d, s, x: ["bernoulli-validate", "t.test"],
    lambda d, s, x: ["bernoulli-extend", "t.test", "--depth", d],
    lambda d, s, x: ["certify-bernoulli", "t.test"],
    lambda d, s, x: ["monotonize", "t.test"],
    lambda d, s, x: ["coupling", "m.measure", "n.measure", "--depth", s],
    lambda d, s, x: ["machine-info", "k.machine"],
    lambda d, s, x: ["deficiency", "q.seq", "--measure", "m.measure", "--machine", "k.machine", "--depth", d],
    lambda d, s, x: ["upcrossings", "q.seq", x, "1/3", "2/3"],
    lambda d, s, x: ["separator", "q.seq", "1/2", "--class-test", "t.test"],
    lambda d, s, x: ["neutral", "q.seq", "--machine", "k.machine", "--depth", s, "--resolution", "3"],
    lambda d, s, x: ["monotone-criterion", "m.measure", "n.measure", "--depth", s],
]


def names_a_violation(header: list[str], row: list[str]) -> bool:
    """A row that says what was violated: a failing verdict (`fail`,
    `invalid-test`, `non-monotone`, `missing`, `martingale:fail`), a
    validation error, an upper set that the lower measure overweights, a
    probability-bound witness, or a Sturm level rejected at a witness p."""
    if header[-1] == "verdict" and (
        row[-1] in ("fail", "invalid-test", "non-monotone", "missing") or row[-1].endswith(":fail")
    ):
        return True
    if header == ["error", "witness", "detail"]:
        return row[0] == "validation"
    if header == ["upper_set_word", "P(U)", "Q(U)"]:
        return Fraction(row[1]) > Fraction(row[2])
    if header == ["level", "degree", "verdict", "witness"]:
        return row[2] == "rejected" and row[3] != "-"
    return row[0].startswith("witness-N=")


def exits_cleanly(files: dict[str, str], command: list[str]) -> None:
    """Run one command on the files in a fresh directory and check the contract."""
    with tempfile.TemporaryDirectory() as work:
        for name, content in files.items():
            with open(os.path.join(work, name), "w", encoding="ascii") as handle:
                handle.write(content)
        argv = [os.path.join(work, a) if a in FILES else a for a in command]
        report = os.path.join(work, "report.tsv")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([*argv, "--out", report])
        if code == 1:
            with open(report, encoding="ascii") as handle:
                header, *rows = [line.split("\t") for line in handle.read().splitlines()]
            assert any(names_a_violation(header, row) for row in rows), (argv, files, rows)
    assert code in (0, 1, 2), (argv, files, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert err.getvalue().count("\n") <= 1, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(
    st.fixed_dictionaries(
        {
            "m.measure": measure_text,
            "n.measure": measure_text,
            "t.test": test_text,
            "k.machine": machine_text,
            "q.seq": sequence,
        }
    ),
    st.sampled_from(COMMANDS),
    depth,
    small,
    prefix,
)
def test_malformed_inputs_exit_cleanly(files, command, d, s, x):
    exits_cleanly(files, command(d, s, x))


# Well-formed files, so that most commands reach a verdict and many of them
# a violation: test values above 1, non-monotone or unbalanced tests, coins
# that cross, and now and then a table whose leaves do not sum to 1.
good_word = st.one_of(st.just("-"), st.text(alphabet="01", min_size=1, max_size=3))
fraction = st.builds(lambda a, b: f"{a}/{b}", st.integers(0, 9), st.integers(1, 4))
coin = st.builds("bernoulli {}/7".format, st.integers(0, 7))
leaves = st.integers(0, 3).flatmap(
    lambda n: st.lists(st.integers(0, 5), min_size=2 ** n, max_size=2 ** n).filter(any).map(
        lambda counts: "\n".join(
            [f"table {n}", *(f"{w or '-'} {c}/{sum(counts)}" for w, c in zip(all_words(n), counts))]
        )
    )
)
CHECKS = [  # the commands that can exit 1
    command for command in COMMANDS
    if command("0", "1", "-")[0] in {
        "validate-measure", "validate-test", "martingale", "prob-check", "convert",
        "sparsity", "bernoulli-validate", "certify-bernoulli", "coupling", "monotone-criterion",
    }
]
listed_test = st.integers(0, 3).flatmap(
    lambda n: st.dictionaries(st.text(alphabet="01", max_size=n), fraction, max_size=6).map(
        lambda listed: "\n".join([f"test {n}", *(f"{w or '-'} {v}" for w, v in listed.items())])
    )
)


@settings(max_examples=200, deadline=None)
@given(
    st.fixed_dictionaries(
        {
            "m.measure": st.one_of(
                coin, leaves, st.builds("table 1\n0 {}\n1 {}".format, fraction, fraction),
                st.sampled_from(HUGE_RATIONALS).map("bernoulli {}".format),
            ),
            "n.measure": st.one_of(coin, leaves),
            "t.test": listed_test,
            "k.machine": st.sampled_from(["0 1\n10 -\n11 11\n", "- 0\n", "monotone\n0 1\n01 10\n"]),
            "q.seq": st.text(alphabet="01", min_size=4, max_size=10),
        }
    ),
    st.sampled_from(CHECKS),
    st.sampled_from(["0", "1", "2", "3"]),
    st.sampled_from(["1", "2", "3"]),
    good_word,
)
def test_violations_on_well_formed_inputs_name_their_witness(files, command, d, s, x):
    exits_cleanly(files, command(d, s, x))
