"""Malformed input files fed through the four parsers and `cli.main`.

Whatever the files hold, a command exits 0, 1 or 2 and says at most one
line on stderr, never a traceback: 3 would be an internal failure.  Words
given on the command line are drawn like the words in the files, so none
looks like an option; argparse's own usage errors are out of scope.
"""
import io
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings, strategies as st

from randlab.cli import main

BAD_WORDS = ["2", "0b1", "1_0", "x", " 1"]
BAD_RATIONALS = ["-1/3", "1/0", "a/b", "1//2", "1.5"]
DEPTHS = ["0", "1", "2", "3", "4", "-1", "x", "17"]
FILES = ["m.measure", "n.measure", "t.test", "k.machine", "q.seq", "missing.measure"]

# Mostly well-formed pieces, so that most files get past the parsers and
# into the kernels; the rest are malformed in one place or another.
word = st.one_of(
    st.just("-"), st.text(alphabet="01", min_size=1, max_size=4), st.sampled_from(BAD_WORDS)
)
rational = st.one_of(
    st.builds(lambda a, b: f"{a}/{b}", st.integers(0, 9), st.integers(1, 9)),
    st.integers(0, 3).map(str),
    st.sampled_from(BAD_RATIONALS),
)
pair = st.builds("{} {}".format, word, rational)
noise = st.text(alphabet="01-/ x#", max_size=12)


def document(head, body):
    return st.builds(lambda h, lines: "\n".join([h, *lines]) + "\n", head, st.lists(body, max_size=8))


measure_text = st.one_of(
    st.builds("bernoulli {}".format, rational),
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

depth = st.sampled_from(["0", "1", "2", "3", "4", "16", "17", "-1"])
small = st.sampled_from(["0", "1", "2", "3", "4"])
prefix = word

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
]


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
    with tempfile.TemporaryDirectory() as work:
        for name, content in files.items():
            with open(os.path.join(work, name), "w", encoding="ascii") as handle:
                handle.write(content)
        argv = [os.path.join(work, a) if a in FILES else a for a in command(d, s, x)]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([*argv, "--out", os.path.join(work, "report.tsv")])
    assert code in (0, 1, 2), (argv, files, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert err.getvalue().count("\n") <= 1, err.getvalue()
