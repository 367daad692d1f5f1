"""Every TSV report names its own columns and fills each of them.

A subcommand's `run` returns a `Verdict` whose `header` the kernel that
built the rows chose, so the shape is checked where the reports come out:
on the demo battery, on the benchmark's `battery` and `compute` request
rounds at three seeds, and on the validation-error report.
"""
import io
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from randlab import demo
from randlab.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

#: Reports that are not TSV: `bernoulli-extend` writes a test file.
NOT_TSV = {"bernoulli-extend"}


def assert_one_cell_per_column(text: str, argv) -> None:
    header, *rows = [line.split("\t") for line in text.splitlines()]
    assert rows, argv
    for row in rows:
        assert len(row) == len(header) and all(row), (argv, header, row)


def run_corpus(work: Path, requests) -> int:
    """Writes each request's files, sends it through `main` and checks its report."""
    checked = 0
    for files, argv in requests:
        for name, content in files.items():
            (work / name).write_text(content, encoding="ascii")
        out = work / "report.tsv"
        if out.exists():
            out.unlink()
        argv = [str(work / a) if a in files else a for a in argv]
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main([*argv, "--out", str(out)])
        assert code in (0, 1), argv
        if argv[0] not in NOT_TSV:
            assert_one_cell_per_column(out.read_text(encoding="ascii"), argv)
            checked += 1
    return checked


def test_demo_battery_reports_have_one_cell_per_column(tmp_path):
    inputs = dict(demo.INPUTS)
    assert run_corpus(tmp_path, [(inputs, argv) for _, argv in demo.COMMANDS]) == len(demo.COMMANDS) - 1


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", ["battery", "compute"])
def test_benchmark_requests_have_one_cell_per_column(tmp_path, monkeypatch, workload, seed):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    requests = workloads.WORKLOADS[workload](random.Random(seed))
    assert run_corpus(tmp_path, [(r.files, r.argv) for r in requests]) > 0


def test_validation_error_reports_have_one_cell_per_column(tmp_path):
    files = {
        "bad.measure": "table 1\n0 1/2\n1 1/3\n",  # a measure error names one prefix
        "clash.machine": "0 1\n01 1\n",  # a machine error names a pair of programs
        "one.test": "test 1\n- 1/1\n",
    }
    requests = [
        (files, ["validate-measure", "bad.measure", "--depth", "1"]),
        (files, ["validate-test", "one.test", "--measure", "bad.measure"]),
        (files, ["machine-info", "clash.machine"]),
    ]
    assert run_corpus(tmp_path, requests) == 3
    text = (tmp_path / "report.tsv").read_text(encoding="ascii")
    assert text.splitlines()[0] == "error\twitness\tdetail"
