"""The benchmark's verdict checks, run in-process on every workload invocation.

perfbench/run.py times each `cubalg verify` invocation of its workloads and
then holds every report to counts computed apart from the program
(perfbench/checks.py).  The same invocations and checks run here, untimed,
so a report the benchmark would count as a failed operation (a check that
fails, or a `checked` count that drifts from its closed form) fails a test
first.  The six-dimensional window row runs in a child process, held to
the same counts and to its memory budget.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cubalg.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_benchmark():
    # run.py imports its sibling modules (checks, child, tracing) by name
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


bench = _load_benchmark()

INVOCATIONS = [
    (workload.name, inv) for workload in bench.WORKLOADS.values() for inv in workload.invocations
]


@pytest.mark.parametrize(
    "inv",
    [inv for _, inv in INVOCATIONS],
    ids=[f"{name}:{inv.axioms}:{','.join(map(str, inv.periods))}:w{inv.window}" for name, inv in INVOCATIONS],
)
def test_benchmark_invocation_passes_its_verdict_checks(inv, capsys):
    assert main(inv.argv()) == 0
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert sorted(r["check"] for r in reports) == sorted(inv.check_ids())
    expected = inv.expected()
    for rep in reports:
        assert bench.checks.check_report(rep, inv.periods, expected) == [], rep["check"]


def test_the_six_dimensional_window_row_runs_within_its_budget():
    # at 3^6 window 2 (46,656 cells) every window check but J decides and
    # counts per axis: none builds a pair table or a pairing matrix, and C
    # draws only the rows it records, so the row stays below 500 MB
    periods, axioms = (3,) * 6, "A,B,C,D,E,G"
    argv = ["verify", "--axioms", axioms, "--periods", "3,3,3,3,3,3", "--window", "2", "--json"]
    code = (
        "import resource, sys\n"
        "from cubalg.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PERFBENCH.parent / "src")}
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=300
    )
    assert done.returncode == 0, done.stderr
    reports = json.loads(done.stdout)["reports"]
    expected = bench.checks.expected_checked(periods, 2)
    assert [r["check"] for r in reports] == axioms.split(",")
    assert all(r["status"] == "passed" for r in reports)
    assert [r["checked"] for r in reports] == [expected[c] for c in axioms.split(",")]
    assert int(done.stderr.split()[-1]) < 500_000  # ru_maxrss in KB
