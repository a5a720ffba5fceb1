"""The benchmark's verdict checks, run in-process on every workload invocation.

perfbench/run.py times each `cubalg verify` invocation of its workloads and
then holds every report to counts computed apart from the program
(perfbench/checks.py).  The same invocations and checks run here, untimed,
so a report the benchmark would count as a failed operation (a check that
fails, or a `checked` count that drifts from its closed form) fails a test
first.
"""

import importlib.util
import json
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
