"""The traced benchmark (perfbench/tracing.py) patches cubalg functions by
(module, attribute) name; a missing name makes every traced run fail."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()

SITES = sorted(
    {
        site
        for table in (tracing.SPANS, tracing.HOT, tracing.COUNTED)
        for sites in table.values()
        for site in sites
    }
    | {(module, "kernel_for") for module in tracing.KERNEL_FOR_SITES}
)


@pytest.mark.parametrize("module_name, attr", SITES, ids=[f"{m}.{a}" for m, a in SITES])
def test_trace_site_exists(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))


def test_traced_child_runs_verify(tmp_path):
    # the benchmark's traced child wraps `kernel_for(periods, None)` at every
    # site and records `cubalg.backend_name()`; run it as the benchmark does
    root = TRACING.parents[1]
    cmd = [
        sys.executable,
        str(root / "perfbench" / "child.py"),
        str(root / "src"),
        "--trace",
        str(tmp_path / "spans.jsonl"),
        "t",
        "--",
        "verify",
        "--json",
        "--axioms",
        "A,B,S6",
        "--periods",
        "3,3,3",
        "--window",
        "1",
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["rc"] == 0
    assert result["backend"] == "pure"
    assert result["raw"]["calls:kernel.mult"] > 0
