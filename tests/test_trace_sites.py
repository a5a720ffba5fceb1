"""The traced benchmark (perfbench/tracing.py) patches cubalg functions by
(module, attribute) name; a missing name makes every traced run fail."""

import importlib
import importlib.util
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
