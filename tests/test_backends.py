"""Parity between the pure-Python kernel and the compiled extension."""

import hashlib
from pathlib import Path

import pytest

from cubalg._backend import available_backends, kernel_for
from cubalg.lattice import LatticeSpec
from cubalg.cells import window_codes

needs_compiled = pytest.mark.skipif(
    "compiled" not in available_backends(),
    reason="compiled kernel not built",
)


@needs_compiled
@pytest.mark.parametrize("periods", [(5,), (3, 3), (5, 5, 5), (3, 4, 5), (5, 5, 5, 5)])
def test_mult_boundary_parity(periods):
    lattice = LatticeSpec(periods)
    pure = kernel_for(periods, "pure")
    fast = kernel_for(periods, "compiled")
    cells = window_codes(lattice, 2)
    for a in cells:
        assert sorted(pure.boundary(a)) == sorted(fast.boundary(a))
        for b in cells:
            assert sorted(pure.mult(a, b)) == sorted(fast.mult(a, b))
            assert pure.supports_intersect(a, b) == fast.supports_intersect(a, b)
            assert pure.transverse(a, b) == fast.transverse(a, b)


@needs_compiled
def test_scan_assoc_parity():
    lattice = LatticeSpec((5, 5, 5))
    cells = window_codes(lattice, 2)
    pure = kernel_for((5, 5, 5), "pure").scan_assoc(cells)
    fast = kernel_for((5, 5, 5), "compiled").scan_assoc(cells)
    assert pure == fast


@needs_compiled
def test_compiled_rejects_oversized_code_space():
    # falls back to the pure kernel rather than overflowing pair keys
    big = tuple([45] * 6)
    kernel = kernel_for(big)
    assert kernel.name == "pure"
    with pytest.raises(OverflowError):
        kernel_for(big, "compiled")


@needs_compiled
def test_verify_reports_identical_across_backends(monkeypatch):
    import json

    from cubalg import _backend
    from cubalg.verify import verify_axioms

    def run(backend):
        _backend.kernel_for.cache_clear()
        if backend is None:
            monkeypatch.delenv("CUBALG_BACKEND", raising=False)
        else:
            monkeypatch.setenv("CUBALG_BACKEND", backend)
        reports = verify_axioms((5, 5, 5), axioms="A,B,C,E", window=2, seed=1)
        return json.dumps([r.to_json_dict() for r in reports], sort_keys=True)

    compiled = run("compiled")
    pure = run("pure")
    _backend.kernel_for.cache_clear()
    monkeypatch.delenv("CUBALG_BACKEND", raising=False)
    assert compiled == pure


SPEEDUPS_PYX_SHA256 = "01c07f523799f9740368bacefca1416278c5d4b2837a393fa313ee8ec84d1360"


def test_speedups_source_is_pinned():
    # the shipped _speedups.cpp is generated from this file and cannot be
    # regenerated without Cython, so an edit must not pass unnoticed
    pyx = Path(__file__).resolve().parents[1] / "src" / "cubalg" / "_speedups.pyx"
    assert hashlib.sha256(pyx.read_bytes()).hexdigest() == SPEEDUPS_PYX_SHA256, (
        "_speedups.pyx changed: regenerate _speedups.cpp from it with Cython, "
        "then update SPEEDUPS_PYX_SHA256 in this test"
    )


def test_bench_backends_script_runs():
    import importlib.util

    script = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_backends.py"
    spec = importlib.util.spec_from_file_location("bench_backends", script)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    rows = bench.bench_backend("pure", LatticeSpec((3, 3, 3)), 1)
    assert rows and all(t >= 0 for t in rows.values())
