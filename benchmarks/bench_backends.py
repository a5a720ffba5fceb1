#!/usr/bin/env python3
"""Benchmark: pure-Python kernel vs the compiled extension.

Times the hot kernels (basis products, boundaries, the exhaustive
associativity scan) and one end-to-end verification bundle on identical
inputs, and prints a small table.  Both backends compute identical
results; the parity tests in tests/test_backends.py pin that.

Usage: python benchmarks/bench_backends.py [--window 2] [--periods 5,5,5]
"""

import argparse
import math
import time

from cubalg._backend import available_backends, kernel_for
from cubalg.cells import window_codes
from cubalg.lattice import LatticeSpec
from cubalg.verify import check_commutativity, check_leibniz, check_transversality


def time_once(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def bench_backend(backend, lattice, window):
    periods = lattice.periods
    kernel_for.cache_clear()  # fresh kernel: no warm memo carried over
    kernel = kernel_for(periods, backend)
    cells = window_codes(lattice, window)

    def all_pair_products():
        total = 0
        for a in cells:
            for b in cells:
                total += len(kernel.mult(a, b))
        return total

    every_cell = range(math.prod(3 * n for n in periods))  # every code is a cell

    def all_boundaries():
        return [kernel.boundary(c) for c in every_cell]

    rows_t = {}
    # the first pass computes, the second reads the kernel's memo (the
    # compiled kernel memoizes products but recomputes boundaries)
    for name, fn in (
        ("pair products", all_pair_products),
        (f"boundaries of all {len(every_cell)} cells", all_boundaries),
    ):
        _, rows_t[f"{name} (cold)"] = time_once(fn)
        _, rows_t[f"{name} (memoized)"] = time_once(fn)
    (checked, bad), t = time_once(lambda: kernel.scan_assoc(cells))
    assert not bad
    rows_t[f"assoc scan ({checked} triples)"] = t
    return rows_t


def bench_checks(backend, lattice, window):
    import os

    os.environ["CUBALG_BACKEND"] = backend
    kernel_for.cache_clear()
    t0 = time.perf_counter()
    for check in (check_commutativity, check_leibniz, check_transversality):
        report = check(lattice, window)
        assert report.passed
    elapsed = time.perf_counter() - t0
    del os.environ["CUBALG_BACKEND"]
    kernel_for.cache_clear()
    return elapsed


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--periods", default="5,5,5")
    parser.add_argument("--window", type=int, default=2)
    args = parser.parse_args()
    lattice = LatticeSpec(tuple(int(p) for p in args.periods.split(",")))

    backends = available_backends()
    print(f"lattice {lattice}, window {args.window}, backends: {', '.join(backends)}\n")
    results = {b: bench_backend(b, lattice, args.window) for b in backends}
    checks = {b: bench_checks(b, lattice, args.window) for b in backends}
    for b in backends:
        results[b]["checks A+C+E end to end"] = checks[b]

    names = list(results[backends[0]])
    width = max(len(n) for n in names) + 2
    header = f"{'kernel benchmark':<{width}}" + "".join(f"{b:>12}" for b in backends)
    if len(backends) == 2:
        header += f"{'speedup':>10}"
    print(header)
    print("-" * len(header))
    for name in names:
        line = f"{name:<{width}}"
        for b in backends:
            line += f"{results[b][name]:>11.3f}s"
        if len(backends) == 2:
            ratio = results["pure"][name] / max(results["compiled"][name], 1e-9)
            line += f"{ratio:>9.1f}x"
        print(line)


if __name__ == "__main__":
    main()
