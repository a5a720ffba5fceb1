"""Traced run: spans and counters around cubalg's layers, from outside the package.

Each function `cubalg verify` reaches is wrapped under the name where its
caller looks it up: modules import by name, so `cubalg.verify.betti_full`
is patched, not `cubalg.homology.betti_full`.  Two kinds of wrapper exist:

* a span records name, start, end and parent, kept in memory and written
  out as JSON lines when the process ends;
* a hot wrapper, for per-cell calls made thousands of times, keeps a call
  count and an aggregate busy time instead of one span per call.  Only the
  outermost open hot call is charged to the enclosing span, so a span's
  self time is its duration minus its child spans and its hot calls.

The kernel is reached through a wrapped `kernel_for` that hands out one
counting proxy per kernel.  Calls a module makes to itself (for example
`mult` inside `scan_assoc`) never pass a patched name and stay invisible.
"""

from __future__ import annotations

import importlib
import json
import time

perf = time.perf_counter

CHECK_SPANS = {
    "A": "check_commutativity",
    "B": "check_associativity",
    "C": "check_leibniz",
    "D": "check_symmetry",
    "E": "check_transversality",
    "F": "check_general_position",
    "G": "check_pairing",
    "H": "check_fc_subalgebra",
    "J": "check_crumbling",
    "S6": "check_truncation",
    "BETTI": "check_betti",
    "STAR": "check_star",
}

# span name -> lookup sites (module, attribute) reached by `cubalg verify`
SPANS = {
    **{f"verify.{cid}": [("cubalg.verify", fn)] for cid, fn in CHECK_SPANS.items()},
    "cli.verify_axioms": [("cubalg.cli", "verify_axioms")],
    "homology.betti_full": [("cubalg.verify", "betti_full")],
    "homology.betti_two_h_span": [("cubalg.verify", "betti_two_h_span")],
    "homology.assembly": [
        ("cubalg.homology", "_boundary_matrix"),
        ("cubalg.homology", "_expansion_matrix"),
    ],
    "pairing.matrix": [("cubalg.verify", "pairing_matrix")],
    "linalg.rank": [("cubalg.linalg", "rank")],
    "linalg.det": [("cubalg.linalg", "det")],
    "linalg.mat_mul": [("cubalg.linalg", "mat_mul")],
    "truncation.closure": [("cubalg.verify", "kind_closure")],
}

# hot name -> lookup sites; counted and timed in aggregate
HOT = {
    "product.product": [("cubalg.verify", "product"), ("cubalg.pairing", "product")],
    "product.crumble": [("cubalg.verify", "crumble")],
    "chain.boundary": [("cubalg.homology", "boundary")],
    "grammar.format": [("cubalg.verify", "format_chain"), ("cubalg.verify", "format_rational")],
    "cuboid.general_position": [("cubalg.verify", "in_general_position")],
    "cuboid.oracle": [("cubalg.verify", "geometric_intersection")],
    "cuboid.to_chain": [("cubalg.verify", "cuboid_to_chain")],
    "twoh.expand": [("cubalg.homology", "expand"), ("cubalg.verify", "expand")],
}

# counted only: far too cheap and numerous to time per call
COUNTED = {
    "cells.encode": [
        ("cubalg.verify", "encode_cell"),
        ("cubalg.product", "encode_cell"),
        ("cubalg.chain", "encode_cell"),
    ],
    "cells.decode": [
        ("cubalg.verify", "decode_cell"),
        ("cubalg.product", "decode_cell"),
        ("cubalg.chain", "decode_cell"),
    ],
}

KERNEL_FOR_SITES = ["cubalg.product", "cubalg.chain", "cubalg.verify"]


class Hot:
    """Aggregate of one hot call site: count, busy time, open depth."""

    __slots__ = ("calls", "busy", "depth")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.depth = 0


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index, hot time inside]
        self.stack: list[int] = []
        self.hot: dict[str, Hot] = {}
        self.hot_open = 0
        self.counters: dict[str, float] = {}
        self.kernels: dict[int, "KernelProxy"] = {}

    def add(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def span(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            rec = [name, perf(), 0.0, stack[-1] if stack else None, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def hot_call(self, name, fn, after=None):
        h = self.hot.setdefault(name, Hot())
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            h.calls += 1
            h.depth += 1
            self.hot_open += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                h.depth -= 1
                self.hot_open -= 1
                if not h.depth:
                    h.busy += dt
                if not self.hot_open and stack:
                    spans[stack[-1]][4] += dt
            if after is not None:
                after(result)
            return result

        return wrapper

    def counted(self, name, fn):
        h = self.hot.setdefault(name, Hot())

        def wrapper(*args, **kwargs):
            h.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- results ----------------------------------------------------------

    def raw(self) -> dict[str, float]:
        """Additive totals: span and self time per span name, hot calls and
        busy time, and the extra counters.  Summing two processes' raw
        totals gives the raw totals of both."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = dict(self.counters)
        for i, (name, start, end, _parent, hot) in enumerate(self.spans):
            for key, value in (
                (f"span:{name}", end - start),
                (f"self:{name}", end - start - child_time[i] - hot),
                (f"n:{name}", 1),
            ):
                out[key] = out.get(key, 0) + value
        for name, h in self.hot.items():
            out[f"calls:{name}"] = h.calls
            out[f"busy:{name}"] = h.busy
        out["kernel.memo"] = sum(
            len(getattr(p._kernel, "_mult_cache", ())) for p in self.kernels.values()
        )
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for i, (name, start, end, parent, hot) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "id": i,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "hot_s": hot,
                        }
                    )
                    + "\n"
                )


class KernelProxy:
    """Stands in for a kernel: counts and times the calls made into it."""

    def __init__(self, kernel, tracer: Tracer):
        self._kernel = kernel
        self.mult = tracer.hot_call("kernel.mult", kernel.mult)
        self.boundary = tracer.hot_call("kernel.boundary", kernel.boundary)
        self.supports_intersect = tracer.hot_call("kernel.support", kernel.supports_intersect)
        self.transverse = tracer.hot_call("kernel.transverse", kernel.transverse)
        self.scan_assoc = tracer.span(
            "kernel.scan_assoc",
            kernel.scan_assoc,
            after=lambda result: tracer.add("kernel.scan_triples", result[0]),
        )

    def __getattr__(self, name):
        return getattr(self._kernel, name)


def _matrix_size(tracer: Tracer):
    def before(args):
        rows = args[0]
        tracer.add("linalg.entries", sum(len(r) for r in rows))
        tracer.add("linalg.nonzeros", sum(1 for r in rows for x in r if x))

    return before


def _patch(sites, make):
    """Replace each site's function by make(function); one wrapper per function."""
    made = {}
    for module_name, attr in sites:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        if id(original) not in made:
            made[id(original)] = make(original)
        setattr(module, attr, made[id(original)])


def install(run_id: str) -> Tracer:
    """Patch every lookup site in the imported cubalg package."""
    tracer = Tracer(run_id)
    for name, sites in SPANS.items():
        before = _matrix_size(tracer) if name in ("linalg.rank", "linalg.det") else None
        _patch(sites, lambda fn, name=name, before=before: tracer.span(name, fn, before=before))
    for name, sites in HOT.items():
        after = None
        if name == "cuboid.general_position":
            after = lambda ok: tracer.add("cuboid.accepted", 1 if ok else 0)  # noqa: E731
        _patch(sites, lambda fn, name=name, after=after: tracer.hot_call(name, fn, after=after))
    for name, sites in COUNTED.items():
        _patch(sites, lambda fn, name=name: tracer.counted(name, fn))

    def wrap_kernel_for(original):
        def kernel_for(periods, backend=None):
            kernel = original(periods, backend)
            proxy = tracer.kernels.get(id(kernel))
            if proxy is None:
                proxy = tracer.kernels[id(kernel)] = KernelProxy(kernel, tracer)
            return proxy

        return kernel_for

    _patch([(m, "kernel_for") for m in KERNEL_FOR_SITES], wrap_kernel_for)
    return tracer


def _ratio(num, den):
    return num / den if den else 0.0


# Per-layer metrics: name -> (unit, better, value from summed raw totals).
LAYER_METRICS = {
    "kernel.mult_calls": ("count", "lower", lambda r: r.get("calls:kernel.mult", 0)),
    "kernel.mult_distinct": ("count", "lower", lambda r: r.get("kernel.memo", 0)),
    "kernel.mult_busy_s": ("s", "lower", lambda r: r.get("busy:kernel.mult", 0)),
    "kernel.boundary_calls": ("count", "lower", lambda r: r.get("calls:kernel.boundary", 0)),
    "kernel.support_calls": ("count", "lower", lambda r: r.get("calls:kernel.support", 0)),
    "kernel.transverse_calls": ("count", "lower", lambda r: r.get("calls:kernel.transverse", 0)),
    "kernel.scan_assoc_s": ("s", "lower", lambda r: r.get("span:kernel.scan_assoc", 0)),
    "kernel.scan_triples_per_s": (
        "1/s",
        "higher",
        lambda r: _ratio(r.get("kernel.scan_triples", 0), r.get("span:kernel.scan_assoc", 0)),
    ),
    **{
        f"verify.{cid}_s": ("s", "lower", lambda r, cid=cid: r.get(f"span:verify.{cid}", 0))
        for cid in CHECK_SPANS
    },
    "verify.self_s": (
        "s",
        "lower",
        lambda r: sum(r.get(f"self:verify.{cid}", 0) for cid in CHECK_SPANS),
    ),
    "linalg.rank_calls": ("count", "lower", lambda r: r.get("n:linalg.rank", 0)),
    "linalg.rank_s": ("s", "lower", lambda r: r.get("span:linalg.rank", 0)),
    "linalg.det_s": ("s", "lower", lambda r: r.get("span:linalg.det", 0)),
    "linalg.mat_mul_s": ("s", "lower", lambda r: r.get("span:linalg.mat_mul", 0)),
    "linalg.matrix_entries": ("count", "lower", lambda r: r.get("linalg.entries", 0)),
    "linalg.nonzeros": ("count", "lower", lambda r: r.get("linalg.nonzeros", 0)),
    "homology.betti_full_s": ("s", "lower", lambda r: r.get("span:homology.betti_full", 0)),
    "homology.betti_two_h_span_s": (
        "s",
        "lower",
        lambda r: r.get("span:homology.betti_two_h_span", 0),
    ),
    "homology.assembly_s": ("s", "lower", lambda r: r.get("span:homology.assembly", 0)),
    "pairing.matrix_s": ("s", "lower", lambda r: r.get("span:pairing.matrix", 0)),
    "twoh.expand_calls": ("count", "lower", lambda r: r.get("calls:twoh.expand", 0)),
    "product.calls": ("count", "lower", lambda r: r.get("calls:product.product", 0)),
    "product.s": ("s", "lower", lambda r: r.get("busy:product.product", 0)),
    "product.crumble_s": ("s", "lower", lambda r: r.get("busy:product.crumble", 0)),
    "chain.boundary_calls": ("count", "lower", lambda r: r.get("calls:chain.boundary", 0)),
    "chain.boundary_s": ("s", "lower", lambda r: r.get("busy:chain.boundary", 0)),
    "cells.encode_calls": ("count", "lower", lambda r: r.get("calls:cells.encode", 0)),
    "cells.decode_calls": ("count", "lower", lambda r: r.get("calls:cells.decode", 0)),
    "grammar.format_s": ("s", "lower", lambda r: r.get("busy:grammar.format", 0)),
    "cuboid.general_position_calls": (
        "count",
        "lower",
        lambda r: r.get("calls:cuboid.general_position", 0),
    ),
    "cuboid.general_position_s": (
        "s",
        "lower",
        lambda r: r.get("busy:cuboid.general_position", 0),
    ),
    "cuboid.pairs_accepted": ("count", "higher", lambda r: r.get("cuboid.accepted", 0)),
    "cuboid.accept_ratio": (
        "ratio",
        "higher",
        lambda r: _ratio(r.get("cuboid.accepted", 0), r.get("calls:cuboid.general_position", 0)),
    ),
    "cuboid.oracle_s": ("s", "lower", lambda r: r.get("busy:cuboid.oracle", 0)),
    "cuboid.to_chain_s": ("s", "lower", lambda r: r.get("busy:cuboid.to_chain", 0)),
    "truncation.closure_s": ("s", "lower", lambda r: r.get("span:truncation.closure", 0)),
    "cli.emit_s": ("s", "lower", lambda r: r.get("self:cli.main", 0)),
}
