"""The verification harness: reports, expected failures, determinism, replay."""

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from cubalg import LatticeSpec, crumble, parse_chain, product
from cubalg._kernel_py import PyKernel, kernel_for
from cubalg.cells import FactorKind, join_code
from cubalg.verify import (
    check_betti,
    check_crumbling,
    check_fc_subalgebra,
    check_general_position,
    check_leibniz,
    check_pairing,
    check_star,
    check_symmetry,
    check_transversality,
    check_truncation,
    check_commutativity,
    check_associativity,
    verify_axioms,
)
from tests.test_kernel import BROKEN_CASES, PREMISE_MUTANTS, SCAN_CASES, doubled_entry_kernel


@pytest.fixture(scope="module")
def L3m():
    return LatticeSpec((5, 5, 5))


def test_commutativity_and_associativity_pass(L3m):
    assert check_commutativity(L3m, 2).passed
    rep = check_associativity(L3m, 2)
    assert rep.passed and rep.checked == 729000


def test_commutativity_wider_window(L3m):
    # a 3-window keeps every pair clear of the torus seam on period 5
    rep = check_commutativity(L3m, 3)
    assert rep.passed and rep.checked > 0


def test_leibniz_check_passes_with_ideal_witnesses(L3m):
    rep = check_leibniz(L3m, 2)
    assert rep.passed
    assert rep.details["ideal_pair_failures"] > 0
    assert rep.witnesses


def test_leibniz_canonical_witness_1d():
    rep = check_leibniz(LatticeSpec((5,)), 2)
    assert rep.passed
    assert rep.details["canonical_witness"]["residual"] == "-1/4*[p@0]"


def test_symmetry_and_transversality(L3m):
    assert check_symmetry(L3m, 2).passed
    assert check_transversality(L3m, 2).passed


def test_pairing_check_odd_vs_even():
    odd = check_pairing(LatticeSpec((3, 3, 3)), 2)
    assert odd.passed
    even = check_pairing(LatticeSpec((4, 3, 3)), 2)
    assert not even.passed
    kinds = {v["kind"] for v in even.violations}
    assert kinds == {"degenerate-pairing"}
    # Frobenius still holds on the even lattice; only nondegeneracy fails
    assert all(v["kind"] != "frobenius" for v in even.violations)


def test_fc_and_crumbling(L3m):
    assert check_fc_subalgebra(L3m, 2).passed
    rep = check_crumbling(L3m, 2, 3)
    assert rep.passed


def test_crumbling_telescoping_detail():
    rep = check_crumbling(LatticeSpec((5,)), 2, 3)
    assert rep.passed
    assert rep.details["telescoping"] == "[s@0] - [i@0] + [s@1] + [s@2] - [i@3]"


def test_truncation_check():
    rep = check_truncation(seed=0)
    assert rep.passed
    assert rep.details["n4m2"]["max_ideal_dimension"] is None
    assert rep.details["n4m3"]["max_ideal_dimension"] == 2
    assert rep.details["n5m3"]["max_ideal_dimension"] == 1
    assert rep.details["n6m4"]["max_ideal_dimension"] == 2
    assert rep.details["augmented_triple_product_6d"] == "1"
    witness = [w for w in rep.witnesses if w["kind"] == "leibniz-failure"]
    assert len(witness) == 1 and witness[0]["n"] == 4 and witness[0]["m"] == 3


def test_betti_check_flags_paper_claim_discrepancy():
    ok = check_betti(LatticeSpec((3, 3, 3)))
    assert ok.passed
    rep = check_betti(LatticeSpec((4, 3, 3)))
    assert not rep.passed
    disc = [v for v in rep.violations if v["kind"] == "paper-claim-discrepancy"]
    assert len(disc) == 1
    assert disc[0]["claimed"] == [2, 6, 6, 2]
    assert disc[0]["computed_span"] == [2, 5, 4, 1]
    assert disc[0]["free_basis_variant"] == [2, 6, 6, 2]


@pytest.mark.parametrize("k", [3, 5, 7])
def test_star_check_emits_non_commutation_witness(k):
    rep = check_star(LatticeSpec((3, 3, 3)), k=k)
    assert rep.passed
    kinds = [w["kind"] for w in rep.witnesses]
    assert "star-crumble-non-commutation" in kinds


def test_star_commutes_with_trivial_crumbling():
    # k = 1 crumbles nothing, so the expected failure must be reported missing
    rep = check_star(LatticeSpec((3, 3, 3)), k=1)
    assert rep.status == "failed"
    assert [v["kind"] for v in rep.violations] == ["expected-failure-missing"]


def test_verify_axioms_sorted_and_selectable(L3m):
    reports = verify_axioms((5, 5, 5), axioms="C,A", window=2)
    assert [r.check_id for r in reports] == ["A", "C"]
    with pytest.raises(ValueError):
        verify_axioms((5, 5, 5), axioms="Q")
    # only the Python API can pass an id that is not a string
    with pytest.raises(ValueError, match="unknown axiom id 5"):
        verify_axioms((5, 5, 5), axioms=["A", 5])


@pytest.mark.parametrize(
    "check",
    [
        check_commutativity,
        check_associativity,
        check_leibniz,
        check_symmetry,
        check_transversality,
        check_pairing,
        check_fc_subalgebra,
        lambda lattice, window: check_crumbling(lattice, window, 3),
    ],
    ids=list("ABCDEGHJ"),
)
@pytest.mark.parametrize("window", [0, 4])
def test_window_checks_reject_a_window_outside_the_periods(check, window):
    # window 4 overflows the codes at period 3; window 0 would check nothing
    with pytest.raises(ValueError, match="window must be between 1 and the smallest period 3"):
        check(LatticeSpec((3, 3, 3)), window)


@pytest.mark.parametrize("k", [2, 0, -1])
def test_crumbling_check_rejects_a_factor_crumble_refuses(k):
    with pytest.raises(ValueError, match="must be odd and positive"):
        crumble(parse_chain("[s@0,p@0]", LatticeSpec((3, 3))), k)
    with pytest.raises(ValueError, match="must be odd and positive"):
        check_crumbling(LatticeSpec((3, 3)), 2, k)


def test_verify_i_pulls_dependencies(monkeypatch):
    reports = verify_axioms((5, 5, 5), axioms="I", window=2)
    ids = [r.check_id for r in reports]
    assert ids == ["A", "B", "C", "D", "E", "F", "I"]
    assert all(r.passed for r in reports)
    # a repeated id, named or pulled in by I, runs once
    import cubalg.verify

    once = [r.check_id for r in verify_axioms((3, 3, 3), "A,I", window=1)]
    calls, real = [], cubalg.verify.check_commutativity
    monkeypatch.setattr(
        cubalg.verify, "check_commutativity", lambda *args: calls.append(args) or real(*args)
    )
    assert [r.check_id for r in verify_axioms((3, 3, 3), "A,A,I", window=1)] == once
    assert len(calls) == 1


def test_reports_deterministic(L3m):
    def run():
        reports = verify_axioms((5, 5, 5), axioms="A,C,E", window=2, seed=7)
        return json.dumps([r.to_json_dict() for r in reports], sort_keys=True)

    assert run() == run()


def test_witness_replay_through_cli():
    rep = check_leibniz(LatticeSpec((5, 5, 5)), 2)
    witness = rep.witnesses[0]
    argv = [sys.executable, "-m", "cubalg.cli"] + witness["replay"]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    out = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert out.returncode == 0
    # the replayed product reproduces the product underlying the violation
    lattice = LatticeSpec((5, 5, 5))
    a = parse_chain(witness["a"], lattice)
    b = parse_chain(witness["b"], lattice)
    from cubalg.grammar import format_chain

    assert out.stdout.strip() == format_chain(product(a, b))


def test_general_position_check_at_period_three():
    # edges as long as the period wrap whole axes; such pairs are not sampled
    rep = check_general_position(LatticeSpec((3, 3, 3)), seed=0)
    assert rep.passed and rep.checked == 200


def test_pairing_check_ranks_each_matrix_once(monkeypatch):
    # decided, G ranks per axis and builds no matrix; without the tensor
    # fact it builds and ranks one matrix per degree
    import cubalg.linalg
    import cubalg.verify

    calls, built = [], []
    rank, build = cubalg.linalg.rank, cubalg.verify.pairing_matrix

    def counting_rank(entries):
        calls.append(len(entries))
        return rank(entries)

    def counting_build(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(cubalg.linalg, "rank", counting_rank)
    monkeypatch.setattr(cubalg.verify, "pairing_matrix", counting_build)
    lattice = LatticeSpec((3, 3, 3))
    decided = check_pairing(lattice, 1)
    assert decided.passed and calls == built == []
    monkeypatch.setattr(PyKernel, "tensor", lambda self: False)
    walked = check_pairing(lattice, 1)
    assert walked.to_json_dict() == decided.to_json_dict()
    assert len(calls) == len(built) == len(walked.details["degrees"]) == lattice.d // 2 + 1


@pytest.mark.parametrize(
    "periods, options",
    [
        ((5, 5, 5), {"axioms": "A", "window": 0}),
        ((5,), {"axioms": "B", "window": 9}),
        ((5, 5, 5), {"axioms": "J", "k": 2}),
    ],
)
def test_verify_rejects_inputs_that_would_mislead(periods, options):
    from cubalg.cli import main

    with pytest.raises(ValueError):
        verify_axioms(periods, **options)
    argv = ["verify", "--periods", ",".join(map(str, periods))]
    for key, value in options.items():
        argv += [f"--{key}", str(value)]
    assert main(argv) == 2


def _patch_kernel(monkeypatch, kernel):
    import cubalg.verify

    monkeypatch.setattr(cubalg.verify, "kernel_for", lambda periods: kernel)
    return kernel


@pytest.mark.parametrize("walks", [False, True])
def test_associativity_and_frobenius_share_one_scan(monkeypatch, walks):
    # decided, B and G ask `associative` once and walk nothing; otherwise
    # they share one walk
    from cubalg._kernel_py import PyKernel

    class CountingKernel(PyKernel):
        decisions = scans = 0

        def associative(self, size):
            self.decisions += 1
            return not walks and super().associative(size)

        def scan_assoc(self, table):
            self.scans += 1
            return super().scan_assoc(table)

    both = _patch_kernel(monkeypatch, CountingKernel((3, 3, 3)))
    reports = verify_axioms((3, 3, 3), axioms="B,G", window=1)
    assert (both.decisions, both.scans) == (1, walks)
    assert all(r.passed for r in reports)
    assert reports[1].checked == reports[0].checked + 2  # plus one per pairing degree
    alone = _patch_kernel(monkeypatch, CountingKernel((3, 3, 3)))
    (g,) = verify_axioms((3, 3, 3), axioms="G", window=1)
    assert (alone.decisions, alone.scans) == (1, walks) and g.checked == reports[1].checked


@pytest.mark.parametrize("walks,window", [(False, 2), (True, 1)])
def test_the_pair_checks_and_the_triple_scan_read_one_table(monkeypatch, walks, window):
    # decided, the window's checks build no pair table at all; without the
    # tensor fact the pair walks and the triple scan read one
    import cubalg.verify
    from cubalg.verify import _assoc_scan, _window, _window_codes

    kernel_for.cache_clear()
    _window_codes.cache_clear()
    _window.cache_clear()
    _assoc_scan.cache_clear()
    tables, builds, codes_calls = [], [], []
    scan, build = PyKernel.scan_assoc, cubalg.verify.pair_table
    window_codes = cubalg.verify.window_codes

    def recording_scan(self, table):
        tables.append(table)
        return scan(self, table)

    def counting_build(*args):
        builds.append(args)
        return build(*args)

    def counting_codes(*args):
        codes_calls.append(args)
        return window_codes(*args)

    monkeypatch.setattr(PyKernel, "scan_assoc", recording_scan)
    monkeypatch.setattr(cubalg.verify, "pair_table", counting_build)
    monkeypatch.setattr(cubalg.verify, "window_codes", counting_codes)
    if walks:
        monkeypatch.setattr(PyKernel, "tensor", lambda self: False)
    reports = verify_axioms((3, 3, 3), "A,B,C,E,G", window)
    assert all(r.passed for r in reports)
    assert len(builds) == len(tables) == walks
    assert all(table is _window(LatticeSpec((3, 3, 3)), window) for table in tables)
    assert len(codes_calls) == 1


def test_violations_capped_and_counted(monkeypatch):
    from cubalg._kernel_py import PyKernel
    from cubalg.verify import _MAX_RECORDED

    class Lopsided(PyKernel):
        def mult(self, a, b):
            return ((a, 1),) if a < b else ()

    _patch_kernel(monkeypatch, Lopsided((3, 3, 3)))
    rep = check_commutativity(LatticeSpec((3, 3, 3)), 1)
    # a window of one: all 27 cells meet, and only the 27 pairs a == b commute
    assert rep.checked == 27 * 28 // 2
    assert rep.violation_count == rep.checked - 27
    assert len(rep.violations) == _MAX_RECORDED
    assert all(v["kind"] == "commutativity" and "replay" in v for v in rep.violations)
    assert not rep.passed
    assert rep.to_json_dict()["violation_count"] == rep.violation_count


def test_frobenius_violation_read_off_the_associativity_scan(monkeypatch):
    from cubalg._kernel_py import POINT, STICK, PyKernel

    class Broken(PyKernel):
        # s@0 * p@0 = 3/4 p@0 instead of 1/2 p@0
        def mult(self, a, b):
            if (a, b) == (STICK, POINT):
                return ((POINT, 3),)
            return super().mult(a, b)

    _patch_kernel(monkeypatch, Broken((3,)))
    lattice = LatticeSpec((3,))
    assert not check_associativity(lattice, 1).passed
    rep = check_pairing(lattice, 1)
    frobenius = [v for v in rep.violations if v["kind"] == "frobenius"]
    # <s*s,p> = 8/16 but <s,s*p> = 9/16
    assert {"kind": "frobenius", "a": "[s@0]", "b": "[s@0]", "c": "[p@0]"} in frobenius
    assert rep.violation_count == len(frobenius)


def test_report_that_examined_nothing_is_skipped():
    from cubalg.verify import CheckReport

    rep = CheckReport("X", "nothing", (5, 5))
    assert rep.status == "skipped" and not rep.passed
    assert rep.to_json_dict()["status"] == "skipped"
    rep.checked = 1
    assert rep.status == "passed" and rep.passed
    rep.violate("x")
    assert rep.status == "failed" and not rep.passed


SKIPPED_OFF_3D = {"BETTI", "F", "H", "I", "STAR"}


@pytest.mark.parametrize(
    "periods, exit_code",
    [("2", 2), ("5,5", 1), ("5,5,5", 0)],
)
def test_verify_status_and_exit_code(capsys, periods, exit_code):
    from cubalg.cli import main

    argv = ["verify", "--axioms", "H,BETTI,STAR,F,I", "--periods", periods, "--window", "1"]
    if exit_code == 2:
        # a period below 3 is a usage error, rejected before any check runs
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--json"])
        assert exc.value.code == 2
        return
    assert main(argv + ["--json"]) == exit_code
    data = json.loads(capsys.readouterr().out)
    statuses = {r["check"]: r["status"] for r in data["reports"]}
    assert set(statuses) == {"A", "B", "C", "D", "E"} | SKIPPED_OFF_3D
    three_d = len(periods.split(",")) == 3
    for check_id, status in statuses.items():
        skipped = check_id in SKIPPED_OFF_3D and not three_d
        assert status == ("skipped" if skipped else "passed"), check_id
    assert all(r["passed"] == (r["status"] == "passed") for r in data["reports"])
    assert data["passed"] is three_d


def test_verify_text_marks_skipped_checks(capsys):
    from cubalg.cli import main

    assert main(["verify", "--axioms", "H,BETTI,STAR", "--periods", "5,5"]) == 1
    out = capsys.readouterr().out
    assert out.count("[SKIP]") == 3 and "[PASS]" not in out
    assert "all checks passed" not in out


# -- A, C and E read the window table; per-pair loops are their oracle -------


def _reference_report(check_id, lattice, window):
    from cubalg.verify import CheckReport

    return CheckReport(check_id, "", lattice.periods, window)


def reference_commutativity(kernel, lattice, window):
    """Check A as one independent test per pair, supports tested pair by pair."""
    from cubalg.cells import code_codim, window_codes
    from cubalg.verify import _cells, _chain_str

    cells = window_codes(lattice, window)
    scale = 4**lattice.d
    report = _reference_report("A", lattice, window)
    for i, a in enumerate(cells):
        for b in cells[i:]:
            if not kernel.supports_intersect(a, b):
                continue
            sign = (-1) ** (code_codim(a, lattice) * code_codim(b, lattice))
            ab, ba = dict(kernel.mult(a, b)), dict(kernel.mult(b, a))
            report.checked += 1
            if ab != {c: sign * v for c, v in ba.items()}:
                report.violate(
                    "commutativity",
                    **_cells(lattice, a, b),
                    **{"a*b": _chain_str(ab, lattice, scale), "b*a": _chain_str(ba, lattice, scale)},
                )
    return report


def reference_residual(kernel, a, b, lattice):
    """boundary(a)*b + (-1)**codim(a) * a*boundary(b) - boundary(a*b), scaled 4**d."""
    from cubalg.cells import code_codim

    acc = {}

    def add(terms, weight):
        for c, v in terms:
            acc[c] = acc.get(c, 0) + weight * v

    for cell, num in kernel.mult(a, b):
        add(kernel.boundary(cell), -num)
    for u, sgn in kernel.boundary(a):
        add(kernel.mult(u, b), sgn)
    for u, sgn in kernel.boundary(b):
        add(kernel.mult(a, u), (-1) ** code_codim(a, lattice) * sgn)
    return {c: v for c, v in acc.items() if v}


def reference_leibniz(kernel, lattice, window):
    """Check C's pair loop, each pair's codimension and ideal flags derived afresh."""
    from cubalg.cells import code_is_ideal, window_codes
    from cubalg.verify import _cells, _chain_str

    cells = window_codes(lattice, window)
    scale = 4**lattice.d
    report = _reference_report("C", lattice, window)
    ideal_failures = 0
    for a in cells:
        for b in cells:
            residual = reference_residual(kernel, a, b, lattice)
            report.checked += 1
            if not residual:
                continue
            fields = {**_cells(lattice, a, b), "residual": _chain_str(residual, lattice, scale)}
            if code_is_ideal(a, lattice) or code_is_ideal(b, lattice):
                ideal_failures += 1
                report.witness("leibniz-failure-on-ideal-cells", **fields)
            else:
                report.violate("leibniz", **fields)
    report.details["ideal_pair_failures"] = ideal_failures
    if ideal_failures == 0:
        report.violate(
            "expected-failure-missing",
            note="no ideal pair broke the product rule; the enlarged complex must",
        )
    return report


def reference_transversality(kernel, lattice, window):
    """Check E with the kernel's own per-pair transversality test."""
    from cubalg.cells import window_codes
    from cubalg.verify import _cells

    cells = window_codes(lattice, window)
    report = _reference_report("E", lattice, window)
    for a in cells:
        for b in cells:
            nonzero = bool(kernel.mult(a, b))
            expected = kernel.transverse(a, b)
            report.checked += 1
            if nonzero != expected:
                report.violate(
                    "transversality",
                    **_cells(lattice, a, b),
                    product_nonzero=nonzero,
                    transverse=expected,
                )
    return report


def _seeded_pair(lattice, window, seed, keep):
    """A seeded pair (a, b), a != b, of window cells for which keep(a, b) holds."""
    from cubalg.cells import window_codes

    cells = window_codes(lattice, window)
    pairs = [(a, b) for a in cells for b in cells if a != b and keep(a, b)]
    return random.Random(seed).choice(pairs)


class FlippedSign(PyKernel):
    """The product of the pair `target` has the sign of its first term flipped."""

    target = None

    def mult(self, a, b):
        terms = super().mult(a, b)
        if (a, b) == self.target:
            (u, w), rest = terms[0], terms[1:]
            return ((u, -w),) + rest
        return terms


def flipped_sign_kernel(periods, window, seed):
    """mult(b, a) of one seeded meeting pair with a nonzero product has the
    sign of its first term flipped."""
    kernel = FlippedSign(periods)
    b, a = _seeded_pair(
        LatticeSpec(periods),
        window,
        seed,
        lambda a, b: kernel.supports_intersect(a, b) and kernel.mult(a, b),
    )
    kernel.target = (b, a)
    return kernel


def ghost_product_kernel(periods, window, seed):
    """One seeded pair whose closed supports do not meet gets a nonzero product."""
    from cubalg._kernel_py import PyKernel

    class GhostProduct(PyKernel):
        target = None

        def mult(self, a, b):
            if (a, b) == self.target:
                return ((a, 4**self.d),)
            return super().mult(a, b)

    kernel = GhostProduct(periods)
    kernel.target = _seeded_pair(
        LatticeSpec(periods), window, seed, lambda a, b: not kernel.supports_intersect(a, b)
    )
    return kernel


class FlippedBoundary(PyKernel):
    """The boundary of the cell `target` has the sign of its first entry flipped."""

    target = None

    def boundary(self, code):
        terms = super().boundary(code)
        if code == self.target:
            (u, s), rest = terms[0], terms[1:]
            return ((u, -s),) + rest
        return terms


class DoubledProduct(PyKernel):
    """The product of the pair `target` has its first coefficient doubled."""

    target = None

    def mult(self, a, b):
        terms = super().mult(a, b)
        if (a, b) == self.target:
            (u, w), rest = terms[0], terms[1:]
            return ((u, 2 * w),) + rest
        return terms


def corrupted_boundary_kernel(periods, window, seed):
    """The boundary of one seeded window cell with a stick factor has the
    sign of its first entry flipped."""
    from cubalg.cells import window_codes

    kernel = FlippedBoundary(periods)
    cells = window_codes(LatticeSpec(periods), window)
    kernel.target = random.Random(seed).choice([c for c in cells if kernel.boundary(c)])
    return kernel


def shared_product_kernel(periods, window, seed):
    """For one seeded meeting pair of odd-codimension cells, b*a returns the
    very object a*b, where graded commutativity asks for its negative."""
    from cubalg._kernel_py import PyKernel
    from cubalg.cells import code_codim

    class SharedProduct(PyKernel):
        target = None

        def mult(self, a, b):
            if (a, b) == self.target:
                return super().mult(b, a)
            return super().mult(a, b)

    kernel = SharedProduct(periods)
    lattice = LatticeSpec(periods)

    def odd_meeting(a, b):
        odd = code_codim(a, lattice) % 2 and code_codim(b, lattice) % 2
        return odd and kernel.supports_intersect(a, b) and kernel.mult(a, b)

    b, a = _seeded_pair(lattice, window, seed, odd_meeting)
    kernel.target = (b, a)
    return kernel


BROKEN = {
    "flipped-sign": (flipped_sign_kernel, "A"),
    "shared-product": (shared_product_kernel, "A"),
    "ghost-product": (ghost_product_kernel, "E"),
    "corrupted-boundary": (corrupted_boundary_kernel, "C"),
}


@pytest.mark.parametrize("periods,window,seed", [((3, 5), 2, 0), ((3, 5), 2, 1), ((3, 3, 3), 2, 0)])
@pytest.mark.parametrize("broken", sorted(BROKEN))
def test_window_table_checks_match_per_pair_loops_on_broken_kernels(
    monkeypatch, broken, periods, window, seed
):
    make, flagged_by = BROKEN[broken]
    lattice = LatticeSpec(periods)
    reports = {}
    for check_id, check, reference in (
        ("A", check_commutativity, reference_commutativity),
        ("C", check_leibniz, reference_leibniz),
        ("E", check_transversality, reference_transversality),
    ):
        _patch_kernel(monkeypatch, make(periods, window, seed))
        got = check(lattice, window)
        expected = reference(make(periods, window, seed), lattice, window)
        assert got.checked == expected.checked
        assert got.violation_count == expected.violation_count
        assert got.violations == expected.violations
        assert got.witnesses == expected.witnesses
        monkeypatch.undo()
        reports[check_id] = got
    assert reports[flagged_by].violation_count > 0


# (3, 5, 4, 7) has four distinct periods, so each of D's 23 permutations
# lands on a lattice of its own
FACT_CASES = [
    ((3, 3, 3), 2),
    ((3, 5), 2),
    ((4, 3, 3), 1),
    ((3, 3, 5), 1),
    ((3, 3, 3, 3), 1),
    ((3, 5, 4, 7), 1),
]


@pytest.mark.parametrize("periods,window", FACT_CASES)
@pytest.mark.parametrize(
    "check",
    [check_commutativity, check_leibniz, check_symmetry, check_transversality, check_fc_subalgebra],
)
def test_meeting_pair_walks_report_what_the_full_walks_do(monkeypatch, check, periods, window):
    # the tensor fact lets A, D and E decide every pair per axis, and C and
    # H compute only the pairs whose supports meet, or none; a kernel
    # without it computes every pair
    lattice = LatticeSpec(periods)
    assert kernel_for(periods).tensor()
    fast = check(lattice, window).to_json_dict()
    monkeypatch.setattr(PyKernel, "tensor", lambda self: False)
    assert check(lattice, window).to_json_dict() == fast


def test_truncation_meeting_pair_walks_report_what_the_full_walks_do(monkeypatch):
    fast = check_truncation(0).to_json_dict()
    monkeypatch.setattr(PyKernel, "tensor", lambda self: False)
    assert check_truncation(0).to_json_dict() == fast


@pytest.mark.parametrize("periods,window", FACT_CASES)
@pytest.mark.parametrize("check", [check_leibniz, check_fc_subalgebra])
def test_the_product_rule_fact_reports_what_the_walk_does(monkeypatch, check, periods, window):
    # with `residual_rows`, C and H compute a residual only where it is
    # nonzero; without it, every pair they walk
    lattice = LatticeSpec(periods)
    assert kernel_for(periods).residual_rows() is not None
    decided = check(lattice, window).to_json_dict()
    monkeypatch.setattr(PyKernel, "residual_rows", lambda self: None)
    assert check(lattice, window).to_json_dict() == decided


def test_truncation_with_the_product_rule_fact_reports_what_the_walk_does(monkeypatch):
    decided = check_truncation(0).to_json_dict()
    monkeypatch.setattr(PyKernel, "residual_rows", lambda self: None)
    assert check_truncation(0).to_json_dict() == decided


def test_leibniz_multiplies_only_the_entries_it_records(monkeypatch):
    # on the standard tables C decides its 46,656 pairs per axis and
    # computes the residuals of its ten recorded witnesses alone
    import cubalg.verify

    kernel = _patch_kernel(monkeypatch, PyKernel((3, 3, 3)))
    real_mult, real_residual = kernel.mult, cubalg.verify.residual
    residuals, stray = [], []

    def mult(a, b):
        if not residuals or residuals[-1] is None:
            stray.append((a, b))
        return real_mult(a, b)

    def residual(kernel, a, b):
        residuals.append((a, b))
        out = real_residual(kernel, a, b)
        residuals.append(None)
        return out

    kernel.mult = mult
    monkeypatch.setattr(cubalg.verify, "residual", residual)
    report = check_leibniz(LatticeSpec((3, 3, 3)), 2)
    assert report.passed and report.details["ideal_pair_failures"] == 6552
    assert len(report.witnesses) == 10 and not report.violations
    assert len(residuals) == 2 * 10 and stray == []


@pytest.mark.parametrize("broken,periods,window,seed", BROKEN_CASES)
def test_leibniz_on_broken_tables_matches_the_per_pair_loop(
    monkeypatch, broken, periods, window, seed
):
    # a doubled entry keeps every premise of the product-rule fact, so C
    # decides it per axis from the doubled table; the other table mutants
    # break one and take the walk
    lattice = LatticeSpec(periods)
    kernel = _patch_kernel(monkeypatch, broken(periods, window, seed))
    assert (kernel.residual_rows() is not None) == (broken is doubled_entry_kernel)
    got = check_leibniz(lattice, window)
    expected = reference_leibniz(broken(periods, window, seed), lattice, window)
    assert got.checked == expected.checked
    assert got.violation_count == expected.violation_count
    assert got.violations == expected.violations
    assert got.witnesses == expected.witnesses
    assert got.details["ideal_pair_failures"] == expected.details["ideal_pair_failures"]


def _leibniz_counted_and_looped(monkeypatch, kernel, lattice, window):
    """C's JSON report on `kernel`, counted by the programme over the axes,
    then with the programme off, so that every `residual_masks` row is
    drawn and counted."""
    _patch_kernel(monkeypatch, kernel)
    counted = check_leibniz(lattice, window).to_json_dict()
    monkeypatch.setattr(PyKernel, "residual_counts", lambda self, residuals, size: None)
    looped = check_leibniz(lattice, window).to_json_dict()
    monkeypatch.undo()
    return counted, looped


@pytest.mark.parametrize("periods,window", SCAN_CASES + [((3, 3, 3), 2), ((5,), 3)])
def test_leibniz_counts_equal_the_residual_rows_loop(monkeypatch, periods, window):
    counted, looped = _leibniz_counted_and_looped(
        monkeypatch, PyKernel(periods), LatticeSpec(periods), window
    )
    assert counted == looped and counted["details"]["ideal_pair_failures"] > 0


@pytest.mark.parametrize(
    "broken,periods,window,seed",
    # the last seed breaks the rule on 100 non-ideal pairs, past the records
    BROKEN_CASES + [pytest.param(doubled_entry_kernel, (3, 3, 3), 2, 2, id="periods333-2-2")],
)
def test_leibniz_counts_on_broken_tables_equal_the_residual_rows_loop(
    monkeypatch, broken, periods, window, seed
):
    # a doubled entry keeps the tensor fact, so C counts from the doubled
    # table; the other mutants break it and loop over computed residuals
    kernel = broken(periods, window, seed)
    assert (kernel.residual_rows() is not None) == (broken is doubled_entry_kernel)
    counted, looped = _leibniz_counted_and_looped(monkeypatch, kernel, LatticeSpec(periods), window)
    assert counted == looped
    if periods == (3, 3, 3) and window == 2:
        assert counted["violation_count"] == 100 and len(counted["violations"]) == 10


# the kernel decision each of A, D and E asks before its walk
PAIR_DECISIONS = {
    "commutative": check_commutativity,
    "covariant": check_symmetry,
    "transversal": check_transversality,
}


def _decided_and_walked(monkeypatch, decision, kernel, lattice, window):
    """The JSON reports of the decision's check on `kernel`, first as it
    runs and then with the decision forced off."""
    check = PAIR_DECISIONS[decision]
    _patch_kernels(monkeypatch, {lattice.periods: kernel})
    decided = check(lattice, window).to_json_dict()
    monkeypatch.setattr(PyKernel, decision, lambda self, *args: False)
    walked = check(lattice, window).to_json_dict()
    monkeypatch.undo()
    return decided, walked


@pytest.mark.parametrize("broken,periods,window,seed", BROKEN_CASES)
@pytest.mark.parametrize("decision", sorted(PAIR_DECISIONS))
def test_pair_decisions_on_broken_tables_report_what_the_walk_does(
    monkeypatch, decision, broken, periods, window, seed
):
    kernel, lattice = broken(periods, window, seed), LatticeSpec(periods)
    decided, walked = _decided_and_walked(monkeypatch, decision, kernel, lattice, window)
    assert decided == walked


@pytest.mark.parametrize("periods,window", [((3, 3, 3), 2), ((3, 5), 2)])
@pytest.mark.parametrize("decision", sorted(PREMISE_MUTANTS))
def test_a_broken_premise_fails_its_check_as_the_walk_does(monkeypatch, decision, periods, window):
    # each mutant keeps the tensor fact and breaks its own decision's per-axis
    # premise: the check walks and reports what the per-pair loop does
    make = PREMISE_MUTANTS[decision][0]
    lattice = LatticeSpec(periods)
    decided, walked = _decided_and_walked(monkeypatch, decision, make(periods), lattice, window)
    assert decided == walked and decided["violation_count"] > 0
    if decision == "covariant":
        kernel = make(periods)
        expected = reference_symmetry(
            lambda p: kernel if p == periods else kernel_for(p), lattice, window
        )
    else:
        reference = {"commutative": reference_commutativity, "transversal": reference_transversality}
        expected = reference[decision](make(periods), lattice, window)
    assert decided["checked"] == expected.checked
    assert decided["violation_count"] == expected.violation_count
    assert decided["violations"] == expected.violations


def negated_sign_kernel(periods):
    """A pure kernel with every sign negated: it keeps the tensor fact and
    every table."""
    kernel = PyKernel(periods)
    kernel._signs = [-s for s in kernel._signs]
    return kernel


def doubled_image_kernel(periods):
    """A kernel of 5,3 whose class doubles the product of the image of one
    pair of 3,5 that D multiplies, under its permutation: it has no tensor
    fact."""
    kernel = DoubledProduct(periods)
    source = LatticeSpec((3, 5))
    a, b = _seeded_pair(source, 2, 0, lambda a, b: a < b and kernel_for((3, 5)).mult(a, b))
    kernel.target = tuple(permute_code(c, (1, 0), source)[0] for c in (a, b))
    return kernel


@pytest.mark.parametrize("make", [negated_sign_kernel, doubled_image_kernel])
def test_a_broken_permuted_lattice_fails_symmetry_as_the_walk_does(monkeypatch, make):
    # D on 3,5 multiplies the permuted pairs in the kernel of 5,3; with that
    # kernel broken only the permutation breaks, and the decision must see it
    lattice, window = LatticeSpec((3, 5)), 2
    _patch_kernels(monkeypatch, {(5, 3): make((5, 3))})
    decided = check_symmetry(lattice, window).to_json_dict()
    monkeypatch.setattr(PyKernel, "covariant", lambda self, *args: False)
    assert check_symmetry(lattice, window).to_json_dict() == decided
    target = make((5, 3))
    expected = reference_symmetry(lambda p: target if p == (5, 3) else kernel_for(p), lattice, window)
    assert decided["violation_count"] == expected.violation_count > 0
    assert decided["violations"] == expected.violations
    assert {v["kind"] for v in decided["violations"]} == {"permutation"}


def test_commutativity_symmetry_and_transversality_multiply_nothing(monkeypatch):
    # on the standard tables A, D and E decide every pair per axis
    kernel = _patch_kernel(monkeypatch, PyKernel((3, 3, 3)))
    real, calls = kernel.mult, []

    def counting(a, b):
        calls.append((a, b))
        return real(a, b)

    kernel.mult = counting
    reports = [check(LatticeSpec((3, 3, 3)), 2) for check in PAIR_DECISIONS.values()]
    assert [r.checked for r in reports] == [7020, 7020 * 12, 46656]
    assert all(r.passed for r in reports)
    assert calls == [] and not kernel._mult_cache


@pytest.mark.parametrize("periods,kernels", [((3, 3, 3), 1), ((3, 5), 2), ((3, 3, 4), 3)])
def test_symmetry_builds_each_axis_kernel_once(monkeypatch, periods, kernels):
    # D's decision builds the source's axis kernels once and one per distinct
    # (target kernel, axis), however many symmetries share them: 3,3,4 has
    # 12 symmetries and three target lattices.  `tensor()` builds its own,
    # so it is taken as the standard kernels have it
    assert all(kernel_for(p).tensor() for p in [periods, periods[::-1]])
    real, built = PyKernel.axis, []
    monkeypatch.setattr(PyKernel, "tensor", lambda self: True)
    monkeypatch.setattr(PyKernel, "axis", lambda self, i: built.append((self, i)) or real(self, i))
    assert check_symmetry(LatticeSpec(periods), 2).passed
    assert len(built) == len(set(built)) == kernels * len(periods)


def test_symmetry_compares_each_distinct_axis_map_once(monkeypatch):
    # D's decision compares each distinct (source axis, target axis kernel,
    # factor map) once per call.  At 3,3,3,3 its 32 symmetries carry 128
    # target axes but 24 of these: the 16 identity maps from axis s to axis
    # j that the permutations and shifts share, and per axis one shifted
    # and one reflected map.  Each compares 9 pairs at window 1, with one
    # product on the source axis and one on the target axis
    real, products = PyKernel.axis, []

    def axis(self, i):
        out = real(self, i)
        mult = out.mult
        out.mult = lambda x, y: products.append((x, y)) or mult(x, y)
        return out

    monkeypatch.setattr(PyKernel, "tensor", lambda self: True)
    monkeypatch.setattr(PyKernel, "axis", axis)
    assert check_symmetry(LatticeSpec((3, 3, 3, 3)), 1).passed
    assert len(products) == 24 * 9 * 2


def test_leibniz_computes_its_residual_rows_once(monkeypatch):
    # one `residual_rows` value serves both C's counts and its drawn rows
    real, calls = PyKernel.residual_rows, []
    monkeypatch.setattr(PyKernel, "residual_rows", lambda self: calls.append(self) or real(self))
    report = check_leibniz(LatticeSpec((3, 3, 3)), 2)
    assert report.passed and report.details["ideal_pair_failures"] == 6552
    assert len(calls) == 1


def test_pairing_multiplies_nothing(monkeypatch):
    # on the standard tables G reads Frobenius off B's decided scan and
    # ranks each pairing matrix per axis (`PyKernel.pairing_rank`)
    import importlib

    kernel = _patch_kernel(monkeypatch, PyKernel((3, 3, 3)))
    monkeypatch.setattr(importlib.import_module("cubalg.pairing"), "kernel_for", lambda p: kernel)
    real, calls = kernel.mult, []

    def counting(a, b):
        calls.append((a, b))
        return real(a, b)

    kernel.mult = counting
    report = check_pairing(LatticeSpec((3, 3, 3)), 2)
    assert report.passed and [d["rank"] for d in report.details["degrees"]] == [27, 81]
    assert calls == [] and not kernel._mult_cache


def test_decided_window_checks_build_no_pair_table(monkeypatch):
    # decided, A, B and D count their pairs and triples from one-axis
    # counts, C its pairs by a programme over the axes, and G ranks per
    # axis, so none of them builds a window table
    import cubalg.verify
    from cubalg.verify import _assoc_scan, _window

    _window.cache_clear()
    _assoc_scan.cache_clear()
    build, calls = cubalg.verify.pair_table, []

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(cubalg.verify, "pair_table", counting)
    reports = verify_axioms((3, 3, 3), "A,B,C,D,E,G", 2)
    assert all(r.passed for r in reports) and calls == []


def test_pair_counts_are_products_of_one_axis_counts():
    # the window is a product set and meeting a per-axis relation: with M
    # the ordered meeting pairs and N the cells, A counts (M + N) / 2 pairs
    # and D each of them once per symmetry (d unit shifts, the diagonal one,
    # d reflections and d! - 1 permutations)
    from cubalg.cells import axis_meets

    periods, window = (3, 5, 4), 2
    d, size = len(periods), 3 * window  # the factor codes anchored in the window
    below = (1 << size) - 1
    meeting = math.prod(
        sum((axis_meets(n)[x] & below).bit_count() for x in range(size)) for n in periods
    )
    cells = size**d
    pairs = (meeting + cells) // 2
    lattice = LatticeSpec(periods)
    reports = [check(lattice, window) for check in PAIR_DECISIONS.values()]
    assert [r.checked for r in reports] == [pairs, pairs * (2 * d + math.factorial(d)), cells**2]
    assert all(r.passed for r in reports)


def test_truncation_streams_its_expected_failure_pairs():
    # n=4 m=3 stops at its first witness, the 1,370th of 350,464 pairs; a
    # list of every pair took 26.8 MB of the peak, a stream about 9.5 MB
    import tracemalloc

    kernel_for.cache_clear()  # the kernels' memos count as they fill
    tracemalloc.start()
    try:
        rep = check_truncation(0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert rep.details["n4m3"]["pairs"] == 1370
    assert peak < 16 * 2**20


@pytest.mark.parametrize(
    "check,periods,args,limit_mb",
    [
        (check_leibniz, (3, 3, 3), (2,), 5),
        (check_crumbling, (3, 3, 3, 3), (1, 3), 14),
        (check_associativity, (3, 3, 3), (2,), 6),
    ],
)
def test_zero_products_stay_out_of_the_kernel_memo(monkeypatch, check, periods, args, limit_mb):
    # most of C's and J's products are zero; memoized, they took C's peak at
    # 3,3,3 window 2 to 11.0 MB and J's at 3,3,3,3 window 1 to 26.9 MB, and
    # kept out, the peaks are 2.0 and 8.4 MB.  B's scan keeps its product
    # ids in dense rows per cell and peaks at 4.2 MiB; dense columns as
    # well took it to 4.8 MiB, and a memo of its multi-term sums keyed on
    # their terms to 9.1 MiB.  J decided multiplies no fine cell, so its
    # walk is forced here to keep the fine kernel's memo under test
    import tracemalloc

    from cubalg.verify import _assoc_scan, _window

    monkeypatch.setattr(PyKernel, "crumbles", lambda self, *args: False)
    kernel_for.cache_clear()  # cold kernels, window table and scan: their memos count
    _window.cache_clear()
    _assoc_scan.cache_clear()
    tracemalloc.start()
    try:
        rep = check(LatticeSpec(periods), *args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak < limit_mb * 2**20


# -- D acts through per-axis tables; per-code transforms are its oracle --------


def translate_code(code, shift, lattice):
    from cubalg.cells import join_code, split_code

    parts = split_code(code, lattice)
    return join_code(
        (((c + s) % n, kind) for (c, kind), s, n in zip(parts, shift, lattice.periods)), lattice
    )


def reflect_code(code, axis, lattice):
    from cubalg.cells import FactorKind, join_code, split_code

    parts = split_code(code, lattice)
    coord, kind = parts[axis]
    n = lattice.periods[axis]
    parts[axis] = ((-coord - 1) % n if kind == FactorKind.STICK else -coord % n, kind)
    return join_code(parts, lattice)


def permute_code(code, perm, lattice):
    """Apply an axis permutation (new axis i takes old axis perm[i]) onto
    the lattice with permuted periods; returns (new code, Koszul sign).

    The sign counts inversions of the permutation restricted to the point
    factors (odd in the codimension grading).
    """
    from cubalg.cells import FactorKind, join_code, split_code

    parts = split_code(code, lattice)
    images = [perm.index(i) for i, (_, kind) in enumerate(parts) if kind == FactorKind.POINT]
    inversions = sum(
        1 for x in range(len(images)) for y in range(x + 1, len(images)) if images[x] > images[y]
    )
    target = LatticeSpec(tuple(lattice.periods[p] for p in perm))
    return join_code([parts[p] for p in perm], target), (-1 if inversions % 2 else 1)


def _shifts(d):
    return [tuple(int(j == i) for j in range(d)) for i in range(d)] + [(1,) * d]


def _perms(d):
    from itertools import permutations

    return [p for p in permutations(range(d)) if p != tuple(range(d))]


def reference_symmetry(kernel_of, lattice, window):
    """Check D one pair and one symmetry at a time, supports tested pair by
    pair and every image built by split_code/join_code; kernel_of(periods)
    gives the kernel of a lattice."""
    from cubalg.cells import window_codes
    from cubalg.verify import _cells

    kernel = kernel_of(lattice.periods)
    cells = window_codes(lattice, window)
    report = _reference_report("D", lattice, window)
    for i, a in enumerate(cells):
        for b in cells[i:]:
            if not kernel.supports_intersect(a, b):
                continue
            base = kernel.mult(a, b)
            for shift in _shifts(lattice.d):
                ta, tb = translate_code(a, shift, lattice), translate_code(b, shift, lattice)
                expected = {translate_code(c, shift, lattice): v for c, v in base}
                report.checked += 1
                if dict(kernel.mult(ta, tb)) != expected:
                    report.violate("translation", **_cells(lattice, a, b), shift=list(shift))
            for axis in range(lattice.d):
                ra, rb = reflect_code(a, axis, lattice), reflect_code(b, axis, lattice)
                expected = {reflect_code(c, axis, lattice): v for c, v in base}
                report.checked += 1
                if dict(kernel.mult(ra, rb)) != expected:
                    report.violate("reflection", **_cells(lattice, a, b), axis=axis)
            for perm in _perms(lattice.d):
                (pa, sa), (pb, sb) = permute_code(a, perm, lattice), permute_code(b, perm, lattice)
                expected = {}
                for c, v in base:
                    pc, sc = permute_code(c, perm, lattice)
                    expected[pc] = sa * sb * sc * v
                target = kernel_of(tuple(lattice.periods[p] for p in perm))
                report.checked += 1
                if dict(target.mult(pa, pb)) != expected:
                    report.violate("permutation", **_cells(lattice, a, b), perm=list(perm))
    return report


def perturbed_image_kernel(periods, window, seed):
    """The product of the image of one seeded meeting window pair under a
    seeded translation or axis permutation has its first coefficient doubled."""
    kernel = DoubledProduct(periods)
    lattice = LatticeSpec(periods)
    a, b = _seeded_pair(
        lattice,
        window,
        seed,
        lambda a, b: a < b and kernel.supports_intersect(a, b) and kernel.mult(a, b),
    )
    symmetry = random.Random(seed).choice(_shifts(lattice.d) + _perms(lattice.d))
    if sorted(symmetry) == list(range(lattice.d)):  # a permutation
        kernel.target = (permute_code(a, symmetry, lattice)[0], permute_code(b, symmetry, lattice)[0])
    else:
        kernel.target = (translate_code(a, symmetry, lattice), translate_code(b, symmetry, lattice))
    return kernel


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_symmetry_matches_per_code_transforms_on_a_perturbed_kernel(monkeypatch, seed):
    # one kernel serves every periods tuple, so the lattice is cubic
    periods, window = (3, 3, 3), 2
    lattice = LatticeSpec(periods)
    _patch_kernel(monkeypatch, perturbed_image_kernel(periods, window, seed))
    got = check_symmetry(lattice, window)
    reference = perturbed_image_kernel(periods, window, seed)
    expected = reference_symmetry(lambda _periods: reference, lattice, window)
    assert got.checked == expected.checked
    assert got.violation_count == expected.violation_count > 0
    assert got.violations == expected.violations


def test_symmetry_permutes_onto_the_permuted_lattice():
    # permuting the axes of 3,5 gives 5,3: inside 3,5 itself, 149 pairs failed
    lattice = LatticeSpec((3, 5))
    rep = check_symmetry(lattice, 3)
    assert rep.passed and rep.checked == 5508
    expected = reference_symmetry(kernel_for, lattice, 3)
    assert expected.passed and expected.checked == rep.checked


# -- J, H and S6 read the shared laws; per-pair loops are their oracle --------


def _patch_kernels(monkeypatch, kernels):
    """verify.kernel_for hands out kernels[periods], or the lattice's own kernel."""
    import cubalg.verify

    monkeypatch.setattr(
        cubalg.verify, "kernel_for", lambda periods: kernels.get(tuple(periods)) or kernel_for(periods)
    )


def _violation_tally(monkeypatch):
    """A Counter of (kind, n, m) over the CheckReport.violate calls from now on."""
    from collections import Counter

    from cubalg.verify import CheckReport

    tally = Counter()
    violate = CheckReport.violate

    def counted(self, kind, **fields):
        tally[kind, fields.get("n"), fields.get("m")] += 1
        violate(self, kind, **fields)

    monkeypatch.setattr(CheckReport, "violate", counted)
    return tally


def _summed(terms):
    """{code: sum of coefficients} over (code, coefficient) terms, zeros dropped."""
    out = {}
    for c, v in terms:
        out[c] = out.get(c, 0) + v
    return {c: v for c, v in out.items() if v}


def reference_crumbling(coarse, fine, lattice, window, k):
    """Check J's chain-map and algebra-map loops, one cell and one pair at a
    time, supports tested pair by pair and every image summed afresh."""
    from cubalg.cells import window_codes
    from cubalg.product import crumble_code
    from cubalg.verify import _cells

    def image(code):
        return [u for u, _ in crumble_code(code, lattice, k)]

    cells = window_codes(lattice, window)
    report = _reference_report("J", lattice, window)
    for a in cells:
        lhs = _summed((v, s) for u in image(a) for v, s in fine.boundary(u))
        rhs = _summed((v, s) for u, s in coarse.boundary(a) for v in image(u))
        report.checked += 1
        if lhs != rhs:
            report.violate("crumble-boundary", **_cells(lattice, a, replay=False))
    for i, a in enumerate(cells):
        for b in cells[i:]:
            if not coarse.supports_intersect(a, b):
                continue
            lhs = _summed((v, w) for u, w in coarse.mult(a, b) for v in image(u))
            rhs = _summed((v, w) for x in image(a) for y in image(b) for v, w in fine.mult(x, y))
            report.checked += 1
            if lhs != rhs:
                report.violate("crumble-product", **_cells(lattice, a, b))
    return report


def corrupted_fine_boundary(lattice, window, k, seed):
    """A fine kernel whose boundary of one seeded crumbled window cell is corrupted."""
    from cubalg.cells import window_codes
    from cubalg.product import crumble_code

    fine = FlippedBoundary(lattice.refined(k).periods)
    images = {u for a in window_codes(lattice, window) for u, _ in crumble_code(a, lattice, k)}
    fine.target = random.Random(seed).choice(sorted(u for u in images if fine.boundary(u)))
    return fine


def perturbed_fine_product(lattice, window, k, seed):
    """A fine kernel whose product of one seeded pair (x, y) has its first
    coefficient doubled, x and y in the crumbled images of a and b, for a
    meeting pair (a, b) of window cells, a no later than b."""
    from cubalg.cells import window_codes
    from cubalg.product import crumble_code

    fine = DoubledProduct(lattice.refined(k).periods)
    coarse = kernel_for(lattice.periods)
    cells = window_codes(lattice, window)
    pairs = {
        (x, y)
        for i, a in enumerate(cells)
        for b in cells[i:]
        if coarse.supports_intersect(a, b)
        for x, _ in crumble_code(a, lattice, k)
        for y, _ in crumble_code(b, lattice, k)
        if fine.mult(x, y)
    }
    fine.target = random.Random(seed).choice(sorted(pairs))
    return fine


BROKEN_FINE = {"crumble-boundary": corrupted_fine_boundary, "crumble-product": perturbed_fine_product}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", sorted(BROKEN_FINE))
def test_crumbling_matches_per_pair_loops_on_broken_fine_kernels(monkeypatch, kind, seed):
    # a fine kernel that overrides `mult` or `boundary` has no tensor fact,
    # so J walks its pairs
    lattice, window, k = LatticeSpec((3, 5)), 2, 3
    fine = BROKEN_FINE[kind](lattice, window, k, seed)
    assert not fine.tensor()
    _patch_kernels(monkeypatch, {fine.periods: fine})
    got = check_crumbling(lattice, window, k)
    expected = reference_crumbling(kernel_for(lattice.periods), fine, lattice, window, k)
    assert got.checked == expected.checked
    assert got.violation_count == expected.violation_count > 0
    assert got.violations == expected.violations
    assert {v["kind"] for v in got.violations} == {kind}


def _crumbling_decided_and_walked(monkeypatch, kernels, lattice, window):
    """J's JSON reports at k = 3 with `kernels` patched in
    (`_patch_kernels`), first as it runs and then with its per-axis
    decision forced off."""
    _patch_kernels(monkeypatch, kernels)
    decided = check_crumbling(lattice, window, 3).to_json_dict()
    monkeypatch.setattr(PyKernel, "crumbles", lambda self, *args: False)
    walked = check_crumbling(lattice, window, 3).to_json_dict()
    monkeypatch.undo()
    return decided, walked


@pytest.mark.parametrize("broken,periods,window,seed", BROKEN_CASES)
def test_crumbling_on_broken_coarse_tables_reports_what_the_walk_does(
    monkeypatch, broken, periods, window, seed
):
    # a doubled entry keeps the tensor fact, so J's decision reads the
    # doubled coarse entry against the standard fine one; the other mutants
    # break the fact and walk.  The walk takes each pair in one order, so
    # an entry doubled in the other order alone breaks no pair it walks
    lattice = LatticeSpec(periods)
    kernels = {periods: broken(periods, window, seed)}
    decided, walked = _crumbling_decided_and_walked(monkeypatch, kernels, lattice, window)
    assert decided == walked


@pytest.mark.parametrize("fine_negated", [False, True])
def test_crumbling_compares_the_unit_signs_of_both_kernels(monkeypatch, fine_negated):
    # every sign negated keeps the tensor fact.  Against the standard fine
    # kernel it negates every coarse product, so J walks and reports
    # crumble-product violations; with the fine kernel's signs negated as
    # well, the unit signs agree and J decides that crumbling holds
    from cubalg.product import crumble_code

    lattice, window, k = LatticeSpec((3, 5)), 2, 3
    fine_periods = lattice.refined(k).periods
    coarse = negated_sign_kernel(lattice.periods)
    fine = negated_sign_kernel(fine_periods) if fine_negated else kernel_for(fine_periods)
    assert coarse.tensor() and fine.tensor()
    axes = [lambda code, n=n: crumble_code(code, LatticeSpec((n,)), k) for n in lattice.periods]
    assert coarse.crumbles(fine, 3 * window, axes) == fine_negated
    kernels = {lattice.periods: coarse, fine_periods: fine}
    decided, walked = _crumbling_decided_and_walked(monkeypatch, kernels, lattice, window)
    assert decided == walked
    expected = reference_crumbling(coarse, fine, lattice, window, k)
    assert decided["checked"] == expected.checked
    assert decided["violation_count"] == expected.violation_count
    assert decided["violations"] == expected.violations
    if not fine_negated:
        assert decided["violation_count"] > 0
        assert {v["kind"] for v in decided["violations"]} == {"crumble-product"}


def test_decided_crumbling_multiplies_no_fine_cell_and_builds_no_pair_table(monkeypatch):
    # at 3,3,3,3 window 2 the walk made 20.6 million products on the 9^4
    # kernel for its 167,832 cells and pairs (N + P, `_meeting_counts`);
    # decided, J multiplies on the axis kernels alone
    import cubalg.verify
    from cubalg.verify import _window

    _window.cache_clear()
    lattice = LatticeSpec((3, 3, 3, 3))
    fine = PyKernel(lattice.refined(3).periods)
    real, calls = fine.mult, []
    fine.mult = lambda a, b: calls.append((a, b)) or real(a, b)
    _patch_kernels(monkeypatch, {fine.periods: fine})
    build, tables = cubalg.verify.pair_table, []
    monkeypatch.setattr(cubalg.verify, "pair_table", lambda *args: tables.append(args) or build(*args))
    report = check_crumbling(lattice, 2, 3)
    assert report.passed and report.checked == 1296 + 166_536
    assert calls == [] and not fine._mult_cache and tables == []


class EscapingProduct(PyKernel):
    """The product of the pair `target` gains the all-infinitesimal cells at
    coordinates 0 and 1, which no truncation below the top level contains."""

    target = None

    def mult(self, a, b):
        terms = super().mult(a, b)
        if (a, b) == self.target:
            lattice = LatticeSpec(self.periods)
            escaping = [join_code([(x, FactorKind.INF_STICK)] * self.d, lattice) for x in (0, 1)]
            return terms + tuple((c, 4**self.d) for c in escaping)
        return terms


def escaping_kernel(periods, closed, seed):
    """EscapingProduct on a seeded pair of the window-2 cells of the kinds `closed`."""
    from cubalg.cells import window_codes

    kernel = EscapingProduct(periods)
    cells = window_codes(LatticeSpec(periods), 2, closed)
    kernel.target = random.Random(seed).choice([(a, b) for a in cells for b in cells])
    return kernel


def reference_escapes(kernel, lattice, closed):
    """(pairs, cells): over every ordered pair of the window-2 cells of the
    kinds `closed`, the pairs whose product has a cell of another kind, and
    those cells."""
    from cubalg.cells import code_kinds, window_codes

    cells = window_codes(lattice, 2, closed)
    pairs = escaped = 0
    for a in cells:
        for b in cells:
            outside = [c for c, _ in kernel.mult(a, b) if code_kinds(c, lattice) not in closed]
            pairs += bool(outside)
            escaped += len(outside)
    return pairs, escaped


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fc_subalgebra_counts_every_escaping_cell(monkeypatch, seed):
    from cubalg.truncation import kind_closure

    lattice, closed = LatticeSpec((3, 3, 3)), kind_closure(3, 2)
    kernel = escaping_kernel(lattice.periods, closed, seed)
    _patch_kernels(monkeypatch, {lattice.periods: kernel})
    tally = _violation_tally(monkeypatch)
    assert not check_fc_subalgebra(lattice, 2).passed
    assert tally["closure", None, None] == reference_escapes(kernel, lattice, closed)[1] == 2


@pytest.mark.parametrize("seed", [0, 1])
def test_truncation_counts_an_escape_once_per_pair(monkeypatch, seed):
    from cubalg.truncation import kind_closure

    lattice, closed = LatticeSpec((5,) * 4), kind_closure(4, 2)
    kernel = escaping_kernel(lattice.periods, closed, seed)
    _patch_kernels(monkeypatch, {lattice.periods: kernel})
    tally = _violation_tally(monkeypatch)
    assert not check_truncation(0).passed
    pairs, escaped = reference_escapes(kernel, lattice, closed)
    assert tally["closure", 4, 2] == pairs == 1 and escaped == 2


def reference_commutativity_failures(kernel, lattice, closed):
    """Ordered pairs of the window-2 cells of the kinds `closed` whose
    products break graded commutativity, tested one pair at a time."""
    from cubalg.cells import code_codim, window_codes

    cells = window_codes(lattice, 2, closed)
    failures = 0
    for a in cells:
        for b in cells:
            sign = (-1) ** (code_codim(a, lattice) * code_codim(b, lattice))
            failures += dict(kernel.mult(a, b)) != {c: sign * v for c, v in kernel.mult(b, a)}
    return failures


@pytest.mark.parametrize("seed", [0, 1])
def test_truncation_flags_a_flipped_sign_as_commutativity(monkeypatch, seed):
    from cubalg.cells import window_codes
    from cubalg.truncation import kind_closure

    # the n=4 m=2 case checks every ordered pair of its cells, so the
    # flipped product breaks the pair (a, b) and the pair (b, a)
    lattice, closed = LatticeSpec((5,) * 4), kind_closure(4, 2)
    kernel = FlippedSign(lattice.periods)
    cells = window_codes(lattice, 2, closed)
    kernel.target = random.Random(seed).choice(
        [(b, a) for b in cells for a in cells if b != a and kernel.mult(b, a)]
    )
    _patch_kernels(monkeypatch, {lattice.periods: kernel})
    tally = _violation_tally(monkeypatch)
    assert not check_truncation(0).passed
    assert tally["commutativity", 4, 2] == reference_commutativity_failures(kernel, lattice, closed) == 2
