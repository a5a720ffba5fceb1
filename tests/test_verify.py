"""The verification harness: reports, expected failures, determinism, replay."""

import json
import subprocess
import sys

import pytest

from cubalg import LatticeSpec, parse_chain, product
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


def test_general_position_check(L3m):
    rep = check_general_position(L3m, seed=0, count=40)
    assert rep.passed and rep.checked == 40


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


def test_star_check_emits_non_commutation_witness():
    rep = check_star(LatticeSpec((3, 3, 3)), k=3)
    assert rep.passed
    kinds = [w["kind"] for w in rep.witnesses]
    assert "star-crumble-non-commutation" in kinds


def test_verify_axioms_sorted_and_selectable(L3m):
    reports = verify_axioms((5, 5, 5), axioms="C,A", window=2)
    assert [r.check_id for r in reports] == ["A", "C"]
    with pytest.raises(ValueError):
        verify_axioms((5, 5, 5), axioms="Q")


def test_verify_i_pulls_dependencies():
    reports = verify_axioms((5, 5, 5), axioms="I", window=2)
    ids = [r.check_id for r in reports]
    assert ids == ["A", "B", "C", "D", "E", "F", "I"]
    assert all(r.passed for r in reports)


def test_reports_deterministic(L3m):
    def run():
        reports = verify_axioms((5, 5, 5), axioms="A,C,E", window=2, seed=7)
        return json.dumps([r.to_json_dict() for r in reports], sort_keys=True)

    assert run() == run()


def test_witness_replay_through_cli():
    rep = check_leibniz(LatticeSpec((5, 5, 5)), 2)
    witness = rep.witnesses[0]
    argv = [sys.executable, "-m", "cubalg.cli"] + witness["replay"]
    out = subprocess.run(argv, capture_output=True, text=True)
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
    import cubalg.linalg

    calls = []
    rank = cubalg.linalg.rank

    def counting_rank(entries):
        calls.append(len(entries))
        return rank(entries)

    monkeypatch.setattr(cubalg.linalg, "rank", counting_rank)
    lattice = LatticeSpec((3, 3, 3))
    rep = check_pairing(lattice, 1)
    assert rep.passed
    assert len(calls) == len(rep.details["degrees"]) == lattice.d // 2 + 1


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


def test_associativity_and_frobenius_share_one_scan(monkeypatch):
    from cubalg._kernel_py import PyKernel

    class CountingKernel(PyKernel):
        scans = 0

        def scan_assoc(self, cells):
            self.scans += 1
            return super().scan_assoc(cells)

    both = _patch_kernel(monkeypatch, CountingKernel((3, 3, 3)))
    reports = verify_axioms((3, 3, 3), axioms="B,G", window=1)
    assert both.scans == 1
    assert all(r.passed for r in reports)
    assert reports[1].checked == reports[0].checked + 2  # plus one per pairing degree
    alone = _patch_kernel(monkeypatch, CountingKernel((3, 3, 3)))
    (g,) = verify_axioms((3, 3, 3), axioms="G", window=1)
    assert alone.scans == 1 and g.checked == reports[1].checked


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
