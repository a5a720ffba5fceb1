"""Acceptance suite: every criterion at its stated (exact) tolerance,
one pass/fail line per criterion.

All equalities are exact rational identities (zero tolerance).  Time
limits are asserted against wall-clock time; run with `pytest -s
tests/test_acceptance.py` to see the per-criterion lines.
"""

from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

from cubalg import (
    Chain,
    CoefficientTable,
    Factor,
    FactorKind,
    LatticeSpec,
    mult1,
    parse_chain,
    product,
)
from cubalg.pairing import pairing_matrix
from cubalg.verify import (
    check_associativity,
    check_betti,
    check_commutativity,
    check_crumbling,
    check_fc_subalgebra,
    check_general_position,
    check_leibniz,
    check_star,
    check_transversality,
    check_truncation,
)

P, S, I = FactorKind.POINT, FactorKind.STICK, FactorKind.INF_STICK

L1 = LatticeSpec((7,))
L3 = LatticeSpec((5, 5, 5))


@contextmanager
def criterion(num, name, limit_seconds):
    start = perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL")
        raise
    elapsed = perf_counter() - start
    verdict = "PASS" if elapsed < limit_seconds else "FAIL (over time budget)"
    print(f"ACCEPTANCE {num:02d} {name}: {verdict} ({elapsed:.2f}s / limit {limit_seconds}s)")
    assert elapsed < limit_seconds, f"criterion {num} exceeded {limit_seconds}s ({elapsed:.2f}s)"


def test_c01_one_dimensional_product_table():
    with criterion(1, "one-dimensional product table", 1.0):
        a = 3
        table = {
            ((P, a), (S, a)): f"1/2*[p@{a}]",
            ((P, a), (S, a - 1)): f"1/2*[p@{a}]",
            ((P, a), (I, a)): f"1/4*[p@{a}]",
            ((S, a - 1), (S, a)): f"[i@{a}]",
            ((S, a), (S, a)): f"[s@{a}] - [i@{a}] - [i@{a + 1}]",
            ((I, a), (S, a)): f"1/2*[i@{a}]",
            ((I, a), (S, a - 1)): f"1/2*[i@{a}]",
            ((I, a), (I, a)): f"1/4*[i@{a}]",
            ((S, a - 2), (S, a - 1)): f"[i@{a - 1}]",
        }
        for ((k1, c1), (k2, c2)), expected in table.items():
            want = parse_chain(expected, L1)
            assert mult1(Factor(k1, c1), Factor(k2, c2), L1) == want
            assert mult1(Factor(k2, c2), Factor(k1, c1), L1) == want


def test_c02_uniqueness_equations():
    with criterion(2, "coefficient-table equations", 1.0):
        table = CoefficientTable.standard()
        for name, lhs, rhs in table.associativity_equations():
            assert lhs == rhs, name
        for name, lhs, rhs in table.normalization_equations():
            assert lhs == rhs, name


def test_c03_three_dimensional_derived_coefficients():
    with criterion(3, "derived 3-d coefficients 1/4, 1/8, 1/16 and edge shape", 1.0):
        def cc(text):
            return Chain.from_cell(parse_chain(text, L3).cells().__iter__().__next__(), L3)

        vertex_squares = product(cc("[s@0,p@0,s@4]"), cc("[p@0,s@0,s@0]"))
        assert len(vertex_squares) == 1
        ((cell, coef),) = vertex_squares.terms.items()
        assert abs(coef) == Fraction(1, 4) and cell.is_ideal and cell.dimension == 1

        square_stick = product(cc("[s@0,s@0,p@0]"), cc("[p@0,p@0,s@0]"))
        ((cell, coef),) = square_stick.terms.items()
        assert abs(coef) == Fraction(1, 8) and cell.dimension == 0

        square_inf = product(cc("[s@0,s@0,p@0]"), cc("[p@0,p@0,i@0]"))
        ((cell, coef),) = square_inf.terms.items()
        assert abs(coef) == Fraction(1, 16) and cell.dimension == 0

        edge_squares = product(cc("[s@0,p@0,s@0]"), cc("[p@0,s@0,s@0]"))
        expected = Fraction(-1, 4) * (
            parse_chain("[p@0,p@0,s@0]", L3)
            - parse_chain("[p@0,p@0,i@0]", L3)
            - parse_chain("[p@0,p@0,i@1]", L3)
        )
        assert edge_squares == expected


def test_c04_axioms_a_b_e_exhaustive():
    with criterion(4, "axioms A, B, E exhaustive on the 2-window", 60.0):
        a = check_commutativity(L3, 2)
        b = check_associativity(L3, 2)
        e = check_transversality(L3, 2)
        assert a.passed and a.checked > 0
        assert b.passed and b.checked == 729000
        assert e.passed and e.checked == 216 * 216


def test_c05_axiom_c_and_h():
    with criterion(5, "axiom C with the ideal witness, axiom H on the subalgebra", 60.0):
        c3 = check_leibniz(L3, 2)
        assert c3.passed
        c1 = check_leibniz(LatticeSpec((5,)), 2)
        assert c1.passed
        assert c1.details["canonical_witness"]["residual"] == "-1/4*[p@0]"
        h = check_fc_subalgebra(L3, 2)
        assert h.passed and h.checked > 0


def test_c06_axiom_f_oracle_agreement():
    with criterion(6, "axiom F: 200 seeded general-position cuboid pairs", 30.0):
        rep = check_general_position(L3, seed=0)
        assert rep.passed and rep.checked == 200


def test_c07_axiom_g_pairing():
    with criterion(7, "axiom G: determinants and ranks", 60.0):
        def independent_det_3x3(m):
            return (
                m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
            )

        m3 = pairing_matrix(0, LatticeSpec((3,)))
        assert independent_det_3x3(m3.entries) == Fraction(1, 4)
        assert m3.determinant == Fraction(1, 4)
        assert pairing_matrix(0, LatticeSpec((4,))).determinant == 0
        odd = LatticeSpec((3, 3, 3))
        assert pairing_matrix(0, odd).nondegenerate
        assert pairing_matrix(1, odd).nondegenerate
        even = LatticeSpec((4, 3, 3))
        assert not pairing_matrix(0, even).nondegenerate
        assert not pairing_matrix(1, even).nondegenerate


def test_c08_axiom_j_crumbling():
    with criterion(8, "axiom J: crumbling commutes; telescoping identity", 60.0):
        rep3 = check_crumbling(L3, 2, 3)
        assert rep3.passed
        rep1 = check_crumbling(LatticeSpec((5,)), 2, 3)
        assert rep1.passed
        assert rep1.details["telescoping"] == "[s@0] - [i@0] + [s@1] + [s@2] - [i@3]"


def test_c09_betti_numbers():
    with criterion(9, "Betti numbers and the even-period claim", 120.0):
        ok = check_betti(LatticeSpec((3, 3, 3)))
        assert ok.passed
        assert ok.details["full_h"] == [1, 3, 3, 1]
        assert ok.details["two_h_span"] == [1, 3, 3, 1]
        mixed = check_betti(LatticeSpec((4, 3, 3)))
        if mixed.details["two_h_span"] == mixed.details["claimed"]:
            assert mixed.passed
        else:
            # the claim does not hold for the embedded span; the harness
            # must flag the discrepancy instead of passing
            assert not mixed.passed
            kinds = [v["kind"] for v in mixed.violations]
            assert kinds == ["paper-claim-discrepancy"]
            assert mixed.details["full_h"] == [1, 3, 3, 1]


def test_c10_star_duality_and_crumble_witness():
    with criterion(10, "star involution plus non-commutation witness", 60.0):
        rep = check_star(LatticeSpec((3, 3, 3)), k=3)
        assert rep.passed
        assert rep.details["cells_per_vertex"] == [1, 3, 3, 1]
        assert any(w["kind"] == "star-crumble-non-commutation" for w in rep.witnesses)


def test_c11_truncation_bounds():
    with criterion(11, "truncation subalgebras across dimensions 4, 5, 6", 300.0):
        rep = check_truncation(seed=0)
        assert rep.passed
        assert rep.details["n4m2"]["max_ideal_dimension"] is None
        assert any(
            w["kind"] == "leibniz-failure" and w["n"] == 4 and w["m"] == 3
            for w in rep.witnesses
        )
        assert rep.details["n5m3"]["pairs"] > 0
        assert rep.details["n6m4"]["pairs"] > 0
        assert rep.details["augmented_triple_product_6d"] == "1"
