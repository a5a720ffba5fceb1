"""Rational Betti numbers: the full torus complex and the 2h subcomplex.

The 2h span values for even periods are cross-checked against an
independent route: the span complex factors as a tensor product of
one-dimensional span complexes, so its Betti polynomial is the product
of the one-dimensional ones (computed here from scratch).
"""

from cubalg import LatticeSpec, betti, betti_full, betti_two_h_free, betti_two_h_span
from cubalg.linalg import mat_mul, rank
from cubalg.verify import check_betti


def one_d_two_h_betti(n):
    """(b0, b1) of the span of double edges in a circle of n vertices,
    computed directly from small matrices (independent of homology.py)."""
    # expansion matrix: double edge at c covers sticks c-1 and c
    exp = [[0] * n for _ in range(n)]
    for c in range(n):
        exp[(c - 1) % n][c] = 1
        exp[c % n][c] = 1
    v1 = rank(exp)
    # boundary: double edge at c has endpoints c+1 and c-1
    bnd = [[0] * n for _ in range(n)]
    for c in range(n):
        bnd[(c + 1) % n][c] += 1
        bnd[(c - 1) % n][c] -= 1
    r1 = rank(bnd)
    v0 = n  # every vertex is a 2h zero-cell
    return (v0 - r1, v1 - r1)


def kunneth_product(factors):
    """Multiply Betti polynomials given as coefficient tuples."""
    poly = (1,)
    for f in factors:
        out = [0] * (len(poly) + len(f) - 1)
        for i, a in enumerate(poly):
            for j, b in enumerate(f):
                out[i + j] += a * b
        poly = tuple(out)
    return poly


def test_full_h_is_torus_homology_for_all_periods():
    for periods in [(3, 3, 3), (4, 3, 3), (5, 4, 3)]:
        assert betti_full(LatticeSpec(periods)) == (1, 3, 3, 1)


def test_full_h_lower_dimensions():
    assert betti_full(LatticeSpec((5,))) == (1, 1)
    assert betti_full(LatticeSpec((4, 3))) == (1, 2, 1)


def test_two_h_span_odd_periods():
    assert betti_two_h_span(LatticeSpec((3, 3, 3))) == (1, 3, 3, 1)


def test_one_d_two_h_oracle_values():
    assert one_d_two_h_betti(3) == (1, 1)
    assert one_d_two_h_betti(5) == (1, 1)
    assert one_d_two_h_betti(4) == (2, 1)
    assert one_d_two_h_betti(6) == (2, 1)


def test_two_h_span_even_periods_match_kunneth_oracle():
    for periods in [(4, 3, 3), (4, 4, 3), (4, 4, 4), (6, 3, 5)]:
        expected = kunneth_product([one_d_two_h_betti(n) for n in periods])
        assert betti_two_h_span(LatticeSpec(periods)) == expected


def test_betti_check_at_period_seven():
    rep = check_betti(LatticeSpec((7, 7, 7)))
    assert rep.passed
    assert rep.details["full_h"] == rep.details["two_h_span"] == [1, 3, 3, 1]


def test_two_h_span_431_value():
    # one even period: the top class and part of the middle ones collapse
    assert betti_two_h_span(LatticeSpec((4, 3, 3))) == (2, 5, 4, 1)


def test_two_h_free_basis_doubles_per_even_period():
    assert betti_two_h_free(LatticeSpec((3, 3, 3))) == (1, 3, 3, 1)
    assert betti_two_h_free(LatticeSpec((4, 3, 3))) == (2, 6, 6, 2)
    assert betti_two_h_free(LatticeSpec((4, 4, 3))) == (4, 12, 12, 4)


def test_betti_dispatch():
    lat = LatticeSpec((3, 3, 3))
    assert betti("h", lat) == (1, 3, 3, 1)
    assert betti("2h", lat) == (1, 3, 3, 1)


def test_mat_mul():
    a = [[1, 2], [3, 4]]
    b = [[0, 1], [1, 0]]
    assert mat_mul(a, b) == [[2, 1], [4, 3]]
