"""Crumbling in higher dimensions: chain map, algebra map, refinement grids."""

import pytest

from cubalg import Chain, LatticeSpec, boundary, crumble, parse_cell, parse_chain, product
from cubalg.cells import decode_cell
from cubalg.cells import window_codes


def cell_chain(text, lattice):
    return Chain.from_cell(parse_cell(text, lattice), lattice)


def test_unit_square_refines_to_nine(L3):
    sq = cell_chain("[s@0,s@0,p@0]", L3)
    fine = crumble(sq, 3)
    assert len(fine) == 9
    assert all(coef == 1 for coef in fine.terms.values())
    assert fine.lattice == LatticeSpec((15, 15, 15))


def test_crumble_rejects_even(L3):
    with pytest.raises(ValueError):
        crumble(cell_chain("[s@0,s@0,p@0]", L3), 2)


def test_boundary_commutes_on_cube(L3):
    cube = cell_chain("[s@0,s@0,s@0]", L3)
    assert crumble(boundary(cube), 3) == boundary(crumble(cube, 3))


def test_product_commutes_for_vertex_squares(L3):
    # both evaluation paths give the quarter-weighted infinitesimal
    a = cell_chain("[s@0,p@0,s@4]", L3)
    b = cell_chain("[p@0,s@0,s@0]", L3)
    lhs = crumble(product(a, b), 3)
    rhs = product(crumble(a, 3), crumble(b, 3))
    assert lhs == rhs
    fine = LatticeSpec((15, 15, 15))
    assert lhs == parse_chain("-1/4*[p@0,p@0,i@0]", fine)


def test_crumble_commutes_window_sample(L3):
    codes = window_codes(L3, 2)
    kernel_pairs = [(codes[i], codes[j]) for i in range(0, len(codes), 17) for j in range(0, len(codes), 13)]
    for ca, cb in kernel_pairs:
        a = Chain.from_cell(decode_cell(ca, L3), L3)
        b = Chain.from_cell(decode_cell(cb, L3), L3)
        assert crumble(product(a, b), 3) == product(crumble(a, 3), crumble(b, 3))
        assert crumble(boundary(a), 3) == boundary(crumble(a, 3))


def test_iterated_refinement_composes(L5):
    s = cell_chain("[s@0]", L5)
    assert crumble(crumble(s, 3), 5) == crumble(s, 15)
