"""The tensor-power product in higher dimensions: derived coefficients,
Koszul signs, grading, locality, and the algebraic laws on windows."""

import random
from fractions import Fraction

import pytest

from cubalg import (
    Chain,
    LatticeSpec,
    augment,
    boundary,
    make_cell,
    parse_cell,
    parse_chain,
    product,
)
from cubalg._kernel_py import kernel_for, koszul_sign_of_points
from cubalg.cells import decode_cell
from cubalg.cells import window_codes


def cell_chain(text, lattice):
    return Chain.from_cell(parse_cell(text, lattice), lattice)


# -- the four derived product shapes -------------------------------------------


def test_squares_meeting_at_a_vertex_give_quarter_infinitesimal(L3):
    # xz-square with z in [-1,0] against yz-square with z in [0,1]:
    # the glancing z-contact leaves a quarter-weighted infinitesimal stick.
    a = cell_chain("[s@0,p@0,s@4]", L3)
    b = cell_chain("[p@0,s@0,s@0]", L3)
    got = product(a, b)
    # sign -1 from the single point inversion (a's y-point past b's x-point)
    assert got == parse_chain("-1/4*[p@0,p@0,i@0]", L3)
    assert abs(next(iter(got.terms.values()))) == Fraction(1, 4)


def test_squares_sharing_an_edge_give_quarter_stick_minus_ends(L3):
    a = cell_chain("[s@0,p@0,s@0]", L3)
    b = cell_chain("[p@0,s@0,s@0]", L3)
    got = product(a, b)
    expected = Fraction(-1, 4) * (
        parse_chain("[p@0,p@0,s@0]", L3)
        - parse_chain("[p@0,p@0,i@0]", L3)
        - parse_chain("[p@0,p@0,i@1]", L3)
    )
    assert got == expected


def test_square_times_orthogonal_stick_is_eighth_point(L3):
    a = cell_chain("[s@0,s@0,p@0]", L3)
    b = cell_chain("[p@0,p@0,s@0]", L3)
    assert product(a, b) == parse_chain("1/8*[p@0,p@0,p@0]", L3)


def test_square_times_orthogonal_infinitesimal_is_sixteenth_point(L3):
    a = cell_chain("[s@0,s@0,p@0]", L3)
    b = cell_chain("[p@0,p@0,i@0]", L3)
    assert product(a, b) == parse_chain("1/16*[p@0,p@0,p@0]", L3)


def test_sign_flips_under_orientation_reversal(L3):
    # reversing the orientation of one operand flips the output sign
    a = cell_chain("[s@0,p@0,s@4]", L3)
    b = cell_chain("[p@0,s@0,s@0]", L3)
    assert product(-1 * a, b) == -1 * product(a, b)


# -- structural properties -------------------------------------------------------


def test_koszul_sign_convention():
    # point-axis masks, bit i for a point factor on axis i
    a = 0b010  # [s@0,p@0,s@0]
    b = 0b001  # [p@0,s@0,s@0]
    # the asymmetry carries graded commutativity: both cells have odd
    # codimension, so a*b = -b*a
    assert koszul_sign_of_points(a, b) == -1
    assert koszul_sign_of_points(b, a) == 1
    # even codimension product: both orders carry the same (positive) sign
    c = 0b100  # [s@0,s@0,p@0]
    d = 0b011  # [p@0,p@0,s@0]
    assert koszul_sign_of_points(c, d) == 1
    assert koszul_sign_of_points(d, c) == 1


def test_output_codimension_adds(L3):
    pairs = [
        ("[s@0,p@0,s@0]", "[p@0,s@0,s@0]"),
        ("[s@0,s@0,p@0]", "[p@0,p@0,s@0]"),
        ("[s@0,s@0,s@0]", "[p@0,s@0,s@0]"),
    ]
    for ta, tb in pairs:
        a, b = cell_chain(ta, L3), cell_chain(tb, L3)
        got = product(a, b)
        assert got.codimension() == a.codimension() + b.codimension()


def test_locality_support_containment(L3):
    # output supports lie inside the intersection of the input supports
    for code_a in window_codes(L3, 2):
        ca = decode_cell(code_a, L3)
        for code_b in window_codes(L3, 2):
            cb = decode_cell(code_b, L3)
            got = product(Chain.from_cell(ca, L3), Chain.from_cell(cb, L3))
            sup_a, sup_b = ca.support(L3), cb.support(L3)
            for cell in got.cells():
                for axis, axis_support in enumerate(cell.support(L3)):
                    allowed = set(sup_a[axis]) & set(sup_b[axis])
                    assert set(axis_support) <= allowed


def test_nonzero_iff_transverse_window(L3):
    transverse = kernel_for(L3.periods).transverse
    for code_a in window_codes(L3, 2):
        a = Chain.from_cell(decode_cell(code_a, L3), L3)
        for code_b in window_codes(L3, 2):
            got = product(a, Chain.from_cell(decode_cell(code_b, L3), L3))
            assert bool(got) == transverse(code_a, code_b)


def test_graded_commutativity_window(L3):
    codes = window_codes(L3, 2)
    for code_a in codes[::7]:
        ca = decode_cell(code_a, L3)
        a = Chain.from_cell(ca, L3)
        for code_b in codes:
            cb = decode_cell(code_b, L3)
            b = Chain.from_cell(cb, L3)
            sign = (-1) ** (ca.codimension * cb.codimension)
            assert product(a, b) == sign * product(b, a)


def test_leibniz_3d_non_ideal_pairs(L3):
    codes = [c for c in window_codes(L3, 2) if not decode_cell(c, L3).is_ideal]
    for code_a in codes[::5]:
        ca = decode_cell(code_a, L3)
        a = Chain.from_cell(ca, L3)
        sign = (-1) ** ca.codimension
        for code_b in codes:
            cb = decode_cell(code_b, L3)
            b = Chain.from_cell(cb, L3)
            assert boundary(product(a, b)) == product(boundary(a), b) + sign * product(a, boundary(b))


def test_bilinearity(L3):
    a = parse_chain("[s@0,p@0,s@4] + 2*[s@0,s@0,p@0]", L3)
    b = parse_chain("[p@0,s@0,s@0] - 1/2*[p@0,p@0,s@0]", L3)
    c = parse_chain("[p@0,s@0,s@0]", L3)
    assert product(a, b + c) == product(a, b) + product(a, c)
    assert product(a + a, b) == 2 * product(a, b)


def test_wraparound_well_defined():
    # products across the periodic seam agree with translated interior ones
    lattice = LatticeSpec((5, 5, 5))
    a0 = cell_chain("[s@4,p@0,s@0]", lattice)
    b0 = cell_chain("[p@0,s@0,s@0]", lattice)
    a1 = cell_chain("[s@1,p@2,s@2]", lattice)
    b1 = cell_chain("[p@2,s@2,s@2]", lattice)

    def translate(chain, delta):
        out = {}
        for cell, coef in chain.terms.items():
            factors = [
                type(f)(f.kind, (f.coord + d) % n)
                for f, d, n in zip(cell.factors, delta, lattice.periods)
            ]
            out[make_cell(factors, lattice)] = coef
        return Chain(lattice, out)

    assert translate(product(a0, b0), (2, 2, 2)) == product(a1, b1)


def test_mismatched_lattices_rejected(L3):
    other = LatticeSpec((7, 7, 7))
    with pytest.raises(ValueError):
        product(cell_chain("[s@0,p@0,s@0]", L3), cell_chain("[p@0,s@0,s@0]", other))


def test_six_dimensional_product_smoke():
    lattice = LatticeSpec((5,) * 6)
    a = cell_chain("[s@0,s@0,s@0,s@0,p@0,p@0]", lattice)
    b = cell_chain("[p@0,p@0,p@0,p@0,s@0,s@0]", lattice)
    got = product(a, b)
    # six endpoint contacts, each weighted 1/2; the Koszul sign is even
    assert got.codimension() == 6
    assert augment(got) == Fraction(1, 64)


# -- integer accumulation against Fraction arithmetic ---------------------------


def fraction_product(a, b):
    """The product accumulated term by term in Fractions."""
    lattice = a.lattice
    mult = kernel_for(lattice.periods).mult
    out = {}
    for ca, va in a._terms.items():
        for cb, vb in b._terms.items():
            for code, num in mult(ca, cb):
                out[code] = out.get(code, 0) + va * vb * Fraction(num, 4**lattice.d)
    return Chain._from_codes(lattice, out)


def test_product_with_mixed_denominators(L3):
    a = parse_chain("1/2*[s@0,s@0,p@0] - 5/7*[s@4,s@0,p@0] + 2/3*[s@0,s@1,p@1]", L3)
    b = parse_chain("2/3*[p@0,s@0,s@0] - 5/7*[p@1,s@4,i@0] + 1/2*[p@0,p@1,s@0]", L3)
    got = product(a, b)
    assert not got.is_zero()
    assert got == fraction_product(a, b)


def test_product_terms_that_cancel(L3):
    # x*y = -y*x for the two codimension-1 squares, and x*x = y*y = 0
    x = cell_chain("[s@0,s@0,p@0]", L3)
    y = cell_chain("[p@0,s@0,s@0]", L3)
    assert not product(x, y).is_zero()
    c = Fraction(1, 2) * x + Fraction(2, 3) * y
    assert fraction_product(c, c).is_zero()
    got = product(c, c)
    assert got.is_zero() and got._terms == {}


def test_product_with_empty_chain(L3):
    a = parse_chain("-5/7*[s@0,p@0,s@4]", L3)
    zero = Chain.zero(L3)
    assert product(zero, a)._terms == {}
    assert product(a, zero)._terms == {}
    assert product(zero, zero)._terms == {}


@pytest.mark.parametrize("periods", [(5,), (3, 5), (5, 5, 5)])
def test_product_matches_fraction_accumulation(periods):
    lattice = LatticeSpec(periods)
    rng = random.Random(len(periods))
    codes = window_codes(lattice, 2)

    def random_chain():
        return Chain._from_codes(
            lattice,
            {
                rng.choice(codes): Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 7, 12]))
                for _ in range(8)
            },
        )

    for _ in range(40):
        a, b = random_chain(), random_chain()
        assert product(a, b) == fraction_product(a, b)
