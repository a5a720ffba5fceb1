from fractions import Fraction
from itertools import product as iterproduct

import pytest
from hypothesis import given, settings, strategies as st

from cubalg import (
    Cell,
    Chain,
    Factor,
    FactorKind,
    LatticeSpec,
    augment,
    boundary,
    make_cell,
    mult1,
    parse_chain,
    point,
    product,
    stick,
)
from cubalg.cells import decode_cell, encode_cell, window_codes


def all_basis_cells(lattice):
    kinds = list(FactorKind)
    for combo in iterproduct(
        *[[(k, c) for k in kinds for c in range(n)] for n in lattice.periods]
    ):
        yield make_cell([Factor(k, c) for k, c in combo], lattice)


# -- boundary ------------------------------------------------------------------


def test_boundary_1d_stick(L5):
    assert boundary(parse_chain("[s@0]", L5)) == parse_chain("[p@1] - [p@0]", L5)


def test_boundary_point_and_inf_vanish(L5):
    assert boundary(parse_chain("[p@2]", L5)).is_zero()
    assert boundary(parse_chain("[i@2]", L5)).is_zero()


def independent_boundary(cell, lattice):
    return Chain(lattice, boundary_terms(cell, lattice))


def boundary_terms(cell, lattice):
    """Per-axis rule applied directly: stick axis i contributes
    (-1)**(points before i) * (upper endpoint - lower endpoint)."""
    out = {}
    prefix_points = 0
    for i, f in enumerate(cell.factors):
        if f.kind is FactorKind.POINT:
            prefix_points += 1
            continue
        if f.kind is FactorKind.INF_STICK:
            continue
        sign = (-1) ** prefix_points
        for coord, s in [((f.coord + 1) % lattice.periods[i], sign), (f.coord, -sign)]:
            factors = list(cell.factors)
            factors[i] = Factor(FactorKind.POINT, coord)
            new = make_cell(factors, lattice)
            out[new] = out.get(new, 0) + s
    return out


def test_boundary_3d_square_matches_per_axis_rule(L3):
    cell = make_cell([Factor(FactorKind.STICK, 0), Factor(FactorKind.STICK, 0), Factor(FactorKind.POINT, 0)], L3)
    got = boundary(Chain.from_cell(cell, L3))
    assert got == independent_boundary(cell, L3)
    # spelled out: both stick axes split with positive prefix signs here
    assert got == parse_chain(
        "[p@1,s@0,p@0] - [p@0,s@0,p@0] + [s@0,p@1,p@0] - [s@0,p@0,p@0]", L3
    )


def test_boundary_matches_independent_rule_exhaustive():
    lattice = LatticeSpec((3, 3, 3))
    for cell in all_basis_cells(lattice):
        got = boundary(Chain.from_cell(cell, lattice))
        assert got == independent_boundary(cell, lattice)


def test_boundary_squared_zero_exhaustive():
    for periods in [(3,), (3, 3), (3, 3, 3)]:
        lattice = LatticeSpec(periods)
        for cell in all_basis_cells(lattice):
            assert boundary(boundary(Chain.from_cell(cell, lattice))).is_zero()


def test_boundary_codimension_shift(L3):
    for code in window_codes(L3, 2):
        cell = decode_cell(code, L3)
        chain = Chain.from_cell(cell, L3)
        b = boundary(chain)
        if not b.is_zero():
            assert b.codimension() == cell.codimension + 1


def test_augment_examples(L3):
    one_d = LatticeSpec((5,))
    assert augment(parse_chain("[p@0] + [p@3]", one_d)) == 2
    assert augment(parse_chain("1/2*[p@0] - 1/2*[p@0]", one_d)) == 0
    assert augment(parse_chain("1/4*[i@0,p@0,p@0]", L3)) == 0
    assert augment(parse_chain("[s@0]", one_d)) == 0


def test_augment_of_boundary_vanishes_on_codim_d_minus_1():
    # closed lattice: endpoint contributions cancel around the torus
    for periods in [(3,), (4,), (3, 3, 3), (4, 3, 3)]:
        lattice = LatticeSpec(periods)
        for cell in all_basis_cells(lattice):
            if cell.codimension == lattice.d - 1:
                assert augment(boundary(Chain.from_cell(cell, lattice))) == 0


# -- arithmetic ----------------------------------------------------------------


def test_zero_coefficients_dropped(L5):
    c = parse_chain("[s@0] - [s@0]", L5)
    assert c.is_zero() and len(c) == 0


def test_mismatched_lattice_rejected(L5):
    other = LatticeSpec((9,))
    with pytest.raises(ValueError):
        parse_chain("[s@0]", L5) + parse_chain("[s@0]", other)


def test_float_coefficients_rejected(L5):
    cell = make_cell([Factor(FactorKind.STICK, 0)], L5)
    with pytest.raises(TypeError):
        Chain(L5, {cell: 0.5})
    with pytest.raises(TypeError):
        0.5 * Chain.from_cell(cell, L5)


def test_codimension_detection(L3):
    assert parse_chain("[s@0,s@0,p@0] + [s@0,p@0,s@0]", L3).codimension() == 1
    assert parse_chain("[s@0,s@0,p@0] + [p@0,p@0,p@0]", L3).codimension() is None
    assert Chain.zero(L3).codimension() is None


@st.composite
def chains(draw, periods=(5,), max_terms=5):
    lattice = LatticeSpec(periods)
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        factors = []
        for n in periods:
            kind = draw(st.sampled_from(list(FactorKind)))
            coord = draw(st.integers(0, n - 1))
            factors.append(Factor(kind, coord))
        num = draw(st.integers(-20, 20))
        den = draw(st.integers(1, 12))
        terms[make_cell(factors, lattice)] = Fraction(num, den)
    return Chain(lattice, terms)


@settings(max_examples=60)
@given(chains(), chains())
def test_chain_arithmetic_exact(a, b):
    assert (a + b) - b == a
    assert a + b == b + a
    assert -(-a) == a
    assert Fraction(1, 3) * (a + b) == Fraction(1, 3) * a + Fraction(1, 3) * b


@settings(max_examples=60)
@given(chains(periods=(5, 5)))
def test_boundary_linear_and_nilpotent(a):
    assert boundary(boundary(a)).is_zero()
    assert boundary(2 * a) == 2 * boundary(a)


# -- canonical cells at the boundary -------------------------------------------


@st.composite
def raw_cells(draw, lattice):
    """Cells with unreduced, possibly negative coordinates."""
    return Cell(
        tuple(
            Factor(draw(st.sampled_from(list(FactorKind))), draw(st.integers(-40, 40)))
            for _ in lattice.periods
        )
    )


@settings(max_examples=80)
@given(st.data())
def test_codes_canonicalise_like_make_cell(data):
    periods = tuple(data.draw(st.lists(st.integers(3, 7), min_size=1, max_size=3)))
    lattice = LatticeSpec(periods)
    raw = data.draw(
        st.dictionaries(
            raw_cells(lattice), st.fractions(-3, 3, max_denominator=8), max_size=12
        )
    )
    for cell in raw:
        canonical = make_cell(cell.factors, lattice)
        assert decode_cell(encode_cell(cell, lattice), lattice) == canonical
        assert encode_cell(canonical, lattice) == encode_cell(cell, lattice)
    reference = {}
    for cell, coef in raw.items():
        key = make_cell(cell.factors, lattice)
        reference[key] = reference.get(key, 0) + coef
    reference = {c: v for c, v in reference.items() if v}
    chain = Chain(lattice, raw)
    assert dict(chain.terms) == reference
    assert len(chain) == len(reference)
    for cell in raw:
        assert chain.coefficient(cell) == reference.get(make_cell(cell.factors, lattice), 0)


def test_unreduced_coordinates_are_reduced():
    lattice = LatticeSpec((5, 5))
    raw = Chain(lattice, {Cell((point(7), stick(0))): 1})
    reduced = parse_chain("[p@2,s@0]", lattice)
    assert raw == reduced
    # one point factor precedes the stick axis, so the endpoint difference flips
    assert boundary(raw) == boundary(reduced) == parse_chain("[p@2,p@0] - [p@2,p@1]", lattice)


def test_wrong_arity_rejected():
    lattice = LatticeSpec((5, 5))
    one_factor = Cell((point(0),))
    with pytest.raises(ValueError):
        Chain(lattice, {one_factor: 1})
    with pytest.raises(ValueError):
        Chain.from_cell(one_factor, lattice)
    with pytest.raises(ValueError):
        Chain.zero(lattice).coefficient(one_factor)


def test_cells_equal_after_reduction_merge():
    lattice = LatticeSpec((5, 5))
    a, b = Cell((point(5), point(0))), Cell((point(0), point(0)))
    total = Chain.from_cell(a, lattice) + Chain.from_cell(b, lattice)
    assert dict(total.terms) == {b: 2}
    assert Chain(lattice, {a: 1, b: 1}) == total
    assert total.coefficient(a) == 2


def reference_product(ta, tb, lattice):
    """Cell-keyed product: mult1 on every axis, weighted by the Koszul sign
    (-1)**(pairs i > j with factor i of a and factor j of b both points)."""
    out = {}
    for ca, va in ta.items():
        for cb, vb in tb.items():
            inversions = sum(
                1
                for i, fa in enumerate(ca.factors)
                for fb in cb.factors[:i]
                if fa.kind is FactorKind.POINT and fb.kind is FactorKind.POINT
            )
            per_axis = [
                list(mult1(fa, fb, LatticeSpec((n,))).terms.items())
                for fa, fb, n in zip(ca.factors, cb.factors, lattice.periods)
            ]
            for combo in iterproduct(*per_axis):
                cell = Cell(tuple(c.factors[0] for c, _ in combo))
                coef = va * vb * (-1) ** inversions
                for _, w in combo:
                    coef *= w
                out[cell] = out.get(cell, 0) + coef
    return {c: v for c, v in out.items() if v}


def reference_sum(ta, tb, sign=1):
    out = dict(ta)
    for cell, coef in tb.items():
        out[cell] = out.get(cell, 0) + sign * coef
    return {c: v for c, v in out.items() if v}


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([(5,), (3, 4), (3, 3, 3)]).flatmap(
        lambda periods: st.tuples(
            chains(periods, max_terms=4),
            chains(periods, max_terms=4),
            st.fractions(-3, 3, max_denominator=6),
        )
    )
)
def test_arithmetic_matches_cell_keyed_reference(args):
    a, b, q = args
    lattice = a.lattice
    ta, tb = dict(a.terms), dict(b.terms)
    assert dict((a + b).terms) == reference_sum(ta, tb)
    assert dict((a - b).terms) == reference_sum(ta, tb, -1)
    assert dict((q * a).terms) == {c: q * v for c, v in ta.items() if q * v}
    bd = {}
    for cell, coef in ta.items():
        bd = reference_sum(bd, {c: coef * v for c, v in boundary_terms(cell, lattice).items()})
    assert dict(boundary(a).terms) == bd
    assert dict(product(a, b).terms) == reference_product(ta, tb, lattice)
