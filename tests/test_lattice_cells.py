from math import prod

import pytest

from cubalg import Factor, FactorKind, LatticeSpec, make_cell, point, stick, inf_stick
from cubalg.cells import decode_cell, encode_cell


def test_lattice_validation():
    LatticeSpec((3,))
    LatticeSpec((5, 5, 5))
    with pytest.raises(ValueError):
        LatticeSpec((2, 5))
    with pytest.raises(ValueError):
        LatticeSpec(())
    with pytest.raises(ValueError):
        LatticeSpec((5,) * 7)
    with pytest.raises(TypeError):
        LatticeSpec((5.0, 5))


def test_factor_grading():
    assert point(0).degree == 0 and point(0).codim == 1
    assert stick(0).degree == 1 and stick(0).codim == 0
    assert inf_stick(0).degree == 1 and inf_stick(0).codim == 0
    assert stick(2).support(5) == (2, 3)
    assert stick(4).support(5) == (4, 0)  # wraps
    assert inf_stick(3).support(5) == (3,)
    # the coordinate is reduced modulo the period
    assert stick(7).support(5) == (2, 3)
    assert stick(-1).support(5) == (4, 0)
    assert point(-1).support(5) == (4,)
    assert inf_stick(8).support(5) == (3,)


def test_make_cell_1d():
    lat = LatticeSpec((5,))
    cell = make_cell([stick(0)], lat)
    assert cell.dimension == 1 and cell.codimension == 0
    assert not cell.is_ideal


def test_make_cell_3d_square():
    lat = LatticeSpec((5, 5, 5))
    cell = make_cell([stick(0), point(2), stick(3)], lat)
    assert cell.dimension == 2
    assert cell.codimension == 1  # one point factor


def test_make_cell_ideal_stick():
    lat = LatticeSpec((5, 5, 5))
    cell = make_cell([inf_stick(1), point(0), point(0)], lat)
    assert cell.dimension == 1
    assert cell.codimension == 2
    assert cell.is_ideal


def test_grading_relation():
    # dimension + codimension = d for cells without infinitesimals;
    # grading-dimension + codimension = d always
    lat = LatticeSpec((5, 5, 5))
    kinds = [FactorKind.POINT, FactorKind.STICK, FactorKind.INF_STICK]
    for k1 in kinds:
        for k2 in kinds:
            for k3 in kinds:
                cell = make_cell([Factor(k1, 0), Factor(k2, 1), Factor(k3, 2)], lat)
                assert cell.dimension + cell.codimension == 3
                if not cell.is_ideal:
                    assert sum(1 for f in cell.factors if f.kind is FactorKind.STICK) == cell.dimension


def test_exactly_six_ideal_kinds_in_3d():
    # classifying by the multiset of factor kinds, an infinitesimal factor
    # can combine with the rest in exactly six ways in three dimensions
    from itertools import product

    multisets = set()
    for kinds in product(list(FactorKind), repeat=3):
        if FactorKind.INF_STICK in kinds:
            multisets.add(tuple(sorted(k.value for k in kinds)))
    assert len(multisets) == 6


def test_coordinate_reduction_and_arity():
    lat = LatticeSpec((5, 5, 5))
    cell = make_cell([stick(-1), point(7), point(5)], lat)
    assert [f.coord for f in cell.factors] == [4, 2, 0]
    with pytest.raises(ValueError):
        make_cell([stick(0)], lat)
    with pytest.raises(TypeError):
        make_cell([Factor(FactorKind.POINT, "x")], LatticeSpec((5,)))
    # a kind outside FactorKind is refused, not encoded as another cell
    for kind in (3, -1, "p"):
        with pytest.raises(ValueError):
            Factor(kind, 0)
    assert Factor(1, 0).kind is FactorKind.STICK


def test_encode_decode_roundtrip():
    lat = LatticeSpec((5, 3, 4))
    from itertools import product

    for kinds in product(list(FactorKind), repeat=3):
        for coords in product(range(5), range(3), range(4)):
            cell = make_cell([Factor(k, c) for k, c in zip(kinds, coords)], lat)
            assert decode_cell(encode_cell(cell, lat), lat) == cell


@pytest.mark.parametrize("periods,stride", [((3,), 1), ((3, 4), 1), ((3, 5, 4), 13)])
def test_near_codes_cover_every_meeting_cell_once(periods, stride):
    from cubalg.cells import code_kinds, near_codes

    lattice = LatticeSpec(periods)
    kinds = (FactorKind.POINT, FactorKind.STICK)
    every = range(prod(3 * n for n in periods))
    for a in every[::stride]:
        near = near_codes(a, lattice, kinds)
        assert len(near) == len(set(near))
        supports = decode_cell(a, lattice).support(lattice)
        meeting = {
            b
            for b in every
            if set(code_kinds(b, lattice)) <= set(kinds)
            and _supports_meet(supports, decode_cell(b, lattice).support(lattice))
        }
        assert set(near) == meeting


def _supports_meet(supports, other):
    """The closed supports as lattice-point sets share a point on every axis."""
    return all(set(x) & set(y) for x, y in zip(supports, other))


@pytest.mark.parametrize("n", range(3, 9))
def test_axis_meets_is_the_support_intersection(n):
    from cubalg.cells import axis_meets

    factors = [Factor(FactorKind(fc % 3), fc // 3) for fc in range(3 * n)]
    meets = axis_meets(n)
    assert len(meets) == 3 * n
    for fa, x in enumerate(factors):
        for fb, y in enumerate(factors):
            assert bool(meets[fa] >> fb & 1) == bool(set(x.support(n)) & set(y.support(n)))


@pytest.mark.parametrize("n", range(3, 9))
def test_entry_bits_is_the_closed_support(n):
    from cubalg.cells import entry_bits
    from tests.test_cuboid import every_axis_entry

    entries = every_axis_entry(n)
    assert len(entries) == n * (n + 1)
    for entry in entries:
        if isinstance(entry, tuple):
            a, b = entry
            points = {(a + j) % n for j in range(b - a + 1)}
        else:
            points = {entry}
        expected = sum(1 << x for x in points)
        # unreduced anchors give the same support
        for shift in (-n, 0, n):
            moved = (a + shift, b + shift) if isinstance(entry, tuple) else entry + shift
            assert entry_bits(moved, n) == expected, moved


CELL_SETS = [
    ((3, 3, 3), 2, None),
    ((3, 5), 2, None),
    ((4, 3, 3), 1, None),
    ((5,), 3, None),
    ((3, 3, 3, 3), 1, None),
    # the kind-restricted cell sets of H and of S6's exhaustive n=4, m=3 case
    ((3, 3, 5), 1, (3, 2)),
    ((5, 5, 5, 5), 2, (4, 3)),
]


@pytest.mark.parametrize("periods,window,closure", CELL_SETS)
def test_window_codes_equal_one_join_code_per_cell(periods, window, closure):
    from itertools import product as iterproduct

    from cubalg.cells import join_code, window_codes
    from cubalg.truncation import kind_closure

    lattice = LatticeSpec(periods)
    kinds = closure and kind_closure(*closure)
    patterns = iterproduct(FactorKind, repeat=lattice.d) if kinds is None else kinds
    anchors = list(iterproduct(range(window), repeat=lattice.d))
    expected = sorted(join_code(zip(pos, kind), lattice) for kind in patterns for pos in anchors)
    assert window_codes(lattice, window, kinds) == expected


@pytest.mark.parametrize("periods,window,closure", CELL_SETS)
def test_meet_masks_equal_the_per_pair_support_test(periods, window, closure):
    from cubalg._kernel_py import PyKernel
    from cubalg.cells import meet_masks, window_codes
    from cubalg.truncation import kind_closure

    lattice = LatticeSpec(periods)
    kernel = PyKernel(periods)
    codes = window_codes(lattice, window, closure and kind_closure(*closure))
    masks = meet_masks(codes, lattice)
    assert len(masks) == len(codes)
    supports = [decode_cell(c, lattice).support(lattice) for c in codes]
    for i, a in enumerate(codes):
        for j, b in enumerate(codes):
            meets = bool(masks[i] >> j & 1)
            assert meets == kernel.supports_intersect(a, b), (i, j)
            # the same, from the closed supports as lattice-point sets
            assert meets == _supports_meet(supports[i], supports[j])


@pytest.mark.parametrize("periods", [(5, 5, 5, 5), (3, 5, 4)])
def test_kernel_cell_record_agrees_with_the_cell_view(periods):
    # the harness reads a multiplied cell's codimension and point axes from
    # the kernel's record, and sorts and filters cells by the Cell view
    from cubalg._kernel_py import PyKernel
    from cubalg.cells import window_codes

    lattice = LatticeSpec(periods)
    kernel = PyKernel(periods)
    for c in window_codes(lattice, 2):
        record, cell = kernel.cell(c), decode_cell(c, lattice)
        assert record.points.bit_count() == cell.codimension
        assert tuple(f % 3 for f in record.factors) == cell.kinds
