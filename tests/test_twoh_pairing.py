"""2h cells, star duality, and the augmentation pairing in three dimensions."""

import importlib
from fractions import Fraction
from itertools import product as iterproduct

import pytest

from cubalg import (
    Chain,
    LatticeSpec,
    TwoHCell,
    augment,
    boundary,
    expand,
    pairing,
    parse_chain,
    product,
    star,
    two_h_basis,
)
from cubalg.pairing import c_basis, pairing_matrix
from cubalg.twoh import abstract_boundary
from tests.test_kernel import (
    BROKEN_CASES,
    STICK0,
    _scaled_entries,
    doubled_entry_kernel,
    squared_point_table_kernel,
)

POINT0 = 0  # the factor code of p@0

# the package exports the function `pairing`, which hides the module's name
PAIRING = importlib.import_module("cubalg.pairing")


@pytest.fixture
def L333():
    return LatticeSpec((3, 3, 3))


def test_basis_counts(L333):
    assert len(two_h_basis(0, L333)) == 27
    assert len(two_h_basis(1, L333)) == 81
    assert len(two_h_basis(2, L333)) == 81
    assert len(two_h_basis(3, L333)) == 27


def test_expand_edge(L333):
    cell = TwoHCell((1, 1, 1), frozenset({0}))
    assert expand(cell, L333) == parse_chain("[s@0,p@1,p@1] + [s@1,p@1,p@1]", L333)


def test_expand_square_and_cube_sizes(L333):
    assert len(expand(TwoHCell((1, 1, 1), frozenset({0, 1})), L333)) == 4
    assert len(expand(TwoHCell((1, 1, 1), frozenset({0, 1, 2})), L333)) == 8


def test_star_examples(L333):
    edge = TwoHCell((1, 2, 0), frozenset({0}))
    assert star(edge, L333) == TwoHCell((1, 2, 0), frozenset({1, 2}))
    vertex = TwoHCell((0, 0, 0), frozenset())
    assert star(vertex, L333) == TwoHCell((0, 0, 0), frozenset({0, 1, 2}))


@pytest.mark.parametrize("directions", [{5}, {0, 3}, {-1}])
def test_a_cell_with_directions_outside_the_axes_is_rejected(L333, directions):
    cell = TwoHCell((0, 0, 0), frozenset(directions))
    with pytest.raises(ValueError, match="are not axes"):
        expand(cell, L333)
    with pytest.raises(ValueError, match="are not axes"):
        star(cell, L333)


def test_star_involution_and_bijection(L333):
    for p in range(4):
        basis = two_h_basis(p, L333)
        images = [star(c, L333) for c in basis]
        assert all(star(i, L333) == c for c, i in zip(basis, images))
        assert sorted(images, key=TwoHCell.sort_key) == two_h_basis(3 - p, L333)


def test_expand_intertwines_boundaries(L333):
    # the facet boundary of a 2h cell expands to the h-complex boundary
    for p in range(4):
        for cell in two_h_basis(p, L333)[:12]:
            via_h = boundary(expand(cell, L333))
            via_2h = Chain.zero(L333)
            for facet, sign in abstract_boundary(cell, L333):
                via_2h = via_2h + sign * expand(facet, L333)
            assert via_h == via_2h


def test_pairing_matrix_graded_symmetry(L333):
    # <a,b> = (-1)**(codim a * codim b) <b,a>; in three dimensions the
    # codimension product (3-p)*p is always even, so transposes agree
    from cubalg.cells import code_codim

    m1 = pairing_matrix(1, L333)
    m2 = pairing_matrix(2, L333)
    rows1 = {code: i for i, code in enumerate(m1.rows)}
    cols1 = {code: i for i, code in enumerate(m1.cols)}
    for r, code_r in list(enumerate(m2.rows))[::17]:
        for c, code_c in list(enumerate(m2.cols))[::13]:
            sign = (-1) ** (code_codim(code_r, L333) * code_codim(code_c, L333))
            assert m2.entries[r][c] == sign * m1.entries[rows1[code_c]][cols1[code_r]]
            assert sign == 1


def test_frobenius_associativity_window(L3):
    from cubalg.cells import decode_cell
    from cubalg.cells import window_codes

    codes = window_codes(L3, 2)
    chains = {c: Chain.from_cell(decode_cell(c, L3), L3) for c in codes}
    picked = codes[::23]
    for a in picked:
        for b in codes[::17]:
            ab = product(chains[a], chains[b])
            for c in codes[::29]:
                bc = product(chains[b], chains[c])
                assert augment(product(ab, chains[c])) == augment(product(chains[a], bc))


def test_nondegenerate_iff_all_periods_odd():
    for periods in iterproduct((3, 4), (3, 4), (3, 4)):
        lattice = LatticeSpec(periods)
        expect = all(n % 2 for n in periods)
        for p in (0, 1):
            mat = pairing_matrix(p, lattice)
            assert mat.nondegenerate == expect, (periods, p)
            # the rank factors through the one-dimensional ranks per axis
            from math import comb

            rank_1d = 1
            for n in periods:
                rank_1d *= n if n % 2 else n - 1
            assert mat.rank == comb(3, p) * rank_1d


def test_pairing_values_3d(L333):
    # vertex against the cube having it as a corner: (1/2)**3
    a = Chain.from_cell(c_basis(0, L333)[0], L333)
    cube = parse_chain("[s@0,s@0,s@0]", L333)
    assert pairing(a, cube) == Fraction(1, 8)


def all_pairs_entries(kernel, p, lattice):
    """The degree-p pairing matrix with every pair multiplied: the oracle."""
    from cubalg.pairing import c_basis_codes

    rows, cols = c_basis_codes(p, lattice), c_basis_codes(lattice.d - p, lattice)
    return tuple(
        tuple(Fraction(sum(num for _, num in kernel.mult(r, c)), 4**lattice.d) for c in cols)
        for r in rows
    )


@pytest.mark.parametrize("periods", [(3, 3, 5), (5, 5, 5), (5,)])
def test_pairing_matrix_equals_all_pairs_assembly(periods):
    # the matrix multiplies the pairs whose supports meet; every pair
    # multiplied gives its entries
    from cubalg._kernel_py import kernel_for
    from cubalg.linalg import det
    from cubalg.pairing import c_basis_codes

    lattice = LatticeSpec(periods)
    kernel = kernel_for(periods)
    for p in range(lattice.d + 1):
        rows, cols = c_basis_codes(p, lattice), c_basis_codes(lattice.d - p, lattice)
        all_pairs = all_pairs_entries(kernel, p, lattice)
        mat = pairing_matrix(p, lattice)
        assert (mat.rows, mat.cols) == (tuple(rows), tuple(cols))
        assert mat.entries == all_pairs
        assert len(mat.entries) == len(rows) and all(len(row) == len(cols) for row in mat.entries)
        assert all(row and all(row.values()) for row in mat.numerators)
        if lattice.d == 1:
            assert mat.determinant == det(all_pairs) != 0


def _assert_rows_are_all_pairs(kernel, lattice):
    # the sparse rows skip the pairs whose supports miss; multiplying every
    # pair must find no nonzero entry among them
    from cubalg import linalg
    from cubalg.pairing import c_basis_codes

    for p in range(lattice.d + 1):
        mat = pairing_matrix(p, lattice)
        cols = c_basis_codes(lattice.d - p, lattice)
        walked = tuple(
            {c: v for c in cols if (v := sum(num for _, num in kernel.mult(r, c)))}
            for r in mat.rows
        )
        assert mat.numerators == walked
        assert mat.rank == linalg.rank(walked)


@pytest.mark.parametrize(
    "periods", [(3,), (4,), (5,), (3, 3), (4, 3, 3), (3, 3, 5), (3, 3, 3, 3)]
)
def test_pairing_rows_equal_the_walk(periods):
    from cubalg._kernel_py import kernel_for

    _assert_rows_are_all_pairs(kernel_for(periods), LatticeSpec(periods))


@pytest.mark.parametrize("broken,periods,window,seed", BROKEN_CASES)
def test_pairing_rows_on_broken_tables_equal_the_walk(monkeypatch, broken, periods, window, seed):
    # every mutant changes entries of pairs that meet, which the rows keep
    kernel = broken(periods, window, seed)
    monkeypatch.setattr(PAIRING, "kernel_for", lambda periods: kernel)
    _assert_rows_are_all_pairs(kernel, LatticeSpec(periods))


@pytest.mark.parametrize(
    "periods",
    [(3,), (4,), (5,), (6,), (3, 5), (3, 3, 3), (4, 3, 3), (4, 4, 3), (4, 4, 4, 3)],
)
def test_the_per_axis_rank_is_the_matrix_rank(periods):
    # on an even axis the 1-d blocks are degenerate, and so is the matrix
    from cubalg import linalg
    from cubalg._kernel_py import PyKernel

    kernel, lattice = PyKernel(periods), LatticeSpec(periods)
    for p in range(lattice.d + 1):
        mat = pairing_matrix(p, lattice)
        rank = kernel.pairing_rank(p)
        assert rank == linalg.rank(mat.numerators)
        assert (rank == len(mat.rows)) == all(n % 2 for n in periods)


@pytest.mark.parametrize("broken,periods,window,seed", BROKEN_CASES)
def test_the_per_axis_rank_on_broken_tables_is_the_matrix_rank(
    monkeypatch, broken, periods, window, seed
):
    # a doubled entry keeps the tensor fact, so the rank is read from the
    # doubled table; the other mutants break it and get no rank
    from cubalg import linalg

    kernel, lattice = broken(periods, window, seed), LatticeSpec(periods)
    monkeypatch.setattr(PAIRING, "kernel_for", lambda periods: kernel)
    for p in range(lattice.d + 1):
        rank = kernel.pairing_rank(p)
        if broken is doubled_entry_kernel:
            assert rank == linalg.rank(pairing_matrix(p, lattice).numerators)
        else:
            assert rank is None


def test_a_doubled_entry_on_an_even_axis_raises_the_rank(monkeypatch):
    # p@0*s@0 doubled on a period-4 axis makes that axis's point block
    # nondegenerate; the per-axis rank follows the doubled rows
    from cubalg import linalg
    from cubalg._kernel_py import PyKernel

    lattice = LatticeSpec((4, 3))
    kernel = _scaled_entries(PyKernel(lattice.periods), [(POINT0, STICK0)], 2)
    monkeypatch.setattr(PAIRING, "kernel_for", lambda periods: kernel)
    for p in range(lattice.d + 1):
        rank = kernel.pairing_rank(p)
        assert rank == linalg.rank(pairing_matrix(p, lattice).numerators)
    assert kernel.pairing_rank(1) > PyKernel(lattice.periods).pairing_rank(1)


def test_a_point_times_a_point_gets_the_walks_matrix(monkeypatch):
    # p@0 * p@0 = p@0 on axis 0 pairs a point with a point there: the walked
    # matrix takes up the entries it adds
    from cubalg._kernel_py import kernel_for

    lattice = LatticeSpec((3, 3, 3))
    kernel = squared_point_table_kernel(lattice.periods, 1, 0)
    monkeypatch.setattr(PAIRING, "kernel_for", lambda periods: kernel)
    changed = 0
    for p in range(lattice.d + 1):
        mat = pairing_matrix(p, lattice)
        assert mat.entries == all_pairs_entries(kernel, p, lattice)
        changed += mat.entries != all_pairs_entries(kernel_for(lattice.periods), p, lattice)
    assert changed
