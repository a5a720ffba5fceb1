"""Truncation subalgebras: kind closures, membership, the 2m-n bound."""

from itertools import product as iterproduct

import pytest

from cubalg import Chain, LatticeSpec, generator_kinds, kind_closure, parse_cell, product
from cubalg.cells import FactorKind, decode_cell, window_codes
from cubalg.truncation import _AXIS_OUTPUTS, max_ideal_dimension

P, S, I = FactorKind.POINT, FactorKind.STICK, FactorKind.INF_STICK


def test_generators_are_low_dimensional_plain_cells():
    gens = generator_kinds(3, 2)
    assert (P, P, P) in gens
    assert (S, S, P) in gens
    assert (S, S, S) not in gens
    assert not any(I in t for t in gens)
    # seven kind patterns, eight anchors in the window
    assert len(window_codes(LatticeSpec((5, 5, 5)), 2, gens)) == 7 * 8


def test_closure_3d_truncation_2_adds_only_ideal_sticks():
    closed = kind_closure(3, 2)
    lat = LatticeSpec((5, 5, 5))
    assert parse_cell("[i@0,p@0,p@0]", lat).kinds in closed
    assert parse_cell("[p@0,i@2,p@1]", lat).kinds in closed
    assert parse_cell("[i@0,i@0,p@0]", lat).kinds not in closed  # ideal squares stay out
    assert parse_cell("[i@0,s@0,p@0]", lat).kinds not in closed
    assert parse_cell("[s@0,s@0,s@0]", lat).kinds not in closed
    assert max_ideal_dimension(closed) == 1  # 2m-n = 1


def test_closure_4d_truncation_2_has_no_ideal_elements():
    closed = kind_closure(4, 2)
    assert closed == generator_kinds(4, 2)
    assert max_ideal_dimension(closed) is None


def test_closure_4d_truncation_3_reaches_ideal_squares():
    closed = kind_closure(4, 3)
    assert (I, S, P, P) in closed
    assert (I, I, P, P) in closed
    assert (I, P, P, P) in closed
    assert max_ideal_dimension(closed) == 2  # 2m-n = 2


def test_closure_5d_truncation_3_ideal_sticks_only():
    closed = kind_closure(5, 3)
    assert max_ideal_dimension(closed) == 1


def test_closure_6d_truncation_4_ideal_dimension_two():
    closed = kind_closure(6, 4)
    assert max_ideal_dimension(closed) == 2
    assert any(sorted(t).count(I) == 2 for t in closed)


def brute_force_closure(n, m, periods, window):
    """Close actual window cells under the product; collect kind tuples."""
    lattice = LatticeSpec(periods)
    gen_kinds = generator_kinds(n, m)
    cells = [decode_cell(code, lattice) for code in window_codes(lattice, window, gen_kinds)]
    seen = set(gen_kinds)
    frontier = list(cells)
    all_cells = list(cells)
    while frontier:
        new_cells = []
        for a in frontier:
            ca = Chain.from_cell(a, lattice)
            for b in all_cells:
                got = product(ca, Chain.from_cell(b, lattice))
                for cell in got.cells():
                    if cell.kinds not in seen:
                        seen.add(cell.kinds)
                        new_cells.append(cell)
        all_cells.extend(new_cells)
        frontier = new_cells
    return frozenset(seen)


def plain_closure(n, m):
    """The generator patterns closed under `_AXIS_OUTPUTS` by a plain
    fixpoint over every pair of patterns, without the axis symmetry."""
    closed = set(generator_kinds(n, m))
    frontier = set(closed)
    while frontier:
        new = set()
        pairs = [(a, b) for a in frontier for b in closed] + [
            (a, b) for a in closed - frontier for b in frontier
        ]
        for ta, tb in pairs:
            for combo in iterproduct(*[_AXIS_OUTPUTS[kinds] for kinds in zip(ta, tb)]):
                if combo not in closed:
                    new.add(combo)
        closed |= new
        frontier = new
    return frozenset(closed)


@pytest.mark.parametrize("n,m", [(n, m) for n in range(1, 7) for m in range(1, n + 1)])
def test_closure_over_sorted_patterns_equals_the_plain_fixpoint(n, m):
    assert kind_closure(n, m) == plain_closure(n, m)


def test_closure_matches_brute_force_3d():
    assert brute_force_closure(3, 2, (5, 5, 5), 2) == kind_closure(3, 2)


def test_closure_matches_brute_force_1d_and_2d():
    assert brute_force_closure(1, 1, (5,), 2) == kind_closure(1, 1)
    assert brute_force_closure(2, 1, (5, 5), 2) == kind_closure(2, 1)
    assert brute_force_closure(2, 2, (5, 5), 2) == kind_closure(2, 2)

