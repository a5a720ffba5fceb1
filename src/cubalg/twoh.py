"""The 2h subcomplex: double-size cells barycentered at lattice vertices.

A 2h cell of dimension p at vertex v spans [v-1, v+1] along each of p
chosen axes; every vertex carries (1,3,3,1) such cells in three
dimensions.  Cells expand to sums of 2**p unit cells, and the star
operator exchanges a cell with the complementary-direction cell at the
same barycenter.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product as _iterproduct

from .cells import FactorKind, join_code
from .chain import Chain
from .lattice import LatticeSpec


@dataclass(frozen=True, slots=True)
class TwoHCell:
    center: tuple[int, ...]
    directions: frozenset[int]

    @property
    def dimension(self) -> int:
        return len(self.directions)

    def __str__(self) -> str:
        dirs = "".join("xyz"[i] for i in sorted(self.directions)) or "-"
        return ",".join(str(c) for c in self.center) + ":" + dirs

    def sort_key(self):
        return (self.center, tuple(sorted(self.directions)))


def _check_3d(lattice: LatticeSpec):
    if lattice.d != 3:
        raise ValueError("2h-subcomplex operations require a three-dimensional lattice")


def _check_directions(cell: TwoHCell) -> None:
    if not cell.directions <= frozenset(range(len(cell.center))):
        raise ValueError(
            f"directions {sorted(cell.directions)} are not axes of a "
            f"{len(cell.center)}-dimensional cell"
        )


def expand(cell: TwoHCell, lattice: LatticeSpec) -> Chain:
    """The 2h cell as a sum of unit cells of the h-complex."""
    if len(cell.center) != lattice.d:
        raise ValueError("center has wrong dimension")
    _check_directions(cell)
    options = []
    for i, (v, n) in enumerate(zip(cell.center, lattice.periods)):
        if i in cell.directions:
            options.append([((v - 1) % n, FactorKind.STICK), (v % n, FactorKind.STICK)])
        else:
            options.append([(v % n, FactorKind.POINT)])
    # the two sticks of an axis differ because every period is at least 3
    return Chain._from_codes(
        lattice, {join_code(parts, lattice): 1 for parts in _iterproduct(*options)}
    )


def two_h_basis(p: int, lattice: LatticeSpec) -> list[TwoHCell]:
    """All 2h cells of dimension p, in a fixed deterministic order."""
    _check_3d(lattice)
    if not 0 <= p <= 3:
        raise ValueError(f"dimension must be in 0..3, got {p}")
    cells = []
    coords = [range(n) for n in lattice.periods]
    for center in _iterproduct(*coords):
        for dirs in combinations(range(3), p):
            cells.append(TwoHCell(tuple(center), frozenset(dirs)))
    cells.sort(key=TwoHCell.sort_key)
    return cells


def star(cell: TwoHCell, lattice: LatticeSpec) -> TwoHCell:
    """Complementary-direction cell at the same barycenter (sign +1), its
    center reduced modulo the periods.

    An involution pairing dimensions p and 3-p.
    """
    _check_3d(lattice)
    if len(cell.center) != 3:
        raise ValueError("star requires a three-dimensional 2h cell")
    _check_directions(cell)
    center = tuple(lattice.reduce(i, c) for i, c in enumerate(cell.center))
    return TwoHCell(center, frozenset(range(3)) - cell.directions)


def abstract_boundary(cell: TwoHCell, lattice: LatticeSpec) -> list[tuple[TwoHCell, int]]:
    """Boundary within the free module on 2h cells.

    Facets of (v, S) along axis i in S sit at centers v +/- e_i with
    directions S - {i}; the sign convention mirrors the h-complex one
    (prefix count of non-direction axes).  Used for the free-basis
    homology diagnostic; `expand` intertwines this with the h-boundary.
    """
    out: list[tuple[TwoHCell, int]] = []
    prefix_pts = 0
    for i in range(len(cell.center)):
        if i not in cell.directions:
            prefix_pts += 1
            continue
        sigma = -1 if prefix_pts % 2 else 1
        n = lattice.periods[i]
        dirs = cell.directions - {i}
        up = list(cell.center)
        up[i] = (up[i] + 1) % n
        down = list(cell.center)
        down[i] = (down[i] - 1) % n
        out.append((TwoHCell(tuple(up), dirs), sigma))
        out.append((TwoHCell(tuple(down), dirs), -sigma))
    return out
