"""The augmentation pairing and its nondegeneracy.

<a, b> = augment(a * b).  Restricted to the non-ideal bases of degrees p
and d-p this gives a square matrix whose rank (and exact determinant)
decide nondegeneracy; it is nondegenerate exactly when every period is
odd.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product as _iterproduct

from . import linalg
from .cells import Cell, Factor, FactorKind, make_cell
from .chain import Chain, augment
from .lattice import LatticeSpec
from .product import product


def pairing(a: Chain, b: Chain) -> Fraction:
    """Frobenius pairing: augmentation of the product."""
    return augment(product(a, b))


def c_basis(p: int, lattice: LatticeSpec) -> list[Cell]:
    """All non-ideal basis cells of dimension p, in a fixed order."""
    if not 0 <= p <= lattice.d:
        raise ValueError(f"degree must be in 0..{lattice.d}, got {p}")
    cells = []
    coords = [range(n) for n in lattice.periods]
    for stick_axes in combinations(range(lattice.d), p):
        for pos in _iterproduct(*coords):
            factors = tuple(
                Factor(FactorKind.STICK if i in stick_axes else FactorKind.POINT, pos[i])
                for i in range(lattice.d)
            )
            cells.append(make_cell(factors, lattice))
    cells.sort(key=Cell.sort_key)
    return cells


@dataclass(frozen=True)
class PairingMatrix:
    degree: int
    rows: tuple[Cell, ...]
    cols: tuple[Cell, ...]
    entries: tuple[tuple[Fraction, ...], ...]

    @cached_property
    def rank(self) -> int:
        return linalg.rank(self.entries)

    @cached_property
    def determinant(self) -> Fraction:
        return linalg.det(self.entries)

    @property
    def nondegenerate(self) -> bool:
        return self.rank == len(self.rows) == len(self.cols)


def pairing_matrix(p: int, lattice: LatticeSpec) -> PairingMatrix:
    """Matrix of the pairing on C_p x C_{d-p} over the non-ideal bases."""
    rows = c_basis(p, lattice)
    cols = c_basis(lattice.d - p, lattice)
    entries = tuple(
        tuple(
            pairing(
                Chain.from_cell(r, lattice),
                Chain.from_cell(c, lattice),
            )
            for c in cols
        )
        for r in rows
    )
    return PairingMatrix(p, tuple(rows), tuple(cols), entries)


def pairing_report(p: int, lattice: LatticeSpec) -> dict:
    """JSON-ready summary: degree, rank, exact determinant, nondegeneracy."""
    mat = pairing_matrix(p, lattice)
    from .grammar import format_rational

    return {
        "degree": p,
        "rank": mat.rank,
        "det": format_rational(mat.determinant),
        "nondegenerate": mat.nondegenerate,
    }
