"""The augmentation pairing and its nondegeneracy.

<a, b> = augment(a * b).  Restricted to the non-ideal bases of degrees p
and d-p this gives a square matrix whose rank (and exact determinant)
decide nondegeneracy; it is nondegenerate exactly when every period is
odd.  The matrix is kept as sparse integer rows at the kernel's scale
4**d, which `linalg.rank` reads as they are; the dense `Fraction` view is
built only when read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product as _iterproduct

from . import linalg
from ._kernel_py import kernel_for
from .cells import Cell, FactorKind, decode_cell, join_code, near_codes, split_code
from .chain import Chain, augment
from .lattice import LatticeSpec
from .product import product


def pairing(a: Chain, b: Chain) -> Fraction:
    """Frobenius pairing: augmentation of the product."""
    return augment(product(a, b))


def c_basis_codes(p: int, lattice: LatticeSpec) -> list[int]:
    """Codes of all non-ideal basis cells of dimension p, in a fixed order:
    the order of Cell.sort_key, on which determinant signs depend."""
    if not 0 <= p <= lattice.d:
        raise ValueError(f"degree must be in 0..{lattice.d}, got {p}")
    anchors = list(_iterproduct(*(range(n) for n in lattice.periods)))
    codes = []
    for sticks in combinations(range(lattice.d), p):
        kinds = [FactorKind.STICK if i in sticks else FactorKind.POINT for i in range(lattice.d)]
        codes += (join_code(zip(pos, kinds), lattice) for pos in anchors)
    return sorted(codes, key=lambda code: split_code(code, lattice))


def c_basis(p: int, lattice: LatticeSpec) -> list[Cell]:
    """All non-ideal basis cells of dimension p, in a fixed order."""
    return [decode_cell(code, lattice) for code in c_basis_codes(p, lattice)]


@dataclass(frozen=True)
class PairingMatrix:
    """The degree-p pairing matrix; rows and cols are the cell codes of
    the two bases, in `c_basis_codes` order, and `numerators` holds per
    row its nonzero entries as {column code: numerator at `scale`}."""

    degree: int
    rows: tuple[int, ...]
    cols: tuple[int, ...]
    numerators: tuple[dict[int, int], ...]
    scale: int

    @cached_property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """The dense view: one tuple of `Fraction`s per row, in `cols` order."""
        return tuple(
            tuple(Fraction(row.get(c, 0), self.scale) for c in self.cols) for row in self.numerators
        )

    @cached_property
    def rank(self) -> int:
        return linalg.rank(self.numerators)

    @cached_property
    def determinant(self) -> Fraction:
        return linalg.det(self.entries)

    @property
    def nondegenerate(self) -> bool:
        return self.rank == len(self.rows) == len(self.cols)


def pairing_matrix(p: int, lattice: LatticeSpec) -> PairingMatrix:
    """Matrix of the pairing on C_p x C_{d-p} over the non-ideal bases.

    Each row cell is multiplied by the cells that `near_codes` gives, those
    whose closed supports meet it; a pair whose supports miss is taken as
    zero."""
    rows = tuple(c_basis_codes(p, lattice))
    cols = tuple(c_basis_codes(lattice.d - p, lattice))
    kernel = kernel_for(lattice.periods)
    columns = set(cols)
    # complementary codimensions: every term of r*c is a point cell, so
    # augmenting the product sums all of its numerators
    numerators = tuple(
        {
            c: v
            for c in near_codes(r, lattice, (FactorKind.POINT, FactorKind.STICK))
            if c in columns and (v := sum(num for _, num in kernel.mult(r, c)))
        }
        for r in rows
    )
    return PairingMatrix(p, rows, cols, numerators, 4**lattice.d)


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
