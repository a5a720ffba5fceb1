"""Rational Betti numbers of the h-complex and the 2h subcomplex.

Ranks are computed over exact rationals; no torsion is attempted.  The
2h subcomplex is taken literally as the span of the expanded 2h cells
inside the h-chain spaces ("span" variant).  For even periods those
expansions become linearly dependent, so the span can differ from the
free module on 2h cells; the "free" variant computes the latter as a
diagnostic.
"""

from __future__ import annotations

from . import linalg
from ._kernel_py import kernel_for, linear
from .chain import boundary  # noqa: F401  (a traced site, see perfbench/tracing.py)
from .lattice import LatticeSpec
from .pairing import c_basis_codes
from .twoh import abstract_boundary, expand, two_h_basis


def _boundary_columns(columns: list[dict[int, int]], lattice: LatticeSpec) -> list[dict[int, int]]:
    """Apply the h-complex boundary to chains given as {cell code: coefficient}."""
    kernel = kernel_for(lattice.periods)
    return [linear(column.items(), kernel.boundary) for column in columns]


def _boundary_matrix(p: int, lattice: LatticeSpec) -> list[dict[int, int]]:
    """The h-complex boundary C_p -> C_{p-1}, one sparse column per domain
    cell, keyed by codomain cell code."""
    return _boundary_columns([{code: 1} for code in c_basis_codes(p, lattice)], lattice)


def betti_full(lattice: LatticeSpec) -> tuple[int, ...]:
    """Betti numbers of the full h-complex (the d-torus)."""
    d = lattice.d
    dims = [len(c_basis_codes(p, lattice)) for p in range(d + 1)]
    ranks = [0] * (d + 2)
    for p in range(1, d + 1):
        # rank of the transpose: the columns are passed as rows
        ranks[p] = linalg.rank(_boundary_matrix(p, lattice))
    return tuple(dims[p] - ranks[p] - ranks[p + 1] for p in range(d + 1))


def _expansion_matrix(p: int, lattice: LatticeSpec) -> list[dict[int, int]]:
    """Expanded 2h p-cells, one sparse column per cell keyed by h-cell code."""
    return [
        {code: int(coef) for code, coef in expand(cell, lattice)._terms.items()}
        for cell in two_h_basis(p, lattice)
    ]


def betti_two_h_span(lattice: LatticeSpec) -> tuple[int, ...]:
    """Betti numbers of the span of expanded 2h cells inside the h-complex.

    b_p = dim(span_p) - rank(boundary on span_p) - rank(boundary on span_{p+1});
    the boundary of a 2h cell is again a sum of 2h cells, so this is a
    genuine subcomplex.
    """
    if lattice.d != 3:
        raise ValueError("the 2h subcomplex is defined for three dimensions")
    span_dim = []
    bdry_rank = [0] * 5
    for p in range(4):
        m = _expansion_matrix(p, lattice)
        span_dim.append(linalg.rank(m))
        if p >= 1:
            bdry_rank[p] = linalg.rank(_boundary_columns(m, lattice))
    return tuple(span_dim[p] - bdry_rank[p] - bdry_rank[p + 1] for p in range(4))


def betti_two_h_free(lattice: LatticeSpec) -> tuple[int, ...]:
    """Betti numbers of the free module on 2h cells with the facet boundary.

    Diagnostic variant: for odd periods it agrees with the span variant;
    for even periods the two can differ because expansions of distinct 2h
    cells become linearly dependent in the h-complex.
    """
    if lattice.d != 3:
        raise ValueError("the 2h subcomplex is defined for three dimensions")
    dims = []
    ranks = [0] * 5
    for p in range(4):
        basis = two_h_basis(p, lattice)
        dims.append(len(basis))
        if p >= 1:
            columns = [
                linear(abstract_boundary(cell, lattice), lambda face: ((face, 1),))
                for cell in basis
            ]
            ranks[p] = linalg.rank(columns)
    return tuple(dims[p] - ranks[p] - ranks[p + 1] for p in range(4))


def betti(complex_kind: str, lattice: LatticeSpec) -> tuple[int, ...]:
    """Betti numbers for 'h' (full complex) or '2h' (span subcomplex)."""
    if complex_kind == "h":
        return betti_full(lattice)
    if complex_kind == "2h":
        return betti_two_h_span(lattice)
    raise ValueError(f"unknown complex kind {complex_kind!r} (expected 'h' or '2h')")
