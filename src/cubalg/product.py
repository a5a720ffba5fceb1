"""The d-dimensional transverse intersection product and crumbling.

The product of basis cells is the tensor of per-axis one-dimensional
products, weighted by the Koszul sign for the codimension grading with
the fixed axis order: sigma = (-1)**(number of pairs i>j where factor i
of the first cell and factor j of the second are both points).  Output
codimension is the sum of the input codimensions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as _iterproduct
from math import lcm

from ._kernel_py import kernel_for, linear, times
from .cells import FactorKind, join_code, split_code
from .cells import decode_cell, encode_cell  # noqa: F401  (traced sites, see perfbench/tracing.py)
from .chain import Chain
from .lattice import LatticeSpec


def _integer_terms(chain: Chain) -> tuple[list[tuple[int, int]], int]:
    """The chain's terms as (code, integer numerator) over one common
    denominator, the lcm of its coefficients' denominators."""
    den = lcm(*(v.denominator for v in chain._terms.values()))
    return [(c, v.numerator * (den // v.denominator)) for c, v in chain._terms.items()], den


def product(a: Chain, b: Chain) -> Chain:
    """Bilinear extension of the basis-cell product, accumulated in integers."""
    if a.lattice != b.lattice:
        raise ValueError(f"mismatched lattices: {a.lattice} vs {b.lattice}")
    lattice = a.lattice
    terms_a, den_a = _integer_terms(a)
    terms_b, den_b = _integer_terms(b)
    out = times(kernel_for(lattice.periods).mult, terms_a, terms_b)
    scale = 4**lattice.d * den_a * den_b
    return Chain._from_codes(lattice, {c: Fraction(v, scale) for c, v in out.items()})


def crumble_code(code: int, lattice: LatticeSpec, k: int) -> list[tuple[int, int]]:
    """The image of one basis cell as (code, 1) terms on lattice.refined(k),
    one per fine cell: per axis, points and infinitesimal sticks map to
    coordinate k*a, a unit stick to its k fine sticks."""
    choices = [
        [(coord * k + j, kind) for j in range(k if kind == FactorKind.STICK else 1)]
        for coord, kind in split_code(code, lattice)
    ]
    fine = lattice.refined(k)
    return [(join_code(parts, fine), 1) for parts in _iterproduct(*choices)]


def require_odd_factor(k: int) -> None:
    """Reject a crumbling factor that is even or not positive."""
    if k < 1 or k % 2 == 0:
        raise ValueError(f"crumbling factor k must be odd and positive, got {k}")


def crumble(chain: Chain, k: int) -> Chain:
    """Refinement chain map onto the k-fold finer lattice (k odd).

    All factor images have the codimension of their source, so no signs
    arise; the map commutes with both the boundary and the product.
    """
    require_odd_factor(k)
    out = linear(chain._terms.items(), lambda code: crumble_code(code, chain.lattice, k))
    return Chain._from_codes(chain.lattice.refined(k), out)
