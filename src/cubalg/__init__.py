"""cubalg: exact transverse-intersection algebra on periodic cubical lattices.

Chains over the enlarged complex (points, unit sticks, infinitesimal
sticks) with exact rational coefficients, the unique graded-commutative
associative intersection product, crumbling refinement maps, the
augmentation pairing, 2h star duality, and a harness that machine-checks
every algebraic law.
"""

from .cells import Cell, Factor, FactorKind, inf_stick, make_cell, point, stick
from .chain import Chain, augment, boundary
from .cuboid import (
    Cuboid,
    cuboid_to_chain,
    generalised_faces,
    geometric_intersection,
    in_general_position,
    is_transverse,
)
from .grammar import (
    ChainParseError,
    chain_from_json_dict,
    chain_to_json_dict,
    format_chain,
    parse_cell,
    parse_chain,
)
from .homology import betti, betti_full, betti_two_h_free, betti_two_h_span
from .lattice import LatticeSpec
from .pairing import PairingMatrix, c_basis, pairing, pairing_matrix, pairing_report
from .product import crumble, product
from .table1d import CoefficientTable, crumble1, mult1
from .truncation import generator_kinds, kind_closure, max_ideal_dimension
from .twoh import TwoHCell, expand, star, two_h_basis
from .verify import CheckReport, verify_axioms

__version__ = "0.1.0"


def backend_name() -> str:
    """The kernel that computes: always the pure-Python one.  Every
    benchmark run records it (perfbench/child.py)."""
    return "pure"


__all__ = [
    "backend_name",
    "Cell",
    "Factor",
    "FactorKind",
    "point",
    "stick",
    "inf_stick",
    "make_cell",
    "Chain",
    "augment",
    "boundary",
    "Cuboid",
    "cuboid_to_chain",
    "generalised_faces",
    "geometric_intersection",
    "in_general_position",
    "is_transverse",
    "ChainParseError",
    "chain_from_json_dict",
    "chain_to_json_dict",
    "format_chain",
    "parse_cell",
    "parse_chain",
    "betti",
    "betti_full",
    "betti_two_h_free",
    "betti_two_h_span",
    "LatticeSpec",
    "PairingMatrix",
    "c_basis",
    "pairing",
    "pairing_matrix",
    "pairing_report",
    "crumble",
    "product",
    "CoefficientTable",
    "crumble1",
    "mult1",
    "generator_kinds",
    "kind_closure",
    "max_ideal_dimension",
    "TwoHCell",
    "expand",
    "star",
    "two_h_basis",
    "CheckReport",
    "verify_axioms",
    "__version__",
]
