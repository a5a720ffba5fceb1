"""Exact sparse chains over the enlarged cubical complex.

Coefficients are arbitrary-precision rationals (fractions.Fraction); no
floating point is used anywhere.  Chains are immutable: every operation
returns a new chain, so all values are safe to share between threads.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping

from ._kernel_py import kernel_for, linear
from .cells import Cell, code_codim, decode_cell, encode_cell
from .lattice import LatticeSpec

Rational = Fraction | int


def _exact(coef: Rational) -> Fraction:
    if isinstance(coef, float):
        raise TypeError("coefficients must be exact rationals, not floats")
    return Fraction(coef)


class Chain:
    """Finite formal sum of basis cells with exact rational coefficients.

    `_terms` maps integer cell codes (see cells.py) to nonzero Fractions;
    engine modules read it directly and build chains with `_from_codes`.
    The constructor, `from_cell` and `coefficient` canonicalise `Cell`
    arguments through cells.encode_cell (wrong arity raises ValueError,
    coordinates are reduced, equal cells merge); `terms` and `cells()`
    give the `Cell`-keyed view.
    """

    __slots__ = ("lattice", "_terms")

    def __init__(self, lattice: LatticeSpec, terms: Mapping[Cell, Rational] | None = None):
        codes: dict[int, Fraction] = {}
        for cell, coef in (terms or {}).items():
            code = encode_cell(cell, lattice)
            codes[code] = codes.get(code, 0) + _exact(coef)
        self.lattice = lattice
        self._terms = {c: v for c, v in codes.items() if v}

    # -- constructors --------------------------------------------------------

    @classmethod
    def _from_codes(cls, lattice: LatticeSpec, terms: Mapping[int, Rational]) -> "Chain":
        """Chain from canonical cell codes (kernel output); zeros are dropped."""
        chain = cls.__new__(cls)
        chain.lattice = lattice
        chain._terms = {c: Fraction(v) for c, v in terms.items() if v}
        return chain

    @classmethod
    def zero(cls, lattice: LatticeSpec) -> "Chain":
        return cls(lattice)

    @classmethod
    def from_cell(cls, cell: Cell, lattice: LatticeSpec) -> "Chain":
        return cls(lattice, {cell: 1})

    # -- mapping access -------------------------------------------------------

    @property
    def terms(self) -> Mapping[Cell, Fraction]:
        lattice = self.lattice
        return MappingProxyType({decode_cell(c, lattice): v for c, v in self._terms.items()})

    def coefficient(self, cell: Cell) -> Fraction:
        return self._terms.get(encode_cell(cell, self.lattice), Fraction(0))

    def cells(self) -> Iterable[Cell]:
        return self.terms.keys()

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    # -- grading ---------------------------------------------------------------

    def codimension(self) -> int | None:
        """Common codimension of all cells, or None if mixed or zero."""
        codims = {code_codim(c, self.lattice) for c in self._terms}
        return codims.pop() if len(codims) == 1 else None

    def dimension(self) -> int | None:
        codim = self.codimension()
        return None if codim is None else self.lattice.d - codim

    # -- arithmetic -------------------------------------------------------------

    def _check_same_lattice(self, other: "Chain"):
        if self.lattice != other.lattice:
            raise ValueError(
                f"mismatched lattices: {self.lattice} vs {other.lattice}"
            )

    def __add__(self, other: "Chain") -> "Chain":
        self._check_same_lattice(other)
        out = dict(self._terms)
        for code, coef in other._terms.items():
            out[code] = out.get(code, 0) + coef
        return Chain._from_codes(self.lattice, out)

    def __sub__(self, other: "Chain") -> "Chain":
        return self + -other

    def __neg__(self) -> "Chain":
        return Chain._from_codes(self.lattice, {c: -v for c, v in self._terms.items()})

    def __mul__(self, scalar: Rational) -> "Chain":
        s = _exact(scalar)
        return Chain._from_codes(self.lattice, {c: v * s for c, v in self._terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Chain):
            return NotImplemented
        return self.lattice == other.lattice and self._terms == other._terms

    def __hash__(self):
        raise TypeError("chains are not hashable")

    def __repr__(self) -> str:
        from .grammar import format_chain

        return f"Chain({self.lattice}, {format_chain(self)!r})"


def boundary(chain: Chain) -> Chain:
    """Boundary operator: stick factors split into endpoint differences.

    On a basis cell each stick axis i contributes with sign
    (-1)**(number of point factors before axis i); points and
    infinitesimal sticks have zero boundary.  Output codimension is the
    input codimension plus one.
    """
    out = linear(chain._terms.items(), kernel_for(chain.lattice.periods).boundary)
    return Chain._from_codes(chain.lattice, out)


def augment(chain: Chain) -> Fraction:
    """Sum of coefficients over cells whose factors are all points."""
    d = chain.lattice.d
    return sum(
        (v for c, v in chain._terms.items() if code_codim(c, chain.lattice) == d), Fraction(0)
    )
