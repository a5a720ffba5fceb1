"""The one-dimensional transverse intersection product.

This is the generator for every higher dimension: the n-dimensional
product is the tensor power of this table.  `mult1_terms` states the
product rule once.  The seven product constants are hard-coded at their
unique values (with the infinitesimal stick scaled so that alpha = 1)
and re-verified against the defining equations by
`CoefficientTable.associativity_equations` and
`CoefficientTable.normalization_equations`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .cells import Cell, Factor, FactorKind
from .lattice import LatticeSpec

if TYPE_CHECKING:  # chain imports the kernel, which imports this module
    from .chain import Chain

P, S, I = FactorKind.POINT, FactorKind.STICK, FactorKind.INF_STICK
_HALF = Fraction(1, 2)
_QUARTER = Fraction(1, 4)


@dataclass(frozen=True)
class CoefficientTable:
    """The seven named product constants.

    s:      point * adjacent stick        -> s * point
    t:      point * infinitesimal         -> t * point
    alpha:  glancing stick * stick        -> alpha * infinitesimal
    beta, gamma: stick * itself           -> beta*inf + gamma*stick + beta*inf
    delta:  infinitesimal * stick         -> delta * infinitesimal
    epsilon: infinitesimal * infinitesimal -> epsilon * infinitesimal
    """

    s: Fraction
    t: Fraction
    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    delta: Fraction
    epsilon: Fraction

    @classmethod
    def standard(cls) -> "CoefficientTable":
        return cls(
            s=_HALF,
            t=_QUARTER,
            alpha=Fraction(1),
            beta=Fraction(-1),
            gamma=Fraction(1),
            delta=_HALF,
            epsilon=_QUARTER,
        )

    def associativity_equations(self) -> list[tuple[str, Fraction, Fraction]]:
        """The eight equations forced by associativity of basis triples."""
        s, t = self.s, self.t
        a, b, g, d, e = self.alpha, self.beta, self.gamma, self.delta, self.epsilon
        return [
            ("beta*t + gamma*s = s^2", b * t + g * s, s * s),
            ("alpha*t = s^2", a * t, s * s),
            ("delta*t = s*t", d * t, s * t),
            ("epsilon*t = t^2", e * t, t * t),
            ("beta*delta + gamma*alpha = alpha*delta", b * d + g * a, a * d),
            ("beta*epsilon + gamma*delta = delta^2", b * e + g * d, d * d),
            ("alpha*epsilon = delta^2", a * e, d * d),
            ("delta*epsilon = epsilon*delta", d * e, e * d),
        ]

    def normalization_equations(self) -> list[tuple[str, Fraction, Fraction]]:
        """Constraints from general position and the boundary product rule."""
        return [
            ("s = 1/2", self.s, _HALF),
            ("gamma = 2s", self.gamma, 2 * self.s),
            ("alpha + beta = 0", self.alpha + self.beta, Fraction(0)),
        ]

    def all_equations_hold(self) -> bool:
        eqs = self.associativity_equations() + self.normalization_equations()
        return all(lhs == rhs for _, lhs, rhs in eqs)


def mult1_terms(ka: int, a: int, kb: int, b: int, n: int, table: CoefficientTable):
    """The one-dimensional product rule, the only statement of the table.

    Returns the terms (kind, coord, coefficient) of the product of the
    factors (ka, a) and (kb, b), coordinates reduced modulo the period n,
    with the coefficients read from `table`; () when the product is zero:

      p@a * s@a     = s p@a            p@a * s@{a-1} = s p@a
      p@a * i@a     = t p@a
      s@{a-1} * s@a = alpha i@a        (glancing endpoint contact)
      s@a * s@a     = beta i@a + gamma s@a + beta i@{a+1}
      i@a * s@a     = delta i@a        i@a * s@{a-1} = delta i@a
      i@a * i@a     = epsilon i@a

    symmetric in the two factors; points never multiply points.  The
    kernel, `mult1` and the truncation kind table are all built from it.
    """
    if ka > kb:
        ka, a, kb, b = kb, b, ka, a
    if ka == P:
        if kb == S and (a == b or a == (b + 1) % n):
            return ((P, a, table.s),)
        if kb == I and a == b:
            return ((P, a, table.t),)
        return ()
    if ka == S and kb == S:
        if a == b:
            return ((I, a, table.beta), (S, a, table.gamma), (I, (a + 1) % n, table.beta))
        if (a + 1) % n == b:
            return ((I, b, table.alpha),)
        if (b + 1) % n == a:
            return ((I, a, table.alpha),)
        return ()
    if ka == S:  # kb is an infinitesimal, nonzero on either end of the stick
        return ((I, b, table.delta),) if b == a or b == (a + 1) % n else ()
    return ((I, a, table.epsilon),) if a == b else ()


def mult1(f: Factor, g: Factor, lattice: LatticeSpec) -> Chain:
    """Product of two one-dimensional basis factors: `mult1_terms` as a chain."""
    from .chain import Chain

    if lattice.d != 1:
        raise ValueError("mult1 works on one-dimensional lattices")
    n = lattice.periods[0]
    terms = mult1_terms(f.kind, f.coord % n, g.kind, g.coord % n, n, CoefficientTable.standard())
    return Chain(lattice, {Cell((Factor(kind, coord),)): coef for kind, coord, coef in terms})


def crumble1(f: Factor, k: int, lattice: LatticeSpec) -> Chain:
    """Refine one factor onto the k-fold finer lattice (k odd): `crumble`
    of the chain of that one factor."""
    from .chain import Chain
    from .product import crumble

    return crumble(Chain.from_cell(Cell((f,)), lattice), k)
