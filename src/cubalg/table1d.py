"""The one-dimensional transverse intersection product.

This is the generator for every higher dimension: the n-dimensional
product is the tensor power of this table.  The seven product constants
are hard-coded at their unique values (with the infinitesimal stick
scaled so that alpha = 1) and re-verified against the defining
associativity equations by `CoefficientTable.equations`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cells import Cell, Factor, FactorKind
from .chain import Chain
from .lattice import LatticeSpec

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


def mult1(
    f: Factor,
    g: Factor,
    lattice: LatticeSpec,
    table: CoefficientTable | None = None,
) -> Chain:
    """Product of two one-dimensional basis factors, straight from the table.

    This is the readable reference implementation; the kernels carry the
    same table in scaled-integer form and are tested against it.
    """
    if lattice.d != 1:
        raise ValueError("mult1 works on one-dimensional lattices")
    tab = table or CoefficientTable.standard()
    n = lattice.periods[0]
    a, b = f.coord % n, g.coord % n
    ka, kb = f.kind, g.kind
    if ka > kb:  # the table is symmetric
        ka, kb, a, b = kb, ka, b, a

    def chain(*terms: tuple[Factor, Fraction]) -> Chain:
        # the factors are distinct; Chain reduces their coordinates
        return Chain(lattice, {Cell((factor,)): coef for factor, coef in terms})

    P, S, I = FactorKind.POINT, FactorKind.STICK, FactorKind.INF_STICK
    if ka is P and kb is P:
        return Chain.zero(lattice)
    if ka is P and kb is S:
        if a == b or a == (b + 1) % n:
            return chain((Factor(P, a), tab.s))
        return Chain.zero(lattice)
    if ka is P and kb is I:
        if a == b:
            return chain((Factor(P, a), tab.t))
        return Chain.zero(lattice)
    if ka is S and kb is S:
        if a == b:
            return chain(
                (Factor(I, a), tab.beta),
                (Factor(S, a), tab.gamma),
                (Factor(I, (a + 1) % n), tab.beta),
            )
        if (a + 1) % n == b:
            return chain((Factor(I, b), tab.alpha))
        if (b + 1) % n == a:
            return chain((Factor(I, a), tab.alpha))
        return Chain.zero(lattice)
    if ka is S and kb is I:
        if b == a or b == (a + 1) % n:
            return chain((Factor(I, b), tab.delta))
        return Chain.zero(lattice)
    # both infinitesimal
    if a == b:
        return chain((Factor(I, a), tab.epsilon))
    return Chain.zero(lattice)


def crumble1(f: Factor, k: int, lattice: LatticeSpec) -> Chain:
    """Refine one factor onto the k-fold finer lattice (k odd).

    Points and infinitesimal sticks map to their image coordinate; a unit
    stick becomes the sum of the k fine sticks covering it.
    """
    if k < 1 or k % 2 == 0:
        raise ValueError(f"refinement factor must be odd, got {k}")
    if lattice.d != 1:
        raise ValueError("crumble1 works on one-dimensional lattices")
    fine = lattice.refined(k)
    base = (f.coord % lattice.periods[0]) * k
    if f.kind is FactorKind.STICK:
        return Chain(fine, {Cell((Factor(FactorKind.STICK, base + j),)): 1 for j in range(k)})
    return Chain(fine, {Cell((Factor(f.kind, base),)): 1})
