"""Truncation subalgebras generated by low-dimensional non-ideal cells.

For dimension n and truncation level m, the generators are all non-ideal
basis cells of dimension <= m.  Closing them under the product yields
ideal elements only in dimensions <= 2m-n, and the boundary product rule
survives on the generated subalgebra exactly when 3m <= 2n, making
m = floor(2n/3) the maximal safe truncation.

Membership is tracked by the per-axis kind pattern of a cell: the product
of basis cells factors axis by axis, and lattice translations act freely,
so the kind tuple is a complete translation-invariant classification.
"""

from __future__ import annotations

from itertools import product as _iterproduct

from .cells import FactorKind
from .table1d import CoefficientTable, mult1_terms

P, S, I = FactorKind.POINT, FactorKind.STICK, FactorKind.INF_STICK

# Per-axis output kinds of the one-dimensional product, for every ordered
# pair of factor kinds; empty for the always-zero point*point case.
_AXIS_OUTPUTS: dict[tuple[FactorKind, FactorKind], frozenset[FactorKind]] = {
    (ka, kb): frozenset(
        kind
        for a in range(3)
        for b in range(3)
        for kind, _, coef in mult1_terms(ka, a, kb, b, 3, CoefficientTable.standard())
        if coef
    )
    for ka in FactorKind
    for kb in FactorKind
}


KindTuple = tuple[FactorKind, ...]


def generator_kinds(n: int, m: int) -> frozenset[KindTuple]:
    """Kind patterns of the non-ideal generators of dimension <= m."""
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    return frozenset(t for t in _iterproduct((P, S), repeat=n) if t.count(S) <= m)


def kind_closure(n: int, m: int) -> frozenset[KindTuple]:
    """Kind patterns spanned by the subalgebra generated by C_{<=m}.

    Computed by closing the generator patterns under the per-axis output
    table until a fixed point; equivalent to closing actual window cells
    under the product and extending by translation invariance.  Both are
    symmetric under permuting the axes, so only sorted patterns are closed,
    with a sorted first factor, and a pattern is a member when sorted.
    """
    patterns = {t: tuple(sorted(t)) for t in _iterproduct(FactorKind, repeat=n)}
    classes, found = set(), {patterns[t] for t in generator_kinds(n, m)}
    while not found <= classes:
        classes |= found
        members = [t for t, key in patterns.items() if key in classes]
        # a point*point axis has no outputs and kills the product
        found = {
            tuple(sorted(combo))
            for ta in classes
            for tb in members
            for combo in _iterproduct(*map(_AXIS_OUTPUTS.get, zip(ta, tb)))
        }
    return frozenset(members)


def max_ideal_dimension(kinds: frozenset[KindTuple]) -> int | None:
    """Largest dimension among ideal kind patterns, or None if none are ideal."""
    return max((sum(k is not P for k in t) for t in kinds if I in t), default=None)
