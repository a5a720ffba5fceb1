"""Cuboids: axis-aligned products of lattice intervals and points.

These are the geometric inputs for the general-position test and the
independent intersection oracle.  An axis entry is either an integer
coordinate (a point) or a pair (a, b) with a < b <= a + period (an
interval of b - a lattice units; the closure embeds in the circle).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _iterproduct

from .cells import FactorKind, entry_bits, join_code
from .chain import Chain
from .lattice import LatticeSpec

AxisEntry = int | tuple[int, int]


@dataclass(frozen=True)
class Cuboid:
    axes: tuple[AxisEntry, ...]

    @property
    def dimension(self) -> int:
        return sum(1 for e in self.axes if isinstance(e, tuple))

    def __str__(self) -> str:
        parts = [f"[{e[0]},{e[1]}]" if isinstance(e, tuple) else str(e) for e in self.axes]
        return "{" + ",".join(parts) + "}"


def _check(q: Cuboid, lattice: LatticeSpec):
    if len(q.axes) != lattice.d:
        raise ValueError(f"cuboid has {len(q.axes)} axes, lattice has {lattice.d}")
    for entry, n in zip(q.axes, lattice.periods):
        if isinstance(entry, tuple):
            a, b = entry
            if b <= a:
                raise ValueError(f"interval {entry} must have positive length")
            if b - a > n:
                raise ValueError(f"interval {entry} is longer than the period {n}")


def _supports_meet(q1: Cuboid, q2: Cuboid, lattice: LatticeSpec) -> bool:
    return all(
        entry_bits(e1, n) & entry_bits(e2, n)
        for e1, e2, n in zip(q1.axes, q2.axes, lattice.periods)
    )


def _directions_span(q1: Cuboid, q2: Cuboid) -> bool:
    return all(isinstance(e1, tuple) or isinstance(e2, tuple) for e1, e2 in zip(q1.axes, q2.axes))


def is_transverse(q1: Cuboid, q2: Cuboid, lattice: LatticeSpec) -> bool:
    """Closed supports meet and the tangent directions span every axis."""
    _check(q1, lattice)
    _check(q2, lattice)
    return _supports_meet(q1, q2, lattice) and _directions_span(q1, q2)


def generalised_faces(q: Cuboid) -> list[Cuboid]:
    """All cuboids obtained by replacing one or more intervals by an endpoint."""
    options: list[list[AxisEntry]] = []
    for entry in q.axes:
        if isinstance(entry, tuple):
            options.append([entry, entry[0], entry[1]])
        else:
            options.append([entry])
    faces = []
    for combo in _iterproduct(*options):
        cand = Cuboid(tuple(combo))
        if cand != q:
            faces.append(cand)
    return faces


def _axis_bits(entry: AxisEntry, n: int) -> tuple[int, int]:
    """Closed support and endpoint set of an axis entry, as bit masks over Z/n."""
    if isinstance(entry, tuple):
        return entry_bits(entry, n), entry_bits(entry[0], n) | entry_bits(entry[1], n)
    bit = entry_bits(entry, n)
    return bit, bit


def _arc_start_bits(meet: int, n: int) -> int:
    """The points of a bit mask over Z/n whose predecessor is not in it: one
    per arc, and none when the mask is the whole circle."""
    return meet & ~(meet << 1 | meet >> (n - 1))


def in_general_position(q1: Cuboid, q2: Cuboid, lattice: LatticeSpec) -> bool:
    """Transverse, the intersection is a cuboid, and every pair of
    generalised faces is disjoint or transverse; decided axis by axis.

    On each axis the closed supports must meet in one arc short of the
    whole circle (so the intersection is a cuboid entry), and the endpoint
    sets, {a % n, b % n} of an interval and {p % n} of a point, must be
    disjoint.  The second condition also rules out two points on one axis,
    so at least one entry is an interval and the pair is transverse.

    This equals the test over all face pairs: the generalised faces of a
    cuboid are the product of per-axis options (the entry, or an endpoint
    of an interval), and a face pair fails exactly when its supports meet
    on every axis while some axis holds two points.  Since the full
    entries already meet on every axis, such a pair exists exactly when
    some axis has a point option of q1 equal to a point option of q2.
    """
    _check(q1, lattice)
    _check(q2, lattice)
    return all(
        axis_in_general_position(e1, e2, n)
        for e1, e2, n in zip(q1.axes, q2.axes, lattice.periods)
    )


def axis_in_general_position(e1: AxisEntry, e2: AxisEntry, n: int) -> bool:
    """The per-axis rule of in_general_position for two valid entries on an
    n-circle: the closed supports meet in one arc short of the whole circle
    and the endpoint sets are disjoint."""
    support1, ends1 = _axis_bits(e1, n)
    support2, ends2 = _axis_bits(e2, n)
    starts = _arc_start_bits(support1 & support2, n)
    return not (ends1 & ends2 or not starts or starts & (starts - 1))


def cuboid_to_chain(q: Cuboid, lattice: LatticeSpec) -> Chain:
    """Decompose into unit basis cells, all with matching orientation."""
    _check(q, lattice)
    options = []
    for entry, n in zip(q.axes, lattice.periods):
        if isinstance(entry, tuple):
            a, b = entry
            options.append([((a + j) % n, FactorKind.STICK) for j in range(b - a)])
        else:
            options.append([(entry % n, FactorKind.POINT)])
    # distinct choices give distinct cells, each with coefficient 1
    return Chain._from_codes(
        lattice, {join_code(parts, lattice): 1 for parts in _iterproduct(*options)}
    )


def _axis_intersection(e1: AxisEntry, e2: AxisEntry, n: int) -> AxisEntry | None:
    """Set intersection of two axis entries, reassembled as a single entry.

    Returns None when empty.  Raises if the intersection is the whole
    circle or disconnected (possible only for torus-wrapping arcs, which
    in_general_position rules out).
    """
    meet = entry_bits(e1, n) & entry_bits(e2, n)
    if not meet:
        return None
    starts = _arc_start_bits(meet, n)
    if not starts:
        raise ValueError("intersection covers a whole axis; not a cuboid entry")
    if starts & (starts - 1):
        raise ValueError("axis intersection is disconnected")
    start = starts.bit_length() - 1
    size = meet.bit_count()
    return start if size == 1 else (start, start + size - 1)


def geometric_intersection(q1: Cuboid, q2: Cuboid, lattice: LatticeSpec) -> Chain:
    """Signed geometric intersection of closed cuboids in general position.

    Independent of the algebraic product: intersects supports axis by
    axis and decomposes the result, with the Koszul sign read off the
    point patterns of the two cuboids.
    """
    if not in_general_position(q1, q2, lattice):
        raise ValueError("cuboids are not in general position")
    entries: list[AxisEntry] = []
    for e1, e2, n in zip(q1.axes, q2.axes, lattice.periods):
        e = _axis_intersection(e1, e2, n)
        if e is None:
            return Chain.zero(lattice)
        entries.append(e)
    sign = 1
    pts2 = 0
    for e1, e2 in zip(q1.axes, q2.axes):
        if not isinstance(e1, tuple):
            sign = -sign if pts2 % 2 else sign
        if not isinstance(e2, tuple):
            pts2 += 1
    return sign * cuboid_to_chain(Cuboid(tuple(entries)), lattice)
