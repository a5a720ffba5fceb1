"""Basis cells of the enlarged cubical complex.

A cell is a tuple of one factor per axis.  A factor is a point, a unit
stick, or an infinitesimal stick sitting at a single lattice coordinate.
The grading used throughout is the codimension: a point factor has
codimension 1, stick and infinitesimal factors have codimension 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache
from itertools import product as _iterproduct
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .lattice import LatticeSpec


class FactorKind(IntEnum):
    POINT = 0
    STICK = 1
    INF_STICK = 2


KIND_CHARS = {FactorKind.POINT: "p", FactorKind.STICK: "s", FactorKind.INF_STICK: "i"}
CHAR_KINDS = {c: k for k, c in KIND_CHARS.items()}


@dataclass(frozen=True)
class Factor:
    """One axis of a basis cell: a point, unit stick, or infinitesimal stick."""

    kind: FactorKind
    coord: int

    def __post_init__(self):
        # a kind outside FactorKind raises ValueError here, not a wrong cell later
        object.__setattr__(self, "kind", FactorKind(self.kind))

    @property
    def degree(self) -> int:
        """Grading dimension: 0 for points, 1 for sticks and infinitesimals."""
        return 0 if self.kind is FactorKind.POINT else 1

    @property
    def codim(self) -> int:
        return 1 if self.kind is FactorKind.POINT else 0

    def support(self, period: int) -> tuple[int, ...]:
        """Closed support as lattice coordinates modulo the period."""
        coord = self.coord % period
        if self.kind is FactorKind.STICK:
            return (coord, (coord + 1) % period)
        return (coord,)

    def __str__(self) -> str:
        return f"{KIND_CHARS[self.kind]}@{self.coord}"


def point(coord: int) -> Factor:
    return Factor(FactorKind.POINT, coord)


def stick(coord: int) -> Factor:
    return Factor(FactorKind.STICK, coord)


def inf_stick(coord: int) -> Factor:
    return Factor(FactorKind.INF_STICK, coord)


@dataclass(frozen=True)
class Cell:
    """A basis cell: one factor per axis, coordinates already reduced."""

    factors: tuple[Factor, ...]

    @property
    def dimension(self) -> int:
        return sum(f.degree for f in self.factors)

    @property
    def codimension(self) -> int:
        return sum(f.codim for f in self.factors)

    @property
    def is_ideal(self) -> bool:
        """True when at least one factor is an infinitesimal stick."""
        return any(f.kind is FactorKind.INF_STICK for f in self.factors)

    @property
    def kinds(self) -> tuple[FactorKind, ...]:
        return tuple(f.kind for f in self.factors)

    def support(self, lattice: LatticeSpec) -> tuple[tuple[int, ...], ...]:
        """Per-axis closed supports."""
        return tuple(f.support(n) for f, n in zip(self.factors, lattice.periods))

    def sort_key(self):
        return tuple((f.coord, int(f.kind)) for f in self.factors)

    def __str__(self) -> str:
        return "[" + ",".join(str(f) for f in self.factors) + "]"


def make_cell(factors: Iterable[Factor], lattice: LatticeSpec) -> Cell:
    """Build a canonical cell: checks arity, reduces coordinates mod periods."""
    return decode_cell(encode_cell(Cell(tuple(factors)), lattice), lattice)


# ---------------------------------------------------------------------------
# Integer cell codes: the one representation of a cell inside the engine.
#
# Per axis, a factor is encoded as coord*3 + kind; a cell is the mixed-radix
# combination of its factor codes with radix 3*period, axis 0 least
# significant.  The kernel in _kernel_py.py reads the same layout.

_KINDS = tuple(FactorKind)
_POINT = int(FactorKind.POINT)


def split_code(code: int, lattice: LatticeSpec) -> list[tuple[int, int]]:
    """Per-axis (coord, kind) pairs of a cell code, axis 0 first.

    The pairs compare like Cell.sort_key, so they also sort codes in the
    order cells sort."""
    parts = []
    for n in lattice.periods:
        code, fc = divmod(code, 3 * n)
        parts.append(divmod(fc, 3))
    return parts


def join_code(parts: Iterable[tuple[int, int]], lattice: LatticeSpec) -> int:
    """Inverse of split_code; coordinates must already be reduced."""
    code = 0
    place = 1
    for (coord, kind), n in zip(parts, lattice.periods):
        code += (coord * 3 + kind) * place
        place *= 3 * n
    return code


def encode_cell(cell: Cell, lattice: LatticeSpec) -> int:
    """Canonical code of a cell: checks arity, reduces coordinates mod periods."""
    if len(cell.factors) != lattice.d:
        raise ValueError(f"expected {lattice.d} factors, got {len(cell.factors)}")
    return join_code(
        ((lattice.reduce(i, f.coord), int(f.kind)) for i, f in enumerate(cell.factors)),
        lattice,
    )


def decode_cell(code: int, lattice: LatticeSpec) -> Cell:
    return Cell(tuple(Factor(_KINDS[kind], coord) for coord, kind in split_code(code, lattice)))


def code_kinds(code: int, lattice: LatticeSpec) -> tuple[FactorKind, ...]:
    """Cell.kinds of a cell code."""
    return tuple(_KINDS[kind] for _, kind in split_code(code, lattice))


def code_codim(code: int, lattice: LatticeSpec) -> int:
    """Cell.codimension of a cell code: its number of point factors."""
    codim = 0
    for n in lattice.periods:
        code, fc = divmod(code, 3 * n)
        codim += fc % 3 == _POINT
    return codim


def code_is_ideal(code: int, lattice: LatticeSpec) -> bool:
    """Cell.is_ideal of a cell code: some factor is an infinitesimal stick."""
    return FactorKind.INF_STICK in code_kinds(code, lattice)


def require_window(lattice: LatticeSpec, window: int) -> None:
    """Reject a window outside 1..min(periods): an empty one checks nothing,
    and a wider one overflows the kernel's cell codes."""
    if not 1 <= window <= min(lattice.periods):
        raise ValueError(
            f"window must be between 1 and the smallest period {min(lattice.periods)}, "
            f"got {window}"
        )


def window_codes(lattice: LatticeSpec, window: int, kinds=None) -> list[int]:
    """Sorted codes of the cells anchored in {0..window-1}**d, optionally only
    those whose kind pattern is in `kinds`.  Raises ValueError for a window
    outside 1..min(periods) (`require_window`)."""
    require_window(lattice, window)
    patterns = _iterproduct(_KINDS, repeat=lattice.d) if kinds is None else kinds
    anchors = _iterproduct(range(window), repeat=lattice.d)
    offsets = [join_code(zip(pos, [0] * lattice.d), lattice) for pos in anchors]
    bases = [join_code(zip([0] * lattice.d, pattern), lattice) for pattern in patterns]
    return sorted(base + offset for base in bases for offset in offsets)  # codes are sums


def entry_bits(entry: int | tuple[int, int], n: int) -> int:
    """Closed support of an axis entry as a bit mask over Z/n: bit x is set
    when the lattice point x lies in it.

    An entry is a point p or an interval (a, b) with a < b <= a + n.  A
    factor code is the point of its coordinate, or for a stick the interval
    (c, c + 1).  This is the one statement of the closed-support rule:
    every test of whether two closed supports meet reads it, most of them
    through `axis_meets`."""
    if isinstance(entry, tuple):
        a, b = entry
        run = (1 << min(b - a + 1, n)) - 1
        r = a % n
        return ((run << r) | (run >> (n - r))) & ((1 << n) - 1)
    return 1 << (entry % n)


@lru_cache(maxsize=None)
def axis_meets(n: int) -> tuple[int, ...]:
    """Entry fa: the bitset of the factor codes fb, modulo n, whose closed
    supports meet that of fa."""
    supports = []
    for fc in range(3 * n):
        coord, kind = divmod(fc, 3)
        supports.append(entry_bits((coord, coord + 1) if kind == FactorKind.STICK else coord, n))
    return tuple(
        sum(1 << fb for fb, other in enumerate(supports) if support & other)
        for support in supports
    )


def axis_gather(codes: list[int], periods) -> Iterator[Callable[[Sequence[int]], list[int]]]:
    """Per axis of the lattice with these periods, in order, a function
    gather(rows) of a bitset row per factor code: for each position of
    `codes`, the positions whose factor code on the axis is a bit of the
    row of its own.  The positions are grouped by factor code once per
    axis and a row gathers whole groups, so no pair is tested on its own."""
    rest = list(codes)
    for n in periods:
        factors = []
        groups: dict[int, int] = {}
        for pos, code in enumerate(rest):
            rest[pos], fc = divmod(code, 3 * n)
            factors.append(fc)
            groups[fc] = groups.get(fc, 0) | 1 << pos

        def gather(rows, factors=factors, groups=groups) -> list[int]:
            # the groups are disjoint, so their sum is their OR
            near = {fa: sum(g for fb, g in groups.items() if rows[fa] >> fb & 1) for fa in groups}
            return [near[fc] for fc in factors]

        yield gather


def meet_masks(codes: list[int], lattice: LatticeSpec) -> list[int]:
    """Bit j of entry i is set when the closed supports of codes[i] and
    codes[j] meet, that is, when on every axis their factors share a
    lattice point: the AND over the axes of the `axis_meets` rows gathered
    by `axis_gather`."""
    masks = [(1 << len(codes)) - 1] * len(codes)
    for n, gather in zip(lattice.periods, axis_gather(codes, lattice.periods)):
        masks = [mask & near for mask, near in zip(masks, gather(axis_meets(n)))]
    return masks


def meeting_counts(lattice: LatticeSpec, window: int) -> tuple[int, int]:
    """(P, T) on the window: P = (M + N)/2 for its N cells and the M ordered
    pairs of them whose supports meet, each cell paired with itself once,
    and T the ordered triples whose supports meet pairwise.  The window
    holds every cell of factor codes below 3 * window and meeting is per
    axis, so M and T are products of one-axis counts."""
    size = 3 * window
    pairs = triples = 1
    for n in lattice.periods:
        rows = [axis_meets(n)[x] & (1 << size) - 1 for x in range(size)]
        pairs *= sum(row.bit_count() for row in rows)
        triples *= sum((row & rows[y]).bit_count() for row in rows for y in bit_positions(row))
    return (pairs + size**lattice.d) // 2, triples


def meeting_draws(rng, codes: list[int], lattice: LatticeSpec, count: int) -> list:
    """The first `count` pairs of two rng.choice(codes) whose closed supports
    meet, of at most 100 * count pairs, with choice's reads of rng inlined."""
    size, bits, getrandbits = len(codes), len(codes).bit_length(), rng.getrandbits
    ones, rows, rest = [0] * size, [0] * size, list(codes)  # per axis, fc's bit and meets row
    for n in lattice.periods:
        meets = axis_meets(n)
        for pos, code in enumerate(rest):
            rest[pos], fc = divmod(code, 3 * n)
            ones[pos], rows[pos] = ones[pos] << 3 * n | 1 << fc, rows[pos] << 3 * n | meets[fc]
    drawn = []
    for _ in range(100 * count):
        i = getrandbits(bits)
        while i >= size:
            i = getrandbits(bits)
        j = getrandbits(bits)
        while j >= size:
            j = getrandbits(bits)
        if rows[i] & ones[j] == ones[j]:
            drawn.append((codes[i], codes[j]))
            if len(drawn) == count:
                break
    return drawn


def bit_positions(mask: int) -> Iterator[int]:
    """The positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class PairTable(NamedTuple):
    """The pair table of a cell set, indexed by position in `codes`.  It
    holds only what the codes and the lattice give, no kernel fact, so a
    cached one serves any kernel."""

    codes: tuple[int, ...]
    masks: tuple[int, ...]  # bit j: the closed supports of codes[i] and codes[j] meet
    near: tuple[tuple[int, ...], ...]  # the positions of those bits, ascending


def pair_table(codes: list[int], lattice: LatticeSpec) -> PairTable:
    """The pair table of `codes`: their `meet_masks`, and per mask the
    tuple of its bit positions, one tuple per distinct mask."""
    masks = meet_masks(codes, lattice)
    near = lru_cache(maxsize=None)(lambda mask: tuple(bit_positions(mask)))
    return PairTable(tuple(codes), tuple(masks), tuple(map(near, masks)))


def near_codes(code: int, lattice: LatticeSpec, kinds=_KINDS) -> list[int]:
    """Codes of the cells whose factors all have a kind in `kinds` and whose
    closed supports meet that of `code`, each once."""
    near = [0]
    place = 1
    for n in lattice.periods:
        code, fa = divmod(code, 3 * n)
        meets = axis_meets(n)[fa]
        axis = [fb * place for fb in range(3 * n) if meets >> fb & 1 and fb % 3 in kinds]
        near = [c + f for c in near for f in axis]
        place *= 3 * n
    return near
