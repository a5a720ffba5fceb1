"""Pure-Python computational kernel.

Operates on integer-encoded basis cells (see cells.encode_cell).  Product
coefficients are returned as integer numerators at the fixed scale 4**d:
a returned pair (code, num) stands for the term (num / 4**d) * cell.
Boundary coefficients are plain signs.  `kernel_for` hands out one
kernel per lattice, so every caller shares its memos.
"""

from __future__ import annotations

from dataclasses import astuple
from functools import lru_cache, partial
from itertools import product as _iterproduct
from typing import Iterator

from .cells import axis_meets, meet_masks
from .lattice import LatticeSpec
from .table1d import CoefficientTable, mult1_terms

POINT, STICK, INF = 0, 1, 2


# the standard constants at the kernel's scale 4, as integers
_SCALED = CoefficientTable(*(int(4 * c) for c in astuple(CoefficientTable.standard())))


def _axis_table(n: int) -> list[tuple[tuple[int, int], ...] | None]:
    """Scaled 1-D multiplication table over factor codes modulo n.

    Entry fa*(3n)+fb holds the terms of `table1d.mult1_terms` for the
    factor codes fa and fb as (factor_code, numerator-at-scale-4) pairs,
    or None when the product is zero.
    """
    size = 3 * n
    table: list[tuple[tuple[int, int], ...] | None] = [None] * (size * size)
    for fa in range(size):
        for fb in range(size):
            terms = mult1_terms(fa % 3, fa // 3, fb % 3, fb // 3, n, _SCALED)
            if terms:
                table[fa * size + fb] = tuple((c * 3 + k, w) for k, c, w in terms)
    return table


def koszul_sign_of_points(pa: int, pb: int) -> int:
    """Koszul sign of the product of two cells whose point axes are the bits
    of pa and pb: (-1) for every pair i > j with factor i of the first cell
    and factor j of the second both points (codimension-1 factors moving
    past each other)."""
    inversions = sum(
        (pb & ((1 << i) - 1)).bit_count() for i in range(pa.bit_length()) if pa >> i & 1
    )
    return -1 if inversions & 1 else 1


def bit_positions(mask: int) -> Iterator[int]:
    """The positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _submasks(mask: int) -> Iterator[int]:
    """Every submask of mask, from mask itself down to 0."""
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask
    yield 0


def _axis_boundary(fc: int, n: int) -> tuple[tuple[int, int], ...]:
    """The 1-d boundary of factor code fc modulo n as (factor code, sign)
    pairs: a stick's upper end point minus its lower one; zero for points
    and infinitesimal sticks."""
    coord, kind = divmod(fc, 3)
    if kind != STICK:
        return ()
    return (((coord + 1) % n * 3 + POINT, 1), (coord * 3 + POINT, -1))


def linear(terms, image) -> dict:
    """Linear extension of a basis map over a sparse chain: the sum of
    v * image(c) over the (c, v) terms, with image(c) giving (code, coef)
    pairs; returns {code: coef} without zero coefficients."""
    out: dict = {}
    for c, v in terms:
        for u, w in image(c):
            out[u] = out.get(u, 0) + v * w
    return {u: w for u, w in out.items() if w}


def product_rule_residual(mult, boundary, a: int, b: int, sign_a: int) -> dict:
    """The product-rule residual (boundary(a)*b + sign_a * a*boundary(b)) -
    boundary(a*b) of two basis elements, through the basis maps `mult` and
    `boundary`; sign_a is (-1)**codim(a)."""
    parts = [(boundary(c), -v) for c, v in mult(a, b)]
    parts += [(mult(u, b), s) for u, s in boundary(a)]
    parts += [(mult(a, u), sign_a * s) for u, s in boundary(b)]
    return linear(parts, lambda terms: terms)


def assoc_sides(mult, a: int, b: int, c: int) -> tuple[dict, dict]:
    """(a*b)*c and a*(b*c) for the basis product `mult`."""
    return linear(mult(a, b), lambda u: mult(u, c)), linear(mult(b, c), lambda u: mult(a, u))


def times(mult, x, y) -> dict:
    """Bilinear extension of the basis product `mult` to the chains given
    as (code, coef) terms x and y: one `mult` call per pair of terms.  y is
    iterated once per term of x, so it must not be an iterator."""
    return linear((((a, b), v * w) for a, v in x for b, w in y), lambda ab: mult(*ab))


class PyKernel:
    """Basis-cell product, boundary and the associativity scan, in Python.

    `tensor()` is the one fact under which a law is decided per axis from
    the 1-d tables: `associative` and `residual_rows` read it, and so does
    the harness before it leaves out the pairs whose supports miss."""

    def __init__(self, periods: tuple[int, ...]):
        self.periods = tuple(periods)
        self.d = len(periods)
        self.radices = tuple(3 * n for n in periods)
        self.places = []
        p = 1
        for r in self.radices:
            self.places.append(p)
            p *= r
        self.code_bound = p
        self._tables = [_axis_table(n) for n in periods]
        self._meets = [axis_meets(n) for n in periods]
        # bit fb of _rows[i][fa]: axis i's table gives fa*fb a term.  Read
        # from the tables and not from `axis_meets`, so that a table with a
        # product on a non-meeting pair still shows it to E.
        self._rows = [
            [sum(1 << fb for fb in range(r) if table[fa * r + fb] is not None) for fa in range(r)]
            for table, r in zip(self._tables, self.radices)
        ]
        self._mask_cache: dict[int, tuple[int, int]] = {}
        self._mult_cache: dict[int, tuple[tuple[int, int], ...]] = {}
        # one shared object per distinct product value; far fewer than keys
        self._values: dict[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]] = {}
        self._boundary_cache: dict[int, tuple[tuple[int, int], ...]] = {}
        self._factor_cache: dict[int, tuple[tuple[int, ...], int]] = {}
        # at (pa << d) | pb for the point-axis masks pa, pb of the two factors
        masks = range(1 << self.d)
        self._signs = [koszul_sign_of_points(pa, pb) for pa in masks for pb in masks]

    # -- helpers -----------------------------------------------------------

    def factors(self, code: int) -> tuple[tuple[int, ...], int]:
        """Per-axis factor codes of a cell and the mask of its point axes, memoized."""
        cached = self._factor_cache.get(code)
        if cached is None:
            out = []
            points = 0
            rest = code
            for i, r in enumerate(self.radices):
                rest, fc = divmod(rest, r)
                out.append(fc)
                if fc % 3 == POINT:
                    points |= 1 << i
            cached = self._factor_cache[code] = (tuple(out), points)
        return cached

    def _masks(self, code: int) -> tuple[int, int]:
        """A cell's row mask and one-hot mask, memoized.  Each axis owns a
        field of 3n bits, in axis order: the row mask holds there the row of
        the cell's factor code fc, the one-hot mask the single bit fc."""
        cached = self._mask_cache.get(code)
        if cached is None:
            row = one = shift = 0
            for fc, rows, r in zip(self.factors(code)[0], self._rows, self.radices):
                row |= rows[fc] << shift
                one |= 1 << (fc + shift)
                shift += r
            cached = self._mask_cache[code] = (row, one)
        return cached

    def supports_intersect(self, a: int, b: int) -> bool:
        """Closed supports meet on every axis (`cells.axis_meets`)."""
        for meets, r in zip(self._meets, self.radices):
            a, fa = divmod(a, r)
            b, fb = divmod(b, r)
            if not meets[fa] >> fb & 1:
                return False
        return True

    def transverse(self, a: int, b: int) -> bool:
        """Supports intersect and the two direction sets span every axis:
        no axis is a point axis of both cells."""
        return self.supports_intersect(a, b) and not (self.factors(a)[1] & self.factors(b)[1])

    # -- products ----------------------------------------------------------

    def mult(self, a: int, b: int) -> tuple[tuple[int, int], ...]:
        """Product of two basis cells; numerators at scale 4**d.

        Only nonzero products are memoized.  a*b is zero exactly when some
        axis's table entry is None, that is, when the AND of a's row mask
        and b's one-hot mask has fewer than d bits."""
        key = a * self.code_bound + b
        cached = self._mult_cache.get(key)
        if cached is not None:
            return cached
        masks = self._mask_cache  # read inline: every zero product comes here
        row = (masks.get(a) or self._masks(a))[0]
        if (row & (masks.get(b) or self._masks(b))[1]).bit_count() < self.d:
            return ()
        fa, pa = self.factors(a)
        fb, pb = self.factors(b)
        sign = self._signs[(pa << self.d) | pb]
        per_axis = [
            table[x * r + y] for table, r, x, y in zip(self._tables, self.radices, fa, fb)
        ]
        out: dict[int, int] = {}
        places = self.places
        for combo in _iterproduct(*per_axis):
            code = 0
            num = sign
            for i, (fc, w) in enumerate(combo):
                code += fc * places[i]
                num *= w
            out[code] = out.get(code, 0) + num
        result = tuple((c, v) for c, v in out.items() if v)
        result = self._mult_cache[key] = self._values.setdefault(result, result)
        return result

    def boundary(self, code: int) -> tuple[tuple[int, int], ...]:
        """Boundary of a basis cell as (code, sign) pairs, memoized."""
        cached = self._boundary_cache.get(code)
        if cached is None:
            cached = self._boundary_cache[code] = self._boundary(code)
        return cached

    def _boundary(self, code: int) -> tuple[tuple[int, int], ...]:
        """Boundary of a basis cell, computed afresh: the signed tensor
        differential.  Per axis i, the 1-d boundary of the factor
        (`_axis_boundary`) with sign (-1)**(number of point factors on
        axes < i)."""
        out = []
        prefix_pts = 0
        for fc, n, place in zip(self.factors(code)[0], self.periods, self.places):
            sigma = -1 if prefix_pts & 1 else 1
            out += [(code + (u - fc) * place, sigma * s) for u, s in _axis_boundary(fc, n)]
            prefix_pts += fc % 3 == POINT
        return tuple(out)

    # -- the tensor fact ----------------------------------------------------

    def tensor(self) -> bool:
        """Whether `mult` is the Koszul-signed tensor product of the axis
        tables and `boundary` the signed tensor differential, on premises
        that let a law be decided per axis.  Computed on every call: the
        tables, rows and signs may change after the kernel is built.

        The premises: `mult` and `boundary` are this class's own; every sign
        s(pa,pb) = `_signs[pa << d | pb]` is a unit; on pairwise-disjoint
        point masks pa, pb, pc the signs are a 2-cocycle,
        s(pa,pb) s(pa|pb,pc) = s(pb,pc) s(pa,pb|pc), and, for every axis i
        outside pa|pb, with |m<i| the number of bits of m below i,

            (I1) (-1)^|pa<i| s(pa|i, pb) = s(pa,pb) (-1)^|(pa|pb)<i|
            (I2) (-1)^(|pa|+|pb<i|) s(pa, pb|i) = s(pa,pb) (-1)^|(pa|pb)<i|;

        and on every whole axis a point times a point is zero, point-ness is
        additive (a term of x*y is a point exactly when x or y is), every
        entry with a row bit merges to a nonzero chain and every row lies in
        the axis's `axis_meets` row.  They cover whole axes because the
        terms of x*y and of the boundary of x reach codes a cell set need
        not use.

        Then, with P_j the entry x_j*y_j of the factor codes of a and b on
        axis j, read as `mult` reads it (`_entry`), every term of a*b has
        the point mask pa|pb and a*b = s(pa,pb) (P_1 x ... x P_d).  So:
        - a pair whose closed supports miss has a zero product and, since
          the boundary of a cell lies in its closed support, a zero
          product-rule residual;
        - with L_j and R_j the 1-d sides (x*y)*z and x*(y*z) on axis j,

              (a*b)*c = s(pa,pb) s(pa|pb,pc) (L_1 x ... x L_d)
              a*(b*c) = s(pb,pc) s(pa,pb|pc) (R_1 x ... x R_d).

          A triple whose point masks overlap has an axis where x*y or y*z
          is a point times a point, or where x, z and every term of x*y are
          points; there L_j == R_j == 0.  The cocycle equates the signs of
          every other triple (`associative`);
        - with R_i the 1-d residual of (x_i, y_i), (I1) and (I2) make the
          residual of (a, b) s(pa,pb) times the sum over i of
          (-1)^|(pa|pb)<i| (P_1 x ... x R_i x ... x P_d).  The terms of
          summand i have the point mask pa|pb|i, so no two summands cancel:
          the residual is nonzero exactly when some axis has R_i != 0 and
          every other axis a row bit (`residual_rows`).
        """
        cls = type(self)
        if cls.mult is not PyKernel.mult or cls.boundary is not PyKernel.boundary:
            return False
        d, signs = self.d, self._signs
        if any(s not in (1, -1) for s in signs):
            return False
        full = (1 << d) - 1
        for pa in range(1 << d):
            for pb in _submasks(full ^ pa):
                sab = signs[pa << d | pb]
                for pc in _submasks(full ^ pa ^ pb):
                    s_a_bc = signs[pa << d | pb | pc]
                    if sab * signs[(pa | pb) << d | pc] != signs[pb << d | pc] * s_a_bc:
                        return False
                    if pc.bit_count() != 1:
                        continue
                    below = pc - 1  # pc is the one axis i of (I1) and (I2)
                    t = sab * (-1) ** ((pa | pb) & below).bit_count()
                    if (-1) ** (pa & below).bit_count() * signs[(pa | pc) << d | pb] != t:
                        return False
                    if (-1) ** (pa.bit_count() + (pb & below).bit_count()) * s_a_bc != t:
                        return False
        return all(self._per_axis(self._axis_tensor))

    def _per_axis(self, fact) -> list:
        """fact(axis) for every axis; an axis with the same table and rows
        as an earlier one takes that axis's value."""
        axes = list(zip(self._tables, self._rows))
        out: list = []
        for axis, key in enumerate(axes):
            first = axes.index(key)
            out.append(out[first] if first < axis else fact(axis))
        return out

    def _entry(self, axis: int, x: int, y: int) -> tuple[tuple[int, int], ...]:
        """The 1-d product x*y on an axis as `mult` reads it: the table's
        terms, or none without a row bit."""
        r = self.radices[axis]
        return self._tables[axis][x * r + y] if self._rows[axis][x] >> y & 1 else ()

    def _axis_tensor(self, axis: int) -> bool:
        """The premises of `tensor` on one whole axis."""
        rows, meets, r = self._rows[axis], self._meets[axis], self.radices[axis]
        points = sum(1 << fc for fc in range(POINT, r, 3))
        for x in range(r):
            if rows[x] & ~meets[x] or x % 3 == POINT and rows[x] & points:
                return False
            for y in bit_positions(rows[x]):
                xy = self._entry(axis, x, y)
                point = POINT in (x % 3, y % 3)
                if any((u % 3 == POINT) != point for u, _ in xy):
                    return False
                if not linear(xy, lambda u: ((u, 1),)):
                    return False
        return True

    def associative(self, cells: list[int]) -> bool:
        """Whether every triple of `cells` associates, decided without a
        product: `tensor()` holds and, on every axis, over the factor codes
        the cells use, the 1-d sides (x*y)*z and x*(y*z) are equal."""
        if not self.tensor():
            return False
        facs = [self.factors(c)[0] for c in cells]
        for axis in range(self.d):
            codes = {fs[axis] for fs in facs}
            entry = partial(self._entry, axis)
            for x, y, z in _iterproduct(codes, repeat=3):
                lhs, rhs = assoc_sides(entry, x, y, z)
                if lhs != rhs:
                    return False
        return True

    def residual_rows(self) -> list[list[int]] | None:
        """Per axis and factor code x, the bitset of the factor codes y whose
        1-d product-rule residual (dx)y + (-1)^[x is a point] x(dy) - d(xy)
        is nonzero, read from the tables as `mult` reads them; None unless
        `tensor()` holds, under which these rows and `_rows` decide the
        residual of a pair of cells."""
        return self._per_axis(self._axis_residuals) if self.tensor() else None

    def _axis_residuals(self, axis: int) -> list[int]:
        """`residual_rows` on one axis."""
        entry, r = partial(self._entry, axis), self.radices[axis]
        bd = partial(_axis_boundary, n=self.periods[axis])
        signs = [-1 if x % 3 == POINT else 1 for x in range(r)]
        return [
            sum(1 << y for y in range(r) if product_rule_residual(entry, bd, x, y, signs[x]))
            for x in range(r)
        ]

    def residual_masks(self, codes: list[int]) -> list[int] | None:
        """Per position i of `codes`, the bitset of the positions j whose pair
        (codes[i], codes[j]) has a nonzero product-rule residual, decided by
        `residual_rows`; None when that is None.

        Per axis the positions are grouped by factor code, as
        `cells.meet_masks` does.  Axis by axis, `every` keeps the j with a
        row bit on every axis so far, and `one` those with a residual bit on
        one of them and row bits on the others."""
        residuals = self.residual_rows()
        if residuals is None:
            return None
        every, one, rest = [-1] * len(codes), [0] * len(codes), list(codes)
        for r, rows, axis in zip(self.radices, self._rows, residuals):
            groups: dict[int, int] = {}
            for pos, code in enumerate(rest):
                rest[pos], fc = divmod(code, r)
                groups[fc] = groups.get(fc, 0) | 1 << pos
            for fa, group in groups.items():
                row, residual = (
                    sum(g for fb, g in groups.items() if m >> fb & 1) for m in (rows[fa], axis[fa])
                )
                for pos in bit_positions(group):
                    one[pos] = one[pos] & row | every[pos] & residual
                    every[pos] &= row
        return one

    # -- exhaustive associativity scan --------------------------------------

    def scan_assoc(self, cells: list[int]) -> tuple[int, list[tuple[int, int, int]]]:
        """Check (a*b)*c == a*(b*c) over all ordered triples from `cells`
        whose closed supports pairwise intersect.

        Returns (number of triples checked, violating triples), the
        violations in the order a, then b, then c of their positions in
        `cells`.  For one pair (a, b) the third cells c are the positions in
        the AND of the two cells' support masks (`cells.meet_masks`).

        When `associative(cells)` holds, the walk only counts the triples:
        every one of them holds.  Otherwise each triple is computed, both
        sides multiplied out through `self.mult`.
        """
        masks = meet_masks(cells, LatticeSpec(self.periods))
        # a mask depends only on the cells' supports, so there are few
        # distinct masks; each one's list of positions is built once
        positions: dict[int, list[int]] = {}
        every = range(len(cells))

        def bits(mask: int) -> list[int]:
            found = positions.get(mask)
            if found is None:
                found = positions[mask] = [k for k in every if mask >> k & 1]
            return found

        decided = self.associative(cells)
        mult = self.mult
        checked = 0
        violations: list[tuple[int, int, int]] = []
        for i, a in enumerate(cells):
            mi = masks[i]
            for j in bits(mi):
                mask = mi & masks[j]
                checked += mask.bit_count()
                if decided:
                    continue
                b = cells[j]
                ab = mult(a, b)
                for k in bits(mask):
                    c = cells[k]
                    if linear(ab, lambda u: mult(u, c)) != linear(mult(b, c), lambda u: mult(a, u)):
                        violations.append((a, b, c))
        return checked, violations


@lru_cache(maxsize=None)
def _kernel(periods: tuple[int, ...]) -> PyKernel:
    return PyKernel(periods)


def kernel_for(periods, backend=None) -> PyKernel:
    """The kernel of the lattice with these periods, built once."""
    # There is one kernel.  `backend` stays because perfbench/tracing.py's
    # wrapper passes it on positionally, as None.
    if backend is not None:
        raise ValueError(f"unknown backend {backend!r}: the pure kernel is the only one")
    return _kernel(tuple(periods))


kernel_for.cache_clear = _kernel.cache_clear
