"""Pure-Python computational kernel.

Operates on integer-encoded basis cells (see cells.encode_cell).  Product
coefficients are returned as integer numerators at the fixed scale 4**d:
a returned pair (code, num) stands for the term (num / 4**d) * cell.
Boundary coefficients are plain signs.  `kernel_for` hands out one
kernel per lattice, so every caller shares its memos.
"""

from __future__ import annotations

from dataclasses import astuple
from functools import lru_cache
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


def linear(terms, image) -> dict:
    """Linear extension of a basis map over a sparse chain: the sum of
    v * image(c) over the (c, v) terms, with image(c) giving (code, coef)
    pairs; returns {code: coef} without zero coefficients."""
    out: dict = {}
    for c, v in terms:
        for u, w in image(c):
            out[u] = out.get(u, 0) + v * w
    return {u: w for u, w in out.items() if w}


def times(mult, x, y) -> dict:
    """Bilinear extension of the basis product `mult` to the chains given
    as (code, coef) terms x and y: one `mult` call per pair of terms.  y is
    iterated once per term of x, so it must not be an iterator."""
    return linear((((a, b), v * w) for a, v in x for b, w in y), lambda ab: mult(*ab))


class PyKernel:
    """Basis-cell product, boundary and the associativity scan, in Python."""

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

    def local(self) -> bool:
        """Whether a pair of cells whose closed supports miss needs no
        computing: its product and its product-rule residual are zero.

        It holds when every axis's table is zero off meeting factor pairs
        (each `_rows[fa]` a subset of `_meets[fa]`) and `mult` and `boundary`
        are this class's own.  The boundary of a cell lies in its closed
        support, so every product in the residual of such a pair is between
        cells that miss as well.  A subclass overriding either method does
        not get the fact."""
        cls = type(self)
        return (
            cls.mult is PyKernel.mult
            and cls.boundary is PyKernel.boundary
            and not any(
                row & ~meet
                for rows, meets in zip(self._rows, self._meets)
                for row, meet in zip(rows, meets)
            )
        )

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
        """Boundary of a basis cell, computed afresh.

        Per stick axis i, emits point cells at both stick ends with sign
        (-1)**(number of point factors on axes < i); infinitesimal sticks
        and points have zero boundary.
        """
        fs, _ = self.factors(code)
        out = []
        prefix_pts = 0
        for i, fc in enumerate(fs):
            coord, kind = divmod(fc, 3)
            if kind == STICK:
                sigma = -1 if prefix_pts & 1 else 1
                place = self.places[i]
                base = code - fc * place
                upper = ((coord + 1) % self.periods[i]) * 3 + POINT
                lower = coord * 3 + POINT
                out.append((base + upper * place, sigma))
                out.append((base + lower * place, -sigma))
            elif kind == POINT:
                prefix_pts += 1
        return tuple(out)

    # -- exhaustive associativity scan --------------------------------------

    def associative(self, cells: list[int]) -> bool:
        """Whether every triple of `cells` associates, decided from the axis
        tables and the Koszul signs without a product.

        `mult` is the Koszul-signed tensor product of the axis tables.  On
        one axis let x, y, z be the factor codes of a, b, c, and L and R the
        merged 1-d sides (x*y)*z and x*(y*z), read from the tables as
        `mult` reads them.  When point-ness is additive (a term of x*y is a
        point exactly when x or y is), every term of a*b has the point mask
        pa|pb and every term of b*c has pb|pc, so

            (a*b)*c = s(pa,pb) s(pa|pb,pc) (L_1 x ... x L_d)
            a*(b*c) = s(pb,pc) s(pa,pb|pc) (R_1 x ... x R_d).

        It holds when the class's own `mult` is in use; on every axis, over
        the factor codes the cells use, point-ness is additive and L == R;
        a point times a point is zero on every axis; and `_signs` is a
        2-cocycle on the pairwise-disjoint point masks the cells have.  A
        triple whose point masks overlap has an axis where x*y or y*z is a
        point times a point, or where x and z are points and so is every
        term of x*y; there L == R == 0, so both sides are zero.  Every other
        triple has equal sides by the cocycle.  The point-times-point rule
        covers the whole axis because the terms of x*y reach factor codes
        the cells do not use.
        """
        if type(self).mult is not PyKernel.mult:
            return False
        facs = [self.factors(c) for c in cells]
        for axis, (table, rows, r) in enumerate(zip(self._tables, self._rows, self.radices)):
            points = sum(1 << fc for fc in range(POINT, r, 3))
            if any(rows[fc] & points for fc in range(POINT, r, 3)):
                return False
            codes = {fs[axis] for fs, _ in facs}

            def entry(x: int, y: int) -> tuple[tuple[int, int], ...]:
                return table[x * r + y] if rows[x] >> y & 1 else ()

            for x in codes:
                for y in codes:
                    xy = entry(x, y)
                    point = x % 3 == POINT or y % 3 == POINT
                    if any((u % 3 == POINT) != point for u, _ in xy):
                        return False
                    for z in codes:
                        if linear(xy, lambda u: entry(u, z)) != linear(
                            entry(y, z), lambda u: entry(x, u)
                        ):
                            return False
        masks = {p for _, p in facs}
        signs, d = self._signs, self.d
        return all(
            signs[pa << d | pb] * signs[(pa | pb) << d | pc]
            == signs[pb << d | pc] * signs[pa << d | pb | pc]
            for pa in masks
            for pb in masks
            for pc in masks
            if not (pa & pb or pb & pc or pa & pc)
        )

    def residual_rows(self) -> list[list[int]] | None:
        """Per axis and factor code x, the bitset of the factor codes y whose
        1-d product-rule residual (dx)y + (-1)^[x is a point] x(dy) - d(xy)
        is nonzero, read from the tables as `mult` reads them; or None when
        these rows and `_rows` do not decide the residual of a pair of cells.

        `mult` is the Koszul-signed tensor product of the axis tables and
        `boundary` the signed tensor differential.  Let P_j be axis j's
        entry x_j*y_j and R_i the 1-d residual of (x_i, y_i).  When
        point-ness is additive, a point times a point is zero and the signs
        satisfy, for disjoint point masks pa, pb and every axis i outside
        pa|pb, with |m<i| the number of bits of m below i,

            (I1) (-1)^|pa<i| s(pa|i, pb) = s(pa,pb) (-1)^|(pa|pb)<i|
            (I2) (-1)^(|pa|+|pb<i|) s(pa, pb|i) = s(pa,pb) (-1)^|(pa|pb)<i|,

        the residual of (a, b) is s(pa,pb) times the sum over i of
        (-1)^|(pa|pb)<i| (P_1 x ... x R_i x ... x P_d).  Every term of
        term i has the point mask pa|pb|i, so the terms of two axes never
        cancel, and when every entry with a row bit is a nonzero chain and
        every sign a unit, the residual is nonzero exactly when some axis i
        has R_i != 0 and every other axis j a row bit for (x_j, y_j).  The
        rules on points cover the whole axis, because the terms of dx reach
        factor codes the cells do not use.  A subclass overriding `mult` or
        `boundary` does not get the rows.
        """
        cls = type(self)
        if cls.mult is not PyKernel.mult or cls.boundary is not PyKernel.boundary:
            return None
        d, signs = self.d, self._signs

        def parity(m: int) -> int:
            return -1 if m.bit_count() & 1 else 1

        for pa in range(1 << d):
            for pb in range(1 << d):
                sab = signs[pa << d | pb]
                if sab not in (1, -1):
                    return None
                if pa & pb:
                    continue
                for i in range(d):
                    below, bit = (1 << i) - 1, 1 << i
                    if (pa | pb) & bit:
                        continue
                    t = sab * parity((pa | pb) & below)
                    if parity(pa & below) * signs[(pa | bit) << d | pb] != t:
                        return None
                    if parity(pa) * parity(pb & below) * signs[pa << d | pb | bit] != t:
                        return None
        out: list[list[int]] = []
        done: list[tuple[list, list[int], list[int]]] = []
        for n, table, rows, r in zip(self.periods, self._tables, self._rows, self.radices):
            same = [res for t, rw, res in done if t == table and rw == rows]
            if same:  # an axis with the same table and rows as an earlier one
                out.append(same[0])
                continue

            def entry(x: int, y: int) -> tuple[tuple[int, int], ...]:
                return table[x * r + y] if rows[x] >> y & 1 else ()

            def bd(x: int) -> tuple[tuple[int, int], ...]:
                coord, kind = divmod(x, 3)
                return (((coord + 1) % n * 3, 1), (coord * 3, -1)) if kind == STICK else ()

            points = sum(1 << fc for fc in range(POINT, r, 3))
            res = []
            for x in range(r):
                if x % 3 == POINT and rows[x] & points:
                    return None
                sign, bits = -1 if x % 3 == POINT else 1, 0
                for y in range(r):
                    xy = entry(x, y)
                    point = x % 3 == POINT or y % 3 == POINT
                    if any((u % 3 == POINT) != point for u, _ in xy):
                        return None
                    if rows[x] >> y & 1 and not linear(xy, lambda u: ((u, 1),)):
                        return None
                    parts = [(entry(u, y), s) for u, s in bd(x)]
                    parts += [(entry(x, v), sign * s) for v, s in bd(y)]
                    parts += [(bd(w), -c) for w, c in xy]
                    if linear(parts, lambda terms: terms):
                        bits |= 1 << y
                res.append(bits)
            done.append((table, rows, res))
            out.append(res)
        return out

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
