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

    def scan_assoc(self, cells: list[int]) -> tuple[int, list[tuple[int, int, int]]]:
        """Check (a*b)*c == a*(b*c) over all ordered triples from `cells`
        whose closed supports pairwise intersect.

        Returns (number of triples checked, violating triples), the
        violations in the order a, then b, then c of their positions in
        `cells`.

        Each side is computed from the values it depends on.  (a*b)*c is
        the sum of w*(u*c) over the terms (u, w) of a*b, so it is a function
        of the value of a*b and of c alone; a*(b*c) is likewise a function
        of a and the value of b*c.  Every distinct product gets an integer
        value id, keyed on the exact tuple `mult` returned, so a repeated
        or reordered term can split one value over two ids but never merge
        two values; id 0 is the zero product and `prods[q]` the value of id
        q.  For a cell u, the row at offset `prow[u]` of the flat list
        `ids` holds the ids of u*cells[k] for every position k; it is built
        once, for the cells in `cells` and the terms of their products.
        The products a*u of the right side are asked once per a and u.
        When `mult` is this class's own, the positions that can give a
        nonzero product are read off the axis rows `_rows`, grouped by
        factor code per axis as `cells.meet_masks` groups them: the
        positions k of u*cells[k] for a row, and the bitset `col_mask[u]`
        of the positions i of cells[i]*u.  So `mult` is called only on
        pairs no axis table zeroes, and it decides zeros by the same rows.
        A subclass overriding `mult` gets every product from it.  Each
        side's nonzero result is interned to an integer, so equal ids mean
        equal nonzero sums.  A side whose product value is a single term
        (u, w) is w times one product, and its id is kept in
        `scaled[w][q]`, which many sides share.

        The scan compares whole rows.  For one pair (a, b) the third cells c
        are the positions in the AND of the two cells' support masks
        (`cells.meet_masks`).  The left row over them depends only on
        id(a*b) and that mask, and is built once per pair of the two; the
        right row maps b's row over them through a memo of a*(b*c) by
        id(b*c), kept for the current a.  Only a row that differs is walked
        to find its violating c.  The triples are exactly those the masks
        give, visited a, then b, then c by position, and every product
        comes from `self.mult` or is zero by its own rows, so each triple
        gets the verdict a fresh computation of both sides would give, also
        for a kernel that overrides `mult`.
        """
        n = len(cells)
        masks = meet_masks(cells, LatticeSpec(self.periods))
        # a mask depends only on the cells' supports, so there are few
        # distinct masks; each one's list of positions is built once, of
        # shared ints
        positions: dict[int, list[int]] = {}
        every = list(range(n))

        def bits(mask: int) -> list[int]:
            found = positions.get(mask)
            if found is None:
                found = positions[mask] = [k for k in every if mask >> k & 1]
            return found

        mult = self.mult
        everywhere = (1 << n) - 1
        # per axis and factor code fu: the positions whose factor code fk
        # has u*cells[k] (rows) or cells[k]*u (cols) nonzero on that axis
        rows_near: list[list[int]] = []
        cols_near: list[list[int]] = []
        rest = list(cells)
        for rows, r in zip(self._rows, self.radices):
            groups = [0] * r
            for pos, code in enumerate(rest):
                rest[pos], fc = divmod(code, r)
                groups[fc] |= 1 << pos
            rows_near.append(
                [sum(g for fk, g in enumerate(groups) if row >> fk & 1) for row in rows]
            )
            cols_near.append(
                [sum(g for fk, g in enumerate(groups) if rows[fk] >> fu & 1) for fu in range(r)]
            )
        own = type(self).mult is PyKernel.mult

        prod_ids: dict[tuple[tuple[int, int], ...], int] = {(): 0}
        prods: list[tuple[tuple[int, int], ...]] = [()]

        def value_id(p: tuple[tuple[int, int], ...]) -> int:
            q = prod_ids.get(p)
            if q is None:
                q = prod_ids[p] = len(prods)
                prods.append(p)
            return q

        def nonzero(u: int, near: list[list[int]]) -> int:
            # the positions k where no axis table zeroes u*cells[k]
            # (rows_near) or cells[k]*u (cols_near)
            mask = everywhere
            if own:
                for groups, fu in zip(near, self.factors(u)[0]):
                    mask &= groups[fu]
            return mask

        # every row lives in this one list: a list per row stayed resident
        # after the scan, about 20 MB at the 3,3,3,3 window-2 row's peak
        ids: list[int] = []
        zeros = [0] * n

        def product_row(u: int) -> int:
            # a new row of the ids of u*cells[k]; its offset
            base = len(ids)
            ids.extend(zeros)
            for k in bits(nonzero(u, rows_near)):
                ids[base + k] = value_id(mult(u, cells[k]))
            return base

        prow = _Filled(product_row)
        # bit i: cells[i]*u may be nonzero (a dense column of ids per u
        # doubled the rows' memory)
        col_mask = _Filled(lambda u: nonzero(u, cols_near))

        results: dict[frozenset[tuple[int, int]], int] = {}

        def result_id(acc: dict[int, int]) -> int:
            if 0 in acc.values():
                key = frozenset([item for item in acc.items() if item[1]])
            else:
                key = frozenset(acc.items())
            return results.setdefault(key, len(results))

        def times_w(w1: int) -> _Filled:
            # value id q -> id of w1 times that value
            def fill(q: int) -> int:
                acc: dict[int, int] = {}
                for v, w2 in prods[q]:
                    acc[v] = acc.get(v, 0) + w1 * w2
                return result_id(acc)

            return _Filled(fill)

        scaled = _Filled(times_w)

        def left_row(terms: tuple[tuple[int, int], ...], ks: list[int]) -> list[int]:
            # ids of (a*b)*cells[k] over ks, for the value a*b = terms
            if len(terms) == 1:
                ((u, w),) = terms
                base = prow[u]
                row = ids[base : base + n]
                return list(map(scaled[w].__getitem__, map(row.__getitem__, ks)))
            term_rows = [(ids[prow[u] : prow[u] + n], w1) for u, w1 in terms]
            out = []
            for k in ks:
                acc: dict[int, int] = {}
                for row, w1 in term_rows:
                    for v, w2 in prods[row[k]]:
                        acc[v] = acc.get(v, 0) + w1 * w2
                out.append(result_id(acc))
            return out

        def right_side(i: int) -> _Filled:
            # id(b*c) -> id of a*(b*c), for a = cells[i]
            a, bit = cells[i], 1 << i
            times_a = _Filled(lambda u: value_id(mult(a, u)) if col_mask[u] & bit else 0)

            def fill(q_bc: int) -> int:
                terms = prods[q_bc]
                if len(terms) == 1:
                    ((u, w),) = terms
                    return scaled[w][times_a[u]]
                acc: dict[int, int] = {}
                for u, w1 in terms:
                    for v, w2 in prods[times_a[u]]:
                        acc[v] = acc.get(v, 0) + w1 * w2
                return result_id(acc)

            return _Filled(fill)

        # (id(a*b), mask of the c positions) -> left row over those positions
        left_rows: dict[tuple[int, int], list[int]] = {}
        checked = 0
        violations: list[tuple[int, int, int]] = []
        for i in range(n):
            a = cells[i]
            right = right_side(i).__getitem__
            base_a = prow[a]
            mi = masks[i]
            for j in bits(mi):
                mask = mi & masks[j]
                ks = bits(mask)
                checked += len(ks)
                q_ab = ids[base_a + j]
                lhs = left_rows.get((q_ab, mask))
                if lhs is None:
                    lhs = left_rows[q_ab, mask] = left_row(prods[q_ab], ks)
                base_b = prow[cells[j]]
                rhs = list(map(right, map(ids[base_b : base_b + n].__getitem__, ks)))
                if lhs != rhs:
                    b = cells[j]
                    for k, x, y in zip(ks, lhs, rhs):
                        if x != y:
                            violations.append((a, b, cells[k]))
        return checked, violations


class _Filled(dict):
    """A memo that computes a missing key's value by `fill(key)`, once."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


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
