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
from itertools import combinations, product as _iterproduct
from math import prod
from typing import Iterator, NamedTuple

from .cells import PairTable, axis_gather, axis_meets, bit_positions
from .linalg import _eliminate
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


class CellRecord(NamedTuple):
    """What the kernel reads of one cell, memoized per code (`PyKernel.cell`).
    In `row` and `one` each axis owns a field of 3n bits, in axis order."""

    factors: tuple[int, ...]  # the factor code on each axis
    points: int  # bit i: the factor on axis i is a point
    row: int  # per field, the row `_rows[i][fc]` of the cell's factor code fc
    one: int  # per field, the single bit fc


class PyKernel:
    """Basis-cell product, boundary and the associativity scan, in Python.

    `tensor()` is the one fact under which a law is decided per axis from
    the 1-d tables: `associative`, `commutative`, `transversal`, `covariant`,
    `residual_rows`, `pairing_rows` and `pairing_rank` read it, and so does
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
        self._cells: dict[int, CellRecord] = {}
        self._mult_cache: dict[int, tuple[tuple[int, int], ...]] = {}
        # one shared object per distinct product value; far fewer than keys
        self._values: dict[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]] = {}
        self._boundary_cache: dict[int, tuple[tuple[int, int], ...]] = {}
        # at (pa << d) | pb for the point-axis masks pa, pb of the two factors
        masks = range(1 << self.d)
        self._signs = [koszul_sign_of_points(pa, pb) for pa in masks for pb in masks]

    # -- helpers -----------------------------------------------------------

    def cell(self, code: int) -> CellRecord:
        """The record of a cell, memoized."""
        cached = self._cells.get(code)
        if cached is None:
            factors = []
            rest, points, row, one, shift = code, 0, 0, 0, 0
            for i, (rows, r) in enumerate(zip(self._rows, self.radices)):
                rest, fc = divmod(rest, r)
                factors.append(fc)
                points |= (fc % 3 == POINT) << i
                row |= rows[fc] << shift
                one |= 1 << (fc + shift)
                shift += r
            cached = self._cells[code] = CellRecord(tuple(factors), points, row, one)
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
        return self.supports_intersect(a, b) and not self.cell(a).points & self.cell(b).points

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
        cells = self._cells  # read inline: every zero product comes here
        fa, pa, row, _ = cells.get(a) or self.cell(a)
        fb, pb, _, one = cells.get(b) or self.cell(b)
        if (row & one).bit_count() < self.d:
            return ()
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
        for fc, n, place in zip(self.cell(code).factors, self.periods, self.places):
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

        The premises: `mult` and `boundary` are this class's own; s(0,0) =
        `_signs[0]` is a unit and, on disjoint point masks pa, pb, the sign
        s(pa,pb) = `_signs[pa << d | pb]` is s(0,0) times
        `koszul_sign_of_points(pa, pb)` (a product of overlapping masks is
        zero before `mult` reads its sign); and on every whole axis a point
        times a point is zero, point-ness is additive (a term of x*y is a
        point exactly when x or y is), every entry with a row bit merges to
        a nonzero chain and every row lies in the axis's `axis_meets` row.
        They cover whole axes because the terms of x*y and of the boundary
        of x reach codes a cell set need not use.

        On disjoint point masks and every axis i outside pa|pb, with |m<i|
        the number of bits of m below i, the Koszul signs satisfy

            (I1) (-1)^|pa<i| s(pa|i, pb) = s(pa,pb) (-1)^|(pa|pb)<i|
            (I2) (-1)^(|pa|+|pb<i|) s(pa, pb|i) = s(pa,pb) (-1)^|(pa|pb)<i|,

        and on pairwise-disjoint masks the 2-cocycle s(pa,pb) s(pa|pb,pc) =
        s(pb,pc) s(pa,pb|pc) (tests/test_kernel.py, for every supported d);
        the two sides of each have equally many signs, so s(0,0) cancels.
        (I1) and (I2) fix every sign of disjoint masks from s(0,0), so the
        premise asks no more of a unit sign table than they do.

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
          every other triple (`associative`).  Closed supports meet when
          they meet on every axis, so on a cell set that is a product over
          the axes, such as a window, the pairwise-meeting triples are the
          product over the axes of the pairwise-meeting triples of factor
          codes, and a decided scan counts them from one-axis counts;
        - with R_i the 1-d residual of (x_i, y_i), (I1) and (I2) make the
          residual of (a, b) s(pa,pb) times the sum over i of
          (-1)^|(pa|pb)<i| (P_1 x ... x R_i x ... x P_d).  The terms of
          summand i have the point mask pa|pb|i, so no two summands cancel:
          the residual is nonzero exactly when some axis has R_i != 0 and
          every other axis a row bit (`residual_rows`); on a cell set that
          is a product over the axes, the pairs are counted by a programme
          over the axes (`residual_counts`);
        - on disjoint masks s(pa,pb) s(pb,pa) = (-1)^(|pa||pb|): each point
          axis of a and each of b make an inversion in one order of the two.
          A point times a point is zero, so a*b = (-1)^(|pa||pb|) b*a when
          every axis has x*y == y*x (`commutative`);
        - a*b != 0 exactly when every axis has a row bit, so transversality
          holds when each axis's row bit is "closed supports meet and x and
          y are not both points" (`transversal`);
        - a symmetry carries target axis j from source axis s by a factor
          map img that keeps point-ness, so a cell's image has the point
          mask pi(pa), pi moving bit s to j, and the image of a*b is
          sigma(pa) sigma(pb) sigma(pa|pb) img(a*b) for its sign sigma by
          point mask.  When the target kernel has the fact too, that is the
          product of the images if every target axis has
          P'_j(img x, img y) == img(P_s(x, y)) and, on disjoint masks,
          s'(pi pa, pi pb) = sigma(pa) sigma(pb) sigma(pa|pb) s(pa,pb)
          (`covariant`);
        - augment(a*c) sums the numerators of the point cells among the
          terms of a*c, which all have the point mask pa|pc.  A point times
          a point is zero, so it is nonzero only when pc = ~pa; then every
          term is a point cell, and the numerators of a tensor product sum
          to the product of the per-axis sums: augment(a*c) = s(pa,~pa)
          times the product over j of the sum of the numerators of P_j
          (`pairing_rows`);
        - so the degree-p pairing matrix is block-diagonal by the row's
          point mask pa, whose block meets only the columns of mask ~pa, and
          that block is s(pa,~pa) times the Kronecker product over the axes
          of the 1-d blocks of those sums: point rows against stick columns
          on the axes in pa, stick rows against point columns on the others.
          A Kronecker product has the product of its factors' ranks, so the
          rank is the sum over pa of those products (`pairing_rank`).
        """
        cls = type(self)
        if cls.mult is not PyKernel.mult or cls.boundary is not PyKernel.boundary:
            return False
        d, signs = self.d, self._signs
        masks = range(1 << d)
        if signs[0] not in (1, -1) or any(
            signs[pa << d | pb] != signs[0] * koszul_sign_of_points(pa, pb)
            for pa in masks
            for pb in masks
            if not pa & pb
        ):
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
                if not self._chain(axis, x, y):
                    return False
        return True

    def _chain(self, axis: int, x: int, y: int) -> dict:
        """`_entry` merged into a chain {factor code: coefficient}."""
        return linear(self._entry(axis, x, y), lambda u: ((u, 1),))

    def _axis_codes(self, cells) -> list[set[int]]:
        """Per axis, the factor codes that `cells` use on it."""
        return [{c // place % r for c in cells} for place, r in zip(self.places, self.radices)]

    def associative(self, cells: list[int]) -> bool:
        """Whether every triple of `cells` associates, decided without a
        product: `tensor()` holds and, on every axis, over the factor codes
        the cells use, the 1-d sides (x*y)*z and x*(y*z) are equal."""
        if not self.tensor():
            return False
        for axis, codes in enumerate(self._axis_codes(cells)):
            entry = partial(self._entry, axis)
            for x, y, z in _iterproduct(codes, repeat=3):
                lhs, rhs = assoc_sides(entry, x, y, z)
                if lhs != rhs:
                    return False
        return True

    def commutative(self, cells: list[int]) -> bool:
        """Whether a*b = (-1)^(codim a codim b) b*a for every pair of
        `cells`, decided without a product: `tensor()` holds and, on every
        axis, over the factor codes the cells use, x*y == y*x (a point
        times a point is zero, so the 1-d sign is +1)."""
        return self.tensor() and all(
            self._chain(axis, x, y) == self._chain(axis, y, x)
            for axis, codes in enumerate(self._axis_codes(cells))
            for x, y in _iterproduct(codes, repeat=2)
        )

    def transversal(self, cells: list[int]) -> bool:
        """Whether a*b != 0 exactly when the closed supports of a and b meet
        and no axis is a point axis of both, for every pair of `cells`,
        decided without a product: `tensor()` holds and, on every axis,
        over the factor codes the cells use, the row bit of (x, y) is set
        exactly when `axis_meets` has it and x and y are not both points."""
        return self.tensor() and all(
            bool(self._rows[axis][x] >> y & 1)
            == (bool(self._meets[axis][x] >> y & 1) and not x % 3 == y % 3 == POINT)
            for axis, codes in enumerate(self._axis_codes(cells))
            for x, y in _iterproduct(codes, repeat=2)
        )

    def covariant(self, cells: list[int], actions) -> bool:
        """Whether each symmetry of `actions` carries the product of every
        pair of `cells` to the product of their images, decided without a
        product as `tensor()` shows.  An action is (target kernel, per target
        axis its source axis and factor map, the sign by point mask), as
        `verify._Symmetry` holds it: each factor map keeps the kind of every
        factor.  They are read over the factor codes the cells use on the
        source axis."""
        if not self.tensor():
            return False
        d, codes, tensors = self.d, self._axis_codes(cells), {self: True}
        masks = range(1 << d)
        for target, axes, signs in actions:
            if target not in tensors:
                tensors[target] = target.tensor()
            if not tensors[target]:
                return False
            pi = [sum(1 << j for j, (s, _) in enumerate(axes) if m >> s & 1) for m in masks]
            if any(
                target._signs[pi[pa] << d | pi[pb]]
                != signs[pa] * signs[pb] * signs[pa | pb] * self._signs[pa << d | pb]
                for pa in masks
                for pb in masks
                if not pa & pb
            ):
                return False
            for j, (s, img) in enumerate(axes):
                for x, y in _iterproduct(codes[s], repeat=2):
                    image = {img[u]: w for u, w in self._chain(s, x, y).items()}
                    if target._chain(j, img[x], img[y]) != image:
                        return False
        return True

    def pairing_rows(self, cells: list[int]) -> list[dict[int, int]] | None:
        """Per cell a of `cells`, {c: numerator of augment(a*c) at scale
        4**d} over the non-ideal cells c where it is nonzero, decided
        without a product as `tensor()` shows: s(pa,~pa) times the product
        of one partner list per axis (`_axis_pairing`).  None unless
        `tensor()` holds."""
        if not self.tensor():
            return None
        partners, d = self._per_axis(self._axis_pairing), self.d
        rows = []
        for code in cells:
            factors, points, _, _ = self.cell(code)
            row = {0: self._signs[points << d | ((1 << d) - 1) ^ points]}
            for place, axis, x in zip(self.places, partners, factors):
                row = {c + y * place: v * w for c, v in row.items() for y, w in axis[x]}
            rows.append(row)
        return rows

    def _axis_pairing(self, axis: int) -> list[list[tuple[int, int]]]:
        """`pairing_rows` on one axis: per factor code x, the (y, sum of the
        numerators of x*y) of the non-ideal y, a point exactly when x is
        not, where that sum is nonzero."""
        r = self.radices[axis]
        return [
            [
                (y, w)
                for y in range(STICK if x % 3 == POINT else POINT, r, 3)
                if (w := sum(v for _, v in self._entry(axis, x, y)))
            ]
            for x in range(r)
        ]

    def pairing_rank(self, p: int) -> int | None:
        """The rank of the degree-p pairing matrix (`pairing.pairing_matrix`)
        decided per axis as `tensor()` shows: the sum over the row point
        masks pa with d - p bits of the product over the axes of the rank of
        the 1-d block, point rows on the axes in pa and stick rows on the
        others (`_axis_pairing_ranks`).  None unless `tensor()` holds."""
        if not self.tensor():
            return None
        ranks = self._per_axis(self._axis_pairing_ranks)
        return sum(
            prod(rank[axis in pa] for axis, rank in enumerate(ranks))
            for pa in combinations(range(self.d), self.d - p)
        )

    def _axis_pairing_ranks(self, axis: int) -> tuple[int, int]:
        """The ranks of `_axis_pairing`'s two 1-d blocks on one axis: the
        stick rows against the point columns, then the point rows against
        the stick columns."""
        partners, r = [dict(x) for x in self._axis_pairing(axis)], self.radices[axis]
        blocks = [
            [[partners[x].get(y, 0) for y in range(other, r, 3)] for x in range(kind, r, 3)]
            for kind, other in ((STICK, POINT), (POINT, STICK))
        ]
        return _eliminate(blocks[0])[0], _eliminate(blocks[1])[0]

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

    def residual_masks(self, codes: list[int]) -> Iterator[int] | None:
        """Per position i of `codes`, in order, the bitset of the positions j
        whose pair (codes[i], codes[j]) has a nonzero product-rule residual,
        decided by `residual_rows`; None when that is None.  Each row is
        computed as it is drawn, so a caller holds only the rows it keeps.

        Per axis `cells.axis_gather` gathers each position's row and residual
        row, as it gathers `cells.meet_masks`' rows.  Axis by axis, `every`
        keeps the j with a row bit on every axis so far, and `one` those with
        a residual bit on one of them and row bits on the others."""
        residuals = self.residual_rows()
        if residuals is None:
            return None
        axes = [
            (gather(rows), gather(axis))
            for gather, rows, axis in zip(axis_gather(codes, self.periods), self._rows, residuals)
        ]

        def masks() -> Iterator[int]:
            for pos in range(len(codes)):
                every, one = -1, 0
                for rows, residual in axes:
                    one = one & rows[pos] | every & residual[pos]
                    every &= rows[pos]
                yield one

        return masks()

    def residual_counts(self, size: int) -> tuple[int, int] | None:
        """Over the ordered pairs of the cells whose factor codes are all
        below `size`, the number with a nonzero product-rule residual and no
        ideal cell, and the number with one and an ideal cell; decided by
        `residual_rows`, None when that is None.

        Such a cell set is a product over the axes, and `residual_masks`'
        `every` and `one` are per axis, so a programme over the axes counts
        the pairs by the state (`every`, `one`, a or b ideal so far)."""
        residuals = self.residual_rows()
        if residuals is None:
            return None
        states = {(True, False, False): 1}
        for rows, axis in zip(self._rows, residuals):
            step: dict[tuple[bool, bool, bool], int] = {}
            for x, y in _iterproduct(range(size), repeat=2):
                row, residual = bool(rows[x] >> y & 1), bool(axis[x] >> y & 1)
                ideal = INF in (x % 3, y % 3)
                for (every, one, was), count in states.items():
                    key = (every and row, one and row or every and residual, was or ideal)
                    if key[0] or key[1]:
                        step[key] = step.get(key, 0) + count
            states = step
        return tuple(
            sum(count for (_, one, was), count in states.items() if one and was == ideal)
            for ideal in (False, True)
        )

    # -- exhaustive associativity scan --------------------------------------

    def scan_assoc(self, table: PairTable) -> tuple[int, list[tuple[int, int, int]]]:
        """Check (a*b)*c == a*(b*c) over all ordered triples from the cells
        of `table` whose closed supports pairwise intersect, both sides
        multiplied out through `self.mult` (`assoc_sides`).

        Returns (number of triples checked, violating triples), the
        violations in the order a, then b, then c of their positions in
        `table.codes`.  For one pair (a, b) the third cells c are the
        positions in the AND of the two cells' masks.
        """
        cells, masks, near = table
        checked = 0
        violations: list[tuple[int, int, int]] = []
        for i, a in enumerate(cells):
            mi = masks[i]
            for j in near[i]:
                mask = mi & masks[j]
                checked += mask.bit_count()
                b = cells[j]
                for k in bit_positions(mask):
                    c = cells[k]
                    lhs, rhs = assoc_sides(self.mult, a, b, c)
                    if lhs != rhs:
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
