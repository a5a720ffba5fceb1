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


def assoc_sides(mult, a: int, b: int, c: int) -> tuple[dict, dict]:
    """(a*b)*c and a*(b*c) for the basis product `mult`."""
    return linear(mult(a, b), lambda u: mult(u, c)), linear(mult(b, c), lambda u: mult(a, u))


def times(mult, x, y) -> dict:
    """Bilinear extension of the basis product `mult` to the chains given
    as (code, coef) terms x and y: one `mult` call per pair of terms.  y is
    iterated once per term of x, so it must not be an iterator."""
    return linear((((a, b), v * w) for a, v in x for b, w in y), lambda ab: mult(*ab))


# -- the window laws on basis cells ------------------------------------------
#
# Each law takes a kernel and basis cells and reads them through the kernel's
# own maps.  The harness's walks run them on the window's cells, and
# `PyKernel.holds` runs the same function on the `PyKernel.axis` kernels.


def _odd(kernel, code: int) -> bool:
    """Whether a cell has odd codimension, from the kernel's record of it."""
    return kernel.cell(code).points.bit_count() % 2 == 1


def commutes(kernel, a: int, b: int) -> bool:
    """Graded commutativity: a*b == (-1)^(codim a codim b) b*a."""
    ab, ba = kernel.mult(a, b), kernel.mult(b, a)
    sign = -1 if _odd(kernel, a) and _odd(kernel, b) else 1
    if sign == 1 and ab is ba:
        return True  # one product object: equal terms
    return dict(ab) == {c: sign * v for c, v in ba}


def associates(kernel, a: int, b: int, c: int) -> bool:
    """Associativity: (a*b)*c == a*(b*c) (`assoc_sides`)."""
    lhs, rhs = assoc_sides(kernel.mult, a, b, c)
    return lhs == rhs


def nonzero_iff_transverse(kernel, a: int, b: int) -> bool:
    """Transversality: a*b != 0 exactly when a and b are transverse
    (`PyKernel.transverse`)."""
    return bool(kernel.mult(a, b)) == kernel.transverse(a, b)


def residual(kernel, a: int, b: int) -> dict:
    """The product-rule residual (da)b + (-1)^(codim a) a(db) - d(ab) of two
    basis cells, as {code: numerator}; the rule holds where it is empty."""
    mult, boundary = kernel.mult, kernel.boundary
    sign_a = -1 if _odd(kernel, a) else 1
    parts = [(boundary(c), -v) for c, v in mult(a, b)]
    parts += [(mult(u, b), s) for u, s in boundary(a)]
    parts += [(mult(a, u), sign_a * s) for u, s in boundary(b)]
    return linear(parts, lambda terms: terms)


# Crumbling's laws read a coarse kernel, the kernel of its k-fold refinement
# and `crumbled`, a cell's image under `product.crumble_code` as (code, 1)
# terms.


def crumbles_boundary(coarse, fine, crumbled, a: int) -> bool:
    """Chain map: crumble(da) == d crumble(a)."""
    return linear(crumbled(a), fine.boundary) == linear(coarse.boundary(a), crumbled)


def crumbles_product(coarse, fine, crumbled, a: int, b: int) -> bool:
    """Algebra map: crumble(a*b) == crumble(a)*crumble(b)."""
    return linear(coarse.mult(a, b), crumbled) == times(fine.mult, crumbled(a), crumbled(b))


class CellRecord(NamedTuple):
    """What the kernel reads of one cell, memoized per code (`PyKernel.cell`).
    In `row` and `one` each axis owns a field of 3n bits, in axis order."""

    factors: tuple[int, ...]  # the factor code on each axis
    points: int  # bit i: the factor on axis i is a point
    row: int  # per field, the row `_rows[i][fc]` of the cell's factor code fc
    one: int  # per field, the single bit fc


class PyKernel:
    """Basis-cell product, boundary and the associativity scan, in Python.

    `tensor()` is the one fact under which a law is decided per axis, on the
    1-d `axis` kernels: `holds` (and so `associative`, `commutative` and
    `transversal`), `covariant`, `crumbles`, `residual_rows` and
    `pairing_rank` read it, and so does the harness before it leaves out
    the pairs whose supports miss."""

    def __init__(self, periods: tuple[int, ...]):
        tables = [_axis_table(n) for n in periods]
        # bit fb of rows[i][fa]: axis i's table gives fa*fb a term.  Read
        # from the tables and not from `axis_meets`, so that a table with a
        # product on a non-meeting pair still shows it to E.
        rows = [
            [sum(1 << fb for fb in range(r) if table[fa * r + fb] is not None) for fa in range(r)]
            for table, r in zip(tables, (3 * n for n in periods))
        ]
        self._setup(tuple(periods), tables, rows)

    def _setup(self, periods: tuple[int, ...], tables: list, rows: list) -> PyKernel:
        """Set the kernel up on these per-axis tables and rows, which it
        keeps as they are, with empty memos and the Koszul signs."""
        self.periods = periods
        self.d = len(periods)
        self.radices = tuple(3 * n for n in periods)
        self.places = []
        p = 1
        for r in self.radices:
            self.places.append(p)
            p *= r
        self.code_bound = p
        self._tables = tables
        self._rows = rows
        self._meets = [axis_meets(n) for n in periods]
        self._cells: dict[int, CellRecord] = {}
        self._mult_cache: dict[int, tuple[tuple[int, int], ...]] = {}
        # one shared object per distinct product value; far fewer than keys
        self._values: dict[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]] = {}
        self._boundary_cache: dict[int, tuple[tuple[int, int], ...]] = {}
        # at (pa << d) | pb for the point-axis masks pa, pb of the two factors
        masks = range(1 << self.d)
        self._signs = [koszul_sign_of_points(pa, pb) for pa in masks for pb in masks]
        return self

    def axis(self, i: int) -> PyKernel:
        """The 1-d kernel on axis i's factor codes.  It shares that axis's
        table and rows, so a change made to them shows through it, and has
        the unit sign, so its product x*y is the entry P_i that `tensor()`
        reads and its boundary the 1-d boundary.  It is set up without
        `__init__`, which would build new tables, and afresh, with empty
        memos, on every call."""
        return object.__new__(PyKernel)._setup(
            self.periods[i : i + 1], [self._tables[i]], [self._rows[i]]
        )

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
        zero before `mult` reads its sign); and on every `axis` kernel a
        point times a point is zero, point-ness is additive (a term of x*y
        is a point exactly when x or y is), every product with a row bit is
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

        Then, with P_j the product x_j*y_j of the factor codes of a and b on
        axis j's `axis` kernel, every term of a*b has the point mask pa|pb
        and a*b = s(pa,pb) (P_1 x ... x P_d).  So the window laws are
        decided on the axis kernels, over a cell set that is a product over
        the axes, such as a window; associativity, commutativity and
        transversality hold when their law function holds on every axis
        kernel (`holds`):
        - a pair whose closed supports miss has a zero product and, since
          the boundary of a cell lies in its closed support, a zero
          product-rule residual;
        - with L_j and R_j the 1-d sides (x*y)*z and x*(y*z) on axis j,

              (a*b)*c = s(pa,pb) s(pa|pb,pc) (L_1 x ... x L_d)
              a*(b*c) = s(pb,pc) s(pa,pb|pc) (R_1 x ... x R_d).

          A triple whose point masks overlap has an axis where x*y or y*z
          is a point times a point, or where x, z and every term of x*y are
          points; there L_j == R_j == 0.  The cocycle equates the signs of
          every other triple (`associates`).  Closed supports meet when
          they meet on every axis, so the pairwise-meeting triples are the
          product over the axes of the pairwise-meeting triples of factor
          codes, and a decided scan counts them from one-axis counts;
        - with R_i the 1-d residual of (x_i, y_i), (I1) and (I2) make the
          residual of (a, b) s(pa,pb) times the sum over i of
          (-1)^|(pa|pb)<i| (P_1 x ... x R_i x ... x P_d).  The terms of
          summand i have the point mask pa|pb|i, so no two summands cancel:
          the residual is nonzero exactly when some axis has R_i != 0
          (`residual`) and every other axis a row bit (`residual_rows`),
          and the pairs are counted by a programme over the axes
          (`residual_counts`);
        - on disjoint masks s(pa,pb) s(pb,pa) = (-1)^(|pa||pb|): each point
          axis of a and each of b make an inversion in one order of the two.
          A point times a point is zero, so a*b = (-1)^(|pa||pb|) b*a when
          every axis has x*y == y*x (`commutes`);
        - a*b != 0 exactly when every axis has a row bit, so transversality
          holds when each axis's row bit is set exactly where x and y are
          transverse (`nonzero_iff_transverse`);
        - a symmetry carries target axis j from source axis s by a factor
          map img that keeps point-ness, so a cell's image has the point
          mask pi(pa), pi moving bit s to j, and the image of a*b is
          sigma(pa) sigma(pb) sigma(pa|pb) img(a*b) for its sign sigma by
          point mask.  When the target kernel has the fact too, that is the
          product of the images if every target axis has
          P'_j(img x, img y) == img(P_s(x, y)) and, on disjoint masks,
          s'(pi pa, pi pb) = sigma(pa) sigma(pb) sigma(pa|pb) s(pa,pb)
          (`covariant`);
        - crumbling keeps each factor's kind, so a crumbled cell keeps its
          point mask pa, and the image of a cell is the unsigned tensor
          product of its factors' 1-d images.  So crumble(a*b) is s(pa,pb)
          and crumble(a)*crumble(b) is the refined kernel's s'(pa,pb) times
          a tensor product of per-axis vectors: crumble(x_j*y_j) on one
          side, crumble(x_j)*crumble(y_j) on the other.  When the refined
          kernel has the fact too and the same unit sign, s and s' agree on
          disjoint masks, and overlapping masks give zero on both sides.
          The two boundary sides carry the same prefix-point signs, axis by
          axis.  So crumbling is a chain map and an algebra map when it is
          one on every axis (`crumbles_boundary`, `crumbles_product`,
          `crumbles`);
        - augment(a*c) sums the numerators of the point cells among the
          terms of a*c, which all have the point mask pa|pc.  A point times
          a point is zero, so it is nonzero only when pc = ~pa; then every
          term is a point cell, and the numerators of a tensor product sum
          to the product of the per-axis sums.  So the degree-p pairing
          matrix is block-diagonal by the row's point mask pa, whose block
          meets only the columns of mask ~pa, and that block is s(pa,~pa)
          times the Kronecker product over the axes of the 1-d blocks of
          those sums: point rows against stick columns on the axes in pa,
          stick rows against point columns on the others.  A Kronecker
          product has the product of its factors' ranks, so the rank is the
          sum over pa of those products (`pairing_rank`).
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
        return all(self._per_axis(_axis_tensor))

    def _per_axis(self, fact) -> list:
        """fact(`axis` kernel) for every axis; an axis with the same table
        and rows as an earlier one takes that axis's value."""
        axes = list(zip(self._tables, self._rows))
        out: list = []
        for i, key in enumerate(axes):
            first = axes.index(key)
            out.append(out[first] if first < i else fact(self.axis(i)))
        return out

    def holds(self, law, arity: int, size: int) -> bool:
        """Whether law(kernel, *cells), one of the window laws above, holds
        on every `arity`-tuple of the cells whose factor codes are all below
        `size`, decided without a product of them as `tensor()` shows: the
        fact holds and, on every `axis` kernel, so does the same law on
        every tuple of factor codes below `size`."""
        tuples = list(_iterproduct(range(size), repeat=arity))
        return self.tensor() and all(
            self._per_axis(lambda axis: all(law(axis, *codes) for codes in tuples))
        )

    def associative(self, size: int) -> bool:
        """`holds` for `associates` on triples."""
        return self.holds(associates, 3, size)

    def commutative(self, size: int) -> bool:
        """`holds` for `commutes` on pairs."""
        return self.holds(commutes, 2, size)

    def transversal(self, size: int) -> bool:
        """`holds` for `nonzero_iff_transverse` on pairs."""
        return self.holds(nonzero_iff_transverse, 2, size)

    def covariant(self, size: int, actions) -> bool:
        """Whether each symmetry of `actions` carries the product of every
        pair of the cells whose factor codes are all below `size` to the
        product of their images, decided without a product as `tensor()`
        shows.  An action is (target kernel, per target axis its source axis
        and factor map, the sign by point mask), as `verify._Symmetry` holds
        it: each factor map keeps the kind of every factor.  The `axis`
        kernels of this kernel and of each target are built once per call,
        and each distinct (source axis, target axis kernel, factor map) is
        compared once: D's permutations all have identity maps."""
        if not self.tensor():
            return False
        d, axes = self.d, {self: [self.axis(i) for i in range(self.d)]}
        masks = range(1 << d)
        disjoint = [(pa, pb) for pa in masks for pb in masks if not pa & pb]
        pairs, carried = list(_iterproduct(range(size), repeat=2)), set()
        for target, maps, signs in actions:
            if target not in axes:
                if not target.tensor():
                    return False
                axes[target] = [target.axis(j) for j in range(d)]
            pi = [sum(1 << j for j, (s, _) in enumerate(maps) if m >> s & 1) for m in masks]
            if any(
                target._signs[pi[pa] << d | pi[pb]]
                != signs[pa] * signs[pb] * signs[pa | pb] * self._signs[pa << d | pb]
                for pa, pb in disjoint
            ):
                return False
            for j, (s, img) in enumerate(maps):
                key = (s, target, j, tuple(img))
                if key in carried:
                    continue
                carried.add(key)
                source, image = axes[self][s], axes[target][j]
                for x, y in pairs:
                    moved = {img[u]: w for u, w in source.mult(x, y)}
                    if dict(image.mult(img[x], img[y])) != moved:
                        return False
        return True

    def crumbles(self, fine: PyKernel, size: int, crumbled: list) -> bool:
        """Whether crumbling onto `fine`, the kernel of the refined lattice,
        is a chain map on every cell and an algebra map on every pair of the
        cells whose factor codes are all below `size`, decided without a
        product of them as `tensor()` shows: both kernels have the fact and
        the same unit sign, and on every axis i `crumbles_boundary` and
        `crumbles_product` hold on the `axis` kernels of both, with
        crumbled[i] axis i's 1-d crumble map, for every factor code and
        every pair of factor codes below `size`."""
        if not (self.tensor() and fine.tensor() and self._signs[0] == fine._signs[0]):
            return False
        codes = range(size)
        for i, crumble in enumerate(crumbled):
            coarse, refined = self.axis(i), fine.axis(i)
            if not all(crumbles_boundary(coarse, refined, crumble, x) for x in codes):
                return False
            for x, y in _iterproduct(codes, repeat=2):
                if not crumbles_product(coarse, refined, crumble, x, y):
                    return False
        return True

    def pairing_rank(self, p: int) -> int | None:
        """The rank of the degree-p pairing matrix (`pairing.pairing_matrix`)
        decided per axis as `tensor()` shows: the sum over the row point
        masks pa with d - p bits of the product over the axes of the rank of
        the 1-d block, point rows on the axes in pa and stick rows on the
        others (`_axis_pairing_ranks`).  None unless `tensor()` holds."""
        if not self.tensor():
            return None
        ranks = self._per_axis(_axis_pairing_ranks)
        return sum(
            prod(rank[axis in pa] for axis, rank in enumerate(ranks))
            for pa in combinations(range(self.d), self.d - p)
        )

    def residual_rows(self) -> list[list[int]] | None:
        """Per axis and factor code x, the bitset of the factor codes y whose
        1-d product-rule residual is nonzero (`residual` on the `axis`
        kernel); None unless `tensor()` holds, under which these rows and
        `_rows` decide the residual of a pair of cells."""
        return self._per_axis(_axis_residuals) if self.tensor() else None

    def residual_masks(self, residuals: list[list[int]], codes: list[int]) -> Iterator[int]:
        """Per position i of `codes`, in order, the bitset of the positions j
        whose pair (codes[i], codes[j]) has a nonzero product-rule residual,
        decided by the `residual_rows` value `residuals`.  Each row is
        computed as it is drawn, so a caller holds only the rows it keeps.

        Per axis `cells.axis_gather` gathers each position's row and residual
        row, as it gathers `cells.meet_masks`' rows.  Axis by axis, `every`
        keeps the j with a row bit on every axis so far, and `one` those with
        a residual bit on one of them and row bits on the others."""
        axes = [
            (gather(rows), gather(axis))
            for gather, rows, axis in zip(axis_gather(codes, self.periods), self._rows, residuals)
        ]
        for pos in range(len(codes)):
            every, one = -1, 0
            for rows, bits in axes:
                one = one & rows[pos] | every & bits[pos]
                every &= rows[pos]
            yield one

    def residual_counts(self, residuals: list[list[int]], size: int) -> tuple[int, int]:
        """Over the ordered pairs of the cells whose factor codes are all
        below `size`, the number with a nonzero product-rule residual and no
        ideal cell, and the number with one and an ideal cell; decided by
        the `residual_rows` value `residuals`.

        Such a cell set is a product over the axes, and `residual_masks`'
        `every` and `one` are per axis, so a programme over the axes counts
        the pairs by the state (`every`, `one`, a or b ideal so far)."""
        states = {(True, False, False): 1}
        for rows, axis in zip(self._rows, residuals):
            step: dict[tuple[bool, bool, bool], int] = {}
            for x, y in _iterproduct(range(size), repeat=2):
                row, bit = bool(rows[x] >> y & 1), bool(axis[x] >> y & 1)
                ideal = INF in (x % 3, y % 3)
                for (every, one, was), count in states.items():
                    key = (every and row, one and row or every and bit, was or ideal)
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
        multiplied out through `self.mult` (`associates`).

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
                    if not associates(self, a, b, cells[k]):
                        violations.append((a, b, cells[k]))
        return checked, violations


def _axis_tensor(axis: PyKernel) -> bool:
    """The premises of `PyKernel.tensor` on one `axis` kernel."""
    (rows,), (meets,), (r,) = axis._rows, axis._meets, axis.radices
    points = sum(1 << fc for fc in range(POINT, r, 3))
    for x in range(r):
        if rows[x] & ~meets[x] or x % 3 == POINT and rows[x] & points:
            return False
        for y in bit_positions(rows[x]):
            xy, point = axis.mult(x, y), POINT in (x % 3, y % 3)
            if not xy or any((u % 3 == POINT) != point for u, _ in xy):
                return False
    return True


def _axis_residuals(axis: PyKernel) -> list[int]:
    """`PyKernel.residual_rows` on one `axis` kernel."""
    (r,) = axis.radices
    return [sum(1 << y for y in range(r) if residual(axis, x, y)) for x in range(r)]


def _axis_pairing_ranks(axis: PyKernel) -> tuple[int, int]:
    """The ranks of the two 1-d pairing blocks of one `axis` kernel, whose
    entry (x, y) sums the numerators of x*y: the stick rows against the
    point columns, then the point rows against the stick columns."""
    (r,) = axis.radices
    sums = [[sum(v for _, v in axis.mult(x, y)) for y in range(r)] for x in range(r)]
    return tuple(
        _eliminate([[sums[x][y] for y in range(other, r, 3)] for x in range(kind, r, 3)])[0]
        for kind, other in ((STICK, POINT), (POINT, STICK))
    )


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
