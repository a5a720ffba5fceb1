"""Exact rational linear algebra: rank and determinant.

`rank` is sparse exact elimination over the integers (Dumas, Saunders and
Villard, JSC 2001): each row is scaled to integers by the lcm of its
denominators, the sparsest remaining row is taken as the pivot, and every
updated row is divided by its content, so no `Fraction` enters the inner
loop and no floating point appears anywhere.  The boundary, expansion and
pairing matrices here are mostly zeros, so work follows the nonzeros, not
the shape.

`det` keeps dense fraction-free (Bareiss) elimination, whose last pivot
is the determinant; `_eliminate` also serves the tests as a rank oracle.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd, lcm
from typing import Hashable, Mapping, Sequence

Number = Fraction | int
Row = Sequence[Number] | Mapping[Hashable, Number]


def _integer_rows(mat: Sequence[Sequence[Number]]) -> tuple[list[list[int]], Fraction]:
    """Scale each row to integers; returns rows and the product of scalings."""
    rows: list[list[int]] = []
    scaling = Fraction(1)
    for row in mat:
        fracs = [Fraction(x) for x in row]
        mult = lcm(*(f.denominator for f in fracs)) if fracs else 1
        scaling *= mult
        rows.append([int(f * mult) for f in fracs])
    return rows, scaling


def _eliminate(rows: list[list[int]]) -> tuple[int, int, int]:
    """Fraction-free row echelon reduction in place.

    Returns (rank, sign from row swaps, last pivot value).
    """
    if not rows or not rows[0]:
        return 0, 1, 1
    n_rows, n_cols = len(rows), len(rows[0])
    rank = 0
    sign = 1
    prev = 1
    for col in range(n_cols):
        pivot = None
        for i in range(rank, n_rows):
            if rows[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            sign = -sign
        pv = rows[rank][col]
        rr = rows[rank]
        for i in range(rank + 1, n_rows):
            ri = rows[i]
            f = ri[col]
            # full Bareiss update; the division by the previous pivot is exact
            for j in range(col, n_cols):
                ri[j] = (ri[j] * pv - f * rr[j]) // prev
        prev = pv
        rank += 1
        if rank == n_rows:
            break
    return rank, sign, prev


def _sparse_integer_row(row: Row) -> dict[Hashable, int]:
    """Nonzero entries of one row, scaled to integers by their denominator lcm."""
    items = row.items() if isinstance(row, Mapping) else enumerate(row)
    entries = {c: x for c, x in items if x}
    mult = lcm(*(x.denominator for x in entries.values()))
    return {c: int(x * mult) for c, x in entries.items()}


def rank(mat: Sequence[Row]) -> int:
    """Rank of a matrix given by its rows.

    A row is a sequence of entries or a {column: entry} mapping; column
    labels may be any hashable values shared between rows.
    """
    rows = dict(enumerate(filter(None, map(_sparse_integer_row, mat))))
    holders: dict[Hashable, set[int]] = {}  # column -> ids of rows nonzero there
    for rid, row in rows.items():
        for c in row:
            holders.setdefault(c, set()).add(rid)
    heap = [(len(row), rid) for rid, row in rows.items()]
    heapq.heapify(heap)
    r = 0
    while heap:
        size, pid = heapq.heappop(heap)
        prow = rows.get(pid)
        if prow is None or len(prow) != size:
            continue  # stale heap entry: the row was eliminated or changed
        del rows[pid]
        r += 1
        # smallest entry, then the column fewest other rows must clear
        col = min(prow, key=lambda c: (abs(prow[c]), len(holders[c])))
        pv = prow[col]
        for c in prow:
            holders[c].discard(pid)
        for rid in holders.pop(col):
            row = rows[rid]
            g = gcd(pv, row[col])
            a, b = pv // g, row[col] // g
            if a < 0:
                a, b = -a, -b
            if a != 1:
                for c in row:
                    row[c] *= a
            # row <- a*row - b*prow; the pivot column cancels
            for c, v in prow.items():
                x = row.get(c, 0) - b * v
                if x:
                    if c not in row:
                        holders[c].add(rid)
                    row[c] = x
                elif c in row:
                    del row[c]
                    if c != col:
                        holders[c].discard(rid)
            if not row:
                del rows[rid]
                continue
            content = gcd(*row.values())
            if content != 1:
                for c in row:
                    row[c] //= content
            heapq.heappush(heap, (len(row), rid))
    return r


def det(mat: Sequence[Sequence[Number]]) -> Fraction:
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("determinant requires a square matrix")
    if n == 0:
        return Fraction(1)
    rows, scaling = _integer_rows(mat)
    r, sign, last_pivot = _eliminate(rows)
    if r < n:
        return Fraction(0)
    return Fraction(sign * last_pivot) / scaling


# unused by the package; kept as a traced site, see perfbench/tracing.py
def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    """Dense integer matrix product."""
    if not a:
        return []
    inner = len(b)
    cols = len(b[0]) if b else 0
    bt = [[b[k][j] for k in range(inner)] for j in range(cols)]
    out = []
    for row in a:
        assert len(row) == inner
        out.append([sum(row[k] * col[k] for k in range(inner)) for col in bt])
    return out
