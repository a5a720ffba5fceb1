"""Axiom-verification harness.

Turns each algebraic law of the intersection product into a runnable,
reporting check over exhaustive windows (or seeded samples where the law
is quantified over infinitely many configurations).  Expected failures
are first-class: checks that pin a boundary of the theory (the product
rule off the non-ideal complex, the truncation limit, even-period
degeneracy, star versus crumbling) assert that the failure occurs and
record a witness; a missing failure is itself a violation.

A report fails when it counted a violation, is skipped when it examined
nothing (checked == 0), and passes otherwise.  Violations and witnesses
are recorded through `CheckReport.violate` and `.witness`, which keep the
first `_MAX_RECORDED` entries of each list and count every violation.
"""

from __future__ import annotations

import random
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from fractions import Fraction
from itertools import combinations, islice, permutations, product as _iterproduct
from math import comb, prod
from typing import Iterator, NamedTuple

from ._kernel_py import assoc_sides, kernel_for, linear, product_rule_residual, times
from .cells import (
    FactorKind,
    PairTable,
    axis_meets,
    bit_positions,
    code_is_ideal,
    code_kinds,
    decode_cell,
    join_code,
    pair_table,
    require_window,
    window_codes,
)
from .cells import encode_cell  # noqa: F401  (a traced site, see perfbench/tracing.py)
from .chain import Chain, augment
from .cuboid import (
    AxisEntry,
    Cuboid,
    axis_in_general_position,
    cuboid_to_chain,
    geometric_intersection,
    in_general_position,
)
from .grammar import format_chain, format_rational
from .homology import betti_full, betti_two_h_free, betti_two_h_span
from .lattice import LatticeSpec
from .pairing import pairing_matrix
from .product import crumble, crumble_code, product, require_odd_factor
from .truncation import kind_closure, max_ideal_dimension
from .twoh import TwoHCell, expand, star, two_h_basis

POINT, STICK, INF = FactorKind.POINT, FactorKind.STICK, FactorKind.INF_STICK

CHECK_ORDER = ["A", "B", "C", "D", "E", "F", "G", "H", "I", "J", "S6", "BETTI", "STAR"]

_MAX_RECORDED = 10

# F checks _PAIRS cuboid pairs whose edges have length 1.._MAX_EDGE, drawn
# from at most _MAX_ATTEMPTS; every period is at least _MAX_EDGE
_PAIRS = 200
_MAX_EDGE = 3
_MAX_ATTEMPTS = 100000


@dataclass
class CheckReport:
    """Outcome of one axiom check: failed if a violation was counted,
    skipped if nothing was examined, passed otherwise."""

    check_id: str
    description: str
    periods: tuple[int, ...]
    window: int | None = None
    seed: int | None = None
    checked: int = 0
    violations: list[dict] = field(default_factory=list)
    witnesses: list[dict] = field(default_factory=list)
    details: dict = field(default_factory=dict)
    elapsed: float = 0.0
    violation_count: int = 0

    @property
    def status(self) -> str:
        if self.violation_count:
            return "failed"
        return "skipped" if self.checked == 0 else "passed"

    @property
    def passed(self) -> bool:
        return self.status == "passed"

    def violate(self, kind: str, **fields) -> None:
        """Count a violation; record it while fewer than _MAX_RECORDED are."""
        self.violation_count += 1
        _record(self.violations, kind, fields)

    def witness(self, kind: str, **fields) -> None:
        """Record an expected failure while fewer than _MAX_RECORDED are."""
        _record(self.witnesses, kind, fields)

    def to_json_dict(self, include_timings: bool = False) -> dict:
        out = {
            "check": self.check_id,
            "description": self.description,
            "periods": list(self.periods),
            "window": self.window,
            "seed": self.seed,
            "checked": self.checked,
            "passed": self.passed,
            "status": self.status,
            "violation_count": self.violation_count,
            "violations": self.violations,
            "witnesses": self.witnesses,
            "details": self.details,
        }
        if include_timings:
            out["elapsed_seconds"] = round(self.elapsed, 6)
        return out


def _record(entries: list[dict], kind: str, fields: dict) -> None:
    """Append {"kind": kind, **fields} unless entries is full.  A callable
    field is called only here, so an entry that is not recorded costs no
    formatting."""
    if len(entries) < _MAX_RECORDED:
        entries.append({"kind": kind, **{k: v() if callable(v) else v for k, v in fields.items()}})


# ---------------------------------------------------------------------------
# shared helpers (integer-scaled chains keyed by encoded cells)


def _cell_str(code: int, lattice: LatticeSpec) -> str:
    return str(decode_cell(code, lattice))


def _chain_str(terms, lattice: LatticeSpec, scale: int) -> str:
    """Text of a chain given as numerators at `scale`, keyed by cell code."""
    chain = Chain._from_codes(lattice, {c: Fraction(v, scale) for c, v in terms.items()})
    return format_chain(chain)


def _leibniz_residual(kernel, a: int, b: int) -> dict[int, int]:
    """The kernel's product-rule residual of cells a and b, scaled 4**d."""
    return product_rule_residual(kernel.mult, kernel.boundary, a, b, _sign(_codim(kernel, a)))


def _residual_fields(kernel, lattice: LatticeSpec, a: int, b: int, replay=True):
    """`_cells` fields of a and b, and their residual, computed only if recorded."""
    fields = _cells(lattice, a, b, replay=replay)
    fields["residual"] = lambda: _chain_str(_leibniz_residual(kernel, a, b), lattice, 4**lattice.d)
    return fields


def _sign(codim: int) -> int:
    """(-1)**codim."""
    return -1 if codim % 2 else 1


def _codim(kernel, code: int) -> int:
    """The codimension of a multiplied cell, from the kernel's record of it."""
    return kernel.cell(code).points.bit_count()


def _commutes(ab, ba, sign: int) -> bool:
    """a*b == sign * b*a for the kernel's products ab and ba."""
    if sign == 1 and ab is ba:
        return True  # one product object: equal terms
    return dict(ab) == {c: sign * v for c, v in ba}


def _escapes(mult, a: int, b: int, closed, lattice: LatticeSpec) -> list[int]:
    """The cells of a*b whose kinds are not in `closed`."""
    return [c for c, _ in mult(a, b) if code_kinds(c, lattice) not in closed]


def _cells(lattice: LatticeSpec, *codes: int, replay: bool = True) -> dict:
    """Report fields "a", "b", "c" naming cells by code, plus the CLI replay
    of a*b; each is a callable, formatted only if the entry is recorded."""
    fields = {name: (lambda x=x: _cell_str(x, lattice)) for name, x in zip("abc", codes)}
    if replay:
        fields["replay"] = lambda: [
            "product",
            _cell_str(codes[0], lattice),
            _cell_str(codes[1], lattice),
            "--periods",
            ",".join(map(str, lattice.periods)),
        ]
    return fields


@lru_cache(maxsize=1)
def _assoc_scan(kernel, window: int) -> tuple[int, list[tuple[int, int, int]]]:
    """The window's associativity scan, made once for B and G together.
    When `PyKernel.associative` holds every triple holds, so the triples
    are only counted (`_meeting_counts`); otherwise each one is computed."""
    lattice = LatticeSpec(kernel.periods)
    if kernel.associative(_window_codes(lattice, window)):
        return _meeting_counts(lattice, window)[1], []
    return kernel.scan_assoc(_window(lattice, window))


@lru_cache(maxsize=1)
def _window_codes(lattice: LatticeSpec, window: int) -> tuple[int, ...]:
    """The window's `window_codes`, listed once for every check."""
    return tuple(window_codes(lattice, window))


@lru_cache(maxsize=1)
def _window(lattice: LatticeSpec, window: int) -> PairTable:
    """The window's `pair_table`, built once and shared by the pair walks
    and B's triple scan."""
    return pair_table(_window_codes(lattice, window), lattice)


def _partners(kernel, near: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """Per position i, the positions j of the ordered pairs (i, j) that a
    walk over every pair must compute.  Under the tensor fact
    (`PyKernel.tensor`) a pair whose supports miss has a zero product and a
    zero product-rule residual, so only `near[i]`; otherwise every j."""
    if kernel.tensor():
        return near
    return (tuple(range(len(near))),) * len(near)


def _residual_bits(kernel, codes) -> Iterator[int]:
    """Per position i, in order, the bitset of the positions j whose pair
    has a nonzero product-rule residual: `residual_masks`, or, on a kernel
    without the tensor fact, each pair's residual computed."""
    return kernel.residual_masks(codes) or (
        sum(1 << j for j, b in enumerate(codes) if _leibniz_residual(kernel, a, b)) for a in codes
    )


def _meeting_counts(lattice: LatticeSpec, window: int) -> tuple[int, int]:
    """(P, T) on the window: P the pairs `_meeting_pairs` yields, (M + N)/2
    for the M ordered meeting pairs of its N cells, and T the ordered
    triples whose supports meet pairwise.  The window holds every cell of
    factor codes below 3 * window and meeting is per axis, so M and T are
    products of one-axis counts."""
    size = 3 * window
    pairs = triples = 1
    for n in lattice.periods:
        rows = [axis_meets(n)[x] & (1 << size) - 1 for x in range(size)]
        pairs *= sum(row.bit_count() for row in rows)
        triples *= sum((row & rows[y]).bit_count() for row in rows for y in bit_positions(row))
    return (pairs + size**lattice.d) // 2, triples


def _meeting_pairs(win: PairTable) -> Iterator[tuple[int, int]]:
    """Positions (i, j), j >= i, of the window cells whose supports meet;
    i ascending, then j."""
    for i, row in enumerate(win.near):
        for j in row[bisect_left(row, i) :]:
            yield i, j


# ---------------------------------------------------------------------------
# individual checks


def check_commutativity(lattice: LatticeSpec, window: int) -> CheckReport:
    """Graded commutativity on the window pairs whose supports meet, each
    unordered pair once; decided per axis when `PyKernel.commutative`
    holds, else each pair's two products compared."""
    kernel = kernel_for(lattice.periods)
    report = CheckReport(
        "A",
        "graded commutativity: a*b = (-1)**(codim a * codim b) * b*a",
        lattice.periods,
        window,
    )
    if kernel.commutative(_window_codes(lattice, window)):
        report.checked = _meeting_counts(lattice, window)[0]
        return report
    win = _window(lattice, window)
    codes = win.codes
    codims = [_codim(kernel, c) for c in codes]
    mult = kernel.mult
    scale = 4 ** lattice.d
    for i, j in _meeting_pairs(win):
        a, b = codes[i], codes[j]
        sign = _sign(codims[i] * codims[j])
        ab, ba = mult(a, b), mult(b, a)
        report.checked += 1
        if not _commutes(ab, ba, sign):
            report.violate(
                "commutativity",
                **_cells(lattice, a, b),
                **{
                    "a*b": lambda: _chain_str(dict(ab), lattice, scale),
                    "b*a": lambda: _chain_str(dict(ba), lattice, scale),
                },
            )
    return report


def check_associativity(lattice: LatticeSpec, window: int) -> CheckReport:
    checked, bad = _assoc_scan(kernel_for(lattice.periods), window)
    report = CheckReport(
        "B",
        "associativity: (a*b)*c = a*(b*c), ordered triples with pairwise meeting supports",
        lattice.periods,
        window,
        checked=checked,
    )
    for a, b, c in bad:
        report.violate("associativity", **_cells(lattice, a, b, c))
    return report


def check_leibniz(lattice: LatticeSpec, window: int) -> CheckReport:
    """Product rule on the non-ideal complex; its failure off it is expected.

    Violations: any non-ideal pair with a nonzero residual, or the absence
    of any failing ideal pair (the enlarged complex must break the rule).
    """
    kernel = kernel_for(lattice.periods)
    report = CheckReport(
        "C",
        "boundary product rule on non-ideal cells; expected failure on ideal cells",
        lattice.periods,
        window,
    )
    codes = _window_codes(lattice, window)
    report.checked = len(codes) ** 2
    ideal = sum(1 << i for i, c in enumerate(codes) if code_is_ideal(c, lattice))
    # decided, the counts come first and the rows are drawn, in position
    # order, only until both record lists hold what they can
    counts = kernel.residual_counts(3 * window)
    full = counts and [min(count, _MAX_RECORDED) for count in counts]
    ideal_failures = 0
    for i, mask in enumerate(_residual_bits(kernel, codes)):
        if [len(report.violations), len(report.witnesses)] == full:
            break
        hit = mask if ideal >> i & 1 else mask & ideal
        ideal_failures += hit.bit_count()
        for j in bit_positions(mask & ~hit):
            report.violate("leibniz", **_residual_fields(kernel, lattice, codes[i], codes[j]))
        for j in islice(bit_positions(hit), _MAX_RECORDED - len(report.witnesses)):
            fields = _residual_fields(kernel, lattice, codes[i], codes[j])
            report.witness("leibniz-failure-on-ideal-cells", **fields)
    if counts is not None:
        # the rows left undrawn hold the rest of both counts
        report.violation_count, ideal_failures = counts
    report.details["ideal_pair_failures"] = ideal_failures
    if ideal_failures == 0:
        report.violate(
            "expected-failure-missing",
            note="no ideal pair broke the product rule; the enlarged complex must",
        )
    # canonical witness in one dimension: inf_stick * stick at the same coord
    if lattice.d == 1:
        a, b = join_code([(0, INF)], lattice), join_code([(0, STICK)], lattice)
        fields = _residual_fields(kernel, lattice, a, b, replay=False)
        witness = report.details["canonical_witness"] = {k: v() for k, v in fields.items()}
        expected = _chain_str({join_code([(0, POINT)], lattice): -1}, lattice, 4)  # -1/4 [p@0]
        if witness["residual"] != expected:
            report.violate("canonical-witness-mismatch", expected=expected, got=witness["residual"])
    return report


class _Symmetry(NamedTuple):
    """A lattice symmetry acting on cell codes by one table lookup per axis."""

    kind: str  # the violation kind it reports
    label: dict  # the violation field naming it: shift, axis or perm
    periods: tuple[int, ...]  # of the target lattice
    axes: list  # per target axis: (source axis, source factor code -> image factor code)
    signs: list[int]  # Koszul sign by the cell's point-axis mask


def _symmetries(lattice: LatticeSpec) -> list[_Symmetry]:
    """D's symmetries in report order: the unit and diagonal shifts, each
    axis's reflection, then every axis permutation but the identity, which
    lands on the lattice with permuted periods and is signed by its
    inversions among the point factors (odd in the codimension grading)."""
    out, axes = [], tuple(range(lattice.d))
    pairs, masks = list(combinations(axes, 2)), range(1 << lattice.d)

    def add(kind, label, sources, move):
        # move(s, coord, kind) is the image coordinate of a factor on source axis s
        periods = tuple(lattice.periods[s] for s in sources)
        maps = [
            (s, [move(s, *divmod(f, 3)) % n * 3 + f % 3 for f in range(3 * n)])
            for s, n in zip(sources, periods)
        ]
        to = [sources.index(s) for s in axes]
        signs = [_sign(sum(to[x] > to[y] for x, y in pairs if m >> x & m >> y & 1)) for m in masks]
        out.append(_Symmetry(kind, label, periods, maps, signs))

    for shift in [tuple(int(j == i) for j in axes) for i in axes] + [(1,) * lattice.d]:
        add("translation", {"shift": list(shift)}, axes, lambda s, c, k: c + shift[s])
    for x in axes:
        add("reflection", {"axis": x}, axes, lambda s, c, k: -c - (k == STICK) if s == x else c)
    for perm in list(permutations(axes))[1:]:  # the first is the identity
        add("permutation", {"perm": list(perm)}, perm, lambda s, c, k: c)
    return out


def check_symmetry(lattice: LatticeSpec, window: int) -> CheckReport:
    """Covariance of the product under translations, reflections and
    axis permutations (the latter with the Koszul sign of the permuted
    point factors): the product of the images is the image of the product.
    Decided per axis when `PyKernel.covariant` holds, else each meeting
    pair's images multiplied."""
    kernel = kernel_for(lattice.periods)
    report = CheckReport(
        "D",
        "invariance under lattice symmetries (translations, reflections, axis permutations)",
        lattice.periods,
        window,
    )
    symmetries = [(sym, kernel_for(sym.periods)) for sym in _symmetries(lattice)]
    actions = [(target, sym.axes, sym.signs) for sym, target in symmetries]
    if kernel.covariant(_window_codes(lattice, window), actions):
        report.checked = _meeting_counts(lattice, window)[0] * len(symmetries)
        return report
    win = _window(lattice, window)
    pairs = [(win.codes[i], win.codes[j]) for i, j in _meeting_pairs(win)]
    bases = [kernel.mult(a, b) for a, b in pairs]
    moved = {c: kernel.cell(c) for c in {*win.codes, *(c for base in bases for c, _ in base)}}
    actions = [
        (sym, target.mult, {
            code: (
                sum(img[cell.factors[s]] * p for (s, img), p in zip(sym.axes, target.places)),
                sym.signs[cell.points],
            )
            for code, cell in moved.items()
        })
        for sym, target in symmetries
    ]
    for (a, b), base in zip(pairs, bases):
        for sym, mult, images in actions:
            (ia, sa), (ib, sb) = images[a], images[b]
            expected = {}
            for c, v in base:
                ic, sc = images[c]
                expected[ic] = sa * sb * sc * v
            report.checked += 1
            if dict(mult(ia, ib)) != expected:
                report.violate(sym.kind, **_cells(lattice, a, b), **sym.label)
    return report


def check_transversality(lattice: LatticeSpec, window: int) -> CheckReport:
    """Product nonzero exactly on transverse pairs of basis cells: the closed
    supports meet and no axis is a point axis of both cells.  Decided per
    axis when `PyKernel.transversal` holds, else each pair multiplied."""
    kernel = kernel_for(lattice.periods)
    codes = _window_codes(lattice, window)
    report = CheckReport(
        "E",
        "product is nonzero exactly when supports meet and directions span",
        lattice.periods,
        window,
    )
    report.checked = len(codes) ** 2
    if kernel.transversal(codes):
        return report
    win = _window(lattice, window)
    points = [kernel.cell(c).points for c in codes]
    mult = kernel.mult
    for i, partners in enumerate(_partners(kernel, win.near)):
        a, mask, points_a = codes[i], win.masks[i], points[i]
        for j in partners:
            b = codes[j]
            nonzero = bool(mult(a, b))
            expected = bool(mask >> j & 1) and not (points_a & points[j])
            if nonzero != expected:
                report.violate(
                    "transversality",
                    **_cells(lattice, a, b),
                    product_nonzero=nonzero,
                    transverse=expected,
                )
    return report


def _axis_entries(n: int) -> list[AxisEntry]:
    """Every axis entry a draw can produce, by entry index: the points 0..n-1,
    then the intervals (a, a + length) by anchor a and length 1.._MAX_EDGE."""
    return [*range(n), *((a, a + length) for a in range(n) for length in range(1, _MAX_EDGE + 1))]


def general_position_pairs(
    lattice: LatticeSpec, seed: int, count: int
) -> tuple[list[tuple[Cuboid, Cuboid]], int]:
    """The first `count` seeded cuboid pairs in general position, and the
    number of pairs drawn for them (at most _MAX_ATTEMPTS).

    A cuboid is drawn axis by axis: an anchor below the period, then with
    probability 2/3 an interval of length 1.._MAX_EDGE from it, else the
    point at the anchor.  Each draw repeats getrandbits(k), k the bit length
    of its bound, until the value is below the bound, as Random.randrange
    does, so Random(seed) yields the pairs randrange draws would.  Draws are
    indices into per-axis tables of `axis_in_general_position`: a pair that
    fails on some axis builds no Cuboid, and `in_general_position` decides
    each pair that every axis accepts.
    """
    getrandbits = random.Random(seed).getrandbits
    edge_bits = _MAX_EDGE.bit_length()
    bounds = [(n, n.bit_length()) for n in lattice.periods]
    entries = [_axis_entries(n) for n in lattice.periods]
    tables = [
        [[axis_in_general_position(e1, e2, n) for e2 in axis] for e1 in axis]
        for n, axis in zip(lattice.periods, entries)
    ]

    def draw() -> list[int]:
        picks = []
        for n, bits in bounds:
            anchor = getrandbits(bits)
            while anchor >= n:
                anchor = getrandbits(bits)
            kind = getrandbits(2)
            while kind >= 3:
                kind = getrandbits(2)
            if kind:
                length = getrandbits(edge_bits)
                while length >= _MAX_EDGE:
                    length = getrandbits(edge_bits)
                picks.append(n + anchor * _MAX_EDGE + length)
            else:
                picks.append(anchor)
        return picks

    pairs: list[tuple[Cuboid, Cuboid]] = []
    attempts = 0
    while len(pairs) < count and attempts < _MAX_ATTEMPTS:
        attempts += 1
        picks1, picks2 = draw(), draw()
        if all(table[i][j] for table, i, j in zip(tables, picks1, picks2)):
            q1 = Cuboid(tuple(axis[i] for axis, i in zip(entries, picks1)))
            q2 = Cuboid(tuple(axis[j] for axis, j in zip(entries, picks2)))
            if in_general_position(q1, q2, lattice):
                pairs.append((q1, q2))
    return pairs, attempts


def check_general_position(lattice: LatticeSpec, seed: int) -> CheckReport:
    """Product of decomposed cuboids equals the geometric oracle on
    seeded random general-position pairs."""
    report = CheckReport(
        "F",
        "agreement with signed geometric intersection in general position",
        lattice.periods,
        seed=seed,
    )
    if lattice.d != 3:
        report.details["skipped"] = "general-position sampling is defined for 3-d lattices"
        return report
    pairs, attempts = general_position_pairs(lattice, seed, _PAIRS)
    for q1, q2 in pairs:
        got = product(cuboid_to_chain(q1, lattice), cuboid_to_chain(q2, lattice))
        expected = geometric_intersection(q1, q2, lattice)
        report.checked += 1
        if got != expected:
            report.violate(
                "general-position",
                q1=str(q1),
                q2=str(q2),
                product=lambda: format_chain(got),
                oracle=lambda: format_chain(expected),
            )
    report.details["attempts"] = attempts
    if report.checked < _PAIRS:
        report.violate("sampling", note=f"only {report.checked} general-position pairs found")
    return report


def check_pairing(lattice: LatticeSpec, window: int) -> CheckReport:
    """Frobenius associativity of the pairing plus nondegeneracy on the
    non-ideal bases (the latter holds exactly for odd periods, so even
    periods make this check fail by design)."""
    kernel = kernel_for(lattice.periods)
    report = CheckReport(
        "G",
        "Frobenius pairing <a*b,c> = <a,b*c>; nondegeneracy on non-ideal bases",
        lattice.periods,
        window,
    )
    # <a*b,c> = <a,b*c> augments (a*b)*c = a*(b*c) over B's triples; the
    # arithmetic is exact, so only triples breaking associativity can break it
    report.checked, bad = _assoc_scan(kernel, window)
    for a, b, c in bad:
        lhs, rhs = assoc_sides(kernel.mult, a, b, c)
        if augment(Chain._from_codes(lattice, lhs)) != augment(Chain._from_codes(lattice, rhs)):
            report.violate("frobenius", **_cells(lattice, a, b, c, replay=False))
    # nondegeneracy per degree (p and d-p share a rank via transposition);
    # the matrix is built when its rank is not decided per axis, and in
    # one dimension, where its determinant is read
    degeneracy = []
    for p in range(lattice.d // 2 + 1):
        rank = kernel.pairing_rank(p) if lattice.d > 1 else None
        if rank is None:
            mat = pairing_matrix(p, lattice)
            rank = mat.rank
        # the bases of degrees p and d - p have this many cells each
        size = comb(lattice.d, p) * prod(lattice.periods)
        entry = {"degree": p, "size": size, "rank": rank, "nondegenerate": rank == size}
        if lattice.d == 1 and p == 0:
            entry["det"] = format_rational(mat.determinant)
            n1 = lattice.periods[0]
            closed_form = Fraction(2) ** (1 - n1) if n1 % 2 else Fraction(0)
            entry["det_closed_form"] = format_rational(closed_form)
            if mat.determinant != closed_form:
                report.violate(
                    "pairing-determinant",
                    degree=p,
                    got=entry["det"],
                    expected=entry["det_closed_form"],
                )
        degeneracy.append(entry)
        report.checked += 1
        if not entry["nondegenerate"]:
            report.violate(
                "degenerate-pairing",
                degree=p,
                rank=entry["rank"],
                size=size,
                note="nondegeneracy requires every period to be odd",
            )
    report.details["degrees"] = degeneracy
    report.details["all_periods_odd"] = all(n % 2 for n in lattice.periods)
    return report


def check_fc_subalgebra(lattice: LatticeSpec, window: int) -> CheckReport:
    """Closure and unrestricted product rule on the 3-d subalgebra generated
    by cells of dimension <= 2 (non-ideal cells plus ideal sticks)."""
    report = CheckReport(
        "H",
        "product rule holds without restriction on the dimension<=2 subalgebra",
        lattice.periods,
        window,
    )
    if lattice.d != 3:
        report.details["skipped"] = "the H subalgebra lives in three dimensions"
        return report
    kernel = kernel_for(lattice.periods)
    closed = kind_closure(3, 2)
    codes = window_codes(lattice, window, closed)
    report.details["member_kinds"] = sorted(
        "".join("psi"[int(k)] for k in t) for t in closed
    )
    report.checked = len(codes) ** 2
    masks = list(_residual_bits(kernel, codes))
    for i, partners in enumerate(_partners(kernel, pair_table(codes, lattice).near)):
        a = codes[i]
        for j in partners:
            b = codes[j]
            # closure: every product cell stays in the subalgebra's span
            for c in _escapes(kernel.mult, a, b, closed, lattice):
                report.violate(
                    "closure",
                    **_cells(lattice, a, b, replay=False),
                    escapes=lambda: _cell_str(c, lattice),
                )
            if masks[i] >> j & 1:
                report.violate("leibniz", **_residual_fields(kernel, lattice, a, b))
    return report


def check_crumbling(lattice: LatticeSpec, window: int, k: int) -> CheckReport:
    """The refinement map is a chain map and an algebra map.  Raises
    ValueError for an even or non-positive k (`product.require_odd_factor`)."""
    require_odd_factor(k)
    report = CheckReport(
        "J",
        f"crumbling (k={k}) commutes with the boundary and the product",
        lattice.periods,
        window,
        details={"k": k},
    )
    kernel = kernel_for(lattice.periods)
    fine_lattice = lattice.refined(k)
    fine = kernel_for(fine_lattice.periods)
    scale = 4 ** lattice.d

    @lru_cache(maxsize=None)
    def crumbled(code: int) -> list[tuple[int, int]]:
        return crumble_code(code, lattice, k)

    win = _window(lattice, window)
    # chain map: boundary commutes
    for a in win.codes:
        report.checked += 1
        if linear(crumbled(a), fine.boundary) != linear(kernel.boundary(a), crumbled):
            report.violate("crumble-boundary", **_cells(lattice, a, replay=False))
    # algebra map: product commutes
    for i, j in _meeting_pairs(win):
        a, b = win.codes[i], win.codes[j]
        report.checked += 1
        if linear(kernel.mult(a, b), crumbled) != times(fine.mult, crumbled(a), crumbled(b)):
            report.violate("crumble-product", **_cells(lattice, a, b))
    # telescoping identity for a refined self-overlapping stick, one dimension
    if lattice.d == 1:
        a = join_code([(0, STICK)], lattice)
        fine_side = times(fine.mult, crumbled(a), crumbled(a))
        expected = {join_code([(j, STICK)], fine_lattice): scale for j in range(k)}
        expected[join_code([(0, INF)], fine_lattice)] = -scale
        expected[join_code([(k % fine_lattice.periods[0], INF)], fine_lattice)] = -scale
        report.details["telescoping"] = _chain_str(fine_side, fine_lattice, scale)
        if fine_side != expected:
            report.violate(
                "telescoping",
                expected=_chain_str(expected, fine_lattice, scale),
                got=report.details["telescoping"],
            )
    return report


# (n, m, sample) of S6: the truncation of the n-torus of period 5 at level m,
# every ordered pair of its window-2 cells or `sample` seeded meeting pairs
_TRUNCATION_CASES = [(4, 2, None), (4, 3, None), (5, 3, 1200), (6, 4, 600)]


def _truncation_case(report, rng, n: int, m: int, sample: int | None) -> dict:
    """One S6 case.  Past the bound 3m <= 2n the product rule must break:
    the first witness ends the walk.  Within the bound every pair walked
    keeps closure and the product rule, and then commutativity (over the
    pairs computed, or the first quarter of a sample) and associativity (on
    a seeded third cell for the first 200 pairs) hold."""
    lattice = LatticeSpec((5,) * n)
    kernel = kernel_for(lattice.periods)
    closed = kind_closure(n, m)
    must_fail = 3 * m > 2 * n
    ideal_dim = max_ideal_dimension(closed)
    bound = 2 * m - n
    case = {
        "n": n,
        "m": m,
        "max_ideal_dimension": ideal_dim,
        "ideal_dimension_bound": bound if bound >= 1 else None,
        "pairs": 0,
        "triples": 0,
    }
    if ideal_dim is not None and ideal_dim > bound:
        report.violate(
            "ideal-dimension-bound", n=n, m=m, max_ideal_dimension=ideal_dim, bound=bound
        )
    cells = window_codes(lattice, 2, closed)
    if sample is None:
        # every ordered pair of order x cells, ideal cells first when the
        # rule must break (it breaks on pairs touching them), streamed: the
        # walk stops at its first witness.  Under the tensor fact a pair
        # whose supports miss keeps every law, so only the meeting pairs.
        listed = cells
        order = range(len(cells))
        if must_fail:
            order = sorted(order, key=lambda i: not code_is_ideal(cells[i], lattice))
        rows = _partners(kernel, pair_table(cells, lattice).near)
        case["pairs"] = commuted = len(cells) ** 2
        walk = (
            (r * len(cells) + j, cells[i], cells[j]) for r, i in enumerate(order) for j in rows[i]
        )
        firsts = list(islice(_iterproduct(cells, repeat=2), 200))
    else:
        # the first `sample` meeting pairs of at most 100 * sample draws
        draws = ((rng.choice(cells), rng.choice(cells)) for _ in range(100 * sample))
        drawn = list(islice(((a, b) for a, b in draws if kernel.supports_intersect(a, b)), sample))
        listed = list(dict.fromkeys(c for ab in drawn for c in ab))
        case["pairs"], commuted = len(drawn), max(1, len(drawn) // 4)
        walk = ((k, a, b) for k, (a, b) in enumerate(drawn))
        firsts = drawn[: min(commuted, 200)]
    # the residual bits of the pairs' cells, by position
    at = {c: k for k, c in enumerate(listed)}
    masks = kernel.residual_masks(listed)
    masks = masks and list(masks)
    commuting = []
    for position, a, b in walk:
        escapes = _escapes(kernel.mult, a, b, closed, lattice)
        if escapes:
            report.violate(
                "closure",
                n=n,
                m=m,
                **_cells(lattice, a, b, replay=False),
                escapes=lambda: _cell_str(escapes[0], lattice),
            )
        i, j = at[a], at[b]
        if masks[i] >> j & 1 if masks else _leibniz_residual(kernel, a, b):
            fields = _residual_fields(kernel, lattice, a, b, must_fail)
            if must_fail:
                report.witness("leibniz-failure", n=n, m=m, **fields)
                case["pairs"] = position + 1
                break
            report.violate("leibniz", n=n, m=m, **fields)
        if not must_fail and position < commuted:
            commuting.append((a, b))
    else:
        if must_fail:
            report.violate(
                "expected-failure-missing",
                n=n,
                m=m,
                note="truncating one past the bound must break the product rule",
            )
    report.checked += case["pairs"]
    if must_fail:
        return case
    # a pair left out of the walk has two zero products
    for a, b in commuting:
        ab, ba = kernel.mult(a, b), kernel.mult(b, a)
        if not _commutes(ab, ba, _sign(_codim(kernel, a) * _codim(kernel, b))):
            report.violate("commutativity", n=n, m=m, **_cells(lattice, a, b, replay=False))
    for a, b in firsts:
        c = rng.choice(cells)
        if kernel.supports_intersect(a, c) and kernel.supports_intersect(b, c):
            case["triples"] += 1
            report.checked += 1
            lhs, rhs = assoc_sides(kernel.mult, a, b, c)
            if lhs != rhs:
                report.violate("associativity", n=n, m=m, **_cells(lattice, a, b, c, replay=False))
    return case


def check_truncation(seed: int) -> CheckReport:
    """The truncation bound: m = floor(2n/3) is the last level where the
    generated subalgebra keeps closure, commutativity, associativity and
    the product rule; one level higher must produce a product-rule
    violation (witnessed for n=4, m=3)."""
    report = CheckReport(
        "S6",
        "truncation subalgebras: n=4 m=2 clean, n=4 m=3 fails, n=5 m=3 and n=6 m=4 hold",
        (),
        seed=seed,
    )
    rng = random.Random(seed)
    for n, m, sample in _TRUNCATION_CASES:
        report.details[f"n{n}m{m}"] = _truncation_case(report, rng, n, m, sample)

    # six-dimensional smoke value: triple product of three 4-cuboids crossing
    # along complementary axis pairs augments to exactly 1
    lattice6 = LatticeSpec((5,) * 6)
    qa = Cuboid(((0, 2), (0, 2), (0, 2), (0, 2), 1, 1))
    qb = Cuboid(((0, 2), (0, 2), 1, 1, (0, 2), (0, 2)))
    qc = Cuboid((1, 1, (0, 2), (0, 2), (0, 2), (0, 2)))
    a6 = cuboid_to_chain(qa, lattice6)
    b6 = cuboid_to_chain(qb, lattice6)
    c6 = cuboid_to_chain(qc, lattice6)
    smoke = augment(product(product(a6, b6), c6))
    report.details["augmented_triple_product_6d"] = format_rational(smoke)
    report.checked += 1
    if smoke != 1:
        report.violate("augmented-triple-product", expected="1", got=format_rational(smoke))
    return report


def check_betti(lattice: LatticeSpec) -> CheckReport:
    """Betti numbers of the full complex and the 2h span subcomplex.

    The full complex must give the torus numbers (1,3,3,1).  The span
    subcomplex is compared against the claim of one homology copy per
    mod-two vertex class (2**(number of even periods) copies); a mismatch
    is flagged as a paper-claim discrepancy, with the free-basis variant
    reported as a diagnostic.
    """
    report = CheckReport(
        "BETTI",
        "rational Betti numbers of the h complex and the 2h subcomplex",
        lattice.periods,
    )
    if lattice.d != 3:
        report.details["skipped"] = "Betti checks are defined for 3-d lattices"
        return report
    full = betti_full(lattice)
    report.details["full_h"] = list(full)
    report.checked += 1
    if full != (1, 3, 3, 1):
        report.violate("betti-full", expected=[1, 3, 3, 1], got=list(full))
    span = betti_two_h_span(lattice)
    copies = 2 ** sum(1 for n in lattice.periods if n % 2 == 0)
    claim = tuple(copies * b for b in (1, 3, 3, 1))
    report.details["two_h_span"] = list(span)
    report.details["claimed"] = list(claim)
    report.details["homology_copies_claimed"] = copies
    report.checked += 1
    if span != claim:
        free = betti_two_h_free(lattice)
        report.details["two_h_free_basis"] = list(free)
        report.violate(
            "paper-claim-discrepancy",
            claimed=list(claim),
            computed_span=list(span),
            free_basis_variant=list(free),
            note=(
                "the claimed copies appear in the free module on 2h cells; "
                "expanded in the h-complex the 2h cells become dependent for "
                "even periods and part of the claimed homology collapses"
            ),
        )
    return report


def check_star(lattice: LatticeSpec, k: int) -> CheckReport:
    """Star duality on 2h cells, and the expected failure of star/crumble
    compatibility (witnessed explicitly)."""
    report = CheckReport(
        "STAR",
        "star involution and bijection; star does not commute with crumbling",
        lattice.periods,
        details={"k": k},
    )
    if lattice.d != 3:
        report.details["skipped"] = "the star operator is defined for 3-d lattices"
        return report
    bases = [two_h_basis(p, lattice) for p in range(4)]
    for p, basis in enumerate(bases):
        images = set()
        for cell in basis:
            dual = star(cell, lattice)
            report.checked += 1
            if star(dual, lattice) != cell:
                report.violate("star-involution", cell=str(cell))
            if dual.dimension != 3 - p:
                report.violate("star-degree", cell=str(cell))
            images.add(dual)
        if sorted(images, key=TwoHCell.sort_key) != bases[3 - p]:
            report.violate("star-bijection", degree=p)
    # per-vertex counts (1,3,3,1)
    vertices = lattice.periods[0] * lattice.periods[1] * lattice.periods[2]
    counts = [len(basis) // vertices for basis in bases]
    report.details["cells_per_vertex"] = counts
    if counts != [1, 3, 3, 1]:
        report.violate("two-h-counts", got=counts)

    # star/crumble non-commutation witness
    fine_lattice = lattice.refined(k)
    c = TwoHCell((1, 1, 1), frozenset({0}))
    coarse_then_star = crumble(expand(star(c, lattice), lattice), k)
    fine_chain = crumble(expand(c, lattice), k)
    # decompose the crumbled cell into fine 2h cells (a k**p grid of them)
    offsets = range(1 - k, k, 2)
    fine_center = tuple(v * k for v in c.center)
    fine_cells = []
    for combo in _iterproduct(*(offsets if i in c.directions else [0] for i in range(3))):
        center = tuple(
            (fine_center[i] + combo[i]) % fine_lattice.periods[i] for i in range(3)
        )
        fine_cells.append(TwoHCell(center, c.directions))
    recombined = Chain.zero(fine_lattice)
    for fc in fine_cells:
        recombined = recombined + expand(fc, fine_lattice)
    report.checked += 1
    if recombined != fine_chain:
        report.violate(
            "fine-decomposition", note="crumbled 2h cell failed to decompose into fine 2h cells"
        )
    star_then = Chain.zero(fine_lattice)
    for fc in fine_cells:
        star_then = star_then + expand(star(fc, fine_lattice), fine_lattice)
    report.checked += 1
    if star_then == coarse_then_star:
        report.violate(
            "expected-failure-missing",
            note="star and crumbling commuted on the witness cell; they must not",
        )
    else:
        report.witness(
            "star-crumble-non-commutation",
            cell=str(c),
            crumble_of_star=format_chain(coarse_then_star),
            fine_star_of_crumble=format_chain(star_then),
        )
    return report


# ---------------------------------------------------------------------------
# driver


def _normalize_axioms(axioms) -> list[str]:
    if axioms is None:
        return list(CHECK_ORDER)
    if isinstance(axioms, str):
        axioms = axioms.split(",")
    out = []
    for token in axioms:
        t = token.strip().upper() if isinstance(token, str) else token
        if t == "":
            continue
        if t == "ALL":
            return list(CHECK_ORDER)
        if t not in CHECK_ORDER:
            raise ValueError(f"unknown axiom id {token!r}; valid: {', '.join(CHECK_ORDER)}")
        out.append(t)
    if not out:
        raise ValueError("no axiom ids given")
    return list(dict.fromkeys(out))  # each id once, at its first place


# check id -> runner(lattice, window, seed, k).  Each runner looks its check
# up by module-level name when it is called, so a patched `check_*` runs.
_RUNNERS = {
    "A": lambda lattice, window, seed, k: check_commutativity(lattice, window),
    "B": lambda lattice, window, seed, k: check_associativity(lattice, window),
    "C": lambda lattice, window, seed, k: check_leibniz(lattice, window),
    "D": lambda lattice, window, seed, k: check_symmetry(lattice, window),
    "E": lambda lattice, window, seed, k: check_transversality(lattice, window),
    "F": lambda lattice, window, seed, k: check_general_position(lattice, seed),
    "G": lambda lattice, window, seed, k: check_pairing(lattice, window),
    "H": lambda lattice, window, seed, k: check_fc_subalgebra(lattice, window),
    "J": lambda lattice, window, seed, k: check_crumbling(lattice, window, k),
    "S6": lambda lattice, window, seed, k: check_truncation(seed),
    "BETTI": lambda lattice, window, seed, k: check_betti(lattice),
    "STAR": lambda lattice, window, seed, k: check_star(lattice, k),
}

# (I): the constructed product realises the minimal extension; verified as
# "the construction satisfies A-F", so those checks run whenever I does.
_I_DEPENDS_ON = ["A", "B", "C", "D", "E", "F"]


def verify_axioms(
    periods: tuple[int, ...],
    axioms=None,
    window: int = 2,
    seed: int = 0,
    k: int = 3,
) -> list[CheckReport]:
    """Run the selected checks; reports are sorted by check id.

    Raises ValueError for a window outside 1..min(periods) (wider windows
    overflow the kernel's cell codes) and for an even or non-positive k.
    """
    lattice = LatticeSpec(tuple(periods))
    require_window(lattice, window)
    require_odd_factor(k)
    ids = _normalize_axioms(axioms)
    want_i = "I" in ids
    if want_i:
        ids += [dep for dep in _I_DEPENDS_ON if dep not in ids]
    reports: dict[str, CheckReport] = {}
    for check_id in ids:
        if check_id == "I":
            continue
        t0 = time.perf_counter()
        rep = _RUNNERS[check_id](lattice, window, seed, k)
        rep.elapsed = time.perf_counter() - t0
        reports[check_id] = rep
    if want_i:
        t0 = time.perf_counter()
        rep = CheckReport(
            "I",
            "existence side of minimal uniqueness: the construction satisfies A-F",
            lattice.periods,
            window,
            seed,
        )
        rep.details["depends_on"] = list(_I_DEPENDS_ON)
        failed = [d for d in _I_DEPENDS_ON if reports[d].status == "failed"]
        if failed:
            rep.violate("dependency-failed", checks=failed)
        skipped = [d for d in _I_DEPENDS_ON if reports[d].status == "skipped"]
        if skipped:
            rep.details["skipped"] = f"depends on skipped checks: {','.join(skipped)}"
        else:
            rep.checked = len(_I_DEPENDS_ON)
        rep.elapsed = time.perf_counter() - t0
        reports["I"] = rep
    return [reports[i] for i in sorted(reports)]
