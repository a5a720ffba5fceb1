"""The pure kernel against its oracles, and one kernel per lattice."""

import importlib.util
import random
from fractions import Fraction
from itertools import product as iterproduct
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubalg import _kernel_py
from cubalg._kernel_py import PyKernel, kernel_for
from cubalg.cells import (
    Cell,
    FactorKind,
    axis_meets,
    decode_cell,
    encode_cell,
    pair_table,
    window_codes,
)
from cubalg.lattice import MAX_DIMENSION, LatticeSpec
from cubalg.table1d import CoefficientTable, mult1, mult1_terms


# -- one kernel per lattice -------------------------------------------------


def test_kernel_for_keys_on_the_periods_alone():
    p = (3, 3, 3)
    assert kernel_for(p) is kernel_for(p, None) is kernel_for([3, 3, 3])
    assert kernel_for(p) is not kernel_for((3, 3, 5))
    with pytest.raises(ValueError, match="unknown backend 'compiled'"):
        kernel_for(p, "compiled")


def test_six_dimensional_product_reuses_the_truncation_kernel(monkeypatch):
    # S6 builds the (5,)*6 kernel for its n=6 case, then multiplies 6-d
    # chains for its smoke value; both must use that one kernel
    from cubalg.verify import check_truncation

    built = []

    class Counted(PyKernel):
        def __init__(self, periods):
            built.append(tuple(periods))
            super().__init__(periods)

    monkeypatch.setattr(_kernel_py, "PyKernel", Counted)
    kernel_for.cache_clear()
    try:
        assert check_truncation(0).passed
    finally:
        kernel_for.cache_clear()
    assert built.count((5,) * 6) == 1
    assert sorted(built) == sorted(set(built))


# -- the pure kernel's memoized scan, products and boundaries ---------------


def scan(kernel, cells):
    """kernel.scan_assoc over the pair table of `cells`."""
    return kernel.scan_assoc(pair_table(cells, LatticeSpec(kernel.periods)))


def window_scan(kernel, window):
    """B's scan of the window cells: counted per axis when `associative`
    holds, else walked."""
    from cubalg.verify import _assoc_scan

    return _assoc_scan(kernel, window)


def per_triple_scan(kernel, cells):
    """The associativity scan as one independent loop per triple: the
    oracle for scan_assoc."""
    n = len(cells)
    masks = [0] * n
    for i in range(n):
        for j in range(i, n):
            if kernel.supports_intersect(cells[i], cells[j]):
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    checked = 0
    violations = []
    for i, a in enumerate(cells):
        for j, b in enumerate(cells):
            if not masks[i] >> j & 1:
                continue
            p_ab = kernel.mult(a, b)
            for k, c in enumerate(cells):
                if not (masks[i] & masks[j]) >> k & 1:
                    continue
                lhs, rhs = {}, {}
                for u, w1 in p_ab:
                    for v, w2 in kernel.mult(u, c):
                        lhs[v] = lhs.get(v, 0) + w1 * w2
                for u, w1 in kernel.mult(b, c):
                    for v, w2 in kernel.mult(a, u):
                        rhs[v] = rhs.get(v, 0) + w1 * w2
                checked += 1
                if {v: w for v, w in lhs.items() if w} != {v: w for v, w in rhs.items() if w}:
                    violations.append((a, b, c))
    return checked, violations


def doubled_entry_kernel(periods, window, seed):
    """A pure kernel with one seeded nonzero 1-d table entry doubled, among
    the entries of two factors anchored in the window."""
    kernel = PyKernel(periods)
    rng = random.Random(seed)
    axis = rng.randrange(len(periods))
    table, size = kernel._tables[axis], 3 * periods[axis]
    slot = rng.choice(
        [k for k, terms in enumerate(table) if terms and max(k // size, k % size) < 3 * window]
    )
    table[slot] = tuple((fc, 2 * w) for fc, w in table[slot])
    return kernel


def kind_changed_kernel(periods, window, seed):
    """A pure kernel whose last axis (seed 0) or first axis (seed 1) gives
    i@0 * i@0 = epsilon p@0: a point term from two factors that are not
    points.  Point factors of c below that axis, or of a above it, give
    the wrong point mask a Koszul sign of its own."""
    kernel = PyKernel(periods)
    axis = [-1, 0][seed]
    point, inf = 0, 2  # the factor codes 3 * coord + kind at coord 0
    table, size = kernel._tables[axis], 3 * periods[axis]
    ((fc, w),) = table[inf * size + inf]
    assert fc == inf
    table[inf * size + inf] = ((point, w),)
    return kernel


def sign_flipped_kernel(periods, window, seed):
    """A pure kernel whose Koszul sign for a cell without point axes times a
    cell whose only point axis is axis 0 is -1."""
    kernel = PyKernel(periods)
    kernel._signs[1] = -kernel._signs[1]
    return kernel


def squared_point_table_kernel(periods, window, seed):
    """A pure kernel whose axis-0 table gives p@0 * p@0 = p@0, with the row
    bit that lets `mult` see it."""
    kernel = PyKernel(periods)
    kernel._tables[0][0] = ((0, 4),)
    kernel._rows[0][0] |= 1
    return kernel


class Rewritten(PyKernel):
    """Same products, but some come back reordered or with a term split into
    two equal halves under one repeated code."""

    def mult(self, a, b):
        terms = super().mult(a, b)
        if (a + b) % 3 == 1:
            return terms[::-1]
        if (a + b) % 3 == 2 and terms and terms[0][1] % 2 == 0:
            (u, w), rest = terms[0], terms[1:]
            return ((u, w // 2), (u, w // 2)) + rest
        return terms


class RewrittenDoubled(Rewritten):
    def __init__(self, periods, window, seed):
        super().__init__(periods)
        self._tables = doubled_entry_kernel(periods, window, seed)._tables


# (3, 4, 3, 5) is the first 4-d case, with mixed radices for the scan's
# per-axis position groups; its 531,441 triples cost about 2 s per oracle run
SCAN_CASES = [((3, 3, 3), 1), ((3, 5), 2), ((4, 3, 3), 1), ((3, 4, 3, 5), 1)]
# table mutants keep the class's `mult`, so they reach the scan's per-axis
# decision
MUTANTS = [
    doubled_entry_kernel,
    kind_changed_kernel,
    sign_flipped_kernel,
    squared_point_table_kernel,
]


def mutant_seeds(broken, periods):
    # the doubled entries get four seeds where the oracle is cheap, the
    # changed kind one per side of its axis that a Koszul sign can see
    if broken is doubled_entry_kernel:
        return range(1 if len(periods) > 3 else 4)
    return range(2 if broken is kind_changed_kernel else 1)


BROKEN_CASES = [
    pytest.param(
        broken,
        periods,
        window,
        seed,
        id=f"{'' if broken is doubled_entry_kernel else broken.__name__ + '-'}"
        f"periods{case}-{window}-{seed}",
    )
    for case, (periods, window) in enumerate(SCAN_CASES)
    for broken in MUTANTS
    for seed in mutant_seeds(broken, periods)
]


@pytest.mark.parametrize("periods,window", SCAN_CASES)
def test_scan_matches_per_triple_loop(periods, window):
    # decided, the triples are a product of one-axis counts
    cells = window_codes(LatticeSpec(periods), window)
    expected = per_triple_scan(PyKernel(periods), cells)
    assert expected[0] > 0 and expected[1] == []
    assert window_scan(PyKernel(periods), window) == expected


@pytest.mark.parametrize("broken,periods,window,seed", BROKEN_CASES)
def test_scan_matches_per_triple_loop_on_broken_tables(broken, periods, window, seed):
    # a mutant is not associative, so B walks and reports every violation,
    # in the oracle's order
    cells = window_codes(LatticeSpec(periods), window)
    checked, violations = per_triple_scan(broken(periods, window, seed), cells)
    assert violations  # every mutant here breaks associativity
    assert window_scan(broken(periods, window, seed), window) == (checked, violations)


@pytest.mark.parametrize(
    "periods,window", [((3,), 3), ((3, 5), 2), ((4, 3, 3), 1), ((3, 4, 3, 5), 1)]
)
def test_scan_keys_products_on_their_exact_terms(periods, window):
    # a repeated code must not merge with the single term of half the weight
    cells = window_codes(LatticeSpec(periods), window)
    scanned = scan(Rewritten(periods), cells)
    assert scanned == per_triple_scan(Rewritten(periods), cells)
    assert scanned == window_scan(PyKernel(periods), window)
    broken = RewrittenDoubled(periods, window, 1)
    expected = per_triple_scan(RewrittenDoubled(periods, window, 1), cells)
    assert expected[1] and scan(broken, cells) == expected


class SquaredPoint(PyKernel):
    """The origin point times itself is the origin, where every axis table
    says zero: a product the kernel's rows cannot foresee."""

    def mult(self, a, b):
        if a == b == 0:
            return ((0, 4**self.d),)
        return super().mult(a, b)


@pytest.mark.parametrize("periods,window", [((3, 5), 2), ((4, 3, 3), 1)])
def test_scan_asks_an_overriding_mult_for_every_product(periods, window):
    cells = window_codes(LatticeSpec(periods), window)
    expected = per_triple_scan(SquaredPoint(periods), cells)
    assert expected[1] and scan(SquaredPoint(periods), cells) == expected


@pytest.mark.parametrize(
    "periods,window",
    SCAN_CASES + [((3, 3, 3), 2), ((3, 3, 3, 3), 2)] + [((n,), n) for n in range(3, 10)],
)
def test_the_standard_tables_are_associative(periods, window):
    assert PyKernel(periods).associative(window_codes(LatticeSpec(periods), window))


@pytest.mark.parametrize("broken,periods,window,seed", BROKEN_CASES)
def test_a_broken_table_is_not_associative(broken, periods, window, seed):
    cells = window_codes(LatticeSpec(periods), window)
    assert not broken(periods, window, seed).associative(cells)


def test_a_term_of_the_wrong_kind_is_caught_where_the_axis_sides_agree():
    # on cells whose axis-0 factor is i@0, the mutant's 1-d sides agree,
    # (eps p@0)*i@0 == i@0*(eps p@0); only the Koszul sign of the wrong
    # point mask breaks associativity, so point-ness additivity must see it
    periods = (3, 3)
    cells = [c for c in window_codes(LatticeSpec(periods), 1) if c % 9 == 2]
    expected = per_triple_scan(kind_changed_kernel(periods, 1, 1), cells)
    assert expected[1] and scan(kind_changed_kernel(periods, 1, 1), cells) == expected


@pytest.mark.parametrize("overriding", [SquaredPoint, Rewritten])
@pytest.mark.parametrize("periods,window", SCAN_CASES)
def test_a_kernel_overriding_mult_is_not_associative(overriding, periods, window):
    assert not overriding(periods).associative(window_codes(LatticeSpec(periods), window))


def test_the_scan_decides_the_standard_tables_without_a_product(monkeypatch):
    # a wrapper on the instance leaves the class's `mult`, so B decides
    # every triple from the axis tables and the Koszul signs, and counts
    # them with no pair table
    import cubalg.verify

    periods = (3, 3, 3)
    kernel = PyKernel(periods)
    real = kernel.mult
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    kernel.mult = counting
    monkeypatch.setattr(cubalg.verify, "pair_table", counting)
    assert window_scan(kernel, 2) == (729000, [])
    assert calls == [] and not kernel._mult_cache


@pytest.mark.parametrize("periods", [(3, 3, 3), (3, 5)])
def test_memoized_boundary_equals_fresh(periods):
    kernel = PyKernel(periods)
    cells = window_codes(LatticeSpec(periods), 3)
    first = {c: kernel.boundary(c) for c in cells}
    for c in cells:
        assert kernel.boundary(c) is first[c]
        assert first[c] == PyKernel(periods)._boundary(c)


def test_equal_products_share_one_object():
    # the products of A's pairs: every ordered window pair whose supports meet
    from cubalg.cells import meet_masks

    kernel = PyKernel((3, 3, 3))
    cells = window_codes(LatticeSpec((3, 3, 3)), 2)
    for a, mask in zip(cells, meet_masks(cells, LatticeSpec((3, 3, 3)))):
        for k, b in enumerate(cells):
            if mask >> k & 1:
                kernel.mult(a, b)
    shared = {}
    for value in kernel._mult_cache.values():
        assert shared.setdefault(value, value) is value
    assert len(shared) < len(kernel._mult_cache) // 10


# -- the two facts that let the scan decide the standard tables per axis -----


@pytest.mark.parametrize("d", range(1, MAX_DIMENSION + 1))
def test_koszul_signs_are_a_two_cocycle_on_disjoint_point_masks(d):
    sign = _kernel_py.koszul_sign_of_points
    triples = 0
    for pa in range(1 << d):
        for pb in range(1 << d):
            for pc in range(1 << d):
                if pa & pb or pb & pc or pa & pc:
                    continue
                assert sign(pa, pb) * sign(pa | pb, pc) == sign(pb, pc) * sign(pa, pb | pc)
                triples += 1
    assert triples == 4**d


def sign_identities(sign, d):
    """Per pair pa, pb of disjoint point masks and axis i outside them,
    (pa, pb, i, whether (I1) and (I2) of `PyKernel.tensor` hold there for
    the sign function `sign`): the boundary of axis i taken on a, on b or
    on a*b has the same sign times the product's."""

    def parity(m):
        return (-1) ** m.bit_count()

    for pa in range(1 << d):
        for pb in range(1 << d):
            for i in range(d):
                below, bit = (1 << i) - 1, 1 << i
                if pa & pb or (pa | pb) & bit:
                    continue
                t = sign(pa, pb) * parity((pa | pb) & below)
                i1 = parity(pa & below) * sign(pa | bit, pb) == t
                i2 = parity(pa) * parity(pb & below) * sign(pa, pb | bit) == t
                yield pa, pb, i, i1 and i2


@pytest.mark.parametrize("d", range(1, MAX_DIMENSION + 1))
def test_koszul_signs_carry_the_boundary_past_a_product(d):
    cases = list(sign_identities(_kernel_py.koszul_sign_of_points, d))
    assert [case for case in cases if not case[-1]] == []
    assert len(cases) == d * 3 ** (d - 1)


@pytest.mark.parametrize("d", [1, 2])
def test_the_sign_identities_hold_exactly_for_plus_or_minus_koszul(d):
    # the lemma under `PyKernel.tensor`'s sign premise: of every unit sign
    # table on disjoint point masks, (I1) and (I2) keep just s(0,0) times
    # the Koszul signs
    koszul = _kernel_py.koszul_sign_of_points
    pairs = [(pa, pb) for pa in range(1 << d) for pb in range(1 << d) if not pa & pb]
    tables = 0
    for values in iterproduct((1, -1), repeat=len(pairs)):
        table = dict(zip(pairs, values))
        plus_or_minus = all(table[p] == table[0, 0] * koszul(*p) for p in pairs)
        cases = sign_identities(lambda pa, pb: table[pa, pb], d)
        assert all(holds for *_, holds in cases) == plus_or_minus, table
        tables += 1
    assert tables == 2 ** 3**d


def test_point_ness_is_additive_under_the_one_dimensional_product():
    # a term is a point exactly when a factor is: the codimension of a
    # product is the sum of its factors'
    points = 0
    for n in range(3, 10):
        for ka, kb in iterproduct(FactorKind, repeat=2):
            for a in range(n):
                for b in range(n):
                    for kind, _, _ in mult1_terms(ka, a, kb, b, n, CoefficientTable.standard()):
                        point = FactorKind.POINT in (ka, kb)
                        assert (kind == FactorKind.POINT) == point, (n, ka, a, kb, b)
                        points += point
    assert points > 0


def test_zero_rows_are_the_transversality_law_per_axis():
    # bit fb of a row: the table gives fa*fb a term, that is, the closed
    # supports meet and the two factors are not both points
    for n in range(3, 10):
        meets = axis_meets(n)
        (rows,) = PyKernel((n,))._rows
        for fa in range(3 * n):
            expected = meets[fa]
            if fa % 3 == 0:  # a point: drop the other points
                expected &= ~sum(1 << fb for fb in range(0, 3 * n, 3))
            assert rows[fa] == expected, (n, fa)


# every period tuple a golden invocation, a benchmark workload or S6 runs
# is here, so a premise too strict for the standard kernel fails a test
# rather than sending every check down its walk
@pytest.mark.parametrize(
    "periods",
    [(n,) for n in range(3, 10)]
    + [(3, 5), (4, 3, 3), (3, 5, 7), (4, 3, 3, 3), (3, 3, 3), (3, 3, 5), (5, 5, 5)]
    + [(3, 3, 3, 3), (5,) * 4, (5,) * 5, (5,) * 6],
)
def test_the_kernel_is_a_tensor_product_and_a_subclass_overriding_its_laws_is_not(periods):
    assert PyKernel(periods).tensor()

    class Products(PyKernel):
        def mult(self, a, b):
            return super().mult(a, b)

    class Boundaries(PyKernel):
        def boundary(self, code):
            return super().boundary(code)

    class Scans(PyKernel):
        def scan_assoc(self, table):
            return super().scan_assoc(table)

    assert not Products(periods).tensor() and not Boundaries(periods).tensor()
    assert Scans(periods).tensor()


@pytest.mark.parametrize("n", range(3, 10))
def test_the_one_dimensional_residual_needs_an_infinitesimal_stick(n):
    # the rows of the 1-d kernel are its residuals, and only a pair with an
    # i factor breaks the product rule; i@0*s@0 leaves -1/4 [p@0]
    from cubalg.verify import _leibniz_residual

    kernel = PyKernel((n,))
    (axis,) = kernel.residual_rows()
    for x in range(3 * n):
        for y in range(3 * n):
            residual = _leibniz_residual(kernel, x, y)
            assert bool(axis[x] >> y & 1) == bool(residual), (n, x, y)
            assert not residual or 2 in (x % 3, y % 3), (n, x, y)
    inf, stick, point = 2, 1, 0  # the factor codes at coordinate 0
    assert _leibniz_residual(kernel, inf, stick) == {point: -1}


def zero_sum_entry_kernel(periods):
    """A pure kernel whose axis-0 entry s@0*s@0 is its own terms minus
    themselves: a row bit on a product that merges to zero."""
    kernel = PyKernel(periods)
    size = 3 * periods[0]
    terms = kernel._tables[0][1 * size + 1]
    kernel._tables[0][1 * size + 1] = terms + tuple((u, -w) for u, w in terms)
    return kernel


@pytest.mark.parametrize("periods", [(3,), (3, 5), (4, 3, 3), (3, 3, 3, 3)])
def test_each_premise_of_the_tensor_fact_is_needed(monkeypatch, periods):
    # each mutant breaks one premise of `tensor`; the flipped sign is no
    # longer s(0,0) times its Koszul sign
    window = 1
    assert PyKernel(periods).tensor()
    assert doubled_entry_kernel(periods, window, 0).tensor()
    assert not kind_changed_kernel(periods, window, 0).tensor()  # additivity
    assert not squared_point_table_kernel(periods, window, 0).tensor()
    assert not zero_sum_entry_kernel(periods).tensor()
    assert not sign_flipped_kernel(periods, window, 0).tensor()
    zeroed = PyKernel(periods)
    zeroed._signs = [0] * len(zeroed._signs)  # each sign is s(0,0) times Koszul's, as 0 == 0
    assert not zeroed.tensor()

    class Products(PyKernel):
        def mult(self, a, b):
            return super().mult(a, b)

    class Boundaries(PyKernel):
        def boundary(self, code):
            return super().boundary(code)

    assert not Products(periods).tensor()
    assert not Boundaries(periods).tensor()
    # rows within meets: a product on a pair whose supports miss, on axis 0
    patch_non_meeting_product(monkeypatch)
    assert not PyKernel((5,) + periods[1:]).tensor()


@pytest.mark.parametrize("d", range(1, 4))
def test_a_flipped_sign_gives_no_tensor_fact(d):
    # every sign of two disjoint point masks is compared with s(0,0) times
    # its Koszul sign, s(0,0) with the others'.  A sign of overlapping masks
    # enters no premise, since such a product is zero
    flipped = 0
    for pa in range(1 << d):
        for pb in range(1 << d):
            kernel = PyKernel((3,) * d)
            kernel._signs[pa << d | pb] *= -1
            assert kernel.tensor() == bool(pa & pb), (pa, pb)
            flipped += not pa & pb
    assert flipped == 3**d
    assert not sign_flipped_kernel((3,) * d, 1, 0).tensor()
    # every sign flipped is s(0,0) = -1 times the Koszul signs: each law
    # has as many signs on either side, so the fact still holds
    negated = PyKernel((3,) * d)
    negated._signs = [-s for s in negated._signs]
    assert negated.tensor()


# -- the per-axis decisions of A, D and E --------------------------------------


@pytest.mark.parametrize("d", range(1, MAX_DIMENSION + 1))
def test_koszul_signs_commute_to_the_codimension_sign(d):
    # A's sign identity, which `tensor()`'s sign premise implies: on
    # disjoint masks s(pa,pb) s(pb,pa) = (-1)^(|pa||pb|), s(0,0) squared away
    sign = _kernel_py.koszul_sign_of_points
    for pa in range(1 << d):
        for pb in range(1 << d):
            if not pa & pb:
                codims = pa.bit_count() * pb.bit_count()
                assert sign(pa, pb) * sign(pb, pa) == (-1) ** codims, (pa, pb)


def _scaled_entries(kernel, slots, factor):
    """Multiply the axis-0 entries at the (x, y) `slots` by `factor`."""
    table, size = kernel._tables[0], kernel.radices[0]
    for x, y in slots:
        table[x * size + y] = tuple((u, factor * w) for u, w in table[x * size + y])
    return kernel


STICK0, INF0 = 1, 2  # the factor codes of s@0 and i@0


def asymmetric_entry_kernel(periods):
    """A pure kernel whose axis-0 entry s@0*i@0 is doubled and i@0*s@0 is
    not: the 1-d product no longer commutes there."""
    return _scaled_entries(PyKernel(periods), [(STICK0, INF0)], 2)


def uneven_coordinate_kernel(periods):
    """A pure kernel whose axis-0 entries s@0*i@0 and i@0*s@0 are both
    doubled: the 1-d product still commutes, but coordinate 0 no longer
    multiplies as its translates do."""
    return _scaled_entries(PyKernel(periods), [(STICK0, INF0), (INF0, STICK0)], 2)


def dropped_entry_kernel(periods):
    """A pure kernel whose axis-0 entry s@0*s@0, on a pair that meets, is
    dropped together with its row bit."""
    kernel = PyKernel(periods)
    kernel._tables[0][STICK0 * kernel.radices[0] + STICK0] = None
    kernel._rows[0][STICK0] &= ~(1 << STICK0)
    return kernel


def pair_decisions(kernel, periods, window):
    """(commutative, transversal, covariant) of the window's cells.  D's
    targets are `kernel` on its own lattice and standard kernels elsewhere."""
    from cubalg.verify import _symmetries

    lattice = LatticeSpec(periods)
    cells = window_codes(lattice, window)
    actions = [
        (kernel if sym.periods == kernel.periods else kernel_for(sym.periods), sym.axes, sym.signs)
        for sym in _symmetries(lattice)
    ]
    return kernel.commutative(cells), kernel.transversal(cells), kernel.covariant(cells, actions)


# each mutant keeps `tensor()`; the A and E mutants move a single entry and
# so break D's translations as well, the D mutant breaks D alone
PREMISE_MUTANTS = {
    "commutative": (asymmetric_entry_kernel, (False, True, False)),
    "transversal": (dropped_entry_kernel, (True, False, False)),
    "covariant": (uneven_coordinate_kernel, (True, True, False)),
}


@pytest.mark.parametrize(
    "periods,window", SCAN_CASES + [((3, 3, 3), 2), ((3, 5, 4, 7), 1), ((3, 3, 3, 3, 3), 1)]
)
def test_the_standard_tables_decide_a_d_and_e(periods, window):
    assert pair_decisions(PyKernel(periods), periods, window) == (True, True, True)


@pytest.mark.parametrize("decision", sorted(PREMISE_MUTANTS))
@pytest.mark.parametrize("periods,window", [((3, 5), 2), ((3, 3, 3), 2), ((4, 3, 3), 1)])
def test_each_premise_of_the_pair_decisions_is_needed(decision, periods, window):
    make, expected = PREMISE_MUTANTS[decision]
    kernel = make(periods)
    assert kernel.tensor()
    assert pair_decisions(kernel, periods, window) == expected


@pytest.mark.parametrize("broken,periods,window,seed", BROKEN_CASES)
def test_a_table_without_the_tensor_fact_decides_no_pair_law(broken, periods, window, seed):
    # a mutant that breaks a premise of `tensor()` decides nothing; one that
    # keeps it (a doubled entry) may decide the laws its entry keeps
    kernel = broken(periods, window, seed)
    if not kernel.tensor():
        assert pair_decisions(kernel, periods, window) == (False, False, False)


@pytest.mark.parametrize("periods", [(3,), (4,), (7,), (3, 4), (5, 3, 4)])
def test_boundary_stays_in_the_closed_support(periods):
    # every cell that meets a boundary cell of c meets c: the premise of
    # `PyKernel.tensor`'s locality that it does not test at run time
    from cubalg.cells import meet_masks

    kernel = PyKernel(periods)
    codes = list(range(kernel.code_bound))
    masks = meet_masks(codes, LatticeSpec(periods))
    for c in codes:
        for u, _ in kernel.boundary(c):
            assert not masks[u] & ~masks[c], (c, u)


def test_memo_holds_no_zero_products():
    from cubalg.verify import verify_axioms

    kernel_for.cache_clear()
    try:
        verify_axioms((3, 3, 3), ["A", "B", "C", "E", "G"], window=2)
        memo = kernel_for((3, 3, 3))._mult_cache
    finally:
        kernel_for.cache_clear()
    assert memo and () not in memo.values()


def patch_non_meeting_product(monkeypatch):
    """Make every period-5 axis table give s@0*s@3 = s@0, a product on two
    factors whose supports miss, with the row bit that lets `mult` see it."""
    n, fa, fb = 5, 0 * 3 + 1, 3 * 3 + 1
    assert not axis_meets(n)[fa] >> fb & 1
    real = _kernel_py._axis_table

    def broken(period):
        table = real(period)
        if period == n:
            table[fa * 3 * period + fb] = ((fa, 4),)
        return table

    monkeypatch.setattr(_kernel_py, "_axis_table", broken)


def test_transversality_sees_a_table_product_on_a_non_meeting_pair(monkeypatch):
    # the zero test reads the tables, so a wrong entry still reaches E; taken
    # from `axis_meets`, it would hide this one
    from cubalg.verify import check_transversality

    n = 5
    patch_non_meeting_product(monkeypatch)
    kernel_for.cache_clear()
    try:
        report = check_transversality(LatticeSpec((n,)), n)
    finally:
        kernel_for.cache_clear()
    assert [(v["a"], v["b"]) for v in report.violations] == [("[s@0]", "[s@3]")]


def test_leibniz_sees_a_table_product_on_a_non_meeting_pair(monkeypatch):
    # the table is no longer zero off meeting pairs, so the kernel has no
    # tensor fact and C computes every pair, this one too
    from cubalg.verify import check_leibniz

    n = 5
    patch_non_meeting_product(monkeypatch)
    kernel_for.cache_clear()
    try:
        assert not kernel_for((n,)).tensor()
        report = check_leibniz(LatticeSpec((n,)), n)
    finally:
        kernel_for.cache_clear()
    assert report.checked == (3 * n) ** 2
    kinds = [(v["kind"], v["a"], v["b"]) for v in report.violations]
    assert kinds == [("leibniz", "[s@0]", "[s@3]")]


def reference_mult(a, b, lattice):
    """{code: numerator at scale 4**d} from mult1 on every axis, weighted by
    the Koszul sign (-1)**(pairs i > j with a_i and b_j both points)."""
    ca, cb = decode_cell(a, lattice), decode_cell(b, lattice)
    inversions = sum(
        1
        for i, fa in enumerate(ca.factors)
        for fb in cb.factors[:i]
        if fa.kind is FactorKind.POINT and fb.kind is FactorKind.POINT
    )
    per_axis = [
        list(mult1(fa, fb, LatticeSpec((n,))).terms.items())
        for fa, fb, n in zip(ca.factors, cb.factors, lattice.periods)
    ]
    out = {}
    for combo in iterproduct(*per_axis):
        cell = Cell(tuple(c.factors[0] for c, _ in combo))
        coef = Fraction((-1) ** inversions * 4**lattice.d)
        for _, w in combo:
            coef *= w
        code = encode_cell(cell, lattice)
        out[code] = out.get(code, 0) + coef
    return {c: v for c, v in out.items() if v}


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(5,), (3, 4), (3, 3, 3), (4, 3, 5, 3)]).flatmap(
        lambda periods: st.tuples(
            st.just(periods),
            # cells near the origin, so that most pairs meet
            st.lists(st.sampled_from(window_codes(LatticeSpec(periods), 2)), min_size=2, max_size=8),
        )
    )
)
def test_mult_matches_table1d_reference(args):
    periods, codes = args
    lattice = LatticeSpec(periods)
    kernel = PyKernel(periods)
    for a in codes:
        for b in codes:
            assert dict(kernel.mult(a, b)) == reference_mult(a, b, lattice)


@pytest.mark.parametrize("periods,window", [((3, 5), 3), ((4, 3, 3), 2)])
def test_mult_matches_reference_on_every_window_pair(periods, window):
    lattice = LatticeSpec(periods)
    kernel = PyKernel(periods)
    cells = window_codes(lattice, window)
    for a in cells:
        for b in cells:
            assert dict(kernel.mult(a, b)) == reference_mult(a, b, lattice)


CHECKS = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"


def _load_checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_axis_tables_match_the_papers_identities():
    # mult1 and the kernel read one rule, so the oracle here is the
    # benchmark's reference product, written from the paper's identities
    reference_mult1 = _load_checks().reference_mult1
    pairs = 0
    for n in range(3, 8):
        kernel = kernel_for((n,))
        factors = [(k, c) for c in range(n) for k in "psi"]  # in factor-code order
        for fa, f in enumerate(factors):
            for fb, g in enumerate(factors):
                terms = reference_mult1(f, g, n).items()
                expected = {factors.index(h): 4 * v for h, v in terms}
                assert dict(kernel.mult(fa, fb)) == expected, (f, g, n)
                pairs += 1
    assert pairs == 1215


# -- the one linear and bilinear extension ------------------------------------


def test_linear_drops_zero_sums_and_keeps_integers_exact():
    big = 3**90
    image = {1: ((10, 1), (11, 2)), 2: ((10, -1), (12, big))}.__getitem__
    out = _kernel_py.linear([(1, big), (2, big)], image)
    assert out == {11: 2 * big, 12: big * big}
    assert all(type(v) is int for v in out.values())
    assert _kernel_py.linear([(1, 5), (1, -5)], image) == {}


@pytest.mark.parametrize("seed", range(6))
def test_times_is_the_chain_product(seed):
    from cubalg.chain import Chain
    from cubalg.product import product

    periods = [(5,), (3, 4), (3, 3, 3)][seed % 3]
    lattice = LatticeSpec(periods)
    scale = 4**lattice.d
    rng = random.Random(seed)
    cells = window_codes(lattice, 2)
    x, y = ({c: rng.randint(-6, 6) for c in rng.sample(cells, 5)} for _ in range(2))
    got = _kernel_py.times(kernel_for(periods).mult, x.items(), y.items())
    chain_x, chain_y = Chain._from_codes(lattice, x), Chain._from_codes(lattice, y)
    assert {c: Fraction(v, scale) for c, v in got.items()} == product(chain_x, chain_y)._terms
    expected = Chain.zero(lattice)
    for a, va in x.items():
        for b, vb in y.items():
            terms = reference_mult(a, b, lattice).items()
            expected += Chain._from_codes(lattice, {c: va * vb * v / scale for c, v in terms})
    assert product(chain_x, chain_y) == expected


def test_product_calls_mult_once_per_pair_of_terms(monkeypatch):
    # perfbench's counting kernel proxy relies on this: one basis call per pair
    from cubalg.chain import Chain

    product_module = importlib.import_module("cubalg.product")  # the package exports the function
    lattice = LatticeSpec((3, 3, 3))
    real = kernel_for(lattice.periods)
    calls = []

    class Counting:
        def mult(self, a, b):
            calls.append((a, b))
            return real.mult(a, b)

    monkeypatch.setattr(product_module, "kernel_for", lambda periods: Counting())
    cells = window_codes(lattice, 2)
    a = Chain._from_codes(lattice, {c: Fraction(1, i + 1) for i, c in enumerate(cells[:7])})
    b = Chain._from_codes(lattice, {c: i - 4 for i, c in enumerate(cells[3:12])})
    product_module.product(a, b)
    assert (len(a), len(b)) == (7, 8)  # the coefficient 0 is dropped
    assert sorted(calls) == sorted((x, y) for x in a._terms for y in b._terms)
