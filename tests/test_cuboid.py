"""Cuboids: decomposition, transversality, general position, and the
independent geometric-intersection oracle."""

import random

import pytest

from cubalg import (
    Cuboid,
    LatticeSpec,
    cuboid_to_chain,
    generalised_faces,
    geometric_intersection,
    in_general_position,
    is_transverse,
    parse_chain,
    product,
)
from cubalg import verify
from cubalg.cuboid import _axis_intersection, axis_in_general_position
from cubalg.verify import check_general_position, general_position_pairs


def test_to_chain_1d():
    lat = LatticeSpec((7,))
    assert cuboid_to_chain(Cuboid(((0, 2),)), lat) == parse_chain("[s@0] + [s@1]", lat)


def test_to_chain_3d_point(L3):
    assert cuboid_to_chain(Cuboid((0, 0, 0)), L3) == parse_chain("[p@0,p@0,p@0]", L3)


def test_to_chain_2x2_square(L3):
    got = cuboid_to_chain(Cuboid(((0, 2), (0, 2), 0)), L3)
    assert got == parse_chain(
        "[s@0,s@0,p@0] + [s@0,s@1,p@0] + [s@1,s@0,p@0] + [s@1,s@1,p@0]", L3
    )


def test_to_chain_validation(L3):
    with pytest.raises(ValueError):
        cuboid_to_chain(Cuboid(((0, 6), 0, 0)), L3)  # longer than the period
    with pytest.raises(ValueError):
        cuboid_to_chain(Cuboid(((2, 2), 0, 0)), L3)
    with pytest.raises(ValueError):
        cuboid_to_chain(Cuboid((0, 0)), L3)


def test_generalised_faces_count(L3):
    q = Cuboid(((0, 2), (1, 2), 3))
    faces = generalised_faces(q)
    # two interval axes, three choices each, minus the original
    assert len(faces) == 3 * 3 - 1
    assert Cuboid((0, (1, 2), 3)) in faces
    assert Cuboid(((0, 2), 1, 3)) in faces


# -- transversality -----------------------------------------------------------


def test_transverse_vertex_sharing_squares(L3):
    # xz-square and yz-square meeting only at the origin vertex span space
    q1 = Cuboid(((0, 1), 0, (4, 5)))
    q2 = Cuboid((0, (0, 1), (0, 1)))
    assert is_transverse(q1, q2, L3)


def test_parallel_disjoint_sticks_not_transverse(L3):
    q1 = Cuboid(((0, 1), 0, 0))
    q2 = Cuboid(((0, 1), 2, 2))
    assert not is_transverse(q1, q2, L3)


def test_intersecting_axis_sticks_not_transverse(L3):
    # two meeting lines do not span three dimensions
    q1 = Cuboid(((0, 2), 0, 0))
    q2 = Cuboid((1, (3, 5), 0))
    assert not is_transverse(q1, q2, L3)


# -- general position -----------------------------------------------------------


def test_general_position_crossing_squares(L3):
    # a 2x2 horizontal square crossed by a vertical square through its interior
    q1 = Cuboid(((0, 2), (0, 2), 1))
    q2 = Cuboid((1, (1, 3), (0, 2)))
    assert in_general_position(q1, q2, L3)


def test_vertex_touching_squares_not_general_position(L3):
    # transverse, but the intersection that "should" be a stick is a point
    q1 = Cuboid(((0, 1), 0, (4, 5)))
    q2 = Cuboid((0, (0, 1), (0, 1)))
    assert is_transverse(q1, q2, L3)
    assert not in_general_position(q1, q2, L3)


def test_cuboid_not_in_general_position_with_itself(L3):
    q = Cuboid(((0, 2), (0, 2), 1))
    assert not in_general_position(q, q, L3)


def face_loop_general_position(q1, q2, lattice):
    """The definition, face pair by face pair: transverse, one short arc per
    axis, and no pair of generalised faces that meet without spanning."""
    if not (supports_meet(q1, q2, lattice) and directions_span(q1, q2)):
        return False
    for e1, e2, n in zip(q1.axes, q2.axes, lattice.periods):
        meet = support(e1, n) & support(e2, n)
        if len(arc_starts(meet, n)) != 1:
            return False
    fam1 = [q1] + generalised_faces(q1)
    fam2 = [q2] + generalised_faces(q2)
    return not any(
        supports_meet(f1, f2, lattice) and not directions_span(f1, f2)
        for f1 in fam1
        for f2 in fam2
    )


def support(entry, n):
    """Closed support of an axis entry as a set of lattice points."""
    if isinstance(entry, tuple):
        a, b = entry
        return {(a + j) % n for j in range(b - a + 1)}
    return {entry % n}


def supports_meet(q1, q2, lattice):
    return all(
        support(e1, n) & support(e2, n) for e1, e2, n in zip(q1.axes, q2.axes, lattice.periods)
    )


def directions_span(q1, q2):
    return all(isinstance(e1, tuple) or isinstance(e2, tuple) for e1, e2 in zip(q1.axes, q2.axes))


def arc_starts(points, n):
    """Points of the set whose predecessor on the n-circle is not in it: one
    per arc, and none when the set is the whole circle."""
    return [x for x in points if (x - 1) % n not in points]


def set_intersection(e1, e2, n):
    """Intersection of two axis entries as a set, reassembled as one entry;
    None when empty, ValueError when it is the whole circle or disconnected."""
    meet = support(e1, n) & support(e2, n)
    if not meet:
        return None
    if len(meet) == 1:
        return next(iter(meet))
    if len(meet) == n:
        raise ValueError("intersection covers a whole axis; not a cuboid entry")
    starts = arc_starts(meet, n)
    if len(starts) != 1:
        raise ValueError("axis intersection is disconnected")
    return (starts[0], starts[0] + len(meet) - 1)


def any_cuboid(rng, lattice):
    """Random cuboid with any anchor and edges up to the period, per axis."""
    axes = []
    for n in lattice.periods:
        anchor = rng.randrange(-n, 2 * n)
        axes.append((anchor, anchor + rng.randint(1, n)) if rng.randrange(4) else anchor)
    return Cuboid(tuple(axes))


@pytest.mark.parametrize(
    "periods", [(3, 3, 3), (4, 4, 4), (5, 5, 5), (3, 3, 5), (5, 5), (3, 3, 3, 3)]
)
def test_general_position_matches_face_loop(periods):
    lattice = LatticeSpec(periods)
    rng = random.Random(sum(periods))
    accepted = 0
    for _ in range(6000):
        q1, q2 = any_cuboid(rng, lattice), any_cuboid(rng, lattice)
        expected = face_loop_general_position(q1, q2, lattice)
        assert in_general_position(q1, q2, lattice) == expected, (q1, q2)
        accepted += expected
    assert 0 < accepted < 6000


def test_general_position_sampling_is_unchanged():
    rep = check_general_position(LatticeSpec((5, 5, 5)), seed=0)
    assert rep.passed
    assert rep.checked == 200
    assert rep.details["attempts"] == 29023


# -- the sampler against the draw-and-test loop it replaced --------------------


def random_cuboid(rng, lattice, max_edge=3):
    axes: list = []
    for n in lattice.periods:
        anchor = rng.randrange(n)
        if rng.randrange(3):
            length = rng.randrange(1, max_edge + 1)
            axes.append((anchor, anchor + length))
        else:
            axes.append(anchor)
    return Cuboid(tuple(axes))


def drawn_general_position_pairs(lattice, seed, count, max_edge=3):
    """Draw cuboid pairs with randrange and keep those in general position."""
    rng = random.Random(seed)
    pairs = []
    attempts = 0
    while len(pairs) < count and attempts < verify._MAX_ATTEMPTS:
        attempts += 1
        q1 = random_cuboid(rng, lattice, max_edge)
        q2 = random_cuboid(rng, lattice, max_edge)
        if in_general_position(q1, q2, lattice):
            pairs.append((q1, q2))
    return pairs, attempts


@pytest.mark.parametrize("periods", [(3, 3, 3), (4, 4, 4), (5, 5, 5), (3, 3, 5), (7, 5, 3)])
def test_sampler_reads_the_stream_as_randrange(periods, monkeypatch):
    # a lower cap keeps the lattices that rarely accept cheap
    monkeypatch.setattr(verify, "_MAX_ATTEMPTS", 2000)
    lattice = LatticeSpec(periods)
    for seed in range(5):
        expected = drawn_general_position_pairs(lattice, seed, 20)
        assert general_position_pairs(lattice, seed, 20) == expected, seed


def test_sampler_matches_full_f_sample():
    lattice = LatticeSpec((5, 5, 5))
    pairs, attempts = general_position_pairs(lattice, 0, 200)
    assert (pairs, attempts) == drawn_general_position_pairs(lattice, 0, 200)
    assert attempts == 29023


def every_axis_entry(n):
    """The points 0..n-1, then every interval of length 1..n by anchor."""
    return [*range(n), *((a, a + length) for a in range(n) for length in range(1, n + 1))]


@pytest.mark.parametrize("n", range(3, 8))
def test_axis_table_matches_general_position(n):
    lattice = LatticeSpec((n,))
    entries = every_axis_entry(n)
    assert len(entries) == n * (n + 1)
    for e1 in entries:
        for e2 in entries:
            q1, q2 = Cuboid((e1,)), Cuboid((e2,))
            expected = face_loop_general_position(q1, q2, lattice)
            assert in_general_position(q1, q2, lattice) == expected, (e1, e2)
            assert axis_in_general_position(e1, e2, n) == expected, (e1, e2)


@pytest.mark.parametrize("n", range(3, 8))
def test_axis_intersection_matches_the_set_form(n):
    raised = set()
    for e1 in every_axis_entry(n):
        for e2 in every_axis_entry(n):
            try:
                expected = set_intersection(e1, e2, n)
            except ValueError as err:
                raised.add(str(err))
                with pytest.raises(ValueError, match=str(err)):
                    _axis_intersection(e1, e2, n)
            else:
                assert _axis_intersection(e1, e2, n) == expected, (e1, e2)
    assert "intersection covers a whole axis; not a cuboid entry" in raised
    assert ("axis intersection is disconnected" in raised) == (n >= 4)


# -- the oracle -------------------------------------------------------------------


def test_oracle_1d_overlap():
    lat = LatticeSpec((7,))
    got = geometric_intersection(Cuboid(((0, 3),)), Cuboid(((2, 5),)), lat)
    assert got == parse_chain("[s@2]", lat)


def test_oracle_1d_nested():
    lat = LatticeSpec((7,))
    got = geometric_intersection(Cuboid(((0, 5),)), Cuboid(((1, 3),)), lat)
    assert got == parse_chain("[s@1] + [s@2]", lat)


def test_oracle_square_stick_point(L3):
    q1 = Cuboid(((0, 2), (0, 2), 1))
    q2 = Cuboid((1, 1, (0, 2)))
    got = geometric_intersection(q1, q2, L3)
    assert set(got.cells()) == set(parse_chain("[p@1,p@1,p@1]", L3).cells())
    assert abs(next(iter(got.terms.values()))) == 1


def test_oracle_requires_general_position(L3):
    q = Cuboid(((0, 2), (0, 2), 1))
    with pytest.raises(ValueError):
        geometric_intersection(q, q, L3)


def test_product_matches_oracle_seeded(L3):
    rng = random.Random(12345)
    found = 0
    while found < 60:
        q1 = random_cuboid(rng, L3)
        q2 = random_cuboid(rng, L3)
        if not in_general_position(q1, q2, L3):
            continue
        found += 1
        got = product(cuboid_to_chain(q1, L3), cuboid_to_chain(q2, L3))
        assert got == geometric_intersection(q1, q2, L3), (q1, q2)
