"""Independent checks of `cubalg verify` output.

Nothing here reuses cubalg's code paths: counts come from the one-axis
closed-support rule, Betti numbers from the torus, pairing sizes from
counting cells, and product values from a reference product written from
the paper's one-dimensional identities.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product as iterproduct
from math import comb, factorial, prod

# -- closed-form `checked` counts -----------------------------------------


def _axis_support(kind: str, coord: int, n: int) -> set[int]:
    return {coord, (coord + 1) % n} if kind == "s" else {coord}


def one_axis_counts(n: int, window: int) -> tuple[int, int]:
    """(M1, T1): ordered meeting factor pairs and pairwise-meeting ordered
    factor triples among the window's factors on an axis of period n."""
    supports = [_axis_support(k, c, n) for c in range(window) for k in "psi"]
    m = len(supports)
    meet = [[bool(supports[i] & supports[j]) for j in range(m)] for i in range(m)]
    pairs = sum(meet[i][j] for i in range(m) for j in range(m))
    triples = sum(
        meet[i][j] and meet[i][k] and meet[j][k]
        for i in range(m)
        for j in range(m)
        for k in range(m)
    )
    return pairs, triples


def expected_checked(periods: tuple[int, ...], window: int) -> dict[str, int]:
    """`checked` of each exhaustive window check, from the one-axis rule.

    N = (3w)^d window cells; M and T multiply the per-axis M1 and T1.
    A counts unordered meeting pairs, D checks each of them under every
    symmetry, J adds one chain-map check per cell.
    """
    d = len(periods)
    n_cells = (3 * window) ** d
    axis = [one_axis_counts(n, window) for n in periods]
    meeting = prod(m1 for m1, _ in axis)
    triples = prod(t1 for _, t1 in axis)
    a = (meeting + n_cells) // 2
    symmetries = (d + 1) + d + (factorial(d) - 1)
    return {
        "A": a,
        "B": triples,
        "C": n_cells**2,
        "D": a * symmetries,
        "E": n_cells**2,
        "G": triples + d // 2 + 1,
        "J": n_cells + a,
    }


# -- per-report checks ----------------------------------------------------


def check_report(rep: dict, periods: tuple[int, ...], expected: dict) -> list[str]:
    """Reasons why one report disagrees with the independent computations."""
    cid = rep["check"]
    why = []
    if not rep["passed"]:
        why.append(f"{cid} did not pass")
    want = expected.get(cid)
    if want is not None and rep["checked"] != want:
        why.append(f"{cid} checked {rep['checked']}, expected {want}")
    details = rep["details"]
    d = len(periods)
    cells = prod(periods)
    if cid == "C":
        if not details.get("ideal_pair_failures", 0) > 0 or not rep["witnesses"]:
            why.append("C has no ideal-pair failure witness")
    elif cid == "G":
        degrees = details.get("degrees", [])
        if [e["degree"] for e in degrees] != list(range(d // 2 + 1)):
            why.append(f"G reports degrees {[e['degree'] for e in degrees]}")
        for e in degrees:
            size = comb(d, e["degree"]) * cells
            if (e["size"], e["rank"], e["nondegenerate"]) != (size, size, True):
                why.append(f"G degree {e['degree']}: size {e['size']} rank {e['rank']}, "
                           f"expected full rank {size}")
    elif cid == "BETTI":
        torus = [comb(d, p) for p in range(d + 1)]
        for key in ("full_h", "two_h_span"):
            if details.get(key) != torus:
                why.append(f"BETTI {key} = {details.get(key)}, torus gives {torus}")
    elif cid == "S6":
        if details.get("augmented_triple_product_6d") != "1":
            why.append("S6 six-dimensional augmented triple product is not 1")
        if not any(w.get("n") == 4 and w.get("m") == 3 for w in rep["witnesses"]):
            why.append("S6 lacks its n=4, m=3 witness")
    elif cid == "STAR":
        if not any(w.get("kind") == "star-crumble-non-commutation" for w in rep["witnesses"]):
            why.append("STAR lacks its star/crumble witness")
    return why


# -- reference product ------------------------------------------------------

HALF, QUARTER = Fraction(1, 2), Fraction(1, 4)


def reference_mult1(f: tuple[str, int], g: tuple[str, int], n: int) -> dict:
    """One-dimensional product from the paper's six identities

        p@a * s@a = 1/2 p@a      s@{a-1} * s@a = i@a      i@a * s@a = 1/2 i@a
        p@a * i@a = 1/4 p@a      s@a * s@a = s@a - i@a - i@{a+1}
        i@a * i@a = 1/4 i@a

    extended by commutativity and by the reflection x -> -x, which moves a
    point or infinitesimal from the lower end of a stick to its upper end.
    """
    order = "psi"
    if order.index(f[0]) > order.index(g[0]):
        f, g = g, f
    (ka, a), (kb, b) = f, g
    a, b = a % n, b % n
    if ka + kb == "pp":
        return {}
    if ka + kb == "ps":
        return {("p", a): HALF} if a in (b, (b + 1) % n) else {}
    if ka + kb == "pi":
        return {("p", a): QUARTER} if a == b else {}
    if ka + kb == "ss":
        if a == b:
            return {("s", a): Fraction(1), ("i", a): Fraction(-1), ("i", (a + 1) % n): Fraction(-1)}
        if b == (a + 1) % n:
            return {("i", b): Fraction(1)}
        if a == (b + 1) % n:
            return {("i", a): Fraction(1)}
        return {}
    if ka + kb == "si":
        return {("i", b): HALF} if b in (a, (a + 1) % n) else {}
    return {("i", a): QUARTER} if a == b else {}  # "ii"


def reference_product(x, y, periods) -> dict:
    """Tensor of the 1-d products, signed by moving each point factor of y
    past the point factors of x on later axes (codimension grading)."""
    inversions = sum(
        1
        for i in range(len(periods))
        for j in range(i)
        if x[i][0] == "p" and y[j][0] == "p"
    )
    sign = -1 if inversions % 2 else 1
    axes = [reference_mult1(f, g, n) for f, g, n in zip(x, y, periods)]
    out: dict = {}
    for combo in iterproduct(*(a.items() for a in axes)):
        cell = tuple(f for f, _ in combo)
        out[cell] = out.get(cell, 0) + sign * prod(c for _, c in combo)
    return {c: v for c, v in out.items() if v}


def cell_text(cell) -> str:
    return "[" + ",".join(f"{k}@{c}" for k, c in cell) + "]"


def parse_cell_text(text: str) -> tuple:
    return tuple((f[0], int(f[2:])) for f in text.strip("[]").split(","))


def compare_products(cubalg, periods, window: int, rng: random.Random, pairs: int) -> list[str]:
    """Compare cubalg.product with the reference on seeded window cell pairs."""
    lattice = cubalg.LatticeSpec(tuple(periods))
    factors = [(k, c) for c in range(window) for k in "psi"]
    why = []
    for _ in range(pairs):
        x = tuple(rng.choice(factors) for _ in periods)
        y = tuple(rng.choice(factors) for _ in periods)
        got_chain = cubalg.product(
            cubalg.parse_chain(cell_text(x), lattice), cubalg.parse_chain(cell_text(y), lattice)
        )
        got = {parse_cell_text(str(cell)): coef for cell, coef in got_chain.terms.items()}
        want = reference_product(x, y, periods)
        if got != want:
            why.append(f"product {cell_text(x)}*{cell_text(y)} = {got}, reference {want}")
            if len(why) >= 5:
                break
    return why

