"""Shared test oracles: independent, brute-force implementations used to
cross-check the package's optimized kernels.  Nothing here imports the code
paths under test beyond plain data types, the special-triangle enumeration
for the second-power oracle, and the generator-form depth scan that the
facet-form square scan replaces."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from srsq import (
    DEFAULT_BUDGET,
    DepthReport,
    FieldSpec,
    Graph,
    MonomialIdeal,
    SimplicialComplex,
    Sym2Result,
    depth_reports,
    stanley_reisner,
)
from srsq.bits import pack, unpack
from srsq.ideals import _iter_special_triangles, triangle_obstruction_monomial


def brute_minimal_transversals(sets: list[int], n: int) -> list[int]:
    """All minimal hitting sets by scanning every subset of [n]."""
    if any(s == 0 for s in sets):
        return []
    hits = [m for m in range(1 << n) if all(m & s for s in sets)]
    minimal = [m for m in hits if not any(h != m and h & ~m == 0 for h in hits)]
    return sorted(minimal)


def quadratic_minimal_elements(masks) -> list[int]:
    """Inclusion-minimal masks, each candidate checked against every kept one."""
    kept: list[int] = []
    for m in sorted(set(masks), key=lambda m: (m.bit_count(), m)):
        if not any(k & ~m == 0 for k in kept):
            kept.append(m)
    return sorted(kept)


def quadratic_maximal_elements(masks) -> list[int]:
    """Inclusion-maximal masks, each candidate checked against every kept one."""
    kept: list[int] = []
    for m in sorted(set(masks), key=lambda m: (-m.bit_count(), m)):
        if not any(m & ~k == 0 for k in kept):
            kept.append(m)
    return sorted(kept)


def floyd_warshall_diameter(g: Graph) -> float:
    inf = float("inf")
    dist = [[0 if i == j else inf for j in range(g.n)] for i in range(g.n)]
    for e in g.edges:
        u, v = unpack(e)
        dist[u - 1][v - 1] = dist[v - 1][u - 1] = 1
    for k in range(g.n):
        for i in range(g.n):
            for j in range(g.n):
                d = dist[i][k] + dist[k][j]
                if d < dist[i][j]:
                    dist[i][j] = d
    return max(dist[i][j] for i in range(g.n) for j in range(g.n)) if g.n > 1 else 0


def random_graph(rng: random.Random, n: int, p: float = 0.45) -> Graph:
    edges = [e for e in combinations(range(1, n + 1), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)


def random_squarefree_ideal(rng: random.Random, n: int, max_gens: int = 6) -> MonomialIdeal:
    """Nonzero, non-unit squarefree ideal with generator supports of size >= 2."""
    while True:
        count = rng.randint(1, max_gens)
        supports = []
        for _ in range(count):
            size = rng.randint(2, min(4, n))
            supports.append(rng.sample(range(1, n + 1), size))
        ideal = MonomialIdeal.squarefree_from_supports(n, supports)
        if ideal.gens:
            return ideal


def tuple_minimal(rows) -> list[tuple[int, ...]]:
    """Exponent tuples that no other one divides componentwise, sorted."""
    rows = set(rows)
    return sorted(
        r for r in rows if not any(o != r and all(x <= y for x, y in zip(o, r)) for o in rows)
    )


def tuple_power(rows, k: int, n: int) -> list[tuple[int, ...]]:
    """Minimal generators of the k-th power: all k-fold products, minimalised."""
    if k == 0:
        return [(0,) * n]
    return tuple_minimal(tuple(map(sum, zip(*combo)))
                         for combo in combinations_with_replacement(rows, k))


def tuple_intersection(left, right) -> list[tuple[int, ...]]:
    """Minimal generators of the intersection: all pairwise lcms, minimalised."""
    return tuple_minimal(tuple(map(max, a, b)) for a in left for b in right)


def tuple_prime_power(n: int, facet: tuple[int, ...], ell: int) -> list[tuple[int, ...]]:
    """Generators of P_F^ell: the degree-ell exponent tuples supported off the facet."""
    outside = [v for v in range(1, n + 1) if v not in facet]
    return sorted(
        tuple(combo.count(v) for v in range(1, n + 1))
        for combo in combinations_with_replacement(outside, ell)
    )


def brute_nonfaces(delta: SimplicialComplex) -> list[int]:
    full = (1 << delta.n) - 1
    return [m for m in range(full + 1) if m not in delta.face_masks]


def brute_minimal_nonfaces(delta: SimplicialComplex) -> list[int]:
    nf = brute_nonfaces(delta)
    return sorted(m for m in nf if not any(o != m and o & ~m == 0 for o in nf))


def stellar_by_definition(delta: SimplicialComplex, face: tuple[int, ...]) -> SimplicialComplex:
    """Face-level construction: drop faces containing F, add H + {v} for faces
    H with F not inside H and F u H a face."""
    f = pack(face)
    v = 1 << delta.n
    faces = set()
    for h in delta.face_masks:
        if f & ~h:  # F not a subset of H: H survives
            faces.add(h)
            if (f | h) in delta.face_masks:
                faces.add(h | v)
    return SimplicialComplex(delta.n + 1, tuple(faces))


def fraction_rank(rows) -> int:
    """Plain Gaussian elimination over Fraction, the rank oracle."""
    m = [[Fraction(e) for e in row] for row in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if m[r][col]), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = 1 / m[row][col]
        m[row] = [e * inv for e in m[row]]
        for r in range(nrows):
            if r != row and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[row])]
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def modp_rank_naive(rows, p: int) -> int:
    """Dense elimination mod p, independent of the production bitmask path."""
    m = [[e % p for e in row] for row in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if m[r][col]), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = pow(m[row][col], p - 2, p)
        m[row] = [(e * inv) % p for e in m[row]]
        for r in range(nrows):
            if r != row and m[r][col]:
                f = m[r][col]
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[row])]
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def graph_has_triangle(g: Graph) -> bool:
    es = set(g.edges)
    for a, b, c in combinations(range(1, g.n + 1), 3):
        if pack((a, b)) in es and pack((b, c)) in es and pack((a, c)) in es:
            return True
    return False


def maximal_independent_sets(g: Graph) -> list[tuple[int, ...]]:
    """Brute force over all subsets (n small)."""
    es = list(g.edges)
    indep = [m for m in range(1 << g.n) if all((m & e) != e for e in es)]
    out = [m for m in indep if not any(o != m and m & ~o == 0 for o in indep)]
    return sorted(unpack(m) for m in out)


def sym2_by_square_membership(ideal: MonomialIdeal) -> Sym2Result:
    """The special-triangle test with I^2 built: each triangle's obstruction
    monomial, in enumeration order, checked for membership in ideal.power(2)."""
    square = None
    checked = 0
    for tri in _iter_special_triangles(ideal.supports()):
        if square is None:
            square = ideal.power(2)
        checked += 1
        mono = triangle_obstruction_monomial(ideal.n, tri)
        if not square.contains(mono):
            return Sym2Result(False, tri, mono, checked)
    return Sym2Result(True, None, None, checked)


def generator_form_square_reports(
    delta: SimplicialComplex, fields: tuple[FieldSpec, ...], budget: int = DEFAULT_BUDGET
) -> dict[FieldSpec, DepthReport]:
    """Depth of S/I_Delta^2 with I^2 built and Delta_a selected by its
    generators, whether or not I^2 = I^(2)."""
    return depth_reports(stanley_reisner(delta).power(2), fields, budget)
