"""Shared test oracles: independent, brute-force implementations used to
cross-check the package's optimized kernels.  Nothing here imports the code
paths under test beyond plain data types, the special-triangle enumeration
for the second-power oracle, reduced homology for the graded pieces, the
generator-form depth scan that the facet-form square scan and the join route
replace, and the vertex cap of the non-face triple condition.  The
Delta_a oracles follow the formulas in the docstring of ``srsq.takayama`` and
call nothing in that module."""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

from srsq import (
    DEFAULT_BUDGET,
    QQ,
    DepthReport,
    FieldSpec,
    Graph,
    MonomialIdeal,
    SimplicialComplex,
    Sym2Result,
    depth_reports,
    four_path,
    new_complex,
    path_complex,
    phantom_pentagon,
    reduced_homology,
    rp2,
    stanley_reisner,
    symbolic_power,
)
from srsq.bits import pack, unpack
from srsq.criteria import CONDITION3_MAX_VERTICES, Condition3Result
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


def condition3_over_all_nonfaces(delta: SimplicialComplex) -> Condition3Result:
    """The non-face triple condition by brute force over all 2^n subsets,
    deduplicated by (union, intersection) signatures; no reduction to minimal
    non-faces is used.  The witness oracle for ``condition3_check``, in the
    same signature order."""
    n = delta.n
    if n > CONDITION3_MAX_VERTICES:
        raise ValueError(
            "the non-face triple brute force is capped at "
            f"n <= {CONDITION3_MAX_VERTICES}, got n = {n}"
        )
    full = (1 << n) - 1
    faces = delta.face_masks
    nonfaces = [m for m in range(full + 1) if m not in faces]
    if not nonfaces:
        return Condition3Result(True)

    nfset = set(nonfaces)
    # has_nonface_inside[m]: some non-face is a subset of m.  Non-faces are
    # upward closed, so one bit-removal step per mask suffices.
    hnf = bytearray(full + 1)
    for m in range(full + 1):
        if m in nfset:
            hnf[m] = 1
            continue
        mm = m
        while mm:
            b = mm & -mm
            if hnf[m ^ b]:
                hnf[m] = 1
                break
            mm ^= b

    pair_sigs: dict[tuple[int, int], tuple[int, int]] = {}
    for i, f1 in enumerate(nonfaces):
        for f2 in nonfaces[i:]:
            key = (f1 | f2, f1 & f2)
            if key not in pair_sigs:
                pair_sigs[key] = (f1, f2)
    triple_sigs: dict[tuple[int, int], tuple[int, int, int]] = {}
    for (u2, w2), (f1, f2) in pair_sigs.items():
        for f3 in nonfaces:
            key = (u2 | f3, w2 & f3)
            if key not in triple_sigs:
                triple_sigs[key] = (f1, f2, f3)

    def satisfiable(u: int, w: int) -> bool:
        for g1 in nonfaces:
            if g1 & ~u:
                continue
            if hnf[u & ~(g1 & ~w)]:
                return True
        return False

    for (u, w), triple in triple_sigs.items():
        if not satisfiable(u, w):
            return Condition3Result(False, tuple(unpack(t) for t in triple))
    return Condition3Result(True)


def join_blocks_by_bfs(delta: SimplicialComplex) -> list[int]:
    """Vertex blocks of the finest join decomposition, as sorted masks.

    The blocks are the connected components, found by breadth-first search,
    of the relation "lie in a common minimal non-face", plus one block of
    the vertices in every facet.  Minimal non-faces come from a scan of every
    subset of [n]: a non-face all of whose codimension-one subsets are faces.
    """
    faces = delta.face_masks
    minimal = [m for m in range(1 << delta.n) if m not in faces
               and all(m & ~(1 << (v - 1)) in faces for v in unpack(m))]
    unseen = {v for m in minimal for v in unpack(m)}
    blocks = []
    while unseen:
        start = min(unseen)
        unseen.discard(start)
        block, queue = 0, [start]
        while queue:
            v = queue.pop(0)
            block |= 1 << (v - 1)
            for m in minimal:
                if m >> (v - 1) & 1:
                    for w in unpack(m):
                        if w in unseen:
                            unseen.discard(w)
                            queue.append(w)
        blocks.append(block)
    cone = [v for v in range(1, delta.n + 1) if all(f >> (v - 1) & 1 for f in delta.facets)]
    if cone:
        blocks.append(pack(cone))
    return sorted(blocks)


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
    """Plain Gaussian elimination over Fraction, the rank oracle.  Rows are
    kept sparse as {column: entry} and reduced against earlier pivot rows,
    so boundary matrices of a few hundred faces stay cheap."""
    pivots = {}  # leading column -> pivot row with leading entry 1
    for row in rows:
        r = {c: Fraction(e) for c, e in enumerate(row) if e}
        while r:
            lead = min(r)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = 1 / r[lead]
                pivots[lead] = {c: e * inv for c, e in r.items()}
                break
            f = r[lead]
            for c, e in pivot.items():
                v = r.get(c, 0) - f * e
                if v:
                    r[c] = v
                else:
                    r.pop(c, None)
    return len(pivots)


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


def generator_form_symbolic_square_reports(
    delta: SimplicialComplex, fields: tuple[FieldSpec, ...], budget: int = DEFAULT_BUDGET
) -> dict[FieldSpec, DepthReport]:
    """Depth of S/I_Delta^(2) with I^(2) built and Delta_a selected by its
    generators."""
    return depth_reports(symbolic_power(delta, 2), fields, budget)


def assert_whole_ring_report(delta: SimplicialComplex, report: DepthReport,
                             whole: DepthReport, oracle) -> None:
    """``report``, of S/I_Delta^2 or S/I_Delta^(2), against ``whole``, the
    scan of that whole ring.  A join's report has the same depth, dim,
    verdict and scan size but no witness, and each of its factors holds the
    generator-form reports of the factor's S/I and, by ``oracle``, of its
    power; any other report is ``whole`` itself."""
    if not report.factors:
        assert report == whole
        return
    assert report.witness is None
    assert replace(report, witness=whole.witness, factors=()) == whole
    f = report.field
    for vertices, radical, power in report.factors:
        factor = delta.restrict(vertices)
        assert radical == depth_reports(stanley_reisner(factor), (f,))[f]
        assert power == oracle(factor, (f,))[f]


# -- Delta_a and graded pieces by the displayed formulas ----------------------


@dataclass(frozen=True)
class DegreeVector:
    """a in Z^n with its negative support G_a."""

    a: tuple[int, ...]

    def neg_support(self) -> tuple[int, ...]:
        return tuple(j for j, e in enumerate(self.a, 1) if e < 0)


def ideal_faces(ideal: MonomialIdeal) -> list[frozenset[int]]:
    """Faces of Delta(I): the subsets of [n] containing no generator's support."""
    supports = [{j for j, e in enumerate(g.exps, 1) if e} for g in ideal.gens]
    vertices = range(1, ideal.n + 1)
    return [
        frozenset(c)
        for k in range(ideal.n + 1)
        for c in combinations(vertices, k)
        if not any(s <= set(c) for s in supports)
    ]


def ideal_rho(ideal: MonomialIdeal) -> tuple[int, ...]:
    """Per-variable maximum exponent over the minimal generators."""
    return tuple(max((g.exps[j] for g in ideal.gens), default=0) for j in range(ideal.n))


def delta_a(ideal: MonomialIdeal, a) -> SimplicialComplex:
    """Delta_a(I): the faces F of Delta(I) disjoint from G_a such that every
    minimal generator x^b has some b_i > a_i with i outside F and G_a.  No
    face at all is the void complex."""
    if len(a) != ideal.n:
        raise ValueError("degree vector length must match the variable count")
    neg = set(DegreeVector(tuple(a)).neg_support())
    faces = [
        f for f in ideal_faces(ideal)
        if not f & neg
        and all(any(g.exps[i - 1] > a[i - 1] for i in range(1, ideal.n + 1) if i not in f | neg)
                for g in ideal.gens)
    ]
    return SimplicialComplex(ideal.n, tuple(pack(f) for f in faces))


def delta_a_symbolic(delta: SimplicialComplex, a, ell: int) -> SimplicialComplex:
    """Delta_a(I_Delta^(ell)) for a in N^n: generated by the facets F of Delta
    with sum_{i not in F} a_i <= ell - 1."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if any(e < 0 for e in a):
        raise ValueError("delta_a_symbolic needs a nonnegative degree (use delta_a)")
    if len(a) != delta.n:
        raise ValueError("degree vector length must match the vertex count")
    return SimplicialComplex(delta.n, tuple(
        f for f in delta.facets
        if sum(e for i, e in enumerate(a, 1) if i not in unpack(f)) <= ell - 1
    ))


def local_cohomology_dim(ideal: MonomialIdeal, i: int, a, field: FieldSpec = QQ) -> int:
    """dim_K H_m^i(S/I)_a: ~H_{i - |G_a| - 1}(Delta_a(I); K) when G_a is a
    face of Delta(I) and a_j <= rho_j - 1 for all j, and 0 otherwise."""
    if ideal.is_unit():
        raise ValueError("local cohomology of the zero ring is rejected")
    if len(a) != ideal.n:
        raise ValueError("degree vector length must match the variable count")
    faces = ideal_faces(ideal)
    dim_ring = max(len(f) for f in faces)
    if not 0 <= i <= dim_ring:
        raise ValueError(f"cohomological degree {i} out of range 0..{dim_ring}")
    g = DegreeVector(tuple(a)).neg_support()
    if frozenset(g) not in faces:
        return 0
    if any(e > r - 1 for e, r in zip(a, ideal_rho(ideal))):
        return 0
    return reduced_homology(delta_a(ideal, a), field).betti_number(i - len(g) - 1)


def brute_force_depth(ideal: MonomialIdeal, field: FieldSpec = QQ):
    """(depth, first witness (a, dim) or None, scan size) of S/I from
    local_cohomology_dim at every degree of the scan space: a = -1 on a face
    G of Delta(I) and 0 <= a_j <= rho_j - 1 elsewhere, faces by (size,
    vertices) and then a in lexicographic order, one cohomological degree
    at a time below dim S/I."""
    faces = sorted(ideal_faces(ideal), key=lambda f: (len(f), sorted(f)))
    rho = ideal_rho(ideal)
    points = [a for g in faces for a in product(
        *((-1,) if j in g else range(rho[j - 1]) for j in range(1, ideal.n + 1)))]
    dim_ring = max(len(f) for f in faces)
    for i in range(dim_ring):
        for a in points:
            betti = local_cohomology_dim(ideal, i, a, field)
            if betti:
                return i, (a, betti), len(points)
    return dim_ring, None, len(points)


# -- pools for the link-walk cross-checks -------------------------------------


def random_complex_with_unused_vertices(rng, pure):
    """Facets on 1..n-1 of one size (pure) or of mixed sizes; vertex n and
    whatever else no facet picks stay unused."""
    n = rng.randint(4, 8)
    size = rng.randint(2, 3)
    facets = [pack(rng.sample(range(1, n), size if pure else rng.randint(1, n - 2)))
              for _ in range(rng.randint(2, 8))]
    return SimplicialComplex(n, tuple(facets))


def cone_bases():
    """Complexes with no cone vertex whose Gorenstein test fails.  The first
    four fail at the empty face; the four-cycle with a pendant edge passes
    there and fails at its vertex 4, whose link is three points."""
    pendant = new_complex(5, [(1, 2), (2, 3), (3, 4), (1, 4), (4, 5)])
    return [four_path(), rp2(), path_complex(6), phantom_pentagon(2), pendant]
