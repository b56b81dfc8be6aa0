"""Shared test oracles: independent, brute-force implementations used to
cross-check the package's optimized kernels.  Nothing here imports the code
paths under test beyond plain data types, the special-triangle enumeration
for the second-power oracle, reduced homology for the graded pieces and for
the re-indexed links that the link walk replaces, the generator-form depth
scan that the facet-form square scan and the join route replace, the
vertex cap of the non-face triple condition, and criterion 8's pool of
complexes.  The Delta_a oracles follow the formulas in the docstring of
``srsq.takayama`` and call nothing in that module; the unbounded scan loop
takes its budget check from there, its face index from the complex
(``SimplicialComplex.face_index``), and its walks from the caller.  A
link's bitset is also found here by listing the link's faces, the route
the memo's keys replace."""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product

from hypothesis import strategies as st

from srsq import (
    DEFAULT_BUDGET,
    QQ,
    DepthReport,
    FieldSpec,
    Graph,
    MonomialIdeal,
    SimplicialComplex,
    Sym2Result,
    cross_polytope,
    cycle_complex,
    depth_reports,
    four_path,
    new_complex,
    path_complex,
    phantom_pentagon,
    reduced_homology,
    rp2,
    simplex_complex,
    stanley_reisner,
    symbolic_power,
)
from srsq.bits import bit_index, bits, compress, generated_faces, is_subset, pack, unpack
from srsq.criteria import CONDITION3_MAX_VERTICES, Condition3Result
from srsq.homology import profile_from_faces
from srsq.ideals import _iter_special_triangles, triangle_obstruction_monomial
from srsq.reproduce import iter_pure_complexes
from srsq.takayama import CohomologyWitness, _checked_size


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


def boundary_matrix(delta: SimplicialComplex, i: int) -> list[list[int]]:
    """Boundary matrix d_i over Z with signs from ascending vertex order,
    built densely: the oracle for the signed columns of srsq.homology.

    Rows are the (i-1)-faces, columns the i-faces, both sorted by vertex
    tuple; dropping the j-th vertex has sign (-1)^j.  i = 0 yields the
    augmentation row, i = -1 an empty matrix.
    """
    if delta.is_void() or not -1 <= i <= delta.dim:
        raise ValueError(f"boundary index {i} out of range")
    if i == -1:
        return []
    faces = delta.sorted_faces()
    rows = [m for m in faces if m.bit_count() == i]
    cols = [m for m in faces if m.bit_count() == i + 1]
    if i == 0:
        return [[1] * len(cols)]
    rows_index = {m: r for r, m in enumerate(rows)}
    matrix = [[0] * len(cols) for _ in rows]
    for c, m in enumerate(cols):
        for j, v in enumerate(unpack(m)):
            matrix[rows_index[m ^ (1 << (v - 1))]][c] = -1 if j % 2 else 1
    return matrix


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
    """Dense elimination mod p, independent of the production unit-pivot path."""
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


# -- pools for the join route's oracles ---------------------------------------


def random_complex(rng, n):
    """Random facets, so cone vertices, unused vertices and mixed facet sizes occur."""
    return SimplicialComplex(n, tuple(rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 4))))


def random_joins(count=60, seed=89, factors_per_join=(1, 2, 3)):
    """Joins of two or three complexes on at most 8 vertices in all: random
    factors on 2..4 vertices without cone vertices (non-pure, with unused
    vertices at times), and in about a third of the joins a cone factor."""
    rng = random.Random(seed)
    joins = []
    while len(joins) < count:
        factors = []
        for n in [rng.randint(2, 4) for _ in range(rng.choice(factors_per_join))]:
            factor = random_complex(rng, n)
            while factor.cone_vertices():
                factor = random_complex(rng, n)
            factors.append(factor)
        if len(factors) == 1 or rng.random() < 1 / 3:
            factors.insert(rng.randint(0, len(factors)), simplex_complex(1))
        if len(factors) > 3 or sum(f.n for f in factors) > 8:
            continue
        j = factors[0]
        for factor in factors[1:]:
            j = j.join(factor)
        joins.append(j)
    return joins


def join_oracle_cases():
    """Random joins of two and of three non-cone factors, with and without a
    cone block and unused vertices, and joins with an rp2 factor."""
    pentagon = cycle_complex(5)
    rng = random.Random(101)
    return random_joins() + random_joins(24, 103, (2, 3)) + [
        rp2().join(SimplicialComplex(2, (1, 2))),  # rp2 * two points
        SimplicialComplex(7, rp2().facets),  # rp2 and an unused vertex
        rp2().join(simplex_complex(1)).join(SimplicialComplex(1, (0,))),  # a cone, an unused
        SimplicialComplex(3, (0,)),  # three unused vertices and nothing else
        SimplicialComplex(6, pentagon.facets),  # the pentagon and an unused vertex
        SimplicialComplex(8, tuple(f | 1 << 5 for f in pentagon.facets)),  # cone 6, unused 7, 8
        random_complex(rng, 3).join(cross_polytope(2)),
    ]


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


def facet_selection(facets, ell: int, faces, n: int):
    """``select(g_mask, a)`` of the facet form of I_Delta^(ell), one point at
    a time: Delta_a as its bitset over ``faces``, the OR of the faces inside
    the facets F containing G_a with sum_{i not in F} a_i <= ell - 1, less
    the faces meeting G_a.  The per-point oracle of the star walk."""
    inside = [sum(1 << p for p, face in enumerate(faces) if not face & ~f) for f in facets]
    avoiding = {}

    def select(g_mask: int, a) -> int:
        selected = 0
        for f, below in zip(facets, inside):
            if not g_mask & ~f and sum(e for i, e in enumerate(a) if not f >> i & 1) < ell:
                selected |= below
        if g_mask not in avoiding:
            avoiding[g_mask] = sum(1 << p for p, face in enumerate(faces) if not face & g_mask)
        return selected & avoiding[g_mask]

    return select


def facet_form_points(delta: SimplicialComplex, ell: int):
    """Every point of the facet-form scan of I_Delta^(ell), in scan order,
    with its Delta_a bitset over delta.sorted_faces() by ``facet_selection``,
    void points included: a = -1 on a face G and 0 <= a_j <= rho_j - 1
    elsewhere, rho_j = ell off the cone vertices and 0 on them."""
    n, faces = delta.n, delta.sorted_faces()
    select = facet_selection(delta.facets, ell, faces, n)
    rho = [0 if all(f >> j & 1 for f in delta.facets) else ell for j in range(n)]
    for g in faces:
        for a in product(*((-1,) if g >> j & 1 else range(rho[j]) for j in range(n))):
            yield g, a, select(g, a)


def faces_at(faces, key: int) -> list[int]:
    """The faces at the set bits of a bitset over ``faces``, in their order."""
    return [f for p, f in enumerate(faces) if key >> p & 1]


def profile_of_faces(faces, fields, below=None):
    """profile_from_faces of the complex whose faces are ``faces``, a closed
    face list, on the vertices 1 .. its largest vertex, over its whole key."""
    delta = SimplicialComplex(max(faces, default=0).bit_length(), tuple(faces))
    return profile_from_faces(delta, delta.face_index.everything, fields, below=below)


def is_cone_bitset(delta: SimplicialComplex, key: int) -> bool:
    """Whether the subcomplex of ``delta`` at the set bits of ``key`` over
    delta.sorted_faces() is a cone: nonvoid with a vertex in every facet."""
    facets = SimplicialComplex(delta.n, tuple(faces_at(delta.sorted_faces(), key))).facets
    common = -1
    for f in facets:
        common &= f
    return bool(facets) and common != 0


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


# -- the depth scan without its stop and degree cut -----------------------------


def unbounded_scan_reports(delta, rho, fields, budget, walk,
                           memo=None) -> dict[FieldSpec, DepthReport]:
    """takayama._scan_reports as it was before the stop and the degree cut:
    every point the walk yields under a bound above every face size is
    visited, each new Delta_a gets its full
    profile, and each field keeps the first piece at every degree below
    dim S/I; its depth is the lowest of those, its witness the piece there.
    It takes the scan's ``memo`` argument and ignores it: the walk reads
    the face index of ``delta``, and the oracle keeps its own cache of
    profiles, one per scan."""
    size = _checked_size(delta.face_masks, rho, budget)
    dim_ring = delta.dim + 1
    cache = {}
    first_hits = [{} for _ in fields]
    for g_mask, a, key in walk(delta.face_index, rho, lambda: delta.n + 2):
        profiles = cache.get(key)
        if profiles is None:
            profiles = cache[key] = profile_from_faces(delta, key, fields)
        shift = g_mask.bit_count() + 1
        for profile, first_hit in zip(profiles, first_hits):
            for i, betti in enumerate(profile.betti, shift - 1):
                if betti and i < dim_ring and i not in first_hit:
                    first_hit[i] = CohomologyWitness(i, a, i - shift, betti)
    depths = [min(first_hit, default=dim_ring) for first_hit in first_hits]
    return {f: DepthReport(f, d, dim_ring, d == dim_ring, first_hit.get(d), size)
            for f, d, first_hit in zip(fields, depths, first_hits)}


# -- pools for the link-walk cross-checks -------------------------------------


@functools.cache
def relabeling_classes() -> tuple[SimplicialComplex, ...]:
    """One complex per class of criterion 8's exhaustive pool
    (iter_pure_complexes) whose complexes differ by a vertex relabeling;
    worked out once per test session."""
    seen, out = set(), []
    for d in iter_pure_complexes():
        key = (d.n, min(tuple(sorted(pack([p[v - 1] for v in unpack(f)]) for f in d.facets))
                        for p in permutations(range(1, d.n + 1))))
        if key not in seen:
            seen.add(key)
            out.append(d)
    return tuple(out)


def random_complex_with_unused_vertices(rng, pure):
    """Facets on 1..n-1 of one size (pure) or of mixed sizes; vertex n and
    whatever else no facet picks stay unused."""
    n = rng.randint(4, 8)
    size = rng.randint(2, 3)
    facets = [pack(rng.sample(range(1, n), size if pure else rng.randint(1, n - 2)))
              for _ in range(rng.randint(2, 8))]
    return SimplicialComplex(n, tuple(facets))


@st.composite
def coned_complexes_with_unused_vertices(draw):
    """Facets on base vertices 1..m, each joined with up to two cone
    vertices after them, and up to two unused vertices after those."""
    m = draw(st.integers(min_value=1, max_value=5))
    facets = draw(st.lists(st.sets(st.integers(min_value=1, max_value=m), min_size=1),
                           min_size=1, max_size=5))
    cone, unused = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    apex = pack(range(m + 1, m + cone + 1))
    return SimplicialComplex(m + cone + unused, tuple(pack(f) | apex for f in facets))


def cone_bases():
    """Complexes with no cone vertex whose Gorenstein test fails.  The first
    four fail at the empty face; the four-cycle with a pendant edge passes
    there and fails at its vertex 4, whose link is three points."""
    pendant = new_complex(5, [(1, 2), (2, 3), (3, 4), (1, 4), (4, 5)])
    return [four_path(), rp2(), path_complex(6), phantom_pentagon(2), pendant]


# -- the per-field link route the link walk replaces ----------------------------


def filtered_link_with_map(delta: SimplicialComplex, face):
    """SimplicialComplex.link_with_map by its own re-indexing: the facets
    containing ``face``, less it, compressed onto the vertices they cover,
    with the old->new vertex map (ascending)."""
    f = pack(face)
    if not delta.contains_mask(f):
        raise ValueError(f"{unpack(f)} is not a face")
    raw = [g & ~f for g in delta.facets if is_subset(f, g)]
    survivors = functools.reduce(int.__or__, raw, 0)
    vmap = {bit_index(b): i + 1 for i, b in enumerate(bits(survivors))}
    facets = tuple(compress(m, survivors) for m in raw)
    return SimplicialComplex(survivors.bit_count(), facets), vmap


def link_key_by_faces(delta: SimplicialComplex, face: int) -> int:
    """lk ``face`` as its bitset over delta.sorted_faces(), from the link's
    faces listed by generated_faces: the OR of their bits."""
    bit = {f: 1 << p for p, f in enumerate(delta.sorted_faces())}
    link = generated_faces(g & ~face for g in delta.facets if face & ~g == 0)
    return functools.reduce(int.__or__, map(bit.__getitem__, link), 0)


def first_failing_link(delta: SimplicialComplex, field: FieldSpec, sphere: bool):
    """(face, degree) of the first face in sorted_faces() order whose
    re-indexed link has homology below its dimension or, with ``sphere``, a
    top homology other than K; None when every link passes."""
    for f in delta.sorted_faces():
        link = delta.link(unpack(f))
        profile = reduced_homology(link, field)
        low = [i for i in range(-1, link.dim) if profile.betti_number(i)]
        if low:
            return unpack(f), low[0]
        if sphere and profile.betti_number(link.dim) != 1:
            return unpack(f), link.dim
    return None


def reindexed_cm_verdict(delta: SimplicialComplex, field: FieldSpec):
    """(is_cm, witness face, witness degree) of Reisner's criterion, one
    re-indexed link at a time."""
    bad = first_failing_link(delta, field, sphere=False)
    return (bad is None, *(bad or (None, None)))


def reindexed_gorenstein_verdict(delta: SimplicialComplex, field: FieldSpec):
    """(is_gorenstein, core Euler value, expected Euler value, witness face,
    witness degree) of Stanley's criterion on the re-indexed core, the
    witness carried back to the input's labels."""
    core, vmap = delta.core_with_map()
    bad = first_failing_link(core, field, sphere=True)
    if bad is not None:
        label = {new: old for old, new in vmap.items()}
        bad = (tuple(label[v] for v in bad[0]), bad[1])
    euler = (core.f_vector().euler_reduced, 1 if core.dim % 2 == 0 else -1)
    return (bad is None, *euler, *(bad or (None, None)))


def reindexed_local_gorenstein_verdict(delta: SimplicialComplex, field: FieldSpec):
    """(holds, witness vertex): the first vertex whose re-indexed link has a
    core that fails Stanley's test."""
    first = next((v for v in unpack(delta.support) if first_failing_link(
        delta.link([v]).core(), field, sphere=True)), None)
    return first is None, first
