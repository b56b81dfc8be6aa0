import functools
import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from srsq import (
    GF2,
    QQ,
    FieldSpec,
    cohen_macaulay_reports,
    cross_polytope,
    cross_polytope_stellar,
    cycle_complex,
    four_path,
    gorenstein_reports,
    irrelevant_complex,
    is_cohen_macaulay,
    is_gorenstein,
    is_locally_gorenstein,
    locally_gorenstein_reports,
    matrix_rank,
    new_complex,
    path_complex,
    phantom_pentagon,
    reduced_homology,
    rp2,
    simplex_complex,
)
from srsq import SimplicialComplex, homology
from srsq.bits import generated_faces, pack
from srsq.criteria import explore_complexes, random_pure_complex
from srsq.homology import parse_field_battery, profile_from_faces
from srsq.reproduce import named_battery as reproduce_named_battery
from srsq.complexes import FaceIndex
from helpers import (boundary_matrix, cone_bases, fraction_rank,
                     link_key_by_faces, modp_rank_naive, profile_of_faces,
                     random_complex_with_unused_vertices,
                     reindexed_cm_verdict, reindexed_gorenstein_verdict,
                     reindexed_local_gorenstein_verdict, relabeling_classes)

F3 = FieldSpec(3)


def named_battery():
    return [
        cycle_complex(5),
        rp2(),
        four_path(),
        cross_polytope(2),
        cross_polytope(3),
        cross_polytope_stellar(2),
        cross_polytope_stellar(3),
        phantom_pentagon(2),
        path_complex(6),
        simplex_complex(3),
    ]


# -- field parsing -----------------------------------------------------------------

def test_field_spec():
    assert FieldSpec.parse("Q").char == 0
    assert FieldSpec.parse("F2") == GF2
    assert FieldSpec.parse("5").char == 5
    assert GF2.name == "F2" and QQ.name == "Q"
    with pytest.raises(ValueError):
        FieldSpec(4)
    with pytest.raises(ValueError):
        FieldSpec.parse("xyz")
    assert parse_field_battery("Q,F2,F3") == (QQ, GF2, F3)


# -- exact rank kernels ---------------------------------------------------------------

def test_rank_small_examples():
    assert matrix_rank([[1, 2], [2, 4]], QQ) == 1
    assert matrix_rank([[1, 1], [1, -1]], QQ) == 2
    assert matrix_rank([[1, 1], [1, 1]], GF2) == 1
    assert matrix_rank([[2, 0], [0, 2]], GF2) == 0  # even entries vanish mod 2
    assert matrix_rank([], QQ) == 0
    assert matrix_rank([[3], [6]], F3) == 0


def test_rank_against_fraction_oracle():
    rng = random.Random(41)
    for _ in range(150):
        rows = rng.randint(1, 7)
        cols = rng.randint(1, 7)
        m = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        assert matrix_rank(m, QQ) == fraction_rank(m)


def test_rank_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(43)
    for _ in range(40):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        assert matrix_rank(m, QQ) == sympy.Matrix(m).rank()


def test_modp_ranks_against_naive():
    rng = random.Random(47)
    for p in (2, 3, 5):
        field = FieldSpec(p)
        for _ in range(60):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            m = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
            assert matrix_rank(m, field) == modp_rank_naive(m, p)


# -- boundary matrices ------------------------------------------------------------------

def test_pentagon_boundary():
    p = cycle_complex(5)
    d1 = boundary_matrix(p, 1)
    assert len(d1) == 5 and len(d1[0]) == 5
    assert matrix_rank(d1, QQ) == 4
    d0 = boundary_matrix(p, 0)
    assert d0 == [[1, 1, 1, 1, 1]]
    assert boundary_matrix(p, -1) == []


def test_boundary_layout_and_signs():
    # rows and columns by vertex tuple; dropping the j-th vertex has sign (-1)^j
    triangle = simplex_complex(3)
    assert boundary_matrix(triangle, 1) == [[-1, -1, 0], [1, 0, -1], [0, 1, 1]]
    assert boundary_matrix(triangle, 2) == [[1], [-1], [1]]


def test_single_edge_boundary_rank():
    e = new_complex(2, [(1, 2)])
    assert matrix_rank(boundary_matrix(e, 1), QQ) == 1


def test_chain_condition():
    for d in named_battery():
        for i in range(1, d.dim + 1):
            a = boundary_matrix(d, i - 1)
            b = boundary_matrix(d, i)
            if not a or not b:
                continue
            rows, mid, cols = len(a), len(b), len(b[0])
            for r in range(rows):
                for c in range(cols):
                    assert sum(a[r][k] * b[k][c] for k in range(mid)) == 0


def test_boundary_range_errors():
    with pytest.raises(ValueError):
        boundary_matrix(cycle_complex(5), 2)


# -- homology profiles --------------------------------------------------------------------

def test_rp2_homology():
    d = rp2()
    assert reduced_homology(d, GF2).as_mapping() == {-1: 0, 0: 0, 1: 1, 2: 1}
    assert reduced_homology(d, QQ).as_mapping() == {-1: 0, 0: 0, 1: 0, 2: 0}


def test_circle_and_spheres():
    profile = reduced_homology(cycle_complex(5), QQ)
    assert profile.as_mapping() == {-1: 0, 0: 0, 1: 1}
    for field in (QQ, GF2, F3):
        for d in (1, 2, 3):
            mapping = reduced_homology(cross_polytope(d), field).as_mapping()
            expected = {i: 0 for i in range(-1, d)}
            expected[d - 1] = 1
            assert mapping == expected


def test_edge_cases():
    assert reduced_homology(irrelevant_complex(), QQ).as_mapping() == {-1: 1}
    point = simplex_complex(1)
    assert reduced_homology(point, QQ).as_mapping() == {-1: 0, 0: 0}
    two_points = new_complex(2, [(1,), (2,)])
    assert reduced_homology(two_points, GF2).as_mapping() == {-1: 0, 0: 1}


def test_profile_does_not_depend_on_face_order():
    # a relabeling reorders the faces within each size class, hence the rows
    # and columns of every boundary map
    rng = random.Random(17)
    pool = named_battery() + [random_pure_complex(rng, rng.randint(3, 7)) for _ in range(12)]
    for d in pool:
        for field in (QQ, GF2, F3):
            (expected,) = profile_from_faces(d, d.face_index.everything, (field,))
            for _ in range(3):
                perm = list(range(1, d.n + 1))
                rng.shuffle(perm)
                moved = d.relabel({v: perm[v - 1] for v in range(1, d.n + 1)})
                assert profile_from_faces(moved, moved.face_index.everything, (field,)) == (expected,)


def random_face_sets(rng, count):
    """Full face lists in random order: the void and irrelevant complexes,
    rp2 (whose homology differs over Q and F2), then random complexes."""
    sets = [[], [0], list(rp2().sorted_faces())]
    for _ in range(count):
        n = rng.randint(1, 7)
        facets = [pack(rng.sample(range(1, n + 1), rng.randint(1, n)))
                  for _ in range(rng.randint(1, 5))]
        sets.append(list(generated_faces(facets)))
    for faces in sets:
        rng.shuffle(faces)
    return sets


def test_battery_profile_equals_one_field_profiles():
    battery = (QQ, GF2, F3)
    for faces in random_face_sets(random.Random(5), 40):
        singles = tuple(profile_of_faces(faces, (field,))[0] for field in battery)
        assert profile_of_faces(faces, battery) == singles
        assert profile_of_faces(faces, battery[::-1]) == singles[::-1]


def test_each_map_is_reduced_once_whatever_the_battery(monkeypatch):
    # ``packed`` logs i for each d_i whose columns are read off the index
    packed, reduced = [], []
    columns, reduce = FaceIndex.columns, homology._unit_reduce

    def counted_columns(index, k):
        packed.append(k - 1)
        return columns(index, k)

    def counted_reduce(cols):
        reduced.append(len(cols))
        return reduce(cols)

    monkeypatch.setattr(FaceIndex, "columns", counted_columns)
    monkeypatch.setattr(homology, "_unit_reduce", counted_reduce)
    d = rp2()
    for battery in ((QQ,), (QQ, GF2), (QQ, GF2, F3)):
        packed.clear()
        reduced.clear()
        profile_from_faces(d, d.face_index.everything, battery)
        # rank d_0 is 1 by formula; d_2 and d_1 go through one reduction
        # each, and d_1 is handed only the 6 edges d_2 left uncleared
        assert packed == [2, 1] and reduced == [10, 6]


@st.composite
def cut_face_sets(draw):
    """A closed face list on at most 7 vertices and a cut from -1 to two
    past its dimension, so some cuts lie above every degree it has."""
    n = draw(st.integers(min_value=1, max_value=7))
    facets = draw(st.lists(st.sets(st.integers(min_value=1, max_value=n), min_size=1),
                           min_size=1, max_size=6))
    faces = list(generated_faces([pack(f) for f in facets]))
    top = max(f.bit_count() for f in faces) - 1
    return faces, draw(st.integers(min_value=-1, max_value=top + 2))


@given(cut_face_sets())
@example(([], 0))  # the void complex
@example(([0], 2))  # {empty face}, cut above its only degree
@example((rp2().sorted_faces(), 1))  # ~H_1 over F2 lies just past the cut
@example((rp2().sorted_faces(), 2))  # and just below it
@example((cross_polytope(3).sorted_faces(), 1))
@settings(max_examples=150, deadline=None)
def test_a_cut_profile_is_the_head_of_the_full_profile_and_reduces_no_higher_map(case):
    faces, below = case
    battery = (QQ, GF2, F3)
    built, reduced, touched = [], [], []
    columns, size_class, reduce = FaceIndex.columns, FaceIndex.size_class, homology._unit_reduce

    def counted_columns(index, k):
        built.append(k - 1)
        return columns(index, k)

    def counted_size_class(index, key, k):
        touched.append(k)
        return size_class(index, key, k)

    def counted_reduce(cols):
        reduced.append(cols)
        return reduce(cols)

    full = profile_of_faces(faces, battery)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(FaceIndex, "columns", counted_columns)
        m.setattr(FaceIndex, "size_class", counted_size_class)
        m.setattr(homology, "_unit_reduce", counted_reduce)
        cut = profile_of_faces(faces, battery, below=below)
    assert [p.field for p in cut] == list(battery)
    assert [p.betti for p in cut] == [p.betti[:below + 1] for p in full]
    # ~H_k needs d_k and d_{k+1} alone: no map d_i with i > below is built or
    # reduced, and no size class above below + 1 is read
    assert len(reduced) == len(built) and all(i <= below for i in built)
    assert all(k <= below + 1 for k in touched)


@st.composite
def memo_requests(draw):
    """A complex on at most 7 vertices, up to three of its subcomplexes, and
    a run of requests (subcomplex, cut from -1 to two past its dimension or
    None for a full profile, fields of (Q, F2, F3) in some order) among
    them."""
    n = draw(st.integers(min_value=1, max_value=7))
    facets = draw(st.lists(st.sets(st.integers(min_value=1, max_value=n), min_size=1),
                           min_size=1, max_size=6))
    delta = SimplicialComplex(n, tuple(pack(f) for f in facets))
    faces = st.lists(st.sampled_from(delta.sorted_faces()), max_size=4)
    subs = [generated_faces(g) for g in draw(st.lists(faces, min_size=1, max_size=3))]
    cuts = st.one_of(st.none(), st.integers(min_value=-1, max_value=delta.dim + 2))
    asked = st.lists(st.sampled_from((QQ, GF2, F3)), min_size=1, max_size=3, unique=True)
    requests = draw(st.lists(st.tuples(st.integers(0, len(subs) - 1), cuts, asked.map(tuple)),
                             min_size=1, max_size=12))
    return delta, subs, requests


def _rp2_memo_case():
    """rp2 whole (~H_1 over F2 only) and a vertex link, asked at rising,
    falling and full cuts."""
    d = rp2()
    link = generated_faces(g & ~1 for g in d.facets if g & 1)
    requests = [(0, 1), (0, 2), (0, None), (0, 0), (1, 0), (1, None), (1, 1), (0, 2), (1, -1)]
    return d, [set(d.sorted_faces()), link], [(s, below, (QQ, GF2, F3)) for s, below in requests]


_RP2_FACES = [set(rp2().sorted_faces())]


@given(memo_requests())
@example(_rp2_memo_case())
# part of the battery, in another order: each request comes back as asked
@example((rp2(), _RP2_FACES, [(0, None, (F3, QQ)), (0, None, (GF2,))]))
# a full entry answers a cut request with no evaluation
@example((rp2(), _RP2_FACES, [(0, None, (QQ, GF2, F3)), (0, 1, (GF2,))]))
# a full request replaces a cut entry, and the full entry answers a higher cut
@example((rp2(), _RP2_FACES, [(0, 0, (QQ,)), (0, None, (GF2,)), (0, 2, (F3,))]))
@settings(max_examples=150, deadline=None)
def test_a_memo_entry_answers_no_request_above_its_cut(case):
    # HomologyMemo.profiles answers from its entry when the entry is full or
    # cut at or above the request; else it evaluates the whole battery at
    # the request's cut, once, and stores it in place of the entry.  The
    # subcomplex is evaluated off its key over Delta's face index, and the
    # oracle evaluates it as a complex of its own
    delta, subs, requests = case
    battery = (QQ, GF2, F3)
    memo = homology.HomologyMemo(delta, battery)
    stored, evaluated = {}, []
    profile = homology.profile_from_faces

    def counted(delta, key, fields, *, below=None):
        evaluated.append((key, tuple(fields), below))
        return profile(delta, key, fields, below=below)

    for s, below, asked in requests:
        faces = subs[s]
        key = sum(1 << p for p, f in enumerate(delta.sorted_faces()) if f in faces)
        answers = key in stored and (stored[key] is None
                                     or below is not None and below <= stored[key])
        evaluated.clear()
        with pytest.MonkeyPatch.context() as m:
            m.setattr(homology, "profile_from_faces", counted)
            profiles = memo.profiles(key, asked, below)
        assert evaluated == ([] if answers else [(key, battery, below)])
        if not answers:
            stored[key] = below
        assert [p.field for p in profiles] == list(asked)
        full = dict(zip(battery, profile_of_faces(faces, battery)))
        for got in profiles:
            head = full[got.field].betti if below is None else full[got.field].betti[:below + 1]
            assert got.betti[:len(head)] == head


def test_a_memo_serves_only_its_own_faces_and_fields():
    # a join's factor, or any other complex, keys its subcomplexes over other
    # faces; the same faces on more vertices need a vertex table with more
    # rows; a field outside the battery has no profiles in the memo
    d = rp2()
    memo = homology.HomologyMemo(d, (QQ, GF2))
    assert homology.HomologyMemo.serving(memo, d, (GF2,)) is memo
    assert homology.HomologyMemo.serving(memo, SimplicialComplex(6, d.facets), (GF2, QQ)) is memo
    wider = SimplicialComplex(8, d.facets)
    for other, fields in ((d, (QQ, F3)), (cycle_complex(5), (QQ,)),
                          (SimplicialComplex(6, d.facets[:-1]), (QQ,)), (wider, (QQ,))):
        fresh = homology.HomologyMemo.serving(memo, other, fields)
        assert fresh is not memo and (fresh.delta, fresh.fields) == (other, fields)
    assert wider.sorted_faces() == d.sorted_faces()
    assert len(wider.face_index.containing) == 8 > len(d.face_index.containing) == 6
    assert homology.HomologyMemo.serving(None, d, (QQ,)).fields == (QQ,)


def torsion_complexes():
    """rp2 and joins of it, whose 2-torsion shows in the homology: the maps
    where ranks differ between Q and F2."""
    d = rp2()
    return [d, d.join(new_complex(2, [(1,), (2,)])), d.join(d), d.join(cycle_complex(5))]


def q_betti_oracle(faces, rank=fraction_rank):
    """dim ~H_i over Q for i = -1 .. dim from fraction_rank of each
    boundary_matrix, as a tuple indexed like HomologyProfile.betti; over
    another field with its ``rank``."""
    if not faces:
        return ()
    delta = SimplicialComplex(max(faces).bit_length(), tuple(faces))
    ranks = [rank(boundary_matrix(delta, i)) for i in range(-1, delta.dim + 1)] + [0]
    sizes = [sum(1 for f in faces if f.bit_count() == i + 1) for i in range(-1, delta.dim + 1)]
    return tuple(size - ranks[t] - ranks[t + 1] for t, size in enumerate(sizes))


def test_q_profiles_match_the_fraction_oracle_whatever_the_battery():
    pool = random_face_sets(random.Random(7), 40)
    pool += [d.sorted_faces() for d in named_battery() + torsion_complexes()]
    for faces in pool:
        expected = q_betti_oracle(faces)
        for battery in ((QQ,), (QQ, GF2), (F3, QQ, GF2)):
            profiles = dict(zip(battery, profile_of_faces(faces, battery)))
            assert profiles[QQ].betti == expected


def graph_face_sets(rng, count):
    """Face lists of dimension <= 1: the void complex, {0}, random graphs
    with isolated vertices, and the links of rp2's nonempty faces (cycles,
    pairs of points and {0})."""
    sets = [[], [0]]
    for _ in range(count):
        n = rng.randint(1, 8)
        vertices = rng.sample(range(1, n + 1), rng.randint(1, n))
        edges = [pack(e) for e in combinations(sorted(vertices), 2) if rng.random() < 0.4]
        sets.append(list(generated_faces([pack([v]) for v in vertices] + edges)))
    d = rp2()
    sets += [sorted(generated_faces(g & ~f for g in d.facets if f & ~g == 0))
             for f in d.sorted_faces() if f]
    for faces in sets:
        rng.shuffle(faces)
    return sets


def test_graph_rule_matches_the_rank_route(monkeypatch):
    # a signed incidence matrix reduces on unit pivots alone, so one
    # reduction answers every field and no graph reaches matrix_rank; the
    # rank route (fraction_rank over Q, dense elimination mod p) is the oracle
    pool = graph_face_sets(random.Random(83), 60)
    battery = (QQ, GF2, F3)

    def refuse(*args):
        raise AssertionError("a graph leaves no remainder to rank")

    with monkeypatch.context() as m:
        m.setattr(homology, "matrix_rank", refuse)
        profiles = [profile_of_faces(faces, battery) for faces in pool]
    isolated = cycles = 0
    for faces, by_field in zip(pool, profiles):
        expected = q_betti_oracle(faces)
        for profile in by_field:
            assert profile.betti == expected
        for p in (2, 3):
            assert q_betti_oracle(faces, lambda rows: modp_rank_naive(rows, p)) == expected
        isolated += len(expected) == 3 and any(
            f.bit_count() == 1 and not any(e & f for e in faces if e.bit_count() == 2)
            for f in faces)
        cycles += len(expected) == 3 and expected[2] > 0
    assert isolated >= 5 and cycles >= 5


@st.composite
def oriented_graphs(draw):
    """(V, edges as (tail, head) vertex pairs) on at most 12 vertices, each
    edge oriented at random, in random order; vertices no edge meets are
    isolated."""
    v = draw(st.integers(min_value=1, max_value=12))
    pairs = [] if v == 1 else draw(st.lists(st.sampled_from(list(combinations(range(v), 2))),
                                            unique=True, max_size=20))
    flips = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return v, [(w, u) if flip else (u, w) for (u, w), flip in zip(pairs, flips)]


def bfs_components(v, edges):
    neighbours = {u: set() for u in range(v)}
    for u, w in edges:
        neighbours[u].add(w)
        neighbours[w].add(u)
    seen, components = set(), 0
    for start in range(v):
        if start in seen:
            continue
        components += 1
        seen.add(start)
        queue = [start]
        while queue:
            for w in neighbours[queue.pop()] - seen:
                seen.add(w)
                queue.append(w)
    return components


@given(oriented_graphs())
@example((12, []))  # twelve isolated vertices
@example((7, [(0, 1), (1, 2), (2, 0), (3, 4), (5, 4)]))  # a triangle, a path and a point
@example((6, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (4, 5)]))
@settings(max_examples=200, deadline=None)
def test_a_graph_reduces_to_a_spanning_forest_with_nothing_set_aside(graph):
    # a signed incidence column has one +1 and one -1, and so does every
    # column reduced by such a pivot: no +-2 entry can arise, and rank d_1 is
    # V - c with no remainder, over every field
    v, edges = graph
    pivot_rows, rest = homology._unit_reduce([(1 << head, 1 << tail) for tail, head in edges])
    assert rest == []
    assert pivot_rows.bit_count() == v - bfs_components(v, edges)


@st.composite
def integer_matrices(draw):
    cols = draw(st.integers(min_value=1, max_value=6))
    row = st.lists(st.integers(min_value=-4, max_value=4), min_size=cols, max_size=cols)
    return draw(st.lists(row, min_size=1, max_size=6))


@given(integer_matrices())
@settings(max_examples=200, deadline=None)
def test_rank_over_q_bounds_every_prime_rank(m):
    # a minor that is nonzero mod p is nonzero over Z, so rank_Q >= rank_Fp;
    # the audit's cross-field depth check rests on this
    q = matrix_rank(m, QQ)
    assert q >= matrix_rank(m, GF2) and q >= matrix_rank(m, F3)


def test_only_remainders_reach_matrix_rank(monkeypatch):
    calls = []
    rank = homology.matrix_rank

    def recorded(rows, field):
        calls.append((field, rows))
        return rank(rows, field)

    monkeypatch.setattr(homology, "matrix_rank", recorded)

    def remainders(run):
        calls.clear()
        run()
        return calls

    # spheres and links of a Gorenstein complex reduce on unit pivots alone,
    # so they hand matrix_rank nothing
    assert remainders(lambda: reduced_homology(cross_polytope(3), QQ)) == []
    assert remainders(lambda: reduced_homology(cycle_complex(5), QQ)) == []  # a graph
    assert remainders(lambda: is_cohen_macaulay(cross_polytope_stellar(3), QQ)) == []
    # no field ranks an empty remainder
    battery = (QQ, GF2, F3)
    octahedron = cross_polytope(3)
    assert remainders(lambda: profile_from_faces(
        octahedron, octahedron.face_index.everything, battery)) == []
    # rp2's d_2 keeps a remainder, which carries its 2-torsion; it reaches
    # matrix_rank once per field, with 3 rows
    assert [f for f, _ in remainders(lambda: profile_from_faces(
        rp2(), rp2().face_index.everything, battery))] == list(battery)
    (field, rows), = remainders(lambda: reduced_homology(rp2(), GF2))
    d2 = boundary_matrix(rp2(), 2)
    assert field == GF2 and len(rows) == 3 and len(rows[0]) < len(d2[0])


def dense(columns, height):
    """The integer matrix of (+1 rows, -1 rows) bitmask columns."""
    return [[(plus >> r & 1) - (minus >> r & 1) for plus, minus in columns]
            for r in range(height)]


def assert_reduction_ranks(columns, height):
    pivot_rows, rest = homology._unit_reduce(columns)
    u = pivot_rows.bit_count()
    m = dense(columns, height)
    assert u + matrix_rank(rest, QQ) == fraction_rank(m)
    for p in (2, 3):
        assert u + matrix_rank(rest, FieldSpec(p)) == modp_rank_naive(m, p)


@st.composite
def signed_column_sets(draw):
    height = draw(st.integers(min_value=1, max_value=7))
    entries = st.lists(st.sampled_from((-1, 0, 1)), min_size=height, max_size=height)
    columns = []
    for col in draw(st.lists(entries, max_size=8)):
        columns.append((sum(1 << r for r, e in enumerate(col) if e == 1),
                        sum(1 << r for r, e in enumerate(col) if e == -1)))
    return columns, height


def test_a_column_that_would_gain_two_is_set_aside():
    # e0 + e1, then e0 - e1: subtracting the pivot would leave -2 on row 1
    assert homology._unit_reduce([(0b11, 0), (0b01, 0b10)]) == (0b01, [[-2]])


@given(signed_column_sets())
@example(([(0b11, 0), (0b01, 0b10)], 2))
@example(([(0b011, 0), (0b110, 0), (0b101, 0)], 3))  # an odd cycle: ranks 3 over Q, 2 over F2
@settings(max_examples=300, deadline=None)
def test_unit_reduction_ranks_match_the_oracles(case):
    assert_reduction_ranks(*case)


def test_unit_reduction_of_torsion_complexes_matches_the_oracles():
    set_aside = 0
    for delta in torsion_complexes():
        index = delta.face_index
        for i in range(1, delta.dim + 1):
            columns = index.columns(i + 1)
            assert_reduction_ranks(columns, len(index.classes[i]))
            set_aside += bool(homology._unit_reduce(columns)[1])
    assert set_aside >= len(torsion_complexes())


def test_signed_columns_match_the_dense_boundary_matrix():
    rng = random.Random(29)
    pool = named_battery() + torsion_complexes()[:2]
    pool += [random_pure_complex(rng, rng.randint(3, 7)) for _ in range(12)]
    # each class's table against boundary_matrix, rows and columns in face order
    for delta in pool:
        index = delta.face_index
        for i in range(1, delta.dim + 1):
            columns = index.columns(i + 1)
            assert dense(columns, len(index.classes[i])) == boundary_matrix(delta, i)
            # a selection keeps its columns in order, as a key less the cleared rows does
            selected = rng.getrandbits(len(index.classes[i + 1]))
            kept = [c for c in range(len(index.classes[i + 1])) if selected >> c & 1]
            assert dense(homology._select(columns, selected), len(index.classes[i])) == [
                [row[c] for c in kept] for row in boundary_matrix(delta, i)]


def field_oracles(faces):
    """The Q, F2 and F3 Betti tuples of a face list from its dense boundary
    matrices: fraction_rank over Q, dense elimination mod p."""
    return [q_betti_oracle(faces)] + [
        q_betti_oracle(faces, lambda rows, p=p: modp_rank_naive(rows, p)) for p in (2, 3)]


def assert_cleared_profiles_match(faces, cuts, expected):
    for below in cuts:
        profiles = profile_of_faces(faces, (QQ, GF2, F3), below=below)
        assert [p.betti for p in profiles] == [
            betti if below is None else betti[:below + 1] for betti in expected], below


@st.composite
def deep_cut_face_sets(draw):
    """A closed face list of dimension 3 to 5 on at most 8 vertices, in any
    order, so that its full profile reduces at least two maps d_i with
    i >= 2, and a cut from -1 to its top degree or None."""
    dim = draw(st.integers(min_value=3, max_value=5))
    n = draw(st.integers(min_value=dim + 1, max_value=8))
    vertex = st.integers(min_value=1, max_value=n)
    top = draw(st.sets(vertex, min_size=dim + 1, max_size=dim + 1))
    others = draw(st.lists(st.sets(vertex, min_size=1, max_size=dim + 1), max_size=6))
    faces = draw(st.permutations(sorted(generated_faces([pack(f) for f in [top, *others]]))))
    return faces, draw(st.one_of(st.none(), st.integers(min_value=-1, max_value=dim)))


@given(deep_cut_face_sets())
@settings(max_examples=150, deadline=None)
def test_cleared_profiles_match_the_dense_oracles(case):
    # the unit pivot rows of d_{i+1} name columns of d_i spanned over Z by
    # the kept ones, so clearing them keeps every rank over every field
    faces, below = case
    assert_cleared_profiles_match(faces, [below], field_oracles(faces))


@pytest.mark.parametrize("delta", [cross_polytope(5)] + torsion_complexes(),
                         ids=["cross_polytope_5", "rp2", "rp2_two_points", "rp2_rp2", "rp2_pentagon"])
def test_cleared_profiles_of_spheres_and_torsion_match_the_dense_oracles_at_every_cut(delta):
    # rp2 * rp2 keeps 2-torsion in ~H_3 as well as ~H_4, so d_4, a map that
    # d_5 clears, carries torsion; each cut reduces a different top map
    faces = delta.sorted_faces()
    expected = field_oracles(faces)
    assert (expected[0] != expected[1]) == (delta != cross_polytope(5))  # torsion shows over F2
    assert_cleared_profiles_match(faces, [None, *range(-1, delta.dim + 1)], expected)


def index_route_pool():
    """Complexes whose subcomplexes the index route evaluates: the torsion
    complexes (rp2 * rp2 among them), {empty face} on 0 and 1 vertices, a
    sphere, a cone, and complexes with unused vertices."""
    rng = random.Random(37)
    return (torsion_complexes()
            + [SimplicialComplex(0, (0,)), SimplicialComplex(1, (0,)), cross_polytope(3),
               simplex_complex(1).join(four_path())]
            + [random_complex_with_unused_vertices(rng, pure) for pure in (True, False) * 4])


@functools.cache
def subcomplex_oracles(delta, key):
    """field_oracles of the subcomplex of ``delta`` at the set bits of ``key``."""
    return tuple(field_oracles([f for p, f in enumerate(delta.sorted_faces()) if key >> p & 1]))


@st.composite
def scan_and_walk_keys(draw):
    """A complex of index_route_pool, a face G of it, a key shaped like the
    scans' Delta_a and the walks' lk G, the faces avoiding G ANDed with the
    OR of the faces inside some facets of G's star, and a cut from -1 to
    the subcomplex's top degree, or None."""
    delta = draw(st.sampled_from(index_route_pool()))
    index = delta.face_index
    g = draw(st.sampled_from(index.faces))
    star = [f for f in delta.facets if not g & ~f]
    live = draw(st.lists(st.sampled_from(star), min_size=1, unique=True))
    key = index.avoiding(g) & functools.reduce(int.__or__, (index.inside[f] for f in live))
    top = index.classes_of(key) - 2
    return delta, key, draw(st.one_of(st.none(), st.integers(min_value=-1, max_value=top)))


@given(scan_and_walk_keys())
@example((rp2().join(rp2()), rp2().join(rp2()).face_index.everything, 3))
@example((SimplicialComplex(0, (0,)), 1, None))  # {empty face}: ~H_{-1} = K
@example((SimplicialComplex(1, (0,)), 1, -1))
@settings(max_examples=150, deadline=None)
def test_key_evaluated_profiles_match_the_dense_oracles(case):
    # the index route reads a subcomplex's classes, columns and edges off
    # its key over Delta's face index; the oracles list its faces and build
    # its dense boundary matrices
    delta, key, below = case
    profiles = profile_from_faces(delta, key, (QQ, GF2, F3), below=below)
    assert [p.betti for p in profiles] == [
        betti if below is None else betti[:below + 1] for betti in subcomplex_oracles(delta, key)]


@pytest.mark.parametrize("delta, below, columns", [
    (cross_polytope(6), None, [64, 129, 111, 49, 11]),  # 364 of 716 columns
    (cross_polytope(6), 3, [240, 49, 11]),  # the map at the cut is cleared by nothing
    (rp2().join(rp2()), None, [100, 210, 151, 56, 11]),  # 528 of 1011 columns
], ids=["cross_polytope_6", "cross_polytope_6_below_3", "rp2_rp2"])
def test_clearing_hands_each_map_only_its_kept_columns(monkeypatch, delta, below, columns):
    # maps are reduced top map first; d_{i+1}'s pivot rows drop their
    # columns from d_i, so d_1 is handed only the edges d_2 left uncleared:
    # a spanning tree of the 12 vertices here
    reduced = []
    reduce = homology._unit_reduce

    def counted_reduce(cols):
        reduced.append(len(cols))
        return reduce(cols)

    monkeypatch.setattr(homology, "_unit_reduce", counted_reduce)
    profile_from_faces(delta, delta.face_index.everything, (QQ, GF2, F3), below=below)
    assert reduced == columns


def test_euler_identity():
    for d in named_battery():
        chi = d.f_vector().euler_reduced
        for field in (QQ, GF2, F3):
            assert reduced_homology(d, field).euler() == chi


def test_universal_coefficient_bound():
    for d in named_battery():
        q = reduced_homology(d, QQ)
        for field in (GF2, F3):
            p = reduced_homology(d, field)
            for i in q.degrees():
                assert q.betti_number(i) <= p.betti_number(i)


# -- Reisner criterion -----------------------------------------------------------------------

def test_rp2_cohen_macaulay_depends_on_characteristic():
    d = rp2()
    assert is_cohen_macaulay(d, QQ)
    report = is_cohen_macaulay(d, GF2)
    assert not report
    assert report.witness_face == () and report.witness_degree == 1


def test_four_path_cm():
    d = four_path()
    assert is_cohen_macaulay(d, QQ)
    assert is_cohen_macaulay(d, GF2)


def test_cone_invariance():
    battery = [cycle_complex(5), rp2(), four_path(), path_complex(6)]
    for d in battery:
        for field in (QQ, GF2):
            assert bool(is_cohen_macaulay(d, field)) == bool(
                is_cohen_macaulay(d.cone(), field)
            )
    assert is_cohen_macaulay(cycle_complex(5).cone(), QQ)


def test_disconnected_not_cm():
    d = new_complex(4, [(1, 2), (3, 4)])
    assert not is_cohen_macaulay(d, QQ)


def witness_pool(rng, pure):
    """Random complexes with unused vertices, then cones with apex 1 over ten
    of them and over cone_bases(): the apex leaves the core and shifts every
    re-indexed label, so core labels and input labels differ."""
    randoms = [random_complex_with_unused_vertices(rng, pure) for _ in range(30)]
    return randoms + [simplex_complex(1).join(b) for b in randoms[:10] + cone_bases()]


def assert_battery_matches_reindexed_links(delta, battery) -> dict:
    """Assert that the battery forms of Reisner, Stanley and local Gorenstein,
    and their one-field views, give each field's verdicts of the re-indexed
    link route: verdict, Euler values, witness face, degree and vertex.
    Return those verdicts by field."""
    cm = cohen_macaulay_reports(delta, battery)
    gor = gorenstein_reports(delta, battery)
    local = locally_gorenstein_reports(delta, battery)
    assert list(cm) == list(gor) == list(local) == list(battery)
    verdicts = {}
    for f in battery:
        got = ((cm[f].is_cm, cm[f].witness_face, cm[f].witness_degree),
               (gor[f].is_gorenstein, gor[f].core_euler, gor[f].expected_euler,
                gor[f].witness_face, gor[f].witness_degree),
               (local[f].holds, local[f].witness_vertex))
        assert got == (reindexed_cm_verdict(delta, f), reindexed_gorenstein_verdict(delta, f),
                       reindexed_local_gorenstein_verdict(delta, f))
        views = (is_cohen_macaulay(delta, f), is_gorenstein(delta, f),
                 is_locally_gorenstein(delta, f))
        assert views == (cm[f], gor[f], local[f])
        verdicts[f] = got
    return verdicts


def leaf_on_a_cycle():
    """A four-cycle on 2..5 with the pendant edge {1, 2}.  Its empty face's
    link has the homology of a circle, and the first face in Stanley's walk
    to fail is the leaf 1, whose link, the point 2, is a cone."""
    return new_complex(5, [(1, 2), (2, 3), (3, 4), (4, 5), (2, 5)])


@pytest.mark.parametrize("pure", [True, False], ids=["pure", "non-pure"])
def test_link_criteria_witnesses_match_the_reindexed_link_route(pure):
    # a cone link is decided from its facets: it passes Reisner's test and
    # fails the sphere test at its dimension, with no evaluation
    rng = random.Random(23 if pure else 29)
    local_verdicts = set()
    for delta in witness_pool(rng, pure) + [leaf_on_a_cycle()]:
        verdicts = assert_battery_matches_reindexed_links(delta, (QQ, GF2, F3))
        local_verdicts.add(verdicts[QQ][2][0])
    assert local_verdicts == {True, False}
    assert verdicts[QQ][1][3:] == ((1,), 0) and verdicts[QQ][0][0] is True


def two_rp2_at_a_vertex():
    """Two copies of rp2 sharing vertex 1.  Over F2 Reisner's criterion fails
    at the empty face (~H_1 = F2^2); over Q the complex is acyclic, and it
    fails at vertex 1, whose link is two pentagons."""
    facets = rp2().facet_tuples()
    return new_complex(11, facets + [tuple(v if v == 1 else v + 5 for v in f) for f in facets])


@pytest.mark.parametrize("battery", [(QQ, GF2, F3), (GF2, QQ)], ids=["Q,F2,F3", "F2,Q"])
def test_one_link_walk_serves_the_battery_as_per_field_walks_do(battery):
    wedge = two_rp2_at_a_vertex()
    pool = [d for _, d in reproduce_named_battery()] + explore_complexes(0, 40, 6) + [wedge]
    # the fields' verdicts differ where the walk went on over the fields that
    # had not failed: rp2 is CM over Q but not over F2, and the wedge fails
    # at different faces
    split = [d for d in pool
             if len(set(assert_battery_matches_reindexed_links(d, battery).values())) > 1]
    assert rp2() in split and wedge in split
    cm = cohen_macaulay_reports(wedge, battery)
    assert (cm[GF2].witness_face, cm[QQ].witness_face) == ((), (1,))


def test_link_criteria_evaluate_each_link_of_delta_once_and_build_no_complex(monkeypatch):
    # cross_polytope(6) has 728 nonempty faces; walking each vertex link's
    # core on its own evaluates every face once per vertex in it, 2916 times
    delta, cone = cross_polytope(6), simplex_complex(1).join(four_path())
    evaluated = []
    profile = homology.profile_from_faces

    def counted(delta, key, fields, **cut):
        evaluated.append(key)
        return profile(delta, key, fields, **cut)

    def refuse(*args):
        raise AssertionError("the link criteria read the links of Delta's own faces")

    monkeypatch.setattr(homology, "profile_from_faces", counted)
    for name in ("__post_init__", "link", "link_with_map"):
        monkeypatch.setattr(SimplicialComplex, name, refuse)
    assert is_locally_gorenstein(delta, QQ)
    assert len(evaluated) <= len(delta.face_masks) - 1 == 728
    assert is_cohen_macaulay(delta, GF2) and is_gorenstein(delta, GF2)
    assert not is_gorenstein(cone, QQ) and not is_locally_gorenstein(cone, QQ)


def listed_link(delta, g):
    """The facets of lk ``g`` listed plainly: F - G for each facet F of
    ``delta`` that contains G."""
    return [f & ~g for f in delta.facets if not g & ~f]


def walked_link_keys(delta):
    """(G, key) for each face G that the link walks of Reisner, Stanley and
    local Gorenstein yield on ``delta`` and whose listed link is not a cone,
    in walk order, with the key the memo was asked under.  Under the stubbed
    profile every link that is not a cone is a sphere of its dimension, so
    a Reisner walk never stops early, and a sphere walk stops only at a cone
    link, which it decides with no key."""
    yielded, keys = [], []
    walk, profiles = SimplicialComplex.link_walk, homology.HomologyMemo.profiles

    def logged(self, insides=(0,)):
        for k, face, link in walk(self, insides):
            g = face | insides[k]
            yielded.append((g, functools.reduce(int.__and__, listed_link(self, g))))
            yield k, face, link

    def sphere(delta, key, fields, **cut):
        top = delta.face_index.faces[key.bit_length() - 1].bit_count()
        return tuple(homology.HomologyProfile(f, (0,) * top + (1,)) for f in fields)

    def asked(memo, key, fields, below=None):
        keys.append(key)
        return profiles(memo, key, fields, below)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(SimplicialComplex, "link_walk", logged)
        m.setattr(homology, "profile_from_faces", sphere)
        m.setattr(homology.HomologyMemo, "profiles", asked)
        assert cohen_macaulay_reports(delta, (QQ,))[QQ]
        for criterion in (gorenstein_reports, locally_gorenstein_reports):
            start = len(yielded)
            if not criterion(delta, (QQ,))[QQ]:
                assert len(yielded) > start and yielded[-1][1], criterion
    walked = [g for g, cone in yielded if not cone]
    assert len(keys) == len(walked) > 0
    return list(zip(walked, keys))


def assert_links_keyed_by_their_faces(delta):
    # the record of every face, walked or not, and then the key each walk
    # asked the memo under, against the listed faces of the link
    index = delta.face_index
    for p, g in enumerate(index.faces):
        key = index.link(p).key
        if functools.reduce(int.__and__, listed_link(delta, g)):
            assert key == 0, (delta, g)
        else:
            assert key == link_key_by_faces(delta, g), (delta, g)
    for g, key in walked_link_keys(delta):
        assert key == link_key_by_faces(delta, g), (delta, g)


def test_link_keys_match_the_keys_of_their_listed_faces():
    # the walks key lk G as the star walk keys Delta_a at a = 0 off G, from
    # the facets of G's star; the oracle lists the link's faces instead
    pool = ([d for _, d in reproduce_named_battery()] + explore_complexes(0, 100, 6)
            + list(relabeling_classes()))
    for delta in pool:
        assert_links_keyed_by_their_faces(delta)


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


@given(coned_complexes_with_unused_vertices())
@example(SimplicialComplex(3, (0,)))
@example(SimplicialComplex(7, simplex_complex(1).join(four_path()).facets))
@settings(max_examples=150, deadline=None)
def test_link_keys_match_on_cones_and_unused_vertices(delta):
    assert_links_keyed_by_their_faces(delta)


@given(coned_complexes_with_unused_vertices())
@example(SimplicialComplex(0, (0,)))  # {empty face} on 0 and on 1 vertices
@example(SimplicialComplex(1, (0,)))
@example(cross_polytope(7))  # 128 facets: a star is wider than a machine word
@example(SimplicialComplex(7, simplex_complex(1).join(four_path()).facets))
@settings(max_examples=100, deadline=None)
def test_link_records_match_the_listed_links(delta):
    # each face's star and record against the plain listing of its link's
    # facets: the star, the dimension, a cone iff the facets share a vertex,
    # and the key; equal keys are one object
    index, keys = delta.face_index, {}
    for p, g in enumerate(index.faces):
        link, listed = index.link(p), listed_link(delta, g)
        assert index.link(p) is link
        assert index.star(g) == [f for f in delta.facets if not g & ~f]
        assert link.dim == max(m.bit_count() for m in listed) - 1
        assert link.meet & ~g == functools.reduce(int.__and__, listed)
        if link.meet & ~g:
            assert link.key == 0
        else:
            assert link.key == link_key_by_faces(delta, g)
            assert keys.setdefault(link.key, link.key) is link.key


# -- Gorenstein criteria -----------------------------------------------------------------------

def test_gorenstein_verdicts():
    assert is_gorenstein(cycle_complex(5), QQ)
    assert is_gorenstein(cycle_complex(5), GF2)
    assert not is_gorenstein(four_path(), QQ)
    for field in (QQ, GF2, F3):
        assert not is_gorenstein(rp2(), field)


def test_rp2_gorenstein_euler_witness():
    report = is_gorenstein(rp2(), QQ)
    assert report.core_euler == 0 and report.expected_euler == 1


def test_spheres_and_cones_are_gorenstein():
    for d in (2, 3):
        assert is_gorenstein(cross_polytope(d), QQ)
        assert is_gorenstein(cross_polytope_stellar(d), QQ)
        assert is_gorenstein(cross_polytope_stellar(d), GF2)
    assert is_gorenstein(simplex_complex(3), QQ)
    assert is_gorenstein(cycle_complex(5).cone(), QQ)


def test_gorenstein_implies_core_cm():
    for d in named_battery():
        for field in (QQ, GF2):
            if is_gorenstein(d, field):
                assert is_cohen_macaulay(d.core(), field)


def test_gorenstein_witness_names_the_input_vertices_on_cones():
    # the apex 1 leaves the core, which shifts every label of the core down
    # by one; the witness face must keep the cone's labels
    rng = random.Random(31)
    bases = cone_bases() + [random_pure_complex(rng, rng.randint(3, 6)) for _ in range(20)]
    failing = 0
    for base in bases:
        if base.cone_vertices():
            continue
        cone = simplex_complex(1).join(base)
        for field in (QQ, GF2):
            expected = is_gorenstein(base, field)
            report = is_gorenstein(cone, field)
            assert report.is_gorenstein == expected.is_gorenstein
            if expected.witness_face is not None:
                failing += 1
                assert report.witness_face == tuple(v + 1 for v in expected.witness_face)
                assert report.witness_degree == expected.witness_degree
    assert failing >= 10
    # the complex of a cone with apex 1 whose link of 5 fails
    d = new_complex(6, [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 2), (1, 5, 6)])
    assert is_gorenstein(d, QQ).witness_face == (5,)


def test_locally_gorenstein_rejects_the_void_complex():
    for field in (QQ, GF2):
        with pytest.raises(ValueError, match="void complex is undefined"):
            is_locally_gorenstein(SimplicialComplex(3, ()), field)


def test_locally_gorenstein():
    assert is_locally_gorenstein(rp2(), QQ)
    assert is_locally_gorenstein(rp2(), GF2)
    assert is_locally_gorenstein(four_path(), QQ)
    assert is_locally_gorenstein(cycle_complex(5), QQ)
    report = is_locally_gorenstein(phantom_pentagon(2).cone(), QQ)
    assert not report
    # w has three neighbours, so its link (three points coned once) is not
    # a homology sphere; vertices 1 and 2 have two-point links and pass
    assert report.witness_vertex == 3


def test_reduced_h_minus_one_characterises_irrelevant():
    assert reduced_homology(irrelevant_complex(), QQ).betti_number(-1) == 1
    for d in named_battery():
        profile = reduced_homology(d, QQ)
        assert profile.betti_number(-1) == 0
        assert all(profile.betti_number(i) >= 0 for i in profile.degrees())
