import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from srsq import (
    GF2,
    QQ,
    FieldSpec,
    boundary_matrix,
    cross_polytope,
    cross_polytope_stellar,
    cycle_complex,
    four_path,
    irrelevant_complex,
    is_cohen_macaulay,
    is_gorenstein,
    is_locally_gorenstein,
    matrix_rank,
    new_complex,
    path_complex,
    phantom_pentagon,
    reduced_homology,
    rp2,
    simplex_complex,
)
from srsq import SimplicialComplex, homology
from srsq.bits import generated_faces, pack, unpack
from srsq.criteria import random_pure_complex
from srsq.homology import parse_field_battery, profile_from_faces
from helpers import (cone_bases, fraction_rank, modp_rank_naive,
                     random_complex_with_unused_vertices)

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
    rng = random.Random(17)
    pool = named_battery() + [random_pure_complex(rng, rng.randint(3, 7)) for _ in range(12)]
    for d in pool:
        faces = d.sorted_faces()
        for field in (QQ, GF2, F3):
            (expected,) = profile_from_faces(faces, (field,))
            for _ in range(3):
                shuffled = faces[:]
                rng.shuffle(shuffled)
                assert profile_from_faces(shuffled, (field,)) == (expected,)


def random_face_sets(rng, count):
    """Full face lists in random order: the void and irrelevant complexes,
    rp2 (whose homology differs over Q and F2), then random complexes."""
    sets = [[], [0], rp2().sorted_faces()]
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
        singles = tuple(profile_from_faces(faces, (field,))[0] for field in battery)
        assert profile_from_faces(faces, battery) == singles
        assert profile_from_faces(faces, battery[::-1]) == singles[::-1]


def test_boundary_matrices_are_built_once_whatever_the_battery(monkeypatch):
    built = []
    build = homology._boundary_from_groups

    def counted(groups, i):
        built.append(i)
        return build(groups, i)

    monkeypatch.setattr(homology, "_boundary_from_groups", counted)
    faces = rp2().sorted_faces()
    for battery in ((QQ,), (QQ, GF2), (QQ, GF2, F3)):
        built.clear()
        profile_from_faces(faces, battery)
        # rank d_0 is 1 by formula, so the augmentation row is never built
        assert built == [1, 2]


def torsion_complexes():
    """rp2 and joins of it whose F2 homology sits in two consecutive degrees,
    so that some Q rank between them still needs Bareiss."""
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
            profiles = dict(zip(battery, profile_from_faces(faces, battery)))
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
    # graph homology is free, so one union-find answers every field; the
    # rank route (fraction_rank over Q, dense elimination mod p) is the oracle
    pool = graph_face_sets(random.Random(83), 60)
    battery = (QQ, GF2, F3)

    def refuse(*args):
        raise AssertionError("a complex of dimension <= 1 needs no boundary matrix")

    with monkeypatch.context() as m:
        m.setattr(homology, "_boundary_from_groups", refuse)
        profiles = [profile_from_faces(faces, battery) for faces in pool]
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
def integer_matrices(draw):
    cols = draw(st.integers(min_value=1, max_value=6))
    row = st.lists(st.integers(min_value=-4, max_value=4), min_size=cols, max_size=cols)
    return draw(st.lists(row, min_size=1, max_size=6))


@given(integer_matrices())
@settings(max_examples=200, deadline=None)
def test_rank_over_q_bounds_every_prime_rank(m):
    # a minor that is nonzero mod p is nonzero over Z: the F2 shortcut rests on this
    q = matrix_rank(m, QQ)
    assert q >= matrix_rank(m, GF2) and q >= matrix_rank(m, F3)


def test_bareiss_runs_only_between_two_degrees_with_f2_homology(monkeypatch):
    calls = []
    rank = homology.matrix_rank

    def counted(rows, field):
        calls.append(field)
        return rank(rows, field)

    monkeypatch.setattr(homology, "matrix_rank", counted)

    def q_rank_calls(run):
        calls.clear()
        run()
        return calls.count(QQ)

    # spheres and links of a Gorenstein complex are F2-acyclic in all but one degree
    assert q_rank_calls(lambda: reduced_homology(cross_polytope(3), QQ)) == 0
    assert calls == [GF2] * 2  # a Q-only battery still ranks d_1, d_2 over F2
    assert q_rank_calls(lambda: reduced_homology(cycle_complex(5), QQ)) == 0
    assert q_rank_calls(lambda: is_cohen_macaulay(cross_polytope_stellar(3), QQ)) == 0
    # F2 sees H_1 and H_2 of rp2, so d_2 between them goes to Bareiss
    assert q_rank_calls(lambda: reduced_homology(rp2(), QQ)) == 1


def test_euler_identity():
    for d in named_battery():
        chi = d.euler_characteristic_reduced()
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


def first_failing_link(delta, field, sphere):
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


def witness_pool(rng, pure):
    """Random complexes with unused vertices, then cones with apex 1 over ten
    of them and over cone_bases(): the apex leaves the core and shifts every
    re-indexed label, so core labels and input labels differ."""
    randoms = [random_complex_with_unused_vertices(rng, pure) for _ in range(30)]
    return randoms + [simplex_complex(1).join(b) for b in randoms[:10] + cone_bases()]


@pytest.mark.parametrize("pure", [True, False], ids=["pure", "non-pure"])
def test_link_criteria_witnesses_match_the_reindexed_link_route(pure):
    rng = random.Random(23 if pure else 29)
    local_verdicts = set()
    for delta in witness_pool(rng, pure):
        for field in (QQ, GF2, F3):
            cm = is_cohen_macaulay(delta, field)
            bad = first_failing_link(delta, field, sphere=False)
            assert (cm.is_cm, cm.witness_face, cm.witness_degree) == (
                bad is None, *(bad or (None, None)))
            gor = is_gorenstein(delta, field)
            core, vmap = delta.core_with_map()
            assert (gor.core_euler, gor.expected_euler) == (
                core.euler_characteristic_reduced(), 1 if core.dim % 2 == 0 else -1)
            bad = first_failing_link(core, field, sphere=True)
            if bad is not None:  # back to the input's labels
                label = {new: old for old, new in vmap.items()}
                bad = (tuple(label[v] for v in bad[0]), bad[1])
            assert (gor.is_gorenstein, gor.witness_face, gor.witness_degree) == (
                bad is None, *(bad or (None, None)))
            # local Gorenstein: the first vertex whose re-indexed link has a
            # core that fails Stanley's test
            local = is_locally_gorenstein(delta, field)
            first = next((v for v in unpack(delta.support) if first_failing_link(
                delta.link([v]).core(), field, sphere=True)), None)
            assert (local.holds, local.witness_vertex) == (first is None, first)
            local_verdicts.add(local.holds)
    assert local_verdicts == {True, False}


def test_link_criteria_evaluate_each_link_of_delta_once_and_build_no_complex(monkeypatch):
    # cross_polytope(6) has 728 nonempty faces; walking each vertex link's
    # core on its own evaluates every face once per vertex in it, 2916 times
    delta, cone = cross_polytope(6), simplex_complex(1).join(four_path())
    evaluated = []
    profile = homology.profile_from_faces

    def counted(faces, fields):
        evaluated.append(faces)
        return profile(faces, fields)

    def refuse(*args):
        raise AssertionError("the link criteria read the links of Delta's own faces")

    monkeypatch.setattr(homology, "profile_from_faces", counted)
    for name in ("__post_init__", "link", "link_with_map"):
        monkeypatch.setattr(SimplicialComplex, name, refuse)
    assert is_locally_gorenstein(delta, QQ)
    assert len(evaluated) <= len(delta.face_masks) - 1 == 728
    assert is_cohen_macaulay(delta, GF2) and is_gorenstein(delta, GF2)
    assert not is_gorenstein(cone, QQ) and not is_locally_gorenstein(cone, QQ)


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
