import math
import random
from itertools import combinations

import pytest

from srsq import (
    Graph,
    complementary_complex,
    conjecture_complex,
    conjecture_graph,
    cross_polytope,
    cross_polytope_stellar,
    cycle_complex,
    cycle_graph,
    disjoint_pentagons,
    disjoint_union,
    edge_ideal,
    four_path,
    irrelevant_complex,
    named_complex,
    new_complex,
    path_complex,
    phantom_pentagon,
    rp2,
    simplex_complex,
    stanley_reisner,
)
from srsq.bits import pack, unpack
from srsq.complexes import NAMED_COMPLEXES
from helpers import (
    floyd_warshall_diameter,
    maximal_independent_sets,
    random_graph,
    stellar_by_definition,
)


def pentagon():
    return cycle_complex(5)


# -- construction ---------------------------------------------------------------

def test_new_complex_dedup_and_maximality():
    d = new_complex(3, [(1, 2), (2, 3), (1, 2)])
    assert d.facet_tuples() == [(1, 2), (2, 3)]

    p = new_complex(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])
    assert len(p.facets) == 5

    d = new_complex(4, [(1, 2), (1, 2, 3)], allow_unused=True)
    assert d.facet_tuples() == [(1, 2, 3)]


def test_new_complex_errors():
    with pytest.raises(ValueError):
        new_complex(0, [])
    with pytest.raises(ValueError):
        new_complex(2, [(1, 3)])
    with pytest.raises(ValueError):
        new_complex(3, [(1, 2)])  # vertex 3 unused
    # explicit opt-in for ghost vertices
    assert new_complex(3, [(1, 2)], allow_unused=True).n == 3


def test_is_face():
    p = pentagon()
    assert p.is_face((1, 2))
    assert not p.is_face((1, 3))
    assert p.is_face(())
    assert p.faces_of_dim(0) == [(1,), (2,), (3,), (4,), (5,)]
    assert len(p.faces_of_dim(1)) == 5


def test_dim_and_edge_cases():
    assert pentagon().dim == 1
    assert irrelevant_complex().dim == -1
    assert simplex_complex(3).dim == 2


# -- link / star / core / skeleton ------------------------------------------------

def test_link_of_vertex_4_in_rp2_is_pentagon():
    link, vmap = rp2().link_with_map((4,))
    assert vmap == {1: 1, 2: 2, 3: 3, 5: 4, 6: 5}
    # expected edges in the original labels: 12, 25, 56, 63, 31
    expected = {frozenset(e) for e in [(1, 2), (2, 5), (5, 6), (6, 3), (3, 1)]}
    inverse = {new: old for old, new in vmap.items()}
    got = {frozenset(inverse[v] for v in f) for f in link.facet_tuples()}
    assert got == expected


def test_link_trivialities():
    p = pentagon()
    assert p.link(()) == p
    assert p.link((1, 2)) == irrelevant_complex()
    with pytest.raises(ValueError):
        p.link((1, 3))


def test_link_star_composition():
    rng = random.Random(3)
    battery = [pentagon(), rp2(), four_path(), cross_polytope(3)]
    for d in battery:
        for f in sorted(d.face_masks, key=lambda m: (m.bit_count(), m)):
            face = unpack(f)
            assert d.star(face).link(face) == d.link(face)


def test_star_keeps_labels():
    st = rp2().star((4,))
    assert st.n == 6
    assert all(4 in f for f in st.facet_tuples())


def test_skeleton_of_rp2_is_k6():
    sk = rp2().skeleton(1)
    assert sk == new_complex(6, combinations(range(1, 7), 2))
    with pytest.raises(ValueError):
        rp2().skeleton(3)


def test_core():
    p = pentagon()
    assert p.core() == p
    cone = p.cone()
    assert cone.n == 6
    assert cone.cone_vertices() == (6,)
    assert cone.core() == p
    # a simplex cores down to the irrelevant complex
    assert simplex_complex(3).core() == irrelevant_complex()


# -- join --------------------------------------------------------------------------

def test_join_examples():
    edge = new_complex(2, [(1, 2)])
    point = simplex_complex(1)
    assert edge.join(point).facet_tuples() == [(1, 2, 3)]

    j = pentagon().join(pentagon())
    assert j.n == 10
    assert len(j.facets) == 25
    assert all(len(f) == 4 for f in j.facet_tuples())


def test_join_dimension_additive():
    gens = [pentagon(), rp2(), simplex_complex(2), four_path()]
    for a in gens:
        for b in gens:
            assert a.join(b).dim == a.dim + b.dim + 1


def test_join_euler_product():
    gens = [pentagon(), rp2(), four_path(), cross_polytope(2), simplex_complex(2)]
    for a in gens:
        for b in gens:
            chi = a.join(b).euler_characteristic_reduced()
            assert chi == -a.euler_characteristic_reduced() * b.euler_characteristic_reduced()


def test_join_factors():
    j = pentagon().join(pentagon())
    factors = j.join_factors()
    assert [f.n for f in factors] == [5, 5]
    assert all(f == pentagon() for f in factors)
    assert pentagon().join_factors() == [pentagon()]
    # cone vertex splits off as a simplex factor
    cone = pentagon().cone()
    factors = cone.join_factors()
    assert sorted(f.n for f in factors) == [1, 5]


# -- stellar subdivision --------------------------------------------------------------

def test_stellar_square_to_pentagon():
    # square x1-x2 / x2-y1 / y1-y2 / y2-x1 with x1=1, x2=2, y1=3, y2=4
    square = new_complex(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
    d = square.stellar_subdivision((1, 2))
    assert d.n == 5
    expected = new_complex(5, [(1, 5), (2, 5), (2, 3), (3, 4), (4, 1)])
    assert d == expected


def test_stellar_cross_polytope_2_is_pentagon():
    d = cross_polytope_stellar(2)
    assert d.n == 5 and d.dim == 1 and len(d.facets) == 5
    g = d.one_skeleton()
    assert all(m.bit_count() == 2 for m in g.edges)
    assert g.diameter() == 2


def test_cross_polytope_checks_vertex_limit_before_building_facets():
    # 2 * 33 vertices exceed the limit; the 2^33 facets must never be listed
    for d in (0, 33):
        with pytest.raises(ValueError, match="d must be in 1..32"):
            cross_polytope(d)
    # the subdivision adds vertex 2d + 1, so d = 32 (2^32 facets) is too big
    for d in (1, 32):
        with pytest.raises(ValueError, match="d must be in 2..31"):
            cross_polytope_stellar(d)


def test_stellar_matches_face_level_definition():
    cases = [
        (pentagon(), (1, 2)),
        (rp2(), (1, 2)),
        (rp2(), (1, 2, 4)),
        (cross_polytope(2), (1, 2)),
        (cross_polytope(3), (1, 2, 3)),
        (four_path(), (2, 3)),
    ]
    for d, face in cases:
        assert d.stellar_subdivision(face) == stellar_by_definition(d, face)


def test_stellar_facet_count_formula():
    # pure complexes: if F lies in m facets, the count grows by m(|F| - 1)
    for d, face in [(rp2(), (1, 2)), (cross_polytope(3), (1, 2)), (pentagon(), (1, 2))]:
        f = pack(face)
        m = sum(1 for g in d.facets if f & ~g == 0)
        sub = d.stellar_subdivision(face)
        assert len(sub.facets) == len(d.facets) + m * (len(face) - 1)


def test_stellar_preserves_reduced_euler():
    for d, face in [
        (pentagon(), (1, 2)),
        (rp2(), (3, 5)),
        (rp2(), (1, 2, 4)),
        (cross_polytope(2), (1, 4)),
        (cross_polytope(3), (1, 2, 3)),
    ]:
        before = d.euler_characteristic_reduced()
        assert d.stellar_subdivision(face).euler_characteristic_reduced() == before


def test_stellar_errors():
    with pytest.raises(ValueError):
        pentagon().stellar_subdivision((1,))
    with pytest.raises(ValueError):
        pentagon().stellar_subdivision((1, 3))


# -- graphs -----------------------------------------------------------------------

def test_graph_basics():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])
    g = Graph.from_edges(3, [(1, 2), (2, 1)])
    assert len(g.edges) == 1
    for n in (-1, 65):  # as for complexes: a vertex is one bit of a mask
        with pytest.raises(ValueError, match=f"vertex count must be in 0..64, got {n}"):
            Graph(n, ())


def test_diameters():
    assert rp2().one_skeleton().diameter() == 1
    assert pentagon().one_skeleton().diameter() == 2
    two_edges = Graph.from_edges(4, [(1, 2), (3, 4)])
    assert two_edges.diameter() == math.inf
    assert path_complex(6).one_skeleton().diameter() == 5
    assert Graph(0, ()).diameter() == Graph(1, ()).diameter() == 0
    assert Graph(3, ()).diameter() == math.inf


def test_diameter_against_floyd_warshall():
    rng = random.Random(11)
    for _ in range(80):
        g = random_graph(rng, rng.randint(2, 8))
        assert g.diameter() == floyd_warshall_diameter(g)


# -- f-vectors ----------------------------------------------------------------------

def test_f_vectors():
    fv = rp2().f_vector()
    assert fv.counts == (6, 15, 10)
    assert fv.euler_reduced == -1 + 6 - 15 + 10 == 0

    fv = pentagon().f_vector()
    assert fv.counts == (5, 5)
    assert fv.euler_reduced == -1

    fv = simplex_complex(1).f_vector()
    assert fv.counts == (1,)
    assert fv.euler_reduced == 0


# -- named complexes ------------------------------------------------------------------

def test_named_complex_dispatch():
    assert named_complex("cycle", n=5) == pentagon()
    assert named_complex("cross-polytope", d=2) == cross_polytope(2)
    assert named_complex("rp2") == rp2()
    assert named_complex("four_path") == four_path()
    with pytest.raises(ValueError):
        named_complex("cycle", n=2)
    with pytest.raises(ValueError):
        named_complex("nonsense")
    with pytest.raises(ValueError):
        named_complex("cycle")  # missing n


# a value for each parameter a named complex takes
NAMED_PARAMS = {"n": 5, "d": 2, "k": 2, "r": 2, "graph": cycle_graph(5)}


@pytest.mark.parametrize("name", sorted(NAMED_COMPLEXES))
def test_named_complex_builds_every_table_entry(name):
    build, param = NAMED_COMPLEXES[name]
    params = {param: NAMED_PARAMS[param]} if param else {}
    expected = build(*params.values())
    assert named_complex(name, **params) == expected
    assert named_complex(name.replace("_", "-").upper(), **params) == expected
    if param and param != "graph":
        assert named_complex(name, **{param: str(params[param])}) == expected


@pytest.mark.parametrize("name", sorted(NAMED_COMPLEXES))
def test_named_complex_rejects_a_missing_or_extra_parameter(name):
    _, param = NAMED_COMPLEXES[name]
    params = {param: NAMED_PARAMS[param]} if param else {}
    extra = "d" if param == "n" else "n"
    with pytest.raises(ValueError, match=f"takes no parameter '{extra}'"):
        named_complex(name, **params, **{extra: 3})
    if param:
        with pytest.raises(ValueError, match=f"missing parameter '{param}'"):
            named_complex(name)


def test_cycle_complex_is_the_cycle_graph():
    for n in (3, 5, 8):
        assert cycle_complex(n).facets == cycle_graph(n).edges


def test_cross_polytope_ideals():
    # d = 2: the 4-cycle with ideal (x1 y1, x2 y2), labels y_i = d + i
    I = stanley_reisner(cross_polytope(2))
    assert sorted(g.support() for g in I.gens) == [(1, 3), (2, 4)]
    # stellar subdivisions: (x_i y_i, v y_i, x_1...x_d) with v = 2d + 1
    for d in (2, 3):
        I = stanley_reisner(cross_polytope_stellar(d))
        v = 2 * d + 1
        expected = sorted(
            [(i, d + i) for i in range(1, d + 1)]
            + [(d + i, v) for i in range(1, d + 1)]
            + [tuple(range(1, d + 1))]
        )
        assert sorted(g.support() for g in I.gens) == expected


def test_phantom_pentagon():
    assert phantom_pentagon(1) == pentagon()
    d = phantom_pentagon(3)
    assert d.n == 7
    # v_i adjacent to w and z only; path w-x-y-z
    w, x, y, z = 4, 5, 6, 7
    expected = {frozenset((i, w)) for i in (1, 2, 3)}
    expected |= {frozenset((i, z)) for i in (1, 2, 3)}
    expected |= {frozenset(e) for e in [(w, x), (x, y), (y, z)]}
    assert {frozenset(f) for f in d.facet_tuples()} == expected
    assert d.one_skeleton().diameter() == 2


def test_conjecture_graph_family():
    g = conjecture_graph(1)
    assert {frozenset(e) for e in g.edge_tuples()} == {
        frozenset(e) for e in [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]
    }
    g2 = conjecture_graph(2)
    assert g2.n == 8
    assert len(g2.edges) == 10
    # the complementary complex has the conjectured edge ideal
    assert stanley_reisner(conjecture_complex(2)) == edge_ideal(g2)


def test_complementary_round_trip():
    rng = random.Random(23)
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 8))
        assert stanley_reisner(complementary_complex(g)) == edge_ideal(g)


def test_complementary_is_independence_complex():
    rng = random.Random(29)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 7))
        got = complementary_complex(g).facet_tuples()
        assert sorted(got) == maximal_independent_sets(g)


def test_disjoint_pentagons():
    d = disjoint_pentagons(2)
    assert d.n == 10 and len(d.facets) == 25
    assert d == complementary_complex(cycle_graph(5)).join(
        complementary_complex(cycle_graph(5))
    )
    g = disjoint_union(cycle_graph(5), cycle_graph(5))
    assert len(edge_ideal(g).gens) == 10
    assert stanley_reisner(d) == edge_ideal(g)


def test_relabel():
    p = pentagon()
    rotated = p.relabel({1: 2, 2: 3, 3: 4, 4: 5, 5: 1})
    assert rotated == p
    with pytest.raises(ValueError):
        p.relabel({1: 1, 2: 2, 3: 3, 4: 4, 5: 4})


def test_vertex_envelope_limit():
    with pytest.raises(ValueError):
        new_complex(65, [range(1, 66)])
    # 64 is still inside the envelope
    assert simplex_complex(64).n == 64


def test_restrict_with_map():
    p = pentagon()
    sub, vmap = p.restrict_with_map((2, 3, 5))
    assert vmap == {2: 1, 3: 2, 5: 3}
    assert sub.facet_tuples() == [(1, 2), (3,)]


def test_star_errors_on_nonface():
    with pytest.raises(ValueError):
        pentagon().star((1, 3))


def test_skeleton_top_is_identity():
    for d in (pentagon(), rp2(), four_path()):
        assert d.skeleton(d.dim) == d
