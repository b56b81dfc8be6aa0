import random
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import example, given, settings, strategies as st

from srsq import (
    Monomial,
    MonomialIdeal,
    complete_graph,
    complex_of_ideal,
    cycle_complex,
    cycle_graph,
    disjoint_union,
    edge_ideal,
    four_path,
    in_symbolic_power,
    random_pure_complex,
    rp2,
    simplex_complex,
    special_triangles,
    stanley_reisner,
    symbolic2_equals_square,
    symbolic_power,
    void_complex,
)
from srsq.bits import pack, unpack
from srsq.ideals import _iter_special_triangles
from helpers import (
    brute_minimal_nonfaces,
    brute_minimal_transversals,
    graph_has_triangle,
    random_graph,
    random_squarefree_ideal,
    sym2_by_square_membership,
    tuple_intersection,
    tuple_minimal,
    tuple_power,
    tuple_prime_power,
)


def triangle_ideal():
    return MonomialIdeal.squarefree_from_supports(3, [(1, 2), (2, 3), (1, 3)])


# -- monomial arithmetic ----------------------------------------------------------

def test_monomial_examples():
    a = Monomial((2, 1, 0))
    b = Monomial((1, 0, 1))
    assert a.gcd(b) == Monomial((1, 0, 0))
    assert Monomial((2, 3)).radical() == Monomial((1, 1))
    assert Monomial((1, 1, 0)).lcm(Monomial((0, 2, 0))) == Monomial((1, 2, 0))
    assert str(Monomial((1, 0, 2))) == "x1*x3^2"
    assert str(Monomial((0, 0))) == "1"
    with pytest.raises(ValueError):
        Monomial((1, -1))
    with pytest.raises(ValueError):
        a.lcm(Monomial((1, 1)))


def test_monomial_rejects_non_integer_exponents():
    for bad in ((1.5, 0), (1.0, 0), (True, 0), ("1", 0)):
        with pytest.raises(TypeError):
            Monomial(bad)
    with pytest.raises(TypeError):
        MonomialIdeal.from_exponents(2, [(0.5, 1)])


def test_squarefree_rejects_vertices_outside_range():
    with pytest.raises(ValueError):
        Monomial.squarefree(3, [4])
    with pytest.raises(ValueError):
        MonomialIdeal.squarefree_from_supports(3, [[1, 4]])
    with pytest.raises(ValueError):
        Monomial.squarefree(3, [0])
    assert Monomial.squarefree(3, [1, 3]) == Monomial((1, 0, 1))


exps = st.tuples(*(st.integers(min_value=0, max_value=4) for _ in range(4)))


@given(exps, exps)
def test_monomial_lattice_laws(e1, e2):
    a, b = Monomial(e1), Monomial(e2)
    assert a.gcd(b) * a.lcm(b) == a * b
    assert a.gcd(b).divides(a) and a.divides(a.lcm(b))
    assert (a * b).radical() == a.radical().lcm(b.radical())


@given(st.lists(exps, max_size=8))
def test_ideal_minimality_invariant(rows):
    ideal = MonomialIdeal(4, tuple(Monomial(r) for r in rows))
    for g in ideal.gens:
        assert not any(h != g and h.divides(g) for h in ideal.gens)
    # every input generator remains inside the ideal
    for r in rows:
        assert ideal.contains(Monomial(r))


# -- packed kernels against the plain-tuple oracle ---------------------------------

# Exponents at the field-width boundaries of the packed layout: a field holds
# values below 2^(w-1), so 1, 3, 7, 15 and 255 fill one and 2, 4, 8, 16 and
# 256 need one more bit.
BOUNDARY = (0, 1, 2, 3, 4, 7, 8, 15, 16, 255, 256)


@st.composite
def exponent_rows(draw, n):
    exponent = st.one_of(st.just(0), st.sampled_from(BOUNDARY))
    return draw(st.lists(st.tuples(*(exponent for _ in range(n))), max_size=5))


@st.composite
def ideal_cases(draw):
    n = draw(st.sampled_from((1, 2, 3, 4, 64)))
    return n, draw(exponent_rows(n)), draw(exponent_rows(n)), draw(exponent_rows(n))


def _exps(ideal):
    return [g.exps for g in ideal.gens]


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


@given(ideal_cases())
@settings(max_examples=80, deadline=None)
@example((3, [], [(1, 0, 0)], [(0, 0, 0)]))  # zero ideal
@example((3, [(0, 0, 0), (2, 1, 0)], [(0, 1, 0)], [(0, 0, 0), (1, 1, 1)]))  # unit ideal
@example((64, [(0,) * 64], [], [(256,) * 64]))
@example((64, [(1,) * 32 + (0,) * 32, (0,) * 32 + (1,) * 32], [(255,) + (0,) * 63],
          [(1,) * 64, (255,) * 64]))
def test_packed_kernels_match_tuple_oracle(case):
    n, rows, other_rows, probes = case
    ideal = MonomialIdeal.from_exponents(n, rows)
    gens = tuple_minimal(rows)
    assert _exps(ideal) == gens
    for k in range(4):
        assert _exps(ideal.power(k)) == tuple_power(rows, k, n)
    other = MonomialIdeal.from_exponents(n, other_rows)
    assert _exps(ideal.intersect(other)) == tuple_intersection(rows, other_rows)
    for p in probes + rows + other_rows:
        assert ideal.contains(Monomial(p)) == any(_divides(g, p) for g in gens)
    assert ideal.rho() == tuple(max((g[i] for g in gens), default=0) for i in range(n))


def test_symbolic_power_matches_tuple_fold():
    # the lift of each generator into P_F^ell against the pairwise lcms of
    # the tuple fold; vertex 6 of the second ideal and vertices 7, 8 of the
    # third lie in no generator, so their complexes have cone vertices
    rng = random.Random(23)
    battery = [rp2(), cycle_complex(5), simplex_complex(3)]
    battery += [complex_of_ideal(random_squarefree_ideal(rng, rng.randint(3, 7)))
                for _ in range(15)]
    battery += [complex_of_ideal(random_squarefree_ideal(rng, 8)) for _ in range(3)]
    battery += [complex_of_ideal(MonomialIdeal.squarefree_from_supports(n, supports))
                for n, supports in ((6, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]),
                                    (8, [(1, 2, 3), (3, 4), (4, 5, 6), (1, 6)]))]
    assert {d.n for d in battery} >= {8} and sum(bool(d.cone_vertices()) for d in battery) >= 3
    for d in battery:
        for ell in (1, 2, 3):
            facets = d.facet_tuples()
            expected = tuple_prime_power(d.n, facets[0], ell)
            for f in facets[1:]:
                expected = tuple_intersection(expected, tuple_prime_power(d.n, f, ell))
            assert _exps(symbolic_power(d, ell)) == expected


def test_contains_rejects_wrong_variable_count():
    for ideal in (triangle_ideal(), MonomialIdeal.zero(3)):
        with pytest.raises(ValueError):
            ideal.contains(Monomial((1, 1)))


# -- Stanley-Reisner correspondence --------------------------------------------------

def test_stanley_reisner_pentagon_against_brute_force():
    p = cycle_complex(5)
    expected = sorted(unpack(m) for m in brute_minimal_nonfaces(p))
    got = sorted(g.support() for g in stanley_reisner(p).gens)
    assert got == expected == [(1, 3), (1, 4), (2, 4), (2, 5), (3, 5)]


def test_stanley_reisner_rp2_generators():
    got = sorted(g.support() for g in stanley_reisner(rp2()).gens)
    assert got == [
        (1, 2, 3), (1, 2, 5), (1, 3, 6), (1, 4, 5), (1, 4, 6),
        (2, 3, 4), (2, 4, 6), (2, 5, 6), (3, 4, 5), (3, 5, 6),
    ]


def test_stanley_reisner_full_simplex_is_zero():
    assert stanley_reisner(simplex_complex(4)).is_zero()


def test_complex_of_ideal_examples():
    d = complex_of_ideal(triangle_ideal())
    assert d.facet_tuples() == [(1,), (2,), (3,)]
    # brute-force vertex cover oracle
    covers = brute_minimal_transversals([pack((1, 2)), pack((2, 3)), pack((1, 3))], 3)
    assert sorted(d.facets) == sorted(0b111 & ~c for c in covers)

    I = MonomialIdeal.squarefree_from_supports(4, [(1, 3), (2, 4)])  # x1y1, x2y2
    d = complex_of_ideal(I)
    assert sorted(d.facet_tuples()) == [(1, 2), (1, 4), (2, 3), (3, 4)]

    with pytest.raises(ValueError):
        complex_of_ideal(MonomialIdeal.unit(3))


def test_complex_of_ideal_round_trip():
    battery = [cycle_complex(5), rp2(), four_path(), simplex_complex(3)]
    for d in battery:
        assert complex_of_ideal(stanley_reisner(d)) == d


def test_complex_of_ideal_takes_radical():
    I2 = triangle_ideal().power(2)
    assert complex_of_ideal(I2) == complex_of_ideal(triangle_ideal())
    # F is a face of Delta(I) iff no generator support lies inside F, checked
    # over every subset on random non-squarefree ideals
    rng = random.Random(41)
    checked = 0
    while checked < 300:
        n = rng.randint(1, 6)
        rows = [tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(n))
                for _ in range(rng.randint(1, 5))]
        ideal = MonomialIdeal.from_exponents(n, rows)
        if ideal.is_unit() or ideal.is_squarefree():
            continue
        checked += 1
        supports = [pack(i + 1 for i, e in enumerate(row) if e) for row in rows]
        faces = {m for m in range(1 << n) if all(s & ~m for s in supports)}
        assert complex_of_ideal(ideal).face_masks == faces


# -- powers and intersections ----------------------------------------------------------

def test_power_of_triangle_ideal():
    I = triangle_ideal()
    sq = I.power(2)
    # independent oracle: all pairwise products, then drop divisible ones
    prods = [a * b for a, b in combinations_with_replacement(I.gens, 2)]
    keep = sorted(p for p in prods if not any(q != p and q.divides(p) for q in prods))
    assert list(sq.gens) == keep
    assert len(sq.gens) == 6


def test_power_conventions():
    I = triangle_ideal()
    assert I.power(1) == I
    assert I.power(0).is_unit()
    rng = random.Random(1)
    for _ in range(20):
        J = random_squarefree_ideal(rng, 5)
        mu = len(J.gens)
        assert len(J.power(2).gens) <= mu * (mu + 1) // 2


def test_intersect_examples():
    x1 = MonomialIdeal.from_exponents(2, [(1, 0)])
    x2 = MonomialIdeal.from_exponents(2, [(0, 1)])
    assert x1.intersect(x2) == MonomialIdeal.from_exponents(2, [(1, 1)])

    I = triangle_ideal()
    assert I.intersect(I) == I

    # (x1,x2)^2 n (x2,x3)^2 n (x1,x3)^2 = I^2 + (x1x2x3)
    def prime_sq(support):
        gens = []
        for c in combinations_with_replacement(support, 2):
            e = [0, 0, 0]
            for v in c:
                e[v - 1] += 1
            gens.append(tuple(e))
        return MonomialIdeal.from_exponents(3, gens)

    inter = prime_sq((1, 2)).intersect(prime_sq((2, 3))).intersect(prime_sq((1, 3)))
    cubic = MonomialIdeal.from_exponents(3, [(1, 1, 1)])
    assert inter == I.power(2) + cubic
    assert inter != I.power(2)


# -- symbolic powers ---------------------------------------------------------------------

def test_symbolic_power_triangle():
    I = triangle_ideal()
    sym = symbolic_power(I, 2)
    assert sym == I.power(2) + MonomialIdeal.from_exponents(3, [(1, 1, 1)])
    assert sym != I.power(2)


def test_symbolic_power_pentagon_equals_square():
    p = cycle_complex(5)
    I = stanley_reisner(p)
    assert symbolic_power(p, 2) == I.power(2)


def test_symbolic_membership_rp2():
    d = rp2()
    I = stanley_reisner(d)
    m = Monomial((1,) * 6)
    assert in_symbolic_power(d, m, 2)
    assert not I.power(2).contains(m)
    assert symbolic_power(d, 2).contains(m)


def test_symbolic_membership_rejects_wrong_variable_count():
    for source in (rp2(), stanley_reisner(rp2())):
        with pytest.raises(ValueError):
            in_symbolic_power(source, Monomial((0, 0, 0, 0, 0, 0, 2)), 2)
        with pytest.raises(ValueError):
            in_symbolic_power(source, Monomial((1, 1, 1, 1, 1)), 2)


def test_symbolic_membership_needs_a_positive_power():
    with pytest.raises(ValueError, match="symbolic powers need ell >= 1"):
        in_symbolic_power(rp2(), Monomial((1,) * 6), 0)


def test_monomial_degree_and_ideal_sums_across_variable_counts():
    assert Monomial((2, 0, 1)).degree() == 3
    with pytest.raises(ValueError, match="ideals live in different variable counts"):
        stanley_reisner(cycle_complex(5)) + stanley_reisner(cycle_complex(4))


def test_symbolic_membership_agrees_with_generators():
    rng = random.Random(9)
    for _ in range(25):
        n = rng.randint(3, 7)
        I = random_squarefree_ideal(rng, n)
        d = complex_of_ideal(I)
        ell = rng.randint(1, 3)
        sym = symbolic_power(d, ell)
        for _ in range(30):
            m = Monomial(tuple(rng.randint(0, ell) for _ in range(n)))
            assert sym.contains(m) == in_symbolic_power(d, m, ell)


def test_ordinary_power_inside_symbolic():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(3, 7)
        I = random_squarefree_ideal(rng, n)
        d = complex_of_ideal(I)
        for g in I.power(2).gens:
            assert in_symbolic_power(d, g, 2)


def test_symbolic_power_validation():
    with pytest.raises(ValueError):
        symbolic_power(cycle_complex(5), 0)
    with pytest.raises(ValueError):
        symbolic_power(triangle_ideal().power(2), 2)  # not squarefree
    with pytest.raises(ValueError, match="^the void complex has no facet primes$"):
        symbolic_power(void_complex(3), 2)


def test_a_generator_in_the_wrong_variable_count_is_refused():
    with pytest.raises(ValueError, match=r"^generator x1\*x2 has 2 variables, expected 3$"):
        MonomialIdeal.from_exponents(3, [(1, 1)])


# -- special triangles --------------------------------------------------------------------

def test_k3_special_triangle():
    I = edge_ideal(complete_graph(3))
    tris = special_triangles(I)
    assert len(tris) == 1
    assert tris[0].vertices == (1, 2, 3)
    result = symbolic2_equals_square(I)
    assert not result.equal
    assert result.failing.vertices == (1, 2, 3)
    # the obstruction is the triangle monomial x1x2x3
    assert result.witness_monomial == Monomial((1, 1, 1))


def test_pentagon_no_special_triangles():
    I = stanley_reisner(cycle_complex(5))
    assert special_triangles(I) == ()
    assert symbolic2_equals_square(I).equal


def test_special_triangle_pattern_with_tails():
    # generators x1x2L1, x2x3L2, x3x1L3 with tails off {1,2,3}
    I = MonomialIdeal.squarefree_from_supports(6, [(1, 2, 4), (2, 3, 5), (1, 3, 6)])
    tris = special_triangles(I)
    assert any(t.vertices == (1, 2, 3) for t in tris)
    assert sorted(map(unpack, I.supports())) == [(1, 2, 4), (1, 3, 6), (2, 3, 5)]


def test_special_triangles_are_distinct_by_construction():
    rng = random.Random(53)
    ideals = [random_squarefree_ideal(rng, rng.randint(3, 7)) for _ in range(300)]
    ideals += [stanley_reisner(random_pure_complex(rng, rng.randint(3, 7))) for _ in range(100)]
    enumerated = 0
    for ideal in ideals:
        tris = list(_iter_special_triangles(ideal.supports()))
        assert len(set(tris)) == len(tris)
        enumerated += len(tris)
    assert enumerated > len(ideals)  # the check is not vacuous


def test_rp2_special_triangles_nonempty():
    I = stanley_reisner(rp2())
    tris = special_triangles(I)
    assert tris
    # witnesses really are generator supports meeting the triple correctly
    supports = set(I.supports())
    for t in tris[:5]:
        tri_mask = pack(t.vertices)
        for v, w in zip(t.vertices, t.witnesses):
            assert w in supports
            assert w & tri_mask == tri_mask & ~(1 << (v - 1))
    assert not symbolic2_equals_square(I).equal


def test_triangle_criterion_agrees_with_direct_equality():
    rng = random.Random(31)
    for _ in range(120):
        n = rng.randint(3, 7)
        I = random_squarefree_ideal(rng, n)
        direct = I.power(2) == symbolic_power(complex_of_ideal(I), 2)
        assert symbolic2_equals_square(I).equal == direct


def test_sym2_mask_rule_matches_square_membership():
    from srsq.criteria import random_pure_complex
    from srsq.reproduce import named_battery

    rng = random.Random(43)
    ideals = [stanley_reisner(delta) for _, delta in named_battery()]
    for n in range(3, 8):
        for _ in range(12):
            ideals.append(stanley_reisner(random_pure_complex(rng, n)))
            ideals.append(random_squarefree_ideal(rng, n))
            g = random_graph(rng, n)
            if g.edges:
                ideals.append(edge_ideal(g))
    results = [symbolic2_equals_square(I) for I in ideals]
    assert results == [sym2_by_square_membership(I) for I in ideals]
    assert {r.equal for r in results} == {True, False}
    assert any(r.equal and r.triangles_checked for r in results)


def test_edge_ideal_triangle_free_exhaustive_n5():
    # every graph on 5 labelled vertices
    pool = list(combinations(range(1, 6), 2))
    for sel in range(1, 1 << len(pool)):
        edges = [pool[i] for i in range(len(pool)) if sel >> i & 1]
        from srsq import Graph

        g = Graph.from_edges(5, edges)
        I = edge_ideal(g)
        assert symbolic2_equals_square(I).equal == (not graph_has_triangle(g))


def test_edge_ideal_triangle_free_random_n67():
    rng = random.Random(37)
    for _ in range(60):
        g = random_graph(rng, rng.randint(6, 7))
        if not g.edges:
            continue
        I = edge_ideal(g)
        assert symbolic2_equals_square(I).equal == (not graph_has_triangle(g))


def test_join_second_power_behaviour():
    # equality holds for a join iff it holds for both factors
    pentagon = cycle_complex(5)
    k3 = complex_of_ideal(edge_ideal(complete_graph(3)))
    cases = [(pentagon, pentagon, True), (pentagon, k3, False), (k3, k3, False)]
    for a, b, expected in cases:
        j = a.join(b)
        assert symbolic2_equals_square(stanley_reisner(j)).equal == expected


def test_disjoint_pentagons_equality():
    g = disjoint_union(cycle_graph(5), cycle_graph(5))
    I = edge_ideal(g)
    assert I.n == 10 and len(I.gens) == 10
    result = symbolic2_equals_square(I)
    assert result.equal and result.triangles_checked == 0
