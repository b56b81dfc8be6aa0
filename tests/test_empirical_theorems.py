"""Empirical checks of the structural results on curated instances that the
named battery does not already cover: stellar subdivisions of general
non-acyclic complete intersection complexes, codimension-3 Gorenstein
spheres, and the join combination rule for Cohen-Macaulay squares."""

import random
from itertools import combinations, combinations_with_replacement

import pytest

from srsq import (
    GF2,
    QQ,
    MonomialIdeal,
    complex_of_ideal,
    cross_polytope,
    cycle_complex,
    four_path,
    is_gorenstein,
    reduced_homology,
    rp2,
    square_depth_reports,
    stanley_reisner,
    symbolic_power,
    symbolic2_equals_square,
    symbolic_square_depth_report,
)
from srsq.criteria import depth2_criterion
from srsq.complexes import (
    cross_polytope_stellar,
    new_complex,
    path_complex,
    phantom_pentagon,
)

from helpers import generator_form_square_reports, local_cohomology_dim


def cm_square(delta, fields):
    return {f: r.is_cm for f, r in square_depth_reports(delta, fields).items()}


# -- stellar subdivisions of complete intersection complexes ---------------------

def ci_complex(n, blocks):
    """Delta of a complete intersection squarefree ideal with the given
    variable-disjoint generator supports."""
    return complex_of_ideal(MonomialIdeal.squarefree_from_supports(n, blocks))


def test_stellar_of_generic_ci_complex_has_cm_square():
    # I = (x1x2x3, x4x5) on 5 variables: non-acyclic (chi~ = 1), and
    # F = {x1, x4} picks one variable from each block (sizes sum to 2)
    gamma = ci_complex(5, [(1, 2, 3), (4, 5)])
    assert gamma.f_vector().euler_reduced == 1
    delta = gamma.stellar_subdivision((1, 4))
    # resulting ideal: (x1x2x3, x4x5, x1x4, v x2x3, v x5) with v = 6
    expected = sorted([(1, 2, 3), (4, 5), (1, 4), (2, 3, 6), (5, 6)])
    assert sorted(g.support() for g in stanley_reisner(delta).gens) == expected
    assert cm_square(delta, (QQ, GF2)) == {QQ: True, GF2: True}


def test_stellar_of_ci_on_full_block_face():
    # subdividing on {x1, x2} inside the first block (j1 = 2 needs i1 > 2);
    # the generator x1x2x3 is absorbed by the new x1x2, so the minimal set
    # is (x1x2, x3 v, x4x5)
    gamma = ci_complex(5, [(1, 2, 3), (4, 5)])
    delta = gamma.stellar_subdivision((1, 2))
    expected = sorted([(1, 2), (3, 6), (4, 5)])
    assert sorted(g.support() for g in stanley_reisner(delta).gens) == expected
    assert cm_square(delta, (QQ, GF2)) == {QQ: True, GF2: True}


def test_stellar_construction_matches_cross_polytope_shortcut():
    for d in (2, 3):
        direct = cross_polytope(d).stellar_subdivision(range(1, d + 1))
        assert direct == cross_polytope_stellar(d)


# -- codimension-3 Gorenstein complexes have Cohen-Macaulay squares ----------------

def cyclic_polytope_sphere_7_4():
    """Boundary of the cyclic 4-polytope on 7 vertices (Gale evenness):
    a 3-sphere with n - dim(ring) = 3."""
    facets = []
    for i in range(1, 6):
        for j in range(i + 2, 7):
            facets.append((i, i + 1, j, j + 1))
    for j in range(2, 6):
        facets.append((1, j, j + 1, 7))
    return new_complex(7, facets)


def test_cyclic_sphere_is_a_3_sphere():
    d = cyclic_polytope_sphere_7_4()
    assert len(d.facets) == 14
    assert d.is_pure() and d.dim == 3
    for field in (QQ, GF2):
        profile = reduced_homology(d, field)
        assert profile.as_mapping() == {-1: 0, 0: 0, 1: 0, 2: 0, 3: 1}
        assert is_gorenstein(d, field)


def test_codim3_gorenstein_squares_are_cm():
    octahedron = cross_polytope(3)  # n = 6, dim ring = 3
    sphere74 = cyclic_polytope_sphere_7_4()  # n = 7, dim ring = 4
    pentagon = cycle_complex(5)  # n = 5, dim ring = 2
    for d in (pentagon, octahedron, sphere74):
        assert d.n - (d.dim + 1) == 3
        for field in (QQ, GF2):
            assert is_gorenstein(d, field)
        assert cm_square(d, (QQ, GF2)) == {QQ: True, GF2: True}


def test_complete_intersection_square_cm_baseline():
    # codim-2 complete intersection: squares of CIs are always CM
    d = cross_polytope(2)
    assert cm_square(d, (QQ, GF2)) == {QQ: True, GF2: True}


# -- join combination for Cohen-Macaulay squares -------------------------------------

def test_join_cm_square_matches_factorwise_rule():
    pentagon = cycle_complex(5)
    cases = [
        (pentagon, four_path(), False),  # one bad factor kills the join
        (pentagon, cross_polytope(2), True),
    ]
    for a, b, expected in cases:
        j = a.join(b)
        direct = generator_form_square_reports(j, (GF2,))[GF2].is_cm
        combined = cm_square(a, (GF2,))[GF2] and cm_square(b, (GF2,))[GF2]
        assert direct == combined == expected
        assert cm_square(j, (GF2,)) == {GF2: expected}


def test_join_factors_recover_irreducibles():
    pentagon = cycle_complex(5)
    j = pentagon.join(four_path())
    assert j.join_factors() == [pentagon, four_path()]
    assert rp2().join_factors() == [rp2()]


# -- named-battery diameter equivalence ------------------------------------------------

def test_diameter_criterion_on_named_battery():
    battery = [
        cycle_complex(5),
        rp2(),
        four_path(),
        cross_polytope(2),
        cross_polytope(3),
        cross_polytope_stellar(2),
        phantom_pentagon(2),
        phantom_pentagon(3),
        path_complex(6),
    ]
    for d in battery:
        deep = symbolic_square_depth_report(d, GF2).depth >= 2
        assert depth2_criterion(d).holds == deep


# -- exhaustive second-power equality at the ideal level -------------------------------

def all_antichain_ideals(n, min_size):
    pool = [s for k in range(min_size, n + 1) for s in combinations(range(1, n + 1), k)]
    for sel in range(1, 1 << len(pool)):
        supports = [pool[i] for i in range(len(pool)) if sel >> i & 1]
        ideal = MonomialIdeal.squarefree_from_supports(n, supports)
        if len(ideal.gens) == len(supports):  # already an antichain
            yield ideal


def test_triangle_criterion_exhaustive_small_ideals():
    # 18 antichain families on [3] (all support sizes) and 113 on [4]
    # (supports of size >= 2), enumerated exhaustively
    checked = 0
    for n, min_size in ((3, 1), (4, 2)):
        for ideal in all_antichain_ideals(n, min_size):
            direct = ideal.power(2) == symbolic_power(complex_of_ideal(ideal), 2)
            assert symbolic2_equals_square(ideal).equal == direct
            checked += 1
    assert checked == 131


# -- depth witnesses recompute through the one-piece entry point ------------------------

def test_depth_witness_cross_validates():
    cases = [
        (symbolic_power(rp2(), 2), GF2),
        (symbolic_power(rp2(), 2), QQ),
        (stanley_reisner(four_path()).power(2), QQ),
        (stanley_reisner(phantom_pentagon(2)).power(2), GF2),
    ]
    from srsq import depth_via_takayama

    for ideal, field in cases:
        report = depth_via_takayama(ideal, field)
        assert report.witness is not None
        w = report.witness
        assert local_cohomology_dim(ideal, w.i, w.a, field) == w.betti
        assert w.betti > 0 and w.i == report.depth


def test_phantom_pentagon_family_beyond_k2():
    # the glued-pentagon pattern holds for every k >= 2 (checked at 3 and 4)
    for k in (3, 4):
        d = phantom_pentagon(k)
        assert depth2_criterion(d).holds
        assert symbolic_square_depth_report(d, GF2).is_cm
        assert cm_square(d, (GF2,)) == {GF2: False}
        assert not is_gorenstein(d, GF2)
