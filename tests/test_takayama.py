import functools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from srsq import (
    GF2,
    QQ,
    BudgetExceeded,
    DEFAULT_BUDGET,
    FieldSpec,
    MonomialIdeal,
    SimplicialComplex,
    complex_of_ideal,
    conjecture_complex,
    cross_polytope,
    cross_polytope_stellar,
    cycle_complex,
    depth_reports,
    depth_via_takayama,
    disjoint_pentagons,
    four_path,
    irrelevant_complex,
    is_cohen_macaulay,
    new_complex,
    path_complex,
    phantom_pentagon,
    reduced_homology,
    rp2,
    simplex_complex,
    square_depth_report,
    square_depth_reports,
    stanley_reisner,
    symbolic2_equals_square,
    symbolic_power,
    symbolic_square_depth_report,
    symbolic_square_depth_reports,
    void_complex,
)
from srsq import homology, takayama
from srsq.bits import pack, unpack
from srsq.criteria import explore_complexes, random_pure_complex
from srsq.complexes import FaceIndex
from srsq.homology import HomologyMemo
from srsq.reproduce import named_battery as paper_examples
from srsq.takayama import (
    _facet_walk,
    _generator_selection,
    _scan_size,
    _symbolic_depth_reports,
    _symbolic_rho,
    check_square_budget,
)

from helpers import (
    DegreeVector,
    assert_whole_ring_report,
    brute_force_depth,
    cone_bases,
    coned_complexes_with_unused_vertices,
    delta_a,
    delta_a_symbolic,
    faces_at,
    facet_form_points,
    facet_selection,
    generator_form_square_reports,
    generator_form_symbolic_square_reports,
    is_cone_bitset,
    join_oracle_cases,
    local_cohomology_dim,
    random_complex,
    random_complex_with_unused_vertices,
    relabeling_classes,
    unbounded_scan_reports,
)


def triangle_ideal():
    return MonomialIdeal.squarefree_from_supports(3, [(1, 2), (2, 3), (1, 3)])


def named_battery():
    return [
        cycle_complex(5),
        rp2(),
        four_path(),
        cross_polytope(2),
        cross_polytope_stellar(2),
        phantom_pentagon(2),
        path_complex(6),
    ]


# -- degree vectors ---------------------------------------------------------------

def test_degree_vector_negative_support():
    dv = DegreeVector((0, -1, 3, -2))
    assert dv.neg_support() == (2, 4)


# -- delta_a ----------------------------------------------------------------------

def test_delta_a_zero_of_squarefree_is_whole_complex():
    for I in (triangle_ideal(), stanley_reisner(rp2())):
        assert delta_a(I, (0,) * I.n) == complex_of_ideal(I)


def test_delta_zero_and_e1_of_square_equal_complex():
    for d in named_battery():
        I2 = stanley_reisner(d).power(2)
        assert delta_a(I2, (0,) * d.n) == d
        e1 = (1,) + (0,) * (d.n - 1)
        assert delta_a(I2, e1) == d


def test_delta_a_symbolic_examples():
    p = cycle_complex(5)
    # a = e_r + e_s keeps exactly the facets containing r or s
    a = (1, 1, 0, 0, 0)
    d = delta_a_symbolic(p, a, 2)
    expected = tuple(f for f in p.facets if f & 0b11)
    assert d.facets == expected
    assert reduced_homology(d, QQ).betti_number(0) == 0  # connected

    # ell = 1, a = 0 keeps everything
    assert delta_a_symbolic(p, (0,) * 5, 1) == p


def test_delta_a_symbolic_validation():
    p = cycle_complex(5)
    with pytest.raises(ValueError):
        delta_a_symbolic(p, (0,) * 5, 0)
    with pytest.raises(ValueError):
        delta_a_symbolic(p, (-1, 0, 0, 0, 0), 2)


def test_delta_a_matches_symbolic_on_random_instances():
    rng = random.Random(53)
    for _ in range(80):
        n = rng.randint(3, 6)
        d = random_pure_complex(rng, n)
        ell = rng.randint(1, 3)
        a = tuple(rng.randint(0, ell) for _ in range(n))
        assert delta_a(symbolic_power(d, ell), a) == delta_a_symbolic(d, a, ell)


def test_delta_a_mixed_sign_matches_facet_formula():
    # for a face G carrying the -1 entries, Delta_a(I^(ell)) is generated by
    # F' - G over the facets F' containing G with small enough outside sum
    rng = random.Random(59)
    for _ in range(40):
        n = rng.randint(3, 6)
        d = random_pure_complex(rng, n)
        ell = rng.randint(1, 3)
        faces = sorted(d.face_masks)
        g = faces[rng.randrange(len(faces))]
        a = [rng.randint(0, ell) for _ in range(n)]
        for j in range(n):
            if g >> j & 1:
                a[j] = -1
        lhs = delta_a(symbolic_power(d, ell), tuple(a))
        all_faces = d.sorted_faces()
        key = facet_selection(d.facets, ell, all_faces, d.n)(g, a)
        assert SimplicialComplex(d.n, tuple(faces_at(all_faces, key))) == lhs
        good = [
            f & ~g
            for f in d.facets
            if g & ~f == 0
            and sum(e for i, e in enumerate(a) if not f >> i & 1) <= ell - 1
        ]
        rhs = SimplicialComplex(d.n, tuple(good))
        assert lhs == rhs


def test_symbolic_capping_soundness():
    rng = random.Random(61)
    for _ in range(60):
        n = rng.randint(3, 6)
        d = random_pure_complex(rng, n)
        ell = rng.randint(1, 3)
        a = tuple(rng.randint(0, ell + 2) for _ in range(n))
        capped = tuple(min(e, ell) for e in a)
        assert delta_a_symbolic(d, a, ell) == delta_a_symbolic(d, capped, ell)


def random_point(rng, n, top):
    """A degree with entries in -2..top; about a third of them negative."""
    return tuple(rng.randint(-2, -1) if rng.random() < 1 / 3 else rng.randint(0, top)
                 for _ in range(n))


def bitset_of(faces, delta):
    """The Delta_a bitset naming the faces of ``delta`` among ``faces``."""
    return sum(1 << p for p, f in enumerate(faces) if f in delta.face_masks)


def kernel_keys(ideal, d, ell, g_mask, a):
    """(generator-form key of ``ideal``, facet-form key of d's ell-th
    symbolic power) at the point a, with the face lists they index; the
    generator form selects by the face index of Delta(I)."""
    index = complex_of_ideal(ideal).face_index
    faces = index.faces
    gen_key = _generator_selection([m.exps for m in ideal.gens], index)(g_mask, a)
    sym_faces = d.sorted_faces()
    sym_key = facet_selection(d.facets, ell, sym_faces, d.n)(g_mask, a)
    return (gen_key, faces), (sym_key, sym_faces)


def test_selection_kernels_match_the_definition_on_random_points():
    # both scan kernels against the brute-force definition in helpers, at
    # points of every sign pattern, G_a a face of Delta or not; cubes make
    # the generator form read exponent levels above 2; the key is the
    # bitset of Delta_a's faces, 0 exactly when Delta_a is void
    rng = random.Random(71)
    mixed = void = cubes = 0
    for _ in range(150):
        n = rng.randint(2, 6)
        d = random_complex(rng, n)
        ell = rng.randint(1, 3)
        ideal = rng.choice([stanley_reisner(d), stanley_reisner(d).power(2),
                            stanley_reisner(d).power(3), symbolic_power(d, ell)])
        a = random_point(rng, n, max(ideal.rho()) + 1)
        g_mask = pack(j for j, e in enumerate(a, 1) if e < 0)
        expected = delta_a(ideal, a)
        (key, faces), (sym_key, sym_faces) = kernel_keys(ideal, d, ell, g_mask, a)
        assert key == bitset_of(faces, expected)
        assert SimplicialComplex(n, tuple(faces_at(faces, key))) == expected
        assert sym_key == bitset_of(sym_faces, delta_a(symbolic_power(d, ell), a))
        mixed += bool(g_mask) and any(e > 0 for e in a)
        void += expected.is_void()
        cubes += max(ideal.rho()) == 3 and any(e == 2 for e in a)
    assert mixed >= 20 and 0 < void < 150 and cubes >= 10


def test_selection_kernels_match_the_definition_past_64_faces():
    # n = 7..9 and more than 64 faces, where a Delta_a bitset is wider than
    # one machine word: scan points of squares and symbolic squares, G_a
    # empty or a vertex so that Delta_a keeps faces past the 64th
    rng = random.Random(79)
    wide = 0
    for n in (7, 8, 9):
        for _ in range(2):
            d = random_pure_complex(rng, n)
            while len(d.sorted_faces()) <= 64:
                d = random_pure_complex(rng, n)
            faces = d.sorted_faces()
            ideal = rng.choice([stanley_reisner(d).power(2), symbolic_power(d, 2)])
            for _ in range(2):
                g_mask = faces[rng.randrange(n + 1)]
                a = tuple(-1 if g_mask >> j & 1 else int(rng.random() < 0.2) for j in range(n))
                (key, gen_faces), (sym_key, _) = kernel_keys(ideal, d, 2, g_mask, a)
                assert gen_faces == faces
                assert key == bitset_of(faces, delta_a(ideal, a))
                assert sym_key == bitset_of(faces, delta_a(symbolic_power(d, 2), a))
                wide += key.bit_length() > 64
    assert wide >= 3


@pytest.mark.parametrize("form", ["generator", "facet"])
def test_over_budget_scans_refuse_before_building_a_face_index(form, monkeypatch):
    def refuse(*args):
        raise AssertionError("the face index is built only once the budget allows the scan")

    monkeypatch.setattr(SimplicialComplex, "face_index", property(refuse))
    d = cross_polytope(9)
    with pytest.raises(BudgetExceeded) as err:
        if form == "facet":
            symbolic_square_depth_reports(d, (QQ, GF2))
        else:
            depth_reports(stanley_reisner(d).power(2), (QQ, GF2))
    assert err.value.required == 2 ** 27


def test_square_budget_refuses_without_sorting_the_faces(monkeypatch):
    # the scan size is a sum over the faces, so no face order is needed
    def refuse(self):
        raise AssertionError("the budget check must not sort the faces")

    monkeypatch.setattr(SimplicialComplex, "sorted_faces", refuse)
    with pytest.raises(BudgetExceeded) as err:
        check_square_budget(disjoint_pentagons(2), 1000)
    assert err.value.required == 23104
    check_square_budget(disjoint_pentagons(2), 23104)


def test_unequal_square_scans_match_the_brute_force_depth():
    # the generator-form battery scan of I^2 != I^(2) against local_cohomology_dim
    # evaluated over the whole scan space, one degree at a time; rp2's square
    # has depth 0, the random ones are drawn with positive depth so that
    # every piece of degree 0 is evaluated
    rng = random.Random(73)
    cases = [stanley_reisner(rp2()).power(2)]
    while len(cases) < 3:
        d = random_complex(rng, rng.randint(4, 5))
        if d.is_void() or symbolic2_equals_square(stanley_reisner(d)).equal:
            continue
        square = stanley_reisner(d).power(2)
        if brute_force_depth(square)[0] > 0:
            cases.append(square)
    for square in cases:
        reports = depth_reports(square, (QQ, GF2))
        for field, report in reports.items():
            depth, witness, size = brute_force_depth(square, field)
            assert (report.depth, report.scan_size) == (depth, size)
            assert witness == (report.witness and (report.witness.a, report.witness.betti))


@pytest.mark.parametrize("ideal, empty_witness", [
    (stanley_reisner(rp2()).power(2), True),  # depth 0, at G_a = {}
    (stanley_reisner(four_path()).power(2), False),
    (symbolic_power(cycle_complex(5), 2), False),  # CM
    (stanley_reisner(cross_polytope(2)).power(3), False),  # CM
], ids=["rp2-square", "four-path-square", "pentagon-symbolic", "square-cube"])
def test_generator_form_evaluates_each_delta_a_once(ideal, empty_witness, monkeypatch):
    # points whose Delta_a has the same faces share one evaluation; a scan
    # keys every Delta_a over the one complex Delta(I), so equal keys are
    # equal face sets
    evaluated = []
    profile = homology.profile_from_faces

    def recorded(delta, key, fields, **cut):
        evaluated.append(key)
        return profile(delta, key, fields, **cut)

    monkeypatch.setattr(homology, "profile_from_faces", recorded)
    reports = depth_reports(ideal, (QQ, GF2))
    assert len(evaluated) == len(set(evaluated)) > 0
    # the scan stops before the facets of a CM ring (|G_a| = dim), so {empty
    # face} is evaluated just where it gives a piece: ~H_{-1} is nonzero only
    # on {empty face}, and such a piece at i = |G_a| < bound is a witness;
    # {empty face} is bit 0 alone, the empty face coming first
    witnessed = any(r.witness.homology_degree == -1 for r in reports.values() if r.witness)
    assert (1 in evaluated) == witnessed
    assert witnessed == empty_witness


# -- a generator-form scan held by the memo ------------------------------------------

def counted_walks(monkeypatch):
    """One entry per generator-form walk started from now on."""
    walks = []
    walk = takayama._generator_walk

    def walked(*args):
        walks.append(None)
        return walk(*args)

    monkeypatch.setattr(takayama, "_generator_walk", walked)
    return walks


@pytest.mark.parametrize("battery", [(QQ, GF2), (GF2, QQ, FieldSpec(3))], ids=["Q,F2", "F2,Q,F3"])
def test_a_held_scan_answers_each_field_as_a_fresh_scan(battery, monkeypatch):
    # the audit asks for an unequal square once per field under its memo:
    # one walk over the battery answers every call, each with the report of
    # a scan of that field alone and no memo
    walks = counted_walks(monkeypatch)
    pool = ([d for _, d in paper_examples()] + explore_complexes(0, 100, 6)
            + list(relabeling_classes()) + join_oracle_cases())
    held_scans = 0
    for delta in pool:
        if delta.n < 1 or delta.is_void():
            continue
        ideal = stanley_reisner(delta)
        if symbolic2_equals_square(ideal).equal:
            continue
        square = ideal.power(2)
        memo = HomologyMemo(delta, battery)
        walks.clear()
        held = {f: depth_via_takayama(square, f, DEFAULT_BUDGET, memo) for f in battery}
        assert len(walks) == 1 and list(memo.scans) == [square]
        for f in battery:
            assert held[f] == depth_reports(square, (f,), DEFAULT_BUDGET)[f]
        held_scans += 1
    assert held_scans > 60


def test_a_held_scan_over_a_later_budget_raises_as_a_fresh_scan(monkeypatch):
    delta = rp2()
    square = stanley_reisner(delta).power(2)
    memo = HomologyMemo(delta, (QQ, GF2))
    size = depth_reports(square, (QQ,), DEFAULT_BUDGET, memo)[QQ].scan_size
    walks = counted_walks(monkeypatch)
    for budget in (size - 1, 0):
        with pytest.raises(BudgetExceeded) as held:
            depth_reports(square, (GF2,), budget, memo)
        with pytest.raises(BudgetExceeded) as fresh:
            depth_reports(square, (GF2,), budget)
        assert (held.value.required, held.value.budget) == (size, budget)
        assert (fresh.value.required, fresh.value.budget) == (size, budget)
        assert str(held.value) == str(fresh.value)
    # at its scan size the held scan answers, still with no walk
    report = depth_via_takayama(square, GF2, size, memo)
    assert walks == []
    assert report == depth_via_takayama(square, GF2, size)


def test_a_request_the_memo_does_not_serve_scans_as_before(monkeypatch):
    delta = rp2()
    square = stanley_reisner(delta).power(2)
    memo = HomologyMemo(delta, (QQ, GF2))
    depth_reports(square, (QQ, GF2), DEFAULT_BUDGET, memo)
    walks = counted_walks(monkeypatch)
    # a field outside the memo's battery
    f3 = FieldSpec(3)
    assert depth_reports(square, (QQ, f3), DEFAULT_BUDGET, memo) == depth_reports(square, (QQ, f3))
    assert len(walks) == 2
    # an ideal whose complex is not the memo's
    other = stanley_reisner(four_path()).power(2)
    for _ in range(2):
        assert depth_reports(other, (QQ,), DEFAULT_BUDGET, memo) == depth_reports(other, (QQ,))
    assert len(walks) == 6
    assert list(memo.scans) == [square]


# -- graded pieces -------------------------------------------------------------------

def test_hochster_specialisation():
    # for squarefree ideals and a in {0,-1}^n the piece is link homology
    for d in (cycle_complex(5), rp2(), four_path()):
        I = stanley_reisner(d)
        dim_ring = d.dim + 1
        for field in (QQ, GF2):
            for g in sorted(d.face_masks):
                a = tuple(-1 if g >> j & 1 else 0 for j in range(d.n))
                link_profile = reduced_homology(d.link(
                    tuple(j + 1 for j in range(d.n) if g >> j & 1)), field)
                for i in range(dim_ring + 1):
                    expected = link_profile.betti_number(i - g.bit_count() - 1)
                    assert local_cohomology_dim(I, i, a, field) == expected


def test_piece_vanishing_conditions():
    I = stanley_reisner(rp2())
    # G_a not a face: {1,2,3} is a non-face of rp2
    a = (-1, -1, -1, 0, 0, 0)
    assert local_cohomology_dim(I, 2, a, GF2) == 0
    # a_j beyond rho_j - 1
    assert local_cohomology_dim(I, 2, (1, 0, 0, 0, 0, 0), GF2) == 0
    # the i = 2 zero-degree piece over F2 is the nonvanishing H~1
    assert local_cohomology_dim(I, 2, (0,) * 6, GF2) == 1
    assert local_cohomology_dim(I, 2, (0,) * 6, QQ) == 0


def test_local_cohomology_validation():
    with pytest.raises(ValueError):
        local_cohomology_dim(MonomialIdeal.unit(2), 0, (0, 0))
    with pytest.raises(ValueError):
        local_cohomology_dim(triangle_ideal(), 5, (0, 0, 0))


@pytest.mark.parametrize("length", [4, 6])
def test_local_cohomology_rejects_a_degree_of_the_wrong_length(length):
    with pytest.raises(ValueError, match="length"):
        local_cohomology_dim(stanley_reisner(cycle_complex(5)), 1, (0,) * length)


# -- depth scans -----------------------------------------------------------------------

def test_triangle_ideal_depth():
    report = depth_via_takayama(triangle_ideal(), QQ)
    assert (report.depth, report.dim, report.is_cm) == (1, 1, True)


def test_pentagon_square_cm():
    report = square_depth_report(cycle_complex(5), QQ)
    assert (report.depth, report.dim, report.is_cm) == (2, 2, True)
    assert report.scan_size == 152


def test_rp2_symbolic_square_depth_two_not_cm():
    for field in (QQ, GF2):
        report = symbolic_square_depth_report(rp2(), field)
        assert report.depth == 2 and report.dim == 3 and not report.is_cm
        assert report.witness is not None and report.witness.i == 2


def test_zero_ring_rejected():
    with pytest.raises(ValueError):
        depth_via_takayama(MonomialIdeal.unit(3), QQ)


def test_zero_ideal_is_cm():
    report = depth_via_takayama(MonomialIdeal.zero(3), QQ)
    assert report.is_cm and report.dim == 3


def test_maximal_ideal_dimension_zero():
    m = MonomialIdeal.squarefree_from_supports(3, [(1,), (2,), (3,)])
    report = depth_via_takayama(m, QQ)
    assert (report.depth, report.dim, report.is_cm) == (0, 0, True)


def test_takayama_cm_agrees_with_reisner():
    for d in named_battery():
        I = stanley_reisner(d)
        for field in (QQ, GF2):
            assert depth_via_takayama(I, field).is_cm == bool(is_cohen_macaulay(d, field))


def test_depth_witness_deterministic():
    a = symbolic_square_depth_report(rp2(), GF2)
    b = symbolic_square_depth_report(rp2(), GF2)
    assert a == b


# -- the facet-form symbolic scan against the generator-form oracle ------------------

def oracle_battery():
    pentagon = cycle_complex(5)
    rng = random.Random(67)
    battery = [
        rp2(),
        conjecture_complex(2),
        SimplicialComplex(6, tuple(f | 1 << 5 for f in pentagon.facets)),  # cone over C5
        SimplicialComplex(6, pentagon.facets),  # vertex 6 in no face
        simplex_complex(3),
    ]
    for n in range(3, 8):
        battery.extend(random_pure_complex(rng, n) for _ in range(4))
        battery.extend(random_complex(rng, n) for _ in range(2))
    return battery


def test_symbolic_square_report_matches_generator_form():
    # witness and scan_size included: the two forms scan the same points in
    # the same order (a join, here the pentagon with an unused vertex, keeps
    # its witnesses in its factors)
    for d in oracle_battery():
        expected = generator_form_symbolic_square_reports(d, (QQ, GF2))
        for field in (QQ, GF2):
            assert_whole_ring_report(d, symbolic_square_depth_report(d, field), expected[field],
                                     generator_form_symbolic_square_reports)


def test_symbolic_square_budget_refusal_matches_generator_form():
    for d in oracle_battery():
        size = symbolic_square_depth_report(d, GF2).scan_size
        with pytest.raises(BudgetExceeded) as facet_form:
            symbolic_square_depth_report(d, QQ, budget=size - 1)
        with pytest.raises(BudgetExceeded) as generator_form:
            depth_via_takayama(symbolic_power(d, 2), QQ, budget=size - 1)
        assert facet_form.value.required == generator_form.value.required == size


def test_facet_form_scan_matches_generator_form_for_other_powers():
    rng = random.Random(71)
    for _ in range(12):
        d = random_complex(rng, rng.randint(3, 6))
        for ell in (1, 3):
            expected = depth_via_takayama(symbolic_power(d, ell), GF2)
            assert _symbolic_depth_reports(d, ell, (GF2,), DEFAULT_BUDGET)[GF2] == expected


def star_walk(d, ell):
    """The facet-form walk of d's ell-th symbolic power, as a list."""
    return list(_facet_walk(ell, d.face_index, _symbolic_rho(d, ell), lambda: d.n + 2))


def star_walk_cases():
    """One complex per relabeling class of criterion 8's exhaustive pool, the
    paper's named complexes, a simplex and {empty set} on 3 vertices."""
    return (list(relabeling_classes()) + [d for _, d in paper_examples()]
            + [simplex_complex(3), SimplicialComplex(3, (0,))])


def test_star_walk_yields_the_oracle_points_that_are_neither_void_nor_a_cone():
    # the per-point oracle selects every point of the scan space, void ones
    # included; the walk must yield exactly its non-void non-cone points, in
    # scan order with equal keys.  The per-point oracle is cut at 50,000
    # points for time, which leaves out only disjoint_pentagons(2) at
    # ell = 3 (613,089 points)
    skipped = void = cones = 0
    for d in star_walk_cases():
        for ell in (1, 2, 3):
            if _scan_size(d.face_masks, _symbolic_rho(d, ell)) > 50_000:
                skipped += 1
                continue
            expected, cone = [], {}
            for g, a, key in facet_form_points(d, ell):
                if not key:
                    void += 1
                    continue
                if key not in cone:
                    cone[key] = is_cone_bitset(d, key)
                if cone[key]:
                    cones += 1
                else:
                    expected.append((g, a, key))
            assert star_walk(d, ell) == expected
    assert skipped == 1 and void > 0 and cones > 0


# the claw, facets {1,3}, {2,3}, {3,4}: its square differs from its symbolic
# square, and S/I^2 has depth 1 with its witness at the vertex 3, which is no
# facet, in homology degree -1, so the generator form walks the last layer
# in full
CLAW = new_complex(4, [(1, 3), (2, 3), (3, 4)])


@pytest.mark.parametrize("field", [QQ, GF2], ids=["Q", "F2"])
def test_claw_square_has_depth_one_at_the_empty_link_of_a_vertex(field):
    assert not symbolic2_equals_square(stanley_reisner(CLAW)).equal
    square = square_depth_report(CLAW, field)
    assert (square.depth, square.dim, square.is_cm) == (1, 2, False)
    assert square.witness == takayama.CohomologyWitness(1, (1, 1, -1, 1), -1, 1)
    symbolic = symbolic_square_depth_report(CLAW, field)
    assert (symbolic.depth, symbolic.dim, symbolic.is_cm, symbolic.witness) == (2, 2, True, None)


@given(coned_complexes_with_unused_vertices(), st.sampled_from((1, 2)))
@example(CLAW, 2)  # the vertex 3 is no facet and its link is no cone
@example(SimplicialComplex(3, (0,)), 1)
@settings(max_examples=150, deadline=None)
def test_a_bounded_star_walk_stops_and_leaves_out_the_last_layer_off_the_facets(delta, ell):
    # under every bound b the walk yields the unbounded walk's points, less
    # those at a face G with |G| >= b - 1 that is no facet (Delta_a is
    # {empty face} only at a facet) and those with |G| >= b (the stop)
    index, rho = delta.face_index, _symbolic_rho(delta, ell)
    walked = list(_facet_walk(ell, index, rho, lambda: delta.n + 2))
    facets = set(delta.facets)
    for b in range(delta.dim + 3):
        kept = [point for point in walked
                if point[0].bit_count() < b - 1 or point[0] in facets and point[0].bit_count() < b]
        assert list(_facet_walk(ell, index, rho, lambda: b)) == kept


def test_star_walk_skips_a_cone_point_but_not_its_neighbour():
    # two disjoint edges, ell = 2, G empty: at a = e1 both edges are live and
    # Delta_a is the whole complex, disconnected; at a = e1 + e2 the edge
    # {3, 4} has outside sum 2 and drops out, leaving the cone {1, 2}
    d = SimplicialComplex(4, (pack((1, 2)), pack((3, 4))))
    points = {a: key for g, a, key in star_walk(d, 2) if g == 0}
    assert points[(1, 0, 0, 0)] == bitset_of(d.sorted_faces(), d)
    assert (1, 1, 0, 0) not in points
    select = facet_selection(d.facets, 2, d.sorted_faces(), d.n)
    cone = select(0, (1, 1, 0, 0))
    assert is_cone_bitset(d, cone)
    assert cone == bitset_of(d.sorted_faces(), SimplicialComplex(4, (pack((1, 2)),)))


def link_record_cases():
    """The paper's named complexes, the cone bases and, seeded, random
    complexes with unused vertices."""
    rng = random.Random(34)
    return ([d for _, d in paper_examples()] + cone_bases()
            + [random_complex_with_unused_vertices(rng, pure) for pure in (True, False) * 15])


def test_star_walk_roots_each_face_at_its_link_records_key():
    # lk G is Delta_a at a = 0 off G: the walk yields that root exactly at the
    # faces whose link is not a cone, keyed by the record's interned int
    for d in link_record_cases():
        index = d.face_index
        position = {g: p for p, g in enumerate(index.faces)}
        for ell in (1, 2, 3):
            roots = [(g, key) for g, a, key in star_walk(d, ell)
                     if all(e == (-1 if g >> j & 1 else 0) for j, e in enumerate(a))]
            assert [g for g, _ in roots] == [g for p, g in enumerate(index.faces)
                                             if index.link(p).key], (d, ell)
            for g, key in roots:
                assert key is index.link(position[g]).key, (d, ell, g)


def test_star_walk_lists_the_star_of_no_face_whose_link_is_a_cone(monkeypatch):
    # with every record built, the walk reads a face's star only past a
    # nonzero link key
    starred = []
    star = FaceIndex.star

    def listed(index, g):
        starred.append(g)
        return star(index, g)

    for d in link_record_cases():
        index = d.face_index
        for p in range(len(index.faces)):
            index.link(p)
        with monkeypatch.context() as m:
            m.setattr(FaceIndex, "star", listed)
            for ell in (1, 2):
                starred.clear()
                star_walk(d, ell)
                assert starred == [g for p, g in enumerate(index.faces)
                                   if index.link(p).key], (d, ell)


def test_symbolic_rho_closed_form():
    for d in oracle_battery():
        for ell in (1, 2, 3) if d.n <= 6 else (1, 2):
            assert _symbolic_rho(d, ell) == symbolic_power(d, ell).rho()


def test_symbolic_square_scan_builds_no_ideal(monkeypatch):
    def refuse(*args):
        raise AssertionError("the facet-form scan must not build I^(2)")

    monkeypatch.setattr(MonomialIdeal, "intersect", refuse)
    monkeypatch.setattr(MonomialIdeal, "rho", refuse)
    report = symbolic_square_depth_report(rp2(), GF2)
    assert (report.depth, report.dim) == (2, 3)


def test_symbolic_square_of_void_complex_rejected():
    with pytest.raises(ValueError):
        symbolic_square_depth_report(void_complex(3), QQ)


# -- one scan per ideal serves the field battery ----------------------------------------

F3 = FieldSpec(3)
BATTERY = (QQ, GF2, F3)

# form name -> (battery scan, single-field view)
FORMS = {
    "generator": (
        lambda d, fields, budget=DEFAULT_BUDGET: depth_reports(stanley_reisner(d), fields, budget),
        lambda d, field, budget=DEFAULT_BUDGET: depth_via_takayama(stanley_reisner(d), field, budget),
    ),
    "square": (square_depth_reports, square_depth_report),
    "symbolic square": (symbolic_square_depth_reports, symbolic_square_depth_report),
}


def battery_scan_cases():
    pentagon = cycle_complex(5)
    rng = random.Random(83)
    cases = [
        rp2(),
        cross_polytope_stellar(3),
        SimplicialComplex(6, tuple(f | 1 << 5 for f in pentagon.facets)),  # cone over C5
        simplex_complex(4),
        irrelevant_complex(),
        SimplicialComplex(3, (0,)),  # the irrelevant complex on three ambient vertices
    ]
    for n in range(3, 8):
        cases.append(random_pure_complex(rng, n))
        cases.append(random_complex(rng, n))
    return cases


def outcome(scan, *args):
    """The reports of a scan, or the type and text of the error it raised."""
    try:
        return scan(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("form", sorted(FORMS))
def test_battery_reports_equal_single_field_reports(form):
    battery_scan, single = FORMS[form]
    for d in battery_scan_cases():
        reports = outcome(battery_scan, d, BATTERY)
        if isinstance(reports, tuple):  # rejected input: every field view rejects it alike
            assert all(outcome(single, d, f) == reports for f in BATTERY)
            continue
        assert list(reports) == list(BATTERY)
        for f in BATTERY:
            assert reports[f] == single(d, f)
        assert battery_scan(d, (GF2, QQ)) == battery_scan(d, (QQ, GF2)) == {
            QQ: reports[QQ], GF2: reports[GF2]
        }


def test_symbolic_square_battery_matches_generator_form_oracle():
    for d in battery_scan_cases():
        if d.n < 1:
            continue
        reports = symbolic_square_depth_reports(d, BATTERY)
        expected = generator_form_symbolic_square_reports(d, BATTERY)
        for f in BATTERY:
            assert_whole_ring_report(d, reports[f], expected[f],
                                     generator_form_symbolic_square_reports)


@pytest.mark.parametrize("form", sorted(FORMS))
def test_battery_over_budget_raises_once_before_any_rank(form, monkeypatch):
    battery_scan, single = FORMS[form]
    d = disjoint_pentagons(2)
    with pytest.raises(BudgetExceeded) as single_err:
        single(d, QQ, 0)
    budget = single_err.value.required - 1

    def refuse(*args, **cut):
        raise AssertionError("an over-budget scan must not compute homology")

    monkeypatch.setattr(homology, "profile_from_faces", refuse)
    with pytest.raises(BudgetExceeded) as battery_err:
        battery_scan(d, BATTERY, budget)
    assert battery_err.value.required == single_err.value.required
    if form == "square":
        assert battery_err.value.required == 23104


# -- the square in facet form when I^2 = I^(2), against the generator form -------------

@functools.cache
def square_oracle_cases():
    """Criterion 8's pool and the edge cases of the facet-form dispatch.

    The pool is cut for time (its generator-form scans over three fields
    alone take about a minute on a 2-vCPU host): the exhaustive n <= 5 part to one complex per
    relabeling class (77 of 1817), and the 200 seeded n = 6, 7 complexes to
    the 6 with I^2 = I^(2) and the first four, which scan the generator form
    on both routes like the rest.
    """
    rng = random.Random(0)
    randoms = [random_pure_complex(rng, 6 + i % 2) for i in range(200)]
    pentagon = cycle_complex(5)
    cases = list(relabeling_classes())
    cases += [d for d in randoms if symbolic2_equals_square(stanley_reisner(d)).equal]
    cases += randoms[:4]
    cases += [
        simplex_complex(3),  # the zero ideal
        SimplicialComplex(3, (0,)),  # only the empty face: the maximal ideal
        SimplicialComplex(6, pentagon.facets),  # vertex 6 in no face
        SimplicialComplex(6, tuple(f | 1 << 5 for f in pentagon.facets)),  # cone over C5
        cross_polytope_stellar(2),
        phantom_pentagon(2),
        four_path(),
    ]
    rng = random.Random(97)
    cases += [random_complex(rng, n) for n in range(3, 8) for _ in range(4)]
    return tuple(cases)


def test_square_reports_match_generator_form_oracle():
    cases = square_oracle_cases()
    equal = [symbolic2_equals_square(stanley_reisner(d)).equal for d in cases]
    assert any(equal) and not all(equal)
    assert any(not d.is_pure() for d in cases)
    assert any(d.cone_vertices() for d in cases) and any(d.support != (1 << d.n) - 1 for d in cases)
    for d in cases:
        expected = generator_form_square_reports(d, BATTERY)
        reports = square_depth_reports(d, BATTERY)
        assert list(reports) == list(BATTERY)
        for f in BATTERY:
            assert_whole_ring_report(d, reports[f], expected[f], generator_form_square_reports)
            assert square_depth_report(d, f) == reports[f]


def test_square_budget_refusal_matches_generator_form():
    for d in square_oracle_cases():
        with pytest.raises(BudgetExceeded) as sized:
            generator_form_square_reports(d, BATTERY, 0)
        budget = sized.value.required - 1
        refusals = []
        for scan in (generator_form_square_reports, square_depth_reports):
            with pytest.raises(BudgetExceeded) as err:
                scan(d, BATTERY, budget)
            refusals.append(err.value.required)
        with pytest.raises(BudgetExceeded) as err:
            square_depth_report(d, QQ, budget)
        refusals.append(err.value.required)
        assert refusals == [budget + 1] * 3


# -- square / symbolic square verdicts ----------------------------------------------------

def cm_square(delta, fields=(QQ, GF2), budget=DEFAULT_BUDGET):
    return {f: r.is_cm for f, r in square_depth_reports(delta, fields, budget).items()}


def test_worked_example_verdicts():
    for field in (QQ, GF2):
        assert symbolic_square_depth_report(phantom_pentagon(2), field).is_cm
    assert cm_square(phantom_pentagon(2)) == {QQ: False, GF2: False}
    assert cm_square(cross_polytope_stellar(2)) == {QQ: True, GF2: True}
    assert cm_square(four_path()) == {QQ: False, GF2: False}


def test_monotone_consistency():
    # CM square forces CM symbolic square and the power equality
    from srsq import symbolic2_equals_square

    for d in named_battery():
        for field, cm in cm_square(d).items():
            if cm:
                assert symbolic_square_depth_report(d, field).is_cm
                I = stanley_reisner(d)
                assert symbolic2_equals_square(I).equal


def test_budget_guard_refuses_a_join_by_its_whole_ring(monkeypatch):
    d = disjoint_pentagons(2)
    with pytest.raises(BudgetExceeded) as err:
        square_depth_report(d, QQ, budget=1000)
    assert err.value.required == 23104
    # a join is answered from its factors, but the budget still counts the
    # whole ring: 23104 points, not the pentagons' 11 + 152 each
    assert cm_square(d, budget=23104) == {QQ: True, GF2: True}

    def refuse(self):
        raise AssertionError("the budget is checked before the minimal non-faces are listed")

    monkeypatch.setattr(SimplicialComplex, "minimal_nonfaces", refuse)
    for scan in (square_depth_reports, symbolic_square_depth_reports):
        with pytest.raises(BudgetExceeded) as err:
            scan(d, (QQ, GF2), 23103)
        assert err.value.required == 23104
        with pytest.raises(BudgetExceeded):
            scan(rp2(), (QQ, GF2), 10)


def test_join_route_scans_each_factor_twice_and_never_the_whole_join(scans):
    # S/I and the power of each pentagon, on 5 vertices; never the 10-vertex join
    assert cm_square(disjoint_pentagons(2)) == {QQ: True, GF2: True}
    assert sorted(d.n for d in scans) == [5, 5, 5, 5]
    scans.clear()
    assert {f: r.is_cm for f, r in symbolic_square_depth_reports(
        disjoint_pentagons(2), (QQ, GF2)).items()} == {QQ: True, GF2: True}
    assert sorted(d.n for d in scans) == [5, 5, 5, 5]
    # the cone block is never scanned; an unused vertex is a factor of its own
    scans.clear()
    j = SimplicialComplex(11, four_path().join(cycle_complex(5)).cone().facets)  # apex 10
    reports = square_depth_reports(j, (QQ, GF2))
    assert [v for v, _, _ in reports[QQ].factors] == [(1, 2, 3, 4), (5, 6, 7, 8, 9), (11,)]
    assert sorted(d.n for d in scans) == [1, 1, 4, 4, 5, 5]
    assert cm_square(j) == {QQ: False, GF2: False}


def whole_symbolic_square_scan(delta, fields, budget=DEFAULT_BUDGET):
    return _symbolic_depth_reports(delta, 2, fields, budget)


def test_join_rule_matches_direct_scan_on_random_joins():
    """The join route against the whole-join scans, the generator form for
    I^2 and the facet form for I^(2), over Q, F2 and F3: equal depth, dim,
    verdict, scan size and budget refusal."""
    cases = join_oracle_cases()
    factor_counts = set()
    seen = set()
    for route, oracle in ((square_depth_reports, generator_form_square_reports),
                          (symbolic_square_depth_reports, whole_symbolic_square_scan)):
        for j in cases:
            reports, whole = route(j, BATTERY), oracle(j, BATTERY)
            factor_counts.add(len(reports[QQ].factors))
            for f in BATTERY:
                assert_whole_ring_report(j, reports[f], whole[f], oracle)
                seen.add(reports[f].is_cm)
            refusals = []
            for scan in (route, oracle):
                with pytest.raises(BudgetExceeded) as err:
                    scan(j, BATTERY, whole[QQ].scan_size - 1)
                refusals.append(err.value.required)
            assert refusals == [whole[QQ].scan_size] * 2
    assert {0, 2, 3} <= factor_counts
    assert any(not j.is_pure() for j in cases)
    assert any(j.cone_vertices() for j in cases)
    assert any(j.support != (1 << j.n) - 1 for j in cases)
    assert seen == {True, False}
    # the fold reads each field's own factor depths: S/I of rp2 is CM over Q only
    rp2_join = symbolic_square_depth_reports(rp2().join(SimplicialComplex(2, (1, 2))), BATTERY)
    assert [rp2_join[f].factors[0][1].is_cm for f in BATTERY] == [True, False, True]


# -- the stop and the degree cut against the unbounded scan ------------------------

# rp2 joined with an edge and a point: its S/I has depth 3 over F2 (at
# G_a = {}) and 4 over Q, whose witness sits at |G_a| = 1 in homology degree
# 2; a bound taken at the smallest depth of the battery would cut it away
UNEQUAL_DEPTHS = rp2().join(new_complex(3, [(1, 2), (3,)]))


def bounded_scan_cases():
    """The named battery, one complex per criterion-8 relabeling class, the
    first 40 explore complexes, and a battery whose fields differ in depth."""
    return ([d for _, d in paper_examples()] + list(relabeling_classes())
            + explore_complexes(0, 40, 6) + [UNEQUAL_DEPTHS])


def bounded_scans(d):
    """Each report the bound serves on d, as a function of the battery:
    S/I and S/I^(2) in facet form, the square by its dispatch, and I^2 and
    (for n <= 5, for time) I^3 in generator form."""
    ideal = stanley_reisner(d)
    scans = [lambda fields, l=l: _symbolic_depth_reports(d, l, fields, DEFAULT_BUDGET)
             for l in (1, 2)]
    scans += [functools.partial(square_depth_reports, d),
              functools.partial(depth_reports, ideal.power(2))]
    if d.n <= 5:
        scans.append(functools.partial(depth_reports, ideal.power(3)))
    return scans


def check_each_bounded_scan(monkeypatch):
    """Replace takayama._scan_reports by the bounded scan with its walk and
    its evaluations logged, each point with the running bound it was drawn
    under, and check each scan against its own reports, with B the largest
    depth over its battery: the bound never rises, never falls below B, and
    is B once the scan returns; each evaluation is of the point just drawn,
    at |G_a| <= B, cut at bound - |G_a| - 1, and that cut is at least 1, so
    no point with |G_a| >= bound - 1 is evaluated; the walk stops at the
    first point with |G_a| >= bound; and the facet form starts no face with
    |G| >= bound - 1 that is no facet."""
    scan_reports, profile = takayama._scan_reports, homology.profile_from_faces
    events = []

    def evaluated(delta, key, fields, *, below):
        events.append(("eval", below))
        return profile(delta, key, fields, below=below)

    def checked(delta, rho, fields, budget, walk, memo=None):
        running = []

        def drawn(index, rho, bound):
            running.append(bound)
            for point in walk(index, rho, bound):
                events.append(("point", point[0], bound()))
                yield point

        events.clear()
        reports = scan_reports(delta, rho, fields, budget, drawn, memo)
        top = max(r.depth for r in reports.values())
        assert [bound() for bound in running] == [top]
        facet_form = getattr(walk, "func", None) is takayama._facet_walk
        bounds, started, facets = [], set(), set(delta.facets)
        for t, (kind, *logged) in enumerate(events):
            if kind == "eval":
                assert g <= top and logged[0] == bound - g - 1 >= 1
                continue
            g_mask, bound = logged
            g = g_mask.bit_count()
            bounds.append(bound)
            assert g < bound or t == len(events) - 1
            if facet_form and g_mask not in started:
                started.add(g_mask)
                assert g_mask in facets or g < bound - 1
        assert bounds == sorted(bounds, reverse=True) and min(bounds, default=top) >= top
        return reports

    monkeypatch.setattr(homology, "profile_from_faces", evaluated)
    monkeypatch.setattr(takayama, "_scan_reports", checked)


def test_bounded_scans_match_the_unbounded_scan(monkeypatch):
    cases = bounded_scan_cases()
    unbounded = []
    with monkeypatch.context() as m:
        m.setattr(takayama, "_scan_reports", unbounded_scan_reports)
        for d in cases:
            unbounded.append([scan(BATTERY) for scan in bounded_scans(d)])
    depths = unbounded[-1][0]
    assert (depths[QQ].depth, depths[GF2].depth) == (4, 3)
    assert depths[QQ].witness.homology_degree == 2
    check_each_bounded_scan(monkeypatch)
    for d, expected in zip(cases, unbounded):
        for scan, full in zip(bounded_scans(d), expected):
            for battery in (BATTERY, (GF2, QQ), (QQ,), (GF2,), (F3,)):
                reports = scan(battery)
                assert list(reports) == list(battery)
                assert reports == {f: full[f] for f in battery}


def test_hypersurface_with_unused_variable():
    # I = (x1 x2) in 3 variables: Delta(I) has a cone vertex 3 and rho_3 = 0,
    # so the scan must force the unused variable into the negative support
    I = MonomialIdeal.squarefree_from_supports(3, [(1, 2)])
    report = depth_via_takayama(I, QQ)
    assert (report.depth, report.dim, report.is_cm) == (2, 2, True)


def test_depth_scan_on_nonpure_complex():
    # a point joined to an edge: not pure, dim ring 2, depth 1 (not CM)
    d = complex_of_ideal(MonomialIdeal.squarefree_from_supports(3, [(1, 2), (1, 3)]))
    I = stanley_reisner(d)
    report = depth_via_takayama(I, QQ)
    assert report.dim == 2 and not report.is_cm
    assert bool(is_cohen_macaulay(d, QQ)) == report.is_cm


def test_delta_a_of_deep_degree_is_void():
    # a beyond every generator exponent leaves no admissible face
    I = MonomialIdeal.squarefree_from_supports(2, [(1, 2)])
    d = delta_a(I, (1, 1))
    assert d.is_void()
    from srsq import reduced_homology

    assert reduced_homology(d, QQ).as_mapping() == {}
