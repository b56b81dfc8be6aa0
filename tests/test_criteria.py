import functools
import json
import math
import random
from dataclasses import replace

import pytest

from srsq import (
    GF2,
    QQ,
    AuditReport,
    BudgetExceeded,
    Depth2Result,
    DepthReport,
    FieldSpec,
    Graph,
    MonomialIdeal,
    SimplicialComplex,
    Sym2Result,
    complex_of_ideal,
    condition3_check,
    cross_polytope,
    cycle_complex,
    depth2_criterion,
    disjoint_pentagons,
    edge_ideal,
    four_path,
    complete_graph,
    is_cohen_macaulay,
    is_gorenstein,
    is_locally_gorenstein,
    new_complex,
    paper_audit,
    path_complex,
    phantom_pentagon,
    random_pure_complex,
    rp2,
    S2Result,
    s2_criterion,
    simplex_complex,
    stanley_reisner,
    symbolic2_equals_square,
    symbolic_power,
    symbolic_square_depth_report,
    symbolic_square_depth_reports,
    void_complex,
)
from srsq import cli, criteria, homology, jsonio, reproduce, takayama
from srsq.bits import pack, unpack
from srsq.criteria import _audit_violations, explore_complexes
from srsq.complexes import FaceIndex
from srsq.homology import GorensteinReport, HomologyMemo
from srsq.reproduce import iter_pure_complexes, named_battery

from helpers import (
    assert_whole_ring_report,
    brute_nonfaces,
    condition3_over_all_nonfaces,
    cone_bases,
    floyd_warshall_diameter,
    generator_form_square_reports,
    join_oracle_cases,
    random_complex_with_unused_vertices,
    relabeling_classes,
)


def three_points():
    return complex_of_ideal(edge_ideal(complete_graph(3)))


# -- diameter criterion ------------------------------------------------------------

def test_depth2_criterion():
    assert depth2_criterion(rp2()) == depth2_criterion(rp2())
    assert depth2_criterion(rp2()).holds and depth2_criterion(rp2()).diameter == 1
    assert depth2_criterion(phantom_pentagon(2)).holds
    assert depth2_criterion(phantom_pentagon(4)).holds
    r = depth2_criterion(path_complex(6))
    assert not r.holds and r.diameter == 5
    with pytest.raises(ValueError):
        depth2_criterion(three_points())  # dim 0


# -- (S2) criterion -----------------------------------------------------------------

def test_s2_criterion():
    assert s2_criterion(rp2()).holds
    assert s2_criterion(cycle_complex(5)).holds
    r = s2_criterion(path_complex(6))
    assert not r.holds and r.witness_face == ()
    with pytest.raises(ValueError):
        s2_criterion(new_complex(3, [(1, 2), (3,)]))  # not pure


def first_wide_link(delta):
    """(face, diameter) of the first face in sorted_faces() order whose
    re-indexed link has dimension >= 1 and a 1-skeleton of diameter > 2,
    by Floyd-Warshall; None when there is none."""
    for f in delta.sorted_faces():
        link = delta.link(unpack(f))
        if link.dim >= 1 and (diameter := floyd_warshall_diameter(link.one_skeleton())) > 2:
            return unpack(f), diameter
    return None


def test_diameter_criteria_match_the_reindexed_link_route():
    rng = random.Random(41)
    cone_over_path = simplex_complex(1).join(path_complex(5))  # apex 1 over 2-3-4-5-6
    two_edges = new_complex(4, [(1, 2), (3, 4)])
    pool = ([d for _, d in named_battery()]
            + [random_complex_with_unused_vertices(rng, pure=True) for _ in range(30)]
            + [simplex_complex(1).join(b) for b in cone_bases()] + [cone_over_path, two_edges])
    s2_verdicts = set()
    for delta in pool:
        if delta.is_pure():
            bad = first_wide_link(delta)
            assert s2_criterion(delta) == S2Result(bad is None, *(bad or ()))
            s2_verdicts.add(bad is None)
        if delta.dim >= 1:
            diameter = floyd_warshall_diameter(delta.link(()).one_skeleton())
            assert depth2_criterion(delta) == Depth2Result(diameter <= 2, diameter)
    assert s2_verdicts == {True, False}
    assert s2_criterion(cone_over_path) == S2Result(False, (1,), 4)
    assert depth2_criterion(cone_over_path) == Depth2Result(True, 2)
    assert jsonio.s2_to_dict(s2_criterion(two_edges)) == {
        "holds": False, "witness_face": [], "witness_diameter": "infinity"}
    assert depth2_criterion(two_edges) == Depth2Result(False, math.inf)


def test_linkwise_criteria_build_no_link_complex_or_graph(monkeypatch):
    plane, sphere = rp2(), cross_polytope(4)

    def refuse(*args):
        raise AssertionError("the linkwise criteria read the links off Delta's own facets")

    for owner, name in ((SimplicialComplex, "__post_init__"),
                        (SimplicialComplex, "link_with_map"), (Graph, "__post_init__")):
        monkeypatch.setattr(owner, name, refuse)
    for delta in (plane, sphere):
        assert s2_criterion(delta).holds and depth2_criterion(delta).holds
        assert is_locally_gorenstein(delta, QQ)
    assert is_cohen_macaulay(plane, QQ) and not is_cohen_macaulay(plane, GF2)
    assert not is_gorenstein(plane, QQ) and is_gorenstein(sphere, GF2)


# -- the non-face triple condition -----------------------------------------------------

def brute_condition3(delta):
    """Direct triple loop, the independent oracle (tiny n only)."""
    nf = brute_nonfaces(delta)
    if not nf:
        return True
    for f1 in nf:
        for f2 in nf:
            for f3 in nf:
                u, w = f1 | f2 | f3, f1 & f2 & f3
                if not any(
                    g1 & ~u == 0 and g2 & ~u == 0 and (g1 & g2) & ~w == 0
                    for g1 in nf
                    for g2 in nf
                ):
                    return False
    return True


def test_condition3_triangle_fails():
    r = condition3_check(three_points())
    assert not r.holds
    assert r.witness is not None and len(r.witness) == 3


def test_condition3_pentagon_and_simplex():
    assert condition3_check(cycle_complex(5)).holds
    assert condition3_check(simplex_complex(4)).holds  # vacuous: no non-faces


def test_condition3_bound():
    from srsq import disjoint_pentagons

    with pytest.raises(ValueError):
        condition3_check(disjoint_pentagons(2))  # n = 10 over the default bound


def test_condition3_against_direct_loop():
    rng = random.Random(67)
    for _ in range(25):
        n = rng.randint(3, 4)
        d = random_pure_complex(rng, n)
        assert condition3_check(d).holds == brute_condition3(d)
    assert condition3_check(three_points()).holds == brute_condition3(three_points())


@pytest.mark.parametrize("pool", ["named", "explore", "exhaustive", "simplex_skeletons",
                                  "unused_vertices"])
def test_condition3_witness_matches_the_all_subsets_oracle(pool):
    """Verdict and witness equal the 2^n oracle's, and a witness triple
    consists of minimal non-faces."""
    complexes = {
        "named": lambda: [d for _, d in named_battery() if d.n <= criteria.CONDITION3_MAX_VERTICES],
        "explore": lambda: explore_complexes(0, 100, 6),
        "exhaustive": lambda: list(iter_pure_complexes()),
        # n = 9 at the cap, with up to 126 minimal non-faces
        "simplex_skeletons": lambda: [simplex_complex(9).skeleton(k) for k in range(5)],
        # pure and non-pure, with vertices in no face, and the void complex
        "unused_vertices": lambda: [random_complex_with_unused_vertices(random.Random(i), i % 2)
                                    for i in range(100)] + [void_complex(3)],
    }[pool]()
    for delta in complexes:
        result = condition3_check(delta)
        assert result == condition3_over_all_nonfaces(delta)
        assert result.holds or all(pack(f) in delta.minimal_nonfaces() for f in result.witness)


def test_condition3_lists_no_subsets(monkeypatch):
    names = ("rp2", "conjecture_2", "cross_polytope_stellar_3")
    expected = {name: condition3_over_all_nonfaces(d)
                for name, d in named_battery() if name in names}

    def refuse(self):
        raise AssertionError("condition3_check reads only the minimal non-faces")

    monkeypatch.setattr(SimplicialComplex, "face_masks", property(refuse))
    for name, delta in named_battery():  # fresh complexes: no face list cached
        if name in names:
            assert condition3_check(delta) == expected[name]
    assert not expected["rp2"].holds and expected["conjecture_2"].holds


def test_condition3_equivalent_to_power_equality():
    rng = random.Random(71)
    for _ in range(60):
        n = rng.randint(3, 7)
        d = random_pure_complex(rng, n)
        I = stanley_reisner(d)
        eq = I.power(2) == symbolic_power(d, 2)
        assert condition3_check(d).holds == eq
        assert symbolic2_equals_square(I).equal == eq


# -- diameter vs symbolic-square depth ----------------------------------------------------

def test_depth2_equivalence_random():
    rng = random.Random(73)
    for _ in range(30):
        n = rng.randint(3, 7)
        d = random_pure_complex(rng, n)
        deep = symbolic_square_depth_report(d, GF2).depth >= 2
        assert depth2_criterion(d).holds == deep


def with_unused_vertex(d):
    """d on one more vertex, which lies in no face."""
    return SimplicialComplex(d.n + 1, d.facets)


def test_depth2_criterion_ignores_unused_vertices():
    # the scan is the oracle; an unused vertex is no isolated vertex
    rng = random.Random(79)
    pool = [new_complex(2, [(1, 2)]), cycle_complex(3)]
    pool += [random_pure_complex(rng, rng.randint(3, 6)) for _ in range(40)]
    verdicts = set()
    for d in pool:
        padded = with_unused_vertex(d)
        deep = symbolic_square_depth_reports(padded, (GF2,))[GF2].depth >= 2
        result = depth2_criterion(padded)
        assert result.holds == deep
        assert result == depth2_criterion(d)
        verdicts.add(deep)
    assert verdicts == {True, False}
    for d in pool[:2]:
        assert paper_audit(with_unused_vertex(d)).violations == ()


# -- audits -----------------------------------------------------------------------------

def test_pentagon_audit():
    report = paper_audit(cycle_complex(5))
    assert report.violations == ()
    assert report.cm_square_battery
    assert report.sym2.equal
    assert report.condition3 is not None and report.condition3.holds
    assert report.s2 is not None and report.s2.holds
    assert all(r.is_gorenstein for r in report.gorenstein.values())


def test_rp2_audit_matches_expected_shape():
    report = paper_audit(rp2())
    assert report.violations == ()
    assert report.s2.holds
    assert not report.sym2.equal
    assert not report.condition3.holds
    assert not report.cm_square_battery
    assert not any(r.is_gorenstein for r in report.gorenstein.values())
    assert {f.name: r.is_cm for f, r in report.cm_symbolic_square.items()} == {
        "Q": False,
        "F2": False,
    }


def test_four_path_audit():
    report = paper_audit(four_path())
    assert report.violations == ()
    assert not report.cm_square_battery
    assert not any(r.is_gorenstein for r in report.gorenstein.values())


def test_nonpure_audit_skips_s2():
    d = new_complex(3, [(1, 2), (3,)])
    report = paper_audit(d)
    assert report.s2 is None
    assert report.violations == ()


def hand_audit(square_depths, symbolic_depths, gorenstein):
    """An audit over the battery of the given per-field dicts, none CM, so
    only the comparisons between fields can fire."""
    fields = tuple(square_depths)

    def depth_reports(depths):
        return {f: DepthReport(f, depths[f], 3, False, None, 0) for f in fields}

    return AuditReport(
        delta=rp2(),
        fields=fields,
        dim_ring=3,
        pure=True,
        gorenstein={f: GorensteinReport(gorenstein[f], f, 0, 1) for f in fields},
        locally_gorenstein={},
        depth2=None,
        s2=None,
        sym2=Sym2Result(False, None, None, 0),
        condition3=None,
        cm_square=depth_reports(square_depths),
        cm_symbolic_square=depth_reports(symbolic_depths),
    )


def test_audit_flags_a_deeper_square_over_a_prime_field():
    report = hand_audit({QQ: 1, GF2: 2}, {QQ: 2, GF2: 2}, {QQ: False, GF2: False})
    assert _audit_violations(report) == ("depth S/I^2 is 2 over F2 but 1 over Q",)
    report = hand_audit({QQ: 2, GF2: 2}, {QQ: 1, GF2: 2}, {QQ: False, GF2: False})
    assert _audit_violations(report) == ("depth S/I^(2) is 2 over F2 but 1 over Q",)


def test_audit_flags_gorenstein_over_a_prime_field_only():
    report = hand_audit({QQ: 2, GF2: 2}, {QQ: 2, GF2: 2}, {QQ: False, GF2: True})
    assert _audit_violations(report) == ("Gorenstein over F2 but not over Q",)


def test_field_comparisons_need_q_in_the_battery():
    F3 = FieldSpec(3)
    clean = hand_audit({QQ: 2, GF2: 1}, {QQ: 2, GF2: 1}, {QQ: True, GF2: False})
    assert _audit_violations(clean) == ()
    no_q = hand_audit({GF2: 1, F3: 2}, {GF2: 1, F3: 2}, {GF2: False, F3: True})
    assert _audit_violations(no_q) == ()


# the audit's implications on the pentagon, whose square is CM over Q and F2:
# the srsq.criteria verdict source -> (a change to the verdict it returns,
# the violations the audit then lists)
FORCED_VIOLATIONS = {
    "gorenstein_reports": (
        lambda out: {f: replace(r, is_gorenstein=False) for f, r in out.items()},
        ("CM square over the battery but not Gorenstein",)),
    "s2_criterion": (
        lambda out: replace(out, holds=False),
        ("CM square over the battery but the linkwise diameter criterion fails",)),
    "symbolic2_equals_square": (
        lambda out: replace(out, equal=False),
        ("CM square over the battery but I^2 != I^(2)",
         "over Q: CM(I^2) = True but CM(I^(2)) and I^2 = I^(2) give False",
         "over F2: CM(I^2) = True but CM(I^(2)) and I^2 = I^(2) give False",
         "non-face triple condition disagrees with the special-triangle criterion")),
    "locally_gorenstein_reports": (
        lambda out: {f: replace(r, holds=False) for f, r in out.items()},
        ("CM square over the battery but not locally Gorenstein",)),
    "depth2_criterion": (
        lambda out: replace(out, holds=not out.holds),
        ("over Q: diameter criterion = False but depth S/I^(2) >= 2 is True",
         "over F2: diameter criterion = False but depth S/I^(2) >= 2 is True")),
    "condition3_check": (
        lambda out: replace(out, holds=not out.holds),
        ("non-face triple condition disagrees with the special-triangle criterion",)),
}


def force(monkeypatch, source):
    """Make paper_audit read the verdict of ``source`` changed as
    FORCED_VIOLATIONS says."""
    real, change = getattr(criteria, source), FORCED_VIOLATIONS[source][0]
    monkeypatch.setattr(criteria, source, lambda *args: change(real(*args)))


@pytest.mark.parametrize("source", list(FORCED_VIOLATIONS))
def test_each_implication_of_the_audit_names_its_violation(source, monkeypatch):
    assert paper_audit(cycle_complex(5)).violations == ()
    force(monkeypatch, source)
    assert paper_audit(cycle_complex(5)).violations == FORCED_VIOLATIONS[source][1]


def test_a_violation_exits_4_from_check_audit_and_criterion_9(monkeypatch, capsys, tmp_path):
    force(monkeypatch, "s2_criterion")
    expected = list(FORCED_VIOLATIONS["s2_criterion"][1])
    pentagon = tmp_path / "pentagon.json"
    pentagon.write_text(json.dumps(jsonio.complex_to_dict(cycle_complex(5))))
    assert cli.main(["check", "audit", "--in", str(pentagon)]) == cli.EXIT_VIOLATION
    assert json.loads(capsys.readouterr().out)["violations"] == expected
    monkeypatch.setattr(reproduce, "named_battery", lambda: [("pentagon", cycle_complex(5))])
    monkeypatch.setattr(reproduce, "explore_complexes", lambda seed, count, n_max: [])
    code = cli.main(["reproduce-paper", "--only", "criterion-09", "--format", "json"])
    assert code == cli.EXIT_VIOLATION
    (result,) = json.loads(capsys.readouterr().out)["criteria"]
    assert result["details"]["violations"] == [{"complex": "pentagon", "violations": expected}]


def test_criterion_9_reports_each_complex_with_a_violation(monkeypatch):
    # four_path's square is not CM, so a failing (S2) verdict breaks nothing there
    force(monkeypatch, "s2_criterion")
    monkeypatch.setattr(reproduce, "named_battery",
                        lambda: [("pentagon", cycle_complex(5)), ("four_path", four_path())])
    monkeypatch.setattr(reproduce, "explore_complexes", lambda seed, count, n_max: [])
    result = reproduce.criterion_9_implication_audits()
    assert not result.passed
    assert result.details == {
        "audited": 2,
        "violations": [{"complex": "pentagon",
                        "violations": list(FORCED_VIOLATIONS["s2_criterion"][1])}],
        "checks": {"no_implication_violations": False},
    }


def test_criterion_8_reports_each_complex_that_fails_a_check(monkeypatch):
    # the pentagon's non-face triple verdict, flipped, disagrees with I^2 = I^(2)
    pentagon, real = cycle_complex(5), reproduce.condition3_check
    monkeypatch.setattr(reproduce, "iter_pure_complexes", lambda: iter([pentagon, four_path()]))
    monkeypatch.setattr(reproduce, "random_pure_complex", lambda rng, n: path_complex(3))
    monkeypatch.setattr(reproduce, "condition3_check", lambda delta: replace(
        real(delta), holds=not real(delta).holds) if delta == pentagon else real(delta))
    result = reproduce.criterion_8_oracle_equivalences()
    assert not result.passed
    assert result.details == {
        "exhaustive_complexes": 2,
        "random_complexes": 200,
        "failures": [{"facets": pentagon.facet_tuples(), "failed": ["condition3"]}],
        "checks": {"zero_discrepancies": False},
    }


def test_explore_deterministic_and_clean():
    a = [paper_audit(d) for d in explore_complexes(5, 12, 5)]
    b = [paper_audit(d) for d in explore_complexes(5, 12, 5)]
    assert len(a) == len(b) == 12
    for ra, rb in zip(a, b):
        assert ra.delta == rb.delta
        assert ra.violations == rb.violations == ()


def test_random_pure_complex_properties():
    rng = random.Random(79)
    for _ in range(30):
        n = rng.randint(3, 7)
        d = random_pure_complex(rng, n)
        assert d.is_pure() and d.n == n and d.dim >= 1
        assert d.support == (1 << n) - 1
    with pytest.raises(ValueError, match="^need n >= 3 for interesting pure complexes$"):
        random_pure_complex(rng, 2)


def test_audit_square_reports_match_generator_form_oracle():
    # with I^2 = I^(2) the audit copies its facet-form symbolic-square reports
    # into cm_square, and its own CM(I^2) check becomes a tautology there
    pool = [d for _, d in named_battery()] + explore_complexes(0, 30, 6) + join_oracle_cases()
    equal = 0
    for d in pool:
        report = paper_audit(d)
        expected = generator_form_square_reports(d, report.fields)
        for f in report.fields:
            assert_whole_ring_report(d, report.cm_square[f], expected[f],
                                     generator_form_square_reports)
        assert report.cm_square is not report.cm_symbolic_square
        equal += report.sym2.equal
    assert 0 < equal < len(pool)


@pytest.mark.parametrize("delta, started, powers", [
    (cycle_complex(5), 1, 0),
    (cross_polytope(2), 4, 0),
    # the symbolic square, then the unequal square once for both fields
    (rp2(), 2, 1),
    # S/I and the symbolic square of each factor, then the square's fold
    # scans S/I of each factor again, the points' symbolic square, and rp2's
    # unequal square; the factor memos answer the rescans
    (rp2().join(SimplicialComplex(2, (1, 2))), 8, 1),
], ids=["pentagon", "square", "rp2", "rp2-join-two-points"])
def test_audit_pins_its_scans_and_builds_unequal_squares_once(
        delta, started, powers, scans, monkeypatch):
    # one facet-form scan serves the battery, or for a join (the square, of
    # two pairs of points) two per join factor; an unequal square is built
    # once and scanned once per battery, whether the audit asks for it per
    # field, which the memo's held scan answers, or as a join factor
    power = MonomialIdeal.power
    built = []

    def counted(self, k):
        built.append(k)
        return power(self, k)

    monkeypatch.setattr(MonomialIdeal, "power", counted)
    report = paper_audit(delta, (QQ, GF2))
    assert (len(scans), len(built)) == (started, powers)
    assert report.sym2.equal == (powers == 0)


def test_audit_walks_each_unequal_square_once_for_the_whole_battery(monkeypatch):
    # the audit asks for an unequal square once per field; the first call
    # walks the memo's whole battery and the memo holds that scan for the
    # others (one walk per field would make 86, 129 and 43)
    walks = []
    walk = takayama._generator_walk

    def walked(*args):
        walks.append(None)
        return walk(*args)

    monkeypatch.setattr(takayama, "_generator_walk", walked)
    pool = explore_complexes(0, 100, 6)
    for battery in ((QQ, GF2), (GF2, QQ, FieldSpec(3)), (QQ,)):
        walks.clear()
        unequal = 0
        for delta in pool:
            report = paper_audit(delta, battery)
            joined = any(r.factors for r in report.cm_symbolic_square.values())
            unequal += not report.sym2.equal and not joined
        assert len(walks) == unequal == 43, battery


def test_explore_complexes_rejects_a_negative_count():
    assert explore_complexes(0, 0, 6) == []
    with pytest.raises(ValueError, match="count"):
        explore_complexes(0, -1, 6)


@pytest.mark.parametrize("n_max", [-1, 0, 1, 2])
def test_explore_complexes_rejects_fewer_than_three_vertices(n_max):
    with pytest.raises(ValueError, match="n_max must be >= 3"):
        explore_complexes(0, 2, n_max)
    assert [d.n for d in explore_complexes(0, 5, 3)] == [3] * 5


def test_audit_refuses_an_over_budget_scan_before_any_link_walk(monkeypatch):
    def refuse(*args):
        raise AssertionError("an over-budget audit must not walk links")

    monkeypatch.setattr(SimplicialComplex, "link_walk", refuse)
    d = cross_polytope(8)
    with pytest.raises(BudgetExceeded) as err:
        paper_audit(d)
    assert str(err.value) == "scan needs 16777216 points, budget is 1000000"
    with pytest.raises(BudgetExceeded) as scan_err:
        symbolic_square_depth_reports(d, (QQ,))
    assert scan_err.value.required == err.value.required


def test_audit_walks_each_link_once_for_the_whole_battery(monkeypatch):
    # one walk per field would evaluate 1026 links on the named battery and
    # 1594 on the explore pool over {Q, F2}, and one walk per battery 513 and
    # 797; F2 fails no later than Q on any link, so the battery walks as far
    # as Q alone does.  The audit's memo evaluates a link once for both walks,
    # Gorenstein and local Gorenstein, and equal links of different faces once;
    # a cone link is decided from its facets (3 of the explore pool's 362).
    # The walks ask for full profiles and the scans always cut theirs, so
    # only the uncut evaluations are counted
    evaluated = []
    profile = homology.profile_from_faces

    def counted(delta, key, fields, *, below=None):
        if below is None:
            evaluated.append(tuple(fields))
        return profile(delta, key, fields, below=below)

    monkeypatch.setattr(homology, "profile_from_faces", counted)
    for pool, links in (([d for _, d in named_battery()], 145), (explore_complexes(0, 100, 6), 359)):
        for battery in ((QQ, GF2), (QQ,)):
            evaluated.clear()
            for delta in pool:
                paper_audit(delta, battery)
            assert len(evaluated) == links, battery


def test_the_audit_memo_leaves_every_report_byte_identical(monkeypatch):
    # without the memo each link walk and each scan keeps a memo of its own,
    # so no scan is held for a later request: every generator-form request
    # walks, and an unequal square is walked once per field
    pool = ([d for _, d in named_battery()] + explore_complexes(0, 100, 6)
            + list(relabeling_classes()))
    requests, walks = [], []
    for name, seen in (("depth_reports", requests), ("_generator_walk", walks)):
        def counted(*args, fn=getattr(takayama, name), seen=seen):
            seen.append(None)
            return fn(*args)

        monkeypatch.setattr(takayama, name, counted)

    def audits():
        requests.clear()
        walks.clear()
        return [[json.dumps(jsonio.audit_to_dict(paper_audit(d, battery))) for d in pool]
                for battery in ((QQ, GF2), (GF2, QQ), (QQ,), (QQ, GF2, FieldSpec(3)))]

    shared = audits()
    assert 0 < len(walks) < len(requests)
    monkeypatch.setattr(HomologyMemo, "serving",
                        classmethod(lambda cls, memo, delta, fields: cls(delta, fields)))
    assert audits() == shared
    assert len(walks) == len(requests) > 0


def test_one_face_index_serves_the_whole_audit(monkeypatch):
    # the audit's complex builds its vertex table once, and the link walks,
    # the S/I^(2) scan and the one scan of an unequal square read it
    built = []
    table = FaceIndex.__dict__["containing"]

    def build(index):
        built.append(SimplicialComplex(index.n, index.facets))
        return table.func(index)

    counted = functools.cached_property(build)
    counted.__set_name__(FaceIndex, "containing")
    monkeypatch.setattr(FaceIndex, "containing", counted)
    unequal = 0
    for delta in [d for _, d in named_battery()] + explore_complexes(0, 100, 6):
        built.clear()
        report = paper_audit(delta, (QQ, GF2))
        if any(r.factors for r in report.cm_symbolic_square.values()):
            continue  # a join's factor scans index their own faces
        assert built == [delta]
        unequal += not report.sym2.equal
    assert unequal >= 40


def test_a_join_evaluates_each_face_set_of_each_factor_once(monkeypatch):
    # the S/I, S/I^(2) and unequal S/I^2 scans of a join factor share one
    # memo, kept by the audit's memo, and so do equal factors: the two
    # pentagons of disjoint_pentagons(2), and rp2 next to two points, whose
    # square differs from its symbolic square (93 and 199 evaluations when
    # each factor scan kept a memo of its own)
    evaluated = []
    profile = homology.profile_from_faces

    def counted(delta, key, fields, **cut):
        evaluated.append((delta, key))
        return profile(delta, key, fields, **cut)

    monkeypatch.setattr(homology, "profile_from_faces", counted)
    two_points = SimplicialComplex(2, (pack([1]), pack([2])))
    for delta, calls in ((disjoint_pentagons(2), 65), (rp2().join(two_points), 170)):
        evaluated.clear()
        report = paper_audit(delta, (QQ, GF2))
        assert all(r.factors for r in report.cm_symbolic_square.values())
        assert len(evaluated) == len(set(evaluated)) == calls
    assert not report.sym2.equal


def test_a_join_scans_its_factors_without_the_public_entry_points(monkeypatch):
    # the budget is checked once, for the whole ring, and only Delta's
    # minimal non-faces are listed: a block of the finest join decomposition
    # is no join, so no factor goes back through square_depth_reports or
    # symbolic_square_depth_reports to be checked and split again
    budgets, listed = [], []
    check, nonfaces = takayama.check_square_budget, SimplicialComplex.minimal_nonfaces

    def checked(delta, budget):
        budgets.append(delta.n)
        return check(delta, budget)

    def listing(delta):
        listed.append(delta.n)
        return nonfaces(delta)

    monkeypatch.setattr(takayama, "check_square_budget", checked)
    monkeypatch.setattr(SimplicialComplex, "minimal_nonfaces", listing)
    reports = symbolic_square_depth_reports(disjoint_pentagons(2), (QQ, GF2))
    assert all(len(r.factors) == 2 for r in reports.values())
    assert budgets == [10]
    assert set(listed) == {10}
    listed.clear()
    report = paper_audit(cross_polytope(2))
    assert all(len(r.factors) == 2 for r in report.cm_symbolic_square.values())
    assert set(listed) == {4}


def test_no_memo_outlives_its_audit(monkeypatch):
    # a second audit of the same complex evaluates and walks as much as the
    # first; the explore complexes include unequal squares, whose scan the
    # first audit's memo held
    evaluated = []
    profile, walk = homology.profile_from_faces, takayama._generator_walk

    def counted(*args, **cut):
        evaluated.append(args[0])
        return profile(*args, **cut)

    def walked(*args):
        evaluated.append(None)
        return walk(*args)

    monkeypatch.setattr(homology, "profile_from_faces", counted)
    monkeypatch.setattr(takayama, "_generator_walk", walked)
    for delta in [rp2(), four_path(), cycle_complex(5)] + explore_complexes(0, 6, 6):
        counts = []
        for _ in range(2):
            evaluated.clear()
            paper_audit(delta)
            counts.append(len(evaluated))
        assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("budget", [0, 10**6])
def test_audit_keeps_its_messages_for_void_and_vertexless_input(budget):
    for n in (0, 3):
        with pytest.raises(ValueError, match="^Gorensteinness of the void complex is undefined$"):
            paper_audit(void_complex(n), budget=budget)
    with pytest.raises(ValueError, match="^need a complex on at least one ambient vertex$"):
        paper_audit(SimplicialComplex(0, (0,)), budget=budget)
