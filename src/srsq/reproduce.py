"""The reproduce-the-worked-examples battery.

Each criterion function recomputes one battery item from scratch, returns a
CriterionResult with the measured runtime and a JSON-able detail block, and
never asserts: the CLI and the acceptance test suite decide what a failure
means.  Every expected value here is either a trivially checkable fact, a
published verdict for these specific complexes, or a value frozen from an
independent oracle computation (the unit tests carry those oracles).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Iterable, Iterator

from .bits import bit_index, bits, pack
from .complexes import (
    SimplicialComplex,
    conjecture_complex,
    cross_polytope,
    cross_polytope_stellar,
    cycle_complex,
    disjoint_pentagons,
    four_path,
    new_complex,
    phantom_pentagon,
    rp2,
)
from .criteria import (
    condition3_check,
    depth2_criterion,
    explore_complexes,
    paper_audit,
    random_pure_complex,
    s2_criterion,
)
from .homology import DEFAULT_FIELDS, GF2, QQ, is_cohen_macaulay, is_gorenstein
from .ideals import (
    Monomial,
    MonomialIdeal,
    in_symbolic_power,
    special_triangles,
    stanley_reisner,
    symbolic2_equals_square,
    symbolic_power,
)
from .takayama import (
    DEFAULT_BUDGET,
    _symbolic_depth_reports,
    depth_reports,
    square_depth_reports,
    symbolic_square_depth_reports,
)


@dataclass
class CriterionResult:
    key: str
    title: str
    passed: bool
    elapsed: float
    limit: float | None
    details: dict = field(default_factory=dict)
    notes: tuple[str, ...] = ()

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"

    def line(self) -> str:
        lim = f" (limit {self.limit:g}s)" if self.limit is not None else ""
        return f"{self.status} {self.key}: {self.title} [{self.elapsed:.2f}s{lim}]"


# criterion key -> the registered criterion, in battery order
_CRITERIA: dict[str, Callable[..., CriterionResult]] = {}


def criterion(key: str, title: str, limit: float | None = None, notes: tuple[str, ...] = ()):
    """Register a battery item under ``key``.

    The decorated body takes the scan budget and returns ``(checks,
    details)``; the registered function times it and passes only if every
    check holds within ``limit`` seconds.
    """

    def register(body: Callable[[int], tuple[dict, dict]]) -> Callable[..., CriterionResult]:
        def run(budget: int = DEFAULT_BUDGET) -> CriterionResult:
            start = time.perf_counter()
            checks, details = body(budget)
            elapsed = time.perf_counter() - start
            passed = all(checks.values()) and (limit is None or elapsed < limit)
            details = {**details, "checks": dict(checks)}
            return CriterionResult(key, title, passed, elapsed, limit, details, notes)

        # the body's name and docstring, which test ids and help() show
        run.__name__, run.__qualname__, run.__doc__ = body.__name__, body.__qualname__, body.__doc__
        _CRITERIA[key] = run
        return run

    return register


# -- criterion 1: the triangle ideal -----------------------------------------


@criterion("criterion-01", "triangle ideal second powers")
def criterion_1_triangle(budget: int):
    """I = (x1x2, x2x3, x3x1): I^(2) = I^2 + (x1x2x3) != I^2, bit-exact."""
    I = MonomialIdeal.squarefree_from_supports(3, [(1, 2), (2, 3), (1, 3)])
    triangle_cubed = MonomialIdeal.from_exponents(3, [(1, 1, 1)])

    def compute():
        sym = symbolic_power(I, 2)
        return sym, I.power(2)

    compute()  # warm the code paths before timing
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        sym, square = compute()
        best = min(best, time.perf_counter() - t0)
    checks = {
        "symbolic_square_equals_square_plus_cubic": sym == square + triangle_cubed,
        "symbolic_square_differs_from_square": sym != square,
        "compute_under_1ms": best < 1e-3,
    }
    details = {
        "symbolic_square_gens": [list(g.exps) for g in sym.gens],
        "square_gens": [list(g.exps) for g in square.gens],
        "best_compute_seconds": best,
    }
    return checks, details


# -- criterion 2: the pentagon -------------------------------------------------


@criterion("criterion-02", "pentagon: CM square and Gorenstein", 1.0)
def criterion_2_pentagon(budget: int):
    d = cycle_complex(5)
    I = stanley_reisner(d)
    sq = square_depth_reports(d, (QQ, GF2), budget)
    checks = {
        "no_special_triangles": special_triangles(I) == (),
        "symbolic_square_equals_square": I.power(2) == symbolic_power(d, 2),
        "cm_square_Q": sq[QQ].is_cm,
        "cm_square_F2": sq[GF2].is_cm,
        "gorenstein_Q": bool(is_gorenstein(d, QQ)),
        "gorenstein_F2": bool(is_gorenstein(d, GF2)),
    }
    return checks, {}


# -- criterion 3: the projective plane ----------------------------------------


def _pentagon_relabeling(delta: SimplicialComplex) -> dict[int, int] | None:
    """A vertex map turning the complex into cycle_complex(5), or None."""
    if delta.n != 5 or delta.dim != 1 or len(delta.facets) != 5:
        return None
    adj = delta.one_skeleton().adjacency()
    if any(adj[v].bit_count() != 2 for v in range(1, 6)):
        return None
    order = [1]
    prev = 0
    while len(order) < 5:
        nbrs = [b.bit_length() for b in bits(adj[order[-1]])]
        nxt = [v for v in nbrs if v != prev]
        prev = order[-1]
        order.append(min(nxt) if len(order) == 1 else nxt[0])
    if len(set(order)) != 5:
        return None
    mapping = {v: i + 1 for i, v in enumerate(order)}
    return mapping if delta.relabel(mapping) == cycle_complex(5) else None


@criterion("criterion-03", "real projective plane (6 vertices)", 120.0)
def criterion_3_projective_plane(budget: int):
    d = rp2()
    I = stanley_reisner(d)
    fv = d.f_vector()
    sym = symbolic2_equals_square(I)
    all_vertices = Monomial((1,) * 6)
    sym_sq = symbolic_square_depth_reports(d, (QQ, GF2), budget)
    checks = {
        "f_vector": fv.counts == (6, 15, 10),
        "euler_reduced_zero": fv.euler_reduced == 0,
        "cm_over_Q": bool(is_cohen_macaulay(d, QQ)),
        "not_cm_over_F2": not is_cohen_macaulay(d, GF2),
        "not_gorenstein_Q": not is_gorenstein(d, QQ),
        "not_gorenstein_F2": not is_gorenstein(d, GF2),
        "all_vertex_links_are_pentagons": all(
            _pentagon_relabeling(d.link([v])) is not None for v in range(1, 7)
        ),
        "s2_criterion_holds": s2_criterion(d).holds,
        "not_cm_symbolic_square_Q": not sym_sq[QQ].is_cm,
        "not_cm_symbolic_square_F2": not sym_sq[GF2].is_cm,
        "x1__x6_in_symbolic_square": in_symbolic_power(d, all_vertices, 2),
        "x1__x6_not_in_square": not I.power(2).contains(all_vertices),
        "triangle_criterion_fails": not sym.equal,
    }
    details = {"failing_triangle": list(sym.failing.vertices) if sym.failing else None}
    return checks, details


# -- criteria 4 and 5: the glued pentagons and the 4-path ----------------------


@criterion("criterion-04", "glued pentagons (k = 2): symbolic vs ordinary", 120.0)
def criterion_4_phantom_pentagon(budget: int):
    d = phantom_pentagon(2)
    sym_sq = symbolic_square_depth_reports(d, (QQ, GF2), budget)
    sq = square_depth_reports(d, (QQ, GF2), budget)
    checks = {
        "cm_symbolic_square_Q": sym_sq[QQ].is_cm,
        "cm_symbolic_square_F2": sym_sq[GF2].is_cm,
        "not_cm_square_Q": not sq[QQ].is_cm,
        "not_cm_square_F2": not sq[GF2].is_cm,
        "not_gorenstein_Q": not is_gorenstein(d, QQ),
        "not_gorenstein_F2": not is_gorenstein(d, GF2),
    }
    return checks, {}


@criterion("criterion-05", "4-pointed path", 10.0)
def criterion_5_four_path(budget: int):
    d = four_path()
    sq = square_depth_reports(d, (QQ, GF2), budget)
    checks = {
        "cm_Q": bool(is_cohen_macaulay(d, QQ)),
        "cm_F2": bool(is_cohen_macaulay(d, GF2)),
        "not_gorenstein_Q": not is_gorenstein(d, QQ),
        "not_gorenstein_F2": not is_gorenstein(d, GF2),
        "not_cm_square_Q": not sq[QQ].is_cm,
        "not_cm_square_F2": not sq[GF2].is_cm,
        "dim_ring_2": d.dim + 1 == 2,
    }
    return checks, {}


# -- criterion 6: stellar subdivisions of cross polytopes -----------------------


@criterion("criterion-06", "stellar subdivisions of cross polytopes", 600.0)
def criterion_6_cross_stellar(budget: int):
    cs2 = cross_polytope_stellar(2)
    mapping = _pentagon_relabeling(cs2)
    ideal_matches = mapping is not None and stanley_reisner(
        cs2.relabel(mapping)
    ) == stanley_reisner(cycle_complex(5))
    sq = square_depth_reports(cross_polytope_stellar(3), (QQ, GF2), budget)
    checks = {
        "stellar_2_is_pentagon_up_to_relabeling": mapping is not None,
        "stellar_2_ideal_matches_after_relabeling": ideal_matches,
        "stellar_3_cm_square_Q": sq[QQ].is_cm,
        "stellar_3_cm_square_F2": sq[GF2].is_cm,
    }
    details = {"pentagon_relabeling": mapping}
    return checks, details


# -- criterion 7: two disjoint pentagons (n = 10) -------------------------------


@criterion("criterion-07", "two disjoint pentagons (n = 10)")
def criterion_7_disjoint_pentagons(budget: int):
    d = disjoint_pentagons(2)
    sym = symbolic2_equals_square(stanley_reisner(d))
    # the square folded from the two pentagons, against the facet-form scan
    # of the whole join (I^2 = I^(2) here), which does not fold
    route = square_depth_reports(d, (QQ, GF2), budget)
    whole = _symbolic_depth_reports(d, 2, (QQ, GF2), budget)
    checks = {
        "symbolic2_equals_square": sym.equal,
        "two_join_factors": len(route[QQ].factors) == 2,
        "cm_square_Q": route[QQ].is_cm,
        "cm_square_F2": route[GF2].is_cm,
        "whole_join_scan_agrees_Q": whole[QQ].depth == route[QQ].depth,
        "whole_join_scan_agrees_F2": whole[GF2].depth == route[GF2].depth,
    }
    details = {
        "depth": {f.name: route[f].depth for f in (QQ, GF2)},
        "factor_depths": {f.name: [[r.depth, p.depth] for _, r, p in route[f].factors]
                          for f in (QQ, GF2)},
        "scan_size": route[QQ].scan_size,
    }
    return checks, details


# -- criterion 8: oracle equivalences -------------------------------------------


def iter_pure_complexes() -> Iterator[SimplicialComplex]:
    """Every pure complex on 1..n <= 5 whose facets cover all vertices,
    exhaustively by facet family."""
    for n in range(1, 6):
        full = (1 << n) - 1
        for d in range(1, n + 1):
            pool = [pack(c) for c in combinations(range(1, n + 1), d)]
            for sel in range(1, 1 << len(pool)):
                delta = SimplicialComplex(n, tuple(pool[bit_index(b) - 1] for b in bits(sel)))
                if delta.support == full:
                    yield delta


def _equivalence_checks(delta: SimplicialComplex, budget: int) -> dict[str, bool]:
    I = stanley_reisner(delta)
    eq_direct = I.power(2) == symbolic_power(delta, 2)
    out = {
        "triangle_criterion": symbolic2_equals_square(I).equal == eq_direct,
        "condition3": condition3_check(delta).holds == eq_direct,
    }
    takayama = None if I.is_zero() else depth_reports(I, DEFAULT_FIELDS, budget)
    for f in DEFAULT_FIELDS:
        reisner = bool(is_cohen_macaulay(delta, f))
        out[f"reisner_vs_takayama_{f.name}"] = reisner == (takayama is None or takayama[f].is_cm)
    if delta.dim >= 1:
        # depth >= 2 of the symbolic square only involves connectivity data,
        # which is characteristic-free, so one field decides it.
        deep = symbolic_square_depth_reports(delta, (GF2,), budget)[GF2].depth >= 2
        out["diameter_vs_depth"] = depth2_criterion(delta).holds == deep
    return out


@criterion("criterion-08", "oracle equivalences (exhaustive + random)", 1800.0)
def criterion_8_oracle_equivalences(budget: int):
    """Criterion equivalences against independent oracles, exhaustively for
    n <= 5 and on 200 seeded random complexes for n = 6, 7."""
    rng = random.Random(0)
    exhaustive = list(iter_pure_complexes())
    randoms = [random_pure_complex(rng, 6 + (i % 2)) for i in range(200)]
    failures: list[dict] = []
    for delta in exhaustive + randoms:
        bad = {k: v for k, v in _equivalence_checks(delta, budget).items() if not v}
        if bad:
            failures.append({"facets": delta.facet_tuples(), "failed": sorted(bad)})
    checks = {"zero_discrepancies": not failures}
    details = {
        "exhaustive_complexes": len(exhaustive),
        "random_complexes": len(randoms),
        "failures": failures[:10],
    }
    return checks, details


# -- criterion 9: implication audits --------------------------------------------


def named_battery() -> list[tuple[str, SimplicialComplex]]:
    return [
        ("triangle_complex", new_complex(3, [(1,), (2,), (3,)])),
        ("pentagon", cycle_complex(5)),
        ("rp2", rp2()),
        ("phantom_pentagon_2", phantom_pentagon(2)),
        ("four_path", four_path()),
        ("cross_polytope_2", cross_polytope(2)),
        ("cross_polytope_stellar_2", cross_polytope_stellar(2)),
        ("cross_polytope_stellar_3", cross_polytope_stellar(3)),
        ("conjecture_1", conjecture_complex(1)),
        ("conjecture_2", conjecture_complex(2)),
        ("disjoint_pentagons_2", disjoint_pentagons(2)),
    ]


@criterion("criterion-09", "implication audits across the battery")
def criterion_9_implication_audits(budget: int):
    pool = named_battery() + [
        (f"explore[{i}]", delta) for i, delta in enumerate(explore_complexes(0, 100, 6))
    ]
    violations: list[dict] = []
    for name, delta in pool:
        report = paper_audit(delta, budget=budget)
        if report.violations:
            violations.append({"complex": name, "violations": list(report.violations)})
    checks = {"no_implication_violations": not violations}
    details = {"audited": len(pool), "violations": violations}
    return checks, details


# -- criterion 10: the conjectured family ----------------------------------------


@criterion(
    "criterion-10", "conjectured graph family (n = 1 asserted, n = 2 and 3 recorded)",
    notes=("the n = 2 and 3 verdicts are recorded, not asserted (conjectured cases)",),
)
def criterion_10_conjecture(budget: int):
    recorded = {
        f"n{n}_recorded_verdicts": {
            f.name: {"cm": r.is_cm, "depth": r.depth, "dim": r.dim}
            for f, r in square_depth_reports(conjecture_complex(n), (QQ, GF2), budget).items()
        }
        for n in (2, 3)
    }
    pentagon_case = square_depth_reports(conjecture_complex(1), (QQ, GF2), budget)
    checks = {
        "n1_pentagon_cm_square_Q": pentagon_case[QQ].is_cm,
        "n1_pentagon_cm_square_F2": pentagon_case[GF2].is_cm,
    }
    return checks, recorded


def run_all(
    budget: int = DEFAULT_BUDGET, only: Iterable[str] | None = None
) -> list[CriterionResult]:
    wanted = set(only) if only else None
    if wanted and not wanted <= _CRITERIA.keys():
        unknown = ", ".join(sorted(wanted - _CRITERIA.keys()))
        raise ValueError(f"unknown criterion {unknown}; valid keys: {', '.join(_CRITERIA)}")
    return [run(budget=budget) for key, run in _CRITERIA.items() if not wanted or key in wanted]
