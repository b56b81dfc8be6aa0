"""JSON document schemas for the CLI pipes and report files.

Core schemas (stable, validated on load):
  complex  {"n": int, "facets": [[int, ...], ...]}   facets ascending
  graph    {"n": int, "edges": [[int, int], ...]}
  ideal    {"n": int, "gens": [[e1, ..., en], ...]}

Transform outputs may carry extra keys (e.g. "vertex_map"); loaders ignore
anything they do not know.  Report structures are one-way (to JSON only).
"""

from __future__ import annotations

from typing import Any, Mapping

from .bits import MAX_VERTICES
from .complexes import FVector, Graph, SimplicialComplex, new_complex
from .criteria import AuditReport, Condition3Result, Depth2Result, S2Result
from .homology import (
    GorensteinReport,
    HomologyProfile,
    LocallyGorensteinReport,
    ReisnerReport,
)
from .ideals import MonomialIdeal, SpecialTriangle, Sym2Result
from .takayama import DepthReport


def complex_to_dict(delta: SimplicialComplex, vertex_map: Mapping[int, int] | None = None) -> dict:
    doc: dict[str, Any] = {
        "n": delta.n,
        "facets": [list(f) for f in delta.facet_tuples()],
    }
    if vertex_map is not None:
        doc["vertex_map"] = {str(k): v for k, v in sorted(vertex_map.items())}
    return doc


def complex_from_dict(doc: Mapping[str, Any]) -> SimplicialComplex:
    """The complex on vertices 1..n; vertices in no facet are kept."""
    try:
        n = _integer(doc["n"], "n")
        facets = [[_integer(v, "a vertex") for v in f] for f in doc["facets"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"not a complex document: {exc}") from exc
    if n == 0 and facets == [[]]:
        return SimplicialComplex(0, (0,))
    return new_complex(n, facets, allow_unused=True)


def graph_from_dict(doc: Mapping[str, Any]) -> Graph:
    try:
        n = _integer(doc["n"], "n")
        edges = [[_integer(v, "an edge endpoint") for v in e] for e in doc["edges"]]
        return Graph.from_edges(n, edges)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"not a graph document: {exc}") from exc


def ideal_to_dict(ideal: MonomialIdeal) -> dict:
    return {"n": ideal.n, "gens": [list(g.exps) for g in ideal.gens]}


def _integer(value: Any, what: str) -> int:
    """A JSON integer as is; floats, strings and booleans are rejected, not coerced."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def ideal_from_dict(doc: Mapping[str, Any]) -> MonomialIdeal:
    try:
        n = _integer(doc["n"], "n")
        if n > MAX_VERTICES:
            raise ValueError(f"n must be at most {MAX_VERTICES}, got {n}")
        rows = [[_integer(e, "an exponent") for e in g] for g in doc["gens"]]
        return MonomialIdeal.from_exponents(n, rows)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"not an ideal document: {exc}") from exc


def fvector_to_dict(fv: FVector) -> dict:
    return {"f": list(fv.counts), "euler_reduced": fv.euler_reduced}


def profile_to_dict(profile: HomologyProfile) -> dict:
    return {
        "field": profile.field.name,
        "betti": {str(i): profile.betti_number(i) for i in profile.degrees()},
    }


def triangle_to_dict(tri: SpecialTriangle) -> dict:
    return {
        "vertices": list(tri.vertices),
        "witnesses": [list(w) for w in tri.witness_tuples()],
    }


def sym2_to_dict(result: Sym2Result) -> dict:
    doc: dict[str, Any] = {"equal": result.equal, "triangles_checked": result.triangles_checked}
    if result.failing is not None:
        doc["failing_triangle"] = triangle_to_dict(result.failing)
        doc["witness_monomial"] = list(result.witness_monomial.exps)  # type: ignore[union-attr]
    return doc


def reisner_to_dict(report: ReisnerReport) -> dict:
    doc: dict[str, Any] = {"field": report.field.name, "cohen_macaulay": report.is_cm}
    if not report.is_cm:
        doc["witness_face"] = list(report.witness_face or ())
        doc["witness_degree"] = report.witness_degree
    return doc


def gorenstein_to_dict(report: GorensteinReport) -> dict:
    doc: dict[str, Any] = {
        "field": report.field.name,
        "gorenstein": report.is_gorenstein,
        "core_euler_reduced": report.core_euler,
        "expected_euler_reduced": report.expected_euler,
    }
    if not report.is_gorenstein and report.witness_face is not None:
        doc["witness_face"] = list(report.witness_face)
        doc["witness_degree"] = report.witness_degree
    return doc


def locally_gorenstein_to_dict(report: LocallyGorensteinReport) -> dict:
    doc: dict[str, Any] = {"field": report.field.name, "locally_gorenstein": report.holds}
    if not report.holds:
        doc["witness_vertex"] = report.witness_vertex
    return doc


def depth_report_to_dict(report: DepthReport) -> dict:
    doc: dict[str, Any] = {
        "field": report.field.name,
        "depth": report.depth,
        "dim": report.dim,
        "cohen_macaulay": report.is_cm,
        "scan_size": report.scan_size,
    }
    if report.witness is not None:
        doc["witness"] = {
            "i": report.witness.i,
            "a": list(report.witness.a),
            "homology_degree": report.witness.homology_degree,
            "betti": report.witness.betti,
        }
    if report.factors:
        doc["join_factors"] = [
            {"vertices": list(vertices), "radical": depth_report_to_dict(radical),
             "power": depth_report_to_dict(power)}
            for vertices, radical, power in report.factors
        ]
    return doc


def _diameter(value: float | None) -> Any:
    """A graph diameter for JSON: a disconnected graph's is "infinity"."""
    return "infinity" if value == float("inf") else value


def depth2_to_dict(result: Depth2Result) -> dict:
    return {"holds": result.holds, "diameter": _diameter(result.diameter)}


def s2_to_dict(result: S2Result) -> dict:
    doc: dict[str, Any] = {"holds": result.holds}
    if not result.holds:
        doc["witness_face"] = list(result.witness_face or ())
        doc["witness_diameter"] = _diameter(result.witness_diameter)
    return doc


def condition3_to_dict(result: Condition3Result) -> dict:
    doc: dict[str, Any] = {"holds": result.holds}
    if not result.holds:
        doc["witness_triple"] = [list(t) for t in result.witness or ()]
    return doc


def audit_to_dict(report: AuditReport) -> dict:
    return {
        "complex": complex_to_dict(report.delta),
        "fields": [f.name for f in report.fields],
        "dim_ring": report.dim_ring,
        "pure": report.pure,
        "gorenstein": {f.name: gorenstein_to_dict(r) for f, r in report.gorenstein.items()},
        "locally_gorenstein": {
            f.name: locally_gorenstein_to_dict(r)
            for f, r in report.locally_gorenstein.items()
        },
        "depth2": depth2_to_dict(report.depth2) if report.depth2 is not None else None,
        "s2": s2_to_dict(report.s2) if report.s2 is not None else None,
        "symbolic2_equals_square": sym2_to_dict(report.sym2),
        "condition3": condition3_to_dict(report.condition3)
        if report.condition3 is not None
        else None,
        "cm_square": {f.name: depth_report_to_dict(r) for f, r in report.cm_square.items()},
        "cm_symbolic_square": {
            f.name: depth_report_to_dict(r) for f, r in report.cm_symbolic_square.items()
        },
        "violations": list(report.violations),
    }
