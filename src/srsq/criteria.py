"""First-class checks with certificates: the diameter depth criterion, the
linkwise (S2) criterion, the union/intersection condition on non-face
triples (read off the minimal non-faces), and the per-instance audit.

The (S2) criterion reads each link's facets off FaceIndex.star, and the
diameter criterion reads Delta's own facets; both take the diameter with
complexes.skeleton_diameter, so neither builds a link complex or a graph.

The audit computes every verdict for one complex and then asserts the
implications that must hold between them; any violation is flagged and
treated by the CLI as a critical bug (exit code 4).  The exploration harness
runs audits over seeded random pure complexes and never asserts anything
beyond those implications.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .bits import pack, unpack
from .complexes import SimplicialComplex, new_complex, skeleton_diameter
from .homology import (
    DEFAULT_FIELDS,
    QQ,
    FieldSpec,
    GorensteinReport,
    HomologyMemo,
    LocallyGorensteinReport,
    gorenstein_reports,
    locally_gorenstein_reports,
)
from .ideals import Sym2Result, stanley_reisner, symbolic2_equals_square
from .takayama import (
    DEFAULT_BUDGET,
    DepthReport,
    check_square_budget,
    depth_via_takayama,
    square_depth_reports,
    symbolic_square_depth_reports,
)

# Above the cap, `check condition3` exits 2 and the audit leaves the verdict
# out (the special-triangle criterion decides alone); the cap keeps the bytes
# of `check audit` and `explore --full` for n > 9, and the benchmark's pins.
CONDITION3_MAX_VERTICES = 9


@dataclass(frozen=True)
class Depth2Result:
    """diam of the 1-skeleton <= 2, the depth >= 2 criterion for S/I^(2)."""

    holds: bool
    diameter: float


def depth2_criterion(delta: SimplicialComplex) -> Depth2Result:
    """The diameter is taken over the vertices that occur in a face, on the
    link of the empty face as in s2_criterion: an unused vertex v is no
    vertex of Delta (x_v lies in I_Delta), so it is not an isolated one."""
    if delta.dim < 1:
        raise ValueError("the diameter criterion needs dim >= 1")
    diameter = skeleton_diameter(delta.facets)
    return Depth2Result(diameter <= 2, diameter)


@dataclass(frozen=True)
class S2Result:
    """Linkwise diameter criterion, equivalent to (S2) for S/I^(2) (pure input)."""

    holds: bool
    witness_face: tuple[int, ...] | None = None
    witness_diameter: float | None = None


def s2_criterion(delta: SimplicialComplex) -> S2Result:
    """For every face F (the empty face included) whose link has dimension
    >= 1, the link's 1-skeleton must have diameter <= 2."""
    if not delta.is_pure():
        raise ValueError("the (S2) criterion is stated for pure complexes")
    star, top = delta.face_index.star, delta.dim
    for face in delta.sorted_faces():
        if face.bit_count() >= top:
            break  # lk G of a pure complex has dimension dim - |G|, and faces come by size
        if (diameter := skeleton_diameter(f & ~face for f in star(face))) > 2:
            return S2Result(False, unpack(face), diameter)
    return S2Result(True)


@dataclass(frozen=True)
class Condition3Result:
    """Union/intersection condition over all triples of non-faces.

    holds is True when for every F1, F2, F3 not in Delta there are non-faces
    G1, G2 with G1 u G2 inside F1 u F2 u F3 and G1 n G2 inside F1 n F2 n F3.
    The witness is a failing triple.
    """

    holds: bool
    witness: tuple[tuple[int, ...], ...] | None = None


def condition3_check(delta: SimplicialComplex) -> Condition3Result:
    """The condition on minimal non-faces, one triple per (union U,
    intersection W) signature.  It is monotone in every F_i and G_j: if
    F_i contains M_i, U and W contain those of the Ms, and shrinking G1, G2
    to minimal non-faces inside them keeps G1 u G2 in U and G1 n G2 in W.
    So the Fs range over minimal non-faces, and (U, W) is met iff minimal
    non-faces g1, g2 in U (possibly equal) have g1 n g2 in W."""
    if delta.n > CONDITION3_MAX_VERTICES:
        raise ValueError("the non-face triple condition is capped at "
                         f"n <= {CONDITION3_MAX_VERTICES}, got n = {delta.n}")
    mins = sorted(delta.minimal_nonfaces())
    sigs: dict[tuple[int, int], tuple[int, int, int]] = {}
    for i, f1 in enumerate(mins):
        for f2 in mins[i:]:
            for f3 in mins:
                sigs.setdefault((f1 | f2 | f3, f1 & f2 & f3), (f1, f2, f3))
    for (u, w), triple in sigs.items():
        inside = [g for g in mins if not g & ~u]
        if not any(not g1 & g2 & ~w for i, g1 in enumerate(inside) for g2 in inside[i:]):
            return Condition3Result(False, tuple(unpack(t) for t in triple))
    return Condition3Result(True)


# -- the per-instance audit ------------------------------------------------------


@dataclass
class AuditReport:
    """Every verdict for one complex plus the implication violations found.

    An empty ``violations`` tuple is the expected outcome; anything else
    means a result contradicts an implication that is supposed to hold and
    should be treated as a bug (or a counterexample candidate worth keeping).
    """

    delta: SimplicialComplex
    fields: tuple[FieldSpec, ...]
    dim_ring: int
    pure: bool
    gorenstein: dict[FieldSpec, GorensteinReport]
    locally_gorenstein: dict[FieldSpec, LocallyGorensteinReport]
    depth2: Depth2Result | None
    s2: S2Result | None
    sym2: Sym2Result
    condition3: Condition3Result | None
    cm_square: dict[FieldSpec, DepthReport]
    cm_symbolic_square: dict[FieldSpec, DepthReport]
    violations: tuple[str, ...] = ()

    @property
    def cm_square_battery(self) -> bool:
        return all(r.is_cm for r in self.cm_square.values())


def _audit_violations(report: AuditReport) -> tuple[str, ...]:
    out: list[str] = []
    if report.cm_square_battery:
        if not all(r.is_gorenstein for r in report.gorenstein.values()):
            out.append("CM square over the battery but not Gorenstein")
        if report.s2 is not None and not report.s2.holds:
            out.append("CM square over the battery but the linkwise diameter criterion fails")
        if not report.sym2.equal:
            out.append("CM square over the battery but I^2 != I^(2)")
        if not all(r.holds for r in report.locally_gorenstein.values()):
            out.append("CM square over the battery but not locally Gorenstein")
    for f in report.fields:
        direct = report.cm_square[f].is_cm
        combined = report.cm_symbolic_square[f].is_cm and report.sym2.equal
        if direct != combined:
            out.append(
                f"over {f.name}: CM(I^2) = {direct} but CM(I^(2)) and I^2 = I^(2) "
                f"give {combined}"
            )
        if report.depth2 is not None:
            sym_depth_ok = report.cm_symbolic_square[f].depth >= 2
            if report.depth2.holds != sym_depth_ok:
                out.append(
                    f"over {f.name}: diameter criterion = {report.depth2.holds} but "
                    f"depth S/I^(2) >= 2 is {sym_depth_ok}"
                )
    # Betti numbers over F_p are at least those over Q for an integer chain
    # complex: local cohomology only grows, so depths only drop, and a
    # Gorenstein verdict over F_p carries over to Q.
    if QQ in report.fields:
        for f in report.fields:
            if f == QQ:
                continue
            for name, reports in (("I^2", report.cm_square),
                                  ("I^(2)", report.cm_symbolic_square)):
                if reports[f].depth > reports[QQ].depth:
                    out.append(
                        f"depth S/{name} is {reports[f].depth} over {f.name} "
                        f"but {reports[QQ].depth} over Q"
                    )
            if report.gorenstein[f].is_gorenstein and not report.gorenstein[QQ].is_gorenstein:
                out.append(f"Gorenstein over {f.name} but not over Q")
    if report.condition3 is not None and report.condition3.holds != report.sym2.equal:
        out.append(
            "non-face triple condition disagrees with the special-triangle criterion"
        )
    return tuple(out)


def paper_audit(
    delta: SimplicialComplex,
    fields: Sequence[FieldSpec] = DEFAULT_FIELDS,
    budget: int = DEFAULT_BUDGET,
) -> AuditReport:
    """Compute all criteria for one complex and check the implications.

    The non-face triple condition is only checked when n is at most
    CONDITION3_MAX_VERTICES; the special-triangle criterion stands in for it
    above the cap (the two are equivalent and cross-checked whenever both are
    computed).  A depth scan over the budget is refused right after the
    input checks, before any link walk: S/I^2 and S/I^(2) have one scan size.

    One facet-form scan of S/I^(2) serves the whole field battery.  When
    I^2 = I^(2), S/I^2 is S/I^(2), so ``cm_square`` is a copy of those
    reports and no second scan runs; the check of CM(I^2) against CM(I^(2))
    together with I^2 = I^(2) is then a tautology, and the test suite's
    generator-form oracle covers that case.  Otherwise a join's
    ``cm_square`` is folded from its factors by square_depth_reports under
    the audit's memo, as ``check depth --of square`` reports it: each
    factor's S/I and equal square are scanned again, and the factor memos
    that the S/I^(2) scan filled answer them, so only a factor square that
    differs from its symbolic square evaluates anything new.  Any other I^2
    is built once and scanned once, over the battery, in generator form; it
    is asked for once per field, and the memo holds the scan that answers
    each of those calls.  The verdicts that need no scan come first, so an
    input they reject fails before any scan starts.

    One HomologyMemo over Delta lives for this call: the Gorenstein and
    local Gorenstein walks, the S/I^(2) scan and the scan of an unequal I^2
    (whose Delta(I^2) is Delta) read Delta's one face index and evaluate
    each distinct complex once between them, since lk G is Delta_a at a = 0
    off G.  A join's factor scans have other faces: the memo keeps
    one memo per distinct factor, which the S/I, S/I^(2) and S/I^2 scans of
    that factor share.  The memos are dropped on return, so an audit's work
    does not depend on earlier calls; what outlives it is the face index
    that each complex keeps, which holds no homology.
    """
    fields = tuple(fields)
    if delta.n:  # on no vertex, stanley_reisner below refuses the complex
        check_square_budget(delta, budget)
    memo = HomologyMemo(delta, fields)
    report = AuditReport(
        delta=delta,
        fields=fields,
        dim_ring=delta.dim + 1,
        pure=delta.is_pure(),
        gorenstein=gorenstein_reports(delta, fields, memo),
        locally_gorenstein=locally_gorenstein_reports(delta, fields, memo),
        depth2=depth2_criterion(delta) if delta.dim >= 1 else None,
        s2=s2_criterion(delta) if delta.is_pure() else None,
        sym2=symbolic2_equals_square(ideal := stanley_reisner(delta)),
        condition3=condition3_check(delta) if delta.n <= CONDITION3_MAX_VERTICES else None,
        cm_square={},
        cm_symbolic_square=symbolic_square_depth_reports(delta, fields, budget, memo),
    )
    if report.sym2.equal:
        report.cm_square = dict(report.cm_symbolic_square)
    elif any(r.factors for r in report.cm_symbolic_square.values()):
        report.cm_square = square_depth_reports(delta, fields, budget, memo)
    else:
        # One call per field, since the benchmark's tracer counts scans only on
        # depth_via_takayama; the first call scans the whole battery and the memo
        # holds that scan, so the square is walked once.
        square = ideal.power(2)
        report.cm_square = {f: depth_via_takayama(square, f, budget, memo) for f in fields}
    report.violations = _audit_violations(report)
    return report


# -- the exploration harness -----------------------------------------------------


def random_pure_complex(rng: random.Random, n: int) -> SimplicialComplex:
    """Seeded random pure complex covering all n vertices, dim >= 1."""
    if n < 3:
        raise ValueError("need n >= 3 for interesting pure complexes")
    d = rng.randint(2, max(2, min(n - 1, 4)))
    pool = list(combinations(range(1, n + 1), d))
    full = (1 << n) - 1
    while True:
        k = rng.randint(max(1, n // d), len(pool))
        chosen = rng.sample(pool, k)
        support = 0
        for c in chosen:
            support |= pack(c)
        if support == full:
            return new_complex(n, chosen)


def explore_complexes(seed: int, count: int, n_max: int) -> list[SimplicialComplex]:
    """``count`` seeded random pure complexes with 3 <= n <= n_max, fixed by
    the seed: the stream that ``srsq explore`` and reproduce criterion 9
    audit."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if n_max < 3:
        raise ValueError(f"n_max must be >= 3, got {n_max}")
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(3, n_max)
        out.append(random_pure_complex(rng, n))
    return out
