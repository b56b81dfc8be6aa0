"""Degreewise local cohomology of monomial quotients via degree-selected
subcomplexes, and depth/Cohen-Macaulay verdicts for S/I, S/I^2 and S/I^(2).

The graded-piece formula implemented here (Takayama 2005; it specialises to
Hochster's formula for squarefree ideals) reads, with G_a = {i : a_i < 0} and
rho_i the maximum exponent of x_i over the minimal generators:

    dim_K H_m^i(S/I)_a = dim_K ~H_{i - |G_a| - 1}(Delta_a(I); K)
        when G_a is a face of Delta(I) and a_j <= rho_j - 1 for all j,
    and 0 otherwise.

Delta_a(I) is the subcomplex of Delta(I) of faces F disjoint from G_a such
that every minimal generator x^b admits an index i outside F and G_a with
b_i > a_i.  Since a piece only depends on a through G_a and the nonnegative
entries, depth scans range over a = -1 on a face G of Delta(I) and
0 <= a_j <= rho_j - 1 elsewhere; this space is finite and covers every degree
where a piece can be nonzero, so

    depth S/I = min { i : some scanned piece at i is nonzero },

with depth = dim S/I when nothing fires below the dimension (the top
cohomology never vanishes identically and is not scanned).  Only the ranks
depend on the field, so one scan per ideal serves a whole field battery.

In the generator form a point selects Delta_a by masks alone: the sets
mb = {i outside G_a : b_i > a_i}, one per generator x^b, come from masks
precomputed once per ideal, and the pair (G_a, set of mb) keys the homology
cache.  The faces of Delta_a are listed only when a key is new, and homology
is evaluated only when those faces are new.

For a symbolic power I = I_Delta^(l) no generator is needed (Minh-Trung
2011): Delta_a(I) is generated by the sets F - G_a over the facets F of
Delta that contain G_a and satisfy sum_{i not in F} a_i <= l - 1, and
rho_j = l off the cone vertices (those in every facet) and 0 on them.  The
symbolic-square scan runs in this facet form over the same points in the
same order as the generator form, through the same loop; the generator
form applied to symbolic_power(Delta, 2) is kept as the test suite's oracle.

The square I_Delta^2 is scanned in facet form as well whenever it equals
I_Delta^(2), which the special-triangle criterion decides without building
either power.  Then S/I^2 and S/I^(2) are one ring: the same minimal
generators, rho, points and Delta_a, so the same report, depth, witness and
scan_size included.  The two forms even have equal scan sizes on every
complex (rho of I^2 is 2 exactly off the cone vertices), so a budget
refusal names the same requirement on either route.  Only a square that
differs from the symbolic square is built and scanned in generator form;
the generator form of every square is the test suite's oracle.

is_cm_square decides Cohen-Macaulayness of S/I_Delta^2 by the join rule:
one battery scan per join factor of Delta, whose scan sizes add where a scan
of the whole join would multiply them.  The direct scan of a join is kept as
the test suite's oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Collection, Hashable, Sequence

from .bits import generated_faces
from .complexes import SimplicialComplex
from .homology import QQ, FieldSpec, HomologyProfile, profile_from_faces
from .ideals import MonomialIdeal, complex_of_ideal, stanley_reisner, symbolic2_equals_square

DEFAULT_BUDGET = 10**6


class BudgetExceeded(Exception):
    """The scan would need more homology evaluations than the budget allows."""

    def __init__(self, required: int, budget: int):
        self.required = required
        self.budget = budget
        super().__init__(
            f"scan needs {required} homology evaluations, budget is {budget}"
        )


@dataclass(frozen=True)
class CohomologyWitness:
    """A nonvanishing graded piece: H_m^i(S/I)_a has dimension ``betti``."""

    i: int
    a: tuple[int, ...]
    homology_degree: int
    betti: int


@dataclass(frozen=True)
class DepthReport:
    field: FieldSpec
    depth: int
    dim: int
    is_cm: bool
    witness: CohomologyWitness | None
    scan_size: int


# -- the degree-selected subcomplex --------------------------------------------


def _generator_selection(
    faces: Sequence[int], gens: Sequence[tuple[int, ...]]
) -> tuple[Callable[[int, Sequence[int]], Hashable], Callable[[Hashable], list[int]]]:
    """``select`` and ``expand`` of the generator-form scan; ``faces`` are
    the faces of Delta(I), ``gens`` the exponent vectors of its generators.

    For each generator b, mb = {j outside G_a : b_j > a_j}; a face F of
    Delta_a avoids G_a and misses a vertex of every mb, and an empty mb
    leaves Delta_a void.  Once per ideal, levels[k] holds the masks
    {j : b_j > k} of all generators, for k below the largest exponent; at a
    point, with at_k = {j : a_j = k}, each mb is the OR over k of
    levels[k][b] & at_k, and G_a drops out because a is negative there.
    ``select(g_mask, a)`` returns None for the void complex and the key
    (G_a, set of mb) otherwise; ``expand(key)`` lists the faces of Delta_a
    and runs only on a cache miss.
    """
    top = max((e for b in gens for e in b), default=0)
    levels = [[sum(1 << j for j, e in enumerate(b) if e > k) for b in gens]
              for k in range(top)]

    def select(g_mask: int, a: Sequence[int]) -> Hashable:
        at = [0] * top
        for j, e in enumerate(a):
            if 0 <= e < top:
                at[e] |= 1 << j
        mbs = [0] * len(gens)
        for level, at_k in zip(levels, at):
            if at_k:
                mbs = [mb | (lb & at_k) for mb, lb in zip(mbs, level)]
        if 0 in mbs:
            return None
        return g_mask, frozenset(mbs)

    def expand(key: Hashable) -> list[int]:
        g_mask, mbs = key
        return [f for f in faces if not f & g_mask and all(mb & ~f for mb in mbs)]

    return select, expand


def _facet_selection(
    facets: Sequence[int], g_mask: int, a: Sequence[int], ell: int
) -> tuple[int, ...]:
    """Generators F - G_a of Delta_a(I_Delta^(ell)), in facet order: one per
    facet F containing G_a with sum_{i not in F} a_i <= ell - 1.

    The outside sum is counted layerwise, |{i not in F : a_i >= k}| summed
    over k = 1..ell; capping the layers at ell leaves the comparison intact.
    An empty result is the void complex.  Plain loops: this runs per scan
    point.
    """
    layers = []
    for k in range(1, ell + 1):
        layer = 0
        for i, e in enumerate(a):
            if e >= k:
                layer |= 1 << i
        if not layer:
            break
        layers.append(layer)
    selected = []
    for f in facets:
        if g_mask & ~f:
            continue
        outside = 0
        for layer in layers:
            outside += (layer & ~f).bit_count()
        if outside < ell:
            selected.append(f & ~g_mask)
    return tuple(selected)


# -- the depth scan ------------------------------------------------------------


def _scan_size(faces: Sequence[int], rho: Sequence[int]) -> int:
    total = 0
    for g in faces:
        prod = 1
        for j, r in enumerate(rho):
            if not g >> j & 1:
                prod *= r
                if prod == 0:
                    break
        total += prod
    return total


def _scan_points(faces: Sequence[int], rho: Sequence[int], n: int):
    """(G, a) pairs in a fixed total order: faces sorted by (size, vertices),
    then the nonnegative part in lexicographic product order."""
    for g in faces:
        for a in product(*((-1,) if g >> j & 1 else range(rho[j]) for j in range(n))):
            yield g, a


def _scan_reports(
    delta: SimplicialComplex,
    faces: Sequence[int],
    rho: Sequence[int],
    fields: Sequence[FieldSpec],
    budget: int,
    select: Callable[[int, tuple[int, ...]], Hashable],
    expand: Callable[[Hashable], Collection[int]],
) -> dict[FieldSpec, DepthReport]:
    """The depth scan shared by the generator and facet forms, per field.

    ``select(g_mask, a)`` names Delta_a by a hashable key, falsy when Delta_a
    is void: (G_a, set of mb) in the generator form, the tuple of F - G_a in
    the facet form.  ``expand(key)`` lists the faces of Delta_a and runs only
    on a key miss; keys whose faces come out equal, in the same order, share
    one homology evaluation (in the generator form every facet G_a with no
    empty mb gives {empty face}).  The search space (see module docstring) is
    sized upfront; exceeding the budget raises BudgetExceeded rather than
    truncating.  Each field's witness is its first nonvanishing piece in the
    fixed (i, a) order, so reports are deterministic regardless of evaluation
    strategy.
    """
    size = _scan_size(faces, rho)
    if size > budget:
        raise BudgetExceeded(size, budget)
    dim_ring = delta.dim + 1
    cache: dict[Hashable, tuple[HomologyProfile, ...]] = {}
    by_faces: dict[tuple[int, ...], tuple[HomologyProfile, ...]] = {}
    first_hits: list[dict[int, CohomologyWitness]] = [{} for _ in fields]
    for g_mask, a in _scan_points(faces, rho, delta.n):
        key = select(g_mask, a)
        if not key:
            continue
        profiles = cache.get(key)
        if profiles is None:
            selected = tuple(expand(key))
            profiles = by_faces.get(selected)
            if profiles is None:
                profiles = by_faces[selected] = profile_from_faces(selected, fields)
            cache[key] = profiles
        shift = g_mask.bit_count() + 1
        for profile, first_hit in zip(profiles, first_hits):
            for i, betti in enumerate(profile.betti, shift - 1):
                if betti and i < dim_ring and i not in first_hit:
                    first_hit[i] = CohomologyWitness(i, a, i - shift, betti)
    depths = [min(first_hit, default=dim_ring) for first_hit in first_hits]
    return {f: DepthReport(f, d, dim_ring, d == dim_ring, first_hit.get(d), size)
            for f, d, first_hit in zip(fields, depths, first_hits)}


def depth_reports(
    ideal: MonomialIdeal, fields: Sequence[FieldSpec], budget: int = DEFAULT_BUDGET
) -> dict[FieldSpec, DepthReport]:
    """Depth of S/I over each field of the battery by one scan of graded
    pieces of local cohomology, Delta_a selected by the generators of I."""
    if ideal.is_unit():
        raise ValueError("depth of the zero ring is rejected")
    delta = complex_of_ideal(ideal)
    faces = delta.sorted_faces()
    select, expand = _generator_selection(faces, [g.exps for g in ideal.gens])
    return _scan_reports(delta, faces, ideal.rho(), fields, budget, select, expand)


def depth_via_takayama(
    ideal: MonomialIdeal, field: FieldSpec = QQ, budget: int = DEFAULT_BUDGET
) -> DepthReport:
    """One field's report of depth_reports."""
    return depth_reports(ideal, (field,), budget)[field]


def _symbolic_rho(delta: SimplicialComplex, ell: int) -> tuple[int, ...]:
    """rho of I_Delta^(ell) without its generators: ell off the cone vertices
    (those in every facet) and 0 on them."""
    cone = delta.cone_vertices()
    return tuple(0 if v in cone else ell for v in range(1, delta.n + 1))


def _symbolic_depth_reports(
    delta: SimplicialComplex, ell: int, fields: Sequence[FieldSpec], budget: int
) -> dict[FieldSpec, DepthReport]:
    """Depth of S/I_Delta^(ell) by the facet-form scan (module docstring)."""
    if delta.n < 1 or delta.is_void():
        raise ValueError("symbolic powers need a nonvoid complex on at least one vertex")
    facets = delta.facets
    return _scan_reports(
        delta, delta.sorted_faces(), _symbolic_rho(delta, ell), fields, budget,
        select=lambda g_mask, a: _facet_selection(facets, g_mask, a, ell),
        expand=generated_faces,
    )


# -- squares and symbolic squares ----------------------------------------------


def square_depth_reports(
    delta: SimplicialComplex, fields: Sequence[FieldSpec], budget: int = DEFAULT_BUDGET
) -> dict[FieldSpec, DepthReport]:
    """Depth of S/I_Delta^2: in facet form when I^2 = I^(2), which the
    special-triangle criterion decides without building either power (module
    docstring), else by the generators of I^2."""
    ideal = stanley_reisner(delta)
    if not delta.is_void() and symbolic2_equals_square(ideal).equal:
        return _symbolic_depth_reports(delta, 2, fields, budget)
    return depth_reports(ideal.power(2), fields, budget)


def symbolic_square_depth_reports(
    delta: SimplicialComplex, fields: Sequence[FieldSpec], budget: int = DEFAULT_BUDGET
) -> dict[FieldSpec, DepthReport]:
    """Depth of S/I_Delta^(2), scanned in facet form; no generator of the
    symbolic square is built."""
    return _symbolic_depth_reports(delta, 2, fields, budget)


def square_depth_report(
    delta: SimplicialComplex, field: FieldSpec = QQ, budget: int = DEFAULT_BUDGET
) -> DepthReport:
    """One field's report of square_depth_reports."""
    return square_depth_reports(delta, (field,), budget)[field]


def symbolic_square_depth_report(
    delta: SimplicialComplex, field: FieldSpec = QQ, budget: int = DEFAULT_BUDGET
) -> DepthReport:
    """One field's report of symbolic_square_depth_reports."""
    return symbolic_square_depth_reports(delta, (field,), budget)[field]


def is_cm_square(
    delta: SimplicialComplex, fields: Sequence[FieldSpec], budget: int = DEFAULT_BUDGET
) -> dict[FieldSpec, bool]:
    """Is S/I_Delta^2 Cohen-Macaulay over each field of the battery?

    By the join rule the square of a join is Cohen-Macaulay iff the squares
    of all its join factors are, so each factor gets its own battery scan; a
    scan of the whole join would cover the product of the factors' points.
    Each factor is scanned by square_depth_reports, in facet form when its
    square equals its symbolic square (module docstring).  Stops as soon as
    every field is False.
    """
    verdicts = dict.fromkeys(fields, True)
    for factor in delta.join_factors():
        if not any(verdicts.values()):
            break
        for f, report in square_depth_reports(factor, fields, budget).items():
            verdicts[f] = verdicts[f] and report.is_cm
    return verdicts
