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

A point's pieces sit at i = |G_a| + 1 + k for the homology degrees k >= -1
of Delta_a, so at i >= |G_a|.  Along the scan, a field's running depth is
the lowest degree of a piece found so far (dim S/I before any), and bound
is the largest running depth over the battery: a piece at i >= bound lowers
no field's depth and replaces no witness.  Three lemmas follow.  The stop:
faces come sorted by size, so from the first point with |G_a| >= bound on
no point can reach a degree below bound, and the scan ends there.  The
cut: at a point with |G_a| < bound only the homology degrees
k < bound - |G_a| - 1 of Delta_a can matter, and those need the boundary
maps d_i with i <= bound - |G_a| - 1 alone, so no higher map is reduced.
The last layer: at |G_a| = bound - 1 the cut leaves ~H_{-1} alone, which
is nonzero (of dimension 1) iff Delta_a = {emptyset}, the key 1, so no
Delta_a there is evaluated: its piece is read off the key.  The bound
starts at dim S/I and only falls, and |G_a| only rises, so a Delta_a
evaluated under one cut serves every later point that shares it.  Depths,
witnesses and scan_size are those of the scan without any of the three.

Each Delta_a is named by a bitset over the positions of
Delta(I).sorted_faces(): bit p is set iff face p lies in Delta_a, and 0 is
the void complex.  The complex's face index (SimplicialComplex.face_index,
built once per complex) owns that format: both forms select by its
tables, and profile_from_faces evaluates a Delta_a off the same index, so
no face list is built per point or per evaluation.  The homology memo
(homology.HomologyMemo) keys its profiles by the int, so each Delta_a is
evaluated once per call.  A scan makes its own memo, or shares its
caller's when that one is over the same complex: paper_audit passes one
memo to its link walks, its symbolic-square scan and the per-field calls
for an unequal square, whose Delta(I^2) is Delta; a link is a Delta_a
(FaceIndex.link).  The generator form scans a serving memo's whole battery
at once, and the memo holds those reports for the ideal, so the audit's
per-field calls walk the square once.  In the generator form each point
selects Delta_a by masks alone: the sets mb = {i outside G_a : b_i > a_i},
one per generator x^b, come from words packed once per ideal, and
Delta_a is the faces avoiding G_a that lack every mb, from the index's
table of the faces containing each vertex.  No face is visited per point.

For a symbolic power I = I_Delta^(l) no generator is needed (Minh-Trung
2011): Delta_a(I) is generated by the sets F - G_a over the facets F of
Delta that contain G_a and satisfy sum_{i not in F} a_i <= l - 1, and
rho_j = l off the cone vertices (those in every facet) and 0 on them.  As
a bitset, Delta_a is the OR of the faces inside each such F, less the
faces meeting G_a.  The symbolic-square scan runs in this facet form as a
star walk: each face G is rooted at its link record (FaceIndex.link) and
skipped when its link is a cone; at any other G the facets of its star are
listed once, and the free coordinates are walked depth first in the scan's
product order, carrying the live facets.  Two lemmas prune it.
Monotonicity: raising a_j only shrinks the live set, hence Delta_a, so
once Delta_a is void every larger value of a_j, subtree included, is void.
Cones: the sets F - G_a are pairwise incomparable (the facets are), so
they are the facets of Delta_a, and when they share a vertex Delta_a is a
cone, acyclic over every field; a cone stays a cone or turns void as
facets drop out, so its larger values and subtree go too.  Every point
the walk leaves out has no homology, and the points it yields come in the
generator form's order, through the same loop, so reports are unchanged;
scan_size remains the upfront count of the whole space.  The walk reads
the scan's running bound: it ends where the scan stops, and in the last
layer it leaves out every face that is no facet, since a generator F - G_a
is empty only for F = G_a, so Delta_a is {emptyset} only at a facet, and
no point at another face of that layer has a piece below the bound.  The generator form applied to symbolic_power(Delta, 2),
and the per-point facet selection, are kept as the test suite's oracles.

The square I_Delta^2 is scanned in facet form as well whenever it equals
I_Delta^(2), which the special-triangle criterion decides without building
either power.  Then S/I^2 and S/I^(2) are one ring: the same minimal
generators, rho, points and Delta_a, so the same report, depth, witness and
scan_size included.  The two forms even have equal scan sizes on every
complex (rho of I^2 is 2 exactly off the cone vertices), so a budget
refusal names the same requirement on either route, and
check_square_budget can refuse both from the faces alone.  Only a square that
differs from the symbolic square is built and scanned in generator form;
the generator form of every square is the test suite's oracle.

A join is answered from its factors and never scanned whole.  For
Delta = A * B on disjoint vertex sets, with r the depth of a factor's S/I and
s that of its square or symbolic square (H.T. Ha, N.V. Trung, T.N. Trung,
Math. Z. 282 (2016) for I^2; Ha, Nguyen, Trung, Trung, Math. Z. 294 (2020)
for I^(2)),

    r_Delta = r_A + r_B,    s_Delta = min(r_A + r_B + 1, s_A + r_B, r_A + s_B),

the dimensions add, and each cone vertex adds one to depth and dim.  So when
Delta has two or more join factors besides the cone simplex (an unused vertex
is one: the complex {emptyset} on one vertex), each of them gets two scans,
S/I in facet form at l = 1 and the power, which share one homology memo
over the factor, kept by the caller's memo over Delta, and the factors fold
pairwise; their scan sizes add where a scan of the whole join would multiply
them.  A caller that asks for both powers of a join under one memo, as
paper_audit does, scans each factor's S/I and equal square twice, and the
factor's memo answers every Delta_a of the second scan.
A factor's power is scanned directly, not through the public entry points:
a block of the finest join decomposition is never itself a join, so it is
not split again.  The budget is checked once per call, against the whole
ring's scan size, from the faces, before any other work; no factor scan is
larger.  A join's report has no witness: its ``factors`` hold each factor's
two reports, whose witnesses certify the fold.  The whole-join scans in
both forms are the test suite's oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from itertools import product
from typing import Callable, Iterable, Iterator, Sequence

from .bits import bits, pack, unpack
from .complexes import FaceIndex, SimplicialComplex
# profile_from_faces is not called here: perfbench's tracer test reads it off this module
from .homology import QQ, FieldSpec, HomologyMemo, profile_from_faces  # noqa: F401
from .ideals import MonomialIdeal, complex_of_ideal, stanley_reisner, symbolic2_equals_square

DEFAULT_BUDGET = 10**6


class BudgetExceeded(Exception):
    """The scan would visit more points than the budget allows."""

    def __init__(self, required: int, budget: int):
        self.required = required
        self.budget = budget
        super().__init__(f"scan needs {required} points, budget is {budget}")


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
    # a join's (vertices, S/I report, power report) per non-cone factor, else ()
    factors: tuple[tuple[tuple[int, ...], DepthReport, DepthReport], ...] = ()


# -- the degree-selected subcomplex --------------------------------------------
#
# Both forms name Delta_a by its bitset over the faces (module docstring) and
# read their tables from Delta's face index, built once per complex.  A
# form's walk yields (g_mask, a, Delta_a) for its scan points
# in scan order, leaving out points whose Delta_a is void or (facet form) a
# cone.

Select = Callable[[int, Sequence[int]], int]
Walk = Iterator[tuple[int, tuple[int, ...], int]]
Bound = Callable[[], int]  # the scan's running bound, read as the walk goes


def _generator_selection(gens: Sequence[tuple[int, ...]], index: FaceIndex) -> Select:
    """``select(g_mask, a)`` of the generator-form scan; ``index`` is the face
    index of Delta(I) on n vertices, ``gens`` are the exponent vectors of
    its generators.

    For each generator b, mb = {j outside G_a : b_j > a_j}; a face F of
    Delta_a avoids G_a and misses a vertex of every mb, and an empty mb
    leaves Delta_a void.  Exponents are packed in n-bit lanes, one per level
    k below the largest exponent: once per ideal, lane k of a generator's
    word is {j : b_j > k}; at a point, lane k of ``at`` is {j : a_j = k}.
    Lane k of their AND is then {j : a_j = k < b_j}, so the AND is zero iff
    mb is empty, and mb is the OR of its lanes (G_a drops out because a is
    negative there).  Delta_a is the faces avoiding G_a ANDed with, per mb,
    the faces lacking mb; the latter is remembered per scan, keyed by the
    AND, from the vertex table.  No face is visited per point.
    """
    n, table, everything = index.n, index.containing, index.everything
    top = max((e for b in gens for e in b), default=0)
    words = [sum(1 << (k * n + j) for k in range(top) for j, e in enumerate(b) if e > k)
             for b in gens]
    avoiding = lru_cache(maxsize=1)(index.avoiding)  # scan points come grouped by G

    class Lacking(dict):
        def __missing__(self, lanes: int) -> int:
            holding = everything
            for low in bits(lanes):
                holding &= table[(low.bit_length() - 1) % n]
            self[lanes] = everything & ~holding
            return self[lanes]

    lacking = Lacking()

    def select(g_mask: int, a: Sequence[int]) -> int:
        at = 0
        for j, e in enumerate(a):
            if 0 <= e < top:
                at |= 1 << (e * n + j)
        mbs = {word & at for word in words}
        if 0 in mbs:
            return 0
        selected = avoiding(g_mask)
        for lanes in mbs:
            selected &= lacking[lanes]
        return selected

    return select


def _generator_walk(gens: Sequence[tuple[int, ...]], index: FaceIndex,
                    rho: Sequence[int], bound: Bound) -> Walk:
    """The generator-form walk: every scan point, selected one at a time.

    ``bound`` is not read: in this form Delta_a = {emptyset} occurs at faces
    that are no facet, so the last layer is walked in full.  The claw,
    facets {1,3}, {2,3}, {3,4}, has I^2 != I^(2), and its square has depth 1
    with witness a = (1, 1, -1, 1), at G = {3} in homology degree -1, found
    at |G_a| = 1 = bound - 1.
    """
    select = _generator_selection(gens, index)
    for g_mask, a in _scan_points(index.faces, rho, index.n):
        key = select(g_mask, a)
        if key:
            yield g_mask, a, key


def _facet_walk(ell: int, index: FaceIndex, rho: Sequence[int], bound: Bound) -> Walk:
    """The facet-form walk of I_Delta^(ell), ``index`` Delta's face index: the
    scan points whose Delta_a is neither void nor a cone, in scan order,
    each with Delta_a as its bitset.

    Each face G = G_a starts from its link record (FaceIndex.link): the
    record's key is the root's Delta_a.  A face whose key is 0 yields
    nothing: lk G is a cone, its apex lies in every facet of G's star and so
    in every generator F - G, and every Delta_a at G is a cone or void (a
    face missing a cone vertex is one such).  At every other face the star
    lists the facets F containing G, read off the index's per-vertex facet
    table, each with its part, the faces inside F that avoid G, and its
    generator F - G.  The free coordinates are walked depth first, vertex 1
    slowest, carrying the live facets (outside sum <= ell - 1) as bitmasks.
    By the two lemmas of the module docstring, the first value of a_j that
    leaves Delta_a void or a cone ends that coordinate's loop, subtree
    included.  Delta_a of a live set is the OR of its parts, and a cone when
    its generators share a vertex; both are worked out once per live set,
    and only yielded points get their degree tuple.

    ``bound()`` is the scan's running bound, read as each face starts.  The
    walk ends at the first face G with |G| >= bound(), where the scan would
    stop (the stop lemma), and by the last-layer lemma (module docstring) a
    face with |G| = bound() - 1 is walked only when it is a facet, whose
    link is {emptyset}, key 1.  A bound above every face size, such as
    n + 2, walks every face.
    """
    n, inside = index.n, index.inside
    for p, g in enumerate(index.faces):
        size, top = g.bit_count(), bound()
        if size >= top:
            return  # the stop: the scan ends at the first point this large
        if size == top - 1 and g not in inside:
            continue  # the last layer, off the facets: no Delta_a at G is {emptyset}
        key = index.link(p).key
        if not key:
            continue  # lk G is a cone: so is, or void, every Delta_a at G
        free = [j for j in range(n) if not g >> j & 1]
        avoiding = index.avoiding(g)
        star = [(f, inside[f] & avoiding) for f in index.star(g)]
        parts = [part for _, part in star]
        rests = [f & ~g for f, _ in star]
        outs = [sum(1 << s for s, (f, _) in enumerate(star) if not f >> j & 1) for j in free]
        root = (1 << len(star)) - 1  # every facet of the star is live at a = 0
        keys = {root: key}

        def key_of(live: int) -> int:
            """Delta_a of a live set, 0 when it is void or a cone."""
            key, apex, rest = 0, -1, live
            while rest:
                low = rest & -rest
                s = low.bit_length() - 1
                key |= parts[s]
                apex &= rests[s]
                rest ^= low
            keys[live] = key = 0 if apex else key
            return key

        # the odometer over the free coordinates, last one fastest: a holds
        # the point, and within[d][t] the live facets of outside sum <= t
        # once the coordinates before free[d] are set
        a = [-1 if g >> j & 1 else 0 for j in range(n)]
        yield g, tuple(a), key
        last = len(free) - 1
        within = [(root,) * ell] * len(free)
        d = last
        while d >= 0:
            j = free[d]
            v = a[j] + 1
            if v < rho[j]:
                # a_j = v adds v to the outside sum of every facet off j
                out, base = outs[d], within[d]
                live = base[-1] & ~out | base[-1 - v] & out
                key = keys.get(live)
                if key is None:
                    key = key_of(live)
                if key:
                    a[j] = v
                    if d < last:
                        stay = ~out
                        sums = tuple(base[t] & stay | (base[t - v] & out if t >= v else 0)
                                     for t in range(ell))
                        for e in range(d + 1, len(free)):
                            a[free[e]] = 0
                            within[e] = sums
                        d = last
                    yield g, tuple(a), key
                    continue
            d -= 1  # void or a cone from here on: every larger value of a_j too


# -- the depth scan ------------------------------------------------------------


def _scan_size(faces: Iterable[int], rho: Sequence[int]) -> int:
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


def _checked_size(faces: Iterable[int], rho: Sequence[int], budget: int) -> int:
    """The scan size, or BudgetExceeded when it is over the budget."""
    size = _scan_size(faces, rho)
    if size > budget:
        raise BudgetExceeded(size, budget)
    return size


def _scan_points(faces: Sequence[int], rho: Sequence[int], n: int):
    """(G, a) pairs in a fixed total order: faces sorted by (size, vertices),
    then the nonnegative part in lexicographic product order."""
    for g in faces:
        for a in product(*((-1,) if g >> j & 1 else range(rho[j]) for j in range(n))):
            yield g, a


def _scan_reports(
    delta: SimplicialComplex,
    rho: Sequence[int],
    fields: Sequence[FieldSpec],
    budget: int,
    walk: Callable[[FaceIndex, Sequence[int], Bound], Walk],
    memo: HomologyMemo | None = None,
) -> dict[FieldSpec, DepthReport]:
    """The depth scan shared by the generator and facet forms, per field.

    ``walk(index, rho, bound)`` is the form's walk, which reads its tables
    from ``index``, the face index of the memo's complex, and names each
    Delta_a by its bitset over delta.sorted_faces(); ``bound()`` is the
    scan's running bound (below), by which a walk may leave out points that
    have no piece below it.  Equal bitsets are equal complexes, so each
    Delta_a is evaluated once per memo, off that index.  The caller's memo
    serves when its complex is ``delta`` and its battery holds ``fields``;
    else the scan makes its own.  The memo evaluates a miss over its whole
    battery.  The points a walk leaves out, void or cones, or off the
    facets in the last layer, have no piece below the bound.  The search
    space (see module docstring) is sized upfront, from the faces, before
    the face index is built; exceeding the budget raises BudgetExceeded
    rather than truncating, and scan_size is that upfront count.  Each
    field's witness is its first nonvanishing piece in the fixed (i, a)
    order, so reports are deterministic regardless of evaluation strategy.

    Each field keeps its running depth, and ``bound`` is their maximum,
    updated only when a field's depth falls.  By the stop and cut lemmas
    (module docstring) the walk ends at the first point with
    |G_a| >= bound, and a new Delta_a is evaluated only in homology degrees
    below bound - |G_a| - 1.  By the last-layer lemma a point with
    |G_a| = bound - 1 is not evaluated at all: its one piece, ~H_{-1}, is 1
    at the key 1 and 0 at every other key, and it sets depth and witness as
    a profile would.  Since |G_a| never falls and ``bound`` never
    rises along the walk, a profile stored under a cut covers every later
    use of its key in this scan; its higher degrees are unknown, not zero,
    and the memo hands it to no request above its cut.
    """
    size = _checked_size(delta.face_masks, rho, budget)
    dim_ring = bound = delta.dim + 1
    memo = HomologyMemo.serving(memo, delta, fields)
    depths = [dim_ring] * len(fields)
    witnesses: list[CohomologyWitness | None] = [None] * len(fields)
    for g_mask, a, key in walk(memo.delta.face_index, rho, lambda: bound):
        g = g_mask.bit_count()
        if g >= bound:
            break
        cut = bound - g - 1
        if cut:
            rows = [profile.betti for profile in memo.profiles(key, fields, cut)]
        else:  # the last layer: ~H_{-1} alone, nonzero iff Delta_a = {emptyset} (key 1)
            rows = [(int(key == 1),)] * len(fields)
        for k, row in enumerate(rows):
            # the piece at i is entry i - g; only a degree below this field's depth counts
            for i, betti in enumerate(row[:max(depths[k] - g, 0)], g):
                if betti:
                    depths[k], witnesses[k] = i, CohomologyWitness(i, a, i - g - 1, betti)
                    bound = max(depths)
                    break
    return {f: DepthReport(f, d, dim_ring, d == dim_ring, w, size)
            for f, d, w in zip(fields, depths, witnesses)}


def depth_reports(
    ideal: MonomialIdeal,
    fields: Sequence[FieldSpec],
    budget: int = DEFAULT_BUDGET,
    memo: HomologyMemo | None = None,
) -> dict[FieldSpec, DepthReport]:
    """Depth of S/I over each field of the battery by one scan of graded
    pieces of local cohomology, Delta_a selected by the generators of I;
    ``memo`` as in _scan_reports.  The scan runs over the whole battery of
    the memo that serves it, which holds the reports under the ideal
    (memo.scans): a later request for that ideal and fields of the battery
    under the same memo builds no Delta(I) and walks nothing.  A held scan
    over the request's budget raises BudgetExceeded, as a fresh scan
    would."""
    if ideal.is_unit():
        raise ValueError("depth of the zero ring is rejected")
    held = memo.scans.get(ideal) if memo is not None else None
    if held is None or not held.keys() >= set(fields):
        delta = complex_of_ideal(ideal)
        walk = partial(_generator_walk, [g.exps for g in ideal.gens])
        memo = HomologyMemo.serving(memo, delta, fields)
        held = memo.scans[ideal] = _scan_reports(delta, ideal.rho(), memo.fields, budget, walk,
                                                 memo)
    size = max((r.scan_size for r in held.values()), default=0)
    if size > budget:
        raise BudgetExceeded(size, budget)
    return {f: held[f] for f in fields}


def depth_via_takayama(
    ideal: MonomialIdeal,
    field: FieldSpec = QQ,
    budget: int = DEFAULT_BUDGET,
    memo: HomologyMemo | None = None,
) -> DepthReport:
    """One field's report of depth_reports."""
    return depth_reports(ideal, (field,), budget, memo)[field]


def _symbolic_rho(delta: SimplicialComplex, ell: int) -> tuple[int, ...]:
    """rho of I_Delta^(ell) without its generators: ell off the cone vertices
    (those in every facet) and 0 on them."""
    cone = delta.cone_vertices()
    return tuple(0 if v in cone else ell for v in range(1, delta.n + 1))


def _symbolic_depth_reports(
    delta: SimplicialComplex,
    ell: int,
    fields: Sequence[FieldSpec],
    budget: int,
    memo: HomologyMemo | None = None,
) -> dict[FieldSpec, DepthReport]:
    """Depth of S/I_Delta^(ell) by the facet-form scan (module docstring)."""
    if delta.n < 1 or delta.is_void():
        raise ValueError("a depth scan needs a nonvoid complex on at least one vertex")
    return _scan_reports(delta, _symbolic_rho(delta, ell), fields, budget,
                         partial(_facet_walk, ell), memo)


# -- squares and symbolic squares ----------------------------------------------

def _fold(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """(depth S/I, depth of its power) of a join from those of two factors."""
    (r_a, s_a), (r_b, s_b) = a, b
    return r_a + r_b, min(r_a + r_b + 1, s_a + r_b, r_a + s_b)


def _second_power_reports(delta: SimplicialComplex, fields: Sequence[FieldSpec], budget: int,
                          square: bool, memo: HomologyMemo | None) -> dict[FieldSpec, DepthReport]:
    """S/I_Delta^2 when ``square`` is set, else S/I_Delta^(2), over each field:
    a join folded from its factors, whose S/I and power are scanned directly
    under their memos from ``memo`` (module docstring)."""
    size = check_square_budget(delta, budget) if delta.n else 0
    cone = pack(delta.cone_vertices())
    blocks = [b for b in delta.join_blocks() if b != cone]
    if len(blocks) < 2:
        return _unfolded_reports(delta, fields, budget, square, memo)
    memo = HomologyMemo.serving(memo, delta, fields)
    factors = []
    for block in blocks:
        factor = delta.restrict(unpack(block))
        shared = memo.factor(factor)
        factors.append((unpack(block), _symbolic_depth_reports(factor, 1, fields, budget, shared),
                        _unfolded_reports(factor, fields, budget, square, shared)))
    c = cone.bit_count()
    out = {}
    for f in fields:
        reports = tuple((v, radical[f], powered[f]) for v, radical, powered in factors)
        _, depth = reduce(_fold, [(r.depth, p.depth) for _, r, p in reports])
        dim = sum(p.dim for _, _, p in reports)
        out[f] = DepthReport(f, depth + c, dim + c, depth == dim, None, size, reports)
    return out


def _unfolded_reports(delta: SimplicialComplex, fields: Sequence[FieldSpec], budget: int,
                      square: bool, memo: HomologyMemo | None) -> dict[FieldSpec, DepthReport]:
    """The power of _second_power_reports on a complex scanned whole.  A
    square that the special-triangle criterion finds unequal to the symbolic
    square is built and scanned in generator form; else the symbolic square
    is scanned in facet form."""
    if square:
        ideal = stanley_reisner(delta)
        if delta.is_void() or not symbolic2_equals_square(ideal).equal:
            return depth_reports(ideal.power(2), fields, budget, memo)
    return _symbolic_depth_reports(delta, 2, fields, budget, memo)


def square_depth_reports(
    delta: SimplicialComplex,
    fields: Sequence[FieldSpec],
    budget: int = DEFAULT_BUDGET,
    memo: HomologyMemo | None = None,
) -> dict[FieldSpec, DepthReport]:
    """Depth of S/I_Delta^2: a join from its factors; else in facet form when
    I^2 = I^(2), which the special-triangle criterion decides without
    building either power, else by the generators of I^2 (module
    docstring).  The budget is checked before any other work.  ``memo``, a
    HomologyMemo over Delta, serves the scans as in
    symbolic_square_depth_reports."""
    return _second_power_reports(delta, fields, budget, True, memo)


def symbolic_square_depth_reports(
    delta: SimplicialComplex,
    fields: Sequence[FieldSpec],
    budget: int = DEFAULT_BUDGET,
    memo: HomologyMemo | None = None,
) -> dict[FieldSpec, DepthReport]:
    """Depth of S/I_Delta^(2): a join from its factors, else scanned in facet
    form; no generator of the symbolic square is built.  ``memo``, a
    HomologyMemo over Delta, serves the scan of Delta itself, and a join's
    factor scans, which have other faces, take their memos from it."""
    return _second_power_reports(delta, fields, budget, False, memo)


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


def check_square_budget(delta: SimplicialComplex, budget: int) -> int:
    """The scan size of S/I_Delta^2 and S/I_Delta^(2), or BudgetExceeded when
    it is over ``budget``.  Both forms of either ring have the facet form's
    scan size (module docstring), and so does a join, whose factor scans are
    each no larger.  Only the faces are listed, so a caller can refuse before
    any other work; the minimal non-faces are not needed."""
    return _checked_size(delta.face_masks, _symbolic_rho(delta, 2), budget)
