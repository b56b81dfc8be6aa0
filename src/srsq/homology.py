"""Exact reduced simplicial homology over Q and F_p, with the
Reisner (Cohen-Macaulay) and Stanley (Gorenstein) criteria.

Ranks are computed exactly.  Exactness is non-negotiable here; a single
wrong rank flips a Cohen-Macaulay verdict.

profile_from_faces evaluates a subcomplex of a complex Delta named by its
key, a bitset over Delta.sorted_faces(), off Delta's face index
(SimplicialComplex.face_index), which is built once per complex and holds
no homology: the subcomplex's k-vertex faces are its key's slice of the
k-th size class, and the signed boundary columns of each class are built
once, on first need.  No face list is built per evaluation.

Every boundary entry is 0 or +-1, and eliminating a +-1 pivot is
unimodular, so one elimination serves every field (the elimination phase of
Dumas, Heckenbach, Saunders and Welker, 2003).  profile_from_faces reduces
each map d_i with i >= 2 once: its columns are (rows holding +1, rows
holding -1) bitmasks, and each column is reduced by its lowest entry while
that row holds a kept unit pivot.  A column that would gain a +-2 entry is
set aside and then cleared on every pivot row; over each field,
rank d_i = u + matrix_rank(remainder), for u unit pivots.  matrix_rank is
fraction-free Bareiss elimination over Q and plain modular elimination over
F_p, and sees only remainders, which is where torsion lives (rp2's d_2).

The maps are reduced top-down, and the rows of d_{i+1}'s unit pivots name
faces whose columns d_i leaves out: the clearing ("twist") lemma of
persistent homology (Chen and Kerber, 2011; Bauer, Kerber and Reininghaus,
2014).  It is exact over every field.  A pivot of d_{i+1} is an integer
cycle of d_i with +1 at its pivot row j and other entries only on rows
above j, so column j of d_i is a Z-combination of the columns above it;
going down over the pivot rows, each cleared column lies in the Z-span of
the kept ones, and rank d_i is the rank of the kept columns.

Conventions for the reduced chain complex of a complex Delta:
  * C_{-1} is spanned by the empty face, and the boundary of a vertex is the
    empty face (the augmentation row of the i = 0 matrix);
  * dim ~H_i = dim ker d_i - rank d_{i+1} for i = -1 .. dim Delta;
  * the void complex (no faces at all) has zero homology everywhere, while
    the irrelevant complex {0} has ~H_{-1} = K.

Reisner, Stanley and local Gorenstein take the field battery and read their
links from SimplicialComplex.link_walk, the one walk over Delta's own faces;
the walk reads each link for the fields that have not failed yet, and the
is_* functions are one-field views.  The walk yields each face's link record
off Delta's face index (FaceIndex.link), built on first need and kept with
the complex from G's star, the AND of a per-vertex table of facet bitsets:
the link's dimension, the meet of the star and the link's key.  A link whose
facets share a vertex (G is not closed: the meet has a vertex outside G) is
a cone, acyclic over every field, keyed 0 and decided with no evaluation.  A
HomologyMemo evaluates each other distinct complex once per call, over the
whole battery: lk G is Delta_a at a = 0 off G, so a link is keyed by its
bitset over Delta.sorted_faces() from the facets of G's star, as the star
walk keys Delta_a, and paper_audit hands one memo to both Gorenstein walks
and to its scans (criterion 8 likewise, per complex, to its Reisner walk
and scans).  No core or link complex is built: lk_core(G) =
lk_Delta(G | cone), and lk v's core has the links lk_Delta(G | the meet of
the star of v), read off v's record.
Adding a fixed set to faces keeps their sorted_faces() order, so witnesses
are those of a walk over the core.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Mapping, Sequence

from .bits import bits, pack, unpack
from .complexes import SimplicialComplex


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True, order=True)
class FieldSpec:
    """Coefficient field: characteristic 0 (rationals) or a prime p."""

    char: int

    def __post_init__(self) -> None:
        if self.char != 0 and not _is_prime(self.char):
            raise ValueError(f"field characteristic must be 0 or prime, got {self.char}")

    @property
    def name(self) -> str:
        return "Q" if self.char == 0 else f"F{self.char}"

    @classmethod
    def parse(cls, text: str) -> "FieldSpec":
        t = text.strip().upper()
        if t in ("Q", "QQ", "0"):
            return cls(0)
        if t.startswith("F") and t[1:].isdigit():
            return cls(int(t[1:]))
        if t.isdigit():
            return cls(int(t))
        raise ValueError(f"cannot parse field {text!r} (use Q, F2, F3, ...)")


QQ = FieldSpec(0)
GF2 = FieldSpec(2)
DEFAULT_FIELDS: tuple[FieldSpec, ...] = (QQ, GF2)


def parse_field_battery(text: str) -> tuple[FieldSpec, ...]:
    """Comma-separated battery of distinct fields, e.g. "Q,F2,F3"."""
    specs = tuple(FieldSpec.parse(part) for part in text.split(",") if part.strip())
    if not specs:
        raise ValueError("empty field battery")
    if len(set(specs)) != len(specs):
        raise ValueError(f"field battery {text!r} names a field twice")
    return specs


# -- exact ranks ---------------------------------------------------------------


def _rank_bareiss(rows: Sequence[Sequence[int]]) -> int:
    if not rows or not rows[0]:
        return 0
    m = [list(r) for r in rows]
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if m[r][col]), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        p = m[row][col]
        for r in range(row + 1, nrows):
            factor = m[r][col]
            mr, mrow = m[r], m[row]
            for c in range(col + 1, ncols):
                mr[c] = (p * mr[c] - factor * mrow[c]) // prev
            mr[col] = 0
        prev = p
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def _rank_modp(rows: Sequence[Sequence[int]], p: int) -> int:
    m = [[e % p for e in r] for r in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if m[r][col]), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = pow(m[row][col], p - 2, p)
        m[row] = [(e * inv) % p for e in m[row]]
        for r in range(row + 1, nrows):
            f = m[r][col]
            if f:
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[row])]
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def matrix_rank(rows: Sequence[Sequence[int]], field: FieldSpec) -> int:
    """Exact rank of an integer matrix over the given field."""
    if field.char == 0:
        return _rank_bareiss(rows)
    return _rank_modp(rows, field.char)


# -- signed boundary columns and homology profiles -----------------------------


_BINARY_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _select(items: Sequence, key: int) -> list:
    """The items at the set bits of ``key``, in order: its binary digits,
    lowest first, made 0 and 1 bytes, select them."""
    return list(compress(items, f"{key:b}"[::-1].encode().translate(_BINARY_DIGITS)))


def _unit_reduce(columns: Iterable[tuple[int, int]]) -> tuple[int, list[list[int]]]:
    """(pivot rows, remainder) with rank = u + rank(remainder) over every
    field, for u = the pivot rows' bit count, of the matrix whose columns
    are (+1 rows, -1 rows) bitmasks.

    Each column is reduced by its lowest entry while that row holds a kept
    pivot, whose lowest entry is +1 (negating a column keeps every rank); the
    pivot rows are those lowest entries.  A column that would gain a +-2
    entry is set aside, then cleared on every pivot row, lowest first, by
    integer multiples of the pivots.  The remainder holds those columns on
    the rows they still reach.  Every step is unimodular, and the pivots are
    unit triangular on their rows, so the ranks hold over Q and every F_p.

    A pivot is an integer combination of the columns, so for a boundary map
    d_{i+1} it is an integer cycle of d_i with +1 at its pivot row j and
    other entries only on rows above j: the clearing lemma of
    profile_from_faces.
    """
    pivots: dict[int, tuple[int, int]] = {}
    stuck = []
    for plus, minus in columns:
        while plus | minus:
            low = (plus | minus) & -(plus | minus)
            if low & minus:
                plus, minus = minus, plus
            pivot = pivots.get(low)
            if pivot is None:
                pivots[low] = (plus, minus)
                break
            p_plus, p_minus = pivot
            if plus & p_minus or minus & p_plus:
                stuck.append((plus, minus))
                break
            up, down = plus | p_minus, minus | p_plus
            plus, minus = up & ~down, down & ~up
    cleared, order = [], sorted(pivots)
    for plus, minus in stuck:
        column = dict.fromkeys(bits(plus), 1) | dict.fromkeys(bits(minus), -1)
        for low in order:
            v = column.pop(low, 0)
            if v:
                p_plus, p_minus = pivots[low]
                for b in bits(p_plus ^ low):
                    column[b] = column.get(b, 0) - v
                for b in bits(p_minus):
                    column[b] = column.get(b, 0) + v
        cleared.append(column)
    rows = sorted({b for column in cleared for b, v in column.items() if v})
    return sum(order), [[column.get(b, 0) for column in cleared] for b in rows]


@dataclass(frozen=True)
class HomologyProfile:
    """dim_K ~H_i for i = -1 .. top; degrees outside the stored range are 0,
    except in a profile cut by profile_from_faces(..., below=h), whose
    degrees from h on are unknown."""

    field: FieldSpec
    betti: tuple[int, ...]  # entry t is degree t - 1

    def betti_number(self, i: int) -> int:
        t = i + 1
        if 0 <= t < len(self.betti):
            return self.betti[t]
        return 0

    def degrees(self) -> range:
        return range(-1, len(self.betti) - 1)

    def euler(self) -> int:
        total = 0
        for i in self.degrees():
            total += self.betti_number(i) if i % 2 == 0 else -self.betti_number(i)
        return total

    def is_zero(self) -> bool:
        return not any(self.betti)

    def as_mapping(self) -> Mapping[int, int]:
        return {i: self.betti_number(i) for i in self.degrees()}


def _forest(edges: Iterable[int]) -> int:
    """The size of a spanning forest of the graph with these edges, by
    union-find: rank d_1 over every field, d_1 being the graph's signed
    incidence matrix."""
    root: dict[int, int] = {}

    def find(v: int) -> int:
        while (parent := root.get(v, v)) != v:
            root[v] = v = root.get(parent, parent)
        return v

    rank = 0
    for edge in edges:
        low = edge & -edge
        u, w = find(low), find(edge ^ low)
        if u != w:
            root[u] = w
            rank += 1
    return rank


def profile_from_faces(
    delta: SimplicialComplex, key: int, fields: Sequence[FieldSpec], *, below: int | None = None
) -> tuple[HomologyProfile, ...]:
    """Reduced homology over each field, in battery order, of the subcomplex
    of ``delta`` named by ``key``, its bitset over delta.sorted_faces().

    The key must name a subcomplex: its faces closed under taking subsets,
    with the empty face unless it is 0 (void complex).  It is evaluated off
    delta.face_index, built once per complex: the k-vertex faces of the
    subcomplex are its key's slice of the k-th size class, in Delta's face
    order, and the columns of d_i are the kept ones of that slice in the
    class's boundary table.  Their rows are positions in Delta's class below,
    which keep the subcomplex's own face order, so the reduction is the one
    of the subcomplex's own face list.

    rank d_0 is 1 when a vertex exists, and rank d_1 is the size of a
    spanning forest of the edges (_forest), the same over every field, so a
    complex of dimension <= 1 needs no matrix.  Each map d_i with i >= 2 is
    reduced once (_unit_reduce), top map first; only the rank of its
    remainder depends on the field.  The unit pivot rows of d_{i+1} clear
    their columns from d_i before it is selected: each such column lies in
    the Z-span of the kept ones (module docstring), so rank d_i, over every
    field, is the kept columns' rank.  rank d_1 = V - c for the c
    components of the edges that d_2 left uncleared, since they span the
    cleared ones.

    With ``below = h``, only the degrees -1 .. h - 1 are evaluated: dim ~H_k
    needs the ranks of d_k and d_{k+1} alone, so no map d_i with i > h is
    built, reduced or ranked (d_h, the top map reduced, is cleared by
    nothing), no size class above h + 1 is touched, and ``betti`` is the
    full tuple cut to its first h + 1 entries (shorter when the complex has
    no degree that high).  The degrees past the cut are unknown, not zero,
    so such a profile must not be read as the complex's homology beyond
    ``h - 1``.
    """
    index = delta.face_index
    length = index.classes_of(key)
    top = length if below is None else min(length, below + 1)
    last = min(top, length - 1)  # the highest class whose map is ranked
    reduced, cleared, rank_d1 = [], 0, 0
    for i in range(last - 1, 1, -1):
        kept = index.size_class(key, i + 1) & ~cleared
        cleared, rest = _unit_reduce(_select(index.columns(i + 1), kept))
        reduced.append((cleared.bit_count(), rest))
    if last >= 2:
        rank_d1 = _forest(_select(index.classes[2], index.size_class(key, 2) & ~cleared))
    sizes = [index.size_class(key, t).bit_count() for t in range(max(top, 0))]

    def betti(ranks: Iterable[int]) -> tuple[int, ...]:
        r = [0, int(length > 1), rank_d1, *ranks, 0]
        return tuple(size - r[t] - r[t + 1] for t, size in enumerate(sizes))

    if not reduced:  # every rank is known: the same Betti numbers over every field
        same = betti(())
        return tuple(HomologyProfile(field, same) for field in fields)
    return tuple(HomologyProfile(field, betti([u + matrix_rank(rest, field)
                                               for u, rest in reversed(reduced)]))
                 for field in fields)


def reduced_homology(delta: SimplicialComplex, field: FieldSpec) -> HomologyProfile:
    return profile_from_faces(delta, delta.face_index.everything, (field,))[0]


class HomologyMemo:
    """The profiles of subcomplexes of one complex Delta over one field
    battery, for the span of one call: the link walks and depth scans that
    one paper_audit, or criterion 8 on one complex, runs on Delta share it.

    A subcomplex is keyed by its bitset over Delta.sorted_faces(), the
    format of Delta's face index (SimplicialComplex.face_index), which the
    scans select Delta_a by and the link walks key lk G by.  An entry is
    (cut, profiles) over the whole battery, in its order, since one
    reduction serves every field; cut is the ``below`` of
    profile_from_faces, None for a full profile.  A cut profile's degrees
    from its cut on are unknown, so it answers only a request at or below
    its cut, and never a full one.  ``profiles`` is the one lookup, and
    evaluates its own misses.  The scans of a join factor of Delta key over
    the factor's faces, so they share the factor's memo, which this one
    keeps for the same span (``factor``).

    ``scans`` holds, per ideal I with Delta(I) = Delta, the reports of the
    one generator-form scan of S/I over the whole battery
    (takayama.depth_reports), so that each later request for I under this
    memo reads them instead of walking again.
    """

    def __init__(self, delta: SimplicialComplex, fields: Sequence[FieldSpec]):
        self.delta = delta
        self.fields = tuple(fields)
        self.scans: dict = {}
        self._entries: dict[int, tuple[int | None, tuple[HomologyProfile, ...]]] = {}
        self._factors: dict[SimplicialComplex, HomologyMemo] = {}

    def factor(self, factor: SimplicialComplex) -> "HomologyMemo":
        """The memo over ``factor``, a join factor of Delta, over this memo's
        battery: one per distinct factor complex."""
        if factor not in self._factors:
            self._factors[factor] = HomologyMemo(factor, self.fields)
        return self._factors[factor]

    @classmethod
    def serving(cls, memo: "HomologyMemo | None", delta: SimplicialComplex,
                fields: Sequence[FieldSpec]) -> "HomologyMemo":
        """``memo`` when its complex is ``delta``, the same faces on the same
        vertex count, and its battery holds every field of ``fields``, else
        a fresh memo for them."""
        if memo is not None and memo.delta == delta and set(fields) <= set(memo.fields):
            return memo
        return cls(delta, fields)

    def profiles(self, key: int, fields: Sequence[FieldSpec],
                 below: int | None = None) -> tuple[HomologyProfile, ...]:
        """The profiles over ``fields``, in their order, of the subcomplex
        keyed ``key``, cut at ``below`` (None: full).  The stored entry
        answers if it does; else the whole battery is evaluated with
        profile_from_faces and stored under this cut."""
        entry = self._entries.get(key)
        if entry is None or entry[0] is not None and (below is None or below > entry[0]):
            entry = self._entries[key] = (below, profile_from_faces(self.delta, key, self.fields,
                                                                    below=below))
        if tuple(fields) == self.fields:
            return entry[1]
        return tuple([entry[1][self.fields.index(f)] for f in fields])


# -- Reisner and Stanley criteria ----------------------------------------------


def _first_failures(delta: SimplicialComplex, fields: Sequence[FieldSpec], sphere: bool,
                    insides: Sequence[int] = (0,),
                    memo: HomologyMemo | None = None) -> dict[FieldSpec, tuple]:
    """Each failing field's first (k, face, degree) in delta.link_walk(insides)
    whose link has reduced homology below its dimension or, with ``sphere``,
    a top homology other than K.  Each link is read for the fields that have
    not failed yet, and the walk stops once every field has.  The walk's
    link records (FaceIndex.link) give each link's dimension and key.  A
    link whose facets share a vertex is a cone, keyed 0 and acyclic over
    every field: it passes Reisner's test and fails the sphere test at its
    dimension, with no evaluation.  Any other link is evaluated once per
    memo, over the memo's battery: lk G is keyed as the star walk keys
    Delta_a at a = 0 off G, by the OR over the facets F of G's star of the
    faces inside F that avoid G."""
    memo = HomologyMemo.serving(memo, delta, fields)
    failures: dict[FieldSpec, tuple] = {}
    live = list(fields)
    for k, face, (link_dim, _, key) in delta.link_walk(insides):
        if not key:  # a cone
            if sphere:
                failures.update((f, (k, unpack(face), link_dim)) for f in live)
                break
            continue
        for profile in memo.profiles(key, live):
            bad = next((i for i in range(-1, link_dim) if profile.betti_number(i)), None)
            if bad is None and sphere and profile.betti_number(link_dim) != 1:
                bad = link_dim
            if bad is not None:
                failures[profile.field] = (k, unpack(face), bad)
                live.remove(profile.field)
        if not live:
            break
    return failures


@dataclass(frozen=True)
class ReisnerReport:
    """Cohen-Macaulay verdict with the first failing (face, degree) witness."""

    is_cm: bool
    field: FieldSpec
    witness_face: tuple[int, ...] | None = None
    witness_degree: int | None = None

    def __bool__(self) -> bool:
        return self.is_cm


def cohen_macaulay_reports(delta: SimplicialComplex, fields: Sequence[FieldSpec],
                           memo: HomologyMemo | None = None) -> dict[FieldSpec, ReisnerReport]:
    """Reisner's criterion over each field: every link (the empty face
    included) has vanishing reduced homology below its dimension; ``memo``
    as in gorenstein_reports."""
    if delta.is_void():
        raise ValueError("Cohen-Macaulayness of the void complex is undefined")
    bad = _first_failures(delta, fields, False, (0,), memo)
    return {f: ReisnerReport(f not in bad, f, *bad.get(f, ())[1:]) for f in fields}


def is_cohen_macaulay(delta: SimplicialComplex, field: FieldSpec) -> ReisnerReport:
    """One field's report of cohen_macaulay_reports."""
    return cohen_macaulay_reports(delta, (field,))[field]


@dataclass(frozen=True)
class GorensteinReport:
    """Stanley-criterion verdict on the core, with the Euler sanity value.

    A necessary condition is chi~(core) = (-1)^(dim core); the full test asks
    every link inside the core to be a K-homology sphere of its dimension.
    """

    is_gorenstein: bool
    field: FieldSpec
    core_euler: int
    expected_euler: int
    witness_face: tuple[int, ...] | None = None
    witness_degree: int | None = None

    def __bool__(self) -> bool:
        return self.is_gorenstein


def gorenstein_reports(delta: SimplicialComplex, fields: Sequence[FieldSpec],
                       memo: HomologyMemo | None = None) -> dict[FieldSpec, GorensteinReport]:
    """Stanley's criterion on the core over each field, read off the faces of
    Delta that contain the cone vertices, so the witness names input vertices.
    ``memo``, a HomologyMemo over Delta, is shared with the caller's other
    walks and scans."""
    if delta.is_void():
        raise ValueError("Gorensteinness of the void complex is undefined")
    cone = pack(delta.cone_vertices())
    c = cone.bit_count()
    chi = sum(1 if (m.bit_count() - c) % 2 else -1 for m in delta.face_masks if m & cone == cone)
    expected = 1 if (delta.dim - c) % 2 == 0 else -1
    bad = _first_failures(delta, fields, True, (cone,), memo)
    return {f: GorensteinReport(f not in bad, f, chi, expected, *bad.get(f, ())[1:]) for f in fields}


def is_gorenstein(delta: SimplicialComplex, field: FieldSpec) -> GorensteinReport:
    """One field's report of gorenstein_reports."""
    return gorenstein_reports(delta, (field,))[field]


@dataclass(frozen=True)
class LocallyGorensteinReport:
    holds: bool
    field: FieldSpec
    witness_vertex: int | None = None

    def __bool__(self) -> bool:
        return self.holds


def locally_gorenstein_reports(delta: SimplicialComplex, fields: Sequence[FieldSpec],
                               memo: HomologyMemo | None = None
                               ) -> dict[FieldSpec, LocallyGorensteinReport]:
    """Every vertex link is Gorenstein, over each field (module docstring);
    ``memo`` as in gorenstein_reports."""
    if delta.is_void():
        raise ValueError("Gorensteinness of the void complex is undefined")
    vertices = unpack(delta.support)
    # the meet of each vertex's star, off its record: the vertex faces follow
    # the empty face, in vertex order
    insides = [delta.face_index.link(p).meet for p in range(1, len(vertices) + 1)]
    bad = _first_failures(delta, fields, True, insides, memo)
    return {f: LocallyGorensteinReport(f not in bad, f, vertices[bad[f][0]] if f in bad else None)
            for f in fields}


def is_locally_gorenstein(delta: SimplicialComplex, field: FieldSpec) -> LocallyGorensteinReport:
    """One field's report of locally_gorenstein_reports."""
    return locally_gorenstein_reports(delta, (field,))[field]
