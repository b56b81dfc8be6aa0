"""Exact reduced simplicial homology over Q and F_p, with the
Reisner (Cohen-Macaulay) and Stanley (Gorenstein) criteria.

Ranks are computed exactly: bitmask elimination for F_2, plain modular
elimination for other primes, and fraction-free Bareiss elimination over
arbitrary precision integers for Q.  Exactness is non-negotiable here; a
single wrong rank flips a Cohen-Macaulay verdict.

Most Q ranks are read off F_2 instead.  For an integer matrix M,
rank_Q M >= rank_F2 M, since a minor that is odd is nonzero; and over any
field rank d_t + rank d_{t+1} <= |C_t|, since d d = 0, with equality exactly
when ~H_t vanishes.  So where F_2 homology vanishes in degree t, the Q ranks
of both maps next to t equal their F_2 ranks, and profile_from_faces runs
Bareiss only on a map between two consecutive degrees that both carry F_2
homology (2-torsion, as in rp2's d_2).

Conventions for the reduced chain complex of a complex Delta:
  * C_{-1} is spanned by the empty face, and the boundary of a vertex is the
    empty face (the augmentation row of the i = 0 matrix);
  * dim ~H_i = dim ker d_i - rank d_{i+1} for i = -1 .. dim Delta;
  * the void complex (no faces at all) has zero homology everywhere, while
    the irrelevant complex {0} has ~H_{-1} = K.

Reisner, Stanley and local Gorenstein share one walk over Delta's own faces,
and no core or link complex is built: lk_core(G) = lk_Delta(G | cone), and
lk v's core has the links lk_Delta(G | the meet of the facets through v).
Adding a fixed set to faces keeps their sorted_faces() order, so witnesses
are those of a walk over the core.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Mapping, Sequence

from .bits import bits, generated_faces, pack, unpack
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


def _rank_gf2(rows: Iterable[int]) -> int:
    """Rank of rows given as bitmasks over F_2."""
    basis: dict[int, int] = {}
    rank = 0
    for r in rows:
        while r:
            lead = r & -r
            if lead in basis:
                r ^= basis[lead]
            else:
                basis[lead] = r
                rank += 1
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
    if field.char == 2:
        packed = []
        for r in rows:
            bitsrow = 0
            for j, e in enumerate(r):
                if e % 2:
                    bitsrow |= 1 << j
            packed.append(bitsrow)
        return _rank_gf2(packed)
    return _rank_modp(rows, field.char)


# -- boundary matrices and homology profiles ----------------------------------


def _faces_by_dim(faces: Iterable[int]) -> list[list[int]]:
    """Group face masks by cardinality, keeping their order; index k holds
    the k-vertex faces.  Index 0 is [0] when the empty face exists.  Exact
    ranks do not depend on row or column order, so no group is sorted."""
    grouped: dict[int, list[int]] = {}
    for m in faces:
        grouped.setdefault(m.bit_count(), []).append(m)
    if not grouped:
        return []
    return [grouped.get(k, []) for k in range(max(grouped) + 1)]


def _boundary_from_groups(groups: list[list[int]], i: int) -> list[list[int]]:
    """Matrix of d_i: (i-faces) -> (i-1 faces); i is the simplex dimension.
    Rows and columns keep the group order; the j-th lowest bit has sign (-1)^j."""
    if i == -1:
        return []
    cols = groups[i + 1] if i + 1 < len(groups) else []
    if i == 0:
        return [[1] * len(cols)] if cols else []
    rows_index = {m: r for r, m in enumerate(groups[i])}
    matrix = [[0] * len(cols) for _ in groups[i]]
    for c, m in enumerate(cols):
        for j, b in enumerate(bits(m)):
            matrix[rows_index[m ^ b]][c] = -1 if j % 2 else 1
    return matrix


def boundary_matrix(delta: SimplicialComplex, i: int) -> list[list[int]]:
    """Boundary matrix d_i over Z with signs from ascending vertex order.

    Rows are the (i-1)-faces, columns the i-faces, both sorted by vertex
    tuple; i = 0 yields the augmentation row, i = -1 an empty matrix.
    """
    if delta.is_void() or not -1 <= i <= delta.dim:
        raise ValueError(f"boundary index {i} out of range")
    return _boundary_from_groups(_faces_by_dim(delta.sorted_faces()), i)


@dataclass(frozen=True)
class HomologyProfile:
    """dim_K ~H_i for i = -1 .. top; degrees outside the stored range are 0."""

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


def _graph_betti(groups: list[list[int]]) -> tuple[int, ...]:
    """Reduced Betti numbers of a complex of dimension <= 1 from a union-find
    over its edges: ~H_{-1} = [no vertex], ~H_0 = c - 1 and ~H_1 = E - V + c
    for c components.  Graph homology is free, so this holds over every
    field."""
    if len(groups) < 2:
        return (1,) * len(groups)
    vertices, edges = groups[1], groups[2] if len(groups) == 3 else []
    root = {v: v for v in vertices}

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    components = len(vertices)
    for edge in edges:
        low = edge & -edge
        u, w = find(low), find(edge ^ low)
        if u != w:
            root[u] = w
            components -= 1
    return (0, components - 1, len(edges) - len(vertices) + components)[:len(groups)]


def profile_from_faces(
    faces: Iterable[int], fields: Sequence[FieldSpec]
) -> tuple[HomologyProfile, ...]:
    """Reduced homology over each field, in battery order, of a full face list.

    The face list must be closed under taking subsets and include 0 unless it
    is empty (void complex).  This is the scan-friendly entry point: callers
    that already hold a filtered face list skip complex construction.

    A complex of dimension <= 1 is a graph: its Betti numbers come from a
    union-find over the edges (_graph_betti), with no matrix, and are the
    same over every field.  Otherwise each boundary matrix is built once and
    only its rank depends on the field; rank d_0 is 1, since a vertex exists.

    When Q or F2 is in the battery, every map is ranked over F2 first.  A Q
    rank is copied from F2 unless F2 homology is nonzero in both degrees the
    map joins: ``rank_Q >= rank_F2`` (an odd minor is nonzero) and
    ``rank d_t + rank d_{t+1} <= |C_t|`` (``d d = 0``), so a zero F2 Betti
    number in degree t pins both Q ranks next to t.  Bareiss runs only on
    the remaining maps, which is where torsion lives.
    """
    groups = _faces_by_dim(faces)
    if len(groups) <= 3:
        betti = _graph_betti(groups)
        return tuple(HomologyProfile(field, betti) for field in fields)
    boundaries = [_boundary_from_groups(groups, i) for i in range(1, len(groups) - 1)]

    def ranks(field: FieldSpec) -> list[int]:  # entry t is rank d_{t-1}
        return [0, 1, *(matrix_rank(b, field) for b in boundaries), 0]

    def betti(r: list[int]) -> tuple[int, ...]:
        return tuple(len(g) - r[t] - r[t + 1] for t, g in enumerate(groups))

    f2 = ranks(GF2) if QQ in fields or GF2 in fields else []

    def field_ranks(field: FieldSpec) -> list[int]:
        if field == GF2:
            return f2
        if field != QQ:
            return ranks(field)
        f2_betti = betti(f2)
        return [0, 1, *(
            matrix_rank(b, QQ) if f2_betti[t - 1] and f2_betti[t] else f2[t]
            for t, b in enumerate(boundaries, 2)
        ), 0]

    return tuple(HomologyProfile(field, betti(field_ranks(field))) for field in fields)


def reduced_homology(delta: SimplicialComplex, field: FieldSpec) -> HomologyProfile:
    return profile_from_faces(delta.face_masks, (field,))[0]


# -- Reisner and Stanley criteria ----------------------------------------------


def _link_walk(delta: SimplicialComplex, field: FieldSpec, sphere: bool,
               insides: Sequence[int]) -> tuple | None:
    """(k, face - insides[k], degree) for the first k, then the first face in
    sorted_faces() order that contains the mask insides[k], whose link has
    reduced homology below its dimension or, with ``sphere``, a top homology
    other than K; None when all pass.  Links keep the input's labels, and one
    that passed is not evaluated again."""
    faces = delta.sorted_faces()
    passed: set[int] = set()
    for k, inside in enumerate(insides):
        for f in faces:
            if f & inside != inside or f in passed:
                continue
            link = generated_faces(g & ~f for g in delta.facets if f & ~g == 0)
            link_dim = max(m.bit_count() for m in link) - 1
            (profile,) = profile_from_faces(link, (field,))
            bad = next((i for i in range(-1, link_dim) if profile.betti_number(i)), None)
            if bad is None and sphere and profile.betti_number(link_dim) != 1:
                bad = link_dim
            if bad is not None:
                return k, unpack(f & ~inside), bad
            passed.add(f)
    return None


@dataclass(frozen=True)
class ReisnerReport:
    """Cohen-Macaulay verdict with the first failing (face, degree) witness."""

    is_cm: bool
    field: FieldSpec
    witness_face: tuple[int, ...] | None = None
    witness_degree: int | None = None

    def __bool__(self) -> bool:
        return self.is_cm


def is_cohen_macaulay(delta: SimplicialComplex, field: FieldSpec) -> ReisnerReport:
    """Reisner's criterion: every link (the empty face included) has vanishing
    reduced homology below its dimension."""
    if delta.is_void():
        raise ValueError("Cohen-Macaulayness of the void complex is undefined")
    bad = _link_walk(delta, field, False, (0,))
    return ReisnerReport(bad is None, field, *(bad[1:] if bad else ()))


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


def is_gorenstein(delta: SimplicialComplex, field: FieldSpec) -> GorensteinReport:
    """Stanley's criterion on the core, read off the faces of Delta that
    contain the cone vertices, so the witness face names the input's vertices."""
    if delta.is_void():
        raise ValueError("Gorensteinness of the void complex is undefined")
    cone = pack(delta.cone_vertices())
    c = cone.bit_count()
    chi = sum(1 if (m.bit_count() - c) % 2 else -1 for m in delta.face_masks if m & cone == cone)
    expected = 1 if (delta.dim - c) % 2 == 0 else -1
    bad = _link_walk(delta, field, True, (cone,))
    return GorensteinReport(bad is None, field, chi, expected, *(bad[1:] if bad else ()))


@dataclass(frozen=True)
class LocallyGorensteinReport:
    holds: bool
    field: FieldSpec
    witness_vertex: int | None = None

    def __bool__(self) -> bool:
        return self.holds


def is_locally_gorenstein(delta: SimplicialComplex, field: FieldSpec) -> LocallyGorensteinReport:
    """Every vertex link is Gorenstein over the field (module docstring)."""
    if delta.is_void():
        raise ValueError("Gorensteinness of the void complex is undefined")
    vertices = unpack(delta.support)
    insides = [reduce(int.__and__, (g for g in delta.facets if g >> (v - 1) & 1)) for v in vertices]
    bad = _link_walk(delta, field, True, insides)
    return LocallyGorensteinReport(bad is None, field, None if bad is None else vertices[bad[0]])
