"""Simplicial complexes with bitmask faces, plus graphs and named generators.

A complex is stored by its vertex count ``n`` and the antichain of facet
bitmasks.  Two explicit edge cases are representable: the irrelevant complex
``{0}`` (only the empty face; it shows up as the link of a facet) and the void
complex ``()`` (no faces at all; it shows up as a degree-restricted subcomplex
in local cohomology scans).  Everything is immutable and every operation is a
pure function, so values can be shared freely.

The linkwise criteria read links off the facets: ``SimplicialComplex.link_walk``
is their one walk over the faces, and ``skeleton_diameter`` the one BFS, which
``Graph.diameter`` runs too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import combinations
from typing import Callable, Iterable, Sequence

from .bits import (
    MAX_VERTICES,
    bit_index,
    bits,
    compress,
    generated_faces,
    is_subset,
    maximal_elements,
    minimal_transversals,
    pack,
    unpack,
)

Face = Iterable[int]


@dataclass(frozen=True)
class SimplicialComplex:
    """Complex on vertices 1..n given by its facets (inclusion-maximal faces).

    The constructor canonicalises: facets are deduplicated, non-maximal
    entries dropped, and the tuple sorted by ascending vertex tuples.  Use
    :func:`new_complex` for validated construction from arbitrary face lists.
    """

    n: int
    facets: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0 or self.n > MAX_VERTICES:
            raise ValueError(f"vertex count must be in 0..{MAX_VERTICES}, got {self.n}")
        full = (1 << self.n) - 1
        for f in self.facets:
            if f & ~full:
                raise ValueError(f"facet {unpack(f)} out of range for n={self.n}")
        canonical = tuple(sorted(maximal_elements(self.facets), key=unpack))
        object.__setattr__(self, "facets", canonical)

    # -- basic queries ---------------------------------------------------

    def is_void(self) -> bool:
        return not self.facets

    @property
    def dim(self) -> int:
        """Dimension; -1 for the irrelevant complex, -2 for the void complex."""
        if self.is_void():
            return -2
        return max(f.bit_count() for f in self.facets) - 1

    @cached_property
    def support(self) -> int:
        """Mask of vertices that actually occur in a facet."""
        s = 0
        for f in self.facets:
            s |= f
        return s

    @cached_property
    def face_masks(self) -> frozenset[int]:
        """All faces as masks (the empty face included unless void)."""
        return frozenset(generated_faces(self.facets))

    def sorted_faces(self) -> list[int]:
        """All face masks in the canonical face order: by size, then by
        vertex tuple.  Scans, link loops and witnesses all follow it."""
        return sorted(self.face_masks, key=lambda m: (m.bit_count(), unpack(m)))

    def contains_mask(self, mask: int) -> bool:
        return any(is_subset(mask, f) for f in self.facets)

    def is_face(self, face: Face) -> bool:
        m = pack(face)
        if m & ~((1 << self.n) - 1):
            raise ValueError(f"face {tuple(face)} not inside 1..{self.n}")
        return self.contains_mask(m)

    def faces_of_dim(self, i: int) -> list[tuple[int, ...]]:
        """All i-dimensional faces as sorted vertex tuples."""
        want = i + 1
        return [unpack(m) for m in self.sorted_faces() if m.bit_count() == want]

    def facet_tuples(self) -> list[tuple[int, ...]]:
        return [unpack(f) for f in self.facets]

    def is_pure(self) -> bool:
        if self.is_void():
            return True
        sizes = {f.bit_count() for f in self.facets}
        return len(sizes) == 1

    # -- f-vector and Euler characteristic --------------------------------

    def f_vector(self) -> "FVector":
        if self.is_void():
            raise ValueError("f-vector of the void complex is undefined")
        counts = [0] * (self.dim + 1)
        for m in self.face_masks:
            if m:
                counts[m.bit_count() - 1] += 1
        return FVector(tuple(counts))

    # -- subcomplex constructions -----------------------------------------

    def link_with_map(self, face: Face) -> tuple["SimplicialComplex", dict[int, int]]:
        """Link of a face, re-indexed over its surviving vertices.

        Returns the complex together with the old->new vertex map (ascending).
        """
        f = pack(face)
        if not self.contains_mask(f):
            raise ValueError(f"{unpack(f)} is not a face")
        raw = [g & ~f for g in self.facets if is_subset(f, g)]
        survivors = 0
        for m in raw:
            survivors |= m
        vmap = {bit_index(b): i + 1 for i, b in enumerate(bits(survivors))}
        facets = tuple(compress(m, survivors) for m in raw)
        return SimplicialComplex(survivors.bit_count(), facets), vmap

    def link(self, face: Face) -> "SimplicialComplex":
        return self.link_with_map(face)[0]

    def link_walk(self, probe: Callable, insides: Sequence[int] = (0,)) -> tuple | None:
        """(k, face - insides[k], value) for the first k, then the first face in
        sorted_faces() order that contains the mask insides[k], on whose link's
        facets (in this complex's labels) ``probe`` returns a value other than
        None; None when every link passes.  A passed link is not probed again."""
        faces = self.sorted_faces()
        passed: set[int] = set()
        for k, inside in enumerate(insides):
            for f in faces:
                if f & inside != inside or f in passed:
                    continue
                value = probe([g & ~f for g in self.facets if f & ~g == 0])
                if value is not None:
                    return k, unpack(f & ~inside), value
                passed.add(f)
        return None

    def star(self, face: Face) -> "SimplicialComplex":
        """Closed star, kept on the ambient vertex set (labels unchanged)."""
        f = pack(face)
        if not self.contains_mask(f):
            raise ValueError(f"{unpack(f)} is not a face")
        return SimplicialComplex(self.n, tuple(g for g in self.facets if is_subset(f, g)))

    def skeleton(self, k: int) -> "SimplicialComplex":
        if self.is_void() or not 0 <= k <= self.dim:
            raise ValueError(f"skeleton index {k} out of range 0..{self.dim}")
        out: set[int] = set()
        for g in self.facets:
            if g.bit_count() <= k + 1:
                out.add(g)
            else:
                out.update(pack(c) for c in combinations(unpack(g), k + 1))
        return SimplicialComplex(self.n, tuple(out))

    def restrict_with_map(self, vertices: Face) -> tuple["SimplicialComplex", dict[int, int]]:
        """Faces contained in ``vertices``, re-indexed over them (ascending)."""
        w = pack(vertices)
        if w & ~((1 << self.n) - 1):
            raise ValueError("restriction set out of range")
        raw = {g & w for g in self.facets}
        vmap = {bit_index(b): i + 1 for i, b in enumerate(bits(w))}
        facets = tuple(compress(m, w) for m in raw)
        return SimplicialComplex(w.bit_count(), facets), vmap

    def restrict(self, vertices: Face) -> "SimplicialComplex":
        return self.restrict_with_map(vertices)[0]

    def cone_vertices(self) -> tuple[int, ...]:
        """Vertices lying in every facet (their star is the whole complex)."""
        if self.is_void():
            return ()
        m = self.facets[0]
        for f in self.facets:
            m &= f
        return unpack(m)

    def core_with_map(self) -> tuple["SimplicialComplex", dict[int, int]]:
        """Restriction to core V = {x : star{x} != the whole complex}."""
        cone = pack(self.cone_vertices())
        return self.restrict_with_map(unpack(self.support & ~cone))

    def core(self) -> "SimplicialComplex":
        return self.core_with_map()[0]

    # -- constructions that change the vertex set --------------------------

    def join(self, other: "SimplicialComplex") -> "SimplicialComplex":
        """Simplicial join; ``other``'s vertices are shifted by ``self.n``."""
        facets = tuple(f | (g << self.n) for f in self.facets for g in other.facets)
        return SimplicialComplex(self.n + other.n, facets)

    def cone(self) -> "SimplicialComplex":
        """Cone with apex n+1."""
        return self.join(simplex_complex(1))

    def stellar_subdivision(self, face: Face) -> "SimplicialComplex":
        """Stellar subdivision on a face of dimension >= 1; new vertex is n+1.

        Facets containing the face are replaced by (G - w) + {v} for each
        vertex w of the face; the remaining facets survive unchanged.
        """
        f = pack(face)
        if not self.contains_mask(f):
            raise ValueError(f"{unpack(f)} is not a face")
        if f.bit_count() < 2:
            raise ValueError("stellar subdivision needs a face of dimension >= 1")
        v = 1 << self.n
        new: list[int] = []
        for g in self.facets:
            if is_subset(f, g):
                new.extend((g & ~w) | v for w in bits(f))
            else:
                new.append(g)
        return SimplicialComplex(self.n + 1, tuple(new))

    def relabel(self, mapping: dict[int, int]) -> "SimplicialComplex":
        """Apply a vertex permutation (a bijection of 1..n given as a dict)."""
        if sorted(mapping) != list(range(1, self.n + 1)) or sorted(
            mapping.values()
        ) != list(range(1, self.n + 1)):
            raise ValueError("relabeling must be a permutation of 1..n")
        return SimplicialComplex(
            self.n, tuple(pack(mapping[v] for v in unpack(f)) for f in self.facets)
        )

    # -- graphs ------------------------------------------------------------

    def one_skeleton(self) -> "Graph":
        edges = tuple(m for m in self.face_masks if m.bit_count() == 2)
        return Graph(self.n, edges)

    # -- non-faces and join structure ---------------------------------------

    def minimal_nonfaces(self) -> tuple[int, ...]:
        """Inclusion-minimal subsets of [n] that are not faces, as masks;
        listed once per complex (stanley_reisner, join_blocks and
        condition3_check read them)."""
        return self._minimal_nonfaces

    @cached_property
    def _minimal_nonfaces(self) -> tuple[int, ...]:
        full = (1 << self.n) - 1
        return tuple(minimal_transversals([full & ~g for g in self.facets]))

    def join_blocks(self) -> list[int]:
        """Vertex blocks of the finest decomposition as a simplicial join, as
        masks in ascending order: the connected components of the
        co-occurrence relation on minimal non-faces, and the cone vertices as
        one block (a simplex factor) when there are any."""
        parts: list[int] = []  # disjoint vertex blocks, as masks
        for nf in self.minimal_nonfaces():
            merged = nf
            for block in [b for b in parts if b & nf]:
                merged |= block
                parts.remove(block)
            parts.append(merged)
        cone = pack(self.cone_vertices())
        if cone:
            parts.append(cone)
        return sorted(parts)

    def join_factors(self) -> list["SimplicialComplex"]:
        """The restrictions to join_blocks(), re-indexed; ``[self]`` when the
        complex is join-irreducible."""
        blocks = self.join_blocks()
        if len(blocks) <= 1:
            return [self]
        return [self.restrict(unpack(p)) for p in blocks]


@dataclass(frozen=True)
class FVector:
    """Face counts f_0..f_{d-1}; the reduced Euler characteristic is derived."""

    counts: tuple[int, ...]

    @property
    def euler_reduced(self) -> int:
        chi = -1
        for i, c in enumerate(self.counts):
            chi += c if i % 2 == 0 else -c
        return chi


@dataclass(frozen=True)
class Graph:
    """Finite graph without loops or multiple edges; edges as 2-bit masks."""

    n: int
    edges: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0 or self.n > MAX_VERTICES:
            raise ValueError(f"vertex count must be in 0..{MAX_VERTICES}, got {self.n}")
        full = (1 << self.n) - 1
        for e in self.edges:
            if e.bit_count() != 2:
                raise ValueError(f"not an edge (loops are disallowed): {unpack(e)}")
            if e & ~full:
                raise ValueError(f"edge {unpack(e)} out of range for n={self.n}")
        object.__setattr__(self, "edges", tuple(sorted(set(self.edges), key=unpack)))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Sequence[int]]) -> "Graph":
        return cls(n, tuple(pack(e) for e in edges))

    def edge_tuples(self) -> list[tuple[int, int]]:
        return [unpack(e) for e in self.edges]  # type: ignore[misc]

    def adjacency(self) -> list[int]:
        """adj[v] = neighbour mask of vertex v (index 1..n; entry 0 unused)."""
        adj = [0] * (self.n + 1)
        for e in self.edges:
            u, v = unpack(e)
            adj[u] |= 1 << (v - 1)
            adj[v] |= 1 << (u - 1)
        return adj

    def diameter(self) -> float:
        """Max BFS eccentricity; math.inf for a disconnected graph; 0 for n <= 1."""
        return skeleton_diameter(self.edges + tuple(1 << v for v in range(self.n)))


def skeleton_diameter(masks: Iterable[int]) -> float:
    """Diameter of the 1-skeleton that the masks generate, over the vertices they
    cover; math.inf when it is disconnected, 0 on at most one vertex."""
    adj: dict[int, int] = {}  # vertex bit -> the vertices sharing a mask with it
    for m in masks:
        for b in bits(m):
            adj[b] = adj.get(b, 0) | m
    cover, best = sum(adj), 0
    for seen in adj:
        frontier, dist = seen, 0
        while seen != cover:
            frontier = reduce(int.__or__, map(adj.get, bits(frontier))) & ~seen
            if not frontier:
                return math.inf
            seen |= frontier
            dist += 1
        best = max(best, dist)
    return best


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    return Graph(g1.n + g2.n, g1.edges + tuple(e << g1.n for e in g2.edges))


# -- construction -----------------------------------------------------------


def new_complex(n: int, faces: Iterable[Face], allow_unused: bool = False) -> SimplicialComplex:
    """Complex generated by the given faces.

    Non-maximal faces are dropped and the facet order is canonical.  Unless
    ``allow_unused`` is set, every vertex 1..n must occur in some face (the
    condition {v} in Delta for all v); ghost vertices are opt-in.
    """
    if n <= 0:
        raise ValueError("vertex count must be positive")
    masks = tuple(pack(f) for f in faces)
    delta = SimplicialComplex(n, masks)
    if not allow_unused and delta.support != (1 << n) - 1:
        missing = unpack(((1 << n) - 1) & ~delta.support)
        raise ValueError(f"vertices {missing} occur in no face (pass allow_unused=True to keep them)")
    return delta


def irrelevant_complex() -> SimplicialComplex:
    """The complex {0} whose only face is the empty set."""
    return SimplicialComplex(0, (0,))


def void_complex(n: int = 0) -> SimplicialComplex:
    """The complex with no faces at all (an explicit edge case)."""
    return SimplicialComplex(n, ())


def simplex_complex(n: int) -> SimplicialComplex:
    return new_complex(n, [range(1, n + 1)])


# -- named complexes from the worked examples -------------------------------


def path_complex(n: int) -> SimplicialComplex:
    if n < 2:
        raise ValueError("a path needs at least 2 vertices")
    return new_complex(n, [(i, i + 1) for i in range(1, n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, i + 1) for i in range(1, n)] + [(n, 1)])


def cycle_complex(n: int) -> SimplicialComplex:
    return SimplicialComplex(n, cycle_graph(n).edges)


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, combinations(range(1, n + 1), 2))


def cross_polytope(d: int) -> SimplicialComplex:
    """Boundary complex of the cross d-polytope.

    Vertices: x_i = i and y_i = d + i.  Facets pick exactly one of {x_i, y_i}
    per coordinate, so the Stanley-Reisner ideal is (x_1 y_1, ..., x_d y_d).
    """
    if not 1 <= d <= MAX_VERTICES // 2:
        raise ValueError(f"d must be in 1..{MAX_VERTICES // 2}")
    facets = []
    for choice in range(1 << d):
        facets.append([i if choice >> (i - 1) & 1 else d + i for i in range(1, d + 1)])
    return new_complex(2 * d, facets)


def cross_polytope_stellar(d: int) -> SimplicialComplex:
    """Stellar subdivision of the cross d-polytope boundary on {x_1, ..., x_d}.

    The new vertex is v = 2d + 1 and the Stanley-Reisner ideal becomes
    (x_1 y_1, ..., x_d y_d, v y_1, ..., v y_d, x_1 x_2 ... x_d).
    """
    if not 2 <= d <= (MAX_VERTICES - 1) // 2:
        raise ValueError(f"d must be in 2..{(MAX_VERTICES - 1) // 2} (the subdivided face"
                         " needs dimension >= 1, and 2d + 1 vertices must fit)")
    return cross_polytope(d).stellar_subdivision(range(1, d + 1))


_RP2_FACETS = (
    (1, 2, 4), (1, 2, 6), (1, 3, 4), (1, 3, 5), (1, 5, 6),
    (2, 3, 5), (2, 3, 6), (2, 4, 5), (3, 4, 6), (4, 5, 6),
)


def rp2() -> SimplicialComplex:
    """The 6-vertex triangulation of the real projective plane.

    The ten facets are the complements, among all 3-subsets of [6], of the ten
    degree-3 generators of its Stanley-Reisner ideal; vertex labels 1..6 match
    the usual generator list so reports can be compared directly.
    """
    return new_complex(6, _RP2_FACETS)


def phantom_pentagon(k: int) -> SimplicialComplex:
    """k pentagons glued along the common path w-x-y-z.

    Vertices: v_1..v_k = 1..k, then w = k+1, x = k+2, y = k+3, z = k+4.  Each
    v_i is joined to w and z; together with the path w-x-y-z every v_i closes
    a pentagon v_i-w-x-y-z.  For k = 1 this is the plain 5-cycle.  The graph
    has diameter 2 and no triangles.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    w, x, y, z = k + 1, k + 2, k + 3, k + 4
    edges = [(i, w) for i in range(1, k + 1)] + [(i, z) for i in range(1, k + 1)]
    edges += [(w, x), (x, y), (y, z)]
    return new_complex(k + 4, edges)


def four_path() -> SimplicialComplex:
    """The 4-pointed path 1-2-3-4 (Stanley-Reisner ideal (x1x3, x1x4, x2x4))."""
    return path_complex(4)


def conjecture_graph(n: int) -> Graph:
    """Graph family on 3n+2 vertices conjectured to have Cohen-Macaulay square.

    Edges: {1,2}; for k = 1..n the four edges {3k-1,3k}, {3k,3k+1},
    {3k+1,3k+2}, {3k+2,3k-2}; and chords {3l-3,3l} for l = 2..n.  For n = 1
    this is the pentagon 1-2-3-4-5.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    edges = [(1, 2)]
    for k in range(1, n + 1):
        edges += [(3 * k - 1, 3 * k), (3 * k, 3 * k + 1), (3 * k + 1, 3 * k + 2), (3 * k + 2, 3 * k - 2)]
    for ell in range(2, n + 1):
        edges.append((3 * ell - 3, 3 * ell))
    return Graph.from_edges(3 * n + 2, edges)


def complementary_complex(g: Graph) -> SimplicialComplex:
    """The complex Delta(G) with I(G) = I_Delta(G): faces = independent sets."""
    full = (1 << g.n) - 1
    covers = minimal_transversals(g.edges)
    return SimplicialComplex(g.n, tuple(full & ~c for c in covers))


def conjecture_complex(n: int) -> SimplicialComplex:
    return complementary_complex(conjecture_graph(n))


def disjoint_pentagons(r: int) -> SimplicialComplex:
    """Complementary complex of r disjoint pentagons (join of r factors)."""
    if r < 1:
        raise ValueError("r must be >= 1")
    g = cycle_graph(5)
    for _ in range(r - 1):
        g = disjoint_union(g, cycle_graph(5))
    return complementary_complex(g)


# name -> (constructor, the one parameter it takes or None); names are spelt
# with "_" here, and "cross" and "cross_stellar" are aliases.
NAMED_COMPLEXES: dict[str, tuple[Callable[..., SimplicialComplex], str | None]] = {
    "cycle": (cycle_complex, "n"),
    "path": (path_complex, "n"),
    "simplex": (simplex_complex, "n"),
    "cross_polytope": (cross_polytope, "d"),
    "cross": (cross_polytope, "d"),
    "cross_polytope_stellar": (cross_polytope_stellar, "d"),
    "cross_stellar": (cross_polytope_stellar, "d"),
    "rp2": (rp2, None),
    "phantom_pentagon": (phantom_pentagon, "k"),
    "four_path": (four_path, None),
    "conjecture_graph": (conjecture_complex, "n"),
    "disjoint_pentagons": (disjoint_pentagons, "r"),
    "complementary": (complementary_complex, "graph"),
}


def named_complex(name: str, **params) -> SimplicialComplex:
    """The complex ``NAMED_COMPLEXES`` lists under ``name`` (``-`` and ``_``
    alike, any case), built from the one parameter it takes: an integer, or a
    :class:`Graph` for ``complementary``.  A missing or extra parameter is a
    ValueError."""
    key = name.replace("-", "_").lower()
    if key not in NAMED_COMPLEXES:
        raise ValueError(f"unknown named complex {name!r}")
    build, param = NAMED_COMPLEXES[key]
    if param is not None and param not in params:
        raise ValueError(f"missing parameter {param!r} for named complex {name!r}")
    extra = sorted(set(params) - {param})
    if extra:
        raise ValueError(f"named complex {name!r} takes no parameter {extra[0]!r}")
    if param is None:
        return build()
    value = params[param]
    return build(value if param == "graph" else int(value))
