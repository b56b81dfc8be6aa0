"""Monomial ideal arithmetic and the second-power equality criterion.

Monomials are exponent vectors over a fixed variable count n; ideals carry
their unique minimal generating set in a canonical order, so dataclass
equality is ideal equality.  The special-triangle test decides
I^(2) = I^2 for squarefree ideals without computing either power; both
powers are still computable directly, which the test suite uses as the
independent oracle.

Packed layout.  ``Monomial`` (an exponent tuple) is the value type at the
boundary: constructors, ``gens``, certificates and JSON rows.  Every bulk
operation of an ideal (minimalisation, powers, intersections, symbolic
powers, membership, rho) runs instead on exponent vectors
packed into one Python int by ``_Layout``, the only place that packs or
unpacks exponents.  Each variable gets a field of w bits, w - 1 value bits
under one guard bit, with w worked out per operation from the largest
exponent it can produce (k times the largest generator exponent for a k-th
power), so there is no limit on exponents or on n.  Variable 1 sits in the
most significant field.  No value reaches its field's guard bit, so
comparing two packed ints compares their exponent tuples lexicographically
and the canonical generator order is int order.  With G the mask of guard
bits and V the mask of value bits:

  a | b      iff ((b | G) - a) & G == G   (no field borrows)
  lcm(a, b)  = (a & M) | (b & ~M & V), where d = ((a | G) - b) & G marks
               the fields with a_i >= b_i and M = d - (d >> (w - 1)) is
               their value bits (b has no guard bits, so & V is implied)
  a * b      = a + b                      (no field carries)

Minimalisation is ``bits.antichain`` with the degree as the size and
``divides_any`` as the cover test.  The scalar ``Monomial`` arithmetic stays
as the tests' independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations, combinations_with_replacement
from typing import Iterable, Iterator, Sequence

from .bits import antichain, bits, minimal_transversals, pack, unpack
from .complexes import Graph, SimplicialComplex


@dataclass(frozen=True, order=True)
class Monomial:
    """x^b for an exponent vector b in N^n (the all-zero vector is the unit)."""

    exps: tuple[int, ...]

    def __post_init__(self) -> None:
        for e in self.exps:
            if type(e) is not int:
                raise TypeError(f"exponents must be integers: {self.exps}")
            if e < 0:
                raise ValueError(f"exponents must be nonnegative: {self.exps}")

    @classmethod
    def unit(cls, n: int) -> "Monomial":
        return cls((0,) * n)

    @classmethod
    def squarefree(cls, n: int, support: Iterable[int]) -> "Monomial":
        mask = pack(support)
        if mask >> n:
            raise ValueError(f"support {unpack(mask)} has a vertex outside 1..{n}")
        return cls(tuple(1 if mask >> i & 1 else 0 for i in range(n)))

    @property
    def n(self) -> int:
        return len(self.exps)

    def degree(self) -> int:
        return sum(self.exps)

    def is_unit(self) -> bool:
        return not any(self.exps)

    def is_squarefree(self) -> bool:
        return all(e <= 1 for e in self.exps)

    def support_mask(self) -> int:
        m = 0
        for i, e in enumerate(self.exps):
            if e:
                m |= 1 << i
        return m

    def support(self) -> tuple[int, ...]:
        return unpack(self.support_mask())

    def _check(self, other: "Monomial") -> None:
        if len(self.exps) != len(other.exps):
            raise ValueError("monomials live in different variable counts")

    def __mul__(self, other: "Monomial") -> "Monomial":
        self._check(other)
        return Monomial(tuple(a + b for a, b in zip(self.exps, other.exps)))

    def divides(self, other: "Monomial") -> bool:
        self._check(other)
        return all(a <= b for a, b in zip(self.exps, other.exps))

    def lcm(self, other: "Monomial") -> "Monomial":
        self._check(other)
        return Monomial(tuple(max(a, b) for a, b in zip(self.exps, other.exps)))

    def gcd(self, other: "Monomial") -> "Monomial":
        self._check(other)
        return Monomial(tuple(min(a, b) for a, b in zip(self.exps, other.exps)))

    def radical(self) -> "Monomial":
        """Squarefree part (exponents capped at 1)."""
        return Monomial(tuple(min(e, 1) for e in self.exps))

    def __str__(self) -> str:
        if self.is_unit():
            return "1"
        parts = []
        for i, e in enumerate(self.exps):
            if e == 1:
                parts.append(f"x{i + 1}")
            elif e > 1:
                parts.append(f"x{i + 1}^{e}")
        return "*".join(parts)


class _Layout:
    """Exponent vectors in n variables packed into w-bit fields (see the module
    docstring), with w fitting every exponent up to ``top``."""

    __slots__ = ("n", "w", "guard", "_field", "_shifts", "_planes")

    def __init__(self, n: int, top: int) -> None:
        w = top.bit_length() + 1
        low = ((1 << n * w) - 1) // ((1 << w) - 1)  # the lowest bit of every field
        self.n, self.w = n, w
        self.guard = low << (w - 1)
        self._field = (1 << (w - 1)) - 1
        self._shifts = tuple(range((n - 1) * w, -1, -w))  # variable 1 first
        self._planes = tuple(low << j for j in range(w - 1))

    @classmethod
    def fitting(cls, n: int, monomials: Iterable[Monomial], factor: int = 1) -> "_Layout":
        """The layout for products of ``factor`` of the given monomials."""
        return cls(n, factor * max((max(m.exps) for m in monomials), default=0))

    def pack(self, m: Monomial) -> int:
        p, w = 0, self.w
        for e in m.exps:
            p = p << w | e
        return p

    def unpack(self, p: int) -> Monomial:
        field = self._field
        return Monomial(tuple(p >> s & field for s in self._shifts))

    def degree(self, p: int) -> int:
        """Total degree: the fields summed one bit plane at a time."""
        degree = 0
        for j, plane in enumerate(self._planes):
            degree += (p & plane).bit_count() << j
        return degree

    def divides_any(self, packed: Iterable[int], m: int) -> bool:
        """Whether some packed monomial divides m."""
        guard = self.guard
        mg = m | guard
        for k in packed:
            if (mg - k) & guard == guard:
                return True
        return False

    def lcm(self, a: int, b: int) -> int:
        d = ((a | self.guard) - b) & self.guard
        keep_a = d - (d >> (self.w - 1))
        return a & keep_a | b & ~keep_a

    def minimal(self, packed: Iterable[int]) -> list[int]:
        """The minimal elements under divisibility, in int order: the antichain
        by degree (distinct monomials of equal degree never divide each other)."""
        return sorted(antichain(packed, self.degree, self.divides_any))

    def intersection(self, left: Sequence[int], right: Sequence[int]) -> list[int]:
        """Minimal generators of the intersection: the minimal pairwise lcms."""
        lcm = self.lcm
        return self.minimal([lcm(a, b) for a in left for b in right])

    def lift(self, packed: Sequence[int], outside_mask: int, ell: int) -> list[int]:
        """Minimal generators of (packed) intersected with P^ell, P the prime
        of the variables in ``outside_mask``: each a of outside degree
        s >= ell stays, any other becomes a + m for every monomial m of
        degree ell - s in those variables, and the results are minimalised."""
        shifts = [s for i, s in enumerate(self._shifts) if outside_mask >> i & 1]
        outside = sum(self._field << s for s in shifts)
        lifts = {k: list(map(sum, combinations_with_replacement([1 << s for s in shifts], k)))
                 for k in range(1, ell + 1)}
        out = []
        for a in packed:
            s = self.degree(a & outside)
            if s >= ell:
                out.append(a)
            else:
                out.extend(a + m for m in lifts[ell - s])
        return self.minimal(out)


@dataclass(frozen=True)
class MonomialIdeal:
    """Ideal given by its minimal monomial generators, canonically sorted.

    The constructor minimalises whatever generator list it is handed, so two
    ideals are equal iff the dataclasses are equal.  gens = () is the zero
    ideal; a unit generator collapses everything to the unit ideal.
    """

    n: int
    gens: tuple[Monomial, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one variable")
        for g in self.gens:
            if g.n != self.n:
                raise ValueError(f"generator {g} has {g.n} variables, expected {self.n}")
        layout = _Layout.fitting(self.n, self.gens)
        by_packed = {layout.pack(g): g for g in self.gens}
        object.__setattr__(self, "gens", tuple(map(by_packed.get, layout.minimal(by_packed))))

    @classmethod
    def _from_minimal(cls, layout: _Layout, minimal: Iterable[int]) -> "MonomialIdeal":
        """The ideal of packed generators that are already minimal and in int
        order, built without minimalising again."""
        if layout.n < 1:
            raise ValueError("need at least one variable")
        ideal = object.__new__(cls)
        object.__setattr__(ideal, "n", layout.n)
        object.__setattr__(ideal, "gens", tuple(map(layout.unpack, minimal)))
        return ideal

    @classmethod
    def from_exponents(cls, n: int, rows: Iterable[Sequence[int]]) -> "MonomialIdeal":
        return cls(n, tuple(Monomial(tuple(r)) for r in rows))

    @classmethod
    def squarefree_from_supports(cls, n: int, supports: Iterable[Iterable[int]]) -> "MonomialIdeal":
        return cls(n, tuple(Monomial.squarefree(n, s) for s in supports))

    @classmethod
    def zero(cls, n: int) -> "MonomialIdeal":
        return cls(n, ())

    @classmethod
    def unit(cls, n: int) -> "MonomialIdeal":
        return cls(n, (Monomial.unit(n),))

    def is_zero(self) -> bool:
        return not self.gens

    def is_unit(self) -> bool:
        return len(self.gens) == 1 and self.gens[0].is_unit()

    def is_squarefree(self) -> bool:
        return all(g.is_squarefree() for g in self.gens)

    def contains(self, m: Monomial) -> bool:
        if m.n != self.n:
            raise ValueError(f"monomial {m} has {m.n} variables, expected {self.n}")
        layout = _Layout.fitting(self.n, (*self.gens, m))
        return layout.divides_any(map(layout.pack, self.gens), layout.pack(m))

    def rho(self) -> tuple[int, ...]:
        """Per-variable maximum exponent over the minimal generators."""
        layout = _Layout.fitting(self.n, self.gens)
        return layout.unpack(reduce(layout.lcm, map(layout.pack, self.gens), 0)).exps

    def power(self, k: int) -> "MonomialIdeal":
        """k-fold products of generators, minimalised; k = 0 gives the unit ideal."""
        if k < 0:
            raise ValueError("negative powers are undefined")
        if k == 0:
            return MonomialIdeal.unit(self.n)
        layout = _Layout.fitting(self.n, self.gens, k)
        packed = [layout.pack(g) for g in self.gens]
        products = map(sum, combinations_with_replacement(packed, k))
        return MonomialIdeal._from_minimal(layout, layout.minimal(products))

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        if self.n != other.n:
            raise ValueError("ideals live in different variable counts")
        layout = _Layout.fitting(self.n, self.gens + other.gens)
        left = [layout.pack(g) for g in self.gens]
        right = [layout.pack(g) for g in other.gens]
        return MonomialIdeal._from_minimal(layout, layout.intersection(left, right))

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        if self.n != other.n:
            raise ValueError("ideals live in different variable counts")
        return MonomialIdeal(self.n, self.gens + other.gens)

    def supports(self) -> tuple[int, ...]:
        """Generator supports as masks: the edges of the generator hypergraph."""
        return tuple(g.support_mask() for g in self.gens)


# -- Stanley-Reisner correspondence ------------------------------------------


def stanley_reisner(delta: SimplicialComplex) -> MonomialIdeal:
    """Squarefree ideal generated by the minimal non-faces of a complex."""
    if delta.n < 1:
        raise ValueError("need a complex on at least one ambient vertex")
    return MonomialIdeal(
        delta.n, tuple(Monomial.squarefree(delta.n, unpack(m)) for m in delta.minimal_nonfaces())
    )


def complex_of_ideal(ideal: MonomialIdeal) -> SimplicialComplex:
    """Delta(I): facets are complements of minimal vertex covers of the
    generator supports (equivalently, of the minimal primes of sqrt(I))."""
    if ideal.is_unit():
        raise ValueError("the unit ideal has no associated complex")
    full = (1 << ideal.n) - 1
    covers = minimal_transversals(ideal.supports())
    return SimplicialComplex(ideal.n, tuple(full & ~c for c in covers))


def edge_ideal(g: Graph) -> MonomialIdeal:
    return MonomialIdeal.squarefree_from_supports(g.n, (unpack(e) for e in g.edges))


# -- symbolic powers ----------------------------------------------------------


def _as_complex(source: SimplicialComplex | MonomialIdeal) -> SimplicialComplex:
    if isinstance(source, SimplicialComplex):
        return source
    if not source.is_squarefree():
        raise ValueError("symbolic powers are defined here for squarefree ideals")
    return complex_of_ideal(source)


def symbolic_power(source: SimplicialComplex | MonomialIdeal, ell: int) -> MonomialIdeal:
    """I^(ell) as the intersection of ell-th facet-prime powers P_F^ell.

    ``source`` is either a complex or its (squarefree) Stanley-Reisner ideal.
    A left fold over the facets F, starting from the unit ideal, lifts each
    generator a into P_F^ell: with s its degree in the variables off F, a
    stays when s >= ell, and otherwise becomes a + m for every monomial m of
    degree ell - s off F.  These are exactly the minimal elements of
    lcm(a, P_F^ell), so each step is minimalised once and no pairwise lcm is
    taken.  A lift raises only exponents off F, to at most ell, so one
    packed layout with exponents up to ell serves the whole fold.
    """
    if ell < 1:
        raise ValueError("symbolic powers need ell >= 1")
    delta = _as_complex(source)
    if delta.is_void():
        raise ValueError("the void complex has no facet primes")
    layout = _Layout(delta.n, ell)
    full = (1 << delta.n) - 1
    acc = [0]
    for f in delta.facets:
        acc = layout.lift(acc, full & ~f, ell)
    return MonomialIdeal._from_minimal(layout, acc)


def in_symbolic_power(source: SimplicialComplex | MonomialIdeal, m: Monomial, ell: int) -> bool:
    """Membership m in I^(ell) without generator enumeration.

    m lies in the intersection of the P_F^ell iff for every facet F the total
    exponent of m outside F is at least ell.
    """
    if ell < 1:
        raise ValueError("symbolic powers need ell >= 1")
    delta = _as_complex(source)
    if m.n != delta.n:
        raise ValueError(f"monomial {m} has {m.n} variables, expected {delta.n}")
    for f in delta.facets:
        if sum(e for i, e in enumerate(m.exps) if not f >> i & 1) < ell:
            return False
    return True


# -- special triangles and the second-power criterion -------------------------


@dataclass(frozen=True)
class SpecialTriangle:
    """Vertex triple {i,j,k} with witness supports (H_i, H_j, H_k).

    witnesses[t] meets the triple exactly in the two vertices other than
    vertices[t].
    """

    vertices: tuple[int, int, int]
    witnesses: tuple[int, int, int]

    def witness_tuples(self) -> tuple[tuple[int, ...], ...]:
        return tuple(unpack(w) for w in self.witnesses)


def _iter_special_triangles(edges: Sequence[int]) -> Iterator[SpecialTriangle]:
    for ia, ib, ic in combinations(range(len(edges)), 3):
        a, b, c = edges[ia], edges[ib], edges[ic]
        pool_a = b & c & ~a  # candidates for the vertex the first edge misses
        pool_b = a & c & ~b
        pool_c = a & b & ~c
        if not (pool_a and pool_b and pool_c):
            continue
        for bi in bits(pool_a):
            for bj in bits(pool_b):
                for bk in bits(pool_c):
                    tri = sorted(((bi, a), (bj, b), (bk, c)))
                    yield SpecialTriangle(
                        tuple(t[0].bit_length() for t in tri),  # type: ignore[arg-type]
                        tuple(t[1] for t in tri),  # type: ignore[arg-type]
                    )


def special_triangles(ideal: MonomialIdeal) -> tuple[SpecialTriangle, ...]:
    """All special triangles of the generator hypergraph, deterministically.

    A triple {i,j,k} is special when three generators exist whose supports
    meet {i,j,k} in exactly {j,k}, {i,k} and {i,j} respectively.  The
    distinct vertex pools make the triangles pairwise distinct by
    construction (no dedup pass needed).
    """
    if not ideal.is_squarefree():
        raise ValueError("special triangles are defined for squarefree ideals")
    return tuple(sorted(_iter_special_triangles(ideal.supports()),
                        key=lambda t: (t.vertices, t.witnesses)))


@dataclass(frozen=True)
class Sym2Result:
    """Outcome of the second-power equality test with its certificate."""

    equal: bool
    failing: SpecialTriangle | None
    witness_monomial: Monomial | None
    triangles_checked: int


def triangle_obstruction_monomial(n: int, tri: SpecialTriangle) -> Monomial:
    """x^(H1 cap H2 cap H3) * x^(H1 cup H2 cup H3) for the witness supports."""
    h1, h2, h3 = tri.witnesses
    inter = h1 & h2 & h3
    union = h1 | h2 | h3
    return Monomial.squarefree(n, unpack(inter)) * Monomial.squarefree(n, unpack(union))


def symbolic2_equals_square(ideal: MonomialIdeal) -> Sym2Result:
    """Decide I^(2) = I^2 by checking every special triangle's obstruction.

    Equality holds iff for each special triangle the monomial
    x^W * x^U, with W = H1 cap H2 cap H3 and U = H1 cup H2 cup H3, lies in
    I^2.  A product x^g * x^h of two generators (g = h allowed) has exponent
    2 on g cap h and 1 on the rest of g cup h, so it divides x^W * x^U iff
    g cup h lies in U and g cap h lies in W: membership is decided on
    vertex masks, without building I^2.  Enumeration stops at the first
    failing triangle; the certificate is that triangle and its monomial, or
    the number of triangles checked when equality holds.
    """
    if not ideal.is_squarefree():
        raise ValueError("the criterion applies to squarefree ideals")
    supports = ideal.supports()
    checked = 0
    # Lazy enumeration: stop at the first failing triangle.  The generator
    # order is deterministic, so the certificate is reproducible.
    for tri in _iter_special_triangles(supports):
        checked += 1
        h1, h2, h3 = tri.witnesses
        inter, union = h1 & h2 & h3, h1 | h2 | h3
        inside = [g for g in supports if not g & ~union]
        if all(g & h & ~inter for g, h in combinations_with_replacement(inside, 2)):
            return Sym2Result(False, tri, triangle_obstruction_monomial(ideal.n, tri), checked)
    return Sym2Result(True, None, None, checked)
