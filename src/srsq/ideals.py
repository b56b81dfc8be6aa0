"""Monomial ideal arithmetic and the second-power equality criterion.

Monomials are exponent vectors over a fixed variable count n; ideals carry
their unique minimal generating set in a canonical order, so dataclass
equality is ideal equality.  The special-triangle test decides
I^(2) = I^2 for squarefree ideals without computing either power; both
powers are still computable directly, which the test suite uses as the
independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from typing import Iterable, Iterator, Sequence

from .bits import bits, minimal_transversals, pack, unpack
from .complexes import Graph, SimplicialComplex


@dataclass(frozen=True, order=True)
class Monomial:
    """x^b for an exponent vector b in N^n (the all-zero vector is the unit)."""

    exps: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(e < 0 for e in self.exps):
            raise ValueError(f"exponents must be nonnegative: {self.exps}")

    @classmethod
    def unit(cls, n: int) -> "Monomial":
        return cls((0,) * n)

    @classmethod
    def squarefree(cls, n: int, support: Iterable[int]) -> "Monomial":
        mask = pack(support)
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


def _minimalize(monomials: Iterable[Monomial]) -> tuple[Monomial, ...]:
    ordered = sorted(set(monomials), key=lambda m: (m.degree(), m.exps))
    kept: list[Monomial] = []
    for m in ordered:
        if not any(k.divides(m) for k in kept):
            kept.append(m)
    return tuple(sorted(kept))


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
        object.__setattr__(self, "gens", _minimalize(self.gens))

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
        return any(g.divides(m) for g in self.gens)

    def rho(self) -> tuple[int, ...]:
        """Per-variable maximum exponent over the minimal generators."""
        out = [0] * self.n
        for g in self.gens:
            for i, e in enumerate(g.exps):
                if e > out[i]:
                    out[i] = e
        return tuple(out)

    def radical(self) -> "MonomialIdeal":
        return MonomialIdeal(self.n, tuple(g.radical() for g in self.gens))

    def power(self, k: int) -> "MonomialIdeal":
        """k-fold products of generators, minimalised; k = 0 gives the unit ideal."""
        if k < 0:
            raise ValueError("negative powers are undefined")
        if k == 0:
            return MonomialIdeal.unit(self.n)
        prods = []
        for combo in combinations_with_replacement(self.gens, k):
            m = combo[0]
            for g in combo[1:]:
                m = m * g
            prods.append(m)
        return MonomialIdeal(self.n, tuple(prods))

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        if self.n != other.n:
            raise ValueError("ideals live in different variable counts")
        return MonomialIdeal(self.n, tuple(g.lcm(h) for g in self.gens for h in other.gens))

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        if self.n != other.n:
            raise ValueError("ideals live in different variable counts")
        return MonomialIdeal(self.n, self.gens + other.gens)

    def supports(self) -> tuple[int, ...]:
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
    rad = ideal.radical()
    full = (1 << ideal.n) - 1
    covers = minimal_transversals(rad.supports())
    return SimplicialComplex(ideal.n, tuple(full & ~c for c in covers))


def edge_ideal(g: Graph) -> MonomialIdeal:
    return MonomialIdeal.squarefree_from_supports(g.n, (unpack(e) for e in g.edges))


# -- symbolic powers ----------------------------------------------------------


def facet_prime_power(n: int, facet_mask: int, ell: int) -> MonomialIdeal:
    """P_F^ell where P_F = (x_i : i outside the facet)."""
    outside = [i + 1 for i in range(n) if not facet_mask >> i & 1]
    gens = []
    for combo in combinations_with_replacement(outside, ell):
        exps = [0] * n
        for v in combo:
            exps[v - 1] += 1
        gens.append(Monomial(tuple(exps)))
    return MonomialIdeal(n, tuple(gens))


def _as_complex(source: SimplicialComplex | MonomialIdeal) -> SimplicialComplex:
    if isinstance(source, SimplicialComplex):
        return source
    if not source.is_squarefree():
        raise ValueError("symbolic powers are defined here for squarefree ideals")
    return complex_of_ideal(source)


def symbolic_power(source: SimplicialComplex | MonomialIdeal, ell: int) -> MonomialIdeal:
    """I^(ell) as the intersection of ell-th facet-prime powers.

    ``source`` is either a complex or its (squarefree) Stanley-Reisner ideal.
    Computed by a left fold of pairwise intersections with intermediate
    minimalisation; fine at desk scale.
    """
    if ell < 1:
        raise ValueError("symbolic powers need ell >= 1")
    delta = _as_complex(source)
    if delta.is_void():
        raise ValueError("the void complex has no facet primes")
    acc: MonomialIdeal | None = None
    for f in delta.facets:
        pf = facet_prime_power(delta.n, f, ell)
        acc = pf if acc is None else acc.intersect(pf)
    assert acc is not None
    return acc


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
class Hypergraph:
    """Vertex set [n] with the generator supports of a squarefree ideal."""

    n: int
    edges: tuple[int, ...]

    def edge_tuples(self) -> list[tuple[int, ...]]:
        return [unpack(e) for e in self.edges]


def associated_hypergraph(ideal: MonomialIdeal) -> Hypergraph:
    if not ideal.is_squarefree():
        raise ValueError("the associated hypergraph needs a squarefree ideal")
    return Hypergraph(ideal.n, ideal.supports())


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
    return tuple(sorted(set(_iter_special_triangles(ideal.supports())),
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
    x^(H1 cap H2 cap H3) * x^(H1 cup H2 cup H3) lies in I^2.  Enumeration
    stops at the first failing triangle; the certificate is that triangle and
    its monomial, or the number of triangles checked when equality holds.
    """
    if not ideal.is_squarefree():
        raise ValueError("the criterion applies to squarefree ideals")
    square: MonomialIdeal | None = None
    checked = 0
    # Lazy enumeration: stop at the first failing triangle.  The generator
    # order is deterministic, so the certificate is reproducible.
    for tri in _iter_special_triangles(ideal.supports()):
        if square is None:
            square = ideal.power(2)
        checked += 1
        mono = triangle_obstruction_monomial(ideal.n, tri)
        if not square.contains(mono):
            return Sym2Result(False, tri, mono, checked)
    return Sym2Result(True, None, None, checked)
