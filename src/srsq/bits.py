"""Bitmask kernels for vertex subsets, and the set operations built on them.

Vertices are 1-based; vertex ``i`` occupies bit ``i - 1``.  Everything in the
package that touches faces, generator supports or vertex covers goes through
these helpers, which keeps the inner loops allocation-light.  The supported
envelope is n <= 64 (plenty for desk scale; Python ints do not actually care).

Facets, minimal non-faces, minimal transversals and minimal monomial
generators are all antichains, and one routine, :func:`antichain`, keeps them.
It takes the items in order of size and tests each only against the kept
items of strictly smaller size, by the layered rule: distinct items of equal
size never cover each other.  A family of one size thus needs no pairwise
test at all.  Faces are generated from facets by :func:`generated_faces`.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

MAX_VERTICES = 64


def pack(vertices: Iterable[int]) -> int:
    """Bitmask of a collection of 1-based vertices."""
    mask = 0
    for v in vertices:
        if v < 1:
            raise ValueError(f"vertices are 1-based, got {v}")
        mask |= 1 << (v - 1)
    return mask


def unpack(mask: int) -> tuple[int, ...]:
    """Sorted tuple of 1-based vertices of a bitmask."""
    out = []
    v = 1
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


def bits(mask: int) -> Iterator[int]:
    """Single-bit masks of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def bit_index(bit: int) -> int:
    """1-based vertex of a single-bit mask."""
    return bit.bit_length()


def submasks(mask: int) -> Iterator[int]:
    """All subsets of ``mask`` including 0 and ``mask`` itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def is_subset(a: int, b: int) -> bool:
    return a & ~b == 0


def compress(mask: int, support: int) -> int:
    """Re-index ``mask`` (a subset of ``support``) onto 1..popcount(support).

    Bit order is preserved: the j-th lowest bit of ``support`` becomes vertex j.
    """
    out = 0
    pos = 0
    for b in bits(support):
        if mask & b:
            out |= 1 << pos
        pos += 1
    return out


def generated_faces(generators: Iterable[int]) -> set[int]:
    """Every face of the complex generated by the given masks (none if none)."""
    return set().union(*map(submasks, generators))


def antichain(
    items: Iterable[int], size: Callable[[int], int], covers: Callable[[list[int], int], bool]
) -> list[int]:
    """The items that no other item covers, in (size, item) order.

    ``covers(smaller, m)`` says whether some item of ``smaller`` covers m; it
    is only ever handed the kept items of strictly smaller size, so the cover
    relation must make items of equal size incomparable.  Duplicates collapse.
    """
    lower: list[int] = []
    same: list[int] = []
    current = None
    for s, m in sorted((size(m), m) for m in set(items)):
        if s != current:
            lower += same
            same, current = [], s
        if not covers(lower, m):
            same.append(m)
    return lower + same


def minimal_elements(masks: Iterable[int]) -> list[int]:
    """Antichain of inclusion-minimal masks, sorted ascending."""
    return sorted(antichain(masks, int.bit_count,
                            lambda lower, m: any(k & ~m == 0 for k in lower)))


def maximal_elements(masks: Iterable[int]) -> list[int]:
    """Antichain of inclusion-maximal masks, sorted ascending: the complements
    of the minimal complements."""
    masks = list(masks)
    full = (1 << max(masks, default=0).bit_length()) - 1
    return sorted(full & ~c for c in minimal_elements(full & ~m for m in masks))


def minimal_transversals(sets: Sequence[int]) -> list[int]:
    """Inclusion-minimal hitting sets of a family of bitmask sets (Berge).

    Returns the antichain of minimal masks meeting every set in the family.
    The empty family has the single transversal 0; a family containing the
    empty set has no transversals at all (returns []).
    """
    trans = [0]
    for s in sorted(set(sets)):
        if s == 0:
            return []
        nxt: list[int] = []
        for t in trans:
            if t & s:
                nxt.append(t)
            else:
                nxt.extend(t | b for b in bits(s))
        trans = minimal_elements(nxt)
    return trans
