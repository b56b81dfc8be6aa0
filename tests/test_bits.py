import random

from hypothesis import example, given, settings, strategies as st

from srsq import cross_polytope, ideals, stanley_reisner
from srsq import bits as bitsmod
from srsq.bits import (
    bits,
    compress,
    maximal_elements,
    minimal_elements,
    minimal_transversals,
    pack,
    submasks,
    unpack,
)
from helpers import (
    brute_minimal_transversals,
    quadratic_maximal_elements,
    quadratic_minimal_elements,
)


def test_pack_unpack_roundtrip():
    assert pack([3, 1, 5]) == 0b10101
    assert unpack(0b10101) == (1, 3, 5)
    assert pack([]) == 0
    assert unpack(0) == ()


@given(st.sets(st.integers(min_value=1, max_value=20)))
def test_pack_unpack_inverse(vs):
    assert set(unpack(pack(vs))) == vs


def test_submasks_counts():
    subs = list(submasks(0b1011))
    assert len(subs) == 8
    assert set(subs) == {s for s in range(16) if s & ~0b1011 == 0}


def test_bits_enumeration():
    assert list(bits(0b10110)) == [0b10, 0b100, 0b10000]


def test_compress():
    # support {2,4,5}: 2 -> 1, 4 -> 2, 5 -> 3
    support = pack([2, 4, 5])
    assert compress(pack([2, 5]), support) == pack([1, 3])
    assert compress(0, support) == 0


def test_minimal_maximal_elements():
    masks = [0b111, 0b011, 0b100, 0b011]
    assert minimal_elements(masks) == [0b011, 0b100]
    assert maximal_elements(masks) == [0b111]


@st.composite
def mask_families(draw):
    """Masks up to bit 63, of mixed sizes, with duplicates, the empty mask, and
    subsets and supersets of one another."""
    width = draw(st.sampled_from((4, 10, 64)))
    masks = draw(st.lists(st.integers(0, (1 << width) - 1), max_size=14))
    if masks:
        picks = st.sampled_from(masks)
        derived = draw(st.lists(st.tuples(picks, picks, st.booleans()), max_size=10))
        masks += [a & b if meet else a | b for a, b, meet in derived]
        masks += draw(st.lists(picks, max_size=4))
    return draw(st.permutations(masks))


@given(mask_families())
@settings(max_examples=300, deadline=None)
@example([])
@example([0])
@example([0, 0, 1 << 63])
@example([1 << 63, (1 << 64) - 1, (1 << 63) | 1, 1, 0, (1 << 64) - 1])
def test_antichains_match_quadratic_loops(masks):
    assert minimal_elements(masks) == quadratic_minimal_elements(masks)
    assert maximal_elements(masks) == quadratic_maximal_elements(masks)
    assert maximal_elements(iter(masks)) == quadratic_maximal_elements(masks)


def test_single_size_family_makes_no_pairwise_check(monkeypatch):
    """Items of one size are never tested against each other: the cover test
    only ever sees the (empty) list of smaller kept items."""
    checked = []

    def counting(antichain):
        def counted(items, size, covers):
            def cover_test(lower, m):
                if lower:
                    checked.append(m)
                return covers(lower, m)
            return antichain(items, size, cover_test)
        return counted

    monkeypatch.setattr(bitsmod, "antichain", counting(bitsmod.antichain))
    monkeypatch.setattr(ideals, "antichain", counting(ideals.antichain))
    delta = cross_polytope(14)
    assert len(delta.facets) == 16384
    assert maximal_elements(delta.facets) == sorted(delta.facets)
    assert len(delta.link([1]).facets) == 8192
    assert checked == []
    ideal = stanley_reisner(delta)  # Berge's loop mixes sizes, so it does check
    checked.clear()
    assert len(ideal.power(2).gens) == 105  # every product has degree 4
    assert checked == []
    # two sizes: the larger item is tested against the kept smaller one
    assert minimal_elements([0b11, 0b1]) == [0b1]
    assert checked == [0b11]


def test_transversals_triangle():
    # edges of K3: minimal vertex covers are the three pairs
    edges = [pack([1, 2]), pack([2, 3]), pack([1, 3])]
    assert minimal_transversals(edges) == [pack([1, 2]), pack([1, 3]), pack([2, 3])]


def test_transversals_edge_cases():
    assert minimal_transversals([]) == [0]
    assert minimal_transversals([0]) == []


def test_transversals_against_brute_force():
    rng = random.Random(5)
    for _ in range(120):
        n = rng.randint(1, 7)
        sets = [
            pack(rng.sample(range(1, n + 1), rng.randint(1, n)))
            for _ in range(rng.randint(0, 6))
        ]
        assert sorted(minimal_transversals(sets)) == brute_minimal_transversals(sets, n)
