"""Property tests over randomly generated complexes and ideals."""

from hypothesis import given, settings, strategies as st

from srsq import (
    GF2,
    QQ,
    SimplicialComplex,
    complex_of_ideal,
    reduced_homology,
    stanley_reisner,
)
from srsq.bits import pack, unpack

from helpers import join_blocks_by_bfs


@st.composite
def complexes(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    face_pool = st.sets(
        st.integers(min_value=1, max_value=n), min_size=1, max_size=min(n, 4)
    )
    faces = draw(st.lists(face_pool, min_size=1, max_size=8))
    # make every vertex appear so the complex is valid without ghost flags
    faces.extend({v} for v in range(1, n + 1))
    return SimplicialComplex(n, tuple(pack(f) for f in faces))


@given(complexes())
@settings(max_examples=60, deadline=None)
def test_facets_form_an_antichain(delta):
    for f in delta.facets:
        assert not any(g != f and f & ~g == 0 for g in delta.facets)
    assert list(delta.facets) == sorted(delta.facets, key=unpack)


@given(complexes())
@settings(max_examples=60, deadline=None)
def test_faces_closed_under_subsets(delta):
    faces = delta.face_masks
    for m in faces:
        for v in unpack(m):
            assert m & ~(1 << (v - 1)) in faces


@given(complexes())
@settings(max_examples=40, deadline=None)
def test_link_of_star_is_link(delta):
    for f in sorted(delta.face_masks):
        face = unpack(f)
        assert delta.star(face).link(face) == delta.link(face)


@given(complexes())
@settings(max_examples=40, deadline=None)
def test_link_of_empty_face_is_identity(delta):
    assert delta.link(()) == delta


@given(complexes())
@settings(max_examples=40, deadline=None)
def test_stanley_reisner_round_trip(delta):
    assert complex_of_ideal(stanley_reisner(delta)) == delta


@given(complexes(max_n=5))
@settings(max_examples=30, deadline=None)
def test_euler_from_homology_matches_face_count(delta):
    chi = delta.euler_characteristic_reduced()
    assert reduced_homology(delta, QQ).euler() == chi
    assert reduced_homology(delta, GF2).euler() == chi


@given(complexes(max_n=5))
@settings(max_examples=30, deadline=None)
def test_cone_kills_reduced_homology(delta):
    profile = reduced_homology(delta.cone(), QQ)
    assert profile.is_zero()


def _factors_by_bfs(delta):
    blocks = join_blocks_by_bfs(delta)
    return [delta] if len(blocks) <= 1 else [delta.restrict(unpack(b)) for b in blocks]


@given(complexes())
@settings(max_examples=80, deadline=None)
def test_join_factors_match_the_bfs_oracle(delta):
    assert delta.join_factors() == _factors_by_bfs(delta)


@given(complexes(max_n=5), complexes(max_n=5))
@settings(max_examples=60, deadline=None)
def test_join_factors_of_a_join_match_the_bfs_oracle(left, right):
    joined = left.join(right)
    factors = joined.join_factors()
    assert factors == _factors_by_bfs(joined)
    assert len(factors) >= len(left.join_factors()) + len(right.join_factors()) - 1
