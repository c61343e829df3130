import itertools
import random

import pytest

import sdlat as S
from sdlat import BadParameter, NotJoinIrreducible, SizeLimitExceeded

from conftest import four_condition_flags, random_pool, sd_family_lattices
from oracles import cjr_oracle


def test_cjr_golden(fig1):
    assert S.cjr(fig1, "m1").joinands == ("j2", "j3")
    assert S.cjr(fig1, "bot").joinands == ()
    assert S.cmr(fig1, "bot").joinands == ("m1", "m2", "m3")
    assert S.cmr(fig1, "top").joinands == ()


def test_joins_canonically_golden(fig1):
    assert S.joins_canonically(fig1, ("j2", "j3"))
    for j in S.irreducible_table(fig1).cji:
        assert S.joins_canonically(fig1, (j,))
    assert not S.joins_canonically(fig1, ("j2", "j4"))
    with pytest.raises(NotJoinIrreducible):
        S.joins_canonically(fig1, ("m1", "j2"))


def test_joins_canonically_refuses_a_bare_string():
    # "ab" is an element of boolean(3), not the pair ("a", "b")
    lat = S.generate("boolean", 3)
    assert S.joins_canonically(lat, ("a", "b"))
    with pytest.raises(BadParameter):
        S.joins_canonically(lat, "ab")


def test_is_face_refuses_a_bare_string():
    complex_ = S.canonical_join_complex(S.generate("boolean", 3))
    assert complex_.is_face(("a", "b"))
    with pytest.raises(BadParameter):
        complex_.is_face("ab")


def test_faces_past_the_cap_raise():
    # boolean(3)'s complex is the full triangle: 8 faces, the empty one included
    complex_ = S.canonical_join_complex(S.generate("boolean", 3))
    assert len(complex_.faces(cap=8)) == 8
    with pytest.raises(SizeLimitExceeded, match="^more than 5 faces$"):
        complex_.faces(cap=5)


def test_oracle_golden(fig1):
    assert cjr_oracle(fig1, "m1").joinands == ("j2", "j3")
    assert cjr_oracle(fig1, "bot").joinands == ()
    assert cjr_oracle(S.generate("m3"), "1") is None


def test_oracle_matches_fast_path(fig1, small_sd_lattices):
    for lat in sd_family_lattices() + small_sd_lattices[:30]:
        for x in lat.names:
            found = cjr_oracle(lat, x)
            assert found is not None
            assert found.joinands == S.cjr(lat, x).joinands


def test_oracle_size_cap():
    big = S.generate("tamari", 4)
    with pytest.raises(SizeLimitExceeded):
        cjr_oracle(big, big.top)


def test_four_conditions_equivalent(fig1, small_sd_lattices):
    for lat in [fig1] + small_sd_lattices[:25]:
        cji = S.irreducible_table(lat).cji
        for size in range(0, min(4, len(cji)) + 1):
            for group in itertools.combinations(cji, size):
                flags = four_condition_flags(lat, group)
                assert len(set(flags)) == 1, (lat.covers_named(), group, flags)


def test_flag_property(fig1, small_sd_lattices):
    rng = random.Random(17)
    for lat in [fig1] + small_sd_lattices[:25]:
        cji = S.irreducible_table(lat).cji
        groups = list(itertools.combinations(cji, 3)) + list(itertools.combinations(cji, 4))
        rng.shuffle(groups)
        for group in groups[:40]:
            whole = S.joins_canonically(lat, group)
            pairs = all(
                S.joins_canonically(lat, pair)
                for pair in itertools.combinations(group, 2)
            )
            assert whole == pairs


def test_complex_golden(fig1):
    complex_ = S.canonical_join_complex(fig1)
    assert complex_.vertices == ("j1", "j2", "j3", "j4")
    assert sorted(tuple(sorted(e)) for e in complex_.edges) == [
        ("j1", "j2"),
        ("j1", "j3"),
        ("j2", "j3"),
    ]
    assert complex_.is_face(("j1", "j2", "j3"))
    assert not complex_.is_face(("j1", "j4"))
    assert not complex_.is_face(("j1", "top"))  # an element, not a vertex
    faces = complex_.faces()
    assert ("j1", "j2", "j3") in faces
    assert ("j4",) in faces


def test_complex_faces_are_the_canonical_join_representations():
    # the flag-complex theorem: the faces of the canonical join complex are
    # exactly the canonical joinand sets of the elements, one face each
    lattices = [S.generate("tamari", n) for n in range(1, 7)] + [S.generate("boolean", n) for n in range(6)]
    lattices += [S.generate(name) for name in ("fig1", "fig4", "diamond")] + list(random_pool(1, 8, 300)[:150])
    for lat in lattices + [lat.dual() for lat in lattices]:
        faces = S.canonical_join_complex(lat).faces()
        assert sorted(faces) == sorted(S.cjr(lat, x).joinands for x in lat.names), lat.covers_named()


def test_faces_max_size(fig1):
    complex_ = S.canonical_join_complex(fig1)
    assert complex_.faces(max_size=0) == [()]
    assert complex_.faces(max_size=1) == [(), ("j1",), ("j2",), ("j3",), ("j4",)]
    assert len(complex_.faces(max_size=2)) == 1 + 4 + 3
    with pytest.raises(BadParameter):
        complex_.faces(max_size=-1)


def test_complex_chain_and_diamond():
    assert S.canonical_join_complex(S.generate("chain", 4)).edges == frozenset()
    diamond = S.generate("diamond")
    assert sorted(tuple(sorted(e)) for e in S.canonical_join_complex(diamond).edges) == [("a", "b")]
    assert diamond.join("a", "b") == "1"


def test_kappa_bar_sends_cjr_to_cmr(fig1, small_sd_lattices):
    from oracles import cmr_matches_kappa_bar

    for lat in [fig1] + small_sd_lattices[:25]:
        for x in lat.names:
            assert cmr_matches_kappa_bar(lat, x)
