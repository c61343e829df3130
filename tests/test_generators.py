import random

import pytest

import sdlat as S
from sdlat import BadParameter
from sdlat.generators import catalan


def test_fig1_cji_names(fig1):
    assert S.irreducible_table(fig1).cji == ("j1", "j2", "j3", "j4")


def test_fig4_shape(fig4):
    assert len(fig4) == 10
    assert len(fig4.covers) == 14
    assert fig4.leq("m3", "j5")
    assert fig4.is_cover("j5", "top")
    assert not fig4.is_cover("m3", "top")


def test_labeled_variants_validate():
    # generation cross-checks every stored label against a recomputed one
    lp1 = S.generate("fig1-labeled")
    lp4 = S.generate("fig4-labeled")
    assert lp1.labels[("j4", "m1")] == "j2"
    assert lp4.labels[("m3", "j5")] == "j5"
    assert lp4.labels[("j5", "top")] == "j3"
    for lp in (lp1, lp4):
        for (lo, hi), lbl in lp.labels.items():
            assert S.j_label_cover(lp.poset, lo, hi) == lbl
    # a wrong stored label raises, also under python -O
    wrong = {**S.generators._FIG1_LABELS, ("j3", "j4"): "j3"}
    with pytest.raises(S.InconsistentLabels, match="stored label 'j3'"):
        S.generators._validated_labeling(S.generators.fig1(), wrong)


def test_chain_sizes():
    assert len(S.generate("chain", 1)) == 2
    assert S.generate("chain", 0).bottom == S.generate("chain", 0).top
    assert len(S.generate("chain", 5)) == 6


def test_boolean_sizes():
    for n in range(4):
        assert len(S.generate("boolean", n)) == 2**n
    assert S.generate("boolean", 2).join("a", "b") == "ab"


def test_tamari_counts():
    for n in range(7):
        assert len(S.generate("tamari", n)) == catalan(n)
    assert len(S.generate("tamari", 3)) == 5


def test_tamari_semidistributive():
    for n in range(1, 7):
        assert S.generate("tamari", n).is_semidistributive()


def test_preproj_not_semidistributive(preproj):
    assert not preproj.poset.is_semidistributive()
    assert len(preproj.poset) == 6
    assert len(preproj.labels) == 8


def test_preproj_search_finds_paper_order(preproj):
    assert S.find_el_order(preproj) is not None
    assert S.is_el_labeling(preproj, ("P1", "S2", "P2", "S1"))


def test_bad_parameters():
    with pytest.raises(BadParameter):
        S.generate("tamari", 10)
    with pytest.raises(BadParameter):
        S.generate("boolean", 7)
    with pytest.raises(BadParameter):
        S.generate("chain", -1)
    with pytest.raises(BadParameter):
        S.generate("nope")
    with pytest.raises(BadParameter):
        S.generate("fig1", 3)
    with pytest.raises(BadParameter):
        S.generate("boolean")


def test_random_sd_lattice_deterministic():
    first = S.random_sd_lattice(seed=99)
    second = S.random_sd_lattice(seed=99)
    assert first == second
    assert first.is_semidistributive()


def test_random_sd_lattice_stream():
    rng = random.Random(4)
    sizes = set()
    for _ in range(40):
        lat = S.random_sd_lattice(rng=rng)
        assert lat.is_semidistributive()
        sizes.add(len(lat))
    assert len(sizes) >= 4
