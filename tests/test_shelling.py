import itertools

import pytest

import sdlat as S
from sdlat import ChainCapExceeded, LabeledPoset, MissingLabel, Poset, SizeLimitExceeded

from conftest import sd_family_lattices


def _diamond_poset():
    return Poset.from_covers(
        ["bot", "a", "b", "top"],
        [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")],
    )


def _labeled_diamond(l1, l2, l3, l4):
    return LabeledPoset(
        poset=_diamond_poset(),
        labels={("bot", "a"): l1, ("a", "top"): l2, ("bot", "b"): l3, ("b", "top"): l4},
    )


def test_preproj_el(preproj):
    assert S.is_el_labeling(preproj, ("P1", "S2", "P2", "S1"))
    assert not S.is_el_labeling(preproj, ("S1", "P2", "S2", "P1"))


def test_fig1_clo_up_el(fig1):
    lp = S.label_clo_up(fig1).to_labeled_poset()
    assert S.is_el_labeling(lp, ("j1", "j2", "j4", "j3"))


def test_fig4_clo_up_el(fig4):
    # The order j1, j5, j2, j4, j3 leaves two increasing chains in the
    # interval below m2, so it is not an EL certificate for this labeling;
    # an unconstrained search still finds one.
    lp = S.label_clo_up(fig4).to_labeled_poset()
    report = S.is_el_labeling(lp, ("j1", "j5", "j2", "j4", "j3"))
    assert not report.ok
    assert report.witness.interval == ("bot", "m2")
    assert report.witness.kind == "two-increasing"

    free = LabeledPoset(poset=lp.poset, labels=lp.labels, alphabet=lp.alphabet)
    order = S.find_el_order(free)
    assert order is not None
    assert S.is_el_labeling(free, order)

    # no order refining the reverse of the inherited cji order certifies
    assert S.find_el_order(lp) is None


def test_constant_diamond_fails():
    lp = _labeled_diamond("L", "L", "L", "L")
    report = S.is_el_labeling(lp, ("L",))
    assert not report.ok
    assert report.witness.kind == "zero-increasing"
    assert S.find_el_order(lp) is None


def test_two_increasing_witness():
    lp = _labeled_diamond("B", "A", "B", "A")
    report = S.is_el_labeling(lp, ("A", "B"))
    assert not report.ok
    assert report.witness.kind == "two-increasing"


def test_not_lex_least_witness():
    lp = _labeled_diamond("C", "B", "A", "A")
    report = S.is_el_labeling(lp, ("A", "B", "C"))
    assert not report.ok
    assert report.witness.kind == "not-lex-least"


def test_good_diamond_passes_both_conventions():
    lp = _labeled_diamond("a", "b", "b", "a")
    assert S.is_el_labeling(lp, ("a", "b"), flip=True)
    assert S.is_el_labeling(lp, ("a", "b"))


def test_order_must_be_permutation(preproj):
    with pytest.raises(ValueError):
        S.is_el_labeling(preproj, ("P1", "S2"))


def test_missing_label_rejected():
    with pytest.raises(MissingLabel):
        LabeledPoset(poset=_diamond_poset(), labels={("bot", "a"): "x"})


def test_chain_cap():
    lp = S.lattice_j_labeling(S.generate("boolean", 3))
    with pytest.raises(ChainCapExceeded):
        S.is_el_labeling(lp, lp.alphabet, chain_cap=5)


def test_el_is_interval_local(fig1, preproj):
    cases = [
        (S.label_clo_up(fig1).to_labeled_poset(), ("j1", "j2", "j4", "j3")),
        (preproj, ("P1", "S2", "P2", "S1")),
    ]
    for lp, order in cases:
        assert S.is_el_labeling(lp, order)
        names = lp.poset.names
        for lo, hi in itertools.product(names, repeat=2):
            if lp.poset.leq(lo, hi):
                sub = lp.interval_restriction(lo, hi)
                assert S.is_el_labeling(sub, order)


def test_find_el_order_single_chain():
    poset = Poset.from_covers(["bot", "mid", "top"], [("bot", "mid"), ("mid", "top")])
    lp = LabeledPoset(poset=poset, labels={("bot", "mid"): "X", ("mid", "top"): "Y"})
    assert S.find_el_order(lp) == ("Y", "X")


def test_find_el_order_cap(preproj):
    with pytest.raises(SizeLimitExceeded):
        S.find_el_order(preproj, size_cap=3)


def test_extremal_golden(fig1, fig4):
    assert S.is_extremal(fig1)
    assert not S.is_extremal(fig4)


def test_extremal_tall_chain():
    # one chain of 1200 covers, deeper than the default recursion limit
    assert S.is_extremal(S.generate("chain", 1200))


def test_boolean3_extremal_pinned():
    # Longest chain has length 3 = |cji| = |cmi| and any such chain meets all
    # three atoms as labels, so the cube is extremal; cross-checked by brute
    # enumeration of maximal chains below.
    cube = S.generate("boolean", 3)
    assert S.is_extremal(cube)
    table = S.irreducible_table(cube)
    labeling = S.cover_labeling(cube)

    def chains(frm, acc):
        if frm == cube.top:
            yield acc
            return
        for nxt in cube.upper_covers(frm):
            yield from chains(nxt, acc + [labeling.jlabel[(frm, nxt)]])

    assert cube.height() == len(table.cji) == len(table.cmi) == 3
    assert any(set(labels) == set(table.cji) for labels in chains(cube.bottom, []))


def test_non_extremal_chains_cannot_exhaust(fig4, small_sd_lattices):
    for lat in [fig4] + small_sd_lattices[:20]:
        if S.is_extremal(lat):
            continue
        table = S.irreducible_table(lat)
        labeling = S.cover_labeling(lat)

        def chains(frm, acc, lat=lat, labeling=labeling):
            if frm == lat.top:
                yield acc
                return
            for nxt in lat.upper_covers(frm):
                yield from chains(nxt, acc + [labeling.jlabel[(frm, nxt)]], lat, labeling)

        for labels in chains(lat.bottom, []):
            assert set(labels) != set(table.cji)


def test_chain_labels_always_distinct(small_sd_lattices):
    # Along any maximal chain the cover labels never repeat.
    for lat in sd_family_lattices(max_size=10) + small_sd_lattices[:15]:
        labeling = S.cover_labeling(lat)

        def chains(frm, acc, lat=lat, labeling=labeling):
            if frm == lat.top:
                yield acc
                return
            for nxt in lat.upper_covers(frm):
                yield from chains(nxt, acc + [labeling.jlabel[(frm, nxt)]], lat, labeling)

        for labels in chains(lat.bottom, []):
            assert len(set(labels)) == len(labels)


def test_find_el_order_verified(fig1):
    lp = S.label_clo_up(fig1).to_labeled_poset()
    order = S.find_el_order(lp)
    assert order is not None
    assert S.is_el_labeling(lp, order)
