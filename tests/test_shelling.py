import functools
import itertools
import random

import pytest

import sdlat as S
from sdlat import (
    BadParameter,
    ChainCapExceeded,
    ELReport,
    ELWitness,
    LabeledPoset,
    MissingLabel,
    Poset,
    SizeLimitExceeded,
)

from conftest import DOUBLED_12, DOUBLED_19, lattice_from_cover_text, sd_family_lattices
from oracles import hom_order, interval_restriction


def el_by_chains(lp, order, flip=False, chain_cap=10**6):
    """Reference EL check that enumerates every maximal chain of every interval.

    Intervals are taken in name order and each is decided on all its
    chains.  The first failing one gives the witness, or raises when it has
    more than ``chain_cap`` chains, too many to list.
    """
    rank = {label: k for k, label in enumerate(order)}
    p = lp.poset
    pos = p.index

    @functools.cache
    def chains(lo, hi):
        # in lexicographic order of element indices
        if lo == hi:
            return [(lo,)]
        out = []
        for nxt in sorted(p.upper_covers(lo), key=pos.__getitem__):
            if p.leq(nxt, hi):
                out += [(lo, *rest) for rest in chains(nxt, hi)]
        return out

    for lo, hi in sorted((a, b) for a in p.names for b in p.names if a != b and p.leq(a, b)):
        found = chains(lo, hi)
        scored = []
        for chain in found:
            word = tuple(lp.labels[step] for step in zip(chain, chain[1:]))
            ranks = [rank[label] for label in word]
            key = tuple(ranks if flip else ranks[::-1])
            increasing = all(a < b for a, b in zip(key, key[1:]))
            scored.append((key, increasing, tuple(pos[x] for x in chain), chain, word))
        rising = [s for s in scored if s[1]]
        if len(rising) != 1:
            shown = rising[:2] if rising else sorted(scored)[:2]
            kind = "two-increasing" if rising else "zero-increasing"
        elif min(scored)[0] < rising[0][0]:
            shown, kind = [rising[0], min(scored)], "not-lex-least"
        else:
            continue
        if len(found) > chain_cap:
            raise ChainCapExceeded(f"interval has more than {chain_cap} maximal chains")
        witness = ELWitness(
            interval=(lo, hi),
            kind=kind,
            chains=tuple(s[3] for s in shown),
            words=tuple(s[4] for s in shown),
        )
        return ELReport(ok=False, witness=witness)
    return ELReport(ok=True)


def search_by_permutations(lp, flip=False):
    """Reference search: every permutation of the sorted alphabet, in order."""
    alphabet = sorted(lp.alphabet)
    constraints = [(a, b) for a, b in lp.label_leq or () if a in alphabet and b in alphabet]
    for perm in itertools.permutations(alphabet):
        pos = {label: k for k, label in enumerate(perm)}
        if any(pos[b] > pos[a] for a, b in constraints):
            continue
        if S.is_el_labeling(lp, perm, flip=flip):
            return perm
    return None


def _unconstrained(lp):
    return LabeledPoset(poset=lp.poset, labels=lp.labels, alphabet=lp.alphabet)


@pytest.fixture(scope="module")
def labelings(small_sd_lattices):
    """j-labelings and clo-up labelings of the families and the random pool with duals."""
    lattices = [S.generate("fig1"), S.generate("fig4")]
    lattices += [S.generate("boolean", n) for n in range(2, 6)]
    lattices += [S.generate("tamari", n) for n in (3, 4)]
    lattices += [S.generate("chain", n) for n in range(0, 5)]
    lattices += [lat for pool in small_sd_lattices for lat in (pool, pool.dual())]
    out = [S.generate("preprojA2"), S.generate("fig1-labeled"), S.generate("fig4-labeled")]
    for lat in lattices:
        out.append(S.lattice_j_labeling(lat))
        try:
            out.append(S.label_clo_up(lat).to_labeled_poset())
        except S.LatticeError:
            pass  # the recursive labeling does not apply to this lattice
    return out


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
    with pytest.raises(BadParameter):
        S.is_el_labeling(preproj, ("P1", "S2"))


def test_missing_label_rejected():
    with pytest.raises(MissingLabel):
        LabeledPoset(poset=_diamond_poset(), labels={("bot", "a"): "x"})


def test_repeated_alphabet_label_rejected():
    # an alphabet is a set of labels, so an order ranks each label once
    labels = dict.fromkeys(_diamond_poset().covers_named(), "x")
    with pytest.raises(BadParameter, match="repeats a label"):
        LabeledPoset(poset=_diamond_poset(), labels=labels, alphabet=("x", "y", "x"))


def test_label_outside_the_alphabet_rejected():
    labels = dict.fromkeys(_diamond_poset().covers_named(), "x")
    labels[("a", "top")] = "z"
    with pytest.raises(MissingLabel, match="^some cover label is outside the alphabet$"):
        LabeledPoset(poset=_diamond_poset(), labels=labels, alphabet=("x", "y"))


def test_label_validation_reads_the_covers_once(monkeypatch):
    lp = S.lattice_j_labeling(S.generate("boolean", 4))
    calls = []
    covers_named = Poset.covers_named

    def counting(poset):
        calls.append(poset)
        return covers_named(poset)

    monkeypatch.setattr(Poset, "covers_named", counting)
    LabeledPoset(poset=lp.poset, labels=lp.labels, alphabet=lp.alphabet)
    assert len(calls) == 0
    missing = dict(lp.labels)
    del missing[("a", "ab")]
    with pytest.raises(MissingLabel, match=r"covers without labels: \[\('a', 'ab'\)\]"):
        LabeledPoset(poset=lp.poset, labels=missing)
    extra = {**lp.labels, ("a", "abc"): "b", ("0", "ab"): "a"}
    with pytest.raises(
        MissingLabel, match=r"labels on non-covers: \[\('a', 'abc'\), \('0', 'ab'\)\]"
    ):
        LabeledPoset(poset=lp.poset, labels=extra)
    # the right number of labels, one of them on a non-cover: a size test alone would pass it
    swapped = {**missing, ("a", "abc"): "b"}
    assert len(swapped) == len(lp.labels)
    with pytest.raises(MissingLabel, match=r"^covers without labels: \[\('a', 'ab'\)\]$"):
        LabeledPoset(poset=lp.poset, labels=swapped)
    # five missing covers: the message lists the first four in name order
    five = dict(lp.labels)
    for cover in [("c", "cd"), ("0", "a"), ("b", "bd"), ("a", "ab"), ("ab", "abc")]:
        del five[cover]
    with pytest.raises(
        MissingLabel,
        match=r"^covers without labels: \[\('0', 'a'\), \('a', 'ab'\), \('ab', 'abc'\), \('b', 'bd'\)\]$",
    ):
        LabeledPoset(poset=lp.poset, labels=five)
    assert len(calls) == 0


def test_chain_cap():
    # the cap guards only the witness: the top interval of the cube has 6
    # maximal chains, more than the cap, yet every order certifies
    lp = S.lattice_j_labeling(S.generate("boolean", 3))
    for order in itertools.permutations(lp.alphabet):
        assert S.is_el_labeling(lp, order, chain_cap=5)


@pytest.mark.parametrize("n, cap", [(6, 1000), (9, 10**6)])
def test_hom_order_certifies_clo_up_over_the_chain_cap(n, cap):
    # the top interval of cloUp(tamari(n)) has n**(n-2) maximal chains,
    # more than the cap, which no interval that passes is held to; 10**6
    # is the default
    lattice = S.generate("tamari", n)
    lp = S.label_clo_up(lattice).to_labeled_poset()
    assert S.is_el_labeling(lp, hom_order(lattice), chain_cap=cap).ok


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
                sub = interval_restriction(lp, lo, hi)
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


def _orders(alphabet, rng):
    alphabet = sorted(alphabet)
    if len(alphabet) <= 6:
        return list(itertools.permutations(alphabet))
    return [tuple(rng.sample(alphabet, len(alphabet))) for _ in range(20)]


def _outcome(check, *args, **kwargs):
    try:
        return check(*args, **kwargs)
    except ChainCapExceeded as exc:
        return str(exc)


def _pentagon_under_chain():
    # not graded: bot < b < t has length 2, bot < a < c < t length 3
    return Poset.from_covers(
        ["bot", "a", "b", "c", "t", "top"],
        [("bot", "a"), ("a", "c"), ("c", "t"), ("bot", "b"), ("b", "t"), ("t", "top")],
    )


def test_dp_verifier_matches_chain_enumeration(labelings):
    rng = random.Random(0)
    for lp in labelings:
        for order in _orders(lp.alphabet, rng):
            for flip in (False, True):
                assert S.is_el_labeling(lp, order, flip=flip) == el_by_chains(lp, order, flip=flip)


def test_dp_verifier_matches_on_larger_alphabets():
    rng = random.Random(1)
    for lp in (
        S.lattice_j_labeling(S.generate("tamari", 5)),
        S.label_clo_up(S.generate("tamari", 5)).to_labeled_poset(),
        S.lattice_j_labeling(S.generate("chain", 8)),
    ):
        assert len(lp.alphabet) > 6
        orders = _orders(lp.alphabet, rng) + [S.find_el_order(lp, size_cap=len(lp.alphabet))]
        for order in orders:
            for flip in (False, True):
                assert S.is_el_labeling(lp, order, flip=flip) == el_by_chains(lp, order, flip=flip)


def test_dp_verifier_matches_on_ungraded_poset():
    # Every labeling by four letters, so every pattern of ranks occurs, and
    # least keys of different lengths meet at t and are extended past it.
    poset = _pentagon_under_chain()
    covers = poset.covers_named()
    kinds = set()
    for letters in itertools.product("wxyz", repeat=len(covers)):
        lp = LabeledPoset(poset=poset, labels=dict(zip(covers, letters)), alphabet=tuple("wxyz"))
        for flip in (False, True):
            report = S.is_el_labeling(lp, "wxyz", flip=flip)
            assert report == el_by_chains(lp, "wxyz", flip=flip)
            kinds.add(report.witness.kind if report.witness else "ok")
    assert kinds == {"ok", "zero-increasing", "two-increasing", "not-lex-least"}


def test_chain_cap_raises_as_enumeration_does(labelings):
    raised = passed = 0
    for lp in labelings:
        for flip in (False, True):
            for cap in (1, 2, 6):
                got = _outcome(S.is_el_labeling, lp, sorted(lp.alphabet), flip=flip, chain_cap=cap)
                assert got == _outcome(el_by_chains, lp, sorted(lp.alphabet), flip=flip, chain_cap=cap)
                raised += isinstance(got, str)
                passed += not isinstance(got, str)
    assert raised and passed


def test_pruned_search_matches_permutation_loop(labelings):
    answers = set()
    for lp in labelings:
        if len(lp.alphabet) > 6:
            continue
        for candidate in (lp, _unconstrained(lp)):
            for flip in (False, True):
                order = S.find_el_order(candidate, flip=flip)
                assert order == search_by_permutations(candidate, flip=flip)
                answers.add((candidate.label_leq is not None, order is not None))
    assert answers == {(False, False), (False, True), (True, False), (True, True)}


def test_pruned_search_matches_on_arbitrary_labels():
    # Every labeling of the diamond by three letters, and random labelings
    # of an ungraded poset and of the cube.
    rng = random.Random(2)
    diamond = _diamond_poset()
    cases = [(diamond, letters) for letters in itertools.product("xyz", repeat=4)]
    for poset in (_pentagon_under_chain(), S.generate("boolean", 3)):
        cases += [(poset, rng.choices("wxyz", k=len(poset.covers))) for _ in range(30)]
    found = 0
    for poset, letters in cases:
        labels = dict(zip(poset.covers_named(), letters))
        for label_leq in (None, frozenset({("x", "y")}), frozenset({("y", "x"), ("z", "w")})):
            lp = LabeledPoset(poset=poset, labels=labels, alphabet=tuple("wxyz"), label_leq=label_leq)
            for flip in (False, True):
                order = S.find_el_order(lp, flip=flip)
                assert order == search_by_permutations(lp, flip=flip)
                found += order is not None
    assert found


def test_label_leq_restricts_the_search():
    # Draw 50 of random_sd_lattice(rng=random.Random(5), max_mid=8), built
    # here from its covers.  The inherited order on the labels is not a
    # necessary condition for EL: no order refining its reverse certifies
    # the clo-up labeling, but another order does.
    lattice = S.Lattice.build_from_covers(
        ["bot"] + [f"e{k}" for k in range(7)] + ["top"],
        [
            ("bot", "e0"), ("bot", "e1"), ("bot", "e2"), ("e0", "e4"), ("e0", "e5"),
            ("e1", "e3"), ("e1", "e4"), ("e2", "e3"), ("e2", "e5"), ("e3", "top"),
            ("e4", "top"), ("e5", "e6"), ("e6", "top"),
        ],
    )
    lp = S.label_clo_up(lattice).to_labeled_poset()
    assert lp.label_leq
    assert S.find_el_order(lp) is None
    order = S.find_el_order(_unconstrained(lp))
    assert order == ("e0", "e1", "e6", "e2")
    assert el_by_chains(lp, order).ok


@pytest.mark.parametrize("n, labels", [(5, 10), (6, 15)])
def test_tamari_clo_up_el_order(n, labels):
    # The paper's first theorem: for a representation-directed algebra some
    # order on bricks makes the kappa_d labeling of the upper core label
    # order EL.  tamari(n) is the torsion-class lattice of linearly oriented
    # A_(n-1).
    lp = S.label_clo_up(S.generate("tamari", n)).to_labeled_poset()
    assert len(lp.alphabet) == labels
    order = S.find_el_order(lp, size_cap=len(lp.alphabet))
    assert order is not None
    assert el_by_chains(lp, order).ok


@pytest.mark.parametrize(
    "text, size, height, unrestricted",
    [
        (DOUBLED_19, 19, 6, (None, None)),
        (DOUBLED_12, 12, 5, (("e10", "e3", "e7", "e5", "e8", "e9"), ("e8", "e5", "e7", "e3", "e10", "e9"))),
    ],
    ids=["doubled19", "doubled12"],
)
def test_doubled_lattice_el_orders(text, size, height, unrestricted):
    # Interval doubling gives SD lattices whose cloUp is a lattice with a
    # clo-up labeling, yet the search restricted by the inherited label
    # order finds no EL order.  On the 19-element lattice no order of the
    # 6 labels certifies; on the 12-element one an order outside the
    # restriction does, so a "none" answer depends on the restriction.
    lattice = lattice_from_cover_text(text)
    assert (len(lattice), lattice.height(), lattice.is_semidistributive()) == (size, height, True)
    assert S.clo_up(lattice).is_lattice()
    lp = S.label_clo_up(lattice).to_labeled_poset()
    assert len(lp.alphabet) == 6
    free = LabeledPoset(poset=lp.poset, labels=lp.labels, alphabet=lp.alphabet, label_leq=frozenset())
    for flip, order in zip((False, True), unrestricted):
        assert S.find_el_order(lp, flip=flip) is None
        assert S.find_el_order(free, flip=flip) == order
