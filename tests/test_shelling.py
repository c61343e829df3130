import copy
import functools
import graphlib
import itertools
import pickle
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

from conftest import (
    CLO_UP_SPLIT_12,
    CLO_UP_SPLIT_22,
    DOUBLED_12,
    DOUBLED_19,
    lattice_from_cover_text,
    random_pool,
    sd_family_lattices,
)
from oracles import hom_order, interval_restriction, length_two_keys_by_names


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
    for perm in itertools.permutations(sorted(lp.alphabet)):
        if S.is_el_labeling(lp, perm, flip=flip):
            return perm
    return None


def _labeled_both_ways(lattice):
    """The j-labeling and, where it exists, the clo-up labeling of ``lattice``."""
    out = [S.lattice_j_labeling(lattice)]
    try:
        out.append(S.label_clo_up(lattice).to_labeled_poset())
    except S.LatticeError:
        pass  # the recursive labeling does not apply to this lattice
    return out


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
        out += _labeled_both_ways(lat)
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
    # the search still finds one.
    lp = S.label_clo_up(fig4).to_labeled_poset()
    report = S.is_el_labeling(lp, ("j1", "j5", "j2", "j4", "j3"))
    assert not report.ok
    assert report.witness.interval == ("bot", "m2")
    assert report.witness.kind == "two-increasing"

    order = S.find_el_order(lp)
    assert order == ("j1", "j4", "j3", "j5", "j2")
    assert el_by_chains(lp, order).ok


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


def test_alphabet_is_derived_from_the_labels():
    labels = dict.fromkeys(_diamond_poset().covers_named(), "x")
    labels[("a", "top")] = "z"
    with pytest.raises(TypeError):
        LabeledPoset(poset=_diamond_poset(), labels=labels, alphabet=("x", "y", "z"))
    lp = LabeledPoset(poset=_diamond_poset(), labels=labels)
    assert lp.alphabet == tuple(sorted(set(lp.labels.values()))) == ("x", "z")
    for lp in (S.lattice_j_labeling(S.generate("tamari", 4)), S.generate("preprojA2")):
        assert lp.alphabet == tuple(sorted(set(lp.labels.values())))


def test_labels_are_a_read_only_copy():
    # the label positions are recorded at construction, so an edit to the
    # labels afterwards must fail rather than leave them stale
    lp = S.lattice_j_labeling(S.generate("boolean", 2))
    cover = next(iter(lp.labels))
    with pytest.raises(TypeError):
        lp.labels[cover] = "zzz"
    assert S.is_el_labeling(lp, lp.alphabet) == el_by_chains(lp, lp.alphabet)
    # and the labeling keeps its own copy of the caller's dict
    labels = dict(lp.labels)
    copy = LabeledPoset(poset=lp.poset, labels=labels)
    labels[cover] = "zzz"
    assert copy.labels == lp.labels and copy.alphabet == lp.alphabet


def test_labeled_poset_survives_pickle_and_deepcopy():
    # the read-only labels are rebuilt, with the alphabet and positions
    cases = [
        S.generate("fig1-labeled"),
        S.lattice_j_labeling(S.generate("tamari", 4)),
        S.label_clo_up(S.generate("fig1")).to_labeled_poset(),
    ]
    for lp in cases:
        orders = [S.find_el_order(lp), lp.alphabet[::-1]]
        for copied in (pickle.loads(pickle.dumps(lp)), copy.deepcopy(lp)):
            assert copied.labels == lp.labels
            assert (copied.alphabet, copied._positions) == (lp.alphabet, lp._positions)
            with pytest.raises(TypeError):
                copied.labels[next(iter(copied.labels))] = "zzz"
            for order in orders:
                assert S.is_el_labeling(copied, order) == S.is_el_labeling(lp, order)


def test_label_validation_reads_the_covers_once(monkeypatch):
    lp = S.lattice_j_labeling(S.generate("boolean", 4))
    calls = []
    covers_named = Poset.covers_named

    def counting(poset):
        calls.append(poset)
        return covers_named(poset)

    monkeypatch.setattr(Poset, "covers_named", counting)
    LabeledPoset(poset=lp.poset, labels=lp.labels)
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
                assert S.is_el_labeling(sub, [c for c in order if c in sub.alphabet])


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
        lp = LabeledPoset(poset=poset, labels=dict(zip(covers, letters)))
        order = [c for c in "wxyz" if c in lp.alphabet]
        for flip in (False, True):
            report = S.is_el_labeling(lp, order, flip=flip)
            assert report == el_by_chains(lp, order, flip=flip)
            kinds.add(report.witness.kind if report.witness else "ok")
            # the per-root program agrees on every failing pair, also where the mask pass runs
            walk, rank = S.shelling._walk(lp, flip), list(range(len(order)))
            assert set(S.shelling._tied_failures(walk, rank, flip)) == set(S.shelling._failures(walk, rank, flip))
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
        for flip in (False, True):
            order = S.find_el_order(lp, flip=flip)
            assert order == search_by_permutations(lp, flip=flip)
            answers.add(order is not None)
    assert answers == {False, True}


def test_search_reads_the_same_from_a_document():
    # The CLI searches the labeled poset its JSON document parses to; the
    # library and the CLI agree when the round trip leaves the answer alone.
    # A document that does not parse back, as where cloUp is no lattice, is
    # skipped.
    lattices = [S.generate("tamari", n) for n in range(1, 7)]
    lattices += [S.generate("boolean", n) for n in range(1, 6)]
    lattices += [S.generate("fig1"), S.generate("fig4")]
    lattices += [lat for lat in random_pool(1, 8, 300)[:100] for lat in (lat, lat.dual())]
    answers = set()
    for lattice in lattices:
        for lp in _labeled_both_ways(lattice):
            try:
                parsed = S.parse_json(S.emit_json(S.to_document(lp)))
            except S.LatticeError:
                continue
            cap = len(lp.alphabet)
            for flip in (False, True):
                order = S.find_el_order(lp, size_cap=cap, flip=flip)
                assert order == S.find_el_order(parsed, size_cap=cap, flip=flip)
                answers.add(order is not None)
    assert answers == {False, True}


def test_length_two_keys_match_the_name_reading():
    # The pruning reads each length-2 interval's keys off the verifier's
    # walk; the oracle reads them from the cover labels by name.  Key lists
    # are compared as multisets of sorted lists, in both conventions.
    cases = [S.generate(name) for name in ("fig1-labeled", "fig4-labeled", "preprojA2")]
    cases += [S.lattice_j_labeling(S.generate("boolean", n)) for n in range(1, 6)]
    cases += [S.lattice_j_labeling(S.generate("tamari", n)) for n in range(2, 7)]
    cases += [S.label_clo_up(S.generate("tamari", n)).to_labeled_poset() for n in range(2, 7)]
    lattices = [lat for lat in random_pool(1, 8, 300)[:100] for lat in (lat, lat.dual())]
    lattices += [lattice_from_cover_text(text) for text in (DOUBLED_12, DOUBLED_19)]
    for lattice in lattices:
        cases += _labeled_both_ways(lattice)
    poset = _pentagon_under_chain()
    for letters in itertools.product("wxyz", repeat=len(poset.covers)):
        labels = dict(zip(poset.covers_named(), letters))
        cases.append(LabeledPoset(poset=poset, labels=labels))
    intervals = 0
    for lp in cases:
        for flip in (False, True):
            got = S.shelling._length_two_keys(S.shelling._walk(lp, flip))
            expected = length_two_keys_by_names(lp, flip)
            assert sorted(map(sorted, got)) == sorted(map(sorted, expected))
            intervals += len(got)
    assert intervals


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
        lp = LabeledPoset(poset=poset, labels=labels)
        for flip in (False, True):
            order = S.find_el_order(lp, flip=flip)
            assert order == search_by_permutations(lp, flip=flip)
            found += order is not None
    assert found


def test_search_finds_the_draw_50_clo_up_order():
    # Draw 50 of random_sd_lattice(rng=random.Random(5), max_mid=8), built
    # here from its covers.  Its clo-up labeling is certified by an order
    # that does not refine the reverse of the order its labels inherit as
    # lattice elements, so a search kept to such refinements misses it.
    lattice = S.Lattice.build_from_covers(
        ["bot"] + [f"e{k}" for k in range(7)] + ["top"],
        [
            ("bot", "e0"), ("bot", "e1"), ("bot", "e2"), ("e0", "e4"), ("e0", "e5"),
            ("e1", "e3"), ("e1", "e4"), ("e2", "e3"), ("e2", "e5"), ("e3", "top"),
            ("e4", "top"), ("e5", "e6"), ("e6", "top"),
        ],
    )
    lp = S.label_clo_up(lattice).to_labeled_poset()
    order = S.find_el_order(lp)
    assert order == ("e0", "e1", "e6", "e2") == search_by_permutations(lp)
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
    "text, size, height, orders",
    [
        (DOUBLED_19, 19, 6, (None, None)),
        (DOUBLED_12, 12, 5, (("e10", "e3", "e7", "e5", "e8", "e9"), ("e8", "e5", "e7", "e3", "e10", "e9"))),
    ],
    ids=["doubled19", "doubled12"],
)
def test_doubled_lattice_el_orders(text, size, height, orders):
    # Interval doubling gives SD lattices whose cloUp is a lattice with a
    # clo-up labeling.  On the 19-element lattice no order of the 6 labels
    # certifies it in either convention; on the 12-element one an order
    # does in each.
    lattice = lattice_from_cover_text(text)
    assert (len(lattice), lattice.height(), lattice.is_semidistributive()) == (size, height, True)
    assert S.clo_up(lattice).is_lattice()
    lp = S.label_clo_up(lattice).to_labeled_poset()
    assert len(lp.alphabet) == 6
    for flip, order in zip((False, True), orders):
        assert S.find_el_order(lp, flip=flip) == order == search_by_permutations(lp, flip=flip)


def _entered_twice_by_one_label(lp, flip):
    """Whether two covers entering one node, upwards or under ``flip`` downwards, share a label."""
    seen = set()
    for (lo, hi), label in lp.labels.items():
        entry = (lo if flip else hi, label)
        if entry in seen:
            return True
        seen.add(entry)
    return False


def _verifier_lattices(pool):
    lattices = [S.generate("tamari", n) for n in range(2, 8)]
    lattices += [S.generate("boolean", n) for n in range(1, 6)]
    lattices += [S.generate("chain", 6), S.generate("fig1"), S.generate("fig4")]
    lattices += list(pool)
    for seed in (1, 2, 3):
        lattices += random_pool(seed, 8, 40)
    texts = (DOUBLED_12, DOUBLED_19, CLO_UP_SPLIT_12, CLO_UP_SPLIT_22)
    lattices += [lattice_from_cover_text(text) for text in texts]
    return [each for lattice in lattices for each in (lattice, lattice.dual())]


def test_mask_pass_matches_the_dynamic_program(small_sd_lattices):
    # Where no node is entered twice by one label, the mask pass and the
    # per-root program fail the same (lo, hi) pairs, not only the first,
    # under the Hom order where it is acyclic, its reverse and random
    # orders, on j- and clo-up labelings, in both conventions.
    rng = random.Random(3)
    outcomes = set()
    walks = 0
    for lattice in _verifier_lattices(small_sd_lattices):
        try:
            hom = hom_order(lattice)
        except graphlib.CycleError:
            hom = None
        for lp in _labeled_both_ways(lattice):
            orders = [tuple(rng.sample(lp.alphabet, len(lp.alphabet))) for _ in range(2)]
            if hom is not None:
                kept = tuple(label for label in hom if label in lp.alphabet)
                assert sorted(kept) == list(lp.alphabet)
                orders += [kept, kept[::-1]]
            for flip in (False, True):
                walk = S.shelling._walk(lp, flip)
                if walk[3]:
                    continue
                walks += 1
                for order in orders:
                    rank = sorted(range(len(order)), key=order.__getitem__)
                    failing = set(S.shelling._mask_failures(walk, rank, flip))
                    assert failing == set(S.shelling._tied_failures(walk, rank, flip))
                    outcomes.add(bool(failing))
    assert walks > 500 and outcomes == {False, True}


def test_walk_flags_exactly_the_nodes_entered_twice_by_one_label(small_sd_lattices):
    cases = [lp for lattice in _verifier_lattices(small_sd_lattices) for lp in _labeled_both_ways(lattice)]
    cases += [_labeled_diamond(*letters) for letters in itertools.product("xyz", repeat=4)]
    poset = _pentagon_under_chain()
    for letters in itertools.product("wxyz", repeat=len(poset.covers)):
        cases.append(LabeledPoset(poset=poset, labels=dict(zip(poset.covers_named(), letters))))
    flags = set()
    for lp in cases:
        for flip in (False, True):
            tied = S.shelling._walk(lp, flip)[3]
            assert tied == _entered_twice_by_one_label(lp, flip)
            flags.add(tied)
    assert flags == {False, True}


def test_diamond_labelings_match_chain_enumeration():
    # Every labeling of the diamond by three letters under every order of
    # its labels: where the two top covers (under flip, the two bottom
    # covers) share a label the walk is tied and the per-root program
    # runs, elsewhere the mask pass.
    tied = set()
    for letters in itertools.product("xyz", repeat=4):
        lp = _labeled_diamond(*letters)
        for flip in (False, True):
            tied.add(S.shelling._walk(lp, flip)[3])
            for order in itertools.permutations(lp.alphabet):
                assert S.is_el_labeling(lp, order, flip=flip) == el_by_chains(lp, order, flip=flip)
    assert tied == {False, True}


def test_tall_chain_is_certified_by_the_mask_pass():
    # 1201 roots, more than one chunk.  Each cover of the chain is
    # j-labeled by its upper end, and the one maximal chain of an interval
    # is increasing when the ranks fall upwards, or under flip rise.
    lp = S.lattice_j_labeling(S.generate("chain", 1200))
    upwards = [f"c{k}" for k in range(1, 1201)]
    assert not any(S.shelling._walk(lp, flip)[3] for flip in (False, True))
    assert S.is_el_labeling(lp, upwards[::-1])
    assert S.is_el_labeling(lp, upwards, flip=True)
    # c600 now ranks before c601, so every interval over c599 < c600 < c601 fails
    swapped = upwards[::-1]
    swapped[599], swapped[600] = swapped[600], swapped[599]
    report = S.is_el_labeling(lp, swapped)
    assert (report.witness.interval, report.witness.kind) == (("c0", "c1000"), "zero-increasing")


def _diamond_stack(k):
    """k diamonds b_i < a_i, c_i < b_(i+1) stacked, the two top covers of each labeled z_i."""
    labels = {}
    for i in range(k):
        labels[f"b{i}", f"a{i}"], labels[f"b{i}", f"c{i}"] = f"x{i}", f"y{i}"
        labels[f"a{i}", f"b{i + 1}"] = labels[f"c{i}", f"b{i + 1}"] = f"z{i}"
    names = sorted({name for cover in labels for name in cover})
    return LabeledPoset(poset=Poset.from_covers(names, list(labels)), labels=labels)


def _stack_order(k):
    """Higher diamonds rank first; in each, y_i < z_i < x_i."""
    return [label for i in reversed(range(k)) for label in (f"y{i}", f"z{i}", f"x{i}")]


def test_small_diamond_stack_matches_chain_enumeration():
    rng = random.Random(4)
    for k in (1, 2, 3):
        lp = _diamond_stack(k)
        assert S.shelling._walk(lp, False)[3] and not S.shelling._walk(lp, True)[3]
        orders = [_stack_order(k)] + [rng.sample(lp.alphabet, len(lp.alphabet)) for _ in range(20)]
        for order in orders:
            for flip in (False, True):
                assert S.is_el_labeling(lp, order, flip=flip) == el_by_chains(lp, order, flip=flip)


def test_tall_diamond_stack_runs_the_dynamic_program():
    # Height 200 with a tie at every second level.  Under the stack order
    # every chain through a diamond is increasing by a only and least by
    # c, so exactly the intervals that hold a whole diamond fail: lo is
    # below some b_i and hi above b_(i+1).
    k = 100
    lp = _diamond_stack(k)
    walk = S.shelling._walk(lp, False)
    assert walk[3] and lp.poset.height() == 2 * k
    order = _stack_order(k)
    rank = sorted(range(len(order)), key=order.__getitem__)
    names = lp.poset.names

    def level(name, above):
        # the b index of the lowest b above the element, or the highest below it
        i = int(name[1:])
        return i + (above and name[0] != "b")

    expected = {
        (lo, hi)
        for lo, hi in itertools.product(range(lp.poset.n), repeat=2)
        if level(names[lo], True) < level(names[hi], False)
    }
    assert set(S.shelling._failures(walk, rank, False)) == expected
