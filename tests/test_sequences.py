import itertools
import pickle
import random
from collections import Counter

import pytest

import sdlat as S
from sdlat import BadParameter, NoBoundsError, NotJoinIrreducible, RecursionMismatch

from conftest import DOUBLED_12, DOUBLED_19, lattice_from_cover_text, random_pool, sd_family_lattices

FIG1_MAXIMAL = {
    ("j1", "j2", "j4"),
    ("j1", "j3", "j2"),
    ("j2", "j1", "j4"),
    ("j2", "j3", "j1"),  # the seventh sequence, fixed by enumeration
    ("j3", "j1", "j2"),
    ("j3", "j2", "j1"),
    ("j4", "j3"),
}

FIG4_MAXIMAL = {
    ("j5", "j2", "j1"),
    ("j3", "j5", "j1"),
    ("j2", "j3", "j1"),
    ("j5", "j1", "j2"),
    ("j3", "j5", "j2"),
    ("j1", "j3", "j2"),
    ("j4", "j3"),
    ("j2", "j1", "j4"),
    ("j1", "j2", "j4"),
    ("j3", "j5"),
}


def _brute_force_sequences(lat):
    cji = S.irreducible_table(lat).cji
    found = set()
    for length in range(1, lat.height() + 1):
        for tup in itertools.product(cji, repeat=length):
            if S.is_kd_exceptional(lat, tup):
                found.add(tup)
    return found


def test_verify_golden(fig1):
    assert S.is_kd_exceptional(fig1, ("j4", "j3"))
    for j in S.irreducible_table(fig1).cji:
        assert S.is_kd_exceptional(fig1, (j,))
    assert S.is_kd_exceptional(fig1, ())

    check = S.is_kd_exceptional(fig1, ("j1", "j3"))
    assert not check
    assert check.condition == 1
    assert check.position == 0
    assert check.entry == "j1"

    with pytest.raises(NotJoinIrreducible):
        S.is_kd_exceptional(fig1, ("m1",))


def test_verifier_refuses_a_bare_string():
    # "ab" names an element of boolean(3) that is not join-irreducible; it
    # must not be read as the sequence ("a", "b")
    lat = S.generate("boolean", 3)
    assert S.is_kd_exceptional(lat, ("a", "b"))
    with pytest.raises(BadParameter):
        S.is_kd_exceptional(lat, "ab")


def test_fig1_maximal(fig1):
    seqs = S.enumerate_kd_exceptional(fig1, maximal_only=True, mark_right_extendable=True)
    assert {s.entries for s in seqs} == FIG1_MAXIMAL
    assert len(seqs) == 7
    assert all(s.right_extendable is False for s in seqs)


def test_fig4_maximal(fig4):
    seqs = S.enumerate_kd_exceptional(fig4, maximal_only=True, mark_right_extendable=True)
    assert {s.entries for s in seqs} == FIG4_MAXIMAL
    assert len(seqs) == 10
    by_entries = {s.entries: s for s in seqs}
    assert by_entries[("j3", "j5")].right_extendable is True
    assert sum(bool(s.right_extendable) for s in seqs) == 1


def test_kd_sequence_keeps_its_api():
    seq = S.KdSequence(("j2", "j1"), True)
    assert seq == S.KdSequence(entries=("j2", "j1"), right_extendable=True)
    assert (seq.entries, seq.right_extendable) == (("j2", "j1"), True)
    assert S.KdSequence(("j1",)).right_extendable is None
    assert repr(seq) == "KdSequence(entries=('j2', 'j1'), right_extendable=True)"
    for field in ("entries", "right_extendable"):
        with pytest.raises(AttributeError):
            setattr(seq, field, None)
    again = pickle.loads(pickle.dumps(seq))
    assert again == seq and type(again) is S.KdSequence
    # the listing's results are the sequences built by hand, not bare tuples
    chain = S.generate("chain", 2)
    K = S.KdSequence
    expected = {
        (False, False): [K(("c1",)), K(("c2",)), K(("c2", "c1"))],
        (False, True): [K(("c1",), False), K(("c2",), True), K(("c2", "c1"), False)],
        (True, False): [K(("c2",)), K(("c2", "c1"))],
        (True, True): [K(("c2",), True), K(("c2", "c1"), False)],
    }
    for (maximal, mark), want in expected.items():
        got = S.enumerate_kd_exceptional(chain, maximal, mark)
        assert got == want
        assert all(type(s) is K for s in got)


def test_chain_sequences():
    chain = S.generate("chain", 2)
    everything = {s.entries for s in S.enumerate_kd_exceptional(chain)}
    assert everything == {("c1",), ("c2",), ("c2", "c1")}
    maximal = {s.entries for s in S.enumerate_kd_exceptional(chain, maximal_only=True)}
    assert maximal == {("c2", "c1"), ("c2",)}
    assert everything == _brute_force_sequences(chain)


def test_enumerator_matches_brute_force(small_sd_lattices):
    pool = [lat for lat in sd_family_lattices(max_size=10)] + small_sd_lattices[:20]
    for lat in pool:
        expected = _brute_force_sequences(lat)
        got = {s.entries for s in S.enumerate_kd_exceptional(lat)}
        assert got == expected


def test_verifier_accepts_enumerator(fig4, small_sd_lattices):
    for lat in [fig4] + small_sd_lattices[:20]:
        for seq in S.enumerate_kd_exceptional(lat):
            assert S.is_kd_exceptional(lat, seq.entries)


def test_suffixes_remain_exceptional(fig1, fig4):
    for lat in (fig1, fig4):
        for seq in S.enumerate_kd_exceptional(lat):
            for start in range(1, len(seq.entries)):
                assert S.is_kd_exceptional(lat, seq.entries[start:])


def test_entries_distinct_and_short(small_sd_lattices):
    for lat in sd_family_lattices(max_size=10) + small_sd_lattices[:20]:
        height = lat.height()
        for seq in S.enumerate_kd_exceptional(lat):
            assert len(set(seq.entries)) == len(seq.entries)
            assert len(seq.entries) <= height


def test_maximal_means_not_left_extendable(fig1, small_sd_lattices):
    for lat in [fig1] + small_sd_lattices[:15]:
        cji = S.irreducible_table(lat).cji
        everything = {s.entries for s in S.enumerate_kd_exceptional(lat)}
        maximal = {s.entries for s in S.enumerate_kd_exceptional(lat, maximal_only=True)}
        for entries in everything:
            extendable = any((j,) + entries in everything for j in cji)
            assert (entries in maximal) == (not extendable)


FIG1_CLO_LABELS = {
    ("bot", "j1"): "j1",
    ("bot", "j2"): "j2",
    ("bot", "j3"): "j3",
    ("bot", "j4"): "j4",
    ("j1", "m2"): "j3",
    ("j1", "m3"): "j2",
    ("j2", "m1"): "j3",
    ("j2", "m3"): "j1",
    ("j3", "m1"): "j2",
    ("j3", "m2"): "j1",
    ("j4", "top"): "j3",
    ("m1", "top"): "j1",
    ("m2", "top"): "j2",
    ("m3", "top"): "j4",
}


def test_label_clo_up_fig1(fig1):
    labeling = S.label_clo_up(fig1)
    assert labeling.labels == FIG1_CLO_LABELS
    top_covers = {lo: lbl for (lo, hi), lbl in labeling.labels.items() if hi == "top"}
    assert top_covers == {"m1": "j1", "m2": "j2", "m3": "j4", "j4": "j3"}


def test_label_clo_up_top_covers_are_kappa_bar(fig1, fig4):
    for lat in (fig1, fig4):
        labeling = S.label_clo_up(lat)
        top = labeling.poset.top_name()
        for (lo, hi), lbl in labeling.labels.items():
            if hi == top:
                assert lbl == S.kappa_bar(lat, lo)


def test_label_clo_up_fig4_double_label(fig4):
    labeling = S.label_clo_up(fig4)
    assert labeling.labels[("j3", "m1")] == "j5"
    assert labeling.labels[("j3", "m2")] == "j5"


def test_label_clo_up_two_element_chain():
    chain = S.generate("chain", 1)
    labeling = S.label_clo_up(chain)
    assert labeling.labels == {("c0", "c1"): "c1"}


def test_label_clo_up_needs_nuclear_top():
    # The recursive labeling anchors at the top of the derived order, which
    # only exists when the whole lattice is a nuclear interval; longer chains
    # are not, and the failure is reported rather than papered over.
    with pytest.raises(RecursionMismatch):
        S.label_clo_up(S.generate("chain", 2))


def test_label_clo_up_without_a_top_names_clo_ups_maxima():
    # without a top, the message is the one cloUp's own top_name gives
    rng = random.Random(1)
    no_top = 0
    for _ in range(12):
        lattice = S.random_sd_lattice(rng=rng, max_mid=8)
        try:
            S.label_clo_up(lattice)
        except RecursionMismatch as exc:
            if "no unique top element" not in str(exc):
                continue
            no_top += 1
            with pytest.raises(NoBoundsError) as info:
                S.clo_up(lattice).top_name()
            assert str(exc) == (
                f"derived order has no unique top element ({info.value}); the lattice is not a nuclear interval"
            )
    assert no_top >= 3


def test_label_clo_up_reports_covers_that_are_no_kappa_d_step(fig1, monkeypatch):
    # a cover is labeled by the table edge from its upper mask to its lower
    # one; with the edge for j3 out of m1's row, the cover (j2, m1) has none
    dag = S.sequences._dag
    m1, j3 = (fig1.index[x] for x in ("m1", "j3"))

    def dropped(lattice):
        root, kids = dag(lattice)
        # a copy, as the table is memoized on the lattice; rows are keyed by label position
        kids = {mask: dict(row) for mask, row in kids.items()}
        del kids[S.cores._lab_up_masks(lattice)[m1]][S.irreducibles._label_context(lattice).cji.index(j3)]
        return root, kids

    monkeypatch.setattr(S.sequences, "_dag", dropped)
    with pytest.raises(RecursionMismatch) as info:
        S.label_clo_up(fig1)
    assert str(info.value) == "cover ('j2', 'm1') of the derived order is not a kappa_d step"


def chain_words(labeling):
    """The label words of the maximal chains of a labeled cloUp, read bottom to top."""
    poset, labels = labeling.poset, labeling.labels
    words = {}

    def upward(x):
        if x not in words:
            ups = poset.upper_covers(x)
            words[x] = [(labels[(x, y)],) + word for y in ups for word in upward(y)] if ups else [()]
        return words[x]

    return upward(poset.bottom_name())


@pytest.mark.parametrize(
    "text, sequences, chains", [(DOUBLED_19, 29, 28), (DOUBLED_12, 12, 11)], ids=["doubled19", "doubled12"]
)
def test_doubled_lattices_have_more_maximal_sequences_than_chain_words(text, sequences, chains):
    # where cloUp is a lattice and the labeling exists, the chain words can
    # still miss a maximal kappa_d sequence on a lattice made by doubling
    lattice = lattice_from_cover_text(text)
    assert S.clo_up(lattice).is_lattice()
    words = chain_words(S.label_clo_up(lattice))
    assert S.count_kd_exceptional(lattice, maximal_only=True) == sequences
    assert len(words) == len(set(words)) == chains


def test_clo_up_chain_words_are_the_maximal_sequences():
    # the paper's brick labeling on lattices: where cloUp is a lattice and
    # the labeling exists, the words of its maximal chains are the maximal
    # kappa_d-exceptional sequences as displayed, each once
    lattices = [S.generate("tamari", n) for n in range(2, 7)] + [S.generate("boolean", n) for n in range(1, 6)]
    lattices += [S.generate("fig1"), S.generate("fig4")] + list(random_pool(1, 8, 300)[:150])
    cases = Counter()
    for lat in lattices:
        for each in (lat, lat.dual()):
            try:
                labeling = S.label_clo_up(each)
            except RecursionMismatch:
                cases["labeling raises"] += 1
                continue
            if not labeling.poset.is_lattice():
                cases["cloUp is not a lattice"] += 1
                continue
            maximal = [s.entries for s in S.enumerate_kd_exceptional(each, maximal_only=True)]
            assert sorted(chain_words(labeling)) == maximal
            cases["checked"] += 1
    assert cases == {"checked": 128, "labeling raises": 182, "cloUp is not a lattice": 14}


def test_maximal_count_matches_clo_up_chains_fig1(fig1):
    # On the running example the maximal sequences biject with the maximal
    # chains of the upper core label order.
    poset = S.clo_up(fig1)
    top, bot = poset.top_name(), poset.bottom_name()

    def chains(frm):
        if frm == top:
            return 1
        return sum(chains(nxt) for nxt in poset.upper_covers(frm))

    assert chains(bot) == 7
