"""The interval DAG of ``sdlat.sequences`` against the rebuild recursion.

The oracles below are the recursion the DAG replaced: every interval
[j, pop_up(j)] is rebuilt with ``oracles.as_lattice`` and recursed into
on its own, with names mapped back through ``j -> lo v j``.  Enumeration,
verification (including the failing entry and depth), right-extendability
and the recursive clo-up labels, errors included, must agree on fixed
families, the random SD pools and their duals.  The library walks label
masks and reads the clo-up labels off its mask table; the walks with one
node per interval (a, b) in ``oracles``, the clo-up recursion among them,
must agree with it on the same lattices and on larger random pools,
errors included, and counters check that each walk steps from one node
per mask.
Closed-form counts of maximal sequences are gold tests for
``count_kd_exceptional``.
"""

import itertools
import math
import random

import pytest

import sdlat as S
from sdlat import NoBoundsError, RecursionMismatch
from sdlat.core import _bits
from sdlat.cores import _lab_down_masks, _lab_up_masks, _pop_down_idx, _pop_up_idx, _w_masks, clo_up
from sdlat.cores import is_conuclear, is_nuclear, lab_up_map, pop_up
from sdlat.irreducibles import _cover_label_masks, _label_context, _labels_between, kappa_bar
from sdlat.irreducibles import _sorted_names

from conftest import CLO_UP_SPLIT_12, CLO_UP_SPLIT_22, DOUBLED_12, DOUBLED_19, lattice_from_cover_text, random_pool
from conftest import sd_exponential_oracle
from conftest import sd_family_lattices
from oracles import as_lattice, count_kd_nodes, element_labels_between, enumerate_kd_nodes, kappa_bar_within, kd_nodes
from oracles import clo_labeling_from_keys, kappa_bar_d_within, node_lab_up, node_label_steps, recursive_labels_nodes

FAMILIES = [("tamari", n) for n in range(3, 7)] + [("boolean", n) for n in range(2, 6)]
FAMILIES += [("fig1", None), ("fig4", None)] + [("chain", n) for n in range(2, 7)]


# -- oracles ------------------------------------------------------------------


class RebuildOracle:
    """The rebuild recursion, caching each rebuilt interval by (lattice, lo).

    The cache holds every lattice it keys on, so ids are not reused while
    it lives; one oracle serves one test.
    """

    def __init__(self):
        self._subs = {}

    def sub(self, lat, lo):
        """The interval [lo, pop_up(lo)] rebuilt, and its back-map to lat's labels."""
        key = (id(lat), lo)
        if key not in self._subs:
            hi = pop_up(lat, lo)
            back = {lat.join(lo, j): j for j in S.j_label_interval(lat, lo, hi)}
            self._subs[key] = (lat, as_lattice(lat.interval(lo, hi)), back)
        return self._subs[key][1:]

    def enumerate(self, lat):
        """All sequences rightmost-first, flagged maximal (empty one included)."""
        table = S.irreducible_table(lat)
        out = [([], not table.cji)]
        for j1 in table.cji:
            sub, back = self.sub(lat, j1)
            for inner, inner_max in self.enumerate(sub):
                out.append(([j1] + [back[e] for e in inner], inner_max))
        return out

    def check(self, lat, seq, positions, depth=0):
        """(condition, position, depth) of the first failure, or None."""
        if len(seq) <= 1:
            return None
        sub, back = self.sub(lat, seq[0])
        allowed = set(back.values())
        for k in range(1, len(seq)):
            if seq[k] not in allowed:
                return (1, positions[k], depth)
        sub_cji = set(S.irreducible_table(sub).cji)
        mapped = [lat.join(seq[0], e) for e in seq[1:]]
        assert all(m in sub_cji for m in mapped)
        return self.check(sub, mapped, positions[1:], depth + 1)

    def is_exceptional(self, lat, entries):
        return self.check(lat, list(reversed(entries)), list(range(len(entries) - 1, -1, -1)))

    def sequences(self, lat, maximal_only):
        everything = {tuple(reversed(rf)): is_max for rf, is_max in self.enumerate(lat)}
        everything.pop((), None)
        chosen = sorted(e for e, is_max in everything.items() if is_max or not maximal_only)
        cji = S.irreducible_table(lat).cji
        return [
            (e, any(self.is_exceptional(lat, e + (j0,)) is None for j0 in cji)) for e in chosen
        ]

    def recursive_labels(self, lat):
        table = S.irreducible_table(lat)
        if not table.cji:
            return {}
        derived = clo_up(lat)
        try:
            top = derived.top_name()
        except NoBoundsError as exc:
            raise RecursionMismatch(
                f"derived order has no unique top element ({exc}); "
                "the lattice is not a nuclear interval"
            ) from None
        up_sets = lab_up_map(lat)
        kbar = S.irreducibles.kappa_bar_map(lat)
        full = up_sets[top]
        out = {}
        for u in derived.lower_covers(top):
            j = kbar[u]
            if j not in table.jstar:
                raise RecursionMismatch(f"kappa_bar({u!r}) = {j!r} is not completely join-irreducible")
            out[(up_sets[u], full)] = j
            sub, back = self.sub(lat, j)
            for (set_lo, set_hi), lbl in self.recursive_labels(sub).items():
                key = (frozenset(back[a] for a in set_lo), frozenset(back[a] for a in set_hi))
                mapped = back[lbl]
                if key in out and out[key] != mapped:
                    raise RecursionMismatch(f"conflicting labels {out[key]!r} and {mapped!r} for one cover")
                out[key] = mapped
        return out


def mask_keyed_labels(oracle, lat):
    """The oracle's labels in the library's form: lab_up masks to a label position."""
    position = {lat.names[j]: p for p, j in enumerate(_label_context(lat).cji)}

    def mask(names):
        return sum(1 << position[a] for a in names)

    return {(mask(lo), mask(hi)): position[lbl] for (lo, hi), lbl in oracle.recursive_labels(lat).items()}


def _outcome(fn, *args):
    """fn's result, or the type and message of what it raised."""
    try:
        return ("ok", fn(*args))
    except S.LatticeError as exc:
        return (type(exc), str(exc))


# -- comparisons ----------------------------------------------------------------


def check_sequences(lat, oracle):
    for maximal_only in (False, True):
        expected = oracle.sequences(lat, maximal_only)
        got = S.enumerate_kd_exceptional(lat, maximal_only=maximal_only, mark_right_extendable=True)
        assert [(s.entries, s.right_extendable) for s in got] == expected
        plain = S.enumerate_kd_exceptional(lat, maximal_only=maximal_only)
        assert [s.entries for s in plain] == [e for e, _ in expected]
        assert all(s.right_extendable is None for s in plain)
        assert S.count_kd_exceptional(lat, maximal_only=maximal_only) == len(expected)


def check_verifier(lat, oracle, limit=400):
    """Every candidate up to length 3 (capped), plus each listed sequence."""
    cji = S.irreducible_table(lat).cji
    candidates = [()]
    for length in (1, 2, 3):
        candidates += itertools.islice(itertools.product(cji, repeat=length), limit)
    candidates += [s.entries for s in S.enumerate_kd_exceptional(lat)]
    candidates += [s.entries[::-1] for s in S.enumerate_kd_exceptional(lat)]
    for entries in candidates:
        got = S.is_kd_exceptional(lat, entries)
        expected = oracle.is_exceptional(lat, entries)
        if expected is None:
            assert got.ok and got.position is None
        else:
            condition, position, depth = expected
            assert not got.ok
            assert (got.condition, got.position, got.entry, got.depth) == (
                condition, position, entries[position], depth
            )


def check_same_labeling(lat, expected):
    """``label_clo_up`` gives the expected labels, or the same error type
    and message, with its labels in cover order."""
    got = _outcome(S.label_clo_up, lat)
    if got[0] == "ok" and expected[0] == "ok":
        assert got[1].labels == expected[1].labels
        assert list(got[1].labels) == list(got[1].poset.covers_named())
    else:
        assert got == expected
    return expected[0]


def check_label_clo_up(lat, oracle):
    return check_same_labeling(lat, _outcome(lambda: clo_labeling_from_keys(lat, mask_keyed_labels(oracle, lat))))


def check_node_walk(lat):
    """Counts, sorted listings with flags and clo-up labels, or the same error, per node walk.

    Each label the clo-up step of a node writes is an edge of ``_dag``'s
    table: the child mask for that label is the lower mask of its key, and
    the upper mask is the node's.  Only the root can lack a top of cloUp,
    and it lacks one exactly when cloUp of the lattice does.
    """
    root = (lat._bot, lat._top)
    _, kids = S.sequences._dag(lat)
    for node in kd_nodes(lat):
        steps = _outcome(lambda: list(node_label_steps(lat, node)))
        if steps[0] == "ok":
            mask = _labels_between(lat, *node)
            for (lo, hi), label, child in steps[1]:
                assert hi == mask
                assert kids[mask][label] == lo == _labels_between(lat, *child)
        no_top = steps[0] is RecursionMismatch and "no unique top element" in steps[1]
        assert no_top == (node == root and _outcome(clo_up(lat).top_name)[0] is NoBoundsError)
    for maximal_only in (False, True):
        got = _outcome(S.count_kd_exceptional, lat, maximal_only)
        assert got == _outcome(count_kd_nodes, lat, maximal_only)
        got = _outcome(S.enumerate_kd_exceptional, lat, maximal_only, True)
        got = (got[0], [(s.entries, s.right_extendable) for s in got[1]]) if got[0] == "ok" else got
        assert got == _outcome(enumerate_kd_nodes, lat, maximal_only, True)
    check_same_labeling(lat, _outcome(lambda: clo_labeling_from_keys(lat, recursive_labels_nodes(lat))))


def check_label_positions(lat):
    """Position masks against the element-coordinate oracle on every interval [lo, hi].

    Each position mask maps back through the position tuple to the
    oracle's mask, names rise with position, no mask is wider than |J|
    bits, and a mask's names come out as the sorted names of the oracle's.
    """
    context = _label_context(lat)
    cji, names = context.cji, lat.names
    assert all(names[i] < names[j] for i, j in zip(cji, cji[1:]))
    masks = context.jdown + context.jabove + _lab_down_masks(lat) + _lab_up_masks(lat) + _w_masks(lat)
    masks += [mask for side in _cover_label_masks(lat) for mask in side]
    assert max(masks).bit_length() <= len(cji)
    oracle = element_labels_between(lat)
    for lo in range(lat.n):
        for hi in _bits(lat.up[lo]):
            mask, expected = _labels_between(lat, lo, hi), oracle(lo, hi)
            assert sum(1 << cji[p] for p in _bits(mask)) == expected
            assert _sorted_names(lat, mask) == tuple(sorted(names[j] for j in _bits(expected)))


def steps_taken(monkeypatch, call):
    """The steps (a, b, j) that ``_child`` takes while ``call()`` runs."""
    stepped = []
    child = S.sequences._child

    def counted_child(lattice, a, b, j):
        stepped.append((a, b, j))
        return child(lattice, a, b, j)

    with monkeypatch.context() as patch:
        patch.setattr(S.sequences, "_child", counted_child)
        call()
    return stepped


# -- tests --------------------------------------------------------------------


@pytest.mark.parametrize("family,n", FAMILIES)
@pytest.mark.parametrize("dual", [False, True])
def test_families_match_rebuild_recursion(family, n, dual):
    lat = S.generate(family, n)
    lat = lat.dual() if dual else lat
    oracle = RebuildOracle()
    check_sequences(lat, oracle)
    check_verifier(lat, oracle)
    check_label_clo_up(lat, oracle)
    check_node_walk(lat)


def test_small_pool_matches_rebuild_recursion(small_sd_lattices):
    for lat in small_sd_lattices + sd_family_lattices():
        for each in (lat, lat.dual()):
            oracle = RebuildOracle()
            check_sequences(each, oracle)
            check_verifier(each, oracle, limit=100)
            check_label_clo_up(each, oracle)
            check_node_walk(each)


@pytest.mark.parametrize("seed,max_mid", [(1, 8), (2, 9), (3, 7)])
def test_random_pools_match_node_walk(seed, max_mid):
    for lat in random_pool(seed, max_mid, 300):
        for each in (lat, lat.dual()):
            check_node_walk(each)


def test_label_clo_up_and_the_recursion_disagree_on_two_doubled_lattices():
    """The disagreement of ROADMAP.md item 24, recorded as it stands.

    ``check_node_walk`` fails on both lattices.  Settling item 24 changes
    this record on purpose, one side or the other.
    """
    small = lattice_from_cover_text(CLO_UP_SPLIT_12)
    assert sd_exponential_oracle(small)
    with pytest.raises(RecursionMismatch, match=r"^cover \('e0', 'e5'\) of the derived order is not a kappa_d step$"):
        S.label_clo_up(small)
    with pytest.raises(RecursionMismatch, match=r"^kappa_bar\('e8'\) = 'e10' is not completely join-irreducible$"):
        clo_labeling_from_keys(small, recursive_labels_nodes(small))
    large = lattice_from_cover_text(CLO_UP_SPLIT_22)
    assert large.is_semidistributive()
    assert len(S.label_clo_up(large).labels) == 51
    message = "^recursive label set does not match any element of the derived order$"
    with pytest.raises(RecursionMismatch, match=message):
        clo_labeling_from_keys(large, recursive_labels_nodes(large))


def test_clo_up_has_a_top_exactly_when_the_node_is_nuclear(small_sd_lattices):
    # at the root: the full mask is an upper-core mask, [bot, top] is
    # nuclear, it is conuclear, and kappa_bar(top) = bot; at every node of
    # the walk the oracle's upper-core masks miss the full node mask
    # exactly when the node is not nuclear, and exactly when not conuclear
    lattices = [S.generate(family, n) for family, n in FAMILIES] + sd_family_lattices() + small_sd_lattices
    lattices += [lattice_from_cover_text(text) for text in (CLO_UP_SPLIT_12, CLO_UP_SPLIT_22, DOUBLED_12, DOUBLED_19)]
    for seed, max_mid in [(1, 8), (2, 9), (3, 7)]:
        lattices += random_pool(seed, max_mid, 300)
    tops = 0
    for lat in lattices:
        for each in (lat, lat.dual()):
            bot, top = each.bottom, each.top
            full = (1 << len(_label_context(each).cji)) - 1 in _lab_up_masks(each)
            assert full == is_nuclear(each, bot, top) == is_conuclear(each, bot, top)
            assert full == (kappa_bar(each, top) == bot) == (len(clo_up(each).maximal_elements()) == 1)
            tops += full
            for a, b in kd_nodes(each):
                missing = _labels_between(each, a, b) not in node_lab_up(each, a, b).values()
                assert missing == (_pop_down_idx(each, b, a) != a) == (_pop_up_idx(each, a, b) != b)
    assert tops >= 800


@pytest.mark.parametrize("family,n", FAMILIES)
def test_label_positions_match_element_masks_on_families(family, n):
    lat = S.generate(family, n)
    for each in (lat, lat.dual()):
        check_label_positions(each)


def test_label_positions_match_element_masks_on_pools(small_sd_lattices):
    lattices = list(small_sd_lattices) + sd_family_lattices()
    for seed, max_mid in [(1, 8), (2, 9), (3, 7)]:
        lattices += random_pool(seed, max_mid, 300)
    for lat in lattices:
        for each in (lat, lat.dual()):
            check_label_positions(each)


MASK_FAMILIES = [("tamari", n) for n in range(3, 9)] + [("boolean", n) for n in range(2, 6)]


@pytest.mark.parametrize("family,n", MASK_FAMILIES)
def test_one_node_per_label_mask(family, n, monkeypatch):
    # a node per interval would expand 394 / 1806 nodes on tamari 6 / 7, not 132 / 429
    lat = S.generate(family, n)
    nodes = kd_nodes(lat)
    masks = {_labels_between(lat, *node) for node in nodes}
    assert len(masks) == len(lat)
    # the child for j is the upper core of a v j in [a, b], a function of the
    # mask of [a v j, b], its intent: one step per distinct intent (276 of
    # 495 edges on tamari 6, 4306 of 8008 on tamari 8)
    cji = _label_context(lat).cji

    def intent(lattice, a, b, j):
        return _labels_between(lattice, lattice._join_idx(a, j), b)

    intents = {intent(lat, a, b, cji[p]) for a, b in nodes for p in _bits(_labels_between(lat, a, b))}
    walks = [
        lambda lat: S.count_kd_exceptional(lat, maximal_only=True),
        lambda lat: S.count_kd_exceptional(lat),
    ]
    if len(lat) <= 132:
        walks.append(lambda lat: S.enumerate_kd_exceptional(lat, mark_right_extendable=True))
    # the clo-up labeling reads the table and steps nowhere else
    walks.append(lambda lat: S.label_clo_up(lat))
    for walk in walks:
        # a fresh lattice per walk, as the table is memoized on it
        fresh = S.generate(family, n)
        taken = [intent(fresh, *step) for step in steps_taken(monkeypatch, lambda: walk(fresh))]
        assert len(taken) == len(set(taken)) and set(taken) == intents
        # every mask is still reached
        assert set(S.sequences._dag(fresh)[1]) == masks
        # a second reader on the same lattice takes no step
        assert steps_taken(monkeypatch, lambda: S.count_kd_exceptional(fresh)) == []


def names_reversed(lat):
    """lat with its names handed out in reverse index order.

    Elements are indexed by height first, so on lattices with cji at more
    than one height the index order of the cji then differs from their
    name order, which the listing must sort by.
    """
    rename = dict(zip(lat.names, reversed(lat.names)))
    return S.Lattice.build_from_covers(
        [rename[x] for x in lat.names], [(rename[lo], rename[hi]) for lo, hi in lat.covers_named()]
    )


@pytest.mark.parametrize("family,n", [("fig1", None), ("fig4", None), ("tamari", 5), ("chain", 5)])
def test_listing_sorts_by_names_not_indices(family, n):
    lat = names_reversed(S.generate(family, n))
    cji = S.irreducible_table(lat).cji
    assert sorted(cji, key=lat.index.__getitem__) != sorted(cji)
    check_sequences(lat, RebuildOracle())
    for maximal_only in (False, True):
        for mark in (False, True):
            got = S.enumerate_kd_exceptional(lat, maximal_only, mark)
            assert [(s.entries, s.right_extendable) for s in got] == enumerate_kd_nodes(lat, maximal_only, mark)
    # a sequence sorts before each sequence it is a proper prefix of
    listed = [s.entries for s in S.enumerate_kd_exceptional(lat)]
    place = {entries: i for i, entries in enumerate(listed)}
    prefixed = [(e[:m], e) for e in listed for m in range(1, len(e)) if e[:m] in place]
    assert prefixed
    assert all(place[short] < place[long] for short, long in prefixed)


def test_child_masks_lose_their_label(small_sd_lattices):
    lattices = [S.generate(family, n) for family, n in FAMILIES] + small_sd_lattices
    for lat in lattices + [lat.dual() for lat in lattices]:
        root, kids = S.sequences._dag(lat)
        index, cji = lat.index, _label_context(lat).cji
        # the root holds every cji, each at its position
        assert [cji[p] for p in _bits(root)] == [index[j] for j in S.irreducible_table(lat).cji]
        for mask, step in kids.items():
            # every label of the mask, in position order, leads to a smaller mask without it
            assert list(step) == list(_bits(mask))
            for j, child in step.items():
                assert not child >> j & 1
                assert child & ~mask == 0


def test_kappa_bar_d_within_inverts_interval_kappa_bar(small_sd_lattices):
    # Barnard's inverse, on every node [a, b]: kappa_bar_d as a scan over the
    # upper covers undoes kappa_bar as a meet over the lower covers; the
    # library takes kappa_bar_d as kappa_bar's inverse on the whole lattice
    lattices = [S.generate(family, n) for family, n in FAMILIES] + small_sd_lattices
    nodes = 0
    for lat in lattices + [lat.dual() for lat in lattices]:
        for a, b in kd_nodes(lat):
            kbar = kappa_bar_within(lat, a, b)
            assert {x: kappa_bar_d_within(lat, a, b, k) for x, k in kbar.items()} == {x: x for x in kbar}
            nodes += 1
    assert nodes > 1000


def test_random_pool_labels_and_errors():
    rng = random.Random(1)
    outcomes = []
    for lat in [S.random_sd_lattice(rng=rng, max_mid=7) for _ in range(110)]:
        for each in (lat, lat.dual()):
            oracle = RebuildOracle()
            outcomes.append(check_label_clo_up(each, oracle))
            check_sequences(each, oracle)
    # both branches are exercised: some labelings exist, many fail
    assert outcomes.count("ok") >= 10
    assert outcomes.count(RecursionMismatch) >= 10


def test_non_semidistributive_input_is_rejected():
    m3 = S.generate("m3")
    for call in (
        lambda: S.enumerate_kd_exceptional(m3),
        lambda: S.count_kd_exceptional(m3),
        lambda: S.is_kd_exceptional(m3, ()),
        lambda: S.label_clo_up(m3),
    ):
        with pytest.raises(S.NotSemidistributive):
            call()


def test_one_element_lattice():
    point = S.generate("chain", 0)
    assert S.enumerate_kd_exceptional(point, maximal_only=True) == []
    assert S.count_kd_exceptional(point) == S.count_kd_exceptional(point, maximal_only=True) == 0
    assert S.label_clo_up(point).labels == {}


def test_right_extendable_on_a_long_chain():
    chain = S.generate("chain", 200)
    seqs = S.enumerate_kd_exceptional(chain, mark_right_extendable=True)
    assert len(seqs) == 200 + 199
    # (c_i) extends on the right by c_(i-1); (c_(i+1), c_i) is maximal there
    flags = {s.entries: s.right_extendable for s in seqs}
    assert flags[("c1",)] is False
    assert flags[("c2",)] is True
    assert flags[("c3", "c2")] is False


@pytest.mark.parametrize("n", range(3, 10))
def test_tamari_maximal_count(n):
    # complete exceptional sequences of linearly oriented A_(n-1)
    assert S.count_kd_exceptional(S.generate("tamari", n), maximal_only=True) == n ** (n - 2)


@pytest.mark.parametrize("n", range(3, 7))
def test_boolean_maximal_count(n):
    assert S.count_kd_exceptional(S.generate("boolean", n), maximal_only=True) == math.factorial(n)


def test_listing_past_the_oracle_sizes():
    # check_sequences stops at 132 elements; on tamari(7) and boolean(6) the
    # listing must still rise strictly in display order and agree with the
    # count, and no sequence is longer than the six of a maximal one, so
    # none of those extends on the right
    tamari7 = S.generate("tamari", 7)
    for lat, maximal in ((tamari7, 7**5), (S.generate("boolean", 6), math.factorial(6))):
        listed = S.enumerate_kd_exceptional(lat, maximal_only=True, mark_right_extendable=True)
        entries = [s.entries for s in listed]
        assert len(entries) == maximal == S.count_kd_exceptional(lat, maximal_only=True)
        assert all(a < b for a, b in zip(entries, entries[1:]))
        assert {len(e) for e in entries} == {6}
        assert not any(s.right_extendable for s in listed)
    full = [s.entries for s in S.enumerate_kd_exceptional(tamari7)]
    assert len(full) == S.count_kd_exceptional(tamari7) == 42798
    assert all(a < b for a, b in zip(full, full[1:]))
    assert max(map(len, full)) == 6
