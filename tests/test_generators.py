import random
import re

import pytest

import sdlat as S
from sdlat import BadParameter, Lattice, Poset
from sdlat.cli import cli_main
from sdlat.core import _kappa_maps

from conftest import record_calls
from oracles import catalan, from_leq, mask_kernels


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
    message = "stored label 'j3' for cover ('j3', 'j4') disagrees with computed 'j4'"
    with pytest.raises(S.InconsistentLabels, match=f"^{re.escape(message)}$"):
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
    with pytest.raises(BadParameter, match="boolean rank must be between 0 and 6"):
        S.generate("boolean", 7)
    with pytest.raises(BadParameter):
        S.generate("chain", -1)
    with pytest.raises(BadParameter):
        S.generate("nope")
    with pytest.raises(BadParameter):
        S.generate("fig1", 3)
    with pytest.raises(BadParameter):
        S.generate("boolean")


def test_chain_length_is_capped(monkeypatch, capsys):
    # the cap is checked before any name or cover is made
    calls = record_calls(monkeypatch, Poset, ["from_covers"])
    with pytest.raises(BadParameter, match="chain length must be at most 5000"):
        S.generate("chain", 5001)
    assert cli_main(["gen", "chain", "5001"]) == 2
    assert calls == []
    assert capsys.readouterr().err == "error: chain length must be at most 5000\n"


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


def random_sd_lattice_oracle(seed=None, max_mid=6, rng=None, max_tries=20000):
    """The predicate-built rejection loop that ``random_sd_lattice`` replaced.

    Each candidate's up-sets are closed by a fixpoint loop.  Its names
    bot, e0.., top are a linear extension, as edges rise in rank, so its
    down-set masks go to ``oracles.mask_kernels``, the lattice and kappa
    tests that ``Lattice`` runs.  Only the accepted candidate is built,
    through ``oracles.from_leq`` and ``Lattice.build_from_covers``.  It
    makes the same random calls in the same order.
    """
    rng = rng if rng is not None else random.Random(seed)
    want = rng.randint(0, max_mid)
    for attempt in range(max_tries):
        k = want if attempt < max_tries // 2 else rng.randint(0, max_mid)
        mids = [f"e{i}" for i in range(k)]
        ranks = sorted(rng.randint(1, 3) for _ in range(k))
        density = rng.choice((0.3, 0.5, 0.7))
        upsets = {m: {m, "top"} for m in mids}
        upsets["bot"] = set(mids) | {"bot", "top"}
        upsets["top"] = {"top"}
        for i in range(k):
            below = [mids[j] for j in range(i) if ranks[j] < ranks[i]]
            picked = [b for b in below if rng.random() < density]
            for b in picked:
                upsets[b].add(mids[i])
        changed = True
        while changed:
            changed = False
            for a in mids:
                grown = set(upsets[a])
                for b in list(grown):
                    grown |= upsets[b]
                if grown != upsets[a]:
                    upsets[a] = grown
                    changed = True
        names = ["bot"] + mids + ["top"]
        down = [sum(1 << j for j, b in enumerate(names) if a in upsets[b]) for a in names]
        meets, kappa_args = mask_kernels(down)
        if meets and _kappa_maps(*kappa_args) is not None:
            poset = from_leq(names, lambda a, b: b in upsets[a])
            return Lattice.build_from_covers(poset.names, poset.covers_named())
    raise RuntimeError("random_sd_lattice failed to find a lattice; widen max_tries")


def _assert_same_draws(make_rng, draws, **kwargs):
    fast_rng, slow_rng = make_rng(), make_rng()
    for draw in range(draws):
        fast = S.random_sd_lattice(rng=fast_rng, **kwargs)
        slow = random_sd_lattice_oracle(rng=slow_rng, **kwargs)
        assert fast.names == slow.names, draw
        assert fast.covers_named() == slow.covers_named(), draw
        assert fast_rng.getstate() == slow_rng.getstate(), draw


@pytest.mark.parametrize("max_mid", range(10))
def test_random_sd_lattice_matches_oracle(max_mid):
    draws = 12 if max_mid < 8 else 3
    for seed in (0, 7, 23):
        _assert_same_draws(lambda: random.Random(seed * 10 + max_mid), draws, max_mid=max_mid)


def test_random_sd_lattice_matches_oracle_on_pools():
    # the el-search benchmark pool and the draw-50 regression stream of
    # test_shelling.test_search_finds_the_draw_50_clo_up_order
    _assert_same_draws(lambda: random.Random(1), 64, max_mid=8)
    _assert_same_draws(lambda: random.Random(5), 50, max_mid=8)


def test_random_sd_lattice_matches_oracle_after_size_redraw():
    # max_tries small enough that attempts past the half redraw k
    for seed in range(20):
        _assert_same_draws(lambda: random.Random(seed), 4, max_mid=9, max_tries=40)


def test_random_sd_lattice_builds_only_the_accepted_candidate(monkeypatch):
    built = []
    from_covers = Poset.from_covers.__func__

    def counting(cls, names, covers):
        built.append(names)
        return from_covers(cls, names, covers)

    monkeypatch.setattr(Poset, "from_covers", classmethod(counting))
    rng = random.Random(2)
    for _ in range(20):
        del built[:]
        lattice = S.random_sd_lattice(rng=rng, max_mid=8)
        assert len(built) == 1
        assert sorted(built[0]) == sorted(lattice.names)


def test_random_sd_lattice_constructs_one_poset_per_draw(monkeypatch):
    # rejected candidates are tested on bare masks: the one Poset.__init__
    # of a draw is the accepted lattice's own
    inits = []
    init = Poset.__init__

    def counting(self, names, heights, covers):
        inits.append(names)
        init(self, names, heights, covers)

    monkeypatch.setattr(Poset, "__init__", counting)
    rng = random.Random(2)
    for _ in range(20):
        del inits[:]
        lattice = S.random_sd_lattice(rng=rng, max_mid=8)
        assert inits == [lattice.names]


def test_random_sd_lattice_rejects_without_messages(monkeypatch):
    # rejected candidates fail the cover-pair test on masks and build no
    # NotALattice or NotTransitiveReduction message; the second draw of the
    # el-search stream tries 1365 candidates, 585 of them not lattices
    rng = random.Random(1)
    S.random_sd_lattice(rng=rng, max_mid=8)
    calls = record_calls(monkeypatch, Poset, ["_two_sided_scan", "_check_reduction"])
    lattice = S.random_sd_lattice(rng=rng, max_mid=8)
    assert calls == []
    assert len(lattice) == 9 and lattice.is_semidistributive()


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"max_mid": -1}, "max_mid must be >= 0, got -1"),
        ({"max_tries": 0}, "max_tries must be >= 1, got 0"),
    ],
)
def test_random_sd_lattice_bad_parameters(kwargs, message):
    rng = random.Random(4)
    state = rng.getstate()
    with pytest.raises(BadParameter, match=message):
        S.random_sd_lattice(rng=rng, **kwargs)
    assert rng.getstate() == state


def test_random_sd_lattice_out_of_tries():
    # the one attempt seed 0 allows at max_mid=9 is rejected, by both loops
    with pytest.raises(BadParameter, match="failed to find a lattice; widen max_tries"):
        S.random_sd_lattice(seed=0, max_mid=9, max_tries=1)
    with pytest.raises(RuntimeError, match="failed to find a lattice; widen max_tries"):
        random_sd_lattice_oracle(seed=0, max_mid=9, max_tries=1)
