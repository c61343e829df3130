import copy
import hashlib
import importlib.util
import itertools
import pickle
import random
from pathlib import Path

import pytest

import sdlat as S
import sdlat.cli
from sdlat import (
    CycleError,
    DerivedPoset,
    Lattice,
    NoBoundsError,
    NotALattice,
    NotComparable,
    NotSemidistributive,
    NotTransitiveReduction,
    Poset,
    SchemaError,
    SizeLimitExceeded,
)
from sdlat.jsonio import emit_dot, emit_json, to_document

from conftest import record_calls, sd_exponential_oracle, sd_family_lattices, transitive_reduction_from_order
from oracles import as_lattice, posets_isomorphic


def test_fig1_builds(fig1):
    assert len(fig1) == 9
    assert len(fig1.covers) == 13
    assert fig1.bottom == "bot"
    assert fig1.top == "top"


def test_singleton():
    lat = Lattice.build_from_covers(["x"], [])
    assert lat.bottom == lat.top == "x"
    assert lat.is_semidistributive()


def test_m3_is_a_lattice():
    assert len(S.generate("m3")) == 5


def test_cycle_rejected():
    with pytest.raises(CycleError):
        Lattice.build_from_covers(["a", "b"], [("a", "b"), ("b", "a")])


def test_redundant_cover_rejected():
    with pytest.raises(NotTransitiveReduction):
        Lattice.build_from_covers(["0", "a", "1"], [("0", "a"), ("a", "1"), ("0", "1")])


def test_redundant_cover_reported_before_missing_bounds():
    # two maximal elements, b and c, and the cover 0 < b is implied via a
    with pytest.raises(NotTransitiveReduction, match="implied via 'a'"):
        Lattice.build_from_covers(["0", "a", "b", "c"], [("0", "a"), ("a", "b"), ("0", "b"), ("0", "c")])


def test_build_runs_poset_init_once(monkeypatch):
    calls = []
    init = Poset.__init__

    def counting(self, names, heights, covers):
        calls.append(names)
        init(self, names, heights, covers)

    monkeypatch.setattr(Poset, "__init__", counting)
    for lat in (S.generate("fig1"), S.generate("tamari", 3), S.generate("chain", 0)):
        del calls[:]
        again = Lattice.build_from_covers(lat.names, lat.covers_named())
        assert calls == [again.names] and again == lat


def test_derived_orders_are_built_without_the_untrusted_path(monkeypatch):
    # the derived orders come as index covers that are an exact reduction by
    # construction, so they skip the name and cover checks of from_covers
    # and never reach the reduction check
    lat = S.generate("tamari", 5)
    calls = record_calls(monkeypatch, Poset, ["from_covers", "_check_reduction"])
    orders = [S.kappa_order(lat), S.clo_up(lat), S.clo_down(lat)]
    assert calls == []
    assert orders[0] is orders[1] is orders[2]
    # the same wrappers do see an untrusted build
    Lattice.build_from_covers(["0", "a", "1"], [("0", "a"), ("a", "1")])
    assert calls == ["from_covers"]


def test_indexer_takes_any_indexing_of_the_covers(small_sd_lattices):
    # the names and covers of each lattice under a seeded shuffle of the
    # indices, with the covers shuffled too: the indexer needs no linear
    # extension, so it rebuilds the lattice exactly
    lattices = [S.generate("fig1"), S.generate("fig4")]
    lattices += [S.generate("tamari", n) for n in range(6)]
    lattices += [S.generate("boolean", n) for n in range(5)]
    lattices += [S.generate("chain", n) for n in range(6)]
    rng = random.Random(14)
    for lat in lattices + small_sd_lattices[:50]:
        perm = list(range(lat.n))
        rng.shuffle(perm)
        names = [None] * lat.n
        for i, name in enumerate(lat.names):
            names[perm[i]] = name
        covers = [(perm[lo], perm[hi]) for lo, hi in lat.covers]
        rng.shuffle(covers)
        again = Lattice._from_cover_pairs(names, covers)
        assert (again.names, again.down, again.covers) == (lat.names, lat.down, lat.covers)
        assert again.heights == lat.heights


def test_indexer_rejects_a_cycle():
    with pytest.raises(CycleError) as info:
        Poset._from_cover_pairs(["a", "b", "c"], [(0, 1), (1, 2), (2, 0)])
    assert str(info.value) == "cover digraph has a cycle through ['a', 'b', 'c']"
    # the stuck names, a cycle and what lies above it, in the order given
    with pytest.raises(CycleError) as info:
        Poset._from_cover_pairs(["d", "x", "c", "b", "a"], [(4, 3), (3, 2), (2, 4), (2, 0)])
    assert str(info.value) == "cover digraph has a cycle through ['d', 'c', 'b', 'a']"


def test_several_maxima_listed_in_name_order():
    # z is maximal at height 1 and b at height 2: the message lists them by
    # name, as Poset.top_name does, not in index order
    covers = [("0", "a"), ("a", "b"), ("0", "z")]
    with pytest.raises(NoBoundsError) as info:
        Lattice.build_from_covers(["0", "a", "b", "z"], covers)
    assert str(info.value) == "no unique maximum: ['b', 'z']"
    with pytest.raises(NoBoundsError) as info:
        Poset.from_covers(["0", "a", "b", "z"], covers).top_name()
    assert str(info.value) == "no unique maximum: ['b', 'z']"


@pytest.mark.parametrize(
    "family, builds", [(("tamari", 5), 1), (("boolean", 4), 1), (("fig1",), 2), (("fig4",), 3)]
)
def test_each_distinct_mask_list_is_built_and_checked_once(monkeypatch, family, builds):
    # the three derived orders coincide on tamari and boolean lattices; on
    # fig1 the kappa order is cloUp, and on fig4 all three differ.  Each
    # distinct mask list goes once through the mask builder, and no derived
    # order goes through the cover indexer: the kappa order has no
    # construction of its own.  is_lattice decides on the label masks, and
    # never calls the n-bit lattice_failure, which stays the oracle of its
    # verdict.
    lat = S.generate(*family)
    calls = record_calls(monkeypatch, Poset, ["_from_cover_pairs", "lattice_failure"])
    builds_seen = record_calls(monkeypatch, DerivedPoset, ["_from_masks"])
    checks = record_calls(monkeypatch, DerivedPoset, ["_lattice_on_masks"])
    for _ in range(2):
        orders = [S.kappa_order(lat), S.clo_up(lat), S.clo_down(lat)]
        verdicts = [order.is_lattice() for order in orders]
        assert len({id(order) for order in orders}) == builds
    assert len(builds_seen) == len(checks) == builds
    assert calls == []
    assert verdicts == [order.lattice_failure() is None for order in orders]


def test_orders_report_builds_no_order(monkeypatch):
    # equal derived orders have equal mask lists, so the report compares
    # the masks and builds none of the three orders
    lattices = [S.generate("fig1"), S.generate("fig4"), S.generate("tamari", 5)]
    calls = record_calls(monkeypatch, Poset, ["_from_cover_pairs"])
    built = record_calls(monkeypatch, DerivedPoset, ["_from_masks"])
    for lat in lattices:
        S.orders_coincide_report(lat)
    assert calls == built == []


# messages recorded before the reduction check moved from Poset.__init__
# into from_covers
REDUNDANT_COVERS = [
    ("0<a a<b b<1 0<b", "cover ('0', 'b') is implied via 'a'"),
    ("0<a 0<b a<1 b<1 0<1", "cover ('0', '1') is implied via 'a'"),
    ("0<a a<b b<c 0<c a<c", "cover ('0', 'c') is implied via 'a'"),
    ("0<a a<x x<1 0<b b<1 a<1 0<y y<x", "cover ('a', '1') is implied via 'x'"),
    ("bot<p bot<q p<r q<r r<top p<top q<s s<top bot<s", "cover ('bot', 's') is implied via 'q'"),
    ("0<b b<1 0<1 0<c", "cover ('0', '1') is implied via 'b'"),
]


@pytest.mark.parametrize("text, message", REDUNDANT_COVERS)
def test_redundant_cover_messages(text, message):
    covers = [tuple(pair.split("<")) for pair in text.split()]
    names = sorted({x for c in covers for x in c})
    for build in (Poset.from_covers, Lattice.build_from_covers):
        with pytest.raises(NotTransitiveReduction) as info:
            build(names, covers)
        assert str(info.value) == message


def test_redundant_cover_messages_on_random_dags():
    # 300 random DAGs on up to 9 vertices, 127 of them with an implied
    # cover: the outcomes hash to the digest recorded before the change
    rng = random.Random(5)
    outcomes = []
    for _ in range(300):
        names = [f"v{i}" for i in range(rng.randint(2, 9))]
        edges = {(a, b) for a, b in itertools.combinations(names, 2) if rng.random() < 0.35}
        covers = sorted(edges)
        rng.shuffle(covers)
        try:
            Poset.from_covers(names, covers)
            outcomes.append("ok")
        except S.LatticeError as exc:
            outcomes.append(f"{type(exc).__name__} {exc}")
    assert sum(o != "ok" for o in outcomes) == 127
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == "ed8c3c9ac5f423fb307ad6b6b970fa691aad995774a5b6325efcf436bdaf7dc8"


def test_non_lattice_rejected():
    covers = [("bot", "a"), ("bot", "b"), ("a", "x"), ("b", "x"), ("a", "y"), ("b", "y"), ("x", "top"), ("y", "top")]
    with pytest.raises(NotALattice):
        Lattice.build_from_covers(["bot", "a", "b", "x", "y", "top"], covers)


def test_missing_bounds_rejected():
    with pytest.raises(NoBoundsError):
        Lattice.build_from_covers(["a", "b", "c"], [("a", "c"), ("b", "c")])


def test_duplicate_names_rejected():
    with pytest.raises(SchemaError):
        Lattice.build_from_covers(["a", "a"], [])
    with pytest.raises(SchemaError):
        Lattice.build_from_covers(["a", ""], [])


@pytest.mark.parametrize(
    "names, covers, message",
    [
        ([["a"], "b"], [], "element names must be non-empty strings"),
        (["a", None], [], "element names must be non-empty strings"),
        (["a", "b"], [(["a"], "b")], "cover (['a'], 'b') is not a pair of strings"),
        (["a", "b"], ["ab"], "cover 'ab' is not a pair of strings"),
        (["a", "b"], [("a", "b", "a")], "cover ('a', 'b', 'a') is not a pair of strings"),
        (["a", "b"], [("a", "c")], "cover ('a', 'c') mentions an unknown element"),
    ],
)
def test_malformed_names_and_covers_rejected(names, covers, message):
    for build in (Poset.from_covers, Lattice.build_from_covers):
        with pytest.raises(SchemaError) as info:
            build(names, covers)
        assert str(info.value) == message


UNKNOWN_NAME_CALLS = {
    "join": lambda lat, x: lat.join("bot", x),
    "meet_set": lambda lat, x: lat.meet_set(["top", x]),
    "leq": lambda lat, x: lat.leq(x, "top"),
    "upper_covers": lambda lat, x: lat.upper_covers(x),
    "interval": lambda lat, x: lat.interval("bot", x),
    "cjr": lambda lat, x: S.cjr(lat, x),
    "cmr": lambda lat, x: S.cmr(lat, x),
    "core_data": lambda lat, x: S.core_data(lat, x),
    "pop_up": lambda lat, x: S.pop_up(lat, x),
    "pop_down": lambda lat, x: S.pop_down(lat, x),
    "is_nuclear": lambda lat, x: S.is_nuclear(lat, x, "top"),
    "kappa_bar": lambda lat, x: S.kappa_bar(lat, x),
    "kappa_bar_d": lambda lat, x: S.kappa_bar_d(lat, x),
    "j_label_interval": lambda lat, x: S.j_label_interval(lat, x, "top"),
    "j_label_cover": lambda lat, x: S.j_label_cover(lat, "bot", x),
    "kappa_order.leq": lambda lat, x: S.kappa_order(lat).leq(x, "top"),
}


@pytest.mark.parametrize("call", UNKNOWN_NAME_CALLS.values(), ids=UNKNOWN_NAME_CALLS)
def test_unknown_name_raises_schema_error(fig1, call):
    with pytest.raises(SchemaError) as info:
        call(fig1, "x")
    assert str(info.value) == "unknown element 'x'"


@pytest.mark.parametrize("call", ["cjr", "cmr", "core_data"])
def test_unknown_name_raises_before_any_table(call):
    # m3 is not semidistributive, so each per-lattice table raises
    # NotSemidistributive; the name is looked up before the table is read
    m3, fn = S.generate("m3"), UNKNOWN_NAME_CALLS[call]
    with pytest.raises(SchemaError, match="^unknown element 'zz'$"):
        fn(m3, "zz")
    with pytest.raises(NotSemidistributive):
        fn(m3, m3.top)


INDEX_EDITS = {
    "setitem": lambda index: index.__setitem__("bot", index["top"]),
    "delitem": lambda index: index.__delitem__("bot"),
    "ior": lambda index: index.__ior__({"zz": 0}),
    "clear": lambda index: index.clear(),
    "pop": lambda index: index.pop("bot"),
    "popitem": lambda index: index.popitem(),
    "setdefault": lambda index: index.setdefault("zz", 0),
    "update": lambda index: index.update(zz=0),
}


@pytest.mark.parametrize("edit", INDEX_EDITS.values(), ids=INDEX_EDITS)
def test_index_is_read_only(edit):
    # the index of cloUp is the memoized order's own, and a lattice's index
    # is what every name lookup reads, so an edit would change later answers
    lattice = S.generate("fig1")
    for order in (lattice, S.clo_up(lattice)):
        before = dict(order.index)
        with pytest.raises(TypeError, match="^an element index is read-only$"):
            edit(order.index)
        assert order.index == before
    assert S.clo_up(lattice).leq("bot", "j1") and S.cjr(lattice, "j1").joinands == ("j1",)


def test_index_survives_pickle_and_deepcopy():
    lattice = S.generate("fig1")
    for copied in (pickle.loads(pickle.dumps(lattice)), copy.deepcopy(lattice)):
        assert type(copied.index) is type(lattice.index) and copied.index == lattice.index
        assert copied.covers_named() == lattice.covers_named()
        with pytest.raises(TypeError):
            copied.index["bot"] = 0
        with pytest.raises(SchemaError, match="^unknown element 'zz'$"):
            copied.index["zz"]


def _answers(lattice):
    """What the memo serves on ``lattice``, as plain data."""
    labeling = S.label_clo_up(lattice)
    return (
        S.clo_up(lattice).covers_named(),
        sorted(labeling.labels.items()),
        S.enumerate_kd_exceptional(lattice, maximal_only=True),
        S.irreducible_table(lattice),
    )


@pytest.mark.parametrize("family", [("fig1",), ("fig4",), ("boolean", 3)])
def test_memoized_lattice_survives_pickle_and_deepcopy(family):
    # memo keys are functions, which pickle cannot name: a copy leaves the
    # memo behind and builds every entry again on demand
    lattice = S.generate(*family)
    expected = _answers(lattice)
    assert lattice.memo
    for copied in (pickle.loads(pickle.dumps(lattice)), copy.deepcopy(lattice)):
        assert copied.memo == {} and copied == lattice
        assert _answers(copied) == expected
    assert lattice.memo and _answers(lattice) == expected


def test_derived_order_survives_pickle_and_deepcopy():
    # a derived order memoizes its down-sets and its cover tuple; a copy
    # rebuilds both and gives the same answers
    lattice = S.generate("fig4")
    for order in (S.kappa_order(lattice), S.clo_up(lattice), S.clo_down(lattice)):
        relations, covers = order.relation_pairs(), order.covers_named()
        assert order.memo
        for copied in (pickle.loads(pickle.dumps(order)), copy.deepcopy(order)):
            assert copied.memo == {}
            assert (copied.names, copied.masks, copied.up, copied.heights) == (
                order.names, order.masks, order.up, order.heights
            )
            assert copied.relation_pairs() == relations and copied.covers_named() == covers
            assert (copied.down, copied.covers) == (order.down, order.covers)
            assert copied.is_lattice() == order.is_lattice()
            assert emit_dot(copied) == emit_dot(order)
    labeling = S.label_clo_up(S.generate("fig1"))
    copied = pickle.loads(pickle.dumps(labeling))
    assert copied == labeling
    assert S.find_el_order(copied.to_labeled_poset()) == S.find_el_order(labeling.to_labeled_poset())


def test_unknown_interval_ends_name_lo_first(fig1):
    for call in (Lattice.interval, S.is_nuclear, S.is_conuclear, S.j_label_interval):
        with pytest.raises(SchemaError, match="^unknown element 'zz'$"):
            call(fig1, "zz", "yy")
    assert "x" not in fig1.interval("bot", "top")


def test_leq_golden(fig1):
    assert fig1.leq("j3", "m1")
    assert not fig1.leq("j1", "m1")
    for x in fig1.names:
        assert fig1.leq(x, x)


def test_join_meet_golden(fig1):
    assert fig1.join("j3", "j2") == "m1"
    assert fig1.meet("j3", "j2") == "bot"
    assert fig1.join("m1", "m2") == "top"
    for x in fig1.names:
        assert fig1.join(x, "bot") == x
        assert fig1.meet(x, "top") == x


def test_join_meet_set(fig1):
    assert fig1.join_set([]) == "bot"
    assert fig1.meet_set([]) == "top"
    assert fig1.join_set(["j1", "j2", "j3"]) == "top"


def test_covers_golden(fig1):
    assert fig1.lower_covers("m1") == ("j2", "j4")
    assert fig1.upper_covers("top") == ()
    assert fig1.upper_covers("j3") == ("j4",)


def test_interval_golden(fig1):
    assert fig1.interval("j4", "top").members == ("j4", "m1", "m2", "top")
    assert len(fig1.interval("j4", "top")) == 4
    assert fig1.interval("j3", "j3").members == ("j3",)
    assert fig1.interval("j3", "j4").members == ("j3", "j4")
    with pytest.raises(NotComparable):
        fig1.interval("m1", "j1")


def test_poset_equality_needs_a_poset_on_the_same_names():
    chain = S.generate("chain", 2)
    renamed = Lattice.build_from_covers(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert chain == S.generate("chain", 2)
    assert (chain == "chain") is False
    assert chain != renamed


def test_interval_is_sublattice(fig1):
    view = fig1.interval("j4", "top")
    for a, b in itertools.product(view.members, repeat=2):
        assert fig1.join(a, b) in view
        assert fig1.meet(a, b) in view
    sub = as_lattice(view)
    for a, b in itertools.product(view.members, repeat=2):
        assert sub.join(a, b) == fig1.join(a, b)
        assert sub.meet(a, b) == fig1.meet(a, b)


@pytest.mark.parametrize("module, name", [("cores", n) for n in ("kappa_order", "clo_up", "clo_down")])
def test_memoized_functions(fig1, module, name):
    fn = getattr(getattr(S, module), name)
    # a wrapper's __wrapped__ would mark it as left installed by perfbench's tracer
    assert fn.__name__ == name and fn.__doc__ and not hasattr(fn, "__wrapped__")
    assert fn(fig1) is fn(fig1)
    assert fn(fig1) is not fn(S.generate("fig1"))


NAME_MAPS = [("irreducibles", n) for n in ("irreducible_table", "cover_labeling", "kappa_bar_map", "kappa_bar_d_map")]
NAME_MAPS += [("cores", n) for n in ("lab_down_map", "lab_up_map")]


@pytest.mark.parametrize("module, name", NAME_MAPS)
def test_name_maps_are_built_per_call(fig1, module, name):
    # the memo holds index tables only, so a name map is a fresh, equal object on every call
    fn = getattr(getattr(S, module), name)
    assert fn.__name__ == name and fn.__doc__ and not hasattr(fn, "__wrapped__")
    first, second = fn(fig1), fn(fig1)
    assert first == second and first is not second
    assert first == fn(S.generate("fig1"))


def _name_map_dicts(result):
    """The dicts a name map hands out: the map itself or the dict fields of its record."""
    if isinstance(result, dict):
        return [result]
    return [value for value in vars(result).values() if isinstance(value, dict)]


@pytest.mark.parametrize("family", [("fig1",), ("tamari", 3), ("boolean", 3)])
def test_editing_a_name_map_leaves_the_lattice_intact(family):
    # every dict a name map returns is the caller's own: clearing them all
    # changes neither the next call nor the results read off the memo
    lattice, fresh = S.generate(*family), S.generate(*family)
    for module, name in NAME_MAPS:
        fn = getattr(getattr(S, module), name)
        for mapping in _name_map_dicts(fn(lattice)):
            assert mapping
            mapping.clear()
    for module, name in NAME_MAPS:
        fn = getattr(getattr(S, module), name)
        assert fn(lattice) == fn(fresh), name
    assert S.kappa_bar_cycles(lattice) == S.kappa_bar_cycles(fresh)
    assert S.lattice_j_labeling(lattice) == S.lattice_j_labeling(fresh)


def _perfbench_tracing():
    """perfbench's tracing module, loaded from its file, and the targets it wraps."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [("core.Lattice", "__init__")] + [t for layer in tracing.LAYERS.values() for t in layer]
    return tracing, targets


def test_traced_entry_points_are_owned_where_the_tracer_wraps_them():
    # perfbench's tracer replaces each entry point in its owner's __dict__,
    # so a refactor that moves one, or leaves it inherited, breaks --trace 1
    tracing, targets = _perfbench_tracing()
    assert len(targets) > 20
    missing = [(owner, attr) for owner, attr in targets if attr not in vars(tracing._resolve(owner))]
    assert missing == []


def test_traced_run_reaches_every_entry_point(tmp_path, capsys):
    # the traced set-up of a benchmark run calls every wrapped entry point
    # through its wrapper, so a changed call shape (say, of Lattice.__init__,
    # which the tracer calls as (lattice, names, down, covers)) fails here
    tracing, targets = _perfbench_tracing()
    originals = {(owner, attr): vars(tracing._resolve(owner))[attr] for owner, attr in targets}
    tracer = tracing.Tracer()
    with tracer.installed():
        labeled = S.generate("fig1-labeled")
        docs = {}
        inputs = [("tamari", S.generate("tamari", 4)), ("labeled", labeled), ("random", S.random_sd_lattice(seed=1))]
        for name, obj in inputs:
            docs[name] = str(tmp_path / f"{name}.json")
            Path(docs[name]).write_text(emit_json(to_document(obj)), encoding="utf-8")
        order = ",".join(S.find_el_order(labeled))
        calls = [[cmd, docs[name]] for cmd in ("check", "kappa", "cjr", "complex", "cores") for name in docs]
        calls += [["orders", docs["random"], "--which", which] for which in ("kappa", "cloDown")]
        calls += [
            ["orders", docs["tamari"], "--which", "cloUp", "--dot", "--labels"],
            ["seq", docs["tamari"], "--maximal", "--json"],
            ["el", docs["labeled"], "--search", "--json"],
            ["el", docs["labeled"], "--order", order, "--json"],
            ["dot", docs["random"], "--labeling", "j"],
        ]
        for argv in calls:
            assert sdlat.cli.cli_main(argv) == 0, argv
        lattice = S.generate("fig1")
        S.irreducibles.kappa_bar_map(lattice)
        S.cores.lab_down_map(lattice)
        S.cores.lab_up_map(lattice)
        assert S.sequences.is_kd_exceptional(lattice, ["j1"])
    capsys.readouterr()
    recorded = {name for name, *_ in tracer.spans}
    assert [f"{owner}.{attr}" for owner, attr in targets[1:] if f"{owner}.{attr}" not in recorded] == []
    assert tracer.counts["core.lattices_built"] > 0
    assert [key for key, raw in originals.items() if vars(tracing._resolve(key[0]))[key[1]] is not raw] == []


def test_dual_involution(fig1):
    assert fig1.dual().dual() == fig1


def test_dual_swaps_irreducibles(fig1):
    table = S.irreducible_table(fig1)
    dual_table = S.irreducible_table(fig1.dual())
    assert dual_table.cji == table.cmi
    assert dual_table.cmi == table.cji


def test_dual_chain():
    chain = S.generate("chain", 3)
    assert posets_isomorphic(chain.dual(), chain) is not None


def test_absorption_everywhere():
    for lat in sd_family_lattices() + [S.generate("m3")]:
        for a, b in itertools.product(lat.names, repeat=2):
            assert lat.join(a, lat.meet(a, b)) == a
            assert lat.meet(a, lat.join(a, b)) == a


def test_leq_join_meet_consistency(fig1):
    for a, b in itertools.product(fig1.names, repeat=2):
        assert fig1.leq(a, b) == (fig1.join(a, b) == b) == (fig1.meet(a, b) == a)


def test_covers_are_reduction(small_sd_lattices):
    for lat in sd_family_lattices() + small_sd_lattices[:20]:
        assert lat.covers_named() == transitive_reduction_from_order(lat)


def test_semidistributive_golden(fig1):
    assert fig1.is_semidistributive()
    assert S.generate("boolean", 2).is_semidistributive()
    assert not S.generate("m3").is_semidistributive()


def test_m3_witness():
    m3 = S.generate("m3")
    kind, x, y, z = m3.semidistributivity_witness()
    if kind == "join":
        assert m3.join(x, y) == m3.join(x, z)
        assert m3.join(x, m3.meet(y, z)) != m3.join(x, y)
    else:
        assert m3.meet(x, y) == m3.meet(x, z)
        assert m3.meet(x, m3.join(y, z)) != m3.meet(x, y)


def test_semidistributive_matches_exponential_oracle(small_sd_lattices):
    pool = [lat for lat in small_sd_lattices if len(lat) <= 8][:25]
    pool += [S.generate("m3"), S.generate("boolean", 3), S.generate("tamari", 3)]
    for lat in pool:
        assert lat.is_semidistributive() == sd_exponential_oracle(lat)


def test_semidistributive_self_dual(small_sd_lattices):
    for lat in small_sd_lattices[:20] + [S.generate("m3")]:
        assert lat.is_semidistributive() == lat.dual().is_semidistributive()


def test_isomorphic_to_self(fig1):
    iso = posets_isomorphic(fig1, fig1)
    assert iso is not None
    for a, b in itertools.product(fig1.names, repeat=2):
        assert fig1.leq(a, b) == fig1.leq(iso[a], iso[b])


def test_isomorphic_relabeled(fig1):
    renamed = {name: name.upper() for name in fig1.names}
    other = Lattice.build_from_covers(
        [renamed[n] for n in fig1.names],
        [(renamed[a], renamed[b]) for a, b in fig1.covers_named()],
    )
    iso = posets_isomorphic(fig1, other)
    assert iso is not None
    for a, b in itertools.product(fig1.names, repeat=2):
        assert fig1.leq(a, b) == other.leq(iso[a], iso[b])


def test_not_isomorphic():
    assert posets_isomorphic(S.generate("chain", 3), S.generate("boolean", 2)) is None
    assert posets_isomorphic(S.generate("m3"), S.generate("diamond")) is None


def test_isomorphism_size_cap():
    big = S.generate("boolean", 4)
    with pytest.raises(SizeLimitExceeded):
        posets_isomorphic(big, big)
    assert posets_isomorphic(big, big, size_cap=16) is not None


def test_isomorphism_random_relabels(small_sd_lattices):
    rng = random.Random(5)
    for lat in small_sd_lattices[:15]:
        shuffled = list(lat.names)
        rng.shuffle(shuffled)
        renamed = dict(zip(lat.names, shuffled))
        other = Lattice.build_from_covers(
            shuffled, [(renamed[a], renamed[b]) for a, b in lat.covers_named()]
        )
        assert posets_isomorphic(lat, other) is not None
