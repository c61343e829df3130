import itertools

import pytest

import sdlat as S
from sdlat import InconsistentLabels, NotComparable
from sdlat.cores import _label_order

from conftest import sd_family_lattices
from oracles import atom_labels, coatom_labels


def _all_intervals(lat):
    for lo, hi in itertools.product(lat.names, repeat=2):
        if lat.leq(lo, hi):
            yield lo, hi


def test_pop_golden(fig1):
    assert S.pop_down(fig1, "m1") == "bot"
    assert S.pop_down(fig1, "bot") == "bot"
    assert S.pop_up(fig1, "top") == "top"
    assert S.pop_up(fig1, "j1") == "top"


def test_core_data_golden(fig1):
    data = S.core_data(fig1, "m1")
    assert data.lab_down == ("j2", "j3", "j4")
    assert data.lab_up == ("j2", "j3")
    assert data.w_set == ("j2", "j3")
    assert (data.core_down.lo, data.core_down.hi) == ("bot", "m1")

    assert S.core_data(fig1, "bot").lab_down == ()

    data = S.core_data(fig1, "j4")
    assert (data.core_down.lo, data.core_down.hi) == ("j3", "j4")
    assert (data.core_up.lo, data.core_up.hi) == ("j3", "j4")
    assert data.w_set == ("j4",)


def test_nuclear_golden(fig1):
    assert S.is_nuclear(fig1, "bot", "m1")
    assert S.is_conuclear(fig1, "bot", "m1")
    assert not S.is_nuclear(fig1, "j3", "top")
    assert not S.is_conuclear(fig1, "j3", "top")
    for x in fig1.names:
        assert S.is_nuclear(fig1, x, x)
    with pytest.raises(NotComparable):
        S.is_nuclear(fig1, "m1", "j1")


def test_nuclear_iff_conuclear(small_sd_lattices):
    for lat in sd_family_lattices() + small_sd_lattices[:25]:
        table = S.irreducible_table(lat)
        for lo, hi in _all_intervals(lat):
            nuc = S.is_nuclear(lat, lo, hi)
            assert nuc == S.is_conuclear(lat, lo, hi)
            if nuc:
                expected = sorted(table.kappa[j] for j in atom_labels(lat, lo, hi))
                assert sorted(coatom_labels(lat, lo, hi)) == expected


def test_pop_down_formula(small_sd_lattices):
    # pop_down and pop_up scan the covers, while core_data reads both cores
    # off kappa_bar in closed form, so this pins the tables to the scans
    lattices = sd_family_lattices() + small_sd_lattices
    for lat in lattices + [lat.dual() for lat in lattices]:
        for x in lat.names:
            k = S.kappa_bar(lat, x)
            assert S.pop_down(lat, x) == lat.meet(x, k)
            assert S.pop_up(lat, x) == lat.join(x, S.kappa_bar_d(lat, x))
            core_up = S.core_data(lat, x).core_up
            assert (core_up.lo, core_up.hi) == (k, lat.join(x, k))


def test_cores_are_nuclear(small_sd_lattices):
    for lat in sd_family_lattices() + small_sd_lattices[:25]:
        for x in lat.names:
            data = S.core_data(lat, x)
            assert S.is_nuclear(lat, data.core_down.lo, data.core_down.hi)
            assert S.is_nuclear(lat, data.core_up.lo, data.core_up.hi)


def test_w_set_join_and_meet(small_sd_lattices):
    from sdlat.cores import w_map

    for lat in sd_family_lattices() + small_sd_lattices[:25]:
        table = S.irreducible_table(lat)
        for x, w in w_map(lat).items():
            assert lat.join_set(w) == x
            assert lat.meet_set(table.kappa[j] for j in w) == S.kappa_bar(lat, x)


def test_w_of_join_irreducible(small_sd_lattices):
    from sdlat.cores import w_map

    for lat in sd_family_lattices() + small_sd_lattices[:25]:
        table = S.irreducible_table(lat)
        mapping = w_map(lat)
        for j in table.cji:
            assert mapping[j] == frozenset((j,))


def test_kappa_order_is_w_containment(small_sd_lattices):
    from sdlat.cores import w_map

    for lat in sd_family_lattices() + small_sd_lattices[:25]:
        order = S.kappa_order(lat)
        w = w_map(lat)
        for a, b in itertools.product(lat.names, repeat=2):
            assert order.leq(a, b) == (w[a] <= w[b])


def test_label_order_refuses_masks_that_do_not_separate(fig1):
    # on an SD lattice the three mask lists separate the elements (proof in
    # the cores module docstring), so only a made-up list reaches the guard
    with pytest.raises(InconsistentLabels) as info:
        _label_order(fig1, "cloUp", [0] * fig1.n)
    assert str(info.value) == "cloUp: label sets do not separate elements"


def test_kappa_bar_order_isomorphism_with_dual(small_sd_lattices):
    # x -> kappa_bar(x) flips the kappa order of L onto that of the dual.
    for lat in sd_family_lattices()[:8] + small_sd_lattices[:15]:
        order = S.kappa_order(lat)
        dual_order = S.kappa_order(lat.dual())
        kbar = {x: S.kappa_bar(lat, x) for x in lat.names}
        for a, b in itertools.product(lat.names, repeat=2):
            assert order.leq(a, b) == dual_order.leq(kbar[a], kbar[b])


def test_fig1_derived_orders(fig1):
    kappa = S.kappa_order(fig1)
    up = S.clo_up(fig1)
    down = S.clo_down(fig1)
    assert kappa.relation_pairs() == up.relation_pairs()
    assert kappa.relation_pairs() != down.relation_pairs()
    assert kappa.is_lattice()
    assert not down.is_lattice()
    assert kappa.covers_named() == (
        ("bot", "j1"),
        ("bot", "j2"),
        ("bot", "j3"),
        ("bot", "j4"),
        ("j1", "m2"),
        ("j1", "m3"),
        ("j2", "m1"),
        ("j2", "m3"),
        ("j3", "m1"),
        ("j3", "m2"),
        ("j4", "top"),
        ("m1", "top"),
        ("m2", "top"),
        ("m3", "top"),
    )
    assert down.covers_named() == (
        ("bot", "j1"),
        ("bot", "j2"),
        ("bot", "j3"),
        ("bot", "j4"),
        ("j1", "m2"),
        ("j1", "m3"),
        ("j2", "m1"),
        ("j2", "m3"),
        ("j3", "m1"),
        ("j3", "m2"),
        ("j4", "m1"),
        ("j4", "m2"),
        ("m1", "top"),
        ("m2", "top"),
        ("m3", "top"),
    )


def test_fig1_coincide_report(fig1):
    report = S.orders_coincide_report(fig1)
    assert report.kappa_equals_clo_up
    assert not report.kappa_equals_clo_down
    assert not report.clo_up_equals_clo_down
    x, w_set, lab_down = report.witness_kappa_clo_down
    assert x == "m1"
    assert w_set == ("j2", "j3")
    assert lab_down == ("j2", "j3", "j4")


def test_fig4_coincide_report(fig4):
    report = S.orders_coincide_report(fig4)
    assert not report.kappa_equals_clo_up
    assert not report.kappa_equals_clo_down
    assert not report.clo_up_equals_clo_down


def test_diamond_all_coincide():
    report = S.orders_coincide_report(S.generate("boolean", 2))
    assert report.kappa_equals_clo_up
    assert report.kappa_equals_clo_down
    assert report.clo_up_equals_clo_down


def test_chain_orders_coincide():
    for n in (1, 2, 4):
        chain = S.generate("chain", n)
        report = S.orders_coincide_report(chain)
        assert report.kappa_equals_clo_up
        assert report.kappa_equals_clo_down
        assert report.clo_up_equals_clo_down


def test_derived_orders_do_not_depend_on_call_order(small_sd_lattices):
    # orders built from one mask list share a build, so the first builder
    # called decides which order is built; no result may depend on that
    builders = (S.kappa_order, S.clo_up, S.clo_down)
    pool = [S.generate("fig1"), S.generate("fig4"), S.generate("tamari", 4), S.generate("boolean", 3)]
    pool += small_sd_lattices[:20]
    for lat in pool + [lat.dual() for lat in pool]:
        seen = set()
        for calls in itertools.permutations(range(3)):
            fresh = S.Lattice.build_from_covers(lat.names, lat.covers_named())
            orders = [None] * 3
            for i in calls:
                orders[i] = builders[i](fresh)
            seen.add(
                (
                    tuple((order.names, order.covers, order.is_lattice()) for order in orders),
                    tuple(min(k for k in range(3) if orders[k] is order) for order in orders),
                    S.orders_coincide_report(fresh),
                )
            )
        assert len(seen) == 1


@pytest.mark.parametrize("family, builds", [(("tamari", 3), 1), (("fig4",), 3)])
def test_derived_order_tables_cannot_be_edited(family, builds):
    # the memo hands out the derived orders, one object for all three on
    # tamari(3) and three on fig4: their tables are tuples, so an edit
    # raises and leaves every order as a fresh lattice builds it
    lattice, fresh = S.generate(*family), S.generate(*family)
    orders, tables = [S.kappa_order, S.clo_up, S.clo_down], ["down", "up", "heights", "masks"]
    assert len({id(order(lattice)) for order in orders}) == builds
    for order in orders:
        for table in tables:
            with pytest.raises(TypeError):
                getattr(order(lattice), table)[-1] = 1
    for order in orders:
        mine, theirs = order(lattice), order(fresh)
        assert mine == theirs
        assert [getattr(mine, table) for table in tables] == [getattr(theirs, table) for table in tables]
