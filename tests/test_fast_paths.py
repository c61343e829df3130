"""Mask-based fast paths against the scans they replaced.

Each oracle here is the direct definition (or the old quadratic scan):
lattice checks against the ordered two-sided scan, the kappa test of
semidistributivity against the fiber fold, cover labels and kappa against
scans over every element, the derived orders against ``from_leq`` (in
``tests/oracles.py``) on the defining relation, extremality and
kappa_bar_d against a chain search and an up-mask scan, the lattice test of
the derived orders on label masks against ``lattice_failure``, and the
per-lattice tables of ``core_data``, ``cjr`` and ``cmr`` against per-call
formulas.  Inputs: fixed families, the random SD pool, non-semidistributive lattices, and Hypothesis-drawn
posets, most of which are not lattices.
"""

import ast
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings

import sdlat as S
from sdlat import Lattice, NotALattice, NotSemidistributive
from sdlat.core import _kappa_maps
from sdlat.cores import lab_down_map, lab_up_map, w_map
from sdlat.generators import _draw_candidate, _is_sd_candidate
from sdlat.irreducibles import irreducible_table, kappa_bar_d_map

from conftest import (
    CLO_UP_OUTSIDE,
    lattice_from_cover_text,
    posets,
    random_pool,
    ranked_poset,
    sd_exponential_oracle,
    sd_family_lattices,
)
from oracles import (
    atom_labels,
    cjr_per_call,
    cmr_per_call,
    core_data_per_call,
    from_leq,
    is_extremal_oracle,
    kappa_bar_d_oracle,
    lattice_failure_oracle,
    mask_kernels,
    orders_coincide_report_oracle,
)

SRC = Path(S.__file__).resolve().parent


def _n5():
    return Lattice.build_from_covers(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")],
    )


FAMILIES = [("tamari", n) for n in range(3, 8)] + [("boolean", n) for n in range(2, 6)]
FAMILIES += [("fig1", None), ("fig4", None)]


def _random_pool():
    rng = random.Random(711)
    return [S.random_sd_lattice(rng=rng) for _ in range(40)]


# -- oracles ------------------------------------------------------------------


def _unique_extremum(lat, cand, lowest):
    if lowest:
        found = [y for y in cand if all(lat.leq(y, z) for z in cand)]
    else:
        found = [y for y in cand if all(lat.leq(z, y) for z in cand)]
    assert len(found) == 1, (cand, found)
    return found[0]


def kappa_scan(lat):
    """kappa(j) = max{y : j ^ y = j_*}, kappa_d(m) = min{y : m v y = m^*}."""
    kappa, kappa_d = {}, {}
    for x in lat.names:
        if len(lat.lower_covers(x)) == 1:
            (below,) = lat.lower_covers(x)
            kappa[x] = _unique_extremum(lat, [y for y in lat.names if lat.meet(x, y) == below], False)
        if len(lat.upper_covers(x)) == 1:
            (above,) = lat.upper_covers(x)
            kappa_d[x] = _unique_extremum(lat, [y for y in lat.names if lat.join(x, y) == above], True)
    return kappa, kappa_d


def label_scan(lat):
    """Per-cover scans: j-label min{y : y v u = v}, m-label max{y : y ^ v = u}."""
    jlabel, mlabel = {}, {}
    for u, v in lat.covers_named():
        jlabel[(u, v)] = _unique_extremum(lat, [y for y in lat.names if lat.join(u, y) == v], True)
        mlabel[(u, v)] = _unique_extremum(lat, [y for y in lat.names if lat.meet(v, y) == u], False)
    return jlabel, mlabel


def derived_orders_oracle(lat):
    """The three derived orders built with from_leq from their definitions."""
    kappa, _ = kappa_scan(lat)
    jlabel, _ = label_scan(lat)
    kbar = {
        x: lat.meet_set(kappa[jlabel[(u, x)]] for u in lat.lower_covers(x)) for x in lat.names
    }

    def labels(lo, hi):
        view = lat.interval(lo, hi)
        return frozenset(jlabel[c] for c in lat.covers_named() if c[0] in view and c[1] in view)

    def pop_up(x):
        return lat.join(x, lat.join_set(lat.upper_covers(x)))

    lab_down = {x: labels(lat.meet(x, lat.meet_set(lat.lower_covers(x))), x) for x in lat.names}
    lab_up = {x: labels(kbar[x], pop_up(kbar[x])) for x in lat.names}
    orders = {
        "kappaOrder": from_leq(
            lat.names, lambda a, b: lat.leq(a, b) and lat.leq(kbar[b], kbar[a])
        ),
        "cloDown": from_leq(lat.names, lambda a, b: lab_down[a] <= lab_down[b]),
        "cloUp": from_leq(lat.names, lambda a, b: lab_up[a] <= lab_up[b]),
    }
    return kbar, lab_down, lab_up, orders


# -- comparisons ----------------------------------------------------------------


def check_poset(poset):
    """lattice_failure must equal the ordered two-sided scan.

    A meet fails first only at a pair with no common lower bound.
    """
    failure = poset.lattice_failure()
    assert failure == poset._two_sided_scan()
    if failure is not None and failure[0] == "meet":
        _, a, b = failure
        assert not any(poset.leq(z, a) and poset.leq(z, b) for z in poset.names)


def check_sd(lat):
    fold = lat._fiber_fold_witness()
    assert lat.is_semidistributive() == (fold is None)
    assert lat.semidistributivity_witness() == fold
    if fold is not None:
        with pytest.raises(NotSemidistributive, match="witness"):
            S.irreducible_table(lat)


def check_sd_lattice(lat):
    table = S.irreducible_table(lat)
    kappa, kappa_d = kappa_scan(lat)
    assert table.kappa == kappa and table.kappa_d == kappa_d
    assert sorted(table.kappa.values()) == sorted(table.cmi)
    assert all(table.kappa_d[m] == j for j, m in table.kappa.items())

    jlabel, mlabel = label_scan(lat)
    labeling = S.cover_labeling(lat)
    assert labeling.jlabel == jlabel and labeling.mlabel == mlabel
    for (u, v), j in jlabel.items():
        assert S.j_label_cover(lat, u, v) == j
        assert S.m_label_cover(lat, u, v) == mlabel[(u, v)]

    for x in lat.names:
        rep = S.cjr(lat, x)
        assert lat.join_set(rep.joinands) == x
        assert not any(lat.lt(a, b) for a, b in itertools.permutations(rep.joinands, 2))
        assert lat.meet_set(S.cmr(lat, x).joinands) == x
        data = S.core_data(lat, x)
        assert set(data.w_set) == set(data.lab_down) & set(data.lab_up)
        assert atom_labels(lat, data.core_down.lo, data.core_down.hi) == atom_labels(
            lat, data.core_up.lo, data.core_up.hi
        )
    kbar, lab_down, lab_up, oracle = derived_orders_oracle(lat)
    assert S.irreducibles.kappa_bar_map(lat) == kbar
    assert lab_down_map(lat) == lab_down and lab_up_map(lat) == lab_up
    fast_orders = {"kappaOrder": S.kappa_order(lat), "cloDown": S.clo_down(lat), "cloUp": S.clo_up(lat)}
    for kind, fast in fast_orders.items():
        # the two are indexed differently, so they are compared by name
        slow = oracle[kind]
        assert sorted(fast.names) == sorted(slow.names)
        assert fast.relation_pairs() == slow.relation_pairs()
        assert fast.covers_named() == slow.covers_named()
        assert (fast.lattice_failure() is None) == (slow._two_sided_scan() is None)
    report = S.orders_coincide_report(lat)
    relations = {kind: order.relation_pairs() for kind, order in oracle.items()}
    for flag, witness, left, right in (
        (report.kappa_equals_clo_down, report.witness_kappa_clo_down, "kappaOrder", "cloDown"),
        (report.kappa_equals_clo_up, report.witness_kappa_clo_up, "kappaOrder", "cloUp"),
        (report.clo_up_equals_clo_down, report.witness_clo_up_clo_down, "cloUp", "cloDown"),
    ):
        assert flag == (relations[left] == relations[right]) == (witness is None)
    w = w_map(lat)
    assert all(lat.join_set(w[x]) == x for x in lat.names)


def cover_masks(dcov):
    return [sum(1 << j for j in lows) for lows in dcov]


def check_mask_kernels(poset):
    """The kernels find the poset's lower covers and up-sets; returns their verdict and kappa input."""
    meets, kappa_args = mask_kernels(poset.down)
    _, up, dcov, _ = kappa_args
    assert [sorted(lows) for lows in dcov] == [sorted(lows) for lows in poset._dcov]
    assert tuple(up) == poset.up
    if poset.lattice_failure() is None:
        assert meets
    return meets, kappa_args


def replayed_draw(poset):
    """A bounded poset drawn again by ``generators._draw_candidate``: its down-set and cover masks.

    Its middle elements take their heights less one as ranks, which are 0..2
    on the ranked posets drawn here.  Each picks its lower covers and the
    elements below it at an odd index distance, so that both the closure
    of the draw and its cover rule have work to do.
    """
    n, heights, down = poset.n, poset.heights, poset.down
    ranks = [heights[i] - 1 for i in range(1, n - 1)]
    assert all(0 <= r <= 2 for r in ranks), heights
    bits = iter(ranks + [0])  # then density index 0
    coins = [
        0.0 if down[i] >> j & 1 and (j in poset._dcov[i] or (i - j) % 2) else 0.99
        for i in range(1, n - 1)
        for j in range(1, i)
        if heights[j] < heights[i]
    ]
    draws = iter(coins)
    drawn = _draw_candidate(lambda k: next(bits), draws.__next__, n - 2)
    assert next(bits, None) is None and next(draws, None) is None
    return drawn


def check_drawn_poset(poset):
    check_poset(poset)
    failure = poset._two_sided_scan()
    assert failure == lattice_failure_oracle(poset)
    names, covers = poset.names, poset.covers_named()
    meets, kappa_args = check_mask_kernels(poset)
    if len(poset.minimal_elements()) != 1 or len(poset.maximal_elements()) != 1:
        return
    # bounded: the cover-pair lemma makes the meet test the lattice test
    assert meets == (failure is None) == (poset.lattice_failure() is None)
    if poset.n > 1:
        # the masks random_sd_lattice draws, and its one test on them
        down, cov = replayed_draw(poset)
        assert tuple(down) == poset.down
        assert cov == cover_masks(kappa_args[2])
        assert _is_sd_candidate(down, cov) == (meets and _kappa_maps(*kappa_args) is not None)
    if failure is not None:
        kind, a, b = failure
        with pytest.raises(NotALattice) as info:
            Lattice.build_from_covers(names, covers)
        assert str(info.value) == f"elements {a!r} and {b!r} have no unique {kind}"
        return "not a lattice"
    lat = Lattice.build_from_covers(names, covers)
    check_sd(lat)
    assert lat.is_semidistributive() == sd_exponential_oracle(lat) == (_kappa_maps(*kappa_args) is not None)
    if lat.is_semidistributive():
        check_sd_lattice(lat)
    return "lattice"


# -- tests --------------------------------------------------------------------


@pytest.mark.parametrize("family,n", FAMILIES)
def test_families_match_oracles(family, n):
    lat = S.generate(family, n)
    check_poset(lat)
    check_sd(lat)
    check_sd_lattice(lat)


def test_random_pool_matches_oracles():
    for lat in _random_pool():
        check_poset(lat)
        check_sd(lat)
        check_sd_lattice(lat)
        check_sd(lat.dual())


def test_extremal_and_kappa_bar_d_match_oracles(small_sd_lattices):
    # is_extremal is a height test and kappa_bar_d inverts kappa_bar; the
    # oracles search for a label-exhausting chain and scan the up-masks
    lattices = [S.generate(name) for name in ("fig1", "fig4", "diamond")]
    for family, top in (("tamari", 7), ("boolean", 5), ("chain", 7)):
        lattices += [S.generate(family, n) for n in range(top + 1)]
    lattices += [S.generate("chain", 1200)] + small_sd_lattices
    for seed, max_mid, draws in ((1, 8, 64), (5, 8, 50), (2, 6, 200), (3, 7, 100)):
        rng = random.Random(seed)
        lattices += [S.random_sd_lattice(rng=rng, max_mid=max_mid) for _ in range(draws)]
    lattices += [lat.dual() for lat in lattices]
    extremal = 0
    for lat in lattices:
        assert S.is_extremal(lat) == is_extremal_oracle(lat)
        kbar_d = kappa_bar_d_map(lat)
        assert kbar_d == kappa_bar_d_oracle(lat) and list(kbar_d) == list(lat.names)
        extremal += S.is_extremal(lat)
    assert 0 < extremal < len(lattices)
    with pytest.raises(NotSemidistributive):
        S.is_extremal(S.generate("m3"))


def test_clo_up_outside_the_lattice_order():
    # cloUp need not be contained in the order of L, so L's indexing is not
    # always a linear extension of it (two random_sd_lattice draws)
    for text in CLO_UP_OUTSIDE:
        lat = lattice_from_cover_text(text)
        check_sd_lattice(lat)
        assert any(lat.index[a] > lat.index[b] for a, b in S.clo_up(lat).relation_pairs())


def test_orders_report_matches_oracle(small_sd_lattices):
    rng = random.Random(1)
    el_search_pool = [S.random_sd_lattice(rng=rng, max_mid=8) for _ in range(24)]
    lattices = sd_family_lattices() + [S.generate(f, n) for f, n in FAMILIES]
    lattices += [lattice_from_cover_text(text) for text in CLO_UP_OUTSIDE]
    lattices += small_sd_lattices + el_search_pool
    separated = set()
    for lat in lattices:
        report = S.orders_coincide_report(lat)
        assert report == orders_coincide_report_oracle(lat)
        separated |= {name for name, value in vars(report).items() if value not in (True, None)}
    # every flag is false, and every witness set, somewhere
    assert len(separated) == 6


def test_derived_orders_equal_exactly_when_their_masks_are(small_sd_lattices):
    # the closed form of orders_coincide_report: each family gives every
    # j in J the mask {j}, so an order determines its masks, and a flag
    # is true exactly when its witness is None
    lattices = [S.generate(name) for name in ("fig1", "fig4", "diamond")]
    for family, top in (("tamari", 6), ("boolean", 4), ("chain", 6)):
        lattices += [S.generate(family, n) for n in range(top + 1)]
    lattices += [lattice_from_cover_text(text) for text in CLO_UP_OUTSIDE] + small_sd_lattices
    for seed, max_mid, draws in ((1, 8, 64), (2, 6, 200), (3, 7, 100)):
        rng = random.Random(seed)
        lattices += [S.random_sd_lattice(rng=rng, max_mid=max_mid) for _ in range(draws)]
    lattices += [lat.dual() for lat in lattices]
    differ = 0
    for lat in lattices:
        masks = {"kappa": w_map(lat), "cloDown": lab_down_map(lat), "cloUp": lab_up_map(lat)}
        for labels in masks.values():
            assert all(labels[j] == {j} for j in irreducible_table(lat).cji)
        orders = {"kappa": S.kappa_order(lat), "cloDown": S.clo_down(lat), "cloUp": S.clo_up(lat)}
        relations = {which: order.relation_pairs() for which, order in orders.items()}
        report = S.orders_coincide_report(lat)
        for flag, witness, left, right in (
            (report.kappa_equals_clo_down, report.witness_kappa_clo_down, "kappa", "cloDown"),
            (report.kappa_equals_clo_up, report.witness_kappa_clo_up, "kappa", "cloUp"),
            (report.clo_up_equals_clo_down, report.witness_clo_up_clo_down, "cloUp", "cloDown"),
        ):
            assert flag == (witness is None) == (relations[left] == relations[right])
            differ += not flag
    assert differ > 0


def test_derived_orders_that_are_not_lattices():
    seen = 0
    for lat in [S.generate("fig1"), S.generate("fig4")] + _random_pool():
        for order in (S.kappa_order(lat), S.clo_down(lat), S.clo_up(lat)):
            check_poset(order)
            seen += not order.is_lattice()
    assert seen >= 2


def _derived_order_lattices():
    lattices = [S.generate(family, n) for family, n in FAMILIES] + sd_family_lattices()
    for seed, max_mid in ((1, 8), (2, 9), (3, 7)):
        lattices += random_pool(seed, max_mid, 300)
    return lattices + [lat.dual() for lat in lattices]


def test_lattice_test_on_masks_matches_lattice_failure():
    # the lemma in the cores docstring: a derived order is a lattice exactly
    # when it is bounded and the masks of two lower covers of a common
    # element meet in a mask of the order; lattice_failure is the oracle
    seen = set()
    for lat in _derived_order_lattices():
        orders = {"kappaOrder": S.kappa_order(lat), "cloDown": S.clo_down(lat), "cloUp": S.clo_up(lat)}
        for kind, order in orders.items():
            verdict = order._lattice_on_masks()
            assert verdict == order.is_lattice() == (order.lattice_failure() is None), (kind, lat.names)
            seen.add((kind, verdict))
    # each order is a lattice on some of these and not on others
    assert len(seen) == 6
    fig4 = S.generate("fig4")
    verdicts = [order.is_lattice() for order in (S.kappa_order(fig4), S.clo_down(fig4), S.clo_up(fig4))]
    assert verdicts == [True, False, False]


def test_tables_match_per_call_formulas():
    # core_data, cjr and cmr read per-lattice tables; the oracles work one
    # element out on its own, with a label per cover and views built
    # through names
    lattices = [S.generate(family, n) for family, n in FAMILIES] + sd_family_lattices()
    lattices += random_pool(1, 8, 300)[:100]
    lattices += [lat.dual() for lat in lattices]

    def plain(data, lat):
        fields = dict(vars(data))
        for key in ("core_down", "core_up"):
            view = fields[key]
            fields[key] = (view.lo, view.hi, view.mask, view.members, view.parent is lat)
        return fields

    for lat in lattices:
        for x in lat.names:
            assert S.cjr(lat, x) == cjr_per_call(lat, x)
            assert S.cmr(lat, x) == cmr_per_call(lat, x)
            assert plain(S.core_data(lat, x), lat) == plain(core_data_per_call(lat, x), lat)


def test_m3_and_n5():
    # M3 is not semidistributive; N5 is, though it is not modular
    m3, n5 = S.generate("m3"), _n5()
    for lat in (m3, n5):
        check_poset(lat)
        check_sd(lat)
        assert lat.is_semidistributive() == sd_exponential_oracle(lat)
    assert not m3.is_semidistributive()
    check_sd_lattice(n5)


def test_join_meet_read_off_masks():
    for lat in [S.generate("fig4"), _n5(), S.generate("m3")] + _random_pool()[:10]:
        for a, b in itertools.product(lat.names, repeat=2):
            ups = [z for z in lat.names if lat.leq(a, z) and lat.leq(b, z)]
            downs = [z for z in lat.names if lat.leq(z, a) and lat.leq(z, b)]
            assert lat.join(a, b) == _unique_extremum(lat, ups, True)
            assert lat.meet(a, b) == _unique_extremum(lat, downs, False)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(posets())
def test_drawn_posets_match_oracles(poset):
    check_drawn_poset(poset)


def test_rejected_candidates_match_oracles():
    rng = random.Random(3)
    rejected = 0
    for _ in range(1500):
        poset = ranked_poset(rng.randint)
        rejected += check_drawn_poset(poset) == "not a lattice"
    assert rejected >= 100


def test_generator_candidates_match_mask_kernels(monkeypatch):
    # every candidate random_sd_lattice draws on the el-search stream, 4531
    # in the first 16 draws: its cover masks are the msb walk's lower
    # covers, and its one test agrees with the core kernels
    tested = []

    def checked(down, cov):
        meets, kappa_args = mask_kernels(down)
        assert cov == cover_masks(kappa_args[2])
        verdict = _is_sd_candidate(down, cov)
        assert verdict == (meets and _kappa_maps(*kappa_args) is not None)
        tested.append(verdict)
        return verdict

    monkeypatch.setattr(S.generators, "_is_sd_candidate", checked)
    rng = random.Random(1)
    for _ in range(16):
        S.random_sd_lattice(rng=rng, max_mid=8)
    assert tested.count(True) == 16 and len(tested) == 4531


@pytest.mark.parametrize("module", sorted(path.name for path in SRC.glob("*.py")))
def test_no_assert_statements(module):
    # python -O strips asserts, so validation in sdlat must raise
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{module} has assert statements on lines {lines}"


@pytest.mark.parametrize("module", sorted(path.name for path in SRC.glob("*.py")))
def test_no_from_leq_calls(module):
    # from_leq is an O(n^2) predicate builder kept in tests/oracles.py as an
    # oracle; library paths build orders from masks or covers
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "from_leq"
    ]
    assert lines == [], f"{module} calls from_leq on lines {lines}"


def test_sequences_names_no_kappa_bar_helper():
    # the clo-up labeling reads the mask table and names kappa_bar only on
    # its error path, through the public kappa_bar; taking kappa_bar for
    # every member of a node is the slower step kept in tests/oracles.py
    tree = ast.parse((SRC / "sequences.py").read_text(encoding="utf-8"))
    helpers = {"_kappa_bar_idx", "_kappa_bar_within", "kappa_bar_map"}
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if {getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)} & helpers
    ]
    assert lines == [], f"sequences.py names a kappa_bar helper on lines {lines}"


def test_kappa_read_off_one_table():
    # kappa on indices lives in Lattice._kappa_maps (core.py); the library
    # reads it through the label context, so in irreducibles.py only
    # irreducible_table and _label_context name it, and no _kappa memo or
    # second kappa_bar_d is left anywhere (random_sd_lattice tests its
    # candidates with its own mask test, which the tests hold to the kernels)
    owners = {"irreducibles.py": {"irreducible_table", "_label_context"}}
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "core.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = {
            id(sub)
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name in owners.get(path.name, ())
            for sub in ast.walk(node)
        }
        lines = []
        for node in ast.walk(tree):
            named = {getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)}
            if ("_kappa_maps" in named and id(node) not in inside) or named & {"_kappa", "_kappa_bar_d_within"}:
                lines.append(node.lineno)
        if lines:
            found[path.name] = lines
    assert found == {}, f"kappa read outside the label context: {found}"


def test_covers_named_only_where_name_order_comes_out():
    # covers_named sorts every cover by name on each call; src calls it only
    # where that order is the output (document and orders listings and the
    # clo-up labels), and walks index covers elsewhere
    owners = {
        "sequences.py": {"label_clo_up"},
        "jsonio.py": {"to_document"},
        "cli.py": {"_cmd_orders"},
    }
    found = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = {
            id(sub)
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name in owners.get(path.name, ())
            for sub in ast.walk(node)
        }
        lines = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "covers_named" and id(node) not in inside
        ]
        if lines:
            found[path.name] = lines
    assert found == {}, f"covers_named called outside its owners: {found}"


def test_sequences_steps_to_a_child_in_one_place():
    # the n-bit child step (a v j, then pop_up inside the node) lives in
    # _child alone, and cover labels come off the mask table, not off
    # lower covers, so one context can replace the step
    tree = ast.parse((SRC / "sequences.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    in_child = {id(sub) for sub in ast.walk(functions["_child"])}
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id in {"_lsb", "_pop_up_idx"} and id(node) not in in_child
    ]
    assert lines == [], f"sequences.py steps to a child outside _child on lines {lines}"
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    used |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not used & {"_j_label_idx", "_dcov"}, "sequences.py reads lower covers or scans for a cover label"


@pytest.mark.parametrize("module", sorted(path.name for path in SRC.glob("*.py")))
def test_no_indented_json_dumps(module):
    # json.dumps with an indent runs the pure-Python encoder; indented JSON
    # has one writer, jsonio.dumps_indented
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "dumps"
        and any(keyword.arg == "indent" for keyword in node.keywords)
    ]
    assert lines == [], f"{module} calls json.dumps with an indent on lines {lines}"


def _memo_owners(tree):
    """memoized itself, and the two places that create a memo dict: Poset.__init__ and DerivedPoset._from_masks."""
    creators = {"Poset": "__init__", "DerivedPoset": "_from_masks"}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == "memoized":
            yield node
        if isinstance(node, ast.ClassDef) and node.name in creators:
            yield from (f for f in node.body if isinstance(f, ast.FunctionDef) and f.name == creators[node.name])


@pytest.mark.parametrize("module", sorted(path.name for path in SRC.glob("*.py")))
def test_memo_only_through_memoized(module):
    # one memo mechanism per lattice: everything else caches with @memoized
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    allowed = {id(node) for owner in _memo_owners(tree) for node in ast.walk(owner)}
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "memo" and id(node) not in allowed
    ]
    assert lines == [], f"{module} reads .memo outside memoized on lines {lines}"


def _calls_outside(tree, callees, owner):
    """Lines of calls to a name or attribute in ``callees``, such as ``Lattice(...)`` or ``cls.__new__(...)``, outside every function named ``owner``."""
    inside = {
        id(sub)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == owner
        for sub in ast.walk(node)
    }
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) in callees
        and id(node) not in inside
    ]


@pytest.mark.parametrize("module", sorted(path.name for path in SRC.glob("*.py")))
def test_orders_built_only_through_the_indexer(module):
    # two builders for every order: only Poset._from_cover_pairs calls
    # cls(...), and nothing calls Poset, Lattice or DerivedPoset directly,
    # random_sd_lattice included, which tests its drawn candidates on the
    # masks of the draw and builds only the one it accepts; only the mask
    # builder DerivedPoset._from_masks makes an instance with __new__
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    lines = _calls_outside(tree, {"cls", "Poset", "Lattice", "DerivedPoset"}, "_from_cover_pairs")
    lines += _calls_outside(tree, {"__new__"}, "_from_masks")
    assert lines == [], f"{module} builds an order outside the indexer on lines {lines}"
    if module == "cores.py":
        assert len(_calls_outside(tree, {"__new__"}, "_from_cover_pairs")) == 1


def test_shelling_reads_labels_only_at_the_boundary():
    # LabeledPoset.__post_init__ turns each cover's label name into its
    # position in the alphabet, and __reduce__ hands the names to pickle and
    # copy; the verifier and the search read positions
    tree = ast.parse((SRC / "shelling.py").read_text(encoding="utf-8"))
    (owner,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "LabeledPoset"]
    inside = {
        id(sub)
        for node in owner.body
        if isinstance(node, ast.FunctionDef) and node.name in ("__post_init__", "__reduce__")
        for sub in ast.walk(node)
    }
    reads = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "labels"]
    assert reads and all(id(node) in inside for node in reads), [node.lineno for node in reads]
