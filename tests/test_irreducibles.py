import cmath
import collections
import dataclasses
import itertools
import math

import pytest

import sdlat as S
from sdlat import Lattice, NoUniqueMax, NotACover, NotComparable, NotSemidistributive
from sdlat.irreducibles import _cover_label_masks, _label_context

from conftest import odd_names, random_pool, record_calls, sd_family_lattices
from oracles import as_lattice, interval_cji_transfer, kappa_bar_cycles_oracle, kappa_bar_orbit_sizes, q_catalan_at


def test_fig1_table(fig1):
    table = S.irreducible_table(fig1)
    assert table.cji == ("j1", "j2", "j3", "j4")
    assert table.cmi == ("j3", "m1", "m2", "m3")
    assert table.kappa == {"j1": "m1", "j2": "m2", "j3": "m3", "j4": "j3"}
    assert table.jstar["j4"] == "j3"
    assert table.mstar["j3"] == "j4"


def test_three_chain_table():
    lat = Lattice.build_from_covers(["bot", "a", "top"], [("bot", "a"), ("a", "top")])
    table = S.irreducible_table(lat)
    assert table.cji == ("a", "top")
    assert table.kappa == {"a": "bot", "top": "a"}
    assert table.kappa_d == {"bot": "a", "a": "top"}


def test_table_requires_semidistributivity():
    with pytest.raises(NotSemidistributive):
        S.irreducible_table(S.generate("m3"))


def test_kappa_maps_inverse(small_sd_lattices):
    for lat in sd_family_lattices() + small_sd_lattices:
        table = S.irreducible_table(lat)
        for j in table.cji:
            assert table.kappa_d[table.kappa[j]] == j
        for m in table.cmi:
            assert table.kappa[table.kappa_d[m]] == m


def test_j_label_cover_golden(fig1):
    assert S.j_label_cover(fig1, "j4", "m1") == "j2"
    assert S.m_label_cover(fig1, "j4", "m1") == "m2"
    table = S.irreducible_table(fig1)
    for j in table.cji:
        assert S.j_label_cover(fig1, table.jstar[j], j) == j
    with pytest.raises(NotACover):
        S.j_label_cover(fig1, "bot", "m1")


def test_cover_label_five_conditions(small_sd_lattices):
    # For a cover (u, v) labeled j: u v j = v, u ^ j = j_*, v ^ kappa(j) = u,
    # v v kappa(j) = kappa(j)^*, and the meet label is kappa(j).
    for lat in sd_family_lattices() + small_sd_lattices[:25]:
        table = S.irreducible_table(lat)
        labeling = S.cover_labeling(lat)
        for (u, v), j in labeling.jlabel.items():
            kj = table.kappa[j]
            assert labeling.mlabel[(u, v)] == kj
            assert lat.join(u, j) == v
            assert lat.meet(u, j) == table.jstar[j]
            assert lat.meet(v, kj) == u
            assert lat.join(v, kj) == table.mstar[kj]


def test_j_label_interval_golden(fig1):
    assert S.j_label_interval(fig1, "j4", "top") == ("j1", "j2")
    assert S.j_label_interval(fig1, "m1", "m1") == ()
    assert S.j_label_interval(fig1, "bot", "top") == ("j1", "j2", "j3", "j4")
    with pytest.raises(NotComparable):
        S.j_label_interval(fig1, "m1", "j1")


def test_j_label_interval_matches_cover_scan(small_sd_lattices):
    for lat in sd_family_lattices() + small_sd_lattices[:25]:
        labeling = S.cover_labeling(lat)
        for lo, hi in itertools.product(lat.names, repeat=2):
            if not lat.leq(lo, hi):
                continue
            view = lat.interval(lo, hi)
            direct = {
                labeling.jlabel[(u, v)]
                for u, v in lat.covers_named()
                if u in view and v in view
            }
            assert set(S.j_label_interval(lat, lo, hi)) == direct


def test_transfer_golden(fig1):
    assert interval_cji_transfer(fig1, "j4", "top") == {"j1": "m2", "j2": "m1"}
    assert interval_cji_transfer(fig1, "m1", "m1") == {}
    assert interval_cji_transfer(fig1, "j3", "j4") == {"j4": "j4"}


def test_transfer_preserves_labels(fig1, small_sd_lattices):
    # The label of a cover inside [lo, hi], computed in the interval
    # sublattice, is lo v (label computed in the ambient lattice).
    for lat in [fig1] + small_sd_lattices[:15]:
        labeling = S.cover_labeling(lat)
        for lo, hi in itertools.product(lat.names, repeat=2):
            if not lat.leq(lo, hi) or lo == hi:
                continue
            sub = as_lattice(lat.interval(lo, hi))
            for u, v in sub.covers_named():
                inner = S.j_label_cover(sub, u, v)
                outer = labeling.jlabel[(u, v)]
                assert inner == lat.join(lo, outer)


def test_kappa_bar_golden(fig1):
    assert S.kappa_bar_cycles(fig1) == "(bot,top)(j1,m1)(j2,m2)(j3,m3,j4)"
    assert S.kappa_bar(fig1, "bot") == "top"
    # inverting the cycle (j3, m3, j4) sends j3 to j4
    assert S.kappa_bar(fig1, "j4") == "j3"
    assert S.kappa_bar_d(fig1, "j3") == "j4"


def test_kappa_bar_d_inverts(small_sd_lattices):
    for lat in sd_family_lattices() + small_sd_lattices:
        for x in lat.names:
            assert S.kappa_bar_d(lat, S.kappa_bar(lat, x)) == x


def test_kappa_bar_cycles_match_the_name_map_walk(small_sd_lattices):
    # the cycles are walked on _kappa_bar_idx; the oracle walks the name map
    lattices = sd_family_lattices() + [S.generate("tamari", n) for n in (4, 5, 6)] + [S.generate("boolean", 4)]
    lattices += [odd_names(S.generate(*family)) for family in (("fig1",), ("fig4",), ("tamari", 4))]
    pool = small_sd_lattices + list(random_pool(1, 8, 300)[:100])
    lattices += pool + [lat.dual() for lat in pool]
    for lat in lattices:
        assert S.kappa_bar_cycles(lat) == kappa_bar_cycles_oracle(lat)


def _rowmotion_fixed_points(lattice, d):
    """The fixed points of kappa_bar^d: the total size of the orbits whose size divides d."""
    return sum(size for size in kappa_bar_orbit_sizes(lattice) if d % size == 0)


def _order(lattice):
    return math.lcm(*kappa_bar_orbit_sizes(lattice))


@pytest.mark.parametrize("n", range(2, 10))
def test_rowmotion_on_tamari_has_order_2n_and_sieves_q_catalan(n):
    # tamari(n) is the Cambrian lattice of type A_(n-1), Coxeter number n:
    # kappa_bar^(2n) = id, of exact order 2n for n >= 3, and kappa_bar^d fixes
    # Cat(A_(n-1); q) elements at q = exp(2 pi i d / 2n), for every d < 2n
    # (cyclic sieving: Armstrong-Stump-Thomas, Trans. AMS 2013, via
    # Thomas-Williams, "Rowmotion in slow motion", Proc. LMS 2019; references
    # not checked, and the numbers hold whatever the citation)
    lattice = S.generate("tamari", n)
    assert _order(lattice) == (2 if n == 2 else 2 * n)
    for d in range(2 * n):
        q = cmath.exp(2j * cmath.pi * d / (2 * n))
        assert abs(q_catalan_at(n, q) - _rowmotion_fixed_points(lattice, d)) < 1e-6, d


@pytest.mark.parametrize("n", range(0, 7))
def test_rowmotion_on_boolean_is_an_involution_that_sieves(n):
    # boolean(n) is of type A_1^n with Coxeter number 2: order 2 (1 on one
    # element), and (1 + q^2)^n fixed points at q = i^d
    lattice = S.generate("boolean", n)
    assert _order(lattice) == (1 if n == 0 else 2)
    for d in range(4):
        assert abs((1 + 1j ** (2 * d)) ** n - _rowmotion_fixed_points(lattice, d)) < 1e-6, d


def test_rowmotion_orbits_of_tamari_9():
    assert collections.Counter(kappa_bar_orbit_sizes(S.generate("tamari", 9))) == {2: 1, 6: 3, 9: 14, 18: 262}


def test_interval_labels_contain_cjr(fig1, small_sd_lattices):
    for lat in [fig1] + small_sd_lattices[:20]:
        for x in lat.names:
            labels = set(S.j_label_interval(lat, lat.bottom, x))
            assert set(S.cjr(lat, x).joinands) <= labels


def test_label_context_waits_for_its_first_reader():
    # parsing and the irreducible table do not build the label context; the
    # first label reader, kappa_bar_cycles here, does
    lattice = S.jsonio.parse_json(S.jsonio.emit_json(S.jsonio.to_document(S.generate("tamari", 4))))
    S.irreducible_table(lattice)

    def built():
        return any(getattr(key, "__name__", None) == "_label_context" for key in lattice.memo)

    assert not built()
    S.irreducibles.kappa_bar_cycles(lattice)
    assert built()


def test_cover_labeling_reads_the_checked_label_masks():
    # a label context that leaves some cover with no single label makes
    # cover_labeling raise the NoUniqueMax of _cover_label_masks, for the
    # same first cover
    def outcome(reader, u, spoiled):
        lattice = S.generate("fig4")
        context = _label_context(lattice)
        jabove = list(context.jabove)
        jabove[u] = spoiled
        (key,) = [key for key in lattice.memo if key.__name__ == "_label_context"]
        lattice.memo[key] = dataclasses.replace(context, jabove=jabove)
        try:
            reader(lattice)
        except NoUniqueMax as exc:
            return str(exc)

    fresh = S.generate("fig4")
    messages = set()
    for u in range(len(fresh)):
        for spoiled in (0, -1):  # no label, or every label below the upper cover, above u
            message = outcome(S.cover_labeling, u, spoiled)
            assert message == outcome(_cover_label_masks, u, spoiled)
            messages.add(message)
    assert len(messages - {None}) >= 8


def test_cover_labels_read_one_table(monkeypatch):
    # a one-cover query reads the label context alone and builds no name map;
    # kappa lives on lattices, so a derived order carries no kappa memo
    fig1_text = S.jsonio.emit_json(S.jsonio.to_document(S.generate("fig1")))
    calls = record_calls(monkeypatch, S.irreducibles, ["irreducible_table", "cover_labeling"])
    for query, expected in ((S.j_label_cover, "j2"), (S.m_label_cover, "m2")):
        lattice = S.jsonio.parse_json(fig1_text)
        assert query(lattice, "j4", "m1") == expected
    assert calls == []
    S.irreducibles.irreducible_table(lattice)
    assert calls == ["irreducible_table"]
    derived = S.clo_up(S.generate("fig1"))
    assert not hasattr(derived, "_kappa_maps")
