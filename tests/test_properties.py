"""Hypothesis properties: the JSON writer, the JSON round trip and the dual identities.

Lattices are drawn two ways, each on drawn names: random semidistributive
lattices from a drawn seed and size, and the ranked posets of
``conftest.posets`` that happen to be lattices, some of which are not
semidistributive.  The indented-JSON writer is checked against
``json.dumps`` on drawn nested values.
"""

import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sdlat as S
from sdlat import LatticeError
from sdlat.irreducibles import kappa_bar_d_map, kappa_bar_map
from sdlat.jsonio import dumps_indented, emit_json, parse_json, to_document

from conftest import posets

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None)


@st.composite
def renamed(draw, source):
    """A poset drawn from ``source`` as a lattice on drawn names, so name order says nothing."""
    poset = draw(source)
    fresh = dict(zip(poset.names, draw(st.permutations([f"v{i}" for i in range(len(poset))]))))
    covers = [(fresh[a], fresh[b]) for a, b in poset.covers_named()]
    return S.Lattice.build_from_covers(sorted(fresh.values()), covers)


sd_lattices = renamed(
    st.builds(
        lambda seed, max_mid: S.random_sd_lattice(seed=seed, max_mid=max_mid),
        st.integers(0, 2**32 - 1),
        st.integers(0, 8),
    )
)

drawn_lattices = renamed(posets().filter(lambda poset: poset.is_lattice_poset()))


# quotes, backslashes, control characters and non-ASCII letters, or any character
json_text = st.text(st.sampled_from('"\\\x00\x1f\n\t\x7f éß€😀') | st.characters(), max_size=6)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**80), 2**80) | json_text,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(json_text, inner, max_size=4),
    max_leaves=25,
)


@SETTINGS
@given(json_values, st.booleans())
def test_dumps_indented_matches_json_dumps(value, sort_keys):
    assert dumps_indented(value, sort_keys=sort_keys) == json.dumps(value, indent=2, sort_keys=sort_keys)


@pytest.mark.parametrize("sort_keys", [False, True])
@pytest.mark.parametrize("value", [1.0, [1, {"a": 0.5}], {1}, {1: "a"}, {"a": {True: None}}])
def test_dumps_indented_rejects_other_types(value, sort_keys):
    # json.dumps writes these, and a lookup on the value would write 1.0 as true
    with pytest.raises(TypeError):
        dumps_indented(value, sort_keys=sort_keys)


def _round_trip(obj):
    return parse_json(emit_json(to_document(obj)))


@SETTINGS
@given(st.one_of(sd_lattices, drawn_lattices))
def test_json_round_trip_keeps_lattices(lattice):
    back = _round_trip(lattice)
    assert isinstance(back, S.Lattice)
    assert back.names == lattice.names
    assert back.covers_named() == lattice.covers_named()


@SETTINGS
@given(sd_lattices)
def test_json_round_trip_keeps_clo_up_labelings(lattice):
    # the document of a labeled cloUp reads back as a lattice indexed by
    # (height, name), the indexing every derived order is built in
    try:
        labeled = S.label_clo_up(lattice).to_labeled_poset()
    except LatticeError:
        assume(False)
    assume(labeled.poset.is_lattice())
    back = _round_trip(labeled)
    assert back.poset.names == labeled.poset.names
    assert back.poset.covers_named() == labeled.poset.covers_named()
    assert back.labels == labeled.labels


@SETTINGS
@given(sd_lattices)
def test_kappa_bar_maps_are_inverse(lattice):
    kbar, kbar_d = kappa_bar_map(lattice), kappa_bar_d_map(lattice)
    assert all(kbar_d[kbar[x]] == x for x in lattice.names)
    assert all(kbar[kbar_d[x]] == x for x in lattice.names)


@SETTINGS
@given(st.one_of(sd_lattices, drawn_lattices))
def test_semidistributivity_is_self_dual(lattice):
    dual = lattice.dual()
    assert dual.is_semidistributive() == lattice.is_semidistributive()
    if lattice.is_semidistributive():
        table, dual_table = S.irreducible_table(lattice), S.irreducible_table(dual)
        assert dual_table.kappa == table.kappa_d and dual_table.kappa_d == table.kappa
        assert kappa_bar_map(dual) == kappa_bar_d_map(lattice)
