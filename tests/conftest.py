import functools
import itertools
import random

import pytest
from hypothesis import strategies as st

import sdlat as S

from oracles import from_leq


@pytest.fixture(scope="session")
def fig1():
    return S.generate("fig1")


@pytest.fixture(scope="session")
def fig4():
    return S.generate("fig4")


@pytest.fixture(scope="session")
def preproj():
    return S.generate("preprojA2")


@pytest.fixture(scope="session")
def small_sd_lattices():
    """A reusable pool of random semidistributive lattices (2..8 elements)."""
    rng = random.Random(711)
    return [S.random_sd_lattice(rng=rng) for _ in range(60)]


def sd_family_lattices(max_size=12):
    """The built-in semidistributive families at small sizes."""
    out = [
        S.generate("fig1"),
        S.generate("fig4"),
        S.generate("diamond"),
        S.generate("boolean", 1),
        S.generate("boolean", 2),
        S.generate("boolean", 3),
        S.generate("tamari", 2),
        S.generate("tamari", 3),
    ]
    out += [S.generate("chain", n) for n in range(0, 6)]
    return [lat for lat in out if len(lat) <= max_size]


@functools.cache
def random_pool(seed, max_mid, count):
    """``count`` draws of ``random_sd_lattice`` from ``Random(seed)``, drawn once a session."""
    rng = random.Random(seed)
    return tuple(S.random_sd_lattice(rng=rng, max_mid=max_mid) for _ in range(count))


# Two random_sd_lattice draws whose cloUp is not contained in the order of L,
# so L's indexing is not a linear extension of it; each is a list of covers.
CLO_UP_OUTSIDE = [
    "bot<e0 bot<e1 bot<e2 e0<e4 e0<e5 e1<e3 e1<e4 e2<e3 e2<e5 e3<e6 e4<e8 e5<e7 e6<top e7<top e8<top",
    "bot<e0 bot<e1 bot<e2 e0<e4 e1<e3 e1<e6 e2<e3 e2<e5 e3<e7 e4<e5 e4<e6 e5<top e6<top e7<top",
]


# Two lattices made by Day's interval doubling (duals of the draws from
# seeds 120 and 131 of the doubling recipe), each a list of covers: SD of
# 19 and 12 elements, where the clo-up labeling exists and cloUp is a
# lattice, yet the chain words miss a maximal kappa_d sequence and the
# restricted order search finds no EL order.
DOUBLED_19 = (
    "e1<e0 e10<e3 e10<e8 e11<e1 e11<e8 e12<e4 e13<e10 e13<e11 e13<e5 e14<e10 e14<e6 e14<e9 e15<e7 "
    "e16<e11 e16<e12 e16<e9 e17<e12 e17<e15 e18<e13 e18<e14 e18<e16 e18<e17 e2<e0 e3<e0 e4<e1 e4<e2 "
    "e5<e1 e5<e3 e6<e2 e6<e3 e7<e4 e7<e5 e7<e6 e8<e0 e9<e2 e9<e8"
)
DOUBLED_12 = (
    "e1<e0 e10<e6 e10<e8 e11<e10 e11<e7 e11<e9 e2<e0 e3<e1 e3<e2 e4<e0 e5<e1 e5<e4 e6<e4 e7<e3 e8<e5 "
    "e9<e2 e9<e6"
)


# Two SD lattices made by Day's interval doubling, each a list of covers, on
# which label_clo_up and the clo-up recursion of the oracles disagree: on 12
# elements both fail with different messages, and on 22 elements only the
# recursion fails (ROADMAP.md, item 24).
CLO_UP_SPLIT_12 = (
    "e0<e1 e0<e2 e0<e5 e1<e3 e1<e6 e10<e11 e2<e3 e2<e8 e3<e4 e3<e7 e4<e10 e5<e6 e5<e8 e6<e9 e7<e10 "
    "e8<e11 e9<e11"
)
CLO_UP_SPLIT_22 = (
    "e0<e1 e0<e12 e0<e2 e0<e3 e1<e14 e1<e4 e1<e6 e10<e11 e10<e19 e11<e17 e12<e13 e12<e14 e12<e16 "
    "e13<e15 e13<e18 e14<e15 e14<e19 e15<e21 e16<e18 e16<e19 e17<e21 e18<e21 e19<e20 e2<e13 e2<e4 "
    "e2<e5 e20<e21 e3<e5 e3<e6 e3<e7 e4<e15 e4<e9 e5<e8 e5<e9 e6<e10 e6<e9 e7<e10 e7<e16 e7<e8 e8<e11 "
    "e8<e18 e9<e11"
)


def lattice_from_cover_text(text):
    """The lattice on the names of ``lo<hi`` pairs separated by spaces."""
    covers = [tuple(pair.split("<")) for pair in text.split()]
    return S.Lattice.build_from_covers(sorted({x for c in covers for x in c}), covers)


def odd_names(lattice):
    """``lattice`` with each name x renamed to 'x "é\\'."""
    fresh = {x: f'{x} "\u00e9\\' for x in lattice.names}
    covers = [(fresh[a], fresh[b]) for a, b in lattice.covers_named()]
    return S.Lattice.build_from_covers([fresh[x] for x in lattice.names], covers)


def record_calls(monkeypatch, cls, names):
    """Record each call of the named methods of ``cls``, or functions of a module, in order, and let it through."""
    calls = []
    for name in names:
        raw = cls.__dict__[name]
        wrap = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if wrap else raw

        def wrapper(*args, name=name, fn=fn):
            calls.append(name)
            return fn(*args)

        monkeypatch.setattr(cls, name, wrap(wrapper) if wrap else wrapper)
    return calls


def sd_exponential_oracle(lattice):
    """Literal complete-semidistributivity check over every subset."""
    names = lattice.names
    for x in names:
        for r in range(1, len(names) + 1):
            for group in itertools.combinations(names, r):
                joins = {lattice.join(x, y) for y in group}
                if len(joins) == 1:
                    target = joins.pop()
                    if lattice.join(x, lattice.meet_set(group)) != target:
                        return False
                meets = {lattice.meet(x, y) for y in group}
                if len(meets) == 1:
                    target = meets.pop()
                    if lattice.meet(x, lattice.join_set(group)) != target:
                        return False
    return True


def transitive_reduction_from_order(lattice):
    """Recompute the covers of a poset straight from its order relation."""
    names = lattice.names
    covers = []
    for a in names:
        for b in names:
            if a == b or not lattice.leq(a, b):
                continue
            if not any(
                lattice.leq(a, z) and lattice.leq(z, b)
                for z in names
                if z not in (a, b)
            ):
                covers.append((a, b))
    return tuple(sorted(covers))


def four_condition_flags(lattice, group):
    """The four equivalent characterizations of a canonical join representation."""
    group = tuple(sorted(group))
    x = lattice.join_set(group)
    table = S.irreducible_table(lattice)

    pairwise = all(
        lattice.leq(i, table.kappa[j]) for i in group for j in group if i != j
    )

    antichain = all(
        not lattice.leq(a, b) and not lattice.leq(b, a)
        for a, b in itertools.combinations(group, 2)
    )
    cover_labels = {S.j_label_cover(lattice, u, x) for u in lattice.lower_covers(x)}
    labels_covers = antichain and all(j in cover_labels for j in group)

    from oracles import cjr_oracle, irredundant_representations

    found = cjr_oracle(lattice, x)
    oracle_confirms = found is not None and found.joinands == group

    irredundant = irredundant_representations(lattice, x)
    is_irredundant = group in set(irredundant)
    refines_all = all(
        all(any(lattice.leq(a, b) for b in rep) for a in group) for rep in irredundant
    )
    refining = is_irredundant and refines_all

    return (pairwise, labels_covers, oracle_confirms, refining)


def ranked_poset(pick):
    """A ranked poset on up to 9 elements drawn through pick(lo, hi).

    It is usually bounded and often not a lattice, much like the
    candidates random_sd_lattice draws and rejects.
    """
    k = pick(0, 7)
    mids = [f"e{i}" for i in range(k)]
    ranks = sorted(pick(1, 3) for _ in range(k))
    names = (["bot"] if pick(0, 4) or k == 0 else []) + mids
    names += ["top"] if pick(0, 4) else []
    down = {a: {a} for a in names}
    for i, j in itertools.product(range(k), repeat=2):
        if ranks[i] < ranks[j] and pick(0, 1):
            down[mids[j]] |= down[mids[i]]
    if "bot" in names:
        for a in names:
            down[a].add("bot")
    if "top" in names:
        down["top"] = set(names)
    return from_leq(names, lambda a, b: a in down[b])


@st.composite
def posets(draw):
    return ranked_poset(lambda lo, hi: draw(st.integers(lo, hi)))
