import itertools
import random

import pytest

import sdlat as S


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
