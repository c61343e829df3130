"""Built-in example lattices and standard test families.

The two labeled running examples ship with their printed edge labels, which
are cross-validated against freshly computed labels at generation time; a
mismatch is a generator bug and raises immediately.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Optional, Union

from .core import Lattice, _cover_pairs_have_meets, _kappa_maps, _lower_covers, _union_above
from .errors import BadParameter, InconsistentLabels
from .irreducibles import _inherited_label_leq, irreducible_table, j_label_cover
from .shelling import LabeledPoset

_FIG1_COVERS = [
    ("bot", "j1"),
    ("bot", "j2"),
    ("bot", "j3"),
    ("j3", "j4"),
    ("j2", "m1"),
    ("j4", "m1"),
    ("j4", "m2"),
    ("j1", "m2"),
    ("j2", "m3"),
    ("j1", "m3"),
    ("m1", "top"),
    ("m2", "top"),
    ("m3", "top"),
]

_FIG1_LABELS = {
    ("bot", "j1"): "j1",
    ("bot", "j2"): "j2",
    ("bot", "j3"): "j3",
    ("j3", "j4"): "j4",
    ("j2", "m1"): "j3",
    ("j4", "m1"): "j2",
    ("j4", "m2"): "j1",
    ("j1", "m2"): "j3",
    ("j2", "m3"): "j1",
    ("j1", "m3"): "j2",
    ("m1", "top"): "j1",
    ("m2", "top"): "j2",
    ("m3", "top"): "j3",
}

_FIG4_LABELS = dict(_FIG1_LABELS)
del _FIG4_LABELS[("m3", "top")]
_FIG4_LABELS[("m3", "j5")] = "j5"
_FIG4_LABELS[("j5", "top")] = "j3"


def fig1() -> Lattice:
    """The nine-element running example."""
    names = ["bot", "j1", "j2", "j3", "j4", "m1", "m2", "m3", "top"]
    return Lattice.build_from_covers(names, _FIG1_COVERS)


def fig4() -> Lattice:
    """fig1 with one extra join-irreducible j5 spliced into m3 < top."""
    names = ["bot", "j1", "j2", "j3", "j4", "j5", "m1", "m2", "m3", "top"]
    covers = [c for c in _FIG1_COVERS if c != ("m3", "top")]
    covers += [("m3", "j5"), ("j5", "top")]
    return Lattice.build_from_covers(names, covers)


def _validated_labeling(lattice: Lattice, labels: dict) -> LabeledPoset:
    for (lo, hi), lbl in labels.items():
        recomputed = j_label_cover(lattice, lo, hi)
        if recomputed != lbl:
            raise InconsistentLabels(
                f"stored label {lbl!r} for cover ({lo!r}, {hi!r}) "
                f"disagrees with computed {recomputed!r}"
            )
    return LabeledPoset(
        poset=lattice,
        labels=dict(labels),
        alphabet=irreducible_table(lattice).cji,
        label_leq=_inherited_label_leq(lattice),
    )


def fig1_labeled() -> LabeledPoset:
    return _validated_labeling(fig1(), _FIG1_LABELS)


def fig4_labeled() -> LabeledPoset:
    return _validated_labeling(fig4(), _FIG4_LABELS)


def preproj_a2() -> LabeledPoset:
    """Six-element bounded lattice with four incomparable middle elements,
    labeled by module names; not semidistributive, used by the EL checker."""
    names = ["0", "add(P1)", "add(P2)", "add(S1)", "add(S2)", "mod"]
    labels = {
        ("0", "add(S2)"): "S1",
        ("add(S2)", "mod"): "P1",
        ("0", "add(P1)"): "P2",
        ("add(P1)", "mod"): "S1",
        ("0", "add(P2)"): "P1",
        ("add(P2)", "mod"): "S2",
        ("0", "add(S1)"): "S2",
        ("add(S1)", "mod"): "P2",
    }
    lattice = Lattice.build_from_covers(names, list(labels))
    return LabeledPoset(
        poset=lattice, labels=labels, alphabet=("P1", "P2", "S1", "S2")
    )


def chain(n: int) -> Lattice:
    """The chain with n covers (n + 1 elements c0 < ... < cn).

    Its down-set masks take about n^2/16 bytes and its up-set masks about
    n^2/8, so n is capped at 5000, about 5 MB in all.
    """
    if n < 0:
        raise BadParameter("chain length must be >= 0")
    if n > 5000:
        raise BadParameter("chain length must be at most 5000")
    names = [f"c{i}" for i in range(n + 1)]
    return Lattice.build_from_covers(names, [(f"c{i}", f"c{i+1}") for i in range(n)])


def boolean(n: int) -> Lattice:
    """The boolean lattice of subsets of n letters; empty set is named '0'."""
    if not 0 <= n <= 6:
        raise BadParameter("boolean rank must be between 0 and 6")
    letters = "abcdef"[:n]

    def name(mask: int) -> str:
        return "".join(letters[i] for i in range(n) if mask >> i & 1) or "0"

    covers = []
    for mask in range(1 << n):
        for i in range(n):
            if not mask >> i & 1:
                covers.append((name(mask), name(mask | 1 << i)))
    return Lattice.build_from_covers([name(m) for m in range(1 << n)], covers)


def diamond() -> Lattice:
    return Lattice.build_from_covers(
        ["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")]
    )


def m3() -> Lattice:
    """The five-element modular, non-semidistributive lattice."""
    return Lattice.build_from_covers(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")],
    )


@lru_cache(maxsize=None)
def _binary_trees(n: int) -> tuple:
    """All binary trees with n internal nodes, leaves as None."""
    if n == 0:
        return (None,)
    out = []
    for k in range(n):
        for left in _binary_trees(k):
            for right in _binary_trees(n - 1 - k):
                out.append((left, right))
    return tuple(out)


def _tree_name(tree) -> str:
    if tree is None:
        return "x"
    return "(" + _tree_name(tree[0]) + _tree_name(tree[1]) + ")"


def _right_rotations(tree):
    """Trees one rotation above: some ((A,B),C) subtree becomes (A,(B,C))."""
    if tree is None:
        return
    left, right = tree
    if left is not None:
        a, b = left
        yield (a, (b, right))
    for moved in _right_rotations(left):
        yield (moved, right)
    for moved in _right_rotations(right):
        yield (left, moved)


def tamari(n: int, max_n: int = 9) -> Lattice:
    """The rotation lattice on binary trees with n internal nodes.

    Bottom is the left comb; covers are single rotations, which the builder
    independently re-verifies to be a transitive reduction.
    """
    if not 0 <= n <= max_n:
        raise BadParameter(f"tamari size must be between 0 and {max_n}")
    trees = _binary_trees(n)
    names = [_tree_name(t) for t in trees]
    covers = []
    for tree, name in zip(trees, names):
        for above in _right_rotations(tree):
            covers.append((name, _tree_name(above)))
    return Lattice.build_from_covers(names, covers)


def random_sd_lattice(
    seed: Optional[int] = None,
    max_mid: int = 6,
    rng: Optional[random.Random] = None,
    max_tries: int = 20000,
) -> Lattice:
    """A random finite semidistributive lattice.

    Each attempt draws k middle elements e0..e(k-1) with sorted ranks in
    1..3 and an edge density, and proposes each edge ej -> ei from a lower
    to a higher rank with that probability, between a forced bottom and
    top.  The candidate is tested on bare bitmasks: indexed bot, e0..e(k-1),
    top (a linear extension, since edges rise in rank), ``down[i]`` is closed
    by OR-ing in ``down[j]`` for each picked edge in draw order, and the
    lower covers come from the msb walk of ``core._lower_covers``.  bot and
    top bound every candidate, so it is a lattice exactly when it passes
    ``core._cover_pairs_have_meets``, and then SD exactly when
    ``core._kappa_maps`` finds the kappa maps, as for a ``Lattice``.  A
    rejected candidate gets no names, no ``Poset`` and no error message.
    Only an accepted one is named and built through
    ``Lattice.build_from_covers``, which validates the Hasse diagram and
    indexes it canonically.

    The random calls are fixed: ``randint`` for the wanted size, then per
    attempt ``randint`` for k (only in the second half of ``max_tries``),
    k ``randint`` ranks, ``choice`` of the density and one ``random()`` per
    lower-rank pair in j order.  So a seed gives the same lattices, and
    leaves ``rng`` in the same state, as the predicate-built loop kept in
    the tests.  Raises BadParameter for ``max_mid < 0`` or
    ``max_tries < 1`` before any draw, and when the tries run out.
    """
    if max_mid < 0:
        raise BadParameter(f"max_mid must be >= 0, got {max_mid}")
    if max_tries < 1:
        raise BadParameter(f"max_tries must be >= 1, got {max_tries}")
    rng = rng if rng is not None else random.Random(seed)
    want = rng.randint(0, max_mid)
    for attempt in range(max_tries):
        # keep the drawn size for a while so large lattices are not starved
        k = want if attempt < max_tries // 2 else rng.randint(0, max_mid)
        ranks = sorted(rng.randint(1, 3) for _ in range(k))
        density = rng.choice((0.3, 0.5, 0.7))
        down = [1]
        for i in range(k):
            mask = 1 | 1 << (i + 1)
            for j in range(ranks.index(ranks[i])):  # the j with ranks[j] < ranks[i]: ranks are sorted
                if rng.random() < density:
                    mask |= down[j + 1]
            down.append(mask)
        down.append((1 << (k + 2)) - 1)
        dcov = _lower_covers(down)
        if not _cover_pairs_have_meets(down, dcov):
            continue
        ucov: list[list[int]] = [[] for _ in down]
        for i, lows in enumerate(dcov):
            for j in lows:
                ucov[j].append(i)
        if _kappa_maps(down, _union_above(ucov, [1 << i for i in range(k + 2)]), dcov, ucov) is not None:
            names = ("bot", *(f"e{i}" for i in range(k)), "top")
            covers = [(names[j], names[i]) for i, lows in enumerate(dcov) for j in lows]
            return Lattice.build_from_covers(names, covers)
    raise BadParameter("random_sd_lattice failed to find a lattice; widen max_tries")


_PLAIN = {
    "fig1": fig1,
    "fig4": fig4,
    "m3": m3,
    "diamond": diamond,
    "preprojA2": preproj_a2,
    "fig1-labeled": fig1_labeled,
    "fig4-labeled": fig4_labeled,
}

_SIZED = {"boolean": boolean, "chain": chain, "tamari": tamari}


def generate(family: str, n: Optional[int] = None) -> Union[Lattice, LabeledPoset]:
    """Dispatch a family name (and size, where one applies) to its generator."""
    if family in _PLAIN:
        if n is not None:
            raise BadParameter(f"family {family!r} takes no size parameter")
        return _PLAIN[family]()
    if family in _SIZED:
        if n is None:
            raise BadParameter(f"family {family!r} needs a size parameter")
        return _SIZED[family](n)
    raise BadParameter(f"unknown family {family!r}; known: {sorted(_PLAIN) + sorted(_SIZED)}")
