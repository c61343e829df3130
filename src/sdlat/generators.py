"""Built-in example lattices and standard test families.

The two labeled running examples ship with their printed edge labels, which
are checked at generation time against the one j-labeling that is built and
returned; a mismatch is a generator bug and raises immediately.  Their
covers are the keys of those label tables, so each cover is listed once.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Optional, Union

from .core import Lattice, _bits
from .errors import BadParameter, InconsistentLabels
from .shelling import LabeledPoset, lattice_j_labeling

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
    return Lattice.build_from_covers(names, list(_FIG1_LABELS))


def fig4() -> Lattice:
    """fig1 with one extra join-irreducible j5 spliced into m3 < top."""
    names = ["bot", "j1", "j2", "j3", "j4", "j5", "m1", "m2", "m3", "top"]
    return Lattice.build_from_covers(names, list(_FIG4_LABELS))


def _validated_labeling(lattice: Lattice, stored: dict) -> LabeledPoset:
    labeled = lattice_j_labeling(lattice)
    for cover, lbl in stored.items():
        if labeled.labels[cover] != lbl:
            raise InconsistentLabels(
                f"stored label {lbl!r} for cover {cover!r} disagrees with computed {labeled.labels[cover]!r}"
            )
    return labeled


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
    return LabeledPoset(poset=lattice, labels=labels)


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
    # each tree is named once; a rotation looks its name up
    named = {tree: _tree_name(tree) for tree in _binary_trees(n)}
    covers = [(name, named[above]) for tree, name in named.items() for above in _right_rotations(tree)]
    return Lattice.build_from_covers(list(named.values()), covers)


_DENSITIES = (0.3, 0.5, 0.7)


def _draw_candidate(getrandbits, draw, k: int) -> tuple[list[int], list[int]]:
    """Draw one candidate with k middle elements: its down-set and lower-cover masks.

    ``getrandbits`` and ``draw`` are a ``Random``'s bound ``getrandbits``
    and ``random``.  Elements are indexed bot, e0..e(k-1), top.  The k
    ranks and the density index are each ``getrandbits(2)``, drawn again
    on 3; then middle i picks each lower-ranked middle j, in j order, when
    ``draw()`` falls below the density.  Its down-set is the union of the
    picked down-sets with itself and bot, and its lower covers are the
    picked elements that lie strictly below no other picked one, or bot
    when it picked none.  The lower covers of top are the middles below no
    other middle, or bot when k is 0.
    """
    counts = [0, 0, 0]
    for _ in range(k):
        r = getrandbits(2)
        while r == 3:
            r = getrandbits(2)
        counts[r] += 1
    d = getrandbits(2)
    while d == 3:
        d = getrandbits(2)
    density = _DENSITIES[d]
    # the ranks come sorted: the middles of rank 0, then of rank 1, then of rank 2
    c0, c01 = counts[0], counts[0] + counts[1]
    down, cov, under = [1], [0], 0
    for i in range(1, k + 1):
        # picked elements with their strict down-sets, and those strict down-sets alone
        mask, strict = 1, 0
        for j in range(1, 1 + (0 if i <= c0 else c0 if i <= c01 else c01)):
            if draw() < density:
                below = down[j]
                mask |= below
                strict |= below ^ (1 << j)
        cov.append(mask & ~strict)
        under |= mask
        down.append(mask | 1 << i)
    cov.append(((1 << (k + 1)) - 1) & ~under)
    down.append((1 << (k + 2)) - 1)
    return down, cov


def _is_sd_candidate(down: list[int], cov: list[int]) -> bool:
    """Whether a drawn candidate is an SD lattice, from its down-set and lower-cover masks.

    The candidate has a bottom (index 0) and a top, so it is a lattice
    exactly when every two lower covers of an element have a meet (the
    lemma of ``core._cover_pairs_have_meets``), and then SD exactly when
    kappa_d and kappa exist (``core._kappa_maps``, Freese-Jezek-Nation
    Thm 2.56).  The kappa_d half needs down-sets only: for m with one upper
    cover h, every element of down[h] & ~down[m] must lie above the lowest
    one.  It rejects most lattice candidates, so only the rest pay for the
    up-sets, the transpose of ``down``, that the kappa half reads.
    """
    for c in cov:
        while c & (c - 1):
            a = c.bit_length() - 1
            c ^= 1 << a
            da, rest = down[a], c
            while rest:
                b = rest.bit_length() - 1
                rest ^= 1 << b
                # never empty: bot lies below everything
                common = da & down[b]
                if down[common.bit_length() - 1] != common:
                    return False
    # the m in exactly one cover mask are those with one upper cover
    once = twice = 0
    for c in cov:
        twice |= once & c
        once |= c
    single = once & ~twice
    for h, c in enumerate(cov):
        c &= single
        while c:
            m = c.bit_length() - 1
            c ^= 1 << m
            cand = down[h] & ~down[m]
            low = cand & -cand
            for x in _bits(cand ^ low):
                if not down[x] & low:
                    return False
    n = len(down)
    up = [0] * n
    for i, d in enumerate(down):
        for j in _bits(d):
            up[j] |= 1 << i
    for j, c in enumerate(cov):
        if c and not c & (c - 1):  # j has one lower cover: kappa(j) is the top of cand
            cand = up[c.bit_length() - 1] & ~up[j]
            if cand & ~down[cand.bit_length() - 1]:
                return False
    return True


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
    top (``_draw_candidate``).  The draw yields each element's down-set
    and lower-cover masks, indexed bot, e0..e(k-1), top, a linear
    extension since edges rise in rank, and ``_is_sd_candidate`` tests
    them.  A rejected candidate gets no names, no ``Poset`` and no error
    message.  Only an accepted one is named and built through
    ``Lattice.build_from_covers``, which validates the Hasse diagram and
    indexes it canonically.

    The random calls are fixed: ``randint(0, max_mid)`` for the wanted
    size, then per attempt ``randint(0, max_mid)`` for k (only in the
    second half of ``max_tries``), k ranks and a density index, each
    ``getrandbits(2)`` drawn again on 3, and one ``random()`` per
    lower-rank pair in j order.  The ``getrandbits(2)`` draws are what
    ``randint(1, 3)`` and ``choice`` of three values consume in CPython's
    ``Random``, so a seed gives the same lattices, and leaves ``rng`` in the
    same state, as the predicate-built loop kept in the tests, which draws
    with ``randint`` and ``choice``; the tests pin this on CPython 3.10 to
    3.13.  Raises BadParameter for ``max_mid < 0`` or ``max_tries < 1``
    before any draw, and when the tries run out.
    """
    if max_mid < 0:
        raise BadParameter(f"max_mid must be >= 0, got {max_mid}")
    if max_tries < 1:
        raise BadParameter(f"max_tries must be >= 1, got {max_tries}")
    rng = rng if rng is not None else random.Random(seed)
    getrandbits, draw = rng.getrandbits, rng.random
    want = rng.randint(0, max_mid)
    for attempt in range(max_tries):
        # keep the drawn size for a while so large lattices are not starved
        k = want if attempt < max_tries // 2 else rng.randint(0, max_mid)
        down, cov = _draw_candidate(getrandbits, draw, k)
        if _is_sd_candidate(down, cov):
            names = ("bot", *(f"e{i}" for i in range(k)), "top")
            covers = [(names[j], names[i]) for i, c in enumerate(cov) for j in _bits(c)]
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
