"""Pop-stack operators, core intervals, nuclear intervals, and derived orders.

pop_down(x) is the meet of x with all elements it covers; pop_up is dual.
The lower core of x is [pop_down(x), x]; the upper core is the interval
[kappa_bar(x), pop_up(kappa_bar(x))].  Their join-irreducible label sets
(lab_down, lab_up) intersect in W(x), and comparison of these sets induces
three partial orders on the lattice: the two core label orders and the
kappa order x <= y iff x <= y and kappa_bar(y) <= kappa_bar(x), which is
inclusion of the W sets (proof in ``kappa_order``).

So all three derived orders are inclusion orders of a list of label masks,
one mask per element, and ``_label_order`` builds each distinct list once
per lattice: orders whose lists coincide (all three on the tamari and
boolean lattices) are one object.  The msb walk (``core._lower_covers``)
over the up-sets of an inclusion order gives its index covers, an exact
reduction by construction, so ``Poset._from_cover_pairs`` indexes the
order by (height, name), as ``to_document`` exposes it, without the name
and cover checks of ``Poset.from_covers``; the reduction test in
``Poset.__init__``, which closes the down-sets, runs but never fires.
Names appear only at the boundary: in ``covers_named``, the label-set
maps and the witnesses of ``orders_coincide_report``.

In a finite SD lattice each of the three mask lists separates the
elements, so the ``InconsistentLabels`` check of ``_label_order`` (and
the one in ``sequences._node_steps``) guards this theorem and never
fires on a lattice that passed the SD test:

- lab_down: x = join lab_down(x).  lab_down(x) holds the canonical
  joinands of x, the labels of its lower covers, and every label in it
  lies below x, as it labels a cover inside [pop_down(x), x].
- lab_up: k = meet kappa(lab_up(x)) for k = kappa_bar(x).  lab_up(x)
  holds the labels of the covers above k, whose kappa are k's canonical
  meetands, and every kappa(j) with j in lab_up(x) lies above k, as j
  labels a cover inside [k, pop_up(k)].  So lab_up(x) fixes
  kappa_bar(x), and kappa_bar is a bijection.
- W: the proof in ``kappa_order``.
- A node [a, b] of the clo-up recursion is an interval of an SD
  lattice, so it is SD itself, and the lab_up argument, with the node's
  own labels and kappa, covers the upper cores of its members.

Two derived orders are equal exactly when their mask lists are, so they
are compared without being built.  Each family gives every completely
join-irreducible j the mask {j}:

- lab_down(j) labels [j_*, j], whose one cover has label j;
- W(j) = {j}: j is in W(j) as kappa_bar(j) = kappa(j), and an i < j in J
  with kappa(i) >= kappa(j) would give i <= j_* <= kappa(j) <= kappa(i),
  which is impossible, as i ^ kappa(i) = i_* < i;
- lab_up(j) labels [kappa(j), kappa(j)^*], as kappa(j) is meet-irreducible,
  and the one cover m < m^* with m = kappa(j) has the j-label i with
  kappa(i) = m, which is j, as kappa is injective.

So in a derived order F, j <= x exactly when F(j) = {j} is contained in
F(x), that is, F(x) = {j in J : j <= x in F}: the order determines its
masks.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Optional

from .core import IntervalView, Lattice, Poset, _bits, _lower_covers, _lsb, _msb, memoized
from .errors import InconsistentLabels
from .irreducibles import _kappa_bar_idx, _labels_between, _sorted_names


def pop_down(lattice: Lattice, x: str) -> str:
    """Meet of x with everything x covers; fixes the bottom element."""
    return lattice.names[_pop_down_idx(lattice, lattice.index[x], lattice._bot)]


def pop_up(lattice: Lattice, x: str) -> str:
    """Join of x with everything covering x; fixes the top element."""
    return lattice.names[_pop_up_idx(lattice, lattice.index[x], lattice._top)]


def _pop_down_idx(lattice: Lattice, x: int, a: int) -> int:
    """pop_down of x inside an interval [a, .]: x met with its lower covers >= a."""
    down, up_a = lattice.down, lattice.up[a]
    acc = down[x]
    for u in lattice._dcov[x]:
        if up_a >> u & 1:
            acc &= down[u]
    return _msb(acc)


def _pop_up_idx(lattice: Lattice, x: int, b: int) -> int:
    """pop_up of x inside an interval [., b]: x joined with its upper covers <= b."""
    up, down_b = lattice.up, lattice.down[b]
    acc = up[x]
    for v in lattice._ucov[x]:
        if down_b >> v & 1:
            acc &= up[v]
    return _lsb(acc)


def is_nuclear(lattice: Lattice, lo: str, hi: str) -> bool:
    """True when lo is recovered as the meet of the coatoms of [lo, hi].

    The empty meet inside the sublattice is hi, so one-element intervals are
    nuclear.  The reachability clause of the definition holds automatically
    in a finite lattice and is not re-checked.
    """
    a, b = lattice._ends(lo, hi)
    return _pop_down_idx(lattice, b, a) == a


def is_conuclear(lattice: Lattice, lo: str, hi: str) -> bool:
    """True when hi is the join of the atoms of [lo, hi]; dual to is_nuclear."""
    a, b = lattice._ends(lo, hi)
    return _pop_up_idx(lattice, a, b) == b


@dataclass(frozen=True)
class CoreData:
    """Pop images, core intervals, and the three label sets of one element."""

    element: str
    pop_down: str
    pop_up: str
    core_down: IntervalView
    core_up: IntervalView
    lab_down: tuple[str, ...]
    lab_up: tuple[str, ...]
    w_set: tuple[str, ...]


def core_data(lattice: Lattice, x: str) -> CoreData:
    """All core data for x, from the memoized label masks.

    lab_down(x) labels [pop_down(x), x], lab_up(x) labels the upper core
    [kappa_bar(x), pop_up(kappa_bar(x))], and W(x) is {j in cji : j <= x and
    kappa(j) >= kappa_bar(x)}, which equals lab_down(x) & lab_up(x).
    """
    names = lattice.names
    i = lattice.index[x]
    k = _kappa_bar_idx(lattice)[i]
    pd = _pop_down_idx(lattice, i, lattice._bot)
    pk = _pop_up_idx(lattice, k, lattice._top)
    return CoreData(
        element=x,
        pop_down=names[pd],
        pop_up=names[_pop_up_idx(lattice, i, lattice._top)],
        core_down=lattice.interval(names[pd], x),
        core_up=lattice.interval(names[k], names[pk]),
        lab_down=_sorted_names(lattice, _lab_down_masks(lattice)[i]),
        lab_up=_sorted_names(lattice, _lab_up_masks(lattice)[i]),
        w_set=_sorted_names(lattice, _w_masks(lattice)[i]),
    )


@memoized
def _lab_down_masks(lattice: Lattice) -> list[int]:
    bot = lattice._bot
    return [_labels_between(lattice, _pop_down_idx(lattice, x, bot), x) for x in range(lattice.n)]


@memoized
def _lab_up_masks(lattice: Lattice) -> list[int]:
    """lab_up of every element x, as masks: the labels of its upper core.

    The upper core of x is [k, pop_up(k)] with k = kappa_bar(x).
    """
    top = lattice._top
    return [_labels_between(lattice, k, _pop_up_idx(lattice, k, top)) for k in _kappa_bar_idx(lattice)]


def _label_sets(lattice: Lattice, masks: list[int]) -> dict[str, frozenset[str]]:
    names = lattice.names
    return {names[x]: frozenset(names[j] for j in _bits(m)) for x, m in enumerate(masks)}


@memoized
def lab_down_map(lattice: Lattice) -> dict[str, frozenset[str]]:
    """Lower core label set of every element, memoized."""
    return _label_sets(lattice, _lab_down_masks(lattice))


@memoized
def lab_up_map(lattice: Lattice) -> dict[str, frozenset[str]]:
    """Upper core label set of every element, memoized."""
    return _label_sets(lattice, _lab_up_masks(lattice))


@memoized
def _w_masks(lattice: Lattice) -> list[int]:
    """W(x) = {j in cji : j <= x and kappa(j) >= kappa_bar(x)} of every element, as masks."""
    return [_labels_between(lattice, k, x) for x, k in enumerate(_kappa_bar_idx(lattice))]


def w_map(lattice: Lattice) -> dict[str, frozenset[str]]:
    """W(x) = lab_up(x) & lab_down(x) for every element."""
    return _label_sets(lattice, _w_masks(lattice))


class DerivedPoset(Poset):
    """A partial order derived from a lattice: the kappa order or a core label order.

    It is a plain Poset on the lattice's names, so it compares ``==`` by
    relation with any Poset.  Derived orders built from one mask list are
    one object, so they share their memo and their lattice verdict.
    """

    @memoized
    def is_lattice(self) -> bool:
        """Whether this order is a lattice, memoized."""
        return self.is_lattice_poset()


@memoized
def _orders_built(lattice: Lattice) -> dict[tuple[int, ...], DerivedPoset]:
    """The derived orders built on this lattice so far, keyed by their mask lists."""
    return {}


@memoized
def kappa_order(lattice: Lattice) -> DerivedPoset:
    """x below y when x <= y in L and kappa_bar(y) <= kappa_bar(x); memoized.

    This is the inclusion order of the sets W(x) = {j in J : j <= x and
    kappa(j) >= kappa_bar(x)}, which are lab_down(x) & lab_up(x):

    - W(x) contains the canonical joinands D of x, since each of them lies
      below x and kappa_bar(x) is the meet of kappa over D.  So
      x = join W(x), and kappa_bar(x) = meet kappa(W(x)), as every
      kappa(j) with j in W(x) lies above kappa_bar(x).
    - So W(x) <= W(y) gives x = join W(x) <= join W(y) = y and
      kappa_bar(y) = meet kappa(W(y)) <= meet kappa(W(x)) = kappa_bar(x);
      conversely, x <= y and kappa_bar(y) <= kappa_bar(x) put every j of
      W(x) below y with kappa(j) >= kappa_bar(x) >= kappa_bar(y).
    - It also follows that W(x) = W(y) gives x = y: the W masks separate
      the elements.
    """
    return _label_order(lattice, "kappaOrder", _w_masks(lattice))


def _label_order(lattice: Lattice, kind: str, masks: list[int]) -> DerivedPoset:
    """Inclusion order of the label masks; one build per distinct list.

    A list already built for this lattice is not built again: the result
    is the order built from it first.  ``kind`` names the order in the
    error raised when the masks do not separate the elements.

    With having[j] the set of elements whose label set contains j, the
    up-set of x is the intersection of having[j] over the labels j of x:
    one mask op per label x has, and an element has few labels next to
    those it misses.  Listed by decreasing label-set size, the elements are
    a linear extension of reverse inclusion, so the msb walk of
    ``_lower_covers`` over those up-sets gives the covers, as upper covers.
    """
    built = _orders_built(lattice)
    key = tuple(masks)
    order = built.get(key)
    if order is not None:
        return order
    if len(set(masks)) != len(masks):
        raise InconsistentLabels(f"{kind}: label sets do not separate elements")
    n = lattice.n
    ranked = sorted(range(n), key=lambda x: -masks[x].bit_count())
    # having[j] written as binary digits: bit r is set when ranked[r] has j
    rows: defaultdict[int, bytearray] = defaultdict(lambda: bytearray(b"0" * n))
    for r, x in enumerate(ranked):
        for j in _bits(masks[x]):
            rows[j][n - 1 - r] = ord("1")
    having = {j: int(row, 2) for j, row in rows.items()}
    full = (1 << n) - 1
    up = []
    for x in ranked:
        acc = full
        for j in _bits(masks[x]):
            acc &= having[j]
        up.append(acc)
    covers = [(lo, hi) for lo, highs in enumerate(_lower_covers(up)) for hi in highs]
    del up  # n masks of n bits, freed before the build allocates its own
    built[key] = DerivedPoset._from_cover_pairs([lattice.names[x] for x in ranked], covers)
    return built[key]


@memoized
def clo_down(lattice: Lattice) -> DerivedPoset:
    """Lower core label order: compare lab_down sets by inclusion."""
    return _label_order(lattice, "cloDown", _lab_down_masks(lattice))


@memoized
def clo_up(lattice: Lattice) -> DerivedPoset:
    """Upper core label order: compare lab_up sets by inclusion."""
    return _label_order(lattice, "cloUp", _lab_up_masks(lattice))


@dataclass(frozen=True)
class OrdersReport:
    """Which of the three derived orders coincide, with witnesses when they do not.

    Each witness is an element whose relevant label sets differ, together
    with those sets.
    """

    kappa_equals_clo_down: bool
    kappa_equals_clo_up: bool
    clo_up_equals_clo_down: bool
    witness_kappa_clo_down: Optional[tuple[str, tuple[str, ...], tuple[str, ...]]]
    witness_kappa_clo_up: Optional[tuple[str, tuple[str, ...], tuple[str, ...]]]
    witness_clo_up_clo_down: Optional[tuple[str, tuple[str, ...], tuple[str, ...]]]


def orders_coincide_report(lattice: Lattice) -> OrdersReport:
    """Compare the three derived orders as relation sets, without building them.

    Two derived orders are equal exactly when their mask lists are (see
    the module docstring), so a flag is true exactly when no element
    separates the corresponding label sets (W vs lab_down, W vs lab_up,
    lab_up vs lab_down); the first such element in name order is the
    witness.
    """
    names = lattice.names
    lab_down, lab_up, w = _lab_down_masks(lattice), _lab_up_masks(lattice), _w_masks(lattice)

    def first_diff(left, right):
        differ = [x for x in range(lattice.n) if left[x] != right[x]]
        if not differ:
            return None
        x = min(differ, key=names.__getitem__)
        return (names[x], _sorted_names(lattice, left[x]), _sorted_names(lattice, right[x]))

    witnesses = [first_diff(w, lab_down), first_diff(w, lab_up), first_diff(lab_up, lab_down)]
    # the fields in order: the three flags, then the three witnesses
    return OrdersReport(*(witness is None for witness in witnesses), *witnesses)
