"""Pop-stack operators, core intervals, nuclear intervals, and derived orders.

pop_down(x) is the meet of x with all elements it covers; pop_up is dual.
The lower core of x is [pop_down(x), x]; the upper core is the interval
[kappa_bar(x), pop_up(kappa_bar(x))].  In a finite SD lattice both are
read off kappa_bar in closed form:

- pop_down(x) = x ^ kappa_bar(x).  Let u be the lower cover of x with
  label j, so j <= x, j is not <= u, and j is least with u v j = x.  Then
  u v j_* < x, so j_* <= u as u is covered by x, and u ^ j < j gives
  u ^ j = j_*.  kappa(j) is the largest y with j ^ y = j_*, so
  u <= x ^ kappa(j), which is below x as j is not <= kappa(j); hence
  u = x ^ kappa(j).  The labels of the lower covers are the canonical
  joinands of x, and kappa_bar(x) is the meet of their kappa, so the meet
  of the lower covers is x ^ kappa_bar(x) (at the bottom, an empty meet
  with the top).
- pop_up(y) = y v kappa_bar_d(y), the dual case: the upper cover of y
  with m-label m is y v kappa_d(m), and kappa_bar_d(y) joins kappa_d over
  those m-labels, the canonical meetands of y.  kappa_bar_d is the
  inverse of kappa_bar (Barnard, "The canonical join complex", EJC 2019),
  and ``irreducibles`` computes it as the inverse permutation; so with
  y = kappa_bar(x) the upper core is [kappa_bar(x), x v kappa_bar(x)].

So the pop images of the whole lattice cost one n-bit AND per element
(``_pop_downs``, ``_pop_ups``), not one per cover.

The join-irreducible label sets of the two cores (lab_down, lab_up)
intersect in W(x), and comparison of these sets induces three partial
orders on the lattice: the two core label orders and the kappa order
x <= y iff x <= y and kappa_bar(y) <= kappa_bar(x), which is inclusion of
the W sets (proof in ``kappa_order``).

So all three derived orders are inclusion orders of a list of label masks,
one mask per element.  A mask holds the positions of its labels, the cji
numbered 0..|J|-1 in name order (``irreducibles._label_context``), so it
is |J| bits wide and its names come out sorted by a walk over its bits.
``_label_order`` builds each distinct list once per lattice: orders
whose lists coincide (all three on the tamari and boolean lattices) are
one object.  The msb walk (``core._lower_covers``) over the up-sets of
an inclusion order gives its index covers, an exact reduction by
construction, so ``Poset._from_cover_pairs`` indexes the order by
(height, name), as ``to_document`` exposes it, without the name and
cover checks of ``Poset.from_covers``; the reduction test in
``Poset.__init__``, which closes the down-sets, runs but never fires.
Names appear only at the boundary: in ``covers_named``, the label-set
maps and the witnesses of ``orders_coincide_report``.

In a finite SD lattice each of the three mask lists separates the
elements, so the ``InconsistentLabels`` check of ``_label_order``
guards this theorem and never fires on a lattice that passed the SD
test:

- lab_down: x = join lab_down(x).  lab_down(x) holds the canonical
  joinands of x, the labels of its lower covers, and every label in it
  lies below x, as it labels a cover inside [pop_down(x), x].
- lab_up: k = meet kappa(lab_up(x)) for k = kappa_bar(x).  lab_up(x)
  holds the labels of the covers above k, whose kappa are k's canonical
  meetands, and every kappa(j) with j in lab_up(x) lies above k, as j
  labels a cover inside [k, pop_up(k)].  So lab_up(x) fixes
  kappa_bar(x), and kappa_bar is a bijection.
- W: the proof in ``kappa_order``.
- A node [a, b] of the kappa_d walks in ``sequences`` is an interval of
  an SD lattice, so it is SD itself, and the lab_up argument, with the
  node's own labels and kappa, covers the upper cores of its members.

Two derived orders are equal exactly when their mask lists are, so they
are compared without being built.  Each family gives every completely
join-irreducible j the mask {j}, the one bit of j's position:

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

That also decides whether F is a lattice on its masks alone
(``DerivedPoset.is_lattice``).  Lemma: F is a lattice exactly when it
has one minimal and one maximal element and, for every two lower covers
a, b of a common element, F(a) & F(b) is again one of its masks.

- (<=) Say F(a) & F(b) = F(c).  F is inclusion, so c lies below a and
  b, and every common lower bound d has F(d) contained in
  F(a) & F(b) = F(c), so d <= c: c is the meet of a and b.  The one
  maximal element of the finite order F is its greatest, so the
  cover-pair lemma of ``core._cover_pairs_have_meets`` makes F a
  lattice.
- (=>) In a lattice F, F(a ^ b) = F(a) & F(b): by F(x) = {j in J :
  j <= x in F}, a j lies in both masks exactly when it lies below a and
  b, that is, below a ^ b.  So F(a) & F(b) is the mask of a ^ b.

The test makes one |J|-bit AND and one set lookup per pair of lower
covers, where ``Poset.lattice_failure`` works on n-bit down-sets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .core import IntervalView, Lattice, Poset, _lower_covers, _lsb, _msb, memoized
from .errors import InconsistentLabels
from .irreducibles import _decode, _kappa_bar_d_idx, _kappa_bar_idx, _label_context, _sorted_names


def pop_down(lattice: Lattice, x: str) -> str:
    """Meet of x with everything x covers; fixes the bottom element."""
    return lattice.names[_pop_down_idx(lattice, lattice.index[x], lattice._bot)]


def pop_up(lattice: Lattice, x: str) -> str:
    """Join of x with everything covering x; fixes the top element."""
    return lattice.names[_pop_up_idx(lattice, lattice.index[x], lattice._top)]


def _pop_down_idx(lattice: Lattice, x: int, a: int) -> int:
    """pop_down of x inside an interval [a, .]: x met with its lower covers >= a.

    A scan over the covers of x, for proper intervals (``is_nuclear``) and
    the public ``pop_down``; on the whole lattice ``_pop_downs`` reads the
    same from kappa_bar in closed form.
    """
    down, up_a = lattice.down, lattice.up[a]
    acc = down[x]
    for u in lattice._dcov[x]:
        if up_a >> u & 1:
            acc &= down[u]
    return _msb(acc)


def _pop_up_idx(lattice: Lattice, x: int, b: int) -> int:
    """pop_up of x inside an interval [., b]: x joined with its upper covers <= b.

    A scan over the covers of x, for proper intervals (``is_conuclear``,
    ``sequences._child``) and the public ``pop_up``; on the whole lattice
    ``_pop_ups`` reads the same from kappa_bar in closed form.
    """
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
    """All core data for x: its row of ``_core_table``, with names and the two core views.

    lab_down(x) labels the lower core [x ^ kappa_bar(x), x], lab_up(x) the
    upper core [kappa_bar(x), x v kappa_bar(x)], and W(x) is
    {j in cji : j <= x and kappa(j) >= kappa_bar(x)}, which equals
    lab_down(x) & lab_up(x).  The name x is looked up before any table is
    built, so an unknown name raises SchemaError even on a lattice that is
    not semidistributive.
    """
    i = lattice.index[x]
    pd, pu, k, pu_k, lab_down, lab_up, w_set = _core_table(lattice)[i]
    names = lattice.names
    # positional, in field order: keyword matching costs more in this per-element call
    return CoreData(
        x, names[pd], names[pu], IntervalView(lattice, pd, i), IntervalView(lattice, k, pu_k), lab_down, lab_up, w_set
    )


@memoized
def _core_table(lattice: Lattice) -> list[tuple]:
    """One row per element index x, memoized: the indices and label names of its core data.

    A row is (pop_down(x), pop_up(x), k, pop_up(k), lab_down, lab_up, W)
    with k = kappa_bar(x), the first four as indices and the three label
    sets as name tuples; pop_up(k) is x v k, the top of the upper core
    (module docstring).  The three mask lists are decoded together, so a
    mask that recurs is walked once: on the tamari and boolean lattices,
    where the lists coincide, each element's masks are walked once, not
    three times.  A row holds no n-bit mask; ``core_data`` builds the two
    interval views from its indices.
    """
    pops_up, kbar = _pop_ups(lattice), _kappa_bar_idx(lattice)
    labels = _decode(
        _label_context(lattice).labels, _lab_down_masks(lattice), _lab_up_masks(lattice), _w_masks(lattice)
    )
    return list(zip(_pop_downs(lattice), pops_up, kbar, [pops_up[k] for k in kbar], *labels))


@memoized
def _pop_downs(lattice: Lattice) -> list[int]:
    """pop_down of every element, memoized: x ^ kappa_bar(x), one n-bit AND each.

    The closed form of the module docstring; the per-cover scan
    ``_pop_down_idx`` stays for proper intervals and the public ``pop_down``.
    """
    down = lattice.down
    return [(down[x] & down[k]).bit_length() - 1 for x, k in enumerate(_kappa_bar_idx(lattice))]


@memoized
def _pop_ups(lattice: Lattice) -> list[int]:
    """pop_up of every element, memoized: y v kappa_bar_d(y), one n-bit AND each.

    The closed form of the module docstring, with kappa_bar_d the inverse
    permutation of kappa_bar; the per-cover scan ``_pop_up_idx`` stays for
    proper intervals and the public ``pop_up``.
    """
    up, out = lattice.up, []
    for y, x in enumerate(_kappa_bar_d_idx(lattice)):
        joins = up[y] & up[x]
        out.append((joins & -joins).bit_length() - 1)
    return out


@memoized
def _lab_down_masks(lattice: Lattice) -> list[int]:
    """lab_down of every element x, as position masks: the labels of [pop_down(x), x]."""
    context = _label_context(lattice)
    jdown, jabove = context.jdown, context.jabove
    return [jdown[x] & jabove[pd] for x, pd in enumerate(_pop_downs(lattice))]


@memoized
def _lab_up_masks(lattice: Lattice) -> list[int]:
    """lab_up of every element x, as position masks: the labels of its upper core.

    The upper core of x is [k, pop_up(k)] with k = kappa_bar(x).
    """
    context, pops_up = _label_context(lattice), _pop_ups(lattice)
    jdown, jabove = context.jdown, context.jabove
    return [jdown[pops_up[k]] & jabove[k] for k in _kappa_bar_idx(lattice)]


def _label_sets(lattice: Lattice, masks: list[int]) -> dict[str, frozenset[str]]:
    (labels,) = _decode(_label_context(lattice).labels, masks)
    return {name: frozenset(names) for name, names in zip(lattice.names, labels)}


def lab_down_map(lattice: Lattice) -> dict[str, frozenset[str]]:
    """Lower core label set of every element, built afresh from the memoized masks on each call."""
    return _label_sets(lattice, _lab_down_masks(lattice))


def lab_up_map(lattice: Lattice) -> dict[str, frozenset[str]]:
    """Upper core label set of every element, built afresh from the memoized masks on each call."""
    return _label_sets(lattice, _lab_up_masks(lattice))


@memoized
def _w_masks(lattice: Lattice) -> list[int]:
    """W(x) = {j in cji : j <= x and kappa(j) >= kappa_bar(x)} of every element, as position masks."""
    context = _label_context(lattice)
    jdown, jabove = context.jdown, context.jabove
    return [jdown[x] & jabove[k] for x, k in enumerate(_kappa_bar_idx(lattice))]


def w_map(lattice: Lattice) -> dict[str, frozenset[str]]:
    """W(x) = lab_up(x) & lab_down(x) for every element."""
    return _label_sets(lattice, _w_masks(lattice))


class DerivedPoset(Poset):
    """A partial order derived from a lattice: the kappa order or a core label order.

    It is a plain Poset on the lattice's names, so it compares ``==`` by
    relation with any Poset.  Derived orders built from one mask list are
    one object, so they share their memo and their lattice verdict.
    ``masks[i]`` is the label mask of its element i, set by
    ``_label_order``, which builds every derived order.
    """

    masks: tuple[int, ...]

    @memoized
    def is_lattice(self) -> bool:
        """Whether this order is a lattice, memoized: ``_lattice_on_masks``."""
        return self._lattice_on_masks()

    def _lattice_on_masks(self) -> bool:
        """The lattice test of the module docstring, on |J|-bit label masks.

        One least and one greatest element, and for every two lower covers
        a, b of a common element, masks[a] & masks[b] is again a mask of
        the order.  ``Poset.lattice_failure`` decides the same on n-bit
        down-sets and stays as the test oracle.
        """
        dcov = self._dcov
        if sum(not lows for lows in dcov) != 1 or sum(not highs for highs in self._ucov) != 1:
            return False
        masks = self.masks
        present = set(masks)
        for lows in dcov:
            if len(lows) > 1:
                for a, b in itertools.combinations([masks[u] for u in lows], 2):
                    if a & b not in present:
                        return False
        return True


@memoized
def _orders_built(lattice: Lattice) -> dict[tuple[int, ...], DerivedPoset]:
    """The derived orders built on this lattice so far, keyed by their mask lists."""
    return {}


def kappa_order(lattice: Lattice) -> DerivedPoset:
    """x below y when x <= y in L and kappa_bar(y) <= kappa_bar(x).

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

    With having[p] the set of elements whose label set holds position p,
    the up-set of x is the intersection of having[p] over the labels p of x:
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
    # having[p] written as binary digits: bit r is set when ranked[r] has p
    # the two bit walks are inline: they run once per label of every element
    rows = [bytearray(b"0" * n) for _ in range(max(masks).bit_length())]
    one = ord("1")
    for r, x in enumerate(ranked):
        rest, col = masks[x], n - 1 - r
        while rest:
            low = rest & -rest
            rows[low.bit_length() - 1][col] = one
            rest ^= low
    having = [int(row, 2) for row in rows]
    full = (1 << n) - 1
    up = []
    for x in ranked:
        acc, rest = full, masks[x]
        while rest:
            low = rest & -rest
            acc &= having[low.bit_length() - 1]
            rest ^= low
        up.append(acc)
    covers = [(lo, hi) for lo, highs in enumerate(_lower_covers(up)) for hi in highs]
    del up  # n masks of n bits, freed before the build allocates its own
    order = built[key] = DerivedPoset._from_cover_pairs([lattice.names[x] for x in ranked], covers)
    index = lattice.index
    order.masks = tuple(masks[index[name]] for name in order.names)
    return order


def clo_down(lattice: Lattice) -> DerivedPoset:
    """Lower core label order: compare lab_down sets by inclusion."""
    return _label_order(lattice, "cloDown", _lab_down_masks(lattice))


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
