"""Exceptional sequences of join-irreducibles driven by the kappa_d map.

A tuple (j_k, ..., j_1) of completely join-irreducible elements is
kappa_d-exceptional when every j_i with i > 1 labels a cover inside
[j_1, pop_up(j_1)] and the tuple (j_k v j_1, ..., j_2 v j_1) is again
kappa_d-exceptional inside that interval.  Sequences act from the right;
they are stored rightmost-first internally and displayed leftmost-first.

The recursion never rebuilds an interval as a lattice.  An interval of an
interval of L is an interval of L, so every step is a node (a, b), a pair
of element indices of L, and everything is kept in L's label coordinates:

* The labels of (a, b) are the mask ``jdown[b] & jabove[a]``: the cji j
  of L with j <= b and kappa(j) >= a, each labelling a cover inside
  [a, b].  A mask holds label positions, the cji of L numbered
  0..|J|-1 in name order (``irreducibles._label_context``), so it is
  |J| bits wide.  A position is mapped to its element only where
  ``_child`` steps, and to its name where a label is shown.
* Labels transfer by j -> a v j, a bijection onto the cji of [a, b]
  (a test oracle checks it on rebuilt intervals): if u < v
  inside [a, b] has L-label j, then a v j lies in [a, b], joins u to v,
  and lies below every y in [a, b] with u v y = v, so it is the label of
  u < v in [a, b].  A sequence of interval cji is therefore named by the
  L-labels it maps back to, at every depth, and needs no renaming.
* pop_up inside [a, b] joins x with its upper covers that lie <= b,
  because the covers of an interval are the covers of L inside it.  The
  child of (a, b) for label j is (a v j, pop_up_[a,b](a v j)).
* kappa of the interval cji a v j is b ^ kappa(j): its lower cover u in
  [a, b] gives a cover u < a v j with L-label j, the y with
  y ^ (a v j) = u are exactly the interval [u, kappa(j)] of L, and the
  largest of them below b is b ^ kappa(j).
* [a, b] is SD, so kappa_bar is a bijection of it, and the upper-core
  masks of its members separate them (the lab_up argument of ``cores``).
* Labels only shrink along a path: a grows and b falls, so jabove[a] and
  jdown[b] both shrink.

A node is fixed, up to an isomorphism that keeps the L-labels, by its
label mask S.  The cji of [a, b] are a v j and its cmi are b ^ kappa(j),
for j in S, as above (kappa is a bijection from cji onto cmi in an SD
lattice), and a v j <= b ^ kappa(j') holds iff j <= kappa(j'),
because j <= b and a <= kappa(j') for every j, j' in S.  By the basic
theorem of formal concept analysis (Ganter-Wille), a finite lattice is the
concept lattice of the context (cji, cmi, <=), so [a, b] is the concept
lattice of (S, S, j <= kappa(j')), which depends on S alone.  Two nodes
(a, b) and (a', b') with one mask are therefore isomorphic by the map
that keeps the extents {j in S : a v j <= x}; it sends a v j to a' v j,
so by the label transfer it keeps the L-label of every cover.  All that
the walks compute is then a function of S: the child masks, upper cores
and kappa_bar_d inside the node, the cover labels, and whether a step fails.

So the walks carry masks, not nodes.  ``_dag`` expands each mask once,
at the first node met with it, into its child masks (|L| masks on tamari
and boolean, where a node per interval gave 394 / 1806 on tamari 6 / 7);
the count, the listing and right-extendability read that table, and the
verifier steps along its one path with ``_child``.  The listing is one
depth-first walk over the paths of that table.  What a step does depends
only on its mask and its alive right-extension walks, so each such state
works out its steps once, and the results are sorted as integer keys,
not as tuples of names (``enumerate_kd_exceptional``).

The clo-up labeling reads the same table.  The recursion that defines
it labels each coatom u of cloUp([a, b]) by kappa_bar(u) = a v j and
recurses into the upper core of a v j, the child for j, whose mask is
lab_up(u) inside the node; so each label it writes is a table edge, and
``label_clo_up`` reads the labels off the edges (what is proved of that
and what is only checked is in its docstring).  The test oracles for
this module, the recursion and the walks with a node per interval among
them, live with the tests, not in the library.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Optional, Sequence

from .core import Lattice, _bits, _lsb, _name_list, _name_tuple, memoized
from .cores import DerivedPoset, _lab_up_masks, _pop_up_idx, clo_up
from .errors import NotJoinIrreducible, RecursionMismatch
from .irreducibles import _inherited_label_leq, _label_context, _labels_between, kappa_bar
from .shelling import LabeledPoset

@dataclass(frozen=True)
class KdSequence:
    """One verified sequence, displayed in (j_k, ..., j_1) order."""

    entries: tuple[str, ...]
    right_extendable: Optional[bool] = None


@dataclass(frozen=True)
class KdCheck:
    """Outcome of verifying one candidate sequence.

    ``position`` indexes the offending entry in display order; ``depth`` is
    the recursion level (0 checks the rightmost entry's interval).
    """

    ok: bool
    condition: Optional[int] = None
    position: Optional[int] = None
    entry: Optional[str] = None
    depth: int = 0

    def __bool__(self) -> bool:
        return self.ok


def _child(lattice: Lattice, a: int, b: int, j: int) -> tuple[int, int]:
    """The node (a v j, pop_up_[a,b](a v j)) reached from (a, b) by label j."""
    x = _lsb(lattice.up[a] & lattice.up[j])
    return x, _pop_up_idx(lattice, x, b)


@memoized
def _dag(lattice: Lattice) -> tuple[int, dict[int, dict[int, int]]]:
    """The root's label mask, and for each mask met, label -> child mask.

    Memoized: the count, the listing and ``label_clo_up`` read one table,
    and none of them writes to it.

    Masks and labels are label positions, and labels come in position
    order.  Each mask is expanded at the first node met with it; nodes
    with one mask are isomorphic and keep L-labels, so the walk order does
    not matter.  A row is made empty when its mask is first met and filled
    when the mask is expanded.
    """
    cji = _label_context(lattice).cji  # raises NotSemidistributive
    a, b = lattice._bot, lattice._top
    root = _labels_between(lattice, a, b)
    kids: dict[int, dict[int, int]] = {root: {}}
    stack = [(root, a, b)]
    while stack:
        mask, a, b = stack.pop()
        step = kids[mask]
        for p in _bits(mask):
            x, y = _child(lattice, a, b, cji[p])
            child = step[p] = _labels_between(lattice, x, y)
            if child not in kids:
                kids[child] = {}
                stack.append((child, x, y))
    return root, kids


def is_kd_exceptional(lattice: Lattice, entries: Sequence[str]) -> KdCheck:
    """Verify the recursive conditions; empty and singleton sequences pass.

    Walks one path of the interval DAG.  At each depth every later entry
    is tested against the interval's label mask, so the first failure met
    is at the shallowest depth at which some later entry is not a label of
    the interval, as in the definition.
    """
    context = _label_context(lattice)
    entries = _name_tuple(entries)
    for e in entries:
        if e not in context.position:
            raise NotJoinIrreducible(f"{e!r} is not completely join-irreducible")
    cji = context.cji
    seq = [context.position[e] for e in reversed(entries)]
    node = (lattice._bot, lattice._top)
    for d in range(len(seq) - 1):
        node = _child(lattice, *node, cji[seq[d]])
        mask = _labels_between(lattice, *node)
        for k in range(d + 1, len(seq)):
            if not mask >> seq[k] & 1:
                position = len(seq) - 1 - k
                return KdCheck(ok=False, condition=1, position=position, entry=entries[position], depth=d)
    return KdCheck(ok=True)


def enumerate_kd_exceptional(
    lattice: Lattice,
    maximal_only: bool = False,
    mark_right_extendable: bool = False,
) -> list[KdSequence]:
    """Enumerate all (or all maximal) sequences, sorted by display entries.

    Maximal means not extendable by another entry on the left: the path
    ends at a one-element interval.  With ``mark_right_extendable`` each
    result also records whether one more entry j0 could be appended on the
    right instead, that is, whether the sequence is a path from some child
    (j0, pop_up(j0)) of the root; those walks run alongside the listing.

    The listing is one depth-first walk over the paths of ``_dag``'s
    table.  A walk's state is its mask and its alive right-extension
    walks, a set of masks (walks that reach one mask go on as one), and
    each state's steps are worked out once.  A step lists the sequence it
    ends (under ``maximal_only`` only a step into an empty row), marked
    right-extendable when a walk is alive at its end, and the walk goes
    on unless the row is empty.  Sequences act from the right, so each
    step's label is displayed on the left of the entries walked before it.

    One sort on integer keys orders the results.  Positions are in name
    order, and the root holds every position, as each cji j labels
    [j_*, j]; so the label at position p gets the digit d(p) = p + 1, its
    rank in name order plus 1, and a display tuple (e_1, ..., e_m) the key
    sum d(e_i) * B**(W - i), with W the number of labels and B = W + 1; no
    sequence is longer than W, as each step drops a label.  Read in base B
    the key is the tuple's digits, padded on the right with zeros, which
    sort below every digit; so a prefix sorts before its extensions, and
    names are distinct, so keys sort exactly as the tuples do.  A step by
    label p turns the key k into d(p) * B**(W - 1) + k // B, the new label
    in the top digit; the division is exact, as a sequence that is
    extended has fewer than W labels.
    """
    root, kids = _dag(lattice)
    names, cji = lattice.names, _label_context(lattice).cji
    base = len(cji) + 1
    top = base ** len(cji) // base  # B**(W - 1), an int also when W = 0
    # state -> its steps: (label digit * B**(W - 1), (label name,), child
    # state, listed, walked on), worked out once
    moves: dict[tuple[int, frozenset[int]], list] = {}
    found = []
    start = (root, frozenset(kids[root].values()) if mark_right_extendable else frozenset())
    stack = [(start, 0, ())]
    while stack:
        state, key, entries = stack.pop()
        steps = moves.get(state)
        if steps is None:
            mask, alive = state
            walks = [kids[w] for w in alive]
            steps = moves[state] = []
            for p, child in kids[mask].items():
                after = frozenset([walk[p] for walk in walks if p in walk]) if walks else alive
                last = not kids[child]
                steps.append(((p + 1) * top, (names[cji[p]],), (child, after), last or not maximal_only, not last))
        key //= base
        for digit, name, child, listed, walked in steps:
            left = name + entries
            if listed:
                found.append((digit + key, left, bool(child[1])))
            if walked:
                stack.append((child, digit + key, left))
    found.sort(key=itemgetter(0))  # the keys are unique: compare them, not the tuples
    if mark_right_extendable:
        return [KdSequence(entries, flag) for _, entries, flag in found]
    return [KdSequence(entries) for _, entries, _ in found]


def count_kd_exceptional(lattice: Lattice, maximal_only: bool = False) -> int:
    """Number of non-empty (or maximal) sequences, without listing them.

    A mask counts itself (when every path counts, or when it is a
    one-element interval) plus the counts of its children.  A child's
    mask lacks the label that leads to it, so taking masks in popcount
    order counts every child before its parent.
    """
    root, kids = _dag(lattice)
    counts: dict[int, int] = {}
    for mask in sorted(kids, key=int.bit_count):
        step = kids[mask].values()
        counts[mask] = (1 if not step or not maximal_only else 0) + sum(counts[c] for c in step)
    return sum(counts[c] for c in kids[root].values())


@dataclass(frozen=True)
class CloLabeling:
    """A labeling of the covers of the upper core label order by cji names.

    ``label_leq`` carries the strict order the labels inherit from the
    source lattice, for use as a search constraint by the EL machinery.
    """

    poset: DerivedPoset
    labels: dict[tuple[str, str], str]
    label_leq: frozenset[tuple[str, str]]

    def to_labeled_poset(self) -> LabeledPoset:
        return LabeledPoset(poset=self.poset, labels=dict(self.labels), label_leq=self.label_leq)


def label_clo_up(lattice: Lattice) -> CloLabeling:
    """Label the covers of the upper core label order off the kappa_d table.

    The labeling is a recursion: a coatom u of cloUp is labeled
    kappa_bar(u), and the ideal below u is cloUp of the upper core
    [k, pop_up(k)], k = kappa_bar(u), labeled alike.  On nodes, a node
    [a, b] with label mask S labels u by the j with a v j = k and steps to
    the child for j, whose mask is kids[S][j] (``_dag``) and is lab_up(u)
    inside the node.  So a cover (lo, hi) of cloUp is labeled by the j
    with kids[lab_up(hi)][j] = lab_up(lo), and that is what is read here,
    with the labels in ``covers_named`` order.

    Proved:

    * Each row of the table is injective: j -> a v j is a bijection onto
      the cji of [a, b], kids[S][j] is the upper-core mask of a v j inside
      [a, b], and upper-core masks separate the members of [a, b], which
      is SD.  So a cover has at most one label.
    * Where the recursion succeeds it gives the same labels: it labels
      every cover, and each label j it writes for (lo, hi) is the edge
      kids[lab_up(hi)][j] = lab_up(lo), as above.
    * The root rule: cloUp has a top exactly when the recursion's root
      does, and for a coatom u, kappa_bar(u) is a cji j exactly when
      lab_up(u) is the mask of j's upper core, kids[root][j], as upper
      cores separate the elements.
    * The top test: cloUp is the inclusion order of the lab_up masks, and
      lab_up(j) = {j} for each cji j (its upper core is the cover
      kappa(j) < kappa(j)^*, labeled j), so the masks cover every label
      and cloUp has a top exactly when the full mask is one of them.
      Without a top, its maximal elements are named off the maximal
      masks, and cloUp is not built.

    Only checked: that where the recursion fails, this reading fails with
    the same error.  Both gave the same outcome, labels and messages
    alike, on 2546 lattices: tamari 0-7, boolean and chain 0-5, fig1,
    fig4, the diamond and 1250 ``random_sd_lattice`` draws from seven
    (seed, max_mid) pairs, each with its dual.  There were 1076
    labelings, 1420 lattices without a top and 50 with a coatom whose
    kappa_bar is not a cji; the last guard, a cover that is no kappa_d
    step, fired on none.  They also agree on tamari 8 and 9 and duals.
    """
    names, index, lab_up = lattice.names, lattice.index, _lab_up_masks(lattice)
    cji = _label_context(lattice).cji
    if (1 << len(cji)) - 1 not in lab_up:
        # no top: the maximal masks, largest first, each in no mask kept before it
        kept: list[int] = []
        for mask in sorted(lab_up, key=int.bit_count, reverse=True):
            if all(mask & ~other for other in kept):
                kept.append(mask)
        maxs = sorted(names[x] for x, mask in enumerate(lab_up) if mask in kept)
        raise RecursionMismatch(
            f"derived order has no unique top element (no unique maximum: {_name_list(maxs)}); "
            "the lattice is not a nuclear interval"
        )
    derived = clo_up(lattice)
    top = derived.top_name()
    root, kids = _dag(lattice)
    steps = {mask: {child: p for p, child in row.items()} for mask, row in kids.items()}
    for u in sorted(derived.lower_covers(top)):
        if lab_up[index[u]] not in steps[root]:
            raise RecursionMismatch(
                f"kappa_bar({u!r}) = {kappa_bar(lattice, u)!r} is not completely join-irreducible"
            )
    labels: dict[tuple[str, str], str] = {}
    for lo, hi in derived.covers_named():
        p = steps.get(lab_up[index[hi]], {}).get(lab_up[index[lo]])
        if p is None:
            raise RecursionMismatch(f"cover ({lo!r}, {hi!r}) of the derived order is not a kappa_d step")
        labels[(lo, hi)] = names[cji[p]]
    return CloLabeling(poset=derived, labels=labels, label_leq=_inherited_label_leq(lattice))
