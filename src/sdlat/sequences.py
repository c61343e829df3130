"""Exceptional sequences of join-irreducibles driven by the kappa_d map.

A tuple (j_k, ..., j_1) of completely join-irreducible elements is
kappa_d-exceptional when every j_i with i > 1 labels a cover inside
[j_1, pop_up(j_1)] and the tuple (j_k v j_1, ..., j_2 v j_1) is again
kappa_d-exceptional inside that interval.  Sequences act from the right;
they are stored rightmost-first internally and displayed leftmost-first.

The recursion never rebuilds an interval as a lattice.  An interval of an
interval of L is an interval of L, so every step is a node (a, b), a pair
of element indices of L, and everything is kept in L's label coordinates:

* The labels of (a, b) are the mask ``down[b] & above[a]``: the cji j of
  L with j <= b and kappa(j) >= a, each labelling a cover inside [a, b].
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
* kappa_bar is a bijection of [a, b], which is SD.  So the lab_up masks
  of the node are the masks of its members' upper cores, and a coatom k
  of cloUp is named by kappa_bar_d(k) = a v (the join of the L-labels of
  the covers above k inside [a, b]); see ``_node_steps``.
* Labels only shrink along a path: a grows and b falls, so above[a] and
  down[b] both shrink.

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
verifier steps along its one path with ``_child``.  Only the clo-up
recursion keeps nodes, in a dict ``reps`` from each mask met to the
first node met with it: it orders a node's coatoms and words its errors
by the names of the node's elements, and those differ between nodes with
one mask.  A depth-first walk expands a node's whole subtree before it
meets the next node with the same mask (a descendant has fewer labels),
and the two subtrees carry the same masks, so a walk with a node per
interval meets each failure first at the first node of its mask: the
representative, where this walk meets it too.  Every error class and
message is therefore unchanged.  The test oracles for this module, the
walks with a node per interval among them, live with the tests, not in
the library.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .core import Lattice, _bits, _lsb, _name_list, _name_tuple
from .cores import DerivedPoset, _lab_up_masks, _pop_up_idx, clo_up
from .errors import InconsistentLabels, NotJoinIrreducible, RecursionMismatch
from .irreducibles import (
    _inherited_label_leq,
    _j_label_idx,
    _kappa_bar_d_within,
    _labels_between,
    irreducible_table,
)
from .shelling import LabeledPoset

Node = tuple[int, int]


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


def _child(lattice: Lattice, a: int, b: int, j: int) -> Node:
    """The node (a v j, pop_up_[a,b](a v j)) reached from (a, b) by label j."""
    x = _lsb(lattice.up[a] & lattice.up[j])
    return x, _pop_up_idx(lattice, x, b)


def _dag(lattice: Lattice) -> tuple[int, dict[int, dict[int, int]]]:
    """The root's label mask, and for each mask met, label -> child mask.

    Labels come in index order.  Each mask is expanded at the first node
    met with it; nodes with one mask are isomorphic and keep L-labels, so
    the walk order does not matter.  A mask is as wide as L, so every edge
    to it shares the int object of its first meeting (``first``).
    """
    a, b = _root(lattice)
    root = _labels_between(lattice, a, b)
    kids: dict[int, dict[int, int]] = {}
    first = {root: root}
    stack = [(root, a, b)]
    while stack:
        mask, a, b = stack.pop()
        step = kids[mask] = {}
        for j in _bits(mask):
            x, y = _child(lattice, a, b, j)
            child = _labels_between(lattice, x, y)
            held = first.get(child)
            if held is None:
                first[child] = held = child
                stack.append((child, x, y))
            step[j] = held
    return root, kids


def _root(lattice: Lattice) -> Node:
    irreducible_table(lattice)  # raises NotSemidistributive
    return (lattice._bot, lattice._top)


def is_kd_exceptional(lattice: Lattice, entries: Sequence[str]) -> KdCheck:
    """Verify the recursive conditions; empty and singleton sequences pass.

    Walks one path of the interval DAG with one mask test per entry.  On a
    failure the reported depth is the shallowest one at which some later
    entry is not a label of the interval, as in the definition.
    """
    table = irreducible_table(lattice)
    entries = _name_tuple(entries)
    for e in entries:
        if e not in table.jstar:
            raise NotJoinIrreducible(f"{e!r} is not completely join-irreducible")
    seq = [lattice.index[e] for e in reversed(entries)]
    node = _root(lattice)
    masks = []
    for d in range(len(seq) - 1):
        node = _child(lattice, *node, seq[d])
        masks.append(_labels_between(lattice, *node))
        if masks[-1] >> seq[d + 1] & 1:
            continue
        # entries up to d passed at their own depth, so at every earlier one
        for depth, mask in enumerate(masks):
            for k in range(d + 1, len(seq)):
                if not mask >> seq[k] & 1:
                    position = len(seq) - 1 - k
                    return KdCheck(
                        ok=False, condition=1, position=position, entry=entries[position], depth=depth
                    )
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

    The walk is depth first over the masks of ``_dag``.  Each stack frame
    carries its displayed name tuple, and a step prepends the new entry to
    it, so a result is never rebuilt from its path; the alive walks are a
    set of masks, so walks that reach one mask go on as one.  Display
    tuples are distinct, so sorting (entries, flag) pairs sorts by entries.
    """
    names = lattice.names
    root, kids = _dag(lattice)
    alive = set(kids[root].values()) if mark_right_extendable else ()
    found = []
    stack = [(root, (), alive)]
    while stack:
        mask, shown, alive = stack.pop()
        step = kids[mask]
        if shown and (not step or not maximal_only):
            found.append((shown, bool(alive) if mark_right_extendable else None))
        walks = [kids[w] for w in alive] if step else ()
        for j, child in step.items():
            moved = {walk[j] for walk in walks if j in walk}
            stack.append((child, (names[j],) + shown, moved))
    found.sort()
    return [KdSequence(entries, flag) for entries, flag in found]


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
        alphabet = tuple(sorted(set(self.labels.values())))
        return LabeledPoset(
            poset=self.poset,
            labels=dict(self.labels),
            alphabet=alphabet,
            label_leq=self.label_leq,
        )


def label_clo_up(lattice: Lattice) -> CloLabeling:
    """Label the upper core label order by recursing through upper cores.

    Each cover u below the top of the derived order is labeled kappa_bar(u);
    the ideal below u is identified with the derived order of the interval
    [j, pop_up(j)] for j = kappa_bar(u) and labeled recursively.  Any failure
    of the identification raises RecursionMismatch; the construction is only
    known to succeed example-by-example.
    """
    derived = clo_up(lattice)
    names = lattice.names
    by_mask = {mask: names[x] for x, mask in enumerate(_lab_up_masks(lattice))}
    keyed = _recursive_labels(lattice)

    covers = set(derived.covers_named())
    labels: dict[tuple[str, str], str] = {}
    for (mask_lo, mask_hi), lbl in keyed.items():
        lo = by_mask.get(mask_lo)
        hi = by_mask.get(mask_hi)
        if lo is None or hi is None:
            raise RecursionMismatch(
                "recursive label set does not match any element of the derived order"
            )
        if (lo, hi) not in covers:
            raise RecursionMismatch(
                f"recursion labeled ({lo!r}, {hi!r}), which is not a cover of the derived order"
            )
        labels[(lo, hi)] = names[lbl]
    if len(labels) != len(covers):
        missing = sorted(covers - set(labels))
        raise RecursionMismatch(f"covers left unlabeled: {missing[:4]}")

    return CloLabeling(poset=derived, labels=labels, label_leq=_inherited_label_leq(lattice))


def _recursive_labels(lattice: Lattice) -> dict[tuple[int, int], int]:
    """Cover label indices keyed by the (lab_up(lower), lab_up(upper)) masks.

    The recursion runs depth first on nodes (a, b) of L, visiting children
    in the name order of the coatoms that lead to them, so errors surface
    in the order of the rebuilt recursion.  Each key is written once: a
    node yields keys (child mask, its own mask); the child masks of one
    node are distinct, or ``_node_steps`` raises InconsistentLabels; and
    ``reps`` gives each mask one node, expanded once.  So the keys come in
    the order of their depth-first writes, the order a merge of each
    child's labels into its parent's would give.
    """
    root = _root(lattice)
    reps: dict[int, Node] = {}
    labels: dict[tuple[int, int], int] = {}
    seen = {root}
    stack = [_node_steps(lattice, reps, root)]
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            continue
        key, labels[key], child = step
        if child not in seen:
            seen.add(child)
            stack.append(_node_steps(lattice, reps, child))
    return labels


def _node_steps(lattice: Lattice, reps: dict[int, Node], node: Node):
    """Yield (key, label, child) for each coatom of the top of cloUp([a, b]).

    cloUp([a, b]) compares the masks lab_up(x) of the upper cores
    [k, pop_up(k)], k = kappa_bar(x), all taken inside [a, b].  As [a, b]
    is semidistributive, kappa_bar is a bijection of it with inverse
    kappa_bar_d (Barnard, EJC 2019), so the lab_up masks are the masks of
    the upper cores of the members k themselves; the distinctness check,
    the top and the maximal masks below it are taken on those.  The top
    holds the union of all masks, which is the node's own mask, as a
    cover u < v of [a, b] lies in the upper core of u.  A coatom's k must
    be a cji of [a, b]; its one lower cover there has an L-label j, and
    k = a v j, so the child for j is k's own upper core and the key
    (lab_up(u), lab_up(top)) starts with the child's mask.  The coatom
    u = kappa_bar_d(k) is computed only for the maximal k, to order
    coatoms and word errors by name.  Only the children enter ``reps``,
    so each mask keeps the first node the recursion meets with it.  The
    distinctness check cannot fire on an SD lattice (proof in the
    ``cores`` module docstring); it stays as a guard.
    """
    a, b = node
    if a == b:
        return
    names, up = lattice.names, lattice.up
    pops = {k: _pop_up_idx(lattice, k, b) for k in _bits(up[a] & lattice.down[b])}
    masks = {k: _labels_between(lattice, k, y) for k, y in pops.items()}
    if len(set(masks.values())) != len(masks):
        raise InconsistentLabels("cloUp: label sets do not separate elements")
    full = _labels_between(lattice, a, b)
    tops = [k for k, mask in masks.items() if mask == full]
    if not tops:
        maxs = sorted(names[_kappa_bar_d_within(lattice, a, b, k)] for k in _maximal(list(masks), masks))
        raise RecursionMismatch(
            f"derived order has no unique top element (no unique maximum: {_name_list(maxs)}); "
            "the lattice is not a nuclear interval"
        )
    (top,) = tops
    maximal = _maximal([k for k in masks if k != top], masks)
    coatoms = {_kappa_bar_d_within(lattice, a, b, k): k for k in maximal}
    for u in sorted(coatoms, key=names.__getitem__):
        k = coatoms[u]
        lower = [v for v in lattice._dcov[k] if up[a] >> v & 1]
        if len(lower) != 1:
            raise RecursionMismatch(
                f"kappa_bar({names[u]!r}) = {names[k]!r} is not completely join-irreducible"
            )
        j = _j_label_idx(lattice, lower[0], k)
        yield (masks[k], full), j, reps.setdefault(masks[k], (k, pops[k]))


def _maximal(members: list[int], masks: dict[int, int]) -> list[int]:
    """Members whose (distinct) masks are not strictly inside another's."""
    kept: list[int] = []
    for x in sorted(members, key=lambda x: -masks[x].bit_count()):
        if not any(masks[x] & ~masks[y] == 0 for y in kept):
            kept.append(x)
    return kept
