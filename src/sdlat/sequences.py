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
verifier steps along its one path with ``_child``.  The listing goes one
step further: what a walk lists below a point depends only on its mask
and its alive right-extension walks, so each such state builds its list
of suffixes once, from its children's, and the results are sorted as
integer keys, not as tuples of names (``enumerate_kd_exceptional``).

The clo-up recursion also keeps a set of the masks met, and expands each
mask at the first node met with it, but it expands that node, not the
mask: it orders a node's coatoms and words its errors by the names of
the node's elements, and those differ between nodes with one mask.  A
depth-first walk expands a node's whole subtree before it meets the next
node with the same mask (a descendant has fewer labels), and the two
subtrees carry the same masks, so a walk with a node per interval meets
each failure first at the first node of its mask, where this walk meets
it too.  Every error class and message is therefore unchanged.  What the
recursion computes per member is shared across nodes: a member k of a
node with mask S has the intent S & above[k], the mask of the interval
[k, b], and k's upper-core mask is a function of that intent alone, so
one memo from intents to upper-core masks serves every node of a call
(``_node_steps``; tamari(8) has 8558 intents for 43 263 member steps).
The memo also names each coatom's label, and the child for it is the
``_child`` step, which the recursion takes only for a mask it expands.
The test oracles for this module, the walks with a node per interval
among them, live with the tests, not in the library.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from .core import Lattice, _bits, _lsb, _name_list, _name_tuple
from .cores import DerivedPoset, _lab_up_masks, _pop_up_idx, clo_up
from .errors import InconsistentLabels, NotJoinIrreducible, RecursionMismatch
from .irreducibles import (
    _above,
    _inherited_label_leq,
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

    A walk's state is its mask and its alive right-extension walks, a set
    of masks (walks that reach one mask go on as one).  What a walk lists
    from a state on, the suffixes of its paths, depends on the state
    alone, so each state's suffix list is built once, from its children's,
    in popcount order of the masks (a child's mask lacks the label that
    leads to it).  Sequences act from the right, so a suffix is displayed
    on the left of the entries walked before it.

    The listing sorts integers.  Label j gets the digit d(j), its rank in
    name order plus 1, and a display tuple (e_1, ..., e_m) the key
    sum d(e_i) * B**(W - i), with W the number of labels and B = W + 1; no
    sequence is longer than W, as each step drops a label.  Read in base B
    the key is the tuple's digits, padded on the right with zeros, which
    sort below every digit; so a prefix sorts before its extensions, and
    names are distinct, so keys sort exactly as the tuples do.  A suffix
    of length n extended by the label j that leads to it gets
    d(j) * B**(W - 1 - n) added.  Keys are kept doubled, with the
    right-extendable flag in the low bit, which does not change their order.
    """
    names = lattice.names
    root, kids = _dag(lattice)
    labels = sorted(_bits(root), key=names.__getitem__)
    digit = {j: d for d, j in enumerate(labels, 1)}
    base = len(labels) + 1
    weights = [2 * base**power for power in reversed(range(len(labels)))]
    start = (root, frozenset(kids[root].values()) if mark_right_extendable else frozenset())
    moves: dict[tuple[int, frozenset[int]], list] = {}
    stack = [start]
    while stack:
        state = stack.pop()
        if state in moves:
            continue
        mask, alive = state
        walks = [kids[w] for w in alive]
        moves[state] = [
            (j, (child, frozenset([walk[j] for walk in walks if j in walk]) if walks else alive))
            for j, child in kids[mask].items()
        ]
        stack.extend(child for _, child in moves[state])
    parents = Counter(child for step in moves.values() for _, child in step)
    # state -> suffix length -> (doubled keys, display tuples); a state's
    # lists go once its last parent has read them
    suffixes: dict[tuple[int, frozenset[int]], dict[int, tuple[list[int], list[tuple]]]] = {}
    for state in sorted(moves, key=lambda state: state[0].bit_count()):
        step = moves[state]
        own = not step or not maximal_only
        listed = suffixes[state] = {0: ([1 if state[1] else 0], [()])} if own else {}
        for j, child in step:
            entry = (names[j],)
            for length, (keys, tuples) in suffixes[child].items():
                add = digit[j] * weights[length]
                to_keys, to_tuples = listed.setdefault(length + 1, ([], []))
                to_keys += [key + add for key in keys]
                to_tuples += [left + entry for left in tuples]
            parents[child] -= 1
            if not parents[child]:
                del suffixes[child]
    found: dict[int, tuple] = {}
    for length, (keys, tuples) in suffixes[start].items():
        if length:
            found.update(zip(keys, tuples))
    if mark_right_extendable:
        return [KdSequence(found[key], key & 1 == 1) for key in sorted(found)]
    return [KdSequence(found[key]) for key in sorted(found)]


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
    """Label the upper core label order by recursing through upper cores.

    Each cover u below the top of the derived order is labeled kappa_bar(u);
    the ideal below u is identified with the derived order of the interval
    [j, pop_up(j)] for j = kappa_bar(u) and labeled recursively.  Any failure
    of the identification raises RecursionMismatch; the construction is only
    known to succeed example-by-example.
    """
    keyed = _recursive_labels(lattice)  # a lattice it rejects never pays for the cloUp build
    derived = clo_up(lattice)
    names = lattice.names
    by_mask = {mask: names[x] for x, mask in enumerate(_lab_up_masks(lattice))}

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
    in the order of the rebuilt recursion.  A child is expanded when its
    mask, the first half of its key, is met for the first time, so each
    mask is expanded at the first node met with it; a child's mask lacks
    the label that leads to it, so no child has the root's mask.  Each key
    is written once: a node yields keys (child mask, its own mask); the
    child masks of one node are distinct, or ``_node_steps`` raises
    InconsistentLabels; and each mask is expanded once.  So the keys come
    in the order of their depth-first writes, the order a merge of each
    child's labels into its parent's would give.  Every node reads and
    fills one memo of upper-core masks keyed by intents (``_node_steps``).
    A frame keeps its node, and the child for a label is built by
    ``_child``, as in the other walks, only when its mask is new.
    """
    labels: dict[tuple[int, int], int] = {}
    seen: set[int] = set()
    cores: dict[int, int] = {}
    root = _root(lattice)
    stack = [(root, _node_steps(lattice, root, cores))]
    while stack:
        node, steps = stack[-1]
        step = next(steps, None)
        if step is None:
            stack.pop()
            continue
        key, labels[key] = step
        if key[0] not in seen:
            seen.add(key[0])
            child = _child(lattice, *node, labels[key])
            stack.append((child, _node_steps(lattice, child, cores)))
    return labels


def _node_steps(lattice: Lattice, node: Node, cores: dict[int, int]):
    """Yield (key, label) for each coatom of the top of cloUp([a, b]).

    cloUp([a, b]) compares the masks lab_up(x) of the upper cores
    [k, pop_up(k)], k = kappa_bar(x), all taken inside [a, b].  As [a, b]
    is semidistributive, kappa_bar is a bijection of it with inverse
    kappa_bar_d (Barnard, EJC 2019), so the lab_up masks are the masks of
    the upper cores of the members k themselves; the distinctness check
    and the maximal masks below the top are taken on those.

    ``cores`` maps intents to upper-core masks and is shared by every node
    of one recursion.  A member k of a node with label mask S has the
    intent I = S & above[k], the label mask of the interval [k, b] of L.
    That interval is the concept lattice of (I, I, j <= kappa(j')), by the
    module docstring, so it is fixed by I up to an isomorphism that keeps
    the L-labels.  pop_up_[a,b](k) joins k with its upper covers below b,
    which are its upper covers in [k, b], and the upper-core mask labels
    the covers inside [k, pop_up_[a,b](k)]: both are read inside [k, b].
    So the upper-core mask is a function of I, whatever the node.

    The top must hold the node's own mask S, as a cover u < v of [a, b]
    lies in the upper core of u.  No member k > a holds S: some cover
    u < v <= k inside [a, k] has a label j in S, and j <= v <= k rules out
    kappa(j) >= k.  And a holds S exactly when pop_up(a) = b, because
    b = a v (join of S).  So cloUp has a top, a, exactly when a's upper
    core holds S.  Only the root can fail this: a child (k, y) has
    y = pop_up_[a,b](k), and pop_up_[k,y](k) = y, since every upper cover
    of k below b lies below y.

    One pass in decreasing popcount keeps each mask that lies inside no
    kept one: the maximal masks, as the masks are distinct.  It leaves a
    out when a is the top, so it finds the coatoms of cloUp, and keeps it
    otherwise, so it finds the maximal elements that the no-top error names.

    A coatom's k must be a cji of [a, b], and its label is then read off
    the memo.  For j in S, a v j is a member, and its intent is
    S & above[a v j] = S & above[j], as kappa(j') >= a for every j' in S;
    so ``label`` maps cores[S & above[j]], the mask of a v j, to j.  The
    map j -> a v j is a bijection onto the cji of [a, b] (module
    docstring), and member masks are distinct, so the keys of ``label``
    are the masks of those cji, and the mask of a cji k maps to the one j
    with a v j = k.  That is the j a scan of k's lower covers gives: k is
    a cji of [a, b] exactly when it has one lower cover u there, and by
    the label transfer the label k of u < k in [a, b] is a v j for the
    L-label j of u < k.  The child for j is then k's own upper core
    (k, pop_up_[a,b](k)), which is ``_child(a, b, j)``, and the key
    (lab_up(u), lab_up(top)) starts with the child's mask.  The coatom
    u = kappa_bar_d(k) is computed once, only for the maximal k, to order
    coatoms and word both errors by name.  The distinctness check cannot
    fire on an SD lattice (proof in the ``cores`` module docstring); it
    stays as a guard.
    """
    a, b = node
    names, up, down = lattice.names, lattice.up, lattice.down
    above = _above(lattice)
    full = down[b] & above[a]
    members = up[a] & down[b]
    by_mask: dict[int, int] = {}
    for k in _bits(members):
        intent = full & above[k]
        mask = cores.get(intent)
        if mask is None:
            mask = cores[intent] = _labels_between(lattice, k, _pop_up_idx(lattice, k, b))
        by_mask[mask] = k
    if len(by_mask) != members.bit_count():
        raise InconsistentLabels("cloUp: label sets do not separate elements")
    has_top = by_mask.get(full) == a
    kept: list[int] = []
    for mask in sorted(by_mask, key=int.bit_count, reverse=True):
        for other in kept:
            if not mask & ~other:
                break
        else:
            if not (has_top and mask == full):
                kept.append(mask)
    coatoms = {_kappa_bar_d_within(lattice, a, b, by_mask[mask]): mask for mask in kept}
    if not has_top:
        maxs = sorted(names[u] for u in coatoms)
        raise RecursionMismatch(
            f"derived order has no unique top element (no unique maximum: {_name_list(maxs)}); "
            "the lattice is not a nuclear interval"
        )
    label = {cores[full & above[j]]: j for j in _bits(full)}
    for u in sorted(coatoms, key=names.__getitem__):
        mask = coatoms[u]
        if mask not in label:
            raise RecursionMismatch(
                f"kappa_bar({names[u]!r}) = {names[by_mask[mask]]!r} is not completely join-irreducible"
            )
        yield (mask, full), label[mask]
