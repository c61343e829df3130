"""EL-labeling verification, extremality, and label-order search.

Conventions follow the decreasing form: a maximal chain is *increasing*
when the label of each cover is strictly greater (in the supplied total
order) than the label of the cover above it, and chain words are compared
in reflected lexicographic order, i.e. ordinary lexicographic order read
from the top cover downwards.  ``flip=True`` switches both conventions to
the classical increasing/left-to-right form.

Write a chain's *key* for the rank word it is compared by: the ranks read
from the top cover down, or from the bottom cover up under ``flip``.  In
both conventions a chain is increasing exactly when its key is strictly
increasing.

Verifier.  ``is_el_labeling`` enumerates no chains on the way to a yes.
Without ``flip`` it fixes each lower end lo and walks [lo, top] upwards in
index order (a linear extension); with ``flip`` it fixes each upper end hi
and walks [bot, hi] downwards.  Either way the key of a chain from the fixed
end to a node v starts with the rank of the cover at v, so a chain that
reaches v by a cover of rank r from u has the key (r,) + (its key at u).
Each node carries, over the chains from the fixed end to it:

* the number of increasing chains, keyed by their first key entry: such a
  chain extended by a cover of rank r stays increasing when r is below
  that entry;
* the least key, the least of (r,) + (least key at u) over the covers
  entering v.  Prepending is right because keys that start with the same r
  compare as their tails do.  Appending r to the least key at u would be
  wrong on an ungraded poset: a key sorts before its own extensions, so the
  least key at u, say (1,), may give (1, 5) while another chain's (1, 0)
  gives the smaller (1, 0, 5).

[lo, hi] is EL when it has exactly one increasing chain and its least key
is strictly increasing, for then the least chain is the increasing one.
The work is a sum over the fixed ends of the covers each walk meets, each
times the height.  The walk yields each failing interval as it meets it:
``is_el_labeling`` takes the name-least of them, which alone is handed to
the chain enumerator to build the witness, and ``find_el_order`` stops at
the first.

Internally a label is its position in the sorted alphabet, numbered once
per public call, and an order is the list ``rank`` of each position's
place in it; names come back only in a returned order and in a witness.

Search.  ``find_el_order`` places labels depth-first in the order of
``itertools.permutations(sorted(alphabet))``.  A placed prefix fixes every
comparison but those between two unplaced labels, as an unplaced label
ranks m, after every placed one, for an alphabet of m labels.  A prefix is
dropped as soon as

* it places a label before one that ``label_leq`` requires to come
  earlier, or
* an interval whose maximal chains all have length 2 fails EL with at most
  one of its labels unplaced; that label ranks last among them in every
  completion, so the verdict is final.

Both fail every order that extends the prefix, so the search meets the
same orders that pass, in the same sequence, as a loop over all
permutations.  A complete candidate is verified by the dynamic program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .core import Lattice, Poset, _bits
from .errors import BadParameter, ChainCapExceeded, MissingLabel, SizeLimitExceeded
from .irreducibles import _inherited_label_leq, _label_context, cover_labeling, irreducible_table


@dataclass(frozen=True)
class LabeledPoset:
    """A finite bounded poset whose covers carry labels from a finite alphabet.

    The alphabet is a set of labels, given as a tuple of distinct ones; a
    repeated label raises BadParameter.

    ``label_leq`` optionally records the strict partial order the labels
    inherit when they are themselves lattice elements; the order search uses
    it as a pruning constraint.
    """

    poset: Poset
    labels: dict[tuple[str, str], str]
    alphabet: tuple[str, ...] = ()
    label_leq: Optional[frozenset[tuple[str, str]]] = None

    def __post_init__(self):
        self.poset.bottom_name()
        self.poset.top_name()
        names, covers, labels = self.poset.names, self.poset.covers, self.labels
        for a, b in covers:
            if (names[a], names[b]) not in labels:
                # only at the first unlabeled cover are the missing ones collected and sorted
                missing = [(names[a], names[b]) for a, b in covers if (names[a], names[b]) not in labels]
                raise MissingLabel(f"covers without labels: {sorted(missing)[:4]}")
        if len(labels) != len(covers):
            # every cover has a label, so some key is not a cover
            cover_set = {(names[a], names[b]) for a, b in covers}
            raise MissingLabel(f"labels on non-covers: {[c for c in labels if c not in cover_set][:4]}")
        if not self.alphabet:
            object.__setattr__(self, "alphabet", tuple(sorted(set(self.labels.values()))))
        if len(set(self.alphabet)) != len(self.alphabet):
            raise BadParameter("the label alphabet repeats a label")
        if set(self.labels.values()) - set(self.alphabet):
            raise MissingLabel("some cover label is outside the alphabet")


@dataclass(frozen=True)
class ELWitness:
    """Why an interval violates the EL property."""

    interval: tuple[str, str]
    kind: str  # "zero-increasing" | "two-increasing" | "not-lex-least"
    chains: tuple[tuple[str, ...], ...]
    words: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class ELReport:
    ok: bool
    witness: Optional[ELWitness] = None

    def __bool__(self) -> bool:
        return self.ok


def _maximal_chains(poset: Poset, lo: int, hi: int, chain_cap: int) -> list[tuple[int, ...]]:
    """All maximal chains from lo to hi inside the interval, as index tuples.

    Raises ChainCapExceeded, before any chain is built, when there are more
    than ``chain_cap``: the members are counted in index order, a linear
    extension, each by the counts of its lower covers inside the interval.
    """
    within = poset.up[lo] & poset.down[hi]
    count = {lo: 1}
    for v in _bits(within & ~(1 << lo)):
        count[v] = sum(count[u] for u in poset._dcov[v] if u in count)
    if count[hi] > chain_cap:
        raise ChainCapExceeded(f"interval has more than {chain_cap} maximal chains")
    chains: list[tuple[int, ...]] = []
    stack = [(lo, (lo,))]
    while stack:
        node, path = stack.pop()
        if node == hi:
            chains.append(path)
            continue
        for nxt in reversed(poset._ucov[node]):
            if within >> nxt & 1:
                stack.append((nxt, path + (nxt,)))
    return chains


# (reach, steps): reach[e] is the set the walk from the fixed end e spans,
# steps[v] the covers the walk enters v by, as (neighbour, label position).
_Walk = tuple[list[int], list[list[tuple[int, int]]]]


def _walk(lp: LabeledPoset, position: dict[str, int], flip: bool) -> _Walk:
    """Upwards from each lower end, or with ``flip`` downwards from each upper end."""
    p, labels = lp.poset, lp.labels
    names = p.names
    if flip:
        steps = [[(u, position[labels[(names[v], names[u])]]) for u in p._ucov[v]] for v in range(p.n)]
        return p.down, steps
    return p.up, [[(u, position[labels[(names[u], names[v])]]) for u in p._dcov[v]] for v in range(p.n)]


def _failures(lp: LabeledPoset, walk: _Walk, rank: list[int], flip: bool) -> Iterator[tuple[int, int]]:
    """Each interval that is not EL under ``rank``, as an index pair (lo, hi), in walk order."""
    reach, steps = walk
    ranked = [[(u, rank[label]) for u, label in s] for s in steps]
    for root in range(lp.poset.n):
        nodes = list(_bits(reach[root]))
        if flip:
            nodes.reverse()
        rising = {root: {math.inf: 1}}  # increasing chains by the first key entry
        least = {root: ()}
        for v in nodes[1:]:
            counts, key = {}, None
            for u, r in ranked[v]:
                if u not in least:
                    continue
                for first, c in rising[u].items():
                    if r < first:
                        counts[r] = counts.get(r, 0) + c
                word = (r, *least[u])
                if key is None or word < key:
                    key = word
            rising[v], least[v] = counts, key
            if sum(counts.values()) != 1 or any(a >= b for a, b in zip(key, key[1:])):
                yield (v, root) if flip else (root, v)


def _witness(
    lp: LabeledPoset, position: dict[str, int], rank: list[int], flip: bool, chain_cap: int, lo: int, hi: int
) -> ELWitness:
    """Enumerate the maximal chains of the failing interval [lo, hi] to show why."""
    p = lp.poset
    names = p.names
    scored = []
    for chain in _maximal_chains(p, lo, hi, chain_cap):
        word = tuple(lp.labels[(names[a], names[b])] for a, b in zip(chain, chain[1:]))
        ranks = tuple(rank[position[w]] for w in word)
        key = ranks if flip else ranks[::-1]
        scored.append((key, all(a < b for a, b in zip(key, key[1:])), chain, word))
    interval = (names[lo], names[hi])
    increasing = [s for s in scored if s[1]]
    if len(increasing) != 1:
        shown = increasing[:2] if increasing else sorted(scored)[:2]
        return ELWitness(
            interval=interval,
            kind="two-increasing" if increasing else "zero-increasing",
            chains=tuple(tuple(names[i] for i in s[2]) for s in shown),
            words=tuple(s[3] for s in shown),
        )
    inc, best = increasing[0], min(scored)
    return ELWitness(
        interval=interval,
        kind="not-lex-least",
        chains=(tuple(names[i] for i in inc[2]), tuple(names[i] for i in best[2])),
        words=(inc[3], best[3]),
    )


def is_el_labeling(
    lp: LabeledPoset,
    order: Iterable[str],
    flip: bool = False,
    chain_cap: int = 10**6,
) -> ELReport:
    """Check that every interval has a unique increasing, lex-least maximal chain.

    The witness, if any, belongs to the lexicographically least failing
    interval (by name pair).  ``flip`` selects the classical convention.
    Raises BadParameter when ``order`` is not a permutation of the alphabet,
    and ChainCapExceeded when the witness interval has more than
    ``chain_cap`` maximal chains; the cap bounds only the chains the
    witness lists, so a labeling is never failed for its chain count.
    """
    order = tuple(order)
    alphabet = sorted(lp.alphabet)
    if sorted(order) != alphabet:
        raise BadParameter("order must be a permutation of the label alphabet")
    position = {label: i for i, label in enumerate(alphabet)}
    # the inverse permutation: rank[i] is where alphabet[i] stands in order
    rank = sorted(range(len(order)), key=order.__getitem__)
    names = lp.poset.names
    failures = _failures(lp, _walk(lp, position, flip), rank, flip)
    failing = min(failures, key=lambda pair: (names[pair[0]], names[pair[1]]), default=None)
    if failing is None:
        return ELReport(ok=True)
    return ELReport(ok=False, witness=_witness(lp, position, rank, flip, chain_cap, *failing))


def lattice_j_labeling(lattice: Lattice) -> LabeledPoset:
    """The lattice labeled by its own cover j-labels, with the inherited order."""
    return LabeledPoset(
        poset=lattice,
        labels=cover_labeling(lattice).jlabel,
        alphabet=_label_context(lattice).labels,
        label_leq=_inherited_label_leq(lattice),
    )


def is_extremal(lattice: Lattice) -> bool:
    """Whether the length of the lattice equals |cji|, which is |cmi| as kappa is a bijection.

    That is Markowsky's definition of an extremal lattice ("Primes,
    irreducibles and extremal lattices", Order 1992); the length is the
    number of covers in a longest chain.  A longest chain then has j-labels
    exhausting cji, with no search: in a semidistributive lattice the
    j-labels along a maximal chain are distinct, for if a cover u < v and a
    later cover u' < v' had the same label j, then j <= v <= u', so
    u' v j = u' and not v'.  So a chain of length |cji| uses every label.
    Raises NotSemidistributive, as irreducible_table does.
    """
    return lattice.heights[lattice._top] == len(irreducible_table(lattice).cji)


def _length_two_keys(
    lp: LabeledPoset, position: dict[str, int], flip: bool
) -> list[list[tuple[int, int]]]:
    """For each interval whose maximal chains all have length 2, their keys as label positions.

    [lo, hi] is such an interval when every element strictly inside it
    covers lo: those elements form an antichain, so hi covers each of them.
    The chain lo < m < hi with labels (x, y) has the key (y, x), or (x, y)
    under ``flip``; either way it is increasing when the key's first label
    ranks below its second.
    """
    p, labels = lp.poset, lp.labels
    names, ucov = p.names, p._ucov
    out = []
    for lo in range(p.n):
        covers = tops = 0
        for m in ucov[lo]:
            covers |= 1 << m
            for hi in ucov[m]:
                tops |= 1 << hi
        for hi in _bits(tops):
            inside = p.up[lo] & p.down[hi] & ~(1 << lo | 1 << hi)
            if inside & ~covers:
                continue
            keys = []
            for m in _bits(inside):
                x = position[labels[(names[lo], names[m])]]
                y = position[labels[(names[m], names[hi])]]
                keys.append((x, y) if flip else (y, x))
            out.append(keys)
    return out


def _length_two_passes(keys: list[tuple[int, int]], rank: list[int]) -> bool:
    """EL for a length-2 interval whose keys are label positions ranked by ``rank``."""
    ranked = [(rank[x], rank[y]) for x, y in keys]
    least = min(ranked)
    return least[0] < least[1] and sum(a < b for a, b in ranked) == 1


def find_el_order(
    lp: LabeledPoset,
    size_cap: int = 9,
    flip: bool = False,
) -> Optional[tuple[str, ...]]:
    """The first total label order, in permutation order, certifying EL-ness.

    Orders are tried as ``itertools.permutations(sorted(alphabet))`` lists
    them, pruned as the module docstring says; pruning drops only orders
    that fail, and every order returned has been verified.  When the labels
    carry an inherited order ``label_leq``, only orders refining its reverse
    are searched.  That is a restriction of the search, not a necessary
    condition for EL: a labeling may have certifying orders outside it.
    None means the space searched, restricted or not, holds no certifying
    order.
    """
    alphabet = sorted(lp.alphabet)
    m = len(alphabet)
    if m > size_cap:
        raise SizeLimitExceeded(f"alphabet of size {m} exceeds the search cap {size_cap}")
    position = {label: i for i, label in enumerate(alphabet)}
    # a < b inherited forces b to come earlier than a in the total order
    earlier: list[list[int]] = [[] for _ in range(m)]
    for a, b in lp.label_leq or ():
        if a != b and a in position and b in position:
            earlier[position[a]].append(position[b])
    watched: list[list[tuple[set[int], list[tuple[int, int]]]]] = [[] for _ in range(m)]
    for keys in _length_two_keys(lp, position, flip):
        used = {label for key in keys for label in key}
        if len(used) == 1:
            return None  # every key is (x, x), which no order makes increasing
        for label in used:
            watched[label].append((used, keys))

    # rank[i] is the place of label i in the prefix, or m while it is unplaced
    rank = [m] * m
    prefix: list[int] = []

    def fits(i: int) -> bool:
        """Whether label i, just ranked last, keeps every order extending the prefix alive."""
        return all(rank[b] < m for b in earlier[i]) and all(
            sum(rank[x] == m for x in used) != 1 or _length_two_passes(keys, rank)
            for used, keys in watched[i]
        )

    walk = _walk(lp, position, flip)
    pending = [iter(range(m))]
    while pending:
        if len(prefix) == m and next(_failures(lp, walk, rank, flip), None) is None:
            return tuple(alphabet[i] for i in prefix)
        for i in pending[-1]:
            if rank[i] < m:
                continue
            rank[i] = len(prefix)
            if fits(i):
                prefix.append(i)
                pending.append(iter(range(m)))
                break
            rank[i] = m
        else:
            pending.pop()
            if prefix:
                rank[prefix.pop()] = m
    return None
