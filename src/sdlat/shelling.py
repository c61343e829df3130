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
Without ``flip`` it fixes each lower end lo, the *root*, and walks
[lo, top] upwards in index order (a linear extension); with ``flip`` it
fixes each upper end hi and walks [bot, hi] downwards.  Either way the key
of a chain from the root to a node v starts with the rank of the cover at
v, so a chain that reaches v by a cover of rank r from u has the key
(r,) + (its key at u).  [lo, hi] is EL when it has exactly one increasing
chain and its least key is strictly increasing, for then the least chain
is the increasing one.

The mask pass decides every root at once, in one walk over the nodes that
holds sets of roots as int masks.  For each rank r of a cover entering a
node v it finds:

* the roots with one, and with at least two, increasing chains to v whose
  key starts with r.  The cover (u, r) extends the increasing chains at u
  whose key starts above r, and the counts saturate at two
  (``twos |= t | ones & o; ones |= o``); the root u itself has one chain
  to u, the empty one, whose key starts above every rank;
* the roots whose least key at v starts with r, and those of them whose
  least key is increasing.  Here the covers entering v must carry
  distinct labels, and so distinct ranks.  Then keys that start with
  different ranks compare by that rank alone, so a root's least chain
  to v enters v by the lowest-ranked cover (u, r) with the root below u,
  and it is increasing exactly when the root's least key at u is
  increasing and starts above r.  So the covers entering v, taken in
  ascending rank, each claim the roots below u that no lower-ranked
  cover claimed.

Each node keeps these sets as unions over the ranks from r upwards, so a
cover of rank r reads the roots whose key at u starts above r in one
lookup.  (root, v) fails unless the root is in ``ones & ~twos & inc`` over
all ranks.  Roots go in chunks of ``_CHUNK``, which bounds the width of the
masks, and a node's sets are dropped once the last cover that leaves it has
read them.  The work is the covers times the number of chunks, each step a
few mask operations.

Tie fallback.  Where one node is entered by two covers with one label
(``_walk`` decides this once per walk), the least key at v depends on the
least keys at both lower ends, which masks do not carry, and a dynamic
program per root runs instead.  Each node holds the number of increasing
chains by their first key entry, and the least key, the least of
(r,) + (least key at u) over the covers entering v.  Prepending is right
because keys that start with the same r compare as their tails do.
Appending r to the least key at u would be wrong on an ungraded poset: a
key sorts before its own extensions, so the least key at u, say (1,), may
give (1, 5) while another chain's (1, 0) gives the smaller (1, 0, 5).  A
key is one integer, read as in ``enumerate_kd_exceptional``: rank r is the
digit r + 1 in base B = m + 1, for an alphabet of m labels, and a key of
k ranks is its digits padded on the right with zeros to the height W of
the poset; zeros sort below every digit, so a prefix sorts before its
extensions.  Prepending r to the key x gives (r + 1) * B**(W - 1) + x // B.
Beside it each node holds the key's first digit if the key is increasing,
else 0 (the empty key's is B, above every digit), and a chain extended by
rank r stays increasing when r + 1 is below it.  The work is a sum over
the roots of the covers each walk meets, each times a W-digit integer
operation.

Either pass yields each failing interval as it meets it:
``is_el_labeling`` takes the name-least of them, which alone is handed to
the chain enumerator to build the witness, and ``find_el_order`` stops at
the first.

Internally a label is its position in the sorted alphabet, numbered once
per labeled poset, and an order is the list ``rank`` of each position's
place in it; names come back only in a returned order and in a witness.

Search.  ``find_el_order`` places labels depth-first in the order of
``itertools.permutations(sorted(alphabet))``.  A placed prefix fixes every
comparison but those between two unplaced labels, as an unplaced label
ranks m, after every placed one, for an alphabet of m labels.  A prefix is
dropped as soon as an interval whose maximal chains all have length 2 fails
EL with at most one of its labels unplaced; that label ranks last among them
in every completion, so the verdict is final.

That fails every order that extends the prefix, so the search meets the
same orders that pass, in the same sequence, as a loop over all
permutations.  The length-2 intervals and their keys are read off the
entering covers of the verifier's walk, which the search builds once, and
a complete candidate is verified by the verifier's pass on that walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional

from .core import Lattice, Poset, _bits
from .errors import BadParameter, ChainCapExceeded, MissingLabel, SizeLimitExceeded
from .irreducibles import _label_context, cover_labeling


@dataclass(frozen=True)
class LabeledPoset:
    """A finite bounded poset whose covers carry labels.

    ``labels`` maps each cover, as a name pair, to its label, and is kept
    as a read-only copy, rebuilt when the labeled poset is pickled or
    copied.  ``alphabet`` is the sorted set of labels, and
    ``_positions[k]`` is the position in it of the label of the cover
    ``poset.covers[k]``: this is the one place names become positions.
    """

    poset: Poset
    labels: Mapping[tuple[str, str], str]
    alphabet: tuple[str, ...] = field(init=False)
    _positions: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.poset.bottom_name()
        self.poset.top_name()
        names, covers, labels = self.poset.names, self.poset.covers, dict(self.labels)
        try:
            words = [labels[names[a], names[b]] for a, b in covers]
        except KeyError:
            # only when a cover is unlabeled are the missing ones collected and sorted
            missing = [(names[a], names[b]) for a, b in covers if (names[a], names[b]) not in labels]
            raise MissingLabel(f"covers without labels: {sorted(missing)[:4]}") from None
        if len(labels) != len(covers):
            # every cover has a label, so some key is not a cover
            cover_set = {(names[a], names[b]) for a, b in covers}
            raise MissingLabel(f"labels on non-covers: {[c for c in labels if c not in cover_set][:4]}")
        alphabet = tuple(sorted(set(words)))
        position = {label: i for i, label in enumerate(alphabet)}
        object.__setattr__(self, "labels", MappingProxyType(labels))
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "_positions", tuple(map(position.__getitem__, words)))

    def __reduce__(self):
        """Pickle and copy as a fresh construction, which rebuilds the read-only labels."""
        return LabeledPoset, (self.poset, dict(self.labels))


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


# (reach, other, steps, tied): reach[e] is the set the walk from the fixed
# end e spans, other the opposite table (down when reach is up, up when it
# is down), steps[v] the covers the walk enters v by, as (neighbour, label
# position), and tied whether two covers entering one node share a label.
_Walk = tuple[tuple[int, ...], tuple[int, ...], list[list[tuple[int, int]]], bool]

# roots per mask pass: bounds the width of its masks, and so its memory
_CHUNK = 1024


def _walk(lp: LabeledPoset, flip: bool) -> _Walk:
    """Upwards from each lower end, or with ``flip`` downwards from each upper end."""
    p = lp.poset
    steps: list[list[tuple[int, int]]] = [[] for _ in range(p.n)]
    for (lo, hi), q in zip(p.covers, lp._positions):
        if flip:
            lo, hi = hi, lo
        steps[hi].append((lo, q))
    tied = len({(v, q) for v, s in enumerate(steps) for _, q in s}) < len(p.covers)
    return (p.down, p.up, steps, tied) if flip else (p.up, p.down, steps, tied)


def _failures(walk: _Walk, rank: list[int], flip: bool) -> Iterator[tuple[int, int]]:
    """Each interval that is not EL under ``rank``, as an index pair (lo, hi)."""
    return (_tied_failures if walk[3] else _mask_failures)(walk, rank, flip)


def _mask_failures(walk: _Walk, rank: list[int], flip: bool) -> Iterator[tuple[int, int]]:
    """The mask pass of the module docstring, for a walk with no node entered twice by one label."""
    reach, _, steps, _ = walk
    n, empty = len(reach), len(rank)  # the empty key starts above every rank
    last = [0] * n  # the last node in walk order that a cover from u enters
    for v in range(n - 1, -1, -1) if flip else range(n):
        for u, _ in steps[v]:
            last[u] = v
    for c0 in range(0, n, _CHUNK):
        c1 = min(c0 + _CHUNK, n)
        # Root c0 + b is bit b.  sets[v] is one flat list: for each rank f
        # of a cover entering v, descending after the empty key's, the four
        # entries f, ones, twos, inc.  ones and twos hold the roots with one
        # and with at least two increasing chains whose key starts at f or
        # above, inc those whose least key is increasing and starts there.
        # Then -1, which ends the scan for a rank, and the roots below v.
        sets: dict[int, list[int]] = {}
        for v in range(c1 - 1, -1, -1) if flip else range(c0, n):
            claimed = 0
            claims = []
            for r, u in sorted([(rank[q], u) for u, q in steps[v]]):
                at = sets.pop(u, None) if last[u] == v else sets.get(u)
                if at is None:
                    continue
                k = 0
                while at[k + 4] > r:
                    k += 4
                roots = at[-1]
                claims.append((r, at[k + 1], at[k + 2], roots & ~claimed & at[k + 3]))
                claimed |= roots
            own = 1 << v - c0 if c0 <= v < c1 else 0
            if not claimed | own:
                continue
            ones, twos, inc = own, 0, own
            row = [empty, ones, twos, inc]
            for r, o, t, i in reversed(claims):
                twos |= t | ones & o
                ones |= o
                inc |= i
                row += (r, ones, twos, ones if inc == ones else inc)  # one mask where the sets agree
            roots = claimed | own
            row += (-1, ones if roots == ones else roots)
            sets[v] = row
            for b in _bits(claimed & ~(ones & ~twos & inc)):
                yield (v, c0 + b) if flip else (c0 + b, v)


def _tied_failures(walk: _Walk, rank: list[int], flip: bool) -> Iterator[tuple[int, int]]:
    """The per-root dynamic program, for a walk that enters some node twice by one label."""
    reach, _, steps, _ = walk
    n, base = len(reach), len(rank) + 1
    depth = [0] * n
    for v in range(n - 1, -1, -1) if flip else range(n):
        depth[v] = max([depth[u] + 1 for u, _ in steps[v]], default=0)
    top = base ** max(depth, default=0) // base
    ranked = [[(u, rank[q] + 1) for u, q in s] for s in steps]
    for root in range(n):
        nodes = list(_bits(reach[root]))
        if flip:
            nodes.reverse()
        rising = {root: {base: 1}}  # increasing chains by the first digit
        least = {root: (0, base)}  # the least key and its rise
        for v in nodes[1:]:
            counts, best = {}, None
            for u, d in ranked[v]:
                if u not in least:
                    continue
                for first, c in rising[u].items():
                    if d < first:
                        counts[d] = counts.get(d, 0) + c
                key, rise = least[u]
                key = d * top + key // base
                if best is None or key < best[0]:
                    best = (key, d if d < rise else 0)
            rising[v], least[v] = counts, best
            if sum(counts.values()) != 1 or not best[1]:
                yield (v, root) if flip else (root, v)


def _witness(lp: LabeledPoset, rank: list[int], flip: bool, chain_cap: int, lo: int, hi: int) -> ELWitness:
    """Enumerate the maximal chains of the failing interval [lo, hi] to show why."""
    p, alphabet = lp.poset, lp.alphabet
    names, position = p.names, dict(zip(p.covers, lp._positions))
    scored = []
    for chain in _maximal_chains(p, lo, hi, chain_cap):
        steps = [position[cover] for cover in zip(chain, chain[1:])]
        word = tuple(alphabet[q] for q in steps)
        ranks = tuple(rank[q] for q in steps)
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
    if tuple(sorted(order)) != lp.alphabet:
        raise BadParameter("order must be a permutation of the label alphabet")
    # the inverse permutation: rank[i] is where alphabet[i] stands in order
    rank = sorted(range(len(order)), key=order.__getitem__)
    names = lp.poset.names
    failures = _failures(_walk(lp, flip), rank, flip)
    failing = min(failures, key=lambda pair: (names[pair[0]], names[pair[1]]), default=None)
    if failing is None:
        return ELReport(ok=True)
    return ELReport(ok=False, witness=_witness(lp, rank, flip, chain_cap, *failing))


def lattice_j_labeling(lattice: Lattice) -> LabeledPoset:
    """The lattice labeled by its own cover j-labels."""
    return LabeledPoset(poset=lattice, labels=cover_labeling(lattice).jlabel)


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
    return lattice.heights[lattice._top] == len(_label_context(lattice).cji)


def _length_two_keys(walk: _Walk) -> list[list[tuple[int, int]]]:
    """For each interval whose maximal chains all have length 2, their keys as label positions.

    Each node e, each cover (m, r) entering it and each cover (s, q)
    entering m give the chain s, m, e of the walk from the fixed end s,
    whose key is (r, q) as the module docstring says: (y, x) for
    lo < m < hi labeled (x, y), or (x, y) under ``flip``.  Either way the
    chain is increasing when the key's first label ranks below its second.
    All maximal chains of [s, e] have length 2 exactly when s, e and the
    middles found make up the whole interval.
    """
    reach, other, steps, _ = walk
    out = []
    for e in range(len(reach)):
        found: dict[int, list[tuple[int, int]]] = {}
        for m, r in steps[e]:
            for s, q in steps[m]:
                found.setdefault(s, []).append((r, q))
        out += [keys for s, keys in found.items() if (reach[s] & other[e]).bit_count() == len(keys) + 2]
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
    that fail, and every order returned has been verified.  None means
    that no order of the alphabet certifies the labeling.
    """
    alphabet = lp.alphabet
    m = len(alphabet)
    if m > size_cap:
        raise SizeLimitExceeded(f"alphabet of size {m} exceeds the search cap {size_cap}")
    walk = _walk(lp, flip)
    watched: list[list[tuple[set[int], list[tuple[int, int]]]]] = [[] for _ in range(m)]
    for keys in _length_two_keys(walk):
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
        return all(
            sum(rank[x] == m for x in used) != 1 or _length_two_passes(keys, rank) for used, keys in watched[i]
        )

    pending = [iter(range(m))]
    while pending:
        if len(prefix) == m and next(_failures(walk, rank, flip), None) is None:
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
