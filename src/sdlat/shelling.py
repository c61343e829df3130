"""EL-labeling verification, extremality, and label-order search.

Conventions follow the decreasing form: a maximal chain is *increasing*
when the label of each cover is strictly greater (in the supplied total
order) than the label of the cover above it, and chain words are compared
in reflected lexicographic order, i.e. ordinary lexicographic order read
from the top cover downwards.  ``flip=True`` switches both conventions to
the classical increasing/left-to-right form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .core import Lattice, Poset, _bits
from .errors import ChainCapExceeded, MissingLabel, SizeLimitExceeded
from .irreducibles import cover_labeling, irreducible_table


@dataclass(frozen=True)
class LabeledPoset:
    """A finite bounded poset whose covers carry labels from a finite alphabet.

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
        missing = [c for c in self.poset.covers_named() if c not in self.labels]
        if missing:
            raise MissingLabel(f"covers without labels: {missing[:4]}")
        extra = [c for c in self.labels if c not in set(self.poset.covers_named())]
        if extra:
            raise MissingLabel(f"labels on non-covers: {extra[:4]}")
        if not self.alphabet:
            object.__setattr__(self, "alphabet", tuple(sorted(set(self.labels.values()))))
        if set(self.labels.values()) - set(self.alphabet):
            raise MissingLabel("some cover label is outside the alphabet")

    def interval_restriction(self, lo: str, hi: str) -> "LabeledPoset":
        """The labeled subposet on [lo, hi]; covers and labels restrict."""
        p = self.poset
        members = [
            s for s in p.names if p.leq(lo, s) and p.leq(s, hi)
        ]
        member_set = set(members)
        covers = [
            (a, b) for a, b in p.covers_named() if a in member_set and b in member_set
        ]
        sub = Poset.from_covers(members, covers)
        return LabeledPoset(
            poset=sub,
            labels={c: self.labels[c] for c in covers},
            alphabet=self.alphabet,
            label_leq=self.label_leq,
        )


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


def _maximal_chains(poset: Poset, lo: int, hi: int, cap: int) -> list[tuple[int, ...]]:
    """All maximal chains from lo to hi inside the interval, as index tuples."""
    within = poset.down[hi]
    chains: list[tuple[int, ...]] = []
    stack = [(lo, (lo,))]
    while stack:
        node, path = stack.pop()
        if node == hi:
            chains.append(path)
            if len(chains) > cap:
                raise ChainCapExceeded(f"interval has more than {cap} maximal chains")
            continue
        for nxt in sorted(poset._ucov[node], reverse=True):
            if within >> nxt & 1:
                stack.append((nxt, path + (nxt,)))
    return chains


def is_el_labeling(
    lp: LabeledPoset,
    order: Iterable[str],
    flip: bool = False,
    chain_cap: int = 10**6,
) -> ELReport:
    """Check that every interval has a unique increasing, lex-least maximal chain.

    The witness, if any, belongs to the lexicographically least failing
    interval (by name pair).  ``flip`` selects the classical convention.
    """
    order = tuple(order)
    if sorted(order) != sorted(lp.alphabet):
        raise ValueError("order must be a permutation of the label alphabet")
    rank = {lbl: k for k, lbl in enumerate(order)}
    p = lp.poset
    label_of = {
        (p.index[a], p.index[b]): lp.labels[(a, b)] for a, b in lp.labels
    }

    def word_of(chain: tuple[int, ...]) -> tuple[str, ...]:
        return tuple(label_of[(chain[k], chain[k + 1])] for k in range(len(chain) - 1))

    def is_increasing(ranks: tuple[int, ...]) -> bool:
        if flip:
            return all(ranks[k] < ranks[k + 1] for k in range(len(ranks) - 1))
        return all(ranks[k] > ranks[k + 1] for k in range(len(ranks) - 1))

    def key_of(ranks: tuple[int, ...]) -> tuple[int, ...]:
        return ranks if flip else tuple(reversed(ranks))

    names = p.names
    for lo_name, hi_name in sorted(
        (names[i], names[j]) for i in range(p.n) for j in _bits(p.up[i] & ~(1 << i))
    ):
        lo, hi = p.index[lo_name], p.index[hi_name]
        chains = _maximal_chains(p, lo, hi, chain_cap)
        scored = []
        for chain in chains:
            word = word_of(chain)
            ranks = tuple(rank[w] for w in word)
            scored.append((key_of(ranks), is_increasing(ranks), chain, word))
        increasing = [s for s in scored if s[1]]
        if len(increasing) != 1:
            kind = "zero-increasing" if not increasing else "two-increasing"
            shown = increasing[:2] if increasing else sorted(scored)[:2]
            return ELReport(
                ok=False,
                witness=ELWitness(
                    interval=(lo_name, hi_name),
                    kind=kind,
                    chains=tuple(tuple(names[i] for i in s[2]) for s in shown),
                    words=tuple(s[3] for s in shown),
                ),
            )
        best = min(scored)
        inc = increasing[0]
        if best[0] < inc[0]:
            return ELReport(
                ok=False,
                witness=ELWitness(
                    interval=(lo_name, hi_name),
                    kind="not-lex-least",
                    chains=(
                        tuple(names[i] for i in inc[2]),
                        tuple(names[i] for i in best[2]),
                    ),
                    words=(inc[3], best[3]),
                ),
            )
    return ELReport(ok=True)


def lattice_j_labeling(lattice: Lattice) -> LabeledPoset:
    """The lattice labeled by its own cover j-labels, with the inherited order."""
    table = irreducible_table(lattice)
    labels = dict(cover_labeling(lattice).jlabel)
    inherited = frozenset(
        (a, b) for a in table.cji for b in table.cji if a != b and lattice.leq(a, b)
    )
    return LabeledPoset(
        poset=lattice,
        labels=labels,
        alphabet=table.cji,
        label_leq=inherited,
    )


def is_extremal(lattice: Lattice) -> bool:
    """Longest chain length equals |cji| = |cmi|, witnessed by a chain whose
    j-labels exhaust all of cji."""
    table = irreducible_table(lattice)
    length = lattice.heights[lattice._top]
    if length != len(table.cji) or length != len(table.cmi):
        return False
    jlabel = cover_labeling(lattice).jlabel
    target = set(table.cji)
    for chain in _chains_of_full_length(lattice):
        labels = {
            jlabel[(lattice.names[chain[k]], lattice.names[chain[k + 1]])]
            for k in range(len(chain) - 1)
        }
        if labels == target:
            return True
    return False


def _chains_of_full_length(lattice: Lattice):
    """Maximal chains from bottom to top realizing the lattice height.

    Depth-first with an explicit stack, so tall lattices do not hit the
    recursion limit.  Only steps that increase height by exactly one can
    reach full length.
    """
    heights, top, ucov = lattice.heights, lattice._top, lattice._ucov
    path = [lattice._bot]
    if path[0] == top:
        yield tuple(path)
        return
    pending = [iter(ucov[path[0]])]
    while pending:
        for nxt in pending[-1]:
            if heights[nxt] != heights[path[-1]] + 1:
                continue
            if nxt == top:
                yield (*path, nxt)
                continue
            path.append(nxt)
            pending.append(iter(ucov[nxt]))
            break
        else:
            pending.pop()
            path.pop()


def find_el_order(
    lp: LabeledPoset,
    size_cap: int = 9,
    flip: bool = False,
) -> Optional[tuple[str, ...]]:
    """Exhaustively search total label orders for one certifying EL-ness.

    When the labels carry an inherited lattice order, only orders refining
    its reverse are tried (a necessary condition for labelings by lattice
    elements).  Every candidate is verified with is_el_labeling before being
    returned, and None means the whole search space was exhausted.
    """
    alphabet = sorted(lp.alphabet)
    if len(alphabet) > size_cap:
        raise SizeLimitExceeded(
            f"alphabet of size {len(alphabet)} exceeds the search cap {size_cap}"
        )
    constraints = []
    if lp.label_leq:
        constraints = [(a, b) for a, b in lp.label_leq if a in alphabet and b in alphabet]
    for perm in itertools.permutations(alphabet):
        pos = {lbl: k for k, lbl in enumerate(perm)}
        # a < b inherited forces b to come earlier than a in the total order
        if any(pos[b] > pos[a] for a, b in constraints):
            continue
        if is_el_labeling(lp, perm, flip=flip):
            return perm
    return None
