"""Canonical join/meet representations and the canonical join complex.

The canonical join representation of x is the unique antichain A with
join x that refines every join representation of x (A refines B when each
a in A sits below some b in B).  In a finite semidistributive lattice the
canonical joinands are exactly the labels of the covers below x, which is
the fast path used here; ``cjr_oracle`` implements the raw refinement
definition by exhaustive enumeration and serves as the independent check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .core import Lattice, _bits
from .errors import NotJoinIrreducible, NoUniqueMax, SizeLimitExceeded
from .irreducibles import cover_labeling, irreducible_table


@dataclass(frozen=True)
class CanonicalRep:
    """An element together with its canonical joinands (or meetands).

    For ``kind == 'meet'`` the ``joinands`` field carries the canonical
    meetands, which are completely meet-irreducible.
    """

    element: str
    joinands: tuple[str, ...]
    kind: str = "join"


def cjr(lattice: Lattice, x: str) -> CanonicalRep:
    """Canonical join representation from the labels of the covers below x."""
    jlabel = cover_labeling(lattice).jlabel
    joinands = sorted(jlabel[(u, x)] for u in lattice.lower_covers(x))
    return CanonicalRep(element=x, joinands=tuple(joinands))


def cmr(lattice: Lattice, x: str) -> CanonicalRep:
    """Canonical meet representation from the labels of the covers above x."""
    mlabel = cover_labeling(lattice).mlabel
    meetands = sorted(mlabel[(x, v)] for v in lattice.upper_covers(x))
    return CanonicalRep(element=x, joinands=tuple(meetands), kind="meet")


def joins_canonically(lattice: Lattice, elems) -> bool:
    """Pairwise compatibility test: i <= kappa(j) for all distinct i, j.

    Equivalent to the set being a face of the canonical join complex.
    """
    table = irreducible_table(lattice)
    elems = sorted(set(elems))
    for a in elems:
        if a not in table.jstar:
            raise NotJoinIrreducible(f"{a!r} is not completely join-irreducible")
    for a, b in itertools.permutations(elems, 2):
        if not lattice.leq(a, table.kappa[b]):
            return False
    return True


class _OracleContext:
    """Joins of all element subsets of a small lattice, grouped by value."""

    def __init__(self, lattice: Lattice):
        n = lattice.n
        join = lattice._join_idx
        jm = [0] * (1 << n)
        jm[0] = lattice._bot
        for mask in range(1, 1 << n):
            low = (mask & -mask).bit_length() - 1
            jm[mask] = join(jm[mask & (mask - 1)], low)
        groups: dict[int, list[int]] = {i: [] for i in range(n)}
        for mask, v in enumerate(jm):
            groups[v].append(mask)
        self.join_of_mask = jm
        self.groups = groups
        strict_up = [lattice.up[i] & ~(1 << i) for i in range(n)]
        self.strict_up = strict_up

    def is_antichain(self, mask: int) -> bool:
        for i in _bits(mask):
            if self.strict_up[i] & mask:
                return False
        return True


def _oracle_context(lattice: Lattice, size_cap: int) -> _OracleContext:
    if lattice.n > size_cap:
        raise SizeLimitExceeded(
            f"cjr_oracle enumerates 2^{lattice.n} subsets; cap is {size_cap} elements"
        )
    ctx = lattice.memo.get("oracle_context")
    if ctx is None:
        ctx = lattice.memo["oracle_context"] = _OracleContext(lattice)
    return ctx


def cjr_oracle(lattice: Lattice, x: str, size_cap: int = 12) -> Optional[CanonicalRep]:
    """Literal canonical-join-representation search; no semidistributivity needed.

    Enumerates every antichain with join x and returns the one refining every
    join representation of x, or None when no such antichain exists (so the
    element has no canonical join representation).  Exponential in |L|.
    """
    ctx = _oracle_context(lattice, size_cap)
    xi = lattice.index[x]
    reps = ctx.groups[xi]
    n = lattice.n
    # ok[a]: every representation of x contains something above a.
    ok = [all(lattice.up[a] & mask for mask in reps) for a in range(n)]
    found = None
    for mask in reps:
        if not ctx.is_antichain(mask):
            continue
        if all(ok[a] for a in _bits(mask)):
            if found is not None:
                raise NoUniqueMax(f"two distinct canonical join representations of {x!r}")
            found = mask
    if found is None:
        return None
    joinands = tuple(sorted(lattice.names[a] for a in _bits(found)))
    return CanonicalRep(element=x, joinands=joinands)


@dataclass(frozen=True)
class FlagComplex:
    """The canonical join complex, stored as its 1-skeleton.

    The complex is flag: a set of vertices spans a face exactly when every
    pair of them is an edge, so faces are the cliques of the edge graph.
    """

    vertices: tuple[str, ...]
    edges: frozenset[frozenset[str]]

    def has_edge(self, a: str, b: str) -> bool:
        return frozenset((a, b)) in self.edges

    def is_face(self, elems) -> bool:
        elems = sorted(set(elems))
        if any(v not in self.vertices for v in elems):
            return False
        return all(self.has_edge(a, b) for a, b in itertools.combinations(elems, 2))

    def faces(self, max_size: Optional[int] = None, cap: int = 100000) -> list[tuple[str, ...]]:
        """Enumerate faces (cliques) by size, smallest first; bounded by ``cap``."""
        adj = {v: set() for v in self.vertices}
        for e in self.edges:
            a, b = sorted(e)
            adj[a].add(b)
            adj[b].add(a)
        out: list[tuple[str, ...]] = [()]
        frontier = [(v,) for v in self.vertices]
        while frontier:
            out.extend(frontier)
            if len(out) > cap:
                raise SizeLimitExceeded(f"more than {cap} faces")
            if max_size is not None and len(frontier[0]) >= max_size:
                break
            nxt = []
            for face in frontier:
                last = face[-1]
                common = set.intersection(*(adj[v] for v in face)) if face else set()
                for w in sorted(common):
                    if w > last:
                        nxt.append(face + (w,))
            frontier = nxt
        return out


def canonical_join_complex(lattice: Lattice) -> FlagComplex:
    """Vertices are cji(L); edges are the pairs joining canonically."""
    table = irreducible_table(lattice)
    edges = set()
    for a, b in itertools.combinations(table.cji, 2):
        if joins_canonically(lattice, (a, b)):
            edges.add(frozenset((a, b)))
    return FlagComplex(vertices=table.cji, edges=frozenset(edges))
