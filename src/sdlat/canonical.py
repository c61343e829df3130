"""Canonical join/meet representations and the canonical join complex.

The canonical join representation of x is the unique antichain A with
join x that refines every join representation of x (A refines B when each
a in A sits below some b in B).  In a finite semidistributive lattice the
canonical joinands are exactly the j-labels of the covers below x and the
canonical meetands the m-labels of the covers above x, so both are read
off the label masks.  The raw refinement definition, by exhaustive
enumeration, is the independent check and lives in ``tests/oracles.py``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .core import Lattice, _name_tuple, memoized
from .errors import BadParameter, NotJoinIrreducible, SizeLimitExceeded
from .irreducibles import _cover_label_masks, _decode, _label_context


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
    """Canonical join representation: the labels of the covers below x, from ``_joinands``."""
    i = lattice.index[x]
    return CanonicalRep(x, _joinands(lattice)[i])


def cmr(lattice: Lattice, x: str) -> CanonicalRep:
    """Canonical meet representation: kappa of the labels of the covers above x, from ``_meetands``."""
    i = lattice.index[x]
    return CanonicalRep(x, _meetands(lattice)[i], "meet")


@memoized
def _joinands(lattice: Lattice) -> list[tuple[str, ...]]:
    """The canonical joinands of every element by index, in name order; memoized.

    They are the names of the positions in the mask of the labels below
    each element (``_cover_label_masks``), each mask walked once.
    """
    return _decode(_label_context(lattice).labels, _cover_label_masks(lattice)[0])[0]


@memoized
def _meetands(lattice: Lattice) -> list[tuple[str, ...]]:
    """The canonical meetands of every element by index, in name order; memoized.

    Position p of the mask of the labels above x stands for the meetand
    kappa(j) of the label j at p, so each mask is walked once over the
    kappa names and the walk sorted.
    """
    names = lattice.names
    meetand = [names[k] for k in _label_context(lattice).kappa]
    return [tuple(sorted(walk)) for walk in _decode(meetand, _cover_label_masks(lattice)[1])[0]]


def joins_canonically(lattice: Lattice, elems) -> bool:
    """Pairwise compatibility test: i <= kappa(j) for all distinct i, j.

    Equivalent to the set being a face of the canonical join complex.
    """
    context = _label_context(lattice)
    elems = sorted(set(_name_tuple(elems)))
    for a in elems:
        if a not in context.position:
            raise NotJoinIrreducible(f"{a!r} is not completely join-irreducible")
    jdown, kappa = context.jdown, context.kappa
    positions = [context.position[a] for a in elems]
    return all(jdown[kappa[q]] >> p & 1 for p, q in itertools.permutations(positions, 2))


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
        elems = sorted(set(_name_tuple(elems)))
        if any(v not in self.vertices for v in elems):
            return False
        return all(self.has_edge(a, b) for a, b in itertools.combinations(elems, 2))

    def faces(self, max_size: Optional[int] = None, cap: int = 100000) -> list[tuple[str, ...]]:
        """Enumerate faces (cliques) by size, smallest first; bounded by ``cap``."""
        if max_size is not None and max_size < 0:
            raise BadParameter(f"max_size must be non-negative, got {max_size}")
        adj = {v: set() for v in self.vertices}
        for e in self.edges:
            a, b = sorted(e)
            adj[a].add(b)
            adj[b].add(a)
        out: list[tuple[str, ...]] = [()]
        frontier = [(v,) for v in self.vertices] if max_size != 0 else []
        while frontier:
            out.extend(frontier)
            if len(out) > cap:
                raise SizeLimitExceeded(f"more than {cap} faces")
            if max_size is not None and len(frontier[0]) >= max_size:
                break
            nxt = []
            for face in frontier:
                last = face[-1]
                common = set.intersection(*(adj[v] for v in face))
                for w in sorted(common):
                    if w > last:
                        nxt.append(face + (w,))
            frontier = nxt
        return out


def canonical_join_complex(lattice: Lattice) -> FlagComplex:
    """Vertices are cji(L); edges are the pairs joining canonically."""
    context = _label_context(lattice)
    labels, jdown, kappa = context.labels, context.jdown, context.kappa
    edges = frozenset(
        frozenset((labels[p], labels[q]))
        for p, q in itertools.combinations(range(len(labels)), 2)
        if jdown[kappa[q]] >> p & 1 and jdown[kappa[p]] >> q & 1
    )
    return FlagComplex(vertices=labels, edges=edges)
