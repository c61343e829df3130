"""Finite posets and lattices over named elements.

The order relation is stored as per-element bitmasks: bit ``j`` of
``down[i]`` means element ``j`` lies weakly below element ``i``.  Elements
are indexed along a linear extension (sorted by height, then name), so the
least element of any down-closed candidate set is always its lowest set
bit and the greatest element of an up-closed set is its highest set bit.
In a lattice that makes join(x, y) the lowest set bit of ``up[x] & up[y]``
and meet(x, y) the highest set bit of ``down[x] & down[y]``, so no n^2 join
or meet table is built; the lattice axioms are checked on pairs of upper
covers only (the cover-pair lemma in ``Poset._cover_pairs_have_joins``).
All public entry points speak element *names*; indices stay internal.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Iterable, Optional

from .errors import (
    CycleError,
    NoBoundsError,
    NotALattice,
    NotComparable,
    NotTransitiveReduction,
    SchemaError,
    SizeLimitExceeded,
)


def _lsb(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _msb(mask: int) -> int:
    return mask.bit_length() - 1


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _name_list(names) -> str:
    """Names for an error message: all of them up to six, else the first six and the count."""
    names = list(names)
    if len(names) <= 6:
        return str(names)
    return f"{str(names[:6])[:-1]}, ...] ({len(names)} in all)"


def memoized(fn):
    """Cache ``fn(lattice)`` in ``lattice.memo``, keyed by the function ``fn``.

    The name, qualified name and docstring are copied by hand and no
    ``__wrapped__`` is set, so the result stands in for ``fn`` everywhere.
    """

    def cached(lattice):
        memo = lattice.memo
        if fn not in memo:
            memo[fn] = fn(lattice)
        return memo[fn]

    cached.__name__, cached.__qualname__, cached.__doc__ = fn.__name__, fn.__qualname__, fn.__doc__
    return cached


def _cover_pairs(down: list[int]) -> list[tuple[int, int]]:
    """The covers (j, i) of transitive down-set masks indexed along a linear extension.

    The lower covers of i are found by taking the highest remaining element
    below i and dropping its down-set, one mask op per cover.
    """
    covers = []
    for i, mask in enumerate(down):
        rest = mask & ~(1 << i)
        while rest:
            j = rest.bit_length() - 1
            covers.append((j, i))
            rest &= ~down[j]
    return covers


class Poset:
    """A finite partially ordered set on distinct, non-empty names."""

    def __init__(self, names: tuple[str, ...], down: list[int], covers: tuple[tuple[int, int], ...]):
        """Wrap order data indexed along a linear extension.

        ``down`` must be the down-set masks generated by ``covers``, and
        every cover (lo, hi) must have lo < hi as indices.  Raises
        NotTransitiveReduction if any cover is implied by others.
        """
        self.n = len(names)
        self.names = names
        self.index = {s: i for i, s in enumerate(names)}
        self.down = down
        self.covers = covers
        self._ucov: list[list[int]] = [[] for _ in range(self.n)]
        self._dcov: list[list[int]] = [[] for _ in range(self.n)]
        for lo, hi in covers:
            self._ucov[lo].append(hi)
            self._dcov[hi].append(lo)
        self.up = self._union_above([1 << i for i in range(self.n)])
        self._check_reduction()
        self.heights = [0] * self.n
        for i in range(self.n):
            for lo in self._dcov[i]:
                self.heights[i] = max(self.heights[i], self.heights[lo] + 1)

    def _union_above(self, seeds: list[int]) -> list[int]:
        """out[u] is the union of seeds[v] over all v >= u, one mask op per cover."""
        out = list(seeds)
        ucov = self._ucov
        for u in range(self.n - 1, -1, -1):
            acc = out[u]
            for c in ucov[u]:
                acc |= out[c]
            out[u] = acc
        return out

    # -- construction ------------------------------------------------------

    @classmethod
    def from_covers(cls, names: Iterable[str], covers: Iterable[tuple[str, str]]) -> "Poset":
        """Build an instance of ``cls`` from an exact transitive reduction given by name pairs.

        Raises SchemaError for repeated, empty or unknown names, CycleError
        if the cover digraph is cyclic and NotTransitiveReduction if any
        listed cover is implied by others.
        """
        names = list(names)
        if len(set(names)) != len(names):
            raise SchemaError("element names must be unique")
        if any((not isinstance(s, str)) or not s for s in names):
            raise SchemaError("element names must be non-empty strings")
        raw_index = {s: i for i, s in enumerate(names)}
        raw_covers = []
        for lo, hi in covers:
            if lo not in raw_index or hi not in raw_index:
                raise SchemaError(f"cover ({lo!r}, {hi!r}) mentions an unknown element")
            if lo == hi:
                raise CycleError(f"cover ({lo!r}, {hi!r}) is a self-loop")
            raw_covers.append((raw_index[lo], raw_index[hi]))
        if len(set(raw_covers)) != len(raw_covers):
            raise NotTransitiveReduction("duplicate cover listed")

        order = cls._toposort(len(names), raw_covers, names)
        rank = {old: new for new, old in enumerate(order)}
        sorted_names = tuple(names[old] for old in order)
        cover_idx = sorted((rank[a], rank[b]) for a, b in raw_covers)

        n = len(names)
        down = [1 << i for i in range(n)]
        dcov: list[list[int]] = [[] for _ in range(n)]
        for lo, hi in cover_idx:
            dcov[hi].append(lo)
        for i in range(n):
            for lo in dcov[i]:
                down[i] |= down[lo]

        return cls(sorted_names, down, tuple(cover_idx))

    @staticmethod
    def _toposort(n: int, covers: list[tuple[int, int]], names: list[str]) -> list[int]:
        """Kahn's algorithm; ties broken by (height-first, name) for determinism."""
        succ: list[list[int]] = [[] for _ in range(n)]
        indeg = [0] * n
        for a, b in covers:
            succ[a].append(b)
            indeg[b] += 1
        height = [0] * n
        ready = deque(i for i in range(n) if indeg[i] == 0)
        seen = 0
        remaining = indeg[:]
        while ready:
            i = ready.popleft()
            seen += 1
            for j in succ[i]:
                height[j] = max(height[j], height[i] + 1)
                remaining[j] -= 1
                if remaining[j] == 0:
                    ready.append(j)
        if seen != n:
            stuck = [names[i] for i in range(n) if remaining[i] > 0]
            raise CycleError(f"cover digraph has a cycle through {stuck[:6]}")
        return sorted(range(n), key=lambda i: (height[i], names[i]))

    def _check_reduction(self) -> None:
        for lo, hi in self.covers:
            between = self.up[lo] & self.down[hi]  # lo, hi and anything strictly between
            if between.bit_count() > 2:
                w = self.names[_lsb(between & ~(1 << lo | 1 << hi))]
                raise NotTransitiveReduction(
                    f"cover ({self.names[lo]!r}, {self.names[hi]!r}) is implied via {w!r}"
                )

    @classmethod
    def _from_down_masks(cls, names: list[str], down: list[int]) -> "Poset":
        """Build a poset from transitive down-set masks over ``names``.

        ``names`` must list a linear extension of the order, and bit j of
        ``down[i]`` means names[j] <= names[i].  The covers come from
        ``_cover_pairs``; the result is what ``from_covers`` builds from them.
        """
        return cls.from_covers(names, [(names[j], names[i]) for j, i in _cover_pairs(down)])

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poset):
            return NotImplemented
        if set(self.names) != set(other.names):
            return False
        return self.relation_pairs() == other.relation_pairs()

    __hash__ = None  # mutable-free but identity compare is misleading; use ==

    def relation_pairs(self) -> frozenset[tuple[str, str]]:
        """All strict pairs (a, b) with a < b, as names."""
        out = []
        for i in range(self.n):
            for j in _bits(self.down[i] & ~(1 << i)):
                out.append((self.names[j], self.names[i]))
        return frozenset(out)

    def leq(self, a: str, b: str) -> bool:
        return bool(self.down[self.index[b]] >> self.index[a] & 1)

    def lt(self, a: str, b: str) -> bool:
        return a != b and self.leq(a, b)

    def upper_covers(self, a: str) -> tuple[str, ...]:
        return tuple(sorted(self.names[j] for j in self._ucov[self.index[a]]))

    def lower_covers(self, a: str) -> tuple[str, ...]:
        return tuple(sorted(self.names[j] for j in self._dcov[self.index[a]]))

    def covers_named(self) -> tuple[tuple[str, str], ...]:
        return tuple(sorted((self.names[a], self.names[b]) for a, b in self.covers))

    def height(self) -> int:
        """Length (number of covers) of a longest chain."""
        return max(self.heights, default=0)

    def minimal_elements(self) -> tuple[str, ...]:
        return tuple(sorted(self.names[i] for i in range(self.n) if not self._dcov[i]))

    def maximal_elements(self) -> tuple[str, ...]:
        return tuple(sorted(self.names[i] for i in range(self.n) if not self._ucov[i]))

    def bottom_name(self) -> str:
        mins = self.minimal_elements()
        if len(mins) != 1:
            raise NoBoundsError(f"no unique minimum: {_name_list(mins)}")
        return mins[0]

    def top_name(self) -> str:
        maxs = self.maximal_elements()
        if len(maxs) != 1:
            raise NoBoundsError(f"no unique maximum: {_name_list(maxs)}")
        return maxs[0]

    def is_lattice_poset(self) -> bool:
        return self.lattice_failure() is None

    def lattice_failure(self) -> Optional[tuple[str, str, str]]:
        """Return (kind, a, b) for the first pair without a unique bound, else None.

        A bounded poset passes when every pair of upper covers of a common
        element has a join (see ``_cover_pairs_have_joins``); only a poset
        that fails that check pays for the ordered two-sided scan, which
        names the first failing pair.
        """
        if (
            len(self.minimal_elements()) == 1
            and len(self.maximal_elements()) == 1
            and self._cover_pairs_have_joins()
        ):
            return None
        return self._two_sided_scan()

    def _cover_pairs_have_joins(self) -> bool:
        """True when every two upper covers a, b of a common element have a join.

        In a finite poset with a least element this makes every pair have a
        join (and hence a meet, the join of its lower bounds), so it is a
        lattice.  Proof by downward induction on a common lower bound u of
        a and b: take u < a1 <= a and u < b1 <= b with a1, b1 covering u and
        w = a1 v b1; by induction v = a v w exists, and then a v b = v v b.
        The cost is the sum over elements of C(updegree, 2) mask tests.
        """
        up = self.up
        for covers in self._ucov:
            for k, a in enumerate(covers):
                upa = up[a]
                for b in covers[k + 1 :]:
                    common = upa & up[b]
                    if not common or common & ~up[_lsb(common)]:
                        return False
        return True

    def _two_sided_scan(self) -> Optional[tuple[str, str, str]]:
        """The first pair, in index order, with no unique join or meet."""
        up, down = self.up, self.down
        for i in range(self.n):
            for j in range(i + 1, self.n):
                common = up[i] & up[j]
                if not common:
                    return ("join", self.names[i], self.names[j])
                z = _lsb(common)
                if common & ~up[z]:
                    return ("join", self.names[i], self.names[j])
                common = down[i] & down[j]
                if not common:
                    return ("meet", self.names[i], self.names[j])
                z = _msb(common)
                if common & ~down[z]:
                    return ("meet", self.names[i], self.names[j])
        return None


class Lattice(Poset):
    """A finite lattice whose joins and meets are read off the order masks.

    Because elements are indexed along a linear extension, the join of x
    and y is the lowest set bit of ``up[x] & up[y]`` and the meet is the
    highest set bit of ``down[x] & down[y]``; no join or meet table is
    stored.  Construction validates the lattice axioms: there must be a
    unique bottom and top, and every two upper covers of a common element
    must have a join, which by the cover-pair lemma (see
    ``Poset._cover_pairs_have_joins``) gives every pair a unique join and
    meet.  Derived data (kappa tables, labels, derived orders) is cached
    by ``memoized`` in the per-lattice ``memo`` dict, keyed by the function
    that computed it.
    """

    def __init__(self, names, down, covers):
        super().__init__(names, down, covers)
        mins = [i for i in range(self.n) if not self._dcov[i]]
        maxs = [i for i in range(self.n) if not self._ucov[i]]
        if self.n == 0:
            raise NoBoundsError("empty lattice")
        if len(mins) != 1:
            raise NoBoundsError(f"no unique minimum: {_name_list(self.names[i] for i in mins)}")
        if len(maxs) != 1:
            raise NoBoundsError(f"no unique maximum: {_name_list(self.names[i] for i in maxs)}")
        self._bot = mins[0]
        self._top = maxs[0]
        if not self._cover_pairs_have_joins():
            kind, a, b = self._two_sided_scan()
            raise NotALattice(f"elements {a!r} and {b!r} have no unique {kind}")
        self.memo: dict = {}

    @classmethod
    def build_from_covers(cls, names: Iterable[str], covers: Iterable[tuple[str, str]]) -> "Lattice":
        """Validate Hasse-diagram data and return a lattice.

        The covers must be exactly the transitive reduction of the intended
        order; redundant edges are rejected rather than silently dropped.
        """
        return cls.from_covers(names, covers)

    # -- index-level operations (internal fast path) ------------------------

    def _join_idx(self, x: int, y: int) -> int:
        return _lsb(self.up[x] & self.up[y])

    def _meet_idx(self, x: int, y: int) -> int:
        return _msb(self.down[x] & self.down[y])

    def _leq_idx(self, x: int, y: int) -> bool:
        return bool(self.down[y] >> x & 1)

    def _join_set_idx(self, ids: Iterable[int]) -> int:
        up = self.up
        acc = up[self._bot]
        for i in ids:
            acc &= up[i]
        return _lsb(acc)

    def _meet_set_idx(self, ids: Iterable[int]) -> int:
        down = self.down
        acc = down[self._top]
        for i in ids:
            acc &= down[i]
        return _msb(acc)

    # -- name-level operations ----------------------------------------------

    @property
    def bottom(self) -> str:
        return self.names[self._bot]

    @property
    def top(self) -> str:
        return self.names[self._top]

    def join(self, a: str, b: str) -> str:
        return self.names[self._join_idx(self.index[a], self.index[b])]

    def meet(self, a: str, b: str) -> str:
        return self.names[self._meet_idx(self.index[a], self.index[b])]

    def join_set(self, elems: Iterable[str]) -> str:
        """Join of a possibly empty set; the empty join is the bottom."""
        return self.names[self._join_set_idx(self.index[a] for a in elems)]

    def meet_set(self, elems: Iterable[str]) -> str:
        """Meet of a possibly empty set; the empty meet is the top."""
        return self.names[self._meet_set_idx(self.index[a] for a in elems)]

    def is_cover(self, a: str, b: str) -> bool:
        return self.index[b] in self._ucov[self.index[a]]

    def _ends(self, lo: str, hi: str) -> tuple[int, int]:
        """The indices of lo and hi; raises NotComparable unless lo <= hi."""
        b, a = self.index[hi], self.index[lo]
        if not self.down[b] >> a & 1:
            raise NotComparable(f"{lo!r} is not below {hi!r}")
        return a, b

    def interval(self, lo: str, hi: str) -> "IntervalView":
        self._ends(lo, hi)
        return IntervalView(self, lo, hi)

    def dual(self) -> "Lattice":
        """The lattice with the order reversed (joins and meets swap)."""
        return Lattice.build_from_covers(
            self.names, [(self.names[b], self.names[a]) for a, b in self.covers]
        )

    # -- semidistributivity --------------------------------------------------

    @memoized
    def _kappa_indices(self) -> Optional[tuple[dict[int, int], dict[int, int]]]:
        """kappa and kappa_d on element indices, or None if the lattice is not SD.

        Freese-Jezek-Nation, *Free Lattices* (1995), Thm 2.56: a finite
        lattice is meet-semidistributive iff kappa(j) exists for every
        completely join-irreducible j, and dually join-semidistributive iff
        kappa_d(m) exists for every completely meet-irreducible m.  The
        candidates for kappa(j) = max{y : j ^ y = j_*} are exactly
        ``up[j_*] & ~up[j]``, and those for kappa_d(m) are
        ``down[m^*] & ~down[m]``, so the whole check is one mask test per
        irreducible.
        """
        up, down = self.up, self.down
        kappa: dict[int, int] = {}
        for j in range(self.n):
            if len(self._dcov[j]) == 1:
                cand = up[self._dcov[j][0]] & ~up[j]
                top = _msb(cand)
                if cand & ~down[top]:
                    return None
                kappa[j] = top
        kappa_d: dict[int, int] = {}
        for m in range(self.n):
            if len(self._ucov[m]) == 1:
                cand = down[self._ucov[m][0]] & ~down[m]
                bot = _lsb(cand)
                if cand & ~up[bot]:
                    return None
                kappa_d[m] = bot
        return kappa, kappa_d

    def is_semidistributive(self) -> bool:
        """Check both halves of semidistributivity through the kappa maps.

        Join half: whenever x v y = x v z, also x v (y ^ z) = x v y, and the
        dual statement for meets; see ``_kappa_indices`` for the test.
        """
        return self._kappa_indices() is not None

    def semidistributivity_witness(self) -> Optional[tuple[str, str, str, str]]:
        """None if semidistributive, else a witness ('join'|'meet', x, y, z).

        Only a lattice that fails the kappa test pays for the fiber-fold
        search in ``_fiber_fold_witness``.
        """
        if self.is_semidistributive():
            return None
        return self._fiber_fold_witness()

    def _fiber_fold_witness(self) -> Optional[tuple[str, str, str, str]]:
        """The first SD failure found by folding meets over join fibers.

        Per fixed x, it suffices to fold the meet over each fiber
        {y : x v y = v} and confirm x v (fold) = v; the pairwise and
        full-subset forms follow by monotonicity.  When a fold fails, the
        fiber is searched for the first failing pair.  O(n^2) joins.
        """
        n = self.n
        for kind, prim, sec in (
            ("join", self._join_idx, self._meet_idx),
            ("meet", self._meet_idx, self._join_idx),
        ):
            for x in range(n):
                row = [prim(x, y) for y in range(n)]
                fold: dict[int, int] = {}
                for y in range(n):
                    v = row[y]
                    m = fold.get(v)
                    fold[v] = y if m is None else sec(m, y)
                for v, m in fold.items():
                    if row[m] != v:
                        fiber = [y for y in range(n) if row[y] == v]
                        for y, z in itertools.combinations(fiber, 2):
                            if prim(x, sec(y, z)) != v:
                                return (kind, self.names[x], self.names[y], self.names[z])
        return None


class IntervalView:
    """The interval [lo, hi] of a lattice, held as its two ends.

    An interval is closed under join and meet and its covers are the
    parent's covers between its members, so every query on it is a query
    on the parent; the view only names the ends and the member mask.
    """

    def __init__(self, parent: Lattice, lo: str, hi: str):
        self.parent = parent
        self.lo = lo
        self.hi = hi
        self.mask = parent.up[parent.index[lo]] & parent.down[parent.index[hi]]

    @property
    def members(self) -> tuple[str, ...]:
        return tuple(sorted(self.parent.names[i] for i in _bits(self.mask)))

    def __contains__(self, name: str) -> bool:
        i = self.parent.index.get(name)
        return i is not None and bool(self.mask >> i & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()


def posets_isomorphic(p, q, size_cap: int = 14) -> Optional[dict[str, str]]:
    """Search for an order isomorphism between two small posets.

    Accepts any Poset, such as a Lattice or a derived order.  Returns a
    name-to-name mapping, or None if the posets are not isomorphic.  Exhaustive backtracking with degree/height pruning;
    refuses inputs larger than ``size_cap`` elements.
    """
    if len(p) != len(q):
        return None
    if len(p) > size_cap:
        raise SizeLimitExceeded(f"posets_isomorphic is capped at {size_cap} elements")

    def signature(poset: Poset, i: int) -> tuple[int, int, int, int, int]:
        return (
            poset.heights[i],
            len(poset._dcov[i]),
            len(poset._ucov[i]),
            poset.down[i].bit_count(),
            poset.up[i].bit_count(),
        )

    sig_p = [signature(p, i) for i in range(len(p))]
    sig_q = [signature(q, i) for i in range(len(q))]
    if sorted(sig_p) != sorted(sig_q):
        return None

    order = sorted(range(len(p)), key=lambda i: (sig_p[i], p.names[i]))
    candidates = [[j for j in range(len(q)) if sig_q[j] == sig_p[i]] for i in range(len(p))]
    assign: dict[int, int] = {}
    used = [False] * len(q)

    def extend(k: int) -> bool:
        if k == len(order):
            return True
        i = order[k]
        for j in candidates[i]:
            if used[j]:
                continue
            ok = True
            for i2, j2 in assign.items():
                same = bool(p.down[i2] >> i & 1) == bool(q.down[j2] >> j & 1) and bool(
                    p.down[i] >> i2 & 1
                ) == bool(q.down[j] >> j2 & 1)
                if not same:
                    ok = False
                    break
            if ok:
                assign[i] = j
                used[j] = True
                if extend(k + 1):
                    return True
                del assign[i]
                used[j] = False
        return False

    if extend(0):
        return {p.names[i]: q.names[j] for i, j in assign.items()}
    return None
