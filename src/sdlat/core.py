"""Finite posets and lattices over named elements.

The order relation is stored as per-element bitmasks: bit ``j`` of
``down[i]`` means element ``j`` lies weakly below element ``i``, and bit
``j`` of ``up[i]`` that it lies weakly above.  Elements are indexed along
a linear extension: a parsed or generated order is sorted by (height,
name) in ``Poset._from_cover_pairs``, and a derived order of ``cores`` by
(label count, name) in ``DerivedPoset._from_masks``.  Either way the least
element of any down-closed candidate set is always its lowest set bit and
the greatest element of an up-closed set is its highest set bit.
In a lattice that makes join(x, y) the lowest set bit of ``up[x] & up[y]``
and meet(x, y) the highest set bit of ``down[x] & down[y]``, so no n^2 join
or meet table is built; the lattice axioms are checked on pairs of lower
covers only (the lemma in ``_cover_pairs_have_meets``, the one test all callers share).
All public entry points speak element *names*, looked up in ``Poset.index``,
where a name that is not an element raises SchemaError; indices stay internal.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional

from .errors import (
    BadParameter,
    CycleError,
    NoBoundsError,
    NotALattice,
    NotComparable,
    NotTransitiveReduction,
    SchemaError,
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


def _name_tuple(names) -> tuple:
    """A collection of element names as a tuple; a bare str is refused, not split into letters."""
    if isinstance(names, str):
        raise BadParameter(f"expected a collection of element names, got the string {names!r}")
    return tuple(names)


def _name_list(names) -> str:
    """Names for an error message: all of them up to six, else the first six and the count."""
    names = list(names)
    if len(names) <= 6:
        return str(names)
    return f"{str(names[:6])[:-1]}, ...] ({len(names)} in all)"


def memoized(fn):
    """Cache ``fn(poset)`` in ``poset.memo``, keyed by the function ``fn``.

    Every ``Poset`` has a memo, so this caches on lattices and derived
    orders alike.  The name, qualified name and docstring are copied by
    hand and no ``__wrapped__`` is set, so the result stands in for ``fn``
    everywhere.  A memoized value never reaches a caller as a mutable
    container, where an edit would change later results: the memo holds
    index tables, whole-lattice name maps are built from them per call,
    and the order tables of every ``Poset`` (``down``, ``up``, ``heights``,
    and a derived order's ``masks``) are tuples and its ``index`` is
    read-only, so a memoized derived order cannot be edited either.  The
    memo is not pickled or copied with its poset (``Poset.__getstate__``),
    as its keys are functions that pickle cannot name.
    """

    def cached(poset):
        memo = poset.memo
        if fn not in memo:
            memo[fn] = fn(poset)
        return memo[fn]

    cached.__name__, cached.__qualname__, cached.__doc__ = fn.__name__, fn.__qualname__, fn.__doc__
    return cached


def _union_above(ucov: list[list[int]], seeds: list[int]) -> list[int]:
    """out[u] is the union of seeds[v] over all v >= u, one mask op per upper cover in ``ucov``."""
    out = list(seeds)
    for u in range(len(out) - 1, -1, -1):
        acc = out[u]
        for c in ucov[u]:
            acc |= out[c]
        out[u] = acc
    return out


def _cover_pairs_have_meets(down: list[int], dcov: list[list[int]]) -> bool:
    """True when every two lower covers a, b of a common element have a meet.

    In a finite poset with a greatest element this makes every pair have
    a meet (and hence a join, the meet of its upper bounds), so it is a
    lattice.  Proof by upward induction on a common upper bound u of a
    and b: take a <= a1 < u and b <= b1 < u with u covering a1 and b1,
    and w = a1 ^ b1; by induction m = a ^ w exists, and then
    a ^ b = m ^ b.  The cost is the sum over elements of C(downdegree, 2)
    mask tests, on down-sets, which are short for elements low in the
    index order.
    """
    for covers in dcov:
        for a, b in itertools.combinations(covers, 2):
            # common is a down-set, so it has a greatest element
            # exactly when the down-set of its highest index is all of it
            common = down[a] & down[b]
            if not common or down[common.bit_length() - 1] != common:
                return False
    return True


def _kappa_maps(down: list[int], up: list[int], dcov: list, ucov: list) -> Optional[dict[int, int]]:
    """kappa on element indices of a lattice, or None if it is not SD.

    Freese-Jezek-Nation, *Free Lattices* (1995), Thm 2.56: a finite
    lattice is meet-semidistributive iff kappa(j) exists for every
    completely join-irreducible j, and dually join-semidistributive iff
    kappa_d(m) exists for every completely meet-irreducible m.  The
    candidates for kappa(j) = max{y : j ^ y = j_*} are exactly
    ``up[j_*] & ~up[j]``, and those for kappa_d(m) are
    ``down[m^*] & ~down[m]``, so the whole check is one mask test per
    irreducible.  On an SD lattice kappa is a bijection from the cji onto
    the cmi with inverse kappa_d, so only kappa is kept.
    """
    kappa: dict[int, int] = {}
    for j, lows in enumerate(dcov):
        if len(lows) == 1:
            cand = up[lows[0]] & ~up[j]
            kappa[j] = top = _msb(cand)
            if cand & ~down[top]:
                return None
    for m, highs in enumerate(ucov):
        if len(highs) == 1:
            cand = down[highs[0]] & ~down[m]
            if cand & ~up[_lsb(cand)]:
                return None
    return kappa


class _Index(dict):
    """Element name -> index, read-only; a name that is not an element raises SchemaError.

    Every edit raises TypeError, as the memo's tables are read through
    it.  Pickling and copying rebuild it from a plain dict.
    """

    def __missing__(self, name):
        raise SchemaError(f"unknown element {name!r}")

    def _read_only(self, *args, **kwargs):
        raise TypeError("an element index is read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return _Index, (dict(self),)


class Poset:
    """A finite partially ordered set on distinct, non-empty names."""

    def __init__(self, names: tuple[str, ...], heights: tuple[int, ...], covers: tuple[tuple[int, int], ...]):
        """Wrap an order indexed along a linear extension and close its down-sets.

        ``names`` lists the elements by index, ``heights[i]`` is the length
        of a longest chain below i, and ``covers`` are the sorted index
        covers (lo, hi), lo < hi: all three from ``_from_cover_pairs``, the
        one caller, which has ruled out cycles.  A cover implied by others
        raises NotTransitiveReduction (``_check_reduction``) before a
        subclass checks anything.  ``memo`` holds what ``memoized`` caches.

        The three positional parameters stay: perfbench's tracer wraps
        ``Lattice.__init__`` as ``(lattice, names, down, covers)``, forwards
        them by position and reads only ``names``.  The second may change
        meaning, but no parameter, default or keyword may be added.
        """
        self.n = n = len(names)
        self.names = names
        self.index = _Index(zip(names, range(n)))
        self.heights = heights
        self.covers = covers
        ucov: list[list[int]] = [[] for _ in range(n)]
        dcov: list[list[int]] = [[] for _ in range(n)]
        for lo, hi in covers:
            ucov[lo].append(hi)
            dcov[hi].append(lo)
        self._ucov, self._dcov = ucov, dcov
        down = [1 << i for i in range(n)]
        implied = False
        for i, lows in enumerate(dcov):
            # lower covers from the highest index down: one is implied by
            # another exactly when it lies below a higher one, that is, when
            # it is already in the union of their down-sets
            acc = down[i]
            for lo in reversed(lows):
                if acc >> lo & 1:
                    implied = True
                acc |= down[lo]
            down[i] = acc
        if implied:
            self._check_reduction(names, down, covers)
        self.down = tuple(down)
        self.up = tuple(_union_above(ucov, [1 << i for i in range(n)]))
        self.memo: dict = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def from_covers(cls, names: Iterable[str], covers: Iterable[tuple[str, str]]) -> "Poset":
        """Build an instance of ``cls`` from an exact transitive reduction given by name pairs.

        This is the one entry point for untrusted covers.  Raises
        SchemaError for names that are not non-empty strings, repeated
        names, a cover that is not a pair of strings or names an unknown
        element, CycleError if the cover digraph is cyclic and
        NotTransitiveReduction if any listed cover is implied by others.
        The checked covers go as they are to ``_from_cover_pairs``, which
        runs the cycle test and indexes the elements by (height, name);
        the constructor it calls runs the reduction test.
        """
        names = list(names)
        if not all(isinstance(s, str) and s for s in names):
            raise SchemaError("element names must be non-empty strings")
        if len(set(names)) != len(names):
            raise SchemaError("element names must be unique")
        raw_index = {s: i for i, s in enumerate(names)}
        raw_covers = []
        for cover in covers:
            # plain isinstance tests, not all() over a generator, which is slower per cover
            lo, hi = cover if isinstance(cover, (tuple, list)) and len(cover) == 2 else (None, None)
            if not isinstance(lo, str) or not isinstance(hi, str):
                raise SchemaError(f"cover {cover!r} is not a pair of strings")
            a, b = raw_index.get(lo), raw_index.get(hi)
            if a is None or b is None:
                raise SchemaError(f"cover ({lo!r}, {hi!r}) mentions an unknown element")
            if a == b:
                raise CycleError(f"cover ({lo!r}, {hi!r}) is a self-loop")
            raw_covers.append((a, b))
        if len(set(raw_covers)) != len(raw_covers):
            raise NotTransitiveReduction("duplicate cover listed")
        return cls._from_cover_pairs(names, raw_covers)

    @staticmethod
    def _check_reduction(names: tuple[str, ...], down: list[int], covers: list[tuple[int, int]]) -> None:
        """Raise NotTransitiveReduction for the first cover with an element strictly between.

        The message names the lowest-indexed such element; ``Poset.__init__``
        calls this only after its own test has found an implied cover.
        """
        for lo, hi in covers:
            for w in _bits(down[hi] & ~(1 << lo | 1 << hi)):
                if down[w] >> lo & 1:
                    raise NotTransitiveReduction(
                        f"cover ({names[lo]!r}, {names[hi]!r}) is implied via {names[w]!r}"
                    )

    @classmethod
    def _from_cover_pairs(cls, names: list[str], covers: list[tuple[int, int]]) -> "Poset":
        """Build an instance of ``cls`` from distinct index covers (lo, hi) over ``names``.

        The one place that indexes a parsed or generated order by (height,
        name); the derived orders of ``cores`` are built from their label
        masks by ``DerivedPoset._from_masks`` and never come here.  The
        names and the covers may come in any order: Kahn's algorithm takes
        the heights, or raises CycleError naming the elements it cannot
        reach, in the order of ``names``.  The sorted names, their heights
        and the sorted index covers go to ``cls``, whose ``Poset.__init__``
        closes the down-sets and raises NotTransitiveReduction for a cover
        implied by others before ``cls`` checks anything of its own.  The
        sweep keeps its own upper-cover lists, as it runs before the final
        index exists.
        """
        n = len(names)
        upper: list[list[int]] = [[] for _ in range(n)]
        remaining = [0] * n
        for lo, hi in covers:
            upper[lo].append(hi)
            remaining[hi] += 1
        heights = [0] * n
        sweep = [i for i in range(n) if not remaining[i]]
        for i in sweep:  # grows while it is walked
            for j in upper[i]:
                remaining[j] -= 1
                if not remaining[j]:
                    # the sweep visits elements by rising height, so the
                    # last lower cover of j to be visited is a highest one
                    heights[j] = heights[i] + 1
                    sweep.append(j)
        if len(sweep) != n:
            stuck = [names[i] for i in range(n) if remaining[i]]
            raise CycleError(f"cover digraph has a cycle through {stuck[:6]}")
        # names are unique, so the index never decides the order
        ranked = sorted(zip(heights, names, range(n)))
        rank = [0] * n
        for new, (_, _, old) in enumerate(ranked):
            rank[old] = new
        # each element's upper covers, sorted on their own: no sort of all the pairs
        cover_idx = tuple(
            [(lo, hi) for lo, (_, _, old) in enumerate(ranked) for hi in sorted([rank[v] for v in upper[old]])]
        )
        names, heights = tuple(name for _, name, _ in ranked), tuple(h for h, _, _ in ranked)
        del ranked, rank, upper  # freed before the constructor closes the down-sets
        return cls(names, heights, cover_idx)

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

    def __getstate__(self) -> dict:
        """The attributes with an empty memo, for pickle and copy: every memo entry is rebuilt on demand."""
        return {**self.__dict__, "memo": {}}

    def relation_pairs(self) -> frozenset[tuple[str, str]]:
        """All strict pairs (a, b) with a < b, as names."""
        out = []
        for i in range(self.n):
            for j in _bits(self.down[i] & ~(1 << i)):
                out.append((self.names[j], self.names[i]))
        return frozenset(out)

    def leq(self, a: str, b: str) -> bool:
        return bool(self.up[self.index[a]] >> self.index[b] & 1)

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

        A bounded poset passes when every pair of lower covers of a common
        element has a meet (see ``_cover_pairs_have_meets``); only a poset
        that fails that check pays for the ordered two-sided scan, which
        names the first failing pair.
        """
        if (
            len(self.minimal_elements()) == 1
            and len(self.maximal_elements()) == 1
            and _cover_pairs_have_meets(self.down, self._dcov)
        ):
            return None
        return self._two_sided_scan()

    def _two_sided_scan(self) -> Optional[tuple[str, str, str]]:
        """The first pair, in index order, with no unique join or meet.

        A meet fails first only where a pair has no common lower bound.  If
        i and j had common lower bounds and no greatest one, two maximal
        ones p != q would lie lower in the index order, with no least upper
        bound (one would lie in between, and below i and j), so the join
        test of (p, q) would fail first.
        """
        up, down = self.up, self.down
        for i in range(self.n):
            for j in range(i + 1, self.n):
                common = up[i] & up[j]
                if not common or common & ~up[_lsb(common)]:
                    return ("join", self.names[i], self.names[j])
                if not down[i] & down[j]:
                    return ("meet", self.names[i], self.names[j])
        return None


class Lattice(Poset):
    """A finite lattice whose joins and meets are read off the order masks.

    Because elements are indexed along a linear extension, the join of x
    and y is the lowest set bit of ``up[x] & up[y]`` and the meet is the
    highest set bit of ``down[x] & down[y]``; no join or meet table is
    stored.  Construction validates the lattice axioms: there must be a
    unique bottom and top, and every two lower covers of a common element
    must have a meet, which by the cover-pair lemma (see
    ``_cover_pairs_have_meets``) gives every pair a unique join and
    meet.  Derived data (kappa tables, labels, derived orders) is cached
    by ``memoized`` in the ``memo`` dict that every ``Poset`` has, keyed by
    the function that computed it.
    """

    def __init__(self, names, heights, covers):
        super().__init__(names, heights, covers)
        if self.n == 0:
            raise NoBoundsError("empty lattice")
        self._bot = self.index[self.bottom_name()]
        self._top = self.index[self.top_name()]
        if not _cover_pairs_have_meets(self.down, self._dcov):
            kind, a, b = self._two_sided_scan()
            raise NotALattice(f"elements {a!r} and {b!r} have no unique {kind}")

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
        acc = self.up[self._bot]
        for a in elems:
            acc &= self.up[self.index[a]]
        return self.names[_lsb(acc)]

    def meet_set(self, elems: Iterable[str]) -> str:
        """Meet of a possibly empty set; the empty meet is the top."""
        acc = self.down[self._top]
        for a in elems:
            acc &= self.down[self.index[a]]
        return self.names[_msb(acc)]

    def is_cover(self, a: str, b: str) -> bool:
        return self.index[b] in self._ucov[self.index[a]]

    def _ends(self, lo: str, hi: str) -> tuple[int, int]:
        """The indices of lo and hi, looked up in that order; raises NotComparable unless lo <= hi."""
        a, b = self.index[lo], self.index[hi]
        if not self.down[b] >> a & 1:
            raise NotComparable(f"{lo!r} is not below {hi!r}")
        return a, b

    def interval(self, lo: str, hi: str) -> "IntervalView":
        return IntervalView(self, *self._ends(lo, hi))

    def dual(self) -> "Lattice":
        """The lattice with the order reversed (joins and meets swap)."""
        return Lattice._from_cover_pairs(self.names, [(b, a) for a, b in self.covers])

    # -- semidistributivity --------------------------------------------------

    def is_semidistributive(self) -> bool:
        """Check both halves of semidistributivity through the kappa maps.

        Join half: whenever x v y = x v z, also x v (y ^ z) = x v y, and the
        dual statement for meets; see ``_kappa_maps`` for the test.
        """
        return self._kappa_maps() is not None

    @memoized
    def _kappa_maps(self) -> Optional[dict[int, int]]:
        """kappa on indices (the module's ``_kappa_maps``), or None if the lattice is not SD; memoized."""
        return _kappa_maps(self.down, self.up, self._dcov, self._ucov)

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
    """The interval [lo, hi] of a lattice, held as the indices of its two ends.

    An interval is closed under join and meet and its covers are the
    parent's covers between its members, so every query on it is a query
    on the parent; the view only names the ends, and its member mask is
    worked out when asked for, so a view holds no n-bit mask.  The ends
    must satisfy lo <= hi, as ``Lattice.interval`` checks.
    """

    __slots__ = ("parent", "a", "b")

    def __init__(self, parent: Lattice, a: int, b: int):
        self.parent = parent
        self.a = a
        self.b = b

    @property
    def lo(self) -> str:
        return self.parent.names[self.a]

    @property
    def hi(self) -> str:
        return self.parent.names[self.b]

    @property
    def mask(self) -> int:
        return self.parent.up[self.a] & self.parent.down[self.b]

    @property
    def members(self) -> tuple[str, ...]:
        return tuple(sorted(self.parent.names[i] for i in _bits(self.mask)))

    def __contains__(self, name: str) -> bool:
        i = self.parent.index.get(name)
        return i is not None and bool(self.mask >> i & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()
