"""Completely join/meet-irreducible elements and the rowmotion maps.

An element j is completely join-irreducible (cji) when it covers exactly one
element j_*; dually m is completely meet-irreducible (cmi) with unique upper
cover m^*.  The kappa map sends j to the unique largest y with j ^ y = j_*,
and its inverse kappa_d sends m to the unique smallest y with m v y = m^*.
Both extrema exist precisely when the lattice is semidistributive
(Freese-Jezek-Nation, Thm 2.56), so one mask test per irreducible both
checks semidistributivity and yields the kappa table; see
``Lattice._kappa_maps``.  kappa is then a bijection from the cji onto the
cmi, so the cmi, their m^* and kappa_d are all read off kappa.

Cover labels come from masks too, on cji positions.  The label context
(``_label_context``) numbers the cji 0..|J|-1 in name order, and a label
set is a |J|-bit mask of positions.  It is the one kappa table the
library reads: ``kappa[p]`` is the element kappa(J[p]).  The name maps of
``irreducible_table``, ``cover_labeling`` and the kappa_bar maps serve the
public API, and each call builds them afresh from the memoized index
tables.  With jdown[x] = {j : j <= x} and jabove[u] = {j : kappa(j) >= u},
the j-label of a cover u < v is the single bit of ``jdown[v] & jabove[u]``
and its m-label is kappa of that j-label; j_p <= kappa(j_q) is bit p of
``jdown[kappa[q]]``.  kappa_bar and the label sets of intervals are read
off the same masks, and a label set comes out in name order by a walk
over its bits.  A mask that is not a single bit raises NoUniqueMax.  On a finite SD lattice kappa_bar is a
bijection with inverse kappa_bar_d (Barnard, "The canonical join
complex", EJC 2019), so kappa_bar_d is kappa_bar's inverse permutation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Lattice, _bits, _union_above, memoized
from .errors import (
    NoUniqueMax,
    NotACover,
    NotSemidistributive,
)


@dataclass(frozen=True)
class IrreducibleTable:
    """cji/cmi with the j_*, m^* neighbours and the mutually inverse kappa maps."""

    cji: tuple[str, ...]
    cmi: tuple[str, ...]
    jstar: dict[str, str]
    mstar: dict[str, str]
    kappa: dict[str, str]
    kappa_d: dict[str, str]


def irreducible_table(lattice: Lattice) -> IrreducibleTable:
    """The irreducible/kappa table by name, built afresh from the memoized kappa on each call."""
    kappa = lattice._kappa_maps()
    if kappa is None:
        witness = lattice.semidistributivity_witness()
        raise NotSemidistributive(f"lattice is not semidistributive, witness {witness}")
    names = lattice.names
    jstar = {names[j]: names[lattice._dcov[j][0]] for j in kappa}
    mstar = {names[m]: names[lattice._ucov[m][0]] for m in kappa.values()}
    return IrreducibleTable(
        cji=tuple(sorted(jstar)),
        cmi=tuple(sorted(mstar)),
        jstar=jstar,
        mstar=mstar,
        kappa={names[j]: names[m] for j, m in kappa.items()},
        kappa_d={names[m]: names[j] for j, m in kappa.items()},
    )


@dataclass(frozen=True)
class _LabelContext:
    """The cji numbered 0..|J|-1 in name order, their kappa and the label masks on those positions.

    ``cji[p]`` is the element index of position p, ``labels[p]`` its name
    and ``kappa[p]`` the element index of its kappa; ``position`` maps a
    cji name to its p.  ``jdown[x]`` is the mask of the positions of the
    cji <= x and ``jabove[u]`` that of the j with kappa(j) >= u.
    """

    cji: tuple[int, ...]
    labels: tuple[str, ...]
    kappa: tuple[int, ...]
    position: dict[str, int]
    jdown: list[int]
    jabove: list[int]


@memoized
def _label_context(lattice: Lattice) -> _LabelContext:
    """The label context of the lattice, memoized; on an SD lattice it builds no ``irreducible_table``."""
    kappa_of, names, n = lattice._kappa_maps(), lattice.names, lattice.n
    if kappa_of is None:
        irreducible_table(lattice)  # raises NotSemidistributive with its witness
    cji = tuple(sorted(kappa_of, key=names.__getitem__))
    labels, kappa = tuple(names[j] for j in cji), tuple(kappa_of[j] for j in cji)
    jdown, above = [0] * n, [0] * n
    for p, j in enumerate(cji):
        jdown[j] = 1 << p
        above[kappa[p]] |= 1 << p
    for x, lows in enumerate(lattice._dcov):
        acc = jdown[x]
        for u in lows:
            acc |= jdown[u]
        jdown[x] = acc
    position = {name: p for p, name in enumerate(labels)}
    return _LabelContext(cji, labels, kappa, position, jdown, _union_above(lattice._ucov, above))


def _labels_between(lattice: Lattice, lo: int, hi: int) -> int:
    """Mask of the positions of the labels of covers inside [lo, hi]: j <= hi and kappa(j) >= lo."""
    context = _label_context(lattice)
    return context.jdown[hi] & context.jabove[lo]


def _sorted_names(lattice: Lattice, mask: int) -> tuple[str, ...]:
    """The names of the cji at the positions of ``mask``, in name order: a walk up its bits."""
    return _decode(_label_context(lattice).labels, [mask])[0][0]


def _decode(at: tuple[str, ...] | list[str], *mask_lists: list[int]) -> list[list[tuple[str, ...]]]:
    """Each list of masks as a list of tuples: ``at[p]`` for the bits p of a mask, in rising p.

    With ``at`` the context's ``labels``, these are the ``_sorted_names``
    of the masks.  A mask that recurs, in one list or across them, is
    walked once and its tuple shared.
    """
    decoded: dict[int, tuple[str, ...]] = {}
    out = []
    for masks in mask_lists:
        row = []
        for mask in masks:
            found = decoded.get(mask)
            if found is None:
                walk, rest = [], mask
                while rest:
                    low = rest & -rest
                    walk.append(at[low.bit_length() - 1])
                    rest ^= low
                found = decoded[mask] = tuple(walk)
            row.append(found)
        out.append(row)
    return out


def _no_unique_label(lattice: Lattice, u: int, v: int) -> NoUniqueMax:
    """The error for a cover u < v whose label mask is not a single bit."""
    names = lattice.names
    return NoUniqueMax(f"cover ({names[u]!r}, {names[v]!r}) has no unique minimal join label")


def _j_label_idx(lattice: Lattice, u: int, v: int) -> int:
    """The position of the j-label of the cover u < v: the one label inside [u, v]."""
    mask = _labels_between(lattice, u, v)
    if mask.bit_count() != 1:
        raise _no_unique_label(lattice, u, v)
    return mask.bit_length() - 1


@dataclass(frozen=True)
class CoverLabeling:
    """Join- and meet-irreducible labels for every cover, keyed (lower, upper)."""

    jlabel: dict[tuple[str, str], str]
    mlabel: dict[tuple[str, str], str]


def _cover_label_idx(lattice: Lattice, lower: str, upper: str) -> int:
    """The position of the j-label of the cover lower < upper, given by name; raises NotACover."""
    if not lattice.is_cover(lower, upper):
        raise NotACover(f"({lower!r}, {upper!r}) is not a cover relation")
    return _j_label_idx(lattice, lattice.index[lower], lattice.index[upper])


def j_label_cover(lattice: Lattice, lower: str, upper: str) -> str:
    """The unique minimum of {y : y v lower = upper}; always lands in cji.

    It is the only cji j with j <= upper and kappa(j) >= lower.
    """
    return _label_context(lattice).labels[_cover_label_idx(lattice, lower, upper)]


def m_label_cover(lattice: Lattice, lower: str, upper: str) -> str:
    """The unique maximum of {y : y ^ upper = lower}: kappa of the j-label."""
    p = _cover_label_idx(lattice, lower, upper)
    return lattice.names[_label_context(lattice).kappa[p]]


def cover_labeling(lattice: Lattice) -> CoverLabeling:
    """Labels for all covers at once, built afresh from the memoized label context on each call.

    The covers are walked on indices, upper element by upper element, so
    the dicts iterate in index order, not name order; no output reads that
    order (``jsonio.emit_json`` sorts label keys, ``jsonio.emit_dot``
    sorts covers).
    """
    names, context = lattice.names, _label_context(lattice)
    jdown, jabove, jnames = context.jdown, context.jabove, context.labels
    mnames = [names[k] for k in context.kappa]
    jlabel = {}
    mlabel = {}
    # each label bit read and checked inline off the one fetched context, in
    # the cover order of _cover_label_masks, so the first bad cover is the same
    for v, lows in enumerate(lattice._dcov):
        mine = jdown[v]
        for u in lows:
            bit = mine & jabove[u]
            if not bit or bit & (bit - 1):  # not a single label
                raise _no_unique_label(lattice, u, v)
            p = bit.bit_length() - 1
            cover = (names[u], names[v])
            jlabel[cover] = jnames[p]
            mlabel[cover] = mnames[p]
    return CoverLabeling(jlabel=jlabel, mlabel=mlabel)


def j_label_interval(lattice: Lattice, lo: str, hi: str) -> tuple[str, ...]:
    """All join-irreducible labels appearing on covers inside [lo, hi].

    Computed by the closed formula {j in cji : j <= hi and kappa(j) >= lo}
    rather than by enumerating the covers of the interval.
    """
    return _sorted_names(lattice, _labels_between(lattice, *lattice._ends(lo, hi)))


def _inherited_label_leq(lattice: Lattice) -> frozenset[tuple[str, str]]:
    """The strict pairs (a, b) of cji names with a < b in the lattice.

    This is the order cji labels inherit as lattice elements, read off the
    jdown masks; it raises NotSemidistributive as irreducible_table does.
    """
    context = _label_context(lattice)
    names, cji, jdown = lattice.names, context.cji, context.jdown
    return frozenset((names[cji[a]], names[j]) for b, j in enumerate(cji) for a in _bits(jdown[j] & ~(1 << b)))


@memoized
def _cover_label_masks(lattice: Lattice) -> tuple[list[int], list[int]]:
    """Position masks of the labels of the covers below and above each element, memoized.

    The labels below x are its canonical joinands; kappa of the labels
    above x are its canonical meetands.  The label of a cover u < x is
    ``jdown[x] & jabove[u]``, read off one fetched context.
    """
    context = _label_context(lattice)
    jdown, jabove = context.jdown, context.jabove
    below, above = [0] * lattice.n, [0] * lattice.n
    for x, lows in enumerate(lattice._dcov):
        mine, acc = jdown[x], 0
        for u in lows:
            bit = mine & jabove[u]
            if not bit or bit & (bit - 1):  # not a single label
                raise _no_unique_label(lattice, u, x)
            acc |= bit
            above[u] |= bit
        below[x] = acc
    return below, above


@memoized
def _kappa_bar_idx(lattice: Lattice) -> list[int]:
    """kappa_bar on indices: the meet of kappa(j) over the labels j of the covers below x."""
    down = lattice.down
    # meets[p]: the down-set of kappa of the cji at position p
    meets = [down[k] for k in _label_context(lattice).kappa]
    top, out = down[lattice._top], []
    for rest in _cover_label_masks(lattice)[0]:
        acc = top
        while rest:  # the bit walk inline: it runs once per cover of the lattice
            low = rest & -rest
            acc &= meets[low.bit_length() - 1]
            rest ^= low
        out.append(acc.bit_length() - 1)
    return out


def kappa_bar_map(lattice: Lattice) -> dict[str, str]:
    """The extended kappa map on every element, built afresh from ``_kappa_bar_idx`` on each call.

    kappa_bar(x) is the meet of kappa over the canonical joinands of x, the
    joinands being the labels of the covers below x.
    """
    names = lattice.names
    return {names[x]: names[k] for x, k in enumerate(_kappa_bar_idx(lattice))}


@memoized
def _kappa_bar_d_idx(lattice: Lattice) -> list[int]:
    """kappa_bar_d on indices: the inverse permutation of kappa_bar (module docstring)."""
    out = [0] * lattice.n
    for x, k in enumerate(_kappa_bar_idx(lattice)):
        out[k] = x
    return out


def kappa_bar_d_map(lattice: Lattice) -> dict[str, str]:
    """The extended kappa_d map on every element (inverse of kappa_bar), built afresh on each call."""
    names = lattice.names
    return {names[y]: names[x] for y, x in enumerate(_kappa_bar_d_idx(lattice))}


def kappa_bar(lattice: Lattice, x: str) -> str:
    return lattice.names[_kappa_bar_idx(lattice)[lattice.index[x]]]


def kappa_bar_d(lattice: Lattice, x: str) -> str:
    return lattice.names[_kappa_bar_d_idx(lattice)[lattice.index[x]]]


def kappa_bar_cycles(lattice: Lattice) -> str:
    """Cycle notation for kappa_bar as a permutation of the lattice.

    Each cycle starts at its lexicographically smallest member; cycles are
    sorted by first member; fixed points are omitted.
    """
    names, kbar = lattice.names, _kappa_bar_idx(lattice)
    seen, cycles = bytearray(lattice.n), []
    # starts go in name order, so a cycle is entered at its least member
    # and the cycles come out sorted by it
    for start in sorted(range(lattice.n), key=names.__getitem__):
        if seen[start] or kbar[start] == start:
            continue
        cycle, cur = [], start
        while not seen[cur]:
            seen[cur] = 1
            cycle.append(names[cur])
            cur = kbar[cur]
        cycles.append(cycle)
    return "".join("(" + ",".join(c) + ")" for c in cycles)
