"""Slow reference implementations that only the tests call.

Each builds from a definition, or rebuilds from scratch, what the library
reads off masks or off intervals of the parent lattice:

* ``from_leq``: a poset from an order predicate, by a scan over all pairs,
  ``lattice_failure_oracle``: the first pair with no least upper or no
  greatest lower bound, by ``leq`` alone, and ``mask_kernels``: the
  lattice and kappa tests of ``Lattice`` run on bare down-set masks, with
  no poset built;
* ``mask_order_by_covers``: a derived order built from covers, by the
  msb walk of ``_lower_covers`` over up-sets from a pairwise inclusion
  test, and indexed by ``Poset._from_cover_pairs``, where the library
  builds it straight from its masks;
* ``restrict`` and ``as_lattice``: a sublattice or interval rebuilt as a
  standalone lattice, and ``interval_cji_transfer`` checked against it;
* ``interval_restriction``: a labeled poset cut down to an interval, and
  ``length_two_keys_by_names``: the keys of its length-2 intervals read
  from the cover labels by name, where the search reads the verifier's walk;
* ``cjr_oracle`` and ``irredundant_representations``: canonical and
  irredundant join representations by enumerating element subsets, and
  ``cmr_matches_kappa_bar``: the kappa_bar identity on CJR/CMR;
* ``cjr_per_call``, ``cmr_per_call`` and ``core_data_per_call``: the
  records worked out for one element, one label per cover and one name
  walk per set, where the library reads per-lattice tables;
* ``orders_coincide_report_oracle``: the derived orders compared by their
  sorted name covers, and the label sets as maps of name frozensets;
* ``is_extremal_oracle``: extremality by a search for a longest chain whose
  j-labels exhaust cji, and ``kappa_bar_d_oracle``: kappa_bar_d as the join
  of the j-labels of the covers above each element, from
  ``kappa_bar_d_within``, the same scan inside an interval [a, b];
* ``atom_labels`` and ``coatom_labels``: the labels of the covers at the two
  ends of an interval;
* ``element_labels_between``: the label masks in element coordinates, each
  cji j at bit j, where the library keeps labels at their positions;
* ``posets_isomorphic``: an order isomorphism of two small posets, by
  backtracking;
* ``catalan``: the Catalan numbers by their recursion, for the tamari sizes,
  and ``q_catalan_at``: the q-Catalan number Cat(A_(n-1); q) at a complex q;
* ``kappa_bar_cycles_oracle``: kappa_bar's cycles walked on its name map,
  and ``kappa_bar_orbit_sizes``: its orbit sizes, fixed points included;
* ``hom_order``: the cji in one linear extension of j -> j' when
  j is not <= kappa(j'), the Hom relation of the bricks, for EL orders;
* ``kd_nodes``, ``count_kd_nodes`` and ``enumerate_kd_nodes``: the
  kappa_d-exceptional walks of ``sequences`` on a DAG with one node per
  interval (a, b), where the library keeps one node per label mask;
* ``recursive_labels_nodes``: the clo-up recursion on that DAG, which
  takes kappa_bar of every member of a node (``kappa_bar_within``) and
  its upper-core masks (``node_lab_up``), and
  ``clo_labeling_from_keys``: its mask-keyed labels mapped onto cloUp,
  where the library reads the labels off the mask table.
"""

import graphlib

from sdlat import InconsistentLabels, LabeledPoset, Lattice, Poset, cjr, cmr, irreducible_table
from sdlat import CanonicalRep, NoUniqueMax, RecursionMismatch, SizeLimitExceeded, j_label_interval
from sdlat import CloLabeling
from sdlat.core import _bits, _cover_pairs_have_meets, _lsb, _name_list, _union_above
from sdlat.cores import OrdersReport, clo_down, clo_up, kappa_order, lab_down_map, lab_up_map, w_map
from sdlat.cores import CoreData, _lab_up_masks, _pop_down_idx, _pop_up_idx
from sdlat.irreducibles import _j_label_idx, _kappa_bar_idx, _label_context
from sdlat.irreducibles import _labels_between
from sdlat.irreducibles import _sorted_names
from sdlat.irreducibles import kappa_bar, kappa_bar_map


def _kappa(lattice):
    """kappa on indices, off the lattice's index maps; raises NotSemidistributive as irreducible_table does."""
    _label_context(lattice)
    return lattice._kappa_maps()


def _transpose(down, n):
    up = [0] * n
    for i, mask in enumerate(down):
        for j in _bits(mask):
            up[j] |= 1 << i
    return up


def from_leq(names, leq):
    """Build a poset from a reflexive/antisymmetric/transitive predicate on names."""
    names = list(names)
    n = len(names)
    down = [0] * n
    for i, a in enumerate(names):
        for j, b in enumerate(names):
            if leq(b, a):
                down[i] |= 1 << j
    for i in range(n):
        if not down[i] >> i & 1:
            raise ValueError(f"relation is not reflexive at {names[i]!r}")
    up = _transpose(down, n)
    covers = []
    for i in range(n):
        strict = down[i] & ~(1 << i)
        for j in _bits(strict):
            if down[j] >> i & 1:
                raise ValueError(f"relation is not antisymmetric on {names[i]!r}, {names[j]!r}")
            if not (up[j] & strict & ~(1 << j)):
                covers.append((names[j], names[i]))
    poset = Poset.from_covers(names, covers)
    for i, a in enumerate(names):
        if poset.down[poset.index[a]] != sum(1 << poset.index[names[j]] for j in _bits(down[i])):
            raise ValueError("relation is not transitive")
    return poset


def lattice_failure_oracle(poset):
    """The first pair, in index order, with no least upper or no greatest lower bound, by ``leq`` alone.

    It is ("join" | "meet", a, b), the join tested first at each pair, or
    None for a lattice.
    """
    names = poset.names
    leq = {(a, b): poset.leq(a, b) for a in names for b in names}
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            for kind, le in (("join", lambda x, y: leq[x, y]), ("meet", lambda x, y: leq[y, x])):
                bounds = [z for z in names if le(a, z) and le(b, z)]
                if not any(all(le(z, w) for w in bounds) for z in bounds):
                    return (kind, a, b)
    return None


def _lower_covers(down):
    """The lower covers of each element of transitive down-set masks indexed along a linear extension.

    The msb walk: the highest element left below i is a lower cover, and its
    down-set is dropped, one mask op per cover, so each list falls in index.
    """
    dcov = []
    for i, mask in enumerate(down):
        rest, lows = mask & ~(1 << i), []
        while rest:
            j = rest.bit_length() - 1
            lows.append(j)
            rest &= ~down[j]
        dcov.append(lows)
    return dcov


def mask_order_by_covers(names, masks):
    """The inclusion order of ``masks``, one per name, as a Poset indexed by (height, name).

    Listed by decreasing label count, the elements are a linear extension
    of reverse inclusion, so the msb walk over their up-sets, each found
    by a subset test against every mask, gives the upper covers.
    """
    ranked = sorted(range(len(names)), key=lambda x: -masks[x].bit_count())
    up = [sum(1 << r for r, y in enumerate(ranked) if not masks[x] & ~masks[y]) for x in ranked]
    covers = [(lo, hi) for lo, highs in enumerate(_lower_covers(up)) for hi in highs]
    return Poset._from_cover_pairs([names[x] for x in ranked], covers)


def mask_kernels(down):
    """The core kernels on bare down-set masks: the meet test's verdict and the kappa test's input.

    ``down`` is indexed along a linear extension.  The kernels are the
    ``Lattice`` path, and the oracle of the candidate test of
    random_sd_lattice and of the predicate-built loop it replaced.
    """
    dcov = _lower_covers(down)
    ucov = [[] for _ in down]
    for i, lows in enumerate(dcov):
        for j in lows:
            ucov[j].append(i)
    up = _union_above(ucov, [1 << i for i in range(len(down))])
    return _cover_pairs_have_meets(down, dcov), (down, up, dcov, ucov)


def restrict(lattice, members):
    """Sublattice on a subset closed under join and meet.

    Covers are recomputed as the transitive reduction of the restricted
    order, so the result is a valid standalone lattice.
    """
    members = sorted(set(members), key=lambda s: lattice.index[s])
    mask = sum(1 << lattice.index[s] for s in members)
    covers = []
    for s in members:
        i = lattice.index[s]
        for j in _bits(lattice.down[i] & mask & ~(1 << i)):
            if not (lattice.up[j] & lattice.down[i] & mask & ~(1 << i) & ~(1 << j)):
                covers.append((lattice.names[j], s))
    return Lattice.build_from_covers(members, covers)


def as_lattice(view):
    """Rebuild an IntervalView as a standalone lattice with the same names."""
    return restrict(view.parent, view.members)


def interval_cji_transfer(lattice, lo, hi):
    """Bijection j -> lo v j from the interval's labels onto cji([lo, hi]).

    The image is verified against the completely join-irreducible elements of
    the interval sublattice recomputed from scratch.
    """
    mapping = {j: lattice.join(lo, j) for j in j_label_interval(lattice, lo, hi)}
    sub_cji = set(irreducible_table(as_lattice(lattice.interval(lo, hi))).cji)
    if len(set(mapping.values())) != len(mapping):
        raise InconsistentLabels(f"transfer to [{lo!r}, {hi!r}] is not injective")
    if set(mapping.values()) != sub_cji:
        raise InconsistentLabels(f"transfer does not hit cji of [{lo!r}, {hi!r}]")
    return mapping


def interval_restriction(lp, lo, hi):
    """The labeled subposet of ``lp`` on [lo, hi]; covers and labels restrict."""
    p = lp.poset
    members = [s for s in p.names if p.leq(lo, s) and p.leq(s, hi)]
    member_set = set(members)
    covers = [(a, b) for a, b in p.covers_named() if a in member_set and b in member_set]
    return LabeledPoset(
        poset=Poset.from_covers(members, covers),
        labels={c: lp.labels[c] for c in covers},
    )


def length_two_keys_by_names(lp, flip):
    """For each interval whose maximal chains all have length 2, their keys as label positions.

    [lo, hi] is such an interval when every element strictly inside it
    covers lo: those elements form an antichain, so hi covers each of them.
    The chain lo < m < hi with labels (x, y) has the key (y, x), or (x, y)
    under ``flip``, each label its position in the sorted alphabet.
    """
    position = {label: i for i, label in enumerate(sorted(lp.alphabet))}
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


class _OracleContext:
    """Joins of all element subsets of a small lattice, grouped by value."""

    def __init__(self, lattice):
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


def _oracle_context(lattice, size_cap):
    if lattice.n > size_cap:
        raise SizeLimitExceeded(
            f"cjr_oracle enumerates 2^{lattice.n} subsets; cap is {size_cap} elements"
        )
    if _OracleContext not in lattice.memo:
        lattice.memo[_OracleContext] = _OracleContext(lattice)
    return lattice.memo[_OracleContext]


def cjr_oracle(lattice, x, size_cap=12):
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


def irredundant_representations(lattice, x, size_cap=12):
    """All irredundant join representations of x, as sorted name tuples."""
    ctx = _oracle_context(lattice, size_cap)
    xi = lattice.index[x]
    jm = ctx.join_of_mask
    return [
        tuple(sorted(lattice.names[a] for a in _bits(mask)))
        for mask in ctx.groups[xi]
        if all(jm[mask & ~(1 << a)] != xi for a in _bits(mask))
    ]


def cmr_matches_kappa_bar(lattice, x):
    """Check CMR(kappa_bar(x)) = kappa(CJR(x)), the inverse-bijection identity."""
    table = irreducible_table(lattice)
    image = kappa_bar(lattice, x)
    expected = sorted(table.kappa[j] for j in cjr(lattice, x).joinands)
    return list(cmr(lattice, image).joinands) == expected


def cjr_per_call(lattice, x):
    """CJR(x) from the labels of the covers below x, each label found on its own."""
    i = lattice.index[x]
    mask = sum(1 << _j_label_idx(lattice, u, i) for u in lattice._dcov[i])
    return CanonicalRep(element=x, joinands=_sorted_names(lattice, mask))


def cmr_per_call(lattice, x):
    """CMR(x): kappa of the labels of the covers above x, each label found on its own."""
    i = lattice.index[x]
    kappa, cji, names = _kappa(lattice), _label_context(lattice).cji, lattice.names
    meetands = sorted(names[kappa[cji[_j_label_idx(lattice, i, v)]]] for v in lattice._ucov[i])
    return CanonicalRep(element=x, joinands=tuple(meetands), kind="meet")


def core_data_per_call(lattice, x):
    """core_data of x from its pops, kappa_bar and three label walks, its views built through names."""
    names = lattice.names
    i = lattice.index[x]
    k = _kappa_bar_idx(lattice)[i]
    bot, top = lattice._bot, lattice._top
    pd, pu, pu_k = _pop_down_idx(lattice, i, bot), _pop_up_idx(lattice, i, top), _pop_up_idx(lattice, k, top)
    return CoreData(
        element=x,
        pop_down=names[pd],
        pop_up=names[pu],
        core_down=lattice.interval(names[pd], x),
        core_up=lattice.interval(names[k], names[pu_k]),
        lab_down=_sorted_names(lattice, _labels_between(lattice, pd, i)),
        lab_up=_sorted_names(lattice, _labels_between(lattice, k, pu_k)),
        w_set=_sorted_names(lattice, _labels_between(lattice, k, i)),
    )


def orders_coincide_report_oracle(lattice):
    """``orders_coincide_report`` on names: sorted name covers and name frozensets."""
    down = lab_down_map(lattice)
    up = lab_up_map(lattice)
    w = w_map(lattice)
    rel_kappa = kappa_order(lattice).covers_named()
    rel_down = clo_down(lattice).covers_named()
    rel_up = clo_up(lattice).covers_named()

    def first_diff(left, right):
        for x in sorted(lattice.names):
            if left[x] != right[x]:
                return (x, tuple(sorted(left[x])), tuple(sorted(right[x])))
        return None

    return OrdersReport(
        kappa_equals_clo_down=rel_kappa == rel_down,
        kappa_equals_clo_up=rel_kappa == rel_up,
        clo_up_equals_clo_down=rel_up == rel_down,
        witness_kappa_clo_down=first_diff(w, down),
        witness_kappa_clo_up=first_diff(w, up),
        witness_clo_up_clo_down=first_diff(up, down),
    )


def is_extremal_oracle(lattice):
    """Longest chain length equals |cji| = |cmi|, witnessed by a chain whose
    j-labels exhaust all of cji."""
    table = irreducible_table(lattice)
    length = lattice.heights[lattice._top]
    if length != len(table.cji) or length != len(table.cmi):
        return False
    target = {lattice.index[j] for j in table.cji}
    cji = _label_context(lattice).cji
    for chain in _chains_of_full_length(lattice):
        if {cji[_j_label_idx(lattice, u, v)] for u, v in zip(chain, chain[1:])} == target:
            return True
    return False


def _chains_of_full_length(lattice):
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


def kappa_bar_d_oracle(lattice):
    """kappa_bar_d of every element by an up-mask scan, not by inverting kappa_bar.

    kappa_bar_d(x) is the join of kappa_d over the canonical meetands of x;
    the meetand of a cover x < v is kappa(j) for its j-label, so this is the
    join of the j-labels of the covers above x: ``kappa_bar_d_within`` on
    the whole lattice.
    """
    names, bot, top = lattice.names, lattice._bot, lattice._top
    return {names[x]: names[kappa_bar_d_within(lattice, bot, top, x)] for x in range(lattice.n)}


def kappa_bar_d_within(lattice, a, b, k):
    """kappa_bar_d of k inside [a, b]: a v the j-labels of the covers k < v <= b, by index.

    kappa_bar_d(k) joins kappa_d of the m-labels kappa(j) of the covers
    above k, and the interval relabels j as a v j (see ``sdlat.sequences``).
    On a finite SD lattice and its intervals kappa_bar is a bijection with
    inverse kappa_bar_d (Barnard, "The canonical join complex", EJC 2019).
    """
    up, down_b, cji = lattice.up, lattice.down[b], _label_context(lattice).cji
    acc = up[a]
    for v in lattice._ucov[k]:
        if down_b >> v & 1:
            acc &= up[cji[_j_label_idx(lattice, k, v)]]
    return _lsb(acc)


def atom_labels(lattice, lo, hi):
    """Labels j of the covers lo < z inside [lo, hi] (the interval's atoms)."""
    a, b = lattice._ends(lo, hi)
    _kappa(lattice)  # raises NotSemidistributive even when [lo, hi] has no atoms
    atoms = [z for z in lattice._ucov[a] if lattice.down[b] >> z & 1]
    return _sorted_names(lattice, sum(1 << _j_label_idx(lattice, a, z) for z in atoms))


def coatom_labels(lattice, lo, hi):
    """Labels kappa(j) of the covers z < hi inside [lo, hi] (the coatoms)."""
    a, b = lattice._ends(lo, hi)
    kappa, cji, names = _kappa(lattice), _label_context(lattice).cji, lattice.names
    coatoms = [z for z in lattice._dcov[b] if lattice.up[a] >> z & 1]
    return tuple(sorted(names[kappa[cji[_j_label_idx(lattice, z, b)]]] for z in coatoms))


def element_labels_between(lattice):
    """The label masks in element coordinates: (lo, hi) -> down[hi] & above[lo].

    above[u] holds bit j for each cji j with kappa(j) >= u, so the mask
    keeps each label of [lo, hi] at its element index j.
    """
    seeds = [0] * lattice.n
    for j, k in _kappa(lattice).items():
        seeds[k] |= 1 << j
    above, down = _union_above(lattice._ucov, seeds), lattice.down
    return lambda lo, hi: down[hi] & above[lo]


def kappa_bar_cycles_oracle(lattice):
    """Cycle notation for kappa_bar, walked on the name map from each name in sorted order."""
    mapping = kappa_bar_map(lattice)
    seen = set()
    cycles = []
    for start in sorted(mapping):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        cur = mapping[start]
        while cur != start:
            cycle.append(cur)
            seen.add(cur)
            cur = mapping[cur]
        if len(cycle) > 1:
            cycles.append(cycle)
    return "".join("(" + ",".join(c) + ")" for c in cycles)


def kappa_bar_orbit_sizes(lattice):
    """The sizes of kappa_bar's orbits, fixed points included, walked on ``_kappa_bar_idx``."""
    kbar, seen, sizes = _kappa_bar_idx(lattice), [False] * lattice.n, []
    for start in range(lattice.n):
        size, cur = 0, start
        while not seen[cur]:
            seen[cur], size, cur = True, size + 1, kbar[cur]
        if size:
            sizes.append(size)
    return sorted(sizes)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def q_catalan_at(n, q):
    """Cat(A_(n-1); q), the product of [n + i]_q / [i]_q over i = 2..n, at the complex number q.

    [k]_q = 1 + q + ... + q^(k-1).  The quotient is divided out exactly on
    integer coefficients, so its value at a root of unity is a polynomial
    evaluation, not a 0/0.
    """
    num, den = [1], [1]
    for i in range(2, n + 1):
        num, den = _poly_mul(num, [1] * (n + i)), _poly_mul(den, [1] * i)
    quotient = [0] * (len(num) - len(den) + 1)
    for k in range(len(quotient) - 1, -1, -1):  # den is monic: its top coefficient is 1
        quotient[k] = c = num[k + len(den) - 1]
        for j, d in enumerate(den):
            num[k + j] -= c * d
    assert not any(num), "the division leaves a remainder"
    return sum(c * q**k for k, c in enumerate(quotient))


def catalan(n):
    """Independent recursive Catalan count, for validating tamari sizes."""
    counts = [1]
    for m in range(1, n + 1):
        counts.append(sum(counts[k] * counts[m - 1 - k] for k in range(m)))
    return counts[n]


def hom_order(lattice):
    """The cji names in one linear extension of j -> j' for j not <= kappa(j'), by graphlib.

    Each j' comes after every j with j -> j'; raises graphlib.CycleError
    when the relation has a cycle.
    """
    context = _label_context(lattice)
    jdown, kappa, m = context.jdown, context.kappa, len(context.cji)
    earlier = {q: [p for p in range(m) if p != q and not jdown[kappa[q]] >> p & 1] for q in range(m)}
    return tuple(context.labels[p] for p in graphlib.TopologicalSorter(earlier).static_order())


def posets_isomorphic(p, q, size_cap=14):
    """Search for an order isomorphism between two small posets.

    Accepts any Poset, such as a Lattice or a derived order.  Returns a
    name-to-name mapping, or None if the posets are not isomorphic.
    Exhaustive backtracking with degree/height pruning; refuses inputs
    larger than ``size_cap`` elements.
    """
    if len(p) != len(q):
        return None
    if len(p) > size_cap:
        raise SizeLimitExceeded(f"posets_isomorphic is capped at {size_cap} elements")

    def signature(poset, i):
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
    assign = {}
    used = [False] * len(q)

    def extend(k):
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


# -- the kappa_d-exceptional walks, one node per interval ------------------------


def _node_child(lattice, a, b, p):
    """The node (a v j, pop_up_[a,b](a v j)) reached from (a, b) by the label j at position p."""
    x = _lsb(lattice.up[a] & lattice.up[_label_context(lattice).cji[p]])
    return (x, _pop_up_idx(lattice, x, b))


def _node_children(lattice, memo, node):
    """Label position -> child node of ``node``, in position order, memoized."""
    kids = memo.get(node)
    if kids is None:
        a, b = node
        kids = memo[node] = {p: _node_child(lattice, a, b, p) for p in _bits(_labels_between(lattice, a, b))}
    return kids


def _node_root(lattice):
    irreducible_table(lattice)  # raises NotSemidistributive
    return (lattice._bot, lattice._top)


def kd_nodes(lattice):
    """Every node (a, b) reachable from the root, one node per interval."""
    memo = {}
    root = _node_root(lattice)
    seen, stack = {root}, [root]
    while stack:
        for child in _node_children(lattice, memo, stack.pop()).values():
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return seen


def enumerate_kd_nodes(lattice, maximal_only=False, mark_right_extendable=False):
    """Sorted (display entries, right-extendable flag) pairs, one node per interval."""
    memo = {}
    root = _node_root(lattice)
    names, cji = lattice.names, _label_context(lattice).cji
    alive = tuple(_node_children(lattice, memo, root).values()) if mark_right_extendable else ()
    found = []
    stack = [(root, (), alive)]
    while stack:
        node, shown, alive = stack.pop()
        kids = _node_children(lattice, memo, node)
        if shown and (not kids or not maximal_only):
            found.append((shown, bool(alive) if mark_right_extendable else None))
        walks = [_node_children(lattice, memo, c) for c in alive] if kids else ()
        for j, child in kids.items():
            moved = tuple(walk[j] for walk in walks if j in walk)
            stack.append((child, (names[cji[j]],) + shown, moved))
    found.sort()
    return found


def count_kd_nodes(lattice, maximal_only=False):
    """Path counts summed over the interval DAG, one node per interval."""
    memo = {}
    root = _node_root(lattice)
    counts = {}
    stack = [root]
    while stack:
        node = stack[-1]
        if node in counts:
            stack.pop()
            continue
        kids = _node_children(lattice, memo, node).values()
        pending = [c for c in kids if c not in counts]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        own = 1 if not kids or not maximal_only else 0
        counts[node] = own + sum(counts[c] for c in kids)
    return sum(counts[c] for c in _node_children(lattice, memo, root).values())


def recursive_labels_nodes(lattice):
    """The clo-up recursion, one node per interval (a, b): cover label
    positions keyed by (lab_up(lower), lab_up(upper)) masks, errors included.

    Depth first from the root, children in the name order of the coatoms
    that lead to them; each finished node's labels are merged into its
    parent's by ``_merge_labels``, with its conflict test.
    """
    root = _node_root(lattice)
    done = {}
    stack = [(root, {}, node_label_steps(lattice, root))]
    while stack:
        node, out, steps = stack[-1]
        step = next(steps, None)
        if step is None:
            stack.pop()
            done[node] = out
            if stack:
                _merge_labels(lattice, stack[-1], out)
        else:
            key, lbl, child = step
            out[key] = lbl
            if child in done:
                _merge_labels(lattice, stack[-1], done[child])
            else:
                stack.append((child, {}, node_label_steps(lattice, child)))
    return done[root]


def clo_labeling_from_keys(lattice, keyed):
    """The recursion's mask-keyed labels as a labeling of cloUp's covers.

    Each key must name two elements of cloUp by their lab_up masks and be a
    cover of it, and every cover must get a label; labels come in the order
    of the keys.
    """
    derived = clo_up(lattice)
    names, cji = lattice.names, _label_context(lattice).cji
    by_mask = {mask: names[x] for x, mask in enumerate(_lab_up_masks(lattice))}
    covers = set(derived.covers_named())
    labels = {}
    for (mask_lo, mask_hi), lbl in keyed.items():
        lo = by_mask.get(mask_lo)
        hi = by_mask.get(mask_hi)
        if lo is None or hi is None:
            raise RecursionMismatch("recursive label set does not match any element of the derived order")
        if (lo, hi) not in covers:
            raise RecursionMismatch(f"recursion labeled ({lo!r}, {hi!r}), which is not a cover of the derived order")
        labels[(lo, hi)] = names[cji[lbl]]
    if len(labels) != len(covers):
        missing = sorted(covers - set(labels))
        raise RecursionMismatch(f"covers left unlabeled: {missing[:4]}")
    return CloLabeling(poset=derived, labels=labels)


def _merge_labels(lattice, frame, labels):
    (a, _), out, _ = frame
    cji = _label_context(lattice).cji
    for key, lbl in labels.items():
        if out.get(key, lbl) != lbl:
            name = [lattice.names[lattice._join_idx(a, cji[p])] for p in (out[key], lbl)]
            raise RecursionMismatch(f"conflicting labels {name[0]!r} and {name[1]!r} for one cover")
        out[key] = lbl


def kappa_bar_within(lattice, a, b):
    """kappa_bar of each x in [a, b], taken in the interval [a, b], by index.

    It is b ^ the meet of kappa(j) over the L-labels j of the covers below
    x inside [a, b]: the interval's kappa of its cji a v j is b ^ kappa(j)
    (see ``sdlat.sequences``), and the empty meet is b.
    """
    kappa, cji = _kappa(lattice), _label_context(lattice).cji
    up_a, down = lattice.up[a], lattice.down
    out = {}
    for x in _bits(up_a & down[b]):
        acc = down[b]
        for u in lattice._dcov[x]:
            if up_a >> u & 1:
                acc &= down[kappa[cji[_j_label_idx(lattice, u, x)]]]
        out[x] = acc.bit_length() - 1
    return out


def node_lab_up(lattice, a, b, kbar=None):
    """lab_up of each x in [a, b], taken in [a, b], by index: the labels of [k, pop_up(k)], k = kappa_bar(x)."""
    kbar = kappa_bar_within(lattice, a, b) if kbar is None else kbar
    return {x: _labels_between(lattice, k, _pop_up_idx(lattice, k, b)) for x, k in kbar.items()}


def node_label_steps(lattice, node):
    """Yield (key, label position, child) for each coatom of the top of cloUp([a, b]).

    kappa_bar is taken for every member x of [a, b]: lab_up(x) labels
    [k, pop_up(k)] for k = kappa_bar(x), and a coatom u is labeled by the
    j with a v j = kappa_bar(u).
    """
    a, b = node
    if a == b:
        return
    names, up = lattice.names, lattice.up
    kbar = kappa_bar_within(lattice, a, b)
    members = list(kbar)
    lab_up = node_lab_up(lattice, a, b, kbar)
    if len(set(lab_up.values())) != len(members):
        raise InconsistentLabels("cloUp: label sets do not separate elements")
    full = 0
    for mask in lab_up.values():
        full |= mask
    tops = [x for x in members if lab_up[x] == full]
    if not tops:
        maxs = _name_list(sorted(names[x] for x in _maximal_masks(members, lab_up)))
        raise RecursionMismatch(
            f"derived order has no unique top element (no unique maximum: {maxs}); "
            "the lattice is not a nuclear interval"
        )
    (top,) = tops
    for u in sorted(_maximal_masks([x for x in members if x != top], lab_up), key=names.__getitem__):
        k = kbar[u]
        lower = [v for v in lattice._dcov[k] if up[a] >> v & 1]
        if len(lower) != 1:
            raise RecursionMismatch(
                f"kappa_bar({names[u]!r}) = {names[k]!r} is not completely join-irreducible"
            )
        p = _j_label_idx(lattice, lower[0], k)
        yield (lab_up[u], full), p, _node_child(lattice, a, b, p)


def _maximal_masks(members, masks):
    kept = []
    for x in sorted(members, key=lambda x: -masks[x].bit_count()):
        if not any(masks[x] & ~masks[y] == 0 for y in kept):
            kept.append(x)
    return kept
