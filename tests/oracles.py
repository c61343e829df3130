"""Slow reference implementations that only the tests call.

Each builds from a definition, or rebuilds from scratch, what the library
reads off masks or off intervals of the parent lattice:

* ``from_leq``: a poset from an order predicate, by a scan over all pairs;
* ``restrict`` and ``as_lattice``: a sublattice or interval rebuilt as a
  standalone lattice, and ``interval_cji_transfer`` checked against it;
* ``interval_restriction``: a labeled poset cut down to an interval;
* ``cjr_oracle`` and ``irredundant_representations``: canonical and
  irredundant join representations by enumerating element subsets, and
  ``cmr_matches_kappa_bar``: the kappa_bar identity on CJR/CMR;
* ``orders_coincide_report_oracle``: the derived orders compared by their
  sorted name covers, and the label sets as maps of name frozensets;
* ``is_extremal_oracle``: extremality by a search for a longest chain whose
  j-labels exhaust cji, and ``kappa_bar_d_oracle``: kappa_bar_d as the join
  of the j-labels of the covers above each element;
* ``atom_labels`` and ``coatom_labels``: the labels of the covers at the two
  ends of an interval;
* ``posets_isomorphic``: an order isomorphism of two small posets, by
  backtracking;
* ``catalan``: the Catalan numbers by their recursion, for the tamari sizes;
* ``kd_nodes``, ``count_kd_nodes``, ``enumerate_kd_nodes`` and
  ``recursive_labels_nodes``: the kappa_d-exceptional walks of ``sequences``
  on a DAG with one node per interval (a, b), where the library keeps one
  node per label mask; their clo-up step takes kappa_bar of every member
  of a node (``kappa_bar_within``), where the library reads upper cores.
"""

from sdlat import InconsistentLabels, LabeledPoset, Lattice, Poset, cjr, cmr, irreducible_table
from sdlat import CanonicalRep, NoUniqueMax, RecursionMismatch, SizeLimitExceeded, j_label_interval
from sdlat.core import _bits, _lsb, _name_list
from sdlat.cores import OrdersReport, clo_down, clo_up, kappa_order, lab_down_map, lab_up_map, w_map
from sdlat.cores import _pop_up_idx
from sdlat.irreducibles import _j_label_idx, _kappa, _labels_between, _sorted_names
from sdlat.irreducibles import kappa_bar_map


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
        alphabet=lp.alphabet,
        label_leq=lp.label_leq,
    )


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
    image = kappa_bar_map(lattice)[x]
    expected = sorted(table.kappa[j] for j in cjr(lattice, x).joinands)
    return list(cmr(lattice, image).joinands) == expected


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
    for chain in _chains_of_full_length(lattice):
        if {_j_label_idx(lattice, u, v) for u, v in zip(chain, chain[1:])} == target:
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
    join of the j-labels of the covers above x.
    """
    names, up, ucov = lattice.names, lattice.up, lattice._ucov
    out = {}
    for x in range(lattice.n):
        acc = up[lattice._bot]
        for v in ucov[x]:
            acc &= up[_j_label_idx(lattice, x, v)]
        out[names[x]] = names[_lsb(acc)]
    return out


def atom_labels(lattice, lo, hi):
    """Labels j of the covers lo < z inside [lo, hi] (the interval's atoms)."""
    a, b = lattice._ends(lo, hi)
    _kappa(lattice)  # raises NotSemidistributive even when [lo, hi] has no atoms
    atoms = [z for z in lattice._ucov[a] if lattice.down[b] >> z & 1]
    return _sorted_names(lattice, sum(1 << _j_label_idx(lattice, a, z) for z in atoms))


def coatom_labels(lattice, lo, hi):
    """Labels kappa(j) of the covers z < hi inside [lo, hi] (the coatoms)."""
    a, b = lattice._ends(lo, hi)
    kappa = _kappa(lattice)
    coatoms = [z for z in lattice._dcov[b] if lattice.up[a] >> z & 1]
    return _sorted_names(lattice, sum(1 << kappa[_j_label_idx(lattice, z, b)] for z in coatoms))


def catalan(n):
    """Independent recursive Catalan count, for validating tamari sizes."""
    counts = [1]
    for m in range(1, n + 1):
        counts.append(sum(counts[k] * counts[m - 1 - k] for k in range(m)))
    return counts[n]


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


def _node_child(lattice, a, b, j):
    """The node (a v j, pop_up_[a,b](a v j)) reached from (a, b) by label j."""
    x = _lsb(lattice.up[a] & lattice.up[j])
    return (x, _pop_up_idx(lattice, x, b))


def _node_children(lattice, memo, node):
    """Label index -> child node of ``node``, in label index order, memoized."""
    kids = memo.get(node)
    if kids is None:
        a, b = node
        kids = memo[node] = {j: _node_child(lattice, a, b, j) for j in _bits(_labels_between(lattice, a, b))}
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
    names = lattice.names
    memo = {}
    root = _node_root(lattice)
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
            stack.append((child, (names[j],) + shown, moved))
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
    """``sequences._recursive_labels`` with one node per interval (a, b).

    Each finished node's labels are merged into its parent's by
    ``_merge_labels``, with its conflict test: the library writes each key
    once into one dict, and this keeps the merge that its docstring proves
    needless, as the check on that proof.
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


def _merge_labels(lattice, frame, labels):
    (a, _), out, _ = frame
    for key, lbl in labels.items():
        if out.get(key, lbl) != lbl:
            name = [lattice.names[lattice._join_idx(a, j)] for j in (out[key], lbl)]
            raise RecursionMismatch(f"conflicting labels {name[0]!r} and {name[1]!r} for one cover")
        out[key] = lbl


def kappa_bar_within(lattice, a, b):
    """kappa_bar of each x in [a, b], taken in the interval [a, b], by index.

    It is b ^ the meet of kappa(j) over the L-labels j of the covers below
    x inside [a, b]: the interval's kappa of its cji a v j is b ^ kappa(j)
    (see ``sdlat.sequences``), and the empty meet is b.
    """
    kappa = _kappa(lattice)
    up_a, down = lattice.up[a], lattice.down
    out = {}
    for x in _bits(up_a & down[b]):
        acc = down[b]
        for u in lattice._dcov[x]:
            if up_a >> u & 1:
                acc &= down[kappa[_j_label_idx(lattice, u, x)]]
        out[x] = acc.bit_length() - 1
    return out


def node_label_steps(lattice, node):
    """Yield (key, label, child) for each coatom of the top of cloUp([a, b]).

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
    lab_up = {x: _labels_between(lattice, k, _pop_up_idx(lattice, k, b)) for x, k in kbar.items()}
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
        j = _j_label_idx(lattice, lower[0], k)
        yield (lab_up[u], full), j, _node_child(lattice, a, b, j)


def _maximal_masks(members, masks):
    kept = []
    for x in sorted(members, key=lambda x: -masks[x].bit_count()):
        if not any(masks[x] & ~masks[y] == 0 for y in kept):
            kept.append(x)
    return kept
