"""Classical Color Refinement on colored multigraphs.

The base color of a node is its unary labels together with its loop labels.
Each round refines by the multiset of (edge-label-set, neighbor color) pairs
over Gaifman neighbors, where the label set of an ordered pair (v, w) collects
every edge relation holding (v, w) (tagged +) or (w, v) (tagged -).

A round is one call of refine_step, the refinement kernel that rcr_run
uses as well: nodes are grouped by a multiset hash of their (label,
neighbor-color) codes, and every group is verified exactly, so no class
depends on the hash.  cr_run hands it only the nodes next to a class that
split in the previous round (every node in the first round), so a round
costs O(m' log m') for the m' edges at those nodes.  Rounds are synchronous:
colors_at(i) is exactly the i-th refinement of the base coloring, which the
tuple/graph round-correspondence tests rely on.  Both engines record a run
as a Coloring of per-round changes.

A multigraph's labels reach cr_run as ints; label names are never read.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .multigraph import ColoredMultigraph, sorted_distinct


class Coloring:
    """Per-round colors of one refinement run, shared by both engines.

    The trace holds changes, not rounds.  base[k] is position k's internal
    name at round 0.  Round i renamed the positions moved[ends[i - 1]:
    ends[i]] to renamed[ends[i - 1]:ends[i]], with ends[0] = 0; moved and
    renamed are flat int64 arrays.  Internal names of round i are
    0..class_counts[i]-1: when a class splits, its largest part keeps the
    name and the other parts take the next free ones, so a position changes
    name at most log2 n times.

    colors_at(i) builds round i on demand and publishes it: offsets[i] (0
    unless given) plus the rank of the class's first position among the
    first positions of all classes, that is, ids numbered by first
    occurrence.  Ids are comparable only within one run.  The partition at
    stable_round is the stable coloring, and rounds past the last stored
    one repeat it."""

    CACHED_ROUNDS = 16   # synthesis and the game revisit a few rounds

    def __init__(self, base, moved, renamed, ends, class_counts, offsets=None):
        self.base = base
        self.moved, self.renamed, self.ends = moved, renamed, ends
        self.class_counts = class_counts
        self.stable_round = len(class_counts) - 1
        self.offsets = offsets
        self._at = (0, base.copy())   # one round's internal names
        self._parent = None           # internal name -> the name it split from
        self._published: dict = {}    # round -> (ids, first position per id)

    @property
    def colors(self):
        return self.colors_at(self.stable_round)

    def colors_at(self, i):
        """Colors of round i as an int64 array; rounds past stability repeat
        the stable partition."""
        return self._publish(i)[0]

    def _publish(self, i):
        i = min(i, len(self.ends) - 1)
        hit = self._published.pop(i, None)
        if hit is None:
            names = self._names_at(i)
            n = len(names)
            first = np.full(int(names.max()) + 1 if n else 0, n, dtype=np.int64)
            np.minimum.at(first, names, np.arange(n))
            heads = np.flatnonzero(first[names] == np.arange(n))
            rank = np.empty(len(first), dtype=np.int64)
            rank[names[heads]] = np.arange(len(heads))
            ids = rank[names]
            if self.offsets:
                ids += self.offsets[i]
            hit = ids, heads
            if len(self._published) >= self.CACHED_ROUNDS:
                del self._published[next(iter(self._published))]
        self._published[i] = hit   # most recently used last
        return hit

    def _names_at(self, i):
        """Internal names of round i, moved to from the last round built."""
        j, names = self._at
        ends, moved, renamed = self.ends, self.moved, self.renamed
        for r in range(j, i):
            names[moved[ends[r]:ends[r + 1]]] = renamed[ends[r]:ends[r + 1]]
        if j > i:
            parent = self._parents()
            for r in reversed(range(i, j)):
                names[moved[ends[r]:ends[r + 1]]] = parent[
                    renamed[ends[r]:ends[r + 1]]]
        self._at = (i, names)
        return names

    def _parents(self):
        if self._parent is None:
            self._parent = np.arange(max(self.class_counts), dtype=np.int64)
            names = self.base.copy()
            ends, moved, renamed = self.ends, self.moved, self.renamed
            for r in range(len(ends) - 1):
                pos, new = moved[ends[r]:ends[r + 1]], renamed[ends[r]:ends[r + 1]]
                self._parent[new] = names[pos]
                names[pos] = new
        return self._parent

    def histogram_at(self, i, positions=None) -> Counter:
        cols = self.colors_at(i)
        if positions is not None:
            cols = cols[np.asarray(positions, dtype=np.int64)]
        return Counter(cols.tolist())

    def partition_at(self, i, positions=None):
        """Frozen partition of the given positions (default: all) at round i."""
        cols = self.colors_at(i).tolist()
        blocks: dict = {}
        for k in (range(len(cols)) if positions is None else positions):
            blocks.setdefault(cols[k], []).append(k)
        return frozenset(frozenset(b) for b in blocks.values())

    def first_difference(self, left, right):
        """(round, color) of the smallest round whose histograms over the two
        position lists differ, with the smallest color counted differently
        there; None if no round tells them apart.

        diff[c] is the count of internal name c over left minus that over
        right, and unequal the number of names where it is not zero; a round
        updates both at its changed positions only.  In the first round
        with unequal > 0, the smallest color counted differently belongs to
        the first position whose name is counted differently."""
        weight = [0] * len(self.base)
        for k in left:
            weight[k] += 1
        for k in right:
            weight[k] -= 1
        names = self.base.tolist()
        diff = [0] * max(self.class_counts)
        for c, w in zip(names, weight):
            diff[c] += w
        unequal = len(diff) - diff.count(0)
        moved, renamed, ends = self.moved.tolist(), self.renamed.tolist(), self.ends
        i = 0
        while not unequal:
            if i == len(ends) - 1:
                return None
            for j in range(ends[i], ends[i + 1]):
                k, c = moved[j], renamed[j]
                w = weight[k]
                if w:
                    o = names[k]
                    unequal -= (diff[o] != 0) + (diff[c] != 0)
                    diff[o] -= w
                    diff[c] += w
                    unequal += (diff[o] != 0) + (diff[c] != 0)
                names[k] = c
            i += 1
        seen = set()
        for c in names:
            if c not in seen:
                if diff[c]:
                    return i, (self.offsets[i] if self.offsets else 0) + len(seen)
                seen.add(c)


def keep_largest(prev, new, count):
    """Internal names after the nodes with old names prev take the classes
    new (ids 0..k-1, each within one old class): in every old class the
    largest part keeps the old name, the smallest id among equals, and the
    other parts take count, count + 1, ... in the order of their ids.
    Returns (names, the indices whose name changed, names now in use)."""
    k = int(new.max()) + 1 if len(new) else 0
    parent = np.empty(k, dtype=np.int64)
    parent[new] = prev
    size = np.bincount(new, minlength=k)
    order = np.lexsort((-size, parent))
    head = np.ones(k, dtype=bool)
    np.not_equal(parent[order[1:]], parent[order[:-1]], out=head[1:])
    moves = np.ones(k, dtype=bool)
    moves[order[head]] = False
    name = parent.copy()
    fresh = np.flatnonzero(moves)
    name[fresh] = count + np.arange(len(fresh))
    return name[new], np.flatnonzero(moves[new]), count + len(fresh)


def _lambda_adjacency(G: ColoredMultigraph):
    """Precompute the Gaifman adjacency with interned pair-label sets.

    Returns (src, dst, lam) arrays, one entry per ordered pair, sorted:
    lam[k] is a dense id of the set of (edge label, direction) tags on the
    pair, tag 2 * label for an edge src -> dst and 2 * label + 1 for one
    dst -> src."""
    apart = G.src != G.dst
    s, d, lab = G.src[apart], G.dst[apart], G.label[apart]
    src, dst, tag = sorted_distinct(
        (np.concatenate((s, d)), np.concatenate((d, s)),
         np.concatenate((2 * lab, 2 * lab + 1))),
        (G.n, G.n, 2 * len(G.label_names)))
    head = np.ones(len(src), dtype=bool)
    head[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
    return src[head], dst[head], _set_ids(np.flatnonzero(head), tag)


def _base_colors(G: ColoredMultigraph):
    """(colors, count): nodes are colored by their unary labels and their
    loop labels, numbered by first occurrence over the nodes."""
    loops = G.src == G.dst
    owner = np.concatenate((G.node, G.src[loops]))
    tag = np.concatenate((G.node_label, len(G.label_names) + G.label[loops]))
    order = np.argsort(owner, kind="stable")
    owner, tag = owner[order], tag[order]
    starts = np.flatnonzero(np.diff(owner, prepend=-1))
    sets = np.full(G.n, -1, dtype=np.int64)   # -1: no labels, no loops
    sets[owner[starts]] = _set_ids(starts, tag)
    return first_occurrence(sets)


def _set_ids(starts, tag):
    """Dense ids of the tag sets tag[starts[k]:starts[k + 1]], the last
    running to the end, equal exactly when the sets are; no tag repeats
    within a set.  The tags are or-ed into int64 masks, 63 to a word."""
    ids = np.zeros(len(starts), dtype=np.int64)
    top = int(tag.max()) if len(tag) else -1
    for low in range(0, top + 1, 63):
        if top < 63:
            one = np.left_shift(1, tag)
        else:
            one = np.where((tag >= low) & (tag < low + 63),
                           np.left_shift(1, (tag - low) % 63), 0)
        _, rank = np.unique(np.bitwise_or.reduceat(one, starts),
                            return_inverse=True)
        if low:
            _, rank = np.unique(ids * (int(rank.max()) + 1) + rank,
                                return_inverse=True)
        ids = rank.ravel()
    return ids


_NONE = np.empty(0, dtype=np.int64)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)
_S30, _S27, _S31 = np.uint64(30), np.uint64(27), np.uint64(31)


def _mix(codes):
    """splitmix64 finalizer of each code, as uint64.  Only a pre-sort key:
    no class depends on it, so any function (even a constant) is correct."""
    z = codes.astype(np.uint64)
    z += _GOLDEN
    z ^= z >> _S30
    z *= _MUL1
    z ^= z >> _S27
    z *= _MUL2
    z ^= z >> _S31
    return z


def refine_step(starts, other, label, prev, other_colors):
    """One exact refinement step on a static incidence in CSR form.

    Node v owns the edges starts[v]:starts[v+1]; edge e leads to position
    other[e] of other_colors and carries the int label[e].  The new class of
    v is (prev[v], sorted multiset of (label[e], other_colors[other[e]])).
    Returns (new, count): class ids 0..count-1 numbered by first occurrence
    over the nodes, as a dict interning the keys in node order would.

    Nodes are grouped by (prev, degree, sum of mixed edge codes), and every
    group is verified element by element against its first node; groups
    that fail the check are split by their exact keys."""
    n = len(prev)
    if n == 0:
        return np.empty(0, dtype=np.int64), 0
    deg = starts[1:] - starts[:-1]
    if not len(other):
        return first_occurrence(prev)
    node = np.repeat(np.arange(n), deg)
    codes = label * np.int64(int(other_colors.max()) + 1) + other_colors[other]

    # candidate groups: equal (prev, degree) and equal multiset hash
    pair = prev * np.int64(len(other) + 1) + deg
    busy = np.flatnonzero(deg)
    hsum = np.zeros(n, dtype=np.uint64)
    hsum[busy] = np.add.reduceat(_mix(codes), starts[busy])
    order = np.lexsort((hsum, pair))
    pair, hsum = pair[order], hsum[order]
    head = np.empty(n, dtype=bool)
    head[0] = True
    np.not_equal(pair[1:], pair[:-1], out=head[1:])
    head[1:] |= hsum[1:] != hsum[:-1]
    group = np.empty(n, dtype=np.int64)
    group[order] = np.cumsum(head) - 1
    firsts = order[head]   # lexsort is stable: each group's smallest node

    # each node's codes in sorted order, compared with its group's first.
    # One sort of packed (node, code) keys where they fit in int64: a
    # lexsort alone made CLI refine of a 1e5-tuple random R/3,E/2 structure
    # take 2.46 s instead of 1.96 s (medians of 4 alternating runs on a
    # shared 2-core x86 machine).
    span = int(codes.max()) + 1
    if n * span < 2 ** 62:
        shift = node * np.int64(span)
        scodes = np.sort(shift + codes) - shift
    else:
        scodes = codes[np.lexsort((codes, node))]
    offset = starts[firsts[group]] - starts[:-1]
    wrong = scodes != scodes[np.arange(len(codes)) + offset[node]]
    if wrong.any():
        bad = np.zeros(len(firsts), dtype=bool)
        bad[group[node[wrong]]] = True
        return first_occurrence(_split_exactly(group, bad, starts, scodes))
    return _number(group, firsts)


def _split_exactly(group, bad, starts, scodes):
    """Regroup the nodes of the groups marked in bad by their exact sorted
    codes; the new groups get labels past every old one."""
    table: dict = {}
    out = group.copy()
    base = len(bad)
    for v in np.flatnonzero(bad[group]).tolist():
        key = (int(group[v]), scodes[starts[v]:starts[v + 1]].tobytes())
        out[v] = base + table.setdefault(key, len(table))
    return out


def first_occurrence(classes):
    """Renumber int class labels 0, 1, ... in order of first occurrence;
    returns (ids, count)."""
    _, firsts, dense = np.unique(classes, return_index=True, return_inverse=True)
    return _number(dense.ravel(), firsts)


def _number(group, firsts):
    """(ids, count) for dense groups whose smallest members are firsts."""
    rank = np.empty(len(firsts), dtype=np.int64)
    rank[np.argsort(firsts)] = np.arange(len(firsts))
    return rank[group], len(firsts)


def cr_run(G: ColoredMultigraph, max_rounds=None, trace=True) -> Coloring:
    """Refine until the partition is stable (or max_rounds).  With trace=False
    only the last round is kept, which the benchmark path uses.

    From the second round on, only the nodes next to a class that split in
    the previous round can split.  Two nodes of one class have equal
    multisets over the previous round's classes, so they see the same
    number of neighbours in every class that did not split, and either both
    or neither have a neighbour in one that did.  A round refines just
    those nodes when they number at most (n - 256) / 2, 256 nodes being
    about the cost of cutting them out.  With a trace, names follow
    keep_largest, which gives the trace its changes."""
    if max_rounds is None:
        max_rounds = G.n
    src, dst, lam = _lambda_adjacency(G)
    starts = np.searchsorted(src, np.arange(G.n + 1))  # src is sorted
    names, count = _base_colors(G)
    base = names
    moved, renamed, ends = [_NONE], [_NONE], [0]
    class_counts = [count]
    rows = None   # the nodes to refine; None for all of them
    for _ in range(max_rounds):
        if rows is None:
            old = names
            local, k = refine_step(starts, dst, lam, names, names)
        else:
            old = names[rows]
            sub, edges = _csr_rows(starts, rows)
            local, k = refine_step(sub, dst[edges], lam[edges], old, names)
        if trace:
            part, changed, new_count = keep_largest(old, local, count)
        elif rows is None:
            part, new_count = local, k
        else:
            # names need not stay put without a trace: old ones, then fresh
            reuse = np.flatnonzero(np.bincount(old, minlength=count))
            new_count = count + k - len(reuse)
            part = np.concatenate((reuse, np.arange(count, new_count)))[local]
        if new_count == count:
            break  # count equality implies partition equality (refinement)
        if rows is None:
            new = part
        else:
            new = names.copy()
            new[rows] = part
        if trace:
            changed = changed if rows is None else rows[changed]
            moved.append(changed)
            renamed.append(new[changed])
            ends.append(ends[-1] + len(changed))
        class_counts.append(new_count)
        if G.n > 256:
            rows = _next_rows(starts, dst, rows, old, local, k, count)
        names, count = new, new_count
    return Coloring(base if trace else names, np.concatenate(moved),
                    np.concatenate(renamed), ends, class_counts)


def _next_rows(starts, dst, rows, old, local, k, count):
    """The nodes next to a class that split when rows (None for all nodes)
    with old names took the new local ids 0..k-1; None when they number
    more than (n - 256) / 2."""
    n = len(starts) - 1
    parent = np.empty(k, dtype=np.int64)
    parent[local] = old
    split = np.bincount(parent, minlength=count) > 1
    moved = np.flatnonzero(split[old])
    if rows is not None:
        moved = rows[moved]
    _, edges = _csr_rows(starts, moved)
    near = np.zeros(n, dtype=bool)
    near[dst[edges]] = True
    nxt = np.flatnonzero(near)
    return None if 2 * len(nxt) + 256 > n else nxt


def _csr_rows(starts, rows):
    """(starts, edges) of the CSR restricted to the given rows, where edges
    indexes the full edge arrays."""
    deg = starts[rows + 1] - starts[rows]
    return np.concatenate(([0], np.cumsum(deg))), ranges(starts[rows], deg)


def ranges(starts, sizes):
    """The indices starts[k] + range(sizes[k]) for every k, concatenated."""
    ends = np.cumsum(sizes)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(
        starts - (ends - sizes), sizes)


def multigraph_union(G: ColoredMultigraph, H: ColoredMultigraph):
    """Disjoint union; H's node ids are shifted by G.n.  The label tables
    are merged by name; the edges of a disjoint union are already distinct,
    so they are not sorted again."""
    known = set(G.label_names)
    names = G.label_names + [x for x in H.label_names if x not in known]
    code = {x: k for k, x in enumerate(names)}
    remap = np.array([code[x] for x in H.label_names], dtype=np.int64)
    U = ColoredMultigraph.of_distinct(
        G.n + H.n, names,
        np.concatenate((G.src, H.src + G.n)),
        np.concatenate((G.dst, H.dst + G.n)),
        np.concatenate((G.label, remap[H.label])),
        np.concatenate((G.node, H.node + G.n)),
        np.concatenate((G.node_label, remap[H.node_label])))
    return U, G.n


def cr_distinguishes(G: ColoredMultigraph, H: ColoredMultigraph):
    """Smallest round whose color histograms differ between the two sides of
    the disjoint-union run, or None if CR does not distinguish G and H."""
    U, off = multigraph_union(G, H)
    diff = cr_run(U).first_difference(range(off), range(off, U.n))
    return None if diff is None else diff[0]
