"""Classical Color Refinement on colored multigraphs.

The base color of a node is its unary labels together with its loop labels.
Each round refines by the multiset of (edge-label-set, neighbor color) pairs
over Gaifman neighbors, where the label set of an ordered pair (v, w) collects
every edge relation holding (v, w) (tagged +) or (w, v) (tagged -).

A round is one call of refine_step, the refinement kernel that rcr_run
uses as well: nodes are grouped by a multiset hash of their (label,
neighbor-color) codes, and every group is verified exactly, so one round is
O((n+m) log(n+m)) and no class depends on the hash.  Rounds are synchronous:
colors_at(i) is exactly the i-th refinement of the base coloring, which the
tuple/graph round-correspondence tests rely on.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .multigraph import ColoredMultigraph


class Coloring:
    """Per-round colors of one refinement run, shared by both engines.

    rounds[i] maps each position (a node, or a tuple occurrence) to its
    round-i color; ids are comparable only within one run.  The partition at
    stable_round is the stable coloring, and rounds past it repeat it."""

    def __init__(self, rounds, class_counts):
        self.rounds = rounds
        self.class_counts = class_counts
        self.stable_round = len(class_counts) - 1

    @property
    def colors(self):
        return self.rounds[-1]

    def colors_at(self, i):
        """Colors of round i; rounds past stability repeat the stable partition."""
        return self.rounds[min(i, len(self.rounds) - 1)]

    def histogram_at(self, i, positions=None) -> Counter:
        cols = self.colors_at(i)
        if positions is not None:
            cols = [cols[k] for k in positions]
        return Counter(cols)

    def partition_at(self, i, positions=None):
        """Frozen partition of the given positions (default: all) at round i."""
        cols = self.colors_at(i)
        blocks: dict = {}
        for k in (range(len(cols)) if positions is None else positions):
            blocks.setdefault(cols[k], []).append(k)
        return frozenset(frozenset(b) for b in blocks.values())

    def first_difference(self, left, right):
        """(round, color) of the smallest round whose histograms over the two
        position lists differ, with the smallest color counted differently
        there; None if no round tells them apart."""
        for i in range(self.stable_round + 1):
            hl = self.histogram_at(i, left)
            hr = self.histogram_at(i, right)
            if hl != hr:
                return i, min(c for c in hl.keys() | hr.keys() if hl[c] != hr[c])
        return None


def _lambda_adjacency(G: ColoredMultigraph):
    """Precompute the Gaifman adjacency with interned pair-label sets.

    Returns (src, dst, lam) arrays, deduplicated per ordered pair: lam[k] is
    a dense id of the set of (edge relation, direction) tags on the pair."""
    srcs, dsts, tags = [], [], []
    for t, name in enumerate(sorted(G.edges)):
        a = G.edges[name]
        if not len(a):
            continue
        nl = a[a[:, 0] != a[:, 1]]
        if not len(nl):
            continue
        srcs.append(nl[:, 0])
        dsts.append(nl[:, 1])
        tags.append(np.full(len(nl), 2 * t, dtype=np.int64))
        srcs.append(nl[:, 1])
        dsts.append(nl[:, 0])
        tags.append(np.full(len(nl), 2 * t + 1, dtype=np.int64))
    if not srcs:
        e = np.empty(0, dtype=np.int64)
        return e, e, e
    src = np.concatenate(srcs)
    dst = np.concatenate(dsts)
    tag = np.concatenate(tags)
    order = np.lexsort((tag, dst, src))
    src, dst, tag = src[order], dst[order], tag[order]
    pair_key = src * (G.n + 1) + dst
    starts = np.flatnonzero(np.diff(pair_key, prepend=pair_key[0] - 1))
    ntags = 2 * len(G.edges)
    if ntags <= 63:
        masks = np.bitwise_or.reduceat(
            np.left_shift(np.int64(1), tag), starts)
        _, lam = np.unique(masks, return_inverse=True)
    else:
        # too many tags for a bitmask; intern python tag tuples
        table: dict = {}
        lam = np.empty(len(starts), dtype=np.int64)
        bounds = np.append(starts, len(tag))
        for k in range(len(starts)):
            key = tag[bounds[k]:bounds[k + 1]].tobytes()
            lam[k] = table.setdefault(key, len(table))
    return src[starts], dst[starts], lam.astype(np.int64)


def _base_colors(G: ColoredMultigraph):
    loops: dict = {}
    for name in sorted(G.edges):
        a = G.edges[name]
        if not len(a):
            continue
        for v in a[a[:, 0] == a[:, 1], 0].tolist():
            loops.setdefault(v, []).append(name)
    table: dict = {}
    colors = np.empty(G.n, dtype=np.int64)
    for v in range(G.n):
        key = (tuple(sorted(G.labels.get(v, ()))), tuple(loops.get(v, ())))
        colors[v] = table.setdefault(key, len(table))
    return colors, len(table)


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
        bad = np.unique(group[node[wrong]])
        return first_occurrence(_split_exactly(group, bad, starts, scodes))
    return _number(group, firsts)


def _split_exactly(group, bad, starts, scodes):
    """Regroup the nodes of the groups in bad by their exact sorted codes;
    the new groups get labels past every old one."""
    table: dict = {}
    out = group.copy()
    base = int(group.max()) + 1
    for v in np.flatnonzero(np.isin(group, bad)).tolist():
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
    only the last round is kept, which the benchmark path uses."""
    if max_rounds is None:
        max_rounds = G.n
    src, dst, lam = _lambda_adjacency(G)
    starts = np.searchsorted(src, np.arange(G.n + 1))  # src is sorted
    colors, ncls = _base_colors(G)
    rounds = [colors]
    class_counts = [ncls]
    for _ in range(max_rounds):
        new, new_ncls = refine_step(starts, dst, lam, rounds[-1], rounds[-1])
        if new_ncls == ncls:
            break  # count equality implies partition equality (refinement)
        if trace:
            rounds.append(new)
        else:
            rounds = [new]
        class_counts.append(new_ncls)
        ncls = new_ncls
    return Coloring(rounds, class_counts)


def multigraph_union(G: ColoredMultigraph, H: ColoredMultigraph):
    """Disjoint union; H's node ids are shifted by G.n."""
    labels = dict(G.labels)
    for v, ls in H.labels.items():
        labels[v + G.n] = ls
    edges: dict = {}
    for name in set(G.edges) | set(H.edges):
        parts = []
        if name in G.edges and len(G.edges[name]):
            parts.append(G.edges[name])
        if name in H.edges and len(H.edges[name]):
            parts.append(H.edges[name] + G.n)
        if parts:
            edges[name] = np.concatenate(parts)
        else:
            edges[name] = np.empty((0, 2), dtype=np.int64)
    return ColoredMultigraph(G.n + H.n, labels, edges), G.n


def cr_distinguishes(G: ColoredMultigraph, H: ColoredMultigraph):
    """Smallest round whose color histograms differ between the two sides of
    the disjoint-union run, or None if CR does not distinguish G and H."""
    U, off = multigraph_union(G, H)
    diff = cr_run(U).first_difference(range(off), range(off, U.n))
    return None if diff is None else diff[0]
