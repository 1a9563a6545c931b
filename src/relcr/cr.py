"""Classical Color Refinement on colored multigraphs.

The base color of a node is its unary labels together with its loop labels.
Each round refines by the multiset of (edge-label-set, neighbor color) pairs
over Gaifman neighbors, where the label set of an ordered pair (v, w) collects
every edge relation holding (v, w) (tagged +) or (w, v) (tagged -).

The round step sorts (node, label, neighbor-color) triples and splits buckets
on the sorted signature vectors, so one round is O((n+m) log(n+m)).  Rounds
are synchronous: colors_at(i) is exactly the i-th refinement of the base
coloring, which the tuple/graph round-correspondence tests rely on.
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


def cr_run(G: ColoredMultigraph, max_rounds=None, trace=True) -> Coloring:
    """Refine until the partition is stable (or max_rounds).  With trace=False
    only the last round is kept, which the benchmark path uses."""
    if max_rounds is None:
        max_rounds = G.n
    src, dst, lam = _lambda_adjacency(G)
    colors, ncls = _base_colors(G)
    rounds = [colors]
    class_counts = [ncls]
    isolated_sig = np.int64(-1)
    for _ in range(max_rounds):
        prev = rounds[-1]
        codes = lam * np.int64(ncls) + prev[dst]
        order = np.lexsort((codes, src))
        s_src = src[order]
        s_codes = codes[order]
        idx = np.arange(G.n)
        starts = np.searchsorted(s_src, idx)
        ends = np.searchsorted(s_src, idx, side="right")
        table: dict = {}
        new = np.empty(G.n, dtype=np.int64)
        setdefault = table.setdefault
        for v in range(G.n):
            a, b = starts[v], ends[v]
            key = (int(prev[v]),
                   s_codes[a:b].tobytes() if a < b else isolated_sig)
            new[v] = setdefault(key, len(table))
        new_ncls = len(table)
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
