"""Classical Color Refinement on colored multigraphs, and the round driver
that both refinement engines share.

The base color of a node is its unary labels together with its loop labels.
Each round refines by the multiset of (edge-label-set, neighbor color) pairs
over Gaifman neighbors, where the label set of an ordered pair (v, w) collects
every edge relation holding (v, w) (tagged +) or (w, v) (tagged -).

refine_rounds runs cr_run, one half-step a round, and rcr's slice kernel, two
half-steps a round on the tuple-slice incidence.  A half-step is one exact
refine_step: nodes are grouped by a multiset hash of their (label,
neighbor-color) codes, and every group is verified exactly, so no class
depends on the hash.  Later rounds re-key only the nodes next to a class that
split, and once a round renames few nodes a worklist re-keys only the nodes
next to a renamed node, so a node is renamed at most log2 n times; rcr runs
the worklist alone on small inputs and long tuples.  Rounds are synchronous:
colors_at(i) is exactly the i-th refinement of the base coloring, which the
tuple/graph round-correspondence tests rely on.  Every engine records a run as
a Coloring of per-round changes, with classes named 0..k-1 in any order:
first_occurrence numbers a round where Coloring publishes it.

cr_run reads a multigraph's ColoredMultigraph.refinement_input: one int
label per ordered pair and the round-0 classes; label names are never read.
vgrep hands it over, built from the tuple-slice incidence, and every other
multigraph derives it from its edge and unary rows.

Untraced, on graphs of FOLD_NODES nodes or more, cr_run folds leaves out of
the rounds, as the O((n + m) log n) refinement of Berkholz, Bonsma and Grohe
needs no per-round work for them.  A leaf has one neighbour, which has two
or more: most of vgrep's nodes are slices that one tuple alone holds.  A
leaf p with neighbour a has class (base(p), label(p, a), class of a the
round before) at every round r >= 1, so refine_rounds refines only the core,
every other node.  Round 1 reads a core node's whole multiset.  Round 2 adds
a static signature, the multiset of (label(a, p), base(p)) over a's leaves.
From round 3 on a core class already fixes its members' leaf parts, and the
core refines on core edges alone.  The leaf classes of round r >= 3 are
pairs of a core class of round r - 1 and a key (base(p), label(p, a)) of its
members' leaves, so the leaves split in the round after their neighbours and
the run can end one round after the core's.  The fold keeps the last round,
the partition that refining the whole graph gives, and every round's class
count.  A traced run refines every node with refine_rounds, as rcr does.
"""

from __future__ import annotations

from collections import Counter, defaultdict

import numpy as np

from .core import _row_ids
from .multigraph import ColoredMultigraph


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
    unless given) plus the first_occurrence id of the class, whatever its
    internal name.  Ids are comparable only within one run.  stable_round is
    the last stored round, the stable one unless a round budget or a stop test
    ended the run, and rounds past it repeat its partition; an untraced run
    (ends [0]) keeps no round before it."""

    CACHED_ROUNDS = 16   # synthesis revisits a few rounds

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
        the stable partition, and a round not kept raises a ValueError."""
        return self._publish(i)[0]

    def _publish(self, i):
        kept = self.stable_round + 1 - len(self.ends)   # 0 unless untraced
        if i < kept:
            raise ValueError("no round %r: this run keeps rounds %d on"
                             % (i, kept))
        i = min(i, self.stable_round)
        hit = self._published.pop(i, None)
        if hit is None:
            ids, heads = first_occurrence(self._names_at(i - kept))
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
        there; None if no round tells them apart.  SideCounts follows the
        rounds' changed positions only."""
        self.colors_at(0)   # a ValueError unless the run kept round 0
        counts, ends = SideCounts(self.base, left, right), self.ends
        while not counts.unequal and counts.round < len(ends) - 1:
            i = counts.round
            counts.advance(self.moved[ends[i]:ends[i + 1]].tolist(),
                           self.renamed[ends[i]:ends[i + 1]].tolist())
        return counts.verdict(self.offsets)


class SideCounts:
    """Per internal name, its count over the left positions minus its count
    over the right ones, from a round's names on.  advance applies the next
    round's renames and updates the counts at those positions only.  round
    is the round reached, and unequal the number of names counted
    differently there."""

    def __init__(self, names, left, right):
        self.names = names.tolist()
        self.weight = weight = [0] * len(self.names)
        for k in left:
            weight[k] += 1
        for k in right:
            weight[k] -= 1
        self.diff = diff = [0] * len(self.names)
        for c, w in zip(self.names, weight):
            diff[c] += w
        self.unequal = len(diff) - diff.count(0)
        self.round = 0

    def advance(self, moved, renamed) -> bool:
        """Rename the positions moved (a list) to renamed; whether some name
        is now counted differently."""
        weight, names, diff = self.weight, self.names, self.diff
        unequal = self.unequal
        for k, c in zip(moved, renamed):
            w = weight[k]
            if w:
                o = names[k]
                unequal -= (diff[o] != 0) + (diff[c] != 0)
                diff[o] -= w
                diff[c] += w
                unequal += (diff[o] != 0) + (diff[c] != 0)
            names[k] = c
        self.unequal = unequal
        self.round += 1
        return unequal > 0

    def verdict(self, offsets=None):
        """(round, color) of the round reached and its smallest color counted
        differently, or None if none is.  That color's name holds the first
        position of such a name; the color is the number of names before
        it, plus the round's offset."""
        if self.unequal:
            k = next(k for k, c in enumerate(self.names) if self.diff[c])
            first = len(set(self.names[:k]))
            return self.round, first + (offsets[self.round] if offsets else 0)


def keep_largest(prev, new, k, count):
    """Internal names after the nodes with old names prev take the classes
    new (ids 0..k-1, each within one old class): in every old class the
    largest part keeps the old name, the smallest id among equals, and the
    other parts take count, count + 1, ... in the order of their ids.
    Returns (names, the indices whose name changed, names now in use)."""
    parent = np.empty(k, dtype=np.int64)
    parent[new] = prev
    # parts by old name, the largest first: one stable sort of a packed key
    order = np.argsort(parent * (len(new) + 1) - np.bincount(new, minlength=k),
                       kind="stable")
    moves = np.zeros(k, dtype=bool)
    by_name = parent[order]
    moves[order[1:]] = by_name[1:] == by_name[:-1]
    fresh = np.flatnonzero(moves)
    parent[fresh] = count + np.arange(len(fresh))
    return parent[new], np.flatnonzero(moves[new]), count + len(fresh)


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
    Returns (new, count): the classes named 0..count-1 in any order; only
    the partition is fixed.

    Nodes are grouped by (prev, degree, sum of mixed edge codes), and every
    group is verified element by element against its first node; groups
    that fail the check are split by their exact keys."""
    n = len(prev)
    if n == 0:
        return np.empty(0, dtype=np.int64), 0
    deg = starts[1:] - starts[:-1]
    if not len(other):
        return _row_ids(prev[:, None])
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

    # each node's codes in sorted order, compared with its group's first:
    # one sort of packed (node, code) keys, the codes first replaced by
    # their ranks (_row_ids) where the keys would pass 2^62.  A lexsort of
    # (code, node) made CLI refine of a 1e5-tuple random R/3,E/2 structure
    # take 2.46 s instead of 1.96 s (medians of 4 alternating runs on a
    # shared 2-core x86 machine).
    span = int(codes.max()) + 1
    if n * span >= 1 << 62:
        codes, span = _row_ids(codes[:, None])
    shift = node * np.int64(span)
    scodes = np.sort(shift + codes) - shift
    offset = starts[firsts[group]] - starts[:-1]
    wrong = scodes != scodes[np.arange(len(codes)) + offset[node]]
    if wrong.any():
        bad = np.zeros(len(firsts), dtype=bool)
        bad[group[node[wrong]]] = True
        return _row_ids(_split_exactly(group, bad, starts, scodes)[:, None])
    return group, len(firsts)


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


def first_occurrence(names):
    """(ids, heads) for int names >= 0: ids numbers the classes 0, 1, ... in
    order of first occurrence, and heads[c] is the first position of id c.
    The one numbering of published colors; O(n + largest name)."""
    n = len(names)
    first = np.full(int(names.max()) + 1 if n else 0, n, dtype=np.int64)
    np.minimum.at(first, names, np.arange(n))
    heads = np.flatnonzero(first[names] == np.arange(n))
    rank = np.empty(len(first), dtype=np.int64)
    rank[names[heads]] = np.arange(len(heads))
    return rank[names], heads


def cr_run(G: ColoredMultigraph, max_rounds=None, trace=True) -> Coloring:
    """Refine until the partition is stable (or max_rounds).  With trace=False
    only the last round is kept, which the benchmark path uses.  Reads only
    G.refinement_input, which vgrep hands over and other encodings derive
    from their edge rows.

    An untraced run on FOLD_NODES nodes or more folds leaves out: a leaf is
    a node with one neighbour, which has two or more, and refine_rounds
    refines only the core, every other node; _fold_rounds derives the
    leaves' last classes.  A traced run refines every node."""
    if max_rounds is None:
        max_rounds = G.n
    csr, names, count = G.refinement_input
    if not trace and G.n >= FOLD_NODES:
        leaf = _leaves(*csr[:2])
        if leaf.any():
            final, counts = _fold_rounds(csr, names, count, leaf, max_rounds)
            return Coloring(final, _NONE, _NONE, [0], counts)
    return Coloring(*refine_rounds([csr], names, count, max_rounds, trace))


# cr_run folds leaves out on graphs of at least FOLD_NODES nodes; on smaller
# ones the fold's fixed numpy passes cost more than its rounds save, and a
# small core may never hand over to the worklist (a path's core does not
# while its classes are within 64 of its nodes).  Folded against unfolded
# cr_run(trace=False) time, medians of 31 calls on the vgreps of the full
# pairs of 3 input sets (seed 13) at perfbench scale s, 2-core x86, Python
# 3.11, numpy 2.4: random-sparse 332 nodes (s = 0.05) 1.06, 688 0.82, 1,401
# 0.72, 2,834 0.67, 7,100 (s = 1) 0.61; hub-star 287 nodes 1.10, 579 0.87,
# 975 (s = 1) 0.97-1.06, 1,932 0.91, 3,868 0.74; long-path 121 nodes 1.18,
# 241 3.74, 481 0.88, 801 (s = 1) 0.78, 2,001 0.77, 4,001 0.72; oracles,
# 31 nodes, 1.48.
FOLD_NODES = 2048


def _leaves(starts, dst):
    """The mask of leaves of a CSR adjacency: nodes with one neighbour,
    which has two or more."""
    deg = starts[1:] - starts[:-1]
    leaf = deg == 1
    one = np.flatnonzero(leaf)
    leaf[one] = deg[dst[starts[one]]] >= 2
    return leaf


def _fold_rounds(csr, base, count, leaf, max_rounds):
    """(names, class_counts) for untraced CR on the CSR adjacency csr from
    the count classes base: the last round's dense names of every node, and
    every round's class count.  Only the nodes that leaf does not mark, the
    core, are refined, as the module docstring says.

    A leaf p with neighbour a has the key kappa(p) = (base(p), lambda(p,
    a)).  At round 1 a node of degree one (a leaf, or an end of an isolated
    edge: the only core nodes whose round-1 class a leaf can share) is its
    key and its neighbour's base class.  At round 2 a core node reads
    (lambda(a, p), base(p)) for each leaf p, as labels fix lambda(p, a)
    given both ends' base classes.  refine_rounds then refines the core on
    core edges from round 2, traced, and a leaf class of round r >= 3 is a
    core class of round r - 1 and the rank of the key among the d keys of
    its members' leaves."""
    starts, dst, lam = csr
    n = len(base)
    core = np.flatnonzero(~leaf)
    rs, edges = _csr_rows(starts, core)
    other, label = dst[edges], lam[edges]
    to_leaf = leaf[other]
    lv = other[to_leaf]                      # the leaves, by core neighbour
    owner = np.repeat(np.arange(len(core)), rs[1:] - rs[:-1])[to_leaf]

    c1, k1 = refine_step(rs, other, label, base[core], base)
    iso = core[rs[1:] - rs[:-1] == 1]        # ends of isolated edges
    ones = np.concatenate((lv, iso))
    kappa, nk = _row_ids(np.stack((base[ones], lam[starts[ones]]), axis=1))
    one, d1 = _row_ids(np.stack((kappa, base[dst[starts[ones]]]), axis=1))
    kappa = kappa[:len(lv)]
    k1_all = k1 + d1 - np.count_nonzero(np.bincount(one[len(lv):],
                                                    minlength=d1))
    col = base + k1
    col[core] = c1
    c2, k2 = refine_step(rs, other, label, c1, col)
    two, d2 = _row_ids(np.stack((kappa, c1[owner]), axis=1))
    three, d3 = _row_ids(np.stack((c2[owner], kappa), axis=1))
    cls = np.empty(d3, dtype=np.int64)
    cls[three] = c2[owner]
    d = np.bincount(cls, minlength=k2)      # keys per class of round 2
    rank = three - (np.cumsum(d) - d)[c2[owner]]

    inner = ~to_leaf
    cbase, cmoved, crenamed, cends, cc = refine_rounds(
        [(np.concatenate(([0], np.cumsum(inner)))[rs],
          (np.cumsum(~leaf) - 1)[other[inner]], label[inner])],
        c2, k2, max(max_rounds - 2, 0))
    dy = np.zeros(cc[-1], dtype=np.int64)   # keys per core name born later
    dy[crenamed] = d[c2[cmoved]]
    dsum = np.concatenate(([0], np.cumsum(dy)))
    cc = np.array(cc + [cc[-1]] * 2)        # core classes from round 2 on

    counts = [count]
    for r in range(1, max_rounds + 1):   # the core is stable past cc's end
        k = (k1_all if r == 1 else k2 + d2 if r == 2 else
             cc[r - 2] + d3 + dsum[cc[r - 3]])
        if k == counts[-1]:
            break
        counts.append(k)
    last = len(counts) - 1
    out = np.empty(n, dtype=np.int64)   # every node's dense names at last
    if last == 0:
        out = base
    elif last == 1:
        out[core] = c1
        out[ones] = k1 + one
        out = _row_ids(out[:, None])[0]
    elif last == 2:
        out[core] = c2
        out[lv] = k2 + two
    else:
        core_names = Coloring(cbase, cmoved, crenamed, cends, cc)._names_at
        before, at = (min(last - i, len(cends) - 1) for i in (3, 2))
        prev = core_names(before).copy()
        keys = np.zeros(cc[before], dtype=np.int64)
        keys[prev] = d[c2]
        out[lv] = cc[at] + (np.cumsum(keys) - keys)[prev[owner]] + rank
        out[core] = core_names(at)
    return out, counts


# refine_rounds hands over to its worklist after a round that renames at most
# (n - classes) / HANDOVER_PER_TUPLE of the n traced nodes, once the rounds
# since the last one that renamed more have cost the handover: at most
# n - classes rounds can follow, and converting the n + m nodes and edges to
# lists pays only when many do.  A half-step costs the nodes and edges it
# re-keys plus a sixteenth of its side, so a full round pays at once.  In ms,
# rcr_run / cr_run(trace=False) on vgrep, mean over the benchmark's 12 full
# pairs of 4 input sets (seed 7), best of 9, 2-core x86, Python 3.11, numpy
# 2.4, for no handover / after round 1 / this rule / 16 / 256: long-path
# 34.8/31.8, 5.7/4.5, 5.3/4.5, 5.4/4.5, 36.6/34.7; random-sparse 9.5/10.8,
# 17.1/35.6, 9.4/10.6, 9.6/10.9, 9.4/10.8; hub-star 2.8/2.3, 4.3/4.5, 2.8/2.3,
# 2.8/2.3, 2.8/2.2; oracles 0.8/0.8 for all (random-sparse's cr_run figures
# predate the leaf fold).  Without the cost, long-path's encode_refine_s fell
# 4-7%, but rcr_run of a 1e5-tuple random R/3,E/2 structure (seed 7) took a
# median 0.40 s, not 0.35 s, and a full-depth rcr_compare of it against a
# renamed copy 1.11 s, not 0.84 s (6 alternating fresh processes a side), and
# test_handover_cases_switch_mid_run's cases handed over after rounds 1, 3,
# 2, 2, 6, 3, not 1, 4, 3, 3, 18, 10.
HANDOVER_PER_TUPLE = 64


def refine_rounds(steps, base, count, max_rounds, trace=True, stop=None):
    """(base, moved, renamed, ends, class_counts) of a synchronous
    refinement, as Coloring keeps a run.

    steps holds one CSR (starts, other, label) per side, from its nodes to
    those of the other side (itself when there is one side).  A round is one
    refine_step half-step per side, in order: a node takes the class of its
    previous class and the multiset of (label, class of the other end).  The
    last side, traced, starts from the count classes base, another from one
    class.  Without a trace, the base returned is the last round's names.

    From round 2 on, on sides of more than 512 nodes, a half-step re-keys
    only the nodes next to a class of the other side that split in the
    half-step before, if they number at most (n - 256) / 2.  Nodes of one
    class had equal multisets over the other side, so a class is re-keyed
    whole (the nodes next to a renamed node alone would leave two parts of a
    class with one name).  keep_largest names the classes where the trace, a
    partial half-step or the handover needs it.

    With a trace, stop may end the run early: it is called after each round
    with the traced nodes that the round renamed and their new names, as
    lists, and the run ends with the first round for which it is true.
    SideCounts.advance is such a test."""
    sides = len(steps)
    size = [len(starts) - 1 for starts, _, _ in steps]
    names = [np.zeros(n, dtype=np.int64) for n in size[:-1]] + [base]
    counts = [1] * (sides - 1) + [count]
    moved, renamed, ends = [_NONE], [_NONE], [0]
    class_counts = [count]
    rows = [None] * sides   # the nodes each half-step re-keys; None for all
    price = sum(len(starts) - 1 + len(other) for starts, other, _ in steps)
    spent = 0
    for done in range(max_rounds):
        for j, (starts, other, label) in enumerate(steps):
            nxt = (j + 1) % sides
            prev, r = names[j], rows[j]
            if r is None:
                old, csr = prev, (starts, other, label)
            else:
                old = prev[r]
                sub, edges = _csr_rows(starts, r)
                csr = (sub, other[edges], label[edges])
            local, k = refine_step(*csr, old, names[nxt])
            spent += len(local) + len(csr[1]) + size[j] // 16
            # a round that adds k - count classes renames at least as many
            # nodes, too many for a handover when this fails
            part, changed, new_count = local, None, k
            if r is not None or j == sides - 1 and k > counts[j] and (
                    trace or (k - counts[j]) * HANDOVER_PER_TUPLE
                    <= size[j] - k):
                part, changed, new_count = keep_largest(old, local, k,
                                                       counts[j])
                if r is not None:
                    changed = r[changed]
                    part, named = prev.copy(), part
                    part[r] = named
            if new_count > counts[j] and size[nxt] > 512 and (
                    done or j == sides - 1):
                parent = np.empty(k, dtype=np.int64)
                parent[local] = old
                split = np.flatnonzero(
                    np.bincount(parent, minlength=counts[j])[old] > 1)
                _, edges = _csr_rows(starts, split if r is None else r[split])
                near = np.zeros(size[nxt], dtype=bool)
                near[other[edges]] = True
                rows[nxt] = np.flatnonzero(near)
                if 2 * len(rows[nxt]) + 256 > size[nxt]:
                    rows[nxt] = None
            names[j], counts[j] = part, new_count
        if new_count == class_counts[-1]:
            break   # refinement: equal class count, equal partition
        if trace:
            moved.append(changed)
            renamed.append(part[changed])
            ends.append(ends[-1] + len(changed))
        class_counts.append(new_count)
        if stop is not None and stop(changed.tolist(), renamed[-1].tolist()):
            break
        if (changed is None or len(changed) * HANDOVER_PER_TUPLE
                > size[-1] - new_count):
            spent = 0
        elif spent >= price:
            last, more, new = _worklist_rounds(
                [[x.tolist() for x in step] for step in steps],
                [x.tolist() for x in names], changed.tolist(),
                1 + max(int(x.max()) if len(x) else 0 for _, _, x in steps),
                max_rounds - done - 1, trace, stop, (ends, class_counts))
            names[-1] = np.array(last, dtype=np.int64)
            moved.append(np.array(more, dtype=np.int64))
            renamed.append(np.array(new, dtype=np.int64))
            break
    return (base if trace else names[-1], np.concatenate(moved),
            np.concatenate(renamed), ends, class_counts)


def _worklist_rounds(steps, names, moved, nlabels, rounds, trace, stop, log):
    """Refine the names of each side (lists, as steps' CSRs are, whose
    labels are below nlabels) for at most rounds rounds after one that
    renamed the traced nodes moved, with refine_rounds' stop test, adding
    each round's end and class count to log (ends, class_counts).  Returns
    the traced side's names, and the nodes it renamed and their new names
    in round order, as lists.

    A half-step re-keys only the nodes next to a node renamed in the
    half-step before, by their old name and the sorted codes (name *
    nlabels + label) of their edges to renamed nodes.  Two nodes of one
    class had equal multisets over the old names (a class fixes the
    multiset it was refined by, on the traced side from round 1 on), so
    they have equal multisets over the new ones exactly when their keys
    agree; the nodes of a class with no such edge form one more part (with
    every node moved, a node's key is its whole multiset).  A class's
    largest part keeps its name, so a node is renamed at most log2 n times,
    and the rounds cost O(M log N) together for M edges."""
    sides, (ends, class_counts) = len(steps), log
    parts = [_Partition(x) for x in names]
    all_moved, renamed = [], []
    for _ in range(rounds):
        for j in range(sides):
            nxt = (j + 1) % sides
            moved = parts[j].refine(
                _bags(moved, *steps[nxt], parts[nxt].names, nlabels))
        if not moved:
            break
        if trace:
            new = [parts[-1].names[a] for a in moved]
            all_moved += moved
            renamed += new
            ends.append(ends[-1] + len(moved))
        class_counts.append(len(parts[-1].members))
        if stop is not None and stop(moved, new):
            break
    return parts[-1].names, all_moved, renamed


def _bags(moved, starts, other, lab, names, nlabels):
    """node -> codes of its edges to the moved nodes of the other side."""
    bags = defaultdict(list)
    for v in moved:
        code = names[v] * nlabels
        lo, hi = starts[v], starts[v + 1]
        for w, label in zip(other[lo:hi], lab[lo:hi]):
            bags[w].append(code + label)
    return bags


class _Partition:
    """Dense names of nodes 0..n-1, a list refined in place, and the members
    of each class: the node itself for a class of one, which never splits,
    and otherwise dict keys (a dict of ints, unlike a set, is not tracked by
    the garbage collector).  A split costs O(nodes re-keyed)."""

    def __init__(self, names):
        self.names = names
        self.members = members = [None] * (max(names, default=-1) + 1)
        for v, c in enumerate(names):
            old = members[c]
            if old is None:
                members[c] = v
            elif type(old) is int:
                members[c] = {old: None, v: None}
            else:
                old[v] = None

    def refine(self, bags):
        """Split every class by the sorted codes of its nodes in bags; its
        nodes not in bags form one more part.  The largest part keeps the
        name, the untouched part first among equals, and the others take
        fresh names in order, the untouched part last.  Returns the renamed
        nodes."""
        names, members = self.names, self.members
        parts: dict = {}
        for v, bag in bags.items():
            bag.sort()
            parts.setdefault((names[v], *bag), []).append(v)
        by_class = defaultdict(list)
        for key, part in parts.items():
            by_class[key[0]].append(part)
        renamed = []
        for c, split in by_class.items():
            old = members[c]
            if type(old) is int:
                continue
            rest = len(old) - sum(map(len, split))
            if not rest and len(split) == 1:
                continue
            for part in split:
                for v in part:
                    del old[v]
            keep = max(split, key=len)
            if len(keep) <= rest:
                keep = None
                if rest == 1:
                    members[c] = next(iter(old))
            else:
                members[c] = _members(keep)
                if rest:   # the untouched part leaves too: it is smaller than keep
                    split.append(list(old))
            for part in split:
                if part is not keep:
                    new = len(members)
                    for v in part:
                        names[v] = new
                    members.append(_members(part))
                    renamed += part
        return renamed


def _members(part):
    """_Partition's members of a class: the node of a class of one, else
    the nodes as dict keys."""
    return part[0] if len(part) == 1 else dict.fromkeys(part)


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
