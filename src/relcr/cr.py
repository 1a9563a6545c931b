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
vgrep hands it over, built from the tuple-slice incidence, with label stp(a,
s) from tuple to slice and another from slice to tuple, so its edge rows are
never sorted back into pair labels; for other encodings _lambda_adjacency
and _base_colors derive it from the edge rows.
"""

from __future__ import annotations

from collections import Counter, defaultdict

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
    unless given) plus the first_occurrence id of the class, whatever its
    internal name.  Ids are comparable only within one run.  stable_round is
    the last stored round, the stable one unless a round budget or a stop test
    ended the run, and rounds past it repeat its partition."""

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
        the stable partition."""
        return self._publish(i)[0]

    def _publish(self, i):
        i = min(i, len(self.ends) - 1)
        hit = self._published.pop(i, None)
        if hit is None:
            ids, heads = first_occurrence(self._names_at(i))
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


def keep_largest(prev, new, count):
    """Internal names after the nodes with old names prev take the classes
    new (ids 0..k-1, each within one old class): in every old class the
    largest part keeps the old name, the smallest id among equals, and the
    other parts take count, count + 1, ... in the order of their ids.
    Returns (names, the indices whose name changed, names now in use)."""
    k = int(new.max()) + 1 if len(new) else 0
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


def _refinement_input(G: ColoredMultigraph):
    """The default ColoredMultigraph.refinement_input, from the edge rows."""
    src, dst, lam = _lambda_adjacency(G)
    starts = np.searchsorted(src, np.arange(G.n + 1))  # src is sorted
    return (starts, dst, lam), *_base_colors(G)


def _lambda_adjacency(G: ColoredMultigraph):
    """The Gaifman adjacency with interned pair-label sets, derived from the
    edge rows for encodings that do not hand it over.

    Returns (src, dst, lam) arrays, one entry per ordered pair, sorted:
    lam[k] is a dense id of the set of (edge label, direction) tags on the
    pair, tag 2 * label for an edge src -> dst and 2 * label + 1 for one
    dst -> src.  One sort of (src * n + dst, tag) rows, in any order."""
    apart = G.src != G.dst
    s, d, lab = G.src[apart], G.dst[apart], G.label[apart]
    pair, tag = sorted_distinct(
        (np.concatenate((s * G.n + d, d * G.n + s)),
         np.concatenate((2 * lab, 2 * lab + 1))),
        (G.n * G.n, 2 * len(G.label_names)))
    head = np.flatnonzero(np.diff(pair, prepend=-1))
    return (*np.divmod(pair[head], G.n), _set_ids(head, tag))


def _base_colors(G: ColoredMultigraph):
    """(names, count): nodes are classed by their unary labels and their
    loop labels, named 0..count-1 in no particular order."""
    loops = G.src == G.dst
    owner = np.concatenate((G.node, G.src[loops]))
    tag = np.concatenate((G.node_label, len(G.label_names) + G.label[loops]))
    order = np.argsort(owner, kind="stable")
    owner, tag = owner[order], tag[order]
    starts = np.flatnonzero(np.diff(owner, prepend=-1))
    sets = np.full(G.n, -1, dtype=np.int64)   # -1: no labels, no loops
    sets[owner[starts]] = _set_ids(starts, tag)
    return _dense(sets)


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
        return _dense(prev)
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
        return _dense(_split_exactly(group, bad, starts, scodes))
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


def _dense(classes):
    """(names, count): int class labels renamed 0..count-1, in sorted order."""
    distinct, names = np.unique(classes, return_inverse=True)
    return names, len(distinct)


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
    from their edge rows."""
    if max_rounds is None:
        max_rounds = G.n
    csr, names, count = G.refinement_input
    return Coloring(*refine_rounds([csr], names, count, max_rounds, trace))


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
# 2.8/2.3, 2.8/2.2; oracles 0.8/0.8 for all.  Without the cost, random
# R/3,E/2 vgreps of 8e3, 1.6e4, 6.4e4, 1e5 tuples (seed 7) handed over for
# their last 1-2 rounds: cr_run took 0.18, 0.35, 1.58, 3.24 s, not 0.14,
# 0.27, 1.33, 2.60 s.
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
                part, changed, new_count = keep_largest(old, local, counts[j])
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
    of each class as dict keys (a dict of ints, unlike a set, is not tracked
    by the garbage collector).  A split costs O(nodes re-keyed)."""

    def __init__(self, names):
        self.names = names
        self.members = [{} for _ in range(max(names, default=-1) + 1)]
        for v, c in enumerate(self.names):
            self.members[c][v] = None

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
            rest = len(old) - sum(map(len, split))
            if not rest and len(split) == 1:
                continue
            for part in split:
                for v in part:
                    del old[v]
            keep = max(split, key=len)
            if len(keep) <= rest:
                keep = None
            else:
                members[c] = dict.fromkeys(keep)
                if rest:   # the untouched part leaves too: it is smaller than keep
                    split.append(list(old))
            for part in split:
                if part is not keep:
                    new = len(members)
                    for v in part:
                        names[v] = new
                    members.append(dict.fromkeys(part))
                    renamed += part
        return renamed


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
