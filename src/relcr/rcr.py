"""Relational Color Refinement.

Colors live on tuple occurrences.  The initial color of a is (atp(a), stp(a));
each round appends the multiset, over all occurrences b overlapping a, of
(stp(a, b), previous color of b).  Colors are interned integers, numbered
round after round, so each round owns a contiguous id range.  Any occurrence
with a color spells out that color's key, so the trace decodes a color from
a representative occurrence.  Ids are only comparable within one run, so
cross-structure questions refine the disjoint union.

Two engines compute the same ids.  kernel_rounds refines the tuple-slice
incidence in two half-steps per round with cr.refine_rounds, the round
driver of cr_run: exact vectorized cr.refine_step half-steps, O(N log N) a
round for a fixed signature, then, after a round that renames few tuples, a
worklist that re-keys only the nodes next to a renamed node.  A class that
splits keeps its name for its largest part, so a tuple is renamed at most
log2 N times and the worklist's rounds cost O(N log N) together.
reference_rounds interns each occurrence's multiset over all its overlaps,
which is quadratic on hubs; it serves small inputs, where it is faster, and
the tests as oracle.  A run is kept as cr.Coloring keeps it: base classes
and per-round changes.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, permutations
from typing import Optional

import numpy as np

from .core import Structure, disjoint_union, stp, strictly_equal_size
from .cr import Coloring, first_occurrence, refine_rounds

# rcr_run uses the kernel from this many tuple occurrences on.  The kernel
# pays ~1 ms to build its arrays and ~0.1 ms a half-step, so it loses on
# small inputs.  Best of 15 runs over 5 seeds, shared 2-core x86 machine,
# Python 3.11, numpy 2.4, kernel time / reference time: at 16 tuples 1.8
# (random R/3,E/2), 1.5 (hub), 2.6 (directed path); at 32 tuples 1.0, 0.43,
# 2.0; at 64 tuples 0.49, 0.10, 0.98; at 128 tuples 0.26, 0.04, 0.63.
KERNEL_MIN_TUPLES = 64
# rcr_run keeps the reference for tuples longer than this.  A tuple with d
# distinct elements has sum_k d!/(d-k)! slices: 64 at d = 4, 325 at 5, 1,956
# at 6, 13,699 at 7.  Same machine, kernel against reference time (peak RSS
# of the process, MB), 1024 tuples, half of them R(x1..xk), half E(x, y):
# random k = 5 0.040 s (53) against 0.18 s (36), k = 6 0.18 s (169) against
# 0.17 s (38); hub k = 5 0.034 s (53) against 4.5 s (233), k = 6 0.15 s
# (169) against 3.9 s (234); chained path k = 5 0.17 s (67) against 0.55 s
# (42), k = 6 0.30 s (178) against 0.56 s (42).  At 256 random tuples k = 6
# the kernel takes 2.6 times as long.  Time crosses between 5 and 6 on
# random inputs, memory already at 5 (4096 random tuples, k = 5: 0.12 s,
# 113 MB against 0.54 s, 58 MB); the benchmark has no tuple longer than 3.
KERNEL_MAX_ARITY = 5
class RefinementTrace(Coloring):
    """Per-round colors of an RCR run, with on-demand color decoding.

    Round i's ids start at offsets[i], the number of classes of the rounds
    before it, so that a color id names its round.  A color decodes to
    ("base", atp, stp) at round 0 and to ("step", prev, multiset)
    afterwards, where multiset is the sorted tuple of (stp-encoding,
    neighbor color) pairs over the overlapping occurrences, the occurrence
    itself included, duplicates retained."""

    def __init__(self, structure, base, moved, renamed, ends, class_counts):
        super().__init__(base, moved, renamed, ends, class_counts,
                         [0, *accumulate(class_counts)])
        self.structure = structure
        self._keys: dict = {}
        self._buckets = None       # element -> positions containing it

    def round_of_color(self, color: int) -> int:
        """Refinement round a color id belongs to."""
        if not 0 <= color < self.offsets[-1]:
            raise ValueError("color %r does not occur in this run" % (color,))
        return bisect_right(self.offsets, color) - 1

    def round_colors(self, i) -> range:
        """Every color id of round i, in increasing order; rounds past
        stability repeat the stable round."""
        i = min(i, self.stable_round)
        return range(self.offsets[i], self.offsets[i + 1])

    def representative(self, color: int) -> int:
        """The first position with this color."""
        i = self.round_of_color(color)
        return int(self._publish(i)[1][color - self.offsets[i]])

    def overlaps(self, k):
        """(position, stp-encoding) of every occurrence overlapping position
        k, k itself included."""
        A = self.structure
        if self._buckets is None:
            self._buckets = A.element_tuples()
        vec = A.vector(A.tuple_refs[k])
        near = set()
        for x in set(vec):
            near.update(self._buckets[x])
        return [(b, _stp_key(stp(vec, A.vector(A.tuple_refs[b]))))
                for b in sorted(near)]

    def realized_taus(self) -> list:
        """Sorted stp encodings over all overlapping pairs of positions,
        each position paired with itself too."""
        return sorted({tau for k in range(len(self.base))
                       for _, tau in self.overlaps(k)})

    def decode(self, color: int):
        key = self._keys.get(color)
        if key is None:
            i, k = self.round_of_color(color), self.representative(color)
            if i == 0:
                A = self.structure
                key = ("base", *_base_key(A, A.vector(A.tuple_refs[k])))
            else:
                cols = self.colors_at(i - 1)
                key = ("step", *_step_key(int(cols[k]), [
                    (tau, int(cols[b])) for b, tau in self.overlaps(k)]))
            self._keys[color] = key
        return key

    def write_csv(self, out):
        """Write the trace as CSV to a text stream, one round at a time."""
        out.write("round,relation,tuple_index,color_id\n")
        refs = ["%s,%d," % (r.relation, r.index) for r in self.structure.tuple_refs]
        for i in range(self.stable_round + 1):
            head = "%d," % i
            out.write("".join([head + ref + "%d\n" % c for ref, c in
                               zip(refs, self.colors_at(i).tolist())]))


def _stp_key(tau) -> tuple:
    return tuple(sorted(tau))


def _base_key(A: Structure, vec) -> tuple:
    return tuple(sorted(A.atp(vec))), _stp_key(stp(vec, vec))


def _step_key(own, pairs) -> tuple:
    """own is the previous color, pairs the (stp-encoding, previous color)
    of every overlap."""
    return own, tuple(sorted(pairs))


def reference_rounds(A: Structure, max_rounds: Optional[int] = None):
    """(rounds, class_counts) by interning every occurrence's multiset over
    all its overlaps; the reference for kernel_rounds."""
    if max_rounds is None:
        max_rounds = A.size()  # the stable round index never exceeds |Tup|
    refs = A.tuple_refs
    vecs = [A.vector(r) for r in refs]
    nbrs = A.overlap_neighbours()
    # stp never changes across rounds, compute the encodings once; the
    # occurrence itself always overlaps itself and belongs in the multiset
    overlaps = [
        [(b, _stp_key(stp(vecs[a], vecs[b]))) for b in nbrs[a]] +
        [(a, _stp_key(stp(vecs[a], vecs[a])))]
        for a in range(len(refs))]

    # each round interns its keys in a table of its own; ids continue from
    # the previous rounds, so that a color id names its round
    table: dict = {}
    colors = [table.setdefault(_base_key(A, vec), len(table)) for vec in vecs]
    rounds = [colors]
    class_counts = [len(table)]
    next_id = len(table)
    for _ in range(max_rounds):
        prev = rounds[-1]
        table = {}
        nxt = [
            table.setdefault(
                _step_key(prev[a], [(tau, prev[b]) for b, tau in overlaps[a]]),
                next_id + len(table))
            for a in range(len(refs))]
        if len(table) == class_counts[-1]:
            break  # refinement: equal class count means equal partition
        rounds.append(nxt)
        class_counts.append(len(table))
        next_id += len(table)
    return rounds, class_counts


def kernel_rounds(A: Structure, max_rounds: Optional[int] = None):
    """(base, moved, renamed, ends, class_counts) of RCR on A, as
    cr.Coloring keeps a run, for the rounds reference_rounds returns, by
    refining the tuple-slice incidence.

    A slice of a tuple is a duplicate-free vector over its elements.  Each
    round is two half-steps: every slice takes the multiset of (stp(a, s),
    color of a) over the tuples a containing it, then every tuple refines
    by the multiset of (stp(a, s), slice color) over its slices, as in CR
    on vgrep, whose round 2i+1 is RCR's round i on the tuple nodes
    (acceptance criterion 5).  The slices of one tuple determine, by
    inclusion-exclusion over the shared elements, the multiset of (stp(a,
    b), color of b) over its overlaps b, and the converse holds too, so the
    tuple partitions are RCR's.  A slice in only one tuple is left out: its
    color is a function of that tuple's previous color, and the tuple's stp
    fixes which slices it has.

    cr.refine_rounds runs the rounds, slices first.  Its first round re-keys
    every tuple: tuples of one base class may own unequal shared slices."""
    if max_rounds is None:
        max_rounds = A.size()
    rels = relation_rows(A)
    base, count = _base_classes(A, rels)
    tup, sl, lab, _, _ = slice_incidence(A, rels)
    # keep the slices held by more than one tuple, renumbered densely
    shared = np.bincount(sl) > 1
    keep = shared[sl]
    tup, lab = tup[keep], lab[keep]
    sl = (np.cumsum(shared) - 1)[sl[keep]]
    nslices = int(shared.sum())
    return refine_rounds([_csr(sl, tup, lab, nslices),
                          _csr(tup, sl, lab, A.size())],
                         base, count, max_rounds)


def relation_rows(A: Structure):
    """(relation index, first position, rows, pattern) per non-empty
    relation, where pattern[:, i] is the first position holding the element
    at position i, the array form of stp(a, a)."""
    out = []
    first = 0
    for index, (name, arity) in enumerate(A.signature.symbols):
        rows = np.array(A.relations[name], dtype=np.int64).reshape(-1, arity)
        pattern = np.tile(np.arange(arity), (len(rows), 1))
        for i in range(arity):
            for j in reversed(range(i)):
                same = rows[:, j] == rows[:, i]
                pattern[same, i] = pattern[same, j]
        if len(rows):
            out.append((index, first, rows, pattern))
        first += len(rows)
    return out


def _base_classes(A: Structure, rels):
    """Round-0 colors as reference_rounds numbers them: the classes of
    (atp, stp) in order of first occurrence.  atp is the row of flags of
    the relations of one arity holding a vector; stp is the pattern.  On a
    1e5-tuple random R/3,E/2 structure this takes 0.07 s, one Python pass
    of _base_key per tuple 0.57 s."""
    keys = np.full((A.size(), 1 + A.signature.max_arity), -1, dtype=np.int64)
    for arity in {rows.shape[1] for _, _, rows, _ in rels}:
        same = [r for r in rels if r[2].shape[1] == arity]
        vec, nvec = _row_ids(np.concatenate([rows for _, _, rows, _ in same]))
        bounds = np.cumsum([0] + [len(rows) for _, _, rows, _ in same])
        holds = np.zeros((nvec, len(same)), dtype=np.int64)
        for j in range(len(same)):
            holds[vec[bounds[j]:bounds[j + 1]], j] = 1
        atp, _ = _row_ids(holds)
        for j, (_, first, rows, pattern) in enumerate(same):
            block = keys[first:first + len(rows)]
            block[:, 0] = atp[vec[bounds[j]:bounds[j + 1]]]
            block[:, 1:1 + arity] = pattern
    return first_occurrence(_row_ids(keys)[0])


def slice_incidence(A: Structure, rels):
    """Every (tuple, slice) pair of A as arrays (tup, sl, lab), with the
    slice count and the stp table: (tup, sl, lab, nslices, taus).

    Slice ids are dense in (length, lexicographic) order of the slice
    vectors, the order in which representations.slices lists one tuple's
    slices.  lab[k] is the index in taus of stp(a, s) as a sorted tuple of
    position pairs, which fixes stp(s, a).

    Slices and their stp depend only on a tuple's equality pattern, so
    they are laid out once per (relation, pattern) group as position
    templates and cut from the group's rows with array indexing."""
    taus: dict = {}
    by_length: dict = {}   # slice length -> ([element rows], [tuple], [label])
    for _, first, rows, pattern in rels:
        arity = rows.shape[1]
        patterns, group = np.unique(pattern, axis=0, return_inverse=True)
        group = group.ravel()
        for g, pat in enumerate(patterns.tolist()):
            members = np.flatnonzero(group == g)
            sub = rows[members]
            distinct = sorted(set(pat))
            for length in range(1, len(distinct) + 1):
                for t in permutations(distinct, length):
                    tau = _stp_key((i + 1, j + 1) for i in range(arity)
                                   for j in range(length) if pat[i] == pat[t[j]])
                    lab = taus.setdefault(tau, len(taus))
                    part = by_length.setdefault(length, ([], [], []))
                    part[0].append(sub[:, t])
                    part[1].append(first + members)
                    part[2].append(np.full(len(members), lab, dtype=np.int64))

    none = np.empty(0, dtype=np.int64)
    tuples, slices, labs = [none], [none], [none]
    nslices = 0
    for length in sorted(by_length):
        vecs, tup, lab = (np.concatenate(x) for x in by_length[length])
        ids, count = _row_ids(vecs)
        tuples.append(tup)
        slices.append(ids + nslices)
        labs.append(lab)
        nslices += count
    tup, sl, lab = (np.concatenate(x) for x in (tuples, slices, labs))
    return tup, sl, lab, nslices, list(taus)


def _csr(node, other, label, n):
    order = np.argsort(node, kind="stable")
    starts = np.searchsorted(node[order], np.arange(n + 1))
    return starts, other[order], label[order]


def _row_ids(rows):
    """Dense ids of the distinct rows of a 2-d array of ints >= -1, in
    lexicographic order, and their count.  Columns are folded in one at a
    time, so that each key stays below len(rows) times the column range."""
    ids = np.zeros(len(rows), dtype=np.int64)
    for col in rows.T if len(rows) else ():
        _, ids = np.unique(ids * (int(col.max()) + 2) + col + 1,
                           return_inverse=True)
    return ids.ravel(), int(ids.max()) + 1 if len(ids) else 0


def rcr_run(A: Structure, max_rounds: Optional[int] = None) -> RefinementTrace:
    """Refine A until stable (or max_rounds); both engines give equal ids."""
    arity = max((len(rows[0]) for rows in A.relations.values() if rows),
                default=0)
    if A.size() >= KERNEL_MIN_TUPLES and arity <= KERNEL_MAX_ARITY:
        return RefinementTrace(A, *kernel_rounds(A, max_rounds))
    rounds, class_counts = reference_rounds(A, max_rounds)
    return RefinementTrace(A, *_changes(rounds, class_counts), class_counts)


def _changes(rounds, class_counts):
    """(base, moved, renamed, ends) of reference_rounds' rounds, named as
    keep_largest names them; a loop, because the reference serves small
    inputs, where numpy's per-call cost would dominate."""
    names = list(rounds[0])   # round 0's ids are its internal names
    moved, renamed, ends = [], [], [0]
    count = class_counts[0]
    for cur in rounds[1:]:
        parts: dict = {}      # by id, so in order of first occurrence
        for k, c in enumerate(cur):
            parts.setdefault(c, []).append(k)
        largest: dict = {}    # old name -> its largest part
        for part in parts.values():
            best = largest.setdefault(names[part[0]], part)
            if len(part) > len(best):
                largest[names[part[0]]] = part
        for part in parts.values():
            if largest[names[part[0]]] is not part:
                moved += part
                renamed += [count] * len(part)
                count += 1
        for j in range(ends[-1], len(moved)):
            names[moved[j]] = renamed[j]
        ends.append(len(moved))
    return (np.array(rounds[0], dtype=np.int64),
            np.array(moved, dtype=np.int64),
            np.array(renamed, dtype=np.int64), ends)


class CompareResult:
    """Joint refinement of two structures with per-side bookkeeping."""

    def __init__(self, A, B):
        self.union, self.info = disjoint_union(A, B)
        self.trace = rcr_run(self.union)
        self.pos = {"A": [], "B": []}
        for k, ref in enumerate(self.union.tuple_refs):
            self.pos[self.info.side(ref)].append(k)
        diff = self.trace.first_difference(self.pos["A"], self.pos["B"])
        self.round, self.color = (None, None) if diff is None else diff

    def side_histogram(self, i, side):
        return self.trace.histogram_at(i, self.pos[side])


def rcr_compare(A: Structure, B: Structure) -> CompareResult:
    return CompareResult(A, B)


def rcr_distinguishes(A: Structure, B: Structure):
    """Smallest round with a color count differing between A and B, plus a
    witness color, or None.  Unequal relation sizes always show in round 0
    because atomic types are part of the initial color."""
    res = rcr_compare(A, B)
    if res.round is None:
        return None
    if not strictly_equal_size(A, B):
        assert res.round == 0
    return res.round, res.color
