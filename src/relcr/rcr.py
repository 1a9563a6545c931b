"""Relational Color Refinement.

Colors live on tuple occurrences.  The initial color of a is (atp(a), stp(a));
each round appends the multiset, over all occurrences b overlapping a, of
(stp(a, b), previous color of b).  Colors are interned integers, numbered
round after round, so each round owns a contiguous id range.  Any occurrence
with a color spells out that color's key, so the trace decodes a color from
a representative occurrence.  Ids are only comparable within one run, so
cross-structure questions refine the disjoint union.

kernel_rounds refines the tuple-slice incidence, two half-steps a round, with
cr.refine_rounds, cr_run's round driver: exact vectorized refine_step
half-steps, O(N log N) a round for a fixed signature, then, after a round that
renames few tuples, a worklist that re-keys only the nodes next to a renamed
node.  A class that splits keeps its name for its largest part, so a tuple is
renamed at most log2 N times and the worklist's rounds cost O(N log N)
together.  Small structures and tuples longer than KERNEL_MAX_ARITY go to that
worklist alone, in pure Python, on the CSR lists of Structure.overlaps.  The
oracle of the tests and of relcr check, reference_rounds, interns each tuple's
multiset over all its overlaps every round, quadratic on hubs.  A run is kept
as cr.Coloring keeps it: base classes and per-round changes.  rcr_compare,
which rcr_distinguishes and sentence synthesis read, decides round 0 before an
engine runs and stops it at the first round whose side histograms differ.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import partial
from itertools import accumulate, permutations
from typing import Optional

import numpy as np

from .core import (SMALL_FACTS, Structure, disjoint_union, stp, stp_key,
                   strictly_equal_size)
from .cr import (_NONE, Coloring, SideCounts, _worklist_rounds,
                 first_occurrence, refine_rounds)

# Longer tuples go to the overlap worklist.  A tuple with d distinct
# elements has sum_k d!/(d-k)! slices: 64 at d = 4, 325 at 5, 1,956 at 6.
# Kernel against worklist seconds (peak RSS, MB), 1024 facts, half Q/k, half
# E/2, fresh processes, 2-core x86: random k = 4 0.01 (34) against 0.06 (32),
# k = 5 0.05 (50) against 0.06-0.08 (33), k = 6 0.25-0.29 (155) against
# 0.07-0.11 (33); chained path k = 5 0.05 (50) against 0.05 (31), k = 6
# 0.29-0.35 (157) against 0.03-0.05 (31); hub k = 4-6 0.01-0.36 (33-155)
# against 1.7-3.3 (75-80).  The benchmark has no tuple longer than 3.
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

    def decode(self, color: int):
        key = self._keys.get(color)
        if key is None:
            i, k = self.round_of_color(color), self.representative(color)
            if i == 0:
                A = self.structure
                key = ("base", *_base_key(A, A.vector(A.tuple_refs[k])))
            else:
                cols = self.colors_at(i - 1)
                starts, other, label, taus = self.structure.overlaps
                lo, hi = starts[k], starts[k + 1]
                key = ("step", *_step_key(int(cols[k]), [(taus[t], int(cols[b]))
                       for b, t in zip(other[lo:hi], label[lo:hi])]))
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


def _base_key(A: Structure, vec) -> tuple:
    return tuple(sorted(A.atp(vec))), stp_key(stp(vec, vec))


def _step_key(own, pairs) -> tuple:
    """own is the previous color, pairs the (stp-encoding, previous color)
    of every overlap."""
    return own, tuple(sorted(pairs))


def reference_rounds(A: Structure, max_rounds: Optional[int] = None):
    """(rounds, class_counts) by interning every occurrence's multiset over
    all its overlaps; the reference for kernel_rounds."""
    if max_rounds is None:
        max_rounds = A.size()  # the stable round index never exceeds |Tup|
    starts, other, label, taus = A.overlaps
    # each round interns its keys in a table of its own; ids continue from
    # the previous rounds, so that a color id names its round
    table: dict = {}
    colors = [table.setdefault(_base_key(A, vec), len(table))
              for vecs in A.relations.values() for vec in vecs]
    rounds = [colors]
    class_counts = [len(table)]
    next_id = len(table)
    for _ in range(max_rounds):
        prev = rounds[-1]
        table = {}
        nxt = [table.setdefault(_step_key(own, [(taus[t], prev[b]) for b, t in zip(
                   other[lo:hi], label[lo:hi])]), next_id + len(table))
               for own, lo, hi in zip(prev, starts, starts[1:])]
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
    rels = relation_rows(A)
    base, count = _base_classes(A, rels)
    return (base, *_slice_rounds(A, rels, base, count, A.size()
                                 if max_rounds is None else max_rounds))


def _slice_rounds(A: Structure, rels, base, count, max_rounds, stop=None):
    """kernel_rounds' rounds after the base, with refine_rounds' stop."""
    tup, sl, lab, _, _ = slice_incidence(A, rels)
    # keep the slices held by more than one tuple, renumbered densely
    shared = np.bincount(sl) > 1
    keep = shared[sl]
    tup, lab = tup[keep], lab[keep]
    sl = (np.cumsum(shared) - 1)[sl[keep]]
    nslices = int(shared.sum())
    return refine_rounds([_csr(sl, tup, lab, nslices),
                          _csr(tup, sl, lab, A.size())],
                         base, count, max_rounds, stop=stop)[1:]


def relation_rows(A: Structure):
    """(relation index, first position, rows, pattern) per non-empty
    relation, where pattern[:, i] is the first position holding the element
    at position i, the array form of stp(a, a)."""
    out = []
    first = 0
    for index, (name, arity) in enumerate(A.signature.symbols):
        rows = A.rows[name]
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
        group, count = _row_ids(pattern)   # np.unique(axis=0) took 3x longer
        member = np.empty(count, dtype=np.int64)
        member[group] = np.arange(len(group))
        for g, pat in enumerate(pattern[member].tolist()):
            members = np.flatnonzero(group == g)
            sub = rows[members]
            distinct = sorted(set(pat))
            for length in range(1, len(distinct) + 1):
                for t in permutations(distinct, length):
                    tau = stp_key((i + 1, j + 1) for i in range(arity)
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
    lexicographic order, and their count.  Columns are packed into one key
    while the product of their ranges stays below 2^62, and the key is
    renumbered densely, one sort, before it would pass that."""
    ids = np.zeros(len(rows), dtype=np.int64)
    span = 1   # the key is below span
    for col in rows.T if len(rows) else ():
        radix = int(col.max()) + 2
        if span * radix >= 1 << 62:
            _, ids = np.unique(ids, return_inverse=True)
            span = int(ids.max()) + 1
        ids = ids * radix + col + 1
        span *= radix
    if len(rows):
        _, ids = np.unique(ids, return_inverse=True)
    return ids.ravel(), int(ids.max()) + 1 if len(ids) else 0


def rcr_run(A: Structure, max_rounds: Optional[int] = None) -> RefinementTrace:
    """Refine A until stable (or max_rounds); both engines give equal ids."""
    base, _, rounds = _engine(A)
    return RefinementTrace(A, base, *rounds(
        A.size() if max_rounds is None else max_rounds))


def _engine(A: Structure):
    """(base, count, rounds): A's round-0 classes as reference_rounds numbers
    them (int64), their count, and rounds(max_rounds, stop=None), the run's
    (moved, renamed, ends, class_counts); by the slice kernel on SMALL_FACTS
    tuples or more, none longer than KERNEL_MAX_ARITY."""
    if A.size() < SMALL_FACTS or max(
            (a for name, a in A.signature.symbols if A.counts[name]),
            default=0) > KERNEL_MAX_ARITY:
        return _overlap_engine(A)
    rels = relation_rows(A)
    base, count = _base_classes(A, rels)
    return base, count, partial(_slice_rounds, A, rels, base, count)


def _overlap_engine(A: Structure):
    """_engine's triple by _overlap_rounds, round 0 numbered by _base_key."""
    table: dict = {}
    names = [table.setdefault(_base_key(A, vec), len(table))
             for vecs in A.relations.values() for vec in vecs]
    return (np.array(names, dtype=np.int64), len(table),
            partial(_overlap_rounds, A, names, len(table)))


def _overlap_rounds(A: Structure, names, count, max_rounds, stop=None):
    """The rounds of RCR on A from the round-0 classes names, a list, by
    cr's worklist on the lists of A.overlaps as they are: numpy's per-call
    cost would dominate on the small inputs this serves.  Every tuple counts
    as renamed at round 0, so round 1 re-keys each by its multiset over all
    its overlaps, as the worklist needs."""
    starts, other, label, taus = A.overlaps
    log = [0], [count]
    _, moved, renamed = _worklist_rounds(
        [(starts, other, label)], [list(names)], list(range(len(names))),
        len(taus), max_rounds, True, stop, log)
    return (np.array(moved, dtype=np.int64), np.array(renamed, dtype=np.int64),
            *log)


class CompareResult:
    """Joint refinement of two structures up to its verdict: round and color are
    the first_difference of the two sides' positions in the disjoint union, or
    None.  Round 0 is read off the base classes before the engine builds
    anything, and the engine stops at the first round whose side histograms
    differ, so the trace ends at the verdict round; unequal relation sizes
    always show at round 0, since atomic types are part of the initial color."""

    def __init__(self, A, B):
        self.union, self.info = U, info = disjoint_union(A, B)
        sides = _side_positions(U, info)
        self.pos = dict(zip("AB", sides))
        base, count, rounds = _engine(U)
        counts = SideCounts(base, *sides)
        log = _NONE, _NONE, [0], [count]
        if not counts.unequal:
            assert strictly_equal_size(A, B)
            log = rounds(U.size(), counts.advance)
        self.trace = RefinementTrace(U, base, *log)
        verdict = counts.verdict(self.trace.offsets)
        self.round, self.color = verdict or (None, None)

    def side_histogram(self, i, side):
        return self.trace.histogram_at(i, self.pos[side])


def rcr_compare(A: Structure, B: Structure) -> CompareResult:
    return CompareResult(A, B)


def _side_positions(U: Structure, info):
    """The Tup positions of a disjoint union's tuples from A and from B, as
    lists: each relation's first counts_a tuples come from A."""
    left, right, first = [], [], 0
    for name, count in U.counts.items():
        split = first + info.counts_a[name]
        left += range(first, split)
        right += range(split, first + count)
        first += count
    return left, right


def rcr_distinguishes(A: Structure, B: Structure):
    """Smallest round with a color count differing between A and B, plus a
    witness color, or None: the verdict of rcr_compare."""
    res = rcr_compare(A, B)
    return None if res.round is None else (res.round, res.color)
