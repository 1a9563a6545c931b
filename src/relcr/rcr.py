"""Relational Color Refinement.

Colors live on tuple occurrences.  The initial color of a is (atp(a), stp(a));
each round appends the multiset, over all occurrences b overlapping a, of
(stp(a, b), previous color of b).  The engines name classes in any order, and
a trace numbers them by cr.first_occurrence, round after round, so each round
owns a contiguous id range.  Any occurrence with a color spells out that
color's key, so the trace decodes a color from a representative occurrence.
Ids are only comparable within one run, so cross-structure questions refine
the disjoint union.

_kernel_engine refines the incidence of tuples with their shared slices, two
half-steps a round, with cr.refine_rounds, cr_run's round driver: exact
vectorized refine_step half-steps, O(N log N) a round for a fixed signature,
then, after a round that renames few tuples, a worklist that re-keys only the
nodes next to a renamed node.  A class that splits keeps its name for its
largest part, so a tuple is renamed at most log2 N times and the worklist's
rounds cost O(N log N) together.  core.shared_sets lists the element sets that
two or more tuples hold, level by level, and only their orderings become slice
nodes, at every arity; an edge's label is the dense rank of the tuple's
ordered positions in the slice, so no arity overflows it.  Small structures
go to that worklist alone, in pure Python, on the CSR lists of
Structure.overlaps, and so do those whose listing would pass
core.LISTING_PER_TUPLE orderings per tuple (many occurrences of one long
element set, as in permuted copies of a tuple): the kernel's only exit.  The
oracle of the tests and of relcr check, reference_rounds, interns each
tuple's multiset over all its overlaps every round, quadratic on hubs.  A run
is kept as cr.Coloring keeps it: base classes and per-round changes.
rcr_compare, which rcr_distinguishes and sentence synthesis read, decides
round 0 before an engine runs and stops it at the first round whose side
histograms differ.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import partial
from itertools import accumulate, permutations
from typing import Optional

import numpy as np

from .core import (SMALL_FACTS, Structure, _row_ids, disjoint_union,
                   distinct_elements, relation_rows, shared_sets, stp,
                   stp_key, strictly_equal_size)
from .cr import (_NONE, Coloring, SideCounts, _worklist_rounds,
                 refine_rounds)


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
        stability repeat the stable round, and a negative round raises a
        ValueError."""
        if i < 0:
            raise ValueError("no round %r: rounds count from 0" % (i,))
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
    all its overlaps; the reference for both engines."""
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


def _kernel_rounds(A: Structure, rels, base, count, max_rounds, stop=None):
    """_kernel_engine's rounds after the base, from A's relation_rows rels,
    with refine_rounds' stop: on the orderings of the shared sets, or by
    _overlap_rounds where shared_sets gives up, the kernel's only exit."""
    elements = distinct_elements(A, rels)
    levels = shared_sets(elements)
    if levels is None:
        return _overlap_rounds(A, base.tolist(), count, max_rounds, stop)
    return refine_rounds(_slices(elements, levels), base, count, max_rounds,
                         stop=stop)[1:]


def _slices(elements, levels):
    """refine_rounds' two sides, slices first, for the incidence of each
    tuple with every ordering of each shared set it holds, the levels of
    shared_sets(elements).

    A k-set's ordering r is its elements, in increasing order, permuted by
    the r-th permutation of range(k): slice number set * k! + r of its
    level.  A tuple holds it at the positions of those elements, permuted
    the same way, and the dense rank (_row_ids) of those ordered positions
    among the level's, after the ranks of the levels before, is its label:
    with the tuple's pattern, which its color fixes, they give stp(a, s)."""
    tups, slices, labels = [_NONE], [_NONE], [_NONE]
    nslices = nlabels = 0
    for k, (row, pos, ids, holders) in enumerate(levels, 1):
        orders = np.array(list(permutations(range(k))), dtype=np.int64)
        m = len(orders)
        tups.append(np.repeat(row, m))
        slices.append((nslices + ids[:, None] * m + np.arange(m)).ravel())
        lab, count = _row_ids(pos[:, orders].reshape(-1, k))
        labels.append(nlabels + lab)
        nslices += len(holders) * m
        nlabels += count
    tup, sl, lab = (np.concatenate(x) for x in (tups, slices, labels))
    # a node's edges may come in any order: quicksort took 48 us on 3,800
    # slice ids, timsort 218 us; tup is one sorted run per level, which
    # timsort merges
    return [_csr(sl, tup, lab, nslices, np.argsort(sl)),
            _csr(tup, sl, lab, len(elements), np.argsort(tup, kind="stable"))]


def _base_classes(A: Structure, rels):
    """(names, count): the round-0 classes of (atp, stp), named 0..count-1
    in lexicographic order of their keys.  atp is the row of flags of the
    relations of one arity holding a vector, ranked only where two or more
    relations have that arity; stp is the pattern.  On a 1e5-tuple random
    R/3,E/2 structure this takes 3.5 ms (9 ms with both arities ranked),
    one Python pass of _base_key per tuple 0.57 s."""
    keys = np.full((A.size(), 1 + A.signature.max_arity), -1, dtype=np.int64)
    for arity in {rows.shape[1] for _, _, rows, _ in rels}:
        same = [r for r in rels if r[2].shape[1] == arity]
        atp = [0]   # the one relation of an arity holds each of its vectors
        if len(same) > 1:
            vec, nvec = _row_ids(np.concatenate([rows for _, _, rows, _ in same]))
            bounds = np.cumsum([0] + [len(rows) for _, _, rows, _ in same])
            holds = np.zeros((nvec, len(same)), dtype=np.int64)
            for j in range(len(same)):
                holds[vec[bounds[j]:bounds[j + 1]], j] = 1
            ids, _ = _row_ids(holds)
            atp = [ids[vec[bounds[j]:bounds[j + 1]]] for j in range(len(same))]
        for a, (_, first, rows, pattern) in zip(atp, same):
            block = keys[first:first + len(rows)]
            block[:, 0] = a
            block[:, 1:1 + arity] = pattern
    return _row_ids(keys)


def _csr(node, other, label, n, order):
    """node's edges to other, labeled, as CSR, where order sorts node."""
    starts = np.searchsorted(node[order], np.arange(n + 1))
    return starts, other[order], label[order]


def rcr_run(A: Structure, max_rounds: Optional[int] = None) -> RefinementTrace:
    """Refine A until stable (or max_rounds); both engines give equal ids."""
    base, _, rounds = _engine(A)
    return RefinementTrace(A, base, *rounds(
        A.size() if max_rounds is None else max_rounds))


def _engine(A: Structure):
    """(base, count, rounds): A's round-0 classes, named 0..count-1 in any
    order (int64), their count, and rounds(max_rounds, stop=None), the run's
    (moved, renamed, ends, class_counts); by the slice kernel on SMALL_FACTS
    tuples or more."""
    if A.size() < SMALL_FACTS:
        return _overlap_engine(A)
    return _kernel_engine(A)


def _kernel_engine(A: Structure):
    """_engine's triple by refining the tuple-slice incidence, for the
    partitions of the rounds reference_rounds returns.

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
    fixes which slices it has.  Which tuples hold a slice depends only on
    its element set, so core.shared_sets lists the shared sets level by
    level, and each is laid out in all its orderings; only where that
    listing would pass core.LISTING_PER_TUPLE orderings per tuple are the
    rounds _overlap_rounds'.  The layout, relation_rows, is built once a run.

    cr.refine_rounds runs the rounds, slices first.  Its first round re-keys
    every tuple: tuples of one base class may own unequal shared slices.
    Nothing is listed before the rounds are asked for, so a verdict at
    round 0 lists no set."""
    rels = relation_rows(A)
    base, count = _base_classes(A, rels)
    return base, count, partial(_kernel_rounds, A, rels, base, count)


def _overlap_engine(A: Structure):
    """_engine's triple by _overlap_rounds, round 0 named by _base_key."""
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
