"""Relational Color Refinement, the naive reference implementation.

Colors live on tuple occurrences.  The initial color of a is (atp(a), stp(a));
each round appends the multiset, over all occurrences b overlapping a, of
(stp(a, b), previous color of b).  Colors are interned integers, numbered
round after round, so each round owns a contiguous id range.  Any occurrence
with a color spells out that color's key, so the trace decodes a color from
a representative occurrence.  Ids are only comparable within one run, so
cross-structure questions refine the disjoint union.
"""

from __future__ import annotations

import io
from bisect import bisect_right
from itertools import accumulate
from typing import Optional

from .core import Structure, disjoint_union, stp, strictly_equal_size
from .cr import Coloring


class RefinementTrace(Coloring):
    """Per-round colors of an RCR run, with on-demand color decoding.

    A color decodes to ("base", atp, stp) at round 0 and to ("step", prev,
    multiset) afterwards, where multiset is the sorted tuple of
    (stp-encoding, neighbor color) pairs over the overlapping occurrences,
    the occurrence itself included, duplicates retained."""

    def __init__(self, structure, rounds, class_counts, overlaps):
        super().__init__(rounds, class_counts)
        self.structure = structure
        self.overlaps = overlaps   # per position: (position, stp-encoding) pairs
        self.offsets = [0, *accumulate(class_counts)]  # round i's first id
        self._first: dict = {}     # round -> color -> first position with it
        self._keys: dict = {}

    def round_of_color(self, color: int) -> int:
        """Refinement round a color id belongs to."""
        if not 0 <= color < self.offsets[-1]:
            raise ValueError("color %r does not occur in this run" % (color,))
        return bisect_right(self.offsets, color) - 1

    def representative(self, color: int) -> int:
        """The first position with this color."""
        i = self.round_of_color(color)
        first = self._first.get(i)
        if first is None:
            first = self._first[i] = {}
            for k, c in enumerate(self.rounds[i]):
                first.setdefault(c, k)
        return first[color]

    def decode(self, color: int):
        key = self._keys.get(color)
        if key is None:
            i, k = self.round_of_color(color), self.representative(color)
            if i == 0:
                A = self.structure
                key = ("base", *_base_key(A, A.vector(A.tuple_refs[k])))
            else:
                key = ("step", *_step_key(self.rounds[i - 1], k, self.overlaps[k]))
            self._keys[color] = key
        return key

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("round,relation,tuple_index,color_id\n")
        for i, cols in enumerate(self.rounds):
            for k, ref in enumerate(self.structure.tuple_refs):
                out.write("%d,%s,%d,%d\n" % (i, ref.relation, ref.index, cols[k]))
        return out.getvalue()


def _stp_key(tau) -> tuple:
    return tuple(sorted(tau))


def _base_key(A: Structure, vec) -> tuple:
    return tuple(sorted(A.atp(vec))), _stp_key(stp(vec, vec))


def _step_key(prev, a, pairs) -> tuple:
    return prev[a], tuple(sorted((tau, prev[b]) for b, tau in pairs))


def rcr_run(A: Structure, max_rounds: Optional[int] = None) -> RefinementTrace:
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
            table.setdefault(_step_key(prev, a, overlaps[a]), next_id + len(table))
            for a in range(len(refs))]
        if len(table) == class_counts[-1]:
            break  # refinement: equal class count means equal partition
        rounds.append(nxt)
        class_counts.append(len(table))
        next_id += len(table)
    return RefinementTrace(A, rounds, class_counts, overlaps)


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
