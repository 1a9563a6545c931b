"""Structure-to-colored-multigraph encodings.

Every encoding is built from the relations as int arrays (core.relation_rows)
and labels its nodes and edges with ids into one table of label names.  The
tuple encodings share one table: relation memberships are unary labels "U_R",
positional overlaps edge labels "E_i_j".  The other baselines register their
own names ("E" of the incidence graph, "E_R_i_j" per relation and position
pair, "E_i" per position).  Label and node names become strings only at
to_dot and export.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cache, cached_property
from itertools import permutations
from typing import Sequence

import numpy as np

from .core import Structure, _row_ids, relation_rows, stp, stp_key
from .cr import first_occurrence, ranges
from .multigraph import ColoredMultigraph


def overlap_label(i, j):
    return "E_%d_%d" % (i, j)


def unary_label(rel):
    return "U_%s" % rel


class _OnDemand(Mapping):
    """A read-only dict that make() builds on first use."""

    def __init__(self, make):
        self._make = make

    @cached_property
    def _dict(self):
        return self._make()

    def __getitem__(self, key):
        return self._dict[key]

    def __iter__(self):
        return iter(self._dict)

    def __len__(self):
        return len(self._dict)


_NONE = np.empty(0, dtype=np.int64)


def _tuple_names(A: Structure):
    """The label table of the tuple encodings: U_R for each relation R,
    then E_i_j for all positions i, j, with id
    len(relations) + (i - 1) * max_arity + (j - 1)."""
    k = A.signature.max_arity
    return ([unary_label(r) for r in A.signature.names()]
            + [overlap_label(i, j) for i in range(1, k + 1)
               for j in range(1, k + 1)])


def _tuple_relation(rels):
    """Relation index of every tuple position."""
    return np.concatenate([_NONE] + [np.full(len(rows), index, dtype=np.int64)
                                     for index, _, rows, _ in rels])


def _entries(rels):
    """(tuple, position, element) of every entry of every tuple, with
    positions counted from 0."""
    tup, pos, elem = [_NONE], [_NONE], [_NONE]
    for _, first, rows, _ in rels:
        m, k = rows.shape
        tup.append(np.repeat(first + np.arange(m), k))
        pos.append(np.tile(np.arange(k), m))
        elem.append(rows.ravel())
    return tuple(np.concatenate(x) for x in (tup, pos, elem))


def grep(A: Structure):
    """The direct colored-multigraph encoding: one node per tuple occurrence,
    edges (w_a, w_b) in E_{i,j} whenever a_i = b_j, loops encoding stp(a).

    Returns (graph, node_of) with node_of mapping TupleRef -> node id, built
    on first use; the node of Tup position k is k."""
    rels = relation_rows(A)
    tup, pos, elem = _entries(rels)
    # every ordered pair of entries holding one element is an edge
    order = np.argsort(elem, kind="stable")
    tup, pos, elem = tup[order], pos[order], elem[order]
    starts = np.flatnonzero(np.diff(elem, prepend=-1))
    size = np.diff(np.append(starts, len(elem)))
    reach = np.repeat(size, size)   # entries sharing each entry's element
    left = np.repeat(np.arange(len(elem)), reach)
    right = ranges(np.repeat(starts, size), reach)
    nu, k = len(A.signature.symbols), A.signature.max_arity
    nw = A.size()
    # unsorted, as the rows are distinct by construction: one per ordered
    # pair of entries; refinement_input sorts them into pair labels
    g = ColoredMultigraph.of_distinct(
        nw, _tuple_names(A), tup[left], tup[right],
        nu + pos[left] * k + pos[right],
        np.arange(nw), _tuple_relation(rels),
        lambda: ["w%s" % (A.vector(r),) for r in A.tuple_refs])
    return g, _OnDemand(lambda: A.tuple_pos)


def slices(a: Sequence[int]):
    """All slices of a vector: non-empty duplicate-free vectors over set(a),
    enumerated by arity then lexicographically."""
    elems = sorted(set(a))
    out = []
    for length in range(1, len(elems) + 1):
        out.extend(permutations(elems, length))
    return out


def slice_incidence(A: Structure, rels):
    """Every (tuple, slice) pair of A as arrays (tup, sl, lab), with the
    slice count and the stp table: (tup, sl, lab, nslices, taus).

    Slice ids are dense in (length, lexicographic) order of the slice
    vectors, the order in which slices() lists one tuple's
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


def vgrep(A: Structure):
    """The slice-based encoding: tuple nodes w_a plus one node v_s per
    distinct slice; edges (w_a, v_s) and (v_s, w_a) labeled by the
    positional overlaps stp(a, s) and stp(s, a), never w-w or v-v.

    Built from the tuple-slice incidence of slice_incidence, which it
    hands to cr_run as the graph's refinement_input: one pair each way per
    incidence, labeled by the index of stp(a, s) from tuple to slice and
    that index plus the number of stps from slice to tuple; round 0 classes
    tuple nodes by relation and puts the slice nodes, which have no labels
    and no loops, in one class.  The edge rows, one per position pair of
    stp(a, s) each way, are made only when first read.  Slice nodes are
    numbered by first occurrence over the tuples in order, each tuple's
    slices in the order of slices().  Returns (graph, node_of,
    slice_node_of): node_of as grep returns it, and slice_node_of, which
    maps a slice vector to its number among the slice nodes (node nw +
    number); both are built on first use."""
    rels = relation_rows(A)
    tup, sl, lab, nslices, taus = slice_incidence(A, rels)
    nw = A.size()
    # slice ids follow slices() within a tuple: sort by (tuple, slice id)
    order = np.argsort(tup * max(nslices, 1) + sl)
    tup, sl, lab = tup[order], sl[order], lab[order]
    number, _ = first_occurrence(sl)
    size = np.array([len(tau) for tau in taus], dtype=np.int64)

    # tuple rows in tuple order, then slice rows in slice order
    by_slice = np.argsort(number, kind="stable")
    degree = np.bincount(np.concatenate((tup, nw + number)),
                         minlength=nw + nslices)
    csr = (np.concatenate(([0], np.cumsum(degree))),
           np.concatenate((nw + number, tup[by_slice])),
           np.concatenate((lab, len(taus) + lab[by_slice])))
    # round 0: tuple nodes by relation, the slice nodes in one class
    sizes = [len(rows) for _, _, rows, _ in rels]
    base = np.concatenate((np.repeat(np.arange(len(rels)), sizes),
                           np.full(nslices, len(rels), dtype=np.int64)))
    count = len(rels) + (nslices > 0)

    def rows():
        """One edge each way per position pair (i, j) of stp(a, s)."""
        i, j = np.array([p for tau in taus for p in tau],
                        dtype=np.int64).reshape(-1, 2).T - 1
        at = np.repeat(np.arange(len(lab)), size[lab])
        pair = ranges((np.cumsum(size) - size)[lab], size[lab])
        w, v = tup[at], nw + number[at]
        nu, k = len(A.signature.symbols), A.signature.max_arity
        return (np.concatenate((w, v)), np.concatenate((v, w)),
                np.concatenate(((nu + i * k + j)[pair], (nu + j * k + i)[pair])))

    @cache
    def numbers():
        """Slice vector -> number, as the edges number the slices."""
        first: dict = {}
        for ref in A.tuple_refs:
            for s in slices(A.vector(ref)):
                first.setdefault(s, len(first))
        return first

    g = ColoredMultigraph.handed_over(
        nw + nslices, _tuple_names(A),
        (csr, base, count), rows, 2 * int(size[lab].sum()),
        np.arange(nw), _tuple_relation(rels),
        lambda: (["w%s" % (A.vector(r),) for r in A.tuple_refs]
                 + ["v%s" % (s,) for s in numbers()]))
    return g, _OnDemand(lambda: A.tuple_pos), _OnDemand(numbers)


def _element_and_tuple_names(A: Structure):
    return (list(A.element_names)
            + ["%s%s" % (r.relation, A.vector(r)) for r in A.tuple_refs])


def incidence(A: Structure):
    """Plain incidence graph: universe elements plus one U_R-labeled node per
    tuple occurrence, a single edge relation E joining elements to the tuples
    containing them."""
    rels = relation_rows(A)
    tup, _, elem = _entries(rels)
    names = ["E"] + [unary_label(r) for r in A.signature.names()]
    return ColoredMultigraph(
        A.n + A.size(), names, elem, A.n + tup, np.zeros_like(tup),
        A.n + np.arange(A.size()), 1 + _tuple_relation(rels),
        lambda: _element_and_tuple_names(A))


def enriched_gaifman(A: Structure):
    """Gaifman graph enriched with one edge relation E_R_i_j per relation and
    ordered position pair i != j, connecting a_i to a_j for every tuple."""
    names, src, dst, label = [], [_NONE], [_NONE], [_NONE]
    for index, _, rows, _ in relation_rows(A):
        name, arity = A.signature.symbols[index]
        for i in range(arity):
            for j in range(arity):
                if i != j:
                    src.append(rows[:, i])
                    dst.append(rows[:, j])
                    label.append(np.full(len(rows), len(names), dtype=np.int64))
                    names.append("E_%s_%d_%d" % (name, i + 1, j + 1))
    return ColoredMultigraph(
        A.n, names, *(np.concatenate(x) for x in (src, dst, label)),
        node_names=list(A.element_names))


def enriched_incidence(A: Structure):
    """Incidence graph enriched with position labels: edge relation E_i joins
    a_i to the tuple node of a."""
    rels = relation_rows(A)
    tup, pos, elem = _entries(rels)
    names = (["E_%d" % i for i in range(1, A.signature.max_arity + 1)]
             + [unary_label(r) for r in A.signature.names()])
    return ColoredMultigraph(
        A.n + A.size(), names, elem, A.n + tup, pos,
        A.n + np.arange(A.size()),
        A.signature.max_arity + _tuple_relation(rels),
        lambda: _element_and_tuple_names(A))


def jtrep(C: Structure, J):
    """Join-tree representation: tuple nodes with U_R labels, positional
    overlap edges only along join-tree edges.  The result is a multitree.

    Returns (graph, node_of)."""
    from .acyclic import validate_join_tree

    ok, bad = validate_join_tree(C, J)
    if not ok:
        raise ValueError("invalid join tree (element %r)" % (bad,))
    nu, k = len(C.signature.symbols), C.signature.max_arity
    pos = C.tuple_pos
    edges = []

    def overlap(a, b, va, vb):
        edges.extend((a, b, nu + (i - 1) * k + j - 1) for i, j in stp(va, vb))

    for a, ref in enumerate(C.tuple_refs):
        # loops carry the repetition pattern; without them a homomorphism
        # could map a tuple with repeated entries onto a repetition-free one
        overlap(a, a, C.vector(ref), C.vector(ref))
    for (u, v) in J.edges:
        overlap(pos[u], pos[v], C.vector(u), C.vector(v))
        overlap(pos[v], pos[u], C.vector(v), C.vector(u))
    src, dst, label = np.array(edges, dtype=np.int64).reshape(-1, 3).T
    g = ColoredMultigraph(
        C.size(), _tuple_names(C), src, dst, label,
        np.arange(C.size()), _tuple_relation(relation_rows(C)),
        ["v%s" % (C.vector(r),) for r in C.tuple_refs])
    return g, dict(pos)


def slice_bijection(a: Sequence[int], b: Sequence[int]):
    """The bijection S(a) -> S(b) that witnesses stp(a) = stp(b): rename every
    slice entry through the positional map a_i -> b_i.  Returns None when
    stp(a) != stp(b) (the map is then not well-defined)."""
    if stp(a, a) != stp(b, b):
        return None
    rename = {x: y for x, y in zip(a, b)}
    return {s: tuple(rename[x] for x in s) for s in slices(a)}
