"""Structure-to-colored-multigraph encodings.

All encodings share one edge-label namespace convention so a single CR engine
serves them: positional overlap labels are "E_i_j", relation memberships are
unary labels "U_R".  The enriched baselines register their own label names
("E_R_i_j" per relation/position pair, "E_i" per position).
"""

from __future__ import annotations

from itertools import permutations
from typing import Sequence

from .core import Structure, stp
from .multigraph import ColoredMultigraph, MultigraphBuilder


def overlap_label(i, j):
    return "E_%d_%d" % (i, j)


def unary_label(rel):
    return "U_%s" % rel


def grep(A: Structure):
    """The direct colored-multigraph encoding: one node per tuple occurrence,
    edges (w_a, w_b) in E_{i,j} whenever a_i = b_j, loops encoding stp(a).

    Returns (graph, node_of) with node_of mapping TupleRef -> node id."""
    refs = A.tuple_refs
    vecs = [A.vector(r) for r in refs]
    b = MultigraphBuilder(len(refs))
    for k, ref in enumerate(refs):
        b.add_label(k, unary_label(ref.relation))
    nbrs = A.overlap_neighbours()
    for a in range(len(refs)):
        for (i, j) in stp(vecs[a], vecs[a]):
            b.add_edge(overlap_label(i, j), a, a)
        for bb in nbrs[a]:
            for (i, j) in stp(vecs[a], vecs[bb]):
                b.add_edge(overlap_label(i, j), a, bb)
    g = b.build()
    g.node_names = ["w%s" % (vecs[k],) for k in range(len(refs))]
    return g, {ref: k for k, ref in enumerate(refs)}


def slices(a: Sequence[int]):
    """All slices of a vector: non-empty duplicate-free vectors over set(a),
    enumerated by arity then lexicographically."""
    elems = sorted(set(a))
    out = []
    for length in range(1, len(elems) + 1):
        out.extend(permutations(elems, length))
    return out


def vgrep(A: Structure):
    """The slice-based encoding: tuple nodes w_a plus one node v_s per
    distinct slice; edges (w_a, v_s) and (v_s, w_b) labeled by the positional
    overlaps, never w-w or v-v.  Returns (graph, node_of, slice_node_of)."""
    refs = A.tuple_refs
    vecs = [A.vector(r) for r in refs]
    slice_ids: dict = {}
    per_tuple = []
    for vec in vecs:
        ss = slices(vec)
        per_tuple.append(ss)
        for s in ss:
            if s not in slice_ids:
                slice_ids[s] = len(slice_ids)
    nw = len(refs)
    b = MultigraphBuilder(nw + len(slice_ids))
    for k, ref in enumerate(refs):
        b.add_label(k, unary_label(ref.relation))
    for a, vec in enumerate(vecs):
        for s in per_tuple[a]:
            vs = nw + slice_ids[s]
            for (i, j) in stp(vec, s):
                b.add_edge(overlap_label(i, j), a, vs)
            for (i, j) in stp(s, vec):
                b.add_edge(overlap_label(i, j), vs, a)
    g = b.build()
    names = ["w%s" % (v,) for v in vecs] + [None] * len(slice_ids)
    for s, k in slice_ids.items():
        names[nw + k] = "v%s" % (s,)
    g.node_names = names
    return g, {ref: k for k, ref in enumerate(refs)}, dict(slice_ids)


def incidence(A: Structure):
    """Plain incidence graph: universe elements plus one U_R-labeled node per
    tuple occurrence, a single edge relation E joining elements to the tuples
    containing them."""
    refs = A.tuple_refs
    b = MultigraphBuilder(A.n + len(refs))
    for k, ref in enumerate(refs):
        t = A.n + k
        b.add_label(t, unary_label(ref.relation))
        for x in set(A.vector(ref)):
            b.add_edge("E", x, t)
    g = b.build()
    g.node_names = (list(A.element_names)
                    + ["%s%s" % (r.relation, A.vector(r)) for r in refs])
    return g


def enriched_gaifman(A: Structure):
    """Gaifman graph enriched with one edge relation E_R_i_j per relation and
    ordered position pair i != j, connecting a_i to a_j for every tuple."""
    b = MultigraphBuilder(A.n)
    for ref in A.tuple_refs:
        vec = A.vector(ref)
        k = len(vec)
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                if i != j:
                    b.add_edge("E_%s_%d_%d" % (ref.relation, i, j),
                               vec[i - 1], vec[j - 1])
    g = b.build()
    g.node_names = list(A.element_names)
    return g


def enriched_incidence(A: Structure):
    """Incidence graph enriched with position labels: edge relation E_i joins
    a_i to the tuple node of a."""
    refs = A.tuple_refs
    b = MultigraphBuilder(A.n + len(refs))
    for k, ref in enumerate(refs):
        t = A.n + k
        b.add_label(t, unary_label(ref.relation))
        vec = A.vector(ref)
        for i, x in enumerate(vec, 1):
            b.add_edge("E_%d" % i, x, t)
    g = b.build()
    g.node_names = (list(A.element_names)
                    + ["%s%s" % (r.relation, A.vector(r)) for r in refs])
    return g


def jtrep(C: Structure, J):
    """Join-tree representation: tuple nodes with U_R labels, positional
    overlap edges only along join-tree edges.  The result is a multitree.

    Returns (graph, node_of)."""
    from .acyclic import validate_join_tree

    ok, bad = validate_join_tree(C, J)
    if not ok:
        raise ValueError("invalid join tree (element %r)" % (bad,))
    refs = C.tuple_refs
    pos = C.tuple_pos
    b = MultigraphBuilder(len(refs))
    for k, ref in enumerate(refs):
        b.add_label(k, unary_label(ref.relation))
        # loops carry the repetition pattern; without them a homomorphism
        # could map a tuple with repeated entries onto a repetition-free one
        vec = C.vector(ref)
        for (i, j) in stp(vec, vec):
            b.add_edge(overlap_label(i, j), k, k)
    for (u, v) in J.edges:
        a, c = pos[u], pos[v]
        va, vc = C.vector(u), C.vector(v)
        for (i, j) in stp(va, vc):
            b.add_edge(overlap_label(i, j), a, c)
        for (i, j) in stp(vc, va):
            b.add_edge(overlap_label(i, j), c, a)
    g = b.build()
    g.node_names = ["v%s" % (C.vector(r),) for r in refs]
    return g, {ref: k for k, ref in enumerate(refs)}


def slice_bijection(a: Sequence[int], b: Sequence[int]):
    """The bijection S(a) -> S(b) that witnesses stp(a) = stp(b): rename every
    slice entry through the positional map a_i -> b_i.  Returns None when
    stp(a) != stp(b) (the map is then not well-defined)."""
    if stp(a, a) != stp(b, b):
        return None
    rename = {x: y for x, y in zip(a, b)}
    return {s: tuple(rename[x] for x in s) for s in slices(a)}
