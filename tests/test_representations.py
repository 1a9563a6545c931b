import itertools
import random

import numpy as np
from hash_outputs import six_ary
from test_acceptance import SIG4, _random_sig4

from relcr import fixtures, generate, representations
from relcr.acyclic import gyo_join_tree
from relcr.core import Signature, Structure, self_stp, stp
from relcr.cr import cr_run
from relcr.multigraph import ColoredMultigraph
from relcr.representations import overlap_label, slices, unary_label


class PerEdge:
    """One Python call per edge and unary label, as the encodings were built
    before they came from int arrays."""

    def __init__(self, n):
        self.n = n
        self.labels = {}
        self.edges = {}

    def add_label(self, v, label):
        self.labels.setdefault(v, set()).add(label)

    def add_edge(self, label, u, v):
        self.edges.setdefault(label, []).append((u, v))

    def build(self, node_names):
        return ColoredMultigraph.from_named(self.n, self.labels, self.edges,
                                            node_names)


def per_edge_grep(A):
    refs = A.tuple_refs
    vecs = [A.vector(r) for r in refs]
    b = PerEdge(len(refs))
    for k, ref in enumerate(refs):
        b.add_label(k, unary_label(ref.relation))
    starts, other, label, taus = A.overlaps
    for a in range(len(refs)):
        for bb, t in zip(other[starts[a]:starts[a + 1]],
                         label[starts[a]:starts[a + 1]]):
            for (i, j) in taus[t]:
                b.add_edge(overlap_label(i, j), a, bb)
    return b.build(["w%s" % (v,) for v in vecs]), {r: k for k, r in enumerate(refs)}


def per_edge_vgrep(A):
    refs = A.tuple_refs
    vecs = [A.vector(r) for r in refs]
    slice_ids = {}
    per_tuple = []
    for vec in vecs:
        ss = slices(vec)
        per_tuple.append(ss)
        for s in ss:
            if s not in slice_ids:
                slice_ids[s] = len(slice_ids)
    nw = len(refs)
    b = PerEdge(nw + len(slice_ids))
    for k, ref in enumerate(refs):
        b.add_label(k, unary_label(ref.relation))
    for a, vec in enumerate(vecs):
        for s in per_tuple[a]:
            vs = nw + slice_ids[s]
            for (i, j) in stp(vec, s):
                b.add_edge(overlap_label(i, j), a, vs)
            for (i, j) in stp(s, vec):
                b.add_edge(overlap_label(i, j), vs, a)
    names = ["w%s" % (v,) for v in vecs] + [None] * len(slice_ids)
    for s, k in slice_ids.items():
        names[nw + k] = "v%s" % (s,)
    return b.build(names), {r: k for k, r in enumerate(refs)}, slice_ids


def _element_and_tuple_names(A):
    return (list(A.element_names)
            + ["%s%s" % (r.relation, A.vector(r)) for r in A.tuple_refs])


def per_edge_incidence(A):
    refs = A.tuple_refs
    b = PerEdge(A.n + len(refs))
    for k, ref in enumerate(refs):
        b.add_label(A.n + k, unary_label(ref.relation))
        for x in set(A.vector(ref)):
            b.add_edge("E", x, A.n + k)
    return b.build(_element_and_tuple_names(A))


def per_edge_enriched_gaifman(A):
    b = PerEdge(A.n)
    for ref in A.tuple_refs:
        vec = A.vector(ref)
        for i in range(1, len(vec) + 1):
            for j in range(1, len(vec) + 1):
                if i != j:
                    b.add_edge("E_%s_%d_%d" % (ref.relation, i, j),
                               vec[i - 1], vec[j - 1])
    return b.build(list(A.element_names))


def per_edge_enriched_incidence(A):
    refs = A.tuple_refs
    b = PerEdge(A.n + len(refs))
    for k, ref in enumerate(refs):
        b.add_label(A.n + k, unary_label(ref.relation))
        for i, x in enumerate(A.vector(ref), 1):
            b.add_edge("E_%d" % i, x, A.n + k)
    return b.build(_element_and_tuple_names(A))


def per_edge_jtrep(C, J):
    refs = C.tuple_refs
    pos = C.tuple_pos
    b = PerEdge(len(refs))
    for k, ref in enumerate(refs):
        b.add_label(k, unary_label(ref.relation))
        vec = C.vector(ref)
        for (i, j) in stp(vec, vec):
            b.add_edge(overlap_label(i, j), k, k)
    for (u, v) in J.edges:
        a, c = pos[u], pos[v]
        for (i, j) in stp(C.vector(u), C.vector(v)):
            b.add_edge(overlap_label(i, j), a, c)
        for (i, j) in stp(C.vector(v), C.vector(u)):
            b.add_edge(overlap_label(i, j), c, a)
    return b.build(["v%s" % (C.vector(r),) for r in refs]), {r: k for k, r in enumerate(refs)}


def per_edge_encodings(A):
    """Export name -> per-edge graph of A, jtrep only for acyclic A."""
    out = {
        "grep": per_edge_grep(A)[0],
        "vgrep": per_edge_vgrep(A)[0],
        "incidence": per_edge_incidence(A),
        "enriched-gaifman": per_edge_enriched_gaifman(A),
        "enriched-incidence": per_edge_enriched_incidence(A),
    }
    J = gyo_join_tree(A)
    if J is not None:
        out["jtrep"] = per_edge_jtrep(A, J)[0]
    return out


def assert_same_graph(got, want):
    assert got.n == want.n
    assert got.labels == want.labels
    assert got.edges.keys() == want.edges.keys()
    for name, pairs in want.edges.items():
        assert np.array_equal(got.edges[name], pairs), name
    assert got.to_dot() == want.to_dot()


def sig4_corpus(count):
    """The first count structures of acceptance criterion 5's corpus."""
    rng = random.Random(50)
    return [_random_sig4(rng) for _ in range(count)]


def special_structures():
    """5-ary tuples, repeated entries, relations sharing vectors, empty."""
    five = Signature([("P", 5), ("E", 2)])
    out = [generate.random_structure(five, 6, {"P": 12, "E": 6}, s)
           for s in range(3)]
    out += [generate.random_structure(SIG4, 2, {"Q": 5, "R": 4, "E": 3}, s)
            for s in range(3)]
    shared = Signature([("R", 2), ("S", 2), ("T", 3), ("U", 1)])
    out.append(Structure.from_named(shared, [
        ("R", "ab"), ("S", "ab"), ("R", "ba"), ("S", "bb"), ("T", "aba"),
        ("T", "abc"), ("U", "c"), ("R", "cc")]))
    out.append(Structure(Signature([("R", 2)]), {}))
    return out


def slices_oracle(a):
    # all duplicate-free vectors over set(a), found the dumb way
    elems = set(a)
    out = set()
    for length in range(1, len(elems) + 1):
        for t in itertools.product(sorted(elems), repeat=length):
            if len(set(t)) == length:
                out.add(t)
    return out


def test_slices_against_bruteforce():
    rng = random.Random(0)
    for _ in range(200):
        a = tuple(rng.randrange(5) for _ in range(rng.randrange(1, 5)))
        got = representations.slices(a)
        assert len(got) == len(set(got))
        assert set(got) == slices_oracle(a)


def test_slices_enumeration_order():
    got = representations.slices((2, 1, 2))
    assert got == [(1,), (2,), (1, 2), (2, 1)]


def test_slice_example_slice_set():
    A = fixtures.slice_example()
    all_slices = set()
    for ref in A.tuple_refs:
        all_slices.update(representations.slices(A.vector(ref)))
    want = {(0,), (1,), (2,), (0, 1), (1, 0), (1, 2), (2, 1)}
    assert all_slices == want


def test_vgrep_of_slice_example_has_nine_nodes():
    A = fixtures.slice_example()
    g, node_of, slice_node_of = representations.vgrep(A)
    assert g.n == 2 + 7
    assert len(node_of) == 2 and len(slice_node_of) == 7


def test_grep_edge_symmetry_and_cohesion():
    for make in (fixtures.a1, fixtures.a2, fixtures.slice_example):
        A = make()
        g, node_of = representations.grep(A)
        pairs = set()
        for name, arr in g.edges.items():
            i, j = (int(x) for x in name.split("_")[1:])
            for v, w in arr.tolist():
                if v != w:
                    pairs.add((v, w))
                    assert g.has_edge(representations.overlap_label(j, i), w, v)
        assert len(pairs) == A.metrics()[1]


def test_grep_loops_encode_self_type():
    A = fixtures.slice_example()
    g, node_of = representations.grep(A)
    for ref in A.tuple_refs:
        vec = A.vector(ref)
        k = node_of[ref]
        loops = {
            tuple(int(x) for x in name.split("_")[1:])
            for name, arr in g.edges.items()
            if any(v == w == k for v, w in arr.tolist())}
        assert loops == set(self_stp(vec))


def test_vgrep_is_bipartite_with_neighbor_characterization():
    A = fixtures.a2()
    g, node_of, slice_node_of = representations.vgrep(A)
    nw = len(node_of)
    adj = g.gaifman_adjacency()
    for v, ws in adj.items():
        for w in ws:
            assert (v < nw) != (w < nw)
    for ref in A.tuple_refs:
        sa = set(representations.slices(A.vector(ref)))
        neighbors = {s for s, k in slice_node_of.items()
                     if nw + k in adj[node_of[ref]]}
        assert neighbors == sa


def test_distinct_slices_have_distinct_overlap_types():
    rng = random.Random(7)
    for _ in range(100):
        a = tuple(rng.randrange(4) for _ in range(rng.randrange(1, 5)))
        ss = representations.slices(a)
        types = [stp(a, s) for s in ss]
        assert len(set(types)) == len(types)


def test_slice_bijection_both_directions():
    rng = random.Random(11)
    for _ in range(300):
        k = rng.randrange(1, 5)
        a = tuple(rng.randrange(4) for _ in range(k))
        b = tuple(rng.randrange(4) for _ in range(k))
        pi = representations.slice_bijection(a, b)
        if self_stp(a) != self_stp(b):
            assert pi is None
            continue
        assert sorted(pi) == sorted(representations.slices(a))
        assert sorted(pi.values()) == sorted(representations.slices(b))
        for s, t in pi.items():
            assert stp(a, s) == stp(b, t)
            assert len(s) == len(t)
        # inclusion preservation and the round trip through the inverse
        inv = {t: s for s, t in pi.items()}
        for s1 in pi:
            assert inv[pi[s1]] == s1
            for s2 in pi:
                assert (set(s1) <= set(s2)) == (set(pi[s1]) <= set(pi[s2]))


def test_incidence_connects_elements_to_tuples():
    A = fixtures.slice_example()
    g = representations.incidence(A)
    assert g.n == A.n + A.size()
    for v, w in g.edges["E"].tolist():
        assert v < A.n <= w


def test_jtrep_single_tuple():
    A = Structure.from_named(Signature([("R", 3)]), [("R", ("a", "b", "a"))])
    J = gyo_join_tree(A)
    g, node_of = representations.jtrep(A, J)
    assert g.n == 1
    assert all(len(arr) == 0 or (arr[:, 0] == arr[:, 1]).all()
               for arr in g.edges.values())


def test_jtrep_gaifman_is_a_forest():
    A = fixtures.a1()
    J = gyo_join_tree(A)
    g, _ = representations.jtrep(A, J)
    adj = g.gaifman_adjacency()
    assert sum(len(ws) for ws in adj.values()) // 2 == len(J.edges)


def test_vgrep_equals_the_per_edge_build():
    for A in ([make() for make in (fixtures.a1, fixtures.b1, fixtures.a2,
                                   fixtures.b2, fixtures.slice_example)]
              + sig4_corpus(500) + special_structures()):
        g, node_of, slice_node_of = representations.vgrep(A)
        want, want_node_of, want_slices = per_edge_vgrep(A)
        assert_same_graph(g, want)
        assert node_of == want_node_of
        assert slice_node_of == want_slices


def expanded_copy(g):
    """g from its edge rows alone, so that cr_run derives its input."""
    return ColoredMultigraph.of_distinct(g.n, g.label_names, *g.rows, g.node,
                                         g.node_label)


def handover_corpus():
    """The fixtures, criterion 5's corpus, 6-ary random, hub and chained
    structures, an empty structure and one with an empty relation between
    two others."""
    sig = Signature([("R", 3), ("S", 2), ("E", 2)])
    return ([make() for make in (fixtures.a1, fixtures.b1, fixtures.a2,
                                 fixtures.b2, fixtures.slice_example)]
            + sig4_corpus(500)
            + [six_ary(shape, n, 8) for shape, n in (("random", 100),
                                                     ("hub", 130),
                                                     ("chain", 90))]
            + [Structure(Signature([("E", 2)]), {}),
               generate.random_structure(sig, 6, {"R": 5, "S": 0, "E": 4}, 3)])


def test_vgrep_hands_over_the_input_its_edge_rows_give():
    # vgrep's own adjacency and round-0 classes publish, round by round and
    # on every node, the ids that _lambda_adjacency and _base_colors give
    for A in handover_corpus():
        g = representations.vgrep(A)[0]
        got, want = cr_run(g), cr_run(expanded_copy(g))
        assert got.class_counts == want.class_counts
        for i in range(want.stable_round + 1):
            assert np.array_equal(got.colors_at(i), want.colors_at(i))


def test_cr_run_leaves_vgrep_edge_rows_unmade():
    corpus = handover_corpus()
    for A in corpus[:40] + corpus[-2:]:
        g = representations.vgrep(A)[0]
        cr_run(g, trace=False)
        assert callable(g._rows)   # still the function that makes them
        m = g.edge_count()
        assert m == len(g.src) == len(g.dst) == len(g.label)


def test_every_encoding_equals_the_per_edge_build():
    for A in sig4_corpus(60) + special_structures():
        want = per_edge_encodings(A)
        assert_same_graph(representations.grep(A)[0], want["grep"])
        assert_same_graph(representations.incidence(A), want["incidence"])
        assert_same_graph(representations.enriched_gaifman(A),
                          want["enriched-gaifman"])
        assert_same_graph(representations.enriched_incidence(A),
                          want["enriched-incidence"])
        if "jtrep" in want:
            assert_same_graph(
                representations.jtrep(A, gyo_join_tree(A))[0], want["jtrep"])
