import itertools
import random

import numpy as np
import pytest
from hash_outputs import hub, six_ary
from hypothesis import given, settings, strategies as st
from test_acceptance import _random_sig4
from test_kernel import directed_path

from relcr import cr, fixtures, generate, representations
from relcr.core import Signature, Structure
from relcr.cr import cr_distinguishes, cr_run, multigraph_union
from relcr.multigraph import ColoredMultigraph, sorted_distinct, tag_sets


def naive_cr(G, max_rounds=None):
    """Straightforward dict implementation used as the engine oracle."""
    lam = {}
    loops = {}
    for name in sorted(G.edges):
        for v, w in G.edges[name].tolist():
            if v == w:
                loops.setdefault(v, set()).add(name)
            else:
                lam.setdefault((v, w), set()).add((name, "+"))
                lam.setdefault((w, v), set()).add((name, "-"))
    col = {v: (tuple(sorted(G.labels.get(v, ()))),
               tuple(sorted(loops.get(v, ()))))
           for v in range(G.n)}
    history = [col]
    for _ in range(G.n if max_rounds is None else max_rounds):
        nxt = {
            v: (col[v], tuple(sorted(
                (tuple(sorted(lam[(v, w)])), col[w])
                for (v2, w) in lam if v2 == v)))
            for v in range(G.n)}
        if len(set(nxt.values())) == len(set(col.values())):
            break
        col = nxt
        history.append(col)
    return history


def blocks_of(values):
    out = {}
    for v, c in enumerate(values):
        out.setdefault(c, set()).add(v)
    return sorted(map(sorted, out.values()))


def random_multigraph(seed, n=8, nlabels=3):
    rng = random.Random(seed)
    labels = {v: {"L%d" % rng.randrange(2)}
              for v in range(n) if rng.random() < 0.5}
    edges = {"e%d" % t: [(rng.randrange(n), rng.randrange(n))
                         for _ in range(rng.randrange(0, 2 * n))]
             for t in range(nlabels)}
    return ColoredMultigraph.from_named(n, labels, edges)


def test_engine_matches_naive_oracle():
    for seed in range(40):
        G = random_multigraph(seed)
        fast = cr_run(G)
        slow = naive_cr(G)
        assert fast.stable_round == len(slow) - 1
        for i, col in enumerate(slow):
            assert blocks_of(fast.colors_at(i).tolist()) == blocks_of(
                [col[v] for v in range(G.n)])


def _unsorted_encodings():
    """grep and vgrep, whose rows reach cr_run unsorted, of the fixtures and
    a few structures of acceptance criterion 5's corpus; no vgrep of the
    6-ary A1 and B1, whose 1,963 nodes take naive_cr over 10 s."""
    rng = random.Random(50)
    small = [fixtures.a2(), fixtures.b2(), fixtures.slice_example()] + [
        _random_sig4(rng) for _ in range(8)]
    return ([representations.grep(A)[0] for A in [fixtures.a1(), fixtures.b1()]]
            + [encode(A)[0] for A in small
               for encode in (representations.grep, representations.vgrep)])


def test_engine_matches_naive_on_representations():
    sig_graphs = [
        representations.incidence(fixtures.b2()),
        representations.enriched_gaifman(fixtures.b1()),
    ] + _unsorted_encodings()
    for G in sig_graphs:
        fast = cr_run(G)
        slow = naive_cr(G)
        assert fast.stable_round == len(slow) - 1
        for i, col in enumerate(slow):
            assert blocks_of(fast.colors_at(i).tolist()) == blocks_of(
                [col[v] for v in range(G.n)])


def test_edge_row_order_leaves_every_round_unchanged():
    rng = np.random.default_rng(4)
    for G in _unsorted_encodings():
        want = cr_run(G)
        for _ in range(3):
            e, u = rng.permutation(len(G.src)), rng.permutation(len(G.node))
            H = ColoredMultigraph.of_distinct(
                G.n, G.label_names, G.src[e], G.dst[e], G.label[e],
                G.node[u], G.node_label[u])
            got = cr_run(H)
            assert got.class_counts == want.class_counts
            for i in range(want.stable_round + 1):
                assert np.array_equal(got.colors_at(i), want.colors_at(i))


def test_class_counts_strictly_increase():
    G = random_multigraph(99, n=12)
    res = cr_run(G)
    assert res.class_counts == sorted(set(res.class_counts))


def test_union_and_self_indistinguishable():
    G = random_multigraph(5)
    assert cr_distinguishes(G, G) is None


def test_distinguishes_different_sizes():
    G = random_multigraph(5, n=6)
    H = random_multigraph(5, n=7)
    U, off = multigraph_union(G, H)
    assert U.n == 13
    assert cr_distinguishes(G, H) is not None


def test_triangle_vs_path_unlabeled():
    def cycle(n):
        edges = [(v, (v + 1) % n) for v in range(n)]
        return ColoredMultigraph.from_named(
            n, {}, {"E": edges + [(w, v) for v, w in edges]})

    # two triangles vs one hexagon: the classical CR blind spot
    t = multigraph_union(cycle(3), cycle(3))[0]
    h = cycle(6)
    assert cr_distinguishes(t, h) is None


def test_trace_false_keeps_final_partition():
    # the untraced run folds leaves on FOLD_NODES nodes or more and the
    # traced one refines every node, so this checks the fold against the
    # round driver on vgreps of each family: random, hub, a directed path
    # of 600 facts and the 6-ary structures of handover_corpus().  Below
    # the fold, the vgrep of a 300-fact path hands over to the worklist
    sig = Signature([("R", 3), ("E", 2)])
    wide = generate.random_structure(sig, 1000, {"R": 500, "E": 500}, 0)
    folded = [representations.vgrep(A)[0] for A in [
        wide, hub(400, 0), directed_path(600)] + [
        six_ary(shape, n, 8) for shape, n in (("random", 100), ("hub", 130),
                                              ("chain", 90))]]
    assert all(G.n >= cr.FOLD_NODES for G in folded)
    for G in [random_multigraph(17),
              representations.vgrep(directed_path(300))[0]] + folded:
        fast, full = cr_run(G, trace=False), cr_run(G)
        assert np.array_equal(fast.colors, full.colors)
        assert fast.class_counts == full.class_counts
        assert fast.stable_round == full.stable_round


def test_untraced_runs_answer_only_for_the_kept_round():
    # an untraced run keeps its last round alone, below FOLD_NODES from the
    # round driver and above it from the fold: earlier rounds raise
    sig = Signature([("R", 3), ("E", 2)])
    wide = generate.random_structure(sig, 1000, {"R": 500, "E": 500}, 0)
    small, big = (representations.vgrep(A)[0] for A in (fixtures.a2(), wide))
    assert small.n < cr.FOLD_NODES <= big.n
    for G in (small, big):
        fast, full = cr_run(G, trace=False), cr_run(G)
        k = fast.stable_round
        assert k == full.stable_round >= 2
        for i in (k, k + 1):
            assert np.array_equal(fast.colors_at(i), full.colors_at(i))
        for read in (fast.colors_at, fast.histogram_at, fast.partition_at):
            for i in (0, k - 1):
                with pytest.raises(ValueError, match="keeps rounds %d on" % k):
                    read(i)
        with pytest.raises(ValueError, match="keeps rounds %d on" % k):
            fast.first_difference(range(3), range(3, 6))


@st.composite
def leafy_multigraphs(draw):
    """Small multigraphs made mostly of leaves (nodes with one neighbour,
    which has two or more): a random core, often a directed path, with stars,
    isolated edges, paths of two edges and leaves hung on it, self-loops,
    unary labels and up to three edge labels, in either direction and in
    parallel."""
    plain = draw(st.booleans())   # one label, one direction: many rounds
    n = draw(st.integers(0, 14))
    pairs = [(v, v + 1) for v in range(n - 1)] if plain else [
        tuple(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2)))
        for _ in range(draw(st.integers(0, 8) if n else st.just(0)))]
    core = list(range(n))
    for shape in draw(st.lists(st.sampled_from(
            ["star", "edge", "path", "leaf", "leaf"]), max_size=8)):
        if shape == "leaf" and core:
            pairs.append((draw(st.sampled_from(core)), n))
            n += 1
        elif shape == "star":
            k = draw(st.integers(1, 4))
            pairs += [(n, n + 1 + i) for i in range(k)]
            core.append(n)
            n += k + 1
        elif shape in ("edge", "path"):
            pairs.append((n, n + 1))
            if shape == "path":
                pairs.append((n + 1, n + 2))
            core.append(n + 1)
            n += 2 + (shape == "path")
    n = max(n, 1)
    pairs += [(v, v) for v in draw(st.lists(st.integers(0, n - 1),
                                            max_size=3))]
    edges = {}
    for u, v in pairs:
        for lab in "a" if plain else draw(st.lists(
                st.sampled_from("abc"), min_size=1, max_size=2, unique=True)):
            edges.setdefault(lab, []).append(
                (v, u) if not plain and draw(st.booleans()) else (u, v))
    labels = {v: {"L"} for v in draw(st.lists(st.integers(0, n - 1),
                                             max_size=3))}
    return ColoredMultigraph.from_named(n, labels, edges)


@settings(max_examples=200, deadline=None)
@given(leafy_multigraphs())
def test_folded_leaves_give_naive_rounds(G):
    # the untraced cr_run folds leaves out whatever the size and must end on
    # the last round of the per-node oracle; the traced leg checks that the
    # unfolded round driver publishes every round's ids
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cr, "FOLD_NODES", 0)
        for max_rounds in (0, 1, 2, 3, None):
            want = []
            for col in naive_cr(G, max_rounds):
                ids: dict = {}   # numbered in order of first occurrence
                want.append([ids.setdefault(col[v], len(ids))
                             for v in range(G.n)])
            counts = [max(w) + 1 for w in want]
            fast = cr_run(G, max_rounds, trace=False)
            full = cr_run(G, max_rounds)
            for got in (fast, full):
                assert got.class_counts == counts
                assert got.stable_round == len(want) - 1
            assert fast.colors.tolist() == want[-1]
            assert [full.colors_at(i).tolist()
                    for i in range(len(want))] == want


def test_edge_dedup_and_lookup():
    G = ColoredMultigraph.from_named(3, {}, {"E": [(0, 1), (0, 1), (1, 2)]})
    assert len(G.edges["E"]) == 2
    assert G.has_edge("E", 0, 1) and not G.has_edge("E", 1, 0)
    assert G.edge_labels_between()[(0, 1)] == ("E",)


def test_engine_matches_naive_with_many_labels():
    # 40 edge labels make 80 (label, direction) tags, two 63-bit mask words
    for seed in range(10):
        G = random_multigraph(seed, n=10, nlabels=40)
        fast = cr_run(G)
        slow = naive_cr(G)
        assert fast.stable_round == len(slow) - 1
        for i, col in enumerate(slow):
            assert blocks_of(fast.colors_at(i).tolist()) == blocks_of(
                [col[v] for v in range(G.n)])


def test_sorted_distinct_packs_or_lexsorts():
    # three columns of 30 bits do not fit one int64 key: the lexsort path
    rng = np.random.default_rng(0)
    for radix in (5, 2 ** 30):
        cols = rng.integers(0, 5, size=(3, 300)) * (radix // 5)
        got = sorted_distinct(cols, (radix,) * 3)
        want = np.unique(cols.T, axis=0).T
        assert len(got) == 3
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_set_ids_across_mask_words():
    # tags at and around the boundaries of 62- and 63-tag words, one set
    # per owner, then as the labels of ordered pairs and of nodes: tag 2 * l
    # is an edge a -> b labeled l (a loop of node k), and 2 * l + 1 an edge
    # b -> a (a unary label of node k)
    sets = [(0,), (62,), (63,), (0, 62), (0, 63), (62, 63), (125,), (126,),
            (0, 126), (62,), (0, 63), (5, 62, 126), (61,), (123,), (124,),
            (0, 124)]
    m = len(sets)
    heads, ids = tag_sets([k for k, s in enumerate(sets) for _ in s],
                          [t for s in sets for t in s], m, 127)
    assert heads.tolist() == list(range(m))
    edges, marks = [], []
    for k, s in enumerate(sets):
        a, b = m + 2 * k, m + 2 * k + 1
        for t in s:
            if t % 2:
                edges.append((b, a, t // 2))
                marks.append((k, t // 2))
            else:
                edges += [(a, b, t // 2), (k, k, t // 2)]
    src, dst, label = np.array(edges).T
    node, node_label = np.array(marks).T
    G = ColoredMultigraph(3 * m, range(64), src, dst, label, node, node_label)
    (starts, _, lam), names, _ = G.refinement_input
    for got in (ids, lam[starts[m + 2 * np.arange(m)]], names[:m]):
        for a, b in itertools.combinations(range(m), 2):
            assert (got[a] == got[b]) == (sets[a] == sets[b])
