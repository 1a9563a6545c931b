import itertools
import random

import numpy as np

from relcr import fixtures, generate, representations
from relcr.cr import _set_ids, cr_distinguishes, cr_run, multigraph_union
from relcr.multigraph import ColoredMultigraph, sorted_distinct


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


def test_engine_matches_naive_on_representations():
    sig_graphs = [
        representations.grep(fixtures.a1())[0],
        representations.vgrep(fixtures.a2())[0],
        representations.incidence(fixtures.b2()),
        representations.enriched_gaifman(fixtures.b1()),
    ]
    for G in sig_graphs:
        fast = cr_run(G)
        slow = naive_cr(G)
        for i, col in enumerate(slow):
            assert blocks_of(fast.colors_at(i).tolist()) == blocks_of(
                [col[v] for v in range(G.n)])


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
    G = random_multigraph(17)
    full = cr_run(G)
    last = cr_run(G, trace=False)
    assert blocks_of(full.colors.tolist()) == blocks_of(last.colors.tolist())


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
    # tags at and around the 63-bit word boundaries, as runs of one owner
    sets = [(0,), (62,), (63,), (0, 62), (0, 63), (62, 63), (125,), (126,),
            (0, 126), (62,), (0, 63), (5, 62, 126)]
    starts = np.cumsum([0] + [len(s) for s in sets[:-1]])
    ids = _set_ids(starts, np.array([t for s in sets for t in s]))
    for a, b in itertools.combinations(range(len(sets)), 2):
        assert (ids[a] == ids[b]) == (sets[a] == sets[b])
