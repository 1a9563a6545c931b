"""The refinement engines against the engines they replaced.

rcr.kernel_rounds and the overlap-graph worklist must give the ids of
rcr.reference_rounds, and cr_run the ids of the per-node interning loop
below, exactly and not just the same partitions.  Each engine is called
directly, whatever rcr_run would choose for the input.
"""

import functools
import random

import numpy as np
from hash_outputs import hub, rewired, six_ary
from test_acceptance import _random_sig4

from relcr import (checks, cli, cr, fixtures, generate, logic, rcr,
                   representations)
from relcr.checks import published_rounds
from relcr.core import Signature, Structure, serialize_structure
from relcr.multigraph import ColoredMultigraph
from relcr.cr import Coloring, _base_colors, _lambda_adjacency, cr_run
from relcr.rcr import RefinementTrace, kernel_rounds, reference_rounds


def per_node_cr_run(G, max_rounds=None):
    """cr_run as it was before the kernel: one dict lookup per node and
    round, keyed by (previous color, bytes of the sorted codes).  Returns
    (rounds, class_counts)."""
    if max_rounds is None:
        max_rounds = G.n
    src, dst, lam = _lambda_adjacency(G)
    colors, ncls = per_node_base_colors(G)
    rounds = [colors]
    class_counts = [ncls]
    for _ in range(max_rounds):
        prev = rounds[-1]
        codes = lam * np.int64(ncls) + prev[dst]
        order = np.lexsort((codes, src))
        s_src, s_codes = src[order], codes[order]
        idx = np.arange(G.n)
        starts = np.searchsorted(s_src, idx)
        ends = np.searchsorted(s_src, idx, side="right")
        table: dict = {}
        new = np.empty(G.n, dtype=np.int64)
        for v in range(G.n):
            a, b = starts[v], ends[v]
            key = (int(prev[v]), s_codes[a:b].tobytes() if a < b else -1)
            new[v] = table.setdefault(key, len(table))
        if len(table) == ncls:
            break
        rounds.append(new)
        ncls = len(table)
        class_counts.append(ncls)
    return rounds, class_counts


def per_node_base_colors(G):
    """_base_colors as it was before it was vectorized: one dict lookup per
    node, keyed by its sorted unary label names and loop label names."""
    loops = {}
    for name in sorted(G.edges):
        for v, w in G.edges[name].tolist():
            if v == w:
                loops.setdefault(v, []).append(name)
    table = {}
    colors = np.empty(G.n, dtype=np.int64)
    for v in range(G.n):
        key = (tuple(sorted(G.labels.get(v, ()))), tuple(loops.get(v, ())))
        colors[v] = table.setdefault(key, len(table))
    return colors, len(table)


def directed_path(k, cycle=0):
    """k E facts: a directed path of k - cycle edges and, on fresh elements,
    a directed cycle of `cycle` edges."""
    facts = [("E", (str(i), str(i + 1))) for i in range(k - cycle)]
    facts += [("E", ("c%d" % i, "c%d" % ((i + 1) % cycle))) for i in range(cycle)]
    return Structure.from_named(Signature([("E", 2)]), facts)


def random_with_path(n, k, seed):
    """A random R/3,E/2 structure of n tuples on n elements and, on fresh
    elements, a directed E path of k facts."""
    sig = Signature([("R", 3), ("E", 2)])
    A = generate.random_structure(sig, n, {"R": n // 2, "E": n - n // 2}, seed)
    facts = [(rel, tuple(A.element_names[x] for x in t))
             for rel in ("R", "E") for t in A.relations[rel]]
    facts += [("E", ("p%d" % i, "p%d" % (i + 1))) for i in range(k)]
    return Structure.from_named(sig, facts)


def matching_with_path(k, path):
    """k E facts on 2k distinct elements and a directed path of path E
    facts whose first element starts two more: only the path's tuples have
    shared slices, which split into two classes in round 1."""
    facts = [("E", ("a%d" % i, "b%d" % i)) for i in range(k)]
    facts += [("E", (str(i), str(i + 1))) for i in range(path)]
    facts += [("E", ("0", "s%d" % i)) for i in range(2)]
    return Structure.from_named(Signature([("E", 2)]), facts)


def handover_cases():
    """Structures on which kernel_rounds hands over to the worklist after
    one or more refine_step rounds, and the worklist still splits: a path
    plus a cycle (after round 1) and a random structure plus a path (after
    round 4, once the random part is stable)."""
    return [directed_path(400, cycle=100), random_with_path(600, 200, 0)]


def corpus():
    cases = [fixtures.a1(), fixtures.b1(), fixtures.a2(), fixtures.b2(),
             fixtures.slice_example()]
    rng = random.Random(50)   # the corpus of acceptance criterion 5
    return cases + [_random_sig4(rng) for _ in range(500)]


@functools.lru_cache(maxsize=None)
def with_reference():
    """The corpus, two 300-tuple hubs, a 2000-tuple random R/3,E/2
    structure, a matching plus a path (whose first tuple half-step must
    re-key every tuple), the handover cases and a 2100-fact path (1050
    rounds), each with its reference_rounds."""
    sig = Signature([("R", 3), ("E", 2)])
    wide = generate.random_structure(sig, 3000, {"R": 1000, "E": 1000}, 3)
    cases = (corpus() + [hub(300, 0), hub(300, 1), wide, matching_with_path(
        1000, 100)] + handover_cases() + [directed_path(2100)])
    return [(A, reference_rounds(A)) for A in cases]


def kernel_ids(A, max_rounds=None):
    """Every round's kernel ids as lists, with the class counts."""
    return published_rounds(RefinementTrace(A, *kernel_rounds(A, max_rounds)))


def overlap_ids(A, max_rounds=None):
    """Every round's ids of the overlap-graph worklist as lists, with the
    class counts."""
    base, _, rounds = rcr._overlap_engine(A)
    return published_rounds(RefinementTrace(A, base, *rounds(
        A.size() if max_rounds is None else max_rounds)))


def same_ids(a: Coloring, want):
    """Whether a publishes the rounds and class counts of want."""
    rounds, class_counts = want
    return (a.class_counts == class_counts and a.stable_round == len(rounds) - 1
            and all(np.array_equal(a.colors_at(i), r)
                    for i, r in enumerate(rounds)))


def constant_mix(codes):
    return np.zeros(len(codes), dtype=np.uint64)


def test_kernel_ids_equal_reference_ids():
    for A, want in with_reference():
        assert kernel_ids(A) == want
    rounds, counts = with_reference()[-1][1]
    assert len(counts) == 1051


def test_handover_cases_switch_mid_run(monkeypatch):
    # each case runs refine_step rounds, then worklist rounds that split;
    # cr_run and kernel_rounds hand over by the same rule
    seen = []
    worklist = cr._worklist_rounds

    def spy(*args):
        class_counts = args[-1][-1]   # the driver's log
        before = len(class_counts) - 1
        out = worklist(*args)
        seen.append((before, len(class_counts) - 1 - before))
        return out

    monkeypatch.setattr(cr, "_worklist_rounds", spy)
    for A in handover_cases():
        kernel_rounds(A)
    for A in [directed_path(300)] + handover_cases():
        cr_run(representations.vgrep(A)[0])
    assert [before for before, _ in seen] == [1, 4, 3, 3, 18]
    assert all(after > 0 for _, after in seen)


def test_worklist_partition_matches_its_names(monkeypatch):
    # after every split, each class's member set is the set of nodes of
    # that name, and no class is empty
    refine = cr._Partition.refine
    calls = []

    def checked(part, bags):
        renamed = refine(part, bags)
        calls.append(len(renamed))
        by_name = [set() for _ in part.members]
        for v, c in enumerate(part.names):
            by_name[c].add(v)
        assert [m.keys() for m in part.members] == by_name
        assert all(part.members)
        return renamed

    monkeypatch.setattr(cr._Partition, "refine", checked)
    monkeypatch.setattr(cr, "HANDOVER_PER_TUPLE", 0)   # hand over at round 1
    for A, want in with_reference()[:200]:
        assert kernel_ids(A) == want
    assert any(calls)
    calls.clear()
    for A in corpus()[:60] + [directed_path(40)]:
        G = representations.vgrep(A)[0]
        assert same_ids(cr_run(G), per_node_cr_run(G))
    assert any(calls)


def assert_largest_part_keeps_the_name(t: Coloring):
    """No part that a round of t renames is larger than the part that kept
    the old name, so each rename of a position at least halves its class,
    and no position is renamed more than log2 n times."""
    names = t.base.copy()
    for r in range(t.stable_round):
        moved = t.moved[t.ends[r]:t.ends[r + 1]]
        old = names[moved]
        names[moved] = t.renamed[t.ends[r]:t.ends[r + 1]]
        size = np.bincount(names)
        assert (size[names[moved]] <= size[old]).all()
    assert np.bincount(t.moved, minlength=1).max() <= max(
        len(names).bit_length() - 1, 0)


def test_no_position_is_renamed_more_than_log2_n_times(monkeypatch):
    # the rule behind the O(N log N) bound, on long runs and at handover
    for A in [directed_path(2000)] + handover_cases():
        assert_largest_part_keeps_the_name(rcr.rcr_run(A))
        assert_largest_part_keeps_the_name(cr_run(representations.vgrep(A)[0]))
    # handing over at round 1 gives the worklist splits into many parts
    monkeypatch.setattr(cr, "HANDOVER_PER_TUPLE", 0)
    for A in corpus()[:200]:
        assert_largest_part_keeps_the_name(RefinementTrace(A, *kernel_rounds(A)))
        assert_largest_part_keeps_the_name(cr_run(representations.vgrep(A)[0]))


def test_kernel_rounds_respect_max_rounds():
    A = directed_path(40)
    for m in (0, 1, 5):
        assert kernel_ids(A, m) == reference_rounds(A, m)


def test_kernel_on_relations_sharing_vectors():
    # atp holds every relation of the vector's arity that contains it
    sig = Signature([("R", 2), ("S", 2), ("T", 2), ("U", 1)])
    for seed in range(40):
        rng = random.Random(seed)
        pairs = [(rng.randrange(6), rng.randrange(6)) for _ in range(12)]
        rels = {name: [p for p in pairs if rng.random() < 0.6]
                for name in "RST"}
        rels["U"] = [(x,) for x in range(6)]
        A = Structure(sig, rels)
        assert kernel_ids(A) == reference_rounds(A)


def test_kernel_on_five_ary_tuples():
    # the longest tuples rcr_run gives the kernel, with repeated elements
    sig = Signature([("P", 5), ("E", 2)])
    for seed in range(30):
        rng = random.Random(seed)
        n = rng.randint(3, 9)
        x = lambda: str(rng.randrange(n))  # noqa: E731
        facts = [("P", tuple(x() for _ in range(5)))
                 for _ in range(rng.randint(1, 12))]
        A = Structure.from_named(sig, facts + [("E", (x(), x()))
                                               for _ in range(6)])
        assert kernel_ids(A) == reference_rounds(A)


def test_kernel_on_empty_structure():
    A = Structure(Signature([("E", 2)]), {})
    assert kernel_ids(A) == reference_rounds(A) == ([[]], [0])


def test_cr_run_ids_equal_per_node_loop():
    # paths take many rounds in which few classes split: on graphs of more
    # than 512 nodes cr_run re-keys only the nodes next to a split, then
    # hands over to the worklist
    graphs = []
    for A in corpus()[:120] + [hub(300, 0), directed_path(40), directed_path(300),
                               directed_path(400, cycle=100)]:
        graphs.append(representations.vgrep(A)[0])
        graphs.append(representations.grep(A)[0])
    for G in graphs:
        assert same_ids(cr_run(G), per_node_cr_run(G))


def test_base_colors_equal_per_node_numbering():
    # incidence and enriched graphs have loops; the random graphs several
    # unary labels and loops per node, and up to 40 labels, more than one
    # 63-bit mask word holds
    graphs = []
    for A in corpus()[:200]:
        graphs += [representations.incidence(A),
                   representations.enriched_gaifman(A),
                   representations.enriched_incidence(A)]
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 12)
        # unary labels share their names with edge labels
        labels = {v: {"e%d" % rng.randrange(4) for _ in range(rng.randrange(4))}
                  for v in range(n)}
        edges = {"e%d" % t: [(v, v) for v in range(n) if rng.random() < 0.4]
                 + [(rng.randrange(n), rng.randrange(n)) for _ in range(n)]
                 for t in range(rng.randint(1, 40))}
        graphs.append(ColoredMultigraph.from_named(n, labels, edges))
    for G in graphs:
        got, count = _base_colors(G)
        want, want_count = per_node_base_colors(G)
        assert count == want_count and np.array_equal(got, want)
    for G in graphs[-60:]:
        assert same_ids(cr_run(G), per_node_cr_run(G))


def test_every_hash_colliding_leaves_ids_unchanged(monkeypatch):
    # with a constant mixer every node of a (prev, degree) group looks equal,
    # so every class must come from the exact split
    graphs = [representations.vgrep(A)[0] for A, _ in with_reference()[:120]]
    want_cr = [per_node_cr_run(G) for G in graphs]
    monkeypatch.setattr(cr, "_mix", constant_mix)
    for A, want in with_reference():
        assert kernel_ids(A) == want
    for G, w in zip(graphs, want_cr):
        assert same_ids(cr_run(G), w)


def test_wide_codes_take_the_lexsort_path():
    # codes too wide to pack with the node into one int64 key give the same ids
    rng = np.random.default_rng(3)
    deg = rng.integers(0, 4, size=200)
    starts = np.concatenate(([0], np.cumsum(deg)))
    other = rng.integers(0, 5, size=starts[-1])
    label = rng.integers(0, 3, size=starts[-1])
    prev = rng.integers(0, 2, size=200)
    colors = rng.integers(0, 3, size=5)
    narrow = cr.refine_step(starts, other, label, prev, colors)
    wide = cr.refine_step(starts, other, label * 2 ** 55, prev, colors)
    assert narrow[1] == wide[1] and np.array_equal(narrow[0], wide[0])


def test_row_ids_number_rows_lexicographically():
    rows = np.array([[2, -1], [0, 5], [2, -1], [0, 3], [-1, 2 ** 40]])
    ids, count = rcr._row_ids(rows)
    assert count == 4 and ids.tolist() == [3, 2, 3, 1, 0]
    assert rcr._row_ids(np.empty((0, 3), dtype=np.int64))[1] == 0


def test_refine_step_numbers_by_first_occurrence():
    # nodes 0..3, one edge each to a colored other end: 0 and 2 agree
    starts = np.array([0, 1, 2, 3, 4])
    other = np.array([0, 1, 0, 2])
    label = np.zeros(4, dtype=np.int64)
    new, count = cr.refine_step(starts, other, label,
                                np.zeros(4, dtype=np.int64),
                                np.array([5, 3, 4]))
    assert count == 3 and new.tolist() == [0, 1, 0, 2]


def test_kernel_check_reports_wrong_ids(monkeypatch):
    structures = checks.kernel_structures(7, 30)
    assert checks.check_kernel(structures) == []
    none = np.empty(0, dtype=np.int64)
    monkeypatch.setattr(rcr, "kernel_rounds", lambda A: (
        np.zeros(A.size(), dtype=np.int64), none, none, [0], [1]))
    assert checks.check_kernel(structures)


def test_overlap_ids_equal_reference_ids():
    # the engine of small structures and of tuples longer than the kernel's
    big = [six_ary(shape, n, seed) for shape in ("random", "hub", "chain")
           for n, seed in ((80, 1), (130, 2))]
    assert all(A.size() >= 64 for A in big)
    for A in corpus() + big + [directed_path(40, cycle=9)]:
        assert overlap_ids(A) == reference_rounds(A)
    for A in big + [directed_path(40)]:
        for m in (0, 1, 2):
            assert overlap_ids(A, m) == reference_rounds(A, m)
    A = Structure(Signature([("E", 2)]), {})
    assert overlap_ids(A) == reference_rounds(A) == ([[]], [0])


def test_rcr_run_picks_the_engine_by_size_and_arity(monkeypatch, tmp_path,
                                                    capsys):
    # the kernel takes 64 facts or more of arity at most 5, the overlap
    # worklist the rest; no production entry point reaches the reference
    used = []
    for name in ("_slice_rounds", "_overlap_rounds"):
        engine = getattr(rcr, name)
        monkeypatch.setattr(rcr, name, lambda *a, e=engine, n=name, **k:
                            used.append(n) or e(*a, **k))

    def refuse(*args):
        raise AssertionError("reference_rounds reached")

    monkeypatch.setattr(rcr, "reference_rounds", refuse)
    chain = six_ary("chain", 70, 0)
    small = directed_path(12), directed_path(12, cycle=3)
    kernel = directed_path(70), directed_path(70, cycle=10)
    wide = chain, chain.rename(list(reversed(range(chain.n))))
    for A in (small[0], hub(100, 0), chain):
        rcr.rcr_run(A)
    assert used == ["_overlap_rounds", "_slice_rounds", "_overlap_rounds"]
    used.clear()
    for A, B in (small, rewired(0), wide):   # rewired(0) differs at round 1
        res = rcr.rcr_compare(A, B)
        assert (res.round is None) == (A is chain)
        logic.distinguishing_sentence(A, B)
    assert used == ["_overlap_rounds"] * 2 + ["_slice_rounds"] * 2 + [
        "_overlap_rounds"] * 2
    used.clear()
    for k, (A, B) in enumerate((small, kernel, wide)):
        a, b = tmp_path / ("%d.a" % k), tmp_path / ("%d.b" % k)
        a.write_text(serialize_structure(A))
        b.write_text(serialize_structure(B))
        for argv in (["refine", a], ["distinguish", a, b],
                     ["synthesize", a, "--tuple", "E,0", "--round", "2"]):
            assert cli.main([str(x) for x in argv]) == 0
    capsys.readouterr()
    assert used == ["_overlap_rounds"] * 3 + ["_slice_rounds"] * 3 + [
        "_overlap_rounds"] * 3
