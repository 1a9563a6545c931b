import io
import random
from collections import Counter

import pytest
from hash_outputs import rewired
from test_kernel import directed_path

from relcr import fixtures, generate, rcr
from relcr.checks import published_rounds
from relcr.core import Signature, Structure, disjoint_union, stp
from relcr.cr import cr_run, multigraph_union
from relcr.rcr import rcr_compare, rcr_distinguishes, rcr_run
from relcr.representations import vgrep


def naive_rcr(A):
    """Dict/multiset reference with nested color values, structured
    nothing like the interned-id path."""
    refs = A.tuple_refs
    vec = {r: A.vector(r) for r in refs}
    col = {
        r: (tuple(sorted(A.atp(vec[r]))), tuple(sorted(stp(vec[r], vec[r]))))
        for r in refs}
    history = [col]
    while True:
        nxt = {}
        for r in refs:
            bag = []
            for s in refs:
                tau = stp(vec[r], vec[s])
                if tau:
                    bag.append((tuple(sorted(tau)), col[s]))
            nxt[r] = (col[r], tuple(sorted(bag)))
        if len(set(nxt.values())) == len(set(col.values())):
            return history
        col = nxt
        history.append(col)


def blocks(values):
    out = {}
    for k, c in enumerate(values):
        out.setdefault(c, set()).add(k)
    return sorted(map(sorted, out.values()))


def test_matches_naive_reference():
    sig = Signature([("R", 3), ("E", 2)])
    cases = [fixtures.a1(), fixtures.b1(), fixtures.a2(), fixtures.b2(),
             fixtures.slice_example()]
    cases += [generate.random_structure(sig, 5, {"R": 4, "E": 3}, s)
              for s in range(20)]
    for A in cases:
        fast = rcr_run(A)
        slow = naive_rcr(A)
        assert fast.stable_round == len(slow) - 1
        for i, col in enumerate(slow):
            assert blocks(fast.colors_at(i)) == blocks(
                [col[r] for r in A.tuple_refs])


def test_rounds_refine_monotonically():
    A = fixtures.a2()
    t = rcr_run(A)
    assert t.class_counts == sorted(set(t.class_counts))
    for i in range(t.stable_round):
        coarse = t.partition_at(i)
        for block in t.partition_at(i + 1):
            assert any(block <= big for big in coarse)


def test_stable_before_size_rounds():
    for s in range(10):
        A = generate.random_structure(
            Signature([("R", 3)]), 5, {"R": 6}, s)
        t = rcr_run(A)
        assert t.stable_round <= A.size()


def test_isomorphism_invariance():
    A = fixtures.a2()
    perm = list(range(A.n))
    random.Random(1).shuffle(perm)
    B = A.rename(perm)
    assert rcr_distinguishes(A, B) is None


def test_self_union_histogram_doubles():
    A = fixtures.a1()
    U, info = disjoint_union(A, A)
    single = rcr_run(A)
    double = rcr_run(U)
    hs = single.histogram_at(single.stable_round)
    hd = double.histogram_at(double.stable_round)
    assert sorted(hd.values()) == sorted(2 * n for n in hs.values())


def test_distinguish_is_symmetric():
    A, B = fixtures.a2(), fixtures.b2()
    assert rcr_distinguishes(A, B) == rcr_distinguishes(B, A)


def test_unequal_sizes_separate_at_round_zero():
    sig = Signature([("E", 2)])
    A = generate.random_structure(sig, 4, {"E": 3}, 0)
    B = generate.random_structure(sig, 4, {"E": 5}, 0)
    r, _c = rcr_distinguishes(A, B)
    assert r == 0


def test_separate_runs_give_identical_rounds():
    for A in (fixtures.a1(), fixtures.a2(), fixtures.slice_example()):
        assert published_rounds(rcr_run(A)) == published_rounds(rcr_run(A))


def test_compare_sides_cover_all_positions():
    res = rcr_compare(fixtures.a1(), fixtures.b1())
    assert len(res.pos["A"]) + len(res.pos["B"]) == res.union.size()
    assert res.round == 1


def test_compare_trace_ends_at_the_verdict_round():
    # 80 tuples go to the kernel, which stops at round 1, and path(12)
    # against path(9) plus cycle(3), 24 tuples, to the overlap worklist,
    # which stops at round 5; the unions are stable only at rounds 3 and 9
    for (A, B), verdict, stable in ((rewired(0), 1, 3), ((
            directed_path(12), directed_path(12, cycle=3)), 5, 9)):
        res = rcr_compare(A, B)
        assert res.trace.stable_round == res.round == verdict
        full = rcr_run(res.union)
        assert full.stable_round == stable
        assert (res.round, res.color) == full.first_difference(res.pos["A"],
                                                               res.pos["B"])
        for i in range(verdict + 1):
            assert list(res.trace.colors_at(i)) == list(full.colors_at(i))


def test_compare_of_unequal_sizes_builds_no_slice(monkeypatch):
    sig = Signature([("R", 3), ("E", 2)])
    A = generate.random_structure(sig, 60, {"R": 50, "E": 50}, 3)
    B = generate.random_structure(sig, 60, {"R": 50, "E": 51}, 4)
    U, _ = disjoint_union(A, B)
    want = rcr_run(U).colors_at(0)

    def refuse(*args):
        raise AssertionError("shared sets listed for a round-0 verdict")

    monkeypatch.setattr(rcr, "shared_sets", refuse)
    res = rcr_compare(A, B)
    assert res.round == res.trace.stable_round == 0
    assert list(res.trace.colors_at(0)) == list(want)
    with pytest.raises(AssertionError, match="round-0 verdict"):
        rcr_run(U)   # the kernel's rounds list through this name


def test_overlap_rounds_hand_the_overlap_lists_over_as_they_are(monkeypatch):
    A = fixtures.a1()   # 7 tuples: the overlap worklist
    handed = []
    worklist = rcr._worklist_rounds

    def spy(steps, names, moved, nlabels, *rest):
        handed.append((steps, nlabels))
        return worklist(steps, names, moved, nlabels, *rest)

    monkeypatch.setattr(rcr, "_worklist_rounds", spy)
    t = rcr_run(A)
    starts, other, label, taus = A.overlaps
    [([step], nlabels)] = handed
    assert step[0] is starts and step[1] is other and step[2] is label
    assert nlabels == len(taus)
    assert published_rounds(t) == rcr.reference_rounds(A)


def test_round_of_color_decoding():
    t = rcr_run(fixtures.a1())
    for i in range(t.stable_round + 1):
        for c in set(t.colors_at(i)):
            assert t.round_of_color(c) == i
    for c in (-1, sum(t.class_counts)):
        with pytest.raises(ValueError):
            t.round_of_color(c)


def test_round_of_color_past_a_thousand_rounds():
    # a directed path of 2100 facts refines one step inwards per round
    A = Structure.from_named(Signature([("E", 2)]),
                             [("E", (str(i), str(i + 1))) for i in range(2100)])
    t = rcr_run(A)
    assert t.stable_round == 1050
    for i in reversed(range(t.stable_round + 1)):
        for c in set(t.colors_at(i)):
            assert t.round_of_color(c) == i


def test_negative_round_raises():
    # A2 has 9 ids, stable at round 1: round -1 would read ids 9-11, and
    # round -2 round 0's partition under round 1's ids
    t = rcr_run(fixtures.a2())
    for read in (t.colors_at, t.histogram_at, t.partition_at, t.round_colors):
        for i in (-1, -2):
            with pytest.raises(ValueError):
                read(i)
    with pytest.raises(ValueError):
        cr_run(vgrep(fixtures.a2())[0], trace=False).colors_at(-1)


def twin_path(k):
    """A directed E path of k facts whose every fifth vector is also in R:
    twin occurrences, one vector in two relations of one arity."""
    pairs = [("p%d" % i, "p%d" % (i + 1)) for i in range(k)]
    return Structure.from_named(Signature([("R", 2), ("E", 2)]), [
        ("E", t) for t in pairs] + [("R", t) for t in pairs[::5]])


def test_twin_occurrences_share_a_colour_at_every_round(monkeypatch):
    # R(v) and E(v) both have atomic type {R, E}, so RCR never splits them;
    # CR on vgrep and grep does, by each node's one relation label, which is
    # why the round correspondence holds on twin-free structures only.
    # Below SMALL_FACTS the overlap worklist runs, above it the slice kernel
    ran = []
    for name in ("_overlap_engine", "_kernel_engine"):
        engine = getattr(rcr, name)
        monkeypatch.setattr(rcr, name, lambda A, engine=engine, name=name: (
            ran.append(name), engine(A))[1])
    for k in (20, 120):
        A = twin_path(k)
        t = rcr_run(A)
        assert t.stable_round >= 5
        pos = {}   # vector -> its positions
        for k, ref in enumerate(A.tuple_refs):
            pos.setdefault(tuple(A.vector(ref)), []).append(k)
        twins = [p for p in pos.values() if len(p) == 2]
        assert len(twins) == A.counts["R"]
        for i in range(t.stable_round + 1):
            cols = t.colors_at(i)
            assert all(cols[a] == cols[b] for a, b in twins)
    assert ran == ["_overlap_engine", "_kernel_engine"]


def test_decode_holds_for_every_position_of_a_color():
    # a color's key is spelled out by any occurrence with that color, so
    # decoding from one representative is sound
    for A in (fixtures.a1(), fixtures.b2(), fixtures.slice_example()):
        t = rcr_run(A)
        vecs = [A.vector(r) for r in A.tuple_refs]
        for k, vec in enumerate(vecs):
            atp = tuple(sorted(A.atp(vec)))
            own = tuple(sorted(stp(vec, vec)))
            assert t.decode(t.colors_at(0)[k]) == ("base", atp, own)
            for i in range(1, t.stable_round + 1):
                prev = t.colors_at(i - 1).tolist()
                bag = sorted((tuple(sorted(stp(vec, w))), prev[b])
                             for b, w in enumerate(vecs) if stp(vec, w))
                assert t.decode(t.colors_at(i)[k]) == ("step", prev[k], tuple(bag))


def test_trace_csv_shape():
    t = rcr_run(fixtures.slice_example())
    out = io.StringIO()
    t.write_csv(out)
    lines = out.getvalue().strip().splitlines()
    assert lines[0] == "round,relation,tuple_index,color_id"
    assert len(lines) == 1 + (t.stable_round + 1) * fixtures.slice_example().size()


def counter_difference(trace, left, right):
    """first_difference as a Counter comparison of every round."""
    for i in range(trace.stable_round + 1):
        cols = trace.colors_at(i).tolist()
        hl = Counter(cols[k] for k in left)
        hr = Counter(cols[k] for k in right)
        if hl != hr:
            return i, min(c for c in hl.keys() | hr.keys() if hl[c] != hr[c])
    return None


def test_first_difference_equals_counter_comparison():
    # random pairs below and above the kernel's size cutoff, path/cycle
    # pairs with many rounds, and random position lists with repeats
    sig = Signature([("R", 3), ("E", 2)])
    rng = random.Random(11)
    pairs = []
    for s in range(40):
        n = rng.choice((6, 40, 200))
        A = generate.random_structure(sig, rng.randint(max(3, n // 4), n), {
            "R": rng.randint(1, n // 2), "E": rng.randint(1, n // 2)}, s)
        pairs.append((A, generate.random_structure_like(A, 100 + s)))
        pairs.append((A, A))
    for m, c in ((20, 5), (200, 50), (300, 100)):
        pairs.append((directed_path(m), directed_path(m, cycle=c)))
    for A, B in pairs:
        res = rcr_compare(A, B)
        got = None if res.round is None else (res.round, res.color)
        assert got == counter_difference(res.trace, res.pos["A"], res.pos["B"])
        # the compare trace may end at its verdict; the full run has every round
        full = rcr_run(res.union)
        n = res.union.size()
        for _ in range(3):
            left = [rng.randrange(n) for _ in range(rng.randint(0, n))]
            right = [rng.randrange(n) for _ in range(rng.randint(0, n))]
            assert (full.first_difference(left, right)
                    == counter_difference(full, left, right))
    # the CR trace shares the code
    for A, B in pairs[:20] + pairs[-3:]:
        U, off = multigraph_union(vgrep(A)[0], vgrep(B)[0])
        t = cr_run(U)
        left, right = range(off), range(off, U.n)
        assert t.first_difference(left, right) == counter_difference(t, left, right)
