"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a single pass/fail line
(run pytest with -s or check captured output).  Random corpora are seeded,
so every run exercises the same instances.
"""

import gc
import itertools
import math
import random
import time

from relcr import checks, fixtures, generate, logic, representations
from relcr.acyclic import gyo_join_tree, random_acyclic
from relcr.core import Signature, Structure
from relcr.cr import cr_distinguishes
from relcr.homcount import hom_acyclic, hom_bruteforce
from relcr.rcr import rcr_compare, rcr_distinguishes

SIG3 = Signature([("R", 3), ("E", 2)])
SIG4 = Signature([("Q", 4), ("R", 3), ("E", 2)])


def report(num, ok, detail):
    print("criterion %d: %s — %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d: %s" % (num, detail)


def test_criterion_01_cycle_fixtures():
    t0 = time.monotonic()
    res = rcr_compare(fixtures.a1(), fixtures.b1())
    ha0 = res.side_histogram(0, "A")
    hb0 = res.side_histogram(0, "B")
    ha1 = res.side_histogram(1, "A")
    hb1 = res.side_histogram(1, "B")
    ok = (res.round == 1
          and ha0 == hb0
          and sorted(ha0.values()) == [1, 6]
          and sorted(ha1.values()) == [1] * 7
          and sorted(hb1.values()) == [1] * 7)
    dt = time.monotonic() - t0
    ok = ok and dt < 1.0
    report(1, ok, "distinguished in round %s, %.3fs" % (res.round, dt))


def test_criterion_02_overlap_fixtures():
    t0 = time.monotonic()
    A2, B2 = fixtures.a2(), fixtures.b2()
    rcr = rcr_distinguishes(A2, B2)
    eg = cr_distinguishes(representations.enriched_gaifman(A2),
                          representations.enriched_gaifman(B2))
    ei = cr_distinguishes(representations.enriched_incidence(A2),
                          representations.enriched_incidence(B2))
    dt = time.monotonic() - t0
    ok = rcr is not None and eg is None and ei is None and dt < 1.0
    report(2, ok, "rcr=%s enriched-gaifman=%s enriched-incidence=%s, %.3fs"
           % (rcr, eg, ei, dt))


def test_criterion_03_fixture_hom_counts():
    t0 = time.monotonic()
    A1, B1 = fixtures.a1(), fixtures.b1()
    J = gyo_join_tree(A1)
    ab = (hom_bruteforce(A1, B1), hom_acyclic(A1, J, B1))
    aa = (hom_bruteforce(A1, A1), hom_acyclic(A1, J, A1))
    dt = time.monotonic() - t0
    ok = ab == (0, 0) and aa[0] == aa[1] >= 1 and dt < 5.0
    report(3, ok, "hom(A1,B1)=%s hom(A1,A1)=%s, %.3fs" % (ab, aa, dt))


def test_criterion_04_three_hom_engines():
    t0 = time.monotonic()
    rng = random.Random(40)
    triples = []
    for _ in range(300):
        C, J = random_acyclic(SIG3, rng.randint(1, 4), rng.getrandbits(40))
        A = generate.random_structure(
            SIG3, rng.randint(3, 8),
            {"R": rng.randint(1, 4), "E": rng.randint(1, 4)},
            rng.getrandbits(40))
        triples.append((C, J, A))
    mismatches = len(checks.check_homcounts(triples))
    dt = time.monotonic() - t0
    ok = mismatches == 0 and dt < 60.0
    report(4, ok, "300 triples, %d mismatches, %.1fs" % (mismatches, dt))


def _random_sig4(rng):
    n = rng.randint(3, 12)
    total = rng.randint(2, 30)
    q = rng.randint(0, min(4, total))
    r = rng.randint(0, min(8, total - q))
    e = min(max(1, total - q - r), n * n)
    return generate.random_structure(
        SIG4, n, {"Q": q, "R": r, "E": e}, rng.getrandbits(40))


def _round_mismatches(encoding):
    """Structures of the criterion-5 corpus (500, seed 50) whose RCR rounds
    differ from CR on the encoding."""
    rng = random.Random(50)
    corpus = [_random_sig4(rng) for _ in range(500)]
    return len(checks.check_round_correspondence(corpus, (encoding,)))


def test_criterion_05_vgrep_round_correspondence():
    t0 = time.monotonic()
    mismatches = _round_mismatches("vgrep")
    dt = time.monotonic() - t0
    ok = mismatches == 0 and dt < 120.0
    report(5, ok, "500 structures, %d mismatches, %.1fs" % (mismatches, dt))


def test_criterion_06_grep_correspondence_and_graph_cr():
    t0 = time.monotonic()
    mismatches = _round_mismatches("grep")
    rng = random.Random(60)
    graphs = []
    for _ in range(200):
        n = rng.randint(2, 25)
        graphs.append(generate.random_graph_structure(
            n, rng.uniform(0.1, 0.7), rng.getrandbits(40)))
    graph_mismatches = len(checks.check_graph_specialization(graphs))
    dt = time.monotonic() - t0
    ok = mismatches == 0 and graph_mismatches == 0 and dt < 60.0
    report(6, ok, "grep %d mismatches, graphs %d mismatches, %.1fs"
           % (mismatches, graph_mismatches, dt))


def _random_pair(rng):
    na = {"R": rng.randint(0, 3), "E": rng.randint(1, 3)}
    A = generate.random_structure(SIG3, rng.randint(3, 6), na,
                                  rng.getrandbits(40))
    if rng.random() < 0.7:
        B = generate.random_structure_like(A, rng.getrandbits(40))
    else:
        nb = {"R": rng.randint(0, 3), "E": rng.randint(1, 3)}
        B = generate.random_structure(SIG3, rng.randint(3, 6), nb,
                                      rng.getrandbits(40))
    return A, B


def test_criterion_07_three_way_agreement():
    t0 = time.monotonic()
    rng = random.Random(70)
    pairs = [_random_pair(rng) for _ in range(200)]
    violations = len(checks.check_oracle_agreement(pairs))
    dt = time.monotonic() - t0
    ok = violations == 0 and dt < 600.0
    report(7, ok, "200 pairs, %d violations, %.1fs" % (violations, dt))


def test_criterion_08_color_formulas():
    t0 = time.monotonic()
    rng = random.Random(80)
    mismatches = 0
    cases = 0
    while cases < 200:
        A = generate.random_structure(
            SIG3, rng.randint(3, 6),
            {"R": rng.randint(0, 3), "E": rng.randint(1, 3)},
            rng.getrandbits(40))
        B = generate.random_structure_like(A, rng.getrandbits(40))
        res = rcr_compare(A, B)
        ctx = logic.SynthesisContext(res.trace)
        ev = logic.Evaluator(res.union)
        i = rng.randint(0, res.trace.stable_round)
        cols = res.trace.colors_at(i)
        c = rng.choice(sorted(set(cols)))
        k = ctx.color_arity(c)
        xv = tuple("y%d" % j for j in range(1, k + 1))
        f = ctx.formula(i, c, xv)
        for p, ref in enumerate(res.union.tuple_refs):
            vec = res.union.vector(ref)
            if len(vec) != k:
                continue
            if ev.holds(f, dict(zip(xv, vec))) != (cols[p] == c):
                mismatches += 1
                break
        cases += 1
    dt = time.monotonic() - t0
    ok = mismatches == 0 and dt < 600.0
    report(8, ok, "200 colors, %d mismatches, %.1fs" % (mismatches, dt))


def _sub_structure(A, refs):
    facts = [(r.relation, [A.element_names[x] for x in A.vector(r)])
             for r in refs]
    return Structure.from_named(A.signature, facts)


def _connected(A):
    """Every tuple reaches every other through shared elements."""
    if A.size() == 0:
        return False
    starts, other, _, _ = A.overlaps
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in other[starts[v]:starts[v + 1]]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == A.size()


def _candidate_patterns(A, B, rng, budget=40):
    for side in (A, B):
        refs = side.tuple_refs
        for size in (1, 2, 3):
            for combo in itertools.combinations(refs, size):
                C = _sub_structure(side, combo)
                if _connected(C) and gyo_join_tree(C) is not None:
                    yield C
    for _ in range(budget):
        yield random_acyclic(SIG3, rng.randint(1, 5), rng.getrandbits(40))[0]


def test_criterion_09_hom_counts_vs_refinement():
    t0 = time.monotonic()
    rng = random.Random(90)
    # forward: a separating acyclic connected pattern implies refinement
    # tells the pair apart
    forward = 0
    violations = 0
    while forward < 100:
        A, B = _random_pair(rng)
        C, J = random_acyclic(SIG3, rng.randint(1, 5), rng.getrandbits(40))
        if hom_bruteforce(C, A) != hom_bruteforce(C, B):
            forward += 1
            if rcr_distinguishes(A, B) is None:
                violations += 1

    # converse: budgeted search for a separating pattern; misses are logged,
    # not failed (the search space is unbounded in principle)
    hits = 0
    total = 0
    misses = []
    while total < 50:
        A, B = _random_pair(rng)
        if A.size() > 5 or B.size() > 5:
            continue
        if rcr_distinguishes(A, B) is None:
            continue
        total += 1
        for C in _candidate_patterns(A, B, rng):
            if hom_bruteforce(C, A) != hom_bruteforce(C, B):
                hits += 1
                break
        else:
            misses.append((A, B))
    for A, B in misses:
        print("criterion 9 miss: no separating pattern found for %r / %r"
              % (A, B))
    rate = hits / total
    dt = time.monotonic() - t0
    ok = violations == 0 and rate >= 0.9
    report(9, ok, "forward 100/100 ok=%s, converse hit-rate %.0f%% (%d/%d), %.1fs"
           % (violations == 0, 100 * rate, hits, total, dt))


def test_criterion_10_scaling():
    from relcr.cli import bench_once
    t0 = time.monotonic()
    sizes = [1000, 2000, 4000, 8000, 16000, 32000, 64000, 100000]
    bench_once(1000, 7)  # warm-up
    times = []
    for n in sizes:
        # the small sizes run in milliseconds where scheduler jitter swamps
        # the signal; take the best of several collected runs
        reps = 7 if n <= 8000 else 3
        best = math.inf
        for _ in range(reps):
            gc.collect()
            best = min(best, bench_once(n, 7))
        times.append(best)
    ratios = [times[i + 1] / times[i] for i in range(len(times) - 1)]
    dt = time.monotonic() - t0
    ok = all(r <= 2.6 for r in ratios) and dt < 300.0
    report(10, ok, "ratios %s, best %s s, %.0fs"
           % (["%.2f" % r for r in ratios], ["%.4f" % t for t in times], dt))


def test_criterion_11_slice_fixture():
    A = fixtures.slice_example()
    g, node_of, slice_node_of = representations.vgrep(A)
    name = {i: n for n, i in enumerate(A.element_names)}
    want = {("1",), ("2",), ("3",), ("1", "2"), ("2", "1"), ("2", "3"),
            ("3", "2")}
    got = {tuple(A.element_names[x] for x in s) for s in slice_node_of}
    ok = g.n == 9 and got == want
    report(11, ok, "vgrep has %d nodes, slice set %s" % (g.n, sorted(got)))


def test_criterion_12_slice_lemmas():
    t0 = time.monotonic()
    violations = len(checks.check_slices(
        checks.slice_pairs(120, 10 ** 4, length=5, values=5)))
    dt = time.monotonic() - t0
    ok = violations == 0 and dt < 30.0
    report(12, ok, "10^4 instances, %d violations, %.1fs" % (violations, dt))
