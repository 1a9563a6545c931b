"""Condensed cross-oracle property suite behind `relcr check`.

Each check draws seeded random instances and confronts two independent
implementations; disagreement dumps the offending instance as a structure
file so it can be replayed through the other subcommands.
"""

from __future__ import annotations

from pathlib import Path

from . import acyclic, game, generate, homcount, logic, rcr, representations
from .core import Signature, disjoint_union, serialize_structure
from .cr import cr_run
from .rcr import rcr_compare, rcr_run

SIG = Signature([("R", 3), ("E", 2)])


def _dump(report_dir, name, structures):
    paths = []
    if report_dir is None:
        return paths
    d = Path(report_dir)
    d.mkdir(parents=True, exist_ok=True)
    for label, A in structures:
        p = d / ("%s_%s.struct" % (name, label))
        p.write_text(serialize_structure(A))
        paths.append(str(p))
    return paths


def check_homcounts(seed, cases, report_dir):
    """hom(C, A) by brute force, join-tree dynamic programming and the
    multigraph count must coincide for random acyclic C."""
    bad = []
    for s in generate.spawn_seeds(seed, cases):
        try:
            C, J = acyclic.random_acyclic(SIG, 3, s)
        except acyclic.InconsistentPrintError:
            continue
        A = generate.random_structure(SIG, 6, {"R": 4, "E": 4}, s ^ 1)
        brute = homcount.hom_bruteforce(C, A)
        dp = homcount.hom_acyclic(C, J, A)
        mg = homcount.hom_multigraph(
            representations.jtrep(C, J)[0], representations.grep(A)[0])
        if not brute == dp == mg:
            bad.append(("seed %d: brute=%d dp=%d multigraph=%d"
                        % (s, brute, dp, mg), [("C", C), ("A", A)]))
    return bad


def check_round_correspondence(seed, cases, report_dir):
    """RCR round i on tuples must equal plain refinement round 2i+1 on the
    w-nodes of the variable-gadget graph, and match refinement on the
    overlap graph round by round."""
    bad = []
    for s in generate.spawn_seeds(seed, cases):
        A = generate.random_structure(SIG, 5, {"R": 4, "E": 3}, s)
        if not A.tuple_refs:
            continue
        trace = rcr_run(A)
        gv, node_of_v, _ = representations.vgrep(A)
        cv = cr_run(gv)
        gg, node_of_g = representations.grep(A)
        cg = cr_run(gg)
        refs = A.tuple_refs
        for i in range(trace.stable_round + 1):
            rho = trace.colors_at(i)

            def classes(colors, node_of):
                out = {}
                for r in refs:
                    out.setdefault(colors[node_of[r]], []).append(r)
                return sorted(sorted(v) for v in out.values())

            want = sorted(
                sorted(refs[k] for k in block)
                for block in trace.partition_at(i))
            if classes(cv.colors_at(2 * i + 1), node_of_v) != want:
                bad.append(("seed %d: vgrep round %d" % (s, i), [("A", A)]))
                break
            if classes(cg.colors_at(i), node_of_g) != want:
                bad.append(("seed %d: grep round %d" % (s, i), [("A", A)]))
                break
    return bad


def published_rounds(trace):
    """(rounds, class_counts) of a trace, every round's ids as a list: the
    form reference_rounds returns."""
    return ([trace.colors_at(i).tolist() for i in range(trace.stable_round + 1)],
            trace.class_counts)


def check_kernel(seed, cases, report_dir):
    """The vectorized kernel must give the reference engine's color ids,
    round for round, whatever the size of the structure."""
    import random
    bad = []
    for s in generate.spawn_seeds(seed, cases):
        rng = random.Random(s)
        n = rng.randint(2, 8)
        sizes = {"R": rng.randint(0, 12), "E": rng.randint(1, min(12, n * n))}
        A = generate.random_structure(SIG, n, sizes, s)
        trace = rcr.RefinementTrace(A, *rcr.kernel_rounds(A))
        if published_rounds(trace) != rcr.reference_rounds(A):
            bad.append(("seed %d: kernel ids differ" % s, [("A", A)]))
    return bad


def check_graph_specialization(seed, cases, report_dir):
    """On graph-shaped structures the stable tuple partition restricted to
    the U loops must match textbook color refinement of the graph."""
    import itertools
    bad = []
    for s in generate.spawn_seeds(seed, cases):
        A = generate.random_graph_structure(6, 0.4, s)
        trace = rcr_run(A)
        stable = trace.colors_at(trace.stable_round)
        ours = {}
        for r in A.tuple_refs:
            if r.relation == "U":
                v = A.relations["U"][r.index][0]
                ours.setdefault(stable[A.tuple_pos[r]], set()).add(v)
        adj = {v: set() for v in range(A.n)}
        for (u, v) in A.relations.get("E", []):
            adj[u].add(v)
        col = {v: 0 for v in range(A.n)}
        for _ in range(A.n):
            key = {v: (col[v], tuple(sorted(col[w] for w in adj[v])))
                   for v in adj}
            ids = {k: i for i, k in enumerate(sorted(set(key.values())))}
            nxt = {v: ids[key[v]] for v in adj}
            if len(set(nxt.values())) == len(set(col.values())):
                break
            col = nxt
        theirs = {}
        for v, c in col.items():
            theirs.setdefault(c, set()).add(v)
        if sorted(map(sorted, ours.values())) != sorted(map(sorted, theirs.values())):
            bad.append(("seed %d" % s, [("G", A)]))
    return bad


def check_oracle_agreement(seed, cases, report_dir):
    """The refinement verdict, the game and the synthesized sentence must
    agree on random strictly-equal-size pairs."""
    bad = []
    for s in generate.spawn_seeds(seed, cases):
        A = generate.random_structure(SIG, 4, {"R": 2, "E": 2}, s)
        B = generate.random_structure_like(A, s ^ 1)
        cmp = rcr_compare(A, B)
        refined = cmp.round is not None
        won, _ = game.spoiler_wins(A, B)
        if refined != won:
            bad.append(("seed %d: rcr=%s game=%s" % (s, refined, won),
                        [("A", A), ("B", B)]))
            continue
        sent = logic.distinguishing_sentence(A, B)
        if (sent is not None) != refined:
            bad.append(("seed %d: rcr=%s sentence=%s"
                        % (s, refined, sent is not None), [("A", A), ("B", B)]))
            continue
        if sent is not None:
            f, side = sent
            on_a = logic.evaluate(f, A, {})
            on_b = logic.evaluate(f, B, {})
            hold, other = (on_a, on_b) if side == "A" else (on_b, on_a)
            if not (hold and not other):
                bad.append(("seed %d: sentence not separating" % s,
                            [("A", A), ("B", B)]))
    return bad


def check_slices(seed, cases, report_dir):
    """slice_bijection must map the slice set of one vector onto the slice
    set of the other exactly when their self-overlap patterns agree."""
    import random
    bad = []
    rng = random.Random(seed)
    for _ in range(cases):
        k = rng.randrange(1, 5)
        a = tuple(rng.randrange(4) for _ in range(k))
        b = tuple(rng.randrange(4) for _ in range(k))
        from .core import self_stp
        pi = representations.slice_bijection(a, b)
        if (pi is None) == (self_stp(a) == self_stp(b)):
            bad.append(("a=%s b=%s" % (a, b), []))
            continue
        if pi is not None:
            if sorted(pi) != sorted(representations.slices(a)):
                bad.append(("a=%s: domain mismatch" % (a,), []))
            elif sorted(pi.values()) != sorted(representations.slices(b)):
                bad.append(("a=%s b=%s: image mismatch" % (a, b), []))
    return bad


CHECKS = [
    ("homcounts", check_homcounts, 20),
    ("round-correspondence", check_round_correspondence, 25),
    ("graph-specialization", check_graph_specialization, 25),
    ("oracle-agreement", check_oracle_agreement, 12),
    ("slices", check_slices, 400),
    ("kernel", check_kernel, 100),
]


def run_all(seed=0, quick=False, report_dir=None):
    report = []
    for i, (name, fn, cases) in enumerate(CHECKS):
        if quick:
            cases = max(3, cases // 5)
        failures = fn(seed + i * 1000, cases, report_dir)
        entry = {"name": name, "ok": not failures, "cases": cases,
                 "seed": seed + i * 1000}
        if failures:
            entry["failures"] = [msg for msg, _ in failures[:5]]
            paths = []
            for j, (msg, structs) in enumerate(failures[:3]):
                paths += _dump(report_dir, "%s_%d" % (name, j), structs)
            entry["counterexamples"] = paths
        report.append(entry)
    return report
