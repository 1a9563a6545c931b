"""Condensed cross-oracle property suite behind `relcr check`.

Each check confronts two independent implementations on a list of instances
and returns (message, structures) per disagreement, naming the instance by
its index; `relcr check` dumps the structures so that they can be replayed.
CHECKS pairs each check with the seeded generator of its instances; the
acceptance suite passes its own corpora to the same checks.
"""

from __future__ import annotations

import random
from pathlib import Path

from . import acyclic, game, generate, homcount, logic, rcr, representations
from .core import Signature, self_stp, serialize_structure, stp
from .cr import cr_run
from .rcr import rcr_distinguishes, rcr_run

SIG = Signature([("R", 3), ("E", 2)])
SIG6 = Signature([("Q", 6), ("E", 2)])


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


def hom_triples(seed, cases):
    """(C, J, A): a random acyclic C with its join tree, a random A."""
    return [(*acyclic.random_acyclic(SIG, 3, s),
             generate.random_structure(SIG, 6, {"R": 4, "E": 4}, s ^ 1))
            for s in generate.spawn_seeds(seed, cases)]


def check_homcounts(triples):
    """hom(C, A) by brute force, join-tree dynamic programming and the
    multigraph count must coincide for acyclic C."""
    bad = []
    for case, (C, J, A) in enumerate(triples):
        brute = homcount.hom_bruteforce(C, A)
        dp = homcount.hom_acyclic(C, J, A)
        mg = homcount.hom_multigraph(
            representations.jtrep(C, J)[0], representations.grep(A)[0])
        if not brute == dp == mg:
            bad.append(("case %d: brute=%d dp=%d multigraph=%d"
                        % (case, brute, dp, mg), [("C", C), ("A", A)]))
    return bad


def random_structures(seed, cases):
    return [generate.random_structure(SIG, 5, {"R": 4, "E": 3}, s)
            for s in generate.spawn_seeds(seed, cases)]


ENCODINGS = {"vgrep": (representations.vgrep, 2, 1),
             "grep": (representations.grep, 1, 0)}


def check_round_correspondence(structures, encodings=("vgrep", "grep")):
    """RCR round i on tuples must equal plain refinement round 2i+1 on the
    w-nodes of the variable-gadget graph (vgrep), and round i on the overlap
    graph (grep); in both, the node of Tup position k is k.  One failure
    per structure and encoding names the first round that differs.

    The structures must be twin-free: no vector in two relations of one
    arity.  RCR gives such twin occurrences one class at every round (both
    have the atomic type of both relations), while each encoding gives each
    occurrence its own node, labelled by its one relation, and CR splits
    them at round 0."""
    bad = []
    for case, A in enumerate(structures):
        trace = rcr_run(A)
        nodes = range(A.size())
        for name in encodings:
            encode, step, shift = ENCODINGS[name]
            colors = cr_run(encode(A)[0])
            for i in range(trace.stable_round + 1):
                if (colors.partition_at(step * i + shift, nodes)
                        != trace.partition_at(i)):
                    bad.append(("case %d: %s round %d" % (case, name, i),
                                [("A", A)]))
                    break
    return bad


def published_rounds(trace):
    """(rounds, class_counts) of a trace, every round's ids as a list: the
    form reference_rounds returns."""
    return ([trace.colors_at(i).tolist() for i in range(trace.stable_round + 1)],
            trace.class_counts)


def kernel_structures(seed, cases):
    """Random R/3,E/2 structures and, every fourth case, Q/6,E/2 ones; about
    one Q/6,E/2 case in seven shares a set of 4 elements or more."""
    out = []
    for k, s in enumerate(generate.spawn_seeds(seed, cases)):
        rng = random.Random(s)
        if k % 4 == 3:
            n = rng.randint(6, 14)
            sizes = {"Q": rng.randint(1, 4), "E": rng.randint(1, 12)}
            out.append(generate.random_structure(SIG6, n, sizes, s))
            continue
        n = rng.randint(2, 8)
        sizes = {"R": rng.randint(0, 12), "E": rng.randint(1, min(12, n * n))}
        out.append(generate.random_structure(SIG, n, sizes, s))
    return out


def check_kernel(structures):
    """The vectorized kernel must give the reference engine's color ids,
    round for round, whatever the size of the structure."""
    bad = []
    for case, A in enumerate(structures):
        base, _, rounds = rcr._kernel_engine(A)
        trace = rcr.RefinementTrace(A, base, *rounds(A.size()))
        if published_rounds(trace) != rcr.reference_rounds(A):
            bad.append(("case %d: kernel ids differ" % case, [("A", A)]))
    return bad


def random_graphs(seed, cases):
    return [generate.random_graph_structure(6, 0.4, s)
            for s in generate.spawn_seeds(seed, cases)]


def check_graph_specialization(graphs):
    """On graph-shaped structures, as generate.random_graph_structure builds
    them, the stable tuple partition restricted to the U loops must match
    textbook color refinement of the graph."""
    bad = []
    for case, A in enumerate(graphs):
        trace = rcr_run(A)
        stable = trace.colors_at(trace.stable_round)
        ours = {A.vector(r)[0]: stable[k]
                for k, r in enumerate(A.tuple_refs) if r.relation == "U"}
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
        # two colorings partition alike iff pairing them adds no class
        if not (len(set(ours.values())) == len(set(col.values()))
                == len({(ours[v], col[v]) for v in col})):
            bad.append(("case %d" % case, [("G", A)]))
    return bad


def oracle_pairs(seed, cases):
    out = []
    for s in generate.spawn_seeds(seed, cases):
        A = generate.random_structure(SIG, 4, {"R": 2, "E": 2}, s)
        out.append((A, generate.random_structure_like(A, s ^ 1)))
    return out


def check_oracle_agreement(pairs):
    """The refinement verdict, the game and the synthesized sentence must
    agree, and the sentence must hold on its side only."""
    bad = []
    for case, (A, B) in enumerate(pairs):
        refined = rcr_distinguishes(A, B) is not None
        won, _ = game.spoiler_wins(A, B)
        sent = logic.distinguishing_sentence(A, B) if refined == won else None
        if refined != won:
            why = "rcr=%s game=%s" % (refined, won)
        elif (sent is not None) != refined:
            why = "rcr=%s sentence=%s" % (refined, sent is not None)
        elif sent is not None and (
                logic.evaluate(sent[0], A, {}) != (sent[1] == "A")
                or logic.evaluate(sent[0], B, {}) != (sent[1] == "B")):
            why = "sentence not separating"
        else:
            continue
        bad.append(("case %d: %s" % (case, why), [("A", A), ("B", B)]))
    return bad


def slice_pairs(seed, cases, length=4, values=4):
    """(a, b, pick): vectors a and b of one random length up to `length`
    over `values` elements; when their self types agree, pick is two slices
    of a drawn from the same stream, else None."""
    rng = random.Random(seed)
    out = []
    for _ in range(cases):
        k = rng.randint(1, length)
        a = tuple(rng.randrange(values) for _ in range(k))
        b = tuple(rng.randrange(values) for _ in range(k))
        pick = None
        if self_stp(a) == self_stp(b):
            sa = representations.slices(a)
            pick = rng.choice(sa), rng.choice(sa)
        out.append((a, b, pick))
    return out


def check_slices(pairs):
    """The slice lemmas: stp(a, b) is empty iff a and b share no element;
    distinct slices s of a have distinct stp(a, s); slice_bijection(a, b)
    exists iff a and b have one self type, and then maps the slices of a one
    to one onto those of b, keeping length, stp and, on the picked slices,
    inclusion."""
    bad = []
    for case, (a, b, pick) in enumerate(pairs):
        sa = representations.slices(a)
        pi = representations.slice_bijection(a, b)
        if bool(stp(a, b)) != bool(set(a) & set(b)):
            why = "stp and shared elements disagree"
        elif len({stp(a, s) for s in sa}) != len(sa):
            why = "two slices of a with one stp"
        elif (pi is None) == (self_stp(a) == self_stp(b)):
            why = "bijection existence"
        elif pi is None:
            continue
        elif (sorted(pi) != sorted(sa)
              or sorted(pi.values()) != sorted(representations.slices(b))):
            why = "not onto the slices of b"
        elif any(stp(a, s) != stp(b, t) or len(s) != len(t)
                 for s, t in pi.items()):
            why = "stp or length not kept"
        elif pick and ((set(pick[0]) <= set(pick[1]))
                       != (set(pi[pick[0]]) <= set(pi[pick[1]]))):
            why = "inclusion not kept"
        else:
            continue
        bad.append(("case %d: a=%s b=%s: %s" % (case, a, b, why), []))
    return bad


CHECKS = [
    ("homcounts", check_homcounts, hom_triples, 20),
    ("round-correspondence", check_round_correspondence, random_structures, 25),
    ("graph-specialization", check_graph_specialization, random_graphs, 25),
    ("oracle-agreement", check_oracle_agreement, oracle_pairs, 12),
    ("slices", check_slices, slice_pairs, 400),
    ("kernel", check_kernel, kernel_structures, 100),
]


def run_all(seed=0, quick=False, report_dir=None):
    report = []
    for i, (name, check, instances, cases) in enumerate(CHECKS):
        if quick:
            cases = max(3, cases // 5)
        failures = check(instances(seed + i * 1000, cases))
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
