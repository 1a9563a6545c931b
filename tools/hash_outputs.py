"""Hash the program's observable outputs, to show that a change keeps them
byte-identical.

Run from the repository root, at two versions of the code, and compare:

    PYTHONPATH=src python tools/hash_outputs.py [-v]

It prints one sha256 over, for every structure of a fixed corpus (the five
fixtures, seeded random R/3,E/2 structures with partners of equal size,
hubs, directed paths, structures with repeated entries and 5-ary tuples, a
shuffled 600-fact directed chain, and random, hub and chained-path
structures of 6-ary tuples above core.SMALL_FACTS facts; the pairs also
path(400) against path(300) plus cycle(100), and path(400) against a
relabelled, shuffled copy):

  refine      `relcr refine --csv` (stdout and CSV)
  export      `relcr export --rep R` DOT for all six representations
  cr-ids      every round's `cr_run` ids on each representation, and the
              final ids of `cr_run(g, trace=False)`
  rcr-ids     every round's `rcr_run` ids
  distinguish `relcr distinguish` on each pair, and the round and witness
              color of `rcr_distinguishes`
  game        `relcr game` on the pairs of at most 12 tuples a side
  homcount    `relcr homcount` of walks and seeded random acyclic patterns
              into each structure, once with `--join-tree` from `relcr gyo
              -o`, and a count above 2^63
  overlaps    `relcr validate --json` and `relcr gyo` of each structure,
              and `relcr synthesize` of every tuple of the disjoint union
              of each pair of at most 12 tuples a side
  parse       `relcr validate --json` of each structure written as JSON,
              and `relcr validate --json` and `relcr export --rep grep`
              (whose node names spell element ids) of each structure
              written with a `universe:` line, its facts shuffled across
              relations and some repeated; the exit code and stderr of
              `relcr validate` on every file of fixtures/malformed; and
              `relcr distinguish` of pairs of unequal relation sizes
  acyclic     `relcr gen --acyclic` and the join tree's text of
              `random_acyclic` for four signatures (twins and 5-ary
              tuples among them), 1 to 8 nodes and six seeds
  sentence    `distinguishing_sentence` (its s-expression and side, or the
              name of the error raised) of each pair of at most 12 tuples
              a side, and of 12 pairs of 40 tuples a side, one E fact
              moved, that the kernel tells apart at round 1
  eval        `relcr eval` of each of those sentences' s-expressions on
              both sides of its pair, and the exit code and stderr of
              `relcr eval` on one ill-formed formula per rule of check_wf

With -v it prints one hash per section as well.  hash_outputs.txt, next
to this file, holds that -v output, and tests/test_hash_outputs.py checks
the code against it; a change that moves an output on purpose rewrites it:

    PYTHONPATH=src python tools/hash_outputs.py -v > tools/hash_outputs.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import sys
import tempfile
from pathlib import Path

import numpy as np

from relcr import acyclic, cli, generate, logic, representations
from relcr.core import (Signature, Structure, disjoint_union, parse_signature,
                        parse_structure, serialize_structure,
                        structure_to_json)
from relcr.cr import cr_run
from relcr.rcr import rcr_distinguishes, rcr_run

ROOT = Path(__file__).resolve().parent.parent
SIG = Signature([("R", 3), ("E", 2)])
GAME_MAX_TUPLES = 12
ACYCLIC_SIGNATURES = ("R/3,E/2", "E/2,F/2,R/3", "P/5,E/2,F/2,R/3", "U/1,V/1,E/2")
# seed 2 gives up on U/1,V/1,E/2 at 8 nodes
ACYCLIC_SEEDS = (0, 1, 3, 4, 5, 7)
# one formula per well-formedness rule, each breaking only that rule, for
# the E/2, R/6 signature of fixtures/A1.struct
ILL_FORMED = (
    ("zero-count", "(geq 0 (vars y1) (guard E y1 y1) (eq y1 y1))"),
    ("unguarded-body", "(geq 1 (vars y1 y2) (guard E y1 y2) (atom E y3 y2))"),
    ("uncovered-variable", "(geq 1 (vars y1 y2 y3) (guard E y1 y2) (eq y1 y2))"),
    ("duplicate-variable", "(geq 1 (vars y1 y1) (guard E y1 y1) (eq y1 y1))"),
    ("unordered-variables", "(geq 1 (vars y2 y1) (guard E y1 y2) (eq y1 y2))"),
    ("unknown-relation", "(geq 1 (vars y1) (guard Z y1) (eq y1 y1))"),
    ("arity-mismatch", "(geq 1 (vars y1 y2 y3) (guard E y1 y2 y3) (eq y1 y2))"),
    ("unassigned-variable", "(and (atom E y1 y2) (eq y1 y2))"),
)


def hub(n, seed):
    rng = random.Random(seed)
    facts = [("E", ("h", "l%d" % rng.randrange(n))) for _ in range(n // 2)]
    facts += [("R", ("h", "l%d" % rng.randrange(n), "l%d" % rng.randrange(n)))
              for _ in range(n - n // 2)]
    return Structure.from_named(SIG, facts)


def path(n):
    facts = [("E", ("p%d" % i, "p%d" % (i + 1))) for i in range(n)]
    facts += [("R", ("p%d" % i, "p%d" % (i + 1), "p%d" % i))
              for i in range(0, n, 3)]
    return Structure.from_named(SIG, facts)


def chain(n, seed):
    """A directed E chain of n facts, listed in shuffled order."""
    facts = [("E", ("c%d" % i, "c%d" % (i + 1))) for i in range(n)]
    random.Random(seed).shuffle(facts)
    return Structure.from_named(Signature([("E", 2)]), facts)


def path_cycle(n, cycle, seed=None):
    """A directed E path of n - cycle facts and a directed cycle of `cycle`
    facts on fresh elements; with a seed, relabelled and shuffled."""
    pairs = [(i, i + 1) for i in range(n - cycle)]
    pairs += [(n + 1 + i, n + 1 + (i + 1) % cycle) for i in range(cycle)]
    if seed is not None:
        rng = random.Random(seed)
        image = list(range(2 * n + 2))
        rng.shuffle(image)
        pairs = [(image[x], image[y]) for x, y in pairs]
        rng.shuffle(pairs)
    return Structure.from_named(Signature([("E", 2)]), [
        ("E", ("v%d" % x, "v%d" % y)) for x, y in pairs])


def wide(n, seed):
    sig = Signature([("P", 5), ("E", 2)])
    return generate.random_structure(sig, 6, {"P": n, "E": n // 2}, seed)


def six_ary(shape, n, seed):
    """n facts, half of them Q/6, half E/2: "random" over n elements, "hub"
    with element h first in every fact, or "chain", each Q fact sharing its
    last element with the next one's first and E facts along the chain."""
    rng = random.Random(seed)
    x = lambda: "x%d" % rng.randrange(n)  # noqa: E731
    if shape == "chain":
        q = [["p%d" % (5 * i + j) for j in range(6)] for i in range(n // 2)]
        e = [["p%d" % i, "p%d" % (i + 1)] for i in range(n - n // 2)]
    else:
        first = (lambda: "h") if shape == "hub" else x
        q = [[first()] + [x() for _ in range(5)] for _ in range(n // 2)]
        e = [[first(), x()] for _ in range(n - n // 2)]
    return Structure.from_named(Signature([("Q", 6), ("E", 2)]),
                                [("Q", t) for t in q] + [("E", t) for t in e])


def corpus():
    """(name, structure) singles and (name, A, B) pairs."""
    singles = [(p.stem, parse_structure(p.read_text()))
               for p in sorted((ROOT / "fixtures").glob("*.struct"))]
    pairs = [("A1-B1", singles[0][1], singles[2][1]),
             ("A2-B2", singles[1][1], singles[3][1])]
    for s in range(30):
        rng = random.Random(s)
        sizes = {"R": rng.randint(2, 5), "E": rng.randint(2, 5)}
        A = generate.random_structure(SIG, rng.randint(3, 6), sizes, s)
        B = generate.random_structure_like(A, 1000 + s)
        singles.append(("random-%d" % s, A))
        pairs.append(("random-%d" % s, A, B))
    for s, n in enumerate((80, 400)):
        A = generate.random_structure(SIG, n // 2, {"R": n // 2, "E": n // 2}, s)
        singles.append(("random-%d-tuples" % n, A))
        pairs.append(("random-%d-tuples" % n, A,
                      generate.random_structure_like(A, 2000 + s)))
    for n in (40, 120):
        singles.append(("hub-%d" % n, hub(n, n)))
        pairs.append(("hub-%d" % n, hub(n, n), hub(n, n + 1)))
        singles.append(("path-%d" % n, path(n)))
    repeated = generate.random_structure(SIG, 2, {"R": 6, "E": 3}, 7)
    singles.append(("repeated", repeated))
    singles.append(("five-ary", wide(70, 3)))
    singles.append(("five-ary-small", wide(6, 4)))
    singles.append(("chain-600", chain(600, 5)))
    for shape, n in (("random", 100), ("hub", 130), ("chain", 90)):
        singles.append(("six-ary-%s" % shape, six_ary(shape, n, 8)))
    pairs.append(("path-cycle-400", path_cycle(400, 0), path_cycle(400, 100)))
    pairs.append(("path-iso-400", path_cycle(400, 0), path_cycle(400, 0, 6)))
    return singles, pairs


def rewired(seed):
    """A random structure of 20 R and 20 E facts, and a copy in which one E
    fact (x, y), x != y, becomes (x, z) for another element z."""
    A = generate.random_structure(SIG, 20, {"R": 20, "E": 20}, seed)
    facts = [(r.relation, tuple(A.element_names[x] for x in A.vector(r)))
             for r in A.tuple_refs]
    rng = random.Random(seed)
    k = rng.choice([k for k, (rel, (x, *y)) in enumerate(facts)
                    if rel == "E" and y != [x]])
    x, y = facts[k][1]
    facts[k] = ("E", (x, rng.choice([z for z in A.element_names if z not in (x, y)
                                     and ("E", (x, z)) not in facts])))
    return A, Structure.from_named(SIG, facts)


def sentence(A, B):
    """The s-expression and side of distinguishing_sentence, or the name of
    the error it raises."""
    try:
        got = logic.distinguishing_sentence(A, B)
    except (ValueError, logic.SynthesisBudgetError) as e:   # FormulaError too
        return type(e).__name__
    if got is None:
        return "None\n"
    return "%s\n%s\n" % (logic.to_sexp(got[0]), got[1])


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return "%s\n%s\n%s\n" % (code, out.getvalue(), err.getvalue())


def walk(sig, k):
    return Structure.from_named(sig, [("E", (str(i), str(i + 1)))
                                      for i in range(k)])


def hom_patterns(A, seed):
    """(name, C): acyclic patterns over A's signature, walks and random."""
    if A.signature.arity.get("E") == 2:
        for k in (1, 3, 8):
            yield "walk-%d" % k, walk(A.signature, k)
    for k in (2, 4, 6):
        yield "acyclic-%d" % k, acyclic.random_acyclic(A.signature, k, seed + k)[0]


def big_count():
    """A 40-leaf out-star and the complete digraph with loops on 30
    elements: 30^41 homomorphisms."""
    sig = Signature([("E", 2)])
    star = Structure.from_named(sig, [("E", ("c", "l%d" % i)) for i in range(40)])
    complete = Structure.from_named(sig, [("E", (str(a), str(b)))
                                          for a in range(30) for b in range(30)])
    return star, complete


def ids_bytes(trace):
    """Every round's ids of a refinement trace."""
    return b"".join(np.asarray(trace.colors_at(i), dtype=np.int64).tobytes()
                    + b"|" for i in range(trace.stable_round + 1))


def encodings(A):
    yield "grep", representations.grep(A)[0]
    yield "vgrep", representations.vgrep(A)[0]
    yield "incidence", representations.incidence(A)
    yield "enriched-gaifman", representations.enriched_gaifman(A)
    yield "enriched-incidence", representations.enriched_incidence(A)
    J = acyclic.gyo_join_tree(A)
    if J is not None:
        yield "jtrep", representations.jtrep(A, J)[0]


def declared(A, seed):
    """A's text with a `universe:` line naming its elements in reverse, its
    facts shuffled across relations and every fifth one repeated."""
    rng = random.Random(seed)
    facts = serialize_structure(A).splitlines()[1:]
    facts += facts[::5]
    rng.shuffle(facts)
    universe = "universe: " + ", ".join(reversed(A.element_names))
    return "\n".join(["signature: " + ", ".join("%s/%d" % s for s in
                                                 A.signature.symbols),
                      universe] + facts) + "\n"


def plus_one(A):
    """A with one more fact of its first relation, on a fresh element."""
    name, arity = A.signature.symbols[0]
    facts = [(r.relation, [A.element_names[x] for x in A.vector(r)])
             for r in A.tuple_refs]
    return Structure.from_named(A.signature, facts + [
        (name, ["fresh"] + [A.element_names[0]] * (arity - 1))])


def sections(work):
    singles, pairs = corpus()
    files = {}
    for name, A in singles:
        files[name] = work / (name + ".struct")
        files[name].write_text(serialize_structure(A))
    for name, A, B in pairs:
        for side, S in (("a", A), ("b", B)):
            files[name + side] = work / ("%s.%s.struct" % (name, side))
            files[name + side].write_text(serialize_structure(S))

    out = {k: hashlib.sha256() for k in (
        "refine", "export", "cr-ids", "rcr-ids", "distinguish", "game",
        "homcount", "overlaps", "parse", "acyclic", "sentence", "eval")}
    csv = work / "trace.csv"
    for name, A in singles:
        f = str(files[name])
        out["refine"].update(run_cli("refine", f, "--csv", str(csv)).encode())
        out["refine"].update(csv.read_bytes())
        for rep in cli.REPRESENTATIONS:
            out["export"].update(run_cli("export", f, "--rep", rep).encode())
        for rep, g in encodings(A):
            out["cr-ids"].update(rep.encode() + ids_bytes(cr_run(g)))
            out["cr-ids"].update(cr_run(g, trace=False).colors.tobytes())
        out["rcr-ids"].update(ids_bytes(rcr_run(A)))
        out["overlaps"].update(run_cli("validate", f, "--json").encode())
        out["overlaps"].update(run_cli("gyo", f).encode())
    for k, (name, A) in enumerate(singles):
        for cname, C in hom_patterns(A, 10 * k):
            c = work / ("%s.%s.struct" % (name, cname))
            c.write_text(serialize_structure(C))
            out["homcount"].update(run_cli("homcount", str(c),
                                           str(files[name])).encode())
    star, complete = big_count()
    jobs = [(star, complete),
            (acyclic.random_acyclic(SIG, 8, 1)[0], dict(singles)["repeated"])]
    for k, (C, A) in enumerate(jobs):
        c, a, jt = (work / ("hom-%d.%s" % (k, ext)) for ext in ("c", "a", "jt"))
        c.write_text(serialize_structure(C))
        a.write_text(serialize_structure(A))
        out["homcount"].update(run_cli("gyo", str(c), "-o", str(jt)).encode())
        for extra in ((), ("--join-tree", str(jt))):
            out["homcount"].update(run_cli("homcount", str(c), str(a),
                                           *extra).encode())
    for name, A, B in pairs:
        a, b = str(files[name + "a"]), str(files[name + "b"])
        out["distinguish"].update(run_cli("distinguish", a, b).encode())
        out["distinguish"].update(repr(rcr_distinguishes(A, B)).encode())
        if max(A.size(), B.size()) <= GAME_MAX_TUPLES:
            out["game"].update(run_cli("game", a, b).encode())
            U, _ = disjoint_union(A, B)
            u = work / ("%s.union.struct" % name)
            u.write_text(serialize_structure(U))
            for r in U.tuple_refs:
                out["overlaps"].update(run_cli(
                    "synthesize", str(u), "--tuple", "%s,%d" % r).encode())
    for k, (name, A) in enumerate(singles):
        j, d = work / (name + ".json"), work / (name + ".declared.struct")
        j.write_text(structure_to_json(A))
        d.write_text(declared(A, k))
        out["parse"].update(run_cli("validate", str(j), "--json").encode())
        out["parse"].update(run_cli("validate", str(d), "--json").encode())
        out["parse"].update(run_cli("export", str(d), "--rep", "grep").encode())
    for path in sorted((ROOT / "fixtures" / "malformed").iterdir()):
        out["parse"].update(run_cli("validate", str(path)).replace(
            str(ROOT), "<root>").encode())
    for name, A, _ in pairs:
        a, b = str(files[name + "a"]), work / ("%s.plus-one.struct" % name)
        b.write_text(serialize_structure(plus_one(A)))
        out["parse"].update(run_cli("distinguish", a, str(b)).encode())
    for sig in ACYCLIC_SIGNATURES:
        for nodes in range(1, 9):
            for seed in ACYCLIC_SEEDS:
                out["acyclic"].update(run_cli(
                    "gen", "--acyclic", "--signature", sig, "--nodes",
                    str(nodes), "--seed", str(seed)).encode())
                _, J = acyclic.random_acyclic(parse_signature(sig), nodes, seed)
                out["acyclic"].update(J.to_text().encode())
    small = [(A, B) for _, A, B in pairs
             if max(A.size(), B.size()) <= GAME_MAX_TUPLES]
    for k, (A, B) in enumerate(small + [rewired(s) for s in range(12)]):
        text = sentence(A, B)
        out["sentence"].update(text.encode())
        if not text.startswith("("):
            continue
        f = work / ("sentence-%d.sexp" % k)
        f.write_text(text.split("\n")[0] + "\n")
        for side, S in (("a", A), ("b", B)):
            s = work / ("sentence-%d.%s.struct" % (k, side))
            s.write_text(serialize_structure(S))
            out["eval"].update(run_cli("eval", str(f), str(s)).encode())
    for name, text in ILL_FORMED:
        f = work / (name + ".sexp")
        f.write_text(text + "\n")
        out["eval"].update(run_cli("eval", str(f), str(files["A1"])).replace(
            str(work), "<work>").encode())
    return {k: h.hexdigest() for k, h in out.items()}


def overall(parts):
    """The one hash over the section hashes, in section order."""
    return hashlib.sha256("".join(parts.values()).encode()).hexdigest()


def main(argv):
    with tempfile.TemporaryDirectory() as tmp:
        parts = sections(Path(tmp))
    if "-v" in argv:
        for k, v in parts.items():
            print("%-12s %s" % (k, v))
    print(overall(parts))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
