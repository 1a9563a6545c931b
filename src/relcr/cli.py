"""Command-line front end.

Exit codes: 0 success, 1 domain error (message names the failing
precondition), 2 usage error.  All machine output is CSV, DOT, JSON or the
structure/formula text formats.  Color ids in reports are run-local: they
number the classes of one refinement run and are not comparable across
invocations.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

from . import acyclic, fixtures, game, generate, homcount, logic, representations
from .core import (ParseError, Structure, StructureError, parse_structure,
                   serialize_structure, structure_to_json)
from .cr import cr_run
from .rcr import rcr_distinguishes, rcr_run


class DomainError(Exception):
    pass


def _load(path: str, pad=False) -> Structure:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as e:
        raise DomainError("cannot read %s: %s" % (path, e))
    fmt = "json" if p.suffix == ".json" else "text"
    try:
        return parse_structure(text, fmt=fmt, pad_universe=pad)
    except ParseError as e:
        raise DomainError("%s: %s" % (path, e))


def _load_join_tree(path: str) -> acyclic.JoinTree:
    try:
        return acyclic.JoinTree.from_text(Path(path).read_text())
    except OSError as e:
        raise DomainError("cannot read %s: %s" % (path, e))
    except ValueError as e:
        raise DomainError("%s: %s" % (path, e))


def _write(path, text):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def cmd_validate(args):
    A = _load(args.structure, pad=args.pad_universe)
    size, cohesion = A.metrics()
    report = {
        "elements": A.n,
        "relations": {n: len(r) for n, r in A.relations.items()},
        "size": size,
        "cohesion": cohesion,
    }
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print("valid: %d elements, %d tuple occurrences, cohesion %d"
              % (A.n, size, cohesion))
        for n, c in report["relations"].items():
            print("  %s: %d" % (n, c))
    return 0


def cmd_refine(args):
    A = _load(args.structure)
    trace = rcr_run(A, max_rounds=args.rounds)
    for i, c in enumerate(trace.class_counts):
        print("round %d: %d classes" % (i, c))
    print("stable at round %d" % trace.stable_round)
    if args.csv == "-":
        trace.write_csv(sys.stdout)
    elif args.csv:
        with open(args.csv, "w") as out:
            trace.write_csv(out)
    return 0


def cmd_distinguish(args):
    A = _load(args.a)
    B = _load(args.b)
    try:
        verdict = rcr_distinguishes(A, B)
    except StructureError as e:
        raise DomainError(str(e))
    if verdict is None:
        print("indistinguishable")
    else:
        print("distinguished: round %d" % verdict[0])
    return 0


REPRESENTATIONS = ["grep", "vgrep", "incidence", "enriched-gaifman",
                   "enriched-incidence", "jtrep"]


def cmd_export(args):
    A = _load(args.structure)
    rep = args.rep
    if rep == "grep":
        g, _ = representations.grep(A)
    elif rep == "vgrep":
        g, _, _ = representations.vgrep(A)
    elif rep == "incidence":
        g = representations.incidence(A)
    elif rep == "enriched-gaifman":
        g = representations.enriched_gaifman(A)
    elif rep == "enriched-incidence":
        g = representations.enriched_incidence(A)
    else:
        if args.join_tree:
            J = _load_join_tree(args.join_tree)
        else:
            J = acyclic.gyo_join_tree(A)
            if J is None:
                raise DomainError("structure is cyclic; no join tree exists")
        try:
            g, _ = representations.jtrep(A, J)
        except ValueError as e:
            raise DomainError(str(e))
    _write(args.output, g.to_dot())
    return 0


def cmd_gyo(args):
    A = _load(args.structure)
    J = acyclic.gyo_join_tree(A)
    if J is None:
        print("cyclic")
        return 0
    _write(args.output, J.to_dot() if args.dot else J.to_text())
    return 0


def cmd_homcount(args):
    C = _load(args.c)
    A = _load(args.a)
    try:
        if args.brute:
            print(homcount.hom_bruteforce(C, A))
            return 0
        if args.join_tree:
            J = _load_join_tree(args.join_tree)
        else:
            J = acyclic.gyo_join_tree(C)
            if J is None:
                raise DomainError(
                    "source structure is cyclic; pass --brute for exhaustive counting")
        print(homcount.hom_acyclic(C, J, A))
    except (ValueError, homcount.TooLargeError) as e:
        raise DomainError(str(e))
    return 0


def cmd_game(args):
    A = _load(args.a)
    B = _load(args.b)
    try:
        win, trace = game.spoiler_wins(A, B, rounds=args.rounds)
    except game.GameError as e:
        raise DomainError(str(e))
    if win:
        print("spoiler wins within %d rounds"
              % (args.rounds or game.default_round_bound(A, B)))
        for rounds_left, rel in trace:
            print("  with %d rounds left: pick relation %s" % (rounds_left, rel))
    else:
        print("duplicator survives %d rounds"
              % (args.rounds or game.default_round_bound(A, B)))
    return 0


def cmd_synthesize(args):
    A = _load(args.structure)
    trace = rcr_run(A)
    rel, idx = args.tuple.split(",")
    from .core import TupleRef
    ref = TupleRef(rel.strip(), int(idx))
    if ref not in A.tuple_pos:
        raise DomainError("no tuple %s[%s] in the structure" % (rel, idx))
    i = trace.stable_round if args.round is None else args.round
    color = int(trace.colors_at(i)[A.tuple_pos[ref]])
    try:
        f = logic.synthesize_color_formula(trace, i, color)
    except logic.SynthesisBudgetError as e:
        raise DomainError(str(e))
    _write(args.output, logic.to_sexp(f) + "\n")
    return 0


def cmd_eval(args):
    A = _load(args.structure)
    try:
        f = logic.from_sexp(Path(args.formula).read_text())
    except (OSError, logic.FormulaError) as e:
        raise DomainError(str(e))
    except RecursionError:
        raise DomainError("formula nested too deeply")
    assignment = {}
    for item in args.assign or []:
        if "=" not in item:
            raise DomainError("bad assignment %r, expected VAR=ELEMENT" % item)
        var, name = item.split("=", 1)
        if name not in A.element_names:
            raise DomainError("unknown element %r" % name)
        assignment[var] = A.element_names.index(name)
    try:
        print("true" if logic.evaluate(f, A, assignment) else "false")
    except logic.FormulaError as e:
        raise DomainError(str(e))
    except RecursionError:
        raise DomainError("formula nested too deeply")
    return 0


def _parse_signature(text):
    from .core import Signature
    symbols = []
    for part in text.split(","):
        name, ar = part.strip().rsplit("/", 1)
        symbols.append((name, int(ar)))
    return Signature(symbols)


def cmd_gen(args):
    sig = _parse_signature(args.signature)
    if args.acyclic:
        C, _ = acyclic.random_acyclic(sig, args.nodes, args.seed)
        out = serialize_structure(C)
    else:
        sizes = {}
        for part in args.tuples.split(","):
            name, cnt = part.strip().split("=")
            sizes[name.strip()] = int(cnt)
        A = generate.random_structure(sig, args.elements, sizes, args.seed)
        out = structure_to_json(A) + "\n" if args.json else serialize_structure(A)
    _write(args.output, out)
    return 0


def _parse_sizes(text):
    if ".." in text:
        lo, hi = (int(float(x)) for x in text.split("..", 1))
        sizes = []
        n = lo
        while n < hi:
            sizes.append(n)
            n *= 2
        sizes.append(hi)
        return sizes
    return [int(float(x)) for x in text.split(",")]


def bench_once(n_tuples: int, seed: int) -> float:
    from .core import Signature
    sig = Signature([("R", 3), ("E", 2)])
    sizes = {"R": n_tuples // 2, "E": n_tuples - n_tuples // 2}
    A = generate.random_structure(sig, max(4, n_tuples), sizes, seed)
    t0 = time.perf_counter()
    g, _, _ = representations.vgrep(A)
    cr_run(g, trace=False)
    return time.perf_counter() - t0


def cmd_bench(args):
    sizes = _parse_sizes(args.sizes)
    print("N,seconds")
    for n in sizes:
        dt = bench_once(n, args.seed)
        print("%d,%.6f" % (n, dt))
        sys.stdout.flush()
    return 0


def cmd_check(args):
    from . import checks
    report = checks.run_all(seed=args.seed, quick=args.quick,
                            report_dir=args.report_dir)
    failures = 0
    for entry in report:
        if not args.json:
            line = "%s %s (%d cases" % (
                "PASS" if entry["ok"] else "FAIL", entry["name"], entry["cases"])
            line += ", seed=%d)" % entry["seed"]
            print(line)
            for path in entry.get("counterexamples", []):
                print("  counterexample: %s" % path)
        if not entry["ok"]:
            failures += 1
    if args.json:
        print(json.dumps(report, indent=2))
    return 1 if failures else 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="relcr",
        description="Color refinement on relational structures.")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("validate", help="parse and validate a structure file")
    q.add_argument("structure")
    q.add_argument("--pad-universe", action="store_true")
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=cmd_validate)

    q = sub.add_parser("refine", help="run refinement and report class counts")
    q.add_argument("structure")
    q.add_argument("--rounds", type=int, default=None)
    q.add_argument("--csv", default=None, help="write the trace as CSV")
    q.set_defaults(func=cmd_refine)

    q = sub.add_parser("distinguish", help="compare two structures")
    q.add_argument("a")
    q.add_argument("b")
    q.set_defaults(func=cmd_distinguish)

    q = sub.add_parser("export", help="emit a representation as DOT")
    q.add_argument("structure")
    q.add_argument("--rep", choices=REPRESENTATIONS, required=True)
    q.add_argument("--join-tree", default=None)
    q.add_argument("-o", "--output", default=None)
    q.set_defaults(func=cmd_export)

    q = sub.add_parser("gyo", help="decide acyclicity / emit a join tree")
    q.add_argument("structure")
    q.add_argument("--dot", action="store_true")
    q.add_argument("-o", "--output", default=None)
    q.set_defaults(func=cmd_gyo)

    q = sub.add_parser("homcount", help="count homomorphisms C -> A")
    q.add_argument("c")
    q.add_argument("a")
    q.add_argument("--join-tree", default=None)
    q.add_argument("--brute", action="store_true")
    q.set_defaults(func=cmd_homcount)

    q = sub.add_parser("game", help="solve the bijection game")
    q.add_argument("a")
    q.add_argument("b")
    q.add_argument("--rounds", type=int, default=None)
    q.set_defaults(func=cmd_game)

    q = sub.add_parser("synthesize", help="formula describing a tuple's color")
    q.add_argument("structure")
    q.add_argument("--tuple", required=True, metavar="REL,INDEX")
    q.add_argument("--round", type=int, default=None)
    q.add_argument("-o", "--output", default=None)
    q.set_defaults(func=cmd_synthesize)

    q = sub.add_parser("eval", help="evaluate a formula on a structure")
    q.add_argument("formula")
    q.add_argument("structure")
    q.add_argument("--assign", action="append", metavar="VAR=ELEMENT")
    q.set_defaults(func=cmd_eval)

    q = sub.add_parser("gen", help="emit random structures")
    q.add_argument("--signature", required=True, metavar="NAME/AR,...")
    q.add_argument("--elements", type=int, default=8)
    q.add_argument("--tuples", default="", metavar="NAME=COUNT,...")
    q.add_argument("--acyclic", action="store_true")
    q.add_argument("--nodes", type=int, default=4)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--json", action="store_true")
    q.add_argument("-o", "--output", default=None)
    q.set_defaults(func=cmd_gen)

    q = sub.add_parser("bench", help="time refinement across a size ladder")
    q.add_argument("--sizes", default="1e3..1e5")
    q.add_argument("--seed", type=int, default=7)
    q.set_defaults(func=cmd_bench)

    q = sub.add_parser("check", help="cross-oracle property suite")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--quick", action="store_true")
    q.add_argument("--json", action="store_true")
    q.add_argument("--report-dir", default=None)
    q.set_defaults(func=cmd_check)
    return p


@functools.cache
def _parser():
    """The parser, built once per process: a build takes 2-3 ms."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
