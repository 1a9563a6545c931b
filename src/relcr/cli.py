"""Command-line front end.

Exit codes: 0 success, 1 domain error (message names the failing
precondition), 2 usage error.  `main` alone turns errors into exit codes:
it prints a `DomainError`, a library `ValueError` or a
`SynthesisBudgetError` as `error: ...`, and exits 1 for these and for a
closed or failing stdout.  `_read` reads every input file and `_output`
writes every output file; a failure is `cannot read/write PATH: ...`.  All
machine output is CSV, DOT, JSON or the structure/formula text formats.
Color ids in reports are run-local: they number the classes of one
refinement run and are not comparable across invocations.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import time
from pathlib import Path

from . import acyclic, game, generate, homcount, logic, representations
from .core import (Structure, TupleRef, parse_signature, parse_structure,
                   serialize_structure, structure_to_json)
from .cr import cr_run
from .rcr import rcr_distinguishes, rcr_run


class DomainError(Exception):
    pass


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise DomainError("cannot read %s: %s" % (path, e))


def _parsed(path: str, parse):
    """parse(the text of path), with the path named in its ValueError."""
    text = _read(path)
    try:
        return parse(text)
    except ValueError as e:
        raise DomainError("%s: %s" % (path, e))


def _load(path: str, pad=False) -> Structure:
    fmt = "json" if Path(path).suffix == ".json" else "text"
    return _parsed(path, lambda text: parse_structure(text, fmt, pad))


def _load_join_tree(path: str) -> acyclic.JoinTree:
    return _parsed(path, acyclic.JoinTree.from_text)


@contextlib.contextmanager
def _output(path):
    """path opened for writing text; stdout for None or "-".  A failed open,
    write or close of path is a DomainError."""
    if path in (None, "-"):
        yield sys.stdout
        return
    try:
        with open(path, "w") as out:
            yield out
    except OSError as e:
        raise DomainError("cannot write %s: %s" % (path, e))


def _write(path, text):
    with _output(path) as out:
        out.write(text)


def cmd_validate(args):
    A = _load(args.structure, pad=args.pad_universe)
    size, cohesion = A.metrics()
    report = {
        "elements": A.n,
        "relations": dict(A.counts),
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
    stopped = trace.stable_round == args.rounds   # the budget ended the run
    print("%s at round %d" % ("stopped" if stopped else "stable", trace.stable_round))
    if args.csv:
        with _output(args.csv) as out:
            trace.write_csv(out)
    return 0


def cmd_distinguish(args):
    A = _load(args.a)
    B = _load(args.b)
    verdict = rcr_distinguishes(A, B)
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
        g, _ = representations.jtrep(A, J)
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
    return 0


def cmd_game(args):
    A = _load(args.a)
    B = _load(args.b)
    rounds = game.default_round_bound(A, B) if args.rounds is None else args.rounds
    win, trace = game.spoiler_wins(A, B, rounds=rounds)
    if win:
        print("spoiler wins within %d rounds" % rounds)
        for rounds_left, rel in trace:
            print("  with %d rounds left: pick relation %s" % (rounds_left, rel))
    else:
        print("duplicator survives %d rounds" % rounds)
    return 0


def cmd_synthesize(args):
    A = _load(args.structure)
    trace = rcr_run(A)
    if args.tuple not in A.tuple_pos:
        raise DomainError("no tuple %s[%d] in the structure" % args.tuple)
    last = trace.stable_round   # later rounds repeat its partition
    i = last if args.round is None else min(args.round, last)
    color = int(trace.colors_at(i)[A.tuple_pos[args.tuple]])
    f = logic.synthesize_color_formula(trace, i, color)
    _write(args.output, logic.to_sexp(f) + "\n")
    return 0


def cmd_eval(args):
    A = _load(args.structure)
    try:
        f = logic.from_sexp(_read(args.formula))
        assignment = {}
        for item in args.assign or []:
            if "=" not in item:
                raise DomainError("bad assignment %r, expected VAR=ELEMENT" % item)
            var, name = item.split("=", 1)
            if name not in A.element_names:
                raise DomainError("unknown element %r" % name)
            assignment[var] = A.element_names.index(name)
        print("true" if logic.evaluate(f, A, assignment) else "false")
    except RecursionError:
        raise DomainError("formula nested too deeply")
    return 0


def round_budget(text):
    """A number of rounds, 0 or more."""
    rounds = int(text)
    if rounds < 0:
        raise ValueError("a number of rounds is 0 or more")
    return rounds


def tuple_ref(text):
    """REL,INDEX."""
    try:
        rel, index = text.split(",")
        return TupleRef(rel.strip(), int(index))
    except ValueError:
        raise ValueError("expected REL,INDEX with a whole-number INDEX") from None


def tuple_counts(text):
    """NAME=COUNT,..."""
    try:
        return {name.strip(): int(count) for name, count in
                (part.split("=") for part in text.split(","))}
    except ValueError:
        raise ValueError("expected NAME=COUNT,... with whole-number counts") from None


def _usage(parse):
    """parse as an argument type: argparse reports its ValueError as a usage
    error that gives the reason."""
    def argument(text):
        try:
            return parse(text)
        except ValueError as e:
            raise argparse.ArgumentTypeError(
                "invalid %s value: %r (%s)" % (parse.__name__, text, e)) from None
    return argument


def cmd_gen(args):
    if args.acyclic:
        A, _ = acyclic.random_acyclic(args.signature, args.nodes, args.seed)
    else:
        A = generate.random_structure(args.signature, args.elements,
                                      args.tuples, args.seed)
    _write(args.output, structure_to_json(A) + "\n" if args.json
           else serialize_structure(A))
    return 0


def size_ladder(text):
    """N,N,... or LO..HI: LO, its doublings below HI, and HI.  Every size is
    1 or more and HI is not below LO."""
    try:
        if ".." not in text:
            sizes = [int(float(x)) for x in text.split(",")]
        else:
            lo, hi = (int(float(x)) for x in text.split("..", 1))
            if hi < lo:
                raise ValueError("the ladder ends below its start")
            sizes = [lo << k for k in range(hi.bit_length())
                     if lo << k < hi] + [hi]
    except OverflowError as e:   # from inf
        raise ValueError(e)
    if min(sizes) < 1:
        raise ValueError("every size must be 1 or more")
    return sizes


def bench_once(n_tuples: int, seed: int) -> float:
    sig = parse_signature("R/3, E/2")
    sizes = {"R": n_tuples // 2, "E": n_tuples - n_tuples // 2}
    A = generate.random_structure(sig, max(4, n_tuples), sizes, seed)
    t0 = time.perf_counter()
    g, _, _ = representations.vgrep(A)
    cr_run(g, trace=False)
    return time.perf_counter() - t0


def cmd_bench(args):
    print("N,seconds")
    for n in args.sizes:
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
    q.add_argument("--rounds", type=_usage(round_budget), default=None,
                   help="rounds to refine at most (default: until stable)")
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
    q.add_argument("--rounds", type=_usage(round_budget), default=None,
                   help="rounds to play (default: |Tup(A)| + |Tup(B)| + 2)")
    q.set_defaults(func=cmd_game)

    q = sub.add_parser("synthesize", help="formula describing a tuple's color")
    q.add_argument("structure")
    q.add_argument("--tuple", type=_usage(tuple_ref), required=True, metavar="REL,INDEX")
    q.add_argument("--round", type=_usage(round_budget), default=None)
    q.add_argument("-o", "--output", default=None)
    q.set_defaults(func=cmd_synthesize)

    q = sub.add_parser("eval", help="evaluate a formula on a structure")
    q.add_argument("formula")
    q.add_argument("structure")
    q.add_argument("--assign", action="append", metavar="VAR=ELEMENT")
    q.set_defaults(func=cmd_eval)

    q = sub.add_parser("gen", help="emit random structures")
    q.add_argument("--signature", required=True, type=_usage(parse_signature),
                   metavar="NAME/AR,...")
    q.add_argument("--elements", type=int, default=8)
    q.add_argument("--tuples", type=_usage(tuple_counts), default={}, metavar="NAME=COUNT,...")
    q.add_argument("--acyclic", action="store_true")
    q.add_argument("--nodes", type=int, default=4)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--json", action="store_true")
    q.add_argument("-o", "--output", default=None)
    q.set_defaults(func=cmd_gen)

    q = sub.add_parser("bench", help="time refinement across a size ladder")
    q.add_argument("--sizes", type=_usage(size_ladder), default="1e3..1e5")
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
        try:
            return args.func(args)
        finally:   # error paths too: a failure is handled here, not at exit
            sys.stdout.flush()
    except (DomainError, ValueError, logic.SynthesisBudgetError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    except OSError as e:   # a write to stdout, or a report file of `check`
        if e.filename is not None:
            print("error: cannot write %s: %s" % (e.filename, e), file=sys.stderr)
            return 1
        if not isinstance(e, BrokenPipeError):   # a closed pipe is no error
            print("error: cannot write stdout: %s" % e, file=sys.stderr)
        # point stdout at devnull, so that the flush at exit cannot fail again
        # (the SIGPIPE note in the documentation of the `signal` module)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
