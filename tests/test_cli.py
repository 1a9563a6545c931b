import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from relcr import checks, cli, fixtures
from relcr.cli import REPRESENTATIONS, main, size_ladder
from relcr.core import parse_structure, serialize_structure
from test_kernel import directed_path
from test_representations import (per_edge_encodings, sig4_corpus,
                                  special_structures)

FIX = Path(__file__).resolve().parent.parent / "fixtures"
SRC = FIX.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate(capsys):
    code, out, _ = run(capsys, "validate", str(FIX / "A1.struct"))
    assert code == 0
    assert "6 elements" in out


def test_validate_json(capsys):
    code, out, _ = run(capsys, "validate", str(FIX / "A1.struct"), "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["relations"] == {"E": 6, "R": 1}


def test_validate_missing_file(capsys):
    code, _, err = run(capsys, "validate", str(FIX / "nope.struct"))
    assert code == 1
    assert "error" in err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["no-such-command"])
    assert e.value.code == 2


def test_refine_and_csv(tmp_path, capsys):
    csv = tmp_path / "trace.csv"
    code, out, _ = run(capsys, "refine", str(FIX / "A1.struct"),
                       "--csv", str(csv))
    assert code == 0
    assert "stable at round 1" in out
    assert csv.read_text().startswith("round,relation,tuple_index,color_id")


def test_parser_defaults_do_not_stick(tmp_path, capsys):
    # main builds its parser once per process
    path = tmp_path / "path.struct"
    path.write_text("signature: E/2\n" + "".join(
        "E(%d, %d)\n" % (i, i + 1) for i in range(10)))
    code, out, _ = run(capsys, "refine", "--rounds", "1", str(path))
    assert code == 0 and out.endswith("stopped at round 1\n")
    with pytest.raises(SystemExit) as e:
        main(["refine", "--rounds", "x", str(path)])
    assert e.value.code == 2
    capsys.readouterr()
    code, out, _ = run(capsys, "refine", str(path))
    assert code == 0 and out.endswith("stable at round 5\n")
    assert out.count("classes") == 6


def test_refine_csv_to_stdout_equals_file(tmp_path, capsys):
    csv = tmp_path / "trace.csv"
    f = str(FIX / "A2.struct")
    _, shown, _ = run(capsys, "refine", f, "--csv", str(csv))
    _, both, _ = run(capsys, "refine", f, "--csv", "-")
    assert both == shown + csv.read_text()


def test_distinguish(capsys):
    code, out, _ = run(capsys, "distinguish", str(FIX / "A1.struct"),
                       str(FIX / "B1.struct"))
    assert code == 0
    assert "round 1" in out
    code, out, _ = run(capsys, "distinguish", str(FIX / "A1.struct"),
                       str(FIX / "A1.struct"))
    assert "indistinguishable" in out


def test_export_all_representations(tmp_path, capsys):
    # every export is byte-identical to the per-edge reference encoding
    paths = sorted(FIX.glob("*.struct"))
    for k, A in enumerate(sig4_corpus(40) + special_structures()):
        paths.append(tmp_path / ("corpus%d.struct" % k))
        paths[-1].write_text(serialize_structure(A))
    for path in paths:
        want = per_edge_encodings(parse_structure(path.read_text()))
        for rep in REPRESENTATIONS:
            out_file = tmp_path / (rep + ".dot")
            code, _, err = run(capsys, "export", str(path),
                               "--rep", rep, "-o", str(out_file))
            if rep in want:
                assert code == 0, (path, rep)
                assert out_file.read_text() == want[rep].to_dot(), (path, rep)
            else:
                assert code == 1 and "cyclic" in err, (path, rep)


def test_export_jtrep_rejects_cyclic(tmp_path, capsys):
    tri = tmp_path / "tri.struct"
    tri.write_text("signature: E/2\nE(1, 2)\nE(2, 3)\nE(3, 1)\n")
    code, _, err = run(capsys, "export", str(tri), "--rep", "jtrep")
    assert code == 1
    assert "cyclic" in err


def test_gyo(tmp_path, capsys):
    code, out, _ = run(capsys, "gyo", str(FIX / "A1.struct"))
    assert code == 0
    assert out.count("edge:") == 6
    tri = tmp_path / "tri.struct"
    tri.write_text("signature: E/2\nE(1, 2)\nE(2, 3)\nE(3, 1)\n")
    code, out, _ = run(capsys, "gyo", str(tri))
    assert code == 0
    assert "cyclic" in out


def test_homcount(capsys):
    code, out, _ = run(capsys, "homcount", str(FIX / "A1.struct"),
                       str(FIX / "B1.struct"))
    assert code == 0
    assert out.strip() == "0"
    code, out, _ = run(capsys, "homcount", str(FIX / "A1.struct"),
                       str(FIX / "A1.struct"), "--brute")
    assert int(out.strip()) >= 1


def test_homcount_with_a_gyo_join_tree_file(tmp_path, capsys):
    # `relcr gyo -o` then `relcr homcount --join-tree` counts as GYO inline
    fixtures = {p: parse_structure(p.read_text())
                for p in sorted(FIX.glob("*.struct"))}
    checked = 0
    for c, C in fixtures.items():
        jt = tmp_path / (c.stem + ".jt")
        code, out, _ = run(capsys, "gyo", str(c), "-o", str(jt))
        assert code == 0
        if out.strip() == "cyclic":
            continue
        for a, A in fixtures.items():
            if A.signature != C.signature:
                continue
            plain = run(capsys, "homcount", str(c), str(a))
            with_file = run(capsys, "homcount", str(c), str(a),
                            "--join-tree", str(jt))
            assert plain[0] == 0 and with_file == plain, (c, a)
            checked += 1
    assert checked


def test_join_tree_file_errors(tmp_path, capsys):
    # unreadable and malformed join-tree files are errors, not tracebacks
    a1 = str(FIX / "A1.struct")
    missing = str(tmp_path / "missing.jt")
    bad = tmp_path / "bad.jt"
    bad.write_text("# a comment\nedge: (E,0) (E,1)\n")
    for tree in (missing, str(tmp_path)):
        for argv in (("homcount", a1, a1), ("export", a1, "--rep", "jtrep")):
            code, _, err = run(capsys, *argv, "--join-tree", tree)
            assert code == 1 and err.startswith("error: cannot read"), argv
    for argv in (("homcount", a1, a1), ("export", a1, "--rep", "jtrep")):
        code, _, err = run(capsys, *argv, "--join-tree", str(bad))
        assert code == 1, argv
        assert "line 2" in err and "edge: (E,0) (E,1)" in err, err


def test_game(capsys):
    code, out, _ = run(capsys, "game", str(FIX / "A1.struct"),
                       str(FIX / "B1.struct"))
    assert code == 0
    assert "spoiler wins" in out
    code, out, _ = run(capsys, "game", str(FIX / "A1.struct"),
                       str(FIX / "A1.struct"), "--rounds", "4")
    assert "duplicator survives 4" in out


def test_game_prints_the_budget_played(capsys):
    a1, b1 = str(FIX / "A1.struct"), str(FIX / "B1.struct")
    assert run(capsys, "game", a1, b1, "--rounds", "0") == (
        0, "duplicator survives 0 rounds\n", "")
    assert run(capsys, "game", a1, b1, "--rounds", "2") == (
        0, "spoiler wins within 2 rounds\n  with 2 rounds left: pick relation "
        "E\n", "")
    code, out, _ = run(capsys, "game", a1, b1)   # |A1| + |B1| + 2 rounds
    assert code == 0 and out.startswith("spoiler wins within 16 rounds\n")
    with pytest.raises(SystemExit) as e:
        main(["game", a1, b1, "--rounds", "-3"])
    assert e.value.code == 2
    assert "invalid round_budget value: '-3'" in capsys.readouterr().err


def test_refine_reports_a_budget_stop(capsys):
    # A1 has 2 classes at round 0 and 7 at round 1
    a1 = str(FIX / "A1.struct")
    assert run(capsys, "refine", a1, "--rounds", "0") == (
        0, "round 0: 2 classes\nstopped at round 0\n", "")
    assert run(capsys, "refine", a1, "--rounds", "3") == (
        0, "round 0: 2 classes\nround 1: 7 classes\nstable at round 1\n", "")
    with pytest.raises(SystemExit) as e:
        main(["refine", a1, "--rounds", "-1"])
    assert e.value.code == 2
    assert "invalid round_budget value: '-1'" in capsys.readouterr().err


def test_game_on_paths(tmp_path, capsys):
    def play(m, c):
        a, b = tmp_path / "a.struct", tmp_path / "b.struct"
        a.write_text(serialize_structure(directed_path(m)))
        b.write_text(serialize_structure(directed_path(m, c)))
        return run(capsys, "game", str(a), str(b))

    code, out, _ = play(20, 5)
    assert code == 0
    assert out.startswith("spoiler wins within ")
    code, out, err = play(1000, 10)
    assert code == 1 and out == ""
    assert err == "error: relation E has more than 24 tuples " \
        "(the game's size guard)\n"


def test_synthesize_then_eval(tmp_path, capsys):
    formula = tmp_path / "f.sexp"
    code, _, _ = run(capsys, "synthesize", str(FIX / "A1.struct"),
                     "--tuple", "R,0", "-o", str(formula))
    assert code == 0
    assert formula.read_text().startswith("(")
    code, out, _ = run(capsys, "eval", str(formula), str(FIX / "A1.struct"),
                       "--assign", "y1=1", "--assign", "y2=2",
                       "--assign", "y3=3", "--assign", "y4=u",
                       "--assign", "y5=v", "--assign", "y6=w")
    assert code == 0
    assert out.strip() == "true"


def test_synthesize_round_past_stability_or_negative(capsys):
    # A1 is stable at round 1, and later rounds repeat its partition
    a1 = str(FIX / "A1.struct")
    stable = run(capsys, "synthesize", a1, "--tuple", "R,0")
    assert stable[0] == 0 and stable[1].startswith("(")
    assert run(capsys, "synthesize", a1, "--tuple", "R,0", "--round", "5") == stable
    with pytest.raises(SystemExit) as e:
        main(["synthesize", a1, "--tuple", "R,0", "--round", "-1"])
    assert e.value.code == 2
    assert "invalid round_budget value: '-1'" in capsys.readouterr().err


@pytest.mark.parametrize("ref", ["E", "E,x", "E,0,1"])
def test_synthesize_bad_tuple_is_a_usage_error(capsys, ref):
    with pytest.raises(SystemExit) as e:
        main(["synthesize", str(FIX / "A1.struct"), "--tuple", ref])
    assert e.value.code == 2
    assert "invalid tuple_ref value: %r" % ref in capsys.readouterr().err


def test_synthesize_checks_the_tuple_before_refining(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("refined before the tuple was checked")

    monkeypatch.setattr(cli, "rcr_run", refuse)
    code, _, err = run(capsys, "synthesize", str(FIX / "A1.struct"),
                       "--tuple", "R,99")
    assert code == 1 and err == "error: no tuple R[99] in the structure\n"


@pytest.mark.parametrize("argv", [
    ["refine", str(FIX / "A1.struct"), "--csv"],
    ["export", str(FIX / "A1.struct"), "--rep", "grep", "-o"],
])
def test_unwritable_output_is_an_error(tmp_path, capsys, argv):
    path = str(tmp_path / "missing" / "out")
    code, _, err = run(capsys, *argv, path)
    assert code == 1 and err.startswith("error: cannot write %s: " % path)


def test_eval_bad_assignment(tmp_path, capsys):
    formula = tmp_path / "f.sexp"
    formula.write_text("(eq y1 y1)")
    code, _, err = run(capsys, "eval", str(formula), str(FIX / "A1.struct"),
                       "--assign", "y1=zzz")
    assert code == 1


def test_gen_is_deterministic(capsys):
    args = ["gen", "--signature", "R/3,E/2", "--elements", "6",
            "--tuples", "R=3,E=4", "--seed", "5"]
    code, out1, _ = run(capsys, *args)
    code, out2, _ = run(capsys, *args)
    assert code == 0 and out1 == out2
    assert out1.count("R(") == 3 and out1.count("E(") == 4


def test_gen_acyclic(tmp_path, capsys):
    out_file = tmp_path / "c.struct"
    code, _, _ = run(capsys, "gen", "--signature", "R/3,E/2", "--acyclic",
                     "--nodes", "4", "--seed", "9", "-o", str(out_file))
    assert code == 0
    code, out, _ = run(capsys, "gyo", str(out_file))
    assert "cyclic" not in out


def test_gen_acyclic_json(capsys):
    argv = ["gen", "--acyclic", "--signature", "E/2", "--nodes", "3", "--seed", "1"]
    code, text, _ = run(capsys, *argv)
    assert code == 0 and text.startswith("signature: E/2\n")
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0 and json.loads(out)["signature"] == [["E", 2]]
    assert serialize_structure(parse_structure(out, fmt="json")) == text


@pytest.mark.parametrize("argv", [
    ["gen", "--signature", "E"],
    ["gen", "--signature", "E/x"],
    ["gen", "--signature", "E/2", "--tuples", "E"],
    ["gen", "--signature", "E/2", "--elements", "1", "--tuples", "E=5"],
    ["bench", "--sizes", "abc"],
    ["bench", "--sizes", "0..5"],
    ["bench", "--sizes", "inf"],
])
def test_bad_gen_and_bench_arguments_are_errors(capsys, argv):
    # a domain error exits 1, a usage error 2; neither ends in a traceback,
    # nor a ladder from 0 in an endless loop
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    err = capsys.readouterr().err
    assert code in (1, 2) and "error: " in err and "Traceback" not in err


@pytest.mark.parametrize("argv,message", [
    (["--signature", "E/2", "--tuples", "F=3"], "unknown relation symbol F"),
    (["--signature", "E/2", "--tuples", "E=-1"],
     "negative tuple count -1 for relation E"),
    (["--signature", "E/2", "--elements", "-3", "--tuples", "E=2"],
     "relation E cannot hold 2 distinct tuples"),
    (["--signature", "E/2", "--elements", "0", "--tuples", "E=2"],
     "relation E cannot hold 2 distinct tuples"),
])
def test_gen_rejects_impossible_tuple_counts(capsys, argv, message):
    assert run(capsys, "gen", *argv) == (1, "", "error: %s\n" % message)


@pytest.mark.parametrize("sizes,message", [
    ("-5", "every size must be 1 or more"),
    ("1,0", "every size must be 1 or more"),
    ("-5..-1", "every size must be 1 or more"),
    ("1..0", "the ladder ends below its start"),
    ("4..2", "the ladder ends below its start"),
])
def test_bench_rejects_sizes_below_1(capsys, sizes, message):
    # usage errors: argparse names the option and the bad value
    with pytest.raises(SystemExit) as e:
        main(["bench", "--sizes=" + sizes])
    err = capsys.readouterr().err
    assert e.value.code == 2
    assert "argument --sizes: invalid size_ladder value: %r" % sizes in err
    with pytest.raises(ValueError, match=message):
        size_ladder(sizes)


@pytest.mark.parametrize("argv,reason", [
    (["bench", "--sizes", "4..2"], "the ladder ends below its start"),
    (["bench", "--sizes=-5"], "every size must be 1 or more"),
    (["refine", str(FIX / "A1.struct"), "--rounds", "-3"],
     "a number of rounds is 0 or more"),
    (["synthesize", str(FIX / "A1.struct"), "--tuple", "E,0,1"],
     "expected REL,INDEX with a whole-number INDEX"),
    (["gen", "--signature", "E/2", "--tuples", "E=x"],
     "expected NAME=COUNT,... with whole-number counts"),
])
def test_usage_errors_give_the_reason(capsys, argv, reason):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    assert "(%s)\n" % reason in capsys.readouterr().err


def test_size_ladder_doubles_up_to_its_end():
    assert size_ladder("1e3..1e4") == [1000, 2000, 4000, 8000, 10000]
    assert size_ladder("3..3") == [3]
    assert size_ladder("50,100") == [50, 100]


@pytest.mark.parametrize("signature,nodes", [("E/2", 10), ("U/1", 2)])
def test_gen_acyclic_that_gives_up_is_an_error(capsys, signature, nodes):
    # every draw repeats a vector: U/1 always, E/2 at 10 nodes for seed 0
    assert run(capsys, "gen", "--acyclic", "--signature", signature,
               "--nodes", str(nodes), "--seed", "0") == (
        1, "", "error: could not draw %d nodes with distinct vectors in 1000 "
        "tries\n" % nodes)


def test_bench_tiny(capsys):
    code, out, _ = run(capsys, "bench", "--sizes", "50,100", "--seed", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,seconds"
    assert len(lines) == 3


def test_check_quick(capsys):
    code, out, _ = run(capsys, "check", "--quick", "--seed", "3")
    assert code == 0
    assert "FAIL" not in out


def test_eval_truncated_formula_is_an_error(tmp_path, capsys):
    # malformed formulas end in "error: ..." and exit 1, not in a traceback
    formula = tmp_path / "f.sexp"
    for text, message in [("(atom", "unexpected end of input"),
                          ("(atom E x", "unexpected end of input"),
                          ("(and (atom E x y)", "unexpected end of input"),
                          ("(geq", "unexpected end of input"),
                          ("(geq two (vars y) (guard E x y) (eq y y))",
                           "geq needs a count, got 'two'")]:
        formula.write_text(text)
        code, _, err = run(capsys, "eval", str(formula), str(FIX / "A1.struct"))
        assert (code, err) == (1, "error: %s\n" % message), text


def test_deep_formula_is_an_error(tmp_path, capsys):
    # a formula nested past Python's recursion limit is an error, not a
    # traceback
    formula = tmp_path / "f.sexp"
    formula.write_text("(not " * 3000 + "(eq y1 y1)" + ")" * 3000)
    code, _, err = run(capsys, "eval", str(formula), str(FIX / "A1.struct"),
                       "--assign", "y1=1")
    assert (code, err) == (1, "error: formula nested too deeply\n")


def test_deep_synthesis_is_an_error(tmp_path, capsys):
    # a 1000-fact path has 500 rounds; its formula nests past the recursion
    # limit, which synthesis reports as its budget
    path = tmp_path / "path.struct"
    path.write_text("signature: E/2\n" + "".join(
        "E(%d, %d)\n" % (i, i + 1) for i in range(1000)))
    code, _, err = run(capsys, "synthesize", str(path), "--tuple", "E,0")
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err


def run_process(*argv, buffered=True, **kwargs):
    """`python -m relcr.cli argv` in a child process, with a real stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, "-m", "relcr.cli", *argv],
                            env=env, stderr=subprocess.PIPE, **kwargs)


@pytest.mark.parametrize("buffered", [True, False])
def test_closed_stdout_exits_1_quietly(buffered):
    # the reader closes its end before the child writes a byte
    child = run_process("refine", str(FIX / "A1.struct"), "--csv", "-",
                        buffered=buffered, stdout=subprocess.PIPE)
    child.stdout.close()
    err = child.stderr.read().decode()
    child.stderr.close()
    assert child.wait() == 1
    assert "Traceback" not in err and "Exception ignored" not in err, err


@pytest.mark.parametrize("argv", [
    ["validate", "{bad}"],
    ["eval", "{bad}", str(FIX / "A1.struct")],
    ["homcount", str(FIX / "A1.struct"), str(FIX / "A1.struct"),
     "--join-tree", "{bad}"],
    ["export", str(FIX / "A1.struct"), "--rep", "jtrep", "--join-tree", "{bad}"],
])
def test_undecodable_input_is_an_error(tmp_path, capsys, argv):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("signature: E/2\nE(\u00e9, 1)\n".encode("latin-1"))
    code, out, err = run(capsys, *(a.format(bad=bad) for a in argv))
    assert code == 1 and out == ""
    assert err.startswith("error: cannot read %s: 'utf-8' codec " % bad), err
    assert err.count("\n") == 1


def test_missing_formula_file_is_an_error(tmp_path, capsys):
    missing = tmp_path / "missing.sexp"
    code, _, err = run(capsys, "eval", str(missing), str(FIX / "A1.struct"))
    assert code == 1 and err.startswith("error: cannot read %s: " % missing)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv,target,buffered", [
    (["refine", str(FIX / "A1.struct"), "--csv", "/dev/full"], "/dev/full", True),
    (["export", str(FIX / "A1.struct"), "--rep", "grep", "-o", "/dev/full"],
     "/dev/full", True),
    (["gen", "--signature", "E/2", "-o", "/dev/full"], "/dev/full", True),
    # the flush in main reports stdout before the exit, not after it
    (["refine", str(FIX / "A1.struct"), "--csv", "/dev/full"], "stdout", True),
] + [(argv, "stdout", buffered) for buffered in (True, False) for argv in (
    ["validate", str(FIX / "A1.struct")],
    ["refine", str(FIX / "A1.struct"), "--csv", "-"])])
def test_a_failed_write_is_an_error(argv, target, buffered):
    # /dev/full takes the open and fails every write with ENOSPC; an
    # unbuffered stdout fails in the command, a buffered one at the flush
    with open("/dev/full", "w") as full:
        child = run_process(*argv, buffered=buffered, stdout=(
            full if target == "stdout" else subprocess.DEVNULL))
        err = child.communicate()[1].decode()
    assert child.returncode == 1
    assert err == "error: cannot write %s: [Errno 28] No space left on " \
        "device\n" % target, err


STRUCTURE_TEXTS = [p.read_text() for p in sorted(FIX.glob("*.struct"))] + [
    p.read_text() for p in sorted((FIX / "malformed").iterdir())]
TOKENS = ["(", ")", ",", "/", ":", "\n", "#", " ", "signature:", "universe:",
          "E", "F", "R", "U", "x", "0", "1", "-1", "7", "99", "E/2", "R/3",
          "E(1, 2)\n", "\u00e9", "\x00", "{", "}", "[", "]", '"', "null", "--",
          "edge:", "node:", "(E,0)", "(R,0)", "(E,9)", "atom", "eq", "not",
          "and", "geq", "vars", "guard", "y1", "y2"]
JOIN_TREE_LINES = ["node: (E,0)", "node: (R,0)", "edge: (E,0) -- (E,1)",
                   "edge: (E,1) -- (R,0)", "edge: (E,0) -- (E,0)",
                   "edge: (F,0) -- (E,2)", "node: (E,-1)", "# comment", ""]
FORMULA_PARTS = ["(atom E y1 y2)", "(atom R y1)", "(eq y1 y2)", "(not ",
                 "(and ", "(geq 1 (vars y2) (guard E y1 y2) ", "(vars)",
                 "(geq -1 (vars y2) (guard E y1 y2) ", "(guard R y1 y2 y3)",
                 ")", ")", "(", "y3", "F"]


@st.composite
def spliced(draw, texts):
    """One of texts, with tokens inserted and spans deleted."""
    text = draw(st.sampled_from(texts))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:at] + draw(st.sampled_from(TOKENS)) + text[at:]
        else:
            text = text[:at] + text[at + draw(st.integers(1, 8)):]
    return text


def json_containers(inner):
    keys = st.sampled_from(["signature", "relations", "universe", "E", "R"])
    return st.lists(inner, max_size=3) | st.dictionaries(keys, inner, max_size=3)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.sampled_from(
        ["E", "R", "F", "a", "b", "1"]), json_containers, max_leaves=12)
file_texts = st.one_of(
    st.binary(max_size=80),
    spliced(STRUCTURE_TEXTS).map(str.encode),
    json_values.map(lambda v: json.dumps(v).encode()),
    st.fixed_dictionaries({
        "signature": st.sampled_from([[["E", 2]], [["E", 2], ["R", 3]],
                                      [["E", "2"]], [["E", 0]], "E/2"]),
        "relations": json_values}).map(lambda v: json.dumps(v).encode()),
    st.lists(st.sampled_from(JOIN_TREE_LINES), max_size=5).map(
        lambda lines: "\n".join(lines).encode()),
    st.lists(st.sampled_from(FORMULA_PARTS), max_size=8).map(
        lambda parts: "".join(parts).encode()),
    spliced([" ".join(FORMULA_PARTS)]).map(str.encode))
COMMANDS = [
    ["validate", "{a}"],
    ["validate", "{a}", "--pad-universe", "--json"],
    ["refine", "{a}"],
    ["refine", "{a}", "--rounds", "2", "--csv", "-"],
    ["distinguish", "{a}", "{b}"],
    ["gyo", "{a}"],
    ["gyo", "{a}", "--dot"],
    ["homcount", "{a}", "{b}"],
    ["homcount", "{a}", "{b}", "--join-tree", "{t}"],
    ["game", "{a}", "{b}"],
    ["eval", "{f}", "{a}", "--assign", "y1=1", "--assign", "y2=2"],
    ["eval", "{f}", "{a}"],
    ["export", "{a}", "--rep", "jtrep", "--join-tree", "{t}"],
    ["synthesize", "{a}", "--tuple", "E,0"],
    ["synthesize", "{a}", "--tuple", "R,0", "--round", "1"],
] + [["export", "{a}", "--rep", rep] for rep in REPRESENTATIONS]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(COMMANDS), st.sampled_from([".struct", ".json"]),
       file_texts, file_texts, file_texts, file_texts)
def test_fuzzed_files_exit_0_1_or_2(tmp_path, capsys, argv, suffix, a, b, f, t):
    # any file content ends in an answer, an error or a usage error, never in
    # an escaped exception
    files = {"a": tmp_path / ("a" + suffix), "b": tmp_path / "b.struct",
             "f": tmp_path / "f.sexp", "t": tmp_path / "t.jt"}
    for key, content in zip("abft", (a, b, f, t)):
        files[key].write_bytes(content)
    try:
        code = main([arg.format(**files) for arg in argv])
    except SystemExit as e:
        code = e.code
    capsys.readouterr()
    assert code in (0, 1, 2)


def test_unwritable_report_dir_is_an_error(tmp_path, capsys, monkeypatch):
    # a failing check writes its counterexamples under --report-dir
    failing = ("fails", lambda _: [("bad", [("a1", fixtures.a1())])],
               lambda seed, cases: [], 5)
    monkeypatch.setattr(checks, "CHECKS", [failing])
    blocked = tmp_path / "file"
    blocked.write_text("")
    reports = blocked / "reports"
    code, out, err = run(capsys, "check", "--report-dir", str(reports))
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot write %s: " % reports), err
