import json
from pathlib import Path

import pytest

from relcr.cli import REPRESENTATIONS, main
from relcr.core import parse_structure, serialize_structure
from test_kernel import directed_path
from test_representations import (per_edge_encodings, sig4_corpus,
                                  special_structures)

FIX = Path(__file__).resolve().parent.parent / "fixtures"


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
