import pytest

from relcr import fixtures, generate, logic
from relcr.core import Signature, Structure
from relcr.logic import (And, Atom, CountExists, Equality, FormulaError, Not,
                         check_wf, complement_var, conjoin, evaluate, exactly,
                         from_sexp, iter_conjuncts, to_sexp, var_sort_key)
from relcr.rcr import rcr_compare, rcr_run

SIG = Signature([("R", 3), ("E", 2)])


def tiny():
    # E = {(0,1), (1,2), (2,0), (0,0)}, R = {(0,1,2)}
    return Structure.from_named(
        SIG,
        [("E", ("0", "1")), ("E", ("1", "2")), ("E", ("2", "0")),
         ("E", ("0", "0")), ("R", ("0", "1", "2"))])


def test_variable_order():
    names = ["y2", "x1", "y1p", "y1", "y10"]
    assert sorted(names, key=var_sort_key) == ["x1", "y1", "y1p", "y2", "y10"]
    assert complement_var("y3") == "y3p"
    assert complement_var("y3p") == "y3"


def test_wf_accepts_guarded_count():
    f = CountExists(1, ("y2",), Atom("E", ("y1", "y2")), Atom("E", ("y2", "y1")))
    free, depth = check_wf(f, SIG)
    assert free == {"y1"}
    assert depth == 1


def test_wf_rejects_unguarded_body():
    f = CountExists(1, ("y2",), Atom("E", ("y1", "y2")), Atom("E", ("y3", "y2")))
    with pytest.raises(FormulaError):
        check_wf(f)


def test_wf_rejects_uncovered_quantified_variable():
    f = CountExists(1, ("y3",), Atom("E", ("y1", "y2")), Equality("y1", "y1"))
    with pytest.raises(FormulaError):
        check_wf(f)


def test_wf_rejects_unordered_variable_tuple():
    f = CountExists(1, ("y2", "y1"), Atom("E", ("y1", "y2")),
                    Equality("y1", "y2"))
    with pytest.raises(FormulaError):
        check_wf(f)


def test_wf_rejects_zero_count():
    f = CountExists(0, ("y1",), Atom("E", ("y1", "y1")), Equality("y1", "y1"))
    with pytest.raises(FormulaError):
        check_wf(f)


def test_wf_checks_signature_arity():
    with pytest.raises(FormulaError):
        check_wf(Atom("E", ("y1", "y2", "y3")), SIG)


def test_evaluate_counts_distinct_neighbors():
    A = tiny()
    # vertex 0 has outgoing E-edges to 0 and 1: two distinct y2 values
    f2 = CountExists(2, ("y2",), Atom("E", ("y1", "y2")), Equality("y2", "y2"))
    f3 = CountExists(3, ("y2",), Atom("E", ("y1", "y2")), Equality("y2", "y2"))
    assert evaluate(f2, A, {"y1": 0})
    assert not evaluate(f3, A, {"y1": 0})


def test_evaluate_repeated_guard_variable():
    A = tiny()
    # guard E(y1,y1) only matches the loop at 0
    f = CountExists(1, ("y1",), Atom("E", ("y1", "y1")), Equality("y1", "y1"))
    assert evaluate(f, A, {})
    B = fixtures.a1()
    g = CountExists(1, ("y1",), Atom("E", ("y1", "y1")), Equality("y1", "y1"))
    assert not evaluate(g, B, {})


def test_evaluate_sentence_with_negation_and_conjunction():
    A = tiny()
    atom = Atom("R", ("y1", "y2", "y3"))
    body = And(Atom("E", ("y1", "y2")), Not(Atom("E", ("y2", "y1"))))
    f = CountExists(1, ("y1", "y2", "y3"), atom, body)
    assert evaluate(f, A, {})


def test_exactly_zero_is_negation():
    f = exactly(0, ("y1",), Atom("E", ("y1", "y1")), Equality("y1", "y1"))
    assert isinstance(f, Not) and isinstance(f.sub, CountExists)
    assert f.sub.n == 1


def test_conjoin_and_flatten():
    parts = [Equality("x1", "x1"), Equality("x2", "x2"), Equality("x3", "x3")]
    f = conjoin(parts)
    assert list(iter_conjuncts(f)) == parts


def test_sexp_roundtrip():
    f = exactly(
        2, ("y2", "y3"),
        Atom("R", ("y1", "y2", "y3")),
        And(Not(Equality("y2", "y3")), Atom("E", ("y2", "y3"))))
    text = to_sexp(f)
    assert to_sexp(from_sexp(text)) == text


def test_sexp_rejects_garbage():
    for bad in ["", "(atom)", "(geq 1 (vars x) (guard) (eq x x))",
                "(and (eq x x))", "(eq x)", "(not (eq x x)) junk"]:
        with pytest.raises(FormulaError):
            from_sexp(bad)


def test_synthesized_formulas_match_colors():
    for seed in range(15):
        A = generate.random_structure(SIG, 4, {"R": 2, "E": 2}, seed)
        B = generate.random_structure_like(A, seed + 77)
        res = rcr_compare(A, B)
        ctx = logic.SynthesisContext(res.trace)
        ev = logic.Evaluator(res.union)
        U = res.union
        for i in range(res.trace.stable_round + 1):
            cols = res.trace.colors_at(i)
            for c in sorted(set(cols)):
                k = ctx.color_arity(c)
                xv = tuple("y%d" % j for j in range(1, k + 1))
                f = ctx.formula(i, c, xv)
                check_wf(f, A.signature)
                for p, ref in enumerate(U.tuple_refs):
                    vec = U.vector(ref)
                    if len(vec) != k:
                        continue
                    got = ev.holds(f, dict(zip(xv, vec)))
                    assert got == (cols[p] == c)


def test_distinguishing_sentence_on_fixtures():
    for pa, pb in [(fixtures.a1(), fixtures.b1()),
                   (fixtures.a2(), fixtures.b2())]:
        sentence, side = logic.distinguishing_sentence(pa, pb)
        check_wf(sentence, pa.signature)
        hold, other = (pa, pb) if side == "A" else (pb, pa)
        assert evaluate(sentence, hold, {})
        assert not evaluate(sentence, other, {})


def test_no_sentence_for_equal_structures():
    A = fixtures.a1()
    assert logic.distinguishing_sentence(A, A) is None


def test_sentence_for_unequal_sizes():
    A = generate.random_structure(SIG, 4, {"R": 2, "E": 2}, 1)
    B = generate.random_structure(SIG, 4, {"R": 3, "E": 2}, 1)
    sentence, side = logic.distinguishing_sentence(A, B)
    hold, other = (A, B) if side == "A" else (B, A)
    assert evaluate(sentence, hold, {})
    assert not evaluate(sentence, other, {})


def test_synthesis_budget_enforced():
    A = fixtures.a2()
    trace = rcr_run(A)
    color = trace.colors_at(trace.stable_round)[0]
    with pytest.raises(logic.SynthesisBudgetError):
        logic.synthesize_color_formula(
            trace, trace.stable_round, color, node_budget=3)


def test_deep_sentence_exceeds_the_budget():
    # a 1200-fact path and a 1197-fact path plus a 3-cycle first differ
    # near round 600, past Python's recursion limit for the formula
    sig = Signature([("E", 2)])
    A = Structure.from_named(sig, [("E", (str(i), str(i + 1)))
                                   for i in range(1200)])
    B = Structure.from_named(sig, [("E", (str(i), str(i + 1)))
                                   for i in range(1197)]
                             + [("E", ("c%d" % i, "c%d" % ((i + 1) % 3)))
                                for i in range(3)])
    with pytest.raises(logic.SynthesisBudgetError):
        logic.distinguishing_sentence(A, B)
