import itertools
import random

import hash_outputs
import pytest
from hypothesis import given, settings, strategies as st

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


def test_evaluator_reused_across_fresh_formulas():
    # each formula is freed before the next is built, so a cache keyed by
    # id() would answer for a dead node whose id is reused
    ev = logic.Evaluator(tiny())
    wrong = 0
    for k in range(200):
        atom = Atom("E", ("y1", "y2"))
        f = atom if k % 2 == 0 else Not(atom)
        wrong += ev.holds(f, {"y1": 0, "y2": 1}) != (k % 2 == 0)
    assert wrong == 0


def brute_holds(f, A, a) -> bool:
    """Reference semantics: a count tries every value of its quantified
    tuple, not only the guard's rows."""
    if isinstance(f, Atom):
        return A.holds(f.rel, tuple(a[v] for v in f.vars))
    if isinstance(f, Equality):
        return a[f.x] == a[f.y]
    if isinstance(f, Not):
        return not brute_holds(f.sub, A, a)
    if isinstance(f, And):
        return brute_holds(f.left, A, a) and brute_holds(f.right, A, a)
    count = 0
    for vals in itertools.product(range(A.n), repeat=len(f.vars)):
        b = dict(a, **dict(zip(f.vars, vals)))
        count += brute_holds(f.guard, A, b) and brute_holds(f.body, A, b)
    return count >= f.n


POOL = ("y1", "y2", "y3", "y4")


def random_formula(rng, scope, depth):
    """A well-formed formula with free variables in `scope`: guards repeat
    variables and take some from outside, counts come as `exactly` pairs
    (shared guard and body) and under negation."""
    kind = rng.choice(["atom", "eq", "not", "and", "count", "count"]
                      if depth else ["atom", "eq"])
    if kind == "atom":
        rel = rng.choice(["R", "E"])
        return Atom(rel, [rng.choice(scope) for _ in range(SIG.arity[rel])])
    if kind == "eq":
        return Equality(rng.choice(scope), rng.choice(scope))
    if kind == "not":
        return Not(random_formula(rng, scope, depth - 1))
    if kind == "and":
        return And(random_formula(rng, scope, depth - 1),
                   random_formula(rng, scope, depth - 1))
    rel = rng.choice(["R", "E"])
    bound = rng.sample(POOL, rng.randint(1, 2))   # may shadow outer names
    guard = Atom(rel, [rng.choice(bound) if rng.random() < 0.6
                       else rng.choice(scope) for _ in range(SIG.arity[rel])])
    vs = tuple(sorted(set(bound) & set(guard.vars), key=var_sort_key))
    inner = tuple(dict.fromkeys(guard.vars))
    body = random_formula(rng, inner, depth - 1)
    n = rng.randint(0 if rng.random() < 0.5 else 1, 3)
    if n == 0 or rng.random() < 0.5:
        return exactly(n, vs, guard, body)
    f = CountExists(n, vs, guard, body)
    if rng.random() < 0.3:   # the same guard and variables, another body
        twin = random_formula(rng, inner, depth - 1)
        return And(f, CountExists(n, vs, Atom(rel, guard.vars), twin))
    return Not(f) if rng.random() < 0.3 else f


def test_evaluate_matches_brute_force():
    rng = random.Random(18)
    tried = 0
    for seed in range(60):
        A = generate.random_structure(SIG, rng.randint(3, 4),
                                      {"R": rng.randint(1, 5),
                                       "E": rng.randint(1, 6)}, seed)
        for _ in range(10):
            f = random_formula(rng, ("y1", "y2"), rng.randint(1, 4))
            check_wf(f, SIG)
            for x, y in itertools.product(range(A.n), repeat=2):
                a = {"y1": x, "y2": y}
                assert evaluate(f, A, a) == brute_holds(f, A, a), to_sexp(f)
                tried += 1
    assert tried > 2000


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 4))
def test_sexp_roundtrip_on_random_guarded_formulas(rng, depth):
    f = random_formula(rng, ("y1", "y2"), depth)
    check_wf(f, SIG)
    text = to_sexp(f)
    assert to_sexp(from_sexp(text)) == text


def test_sexp_roundtrip_on_synthesized_sentences():
    # the pairs of the hash tool's sentence section, the fixtures first
    texts = []
    for _, A, B in hash_outputs.corpus()[1]:
        got = hash_outputs.sentence(A, B).split("\n")
        if len(got) == 3:   # a sentence and its side, not None or an error
            texts.append(got[0])
    assert len(texts) > 30
    for text in texts:
        assert to_sexp(from_sexp(text)) == text


def test_check_wf_deep_negation_chain():
    f = Atom("E", ("y1", "y2"))
    for _ in range(10 ** 4):
        f = Not(f)
    assert check_wf(f, SIG) == ({"y1", "y2"}, 0)


def test_check_wf_deep_nested_counts():
    f = Atom("E", ("y1", "y2"))
    for _ in range(2000):
        f = CountExists(1, ("y2",), Atom("E", ("y1", "y2")), f)
    assert check_wf(f, SIG) == ({"y1"}, 2000)


def test_check_wf_rejects_a_cyclic_formula():
    f = Not(Atom("E", ("y1", "y2")))
    f.sub = And(Atom("E", ("y1", "y2")), f)
    with pytest.raises(FormulaError, match="cyclic"):
        check_wf(f)


def reference_check(f, signature):
    """A recursive walk in the order check_wf must raise its errors."""
    if isinstance(f, Atom):
        if f.rel not in signature.arity:
            raise FormulaError("unknown relation symbol %s" % f.rel)
        if signature.arity[f.rel] != len(f.vars):
            raise FormulaError("arity mismatch in atom %s" % f.rel)
        return frozenset(f.vars), 0
    if isinstance(f, Equality):
        return frozenset((f.x, f.y)), 0
    if isinstance(f, Not):
        return reference_check(f.sub, signature)
    if isinstance(f, And):
        lf, ld = reference_check(f.left, signature)
        rf, rd = reference_check(f.right, signature)
        return lf | rf, max(ld, rd)
    if not isinstance(f, CountExists):
        raise FormulaError("unknown formula node %r" % (f,))
    if f.n < 1:
        raise FormulaError("count must be >= 1")
    if not isinstance(f.guard, Atom):
        raise FormulaError("guard must be an atom")
    gfree, _ = reference_check(f.guard, signature)
    bfree, depth = reference_check(f.body, signature)
    vs = f.vars
    if len(set(vs)) != len(vs):
        raise FormulaError("duplicate quantified variable")
    if list(vs) != sorted(vs, key=var_sort_key):
        raise FormulaError("quantified variables out of order")
    if not set(vs) <= gfree:
        raise FormulaError("quantified variables not covered by guard")
    if not bfree <= gfree:
        raise FormulaError("body variable outside the guard")
    return gfree - set(vs), depth + 1


def random_faulty_formula(rng, depth):
    """Formulas that may break any rule, several at once, sharing nodes."""
    kind = rng.choice(["atom", "eq", "not", "and", "and", "count"]
                      if depth else ["atom"] * 8 + ["eq"] * 7 + ["junk"])
    if kind == "junk":
        return rng.choice(["junk", ["junk"]])
    if kind == "atom":
        rel = rng.choice(["R", "E", "E", "Z"])
        return Atom(rel, rng.choices(POOL, k=rng.choice([1, 2, 2, 3])))
    if kind == "eq":
        return Equality(*rng.choices(POOL, k=2))
    if kind == "not":
        return Not(random_faulty_formula(rng, depth - 1))
    if kind == "and":
        left = random_faulty_formula(rng, depth - 1)
        return And(left, left if rng.random() < 0.2
                   else random_faulty_formula(rng, depth - 1))
    guard = (random_faulty_formula(rng, 0) if rng.random() < 0.9
             else Not(Atom("E", ("y1", "y2"))))
    vs = rng.choices(POOL, k=rng.randint(0, 3))
    if rng.random() < 0.6:
        vs = sorted(set(vs), key=var_sort_key)
    return CountExists(rng.choice([0, 1, 1, 2]), vs, guard,
                       random_faulty_formula(rng, depth - 1))


def test_check_wf_raises_in_recursive_order():
    rng = random.Random(5)
    faults = set()
    for _ in range(3000):
        f = random_faulty_formula(rng, rng.randint(1, 5))
        try:
            want = reference_check(f, SIG)
        except FormulaError as e:
            faults.add(str(e))
            with pytest.raises(FormulaError) as got:
                check_wf(f, SIG)
            assert str(got.value) == str(e)
        else:
            assert check_wf(f, SIG) == want
    assert faults >= {
        "count must be >= 1", "guard must be an atom",
        "unknown formula node 'junk'", "unknown formula node ['junk']",
        "unknown relation symbol Z", "arity mismatch in atom E",
        "duplicate quantified variable", "quantified variables out of order",
        "quantified variables not covered by guard",
        "body variable outside the guard"}
