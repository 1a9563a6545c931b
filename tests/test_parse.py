"""The structure file formats: exact errors, round trips, and what a verdict
reads of a parsed structure."""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from relcr import cli, core, fixtures, generate, rcr
from relcr.core import (Signature, Structure, disjoint_union, parse_structure,
                        serialize_structure, structure_to_json)
from relcr.rcr import rcr_distinguishes, rcr_run

MALFORMED = Path(__file__).resolve().parent.parent / "fixtures" / "malformed"
# file under fixtures/malformed, and the message after "error: <path>: "
ERRORS = [
    ("fact-first.struct", "line 1: fact before signature header"),
    ("two-headers.struct", "line 3: duplicate signature header"),
    ("unknown.struct", "line 3: unknown relation symbol 'F'"),
    ("arity.struct", "line 4: arity mismatch: R expects 3 arguments, got 2"),
    ("no-args.struct", "line 2: arity mismatch: U expects 1 arguments, got 0"),
    ("not-a-fact.struct", "line 2: expected NAME(elem, ...), got 'E a b'"),
    ("bad-arity.struct", "line 1: bad arity in 'E/x'"),
    ("no-slash.struct", "line 1: expected NAME/ARITY, got 'E'"),
    ("zero-arity.struct", "line 1: arity of E must be >= 1"),
    ("repeated-symbol.struct", "line 1: duplicate relation symbol"),
    ("empty.struct", "missing signature header"),
    ("uncovered.struct", "uncovered universe element(s): c"),
    ("invalid.json", "invalid json: Expecting property name enclosed in double "
     "quotes: line 2 column 1 (char 26)"),
    ("bad-signature.json", "bad signature field: 'int' object is not iterable"),
    ("unknown.json", "unknown relation symbol 'F'"),
    ("arity.json", "arity mismatch in E: [1]"),
]


def validate(capsys, path):
    code = cli.main(["validate", str(path)])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_the_error_table_covers_the_malformed_files():
    assert sorted(name for name, _ in ERRORS) == sorted(
        p.name for p in MALFORMED.iterdir())


@pytest.mark.parametrize("name,message", ERRORS)
def test_validate_errors_exactly(capsys, name, message):
    path = MALFORMED / name
    assert validate(capsys, path) == (1, "", "error: %s: %s\n" % (path, message))


@pytest.mark.parametrize("text,message", [
    ('{"signature": [["E", 2]], "relations": {"E": [["a", "b"]]}, '
     '"universe": ["a", "b", "c"]}', "uncovered universe element(s): c"),
    ('{"signature": [["E", 2]], "relations": [["a", "b"]]}',
     "bad relations or universe field: 'list' object has no attribute 'items'"),
    ('{"signature": [["E", 2]], "relations": {"E": [5]}}',
     "bad relations or universe field: object of type 'int' has no len()"),
    ('{"signature": [["E", 2]], "relations": {"E": [["a", "b"]]}, '
     '"universe": 3}', "bad relations or universe field: 'int' object is not "
     "iterable"),
])
def test_malformed_json_fields_are_errors(tmp_path, capsys, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert validate(capsys, path) == (1, "", "error: %s: %s\n" % (path, message))


def test_deeply_nested_json_is_an_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out, err = validate(capsys, path)
    assert (code, out) == (1, "")
    assert err.startswith("error: %s: invalid json: " % path), err


SIG = Signature([("R", 3), ("E", 2), ("U", 1)])
element_names = st.text("abcxyz019_.:-", min_size=1, max_size=3)


@st.composite
def named_structures(draw):
    """(A, facts): A numbers its elements by first occurrence over its
    facts in signature order, as a parse of its serialization does."""
    names = draw(st.lists(element_names, min_size=1, max_size=7, unique=True))
    facts = {rel: draw(st.lists(st.tuples(*[st.sampled_from(names)] * arity),
                                max_size=6))
             for rel, arity in SIG.symbols}
    facts["E"].append((names[0], names[-1]))
    A = Structure.from_named(SIG, [(rel, vec) for rel, _ in SIG.symbols
                                   for vec in facts[rel]])
    return A, facts


@given(named_structures(), st.randoms(use_true_random=False))
def test_text_and_json_round_trips(drawn, rnd):
    A, facts = drawn
    # a structure of fewer than SMALL_FACTS facts is built as tuples, one of
    # more as arrays; repeating every fact builds A from arrays
    head, *body = serialize_structure(A).splitlines()
    repeated = "\n".join([head] + body * core.SMALL_FACTS) + "\n"
    for B in (parse_structure(serialize_structure(A)),
              parse_structure(structure_to_json(A), fmt="json"),
              parse_structure(repeated)):
        assert B == A and B.element_names == A.element_names
        assert all((B.rows[name] == A.rows[name]).all() for name in A.rows)
    # the declared universe numbers the elements first, facts repeat and
    # interleave their relations, and a comment or a blank line may follow
    queues = [[(rel, vec) for vec in facts[rel]] for rel, _ in SIG.symbols]
    lines = []
    while any(queues):
        q = rnd.choice([q for q in queues if q])
        rel, vec = q.pop(0) if rnd.random() < 0.8 else q[0]
        lines.append("%s( %s )%s" % (rel, " ,".join(vec),
                                      rnd.choice(["", "  # note", " "])))
    declared = "universe: " + ", ".join(reversed(A.element_names))
    lines.insert(rnd.randrange(len(lines) + 1), declared)
    text = "signature: R/3, E/2, U/1\n\n" + "\n".join(lines) + "\n"
    B = parse_structure(text)
    assert B.element_names == A.element_names[::-1]
    assert B.rename([A.n - 1 - x for x in range(A.n)]) == A


def full_run_verdict(A, B):
    U, info = disjoint_union(A, B)
    sides = {"A": [], "B": []}
    for k, ref in enumerate(U.tuple_refs):
        sides[info.side(ref)].append(k)
    return rcr_run(U).first_difference(sides["A"], sides["B"])


def chain(m, cycle=0):
    """A directed E path of m - cycle facts plus a directed cycle."""
    facts = [("E", ("p%d" % i, "p%d" % (i + 1))) for i in range(m - cycle)]
    facts += [("E", ("c%d" % i, "c%d" % ((i + 1) % cycle))) for i in range(cycle)]
    return Structure.from_named(Signature([("E", 2)]), facts)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(2, 90), st.sampled_from(
    ["like", "copy", "plus-one", "path"]))
def test_verdict_equals_the_full_run(seed, n, kind):
    rng = random.Random(seed)
    sig = Signature([("R", 3), ("E", 2)])
    A = generate.random_structure(sig, max(3, n // 2),
                                  {"R": n // 2, "E": n - n // 2}, seed)
    if kind == "like":
        B = generate.random_structure_like(A, seed + 1)
    elif kind == "copy":
        perm = list(range(A.n))
        rng.shuffle(perm)
        B = A.rename(perm)
    elif kind == "plus-one":
        extra = [("E", ("new", A.element_names[0]))]
        B = Structure.from_named(sig, [(r.relation, [A.element_names[x] for x
                                                     in A.vector(r)])
                                       for r in A.tuple_refs] + extra)
    else:
        A, B = chain(n + 3), chain(n + 3, rng.randint(1, 3 + n // 2))
    assert rcr_distinguishes(A, B) == full_run_verdict(A, B)


def test_size_pair_needs_no_slices(monkeypatch):
    sig = Signature([("R", 3), ("E", 2)])
    A = generate.random_structure(sig, 60, {"R": 50, "E": 50}, 3)
    B = generate.random_structure(sig, 60, {"R": 50, "E": 51}, 4)
    want = full_run_verdict(A, B)

    def refuse(*args):
        raise AssertionError("shared sets listed for a round-0 verdict")

    monkeypatch.setattr(rcr, "shared_sets", refuse)
    assert rcr_distinguishes(A, B) == want and want[0] == 0


def test_distinguish_builds_no_tuple_objects(tmp_path, capsys, monkeypatch):
    sig = Signature([("R", 3), ("E", 2)])
    A = generate.random_structure(sig, 400, {"R": 200, "E": 200}, 1)
    B = generate.random_structure_like(A, 2)
    paths = []
    for side, S in (("a", A), ("b", B)):
        paths.append(tmp_path / ("%s.struct" % side))
        paths[-1].write_text(serialize_structure(S))
    seen = []
    union = rcr.disjoint_union

    def spy(X, Y):
        U, info = union(X, Y)
        seen.extend((X, Y, U))
        return U, info

    monkeypatch.setattr(rcr, "disjoint_union", spy)
    assert cli.main(["distinguish", *map(str, paths)]) == 0
    assert capsys.readouterr().out.startswith("distinguished: round ")
    assert len(seen) == 3
    for S in seen:
        assert "tuple_refs" not in vars(S) and "relations" not in vars(S)


@pytest.mark.parametrize("name", ["A1", "A2", "B1", "B2", "slice_example"])
def test_fixture_files_equal_their_builders(name):
    # ids differ (the builders of B1 and B2 declare a universe), so the
    # structures are compared by signature and by facts over element names
    def facts(A):
        return {(rel, tuple(A.element_names[i] for i in vec))
                for rel, vecs in A.relations.items() for vec in vecs}

    built = getattr(fixtures, name.lower())()
    parsed = parse_structure((MALFORMED.parent / (name + ".struct")).read_text())
    assert parsed.signature == built.signature
    assert facts(parsed) == facts(built)
