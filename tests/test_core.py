import itertools
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hash_outputs import hub, permuted, six_ary, twins, wide

from relcr import core, fixtures, generate, logic
from relcr.core import (ParseError, Signature, Structure, StructureError,
                        disjoint_union, is_transitive_stp, parse_structure,
                        self_stp, serialize_structure, stp,
                        structure_to_json, strictly_equal_size)
from relcr.rcr import rcr_compare

small_tuples = st.lists(st.integers(0, 4), min_size=1, max_size=5).map(tuple)


@given(small_tuples, small_tuples)
def test_stp_symmetry(a, b):
    tau = stp(a, b)
    assert {(j, i) for (i, j) in tau} == stp(b, a)


@given(small_tuples)
def test_stp_self_contains_diagonal(a):
    tau = stp(a, a)
    assert {(i, i) for i in range(1, len(a) + 1)} <= tau


@given(small_tuples, small_tuples)
def test_stp_nonempty_iff_sets_meet(a, b):
    assert bool(stp(a, b)) == bool(set(a) & set(b))


@given(small_tuples, small_tuples)
def test_stp_transitivity_condition(a, b):
    assert is_transitive_stp(stp(a, b))


@given(small_tuples, small_tuples)
def test_equal_self_stp_iff_positional_bijection(a, b):
    # oracle: try to build the map a_i -> b_i by hand and check bijectivity
    def positional_bijection(x, y):
        if len(x) != len(y):
            return False
        m = {}
        for p, q in zip(x, y):
            if m.setdefault(p, q) != q:
                return False
        return len(set(m.values())) == len(m)

    assert (self_stp(a) == self_stp(b)) == positional_bijection(a, b)


def test_structure_rejects_uncovered_elements():
    sig = Signature([("E", 2)])
    with pytest.raises(StructureError):
        Structure.from_named(sig, [("E", ("a", "b"))], universe=["a", "b", "c"])


def test_structure_rejects_bad_arity():
    sig = Signature([("E", 2)])
    with pytest.raises(StructureError):
        Structure.from_named(sig, [("E", ("a", "b", "c"))])


def test_empty_relation_is_legal():
    sig = Signature([("E", 2), ("F", 2)])
    A = Structure.from_named(sig, [("E", ("a", "b"))])
    assert A.relations["F"] == ()


def test_duplicate_facts_collapse():
    sig = Signature([("E", 2)])
    A = Structure.from_named(sig, [("E", ("a", "b")), ("E", ("a", "b"))])
    assert len(A.relations["E"]) == 1


@pytest.mark.parametrize("highs, sorts", [
    ((1000,), 0),             # span 1,002, below the table's 16 * 100 + 64
    ((1662,), 0),             # span 1,664, at it
    ((1663,), 1),             # span 1,665, above it
    ((5, 6), 0),              # span 7 * 8
    ((10 ** 6, 3), 1),
    ((2 ** 40, 2 ** 40), 2),  # renumbered before the second column
])
def test_row_ids_equal_the_ranks_of_unique(monkeypatch, highs, sorts):
    # 100 rows with repeats and -1 entries, column c reaching highs[c]; a
    # span of at most 16 rows + 64 is ranked by the table pass, any other
    # by one np.unique per renumbering
    rng = np.random.default_rng(len(highs) + highs[-1] % 97)
    pool = rng.integers(-1, np.array(highs) + 1, size=(30, len(highs)))
    rows = pool[rng.integers(0, 30, size=100)]
    rows[0], rows[1] = highs, -1
    _, inverse = np.unique(rows, axis=0, return_inverse=True)
    calls = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *args, **kwargs: calls.append(
        1) or unique(*args, **kwargs))
    ids, count = core._row_ids(rows)
    assert ids.tolist() == inverse.ravel().tolist()
    assert count == len(set(map(tuple, rows.tolist())))
    assert len(calls) == sorts


def test_first_rows_keep_first_places_past_the_packed_key(monkeypatch):
    # 6-ary rows over 2,000 elements: six 11-bit columns pass 63 bits, so
    # _first_rows finds repeats by the ranks of _row_ids
    n = 2000
    assert (n - 1).bit_length() * 6 >= 63
    rng = np.random.default_rng(5)
    distinct = rng.integers(0, n, size=(300, 6))
    rows = distinct[rng.integers(0, 300, size=900)]
    ranked = []
    row_ids = core._row_ids
    monkeypatch.setattr(core, "_row_ids", lambda rows: ranked.append(
        len(rows)) or row_ids(rows))
    want = [list(t) for t in dict.fromkeys(map(tuple, rows.tolist()))]
    assert core._first_rows(rows, n).tolist() == want
    once = np.array(want, dtype=np.int64)
    assert core._first_rows(once, n) is once
    assert ranked == [900, len(want)]


def test_parse_serialize_roundtrip_fixture():
    for make in (fixtures.a1, fixtures.b1, fixtures.a2, fixtures.b2):
        A = make()
        text = serialize_structure(A)
        B = parse_structure(text)
        # ids may be assigned differently, but the named facts round-trip
        assert serialize_structure(B) == text


def test_parse_comments_and_blank_lines():
    A = parse_structure(
        "# a comment\nsignature: E/2\n\nE(x, y)  # trailing\nE(y, x)\n")
    assert len(A.relations["E"]) == 2


def test_parse_error_carries_line():
    with pytest.raises(ParseError):
        parse_structure("signature: E/2\nE(x)\n")


def test_json_roundtrip():
    A = fixtures.a2()
    B = parse_structure(structure_to_json(A), fmt="json")
    assert A.relations == B.relations


def test_disjoint_union_sizes():
    A, B = fixtures.a1(), fixtures.b1()
    U, info = disjoint_union(A, B)
    assert U.n == 12
    assert len(U.tuple_refs) == 14
    for name, rows in U.rows.items():   # A's tuples, then B's renamed apart
        split = info.counts_a[name]
        assert (rows[:split] == A.rows[name]).all()
        assert (rows[split:] - info.offset == B.rows[name]).all()


def test_strictly_equal_size():
    assert strictly_equal_size(fixtures.a1(), fixtures.b1())
    assert not strictly_equal_size(fixtures.a1(), fixtures.slice_example())


def _cohesion_oracle(A):
    # independent pair scan straight off the definition
    refs = A.tuple_refs
    return sum(
        1
        for r, s in itertools.product(refs, repeat=2)
        if r != s and set(A.vector(r)) & set(A.vector(s)))


def test_cohesion_single_tuple():
    A = Structure.from_named(Signature([("R", 3)]), [("R", ("a", "b", "a"))])
    assert A.metrics() == (1, 0)


def test_cohesion_matches_pair_scan():
    for make in (fixtures.a1, fixtures.b1, fixtures.a2, fixtures.slice_example):
        A = make()
        size, coh = A.metrics()
        assert size == len(A.tuple_refs)
        assert coh == _cohesion_oracle(A)
        assert coh < size * size


def test_cohesion_random():
    rng = random.Random(3)
    sig = Signature([("R", 3), ("E", 2)])
    for _ in range(25):
        facts = [("R", tuple(str(rng.randrange(5)) for _ in range(3)))
                 for _ in range(rng.randrange(1, 6))]
        facts += [("E", tuple(str(rng.randrange(5)) for _ in range(2)))
                  for _ in range(rng.randrange(1, 6))]
        A = Structure.from_named(sig, facts)
        assert A.metrics()[1] == _cohesion_oracle(A)


@pytest.mark.parametrize("budget", [0, 10 ** 6])
def test_cohesion_by_shared_sets_equals_the_pair_scan(monkeypatch, budget):
    # by inclusion-exclusion over the shared sets, or, with no budget for
    # them, from position sets; twins, permuted copies, repeated entries,
    # hubs and 6-ary chains among the cases
    monkeypatch.setattr(core, "LISTING_PER_TUPLE", budget)
    sig = Signature([("R", 3), ("E", 2)])
    cases = [six_ary(shape, n, 3) for shape in ("random", "hub", "chain")
             for n in (40, 130)]
    cases += [permuted(96, 9), twins(90, 10), hub(120, 3), wide(70, 3),
              generate.random_structure(sig, 2, {"R": 6, "E": 3}, 7),
              Structure.from_named(sig, [("R", ("a", "b", "a")), ("E", ("a", "b")),
                                         ("E", ("b", "a")), ("R", ("b", "a", "a"))])]
    cases += [fixtures.a1(), fixtures.b2(), fixtures.slice_example()]
    listed = [core.shared_sets(core.distinct_elements(
        A, core.relation_rows(A))) for A in cases]
    if budget:
        assert max(map(len, listed)) == 6
    else:
        assert all(levels is None for levels in listed)
    for A in cases:
        assert A.metrics() == (A.size(), _cohesion_oracle(A))


def test_rename_keeps_metrics():
    A = fixtures.a2()
    perm = list(range(A.n))
    random.Random(0).shuffle(perm)
    assert A.rename(perm).metrics() == A.metrics()


fact_lists = st.lists(st.one_of(
    st.tuples(st.just("R"), st.tuples(*[st.integers(0, 5)] * 3)),
    st.tuples(st.just("E"), st.tuples(*[st.integers(0, 5)] * 2))),
    min_size=1, max_size=12)


@given(fact_lists, st.randoms(use_true_random=False))
def test_overlaps_match_a_pair_scan(fs, rnd):
    sig = Signature([("R", 3), ("E", 2)])
    A = Structure.from_named(sig, fs)
    vecs = [A.vector(r) for r in A.tuple_refs]
    scan = [[(b, tuple(sorted(stp(va, vb))))
             for b, vb in enumerate(vecs) if set(va) & set(vb)]
            for va in vecs]
    starts, other, label, taus = A.overlaps
    assert len(starts) == len(vecs) + 1 and starts[-1] == len(other) == len(label)
    assert [[(b, taus[t]) for b, t in zip(other[lo:hi], label[lo:hi])]
            for lo, hi in zip(starts, starts[1:])] == scan
    # the similarity types, numbered by first occurrence over the rows
    assert taus == list(dict.fromkeys(tau for near in scan for _, tau in near))
    assert A.overlaps is A.overlaps
    assert A.metrics() == (len(vecs), sum(len(near) - 1 for near in scan))
    perm = list(range(A.n))
    rnd.shuffle(perm)
    assert A.rename(perm).overlaps == A.overlaps


def test_synthesis_reuses_the_reference_overlaps(monkeypatch):
    res = rcr_compare(fixtures.a1(), fixtures.b1())   # 14 tuples: worklist
    U = res.union
    calls = []
    monkeypatch.setattr(core, "stp", lambda a, b: calls.append(1) or stp(a, b))
    ctx = logic.SynthesisContext(res.trace)
    assert not calls   # the lists the overlap worklist built, not new ones
    _, _, label, taus = U.overlaps
    assert ctx.realized_taus == sorted(taus) == sorted({taus[t] for t in label})
    assert ctx.trace.structure.overlaps is U.overlaps
