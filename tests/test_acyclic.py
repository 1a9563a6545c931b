import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from relcr import fixtures
from relcr.acyclic import (InconsistentPrintError, JoinTree, Print, PrintNode,
                           gyo_join_tree, is_acyclic, print_from_join_tree,
                           random_acyclic, structure_from_print,
                           validate_join_tree)
from relcr.core import Signature, Structure, TupleRef
from relcr.rcr import rcr_distinguishes

SIG_E = Signature([("E", 2)])
SIG_RE = Signature([("R", 3), ("E", 2)])


def edges(*pairs):
    return [("E", p) for p in pairs]


def test_triangle_is_cyclic():
    tri = Structure.from_named(SIG_E, edges(("1", "2"), ("2", "3"), ("3", "1")))
    assert gyo_join_tree(tri) is None
    assert not is_acyclic(tri)


def test_path_is_acyclic():
    path = Structure.from_named(SIG_E, edges(("1", "2"), ("2", "3")))
    J = gyo_join_tree(path)
    assert J is not None and J.is_tree()
    assert validate_join_tree(path, J) == (True, None)


def test_a1_is_acyclic():
    # the 6-ary tuple swallows every edge as an ear
    A = fixtures.a1()
    J = gyo_join_tree(A)
    assert J is not None
    assert validate_join_tree(A, J) == (True, None)
    assert J.root == TupleRef("R", 0)


def test_gyo_on_a_long_shuffled_path():
    # a scan of every remaining pair per ear would be cubic in the length
    facts = edges(*(("c%d" % i, "c%d" % (i + 1)) for i in range(2000)))
    random.Random(5).shuffle(facts)
    path = Structure.from_named(SIG_E, facts)
    J = gyo_join_tree(path)
    assert validate_join_tree(path, J) == (True, None)


def test_gyo_is_deterministic():
    A = fixtures.a1()
    assert gyo_join_tree(A).edges == gyo_join_tree(A).edges


def test_validate_rejects_disconnected_occurrence():
    path = Structure.from_named(SIG_E, edges(("1", "2"), ("2", "3"), ("3", "4")))
    bad = JoinTree(path.tuple_refs,
                   [(TupleRef("E", 0), TupleRef("E", 2)),
                    (TupleRef("E", 2), TupleRef("E", 1))])
    ok, witness = validate_join_tree(path, bad)
    assert not ok
    assert witness is not None


def test_validate_rejects_wrong_node_set():
    path = Structure.from_named(SIG_E, edges(("1", "2"), ("2", "3")))
    with pytest.raises(ValueError):
        validate_join_tree(path, JoinTree([TupleRef("E", 0)], []))


def test_join_tree_text_roundtrip():
    A = fixtures.a1()
    J = gyo_join_tree(A)
    K = JoinTree.from_text(J.to_text())
    assert set(K.nodes) == set(J.nodes)
    assert set(K.edges) == set(J.edges)
    single = JoinTree([TupleRef("R", 0)], [])
    assert JoinTree.from_text(single.to_text()).nodes == single.nodes


SIG_TWINS = Signature([("E", 2), ("F", 2), ("R", 3)])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2**32))
def test_join_tree_text_roundtrip_random(nodes, seed):
    C, J = random_acyclic(SIG_TWINS, nodes, seed)
    for tree in (J, gyo_join_tree(C)):
        K = JoinTree.from_text(tree.to_text())
        assert set(K.nodes) == set(tree.nodes)
        assert set(K.edges) == set(tree.edges)


@pytest.mark.parametrize("line", [
    "edge: (E,0) (E,1)", "edge: (E,0) -- (E,1) -- (E,2)", "edge: (E,x) -- (E,1)",
    "node: (E0)", "node: (E,0) -- (E,1)", "vertex: (E,0)"])
def test_join_tree_text_names_a_bad_line(line):
    with pytest.raises(ValueError, match="line 2: .*%s" % re.escape(repr(line))):
        JoinTree.from_text("edge: (E,0) -- (E,1)\n" + line + "\n")


def test_print_roundtrip():
    for seed in range(30):
        C, J = random_acyclic(SIG_RE, 4, seed)
        P = print_from_join_tree(C, J)
        C2, J2 = structure_from_print(P)
        assert validate_join_tree(C2, J2) == (True, None)
        # materialization renames elements, but the result is RCR-equivalent
        assert rcr_distinguishes(C, C2) is None


def test_random_acyclic_is_acyclic_and_connected():
    for seed in range(30):
        C, J = random_acyclic(SIG_RE, 5, seed)
        assert validate_join_tree(C, J) == (True, None)
        assert gyo_join_tree(C) is not None
        seen = {0}   # tuples reached through shared elements
        stack = [0]
        while stack:
            for w, _ in C.overlaps()[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        assert len(seen) == C.size()


def test_random_acyclic_is_deterministic():
    a, _ = random_acyclic(SIG_RE, 4, 123)
    b, _ = random_acyclic(SIG_RE, 4, 123)
    assert a.relations == b.relations


def test_inconsistent_print_rejected():
    # the edge forces entries 1 and 2 of the child to coincide, but the
    # child's self type separates them
    nodes = [
        PrintNode(rho=frozenset(["E"]), arity=2,
                  tau=frozenset([(1, 1), (2, 2)])),
        PrintNode(rho=frozenset(["E"]), arity=2,
                  tau=frozenset([(1, 1), (2, 2)])),
    ]
    edges_ = [(0, 1, frozenset([(1, 1), (1, 2)]))]
    P = Print(SIG_E, nodes, edges_)
    with pytest.raises(InconsistentPrintError):
        structure_from_print(P)


def test_twin_chain_materialization():
    sig = Signature([("E", 2), ("F", 2)])
    P = Print(sig, [PrintNode(rho=frozenset(["E", "F"]), arity=2,
                              tau=frozenset([(1, 1), (2, 2)]))], [])
    C, J = structure_from_print(P)
    assert C.relations["E"] == C.relations["F"]
    assert validate_join_tree(C, J) == (True, None)
