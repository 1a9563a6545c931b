import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from relcr import fixtures
from relcr.acyclic import (JoinTree, gyo_join_tree, is_acyclic, random_acyclic,
                           validate_join_tree)
from relcr.core import Signature, Structure, TupleRef, serialize_structure

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


SIG_WIDE = Signature([("P", 5), ("E", 2), ("F", 2), ("R", 3)])


def test_random_acyclic_is_acyclic_and_connected():
    for sig in (SIG_RE, SIG_TWINS, SIG_WIDE):
        for seed in range(30):
            nodes = 5 if sig is SIG_RE else 1 + seed % 8
            C, J = random_acyclic(sig, nodes, seed)
            assert validate_join_tree(C, J) == (True, None)
            assert gyo_join_tree(C) is not None
            starts, other, _, _ = C.overlaps
            seen = {0}   # tuples reached through shared elements
            stack = [0]
            while stack:
                v = stack.pop()
                for w in other[starts[v]:starts[v + 1]]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            assert len(seen) == C.size()
            # one vector per node, held by the one or two symbols it drew;
            # twin facts of a vector sit next to each other in J
            node_facts: dict = {}
            for r in C.tuple_refs:
                node_facts.setdefault(C.vector(r), []).append(r)
            assert len(node_facts) == nodes
            adjacent = set(J.edges) | {(v, u) for u, v in J.edges}
            for vec, refs in node_facts.items():
                assert len(refs) in (1, 2)
                assert C.atp(vec) == {r.relation for r in refs}
                assert len(refs) == 1 or (refs[0], refs[1]) in adjacent


GOLDEN = [
    (SIG_RE, 4, 7, """\
signature: R/3, E/2
R(e1, e2, e2)
R(e2, e2, e1)
R(e1, e1, e3)
E(e1, e1)
""", """\
edge: (R,0) -- (R,1)
edge: (R,1) -- (R,2)
edge: (R,2) -- (E,0)
"""),
    (SIG_TWINS, 5, 2, """\
signature: E/2, F/2, R/3
E(e1, e2)
F(e1, e2)
F(e1, e1)
R(e1, e1, e2)
R(e2, e2, e2)
R(e1, e1, e1)
""", """\
edge: (E,0) -- (F,0)
edge: (E,0) -- (F,1)
edge: (E,0) -- (R,0)
edge: (E,0) -- (R,1)
edge: (F,1) -- (R,2)
"""),
    (SIG_WIDE, 4, 4, """\
signature: P/5, E/2, F/2, R/3
P(e1, e2, e3, e3, e3)
E(e2, e2)
F(e2, e2)
R(e3, e2, e2)
R(e1, e3, e2)
""", """\
edge: (E,0) -- (F,0)
edge: (P,0) -- (R,0)
edge: (P,0) -- (R,1)
edge: (R,0) -- (E,0)
"""),
]


@pytest.mark.parametrize("sig,nodes,seed,structure,tree", GOLDEN)
def test_random_acyclic_golden(sig, nodes, seed, structure, tree):
    # element names, fact order and join-tree edges are part of the output
    C, J = random_acyclic(sig, nodes, seed)
    assert serialize_structure(C) == structure
    assert J.to_text() == tree


def test_random_acyclic_is_deterministic():
    a, _ = random_acyclic(SIG_RE, 4, 123)
    b, _ = random_acyclic(SIG_RE, 4, 123)
    assert a.relations == b.relations
