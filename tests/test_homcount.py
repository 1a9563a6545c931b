import sys
import tracemalloc

import numpy as np
import pytest

from relcr import fixtures, generate, homcount, representations
from relcr.acyclic import JoinTree, gyo_join_tree, random_acyclic
from relcr.core import Signature, Structure
from relcr.homcount import (TooLargeError, hom_acyclic, hom_bruteforce,
                            hom_multigraph)

SIG_E = Signature([("E", 2)])
SIG_RE = Signature([("R", 3), ("E", 2)])
# two binary symbols, so that one vector can lie in both, and a 5-ary one
SIG_WIDE = Signature([("E", 2), ("F", 2), ("R", 3), ("P", 5)])


def directed_path(k):
    return Structure.from_named(
        SIG_E, [("E", (str(i), str(i + 1))) for i in range(k)])


def directed_cycle(n):
    return Structure.from_named(
        SIG_E, [("E", (str(i), str((i + 1) % n))) for i in range(n)])


def test_acyclic_dp_on_a_long_path():
    # walks of length 1200 in a 3-fact target: the sum of the entries of the
    # 1200th power of its adjacency matrix [[0, 1], [1, 1]]
    C = directed_path(1200)
    T = Structure.from_named(SIG_E, [("E", ("a", "b")), ("E", ("b", "a")),
                                     ("E", ("b", "b"))])
    m = [[1, 0], [0, 1]]
    for _ in range(1200):
        m = [[m[i][1], m[i][0] + m[i][1]] for i in range(2)]
    assert hom_acyclic(C, gyo_join_tree(C), T) == sum(map(sum, m))


def test_multigraph_count_on_a_long_path():
    # the join-tree representation of a 1200-fact path is a 1200-node tree;
    # its count into grep of the target is the same power of the adjacency
    # matrix as in test_acyclic_dp_on_a_long_path
    C = directed_path(1200)
    T = Structure.from_named(SIG_E, [("E", ("a", "b")), ("E", ("b", "a")),
                                     ("E", ("b", "b"))])
    m = [[1, 0], [0, 1]]
    for _ in range(1200):
        m = [[m[i][1], m[i][0] + m[i][1]] for i in range(2)]
    tree = representations.jtrep(C, gyo_join_tree(C))[0]
    assert hom_multigraph(tree, representations.grep(T)[0]) == sum(map(sum, m))


def test_path_into_cycle_closed_form():
    # walks of length k around a directed n-cycle: one per starting vertex
    for k in (1, 2, 3):
        for n in (3, 4, 5):
            assert hom_bruteforce(directed_path(k), directed_cycle(n)) == n


def test_single_tuple_counts_rows():
    C = Structure.from_named(fixtures.SIG_CYCLES, [("E", ("x", "y"))])
    A = fixtures.a1()
    # distinct-element single tuple: one hom per E-row of the target
    count = hom_bruteforce(C, A)
    assert count == len(A.relations["E"])


def test_hom_to_itself_is_positive():
    A = fixtures.a1()
    assert hom_bruteforce(A, A) >= 1


def test_no_hom_between_the_cycle_fixtures():
    assert hom_bruteforce(fixtures.a1(), fixtures.b1()) == 0


def test_guard_rejects_huge_instances():
    C = generate.random_graph_structure(30, 0.2, 0)
    A = generate.random_graph_structure(30, 0.2, 1)
    with pytest.raises(TooLargeError):
        hom_bruteforce(C, A)


def test_signature_mismatch_rejected():
    with pytest.raises(ValueError):
        hom_bruteforce(fixtures.a1(), fixtures.a2())


def dp_cases():
    """(C, A) pairs, C acyclic, on which the join-tree DP is checked."""
    for seed in range(40):
        C, _ = random_acyclic(SIG_RE, 3, seed)
        yield C, generate.random_structure(SIG_RE, 6, {"R": 4, "E": 4}, seed + 1000)
    # random prints over SIG_WIDE: nodes in two relations, repeated entries
    # and 5-ary facts, into small targets where entries repeat often
    for seed in range(30):
        C, _ = random_acyclic(SIG_WIDE, 2 + seed % 3, seed)
        sizes = {"E": 6, "F": 6, "R": 14, "P": 120}
        yield C, generate.random_structure(SIG_WIDE, 3, sizes, seed + 3000)
    facts = [("E", "ab"), ("E", "ba"), ("E", "aa"), ("E", "bb"), ("E", "cc"),
             ("F", "ab"), ("F", "bb"), ("F", "aa"), ("F", "bc"),
             ("R", "aab"), ("R", "abc"), ("R", "ccc"), ("R", "bba"),
             ("P", "aabcc"), ("P", "ababa"), ("P", "aaaaa"), ("P", "abcbc"),
             ("P", "abacc"), ("P", "bcabb"), ("P", "ccccc")]
    target = Structure.from_named(SIG_WIDE, facts)
    no_r = Structure.from_named(SIG_WIDE, [f for f in facts if f[0] != "R"])
    patterns = [
        # one vector in E and in F
        [("E", "xy"), ("F", "xy"), ("E", "yz")],
        [("E", "xx"), ("F", "xx")],
        # repeated elements inside one tuple
        [("R", "xxy"), ("E", "yy"), ("P", "xyxzz")],
        [("P", "xyxyx"), ("R", "xyw"), ("F", "wv")],
        # 5-ary facts sharing several elements
        [("P", "xyzuv"), ("P", "zuvst"), ("E", "tt")],
        # a relation that is empty in the target
        [("R", "xyz"), ("E", "zw")],
        # two components: a join-tree edge between tuples sharing nothing
        [("E", "xy"), ("F", "yz"), ("P", "uvuvw"), ("E", "ww")],
        # the empty structure
        [],
    ]
    for facts in patterns:
        C = Structure.from_named(SIG_WIDE, facts)
        yield C, target
        yield C, no_r


def test_acyclic_dp_matches_bruteforce():
    for C, A in dp_cases():
        J = gyo_join_tree(C)
        assert J is not None
        for root in J.nodes or (None,):
            rooted = JoinTree(J.nodes, J.edges, root=root)
            assert hom_acyclic(C, rooted, A) == hom_bruteforce(C, A), (C, A, root)


def test_acyclic_dp_is_exact_above_int64():
    # a 40-leaf out-star into the complete digraph with loops on 30
    # elements: 30 images of the centre, 30 of each leaf, 30 * 30^40 > 2^63
    C = Structure.from_named(SIG_E, [("E", ("c", "l%d" % i)) for i in range(40)])
    K = Structure.from_named(SIG_E, [("E", (str(a), str(b)))
                                     for a in range(30) for b in range(30)])
    # GYO chains the leaves, so each message's group sum passes 2^62 first;
    # on the star join tree the centre's products do, 30 at a time
    refs = C.tuple_refs
    star = [(refs[0], r) for r in refs[1:]]
    for J in (gyo_join_tree(C), JoinTree(refs, star)):
        for root in (J.nodes[0], J.nodes[-1], None):
            rooted = JoinTree(J.nodes, J.edges, root=root)
            assert hom_acyclic(C, rooted, K) == 30 ** 41
    # a 40-fact walk into the same target: 30^41 as well, via products
    assert hom_acyclic(directed_path(40), gyo_join_tree(directed_path(40)),
                       K) == 30 ** 41
    # two disjoint 20-leaf out-stars: the join-tree edge between them
    # shares no element, and its message, 30^21 > 2^63, is one object count
    C = Structure.from_named(SIG_E, [("E", (c, "%s%d" % (c, i)))
                                     for c in "ab" for i in range(20)])
    assert hom_acyclic(C, gyo_join_tree(C), K) == 30 ** 42


def test_acyclic_dp_is_exact_through_multi_element_messages(monkeypatch):
    # 12 facts R(x, y, z_i) into the complete R/3 relation on 30 elements:
    # 30^2 images of x and y, 30 of each z_i, 30^14 > 2^63 in all.  Every
    # two facts share x and y, so every message is keyed by the joint rank
    # of both tables' (x, y) columns (_row_ids); below most roots a
    # message's sum may pass 2^62 by the bound's estimate, and its counts
    # are Python ints
    exact = []
    row_ids = homcount._row_ids

    def spy(rows):
        exact.append(sys._getframe(1).f_locals["counts"].dtype == object)
        return row_ids(rows)

    monkeypatch.setattr(homcount, "_row_ids", spy)
    C = Structure.from_named(Signature([("R", 3)]),
                             [("R", ("x", "y", "z%d" % i)) for i in range(12)])
    K = Structure(C.signature, {"R": [(a, b, c) for a in range(30)
                                      for b in range(30) for c in range(30)]})
    refs = C.tuple_refs
    star = [(refs[0], r) for r in refs[1:]]
    for J in (gyo_join_tree(C), JoinTree(refs, star)):
        for root in (refs[0], refs[5], refs[-1], None):
            rooted = JoinTree(J.nodes, J.edges, root=root)
            assert hom_acyclic(C, rooted, K) == 30 ** 14
    assert len(exact) == 8 * 11 and any(exact)


def test_acyclic_dp_memory_on_a_wide_star():
    # a 300-leaf out-star into a 10^5-edge directed cycle: every image of
    # the centre has one out-neighbour, which all leaves must share.  On the
    # star join tree rooted at its hub E(c, l0), all 299 other facts send
    # their message to one parent, which folds each in as it comes
    n = 10 ** 5
    C = Structure.from_named(SIG_E, [("E", ("c", "l%d" % i)) for i in range(300)])
    heads = np.arange(n)
    A = Structure(SIG_E, {"E": np.stack([heads, (heads + 1) % n], axis=1)})
    refs = C.tuple_refs
    J = JoinTree(refs, [(refs[0], r) for r in refs[1:]], root=refs[0])
    tracemalloc.start()
    try:
        assert hom_acyclic(C, J, A) == n
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20, peak


def test_multigraph_count_matches_bruteforce():
    for seed in range(40):
        C, J = random_acyclic(SIG_RE, 3, seed)
        A = generate.random_structure(SIG_RE, 6, {"R": 4, "E": 4}, seed + 2000)
        T, _ = representations.jtrep(C, J)
        G, _ = representations.grep(A)
        assert hom_multigraph(T, G) == hom_bruteforce(C, A)


def test_multigraph_rejects_cyclic_pattern():
    tri, _ = representations.grep(directed_cycle(3))
    with pytest.raises(ValueError):
        hom_multigraph(tri, tri)


def test_dp_handles_repeated_elements():
    C = Structure.from_named(SIG_E, [("E", ("x", "x"))])
    J = gyo_join_tree(C)
    A = directed_cycle(3)
    assert hom_acyclic(C, J, A) == hom_bruteforce(C, A) == 0
    loopy = Structure.from_named(SIG_E, [("E", ("a", "a")), ("E", ("a", "b"))])
    assert hom_acyclic(C, J, loopy) == hom_bruteforce(C, loopy) == 1
