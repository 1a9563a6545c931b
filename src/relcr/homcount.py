"""Homomorphism counting.

hom_bruteforce enumerates assignments with backtracking and is the oracle;
hom_acyclic is join-tree dynamic programming on arrays (Yannakakis's
bottom-up pass, whose messages are dense vectors over the images of the
shared elements, folded into the parent at once); hom_multigraph counts
colored multigraph homomorphisms from a multitree.  All three return exact
Python ints: hom_acyclic counts in int64 and switches to object arrays of
Python ints once a product or a sum may pass 2^62.
"""

from __future__ import annotations

import math

import numpy as np

from .acyclic import JoinTree, validate_join_tree
from .core import Structure, _row_ids
from .multigraph import ColoredMultigraph

BITS_GUARD = 64.0   # hom_bruteforce refuses more than 2^BITS_GUARD maps


class TooLargeError(ValueError):
    pass


def hom_bruteforce(C: Structure, A: Structure):
    """Exact number of maps V(C) -> V(A) preserving every relation.

    Elements are assigned one by one (in an order that completes tuples
    early); a relation tuple is checked as soon as its last element gets a
    value, which prunes most of the |V(A)|^|V(C)| space."""
    if C.signature != A.signature:
        raise ValueError("signature mismatch")
    if C.n and A.n and C.n * math.log2(max(A.n, 2)) > BITS_GUARD:
        raise TooLargeError(
            "brute force guard exceeded: %d elements into %d" % (C.n, A.n))
    order: list[int] = []
    seen = set()
    for ref in C.tuple_refs:
        for x in C.vector(ref):
            if x not in seen:
                seen.add(x)
                order.append(x)
    for x in range(C.n):
        if x not in seen:
            order.append(x)
    pos = {x: k for k, x in enumerate(order)}
    # tuples become checkable once their latest-assigned element is placed
    checks: dict[int, list] = {k: [] for k in range(len(order))}
    for ref in C.tuple_refs:
        vec = C.vector(ref)
        last = max(pos[x] for x in vec)
        checks[last].append((ref.relation, vec))
    assign: dict[int, int] = {}

    def rec(k):
        if k == len(order):
            return 1
        x = order[k]
        total = 0
        for val in range(A.n):
            assign[x] = val
            if all(A.holds(rel, tuple(assign[y] for y in vec))
                   for rel, vec in checks[k]):
                total += rec(k + 1)
        del assign[x]
        return total

    return rec(0) if C.n else 1


def hom_acyclic(C: Structure, J: JoinTree, A: Structure):
    """Join-tree dynamic programming; equals hom_bruteforce on every input.

    Yannakakis's bottom-up pass over the join tree, on arrays.  A node
    holds its full image table (one row per image of its tuple's distinct
    elements) and one count per row: the number of extensions of the row to
    the subtree below the node, 0 where there is none.  A node folds its
    message into its parent's counts as soon as it is done.  The message is
    its counts summed over the rows that agree on the elements the two
    tuples share: a dense vector over keys of those elements' images,
    which the parent gathers with its own rows' keys, so that a parent row
    with no match reads 0.  On one shared element the key is the element of
    A itself; on none or several it is the joint rank (_row_ids) of both
    tables' shared columns, where no columns give every row the key 0.
    Nodes go in reversed depth-first preorder, so one message is alive at a
    time (at most A.n or both tables' rows of counts), plus one count array
    per parent still waiting for children, all on the path from the root to
    the current node."""
    if C.signature != A.signature:
        raise ValueError("signature mismatch")
    ok, bad = validate_join_tree(C, J)
    if not ok:
        raise ValueError("invalid join tree (element %r)" % (bad,))
    if not J.nodes:
        return 1
    adj = J.adjacency()
    root = J.root if J.root is not None else J.nodes[0]
    # depth-first preorder from the root; reversed, each subtree comes
    # whole, its root last
    parent = {root: None}
    order = []
    stack = [root]
    while stack:
        node = stack.pop()
        order.append(node)
        for w in adj[node]:
            if w != parent[node]:
                parent[w] = node
                stack.append(w)

    images = _Images(A)
    tables = {}   # node -> (image table, column of each of its elements)
    for node in order:
        vec = C.vector(node)
        tables[node] = (images.of(C.atp(vec), vec),
                        {x: k for k, x in enumerate(dict.fromkeys(vec))})

    waiting: dict = {}   # node -> product of its finished children's messages
    for node in reversed(order):
        table, column = tables[node]
        counts = waiting.pop(node, None)
        if counts is None:
            counts = np.ones(len(table), dtype=np.int64)
        top = counts.max(initial=0)
        if not top:
            return 0
        if counts.dtype != object and int(top) * len(counts) >= _EXACT_BOUND:
            counts = counts.astype(object)   # a sum of counts may pass it
        up = parent[node]
        if up is None:
            # elements of C in no tuple cannot exist (coverage), so the
            # product over join-tree nodes accounts for all of V(C)
            return int(counts.sum())
        up_table, up_column = tables[up]
        shared = sorted(column.keys() & up_column.keys())
        if len(shared) == 1:
            x, = shared
            keys, up_keys = table[:, column[x]], up_table[:, up_column[x]]
            n = A.n
        else:
            keys, n = _row_ids(np.concatenate((
                table[:, [column[x] for x in shared]],
                up_table[:, [up_column[x] for x in shared]])))
            keys, up_keys = keys[:len(table)], keys[len(table):]
        dense = np.zeros(n, dtype=counts.dtype)
        np.add.at(dense, keys, counts)
        message = dense[up_keys]
        waiting[up] = message if up not in waiting else _times(waiting[up], message)


# int64 counts become Python ints (object arrays) once a product or a sum
# may pass this bound
_EXACT_BOUND = 1 << 62


class _Images:
    """Possible images of C's tuples in A, one table per (atomic type,
    equality pattern): the rows of A in every relation of the type and
    equal wherever the vector repeats an element, cut to the columns of the
    vector's distinct elements."""

    def __init__(self, A: Structure):
        self.A = A
        self.tables: dict = {}

    def of(self, atp, vec):
        firsts = tuple(vec.index(x) for x in vec)
        key = (atp, firsts)
        if key not in self.tables:
            pools = [self.A.rows[r] for r in sorted(atp)]
            base = min(pools, key=len)
            keep = np.ones(len(base), dtype=bool)
            for i, f in enumerate(firsts):
                if f != i:
                    keep &= base[:, i] == base[:, f]
            rows = base[keep]
            others = [p for p in pools if p is not base]
            if others and len(rows):
                # relations hold distinct rows: a row is in all of them iff
                # its joint row id occurs once per relation
                ids, nids = _row_ids(np.concatenate([rows] + others))
                keep = np.bincount(ids, minlength=nids)[ids[:len(rows)]]
                rows = rows[keep == len(pools)]
            self.tables[key] = rows[:, sorted(set(firsts))]
        return self.tables[key]


def _times(a, b):
    """a * b for counts of 0 or more, exact: as Python ints where the int64
    product could pass the bound."""
    if (a.dtype != object and b.dtype != object and len(a)
            and int(a.max()) * int(b.max()) >= _EXACT_BOUND):
        a = a.astype(object)
    return a * b


def hom_multigraph(T: ColoredMultigraph, G: ColoredMultigraph):
    """Colored multigraph homomorphism count for a multitree T: labels and
    loops of a node must be preserved, and every edge relation on a pair of T
    must hold on the image pair."""
    adjT = T.gaifman_adjacency()
    # tree check on the Gaifman graph of T
    nedges = sum(len(ws) for ws in adjT.values()) // 2
    comps = 0
    seen: set = set()
    for v in range(T.n):
        if v in seen:
            continue
        comps += 1
        stack = [v]
        seen.add(v)
        while stack:
            for w in adjT[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    if nedges != T.n - comps:
        raise ValueError("input multigraph is not a multitree")

    labelsT = T.edge_labels_between()
    labelsG = G.edge_labels_between()

    def node_ok(v, g):
        if not (T.node_labels(v) <= G.node_labels(g)):
            return False
        for name in labelsT.get((v, v), ()):
            if name not in labelsG.get((g, g), ()):
                return False
        return True

    def pair_ok(v, w, g, h):
        need = labelsT.get((v, w), ())
        have = labelsG.get((g, h), ())
        return all(name in have for name in need)

    def component(root):
        """Sum over g of the homs of root's component with root mapped to g.

        counts[v][g] = homs of the subtree below v with v mapped to g; a
        depth-first order from the root, reversed, lists children first."""
        parent = {root: None}
        order = [root]
        stack = [root]
        while stack:
            v = stack.pop()
            for w in adjT[v]:
                if w not in parent:
                    parent[w] = v
                    order.append(w)
                    stack.append(w)
        counts: dict = {}
        for v in reversed(order):
            cv = [1 if node_ok(v, g) else 0 for g in range(G.n)]
            for w in adjT[v]:
                if w == parent[v]:
                    continue
                sub = counts.pop(w)
                for g in range(G.n):
                    if not cv[g]:
                        continue
                    s = 0
                    for h in range(G.n):
                        if sub[h] and pair_ok(v, w, g, h) and pair_ok(w, v, h, g):
                            s += sub[h]
                    cv[g] *= s
            counts[v] = cv
        return sum(counts[root]), parent

    total = 1
    seen: set = set()
    for v in range(T.n):
        if v in seen:
            continue
        count, members = component(v)
        seen.update(members)
        total *= count
    return total
