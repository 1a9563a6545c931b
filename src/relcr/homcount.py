"""Homomorphism counting.

hom_bruteforce enumerates assignments with backtracking and is the oracle;
hom_acyclic is join-tree dynamic programming on arrays (Yannakakis's
semi-join evaluation, with sort-joins); hom_multigraph counts colored
multigraph homomorphisms from a multitree.  All three return exact Python
ints: hom_acyclic counts in int64 and switches to object arrays of Python
ints once a product or a sum may pass 2^62.
"""

from __future__ import annotations

import math

import numpy as np

from .acyclic import JoinTree, validate_join_tree
from .core import Structure
from .multigraph import ColoredMultigraph
from .rcr import _row_ids


class TooLargeError(ValueError):
    pass


def hom_bruteforce(C: Structure, A: Structure, bits_guard: float = 64.0):
    """Exact number of maps V(C) -> V(A) preserving every relation.

    Elements are assigned one by one (in an order that completes tuples
    early); a relation tuple is checked as soon as its last element gets a
    value, which prunes most of the |V(A)|^|V(C)| space."""
    if C.signature != A.signature:
        raise ValueError("signature mismatch")
    if C.n and A.n and C.n * math.log2(max(A.n, 2)) > bits_guard:
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

    Yannakakis's semi-join evaluation over the join tree, with sort-joins on
    arrays.  Each node holds a table: one row per image of its tuple's
    distinct elements that extends to the subtree below it, with the number
    of extensions.  Its message to the parent is that count summed over the
    rows that agree on the elements the two tuples share."""
    if C.signature != A.signature:
        raise ValueError("signature mismatch")
    ok, bad = validate_join_tree(C, J)
    if not ok:
        raise ValueError("invalid join tree (element %r)" % (bad,))
    if not J.nodes:
        return 1
    adj = J.adjacency()
    root = J.root if J.root is not None else J.nodes[0]
    # breadth-first order from the root; reversed, children come first
    parent = {root: None}
    order = [root]
    for node in order:
        for w in adj[node]:
            if w != parent[node]:
                parent[w] = node
                order.append(w)

    images = _Images(A)
    messages: dict = {}   # node -> (shared-element rows, counts)
    for node in reversed(order):
        vec = C.vector(node)
        column = {x: k for k, x in enumerate(dict.fromkeys(vec))}
        table = images.of(C.atp(vec), vec)
        counts = np.ones(len(table), dtype=np.int64)
        for w in adj[node]:
            if w == parent[node]:
                continue
            keys, sums = messages.pop(w)
            shared = [column[x] for x in sorted(set(C.vector(w)) & column.keys())]
            hit, at = _lookup(keys, table[:, shared])
            table = table[hit]
            counts = _times(counts[hit], sums[at[hit]])
        if not len(table):
            return 0
        up = () if parent[node] is None else C.vector(parent[node])
        shared = [column[x] for x in sorted(set(up) & column.keys())]
        messages[node] = _group_sum(table[:, shared], counts)
    # elements of C in no tuple cannot exist (coverage), so the product over
    # join-tree nodes accounts for all of V(C)
    return int(messages[root][1][0])


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


def _lookup(keys, rows):
    """For each row of rows, whether it equals a row of keys (distinct, in
    lexicographic order), and the index of that row.  One shared column is
    its own key; several are ranked jointly, so that no key can overflow."""
    if not len(keys):
        return np.zeros(len(rows), dtype=bool), np.zeros(len(rows), dtype=np.int64)
    if keys.shape[1] == 1:
        k, r = keys[:, 0], rows[:, 0]
    else:
        ids, _ = _row_ids(np.concatenate([keys, rows]))
        k, r = ids[:len(keys)], ids[len(keys):]
    at = np.minimum(np.searchsorted(k, r), len(k) - 1)
    return k[at] == r, at


def _times(a, b):
    """a * b for positive counts, exact: as Python ints where the int64
    product could pass the bound."""
    if (a.dtype != object and b.dtype != object and len(a)
            and int(a.max()) * int(b.max()) >= _EXACT_BOUND):
        a = a.astype(object)
    return a * b


def _group_sum(rows, counts):
    """The distinct rows of a 2-d int array in lexicographic order, and the
    sum of counts over each, exact as in _times."""
    if counts.dtype != object and int(counts.max()) * len(counts) >= _EXACT_BOUND:
        counts = counts.astype(object)
    if not rows.shape[1]:
        return rows[:1], np.add.reduce(counts, keepdims=True)
    order = np.lexsort(rows.T[::-1])
    rows, counts = rows[order], counts[order]
    starts = np.flatnonzero(np.concatenate(
        ([True], (rows[1:] != rows[:-1]).any(axis=1))))
    return rows[starts], np.add.reduceat(counts, starts)


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
