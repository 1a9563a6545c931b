"""Homomorphism counting.

hom_bruteforce enumerates assignments with backtracking and is the oracle;
hom_acyclic is join-tree dynamic programming; hom_multigraph counts colored
multigraph homomorphisms from a multitree.  All counts are python ints, so
they never overflow.
"""

from __future__ import annotations

import math

from .acyclic import JoinTree, validate_join_tree
from .core import Structure, stp
from .multigraph import ColoredMultigraph


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


def _candidates(C: Structure, A: Structure, ref):
    """Possible images of one tuple occurrence of C: vectors realizing every
    relation of the occurrence's vector and respecting its equalities."""
    vec = C.vector(ref)
    atp = C.atp(vec)
    pools = [A.relations[r] for r in sorted(atp)]
    base = min(pools, key=len)
    tau = stp(vec, vec)
    out = []
    for img in base:
        if any((img[i - 1] != img[j - 1]) for (i, j) in tau):
            continue
        if all(A.holds(r, img) for r in atp):
            out.append(img)
    return out


def hom_acyclic(C: Structure, J: JoinTree, A: Structure):
    """Join-tree dynamic programming; equals hom_bruteforce on every input.

    Messages are tables keyed by the assignment of the elements shared
    between a child tuple and its parent tuple."""
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

    # tables[node]: (shared-element assignment wrt parent) -> count of
    # extensions of the subtree below node; the root's key is ()
    tables: dict = {}
    for node in reversed(order):
        vec = C.vector(node)
        children = [w for w in adj[node] if w != parent[node]]
        child_tables = [tables.pop(w) for w in children]
        shared = ()
        if parent[node] is not None:
            pset = set(C.vector(parent[node]))
            shared = tuple(sorted(set(vec) & pset))
        out: dict = {}
        for img in _candidates(C, A, node):
            val = {x: img[i] for i, x in enumerate(vec)}
            count = 1
            for w, tbl in zip(children, child_tables):
                wshared = tuple(sorted(set(C.vector(w)) & set(vec)))
                key = tuple(val[x] for x in wshared)
                count *= tbl.get(key, 0)
                if not count:
                    break
            if not count:
                continue
            key = tuple(val[x] for x in shared)
            out[key] = out.get(key, 0) + count
        tables[node] = out

    total = sum(tables[root].values())
    # elements of C in no tuple cannot exist (coverage), so the product over
    # join-tree nodes accounts for all of V(C)
    return total


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
