"""Alpha-acyclicity: GYO reduction, join-tree validation, and a seeded
generator of random acyclic structures with their join trees.

A join tree is a tree on the tuple occurrences of a structure such that the
occurrences of every universe element induce a connected subtree.  The
generator draws a random tree of vectors in which a child shares some
values with its parent and takes fresh ones for the rest, so the holders
of every value are connected in the tree; with the twin facts of a vector
linked to its first fact, the tree is a join tree.
"""

from __future__ import annotations

import heapq
import random
from typing import Optional, Sequence

from .core import Signature, Structure, TupleRef


class JoinTree:
    def __init__(self, nodes: Sequence[TupleRef], edges, root: Optional[TupleRef] = None):
        self.nodes = tuple(nodes)
        self.edges = tuple((u, v) for u, v in edges)
        self.root = root
        self._adj: dict = {r: [] for r in self.nodes}
        for u, v in self.edges:
            self._adj[u].append(v)
            self._adj[v].append(u)

    def adjacency(self):
        return self._adj

    def is_tree(self) -> bool:
        if not self.nodes:
            return True
        if len(self.edges) != len(self.nodes) - 1:
            return False
        seen = {self.nodes[0]}
        stack = [self.nodes[0]]
        while stack:
            for w in self._adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.nodes)

    def to_text(self) -> str:
        lines = ["edge: (%s,%d) -- (%s,%d)" % (u.relation, u.index, v.relation, v.index)
                 for u, v in self.edges]
        if len(self.nodes) == 1:
            lines.append("node: (%s,%d)" % self.nodes[0])
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_text(cls, text: str):
        """Parse the to_text format; a malformed line raises a ValueError
        that names it."""
        nodes: dict = {}   # insertion-ordered node set
        edges = []

        def ref(tok):
            tok = tok.strip().lstrip("(").rstrip(")")
            rel, idx = tok.rsplit(",", 1)
            return TupleRef(rel.strip(), int(idx))

        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            kind, _, rest = line.partition(":")
            kind = kind.strip()
            try:
                refs = [ref(tok) for tok in rest.split("--")]
            except ValueError:
                refs = []
            if kind == "edge" and len(refs) == 2:
                edges.append(tuple(refs))
            elif kind != "node" or len(refs) != 1:
                raise ValueError(
                    "line %d: expected 'edge: (REL,INDEX) -- (REL,INDEX)' or "
                    "'node: (REL,INDEX)', got %r" % (lineno, line))
            for r in refs:
                nodes.setdefault(r)
        return cls(list(nodes), edges)

    def to_dot(self) -> str:
        lines = ["graph J {"]
        ids = {r: k for k, r in enumerate(self.nodes)}
        for r, k in ids.items():
            lines.append('  n%d [label="%s[%d]"];' % (k, r.relation, r.index))
        for u, v in self.edges:
            lines.append("  n%d -- n%d;" % (ids[u], ids[v]))
        lines.append("}")
        return "\n".join(lines) + "\n"


def gyo_join_tree(C: Structure) -> Optional[JoinTree]:
    """GYO reduction: repeatedly detach an ear (a tuple whose shared elements
    all fit inside one other tuple) onto a witness.  Deterministic: the
    smallest-position ear with the smallest-position witness goes first.
    Returns None when the reduction gets stuck, i.e. C is cyclic.

    Witnesses are sought among the holders of one shared element.  A tuple
    can become or stop being an ear only when a tuple sharing an element
    with it goes, so a heap holds just those positions to test again."""
    refs = C.tuple_refs
    sets = [set(C.vector(r)) for r in refs]
    holders = C.element_positions
    count = [len(h) for h in holders]   # remaining holders per element
    alive = [True] * len(refs)
    todo = list(range(len(refs)))       # a heap
    queued = set(todo)
    first = 0                           # no position below it remains
    edges = []
    while len(edges) < len(refs) - 1 and todo:
        k = heapq.heappop(todo)
        queued.remove(k)
        shared = [x for x in sets[k] if count[x] > 1]
        if shared:
            near = holders[min(shared, key=count.__getitem__)]
        else:   # any other tuple is a witness
            while not alive[first]:
                first += 1
            near = range(first, len(refs))
        w = next((w for w in near if alive[w] and w != k
                  and sets[w].issuperset(shared)), None)
        if w is None:
            continue
        alive[k] = False
        edges.append((refs[k], refs[w]))
        for x in sets[k]:
            count[x] -= 1
            for t in holders[x]:
                if alive[t] and t not in queued:
                    queued.add(t)
                    heapq.heappush(todo, t)
    if len(edges) < len(refs) - 1:
        return None
    return JoinTree(refs, edges, root=refs[alive.index(True)] if refs else None)


def validate_join_tree(C: Structure, J: JoinTree):
    """(ok, counterexample): ok iff J is a tree on exactly Tup(C) and every
    element's occurrences induce a connected subtree, that is, one with
    one J-edge fewer than the element has holders."""
    if set(J.nodes) != set(C.tuple_refs) or len(J.nodes) != len(C.tuple_refs):
        raise ValueError("join-tree node set differs from Tup(C)")
    if not J.is_tree():
        return False, None
    inside = [0] * C.n   # per element, the J-edges between two holders
    for u, v in J.edges:
        for x in set(C.vector(u)) & set(C.vector(v)):
            inside[x] += 1
    for x, positions in enumerate(C.element_positions):
        if positions and inside[x] != len(positions) - 1:
            return False, x
    return True, None


def is_acyclic(C: Structure) -> bool:
    return gyo_join_tree(C) is not None


def random_acyclic(signature: Signature, node_count: int, seed: int):
    """Random connected acyclic structure C with a join tree J, as (C, J).
    Deterministic per seed.  A draw in which two nodes share a vector is
    redrawn whole; after 1000 such draws a ValueError gives up."""
    if node_count < 1:
        raise ValueError("node_count must be >= 1")
    rng = random.Random(seed)
    arities = sorted({a for _, a in signature.symbols})
    for _attempt in range(1000):
        parents, vectors, symbols = _draw(signature, node_count, arities, rng)
        if len(set(vectors)) == node_count:
            return _build(signature, parents, vectors, symbols)
    raise ValueError("could not draw %d nodes with distinct vectors in 1000 tries"
                     % node_count)


def _draw(signature, node_count, arities, rng):
    """A random tree (parents[v] < v), per node an int vector that shares at
    least one value with its parent's and takes fresh ones for the rest, and
    per node a sorted list of one symbol of its arity (two, one time in ten,
    where the arity has two)."""
    parents = [None] + [rng.randrange(v) for v in range(1, node_count)]
    vectors = []
    fresh = 0
    for v in range(node_count):
        k = rng.choice(arities)
        nblocks = rng.randint(1, k)
        assignment = [rng.randrange(nblocks) for _ in range(k)]
        block_ids = sorted(set(assignment))
        block_val = {}
        if v > 0:
            pvals = sorted(set(vectors[parents[v]]))
            m = rng.randint(1, min(len(block_ids), len(pvals)))
            block_val = dict(zip(rng.sample(block_ids, m), rng.sample(pvals, m)))
        for b in block_ids:
            if b not in block_val:
                fresh += 1
                block_val[b] = fresh
        vectors.append(tuple(block_val[b] for b in assignment))
    symbols = []
    for vec in vectors:
        syms = signature.symbols_of_arity(len(vec))
        nrel = 1 if len(syms) == 1 or rng.random() < 0.9 else 2
        symbols.append(sorted(rng.sample(syms, nrel)))
    return parents, vectors, symbols


def _build(signature, parents, vectors, symbols):
    """(C, J) of a draw with distinct vectors.  Nodes are taken breadth-first
    from node 0, elements are named e1, e2, ... by first occurrence, and J
    links each node's other facts (its twins) to its first one, then joins
    the first facts along the tree's edges in depth-first order."""
    children = [[] for _ in vectors]
    for v in range(1, len(vectors)):
        children[parents[v]].append(v)
    order = [0]
    for u in order:
        order.extend(children[u])
    names: dict = {}
    facts, refs, counts = [], {}, dict.fromkeys(signature.arity, 0)
    for v in order:
        vec = ["e%d" % names.setdefault(x, len(names) + 1) for x in vectors[v]]
        refs[v] = [TupleRef(rel, counts[rel]) for rel in symbols[v]]
        for rel in symbols[v]:
            counts[rel] += 1
            facts.append((rel, vec))
    C = Structure.from_named(signature, facts)
    edges = [(refs[v][0], twin) for v in order for twin in refs[v][1:]]
    stack = [0]
    while stack:
        u = stack.pop()
        for v in children[u]:
            edges.append((refs[u][0], refs[v][0]))
            stack.append(v)
    return C, JoinTree(C.tuple_refs, edges, root=refs[0][0])
