"""Alpha-acyclicity: GYO reduction, join-tree validation, and the
print-to-structure construction used by the random acyclic generator.

A join tree is a tree on the tuple occurrences of a structure such that the
occurrences of every universe element induce a connected subtree.  A print is
a tree annotated with atomic types, self similarity types and per-edge
similarity types; materializing a consistent print yields an acyclic
structure together with a join tree.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .core import Signature, Structure, TupleRef, stp


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
    holders = C.element_positions()
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
    for x, positions in enumerate(C.element_positions()):
        if positions and inside[x] != len(positions) - 1:
            return False, x
    return True, None


def is_acyclic(C: Structure) -> bool:
    return gyo_join_tree(C) is not None


# ---------------------------------------------------------------------------
# prints

class InconsistentPrintError(ValueError):
    pass


@dataclass(frozen=True)
class PrintNode:
    rho: frozenset          # atomic type: non-empty set of symbols, one arity
    arity: int
    tau: frozenset          # self similarity type: an equivalence on [arity]


class Print:
    """Tree of PrintNodes; edges carry a similarity type oriented u -> v."""

    def __init__(self, signature: Signature, nodes: Sequence[PrintNode], edges):
        self.signature = signature
        self.nodes = list(nodes)
        self.edges = list(edges)   # (u_index, v_index, tau)
        self._check()

    def _check(self):
        for k, nd in enumerate(self.nodes):
            if not nd.rho:
                raise InconsistentPrintError("node %d: empty atomic type" % k)
            for r in nd.rho:
                if self.signature.arity.get(r) != nd.arity:
                    raise InconsistentPrintError(
                        "node %d: symbol %s does not have arity %d" % (k, r, nd.arity))
            if not _is_equivalence(nd.tau, nd.arity):
                raise InconsistentPrintError(
                    "node %d: self similarity type is not an equivalence" % k)
        deg = {k: 0 for k in range(len(self.nodes))}
        for u, v, tau in self.edges:
            for (i, j) in tau:
                if not (1 <= i <= self.nodes[u].arity and 1 <= j <= self.nodes[v].arity):
                    raise InconsistentPrintError("edge (%d,%d): index out of range" % (u, v))
            deg[u] += 1
            deg[v] += 1
        if self.nodes and len(self.edges) != len(self.nodes) - 1:
            raise InconsistentPrintError("edge count does not form a tree")

    def adjacency(self):
        adj = {k: [] for k in range(len(self.nodes))}
        for u, v, tau in self.edges:
            adj[u].append((v, tau))
            adj[v].append((u, frozenset((j, i) for i, j in tau)))
        return adj


def _is_equivalence(tau, k) -> bool:
    tau = set(tau)
    if any(not (1 <= i <= k and 1 <= j <= k) for i, j in tau):
        return False
    if any((i, i) not in tau for i in range(1, k + 1)):
        return False
    if any((j, i) not in tau for i, j in tau):
        return False
    return all((i, l) in tau for i, j in tau for jj, l in tau if jj == j)


def _classes(tau, k):
    """Equivalence classes of a self similarity type, as sorted tuples."""
    rep = {}
    for i in range(1, k + 1):
        rep[i] = min(j for (a, j) in tau if a == i)
    blocks: dict = {}
    for i in range(1, k + 1):
        blocks.setdefault(rep[i], []).append(i)
    return [tuple(b) for _, b in sorted(blocks.items())]


def structure_from_print(P: Print, root: int = 0):
    """Materialize a print: the root gets fresh values per tau-class, every
    child copies parent entries through the edge similarity type, closes its
    own tau equalities and fills the rest with fresh values.

    Returns (C, J).  Raises InconsistentPrintError when the annotations are
    not realizable (a forced equality meets a forced inequality, an atomic
    type is not exact, or two nodes materialize the same fact)."""
    n = len(P.nodes)
    if n == 0:
        raise InconsistentPrintError("empty print")
    adj = P.adjacency()
    values: list = [None] * n
    fresh = [0]

    def new_value():
        fresh[0] += 1
        return "e%d" % fresh[0]

    def fill(v, vec):
        # close the tau_v equalities, fresh values for untouched classes
        nd = P.nodes[v]
        out = list(vec)
        for block in _classes(nd.tau, nd.arity):
            vals = {out[i - 1] for i in block if out[i - 1] is not None}
            if len(vals) > 1:
                raise InconsistentPrintError(
                    "node %d: copied entries contradict its similarity type" % v)
            val = vals.pop() if vals else new_value()
            for i in block:
                out[i - 1] = val
        return tuple(out)

    values[root] = fill(root, [None] * P.nodes[root].arity)
    order = [root]
    seen = {root}
    queue = [root]
    while queue:
        u = queue.pop(0)
        for v, tau in adj[u]:
            if v in seen:
                continue
            seen.add(v)
            vec = [None] * P.nodes[v].arity
            for (i, j) in tau:
                x = values[u][i - 1]
                if vec[j - 1] is not None and vec[j - 1] != x:
                    raise InconsistentPrintError(
                        "edge (%d,%d): contradictory copies" % (u, v))
                vec[j - 1] = x
            values[v] = fill(v, vec)
            order.append(v)
            queue.append(v)
    if len(seen) != n:
        raise InconsistentPrintError("print tree is not connected")

    # exactness checks: the annotations must be realized, not just contained
    for v in range(n):
        if stp(values[v], values[v]) != P.nodes[v].tau:
            raise InconsistentPrintError(
                "node %d: accidental equality violates its similarity type" % v)
    for u, v, tau in P.edges:
        if stp(values[u], values[v]) != tau:
            raise InconsistentPrintError(
                "edge (%d,%d): realized overlap differs from annotation" % (u, v))

    facts = []
    node_refs: list = [None] * n
    per_rel_count: dict = {}
    fact_seen = set()
    for v in order:
        refs = []
        for rel in sorted(P.nodes[v].rho):
            if (rel, values[v]) in fact_seen:
                raise InconsistentPrintError(
                    "two nodes materialize the same fact %s%s" % (rel, values[v]))
            fact_seen.add((rel, values[v]))
            idx = per_rel_count.get(rel, 0)
            per_rel_count[rel] = idx + 1
            facts.append((rel, values[v]))
            refs.append(TupleRef(rel, idx))
        node_refs[v] = refs
    C = Structure.from_named(P.signature, facts)

    jedges = []
    parent = {root: None}
    for v in order:
        # twin chain for multi-symbol atomic types
        for extra in node_refs[v][1:]:
            jedges.append((node_refs[v][0], extra))
    stack = [root]
    visited = {root}
    while stack:
        u = stack.pop()
        for v, _ in adj[u]:
            if v not in visited:
                visited.add(v)
                jedges.append((node_refs[u][0], node_refs[v][0]))
                stack.append(v)
    J = JoinTree(C.tuple_refs, jedges, root=node_refs[root][0])

    for v in range(n):
        vec = C.vector(node_refs[v][0])
        if C.atp(vec) != P.nodes[v].rho:
            raise InconsistentPrintError(
                "node %d: materialized atomic type is %s, annotated %s"
                % (v, sorted(C.atp(vec)), sorted(P.nodes[v].rho)))
    ok, bad = validate_join_tree(C, J)
    assert ok, bad
    return C, J


def print_from_join_tree(C: Structure, J: JoinTree) -> Print:
    """Extract the print of (C, J).  Tuple occurrences sharing one vector must
    sit on adjacent join-tree nodes (as structure_from_print arranges them);
    each such group becomes one print node."""
    adj = J.adjacency()
    group_of: dict = {}
    groups: list = []
    for r in C.tuple_refs:
        if r in group_of:
            continue
        g = len(groups)
        members = [r]
        group_of[r] = g
        stack = [r]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in group_of and C.vector(w) == C.vector(u):
                    group_of[w] = g
                    members.append(w)
                    stack.append(w)
        groups.append(members)
    for r in C.tuple_refs:
        for w in C.tuple_refs:
            if (C.vector(r) == C.vector(w) and group_of[r] != group_of[w]):
                raise ValueError(
                    "duplicate occurrences of %s are not adjacent in J" % (C.vector(r),))
    nodes = []
    for members in groups:
        vec = C.vector(members[0])
        nodes.append(PrintNode(rho=C.atp(vec), arity=len(vec),
                               tau=stp(vec, vec)))
    edges = []
    for u, v in J.edges:
        gu, gv = group_of[u], group_of[v]
        if gu == gv:
            continue
        edges.append((gu, gv, stp(C.vector(u), C.vector(v))))
    return Print(C.signature, nodes, edges)


def random_acyclic(signature: Signature, node_count: int, seed: int):
    """Random connected acyclic structure with a join tree, built by sampling
    a consistent print and materializing it.  Deterministic per seed."""
    if node_count < 1:
        raise ValueError("node_count must be >= 1")
    rng = random.Random(seed)
    arities = sorted({a for _, a in signature.symbols})
    for _attempt in range(1000):
        try:
            return _sample_print(signature, node_count, arities, rng)
        except InconsistentPrintError:
            continue
    raise RuntimeError("could not sample a consistent print")


def _sample_print(signature, node_count, arities, rng):
    # sample concrete vectors along a random tree so every annotation is
    # realizable by construction; the print is then re-materialized
    parents = [None] + [rng.randrange(v) for v in range(1, node_count)]
    vectors = []
    fresh = [0]

    def new_val():
        fresh[0] += 1
        return fresh[0]

    for v in range(node_count):
        k = rng.choice(arities)
        nblocks = rng.randint(1, k)
        assignment = [rng.randrange(nblocks) for _ in range(k)]
        block_ids = sorted(set(assignment))
        if v == 0:
            block_val = {b: new_val() for b in block_ids}
        else:
            pvals = sorted(set(vectors[parents[v]]))
            m = rng.randint(1, min(len(block_ids), len(pvals)))
            shared = rng.sample(block_ids, m)
            picked = rng.sample(pvals, m)
            block_val = {}
            for b, x in zip(shared, picked):
                block_val[b] = x
            for b in block_ids:
                if b not in block_val:
                    block_val[b] = new_val()
        vectors.append(tuple(block_val[b] for b in assignment))

    nodes = []
    for v in range(node_count):
        k = len(vectors[v])
        syms = signature.symbols_of_arity(k)
        nrel = 1 if len(syms) == 1 or rng.random() < 0.9 else 2
        rho = frozenset(rng.sample(syms, nrel))
        nodes.append(PrintNode(rho=rho, arity=k, tau=stp(vectors[v], vectors[v])))
    edges = [
        (parents[v], v, stp(vectors[parents[v]], vectors[v]))
        for v in range(1, node_count)]
    P = Print(signature, nodes, edges)
    return structure_from_print(P, root=0)
