"""Colored multigraphs: unary-labeled nodes plus directed labeled edges.

This is the common target of every structure encoding and the input of the
color-refinement engine.  Labels are ints into one table of label names,
shared by unary and edge labels: an edge is a distinct (src, dst, label) row
of three int arrays, a unary label a distinct (node, label) row of two.
Strings are made only on demand, by `edges`, `labels`, the node names and
`to_dot`, which serve export, `hom_multigraph` and the tests.

cr_run reads only `refinement_input`: the Gaifman adjacency in CSR form
with one int label per ordered pair, and the round-0 classes.  By default
cr derives it from the edge rows; a builder that already holds it, as
vgrep holds its tuple-slice incidence, hands it over, and may then make
the edge rows only when they are first read.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np


def sorted_distinct(columns, radices):
    """The distinct rows of int columns (column c within range(radices[c])),
    sorted lexicographically, as a tuple of columns.

    One sort of a packed 1-d key and a neighbour mask, where the columns'
    bit widths fit in an int64; a lexsort otherwise.  Not np.unique:
    without return_* it takes numpy 2.4's hash path, 0.84 s on 800k random
    int64 against 0.014 s for np.sort plus the mask (shared 2-core x86
    machine, numpy 2.4.6)."""
    columns = [np.asarray(c, dtype=np.int64).ravel() for c in columns]
    if not len(columns[0]):
        return tuple(columns)
    bits = [max(int(r) - 1, 1).bit_length() for r in radices]
    if sum(bits) <= 62:
        key = columns[0].copy()
        for c, b in zip(columns[1:], bits[1:]):
            key <<= b
            key |= c
        key.sort()
        key = key[np.concatenate(([True], key[1:] != key[:-1]))]
        out = []
        for b in reversed(bits[1:]):
            out.append(key & ((1 << b) - 1))
            key = key >> b
        return (key, *reversed(out))
    rows = np.stack(columns)[:, np.lexsort(columns[::-1])]
    keep = np.concatenate(([True], (rows[:, 1:] != rows[:, :-1]).any(axis=0)))
    return tuple(rows[:, keep])


class ColoredMultigraph:
    def __init__(self, n: int, label_names, src, dst, label,
                 node=(), node_label=(), node_names=None):
        """n nodes; edge k runs src[k] -> dst[k] and is labeled
        label_names[label[k]]; node node[k] carries the unary label
        label_names[node_label[k]].  Repeated rows are dropped.  node_names
        is a list of n names, a function that makes one, or None for ids."""
        radix = len(label_names)
        rows = sorted_distinct((src, dst, label), (n, n, radix))
        self._store(n, label_names, rows, len(rows[0]),
                    *sorted_distinct((node, node_label), (n, radix)),
                    node_names)

    @classmethod
    def of_distinct(cls, n, label_names, src, dst, label, node, node_label,
                    node_names=None):
        """A multigraph of int arrays whose rows are already distinct."""
        g = cls.__new__(cls)
        g._store(n, label_names, (src, dst, label), len(src), node,
                 node_label, node_names)
        return g

    @classmethod
    def handed_over(cls, n, label_names, refinement_input, rows, m, node,
                    node_label, node_names=None):
        """A multigraph whose builder hands over cr_run's input (see
        refinement_input) and a function rows() that makes its m distinct
        edge rows (src, dst, label) when they are first read."""
        g = cls.__new__(cls)
        g._store(n, label_names, rows, m, node, node_label, node_names)
        g.refinement_input = refinement_input   # the cached_property's value
        return g

    @classmethod
    def from_named(cls, n: int, labels: dict, edges: dict, node_names=None):
        """From node -> unary label names and edge label name -> (u, v)
        pairs, the form tests and small hand-made graphs use."""
        names = sorted(set(edges).union(*labels.values()))
        code = {x: k for k, x in enumerate(names)}
        pairs = [(u, v, code[x]) for x, uvs in edges.items() for u, v in uvs]
        marks = [(v, code[x]) for v, xs in labels.items() for x in xs]
        src, dst, label = np.array(pairs, dtype=np.int64).reshape(-1, 3).T
        node, node_label = np.array(marks, dtype=np.int64).reshape(-1, 2).T
        return cls(n, names, src, dst, label, node, node_label, node_names)

    def _store(self, n, label_names, rows, m, node, node_label, node_names):
        self.n = n
        self.label_names = list(label_names)
        self._rows, self._m = rows, m
        self.node, self.node_label = node, node_label
        self._node_names = node_names

    @property
    def rows(self):
        """(src, dst, label): the distinct edge rows as int arrays, in no
        particular order."""
        if callable(self._rows):
            self._rows = self._rows()
        return self._rows

    src = property(lambda self: self.rows[0])
    dst = property(lambda self: self.rows[1])
    label = property(lambda self: self.rows[2])

    @cached_property
    def refinement_input(self):
        """((starts, dst, lam), names, count), what cr_run refines: node v's
        Gaifman neighbours are dst[starts[v]:starts[v + 1]], the ordered
        pair to dst[e] carrying the int label lam[e]; and names, the
        round-0 classes (by unary and loop labels) named 0..count-1.  Two
        pairs from nodes of one round-0 class must carry equal labels
        exactly when they carry equal sets of (edge label, direction).  By
        default cr._lambda_adjacency and cr._base_colors derive it from the
        edge rows."""
        from .cr import _refinement_input   # cr imports this module
        return _refinement_input(self)

    @property
    def node_names(self):
        if callable(self._node_names):
            self._node_names = self._node_names()
        return self._node_names

    @cached_property
    def labels(self) -> dict:
        """node id -> frozenset of unary label names (nodes without any
        are missing)."""
        out: dict = {}
        for v, k in zip(self.node.tolist(), self.node_label.tolist()):
            out.setdefault(v, set()).add(self.label_names[k])
        return {v: frozenset(ls) for v, ls in out.items()}

    @cached_property
    def edges(self) -> dict:
        """label name -> int array of shape (m, 2) of its edges, sorted;
        labels without edges are missing."""
        order = np.lexsort((self.dst, self.src, self.label))
        label = self.label[order]
        pairs = np.stack((self.src[order], self.dst[order]), axis=1)
        cuts = np.flatnonzero(label[1:] != label[:-1]) + 1
        firsts = np.concatenate(([0], cuts)) if len(label) else []
        return {self.label_names[label[k]]: part
                for k, part in zip(firsts, np.split(pairs, cuts))}

    def node_labels(self, v) -> frozenset:
        return self.labels.get(v, frozenset())

    def has_edge(self, name, u, v) -> bool:
        a = self.edges.get(name)
        if a is None:
            return False
        i = np.searchsorted(a[:, 0] * (self.n + 1) + a[:, 1], u * (self.n + 1) + v)
        return i < len(a) and a[i, 0] == u and a[i, 1] == v

    def edge_count(self) -> int:
        """The number of edge rows, without making them."""
        return self._m

    def edge_labels_between(self):
        """Map (u, v) -> sorted tuple of labels of directed edges u -> v."""
        out: dict = {}
        names = self.label_names
        for u, v, k in zip(self.src.tolist(), self.dst.tolist(),
                           self.label.tolist()):
            out.setdefault((u, v), []).append(names[k])
        return {uv: tuple(sorted(ls)) for uv, ls in out.items()}

    def gaifman_adjacency(self):
        """Undirected adjacency (ignoring loops) as a dict of sorted lists."""
        adj = {v: set() for v in range(self.n)}
        apart = self.src != self.dst
        for u, v in zip(self.src[apart].tolist(), self.dst[apart].tolist()):
            adj[u].add(v)
            adj[v].add(u)
        return {v: sorted(ws) for v, ws in adj.items()}

    def name_of(self, v):
        if self.node_names is not None:
            return self.node_names[v]
        return str(v)

    def to_dot(self, graph_name="G") -> str:
        lines = ["digraph %s {" % graph_name]
        for v in range(self.n):
            labs = sorted(self.node_labels(v))
            shape = "box" if labs else "circle"
            label = self.name_of(v)
            if labs:
                label += "\\n" + ",".join(labs)
            lines.append('  n%d [label="%s", shape=%s];' % (v, label, shape))
        for (u, v), names in sorted(self.edge_labels_between().items()):
            lines.append('  n%d -> n%d [label="%s"];' % (u, v, ", ".join(names)))
        lines.append("}")
        return "\n".join(lines) + "\n"
