"""Signatures, relational structures, tuple occurrences and similarity types.

Element ids are dense integers assigned at construction; the original names
are kept in a side table for output.  Each relation is one int64 array of
rows, or a tuple of tuples in a structure of fewer than SMALL_FACTS facts;
the other form, the per-tuple views (TupleRefs, membership sets), the
element index and the overlap graph are built on first use.  A structure is
immutable once built.
"""

from __future__ import annotations

import json
import re
from functools import cached_property
from itertools import chain, count, islice
from math import factorial
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np


class StructureError(ValueError):
    pass


class ParseError(StructureError):
    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class Signature:
    """Ordered list of relation symbols with fixed arities."""

    def __init__(self, symbols: Sequence[tuple[str, int]]):
        symbols = [(str(n), int(a)) for n, a in symbols]
        if not symbols:
            raise StructureError("signature must be non-empty")
        names = [n for n, _ in symbols]
        if len(set(names)) != len(names):
            raise StructureError("duplicate relation symbol")
        for n, a in symbols:
            if a < 1:
                raise StructureError("arity of %s must be >= 1" % n)
        self.symbols = tuple(symbols)
        self.arity = dict(symbols)
        self.max_arity = max(a for _, a in symbols)

    def names(self):
        return [n for n, _ in self.symbols]

    def symbols_of_arity(self, k):
        return [n for n, a in self.symbols if a == k]

    def __contains__(self, name):
        return name in self.arity

    def __eq__(self, other):
        return isinstance(other, Signature) and self.symbols == other.symbols

    def __hash__(self):
        return hash(self.symbols)

    def __repr__(self):
        return "Signature(%s)" % ", ".join("%s/%d" % s for s in self.symbols)


class TupleRef(NamedTuple):
    relation: str
    index: int


def stp(a: Sequence[int], b: Sequence[int]) -> frozenset:
    """Similarity type between two vectors: all position pairs (i,j), 1-based,
    with a_i = b_j.  stp(a, a) describes the repetition pattern of a."""
    return frozenset(
        (i, j)
        for i, x in enumerate(a, 1)
        for j, y in enumerate(b, 1)
        if x == y
    )


def self_stp(a: Sequence[int]) -> frozenset:
    return stp(a, a)


def stp_key(tau) -> tuple:
    """The encoding of a similarity type inside color keys: its position
    pairs, sorted."""
    return tuple(sorted(tau))


def is_transitive_stp(tau: Iterable[tuple[int, int]]) -> bool:
    tau = set(tau)
    return all(
        (i2, j2) in tau
        for (i, j) in tau
        for (i2, j1) in tau
        if j1 == j
        for (i1, j2) in tau
        if i1 == i
    )


# Below this many facts a structure is small: it is built and kept as
# tuples, its row arrays are made on first use, and rcr_run refines it with
# the pure-Python worklist on the overlap graph instead of the kernel.  A
# numpy call right after a garbage collection, as each benchmark operation
# starts, costs 20-60 us (np.array of six ints 40 us, np.sort 58 us, median
# of 200; shared 2-core x86, Python 3.11, numpy 2.4), more than all the
# per-tuple work of a small structure.  Kernel time / worklist time, median
# over 5 seeds of the best of 15 runs: at 16 tuples 2.5 (random R/3,E/2),
# 1.9 (hub), 3.7 (directed path); 32: 1.6, 0.78, 3.6; 64: 0.86, 0.26, 3.8;
# 128: 0.52, 0.08, 4.2.
SMALL_FACTS = 64


class Structure:
    """A finite relational structure.

    relations maps each symbol name to the tuple of its vectors, each a
    tuple of element ids, and rows to the same vectors as an int64 array,
    one row each; a structure keeps the form it was built in and makes the
    other, like each view below (a cached property), on first use.  A vector
    occurs once within a relation (set semantics).  Every universe element
    must occur in at least one tuple (coverage).
    """

    def __init__(self, signature: Signature, relations: dict, element_names=None,
                 _checked=False):
        """relations maps symbol names to element-id vectors, as 2-d arrays
        or iterables of sequences; a repeated vector keeps its first place.
        _checked: relations maps every symbol to distinct vectors, all as
        int64 row arrays or all as tuples of tuples, which together cover
        range(len(element_names))."""
        self.signature = signature
        if _checked:
            self._store(relations, element_names)
            return
        rows = {name: _int_rows(relations.get(name, ()), name, arity)
                for name, arity in signature.symbols}
        for name in relations:
            if name not in signature.arity:
                raise StructureError("unknown relation symbol %s" % name)
        used = np.concatenate([r.ravel() for r in rows.values()])
        if element_names is None:
            element_names = [str(i) for i in range(used.max() + 1 if len(used) else 0)]
        n = len(element_names)
        try:
            seen = np.bincount(used, minlength=n)
        except ValueError:   # a negative id
            seen = None
        if seen is None or len(seen) > n:
            raise StructureError("element id %d out of range" % (
                used[(used < 0) | (used >= n)].min()))
        if np.count_nonzero(seen) < n:
            _uncovered(element_names, np.flatnonzero(seen == 0))
        self._store({name: _first_rows(r, n) for name, r in rows.items()},
                    element_names)

    def _store(self, relations, element_names):
        self.element_names = list(element_names)
        self.n = len(element_names)
        self.counts = {name: len(vecs) for name, vecs in relations.items()}
        self._size = sum(self.counts.values())
        if isinstance(next(iter(relations.values())), np.ndarray):
            for r in relations.values():
                r.flags.writeable = False
            self.rows = relations
        else:
            self.relations = relations

    @classmethod
    def from_named(cls, signature: Signature, facts: Iterable[tuple[str, Sequence[str]]],
                   universe: Optional[Sequence[str]] = None, pad_universe=False):
        """Build a structure from (relation, element-name vector) facts.

        Ids are assigned in first-occurrence order (declared universe first).
        With pad_universe a fresh unary relation holding every element is added,
        so declared-but-unused elements become legal.
        """
        rel, flat = [], []
        for name, vec in facts:
            if name not in signature.arity:
                raise StructureError("unknown relation symbol %s" % name)
            if len(vec) != signature.arity[name]:
                raise StructureError("arity mismatch for %s: %r" % (name, tuple(vec)))
            rel.append(name)
            flat.extend(map(str, vec))
        return cls._from_names(signature, rel, flat, universe, pad_universe)

    @classmethod
    def _from_names(cls, signature, rel, flat, universe, pad_universe):
        """The structure of the facts whose symbols are rel, in order, and
        whose element names, concatenated, are flat."""
        index: dict = {}   # name -> id, in first-occurrence order
        for x in universe or ():
            index.setdefault(x, len(index))
        ids = [index.setdefault(x, len(index)) for x in flat]
        names = list(index)
        if pad_universe:   # a fact All(x) for every x; All1, All2, ... if taken
            pad = next(name for name in ("All%s" % (k or "") for k in count())
                       if name not in signature.arity)
            signature = Signature(list(signature.symbols) + [(pad, 1)])
            rel, ids = rel + [pad] * len(names), ids + list(range(len(names)))
        if len(rel) >= SMALL_FACTS:
            return cls(signature, _group(signature, rel, ids), names)
        vecs: dict = {name: {} for name in signature.names()}
        it = iter(ids)
        for name in rel:   # the dicts keep each vector's first occurrence
            vecs[name][tuple(islice(it, signature.arity[name]))] = None
        if universe and len(set(ids)) < len(names):
            _uncovered(names, sorted(set(range(len(names))) - set(ids)))
        return cls(signature, {name: tuple(v) for name, v in vecs.items()}, names,
                   _checked=True)

    @cached_property
    def rows(self) -> dict:
        """Symbol name -> int64 array of its vectors, one row each."""
        rows = {name: np.array(self.relations[name], dtype=np.int64).reshape(-1, a)
                for name, a in self.signature.symbols}
        for r in rows.values():
            r.flags.writeable = False
        return rows

    @cached_property
    def relations(self) -> dict:
        """Symbol name -> the tuple of its vectors, each a tuple of ids."""
        return {name: tuple(map(tuple, r.tolist())) for name, r in self.rows.items()}

    @cached_property
    def tuple_refs(self) -> tuple:
        """The canonical Tup(A) enumeration: signature order, then tuple index."""
        return tuple(map(TupleRef._make, ((name, i) for name, m in self.counts.items()
                                          for i in range(m))))

    @cached_property
    def tuple_pos(self) -> dict:
        return {r: k for k, r in enumerate(self.tuple_refs)}

    @cached_property
    def _membership(self) -> dict:
        return {name: frozenset(vecs) for name, vecs in self.relations.items()}

    def size(self):
        """|Tup(A)|, the number of tuple occurrences."""
        return self._size

    def vector(self, ref: TupleRef) -> tuple:
        return self.relations[ref.relation][ref.index]

    def atp(self, vec: Sequence[int]) -> frozenset:
        """Atomic type: all symbols of matching arity whose relation holds vec."""
        vec = tuple(vec)
        return frozenset(
            name for name, a in self.signature.symbols
            if a == len(vec) and vec in self._membership[name])

    def holds(self, rel: str, vec) -> bool:
        return tuple(vec) in self._membership[rel]

    @cached_property
    def element_positions(self) -> list:
        """The element index: per element id, the sorted Tup positions whose
        vector holds it."""
        positions = [[] for _ in range(self.n)]
        for k, vec in enumerate(chain.from_iterable(self.relations.values())):
            for x in set(vec):
                positions[x].append(k)
        return positions

    @cached_property
    def overlaps(self) -> tuple:
        """The overlap graph as CSR lists (starts, other, label, taus): Tup
        position a overlaps other[starts[a]:starts[a + 1]], in increasing
        order, a included, and label[e] indexes taus, the stp_keys of the
        edges numbered by first occurrence."""
        vecs = list(chain.from_iterable(self.relations.values()))
        starts, other, label, index = [0], [], [], {}
        for va in vecs:
            near = sorted(self._near(va))
            other += near
            label += [index.setdefault(stp(va, vecs[b]), len(index)) for b in near]
            starts.append(len(other))
        return starts, other, label, list(map(stp_key, index))

    def _near(self, vec) -> set:
        positions = self.element_positions
        return {b for x in set(vec) for b in positions[x]}

    def metrics(self):
        """(size, cohesion): cohesion counts ordered pairs of distinct
        overlapping tuple occurrences.  Each nonempty subset S of the
        elements two occurrences share counts the pair with sign
        (-1)^(|S|+1), and these signs sum to 1, so cohesion is the sum over
        the shared sets S of (-1)^(|S|+1) h(S) (h(S) - 1), where h(S)
        counts the occurrences holding S.  Where shared_sets gives up, from
        per-tuple position sets.  On a 1e5-tuple random R/3,E/2 structure
        this takes 0.044 s, the position sets 0.45 s (2-core x86)."""
        levels = shared_sets(distinct_elements(self, relation_rows(self)))
        if levels is None:
            return self.size(), sum(len(self._near(vec)) - 1 for vec in
                                    chain.from_iterable(self.relations.values()))
        return self.size(), sum(
            (-1) ** (k + 1) * int(np.dot(holders, holders - 1))
            for k, (_, _, _, holders) in enumerate(levels, 1))

    def rename(self, perm: Sequence[int]):
        """Apply a universe permutation; perm[i] is the new id of element i."""
        names = [None] * self.n
        for i, nm in enumerate(self.element_names):
            names[perm[i]] = nm
        image = np.asarray(perm, dtype=np.int64)
        return Structure(self.signature, {
            name: image[r] for name, r in self.rows.items()}, element_names=names)

    def __eq__(self, other):
        return (isinstance(other, Structure)
                and self.signature == other.signature
                and self.n == other.n
                and self.relations == other.relations)

    def __repr__(self):
        return "Structure(n=%d, %s)" % (
            self.n,
            ", ".join("|%s|=%d" % item for item in self.counts.items()))


def _group(signature, rel, ids):
    """Symbol name -> int64 array of the vectors of the facts whose symbols
    are rel, in order, and whose ids, concatenated, are ids."""
    arity = [a for _, a in signature.symbols]
    rel = list(map({name: k for k, (name, _) in enumerate(
        signature.symbols)}.__getitem__, rel))
    ids = np.array(ids, dtype=np.int64)
    if rel != sorted(rel):   # one block of ids per relation, facts in order
        rel = np.array(rel, dtype=np.int64)
        ids = ids[np.argsort(np.repeat(rel, np.array(arity)[rel]), kind="stable")]
        rel = rel.tolist()
    rows, end = {}, 0
    for k, (name, a) in enumerate(signature.symbols):
        start, end = end, end + a * rel.count(k)
        rows[name] = ids[start:end].reshape(-1, a)
    return rows


def _uncovered(names, missing):
    raise StructureError("uncovered universe element(s): %s" % ", ".join(
        names[i] for i in missing))


def _int_rows(vectors, name, arity):
    """Element-id vectors as a new int64 array of shape (len(vectors), arity)."""
    if isinstance(vectors, np.ndarray):
        bad = None if vectors.shape[1:] == (arity,) else vectors.shape[1:]
    else:
        vectors = list(vectors)
        bad = next((tuple(t) for t in vectors if len(t) != arity), None)
    if bad is not None:
        raise StructureError("arity mismatch for %s: %r" % (name, bad))
    return np.array(vectors, dtype=np.int64).reshape(-1, arity)


def _first_rows(rows, n):
    """The rows of a relation over range(n) without repeats, each row at its
    first place: a stable sort of one int64 key per row, the row packed in
    base n where that fits in 63 bits, else its rank by _row_ids."""
    if len(rows) < 2:
        return rows
    if max(n - 1, 1).bit_length() * rows.shape[1] < 63:
        key = rows @ [n ** j for j in range(rows.shape[1] - 1, -1, -1)]
    else:
        key = _row_ids(rows)[0]
    ordered = np.sort(key)
    if not np.count_nonzero(ordered[1:] == ordered[:-1]):
        return rows
    order = key.argsort(kind="stable")
    repeat = key[order][1:] == key[order][:-1]
    keep = np.ones(len(rows), dtype=bool)
    keep[order[1:][repeat]] = False   # a stable sort puts the first place first
    return rows[keep]


def _row_ids(rows):
    """Dense ids of the distinct rows of a 2-d array of ints >= -1, in
    lexicographic order, and their count: the one exact rank of int rows.
    Columns are packed into one key below span, the product of their ranges
    (each shifted by one, for -1), and the key is renumbered densely before
    span would reach 2^62, so no key overflows.  A key whose span is at most
    16 rows + 64 is ranked by a table pass, a prefix sum over range(span);
    any other by a sort (np.unique)."""
    ids, span = np.zeros(len(rows), dtype=np.int64), 1
    for col in rows.T if len(rows) else ():
        radix = int(col.max()) + 2
        if span * radix >= 1 << 62:
            ids, span = _rank(ids, span)
        ids = ids * radix + col + 1
        span *= radix
    return _rank(ids, span)


def _rank(key, span):
    """_row_ids' dense ids of int keys within range(span), and their count."""
    if span <= 16 * len(key) + 64:
        seen = np.zeros(span, dtype=np.int64)
        seen[key] = 1
        rank = np.cumsum(seen)
        return rank[key] - 1, int(rank[-1])
    distinct, ids = np.unique(key, return_inverse=True)
    return ids, len(distinct)


def relation_rows(A: Structure):
    """(relation index, first position, rows, pattern) per non-empty
    relation, where pattern[:, i] is the first position holding the element
    at position i, the array form of stp(a, a)."""
    out = []
    first = 0
    for index, (name, arity) in enumerate(A.signature.symbols):
        rows = A.rows[name]
        pattern = np.tile(np.arange(arity), (len(rows), 1))
        for i in range(arity):
            for j in reversed(range(i)):
                same = rows[:, j] == rows[:, i]
                pattern[same, i] = pattern[same, j]
        if len(rows):
            out.append((index, first, rows, pattern))
        first += len(rows)
    return out


def distinct_elements(A: Structure, rels):
    """The elements of each Tup position, as one int64 row of
    A.signature.max_arity columns, from A's relation_rows rels: each element
    at the first position that holds it, where the pattern points to the
    position itself, and -1 at every other position."""
    out = np.full((A.size(), A.signature.max_arity), -1, dtype=np.int64)
    for _, first, rows, pattern in rels:
        np.copyto(out[first:first + len(rows), :rows.shape[1]], rows,
                  where=pattern == np.arange(rows.shape[1]))
    return out


# shared_sets gives up once the orderings of the sets it has listed pass
# this many per row; rcr_run then refines on the overlap graph, and
# metrics() counts from position sets.  Ordinary inputs list 2-11 per tuple
# (random R/3,E/2 and 6-ary random, hub and chained-path structures).  Slice
# kernel against overlap worklist seconds (peak RSS, MB), half Q/k facts as
# k orderings each of random k-sets, half random E/2 facts, best of 3, one
# fresh process each, 2-core x86: k = 4, 32 per tuple, 997 facts 0.013 (39)
# against 0.036 (36), 3,987 facts 0.051 (53) against 0.114 (43); k = 5, 162
# per tuple, 1,018 facts 0.054 (54) against 0.046 (37), 4,064 facts 0.230
# (110) against 0.157 (46); k = 6, 969 per tuple, 1,016 facts 0.32 (142)
# against 0.06 (39), and each of 170 6-vectors in three relations, 976 per
# tuple, 0.38 (160) against 0.05 (38).
LISTING_PER_TUPLE = 128


def shared_sets(elements):
    """The element sets that two or more rows of elements (an array of
    distinct_elements) hold, listed level by level, as Apriori lists
    frequent itemsets (Agrawal and Srikant, VLDB 1994).  A set has no more
    holders than any of its subsets, so level k extends each shared
    (k-1)-set of a row by one more shared element of the row, larger than
    its elements, and keeps the k-sets of two or more holders; the set and
    the new element name the k-set, which a row lists only once.

    Returns a list with one (row, pos, ids, holders) per level k = 1, 2,
    ...: row[i] holds set ids[i] at the k positions pos[i], in increasing
    order of their elements, and holders[s] counts the rows holding set s,
    for dense ids s.  Returns None instead as soon as the orderings of the
    sets listed, the sum of holders x k!, pass LISTING_PER_TUPLE per row."""
    n, w = elements.shape
    valid = elements >= 0
    count = np.bincount(elements[valid])
    shared = np.where(valid, count[np.maximum(elements, 0)], 0) > 1
    elements = np.where(shared, elements, -1)
    row, pos = np.nonzero(shared)
    ids, holders, pos = elements[row, pos], count, pos[:, None]
    levels, listed = [], 0
    while len(row):
        kept = holders > 1
        ids, holders = (np.cumsum(kept) - 1)[ids], holders[kept]
        listed += len(row) * factorial(len(levels) + 1)
        if listed > LISTING_PER_TUPLE * n:
            return None
        levels.append((row, pos, ids, holders))
        last = elements[row, pos[:, -1]]
        i, q = np.nonzero(elements[row] > last[:, None])
        row, pos = row[i], np.concatenate((pos[i], q[:, None]), axis=1)
        ids, nsets = _row_ids(np.stack((ids[i], elements[row, q]), axis=1))
        holders = np.bincount(ids, minlength=nsets)
        keep = holders[ids] > 1
        row, pos, ids = row[keep], pos[keep], ids[keep]
    return levels


def strictly_equal_size(A: Structure, B: Structure) -> bool:
    """|R^A| = |R^B| for every relation symbol."""
    if A.signature != B.signature:
        return False
    return A.counts == B.counts


class UnionInfo(NamedTuple):
    offset: int            # element ids >= offset belong to B
    counts_a: dict         # per relation, number of leading tuples from A

    def side(self, ref: TupleRef) -> str:
        return "A" if ref.index < self.counts_a[ref.relation] else "B"


def disjoint_union(A: Structure, B: Structure):
    """Rename the universes apart and concatenate relations (A's tuples first).

    Returns (union, info); info recovers the origin of every tuple, which is
    what makes refinement color ids comparable across A and B.
    """
    if A.signature != B.signature:
        raise StructureError("signature mismatch")
    if A.size() + B.size() < SMALL_FACTS:
        rels = {name: vecs + tuple(tuple(x + A.n for x in t) for t in B.relations[name])
                for name, vecs in A.relations.items()}
    else:
        rels = {name: np.concatenate((r, B.rows[name] + A.n))
                for name, r in A.rows.items()}
    names = (["A:" + s for s in A.element_names]
             + ["B:" + s for s in B.element_names])
    return (Structure(A.signature, rels, names, _checked=True),
            UnionInfo(A.n, dict(A.counts)))


# ---------------------------------------------------------------------------
# text / json formats

def parse_signature(text: str) -> Signature:
    """Parse ``E/2, R/6``; a malformed part raises StructureError."""
    symbols = []
    for part in text.split(","):
        part = part.strip()
        if "/" not in part:
            raise StructureError("expected NAME/ARITY, got %r" % part)
        name, ar = part.rsplit("/", 1)
        try:
            symbols.append((name.strip(), int(ar)))
        except ValueError:
            raise StructureError("bad arity in %r" % part)
    return Signature(symbols)


# One match per line of a text whose every line ends in "\n": a header, a
# fact NAME(args), or anything else (a blank line when empty), each without
# the blanks around it and a trailing comment.
_LINE = re.compile(r"""[^\S\n]*
    (?: (signature|universe): ([^#\n]*)
      | ([^(#\n]*?) [^\S\n]* (\() ([^#\n]*) \)
      | ([^#\n]*?) )
    [^\S\n]* (?:\#[^\n]*)? \n""", re.X)


def parse_structure(text: str, fmt="text", pad_universe=False) -> Structure:
    """Parse the structure file format.

    Text format: a header ``signature: E/2, R/6`` followed by one fact per
    line, ``E(1, 2)``.  An optional ``universe: a, b, c`` line declares
    elements up front.  ``#`` starts a comment.  JSON files carry the fields
    ``signature`` (list of [name, arity]) and ``relations`` (name -> list of
    element-name vectors), plus an optional ``universe`` list.  Elements are
    numbered by first occurrence, the declared universe first.
    """
    if fmt == "json":
        return _parse_json(text, pad_universe)
    signature = universe = None
    rel, args = [], []
    lines = text.splitlines()
    body = "\n".join(lines) + "\n" if lines else ""
    for lineno, (head, rest, name, paren, fact, other) in enumerate(
            _LINE.findall(body), 1):
        if (paren or other) and signature is None:
            raise ParseError("fact before signature header", lineno)
        if paren:
            if name not in signature.arity:
                raise ParseError("unknown relation symbol %r" % name, lineno)
            count = fact.count(",") + 1
            if count != signature.arity[name] or count == 1 and not fact.strip():
                raise ParseError(
                    "arity mismatch: %s expects %d arguments, got %d" % (
                        name, signature.arity[name], count if fact.strip() else 0),
                    lineno)
            rel.append(name)
            args.append(fact)
        elif head == "signature":
            if signature is not None:
                raise ParseError("duplicate signature header", lineno)
            try:
                signature = parse_signature(rest)
            except StructureError as e:
                raise ParseError(str(e), lineno)
        elif head:
            universe = [x.strip() for x in rest.split(",") if x.strip()]
        elif other:
            raise ParseError("expected NAME(elem, ...), got %r" % other, lineno)
    if signature is None:
        raise ParseError("missing signature header")
    flat = list(map(str.strip, ",".join(args).split(","))) if args else []
    try:
        return Structure._from_names(signature, rel, flat, universe, pad_universe)
    except StructureError as e:
        raise ParseError(str(e))


def _parse_json(text, pad_universe):
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:   # deep nesting
        raise ParseError("invalid json: %s" % e)
    try:
        signature = Signature([(n, a) for n, a in doc["signature"]])
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError("bad signature field: %s" % e)
    try:
        facts = []
        for name, vecs in doc.get("relations", {}).items():
            if name not in signature:
                raise ParseError("unknown relation symbol %r" % name)
            for vec in vecs:
                if len(vec) != signature.arity[name]:
                    raise ParseError("arity mismatch in %s: %r" % (name, vec))
                facts.append((name, vec))
        universe = [str(x) for x in doc["universe"]] if "universe" in doc else None
        return Structure.from_named(signature, facts, universe, pad_universe)
    except (AttributeError, TypeError) as e:
        raise ParseError("bad relations or universe field: %s" % e)
    except StructureError as e:
        raise ParseError(str(e))


def serialize_structure(A: Structure) -> str:
    names = A.element_names
    lines = ["signature: " + ", ".join("%s/%d" % s for s in A.signature.symbols)]
    for name, vecs in A.relations.items():
        lines += ["%s(%s)" % (name, ", ".join([names[x] for x in t]))
                  for t in vecs]
    return "\n".join(lines) + "\n"


def structure_to_json(A: Structure) -> str:
    names = A.element_names
    doc = {
        "signature": [[n, a] for n, a in A.signature.symbols],
        "universe": list(names),
        "relations": {name: [[names[x] for x in t] for t in vecs]
                      for name, vecs in A.relations.items()},
    }
    return json.dumps(doc, indent=2)
