"""Seeded random instance generators.

All randomness flows from one integer seed through random.Random; child
generators derive their seeds from the parent stream so independent pieces
stay reproducible.
"""

from __future__ import annotations

import random
from typing import Optional

from .core import Signature, Structure


def random_structure(signature: Signature, n_elements: int,
                     tuples_per_relation: dict, seed: int) -> Structure:
    """Random structure with the requested relation sizes; duplicates are
    rejected by resampling.  The universe shrinks to the covered elements.
    A size for a relation outside the signature, a negative size or more
    tuples than n_elements values can make is a ValueError."""
    known = {name for name, _ in signature.symbols}
    for name, want in tuples_per_relation.items():
        if name not in known:
            raise ValueError("unknown relation symbol %s" % name)
        if want < 0:
            raise ValueError("negative tuple count %d for relation %s"
                             % (want, name))
    rng = random.Random(seed)
    facts = []
    for name, arity in signature.symbols:
        want = tuples_per_relation.get(name, 0)
        limit = max(n_elements, 0) ** arity
        if want > limit:
            raise ValueError("relation %s cannot hold %d distinct tuples" % (name, want))
        seen = set()
        while len(seen) < want:
            t = tuple(rng.randrange(n_elements) for _ in range(arity))
            if t not in seen:
                seen.add(t)
                facts.append((name, [str(x) for x in t]))
    return Structure.from_named(signature, facts)


def random_structure_like(A: Structure, seed: int,
                          n_elements: Optional[int] = None) -> Structure:
    """Random structure of strictly equal size to A (same relation sizes)."""
    sizes = {name: len(rows) for name, rows in A.relations.items()}
    return random_structure(A.signature, n_elements or max(A.n, 1), sizes, seed)


def random_graph_structure(n_vertices: int, p: float, seed: int) -> Structure:
    """Random simple graph encoded over {E/2, U/1}: symmetric edge tuples
    plus one U-tuple per vertex (so isolated vertices stay covered)."""
    rng = random.Random(seed)
    sig = Signature([("E", 2), ("U", 1)])
    facts = [("U", [str(v)]) for v in range(n_vertices)]
    for u in range(n_vertices):
        for v in range(u + 1, n_vertices):
            if rng.random() < p:
                facts.append(("E", [str(u), str(v)]))
                facts.append(("E", [str(v), str(u)]))
    return Structure.from_named(sig, facts)


def spawn_seeds(seed: int, count: int):
    rng = random.Random(seed)
    return [rng.getrandbits(63) for _ in range(count)]
