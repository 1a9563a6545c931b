"""Seeded input generators for the four benchmark workloads.

Everything here is the benchmark's own code: no relcr function builds an
input, so the program under test only ever sees the structure files written
by `write_inputs`.  Input set k of a run with seed s is drawn from one
`random.Random("s:k")`, so the same seed gives byte-identical files.

A workload's inputs are
  full      pairs for `distinguish`, `refine` (of B) and vgrep+CR (of B);
  game      pairs at the game's 6-tuple relation guard, for `game` and for
            sentence synthesis;
  sentence  the pairs given to `logic.distinguishing_sentence`;
  hom       (acyclic pattern, target) jobs for `homcount`.

Pair kinds, and the verdict each must get:
  iso      B is A with renamed elements and shuffled facts: indistinguishable;
  size     B has one E fact more than A: distinguished at round 0;
  rewired  one E fact of A moved in place, relation sizes kept;
  cycle    a path against a shorter path plus a directed cycle, same size.
Rewired and cycle pairs carry a `witness`, a small acyclic pattern whose
homomorphism counts into A and B differ (the checker recounts them), so by
the paper's theorem they must be distinguished, at round 1 or later since
their round-0 colour histograms agree.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

SIG_RE = (("R", 3), ("E", 2))
SIG_E = (("E", 2),)

# Full-size parameters at scale 1, chosen so that one round of operations
# takes about 1.5-2 s on 2 cores and a 25 s run collects 12 or more rounds.
RANDOM_TUPLES = 800
HUB_TUPLES = 130
PATH_TUPLES = 200
ORACLE_TARGET = (300, {"R": 300, "E": 450})   # elements, tuples per relation
ORACLE_PATTERN_TUPLES = (4, 4, 5, 5, 6, 6)
# Small pairs per input set: this many small structures, each against an
# isomorphic copy and against a distinguished variant, all given to sentence
# synthesis; the first GAME_BASES of them also to the game.  The cost of one
# small pair varies by 20-25% from one instance to the next (the game's by
# ~10%, at ~0.1 s for an isomorphic pair), so a round averages over several.
WINDOW_BASES = 8
GAME_BASES = 4
# A run draws this many independent input sets and round r uses set r mod
# SETS.  The cost of one random draw follows its number of refinement
# rounds (hubs of 100 tuples stabilise after 2, 3 or 4 rounds), so a run's
# median over rounds is a median over draws.
SETS = 8
ORACLE_DEEP = ((8, 3), (9, 3))                 # (path length, cycle length)


class Struct:
    """A structure as the benchmark writes it: facts over integer elements."""

    def __init__(self, sig, facts, is_path=False):
        self.sig = tuple(sig)
        self.facts = {r: list(facts.get(r, ())) for r, _ in self.sig}
        self.is_path = is_path
        self.path: Optional[Path] = None   # set by write_inputs

    def size(self):
        return sum(len(v) for v in self.facts.values())

    def sizes(self):
        return {r: len(v) for r, v in self.facts.items()}

    def elements(self):
        return sorted({x for rows in self.facts.values() for t in rows for x in t})

    def text(self):
        lines = ["signature: " + ", ".join("%s/%d" % s for s in self.sig)]
        for r, _ in self.sig:
            for t in self.facts[r]:
                lines.append("%s(%s)" % (r, ", ".join("e%d" % x for x in t)))
        return "\n".join(lines) + "\n"


@dataclass
class Pair:
    kind: str
    a: Struct
    b: Struct
    witness: Optional[Struct] = None


@dataclass
class HomJob:
    pattern: Struct
    target: Struct


@dataclass
class Inputs:
    full: list = field(default_factory=list)
    game: list = field(default_factory=list)
    sentence: list = field(default_factory=list)
    hom: list = field(default_factory=list)

    def structures(self):
        seen = {}
        for p in self.full + self.game + self.sentence:
            for s in (p.a, p.b, p.witness):
                if s is not None:
                    seen.setdefault(id(s), s)
        for j in self.hom:
            seen.setdefault(id(j.pattern), j.pattern)
            seen.setdefault(id(j.target), j.target)
        return list(seen.values())


# ---------------------------------------------------------------------------
# building blocks

def random_struct(rng, sig, n_elements, sizes):
    facts = {}
    for r, k in sig:
        seen = set()
        rows = []
        while len(rows) < sizes.get(r, 0):
            t = tuple(rng.randrange(n_elements) for _ in range(k))
            if t not in seen:
                seen.add(t)
                rows.append(t)
        facts[r] = rows
    return Struct(sig, facts)


def hub_struct(rng, n_leaves, n_r, n_e):
    """Element 0 sits in every tuple: E(0, leaf) and R(0, leaf, leaf)."""
    def fill(n, make):
        seen = set()
        rows = []
        while len(rows) < n:
            t = make()
            if t not in seen:
                seen.add(t)
                rows.append(t)
        return rows

    leaf = lambda: 1 + rng.randrange(n_leaves)   # noqa: E731
    return Struct(SIG_RE, {"E": fill(n_e, lambda: (0, leaf())),
                           "R": fill(n_r, lambda: (0, leaf(), leaf()))})


def path_struct(sig, length, cycle=0):
    """A directed E-path of length-cycle edges, plus a directed cycle of
    `cycle` edges on fresh elements: `length` E facts in all."""
    m = length - cycle
    rows = [(i, i + 1) for i in range(m)]
    base = m + 1
    rows += [(base + i, base + (i + 1) % cycle) for i in range(cycle)]
    return Struct(sig, {"E": rows}, is_path=(cycle == 0))


def relabel(s, rng):
    """An isomorphic copy: fresh element ids, facts in a new order."""
    elems = s.elements()
    image = list(range(len(elems)))
    rng.shuffle(image)
    perm = dict(zip(elems, image))
    facts = {}
    for r, rows in s.facts.items():
        rows = [tuple(perm[x] for x in t) for t in rows]
        rng.shuffle(rows)
        facts[r] = rows
    return Struct(s.sig, facts, is_path=s.is_path)


def plus_one_e(s, rng):
    """One E fact more, between two distinct existing elements."""
    elems = s.elements()
    have = set(s.facts["E"])
    while True:
        t = (rng.choice(elems), rng.choice(elems))
        if t[0] != t[1] and t not in have:
            facts = dict(s.facts)
            facts["E"] = s.facts["E"] + [t]
            return Struct(s.sig, facts)


def _occurrences(s):
    occ = {}
    for rows in s.facts.values():
        for t in rows:
            for x in set(t):
                occ[x] = occ.get(x, 0) + 1
    return occ


def _position_counts(s, rel, pos):
    out = {}
    for t in s.facts[rel]:
        out[t[pos]] = out.get(t[pos], 0) + 1
    return out


def rewire(s, rng, changes):
    """Move one E fact (a, b) to (a, c) in place, keeping relation sizes,
    self similarity types and the universe; `changes(b, c)` says whether
    the move changes the witness pattern's count.  None if no move fits."""
    occ = _occurrences(s)
    elems = s.elements()
    have = set(s.facts["E"])
    order = list(range(len(s.facts["E"])))
    rng.shuffle(order)
    for k in order:
        a, b = s.facts["E"][k]
        if a == b or occ[b] < 2:
            continue          # a loop, or b would leave the universe
        cands = list(elems)
        rng.shuffle(cands)
        for c in cands:
            if c in (a, b) or (a, c) in have or not changes(b, c):
                continue
            rows = list(s.facts["E"])
            rows[k] = (a, c)
            facts = dict(s.facts)
            facts["E"] = rows
            return Struct(s.sig, facts)
    return None


def pattern(sig, rel_vectors):
    """A pattern structure over `sig` from (relation, element vector) facts."""
    facts = {r: [] for r, _ in sig}
    for r, vec in rel_vectors:
        facts[r].append(tuple(vec))
    return Struct(sig, facts)


# hom(IN_DEGREE_SQUARED, S) = sum over y of indeg_E(y)^2.
IN_DEGREE_SQUARED = pattern(SIG_RE, [("E", (0, 1)), ("E", (2, 1))])
# hom(E_HEAD_IN_R, S) = sum over y of indeg_E(y) * #R facts with y second.
E_HEAD_IN_R = pattern(SIG_RE, [("E", (0, 1)), ("R", (2, 1, 3))])


def walk_pattern(sig, length):
    """Directed path with `length` E facts: hom counts directed walks."""
    return pattern(sig, [("E", (i, i + 1)) for i in range(length)])


def random_rewired_pair(rng, make):
    """A fresh `make(rng)` structure and an in-place rewiring of it that
    changes the IN_DEGREE_SQUARED count: moving a head b -> c changes the
    sum of squared in-degrees by 2 * (indeg(c) - indeg(b) + 1)."""
    while True:
        A = make(rng)
        indeg = _position_counts(A, "E", 1)
        B = rewire(A, rng, lambda b, c: indeg.get(c, 0) != indeg[b] - 1)
        if B is not None:
            return A, B


def hub_rewired_pair(rng, make):
    """Rewire E(0, b) -> E(0, c) in a hub: E heads have in-degree 1 (b) or
    0 (c), so the E_HEAD_IN_R count changes by R2(c) - R2(b), where R2
    counts the R facts with the element in second place."""
    while True:
        A = make(rng)
        r2 = _position_counts(A, "R", 1)
        B = rewire(A, rng, lambda b, c: r2.get(c, 0) != r2.get(b, 0))
        if B is not None:
            return A, B


def acyclic_pattern(rng, sig, n_tuples):
    """A random connected acyclic pattern: each new fact shares one element
    of an earlier fact and takes fresh elements elsewhere, so the order of
    creation is a join tree and no fact repeats.  (Sharing more elements
    mostly gives count 0 into a sparse random target.)"""
    vecs = []
    facts = []
    fresh = 0
    while len(facts) < n_tuples:
        rel, k = rng.choice(sig)
        vec = [None] * k
        if vecs:
            vec[rng.randrange(k)] = rng.choice(rng.choice(vecs))
        for pos in range(k):
            if vec[pos] is None:
                vec[pos] = fresh
                fresh += 1
        vecs.append(vec)
        facts.append((rel, vec))
    return pattern(sig, facts)


# ---------------------------------------------------------------------------
# the four workloads

def _random_window(rng):
    return random_struct(rng, SIG_RE, 5, {"R": 4, "E": 4})


def _hub_window(rng):
    return hub_struct(rng, 5, 4, 3)


def _window_pairs(rng, make, rewired_pair, witness):
    out = []
    for _ in range(WINDOW_BASES):
        A, B = rewired_pair(rng, make)
        out += [Pair("iso", A, relabel(A, rng)), Pair("rewired", A, B, witness)]
    return out


def _three_kinds(rng, make, rewired_pair, witness):
    """iso, size and rewired pairs around fresh `make(rng)` structures."""
    A = make(rng)
    A2, B2 = rewired_pair(rng, make)
    return [Pair("iso", A, relabel(A, rng)),
            Pair("size", A, plus_one_e(A, rng)),
            Pair("rewired", A2, B2, witness)]


def _scaled(n, scale, least):
    return max(least, int(round(n * scale)))


def random_sparse(seed, scale=1.0):
    """The criterion-10 generator (R/3, E/2, as many elements as tuples)."""
    rng = random.Random(seed)
    n = _scaled(RANDOM_TUPLES, scale, 40)
    sizes = {"R": n // 2, "E": n - n // 2}
    full = _three_kinds(rng, lambda r: random_struct(r, SIG_RE, n, sizes),
                        random_rewired_pair, IN_DEGREE_SQUARED)
    windows = _window_pairs(rng, _random_window, random_rewired_pair,
                            IN_DEGREE_SQUARED)
    return Inputs(full, windows[:2 * GAME_BASES], windows,
                  [HomJob(IN_DEGREE_SQUARED, p.b) for p in full])


def hub_star(seed, scale=1.0):
    """One hub in every tuple; leaves drawn from a pool of n."""
    rng = random.Random(seed)
    n = _scaled(HUB_TUPLES, scale, 20)
    make = lambda r: hub_struct(r, n, n - n // 2, n // 2)   # noqa: E731
    full = _three_kinds(rng, make, hub_rewired_pair, E_HEAD_IN_R)
    windows = _window_pairs(rng, _hub_window, hub_rewired_pair, E_HEAD_IN_R)
    return Inputs(full, windows[:2 * GAME_BASES], windows,
                  [HomJob(E_HEAD_IN_R, p.b) for p in full])


def _path_pairs(rng, sig, m, c):
    """Path against its relabelled copy, and path against a path plus a
    c-cycle.  Walks of length m - c + 2 number c - 1 in the path and c in
    the other structure (the cycle has c walks of every length)."""
    P = path_struct(sig, m)
    walk = walk_pattern(sig, m - c + 2)
    return [Pair("iso", P, relabel(P, rng)),
            Pair("cycle", P, relabel(path_struct(sig, m, c), rng), walk)]


def long_path(seed, scale=1.0):
    rng = random.Random(seed)
    m = _scaled(PATH_TUPLES, scale, 12)
    # the seed only relabels: path costs follow m and c, not the labels
    full = _path_pairs(rng, SIG_E, m, m // 4)
    windows = [p for _ in range(WINDOW_BASES) for p in _path_pairs(rng, SIG_E, 6, 3)]
    walk = full[1].witness
    return Inputs(full, windows[:2 * GAME_BASES], windows,
                  [HomJob(walk, p.b) for p in full])


def oracles(seed, scale=1.0):
    """Small pairs at the game guard, deep path/cycle pairs, and random
    acyclic patterns into a mid-size random target."""
    rng = random.Random(seed)
    windows = _window_pairs(rng, _random_window, random_rewired_pair,
                            IN_DEGREE_SQUARED)
    game = windows[:2 * GAME_BASES]
    deep = []
    for m, c in ORACLE_DEEP:
        deep += _path_pairs(rng, SIG_RE, m, c)[1:]
    n_el, sizes = ORACLE_TARGET
    target = random_struct(rng, SIG_RE, _scaled(n_el, scale, 10),
                           {r: _scaled(k, scale, 10) for r, k in sizes.items()})
    hom = [HomJob(acyclic_pattern(rng, SIG_RE, k), target)
           for k in ORACLE_PATTERN_TUPLES]
    return Inputs(game + deep, game, windows + deep, hom)


WORKLOADS = {
    "random-sparse": random_sparse,
    "hub-star": hub_star,
    "long-path": long_path,
    "oracles": oracles,
}


def input_set(workload, seed, k, scale=1.0):
    """Input set k of a run with this seed (its own random stream)."""
    return WORKLOADS[workload]("%d:%d" % (seed, k), scale)


def write_inputs(inputs, directory):
    """Write every structure to its own file and remember the path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for k, s in enumerate(inputs.structures()):
        s.path = directory / ("s%03d.struct" % k)
        s.path.write_text(s.text())
