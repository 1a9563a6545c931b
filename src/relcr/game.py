"""The guarded bijection game between Spoiler and Duplicator.

A configuration pins one tuple over each structure (equal arity, possibly
empty).  It is distinguishing when the pinned tuples disagree on their
similarity type or on the atomic type of any index-subvector of length at
most the maximal arity.  One round: Spoiler names a relation, Duplicator
answers with a bijection between its two tuple sets (losing immediately when
the sizes differ), Spoiler moves the configuration to a tuple and its image.
Duplicator survives the round when the similarity types of the old and new
pins agree on both sides and the new configuration is not distinguishing.

The solver is exact and polynomial (Hella, "Logical hierarchies in PTIME",
Inf. Comput. 1996).  By Hall's theorem, Duplicator survives Spoiler's pick
of R from pins (a, b) with r rounds left exactly when R^A x R^B has a
perfect matching whose pairs (t, t') keep stp(a, t) = stp(b, t') and lie
outside W_{r-1}, the fact pairs that Spoiler wins from within r - 1 rounds.
W_0 holds the distinguishing pairs, and W_{r+1} adds each pair with a
relation that has no such matching under W_r (found by augmenting paths).
W grows to a fixpoint or the budget, and the root configuration is tested
against W_{rounds-1}.  The game reads no refinement colours, so it checks
refinement independently.
"""

from __future__ import annotations

from itertools import product
from typing import Optional

from .core import Structure, stp

# Each round matches every fact pair (n^2 a relation) in every relation.  At
# 24 tuples, on a 2-core x86 machine: path(24) against path(18) + cycle(6)
# takes 0.16 s; an R/3,E/2 chain of 24 + 24 tuples against itself, which
# runs W to its fixpoint, 0.39 s; random 24 + 24 pairs and hubs <= 0.04 s.
DEFAULT_RELATION_LIMIT = 24


class GameError(ValueError):
    pass


class Configuration:
    def __init__(self, a=(), b=()):
        self.a = tuple(a)
        self.b = tuple(b)
        if len(self.a) != len(self.b):
            raise GameError("pinned tuples must have equal arity")

    @property
    def arity(self):
        return len(self.a)


def _realized_subvectors(x, A: Structure):
    """All (relation, index vector) pairs whose pinned subvector is a fact.

    Comparing these sets is equivalent to comparing the atomic types of every
    index-subvector of length up to ar(sigma), but enumerates relation rows
    instead of the exponentially many index vectors."""
    positions: dict = {}
    for i, v in enumerate(x):
        positions.setdefault(v, []).append(i)
    out = set()
    for name, rows in A.relations.items():
        for row in rows:
            if all(v in positions for v in row):
                for idx in product(*(positions[v] for v in row)):
                    out.add((name, idx))
    return out


def is_distinguishing(cfg: Configuration, A: Structure, B: Structure,
                      realized=_realized_subvectors) -> bool:
    """The empty configuration is never distinguishing; otherwise compare the
    similarity types of the pins and the atomic types of all short
    index-subvectors."""
    if cfg.arity == 0:
        return False
    if stp(cfg.a, cfg.a) != stp(cfg.b, cfg.b):
        return True
    return realized(cfg.a, A) != realized(cfg.b, B)


def default_round_bound(A: Structure, B: Structure) -> int:
    return A.size() + B.size() + 2


def _has_perfect_matching(adj) -> bool:
    """Whether the bipartite graph with n vertices a side, left vertex k
    adjacent to the right vertices adj[k], matches every vertex.  Each left
    vertex in turn is matched along an augmenting path found by breadth-first
    search."""
    n = len(adj)
    owner = [-1] * n      # right vertex -> its left partner
    partner = [-1] * n    # left vertex -> its right partner
    for root in range(n):
        via = [-1] * n    # right vertex -> the left vertex that reached it
        queue = [root]
        end = -1
        for u in queue:
            for v in adj[u]:
                if via[v] < 0:
                    via[v] = u
                    if owner[v] < 0:
                        end = v
                        break
                    queue.append(owner[v])
            if end >= 0:
                break
        if end < 0:
            return False
        while end >= 0:
            u = via[end]
            owner[end] = u
            partner[u], end = end, partner[u]
    return True


class _Fixpoint:
    """W_r of one solve: won[R][i][j] says that Spoiler wins from the pins
    (R^A[i], R^B[j]) within the rounds stepped so far."""

    def __init__(self, A, B):
        self.A = A
        self.B = B
        self.names = A.signature.names()
        self._stps: dict = {}      # similarity type -> small int
        self._profiles: dict = {}
        facts: dict = {}

        def realized(x, S):        # each pin's facts, once a side
            key = (S is B, x)
            if key not in facts:
                facts[key] = _realized_subvectors(x, S)
            return facts[key]

        self.won = {name: [[is_distinguishing(Configuration(ta, tb), A, B,
                                              realized)
                            for tb in B.relations[name]]
                           for ta in A.relations[name]]
                    for name in self.names}

    def _profile(self, S, pin, name):
        """stp(pin, t) for each row t of relation name in S, as small ints."""
        key = (S is self.B, pin, name)
        if key not in self._profiles:
            self._profiles[key] = [
                self._stps.setdefault(stp(pin, row), len(self._stps))
                for row in S.relations[name]]
        return self._profiles[key]

    def survives(self, a, b, name):
        """Whether Duplicator has a bijection of relation name under which
        every pick keeps the similarity types with the pins (a, b) and lands
        outside W."""
        pa = self._profile(self.A, a, name)
        pb = self._profile(self.B, b, name)
        if len(pa) != len(pb):
            return False
        adj = [[j for j, tb in enumerate(pb) if tb == ta and not lost[j]]
               for ta, lost in zip(pa, self.won[name])]
        return _has_perfect_matching(adj)

    def step(self) -> bool:
        """Grow W_r to W_{r+1}; False when it stays the same."""
        new = [(name, i, j)
               for name in self.names
               for i, ta in enumerate(self.A.relations[name])
               for j, tb in enumerate(self.B.relations[name])
               if not self.won[name][i][j]
               and not all(self.survives(ta, tb, s) for s in self.names)]
        for name, i, j in new:
            self.won[name][i][j] = True
        return bool(new)


def spoiler_wins(A: Structure, B: Structure, rounds: Optional[int] = None,
                 cfg: Optional[Configuration] = None,
                 relation_limit: int = DEFAULT_RELATION_LIMIT):
    """Exact decision of "Spoiler has an i-round winning strategy from cfg".

    Returns (winner_is_spoiler, trace); the trace is [(rounds, relation)],
    the first relation in signature order that Spoiler wins with from cfg,
    or [] when cfg is already distinguishing or Spoiler has no win."""
    if A.signature != B.signature:
        raise GameError("signature mismatch")
    for name in A.signature.names():
        if max(len(A.relations[name]), len(B.relations[name])) > relation_limit:
            raise GameError("relation %s has more than %d tuples "
                            "(the game's size guard)" % (name, relation_limit))
    if rounds is None:
        rounds = default_round_bound(A, B)
    cfg = cfg or Configuration()
    if is_distinguishing(cfg, A, B):
        return True, []
    if rounds <= 0:
        return False, []
    w = _Fixpoint(A, B)
    for _ in range(rounds - 1):
        if not w.step():
            break
    for name in w.names:
        if not w.survives(cfg.a, cfg.b, name):
            return True, [(rounds, name)]
    return False, []
