"""The guarded bijection game between Spoiler and Duplicator.

A configuration pins one tuple over each structure (equal arity, possibly
empty).  It is distinguishing when the pinned tuples disagree on their
similarity type or on the atomic type of any index-subvector of length at
most the maximal arity.  One round: Spoiler names a relation, Duplicator
answers with a bijection between its two tuple sets (losing immediately when
the sizes differ), Spoiler moves the configuration to a tuple and its image.
Duplicator survives the round when the similarity types of the old and new
pins agree on both sides and the new configuration is not distinguishing.

The solver is exact.  Bijection enumeration is pruned block-wise: a useful
Duplicator bijection must preserve the similarity type with the pinned tuple
and the refinement color at the remaining round budget, because mapping
across either kind of class hands Spoiler a win (a color difference at round
j is expressible by a guarded formula of depth j, hence a j-round strategy).
The pruning is applied only to pairs of strictly equal size; other pairs are
an immediate 1-round Spoiler win.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import Optional

from .core import Structure, TupleRef, stp, strictly_equal_size
from .rcr import rcr_compare

DEFAULT_RELATION_LIMIT = 6


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


class _Solver:
    def __init__(self, A, B, relation_limit):
        self.A = A
        self.B = B
        for name in A.signature.names():
            if max(len(A.relations[name]), len(B.relations[name])) > relation_limit:
                raise GameError(
                    "relation %s exceeds the bijection-enumeration guard" % name)
        self.memo: dict = {}
        # a solve pins at most |Tup| + 1 tuples a side, each one's facts
        # are computed once; the memo lives and dies with this solve's A, B
        self._facts: dict = {}
        self.equal_size = strictly_equal_size(A, B)
        if self.equal_size:
            cmp = rcr_compare(A, B)
            self.cmp = cmp
            rounds: dict = {}

            def color(side, rel, idx, budget):
                ref = cmp.info.from_original(side, TupleRef(rel, idx))
                k = cmp.union.tuple_pos[ref]
                cols = rounds.get(budget)
                if cols is None:
                    cols = rounds[budget] = cmp.trace.colors_at(budget).tolist()
                return cols[k]

            self.color = color

    def _realized(self, x, S):
        key = (S is self.B, x)
        got = self._facts.get(key)
        if got is None:
            got = self._facts[key] = _realized_subvectors(x, S)
        return got

    def spoiler_wins(self, cfg: Configuration, rounds: int, trace=None):
        if is_distinguishing(cfg, self.A, self.B, self._realized):
            return True
        if rounds <= 0:
            return False
        key = (cfg.a, cfg.b, rounds)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        self.memo[key] = False  # cycles cannot arise (rounds decreases), safe default
        result = False
        for rel in self.A.signature.names():
            if self._spoiler_wins_with(cfg, rounds, rel, trace):
                result = True
                if trace is not None:
                    trace.append((rounds, rel))
                break
        self.memo[key] = result
        return result

    def _spoiler_wins_with(self, cfg, rounds, rel, trace):
        rows_a = self.A.relations[rel]
        rows_b = self.B.relations[rel]
        if len(rows_a) != len(rows_b):
            return bool(rows_a) or bool(rows_b)  # Duplicator has no bijection
        if not rows_a:
            return False  # nothing for Spoiler to pick
        for bij in self._bijections(cfg, rounds, rel):
            if bij is None:
                return True  # no block-respecting bijection exists at all
            if not any(self._round_win(cfg, rounds, rows_a[i], rows_b[j])
                       for i, j in bij):
                return False  # this bijection survives every Spoiler pick
        return True

    def _round_win(self, cfg, rounds, ta, tb):
        if stp(cfg.a, ta) != stp(cfg.b, tb):
            return True
        # spoiler_wins checks first whether the new configuration is
        # distinguishing
        return self.spoiler_wins(Configuration(ta, tb), rounds - 1)

    def _bijections(self, cfg, rounds, rel):
        """Yield bijections (as lists of index pairs) grouped block-wise; a
        single None means the blocks cannot be matched, which is itself a
        Spoiler win through this relation."""
        rows_a = self.A.relations[rel]
        rows_b = self.B.relations[rel]
        if not self.equal_size:
            # no color pruning available; enumerate everything
            for perm in permutations(range(len(rows_b))):
                yield list(enumerate(perm))
            return
        budget = rounds - 1

        def key(side, rows, pin, idx):
            k = (stp(pin, rows[idx]),)
            return k + (self.color(side, rel, idx, budget),)

        blocks_a: dict = {}
        for i in range(len(rows_a)):
            blocks_a.setdefault(key("A", rows_a, cfg.a, i), []).append(i)
        blocks_b: dict = {}
        for j in range(len(rows_b)):
            blocks_b.setdefault(key("B", rows_b, cfg.b, j), []).append(j)
        if set(blocks_a) != set(blocks_b) or any(
                len(blocks_a[k]) != len(blocks_b[k]) for k in blocks_a):
            yield None
            return
        keys = sorted(blocks_a, key=repr)
        per_block = [
            [list(zip(blocks_a[k], perm))
             for perm in permutations(blocks_b[k])]
            for k in keys]
        for combo in product(*per_block):
            yield [pair for part in combo for pair in part]


def spoiler_wins(A: Structure, B: Structure, rounds: Optional[int] = None,
                 cfg: Optional[Configuration] = None,
                 relation_limit: int = DEFAULT_RELATION_LIMIT):
    """Exact decision of "Spoiler has an i-round winning strategy from cfg".

    Returns (winner_is_spoiler, trace); the trace lists (remaining rounds,
    relation picked) along Spoiler's winning line, outermost last."""
    if A.signature != B.signature:
        raise GameError("signature mismatch")
    if rounds is None:
        rounds = default_round_bound(A, B)
    solver = _Solver(A, B, relation_limit)
    trace: list = []
    win = solver.spoiler_wins(cfg or Configuration(), rounds, trace)
    return win, list(reversed(trace))
