"""Guarded counting logic: syntax, well-formedness, evaluation, and the
synthesis of color-describing formulas and distinguishing sentences.

Syntax (check_wf enforces it): atoms R(x...), equalities x = y, negation,
binary conjunction, and the guarded counting quantifier CountExists(n, vars,
guard, body) which asserts that at least n assignments of the quantified
variable tuple satisfy guard and body.  The guard is an atom covering the
free variables of the body and the quantified variables; the quantified
tuple is duplicate-free and ordered by the global variable order.

Formulas are shared DAGs: subformulas may have several parents.  check_wf
visits each node once, with an explicit stack, and evaluate checks a formula
once and evaluates each node once per values of its free variables, its
caches keyed by the node objects; so synthesized formulas stay tractable
even though their tree expansion is exponential.
"""

from __future__ import annotations

import functools
import re
from typing import Optional, Sequence

from .core import Structure, strictly_equal_size
from .rcr import RefinementTrace, rcr_compare


class FormulaError(ValueError):
    pass


class Formula:
    __slots__ = ()


class Atom(Formula):
    __slots__ = ("rel", "vars")

    def __init__(self, rel: str, vars: Sequence[str]):
        self.rel = rel
        self.vars = tuple(vars)


class Equality(Formula):
    __slots__ = ("x", "y")

    def __init__(self, x: str, y: str):
        self.x = x
        self.y = y


class Not(Formula):
    __slots__ = ("sub",)

    def __init__(self, sub: Formula):
        self.sub = sub


class And(Formula):
    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        self.left = left
        self.right = right


class CountExists(Formula):
    __slots__ = ("n", "vars", "guard", "body")

    def __init__(self, n: int, vars: Sequence[str], guard: Atom, body: Formula):
        self.n = int(n)
        self.vars = tuple(vars)
        self.guard = guard
        self.body = body


def conjoin(parts) -> Formula:
    """Left-nested conjunction; a single part stays as-is."""
    parts = list(parts)
    if not parts:
        raise FormulaError("empty conjunction")
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def iter_conjuncts(f: Formula):
    """Flatten the And-spine iteratively (synthesized chains get long)."""
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, And):
            stack.append(g.right)
            stack.append(g.left)
        else:
            yield g


def exactly(n: int, vars, guard, body) -> Formula:
    """The derived form "exactly n": at-least-n and not at-least-(n+1);
    n = 0 degenerates to a pure negation since at-least-0 is vacuous."""
    if n == 0:
        return Not(CountExists(1, vars, guard, body))
    return And(CountExists(n, vars, guard, body),
               Not(CountExists(n + 1, vars, guard, body)))


_VAR_RE = re.compile(r"^([A-Za-z_]+?)(\d+)(p?)$")


@functools.lru_cache(maxsize=1 << 16)
def var_sort_key(name: str):
    """Global variable order; numbered variables sort by number with the
    primed partner right after its base."""
    m = _VAR_RE.match(name)
    if m:
        return (m.group(1), int(m.group(2)), m.group(3) == "p")
    return (name, -1, False)


def complement_var(name: str) -> str:
    """Swap between the complementary partners y_j and y_j'."""
    return name[:-1] if name.endswith("p") else name + "p"


def check_wf(f: Formula, signature=None, memo: Optional[dict] = None):
    """Returns (free variables, guard depth); raises FormulaError on any
    violation of the guard or variable-tuple rules.

    One depth-first pass with an explicit stack, so nesting depth is bounded
    by memory only; errors are raised in the order a left-to-right recursive
    walk meets them.  `memo` maps each checked node to (free variables,
    guard depth, the free variables as a sorted tuple); a caller that checks
    many subformulas of one formula passes the same dict, and the same
    signature, each time."""
    if memo is None:
        memo = {}
    stack = [f]
    entered = set()   # inner nodes whose children are on the stack
    while stack:
        g = stack.pop()
        try:
            if g in memo:
                continue
        except TypeError:   # unhashable, so no formula node
            raise FormulaError("unknown formula node %r" % (g,)) from None
        if g in entered:   # every child is checked
            try:
                if isinstance(g, And):
                    memo[g] = _union(memo[g.left], memo[g.right])
                elif isinstance(g, Not):
                    memo[g] = memo[g.sub]
                else:
                    memo[g] = _count_wf(g, memo[g.guard][0], memo[g.body])
            except KeyError:   # a child that is its own ancestor
                raise FormulaError("cyclic formula") from None
            continue
        if isinstance(g, Atom):
            if signature is not None:
                if g.rel not in signature.arity:
                    raise FormulaError("unknown relation symbol %s" % g.rel)
                if signature.arity[g.rel] != len(g.vars):
                    raise FormulaError("arity mismatch in atom %s" % g.rel)
            memo[g] = _leaf(g.vars)
            continue
        if isinstance(g, Equality):
            memo[g] = _leaf((g.x, g.y))
            continue
        if isinstance(g, And):
            children = (g.right, g.left)
        elif isinstance(g, Not):
            children = (g.sub,)
        elif isinstance(g, CountExists):
            if g.n < 1:
                raise FormulaError("count must be >= 1")
            if not isinstance(g.guard, Atom):
                raise FormulaError("guard must be an atom")
            children = (g.body, g.guard)
        else:
            raise FormulaError("unknown formula node %r" % (g,))
        entered.add(g)
        stack.append(g)
        stack += children
    return memo[f][:2]


@functools.lru_cache(maxsize=1 << 12)
def _leaf(vars: tuple) -> tuple:
    free = frozenset(vars)
    return free, 0, tuple(sorted(free))


def _union(left: tuple, right: tuple) -> tuple:
    depth = left[1] if left[1] >= right[1] else right[1]
    if right[0] <= left[0]:
        return left[0], depth, left[2]
    if left[0] <= right[0]:
        return right[0], depth, right[2]
    free = left[0] | right[0]
    return free, depth, tuple(sorted(free))


@functools.lru_cache(maxsize=1 << 12)
def _tuple_fault(vs: tuple) -> Optional[str]:
    """What is wrong with a quantified variable tuple, if anything."""
    if len(set(vs)) != len(vs):
        return "duplicate quantified variable"
    if list(vs) != sorted(vs, key=var_sort_key):
        return "quantified variables out of order"
    return None


def _count_wf(g: CountExists, gfree: frozenset, body: tuple) -> tuple:
    fault = _tuple_fault(g.vars)
    if fault:
        raise FormulaError(fault)
    if not gfree.issuperset(g.vars):
        raise FormulaError("quantified variables not covered by guard")
    if not body[0] <= gfree:
        raise FormulaError("body variable outside the guard")
    free = gfree.difference(g.vars)
    return free, body[1] + 1, tuple(sorted(free))


class Evaluator:
    """Model checking of well-formed formulas on one structure.

    Every cache key that names a node holds the node object, which keeps it
    alive, so one Evaluator may serve many formulas.  `wf` is check_wf's memo: a formula
    is checked once, on its first `holds`, and each node's sorted tuple of
    free variables picks the values its result is cached under.  Atoms,
    equalities and negations are not cached.  A conjunction is cached per
    node and values of its free variables.  A count is cached per (guard,
    body, quantified variables) and values of the variables bound outside
    it, so both halves of an `exactly` share it.  The candidate values of a
    quantified tuple come from an index of the guard relation's rows, one
    per guard pattern, built on first use."""

    def __init__(self, A: Structure):
        self.A = A
        self.wf: dict = {}      # node -> (free, depth, sorted free tuple)
        self.cache: dict = {}   # And or CountExists node -> its plan
        self.counts: dict = {}  # (rel, guard vars, vars, body) -> {values: count}
        self.rows: dict = {}    # (rel, guard vars, vars) -> {values: candidates}

    def holds(self, f: Formula, assignment: dict) -> bool:
        if f not in self.wf:
            check_wf(f, memo=self.wf)
        return self._holds(f, assignment)

    def _holds(self, f, a) -> bool:
        if isinstance(f, Atom):
            return self.A.holds(f.rel, [a[v] for v in f.vars])
        if isinstance(f, Equality):
            return a[f.x] == a[f.y]
        if isinstance(f, Not):
            return not self._holds(f.sub, a)
        plan = self.cache.get(f) or self._plan(f)
        order, results, parts = plan
        key = tuple([a[v] for v in order])
        got = results.get(key)
        if isinstance(f, And):
            if got is None:
                for part in parts:
                    if not self._holds(part, a):
                        got = False
                        break
                else:
                    got = True
                results[key] = got
            return got
        if got is None:
            names, candidates = parts
            got = 0
            for vals in candidates.get(key, ()):
                if self._holds(f.body, dict(zip(names, key + vals))):
                    got += 1
            results[key] = got
        return got >= f.n

    def _plan(self, f) -> tuple:
        """(free variables, results, conjuncts) of a conjunction, or
        (outer variables, counts, (guard variables, candidates)) of a
        count."""
        order = self.wf[f][2]
        if isinstance(f, And):
            plan = (order, {}, tuple(iter_conjuncts(f)))
        else:
            g = f.guard
            plan = (order,
                    self.counts.setdefault((g.rel, g.vars, f.vars, f.body), {}),
                    (order + f.vars, self._candidates(g, order, f.vars)))
        self.cache[f] = plan
        return plan

    def _candidates(self, g: Atom, outer: tuple, vars: tuple) -> dict:
        """Values of the outer variables -> the distinct values of the
        quantified tuple over the guard rows that agree with them."""
        key = (g.rel, g.vars, vars)
        got = self.rows.get(key)
        if got is not None:
            return got
        first: dict = {}
        repeats = []
        for p, v in enumerate(g.vars):
            if v in first:
                repeats.append((p, first[v]))
            else:
                first[v] = p
        outer_at = [first[v] for v in outer]
        vars_at = [first[v] for v in vars]
        index: dict = {}
        for row in self.A.relations[g.rel]:
            if all(row[p] == row[q] for p, q in repeats):
                index.setdefault(tuple([row[p] for p in outer_at]), {})[
                    tuple([row[p] for p in vars_at])] = None
        got = self.rows[key] = {o: tuple(vals) for o, vals in index.items()}
        return got


def evaluate(f: Formula, A: Structure, assignment: Optional[dict] = None) -> bool:
    ev = Evaluator(A)
    free, _ = check_wf(f, A.signature, ev.wf)
    assignment = dict(assignment or {})
    missing = free - set(assignment)
    if missing:
        raise FormulaError("unassigned free variables: %s" % sorted(missing))
    return ev._holds(f, assignment)


# ---------------------------------------------------------------------------
# color-formula synthesis

class SynthesisBudgetError(RuntimeError):
    pass


def _left_right_center(tau):
    """Decompose a similarity type into the left/right equivalences and the
    center pairs that the guarded encoding can express directly."""
    tau = set(tau)
    lclass: dict = {}
    rclass: dict = {}
    for (j, n) in tau:
        for (j2, n2) in tau:
            if n2 == n:
                lclass.setdefault(j, set()).update((j, j2))
                lclass.setdefault(j2, set()).update((j, j2))
            if j2 == j:
                rclass.setdefault(n, set()).update((n, n2))
                rclass.setdefault(n2, set()).update((n, n2))
    center = set()
    for (j, jp) in tau:
        center.add((min(lclass[j]), min(rclass[jp])))
    left = {(j, j2) for j, cls in lclass.items() for j2 in cls}
    right = {(j, j2) for j, cls in rclass.items() for j2 in cls}
    return left, right, center


class SynthesisContext:
    """Color decoding plus formula memoization for one refinement run.

    The run is normally the joint run on a disjoint union, so that every
    color and similarity type realized on either side is available.  The
    conjunction of the inductive step ranges over all realized colors of the
    previous round and all realized similarity types compatible with the
    pinned self types; incompatible pairs always have cumulative count zero
    on both sides and are not guardedly expressible, so they are skipped.
    """

    def __init__(self, trace: RefinementTrace, node_budget: int = 10 ** 6):
        self.trace = trace
        self.signature = trace.structure.signature
        self.node_budget = node_budget
        self.nodes = 0
        self.memo: dict = {}
        self._bases: dict = {}   # color -> color_base(color)
        # per realized tau: the largest left and right positions, its pairs
        # as a set, and its left/right/center decomposition; made by the
        # first step formula, so a round-0 color builds no overlap graph.
        # Not a cached_property: on CPython 3.11 its write to __dict__ made
        # every later attribute load of the context about twice as slow
        self._parts = None

    @property
    def realized_taus(self):
        """stp encodings over all overlapping pairs, each tuple with itself
        too."""
        return sorted(self.trace.structure.overlaps[3])

    def _tau_parts(self):
        if self._parts is None:
            self._parts = [
                (tau, max((j for j, _ in tau), default=0),
                 max((jp for _, jp in tau), default=0), frozenset(tau))
                + _left_right_center(tau) for tau in self.realized_taus]
        return self._parts

    def _tick(self, f):
        self.nodes += 1
        if self.nodes > self.node_budget:
            raise SynthesisBudgetError(
                "formula node budget (%d) exceeded" % self.node_budget)
        return f

    # -- color decoding ----------------------------------------------------
    def color_base(self, color: int):
        """("base", atp, stp) of the round-0 color under a color."""
        got = self._bases.get(color)
        if got is None:
            k = self.trace.representative(color)
            got = self._bases[color] = self.trace.decode(
                int(self.trace.colors_at(0)[k]))
        return got

    def color_atp(self, color: int) -> tuple:
        return self.color_base(color)[1]

    def color_stp(self, color: int) -> tuple:
        return self.color_base(color)[2]

    def color_arity(self, color: int) -> int:
        return self.signature.arity[self.color_atp(color)[0]]

    # -- construction ------------------------------------------------------
    def formula(self, round_i: int, color: int, xvars: tuple) -> Formula:
        """The describing formula of a realized color, on a given distinct
        variable tuple of the color's arity."""
        key = (round_i, color, xvars)
        got = self.memo.get(key)
        if got is not None:
            return got
        if len(xvars) != self.color_arity(color):
            raise FormulaError("variable tuple does not match color arity")
        try:
            out = (self._step_formula(round_i, color, xvars) if round_i
                   else self._base_formula(color, xvars))
        except RecursionError:   # Python frames per round and nesting level
            raise SynthesisBudgetError("formula nested too deeply") from None
        self.memo[key] = out
        return out

    def _base_formula(self, color, xvars):
        kind, atp, tau = self.trace.decode(color)
        if kind != "base":
            raise FormulaError("color %d is not a round-0 color" % color)
        k = len(xvars)
        parts = []
        for rel in sorted(self.signature.names()):
            if self.signature.arity[rel] != k:
                continue
            atom = self._tick(Atom(rel, xvars))
            parts.append(atom if rel in atp else self._tick(Not(atom)))
        tau = set(tau)
        for j in range(1, k + 1):
            for jp in range(1, k + 1):
                if j == jp:
                    continue
                eq = self._tick(Equality(xvars[j - 1], xvars[jp - 1]))
                parts.append(eq if (j, jp) in tau else self._tick(Not(eq)))
        return conjoin(parts)

    def _step_formula(self, round_i, color, xvars):
        kind, prev, mset = self.trace.decode(color)
        if kind != "step":
            raise FormulaError("color %d is a round-0 color" % color)
        parts = [self.formula(round_i - 1, prev, xvars)]
        k = len(xvars)
        own_stp = set(self.color_stp(color))
        # realized colors of the previous round, on either side of the run
        prev_colors = self.trace.round_colors(round_i - 1)
        mult: dict = {}
        for tau, d in mset:
            mult[(tau, d)] = mult.get((tau, d), 0) + 1
        mult_of: dict = {}   # d -> [(pairs of tau, multiplicity)]
        for (tau, d), m in mult.items():
            mult_of.setdefault(d, []).append((frozenset(tau), m))
        for d in prev_colors:
            ell = self.color_arity(d)
            d_stp = set(self.color_stp(d))
            d_atp = self.color_atp(d)
            d_mult = mult_of.get(d, ())
            for tau, top, top_p, pairs, left, right, center in self._tau_parts():
                if top > k or top_p > ell:
                    continue
                if not (left <= own_stp and right <= d_stp):
                    continue  # cumulative count is zero on every tuple
                # mult counts occurrences; the formula counts vectors, and a
                # vector of color d occurs once per relation of its atp
                occ = sum(m for pairs2, m in d_mult if pairs2 >= pairs)
                assert occ % len(d_atp) == 0
                n = occ // len(d_atp)
                parts.append(self._count_formula(
                    round_i - 1, d, d_atp[0], xvars, tau, center, n))
        return conjoin(parts)

    def _count_formula(self, round_j, d, guard_rel, xvars, tau, center, n):
        ell = self.color_arity(d)
        k = len(xvars)
        center_of = {jp: j for (j, jp) in center}
        # non-center positions take the complementary partner of the variable
        # at the same position; when center copies have broken the positional
        # alignment that choice can collide, so fall back to the partner or,
        # failing that, to an unused pool family
        taken = {xvars[j - 1] for j in center_of.values()}
        fresh = max((var_sort_key(v)[1] for v in xvars), default=0) + ell
        xprime: list = [None] * ell
        for jp in range(1, ell + 1):
            if jp in center_of:
                xprime[jp - 1] = xvars[center_of[jp] - 1]
        for jp in range(1, ell + 1):
            if xprime[jp - 1] is not None:
                continue
            base = xvars[jp - 1] if jp <= k else "y%d" % jp
            pick = complement_var(base)
            if pick in taken or pick in xvars:
                # a shared variable would wrongly constrain this position
                fresh += 1
                pick = "y%d" % fresh
            taken.add(pick)
            xprime[jp - 1] = pick
        xprime = tuple(xprime)
        quantified = tuple(sorted(set(xprime) - set(xvars), key=var_sort_key))
        guard = self._tick(Atom(guard_rel, xprime))
        body = self.formula(round_j, d, xprime)
        self.nodes += 4  # the quantifier nodes of the derived exact count
        return exactly(n, quantified, guard, body)


def synthesize_color_formula(trace: RefinementTrace, round_i: int, color: int,
                             node_budget: int = 10 ** 6) -> Formula:
    """Formula satisfied, over structures of strictly equal size, by exactly
    the tuples y1..yk whose round-i color is the given one."""
    ctx = SynthesisContext(trace, node_budget)
    k = ctx.color_arity(color)
    return ctx.formula(round_i, color, tuple("y%d" % j for j in range(1, k + 1)))


def distinguishing_sentence(A: Structure, B: Structure,
                            node_budget: int = 10 ** 6):
    """A sentence separating A and B whenever refinement distinguishes them.

    Returns (sentence, side) with side the structure satisfying it, or None.
    Unequal relation sizes are handled by a plain counting sentence; equal
    sizes count the tuples of a color whose histograms differ."""
    if A.signature != B.signature:
        raise ValueError("signature mismatch")
    if not strictly_equal_size(A, B):
        for rel in A.signature.names():
            na, nb = len(A.relations[rel]), len(B.relations[rel])
            if na != nb:
                n = max(na, nb)
                k = A.signature.arity[rel]
                vs = tuple("v%d" % j for j in range(1, k + 1))
                sentence = CountExists(
                    n, vs, Atom(rel, vs), Equality(vs[0], vs[0]))
                return sentence, ("A" if na > nb else "B")
    res = rcr_compare(A, B)
    if res.round is None:
        return None
    i, c = res.round, res.color
    ctx = SynthesisContext(res.trace, node_budget)
    ha = res.side_histogram(i, "A")
    hb = res.side_histogram(i, "B")
    side = "A" if ha.get(c, 0) != 0 else "B"
    atp = ctx.color_atp(c)
    # occurrence counts divide evenly among the relations of the color's atp
    n = (ha if side == "A" else hb).get(c, 0) // len(atp)
    k = ctx.color_arity(c)
    xvars = tuple("y%d" % j for j in range(1, k + 1))
    body = ctx.formula(i, c, xvars)
    sentence = exactly(n, xvars, Atom(atp[0], xvars), body)
    return sentence, side


# ---------------------------------------------------------------------------
# s-expression format

def to_sexp(f: Formula) -> str:
    if isinstance(f, Atom):
        return "(atom %s%s%s)" % (f.rel, " " if f.vars else "", " ".join(f.vars))
    if isinstance(f, Equality):
        return "(eq %s %s)" % (f.x, f.y)
    if isinstance(f, Not):
        return "(not %s)" % to_sexp(f.sub)
    if isinstance(f, And):
        return "(and %s)" % " ".join(to_sexp(p) for p in iter_conjuncts(f))
    if isinstance(f, CountExists):
        return "(geq %d (vars %s) (guard %s%s%s) %s)" % (
            f.n, " ".join(f.vars), f.guard.rel,
            " " if f.guard.vars else "", " ".join(f.guard.vars),
            to_sexp(f.body))
    raise FormulaError("unknown formula node %r" % (f,))


def _tokenize(text: str):
    return re.findall(r"\(|\)|[^\s()]+", text)


def from_sexp(text: str) -> Formula:
    tokens = _tokenize(text)
    pos = [0]

    def expect(tok):
        if pos[0] >= len(tokens) or tokens[pos[0]] != tok:
            raise FormulaError("expected %r at token %d" % (tok, pos[0]))
        pos[0] += 1

    def peek():
        if pos[0] >= len(tokens):
            raise FormulaError("unexpected end of input")
        return tokens[pos[0]]

    def take():
        t = peek()
        pos[0] += 1
        return t

    def words_until_close():
        out = []
        while peek() != ")":
            out.append(take())
        pos[0] += 1
        return out

    def parse() -> Formula:
        expect("(")
        head = take()
        if head == "atom":
            ws = words_until_close()
            if not ws:
                raise FormulaError("atom needs a relation symbol")
            return Atom(ws[0], ws[1:])
        if head == "eq":
            ws = words_until_close()
            if len(ws) != 2:
                raise FormulaError("eq takes two variables")
            return Equality(ws[0], ws[1])
        if head == "not":
            f = parse()
            expect(")")
            return Not(f)
        if head == "and":
            parts = []
            while peek() != ")":
                parts.append(parse())
            pos[0] += 1
            if len(parts) < 2:
                raise FormulaError("and takes at least two parts")
            return conjoin(parts)
        if head == "geq":
            count = take()
            try:
                n = int(count)
            except ValueError:
                raise FormulaError("geq needs a count, got %r" % count)
            expect("(")
            if take() != "vars":
                raise FormulaError("expected (vars ...)")
            vs = words_until_close()
            expect("(")
            if take() != "guard":
                raise FormulaError("expected (guard ...)")
            ws = words_until_close()
            if not ws:
                raise FormulaError("guard needs a relation symbol")
            body = parse()
            expect(")")
            return CountExists(n, vs, Atom(ws[0], ws[1:]), body)
        raise FormulaError("unknown form %r" % head)

    f = parse()
    if pos[0] != len(tokens):
        raise FormulaError("trailing tokens")
    return f
