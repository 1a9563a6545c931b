"""Guarded counting logic: syntax, well-formedness, evaluation, and the
synthesis of color-describing formulas and distinguishing sentences.

Syntax (check_wf enforces it): atoms R(x...), equalities x = y, negation,
binary conjunction, and the guarded counting quantifier CountExists(n, vars,
guard, body) which asserts that at least n assignments of the quantified
variable tuple satisfy guard and body.  The guard is an atom covering the
free variables of the body and the quantified variables; the quantified
tuple is duplicate-free and ordered by the global variable order.

Formulas are shared DAGs: subformulas may have several parents, and both
check_wf and evaluate cache by node identity, so synthesized formulas stay
tractable even though their tree expansion is exponential.
"""

from __future__ import annotations

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
    violation of the guard or variable-tuple rules.  Results are cached by
    node identity in `memo`; a caller that checks many subformulas of one
    formula passes the same dict, and the same signature, each time."""
    if memo is None:
        memo = {}

    def walk(g) -> tuple:
        got = memo.get(id(g))
        if got is not None:
            return got
        if isinstance(g, Atom):
            if signature is not None:
                if g.rel not in signature.arity:
                    raise FormulaError("unknown relation symbol %s" % g.rel)
                if signature.arity[g.rel] != len(g.vars):
                    raise FormulaError("arity mismatch in atom %s" % g.rel)
            out = (frozenset(g.vars), 0)
        elif isinstance(g, Equality):
            out = (frozenset((g.x, g.y)), 0)
        elif isinstance(g, Not):
            out = walk(g.sub)
        elif isinstance(g, And):
            free: frozenset = frozenset()
            gd = 0
            for part in iter_conjuncts(g):
                f2, g2 = walk(part)
                free |= f2
                gd = max(gd, g2)
            out = (free, gd)
        elif isinstance(g, CountExists):
            if g.n < 1:
                raise FormulaError("count must be >= 1")
            if not isinstance(g.guard, Atom):
                raise FormulaError("guard must be an atom")
            gfree, _ = walk(g.guard)
            bfree, bgd = walk(g.body)
            vs = g.vars
            if len(set(vs)) != len(vs):
                raise FormulaError("duplicate quantified variable")
            if list(vs) != sorted(vs, key=var_sort_key):
                raise FormulaError("quantified variables out of order")
            if not set(vs) <= gfree:
                raise FormulaError("quantified variables not covered by guard")
            if not bfree <= gfree:
                raise FormulaError("body variable outside the guard")
            out = (gfree - set(vs), bgd + 1)
        else:
            raise FormulaError("unknown formula node %r" % (g,))
        memo[id(g)] = out
        return out

    return walk(f)


class Evaluator:
    """Model checking with a per-(node, relevant assignment) cache."""

    def __init__(self, A: Structure):
        self.A = A
        self.cache: dict = {}
        self.wf: dict = {}   # check_wf's memo, shared by all nodes

    def holds(self, f: Formula, assignment: dict) -> bool:
        free, _ = check_wf(f, memo=self.wf)
        key = (id(f), tuple(sorted((v, assignment[v]) for v in free)))
        got = self.cache.get(key)
        if got is not None:
            return got
        out = self._eval(f, assignment)
        self.cache[key] = out
        return out

    def _eval(self, f, assignment):
        A = self.A
        if isinstance(f, Atom):
            return A.holds(f.rel, tuple(assignment[v] for v in f.vars))
        if isinstance(f, Equality):
            return assignment[f.x] == assignment[f.y]
        if isinstance(f, Not):
            return not self.holds(f.sub, assignment)
        if isinstance(f, And):
            return all(self.holds(p, assignment) for p in iter_conjuncts(f))
        if isinstance(f, CountExists):
            return self._count(f, assignment) >= f.n
        raise FormulaError("unknown formula node %r" % (f,))

    def _count(self, f: CountExists, assignment):
        """Number of distinct quantified-tuple values satisfying guard and
        body; candidates are read off the guard relation."""
        g = f.guard
        quantified = set(f.vars)
        candidates = set()
        for row in self.A.relations[g.rel]:
            binding: dict = {}
            ok = True
            for var, val in zip(g.vars, row):
                if var in quantified:
                    if binding.setdefault(var, val) != val:
                        ok = False
                        break
                elif assignment[var] != val:
                    ok = False
                    break
            if ok:
                candidates.add(tuple(binding[v] for v in f.vars))
        count = 0
        for vals in candidates:
            ext = dict(assignment)
            ext.update(zip(f.vars, vals))
            if self.holds(f.body, ext):
                count += 1
        return count


def evaluate(f: Formula, A: Structure, assignment: Optional[dict] = None) -> bool:
    free, _ = check_wf(f, A.signature)
    assignment = dict(assignment or {})
    missing = free - set(assignment)
    if missing:
        raise FormulaError("unassigned free variables: %s" % sorted(missing))
    return Evaluator(A).holds(f, assignment)


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
        # stp encodings over all overlapping pairs, each tuple with itself too
        self.realized_taus = sorted(trace.structure.overlaps[3])

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
        for d in prev_colors:
            ell = self.color_arity(d)
            d_stp = set(self.color_stp(d))
            d_atp = self.color_atp(d)
            for tau in self.realized_taus:
                if any(j > k or jp > ell for (j, jp) in tau):
                    continue
                left, right, center = _left_right_center(tau)
                if not (left <= own_stp and right <= d_stp):
                    continue  # cumulative count is zero on every tuple
                # mult counts occurrences; the formula counts vectors, and a
                # vector of color d occurs once per relation of its atp
                occ = sum(m for (t2, d2), m in mult.items()
                          if d2 == d and set(t2) >= set(tau))
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
                             variables: Optional[Sequence[str]] = None,
                             node_budget: int = 10 ** 6) -> Formula:
    """Formula satisfied, over structures of strictly equal size, by exactly
    the tuples whose round-i color is the given one."""
    ctx = SynthesisContext(trace, node_budget)
    if variables is None:
        variables = tuple("y%d" % j for j in range(1, ctx.color_arity(color) + 1))
    return ctx.formula(round_i, color, tuple(variables))


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
