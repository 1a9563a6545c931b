"""One benchmark run: set-up, checks, timed rounds, metrics.

A run makes the workload's input sets (set-up), checks the program once
against the benchmark's own computations, then repeats whole rounds of the
same operations, round r on input set r mod SETS, until `seconds` have
passed.  Every operation's output is checked as it comes back.  A round
regenerates its set (timed, for `setup_s`) and runs, in order,

  verdict        `relcr distinguish A B`   per full pair
  refine         `relcr refine B`          per full pair
  encode_refine  vgrep(B) + cr_run(trace=False), the `relcr bench` path
  homcount       `relcr homcount C T`      per hom job
  game           `relcr game A B`          per game pair
  sentence       distinguishing_sentence(A, B) + evaluate on both sides

and each end-to-end time is the median over rounds of the round's mean
speed-scaled time per call (see REF_S): every round holds the same calls,
so a mix of fast and slow pairs cannot move the median.

The CLI commands run in-process through `relcr.cli.main`.  With trace on,
each set gets a round on that path and then one on a layered path that
makes the same calls the CLI makes (parse_structure, disjoint_union,
rcr_run, histogram_at per round and side, ...), each inside a span; the
difference between the two kinds of round is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import time
import tracemalloc
from pathlib import Path

import inputs as gen
import reference
from relcr import acyclic, cli, game, homcount, logic, representations
from relcr.core import disjoint_union, parse_structure
from relcr.cr import cr_run
from relcr.rcr import rcr_run

# The machine this benchmark was built on shares its cores with other
# tenants: the same call takes up to 40% longer from one second to the next,
# and all code slows together (operation times correlate ~0.9 with a pure
# Python loop).  Each operation's and each set-up's time is therefore scaled
# by the speed of a fixed reference loop timed just before and after it:
#     reported = measured * REF_S / mean(reference times)
# REF_S is the loop's time at typical speed there, so reported values read
# as seconds on that machine at its typical speed.
REF_LOOPS = 3000
REF_S = 0.0025

END_TO_END = {
    "setup_s": "s", "verdict_s": "s", "refine_s": "s",
    "encode_refine_s": "s", "peak_rss_mb": "MB", "game_s": "s",
    "sentence_s": "s", "homcount_s": "s",
}
OPS = ("verdict", "refine", "encode_refine", "homcount", "game", "sentence")

LAYERS = ("core", "rcr", "representations", "cr", "logic", "game",
          "homcount", "acyclic", "cli", "bench")
PER_LAYER = {
    "core.parse_s": "s", "core.union_s": "s", "core.overlap_s": "s",
    "core.cohesion": "count",
    "rcr.run_s": "s", "rcr.rounds": "count", "rcr.classes": "count",
    "rcr.s_per_round": "s", "rcr.histogram_s": "s", "rcr.peak_alloc_mb": "MB",
    "representations.vgrep_s": "s", "representations.vgrep_nodes": "count",
    "representations.vgrep_edges": "count",
    "representations.peak_alloc_mb": "MB",
    "cr.run_s": "s", "cr.rounds": "count", "cr.s_per_round": "s",
    "cr.peak_alloc_mb": "MB",
    "logic.synthesis_s": "s", "logic.eval_s": "s", "logic.check_wf_s": "s",
    "logic.sentence_nodes": "count",
    "game.solve_s": "s",
    "homcount.acyclic_s": "s", "homcount.bruteforce_s": "s",
    "homcount.multigraph_s": "s",
    "acyclic.gyo_s": "s",
    **{"%s.self_s" % layer: "s" for layer in LAYERS},
    "trace.overhead_pct": "%", "trace.spans": "count",
}


class Tracer:
    """Spans kept in memory as [name, start, end, parent index]."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        rec = [name, time.perf_counter(), None,
               self._open[-1] if self._open else None]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def self_times(self):
        """Per layer (the span name up to its first dot): span time not
        covered by child spans."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for k, (name, start, end, _) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (end - start - covered[k])
        return out

    def dump(self, path, origin):
        Path(path).write_text(json.dumps([
            {"name": n, "start": s - origin, "end": e - origin, "parent": p}
            for n, s, e, p in self.spans]))


class _NoSpan:
    """Stand-in for Tracer when tracing is off; the record still gets its
    start and end so that samples can be taken from it."""

    @contextlib.contextmanager
    def span(self, name):
        rec = [name, time.perf_counter(), None, None]
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()


class OpError(RuntimeError):
    pass


FAILED = object()   # what Run.op returns for an operation that raised


def _median(values):
    return statistics.median(values) if values else 0.0


def reference_time():
    """Time of a fixed piece of pure-Python work (tuple keys in a dict, a
    sort), the yardstick of the machine's momentary speed."""
    t0 = time.perf_counter()
    d = {}
    for i in range(REF_LOOPS):
        k = (i % 97, i % 89)
        d[k] = d.get(k, 0) + i
    sorted(d.items())
    return time.perf_counter() - t0


def scaled(seconds, reference_before):
    """A measured time at the machine's typical speed: the reference loop
    is timed again now and its mean with `reference_before` gives the
    speed over the measured interval."""
    return seconds * REF_S * 2 / (reference_before + reference_time())


def peak_alloc_mb(fn, *args, **kwargs):
    """tracemalloc peak, in MiB, of the allocations made by one call."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2 ** 20


class Run:
    def __init__(self, workload, seed, seconds, trace, workdir, scale=1.0):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = Path(workdir)
        self.scale = scale
        self.tracer = Tracer() if trace else _NoSpan()
        self.attempted = 0
        self.failed = 0
        self.errors = []              # failed checks: the run is not correct
        self.failures = []            # operations that raised
        self.samples = {}             # per-layer samples by metric name
        self.round_means = {}         # (layered, op) -> per-round mean times
        self.setup_times = []
        self.sets = []                # input sets; round r uses r mod SETS
        self.parsed = {}              # id(Struct) -> relcr Structure
        self.hom_expected = {}        # id(HomJob) -> the benchmark's count
        self.iso_refine = {}          # id(A) -> refine output of A
        self._union = None            # the last layered verdict's union

    # -- bookkeeping -------------------------------------------------------
    def check(self, ok, message):
        if not ok:
            self.errors.append(message)

    def sample(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def call(self, span_name, metric, fn, *args, **kwargs):
        """One call into a layer, inside a span; its time becomes a sample."""
        with self.tracer.span(span_name) as rec:
            out = fn(*args, **kwargs)
        if metric:
            self.sample(metric, rec[2] - rec[1])
        return out

    def op(self, kind, fn, arg, times):
        self.attempted += 1
        gc.collect()   # garbage of the previous operation is not this one's cost
        before = reference_time()
        try:
            with self.tracer.span("bench." + kind) as rec:
                out = fn(arg)
        except Exception as e:   # a failed operation is counted, not fatal
            self.failed += 1
            self.failures.append("%s: %s: %s" % (kind, type(e).__name__, e))
            return FAILED
        times.setdefault(kind, []).append(scaled(rec[2] - rec[1], before))
        return out

    # -- set-up ------------------------------------------------------------
    def setup(self, k):
        """Generate and write input set k, timed.  Runs for every set before
        the checks and again at the start of every round that uses the set
        (rewriting the same files), so `setup_s` is a median over the run."""
        before = reference_time()
        t0 = time.perf_counter()
        inp = gen.input_set(self.workload, self.seed, k, self.scale)
        gen.write_inputs(inp, self.workdir / ("set%d" % k))
        self.setup_times.append(scaled(time.perf_counter() - t0, before))
        return inp

    # -- CLI path ----------------------------------------------------------
    def cli(self, *argv):
        out, err = io.StringIO(), io.StringIO()
        with self.tracer.span("cli.main"), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = cli.main([str(a) for a in argv])
        if code != 0:
            raise OpError("exit %d: %s" % (code, err.getvalue().strip()))
        return out.getvalue()

    def verdict_cli(self, pair):
        text = self.cli("distinguish", pair.a.path, pair.b.path).strip()
        if text == "indistinguishable":
            return None
        prefix = "distinguished: round "
        if not text.startswith(prefix):
            raise OpError("unexpected output %r" % text)
        return int(text[len(prefix):])

    def refine_cli(self, s):
        lines = self.cli("refine", s.path).splitlines()
        counts = [int(line.split()[2]) for line in lines[:-1]]
        return counts, int(lines[-1].split()[-1])

    def homcount_cli(self, job):
        return int(self.cli("homcount", job.pattern.path, job.target.path))

    def game_cli(self, pair):
        text = self.cli("game", pair.a.path, pair.b.path)
        return text.startswith("spoiler wins")

    # -- layered path: the calls the CLI makes, one span each --------------
    def parse(self, s, metric=None):
        text = s.path.read_text()
        return self.call("core.parse_structure", metric, parse_structure, text)

    def verdict_layered(self, pair):
        A, B = self.parse(pair.a, "core.parse_s"), self.parse(pair.b, "core.parse_s")
        U, info = self.call("core.disjoint_union", "core.union_s",
                            disjoint_union, A, B)
        trace = self.call("rcr.rcr_run", "rcr.run_s", rcr_run, U)
        steps = trace.stable_round + 1
        self.sample("rcr.rounds", steps)
        self.sample("rcr.classes", trace.class_counts[-1])
        self.sample("rcr.s_per_round", self.samples["rcr.run_s"][-1] / steps)
        pos = {"A": [], "B": []}
        for k, ref in enumerate(U.tuple_refs):
            pos[info.side(ref)].append(k)
        verdict = None
        hist_s = 0.0
        for i in range(trace.stable_round + 1):
            with self.tracer.span("rcr.histogram_at") as ra:
                ha = trace.histogram_at(i, pos["A"])
            with self.tracer.span("rcr.histogram_at") as rb:
                hb = trace.histogram_at(i, pos["B"])
            hist_s += (ra[2] - ra[1]) + (rb[2] - rb[1])
            if ha != hb:
                verdict = i
                break
        self.sample("rcr.histogram_s", hist_s)
        self._union = U
        return verdict

    def refine_layered(self, s):
        trace = self.call("rcr.rcr_run", None, rcr_run,
                          self.parse(s, "core.parse_s"))
        return list(trace.class_counts), trace.stable_round

    def homcount_layered(self, job):
        C, T = self.parse(job.pattern), self.parse(job.target)
        J = self.call("acyclic.gyo_join_tree", "acyclic.gyo_s",
                      acyclic.gyo_join_tree, C)
        return self.call("homcount.hom_acyclic", "homcount.acyclic_s",
                         homcount.hom_acyclic, C, J, T)

    def game_layered(self, pair):
        A, B = self.parse(pair.a), self.parse(pair.b)
        win, _ = self.call("game.spoiler_wins", "game.solve_s",
                           game.spoiler_wins, A, B)
        return win

    # -- operations with one path ------------------------------------------
    def encode_refine(self, s):
        S = self.parsed[id(s)]
        g, _, _ = self.call("representations.vgrep", "representations.vgrep_s",
                            representations.vgrep, S)
        nc = self.call("cr.cr_run", "cr.run_s", cr_run, g, trace=False)
        if self.trace:
            steps = nc.stable_round + 1
            self.sample("representations.vgrep_nodes", g.n)
            self.sample("representations.vgrep_edges", g.edge_count())
            self.sample("cr.rounds", steps)
            self.sample("cr.s_per_round", self.samples["cr.run_s"][-1] / steps)
        return len(set(nc.colors[:S.size()].tolist()))

    def sentence(self, pair):
        A, B = self.parsed[id(pair.a)], self.parsed[id(pair.b)]
        res = self.call("logic.distinguishing_sentence", "logic.synthesis_s",
                        logic.distinguishing_sentence, A, B)
        if res is None:
            return None
        f, side = res
        with self.tracer.span("logic.evaluate") as ra:
            on_a = logic.evaluate(f, A)
        with self.tracer.span("logic.evaluate") as rb:
            on_b = logic.evaluate(f, B)
        self.sample("logic.eval_s", (ra[2] - ra[1]) + (rb[2] - rb[1]))
        return f, side, on_a, on_b

    # -- checks --------------------------------------------------------------
    def prepare(self):
        """Parse the inputs once and check the program against the
        benchmark's own computations."""
        for inp in self.sets:
            self.prepare_set(inp)
        first = self.sets[0]
        for s in (first.full[0].a, first.full[-1].b):
            self.check_round_correspondence(s)

    def prepare_set(self, inp):
        self.parsed.update((id(s), parse_structure(s.path.read_text()))
                           for s in inp.structures())
        pairs = {id(p): p for p in inp.full + inp.game + inp.sentence}
        for p in pairs.values():
            if p.kind == "size":
                self.check(p.a.sizes() != p.b.sizes(),
                           "size pair with equal relation sizes")
            else:
                self.check(p.a.sizes() == p.b.sizes(),
                           "%s pair with unequal relation sizes" % p.kind)
            if p.witness is not None:
                ca = reference.hom_count(p.witness, p.a)
                cb = reference.hom_count(p.witness, p.b)
                self.check(ca != cb, "%s pair: witness counts agree (%d)"
                           % (p.kind, ca))
        for j in inp.hom:
            self.hom_expected[id(j)] = reference.hom_count(j.pattern, j.target)
        # an isomorphic copy must refine with the same class counts
        for p in inp.full:
            if p.kind == "iso":
                self.iso_refine[id(p.a)] = self.refine_cli(p.a)

    def check_round_correspondence(self, s):
        """Round i of rcr_run equals round 2i+1 of vgrep+CR on tuple nodes."""
        S = self.parsed[id(s)]
        trace = rcr_run(S)
        g, node_of, _ = representations.vgrep(S)
        nc = cr_run(g)
        w = [node_of[r] for r in S.tuple_refs]
        for i in range(trace.stable_round + 1):
            cols = nc.colors_at(2 * i + 1)
            if not reference.same_partition(trace.colors_at(i), cols[w]):
                self.errors.append("RCR round %d differs from CR round %d"
                                   % (i, 2 * i + 1))
                break
        if s.is_path:
            self.check(trace.class_counts[-1] == S.size(),
                       "stable partition of a directed path is not discrete")

    def expect_verdict(self, pair, got):
        if pair.kind == "iso":
            self.check(got is None, "iso pair distinguished at %s" % got)
        elif pair.kind == "size":
            self.check(got == 0, "size pair decided at round %s" % got)
        else:
            self.check(got is not None and got >= 1,
                       "%s pair decided at round %s" % (pair.kind, got))

    def expect_refine(self, pair, got):
        counts, stable = got
        self.check(stable == len(counts) - 1 and counts == sorted(set(counts))
                   and counts[-1] <= pair.b.size(),
                   "refine output is not a refinement: %s" % counts)
        if pair.kind == "iso":
            self.check(got == self.iso_refine[id(pair.a)],
                       "isomorphic copies refine differently")
        if pair.b.is_path:
            self.check(counts[-1] == pair.b.size(),
                       "directed path does not refine to singletons")

    def expect_game(self, pair, spoiler):
        self.check(spoiler == (pair.kind != "iso"),
                   "game on %s pair: spoiler wins = %s" % (pair.kind, spoiler))

    def expect_sentence(self, pair, got):
        if pair.kind == "iso":
            self.check(got is None, "sentence found for an iso pair")
            return
        if got is None:
            self.errors.append("no sentence for a %s pair" % pair.kind)
            return
        _, side, on_a, on_b = got
        self.check((on_a, on_b) == ((True, False) if side == "A" else (False, True)),
                   "sentence for side %s evaluates to %s on A, %s on B"
                   % (side, on_a, on_b))

    # -- rounds ----------------------------------------------------------------
    def round(self, k, layered):
        self.setup(k)
        inp = self.sets[k]
        times = {}
        verdict = self.verdict_layered if layered else self.verdict_cli
        refine = self.refine_layered if layered else self.refine_cli
        hom = self.homcount_layered if layered else self.homcount_cli
        play = self.game_layered if layered else self.game_cli
        for p in inp.full:
            v = self.op("verdict", verdict, p, times)
            if v is not FAILED:
                self.expect_verdict(p, v)
                if layered:
                    self.overlap_probe()
            r = self.op("refine", refine, p.b, times)
            if r is not FAILED:
                self.expect_refine(p, r)
            e = self.op("encode_refine", self.encode_refine, p.b, times)
            if e is not FAILED and r is not FAILED:
                self.check(e == r[0][-1], "vgrep+CR finds %d tuple classes, "
                           "RCR %d" % (e, r[0][-1]))
        for j in inp.hom:
            h = self.op("homcount", hom, j, times)
            if h is not FAILED:
                want = self.hom_expected[id(j)]
                self.check(h == want, "homcount %d, expected %d" % (h, want))
        for p in inp.game:
            g = self.op("game", play, p, times)
            if g is not FAILED:
                self.expect_game(p, g)
        for p in inp.sentence:
            s = self.op("sentence", self.sentence, p, times)
            if s is not FAILED:
                self.expect_sentence(p, s)
                if layered and s is not None:
                    self.sentence_probe(s[0])
        if layered:
            self.hom_probe(inp)
        for kind, ts in times.items():
            self.round_means.setdefault((layered, kind), []).append(
                sum(ts) / len(ts))

    def overlap_probe(self):
        size, cohesion = self.call("core.metrics", "core.overlap_s",
                                   self._union.metrics)
        self.sample("core.cohesion", cohesion)

    def sentence_probe(self, f):
        self.call("logic.check_wf", "logic.check_wf_s", logic.check_wf, f)
        self.sample("logic.sentence_nodes", reference.dag_nodes(f, logic.Formula))

    def hom_probe(self, inp):
        """All three counting engines on each game pair's witness pattern
        into its A side, against the benchmark's own count."""
        for p in inp.game:
            if p.witness is None:
                continue
            C, T = self.parsed[id(p.witness)], self.parsed[id(p.a)]
            want = reference.hom_count(p.witness, p.a)
            J = acyclic.gyo_join_tree(C)
            dp = homcount.hom_acyclic(C, J, T)
            brute = self.call("homcount.hom_bruteforce", "homcount.bruteforce_s",
                              homcount.hom_bruteforce, C, T)
            tree, _ = representations.jtrep(C, J)
            graph, _ = representations.grep(T)
            mg = self.call("homcount.hom_multigraph", "homcount.multigraph_s",
                           homcount.hom_multigraph, tree, graph)
            self.check(dp == brute == mg == want,
                       "hom counts disagree: dp %d brute %d multigraph %d own %d"
                       % (dp, brute, mg, want))

    def alloc_probe(self):
        """tracemalloc peaks of rcr_run, vgrep and cr_run on the first
        pair's B side (the single-structure calls of `refine` and
        encode_refine); tracemalloc slows calls, so no timing is taken."""
        B = self.parsed[id(self.sets[0].full[0].b)]
        self.sample("rcr.peak_alloc_mb", peak_alloc_mb(rcr_run, B))
        self.sample("representations.peak_alloc_mb",
                    peak_alloc_mb(representations.vgrep, B))
        g, _, _ = representations.vgrep(B)
        self.sample("cr.peak_alloc_mb", peak_alloc_mb(cr_run, g, trace=False))

    # -- the run -------------------------------------------------------------
    def execute(self):
        origin = time.perf_counter()
        self.sets = [self.setup(k) for k in range(gen.SETS)]
        self.prepare()
        start = time.perf_counter()
        r = 0
        while True:
            if self.trace:
                # each set twice in a row, through the CLI and then layered,
                # so that the overhead compares rounds on the same inputs
                self.round(r // 2 % gen.SETS, layered=r % 2 == 1)
            else:
                self.round(r % gen.SETS, layered=False)
            r += 1
            if time.perf_counter() - start >= self.seconds and (
                    not self.trace or r % 2 == 0):
                break
        if self.trace:
            self.alloc_probe()
            self.tracer.dump(self.workdir.parent / (
                "trace-%s-s%d.json" % (self.workload, self.seed)), origin)
        return self.result(layered_rounds=r // 2)

    def result(self, layered_rounds):
        if self.trace:
            return self._doc(self.per_layer(layered_rounds), PER_LAYER)
        metrics = {
            "setup_s": _median(self.setup_times),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        for kind in OPS:
            metrics[kind + "_s"] = _median(self.round_means.get((False, kind), []))
        return self._doc(metrics, END_TO_END)

    def per_layer(self, layered_rounds):
        out = {name: _median(self.samples.get(name, [])) for name in PER_LAYER}
        for layer, t in self.tracer.self_times().items():
            out["%s.self_s" % layer] = t / max(layered_rounds, 1)
        traced = untraced = 0.0
        for kind in OPS:
            a = self.round_means.get((True, kind))
            b = self.round_means.get((False, kind))
            if a and b:
                traced += _median(a)
                untraced += _median(b)
        out["trace.overhead_pct"] = 100.0 * (traced / untraced - 1) if untraced else 0.0
        out["trace.spans"] = len(self.tracer.spans)
        return out

    def _doc(self, metrics, units):
        return {
            "correct": not self.errors,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units},
        }


def run(workload, seed, seconds, trace, workdir, scale=1.0):
    """Run one workload in `workdir` (removed afterwards; a trace file goes
    next to it) and return the result document."""
    workdir = Path(workdir)
    try:
        r = Run(workload, seed, seconds, trace, workdir, scale)
        doc = r.execute()
        doc["errors"] = r.errors
        doc["failures"] = r.failures
        return doc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
