"""Program side of the benchmark: runs one workload on the input text it is given.

Reads one JSON request on stdin and prints one JSON reply on stdout. The
request holds the workload name, the seed, the input text, and the residues
the input takes at a few points modulo a prime. The harness computes those
residues from the generator's own expression, so they check the parser too.
This side never sees how the input was made; it only calls ``opmin``'s
public functions, plus ``cse._Rewriter`` to time the elimination stages.

Untraced, a run repeats the workload for the given seconds: each
repetition parses the text, builds a scorer and makes the fixed-budget
search or sweep call; the reply holds the end-to-end metrics. Traced,
untraced repetitions alternate with traced ones that record spans around
each call into a layer, a seeded sample of the evaluated orders is replayed
stage by stage, and the reply holds the per-layer metrics.
"""

from __future__ import annotations

import json
import random
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import opmin.sweep as sweep_module  # noqa: E402
from opmin import (  # noqa: E402
    DeltaScorer,
    Scheme,
    SearchParams,
    SweepConfig,
    analyze_rows,
    apply_scheme,
    build_dag,
    dag_op_count,
    eval_dag_mod_p,
    eval_mod_p,
    parse,
    run_sweep,
    scheme_from_string,
    scheme_to_string,
    search,
    simplify,
    tree_op_count,
    variables,
)
from opmin.cse import _Rewriter  # noqa: E402

from tracing import Tracer, percentile, self_times  # noqa: E402

PRIME = 2**61 - 1

# The host's speed drifts by up to 2x over seconds to minutes, and it slows
# all interpreter work about alike. So the end-to-end times are scaled by a
# fixed reference loop timed in the same process at the same moment:
# scaled = raw * REF_S / reference time. REF_S is the loop's time on an
# unloaded 2-core Xeon VM, so scaled times read as times there.
REF_S = 0.0054
CP = 0.5  # searches; a sweep samples cp log-uniformly from SWEEP_CP
SWEEP_CP = (0.01, 10.0)


@dataclass(frozen=True)
class Workload:
    """What one repetition runs: a search, or a sweep when ``samples`` > 0."""

    budget: int  # MCTS iterations per search
    samples: int = 0
    jobs: int = 1
    replay: int = 8  # evaluated orders replayed stage by stage when traced

    @property
    def iterations(self) -> int:
        return self.budget * max(self.samples, 1)


# A search budget of one iteration per variable makes the tree expand every
# first variable once, whatever the seed. The first variable sets much of an
# order's cost, so this keeps the seeds' costs close. One repetition then
# takes about 1 s, 8 s and 3 s on a 2-core Xeon VM, and a 35 s run makes
# several.
WORKLOADS = {
    "hep22-search": Workload(budget=22, replay=12),
    "res75-score": Workload(budget=14, replay=4),
    "res32-sweep": Workload(budget=200, samples=256, jobs=2, replay=64),
}


class Checks:
    """Counts correctness checks; a check that raises counts as failed."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def run(self, what: str, check) -> None:
        self.attempted += 1
        try:
            ok = check()
        except Exception:
            traceback.print_exc()
            ok = False
        if not ok:
            self.failed.append(what)


class TimedScorer:
    """Stands in for a scorer and records a ``score.delta`` span per call.

    A call is a hit when it leaves the scorer's cache the same size. The
    orders that missed are kept with their counts for the stage replay.
    """

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self.evaluated: dict[tuple, tuple[int, int]] = {}

    def delta(self, order):
        cache = self.inner.cache
        size = len(cache)
        t0 = time.perf_counter_ns()
        ops = self.inner.delta(order)
        t1 = time.perf_counter_ns()
        hit = len(cache) == size
        self.tracer.record("score.delta", t0, t1, hit=hit)
        if not hit:
            self.evaluated[order] = ops
        return ops


def residues(e, points) -> list[int]:
    """Values of *e* mod PRIME at points given as {atom text: value}."""
    return [eval_mod_p(e, assignment(e, pt), PRIME) for pt in points]


def assignment(e, point) -> dict[int, int]:
    return {e.atoms.id_of(name): v for name, v in point.items()}


def repeat(units, seconds: float):
    """Call the units in turn, round after round, for about *seconds*.

    Each unit takes the round number. A round starts only if one more round
    as long as the last fits. Returns the first round's outcomes and whether
    every round repeated them.
    """
    start = time.perf_counter()
    firsts, agree, rnd = None, True, 0
    while True:
        round_start = time.perf_counter()
        outs = [unit(rnd) for unit in units]
        if firsts is None:
            firsts = outs
        else:
            agree = agree and outs == firsts
        rnd += 1
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            return firsts, agree


def search_params(wl: Workload, seed: int) -> SearchParams:
    return SearchParams(cp=CP, n_updates=wl.budget, seed=seed)


def sweep_config(wl: Workload, seed: int) -> SweepConfig:
    lo, hi = SWEEP_CP
    return SweepConfig(cp_min=lo, cp_max=hi, samples=wl.samples, n_updates=wl.budget, base_seed=seed)


def reference_work() -> int:
    """Fixed interpreter work in the scorer's style: tuples, dicts, sets, sorts."""
    pairs: dict = {}
    acc = 0
    for i in range(20000):
        key = (i % 97, (i * 31) % 89)
        group = pairs.get(key)
        if group is None:
            pairs[key] = {i}
        else:
            group.add(i)
        acc += i * i % 7
    return acc + sum(len(g) for g in sorted(pairs.values(), key=len)[-5:])


def reference_s(calls: int) -> float:
    """Fastest of *calls* timings of ``reference_work``."""
    best = float("inf")
    for _ in range(calls):
        t0 = time.perf_counter()
        reference_work()
        best = min(best, time.perf_counter() - t0)
    return best


class IterationClock:
    """Passes scorer calls through and splits a search into its iterations.

    ``search`` makes exactly one scorer call per iteration. Before each call
    the clock times the reference loop once; that time is kept out of the
    iteration's own time, so each iteration has a reference time taken at
    the same moment.
    """

    def __init__(self, inner):
        self.inner = inner
        self.marks: list[float] = []  # call returns, on a clock that skips the reference
        self.refs: list[float] = []
        self.skipped = 0.0

    def delta(self, order):
        t0 = time.perf_counter()
        self.refs.append(reference_s(1))
        self.skipped += time.perf_counter() - t0
        ops = self.inner.delta(order)
        self.marks.append(time.perf_counter() - self.skipped)
        return ops

    def intervals(self, start: float, end: float) -> list[float]:
        """Each iteration's time, given the search's start and end."""
        bounds = [start] + self.marks[:-1] + [end - self.skipped]
        return [b - a for a, b in zip(bounds, bounds[1:])]


class PlainUnit:
    """One untraced repetition: parse, build a scorer, make the public call.

    The reference loop is timed first, so each repetition's times can be
    scaled by the machine's speed at that moment.
    """

    def __init__(self, text: str, wl: Workload, seed: int, jobs: int, scorer_factory=None):
        self.text, self.wl, self.seed, self.jobs = text, wl, seed, jobs
        self.scorer_factory = scorer_factory or DeltaScorer
        self.ref_s: list[float] = []
        self.setup_s: list[float] = []
        self.run_s: list[float] = []
        # Searches only, one list per repetition: time and reference time
        # of each iteration.
        self.iteration_s: list[list[float]] = []
        self.iteration_ref_s: list[list[float]] = []
        self.e = None

    def __call__(self, rnd: int):
        self.ref_s.append(reference_s(3))
        t0 = time.perf_counter()
        e = self.e = parse(self.text)
        scorer = self.scorer_factory(e)
        t1 = time.perf_counter()
        if self.wl.samples:
            # With jobs > 1 every pool worker builds its own scorer.
            out = run_sweep(e, sweep_config(self.wl, self.seed), jobs=self.jobs, scorer=scorer)
        else:
            clock = IterationClock(scorer)
            out = search(e, search_params(self.wl, self.seed), scorer=clock)
        t2 = time.perf_counter()
        self.setup_s.append(t1 - t0)
        if self.wl.samples:
            self.run_s.append(t2 - t1)
        else:
            self.run_s.append(t2 - t1 - clock.skipped)
            self.iteration_s.append(clock.intervals(t1, t2))
            self.iteration_ref_s.append(clock.refs)
        return out

    def iters_per_s(self, scaled: bool) -> float:
        """Iterations per second of the run's typical time for its work.

        Repetitions do identical work. A search's time is the sum over its
        iterations of each iteration's median time across repetitions. A
        sweep's iterations run in pool workers, so a sweep takes its median
        repetition. Scaled, every time is first scaled by the reference
        time taken with it.
        """
        if self.iteration_s:
            reps = zip(self.iteration_s, self.iteration_ref_s)
            if scaled:
                times = [[t * REF_S / r for t, r in zip(ts, rs)] for ts, rs in reps]
            else:
                times = self.iteration_s
            return self.wl.iterations / sum(statistics.median(col) for col in zip(*times))
        times = self.run_s
        if scaled:
            times = [t * REF_S / r for t, r in zip(self.run_s, self.ref_s)]
        return self.wl.iterations / statistics.median(times)

    def setup_time(self, scaled: bool) -> float:
        """Median set-up time; scaled, each by its repetition's reference time."""
        if scaled:
            return statistics.median(s * REF_S / r for s, r in zip(self.setup_s, self.ref_s))
        return statistics.median(self.setup_s)


@contextmanager
def spans_around_sweep_searches(tracer: Tracer):
    """Open an ``mcts.search`` span around each search that ``run_sweep`` makes."""
    real = sweep_module.search

    def traced(*args, **kwargs):
        with tracer.span("mcts.search"):
            return real(*args, **kwargs)

    sweep_module.search = traced
    try:
        yield
    finally:
        sweep_module.search = real


class TracedUnit:
    """One traced repetition per call, at jobs=1 with a ``TimedScorer``."""

    def __init__(self, text: str, wl: Workload, seed: int, tracer: Tracer, scorer_factory=None):
        self.text, self.wl, self.seed = text, wl, seed
        self.tracer = tracer
        self.scorer_factory = scorer_factory or DeltaScorer
        self.run_s: list[float] = []
        self.cache_entries: list[int] = []
        self.scorer: TimedScorer | None = None

    def __call__(self, rnd: int):
        tracer = self.tracer
        tracer.rep = rnd
        with tracer.span("expr.parse"):
            e = parse(self.text)
        with tracer.span("score.init"):
            self.scorer = TimedScorer(self.scorer_factory(e), tracer)
        t0 = time.perf_counter()
        if self.wl.samples:
            with tracer.span("sweep.run"), spans_around_sweep_searches(tracer):
                out = run_sweep(e, sweep_config(self.wl, self.seed), jobs=1, scorer=self.scorer)
        else:
            with tracer.span("mcts.search"):
                out = search(e, search_params(self.wl, self.seed), scorer=self.scorer)
        self.run_s.append(time.perf_counter() - t0)
        if self.wl.samples:
            with tracer.span("sweep.analyze"):
                analyze_rows(out)
        self.cache_entries.append(len(self.scorer.inner.cache))
        return out


def claimed_scores(outcome, e) -> list:
    """Every (scheme, (mul, add)) that a search result or sweep rows report."""
    if isinstance(outcome, list):
        seen: dict[str, tuple[int, int]] = {}
        for r in outcome:
            seen.setdefault(r.scheme, (r.ops_mul, r.ops_add))
        return [(scheme_from_string(s, e.atoms), ops) for s, ops in seen.items()]
    return [(outcome.best_scheme, (outcome.best_delta.mul, outcome.best_delta.add))]


def best_of(outcome, e) -> tuple[int, int, str]:
    """(mul, add, scheme text) of a search result or of the first best sweep row."""
    if isinstance(outcome, list):
        r = min(outcome, key=lambda r: r.ops_total)
        return r.ops_mul, r.ops_add, r.scheme
    s = outcome.best_scheme
    return outcome.best_delta.mul, outcome.best_delta.add, ",".join(e.atoms.text(a) for a in s.order)


def rescore_matches(e, scheme, ops, points, expected) -> bool:
    """``simplify`` gives the claimed count, and its DAG the input's residues."""
    res = simplify(e, scheme)
    if (res.ops.mul, res.ops.add) != tuple(ops):
        return False
    got = [eval_dag_mod_p(res.dag, assignment(e, pt), PRIME) for pt in points]
    return got == expected


def check_outcome(checks: Checks, e, outcome, points, expected) -> None:
    checks.run("parse residues", lambda: residues(e, points) == expected)
    for scheme, ops in claimed_scores(outcome, e):
        checks.run(
            f"rescore {scheme_to_string(scheme, e.atoms)}",
            partial(rescore_matches, e, scheme, ops, points, expected),
        )


def replay(e, evaluated: dict, count: int, seed: int, tracer: Tracer, checks: Checks) -> dict:
    """Run a seeded sample of evaluated orders through the public stages.

    Every order's final count must equal the scorer's. Returns the per-order
    node and operation counts.
    """
    orders = list(evaluated)
    sample = random.Random(seed).sample(orders, min(count, len(orders)))
    counts: dict[str, list[int]] = {
        k: [] for k in ("dag_nodes_in", "pairs_extracted", "dag_nodes_out", "ops_saved")
    }
    for order in sample:
        with tracer.span("horner.apply"):
            tree = apply_scheme(e, Scheme(order))
        with tracer.span("cse.intern"):
            dag = build_dag(tree)
        with tracer.span("cse.setup"):
            rw = _Rewriter.from_dag(dag)
        arena = len(rw.kinds)
        with tracer.span("cse.loop"):
            rw.run()
        counts["pairs_extracted"].append(len(rw.kinds) - arena)
        with tracer.span("cse.compact"):
            out = rw.compact()
        with tracer.span("cse.count"):
            ops = dag_op_count(out)
        want = tuple(evaluated[order])
        checks.run(
            f"replay {order}",
            lambda: rw.live_op_count() == want and (ops.mul, ops.add) == want,
        )
        counts["dag_nodes_in"].append(dag.node_count)
        counts["dag_nodes_out"].append(out.node_count)
        counts["ops_saved"].append(tree_op_count(tree).total - ops.total)
    return counts


def peak_rss_mb() -> float:
    """This process's peak plus its largest waited-for child's (Linux KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def run_plain(wl, text, seed, seconds, points, expected, scorer_factory=None) -> dict:
    checks = Checks()
    unit = PlainUnit(text, wl, seed, wl.jobs, scorer_factory)
    (outcome,), agree = repeat([unit], seconds)
    e = unit.e
    checks.run("repetitions agree", lambda: agree)
    check_outcome(checks, e, outcome, points, expected)
    mul, add, scheme = best_of(outcome, e)
    record = {
        "best_mul": mul,
        "best_add": add,
        "best_scheme": scheme,
        "reps": len(unit.run_s),
        "rep_run_s": unit.run_s,
        "rep_setup_s": unit.setup_s,
        "iters_per_s_raw": unit.iters_per_s(scaled=False),
        "setup_s_raw": unit.setup_time(scaled=False),
        "rep_ref_s": unit.ref_s,
    }
    if wl.samples:
        record["sweep"] = analyze_rows(outcome)
    metrics = {
        "setup_s": unit.setup_time(scaled=True),
        "iters_per_s": unit.iters_per_s(scaled=True),
        "best_ops": mul + add,
        "peak_rss_mb": peak_rss_mb(),
    }
    return reply(metrics, checks, record)


def run_traced(
    wl, text, seed, seconds, points, expected, scorer_factory=None, spans_path=None
) -> dict:
    checks = Checks()
    tracer = Tracer()
    plain = PlainUnit(text, wl, seed, 1, scorer_factory)
    traced = TracedUnit(text, wl, seed, tracer, scorer_factory)
    (outcome, traced_outcome), agree = repeat([plain, traced], seconds)
    e = plain.e
    checks.run("repetitions agree", lambda: agree)
    checks.run("traced run matches untraced", lambda: traced_outcome == outcome)
    check_outcome(checks, e, outcome, points, expected)
    record: dict = {"best_scheme": best_of(outcome, e)[2], "traced_reps": len(traced.run_s)}
    if wl.samples:
        multi = run_sweep(e, sweep_config(wl, seed), jobs=wl.jobs)
        checks.run(f"jobs=1 rows equal jobs={wl.jobs} rows", lambda: multi == outcome)
        record["sweep"] = analyze_rows(outcome)
    counts = replay(e, traced.scorer.evaluated, wl.replay, seed, tracer, checks)
    metrics = layer_metrics(tracer, wl, e, traced.cache_entries, counts)
    metrics["sweep.roi_log_width"] = record["sweep"]["roi_log_width"] if wl.samples else 0.0
    # Each round times the two units back to back, so their ratio sees one
    # machine speed.
    metrics["trace.overhead_frac"] = (
        statistics.median(t / u for t, u in zip(traced.run_s, plain.run_s)) - 1.0
    )
    if spans_path:
        tracer.write_jsonl(spans_path)
    return reply(metrics, checks, record)


def layer_metrics(tracer: Tracer, wl: Workload, e, cache_entries, counts) -> dict:
    """Per-layer metrics; per-repetition sums are medians over the traced reps.

    A layer that does not run on this workload reads 0, with 0 samples.
    """
    selfs = self_times(tracer.spans)
    reps: dict[int, dict[str, float]] = {}
    hit_us, miss_ms = [], []
    for s in tracer.spans:
        if s.name not in ("score.delta", "mcts.search", "sweep.run", "sweep.analyze"):
            continue
        r = reps.setdefault(
            s.rep, dict.fromkeys(("calls", "misses", "busy", "mcts", "sweep", "analyze"), 0.0)
        )
        if s.name == "score.delta":
            r["calls"] += 1
            r["busy"] += s.duration / 1e9
            if s.attrs["hit"]:
                hit_us.append(s.duration / 1e3)
            else:
                r["misses"] += 1
                miss_ms.append(s.duration / 1e6)
        elif s.name == "mcts.search":
            r["mcts"] += selfs[s.id] / 1e9
        elif s.name == "sweep.run":
            r["sweep"] += selfs[s.id] / 1e9
        else:
            r["analyze"] += s.duration / 1e9

    def rep_median(key):
        return statistics.median(r[key] for r in reps.values())

    def p(values, q):
        return percentile(values, q)[0] or 0.0

    def stage_p50_ms(name):
        return p([s.duration / 1e6 for s in tracer.named(name)], 50)

    calls, misses = rep_median("calls"), rep_median("misses")
    mcts_self = rep_median("mcts")
    return {
        "expr.parse_s": p([s.duration / 1e9 for s in tracer.named("expr.parse")], 50),
        "expr.terms": len(e.terms),
        "expr.vars": len(variables(e)),
        "score.init_s": p([s.duration / 1e9 for s in tracer.named("score.init")], 50),
        "score.calls": calls,
        "score.misses": misses,
        "score.hits": calls - misses,
        "score.hit_rate": (calls - misses) / calls,
        "score.hit_us_p50": p(hit_us, 50),
        "score.miss_ms_p50": p(miss_ms, 50),
        "score.miss_ms_p95": p(miss_ms, 95),
        "score.busy_s": rep_median("busy"),
        "score.cache_entries": statistics.median(cache_entries),
        "mcts.self_s": mcts_self,
        "mcts.self_us_per_iter": mcts_self / wl.iterations * 1e6,
        "replay.orders": len(counts["dag_nodes_in"]),
        "horner.apply_ms_p50": stage_p50_ms("horner.apply"),
        "cse.intern_ms_p50": stage_p50_ms("cse.intern"),
        "cse.setup_ms_p50": stage_p50_ms("cse.setup"),
        "cse.loop_ms_p50": stage_p50_ms("cse.loop"),
        "cse.compact_ms_p50": stage_p50_ms("cse.compact"),
        "cse.count_ms_p50": stage_p50_ms("cse.count"),
        "cse.dag_nodes_in": p(counts["dag_nodes_in"], 50),
        "cse.pairs_extracted": p(counts["pairs_extracted"], 50),
        "cse.dag_nodes_out": p(counts["dag_nodes_out"], 50),
        "cse.ops_saved": p(counts["ops_saved"], 50),
        "sweep.self_s": rep_median("sweep"),
        "sweep.analyze_s": rep_median("analyze"),
    }


def reply(metrics: dict, checks: Checks, record: dict) -> dict:
    record["failed_checks"] = checks.failed
    return {
        "metrics": metrics,
        "attempted": checks.attempted,
        "failed": len(checks.failed),
        "record": record,
    }


def main() -> int:
    req = json.load(sys.stdin)
    wl = WORKLOADS[req["workload"]]
    args = (wl, req["text"], req["seed"], req["seconds"], req["points"], req["expected"])
    if req["trace"]:
        out = run_traced(*args, spans_path=req["spans_path"])
    else:
        out = run_plain(*args)
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
