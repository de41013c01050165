"""Sensitivity sweeps over the exploration constant, plus ROI analysis.

A sweep runs many independent searches, each one MCTS run, on a grid of
C_p values, spaced evenly in log C_p from cp_min to cp_max, and emits one
CSV row per run. With cp_min equal to cp_max the grid is that one point,
so the best of R runs at one C_p is a sweep of R samples: its first row of
least ops_total. Each grid point's cell of log C_p reaches halfway to its
neighbouring points and ends at the outermost points. The sweep's region
of interest (ROI) is the widest run of consecutive points that each hold a
run within (1+epsilon) of the sweep's minimum operation count, at the
minimum itself when epsilon is 0, and its width is the length of their
cells in log units. Comparing this width between selection criteria
quantifies how much a decaying temperature widens the usable C_p range;
``analyze_rows`` reports it.

``SweepRow`` is the record of one run, a sweep's row and the output of
``opmin search`` alike, and ``run_row`` is the one function that makes it
from a search: a row re-runs from its own fields, as ``run_row(e,
SearchParams(row.cp, row.n_updates, Criterion(row.criterion),
Direction(row.direction), row.seed), row.sample) == row``. Its fields, in
order, are the CSV columns (``CSV_HEADER``) and the keys of a JSON row, and
``read_csv`` converts each cell to its field's declared type.

Everything is deterministic in the configuration: run k uses grid point
k mod G and seed base_seed+k, and rows are emitted in sample order even
when computed concurrently.

All runs of a sweep share one score cache, the scorer's ``cache`` of
counts per order and per decision trace. With several worker processes the
parent holds it: each result brings back the tail of the worker's cache
that its search added, and each task carries the tail of the parent's
cache since that worker last synced, so an order's decisions are walked,
and a trace's arena interned and eliminated, about once per sweep rather
than once per worker. The counts are exact, so the rows do not depend on
which process scored what.
"""

from __future__ import annotations

import csv
import math
import traceback
import typing
from dataclasses import astuple, dataclass, fields
from itertools import islice

from .expr import Expression, _integer_fields
from .horner import Direction, order_to_string
from .cse import DeltaScorer
from .mcts import Criterion, SearchParams, search

POINTS_PER_DECADE = 10  # or more: a spacing of 0.1 decade of C_p or finer, when samples allow
DEFAULT_EPSILON = 0.05


@dataclass(frozen=True)
class SweepConfig:
    cp_min: float
    cp_max: float
    samples: int
    n_updates: int
    direction: Direction = Direction.FORWARD
    criterion: Criterion = Criterion.SA_UCT
    base_seed: int = 0

    def __post_init__(self):
        _integer_fields(self, "samples", "n_updates", "base_seed")
        if not (0 < self.cp_min <= self.cp_max and math.isfinite(self.cp_max)):
            raise ValueError("need finite 0 < cp_min <= cp_max")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.n_updates < 1:
            raise ValueError("n_updates must be >= 1")
        if self.base_seed < 0:
            raise ValueError("base_seed must be >= 0")


@dataclass(frozen=True)
class SweepRow:
    """One run of a sweep; the fields are its CSV columns and JSON keys."""

    sample: int
    cp: float
    criterion: str
    n_updates: int
    direction: str
    seed: int
    ops_total: int
    ops_mul: int
    ops_add: int
    scheme: str


CSV_HEADER = [f.name for f in fields(SweepRow)]
_CELL_TYPES = typing.get_type_hints(SweepRow)  # column -> int, float or str
# column -> the texts its cells may hold
_LABELS = {"criterion": [c.value for c in Criterion], "direction": [d.value for d in Direction]}
# column -> the least value its cells may hold
_LEAST = {"sample": 0, "n_updates": 1, "seed": 0, "ops_total": 0, "ops_mul": 0, "ops_add": 0}


def cp_grid(config: SweepConfig) -> list[float]:
    """The sweep's G C_p points, evenly spaced in log C_p, in increasing order.

    G = min(samples, 1 + ceil(POINTS_PER_DECADE * log10(cp_max / cp_min))).
    The first point is cp_min and, when G > 1, the last is cp_max, exactly.
    """
    lo, hi = config.cp_min, config.cp_max
    # Differences of logs: hi / lo overflows on a range of over 308 decades.
    g = min(config.samples, 1 + math.ceil(POINTS_PER_DECADE * (math.log10(hi) - math.log10(lo))))
    if g == 1:
        return [lo]
    start = math.log(lo)
    step = (math.log(hi) - start) / (g - 1)
    return [lo, *(math.exp(start + i * step) for i in range(1, g - 1)), hi]


def run_row(e: Expression, params: SearchParams, sample: int = 0, scorer: DeltaScorer | None = None) -> SweepRow:
    """The record of one run, ``search(e, params, scorer=scorer)``, as row *sample*."""
    result = search(e, params, scorer=scorer)
    return SweepRow(
        sample=sample,
        cp=params.cp,
        criterion=params.criterion.value,
        n_updates=params.n_updates,
        direction=params.direction.value,
        seed=params.seed,
        ops_total=result.best_delta.total,
        ops_mul=result.best_delta.mul,
        ops_add=result.best_delta.add,
        scheme=order_to_string(result.best_scheme.order, e.atoms),
    )


def run_sweep(
    e: Expression,
    config: SweepConfig,
    jobs: int = 1,
    scorer: DeltaScorer | None = None,
) -> list[SweepRow]:
    """All sweep rows in sample order: row k is ``run_row`` at grid point
    k mod G with seed base_seed + k.

    ``scorer`` (a new DeltaScorer when None) is the sweep's one score cache
    for every value of ``jobs``. ``jobs > 1`` runs the samples in
    ``min(jobs, samples)`` worker processes (none for a single sample) that
    share this cache through the parent; the rows, and the cache left in
    ``scorer.cache``, equal those of a sequential run. Raises ValueError if
    ``jobs < 1`` and RuntimeError if a worker dies; an exception raised in a
    worker is re-raised here.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if scorer is None:
        scorer = DeltaScorer(e)
    cps = cp_grid(config)
    tasks = [
        (k, SearchParams(cps[k % len(cps)], config.n_updates, config.criterion, config.direction, config.base_seed + k))
        for k in range(config.samples)
    ]
    workers = min(jobs, len(tasks))
    if workers == 1:
        return [run_row(e, params, k, scorer) for k, params in tasks]
    return _run_in_workers(e, tasks, workers, scorer)


def _tail(cache: dict, start: int) -> list:
    """``(key, counts)`` of the entries *cache* gained since it held *start*.

    A dict keeps insertion order, so those are its last entries; their keys
    are read backwards, and ``items()`` is never called.
    """
    keys = list(islice(reversed(cache), len(cache) - start))
    return [(key, cache[key]) for key in reversed(keys)]


def _worker(conn, parent_end, e: Expression, scorer: DeltaScorer) -> None:
    """Run the samples the parent sends until it sends None or is gone.

    *scorer* is the caller's, inherited under fork and pickled once under
    spawn. A task is ``((k, params), entries)``; the entries go into its cache
    before the search. The reply is ``(True, (row, new))``, where ``new``
    is the tail of the cache that the search added, or
    ``(False, (exception, traceback text))``. ``parent_end`` is this
    worker's copy of the parent's end of the pipe; closing it lets ``recv``
    see end-of-file once the parent has exited.
    """
    parent_end.close()
    cache = scorer.cache
    try:
        while (task := conn.recv()) is not None:
            (k, params), entries = task
            cache.update(entries)
            known = len(cache)
            try:
                row = run_row(e, params, k, scorer)
            except Exception as exc:
                conn.send((False, (exc, traceback.format_exc())))
                return
            conn.send((True, (row, _tail(cache, known))))
    except (EOFError, OSError):
        return  # the parent has exited


def _run_in_workers(e, tasks, workers: int, scorer: DeltaScorer) -> list[SweepRow]:
    """Rows of *tasks*, run one sample at a time by each of *workers* processes.

    The parent holds the one cache, *scorer*'s, which each worker starts
    from, and ``synced[w]``, the length of that cache when worker w last
    had all of it: at the start, and after each of its replies. When w
    replies, the parent sends w its next task with the cache's tail from
    ``synced[w]``, and only then adds w's entries and sets ``synced[w]``
    to the new length. Only this loop adds to the cache, and ``update``
    appends only the keys it lacks, so that tail is exactly the entries
    that the other workers brought since w last synced, in the order they
    came, and none of w's own. A search makes the same scorer calls
    whether they hit or miss, so a row does not depend on which worker ran
    it or on what it had been sent.
    """
    import multiprocessing as mp
    from multiprocessing.connection import wait

    ctx = mp.get_context()
    conns, procs = [], []
    cache = scorer.cache
    synced = [len(cache)] * workers
    pending = iter(tasks)
    busy: dict = {}  # connection -> worker index
    rows: list[SweepRow] = []

    def send_next(w: int) -> None:
        task = next(pending, None)
        if task is not None:
            conns[w].send((task, _tail(cache, synced[w])))
            busy[conns[w]] = w

    try:
        for _ in range(workers):
            conn, child = ctx.Pipe()
            proc = ctx.Process(target=_worker, args=(child, conn, e, scorer), daemon=True)
            proc.start()
            child.close()
            conns.append(conn)
            procs.append(proc)
        for w in range(workers):
            send_next(w)
        while busy:
            for conn in wait(list(busy)):
                w = busy.pop(conn)
                try:
                    ok, payload = conn.recv()
                except (EOFError, OSError):
                    procs[w].join()
                    raise RuntimeError(
                        f"sweep worker exited with code {procs[w].exitcode}"
                    ) from None
                if not ok:
                    exc, tb = payload
                    raise exc from RuntimeError(f"in sweep worker {w}:\n{tb}")
                row, entries = payload
                rows.append(row)
                send_next(w)
                cache.update(entries)
                synced[w] = len(cache)
        for conn in conns:
            conn.send(None)
    except BaseException:
        for proc in procs:
            proc.terminate()
        raise
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            proc.join()
    return sorted(rows, key=lambda r: r.sample)


# ---------------------------------------------------------------------------
# CSV (stable schema: SweepRow's fields, '\n' line endings, floats by repr)
# ---------------------------------------------------------------------------


def write_csv(rows, fh) -> None:
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(CSV_HEADER)
    w.writerows(map(astuple, rows))


def read_csv(fh) -> list[SweepRow]:
    """Rows of a sweep CSV; ValueError, naming the line, on a malformed one.

    A row is malformed when it has the wrong number of fields, a cell of the
    wrong type, a cp that is not positive and finite, a criterion or
    direction that names no ``Criterion`` or ``Direction``, a negative
    sample, seed or operation count, an n_updates below 1, an ops_total
    other than ops_mul + ops_add, or a sample that an earlier row has.
    """
    reader = csv.reader(fh)
    header = next(reader, [])
    if header != CSV_HEADER:
        raise ValueError(f"unexpected sweep CSV header: {header}")
    rows = []
    first_line: dict[int, int] = {}  # sample -> the line that has it
    for rec in reader:
        where = f"sweep CSV line {reader.line_num}"
        if len(rec) != len(CSV_HEADER):
            raise ValueError(f"{where}: {len(rec)} fields, expected {len(CSV_HEADER)}")
        cells = dict(zip(CSV_HEADER, rec))
        try:
            row = SweepRow(**{k: _CELL_TYPES[k](v) for k, v in cells.items()})
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        if not (math.isfinite(row.cp) and row.cp > 0):
            raise ValueError(f"{where}: cp must be positive and finite, got {cells['cp']}")
        for name, values in _LABELS.items():
            if cells[name] not in values:
                raise ValueError(f"{where}: {name} must be one of {', '.join(values)}, got {cells[name]}")
        for name, least in _LEAST.items():
            if getattr(row, name) < least:
                raise ValueError(f"{where}: {name} must be >= {least}, got {cells[name]}")
        if row.ops_total != row.ops_mul + row.ops_add:
            raise ValueError(f"{where}: ops_total {row.ops_total} is not ops_mul plus ops_add")
        if row.sample in first_line:
            raise ValueError(f"{where}: sample {row.sample} is already on line {first_line[row.sample]}")
        first_line[row.sample] = reader.line_num
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Region of interest
# ---------------------------------------------------------------------------


def analyze_rows(rows, epsilon: float = DEFAULT_EPSILON) -> dict:
    """Summary record for one sweep: global best and region of interest.

    The rows' points are their distinct cp values; CSV floats round-trip by
    repr, so rows read back group as they were written. Point i's cell of
    log cp reaches halfway to each neighbouring point and ends at the
    outermost points. A point is good when one of its rows has ops_total at
    most (1+epsilon) times the global minimum. The ROI is the longest run of
    consecutive good points, the first of equally long runs; its C_p
    interval is the ends of their cells, and its log width the length of
    those cells: one grid spacing per interior point, and 0 with one point.
    Raises ValueError for an epsilon that is not nonnegative and finite, or
    for no rows.
    """
    if not (math.isfinite(epsilon) and epsilon >= 0):
        raise ValueError("epsilon must be nonnegative and finite")
    if not rows:
        raise ValueError("no sweep rows")
    points = sorted({r.cp for r in rows})
    global_min = min(r.ops_total for r in rows)
    # Integers compared exactly: (1 + epsilon) * global_min rounds past 2**53.
    good = {r.cp for r in rows if r.ops_total - global_min <= epsilon * global_min}
    # The global minimum's point is good, so the longest run has a point or more.
    best_len = best_start = run = 0
    for i, cp in enumerate(points):
        run = run + 1 if cp in good else 0
        if run > best_len:
            best_len, best_start = run, i + 1 - run
    logs = [math.log(cp) for cp in points]
    cuts = [points[0], *(math.exp((a + b) / 2) for a, b in zip(logs, logs[1:])), points[-1]]
    lo, hi = cuts[best_start], cuts[best_start + best_len]
    return {
        "samples": len(rows),
        "cp_min": points[0],
        "cp_max": points[-1],
        "global_min_ops": global_min,
        "epsilon": epsilon,
        "points": len(points),
        "roi_log_width": math.log(hi) - math.log(lo),
        "roi_cp_interval": [lo, hi],
    }
