"""Sensitivity sweeps over the exploration constant, plus ROI analysis.

A sweep runs many independent searches with log-uniformly sampled C_p
values and emits one CSV row per run. The region of interest is the widest
contiguous band of C_p (measured in log units over 50 bins) whose best
observed operation count stays within (1+epsilon) of the global minimum;
comparing this width between selection criteria quantifies how much a
decaying temperature widens the usable C_p range.

Everything is deterministic in the configuration: C_p values come from one
seeded stream, run k uses seed base_seed+k, and rows are emitted in sample
order even when computed concurrently.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .expr import Expression
from .horner import Direction
from .cse import DeltaScorer
from .mcts import Schedule, SearchParams, search

CSV_HEADER = [
    "sample",
    "cp",
    "criterion",
    "n_updates",
    "direction",
    "seed",
    "ops_total",
    "ops_mul",
    "ops_add",
    "scheme",
]

ROI_BINS = 50
DEFAULT_EPSILON = 0.05


@dataclass(frozen=True)
class SweepConfig:
    cp_min: float
    cp_max: float
    samples: int
    n_updates: int
    direction: Direction = Direction.FORWARD
    schedule: Schedule = Schedule.linear()
    base_seed: int = 0

    def __post_init__(self):
        if not (0 < self.cp_min < self.cp_max):
            raise ValueError("need 0 < cp_min < cp_max")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.n_updates < 1:
            raise ValueError("n_updates must be >= 1")


@dataclass(frozen=True)
class SweepRow:
    sample_index: int
    cp: float
    criterion: str
    n_updates: int
    direction: str
    seed: int
    ops_total: int
    ops_mul: int
    ops_add: int
    scheme: str


def sample_cps(config: SweepConfig) -> list[float]:
    """Log-uniform C_p draws; one seeded stream, independent of run seeds."""
    rng = np.random.Generator(np.random.PCG64(config.base_seed))
    lo, hi = math.log(config.cp_min), math.log(config.cp_max)
    return [float(math.exp(v)) for v in rng.uniform(lo, hi, config.samples)]


def _run_sample(e: Expression, config: SweepConfig, k: int, cp: float, scorer) -> SweepRow:
    params = SearchParams(
        cp=cp,
        n_updates=config.n_updates,
        repeats=1,  # each dot is a single MCTS run
        schedule=config.schedule,
        direction=config.direction,
        seed=config.base_seed + k,
    )
    result = search(e, params, scorer=scorer)
    return SweepRow(
        sample_index=k,
        cp=cp,
        criterion=config.schedule.criterion,
        n_updates=config.n_updates,
        direction=config.direction.value,
        seed=params.seed,
        ops_total=result.best_delta.total,
        ops_mul=result.best_delta.mul,
        ops_add=result.best_delta.add,
        scheme=",".join(e.atoms.text(a) for a in result.best_scheme.order),
    )


_worker_state: dict = {}


def _init_worker(e: Expression, config: SweepConfig):
    _worker_state["expr"] = e
    _worker_state["config"] = config
    _worker_state["scorer"] = DeltaScorer(e)


def _worker_run(task):
    k, cp = task
    return _run_sample(
        _worker_state["expr"], _worker_state["config"], k, cp, _worker_state["scorer"]
    )


def run_sweep(
    e: Expression,
    config: SweepConfig,
    jobs: int = 1,
    scorer: DeltaScorer | None = None,
) -> list[SweepRow]:
    """All sweep rows in sample order.

    ``jobs > 1`` distributes samples over worker processes; each worker owns
    its generator and score cache, and the result is identical to a
    sequential run.
    """
    cps = sample_cps(config)
    if jobs <= 1:
        if scorer is None:
            scorer = DeltaScorer(e)
        return [_run_sample(e, config, k, cp, scorer) for k, cp in enumerate(cps)]
    import multiprocessing as mp

    with mp.Pool(jobs, initializer=_init_worker, initargs=(e, config)) as pool:
        rows = pool.map(_worker_run, list(enumerate(cps)), chunksize=8)
    return sorted(rows, key=lambda r: r.sample_index)


# ---------------------------------------------------------------------------
# CSV (stable schema: header above, '\n' line endings, dot decimals)
# ---------------------------------------------------------------------------


def write_csv(rows, fh) -> None:
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(CSV_HEADER)
    for r in rows:
        w.writerow(
            [
                r.sample_index,
                repr(r.cp),
                r.criterion,
                r.n_updates,
                r.direction,
                r.seed,
                r.ops_total,
                r.ops_mul,
                r.ops_add,
                r.scheme,
            ]
        )


def read_csv(fh) -> list[SweepRow]:
    reader = csv.reader(fh)
    header = next(reader)
    if header != CSV_HEADER:
        raise ValueError(f"unexpected sweep CSV header: {header}")
    rows = []
    for rec in reader:
        rows.append(
            SweepRow(
                sample_index=int(rec[0]),
                cp=float(rec[1]),
                criterion=rec[2],
                n_updates=int(rec[3]),
                direction=rec[4],
                seed=int(rec[5]),
                ops_total=int(rec[6]),
                ops_mul=int(rec[7]),
                ops_add=int(rec[8]),
                scheme=rec[9],
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Region of interest
# ---------------------------------------------------------------------------


def per_bin_minima(rows, bins: int = ROI_BINS):
    """Minimum ops_total per log(cp) bin (None where a bin has no samples).

    Returns (minima, log_lo, bin_width).
    """
    if not rows:
        raise ValueError("no sweep rows")
    logs = [math.log(r.cp) for r in rows]
    lo, hi = min(logs), max(logs)
    width = (hi - lo) / bins if hi > lo else 0.0
    minima: list[int | None] = [None] * bins
    for r, lg in zip(rows, logs):
        if width == 0.0:
            idx = 0
        else:
            idx = min(int((lg - lo) / width), bins - 1)
        cur = minima[idx]
        if cur is None or r.ops_total < cur:
            minima[idx] = r.ops_total
    return minima, lo, width


def roi_width(rows, epsilon: float = DEFAULT_EPSILON, bins: int = ROI_BINS) -> float:
    """Total log-width of the longest contiguous run of good bins.

    A bin is good when it has samples and its minimum ops_total is within
    (1+epsilon) of the global minimum. Monotone nondecreasing in epsilon.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    minima, _, width = per_bin_minima(rows, bins)
    global_min = min(m for m in minima if m is not None)
    threshold = (1.0 + epsilon) * global_min
    good = [m is not None and m <= threshold for m in minima]
    best = run = 0
    for g in good:
        run = run + 1 if g else 0
        best = max(best, run)
    return best * width


def roi_interval(rows, epsilon: float = DEFAULT_EPSILON, bins: int = ROI_BINS):
    """C_p endpoints of the longest good run, or None for a degenerate range."""
    minima, lo, width = per_bin_minima(rows, bins)
    if width == 0.0:
        return None
    global_min = min(m for m in minima if m is not None)
    threshold = (1.0 + epsilon) * global_min
    good = [m is not None and m <= threshold for m in minima]
    best_len = best_start = run = 0
    start = 0
    for i, g in enumerate(good):
        if g:
            if run == 0:
                start = i
            run += 1
            if run > best_len:
                best_len, best_start = run, start
        else:
            run = 0
    if best_len == 0:
        return None
    return (
        math.exp(lo + best_start * width),
        math.exp(lo + (best_start + best_len) * width),
    )


def analyze_rows(rows, epsilon: float = DEFAULT_EPSILON) -> dict:
    """Summary record for one sweep: global best and region of interest."""
    minima, lo, width = per_bin_minima(rows)
    global_min = min(r.ops_total for r in rows)
    interval = roi_interval(rows, epsilon)
    return {
        "samples": len(rows),
        "cp_min": min(r.cp for r in rows),
        "cp_max": max(r.cp for r in rows),
        "global_min_ops": global_min,
        "epsilon": epsilon,
        "bins": ROI_BINS,
        "bin_log_width": width,
        "roi_log_width": roi_width(rows, epsilon),
        "roi_cp_interval": list(interval) if interval else None,
    }
