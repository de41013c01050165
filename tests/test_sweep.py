import csv
import io
import json
import math
import multiprocessing.process
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import opmin
from opmin.cse import DeltaScorer
from opmin.expr import parse, variables
from opmin.horner import Direction, order_to_string
from opmin.mcts import Criterion, SearchParams, brute_force_search, search
from opmin.sweep import (
    CSV_HEADER,
    SweepConfig,
    SweepRow,
    analyze_rows,
    cp_grid,
    read_csv,
    run_row,
    run_sweep,
    write_csv,
)
from opmin.benchgen import RandomExprParams, random_expr, resultant_expr
from opmin.cli import main

from test_expr import WORKED
from test_mcts import brute_force_oracle, five_var_expr


def small_config(**kw):
    defaults = dict(
        cp_min=0.01,
        cp_max=10.0,
        samples=12,
        n_updates=25,
        direction=Direction.FORWARD,
        criterion=Criterion.SA_UCT,
        base_seed=7,
    )
    defaults.update(kw)
    return SweepConfig(**defaults)


def synthetic_rows(cps, totals):
    return [
        SweepRow(
            sample=i,
            cp=cp,
            criterion="sa-uct",
            n_updates=10,
            direction="forward",
            seed=i,
            ops_total=t,
            ops_mul=t - 1,
            ops_add=1,
            scheme="x,y",
        )
        for i, (cp, t) in enumerate(zip(cps, totals))
    ]


def csv_bytes(rows) -> str:
    buf = io.StringIO()
    write_csv(rows, buf)
    return buf.getvalue()


class TestRunSweep:
    def test_single_sample(self):
        e = parse(WORKED)
        rows = run_sweep(e, small_config(samples=1))
        assert len(rows) == 1
        assert rows[0].sample == 0
        assert rows[0].ops_total == rows[0].ops_mul + rows[0].ops_add

    def test_deterministic_and_byte_identical(self):
        e = parse(WORKED)
        cfg = small_config()
        a = csv_bytes(run_sweep(e, cfg))
        b = csv_bytes(run_sweep(e, cfg))
        assert a == b

    def test_parallel_matches_sequential(self):
        e = parse(WORKED)
        cfg = small_config(samples=8)
        assert run_sweep(e, cfg, jobs=2) == run_sweep(e, cfg, jobs=1)

    @pytest.mark.parametrize(
        "cp_min, cp_max, samples, points",
        [
            (0.01, 10.0, 4000, 31),
            (1e-3, 1e3, 4000, 61),
            (1e-3, 1e3, 61, 61),
            (0.01, 10.0, 7, 7),
            (0.5, 0.6, 9, 2),
            (1e-300, 1e300, 5, 5),
        ],
        ids=["three-decades", "six-decades", "six-decades-61-samples", "7-samples", "under-a-tenth", "600-decades"],
    )
    def test_cp_grid_is_log_spaced_from_cp_min_to_cp_max(self, cp_min, cp_max, samples, points):
        # One point more than the range's tenths of a decade, rounded up, or
        # samples points if that is fewer.
        cps = cp_grid(small_config(cp_min=cp_min, cp_max=cp_max, samples=samples))
        assert len(cps) == points
        assert cps[0] == cp_min and cps[-1] == cp_max
        step = (math.log(cp_max) - math.log(cp_min)) / (points - 1)
        assert [math.log(b / a) for a, b in zip(cps, cps[1:])] == pytest.approx([step] * (points - 1))

    def test_one_sample_runs_at_cp_min(self):
        assert cp_grid(small_config(samples=1)) == [0.01]

    @pytest.mark.parametrize("direction", list(Direction), ids=lambda d: d.value)
    @pytest.mark.parametrize("criterion", list(Criterion), ids=lambda c: c.value)
    @pytest.mark.parametrize("samples", [40, 62])
    def test_run_k_uses_point_k_mod_g_and_seed_base_plus_k(self, samples, criterion, direction):
        e = parse(WORKED)
        cfg = small_config(samples=samples, n_updates=5, criterion=criterion, direction=direction)
        rows = run_sweep(e, cfg, jobs=2)
        assert rows == run_sweep(e, cfg, jobs=1)
        cps = cp_grid(cfg)
        assert len(cps) == 31
        assert [(r.sample, r.cp, r.seed) for r in rows] == [(k, cps[k % 31], 7 + k) for k in range(samples)]
        assert {(r.criterion, r.direction) for r in rows} == {(criterion.value, direction.value)}
        # Each point holds floor or ceil of samples / G rows.
        per_point = [sum(r.cp == cp for r in rows) for cp in cps]
        assert set(per_point) == {samples // 31, -(-samples // 31)}

    @pytest.mark.parametrize("direction", list(Direction), ids=lambda d: d.value)
    def test_uct_and_sa_uct_sweeps_pair_row_for_row(self, direction):
        # Paired comparisons of the two criteria match run k of one sweep
        # with run k of the other: same sample, cp and seed.
        e = resultant_expr(3, 2)
        uct, sa_uct = (
            run_sweep(e, small_config(samples=40, n_updates=10, criterion=c, direction=direction)) for c in Criterion
        )
        assert [(r.sample, r.cp, r.seed) for r in uct] == [(r.sample, r.cp, r.seed) for r in sa_uct]
        assert len(uct) == 40

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_each_row_reruns_from_its_own_fields(self, jobs):
        # 31 points x 2 rows of res(3,2): each row is run_row of the
        # parameters that it records, with no grid or config.
        e = resultant_expr(3, 2)
        rows = run_sweep(e, small_config(samples=62, n_updates=20, criterion=Criterion.UCT), jobs=jobs)
        assert len({r.cp for r in rows}) == 31
        scorer = DeltaScorer(e)
        for row in rows:
            params = SearchParams(row.cp, row.n_updates, Criterion(row.criterion), Direction(row.direction), row.seed)
            assert run_row(e, params, row.sample, scorer) == row

    def test_each_row_seed_offsets_base(self):
        e = parse(WORKED)
        rows = run_sweep(e, small_config(samples=3, base_seed=50))
        assert [r.seed for r in rows] == [50, 51, 52]

    def test_brute_force_lower_bounds_sweep(self):
        e = random_expr(RandomExprParams(n_vars=4, n_terms=10, max_exponent=3, coeff_range=5, seed=3))
        bf = brute_force_search(e).best_delta.total
        rows = run_sweep(e, small_config(samples=10, n_updates=30))
        assert all(r.ops_total >= bf for r in rows)

    def test_invalid_config(self):
        with pytest.raises(ValueError, match="^need finite 0 < cp_min <= cp_max$"):
            small_config(cp_min=2.0, cp_max=1.0)
        with pytest.raises(ValueError):
            small_config(samples=0)

    def test_zero_n_updates_is_rejected(self):
        with pytest.raises(ValueError, match="^n_updates must be >= 1$"):
            small_config(n_updates=0)

    def test_negative_base_seed_is_rejected(self):
        with pytest.raises(ValueError, match="^base_seed must be >= 0$"):
            small_config(base_seed=-1)

    @pytest.mark.parametrize(
        "field,value", [("samples", 2.0), ("n_updates", 2.5), ("base_seed", 1.5), ("base_seed", True), ("samples", True)]
    )
    def test_non_integer_setting_is_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            small_config(**{field: value})

    def test_numpy_integer_seed_rows_read_back(self):
        # A row's seed is a plain int, so its CSV cell reads back.
        config = small_config(samples=np.int64(2), n_updates=np.int32(5), base_seed=np.int64(1))
        assert {type(config.samples), type(config.n_updates), type(config.base_seed)} == {int}
        rows = run_sweep(parse(WORKED), config)
        out = io.StringIO()
        write_csv(rows, out)
        assert read_csv(io.StringIO(out.getvalue())) == rows

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_is_rejected(self, jobs):
        with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
            run_sweep(parse(WORKED), small_config(samples=1), jobs=jobs)


class TestOnePointSweep:
    """cp_min == cp_max: the grid is one point, and a sweep of R samples is
    the best of R runs at that C_p."""

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("direction", list(Direction), ids=lambda d: d.value)
    @pytest.mark.parametrize("criterion", list(Criterion), ids=lambda c: c.value)
    def test_rows_equal_separate_searches(self, criterion, direction, jobs):
        e = five_var_expr(seed=3)
        cfg = SweepConfig(0.5, 0.5, 5, 30, direction=direction, criterion=criterion, base_seed=100)
        rows = run_sweep(e, cfg, jobs=jobs)
        singles = [
            search(e, SearchParams(cp=0.5, n_updates=30, criterion=criterion, direction=direction, seed=100 + k))
            for k in range(5)
        ]
        assert [(r.sample, r.cp, r.seed, r.criterion, r.direction) for r in rows] == [
            (k, 0.5, 100 + k, criterion.value, direction.value) for k in range(5)
        ]
        want = [
            (s.best_delta.mul, s.best_delta.add, order_to_string(s.best_scheme.order, e.atoms)) for s in singles
        ]
        assert [(r.ops_mul, r.ops_add, r.scheme) for r in rows] == want
        # The runs differ, so rows from one seed, or out of order, would fail.
        assert len(set(want)) > 1

    def test_reaches_brute_force_optimum_on_five_vars(self):
        e = five_var_expr(seed=4)
        rows = run_sweep(e, SweepConfig(1.0, 1.0, 10, 500))
        assert min(r.ops_total for r in rows) == brute_force_oracle(e)

    @pytest.mark.parametrize("samples", [1, 2, 7, 4000])
    def test_grid_is_the_one_point(self, samples):
        assert cp_grid(SweepConfig(0.3, 0.3, samples, 5)) == [0.3]

    def test_analyze_reports_one_point_of_width_zero(self):
        rows = run_sweep(parse(WORKED), SweepConfig(0.3, 0.3, 4, 5))
        rep = analyze_rows(rows)
        assert (rep["samples"], rep["points"], rep["cp_min"], rep["cp_max"]) == (4, 1, 0.3, 0.3)
        assert rep["roi_log_width"] == 0.0
        assert rep["roi_cp_interval"] == [0.3, 0.3]


def random_small(seed):
    return random_expr(RandomExprParams(n_vars=4, n_terms=8, max_exponent=3, coeff_range=4, seed=seed))


def script_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(Path(opmin.__file__).resolve().parent.parent))


def run_script(code: str) -> str:
    """Stdout of *code* in a fresh interpreter; a hang fails after 60 s."""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=script_env()
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# Runs a jobs=2 sweep under the fork start method with run_row replaced,
# in the parent before the workers fork, by one that fails on sample 3.
FAILING_SAMPLE = """
import multiprocessing, os
multiprocessing.set_start_method("fork")
from opmin import sweep
from opmin.expr import parse
run = sweep.run_row
def fail(e, params, k, scorer):
    if k == 3:
        {failure}
    return run(e, params, k, scorer)
sweep.run_row = fail
config = sweep.SweepConfig(cp_min=0.01, cp_max=10.0, samples=8, n_updates=10)
try:
    sweep.run_sweep(parse({worked!r}), config, jobs=2)
except Exception as exc:
    print(type(exc).__name__, exc)
"""


class ItemsCountingDict(dict):
    """A dict that counts its ``items()`` calls in this process."""

    items_calls = 0

    def items(self):
        self.items_calls += 1
        return super().items()


def check_workers_start_from_the_callers_cache():
    """A jobs=2 sweep from a preloaded cache gives the jobs=1 rows and cache."""
    e = resultant_expr(3, 2)
    cfg = small_config(samples=6, n_updates=30)
    scorer = DeltaScorer(e)
    run_sweep(e, cfg, jobs=1, scorer=scorer)
    # Counts raised by 100 for every order and trace this sweep scores. A
    # worker that did not start from them would score those orders itself
    # and steer its searches differently.
    marked = {key: (mul + 100, add) for key, (mul, add) in scorer.cache.items()}
    rows, caches = [], []
    for jobs in (1, 2):
        scorer = DeltaScorer(e)
        scorer.cache.update(marked)
        rows.append(run_sweep(e, cfg, jobs=jobs, scorer=scorer))
        caches.append(scorer.cache)
    assert rows[1] == rows[0]
    assert caches[1] == caches[0]


class TestSharedCache:
    @pytest.mark.parametrize(
        "make",
        [lambda: parse(WORKED), lambda: resultant_expr(3, 2), *(lambda s=s: random_small(s) for s in (1, 2, 3))],
        ids=["worked", "res32", "random1", "random2", "random3"],
    )
    def test_jobs_two_leaves_the_sequential_rows_and_cache(self, make):
        e = make()
        cfg = small_config(samples=10, n_updates=40)
        one, two = DeltaScorer(e), DeltaScorer(e)
        assert run_sweep(e, cfg, jobs=2, scorer=two) == run_sweep(e, cfg, jobs=1, scorer=one)
        assert two.cache == one.cache

    def test_jobs_two_relays_the_trace_counts(self):
        # The cache also maps decision traces (bytes) to counts; workers
        # send theirs back like order entries.
        e = resultant_expr(3, 2)
        cfg = small_config(samples=16, n_updates=40)
        traces = []
        for jobs in (1, 2):
            scorer = DeltaScorer(e)
            run_sweep(e, cfg, jobs=jobs, scorer=scorer)
            traces.append({key: counts for key, counts in scorer.cache.items() if isinstance(key, bytes)})
        assert traces[1] == traces[0]
        assert traces[0]

    def test_more_workers_than_cores_lose_no_entry(self):
        e = resultant_expr(3, 2)
        cfg = small_config(samples=24, n_updates=40)
        one, four = DeltaScorer(e), DeltaScorer(e)
        assert run_sweep(e, cfg, jobs=4, scorer=four) == run_sweep(e, cfg, jobs=1, scorer=one)
        assert four.cache == one.cache

    def test_workers_are_sent_the_callers_cache(self):
        check_workers_start_from_the_callers_cache()

    def test_spawned_workers_are_sent_the_callers_cache(self):
        code = """
import multiprocessing, sys
multiprocessing.set_start_method("spawn")
sys.path.insert(0, {tests!r})
from test_sweep import check_workers_start_from_the_callers_cache
check_workers_start_from_the_callers_cache()
print("ok")
"""
        assert run_script(code.format(tests=str(Path(__file__).resolve().parent))) == "ok\n"

    def test_parent_does_not_copy_the_callers_cache(self):
        e = resultant_expr(3, 2)
        cfg = small_config(samples=6, n_updates=30)
        scorer = DeltaScorer(e)
        want = run_sweep(e, cfg, jobs=1, scorer=scorer)
        counting = DeltaScorer(e)
        counting.cache = ItemsCountingDict(scorer.cache)
        assert run_sweep(e, cfg, jobs=2, scorer=counting) == want
        assert counting.cache.items_calls == 0

    @pytest.mark.parametrize("jobs, samples, started", [(4, 2, 2), (8, 1, 0), (2, 5, 2)])
    def test_starts_at_most_samples_workers(self, monkeypatch, jobs, samples, started):
        starts = []
        start = multiprocessing.process.BaseProcess.start

        def counted(proc):
            starts.append(proc)
            start(proc)

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counted)
        e = parse(WORKED)
        cfg = small_config(samples=samples, n_updates=10)
        assert run_sweep(e, cfg, jobs=jobs) == run_sweep(e, cfg, jobs=1)
        assert len(starts) == started

    def test_worker_that_dies_raises_runtime_error(self):
        out = run_script(FAILING_SAMPLE.format(failure="os._exit(1)", worked=WORKED))
        assert out == "RuntimeError sweep worker exited with code 1\n"

    def test_worker_exception_is_reraised_with_its_type(self):
        failure = 'raise ZeroDivisionError("sample 3")'
        out = run_script(FAILING_SAMPLE.format(failure=failure, worked=WORKED))
        assert out == "ZeroDivisionError sample 3\n"

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states from /proc")
    def test_workers_exit_when_the_parent_is_killed(self, tmp_path):
        code = f"""
import multiprocessing, os, time
multiprocessing.set_start_method("fork")
from opmin import sweep
from opmin.expr import parse
run = sweep.run_row
def announce(e, params, k, scorer):
    if k < 2:
        os.write(1, f"{{os.getpid()}}\\n".encode())
        time.sleep(0.5)
    return run(e, params, k, scorer)
sweep.run_row = announce
config = sweep.SweepConfig(cp_min=0.01, cp_max=10.0, samples=10000, n_updates=10)
sweep.run_sweep(parse({WORKED!r}), config, jobs=2)
"""
        stderr = tmp_path / "stderr.txt"
        with open(stderr, "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-c", code], stdout=subprocess.PIPE, stderr=err, bufsize=0, env=script_env()
            )
        pids = []
        try:
            for _ in range(2):
                assert select.select([proc.stdout], [], [], 60)[0], "no worker started"
                pids.append(int(proc.stdout.readline()))
        finally:
            proc.kill()
            proc.wait(timeout=60)
            proc.stdout.close()

        def running(pid):
            try:
                state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
            except FileNotFoundError:
                return False
            return state != "Z"

        deadline = time.monotonic() + 30
        while any(map(running, pids)) and time.monotonic() < deadline:
            time.sleep(0.1)
        left = [pid for pid in pids if running(pid)]
        for pid in left:
            os.kill(pid, signal.SIGKILL)
        assert left == []
        assert "Traceback" not in stderr.read_text()

    def test_spawn_start_method_gives_sequential_rows(self):
        code = f"""
import multiprocessing
multiprocessing.set_start_method("spawn")
from opmin.expr import parse
from opmin.sweep import SweepConfig, run_sweep
e = parse({WORKED!r})
config = SweepConfig(cp_min=0.01, cp_max=10.0, samples=6, n_updates=20, base_seed=4)
print(run_sweep(e, config, jobs=2) == run_sweep(e, config, jobs=1))
"""
        assert run_script(code) == "True\n"


class TestCsv:
    def test_header_schema(self):
        assert CSV_HEADER == [
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
        e = parse(WORKED)
        text = csv_bytes(run_sweep(e, small_config(samples=1)))
        assert text.splitlines()[0] == ",".join(CSV_HEADER)

    def test_round_trip(self):
        e = parse(WORKED)
        rows = run_sweep(e, small_config(samples=4))
        back = read_csv(io.StringIO(csv_bytes(rows)))
        assert back == rows

    def test_write_csv_bytes_are_pinned(self):
        rows = [
            SweepRow(0, 0.1 + 0.2, "sa-uct", 20, "forward", 7, 12, 8, 4, "x,y"),
            SweepRow(1, 1e-05, "uct", 20, "backward", 8, 9, 5, 4, "y"),
            SweepRow(2, 1e16, "uct", 20, "forward", 9, 10, 6, 4, "x"),
            SweepRow(3, 10.0, "sa-uct", 20, "forward", 10, 11, 7, 4, "y,x"),
        ]
        text = csv_bytes(rows)
        assert text == (
            "sample,cp,criterion,n_updates,direction,seed,ops_total,ops_mul,ops_add,scheme\n"
            '0,0.30000000000000004,sa-uct,20,forward,7,12,8,4,"x,y"\n'
            "1,1e-05,uct,20,backward,8,9,5,4,y\n"
            "2,1e+16,uct,20,forward,9,10,6,4,x\n"
            '3,10.0,sa-uct,20,forward,10,11,7,4,"y,x"\n'
        )
        assert read_csv(io.StringIO(text)) == rows

    def test_dot_decimal_separator(self):
        rows = synthetic_rows([0.25], [10])
        assert "0.25" in csv_bytes(rows)

    def test_rejects_foreign_header(self):
        with pytest.raises(ValueError, match="header"):
            read_csv(io.StringIO("a,b,c\n1,2,3\n"))

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1,0.7,uct", "line 3: 3 fields, expected 10"),
            ('1,0.7,uct,5,forward,1,9,5,4,"x,y",extra', "line 3: 11 fields, expected 10"),
            ('1,0.7,uct,five,forward,1,9,5,4,"x,y"', "line 3: invalid literal"),
            ('1,nan,uct,5,forward,1,9,5,4,"x,y"', "line 3: cp must be positive and finite, got nan"),
            ('1,inf,uct,5,forward,1,9,5,4,"x,y"', "line 3: cp must be positive and finite, got inf"),
            ('1,-0.5,uct,5,forward,1,9,5,4,"x,y"', "line 3: cp must be positive and finite"),
            ('1,0,uct,5,forward,1,9,5,4,"x,y"', "line 3: cp must be positive and finite"),
            ('1,0.7,uct,5,forward,1,-5,5,4,"x,y"', "line 3: ops_total must be >= 0, got -5"),
            ('1,0.7,uct,5,forward,1,10,5,4,"x,y"', "line 3: ops_total 10 is not ops_mul plus ops_add"),
            (
                '1,0.7,banana,5,forward,1,9,5,4,"x,y"',
                "line 3: criterion must be one of uct, sa-uct, got banana",
            ),
            (
                '1,0.7,uct,5,sideways,1,9,5,4,"x,y"',
                "line 3: direction must be one of forward, backward, got sideways",
            ),
            ('-4,0.7,uct,5,forward,1,9,5,4,"x,y"', "line 3: sample must be >= 0, got -4"),
            ('1,0.7,uct,5,forward,-3,9,5,4,"x,y"', "line 3: seed must be >= 0, got -3"),
            ('1,0.7,uct,0,forward,1,9,5,4,"x,y"', "line 3: n_updates must be >= 1, got 0"),
            ('0,0.7,uct,5,forward,1,9,5,4,"x,y"', "line 3: sample 0 is already on line 2"),
        ],
        ids=[
            "short-row",
            "long-row",
            "bad-int",
            "nan-cp",
            "inf-cp",
            "negative-cp",
            "zero-cp",
            "negative-count",
            "total-not-sum",
            "unknown-criterion",
            "unknown-direction",
            "negative-sample",
            "negative-seed",
            "zero-updates",
            "repeated-sample",
        ],
    )
    def test_rejects_malformed_row_naming_its_line(self, row, message):
        good = '0,0.5,uct,5,forward,0,9,5,4,"x,y"'
        text = "\n".join([",".join(CSV_HEADER), good, row]) + "\n"
        with pytest.raises(ValueError, match=f"^sweep CSV {message}"):
            read_csv(io.StringIO(text))


class TestRoi:
    def test_all_identical_ops_spans_full_range(self):
        cps = [10 ** (-2 + 3 * i / 199) for i in range(200)]
        rows = synthetic_rows(cps, [42] * 200)
        full = math.log(cps[-1]) - math.log(cps[0])
        assert analyze_rows(rows, 0.05)["roi_log_width"] == pytest.approx(full)

    @pytest.mark.parametrize(
        "logs, good, ends",
        [
            # An interior point's cell reaches halfway to each neighbour:
            # one spacing on an even grid.
            ([0, 1, 2, 3, 4], 2, (1.5, 2.5)),
            # An end point's cell stops at the point: half a spacing.
            ([0, 1, 2, 3, 4], 0, (0.0, 0.5)),
            ([0, 1, 2, 3, 4], 4, (3.5, 4.0)),
            # On an uneven grid, half of each neighbouring gap.
            ([0, 1, 3, 4], 2, (2.0, 3.5)),
        ],
        ids=["interior", "first", "last", "uneven"],
    )
    def test_single_good_point(self, logs, good, ends):
        # Two rows per point; only one row, at one point, is within 5% of
        # the minimum, and that row makes its point good.
        cps = [math.exp(lg) for lg in logs for _ in range(2)]
        totals = [100] * len(cps)
        totals[2 * good + 1] = 50
        rep = analyze_rows(synthetic_rows(cps, totals), 0.05)
        assert rep["points"] == len(logs)
        assert rep["roi_log_width"] == pytest.approx(ends[1] - ends[0])
        assert [math.log(c) for c in rep["roi_cp_interval"]] == pytest.approx(list(ends))

    def test_monotone_in_epsilon(self):
        rng = np.random.default_rng(0)
        cps = [float(c) for c in np.exp(rng.uniform(-3, 2, 300))]
        totals = [int(t) for t in rng.integers(50, 120, 300)]
        rows = synthetic_rows(cps, totals)
        widths = [analyze_rows(rows, eps)["roi_log_width"] for eps in (0.0, 0.01, 0.05, 0.1, 0.5, 1.0)]
        assert all(a <= b for a, b in zip(widths, widths[1:]))

    def test_contiguity_matters(self):
        # Points at log cp 0..10; good runs 0..3 and 7..10, bad in the
        # middle. Each run is 3.5 log units wide, so the ROI is the first.
        cps = [math.exp(i) for i in range(11)]
        totals = [50] * 4 + [100] * 3 + [50] * 4
        rep = analyze_rows(synthetic_rows(cps, totals), 0.05)
        assert rep["roi_log_width"] == pytest.approx(3.5)
        assert rep["roi_cp_interval"][0] == 1.0
        assert math.log(rep["roi_cp_interval"][1]) == pytest.approx(3.5)

    def test_old_style_rows_one_per_cp_analyze(self):
        # A sweep that drew C_p at random has one row per point. Good points
        # at cp 0.3 and 7: the ROI runs from halfway between 0.02 and 0.3 to 7.
        lines = [
            ",".join(CSV_HEADER),
            "0,7.0,uct,10,forward,0,10,9,1,x",
            "1,0.02,uct,10,forward,1,50,49,1,x",
            "2,0.3,uct,10,forward,2,10,9,1,x",
        ]
        text = "\n".join(lines) + "\n"
        rep = analyze_rows(read_csv(io.StringIO(text)), 0.05)
        assert rep["points"] == 3
        assert rep["roi_cp_interval"][0] == pytest.approx(math.sqrt(0.02 * 0.3))
        assert rep["roi_cp_interval"][1] == 7.0
        assert rep["roi_log_width"] == pytest.approx(math.log(7.0) - (math.log(0.02) + math.log(0.3)) / 2)

    def test_csv_round_trip_keeps_the_report(self):
        e = parse(WORKED)
        rows = run_sweep(e, small_config(samples=40, n_updates=5))
        assert analyze_rows(read_csv(io.StringIO(csv_bytes(rows)))) == analyze_rows(rows)

    def test_requires_rows_and_nonnegative_epsilon(self):
        with pytest.raises(ValueError, match="^no sweep rows$"):
            analyze_rows([], 0.05)
        with pytest.raises(ValueError, match="^epsilon must be nonnegative and finite$"):
            analyze_rows(synthetic_rows([1.0], [5]), -0.05)

    @pytest.mark.parametrize(
        "cps, totals, interval",
        [
            # Only cp 2.0 holds the minimum: the last point's half cell.
            ([1.0, 2.0], [5, 3], [math.sqrt(2.0), 2.0]),
            # cp 1.0 and 4.0 hold it, runs of one point each: the first.
            ([1.0, 2.0, 4.0], [3, 4, 3], [1.0, math.sqrt(2.0)]),
            # Past 2**53, (1 + epsilon) * minimum as a float rounds below
            # the minimum, which then would make no point good.
            ([1.0, 2.0], [2**53 + 3, 2**53 + 1], [math.sqrt(2.0), 2.0]),
        ],
        ids=["last-point", "first-of-two-runs", "past-2**53"],
    )
    def test_zero_epsilon_counts_only_the_minimum(self, cps, totals, interval):
        rep = analyze_rows(synthetic_rows(cps, totals), 0.0)
        assert rep["epsilon"] == 0.0
        assert rep["roi_cp_interval"] == pytest.approx(interval)
        assert rep["roi_log_width"] == pytest.approx(0.5 * math.log(2.0))

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf])
    def test_requires_finite_epsilon(self, epsilon):
        with pytest.raises(ValueError, match="epsilon must be nonnegative and finite"):
            analyze_rows(synthetic_rows([1.0, 2.0], [5, 3]), epsilon)

    def test_degenerate_range(self):
        # One point: its cell is the point itself.
        rep = analyze_rows(synthetic_rows([1.0, 1.0], [5, 3]))
        assert rep["points"] == 1
        assert rep["global_min_ops"] == 3
        assert rep["roi_log_width"] == 0.0
        assert rep["roi_cp_interval"] == [1.0, 1.0]

    def test_analyze_report(self):
        cps = [math.exp(i / 49 * 5.0) for i in range(50)]
        rows = synthetic_rows(cps, [7] * 50)
        rep = analyze_rows(rows, epsilon=0.05)
        assert rep["global_min_ops"] == 7
        assert rep["samples"] == 50
        assert rep["roi_log_width"] == pytest.approx(5.0)
        assert rep["roi_cp_interval"][0] == pytest.approx(1.0)


def fixed_sweep_csv() -> str:
    """62 rows, two per point of a 31-point grid over [0.01, 10], as a sweep
    writes them: a dip to 48 at points 10-12 on one row each, and a wider
    band of points 18-22 at 50.
    """
    lines = [",".join(CSV_HEADER)]
    for i in range(62):
        pos = i % 31
        cp = 10 ** (-2 + pos / 10)
        total = 48 if 10 <= pos <= 12 and i < 31 else 50 + abs(pos - 20) // 3
        lines.append(f'{i},{cp!r},sa-uct,25,forward,{i},{total},{total - 9},9,"x,y"')
    return "\n".join(lines) + "\n"


ANALYZE_JSON = """{
  "samples": 62,
  "cp_min": 0.01,
  "cp_max": 10.0,
  "global_min_ops": 48,
  "epsilon": 0.05,
  "points": 31,
  "roi_log_width": 1.151292546497023,
  "roi_cp_interval": [
    0.5623413251903491,
    1.7782794100389228
  ]
}
"""

ANALYZE_CSV = """key,value
samples,62
cp_min,0.01
cp_max,10.0
global_min_ops,48
epsilon,0.05
points,31
roi_log_width,1.151292546497023
roi_cp_interval,"[0.5623413251903491, 1.7782794100389228]"
"""


@pytest.mark.parametrize("fmt, want", [("json", ANALYZE_JSON), ("csv", ANALYZE_CSV)], ids=["json", "csv"])
def test_analyze_output_is_pinned(tmp_path, capsys, fmt, want):
    path = tmp_path / "sweep.csv"
    path.write_text(fixed_sweep_csv())
    assert main(["analyze", str(path), "--format", fmt]) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize(
    "text, interval",
    [
        (fixed_sweep_csv(), [0.5623413251903491, 1.7782794100389228]),
        (",".join(CSV_HEADER) + '\n0,0.5,sa-uct,25,forward,0,48,39,9,"x,y"\n', [0.5, 0.5]),
    ],
    ids=["interval", "one-sample"],
)
def test_analyze_csv_cells_are_the_json_values(tmp_path, capsys, text, interval):
    path = tmp_path / "sweep.csv"
    path.write_text(text)
    assert main(["analyze", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert main(["analyze", str(path), "--format", "csv"]) == 0
    header, *recs = csv.reader(io.StringIO(capsys.readouterr().out))
    assert header == ["key", "value"]
    assert all(len(rec) == 2 for rec in recs)
    assert [key for key, _ in recs] == list(report)
    for key, cell in recs:
        assert json.loads(cell) == report[key]
    assert report["roi_cp_interval"] == interval
