import io
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
from opmin.horner import Direction
from opmin.mcts import Schedule, SearchParams, brute_force_search, search
from opmin.sweep import (
    CSV_HEADER,
    SweepConfig,
    SweepRow,
    analyze_rows,
    per_bin_minima,
    read_csv,
    run_sweep,
    sample_cps,
    write_csv,
)
from opmin.benchgen import RandomExprParams, random_expr, resultant_expr
from opmin.cli import main

from test_expr import WORKED


def small_config(**kw):
    defaults = dict(
        cp_min=0.01,
        cp_max=10.0,
        samples=12,
        n_updates=25,
        direction=Direction.FORWARD,
        schedule=Schedule.linear(),
        base_seed=7,
    )
    defaults.update(kw)
    return SweepConfig(**defaults)


def synthetic_rows(cps, totals):
    return [
        SweepRow(
            sample_index=i,
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
        assert rows[0].sample_index == 0
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

    def test_cp_values_are_log_uniform_in_range(self):
        cfg = small_config(samples=400)
        cps = sample_cps(cfg)
        assert all(cfg.cp_min <= c <= cfg.cp_max for c in cps)
        logs = sorted(math.log(c) for c in cps)
        # spread across the log range rather than bunched at one end
        assert logs[len(logs) // 2] == pytest.approx(
            (math.log(cfg.cp_min) + math.log(cfg.cp_max)) / 2, abs=1.0
        )

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
        with pytest.raises(ValueError):
            small_config(cp_min=2.0, cp_max=1.0)
        with pytest.raises(ValueError):
            small_config(samples=0)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_is_rejected(self, jobs):
        with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
            run_sweep(parse(WORKED), small_config(samples=1), jobs=jobs)


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


# Runs a jobs=2 sweep under the fork start method with _run_sample replaced,
# in the parent before the workers fork, by one that fails on sample 3.
FAILING_SAMPLE = """
import multiprocessing, os
multiprocessing.set_start_method("fork")
from opmin import sweep
from opmin.expr import parse
run = sweep._run_sample
def fail(e, config, k, cp, scorer):
    if k == 3:
        {failure}
    return run(e, config, k, cp, scorer)
sweep._run_sample = fail
config = sweep.SweepConfig(cp_min=0.01, cp_max=10.0, samples=8, n_updates=10)
try:
    sweep.run_sweep(parse({worked!r}), config, jobs=2)
except Exception as exc:
    print(type(exc).__name__, exc)
"""


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

    def test_more_workers_than_cores_lose_no_entry(self):
        e = resultant_expr(3, 2)
        cfg = small_config(samples=24, n_updates=40)
        one, four = DeltaScorer(e), DeltaScorer(e)
        assert run_sweep(e, cfg, jobs=4, scorer=four) == run_sweep(e, cfg, jobs=1, scorer=one)
        assert four.cache == one.cache

    def test_workers_are_sent_the_callers_cache(self):
        e = resultant_expr(3, 2)
        cfg = small_config(samples=6, n_updates=30)
        scorer = DeltaScorer(e)
        run_sweep(e, cfg, jobs=1, scorer=scorer)
        # Counts raised by 100 for every order this sweep scores. A worker
        # that was not sent them would score those orders itself and steer
        # its searches differently.
        marked = {order: (mul + 100, add) for order, (mul, add) in scorer.cache.items()}
        rows, caches = [], []
        for jobs in (1, 2):
            scorer = DeltaScorer(e)
            scorer.cache.update(marked)
            rows.append(run_sweep(e, cfg, jobs=jobs, scorer=scorer))
            caches.append(scorer.cache)
        assert rows[1] == rows[0]
        assert caches[1] == caches[0]

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
    def test_workers_exit_when_the_parent_is_killed(self):
        code = f"""
import multiprocessing, os, time
multiprocessing.set_start_method("fork")
from opmin import sweep
from opmin.expr import parse
run = sweep._run_sample
def announce(e, config, k, cp, scorer):
    if k < 2:
        print(os.getpid(), flush=True)
        time.sleep(0.5)
    return run(e, config, k, cp, scorer)
sweep._run_sample = announce
config = sweep.SweepConfig(cp_min=0.01, cp_max=10.0, samples=10000, n_updates=10)
sweep.run_sweep(parse({WORKED!r}), config, jobs=2)
"""
        proc = subprocess.Popen(
            [sys.executable, "-c", code], stdout=subprocess.PIPE, bufsize=0, env=script_env()
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
        ],
        ids=["short-row", "long-row", "bad-int", "nan-cp", "inf-cp", "negative-cp", "zero-cp"],
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

    def test_single_good_bin(self):
        # 50 samples, one per bin; only one bin within 5% of the minimum
        cps = [math.exp(i / 49 * 5.0) for i in range(50)]
        totals = [100] * 50
        totals[20] = 50
        rows = synthetic_rows(cps, totals)
        width = 5.0 / 50
        assert analyze_rows(rows, 0.05)["roi_log_width"] == pytest.approx(width)
        lo, hi = analyze_rows(rows, 0.05)["roi_cp_interval"]
        assert math.log(lo) == pytest.approx(20 * width)
        assert math.log(hi) == pytest.approx(21 * width)

    def test_monotone_in_epsilon(self):
        rng = np.random.default_rng(0)
        cps = [float(c) for c in np.exp(rng.uniform(-3, 2, 300))]
        totals = [int(t) for t in rng.integers(50, 120, 300)]
        rows = synthetic_rows(cps, totals)
        widths = [analyze_rows(rows, eps)["roi_log_width"] for eps in (0.01, 0.05, 0.1, 0.5, 1.0)]
        assert all(a <= b for a, b in zip(widths, widths[1:]))

    def test_contiguity_matters(self):
        # good bins at both ends, bad in the middle: width is one end only
        cps = [math.exp(i / 49 * 10.0) for i in range(50)]
        totals = [100] * 50
        for i in range(0, 10):
            totals[i] = 50
        for i in range(40, 50):
            totals[i] = 50
        rows = synthetic_rows(cps, totals)
        assert analyze_rows(rows, 0.05)["roi_log_width"] == pytest.approx(10 * 10.0 / 50)

    def test_empty_bins_break_runs(self):
        rows = synthetic_rows([math.exp(0.0), math.exp(5.0)], [10, 10])
        # 48 interior bins are empty; longest good run is a single bin
        assert analyze_rows(rows, 0.05)["roi_log_width"] == pytest.approx(5.0 / 50)

    def test_requires_rows_and_positive_epsilon(self):
        with pytest.raises(ValueError):
            analyze_rows([], 0.05)
        with pytest.raises(ValueError):
            analyze_rows(synthetic_rows([1.0], [5]), 0.0)

    def test_interval_requires_positive_epsilon(self):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            analyze_rows(synthetic_rows([1.0, 2.0], [5, 3]), 0.0)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf])
    def test_requires_finite_epsilon(self, epsilon):
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            analyze_rows(synthetic_rows([1.0, 2.0], [5, 3]), epsilon)

    def test_per_bin_minima_degenerate_range(self):
        rows = synthetic_rows([1.0, 1.0], [5, 3])
        minima, lo, width = per_bin_minima(rows)
        assert width == 0.0
        assert minima[0] == 3

    def test_analyze_report(self):
        cps = [math.exp(i / 49 * 5.0) for i in range(50)]
        rows = synthetic_rows(cps, [7] * 50)
        rep = analyze_rows(rows, epsilon=0.05)
        assert rep["global_min_ops"] == 7
        assert rep["samples"] == 50
        assert rep["roi_log_width"] == pytest.approx(5.0)
        assert rep["roi_cp_interval"][0] == pytest.approx(1.0)


def fixed_sweep_csv() -> str:
    """120 rows over [0.01, 10]: a 4-sample dip to 48, a wider band near 50."""
    lines = [",".join(CSV_HEADER)]
    for i in range(120):
        pos = i * 37 % 120
        cp = 10 ** (-2 + 3 * pos / 119)
        total = 48 if 10 <= pos <= 13 else 50 + abs(pos - 70) // 6
        lines.append(f'{i},{cp!r},sa-uct,25,forward,{i},{total},{total - 9},9,"x,y"')
    return "\n".join(lines) + "\n"


ANALYZE_JSON = """{
  "samples": 120,
  "cp_min": 0.01,
  "cp_max": 10.0,
  "global_min_ops": 48,
  "epsilon": 0.05,
  "bins": 50,
  "bin_log_width": 0.13815510557964272,
  "roi_log_width": 0.6907755278982136,
  "roi_cp_interval": [
    0.4168693834703354,
    0.8317637711026709
  ]
}
"""

ANALYZE_CSV = """key,value
samples,120
cp_min,0.01
cp_max,10.0
global_min_ops,48
epsilon,0.05
bins,50
bin_log_width,0.13815510557964272
roi_log_width,0.6907755278982136
roi_cp_interval,[0.4168693834703354, 0.8317637711026709]
"""


@pytest.mark.parametrize("fmt, want", [("json", ANALYZE_JSON), ("csv", ANALYZE_CSV)])
def test_analyze_output_is_pinned(tmp_path, capsys, fmt, want):
    path = tmp_path / "sweep.csv"
    path.write_text(fixed_sweep_csv())
    assert main(["analyze", str(path), "--format", fmt]) == 0
    assert capsys.readouterr().out == want
