import io
import math

import numpy as np
import pytest

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
    roi_interval,
    roi_width,
    run_sweep,
    sample_cps,
    write_csv,
)
from opmin.benchgen import RandomExprParams, random_expr

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


class TestRoi:
    def test_all_identical_ops_spans_full_range(self):
        cps = [10 ** (-2 + 3 * i / 199) for i in range(200)]
        rows = synthetic_rows(cps, [42] * 200)
        full = math.log(cps[-1]) - math.log(cps[0])
        assert roi_width(rows, 0.05) == pytest.approx(full)

    def test_single_good_bin(self):
        # 50 samples, one per bin; only one bin within 5% of the minimum
        cps = [math.exp(i / 49 * 5.0) for i in range(50)]
        totals = [100] * 50
        totals[20] = 50
        rows = synthetic_rows(cps, totals)
        width = 5.0 / 50
        assert roi_width(rows, 0.05) == pytest.approx(width)
        lo, hi = roi_interval(rows, 0.05)
        assert math.log(lo) == pytest.approx(20 * width)
        assert math.log(hi) == pytest.approx(21 * width)

    def test_monotone_in_epsilon(self):
        rng = np.random.default_rng(0)
        cps = [float(c) for c in np.exp(rng.uniform(-3, 2, 300))]
        totals = [int(t) for t in rng.integers(50, 120, 300)]
        rows = synthetic_rows(cps, totals)
        widths = [roi_width(rows, eps) for eps in (0.01, 0.05, 0.1, 0.5, 1.0)]
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
        assert roi_width(rows, 0.05) == pytest.approx(10 * 10.0 / 50)

    def test_empty_bins_break_runs(self):
        rows = synthetic_rows([math.exp(0.0), math.exp(5.0)], [10, 10])
        # 48 interior bins are empty; longest good run is a single bin
        assert roi_width(rows, 0.05) == pytest.approx(5.0 / 50)

    def test_requires_rows_and_positive_epsilon(self):
        with pytest.raises(ValueError):
            roi_width([], 0.05)
        with pytest.raises(ValueError):
            roi_width(synthetic_rows([1.0], [5]), 0.0)

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
