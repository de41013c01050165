"""Tests for the benchmark's own code: span arithmetic, percentiles, checks."""

from __future__ import annotations

import random
import time

import pytest

from program import PRIME, IterationClock, Workload, residues, run_plain, run_traced
from tracing import Span, Tracer, percentile, self_times

from opmin import DeltaScorer, RandomExprParams, random_expr, to_string


def test_self_time_subtracts_children_once():
    spans = [
        Span(0, None, 0, "sweep.run", 0, 100),
        Span(1, 0, 0, "mcts.search", 10, 40),
        Span(2, 0, 0, "mcts.search", 30, 60),  # overlaps the first child
        Span(3, 1, 0, "score.delta", 15, 25),  # grandchild: not the root's
        Span(4, 0, 0, "mcts.search", 90, 120),  # clipped to the parent's end
    ]
    got = self_times(spans)
    assert got[0] == 100 - 50 - 10
    assert got[1] == 30 - 10
    assert got[2] == 30
    assert got[3] == 10


def test_tracer_nests_spans_and_records_under_open_span():
    t = Tracer()
    with t.span("mcts.search") as outer:
        t.record("score.delta", outer.start, outer.start + 5, hit=True)
        with t.span("inner"):
            pass
    assert [s.parent for s in t.spans] == [None, outer.id, outer.id]
    assert t.spans[1].attrs == {"hit": True}
    assert all(s.end >= s.start for s in t.spans)


def test_percentile_interpolates_and_counts():
    assert percentile([], 50) == (None, 0)
    assert percentile([7.0], 95) == (7.0, 1)
    assert percentile([4, 1, 3, 2], 50) == (2.5, 4)
    value, n = percentile(range(101), 95)
    assert (value, n) == (95, 101)


def test_iteration_clock_splits_the_search_without_the_reference_loop():
    class Fixed:
        def delta(self, order):
            return (len(order), 0)

    clock = IterationClock(Fixed())
    start = time.perf_counter()
    for k in range(3):
        assert clock.delta((k,)) == (1, 0)
    end = time.perf_counter()
    spans = clock.intervals(start, end)
    assert len(spans) == len(clock.refs) == 3
    assert all(t >= 0 for t in spans) and all(r > 0 for r in clock.refs)
    assert sum(spans) == pytest.approx(end - start - clock.skipped)
    assert clock.skipped >= sum(clock.refs)


class OffByOneScorer(DeltaScorer):
    """Claims one multiplication more than the real count."""

    def delta(self, order):
        mul, add = super().delta(order)
        return mul + 1, add


def _tiny_input(seed=3):
    e = random_expr(RandomExprParams(n_vars=5, n_terms=12, max_exponent=2, coeff_range=5, seed=seed))
    rng = random.Random(seed)
    points = [{e.atoms.text(i): rng.randrange(1, PRIME) for i in range(len(e.atoms))}]
    return to_string(e), points, residues(e, points)


TINY = Workload(budget=6, replay=3)


@pytest.mark.parametrize("run", [run_plain, run_traced])
def test_correct_scorer_passes_every_check(run):
    text, points, expected = _tiny_input()
    out = run(TINY, text, 1, 0.01, points, expected)
    assert out["attempted"] >= 2
    assert out["failed"] == 0, out["record"]["failed_checks"]


@pytest.mark.parametrize("run", [run_plain, run_traced])
def test_off_by_one_scorer_raises_fail_rate(run):
    text, points, expected = _tiny_input()
    out = run(TINY, text, 1, 0.01, points, expected, scorer_factory=OffByOneScorer)
    assert out["failed"] / out["attempted"] > 0


def test_wrong_expected_residues_fail_the_parse_check():
    text, points, expected = _tiny_input()
    out = run_plain(TINY, text, 1, 0.01, points, [(expected[0] + 1) % PRIME])
    assert "parse residues" in out["record"]["failed_checks"]
