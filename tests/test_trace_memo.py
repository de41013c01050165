"""``DeltaScorer.delta``'s trace keys: its cache also maps the Horner build's
decision trace (bytes) to the count of its arena.

The order reaches the build only through its decisions: the variable each
level of three or more terms splits on (or none), and the variables each
two-term level factors out. ``delta`` therefore scores an order whose
decision trace it has seen from the count of that trace's arena, without
running the elimination again. The build is a decision walk (``_plan``),
which gives the trace and the plan, and an interning pass (``_intern``),
which only a trace miss runs. These tests check that the memoized score
equals a fresh build, elimination and count; that equal traces give equal
plans and arenas; that the build itself is node for node what it was
before the trace was added; that the memo engages on the whole res(3,2)
landscape, where only a trace miss interns; that a memo filled with every
order is the landscape's table and its scorer, so searches, sweeps and the
brute-force minimum read it and walk no order; and that the garbage
collector tracks no entry of a plan.
"""

import gc
import hashlib
from itertools import permutations

import numpy as np
import pytest

from opmin.benchgen import preset_expr, resultant_expr
from opmin.cse import DeltaScorer, _Rewriter
from opmin.expr import AtomTable, Expression, Term, variables
from opmin.horner import Direction
from opmin.mcts import Criterion, SearchParams, brute_force_search, search
from opmin.sweep import SweepConfig, run_sweep

from test_expr import random_expression


def trace_keys(scorer):
    return [key for key in scorer.cache if isinstance(key, bytes)]


def fresh_delta(e, order):
    rw = DeltaScorer(e).build(order)
    rw.run()
    return rw.live_op_count()


def count_calls(monkeypatch, cls, name):
    """A one-item list that counts the calls of the method ``cls.name``."""
    calls = [0]
    method = getattr(cls, name)

    def counted(self, *args):
        calls[0] += 1
        return method(self, *args)

    monkeypatch.setattr(cls, name, counted)
    return calls


@pytest.fixture
def eliminations(monkeypatch):
    """A one-item list that counts the calls of ``_Rewriter.run``."""
    return count_calls(monkeypatch, _Rewriter, "run")


def test_res32_landscape_is_pinned_and_scores_each_trace_once(eliminations):
    e = resultant_expr(3, 2)
    scorer = DeltaScorer(e)
    counts = [scorer.delta(order) for order in permutations(variables(e))]
    text = "".join(f"{mul},{add}\n" for mul, add in counts)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "f362488fe9deda2f46c82a61f7514e03f2d26331a3b58eb10d9f69fb58d94d52"
    totals = [mul + add for mul, add in counts]
    assert len(totals) == 5040
    assert min(totals) == 34
    assert totals.count(34) == 54
    # One elimination per distinct trace, and the 5040 orders have fewer
    # than a fifth as many.
    assert eliminations[0] == len(trace_keys(scorer)) == 828 < 5040 // 5
    assert len(scorer.cache) == 5040 + 828


def test_a_memo_of_every_order_is_the_table_and_its_scorer(monkeypatch):
    e = resultant_expr(3, 2)
    orders = list(permutations(variables(e)))
    cases = [
        SearchParams(cp=0.3, n_updates=100, criterion=criterion, direction=direction, seed=seed)
        for criterion in Criterion
        for direction in Direction
        for seed in range(25)
    ]
    config = SweepConfig(cp_min=0.01, cp_max=10.0, samples=8, n_updates=40)
    twins = [search(e, params) for params in cases]
    rows = run_sweep(e, config, jobs=1)
    memo = DeltaScorer(e)
    for order in orders:
        memo.delta(order)
    assert len(memo.cache) == 5040 + 828
    # With every order's count known, nothing is walked, interned or added.
    walks = count_calls(monkeypatch, DeltaScorer, "_plan")
    assert [search(e, params, scorer=memo) for params in cases] == twins
    assert run_sweep(e, config, jobs=2, scorer=memo) == rows
    assert walks[0] == 0
    assert len(memo.cache) == 5040 + 828
    for direction in Direction:
        flip = direction is Direction.BACKWARD
        totals = {order: sum(memo.cache[order[::-1] if flip else order]) for order in orders}
        best = min(orders, key=totals.__getitem__)  # the lex-first argmin
        result = brute_force_search(e, direction)
        assert result.best_scheme.order == best
        assert result.best_delta.total == totals[best] == 34
        assert sum(total == 34 for total in totals.values()) == 54


def test_only_a_trace_miss_interns_an_arena(monkeypatch, eliminations):
    interns = count_calls(monkeypatch, DeltaScorer, "_intern")
    e = resultant_expr(3, 2)
    scorer = DeltaScorer(e)
    orders = list(permutations(variables(e)))
    for _ in range(2):
        for order in orders:
            scorer.delta(order)
        # An order whose trace was scored runs the decision walk only.
        assert interns[0] == eliminations[0] == len(trace_keys(scorer)) == 828


@pytest.mark.parametrize("e", [resultant_expr(3, 3), preset_expr("hep-like-15")], ids=["res33", "hep15"])
def test_no_plan_entry_is_tracked_by_the_collector(e):
    # A step or sub vector that held a list would stay tracked, and every
    # collection until the arena is interned would examine it again.
    vs = variables(e)
    rng = np.random.default_rng(23)
    for order in (vs, vs[::-1], tuple(int(a) for a in rng.permutation(vs))):
        _, (steps, subs) = DeltaScorer(e)._plan(order)
        gc.collect()
        assert len(steps) > 20 and len(subs) > 5
        assert not any(map(gc.is_tracked, steps + subs))


def test_memoized_delta_equals_a_fresh_pipeline_in_both_directions():
    rng = np.random.default_rng(2121)
    pairs = shared = 0
    for _ in range(100):
        e = random_expression(
            rng, n_vars=int(rng.integers(2, 6)), max_terms=int(rng.integers(3, 14)), max_exp=3
        )
        vs = variables(e)
        scorer = DeltaScorer(e)
        for _ in range(10):
            order = tuple(int(a) for a in rng.permutation(vs))
            for effective in (order, order[::-1]):
                assert scorer.delta(effective) == fresh_delta(e, effective)
                pairs += 1
        traces = len(trace_keys(scorer))
        orders = len(scorer.cache) - traces
        shared += orders - traces
    assert pairs == 2000
    # Some orders were scored from another order's arena.
    assert shared > 0


def test_equal_traces_give_equal_arenas():
    rng = np.random.default_rng(77)
    groups_checked = 0
    for _ in range(60):
        e = random_expression(rng, n_vars=int(rng.integers(3, 7)), max_terms=int(rng.integers(3, 12)))
        scorer = DeltaScorer(e)
        seen = {}
        for order in permutations(variables(e)):
            trace, plan = scorer._plan(order)
            built = (plan, scorer._intern(plan))
            first = seen.setdefault(trace, built)
            if first is not built:
                # The plan is a function of the trace, the arena of the plan.
                assert built == first, order
                groups_checked += 1
    assert groups_checked > 1000


def wide_expression(n_vars):
    """Three terms over *n_vars* variables; the last two share the top two."""
    atoms = AtomTable()
    ids = [atoms.intern(f"x{i}") for i in range(n_vars)]
    hi, top = ids[-2], ids[-1]
    terms = [Term(1, tuple((a, 1) for a in ids)), Term(2, ((hi, 1), (top, 1))), Term(3, ((hi, 2), (top, 2)))]
    return Expression.from_terms(atoms, terms), hi, top


def test_trace_distinguishes_variables_past_sixteen_bits():
    # The split variable's position, 65535 or 65536, is a trace entry, and
    # so is the end marker 65537: a 16-bit entry would overflow. Only the
    # arenas are built: pair counting over the 65537-factor product would
    # not fit in memory.
    e, hi, top = wide_expression(65537)
    scorer = DeltaScorer(e)
    rest = tuple(variables(e)[:-2])
    trace_a, plan_a = scorer._plan((top, hi) + rest)
    trace_b, plan_b = scorer._plan((hi, top) + rest)
    assert trace_a != trace_b
    assert scorer._intern(plan_a) != scorer._intern(plan_b)
    assert scorer._plan((top, hi) + rest) == (trace_a, plan_a)


def test_wide_expression_scores_like_a_fresh_pipeline():
    e, hi, top = wide_expression(300)
    scorer = DeltaScorer(e)
    rest = tuple(variables(e)[:-2])
    for order in ((top, hi) + rest, (hi, top) + rest, rest + (top, hi)):
        assert scorer.delta(order) == fresh_delta(e, order)


def build_cases():
    """(expression, order) cases: random expressions and three workloads.

    Orders are full or prefixes, in either direction.
    """
    rng = np.random.default_rng(4242)
    exprs = [
        random_expression(rng, n_vars=int(rng.integers(1, 8)), max_terms=int(rng.integers(1, 15)))
        for _ in range(300)
    ]
    exprs += [resultant_expr(3, 2), resultant_expr(4, 3), preset_expr("hep-like-15")]
    for i, e in enumerate(exprs):
        vs = variables(e)
        for _ in range(3 if i < 300 else 40):
            order = tuple(int(a) for a in rng.permutation(vs))
            if rng.random() < 0.25:
                order = order[: int(rng.integers(0, len(order) + 1))]
            yield e, order[::-1] if rng.random() < 0.5 else order


def test_build_is_unchanged_node_for_node():
    # The digest was taken with the build before the trace was recorded.
    h = hashlib.sha256()
    n = 0
    for e, order in build_cases():
        rw = DeltaScorer(e).build(order)
        h.update(repr((rw.kinds, rw.args, rw.roots)).encode())
        n += 1
    assert n == 1020
    assert h.hexdigest() == "e673773d6c2308f1d08737021faa5436e5b75464b13b0c1ffc96c2204f971008"
