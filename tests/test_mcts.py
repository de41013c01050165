import math
from itertools import permutations

import numpy as np
import pytest

from opmin.expr import OpCount, naive_op_count, parse, variables
from opmin.horner import Direction, Scheme
from opmin import mcts
from opmin.cse import DeltaScorer, simplify
from opmin.mcts import (
    Node,
    Schedule,
    SearchParams,
    SearchResult,
    SearchState,
    best_child,
    brute_force_search,
    node_score,
    repeat_search,
    run_iteration,
    search,
    temperature,
)
from opmin.benchgen import RandomExprParams, random_expr

from test_expr import WORKED


def params(**kw):
    defaults = dict(cp=1.0, n_updates=100, repeats=1, seed=0)
    defaults.update(kw)
    return SearchParams(**defaults)


def five_var_expr(seed=7):
    return random_expr(RandomExprParams(n_vars=5, n_terms=12, max_exponent=3, coeff_range=5, seed=seed))


def brute_force_oracle(e, direction=Direction.FORWARD):
    """Independent exhaustive minimum via the public simplify pipeline."""
    best = None
    for perm in permutations(variables(e)):
        ops = simplify(e, Scheme(perm, direction)).ops
        if best is None or ops.total < best:
            best = ops.total
    return best


class TestTemperature:
    def test_linear_starts_at_cp(self):
        assert temperature(0, params(cp=0.7, n_updates=100)) == 0.7

    def test_linear_ends_at_zero(self):
        assert temperature(1000, params(cp=0.7, n_updates=1000)) == 0.0

    def test_linear_quarter_point(self):
        assert temperature(250, params(cp=1.0, n_updates=1000)) == 0.75

    def test_exponential_halves(self):
        p = params(cp=1.0, n_updates=100, schedule=Schedule.exponential(10.0))
        assert temperature(10, p) == pytest.approx(0.5)
        assert temperature(20, p) == pytest.approx(0.25)

    def test_constant(self):
        p = params(cp=0.3, schedule=Schedule.constant())
        assert all(temperature(i, p) == 0.3 for i in range(0, 100, 7))

    def test_nonincreasing(self):
        for sched in (Schedule.linear(), Schedule.exponential(5.0), Schedule.constant()):
            p = params(cp=2.0, n_updates=200, schedule=sched)
            temps = [temperature(i, p) for i in range(201)]
            assert all(a >= b for a, b in zip(temps, temps[1:]))

    def test_schedule_parsing(self):
        assert Schedule.from_string("linear") == Schedule.linear()
        assert Schedule.from_string("const") == Schedule.constant()
        assert Schedule.from_string("exp:2.5") == Schedule.exponential(2.5)
        with pytest.raises(ValueError):
            Schedule.from_string("cosine")
        with pytest.raises(ValueError):
            Schedule.exponential(0.0)


def make_node(visits, delta_sum, atom=0):
    n = Node(atom, [])
    n.visits = visits
    n.delta_sum = delta_sum
    return n


class TestNodeScore:
    def test_direct_substitution(self):
        assert node_score(make_node(4, 200), 100) == 2.0

    def test_unoptimized_playouts_score_one(self):
        assert node_score(make_node(7, 7 * 50), 50) == 1.0

    def test_single_playout(self):
        assert node_score(make_node(1, 50), 100) == 2.0

    def test_unvisited_rejected(self):
        with pytest.raises(ValueError):
            node_score(make_node(0, 0), 100)


class TestBestChild:
    def rig(self, children, visits):
        s = Node(None, [])
        s.visits = visits
        s.children = children
        return s

    def test_zero_temperature_is_pure_exploitation(self):
        naive = 120
        c1 = make_node(4, int(naive * 4 / 2.0))  # score 2.0
        c2 = make_node(4, int(naive * 4 / 1.5))  # score 1.5
        s = self.rig([c1, c2], 8)
        rng = np.random.default_rng(0)
        assert best_child(s, 0.0, naive, rng) is c1

    def test_less_visited_wins_on_equal_scores(self):
        naive = 100
        c1 = make_node(100, naive * 100)  # score 1.0
        c2 = make_node(1, naive * 1)  # score 1.0
        s = self.rig([c1, c2], 101)
        rng = np.random.default_rng(0)
        assert best_child(s, 0.5, naive, rng) is c2

    def test_numeric_selection_matches_formula(self):
        # n(s)=8, c1: score 1.2 with 4 visits, c2: score 1.0 with 1 visit, t=0.25
        naive = 120
        c1 = make_node(4, 400)  # 120*4/400 = 1.2
        c2 = make_node(1, 120)  # score 1.0
        v1 = 1.2 + 2 * 0.25 * math.sqrt(2 * math.log(8) / 4)
        v2 = 1.0 + 2 * 0.25 * math.sqrt(2 * math.log(8) / 1)
        assert v1 == pytest.approx(1.7098, abs=1e-4)
        assert v2 == pytest.approx(2.0197, abs=1e-4)
        s = self.rig([c1, c2], 8)
        rng = np.random.default_rng(0)
        assert best_child(s, 0.25, naive, rng) is c2

    def test_scaling_temperature_preserves_argmax_on_equal_scores(self):
        naive = 100
        c1 = make_node(3, naive * 3)
        c2 = make_node(9, naive * 9)
        s = self.rig([c1, c2], 12)
        rng = np.random.default_rng(0)
        for t in (0.01, 1.0, 100.0):
            assert best_child(s, t, naive, rng) is c1

    def test_no_children_rejected(self):
        s = Node(None, [1])
        s.visits = 1
        with pytest.raises(ValueError):
            best_child(s, 1.0, 10, np.random.default_rng(0))

    def test_ties_broken_by_rng(self):
        naive = 100
        c1 = make_node(2, naive * 2)
        c2 = make_node(2, naive * 2)
        s = self.rig([c1, c2], 4)
        picks = set()
        for seed in range(20):
            rng = np.random.default_rng(seed)
            picks.add(id(best_child(s, 0.0, naive, rng)))
        assert picks == {id(c1), id(c2)}


class TestRunIteration:
    def setup_state(self, e):
        return SearchState(
            root=Node(None, sorted(variables(e))),
            naive_total=naive_op_count(e).total,
            scorer=DeltaScorer(e),
        )

    def test_first_iteration_expands_root(self):
        e = parse(WORKED)
        state = self.setup_state(e)
        rng = np.random.default_rng(0)
        delta = run_iteration(state, 0, params(), rng)
        assert state.root.visits == 1
        assert len(state.root.children) == 1
        assert len(state.root.untried) == 2
        assert delta == state.deltas[0] == state.best_ops.total
        assert sorted(state.best_order) == variables(e)

    def test_root_visits_equals_iterations(self):
        e = five_var_expr()
        state = self.setup_state(e)
        rng = np.random.default_rng(1)
        p = params(n_updates=100)
        for i in range(100):
            run_iteration(state, i, p, rng)
        assert state.root.visits == 100

    def test_terminal_nodes_rescored_on_revisit(self):
        e = parse("x*y + x")  # 2 variables, tree depth 2
        state = self.setup_state(e)
        rng = np.random.default_rng(0)
        p = params(cp=0.0, n_updates=50)
        for i in range(50):
            run_iteration(state, i, p, rng)
        assert state.root.visits == 50
        # every playout is deterministic once the tiny tree saturates
        leaf_visits = sum(g.visits for c in state.root.children for g in c.children)
        assert leaf_visits > 0
        for c in state.root.children:
            assert c.delta_sum % c.visits == 0 or c.children


class TestSearch:
    def test_full_enumeration_reaches_brute_force_minimum(self):
        e = parse(WORKED)
        oracle = brute_force_oracle(e)
        assert oracle == 6
        for schedule in (Schedule.constant(), Schedule.linear()):  # UCT, SA-UCT
            res = search(e, params(n_updates=40, schedule=schedule, seed=3))
            assert res.best_delta.total == 6

    def test_single_update_equals_single_playout(self):
        e = five_var_expr()
        res = search(e, params(n_updates=1, seed=5))
        assert res.iterations_run == 1
        assert res.deltas_per_iteration == [res.best_delta.total]

    def test_constant_schedule_reproduces_uct_trace(self, monkeypatch):
        e = five_var_expr()
        for seed in range(50):
            with monkeypatch.context() as m:
                # Plain UCT: the exploration constant at every iteration.
                m.setattr(mcts, "temperature", lambda i, p: p.cp)
                uct = search(e, params(n_updates=60, seed=seed))
            sa = search(
                e,
                params(
                    n_updates=60,
                    schedule=Schedule.constant(),
                    seed=seed,
                ),
            )
            assert uct.deltas_per_iteration == sa.deltas_per_iteration
            assert uct.best_delta == sa.best_delta
            assert uct.best_scheme == sa.best_scheme

    def test_running_best_is_min_of_trace(self):
        e = five_var_expr(seed=9)
        res = search(e, params(n_updates=200, seed=11))
        assert res.best_delta.total == min(res.deltas_per_iteration)

    def test_visit_conservation(self):
        e = five_var_expr(seed=13)
        scorer = DeltaScorer(e)
        state = SearchState(
            root=Node(None, sorted(variables(e))),
            naive_total=naive_op_count(e).total,
            scorer=scorer,
        )
        rng = np.random.default_rng(2)
        p = params(n_updates=300)
        for i in range(300):
            run_iteration(state, i, p, rng)
        assert state.root.visits == 300

        def check(node):
            if node.children:
                assert node.visits >= sum(c.visits for c in node.children)
                assert node.delta_sum >= node.visits  # delta >= 1 per playout
                for c in node.children:
                    check(c)

        check(state.root)

    def test_deterministic(self):
        e = five_var_expr(seed=21)
        a = search(e, params(n_updates=150, seed=99))
        b = search(e, params(n_updates=150, seed=99))
        assert a == b

    def test_backward_direction_scores_reversed_order(self):
        e = parse(WORKED)
        res = search(e, params(n_updates=40, direction=Direction.BACKWARD, seed=4))
        # scored deltas must match simplify on the reported scheme
        check = simplify(e, res.best_scheme).ops
        assert check == res.best_delta

    def test_no_variables_rejected(self):
        with pytest.raises(ValueError, match="no variables"):
            search(parse("3"), params())


class TestRepeatSearch:
    def test_single_repeat_is_search(self):
        e = five_var_expr(seed=2)
        assert repeat_search(e, params(n_updates=80, seed=17)) == search(
            e, params(n_updates=80, seed=17)
        )

    def test_min_over_runs(self):
        e = five_var_expr(seed=3)
        p = params(n_updates=30, repeats=5, seed=100)
        combined = repeat_search(e, p)
        singles = [
            search(e, params(n_updates=30, seed=100 + r)) for r in range(5)
        ]
        assert combined.best_delta.total == min(s.best_delta.total for s in singles)

    def test_reaches_brute_force_optimum_on_five_vars(self):
        e = five_var_expr(seed=4)
        oracle = brute_force_oracle(e)
        res = repeat_search(e, params(cp=1.0, n_updates=500, repeats=10, seed=0))
        assert res.best_delta.total == oracle


class TestBruteForce:
    def test_matches_independent_oracle(self):
        e = parse(WORKED)
        res = brute_force_search(e)
        assert res.best_delta.total == brute_force_oracle(e) == 6
        assert res.iterations_run == 6  # 3! permutations

    def test_lexicographic_first_tie(self):
        e = parse("x*y")  # every order ties
        res = brute_force_search(e)
        assert res.best_scheme.order == tuple(variables(e))

    def test_guard(self):
        e = random_expr(RandomExprParams(n_vars=9, n_terms=10, max_exponent=2, coeff_range=3, seed=1))
        with pytest.raises(ValueError, match="exceeds brute-force guard"):
            brute_force_search(e)

    def test_never_worse_than_search(self):
        for seed in range(5):
            e = five_var_expr(seed=30 + seed)
            bf = brute_force_search(e)
            mc = search(e, params(n_updates=60, seed=seed))
            assert bf.best_delta.total <= mc.best_delta.total
