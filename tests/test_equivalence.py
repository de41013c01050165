"""The production scoring path against the tree reference path.

Production: ``DeltaScorer.build`` -> ``_Rewriter.run`` -> ``compact`` (for
``simplify``) or ``live_op_count`` (for ``DeltaScorer.delta``).
Reference: ``apply_scheme`` -> ``build_dag`` -> ``eliminate_pairs`` ->
``dag_op_count``. The two must agree node for node, not only in the count:
elimination breaks ties by node id.
"""

import numpy as np
import pytest

from opmin.benchgen import preset_expr, resultant_expr
from opmin.cse import DeltaScorer, build_dag, dag_op_count, eliminate_pairs, simplify
from opmin.expr import parse, variables
from opmin.horner import Direction, Scheme, apply_scheme, effective_order

from test_expr import random_expression
from test_horner import random_scheme


def assert_paths_agree(e, s):
    ref_in = build_dag(apply_scheme(e, s))
    arena = DeltaScorer(e).build(effective_order(s))
    assert arena.kinds == list(ref_in.kinds)
    assert [tuple(a) for a in arena.args] == list(ref_in.args)
    assert arena.roots == list(ref_in.roots)

    ref = eliminate_pairs(ref_in)
    got = simplify(e, s)
    assert got.dag.kinds == ref.kinds
    assert got.dag.args == ref.args
    assert got.dag.roots == ref.roots
    assert got.ops == dag_op_count(ref)
    assert DeltaScorer(e).delta(effective_order(s)) == (got.ops.mul, got.ops.add)


def both_directions(order):
    return [Scheme(order, d) for d in (Direction.FORWARD, Direction.BACKWARD)]


def test_random_expressions_and_prefix_orders():
    rng = np.random.default_rng(2024)
    for _ in range(400):
        e = random_expression(
            rng, n_vars=int(rng.integers(1, 7)), max_terms=int(rng.integers(1, 13))
        )
        for _ in range(2):
            for s in both_directions(random_scheme(rng, e).order):
                assert_paths_agree(e, s)


@pytest.mark.parametrize("name", ["res(4,3)", "hep-like-15"])
def test_pinned_workloads(name):
    e = resultant_expr(4, 3) if name == "res(4,3)" else preset_expr(name)
    vs = variables(e)
    rng = np.random.default_rng(7)
    orders = [tuple(vs), tuple(int(a) for a in rng.permutation(vs))]
    orders.append(tuple(int(a) for a in rng.permutation(vs)[: len(vs) // 2]))
    for order in orders:
        for s in both_directions(order):
            assert_paths_agree(e, s)


def test_empty_expression_scores_zero():
    e = parse("x - x")
    assert_paths_agree(e, Scheme(()))
    assert simplify(e, Scheme(())).ops.total == 0


@pytest.mark.parametrize("atom", ["z", 99])
def test_simplify_rejects_absent_scheme_atom(atom):
    e = parse("x*y + x + z - z")  # z is interned but cancels out
    a = e.atoms.id_of(atom) if isinstance(atom, str) else atom
    with pytest.raises(ValueError, match="does not occur"):
        simplify(e, Scheme((e.atoms.id_of("x"), a)))
