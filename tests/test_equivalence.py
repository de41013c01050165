"""The production scoring path against the tree reference path.

Production: ``DeltaScorer.build`` -> ``_Rewriter.run`` -> ``compact`` (for
``simplify``) or ``live_op_count`` (for ``DeltaScorer.delta``).
Reference: ``apply_scheme`` -> ``build_dag`` -> ``eliminate_pairs`` (the
``test_cse`` helper) -> ``dag_op_count``. The two must agree node for node,
not only in the count: elimination breaks ties by node id. ``simplify``'s per-occurrence Horner
count, taken from the arena, must equal ``tree_op_count`` of the tree.
"""

from itertools import permutations

import numpy as np
import pytest

from opmin.benchgen import preset_expr, resultant_expr
from opmin.cse import (
    DeltaScorer,
    build_dag,
    dag_op_count,
    eval_dag_mod_p,
    simplify,
)
from opmin.expr import OpCount, eval_mod_p, parse, variables
from opmin.horner import Direction, Scheme, apply_scheme, effective_order, tree_op_count

from test_cse import eliminate_pairs
from test_expr import random_expression
from test_horner import random_scheme


def assert_paths_agree(e, s):
    tree = apply_scheme(e, s)
    ref_in = build_dag(tree)
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
    assert got.horner_ops == tree_op_count(tree)
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


def all_partial_orders(e):
    vs = variables(e)
    return [order for r in range(len(vs) + 1) for order in permutations(vs, r)]


# ``DeltaScorer.build`` closes a level of one or two terms in one pass,
# without a generator: the whole expression, a variable-free ``rest`` or a
# quotient ``with_v``. These inputs reach that path from every caller, with
# coefficients +-1 and repeated values, under every full and partial order.
@pytest.mark.parametrize(
    "text",
    [
        "x*y + x*z",
        "x + y",
        "x^2*y + x^3",
        "-x^2*y^3 - x*y",
        "3*x*y + 3*y*z",
        "2*x^2*z + 3*x*z^3",
        "-5*x^2*y*z + 5*x*y^3*z^2",
        "7 + x",
        "x^4",
        "-x*y^2",
    ],
)
def test_one_and_two_term_expressions(text):
    e = parse(text)
    for order in all_partial_orders(e):
        for s in both_directions(order):
            assert_paths_agree(e, s)


@pytest.mark.parametrize(
    "text",
    [
        "x*a^2 + x*a^3 + a + a^2",  # under (x, a): rest is two terms sharing a
        "x*a^2*b + 2*x*a^3 + 2*a*b + 2*a^2*b^2 + b",  # rest of three, two after a
        "x*y + x*z + w",  # with_v of two terms, rest of one
        "2*x*y^2*z + 2*x*y^3 + y + 3*y*z + 3",
        "2*x*a*b + 2*x*a^2 + 3*a*b + 3*b^2 + x^2 + 1",
        "x^2*y^2 + x^3*y^3 + x*y + x^4 + y^4 - 1",
    ],
)
def test_two_term_sublevels(text):
    e = parse(text)
    for order in all_partial_orders(e):
        for s in both_directions(order):
            assert_paths_agree(e, s)


def test_random_small_expressions_with_repeated_coefficients():
    rng = np.random.default_rng(77)
    for _ in range(300):
        e = random_expression(rng, n_vars=int(rng.integers(1, 5)), max_terms=4, coeff_range=2)
        for _ in range(2):
            for s in both_directions(random_scheme(rng, e).order):
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


# The reference path (apply_scheme, build_dag) recurses once per Horner level
# and cannot build deep inputs, so these are checked by modular evaluation.
P61 = 2**61 - 1


def assert_residues_agree(e, dag, seed):
    rng = np.random.default_rng(seed)
    for _ in range(3):
        pts = {a: int(rng.integers(2, P61)) for a in variables(e)}
        assert eval_dag_mod_p(dag, pts, P61) == eval_mod_p(e, pts, P61)


def test_degree_5000_univariate():
    e = parse(" + ".join(f"x^{k}" for k in range(1, 5001)))
    s = Scheme(tuple(variables(e)))
    got = simplify(e, s)
    assert got.ops == OpCount(mul=4999, add=4999)
    assert got.horner_ops == got.ops
    assert DeltaScorer(e).delta(effective_order(s)) == (4999, 4999)
    assert_residues_agree(e, got.dag, 0)


@pytest.mark.parametrize("names", [("x", "y"), ("y", "x")])
def test_deep_bivariate(names):
    e = parse(" + ".join(f"x^{k}*y^{k}" for k in range(1, 1501)))
    s = Scheme(tuple(e.atoms.id_of(n) for n in names))
    got = simplify(e, s)
    assert DeltaScorer(e).delta(effective_order(s)) == (got.ops.mul, got.ops.add)
    assert_residues_agree(e, got.dag, 1)
