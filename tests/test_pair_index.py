"""The rewriter's incremental pair index against a from-scratch recount.

``_Rewriter`` keeps per-child parent sets and its rank heap up to date
rewrite by rewrite. These tests run the elimination one extraction at a
time and, after every step, recount every pair and every child's parents
from the arena's child lists alone, with none of the rewriter's
bookkeeping. Every child of a repeated pair of that recount must have a
stored parent set, every stored set must match the recount, the heap must
hold one rank per key that is never below the key's current count and is
present for every repeated pair, and ``best_pair`` must be the
minimum-rank repeated pair. Ranks are decoded with the rewriter's own
widths, ``bits`` per node id and ``shift`` per key, which are sized to the
arena; every id and count must stay below ``2**bits``, and every add/mul
child list must stay strictly increasing, also where ``extract`` appends
a new pair node without sorting. Unlike ``test_equivalence``, whose
reference also runs ``_Rewriter``, this catches a bug in the index or the
heap. Every node must be reachable from a root, before and after ``run``
and through both paths that make an arena, because ``live_op_count``
counts the whole node table. The rewriter does not merge nodes, so a
DAG on which an extraction would make two nodes identical, whose add/mul
child lists are not strictly increasing, with a child that is not an
earlier node or a root that is not a node, with an add/mul node that
has no children or a power below 1, or on which an extracted pair's node
is already a same-kind child, must raise ValueError. Set-up
checks no arena, so every arena the scorer builds must meet that
precondition by construction, on random, pinned and deep inputs.
"""

import signal
from itertools import combinations

import numpy as np
import pytest

from opmin.benchgen import preset_expr, resultant_expr
from opmin.cse import K_CONST, K_POW, K_PROD, K_SUM, K_VAR, Dag, DeltaScorer, _Rewriter, build_dag, simplify
from opmin.expr import OpCount, parse, variables
from opmin.horner import Direction, Scheme, apply_scheme, effective_order, occurrence_order

from test_expr import random_expression
from test_horner import random_scheme


@pytest.fixture(autouse=True)
def fail_if_stuck():
    """A heap bug can keep ``best_pair`` from returning; fail instead of hanging."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def stuck(signum, frame):
        raise AssertionError("test still running after 120 s")

    old = signal.signal(signal.SIGALRM, stuck)
    signal.alarm(120)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def recount(rw):
    """Pair sets and per-child parent sets of the add/mul nodes, from scratch.

    Returns ``(pairs, parents)``: ``pairs[(kind, x, y)]`` holds the nodes
    whose child list contains x and y, and ``parents[kind][c]`` the nodes
    of that kind whose child list contains c.
    """
    pairs: dict[tuple, set[int]] = {}
    parents: tuple[dict, dict] = ({}, {})
    for i, (k, a) in enumerate(zip(rw.kinds, rw.args)):
        if k in (K_SUM, K_PROD):
            for x, y in set(combinations(sorted(a), 2)):
                pairs.setdefault((k, x, y), set()).add(i)
            for c in a:
                parents[k].setdefault(c, set()).add(i)
    return pairs, parents


def unpack(key: int, bits: int) -> tuple[int, int, int]:
    """(kind, a, b) of a packed pair key ``(a << bits | b) << 1 | kind``."""
    return key & 1, key >> (bits + 1), (key >> 1) & (2**bits - 1)


def checked_step(rw):
    """Compare the index with a recount; return ``best_pair()``.

    Only the children of repeated pairs get parent sets, so the index
    must hold a set for every child of a repeated pair of the recount,
    and every set it holds must match the recount. No two add/mul nodes
    may be identical: the rewriter never merges nodes. Every add/mul child
    list must be strictly increasing.
    """
    keys = [(k, a) for k, a in zip(rw.kinds, rw.args) if k in (K_SUM, K_PROD)]
    assert len(set(keys)) == len(keys)
    for k, a in keys:
        assert all(x < y for x, y in zip(a, a[1:])), (k, a)
    pairs, parents = recount(rw)
    repeated = [key for key, s in pairs.items() if len(s) >= 2]
    for k, a, b in repeated:
        for c in (a, b):
            assert c in rw.parents[k], (k, c)
    for k in (K_SUM, K_PROD):
        for c, s in rw.parents[k].items():
            assert s == parents[k].get(c, set()), (k, c)
    # Heap ranks are ``key - (count << shift)``: one per key, never below
    # the key's current count, and present for every repeated pair.
    ranked = [(unpack(rank & (2**rw.shift - 1), rw.bits), -(rank >> rw.shift)) for rank in rw.heap]
    counts = dict(ranked)
    assert len(counts) == len(ranked)
    for key, n in counts.items():
        assert n >= len(pairs.get(key, ())), key
    for key in repeated:
        assert key in counts, key
    want = min(repeated, key=lambda key: (-len(pairs[key]), key[1], key[2], key[0]), default=None)
    best = rw.best_pair()
    assert best == want
    return best


def eliminate_checked(rw) -> list[tuple]:
    """``run``, one extraction at a time, checked before and after each."""
    keys = []
    while (key := checked_step(rw)) is not None:
        rw.extract(key)
        keys.append(key)
    return keys


def random_cases():
    """300 random expressions, two random effective orders each."""
    rng = np.random.default_rng(31)
    for _ in range(300):
        e = random_expression(
            rng, n_vars=int(rng.integers(1, 7)), max_terms=int(rng.integers(2, 15))
        )
        for _ in range(2):
            yield e, effective_order(random_scheme(rng, e))


def test_random_expressions_and_orders():
    for e, order in random_cases():
        eliminate_checked(DeltaScorer(e).build(order))


def pinned_expr(name):
    return resultant_expr(4, 3) if name == "res(4,3)" else preset_expr(name)


@pytest.mark.parametrize("name", ["res(4,3)", "hep-like-15"])
def test_pinned_workloads(name):
    e = pinned_expr(name)
    vs = variables(e)
    rng = np.random.default_rng(11)
    for order in (tuple(vs), tuple(int(a) for a in rng.permutation(vs))):
        assert eliminate_checked(DeltaScorer(e).build(order))


def test_ids_fit_the_packed_width():
    # A count is at most the number of add/mul nodes, so bounding that
    # after ``run`` bounds every count the heap ever ranked.
    rng = np.random.default_rng(11)
    cases = list(random_cases())
    for name in ("res(4,3)", "hep-like-15", "hep-like-22"):
        e = pinned_expr(name)
        vs = variables(e)
        cases += [(e, tuple(vs)), (e, tuple(int(a) for a in rng.permutation(vs)))]
    for e, order in cases:
        rw = DeltaScorer(e).build(order)
        rw.run()
        assert rw.shift == 2 * rw.bits + 1
        assert len(rw.kinds) <= 1 << rw.bits
        assert sum(k in (K_SUM, K_PROD) for k in rw.kinds) < 1 << rw.bits


def unreachable(rw) -> set[int]:
    """Ids of the arena's nodes that no root reaches, found by a walk."""
    seen = set()
    stack = list(rw.roots)
    while stack:
        i = stack.pop()
        if i not in seen:
            seen.add(i)
            if rw.kinds[i] in (K_SUM, K_PROD):
                stack += rw.args[i]
            elif rw.kinds[i] == K_POW:
                stack.append(rw.args[i][0])
    return set(range(len(rw.kinds))) - seen


def test_every_node_is_reachable():
    # ``live_op_count`` counts the whole node table, which equals the
    # count of what the roots reach only while no node is dead.
    rng = np.random.default_rng(5)
    cases = list(random_cases())
    for name in ("res(4,3)", "hep-like-22"):
        e = pinned_expr(name)
        cases.append((e, tuple(int(a) for a in rng.permutation(variables(e)))))
    for e, order in cases:
        tree = apply_scheme(e, Scheme(order, Direction.FORWARD))
        for rw in (DeltaScorer(e).build(order), _Rewriter.from_dag(build_dag(tree))):
            assert not unreachable(rw), order
            rw.run()
            assert not unreachable(rw), order


def test_scorer_arenas_meet_the_precondition():
    # ``_Rewriter.__init__`` checks nothing; only ``from_dag`` checks a
    # DAG. Every arena the scorer interns must have strictly increasing
    # add/mul child lists and no child of the node's own kind (the
    # ``_Rewriter`` docstring gives the proof), and ``run`` must keep the
    # child lists strictly increasing.
    rng = np.random.default_rng(7)
    cases = list(random_cases())
    for name in ("res(4,3)", "hep-like-22"):
        e = pinned_expr(name)
        cases.append((e, tuple(int(a) for a in rng.permutation(variables(e)))))
    e = parse(" + ".join(f"x^{k}" for k in range(1, 1501)))
    cases.append((e, tuple(variables(e))))
    e = parse(" + ".join(f"x^{k}*y^{k}" for k in range(1, 301)))
    cases += [(e, tuple(variables(e))), (e, tuple(variables(e))[::-1])]
    for e, order in cases:
        rw = DeltaScorer(e).build(order)
        for k, a in zip(rw.kinds, rw.args):
            if k in (K_SUM, K_PROD):
                assert all(x < y for x, y in zip(a, a[1:])), (order, k, a)
                assert all(rw.kinds[c] != k for c in a), (order, k, a)
        rw.run()
        for k, a in zip(rw.kinds, rw.args):
            if k in (K_SUM, K_PROD):
                assert all(x < y for x, y in zip(a, a[1:])), (order, k, a)


def test_extraction_reuses_an_existing_pair_node():
    # x+y (node 4) already exists and sits beside x+y+z (node 5) and
    # x+y+w (node 6) under the product root. Extracting (x, y) must reuse
    # node 4, append no node, and turn the two sums into 4+z and 4+w.
    x, y, z, w = 0, 1, 2, 3
    kinds = [K_VAR] * 4 + [K_SUM] * 3 + [K_PROD]
    args = [(x,), (y,), (z,), (w,), (x, y), (x, y, z), (x, y, w), (4, 5, 6)]
    rw = _Rewriter.from_dag(Dag(kinds, args, [7]))
    assert rw.live_op_count() == (2, 5)
    assert checked_step(rw) == (K_SUM, x, y)
    rw.extract((K_SUM, x, y))
    assert len(rw.kinds) == 8
    assert rw.args[4:] == [(x, y), (z, 4), (w, 4), (4, 5, 6)]
    assert checked_step(rw) is None
    assert rw.live_op_count() == (2, 3)
    assert rw.parents[K_SUM] == {x: {4}, y: {4}, 4: {5, 6}}


def test_extraction_that_would_merge_nodes_raises():
    # Extracting y+z (node 4) would turn B = y+z+w (node 5) into 4+w, a copy
    # of C (node 6). Only a sum nested in a sum allows this, and no Horner
    # arena has one; the rewriter does not merge, so it must refuse. C is a
    # sum that holds node 4, so node 4 is a same-kind child.
    y, z, w, u = 0, 1, 2, 3
    kinds = [K_VAR] * 4 + [K_SUM, K_SUM, K_SUM, K_PROD, K_PROD, K_SUM, K_SUM]
    args = [(y,), (z,), (w,), (u,)]
    args += [(y, z), (y, z, w), (w, 4), (u, 5), (u, 6), (7, 8), (w, 7, 8)]
    rw = _Rewriter.from_dag(Dag(kinds, args, [9, 10]))
    message = r"node 4, the pair \(0, 0, 1\) being extracted, is a same-kind child"
    with pytest.raises(ValueError, match=message):
        rw.run()


def test_extraction_of_a_same_kind_child_raises():
    # Node 5 = a+b is a child of the sum X = c+(a+b) (node 6). Extracting
    # a+b from nodes 7 and 8 gives them the pair (c, 5), which X already
    # holds alone, so that pair has no set and its count would be short.
    # The refusal comes before any node is rewritten.
    a, b, c, d, e = range(5)
    kinds = [K_VAR] * 5 + [K_SUM] * 4 + [K_PROD]
    args = [(a,), (b,), (c,), (d,), (e,)]
    args += [(a, b), (c, 5), (a, b, c, d), (a, b, c, e), (6, 7, 8)]
    rw = _Rewriter.from_dag(Dag(kinds, args, [9]))
    assert rw.best_pair() == (K_SUM, a, b)
    with pytest.raises(ValueError, match="node 5, the pair .* is a same-kind child"):
        rw.run()
    assert rw.kinds == kinds
    assert rw.args == args


@pytest.mark.parametrize("children", [(0, 0, 1), (1, 0)], ids=["repeated", "unsorted"])
@pytest.mark.parametrize("kind", [K_SUM, K_PROD])
def test_from_dag_rejects_children_not_strictly_increasing(kind, children):
    d = Dag([K_VAR, K_VAR, kind], [(0,), (1,), children], [2])
    with pytest.raises(ValueError, match="not strictly increasing"):
        _Rewriter.from_dag(d)


def test_from_dag_rejects_identical_nodes():
    d = Dag([K_VAR, K_VAR, K_SUM, K_SUM, K_PROD], [(0,), (1,), (0, 1), (0, 1), (2, 3)], [4])
    with pytest.raises(ValueError, match="nodes 2 and 3 are identical"):
        _Rewriter.from_dag(d)


@pytest.mark.parametrize(
    "kinds, args, roots, message",
    [
        ([K_VAR, K_SUM, K_SUM], [(0,), (0, 2), (0, 1)], [1], r"node 1: add children \[0, 2\] are not all earlier"),
        ([K_VAR, K_POW], [(0,), (1, 2)], [1], r"node 1: pow children \[1\] are not all earlier"),
        ([K_VAR, K_VAR, K_SUM], [(0,), (1,), (-1, 0)], [2], r"node 2: add children \[-1, 0\] are not all earlier"),
        ([K_VAR, K_SUM], [(0,), (0, 5)], [1], r"node 1: add children \[0, 5\] are not all earlier"),
        ([K_VAR], [(0,)], [3], r"roots \[3\] are not all node ids"),
        ([K_CONST, K_PROD], [(1,), (0, 5)], [1], r"node 1: mul children \[0, 5\] are not all earlier"),
    ],
    ids=[
        "sums-hold-each-other",
        "power-of-itself",
        "negative-child",
        "child-past-table",
        "root-past-table",
        "sign-times-child-past-table",
    ],
)
def test_from_dag_rejects_children_not_all_earlier_nodes_and_roots_past_the_table(kinds, args, roots, message):
    # Accepted, these would make ``compact`` loop or index the wrong node.
    with pytest.raises(ValueError, match=message):
        _Rewriter.from_dag(Dag(kinds, args, roots))


@pytest.mark.parametrize(
    "kinds, args, message",
    [
        ([K_SUM], [()], r"node 0: add args \[\] would count below zero"),
        ([K_PROD], [()], r"node 0: mul args \[\] would count below zero"),
        ([K_VAR, K_POW], [(0,), (0, -3)], r"node 1: pow args \[0, -3\] would count below zero"),
        ([K_VAR, K_POW], [(0,), (0, 0)], r"node 1: pow args \[0, 0\] would count below zero"),
        ([K_CONST, K_PROD], [(1,), (0,)], r"node 1: mul args \[0\] would count below zero"),
        ([K_CONST, K_CONST, K_PROD], [(1,), (-1,), (0, 1)], r"node 2: mul args \[0, 1\] would count below zero"),
        ([K_CONST], [()], r"node 0: const args \[\] have length 0, not 1"),
        ([K_VAR], [()], r"node 0: var args \[\] have length 0, not 1"),
        ([K_VAR], [(0, 1)], r"node 0: var args \[0, 1\] have length 2, not 1"),
        ([K_VAR, 7], [(0,), (0,)], r"node 1: unknown kind 7"),
        ([K_VAR, K_POW], [(0,), (0, 2, 5)], r"node 1: pow args \[0, 2, 5\] have length 3, not 2"),
        ([K_CONST, K_PROD], [(), (0,)], r"node 0: const args \[\] have length 0, not 1"),
        ([K_VAR, K_POW], [(0,), (0,)], r"node 1: pow args \[0\] have length 1, not 2"),
    ],
    ids=[
        "empty-sum",
        "empty-product",
        "negative-exponent",
        "zero-exponent",
        "product-of-one",
        "product-of-signs",
        "const-of-nothing",
        "var-of-nothing",
        "var-of-two",
        "unknown-kind",
        "power-of-three-args",
        "product-of-a-const-of-nothing",
        "power-without-exponent",
    ],
)
def test_from_dag_rejects_nodes_that_count_below_zero(kinds, args, message):
    # Accepted, the first six count -1, -1, -4, -1, -1 and -1 operations.
    # The rest are malformed nodes, refused before any check reads their
    # args: the next five were accepted (the pow of three args counted as
    # 1 mul), and the last two raised IndexError from a later check.
    with pytest.raises(ValueError, match=message):
        _Rewriter.from_dag(Dag(kinds, args, [len(kinds) - 1]))


def test_from_dag_accepts_one_child_sums_and_products_and_a_first_power():
    # Each of these counts 0, so none is refused.
    for kind, arg in [(K_SUM, (0,)), (K_PROD, (0,)), (K_POW, (0, 1))]:
        d = Dag([K_VAR, kind], [(0,), arg], [1])
        assert _Rewriter.from_dag(d).live_op_count() == (0, 0)
    # A sign times a variable counts 0 too: one factor is not a +-1 constant.
    d = Dag([K_CONST, K_VAR, K_PROD], [(-1,), (0,), (0, 1)], [2])
    assert _Rewriter.from_dag(d).live_op_count() == (0, 0)


@pytest.mark.parametrize(
    "sums, message",
    [
        ([(1, 0), (0, 1), (0, 1)], r"node 2: add children \[1, 0\] are not strictly increasing"),
        ([(0, 1), (0, 1), (1, 0)], "nodes 2 and 3 are identical"),
    ],
    ids=["unsorted-first", "identical-first"],
)
def test_from_dag_reports_the_defect_with_the_lower_node_id(sums, message):
    # Nodes 2 to 4 hold both defects; the one found first in id order wins.
    d = Dag([K_VAR, K_VAR, K_SUM, K_SUM, K_SUM, K_PROD], [(0,), (1,), *sums, (2, 3, 4)], [5])
    with pytest.raises(ValueError, match=message):
        _Rewriter.from_dag(d)


def test_hep_like_22_occurrence_order_is_pinned():
    e = preset_expr("hep-like-22")
    result = simplify(e, occurrence_order(e))
    assert result.ops == OpCount(mul=899, add=99)
    assert result.dag.node_count == 525
