"""The rewriter's incremental pair index against a from-scratch recount.

``_Rewriter`` keeps ``pair_nodes``, ``parents`` and its lazy rank heap up to
date rewrite by rewrite. These tests run the elimination one extraction at
a time and, after every step, rebuild the pair sets and parents from the
alive nodes alone, with none of the rewriter's bookkeeping, and check that
``best_pair`` is the minimum-rank repeated pair of that recount. Unlike
``test_equivalence``, whose reference also runs ``_Rewriter``, this catches
a bug in the index or the heap.
"""

from itertools import combinations

import numpy as np
import pytest

from opmin.benchgen import preset_expr, resultant_expr
from opmin.cse import K_POW, K_PROD, K_SUM, K_VAR, Dag, DeltaScorer, _Rewriter, simplify
from opmin.expr import OpCount, variables
from opmin.horner import effective_order, occurrence_order

from test_expr import random_expression
from test_horner import random_scheme


def recount(rw):
    """Pair sets and parent sets of the alive nodes, counted from scratch."""
    pairs: dict[tuple, set[int]] = {}
    parents = [set() for _ in rw.kinds]
    for i, (k, a) in enumerate(zip(rw.kinds, rw.args)):
        if not rw.alive[i]:
            continue
        if k in (K_SUM, K_PROD):
            for x, y in set(combinations(sorted(a), 2)):
                pairs.setdefault((k, x, y), set()).add(i)
            for c in a:
                parents[c].add(i)
        elif k == K_POW:
            parents[a[0]].add(i)
    return pairs, parents


def checked_step(rw):
    """Compare the index with a recount; return ``best_pair()``."""
    pairs, parents = recount(rw)
    assert {key: s for key, s in rw.pair_nodes.items() if s} == pairs
    assert rw.parents == parents
    repeated = [key for key, s in pairs.items() if len(s) >= 2]
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


def test_random_expressions_and_orders():
    rng = np.random.default_rng(31)
    for _ in range(300):
        e = random_expression(
            rng, n_vars=int(rng.integers(1, 7)), max_terms=int(rng.integers(2, 15))
        )
        for _ in range(2):
            order = effective_order(random_scheme(rng, e))
            eliminate_checked(DeltaScorer(e).build(order))


@pytest.mark.parametrize("name", ["res(4,3)", "hep-like-15"])
def test_pinned_workloads(name):
    e = resultant_expr(4, 3) if name == "res(4,3)" else preset_expr(name)
    vs = variables(e)
    rng = np.random.default_rng(11)
    for order in (tuple(vs), tuple(int(a) for a in rng.permutation(vs))):
        assert eliminate_checked(DeltaScorer(e).build(order))


def test_equal_pair_extraction_and_merge_cascade():
    # Extracting y+z (node 4) turns B = y+z+w into 4+w, a copy of C, so B
    # merges into C; its parent D = u*B becomes a copy of E = u*C and merges
    # too. That leaves R = D+E as E+E and F = w+D+E as w+E+E, so the next
    # pair is (E, E), which R itself already is.
    y, z, w, u = 0, 1, 2, 3
    kinds = [K_VAR] * 4 + [K_SUM, K_SUM, K_SUM, K_PROD, K_PROD, K_SUM, K_SUM]
    args = [(y,), (z,), (w,), (u,)]
    args += [(y, z), (y, z, w), (w, 4), (u, 5), (u, 6), (7, 8), (w, 7, 8)]
    rw = _Rewriter.from_dag(Dag(kinds, args, [9, 10]))

    assert eliminate_checked(rw) == [(K_SUM, y, z), (K_SUM, 8, 8)]
    assert [i for i, ok in enumerate(rw.alive) if not ok] == [5, 7]
    assert rw.args[9] == [8, 8] and rw.args[10] == [w, 9]
    assert len(rw.kinds) == len(kinds)


def test_hep_like_22_occurrence_order_is_pinned():
    e = preset_expr("hep-like-22")
    result = simplify(e, occurrence_order(e))
    assert result.ops == OpCount(mul=899, add=99)
    assert result.dag.node_count == 525
