import numpy as np
import pytest

from opmin.expr import OpCount, eval_mod_p, naive_op_count, parse, variables
from opmin.horner import Power, Product, Scheme, Sum, Var, apply_scheme
from opmin.cse import (
    K_CONST,
    K_POW,
    K_PROD,
    K_SUM,
    Dag,
    build_dag,
    dag_listing,
    dag_op_count,
    eliminate_pairs,
    eval_dag_mod_p,
    simplify,
)

from test_expr import WORKED, SINCOS, random_expression
from test_horner import random_scheme

P31 = 2**31 - 1
_AC = (K_SUM, K_PROD)


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def unique_subtrees(tree) -> set:
    """Oracle for hash-consing: enumerate structurally distinct subtrees."""
    seen = set()

    def walk(node):
        seen.add(node)
        for child in getattr(node, "children", ()):
            walk(child)
        if hasattr(node, "base"):
            walk(node.base)

    walk(tree)
    return seen


def reference_eliminate(d: Dag):
    """Slow rebuild-from-scratch fixpoint with the same selection rule.

    Recounts all pairs each round, rewrites every node containing the chosen
    pair, then repeatedly collapses single-child nodes and merges duplicate
    keys until stable. Returns (kinds, args, roots) with dead nodes pruned
    out of reach but ids unremapped.
    """
    kinds = list(d.kinds)
    args = [list(a) if k in _AC else tuple(a) for k, a in zip(d.kinds, d.args)]
    alive = [True] * len(kinds)
    roots = list(d.roots)

    def key(i):
        return (kinds[i], tuple(args[i]))

    def replace_everywhere(old, new):
        for j in range(len(kinds)):
            if not alive[j]:
                continue
            if kinds[j] in _AC and old in args[j]:
                args[j] = sorted(new if c == old else c for c in args[j])
            elif kinds[j] == K_POW and args[j][0] == old:
                args[j] = (new, args[j][1])
        roots[:] = [new if r == old else r for r in roots]

    def normalize():
        changed = True
        while changed:
            changed = False
            for i in range(len(kinds)):
                if alive[i] and kinds[i] in _AC and len(args[i]) == 1:
                    alive[i] = False
                    replace_everywhere(i, args[i][0])
                    changed = True
            index = {}
            for i in range(len(kinds)):
                if not alive[i]:
                    continue
                k = key(i)
                if k in index:
                    alive[i] = False
                    replace_everywhere(i, index[k])
                    changed = True
                else:
                    index[k] = i

    while True:
        counts = {}
        for i in range(len(kinds)):
            if not alive[i] or kinds[i] not in _AC:
                continue
            seen = set()
            ch = args[i]
            for x in range(len(ch)):
                for y in range(x + 1, len(ch)):
                    seen.add((ch[x], ch[y]))
            for pr in seen:
                counts.setdefault((kinds[i],) + pr, set()).add(i)
        best = None
        best_rank = None
        for k, nodes in counts.items():
            if len(nodes) < 2:
                continue
            rank = (-len(nodes), k[1], k[2], k[0])
            if best_rank is None or rank < best_rank:
                best_rank, best = rank, k
        if best is None:
            break
        kind_t, a, b = best
        p = None
        for i in range(len(kinds)):
            if alive[i] and kinds[i] == kind_t and list(args[i]) == [a, b]:
                p = i
                break
        if p is None:
            p = len(kinds)
            kinds.append(kind_t)
            args.append([a, b])
            alive.append(True)
        for n in sorted(counts[best]):
            if n == p:
                continue
            newch = list(args[n])
            newch.remove(a)
            newch.remove(b)
            newch.append(p)
            args[n] = sorted(newch)
        normalize()
    return kinds, args, roots


def reference_count(kinds, args, roots) -> OpCount:
    seen = set()
    stack = list(roots)
    mul = add = 0
    while stack:
        i = stack.pop()
        if i in seen:
            continue
        seen.add(i)
        if kinds[i] == K_SUM:
            add += len(args[i]) - 1
            stack.extend(args[i])
        elif kinds[i] == K_PROD:
            free = sum(
                1 for c in args[i] if kinds[c] == K_CONST and abs(args[c][0]) == 1
            )
            mul += len(args[i]) - 1 - free
            stack.extend(args[i])
        elif kinds[i] == K_POW:
            mul += args[i][1] - 1
            stack.append(args[i][0])
    return OpCount(mul=mul, add=add)


def canonical_form(kinds, args, roots):
    """Id-independent serialization for isomorphism checks."""
    memo = {}

    def walk(i):
        if i in memo:
            return memo[i]
        k = kinds[i]
        if k in _AC:
            s = f"({k} " + " ".join(sorted(walk(c) for c in args[i])) + ")"
        elif k == K_POW:
            s = f"(pow {walk(args[i][0])} {args[i][1]})"
        else:
            s = f"({k} {args[i]})"
        memo[i] = s
        return s

    return tuple(walk(r) for r in roots)


def dag_canonical(d: Dag):
    return canonical_form(d.kinds, d.args, d.roots)


def scheme_for(e, names):
    return Scheme(tuple(e.atoms.id_of(n) for n in names))


def node_id(d: Dag, kind, arg) -> int:
    """Id of the node with this kind and args."""
    return next(i for i in range(d.node_count) if d.kinds[i] == kind and tuple(d.args[i]) == tuple(arg))


def parents_of(d: Dag, i: int) -> list[int]:
    """Ids of nodes referring to *i*."""
    out = []
    for j, (k, a) in enumerate(zip(d.kinds, d.args)):
        if (k in _AC and i in a) or (k == K_POW and a[0] == i):
            out.append(j)
    return out


# ---------------------------------------------------------------------------
# build_dag
# ---------------------------------------------------------------------------


class TestBuildDag:
    def test_worked_example_node_count_matches_subtree_oracle(self):
        e = parse(WORKED)
        tree = apply_scheme(e, scheme_for(e, ["x", "y"]))
        d = build_dag(tree)
        assert d.node_count == len(unique_subtrees(tree)) == 9
        x = e.atoms.id_of("x")
        x_node = node_id(d, 3, (x,))  # K_VAR node
        kinds_of_parents = {d.kinds[j] for j in parents_of(d, x_node)}
        assert kinds_of_parents == {K_POW, K_PROD}

    def test_identical_subtrees_shared(self):
        shared = Sum((Var(0), Var(1)))
        tree = Sum((Product((Var(2), shared)), Product((Var(3), Sum((Var(0), Var(1)))))))
        d = build_dag(tree)
        sum_ids = [i for i in range(d.node_count) if d.kinds[i] == K_SUM and len(d.args[i]) == 2 and d.kinds[d.args[i][0]] == 3]
        inner = node_id(d, K_SUM, sorted((node_id(d, 3, (0,)), node_id(d, 3, (1,)))))
        assert len(parents_of(d, inner)) == 2

    def test_single_atom(self):
        assert build_dag(Var(0)).node_count == 1


# ---------------------------------------------------------------------------
# eliminate_pairs
# ---------------------------------------------------------------------------


class TestEliminatePairs:
    def test_sincos_flat_has_no_shared_pair(self):
        e = parse(SINCOS)
        d = build_dag(apply_scheme(e, Scheme(())))
        before = dag_op_count(d)
        after = eliminate_pairs(d)
        assert dag_op_count(after) == before == OpCount(mul=2, add=3)

    def test_sincos_horner_exposes_subexpression(self):
        e = parse(SINCOS)
        res = simplify(e, scheme_for(e, ["x"]))
        assert res.ops == OpCount(mul=1, add=2)
        # T = sin(x)+cos(x) is computed once and referenced twice
        s, c = e.atoms.id_of("sin(x)"), e.atoms.id_of("cos(x)")
        d = res.dag
        t = node_id(d, K_SUM, sorted((node_id(d, 3, (s,)), node_id(d, 3, (c,)))))
        assert len(parents_of(d, t)) == 2

    def test_no_repeated_pair_unchanged(self):
        e = parse(WORKED)
        d = build_dag(apply_scheme(e, scheme_for(e, ["x", "y"])))
        after = eliminate_pairs(d)
        assert dag_canonical(after) == dag_canonical(d)

    def test_pair_extracted_across_two_sums(self):
        tree = Product((Sum((Var(0), Var(1), Var(2))), Sum((Var(0), Var(1), Var(3)))))
        d = eliminate_pairs(build_dag(tree))
        # P = a+b shared; both sums now binary (P, other)
        pair_id = None
        for i in range(d.node_count):
            if d.kinds[i] == K_SUM and len(d.args[i]) == 2:
                ch_kinds = {d.kinds[c] for c in d.args[i]}
                if ch_kinds == {3}:
                    pair_id = i
        assert pair_id is not None
        assert len(parents_of(d, pair_id)) == 2
        assert dag_op_count(d) == OpCount(mul=1, add=3)

    def test_idempotent(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            e = random_expression(rng)
            d = eliminate_pairs(build_dag(apply_scheme(e, random_scheme(rng, e))))
            assert dag_canonical(eliminate_pairs(d)) == dag_canonical(d)

    def test_never_increases_ops(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            e = random_expression(rng)
            d = build_dag(apply_scheme(e, random_scheme(rng, e)))
            assert dag_op_count(eliminate_pairs(d)).total <= dag_op_count(d).total

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(1234)
        for _ in range(500):
            e = random_expression(rng, n_vars=4, max_terms=9)
            d = build_dag(apply_scheme(e, random_scheme(rng, e)))
            fast = eliminate_pairs(d)
            ref = reference_eliminate(d)
            assert dag_canonical(fast) == canonical_form(*ref)
            assert dag_op_count(fast) == reference_count(*ref)

    def test_reintern_of_fixpoint_is_isomorphic(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            e = random_expression(rng)
            d = eliminate_pairs(build_dag(apply_scheme(e, random_scheme(rng, e))))
            rebuilt = build_dag_from_dag(d)
            assert dag_canonical(rebuilt) == dag_canonical(d)


def build_dag_from_dag(d: Dag) -> Dag:
    """Re-intern an existing DAG node by node (hash-consing soundness check)."""
    kinds, args, index = [], [], {}
    remap = {}
    for i in range(d.node_count):
        k = d.kinds[i]
        if k in _AC:
            arg = tuple(sorted(remap[c] for c in d.args[i]))
            key = (k, arg)
        elif k == K_POW:
            arg = (remap[d.args[i][0]], d.args[i][1])
            key = (k,) + arg
        else:
            arg = tuple(d.args[i])
            key = (k,) + arg
        j = index.get(key)
        if j is None:
            j = len(kinds)
            kinds.append(k)
            args.append(arg)
            index[key] = j
        remap[i] = j
    return Dag(kinds, args, [remap[r] for r in d.roots])


# ---------------------------------------------------------------------------
# Counting / evaluation / pipeline
# ---------------------------------------------------------------------------


class TestDagOpCount:
    def test_worked_example_schemes(self):
        e = parse(WORKED)
        d1 = build_dag(apply_scheme(e, scheme_for(e, ["x", "y"])))
        assert dag_op_count(d1) == OpCount(mul=4, add=2)
        d2 = build_dag(apply_scheme(e, scheme_for(e, ["y", "x"])))
        assert dag_op_count(d2) == OpCount(mul=7, add=2)

    def test_shared_node_counted_once(self):
        shared = Sum((Var(0), Var(1)))
        tree = Sum((Product((Var(2), shared)), Product((Var(3), shared))))
        from opmin.horner import tree_op_count

        d = build_dag(tree)
        assert dag_op_count(d).total < tree_op_count(tree).total
        assert dag_op_count(d) == OpCount(mul=2, add=2)


class TestSimplify:
    def test_worked_example_deltas(self):
        e = parse(WORKED)
        assert simplify(e, scheme_for(e, ["x", "y"])).ops.total == 6
        assert simplify(e, scheme_for(e, ["y", "x"])).ops.total == 9

    def test_sincos_delta(self):
        e = parse(SINCOS)
        assert simplify(e, scheme_for(e, ["x"])).ops.total == 3

    def test_result_echoes_scheme_and_ops(self):
        e = parse(WORKED)
        s = scheme_for(e, ["x", "y"])
        res = simplify(e, s)
        assert res.scheme == s
        assert res.ops == dag_op_count(res.dag)


class TestEvalDag:
    def test_all_ones(self):
        e = parse(WORKED)
        res = simplify(e, scheme_for(e, ["x", "y"]))
        ones = {a: 1 for a in variables(e)}
        assert eval_dag_mod_p(res.dag, ones, P31) == 3

    def test_zero_base(self):
        e = parse("x^2")
        res = simplify(e, Scheme(()))
        assert eval_dag_mod_p(res.dag, {variables(e)[0]: 0}, P31) == 0

    def test_worked_point(self):
        e = parse(WORKED)
        x, y, z = variables(e)
        res = simplify(e, scheme_for(e, ["y", "x"]))
        assert eval_dag_mod_p(res.dag, {x: 2, y: 3, z: 5}, P31) == 124

    def test_missing_assignment(self):
        e = parse("x*y")
        res = simplify(e, Scheme(()))
        with pytest.raises(ValueError, match="no assignment"):
            eval_dag_mod_p(res.dag, {variables(e)[0]: 1}, P31)

    def test_end_to_end_semantics(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            e = random_expression(rng)
            s = random_scheme(rng, e)
            res = simplify(e, s)
            for _ in range(20):
                pts = {a: int(rng.integers(0, P31)) for a in variables(e)}
                assert eval_dag_mod_p(res.dag, pts, P31) == eval_mod_p(e, pts, P31)


class TestListing:
    def test_golden(self):
        e = parse("x^2*y + 3")
        d = simplify(e, Scheme(())).dag
        assert dag_listing(d, e.atoms) == (
            "t0 = var x\n"
            "t1 = pow t0 2\n"
            "t2 = var y\n"
            "t3 = mul t1 t2\n"
            "t4 = const 3\n"
            "t5 = add t3 t4\n"
            "root t5"
        )

    def test_listing_is_topologically_ordered(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            e = random_expression(rng)
            d = simplify(e, random_scheme(rng, e)).dag
            for i in range(d.node_count):
                if d.kinds[i] in _AC:
                    assert all(c < i for c in d.args[i])
                elif d.kinds[i] == K_POW:
                    assert d.args[i][0] < i
