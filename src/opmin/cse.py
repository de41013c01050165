"""Hash-consed expression DAGs, common-subexpression elimination, scoring.

A DAG stores every structurally distinct subexpression once. Sum/Product
children are kept sorted so that commutative/associative reorderings map to
one canonical node. On top of plain sharing, ``_Rewriter.run`` repeatedly
extracts the child pair that occurs under the most same-operator nodes,
materializing it as a shared node; this exposes partial overlaps between
wide sums/products that hash-consing alone cannot see.

Production path: ``DeltaScorer.build`` interns the Horner form straight
into a rewriter arena, then ``run`` and a count; ``simplify`` also returns
the compacted DAG, and ``DeltaScorer.delta`` (the search's playout score)
caches the count per order. Reference path: ``apply_scheme``,
``build_dag``, ``eliminate_pairs``, ``dag_op_count``. Both intern nodes in
the same order, so they give the same arena, DAG and count; the tests check
this node for node on random inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from .expr import AtomTable, Expression, OpCount, variables
from .horner import Const, Power, Scheme, Sum, Var, check_scheme, effective_order

K_SUM, K_PROD, K_POW, K_VAR, K_CONST = 0, 1, 2, 3, 4
_AC = (K_SUM, K_PROD)
_KIND_NAMES = {K_SUM: "add", K_PROD: "mul", K_POW: "pow", K_VAR: "var", K_CONST: "const"}


class Dag:
    """Append-only node table; children always precede parents.

    ``args[i]`` is a sorted child-id tuple for add/mul nodes, ``(base, exp)``
    for pow, ``(atom_id,)`` for var and ``(value,)`` for const. Completed
    instances are immutable and safe to share.
    """

    __slots__ = ("kinds", "args", "roots")

    def __init__(self, kinds, args, roots):
        self.kinds = tuple(kinds)
        self.args = tuple(args)
        self.roots = tuple(roots)

    @property
    def node_count(self) -> int:
        return len(self.kinds)


@dataclass(frozen=True)
class SimplifyResult:
    dag: Dag
    ops: OpCount
    scheme: Scheme


# ---------------------------------------------------------------------------
# Tree -> DAG
# ---------------------------------------------------------------------------


def build_dag(tree) -> Dag:
    """Intern a tree bottom-up; identical subtrees share one node.

    This is the reference interning that ``DeltaScorer.build`` reproduces
    without the tree.
    """
    kinds: list[int] = []
    args: list[tuple] = []
    index: dict = {}

    def intern(key, kind, arg):
        i = index.get(key)
        if i is None:
            i = len(kinds)
            kinds.append(kind)
            args.append(arg)
            index[key] = i
        return i

    def visit(node) -> int:
        if isinstance(node, Var):
            return intern((K_VAR, node.atom), K_VAR, (node.atom,))
        if isinstance(node, Const):
            return intern((K_CONST, node.value), K_CONST, (node.value,))
        if isinstance(node, Power):
            b = visit(node.base)
            return intern((K_POW, (b, node.exp)), K_POW, (b, node.exp))
        kind = K_SUM if isinstance(node, Sum) else K_PROD
        ch = tuple(sorted(visit(c) for c in node.children))
        return intern((kind, ch), kind, ch)

    root = visit(tree)
    return Dag(kinds, args, [root])


# ---------------------------------------------------------------------------
# Greedy pairwise elimination
# ---------------------------------------------------------------------------


class _Rewriter:
    """Mutable DAG with incremental pair index and duplicate merging.

    Rewrites keep node ids stable (new nodes are appended), so pair
    tie-breaking by id is well defined across iterations. Merging a node
    into a structurally identical one rewires all parents, which may cascade.
    """

    def __init__(self, kinds: list, args: list, roots: list):
        # Takes ownership of the arena lists; AC args must be sorted lists.
        self.kinds = kinds
        self.args = args
        self.alive = [True] * len(kinds)
        self.roots = roots
        self.index = {}
        self.parents: list[set[int]] = [set() for _ in kinds]
        self.pair_nodes: dict[tuple, set[int]] = {}
        self.hot: set[tuple] = set()  # pair keys currently occurring >= 2 times
        for i, (k, a) in enumerate(zip(kinds, args)):
            self.index[self._key(i)] = i
            if k in _AC:
                for c in set(a):
                    self.parents[c].add(i)
                self._register_pairs(i)
            elif k == K_POW:
                self.parents[a[0]].add(i)

    @classmethod
    def from_dag(cls, d: Dag) -> "_Rewriter":
        args = [list(a) if k in _AC else a for k, a in zip(d.kinds, d.args)]
        return cls(list(d.kinds), args, list(d.roots))

    def _key(self, i):
        k = self.kinds[i]
        a = self.args[i]
        return (k, tuple(a)) if k in _AC else (k,) + tuple(a)

    def _register_pairs(self, i):
        # Children are sorted, so duplicate pairs occur in runs and can be
        # skipped without materializing a set.
        k = self.kinds[i]
        ch = self.args[i]
        n = len(ch)
        pair_nodes = self.pair_nodes
        hot = self.hot
        for x in range(n - 1):
            cx = ch[x]
            if x and cx == ch[x - 1]:
                continue
            prev = -1
            for y in range(x + 1, n):
                cy = ch[y]
                if cy == prev:
                    continue
                prev = cy
                key = (k, cx, cy)
                s = pair_nodes.get(key)
                if s is None:
                    pair_nodes[key] = {i}
                else:
                    s.add(i)
                    if len(s) == 2:
                        hot.add(key)

    def _unregister_pairs(self, i):
        k = self.kinds[i]
        ch = self.args[i]
        n = len(ch)
        pair_nodes = self.pair_nodes
        hot = self.hot
        for x in range(n - 1):
            cx = ch[x]
            if x and cx == ch[x - 1]:
                continue
            prev = -1
            for y in range(x + 1, n):
                cy = ch[y]
                if cy == prev:
                    continue
                prev = cy
                s = pair_nodes.get((k, cx, cy))
                if s is not None:
                    s.discard(i)
                    if len(s) < 2:
                        hot.discard((k, cx, cy))

    def best_pair(self):
        """Most frequent (operator, child pair); ties to smallest ids, add first."""
        best = None
        best_rank = None
        for key in self.hot:
            n = len(self.pair_nodes[key])
            k, a, b = key
            rank = (-n, a, b, k)
            if best_rank is None or rank < best_rank:
                best_rank = rank
                best = key
        return best

    def extract(self, key) -> None:
        kind, a, b = key
        targets = sorted(self.pair_nodes.get(key, ()))
        pkey = (kind, (a, b))
        p = self.index.get(pkey)
        if p is None:
            p = len(self.kinds)
            self.kinds.append(kind)
            self.args.append([a, b])
            self.alive.append(True)
            self.parents.append(set())
            self.index[pkey] = p
            self.parents[a].add(p)
            self.parents[b].add(p)
            self._register_pairs(p)
        for n in targets:
            if n == p or not self.alive[n]:
                continue
            ch = self.args[n]
            if a == b:
                if ch.count(a) < 2:
                    continue
            elif a not in ch or b not in ch:
                continue  # a cascade already rewrote this node
            newch = list(ch)
            newch.remove(a)
            newch.remove(b)
            newch.append(p)
            newch.sort()
            self._set_children(n, newch)

    def _set_children(self, n, newch):
        """Replace n's child list; collapse singletons and merge duplicates."""
        del self.index[self._key(n)]
        self._unregister_pairs(n)
        for c in set(self.args[n]):
            self.parents[c].discard(n)
        self.args[n] = newch
        if len(newch) == 1:
            self._merge(n, newch[0])
            return
        key = self._key(n)
        m = self.index.get(key)
        if m is not None and self.alive[m] and m != n:
            self._merge(n, m)
            return
        self.index[key] = n
        for c in set(newch):
            self.parents[c].add(n)
        self._register_pairs(n)

    def _set_pow_base(self, n, newbase):
        del self.index[self._key(n)]
        base, exp = self.args[n]
        self.parents[base].discard(n)
        self.args[n] = (newbase, exp)
        key = self._key(n)
        m = self.index.get(key)
        if m is not None and self.alive[m] and m != n:
            self._merge(n, m)
            return
        self.index[key] = n
        self.parents[newbase].add(n)

    def _merge(self, n, m):
        """Alias n to the identical node m, rewiring every parent of n."""
        self.alive[n] = False
        for q in sorted(self.parents[n]):
            if not self.alive[q]:
                continue
            if self.kinds[q] in _AC:
                self._set_children(q, sorted(m if c == n else c for c in self.args[q]))
            else:
                self._set_pow_base(q, m)
        self.parents[n] = set()
        self.roots = [m if r == n else r for r in self.roots]

    def run(self) -> None:
        while True:
            key = self.best_pair()
            if key is None:
                return
            self.extract(key)

    def live_op_count(self) -> tuple[int, int]:
        """(mul, add) over nodes reachable from the roots."""
        return _op_count(self.kinds, self.args, self.roots)

    def compact(self) -> Dag:
        """Rebuild reachable nodes in topological order with fresh ids."""
        kinds, args, index = [], [], {}
        remap: dict[int, int] = {}
        pending: set[int] = set()
        for root in self.roots:
            stack = [(root, False)]
            while stack:
                i, ready = stack.pop()
                if not ready and (i in remap or i in pending):
                    continue
                k = self.kinds[i]
                if not ready and k in _AC:
                    pending.add(i)
                    stack.append((i, True))
                    for c in reversed(self.args[i]):
                        stack.append((c, False))
                    continue
                if not ready and k == K_POW:
                    pending.add(i)
                    stack.append((i, True))
                    stack.append((self.args[i][0], False))
                    continue
                if k in _AC:
                    arg = tuple(sorted(remap[c] for c in self.args[i]))
                    key = (k, arg)
                elif k == K_POW:
                    arg = (remap[self.args[i][0]], self.args[i][1])
                    key = (k,) + arg
                else:
                    arg = tuple(self.args[i])
                    key = (k,) + arg
                j = index.get(key)
                if j is None:
                    j = len(kinds)
                    kinds.append(k)
                    args.append(arg)
                    index[key] = j
                remap[i] = j
        return Dag(kinds, args, [remap[r] for r in self.roots])


def eliminate_pairs(d: Dag) -> Dag:
    """Extract the most frequent same-operator child pairs until fixpoint."""
    rw = _Rewriter.from_dag(d)
    rw.run()
    return rw.compact()


# ---------------------------------------------------------------------------
# Counting, evaluation, export
# ---------------------------------------------------------------------------


def dag_op_count(d: Dag) -> OpCount:
    """Operation count with every shared node counted exactly once."""
    mul, add = _op_count(d.kinds, d.args, d.roots)
    return OpCount(mul=mul, add=add)


def _op_count(kinds, args, roots) -> tuple[int, int]:
    """(mul, add) over the nodes reachable from *roots*, each counted once.

    Same conventions as the tree count: k-ary add/mul nodes cost k-1, a
    power costs exp-1, and a +-1 constant factor inside a product is free.
    """
    mul = add = 0
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        i = stack.pop()
        if i in seen:
            continue
        seen.add(i)
        k = kinds[i]
        if k == K_SUM:
            add += len(args[i]) - 1
            stack.extend(args[i])
        elif k == K_PROD:
            ch = args[i]
            free = 0
            for c in ch:
                if kinds[c] == K_CONST and args[c][0] in (1, -1):
                    free += 1
            mul += len(ch) - 1 - free
            stack.extend(ch)
        elif k == K_POW:
            mul += args[i][1] - 1
            stack.append(args[i][0])
    return mul, add


def eval_dag_mod_p(d: Dag, assignment: dict[int, int], p: int) -> int:
    """Memoized bottom-up evaluation; must agree with the source expression."""
    vals = [0] * d.node_count
    for i in range(d.node_count):
        k = d.kinds[i]
        if k == K_VAR:
            a = d.args[i][0]
            if a not in assignment:
                raise ValueError(f"no assignment for atom id {a}")
            vals[i] = assignment[a] % p
        elif k == K_CONST:
            vals[i] = d.args[i][0] % p
        elif k == K_POW:
            b, e = d.args[i]
            vals[i] = pow(vals[b], e, p)
        elif k == K_PROD:
            v = 1
            for c in d.args[i]:
                v = v * vals[c] % p
            vals[i] = v
        else:
            v = 0
            for c in d.args[i]:
                v = (v + vals[c]) % p
            vals[i] = v
    return vals[d.roots[0]]


def dag_listing(d: Dag, atoms: AtomTable) -> str:
    """Topologically ordered three-address listing (one node per line)."""
    lines = []
    for i in range(d.node_count):
        k = d.kinds[i]
        if k == K_VAR:
            lines.append(f"t{i} = var {atoms.text(d.args[i][0])}")
        elif k == K_CONST:
            lines.append(f"t{i} = const {d.args[i][0]}")
        elif k == K_POW:
            lines.append(f"t{i} = pow t{d.args[i][0]} {d.args[i][1]}")
        else:
            operands = " ".join(f"t{c}" for c in d.args[i])
            lines.append(f"t{i} = {_KIND_NAMES[k]} {operands}")
    lines.append("root " + " ".join(f"t{r}" for r in d.roots))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Full pipeline
# ---------------------------------------------------------------------------


class DeltaScorer:
    """Horner builds and memoized scores for one fixed expression.

    Terms are packed once as dense exponent vectors over ``variables(e)``.
    Counts are cached per effective order, so re-scoring a revisited path
    is a dictionary lookup.
    """

    def __init__(self, e: Expression):
        self.var_ids = variables(e)
        self._pos = {a: i for i, a in enumerate(self.var_ids)}
        n = len(self.var_ids)
        packed = []
        for t in e.terms:
            dense = [0] * n
            for a, exp in t.exponents:
                dense[self._pos[a]] = exp
            packed.append((t.coeff, tuple(dense)))
        self._terms = packed
        self.cache: dict[tuple[int, ...], tuple[int, int]] = {}

    def delta(self, order: tuple[int, ...]) -> tuple[int, int]:
        """(mul, add) after Horner with this effective order plus elimination.

        ``order`` is a tuple of atom ids, already direction-adjusted.
        """
        hit = self.cache.get(order)
        if hit is None:
            rw = self.build(order)
            rw.run()
            hit = self.cache[order] = rw.live_op_count()
        return hit

    def build(self, order: tuple[int, ...]) -> _Rewriter:
        """Arena of the Horner form for this effective order, before elimination.

        Same nodes and ids as ``build_dag(apply_scheme(...))``. Sums and
        products stay open (tagged child-id lists) until their parent interns
        them, so nested ones flatten as in the tree.
        """
        var_ids = self.var_ids
        kinds: list[int] = []
        args: list = []
        index: dict = {}

        def intern(key, kind, arg) -> int:
            i = index.get(key)
            if i is None:
                i = len(kinds)
                kinds.append(kind)
                args.append(arg)
                index[key] = i
            return i

        def const_node(c: int) -> int:
            return intern((K_CONST, c), K_CONST, (c,))

        def factor_node(v: int, e: int) -> int:
            a = var_ids[v]
            b = intern((K_VAR, a), K_VAR, (a,))
            if e == 1:
                return b
            return intern((K_POW, b, e), K_POW, (b, e))

        def finalize(val) -> int:
            if isinstance(val, int):
                return val
            tag, parts = val
            kind = K_PROD if tag == "p" else K_SUM
            ch = sorted(parts)
            return intern((kind, tuple(ch)), kind, ch)

        def flattened(val, tag) -> list[int]:
            """Ids *val* adds to an open *tag* node; a same-tag open node flattens."""
            if type(val) is tuple and val[0] == tag:
                return val[1]
            return [finalize(val)]

        def monomial(t):
            c, exps = t
            if not any(exps):
                return const_node(c)
            parts = [const_node(c)] if c != 1 else []
            parts += [factor_node(v, e) for v, e in enumerate(exps) if e]
            return parts[0] if len(parts) == 1 else ("p", parts)

        def horner(terms, order):
            if len(terms) == 1:
                return monomial(terms[0])
            for v in order:
                cnt = 0
                for t in terms:
                    if t[1][v]:
                        cnt += 1
                        if cnt == 2:
                            break
                if cnt < 2:
                    continue
                with_v = []
                rest = []
                for t in terms:
                    (with_v if t[1][v] else rest).append(t)
                # Interning order follows the tree walk: the variable-free
                # addend first, then the extracted factor, then the quotient.
                addends = flattened(horner(rest, order), "s") if rest else []
                e = min(t[1][v] for t in with_v)
                fid = factor_node(v, e)
                quotient = [(c, x[:v] + (x[v] - e,) + x[v + 1 :]) for c, x in with_v]
                parts = [fid] + flattened(horner(quotient, order), "p")
                if not rest:
                    return ("p", parts)
                addends.append(finalize(("p", parts)))
                return ("s", addends)
            return ("s", [finalize(monomial(t)) for t in terms])

        pos = self._pos
        if self._terms:
            root = finalize(horner(self._terms, tuple(pos[a] for a in order)))
        else:
            root = const_node(0)
        return _Rewriter(kinds, args, [root])


def simplify(e: Expression, s: Scheme) -> SimplifyResult:
    """Horner scheme, then sharing and pair extraction; ops is the score.

    Raises ValueError if the scheme names an atom absent from *e*.
    """
    check_scheme(e, s)
    rw = DeltaScorer(e).build(effective_order(s))
    rw.run()
    dag = rw.compact()
    return SimplifyResult(dag=dag, ops=dag_op_count(dag), scheme=s)
