"""Hash-consed expression DAGs, common-subexpression elimination, scoring.

A DAG stores every structurally distinct subexpression once. Sum/Product
children are kept sorted so that commutative/associative reorderings map to
one canonical node. On top of plain sharing, ``_Rewriter.run`` repeatedly
extracts the child pair that occurs under the most same-operator nodes,
materializing it as a shared node; this exposes partial overlaps between
wide sums/products that hash-consing alone cannot see.

The rewriter keeps, per operator, the parent set of every child that sits
in a repeated pair: all nodes of that operator that hold the child. A
pair's holders are the intersection of its two children's parent sets.
Pairs are packed into int keys whose id fields are as wide as the arena
can ever need, and a min-heap holds one int rank per repeated pair,
pushed when the pair is created; a pair's count only falls after that,
so a stale top is re-ranked in place or dropped. The initial
pairs are counted in one C-level pass, and only the children of pairs
counted twice or more get parent sets. Extracting a pair (a, b) replaces
a and b by the pair's node p in every node that holds both; that changes
only the parent sets of a, b and p, so rewriting a k-ary node costs O(k)
for its new child list and nothing per pair. On a Horner arena no rewrite
can make two nodes identical, so there is nothing to merge. ``_Rewriter``
states this precondition with the proof, and also proves that every arena
``DeltaScorer`` interns meets it, so set-up checks nothing.
``_Rewriter.from_dag``, the way in for every other DAG, checks it and
raises ValueError on a DAG outside it.

Production path: ``DeltaScorer.build`` is one decision walk and one
interning pass. ``_plan`` walks the Horner levels from one task stack,
without recursion, so Horner depth is bounded by memory only. It returns
the decision trace, the split and factor choices through which alone the
order reaches the arena, and the plan: the interning steps in build
order, each a tuple of ints. ``_intern`` replays the plan into a rewriter
arena; it closes a level of one or two terms, the most common ones, in
one step, and memoizes leaf ids. The scorer, the plan and the trace name
variables by atom id, as the expression, the order and var nodes do.
Then come ``run`` and a count; ``simplify`` also returns the compacted
DAG. ``DeltaScorer.delta`` (the search's playout score) keeps one cache
of counts, keyed by order and by decision trace. An order miss runs the
walk only. An order whose walk makes the decisions of an earlier one gets
that arena, node for node, so its count is looked up, and it is neither
interned nor eliminated again; ``DeltaScorer`` gives the proof. Add/mul
args are tuples, shared with the intern key, and plan steps hold ints
only, so a build holds few containers that the garbage collector tracks.
Reference path:
``apply_scheme``, ``build_dag``, ``_Rewriter.from_dag``, ``dag_op_count``;
the first two recurse once per Horner level and fail on deep input. Both
paths intern nodes in the same order, so they give the same arena, DAG
and count; the tests check this node for node on random inputs.

Neither path makes a node that no root reaches (``Dag`` gives the proof),
so a count is one pass over the node table, one weight per node, with no
walk of the graph.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from heapq import heapify, heappop, heappush, heapreplace
from itertools import chain, combinations, repeat
from operator import ge

from .expr import AtomTable, Expression, OpCount
from .horner import Const, Power, Scheme, Sum, Var, check_scheme, effective_order

K_SUM, K_PROD, K_POW, K_VAR, K_CONST = 0, 1, 2, 3, 4
_AC = (K_SUM, K_PROD)
_KIND_NAMES = {K_SUM: "add", K_PROD: "mul", K_POW: "pow", K_VAR: "var", K_CONST: "const"}
_ARITY = {K_POW: 2, K_VAR: 1, K_CONST: 1}  # add and mul take any number of children
# Steps of a Horner plan (``DeltaScorer._plan``), each a tuple of ints.
_FLAT, _FACTOR, _PAIR, _ADDENDS, _CLOSE = range(5)


class Dag:
    """Append-only node table; a child always precedes the nodes that use it.

    ``_Rewriter.from_dag``, the way in for a ``Dag`` from outside the
    scorer, refuses one whose children or roots break this, or whose args
    break the layout below.

    ``args[i]`` is a sorted child-id tuple for add/mul nodes, ``(base, exp)``
    for pow, ``(atom_id,)`` for var and ``(value,)`` for const. Completed
    instances are immutable and safe to share.

    Every node is reachable from a root, so ``dag_op_count``,
    ``eval_dag_mod_p`` and ``dag_listing`` each take the table as a whole.
    No path makes a dead node:

    - ``build_dag`` interns only what ``visit`` reaches from the tree's root.
    - ``DeltaScorer.build`` (its ``_intern`` pass) interns a node only to
      place its id under a parent or to return it as the root. A factor's
      var node sits under its pow node; a ``_FACTOR`` step's id goes into
      its level's product; a ``_PAIR`` step, whose product holds one or
      more factors and the sum of two monomials, and ``monomial`` use
      every id they intern; open nodes pass their ids up through
      ``parts``; the empty expression is one const root.
    - An extraction keeps every node reachable (``_Rewriter``, property 6).
    - ``compact`` emits only the nodes it reaches from the roots.

    A hand-built ``Dag`` with a dead node is counted whole; no path in the
    program builds one, so nothing checks for it.
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
    horner_ops: OpCount  # the Horner form before sharing and elimination


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

    def intern(kind, arg: tuple) -> int:
        i = index.setdefault((kind, arg), len(kinds))
        if i == len(kinds):
            kinds.append(kind)
            args.append(arg)
        return i

    def visit(node) -> int:
        if isinstance(node, Var):
            return intern(K_VAR, (node.atom,))
        if isinstance(node, Const):
            return intern(K_CONST, (node.value,))
        if isinstance(node, Power):
            return intern(K_POW, (visit(node.base), node.exp))
        kind = K_SUM if isinstance(node, Sum) else K_PROD
        return intern(kind, tuple(sorted(visit(c) for c in node.children)))

    root = visit(tree)
    return Dag(kinds, args, [root])


# ---------------------------------------------------------------------------
# Greedy pairwise elimination
# ---------------------------------------------------------------------------


class _Rewriter:
    """Mutable arena for greedy pair extraction.

    A pair (kind, a, b) with a < b is packed into one int key,
    ``(a << bits | b) << 1 | kind``, which sorts like the tuple
    (a, b, kind). ``bits`` is the bit length of the arena's node count
    plus the total child count of its add/mul nodes. Each extraction
    lowers the sum of k - 1 over add/mul nodes with k children by at
    least one: each target loses a child, and an appended p adds only
    2 - 1 = 1 for two or more targets. So there are fewer extractions than
    children, and every node id and every count stays below ``2**bits``.

    ``parents[kind][c]`` is the set of add/mul nodes of that kind whose
    child list contains c. It exists for both children of every pair that
    two or more nodes held when the pair was created, and it is complete:
    it holds every node of that kind that has the child, not only those
    that hold the pair. So the nodes that hold (kind, a, b) are
    ``parents[kind][a] & parents[kind][b]``, and the pair's count is that
    intersection's size. A pair held by one node gives its children no
    sets: by property 5 below it can never repeat. ``heap`` is a min-heap
    of int ranks ``key - (count << shift)``, with ``shift = 2 * bits + 1``
    the key's width, which sort like the tuple ``(-count, a, b, kind)``:
    most frequent first, ties to the smallest ids, add first. Each
    repeated key has one rank, pushed when the pair is created. By
    property 5 its count can only be too high, so ``best_pair`` re-ranks a
    stale top in place with the current count while that is two or more,
    drops it otherwise, and returns the first top that is current: the
    minimum rank over all repeated pairs.

    Extracting (kind, a, b) is one rewrite: every node that holds both a and
    b gets the node p = (kind, [a, b]) in their place. An existing p is the
    one holder with two children, as child lists are strictly increasing and
    nodes distinct; otherwise p is appended, so ids stay stable and
    tie-breaking by id is well defined across iterations. An appended p has
    the largest id, so a rewritten child list is its rest with p at the
    end; only an existing p is sorted in. A rewritten node n changes only
    its children a, b and p, so the rewrite costs O(k) for a k-ary n, and
    only three parent sets change: a's and b's lose the targets and gain
    p, and p's is the targets.

    Precondition: every add/mul child list is strictly increasing, so no
    node repeats a child, and no add/mul node has a child of its own kind.
    ``__init__`` checks neither. It is called on the arenas that
    ``DeltaScorer._intern`` builds, which meet both conditions, as shown
    below, and by ``from_dag``, which checks every other DAG first,
    including ``build_dag(apply_scheme(...))``, node for node the same.

    ``_intern`` makes an add/mul node only from a sorted tuple (``close``,
    ``monomial``, the ``_PAIR`` sum), so its child tuple is strictly
    increasing exactly when its ids are distinct. Interned nodes are
    distinct structures, so two ids differ when their nodes differ in
    kind, in base variable or in the variables that they reach. The ids
    are distinct:

    - A monomial holds at most one constant and one var or pow node per
      variable.
    - The monomials of a ``_FLAT`` level or of a ``_PAIR`` sum belong to
      distinct terms under one ``sub``. The parser merges like terms, so
      their exponents beyond ``sub`` differ, and so do their factors.
    - A ``_PAIR`` product holds one factor per variable that it factors
      out, each variable once, and the ``_PAIR`` sum.
    - A split level's product holds ``v^e`` and the quotient's parts. No
      part is a power of v: e is the smallest exponent of v beyond ``sub``
      in ``with_v``, so some quotient term holds v at exactly the raised
      ``sub``, and the quotient cannot factor v out of all its terms. Its
      other parts are distinct by induction. The quotient has two or more
      terms, so it is never a bare factor: its value is a sum node, or an
      open product whose parts are powers of the variables it factors out
      and one sum node.
    - A split level's sum holds ``rest``'s addends and the product. Every
      term of ``rest`` holds v at exactly sub[v], so no addend reaches v,
      and the product holds ``v^e``. The addends are distinct by
      induction.

    No node has a child of its own kind: a level's sum or product stays
    open until its parent flattens it into a node of the same kind
    (``parts``) or closes it under the other kind, and a monomial, a
    product, is placed only in sums: a level of one term is a ``rest`` or
    the whole expression, never a quotient.

    A rewrite only ever gives a node the new child p, the node of the key
    being extracted, so a node gets its first same-kind parent during its
    own key's extraction. Hence:

    1. A target never already holds p, so no child is ever repeated and
       pairs (a, a) never occur.
    2. No other node holds p either, so a rewritten node never becomes a
       copy of another node, no two nodes ever need merging, and the
       targets are all of p's same-kind parents.
    3. No key is extracted twice: some node would first have to regain a
       or b, which needs an earlier key to be extracted twice; induct on
       the first such event.
    4. A target never collapses to one child: its child list would have
       to be [a, b], and then it is p.
    5. The set of nodes that hold a pair only shrinks after the step that
       creates the pair, ``__init__`` or an extraction. A node gains pairs
       only as (c, p) while p's key is extracted, and by 2 no other node
       holds p then, so each such pair is new. A later gain would need a
       later extraction whose p is c or p, which the nodes holding the
       pair already hold, against 1 and 2.
    6. Every node stays reachable from a root. The arena starts that way
       (``Dag``). An extraction changes no child list but the targets':
       each target keeps its own parents, a and b sit under p, and an
       appended p has the targets, two or more, as its parents. So
       ``live_op_count`` counts every node once in one pass, with no walk.

    Every parent set stays complete. ``__init__`` fills each one from all
    nodes of its kind. A rewrite changes no child of any node but a, b and
    p, whose sets ``extract`` updates, and by 2 p's set is exactly the
    targets. An extraction pushes (c, p) only when two or more targets
    hold c; c then sits beside a in those targets, so by 5 the pair
    (a, c) was held by two or more nodes when it was created. c has had a
    set since that step: ``__init__`` made it, or that step's p was c, or
    c had one then by this same argument. So every pair the heap ranks
    has both sets.

    ``from_dag`` raises ValueError on a DAG with two identical nodes, an
    add/mul child list that is not strictly increasing, a child that is
    not an earlier node, an add/mul node with no children or a pow node
    whose exponent is below 1, at the defect with the lower node id, and
    then on a root that is not a node id. ``extract`` raises, before it
    changes any node, when p already existed and is in ``inner``: it has
    had a parent of its own kind. Only then can a pair (c, p) predate the
    extraction and p's parent set miss a node. The check also covers a
    target that already holds p, and a target rewritten into a copy of
    another node, which holds p too (two targets would have been
    identical before). Each needs a node of p's kind that holds p before
    p's extraction, so p had a same-kind parent: one in the input, which
    ``from_dag`` records, or one made when p's key was extracted before,
    which ``extract`` records. So a ``Dag`` outside the precondition fails
    loudly instead of miscounting.
    """

    def __init__(self, kinds: list, args: list, roots: list):
        # Takes ownership of the arena lists.
        self.kinds = kinds
        self.args = args
        self.roots = roots
        self.inner: set[int] = set()  # add/mul nodes that have had a parent of their kind
        self.parents: tuple[dict[int, set[int]], dict[int, set[int]]] = ({}, {})
        self.heap: list[int] = []
        nodes = ([], []), ([], [])  # per kind: ids and child tuples
        for i, (k, ch) in enumerate(zip(kinds, args)):
            if k in _AC:
                ids, chs = nodes[k]
                ids.append(i)
                chs.append(ch)
        width = len(kinds) + sum(map(len, chain.from_iterable(chs for _, chs in nodes)))
        self.bits = bits = width.bit_length()
        self.shift = shift = 2 * bits + 1
        for k, (ids, chs) in zip(_AC, nodes):
            counts = Counter(chain.from_iterable(map(combinations, chs, repeat(2))))
            repeated = [(x, y, n) for (x, y), n in counts.items() if n >= 2]
            if not repeated:
                continue
            self.heap += [((x << bits | y) << 1 | k) - (n << shift) for x, y, n in repeated]
            par = self.parents[k]
            for c in {c for x, y, _ in repeated for c in (x, y)}:
                par[c] = set()
            for i, ch in zip(ids, chs):
                for c in ch:
                    s = par.get(c)
                    if s is not None:
                        s.add(i)
        heapify(self.heap)

    @classmethod
    def from_dag(cls, d: Dag) -> "_Rewriter":
        """Rewriter over a copy of *d*, checked against the precondition.

        One pass over the nodes copies each one, raises ValueError at the
        first node that has a kind outside the five, has args of the wrong
        length for its kind (one for var and const, two for pow), is
        identical to an earlier one, has an add/mul child list that is not
        strictly increasing, has a child (a pow base included) that is not
        an earlier node, or would count below zero: an add node with no
        children, a mul node whose children are all +-1 constants (none
        included), or a pow node whose exponent is below 1. The kind and
        length are checked before any other check reads the args. It
        records in ``inner`` every child of an add/mul node of the same
        kind. Then it raises ValueError on a root that is not a node id.
        """
        index = {}
        inner = set()
        for i, (k, a) in enumerate(zip(d.kinds, d.args)):
            a = tuple(a)
            if k not in _KIND_NAMES:
                raise ValueError(f"node {i}: unknown kind {k!r}")
            if len(a) != _ARITY.get(k, len(a)):
                raise ValueError(f"node {i}: {_KIND_NAMES[k]} args {list(a)} have length {len(a)}, not {_ARITY[k]}")
            j = index.setdefault((k, a), i)
            if j != i:
                raise ValueError(f"nodes {j} and {i} are identical")
            if k in _AC and any(map(ge, a, a[1:])):
                raise ValueError(f"node {i}: {_KIND_NAMES[k]} children {list(a)} are not strictly increasing")
            # Sorted, so the first and last children bound them all.
            children = a if k in _AC else a[:1] if k == K_POW else ()
            if children and not (0 <= children[0] and children[-1] < i):
                raise ValueError(f"node {i}: {_KIND_NAMES[k]} children {list(children)} are not all earlier nodes")
            if (
                (k == K_SUM and not a)
                or (k == K_POW and a[1] < 1)
                or (k == K_PROD and all(d.kinds[c] == K_CONST and d.args[c][0] in (1, -1) for c in a))
            ):
                raise ValueError(f"node {i}: {_KIND_NAMES[k]} args {list(a)} would count below zero")
            if k in _AC:
                inner.update(c for c in a if d.kinds[c] == k)
        if not all(0 <= r < len(index) for r in d.roots):
            raise ValueError(f"roots {list(d.roots)} are not all node ids")
        # Every node is a key of index, in id order.
        rw = cls(list(d.kinds), [a for _, a in index], list(d.roots))
        rw.inner = inner
        return rw

    def best_pair(self):
        """Most frequent (operator, child pair); ties to smallest ids, add first.

        Returns ``(kind, a, b)`` with a < b, or None when no pair repeats.
        """
        heap = self.heap
        parents = self.parents
        bits, shift = self.bits, self.shift
        key_mask = (1 << shift) - 1
        id_mask = (1 << bits) - 1
        while heap:
            rank = heap[0]
            key = rank & key_mask
            kind = key & 1
            a = key >> (bits + 1)
            b = (key >> 1) & id_mask
            par = parents[kind]
            n = len(par[a] & par[b])
            if n == -(rank >> shift):
                return kind, a, b
            if n >= 2:
                heapreplace(heap, key - (n << shift))
            else:
                heappop(heap)
        return None

    def extract(self, key) -> None:
        """Replace a and b by p = (kind, [a, b]) in every node that holds both."""
        kind, a, b = key
        kinds, args = self.kinds, self.args
        par = self.parents[kind]
        pa = par[a]
        pb = par[b]
        targets = pa & pb
        p = next((n for n in targets if len(args[n]) == 2), None)
        appended = p is None
        if appended:
            p = len(kinds)
            kinds.append(kind)
            args.append((a, b))
        elif p in self.inner:
            raise ValueError(f"node {p}, the pair {key} being extracted, is a same-kind child")
        else:
            targets.discard(p)
        self.inner.add(p)
        holders: dict[int, int] = {}  # c -> how many targets will hold (c, p)
        for n in targets:
            rest = [c for c in args[n] if c != a and c != b]
            for c in rest:
                holders[c] = holders.get(c, 0) + 1
            # An appended p has the largest id, so it goes last.
            args[n] = (*rest, p) if appended else tuple(sorted(rest + [p]))
        pa -= targets
        pb -= targets
        pa.add(p)
        pb.add(p)
        par[p] = targets
        heap = self.heap
        bits, shift = self.bits, self.shift
        for c, count in holders.items():
            if count >= 2:
                new = (c << bits | p) << 1 | kind if c < p else (p << bits | c) << 1 | kind
                heappush(heap, new - (count << shift))

    def run(self) -> None:
        while True:
            key = self.best_pair()
            if key is None:
                return
            self.extract(key)

    def live_op_count(self) -> tuple[int, int]:
        """(mul, add) with one weight of 1 per node: each node counted once.

        By property 6 every node is reachable from a root, so this is the
        count of the shared DAG, taken in one pass over the node table.
        """
        return _cost(self.kinds, self.args, repeat(1))

    def occurrence_op_count(self) -> tuple[int, int]:
        """(mul, add) of the tree this arena unfolds to: no sharing.

        A node's weight is its number of paths from a root, so it counts
        once per occurrence, as ``tree_op_count`` counts the Horner tree.
        Valid before ``run`` only, while every child id is below the ids of
        the nodes that hold it.
        """
        kinds, args = self.kinds, self.args
        mult = [0] * len(kinds)
        for r in self.roots:
            mult[r] += 1
        for i in range(len(kinds) - 1, -1, -1):
            m = mult[i]
            k = kinds[i]
            if k in _AC:
                for c in args[i]:
                    mult[c] += m
            elif k == K_POW:
                mult[args[i][0]] += m
        return _cost(kinds, args, mult)

    def compact(self) -> Dag:
        """Renumber the nodes in depth-first post-order from the roots.

        Post-order puts every child before its parents, so it is
        topological. Arena nodes are distinct and the remapping is
        one-to-one, so the rebuilt nodes are distinct without re-interning.
        """
        kinds, args = [], []
        remap: dict[int, int] = {}
        # A node is pushed, then pushed again as ready above its children;
        # the graph is acyclic, so a ready node is never already renumbered.
        stack = [(r, False) for r in reversed(self.roots)]
        while stack:
            i, ready = stack.pop()
            if i in remap:
                continue
            k, arg = self.kinds[i], self.args[i]
            children = arg if k in _AC else arg[:1] if k == K_POW else ()
            if children and not ready:
                stack.append((i, True))
                stack += [(c, False) for c in reversed(children)]
                continue
            if k in _AC:
                arg = tuple(sorted(remap[c] for c in arg))
            elif k == K_POW:
                arg = (remap[arg[0]], arg[1])
            remap[i] = len(kinds)
            kinds.append(k)
            args.append(arg)
        return Dag(kinds, args, [remap[r] for r in self.roots])


# ---------------------------------------------------------------------------
# Counting, evaluation, export
# ---------------------------------------------------------------------------


def dag_op_count(d: Dag) -> OpCount:
    """Operation count with every node counted once: one weight of 1 per node.

    Every node of a ``Dag`` is reachable from a root, so this counts each
    shared subexpression exactly once.
    """
    return OpCount(*_cost(d.kinds, d.args, repeat(1)))


def _cost(kinds, args, weights) -> tuple[int, int]:
    """(mul, add) of the node table with node i counted ``weights[i]`` times.

    *weights* is one count per node, aligned with *kinds*. Same conventions
    as the tree count: k-ary add/mul nodes cost k-1, a power costs exp-1,
    and a +-1 constant factor inside a product is free.
    """
    mul = add = 0
    for k, a, w in zip(kinds, args, weights):
        if k == K_SUM:
            add += w * (len(a) - 1)
        elif k == K_PROD:
            free = 0
            for c in a:
                if kinds[c] == K_CONST and args[c][0] in (1, -1):
                    free += 1
            mul += w * (len(a) - 1 - free)
        elif k == K_POW:
            mul += w * (a[1] - 1)
    return mul, add


def eval_dag_mod_p(d: Dag, assignment: dict[int, int], p: int) -> int:
    """Memoized bottom-up evaluation; must agree with the source expression."""
    vals = [0] * d.node_count
    for i, (k, a) in enumerate(zip(d.kinds, d.args)):
        if k == K_VAR:
            if a[0] not in assignment:
                raise ValueError(f"no assignment for atom id {a[0]}")
            vals[i] = assignment[a[0]] % p
        elif k == K_CONST:
            vals[i] = a[0] % p
        elif k == K_POW:
            vals[i] = pow(vals[a[0]], a[1], p)
        elif k == K_PROD:
            v = 1
            for c in a:
                v = v * vals[c] % p
            vals[i] = v
        else:
            v = 0
            for c in a:
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

    Terms are stored once, as a coefficient list and one exponent column per
    atom id, both indexed by term; an atom that cancelled out has no
    column. Orders, the plan's factors and ``sub`` vectors, and trace
    entries all name variables by atom id.

    ``delta`` keeps one cache of (mul, add), ``cache``, which sweep workers
    relay. It maps an effective order (a tuple) to its count, so
    re-scoring a revisited path is a dictionary lookup, and the decision
    trace of a build (bytes, never equal to a tuple) to the count of its
    arena. On an order miss ``delta`` runs the decision walk, ``_plan``,
    which gives the trace and the plan. Only a trace miss interns the plan
    (``_intern``) and runs ``_Rewriter`` set-up, the elimination and the
    count. Many orders share a trace: the 5040 orders of res(3,2) make 828.

    The trace fixes the plan, and the plan fixes the arena. The walk takes
    its levels depth first, and a level is its term list ``ts`` and
    ``sub``; whether it has one, two, or three or more terms follows from
    its size. The order acts only through these decisions, each recorded
    as trace entries:

    - A level of three or more terms splits on the first variable in scan
      order that two or more of its terms hold beyond ``sub``, or is flat
      when none does. Given that variable (or the end marker), ``rest``,
      ``with_v``, the factor exponent, both sub-levels and the level's own
      steps follow from the level alone. The scan position ``j`` only
      bounds which variables later decisions can pick, and those picks are
      entries of their own.
    - A level of two terms factors out every variable both terms hold
      beyond ``sub``, in scan order. Those variables in that order, then
      the end marker, fix its ``_FACTOR`` steps, their order, the raised
      ``sub`` and its ``_PAIR`` step. The end marker alone, when they share
      no such variable, fixes its one ``_FLAT`` step: the sum of its two
      monomials under ``sub``.
    - A level of one term is one ``_FLAT`` step and makes no decision.

    By induction over the walk, equal traces visit the same levels in the
    same sequence and emit the same steps, so they give the same plan.
    ``_intern`` reads nothing of the order but the plan: ``monomial`` walks
    a term's exponents in atom-id order, and ``factor`` and ``const``
    memoize by atom id and by coefficient. So equal plans make the same
    ``intern`` calls and give the same arena, and ``run`` and
    ``live_op_count`` depend on the arena alone. The converse fails: two
    traces can give one arena, which is then eliminated once per trace.
    Entries are atom ids with ``len(e.atoms)`` as the end marker, stored
    in one, two or eight bytes each, as that marker needs, so the number
    of atoms is not capped. A trace is kept as bytes, which the garbage
    collector does not track.
    """

    def __init__(self, e: Expression):
        self._coeffs = [t.coeff for t in e.terms]
        self._exps = [t.exponents for t in e.terms]
        # One column per atom id, made when a term first holds the atom;
        # an atom that cancelled out keeps None.
        self._cols = cols = [None] * len(e.atoms)
        for i, t in enumerate(e.terms):
            for a, x in t.exponents:
                if cols[a] is None:
                    cols[a] = [0] * len(e.terms)
                cols[a][i] = x
        self.cache: dict[tuple[int, ...] | bytes, tuple[int, int]] = {}
        # Trace entries are atom ids and the end marker len(cols).
        self._trace_code = "B" if len(cols) < 1 << 8 else "H" if len(cols) < 1 << 16 else "Q"

    def delta(self, order: tuple[int, ...]) -> tuple[int, int]:
        """(mul, add) after Horner with this effective order plus elimination.

        ``order`` is a tuple of atom ids, already direction-adjusted.
        """
        hit = self.cache.get(order)
        if hit is None:
            trace, plan = self._plan(order)
            hit = self.cache.get(trace)
            if hit is None:
                rw = _Rewriter(*self._intern(plan))
                rw.run()
                hit = self.cache[trace] = rw.live_op_count()
            self.cache[order] = hit
        return hit

    def build(self, order: tuple[int, ...]) -> _Rewriter:
        """Arena of the Horner form for this effective order, before elimination."""
        return _Rewriter(*self._intern(self._plan(order)[1]))

    def _plan(self, order: tuple[int, ...]) -> tuple[bytes, tuple[list, list]]:
        """``(trace, plan)`` of the Horner form for *order*: the decision walk.

        A Horner level is a list of term indices ``ts`` plus ``sub``, the
        exponent already factored out of each variable on the path to it.
        The walk takes levels depth first from one task stack, so depth is
        not bounded by Python's recursion limit, and emits the steps that
        ``_intern`` replays, in the order in which the build interns nodes.
        A level of one term, of two that share no variable beyond ``sub``,
        or of three or more that no variable splits, is ``_FLAT``: the sum
        of its terms' monomials.

        A level of three or more terms splits on the first variable v in
        scan order that two or more of them hold beyond ``sub``. Its steps
        are those of ``rest``, the terms that hold v at exactly sub[v]
        (their scan resumes after v, at j + 1), then ``_ADDENDS`` when
        ``rest`` is not empty, then ``_FACTOR`` for ``v^e`` with e the
        smallest exponent of v beyond ``sub`` in ``with_v``, then the steps
        of ``with_v`` with sub[v] raised by e, then ``_CLOSE``. So the
        variable-free addend is interned first, then the extracted factor,
        then the quotient, as in the tree walk.

        A level of two terms t1 < t2 splits on v only when both hold v
        beyond ``sub``; then ``rest`` is empty and ``with_v`` is the same two
        terms with sub[v] raised to the smaller exponent, so v cannot split
        them again. The chain of such splits therefore interns, in scan
        order, one factor ``v^(min - sub[v])`` for each such v, then the
        cofactor monomials of t1 and of t2, then their sum. The walk emits
        a ``_FACTOR`` step for each such v, then one ``_PAIR`` step that
        names their number, which ``_intern`` replays in that order. With
        no such v, the level is ``_FLAT``, so a ``_PAIR`` step always
        closes a product of one or more factors and the sum.

        Every step is a tuple of ints, and every ``sub`` a tuple of ints in
        the side list ``subs``, which steps name by index. The collector
        stops tracking a tuple of ints at the first collection it survives,
        so a plan adds no work to later ones, however long ``_intern``
        takes. The plan is ``(steps, subs)``.

        The trace holds one entry per decision the order makes, in walk
        order, as atom ids with ``end = len(cols)``, the number of atoms, as
        the end marker: each level of three or more terms appends the
        variable it splits on, or ``end`` when it is flat; each two-term
        level appends the variables it factors out, in scan order, then
        ``end``.
        ``DeltaScorer`` gives the proof that the trace fixes the plan.
        """
        cols = self._cols
        trace = array(self._trace_code)
        record = trace.append
        end = len(cols)
        steps: list[tuple[int, ...]] = []
        emit = steps.append
        subs = [(0,) * end]
        n = len(self._coeffs)
        # Levels to walk, as (None, ts, sub index, scan position), and the
        # steps to emit once the levels above them on the stack are walked.
        todo = [(None, range(n), 0, 0)] if n else []
        while todo:
            task = todo.pop()
            if task[0] is not None:
                emit(task)
                continue
            _, ts, si, j = task
            sub = subs[si]
            if len(ts) == 2:
                t1, t2 = ts
                q = None
                first = len(steps)
                for v in order[j:]:
                    col = cols[v]
                    s = sub[v]
                    x1 = col[t1]
                    x2 = col[t2]
                    if x1 > s and x2 > s:
                        e = (x1 if x1 < x2 else x2) - s
                        record(v)
                        emit((_FACTOR, v, e))
                        if q is None:
                            q = list(sub)
                        q[v] += e
                record(end)
                if q is None:
                    emit((_FLAT, si, t1, t2))
                else:
                    emit((_PAIR, t1, t2, len(subs), len(steps) - first))
                    subs.append(tuple(q))
                continue
            if len(ts) == 1:
                emit((_FLAT, si, ts[0]))
                continue
            # A variable before order[j] occurs in fewer than two of the
            # parent's terms, so in fewer than two of ts, with the same
            # exponents.
            for j in range(j, len(order)):
                v = order[j]
                col, s = cols[v], sub[v]
                with_v = [t for t in ts if col[t] > s]
                if len(with_v) >= 2:
                    break
            else:
                record(end)
                emit((_FLAT, si, *ts))
                continue
            record(v)
            rest = [t for t in ts if col[t] == s]
            e = min(map(col.__getitem__, with_v)) - s
            q = list(sub)
            q[v] += e
            # Popped in walk order: rest's steps, _ADDENDS when rest is not
            # empty, _FACTOR, with_v's steps, _CLOSE.
            todo += [(_CLOSE, len(rest)), (None, with_v, len(subs), j), (_FACTOR, v, e)]
            subs.append(tuple(q))
            if rest:
                todo += [(_ADDENDS,), (None, rest, si, j + 1)]
        return trace.tobytes(), (steps, subs)

    def _intern(self, plan: tuple[list, list]) -> tuple[list, list, list]:
        """``(kinds, args, roots)``: the arena that *plan* interns.

        Same nodes and ids as ``build_dag(apply_scheme(...))``. Each step
        pushes one value on a stack: an open sum or product ``(kind, ids)``,
        which stays open until its parent interns it, so nested ones flatten
        as in the tree; a factor id (``_FACTOR``); or a split level's
        addends (``_ADDENDS``). ``_PAIR`` takes its ``nf >= 1`` factor ids
        and ``_CLOSE`` its level's factor, quotient and addends off the
        stack.

        Leaves are memoized for one build: factor ids per (variable,
        exponent) and constant ids per coefficient. A leaf's first use
        goes through ``intern``, so ids do not change. ``monomial`` walks
        only the term's own exponents, in atom-id order, and factor memos
        and ``sub`` vectors are indexed by atom id too. An empty plan is
        the empty expression, the constant 0.
        """
        steps, subs = plan
        coeffs, exps = self._coeffs, self._exps
        kinds: list[int] = []
        args: list[tuple] = []
        index: dict = {}
        factors: list[dict[int, int]] = [{} for _ in self._cols]  # v -> {exponent: id}
        consts: dict[int, int] = {}  # coefficient -> id

        def intern(kind, arg: tuple) -> int:
            key = (kind, arg)
            i = index.get(key)
            if i is None:
                i = len(kinds)
                kinds.append(kind)
                args.append(arg)
                index[key] = i
            return i

        def factor(v, e) -> int:
            memo = factors[v]
            i = memo.get(e)
            if i is None:
                i = intern(K_VAR, (v,))
                if e != 1:
                    i = intern(K_POW, (i, e))
                memo[e] = i
            return i

        def const(c) -> int:
            i = consts.get(c)
            if i is None:
                i = consts[c] = intern(K_CONST, (c,))
            return i

        def close(kind, ids) -> int:
            return ids[0] if len(ids) == 1 else intern(kind, tuple(sorted(ids)))

        def parts(val, kind) -> list[int]:
            """Ids *val* adds to an open *kind* node; a same-kind open node flattens."""
            return val[1] if val[0] == kind else [close(*val)]

        def monomial(t, sub) -> int:
            c = coeffs[t]
            ids = [const(c)] if c != 1 else []
            for v, x in exps[t]:
                x -= sub[v]
                if x > 0:
                    i = factors[v].get(x)
                    ids.append(factor(v, x) if i is None else i)
            if len(ids) > 1:
                return intern(K_PROD, tuple(sorted(ids)))
            return ids[0] if ids else const(1)

        vals: list = []
        push, pop = vals.append, vals.pop
        for step in steps:
            op = step[0]
            if op == _FLAT:
                sub = subs[step[1]]
                push((K_SUM, [monomial(t, sub) for t in step[2:]]))
            elif op == _FACTOR:
                push(factor(step[1], step[2]))
            elif op == _PAIR:
                _, t1, t2, si, nf = step
                m1 = monomial(t1, subs[si])
                m2 = monomial(t2, subs[si])
                fs = vals[-nf:]
                del vals[-nf:]
                fs.append(intern(K_SUM, (m1, m2) if m1 < m2 else (m2, m1)))
                push((K_PROD, fs))
            elif op == _ADDENDS:
                push(parts(pop(), K_SUM))
            else:  # _CLOSE: the quotient is on top of the factor, then the addends
                quotient = pop()
                prod = [pop()]
                prod += parts(quotient, K_PROD)
                if step[1]:
                    addends = pop()
                    addends.append(close(K_PROD, prod))
                    push((K_SUM, addends))
                else:
                    push((K_PROD, prod))
        return kinds, args, [close(*pop()) if vals else const(0)]


def simplify(e: Expression, s: Scheme) -> SimplifyResult:
    """Horner scheme, then sharing and pair extraction; ops is the score.

    Raises ValueError if the scheme names an atom absent from *e*.
    """
    check_scheme(e, s)
    rw = DeltaScorer(e).build(effective_order(s))
    horner_ops = OpCount(*rw.occurrence_op_count())
    rw.run()
    dag = rw.compact()
    return SimplifyResult(dag=dag, ops=dag_op_count(dag), horner_ops=horner_ops)
