"""Monte Carlo Tree Search over variable extraction orders.

Each tree node fixes one more variable of the scheme; a playout completes
the partial order with a uniformly random permutation of the unused
variables and scores the full scheme by the total operation count after
Horner and elimination. Selection follows one of two criteria. UCT keeps
the exploration constant C_p at every iteration. SA-UCT lowers it linearly
with the iteration i, to C_p*(N-i)/N over N tree updates, so early
iterations explore broadly and late ones deepen the best branch.

The best score ever seen is tracked over complete playout paths, which may
extend beyond the stored tree. A search is one run: all its randomness
flows through one PCG64 generator seeded ``params.seed``, so every result
is reproducible from (expression, params). The best of R runs at one C_p
is a one-point sweep (``sweep.SweepConfig`` with ``cp_min == cp_max`` and
``samples`` R), whose runs are seeded seed, seed+1, ... and share one
scorer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice, permutations

import numpy as np

from .cse import DeltaScorer
from .expr import Expression, OpCount, _integer_fields, naive_op_count, variables
from .horner import Direction, Scheme


class Criterion(Enum):
    """Selection criterion: fixed C_p (UCT) or linearly decaying C_p (SA-UCT)."""

    UCT = "uct"
    SA_UCT = "sa-uct"


@dataclass(frozen=True)
class SearchParams:
    cp: float
    n_updates: int
    criterion: Criterion = Criterion.SA_UCT
    direction: Direction = Direction.FORWARD
    seed: int = 0

    def __post_init__(self):
        _integer_fields(self, "n_updates", "seed")
        if not (math.isfinite(self.cp) and self.cp >= 0):
            raise ValueError("cp must be nonnegative and finite")
        if self.n_updates < 1:
            raise ValueError("n_updates must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not isinstance(self.criterion, Criterion):
            # temperature() tests identity, so "uct" would silently run SA-UCT.
            raise TypeError(f"criterion must be a Criterion, got {self.criterion!r}")
        if not isinstance(self.direction, Direction):
            # run_iteration tests identity, so "backward" would run forward.
            raise TypeError(f"direction must be a Direction, got {self.direction!r}")


class Node:
    """One tree position: the variable chosen at this depth plus statistics."""

    __slots__ = ("atom", "visits", "delta_sum", "children", "untried")

    def __init__(self, atom: int | None, untried: list[int]):
        self.atom = atom
        self.visits = 0
        self.delta_sum = 0
        self.children: list[Node] = []
        self.untried = untried


@dataclass
class SearchState:
    """Tree root plus the running best over all playouts."""

    root: Node
    naive_total: int
    scorer: DeltaScorer
    best_ops: OpCount | None = None
    best_order: tuple[int, ...] = ()
    deltas: list[int] = field(default_factory=list)


@dataclass(frozen=True)
class SearchResult:
    best_delta: OpCount
    best_scheme: Scheme
    deltas_per_iteration: list[int]
    iterations_run: int


def temperature(i: int, params: SearchParams) -> float:
    """Exploration temperature at iteration i under the selection criterion.

    UCT: cp at every iteration. SA-UCT: cp*(N-i)/N, so T(0)=cp and T(N)=0.
    """
    if params.criterion is Criterion.UCT:
        return params.cp
    n = params.n_updates
    t = params.cp * (n - i)
    # Past the float range the product is inf while cp*(N-i)/N is not.
    return t / n if t != math.inf else params.cp * ((n - i) / n)


def best_child(s: Node, t: float, naive_total: int, rng) -> Node:
    """argmax over expanded children c of score(c) + 2*t*sqrt(2*ln n(s)/n(c)).

    score(c) = naive_total * n(c) / delta_sum(c): the naive operation count
    over the mean playout count through c, so 1.0 means those playouts saved
    nothing and higher is better. A child whose playouts all count 0
    operations (delta_sum 0) scores 1.0. Every expanded child was visited
    when it was created, so n(c) >= 1. Exact value ties are broken uniformly
    at random.
    """
    if not s.children:
        raise ValueError("best_child on a node without expanded children")
    log_n = math.log(s.visits)
    best_val = -math.inf
    best_nodes: list[Node] = []
    for c in s.children:
        score = naive_total * c.visits / c.delta_sum if c.delta_sum else 1.0
        # 2.0 * t would overflow at a huge t and make 0 * inf NaN at n(s) = 1.
        val = score + t * (2.0 * math.sqrt(2.0 * log_n / c.visits))
        if val > best_val:
            best_val = val
            best_nodes = [c]
        elif val == best_val:
            best_nodes.append(c)
    if len(best_nodes) == 1:
        return best_nodes[0]
    return best_nodes[int(rng.integers(len(best_nodes)))]


def run_iteration(state: SearchState, i: int, params: SearchParams, rng) -> int:
    """One select/expand/simulate/backpropagate cycle; returns the playout score."""
    t = temperature(i, params)
    naive_total = state.naive_total
    node = state.root
    path = [node]
    order: list[int] = []
    # Selection: descend while fully expanded and not terminal.
    while not node.untried and node.children:
        node = best_child(node, t, naive_total, rng)
        path.append(node)
        order.append(node.atom)
    # Expansion: materialize one untried child.
    if node.untried:
        untried = node.untried
        k = int(rng.integers(len(untried)))
        atom = untried[k]
        untried[k] = untried[-1]
        untried.pop()
        # Unused variables below the new child: the parent's remaining
        # untried atoms plus its previously expanded siblings.
        remaining = sorted(untried + [c.atom for c in node.children])
        child = Node(atom, list(remaining))
        node.children.append(child)
        node = child
        path.append(node)
        order.append(atom)
        # Simulation: random completion of the scheme ("default policy").
        # Selection stops only at a terminal node, whose path is a full order.
        rng.shuffle(remaining)
        order.extend(remaining)
    playout = tuple(order)
    effective = playout[::-1] if params.direction is Direction.BACKWARD else playout
    mul, add = state.scorer.delta(effective)
    delta = mul + add
    # Backpropagation along the stored path, root included.
    for n in path:
        n.visits += 1
        n.delta_sum += delta
    if state.best_ops is None or delta < state.best_ops.total:
        state.best_ops = OpCount(mul=mul, add=add)
        state.best_order = playout
    state.deltas.append(delta)
    return delta


def search(e: Expression, params: SearchParams, scorer: DeltaScorer | None = None) -> SearchResult:
    """One run of ``params.n_updates`` iterations, seeded ``params.seed``.

    The best of several runs is a one-point sweep; see the module docstring.
    """
    vs = variables(e)
    if not vs:
        raise ValueError("expression has no variables to order")
    if scorer is None:
        scorer = DeltaScorer(e)
    rng = np.random.Generator(np.random.PCG64(params.seed))
    state = SearchState(root=Node(None, sorted(vs)), naive_total=naive_op_count(e).total, scorer=scorer)
    for i in range(params.n_updates):
        run_iteration(state, i, params, rng)
    return SearchResult(
        best_delta=state.best_ops,
        best_scheme=Scheme(state.best_order, params.direction),
        deltas_per_iteration=state.deltas,
        iterations_run=params.n_updates,
    )


def brute_force_search(
    e: Expression,
    direction: Direction = Direction.FORWARD,
    max_vars: int = 8,
) -> SearchResult:
    """Exhaustive minimum over all full extraction orders (lex-first ties).

    ``deltas_per_iteration`` holds every order's total, in the order
    ``itertools.permutations`` makes the orders.
    """
    if max_vars < 1:
        raise ValueError("max_vars must be >= 1")
    if not isinstance(direction, Direction):
        raise TypeError(f"direction must be a Direction, got {direction!r}")
    vs = variables(e)
    if not vs:
        raise ValueError("expression has no variables to order")
    if len(vs) > max_vars:
        raise ValueError(f"{len(vs)} variables exceeds brute-force guard {max_vars}")
    scorer = DeltaScorer(e)
    backward = direction is Direction.BACKWARD
    totals = [sum(scorer.delta(p[::-1] if backward else p)) for p in permutations(vs)]
    # index finds the first of equal totals: the lex-first optimal order.
    best_order = next(islice(permutations(vs), totals.index(min(totals)), None))
    mul, add = scorer.delta(best_order[::-1] if backward else best_order)
    return SearchResult(
        best_delta=OpCount(mul=mul, add=add),
        best_scheme=Scheme(best_order, direction),
        deltas_per_iteration=totals,
        iterations_run=len(totals),
    )
