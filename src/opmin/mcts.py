"""Monte Carlo Tree Search over variable extraction orders.

Each tree node fixes one more variable of the scheme; a playout completes
the partial order with a uniformly random permutation of the unused
variables and scores the full scheme by the total operation count after
Horner and elimination. Selection uses the UCT rule with an exploration
temperature that follows a schedule (SA-UCT): with a decaying schedule early
iterations explore broadly and late ones deepen the best branch; with the
constant schedule SA-UCT is plain UCT.

The best score ever seen is tracked over complete playout paths, which may
extend beyond the stored tree. All randomness flows through one seeded
PCG64 generator per run; repeated runs use consecutive seeds, so every
result is reproducible from (expression, params).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import permutations

import numpy as np

from .cse import DeltaScorer
from .expr import Expression, OpCount, naive_op_count, variables
from .horner import Direction, Scheme


@dataclass(frozen=True)
class Schedule:
    """Temperature schedule: linear decay, exponential halving, or constant."""

    kind: str
    half_life: float | None = None

    LINEAR = "linear"
    EXPONENTIAL = "exp"
    CONSTANT = "const"

    @classmethod
    def linear(cls) -> "Schedule":
        return cls(cls.LINEAR)

    @classmethod
    def exponential(cls, half_life: float) -> "Schedule":
        if half_life <= 0:
            raise ValueError("half-life must be positive")
        return cls(cls.EXPONENTIAL, half_life)

    @classmethod
    def constant(cls) -> "Schedule":
        return cls(cls.CONSTANT)

    @classmethod
    def from_string(cls, text: str) -> "Schedule":
        """Parse "linear", "const", or "exp:<halflife>"."""
        if text == cls.LINEAR:
            return cls.linear()
        if text == cls.CONSTANT:
            return cls.constant()
        if text.startswith("exp:"):
            return cls.exponential(float(text[4:]))
        raise ValueError(f"unknown schedule {text!r}")

    @property
    def criterion(self) -> str:
        """Output label: "uct" for the constant schedule, else "sa-uct"."""
        return "uct" if self.kind == self.CONSTANT else "sa-uct"

    def __str__(self) -> str:
        if self.kind == self.EXPONENTIAL:
            return f"exp:{self.half_life:g}"
        return self.kind


@dataclass(frozen=True)
class SearchParams:
    cp: float
    n_updates: int
    repeats: int = 1
    schedule: Schedule = Schedule.linear()
    direction: Direction = Direction.FORWARD
    seed: int = 0

    def __post_init__(self):
        if self.cp < 0:
            raise ValueError("cp must be nonnegative")
        if self.n_updates < 1:
            raise ValueError("n_updates must be >= 1")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")


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
    """Exploration temperature at iteration i per the configured schedule.

    Linear: cp*(N-i)/N, so T(0)=cp and T(N)=0. Exponential: cp*2^(-i/h).
    Constant: cp, which makes SA-UCT coincide with plain UCT.
    """
    sched = params.schedule
    if sched.kind == Schedule.LINEAR:
        n = params.n_updates
        return params.cp * (n - i) / n
    if sched.kind == Schedule.EXPONENTIAL:
        return params.cp * 2.0 ** (-i / sched.half_life)
    return params.cp


def node_score(c: Node, naive_total: int) -> float:
    """Normalized quality: naive ops divided by the mean playout ops.

    1.0 means playouts through this node saved nothing; higher is better.
    """
    if c.visits < 1:
        raise ValueError("unvisited node has no score")
    if c.delta_sum == 0:
        return 1.0  # degenerate zero-op expression
    return naive_total * c.visits / c.delta_sum


def best_child(s: Node, t: float, naive_total: int, rng) -> Node:
    """argmax over expanded children of score + 2*t*sqrt(2*ln n(s)/n(c)).

    Exact value ties are broken uniformly at random.
    """
    if not s.children:
        raise ValueError("best_child on a node without expanded children")
    log_n = math.log(s.visits)
    best_val = -math.inf
    best_nodes: list[Node] = []
    for c in s.children:
        val = node_score(c, naive_total) + 2.0 * t * math.sqrt(2.0 * log_n / c.visits)
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
    else:
        remaining = []
    # Simulation: random completion of the scheme ("default policy").
    if remaining:
        suffix = np.array(remaining, dtype=np.int64)
        rng.shuffle(suffix)
        playout = tuple(order) + tuple(int(a) for a in suffix)
    else:
        playout = tuple(order)
    if params.direction is Direction.BACKWARD:
        effective = tuple(reversed(playout))
    else:
        effective = playout
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
    """Run n_updates tree iterations and return the best scheme found."""
    vs = variables(e)
    if not vs:
        raise ValueError("expression has no variables to order")
    if scorer is None:
        scorer = DeltaScorer(e)
    rng = np.random.Generator(np.random.PCG64(params.seed))
    state = SearchState(
        root=Node(None, sorted(vs)),
        naive_total=naive_op_count(e).total,
        scorer=scorer,
    )
    for i in range(params.n_updates):
        run_iteration(state, i, params, rng)
    return SearchResult(
        best_delta=state.best_ops,
        best_scheme=Scheme(state.best_order, params.direction),
        deltas_per_iteration=state.deltas,
        iterations_run=params.n_updates,
    )


def repeat_search(e: Expression, params: SearchParams, scorer: DeltaScorer | None = None) -> SearchResult:
    """Best of R independent runs seeded seed, seed+1, ...; ties keep the earliest."""
    if scorer is None:
        scorer = DeltaScorer(e)
    best: SearchResult | None = None
    for r in range(params.repeats):
        run = replace(params, seed=params.seed + r, repeats=1)
        result = search(e, run, scorer=scorer)
        if best is None or result.best_delta.total < best.best_delta.total:
            best = result
    return best


def brute_force_search(
    e: Expression,
    direction: Direction = Direction.FORWARD,
    max_vars: int = 8,
    scorer: DeltaScorer | None = None,
) -> SearchResult:
    """Exhaustive minimum over all full extraction orders (lex-first ties)."""
    vs = variables(e)
    if not vs:
        raise ValueError("expression has no variables to order")
    if len(vs) > max_vars:
        raise ValueError(f"{len(vs)} variables exceeds brute-force guard {max_vars}")
    if scorer is None:
        scorer = DeltaScorer(e)
    best_ops: OpCount | None = None
    best_order: tuple[int, ...] = ()
    count = 0
    for perm in permutations(vs):
        effective = tuple(reversed(perm)) if direction is Direction.BACKWARD else perm
        mul, add = scorer.delta(effective)
        count += 1
        if best_ops is None or mul + add < best_ops.total:
            best_ops = OpCount(mul=mul, add=add)
            best_order = perm
    return SearchResult(
        best_delta=best_ops,
        best_scheme=Scheme(best_order, direction),
        deltas_per_iteration=[],
        iterations_run=count,
    )


def result_to_json_dict(result: SearchResult, params: SearchParams, atoms) -> dict:
    """Wire format for search results."""
    return {
        "best_total": result.best_delta.total,
        "best_mul": result.best_delta.mul,
        "best_add": result.best_delta.add,
        "scheme": ",".join(atoms.text(a) for a in result.best_scheme.order),
        "direction": params.direction.value,
        "criterion": params.schedule.criterion,
        "cp": params.cp,
        "n_updates": params.n_updates,
        "repeats": params.repeats,
        "seed": params.seed,
    }
