"""Horner-scheme application: factoring variables out of an expression.

A scheme is an ordered list of variables. Applying it rewrites the flat sum
of terms into a nested tree: at each level the first scheme variable that
occurs in at least two of the current terms is pulled out at its minimal
exponent, splitting the terms into a variable-free addend and a bracketed
quotient. Both parts are processed again with the full order, so a variable
whose power spans several terms gets extracted repeatedly (x^2 then x),
while a variable left in a single term stays inline where a later variable
can still be factored across it. Extraction changes the multiplication
count only; additions are preserved exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .expr import Expression, OpCount, AtomTable, variables


class Direction(Enum):
    """Whether the scheme order is used as-is or reversed (inside-out)."""

    FORWARD = "forward"
    BACKWARD = "backward"


@dataclass(frozen=True)
class Scheme:
    """Extraction order (atom ids, possibly a strict prefix) plus direction."""

    order: tuple[int, ...]
    direction: Direction = Direction.FORWARD

    def __post_init__(self):
        object.__setattr__(self, "order", tuple(self.order))
        if len(set(self.order)) != len(self.order):
            raise ValueError("scheme order contains duplicate atoms")


# ---------------------------------------------------------------------------
# Expression trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sum:
    children: tuple

    def __post_init__(self):
        if len(self.children) < 2:
            raise ValueError("Sum needs at least 2 children")


@dataclass(frozen=True)
class Product:
    children: tuple

    def __post_init__(self):
        if len(self.children) < 2:
            raise ValueError("Product needs at least 2 children")


@dataclass(frozen=True)
class Power:
    base: object
    exp: int

    def __post_init__(self):
        if self.exp < 2:
            raise ValueError("Power exponent must be >= 2")


@dataclass(frozen=True)
class Var:
    atom: int


@dataclass(frozen=True)
class Const:
    value: int


ExprTree = Sum | Product | Power | Var | Const


def sum_node(children: list) -> object:
    """Sum with nested sums flattened; collapses singletons."""
    flat = []
    for c in children:
        if isinstance(c, Sum):
            flat.extend(c.children)
        else:
            flat.append(c)
    if not flat:
        return Const(0)
    if len(flat) == 1:
        return flat[0]
    return Sum(tuple(flat))


def product_node(children: list) -> object:
    """Product with nested products flattened and unit factors dropped."""
    flat = []
    for c in children:
        if isinstance(c, Product):
            flat.extend(c.children)
        elif isinstance(c, Const) and c.value == 1:
            continue
        else:
            flat.append(c)
    if not flat:
        return Const(1)
    if len(flat) == 1:
        return flat[0]
    return Product(tuple(flat))


# ---------------------------------------------------------------------------
# Scheme application
# ---------------------------------------------------------------------------


def effective_order(s: Scheme) -> tuple[int, ...]:
    """The order actually extracted: reversed for backward schemes."""
    if s.direction is Direction.BACKWARD:
        return tuple(reversed(s.order))
    return s.order


def check_scheme(e: Expression, s: Scheme) -> None:
    """Raise ValueError if the scheme names an atom absent from *e*."""
    present = set(variables(e))
    for a in s.order:
        if a not in present:
            raise ValueError(
                f"scheme atom {e.atoms.text(a) if a < len(e.atoms) else a!r}"
                " does not occur in the expression"
            )


def apply_scheme(e: Expression, s: Scheme) -> object:
    """Rewrite *e* as a nested tree following scheme *s*.

    Raises ValueError if the scheme names an atom absent from *e*. Variables
    not in the scheme are never extracted; with an empty scheme the result is
    the flat sum-of-products tree.
    """
    check_scheme(e, s)
    if not e.terms:
        return Const(0)
    packed = [(t.coeff, dict(t.exponents)) for t in e.terms]
    return _build(packed, effective_order(s))


def _build(terms: list, order: tuple[int, ...]) -> object:
    if len(terms) == 1:
        return _monomial(terms[0])
    for v in order:
        with_v = [t for t in terms if v in t[1]]
        if len(with_v) < 2:
            continue
        e = min(t[1][v] for t in with_v)
        rest = [t for t in terms if v not in t[1]]
        quotient = []
        for c, exps in with_v:
            q = dict(exps)
            if q[v] == e:
                del q[v]
            else:
                q[v] -= e
            quotient.append((c, q))
        factor = Var(v) if e == 1 else Power(Var(v), e)
        extracted = product_node([factor, _build(quotient, order)])
        if rest:
            return sum_node([_build(rest, order), extracted])
        return extracted
    return sum_node([_monomial(t) for t in terms])


def _monomial(term) -> object:
    coeff, exps = term
    if not exps:
        return Const(coeff)
    factors = []
    if coeff != 1:
        factors.append(Const(coeff))
    for a in sorted(exps):
        factors.append(Var(a) if exps[a] == 1 else Power(Var(a), exps[a]))
    return product_node(factors)


# ---------------------------------------------------------------------------
# Counting and baselines
# ---------------------------------------------------------------------------


def tree_op_count(t: object) -> OpCount:
    """Per-occurrence operation count of a tree (no sharing).

    A product of k factors costs k-1 multiplications, except that a +-1
    constant factor is free: the sign folds into the surrounding addition,
    matching the naive-count convention for coefficients.
    """
    mul = add = 0
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, Sum):
            add += len(node.children) - 1
            stack.extend(node.children)
        elif isinstance(node, Product):
            free = sum(
                1 for c in node.children if isinstance(c, Const) and abs(c.value) == 1
            )
            mul += len(node.children) - 1 - free
            stack.extend(node.children)
        elif isinstance(node, Power):
            mul += node.exp - 1
            stack.append(node.base)
    return OpCount(mul=mul, add=add)


def occurrence_order(e: Expression) -> Scheme:
    """Baseline: variables ordered by how many terms they occur in.

    Descending occurrence count, ties broken by ascending atom id; forward.
    """
    if not e.terms:
        raise ValueError("occurrence order of the zero expression is undefined")
    counts: dict[int, int] = {}
    for t in e.terms:
        for a, _ in t.exponents:
            counts[a] = counts.get(a, 0) + 1
    order = sorted(counts, key=lambda a: (-counts[a], a))
    return Scheme(tuple(order), Direction.FORWARD)


# ---------------------------------------------------------------------------
# Serialization ("y,x;forward")
# ---------------------------------------------------------------------------


def scheme_to_string(s: Scheme, atoms: AtomTable) -> str:
    return ",".join(atoms.text(a) for a in s.order) + ";" + s.direction.value


def scheme_from_string(text: str, atoms: AtomTable) -> Scheme:
    """Parse "y,x;forward"; the direction part may be omitted (forward)."""
    order_part, _, dir_part = text.partition(";")
    direction = Direction(dir_part.strip()) if dir_part else Direction.FORWARD
    names = [n.strip() for n in order_part.split(",") if n.strip()]
    return Scheme(tuple(atoms.id_of(n) for n in names), direction)
