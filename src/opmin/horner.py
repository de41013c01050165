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

from .expr import Expression, OpCount, AtomTable, canonical_atom, variables


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
    """The tree of distinct, nonzero *terms*.

    Two or more terms build a sum or a product, so a quotient is never a
    leaf or a constant 1. Only the quotient's product and the addend's sum
    can be of their parent's kind, and only they are flattened into it.
    """
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
        inner = _build(quotient, order)
        extracted = Product((factor, *inner.children) if isinstance(inner, Product) else (factor, inner))
        if not rest:
            return extracted
        addend = _build(rest, order)
        return Sum((*addend.children, extracted) if isinstance(addend, Sum) else (addend, extracted))
    return Sum(tuple(_monomial(t) for t in terms))


def _monomial(term) -> object:
    coeff, exps = term
    if not exps:
        return Const(coeff)
    factors = [Const(coeff)] if coeff != 1 else []
    factors += [Var(a) if exps[a] == 1 else Power(Var(a), exps[a]) for a in sorted(exps)]
    return factors[0] if len(factors) == 1 else Product(tuple(factors))


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
    counts: dict[int, int] = {}
    for t in e.terms:
        for a, _ in t.exponents:
            counts[a] = counts.get(a, 0) + 1
    order = sorted(counts, key=lambda a: (-counts[a], a))
    return Scheme(tuple(order), Direction.FORWARD)


# ---------------------------------------------------------------------------
# Serialization ("y,x;forward")
# ---------------------------------------------------------------------------


def order_to_string(order: tuple[int, ...], atoms: AtomTable) -> str:
    """The order as atom texts joined by commas: "y,x"."""
    return ",".join(atoms.text(a) for a in order)


def scheme_to_string(s: Scheme, atoms: AtomTable) -> str:
    return order_to_string(s.order, atoms) + ";" + s.direction.value


def _split_outside_parens(text: str, sep: str, maxsplit: int = -1) -> list[str]:
    """``text.split(sep, maxsplit)``, cutting only where no parenthesis encloses.

    A function atom's text is ``ident(balanced text)`` and may hold "," or ";".
    """
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if ch == sep and depth == 0 and len(parts) != maxsplit:
            parts.append(text[start:i])
            start = i + 1
    return [*parts, text[start:]]


def scheme_from_string(text: str, atoms: AtomTable, default: Direction = Direction.FORWARD) -> Scheme:
    """Parse "y,x;forward"; text without ";" is a scheme in direction *default*.

    Only a "," or ";" outside parentheses separates: "f(x,y),z" names the
    atoms f(x,y) and z. A name is read as the parser reads an atom, so
    "f (x, y)" also names f(x,y). Raises ValueError, naming the directions,
    when the text after ";" is not one of them, also when it is empty: "x;"
    is not a forward scheme.
    """
    order_part, *dir_part = _split_outside_parens(text, ";", 1)
    direction = dir_part[0].strip() if dir_part else default.value
    valid = [d.value for d in Direction]
    if direction not in valid:
        raise ValueError(f"direction must be one of {', '.join(valid)}, got {direction!r}")
    names = [n.strip() for n in _split_outside_parens(order_part, ",") if n.strip()]
    return Scheme(tuple(atoms.id_of(canonical_atom(n)) for n in names), Direction(direction))
