"""Sparse multivariate expressions with integer coefficients.

An expression is a flat sum of terms; each term is an arbitrary-precision
integer coefficient together with a sparse exponent map over interned atoms.
Atoms are either plain identifiers (``x``, ``b2``) or opaque function calls
(``sin(x)``) that are treated as indivisible symbols.

The module provides parsing, canonicalization (like-term merging, stable
term order), the naive operation count of the unoptimized sum-of-products
form, and exact evaluation modulo a prime, which serves as the semantic
equivalence oracle for every downstream rewrite.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass


class ParseError(ValueError):
    """Raised on malformed expression text; carries the character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _integer_fields(obj, *names: str) -> None:
    """Store each named field of the frozen dataclass *obj* as a plain int.

    A bool or a non-integer such as 2.5 is refused with a ValueError that
    names the field; an integer type such as numpy's becomes int.
    """
    for name in names:
        value = getattr(obj, name)
        try:
            if isinstance(value, bool):
                raise TypeError
            object.__setattr__(obj, name, operator.index(value))
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class OpCount:
    """Multiplication/addition counts; subtraction counts as an addition."""

    mul: int
    add: int

    @property
    def total(self) -> int:
        return self.mul + self.add

    def __str__(self) -> str:
        return f"{self.mul} mul + {self.add} add = {self.total}"


class AtomTable:
    """Interns atom texts to dense integer ids in first-seen order.

    Distinct texts get distinct ids; the same text always maps back to the
    same id. Tables are append-only, so sharing one across expressions is
    safe for concurrent readers.
    """

    def __init__(self):
        self._ids: dict[str, int] = {}
        self._texts: list[str] = []

    def intern(self, text: str) -> int:
        if not text:
            raise ValueError("atom text must be non-empty")
        aid = self._ids.get(text)
        if aid is None:
            aid = len(self._texts)
            self._ids[text] = aid
            self._texts.append(text)
        return aid

    def id_of(self, text: str) -> int:
        try:
            return self._ids[text]
        except KeyError:
            raise ValueError(f"unknown atom {text!r}") from None

    def text(self, aid: int) -> str:
        return self._texts[aid]

    def __len__(self) -> int:
        return len(self._texts)


@dataclass(frozen=True)
class Term:
    """coeff * product of atom^exp; exponents sorted by atom id, all >= 1."""

    coeff: int
    exponents: tuple[tuple[int, int], ...]

    @property
    def degree(self) -> int:
        return sum(e for _, e in self.exponents)

    def is_constant(self) -> bool:
        return not self.exponents


class Expression:
    """Canonical sum of terms over an atom table.

    Canonical means: like terms merged, zero coefficients dropped, and terms
    ordered by descending (degree, exponent vector) so output and iteration
    order are deterministic. Instances are immutable after construction.
    """

    __slots__ = ("atoms", "terms")

    def __init__(self, atoms: AtomTable, terms: tuple[Term, ...]):
        self.atoms = atoms
        self.terms = terms

    @classmethod
    def from_terms(cls, atoms: AtomTable, terms) -> "Expression":
        """Build a canonical expression, merging repeated atoms and like terms."""
        merged: dict[tuple[tuple[int, int], ...], int] = {}
        for t in terms:
            # An atom repeated in a term is one factor: x*x^2 is x^3.
            powers: dict[int, int] = {}
            for a, e in t.exponents:
                if e < 0:
                    raise ValueError("negative exponent")
                if e:
                    powers[a] = powers.get(a, 0) + e
            exps = tuple(sorted(powers.items()))
            merged[exps] = merged.get(exps, 0) + t.coeff
        return cls(atoms, _canonical_terms(merged))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Expression):
            return NotImplemented
        return self._text_terms() == other._text_terms()

    def __hash__(self):
        return hash(self._text_terms())

    def _text_terms(self) -> frozenset:
        # Atom ids depend on interning order, so equality compares terms
        # resolved back to atom texts.
        return frozenset(
            (t.coeff, frozenset((self.atoms.text(a), e) for a, e in t.exponents))
            for t in self.terms
        )

    def __repr__(self) -> str:
        return f"Expression({to_string(self)!r})"


def _canonical_terms(merged: dict[tuple[tuple[int, int], ...], int]) -> tuple[Term, ...]:
    """The canonical terms of *merged*, a dict from sorted exponent tuple to
    coefficient: zero coefficients dropped, the rest in canonical order."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    big = max(map(abs, merged.values()), default=0)
    # Refuse a coefficient that str() cannot print. 8**limit < 10**limit,
    # so the power is built only for a coefficient near the limit.
    if limit and big.bit_length() > 3 * limit and big >= 10**limit:
        raise ValueError(f"coefficient longer than {limit} digits")
    kept = [Term(c, exps) for exps, c in merged.items() if c != 0]

    def key(t: Term):
        # Orders like (degree, dense exponent vector) without building
        # the vector: at the first atom where two terms differ, the one
        # that holds it (-a is larger than any later -b), or holds it
        # to a higher power, is larger.
        k = [t.degree]
        for a, e in t.exponents:
            k += (-a, e)
        return k

    kept.sort(key=key, reverse=True)
    return tuple(kept)


# ---------------------------------------------------------------------------
# Parsing
#
# expr   := ('+'|'-')? term (('+'|'-') term)*
# term   := factor ('*' factor)*
# factor := integer | atom ('^' positive-integer)?
# atom   := identifier | identifier '(' balanced-text ')'
#
# parse is one loop over the characters, which lexes each factor where the
# grammar expects one, then its '^' exponent and the '*', '+' or '-' after
# it; whitespace may stand between any two of these. Errors are reported as
# if the whole text were lexed first: the first lexical error anywhere, else
# the first grammar error. So after a grammar error the loop keeps lexing
# the rest of the text with no grammar actions, and raises the grammar
# error only at the end.
# ---------------------------------------------------------------------------


def canonical_atom(written: str) -> str:
    """The text that the atom *written* is interned as.

    A function atom loses the whitespace before its '(' and all whitespace
    inside its parentheses: "f (x, y)" is "f(x,y)". Text without '(' is
    returned as it is.
    """
    head, paren, rest = written.partition("(")
    if not paren:
        return written
    return head.strip() + paren + "".join(rest.split())


def _long_literal(pos: int) -> ParseError:
    limit = sys.get_int_max_str_digits()
    return ParseError(f"integer literal longer than {limit} digits", pos)


def parse(text: str) -> Expression:
    """Parse expression text into canonical form over a fresh atom table.

    Like terms are merged as they are read, so no token list or term list
    is built. On malformed text the ParseError raised is the first lexical
    error anywhere in the text (an unexpected character, an unbalanced
    function atom, an over-long integer literal), else the first grammar
    error. A ValueError is raised when a merged coefficient is too long for
    str() to print.
    """
    atoms = AtomTable()
    intern, n, i = atoms.intern, len(text), 0
    # A sentinel ends the scans over spaces, digits and names without a
    # bounds test; a "\0" in the text itself is an unexpected character.
    text += "\0"
    while text[i].isspace():
        i += 1
    if i == n:
        raise ParseError("empty expression", 0)
    coeff, exps, merged = 1, {}, {}
    if text[i] in "+-":
        coeff = -1 if text[i] == "-" else 1
        i += 1
    err = None  # the first grammar error; once set, the loop only lexes
    while True:
        # A factor, or after a grammar error any token.
        pos, ch = i, text[i]
        if ch.isalpha() or ch == "_":
            j = i + 1
            while text[j].isalnum() or text[j] == "_":
                j += 1
            i = j
            while text[i].isspace():
                i += 1
            if text[i] == "(":
                # Opaque function atom: capture balanced parens.
                depth, m = 1, i + 1
                while depth and m < n:
                    depth += (text[m] == "(") - (text[m] == ")")
                    m += 1
                if depth:
                    raise ParseError("unbalanced '(' in function atom", i)
                name, i = canonical_atom(text[pos:m]), m
                while text[i].isspace():
                    i += 1
            else:
                name = text[pos:j]
            if err:
                continue
            aid, e = intern(name), 1
            if text[i] == "^":
                i += 1
                while text[i].isspace():
                    i += 1
                pos = i
                if not text[i].isdecimal():
                    err = ParseError("expected integer exponent after '^'", pos)
                    continue
                i += 1
                while text[i].isdecimal():
                    i += 1
                try:
                    e = int(text[pos:i])
                except ValueError:  # past sys.get_int_max_str_digits()
                    raise _long_literal(pos) from None
                if e < 1:
                    err = ParseError("exponent must be a positive integer", pos)
                    continue
            exps[aid] = exps.get(aid, 0) + e
        elif ch.isdecimal():  # int() takes these; isdigit() also admits '²'
            i += 1
            while text[i].isdecimal():
                i += 1
            try:
                val = int(text[pos:i])
            except ValueError:
                raise _long_literal(pos) from None
            if err:
                continue
            coeff *= val
        elif ch in "+-*^":
            i += 1
            if not err:
                err = ParseError("expected integer or atom", pos)
            continue
        elif ch.isspace():
            i += 1
            continue
        elif i == n:
            raise err or ParseError("expected integer or atom", n)
        else:
            raise ParseError(f"unexpected character {ch!r}", pos)
        # After a factor: '*', '+', '-' or the end.
        while text[i].isspace():
            i += 1
        ch = text[i]
        if ch == "*":
            i += 1
            continue
        key = tuple(sorted(exps.items()))
        merged[key] = merged.get(key, 0) + coeff
        if ch in "+-":
            coeff, exps = -1 if ch == "-" else 1, {}
            i += 1
        elif i == n:
            return Expression(atoms, _canonical_terms(merged))
        else:
            err = ParseError("expected '+' or '-' between terms", i)


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------


def variables(e: Expression) -> list[int]:
    """Atom ids that occur with a nonzero exponent, in id order."""
    seen = {a for t in e.terms for a, _ in t.exponents}
    return sorted(seen)


def naive_op_count(e: Expression) -> OpCount:
    """Operation count of the unoptimized sum-of-products form.

    Each term costs (sum of exponents - 1) multiplications plus one more if
    |coeff| != 1; bare constants cost nothing. A sign alone is free: it folds
    into the subtraction, which is why -1 coefficients add no multiplication.
    """
    mul = 0
    for t in e.terms:
        if t.is_constant():
            continue
        mul += t.degree - 1
        if abs(t.coeff) != 1:
            mul += 1
    return OpCount(mul=mul, add=max(len(e.terms) - 1, 0))


def eval_mod_p(e: Expression, assignment: dict[int, int], p: int) -> int:
    """Evaluate in Z/pZ with every atom (including opaque calls) free.

    ``assignment`` maps atom id to residue and must cover all atoms of *e*.
    """
    acc = 0
    for t in e.terms:
        v = t.coeff % p
        for a, exp in t.exponents:
            if a not in assignment:
                raise ValueError(f"no assignment for atom {e.atoms.text(a)!r}")
            v = v * pow(assignment[a], exp, p) % p
        acc = (acc + v) % p
    return acc


def to_string(e: Expression) -> str:
    """Canonical text form; ``parse(to_string(e)) == e``."""
    if not e.terms:
        return "0"
    parts = []
    for i, t in enumerate(e.terms):
        mag = abs(t.coeff)
        factors = []
        if mag != 1 or t.is_constant():
            factors.append(str(mag))
        for a, exp in t.exponents:
            text = e.atoms.text(a)
            factors.append(text if exp == 1 else f"{text}^{exp}")
        body = "*".join(factors)
        if i == 0:
            parts.append(body if t.coeff >= 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if t.coeff >= 0 else f" - {body}")
    return "".join(parts)
