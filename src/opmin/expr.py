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

from dataclasses import dataclass


class ParseError(ValueError):
    """Raised on malformed expression text; carries the character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


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

    def __contains__(self, text: str) -> bool:
        return text in self._ids

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
        """Build a canonical expression, merging like terms."""
        merged: dict[tuple[tuple[int, int], ...], int] = {}
        for t in terms:
            exps = tuple(sorted((a, e) for a, e in t.exponents if e != 0))
            if any(e < 0 for _, e in exps):
                raise ValueError("negative exponent")
            merged[exps] = merged.get(exps, 0) + t.coeff
        kept = [Term(c, exps) for exps, c in merged.items() if c != 0]
        n = 1 + max((a for t in kept for a, _ in t.exponents), default=-1)

        def key(t: Term):
            dense = [0] * n
            for a, e in t.exponents:
                dense[a] = e
            return (t.degree, tuple(dense))

        kept.sort(key=key, reverse=True)
        return cls(atoms, tuple(kept))

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


# ---------------------------------------------------------------------------
# Parsing
#
# expr   := ('+'|'-')? term (('+'|'-') term)*
# term   := factor ('*' factor)*
# factor := integer | atom ('^' positive-integer)?
# atom   := identifier | identifier '(' balanced-text ')'
# ---------------------------------------------------------------------------

_INT, _ATOM, _OP, _END = "int", "atom", "op", "end"


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*^":
            toks.append((_OP, ch, i))
            i += 1
            continue
        if ch.isdecimal():  # int() takes these; isdigit() also admits '²'
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            toks.append((_INT, int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            ident = text[i:j]
            k = j
            while k < n and text[k].isspace():
                k += 1
            if k < n and text[k] == "(":
                # Opaque function atom: capture balanced parens, canonicalize
                # by stripping all interior whitespace.
                depth, m = 0, k
                while m < n:
                    if text[m] == "(":
                        depth += 1
                    elif text[m] == ")":
                        depth -= 1
                        if depth == 0:
                            break
                    m += 1
                if depth != 0:
                    raise ParseError("unbalanced '(' in function atom", k)
                inner = "".join(text[k + 1 : m].split())
                toks.append((_ATOM, f"{ident}({inner})", i))
                i = m + 1
            else:
                toks.append((_ATOM, ident, i))
                i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    toks.append((_END, None, n))
    return toks


class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def take(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect_int(self, what: str) -> int:
        kind, val, pos = self.take()
        if kind != _INT:
            raise ParseError(f"expected {what}", pos)
        return val


def parse(text: str, atoms: AtomTable | None = None) -> Expression:
    """Parse expression text into canonical form.

    An existing ``AtomTable`` may be passed to share atom ids across related
    expressions; by default each parse gets a fresh table.
    """
    if atoms is None:
        atoms = AtomTable()
    p = _Parser(_tokenize(text))
    if p.peek()[0] == _END:
        raise ParseError("empty expression", 0)

    terms = []
    sign = 1
    if p.peek()[0] == _OP and p.peek()[1] in "+-":
        sign = -1 if p.take()[1] == "-" else 1
    while True:
        terms.append(_parse_term(p, atoms, sign))
        kind, val, pos = p.peek()
        if kind == _END:
            break
        if kind == _OP and val in "+-":
            p.take()
            sign = -1 if val == "-" else 1
            continue
        raise ParseError("expected '+' or '-' between terms", pos)
    return Expression.from_terms(atoms, terms)


def _parse_term(p: _Parser, atoms: AtomTable, sign: int) -> Term:
    coeff = sign
    exps: dict[int, int] = {}
    while True:
        kind, val, pos = p.take()
        if kind == _INT:
            coeff *= val
        elif kind == _ATOM:
            aid = atoms.intern(val)
            e = 1
            if p.peek()[0] == _OP and p.peek()[1] == "^":
                p.take()
                epos = p.peek()[2]
                e = p.expect_int("integer exponent after '^'")
                if e < 1:
                    raise ParseError("exponent must be a positive integer", epos)
            exps[aid] = exps.get(aid, 0) + e
        else:
            raise ParseError("expected integer or atom", pos)
        if p.peek()[0] == _OP and p.peek()[1] == "*":
            p.take()
            continue
        return Term(coeff, tuple(sorted(exps.items())))


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
