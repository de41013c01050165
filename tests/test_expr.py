import gc
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from collections.abc import Iterator
from pathlib import Path

import numpy as np
import pytest

import opmin
from opmin.benchgen import resultant_expr
from opmin.cse import simplify
from opmin.horner import Scheme
from opmin.expr import (
    AtomTable,
    Expression,
    OpCount,
    ParseError,
    Term,
    _canonical_terms,
    canonical_atom,
    eval_mod_p,
    naive_op_count,
    parse,
    to_string,
    variables,
)

P31 = 2**31 - 1

WORKED = "x^3*y^2 + x^2*y + x^3*z"
SINCOS = "sin(x) + cos(x) + sin(x)*x + cos(x)*x"

# Malformed text -> (message, position) of the ParseError it raises.
REJECTED = {
    "": ("empty expression", 0),
    "   ": ("empty expression", 0),
    "x +": ("expected integer or atom", 3),
    "* x": ("expected integer or atom", 0),
    "x + - y": ("expected integer or atom", 4),
    "x ^ 0": ("exponent must be a positive integer", 4),
    "x^-2": ("expected integer exponent after '^'", 2),
    "x^": ("expected integer exponent after '^'", 2),
    "2^3": ("expected '+' or '-' between terms", 1),
    "x y": ("expected '+' or '-' between terms", 2),
    "x^2^3": ("expected '+' or '-' between terms", 3),
    "(x)": ("unexpected character '('", 0),
    "x & y": ("unexpected character '&'", 2),
    "x + \0": ("unexpected character '\\x00'", 4),
    "x + sin (x": ("unbalanced '(' in function atom", 8),
    # A lexical error anywhere wins over a grammar error before it: parse
    # lexes the rest of the text before it raises its own error.
    "x y &": ("unexpected character '&'", 4),
    "x + + y ²": ("unexpected character '²'", 8),
    "x ^ y &": ("unexpected character '&'", 6),
    "x * * sin(y": ("unbalanced '(' in function atom", 9),
}


# ---------------------------------------------------------------------------
# The reference parser, built the other way round from parse: a generator
# lexer, and a parser that takes its tokens one at a time and drains the
# lexer after a grammar error. parse must return, and raise, what it does:
# the same terms and atom order, the same messages at the same positions.
# ---------------------------------------------------------------------------

_INT, _ATOM, _OP, _END = "int", "atom", "op", "end"


def _tokenize(text: str) -> Iterator[tuple[str, object, int]]:
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*^":
            yield (_OP, ch, i)
            i += 1
            continue
        if ch.isdecimal():  # int() takes these; isdigit() also admits '²'
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            try:
                val = int(text[i:j])
            except ValueError:  # past sys.get_int_max_str_digits()
                limit = sys.get_int_max_str_digits()
                raise ParseError(f"integer literal longer than {limit} digits", i) from None
            yield (_INT, val, i)
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            k = j
            while k < n and text[k].isspace():
                k += 1
            if k < n and text[k] == "(":
                # Opaque function atom: capture balanced parens.
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
                yield (_ATOM, canonical_atom(text[i : m + 1]), i)
                i = m + 1
            else:
                yield (_ATOM, text[i:j], i)
                i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    yield (_END, None, n)


def reference_parse(text: str) -> Expression:
    """Parse expression text into canonical form over a fresh atom table.

    Tokens are streamed from the lexer, and like terms are merged as they
    are read, so no token list or term list is built. On malformed text the
    ParseError raised is the first lexical error anywhere in the text (an
    unexpected character, an unbalanced function atom, an over-long integer
    literal), else the first grammar error. A ValueError is raised when a
    merged coefficient is too long for str() to print.
    """
    atoms = AtomTable()
    toks = _tokenize(text)
    try:
        merged = _read_terms(toks, atoms)
    except ParseError:
        for _ in toks:  # a lexical error later in the text is raised instead
            pass
        raise
    return Expression(atoms, _canonical_terms(merged))


def _read_terms(toks: Iterator[tuple[str, object, int]], atoms: AtomTable) -> dict[tuple[tuple[int, int], ...], int]:
    """Read the token stream into a dict from sorted exponent tuple to
    coefficient, interning atoms in text order."""
    take, intern = toks.__next__, atoms.intern
    kind, val, pos = take()
    if kind == _END:
        raise ParseError("empty expression", 0)

    # Only operator tokens carry '+', '-', '*' or '^' as their value.
    coeff, exps, merged = 1, {}, {}
    if val in ("+", "-"):
        coeff = -1 if val == "-" else 1
        kind, val, pos = take()
    while True:
        if kind == _INT:
            coeff *= val
            kind, val, pos = take()
        elif kind == _ATOM:
            aid = intern(val)
            kind, val, pos = take()
            e = 1
            if val == "^":
                kind, e, pos = take()
                if kind != _INT:
                    raise ParseError("expected integer exponent after '^'", pos)
                if e < 1:
                    raise ParseError("exponent must be a positive integer", pos)
                kind, val, pos = take()
            exps[aid] = exps.get(aid, 0) + e
        else:
            raise ParseError("expected integer or atom", pos)
        if val == "*":
            kind, val, pos = take()
            continue
        key = tuple(sorted(exps.items()))
        merged[key] = merged.get(key, 0) + coeff
        if kind == _END:
            return merged
        if val not in ("+", "-"):
            raise ParseError("expected '+' or '-' between terms", pos)
        coeff, exps = -1 if val == "-" else 1, {}
        kind, val, pos = take()



def brute_factor_count(e: Expression) -> OpCount:
    """Independent oracle: expand each term into an explicit factor list and
    count one multiplication per factor joint, one addition per term joint."""
    mul = 0
    for t in e.terms:
        factors = []
        if abs(t.coeff) != 1 or t.is_constant():
            factors.append(abs(t.coeff))
        for a, exp in t.exponents:
            factors.extend([a] * exp)
        if t.is_constant():
            continue
        mul += len(factors) - 1
    return OpCount(mul=mul, add=max(len(e.terms) - 1, 0))


def eval_term_list(terms, assignment, p):
    """Oracle evaluation over a raw (possibly unmerged) term list."""
    acc = 0
    for coeff, exps in terms:
        v = coeff % p
        for a, e in exps:
            v = v * pow(assignment[a], e, p) % p
        acc = (acc + v) % p
    return acc


def random_expression(rng, n_vars=4, max_terms=8, max_exp=4, coeff_range=9):
    atoms = AtomTable()
    aids = [atoms.intern(f"x{i}") for i in range(n_vars)]
    terms = []
    for _ in range(int(rng.integers(1, max_terms + 1))):
        exps = tuple(
            (a, int(rng.integers(1, max_exp + 1)))
            for a in aids
            if rng.random() < 0.6
        )
        c = int(rng.integers(1, coeff_range + 1)) * (1 if rng.random() < 0.5 else -1)
        terms.append(Term(c, exps))
    e = Expression.from_terms(atoms, terms)
    if not e.terms:  # all terms cancelled; retry deterministically
        return random_expression(rng, n_vars, max_terms, max_exp, coeff_range)
    return e


class TestParse:
    def test_worked_example(self):
        e = parse(WORKED)
        assert len(e.terms) == 3
        assert [e.atoms.text(a) for a in variables(e)] == ["x", "y", "z"]

    def test_like_terms_merge(self):
        e = parse("x + x")
        assert len(e.terms) == 1
        assert e.terms[0].coeff == 2

    def test_opaque_function_atoms(self):
        e = parse(SINCOS)
        assert len(e.terms) == 4
        assert [e.atoms.text(a) for a in variables(e)] == ["sin(x)", "cos(x)", "x"]

    def test_function_atom_whitespace_canonicalized(self):
        e = parse("sin( x ) + sin(x)")
        assert len(e.terms) == 1
        assert e.terms[0].coeff == 2

    def test_nested_function_atom(self):
        e = parse("f(g(x), y) * 2")
        assert e.atoms.text(variables(e)[0]) == "f(g(x),y)"

    def test_repeated_atom_multiplies(self):
        assert parse("x*x*x") == parse("x^3")

    def test_cancellation_to_zero(self):
        e = parse("x - x")
        assert e.terms == ()
        assert to_string(e) == "0"

    @pytest.mark.parametrize("text", list(REJECTED))
    def test_rejects(self, text):
        message, position = REJECTED[text]
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value) == f"{message} (at position {position})"
        assert exc.value.position == position

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="int() has no digit limit here",
    )
    def test_integer_literal_over_the_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        with pytest.raises(ParseError) as exc:
            parse("x + " + "9" * (limit + 1) + "*y")
        assert str(exc.value) == f"integer literal longer than {limit} digits (at position 4)"
        assert exc.value.position == 4

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="int() has no digit limit here",
    )
    @pytest.mark.parametrize("template", ["{a}*{a}*x + y", "{a}*x + {a}*x"], ids=["product", "merged-sum"])
    def test_coefficient_over_the_digit_limit(self, template):
        # Each literal is within the limit; the coefficient they make is not.
        limit = sys.get_int_max_str_digits()
        a = "9" * limit
        with pytest.raises(ValueError) as exc:
            parse(template.format(a=a))
        assert str(exc.value) == f"coefficient longer than {limit} digits"
        assert to_string(parse(f"{a}*x")) == f"{a}*x"  # at the limit still prints

    def test_random_texts_parse_to_their_terms(self):
        # Each case writes a text and, alongside, the atoms in first-seen
        # order and the terms that text must parse to.
        rng = random.Random(2013)
        spaces = ["", "", " ", "\t", " \n "]
        pool = [  # (text as written, canonical atom text)
            ("x", "x"),
            ("y", "y"),
            ("_a1", "_a1"),
            ("z²", "z²"),
            ("sin(x)", "sin(x)"),
            ("sin (\tx )", "sin(x)"),
            ("f( g (x) , y )", "f(g(x),y)"),
        ]
        for _ in range(400):
            atoms, terms, toks = AtomTable(), [], []
            for t in range(rng.randint(1, 5)):
                sign = 1
                if t or rng.random() < 0.5:
                    sign = rng.choice([1, -1])
                    toks.append("-" if sign < 0 else "+")
                coeff, exps = sign, {}
                for f in range(rng.randint(1, 4)):
                    if f:
                        toks.append("*")
                    if rng.random() < 0.3:
                        c = rng.randint(0, 12)
                        coeff *= c
                        toks.append(str(c))
                        continue
                    written, canonical = rng.choice(pool)
                    aid = atoms.intern(canonical)
                    toks.append(written)
                    e = 1
                    if rng.random() < 0.5:
                        e = rng.randint(1, 3)
                        toks += ["^", str(e)]
                    exps[aid] = exps.get(aid, 0) + e
                terms.append(Term(coeff, tuple(exps.items())))
            text = "".join(rng.choice(spaces) + tok for tok in toks) + rng.choice(spaces)
            e = parse(text)
            assert [e.atoms.text(a) for a in range(len(e.atoms))] == [
                atoms.text(a) for a in range(len(atoms))
            ], text
            assert e.terms == Expression.from_terms(atoms, terms).terms, text

    def test_a_lexical_error_anywhere_wins(self):
        # parse raises what lexing the whole text first would raise: the
        # lexer's ParseError if it has one, else the parser's own.
        rng = random.Random(30)
        pool = list("xyab_0129+-*^(),²&") + ["\t", " ", "sin(", "f(x, y)", "10"]
        lexical = grammar_first = 0
        for _ in range(4000):
            text = "".join(rng.choice(pool) for _ in range(rng.randint(0, 12)))
            try:
                list(_tokenize(text))
                continue
            except ParseError as exc:
                want = (str(exc), exc.position)
            with pytest.raises(ParseError) as got:
                parse(text)
            assert (str(got.value), got.value.position) == want, text
            lexical += 1
            try:  # does the text before the lexical error fail the grammar?
                parse(text[: want[1]])
            except ParseError as exc:
                grammar_first += exc.position < want[1]
        assert lexical > 2000 and grammar_first > 500, (lexical, grammar_first)

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="int() has no digit limit here",
    )
    def test_parse_agrees_with_the_reference_parser(self):
        # Seeded strings, half drawn uniformly from a pool of characters
        # and atoms, half written from the grammar with up to two token
        # mutations. Under a 640-digit limit some literals are too long,
        # and some products of two literals make too long a coefficient.
        rng = random.Random(31)
        pool = list("xyab_0129+-*^(),²&\0") + ["\t", " ", "sin(", "f(x, y)", "f (x)", "10", "9" * 641]
        written = ["x", "y", "_a1", "z²", "sin(x)", "sin (\tx )", "f(x, y)", "f (x)", "f( g (x) , y )"]
        mutations = list("+-*^(),²& \t") + ["sin(", "x", "0", "99"]

        def from_grammar():
            toks = []
            for t in range(rng.randint(1, 5)):
                if t or rng.random() < 0.5:
                    toks.append(rng.choice("+-"))
                for f in range(rng.randint(1, 4)):
                    if f:
                        toks.append("*")
                    if rng.random() < 0.3:
                        toks.append("9" * rng.randint(300, 700) if rng.random() < 0.1 else str(rng.randint(0, 12)))
                        continue
                    toks.append(rng.choice(written))
                    if rng.random() < 0.4:
                        toks += ["^", str(0 if rng.random() < 0.1 else rng.randint(1, 3))]
            for _ in range(rng.choice([0, 0, 1, 2])):
                k = rng.randrange(len(toks))
                if rng.random() < 0.5:
                    toks.insert(k, rng.choice(mutations))
                else:
                    toks[k] = rng.choice(mutations)
            return "".join(rng.choice(["", "", " ", "\t", " \n "]) + tok for tok in toks)

        def outcome(parse_text, text):
            try:
                e = parse_text(text)
            except ParseError as exc:
                return ("ParseError", str(exc), exc.position)
            except ValueError as exc:
                return ("ValueError", str(exc))
            return ("ok", to_string(e), [e.atoms.text(a) for a in range(len(e.atoms))])

        kinds = Counter()
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            for k in range(20000):
                if k % 2:
                    text = "".join(rng.choice(pool) for _ in range(rng.randint(0, 16)))
                else:
                    text = from_grammar()
                want = outcome(reference_parse, text)
                assert outcome(parse, text) == want, text
                kinds[want[0] if want[0] != "ParseError" else want[1].split(" (at ")[0]] += 1
        finally:
            sys.set_int_max_str_digits(limit)
        messages = [
            "empty expression",
            "expected integer or atom",
            "expected integer exponent after '^'",
            "exponent must be a positive integer",
            "expected '+' or '-' between terms",
            "unbalanced '(' in function atom",
            "integer literal longer than 640 digits",
        ]
        assert all(kinds[m] > 100 for m in messages), kinds
        assert kinds["ok"] > 4000 and kinds["ValueError"] > 10, kinds

    def test_parse_peaks_below_three_times_what_it_keeps(self):
        # The token stream is never listed and the terms are not copied
        # before canonicalization, so the peak is close to the result.
        text = to_string(resultant_expr(6, 4))
        gc.collect()  # empty the free lists, so retained memory is live memory
        tracemalloc.start()
        try:
            e = parse(text)
            peak = tracemalloc.get_traced_memory()[1]
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(e.terms) == 1233
        assert peak < 3 * retained, (peak, retained)

    @pytest.mark.parametrize(
        "written, canonical",
        [
            ("x", "x"),
            ("f(x,y)", "f(x,y)"),
            ("f(x, y)", "f(x,y)"),
            ("f (\tx ,y )", "f(x,y)"),
            ("f(x", "f(x"),  # not an atom: the lookup that follows refuses it
            ("x y(z)", "x y(z)"),  # two atoms: left as written
        ],
    )
    def test_canonical_atom(self, written, canonical):
        assert canonical_atom(written) == canonical

    def test_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse("x + ?")
        assert exc.value.position == 4

    @pytest.mark.parametrize("text, position", [("x^²", 2), ("2²*x", 1), ("²", 0)])
    def test_superscript_digit_is_an_unexpected_character(self, text, position):
        with pytest.raises(ParseError, match="unexpected character '²'") as exc:
            parse(text)
        assert exc.value.position == position

    def test_superscript_digit_continues_an_identifier(self):
        e = parse("x² + 2*x²")
        assert [e.atoms.text(a) for a in variables(e)] == ["x²"]
        assert [t.coeff for t in e.terms] == [3]


class TestNaiveOpCount:
    def test_worked_example_is_nine_and_two(self):
        assert naive_op_count(parse(WORKED)) == OpCount(mul=9, add=2)

    def test_single_atom(self):
        assert naive_op_count(parse("x")) == OpCount(mul=0, add=0)

    def test_coefficient_costs_one(self):
        e = parse("7*x^2*y + 3")
        expected = brute_factor_count(e)
        assert expected == OpCount(mul=3, add=1)
        assert naive_op_count(e) == expected

    def test_unit_negative_coefficient_is_free(self):
        assert naive_op_count(parse("-x*y + z")) == OpCount(mul=1, add=1)

    def test_matches_brute_factor_count(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            e = random_expression(rng)
            assert naive_op_count(e) == brute_factor_count(e)

    def test_add_is_terms_minus_one(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            e = random_expression(rng)
            assert naive_op_count(e).add == len(e.terms) - 1


class TestEval:
    def test_all_ones_sums_coefficients(self):
        e = parse(WORKED)
        ones = {a: 1 for a in variables(e)}
        assert eval_mod_p(e, ones, P31) == 3

    def test_zero_base(self):
        e = parse("x^2")
        assert eval_mod_p(e, {variables(e)[0]: 0}, P31) == 0

    def test_worked_point(self):
        e = parse(WORKED)
        x, y, z = variables(e)
        # direct integer arithmetic: 8*9 + 4*3 + 8*5
        assert 8 * 9 + 4 * 3 + 8 * 5 == 124
        assert eval_mod_p(e, {x: 2, y: 3, z: 5}, P31) == 124

    def test_missing_assignment(self):
        e = parse("x*y")
        with pytest.raises(ValueError, match="no assignment"):
            eval_mod_p(e, {variables(e)[0]: 1}, P31)

    def test_linear_over_term_concatenation(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            atoms = AtomTable()
            x0, x1, x2 = (atoms.intern(f"x{i}") for i in range(3))
            e1 = Expression.from_terms(atoms, [Term(1, ((x0, 1), (x1, 1))), Term(3, ((x2, 1),))])
            e2 = random_expression(rng)
            # rebuild e2 over the shared table
            e2 = Expression.from_terms(
                atoms,
                [Term(t.coeff, tuple((atoms.intern(e2.atoms.text(a)), x) for a, x in t.exponents)) for t in e2.terms],
            )
            combined = Expression.from_terms(atoms, e1.terms + e2.terms)
            pts = {a: int(rng.integers(0, P31)) for a in range(len(atoms))}
            lhs = eval_mod_p(combined, pts, P31)
            rhs = (eval_mod_p(e1, pts, P31) + eval_mod_p(e2, pts, P31)) % P31
            assert lhs == rhs

    def test_merge_preserves_eval(self):
        rng = np.random.default_rng(5)
        atoms = AtomTable()
        aids = [atoms.intern(f"x{i}") for i in range(3)]
        raw = []
        for _ in range(6):
            exps = tuple((a, int(rng.integers(1, 3))) for a in aids if rng.random() < 0.5)
            raw.append((int(rng.integers(-5, 6)), exps))
        raw.extend(raw[:3])  # duplicate monomials to force merging
        e = Expression.from_terms(atoms, [Term(c, x) for c, x in raw])
        for _ in range(20):
            pts = {a: int(rng.integers(0, P31)) for a in aids}
            assert eval_mod_p(e, pts, P31) == eval_term_list(raw, pts, P31)


class TestFromTerms:
    def test_repeated_atom_in_a_term_is_one_factor(self):
        atoms = AtomTable()
        x = atoms.intern("x")
        e = Expression.from_terms(atoms, [Term(1, ((x, 1), (x, 2))), Term(2, ((x, 1),))])
        ref = parse("x^3 + 2*x")
        assert to_string(e) == to_string(ref) == "x^3 + 2*x"
        assert naive_op_count(e) == naive_op_count(ref) == OpCount(mul=3, add=1)
        ops = simplify(ref, Scheme((ref.atoms.id_of("x"),))).ops
        assert simplify(e, Scheme((x,))).ops == ops == OpCount(mul=2, add=1)

    def test_negative_exponent_is_refused_before_summing(self):
        atoms = AtomTable()
        x = atoms.intern("x")
        with pytest.raises(ValueError, match="^negative exponent$"):
            Expression.from_terms(atoms, [Term(1, ((x, 2), (x, -1)))])


class TestVariables:
    def test_worked_example(self):
        e = parse(WORKED)
        assert [e.atoms.text(a) for a in variables(e)] == ["x", "y", "z"]

    def test_constant_has_none(self):
        assert variables(parse("3")) == []

    def test_interning_order(self):
        e = parse(SINCOS)
        assert variables(e) == [0, 1, 2]


class TestToString:
    @pytest.mark.parametrize("text", [WORKED, "-x", "x + x", SINCOS, "3", "-7*x^2 + y - 4"])
    def test_round_trip(self, text):
        e = parse(text)
        assert parse(to_string(e)) == e

    def test_negative_leading_term(self):
        assert to_string(parse("-x")) == "-x"

    def test_merged_output(self):
        assert to_string(parse("x + x")) == "2*x"

    def test_round_trip_random(self):
        rng = np.random.default_rng(31337)
        for _ in range(300):
            e = random_expression(rng)
            assert parse(to_string(e)) == e


def dense_key(t: Term, n: int):
    """The canonical order's reference key: degree, then the exponent of
    each atom id below *n*, 0 where the term lacks the atom."""
    dense = [0] * n
    for a, e in t.exponents:
        dense[a] = e
    return (t.degree, tuple(dense))


class TestCanonicalOrder:
    def test_terms_sort_as_by_the_dense_key(self):
        rng = np.random.default_rng(2222)
        for _ in range(1200):
            e = random_expression(
                rng,
                n_vars=int(rng.integers(1, 9)),
                max_terms=int(rng.integers(1, 25)),
                max_exp=int(rng.integers(1, 4)),
            )
            n = 1 + max((a for t in e.terms for a, _ in t.exponents), default=-1)
            want = sorted(e.terms, key=lambda t: dense_key(t, n), reverse=True)
            assert list(e.terms) == want
            shuffled = list(e.terms)
            rng.shuffle(shuffled)
            assert Expression.from_terms(e.atoms, shuffled).terms == e.terms

    def test_wide_linear_form_parses_in_bounded_memory(self):
        # 20,000 terms over 20,000 variables: a dense key per term would
        # need 20,000 * 20,000 exponent slots, and fails under this limit.
        code = """
import resource
from opmin.expr import parse
text = " + ".join(f"x{i}" for i in range(20000))
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
print(len(parse(text).terms))
"""
        env = dict(os.environ, PYTHONPATH=str(Path(opmin.__file__).resolve().parent.parent))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "20000\n"
