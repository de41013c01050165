import numpy as np
import pytest

from opmin.expr import (
    AtomTable,
    Expression,
    OpCount,
    ParseError,
    Term,
    eval_mod_p,
    naive_op_count,
    parse,
    to_string,
    variables,
)

P31 = 2**31 - 1

WORKED = "x^3*y^2 + x^2*y + x^3*z"
SINCOS = "sin(x) + cos(x) + sin(x)*x + cos(x)*x"


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

    @pytest.mark.parametrize(
        "text",
        ["", "   ", "x +", "* x", "x ^ 0", "x^-2", "2^3", "x y", "(x)", "x & y"],
    )
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse(text)

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
            e1 = parse("x0*x1 + 3*x2", atoms)
            e2 = random_expression(rng)
            # rebuild e2 over the shared table
            e2 = parse(to_string(e2), atoms)
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
