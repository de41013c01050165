from itertools import permutations

import numpy as np
import pytest

from opmin.expr import OpCount, naive_op_count, parse, eval_mod_p, variables
from opmin.horner import (
    Const,
    Direction,
    Power,
    Product,
    Scheme,
    Sum,
    Var,
    apply_scheme,
    effective_order,
    occurrence_order,
    scheme_from_string,
    scheme_to_string,
    tree_op_count,
)

from test_expr import WORKED, random_expression

P31 = 2**31 - 1


def eval_tree(t, assignment, p):
    """Independent recursive tree evaluation oracle (mod p)."""
    if isinstance(t, Const):
        return t.value % p
    if isinstance(t, Var):
        return assignment[t.atom] % p
    if isinstance(t, Power):
        return pow(eval_tree(t.base, assignment, p), t.exp, p)
    if isinstance(t, Product):
        v = 1
        for c in t.children:
            v = v * eval_tree(c, assignment, p) % p
        return v
    v = 0
    for c in t.children:
        v = (v + eval_tree(c, assignment, p)) % p
    return v


def random_scheme(rng, e):
    vs = variables(e)
    k = int(rng.integers(0, len(vs) + 1))
    order = tuple(int(a) for a in rng.permutation(vs)[:k])
    direction = Direction.FORWARD if rng.random() < 0.5 else Direction.BACKWARD
    return Scheme(order, direction)


class TestEffectiveOrder:
    def test_forward_is_identity(self):
        assert effective_order(Scheme((1, 0), Direction.FORWARD)) == (1, 0)

    def test_backward_reverses(self):
        assert effective_order(Scheme((1, 0), Direction.BACKWARD)) == (0, 1)

    def test_empty(self):
        assert effective_order(Scheme((), Direction.FORWARD)) == ()

    def test_involution(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            order = tuple(int(a) for a in rng.permutation(int(rng.integers(1, 7))))
            back = Scheme(effective_order(Scheme(order, Direction.BACKWARD)), Direction.BACKWARD)
            assert effective_order(back) == order


class TestApplyScheme:
    def test_worked_example_xy(self):
        e = parse(WORKED)
        x, y, z = variables(e)
        tree = apply_scheme(e, Scheme((x, y)))
        # x^2 * (y + x*(y^2 + z))
        expected = Product(
            (
                Power(Var(x), 2),
                Sum((Var(y), Product((Var(x), Sum((Power(Var(y), 2), Var(z))))))),
            )
        )
        assert tree == expected
        assert tree_op_count(tree) == OpCount(mul=4, add=2)

    def test_worked_example_yx(self):
        e = parse(WORKED)
        x, y, z = variables(e)
        tree = apply_scheme(e, Scheme((y, x)))
        # x^3*z + y*x^2*(1 + x*y), products flattened
        expected = Sum(
            (
                Product((Power(Var(x), 3), Var(z))),
                Product(
                    (
                        Var(y),
                        Power(Var(x), 2),
                        Sum((Product((Var(x), Var(y))), Const(1))),
                    )
                ),
            )
        )
        assert tree == expected
        assert tree_op_count(tree) == OpCount(mul=7, add=2)

    def test_empty_scheme_is_flat(self):
        e = parse(WORKED)
        tree = apply_scheme(e, Scheme(()))
        assert isinstance(tree, Sum)
        assert len(tree.children) == 3
        assert all(isinstance(c, Product) for c in tree.children)
        assert tree_op_count(tree) == naive_op_count(e)

    def test_backward_uses_reversed_order(self):
        e = parse(WORKED)
        x, y, _ = variables(e)
        fwd = apply_scheme(e, Scheme((x, y), Direction.FORWARD))
        bwd = apply_scheme(e, Scheme((y, x), Direction.BACKWARD))
        assert fwd == bwd

    def test_unknown_scheme_atom_rejected(self):
        e = parse("x + y")
        with pytest.raises(ValueError, match="does not occur"):
            apply_scheme(e, Scheme((5,)))

    def test_partial_scheme(self):
        e = parse("x*y + x*z + y*z")
        x, _, _ = variables(e)
        tree = apply_scheme(e, Scheme((x,)))
        # x*(y + z) + y*z
        assert tree_op_count(tree) == OpCount(mul=2, add=2)

    def test_single_constant(self):
        assert apply_scheme(parse("5"), Scheme(())) == Const(5)

    def test_negative_unit_coefficient_free(self):
        e = parse("-x*y + z")
        tree = apply_scheme(e, Scheme(()))
        assert tree_op_count(tree) == OpCount(mul=1, add=1)


class TestTreeOpCount:
    def test_single_atom(self):
        assert tree_op_count(Var(0)) == OpCount(mul=0, add=0)

    def test_power_costs_exp_minus_one(self):
        assert tree_op_count(Power(Var(0), 5)) == OpCount(mul=4, add=0)

    def test_constant_factor_counts_as_child(self):
        t = Product((Const(7), Var(0), Var(1)))
        assert tree_op_count(t) == OpCount(mul=2, add=0)


class TestProperties:
    def test_addition_preservation(self):
        rng = np.random.default_rng(2025)
        for _ in range(1000):
            e = random_expression(rng)
            s = random_scheme(rng, e)
            assert tree_op_count(apply_scheme(e, s)).add == naive_op_count(e).add

    def test_multiplication_monotonicity(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            e = random_expression(rng)
            s = random_scheme(rng, e)
            assert tree_op_count(apply_scheme(e, s)).mul <= naive_op_count(e).mul

    def test_semantic_preservation(self):
        rng = np.random.default_rng(3)
        for _ in range(250):
            e = random_expression(rng)
            s = random_scheme(rng, e)
            tree = apply_scheme(e, s)
            for _ in range(20):
                pts = {a: int(rng.integers(0, P31)) for a in variables(e)}
                assert eval_tree(tree, pts, P31) == eval_mod_p(e, pts, P31)


class TestOccurrenceOrder:
    def test_worked_example(self):
        e = parse(WORKED)
        x, y, z = variables(e)
        # hand oracle: term membership counts x=3, y=2, z=1
        counts = {
            a: sum(1 for t in e.terms if any(b == a for b, _ in t.exponents))
            for a in (x, y, z)
        }
        assert counts == {x: 3, y: 2, z: 1}
        assert occurrence_order(e).order == (x, y, z)

    def test_single_variable(self):
        e = parse("x")
        assert occurrence_order(e).order == (variables(e)[0],)

    def test_tie_broken_by_atom_id(self):
        e = parse("x*y + x*y^2")
        x, y = variables(e)
        assert occurrence_order(e).order == (x, y)

    def test_direction_is_forward(self):
        assert occurrence_order(parse("x + y")).direction is Direction.FORWARD

    def test_zero_expression_gets_the_empty_order(self):
        assert occurrence_order(parse("x - x")).order == ()


class TestSchemeSerialization:
    def test_round_trip(self):
        e = parse(WORKED)
        x, y, _ = variables(e)
        s = Scheme((y, x), Direction.BACKWARD)
        text = scheme_to_string(s, e.atoms)
        assert text == "y,x;backward"
        assert scheme_from_string(text, e.atoms) == s

    def test_direction_optional(self):
        e = parse("x + y")
        s = scheme_from_string("y,x", e.atoms)
        assert s.direction is Direction.FORWARD

    def test_default_direction_only_without_separator(self):
        e = parse("x + y")
        backward = Direction.BACKWARD
        assert scheme_from_string("y,x", e.atoms, default=backward) == Scheme((1, 0), backward)
        assert scheme_from_string("y,x;forward", e.atoms, default=backward).direction is Direction.FORWARD

    @pytest.mark.parametrize("direction", list(Direction))
    def test_function_atoms_round_trip(self, direction):
        # "," and ";" inside an atom's parentheses are part of the atom.
        e = parse("h(f(x,y);z)*f(x,y) + g(a;b)*h(f(x,y);z) + f(x,y)*g(a;b)*z + 3*z*g(a;b)")
        texts = {e.atoms.text(a) for a in variables(e)}
        assert texts == {"f(x,y)", "g(a;b)", "h(f(x,y);z)", "z"}
        for order in permutations(variables(e)):
            s = Scheme(order, direction)
            assert scheme_from_string(scheme_to_string(s, e.atoms), e.atoms) == s

    @pytest.mark.parametrize("direction", list(Direction))
    def test_function_atom_names_read_as_the_parser_reads_them(self, direction):
        # Each spelling, in the expression or in the scheme, names f(x,y).
        spellings = ["f(x, y)", "f (x,y)", "f(x,y)"]
        for in_expr in spellings:
            e = parse(f"{in_expr}*z + {in_expr} + z*w + 2*w*{in_expr}")
            want = Scheme(tuple(e.atoms.id_of(n) for n in ("f(x,y)", "z", "w")), direction)
            for in_scheme in spellings:
                assert scheme_from_string(f"{in_scheme},z,w;{direction.value}", e.atoms) == want
                assert scheme_from_string(f" {in_scheme} , z,w", e.atoms, default=direction) == want

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x;forward;x", "direction must be one of forward, backward, got 'forward;x'"),
            ("f(x,y;forward", "unknown atom 'f(x,y;forward'"),
            ("f(x", "unknown atom 'f(x'"),
        ],
        ids=["two-separators", "unclosed-with-direction", "unclosed"],
    )
    def test_malformed_text_rejected(self, text, message):
        e = parse("f(x,y) + x")
        with pytest.raises(ValueError) as exc:
            scheme_from_string(text, e.atoms)
        assert str(exc.value) == message

    def test_duplicate_atoms_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Scheme((1, 1))

    def test_unknown_atom_rejected(self):
        e = parse("x + y")
        with pytest.raises(ValueError, match="unknown atom 'w'"):
            scheme_from_string("w", e.atoms)

    @pytest.mark.parametrize("text", ["x;", "x; "], ids=["empty", "blank"])
    def test_empty_direction_after_the_separator_rejected(self, text):
        # The separator, not the text after it, decides that a direction
        # was given.
        e = parse("x + y")
        with pytest.raises(ValueError) as exc:
            scheme_from_string(text, e.atoms)
        assert str(exc.value) == "direction must be one of forward, backward, got ''"
