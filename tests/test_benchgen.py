import numpy as np
import pytest

from opmin.benchgen import (
    PRESETS,
    RandomExprParams,
    preset_expr,
    random_expr,
    resultant_expr,
    sylvester_entries,
)
from opmin.expr import eval_mod_p, naive_op_count, parse, to_string, variables

from test_expr import brute_factor_count

P31 = 2**31 - 1


def sympy_resultant_expression(m, n):
    """Independent oracle: expand det(Sylvester) with sympy and reparse."""
    import sympy

    a = sympy.symbols(f"a0:{m + 1}")
    b = sympy.symbols(f"b0:{n + 1}")
    size = m + n
    M = [[0] * size for _ in range(size)]
    for r in range(n):
        for i in range(m + 1):
            M[r][r + i] = a[m - i]
    for r in range(m):
        for i in range(n + 1):
            M[n + r][r + i] = b[n - i]
    det = sympy.expand(sympy.Matrix(M).det(method="berkowitz"))
    text = str(det).replace("**", "^")
    return parse(text)


def poly_coeffs_mod_p(roots_free, shared_root, rng, p):
    """Coefficients of (x - shared_root) * (random polynomial), mod p."""
    coeffs = [int(rng.integers(1, p))]  # leading coefficient, nonzero
    for _ in range(roots_free):
        coeffs.append(int(rng.integers(0, p)))
    # multiply by (x - shared_root)
    out = [0] * (len(coeffs) + 1)
    for i, c in enumerate(coeffs):
        out[i] = (out[i] + c) % p
        out[i + 1] = (out[i + 1] - c * shared_root) % p
    return out  # highest degree first


class TestResultant:
    def test_res_1_1(self):
        assert resultant_expr(1, 1) == parse("a1*b0 - a0*b1")

    def test_res_2_1(self):
        assert resultant_expr(2, 1) == parse("a2*b0^2 - a1*b0*b1 + a0*b1^2")

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)])
    def test_matches_sympy_oracle(self, m, n):
        assert resultant_expr(m, n) == sympy_resultant_expression(m, n)

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (4, 3), (7, 5)])
    def test_variable_count(self, m, n):
        e = resultant_expr(m, n)
        assert len(variables(e)) == m + n + 2

    def test_vanishes_on_common_root(self):
        rng = np.random.default_rng(123)
        for trial in range(20):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(1, 5))
            e = resultant_expr(m, n)
            r = int(rng.integers(0, P31))
            a_coeffs = poly_coeffs_mod_p(m - 1, r, rng, P31)  # degree m
            b_coeffs = poly_coeffs_mod_p(n - 1, r, rng, P31)  # degree n
            assignment = {}
            for i in range(m + 1):
                assignment[e.atoms.id_of(f"a{i}")] = a_coeffs[m - i]
            for j in range(n + 1):
                assignment[e.atoms.id_of(f"b{j}")] = b_coeffs[n - j]
            assert eval_mod_p(e, assignment, P31) == 0

    def test_nonzero_at_generic_point(self):
        e = resultant_expr(2, 2)
        rng = np.random.default_rng(5)
        hits = [
            eval_mod_p(e, {a: int(rng.integers(0, P31)) for a in variables(e)}, P31)
            for _ in range(5)
        ]
        assert any(h != 0 for h in hits)

    def test_band_layout(self):
        grid = sylvester_entries(2, 1)
        assert grid == [
            ["a2", "a1", "a0"],
            ["b1", "b0", None],
            [None, "b1", "b0"],
        ]

    def test_size_guard(self):
        with pytest.raises(ValueError, match="exceeds guard"):
            resultant_expr(8, 5)
        with pytest.raises(ValueError):
            resultant_expr(0, 1)


class TestRandomExpr:
    def test_negative_seed_is_rejected(self):
        with pytest.raises(ValueError, match="^seed must be >= 0$"):
            RandomExprParams(n_vars=1, n_terms=1, max_exponent=1, coeff_range=9, seed=-1)

    def test_single_monomial_shape(self):
        e = random_expr(RandomExprParams(n_vars=1, n_terms=1, max_exponent=1, coeff_range=9, seed=0))
        assert len(e.terms) == 1
        t = e.terms[0]
        assert t.exponents == ((0, 1),)
        assert 1 <= abs(t.coeff) <= 9

    def test_deterministic(self):
        p = RandomExprParams(n_vars=5, n_terms=30, max_exponent=4, coeff_range=9, seed=42)
        assert random_expr(p) == random_expr(p)
        assert to_string(random_expr(p)) == to_string(random_expr(p))

    def test_golden_naive_count(self):
        e = random_expr(RandomExprParams(n_vars=5, n_terms=30, max_exponent=4, coeff_range=9, seed=42))
        # pinned once from an initial run, independently recounted here
        assert naive_op_count(e) == brute_factor_count(e)
        assert naive_op_count(e).mul == 309
        assert naive_op_count(e).add == 29

    def test_term_count_and_no_constants(self):
        e = random_expr(RandomExprParams(n_vars=4, n_terms=25, max_exponent=3, coeff_range=7, seed=9))
        assert len(e.terms) == 25
        assert all(t.exponents for t in e.terms)
        assert all(1 <= abs(t.coeff) <= 7 for t in e.terms)

    def test_coefficients_cover_both_signs(self):
        e = random_expr(RandomExprParams(n_vars=3, n_terms=40, max_exponent=3, coeff_range=5, seed=11))
        signs = {t.coeff > 0 for t in e.terms}
        assert signs == {True, False}

    def test_capacity_guard(self):
        with pytest.raises(ValueError, match="capacity"):
            random_expr(RandomExprParams(n_vars=2, n_terms=100, max_exponent=2, coeff_range=3, seed=0))

    def test_presets(self):
        e15 = preset_expr("hep-like-15")
        assert len(variables(e15)) == 15
        assert len(e15.terms) == PRESETS["hep-like-15"].n_terms
        e22 = preset_expr("hep-like-22")
        assert len(variables(e22)) == 22
        with pytest.raises(ValueError, match="unknown preset"):
            preset_expr("hep-like-99")
