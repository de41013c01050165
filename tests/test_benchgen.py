import gc
import hashlib
import random
from collections import Counter

import numpy as np
import pytest

from opmin.benchgen import (
    PRESETS,
    RandomExprParams,
    _determinant,
    preset_expr,
    random_expr,
    resultant_expr,
    sylvester_entries,
)
from opmin.expr import AtomTable, eval_mod_p, naive_op_count, parse, to_string, variables
from opmin.mcts import brute_force_search

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


def sympy_determinant_expression(grid):
    """Independent oracle: sympy's expanded determinant of a grid of names."""
    import sympy

    matrix = sympy.Matrix([[0 if name is None else sympy.Symbol(name) for name in row] for row in grid])
    return parse(str(sympy.expand(matrix.det(method="berkowitz"))).replace("**", "^"))


# SHA-256 of to_string(resultant_expr(m, n)) for every m, n >= 1 with
# m + n <= 8, and for res(7,5), taken before the expansion moved into
# _determinant: atom ids, term order and text must not change.
RESULTANT_SHA256 = {
    (1, 1): "aa6e59a5016eb71f0e63fbe8d3953dba5307101ec9c72bbb7b2dff34e904861e",
    (1, 2): "fdc552fdf1b72fb18ae028dcfc20452ee072c013f78e4ef7df45b85ddb4b02d3",
    (1, 3): "eed2f847b20f879a0dd850a2f72114c9b448548055ae61d12b881c76e537f4f1",
    (1, 4): "4e2bdaf808f1a06e0281ea11690379433ffd4fb03d35abbba8986f1f21cd4ed7",
    (1, 5): "c8f618646e7e5aebab56f389d07c905d7aa1fd400a04799434937b6943df4aa1",
    (1, 6): "9889e70f25c4a81ca6f8555e6abf809ba862b1c2b6138715b832bcbcbdfde64d",
    (1, 7): "1a95d9b96375fde069276e2a1777d6d9264cd7ad910ba50e5de8affb991f5cac",
    (2, 1): "5b7b451dc9482a899069d064edfca36e285d1a06be97d4fce0abd8bffbfac688",
    (2, 2): "704576b5f1b0cf02a02f6b39866cc9f3934b7f84f457057a200cd66e02ea5700",
    (2, 3): "79e82fae563d0ce1e266bc6d9e774ac1369f1257aa116c438104e3bb5ee19519",
    (2, 4): "0bd5b9e28ca70638f398ab7c54c4e05189843501a525829d74c1a9701cd162c6",
    (2, 5): "8df345d00dbb1386460e0d382df3d79924e02c17ccc1671e5b21d7c7e18e21d5",
    (2, 6): "9e2827e275315f559ebfa05a5d9770de55fe2ab0b81f1fa2a17069cf2b803899",
    (3, 1): "a2c29352c85ef65e1c34c20c3129d78c4c5c381c3dc4537fe825115fed7dd5ca",
    (3, 2): "ae9038e54d626ddbffcde4203644ce0e1d972aedcaedc0f8cfd25a47f048b789",
    (3, 3): "a254538289c76770ef71a537ba43b69cd653b87642dd6544e2621b97a7479de8",
    (3, 4): "9fc1e1561f8bdbd3b8711255fcb85383695e23b1f7dde717d9be7da1a983af4a",
    (3, 5): "13125c16a4b06f7ab90604ed7d3a796ad9b5b37262543ce201f4afb7d105b06f",
    (4, 1): "bdcfad59fdacd9641521d9c5081079b7f52a8427e257d8f3290142f8a6186eef",
    (4, 2): "af423d12370dd4e5746396d4f8ef934db40a26f2a080838ecffca749577a6e97",
    (4, 3): "95a9a670e080ff615aa4bc6a117c0061b4d0e9aeffb371a3a58cf669de89ee0e",
    (4, 4): "07b827110bd4647d9f41a66a24b32364be4ede46ad6c04a48e5e3a1c4852c196",
    (5, 1): "ba45e64b10460836ded44a58f05132a8296aadac62e77a9a5883da90fd43f773",
    (5, 2): "6e66b1558c7dae03552d4d9f62287915a9d790a23e49d98d0c1971d0e17fdd9a",
    (5, 3): "e204c9a3ab3fcd12f50baa0afdc16b06afec88afc5375cad52a090249c4b4904",
    (6, 1): "d0eb7b5b0c4ae3e5691593959e49c5d972f930cce9ec206a01c46752488f93ad",
    (6, 2): "93c8f74e4c7223c83d5599d091c4ae6418dac8b5a63b944914c295cd426cbbd7",
    (7, 1): "fee404a025bc5e66d348fcabda57898986a677b9e0c838f32a2563b00b6dfe9c",
}
RES75_SHA256 = "46e3bfe1be02601ff5b330d43bf45e3c8aa77666bfcdafade1d06de3b95f5460"


def sha256_text(e):
    return hashlib.sha256(to_string(e).encode()).hexdigest()


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

    @pytest.mark.parametrize("m,n", sorted(RESULTANT_SHA256))
    def test_text_is_pinned(self, m, n):
        assert sha256_text(resultant_expr(m, n)) == RESULTANT_SHA256[m, n]

    def test_res_7_5_text_is_pinned(self):
        assert sha256_text(resultant_expr(7, 5)) == RES75_SHA256

    def test_atoms_are_numbered_a_then_b(self):
        e = resultant_expr(3, 2)
        assert [e.atoms.text(a) for a in range(len(e.atoms))] == ["a0", "a1", "a2", "a3", "b0", "b1", "b2"]
        read_back = parse(to_string(e)).atoms
        assert [read_back.text(a) for a in range(len(read_back))] == ["a0", "b2", "a1", "b1", "a2", "b0", "a3"]

    def test_brute_force_histogram_depends_on_atom_numbering(self):
        # The same res(3,2), numbered a0..a3, b0..b2 and numbered as its
        # text is read back: the scorer's counts follow the atom ids.
        e = resultant_expr(3, 2)
        generated = Counter(brute_force_search(e).deltas_per_iteration)
        read_back = Counter(brute_force_search(parse(to_string(e))).deltas_per_iteration)
        assert min(generated) == min(read_back) == 34
        assert generated[34] == read_back[34] == 54
        assert (generated[39], read_back[39]) == (954, 940)
        assert (generated[40], read_back[40]) == (1193, 1191)

    def test_leaves_little_for_the_collector(self):
        # The memo lives in a cache that is cleared before the call returns,
        # so only the closure's own cycle is left unreachable.
        gc.collect()
        gc.disable()
        try:
            e = resultant_expr(7, 5)
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert len(e.terms) == 11380
        assert unreachable < 100

    def test_size_guard(self):
        with pytest.raises(ValueError, match="exceeds guard"):
            resultant_expr(8, 5)
        with pytest.raises(ValueError):
            resultant_expr(0, 1)


class TestDeterminant:
    @pytest.mark.parametrize("size", range(1, 7))
    def test_matches_sympy_on_seeded_grids(self, size):
        # Names from a small pool, repeated within a grid, and zeros.
        rng = random.Random(size)
        pool = ["x", "y", "z", "w", None]
        for _ in range(4):
            grid = [[rng.choice(pool) for _ in range(size)] for _ in range(size)]
            assert _determinant(AtomTable(), grid) == sympy_determinant_expression(grid), grid

    def test_interns_new_names_in_row_major_order(self):
        atoms = AtomTable()
        atoms.intern("q")
        e = _determinant(atoms, [["y", "x"], ["x", None]])
        assert [atoms.text(a) for a in range(len(atoms))] == ["q", "y", "x"]
        assert to_string(e) == "-x^2"


class TestRandomExpr:
    def test_negative_seed_is_rejected(self):
        with pytest.raises(ValueError, match="^seed must be >= 0$"):
            RandomExprParams(n_vars=1, n_terms=1, max_exponent=1, coeff_range=9, seed=-1)

    @pytest.mark.parametrize("field,value", [("n_vars", 2.0), ("n_terms", True), ("seed", 1.5), ("seed", True)])
    def test_non_integer_setting_is_rejected(self, field, value):
        kw = dict(n_vars=2, n_terms=2, max_exponent=2, coeff_range=3, seed=0)
        kw[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            RandomExprParams(**kw)

    def test_numpy_integers_are_stored_as_int(self):
        p = RandomExprParams(n_vars=np.int64(3), n_terms=4, max_exponent=2, coeff_range=3, seed=np.uint32(5))
        assert (type(p.n_vars), type(p.seed)) == (int, int)
        assert random_expr(p) == random_expr(RandomExprParams(3, 4, 2, 3, 5))

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
