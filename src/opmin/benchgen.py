"""Deterministic benchmark expression generators.

Two families: symbolic resultants res(m, n), the determinant of the
Sylvester matrix of two generic univariate polynomials, expanded over the
m+n+2 coefficient symbols; and seeded random sparse polynomials used as
stand-ins for large application expressions that are not publicly
available. Both are pure functions of their parameters.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .expr import AtomTable, Expression, Term, _integer_fields

MAX_RESULTANT_SIZE = 12  # m + n; res(7,5) is the intended ceiling


def sylvester_entries(m: int, n: int) -> list[list[str | None]]:
    """The (m+n) x (m+n) Sylvester band layout as atom names (None = zero).

    Row r < n holds a_m..a_0 starting at column r; row n+r (r < m) holds
    b_n..b_0 starting at column r.
    """
    size = m + n
    grid: list[list[str | None]] = [[None] * size for _ in range(size)]
    for r in range(n):
        for i in range(m + 1):
            grid[r][r + i] = f"a{m - i}"
    for r in range(m):
        for i in range(n + 1):
            grid[n + r][r + i] = f"b{n - i}"
    return grid


def resultant_expr(m: int, n: int) -> Expression:
    """res(m, n): the determinant of ``sylvester_entries(m, n)``, expanded.

    Atoms are numbered a0..am, then b0..bn, in the returned table. Atom ids
    order the terms and steer the scorer, so this numbering is part of the
    result: the text that ``opmin generate`` writes is numbered in first-seen
    order when it is read back (a0, b2, a1, b1, a2, b0, a3 for res(3, 2)),
    and a brute-force histogram of that file can differ from this
    expression's, though not at the minimum. Guarded to m+n <= 12.
    """
    if m < 1 or n < 1:
        raise ValueError("resultant degrees must be >= 1")
    if m + n > MAX_RESULTANT_SIZE:
        raise ValueError(f"resultant size {m}+{n} exceeds guard {MAX_RESULTANT_SIZE}")
    atoms = AtomTable()
    for name in [f"a{i}" for i in range(m + 1)] + [f"b{j}" for j in range(n + 1)]:
        atoms.intern(name)
    return _determinant(atoms, sylvester_entries(m, n))


def _determinant(atoms: AtomTable, grid: list[list[str | None]]) -> Expression:
    """The expanded determinant of a square grid of atom names (None = zero).

    Names not yet in *atoms* are interned in row-major order. Laplace
    expansion along rows, with each minor memoized on the mask of its
    remaining columns (at most 2^size of them), so no polynomial division
    is needed. Monomials are dense exponent tuples over the table's atoms.
    """
    size = len(grid)
    # Rows as {column: atom id}: dicts of ints, which the collector does not track.
    rows = [{c: atoms.intern(name) for c, name in enumerate(row) if name is not None} for row in grid]
    one = (0,) * len(atoms)

    @functools.cache
    def minor(mask: int) -> dict[tuple[int, ...], int]:
        # Rows size - |mask|.. by the columns in mask.
        if not mask:
            return {one: 1}
        acc: dict[tuple[int, ...], int] = {}
        for c, aid in rows[size - mask.bit_count()].items():
            bit = 1 << c
            if mask & bit:
                # The column's position among the remaining ones sets the sign.
                sign = -1 if (mask & (bit - 1)).bit_count() & 1 else 1
                for mono, coeff in minor(mask ^ bit).items():
                    key = mono[:aid] + (mono[aid] + 1,) + mono[aid + 1 :]
                    acc[key] = acc.get(key, 0) + sign * coeff
        return {mono: coeff for mono, coeff in acc.items() if coeff}

    det = minor((1 << size) - 1)
    # The cache holds every minor; the closure's cycle would keep it alive.
    minor.cache_clear()
    terms = [Term(coeff, tuple((a, e) for a, e in enumerate(mono) if e)) for mono, coeff in det.items()]
    return Expression.from_terms(atoms, terms)


@dataclass(frozen=True)
class RandomExprParams:
    n_vars: int
    n_terms: int
    max_exponent: int
    coeff_range: int
    seed: int

    def __post_init__(self):
        _integer_fields(self, "n_vars", "n_terms", "max_exponent", "coeff_range", "seed")
        for name in ("n_vars", "n_terms", "max_exponent", "coeff_range"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def random_expr(p: RandomExprParams) -> Expression:
    """n_terms distinct non-constant monomials with uniform nonzero coefficients.

    Exponents are uniform in [0, max_exponent] per variable (all-zero vectors
    rejected); coefficients are uniform over +-1..+-coeff_range. Fully
    determined by the seed.
    """
    capacity = (p.max_exponent + 1) ** p.n_vars - 1
    if p.n_terms > capacity:
        raise ValueError(f"n_terms {p.n_terms} exceeds monomial capacity {capacity}")
    rng = np.random.Generator(np.random.PCG64(p.seed))
    atoms = AtomTable()
    for i in range(p.n_vars):
        atoms.intern(f"x{i}")
    monos: set[tuple[int, ...]] = set()
    while len(monos) < p.n_terms:
        mono = tuple(int(v) for v in rng.integers(0, p.max_exponent + 1, p.n_vars))
        if any(mono):
            monos.add(mono)
    terms = []
    for mono in sorted(monos):
        k = int(rng.integers(0, 2 * p.coeff_range))
        coeff = k - p.coeff_range if k < p.coeff_range else k - p.coeff_range + 1
        terms.append(Term(coeff, tuple((a, e) for a, e in enumerate(mono) if e)))
    return Expression.from_terms(atoms, terms)


# Stand-ins for large application expressions, pinned for reproducibility.
PRESETS = {
    "hep-like-15": RandomExprParams(n_vars=15, n_terms=60, max_exponent=3, coeff_range=9, seed=1015),
    "hep-like-22": RandomExprParams(n_vars=22, n_terms=100, max_exponent=3, coeff_range=9, seed=1022),
}


def preset_expr(name: str) -> Expression:
    try:
        return random_expr(PRESETS[name])
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; choices: {sorted(PRESETS)}") from None
