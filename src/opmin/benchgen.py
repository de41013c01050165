"""Deterministic benchmark expression generators.

Two families: symbolic resultants res(m, n), the determinant of the
Sylvester matrix of two generic univariate polynomials, expanded over the
m+n+2 coefficient symbols; and seeded random sparse polynomials used as
stand-ins for large application expressions that are not publicly
available. Both are pure functions of their parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import AtomTable, Expression, Term

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
    """res(m, n): Sylvester determinant over atoms a0..am, b0..bn.

    Computed by Laplace expansion along rows with minors memoized on the
    set of remaining columns (2^(m+n) subsets), which avoids polynomial
    division entirely. Guarded to m+n <= 12.
    """
    if m < 1 or n < 1:
        raise ValueError("resultant degrees must be >= 1")
    if m + n > MAX_RESULTANT_SIZE:
        raise ValueError(f"resultant size {m}+{n} exceeds guard {MAX_RESULTANT_SIZE}")

    atoms = AtomTable()
    ids = {}
    for i in range(m + 1):
        ids[f"a{i}"] = atoms.intern(f"a{i}")
    for j in range(n + 1):
        ids[f"b{j}"] = atoms.intern(f"b{j}")

    size = m + n
    grid = sylvester_entries(m, n)
    # rows as {column: atom_id}
    rows = [
        {c: ids[name] for c, name in enumerate(grid[r]) if name is not None}
        for r in range(size)
    ]

    # Monomials as dense exponent tuples over the m+n+2 atoms.
    nvars = m + n + 2
    one = ((0,) * nvars, 1)
    memo: dict[int, dict] = {}

    def minor(cols_mask: int) -> dict:
        """Determinant of rows r.. x the columns in cols_mask, r = rows used."""
        if cols_mask == 0:
            return {one[0]: one[1]}
        cached = memo.get(cols_mask)
        if cached is not None:
            return cached
        r = size - bin(cols_mask).count("1")
        row = rows[r]
        acc: dict = {}
        sign = 1
        for c in range(size):
            bit = 1 << c
            if not cols_mask & bit:
                continue
            aid = row.get(c)
            if aid is not None:
                sub = minor(cols_mask & ~bit)
                for mono, coeff in sub.items():
                    bumped = list(mono)
                    bumped[aid] += 1
                    key = tuple(bumped)
                    v = acc.get(key, 0) + sign * coeff
                    if v:
                        acc[key] = v
                    elif key in acc:
                        del acc[key]
            sign = -sign
        memo[cols_mask] = acc
        return acc

    det = minor((1 << size) - 1)
    terms = [
        Term(coeff, tuple((a, e) for a, e in enumerate(mono) if e))
        for mono, coeff in det.items()
    ]
    return Expression.from_terms(atoms, terms)


@dataclass(frozen=True)
class RandomExprParams:
    n_vars: int
    n_terms: int
    max_exponent: int
    coeff_range: int
    seed: int

    def __post_init__(self):
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
