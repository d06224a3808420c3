"""Differential test of the exactla elimination kernel against sympy.

`rank`, `det`, `inverse`, the canonical echelon bases behind
`Subspace.from_spanning` and `rref_nullspace`, and `IncrementalSpan` are
compared with `sympy.Matrix` on small rational matrices chosen to hit the
kernel's edge cases: zero and repeated rows, rank deficiency, 1x1 and
0-row shapes, negative entries and large denominators.
"""

from fractions import Fraction as F

import pytest

from midconv.exactla import (
    IncrementalSpan,
    Mat,
    Subspace,
    det,
    inverse,
    rank,
    rref_nullspace,
)
import support

sympy = pytest.importorskip("sympy")


def to_sympy(rows, ncols):
    return sympy.Matrix(
        len(rows), ncols, [sympy.Rational(x.numerator, x.denominator) for r in rows for x in r]
    )


def to_fraction(x) -> F:
    return F(int(x.p), int(x.q))


def canonical_rows(m) -> list[list[F]]:
    """Nonzero rows of sympy's reduced row echelon form of m."""
    rref, piv = m.rref()
    return [[to_fraction(rref[i, j]) for j in range(m.cols)] for i in range(len(piv))]


def cases():
    """(rows, ncols) pairs; rows are lists of Fractions."""
    r = support.rng(2024)
    big = 10 ** 30 + 7
    out = [
        ([], 0),
        ([], 3),
        ([[F(0)]], 1),
        ([[F(-7, 3)]], 1),
        ([[F(0)] * 4] * 3, 4),
        ([[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(-1), F(-2), F(-3)]], 3),
        ([[F(0), F(0), F(1)], [F(0), F(1), F(0)], [F(1), F(0), F(0)]], 3),
        ([[F(1, big), F(-2, big + 2)], [F(3, 7), F(big, 11)]], 2),
        ([[F(0), F(0), F(0)], [F(5, 2), F(0), F(-1, 3)], [F(0), F(0), F(0)]], 3),
        ([[F(0), F(1), F(1)], [F(1), F(1), F(0)], [F(1), F(2), F(1)]], 3),
    ]
    for rows_n, cols_n in [(2, 2), (3, 3), (4, 4), (3, 5), (5, 3), (4, 6), (6, 6)]:
        for _ in range(4):
            full = [[support.rand_fraction(r, num=9, den=(1, 2, 3, 5, 7, 97))
                     for _ in range(cols_n)] for _ in range(rows_n)]
            out.append((full, cols_n))
            # rank deficiency: a product through a thin inner dimension
            k = r.randint(1, min(rows_n, cols_n))
            left = [[support.rand_fraction(r) for _ in range(k)] for _ in range(rows_n)]
            right = [[support.rand_fraction(r) for _ in range(cols_n)] for _ in range(k)]
            low = [[sum((left[i][t] * right[t][j] for t in range(k)), F(0))
                    for j in range(cols_n)] for i in range(rows_n)]
            out.append((low, cols_n))
            # repeated and zero rows mixed in
            mixed = [list(full[0]), [F(0)] * cols_n] + [list(x) for x in full]
            mixed.append([-x for x in full[-1]])
            out.append((mixed, cols_n))
            # leading zeros shrinking row by row, then a sum of two rows
            stair = [[F(0)] * i + full[i % rows_n][i:] for i in reversed(range(cols_n))]
            stair.append([a + b for a, b in zip(stair[0], stair[-1])])
            out.append((stair, cols_n))
    return out


def as_mat(rows, ncols) -> Mat:
    return Mat(rows) if rows else Mat.zeros(0, ncols)


@pytest.mark.parametrize("rows,ncols", cases())
def test_rank_and_det_match_sympy(rows, ncols):
    m = as_mat(rows, ncols)
    s = to_sympy(rows, ncols)
    assert rank(m) == s.rank()
    if m.is_square():
        assert det(m) == to_fraction(s.det())


@pytest.mark.parametrize("rows,ncols", cases())
def test_inverse_matches_sympy(rows, ncols):
    m = as_mat(rows, ncols)
    if not m.is_square():
        return
    s = to_sympy(rows, ncols)
    if s.det() == 0:
        with pytest.raises(ValueError):
            inverse(m)
        return
    inv = s.inv()
    assert inverse(m) == Mat([[to_fraction(inv[i, j]) for j in range(s.cols)]
                              for i in range(s.rows)])


@pytest.mark.parametrize("rows,ncols", cases())
def test_from_spanning_is_sympy_rref(rows, ncols):
    span = Subspace.from_spanning(rows, ncols)
    s = to_sympy(rows, ncols)
    expected = canonical_rows(s)
    assert span.pivot_rows == s.rref()[1]
    assert span.basis_columns() == expected


@pytest.mark.parametrize("rows,ncols", cases())
def test_rref_nullspace_matches_sympy(rows, ncols):
    r, ker = rref_nullspace(as_mat(rows, ncols))
    s = to_sympy(rows, ncols)
    assert r == s.rank()
    null = s.nullspace()
    assert ker.dim == len(null)
    if null:
        expected = canonical_rows(sympy.Matrix.hstack(*null).T)
        assert ker.basis_columns() == expected


@pytest.mark.parametrize("rows,ncols", cases())
def test_incremental_span_tracks_rank(rows, ncols):
    span = IncrementalSpan(ncols)
    prev = 0
    for k, v in enumerate(rows, start=1):
        r = to_sympy(rows[:k], ncols).rank()
        assert span.add(v) == (r > prev)
        assert span.dim == r
        prev = r
