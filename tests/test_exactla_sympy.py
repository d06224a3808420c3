"""Differential test of exactla against sympy.

`rank`, `det`, `inverse`, the canonical echelon bases behind
`Subspace.from_spanning` and `rref_nullspace`, and `IncrementalSpan` are
compared with `sympy.Matrix` on small rational matrices chosen to hit the
kernel's edge cases: zero and repeated rows, rank deficiency, 1x1,
0-row and 0-column shapes, negative entries and large denominators.

`charpoly`, `rational_spectrum`, `jordan_partition` and
`primary_components` are compared with sympy's characteristic polynomial,
factorization over Q and Jordan form on square matrices with repeated
semisimple eigenvalues, Jordan blocks, +-sqrt(2) blocks, a repeated
irreducible factor, no rational eigenvalue at all, 1x1 and zero shapes,
and unimodular conjugates of each.  `is_semisimple` is compared with
sympy's `is_diagonalizable` on a similar set.
`charpoly` is also compared on inputs aimed at its multi-modular
certificate: 100-digit entries and 10^30 denominators (a wrong bound or
a missing prime fails them), a denominator equal to the first prime, and
Hessenberg columns without a pivot.  On n = 1..8 with integral rows beside
rows over 30 and over 10^30, the spectrum record (rational eigenvalues,
multiplicities, whether they are all, the distinct-root count) and
`is_semisimple` are compared with sympy, `charpoly` with the cofactor
expansion, and the primes taken with those the per-row bound asks for.
The same record is compared on n = 2 and 3, where q(y) comes from
cofactors and the roots of a square-free part of degree <= 2 in closed
form, on each shape of such a spectrum.
"""

from fractions import Fraction as F
from itertools import count
from math import isqrt, lcm, prod

import pytest

from midconv import exactla
from midconv.exactla import (
    IncrementalSpan,
    _prime,
    Mat,
    Subspace,
    charpoly,
    det,
    inverse,
    is_semisimple,
    jordan_partition,
    primary_components,
    rank,
    rational_spectrum,
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
    assert [list(v) for v in span.basis.data] == expected


# 0 x c, c x 0 and zero matrices, whose kernels are everything or nothing
_NULLSPACE_EDGES = [
    ([], 1), ([], 5), ([[]], 0), ([[]] * 3, 0),
    ([[F(0)] * 5], 5), ([[F(0)] * 2] * 4, 2), ([[F(0)]] * 2, 1),
]


@pytest.mark.parametrize("rows,ncols", cases() + _NULLSPACE_EDGES)
def test_rref_nullspace_matches_sympy(rows, ncols):
    r, ker = rref_nullspace(as_mat(rows, ncols))
    s = to_sympy(rows, ncols)
    assert r == s.rank()
    expected = _sym_null_rows(s)
    assert ker.ambient_dim == ncols
    assert [list(v) for v in ker.basis.data] == expected
    assert ker == Subspace.from_spanning(ker.basis.data, ncols)


@pytest.mark.parametrize("rows,ncols", cases())
def test_incremental_span_tracks_rank(rows, ncols):
    span = IncrementalSpan()
    prev = 0
    for k, v in enumerate(rows, start=1):
        r = to_sympy(rows[:k], ncols).rank()
        assert span.add(Mat([v]).num[0]) == (r > prev)
        assert span.dim == r
        prev = r


# ---------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------

def _jordan(lam, k) -> list[list[F]]:
    return [[F(lam) if i == j else F(int(j == i + 1)) for j in range(k)] for i in range(k)]


def _companion(low) -> Mat:
    """Companion matrix of the monic x^k + low[k-1] x^(k-1) + ... + low[0]."""
    k = len(low)
    return Mat([[F(int(i == j + 1)) for j in range(k - 1)] + [-F(low[i])] for i in range(k)])


SQRT2 = [[0, 2], [1, 0]]   # x^2 - 2
I_ROT = [[0, -1], [1, 0]]  # x^2 + 1


def spectral_cases():
    """(id, square matrix) pairs, each also conjugated by a unimodular matrix."""
    base = [
        ("semisimple-2-2-1", support.direct_sum([[2]], [[2]], [[-1]])),
        ("semisimple-half-x3", support.direct_sum([[F(1, 2)]], [[F(1, 2)]], [[F(1, 2)]], [[3]])),
        ("jordan-3", support.direct_sum(_jordan(1, 3))),
        ("jordan-2-1-nilpotent", support.direct_sum(_jordan(0, 2), _jordan(0, 1))),
        ("jordan-2-2-third", support.direct_sum(_jordan(F(1, 3), 2), _jordan(F(1, 3), 2), [[-2]])),
        ("sqrt2-1-1", support.direct_sum(SQRT2, [[1]], [[1]])),
        ("sqrt2-jordan", support.direct_sum(SQRT2, _jordan(-1, 2))),
        ("sqrt2-sqrt2-3", support.direct_sum(SQRT2, SQRT2, [[3]])),
        ("no-rational-sqrt2", support.direct_sum(SQRT2)),
        ("no-rational-i-sqrt2", support.direct_sum(I_ROT, SQRT2)),
        ("no-rational-cbrt2", support.direct_sum([[0, 0, 2], [1, 0, 0], [0, 1, 0]])),
        ("1x1", Mat([[F(-7, 3)]])),
        ("zero-1x1", Mat([[0]])),
        ("zero-3x3", Mat.zeros(3, 3)),
        ("third-x8", Mat.diagonal([F(1, 3)] * 8)),
        # (x^2 - 2)^2 (x - 1/2): d = 2 and q(y) = (y^2 - 8)^2 (y - 1)
        ("sqrt2-squared-half", _companion([-2, 4, 2, -4, F(-1, 2)])),
    ]
    r = support.rng(77)
    out = []
    for name, m in base:
        p = support.unimodular(r, m.rows)
        out.append(pytest.param(m, id=name))
        out.append(pytest.param(p * m * inverse(p), id=name + "-conj"))
    return out


def _sym(m: Mat):
    return to_sympy(m.data, m.cols)


def _rational_roots(m: Mat) -> tuple[dict, object]:
    """Rational eigenvalues with multiplicities, and the non-rational
    factor of the characteristic polynomial, from sympy's factorization."""
    x = sympy.Symbol("x")
    cp = _sym(m).charpoly(x).as_expr()
    roots, rest = {}, sympy.Integer(1)
    for fac, mult in sympy.factor_list(cp, x)[1]:
        fp = sympy.Poly(fac, x)
        if fp.degree() == 1:
            a, b = fp.all_coeffs()
            roots[to_fraction(sympy.Rational(-b, a))] = mult
        else:
            rest *= fac ** mult
    return roots, sympy.Poly(rest, x)


def _sym_null_rows(s) -> list[list[F]]:
    null = s.nullspace()
    return canonical_rows(sympy.Matrix.hstack(*null).T) if null else []


@pytest.mark.parametrize("m", spectral_cases())
def test_charpoly_matches_sympy(m):
    x = sympy.Symbol("x")
    expected = [to_fraction(c) for c in _sym(m).charpoly(x).all_coeffs()]
    assert charpoly(m) == tuple(expected[::-1])


def charpoly_cases():
    """Inputs for the multi-modular `charpoly`: heights that need many
    primes, a denominator that is the first prime (skipped), Hessenberg
    columns without a pivot or with a row swap, 0x0 and 12x12."""
    r = support.rng(606)
    p0 = _prime(0)

    def rand(n, gen):
        return Mat([[gen() for _ in range(n)] for _ in range(n)])

    return [
        pytest.param(rand(5, lambda: F(r.randint(-10 ** 100, 10 ** 100))), id="100-digit"),
        pytest.param(rand(5, lambda: F(r.randint(-9, 9), r.randint(1, 10 ** 30))),
                     id="1e30-denominators"),
        pytest.param(Mat([[F(3, p0), F(1), F(-2)], [F(1, 2), F(0), F(5)],
                          [F(4), F(-1, p0), F(p0)]]), id="denominator-first-prime"),
        pytest.param(Mat([[1, 2, 5, -1], [3, 4, 0, 2], [0, 0, F(-2, 3), 1], [0, 0, 7, 3]]),
                     id="block-triangular-no-pivot"),
        pytest.param(Mat([[1, 2, 3], [0, 1, 1], [4, 0, 2]]), id="hessenberg-row-swap"),
        pytest.param(Mat.zeros(0, 0), id="0x0"),
        pytest.param(support.rand_matrix(r, 12, pool=(-3, -1, 0, 1, 2, F(1, 2), F(-5, 3))),
                     id="random-12x12"),
    ]


@pytest.mark.parametrize("m", charpoly_cases())
def test_charpoly_multimodular_matches_sympy(m):
    x = sympy.Symbol("x")
    expected = [to_fraction(c) for c in _sym(m).charpoly(x).all_coeffs()]
    assert charpoly(m) == tuple(expected[::-1])


@pytest.mark.parametrize("m", spectral_cases())
def test_rational_spectrum_matches_sympy(m):
    roots, _ = _rational_roots(m)
    pairs, full = rational_spectrum(m)
    assert pairs == sorted(roots.items(), key=lambda t: (-t[1], t[0]))
    assert full == (sum(roots.values()) == m.rows)


def mixed_denominator_cases():
    """n = 1..8: direct sums of repeated, Jordan and irrational blocks,
    conjugated by a unimodular matrix and then by diag(s) with s_i cycling
    through 1, 30 and 10^30, so that row i of s^-1 m s is m's row i times
    s_j / s_i: integral rows beside rows over 30 and over 10^30."""
    pieces = [[[F(1, 3)]], [[F(-2)]], [[F(-2)]], _jordan(F(1, 2), 2), _jordan(3, 3),
              SQRT2, I_ROT, [[F(0)]]]
    r = support.rng(808)
    out = []
    for n in range(1, 9):
        for k in range(2):
            blocks = []
            while (size := sum(map(len, blocks))) < n:
                blocks.append(r.choice([b for b in pieces if len(b) <= n - size]))
            p = support.unimodular(r, n)
            s = [(1, 30, 10 ** 30)[i % 3] for i in range(n)]
            m = inverse(Mat.diagonal(s)) * p * support.direct_sum(*blocks) * inverse(p) \
                * Mat.diagonal(s)
            out.append(pytest.param(m, id=f"n{n}-{k}"))
    return out


def small_cases():
    """n = 2 and 3, whose q(y) is formed by cofactors: distinct rational
    roots, a scalar double root, Jordan blocks with the partitions (2), (3)
    and (2, 1), a double root beside a simple one, an irrational and a
    complex pair, each conjugated as in `mixed_denominator_cases` with the
    rows over 1, 30 and 10^30 in two orders."""
    base = [
        ("distinct-2", support.direct_sum([[F(1, 3)]], [[-2]])),
        ("scalar-2", Mat.diagonal([F(-5, 2)] * 2)),
        ("jordan-2", support.direct_sum(_jordan(F(1, 2), 2))),
        ("sqrt2", support.direct_sum(SQRT2)),
        ("i", support.direct_sum(I_ROT)),
        ("distinct-3", support.direct_sum([[F(1, 3)]], [[-2]], [[5]])),
        ("double-simple-3", support.direct_sum([[-2]], [[-2]], [[F(1, 3)]])),
        ("jordan-2-simple", support.direct_sum(_jordan(-2, 2), [[F(1, 3)]])),
        ("jordan-3", support.direct_sum(_jordan(3, 3))),
        ("jordan-2-1", support.direct_sum(_jordan(F(1, 2), 2), [[F(1, 2)]])),
        ("sqrt2-1", support.direct_sum(SQRT2, [[1]])),
        ("i-0", support.direct_sum(I_ROT, [[0]])),
    ]
    r = support.rng(909)
    out = []
    for name, m in base:
        n = m.rows
        for k in range(2):
            p = support.unimodular(r, n)
            s = [(1, 30, 10 ** 30)[(i + k) % 3] for i in range(n)]
            out.append(pytest.param(
                inverse(Mat.diagonal(s)) * p * m * inverse(p) * Mat.diagonal(s),
                id=f"{name}-{k}"))
    return out


@pytest.mark.parametrize("m", mixed_denominator_cases() + small_cases())
def test_spectrum_record_on_mixed_row_denominators_matches_sympy(m):
    x = sympy.Symbol("x")
    roots, _ = _rational_roots(m)
    factors = sympy.factor_list(_sym(m).charpoly(x).as_expr(), x)[1]
    eigs, full, distinct, *_ = exactla._spectrum(m)
    assert list(eigs) == sorted(roots.items(), key=lambda t: (-t[1], t[0]))
    assert full == (sum(roots.values()) == m.rows)
    assert distinct == sum(sympy.degree(f, x) for f, _ in factors)
    assert is_semisimple(m) == _sym(m).is_diagonalizable()


@pytest.mark.parametrize("m", mixed_denominator_cases())
def test_charpoly_on_mixed_row_denominators_takes_the_per_row_bound_s_primes(m, monkeypatch):
    primes, real = [], exactla._charpoly_mod
    monkeypatch.setattr(exactla, "_charpoly_mod", lambda a, p: primes.append(p) or real(a, p))
    assert charpoly(m) == tuple(support.charpoly_cofactor(m))
    # each row over the lcm d_i of its own denominators; the CRT loop stops
    # at the first product of primes dividing no d_i above twice the bound
    dens = [lcm(*(x.denominator for x in row)) for row in m.data]
    bound = 2 * prod(isqrt(sum(int(x * d) ** 2 for x in row)) + 1 + d
                     for d, row in zip(dens, m.data))
    expected, modulus = [], 1
    for p in map(_prime, count()):
        if modulus > bound:
            break
        if all(d % p for d in dens):
            expected.append(p)
            modulus *= p
    assert primes == expected


def semisimple_cases():
    """`is_semisimple` inputs, each also conjugated by a unimodular matrix:
    a repeated irreducible factor with and without a Jordan block, a cubic
    irrationality, rational Jordan blocks, d = 3 and trivial shapes."""
    base = [
        ("companion-sqrt2-squared", _companion([4, 0, -4, 0])),
        ("sqrt2-sqrt2", support.direct_sum(SQRT2, SQRT2)),
        ("cbrt2", _companion([-2, 0, 0])),
        ("jordan-2-half-1", support.direct_sum(_jordan(F(1, 2), 2), [[3]])),
        ("jordan-3-minus-two-thirds", support.direct_sum(_jordan(F(-2, 3), 3))),
        ("third-x8", Mat.diagonal([F(1, 3)] * 8)),
        ("1x1", Mat([[F(-7, 3)]])),
        ("zero-1x1", Mat([[0]])),
        ("zero-3x3", Mat.zeros(3, 3)),
    ]
    r = support.rng(707)
    out = []
    for name, m in base:
        p = support.unimodular(r, m.rows)
        out.append(pytest.param(m, id=name))
        out.append(pytest.param(p * m * inverse(p), id=name + "-conj"))
    return out


@pytest.mark.parametrize("m", semisimple_cases())
def test_is_semisimple_matches_sympy(m):
    assert is_semisimple(m) == _sym(m).is_diagonalizable()


def _sym_jordan_sizes(m: Mat) -> dict:
    """Rational eigenvalue -> its Jordan block sizes, descending, read off
    sympy's Jordan form."""
    _, j = _sym(m).jordan_form()
    sizes: dict = {}
    i = 0
    while i < m.rows:
        k = i
        while k + 1 < m.rows and j[k, k + 1] == 1:
            k += 1
        sizes.setdefault(j[i, i], []).append(k - i + 1)
        i = k + 1
    roots, _ = _rational_roots(m)
    return {lam: tuple(sorted(sizes[sympy.Rational(lam.numerator, lam.denominator)],
                              reverse=True)) for lam in roots}


@pytest.mark.parametrize("m", spectral_cases())
def test_jordan_partition_matches_sympy(m):
    sizes = _sym_jordan_sizes(m)
    for lam, expected in sizes.items():
        assert jordan_partition(m, lam) == expected
    not_eigen = max(sizes, default=F(0)) + 1
    assert jordan_partition(m, not_eigen) == ()


@pytest.mark.parametrize("m", spectral_cases())
def test_primary_components_match_sympy(m):
    roots, rest = _rational_roots(m)
    s = _sym(m)
    n = m.rows
    comps = primary_components(m)
    expected_tags = [lam for lam, _ in sorted(roots.items(), key=lambda t: (-t[1], t[0]))]
    if rest.degree() > 0:
        expected_tags.append(None)
    assert [lam for lam, *_ in comps] == expected_tags
    sizes = _sym_jordan_sizes(m)
    for lam, jordan, space, blocks in comps:
        assert blocks == ()
        assert jordan == sizes.get(lam, ())
        if lam is None:
            # the non-rational factor of the characteristic polynomial at m
            target = sympy.zeros(n, n)
            for c in rest.all_coeffs():
                target = target * s + c * sympy.eye(n)
        else:
            target = (s - sympy.Rational(lam.numerator, lam.denominator) * sympy.eye(n)) ** n
        assert [list(v) for v in space.basis.data] == _sym_null_rows(target)
