"""Exact linear algebra: echelon forms, nullspaces, spectra, Jordan data."""

from collections import Counter
from dataclasses import fields
from fractions import Fraction as F
from itertools import chain, zip_longest
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from midconv.errors import InternalError
from midconv.exactla import (
    Mat,
    Subspace,
    _prime,
    charpoly,
    conjugate_partition,
    det,
    inverse,
    is_semisimple,
    jordan_data,
    jordan_partition,
    primary_components,
    rank,
    rational_spectrum,
    reduce_mod_prime,
    rref_nullspace,
    toeplitz_kernel,
)
import support

fractions = st.builds(
    F, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=4)
)


def small_matrix(rows, cols):
    return st.lists(
        st.lists(fractions, min_size=cols, max_size=cols),
        min_size=rows, max_size=rows,
    ).map(Mat)


# ---------------------------------------------------------------------
# products and reduction mod p
# ---------------------------------------------------------------------

@pytest.mark.parametrize("left, right", [((3, 0), (0, 2)), ((0, 3), (3, 2)),
                                         ((2, 3), (3, 0)), ((0, 0), (0, 4))])
def test_product_with_an_empty_dimension_is_zero(left, right):
    out = Mat.zeros(*left) * Mat.zeros(*right)
    assert (out.rows, out.cols) == (left[0], right[1])
    assert out == Mat.zeros(left[0], right[1])


def _entries(rng, rows, cols, kind):
    if kind == "zero":
        return [[0] * cols for _ in range(rows)]
    if kind == "digits100":
        big = 10 ** 99
        return [[F(rng.randint(-9 * big, 9 * big), rng.randint(1, 9 * big))
                 for _ in range(cols)] for _ in range(rows)]
    return [[F(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 4, 6])) for _ in range(cols)]
            for _ in range(rows)]


def _check(m, oracle):
    """m has the oracle's shape and entries, in the normalised form."""
    assert (m.rows, m.cols) == (oracle.rows, oracle.cols)
    assert m.data == tuple(map(tuple, oracle.e))
    assert m.den > 0 and gcd(m.den, *chain.from_iterable(m.num)) == 1
    assert m == oracle.mat() and hash(m) == hash(oracle.mat())


@pytest.mark.parametrize("kind", ["small", "digits100", "zero"])
def test_mat_matches_fraction_oracle(kind):
    rng = support.rng({"small": 81, "digits100": 82, "zero": 83}[kind])
    fm = support.FracMat
    for _ in range(30):
        r, k, c = (rng.randint(0, 4) for _ in range(3))
        fa, fa2, fb, fc = (fm(x, y, _entries(rng, x, y, kind))
                           for x, y in ((r, k), (r, k), (k, c), (r, c)))
        a, a2, b, cm = fa.mat(), fa2.mat(), fb.mat(), fc.mat()
        assert fm.of(a).e == fa.e
        s = rng.choice([0, -1, 3, F(-2, 3), F(10 ** 40, 7)])
        _check(a * b, fa * fb)  # inner dimension k may be 0
        _check(a + a2, fa.plus(fa2, 1))
        _check(a - a2, fa.plus(fa2, -1))
        _check(-a, fa.scaled(-1))
        for scaled in (a.scaled(s), s * a, a * s):
            _check(scaled, fa.scaled(s))
        _check(a.transpose(), fa.transpose())
        ri = [rng.randrange(r) for _ in range(rng.randint(0, 3))] if r else []
        ci = [rng.randrange(k) for _ in range(rng.randint(0, 3))] if k else []
        _check(a.submatrix(ri, ci), fa.submatrix(ri, ci))
        if r:
            _check(Mat.block([[a, cm], [a2, cm]]), fm.block([[fa, fc], [fa2, fc]]))
        v = _entries(rng, 1, k, kind)[0]
        assert support.apply(a, v) == fa.apply(v)
        sq, fsq = a * a.transpose(), fa * fa.transpose()
        assert sq.trace() == fsq.trace()
        diag = fm(r, r, [[s if i == j else 0 for j in range(r)] for i in range(r)])
        for m, o in ((sq, fsq), (Mat.diagonal([s] * r), diag)):
            assert m.scalar_multiple_of_identity() == o.scalar_multiple_of_identity()


def test_mat_equality_is_structural_after_normalisation():
    half = Mat([[F(1, 2)]])
    for same in (Mat([[F(2, 4)]]), Mat.from_integers([[2]], 4), Mat([[3]]) * F(1, 6)):
        assert same == half and hash(same) == hash(half)
        assert (same.num, same.den) == (((1,),), 2)
    assert Mat.from_integers([[0, 0], [0, 0]], 9) == Mat.zeros(2, 2)
    assert Mat.from_integers([[0, 0]], 9).den == 1 and (half - half).den == 1
    a = Mat([[F(1, 3), F(1, 6)], [F(5, 2), 0]])
    assert a.num == ((2, 1), (15, 0)) and a.den == 6
    assert a.num_over(6) is a.num and a.num_over(18) == ((6, 3), (45, 0))
    assert a + a - a == a and a * 6 * F(1, 6) == a and (a * 6).den == 1
    assert Mat.zeros(0, 3) != Mat.zeros(0, 2) and Mat.zeros(2, 0) != Mat.zeros(3, 0)


def test_from_integers_divides_the_content_around_zero_rows():
    # rows with content 6 between all-zero rows (one of them shared), over
    # denominators that share 1, 2, 3, 6 or nothing with it: each equals the
    # Mat of the same Fractions, so the content is found past the zero rows
    # and the zero rows stay zero
    zero = (0, 0, 0)
    rows = [zero, [6, -12, 18], [0, 0, 0], zero, [0, 30, 0], zero]
    for den in (1, 2, 3, 7, 12, 36, 6 * 10 ** 30):
        m = Mat.from_integers(rows, den)
        assert m == Mat([[F(x, den) for x in row] for row in rows]), den
        assert [any(r) for r in m.num] == [any(r) for r in rows]
    for den in (6, 8):
        assert Mat.from_integers([zero] * 3, den) == Mat.zeros(3, 3)
    assert Mat.from_integers([], 6, 3) == Mat.zeros(0, 3)
    assert Mat.from_integers([[0, 4], [0, 0], [6, 0]], 4) == Mat([[0, 1], [0, 0], [F(3, 2), 0]])


def test_block_of_zero_row_blocks_keeps_its_width():
    assert Mat.block([[Mat.zeros(0, 2), Mat.zeros(0, 3)]]).cols == 5
    stacked = Mat.block([[Mat.zeros(0, 2), Mat.zeros(0, 3)], [Mat.zeros(0, 2), Mat.zeros(0, 3)]])
    assert (stacked.rows, stacked.cols) == (0, 5) and stacked == Mat.zeros(0, 5)
    assert stacked != Mat.zeros(0, 0)
    mixed = Mat.block([[Mat.zeros(0, 2)], [Mat([[F(1, 2), 3]])]])
    assert (mixed.rows, mixed.cols) == (1, 2) and mixed == Mat([[F(1, 2), 3]])


def test_reduce_mod_prime_skips_primes_dividing_a_denominator():
    p0, p1 = _prime(0), _prime(1)
    p, (a, b) = reduce_mod_prime([Mat([[F(1, 2), -1]]), Mat([[F(3, p0), p0]])])
    assert p == p1
    assert a == [[(p1 + 1) // 2, p1 - 1]] and b == [[3 * pow(p0, -1, p1) % p1, p0 % p1]]
    assert reduce_mod_prime([Mat([[F(-1, 3)]])]) == (p0, [[[-pow(3, -1, p0) % p0]]])


# ---------------------------------------------------------------------
# rref_nullspace
# ---------------------------------------------------------------------

def test_nullspace_zero_matrix():
    r, ker = rref_nullspace(Mat.zeros(3, 3))
    assert r == 0 and ker.dim == 3


def test_nullspace_identity():
    r, ker = rref_nullspace(Mat.identity(4))
    assert r == 4 and ker.dim == 0


def test_nullspace_random_vs_fraction_free_oracle():
    rng = support.rng(101)
    for _ in range(20):
        m = Mat([[support.rand_fraction(rng) for _ in range(7)] for _ in range(5)])
        r, ker = rref_nullspace(m)
        assert r == support.fraction_free_rank([list(row) for row in m.data])
        assert r + ker.dim == m.cols
        for v in ker.basis.data:
            assert all(x == 0 for x in support.apply(m, v))


def test_nullspace_basis_is_canonical_echelon():
    m = Mat([[1, 2, 3, 4], [2, 4, 6, 8], [0, 0, 1, 1]])
    _, ker = rref_nullspace(m)
    for v, p in zip(ker.basis.data, ker.pivot_rows):
        assert v[p] == 1 and not any(v[:p])
        for other in ker.pivot_rows:
            if other != p:
                assert v[other] == 0


def _fraction_rref(rows, ncols):
    """Gauss-Jordan over Fractions: the nonzero RREF rows and pivot columns."""
    rows, piv = [list(map(F, r)) for r in rows], []
    for c in range(ncols):
        k = next((i for i in range(len(piv), len(rows)) if rows[i][c]), None)
        if k is None:
            continue
        i = len(piv)
        rows[i], rows[k] = rows[k], rows[i]
        rows[i] = [x / rows[i][c] for x in rows[i]]
        for j, r in enumerate(rows):
            if j != i and r[c]:
                rows[j] = [a - r[c] * b for a, b in zip(r, rows[i])]
        piv.append(c)
    return rows[:len(piv)], tuple(piv)


def _fraction_nullspace(rows, ncols):
    """The rank and the kernel's RREF rows and pivots, all by Fractions."""
    r, piv = _fraction_rref(rows, ncols)
    vecs = []
    for f in (f for f in range(ncols) if f not in piv):
        v = [F(0)] * ncols
        v[f] = F(1)
        for row, p in zip(r, piv):
            v[p] = -row[f]
        vecs.append(v)
    return len(piv), *_fraction_rref(vecs, ncols)


def _kernel_cases():
    rng = support.rng(107)
    out = [Mat.zeros(0, 4), Mat.zeros(3, 0), Mat.zeros(0, 0), Mat.zeros(4, 5),
           Mat.identity(3), Mat([[F(-7, 3)]])]
    for rows, cols in [(3, 3), (4, 7), (2, 9), (7, 4), (9, 2), (5, 5), (6, 10)]:
        for _ in range(3):
            full = Mat(_entries(rng, rows, cols, "small"))
            k = rng.randint(1, min(rows, cols))
            thin = Mat(_entries(rng, rows, k, "small")) * Mat(_entries(rng, k, cols, "small"))
            out += [full, thin]
    out.append(Mat(_entries(rng, 3, 6, "digits100")))
    return out


def test_nullspace_back_substitutes_without_the_full_rref(monkeypatch):
    # rank-deficient, wide, tall, zero, full-rank and 0-column matrices
    from midconv import exactla

    def no_rref(*args):
        raise AssertionError("_rref called")

    monkeypatch.setattr(exactla, "_rref", no_rref)
    for m in _kernel_cases():
        rank_, basis, pivots = _fraction_nullspace(m.data, m.cols)
        r, ker = rref_nullspace(m)
        assert (r, ker.pivot_rows, ker.ambient_dim) == (rank_, pivots, m.cols)
        assert [list(v) for v in ker.basis.data] == basis


def test_nullspace_raises_on_an_inexact_back_substitution(monkeypatch):
    # an echelon form that no integer matrix has: the last pivot 3 does not
    # clear the first pivot 2, so the back substitution leaves a remainder
    from midconv import exactla

    monkeypatch.setattr(exactla, "_echelon", lambda rows, ncols: ([[2, 0, 1], [0, 3, 1]], [0, 1], 1))
    with pytest.raises(InternalError, match="not exact"):
        rref_nullspace(Mat.zeros(2, 3))


# ---------------------------------------------------------------------
# toeplitz_kernel
# ---------------------------------------------------------------------

def _of_rank(rng, n: int, r: int, den) -> Mat:
    """A random n x n matrix of rank r, with denominators drawn from den:
    P D Q for unimodular P, Q and D with r nonzero diagonal entries."""
    d = Mat.diagonal([F(rng.choice([-2, -1, 1, 3]), rng.choice(den)) if i < r else 0
                      for i in range(n)])
    p, q = support.unimodular(rng, n), support.unimodular(rng, n)
    return p * d * q


def _dense_toeplitz_kernel(coeffs) -> Subspace:
    return rref_nullspace(support.block_upper_toeplitz(coeffs))[1]


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("blocks", range(1, 5))
@pytest.mark.parametrize("lead", ["zero", "singular", "nonsingular"])
def test_toeplitz_kernel_matches_the_assembled_grid(n, blocks, lead):
    # every block over its own denominators (1, 2, 3, 6 and 5 mixed); the
    # later blocks singular or not, zero now and then
    rng = support.rng(100 * n + 10 * blocks + len(lead))
    lead_rank = {"zero": 0, "singular": max(n - 1 - rng.randrange(2), 0), "nonsingular": n}[lead]
    for _ in range(3):
        coeffs = [_of_rank(rng, n, lead_rank, (1, 2, 3))]
        coeffs += [_of_rank(rng, n, rng.randint(0, n), rng.choice([(1,), (2, 5), (3, 6)]))
                   for _ in range(blocks - 1)]
        ker = toeplitz_kernel(coeffs)
        assert ker == _dense_toeplitz_kernel(coeffs)
        assert ker.ambient_dim == n * blocks
        if lead == "zero":  # c0 = 0: the first block is free
            assert ker.pivot_rows[:n] == tuple(range(n))
        if lead == "nonsingular":
            assert ker == Subspace.zero(n * blocks)


def test_toeplitz_kernel_returns_at_once_when_the_lead_is_nonsingular(monkeypatch):
    from midconv import exactla

    rest = [support.rand_matrix(support.rng(7), 3) for _ in range(3)]
    singular = [Mat([[1, 1, 0], [1, 1, 0], [0, 0, 2]])] + rest
    dense = [_dense_toeplitz_kernel(singular[:k]) for k in range(1, 5)]
    widths = []
    echelon = exactla._echelon
    monkeypatch.setattr(exactla, "_echelon",
                        lambda rows, ncols: widths.append(ncols) or echelon(rows, ncols))
    lead = Mat([[1, F(1, 2), 0], [0, 2, 0], [1, 0, 3]])
    assert toeplitz_kernel([lead] + rest) == Subspace.zero(12)
    assert widths == [3]
    widths.clear()
    assert toeplitz_kernel(singular) == dense[-1]
    # one block row at a time: n columns, then n + dim ker T_(k-1)
    assert widths == [3] + [3 + ker.dim for ker in dense[:-1]]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.lists(small_matrix(n, n), min_size=1, max_size=3)))
def test_toeplitz_kernel_is_the_canonical_kernel_of_the_grid(coeffs):
    assert toeplitz_kernel(coeffs) == _dense_toeplitz_kernel(coeffs)


def test_diagonal_is_normalised_from_ints_and_fractions():
    values = [F(1, 2), 3, F(-2, 3), 0]
    d = Mat.diagonal(values)
    assert d == Mat([[v if i == j else 0 for j in range(4)] for i, v in enumerate(values)])
    assert (d.den, d.num[0]) == (6, (3, 0, 0, 0))
    assert Mat.diagonal([F(2, 4), F(1, 2)]).den == 2
    assert Mat.diagonal([]) == Mat.zeros(0, 0) and Mat.identity(3).num[2] == (0, 0, 1)


@settings(max_examples=40, deadline=None)
@given(small_matrix(3, 4), st.randoms(use_true_random=False))
def test_subspace_canonical_form_is_order_independent(m, r):
    vecs = [list(row) for row in m.data]
    shuffled = vecs[:]
    r.shuffle(shuffled)
    a = Subspace.from_spanning(vecs, 4)
    b = Subspace.from_spanning(shuffled, 4)
    assert a == b


def _holds_no_fraction(s: Subspace) -> bool:
    return ([f.name for f in fields(s)] == ["basis", "pivot_rows"]
            and type(s.basis) is Mat and type(s.basis.den) is int
            and all(type(x) is int for x in chain(s.pivot_rows, *s.basis.num)))


def test_subspace_is_one_integer_basis_however_it_is_spanned():
    rng = support.rng(41)
    for n, rows in ((4, 2), (5, 3), (6, 1), (3, 3), (5, 5), (2, 1)):
        m = Mat([[support.rand_fraction(rng) for _ in range(n)] for _ in range(rows)])
        _, ker = rref_nullspace(m)
        d = ker.dim
        assert _holds_no_fraction(ker)
        # Fraction rows: an invertible rational combination of the basis
        comb = support.unimodular(rng, d).scaled(F(2, 3)) * ker.basis if d else ker.basis
        # integer rows: each basis row times a nonzero integer, permuted,
        # with redundant sums and a zero row
        ints = [[c * x for x in row] for row, c in
                zip(ker.basis.num, rng.choices((-3, -1, 2, 5), k=d))]
        ints += [[a + b for a, b in zip(ints[0], ints[-1])], [0] * n] if d else []
        rng.shuffle(ints)
        spaces = [ker, Subspace.from_spanning(comb.data, n), Subspace.from_spanning(ints, n),
                  Subspace.from_spanning(ker.basis.data, n)]
        for s in spaces:
            assert _holds_no_fraction(s)
            assert s == ker and hash(s) == hash(ker) and s.ambient_dim == n
            assert s.sum(ker) == ker and s.sum(Subspace.zero(n)) == ker
        assert all(x == 0 for v in ker.basis.data for x in support.apply(m, v))


def _span(rows, n):
    return Subspace.from_spanning(rows, n) if rows else Subspace.zero(n)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=6).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.lists(fractions, min_size=n, max_size=n), max_size=n + 2),
    st.sampled_from(["zero", "equal", "nested", "complementary", "overlapping"]),
    st.integers(min_value=0, max_value=n + 2), st.integers(min_value=0, max_value=n + 2),
    st.randoms(use_true_random=False))))
def test_subspace_sum_is_the_span_of_the_stacked_rows(case):
    """Subspace.sum keeps the left echelon and reduces only the right rows;
    it must still give the canonical RREF that eliminating every row does."""
    n, rows, kind, i, j, r = case
    i, j = sorted((min(i, len(rows)), min(j, len(rows))))
    if kind == "zero":
        left, right = rows, []
    elif kind == "equal":  # the same space, spanned by rescaled shuffled rows
        left, right = rows, [[F(3, 2) * x for x in v] for v in rows]
        r.shuffle(right)
    elif kind == "nested":
        left, right = rows, rows[:i] + [[a + b for a, b in zip(rows[0], rows[-1])]] if rows else []
    elif kind == "complementary":  # a basis of Q^n cut in two
        basis = [list(v) for v in support.unimodular(r, n).data]
        i = min(i, n)
        left, right = basis[:i], basis[i:]
    else:  # rows[i:j] lie in both
        left, right = rows[:j], rows[i:]
    a, b = _span(left, n), _span(right, n)
    want = _span(left + right, n)
    assert a.sum(b) == want and b.sum(a) == want
    assert _holds_no_fraction(a.sum(b))
    if kind == "complementary":
        assert want.dim == n and a.dim + b.dim == n
    if kind in ("zero", "equal", "nested"):
        assert a.sum(b) == a


def test_subspace_sum_and_intersection_dims():
    a = Subspace.from_spanning([[1, 0, 0, 0], [0, 1, 0, 0]], 4)
    b = Subspace.from_spanning([[0, 1, 0, 0], [0, 0, 1, 0]], 4)
    c = Subspace.from_spanning([[0, 1, 0, 0]], 4)
    assert a.sum(b).dim == 3
    # the intersection is the line through e2: a 1-dimensional overlap in
    # the dimension count, contained in both
    assert a.dim + b.dim - a.sum(b).dim == 1
    assert a.sum(c) == a and b.sum(c) == b
    assert support.contains(a.sum(b), [0, 1, 0, 0])
    assert not support.contains(a, [0, 0, 1, 0])


# ---------------------------------------------------------------------
# charpoly
# ---------------------------------------------------------------------

def test_charpoly_diagonal():
    assert charpoly(Mat.diagonal([0, -1])) == (F(0), F(1), F(1))  # x^2 + x


def test_charpoly_jordan_block():
    assert charpoly(Mat([[3, 1], [0, 3]])) == (F(9), F(-6), F(1))  # (x-3)^2


def test_charpoly_random_vs_cofactor_oracle():
    rng = support.rng(7)
    for _ in range(15):
        m = support.rand_matrix(rng, 4, pool=(-2, -1, 0, 1, 2, F(1, 2)))
        assert charpoly(m) == tuple(support.charpoly_cofactor(m))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=400))
def test_charpoly_conjugation_invariant(seed):
    rng = support.rng(seed)
    m = support.rand_matrix(rng, 3)
    p = support.unimodular(rng, 3)
    assert charpoly(inverse(p) * m * p) == charpoly(m)


# ---------------------------------------------------------------------
# rational_spectrum
# ---------------------------------------------------------------------

def test_spectrum_diagonal():
    spec, full = rational_spectrum(Mat.diagonal([0, 0, -2]))
    assert spec == [(F(0), 2), (F(-2), 1)]
    assert full


def test_spectrum_irrational():
    companion = Mat([[0, 2], [1, 0]])  # x^2 - 2
    spec, full = rational_spectrum(companion)
    assert spec == [] and not full


def test_spectrum_confluent_residue_block():
    # residue with alpha = 1/3, gamma = 1/2: eigenvalues 0 and -gamma
    alpha, gamma, k = F(1, 3), F(1, 2), F(1)
    m = Mat([[-alpha, k], [alpha * (gamma - alpha) / k, alpha - gamma]])
    spec, full = rational_spectrum(m)
    assert full
    assert sorted(spec) == [(F(-1, 2), 1), (F(0), 1)]


def test_spectrum_large_entries():
    # eigenvalues with large numerators force the Sturm isolation path
    m = Mat.diagonal([F(1234567), F(-7654321, 2), F(1234567)])
    spec, full = rational_spectrum(m)
    assert full
    assert spec == [(F(1234567), 2), (F(-7654321, 2), 1)]


def test_spectrum_recovers_constructed_eigenvalues():
    rng = support.rng(23)
    for _ in range(10):
        vals = [F(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(4)]
        p = support.unimodular(rng, 4)
        m = p * Mat.diagonal(vals) * inverse(p)
        spec, full = rational_spectrum(m)
        assert full
        expected = {}
        for v in vals:
            expected[v] = expected.get(v, 0) + 1
        assert dict(spec) == expected


# ---------------------------------------------------------------------
# jordan_partition / semisimplicity
# ---------------------------------------------------------------------

def test_jordan_single_block():
    assert jordan_partition(Mat([[0, 1], [0, 0]]), 0) == (2,)


def test_jordan_semisimple():
    assert jordan_partition(Mat.diagonal([5, 5, 5]), 5) == (1, 1, 1)


def test_jordan_not_an_eigenvalue():
    assert jordan_partition(Mat.diagonal([1, 2]), 7) == ()


def test_jordan_normal_form_block_centralizer():
    # L-form with parts (2,1) at a repeated eigenvalue: one 1 in the corner
    m = Mat([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    part = jordan_partition(m, 0)
    assert part == (2, 1)
    assert sum(q * q for q in part) == 5
    assert support.centralizer_dim_dense(m) == 5


def test_partition_sums_match_multiplicity():
    rng = support.rng(3)
    for _ in range(10):
        vals = [rng.choice([0, 0, 1]) for _ in range(3)]
        p = support.unimodular(rng, 3)
        m = p * Mat([[vals[0], 1, 0], [0, vals[1], 0], [0, 0, vals[2]]]) * inverse(p)
        spec, _ = rational_spectrum(m)
        for lam, mult in spec:
            assert sum(jordan_partition(m, lam)) == mult


def test_semisimple_diagonal():
    assert is_semisimple(Mat.diagonal([1, 2, 2]))


def test_semisimple_nilpotent_false():
    assert not is_semisimple(Mat([[0, -1], [0, 0]]))


def test_semisimple_constructed_true():
    rng = support.rng(9)
    for _ in range(8):
        assert is_semisimple(support.semisimple_rational(rng, 3))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=300))
def test_semisimple_conjugation_invariant(seed):
    rng = support.rng(seed)
    m = support.rand_matrix(rng, 3)
    p = support.unimodular(rng, 3)
    assert is_semisimple(m) == is_semisimple(inverse(p) * m * p)


def test_conjugate_partition():
    assert conjugate_partition((3, 1)) == (2, 1, 1)
    assert conjugate_partition((2, 2)) == (2, 2)
    assert conjugate_partition(()) == ()
    assert conjugate_partition((5,)) == (1, 1, 1, 1, 1)


def test_primary_components_split():
    rng = support.rng(31)
    p = support.unimodular(rng, 4)
    m = p * Mat.diagonal([1, 1, -2, 3]) * inverse(p)
    comps = primary_components(m)
    assert sorted((lam, jordan, s.dim) for lam, jordan, s, _ in comps) == [
        (F(-2), (1,), 1), (F(1), (1, 1), 2), (F(3), (1,), 1)
    ]


def test_primary_components_with_residual():
    m = Mat([[0, 2, 0], [1, 0, 0], [0, 0, 5]])  # x^2-2 factor plus eigenvalue 5
    comps = primary_components(m)
    tags = sorted((lam, jordan, s.dim) for lam, jordan, s, _ in comps if lam is not None)
    assert tags == [(F(5), (1,), 1)]
    resid = [(jordan, s) for lam, jordan, s, _ in comps if lam is None]
    assert len(resid) == 1 and resid[0][0] == () and resid[0][1].dim == 2


# ---------------------------------------------------------------------
# jordan_data and the spectrum kept on a matrix
# ---------------------------------------------------------------------

def _jordan_block(lam, k):
    return [[lam if i == j else int(j == i + 1) for j in range(k)] for i in range(k)]


def _jordan_kind(rng, kind):
    """A matrix of the given kind; the block sums are conjugated by a
    unimodular matrix."""
    if kind == "1x1":
        return Mat([[F(rng.randint(-3, 3), rng.choice([1, 2]))]])
    if kind == "scalar":
        return Mat.diagonal([F(rng.randint(-3, 3), 2)] * rng.randint(1, 5))
    if kind == "random":
        return support.rand_matrix(rng, rng.randint(1, 5))
    lam = rng.randint(-2, 2)
    if kind == "nilpotent":
        blocks = [_jordan_block(0, rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
    elif kind == "derogatory":  # blocks of mixed sizes at lam, next to another eigenvalue
        blocks = [_jordan_block(lam, k) for k in rng.sample([3, 2, 1, 1], rng.randint(2, 4))]
        blocks.append(_jordan_block(lam + rng.choice([-1, 1]), rng.randint(1, 2)))
    else:  # "irrational": +- sqrt 2 next to a rational Jordan block
        blocks = [[[0, 2], [1, 0]], _jordan_block(lam, rng.randint(1, 2))]
    d = support.direct_sum(*blocks)
    p = support.unimodular(rng, d.rows)
    return p * d * inverse(p)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.sampled_from(["1x1", "scalar", "random", "nilpotent", "derogatory", "irrational"]))
def test_jordan_data_is_primary_components_without_the_spaces(seed, kind):
    m = _jordan_kind(support.rng(seed), kind)
    comps = primary_components(Mat.from_integers(m.num, m.den))  # its own spectrum
    data, full = jordan_data(m)
    assert data == [(lam, space.dim, part) for lam, part, space, _ in comps if lam is not None]
    assert full == all(lam is not None for lam, *_ in comps)
    for lam, mult, part in data:
        assert sum(part) == mult and part == jordan_partition(m, lam)


@pytest.mark.parametrize("m, expected", [
    (support.direct_sum(_jordan_block(0, 3), _jordan_block(0, 1)), [(F(0), 4, (3, 1))]),
    (Mat.diagonal([F(1, 2)] * 3), [(F(1, 2), 3, (1, 1, 1))]),
    (Mat([[F(-7, 3)]]), [(F(-7, 3), 1, (1,))]),
    (support.direct_sum(_jordan_block(2, 2), _jordan_block(2, 1), [[-1]]),
     [(F(2), 3, (2, 1)), (F(-1), 1, (1,))]),
    (Mat([[0, 2, 0], [1, 0, 0], [0, 0, 5]]), [(F(5), 1, (1,))]),
    (Mat([[0, -1], [1, 0]]), []),
    (Mat.zeros(0, 0), []),
], ids=["nilpotent", "scalar", "1x1", "derogatory", "irrational-residual", "rotation", "empty"])
def test_jordan_data_cases(m, expected):
    assert jordan_data(m) == (expected, sum(mult for _, mult, _ in expected) == m.rows)


def test_jordan_data_eliminates_only_for_repeated_eigenvalues(monkeypatch):
    from midconv import exactla

    def no_kernel(*args):
        raise AssertionError("jordan_data back-substitutes")

    p = support.unimodular(support.rng(5), 4)
    simple = p * Mat.diagonal([1, 2, 3, F(1, 2)]) * inverse(p)
    repeated = p * support.direct_sum(_jordan_block(1, 2), [[3]], [[5]]) * inverse(p)
    calls = []
    real = exactla._echelon
    monkeypatch.setattr(exactla, "_echelon", lambda rows, c: calls.append(c) or real(rows, c))
    monkeypatch.setattr(exactla, "_kernel", no_kernel)
    assert jordan_data(simple)[0] == [
        (F(1, 2), 1, (1,)), (F(1), 1, (1,)), (F(2), 1, (1,)), (F(3), 1, (1,))]
    assert calls == []
    # (2,) at 1: the ranks of (m - 1) and (m - 1)^2, nothing for 3 and 5
    assert jordan_data(repeated)[0] == [(F(1), 2, (2,)), (F(3), 1, (1,)), (F(5), 1, (1,))]
    assert calls == [4, 4]
    with pytest.raises(ValueError):
        jordan_data(Mat.zeros(2, 3))


def test_rational_spectrum_is_taken_once_per_matrix(monkeypatch):
    from midconv import exactla

    calls = []
    real = exactla._scaled_charpoly
    monkeypatch.setattr(exactla, "_scaled_charpoly", lambda m: calls.append(m) or real(m))
    m = Mat([[2, 1, 0], [0, 2, 0], [0, 0, F(-1, 3)]])
    twin = Mat(m.data)
    before = hash(m)
    expected = ([(F(2), 2), (F(-1, 3), 1)], True)
    spec, _ = rational_spectrum(m)
    assert (spec, _) == expected
    spec.append((F(9), 1))
    spec[0] = (F(0), 5)
    assert rational_spectrum(m) == expected
    assert primary_components(m)[0][:2] == (F(2), (2,))
    assert len(calls) == 1
    # the kept answer is no part of the value
    assert hash(m) == before == hash(twin) and m == twin and twin == m
    # an equal matrix and a derived one each take their own
    assert rational_spectrum(twin) == expected and len(calls) == 2
    assert rational_spectrum(m.scaled(2)) == ([(F(4), 2), (F(-2, 3), 1)], True)
    assert len(calls) == 3


# ---------------------------------------------------------------------
# misc: rank/det/inverse/polynomials
# ---------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(small_matrix(3, 5))
def test_rank_nullity(m):
    r, ker = rref_nullspace(m)
    assert r == rank(m)
    assert r + ker.dim == m.cols


def test_det_and_inverse():
    m = Mat([[1, 2], [3, F(1, 2)]])
    assert det(m) == F(1, 2) - 6
    assert m * inverse(m) == Mat.identity(2)
    with pytest.raises(ValueError):
        inverse(Mat([[1, 2], [2, 4]]))


@pytest.mark.parametrize("n", [2, 3])
def test_unimodular_is_never_the_identity(n):
    # at these sizes the random shears of `support.unimodular` often cancel;
    # a conjugate by the identity would make a test compare a tuple with itself
    for seed in range(1000):
        p = support.unimodular(support.rng(seed), n)
        assert p != Mat.identity(n), seed
        assert det(p) in (1, -1), seed


def test_each_elimination_result_is_normalised_once(monkeypatch):
    # the reduced rows come back over a denominator they share a factor with,
    # and one normalising `from_integers` call per result cancels it
    m = Mat([[2, 4, 6, 8], [1, 3, F(1, 2), 0], [3, 7, F(13, 2), 8]])
    sq = Mat([[2, 4, 6], [1, 3, F(1, 2)], [0, 5, F(1, 3)]])
    calls = []
    real = Mat.from_integers
    monkeypatch.setattr(Mat, "from_integers",
                        staticmethod(lambda *a, **k: calls.append(a) or real(*a, **k)))
    r, ker = rref_nullspace(m)
    assert len(calls) == 1 and (r, ker.dim) == (2, 2)
    assert ker.basis == Mat([[1, 0, -2, F(5, 4)], [0, 1, -6, 4]])
    calls.clear()
    inv = inverse(sq)
    assert len(calls) == 1 and inv == Mat(inv.data)  # normalised, as Mat() builds it
    monkeypatch.undo()
    assert sq * inv == Mat.identity(3)


def _poly_times(p, f):
    """Product of integer coefficient lists, lowest degree first."""
    out = [0] * (len(p) + len(f) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(f):
            out[i + j] += a * b
    return out


def test_poly_gcd_and_squarefree(monkeypatch):
    import midconv.exactla as exactla
    from midconv.exactla import _pdivmod, _sturm_chain

    q = [2, -3, 0, 1]  # (y-1)^2 (y+2), lowest coefficient first
    chain = _sturm_chain(q)
    # q, q' = 3(y^2 - 1) made primitive, then -rem made primitive
    assert chain == [q, [-1, 0, 1], [-1, 1]]
    assert chain[-1] in ([-1, 1], [1, -1])  # +-(y - 1) = gcd(q, q')
    # the square-free part (y-1)(y+2), up to sign, with no remainder
    assert _pdivmod(q, chain[-1]) in (([-2, 1, 1], []), ([2, -1, -1], []))
    # y + 1 does not divide q: y^3 - 3y + 2 = (y + 1)(y^2 - y - 2) + 4
    assert _pdivmod(q, [1, 1]) == ([-2, -1, 1], [4])
    # a chain whose last member does not divide q is an internal error
    real = exactla._sturm_chain
    monkeypatch.setattr(exactla, "_sturm_chain", lambda q: real(q)[:-1] + [[1, 1]])
    with pytest.raises(InternalError):
        rational_spectrum(Mat.diagonal([1, 1, -2]))


_POLYS = st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=6).filter(
    lambda p: p[-1] != 0)


@settings(max_examples=80, deadline=None)
@given(_POLYS, _POLYS, st.sampled_from(["any", "monic", "divides"]))
def test_pdivmod_is_a_pseudo_division(a, b, kind):
    from midconv.exactla import _pdivmod

    if kind == "monic":
        b = b[:-1] + [1]
    elif kind == "divides":
        a = _poly_times(b, a)
    quo, rem = _pdivmod(a, b)
    back = [x + y for x, y in zip_longest(_poly_times(quo, b) if quo else [], rem, fillvalue=0)]
    while not back[-1]:
        back.pop()
    c, r = divmod(back[-1], a[-1])  # quo b + rem = c a for a positive integer c
    assert r == 0 and c >= 1 and back == [c * x for x in a]
    assert len(rem) < len(b) and (not rem or rem[-1])
    if kind != "any":
        assert c == 1
    if kind == "divides":
        assert rem == []


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.integers(min_value=-30, max_value=30),
                       st.integers(min_value=1, max_value=3), max_size=4),
       st.sampled_from([[1], [1, 0, 1], [-2, 0, 1], [1, 1, 1], [-2, 0, 0, 1], [4, 0, -4, 0, 1]]))
def test_integer_roots_are_the_roots_with_their_multiplicities(roots, other):
    # prod (y - r)^k times 1, y^2 + 1, y^2 - 2, y^2 + y + 1, y^3 - 2 or (y^2 - 2)^2
    from midconv.exactla import _integer_roots, _sturm_chain

    p = other
    for r0, k in roots.items():
        for _ in range(k):
            p = _poly_times(p, [-r0, 1])
    if len(p) > 1:
        assert _integer_roots(_sturm_chain(p)) == sorted(roots.items())


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=3), st.sampled_from([1, 30, 10 ** 30]),
       st.integers(min_value=0, max_value=10 ** 6))
def test_cofactor_polynomial_is_the_one_from_the_residues(n, scale, seed):
    # det(yI - den m) by cofactors against the multi-modular residues
    # r = D det(xI - m), whose q_i are r_i den^(n-i) / D
    from midconv.exactla import _charpoly_residues, _scaled_charpoly

    r = support.rng(seed)
    m = Mat([[F(r.randint(-9 * scale, 9 * scale), r.choice([1, scale, 7]))
              for _ in range(n)] for _ in range(n)])
    res, delta = _charpoly_residues(m)
    assert _scaled_charpoly(m) == [x * m.den ** (n - i) // delta for i, x in enumerate(res)]
    assert all(x * m.den ** (n - i) % delta == 0 for i, x in enumerate(res))


_BIG = st.integers(min_value=-10 ** 12, max_value=10 ** 12)


@settings(max_examples=80, deadline=None)
@given(st.one_of(
    st.tuples(_BIG, st.integers(1, 4), _BIG, st.integers(0, 4)).map(
        lambda t: [[-t[0], 1]] * t[1] + [[-t[2], 1]] * t[3]),
    st.tuples(_BIG, st.integers(-10 ** 24, 10 ** 24), st.integers(1, 4)).map(
        lambda t: [[t[1], t[0], 1]] * t[2])))
@example([[6, -5, 1]] * 3)
@example([[-2, 0, 1]] * 4)
@example([[-10 ** 12, 1]] * 4 + [[10 ** 12, 1]] * 4)
def test_closed_form_roots_are_the_bisected_roots(factors):
    # (y - a)^k (y - b)^l and (y^2 + py + q)^k: a square-free part of degree
    # 1 or 2, whose integer roots come in closed form, checked by deflation
    from midconv.exactla import _integer_roots, _pdivmod, _small_roots, _sturm_chain

    p = [1]
    for f in factors:
        p = _poly_times(p, f)
    chain = _sturm_chain(p)
    sqfree, rem = _pdivmod(p, chain[-1])
    assert rem == [] and 2 <= len(sqfree) <= 3
    assert _small_roots(p, sqfree) == _integer_roots(chain)


def test_closed_form_candidates_are_checked_by_deflation():
    from midconv.exactla import _small_roots

    # 2 is the root of s = y - 2 but not of q = y^2 + 1, so it is dropped
    assert _small_roots([1, 0, 1], [-2, 1]) == []
    # 2y^2 - 3y + 1 has the roots 1 and 1/2; y = 1/2 is no integer, and
    # 3y - 1 has none
    assert _small_roots([1, -3, 2], [1, -3, 2]) == [(1, 1)]
    assert _small_roots([-1, 3], [-1, 3]) == []


@pytest.mark.parametrize("base, expected, semisimple", [
    (Mat.diagonal([2, 2, -1, -1]), [(F(-1), 2), (F(2), 2)], True),
    (Mat([[3, 1, 0, 0], [0, 3, 1, 0], [0, 0, 3, 1], [0, 0, 0, 3]]), [(F(3), 4)], False),
])
def test_four_by_four_with_a_small_square_free_part_takes_the_closed_form(
        base, expected, semisimple, monkeypatch):
    from midconv import exactla

    def no_bisection(chain):
        raise AssertionError("bisection on a square-free part of degree <= 2")

    monkeypatch.setattr(exactla, "_integer_roots", no_bisection)
    p = support.unimodular(support.rng(44), 4)
    m = p * base * inverse(p)
    assert m != base
    assert rational_spectrum(m) == (expected, True)
    assert exactla.distinct_root_count(m) == len(expected)
    assert is_semisimple(m) == semisimple


@pytest.mark.parametrize("shape", [(2, 3), (3, 2), (1, 2)])
def test_spectra_of_a_non_square_matrix_are_refused(shape):
    from midconv.exactla import distinct_root_count

    for f in (rational_spectrum, distinct_root_count):
        with pytest.raises(ValueError) as info:
            f(Mat([[1] * shape[1]] * shape[0]))
        assert str(info.value) == "characteristic polynomial of a non-square matrix"


def test_semisimple_eigenspaces_takes_one_characteristic_polynomial(monkeypatch):
    # the rotation (+) 1 is semisimple with a spectrum that is not fully
    # rational: is_semisimple reads the square-free part kept with it
    from midconv import exactla
    from midconv.errors import PreconditionError
    from midconv.model import semisimple_eigenspaces

    calls = []
    real = exactla._scaled_charpoly
    monkeypatch.setattr(exactla, "_scaled_charpoly", lambda m: calls.append(m) or real(m))
    with pytest.raises(PreconditionError, match="not rational"):
        semisimple_eigenspaces(Mat([[0, -1, 0], [1, 0, 0], [0, 0, 1]]), "not semisimple",
                               "not rational")
    assert len(calls) == 1


def test_charpoly_requires_square():
    with pytest.raises(ValueError):
        charpoly(Mat.zeros(2, 3))


def test_charpoly_undersized_bound_raises(monkeypatch):
    import midconv.exactla as exactla

    big = 10 ** 100
    m = Mat([[big + 7, 1, 0], [2, big, -3], [0, 5, F(1, 3)]])
    assert charpoly(m) == tuple(support.charpoly_cofactor(m))
    # one prime and a wrong symmetric lift: the exact trace check must catch it
    monkeypatch.setattr(exactla, "_coefficient_bound", lambda dens, rows: 1)
    with pytest.raises(InternalError):
        charpoly(m)


def test_primary_components_blocks_match_full_conjugation():
    rng = support.rng(31)
    for n in (2, 3, 5):
        p = support.unimodular(rng, n)
        cut = rng.randint(1, n - 1)
        lams = [F(1)] * cut + [F(rng.choice((-2, 3))) for _ in range(n - cut)]
        m = p * Mat.diagonal(lams) * inverse(p)
        mats = [support.rand_matrix(rng, n, pool=(-2, 0, 1, F(1, 2))) for _ in range(2)]
        comps = primary_components(m, m, *mats)
        assert len(comps) > 1
        basis = support.from_columns([v for *_, s, _ in comps for v in s.basis.data], n)
        conj = [inverse(basis) * a * basis for a in mats]
        off = 0
        for lam, _, s, (own, *blocks) in comps:
            idx = range(off, off + s.dim)
            assert own == Mat.diagonal([lam] * s.dim)
            assert tuple(blocks) == tuple(c.submatrix(idx, idx) for c in conj)
            off += s.dim
        assert off == n


def test_primary_components_single_component_blocks_are_the_matrices(monkeypatch):
    import midconv.exactla as exactla

    def no_inverse(m):
        raise AssertionError("inverse called")

    monkeypatch.setattr(exactla, "inverse", no_inverse)
    rng = support.rng(32)
    mats = tuple(support.rand_matrix(rng, 3, pool=(-1, 0, 2, F(1, 3))) for _ in range(2))
    zero, jordan = Mat.zeros(3, 3), Mat([[2, 1, 0], [0, 2, 0], [0, 0, 2]])
    cube_root = Mat([[0, 0, 2], [1, 0, 0], [0, 1, 0]])  # x^3 - 2: one residual component
    for m, lam in ((zero, F(0)), (jordan, F(2)), (cube_root, None)):
        (comp,) = primary_components(m, *mats)
        assert comp[0] == lam and comp[2].dim == 3 and comp[3] == mats
    # several components and no matrices to cut: no blocks, and no inverse either
    assert [c[3] for c in primary_components(Mat.diagonal([1, 2, 2]))] == [(), ()]


def _old_own_blocks(m, comps):
    """m's own blocks cut as (m P) at each component's pivots and columns."""
    p = Mat.block([[s.basis] for _, _, s, _ in comps]).transpose()
    mp, off, out = m * p, 0, []
    for _, _, s, _ in comps:
        out.append(mp.submatrix(s.pivot_rows, range(off, off + s.dim)))
        off += s.dim
    return out


def test_primary_components_semisimple_own_blocks_take_no_product(monkeypatch):
    # a semisimple lead's own blocks are lam I, as the old (m P)[pivots] cut
    # gave them, with no product with m on the left; a component with a
    # Jordan block is still cut, from m's rows at its pivots
    rng = support.rng(33)
    leads = []
    for k in (2, 3, 4):
        lams = [F(x, rng.choice([1, 2, 3])) for x in rng.sample(range(-4, 5), k)]
        diag = [lam for lam in lams for _ in range(rng.randint(1, 3))]
        p = support.unimodular(rng, len(diag))
        leads.append(p * Mat.diagonal(diag) * inverse(p))
    p = support.unimodular(rng, 5)
    jordan = p * support.direct_sum(_jordan_block(1, 2), [[1]], [[F(-1, 2)]], [[F(-1, 2)]]) \
        * inverse(p)
    lefts, real = [], Mat.__mul__
    monkeypatch.setattr(Mat, "__mul__", lambda a, b: lefts.append(a) or real(a, b))
    for m in leads + [jordan]:
        lefts.clear()
        comps = primary_components(m, m)
        # the Jordan lead's products: (m - 1)^2 in its kernel chain, then its
        # 3 x 3 block from m's rows at the pivots
        assert len(comps) > 1 and all(a is not m for a in lefts)
        assert [a.rows for a in lefts] == ([5, 3] if m is jordan else [])
        old = _old_own_blocks(m, comps)
        for (lam, part, s, (own,)), cut in zip(comps, old):
            assert own == cut
            assert own._spectrum[0] == ((lam, s.dim),) and own._spectrum[4] == part
            if part[0] == 1:
                assert own == Mat.diagonal([lam] * s.dim)
    assert [part for _, part, _, _ in primary_components(jordan, jordan)] == [(2, 1), (1, 1)]


def test_integer_root_isolation_stress(monkeypatch):
    import midconv.exactla as exactla
    from midconv.exactla import _integer_roots, _sturm_chain

    def pairs(roots):
        return sorted(Counter(roots).items())

    def poly_from_roots(int_roots, extra_irreducible=True):
        p = [1]
        for r0 in int_roots:
            p = _poly_times(p, [-r0, 1])
        if extra_irreducible:
            p = _poly_times(p, [2, 0, 1])  # y^2 + 2, no real roots
        return p

    cases = [
        [],
        [0],
        [0, 0, 0],
        [1, -1],
        [5, 6],                      # adjacent roots
        [-1000003, 1000003],         # large magnitude
        [7, 7, -2],                  # repeated plus simple
        [123456, 123457],            # large adjacent
        [0, 1, -1, 2, -2, 3],
        # on the integer midpoint 0 of the first split; for even polynomials
        # the derivative vanishes there too
        [0, 0, 5],
        [-1, 0, 1],
        [-4, 4],
        [-4, 0, 0, 4],
        # 10^6-size roots: single, adjacent, repeated, symmetric about 0
        [10 ** 6],
        [-10 ** 6, 10 ** 6],
        [999999, 10 ** 6, 10 ** 6 + 1],
        [10 ** 6, 10 ** 6, -3],
        [-10 ** 6, 0, 10 ** 6],
        # high multiplicity: the chain ends in a gcd of degree 8 and 11
        [3] * 9,
        [0] * 12,
    ]
    for roots in cases:
        for extra in (True, False):
            p = poly_from_roots(roots, extra)
            if len(p) == 1:
                continue  # the constant 1 has no chain
            assert _integer_roots(_sturm_chain(p)) == pairs(roots), roots
    # irrational-only polynomial: (y^2 - 2)(y^2 - 3)
    assert _integer_roots(_sturm_chain([6, 0, -5, 0, 1])) == []
    # a repeated irrational pair next to an integer root: (y^2 - 2)^2 (y - 5)
    p = _poly_times(_poly_times([-2, 0, 1], [-2, 0, 1]), [-5, 1])
    assert _integer_roots(_sturm_chain(p)) == [(5, 1)]
    # Mignotte's y^4 - 2(100y - 1)^2: two irrational roots about 1.4e-6
    # apart, near 1/100; bisection stops at the unit interval around 0
    # instead of separating them
    chain = _sturm_chain([-2, 400, -20000, 0, 1])
    calls = []
    real = exactla._variations
    monkeypatch.setattr(exactla, "_variations", lambda *a: calls.append(a) or real(*a))
    assert _integer_roots(chain) == []
    # each call reads every member of the chain: at most 200 member values
    assert calls and len(calls) * len(chain) < 200


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=6),
       st.sampled_from([[1], [-2, 0, 1], [1, 0, 1], [0, 0, -2, 0, 1]]),
       st.lists(st.integers(min_value=-8, max_value=8), min_size=1, max_size=4))
def test_sign_variations_match_the_chain_read_in_fractions(roots, other, points):
    # integer roots times 1, y^2 - 2, y^2 + 1 or y^2 (y^2 - 2)
    from midconv.exactla import _integer_roots, _sturm_chain, _variations

    p = other
    for r0 in roots:
        p = _poly_times(p, [-r0, 1])
    chain = _sturm_chain(p)
    members = [[c << j for j, c in enumerate(reversed(m))] for m in chain]
    for c in points:
        x = F(2 * c + 1, 2)
        signs = [v > 0 for v in (sum(a * x ** k for k, a in enumerate(m)) for m in chain) if v]
        assert _variations(members, 2 * c + 1) == sum(a != b for a, b in zip(signs, signs[1:]))
    expected = Counter(roots)
    if len(other) == 5:
        expected[0] += 2  # y^2 (y^2 - 2)
    assert _integer_roots(chain) == sorted(expected.items())


def test_rank_matches_naive_on_rank_deficient():
    rng = support.rng(140)
    for _ in range(12):
        r_target = rng.randint(0, 3)
        rows = []
        base = [[support.rand_fraction(rng) for _ in range(6)] for _ in range(r_target)]
        for _ in range(5):
            coeffs = [support.rand_fraction(rng) for _ in range(r_target)]
            rows.append([
                sum((c * b[k] for c, b in zip(coeffs, base)), F(0))
                for k in range(6)
            ])
        m = Mat(rows)
        assert rank(m) == support.naive_rank([list(r) for r in m.data]) <= r_target
