"""Tuple model: validation, addition, padding, spectral types, fixtures."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from midconv.errors import PreconditionError, ValidationError
from midconv.exactla import Mat, inverse, is_semisimple, jordan_partition, primary_components
from midconv.model import (
    EigenData,
    MatrixTuple,
    SingularPoint,
    SpectralBlock,
    SpectralType,
    addition,
    bessel_example,
    build_L,
    finite_point,
    from_okubo,
    hypergeometric_example,
    infinity_point,
    inverse_laplace_example,
    make_tuple,
    pad_point,
    removable_points,
    remove_point,
    semisimple_eigenspaces,
    spectral_type,
    strip_trivial,
    validate,
)
import support

HYP = hypergeometric_example(1, F(1, 2), F(1, 3), 1)


# ---------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------

def test_validate_fixture_ok():
    validate(HYP)


def test_validate_duplicate_locations():
    p = finite_point(0, 0, [Mat.identity(2)])
    q = finite_point(0, 0, [Mat.identity(2)])
    with pytest.raises(ValidationError, match="duplicate"):
        make_tuple(2, infinity_point(0, []), [p, q])


def test_validate_dimension_mismatch():
    bad = SingularPoint(F(0), 0, (Mat.zeros(2, 3),))
    with pytest.raises(ValidationError, match="shape"):
        MatrixTuple(2, infinity_point(1, [Mat.identity(2)]), (bad,))


def test_validate_wrong_coefficient_count():
    bad = SingularPoint(F(0), 1, (Mat.identity(2),))
    with pytest.raises(ValidationError, match="coefficients"):
        MatrixTuple(2, infinity_point(0, []), (bad,))


# ---------------------------------------------------------------------
# slot order: points, slots, slot_coeffs, with_slot_coeffs
# ---------------------------------------------------------------------

# Poincare ranks [m0, m1, ..., mr]: infinity of rank 0-2, then 0-3 finite
# points of rank 0-2, each with M >= 1
SKELETONS = [[1], [2], [0, 0], [1, 0], [2, 1], [0, 2], [0, 0, 1], [1, 2, 0],
             [2, 0, 0, 2], [0, 1, 0, 2], [1, 1, 1, 1]]


def _skeleton_tuple(seed, ranks, scalar=()):
    """A random 2x2 tuple with Poincare ranks `ranks` whose points listed in
    `scalar` carry only scalar multiples of the identity."""
    r = support.rng(seed)
    mats = [[Mat.diagonal([F(r.choice((-1, 0, 2)))] * 2) if i in scalar
             else support.rand_matrix(r, 2) for _ in range(m + (i > 0))]
            for i, m in enumerate(ranks)]
    return make_tuple(2, infinity_point(ranks[0], mats[0]), [
        finite_point(i, m, c) for i, (m, c) in enumerate(zip(ranks[1:], mats[1:]), start=1)])


@pytest.mark.parametrize("ranks", SKELETONS)
def test_slot_order_members(ranks):
    t = _skeleton_tuple(len(ranks), ranks)
    assert t.slots() == [(0, j) for j in range(ranks[0], 0, -1)] + [
        (i, j) for i, m in enumerate(ranks[1:], start=1) for j in range(m, -1, -1)]
    assert [t.coeff(i, j) for (i, j) in t.slots()] == t.slot_coeffs()
    assert len(t.slots()) == t.slot_count
    assert t.with_slot_coeffs(t.slot_coeffs(), t.size) == t
    ones = t.with_slot_coeffs([Mat.identity(3)] * t.slot_count, 3)
    assert ones.size == 3 and ones.slot_coeffs() == [Mat.identity(3)] * t.slot_count
    assert ones.slots() == t.slots()
    for mats in (t.slot_coeffs()[1:], t.slot_coeffs() + [Mat.identity(2)]):
        with pytest.raises(ValidationError, match="slots"):
            t.with_slot_coeffs(mats, 2)
    assert [p.poincare_rank for p in t.points] == ranks
    assert all(t.points[i] is t.point(i) for i in range(t.num_points))
    assert t.all_coeffs_with_residue() == [
        a for i in range(t.num_points) for a in t.point_coeffs_with_residue(i)]
    for i in (-1, t.num_points):
        with pytest.raises(IndexError):
            t.point(i)
        with pytest.raises(IndexError):
            spectral_type(t, i)


@pytest.mark.parametrize("ranks", SKELETONS)
def test_removable_points_brute_force(ranks):
    for scalar in [(), range(0, len(ranks), 2), range(len(ranks))]:
        t = _skeleton_tuple(7, ranks, set(scalar))
        slots = t.slots()
        not_scalar = {i for i, j in slots if t.coeff(i, j).scalar_multiple_of_identity() is None}
        assert removable_points(t) == tuple(sorted({i for i, _ in slots} - not_scalar))


@pytest.mark.parametrize("ranks", SKELETONS)
def test_addition_per_slot(ranks):
    t = _skeleton_tuple(3, ranks)
    r = support.rng(len(ranks))
    shift = [support.rand_fraction(r) for _ in range(t.slot_count)]
    out = addition(t, shift)
    assert [p.location for p in out.points] == [p.location for p in t.points]
    for (i, j), s in zip(t.slots(), shift):
        assert out.coeff(i, j) == t.coeff(i, j) + Mat.diagonal([s] * 2)


# ---------------------------------------------------------------------
# addition
# ---------------------------------------------------------------------

def test_addition_zero_shift_is_identity():
    assert addition(HYP, [0, 0]) == HYP


def test_addition_wrong_length():
    with pytest.raises(ValidationError, match="length"):
        addition(HYP, [1])


def test_addition_normalizes_leading_eigenvalue():
    # a generic semisimple leading coefficient shifted so one eigenvalue is 0
    rng = support.rng(4)
    a1 = support.semisimple_rational(rng, 2, pool=(2, 5))
    t = make_tuple(2, infinity_point(1, [a1]),
                   [finite_point(0, 0, [support.rand_matrix(rng, 2)])])
    st0 = spectral_type(t, 0)
    d = st0.blocks[0].eigenvalue
    shifted = addition(t, [-d, 0])
    assert any(b.eigenvalue == 0 for b in spectral_type(shifted, 0).blocks)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=200),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=2, max_size=2),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=2, max_size=2),
)
def test_addition_group_action(seed, s1, s2):
    rng = support.rng(seed)
    t = support.rand_tuple(rng, 2, 1, [1, 0])
    a = addition(addition(t, s1), s2)
    b = addition(t, [x + y for x, y in zip(s1, s2)])
    assert a == b
    assert addition(addition(t, s1), [-x for x in s1]) == t


# ---------------------------------------------------------------------
# pad_point / strip / removable
# ---------------------------------------------------------------------

def test_pad_point_finite():
    padded = pad_point(HYP, 1)
    p = padded.finite[0]
    assert p.poincare_rank == 1
    assert p.coeffs[0].is_zero()
    assert p.coeffs[1] == HYP.finite[0].coeffs[0]


def test_pad_point_twice_errors():
    padded = pad_point(HYP, 1)
    with pytest.raises(PreconditionError):
        pad_point(padded, 1)


def test_pad_point_infinity():
    t = make_tuple(1, infinity_point(0, []), [finite_point(0, 0, [Mat([[2]])])])
    padded = pad_point(t, 0)
    assert padded.infinity.poincare_rank == 1
    assert padded.infinity.coeffs[0].is_zero()


def test_strip_trivial_inverts_padding():
    assert strip_trivial(pad_point(HYP, 1)) == HYP


def test_strip_drops_zero_finite_point():
    z = Mat.zeros(2, 2)
    t = make_tuple(
        2, infinity_point(1, [Mat.diagonal([1, 2])]),
        [finite_point(0, 0, [Mat.identity(2)]), finite_point(1, 0, [z])],
    )
    out = strip_trivial(t)
    assert out.num_finite == 1


def test_removable_points_and_removal():
    t = make_tuple(
        2, infinity_point(1, [Mat.diagonal([1, 2])]),
        [finite_point(0, 0, [Mat.diagonal([3, 3])]),
         finite_point(1, 0, [Mat.identity(2)])],
    )
    assert removable_points(t) == (1, 2)
    out, shift = remove_point(t, 1)
    assert out.num_finite == 1
    assert shift[1] == -3
    with pytest.raises(PreconditionError):
        remove_point(HYP, 1)


# ---------------------------------------------------------------------
# spectral types
# ---------------------------------------------------------------------

def test_spectral_type_hypergeometric_infinity():
    st0 = spectral_type(hypergeometric_example(2, F(1, 2), F(1, 3), 1), 0)
    assert st0.pattern() == ((1, (1,)), (1, (1,)))
    assert st0.pattern_str() == "(1,1)-((1),(1))"
    assert {b.eigenvalue for b in st0.blocks} == {F(0), F(-2)}


def test_spectral_type_regular_singular_shorthand():
    t = make_tuple(
        3, infinity_point(1, [Mat.zeros(3, 3)]),
        [finite_point(0, 0, [Mat.diagonal([3, 3, 7])])],
    )
    st0 = spectral_type(t, 0)
    assert st0.pattern() == ((3, (2, 1)),)
    assert st0.pattern_str() == "(2,1)"


def test_spectral_type_construct_then_recover():
    # assemble a rank-1 pair from L-form pieces plus arbitrary off-diagonal
    # residue coupling, conjugate by a random basis, then recover
    rng = support.rng(42)
    a1 = Mat.diagonal([0, 0, 1, 1, 1])
    inner0 = build_L([2], [F(5)])            # semisimple eigenvalue 5, parts (2)
    inner1 = build_L([2, 1], [F(2), F(2)])   # repeated eigenvalue 2, parts (2,1)
    coupling = support.rand_matrix(rng, 5)
    a0_rows = []
    for i in range(5):
        row = []
        for j in range(5):
            if i < 2 and j < 2:
                row.append(inner0[i, j])
            elif i >= 2 and j >= 2:
                row.append(inner1[i - 2, j - 2])
            else:
                row.append(coupling[i, j])
        a0_rows.append(row)
    a0 = Mat(a0_rows)
    p = support.unimodular(rng, 5)
    # residue at infinity is minus the finite one, so park -a0 there
    t = make_tuple(
        5, infinity_point(1, [p * a1 * inverse(p)]),
        [finite_point(0, 0, [p * (-a0) * inverse(p)])],
    )
    st0 = spectral_type(t, 0)
    assert st0.pattern() == ((3, (2, 1)), (2, (2,)))


def test_spectral_type_conjugation_invariant():
    rng = support.rng(17)
    t = hypergeometric_example(2, F(3, 2), F(1, 3), 1)
    p = support.unimodular(rng, 2)
    for i in (0, 1):
        a = spectral_type(t, i).pattern()
        b = spectral_type(support.conjugated(t, inverse(p)), i).pattern()
        assert a == b


def test_spectral_type_rejects_nonsemisimple():
    b = bessel_example(1, 0, 1, 1)
    with pytest.raises(PreconditionError, match="semisimple"):
        spectral_type(b, 0)


_JORDAN = [[1, 1], [0, 1]]          # rational spectrum, not semisimple
_SQRT2 = [[0, 2], [1, 0]]           # semisimple, eigenvalues +-sqrt(2)
_SQRT2_JORDAN = [[0, 0, 0, -4], [1, 0, 0, 0], [0, 1, 0, 4], [0, 0, 1, 0]]  # (x^2 - 2)^2


def _block_diag(a, b):
    n, m = len(a), len(b)
    return [row + [0] * m for row in a] + [[0] * n + row for row in b]


@pytest.mark.parametrize("lead, message", [
    (_JORDAN, "point 0: leading coefficient is not semisimple"),
    (_SQRT2_JORDAN, "point 0: leading coefficient is not semisimple"),
    (_block_diag(_JORDAN, _SQRT2), "point 0: leading coefficient is not semisimple"),
    (_SQRT2, "point 0: leading coefficient spectrum is not fully rational"),
], ids=["jordan", "irrational-jordan", "jordan-plus-irrational", "irrational"])
def test_spectral_type_leading_coefficient_messages(lead, message):
    n = len(lead)
    t = make_tuple(
        n, infinity_point(1, [Mat(lead)]),
        [finite_point(0, 0, [Mat.diagonal(range(n))])],
    )
    with pytest.raises(PreconditionError) as info:
        spectral_type(t, 0)
    assert str(info.value) == message


def test_spectral_type_one_charpoly_of_the_leading_coefficient(monkeypatch):
    import midconv.exactla

    calls = []
    real = midconv.exactla._scaled_charpoly
    monkeypatch.setattr(midconv.exactla, "_scaled_charpoly",
                        lambda m: calls.append(m.rows) or real(m))
    # a new copy of HYP: a matrix keeps its spectrum once taken
    st0 = spectral_type(hypergeometric_example(1, F(1, 2), F(1, 3), 1), 0)
    # one for the leading coefficient; the residue's diagonal blocks are
    # 1 x 1, so scalar, and their spectra need no characteristic polynomial
    assert [b.size for b in st0.blocks] == [1, 1]
    assert calls == [2]
    # with a non-scalar 2 x 2 block: one more, of size 2
    calls.clear()
    t = make_tuple(
        3, infinity_point(1, [Mat.diagonal([0, 0, 1])]),
        [finite_point(0, 0, [Mat([[1, 2, 0], [0, 3, 1], [1, 0, 2]])])],
    )
    assert sorted(b.size for b in spectral_type(t, 0).blocks) == [1, 2]
    assert calls == [3, 2]


def _split_route(t, i):
    """spectral_type(t, i) as computed before a scalar lead was kept whole:
    every lead, the zero lead of a rank-0 point too, split by
    `semisimple_eigenspaces`, and every block by `primary_components`."""
    *lead, a0 = t.point_coeffs_with_residue(i)
    a1 = lead[0] if lead else Mat.zeros(t.size, t.size)
    blocks = []
    for d, mult, (sub,) in semisimple_eigenspaces(a1, "not semisimple", "not rational", a0):
        inner = sorted((EigenData(lam, space.dim, part)
                        for lam, part, space, _ in primary_components(sub)),
                       key=lambda e: (-e.geometric, -e.multiplicity, e.value))
        blocks.append(SpectralBlock(d, mult, tuple(inner)))
    blocks.sort(key=lambda b: (-b.size, tuple(-q for q in b.parts()), b.eigenvalue))
    return SpectralType(t.size, tuple(blocks))


def _rational_residue(r, n):
    """P J P^-1 for a unimodular P and Jordan blocks J at eigenvalues in -1..2."""
    rows, off = [[F(0)] * n for _ in range(n)], 0
    while off < n:
        k, lam = r.randint(1, n - off), F(r.randint(-1, 2), r.choice([1, 2]))
        for a in range(off, off + k):
            rows[a][a] = lam
            if a + 1 < off + k:
                rows[a][a + 1] = F(1)
        off += k
    p = support.unimodular(r, n)
    return p * Mat(rows) * inverse(p)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), st.integers(min_value=1, max_value=4),
       st.sampled_from(["rank 0", "padded", "scalar lead", "rank-0 infinity"]))
def test_spectral_type_keeps_a_scalar_lead_whole(seed, n, kind):
    import midconv.model

    r = support.rng(seed)
    res = _rational_residue(r, n)
    c = F(r.randint(-2, 2), r.choice([1, 3]))
    if kind == "rank-0 infinity":
        q = _rational_residue(r, n)  # the residue at infinity is -q
        t, i = make_tuple(n, infinity_point(0, []), [finite_point(0, 0, [res]),
                                                     finite_point(1, 0, [q - res])]), 0
    else:
        lead = [Mat.diagonal([c] * n), res] if kind == "scalar lead" else [res]
        t, i = make_tuple(n, infinity_point(1, [_rational_residue(r, n)]),
                          [finite_point(0, len(lead) - 1, lead)]), 1
        t = pad_point(t, 1) if kind == "padded" else t
    expected = _split_route(t, i)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(midconv.model, "semisimple_eigenspaces", None)  # no split is computed
        assert spectral_type(t, i) == expected
    assert len(expected.blocks) == 1 and expected.blocks[0].size == n


def test_spectral_type_rejects_rank_two():
    t = make_tuple(
        1, infinity_point(2, [Mat([[1]]), Mat([[2]])]),
        [finite_point(0, 0, [Mat([[3]])])],
    )
    with pytest.raises(PreconditionError, match="rank"):
        spectral_type(t, 0)


def test_spectral_type_rejects_irrational():
    t = make_tuple(
        2, infinity_point(1, [Mat.zeros(2, 2)]),
        [finite_point(0, 0, [Mat([[0, 2], [1, 0]])])],
    )
    with pytest.raises(PreconditionError, match="rational"):
        spectral_type(t, 0)


def test_pattern_sums():
    st0 = spectral_type(HYP, 0)
    assert sum(nl for nl, _ in st0.pattern()) == HYP.size
    for nl, parts in st0.pattern():
        assert sum(parts) == nl


# ---------------------------------------------------------------------
# build_L
# ---------------------------------------------------------------------

def test_build_L_trivial():
    assert build_L([1], [5]) == Mat([[5]])


def test_build_L_two_distinct():
    m = build_L([1, 1], [F(1), F(2)])
    assert m == Mat([[1, 1], [0, 2]])
    assert is_semisimple(m)


def test_build_L_repeated_eigenvalue_jordan():
    m = build_L([2, 1], [0, 0])
    assert jordan_partition(m, 0) == (2, 1)


def test_build_L_rejects_increasing():
    with pytest.raises(ValidationError):
        build_L([1, 2], [0, 0])


def test_build_L_distinct_semisimple_equal_jordan_centralizer():
    # all-equal eigenvalues: centralizer dimension equals sum of q_j^2
    for q in [(2, 1), (3, 1), (2, 2), (3, 2, 1)]:
        m = build_L(list(q), [F(7)] * len(q))
        assert support.centralizer_dim_dense(m) == sum(x * x for x in q)
    # all-distinct eigenvalues: semisimple
    m = build_L([2, 1], [F(1), F(2)])
    assert is_semisimple(m)


# ---------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------

def test_hypergeometric_exact_matrices():
    t = hypergeometric_example(1, F(1, 2), F(1, 3), 1)
    assert t.infinity.coeffs[0] == Mat.diagonal([0, -1])
    assert t.finite[0].coeffs[0] == Mat([[F(-1, 3), 1], [F(1, 18), F(-1, 6)]])
    assert t.finite[0].location == 0


def test_hypergeometric_alpha_equals_gamma():
    t = hypergeometric_example(1, F(1, 3), F(1, 3), 2)
    assert t.finite[0].coeffs[0][1, 0] == 0


def test_hypergeometric_residue_eigenvalues():
    rng = support.rng(12)
    for _ in range(6):
        nu = F(rng.randint(1, 3))
        gamma = F(rng.randint(1, 4), rng.choice([1, 2, 3]))
        alpha = F(rng.randint(1, 4), rng.choice([2, 3]))
        k = F(rng.choice([1, 2]))
        t = hypergeometric_example(nu, gamma, alpha, k)
        cp = support.charpoly_cofactor(t.finite[0].coeffs[0])
        # x (x + gamma)
        assert cp == [F(0), gamma, F(1)]


def test_hypergeometric_k_zero():
    with pytest.raises(PreconditionError):
        hypergeometric_example(1, 1, 1, 0)


def test_bessel_fixture():
    b = bessel_example(1, 0, 1, 1)
    assert b.infinity.coeffs[0] == Mat([[0, -1], [0, 0]])
    assert not is_semisimple(b.infinity.coeffs[0])


@pytest.mark.parametrize("fixture, args", [
    (hypergeometric_example, (1, F(1, 2), F(1, 3), 1)),
    (bessel_example, (1, F(-2, 3), 1, 1)),
    (inverse_laplace_example, (F(1, 2), 0, 1, -1)),
])
def test_fixtures_accept_rational_literals(fixture, args):
    fracs = [F(x) for x in args]
    assert fixture(*map(str, fracs)) == fixture(*fracs)


def test_bessel_reducible_when_a21_zero():
    from midconv.rigidity import is_irreducible

    assert not is_irreducible(bessel_example(1, 2, 0, 3))
    assert is_irreducible(bessel_example(1, 0, 1, 1))


def test_from_okubo_substitution():
    t = from_okubo(Mat.diagonal([0, 1]), -Mat.identity(2))
    assert t.infinity.coeffs[0] == Mat.diagonal([0, -1])
    assert t.finite[0].coeffs[0].is_zero()


def test_from_okubo_duplicate_eigenvalues_ok():
    t = from_okubo(Mat.diagonal([2, 2]), Mat.diagonal([1, 3]))
    validate(t)


def test_from_okubo_rejects_nonsemisimple_T():
    with pytest.raises(PreconditionError):
        from_okubo(Mat([[0, 1], [0, 0]]), Mat.identity(2))


def test_inverse_laplace_fixture():
    t = inverse_laplace_example(1, 0, 1, 1)
    assert t.infinity.poincare_rank == 0
    assert t.finite[0].poincare_rank == 1
    assert t.finite[0].coeffs[0] == -Mat([[1, 2], [0, 0]])
    assert t.finite[0].coeffs[1] == -Mat([[2, 0], [1, 2]])


def test_residue_at_infinity_derived():
    assert HYP.residue_at_infinity() == -HYP.finite[0].coeffs[0]


def test_strip_rejects_fully_zero_tuple():
    z = Mat.zeros(2, 2)
    t = make_tuple(2, infinity_point(1, [z]), [finite_point(0, 0, [z])])
    with pytest.raises(ValidationError):
        strip_trivial(t)
