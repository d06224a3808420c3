"""Commutant dimensions, rigidity indices, irreducibility, similarity."""

import time
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from midconv.errors import InternalError, PreconditionError, ValidationError
from midconv import exactla, rigidity
from midconv.exactla import (
    IncrementalSpan,
    Mat,
    _prime,
    det,
    inverse,
    reduce_mod_prime,
    rref_nullspace,
    spin,
    spin_dim,
)
from midconv.convolution import middle_convolution
from midconv.model import (
    MatrixTuple,
    addition,
    bessel_example,
    build_L,
    finite_point,
    from_okubo,
    hypergeometric_example,
    infinity_point,
    make_tuple,
    pad_point,
    spectral_type,
    strip_trivial,
)
from midconv.rigidity import (
    _sylvester,
    are_similar,
    centralizer_dim,
    commutant_dim,
    index,
    index_from_spectral,
    is_irreducible,
    local_index,
    okubo_index,
)
import support

HYP = hypergeometric_example(1, F(1, 2), F(1, 3), 1)


# ---------------------------------------------------------------------
# commutant_dim
# ---------------------------------------------------------------------

def test_commutant_hypergeometric():
    assert commutant_dim(HYP, 0) == 4
    assert commutant_dim(HYP, 1) == 2


def test_commutant_all_scalar_point():
    # derived residue at infinity is scalar too, so everything commutes
    t = make_tuple(
        2, infinity_point(2, [Mat.diagonal([3, 3]), Mat.identity(2)]),
        [finite_point(0, 0, [Mat.diagonal([5, 5])])],
    )
    assert commutant_dim(t, 0) == 3 * 4  # (m+1) n^2
    t2 = make_tuple(
        2, infinity_point(1, [support.rand_matrix(support.rng(2), 2)]),
        [finite_point(0, 1, [Mat.diagonal([2, 2]), Mat.diagonal([-1, -1])])],
    )
    assert commutant_dim(t2, 1) == 2 * 4


def _split_path_points(rng):
    """[A_m, ..., A_0] of points whose leading coefficients have rational
    eigenvalues (random ones almost never do), so that the commutant is
    split along primary components or a scalar coefficient drops out.
    Structured coefficients are conjugated by a unimodular matrix."""
    def conj(*mats: Mat) -> list[Mat]:
        p = support.unimodular(rng, mats[0].rows)
        p_inv = inverse(p)
        return [p * a * p_inv for a in mats]

    def rand(n: int) -> Mat:
        return support.rand_matrix(rng, n)

    sqrt2 = Mat([[0, 2], [1, 0]])  # eigenvalues +-sqrt(2)
    direct_sum = support.direct_sum
    leads = [
        Mat.diagonal([1, 1, 2]),                            # semisimple, repeated
        Mat.diagonal([-1, 2, 2, -1]),
        build_L([2, 1], [1, 1]),                            # Jordan blocks (2, 1)
        direct_sum(build_L([1, 1], [2, 2]), [[-1]]),        # J_2(2) + (-1)
        direct_sum(build_L([2, 1], [0, 0]), [[1]]),
        direct_sum(sqrt2, [[1]]),                           # +-sqrt(2) and 1
        direct_sum(sqrt2, Mat.diagonal([1, 1])),
        direct_sum(sqrt2, build_L([1, 1], [0, 0])),
        # J_3(1) + 2 I_2: the Jordan block's pair reaches the Toeplitz
        # relations by recursion, the scalar block drops its lead
        direct_sum(build_L([1, 1, 1], [1, 1, 1]), Mat.diagonal([2, 2])),
    ]
    points = [conj(a) + [rand(a.rows)] for a in leads]
    points += [                                             # scalar A_1
        [Mat.diagonal([2, 2, 2]), rand(3)],
        [Mat.diagonal([2, 2, 2])] + conj(Mat.diagonal([1, 1, 3])),
        [Mat.diagonal([-1] * 4)] + conj(direct_sum(sqrt2, Mat.diagonal([1, 1]))),
    ]
    points += [                                             # m = 2, scalar A_2
        [Mat.diagonal([3, 3, 3])] + conj(Mat.diagonal([1, 1, 2])) + [rand(3)],
        [Mat.diagonal([3, 3, 3])] + conj(direct_sum(sqrt2, [[1]])) + [rand(3)],
        [Mat.diagonal([1, 1, 1]), Mat.diagonal([2, 2, 2]), rand(3)],
    ]
    # m = 2 with a split leading coefficient: the off-diagonal blocks of A_1
    # change the commutant of the diagonal blocks (13 here, 15 if split)
    points.append(conj(Mat.diagonal([0, 0, 1]), Mat([[0, 0, 1], [0, 0, 0], [0, 1, 0]]),
                       Mat.zeros(3, 3)))
    return points


def test_commutant_matches_dense_oracle():
    rng = support.rng(13)
    for _ in range(12):
        ranks = [rng.choice([0, 1, 2]), rng.choice([0, 1]), rng.choice([0, 1])]
        t = support.rand_tuple(rng, rng.choice([2, 3]), 2, ranks)
        for i in range(t.num_points):
            assert commutant_dim(t, i) == support.commutant_dim_dense(t, i), (i, ranks)
    for coeffs in _split_path_points(rng):
        n = coeffs[0].rows
        t = make_tuple(n, infinity_point(0, []),
                       [finite_point(0, len(coeffs) - 1, coeffs)])
        for i in range(t.num_points):
            assert commutant_dim(t, i) == support.commutant_dim_dense(t, i), (i, coeffs)
        for a in coeffs:
            assert centralizer_dim(a) == support.centralizer_dim_dense(a), a


def test_primary_component_is_not_split_again(monkeypatch):
    # a component's block lead is primary, which its spectrum shows, so
    # J_3(1) + 2 I_2 is split once, at size 5, and its blocks are not split
    # again
    rng = support.rng(17)
    p = support.unimodular(rng, 5)
    lead = p * support.direct_sum(_jordan(3, 1), Mat.diagonal([2, 2])) * inverse(p)
    t = make_tuple(5, infinity_point(0, []),
                   [finite_point(0, 1, [lead, support.rand_matrix(rng, 5)])])
    sizes = []
    split = rigidity.primary_components
    monkeypatch.setattr(rigidity, "primary_components",
                        lambda m, *mats: sizes.append(m.rows) or split(m, *mats))
    assert commutant_dim(t, 1) == support.commutant_dim_dense(t, 1)
    assert sizes == [5]


def test_toeplitz_commutant_dim_matches_the_dense_nullity():
    # the Sylvester grid's nullity, solved one block row at a time, against
    # one flat dense system: rank-1 points whose lead is primary but not
    # scalar (nilpotent, a Jordan block at 1/2, J_2(1) + J_2(1) + (1)), and
    # rank-2 points with singular, nilpotent and scalar leads
    rng = support.rng(19)

    def conj(a: Mat) -> Mat:
        p = support.unimodular(rng, a.rows)
        return p * a * inverse(p)

    def rand(n: int) -> Mat:
        return support.rand_matrix(rng, n).scaled(F(1, rng.choice([1, 2, 3])))

    leads = [_jordan(3, 0), _jordan(3, F(1, 2)), build_L([2, 1], [0, 0]),
             support.direct_sum(_jordan(2, 1), _jordan(2, 1), [[1]])]
    points = [[conj(a), rand(a.rows)] for a in leads]
    points += [[conj(_jordan(2, 0)), Mat.zeros(2, 2), rand(2)],
               [conj(build_L([1, 1], [0, 1])), rand(2), rand(2)],
               [Mat.diagonal([2, 2, 2]), conj(_jordan(3, 0)), rand(3)],
               [rand(3), rand(3), rand(3)]]
    for coeffs in points:
        n = coeffs[0].rows
        t = make_tuple(n, infinity_point(0, []), [finite_point(0, len(coeffs) - 1, coeffs)])
        assert rigidity._toeplitz_commutant_dim(coeffs) == support.commutant_dim_dense(t, 1)


def _cyclic_start(m: Mat) -> bool:
    """Whether rule 2 of `_commutant_dim` finds a start vector cyclic for m:
    e_1 first, then the all-ones vector."""
    n = m.rows
    return any(spin_dim(v, [m.num]) == n for v in ([1] + [0] * (n - 1), [1] * n))


def _cyclic_point(rng, n: int, rank: int) -> list[Mat]:
    """[A_m, ..., A_0] for m = rank with a lead that has a cyclic start
    vector (`_cyclic_start`): a conjugated companion matrix or Jordan
    block, or a random matrix; the lower coefficients random."""
    def rand() -> Mat:
        return support.rand_matrix(rng, n).scaled(F(1, rng.choice([1, 2, 3])))

    while True:
        kind = rng.choice(["companion", "jordan", "random"])
        if kind == "random":
            lead = rand()
        else:
            a = _companion(*(rng.randint(-2, 2) for _ in range(n))) if kind == "companion" \
                else _jordan(n, F(rng.randint(-2, 2), 2))
            p = support.unimodular(rng, n)
            lead = p * a * inverse(p)
        if n == 1 or (lead.scalar_multiple_of_identity() is None and _cyclic_start(lead)):
            return [lead] + [rand() for _ in range(rank)]


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_cyclic_lead_gives_n_times_m_plus_one(n, rank, monkeypatch):
    # the centralizer of A(z) over Q[z]/z^(m+1) is free of rank n when A_m
    # is cyclic (rigidity module docstring); no Sylvester system is built
    rng = support.rng(100 * n + rank)
    calls = _counting_sylvester(monkeypatch)
    for k in range(2):
        coeffs = _cyclic_point(rng, n, rank)
        t = make_tuple(n, infinity_point(0, []), [finite_point(0, rank, coeffs)])
        assert commutant_dim(t, 1) == n * (rank + 1)
        assert calls == []
        assert rigidity._toeplitz_commutant_dim(coeffs) == n * (rank + 1)
        calls.clear()
        if k == 0 and (rank + 1) * n * n <= 75:  # the flat dense system stays small
            assert support.commutant_dim_dense(t, 1) == n * (rank + 1)


def test_index_of_a_rank_two_point_with_a_cyclic_lead_builds_no_grid(monkeypatch):
    # every lead is cyclic, so no point builds a Sylvester system; the rank-2
    # point at infinity once took a 192-column Toeplitz grid
    t = support.rand_tuple(support.rng(8), 8, 2, [2, 0, 0])
    calls = _counting_sylvester(monkeypatch)
    report = index(t)
    assert (report.commutant_dims, report.index) == ((24, 8, 8), -152)
    assert calls == []


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=3), st.sampled_from(["cyclic", "random", "hidden"]))
@example(seed=0, n=4, rank=2, kind="hidden")
def test_commutant_dim_is_invariant_under_conjugation(seed, n, rank, kind):
    # "hidden": the n = 4 cyclic lead whose start vectors fail, certified
    # cyclic by its square-free characteristic polynomial at every rank
    rng = support.rng(seed)
    if kind == "hidden":
        n = 4
        coeffs = [_hidden_cyclic()] + [support.rand_matrix(rng, n) for _ in range(rank)]
    elif kind == "cyclic":
        coeffs = _cyclic_point(rng, n, rank)
    else:
        coeffs = [support.rand_matrix(rng, n, (-1, 0, 0, 1)) for _ in range(rank + 1)]
    t = make_tuple(n, infinity_point(0, []), [finite_point(0, rank, coeffs)])
    u = support.conjugated(t, support.unimodular(rng, n))
    assert commutant_dim(u, 1) == commutant_dim(t, 1)
    assert commutant_dim(u, 0) == commutant_dim(t, 0)
    if kind == "hidden":
        assert commutant_dim(t, 1) == n * (rank + 1)
        if rank <= 2:
            assert commutant_dim(t, 1) == support.commutant_dim_dense(t, 1)


def _jordan(size: int, lam) -> Mat:
    return build_L([1] * size, [lam] * size)


def _companion(*c) -> Mat:
    """Companion matrix of x^n + c[n-1] x^(n-1) + ... + c[0]."""
    n = len(c)
    return Mat([[-c[i] if j == n - 1 else int(i == j + 1) for j in range(n)] for i in range(n)])


def _counting_sylvester(monkeypatch) -> list:
    """The Sylvester systems `rigidity` builds from now on, one entry each."""
    calls = []
    monkeypatch.setattr(rigidity, "_sylvester", lambda a, b: calls.append(a.rows) or _sylvester(a, b))
    return calls


SQRT2 = _companion(-2, 0)          # x^2 - 2
# (matrix, dim Z, whether a Sylvester system is built, whether it is split,
# whether a ranks-only kernel chain runs)
CENTRALIZER_CASES = [
    (_companion(3, -1, 0, 2, 1), 5, False, False, False),                # cyclic
    (Mat([[F(1, 2), 1, 0], [0, F(-2, 3), 1], [F(5, 4), 0, 0]]), 3, False, False, False),
    # (3, 1, 1) at 2
    (support.direct_sum(_jordan(3, 2), [[2]], [[2]]), 9 + 1 + 1, False, False, True),
    # Jordan blocks (2, 2, 1) at 1 and a scalar block at 3: 3^2 + 2^2 + 2^2
    (support.direct_sum(_jordan(2, 1), _jordan(2, 1), [[1]], Mat.diagonal([3, 3])), 17,
     False, False, True),
    (support.direct_sum(_jordan(2, F(1, 2)), [[F(1, 2)]], [[F(-2, 3)]]), 5 + 1, False, False, True),
    # derogatory with no rational eigenvalue: one primary component, so
    # the Sylvester grid with no split
    (support.direct_sum(SQRT2, SQRT2), 8, True, False, False),
    (_companion(4, 0, -4, 0), 4, False, False, False),                   # (x^2 - 2)^2: cyclic
    # a rational part beside a square-free non-rational part: cyclic, and
    # with a second block at 1 Frobenius's 2^2 + 1^2 plus 4 simple roots
    (support.direct_sum(_jordan(2, 1), SQRT2, _companion(-3, 0)), 6, False, False, False),
    (support.direct_sum(_jordan(2, 1), [[1]], SQRT2, _companion(-3, 0)), 5 + 4, False, False, True),
    # a repeated non-rational part beside a rational one: split, then the
    # grid on the residual block; the spectrum shows the repeated root
    # before any Jordan data, so no ranks-only chain runs
    (support.direct_sum(_jordan(2, 1), SQRT2, SQRT2), 2 + 8, True, True, False),
]


@pytest.mark.parametrize("case", range(len(CENTRALIZER_CASES)))
def test_centralizer_dim_cases_match_dense_oracle(case, monkeypatch):
    # a single matrix builds a Sylvester system only when a non-rational
    # root is repeated, and is split, with an inverse, only when such a root
    # sits beside a rational eigenvalue; every other answer comes from its
    # Jordan data, whose ranks-only kernel chains (`exactla.rank`) run only
    # once the spectrum shows every non-rational root simple
    a, expected, sylvester, split, chain = CENTRALIZER_CASES[case]
    rng = support.rng(70 + case)
    p = support.unimodular(rng, a.rows)
    calls = _counting_sylvester(monkeypatch)
    splits, primary, inv = [], rigidity.primary_components, exactla.inverse
    monkeypatch.setattr(rigidity, "primary_components",
                        lambda m, *mats: splits.append(m) or primary(m, *mats))
    monkeypatch.setattr(exactla, "inverse", lambda m: splits.append(m) or inv(m))
    ranks, real_rank = [], exactla.rank
    monkeypatch.setattr(exactla, "rank", lambda m: ranks.append(m) or real_rank(m))
    for m in (a, p * a * inverse(p)):
        assert centralizer_dim(m) == expected == support.centralizer_dim_dense(m)
        assert bool(calls) is sylvester
        assert bool(splits) is split
        assert bool(ranks) is chain
        calls.clear()
        splits.clear()
        ranks.clear()


def _random_split_leads():
    """Conjugated direct sums of rational Jordan blocks and non-rational
    companion blocks, each with two or more primary components."""
    rng = support.rng(91)
    pieces = [_jordan(2, 1), Mat([[1]]), Mat.diagonal([F(1, 2)] * 2), _jordan(3, -1),
              SQRT2, _companion(-3, 0), Mat([[F(-2, 3)]])]
    leads = []
    while len(leads) < 8:
        a = support.direct_sum(*rng.sample(pieces, rng.choice([2, 3])))
        p = support.unimodular(rng, a.rows)
        leads.append(p * a * inverse(p))
    return leads


def test_primary_components_cut_the_lead_without_an_inverse(monkeypatch):
    # m leaves each primary component invariant, so its own block is m P at
    # the pivots of the component's space: equal to the P^-1 route, and a
    # rational eigenvalue's block keeps its spectrum, ((lam, d),) fully
    # rational with one distinct root, as computed afresh, with the
    # square-free part of that one root; P is inverted only to cut another
    # matrix
    rng = support.rng(92)
    leads = [m for a, *_ in CENTRALIZER_CASES
             for p in [support.unimodular(rng, a.rows)] for m in (a, p * a * inverse(p))]
    split, inv, inverses = 0, exactla.inverse, []
    monkeypatch.setattr(exactla, "inverse", _counted(inv, inverses))
    for m in leads + _random_split_leads():
        other = support.rand_matrix(rng, m.rows, pool=(-1, 0, 2, F(1, 3)))
        comps = exactla.primary_components(m, m, other)
        if len(comps) == 1:
            continue
        split += 1
        assert len(inverses) == 1
        basis = support.from_columns([v for *_, s, _ in comps for v in s.basis.data], m.rows)
        conj = inv(basis) * m * basis
        own_only = exactla.primary_components(m, m)
        assert len(inverses) == 1
        off = 0
        for (lam, _, s, (own, cut)), (*_, (alone,)) in zip(comps, own_only):
            idx = range(off, off + s.dim)
            assert own == alone == conj.submatrix(idx, idx)
            assert cut == (inv(basis) * other * basis).submatrix(idx, idx)
            if lam is None:
                assert own._spectrum is None
            else:
                # the kept record is that of one root, s = y - d lam for d
                # the denominator of lam, and answers as a fresh copy does
                fresh = Mat.from_integers(own.num, own.den, own.cols)
                assert own._spectrum[3] == (lam.denominator, [-lam.numerator, 1])
                assert own._spectrum[:3] == exactla._spectrum(fresh)[:3] \
                    == (((lam, s.dim),), True, 1)
                assert exactla.is_semisimple(own) == exactla.is_semisimple(fresh)
            off += s.dim
        inverses.clear()
    assert split > 8


def test_split_lead_blocks_pay_no_second_spectrum_or_inverse(monkeypatch):
    # J_2(1) + (1) + SQRT2 + SQRT2, conjugated: split, as the non-rational
    # root is repeated; the rational block's spectrum comes with its block,
    # so the characteristic polynomial residues are taken for the lead and
    # the residual block only, and nothing is inverted, as only the lead is cut
    a = support.direct_sum(_jordan(2, 1), [[1]], SQRT2, SQRT2)
    p = support.unimodular(support.rng(93), a.rows)
    m = p * a * inverse(p)
    assert support.centralizer_dim_dense(m) == 13
    charpolys, inverses = [], []
    monkeypatch.setattr(exactla, "_charpoly_residues",
                        _counted(exactla._charpoly_residues, charpolys))
    monkeypatch.setattr(exactla, "inverse", _counted(exactla.inverse, inverses))
    assert centralizer_dim(m) == 13
    assert (len(charpolys), len(inverses)) == (2, 0)


def test_split_rational_block_reads_its_partition_from_the_split(monkeypatch):
    # the same lead: Frobenius's rule takes no chain, as the spectrum shows
    # the repeated non-rational root first; the split takes one on m and one
    # on m^T, and the rational block's `jordan_data` reads the partition
    # (2, 1) kept with its one-root record, no third chain
    a = support.direct_sum(_jordan(2, 1), [[1]], SQRT2, SQRT2)
    p = support.unimodular(support.rng(93), a.rows)
    m = p * a * inverse(p)
    chains, real = [], exactla._kernel_chain
    monkeypatch.setattr(exactla, "_kernel_chain",
                        lambda *args, **kw: chains.append(args[1]) or real(*args, **kw))
    assert centralizer_dim(m) == 13
    assert chains == [F(1)] * 2
    (lam, part, _, (own,)), _ = exactla.primary_components(m, m)
    assert (lam, part) == (F(1), (2, 1)) and own._spectrum[4] == (2, 1)
    assert exactla.jordan_data(own) == ([(F(1), 3, (2, 1))], True)


EIGENVALUES = st.sampled_from([0, 1, -1, F(1, 2)])
LEAD_BLOCKS = st.one_of(            # lam I_k, J_k(lam), SQRT2, x^2 - 3, SQRT2 + SQRT2
    st.builds(lambda lam, k: Mat.diagonal([lam] * k), EIGENVALUES, st.integers(1, 3)),
    st.builds(lambda lam, k: _jordan(k, lam), EIGENVALUES, st.integers(2, 3)),
    st.sampled_from([SQRT2, _companion(-3, 0), support.direct_sum(SQRT2, SQRT2)]),
)


@settings(max_examples=40, deadline=None)
@given(st.lists(LEAD_BLOCKS, min_size=1, max_size=4), st.integers(min_value=0, max_value=2),
       st.integers(min_value=0, max_value=10 ** 6))
@example([_jordan(2, 1), Mat([[1]]), Mat.diagonal([2, 2])], 1, 0)  # a primary block at m = 1
@example([support.direct_sum(SQRT2, SQRT2), Mat([[1]])], 1, 0)       # the residual block at m = 1
@example([support.direct_sum(SQRT2, SQRT2), Mat([[0]])], 2, 0)       # m = 2 is not split
def test_block_structured_leads_match_the_dense_oracle(blocks, rank, seed):
    # leads built from primary blocks reach every rule of the recursion,
    # split blocks with scalar, cyclic and primary non-cyclic leads among
    # them, which no benchmark input does; the flat dense system stays at
    # (m + 1) n^2 <= 75 unknowns, so n <= 6 up to m = 1 and n <= 5 at m = 2
    lead = support.direct_sum(*blocks)
    n = lead.rows
    assume((rank + 1) * n * n <= 75)
    rng = support.rng(seed)
    p = support.unimodular(rng, n)
    coeffs = [p * lead * inverse(p)] + [
        support.rand_matrix(rng, n).scaled(F(1, rng.choice([1, 2, 3]))) for _ in range(rank)]
    t = make_tuple(n, infinity_point(0, []), [finite_point(0, rank, coeffs)])
    assert commutant_dim(t, 1) == support.commutant_dim_dense(t, 1)


def _counting_spin_dims(monkeypatch) -> list:
    """(start vector, spin dimension) for each `spin_dim` that `rigidity`
    asks from now on."""
    asked = []

    def counting(vec, mats):
        asked.append((list(vec), spin_dim(vec, mats)))
        return asked[-1][1]

    monkeypatch.setattr(rigidity, "spin_dim", counting)
    return asked


def test_cyclic_vector_takes_all_ones_when_e1_fails(monkeypatch):
    # rule 2 asks about e_1 first, then the all-ones vector, and stops at
    # the first full spin
    calls = _counting_sylvester(monkeypatch)
    asked = _counting_spin_dims(monkeypatch)
    assert centralizer_dim(Mat.diagonal([1, 2])) == 2 and calls == []
    assert asked == [([1, 0], 1), ([1, 1], 2)]
    asked.clear()
    assert centralizer_dim(Mat([[F(1, 3), 1], [0, F(2, 3)]])) == 2
    assert asked == [([1, 0], 1), ([1, 1], 2)]
    asked.clear()
    assert centralizer_dim(_companion(1, 2, 3)) == 3 and asked == [([1, 0, 0], 3)]


def test_jordan_data_read_each_nullity_from_a_rank(monkeypatch):
    # `jordan_data` reads each nullity of a kernel chain as n - `rank`, the
    # forward pass only, with no back substitution: for Frobenius's
    # centralizer on the whole matrix, and for a spectral type's inner
    # blocks on the 2 x 2 block that the split of the irregular point's
    # lead cuts from the residue (the split itself takes spaces)
    ranks, kernels, real_kernel = [], [], exactla._kernel
    monkeypatch.setattr(exactla, "rank", _counted(exactla.rank, ranks))
    monkeypatch.setattr(exactla, "_kernel",
                        lambda *args: kernels.append(args) or real_kernel(*args))
    a = Mat([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    assert centralizer_dim(a) == 5
    assert (ranks, kernels) == ([a, a * a], [])  # nullities 2, then 3
    ranks.clear()
    t = make_tuple(
        3, infinity_point(1, [Mat.diagonal([0, 0, 1])]),
        [finite_point(0, 0, [Mat([[1, 1, 0], [0, 1, 0], [0, 0, 2]])])],
    )
    st0 = spectral_type(t, 0)
    assert [(b.size, [e.jordan for e in b.inner]) for b in st0.blocks] \
        == [(2, [(2,)]), (1, [(1,)])]
    assert st0.pattern_str() == "(2,1)-((1,1),(1))"
    assert [m.rows for m in ranks] == [2, 2] and kernels


def _counted(op, calls):
    def f(x):
        calls.append(x)
        return op(x)
    return f


def test_spin_under_one_op_is_krylov_up_to_the_first_rejected_vector():
    def shift(x):  # e1 -> e2 -> e3 -> e4 -> 0
        return [0] + x[:-1]

    calls = []
    # stops at the target: three op calls, no fourth
    assert spin([[1, 0, 0, 0]], [_counted(shift, calls)], IncrementalSpan().add, 4) \
        == [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    assert len(calls) == 3
    calls.clear()
    # stops at the first rejected vector: 0 = shift(e4)
    assert spin([[0, 1, 0, 0]], [_counted(shift, calls)], IncrementalSpan().add, 4) \
        == [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    assert calls == [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    # a rejected start vector spins nothing
    assert spin([[0, 0, 0, 0]], [_counted(shift, calls)], IncrementalSpan().add, 4) == []
    # the vectors as taken in, not reduced; [9, 4] = 5 [3, 2] - 6 [1, 1] is rejected
    assert spin([[1, 1]], [lambda x: [3 * x[0], 2 * x[1]]], IncrementalSpan().add, 3) \
        == [[1, 1], [3, 2]]


def test_every_exact_spin_grows_an_incremental_span(monkeypatch):
    # Norton's spins (`spin_dim`), the spin basis behind the intertwiners
    # and the exact Burnside search each clear their vectors through
    # `IncrementalSpan.add`, on integer vectors
    added, real = [], IncrementalSpan.add

    def add(self, v):
        took = real(self, v)
        added.append((list(v), took))
        return took

    monkeypatch.setattr(IncrementalSpan, "add", add)
    a = Mat.diagonal([1, 2, 3, 4])
    assert spin_dim([1, 1, 1, 1], [a.num]) == 4
    assert added == [([1, 1, 1, 1], True), ([1, 2, 3, 4], True), ([1, 4, 9, 16], True),
                     ([1, 8, 27, 64], True)]
    added.clear()
    # each e_s is an eigenvector: taken, and its image rejected, but the last
    words = exactla.spin_basis([a.num], 4)
    assert [w for *_, w in words] == [[int(r == s) for r in range(4)] for s in range(4)]
    assert [took for _, took in added] == [True, False] * 3 + [True]
    added.clear()
    # the rotation has no rational eigenvalue and spans only Q(i) mod p,
    # so the exact search takes I and the derived residue, minus the
    # rotation, and nothing else
    rot = Mat([[0, -1], [1, 0]])
    assert not is_irreducible(make_tuple(2, infinity_point(0, []), [finite_point(0, 0, [rot])]))
    assert [v for v, took in added if took] == [[1, 0, 0, 1], [0, 1, -1, 0]]
    assert not all(took for _, took in added)


def test_cyclic_vector_applies_the_matrix_until_its_first_dependent_row(monkeypatch):
    # e1 is an eigenvector: one product rejects it; all ones takes n - 1
    a = Mat.diagonal([1, 2, 3, 4])
    real, calls = exactla.spin, {}

    def counting_spin(start, ops, add, target):
        return real(start, [_counted(op, calls.setdefault(tuple(start[0]), [])) for op in ops],
                    add, target)

    monkeypatch.setattr(exactla, "spin", counting_spin)
    assert centralizer_dim(a) == 4
    assert {v: len(c) for v, c in calls.items()} == {(1, 0, 0, 0): 1, (1, 1, 1, 1): 3}
    assert calls[(1, 1, 1, 1)] == [[1, 1, 1, 1], [1, 2, 3, 4], [1, 4, 9, 16]]


def test_spin_basis_records_each_word_and_stops_at_n(monkeypatch):
    # each word keeps its generator and its parent; a start e_s inside the
    # spin so far (e_2 here) is rejected, and the first one outside it (e_3)
    # starts the next spin; once n words are taken no further start is spun
    real, starts = exactla.spin, []

    def counting_spin(start, ops, add, target):
        starts.append(start)
        return real(start, ops, add, target)

    monkeypatch.setattr(exactla, "spin", counting_spin)
    e1_to_e2 = [[0, 0, 0], [1, 0, 0], [0, 0, 0]]
    assert exactla.spin_basis([e1_to_e2], 3) \
        == [(None, None, [1, 0, 0]), (0, 0, [0, 1, 0]), (None, None, [0, 0, 1])]
    assert len(starts) == 3
    starts.clear()
    # two generators: e_1 -> e_2 under the first, e_2 -> 2 e_3 under the second
    second = [[0, 0, 0], [0, 0, 0], [0, 2, 0]]
    assert exactla.spin_basis([e1_to_e2, second], 3) \
        == [(None, None, [1, 0, 0]), (0, 0, [0, 1, 0]), (1, 1, [0, 0, 2])]
    assert len(starts) == 1


def _hidden_cyclic() -> Mat:
    """x^2 - 2 on span(e1, ones) and x^2 - 3 on span(e3, e4): cyclic, but
    both start vectors of rule 2 (`_cyclic_start`) lie in the first block."""
    p = Mat([[1, 1, 0, 0], [0, 1, 0, 0], [0, 1, 1, 0], [0, 1, 0, 1]])
    return p * support.direct_sum(SQRT2, _companion(-3, 0)) * inverse(p)


def test_cyclic_matrix_without_cyclic_start_vector_falls_back_to_sylvester(monkeypatch):
    # the hidden cyclic matrix has no rational eigenvalue, but its square-free
    # characteristic polynomial certifies it cyclic: no Sylvester system,
    # alone or as an m = 1 lead; only a repeated non-rational root, as in
    # SQRT2 + SQRT2, leaves no certificate, no Frobenius and no split, and
    # falls back to the Sylvester grid, at m = 0 and at m = 1
    a = _hidden_cyclic()
    assert support.apply(a, [1, 0, 0, 0]) == [1, 1, 1, 1] and not _cyclic_start(a)
    rng = support.rng(365)
    lower = support.rand_matrix(rng, 4)
    p = support.unimodular(rng, 4)
    b = p * support.direct_sum(SQRT2, SQRT2) * inverse(p)
    calls = _counting_sylvester(monkeypatch)
    for lead, dim, sylvester in ((a, 4, []), (b, 8, [4])):
        t = make_tuple(4, infinity_point(0, []), [finite_point(0, 1, [lead, lower])])
        assert centralizer_dim(lead) == dim == support.centralizer_dim_dense(lead)
        assert calls == sylvester
        calls.clear()
        assert commutant_dim(t, 1) == support.commutant_dim_dense(t, 1)
        assert calls == sylvester * 2
        calls.clear()


def test_commutant_closed_formula_on_L_blocks():
    # rank-1 point built from L-form blocks: nullspace equals
    # sum_l (n_l^2 + sum_j n_{l,j}^2), including non-semisimple inner data
    rng = support.rng(14)
    for _ in range(6):
        data = support.rand_L_block_point(rng)
        n = data["n"]
        t = make_tuple(
            n, infinity_point(1, [data["a1"]]),
            [finite_point(0, 0, [-data["a0"]])],
        )
        st0 = spectral_type(t, 0)
        pattern_form = sum(
            nl * nl + sum(q * q for q in parts) for nl, parts in st0.pattern()
        )
        assert pattern_form == data["closed"]
        assert commutant_dim(t, 0) == data["closed"]
        assert support.commutant_dim_dense(t, 0) == data["closed"]


def test_local_and_global_index_hypergeometric():
    rep = index(HYP)
    assert rep.index == 2
    assert rep.commutant_dims == (4, 2)
    assert rep.M == 2
    assert local_index(HYP, 0) == 4 - 2 * 4
    assert rep.index == sum(rep.local_indices) + 2 * 4


def test_index_bessel():
    assert index(bessel_example(1, 0, 1, 1)).index == 2


def test_index_rank_one_always_two():
    rng = support.rng(19)
    for ranks in ([1, 0], [2, 1], [0, 0, 1]):
        t = support.rand_tuple(rng, 1, len(ranks) - 1, ranks, pool=(1, 2, 3))
        assert index(t).index == 2


def test_index_identity_idxlidx():
    rng = support.rng(20)
    for _ in range(10):
        t = support.rand_tuple(rng, 2, 1, [rng.choice([0, 1, 2]), rng.choice([0, 1])])
        rep = index(t)
        assert rep.index == sum(rep.local_indices) + 2 * t.size ** 2


def test_padding_preserves_index_and_irreducibility():
    rng = support.rng(25)
    for _ in range(6):
        t = support.rand_tuple(rng, 2, 1, [rng.choice([0, 1]), 0])
        padded = pad_point(t, 1)
        assert index(padded).index == index(t).index
        assert is_irreducible(padded) == is_irreducible(t)


def test_index_preserved_by_addition():
    rng = support.rng(22)
    t = support.rand_tuple(rng, 3, 1, [1, 1])
    rep = index(t).index
    for _ in range(10):
        shifts = [support.rand_fraction(rng) for _ in t.slots()]
        assert index(addition(t, shifts)).index == rep


# ---------------------------------------------------------------------
# index_from_spectral
# ---------------------------------------------------------------------

def test_index_from_spectral_hypergeometric():
    padded = pad_point(HYP, 1)
    types = [spectral_type(padded, i) for i in range(padded.num_points)]
    assert index_from_spectral(types, padded.num_finite, padded.size) == 2
    assert index_from_spectral(types, 1, 2) == index(HYP).index


def test_index_from_spectral_four_point_fuchsian():
    # pattern {(1,1)} at four points, r = 3, n = 2 -> idx 0
    pts = [
        finite_point(0, 0, [Mat.diagonal([0, 1])]),
        finite_point(1, 0, [Mat.diagonal([0, 2])]),
        finite_point(2, 0, [Mat.diagonal([1, 3])]),
    ]
    t = make_tuple(2, infinity_point(0, []), pts)
    types = [spectral_type(t, i) for i in range(4)]
    assert all(st.pattern() == ((2, (1, 1)),) for st in types)
    assert index_from_spectral(types, 3, 2) == 0


def test_index_from_spectral_rejects_a_type_of_another_size():
    types = [spectral_type(HYP, i) for i in range(HYP.num_points)]
    with pytest.raises(PreconditionError, match="^spectral type size differs from n$"):
        index_from_spectral(types, 1, 3)


def test_index_from_spectral_all_scalar():
    t = make_tuple(
        3, infinity_point(1, [Mat.diagonal([1, 1, 1])]),
        [finite_point(0, 1, [Mat.zeros(3, 3), Mat.diagonal([2, 2, 2])])],
    )
    types = [spectral_type(t, i) for i in range(2)]
    assert index_from_spectral(types, 1, 3) == 2 * 9


def test_index_from_spectral_validates():
    with pytest.raises(PreconditionError):
        index_from_spectral([spectral_type(HYP, 0)], 1, 2)


# ---------------------------------------------------------------------
# okubo_index
# ---------------------------------------------------------------------

def test_okubo_index_diagonal_example():
    t_mat = Mat.diagonal([0, 1])
    a_mat = Mat.diagonal([2, 5])
    assert okubo_index(t_mat, a_mat) == 1 + 1 + 1 + 1 + 2 - 4


def test_okubo_index_scalar_A():
    t_mat = Mat.diagonal([0, 1])
    a_mat = Mat.diagonal([3, 3])
    # sum n_j^2 + sum dim Z + n^2 - n^2
    assert okubo_index(t_mat, a_mat) == (1 + 1) + (1 + 1) + 4 - 4


def test_okubo_index_matches_tuple_index():
    rng = support.rng(33)
    done = 0
    while done < 8:
        n = rng.choice([2, 3])
        vals = sorted(rng.choice([0, 1, 2]) for _ in range(n))
        t_mat = Mat.diagonal(vals)
        a_mat = support.rand_matrix(rng, n)
        try:
            oi = okubo_index(t_mat, a_mat)
        except PreconditionError:
            continue
        assert oi == index(from_okubo(t_mat, a_mat)).index
        done += 1


def test_okubo_index_rejects_nonsemisimple():
    with pytest.raises(PreconditionError):
        okubo_index(Mat([[0, 1], [0, 0]]), Mat.identity(2))
    with pytest.raises(PreconditionError):
        okubo_index(Mat.diagonal([0, 1]), Mat([[0, 1], [0, 0]]))


@pytest.mark.parametrize("t_mat, a_mat", [
    (Mat.identity(2), Mat.identity(3)),
    (Mat.zeros(2, 3), Mat.zeros(2, 3)),
    (Mat.identity(2), Mat.zeros(2, 3)),
], ids=["unequal", "T-non-square", "A-non-square"])
def test_okubo_forms_reject_unequal_or_non_square_shapes(t_mat, a_mat):
    message = "^T and A must be square of equal size$"
    with pytest.raises(PreconditionError, match=message):
        okubo_index(t_mat, a_mat)
    with pytest.raises(ValidationError, match=message):
        from_okubo(t_mat, a_mat)


# ---------------------------------------------------------------------
# is_irreducible
# ---------------------------------------------------------------------

def test_irreducible_hypergeometric():
    assert is_irreducible(HYP)


def test_reducible_block_diagonal():
    t = make_tuple(
        2, infinity_point(1, [Mat.diagonal([1, 2])]),
        [finite_point(0, 0, [Mat.diagonal([3, 4])])],
    )
    assert not is_irreducible(t)


def test_irreducible_rank_one():
    t = make_tuple(1, infinity_point(0, []), [finite_point(0, 0, [Mat([[0]])])])
    assert is_irreducible(t)


def test_irreducibility_conjugation_invariant():
    rng = support.rng(40)
    for _ in range(6):
        t = support.rand_tuple(rng, 2, 1, [1, 0])
        p = support.unimodular(rng, 2)
        assert is_irreducible(t) == is_irreducible(support.conjugated(t, inverse(p)))
        assert index(t).index == index(support.conjugated(t, inverse(p))).index


P0 = _prime(0)


def _two_residues(a, b):
    return make_tuple(2, infinity_point(0, []),
                      [finite_point(0, 0, [Mat(a)]), finite_point(1, 0, [Mat(b)])])


class _NoExactSpan:
    def __init__(self, *args):
        raise AssertionError("the exact word search ran")


def _no_mod_p_span(*args):
    raise AssertionError("the mod-p word search ran")


def test_irreducible_unlucky_prime_falls_back_to_exact():
    # no rational eigenvalue anywhere (x^2 - 3 P0, x^2 + P0, and x^2 - 4 P0
    # for the derived residue), so Norton's test cannot start; both residues
    # are nilpotent mod P0, but A - B = 4 P0 E12 and A (A - B) spans M_2(Q)
    t = _two_residues([[0, 3 * P0], [1, 0]], [[0, -P0], [1, 0]])
    gens = t.all_coeffs_with_residue()
    assert rigidity._norton(gens, 2) is None
    assert reduce_mod_prime(gens)[0] == P0
    assert not rigidity._spans_mod_p(gens, 2)
    assert support.burnside_dim_naive(gens, 2) == 4
    assert is_irreducible(t)


def test_irreducible_skips_prime_dividing_a_denominator(monkeypatch):
    t = _two_residues([[0, F(3, P0)], [1, 0]], [[0, F(-1, P0)], [1, 0]])
    gens = t.all_coeffs_with_residue()
    assert rigidity._norton(gens, 2) is None
    assert reduce_mod_prime(gens)[0] == _prime(1)
    monkeypatch.setattr(rigidity, "IncrementalSpan", _NoExactSpan)
    assert is_irreducible(t)


def test_irreducible_over_q_but_not_absolutely():
    # the rotation generates Q(i), of dimension 2 < 4; it has no rational
    # eigenvalue, so Norton's test cannot start, and the exact search answers
    t = make_tuple(2, infinity_point(0, []), [finite_point(0, 0, [Mat([[0, -1], [1, 0]])])])
    gens = t.all_coeffs_with_residue()
    assert rigidity._norton(gens, 2) is None
    assert not rigidity._spans_mod_p(gens, 2)
    assert support.burnside_dim_naive(gens, 2) == 2
    assert not is_irreducible(t)


def test_irreducible_never_enters_exact_search(monkeypatch):
    monkeypatch.setattr(rigidity, "IncrementalSpan", _NoExactSpan)
    rng = support.rng(91)
    assert is_irreducible(HYP)
    for n in (2, 3, 4, 5):
        assert is_irreducible(support.rand_tuple(rng, n, 2, [1, 0, 0]))
    assert not is_irreducible(support.rand_reducible_tuple(rng, 3, 2))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_irreducible_matches_naive_burnside_oracle(n):
    rng = support.rng(300 + n)
    pool = (-2, -1, 0, 1, 2, F(1, 2), F(-2, 3))
    cases = [support.rand_tuple(rng, n, 1, [1, 0], pool=pool),
             support.rand_reducible_tuple(rng, n, 2)]
    for t in cases + [support.conjugated(t, support.unimodular(rng, n)) for t in cases]:
        full = support.burnside_dim_naive(t.all_coeffs_with_residue(), n) == n * n
        assert is_irreducible(t) == full
    assert is_irreducible(cases[0]) and not is_irreducible(cases[1])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_norton_matches_naive_burnside_oracle(n):
    # the oracle takes seconds at n = 7, 8, so there only the conjugates run
    rng = support.rng(500 + n)
    cases = [support.rand_semisimple_tuple(rng, n, 1, [1, 0]),
             support.rand_reducible_tuple(rng, n, 1)]
    conj = [support.conjugated(t, support.unimodular(rng, n)) for t in cases]
    for t in (conj if n > 6 else cases + conj):
        gens = t.all_coeffs_with_residue()
        full = support.burnside_dim_naive(gens, n) == n * n
        assert rigidity._norton(gens, n) is full  # decided, and right
        assert is_irreducible(t) == full
    assert not is_irreducible(cases[1])


def test_irreducible_reducible_seen_only_by_the_dual_spin(monkeypatch):
    # all upper triangular, so span(e1) is invariant; Norton takes theta's
    # eigenvalue 0, whose eigenvector (1, -1) lies outside it and spins to
    # Q^2, while ker(theta^T) = span(e2) spins only to itself
    theta = Mat([[1, 1], [0, 0]])
    t = make_tuple(2, infinity_point(1, [theta]), [finite_point(0, 0, [Mat([[0, 1], [0, 0]])])])
    gens = t.all_coeffs_with_residue()
    assert gens[0] == theta
    assert spin_dim([1, -1], [g.num for g in gens]) == 2
    assert spin_dim([0, 1], [g.transpose().num for g in gens]) == 1
    monkeypatch.setattr(rigidity, "_spans_mod_p", _no_mod_p_span)
    monkeypatch.setattr(rigidity, "IncrementalSpan", _NoExactSpan)
    assert not is_irreducible(t)


def test_irreducible_without_rational_eigenvalues_by_mod_p_span(monkeypatch):
    t = _two_residues([[0, -1], [1, 0]], [[0, 2], [1, 0]])
    assert rigidity._norton(t.all_coeffs_with_residue(), 2) is None
    monkeypatch.setattr(rigidity, "IncrementalSpan", _NoExactSpan)
    assert is_irreducible(t)


def test_norton_decides_random_and_forward_built_tuples(monkeypatch):
    monkeypatch.setattr(rigidity, "_spans_mod_p", _no_mod_p_span)
    monkeypatch.setattr(rigidity, "IncrementalSpan", _NoExactSpan)
    rng = support.rng(91)
    for n in (2, 3, 4, 5):
        assert is_irreducible(support.rand_tuple(rng, n, 2, [1, 0, 0]))
    rigid = support.forward_idx2_instances(1, 6, max_size=6)
    assert len(rigid) == 6 and max(t.size for t in rigid) == 4
    for t in rigid:
        assert is_irreducible(t)


def test_irreducible_n12_within_budget(monkeypatch):
    # the exact word search takes about 29 s at n=12 on a 2-vCPU x86-64 VM,
    # the mod-p one under 1 s
    monkeypatch.setattr(rigidity, "IncrementalSpan", _NoExactSpan)
    t = support.rand_tuple(support.rng(12), 12, 2, [1, 0, 0])
    start = time.perf_counter()
    assert is_irreducible(t)
    assert time.perf_counter() - start < 20


# ---------------------------------------------------------------------
# are_similar
# ---------------------------------------------------------------------

def _similar(a: MatrixTuple, b: MatrixTuple) -> Mat | None:
    """are_similar(a, b), which must answer as the full grid sweep
    `support.similar_by_sweep` does, and return the sweep's S whenever the
    first basis vector of the intertwiners is invertible (past a singular
    one it draws seeded points); an S it returns must intertwine the
    stripped pair and be invertible."""
    s, swept = are_similar(a, b), support.similar_by_sweep(a, b)
    assert (s is None) is (swept is None)
    if s is not None:
        pairs = zip(strip_trivial(a).slot_coeffs(), strip_trivial(b).slot_coeffs())
        assert det(s) != 0 and all(s * x == y * s for x, y in pairs)
        if det(support.intertwiner_basis(a, b)[0]) != 0:
            assert s == swept
    return s


def test_similar_reflexive_identity():
    assert _similar(HYP, HYP) == Mat.identity(2)


def test_similar_recovers_conjugation():
    rng = support.rng(41)
    for _ in range(6):
        t = support.rand_tuple(rng, rng.choice([2, 3]), 1, [1, 0])
        p = support.unimodular(rng, t.size)
        assert _similar(t, support.conjugated(t, inverse(p))) is not None


def test_similar_absent():
    a = make_tuple(1, infinity_point(1, [Mat([[1]])]),
                   [finite_point(0, 0, [Mat([[2]])])])
    b = make_tuple(1, infinity_point(1, [Mat([[1]])]),
                   [finite_point(0, 0, [Mat([[3]])])])
    assert _similar(a, b) is None


def test_similar_skeleton_mismatch():
    t2 = make_tuple(2, infinity_point(0, []),
                    [finite_point(0, 0, [Mat.diagonal([1, 2])])])
    with pytest.raises(PreconditionError):
        are_similar(HYP, t2)


def test_similar_involution_with_classical_intertwiner():
    fwd = middle_convolution(HYP, F(1, 3))
    back = middle_convolution(fwd.result, F(-1, 3))
    assert _similar(HYP, back.result) is not None


def test_centralizer_dim_matches_dense():
    rng = support.rng(50)
    for _ in range(10):
        m = support.rand_matrix(rng, rng.choice([2, 3, 4]))
        assert centralizer_dim(m) == support.centralizer_dim_dense(m)


def test_similar_strips_padding_first():
    padded = pad_point(HYP, 1)
    assert _similar(padded, HYP) == Mat.identity(2)
    assert _similar(HYP, padded) == Mat.identity(2)


@pytest.mark.parametrize("n", range(1, 7))
def test_sylvester_matches_kron_oracle(n):
    # X -> aX - Xb on row-major X is kron(a, I) - kron(I, b^T)
    rng = support.rng(600 + n)
    eye, zero = Mat.identity(n), Mat.zeros(n, n)
    pool = (-2, -1, 0, 1, F(1, 2), F(-7, 3))
    mats = [zero, eye, F(5, 2) * eye] + [support.rand_matrix(rng, n, pool) for _ in range(3)]
    for a in mats:
        for b in mats:
            expected = support.kron(a, eye) - support.kron(eye, b.transpose())
            assert _sylvester(a, b) == expected


# ---------------------------------------------------------------------
# intertwiners from a spin basis of the module
# ---------------------------------------------------------------------

def _slot_pairs(a, b) -> list[tuple[Mat, Mat]]:
    return [(a.coeff(i, j), b.coeff(i, j)) for (i, j) in a.slots()]


def _stacked_sylvester(pairs):
    """The S with S A = B S for every (A, B) in pairs, as the nullspace of
    the stacked Sylvester blocks."""
    return rref_nullspace(Mat.block([[_sylvester(y, x)] for x, y in pairs]))[1]


def _sylvester_hom(a, b):
    """The intertwiner space of two tuples by the stacked Sylvester oracle."""
    return _stacked_sylvester(_slot_pairs(a, b))


def _counting_kernels(monkeypatch) -> list:
    """The column counts of the kernels `rigidity` takes from now on."""
    widths = []
    monkeypatch.setattr(rigidity, "rref_nullspace",
                        lambda m: widths.append(m.cols) or rref_nullspace(m))
    return widths


def _spin_hom(pairs, n: int, monkeypatch):
    """rigidity's intertwiner space for the slot pairs, asserting that it
    builds no Sylvester system and takes no one-column kernel: a zero test
    decides those."""
    calls, widths = _counting_sylvester(monkeypatch), _counting_kernels(monkeypatch)
    space = rigidity._intertwiners(pairs, n)
    assert calls == [] and 1 not in widths
    return space


def _single_slot(a: Mat):
    return make_tuple(a.rows, infinity_point(1, [a]), [])


def _derogatory_fuchsian(n: int) -> MatrixTuple:
    """Three finite rank-0 points whose residues are semisimple and rational,
    drawn from support.rng(n): at most four distinct eigenvalues each, and
    for n = 4..8 and 24 no residue is cyclic."""
    r = support.rng(n)
    return make_tuple(n, infinity_point(0, []),
                      [finite_point(i, 0, [support.semisimple_rational(r, n)]) for i in range(3)])


@pytest.mark.parametrize("n", range(2, 9))
def test_intertwiners_match_sylvester_oracle(n, monkeypatch):
    rng = support.rng(700 + n)
    pool = (-2, -1, 0, 1, 2, F(1, 2), F(-2, 3))
    t = support.rand_tuple(rng, n, 2, [1, 0, 0], pool=pool)
    u = support.conjugated(t, support.unimodular(rng, n))
    other = support.rand_tuple(rng, n, 2, [1, 0, 0], pool=pool)
    for a, b in ((t, u), (u, t), (t, other), (other, u)):
        assert _spin_hom(_slot_pairs(a, b), a.size, monkeypatch) == _sylvester_hom(a, b)
    assert _sylvester_hom(t, u).dim >= 1 and _sylvester_hom(t, other).dim == 0
    assert _similar(t, u) is not None and _similar(t, other) is None

    def rand() -> Mat:
        return support.rand_matrix(rng, n, pool)

    def conj(x: MatrixTuple) -> MatrixTuple:
        return support.conjugated(x, support.unimodular(rng, n))

    # a derogatory first slot (0 twice, semisimple), spun with the other slots
    q = support.unimodular(rng, n)
    lead = q * Mat.diagonal([0] + list(range(n - 1))) * inverse(q)
    derog = make_tuple(n, infinity_point(1, [lead]),
                       [finite_point(0, 0, [rand()]), finite_point(1, 0, [rand()])])
    assert not _cyclic_start(lead)
    # a direct sum: Hom holds the scalars on each summand
    k = n // 2
    blocks = [[support.rand_matrix(rng, size, pool) for size in (k, n - k)] for _ in range(3)]
    dsum = make_tuple(n, infinity_point(1, [support.direct_sum(*blocks[0])]),
                      [finite_point(j, 0, [support.direct_sum(*blocks[j])]) for j in (1, 2)])
    # the cyclic slot x shifted by 1/(2 den x): chi_x(y) is invertible, as
    # den x times each root of chi_x is an algebraic integer
    x, *rest = conj(t).slot_coeffs()
    assert _cyclic_start(t.slot_coeffs()[0])
    shifted = t.with_slot_coeffs([x + Mat.diagonal([F(1, 2 * x.den)] * n)] + rest, n)
    assert rigidity._intertwiners(_slot_pairs(t, shifted)[:1], n).dim == 0
    cases = [(derog, conj(derog), 1), (dsum, conj(dsum), 2), (t, shifted, 0)]
    # a derogatory Fuchsian pair: no slot has a cyclic start vector, and its
    # conjugate; against the next size's draw cut to n, Hom is empty
    if n >= 4:
        fuchs = _derogatory_fuchsian(n)
        assert not any(map(_cyclic_start, fuchs.slot_coeffs()))
        apart = _derogatory_fuchsian(n + 1)
        apart = apart.with_slot_coeffs(
            [x.submatrix(range(n), range(n)) for x in apart.slot_coeffs()], n)
        cases += [(fuchs, conj(fuchs), 1), (fuchs, apart, 0)]
    for a, b, dim in cases:
        space = _spin_hom(_slot_pairs(a, b), a.size, monkeypatch)
        assert space == _sylvester_hom(a, b) and space.dim >= dim and (space.dim == 0) is (dim == 0)
        assert (_similar(a, b) is None) is (dim == 0)
    # a zero slot first and a scalar slot last cut nothing; a scalar slot
    # against another scalar leaves Hom empty
    zero, third = Mat.zeros(n, n), Mat.diagonal([F(2, 3)] * n)
    for pairs, empty in (([(zero, zero)] + _slot_pairs(t, u) + [(third, third)], False),
                         ([(zero, zero), (third, third)], False),
                         ([(third, third + third)] + _slot_pairs(t, u), True)):
        space = _spin_hom(pairs, n, monkeypatch)
        assert space == _stacked_sylvester(pairs) and (space.dim == 0) is empty


# S of a^(+2) against its conjugate, whose first basis vector is singular:
# the first invertible seeded draw, so a change in the draw sequence on any
# Python version moves it
SUM2_S = Mat.from_integers([[13, -26, 0, 6, -12, 0], [0, 13, 0, 0, 6, 0], [0, 13, 13, 0, 6, 6],
                            [12, -13, 0, 14, -6, 0], [-12, 25, 0, -14, 20, 0],
                            [-13, 0, 12, -6, 0, 14]])


@pytest.mark.parametrize("case", ["sum2", "sum3", "sum5", "sum6", "nil-211-22", "nil-22-22"])
def test_intertwiners_match_sylvester_oracle_on_sums_and_nilpotents(case, monkeypatch):
    # a^(+k) spins from k start vectors, and Hom(a^(+k), b) = End(a)^(k x k)
    # for its conjugate b; a nilpotent needs at least one start vector per
    # Jordan block, and Hom between nilpotents with Jordan types p and q has
    # dimension sum min(p_i, q_j), 8 for both pairs here.  A "yes" pair takes
    # at most 3 determinants, its first point and then seeded draws, and
    # gets the same S on every call; the "no" pair takes one
    if case.startswith("sum"):
        k = int(case[-1])
        a = support.sum_of_copies(k)
        b = support.conjugated(a, support.unimodular(support.rng(7), 3 * k))
        starts, dim = range(k, k + 1), k * k
    else:
        ja, jb = ((2, 1, 1), (2, 2)) if case == "nil-211-22" else ((2, 2), (2, 2))
        r = support.rng(4)
        a, b = support.nilpotent_tuple(r, ja), support.nilpotent_tuple(r, jb)
        starts, dim = range(len(ja), a.size + 1), 8
    xs = [x.num_over(x.den) for x in a.slot_coeffs()]
    assert sum(j is None for j, *_ in exactla.spin_basis(xs, a.size)) in starts
    space = _spin_hom(_slot_pairs(a, b), a.size, monkeypatch)
    assert space == _sylvester_hom(a, b) and space.dim == dim
    dets = _counting_dets(monkeypatch)
    s = are_similar(a, b)
    if case == "nil-211-22":
        assert s is None and len(dets) == 1
        return
    assert len(dets) <= 3 and det(s) != 0
    assert all(s * x == y * s for x, y in _slot_pairs(a, b))
    assert are_similar(a, b) == s
    if case == "sum2":
        assert s == SUM2_S


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3)
       .filter(lambda sizes: sum(sizes) <= 6),
       st.integers(min_value=1, max_value=3), st.booleans(), st.booleans())
@example(seed=0, sizes=[2, 2, 2], slots=2, copies=True, alike=True)  # a^(+3) and its conjugate
def test_intertwiners_match_sylvester_oracle_on_block_diagonal_tuples(
        seed, sizes, slots, copies, alike):
    # random block-diagonal slots in the bases of two unimodular matrices;
    # with `copies` every block of a size repeats the first, and with
    # `alike` both sides share their blocks (a similar pair), else the
    # second side draws its own
    rng = support.rng(seed)
    n = sum(sizes)
    pool = (-1, 0, 0, 1, F(1, 2))

    def slot() -> list[Mat]:
        first = {}
        return [first.setdefault(k, support.rand_matrix(rng, k, pool)) if copies
                else support.rand_matrix(rng, k, pool) for k in sizes]

    a_blocks = [slot() for _ in range(slots)]
    b_blocks = a_blocks if alike else [slot() for _ in range(slots)]
    p, q = support.unimodular(rng, n), support.unimodular(rng, n)
    pairs = [(p * support.direct_sum(*x) * inverse(p), q * support.direct_sum(*y) * inverse(q))
             for x, y in zip(a_blocks, b_blocks)]
    for ps, similar in ((pairs, alike), ([(x, x) for x, _ in pairs], True)):
        space = rigidity._intertwiners(ps, n)
        assert space == _stacked_sylvester(ps) and (space.dim >= 1 or not similar)


def test_similar_on_derogatory_and_nilpotent_pairs_builds_no_sylvester_system(monkeypatch):
    # the pairs that once took the stacked Sylvester kernel with n^2
    # unknowns: derogatory Fuchsian pairs and nilpotent pairs with no cyclic
    # slot; a^(+2) against its conjugate as well
    calls = _counting_sylvester(monkeypatch)
    for n in (5, 8):
        a = _derogatory_fuchsian(n)
        assert not any(map(_cyclic_start, a.slot_coeffs()))
        assert are_similar(a, support.conjugated(a, support.unimodular(support.rng(100 + n), n)))
    r = support.rng(4)
    nil = {j: support.nilpotent_tuple(r, j) for j in ((2, 1, 1), (2, 2))}
    assert are_similar(nil[2, 1, 1], nil[2, 2]) is None
    assert are_similar(nil[2, 2], support.conjugated(nil[2, 2], support.unimodular(r, 4)))
    a = support.sum_of_copies(2)
    assert are_similar(a, support.conjugated(a, support.unimodular(support.rng(7), 6)))
    assert calls == []


@pytest.mark.parametrize("n", range(2, 9))
def test_intertwiners_zero_test_one_column_relations(n, monkeypatch):
    # the oracle test's pairs, each spun from e_1 alone (one relation per
    # product of a slot and a word that is no word): once Z holds one vector,
    # each later relation holds iff its column is zero, so a similar pair
    # (Hom of dimension 1) takes fewer kernels than it has relations; with
    # the last slot of the conjugate replaced, the first nonzero column ends
    # with Hom = 0
    rng = support.rng(700 + n)
    pool = (-2, -1, 0, 1, 2, F(1, 2), F(-2, 3))
    t = support.rand_tuple(rng, n, 2, [1, 0, 0], pool=pool)
    u = support.conjugated(t, support.unimodular(rng, n))
    other = support.rand_tuple(rng, n, 2, [1, 0, 0], pool=pool)
    broken = _slot_pairs(t, u)
    broken[-1] = broken[-1][0], other.slot_coeffs()[-1]
    relations = 1 + n * (len(broken) - 1)
    for pairs, dim in ((_slot_pairs(t, u), 1), (_slot_pairs(u, t), 1), (broken, 0)):
        widths = _counting_kernels(monkeypatch)
        space = rigidity._intertwiners(pairs, n)
        assert space == _stacked_sylvester(pairs) and space.dim == dim
        assert 1 not in widths and len(widths) < relations
    assert len(widths) == 1  # the broken pair reached one vector after one kernel


def test_intertwiners_nilpotent_pair(monkeypatch):
    # Hom between nilpotents with Jordan types (3,) and (2, 1) has dimension
    # sum min(3, q) = 3 either way, and no element is invertible
    rng = support.rng(710)
    a, b = (support.conjugated(_single_slot(m), support.unimodular(rng, 3))
            for m in (_jordan(3, 0), support.direct_sum(_jordan(2, 0), [[0]])))
    space = _spin_hom(_slot_pairs(a, b), a.size, monkeypatch)  # (3,) is cyclic
    assert space == _sylvester_hom(a, b) and space.dim == 3
    assert not _cyclic_start(b.coeff(0, 1))                    # (2, 1) is not
    assert rigidity._intertwiners(_slot_pairs(b, a), 3) == _sylvester_hom(b, a)
    assert _similar(a, b) is None and _similar(b, a) is None


def test_intertwiners_single_cyclic_slot(monkeypatch):
    # with one slot the cyclic slot's own residual decides: Hom(a, b) is
    # ker chi_a(b), of dimension 0 for x^2 - 2 against x^2 - 3, and 2 for a
    # nilpotent J_3 against J_2 + (1)
    rng = support.rng(713)
    for x, y, dim in [(SQRT2, _companion(-3, 0), 0),
                      (_jordan(3, 0), support.direct_sum(_jordan(2, 0), [[1]]), 2)]:
        p = support.unimodular(rng, x.rows)
        a, b = _single_slot(x), _single_slot(p * y * inverse(p))
        space = _spin_hom(_slot_pairs(a, b), a.size, monkeypatch)
        assert space == _sylvester_hom(a, b) and space.dim == dim
        assert _similar(a, b) is None


def test_intertwiners_skip_a_scalar_first_slot(monkeypatch):
    rng = support.rng(711)
    t = make_tuple(4, infinity_point(1, [Mat.diagonal([F(2, 3)] * 4)]),
                   [finite_point(0, 0, [support.rand_matrix(rng, 4)]),
                    finite_point(1, 0, [support.rand_matrix(rng, 4)])])
    u = support.conjugated(t, support.unimodular(rng, 4))
    assert _slot_pairs(t, u)[0][0].scalar_multiple_of_identity() is not None
    assert _spin_hom(_slot_pairs(t, u), 4, monkeypatch) == _sylvester_hom(t, u)
    assert _similar(t, u) is not None


def _counting_dets(monkeypatch) -> list:
    dets = []
    monkeypatch.setattr(rigidity, "det", lambda m: dets.append(m) or det(m))
    return dets


def test_similar_irreducible_takes_one_det(monkeypatch):
    # Schur: ker S of an intertwiner S != 0 is a submodule of an irreducible
    # a, so S is invertible and the first point, the first basis vector,
    # succeeds, with no Hom dimension read
    dets = _counting_dets(monkeypatch)
    homs = []
    intertwiners = rigidity._intertwiners
    monkeypatch.setattr(rigidity, "_intertwiners",
                        lambda pairs, n: homs.append(n) or intertwiners(pairs, n))
    rng = support.rng(712)
    for n in (2, 3, 4, 5, 6, 8):
        t = support.rand_semisimple_tuple(rng, n, 2, [1, 0, 0])
        assert rigidity._norton(t.all_coeffs_with_residue(), n) is True
        dets.clear()
        homs.clear()
        assert _similar(t, support.conjugated(t, support.unimodular(rng, n))) is not None
        assert len(dets) == 1 and homs == [n]


@pytest.mark.parametrize("ja, jb", [((2, 1), (3,)), ((3,), (2, 1)), ((2, 1, 1), (2, 2))])
def test_similar_no_from_hom_dimensions_takes_one_det(ja, jb, monkeypatch):
    # nilpotent pairs of different Jordan types p, q: no intertwiner is
    # invertible, so the first point is singular; then dim End(a) or
    # dim End(b) differs from dim Hom(a, b) = sum min(p_i, q_j), and the "no"
    # is exact after one det (the (2, 1, 1) pair's full sweep is 5^8 points)
    def hom(p, q):
        return sum(min(x, y) for x in p for y in q)

    rng = support.rng(714)
    a, b = support.nilpotent_tuple(rng, ja), support.nilpotent_tuple(rng, jb)
    pairs = _slot_pairs(a, b)
    dims = [rigidity._intertwiners(ps, a.size).dim
            for ps in ([(x, x) for x, _ in pairs], pairs, [(y, y) for _, y in pairs])]
    assert dims == [hom(ja, ja), hom(ja, jb), hom(jb, jb)]
    dets = _counting_dets(monkeypatch)
    assert are_similar(a, b) is None and len(dets) == 1
    if a.size == 3:
        assert support.similar_by_sweep(a, b) is None


@pytest.mark.parametrize("n", (2, 3, 4))
def test_similar_split_against_non_split_block_triangular(n):
    # two slots, block upper triangular for k + (n - k), with the same
    # diagonal blocks: split (block diagonal) against non-split (a random
    # corner), one side in the basis of a unimodular matrix; the full sweep
    # gives the expected answer, and both answers occur
    rng = support.rng(730 + n)
    pool = (-1, 0, 1, 2)
    answers = set()
    for _ in range(4):
        k = rng.randint(1, n - 1)
        diag = [(support.rand_matrix(rng, k, pool), support.rand_matrix(rng, n - k, pool))
                for _ in range(2)]

        def triangular(corner: bool) -> MatrixTuple:
            x0, x1 = (Mat.block([[x, Mat([[F(rng.choice(pool) if corner else 0)
                                           for _ in range(n - k)] for _ in range(k)])],
                                 [Mat.zeros(n - k, k), w]]) for x, w in diag)
            return make_tuple(n, infinity_point(1, [x0]), [finite_point(0, 0, [x1])])

        def conj(t: MatrixTuple) -> MatrixTuple:
            return support.conjugated(t, support.unimodular(rng, n))

        split, e1, e2 = triangular(False), triangular(True), triangular(True)
        for a, b in ((split, conj(e1)), (e1, conj(split)), (e1, conj(e2)), (e1, conj(e1))):
            answers.add(_similar(a, b) is None)
    assert answers == {True, False}


def test_similar_walk_without_an_invertible_point_is_an_internal_error(monkeypatch):
    # equal Hom dimensions make a and b similar, so some intertwiner is
    # invertible; a search that finds none raises InternalError, not "no"
    # (an explicit check, not an assert), after the first point and exactly
    # 64 seeded draws: the search is bounded
    u = support.conjugated(HYP, Mat([[1, 1], [0, 1]]))
    assert u != HYP
    dets = []
    monkeypatch.setattr(rigidity, "det", lambda m: dets.append(m) or F(0))
    with pytest.raises(InternalError, match="no invertible intertwiner"):
        are_similar(HYP, u)
    assert len(dets) == 1 + 64


def test_random_tuples_and_mc_outputs_build_no_sylvester_system(monkeypatch):
    calls = _counting_sylvester(monkeypatch)
    for n in (8, 12, 16):
        t = support.rand_semisimple_tuple(support.rng(n), n, 2, [1, 0, 0])
        out = middle_convolution(t, F(1, 3)).result
        assert out.size > n
        assert index(t).index == index(out).index
        assert are_similar(t, support.conjugated(t, support.unimodular(support.rng(n), n))) is not None
    assert calls == []
