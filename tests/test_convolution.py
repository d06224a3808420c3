"""Convolution matrices, kernel subspaces, middle convolution."""

from fractions import Fraction as F
from math import gcd, lcm

import pytest

from midconv.errors import PreconditionError
from midconv.exactla import Mat, Subspace, rational_spectrum, rref_nullspace
from midconv.convolution import (
    convolution_matrices,
    middle_convolution,
    subspace_K,
    subspace_L,
    subspace_Lprime,
)
from midconv.model import (
    addition,
    bessel_example,
    finite_point,
    hypergeometric_example,
    infinity_point,
    make_tuple,
    pad_point,
    strip_trivial,
)
from midconv.rigidity import are_similar, is_irreducible
import support
from support import check_invariance, predicted_size

HYP = hypergeometric_example(1, F(1, 2), F(1, 3), 1)
NU, GAMMA, ALPHA, K = F(1), F(1, 2), F(1, 3), F(1)
# Poincare ranks 2 and 3, whose convolution matrices have several band
# blocks (the benchmark's inputs have rank 1 everywhere); the leading
# coefficients are singular, so K != 0 and at mu = 1/3 some pivots of
# K + L(mu) fall on band rows
_BAND_TUPLES = {
    "finite-ranks-2-3": support.rand_tuple(support.rng(1), 2, 2, [1, 2, 3], pool=(-1, 0, 0, 1)),
    "infinity-0-beside-rank-2": support.rand_tuple(support.rng(1), 2, 1, [0, 2],
                                                   pool=(-1, 0, 0, 1)),
    "infinity-rank-3": support.rand_tuple(support.rng(4), 2, 1, [3, 0], pool=(-1, 0, 0, 1)),
}


# ---------------------------------------------------------------------
# convolution_matrices
# ---------------------------------------------------------------------

def test_conv_matrices_hypergeometric_blocks():
    mu = F(1, 3)
    conv = convolution_matrices(HYP, mu)
    a1, a0 = HYP.infinity.coeffs[0], HYP.finite[0].coeffs[0]
    z = Mat.zeros(2, 2)
    eye = Mat.identity(2)
    assert conv.coeff(0, 1) == Mat.block([[a1, a0], [z, z]])
    assert conv.coeff(1, 0) == Mat.block([[z, z], [a1, a0 + mu * eye]])
    assert conv.slots() == [(0, 1), (1, 0)]


def test_conv_matrices_single_slot():
    t = make_tuple(1, infinity_point(0, []), [finite_point(0, 0, [Mat([[5]])])])
    conv = convolution_matrices(t, F(2))
    assert conv.size == 1
    assert conv.coeff(1, 0) == Mat([[7]])  # A + mu


def test_conv_matrices_vs_definition_oracle():
    rng = support.rng(55)
    cases = [(support.rand_tuple(rng, 2, 2, [1, 1, 0]), support.rand_fraction(rng))
             for _ in range(6)]
    cases += [(t, mu) for t in _BAND_TUPLES.values() for mu in (F(0), F(1, 3), F(-5, 7))]
    for t, mu in cases:
        conv = convolution_matrices(t, mu)
        oracle = support.convolution_oracle(t, mu)
        for (i, j) in t.slots():
            assert conv.coeff(i, j) == oracle[(i, j)], (t.slot_count, mu, (i, j))


def test_conv_matrices_mu_band():
    # rank-2 point at infinity: band of mu blocks above the dense row
    rng = support.rng(56)
    t = support.rand_tuple(rng, 2, 1, [2, 0])
    mu = F(5, 7)
    conv = convolution_matrices(t, mu)
    oracle = support.convolution_oracle(t, mu)
    for (i, j) in t.slots():
        assert conv.coeff(i, j) == oracle[(i, j)]


# ---------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------

def test_K_hypergeometric():
    per, big = subspace_K(HYP)
    assert [s.dim for s in per] == [0, 1]
    assert big.dim == 1
    # spanned by (0, 0, k, alpha): canonical form scales the pivot to 1
    assert support.contains(big, [0, 0, K, ALPHA])


def test_K_trivial_when_leading_invertible():
    t = make_tuple(
        2, infinity_point(1, [Mat.diagonal([1, 2])]),
        [finite_point(0, 1, [Mat.diagonal([3, 1]), support.rand_matrix(support.rng(1), 2)]),
         finite_point(1, 0, [Mat.diagonal([2, 5])])],
    )
    _, big = subspace_K(t)
    assert big.dim == 0


def test_K_padded_point_formula():
    # rank-0 point padded: dim K = n + dim ker A_0, against a direct
    # nullspace of the 2n x 2n block matrix
    rng = support.rng(77)
    for _ in range(5):
        a0 = support.rand_matrix(rng, 3)
        t = make_tuple(
            3, infinity_point(1, [Mat.diagonal([1, 2, 3])]),
            [finite_point(0, 0, [a0])],
        )
        tp = pad_point(t, 1)
        per, _ = subspace_K(tp)
        _, ker_a0 = rref_nullspace(a0)
        assert per[1].dim == 3 + ker_a0.dim
        z = Mat.zeros(3, 3)
        direct = Mat.block([[z, a0], [z, z]])
        r, _ = rref_nullspace(direct)
        assert per[1].dim == 6 - r


def test_K_is_canonical_without_re_elimination():
    # finite points of Poincare rank 0, 1 and 2, a zero coefficient, r = 0,
    # no finite kernel: each shifted per-point kernel and their concatenation
    # are already the reduced echelon bases, integer rows over one
    # denominator, that a fresh elimination of their vectors gives
    rng = support.rng(78)
    z = Mat.zeros(2, 2)
    sing = Mat([[1, 1], [1, 1]])
    tuples = [
        make_tuple(2, infinity_point(1, [Mat.diagonal([1, 2])]), []),
        make_tuple(
            2, infinity_point(1, [support.rand_matrix(rng, 2)]),
            [finite_point(0, 0, [sing]),
             finite_point(1, 1, [sing, z]),
             finite_point(2, 2, [z, sing, support.rand_matrix(rng, 2)])],
        ),
        make_tuple(
            2, infinity_point(0, []),
            [finite_point(0, 2, [sing, z, z]), finite_point(1, 0, [z])],
        ),
        make_tuple(2, infinity_point(1, [Mat.diagonal([1, 2])]),
                   [finite_point(0, 0, [Mat.identity(2)]), finite_point(1, 1, [Mat.identity(2), z])]),
    ]
    for _ in range(4):
        tuples.append(support.rand_tuple(rng, 2, 3, [1, 2, 0, 1], pool=(0, 0, 1, -1)))
    for t in tuples:
        per, big = subspace_K(t)
        for s in per + [big]:
            assert s == Subspace.from_spanning(s.basis.data, s.ambient_dim)
            assert s.ambient_dim == t.size * t.slot_count
            assert all(type(x) is int for row in s.basis.num for x in row)
        assert big.dim == sum(s.dim for s in per)
    assert any(subspace_K(t)[1].dim > 2 for t in tuples)
    assert any(t.finite and subspace_K(t)[1].dim == 0 for t in tuples)


def _lprime_re_eliminated(t, mu):
    """L'(mu) by definition: the kernel of the infinity block-Toeplitz
    system, each vector embedded with -ell at every (i, 0) slot, and the
    embedded vectors eliminated afresh; also the kernel's dimension."""
    n, m0 = t.size, t.infinity.poincare_rank
    nm, cut = n * t.slot_count, m0 * n
    blocks = list(t.infinity.coeffs) + [t.residue_at_infinity() - Mat.diagonal([mu] * n)]
    _, ker = rref_nullspace(support.block_upper_toeplitz(blocks))
    starts = [k * n for k, (i, j) in enumerate(t.slots()) if i and not j]
    vecs = []
    for col in ker.basis.data:
        v = list(col[:cut]) + [F(0)] * (nm - cut)
        for s in starts:
            v[s:s + n] = [-x for x in col[cut:]]
        vecs.append(v)
    return Subspace.from_spanning(vecs, nm), ker.dim


@pytest.mark.parametrize("name", list(_BAND_TUPLES))
def test_toeplitz_kernels_eliminate_one_block_row_at_a_time(name, monkeypatch):
    # each point's system [c0 ... ck] is eliminated as n rows over n columns,
    # then over n + dim ker T_(j-1) columns for block row j (none after
    # ker c0 = 0), never as its (k+1)n-square grid
    from midconv import exactla

    t, mu = _BAND_TUPLES[name], F(1, 3)
    n = t.size

    def widths_of(systems):
        out = []
        for cs in systems:
            dims = [rref_nullspace(support.block_upper_toeplitz(cs[:j]))[1].dim
                    for j in range(1, len(cs))]
            out += [n] + ([n + d for d in dims] if dims and dims[0] else [])
        return out

    want_K = widths_of([list(p.coeffs) for p in t.finite])
    corner = t.residue_at_infinity() - Mat.diagonal([mu] * n)
    want_L = widths_of([list(t.infinity.coeffs) + [corner]])
    assert max(len(p.coeffs) for p in (t.infinity, *t.finite)) >= 3
    widths = []
    echelon = exactla._echelon
    monkeypatch.setattr(exactla, "_echelon",
                        lambda rows, ncols: widths.append(ncols) or echelon(rows, ncols))
    subspace_K(t)
    assert widths == want_K
    widths.clear()
    subspace_Lprime(t, mu)
    assert widths == want_L


def test_Lprime_is_canonical_without_re_elimination():
    # m0 in {0, 1} and r in {0, 1, 2}; mu at the eigenvalues of the residue
    # at infinity gives pivots in the ell block (dropped when r = 0)
    rng = support.rng(79)
    seen = set()
    for _ in range(80):
        n, m0, r = rng.choice([1, 2, 3]), rng.choice([0, 1]), rng.choice([0, 1, 2])
        if m0 + r == 0:
            continue
        t = support.rand_tuple(rng, n, r, [m0] + [rng.choice([0, 1]) for _ in range(r)],
                               pool=(0, 0, 0, 1, -1))
        spec, _ = rational_spectrum(t.residue_at_infinity())
        for mu in [F(0), support.rand_fraction(rng)] + [lam for lam, _ in spec]:
            lp = subspace_Lprime(t, mu)
            expected, ker_dim = _lprime_re_eliminated(t, mu)
            assert lp == expected
            ell = any(q >= m0 * n for q in lp.pivot_rows)
            seen.add((m0, r, lp.dim > 0, ell, lp.dim < ker_dim))
    for m0, r in ((0, 1), (0, 2), (1, 0), (1, 1), (1, 2)):
        assert any(k[:2] == (m0, r) and k[2] for k in seen)  # dim L' > 0
        assert any(k[:2] == (m0, r) and not k[2] for k in seen)  # L' = 0
        assert r == 0 or any(k[:2] == (m0, r) and k[3] for k in seen)  # ell-block pivots
    assert any(k[:2] == (1, 0) and k[4] for k in seen)  # ell-block vectors dropped


def test_Lprime_hypergeometric_at_alpha():
    lp = subspace_Lprime(HYP, ALPHA)
    assert lp.dim == 2
    assert support.contains(lp, [1, 0, 0, 0])
    assert support.contains(lp, [0, ALPHA * (GAMMA - ALPHA), K * NU, 0])


def test_Lprime_hypergeometric_generic_mu():
    for mu in (F(1), F(-2, 5), F(7, 3)):
        assert subspace_Lprime(HYP, mu).dim == 1


def test_Lprime_bessel_bounded():
    b = bessel_example(1, 0, 1, 1)
    rng = support.rng(5)
    for _ in range(20):
        shift = [support.rand_fraction(rng), support.rand_fraction(rng)]
        mu = support.rand_fraction(rng)
        assert subspace_Lprime(addition(b, shift), mu).dim <= 1


def test_L_equals_Lprime_for_nonzero_mu():
    for mu in (F(1, 3), F(-1), F(2, 7)):
        assert subspace_L(HYP, mu) == subspace_Lprime(HYP, mu)


def test_L_at_zero_rank_formula():
    row = Mat.block([[HYP.infinity.coeffs[0], HYP.finite[0].coeffs[0]]])
    r, _ = rref_nullspace(row)
    assert subspace_L(HYP, 0).dim == 4 - r
    assert subspace_L(HYP, 0).dim == 2


def test_K_plus_Lprime0_inside_L0():
    rng = support.rng(6)
    for _ in range(10):
        t = support.rand_tuple(rng, 2, 1, [rng.choice([0, 1]), rng.choice([0, 1])])
        _, big_k = subspace_K(t)
        l0 = subspace_L(t, 0)
        assert l0.sum(big_k.sum(subspace_Lprime(t, 0))) == l0


# ---------------------------------------------------------------------
# middle_convolution
# ---------------------------------------------------------------------

def test_mc_hypergeometric_rank_one_output():
    out = middle_convolution(HYP, ALPHA)
    assert out.result.size == 1
    assert out.result.infinity.coeffs[0] == Mat([[-NU]])
    assert out.result.finite[0].coeffs[0] == Mat([[ALPHA - GAMMA]])
    assert out.dim_K == (0, 1)
    assert out.dim_L == 2
    projection, section = support.projection_section(HYP, ALPHA)
    assert projection * section == Mat.identity(1)


def test_mc_zero_parameter_is_identity_up_to_similarity():
    out = middle_convolution(HYP, 0)
    assert out.result.size == 2
    assert are_similar(HYP, out.result) is not None


def test_mc_rank_one_seed_recovers_explicit_matrices():
    seed = make_tuple(
        1, infinity_point(1, [Mat([[-NU]])]),
        [finite_point(0, 0, [Mat([[ALPHA - GAMMA]])])],
    )
    out = middle_convolution(seed, -ALPHA)
    assert out.result.size == 2
    assert out.result.infinity.coeffs[0] == Mat([[-NU, ALPHA - GAMMA], [0, 0]])
    assert out.result.finite[0].coeffs[0] == Mat([[0, 0], [-NU, -GAMMA]])


def test_mc_degenerate_quotient_raises():
    z = Mat.zeros(2, 2)
    t = make_tuple(2, infinity_point(0, []), [finite_point(0, 0, [z])])
    with pytest.raises(PreconditionError, match="zero-dimensional"):
        middle_convolution(t, 0)


def test_predicted_size_matches_mc():
    rng = support.rng(8)
    for _ in range(10):
        t = support.rand_tuple(rng, 2, 1, [rng.choice([0, 1, 2]), rng.choice([0, 1])])
        mu = F(rng.choice([1, -1, 2]), rng.choice([1, 2, 3]))
        try:
            out = middle_convolution(t, mu)
        except PreconditionError:
            continue
        assert out.result.size == predicted_size(t, mu)


def test_predicted_size_hypergeometric():
    assert predicted_size(HYP, ALPHA) == 4 - 1 - 2 == 1


def test_predicted_size_padded_formula():
    tp = pad_point(HYP, 1)
    # (2r+1) n - sum(n_l + n_{l,1}) = 6 - (2 + 3) = 1
    assert predicted_size(tp, ALPHA) == 1
    assert predicted_size(tp, ALPHA) == predicted_size(HYP, ALPHA)


def test_predicted_size_full_when_subspaces_trivial():
    t = make_tuple(
        2, infinity_point(1, [Mat.diagonal([1, 2])]),
        [finite_point(0, 0, [Mat.diagonal([3, 4])])],
    )
    # leading coefficient invertible: L' trivial; residue invertible: K trivial
    assert predicted_size(t, F(7)) == 4


def test_padding_equivalence_strip_and_similarity():
    out_padded = middle_convolution(pad_point(HYP, 1), ALPHA)
    out_plain = middle_convolution(HYP, ALPHA)
    assert out_padded.result.size == out_plain.result.size
    stripped = strip_trivial(out_padded.result)
    assert are_similar(stripped, out_plain.result) is not None


def test_complement_independence():
    # a conjugated input has other canonical bases of K and L(mu), hence
    # another coordinate complement, and the result changes only by similarity
    rng = support.rng(21)
    checked = 0
    for _ in range(5):
        t = support.rand_tuple(rng, 2, 1, [1, 0])
        if not is_irreducible(t):
            continue
        mu = F(rng.choice([1, -1]), rng.choice([1, 2]))
        p = support.unimodular(rng, 2)
        plain = middle_convolution(t, mu).result
        conj = middle_convolution(support.conjugated(t, p), mu).result
        assert are_similar(plain, conj) is not None
        checked += 1
    assert checked


def test_involution_on_hypergeometric():
    fwd = middle_convolution(HYP, ALPHA)
    back = middle_convolution(fwd.result, -ALPHA)
    s = are_similar(HYP, back.result)
    assert s is not None
    # the classical intertwiner [[alpha-gamma, -k], [nu, 0]] works too
    w = Mat([[ALPHA - GAMMA, -K], [NU, 0]])
    for (i, j) in HYP.slots():
        assert w * HYP.coeff(i, j) == back.result.coeff(i, j) * w


# ---------------------------------------------------------------------
# check_invariance
# ---------------------------------------------------------------------

def test_invariance_hypergeometric():
    assert check_invariance(HYP, ALPHA).all_pass


def test_invariance_random():
    rng = support.rng(9)
    for _ in range(8):
        t = support.rand_tuple(
            rng, rng.choice([2, 3]), rng.choice([1, 2]),
            [rng.choice([0, 1, 2])] + [rng.choice([0, 1]) for _ in range(2)],
        )
        t = make_tuple(t.size, t.infinity, t.finite[: rng.choice([1, 2])])
        mu = support.rand_fraction(rng)
        assert check_invariance(t, mu).all_pass


def test_invariance_vacuous_when_trivial():
    t = make_tuple(
        2, infinity_point(1, [Mat.diagonal([1, 2])]),
        [finite_point(0, 0, [Mat.diagonal([3, 4])])],
    )
    rep = check_invariance(t, F(7))
    assert rep.all_pass


_CONTRACT_TUPLES = {
    "hypergeometric": HYP,
    "random-n3": support.rand_tuple(support.rng(81), 3, 2, [1, 0, 1]),
    "rank2-infinity": support.rand_tuple(support.rng(82), 2, 2, [2, 1, 0]),
    # like the benchmark's convolve inputs: rank 1 at all three points
    "rank1-n8": support.rand_semisimple_tuple(support.rng(83), 8, 2, [1, 1, 1]),
    **_BAND_TUPLES,
    # fractional coefficients: the basis of K + L(mu) has a denominator e > 1
    # and rows over different own denominators e_p, so the quotient matrices
    # are formed over different f * den, among them f = 1 < e and 1 < f < e
    "fractional-n2": support.rand_tuple(support.rng(2), 2, 2, [1, 0, 1],
                                        pool=(-1, 0, 0, 1, F(1, 2), F(-1, 3))),
    "fractional-n3": support.rand_tuple(support.rng(7), 3, 2, [1, 1, 1],
                                        pool=(0, 1, F(1, 2), F(2, 3), -1)),
    # a rank-2 finite point with fractional coefficients: at mu != 0 its
    # band entries are f * nu in slots with f > 1
    "fractional-rank2": support.rand_tuple(support.rng(9), 3, 2, [0, 2, 1],
                                           pool=(-1, 0, 0, 1, F(1, 2))),
}
_CONTRACT_MUS = (F(0), F(1, 3), F(-2, 7))


def _slot_denominators(t, mu, w, oracle):
    """The f of each slot, from W = K + L(mu) itself: the lcm of the own
    denominators e_p = e / gcd(e, b_p on the complement) over the basis
    rows b_p whose row p of the slot's convolution matrix is nonzero on the
    complement."""
    comp = [c for c in range(w.ambient_dim) if c not in w.pivot_rows]
    e = w.basis.den
    own = {p: e // gcd(e, *(b[c] for c in comp)) for p, b in zip(w.pivot_rows, w.basis.num)}
    return {s: lcm(*(own[p] for p in w.pivot_rows if any(g.num[p][c] for c in comp)))
            for s, g in oracle.items()}


def test_mc_outcome_projection_contract():
    # the reference projection kills K + L(mu), projection * section is the
    # identity, and every result coefficient equals projection * conv_matrix
    # * section, the conv_matrix taken from the definition (the oracle);
    # mu = 0 (where L(0) may differ from L'(0)) and mu != 0, one of them
    # with denominator 7.  The cases hold slots whose quotient is formed
    # over den (f = 1 < e) and over f * den with 1 < f < e
    fs, shared = [], 0
    for name, t in _CONTRACT_TUPLES.items():
        for mu in _CONTRACT_MUS:
            oracle = support.convolution_oracle(t, mu)
            _, big_k = subspace_K(t)
            w = big_k.sum(subspace_L(t, mu))
            out = middle_convolution(t, mu)
            projection, section = support.projection_section(t, mu)
            for v in w.basis.data:
                assert not any(support.apply(projection, v)), (name, mu)
            assert projection * section == Mat.identity(out.result.size)
            for (i, j) in t.slots():
                assert (out.result.coeff(i, j)
                        == projection * oracle[(i, j)] * section), \
                    (name, mu, (i, j))
            f = _slot_denominators(t, mu, w, oracle)
            fs.extend((x, w.basis.den) for x in f.values())
            shared += _shared_block_rows(t, mu, w, oracle, f, out.result)
    assert any(subspace_L(t, 0) != subspace_Lprime(t, 0)
               for t in _CONTRACT_TUPLES.values())
    assert any(f == 1 < e for f, e in fs)
    assert any(1 < f < e for f, e in fs)
    assert shared


def _shared_block_rows(t, mu, w, oracle, fs, result) -> int:
    """Where f = 1 the quotient takes the point's block rows as they are,
    so a block row that no pivot corrects is one row object in every such
    slot matrix of the point, unless `Mat.from_integers` divides that
    matrix by a common factor: `tuplefile.encode` formats it once.  Asserts
    that, and returns how many block rows more than one slot shares."""
    n, nm = t.size, w.ambient_dim
    comp = [c for c in range(nm) if c not in w.pivot_rows]
    at = {c: k for k, c in enumerate(comp)}
    den = lcm(Mat.block([t.slot_coeffs()]).den, mu.denominator)  # G's rows over den
    rows = {}  # (point, block row) -> its row objects in the f = 1 slots
    for k, (i, j) in enumerate(t.slots()):
        q, g = result.coeff(i, j), oracle[(i, j)]
        if fs[(i, j)] != 1 or q.den != den:
            continue
        corrected = {at[c] for p, b in zip(w.pivot_rows, w.basis.num)
                     if any(g.num[p][c] for c in comp) for c in comp if b[c]}
        for a in range(n):
            r = k * n + a  # slot (i, j) is block k of V'
            if r in at and at[r] not in corrected:
                rows.setdefault((i, a), []).append(q.num[at[r]])
    for key, objs in rows.items():
        assert len({id(r) for r in objs}) == 1, (mu, key)
    return sum(len(objs) > 1 for objs in rows.values())


def test_mc_and_reduce_never_build_the_convolution_matrices(monkeypatch):
    # quotient reads the nonzero rows of the convolution matrices itself:
    # with convolution_matrices raising, middle_convolution and reduce
    # (through reduce_step's own quotient call) give the same results
    import midconv.convolution
    from midconv.reduction import reduce

    cases = [(t, mu) for t in _CONTRACT_TUPLES.values() for mu in (F(0), F(1, 3))]
    reducible = support.forward_idx2_instances(99, want=4)
    want = [middle_convolution(t, mu) for t, mu in cases], [reduce(t) for t in reducible]

    def no_conv(*args):
        raise AssertionError("convolution_matrices called")

    monkeypatch.setattr(midconv.convolution, "convolution_matrices", no_conv)
    assert [middle_convolution(t, mu) for t, mu in cases] == want[0]
    assert [reduce(t) for t in reducible] == want[1]
    assert any(s.steps for s in want[1])


def test_mc_on_okubo_style_tuple_without_infinity_part():
    # no polynomial part at infinity (m0 = 0), rank-1 finite point
    from midconv.model import inverse_laplace_example

    t = inverse_laplace_example(1, 0, 1, 1)
    mu = F(1, 2)
    assert check_invariance(t, mu).all_pass
    out = middle_convolution(t, mu)
    assert out.result.size == predicted_size(t, mu)


def test_involution_and_index_heavyweight():
    # n = 4, two finite points, every slot rank 1: the convolution grows the
    # size past nM/2 and the inverse convolution works on a ~80-dim ambient
    from midconv.model import SingularPoint, make_tuple as mk
    from midconv.rigidity import index

    rng = support.rng(777)
    while True:
        inf = SingularPoint(None, 1,
                            (support.semisimple_rational(rng, 4, (0, 1, 2, -1)),))
        fins = [
            SingularPoint(F(i), 1,
                          (support.semisimple_rational(rng, 4, (0, 1, -1)),
                           support.rand_matrix(rng, 4)))
            for i in range(2)
        ]
        t = mk(4, inf, fins)
        if is_irreducible(t):
            break
    mu = F(1, 2)
    idx0 = index(t).index
    fwd = middle_convolution(t, mu)
    assert fwd.result.size > t.size
    assert index(fwd.result).index == idx0
    back = middle_convolution(fwd.result, -mu)
    assert back.result.size == t.size
    assert are_similar(t, back.result) is not None
