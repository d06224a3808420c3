"""Convolution matrices, the kernel subspaces and middle convolution.

The convolution of an n-dimensional tuple lives on V' = V^{oplus M} with
M the slot count.  Middle convolution with parameter mu is the induced
action on the quotient V'/(K + L(mu)); the quotient is realized on the
coordinate complement `comp` of the pivot rows of the canonical echelon
basis of K + L(mu), which makes the output fully deterministic.

Each basis vector b_p of that echelon basis is 1 at its pivot row p and 0
at every other pivot row, so each convolution matrix G induces

    Q = G[comp, comp] - sum over pivots p of b_p[comp] (x) G[p, comp]

on the quotient: only the pivot rows of G and the entries of b_p on the
complement enter.  dim(K + L(mu)) is usually small against nM, so this
costs far less than reducing every column of G against the basis.

K is assembled canonically with no elimination of its own: each point's
Toeplitz kernel comes out of `rref_nullspace` in reduced echelon form, and
shifting those kernels to their consecutive slots and concatenating them in
point order keeps that form (`subspace_K`).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .errors import PreconditionError
from .exactla import Mat, Subspace, as_scalar, block_upper_toeplitz, rref_nullspace
from .model import MatrixTuple, SingularPoint


@dataclass(frozen=True)
class MCOutcome:
    """Result of one middle convolution: the quotient tuple, dim K per
    point (infinity first) and dim L(mu)."""

    result: MatrixTuple
    dim_K: tuple[int, ...]
    dim_L: int


def _slot_offsets(t: MatrixTuple) -> dict[tuple[int, int], int]:
    """The first coordinate of each slot's block in V'."""
    return {s: k * t.size for k, s in enumerate(t.slots())}


def convolution_matrices(t: MatrixTuple, mu) -> MatrixTuple:
    """The size-nM tuple of convolution matrices for parameter mu; its
    `slots()` are those of t and give the slot layout of V'.

    For each slot (i, j) the matrix has one dense block row at slot (i, j)
    containing the full coefficient row (with mu*I added in column (i, 0)
    when i != 0), a band of mu*I blocks at rows (i, j') for j' > j in
    columns (i, j'-j), and zeros elsewhere.
    """
    mu = as_scalar(mu)
    n = t.size
    offs = _slot_offsets(t)
    nm = n * t.slot_count
    dense = Mat.block([[t.coeff(i, j) for (i, j) in offs]])
    den = lcm(dense.den, mu.denominator)
    dense_rows = [[x * (den // dense.den) for x in row] for row in dense.num]
    nu, zero_row = mu.numerator * (den // mu.denominator), (0,) * nm

    def build(i: int, j: int) -> Mat:
        rows = [zero_row] * nm
        r0 = offs[(i, j)]
        for a in range(n):
            rows[r0 + a] = row = dense_rows[a][:]
            if i != 0:
                row[offs[(i, 0)] + a] += nu
        m_i = t.point(i).poincare_rank
        for jp in range(j + 1, m_i + 1):
            r0, c0 = offs[(i, jp)], offs[(i, jp - j)]
            for a in range(n):
                rows[r0 + a] = row = [0] * nm
                row[c0 + a] = nu
        return Mat.from_integers(rows, den, nm)

    inf = SingularPoint(
        None, t.infinity.poincare_rank,
        tuple(build(0, j) for j in range(t.infinity.poincare_rank, 0, -1)),
    )
    fin = []
    for i, p in enumerate(t.finite, start=1):
        fin.append(
            SingularPoint(
                p.location, p.poincare_rank,
                tuple(build(i, j) for j in range(p.poincare_rank, -1, -1)),
            )
        )
    return MatrixTuple(nm, inf, tuple(fin))


def subspace_K(t: MatrixTuple) -> tuple[list[Subspace], Subspace]:
    """Per-point kernels of the block-Toeplitz principal parts, embedded in
    V'; the point at infinity contributes the zero space.  Returns the list
    (indexed by point) and their direct sum.

    The Toeplitz columns of point i are its slots (i, m_i), ..., (i, 0),
    which are consecutive in V', so each canonical kernel is embedded by
    shifting it, basis rows and pivots alike, to the offset of (i, m_i).
    The shifted kernels sit on disjoint blocks in point order, so stacking
    them gives the canonical basis of the sum: nothing is re-eliminated."""
    nm = t.size * t.slot_count
    offs = _slot_offsets(t)
    per_point: list[Subspace] = [Subspace.zero(nm)]
    for i, p in enumerate(t.finite, start=1):
        _, ker = rref_nullspace(block_upper_toeplitz(list(p.coeffs)))
        off = offs[(i, p.poincare_rank)]
        left, right = (0,) * off, (0,) * (nm - off - ker.ambient_dim)
        per_point.append(Subspace(
            Mat.from_integers([left + v + right for v in ker.basis.num], ker.basis.den, nm),
            tuple(off + q for q in ker.pivot_rows),
        ))
    combined = Subspace(
        Mat.block([[s.basis] for s in per_point]),
        tuple(q for s in per_point for q in s.pivot_rows),
    )
    return per_point, combined


def subspace_Lprime(t: MatrixTuple, mu) -> Subspace:
    """Solutions supported on the infinity slots and the common residue
    slot: the kernel of the infinity block-Toeplitz system whose corner is
    the derived residue minus mu*I, embedded with v_0^{(i)} = -ell at every
    finite point.  The infinity slots come first in V', so the embedding
    keeps the kernel's reduced echelon form once each vector with its pivot
    in the ell block is negated and that pivot moved to the same place in
    slot (1, 0) (r = 0 drops those vectors): nothing is re-eliminated."""
    mu = as_scalar(mu)
    n = t.size
    nm = n * t.slot_count
    offs = _slot_offsets(t)
    cut = t.infinity.poincare_rank * n  # the infinity slots are 0..cut-1 of V'
    corner = t.residue_at_infinity() - Mat.diagonal([mu] * n)
    _, ker = rref_nullspace(block_upper_toeplitz(list(t.infinity.coeffs) + [corner]))
    vecs, pivots = [], []
    for q, col in zip(ker.pivot_rows, ker.basis.num):
        if q >= cut and not t.finite:
            continue
        v = list(col[:cut]) + [0] * (nm - cut)
        ell = [-x for x in col[cut:]]
        for i in range(1, t.num_finite + 1):
            v[offs[(i, 0)]:offs[(i, 0)] + n] = ell
        if q >= cut:
            v, q = [-x for x in v], offs[(1, 0)] + q - cut
        vecs.append(v)
        pivots.append(q)
    return Subspace(Mat.from_integers(vecs, ker.basis.den, nm), tuple(pivots))


def subspace_L(t: MatrixTuple, mu) -> Subspace:
    """L(mu): equal to L'(mu) for mu != 0; for mu = 0 the kernel of the
    single block row formed by all stored coefficients."""
    mu = as_scalar(mu)
    if mu != 0:
        return subspace_Lprime(t, mu)
    row = Mat.block([[t.coeff(i, j) for (i, j) in t.slots()]])
    _, ker = rref_nullspace(row)
    return ker


def middle_convolution(t: MatrixTuple, mu) -> MCOutcome:
    """Middle convolution with parameter mu.

    The quotient V'/(K + L(mu)) is realized on the coordinate subspace
    complementary to the (leftmost) pivot rows of the canonical basis of
    K + L(mu).  Any other complement changes the result only by
    simultaneous similarity.
    """
    per_point, big_k = subspace_K(t)
    return quotient(t, mu, per_point, big_k, subspace_L(t, mu))


def quotient(t: MatrixTuple, mu, per_point_K: list[Subspace], big_K: Subspace,
             big_L: Subspace) -> MCOutcome:
    """The middle convolution quotient for subspaces already built:
    `per_point_K` and `big_K` as returned by `subspace_K(t)`, and `big_L`
    equal to `subspace_L(t, mu)`."""
    conv = convolution_matrices(t, mu)
    w = big_K.sum(big_L)
    nm = t.size * t.slot_count
    new_size = nm - w.dim
    if new_size == 0:
        raise PreconditionError(
            "middle convolution quotient is zero-dimensional (degenerate input)"
        )

    pivot_set = set(w.pivot_rows)
    comp = [c for c in range(nm) if c not in pivot_set]
    # the nonzero entries of each b_p on the complement times e, the
    # denominator of the basis, by result row
    e = w.basis.den
    b_support = [(p, [(i, x) for i, c in enumerate(comp) if (x := b[c])])
                 for p, b in zip(w.pivot_rows, w.basis.num)]

    def quotient_matrix(big: Mat) -> Mat:
        """G[comp, comp] - sum over pivots p of b_p[comp] (x) G[p, comp],
        as integer rows over e times the denominator of G."""
        num, zero = big.num, [0] * new_size
        rows = [[e * g[c] for c in comp] if any(g := num[r]) else zero[:] for r in comp]
        for p, b_nz in b_support:
            if not b_nz:
                continue
            g = num[p]
            g_comp = [(j, x) for j, c in enumerate(comp) if (x := g[c])]
            for i, coef in b_nz:
                row = rows[i]
                for j, x in g_comp:
                    row[j] -= coef * x
        return Mat.from_integers(rows, e * big.den, new_size)

    def quotient_point(p: SingularPoint) -> SingularPoint:
        return SingularPoint(
            p.location, p.poincare_rank,
            tuple(quotient_matrix(a) for a in p.coeffs),
        )

    result = MatrixTuple(
        new_size,
        quotient_point(conv.infinity),
        tuple(quotient_point(p) for p in conv.finite),
    )

    return MCOutcome(
        result=result,
        dim_K=tuple(s.dim for s in per_point_K),
        dim_L=big_L.dim,
    )
