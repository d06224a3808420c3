"""Convolution matrices, the kernel subspaces and middle convolution.

The convolution of an n-dimensional tuple lives on V' = V^{oplus M} with
M the slot count.  Middle convolution with parameter mu is the induced
action on the quotient V'/(K + L(mu)); the quotient is realized on the
coordinate complement `comp` of the pivot rows of the canonical echelon
basis of K + L(mu), which makes the output fully deterministic.

Each basis vector b_p of that echelon basis is 1 at its pivot row p and 0
at every other pivot row, so each convolution matrix G induces

    Q = G[comp, comp] - sum over pivots p of b_p[comp] (x) G[p, comp]

on the quotient.  G has few nonzero rows (`_nonzero_rows`), and
`quotient` reads Q from them; only `convolution_matrices` (for `conv` and
the tests) lays G out as a dense nM x nM matrix.

G's rows are integers over one den, and the basis over one e, but each
Q is formed over its own f * den.  Row b_p is x / e_p on the complement,
e_p = e / g_p and x its integer entries there divided by g_p = gcd(e,
those entries); f is the lcm of e_p over the pivots p whose row of G is
nonzero on the complement (1 if none is), so G's rows times f, each band
entry f nu and each correction (f / e_p) coef x are all integers over
f * den.  That is the same rational matrix as over e * den, so its
normalised `Mat` is the same, with no copy of G's rows times e and no
second division by their content: where f = 1, Q takes the point's cut
block rows themselves, shared by its slots, and `tuplefile.encode`
formats each shared row once.

K is assembled canonically with no elimination of its own: each point's
Toeplitz kernel comes out of `toeplitz_kernel` in reduced echelon form,
one block row of n equations at a time, and shifting those kernels to
their consecutive slots and concatenating them in point order keeps that
form (`subspace_K`).  L'(mu) is the same kind of kernel at infinity, with
the derived residue minus mu as the corner block.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .errors import PreconditionError
from .exactla import Mat, Subspace, as_scalar, rref_nullspace, toeplitz_kernel
from .model import MatrixTuple


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


def _nonzero_rows(t: MatrixTuple, mu):
    """(den, nu, blocks, layout): the nonzero rows of the convolution
    matrices as integers over den, with nu = mu * den.  The n block rows of
    the G of slot (i, j), from row offs[(i, j)] on, are the coefficient rows
    plus nu in column (i, 0) when i != 0: blocks[i], shared by the slots of
    point i.  Its band rows (i, j') for j' > j hold nu in column (i, j' - j).
    layout is (i, offs[(i, j)], band) in slot order, band the (row, column)
    of each nu; for mu = 0 the band is empty."""
    mu = as_scalar(mu)
    n = t.size
    offs = _slot_offsets(t)
    dense = Mat.block([t.slot_coeffs()])
    den = lcm(dense.den, mu.denominator)
    rows = dense.num_over(den)
    nu = mu.numerator * (den // mu.denominator)
    blocks = {i: rows if i == 0 else [
        r[:c] + (r[c] + nu,) + r[c + 1:] for c, r in enumerate(rows, start=offs[(i, 0)])
    ] for i in dict.fromkeys(i for i, _ in offs)}
    layout = [(i, r0, [(offs[(i, jp)] + a, offs[(i, jp - j)] + a)
                       for jp in range(j + 1, t.point(i).poincare_rank + 1) for a in range(n)]
               if nu else [])
              for (i, j), r0 in offs.items()]
    return den, nu, blocks, layout


def convolution_matrices(t: MatrixTuple, mu) -> MatrixTuple:
    """The size-nM tuple of convolution matrices for parameter mu; its
    `slots()` are those of t and give the slot layout of V'.

    For each slot (i, j) the matrix has one dense block row at slot (i, j)
    containing the full coefficient row (with mu*I added in column (i, 0)
    when i != 0), a band of mu*I blocks at rows (i, j') for j' > j in
    columns (i, j'-j), and zeros elsewhere (see `_nonzero_rows`).
    """
    den, nu, blocks, layout = _nonzero_rows(t, mu)
    n, nm = t.size, t.size * t.slot_count
    zero = (0,) * nm
    mats = []
    for i, r0, band in layout:
        rows = [zero] * nm
        rows[r0:r0 + n] = blocks[i]
        for r, c in band:
            rows[r] = zero[:c] + (nu,) + zero[c + 1:]
        mats.append(Mat.from_integers(rows, den, nm))
    return t.with_slot_coeffs(mats, nm)


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
        ker = toeplitz_kernel(p.coeffs)
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
    ker = toeplitz_kernel(t.infinity.coeffs + (corner,))
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
    row = Mat.block([t.slot_coeffs()])
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
    equal to `subspace_L(t, mu)`.

    No dense G is built: a point's block rows are cut to the complement
    once for all its slots, a band row is one entry of Q, only pivots whose
    row of G is nonzero correct Q, and all-zero rows are one shared tuple.
    Each Q is formed over its own f * den (module docstring): a slot with
    f = 1 takes its point's cut block rows as they are, the same row
    objects in every such slot of the point, and only a slot with f > 1
    copies them, times f."""
    w = big_K.sum(big_L)
    nm = t.size * t.slot_count
    new_size = nm - w.dim
    if new_size == 0:
        raise PreconditionError(
            "middle convolution quotient is zero-dimensional (degenerate input)"
        )
    den, nu, blocks, layout = _nonzero_rows(t, mu)

    pivot_set = set(w.pivot_rows)
    comp = [c for c in range(nm) if c not in pivot_set]
    at = {c: k for k, c in enumerate(comp)}  # result index of each complement coordinate
    # each b_p with a nonzero entry on the complement as (p, e_p, its nonzero
    # (result index, x)): b_p[comp] = x / e_p, e_p dividing e
    e = w.basis.den
    b_support = []
    for p, b in zip(w.pivot_rows, w.basis.num):
        if any(xs := list(map(b.__getitem__, comp))):
            g = gcd(e, *xs)
            b_support.append((p, e // g, [(k, x // g) for k, x in enumerate(xs) if x]))
    n, zero = t.size, (0,) * new_size
    # each point's block rows on the complement, over den, and as (index, x)
    # where pivots fall: slots start at multiples of n, so row p of G is
    # block row p % n
    hit, cut, sparse = {p % n for p, *_ in b_support}, {}, {}
    for i, rows in blocks.items():
        cut[i] = [g if any(g) else zero for g in (tuple(map(r.__getitem__, comp)) for r in rows)]
        sparse[i] = {a: [(k, x) for k, x in enumerate(cut[i][a]) if x] for a in hit}

    def quotient_matrix(i: int, r0: int, band: list[tuple[int, int]]) -> Mat:
        """Q for the G of slot layout (i, r0, band), over f * den."""
        on_band = {r: [(j, nu)] for r, c in band if (j := at.get(c)) is not None}
        fixes = [(e_p, b_nz, g) for p, e_p, b_nz in b_support
                 if (g := sparse[i][p - r0] if 0 <= p - r0 < n else on_band.get(p))]
        f = lcm(*[fix[0] for fix in fixes])
        block = cut[i] if f == 1 else [g if g is zero else tuple([f * x for x in g])
                                       for g in cut[i]]
        rows = [zero] * new_size
        for r, row in enumerate(block, start=r0):
            if (k := at.get(r)) is not None:
                rows[k] = row
        for r, ((j, _),) in on_band.items():  # a band row's one entry on comp, f * nu
            if (k := at.get(r)) is not None:
                rows[k] = zero[:j] + (f * nu,) + zero[j + 1:]
        changed = {}
        for e_p, b_nz, g in fixes:
            s = f // e_p
            for k, coef in b_nz:
                if (row := changed.get(k)) is None:
                    row = changed[k] = list(rows[k])
                coef *= s
                for j, x in g:
                    row[j] -= coef * x
        for k, row in changed.items():
            rows[k] = row if any(row) else zero
        return Mat.from_integers(rows, f * den, new_size)

    return MCOutcome(
        result=t.with_slot_coeffs([quotient_matrix(*s) for s in layout], new_size),
        dim_K=tuple(s.dim for s in per_point_K),
        dim_L=big_L.dim,
    )
