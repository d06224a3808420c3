"""Commutant dimensions, index of rigidity, irreducibility, similarity.

The index of a tuple is  sum_i dim C^(i) - (M-1) n^2  where C^(i) is the
space of block-Toeplitz matrices commuting with the point's block-Toeplitz
coefficient matrix (the derived residue enters at infinity).  Commutant
dimensions are exact; the closed formula in terms of multiplicity
patterns is only a cross-check, as it assumes semisimplicity.

One recursion on [A_m, ..., A_0] computes them, by the first of five
rules that applies; a block cut by rule 5 goes through the same rules.

1. A scalar A_m drops out: n^2 plus the dimension for [A_{m-1}, ..., A_0].
2. A cyclic lead A_m gives n (m + 1).  The relations say that C(z)
   commutes with A(z) = A_m + A_{m-1} z + ... + A_0 z^m over the local
   ring R = Q[z]/z^(m+1); the Krylov matrix of A(z) at a cyclic vector v
   of A_m is invertible over R as it is K(A_m, v) mod z (Nakayama), so v
   is cyclic for A(z) and the centralizer is R[A(z)], free of rank n over
   R (for m = 0, Z(A) = Q[A]; Gantmacher, The Theory of Matrices I,
   Ch. VIII).  The lead is cyclic if the spin of e_1, or else of the
   all-ones vector, under it is full (`spin_dim`), or if its
   characteristic polynomial is square-free (n distinct roots,
   `distinct_root_count`, read off the spectrum's Sturm chain), which
   certifies a cyclic vector where both of those fail.
3. A single matrix (m = 0) whose non-rational roots are simple is
   Frobenius's, from its Jordan data alone (`jordan_data`, ranks only; no
   split, space or inverse): dim Z(A) is the sum over the eigenvalues of
   sum p_i^2 over the conjugate p of the eigenvalue's Jordan partition, so
   each simple root adds 1.
4. For m >= 2, or a primary lead (one rational eigenvalue and no other
   root, or no rational eigenvalue: one component, read off the
   `rational_spectrum` kept on the lead), it is the nullity of the coupled
   relations, each a Sylvester operator X -> aX - Xb on row-major X with
   a = b (`_sylvester`, 2n - 1 nonzeros per row, built entry by entry; it
   serves commutants only).  m >= 2 is not split: the off-diagonal blocks
   of C_{m-1} need not vanish, and A_{m-1} multiplies them into the
   diagonal blocks of the relation for k = 2.
5. Otherwise (m <= 1 and several primary components) it is the sum of the
   recursion over the components, on each one's diagonal blocks of the
   coefficients (`primary_components`).  A block's lead is primary, so it
   is not split again.

The intertwiners S A_j = B_j S of `are_similar` come from a standard basis
of the module of `a` (Parker 1984; Holt, Eick and O'Brien, Handbook of
Computational Group Theory, 2005, ch. 7).  With d_j the lcm of the
denominators of A_j and B_j, x_j = d_j A_j and y_j = d_j B_j, `spin_basis`
spins e_1 under the x_j and, while the spin is short, the first e_s outside
it: n words w_i, a basis W, each a start vector (g of them; g = 1 for an
irreducible `a`) or x_j w_k for an earlier word.  S w_i = U_i(u) is the
same word in the y_j applied to the image u_k of its start vector, so
S = U(u) W^-1, which intertwines iff y_j U_i = U W^-1 x_j w_i for each
x_j w_i that is no word.  So the u form a space Z, cut from Q^(g n) one relation at
a time: not at all if its columns are zero, else by a kernel of n rows and
dim Z columns, or to 0 if dim Z = 1.  The U(z) W^-1 of a basis of Z span
the intertwiners; their RREF is the canonical kernel of the stacked
Sylvester operators S -> B S - S A.

`are_similar` looks for an invertible S among the combinations
S_c = sum c_i S_i of that basis.  Its first point is the first basis vector,
at one determinant; an irreducible `a` always answers there (Schur), and so
does every pair that answered there before the draws below, with the same
S and the same bytes.  If it is singular, dim End(a), dim Hom(a, b) and
dim End(b) are read: they are similarity invariants, so one that differs is
an exact "no"; equal ones make a and b similar over the algebraic closure
(Byrnes and Gauger, Linear Multilinear Algebra 1977; Friedland, Adv. Math.
1983), hence over Q (Noether-Deuring), so det S_c is a nonzero polynomial
of degree n in c.  A c drawn uniformly from [0, 2^k)^d with 2^k > 2n is
then a root with probability at most n / 2^k < 1/2 (Schwartz 1980; Zippel
1979).  At most 64 such draws come from a fixed-seed random.Random, so the
same pair gets the same S on every run, each certified by the exact
determinant; 64 singular draws despite equal dimensions are an
InternalError.

`is_irreducible` decides by Norton's test (Parker 1984; Holt and Rees
1994) when it can, in O(k n^3) for k generators.  It takes the first
non-scalar generator theta with a rational eigenvalue lam whose eigenspace
ker(theta - lam) is a line, spanned by v, and w spanning ker(theta^T - lam),
and spins v under the generators and w under their transposes (scalar
generators cannot enlarge a spin and are skipped).  A proper spin is an
invariant subspace of M = Q^n or of its dual, so the answer is "no".  If
both spins are full, M is irreducible (Norton's lemma), so End(M) is a
division algebra D; ker(theta - lam) is a D-space of Q-dimension 1, so
D = Q, and by density the algebra is M_n(Q): "yes", exactly Burnside's
answer.

With no such lam (the rotation [[0, -1], [1, 0]]; every multiplicity 2
or more), it spins the Burnside words mod p (`spin`: 1 and the generators,
then w g for each word w taken and each generator g), for the first
`_prime(k)` dividing no denominator of a generator: every word is then
p-integral.  n^2 words independent mod p are independent over Q, since a
Q-relation scaled to p-integral coefficients, one a p-unit, would reduce
to a relation mod p.  So a full span mod p certifies "yes".  A short one
proves nothing ([[0, 3p], [1, 0]] and [[0, -p], [1, 0]] generate M_2(Q)
but are both nilpotent mod p), so then the same spin over Q decides.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from functools import partial
from itertools import chain, product
from math import lcm

from .errors import InternalError, PreconditionError
from .exactla import (
    IncrementalSpan,
    Mat,
    Subspace,
    conjugate_partition,
    det,
    distinct_root_count,
    inverse,
    is_semisimple,
    jordan_data,
    primary_components,
    rational_spectrum,
    reduce_mod_prime,
    rref_nullspace,
    spin,
    spin_basis,
    spin_dim,
    toeplitz_kernel,
)
from .model import MatrixTuple, SpectralType, block_weight, semisimple_eigenspaces, strip_trivial


def _sylvester(a: Mat, b: Mat) -> Mat:
    """Matrix of X -> aX - Xb on row-major vectorized n x n X, built entry
    by entry: row i*n+j holds a[i, k] at k*n+j and -b[k, j] at i*n+k,
    over the lcm of the denominators of a and b."""
    n = a.rows
    den = lcm(a.den, b.den)
    an = a.num_over(den)
    bt = [[-x for x in c] for c in zip(*b.num_over(den))]  # minus the columns of b
    rows = []
    for i, ai in enumerate(an):
        for j, bj in enumerate(bt):
            row = [0] * (n * n)
            row[i * n:(i + 1) * n] = bj
            row[j::n] = ai
            row[i * n + j] = ai[i] + bj[j]
            rows.append(row)
    return Mat.from_integers(rows, den, n * n)


def _toeplitz_commutant_dim(coeffs: list[Mat]) -> int:
    """Nullity of the block grid of commutator relations that defines
    `commutant_dim`, for coeffs = [A_m, ..., A_0]: block (k, s), for the
    unknown C_{m-s}, is ad A_{m-k+s} if k >= s ([[ad A_1, 0], [ad A_0,
    ad A_1]] at m = 1); reversed in block rows and columns, which keeps
    the nullity, the grid is block upper-Toeplitz."""
    return toeplitz_kernel([_sylvester(a, a) for a in coeffs]).dim


def _commutant_dim(coeffs: list[Mat]) -> int:
    """Commutant dimension of [A_m, ..., A_0] by the five rules of the
    module docstring."""
    if not coeffs:
        return 0
    lead, n = coeffs[0], coeffs[0].rows
    if lead.scalar_multiple_of_identity() is not None:
        return n * n + _commutant_dim(coeffs[1:])
    if any(spin_dim(v, [lead]) == n for v in ([1] + [0] * (n - 1), [1] * n)) \
            or distinct_root_count(lead) == n:
        return n * len(coeffs)
    if len(coeffs) == 1:  # Frobenius, if the non-rational roots are simple
        eigs, _ = jordan_data(lead)
        rest = n - sum(mult for _, mult, _ in eigs)
        if distinct_root_count(lead) - len(eigs) == rest:
            return rest + sum(p * p for *_, part in eigs for p in conjugate_partition(part))
    if len(coeffs) <= 2:
        spec, full = rational_spectrum(lead)
        if len(spec) + (not full) > 1:  # several primary components
            return sum(_commutant_dim(list(blocks))
                       for *_, blocks in primary_components(lead, *coeffs))
    return _toeplitz_commutant_dim(coeffs)


def centralizer_dim(a: Mat) -> int:
    """dim{X : Xa = aX}: n if a is non-scalar with a cyclic vector."""
    return _commutant_dim([a])


def commutant_dim(t: MatrixTuple, i: int) -> int:
    """Dimension of the commutant of point i's block-Toeplitz coefficient
    matrix: the exact solution space of the coupled commutator relations
    sum_{j=0}^{k} [A_{m-j}, C_{m-k+j}] = 0  for k = 0..m (module docstring).

    For i = 0 the relations include the derived residue.
    """
    return _commutant_dim(t.point_coeffs_with_residue(i))  # A_m, ..., A_0


@dataclass(frozen=True)
class RigidityReport:
    """Per-point commutant dimensions, local indices and the global index;
    the identity  index = sum(local) + 2 n^2  holds on every report."""

    n: int
    r: int
    M: int
    commutant_dims: tuple[int, ...]
    local_indices: tuple[int, ...]
    index: int


def local_index(t: MatrixTuple, i: int) -> int:
    """dim C^(i) - (m_i + 1) n^2."""
    m_i = t.point(i).poincare_rank
    return commutant_dim(t, i) - (m_i + 1) * t.size * t.size


def index(t: MatrixTuple) -> RigidityReport:
    """Global index of rigidity with its per-point breakdown."""
    n = t.size
    dims = tuple(commutant_dim(t, i) for i in range(t.num_points))
    locs = tuple(
        d - (t.point(i).poincare_rank + 1) * n * n for i, d in enumerate(dims)
    )
    m_total = t.slot_count
    idx = sum(dims) - (m_total - 1) * n * n
    if idx != sum(locs) + 2 * n * n:
        raise InternalError(f"index {idx} is not sum(local) + 2 n^2 = {sum(locs) + 2 * n * n}")
    return RigidityReport(
        n=n, r=t.num_finite, M=m_total,
        commutant_dims=dims, local_indices=locs, index=idx,
    )


def index_from_spectral(types: list[SpectralType], r: int, n: int) -> int:
    """Index of rigidity from multiplicity patterns alone:
    sum over points and blocks of (n_l^2 + sum of squared parts) - 2 r n^2."""
    if len(types) != r + 1:
        raise PreconditionError(f"expected {r + 1} spectral types, got {len(types)}")
    if any(st.size != n for st in types):
        raise PreconditionError("spectral type size differs from n")
    weight = sum(block_weight(nl, parts) for st in types for nl, parts in st.pattern())
    return weight - 2 * r * n * n


def okubo_index(t_mat: Mat, a_mat: Mat) -> int:
    """Index of rigidity of an Okubo normal form (zI - T) dPsi/dz = A Psi:
    sum_j (n_j^2 + dim Z(A^[j,j])) + dim Z(A) - n^2, with every centralizer
    dimension exact (`centralizer_dim`)."""
    if not t_mat.is_square() or not a_mat.is_square() or t_mat.rows != a_mat.rows:
        raise PreconditionError("T and A must be square of equal size")
    eig = semisimple_eigenspaces(t_mat, "T is not semisimple",
                                 "T does not have a fully rational spectrum", a_mat)
    if not is_semisimple(a_mat):
        raise PreconditionError("A is not semisimple")
    n = t_mat.rows
    total = centralizer_dim(a_mat) - n * n
    for _, _, (blk,) in eig:
        if not is_semisimple(blk):
            raise PreconditionError("a diagonal block of A is not semisimple")
        total += blk.rows * blk.rows + centralizer_dim(blk)
    return total


def _spans_mod_p(gens: list[Mat], n: int) -> bool:
    """Whether the words in gens span n^2 dimensions mod p (module docstring)."""
    p, mods = reduce_mod_prime(gens)
    rows = []  # (pivot, row): 1 there and 0 at the pivots of earlier rows

    def add(w: list[list[int]]) -> bool:
        v = [x for r in w for x in r]
        for pc, r in rows:
            if c := v[pc] % p:
                v = [a - c * b for a, b in zip(v, r)]
        v = [a % p for a in v]
        if (piv := next((i for i, x in enumerate(v) if x), None)) is not None:
            inv = pow(v[piv], -1, p)
            rows.append((piv, [x * inv % p for x in v]))
        return piv is not None

    def times(cols: list[tuple[int, ...]], x: list[list[int]]) -> list[list[int]]:
        return [[sum(map(operator.mul, xr, c)) % p for c in cols] for xr in x]

    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    ops = [partial(times, list(zip(*g))) for g in mods]
    return len(spin([eye] + mods, ops, add, n * n)) == n * n


def _norton(gens: list[Mat], n: int) -> bool | None:
    """Norton's answer (module docstring), or None if no non-scalar
    generator has a rational eigenvalue with a one-dimensional eigenspace."""
    mats = [g for g in gens if g.scalar_multiple_of_identity() is None]
    for theta in mats:
        for lam, _ in sorted(rational_spectrum(theta)[0], key=lambda e: e[1]):
            shifted = theta - Mat.diagonal([lam] * n)
            _, ker = rref_nullspace(shifted)
            if ker.dim == 1:
                _, coker = rref_nullspace(shifted.transpose())
                return spin_dim(ker.basis.num[0], mats) == n \
                    and spin_dim(coker.basis.num[0], [g.transpose() for g in mats]) == n
    return None


def is_irreducible(t: MatrixTuple) -> bool:
    """Absolute irreducibility by the Burnside criterion: the unital
    algebra generated by all coefficients (including the derived residue)
    has dimension n^2.  Norton's test decides when a generator has a
    rational eigenvalue with a one-dimensional eigenspace; otherwise a full
    span mod p certifies "yes", and every other answer is the exact
    span's (see the module docstring)."""
    n = t.size
    if n == 1:
        return True
    gens = t.all_coeffs_with_residue()
    if (answer := _norton(gens, n)) is not None:
        return answer
    if _spans_mod_p(gens, n):
        return True
    span = IncrementalSpan()
    words = spin([Mat.identity(n)] + gens, [lambda x, g=g: x * g for g in gens],
                 lambda m: span.add(list(chain.from_iterable(m.num))), n * n)
    return len(words) == n * n


def _intertwiners(pairs: list[tuple[Mat, Mat]], n: int) -> Subspace:
    """The row-major S with S A = B S for every (A, B) in pairs, as U(u) W^-1
    for the spin basis W of the A (module docstring)."""
    xs = [x.num_over(lcm(x.den, y.den)) for x, y in pairs]
    ys = [y.num_over(lcm(x.den, y.den)) for x, y in pairs]
    words = spin_basis(xs, n)
    winv = inverse(Mat.from_integers([w for *_, w in words]).transpose())

    def times(m, v: list[int]) -> list[int]:
        return [sum(map(operator.mul, row, v)) for row in m]

    def images(u: list[int]) -> list[list[int]]:
        """U(u): y_j U_i for the word x_j w_i, u's s-th block for the s-th start."""
        cols, blocks = [], iter(u[s:s + n] for s in range(0, len(u), n))
        for j, i, _ in words:
            cols.append(next(blocks) if j is None else times(ys[j], cols[i]))
        return cols

    gn = n * sum(j is None for j, *_ in words)
    zs = [[int(r == s) for r in range(gn)] for s in range(gn)]  # a basis of Z, integral
    uss = [images(z) for z in zs]
    # y_j U_i = U t for t = W^-1 x_j w_i, for each x_j w_i that is no word
    taken = {(j, i) for j, i, _ in words}
    for (i, (*_, w)), (j, x) in product(enumerate(words), enumerate(xs)):
        if (j, i) in taken:
            continue
        t = times(winv.num, times(x, w))  # over winv.den
        cols = [[winv.den * e - sum(map(operator.mul, t, es))
                 for e, es in zip(times(ys[j], us[i]), zip(*us))] for us in uss]
        if not any(map(any, cols)):  # every z meets it
            continue
        if len(zs) == 1:  # one column, not zero: no z meets it
            return Subspace.zero(n * n)
        _, ker = rref_nullspace(Mat.from_integers(zip(*cols), 1, len(zs)))
        if not ker.dim:
            return Subspace.zero(n * n)
        zs = [[sum(map(operator.mul, k, es)) for es in zip(*zs)] for k in ker.basis.num]
        uss = [images(z) for z in zs]
    # S = U W^-1, whose row r is sum_i U[r, i] (row i of W^-1)
    winv_cols = list(zip(*winv.num))
    return Subspace.from_spanning(
        [[sum(map(operator.mul, es, col)) for es in zip(*us) for col in winv_cols]
         for us in uss], n * n)


def are_similar(a: MatrixTuple, b: MatrixTuple) -> Mat | None:
    """Search for an invertible S with S A_j^(i) = B_j^(i) S for all slots.

    The intertwiner space is exact and canonical (its RREF), from the spin
    basis of the module of `a` (module docstring).  The first point is the
    first basis vector, one determinant.  If `a` is irreducible, every
    intertwiner S != 0 is invertible (Schur: ker S is a submodule of `a`),
    so it answers there.  If that point is singular, dim End(a) and then
    dim End(b) are read, and the first that differs from dim Hom(a, b)
    answers "no"; if neither does, a and b are similar (module docstring),
    and seeded combinations of the basis are drawn until one has a nonzero
    determinant, at most 64 of them, each singular with probability below
    1/2.  Two tuples with every coefficient zero are similar by S = I; a
    zero tuple and a nonzero one have different skeletons once stripped.
    """
    if a.size != b.size:
        raise PreconditionError("tuples have different sizes")
    n = a.size
    # a tuple with every coefficient zero strips to no slot at all
    zero_a, zero_b = (all(map(Mat.is_zero, t.slot_coeffs())) for t in (a, b))
    if zero_a or zero_b:
        if zero_a != zero_b:
            raise PreconditionError("tuples have different singularity skeletons")
        return Mat.identity(n)
    a = strip_trivial(a)
    b = strip_trivial(b)
    if [p.poincare_rank for p in a.points] != [p.poincare_rank for p in b.points]:
        raise PreconditionError("tuples have different singularity skeletons")
    if a == b:
        return Mat.identity(n)
    pairs = list(zip(a.slot_coeffs(), b.slot_coeffs()))
    space = _intertwiners(pairs, n)
    d = space.dim
    if d == 0:
        return None

    def point(cs: list[int]) -> Mat:
        """sum_i cs[i] times the i-th basis vector, as an n x n matrix."""
        v = [sum(map(operator.mul, cs, col)) for col in zip(*space.basis.num)]
        return Mat.from_integers([v[k * n:(k + 1) * n] for k in range(n)], space.basis.den, n)

    if det(s := point([1] + [0] * (d - 1))) != 0:
        return s
    # End(a), then End(b) only if End(a) has dimension d
    if any(_intertwiners(hom, n).dim != d
           for hom in ([(x, x) for x, _ in pairs], [(y, y) for _, y in pairs])):
        return None
    # getrandbits only: randrange's output is not the same on every Python
    draws, bits = random.Random(0), (2 * n).bit_length()
    for _ in range(64):
        if det(s := point([draws.getrandbits(bits) for _ in range(d)])) != 0:
            return s
    raise InternalError(f"no invertible intertwiner in 64 seeded draws, although "
                        f"End(a), Hom(a, b) and End(b) all have dimension {d}")
