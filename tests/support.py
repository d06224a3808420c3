"""Shared test helpers: deterministic random generators, independent
oracles (kept deliberately naive and separate from the library's code
paths), middle convolution checks built on the library (`predicted_size`,
`check_invariance`, `projection_section`) and `load_script` for the
scripts' own functions."""

from __future__ import annotations

import importlib.util
import random
from dataclasses import dataclass
from fractions import Fraction as F
from itertools import product
from pathlib import Path

from midconv.convolution import convolution_matrices, subspace_K, subspace_L, subspace_Lprime
from midconv.exactla import Mat, Subspace, as_scalar, det, inverse, rref_nullspace
from midconv.model import MatrixTuple, SingularPoint, make_tuple, strip_trivial

# ---------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------

def naive_rank(rows: list[list[F]]) -> int:
    """Plain division-based Gaussian elimination, row by row."""
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][col]
        rows[rank] = [x / pv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def fraction_free_rank(rows: list[list[F]]) -> int:
    """Fraction-free elimination by cross-multiplication with gcd
    normalization (distinct from single-step Bareiss division)."""
    from math import gcd

    scaled = []
    for r in rows:
        den = 1
        for x in r:
            den = den // gcd(den, x.denominator) * x.denominator
        scaled.append([int(x * den) for x in r])
    rows = scaled
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][col]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            if f:
                rows[i] = [pv * a - f * b for a, b in zip(rows[i], rows[rank])]
                g = 0
                for x in rows[i]:
                    g = gcd(g, x)
                if g > 1:
                    rows[i] = [x // g for x in rows[i]]
        rank += 1
    return rank


def charpoly_cofactor(m: Mat) -> list[F]:
    """det(xI - m) by recursive cofactor expansion over polynomial entries
    (lists of coefficients, low degree first)."""

    def padd(a, b):
        n = max(len(a), len(b))
        return [
            (a[i] if i < len(a) else F(0)) + (b[i] if i < len(b) else F(0))
            for i in range(n)
        ]

    def pmul(a, b):
        out = [F(0)] * (len(a) + len(b) - 1) if a and b else []
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    n = m.rows
    entries = [
        [
            padd([-m[i, j]], [F(0), F(1)] if i == j else [])
            for j in range(n)
        ]
        for i in range(n)
    ]

    def detp(rows, cols):
        if len(rows) == 1:
            return entries[rows[0]][cols[0]]
        acc = []
        for k, c in enumerate(cols):
            minor = detp(rows[1:], cols[:k] + cols[k + 1:])
            term = pmul(entries[rows[0]][c], minor)
            if k % 2:
                term = [-x for x in term]
            acc = padd(acc, term)
        return acc

    poly = detp(list(range(n)), list(range(n)))
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


def burnside_dim_naive(gens: list[Mat], n: int) -> int:
    """Dimension of the unital algebra generated by gens: words are grown
    breadth first with plain Fraction products on nested lists, a word is
    kept iff division-based elimination against the kept ones leaves a
    remainder, and naive_rank confirms the kept words are independent."""
    def prod(x, y):
        return [[sum((x[i][k] * y[k][j] for k in range(n)), F(0)) for j in range(n)]
                for i in range(n)]

    gens = [[list(r) for r in g.data] for g in gens]
    kept, echelon = [], []  # echelon: (pivot, remainder scaled to 1 there)
    frontier = [[[F(int(i == j)) for j in range(n)] for i in range(n)]] + gens
    while frontier:
        grown = []
        for w in frontier:
            v = sum(w, [])
            for pc, e in echelon:
                if c := v[pc]:
                    v = [a - c * b for a, b in zip(v, e)]
            pc = next((i for i, x in enumerate(v) if x), None)
            if pc is not None:
                echelon.append((pc, [x / v[pc] for x in v]))
                kept.append(w)
                grown.append(w)
        frontier = [prod(w, g) for w in grown for g in gens]
    assert naive_rank([sum(w, []) for w in kept]) == len(kept)
    return len(kept)


# ---------------------------------------------------------------------
# Middle convolution checks
# ---------------------------------------------------------------------

def predicted_size(t: MatrixTuple, mu) -> int:
    """Size of the middle convolution quotient, from subspace dimensions
    alone (for mu != 0 the kernel sum is direct)."""
    mu = as_scalar(mu)
    nm = t.size * t.slot_count
    _, big_k = subspace_K(t)
    if mu != 0:
        return nm - big_k.dim - subspace_Lprime(t, mu).dim
    return nm - big_k.sum(subspace_L(t, 0)).dim


def projection_section(t: MatrixTuple, mu) -> tuple[Mat, Mat]:
    """The coordinate complement on which `middle_convolution` realizes
    V'/(K + L(mu)): the coordinates off the pivot rows of the canonical
    basis b_p of K + L(mu).  `projection` (n~ x nM) sends e_c to e_c minus
    b_p[c] e_p over the pivots p, so it kills every b_p; `section`
    (nM x n~) includes the complement coordinates."""
    _, big_k = subspace_K(t)
    w = big_k.sum(subspace_L(t, as_scalar(mu)))
    nm = w.ambient_dim
    comp = [c for c in range(nm) if c not in w.pivot_rows]
    proj_rows = []
    for c in comp:
        row = [F(int(k == c)) for k in range(nm)]
        for p, b in zip(w.pivot_rows, w.basis.data):
            row[p] -= b[c]
        proj_rows.append(row)
    return Mat(proj_rows), Mat([[int(i == c) for c in comp] for i in range(nm)])


@dataclass(frozen=True)
class InvarianceReport:
    """Exact membership checks: does every convolution matrix map each of
    K, L(mu), L'(mu) into itself?  Any False here is a bug."""

    slots: tuple[tuple[int, int], ...]
    k_ok: tuple[bool, ...]
    l_ok: tuple[bool, ...]
    lprime_ok: tuple[bool, ...]

    @property
    def all_pass(self) -> bool:
        return all(self.k_ok) and all(self.l_ok) and all(self.lprime_ok)


def check_invariance(t: MatrixTuple, mu) -> InvarianceReport:
    """Verify the invariance of K, L(mu) and L'(mu) under every
    convolution matrix by exact membership tests."""
    mu = as_scalar(mu)
    conv = convolution_matrices(t, mu)
    _, big_k = subspace_K(t)
    big_l = subspace_L(t, mu)
    big_lp = subspace_Lprime(t, mu)
    slots = conv.slots()

    def stable(space: Subspace, big: Mat) -> bool:
        return all(contains(space, apply(big, v)) for v in space.basis.data)

    mats = [conv.coeff(i, j) for (i, j) in slots]
    return InvarianceReport(
        slots=tuple(slots),
        k_ok=tuple(stable(big_k, m) for m in mats),
        l_ok=tuple(stable(big_l, m) for m in mats),
        lprime_ok=tuple(stable(big_lp, m) for m in mats),
    )


def load_script(name: str):
    """The module scripts/<name>.py, imported from its file."""
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def kron(a: Mat, b: Mat) -> Mat:
    """Kronecker product with (X⊗Y)[a*n+c, b*m+d] = X[a,b]·Y[c,d]."""
    out = []
    for i in range(a.rows):
        for k in range(b.rows):
            row = []
            for j in range(a.cols):
                aij = a.data[i][j]
                row.extend(aij * y for y in b.data[k])
            out.append(row)
    return Mat(out)


def block_upper_toeplitz(coeffs) -> Mat:
    """The grid [[c0 c1 ... ck], [0 c0 ... c_{k-1}], ..., [0 ... 0 c0]] of
    square blocks c0, ..., ck of one size, assembled in full."""
    z = Mat.zeros(coeffs[0].rows, coeffs[0].rows)
    k = len(coeffs)
    return Mat.block([[coeffs[b - a] if b >= a else z for b in range(k)] for a in range(k)])


def centralizer_dim_dense(a: Mat) -> int:
    """dim{X : XA = AX} by direct entrywise assembly and naive rank."""
    n = a.rows
    rows = []
    for i in range(n):
        for j in range(n):
            row = [F(0)] * (n * n)
            for k in range(n):
                row[k * n + j] += a[i, k]       # (A X)[i,j] term X[k,j]
                row[i * n + k] -= a[k, j]       # (X A)[i,j] term X[i,k]
            rows.append(row)
    return n * n - naive_rank(rows)


def commutant_dim_dense(t: MatrixTuple, i: int) -> int:
    """Toeplitz commutant dimension by one flat dense system: unknowns
    C_m..C_0, equations sum_j [A_{m-j}, C_{m-k+j}] = 0 for k = 0..m."""
    coeffs = t.point_coeffs_with_residue(i)
    m = len(coeffs) - 1
    n = t.size
    unknowns = (m + 1) * n * n
    rows = []
    for k in range(m + 1):
        for a in range(n):
            for b in range(n):
                row = [F(0)] * unknowns
                for j in range(k + 1):
                    mat = coeffs[j]          # A_{m-j}
                    s_idx = k - j            # unknown C_{m-k+j}
                    base = s_idx * n * n
                    for c in range(n):
                        row[base + c * n + b] += mat[a, c]
                        row[base + a * n + c] -= mat[c, b]
                rows.append(row)
    return unknowns - naive_rank(rows)


def intertwiner_basis(a: MatrixTuple, b: MatrixTuple) -> list[Mat]:
    """The intertwiners S A = B S of the stripped pair as the canonical
    kernel of the relations on row-major S, assembled entry by entry: its
    basis vectors as n x n matrices.  For tuples of one size and skeleton,
    not all zero."""
    a, b = strip_trivial(a), strip_trivial(b)
    n = a.size
    rows = []
    for x, y in zip(a.slot_coeffs(), b.slot_coeffs()):
        for i in range(n):
            for j in range(n):
                row = [F(0)] * (n * n)
                for k in range(n):
                    row[k * n + j] += y[i, k]       # (B S)[i,j] term S[k,j]
                    row[i * n + k] -= x[k, j]       # (S A)[i,j] term S[i,k]
                rows.append(row)
    _, space = rref_nullspace(Mat(rows))
    return [Mat([row[k * n:(k + 1) * n] for k in range(n)]) for row in space.basis.data]


def similar_by_sweep(a: MatrixTuple, b: MatrixTuple) -> Mat | None:
    """Simultaneous similarity by the full grid sweep that `are_similar`
    ran before it read Hom dimensions and drew seeded points: the first
    invertible combination of `intertwiner_basis` with coefficients in
    {0..n}^d, by total and then lexicographically from the top, or None
    once every point is singular.  It decides `are_similar`'s answer on
    every pair, and its S only where the first point, the first basis
    vector, is invertible: past a singular one `are_similar` draws seeded
    points.  For tuples of one size and skeleton, not all zero; it sweeps
    (n + 1)^d points on a "no", so keep d small."""
    n = a.size
    if strip_trivial(a) == strip_trivial(b):
        return Mat.identity(n)
    basis = intertwiner_basis(a, b)
    grid = sorted(product(range(n + 1), repeat=len(basis)), key=lambda p: (sum(p), [-c for c in p]))
    for point in grid[1:]:
        s = sum((m.scaled(c) for c, m in zip(point, basis) if c), Mat.zeros(n, n))
        if det(s) != 0:
            return s
    return None


def convolution_oracle(t: MatrixTuple, mu: F) -> dict[tuple[int, int], Mat]:
    """Straight-from-definition convolution matrices: for each matrix and
    each output slot, apply the four-case rule for u in terms of v."""
    n = t.size
    slots = t.slots()
    z = Mat.zeros(n, n)
    eye = Mat.identity(n)
    out = {}
    for (i, j) in slots:
        grid = []
        for (ip, jp) in slots:
            row = []
            for (i2, j2) in slots:
                blk = z
                if ip == i and jp > j and (i2, j2) == (i, jp - j):
                    blk = blk + mu * eye
                if ip == i and jp == j:
                    blk = blk + t.coeff(i2, j2)
                    if i != 0 and (i2, j2) == (i, 0):
                        blk = blk + mu * eye
                row.append(blk)
            grid.append(row)
        out[(i, j)] = Mat.block(grid)
    return out


class FracMat:
    """Fraction oracle for `Mat`: a shape and nested lists of Fractions,
    with each operation written out entry by entry."""

    def __init__(self, rows: int, cols: int, entries):
        self.rows, self.cols = rows, cols
        self.e = [[F(x) for x in row] for row in entries]
        assert len(self.e) == rows and all(len(row) == cols for row in self.e)

    @staticmethod
    def of(m: Mat) -> "FracMat":
        """The entries of m, read one at a time through m[i, j]."""
        return FracMat(m.rows, m.cols, [[m[i, j] for j in range(m.cols)] for i in range(m.rows)])

    def mat(self) -> Mat:
        return Mat(self.e) if self.rows else Mat.zeros(0, self.cols)

    def __mul__(self, o: "FracMat") -> "FracMat":
        return FracMat(self.rows, o.cols, [
            [sum((self.e[i][k] * o.e[k][j] for k in range(self.cols)), F(0))
             for j in range(o.cols)] for i in range(self.rows)])

    def plus(self, o: "FracMat", sign: int) -> "FracMat":
        return FracMat(self.rows, self.cols, [
            [a + sign * b for a, b in zip(ra, rb)] for ra, rb in zip(self.e, o.e)])

    def scaled(self, s) -> "FracMat":
        return FracMat(self.rows, self.cols, [[s * x for x in row] for row in self.e])

    def transpose(self) -> "FracMat":
        return FracMat(self.cols, self.rows,
                       [[self.e[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def submatrix(self, ri, ci) -> "FracMat":
        return FracMat(len(ri), len(ci), [[self.e[i][j] for j in ci] for i in ri])

    @staticmethod
    def block(grid) -> "FracMat":
        """The blocks of each grid row side by side, the grid rows stacked."""
        rows = [sum((b.e[i] for b in brow), []) for brow in grid for i in range(brow[0].rows)]
        return FracMat(len(rows), sum(b.cols for b in grid[0]), rows)

    def trace(self) -> F:
        return sum((self.e[i][i] for i in range(self.rows)), F(0))

    def apply(self, v) -> list[F]:
        return [sum((a * x for a, x in zip(row, v)), F(0)) for row in self.e]

    def scalar_multiple_of_identity(self):
        c = self.e[0][0] if self.rows else F(0)
        ok = self.rows == self.cols and all(
            x == (c if i == j else 0) for i, row in enumerate(self.e) for j, x in enumerate(row))
        return c if ok else None


# ---------------------------------------------------------------------
# Deterministic random generators
# ---------------------------------------------------------------------

def rng(seed: int) -> random.Random:
    return random.Random(seed)


def rand_fraction(r: random.Random, num=3, den=(1, 2, 3)) -> F:
    return F(r.randint(-num, num), r.choice(den))


def rand_matrix(r: random.Random, n: int, pool=(-2, -1, 0, 1, 2)) -> Mat:
    return Mat([[F(r.choice(pool)) for _ in range(n)] for _ in range(n)])


def unimodular(r: random.Random, n: int) -> Mat:
    """Integer matrix with determinant +-1, built from shear operations.
    For n >= 2 it is never the identity: if the random shears cancel, one
    fixed shear (row 0 += row 1) is applied, which draws nothing from r."""
    m = [[F(1) if i == j else F(0) for j in range(n)] for i in range(n)]
    for _ in range(2 * n + 2):
        i, j = r.randrange(n), r.randrange(n)
        if i != j:
            c = r.choice([-1, 1])
            for k in range(n):
                m[i][k] += c * m[j][k]
    if n >= 2 and all(m[i][j] == (i == j) for i in range(n) for j in range(n)):
        m[0][1] = F(1)
    return Mat(m)


def from_columns(cols, rows: int) -> Mat:
    """The rows x len(cols) matrix with the given columns."""
    return Mat([[c[i] for c in cols] for i in range(rows)]) if cols else Mat.zeros(rows, 0)


def apply(m: Mat, v) -> list[F]:
    """The product m v as a list, entry by entry over m.data."""
    return [sum((a * x for a, x in zip(row, v)), F(0)) for row in m.data]


def contains(s: Subspace, v) -> bool:
    """Whether v lies in s: adding it to s leaves s unchanged."""
    return s.sum(Subspace.from_spanning([v], s.ambient_dim)) == s


def conjugated(t: MatrixTuple, p: Mat) -> MatrixTuple:
    """The tuple with every coefficient A replaced by p A p^-1."""
    pinv = inverse(p)

    def conj(pt: SingularPoint) -> SingularPoint:
        return SingularPoint(pt.location, pt.poincare_rank,
                             tuple(p * a * pinv for a in pt.coeffs))

    return make_tuple(t.size, conj(t.infinity), [conj(pt) for pt in t.finite])


def direct_sum(*blocks) -> Mat:
    """Block-diagonal matrix of square blocks, each a Mat or a list of rows."""
    blocks = [b if isinstance(b, Mat) else Mat(b) for b in blocks]
    n = sum(b.rows for b in blocks)
    rows, off = [], 0
    for b in blocks:
        rows += [[F(0)] * off + list(r) + [F(0)] * (n - off - b.rows) for r in b.data]
        off += b.rows
    return Mat(rows)


def sum_of_copies(k: int) -> MatrixTuple:
    """a^(+k): each slot of the irreducible 3 x 3 tuple
    rand_tuple(rng(3), 3, 2, [1, 0, 0]), k times on the diagonal."""
    a = rand_tuple(rng(3), 3, 2, [1, 0, 0])
    return a.with_slot_coeffs([direct_sum(*[x] * k) for x in a.slot_coeffs()], 3 * k)


def semisimple_rational(r: random.Random, n: int, pool=(-1, 0, 1, 2)) -> Mat:
    """P D P^{-1} with diagonal rational D and unimodular P."""
    p = unimodular(r, n)
    d = Mat.diagonal([F(r.choice(pool)) for _ in range(n)])
    return p * d * inverse(p)


def rand_tuple(r: random.Random, n: int, num_finite: int, ranks: list[int],
               pool=(-2, -1, 0, 1, 2)) -> MatrixTuple:
    """Random tuple with given size and Poincare ranks [m0, m1, ..., mr]."""
    inf = SingularPoint(None, ranks[0],
                        tuple(rand_matrix(r, n, pool) for _ in range(ranks[0])))
    fins = []
    for i in range(num_finite):
        m = ranks[i + 1]
        fins.append(
            SingularPoint(F(i), m,
                          tuple(rand_matrix(r, n, pool) for _ in range(m + 1)))
        )
    return make_tuple(n, inf, fins)


def rand_reducible_tuple(r: random.Random, n: int, num_finite: int,
                         pool=(-2, -1, 0, 1, 2)) -> MatrixTuple:
    """Random tuple (Poincare rank 1 at infinity, residues at the finite
    points) whose coefficients are block upper triangular for one split
    k + (n - k), so the span of e_1..e_k is invariant."""
    k = r.randint(1, n - 1)

    def tri() -> Mat:
        return Mat([[F(0) if i >= k > j else F(r.choice(pool)) for j in range(n)]
                    for i in range(n)])

    return make_tuple(n, SingularPoint(None, 1, (tri(),)),
                      [SingularPoint(F(i), 0, (tri(),)) for i in range(num_finite)])


def rand_semisimple_tuple(r: random.Random, n: int, num_finite: int,
                          ranks: list[int], lead_pool=(0, 1, 2, -1),
                          res_pool=(-2, -1, 0, 1, 2)) -> MatrixTuple:
    """Random tuple with ranks <= 1 and semisimple rational-spectrum
    leading coefficients (rank-1 slots)."""
    assert all(m <= 1 for m in ranks)
    inf_coeffs = (
        (semisimple_rational(r, n, lead_pool),) if ranks[0] == 1 else ()
    )
    inf = SingularPoint(None, ranks[0], inf_coeffs)
    fins = []
    for i in range(num_finite):
        m = ranks[i + 1]
        cs = ([semisimple_rational(r, n, lead_pool)] if m == 1 else [])
        cs.append(rand_matrix(r, n, res_pool))
        fins.append(SingularPoint(F(i), m, tuple(cs)))
    return make_tuple(n, inf, fins)


def nilpotent_tuple(r: random.Random, jordan: tuple[int, ...]) -> MatrixTuple:
    """A single-slot tuple (rank one at infinity, no finite point) whose
    coefficient is nilpotent with the given Jordan block sizes, in the
    basis of a unimodular matrix."""
    n = sum(jordan)
    starts = {sum(jordan[:k]) for k in range(len(jordan))}
    a = Mat([[F(int(j == i + 1 and j not in starts)) for j in range(n)] for i in range(n)])
    p = unimodular(r, n)
    return make_tuple(n, SingularPoint(None, 1, (p * a * inverse(p),)), [])


def forward_idx2_instances(seed: int, want: int, max_tries: int = 400,
                           max_size: int = 4) -> list[MatrixTuple]:
    """Irreducible index-2 instances built by running addition and middle
    convolution forward from rank-one seeds, filtered to the reduction
    algorithm's hypotheses (ranks <= 1, semisimple rational spectra)."""
    from midconv.convolution import middle_convolution
    from midconv.errors import PreconditionError
    from midconv.model import addition, spectral_type, strip_trivial
    from midconv.rigidity import index, is_irreducible

    r = rng(seed)
    out = []
    tries = 0
    while len(out) < want and tries < max_tries:
        tries += 1
        a = F(r.choice([1, -1, 2, -2]), r.choice([1, 2]))
        b = F(r.choice([1, -1, 2, 3]), r.choice([1, 2, 3]))
        t = make_tuple(
            1,
            SingularPoint(None, 1, (Mat([[a]]),)),
            [SingularPoint(F(0), 0, (Mat([[b]]),))],
        )
        ok = True
        for _ in range(r.choice([1, 2])):
            shift = [F(r.randint(-2, 2), r.choice([1, 2])) for _ in t.slots()]
            t = addition(t, shift)
            mu = F(r.choice([1, -1, 2, -2, 3]), r.choice([1, 2, 3]))
            try:
                t = strip_trivial(middle_convolution(t, mu).result)
            except PreconditionError:
                ok = False
                break
            if t.size > max_size:
                ok = False
                break
        if not ok or t.size < 2:
            continue
        if any(t.point(i).poincare_rank > 1 for i in range(t.num_points)):
            continue
        try:
            for i in range(t.num_points):
                spectral_type(t, i)
        except PreconditionError:
            continue
        if not is_irreducible(t):
            continue
        if index(t).index != 2:
            continue
        out.append(t)
    return out


def rand_L_block_point(r: random.Random, with_zero_block: bool = False,
                       max_blocks: int = 2):
    """Random rank-one pair (a1, a0) assembled from normal-form blocks,
    hidden behind a random basis change.

    Returns a dict with the pair, the closed-form commutant dimension
    sum_l (n_l^2 + sum_j q_{l,j}^2), and the kernel data (n1, n11) of the
    zero eigenvalue when with_zero_block is set.
    """
    from midconv.model import build_L

    k = r.randint(1, max_blocks)
    d_values = r.sample([0, 1, 2, -1, 3], k)
    if with_zero_block and 0 not in d_values:
        d_values[0] = 0
    q_choices = [[1], [2], [1, 1], [2, 1], [2, 2]]
    blocks = []
    for d in d_values:
        q = r.choice(q_choices)
        lam0 = r.choice([0, 1, -2]) if not (with_zero_block and d == 0) else 0
        if r.random() < 0.5:
            lams = [lam0] * len(q)
        else:
            lams = [lam0 + 3 * j for j in range(len(q))]
        blocks.append((d, q, lams, build_L(q, lams)))
    n = sum(sum(q) for _, q, _, _ in blocks)
    a1_rows = [[F(0)] * n for _ in range(n)]
    a0_rows = [[F(0)] * n for _ in range(n)]
    offs = []
    off = 0
    for d, q, lams, piece in blocks:
        sz = sum(q)
        offs.append((off, off + sz))
        for i in range(sz):
            a1_rows[off + i][off + i] = F(d)
            for j in range(sz):
                a0_rows[off + i][off + j] = piece[i, j]
        off += sz
    coupling = rand_matrix(r, n)
    for (lo1, hi1) in offs:
        for (lo2, hi2) in offs:
            if lo1 != lo2:
                for i in range(lo1, hi1):
                    for j in range(lo2, hi2):
                        a0_rows[i][j] = coupling[i, j]
    p = unimodular(r, n)
    pinv = inverse(p)
    closed = sum(
        sum(q) ** 2 + sum(x * x for x in q) for _, q, _, _ in blocks
    )
    n1 = n11 = 0
    for (d, q, lams, piece), (lo, hi) in zip(blocks, offs):
        if d == 0:
            n1 = hi - lo
            ker_rows = [[piece[i, j] for j in range(piece.cols)]
                        for i in range(piece.rows)]
            n11 = piece.rows - naive_rank(ker_rows)
    return {
        "a1": p * Mat(a1_rows) * pinv,
        "a0": p * Mat(a0_rows) * pinv,
        "n": n,
        "closed": closed,
        "n1": n1,
        "n11": n11,
    }


def prop43_instances(seed: int, want: int, max_tries: int = 300):
    """Irreducible instances with ranks <= 1 and semisimple rational
    leading coefficients, each with an eigenvalue-coincident convolution
    parameter (an eigenvalue of the compressed block at infinity over a
    simple zero eigenvalue of the leading coefficient)."""
    from midconv.exactla import rational_spectrum, rref_nullspace
    from midconv.model import SingularPoint, make_tuple
    from midconv.rigidity import is_irreducible

    r = rng(seed)
    out = []
    tries = 0
    while len(out) < want and tries < max_tries:
        tries += 1
        n = r.choice([2, 2, 3, 3, 4])
        num_f = 1 if n >= 3 else r.choice([1, 2])
        p = unimodular(r, n)
        rest = [r.choice([1, 2, -1, 3]) for _ in range(n - 1)]
        a1_inf = p * Mat.diagonal([0] + rest) * inverse(p)
        inf = SingularPoint(None, 1, (a1_inf,))
        fins = []
        for i in range(num_f):
            m = r.choice([0, 1])
            cs = ([semisimple_rational(r, n, (0, 1, -1, 2))] if m else [])
            cs.append(rand_matrix(r, n))
            fins.append(SingularPoint(F(i), m, tuple(cs)))
        t = make_tuple(n, inf, fins)
        if not is_irreducible(t):
            continue
        # compressed entry of the derived residue over the zero eigenvector
        spec, full = rational_spectrum(a1_inf)
        assert full
        cols = []
        zero_pos = None
        pos = 0
        for lam, mult in sorted(spec):
            _, ker = rref_nullspace(a1_inf - Mat.diagonal([lam] * n))
            if lam == 0:
                zero_pos = pos
            cols.extend(ker.basis.data)
            pos += mult
        basis = from_columns(cols, n)
        compressed = inverse(basis) * t.residue_at_infinity() * basis
        coincident = compressed[zero_pos, zero_pos]
        mus = [coincident]
        for extra in (F(1), F(5, 3), F(-1, 2), F(2)):
            if len(mus) == 3:
                break
            if extra not in mus:
                mus.append(extra)
        out.append((t, mus))
    return out
