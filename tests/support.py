"""Shared test helpers: deterministic random generators and independent
oracles (kept deliberately naive and separate from the library's code
paths)."""

from __future__ import annotations

import random
from fractions import Fraction as F

from midconv.exactla import Mat, inverse
from midconv.model import MatrixTuple, SingularPoint, make_tuple

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
    """Integer matrix with determinant +-1, built from shear operations."""
    m = [[F(1) if i == j else F(0) for j in range(n)] for i in range(n)]
    for _ in range(2 * n + 2):
        i, j = r.randrange(n), r.randrange(n)
        if i != j:
            c = r.choice([-1, 1])
            for k in range(n):
                m[i][k] += c * m[j][k]
    return Mat(m)


def from_columns(cols, rows: int) -> Mat:
    """The rows x len(cols) matrix with the given columns."""
    return Mat([[c[i] for c in cols] for i in range(rows)]) if cols else Mat.zeros(rows, 0)


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
            cols.extend(ker.vectors)
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
