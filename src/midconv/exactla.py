"""Exact dense linear algebra over the rationals.

A `Mat` is immutable: integer rows `num` over one positive denominator
`den`, normalised so that gcd(den, every numerator) = 1 (den = 1 for a
zero matrix).  This form is unique, so equality and hashing are
structural, and products, sums and blocks are integer work with one gcd
per matrix.  No floating point appears anywhere.  One elimination kernel,
`_echelon`, runs a fraction-free (Bareiss) forward pass on integer rows,
which keeps intermediate entries at determinant-minor size.  `rank` and
`det` read its output directly, and `_kernel` (behind `rref_nullspace` and
`toeplitz_kernel`) back-substitutes on it once per kernel vector.  One
loop, `_reduce`, clears an integer vector v at stored (pivot pc, row)
pairs: p v - v[pc] row for p = row[pc], over its content, wherever v[pc]
!= 0.  `_rref` runs it on each echelon row against the rows below it
(zero at every pivot but their own), and `_over_lcm` puts rows over the
lcm of their pivot entries for `inverse` and `Subspace.from_spanning` /
`.sum` to normalise once.  `Fraction`s are scalars only (`m[i, j]`,
eigenvalues, determinants); every basis is a `Mat`.

One loop, `spin`, grows a spin: the smallest subspace that holds a start
set and is mapped into itself by some operators.  Every spin reads the
integer rows num = den A, by one product, `times`: scaling by den moves no
span over Q, nor mod a prime dividing no den.  Norton's test (`spin_dim`),
the standard basis of a module (`spin_basis`) and the exact Burnside word
span each grow an `IncrementalSpan` (`_reduce` plus append); the span mod
p keeps its own rows over F_p, of `reduce_mod_prime`'s num mod p.

`charpoly` is multi-modular and certified.  With d_i the lcm of the
denominators of row i of A, B = diag(d) A is integral and, for D = prod d_i,
each D e_k(A) = sum_{|S|=k} prod_{i not in S} d_i det B_S is an integer.
Hadamard's bound on each det B_S, summed over S, gives |D e_k(A)| <=
prod_i (rho_i + d_i) with rho_i = isqrt(|row_i B|^2) + 1.  So r = D det(xI
- A) is computed mod primes below 2^62 dividing no d_i (Hessenberg form)
and combined by CRT until the modulus exceeds twice that bound; the
symmetric lift stays integral (`_charpoly_residues`), its x^(n-1) term is
checked as r_(n-1) den = -D tr(num), A = num / den; `charpoly` is r / D.

Spectra run on one integer polynomial, q(y) = det(yI - dA) for d = den,
monic, so its rational roots are integers (`_scaled_charpoly`): for n = 2
and 3 the cofactor expansion of dA = num, else the exact integer quotients
q_i = r_i d^(n-i) / D (a remainder is an InternalError).  One
pseudo-division, `_pdivmod` (c a = quo b + rem, c a positive integer, so
signs are kept), gives its primitive Sturm remainder sequence (q, q' and
each -rem, made primitive), which ends in g = gcd(q, q') up to a constant,
and then the square-free part s = q / g.  Away from the roots of q,
dividing the sequence by g changes no sign variation and leaves the Sturm
chain of s, so distinct roots are counted.  If deg s <= 2, its integer
roots come in closed form (`_small_roots`).  Else the chain is read at
half-integers c + 1/2 (never roots of q), as the integers 2^deg(p)
p((2c + 1)/2): each member is stored once, highest coefficient first with
the j-th times 2^j, so one Horner loop at 2c + 1 per member counts the sign
variations (`_variations`), and bisection stops at unit intervals:
irrational roots are never separated.  Deflating q by synthetic division at
each candidate while it is a root checks it and gives its multiplicity.
`_spectrum` keeps one record on the `Mat`, in a slot that equality and
hashing ignore (a `Mat` is immutable, so it never goes stale): the rational
eigenvalues with multiplicities, whether they are all
(`rational_spectrum`), deg s = n - deg g, the number of distinct complex
eigenvalues (`distinct_root_count`; n iff q is square-free, so that A is
cyclic), and (d, s).  A is semisimple iff s annihilates dA, which
`is_semisimple` tests on the kept s.

`primary_components` is the one split by eigenvalue: for each rational
lam one kernel chain (`_kernel_chain`), the kernels of (A - lam)^k until
their dimensions stop growing, gives lam's Jordan partition and, as its
last kernel, the generalized eigenspace.  `jordan_data` (every rational
eigenvalue) and `jordan_partition` (one) need only the partitions, so
they read each nullity as n - `rank`, `_echelon`'s forward pass, with
no back substitution and no `Subspace`; a simple eigenvalue is the block
(1,) with no elimination at all.  Further matrices B come back cut into
their diagonal blocks in the basis P that concatenates the components'
bases (rows of P^-1 times columns of B P); one component has P = I, so its
blocks are the matrices themselves.  m leaves each component's space s
invariant, so with P_s the columns of P that are its RREF basis, m P_s =
P_s B_s, and as P_s is the identity at s's pivots, m's own block B_s is m's
rows there times P_s: P is inverted only to cut a matrix other than m.  B_s
is lam I, with no product, if lam's Jordan blocks are all 1 x 1, and every
rational B_s keeps its one root's record and partition (`_one_root`), as a
scalar lam I does, so its `jordan_data` runs no kernel chain.

A `Subspace` is its reduced row echelon basis: the rows of the `Mat`
`basis` with leftmost pivots `pivot_rows`.  This representative is unique
(and, as a normalised `Mat`, so are its integer rows over one denominator),
so two subspaces are equal iff their fields are, and all downstream
tie-breaking (quotient complements, canonical kernels) is deterministic.

`Subspace.sum` keeps the left summand's echelon rows.  `_reduce` clears
the right summand's rows at the left pivots (a left row is 0 at every
other left pivot, so the order does not matter), `_rref` of the nonzero
remainders gives the new rows, 0 at every left pivot, and `_reduce`
clears each left row at the new pivots.  A left row is nonzero at a new
pivot only right of its own pivot, so it stays 0 left of it, and the rows
merged by pivot over one denominator are the canonical RREF of the sum:
K + L(mu), say, costs the dim L(mu) rows, not K again.

`_kernel` builds that basis of a kernel from one forward
elimination of the columns of m in reverse order.  A kernel vector is
fixed by its free coordinates, so let v_f be the one that is 1 at the free
column f and 0 at every other.  In the reversed columns, the echelon rows
whose pivot lies right of f are zero at f and left of their pivots, so v_f
is 0 at those pivots: f is its leftmost nonzero in the original order, and
taken in order of f these vectors are the kernel's RREF, which is unique.
The rows left of f are solved by back substitution from x_f = |d|, d the
last Bareiss pivot.  By Cramer's rule |d| v_f is integral, as d is +- the
r x r minor of the pivot rows and columns, so every division is exact (a
remainder is an InternalError), and one `Mat.from_integers` normalises
the vectors over |d|.  That costs dim ker * r^2 steps on top of the
forward pass, against r^2 c for a full back-reduction.

`toeplitz_kernel` finds the canonical kernel of the block upper-Toeplitz
grid T_k of square n x n blocks c_0, ..., c_k without building it.  T_k =
[[c_0, (c_1 ... c_k)], [0, T_{k-1}]] with T_{k-1} the grid of c_0, ...,
c_{k-1}, so with Y the RREF basis of ker T_{k-1} (r rows), ker T_k is the
image of the kernel of the n x (n + r) matrix [c_0 | (c_1 ... c_k) Y^T]
under (x, c) -> (x, Y^T c), which is injective.  That map takes the RREF
of the small kernel to the RREF of ker T_k, pivot p < n to p and pivot
n + j to n + (Y's j-th pivot), with nothing re-eliminated: Y's row j is 1
at its pivot q_j, 0 at every other pivot and left of q_j, so (Y^T c)[q_j]
= c_j, and the leftmost nonzero of Y^T c for c that is 0 before j and 1
at j is a 1 at q_j.  A vector with pivot p < n keeps it, and is 0 at each
moved pivot n + q_j as its c_j is 0; one with pivot n + j has x = 0, a 1
at n + q_j first, and 0 at every other moved pivot; the pivots stay in
order as q_j increases with j.  The image is therefore the unique RREF.
So each block row is one `_kernel` of n integer rows: the c_0 part scaled
by e, Y's denominator, and the (c_1 ... c_k) Y^T part from Y's integer
rows, all blocks over the lcm of their denominators.  If ker c_0 = 0,
every ker T_k is 0 (by induction, a kernel vector's x solves c_0 x = 0).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import accumulate, chain, count
from math import gcd, isqrt, lcm, prod
from operator import mul
from typing import Iterable, Sequence

from .errors import InternalError

_ZERO = Fraction(0)
_ONE = Fraction(1)


def as_scalar(x) -> Fraction:
    """Coerce an int, string like "-3/2", or Fraction to a Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not an exact scalar: {x!r}")


class Mat:
    """Immutable dense rational matrix: the integer rows `num` over the
    positive denominator `den`, normalised (see the module docstring)."""

    # _spectrum: the spectrum record once asked for (`_spectrum`), not part of the value
    __slots__ = ("rows", "cols", "num", "den", "_spectrum")

    def __init__(self, data: Iterable[Iterable]):
        """From rows of ints and Fractions; as these are in lowest terms,
        the lcm of their denominators leaves the result normalised."""
        self._spectrum = None
        rows = [list(row) for row in data]
        self.rows, self.cols = len(rows), len(rows[0]) if rows else 0
        if any(len(row) != self.cols for row in rows):
            raise ValueError("ragged rows")
        self.den = den = lcm(*(x.denominator for row in rows for x in row))
        self.num = tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in rows)

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_integers(num: Iterable[Iterable[int]], den: int = 1, cols: int = 0) -> "Mat":
        """The matrix num / den for equal-length integer rows and den > 0,
        normalised by one gcd over the nonzero rows only; `cols` is the
        width when there are no rows."""
        num = tuple(map(tuple, num))
        g = den
        for row in filter(any, num):
            if (g := gcd(g, *row)) == 1:
                break
        if g > 1:
            num, den = tuple(tuple([x // g for x in r]) if any(r) else r for r in num), den // g
        m = object.__new__(Mat)
        m.num, m.den, m.rows, m.cols = num, den, len(num), len(num[0]) if num else cols
        m._spectrum = None
        return m

    @staticmethod
    def zeros(rows: int, cols: int) -> "Mat":
        return Mat.from_integers(((0,) * cols,) * rows, 1, cols)

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat.diagonal([1] * n)

    @staticmethod
    def diagonal(values: Sequence) -> "Mat":
        """diag(values) for ints and Fractions, as integer rows over the
        lcm of their denominators."""
        n, den = len(values), lcm(*(v.denominator for v in values))
        return Mat.from_integers(
            [(0,) * i + (v.numerator * (den // v.denominator),) + (0,) * (n - 1 - i)
             for i, v in enumerate(values)], den, n)

    @staticmethod
    def block(grid: Sequence[Sequence["Mat"]]) -> "Mat":
        """Assemble a matrix from a rectangular grid of blocks."""
        den = lcm(*(b.den for block_row in grid for b in block_row))
        out_rows = []
        for block_row in grid:
            if any(b.rows != block_row[0].rows for b in block_row):
                raise ValueError("block heights differ within a row")
            out_rows.extend(chain.from_iterable(rs)
                            for rs in zip(*(b.num_over(den) for b in block_row)))
        return Mat.from_integers(out_rows, den, sum(b.cols for b in grid[0]) if grid else 0)

    # -- access -------------------------------------------------------

    def num_over(self, den: int) -> tuple[tuple[int, ...], ...]:
        """The integer rows of self over den, a multiple of self.den."""
        if den == self.den:
            return self.num
        k = den // self.den
        return tuple(tuple([x * k for x in r]) for r in self.num)

    def __getitem__(self, key) -> Fraction:
        i, j = key
        return Fraction(self.num[i][j], self.den)

    @property
    def data(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as Fractions, row by row."""
        return tuple(tuple(Fraction(x, self.den) for x in row) for row in self.num)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Mat":
        return Mat.from_integers([[self.num[i][j] for j in col_idx] for i in row_idx],
                                 self.den, len(col_idx))

    # -- arithmetic ---------------------------------------------------

    def _plus(self, other: "Mat", sign: int) -> "Mat":
        """self + sign * other over the lcm of the two denominators."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        den = lcm(self.den, other.den)
        a, b = den // self.den, sign * den // other.den
        return Mat.from_integers(
            [[a * x + b * y for x, y in zip(ra, rb)] for ra, rb in zip(self.num, other.num)],
            den, self.cols)

    def __add__(self, other: "Mat") -> "Mat":
        return self._plus(other, 1)

    def __sub__(self, other: "Mat") -> "Mat":
        return self._plus(other, -1)

    def __neg__(self) -> "Mat":
        return self.scaled(-1)

    def __mul__(self, other):
        if isinstance(other, Mat):
            if self.cols != other.rows:
                raise ValueError("shape mismatch in product")
            if not self.cols:
                return Mat.zeros(self.rows, other.cols)
            bt = list(zip(*other.num))
            return Mat.from_integers(
                [[sum(map(mul, row, col)) for col in bt] for row in self.num],
                self.den * other.den, other.cols)
        return self.scaled(as_scalar(other))

    def __rmul__(self, other):
        return self.scaled(as_scalar(other))

    def scaled(self, s) -> "Mat":
        """s times the matrix, for an int or a Fraction s."""
        a = s.numerator
        return Mat.from_integers([[a * x for x in row] for row in self.num],
                                 self.den * s.denominator, self.cols)

    def transpose(self) -> "Mat":
        return Mat.from_integers(zip(*self.num), self.den, self.rows) if self.rows \
            else Mat.zeros(self.cols, 0)

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return Fraction(sum(row[i] for i, row in enumerate(self.num)), self.den)

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not any(map(any, self.num))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def scalar_multiple_of_identity(self) -> Fraction | None:
        """Return c if the matrix equals c*I, else None."""
        if not self.is_square():
            return None
        c = self.num[0][0] if self.rows else 0
        for i, row in enumerate(self.num):
            if row[i] != c or any(row[:i]) or any(row[i + 1:]):
                return None
        return Fraction(c, self.den)

    def __eq__(self, other) -> bool:
        return isinstance(other, Mat) and self.num == other.num \
            and self.den == other.den and self.cols == other.cols

    def __hash__(self):
        return hash((self.cols, self.den, self.num))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"Mat[{self.rows}x{self.cols}: {body}]"


# ---------------------------------------------------------------------
# Fraction-free elimination
# ---------------------------------------------------------------------

def _echelon(rows: Iterable[Sequence[int]], ncols: int) -> tuple[list[list[int]], list[int], int]:
    """The one elimination kernel: Bareiss forward elimination (Math. Comp.
    1968) of integer rows.

    Returns the echelon rows (pivot rows only), their pivot columns, and
    the row-swap sign.  For a square matrix of full rank the determinant is
    that sign times the last pivot.
    """
    ints = [list(row) for row in rows]
    sign = 1
    nrows = len(ints)
    piv_cols: list[int] = []
    prev = 1
    pr = 0
    for pc in range(ncols):
        if pr == nrows:
            break
        sel = next((i for i in range(pr, nrows) if ints[i][pc]), None)
        if sel is None:
            continue
        if sel != pr:
            ints[pr], ints[sel] = ints[sel], ints[pr]
            sign = -sign
        prow = ints[pr]
        p = prow[pc]
        for i in range(pr + 1, nrows):
            ri = ints[i]
            f = ri[pc]
            for j in range(pc, ncols):
                ri[j] = (p * ri[j] - f * prow[j]) // prev
        prev = p
        piv_cols.append(pc)
        pr += 1
    return ints[:pr], piv_cols, sign


def _reduce(v: Sequence[int], rows: Iterable[tuple[int, Sequence[int]]]) -> Sequence[int]:
    """v cleared at each stored (pivot pc, row) in turn where it is nonzero:
    p*v - v[pc]*row for p = row[pc], divided by its content."""
    for pc, row in rows:
        if f := v[pc]:
            p = row[pc]
            w = [p * a - f * b for a, b in zip(v, row)]
            g = gcd(*w)
            v = [a // g for a in w] if g > 1 else w
    return v


def _rref(rows: Iterable[Sequence[int]], ncols: int) -> list[tuple[int, Sequence[int]]]:
    """(pivot, row) for each row of the (unique) RREF of the integer spanning
    rows, last pivot first, each row an integer multiple of its RREF row:
    each echelon row reduced against the rows below it (module docstring)."""
    ech, piv, _ = _echelon(rows, ncols)
    done: list[tuple[int, Sequence[int]]] = []
    for pc, row in zip(reversed(piv), reversed(ech)):
        done.append((pc, _reduce(row, done)))
    return done


def _over_lcm(rows: Iterable[tuple[int, Sequence[int]]]) -> tuple[list, int, tuple[int, ...]]:
    """`_rref`'s rows in order of pivot as integer rows over the lcm of their
    pivot entries, not yet normalised; then that denominator and the pivots."""
    rows = sorted(rows, key=lambda t: t[0])
    den = lcm(*(r[pc] for pc, r in rows))
    return [r if r[pc] == den else [x * (den // r[pc]) for x in r] for pc, r in rows], \
        den, tuple(pc for pc, _ in rows)


def rank(m: Mat) -> int:
    return len(_echelon(m.num, m.cols)[1])


def det(m: Mat) -> Fraction:
    """Exact determinant via Bareiss elimination."""
    if not m.is_square():
        raise ValueError("determinant of a non-square matrix")
    if m.rows == 0:
        return _ONE
    ech, piv, sign = _echelon(m.num, m.cols)
    if len(piv) < m.rows:
        return _ZERO
    return Fraction(sign * ech[-1][-1], m.den ** m.rows)


def inverse(m: Mat) -> Mat:
    """Exact inverse; raises ValueError on singular input."""
    if not m.is_square():
        raise ValueError("inverse of a non-square matrix")
    n = m.rows
    aug = [row + tuple(m.den if i == j else 0 for j in range(n)) for i, row in enumerate(m.num)]
    r, den, piv = _over_lcm(_rref(aug, 2 * n))
    if piv != tuple(range(n)):
        raise ValueError("matrix is singular")
    return Mat.from_integers([row[n:] for row in r], den, n)


# ---------------------------------------------------------------------
# Subspaces
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^ambient_dim as its reduced row echelon basis.

    Row i of `basis` has a 1 at `pivot_rows[i]` and zeros at every other
    pivot and everywhere left of its own pivot; the pivots increase.  The
    representative is unique, so equality of subspaces is equality of
    these fields.
    """

    basis: Mat
    pivot_rows: tuple[int, ...]

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(Mat.zeros(0, ambient_dim), ())

    @staticmethod
    def from_spanning(vectors: Iterable[Sequence], ambient_dim: int) -> "Subspace":
        vecs = Mat(vectors)
        if vecs.rows and vecs.cols != ambient_dim:
            raise ValueError("spanning vector has wrong length")
        r, den, piv = _over_lcm(_rref(vecs.num, ambient_dim))
        return Subspace(Mat.from_integers(r, den, ambient_dim), piv)

    @property
    def ambient_dim(self) -> int:
        return self.basis.cols

    @property
    def dim(self) -> int:
        return len(self.pivot_rows)

    def sum(self, other: "Subspace") -> "Subspace":
        """The sum, on this summand's echelon rows: nothing of self is
        re-eliminated (module docstring)."""
        c = self.ambient_dim
        if c != other.ambient_dim:
            raise ValueError("ambient dimensions differ")
        left = list(zip(self.pivot_rows, self.basis.num))
        rest = [w for v in other.basis.num if any(w := _reduce(v, left))]
        if not rest:
            return self
        new = _rref(rest, c)
        r, den, piv = _over_lcm([(pc, _reduce(u, new)) for pc, u in left] + new)
        return Subspace(Mat.from_integers(r, den, c), piv)


def _kernel(rows: Sequence[Sequence[int]], c: int) -> tuple[list[list[int]], int, list[int], int]:
    """The canonical kernel of the integer rows of width c, from one forward
    elimination of the columns in reverse order and one back substitution
    per free column (module docstring): its RREF rows as integer vectors
    over d, not yet normalised, then d, their pivots and the rank."""
    ech, piv, _ = _echelon([row[::-1] for row in rows], c)
    d = abs(ech[-1][piv[-1]]) if piv else 1
    piv_set, free, vecs = set(piv), [], []
    # in reversed columns: x is |d| at the free column f, 0 at the other free
    # columns and at every pivot right of f, and solves the pivot rows left of f
    for f in reversed(range(c)):
        if f in piv_set:
            continue
        x = {f: d}
        for i in reversed(range(bisect_left(piv, f))):
            row, pc = ech[i], piv[i]
            s = sum(row[j] * xj for j, xj in x.items())
            q, rem = divmod(-s, row[pc])
            if rem:
                raise InternalError("kernel back substitution is not exact")
            if q:
                x[pc] = q
        v = [0] * c
        for j, xj in x.items():
            v[c - 1 - j] = xj
        vecs.append(v)
        free.append(c - 1 - f)
    return vecs, d, free, len(piv)


def rref_nullspace(m: Mat) -> tuple[int, Subspace]:
    """Rank and canonical right nullspace of m (see `_kernel`)."""
    vecs, d, free, r = _kernel(m.num, m.cols)
    return r, Subspace(Mat.from_integers(vecs, d, m.cols), tuple(free))


def toeplitz_kernel(coeffs: Sequence[Mat]) -> Subspace:
    """Canonical kernel of the block upper-Toeplitz grid [[c0 c1 ... ck],
    [0 c0 ... c_{k-1}], ..., [0 ... 0 c0]] of square blocks c0, ..., ck of
    one size n, one block row at a time: n rows and n + dim ker T_{k-1}
    columns per block row, the grid never built (module docstring)."""
    n = coeffs[0].rows
    den = lcm(*(c.den for c in coeffs))
    rows = [c.num_over(den) for c in coeffs]
    vecs, d, piv, _ = _kernel(rows[0], n)
    if not piv:  # ker c0 = 0, so every block of a kernel vector is 0
        return Subspace.zero(n * len(coeffs))
    ker = Mat.from_integers(vecs, d, n)
    for k in range(1, len(coeffs)):
        # ker is Y / e, the RREF basis of ker T_{k-1} on the columns of
        # blocks 1..k; the unknowns are x and the coefficients on Y's rows
        ys, e = ker.num, ker.den
        tails = [list(chain.from_iterable(r[a] for r in rows[1:k + 1])) for a in range(n)]
        vecs, d, free, _ = _kernel(
            [[e * x for x in lead] + [sum(map(mul, tail, y)) for y in ys]
             for lead, tail in zip(rows[0], tails)], n + len(ys))
        cols = list(zip(*ys))
        ker = Mat.from_integers(
            [[e * x for x in v[:n]] + [sum(map(mul, v[n:], col)) for col in cols] for v in vecs],
            e * d, n * (k + 1))
        piv = [p if p < n else n + piv[p - n] for p in free]
    return Subspace(ker, tuple(piv))


class IncrementalSpan:
    """Mutable echelon accumulator for growing a span of integer vectors."""

    def __init__(self):
        # (pivot, integer row) in insertion order: each row is zero at the
        # pivots of the rows before it, so one `_reduce` in this order
        # clears a vector; rows are never back-reduced
        self._rows: list[tuple[int, Sequence[int]]] = []

    @property
    def dim(self) -> int:
        return len(self._rows)

    def add(self, vec: Sequence[int]) -> bool:
        """Insert the integer vector vec; returns True iff it enlarged the span."""
        v = _reduce(vec, self._rows)
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is not None:
            self._rows.append((piv, v))
        return piv is not None


def spin(start: Sequence, ops: Sequence, add, target: int) -> list:
    """The vectors the spin of `start` under `ops` takes in, in order: each
    x in start that `add` takes, then depth first op(x) for each op and each
    x taken, until none is taken or `target` are.  Under one op from one
    vector: x, op(x), op(op(x)), ... up to the first that `add` rejects."""
    taken = [x for x in start if add(x)]
    work = taken[:]
    while work and len(taken) < target:
        x = work.pop()
        for op in ops:
            if len(taken) < target and add(y := op(x)):
                work.append(y)
                taken.append(y)
    return taken


def times(rows: Iterable[Sequence[int]], x: Sequence[int]) -> list[int]:
    """rows x, for integer rows and an integer column x."""
    return [sum(map(mul, r, x)) for r in rows]


def spin_dim(vec: Sequence[int], mats: Sequence[Sequence[Sequence[int]]]) -> int:
    """Dimension of the spin of the integer vector vec under the integer
    matrices mats (rows, on columns)."""
    ops = [partial(times, m) for m in mats]
    return len(spin([list(vec)], ops, IncrementalSpan().add, len(vec)))


def spin_basis(gens: Sequence[Sequence[Sequence[int]]], n: int) -> list[tuple]:
    """A standard basis of Q^n under the integer matrices `gens` (rows, on
    columns): the words (j, i, w) as taken, w = gens[j] w_i for an earlier
    word i, or (None, None, e_s) for a start vector: e_1, then, while the
    spin is short, the first e_s outside it, until n are taken."""
    span = IncrementalSpan()
    made, taken = [], []  # made: (j, i, w) for each word tried, i indexing made

    def apply(j: int, c: int) -> int:
        made.append((j, c, times(gens[j], made[c][2])))
        return len(made) - 1

    ops = [partial(apply, j) for j in range(len(gens))]
    for s in range(n):
        if len(taken) < n:
            made.append((None, None, [int(r == s) for r in range(n)]))
            taken += spin([len(made) - 1], ops, lambda c: span.add(made[c][2]),
                          n - len(taken))
    at = {c: k for k, c in enumerate(taken)}
    return [(j, at.get(i), w) for j, i, w in map(made.__getitem__, taken)]


# ---------------------------------------------------------------------
# Characteristic polynomial and spectra
# ---------------------------------------------------------------------

@cache
def _prime(k: int) -> int:
    """The k-th prime below 2^62, counting down from k = 0.  Miller-Rabin
    with the twelve primes up to 37 as bases is exact below 3.3 * 10^24."""
    q = _prime(k - 1) if k else (1 << 62) + 1
    while True:
        q -= 2
        s = ((q - 1) & (1 - q)).bit_length() - 1  # q - 1 = 2^s d with d odd
        for b in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
            ys = [pow(b, (q - 1) >> r, q) for r in range(s, 0, -1)]  # b^d, b^2d, ...
            if ys[0] != 1 and q - 1 not in ys:
                break  # b witnesses that q is composite
        else:
            return q


def reduce_mod_prime(mats: Sequence[Mat]) -> tuple[int, list[list[list[int]]]]:
    """The first prime `_prime(k)` dividing no denominator of mats, and the
    integer rows of each matrix mod that prime: den A, a unit times A there."""
    p = next(p for p in map(_prime, count()) if all(m.den % p for m in mats))
    return p, [[[x % p for x in r] for r in m.num] for m in mats]


def _charpoly_mod(a: list[list[int]], p: int) -> list[int]:
    """Coefficients (lowest first) of det(xI - a) mod p: reduction to upper
    Hessenberg form by similarity, then the Hessenberg recurrence (Cohen,
    A Course in Computational Algebraic Number Theory, Alg. 2.2.9)."""
    n = len(a)
    h = [row[:] for row in a]
    for m in range(1, n - 1):
        i = next((i for i in range(m, n) if h[i][m - 1]), None)
        if i is None:
            continue
        h[i], h[m] = h[m], h[i]
        for r in h:
            r[i], r[m] = r[m], r[i]
        hm, inv = h[m], pow(h[m][m - 1], -1, p)
        us = [(i, u) for i in range(m + 1, n) if (u := h[i][m - 1] * inv % p)]
        for i, u in us:
            h[i] = [(x - u * y) % p for x, y in zip(h[i], hm)]
        for r in h:  # the inverse column operations
            r[m] = (r[m] + sum(u * r[i] for i, u in us)) % p
    polys = [[1]]  # polys[k]: det(xI - the leading k x k block of h)
    for k in range(n):
        new, t = [0] + polys[k], 1
        for i in range(k, -1, -1):  # t = h[i+1][i] ... h[k][k-1]
            c = h[i][k] * t % p
            for j, x in enumerate(polys[i]):
                new[j] -= c * x
            t = t * h[i][i - 1] % p
        polys.append([x % p for x in new])
    return polys[n]


def _coefficient_bound(dens: Sequence[int], rows: Sequence[Sequence[int]]) -> int:
    """Twice the module docstring's bound on |D e_k(A)|, A = diag(dens)^-1 rows."""
    return 2 * prod(isqrt(sum(x * x for x in r)) + 1 + d for d, r in zip(dens, rows))


def _charpoly_residues(m: Mat) -> tuple[list[int], int]:
    """r = D det(xI - m), lowest first, and D: multi-modular with a certified
    bound, and the trace checked on integers (module docstring)."""
    if not m.is_square():
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = m.rows
    gs = [gcd(m.den, *row) for row in m.num]  # row i over its own denominator m.den / gs[i]
    dens, rows = [m.den // g for g in gs], [[x // g for x in row] for row, g in zip(m.num, gs)]
    delta = prod(dens)
    bound = _coefficient_bound(dens, rows)
    modulus, res = 1, [0] * (n + 1)
    for p in map(_prime, count()):
        if any(d % p == 0 for d in dens):
            continue
        a = [[x * di % p for x in r] for di, r in zip([pow(d, -1, p) for d in dens], rows)]
        dp, inv = delta % p, pow(modulus, -1, p)
        res = [x + modulus * ((c * dp - x) * inv % p)
               for x, c in zip(res, _charpoly_mod(a, p))]
        modulus *= p
        if modulus > bound:
            break
    half = modulus // 2
    r = [x - modulus if x > half else x for x in res]
    if n and r[n - 1] * m.den != -delta * sum(row[i] for i, row in enumerate(m.num)):
        raise InternalError("multi-modular characteristic polynomial fails the trace check")
    return r, delta


def charpoly(m: Mat) -> tuple[Fraction, ...]:
    """Coefficients, lowest first, of det(xI - m): `_charpoly_residues` over D."""
    r, delta = _charpoly_residues(m)
    return tuple(Fraction(x, delta) for x in r)


def _scaled_charpoly(m: Mat) -> list[int]:
    """q(y) = det(yI - m.num), lowest first (module docstring); a non-square
    m is refused by `_charpoly_residues`."""
    if m.rows == m.cols == 2:
        (a, b), (c, d) = m.num
        return [a * d - b * c, -a - d, 1]
    if m.rows == m.cols == 3:
        (a, b, c), (d, e, f), (g, h, i) = m.num
        return [c * (e * g - d * h) + b * (d * i - f * g) - a * (e * i - f * h),
                a * e - b * d + a * i - c * g + e * i - f * h, -a - e - i, 1]
    r, delta = _charpoly_residues(m)
    q, rems = zip(*(divmod(x * m.den ** (m.rows - i), delta) for i, x in enumerate(r)))
    if any(rems):
        raise InternalError("det(yI - den m) is not integral")
    return list(q)


def _primitive(p: list[int]) -> list[int]:
    """p divided by its content (a positive integer)."""
    g = gcd(*p)
    return [x // g for x in p] if g > 1 else p


def _pdivmod(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Pseudo-division of integer polynomials (lowest first, b[-1] != 0):
    quo and rem (no trailing zeros), deg rem < deg b, with c a = quo b + rem
    for a positive integer c, 1 when b is monic or divides a; each step
    scales by a positive integer and cancels the leading term."""
    r, lb = a[:], b[-1]
    quo = [0] * max(len(a) - len(b) + 1, 0)
    for k in reversed(range(len(quo))):
        f = r[k + len(b) - 1]
        if f:
            g = gcd(f, lb)
            s, t = abs(lb) // g, f // g if lb > 0 else -f // g  # s f = t lb
            if s > 1:
                r, quo = [s * x for x in r], [s * x for x in quo]
            quo[k] = t
            for i, c in enumerate(b):
                r[k + i] -= t * c
    while r and not r[-1]:  # the cancelled terms, then any more zeros
        r.pop()
    return quo, r


def _sturm_chain(q: list[int]) -> list[list[int]]:
    """The primitive Sturm remainder sequence of q (degree >= 1): q, q',
    then minus each remainder of the last two, each made primitive, until
    one vanishes.  The last member is gcd(q, q') up to a constant factor."""
    chain = [q, _primitive([i * c for i, c in enumerate(q)][1:])]
    while len(chain[-1]) > 1:
        r = _pdivmod(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append(_primitive([-x for x in r]))
    return chain


def _variations(members: list[list[int]], a: int) -> int:
    """Sign variations, zeros skipped, of the values 2^deg(p) p(a/2) of the
    chain members p, each given highest coefficient first with the j-th
    times 2^j, so that one Horner loop at a reads it."""
    n, last = 0, 0
    for p in members:
        acc = 0
        for c in p:
            acc = acc * a + c
        if acc:
            if last and (acc > 0) != (last > 0):
                n += 1
            last = acc
    return n


def _deflated_roots(q: list[int], ys: Iterable[int]) -> list[tuple[int, int]]:
    """(y, multiplicity) for each y of ys that is a root of q, dividing q by
    (x - y) while it is one: a y that is not, or is taken, is dropped."""
    roots = []
    for y in ys:
        mult = 0  # Horner's partial sums: q / (x - y), highest first, then q(y)
        while not (quo := list(accumulate(reversed(q), lambda acc, c: acc * y + c))).pop():
            q, mult = quo[::-1], mult + 1
        if mult:
            roots.append((y, mult))
    return roots


def _small_roots(q: list[int], s: list[int]) -> list[tuple[int, int]]:
    """`_integer_roots` of q whose square-free part s has degree 1 or 2: the
    floor divisions below give the roots of s where those are integers, and
    otherwise no root, which `_deflated_roots` drops."""
    if len(s) == 2:
        return _deflated_roots(q, [-s[0] // s[1]])
    r = isqrt(max(s[1] * s[1] - 4 * s[0] * s[2], 0))
    return _deflated_roots(q, sorted((-s[1] + e * r) // (2 * s[2]) for e in (-1, 1)))


def _integer_roots(chain: list[list[int]]) -> list[tuple[int, int]]:
    """(root, multiplicity) for each integer root of the monic integer
    polynomial chain[0], by bisection on the sign variations of its Sturm
    chain and deflation at each candidate (no integer factorization)."""
    q = chain[0]
    # read at c + 1/2, never a root of q, by `_variations` at 2c + 1
    members = [[c << j for j, c in enumerate(reversed(p))] for p in chain]
    # Fujiwara: every root has |y| <= 2 max_k |q_(n-k)|^(1/k) < bound
    bound = 2 << max(-(-abs(c).bit_length() // k) for k, c in enumerate(reversed(q[:-1]), 1))
    # an interval (a, b) runs from a + 1/2 to b + 1/2; there the chain of a
    # q with repeated roots counts each distinct root once
    ys = []
    stack = [(-bound - 1, _variations(members, -2 * bound - 1), bound,
              _variations(members, 2 * bound + 1))]
    while stack:
        a, va, b, vb = stack.pop()
        if va == vb:
            continue
        if b - a == 1:  # b is the one integer inside
            ys.append(b)
            continue
        mid = (a + b) // 2
        vm = _variations(members, 2 * mid + 1)
        stack.append((a, va, mid, vm))
        stack.append((mid, vm, b, vb))
    return _deflated_roots(q, sorted(ys))


def rational_spectrum(m: Mat) -> tuple[list[tuple[Fraction, int]], bool]:
    """All rational eigenvalues with algebraic multiplicities.

    Returns (pairs, fully_rational) with pairs sorted by descending
    multiplicity, then ascending eigenvalue; fully_rational is True iff
    the multiplicities sum to the matrix size.  The answer is kept on m,
    so each matrix pays for one characteristic polynomial and one root
    isolation; every call returns a new list.
    """
    eigs, full, *_ = _spectrum(m)
    return list(eigs), full


def distinct_root_count(m: Mat) -> int:
    """The number of distinct complex eigenvalues of m, n - deg gcd(q, q'),
    kept on m with its `rational_spectrum`."""
    return _spectrum(m)[2]


def _one_root(lam: Fraction, k: int, part: tuple[int, ...]) -> tuple:
    """Spectrum record of lam, k times, with Jordan partition part: s = y - d lam, d = den(lam)."""
    return ((lam, k),), True, 1, (lam.denominator, [-lam.numerator, 1]), part


def _spectrum(m: Mat) -> tuple:
    """The spectrum record of m, computed once and kept on it: the rational
    eigenvalue pairs, whether they are all, the distinct-root count, d with
    the square-free part of q (module docstring), and the Jordan partition
    of a one-root record (`_one_root`), else None."""
    if m._spectrum is None:
        n = m.rows
        if n == 0:
            m._spectrum = (), True, 0, (1, [1]), None
        elif (c := m.scalar_multiple_of_identity()) is not None:
            m._spectrum = _one_root(c, n, (1,) * n)
        else:
            chain = _sturm_chain(q := _scaled_charpoly(m))
            sqfree, rem = _pdivmod(q, chain[-1])
            if rem:
                raise InternalError("gcd(q, q') does not divide q")
            roots = _small_roots(q, sqfree) if len(sqfree) <= 3 else _integer_roots(chain)
            eigs = sorted(((Fraction(y, m.den), k) for y, k in roots), key=lambda t: (-t[1], t[0]))
            m._spectrum = (tuple(eigs), sum(k for _, k in eigs) == n, len(sqfree) - 1,
                           (m.den, sqfree), None)
    return m._spectrum


def is_semisimple(m: Mat) -> bool:
    """True iff m is diagonalizable over the complex numbers, i.e. the
    square-free part s of the characteristic polynomial of d m, kept by
    `_spectrum`, annihilates d m (Horner's rule)."""
    if not m.is_square():
        raise ValueError("semisimplicity of a non-square matrix")
    n = m.rows
    d, sqfree = _spectrum(m)[3]
    dm = m.scaled(d)
    acc = Mat.zeros(n, n)
    for c in reversed(sqfree):
        acc = acc * dm + Mat.diagonal([c] * n)
    return acc.is_zero()


def _kernel_chain(m: Mat, lam: Fraction, stop: int, spaces: bool = True
                  ) -> tuple[tuple[int, ...], Subspace | None]:
    """Jordan block sizes of lam, descending, from the nullities of
    (m-lam)^k for k = 1, 2, ... until they stop growing or reach `stop`,
    and the kernel of the last power (for stop = the multiplicity of lam:
    the generalized eigenspace); without `spaces`, None for the kernel and
    each nullity read from the rank, the forward pass only."""
    n = m.rows
    shifted = m - Mat.diagonal([lam] * n)
    power, nullities, ker = shifted, [0], None
    while True:
        if spaces:
            ker = rref_nullspace(power)[1]
            nullities.append(ker.dim)
        else:
            nullities.append(n - rank(power))
        if nullities[-1] in (stop, nullities[-2]):
            # blocks of size >= k: nullities[k] - nullities[k-1]
            return conjugate_partition([b - a for a, b in zip(nullities, nullities[1:])]), ker
        power = power * shifted


def jordan_partition(m: Mat, lam) -> tuple[int, ...]:
    """Jordan block sizes of eigenvalue lam, descending; empty if lam is
    not an eigenvalue.  Computed from the nullity sequence of (m-lam)^k."""
    if not m.is_square():
        raise ValueError("jordan partition of a non-square matrix")
    return _kernel_chain(m, as_scalar(lam), m.rows, spaces=False)[0]


def jordan_data(m: Mat) -> tuple[list[tuple[Fraction, int, tuple[int, ...]]], bool]:
    """(eigenvalue, multiplicity, Jordan partition) per rational eigenvalue
    of m, in `rational_spectrum` order, and whether the spectrum is fully
    rational: `primary_components` without the spaces.  A one-root record
    keeps its partition, a simple eigenvalue is the block (1,), and any
    other reads its partition from the ranks of the kernel chain."""
    if not m.is_square():
        raise ValueError("jordan data of a non-square matrix")
    spec, full = rational_spectrum(m)
    return [(lam, mult, m._spectrum[4] or ((1,) if mult == 1 else
                                          _kernel_chain(m, lam, mult, spaces=False)[0]))
            for lam, mult in spec], full


def conjugate_partition(p: Sequence[int]) -> tuple[int, ...]:
    """Transpose of an integer partition (input sorted descending)."""
    return tuple(sum(1 for x in p if x >= k) for k in range(1, max(p, default=0) + 1))


def primary_components(m: Mat, *mats: Mat
                       ) -> list[tuple[Fraction | None, tuple[int, ...], Subspace, tuple[Mat, ...]]]:
    """Split Q^n into the generalized eigenspaces of the rational
    eigenvalues, in `rational_spectrum` order, each as (eigenvalue, Jordan
    partition, space, blocks), plus one residual invariant component (None,
    (), space, blocks) spanning the non-rational part of the spectrum if
    there is one: the common null space of the rational generalized
    eigenvectors of m^T, as the left generalized eigenspace of lam
    annihilates all but lam's.  `blocks` are the diagonal blocks of `mats`
    on the components (module docstring); `mats` itself, with no inverse
    taken, for one component or no `mats`.  A matrix in `mats` that is m
    is cut with no inverse either, and a rational component's block of it
    keeps its spectrum."""
    if not m.is_square():
        raise ValueError("primary components of a non-square matrix")
    n = m.rows
    spec, full = rational_spectrum(m)
    comps = [(lam, *_kernel_chain(m, lam, mult)) for lam, mult in spec]
    if not full:
        mt = m.transpose()
        left = [v for lam, mult in spec for v in _kernel_chain(mt, lam, mult)[1].basis.num]
        comps.append((None, (), rref_nullspace(Mat.from_integers(left, 1, n))[1]))
    if sum(c[2].dim for c in comps) != n:
        raise InternalError("primary components do not span the whole space")
    if len(comps) == 1 or not mats:
        return [c + (mats,) for c in comps]
    p = Mat.block([[s.basis] for *_, s in comps]).transpose()
    pinv = inverse(p) if any(a is not m for a in mats) else None
    products = [None if a is m else a * p for a in mats]
    out, off = [], 0
    for lam, part, s in comps:
        idx, off = range(off, off + s.dim), off + s.dim
        rows = pinv and pinv.submatrix(idx, range(n))  # this block's rows of pinv * a * p
        blocks = []
        for ap in products:
            if ap is not None:
                blocks.append(rows * ap.submatrix(range(n), idx))
            elif lam is None or part[0] > 1:  # m P_s = P_s B_s, P_s is 1 at the pivots of s
                blocks.append(m.submatrix(s.pivot_rows, range(n)) * s.basis.transpose())
            else:  # semisimple: m is lam on s
                blocks.append(Mat.diagonal([lam] * s.dim))
            if ap is None and lam is not None:
                blocks[-1]._spectrum = _one_root(lam, s.dim, part)
        out.append((lam, part, s, tuple(blocks)))
    return out
