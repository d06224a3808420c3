"""Tuple model for linear ODE systems with irregular singularities.

A system

    dY/dz = ( -sum_{j=1}^{m0} A_j^{(0)} z^{j-1}
              + sum_{i=1}^{r} sum_{j=0}^{m_i} A_j^{(i)} / (z - t_i)^{j+1} ) Y

is stored as the tuple of its coefficient matrices together with the
singularity bookkeeping (Poincare ranks m_i, locations t_i).  The residue
at infinity A_0^{(0)} = -(A_0^{(1)} + ... + A_0^{(r)}) is always derived,
never stored, which enforces the global trace condition on inputs.

Locations t_i are carried as metadata only; no operation in this package
depends on their values, just on their distinctness.

A MatrixTuple is checked by `validate` when it is built, so every tuple
that exists is well formed and no operation re-checks its input.

Slot order is decided by MatrixTuple alone: `points` lists infinity, then
the finite points, `slots()` the slots (i, j) point by point in descending
j, and every other module reads and writes coefficients in that order
through `slot_coeffs()` and `with_slot_coeffs()`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Sequence

from .errors import PreconditionError, ValidationError
from .exactla import (
    Mat,
    as_scalar,
    conjugate_partition,
    is_semisimple,
    jordan_data,
    primary_components,
    rational_spectrum,
)

INFINITY = None  # location tag for the point at infinity


@dataclass(frozen=True)
class SingularPoint:
    """One singular point with its coefficient matrices.

    `coeffs` is ordered by descending pole order j: a finite point of
    Poincare rank m carries the m+1 matrices A_m, ..., A_0; the point at
    infinity carries only A_m, ..., A_1 (empty when m = 0).
    """

    location: Fraction | None
    poincare_rank: int
    coeffs: tuple[Mat, ...]

    @property
    def is_infinity(self) -> bool:
        return self.location is None

    def coeff(self, j: int) -> Mat:
        """Coefficient A_j (j = rank..0 finite, rank..1 at infinity)."""
        idx = self.poincare_rank - j
        if idx < 0 or idx >= len(self.coeffs):
            raise IndexError(f"no coefficient with pole index {j}")
        return self.coeffs[idx]


@dataclass(frozen=True)
class MatrixTuple:
    """The full tuple of coefficient matrices of one system; building one
    raises ValidationError unless it is well formed."""

    size: int
    infinity: SingularPoint
    finite: tuple[SingularPoint, ...]

    def __post_init__(self):
        validate(self)

    @property
    def num_finite(self) -> int:
        return len(self.finite)

    @property
    def points(self) -> tuple[SingularPoint, ...]:
        """Infinity, then the finite points: points[i] is point i."""
        return (self.infinity,) + self.finite

    @property
    def slot_count(self) -> int:
        """M = r + sum of all Poincare ranks; the number of stored slots."""
        return sum(len(p.coeffs) for p in self.points)

    def point(self, i: int) -> SingularPoint:
        """Point i, with i = 0 the point at infinity and 1..r the finite ones."""
        if not 0 <= i <= self.num_finite:
            raise IndexError(f"no point {i}: the points are 0..{self.num_finite}")
        return self.points[i]

    @property
    def num_points(self) -> int:
        return 1 + self.num_finite

    def slots(self) -> list[tuple[int, int]]:
        """Slot order (0,m0),...,(0,1),(1,m1),...,(1,0),...,(r,0)."""
        return [(i, p.poincare_rank - k) for i, p in enumerate(self.points)
                for k in range(len(p.coeffs))]

    def slot_coeffs(self) -> list[Mat]:
        """The stored coefficients in `slots()` order."""
        return [a for p in self.points for a in p.coeffs]

    def with_slot_coeffs(self, mats: Sequence[Mat], size: int) -> MatrixTuple:
        """The same points, of matrix size `size`, carrying `mats`, in slot
        order, as coefficients."""
        if len(mats) != self.slot_count:
            raise ValidationError(f"{len(mats)} coefficients for M = {self.slot_count} slots")
        it = iter(mats)
        inf, *fin = [SingularPoint(p.location, p.poincare_rank, tuple(islice(it, len(p.coeffs))))
                     for p in self.points]
        return MatrixTuple(size, inf, tuple(fin))

    def coeff(self, i: int, j: int) -> Mat:
        return self.point(i).coeff(j)

    def residue_at_infinity(self) -> Mat:
        """The derived residue A_0^{(0)} = -(A_0^{(1)} + ... + A_0^{(r)})."""
        acc = Mat.zeros(self.size, self.size)
        for p in self.finite:
            acc = acc + p.coeff(0)
        return -acc

    def point_coeffs_with_residue(self, i: int) -> list[Mat]:
        """A_m, ..., A_0 of point i, including the derived residue for i=0."""
        p = self.point(i)
        out = list(p.coeffs)
        if i == 0:
            out.append(self.residue_at_infinity())
        return out

    def all_coeffs_with_residue(self) -> list[Mat]:
        """The slot coefficients with the derived residue after infinity's."""
        out = self.slot_coeffs()
        out.insert(self.infinity.poincare_rank, self.residue_at_infinity())
        return out


def finite_point(t, poincare_rank: int, coeffs: Sequence[Mat]) -> SingularPoint:
    return SingularPoint(as_scalar(t), poincare_rank, tuple(coeffs))


def infinity_point(poincare_rank: int, coeffs: Sequence[Mat]) -> SingularPoint:
    return SingularPoint(INFINITY, poincare_rank, tuple(coeffs))


def make_tuple(size: int, infinity: SingularPoint,
               finite: Sequence[SingularPoint]) -> MatrixTuple:
    return MatrixTuple(size, infinity, tuple(finite))


def validate(t: MatrixTuple) -> None:
    """Check every structural invariant; raises ValidationError."""
    n = t.size
    if n < 1:
        raise ValidationError("matrix size must be at least 1")
    if not t.infinity.is_infinity:
        raise ValidationError("infinity slot holds a finite point")
    if t.infinity.poincare_rank < 0:
        raise ValidationError("negative Poincare rank at infinity")
    if len(t.infinity.coeffs) != t.infinity.poincare_rank:
        raise ValidationError(
            f"point 0 (infinity): expected {t.infinity.poincare_rank} "
            f"coefficients, got {len(t.infinity.coeffs)}"
        )
    seen: set[Fraction] = set()
    for i, p in enumerate(t.finite, start=1):
        if p.is_infinity:
            raise ValidationError(f"point {i}: finite slot holds infinity")
        if p.location in seen:
            raise ValidationError(f"point {i}: duplicate location t = {p.location}")
        seen.add(p.location)
        if p.poincare_rank < 0:
            raise ValidationError(f"point {i}: negative Poincare rank")
        if len(p.coeffs) != p.poincare_rank + 1:
            raise ValidationError(
                f"point {i}: expected {p.poincare_rank + 1} coefficients, "
                f"got {len(p.coeffs)}"
            )
    for i, p in enumerate(t.points):
        for a in p.coeffs:
            if a.rows != n or a.cols != n:
                raise ValidationError(
                    f"point {i}: coefficient has shape {a.rows}x{a.cols}, "
                    f"expected {n}x{n}"
                )
    if t.slot_count < 1:
        raise ValidationError("tuple has no coefficient slots (M = 0)")


# ---------------------------------------------------------------------
# Addition, padding, stripping
# ---------------------------------------------------------------------

def addition(t: MatrixTuple, shifts: Sequence) -> MatrixTuple:
    """Shift every coefficient slot: A_j^{(i)} -> A_j^{(i)} + mu_j^{(i)} I.

    `shifts` lists one scalar per slot, in slot order; its length must be
    the tuple's slot count M.
    """
    vals = [as_scalar(x) for x in shifts]
    if len(vals) != t.slot_count:
        raise ValidationError(
            f"shift vector has length {len(vals)}, expected M = {t.slot_count}"
        )
    n = t.size
    return t.with_slot_coeffs(
        [a + Mat.diagonal([c] * n) if c else a for a, c in zip(t.slot_coeffs(), vals)], n)


def pad_point(t: MatrixTuple, i: int) -> MatrixTuple:
    """Promote a rank-0 point to rank 1 with zero leading coefficient.

    The underlying system is unchanged; this realizes the identification
    of the regular-singular case with the rank-one case.
    """
    p = t.point(i)
    if p.poincare_rank != 0:
        raise PreconditionError(f"point {i} already has Poincare rank {p.poincare_rank}")
    pts = list(t.points)
    pts[i] = SingularPoint(p.location, 1, (Mat.zeros(t.size, t.size),) + p.coeffs)
    return MatrixTuple(t.size, pts[0], tuple(pts[1:]))


def strip_trivial(t: MatrixTuple) -> MatrixTuple:
    """Drop zero leading coefficients (lowering ranks) and finite points
    whose coefficients are all zero.  Explicit, never done silently."""

    def lowered(p: SingularPoint) -> SingularPoint:
        coeffs = list(p.coeffs)
        m = p.poincare_rank
        while m > 0 and coeffs[0].is_zero():
            coeffs.pop(0)
            m -= 1
        return SingularPoint(p.location, m, tuple(coeffs))

    inf, *fin = map(lowered, t.points)
    return MatrixTuple(t.size, inf, tuple(
        q for q in fin if q.poincare_rank > 0 or not q.coeffs[0].is_zero()))


def removable_points(t: MatrixTuple) -> tuple[int, ...]:
    """Point indices whose stored coefficients are all scalar multiples of
    the identity; such points can be zeroed by addition and omitted."""
    return tuple(i for i, p in enumerate(t.points) if p.coeffs and all(
        a.scalar_multiple_of_identity() is not None for a in p.coeffs))


def remove_point(t: MatrixTuple, i: int) -> tuple[MatrixTuple, list[Fraction]]:
    """Zero out a removable point by addition and strip it.

    Returns the new tuple and the shift vector that was applied (listed in
    the slot order of the input tuple).  For i = 0 the point at infinity is
    kept with rank lowered to zero.
    """
    if i not in removable_points(t):
        raise PreconditionError(f"point {i} is not removable")
    shift = [-a.scalar_multiple_of_identity() if pi == i else Fraction(0)
             for (pi, _), a in zip(t.slots(), t.slot_coeffs())]
    return strip_trivial(addition(t, shift)), shift


# ---------------------------------------------------------------------
# Spectral types
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class EigenData:
    """One eigenvalue of a compressed residue block: its algebraic
    multiplicity and Jordan block sizes (descending)."""

    value: Fraction
    multiplicity: int
    jordan: tuple[int, ...]

    @property
    def geometric(self) -> int:
        return len(self.jordan)

    @property
    def parts(self) -> tuple[int, ...]:
        """Multiplicity parts in normal-form convention: the conjugate of
        the Jordan partition (a semisimple eigenvalue of multiplicity m
        contributes the single part m)."""
        return conjugate_partition(self.jordan)


@dataclass(frozen=True)
class SpectralBlock:
    """One eigenspace of the leading coefficient, with the spectral data
    of the residue compressed to that eigenspace."""

    eigenvalue: Fraction
    size: int
    inner: tuple[EigenData, ...]

    def parts(self) -> tuple[int, ...]:
        flat = [q for e in self.inner for q in e.parts]
        return tuple(sorted(flat, reverse=True))


# A point's multiplicity pattern: one (n_l, parts) per block, in `block_order`.
PointPattern = tuple[tuple[int, tuple[int, ...]], ...]


def block_weight(nl: int, parts: Sequence[int]) -> int:
    """n_l^2 + sum of squared parts: a block's term in the index of rigidity."""
    return nl * nl + sum(q * q for q in parts)


def block_order(nl: int, parts: Sequence[int]) -> tuple:
    """Sort key of the canonical block order: larger n_l first, then larger parts."""
    return (-nl, tuple(-q for q in parts))


def pattern_size(pattern: PointPattern) -> int:
    """n of a point pattern: the sum of its block sizes."""
    return sum(nl for nl, _ in pattern)


@dataclass(frozen=True)
class SpectralType:
    """Nested multiplicity pattern of a pair (leading coefficient, residue)
    at one singular point; `blocks` are in canonical block order."""

    size: int
    blocks: tuple[SpectralBlock, ...]

    def pattern(self) -> PointPattern:
        """Eigenvalue-free multiplicity pattern."""
        return tuple((b.size, b.parts()) for b in self.blocks)

    def pattern_str(self) -> str:
        return format_pattern(self.pattern())


def format_pattern(pattern: PointPattern, unit: str = "") -> str:
    """Render a pattern; a single outer block prints in the short
    regular-singular notation.  With a `unit` such as "d", each number q
    prints as a multiple of it: "2d", and a bare "d" for 1."""

    def group(nums) -> str:
        return "(" + ",".join(f"{q}{unit}" if q != 1 or not unit else unit for q in nums) + ")"

    inner = ",".join(group(parts) for _, parts in pattern)
    return inner if len(pattern) == 1 else f"{group(nl for nl, _ in pattern)}-({inner})"


def _eigendata_of(block: Mat, where: str) -> tuple[EigenData, ...]:
    eigs, full = jordan_data(block)
    if not full:
        raise PreconditionError(f"{where}: spectrum is not fully rational")
    data = [EigenData(*e) for e in eigs]
    data.sort(key=lambda e: (-e.geometric, -e.multiplicity, e.value))
    return tuple(data)


def semisimple_eigenspaces(a: Mat, not_semisimple: str, not_rational: str, *mats: Mat
                           ) -> list[tuple[Fraction, int, tuple[Mat, ...]]]:
    """(eigenvalue, multiplicity, blocks) of a semisimple a with a fully
    rational spectrum, sorted by eigenvalue, where blocks are the diagonal
    blocks of `mats` on the eigenspaces (`primary_components`);
    PreconditionError with the given messages otherwise, before any split
    if the spectrum is not all rational.  With every eigenvalue rational, a
    is semisimple iff its Jordan partitions are all 1s, so `is_semisimple`
    runs only for a spectrum that is not."""
    if not rational_spectrum(a)[1]:
        raise PreconditionError(not_rational if is_semisimple(a) else not_semisimple)
    comps = primary_components(a, *mats)
    if any(jordan[0] > 1 for _, jordan, _, _ in comps):
        raise PreconditionError(not_semisimple)
    return sorted(((d, space.dim, blocks) for d, _, space, blocks in comps), key=lambda e: e[0])


def spectral_type(t: MatrixTuple, i: int) -> SpectralType:
    """Multiplicity pattern of point i (0 = infinity, using the derived
    residue there).  Requires Poincare rank at most 1, a semisimple leading
    coefficient and fully rational spectra.  A scalar lead c I (the zero
    lead of a rank-0 or padded point too) is one block (c, n) holding the
    whole residue: what `semisimple_eigenspaces` returns for it, with no
    split computed."""
    p = t.point(i)
    if p.poincare_rank > 1:
        raise PreconditionError(
            f"point {i}: spectral types are defined only for Poincare rank <= 1, "
            f"got {p.poincare_rank}"
        )
    n = t.size
    *lead, a0 = t.point_coeffs_with_residue(i)
    c = lead[0].scalar_multiple_of_identity() if lead else Fraction(0)
    if c is not None:
        eig = [(c, n, (a0,))]
    else:
        eig = semisimple_eigenspaces(
            lead[0], f"point {i}: leading coefficient is not semisimple",
            f"point {i}: leading coefficient spectrum is not fully rational", a0)
    blocks = [SpectralBlock(d, mult, _eigendata_of(sub, f"point {i}, block at {d}"))
              for d, mult, (sub,) in eig]
    blocks.sort(key=lambda b: (block_order(b.size, b.parts()), b.eigenvalue))
    return SpectralType(n, tuple(blocks))


def build_L(q: Sequence[int], lambdas: Sequence) -> Mat:
    """Normal-form block matrix with lambda_s I on the diagonal and
    rectangular identities on the superdiagonal.

    With all lambdas distinct this is conjugate to the diagonal matrix with
    multiplicities q; with all lambdas equal its Jordan partition at that
    value is the conjugate partition of q.
    """
    q = [int(x) for x in q]
    lam = [as_scalar(x) for x in lambdas]
    if len(q) != len(lam):
        raise ValidationError("q and lambdas must have the same length")
    if not q or any(x < 1 for x in q):
        raise ValidationError("q must consist of positive integers")
    if any(a < b for a, b in zip(q, q[1:])):
        raise ValidationError("q must be non-increasing")
    n = sum(q)
    offs = [0]
    for x in q:
        offs.append(offs[-1] + x)
    m = [[Fraction(0)] * n for _ in range(n)]
    for s, (sz, lv) in enumerate(zip(q, lam)):
        for a in range(sz):
            m[offs[s] + a][offs[s] + a] = lv
        if s + 1 < len(q):
            for a in range(q[s + 1]):
                m[offs[s] + a][offs[s + 1] + a] = Fraction(1)
    return Mat(m)


# ---------------------------------------------------------------------
# Named example systems
# ---------------------------------------------------------------------

def hypergeometric_example(nu, gamma, alpha, k) -> MatrixTuple:
    """Rank-two confluent-hypergeometric system: an irregular point at
    infinity with diagonal leading coefficient diag(0, -nu) and a regular
    singular point at the origin whose residue has eigenvalues 0 and
    -gamma."""
    nu, gamma, alpha, k = map(as_scalar, (nu, gamma, alpha, k))
    if k == 0:
        raise PreconditionError("k must be nonzero (it divides a matrix entry)")
    a1_inf = Mat.diagonal([0, -nu])
    a0 = Mat([[-alpha, k], [alpha * (gamma - alpha) / k, alpha - gamma]])
    return make_tuple(
        2, infinity_point(1, [a1_inf]), [finite_point(0, 0, [a0])]
    )


def bessel_example(a11, a12, a21, a22) -> MatrixTuple:
    """Rank-two system with nilpotent leading coefficient at infinity;
    solutions are Bessel-type.  Irreducible iff a21 != 0 (checked by the
    irreducibility test, not here)."""
    a11, a12, a21, a22 = map(as_scalar, (a11, a12, a21, a22))
    a1_inf = Mat([[0, -1], [0, 0]])
    a0 = Mat([[a11, a12], [a21, a22]])
    return make_tuple(
        2, infinity_point(1, [a1_inf]), [finite_point(0, 0, [a0])]
    )


def from_okubo(t_mat: Mat, a_mat: Mat) -> MatrixTuple:
    """Birkhoff-form system dV/dz = (T - (A+I)/z) V obtained from an Okubo
    normal form (zI - T) dPsi/dz = A Psi by Laplace transformation.

    T must be semisimple with fully rational spectrum; the generalized
    (non-diagonalizable T) case is not supported.
    """
    if not t_mat.is_square() or not a_mat.is_square() or t_mat.rows != a_mat.rows:
        raise ValidationError("T and A must be square of equal size")
    semisimple_eigenspaces(t_mat, "T is not semisimple (generalized Okubo form is unsupported)",
                           "T does not have a fully rational spectrum")
    n = t_mat.rows
    a0 = -(a_mat + Mat.identity(n))
    return make_tuple(
        n, infinity_point(1, [-t_mat]), [finite_point(0, 0, [a0])]
    )


def inverse_laplace_example(a11, a12, a21, a22) -> MatrixTuple:
    """Stored fixture: the inverse Laplace transform of the nilpotent
    Birkhoff system, a generalized Okubo system with a rank-1 irregular
    point at the origin and no polynomial part at infinity."""
    a11, a12, a21, a22 = map(as_scalar, (a11, a12, a21, a22))
    lead = -Mat([[a21, a22 + 1], [0, 0]])
    res = -Mat([[a11 + 1, a12], [a21, a22 + 1]])
    return make_tuple(
        2, infinity_point(0, []), [finite_point(0, 1, [lead, res])]
    )
