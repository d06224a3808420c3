"""Katz-style reduction: addition + middle convolution until the size
stops decreasing, with classification of the terminal patterns.

One step, on a tuple whose points all have Poincare rank one, semisimple
leading coefficients and fully rational spectra:

  * per point, pick the eigenvalue block maximizing
    (n_l^2 + sum of squared parts) / n_l and, inside it, the residue
    eigenvalue of maximal geometric multiplicity;
  * shift the picked eigenvalues to zero by addition (leading coefficient
    everywhere, residue at the finite points);
  * choose the convolution parameter among the eigenvalues of the shifted
    compressed block at infinity, maximizing dim L'(mu), ties to the
    smaller value.  With a finite point, L'(mu) = ker [[A, R - mu], [0, A]]
    for the shifted lead A (semisimple) and derived residue R, so its
    dimension n_l + g(mu), g the geometric multiplicity, is read off;
  * apply middle convolution and strip points that became trivial.

For index 2 this strictly decreases the size down to one; for index 0 it
stops at one of the catalog patterns below.  `CATALOG` is the paper's list
of 17 terminal patterns, written once as patterns; each name is rendered
from its pattern by `format_pattern`.  The block term, block order and
pattern size come from `model`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd

from .errors import AssumptionViolated, InternalError, PreconditionError
from .convolution import quotient, subspace_K, subspace_Lprime
from .exactla import Subspace
from .model import (
    EigenData,
    MatrixTuple,
    PointPattern,
    SpectralBlock,
    addition,
    block_order,
    block_weight,
    format_pattern,
    pad_point,
    pattern_size,
    remove_point,
    removable_points,
    spectral_type,
    strip_trivial,
)
from .rigidity import is_irreducible


@dataclass(frozen=True)
class PivotChoice:
    """Chosen eigenvalue block and inner eigenvalue of one point, and its pattern."""

    block: SpectralBlock
    inner: EigenData
    pattern: PointPattern

    @property
    def kernel_target(self) -> int:
        """n_l + n_{l,1}: the kernel dimension the shifts aim for."""
        return self.block.size + self.inner.geometric


@dataclass(frozen=True)
class ReductionStep:
    """One addition + convolution step; `shift` is listed in the slot
    order of the rank-padded tuple the step operated on."""

    pivots: tuple[PivotChoice, ...]
    shift: tuple[Fraction, ...]
    mu: Fraction
    size_before: int
    size_after: int
    removed_points: tuple[int, ...] = ()


@dataclass(frozen=True)
class ReducedToRankOne:
    pass


@dataclass(frozen=True)
class Terminal:
    label: str
    pattern: "TerminalPattern"


@dataclass(frozen=True)
class AssumptionViolation:
    reason: str


Verdict = ReducedToRankOne | Terminal | AssumptionViolation


@dataclass(frozen=True)
class ReductionTrace:
    steps: tuple[ReductionStep, ...]
    terminal: MatrixTuple
    verdict: Verdict


# ---------------------------------------------------------------------
# Pivot choice and one reduction step
# ---------------------------------------------------------------------

def _pivot_rank(pv: PivotChoice) -> tuple[Fraction, int]:
    """(n_l^2 + sum_j n_{l,j}^2) / n_l, then n_l + n_{l,1}."""
    b = pv.block
    return Fraction(block_weight(b.size, b.parts()), b.size), pv.kernel_target


def choose_pivot(t: MatrixTuple) -> list[PivotChoice]:
    """Per-point pivot blocks for one reduction step.

    Requires every point padded to Poincare rank one.  The chosen block
    maximizes (n_l^2 + sum_j n_{l,j}^2)/n_l; ties go to the larger
    n_l + n_{l,1}, then to the earlier block in canonical order; inside it,
    to the residue eigenvalue of maximal geometric multiplicity, then the
    smaller value.  A point outside the hypotheses raises AssumptionViolated.
    """
    for i in range(t.num_points):
        if t.point(i).poincare_rank != 1:
            raise AssumptionViolated(
                f"point {i}: Poincare rank must be 1 (pad rank-0 points first)"
            )
    choices = []
    for i in range(t.num_points):
        try:
            st = spectral_type(t, i)
        except PreconditionError as e:
            raise AssumptionViolated(str(e)) from e
        # max keeps the first of equal keys: the earlier block
        pat = st.pattern()
        choices.append(max((PivotChoice(b, b.inner[0], pat) for b in st.blocks),
                           key=_pivot_rank))
    return choices


def _reduction_shift(t: MatrixTuple, pivots: list[PivotChoice]) -> list[Fraction]:
    """Shift the chosen leading eigenvalue to 0 at every point and the
    chosen residue eigenvalue to 0 at the finite points (the infinity
    residue has no slot; the convolution parameter absorbs it).  Every point
    has rank one, so the slots are (i, 1) and, at finite i, (i, 0)."""
    return [-pivots[i].block.eigenvalue if j == 1 else -pivots[i].inner.value
            for i, j in t.slots()]


def _choose_mu(shifted: MatrixTuple, pivots: list[PivotChoice]) -> tuple[Fraction, Subspace]:
    """The mu maximizing dim L'(mu) = n_l + g(mu) over the pivot block's
    residue eigenvalues plus the finite pivots' residue sum, ties to the
    smaller; L'(mu) built once, checked unless r = 0 (L'(0) drops vectors)."""
    block = pivots[0].block
    e = max(block.inner, key=lambda e: (e.geometric, -e.value))
    mu = e.value + sum(pv.inner.value for pv in pivots[1:])
    lprime = subspace_Lprime(shifted, mu)
    if shifted.finite and lprime.dim != block.size + e.geometric:
        raise InternalError(f"dim L'({mu}) is {lprime.dim}, not n_l + g")
    return mu, lprime


def reduce_step(t: MatrixTuple) -> tuple[MatrixTuple | None, ReductionStep]:
    """One addition + middle convolution step.

    Returns (next_tuple, step); next_tuple is None when no step can
    decrease the size (the input is terminal).  Raises AssumptionViolated
    outside the algorithm's hypotheses, including the forced mu = 0 case,
    which contradicts irreducibility whenever the size would drop.
    """
    padded = t
    for i in range(t.num_points):
        if padded.point(i).poincare_rank == 0:
            padded = pad_point(padded, i)
    if not is_irreducible(padded):
        raise AssumptionViolated("module is reducible")
    pivots = choose_pivot(padded)
    shift = _reduction_shift(padded, pivots)
    shifted = addition(padded, shift)
    mu, lprime = _choose_mu(shifted, pivots)
    n = padded.size
    per_point, big_k = subspace_K(shifted)
    new_size = n * padded.slot_count - big_k.dim - lprime.dim
    step = ReductionStep(
        pivots=tuple(pivots),
        shift=tuple(shift),
        mu=mu,
        size_before=n,
        size_after=new_size,
    )
    if new_size >= n:
        return None, step
    if mu == 0:
        raise AssumptionViolated(
            "convolution parameter would be 0 while the size decreases; "
            "this contradicts irreducibility"
        )
    # For mu != 0, L(mu) = L'(mu) and the sum K + L'(mu) is direct.
    result = quotient(shifted, mu, per_point, big_k, lprime).result
    if result.size != new_size:
        raise InternalError(f"quotient has size {result.size}, predicted {new_size}")
    out = strip_trivial(result)
    removed = []
    while out.size > 1:
        # finite points first, then infinity; never the point holding every slot
        rp = [i for i in removable_points(out) if len(out.point(i).coeffs) < out.slot_count]
        if not rp:
            break
        i = min(rp, key=lambda i: (i == 0, i))
        out, _ = remove_point(out, i)
        removed.append(i)
    if removed:
        step = replace(step, removed_points=tuple(removed))
    return out, step


def reduce(t: MatrixTuple) -> ReductionTrace:
    """Iterate reduce_step until rank one, a terminal pattern, or an
    assumption failure; sizes strictly decrease along the trace."""
    steps: list[ReductionStep] = []
    cur = t
    while True:
        if cur.size == 1:
            return ReductionTrace(tuple(steps), cur, ReducedToRankOne())
        try:
            nxt, step = reduce_step(cur)
        except AssumptionViolated as e:
            return ReductionTrace(tuple(steps), cur, AssumptionViolation(str(e)))
        if nxt is None:
            # None comes only after choose_pivot took every point's pattern
            pattern = make_terminal_pattern([pv.pattern for pv in step.pivots])
            name = classify_terminal(pattern)
            label = f"{name}, d={pattern.d}" if name is not None else "uncataloged"
            return ReductionTrace(tuple(steps), cur, Terminal(label, pattern))
        if nxt.size >= cur.size:
            raise InternalError(f"reduction step did not decrease the size {cur.size}")
        steps.append(step)
        cur = nxt


# ---------------------------------------------------------------------
# Terminal patterns: normalization, catalog, classification
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class TerminalPattern:
    """Point-permutation-normalized multiplicity pattern with the common
    divisor d extracted; `points` is the base (d = 1) pattern.

    The enumerator and classifier reason about patterns only; whether a
    pattern is realized by an irreducible system is not decided here.
    """

    points: tuple[PointPattern, ...]
    d: int

    @property
    def size(self) -> int:
        """n = d times the size of the base pattern."""
        return self.d * pattern_size(self.points[0])

    def pattern_str(self) -> str:
        return "{" + ", ".join(format_pattern(p) for p in self.points) + "}"


def make_terminal_pattern(point_patterns: list[PointPattern]) -> TerminalPattern:
    """Normalize: sort points, extract the gcd of all multiplicities."""
    d = gcd(*(q for pat in point_patterns for _, parts in pat for q in parts))
    if d == 0:
        raise PreconditionError("empty pattern")
    base = [tuple((nl // d, tuple(q // d for q in parts)) for nl, parts in pat)
            for pat in point_patterns]
    return TerminalPattern(tuple(sorted(base, reverse=True)), d)


def terminal_pattern(t: MatrixTuple) -> TerminalPattern:
    """Pattern of a tuple all of whose points have rank <= 1."""
    pats = [spectral_type(t, i).pattern() for i in range(t.num_points)]
    return make_terminal_pattern(pats)


def _reg(*parts: int) -> PointPattern:
    return ((sum(parts), tuple(parts)),)


# The paper's 17 terminal patterns at d = 1, each point in the listed order.
_CATALOG_PATTERNS: list[list[PointPattern]] = [
    [_reg(1, 1)] * 4,
    [_reg(1, 1, 1)] * 3,
    [_reg(2, 2), _reg(1, 1, 1, 1), _reg(1, 1, 1, 1)],
    [_reg(3, 3), _reg(2, 2, 2), _reg(1, 1, 1, 1, 1, 1)],
    [((1, (1,)), (1, (1,))), _reg(1, 1), _reg(1, 1)],
    [((1, (1,)), (1, (1,)))] * 2,
    [((1, (1,)), (1, (1,)), (1, (1,))), _reg(1, 1, 1)],
    [((1, (1,)), (1, (1,)), (1, (1,)), (1, (1,))), _reg(2, 2)],
    [((2, (1, 1)), (2, (1, 1))), _reg(1, 1, 1, 1)],
    [((3, (1, 1, 1)), (2, (2,))), _reg(1, 1, 1, 1, 1)],
    [((2, (1, 1)), (2, (1, 1)), (2, (1, 1))), _reg(3, 3)],
    [((3, (1, 1, 1)), (3, (1, 1, 1)), (2, (2,))), _reg(4, 4)],
    [((5, (1, 1, 1, 1, 1)), (4, (2, 2)), (3, (3,))), _reg(6, 6)],
    [((5, (1, 1, 1, 1, 1)), (4, (2, 2))), _reg(3, 3, 3)],
    [((3, (1, 1, 1)), (3, (1, 1, 1))), _reg(2, 2, 2)],
    [((5, (1, 1, 1, 1, 1)), (3, (3,))), _reg(2, 2, 2, 2)],
    [((4, (2, 2)), (3, (3,))), _reg(1, 1, 1, 1, 1, 1, 1)],
]


def _catalog_name(pats: list[PointPattern]) -> str:
    """E.g. "two singularities {(2d,2d)-((d,d),(d,d)), (d,d,d,d)}"."""
    count = ("two", "three", "four")[len(pats) - 2]
    return f"{count} singularities {{{', '.join(format_pattern(p, 'd') for p in pats)}}}"


CATALOG: dict[tuple[PointPattern, ...], str] = {
    make_terminal_pattern(pats).points: _catalog_name(pats) for pats in _CATALOG_PATTERNS
}
if len(CATALOG) != 17:
    raise InternalError(f"the terminal catalog has {len(CATALOG)} distinct patterns, not 17")


def classify_terminal(p: TerminalPattern) -> str | None:
    """Catalog name of the normalized pattern, or None if uncataloged.
    Invariant under point permutation and under scaling by d."""
    return CATALOG.get(p.points)


# ---------------------------------------------------------------------
# Independent enumerator of terminal patterns
# ---------------------------------------------------------------------

def _point_patterns_by_c(n: int) -> dict[PointPattern, int]:
    """All size-n point patterns that can occur at a terminal tuple,
    keyed to their common block value c = n_l + n_{l,1}.

    At a terminal point every block has uniform inner parts n_l / p_l and
    the value n_l + n_{l,1} is the same for every block; a block of size
    n_l then has inner part c - n_l, which must divide n_l.  The all-scalar
    pattern (c = 2n) is excluded because such a point is removable.
    """
    out: dict[PointPattern, int] = {}
    for c in range(2, 2 * n):
        lo = (c + 1) // 2  # smallest block size with c - n_l <= n_l
        valid_sizes = [
            s for s in range(lo, min(c - 1, n) + 1) if s % (c - s) == 0
        ]

        def rec(remaining: int, max_size: int, acc: list[int]):
            if remaining == 0:
                blocks = [(s, (c - s,) * (s // (c - s))) for s in acc]
                out[tuple(sorted(blocks, key=lambda b: block_order(*b)))] = c
                return
            for s in valid_sizes:
                if s <= max_size and s <= remaining:
                    rec(remaining - s, s, acc + [s])

        rec(n, n, [])
    return out


def enumerate_terminals(r: int, n_max: int) -> list[TerminalPattern]:
    """All terminal multiplicity patterns with r finite points (r+1
    singularities) and size at most n_max: index 0, the terminal sum
    condition sum_i (n_l + n_{l,1}) = 2 r n, uniform inner multiplicities,
    and no removable point.  Deduplicated by normalization."""
    if r < 1:
        raise PreconditionError("need at least one finite singular point (r >= 1)")
    if not 1 <= n_max <= 12:
        raise PreconditionError("n_max must be between 1 and 12")
    found: set[TerminalPattern] = set()
    for n in range(1, n_max + 1):
        cands = sorted(_point_patterns_by_c(n).items())
        target = 2 * r * n

        def rec(points_left: int, start: int, total_c: int, acc: list[PointPattern]):
            if points_left == 0:
                if total_c == target:
                    tp = make_terminal_pattern(list(acc))
                    weight = sum(block_weight(nl, parts) for pat in acc for nl, parts in pat)
                    if weight != 2 * r * n * n:
                        raise InternalError(f"terminal pattern {tp.pattern_str()} has index "
                                            f"{weight - 2 * r * n * n}, not 0")
                    found.add(tp)
                return
            if total_c + 2 * points_left > target:
                return
            if total_c + (2 * n - 1) * points_left < target:
                return
            for k in range(start, len(cands)):
                pat, c = cands[k]
                rec(points_left - 1, k, total_c + c, acc + [pat])

        rec(r + 1, 0, 0, [])
    return sorted(found, key=lambda tp: (tp.size, tp.d, tp.points))
