"""Reduction algorithm, terminal classification, pattern enumeration."""

from fractions import Fraction as F

import pytest

from midconv.cli import main
from midconv.convolution import middle_convolution
from midconv.errors import AssumptionViolated, InternalError, PreconditionError
from midconv.exactla import Mat, Subspace
from midconv.model import (
    addition,
    bessel_example,
    finite_point,
    hypergeometric_example,
    infinity_point,
    make_tuple,
    pad_point,
    spectral_type,
    strip_trivial,
)
from midconv.reduction import (
    AssumptionViolation,
    ReducedToRankOne,
    Terminal,
    CATALOG,
    choose_pivot,
    classify_terminal,
    enumerate_terminals,
    make_terminal_pattern,
    reduce,
    reduce_step,
    terminal_pattern,
)
from midconv.rigidity import index, is_irreducible
from midconv.tuplefile import write_tuple
import support

probe_index_conjecture = support.load_script("probe_mc_index").probe_index_conjecture

HYP = hypergeometric_example(1, F(1, 2), F(1, 3), 1)


def _blockdiag(mats):
    n = sum(m.rows for m in mats)
    off = 0
    out = [[F(0)] * n for _ in range(n)]
    for m in mats:
        for i in range(m.rows):
            for j in range(m.cols):
                out[off + i][off + j] = m[i, j]
        off += m.rows
    return Mat(out)


# ---------------------------------------------------------------------
# choose_pivot
# ---------------------------------------------------------------------

def test_choose_pivot_hypergeometric_any_valid():
    padded = pad_point(HYP, 1)
    pivots = choose_pivot(padded)
    # at infinity both blocks tie (all multiplicities 1); the finite point
    # must pick the whole space
    assert pivots[0].block.size == 1
    assert pivots[1].block.size == 2
    assert pivots[1].kernel_target == 3


def test_choose_pivot_ratio_example():
    # pattern (2,1)-((1,1),(1)): ratios 3 and 2, so the size-2 block wins
    a1 = Mat.diagonal([0, 0, 5])
    a0 = _blockdiag([Mat.diagonal([1, 3]), Mat([[7]])])
    t = make_tuple(
        3, infinity_point(1, [a1]), [finite_point(0, 0, [-a0])]
    )
    pv = choose_pivot(pad_point(t, 1))[0]
    assert pv.block.size == 2
    assert pv.block.eigenvalue == 0
    st0 = spectral_type(t, 0)
    assert st0.pattern() == ((2, (1, 1)), (1, (1,)))


def test_choose_pivot_ratio_beats_largest_block():
    # blocks: size 4 with parts (1,1,1,1) -> ratio 5; size 3 scalar inner
    # (parts (3)) -> ratio 6.  The maximizer is not the largest block.
    a1 = Mat.diagonal([0, 0, 0, 0, 1, 1, 1])
    inner_a = Mat.diagonal([2, 3, 4, 5])
    inner_b = Mat.diagonal([6, 6, 6])
    a0 = _blockdiag([inner_a, inner_b])
    t = make_tuple(7, infinity_point(1, [a1]), [finite_point(0, 0, [-a0])])
    tp = pad_point(t, 1)
    pv = choose_pivot(tp)[0]
    assert pv.block.size == 3
    # brute force: the chosen block satisfies the averaging inequality
    st0 = spectral_type(tp, 0)
    n = 7
    total = sum(nl * nl + sum(q * q for q in parts) for nl, parts in st0.pattern())
    nl = pv.block.size
    lhs = F(n, nl) * (nl * nl + sum(q * q for q in pv.block.parts()))
    assert lhs >= total


def test_choose_pivot_ratio_tie_goes_to_the_larger_kernel_target():
    # blocks: size 7 with parts (1,)*7 and size 6 with parts (3,1,1,1) both
    # have ratio 8; n_l + n_{l,1} is 8 and 9, so the later size-6 block wins
    a1 = Mat.diagonal([0] * 7 + [1] * 6)
    a0 = Mat.diagonal([1, 2, 3, 4, 5, 6, 7, 8, 8, 8, 9, 10, 11])
    t = make_tuple(13, infinity_point(1, [a1]), [finite_point(0, 0, [-a0])])
    pv = choose_pivot(pad_point(t, 1))[0]
    assert spectral_type(t, 0).pattern() == ((7, (1,) * 7), (6, (3, 1, 1, 1)))
    assert (pv.block.size, pv.kernel_target, pv.inner.value) == (6, 9, 8)


def test_choose_pivot_requires_rank_one():
    with pytest.raises(AssumptionViolated):
        choose_pivot(HYP)  # finite point not padded


def test_choose_pivot_rejects_nonsemisimple():
    b = pad_point(bessel_example(1, 0, 1, 1), 1)
    with pytest.raises(AssumptionViolated):
        choose_pivot(b)


# ---------------------------------------------------------------------
# reduce_step / reduce
# ---------------------------------------------------------------------

def test_reduce_step_hypergeometric_one_step():
    nxt, step = reduce_step(HYP)
    assert nxt is not None
    assert step.size_before == 2 and step.size_after == 1
    assert nxt.size == 1
    assert step.mu != 0


def test_reduce_step_builds_K_and_Lprime_once(monkeypatch):
    import midconv.convolution
    import midconv.reduction

    k_calls, lprime_mus = [], []
    orig_k = midconv.convolution.subspace_K
    orig_lprime = midconv.convolution.subspace_Lprime

    def counted_k(t):
        k_calls.append(t)
        return orig_k(t)

    def counted_lprime(t, mu):
        lprime_mus.append(mu)
        return orig_lprime(t, mu)

    for mod in (midconv.convolution, midconv.reduction):
        monkeypatch.setattr(mod, "subspace_K", counted_k)
        monkeypatch.setattr(mod, "subspace_Lprime", counted_lprime)
    big = max(support.forward_idx2_instances(99, want=4), key=lambda t: t.size)
    for t in (HYP, big):
        k_calls.clear()
        lprime_mus.clear()
        nxt, step = reduce_step(t)
        assert nxt is not None and nxt.size < t.size
        assert len(k_calls) == 1
        # one L'(mu) per candidate mu, the chosen one included
        assert step.mu in lprime_mus
        assert len(set(lprime_mus)) == len(lprime_mus)


def test_reduce_step_bessel_assumption_violated():
    with pytest.raises(AssumptionViolated, match="semisimple"):
        reduce_step(bessel_example(1, 0, 1, 1))


def _four_point_fuchsian():
    # rank-2 Fuchsian tuple, four points of pattern (1,1), index 0,
    # irreducible, with rational spectra everywhere
    residues = [
        Mat([[-1, -2], [0, -2]]),
        Mat([[1, 0], [-1, -1]]),
        Mat([[1, 0], [2, 1]]),
    ]
    pts = [finite_point(i, 0, [residues[i]]) for i in range(3)]
    return make_tuple(2, infinity_point(0, []), pts)


def test_reduce_step_terminal_on_idx0_four_point():
    t = _four_point_fuchsian()
    assert is_irreducible(t)
    assert index(t).index == 0
    for i in range(4):
        assert spectral_type(t, i).pattern() == ((2, (1, 1)),)
    nxt, step = reduce_step(t)
    assert nxt is None
    assert step.size_after >= step.size_before == 2


def test_reduce_takes_each_terminal_spectral_type_once(monkeypatch):
    # the terminal pattern comes from the last step's pivots, which carry
    # their points' patterns: one spectral type per point, with no second
    # pass over the unpadded tuple
    import midconv.reduction

    calls = []
    real = midconv.reduction.spectral_type
    monkeypatch.setattr(midconv.reduction, "spectral_type",
                        lambda t, i: calls.append(i) or real(t, i))
    trace = reduce(_four_point_fuchsian())
    assert len(calls) == 4
    assert trace.steps == ()
    assert trace.verdict == Terminal("four singularities {(d,d), (d,d), (d,d), (d,d)}, d=1",
                                     terminal_pattern(_four_point_fuchsian()))
    assert trace.verdict.pattern.points == (((2, (1, 1)),),) * 4


def test_mu_candidates_match_the_shifted_spectral_type(monkeypatch):
    # oracle: the candidates are the residue eigenvalues of the zero block of
    # spectral_type(shifted, 0), and mu maximizes dim L'(mu) over all of
    # them, ties to the smaller; _choose_mu reads the dimensions off the
    # pivot data and builds L'(mu) once, for the mu of that scan
    import midconv.reduction

    orig_choose, orig_lprime = midconv.reduction._choose_mu, midconv.reduction.subspace_Lprime
    seen = []  # (oracle candidates, unshifted pivot values, the scan's mu, mus built)

    def choose(shifted, pivots):
        zero = [b for b in spectral_type(shifted, 0).blocks if b.eigenvalue == 0]
        assert len(zero) == 1
        cands = sorted(e.value for e in zero[0].inner)
        dims = [orig_lprime(shifted, mu).dim for mu in cands]
        seen.append((cands, sorted(e.value for e in pivots[0].block.inner),
                     cands[dims.index(max(dims))], []))
        mu, lprime = orig_choose(shifted, pivots)
        assert lprime == orig_lprime(shifted, mu)
        return mu, lprime

    def lprime(t, mu):
        seen[-1][3].append(mu)
        return orig_lprime(t, mu)

    monkeypatch.setattr(midconv.reduction, "_choose_mu", choose)
    monkeypatch.setattr(midconv.reduction, "subspace_Lprime", lprime)
    chains = support.forward_idx2_instances(99, want=4) + support.forward_idx2_instances(123, want=3)
    steps = 0
    for t in chains:
        trace = reduce(t)
        assert isinstance(trace.verdict, ReducedToRankOne)
        steps += len(trace.steps)
    for t in (_four_point_fuchsian(), HYP):
        reduce(t)
    assert len(seen) >= steps + 2
    assert all(built == [mu] for _, _, mu, built in seen)
    # the residue shift moves the candidates at some step, and some step
    # has more than one candidate to choose from
    assert any(oracle != unshifted for oracle, unshifted, _, _ in seen)
    assert any(len(oracle) > 1 for oracle, _, _, _ in seen)


@pytest.mark.parametrize("diag", [[0, 1], [2, 2, 5], [1, 3, 3, 3]])
def test_mu_with_no_finite_point_is_zero_built_once(diag, monkeypatch):
    # r = 0: the derived residue is 0, so mu = 0 is the only candidate; L'(0)
    # drops the vectors with a pivot in the residue slot, so its dimension
    # is n_l, not n_l + g, and is not checked against the pivot data
    import midconv.reduction

    t = make_tuple(len(diag), infinity_point(1, [Mat.diagonal(diag)]), [])
    pivots = choose_pivot(t)
    shifted = addition(t, midconv.reduction._reduction_shift(t, pivots))
    built = []
    orig_lprime = midconv.reduction.subspace_Lprime
    monkeypatch.setattr(midconv.reduction, "subspace_Lprime",
                        lambda u, mu: built.append(mu) or orig_lprime(u, mu))
    mu, lprime = midconv.reduction._choose_mu(shifted, pivots)
    assert mu == 0 and built == [0]
    assert lprime == orig_lprime(shifted, 0)
    block = pivots[0].block
    assert lprime.dim == block.size < block.size + block.inner[0].geometric


def test_mu_choice_checks_dim_lprime_against_the_pivot(monkeypatch):
    # with a finite point, an L'(mu) of any other dimension than n_l + g is
    # an InternalError, not a wrong step
    import midconv.reduction

    orig_lprime = midconv.reduction.subspace_Lprime
    monkeypatch.setattr(midconv.reduction, "subspace_Lprime",
                        lambda t, mu: Subspace.zero(t.size * t.slot_count))
    with pytest.raises(InternalError, match="not n_l \\+ g"):
        reduce_step(HYP)
    monkeypatch.setattr(midconv.reduction, "subspace_Lprime", orig_lprime)
    assert reduce_step(HYP)[0].size == 1


def test_reduce_hypergeometric_trace():
    trace = reduce(HYP)
    assert isinstance(trace.verdict, ReducedToRankOne)
    assert len(trace.steps) == 1
    assert trace.terminal.size == 1


def test_reduce_bessel_verdict():
    trace = reduce(bessel_example(1, 0, 1, 1))
    assert isinstance(trace.verdict, AssumptionViolation)
    assert "semisimple" in trace.verdict.reason


def test_reduce_four_point_terminal_label():
    trace = reduce(_four_point_fuchsian())
    assert isinstance(trace.verdict, Terminal)
    assert trace.verdict.pattern.d == 1
    assert trace.verdict.label.startswith("four singularities")


def test_reduce_forward_constructed_instances():
    instances = support.forward_idx2_instances(99, want=4)
    assert len(instances) == 4
    assert any(t.size >= 3 for t in instances) or all(t.size == 2 for t in instances)
    for t in instances:
        trace = reduce(t)
        assert isinstance(trace.verdict, ReducedToRankOne), trace.verdict
        sizes = [t.size] + [s.size_after for s in trace.steps]
        assert all(a > b for a, b in zip(sizes, sizes[1:]))
        assert sizes[-1] == 1
        assert len(trace.steps) <= t.size - 1


def test_reduce_okubo_idx2_instances():
    rng = support.rng(314)
    found = 0
    tried = 0
    while found < 4 and tried < 300:
        tried += 1
        n = rng.choice([2, 2, 3])
        vals = sorted(rng.choice([0, 1, 2, -1]) for _ in range(n))
        a_mat = support.rand_matrix(rng, n)
        from midconv.model import from_okubo

        t = from_okubo(Mat.diagonal(vals), a_mat)
        if not is_irreducible(t) or index(t).index != 2:
            continue
        try:
            for i in range(t.num_points):
                spectral_type(t, i)
        except PreconditionError:
            continue
        trace = reduce(t)
        assert isinstance(trace.verdict, ReducedToRankOne)
        found += 1
    assert found == 4


def test_reduce_rank_one_immediate():
    t = make_tuple(1, infinity_point(1, [Mat([[2]])]),
                   [finite_point(0, 0, [Mat([[3]])])])
    trace = reduce(t)
    assert isinstance(trace.verdict, ReducedToRankOne)
    assert trace.steps == ()


def test_reduce_reducible_input():
    t = make_tuple(
        2, infinity_point(1, [Mat.diagonal([1, 2])]),
        [finite_point(0, 0, [Mat.diagonal([3, 4])])],
    )
    trace = reduce(t)
    assert isinstance(trace.verdict, AssumptionViolation)
    assert "reducible" in trace.verdict.reason


def test_index_constant_along_trace():
    for t in support.forward_idx2_instances(123, want=3):
        trace = reduce(t)
        assert isinstance(trace.verdict, ReducedToRankOne)
        assert index(trace.terminal).index == index(t).index == 2


def _forward(inf, finite, steps):
    """The tuple built from a rank-one seed (A_1 = inf at infinity, and
    finite points (location, [A_m, ..., A_0]) of 1 x 1 entries) by
    addition and middle convolution steps (shift, mu), stripped of trivial
    points after each."""
    t = make_tuple(1, infinity_point(1, [Mat([[inf]])]),
                   [finite_point(x, len(cs) - 1, [Mat([[c]]) for c in cs]) for x, cs in finite])
    for shift, mu in steps:
        t = strip_trivial(middle_convolution(addition(t, shift), mu).result)
    return t


# size-4 rigid inputs whose first step leaves a point with scalar
# coefficients: the finite point 2 in one, infinity in the other; the
# removal loop of reduce_step, which no benchmark input reaches
REMOVAL_CASES = {
    "finite": (_forward(1, [(0, [1]), (1, [F(3, 2)])], [([1, 2, 1], -2), ([0, 0, F(-1, 2)], -2)]),
               (2,), '{"command":"reduce","sizes":[4,2,1],"steps":[{"mu":"2","removed_points":[2],'
               '"shift":["0","0","0","0","5/2"],"size_after":2,"size_before":4},{"mu":"2",'
               '"removed_points":[],"shift":["0","0","0"],"size_after":1,"size_before":2}],'
               '"terminal":{"finite":[{"coeffs":{"0":[["3"]]},"m":0,"t":"0"}],'
               '"infinity":{"coeffs":{"1":[["2"]]},"m":1},"n":1},"verdict":{"kind":"rank_one"}}'),
    "infinity": (_forward(1, [(0, [-1, 1])], [([F(-1, 2), 0, -1], -2), ([F(-1, 2), 0, 0], F(-1, 3))]),
                 (0,), '{"command":"reduce","sizes":[4,2,1],"steps":[{"mu":"2","removed_points":[0],'
                 '"shift":["1/2","0","0"],"size_after":2,"size_before":4},{"mu":"-1/3",'
                 '"removed_points":[],"shift":["0","1","2/3"],"size_after":1,"size_before":2}],'
                 '"terminal":{"finite":[{"coeffs":{"0":[["0"]],"1":[["1"]]},"m":1,"t":"0"}],'
                 '"infinity":{"coeffs":{},"m":0},"n":1},"verdict":{"kind":"rank_one"}}'),
}


@pytest.mark.parametrize("case", sorted(REMOVAL_CASES))
def test_reduce_step_removes_a_point_and_keeps_the_index(case, tmp_path, capsys):
    t, removed, machine = REMOVAL_CASES[case]
    out, step = reduce_step(t)
    assert (t.size, step.size_after, step.removed_points) == (4, 2, removed)
    assert out.size == 2
    if removed == (0,):  # infinity stays, with rank 0 and no stored coefficient
        assert (out.num_finite, out.infinity.poincare_rank) == (t.num_finite, 0)
    else:
        assert out.num_finite == t.num_finite - 1
    assert index(out).index == index(t).index == 2
    path = str(tmp_path / "in.json")
    write_tuple(path, t)
    assert main(["--format", "machine", "reduce", path, "--trace"]) == 0
    assert capsys.readouterr().out == machine + "\n"


_SCALAR = Mat.identity(2)
_NOT_SCALAR = Mat([[0, 1], [1, 0]])


@pytest.mark.parametrize("inf_lead,residues,removed", [
    ([_SCALAR.scaled(2)], [_SCALAR, _NOT_SCALAR], (1, 0)),  # finite points first
    ([_SCALAR.scaled(2)], [_SCALAR], (1,)),  # infinity then holds every slot
    ([], [_SCALAR], ()),  # the one finite point holds every slot
], ids=["finite-then-infinity", "infinity-keeps-the-last-slot", "lone-finite-point"])
def test_reduce_step_removal_order(inf_lead, residues, removed, monkeypatch):
    # the step's quotient is replaced by a chosen size-2 tuple, so that only
    # the removal loop acts on it
    chosen = make_tuple(2, infinity_point(len(inf_lead), inf_lead),
                        [finite_point(x, 0, [a]) for x, a in enumerate(residues)])
    monkeypatch.setattr("midconv.reduction.strip_trivial", lambda t: chosen)
    out, step = reduce_step(REMOVAL_CASES["finite"][0])
    assert step.removed_points == removed
    assert out.slot_count == chosen.slot_count - len(removed)


# ---------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------

def test_classify_four_point():
    tp = make_terminal_pattern([((2, (1, 1)),)] * 4)
    assert tp.d == 1
    name = classify_terminal(tp)
    assert name is not None and name.startswith("four singularities")


def test_classify_two_point_deep_entry():
    point_a = ((5, (1, 1, 1, 1, 1)), (4, (2, 2)), (3, (3,)))
    point_b = ((12, (6, 6)),)
    tp = make_terminal_pattern([point_a, point_b])
    name = classify_terminal(tp)
    assert name == (
        "two singularities {(5d,4d,3d)-((d,d,d,d,d),(2d,2d),(3d)), (6d,6d)}"
    )


def test_classify_uncataloged():
    tp = make_terminal_pattern([((3, (2, 1)),), ((3, (1, 1, 1)),)])
    assert classify_terminal(tp) is None


def test_classify_invariant_under_permutation_and_scaling():
    pts = [
        ((2, (1, 1)), (2, (1, 1))),
        ((4, (1, 1, 1, 1)),),
    ]
    name = classify_terminal(make_terminal_pattern(pts))
    assert name is not None
    assert classify_terminal(make_terminal_pattern(pts[::-1])) == name
    scaled = [
        tuple((3 * nl, tuple(3 * q for q in parts)) for nl, parts in pat)
        for pat in pts
    ]
    tp3 = make_terminal_pattern(scaled)
    assert tp3.d == 3
    assert classify_terminal(tp3) == name


def test_terminal_pattern_from_tuple():
    tp = terminal_pattern(_four_point_fuchsian())
    assert tp.points == (((2, (1, 1)),),) * 4


# ---------------------------------------------------------------------
# enumerate_terminals
# ---------------------------------------------------------------------

def test_enumerate_r3_n2():
    pats = enumerate_terminals(3, 2)
    assert len(pats) == 1
    assert pats[0].points == (((2, (1, 1)),),) * 4
    assert pats[0].d == 1


def test_enumerate_r1_n2():
    pats = enumerate_terminals(1, 2)
    assert [p.points for p in pats] == [
        (((1, (1,)), (1, (1,))), ((1, (1,)), (1, (1,)))),
    ]


def test_enumerate_r1_n12_contains_deep_entry():
    pats = enumerate_terminals(1, 12)
    deep = make_terminal_pattern([
        ((5, (1, 1, 1, 1, 1)), (4, (2, 2)), (3, (3,))),
        ((12, (6, 6)),),
    ])
    assert any(p.points == deep.points and p.d == 1 for p in pats)


# The 17 catalog names as golden data: `reduce` labels and `enumerate` output
# carry them verbatim, so rendering them from the patterns must keep every byte.
CATALOG_NAMES = [
    "four singularities {(d,d), (d,d), (d,d), (d,d)}",
    "three singularities {(d,d,d), (d,d,d), (d,d,d)}",
    "three singularities {(2d,2d), (d,d,d,d), (d,d,d,d)}",
    "three singularities {(3d,3d), (2d,2d,2d), (d,d,d,d,d,d)}",
    "three singularities {(d,d)-((d),(d)), (d,d), (d,d)}",
    "two singularities {(d,d)-((d),(d)), (d,d)-((d),(d))}",
    "two singularities {(d,d,d)-((d),(d),(d)), (d,d,d)}",
    "two singularities {(d,d,d,d)-((d),(d),(d),(d)), (2d,2d)}",
    "two singularities {(2d,2d)-((d,d),(d,d)), (d,d,d,d)}",
    "two singularities {(3d,2d)-((d,d,d),(2d)), (d,d,d,d,d)}",
    "two singularities {(2d,2d,2d)-((d,d),(d,d),(d,d)), (3d,3d)}",
    "two singularities {(3d,3d,2d)-((d,d,d),(d,d,d),(2d)), (4d,4d)}",
    "two singularities {(5d,4d,3d)-((d,d,d,d,d),(2d,2d),(3d)), (6d,6d)}",
    "two singularities {(5d,4d)-((d,d,d,d,d),(2d,2d)), (3d,3d,3d)}",
    "two singularities {(3d,3d)-((d,d,d),(d,d,d)), (2d,2d,2d)}",
    "two singularities {(5d,3d)-((d,d,d,d,d),(3d)), (2d,2d,2d,2d)}",
    "two singularities {(4d,3d)-((2d,2d),(3d)), (d,d,d,d,d,d,d)}",
]


def test_enumerate_matches_catalog_up_to_8():
    # every pattern enumerated up to n = 12 is cataloged, and every one of
    # the 17 catalog entries appears at d = 1 (the largest has n = 12)
    seen = set()
    for r in (1, 2, 3):
        for tp in enumerate_terminals(r, 12):
            name = classify_terminal(tp)
            assert name is not None, tp.pattern_str()
            seen.add((name, tp.d))
    assert list(CATALOG.values()) == CATALOG_NAMES
    for name in CATALOG_NAMES:
        assert (name, 1) in seen, name


def test_enumerate_bounds():
    with pytest.raises(PreconditionError):
        enumerate_terminals(0, 4)
    with pytest.raises(PreconditionError):
        enumerate_terminals(1, 13)


# ---------------------------------------------------------------------
# conjecture probe
# ---------------------------------------------------------------------

def test_probe_runs_outside_hypotheses():
    # nilpotent leading coefficient: outside the proven case; findings are
    # recorded, never raised
    b = bessel_example(1, 0, 1, 1)
    finding = probe_index_conjecture(b, F(1, 2))
    assert set(finding) >= {"mu", "idx_before", "idx_after", "preserved"}
    assert finding["idx_before"] == 2


def test_probe_on_rank_two_point():
    rng = support.rng(61)
    for _ in range(3):
        t = support.rand_tuple(rng, 2, 1, [2, 0])
        if not is_irreducible(t):
            continue
        finding = probe_index_conjecture(t, F(1, 2))
        assert isinstance(finding["preserved"], bool)
