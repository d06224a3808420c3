"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its runtime and enforcing the stated budget.  All comparisons
are exact (zero tolerance)."""

import time
from fractions import Fraction as F

from midconv.errors import PreconditionError
from midconv.exactla import Mat, rational_spectrum
from midconv.convolution import (
    middle_convolution,
    subspace_K,
    subspace_L,
    subspace_Lprime,
)
from midconv.model import (
    addition,
    bessel_example,
    finite_point,
    from_okubo,
    hypergeometric_example,
    infinity_point,
    make_tuple,
)
from midconv.reduction import (
    AssumptionViolation,
    CATALOG,
    ReducedToRankOne,
    classify_terminal,
    enumerate_terminals,
    reduce,
)
from midconv.rigidity import (
    are_similar,
    commutant_dim,
    index,
    is_irreducible,
    okubo_index,
)
import support
from support import check_invariance


class _Criterion:
    def __init__(self, name: str, limit_s: float):
        self.name = name
        self.limit = limit_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None and elapsed < self.limit else "FAIL"
        print(f"ACCEPTANCE {self.name}: {status} ({elapsed:.2f}s, budget {self.limit}s)")
        if exc_type is None:
            assert elapsed < self.limit, f"{self.name} exceeded {self.limit}s"
        return False


def test_criterion_1_worked_example():
    with _Criterion("1 worked example", 1.0):
        nu, gamma, alpha, k = F(1), F(1, 2), F(1, 3), F(1)
        t = hypergeometric_example(nu, gamma, alpha, k)

        rep = index(t)
        assert rep.index == 2
        assert rep.commutant_dims == (4, 2)

        per, big_k = subspace_K(t)
        assert big_k.dim == 1
        assert support.contains(big_k, [0, 0, k, alpha])

        for mu in (F(1), F(-2, 5), F(7), F(1, 6)):
            assert subspace_L(t, mu).dim == 1
        assert subspace_L(t, alpha).dim == 2

        out = middle_convolution(t, alpha)
        assert out.result.size == 1
        assert out.result.infinity.coeffs[0] == Mat([[-1]])
        assert out.result.finite[0].coeffs[0] == Mat([[F(-1, 6)]])

        back = middle_convolution(out.result, -alpha)
        assert back.result.size == 2
        expected = make_tuple(
            2,
            infinity_point(1, [Mat([[-nu, alpha - gamma], [0, 0]])]),
            [finite_point(0, 0, [Mat([[0, 0], [-nu, -gamma]])])],
        )
        assert are_similar(expected, back.result) is not None

        assert are_similar(t, back.result) is not None
        w = Mat([[alpha - gamma, -k], [nu, 0]])
        for (i, j) in t.slots():
            assert w * t.coeff(i, j) == back.result.coeff(i, j) * w


def test_criterion_2_bessel_obstruction():
    with _Criterion("2 bessel obstruction", 1.0):
        b = bessel_example(1, 0, 1, 1)
        assert index(b).index == 2
        rng = support.rng(202)
        combos = 0
        while combos < 20:
            shift = [support.rand_fraction(rng), support.rand_fraction(rng)]
            mu = support.rand_fraction(rng)
            assert subspace_Lprime(addition(b, shift), mu).dim <= 1
            combos += 1
        trace = reduce(b)
        assert isinstance(trace.verdict, AssumptionViolation)


def test_criterion_3_subspace_property_suite():
    with _Criterion("3 subspace properties (50 instances)", 60.0):
        rng = support.rng(303)
        irreducible_seen = 0
        for trial in range(50):
            n = rng.choice([2, 2, 3, 4])
            r = rng.choice([1, 1, 2])
            ranks = [rng.choice([0, 1, 2])] + [rng.choice([0, 1, 2]) for _ in range(r)]
            if sum(ranks) == 0 and r == 0:
                ranks[0] = 1
            t = support.rand_tuple(rng, n, r, ranks)
            mu = F(rng.choice([1, -1, 2, 3, 5]), rng.choice([1, 2, 3]))

            assert check_invariance(t, mu).all_pass
            assert check_invariance(t, 0).all_pass

            _, big_k = subspace_K(t)
            big_l = subspace_L(t, mu)
            assert big_k.sum(big_l).dim == big_k.dim + big_l.dim

            l0 = subspace_L(t, 0)
            lp0 = subspace_Lprime(t, 0)
            assert l0.sum(big_k.sum(lp0)) == l0

            rep = index(t)
            assert rep.index == sum(rep.local_indices) + 2 * n * n

            shifts = [support.rand_fraction(rng) for _ in t.slots()]
            assert index(addition(t, shifts)).index == rep.index

            if is_irreducible(t):
                irreducible_seen += 1
                assert big_k.dim + lp0.dim <= n * (t.slot_count - 1)
        assert irreducible_seen >= 10


_PROP43 = None


def _prop43_set():
    global _PROP43
    if _PROP43 is None:
        _PROP43 = support.prop43_instances(404, want=30)
    return _PROP43


def test_criterion_4_index_preserved_by_mc():
    with _Criterion("4 index preserved by mc (30 instances x 3 mu)", 60.0):
        instances = _prop43_set()
        assert len(instances) >= 30
        for t, mus in instances:
            idx0 = index(t).index
            assert len(mus) == 3
            for mu in mus:
                out = middle_convolution(t, mu)
                assert index(out.result).index == idx0


def test_criterion_5_involution():
    with _Criterion("5 involution (30 instances)", 60.0):
        instances = _prop43_set()
        assert len(instances) >= 30
        for t, mus in instances:
            mu = next(m for m in mus if m != 0)
            fwd = middle_convolution(t, mu)
            back = middle_convolution(fwd.result, -mu)
            assert back.result.size == t.size
            assert are_similar(t, back.result) is not None


def test_criterion_6_commutant_formula():
    with _Criterion("6 commutant closed form (50 instances)", 60.0):
        rng = support.rng(606)
        for trial in range(50):
            data = support.rand_L_block_point(rng, with_zero_block=True)
            n = data["n"]
            t = make_tuple(
                n,
                infinity_point(1, [Mat.diagonal([1] * n)]),
                [finite_point(0, 1, [data["a1"], data["a0"]])],
            )
            assert commutant_dim(t, 1) == data["closed"]
            if trial % 5 == 0:
                assert support.commutant_dim_dense(t, 1) == data["closed"]
            per, _ = subspace_K(t)
            assert per[1].dim == data["n1"] + data["n11"]


def test_criterion_7_terminal_catalog():
    with _Criterion("7 terminal catalog (r <= 3, n <= 12)", 600.0):
        expected = {1: set(), 2: set(), 3: set()}
        for key, _name in CATALOG.items():
            r = len(key) - 1
            base_n = sum(nl for nl, _ in key[0])
            d = 1
            while d * base_n <= 12:
                expected[r].add((key, d))
                d += 1
        for r in (1, 2, 3):
            got = {(tp.points, tp.d) for tp in enumerate_terminals(r, 12)}
            assert got == expected[r], f"r={r} mismatch"
        # spot checks from the catalog text
        assert any(
            tp.d == 2 and classify_terminal(tp) is not None
            for tp in enumerate_terminals(1, 12)
        )


def test_criterion_8_okubo_bridge():
    with _Criterion("8 okubo bridge (20 instances)", 60.0):
        rng = support.rng(808)
        done = 0
        while done < 20:
            n = rng.choice([2, 2, 3, 3, 4])
            vals = sorted(rng.choice([0, 1, 2, -1]) for _ in range(n))
            t_mat = Mat.diagonal(vals)
            a_mat = support.rand_matrix(rng, n)
            try:
                oi = okubo_index(t_mat, a_mat)
            except PreconditionError:
                continue
            assert oi == index(from_okubo(t_mat, a_mat)).index
            done += 1


def test_criterion_9_katz_reduction():
    with _Criterion("9 katz reduction (10 constructed instances)", 60.0):
        instances = support.forward_idx2_instances(909, want=10, max_tries=800)
        assert len(instances) >= 10
        for t in instances:
            assert index(t).index == 2 and is_irreducible(t)
            trace = reduce(t)
            assert isinstance(trace.verdict, ReducedToRankOne), (t.size, trace.verdict)
            sizes = [t.size] + [s.size_after for s in trace.steps]
            assert all(a > b for a, b in zip(sizes, sizes[1:]))
            assert sizes[-1] == 1


def test_criterion_10_cyclic_centralizers_and_intertwiners():
    t16 = support.rand_semisimple_tuple(support.rng(16), 16, 2, [1, 0, 0])
    t12 = support.rand_semisimple_tuple(support.rng(12), 12, 2, [1, 0, 0])
    u12 = support.conjugated(t12, support.unimodular(support.rng(12), 12))
    # the lead at infinity is semisimple with rational eigenvalues, and every
    # block of the residue and both finite residues are cyclic
    lead_dim = sum(k * k for _, k in rational_spectrum(t16.infinity.coeffs[0])[0])
    with _Criterion("10 idx at n=16, similar at n=12", 2.0):
        assert index(t16).index == lead_dim + 3 * 16 - 2 * 16 * 16
        s = are_similar(t12, u12)
        assert s is not None
        assert all(s * t12.coeff(i, j) == u12.coeff(i, j) * s for (i, j) in t12.slots())
