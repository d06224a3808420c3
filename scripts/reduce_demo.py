#!/usr/bin/env python3
"""Walk the confluent-hypergeometric system through the full pipeline:
rigidity report, kernel subspaces, middle convolution down to rank one,
and the inverse convolution back up, with the recovered similarity."""

from fractions import Fraction as F

from midconv.convolution import middle_convolution, subspace_K, subspace_L
from midconv.model import hypergeometric_example
from midconv.reduction import reduce
from midconv.rigidity import are_similar, index


def show(label, mat):
    print(f"{label}:")
    for row in mat.data:
        print("   [" + "  ".join(str(x).rjust(6) for x in row) + "]")


def main():
    nu, gamma, alpha, k = F(1), F(1, 2), F(1, 3), F(1)
    t = hypergeometric_example(nu, gamma, alpha, k)
    print(f"confluent hypergeometric tuple, nu={nu} gamma={gamma} alpha={alpha} k={k}")
    show("leading coefficient at infinity", t.infinity.coeffs[0])
    show("residue at the origin", t.finite[0].coeffs[0])

    rep = index(t)
    print(f"\ncommutant dims = {rep.commutant_dims}, index of rigidity = {rep.index}")

    _, big_k = subspace_K(t)
    print(f"dim K = {big_k.dim}, basis columns = {[list(v) for v in big_k.basis.data]}")
    for mu in (F(1), alpha):
        print(f"dim L({mu}) = {subspace_L(t, mu).dim}")

    out = middle_convolution(t, alpha)
    print(f"\nmc_{alpha}: size {t.size} -> {out.result.size}")
    show("new leading coefficient", out.result.infinity.coeffs[0])
    show("new residue", out.result.finite[0].coeffs[0])

    back = middle_convolution(out.result, -alpha)
    print(f"\nmc_{-alpha} back: size {out.result.size} -> {back.result.size}")
    s = are_similar(t, back.result)
    show("similarity S with S A = A' S", s)

    trace = reduce(t)
    sizes = [t.size] + [s.size_after for s in trace.steps]
    print(f"\nreduction trace sizes: {' -> '.join(map(str, sizes))}")
    print(f"verdict: {trace.verdict}")


if __name__ == "__main__":
    main()
