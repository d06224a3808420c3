#!/usr/bin/env python3
"""Empirical probe: is the index of rigidity preserved by middle
convolution beyond the proven case (all Poincare ranks <= 1 with
semisimple leading coefficients)?

The probe runs random irreducible instances with rank-2 slots or
non-semisimple leading coefficients, applies one middle convolution, and
records whether the index survived.  Mismatches are findings to report,
not errors.
"""

import argparse
import random
from fractions import Fraction as F

from midconv.convolution import middle_convolution
from midconv.errors import PreconditionError
from midconv.exactla import Mat
from midconv.model import MatrixTuple, SingularPoint, bessel_example, make_tuple
from midconv.rigidity import index, is_irreducible


def probe_index_conjecture(t: MatrixTuple, mu) -> dict:
    """Empirical probe: is the rigidity index preserved by one middle
    convolution on this input?  Intended for inputs outside the proven
    hypotheses; a mismatch is reported as a finding, never raised."""
    before = index(t)
    outcome = middle_convolution(t, mu)
    after = index(outcome.result)
    return {
        "mu": mu,
        "size_before": t.size,
        "size_after": outcome.result.size,
        "idx_before": before.index,
        "idx_after": after.index,
        "preserved": before.index == after.index,
    }


def rand_matrix(rng, n, pool=(-2, -1, 0, 1, 2)):
    return Mat([[F(rng.choice(pool)) for _ in range(n)] for _ in range(n)])


def random_instance(rng):
    n = rng.choice([2, 2, 3])
    kind = rng.choice(["rank2", "nilpotent"])
    if kind == "rank2":
        ranks = [2, rng.choice([0, 1])]
    else:
        ranks = [1, 0]
    coeffs_inf = [rand_matrix(rng, n) for _ in range(ranks[0])]
    if kind == "nilpotent":
        rows = [[F(0)] * n for _ in range(n)]
        for i in range(n - 1):
            rows[i][i + 1] = F(rng.choice([1, -1]))
        coeffs_inf = [Mat(rows)]
    inf = SingularPoint(None, ranks[0], tuple(coeffs_inf))
    fins = [SingularPoint(F(0), ranks[1],
                          tuple(rand_matrix(rng, n) for _ in range(ranks[1] + 1)))]
    return make_tuple(n, inf, fins), kind


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=20)
    ap.add_argument("--seed", type=int, default=2024)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    findings = []
    done = 0
    tried = 0
    while done < args.count and tried < args.count * 20:
        tried += 1
        t, kind = random_instance(rng)
        if not is_irreducible(t):
            continue
        mu = F(rng.choice([1, -1, 2, 3]), rng.choice([1, 2, 3]))
        try:
            finding = probe_index_conjecture(t, mu)
        except PreconditionError:
            continue
        finding["kind"] = kind
        findings.append(finding)
        done += 1

    # the Bessel-type nilpotent example is always included
    finding = probe_index_conjecture(bessel_example(1, 0, 1, 1), F(1, 2))
    finding["kind"] = "bessel"
    findings.append(finding)

    preserved = sum(1 for f in findings if f["preserved"])
    print(f"probed {len(findings)} instances outside the proven hypotheses")
    print(f"index preserved: {preserved}/{len(findings)}")
    for f in findings:
        if not f["preserved"]:
            print(
                f"FINDING: kind={f['kind']} mu={f['mu']} "
                f"size {f['size_before']}->{f['size_after']} "
                f"idx {f['idx_before']}->{f['idx_after']}"
            )
    if preserved == len(findings):
        print("no counterexamples found in this run")


if __name__ == "__main__":
    main()
