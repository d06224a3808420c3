"""Seeded corpora of midconv CLI commands, one per workload.

Every input is made from the workload seed by the generators below,
which follow the shape of the test suite's `rand_semisimple_tuple` and
forward-chain builder but are the benchmark's own, so that editing the
tests cannot move the inputs.  Inputs derived through middle convolution
(the `mc` outputs timed by `idx`, and the forward chains timed by
`reduce`) are computed with the library during set-up.

Sizes and skeletons are fixed per workload and only the entries depend
on the seed, so that a command's cost moves little from seed to seed;
a pass holds many mid-sized commands rather than a few large ones for
the same reason.  Left out of the timed corpus, because one of them
would take longer than a whole run:

* `similar` on reducible nilpotent pairs at n = 4 (162 s at this
  revision: the grid sweep is exponential).  The grid path still runs
  on the non-similar reducible pairs at n = 3, which the traced run
  counts as `rigidity.are_similar.det_calls`.
* `irred` at n = 12 (about 105 s); `irred` stops at n = 7 and `idx` at
  n = 10.
* `reduce` on sizes 9 to 11 (5 to 10 s each); `reduce` stops at size 8.

A change that makes one of these fast adds it to a workload.

`build(workload, seed, workdir)` writes the tuple files and returns the
command list; each command carries the check its output must pass.
"""

from __future__ import annotations

import json
import os
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import checks
import exact

WORKLOADS = ("rigidity", "reduce", "convolve")
MAX_CHAINS = 5000       # about a minute of search; a few hundred suffice
MAX_STEPS = 4           # addition + mc steps of a forward chain
LEAD_POOL = (0, 1, 2, -1)
ENUMERATE_NMAX = 12     # the largest size `enumerate` accepts


@dataclass
class Command:
    """One CLI call.  `check` returns the problems it finds in the parsed
    machine payload (None for a call expected to fail with `expect_exit`);
    `written` names the file the call writes, which must hold the
    payload's result."""

    kind: str
    args: list[str]
    check: Callable[[dict], list[str]] | None
    expect_exit: int = 0
    written: str | None = None


# ---------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------

def _semisimple(r: random.Random, n: int):
    """P D P^-1 with P unimodular and D cycling through LEAD_POOL, so that
    the eigenvalue multiplicities depend on n alone: the seed moves the
    entries, not the spectral structure a command's cost depends on."""
    p, pinv = exact.unimodular_pair(r, n)
    values = [LEAD_POOL[i % len(LEAD_POOL)] for i in range(n)]
    return exact.conjugate(p, exact.diagonal(values), pinv)


def rand_semisimple_doc(r: random.Random, n: int, ranks: list[int]) -> dict:
    """Poincare ranks [m0, m1, ..., mr], each at most 1; leading
    coefficients semisimple with eigenvalues in {0, 1, 2, -1}, residues
    with entries in -2..2."""
    inf = [_semisimple(r, n)] if ranks[0] == 1 else []
    finite = []
    for i, m in enumerate(ranks[1:]):
        coeffs = [_semisimple(r, n)] if m == 1 else []
        coeffs.append(exact.rand_int_matrix(r, n))
        finite.append((i, coeffs))
    return exact.make_doc(n, inf, finite)


def _strongly_connected(n: int, edges: set[tuple[int, int]]) -> bool:
    def reach(adj):
        seen, todo = {0}, [0]
        while todo:
            for b in adj.get(todo.pop(), ()):
                if b not in seen:
                    seen.add(b)
                    todo.append(b)
        return len(seen) == n

    fwd, bwd = {}, {}
    for a, b in edges:
        fwd.setdefault(a, []).append(b)
        bwd.setdefault(b, []).append(a)
    return reach(fwd) and reach(bwd)


def irreducible_doc(r: random.Random, n: int, num_finite: int) -> dict:
    """A tuple that is irreducible by construction: the leading
    coefficient at infinity is P D P^-1 with n distinct integer
    eigenvalues (the same ones for every seed), and
    in its eigenbasis the non-zero off-diagonal entries of the other
    generators form a strongly connected graph.  Then the algebra holds
    every spectral projection E_ii and every E_ij along an edge, hence
    all of M_n(Q)."""
    while True:
        p, pinv = exact.unimodular_pair(r, n)
        lead = exact.conjugate(p, exact.diagonal(list(range(-(n // 2), n - n // 2))), pinv)
        residues = [exact.rand_int_matrix(r, n) for _ in range(num_finite)]
        doc = exact.make_doc(n, [lead], [(i, [a]) for i, a in enumerate(residues)])
        edges = set()
        for b in residues + [exact.residue_at_infinity(doc)]:
            c = exact.matmul(exact.matmul(pinv, b), p)
            edges |= {(i, j) for i in range(n) for j in range(n) if i != j and c[i][j]}
        if _strongly_connected(n, edges):
            return doc


def reducible_doc(r: random.Random, n: int, num_finite: int) -> dict:
    """Every coefficient is P T P^-1 with T block upper triangular for the
    same split k + (n - k), so span(P e_1..P e_k) is invariant."""
    k = r.randint(1, n - 1)
    p, pinv = exact.unimodular_pair(r, n)

    def triangular():
        t = exact.rand_int_matrix(r, n)
        for i in range(k, n):
            for j in range(k):
                t[i][j] = exact.ZERO
        return exact.conjugate(p, t, pinv)

    return exact.make_doc(n, [triangular()],
                          [(i, [triangular()]) for i in range(num_finite)])


def terminal_doc(r: random.Random) -> dict:
    """A 2 x 2 Fuchsian tuple with three finite points that is terminal by
    construction: all four residues (infinity's included) have two
    distinct rational eigenvalues, so every point has pattern (1,1) and
    the index is 4 (2 - 2^2) + 2 * 2^2 = 0; and in the eigenbasis of the
    first residue the other two have both off-diagonal entries between
    them, so no line is invariant and the tuple is irreducible."""
    while True:
        p, pinv = exact.unimodular_pair(r, 2)
        a, b = r.sample(LEAD_POOL, 2)
        first = exact.conjugate(p, exact.diagonal([a, b]), pinv)
        residues = [first] + [exact.rand_int_matrix(r, 2) for _ in range(2)]
        doc = exact.make_doc(2, [], [(i, [c]) for i, c in enumerate(residues)])
        if not all(exact.splits_2x2(c) for c in residues + [exact.residue_at_infinity(doc)]):
            continue
        edges = set()
        for c in residues[1:]:
            c = exact.matmul(exact.matmul(pinv, c), p)
            edges |= {(i, j) for i in range(2) for j in range(2) if i != j and c[i][j]}
        if _strongly_connected(2, edges):
            return doc


def conjugated_doc(r: random.Random, doc: dict) -> dict:
    """The same system in another basis: every coefficient P A P^-1."""
    p, pinv = exact.unimodular_pair(r, doc["n"])
    pts = exact.points(doc)
    return exact.make_doc(
        doc["n"], [exact.conjugate(p, a, pinv) for a in pts[0]],
        [(fp["t"], [exact.conjugate(p, a, pinv) for a in coeffs])
         for fp, coeffs in zip(doc["finite"], pts[1:])])


def nilpotent_doc(r: random.Random, jordan: tuple[int, ...]) -> dict:
    """A single-slot tuple (rank one at infinity, no finite point) whose
    coefficient is nilpotent with the given Jordan block sizes."""
    n = sum(jordan)
    a = exact.zeros(n, n)
    off = 0
    for size in jordan:
        for i in range(off, off + size - 1):
            a[i][i + 1] = exact.ONE
        off += size
    p, pinv = exact.unimodular_pair(r, n)
    return exact.make_doc(n, [exact.conjugate(p, a, pinv)], [])


def _rand_rational(r: random.Random, nums, dens) -> Fraction:
    return Fraction(r.choice(nums), r.choice(dens))


def _to_lib(doc):
    from midconv import tuplefile
    return tuplefile.doc_to_tuple(doc)


def _from_lib(t) -> dict:
    from midconv import tuplefile
    return tuplefile.tuple_to_doc(t)


def mc_output_doc(doc: dict, mu: Fraction) -> dict:
    from midconv.convolution import middle_convolution
    return _from_lib(middle_convolution(_to_lib(doc), mu).result)


def forward_chains(r: random.Random,
                   targets: list[tuple[int, int, int]]) -> list[list[dict]]:
    """For each target (size, slot count, number of singular points), in
    order, a chain of tuples built forward from a rank-one seed by
    2..MAX_STEPS addition + middle convolution steps, ending at the first
    tuple that hits the target.

    Forward building from rank one keeps the index at 2, so each final
    tuple is rigid and `reduce` must take it back to rank one.  Chains
    whose points leave the reduction hypotheses (Poincare rank above 1, a
    leading coefficient that is not semisimple or a spectrum that is not
    rational) are discarded."""
    from midconv.convolution import middle_convolution
    from midconv.errors import PreconditionError
    from midconv.model import addition, spectral_type, strip_trivial

    def in_hypotheses(chain) -> bool:
        try:
            for c in chain:
                for i in range(c.num_points):
                    if c.point(i).poincare_rank > 1:
                        return False
                    spectral_type(c, i)
        except PreconditionError:
            return False
        return True

    need = Counter(targets)
    biggest = max(n for n, _, _ in targets)
    found: dict[tuple[int, int, int], list[list[dict]]] = {}
    for _ in range(MAX_CHAINS):
        if not need:
            return [found[tg].pop(0) for tg in targets]
        a = _rand_rational(r, (1, -1, 2, -2), (1, 2))
        finite = []
        for i in range(r.choice((1, 2))):
            m = r.choice((0, 1))
            finite.append((i, [[[_rand_rational(r, (1, -1, 2, 3), (1, 2))]]
                               for _ in range(m + 1)]))
        t = _to_lib(exact.make_doc(1, [[[a]]], finite))
        chain = []
        for _ in range(MAX_STEPS):
            shift = [Fraction(r.randint(-2, 2), r.choice((1, 2))) for _ in t.slots()]
            mu = _rand_rational(r, (1, -1, 2, -2, 3), (1, 2, 3))
            try:
                t = strip_trivial(middle_convolution(addition(t, shift), mu).result)
            except PreconditionError:
                break
            if t.size > biggest:
                break
            chain.append(t)
            key = (t.size, t.slot_count, t.num_points)
            if len(chain) >= 2 and need[key] and in_hypotheses(chain):
                found.setdefault(key, []).append([_from_lib(c) for c in chain])
                need -= Counter([key])
                break
    raise RuntimeError(f"no forward chain reached {sorted(need)} in {MAX_CHAINS} tries")


# ---------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------

class _Writer:
    def __init__(self, workdir: str):
        self.workdir = workdir
        self.count = 0

    def path(self, stem: str) -> str:
        self.count += 1
        return os.path.join(self.workdir, f"{self.count:03d}-{stem}.json")

    def write(self, stem: str, doc: dict) -> str:
        path = self.path(stem)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


def _rigidity(r: random.Random, w: _Writer) -> list[Command]:
    cmds = []
    for n, ranks in ([(3, [1, 1]), (3, [1, 0, 0]), (4, [1, 1]), (4, [1, 0, 0]),
                      (5, [1, 1]), (5, [1, 0, 0])]
                     + [(6, [1, 1]), (6, [1, 0, 0])] * 2 + [(7, [1, 1])] * 2
                     + [(7, [1, 0, 0]), (8, [1, 1]), (8, [1, 0, 0]), (10, [1, 0])]):
        doc = rand_semisimple_doc(r, n, ranks)
        cmds.append(Command("idx", ["idx", w.write("idx", doc)], checks.idx(doc)))
    for n in (3, 3, 4, 4):
        base = rand_semisimple_doc(r, n, [1, 0, 0])
        doc = mc_output_doc(base, _rand_rational(r, (1, -1, 2), (3, 5)))
        cmds.append(Command("idx", ["idx", w.write("idx-mc", doc)], checks.idx(doc)))
    for n, num_finite in ([(3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (5, 2)]
                          + [(6, 1), (6, 2), (6, 1), (7, 1)]):
        doc = irreducible_doc(r, n, num_finite)
        cmds.append(Command("irred", ["irred", w.write("irred", doc)],
                            checks.irred(True)))
    for n in (3, 4, 5):
        doc = reducible_doc(r, n, 2)
        cmds.append(Command("irred", ["irred", w.write("irred-red", doc)],
                            checks.irred(False)))
    for n, ranks in [(3, [1, 1]), (4, [1, 0, 0]), (5, [1, 1]), (6, [1, 0, 0]),
                     (7, [1, 1]), (8, [1, 1])]:
        a = rand_semisimple_doc(r, n, ranks)
        b = conjugated_doc(r, a)
        cmds.append(Command("similar", ["similar", w.write("sim-a", a), w.write("sim-b", b)],
                            checks.similar(a, b, expect=True)))
    for ja, jb in [((2, 1), (3,)), ((3,), (2, 1))]:
        a, b = nilpotent_doc(r, ja), nilpotent_doc(r, jb)
        cmds.append(Command("similar", ["similar", w.write("sim-a", a), w.write("sim-b", b)],
                            checks.similar(a, b, expect=False)))
    a = rand_semisimple_doc(r, 3, [1, 1])
    b = rand_semisimple_doc(r, 4, [1, 1])
    cmds.append(Command("similar", ["similar", w.write("sim-a", a), w.write("sim-b", b)],
                        None, expect_exit=3))
    return cmds


def _reduce(r: random.Random, w: _Writer) -> list[Command]:
    cmds = []
    targets = ([(5, 2, 2), (5, 3, 3)] * 3 + [(6, 2, 2)] * 5 + [(7, 3, 2)] * 2
               + [(8, 2, 2)])
    for chain in forward_chains(r, targets):
        for doc in chain:
            if doc["n"] >= 2:
                cmds.append(Command("spectral", ["spectral", w.write("spec", doc)],
                                    checks.spectral(doc)))
        final = chain[-1]
        cmds.append(Command("reduce", ["reduce", w.write("reduce", final), "--trace"],
                            checks.reduce(final)))
    for _ in range(2):
        doc = terminal_doc(r)
        cmds.append(Command("reduce", ["reduce", w.write("reduce-terminal", doc), "--trace"],
                            checks.reduce(doc, terminal="{(1,1), (1,1), (1,1), (1,1)}")))
    for num_finite in (1, 2, 3):
        cmds.append(Command("enumerate",
                            ["enumerate", "--r", str(num_finite), "--nmax", str(ENUMERATE_NMAX)],
                            checks.enumerate_terminals(num_finite, ENUMERATE_NMAX)))
    return cmds


def _convolve(r: random.Random, w: _Writer) -> list[Command]:
    cmds = []
    for n, num_finite in ([(8, 2), (8, 3), (12, 2), (12, 3), (16, 2), (16, 3)]
                          + [(12, 3), (16, 2), (16, 3)]):
        doc = rand_semisimple_doc(r, n, [1] * (num_finite + 1))
        src = w.write("conv", doc)
        mu = _rand_rational(r, (1, -1, 2, -2), (3, 5, 7))
        shift = [_rand_rational(r, (-2, -1, 1, 2), (1, 2)) for _ in exact.slots(doc)]
        mc_out, add_out = w.path("mc-out"), w.path("add-out")
        cmds.append(Command("mc", ["mc", src, f"--mu={mu}", "-o", mc_out],
                            checks.mc(doc, mu), written=mc_out))
        cmds.append(Command("conv", ["conv", src, f"--mu={mu}"], checks.conv(doc, mu)))
        shifted = exact.shifted_doc(doc, shift)
        cmds.append(Command("add", ["add", src, f"--shift={','.join(map(str, shift))}",
                                    "-o", add_out],
                            checks.add(shifted), written=add_out))
        cmds.append(Command("mc", ["mc", add_out, f"--mu={-mu}"],
                            checks.mc(shifted, -mu)))
    return cmds


_BUILDERS = {"rigidity": _rigidity, "reduce": _reduce, "convolve": _convolve}


def build(workload: str, seed: int, workdir: str) -> list[Command]:
    """Generate the workload's inputs for `seed`, write them under
    `workdir` and return the commands in run order."""
    return _BUILDERS[workload](random.Random(f"{workload}/{seed}"), _Writer(workdir))
