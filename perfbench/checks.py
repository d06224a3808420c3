"""Output checks that do not trust the program.

Each factory takes what the generator knows about a command's input and
returns a function from the parsed `--format machine` payload to the list
of problems found in it.  Expected values are computed with the
benchmark's own exact arithmetic (`exact`), never with midconv.

On the default seeds, `Digests` also compares the machine bytes of every
command against digests recorded when the benchmark was written: the
output must stay byte-stable.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from fractions import Fraction

import exact

DIGEST_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def _expect(problems: list[str], ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


def _conjugate_partition(parts) -> list[int]:
    return [sum(1 for x in parts if x >= k) for k in range(1, max(parts, default=0) + 1)]


# ---------------------------------------------------------------------
# Per-command checks
# ---------------------------------------------------------------------

def idx(doc: dict):
    """index == sum(local) + 2 n^2, and the report matches the input's
    shape and Poincare ranks."""
    n, rk = doc["n"], exact.ranks(doc)
    m_total = len(exact.slots(doc))

    def check(p):
        out: list[str] = []
        _expect(out, (p["n"], p["r"], p["M"]) == (n, len(rk) - 1, m_total),
                "idx: n, r, M differ from the input")
        dims, loc = p["commutant_dims"], p["local_indices"]
        _expect(out, len(dims) == len(loc) == len(rk), "idx: wrong number of points")
        for d, li, m in zip(dims, loc, rk):
            _expect(out, m + 1 <= d <= (m + 1) * n * n, f"idx: commutant dim {d} out of range")
            _expect(out, li == d - (m + 1) * n * n, "idx: local index != dim C - (m+1) n^2")
        _expect(out, p["index"] == sum(loc) + 2 * n * n, "idx: index != sum(local) + 2 n^2")
        _expect(out, p["index"] == sum(dims) - (m_total - 1) * n * n,
                "idx: index != sum(dim C) - (M-1) n^2")
        return out

    return check


def irred(expected: bool):
    """The generator builds each input irreducible or reducible by
    construction (see corpus.irreducible_doc and corpus.reducible_doc)."""

    def check(p):
        return [] if p["irreducible"] is expected else [f"irred: expected {expected}"]

    return check


def similar(a: dict, b: dict, expect: bool):
    """A returned intertwiner S satisfies S A = B S on every slot and
    det S != 0.  Pairs expected not similar differ in the rank of their
    single coefficient."""
    ca, cb = exact.slot_coeffs(a), exact.slot_coeffs(b)
    if not expect and exact.rank(ca[(0, 1)]) == exact.rank(cb[(0, 1)]):
        raise ValueError("a pair expected not similar must differ in rank")

    def check(p):
        if not expect:
            return [] if p["similar"] is False else ["similar: expected not similar"]
        if p["similar"] is not True:
            return ["similar: expected similar"]
        s = [[Fraction(x) for x in row] for row in p["intertwiner"]]
        out: list[str] = []
        _expect(out, exact.det(s) != 0, "similar: det S == 0")
        for slot, amat in ca.items():
            _expect(out, exact.matmul(s, amat) == exact.matmul(cb[slot], s),
                    f"similar: S A != B S at slot {slot}")
        return out

    return check


def _kernel_dims(doc: dict, mu: Fraction) -> tuple[list[int], int]:
    """dim K per point and dim L(mu) for mu != 0, as nullities of the
    block upper Toeplitz matrices of each point's principal part."""
    n = doc["n"]
    pts = exact.points(doc)
    dim_k = [0] + [len(c) * n - exact.rank(exact.block_upper_toeplitz(c)) for c in pts[1:]]
    corner = exact.sub(exact.residue_at_infinity(doc), exact.diagonal([mu] * n))
    inf = pts[0] + [corner]
    dim_l = len(inf) * n - exact.rank(exact.block_upper_toeplitz(inf))
    return dim_k, dim_l


def mc(doc: dict, mu: Fraction):
    """mc size == n M - sum dim K - dim L, with the dimensions recomputed
    here, and the result keeps the input's singular points."""
    n = doc["n"]
    m_total = len(exact.slots(doc))

    def check(p):
        out: list[str] = []
        dim_k, dim_l = _kernel_dims(doc, mu)
        _expect(out, p["mu"] == str(mu), "mc: mu echoed wrongly")
        _expect(out, p["dim_K"] == dim_k, f"mc: dim K {p['dim_K']}, expected {dim_k}")
        _expect(out, p["dim_L"] == dim_l, f"mc: dim L {p['dim_L']}, expected {dim_l}")
        size = n * m_total - sum(dim_k) - dim_l
        _expect(out, p["size"] == size == p["result"]["n"], "mc: size != n M - dim K - dim L")
        res = p["result"]
        _expect(out, exact.ranks(res) == exact.ranks(doc)
                and [f["t"] for f in res["finite"]] == [f["t"] for f in doc["finite"]],
                "mc: singular points changed")
        return out

    return check


def _conv_matrices(doc: dict, mu: Fraction) -> dict[tuple[int, int], list[list[str]]]:
    """The convolution matrices from their definition: for slot (i, j) the
    block row of (i, j) holds every coefficient, plus mu I in column
    (i, 0) when i != 0; rows (i, j') with j' > j hold mu I in column
    (i, j' - j); everything else is zero."""
    n = doc["n"]
    order = exact.slots(doc)
    coeffs = exact.slot_coeffs(doc)
    pos = {s: k * n for k, s in enumerate(order)}
    nm = n * len(order)
    rk = exact.ranks(doc)
    out = {}
    for (i, j) in order:
        big = exact.zeros(nm, nm)
        r0 = pos[(i, j)]
        for s in order:
            c0 = pos[s]
            for a in range(n):
                big[r0 + a][c0:c0 + n] = coeffs[s][a]
        if i != 0:
            for a in range(n):
                big[r0 + a][pos[(i, 0)] + a] += mu
        for jp in range(j + 1, rk[i] + 1):
            for a in range(n):
                big[pos[(i, jp)] + a][pos[(i, jp - j)] + a] = mu
        out[(i, j)] = [[str(x) for x in row] for row in big]
    return out


def conv(doc: dict, mu: Fraction):
    order = exact.slots(doc)

    def check(p):
        out: list[str] = []
        _expect(out, p["size"] == doc["n"] * len(order), "conv: size != n M")
        _expect(out, p["slots"] == [list(s) for s in order], "conv: slot order differs")
        want = _conv_matrices(doc, mu)
        for m in p["matrices"]:
            _expect(out, m["rows"] == want.get(tuple(m["slot"])),
                    f"conv: matrix of slot {m['slot']} differs from the definition")
        return out

    return check


def add(shifted: dict):
    def check(p):
        return [] if p["result"] == shifted else ["add: result != A + shift I"]

    return check


def spectral(doc: dict):
    """Multiplicities add up at every level, and the pattern index
    sum (n_l^2 + sum q^2) - 2 r n^2 is 2: forward-built tuples are rigid."""
    n = doc["n"]
    r = len(doc["finite"])

    def check(p):
        out: list[str] = []
        pts = p["points"]
        _expect(out, [q["point"] for q in pts] == list(range(r + 1)), "spectral: wrong points")
        weight = 0
        for q in pts:
            _expect(out, sum(b["size"] for b in q["blocks"]) == n,
                    "spectral: block sizes do not add up to n")
            for b in q["blocks"]:
                _expect(out, sum(e["multiplicity"] for e in b["inner"]) == b["size"],
                        "spectral: inner multiplicities do not add up to the block size")
                weight += b["size"] ** 2
                for e in b["inner"]:
                    _expect(out, sum(e["jordan"]) == e["multiplicity"],
                            "spectral: Jordan blocks do not add up to the multiplicity")
                    weight += sum(x * x for x in _conjugate_partition(e["jordan"]))
        _expect(out, weight - 2 * r * n * n == 2, "spectral: pattern index is not 2")
        return out

    return check


def reduce(doc: dict, terminal: str | None = None):
    """Sizes strictly decrease along the trace, and a forward-built input
    ends at rank one; an input that is terminal by construction (see
    corpus.terminal_doc) stops at once with the given pattern, d = 1."""
    n = doc["n"]

    def check(p):
        out: list[str] = []
        sizes, steps = p["sizes"], p["steps"]
        _expect(out, sizes[0] == n, "reduce: first size != n")
        _expect(out, all(a > b for a, b in zip(sizes, sizes[1:])),
                "reduce: sizes do not strictly decrease")
        if terminal is None:
            _expect(out, p["verdict"] == {"kind": "rank_one"} and sizes[-1] == 1
                    and p["terminal"]["n"] == 1, "reduce: did not end at rank one")
        else:
            v = p["verdict"]
            _expect(out, v["kind"] == "terminal" and v["pattern"] == terminal and v["d"] == 1
                    and sizes == [n] and p["terminal"] == doc,
                    f"reduce: did not stop at once at terminal {terminal}")
        _expect(out, [(s["size_before"], s["size_after"]) for s in steps]
                == list(zip(sizes, sizes[1:])), "reduce: steps disagree with sizes")
        return out

    return check


def _parse_pattern(text: str) -> list[list[tuple[int, list[int]]]]:
    """'{(2,2), (1,1)-((1),(1))}' -> per point its blocks (n_l, [q, ...]);
    a point without '-' is a single block of size sum(q)."""
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"not a pattern: {text!r}")
    points = []
    for point in text[1:-1].split(", "):
        groups = [[int(x) for x in g.split(",")] for g in re.findall(r"\(([\d,]+)\)", point)]
        if "-" in point:
            outer, inner = groups[0], groups[1:]
            if len(outer) != len(inner):
                raise ValueError(f"outer and inner blocks differ in number: {point!r}")
            points.append(list(zip(outer, inner)))
        else:
            points.append([(sum(groups[0]), groups[0])])
    return points


def enumerate_terminals(r: int, n_max: int):
    """Every listed pattern has r + 1 points of one size n0 with d n0 <=
    n_max, blocks whose inner multiplicities add up, coprime
    multiplicities, and index 0: sum (n_l^2 + sum q^2) == 2 r n0^2; no
    pattern is listed twice."""

    def check(p):
        out: list[str] = []
        pats = p["patterns"]
        _expect(out, bool(pats), "enumerate: no pattern")
        _expect(out, len({(q["points"], q["d"]) for q in pats}) == len(pats),
                "enumerate: a pattern is listed twice")
        for q in pats:
            points = _parse_pattern(q["points"])
            sizes = {sum(nl for nl, _ in pt) for pt in points}
            n0 = min(sizes)
            weight = sum(nl * nl + sum(x * x for x in parts) for pt in points for nl, parts in pt)
            mults = [x for pt in points for _, parts in pt for x in parts]
            ok = (len(points) == r + 1 and len(sizes) == 1 and q["n"] == q["d"] * n0 <= n_max
                  and all(sum(parts) == nl for pt in points for nl, parts in pt)
                  and math.gcd(*mults) == 1 and weight == 2 * r * n0 * n0)
            _expect(out, ok, f"enumerate: {q['points']}, d = {q['d']} is not terminal")
        return out

    return check


# ---------------------------------------------------------------------
# Verdict on one command
# ---------------------------------------------------------------------

def verify(cmd, code: int, out: str, err: str) -> list[str]:
    """Problems with one command's exit code and output.  An expected
    precondition failure (exit 3) is a correct answer."""
    if code != cmd.expect_exit:
        return [f"exit code {code}, expected {cmd.expect_exit}: {err.strip()[:200]}"]
    if cmd.expect_exit:
        ok = not out and err.startswith("precondition violated")
        return [] if ok else ["expected a precondition error and no output"]
    try:
        payload = json.loads(out)
        problems = cmd.check(payload)
    except (ValueError, KeyError, TypeError, IndexError) as e:
        return [f"malformed payload: {e!r}"]
    if cmd.written is not None:
        try:
            with open(cmd.written, encoding="utf-8") as fh:
                on_disk = json.load(fh)
        except (OSError, ValueError) as e:
            return problems + [f"cannot read back {os.path.basename(cmd.written)}: {e}"]
        if on_disk != payload["result"]:
            problems.append("file written differs from the printed result")
    return problems


def output_digest(code: int, out: str) -> str:
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()[:16]


class Digests:
    """Recorded machine-output digests, per workload and seed."""

    def __init__(self):
        try:
            with open(DIGEST_FILE, encoding="utf-8") as fh:
                self.table = json.load(fh)
        except FileNotFoundError:
            self.table = {}

    def expected(self, workload: str, seed: int) -> list[str] | None:
        return self.table.get(workload, {}).get(str(seed))

    def record(self, workload: str, seed: int, digests: list[str]) -> None:
        self.table.setdefault(workload, {})[str(seed)] = digests

    def save(self) -> None:
        with open(DIGEST_FILE, "w", encoding="utf-8") as fh:
            json.dump(self.table, fh, indent=1, sort_keys=True)
            fh.write("\n")
