"""The benchmark's own exact arithmetic on tuple documents.

Matrices are lists of rows of `Fraction`.  Nothing here imports midconv:
the corpus generator and the output checks use this module so that a
change to the library can neither move the inputs nor vouch for its own
answers.

A tuple document is the tuple-file JSON object (`n`, `infinity`,
`finite`) with every rational written canonically as "p" or "p/q".
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import isqrt

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------

def diagonal(values) -> list[list[Fraction]]:
    n = len(values)
    return [[Fraction(values[i]) if i == j else ZERO for j in range(n)] for i in range(n)]


def identity(n: int) -> list[list[Fraction]]:
    return diagonal([ONE] * n)


def zeros(rows: int, cols: int) -> list[list[Fraction]]:
    return [[ZERO] * cols for _ in range(rows)]


def add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def matmul(a, b):
    bt = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col) if x), ZERO) for col in bt]
            for row in a]


def rank(a) -> int:
    """Rank by Gauss-Jordan elimination over Q, row by row."""
    rows = [list(r) for r in a]
    ncols = len(rows[0]) if rows else 0
    rk = 0
    for col in range(ncols):
        piv = next((i for i in range(rk, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        pv = rows[rk][col]
        prow = [x / pv for x in rows[rk]]
        rows[rk] = prow
        for i in range(rk + 1, len(rows)):
            f = rows[i][col]
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], prow)]
        rk += 1
    return rk


def det(a) -> Fraction:
    """Determinant by Gaussian elimination over Q."""
    rows = [list(r) for r in a]
    n = len(rows)
    out = ONE
    for col in range(n):
        piv = next((i for i in range(col, n) if rows[i][col]), None)
        if piv is None:
            return ZERO
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            out = -out
        pv = rows[col][col]
        out *= pv
        for i in range(col + 1, n):
            f = rows[i][col] / pv
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[col])]
    return out


def splits_2x2(a) -> bool:
    """A 2 x 2 matrix has two distinct rational eigenvalues: its
    discriminant is a positive rational square."""
    tr = a[0][0] + a[1][1]
    disc = tr * tr - 4 * det(a)
    num, den = disc.numerator, disc.denominator
    return disc > 0 and isqrt(num) ** 2 == num and isqrt(den) ** 2 == den


def block_upper_toeplitz(coeffs):
    """[[c0 c1 ... ck], [0 c0 ...], ..., [0 ... c0]] from n x n blocks."""
    n = len(coeffs[0])
    k = len(coeffs)
    out = []
    for a in range(k):
        for i in range(n):
            row = []
            for b in range(k):
                row.extend(coeffs[b - a][i] if b >= a else [ZERO] * n)
            out.append(row)
    return out


# ---------------------------------------------------------------------
# Seeded random matrices
# ---------------------------------------------------------------------

def unimodular_pair(r: random.Random, n: int):
    """An integer matrix P with det +-1 built from row shears, and its
    inverse, obtained by undoing the shears in reverse order."""
    p = identity(n)
    pinv = identity(n)
    shears = []
    for _ in range(2 * n + 2):
        i, j = r.randrange(n), r.randrange(n)
        if i != j:
            shears.append((i, j, r.choice((-1, 1))))
    for i, j, c in shears:                 # P = E_k ... E_1
        p[i] = [x + c * y for x, y in zip(p[i], p[j])]
    for i, j, c in shears:                 # P^-1 = E_1^-1 ... E_k^-1
        for row in pinv:
            row[j] -= c * row[i]
    return p, pinv


def rand_int_matrix(r: random.Random, n: int):
    return [[Fraction(r.choice((-2, -1, 0, 1, 2))) for _ in range(n)] for _ in range(n)]


def conjugate(p, a, pinv):
    return matmul(matmul(p, a), pinv)


# ---------------------------------------------------------------------
# Tuple documents
# ---------------------------------------------------------------------

def _rows_doc(a) -> list[list[str]]:
    return [[str(x) for x in row] for row in a]


def _rows(doc_rows) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in doc_rows]


def make_doc(n: int, inf_coeffs, finite) -> dict:
    """Tuple document from A_m..A_1 at infinity and a list of
    (location, [A_m..A_0]) for the finite points."""
    m0 = len(inf_coeffs)
    doc = {
        "n": n,
        "infinity": {"m": m0, "coeffs": {str(m0 - k): _rows_doc(a)
                                         for k, a in enumerate(inf_coeffs)}},
        "finite": [],
    }
    for t, coeffs in finite:
        m = len(coeffs) - 1
        doc["finite"].append({
            "t": str(Fraction(t)), "m": m,
            "coeffs": {str(m - k): _rows_doc(a) for k, a in enumerate(coeffs)},
        })
    return doc


def points(doc) -> list[list[list[list[Fraction]]]]:
    """Per point (infinity first) the stored coefficients A_m, ..., A_0
    (A_m, ..., A_1 at infinity)."""
    out = []
    for k, p in enumerate([doc["infinity"]] + list(doc["finite"])):
        lo = 1 if k == 0 else 0
        out.append([_rows(p["coeffs"][str(j)]) for j in range(p["m"], lo - 1, -1)])
    return out


def ranks(doc) -> list[int]:
    return [doc["infinity"]["m"]] + [p["m"] for p in doc["finite"]]


def slots(doc) -> list[tuple[int, int]]:
    """Slot order (0,m0),...,(0,1),(1,m1),...,(1,0),...,(r,0)."""
    rk = ranks(doc)
    out = [(0, j) for j in range(rk[0], 0, -1)]
    for i, m in enumerate(rk[1:], start=1):
        out.extend((i, j) for j in range(m, -1, -1))
    return out


def slot_coeffs(doc) -> dict[tuple[int, int], list[list[Fraction]]]:
    rk = ranks(doc)
    out = {}
    for i, coeffs in enumerate(points(doc)):
        for k, a in enumerate(coeffs):
            out[(i, rk[i] - k)] = a
    return out


def residue_at_infinity(doc):
    n = doc["n"]
    acc = zeros(n, n)
    for coeffs in points(doc)[1:]:
        acc = add(acc, coeffs[-1])
    return [[-x for x in row] for row in acc]


def shifted_doc(doc, shift) -> dict:
    """The addition A_j^(i) + c I, one scalar per slot in slot order."""
    n = doc["n"]
    by_slot = dict(zip(slots(doc), shift))
    rk = ranks(doc)
    pts = points(doc)

    def moved(i):
        return [add(a, diagonal([by_slot[(i, rk[i] - k)]] * n))
                for k, a in enumerate(pts[i])]

    finite = [(p["t"], moved(i)) for i, p in enumerate(doc["finite"], start=1)]
    return make_doc(n, moved(0), finite)
