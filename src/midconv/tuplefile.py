"""On-disk JSON format for tuples.

A tuple file is a JSON document

    {
      "n": 2,
      "infinity": {"m": 1, "coeffs": {"1": [["0","0"],["0","-1"]]}},
      "finite": [
        {"t": "0", "m": 0, "coeffs": {"0": [["-1/3","1"],["1/18","-1/6"]]}}
      ]
    }

with every rational written canonically as "p" or "p/q" (sign on the
numerator, q positive, gcd(p, q) = 1).  `coeffs` maps the pole index j
(as a string) to an n x n matrix given as a list of rows; the infinity
entry carries j = m..1, finite entries j = m..0.  Writing and re-reading
any tuple reproduces it exactly.

A matrix is read and written straight as integer rows over one
denominator (`Mat.num`, `Mat.den`); the literals of a row are checked by
one match, each distinct row of a matrix once, and a row that fails is
read literal by literal for the error.

The `--format machine` line is json.dumps(sort_keys=True) by json's C
encoder, each Mat a placeholder string that its rows replace; a tuple file
is indented by 2, which json does only in Python, so midconv writes it.
Both write a MatrixTuple as its tuple document and a Mat from its integer
rows, each distinct row object (most rows of an `mc` result are one shared
zero row) formatted once into its compact text, cut for indented rows.
The texts go into a dict, by denominator and row object, that the caller
may pass again: one command formats each row once for its machine line
and its -o file together.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from .errors import InternalError, ValidationError
from .exactla import Mat
from .model import MatrixTuple, SingularPoint

_LITERAL = r"[+-]?[0-9]+(?:/[0-9]+)?"
_RATIONAL_RE = re.compile(_LITERAL)
_ROW_RE = re.compile(rf"{_LITERAL}(?: {_LITERAL})*")  # literals joined by " "


def parse_rational(s: str) -> Fraction:
    """Parse "p" or "p/q"; rejects zero denominators and any other shape."""
    if not isinstance(s, str) or not _RATIONAL_RE.fullmatch(s):
        raise ValidationError(f"not a rational literal: {s!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValidationError(f"zero denominator in rational literal: {s!r}")
    except ValueError as e:  # more digits than int() converts
        raise ValidationError(f"too many digits in rational literal {s[:20]}...") from e


def _too_long() -> ValidationError:
    limit = sys.get_int_max_str_digits()
    return ValidationError(f"result entry too long to write: over {limit} digits")


def format_rational(x: Fraction) -> str:
    """The canonical literal of x.  More digits than int() converts to a
    string (4300 by default) is a ValidationError, as when reading."""
    try:
        return str(x)
    except ValueError as e:
        raise _too_long() from e


def _literals(rows, d: int, quote: str = "") -> dict[int, str]:
    """The canonical literal over d of each distinct numerator in rows,
    between `quote`s (see format_rational)."""
    try:
        return {x: f"{quote}{x // g}/{d // g}{quote}" if (g := gcd(x, d)) != d
                else f"{quote}{x // d}{quote}" for x in set(chain.from_iterable(rows))}
    except ValueError as e:
        raise _too_long() from e


def format_matrix(m: Mat) -> list[list[str]]:
    """The rows of m as canonical literals (see format_rational), each
    distinct numerator formatted once."""
    lit = _literals(m.num, m.den)
    return [list(map(lit.__getitem__, row)) for row in m.num]


def _rows_to_matrix(rows, n: int, where: str) -> Mat:
    if not isinstance(rows, list) or len(rows) != n:
        raise ValidationError(f"{where}: expected {n} matrix rows")
    out = []  # (integer row, its denominator)
    seen = {}  # the text of each valid row read so far -> its entry of out
    for row in rows:
        if not isinstance(row, list) or len(row) != n:
            raise ValidationError(f"{where}: expected rows of length {n}")
        try:
            text = " ".join(row)
            if (parsed := seen.get(text)) is None:
                if not _ROW_RE.fullmatch(text) or text.count(" ") != n - 1:
                    raise ValueError
                if "/" not in text:
                    parsed = list(map(int, row)), 1
                else:
                    pairs = [(int(p), int(q or 1)) for p, _, q in (x.partition("/") for x in row)]
                    d = lcm(*(q for _, q in pairs))
                    parsed = [p * (d // q) for p, q in pairs], d
                seen[text] = parsed
            out.append(parsed)
        except (TypeError, ValueError, ZeroDivisionError):
            for x in row:
                parse_rational(x)  # raises for the first bad literal
            raise
    d = lcm(*(e for _, e in out))
    return Mat.from_integers([r if e == d else [x * (d // e) for x in r] for r, e in out], d)


def _point_to_doc(p: SingularPoint, matrix) -> dict:
    coeffs = {
        str(p.poincare_rank - k): matrix(a)
        for k, a in enumerate(p.coeffs)
    }
    doc = {"m": p.poincare_rank, "coeffs": coeffs}
    if not p.is_infinity:
        doc = {"t": format_rational(p.location), **doc}
    return doc


def _to_doc(t: MatrixTuple, matrix) -> dict:
    """The tuple document of t with each matrix given as matrix(it)."""
    return {
        "n": t.size,
        "infinity": _point_to_doc(t.infinity, matrix),
        "finite": [_point_to_doc(p, matrix) for p in t.finite],
    }


def tuple_to_doc(t: MatrixTuple) -> dict:
    """The tuple document of t, each matrix as rows of canonical literals."""
    return _to_doc(t, format_matrix)


def _point_from_doc(doc, n: int, at_infinity: bool, where: str) -> SingularPoint:
    if not isinstance(doc, dict):
        raise ValidationError(f"{where}: expected an object")
    m = doc.get("m")
    if type(m) is not int or m < 0:  # JSON true/false parse to bool, an int subclass
        raise ValidationError(f"{where}: 'm' must be a non-negative integer")
    coeffs_doc = doc.get("coeffs")
    if not isinstance(coeffs_doc, dict):
        raise ValidationError(f"{where}: 'coeffs' must be an object")
    # compared before anything is sized by m, which may be huge
    lowest = 1 if at_infinity else 0
    if len(coeffs_doc) != m + 1 - lowest:
        raise ValidationError(
            f"{where}: {len(coeffs_doc)} coefficient keys, but 'm' needs "
            + ("m" if at_infinity else "m + 1")
        )
    js = list(range(m, lowest - 1, -1))
    if sorted(coeffs_doc.keys()) != sorted(str(j) for j in js):
        raise ValidationError(
            f"{where}: coefficient keys must be exactly {[str(j) for j in js]}"
        )
    coeffs = tuple(
        _rows_to_matrix(coeffs_doc[str(j)], n, f"{where}, coefficient {j}")
        for j in js
    )
    if at_infinity:
        return SingularPoint(None, m, coeffs)
    if "t" not in doc:
        raise ValidationError(f"{where}: missing location 't'")
    return SingularPoint(parse_rational(doc["t"]), m, coeffs)


def doc_to_tuple(doc) -> MatrixTuple:
    if not isinstance(doc, dict):
        raise ValidationError("tuple file must contain a JSON object")
    n = doc.get("n")
    if type(n) is not int or n < 1:
        raise ValidationError("'n' must be a positive integer")
    if "infinity" not in doc:
        raise ValidationError("missing 'infinity' entry")
    inf = _point_from_doc(doc["infinity"], n, True, "infinity")
    fin_doc = doc.get("finite", [])
    if not isinstance(fin_doc, list):
        raise ValidationError("'finite' must be a list")
    fin = tuple(
        _point_from_doc(d, n, False, f"finite point {k}")
        for k, d in enumerate(fin_doc)
    )
    return MatrixTuple(n, inf, fin)


def encode(x, ind: str | None = None, texts: dict | None = None) -> str:
    """json.dumps(x, sort_keys=True), compact for ind None, else indented by
    2 from ind; a MatrixTuple as its tuple document, a Mat as its rows of
    literals.  `texts` receives the compact text of each row formatted, and
    a later call given the same dict reuses them; it holds each row with
    its text, so no row object it names can be freed and its id reused."""
    texts = {} if texts is None else texts
    if ind is not None:
        _encode(x, ind, (out := []).append, texts)
        return "".join(out)
    mats: list[Mat] = []
    def placeholder(o):  # json's `default`: the k-th Mat becomes "\0k"
        if isinstance(o, Mat):
            mats.append(o)
            return f"\0{len(mats) - 1}"
        if isinstance(o, MatrixTuple):
            return _to_doc(o, lambda m: m)
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
    text = json.dumps(x, sort_keys=True, separators=(",", ":"), default=placeholder)
    if not mats:
        return text
    head, *rest = text.split('"\\u0000')  # a placeholder as json writes it
    if len(rest) != len(mats):  # a payload string holds a NUL
        raise InternalError(f"{len(rest)} matrix placeholders for {len(mats)} matrices")
    return "".join([head, *chain.from_iterable(
        (_matrix_text(m, None, texts), p.partition('"')[2]) for m, p in zip(mats, rest))])


def _matrix_text(m: Mat, ind: str | None, texts: dict) -> str:
    """The rows of m as `encode` writes them at ind (see there), in one join."""
    known = texts.setdefault(m.den, {})  # id(row) -> (row, compact text)
    ids = list(map(id, m.num))
    if new := {k: r for k, r in zip(ids, m.num) if k not in known}:
        lit = _literals(new.values(), m.den, '"')  # no literal holds a comma
        known.update({k: (r, f"[{','.join(map(lit.__getitem__, r))}]") for k, r in new.items()})
    if not ids:
        return "[]"
    if ind is None:
        start, sep, end, rows = "[", ",", "]", [known[k][1] for k in ids]
    else:
        inner, wide = ind + "  ", f",\n{ind}    "
        text = {k: f"[\n{inner}  {known[k][1][1:-1].replace(',', wide)}\n{inner}]"
                if m.cols else "[]" for k in set(ids)}
        start, sep, end, rows = f"[\n{inner}", f",\n{inner}", f"\n{ind}]", [text[k] for k in ids]
    rows[0] = start + rows[0]
    rows[-1] += end
    return sep.join(rows)


def _encode(x, ind: str, put, texts: dict) -> None:
    """json.dumps(x, indent=2, sort_keys=True) from ind, in pieces to put."""
    if isinstance(x, MatrixTuple):
        x = _to_doc(x, lambda m: m)
    if isinstance(x, Mat):
        return put(_matrix_text(x, ind, texts))
    if not isinstance(x, (dict, list, tuple)) or not x:  # a scalar, {} or []
        return put(json.dumps(x))
    ends, items = ("{}", sorted(x.items())) if isinstance(x, dict) else ("[]", x)
    inner = ind + "  "
    for k, v in enumerate(items):
        put(f",\n{inner}" if k else f"{ends[0]}\n{inner}")
        if isinstance(x, dict):
            put(json.dumps(v[0]) + ": ")
            v = v[1]
        _encode(v, inner, put, texts)
    put(f"\n{ind}{ends[1]}")


def dumps_tuple(t: MatrixTuple, texts: dict | None = None) -> str:
    """The file text of a tuple (`texts` as for `encode`)."""
    return encode(t, "", texts) + "\n"


def loads_tuple(text: str) -> MatrixTuple:
    try:
        doc = json.loads(text)
    except ValueError as e:  # JSONDecodeError, or an integer with too many digits
        raise ValidationError(f"invalid JSON: {e}") from e
    return doc_to_tuple(doc)


def write_tuple(path, t: MatrixTuple, texts: dict | None = None) -> None:
    """Write a tuple to path (`texts` as for `encode`)."""
    text = dumps_tuple(t, texts)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise ValidationError(f"cannot write {path}: {e}") from e


def read_tuple(path) -> MatrixTuple:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ValidationError(f"cannot read {path}: {e}") from e
    return loads_tuple(text)
