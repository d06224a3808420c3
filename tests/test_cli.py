"""Tuple file round trips and the command-line interface."""

import ast
import copy
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import midconv
from midconv import cli, tuplefile
from midconv.cli import main
from midconv.convolution import middle_convolution
from midconv.errors import InternalError, PreconditionError, ValidationError
from midconv.exactla import Mat
from midconv.model import (
    MatrixTuple,
    SingularPoint,
    bessel_example,
    hypergeometric_example,
    inverse_laplace_example,
)
from midconv.tuplefile import (
    dumps_tuple,
    encode,
    format_matrix,
    format_rational,
    loads_tuple,
    parse_rational,
    read_tuple,
    tuple_to_doc,
    write_tuple,
)
import support

HYP = hypergeometric_example(1, F(1, 2), F(1, 3), 1)


# ---------------------------------------------------------------------
# rationals and round trips
# ---------------------------------------------------------------------

def test_parse_rational_canonical():
    assert parse_rational("-3/2") == F(-3, 2)
    assert parse_rational("7") == 7
    assert format_rational(F(6, -4)) == "-3/2"
    assert format_rational(F(5, 1)) == "5"


@pytest.mark.parametrize("bad", ["1/0", "1.5", "1e3", "--3", "3/-2", "", "a", "5\n", "1/2\n",
                                 pytest.param("1" * 5000, id="5000-digits")])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValidationError):
        parse_rational(bad)


def test_round_trip_identity():
    rng = support.rng(71)
    for _ in range(8):
        ranks = [rng.choice([0, 1, 2])] + [rng.choice([0, 1]) for _ in range(2)]
        t = support.rand_tuple(rng, rng.choice([1, 2, 3]), 2, ranks,
                               pool=(-2, -1, 0, 1, F(1, 2), F(-2, 3)))
        assert loads_tuple(dumps_tuple(t)) == t


def _json_indent(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_dumps_matches_json_indent_encoder():
    rng = support.rng(72)
    big = F(10 ** 99 + 7, 3 * 10 ** 99 + 1)  # 100-digit numerator and denominator
    tuples = [hypergeometric_example(1, F(1, 2), F(1, 3), 1),
              bessel_example(1, 0, 1, 1),
              inverse_laplace_example(1, 0, 1, 1),
              support.rand_tuple(rng, 2, 2, [0, 1, 0], pool=(big, -big, 0)),
              support.rand_tuple(rng, 1, 0, [3])]  # no finite points
    for _ in range(6):
        ranks = [rng.randint(0, 11)] + [rng.randint(0, 11) for _ in range(2)]
        tuples.append(support.rand_tuple(rng, rng.choice([1, 2, 3]), 2, ranks,
                                         pool=(-2, 0, 1, F(-5, 7), F(1, 2))))
    assert any(t.infinity.poincare_rank >= 10 for t in tuples)  # "10" sorts before "2"
    for t in tuples:
        assert dumps_tuple(t) == _json_indent(tuple_to_doc(t))


def _string_rows(x):
    """A payload with each MatrixTuple as tuple_to_doc gives it and each Mat
    as format_matrix gives it: the form json.dumps encodes."""
    if isinstance(x, MatrixTuple):
        return tuple_to_doc(x)
    if isinstance(x, Mat):
        return format_matrix(x)
    if isinstance(x, dict):
        return {k: _string_rows(v) for k, v in x.items()}
    if isinstance(x, list):
        return list(map(_string_rows, x))
    return x


def _check_encode(payload):
    doc = _string_rows(payload)
    assert encode(payload) == json.dumps(doc, sort_keys=True, separators=(",", ":"))
    assert encode(payload, "") == json.dumps(doc, indent=2, sort_keys=True)


def test_encode_matches_json_on_edge_payloads():
    _check_encode({
        "one": Mat([[F(-5, 7)]]),
        "no_rows": Mat.zeros(0, 3),
        "nested_no_rows": [Mat.zeros(0, 0), {"m": Mat.zeros(0, 2), "k": [Mat.zeros(0, 1)]}],
        "empty_rows": Mat.zeros(2, 0),
        "negative": Mat([[F(-1, 2), -3], [0, F(-22, 6)]]),
        "verdict": {"kind": "assumption_violated", "reason": "\u03bc \u2260 0 \u2014 \u00fcber \"q\"\n"},
        "tuple": support.rand_tuple(support.rng(75), 1, 0, [2], pool=(F(-1, 3), 0, 2)),
        "empty": [{}, [], ""], "flags": [True, False, None], "sizes": [0, -3, 10 ** 30],
        # each distinct row is formatted once and reused
        "repeated_rows": Mat([[1, F(1, 2)], [0, 0], [1, F(1, 2)], [0, 0], [F(-3, 4), 2]]),
        "zero_rows": Mat.zeros(3, 2),
        "one_row_repeated": Mat([[F(-2, 3), 5, 0, F(10, 3)]] * 4),
        # band rows of rank-2 points: many zero rows and repeated rows
        "mc_rank2": middle_convolution(support.rand_tuple(support.rng(76), 2, 2, [2, 2, 0]),
                                       F(1, 3)).result,
    })


def test_encode_matches_json_on_shared_row_objects():
    # distinct rows are found by row object: one Mat twice, two Mats sharing
    # row objects over different denominators, and equal rows that are
    # different objects must all give json's bytes
    shared, zero = (3, 0, -6), (0, 0, 0)
    a = Mat.from_integers([shared, zero, shared], 4)
    b = Mat.from_integers([zero, shared, zero], 7)
    c = Mat.from_integers([list(shared), list(shared), [0, 0, 0]], 4)
    assert a.num[0] is b.num[1] is shared and c.num[0] is not c.num[1]
    tup = MatrixTuple(3, SingularPoint(None, 1, (a,)), (SingularPoint(F(0), 1, (b, a)),))
    payload = {"a": a, "again": a, "b": b, "c": c, "list": [a, b, a, c], "tuple": tup}
    _check_encode(payload)
    # one dict of row texts across calls, as cli.main shares one between
    # its machine line and its -o file, in either order
    for order in ((None, ""), ("", None)):
        texts = {}
        for ind in order * 2:
            assert encode(payload, ind, texts) == encode(payload, ind)
    assert dumps_tuple(tup, {}) == _json_indent(tuple_to_doc(tup))


def test_encode_row_texts_outlive_no_row():
    # the dict holds each row it names, so a freed row's id is never
    # reused for another row's text
    texts = {}
    for k in range(64):
        m = Mat.from_integers([[k, -k, 1]], 3)
        assert encode(m, None, texts) == json.dumps(format_matrix(m), separators=(",", ":"))
        assert encode(m, "", texts) == json.dumps(format_matrix(m), indent=2)


def test_machine_line_row_texts_serve_the_o_file(tmp_path):
    # the machine line fills one texts dict with every row of the mc result,
    # and the -o file then formats no row again, for json's bytes on both
    t = support.rand_tuple(support.rng(77), 2, 2, [1, 0, 0], pool=(-1, 0, 1, F(1, 2)))
    path = tmp_path / "t.json"
    write_tuple(path, t)
    mc, texts = _payload(["mc", path, "--mu", "1/3"]), {}
    assert encode(mc, None, texts) == encode(mc)
    known = {d: dict(rows) for d, rows in texts.items()}
    assert known and dumps_tuple(mc["result"], texts) == _json_indent(tuple_to_doc(mc["result"]))
    assert texts == known


def test_encode_nul_in_a_string_beside_a_matrix_is_an_internal_error():
    # json writes the string "\x000" as a matrix placeholder is written, so
    # the splice finds one placeholder more than there are matrices
    m = Mat([[1, F(1, 2)]])
    with pytest.raises(InternalError, match="2 matrix placeholders for 1 matrices"):
        encode({"m": m, "s": "\x000"})
    assert encode({"m": m, "s": "\x000"}, "") == json.dumps(
        {"m": format_matrix(m), "s": "\x000"}, indent=2, sort_keys=True)
    for payload in ({"s": "\x000"}, ["\x00", "a\x00b", '"\x001', "\\u00000"], {"\x000": 1}):
        assert encode(payload) == json.dumps(payload, sort_keys=True, separators=(",", ":"))
    for ind in (None, ""):
        with pytest.raises(TypeError, match="not JSON serializable"):
            encode({"m": m, "x": F(1, 2)}, ind)


@pytest.mark.parametrize("fmt", ["machine", "human"])
def test_cli_mc_o_on_a_large_result_writes_json_bytes(fmt, tmp_path, capsys, monkeypatch):
    # size 48, most rows zero and shared: the machine line and the file
    # share row texts; the human path formats the file on its own
    t = support.rand_tuple(support.rng(8), 8, 3, [0, 1, 1, 1])
    src, out_path = tmp_path / "t.json", tmp_path / "mc.json"
    write_tuple(src, t)
    calls = []
    real = tuplefile.encode
    monkeypatch.setattr(tuplefile, "encode", lambda x, ind=None, texts=None:
                        calls.append(ind) or real(x, ind, texts))
    assert main(["--format", fmt, "mc", str(src), "--mu", "1/3", "-o", str(out_path)]) == 0
    assert calls == ([None, ""] if fmt == "machine" else [""])
    want = middle_convolution(t, F(1, 3)).result
    rows = [r for a in want.slot_coeffs() for r in a.num]
    assert want.size >= 30 and 2 * sum(map(any, rows)) < len(rows)
    assert out_path.read_text() == _json_indent(tuple_to_doc(want))
    out = capsys.readouterr().out
    if fmt == "machine":
        doc = _string_rows(_payload(["mc", src, "--mu", "1/3"]))
        assert out == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _one_matrix_doc(rows) -> str:
    return json.dumps({"n": len(rows), "infinity": {"m": 0, "coeffs": {}},
                       "finite": [{"t": "0", "m": 0, "coeffs": {"0": rows}}]})


def test_matrix_literals_read_and_write_as_fractions():
    d100 = "9" * 50 + "1" * 50
    rows = [["-3", "0", "-0", "+3"],
            ["1/2", "-2/3", "0", "4"],
            [d100, f"-{d100}/{d100[::-1]}", "6/4", "+0/5"],
            ["-7/9", "+5/3", "-0/4", f"{d100}/3"]]
    a = loads_tuple(_one_matrix_doc(rows)).finite[0].coeffs[0]
    assert a.data == tuple(tuple(F(x) for x in row) for row in rows)
    assert format_matrix(a) == [[str(F(x)) for x in row] for row in rows]
    rng = support.rng(74)
    big = F(10 ** 99 + 7, 3 * 10 ** 99 + 1)
    for pool in ((-2, -1, 0, 1, 2), (0, 0, 0, 1, F(1, 2), F(-5, 6)), (big, -big, 0, 3)):
        m = support.rand_matrix(rng, 4, pool)
        assert format_matrix(m) == [[str(x) for x in row] for row in m.data]
    assert format_matrix(Mat.zeros(2, 3)) == [["0"] * 3] * 2


@pytest.mark.parametrize("bad", [5, None, ["1"], "5\n", "1/2\n", "1/0", "-3/0", "1 2", " 1",
                                 "1/-2", "1.5", "\u0663", "", pytest.param("1" * 5000, id="5000")])
@pytest.mark.parametrize("pos", [0, 2])
def test_bad_matrix_literal_reported_as_parse_rational_reports_it(bad, pos):
    row = ["1", "1/2", "3"]
    row[pos] = bad
    doc = _one_matrix_doc([["0", "0", "0"], row, ["1/0", "x", "1"]])
    with pytest.raises(ValidationError) as got:
        loads_tuple(doc)
    with pytest.raises(ValidationError) as want:
        parse_rational(bad)
    assert str(got.value) == str(want.value)


def test_overlong_written_entries_are_validation_errors():
    for m in (Mat([[10 ** 4400, 1]]), Mat([[F(1, 10 ** 4400), 0]]), Mat([[F(10 ** 4400, 3)]])):
        with pytest.raises(ValidationError, match="over 4300 digits"):
            format_matrix(m)
        for ind in (None, ""):
            with pytest.raises(ValidationError, match="over 4300 digits"):
                encode(m, ind)


def test_round_trip_file(tmp_path):
    path = tmp_path / "hyp.json"
    write_tuple(path, HYP)
    assert read_tuple(path) == HYP


def test_loads_rejects_bad_documents():
    with pytest.raises(ValidationError):
        loads_tuple("not json")
    with pytest.raises(ValidationError):
        loads_tuple(json.dumps({"n": 2}))
    doc = json.loads(dumps_tuple(HYP))
    doc["finite"][0]["coeffs"]["0"][0][0] = "1/0"
    with pytest.raises(ValidationError):
        loads_tuple(json.dumps(doc))


# ---------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------

@pytest.fixture
def hyp_file(tmp_path):
    path = tmp_path / "hyp.json"
    write_tuple(path, HYP)
    return str(path)


@pytest.fixture
def bessel_file(tmp_path):
    path = tmp_path / "bessel.json"
    write_tuple(path, bessel_example(1, 0, 1, 1))
    return str(path)


def test_cli_idx(hyp_file, capsys):
    assert main(["idx", hyp_file]) == 0
    out = capsys.readouterr().out
    assert "index of rigidity = 2" in out


def test_cli_idx_bessel(bessel_file, capsys):
    assert main(["--format", "machine", "idx", bessel_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["index"] == 2


def test_cli_mc_values(hyp_file, tmp_path, capsys):
    out_path = str(tmp_path / "out.json")
    assert main(["mc", hyp_file, "--mu", "1/3", "-o", out_path]) == 0
    result = read_tuple(out_path)
    assert result.size == 1
    assert result.infinity.coeffs[0] == Mat([[-1]])
    assert result.finite[0].coeffs[0] == Mat([[F(-1, 6)]])


def test_cli_mc_output_file_reads_back_to_the_same_tuple(tmp_path, capsys):
    # mc results repeat rows (zero rows, copied block rows), which are read
    # once per matrix: the file must still give back every matrix
    t = support.rand_tuple(support.rng(75), 3, 3, [1, 0, 1, 0], pool=(-1, 0, F(1, 2), 1))
    src, out_path = tmp_path / "t.json", tmp_path / "mc.json"
    write_tuple(src, t)
    assert main(["mc", str(src), "--mu", "1/3", "-o", str(out_path)]) == 0
    want = middle_convolution(t, F(1, 3)).result
    mats = [a for p in (want.infinity, *want.finite) for a in p.coeffs]
    assert any(len(set(a.num)) < a.rows for a in mats)
    assert read_tuple(out_path) == want


def test_repeated_rows_are_read_alike_and_a_bad_row_after_them_is_reported():
    rows = [["1", "1/2", "0"], ["1", "1/2", "0"], ["0", "0", "-2/3"]]
    a = loads_tuple(_one_matrix_doc(rows)).finite[0].coeffs[0]
    assert a.data == tuple(tuple(F(x) for x in row) for row in rows)
    where = "finite point 0, coefficient 0"
    for bad, message in ((["1", "1/0", "0"], "zero denominator in rational literal: '1/0'"),
                         (["1", "1/2", 0], "not a rational literal: 0"),
                         (["1", "1/2"], f"{where}: expected rows of length 3"),
                         ("1 1/2 0", f"{where}: expected rows of length 3")):
        with pytest.raises(ValidationError) as got:
            loads_tuple(_one_matrix_doc(rows[:2] + [bad]))
        assert str(got.value) == message


def test_cli_conv(hyp_file, capsys):
    assert main(["--format", "machine", "conv", hyp_file, "--mu", "1/3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["size"] == 4
    assert doc["slots"] == [[0, 1], [1, 0]]


def test_cli_add_roundtrip(hyp_file, tmp_path, capsys):
    out_path = str(tmp_path / "shifted.json")
    assert main(["add", hyp_file, "--shift", "1,-1/2", "-o", out_path]) == 0
    shifted = read_tuple(out_path)
    assert shifted.infinity.coeffs[0] == Mat.diagonal([1, 0])


def test_cli_irred(hyp_file, capsys):
    assert main(["irred", hyp_file]) == 0
    assert "yes" in capsys.readouterr().out


def test_cli_spectral(hyp_file, capsys):
    assert main(["spectral", hyp_file]) == 0
    out = capsys.readouterr().out
    assert "(1,1)-((1),(1))" in out


def test_cli_spectral_precondition_exit_3(bessel_file, capsys):
    assert main(["spectral", bessel_file]) == 3
    err = capsys.readouterr().err
    assert "semisimple" in err and "point 0" in err


def test_cli_similar(hyp_file, tmp_path, capsys):
    other = str(tmp_path / "conj.json")
    write_tuple(other, support.conjugated(HYP, Mat([[1, -1], [0, 1]])))
    assert main(["similar", hyp_file, other]) == 0
    assert "similar" in capsys.readouterr().out


def test_cli_reduce(hyp_file, capsys):
    assert main(["reduce", hyp_file, "--trace"]) == 0
    out = capsys.readouterr().out
    assert "reduced to rank one" in out
    assert "2 -> 1" in out


def test_cli_reduce_bessel(bessel_file, capsys):
    assert main(["--format", "machine", "reduce", bessel_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"]["kind"] == "assumption_violated"


def test_cli_enumerate(capsys):
    assert main(["enumerate", "--r", "3", "--nmax", "2"]) == 0
    out = capsys.readouterr().out
    assert "(1,1), (1,1), (1,1), (1,1)" in out


def test_cli_enumerate_bounds_exit_3(capsys):
    assert main(["enumerate", "--r", "0", "--nmax", "2"]) == 3


def test_cli_fixtures(tmp_path, capsys):
    out_path = str(tmp_path / "h.json")
    assert main(["fixtures", "hypergeometric", "--params", "1,1/2,1/3,1",
                 "-o", out_path]) == 0
    assert read_tuple(out_path) == HYP
    assert main(["fixtures", "bessel"]) == 0
    assert main(["fixtures", "okubo"]) == 0


def _payload(argv):
    args = cli._build_parser().parse_args([str(a) for a in argv])
    return cli._DISPATCH[args.command][0](args)


def test_machine_output_is_json_of_the_string_rows(tmp_path, capsys):
    # every command's payload, on the fixtures and on random tuples, is
    # encoded as json.dumps encodes its literal rows, and printed as such
    rng = support.rng(76)
    pool = (-2, 0, 1, F(-5, 7), F(1, 2))
    tuples = [HYP, bessel_example(1, 0, 1, 1), inverse_laplace_example(1, 0, 1, 1)]
    tuples += [support.rand_tuple(rng, n, k, ranks, pool)
               for n, k, ranks in [(1, 1, [0, 1]), (2, 2, [1, 0, 0]), (3, 1, [2, 1]), (2, 0, [2])]]
    commands = [["enumerate", "--r", "2", "--nmax", "3"]]
    commands += [["fixtures", name] for name in ("hypergeometric", "bessel", "okubo")]
    for k, t in enumerate(tuples):
        a, b = tmp_path / f"{k}a.json", tmp_path / f"{k}b.json"
        write_tuple(a, t)
        write_tuple(b, support.conjugated(t, support.unimodular(rng, t.size)))
        commands += [["idx", a], ["conv", a, "--mu", "1/3"], ["mc", a, "--mu=-2/5"],
                     ["add", a, "--shift=" + ",".join(["-1/2"] * t.slot_count)],
                     ["irred", a], ["spectral", a], ["similar", a, b], ["reduce", a, "--trace"]]
    built = set()
    for argv in commands:
        try:
            payload = _payload(argv)
        except PreconditionError:  # a non-semisimple spectrum, a zero quotient
            continue
        _check_encode(payload)
        assert main(["--format", "machine"] + [str(x) for x in argv]) == 0
        assert capsys.readouterr().out == encode(payload) + "\n"
        built.add(argv[0])
    assert built == set(cli._DISPATCH)


def test_cli_usage_error_exit_1(capsys):
    assert main(["mc"]) == 1
    assert main(["no-such-command"]) == 1


def test_cli_validation_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "infinity": {"m": 0, "coeffs": {}}, "finite": '
                   '[{"t": "0", "m": 0, "coeffs": {"0": [["1/0", "0"], ["0", "1"]]}}]}')
    assert main(["idx", str(bad)]) == 2
    assert main(["idx", str(tmp_path / "missing.json")]) == 2


def test_cli_trailing_newline_literal_exit_2(hyp_file, tmp_path, capsys):
    doc = json.loads(dumps_tuple(HYP))
    doc["finite"][0]["coeffs"]["0"][1][1] = "5\n"
    path = tmp_path / "newline.json"
    path.write_text(json.dumps(doc))
    assert main(["idx", str(path)]) == 2
    assert main(["mc", hyp_file, "--mu", "1/3\n"]) == 2
    err = capsys.readouterr().err
    assert err.count("validation error: not a rational literal") == 2


def test_cli_parser_is_built_once_and_reused(hyp_file, capsys):
    import midconv.cli

    assert midconv.cli._build_parser() is midconv.cli._build_parser()
    assert main(["--format", "machine", "idx", hyp_file]) == 0
    idx = json.loads(capsys.readouterr().out)
    assert main(["mc", hyp_file, "--shift", "1"]) == 1
    assert "usage error" in capsys.readouterr().err
    assert main(["mc", hyp_file, "--mu", "1/3"]) == 0
    mc_human = capsys.readouterr().out
    assert (idx["command"], idx["index"]) == ("idx", 2)
    assert mc_human.startswith("middle convolution with mu = 1/3\n")
    assert "result size = 1" in mc_human and "index" not in mc_human


@pytest.mark.parametrize("command", [
    ["fixtures", "hypergeometric"],
    ["mc", "{file}", "--mu", "1/3"],
    ["add", "{file}", "--shift", "1,-1/2"],
], ids=["fixtures", "mc", "add"])
def test_cli_unwritable_output_exit_2(command, hyp_file, tmp_path, capsys):
    out_path = tmp_path / "missing-dir" / "x.json"
    argv = [a.format(file=hyp_file) for a in command] + ["-o", str(out_path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "validation error: cannot write" in captured.err
    assert not out_path.exists()


def _bool_n():
    return {"n": True, "infinity": {"m": 0, "coeffs": {}},
            "finite": [{"t": "0", "m": 0, "coeffs": {"0": [["1"]]}}]}


def _bool_m(where):
    doc = json.loads(dumps_tuple(HYP))  # infinity m = 1, finite m = 0
    point = doc["infinity"] if where == "infinity" else doc["finite"][0]
    point["m"] = bool(point["m"])
    return doc


@pytest.mark.parametrize("doc", [_bool_n(), _bool_m("infinity"), _bool_m("finite")],
                         ids=["n", "infinity-m", "finite-m"])
def test_cli_rejects_json_booleans_as_integers(doc, tmp_path, capsys):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    assert main(["idx", str(path)]) == 2
    assert "integer" in capsys.readouterr().err


def _without_t(doc):
    del doc["finite"][0]["t"]
    return doc


def _renamed_keys(doc):
    coeffs = doc["infinity"]["coeffs"]  # m = 1: one key, "1"
    coeffs["0"] = coeffs.pop("1")
    return doc


@pytest.mark.parametrize("edit, message", [
    (lambda doc: [doc], "tuple file must contain a JSON object"),
    (_without_t, "finite point 0: missing location 't'"),
    (_renamed_keys, "infinity: coefficient keys must be exactly ['1']"),
], ids=["not-an-object", "no-t", "wrong-key-names"])
def test_cli_rejects_each_malformed_document_exit_2(edit, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(edit(json.loads(dumps_tuple(HYP)))))
    assert main(["idx", str(path)]) == 2
    assert capsys.readouterr().err == f"validation error: {message}\n"


def test_cli_overlong_numbers_exit_2(tmp_path, capsys):
    doc = json.loads(dumps_tuple(HYP))
    doc["finite"][0]["t"] = "1" * 5000
    long_t = json.dumps(doc)
    long_n = long_t.replace('"n": 2', '"n": 1' + "0" * 5000)
    for text in (long_t, long_n):
        path = tmp_path / "long.json"
        path.write_text(text)
        assert main(["idx", str(path)]) == 2
        assert "validation error" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["infinity", "finite"])
def test_cli_huge_poincare_rank_exit_2(where, tmp_path, capsys):
    # the key count is checked before anything is sized by m
    doc = json.loads(dumps_tuple(HYP))
    point = doc["infinity"] if where == "infinity" else doc["finite"][0]
    point["m"] = 10**9
    path = tmp_path / "huge_m.json"
    path.write_text(json.dumps(doc))
    assert main(["idx", str(path)]) == 2
    err = capsys.readouterr().err
    assert "coefficient keys" in err and len(err) < 200


def test_cli_overlong_result_entry_exit_2(tmp_path, capsys):
    nines = "9" * 4300
    path = tmp_path / "nines.json"
    path.write_text(json.dumps({"n": 1, "infinity": {"m": 0, "coeffs": {}},
                                "finite": [{"t": "0", "m": 0, "coeffs": {"0": [[nines]]}}]}))
    out_path = tmp_path / "out.json"
    for fmt in ("human", "machine"):
        assert main(["--format", fmt, "add", str(path), "--shift", nines,
                     "-o", str(out_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "validation error" in captured.err and "digits" in captured.err
    assert not out_path.exists()


def test_cli_internal_error_exit_4(hyp_file, monkeypatch, capsys):
    import midconv.reduction

    # a step that does not shrink the tuple breaks the reduction invariant
    monkeypatch.setattr(midconv.reduction, "reduce_step", lambda t: (t, None))
    assert main(["reduce", hyp_file]) == 4
    assert "internal error" in capsys.readouterr().err


def test_cli_unexpected_exception_exit_4(hyp_file, monkeypatch, capsys):
    import midconv.rigidity

    def broken(t):
        raise ValueError("boom")

    monkeypatch.setattr(midconv.rigidity, "index", broken)
    assert main(["idx", hyp_file]) == 4
    err = capsys.readouterr().err
    assert err == "internal error: ValueError: boom\n"
    assert "Traceback" not in err


def test_no_assert_statements_in_the_package():
    # `python -O` strips asserts; invariants are explicit InternalError checks
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(midconv.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_cli_machine_output_byte_stable(hyp_file, capsys):
    assert main(["--format", "machine", "idx", hyp_file]) == 0
    first = capsys.readouterr().out
    assert main(["--format", "machine", "idx", hyp_file]) == 0
    second = capsys.readouterr().out
    assert first == second
    json.loads(first)  # valid JSON


def test_cli_mc_report_fields(hyp_file, capsys):
    assert main(["--format", "machine", "mc", hyp_file, "--mu", "1/3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dim_K"] == [0, 1]
    assert doc["dim_L"] == 2
    assert doc["size"] == 1


@pytest.mark.parametrize("raw,canonical", [("2/6", "1/3"), ("+1/3", "1/3"), ("-0", "0")])
def test_cli_mc_echoes_canonical_mu(hyp_file, capsys, raw, canonical):
    # mc reports mu as conv does: the canonical literal, not the raw argument
    assert main(["--format", "machine", "mc", hyp_file, "--mu", raw]) == 0
    assert json.loads(capsys.readouterr().out)["mu"] == canonical
    assert main(["--format", "machine", "conv", hyp_file, "--mu", raw]) == 0
    assert json.loads(capsys.readouterr().out)["mu"] == canonical
    assert main(["mc", hyp_file, "--mu", raw]) == 0
    assert f"middle convolution with mu = {canonical}\n" in capsys.readouterr().out


def test_cli_conv_machine_byte_stable(hyp_file, capsys):
    outs = []
    for _ in range(2):
        assert main(["--format", "machine", "conv", hyp_file, "--mu", "2/7"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_cli_enumerate_machine(capsys):
    assert main(["--format", "machine", "enumerate", "--r", "1", "--nmax", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(p["catalog"] for p in doc["patterns"])
    assert all(p["realizability"] == "unknown" for p in doc["patterns"])


def test_cli_similar_not_similar(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    write_tuple(a, hypergeometric_example(1, F(1, 2), F(1, 3), 1))
    write_tuple(b, hypergeometric_example(2, F(1, 2), F(1, 3), 1))
    assert main(["similar", str(a), str(b)]) == 0
    assert "not similar" in capsys.readouterr().out


def _zero_doc(residue) -> str:
    return json.dumps({"n": 2, "infinity": {"m": 0, "coeffs": {}},
                       "finite": [{"t": "0", "m": 0, "coeffs": {"0": residue}}]})


def test_cli_similar_all_zero_tuples(tmp_path, capsys):
    # every coefficient zero strips to no slot: equal inputs are similar by
    # S = I, and a zero tuple against a nonzero one has another skeleton
    z, d = tmp_path / "z.json", tmp_path / "d.json"
    z.write_text(_zero_doc([["0", "0"], ["0", "0"]]))
    d.write_text(_zero_doc([["1", "0"], ["0", "0"]]))
    assert main(["--format", "machine", "similar", str(z), str(z)]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "command": "similar", "similar": True, "intertwiner": [["1", "0"], ["0", "1"]]}
    for a, b in ((z, d), (d, z)):
        assert main(["similar", str(a), str(b)]) == 3
        assert "different singularity skeletons" in capsys.readouterr().err


def test_cli_fixtures_wrong_param_count(capsys):
    assert main(["fixtures", "bessel", "--params", "1,2"]) == 2


_HUMAN_GOLDEN = {
    "mc": """\
middle convolution with mu = 1/3
dim K per point = [0, 1], dim L = 2
result size = 1
n = 1, r = 1, M = 2
point 0 (infinity), m = 1:
  A_1:
    [ -1 ]
point 1 (t = 0), m = 0:
  A_0:
    [ -1/6 ]
wrote <tmp>/out.json
""",
    "conv": """\
convolution matrices, mu = 1/3, size = 4
slot (0,1):
  [ 0   0  -1/3     1 ]
  [ 0  -1  1/18  -1/6 ]
  [ 0   0     0     0 ]
  [ 0   0     0     0 ]
slot (1,0):
  [ 0   0     0    0 ]
  [ 0   0     0    0 ]
  [ 0   0     0    1 ]
  [ 0  -1  1/18  1/6 ]
""",
    "add": """\
n = 2, r = 1, M = 2
point 0 (infinity), m = 1:
  A_1:
    [ 1  0 ]
    [ 0  0 ]
point 1 (t = 0), m = 0:
  A_0:
    [ -5/6     1 ]
    [ 1/18  -2/3 ]
wrote <tmp>/out.json
""",
    "fixtures": """\
n = 2, r = 1, M = 2
point 0 (infinity), m = 1:
  A_1:
    [ 0   0 ]
    [ 0  -1 ]
point 1 (t = 0), m = 0:
  A_0:
    [ -1/3     1 ]
    [ 1/18  -1/6 ]
wrote <tmp>/out.json
""",
    "similar": """\
similar; intertwiner S with S A = B S:
  [ 1  -1 ]
  [ 0   1 ]
""",
    "reduce": """\
sizes: 2 -> 1
reduced to rank one
step 0: shift = (1, 0, 1/2), mu = -1/3, size 2 -> 1
""",
}


@pytest.mark.parametrize("command", sorted(_HUMAN_GOLDEN))
def test_cli_human_output_golden(command, hyp_file, tmp_path, capsys):
    out_path = str(tmp_path / "out.json")
    conj = str(tmp_path / "conj.json")
    write_tuple(conj, support.conjugated(HYP, Mat([[1, -1], [0, 1]])))
    argv = {
        "mc": ["mc", hyp_file, "--mu", "1/3", "-o", out_path],
        "conv": ["conv", hyp_file, "--mu", "1/3"],
        "add": ["add", hyp_file, "--shift", "1,-1/2", "-o", out_path],
        "fixtures": ["fixtures", "hypergeometric", "-o", out_path],
        "similar": ["similar", hyp_file, conj],
        "reduce": ["reduce", hyp_file, "--trace"],
    }[command]
    assert main(argv) == 0
    out = capsys.readouterr().out.replace(str(tmp_path), "<tmp>")
    assert out == _HUMAN_GOLDEN[command]
    if "-o" in argv:
        with open(out_path, encoding="utf-8") as fh:
            text = fh.read()
        assert text == dumps_tuple(loads_tuple(text))


# ---------------------------------------------------------------------
# mutated fixture documents
# ---------------------------------------------------------------------

_FUZZ_BASES = [json.loads(dumps_tuple(t)) for t in (
    HYP, bessel_example(1, 0, 1, 1), inverse_laplace_example(1, 0, 1, 1))]
_FUZZ_ENTRIES = ["0", "1", "-1", "2", "1/2", "-1/3", "3/2"]
_FUZZ_VALUES = [0, 1, 2, -1, 10**9, True, None, "", "0", "1/2", "-3", "1/0", "x", "1" * 5000,
                [], [["1"]], [["0", "1"], ["1", "0"]], {}, {"0": [["1"]]}]
_FUZZ_COMMANDS = [["idx"], ["irred"], ["spectral"], ["mc", "--mu", "1/3"],
                  ["add", "--shift=1,-1/2"], ["reduce", "--trace"], ["similar"]]


def _key_paths(doc, prefix=()):
    """The key path of every value inside a JSON document."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for k, v in items:
        yield prefix + (k,)
        yield from _key_paths(v, prefix + (k,))


def _value_at(doc, path):
    for k in path:
        doc = doc[k]
    return doc


@st.composite
def _mutated_documents(draw):
    """A fixture document with one to three mutations, each a matrix entry
    set to another rational, or any value replaced or deleted."""
    doc = copy.deepcopy(draw(st.sampled_from(_FUZZ_BASES)))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_key_paths(doc))
        if not paths:
            break
        entries = [p for p in paths if "coeffs" in p and isinstance(_value_at(doc, p), str)]
        kind = draw(st.sampled_from(["entry", "replace", "delete"]))
        *where, key = draw(st.sampled_from(entries if kind == "entry" and entries else paths))
        parent = _value_at(doc, where)
        if kind == "entry":
            parent[key] = draw(st.sampled_from(_FUZZ_ENTRIES))
        elif kind == "replace":
            parent[key] = copy.deepcopy(draw(st.sampled_from(_FUZZ_VALUES)))
        else:
            del parent[key]
    return doc


@settings(max_examples=100, deadline=None)
@given(_mutated_documents(), st.sampled_from(["human", "machine"]))
def test_cli_on_mutated_fixture_documents_exits_cleanly(doc, fmt):
    # every command answers, or names the fault in one stderr line with exit
    # 1, 2 or 3; none reaches the internal-error exit 4 or prints a traceback
    with tempfile.TemporaryDirectory() as d:
        path, base = str(Path(d) / "doc.json"), str(Path(d) / "base.json")
        Path(path).write_text(json.dumps(doc))
        write_tuple(base, HYP)
        for command in _FUZZ_COMMANDS:
            argv = ["--format", fmt, command[0], path, *command[1:]]
            if command[0] == "similar":
                argv.append(base)
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2, 3), (argv, doc, err.getvalue())
            assert code == 0 or out.getvalue() == "", (argv, doc)
            assert err.getvalue().count("\n") <= 1, (argv, doc, err.getvalue())


# ---------------------------------------------------------------------
# mutated flag values
# ---------------------------------------------------------------------

_FLAG_RATIONALS = ["1/3", "0", "-2", "2/4", "-0", "+1", "1/0", "1/-3", "", " 1", "x", "1.5",
                   "1e3", "0x10", "--", "1,2", "١", "1" * 5000, "3/" + "7" * 40]
_FLAG_SHIFTS = ["1,-1/2", "0,0", "1", "1,2,3", ",", "", "1,,2", "1,-1/2,", " 1, 2", "a,b", "1/0,1"]
_FLAG_PARAMS = ["1,1/2,1/3,1", "0,0,0,0", "", "1", "1,2", "0,0,0", "1,2,3,4,5", "1,1,1,1,",
                "1/0,1,1,1", "x,1,1,1"]
_FLAG_INTS = ["0", "1", "2", "3", "12", "13", "99", "-1", "", " 3", "x", "1.5", "1_0", "٣",
              "1" * 5000]


def test_cli_on_mutated_flag_values_exits_cleanly(tmp_path):
    # the contract of the mutated documents above, on the values of --mu,
    # --shift, --params, --r, --nmax and -o: every command answers, or names
    # the fault in one stderr line with exit 1, 2 or 3
    hyp = str(tmp_path / "hyp.json")
    write_tuple(hyp, HYP)
    runs = []
    for v in _FLAG_RATIONALS:
        runs += [["mc", hyp, "--mu", v], ["mc", hyp, f"--mu={v}"], ["conv", hyp, f"--mu={v}"]]
    runs += [["add", hyp, f"--shift={v}"] for v in _FLAG_SHIFTS]
    runs += [["fixtures", name, f"--params={v}"]
             for v in _FLAG_PARAMS for name in ("hypergeometric", "bessel", "okubo")]
    for v in _FLAG_INTS:
        runs += [["enumerate", f"--r={v}", "--nmax", "3"], ["enumerate", "--r", "2", f"--nmax={v}"]]
    for out in (str(tmp_path / "out.json"), str(tmp_path / "missing" / "out.json"),
                str(tmp_path), "", hyp + "/out.json"):
        runs += [["mc", hyp, "--mu", "1/3", "-o", out], ["add", hyp, "--shift=1,-1/2", "-o", out],
                 ["fixtures", "bessel", "-o", out]]
    codes = set()
    for argv in runs:
        for fmt in ("human", "machine"):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(["--format", fmt, *argv])
            assert code in (0, 1, 2, 3), (argv, err.getvalue())
            assert code == 0 or out.getvalue() == "", argv
            assert err.getvalue().count("\n") <= 1, (argv, err.getvalue())
            codes.add(code)
    assert codes == {0, 1, 2, 3}
