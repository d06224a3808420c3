"""Command-line front end.

Subcommands operate on tuple files (see tuplefile for the format):

    idx FILE                    rigidity report
    conv FILE --mu Q            dump the convolution matrices
    mc FILE --mu Q [-o OUT]     middle convolution, optionally saving the result
    add FILE --shift Q,Q,... [-o OUT]
    irred FILE                  irreducibility via the Burnside criterion
    spectral FILE               per-point multiplicity patterns
    similar A B                 search for a simultaneous similarity
    reduce FILE [--trace]       run the reduction algorithm
    enumerate --r R --nmax N    enumerate terminal patterns
    fixtures NAME [--params CSV] [-o OUT]

Exit codes: 0 success, 1 usage error, 2 validation error (malformed
files/values, a file that cannot be read or written), 3 violated
mathematical precondition, 4 internal error (a failed consistency check
or any other exception, reported on one line: a bug in midconv).
`--format machine` prints one JSON object with sorted keys; its bytes
are stable across runs on identical input.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from . import convolution, model, reduction, rigidity, tuplefile
from .errors import InternalError, PreconditionError, ValidationError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@cache  # built once per process: building costs more than a small command
def _build_parser() -> _Parser:
    p = _Parser(prog="midconv", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--format", choices=["human", "machine"], default="human")
    sub = p.add_subparsers(dest="command", required=True)

    idx = sub.add_parser("idx", help="index of rigidity")
    idx.add_argument("file")

    conv = sub.add_parser("conv", help="convolution matrices")
    conv.add_argument("file")
    conv.add_argument("--mu", required=True)

    mc = sub.add_parser("mc", help="middle convolution")
    mc.add_argument("file")
    mc.add_argument("--mu", required=True)
    mc.add_argument("-o", "--output")

    add = sub.add_parser("add", help="addition (shift by scalars)")
    add.add_argument("file")
    add.add_argument("--shift", required=True,
                     help="comma-separated rationals, one per slot")
    add.add_argument("-o", "--output")

    irred = sub.add_parser("irred", help="irreducibility")
    irred.add_argument("file")

    spec = sub.add_parser("spectral", help="spectral types")
    spec.add_argument("file")

    sim = sub.add_parser("similar", help="simultaneous similarity")
    sim.add_argument("file_a")
    sim.add_argument("file_b")

    red = sub.add_parser("reduce", help="reduction algorithm")
    red.add_argument("file")
    red.add_argument("--trace", action="store_true")

    enum = sub.add_parser("enumerate", help="terminal patterns")
    enum.add_argument("--r", type=int, required=True)
    enum.add_argument("--nmax", type=int, required=True)

    fix = sub.add_parser("fixtures", help="emit a named example tuple")
    fix.add_argument("name", choices=["hypergeometric", "bessel", "okubo"])
    fix.add_argument("--params", help="comma-separated rational parameters")
    fix.add_argument("-o", "--output")

    return p


def _fmt_matrix(rows: list[list[str]], indent="  ") -> list[str]:
    widths = [max(map(len, col)) for col in zip(*rows)]
    return [
        indent + "[ " + "  ".join(x.rjust(w) for x, w in zip(row, widths)) + " ]"
        for row in rows
    ]


def _tuple_lines(t: model.MatrixTuple) -> list[str]:
    """Human rendering of a MatrixTuple."""
    lines = [f"n = {t.size}, r = {t.num_finite}, M = {t.slot_count}"]
    for i, p in enumerate(t.points):
        where = "infinity" if i == 0 else f"t = {tuplefile.format_rational(p.location)}"
        lines.append(f"point {i} ({where}), m = {p.poincare_rank}:")
        for k, a in enumerate(p.coeffs):
            lines.append(f"  A_{p.poincare_rank - k}:")
            lines.extend(_fmt_matrix(tuplefile.format_matrix(a), "    "))
    return lines


def _spectral_doc(st) -> dict:
    fmt = tuplefile.format_rational
    return {
        "pattern": st.pattern_str(),
        "blocks": [
            {
                "eigenvalue": fmt(b.eigenvalue),
                "size": b.size,
                "inner": [
                    {
                        "value": fmt(e.value),
                        "multiplicity": e.multiplicity,
                        "jordan": list(e.jordan),
                    }
                    for e in b.inner
                ],
            }
            for b in st.blocks
        ],
    }


def _cmd_idx(args):
    rep = rigidity.index(tuplefile.read_tuple(args.file))
    return {
        "command": "idx",
        "n": rep.n, "r": rep.r, "M": rep.M,
        "commutant_dims": list(rep.commutant_dims),
        "local_indices": list(rep.local_indices),
        "index": rep.index,
    }


def _idx_lines(doc, args):
    lines = [f"n = {doc['n']}, r = {doc['r']}, M = {doc['M']}"]
    for i, (d, li) in enumerate(zip(doc["commutant_dims"], doc["local_indices"])):
        lines.append(f"point {i}: dim commutant = {d}, local index = {li}")
    lines.append(f"index of rigidity = {doc['index']}")
    return lines


def _cmd_conv(args):
    t = tuplefile.read_tuple(args.file)
    mu = tuplefile.parse_rational(args.mu)
    conv = convolution.convolution_matrices(t, mu)
    slots = conv.slots()
    return {
        "command": "conv",
        "mu": tuplefile.format_rational(mu),
        "size": conv.size,
        "slots": [list(s) for s in slots],
        "matrices": [
            {"slot": [i, j], "rows": a} for (i, j), a in zip(slots, conv.slot_coeffs())
        ],
    }


def _conv_lines(doc, args):
    lines = [f"convolution matrices, mu = {doc['mu']}, size = {doc['size']}"]
    for m in doc["matrices"]:
        i, j = m["slot"]
        lines.append(f"slot ({i},{j}):")
        lines.extend(_fmt_matrix(tuplefile.format_matrix(m["rows"])))
    return lines


def _cmd_mc(args):
    t = tuplefile.read_tuple(args.file)
    mu = tuplefile.parse_rational(args.mu)
    out = convolution.middle_convolution(t, mu)
    return {
        "command": "mc",
        "mu": tuplefile.format_rational(mu),
        "size": out.result.size,
        "dim_K": list(out.dim_K),
        "dim_L": out.dim_L,
        "result": out.result,
    }


def _mc_lines(doc, args):
    return [
        f"middle convolution with mu = {doc['mu']}",
        f"dim K per point = {doc['dim_K']}, dim L = {doc['dim_L']}",
        f"result size = {doc['size']}",
    ] + _tuple_lines(doc["result"])


def _cmd_add(args):
    t = tuplefile.read_tuple(args.file)
    out = model.addition(t, [tuplefile.parse_rational(x.strip()) for x in args.shift.split(",")])
    return {"command": "add", "result": out}


def _add_lines(doc, args):
    return _tuple_lines(doc["result"])


def _cmd_irred(args):
    flag = rigidity.is_irreducible(tuplefile.read_tuple(args.file))
    return {"command": "irred", "irreducible": flag}


def _irred_lines(doc, args):
    return [f"irreducible: {'yes' if doc['irreducible'] else 'no'}"]


def _cmd_spectral(args):
    t = tuplefile.read_tuple(args.file)
    docs = [{"point": i, **_spectral_doc(model.spectral_type(t, i))}
            for i in range(t.num_points)]
    return {"command": "spectral", "points": docs}


def _spectral_lines(doc, args):
    return [f"point {p['point']}: {p['pattern']}" for p in doc["points"]]


def _cmd_similar(args):
    a = tuplefile.read_tuple(args.file_a)
    b = tuplefile.read_tuple(args.file_b)
    s = rigidity.are_similar(a, b)
    if s is None:
        return {"command": "similar", "similar": False}
    return {"command": "similar", "similar": True,
            "intertwiner": s}


def _similar_lines(doc, args):
    if not doc["similar"]:
        return ["not similar"]
    return (["similar; intertwiner S with S A = B S:"]
            + _fmt_matrix(tuplefile.format_matrix(doc["intertwiner"])))


def _cmd_reduce(args):
    t = tuplefile.read_tuple(args.file)
    trace = reduction.reduce(t)
    verdict = trace.verdict
    if isinstance(verdict, reduction.ReducedToRankOne):
        vdoc = {"kind": "rank_one"}
    elif isinstance(verdict, reduction.Terminal):
        vdoc = {
            "kind": "terminal",
            "label": verdict.label,
            "pattern": verdict.pattern.pattern_str(),
            "d": verdict.pattern.d,
        }
    else:
        vdoc = {"kind": "assumption_violated", "reason": verdict.reason}
    payload = {
        "command": "reduce",
        "sizes": [t.size] + [s.size_after for s in trace.steps],
        "verdict": vdoc,
        "terminal": trace.terminal,
    }
    if args.trace:
        fmt = tuplefile.format_rational
        payload["steps"] = [
            {
                "mu": fmt(s.mu),
                "shift": [fmt(x) for x in s.shift],
                "size_before": s.size_before,
                "size_after": s.size_after,
                "removed_points": list(s.removed_points),
            }
            for s in trace.steps
        ]
    return payload


def _reduce_lines(doc, args):
    v = doc["verdict"]
    if v["kind"] == "rank_one":
        vline = "reduced to rank one"
    elif v["kind"] == "terminal":
        vline = f"terminal: {v['pattern']} -> {v['label']}"
    else:
        vline = f"assumption violated: {v['reason']}"
    lines = [f"sizes: {' -> '.join(str(s) for s in doc['sizes'])}", vline]
    for k, s in enumerate(doc.get("steps", [])):
        lines.append(
            f"step {k}: shift = ({', '.join(s['shift'])}), "
            f"mu = {s['mu']}, size {s['size_before']} -> {s['size_after']}"
            + (f", removed points {s['removed_points']}"
               if s["removed_points"] else "")
        )
    return lines


def _cmd_enumerate(args):
    docs = []
    for tp in reduction.enumerate_terminals(args.r, args.nmax):
        docs.append(
            {
                "points": tp.pattern_str(),
                "d": tp.d,
                "n": tp.size,
                "catalog": reduction.classify_terminal(tp),
                "realizability": "unknown",
            }
        )
    return {"command": "enumerate", "patterns": docs}


def _enumerate_lines(doc, args):
    pats = doc["patterns"]
    lines = [f"{len(pats)} terminal pattern(s) for r = {args.r}, n <= {args.nmax}"]
    for p in pats:
        name = p["catalog"]
        lines.append(f"n = {p['n']:2d}, d = {p['d']}: {p['points']}"
                     + (f"  [{name}]" if name else "  [uncataloged]"))
    return lines


_FIXTURE_DEFAULTS = {
    "hypergeometric": ["1", "1/2", "1/3", "1"],
    "bessel": ["1", "0", "1", "1"],
    "okubo": ["1", "0", "1", "1"],
}


def _cmd_fixtures(args):
    params = (
        [x.strip() for x in args.params.split(",")]
        if args.params
        else _FIXTURE_DEFAULTS[args.name]
    )
    if len(params) != 4:
        raise ValidationError(f"fixture {args.name} takes 4 parameters, got {len(params)}")
    vals = [tuplefile.parse_rational(x) for x in params]
    if args.name == "hypergeometric":
        t = model.hypergeometric_example(*vals)
    elif args.name == "bessel":
        t = model.bessel_example(*vals)
    else:
        t = model.inverse_laplace_example(*vals)
    return {"command": "fixtures", "name": args.name,
            "tuple": t}


def _fixtures_lines(doc, args):
    return _tuple_lines(doc["tuple"])


# command -> (payload builder, human lines from the payload)
_DISPATCH = {
    "idx": (_cmd_idx, _idx_lines),
    "conv": (_cmd_conv, _conv_lines),
    "mc": (_cmd_mc, _mc_lines),
    "add": (_cmd_add, _add_lines),
    "irred": (_cmd_irred, _irred_lines),
    "spectral": (_cmd_spectral, _spectral_lines),
    "similar": (_cmd_similar, _similar_lines),
    "reduce": (_cmd_reduce, _reduce_lines),
    "enumerate": (_cmd_enumerate, _enumerate_lines),
    "fixtures": (_cmd_fixtures, _fixtures_lines),
}
# the payload key of the tuple that -o writes
_WRITTEN = {"mc": "result", "add": "result", "fixtures": "tuple"}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        build, render = _DISPATCH[args.command]
        payload = build(args)
        # formatted before anything is written: a too-long entry writes no file;
        # the -o file reuses the row texts of the machine line
        texts = {}
        lines = ([tuplefile.encode(payload, texts=texts)] if args.format == "machine"
                 else render(payload, args))
        output = getattr(args, "output", None)
        if output:
            tuplefile.write_tuple(output, payload[_WRITTEN[args.command]], texts)
            if args.format == "human":
                lines.append(f"wrote {output}")
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except ValidationError as e:
        print(f"validation error: {e}", file=sys.stderr)
        return 2
    except PreconditionError as e:
        print(f"precondition violated: {e}", file=sys.stderr)
        return 3
    except InternalError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 4
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 4
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
