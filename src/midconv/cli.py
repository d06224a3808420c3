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
files/values), 3 violated mathematical precondition, 4 internal error (a
failed consistency check: a bug in midconv).  `--format machine`
prints one JSON object with sorted keys; its bytes are stable across runs
on identical input.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import convolution, model, reduction, rigidity, tuplefile
from .errors import InternalError, PreconditionError, ValidationError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


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


def _rat(s: str) -> Fraction:
    return tuplefile.parse_rational(s)


def _rat_list(s: str) -> list[Fraction]:
    return [tuplefile.parse_rational(x.strip()) for x in s.split(",")]


def _matrix_doc(m) -> list[list[str]]:
    return [[str(x) for x in row] for row in m.data]


def _fmt_matrix(m, indent="  ") -> list[str]:
    widths = [max(len(str(m.data[i][j])) for i in range(m.rows)) if m.rows else 0
              for j in range(m.cols)]
    return [
        indent + "[ " + "  ".join(str(x).rjust(w) for x, w in zip(row, widths)) + " ]"
        for row in m.data
    ]


def _tuple_lines(t) -> list[str]:
    lines = [f"n = {t.size}, r = {t.num_finite}, M = {t.slot_count}"]
    for i in range(t.num_points):
        p = t.point(i)
        where = "infinity" if p.is_infinity else f"t = {p.location}"
        lines.append(f"point {i} ({where}), m = {p.poincare_rank}:")
        for k, a in enumerate(p.coeffs):
            lines.append(f"  A_{p.poincare_rank - k}:")
            lines.extend(_fmt_matrix(a, "    "))
    return lines


def _spectral_doc(st) -> dict:
    return {
        "pattern": st.pattern_str(),
        "blocks": [
            {
                "eigenvalue": str(b.eigenvalue),
                "size": b.size,
                "inner": [
                    {
                        "value": str(e.value),
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
    t = tuplefile.read_tuple(args.file)
    rep = rigidity.index(t)
    payload = {
        "command": "idx",
        "n": rep.n, "r": rep.r, "M": rep.M,
        "commutant_dims": list(rep.commutant_dims),
        "local_indices": list(rep.local_indices),
        "index": rep.index,
    }
    lines = [f"n = {rep.n}, r = {rep.r}, M = {rep.M}"]
    for i, (d, li) in enumerate(zip(rep.commutant_dims, rep.local_indices)):
        lines.append(f"point {i}: dim commutant = {d}, local index = {li}")
    lines.append(f"index of rigidity = {rep.index}")
    return payload, lines


def _cmd_conv(args):
    t = tuplefile.read_tuple(args.file)
    conv = convolution.convolution_matrices(t, _rat(args.mu))
    payload = {
        "command": "conv",
        "mu": str(conv.mu),
        "size": conv.base.size,
        "slots": [list(s) for s in conv.block_index],
        "matrices": [
            {"slot": [i, j], "rows": _matrix_doc(conv.base.coeff(i, j))}
            for (i, j) in conv.block_index
        ],
    }
    lines = [f"convolution matrices, mu = {conv.mu}, size = {conv.base.size}"]
    for (i, j) in conv.block_index:
        lines.append(f"slot ({i},{j}):")
        lines.extend(_fmt_matrix(conv.base.coeff(i, j)))
    return payload, lines


def _cmd_mc(args):
    t = tuplefile.read_tuple(args.file)
    out = convolution.middle_convolution(t, _rat(args.mu))
    payload = {
        "command": "mc",
        "mu": args.mu,
        "size": out.result.size,
        "dim_K": list(out.dim_K),
        "dim_L": out.dim_L,
        "result": tuplefile.tuple_to_doc(out.result),
    }
    lines = [
        f"middle convolution with mu = {args.mu}",
        f"dim K per point = {list(out.dim_K)}, dim L = {out.dim_L}",
        f"result size = {out.result.size}",
    ]
    lines.extend(_tuple_lines(out.result))
    if args.output:
        tuplefile.write_tuple(args.output, out.result)
        lines.append(f"wrote {args.output}")
    return payload, lines


def _cmd_add(args):
    t = tuplefile.read_tuple(args.file)
    out = model.addition(t, _rat_list(args.shift))
    payload = {"command": "add", "result": tuplefile.tuple_to_doc(out)}
    lines = _tuple_lines(out)
    if args.output:
        tuplefile.write_tuple(args.output, out)
        lines.append(f"wrote {args.output}")
    return payload, lines


def _cmd_irred(args):
    t = tuplefile.read_tuple(args.file)
    flag = rigidity.is_irreducible(t)
    return (
        {"command": "irred", "irreducible": flag},
        [f"irreducible: {'yes' if flag else 'no'}"],
    )


def _cmd_spectral(args):
    t = tuplefile.read_tuple(args.file)
    docs = []
    lines = []
    for i in range(t.num_points):
        st = model.spectral_type(t, i)
        docs.append({"point": i, **_spectral_doc(st)})
        lines.append(f"point {i}: {st.pattern_str()}")
    return {"command": "spectral", "points": docs}, lines


def _cmd_similar(args):
    a = tuplefile.read_tuple(args.file_a)
    b = tuplefile.read_tuple(args.file_b)
    s = rigidity.are_similar(a, b)
    if s is None:
        return {"command": "similar", "similar": False}, ["not similar"]
    payload = {"command": "similar", "similar": True, "intertwiner": _matrix_doc(s)}
    return payload, ["similar; intertwiner S with S A = B S:"] + _fmt_matrix(s)


def _cmd_reduce(args):
    t = tuplefile.read_tuple(args.file)
    trace = reduction.reduce(t)
    sizes = [t.size] + [s.size_after for s in trace.steps]
    verdict = trace.verdict
    if isinstance(verdict, reduction.ReducedToRankOne):
        vdoc = {"kind": "rank_one"}
        vline = "reduced to rank one"
    elif isinstance(verdict, reduction.Terminal):
        vdoc = {
            "kind": "terminal",
            "label": verdict.label,
            "pattern": verdict.pattern.pattern_str(),
            "d": verdict.pattern.d,
        }
        vline = f"terminal: {verdict.pattern.pattern_str()} -> {verdict.label}"
    else:
        vdoc = {"kind": "assumption_violated", "reason": verdict.reason}
        vline = f"assumption violated: {verdict.reason}"
    payload = {
        "command": "reduce",
        "sizes": sizes,
        "verdict": vdoc,
        "terminal": tuplefile.tuple_to_doc(trace.terminal),
    }
    lines = [f"sizes: {' -> '.join(str(s) for s in sizes)}", vline]
    if args.trace:
        payload["steps"] = [
            {
                "mu": str(s.mu),
                "shift": [str(x) for x in s.shift],
                "size_before": s.size_before,
                "size_after": s.size_after,
                "removed_points": list(s.removed_points),
            }
            for s in trace.steps
        ]
        for k, s in enumerate(trace.steps):
            lines.append(
                f"step {k}: shift = ({', '.join(str(x) for x in s.shift)}), "
                f"mu = {s.mu}, size {s.size_before} -> {s.size_after}"
                + (f", removed points {list(s.removed_points)}"
                   if s.removed_points else "")
            )
    return payload, lines


def _cmd_enumerate(args):
    pats = reduction.enumerate_terminals(args.r, args.nmax)
    docs = []
    lines = [f"{len(pats)} terminal pattern(s) for r = {args.r}, n <= {args.nmax}"]
    for tp in pats:
        name = reduction.classify_terminal(tp)
        n = tp.d * sum(nl for nl, _ in tp.points[0])
        docs.append(
            {
                "points": tp.pattern_str(),
                "d": tp.d,
                "n": n,
                "catalog": name,
                "realizability": tp.realizability,
            }
        )
        lines.append(f"n = {n:2d}, d = {tp.d}: {tp.pattern_str()}"
                     + (f"  [{name}]" if name else "  [uncataloged]"))
    return {"command": "enumerate", "patterns": docs}, lines


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
    payload = {"command": "fixtures", "name": args.name,
               "tuple": tuplefile.tuple_to_doc(t)}
    lines = _tuple_lines(t)
    if args.output:
        tuplefile.write_tuple(args.output, t)
        lines.append(f"wrote {args.output}")
    return payload, lines


_DISPATCH = {
    "idx": _cmd_idx,
    "conv": _cmd_conv,
    "mc": _cmd_mc,
    "add": _cmd_add,
    "irred": _cmd_irred,
    "spectral": _cmd_spectral,
    "similar": _cmd_similar,
    "reduce": _cmd_reduce,
    "enumerate": _cmd_enumerate,
    "fixtures": _cmd_fixtures,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        payload, lines = _DISPATCH[args.command](args)
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
    if args.format == "machine":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for line in lines:
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
