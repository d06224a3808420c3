"""Alternating perfbench pairs of two checkouts, written as one BENCH_*.json.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --workload W \
        --seeds A-B --seconds S --claim METRIC -o FILE

For each seed from A to B it runs `python3 perfbench/run.py --workload W
--seed N --seconds S --trace 0` once in each checkout, the parent first on
odd seeds and the change first on even seeds, so that a drift of the host
falls on both sides alike.  Every run has PYTHONDONTWRITEBYTECODE=1 and
PYTHONPYCACHEPREFIX set to one empty temporary directory, so no bytecode
cache is read from either checkout or written anywhere, and both sides
compile midconv from source at every set-up.  Every run's `report` line is
kept.  The file holds the workload, the command, the host, the bytecode
settings with the number of cache files found under the prefix after the
runs (0), the order, the pairs, the median of every metric on each side,
the claim: for METRIC, the number of pairs, the pairs where the change is
lower, the relative change of the median and the parent's interquartile
range, and the guards: the same four figures for every end-to-end metric
of the repository's BENCHMARK.json, each printed with the claim.  Only the
standard library is used.  The exit status is 1 if any
run is not `correct`, after the file is written, and 2 if a run gives no
report.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _seeds(text: str) -> range:
    first, _, last = text.partition("-")
    try:
        lo, hi = int(first), int(last or first)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a seed range A-B: {text!r}") from None
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty seed range: {text!r}")
    return range(lo, hi + 1)


def run_once(directory: str, workload: str, seed: int, seconds: float,
             env: dict) -> tuple[dict, dict]:
    """(report, result) of one perfbench run in `directory` under the
    environment `env`: the parsed `report` line and the last stdout line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=directory, capture_output=True, text=True, env=env)
    lines = proc.stdout.splitlines()
    reports = [json.loads(line[len("report "):]) for line in lines if line.startswith("report ")]
    if proc.returncode != 0 or not reports:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"bench_pairs: no report from {directory}, seed {seed} "
                         f"(exit {proc.returncode})")
    return reports[0], json.loads(lines[-1])


def _side(reports: list[dict]) -> dict:
    """The revision, host facts and the median of every metric of one side."""
    first = reports[0]
    metrics = sorted({k for r in reports for k in r["metrics"]})
    return {
        "git_revision": first.get("git_revision"),
        "python": first.get("python"),
        "nproc": first.get("nproc"),
        "src_lines": first.get("src_lines"),
        "medians": {k: statistics.median(r["metrics"][k]["value"] for r in reports
                                         if k in r["metrics"]) for k in metrics},
    }


def claim(pairs: list[dict], metric: str) -> dict:
    parent = [p["parent"]["metrics"][metric]["value"] for p in pairs]
    change = [p["change"]["metrics"][metric]["value"] for p in pairs]
    q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else (parent[0],) * 3
    return {
        "metric": metric,
        "pairs": len(pairs),
        "lower_pairs": sum(c < p for p, c in zip(parent, change)),
        "median_change": statistics.median(change) / statistics.median(parent) - 1,
        "parent_iqr": q3 - q1,
    }


def _summary(doc: dict, metric: str, c: dict) -> str:
    return (f"{metric}: parent {doc['parent']['medians'][metric]:.6g}, change "
            f"{doc['change']['medians'][metric]:.6g}, {c['median_change']:+.1%} in the median, "
            f"lower in {c['lower_pairs']}/{c['pairs']}, parent IQR {c['parent_iqr']:.3g}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent revision")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=_seeds, help="A-B, or one seed A")
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--claim", default="corpus_s", help="the metric the claim is about")
    ap.add_argument("-o", "--output", required=True)
    args = ap.parse_args(argv)

    pairs, correct = [], True
    with tempfile.TemporaryDirectory(prefix="bench-pairs-pycache-") as cache:
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=cache)
        for seed in args.seeds:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            pair = {"seed": seed}
            for side in order:
                report, result = run_once(getattr(args, side), args.workload, seed,
                                          args.seconds, env)
                pair[side] = report
                correct &= result.get("correct") is True and result.get("failed") == 0
                value = report["metrics"].get(args.claim, {}).get("value")
                print(f"seed {seed} {side}: {args.claim} {value} correct {result.get('correct')}",
                      file=sys.stderr)
            pairs.append(pair)
        written = sum(len(files) for _, _, files in os.walk(cache))
    guards = [e["name"] for e in json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]]
    for metric in [args.claim, *guards]:
        if any(metric not in p[s]["metrics"] for p in pairs for s in ("parent", "change")):
            raise SystemExit(f"bench_pairs: no metric {metric!r} in the reports")

    doc = {
        "workload": args.workload,
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed N "
                   f"--seconds {args.seconds:g} --trace 0",
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs, Python "
                f"{platform.python_version()}; times are perfbench probe-normalised seconds",
        "bytecode": {"PYTHONDONTWRITEBYTECODE": "1",
                     "PYTHONPYCACHEPREFIX": "one empty temporary directory for every run",
                     "cache_files_written": written},
        "order": "parent first on odd seeds, change first on even seeds",
        "pairs": pairs,
        "parent": _side([p["parent"] for p in pairs]),
        "change": _side([p["change"] for p in pairs]),
        "claim": claim(pairs, args.claim),
        "guards": {metric: claim(pairs, metric) for metric in guards},
    }
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(_summary(doc, args.claim, doc["claim"]))
    for metric, c in doc["guards"].items():
        print("guard " + _summary(doc, metric, c))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
