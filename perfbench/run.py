"""Benchmark of the midconv command line on seeded command corpora.

    python3 perfbench/run.py --workload rigidity --seed 1 --seconds 20 --trace 0

Run from the repository root.  One process, one thread, one client in a
closed loop: each command of the workload's corpus is a call of
`midconv.cli.main(["--format", "machine", ...])` in this process with
stdout captured, issued when the previous one has returned.  Interpreter
start-up is therefore paid once, in `setup_s`.

A run sets up (imports midconv from ./src, generates the corpus from the
seed, writes the tuple files, runs one warm-up command) several times
and reports the median set-up time, then repeats passes over the corpus
for about `--seconds` and reports medians over passes (per command, see
`end_to_end`).

Times are reported at a fixed reference speed.  On a shared virtual
machine a core can run at half speed for a minute or more at a time (for
instance while its sibling hardware thread is busy), and a slowed core
slows process time as much as wall time.  So a fixed piece of Fraction
arithmetic, `probe()`, is timed before and after every command and every
set-up, and each measured time t is reported as t * PROBE_REF_S / q,
where q is the mean of the two probes around it: seconds on a core that
runs the probe in PROBE_REF_S, which is the full speed of the host the
constant was taken on.  The raw figures are in the report line as
`setup_raw_s` and `corpus_raw_s`, with the run's fastest probe
`probe_min_s` and `host_slowdown`, the median of q / PROBE_REF_S over
the commands.  The per-layer self times of the traced run are raw.

Every answer is checked (see checks.py), on the seeds recorded in
digests.json also against the machine-output digests written by
record_digests.py; mismatches count as failed commands.

`--trace 0` prints the end-to-end metrics named in BENCHMARK.json;
`--trace 1` runs traced and untraced passes alternately and prints the
per-layer metrics (calls and self time of each wrapped function, see
tracer.py), the share of the traced command time that the library
layers' self times account for (`trace.coverage`), and the tracing
overhead.  Either way the last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`; the line before it,
starting with "report ", holds every measured value with its unit and
the run's metadata.

The harness self-test is `python3 perfbench/selftest.py`.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from time import perf_counter

import checks
import corpus as corpus_mod
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 9, 2.0   # setup_s is the median set-up
MIN_PASSES = 3
PROBE_TERMS = 400
PROBE_REF_S = 0.002     # probe() at full speed: x86-64 VM, 2 vCPUs, CPython 3.11


class HarnessError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_library():
    """Import midconv afresh from ./src (never from an installed copy)."""
    if not os.path.isfile(os.path.join(SRC, "midconv", "cli.py")):
        raise HarnessError(f"no midconv sources under {SRC}")
    for name in [m for m in sys.modules if m == "midconv" or m.startswith("midconv.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    cli = importlib.import_module("midconv.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise HarnessError(f"midconv was imported from {cli.__file__}, not from {SRC}")
    return cli


def run_command(cli, cmd):
    """(seconds, exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = cli.main(["--format", "machine", *cmd.args])
        except Exception:                  # a traceback is a wrong answer, not a crash
            code = -1
            traceback.print_exc()
        dt = perf_counter() - t0
    return dt, code, out.getvalue(), err.getvalue()


def probe() -> float:
    """Seconds taken by a fixed sum of Fractions: the host's current speed
    at the kind of work midconv does, independent of midconv.  The
    collector is off, so that garbage a command left is not collected on
    the probe's time."""
    gc.disable()
    try:
        t0 = perf_counter()
        x, s = Fraction(1, 3), Fraction(0)
        for i in range(1, PROBE_TERMS):
            s += x / i - Fraction(i, 7)
        return perf_counter() - t0
    finally:
        gc.enable()


def setup(workload: str, seed: int, workdir: str):
    t0 = perf_counter()
    cli = load_library()
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    commands = corpus_mod.build(workload, seed, workdir)
    run_command(cli, commands[0])                  # warm-up
    return cli, commands, perf_counter() - t0


def run_pass(cli, commands, keep_output=False):
    """(seconds, [(seconds, exit code, output digest, (stdout, stderr) or
    None)], probe seconds before each command and after the last).  The
    pass's seconds are those of its commands; only a pass that keeps its
    output holds it in memory, so that peak RSS does not grow with the
    number of passes."""
    gc.collect()
    probes = [probe()]
    results = []
    for c in commands:
        dt, code, out, err = run_command(cli, c)
        probes.append(probe())
        results.append((dt, code, checks.output_digest(code, out),
                        (out, err) if keep_output else None))
    return sum(r[0] for r in results), results, probes


# ---------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------

def check_passes(commands, passes, recorded):
    """Count failed command executions over all passes.

    The first pass is checked in full (exit code, invariants, files
    written, recorded digests when the seed has them); a later pass fails
    a command whose output differs from the first pass."""
    first = passes[0][1]
    digests = [digest for _, _, digest, _ in first]
    problems = {}
    for k, (cmd, (_, code, _, (out, err))) in enumerate(zip(commands, first)):
        found = checks.verify(cmd, code, out, err)
        if recorded is not None and (len(recorded) != len(digests) or recorded[k] != digests[k]):
            found.append("machine output differs from the digest recorded for this seed")
        if found:
            problems[k] = found
    attempted = failed = 0
    for _, results, _ in passes:
        for k, (_, _, digest, _) in enumerate(results):
            attempted += 1
            failed += k in problems or digest != digests[k]
    lines = [f"command {k} ({' '.join(commands[k].args)}): {'; '.join(p)}"
             for k, p in problems.items()]
    return attempted, failed, lines, digests


# ---------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------

def metadata() -> dict:
    src_lines = 0
    pkg = os.path.join(SRC, "midconv")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_revision": git_revision(),
        "src_lines": src_lines,
    }


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git; a
    checkout that is not a repository reports "unknown"."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def at_ref_speed(t: float, before: float, after: float) -> float:
    """A time t measured between probes `before` and `after`, at the
    reference speed (see the module docstring)."""
    return t * PROBE_REF_S / ((before + after) / 2)


def scaled_passes(passes) -> list[list[float]]:
    """Per pass, its command times at the reference speed."""
    return [[at_ref_speed(r[0], pr[k], pr[k + 1]) for k, r in enumerate(results)]
            for _, results, pr in passes]


def end_to_end(commands, passes, setups) -> dict:
    """corpus_s is the time of one pass taken as the sum over the commands
    of each command's median over the passes, and each `<kind>_s` the
    same sum over the commands of that kind, all at the reference speed
    (see the module docstring); setup_s is the median set-up time at that
    speed.  The percentiles are over every timed call.  corpus_raw_s and
    pass_median_s are the same figures unscaled, for comparison."""
    scaled = scaled_passes(passes)
    medians = [statistics.median(p[k] for p in scaled) for k in range(len(commands))]
    raw_medians = [statistics.median(results[k][0] for _, results, _ in passes)
                   for k in range(len(commands))]
    samples = [t for p in scaled for t in p]
    slowdown = [(pr[k] + pr[k + 1]) / 2 / PROBE_REF_S
                for _, results, pr in passes for k in range(len(results))]
    m = {
        "setup_s": (statistics.median(at_ref_speed(*s) for s in setups), "s"),
        "corpus_s": (sum(medians), "s"),
        "cmd_p50_s": (statistics.median(samples), "s"),
        "cmd_p90_s": (statistics.quantiles(samples, n=10)[8], "s"),
        "cmd_samples": (len(samples), "count"),
        "setup_raw_s": (statistics.median(t for t, _, _ in setups), "s"),
        "corpus_raw_s": (sum(raw_medians), "s"),
        "pass_median_s": (statistics.median(t for t, _, _ in passes), "s"),
        "probe_min_s": (min(q for _, _, pr in passes for q in pr), "s"),
        "host_slowdown": (statistics.median(slowdown), "ratio"),
        "passes": (len(passes), "count"),
        "setups": (len(setups), "count"),
    }
    for kind in sorted({c.kind for c in commands}):
        m[f"{kind}_s"] = (sum(t for c, t in zip(commands, medians) if c.kind == kind), "s")
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return m


def declared(trace: bool) -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


# ---------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------

def measure(workload, seed, seconds, workdir):
    setups = []           # (seconds, probe before, probe after)
    while (len(setups) < MIN_SETUPS
           or (len(setups) < MAX_SETUPS and sum(s[0] for s in setups) < SETUP_BUDGET_S)):
        before = probe()
        cli, commands, dt = setup(workload, seed, workdir)
        setups.append((dt, before, probe()))
    passes = []
    t0 = perf_counter()
    while True:
        passes.append(run_pass(cli, commands, keep_output=not passes))
        typical = statistics.median(t for t, _, _ in passes)
        if len(passes) >= MIN_PASSES and perf_counter() - t0 + typical > seconds:
            break
    return commands, passes, end_to_end(commands, passes, setups)


def measure_traced(workload, seed, seconds, workdir):
    cli, commands, _ = setup(workload, seed, workdir)
    tracer = Tracer()
    plain, traced, snapshots = [], [], []
    t0 = perf_counter()
    while True:
        plain.append(run_pass(cli, commands, keep_output=not plain))
        tracer.reset()
        tracer.install()
        try:
            traced.append(run_pass(cli, commands))
        finally:
            tracer.uninstall()
        snapshots.append((tracer.metrics(), tracer.library_share()))
        pair = plain[-1][0] + traced[-1][0]
        if perf_counter() - t0 + pair > seconds:
            break
    m = {}
    for key, (_, unit) in snapshots[0][0].items():
        m[key] = (statistics.median(s[0][key][0] for s in snapshots), unit)
    scaled = scaled_passes(plain + traced)
    untraced_s = statistics.median(sum(p) for p in scaled[:len(plain)])
    traced_s = statistics.median(sum(p) for p in scaled[len(plain):])
    m["trace.corpus_s"] = (traced_s, "s")
    m["trace.untraced_corpus_s"] = (untraced_s, "s")
    m["trace.coverage"] = (statistics.median(s[1] for s in snapshots), "ratio")
    m["trace.overhead"] = (traced_s / untraced_s, "ratio")
    return commands, plain + traced, m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=corpus_mod.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        names = declared(bool(args.trace))
        run = measure_traced if args.trace else measure
        commands, passes, metrics = run(args.workload, args.seed, args.seconds, workdir)
        recorded = checks.Digests().expected(args.workload, args.seed)
        attempted, failed, problems, _ = check_passes(commands, passes, recorded)
        missing = [n for n in names if n not in metrics]
        if missing:
            raise HarnessError(f"metrics not measured on this workload: {missing}")
    except (HarnessError, OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)

    metrics["fail_ratio"] = (failed / attempted, "ratio")
    for line in problems:
        print(f"FAILED {line}")
    print(f"workload {args.workload}, seed {args.seed}, {len(commands)} commands, "
          f"{attempted} attempted, {failed} failed, digests "
          f"{'checked' if recorded is not None else 'not recorded for this seed'}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<48} {value:>14.6g} {unit}")
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "digests_checked": recorded is not None, **metadata(),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print("report " + json.dumps(report, sort_keys=True))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in names}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
