"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

For every workload it generates the corpus of one seed twice and checks
that the commands and the bytes of every tuple file agree, then runs the
corpus's small commands (inputs of size at most 5, `enumerate`, and the
first input group of `convolve`) and checks that every answer passes
its checks and that a tampered copy of every answer fails them.
Exits 0 when all hold.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import checks
import corpus
import run

SEED = 7


def _files(workdir: str) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name), "rb") as fh:
            out[name] = fh.read()
    return out


def _tamper(node):
    """Flip the first bool or bump the first int, in sorted-key order;
    returns True once something changed."""
    items = sorted(node.items()) if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, bool):
            node[key] = not value
            return True
        if isinstance(value, int):
            node[key] = value + 1
            return True
        if isinstance(value, (dict, list)) and _tamper(value):
            return True
    return False


def _small(workload: str, k: int, cmd) -> bool:
    if workload == "convolve":
        return k < 4
    if cmd.kind == "enumerate":
        return True
    with open(cmd.args[1], encoding="utf-8") as fh:
        return json.load(fh)["n"] <= 5


def check_workload(cli, workload: str, base: str) -> list[str]:
    errors = []
    dirs = [os.path.join(base, f"{workload}-{i}") for i in (1, 2)]
    built = []
    for d in dirs:
        os.makedirs(d)
        built.append(corpus.build(workload, SEED, d))
    a, b = ([[arg.replace(d, "") for arg in c.args] for c in x]
            for x, d in zip(built, dirs))
    if a != b:
        errors.append(f"{workload}: command lists differ between two builds")
    if _files(dirs[0]) != _files(dirs[1]):
        errors.append(f"{workload}: tuple files differ between two builds")
    ran = 0
    for k, cmd in enumerate(built[0]):
        if not _small(workload, k, cmd):
            continue
        ran += 1
        _, code, out, err = run.run_command(cli, cmd)
        problems = checks.verify(cmd, code, out, err)
        if problems:
            errors.append(f"{workload} {' '.join(cmd.args[:1])}: {problems}")
            continue
        if cmd.expect_exit:
            if not checks.verify(cmd, 0, "{}", ""):
                errors.append(f"{workload}: a wrong exit code was accepted")
            continue
        payload = json.loads(out)
        if not _tamper(payload):
            errors.append(f"{workload} {cmd.kind}: nothing to tamper with")
        elif not checks.verify(cmd, code, json.dumps(payload), err):
            errors.append(f"{workload} {cmd.kind}: a tampered answer passed the checks")
    if ran == 0:
        errors.append(f"{workload}: no small command to run")
    print(f"{workload}: {len(built[0])} commands generated twice, {ran} run")
    return errors


def main() -> int:
    base = os.path.join(run.WORK, f"selftest-{os.getpid()}")
    try:
        cli = run.load_library()
        errors = []
        for workload in corpus.WORKLOADS:
            errors += check_workload(cli, workload, base)
    finally:
        shutil.rmtree(base, ignore_errors=True)
        if os.path.isdir(run.WORK) and not os.listdir(run.WORK):
            os.rmdir(run.WORK)
    for e in errors:
        print(f"FAIL {e}")
    print("selftest: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
