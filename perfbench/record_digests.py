"""Record the machine-output digests of seeds 0..11.

    python3 perfbench/record_digests.py

Runs one pass of every workload's corpus for each of the seeds 0..11
and stores one digest per command in digests.json, refusing any seed
whose answers fail the checks.  Run it only when the corpus generator
changes: the digests pin the `--format machine` bytes that later
revisions of midconv must reproduce.
"""

from __future__ import annotations

import os
import shutil
import sys

import checks
import corpus
import run

SEEDS = range(12)


def main() -> int:
    table = checks.Digests()
    status = 0
    for workload in corpus.WORKLOADS:
        for seed in SEEDS:
            workdir = os.path.join(run.WORK, f"record-{workload}-{seed}-{os.getpid()}")
            try:
                cli, commands, _ = run.setup(workload, seed, workdir)
                passes = [run.run_pass(cli, commands, keep_output=True)]
                _, failed, problems, digests = run.check_passes(commands, passes, None)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if failed:
                print(f"{workload} seed {seed}: not recorded, {failed} failed", *problems, sep="\n  ")
                status = 1
                continue
            table.record(workload, seed, digests)
            print(f"{workload} seed {seed}: {len(digests)} digests", flush=True)
    table.save()
    if os.path.isdir(run.WORK) and not os.listdir(run.WORK):
        os.rmdir(run.WORK)
    return status


if __name__ == "__main__":
    sys.exit(main())
