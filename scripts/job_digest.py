#!/usr/bin/env python3
"""Digest of every benchmark job's output, to show that a change leaves what
the CLI prints byte-identical.

Run from a checkout root:

    python scripts/job_digest.py [--seeds S ...]

For every workload of `perfbench/workloads.WORKLOADS` and every seed (1 2 3
by default), the jobs of `perfbench/workloads.build(workload, seed)` run
through `perfbench/passrun.py` of this checkout: one fresh interpreter per job
list, which runs each job through `sixvertex.cli.run` and returns its stdout,
stderr and exit code (a job that raises counts its traceback as stderr).  One
line per job gives the workload, the seed, the job's index and the sha256 of
repr((argv, stdout, stderr, code)); the last line is the sha256 over those
reprs in order.  Two trees print the same last line exactly when every job
printed the same output and exit code on both.
"""

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402


def job_records(seeds):
    """(workload, seed, index, repr((argv, stdout, stderr, code))) per job."""
    for name in workloads.WORKLOADS:
        for seed in seeds:
            jobs = workloads.build(name, seed)
            request = json.dumps({"jobs": [job.argv for job in jobs], "trace": False})
            done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "passrun.py")],
                                  input=request, capture_output=True, text=True, check=True)
            results = json.loads(done.stdout)["results"]
            for index, (job, r) in enumerate(zip(jobs, results)):
                record = (job.argv, r["out"], r["err"] + (r["error"] or ""), r["code"])
                yield name, seed, index, repr(record)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    args = ap.parse_args(argv)

    combined = hashlib.sha256()
    for name, seed, index, record in job_records(args.seeds):
        data = record.encode()
        combined.update(data)
        print(name, seed, index, hashlib.sha256(data).hexdigest())
    print(combined.hexdigest())


if __name__ == "__main__":
    main()
