#!/usr/bin/env python3
"""Benchmark of the sixvertex CLI, run from the root of a source checkout:

    python3 perfbench/run.py --workload fit-series --seed 1 --seconds 30 --trace 0

A closed loop with one client: each pass runs the workload's job list through
`sixvertex.cli.run` in one fresh interpreter, one job at a time, and passes
repeat until --seconds is used up.  Every output is checked against an
independent reference (reference.py).  The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}; the line before it holds
the machine facts and the traced layer shares.

--trace 0 reports the end-to-end metrics from untraced passes: the pass wall
time in units of a reference loop timed beside each job, the import time and
the peak RSS.  --trace 1 alternates untraced and traced passes and reports the
per-layer metrics, with the tracing overhead as traced minus untraced
normalized wall time.  perfbench/README.md describes every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import mpmath

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PER_PASS = 3
PASS_TIMEOUT_S = 150
# Child interpreters import sixvertex from src/ and keep their bytecode in
# the checkout, whatever the caller's PYTHONDONTWRITEBYTECODE says, so that
# setup_s times a cached import, as for an installed CLI.
CHILD_ENV = {
    **{k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"},
    "PYTHONPATH": str(SRC),
    "PYTHONPYCACHEPREFIX": str(ROOT / ".perfbench_cache"),
}

END_TO_END = {"wall_norm": "refloop", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "linalg.elim_guard_s": "s",
    "linalg.elim_base_s": "s",
    "linalg.lu_s": "s",
    "linalg.other_s": "s",
    "linalg.elim_calls": "count",
    "linalg.elim_madds": "count",
    "linalg.guard_bits_max": "bits",
    "linalg.precision_failures": "count",
    "specfun.kernels_s": "s",
    "specfun.kernel_calls": "count",
    "specfun.moments_s": "s",
    "specfun.moments_calls": "count",
    "asymptotics.predict_s": "s",
    "asymptotics.predict_calls": "count",
    "asymptotics.fit_s": "s",
    "hankel.assembly_s": "s",
    "orthopoly.assembly_s": "s",
    "lattice.transfer_s": "s",
    "lattice.dfs_s": "s",
    "lattice.dfs_configs": "count",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "hankel.ref_agree_bits_min": "bits",
    "trace.overhead_norm": "refloop",
}

IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import sixvertex, sixvertex.cli; "
    "print(time.perf_counter() - t0, sixvertex.__file__)"
)


def import_time() -> float:
    """Seconds from a fresh interpreter to sixvertex and sixvertex.cli
    imported."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=CHILD_ENV, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    seconds, path = proc.stdout.split(maxsplit=1)
    if not Path(path.strip()).resolve().is_relative_to(SRC):
        raise RuntimeError(f"sixvertex imported from {path.strip()}, not {SRC}")
    return float(seconds)


def run_pass(argvs, traced: bool) -> dict:
    request = json.dumps({"jobs": argvs, "trace": traced})
    proc = subprocess.run(
        [sys.executable, str(HERE / "passrun.py")],
        input=request, env=CHILD_ENV, cwd=ROOT, capture_output=True, text=True,
        timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"pass process exited with {proc.returncode}:\n{proc.stderr}")
    report = json.loads(proc.stdout)
    report["traced"] = traced
    return report


def run_passes(argvs, seconds: float, trace: bool):
    """Passes until the next one would end after ``seconds``; with tracing,
    untraced and traced passes alternate and there is at least one of each.
    Without tracing, import times are sampled before every pass, so that
    they spread over the run like the passes.  Returns (passes, import times).
    """
    passes, setup = [], []
    if not trace:
        import_time()  # fills the bytecode cache
    start = perf_counter()
    while True:
        t0 = perf_counter()
        if not trace:
            setup += [import_time() for _ in range(SETUP_PER_PASS)]
        passes.append(run_pass(argvs, traced=trace and len(passes) % 2 == 1))
        now = perf_counter()
        if trace and len(passes) < 2:
            continue
        if now - start + (now - t0) > seconds:
            return passes, setup


def verify(jobs, passes) -> tuple:
    """(attempted, failed, min agreement bits) over every job of every pass."""
    from reference import Checker  # needs sixvertex, found through SRC

    checkers = [Checker(job) for job in jobs]
    attempted = failed = 0
    for p in passes:
        for job, checker, res in zip(jobs, checkers, p["results"]):
            attempted += 1
            try:
                if res["error"] or res["code"] != 0:
                    raise AssertionError(f"exit {res['code']}: {res['error'] or res['err']}")
                checker.check(res["out"])
            except (AssertionError, ValueError, KeyError, TypeError) as exc:
                failed += 1
                print(f"FAILED {' '.join(job.argv)[:160]}: {exc}", file=sys.stderr)
    return attempted, failed, min(b for c in checkers for b in c.agree_bits)


def _median(passes, key) -> float:
    return statistics.median(key(p) for p in passes)


def wall_norm(passes) -> float:
    """One pass's wall time in units of the reference loop: each job's wall
    time divided by the reference loop timed beside it, median over the
    passes, summed over the job list.

    Other tenants of the machine switch it between speed states that last
    from seconds to minutes and slow the jobs and the reference loop alike,
    so the ratio is far steadier than the seconds.
    """
    jobs = range(len(passes[0]["results"]))
    return sum(
        statistics.median(p["results"][j]["wall_s"] / p["results"][j]["ref_s"] for p in passes)
        for j in jobs
    )


def layer_metrics(passes, agree_bits: float) -> dict:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    out = {}
    for name in PER_LAYER:
        if name.endswith("_s"):
            out[name] = _median(traced, lambda p: p["self_s"].get(name, 0.0))
        else:
            out[name] = _median(traced, lambda p: p["counts"].get(name, 0))
    out["hankel.ref_agree_bits_min"] = agree_bits
    out["trace.overhead_norm"] = wall_norm(traced) - wall_norm(plain)
    return out


def shares(passes) -> dict:
    """Traced self time of the layer groups the workloads are built around,
    as a share of the traced pass wall time."""
    groups = {
        "linalg_elim": ["linalg.elim_guard_s", "linalg.elim_base_s"],
        "kernels_and_predict": ["specfun.kernels_s", "asymptotics.predict_s"],
        "lattice": ["lattice.transfer_s", "lattice.dfs_s"],
    }
    traced = [p for p in passes if p["traced"]]
    return {
        group: _median(traced, lambda p: sum(p["self_s"].get(m, 0.0) for m in names) / p["wall_s"])
        for group, names in groups.items()
    }


def machine_facts(workload: str, seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "source_sha256": digest.hexdigest(),
    }


def _commit():
    """HEAD of the checkout's git directory, or None outside a git clone."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sixvertex" / "cli.py").is_file():
        print(f"error: no sixvertex sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    jobs = workloads.build(args.workload, args.seed)
    passes, setup = run_passes([job.argv for job in jobs], args.seconds, bool(args.trace))
    attempted, failed, agree_bits = verify(jobs, passes)

    plain = [p for p in passes if not p["traced"]]
    facts = machine_facts(args.workload, args.seed)
    facts.update(
        passes=len(plain),
        traced_passes=len(passes) - len(plain),
        jobs_per_pass=len(jobs),
        fail_frac=failed / attempted,
        ref_agree_bits_min=agree_bits,
        pass_wall_s=[p["wall_s"] for p in plain],
        wall_median_s=_median(plain, lambda p: p["wall_s"]),
        cpu_median_s=_median(plain, lambda p: p["cpu_s"]),
        ref_loop_median_s=statistics.median(r["ref_s"] for p in plain for r in p["results"]),
    )
    if args.trace:
        facts["traced_shares"] = shares(passes)
        values, units = layer_metrics(passes, agree_bits), PER_LAYER
    else:
        facts["setup_median_s"] = statistics.median(setup)
        values = {
            "wall_norm": wall_norm(plain),
            "setup_s": min(setup),
            "peak_rss_mb": _median(plain, lambda p: p["maxrss_kb"] * 1024 / 1e6),
        }
        units = END_TO_END
    print(json.dumps(facts))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
