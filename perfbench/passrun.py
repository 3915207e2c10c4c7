"""One pass over a job list in a fresh interpreter.

Reads {"jobs": [argv, ...], "trace": bool} as JSON on stdin, runs each argv
through `sixvertex.cli.run` in this process, one after another, and prints one
JSON object with each job's output, wall and CPU time and the time of a fixed
reference loop run just before and after it, the pass's peak RSS and, when
traced, the per-layer self times and counters.  The `lru_cache` tables
start empty, as they do for a user of the CLI.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent


def reference_loop() -> float:
    """Seconds taken by a fixed piece of pure-Python work: a small-integer
    loop, then a loop filling a dictionary with 256-bit integers.  It is the
    yardstick for the speed the machine gives this process at the moment;
    together the two parts slow down with the machine the way the mpmath and
    the Fraction workloads do."""
    t0 = perf_counter()
    acc = 0
    for i in range(50_000):
        acc += i * i
    table, x = {}, 1
    for i in range(20_000):
        x = (x * 1_000_003 + i) % (1 << 256)
        table[x & 0xFFFF] = x
    return perf_counter() - t0


def main() -> int:
    request = json.load(sys.stdin)
    sys.path.insert(0, str(ROOT / "src"))
    import sixvertex.cli

    if not Path(sixvertex.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"sixvertex imported from {sixvertex.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 1
    tracer = None
    if request["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    cli = sixvertex.cli

    results = []
    ref = [reference_loop()]
    for argv in request["jobs"]:
        out, err = io.StringIO(), io.StringIO()
        error = None
        wall0, cpu0 = perf_counter(), process_time()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.run(argv)
        except SystemExit as exc:  # argparse rejects an argv
            code = exc.code
        except Exception:  # a failed job is counted, not fatal to the pass
            code, error = None, traceback.format_exc()
        wall, cpu = perf_counter() - wall0, process_time() - cpu0
        ref.append(reference_loop())
        results.append({
            "code": code, "out": out.getvalue(), "err": err.getvalue(), "error": error,
            "wall_s": wall, "cpu_s": cpu, "ref_s": (ref[-2] + ref[-1]) / 2,
        })

    report = {
        "wall_s": sum(r["wall_s"] for r in results),
        "cpu_s": sum(r["cpu_s"] for r in results),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "results": results,
    }
    if tracer is not None:
        tracer.counts["cli.output_bytes"] = sum(len(r["out"].encode()) for r in results)
        report["self_s"] = tracer.self_times()
        report["counts"] = dict(tracer.counts)
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
