"""Seeded job lists for the three workloads.

A job is the argv of one `sixvertex` CLI call plus the facts the reference
checker needs.  The seed picks parameter values only; the slots (command,
phase, size, output format) are fixed per workload, so the amount of work in a
pass barely depends on the seed and runs with different seeds stay comparable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from mpmath import mp

# pi/3 and pi/4 as 200-digit literals: the CLI parses --t/--gamma at the guard
# precision of --bits (512 bits for the default 256), so a short literal would
# move the point off the line whose closed form the checker uses.
with mp.workdps(220):
    PI3 = mp.nstr(mp.pi / 3, 200)
    PI4 = mp.nstr(mp.pi / 4, 200)

DEFAULT_BITS = 256
FIT_SERIES_NMAX = 48


@dataclass(frozen=True)
class Job:
    command: str
    argv: List[str]
    bits: int  # requested --bits: the check tolerance is 2^-(bits/2)
    phase: Optional[str] = None
    params: Dict[str, str] = field(default_factory=dict)
    size: int = 0  # nmax for compare/fit, n for norms/toda/exact
    weights: tuple = ()  # (a, b, c) decimal strings for exact
    method: Optional[str] = None


def _dec(rng: random.Random, lo: float, hi: float, places: int = 4) -> str:
    """Decimal literal drawn uniformly from [lo, hi] on a 10^-places grid."""
    scale = 10**places
    k = rng.randint(round(lo * scale), round(hi * scale))
    return f"{k / scale:.{places}f}"


def _phase_job(command, phase, params, size, bits=DEFAULT_BITS, fmt="json", extra=()):
    size_flag = "--nmax" if command in ("compare", "fit") else "--n"
    argv = [command, "--phase", phase]
    for key in ("t", "gamma", "alpha"):
        if key in params:
            argv += [f"--{key}", params[key]]
    argv += [size_flag, str(size), *extra]
    if bits != DEFAULT_BITS:
        argv += ["--bits", str(bits)]
    if fmt != "json":
        argv += ["--format", fmt]
    return Job(command, argv, bits, phase, dict(params), size)


def _disordered(rng):
    gamma = _dec(rng, 0.6, 1.3)
    return {"t": _dec(rng, -0.4 * float(gamma), 0.4 * float(gamma)), "gamma": gamma}


def _ferro(rng):
    return {"t": _dec(rng, 1.6, 2.4), "gamma": _dec(rng, 0.6, 1.2)}


def _af(rng):
    gamma = _dec(rng, 0.9, 1.5)
    return {"t": _dec(rng, -0.4 * float(gamma), 0.4 * float(gamma)), "gamma": gamma}


def _crit_fd(rng):
    return {"alpha": _dec(rng, 2.0, 4.0, 2)}


def _crit_afd(rng):
    return {"alpha": _dec(rng, -0.5, 0.5, 2)}


_POINT = {
    "disordered": _disordered,
    "ferro": _ferro,
    "af": _af,
    "critical-fd": _crit_fd,
    "critical-afd": _crit_afd,
}


def fit_series(rng: random.Random) -> List[Job]:
    """Large-n series at 24n bits: unpivoted elimination dominates."""
    n = FIT_SERIES_NMAX
    return [
        # t = 0 makes the measure symmetric: every odd moment is zero.
        _phase_job("compare", "disordered", {"t": "0", "gamma": PI3}, n),
        _phase_job("compare", "disordered", {"t": _dec(rng, -0.3, 0.3), "gamma": PI4}, n),
        _phase_job("compare", "ferro", {"t": "2", "gamma": "1"}, n),
        _phase_job("fit", "af", {"t": _dec(rng, -0.3, 0.3), "gamma": "1"}, n),
        _phase_job("fit", "critical-fd", {"alpha": _dec(rng, 2.5, 3.5, 2)}, n),
    ]


def compare_grid(rng: random.Random) -> List[Job]:
    """Many small series: theta/zeta kernels and predictors dominate."""
    jobs = [
        _phase_job("compare", "disordered", {"t": "0", "gamma": PI3}, 20),
        _phase_job("compare", "disordered", {"t": _dec(rng, -0.3, 0.3), "gamma": PI4}, 24),
    ]
    slots = [
        ("disordered", 16, "json"),
        ("disordered", 24, "csv"),
        ("ferro", 16, "json"),
        ("ferro", 20, "csv"),
        ("ferro", 24, "json"),
        ("af", 16, "json"),
        ("af", 20, "json"),
        ("af", 24, "csv"),
        ("af", 24, "json"),
        ("critical-fd", 12, "json"),
        ("critical-fd", 16, "csv"),
        ("critical-fd", 20, "json"),
        ("critical-fd", 24, "json"),
        ("disordered", 20, "json"),
    ]
    for phase, nmax, fmt in slots:
        jobs.append(_phase_job("compare", phase, _POINT[phase](rng), nmax, fmt=fmt))
    norm_slots = [
        ("disordered", 16),
        ("disordered", 24),
        ("ferro", 12),
        ("ferro", 24),
        ("af", 16),
        ("af", 24),
        ("critical-fd", 12),
        ("critical-fd", 24),
        ("critical-afd", 12),
        ("critical-afd", 20),
        ("critical-afd", 24),
        ("ferro", 20),
    ]
    for phase, n in norm_slots:
        jobs.append(_phase_job("norms", phase, _POINT[phase](rng), n))
    # toda needs tau_{n+1}; the checker rebuilds it by the transfer matrix,
    # which it runs up to n = 8.  h = 1e-10 keeps the O(h^2) residual far
    # above the roundoff of the 1024-bit guard run.
    for phase, n in [("disordered", 3), ("disordered", 5), ("disordered", 7),
                     ("ferro", 4), ("ferro", 7), ("af", 3), ("af", 6), ("af", 7)]:
        jobs.append(
            _phase_job("toda", phase, _POINT[phase](rng), n, bits=512, extra=("--h", "1e-10"))
        )
    return jobs


def _exact_job(n, a, b, c, method):
    weights = tuple(str(x) for x in (a, b, c))
    argv = ["exact", "--n", str(n), "--a", weights[0], "--b", weights[1], "--c", weights[2]]
    argv += ["--method", method]
    return Job("exact", argv, DEFAULT_BITS, size=n, weights=weights, method=method)


def exact_lattice(rng: random.Random) -> List[Job]:
    """Rational weights through the transfer matrix and the DFS oracle.

    The transfer-matrix jobs sit at a = b = c and at the Pythagorean triples
    (3, 4, 5) and (5, 12, 13), free-fermion points where Z_n = c^(n^2); the
    seed only orders a and b there, so their cost does not depend on it.
    """
    p, q = rng.sample(["3/5", "4/5"], 2)
    x, y = rng.sample([5, 12], 2)
    jobs = [
        _exact_job(12, 1, 1, 1, "transfer"),
        _exact_job(13, 1, 1, 1, "transfer"),
        _exact_job(12, p, q, 1, "transfer"),
        _exact_job(13, x, y, 13, "transfer"),
        _exact_job(6, 1, 1, 1, "dfs"),
    ]
    for _ in range(4):
        a, b, c = (f"{rng.randint(1, 9)}/{rng.randint(1, 9)}" for _ in range(3))
        jobs.append(_exact_job(6, a, b, c, "dfs"))
    return jobs


def probes() -> List[Job]:
    """Small jobs that end every pass so that each layer is measured on
    every workload; together they take well under 1 % of a pass."""
    return [
        _phase_job("compare", "af", {"t": "0.1", "gamma": "1"}, 4),
        _phase_job("fit", "critical-fd", {"alpha": "3"}, 6),
        _phase_job("toda", "disordered", {"t": "0.2", "gamma": "1"}, 2, bits=512,
                   extra=("--h", "1e-10")),
        _exact_job(4, 1, 1, 1, "transfer"),
        _exact_job(3, 1, 1, 1, "dfs"),
    ]


WORKLOADS = {
    "fit-series": fit_series,
    "compare-grid": compare_grid,
    "exact-lattice": exact_lattice,
}


def build(workload: str, seed: int) -> List[Job]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}")) + probes()
