"""Span tracing of the sixvertex layers, installed from outside the package.

Each traced function is replaced by a wrapper that records a span (name,
start, end, parent) in memory.  The wrapper is bound everywhere the original
was: the module attribute and every `from ... import` binding in the other
sixvertex modules, so calls between layers are seen too.  Self time of a span
is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter
from typing import Dict, List

from mpmath import mp

# Module -> traced functions; _metric_of maps each to its per-layer metric.
# model is not wrapped (microseconds per call), so its time stays in its
# callers' self time.
TRACED = {
    "cli": ["run"],
    "_linalg": ["hankel_pivots", "hankel_determinant", "_forward_pivots", "_lu_det"],
    "specfun": [
        "theta1", "theta4", "theta1_prime0", "zeta_three_halves",
        "phi_derivatives", "ferro_moments", "af_moments", "crit_fd_moments",
        "crit_afd_moments",
    ],
    "hankel": ["zn_series", "zn_ik", "hankel_det", "toda_residual"],
    "orthopoly": [
        "norms_from_moments", "recurrence_r", "zn_crit_series", "zn_crit_fd",
        "zn_crit_afd", "meixner_ratios",
    ],
    "asymptotics": [
        "predict_disordered", "predict_ferro", "predict_af", "predict_crit_fd",
        "fit_free_energy", "fit_kappa",
    ],
    "lattice": ["transfer_matrix_zn", "enumerate_dfs"],
}

KERNELS = {"theta1", "theta4", "theta1_prime0", "zeta_three_halves"}
PREDICTORS = {"predict_disordered", "predict_ferro", "predict_af", "predict_crit_fd"}


def _metric_of(module: str, fn: str) -> str:
    """Per-layer self-time metric that a span of module.fn adds to."""
    if module == "_linalg":
        # the rest of _linalg is the matrix build and the base/guard check
        return "linalg.lu_s" if fn == "_lu_det" else "linalg.other_s"
    if module == "specfun":
        return "specfun.kernels_s" if fn in KERNELS else "specfun.moments_s"
    if module == "asymptotics":
        return "asymptotics.predict_s" if fn in PREDICTORS else "asymptotics.fit_s"
    if module == "lattice":
        return "lattice.transfer_s" if fn == "transfer_matrix_zn" else "lattice.dfs_s"
    if module in ("hankel", "orthopoly"):
        return f"{module}.assembly_s"
    return "cli.self_s"


class Tracer:
    """Spans and counters of one pass."""

    def __init__(self):
        # spans[i] = [metric, start, end, parent index or -1]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._base_bits: List[int] = []  # ctx.bits of the enclosing hankel_pivots
        self.counts: Dict[str, float] = defaultdict(float)

    def _span(self, metric: str, fn, args, kwargs):
        idx = len(self.spans)
        span = [metric, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def wrap(self, module: str, name: str, fn):
        metric = _metric_of(module, name)
        counts = self.counts

        if name == "_forward_pivots":

            @functools.wraps(fn)
            def elim(a):
                guard = mp.prec > self._base_bits[-1]
                n = len(a)
                counts["linalg.elim_calls"] += 1
                counts["linalg.elim_madds"] += n**3 / 3
                if guard:
                    counts["linalg.guard_bits_max"] = max(counts["linalg.guard_bits_max"], mp.prec)
                kind = "linalg.elim_guard_s" if guard else "linalg.elim_base_s"
                return self._span(kind, fn, (a,), {})

            return elim

        precision_error = sys.modules["sixvertex.errors"].PrecisionFailureError

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "hankel_pivots":
                self._base_bits.append(args[2].bits)
            try:
                result = self._span(metric, fn, args, kwargs)
            except precision_error:
                if module == "_linalg" and name.startswith("hankel_"):
                    counts["linalg.precision_failures"] += 1
                raise
            finally:
                if name == "hankel_pivots":
                    self._base_bits.pop()
            if name in KERNELS:
                counts["specfun.kernel_calls"] += 1
            elif metric == "specfun.moments_s":
                counts["specfun.moments_calls"] += 1
            elif name in PREDICTORS:
                counts["asymptotics.predict_calls"] += 1
            elif name == "enumerate_dfs":
                counts["lattice.dfs_configs"] += result[1]
            return result

        return wrapper

    def install(self) -> None:
        """Bind a wrapper in place of every traced function, wherever the
        sixvertex modules hold a reference to it."""
        package = {
            name: mod
            for name, mod in list(sys.modules.items())
            if name == "sixvertex" or name.startswith("sixvertex.")
        }
        for module, names in TRACED.items():
            mod = package[f"sixvertex.{module}"]
            for name in names:
                orig = getattr(mod, name)
                wrapped = self.wrap(module, name, orig)
                for holder in package.values():
                    for attr, value in list(vars(holder).items()):
                        if value is orig:
                            setattr(holder, attr, wrapped)

    def self_times(self) -> Dict[str, float]:
        """Total self time per metric."""
        child = [0.0] * len(self.spans)
        for metric, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for i, (metric, start, end, _) in enumerate(self.spans):
            out[metric] += end - start - child[i]
        return dict(out)
