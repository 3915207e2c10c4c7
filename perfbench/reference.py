"""Independent reference values and the output checker.

Every Z_n the CLI prints is compared with a value obtained by another route:

* the alternating-sign-matrix count A_n at a = b = c (gamma = pi/3, t = 0 in
  the disordered chart, where Z_n = A_n (sqrt(3)/2)^(n^2));
* Z_n = c^(n^2) at the free-fermion point a^2 + b^2 = c^2 (gamma = pi/4, where
  c = 1, and the Pythagorean triples of the exact workload);
* the 2^n-state transfer matrix, in mpf at a higher precision, for n <= 8 at
  every other point (weights built here from the chart formulas, not by the
  library's own parameterization code).

Predictions are recomputed from the theorem formulas with mpmath's own
jtheta, zeta and q-Pochhammer functions, so the library's theta and zeta
kernels are checked too.  A Z_n value must agree to relative 2^-(bits/2),
with bits the requested --bits of the job.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from typing import List

from mpmath import mp

from sixvertex import lattice
from sixvertex.model import PrecisionContext, Weights

from workloads import PI3, PI4, Job

TRANSFER_REF_MAX_N = 8


def asm_count(n: int) -> int:
    """A_n = prod_{k<n} (3k+1)! / (n+k)!, the number of n x n ASMs."""
    num = den = 1
    for k in range(n):
        num *= math.factorial(3 * k + 1)
        den *= math.factorial(n + k)
    return num // den


def _mpf(x):
    return mp.mpf(x.numerator) / x.denominator if isinstance(x, Fraction) else x


def _sf_sq(n: int) -> int:
    p = 1
    for k in range(n):
        p *= math.factorial(k)
    return p * p


def _output_bits(job: Job) -> int:
    """Bits behind the printed digits: the CLI lifts compare, fit and norms
    to 24 n bits."""
    if job.command in ("compare", "fit", "norms"):
        return max(job.bits, 24 * job.size)
    return job.bits


class Reference:
    """Reference values for one job's parameter point, at ``prec`` bits."""

    def __init__(self, job: Job, prec: int):
        self.job = job
        self.prec = prec
        with mp.workprec(prec):
            p = job.params
            self.alpha = Fraction(p["alpha"]) if "alpha" in p else None
            self.t = mp.mpf(p["t"]) if "t" in p else None
            self.gamma = mp.mpf(p["gamma"]) if "gamma" in p else None
        self._terms = None

    # -- partition function ------------------------------------------------

    def weights(self, t=None):
        """(a, b, c) of the phase chart; Fractions on the critical lines."""
        phase, g = self.job.phase, self.gamma
        t = self.t if t is None else t
        if phase == "critical-fd":
            return (self.alpha - 1) / 2, (self.alpha + 1) / 2, Fraction(1)
        if phase == "critical-afd":
            return (1 - self.alpha) / 2, (1 + self.alpha) / 2, Fraction(1)
        if phase == "disordered":
            return mp.sin(g - t), mp.sin(g + t), mp.sin(2 * g)
        if phase == "ferro":
            return mp.sinh(t - g), mp.sinh(t + g), mp.sinh(2 * g)
        return mp.sinh(g - t), mp.sinh(g + t), mp.sinh(2 * g)

    def _transfer(self, n: int, w):
        if all(isinstance(x, Fraction) for x in w):
            return _mpf(lattice.transfer_matrix_zn(n, Weights(*w), exact=True))
        ctx = PrecisionContext(self.prec, 2)
        return lattice.transfer_matrix_zn(n, Weights(*w), exact=False, ctx=ctx)

    def zn(self, n: int, t=None):
        """Reference Z_n, or None where no independent route reaches n."""
        with mp.workprec(self.prec):
            if self.job.phase == "disordered" and t is None:
                if self.job.params["gamma"] == PI3 and self.job.params["t"] == "0":
                    return asm_count(n) * (mp.sqrt(3) / 2) ** (n * n)
                if self.job.params["gamma"] == PI4:
                    return mp.mpf(1)
            if n > TRANSFER_REF_MAX_N:
                return None
            return self._transfer(n, self.weights(t))

    def tau(self, n: int, t=None):
        """tau_n = Z_n prod_{k<n} (k!)^2 / (ab)^(n^2), with tau_0 = 1."""
        if n == 0:
            return mp.mpf(1)
        with mp.workprec(self.prec):
            a, b, _ = map(_mpf, self.weights(t))
            return self.zn(n, t) * _sf_sq(n) / (a * b) ** (n * n)

    def toda_residual(self, n: int, step):
        """|tau_n tau_n'' - tau_n'^2 - tau_{n+1} tau_{n-1}| / (tau_{n+1} tau_{n-1})
        with central differences at step h, as the CLI defines it."""
        with mp.workprec(self.prec):
            t = self.t
            t0, tp, tm = self.tau(n), self.tau(n, t + step), self.tau(n, t - step)
            d1 = (tp - tm) / (2 * step)
            d2 = (tp - 2 * t0 + tm) / (step * step)
            rhs = self.tau(n + 1) * self.tau(n - 1)
            return abs(t0 * d2 - d1 * d1 - rhs) / rhs

    def norm_scale(self, k: int):
        """h_k of the phi-derivative family over h_k of the moment family
        the CLI's `norms` uses: the discrete ferro and AF families have
        phi^(k) = 2 (-+2)^k mu_k."""
        return 2 * 4**k if self.job.phase in ("ferro", "af") else 1

    def zn_from_norms(self, h: List) -> List:
        """Z_1..Z_len(h) rebuilt from the printed norms."""
        with mp.workprec(self.prec):
            a, b, _ = map(_mpf, self.weights())
            base = b if self.alpha is not None else a * b
            out, prod = [], mp.mpf(1)
            for n in range(1, len(h) + 1):
                prod *= self.norm_scale(n - 1) * h[n - 1]
                out.append(base ** (n * n) * prod / _sf_sq(n))
            return out

    # -- asymptotic predictor ------------------------------------------------

    def predictor_terms(self):
        """(F, G, kappa, n -> log_prediction - n^2 log F) from the theorem
        formulas; G and kappa are None where the phase has no such factor."""
        if self._terms is None:
            with mp.workprec(self.prec):
                self._terms = self._compute_terms()
        return self._terms

    def _compute_terms(self):
        phase, t, g = self.job.phase, self.t, self.gamma
        if phase == "disordered":
            a, b = mp.sin(g - t), mp.sin(g + t)
            f = mp.pi * a * b / (2 * g * mp.cos(mp.pi * t / (2 * g)))
            kappa = mp.mpf(1) / 12 - 2 * g * g / (3 * mp.pi * (mp.pi - 2 * g))
            return f, None, kappa, lambda n: kappa * mp.log(n)
        if phase == "ferro":
            f, gg = mp.sinh(t + g), mp.exp(g - t)
            q = mp.exp(-4 * g)
            log_c = mp.log(mp.qp(q, q))
            return f, gg, None, lambda n: n * mp.log(gg) + log_c
        if phase == "af":
            q = mp.exp(-mp.pi**2 / (2 * g))
            omega = mp.pi / 2 * (1 + t / g)
            a, b = mp.sinh(g - t), mp.sinh(g + t)
            th1p = mp.jtheta(1, 0, q, 1)
            f = mp.pi * a * b * th1p / (2 * g * mp.jtheta(1, omega, q))
            return f, None, None, lambda n: mp.log(mp.jtheta(4, n * omega, q))
        alpha = _mpf(self.alpha)
        a, b = (alpha - 1) / 2, (alpha + 1) / 2
        gg = mp.exp(-mp.zeta(mp.mpf(3) / 2) * mp.sqrt(a / mp.pi))
        kappa = mp.mpf(1) / 4
        return b, gg, kappa, lambda n: mp.sqrt(n) * mp.log(gg) + kappa * mp.log(n)

    def log_prediction(self, n: int):
        with mp.workprec(self.prec):
            f, _, _, rest = self.predictor_terms()
            return n * n * mp.log(f) + rest(n)


class Checker:
    """Checks one job's printed output against its references.

    ``agree_bits`` collects -log2 of the relative error of every checked Z_n.
    """

    def __init__(self, job: Job):
        self.job = job
        self.prec = _output_bits(job) + 64
        self.tol = mp.mpf(2) ** (-(job.bits // 2))
        self.ref = Reference(job, self.prec)
        self.agree_bits: List[float] = []
        self._cache = {}  # reference values, shared by the passes of a run

    def _cached(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def _rel(self, got, want, what: str, scale=None) -> None:
        """Fail unless |got - want| <= tol * scale (scale = |want| by default)."""
        scale = abs(want) if scale is None else scale
        if abs(got - want) > self.tol * scale:
            raise AssertionError(
                f"{what}: got {mp.nstr(got, 20)}, reference {mp.nstr(want, 20)}"
            )

    def _zn(self, n: int, got) -> None:
        want = self._cached(("zn", n), lambda: self.ref.zn(n))
        if want is None:
            return
        self._rel(got, want, f"Z_{n}")
        rel = abs(got - want) / abs(want)
        self.agree_bits.append(float(min(-mp.log(rel, 2), self.prec)) if rel else float(self.prec))

    def check(self, text: str) -> None:
        """Raise AssertionError on any mismatch."""
        with mp.workprec(self.prec):
            getattr(self, "_check_" + self.job.command)(text)

    def _check_compare(self, text: str) -> None:
        if "--format" in self.job.argv:
            rows = list(csv.DictReader(io.StringIO(text)))
        else:
            rows = json.loads(text)
        ns = [int(r["n"]) for r in rows]
        if ns != list(range(1, self.job.size + 1)):
            raise AssertionError(f"rows n={ns[:3]}..., expected 1..{self.job.size}")
        for r in rows:
            n = int(r["n"])
            zn, log_zn = mp.mpf(r["zn"]), mp.mpf(r["log_zn"])
            log_pred, ratio = mp.mpf(r["log_prediction"]), mp.mpf(r["ratio"])
            self._zn(n, zn)
            self._rel(log_zn, mp.log(zn), f"log_zn at n={n}", max(1, abs(log_zn)))
            want = self._cached(("pred", n), lambda: self.ref.log_prediction(n))
            self._rel(log_pred, want, f"log_prediction at n={n}", max(1, abs(want)))
            self._rel(ratio, mp.exp(log_zn - log_pred), f"ratio at n={n}")

    def _check_norms(self, text: str) -> None:
        obj = json.loads(text)
        h = [mp.mpf(v) for v in obj["h"]]
        r = [mp.mpf(v) for v in obj["r"]]
        if len(h) != self.job.size or len(r) != self.job.size - 1:
            raise AssertionError(f"{len(h)} norms and {len(r)} ratios for n={self.job.size}")
        for n, z in enumerate(self.ref.zn_from_norms(h), start=1):
            self._zn(n, z)
        for k in range(1, len(h)):
            self._rel(r[k - 1], h[k] / h[k - 1], f"R_{k}")

    def _check_toda(self, text: str) -> None:
        n = self.job.size
        step = mp.mpf(self.job.argv[self.job.argv.index("--h") + 1])
        want = self._cached("toda", lambda: self.ref.toda_residual(n, step))
        got = mp.mpf(json.loads(text)["residual"])
        self._rel(got, want, f"Toda residual at n={n}")

    def _check_fit(self, text: str) -> None:
        obj = json.loads(text)
        log_z = {
            n: self._cached(("log_zn", n), lambda: mp.log(self.ref.zn(n)))
            for n in range(1, min(self.job.size, TRANSFER_REF_MAX_N) + 1)
        }
        fe = obj["free_energy"]
        per_n = [(int(n), mp.mpf(v)) for n, v in fe["per_n"]]
        if [n for n, _ in per_n] != list(range(2, self.job.size)):
            raise AssertionError("free-energy estimates do not cover n = 2..nmax-1")
        for n, est in per_n:
            if n + 1 in log_z:
                want = (log_z[n + 1] - 2 * log_z[n] + log_z[n - 1]) / 2
                self._rel(est, want, f"F estimate at n={n}", max(1, abs(want)))
        lo, hi = fe["window"]
        tail = [v for n, v in per_n if lo <= n <= hi]
        mean = mp.fsum(tail) / len(tail)
        self._rel(mp.mpf(fe["extrapolated"]), mean, "F extrapolation", max(1, abs(mean)))
        if "kappa" not in obj:
            return
        f, gg, kappa, _ = self.ref.predictor_terms()
        pred = obj["predicted"]
        self._rel(mp.mpf(pred["f"]), f, "predicted F")
        self._rel(mp.mpf(pred["kappa"]), kappa, "predicted kappa")
        want = self.ref.log_prediction(self.job.size)
        self._rel(mp.mpf(pred["log_prediction"]), want, "predicted log Z", abs(want))
        log_g = mp.log(gg) if gg is not None else 0
        if gg is not None:
            self._rel(mp.mpf(pred["g"]), gg, "predicted G")
        resid = {n: lz - n * n * mp.log(f) - mp.sqrt(n) * log_g for n, lz in log_z.items()}
        for n2, est in ((int(n), mp.mpf(v)) for n, v in obj["kappa"]["per_n"]):
            if n2 in resid:
                want = (resid[n2] - resid[n2 - 1]) / (mp.log(n2) - mp.log(n2 - 1))
                self._rel(est, want, f"kappa estimate at n={n2}", 64 * max(1, abs(want)))

    def _check_exact(self, text: str) -> None:
        obj = json.loads(text)
        z = Fraction(obj["zn"])
        n = self.job.size
        a, b, c = (Fraction(x) for x in self.job.weights)
        if a == b == c:
            want = asm_count(n) * a ** (n * n)
        elif a * a + b * b == c * c:
            want = c ** (n * n)
        else:
            want = self._cached(
                "exact", lambda: lattice.transfer_matrix_zn(n, Weights(a, b, c), exact=True)
            )
        if z != want:
            raise AssertionError(f"Z_{n}({a}, {b}, {c}) = {z}, reference {want}")
        if self.job.method == "dfs" and obj.get("count") != asm_count(n):
            raise AssertionError(f"DFS visited {obj.get('count')} configurations, A_{n} = {asm_count(n)}")
