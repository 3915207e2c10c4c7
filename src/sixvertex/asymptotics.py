"""Large-n predictors for the partition function in each phase, and fitting
of the free energy F, the power-law exponent kappa, and prefactors from exact
log Z_n series.

Predictor shapes (log_prediction sums only the factors a phase provides):

    disordered          Z_n ~ C n^kappa F^(n^2)
    ferroelectric       Z_n ~ C G^n F^(n^2)
    critical FE-D       Z_n ~ C n^(1/4) G^(sqrt n) F^(n^2)
    antiferroelectric   Z_n ~ C theta4(n omega) F^(n^2)

``_law`` caches one record of a phase's n-independent factors per (phase, point,
precision), built by the phase's builder in ``_LAWS`` once ``PhaseParams`` has
checked the point: once a series, not once per n.  ``_predict`` adds n^2 log F,
n^p log G, kappa log n, log C and log theta4(n omega) in order.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, NamedTuple, Optional, Sequence, Tuple

from mpmath import mp

from .errors import ParameterDomainError
from .model import _PHASE_RULES, DEFAULT_CONTEXT, Phase, PhaseParams, PrecisionContext, to_mpf
from .specfun import theta1, theta1_prime0, theta4, zeta_three_halves

# n^p for the power p of n on log G, by its name in g_mode
_N_POWERS = {"n": mp.mpf, "sqrt_n": mp.sqrt}


class _Law(NamedTuple):
    """The n-independent factors of a phase's law; an absent term is None."""

    f: object
    log_f: object
    kappa: Optional[object] = None
    g: Optional[object] = None
    log_g: Optional[object] = None
    g_mode: Optional[str] = None  # n^p on log G: p = 1 ("n") or 1/2 ("sqrt_n")
    c: Optional[object] = None
    log_c: Optional[object] = None
    q: Optional[object] = None  # the AF nome and the theta4 argument step
    omega: Optional[object] = None


class AsymptoticPrediction(NamedTuple):
    phase: Phase
    n: int
    f: object
    log_prediction: object
    kappa: Optional[object] = None
    g: Optional[object] = None
    g_mode: Optional[str] = None  # "n" or "sqrt_n"
    c: Optional[object] = None
    theta_factor: Optional[object] = None
    law: Optional[_Law] = None

    def to_json(self, dps: int = 30) -> dict:
        out = {
            "phase": self.phase.value,
            "n": self.n,
            "f": mp.nstr(self.f, dps),
            "log_prediction": mp.nstr(self.log_prediction, dps),
        }
        for name in ("kappa", "g", "c", "theta_factor"):
            v = getattr(self, name)
            if v is not None:
                out[name] = mp.nstr(v, dps)
        if self.g_mode:
            out["g_mode"] = self.g_mode
        return out


class FitResult(NamedTuple):
    """Per-n estimates plus a window extrapolation for one fitted target."""

    target: str
    per_n_estimates: Tuple
    extrapolated: object
    window: Tuple[int, int]
    residual_norm: object
    log_c: Optional[object] = None

    def to_json(self, dps: int = 30) -> dict:
        out = {
            "target": self.target,
            "per_n": [[n, mp.nstr(v, dps)] for n, v in self.per_n_estimates],
            "extrapolated": mp.nstr(self.extrapolated, dps),
            "window": list(self.window),
            "residual_norm": mp.nstr(self.residual_norm, dps),
        }
        if self.log_c is not None:
            out["log_c"] = mp.nstr(self.log_c, dps)
        return out


def predict_disordered(
    t, gamma, n: int, ctx: Optional[PrecisionContext] = None
) -> AsymptoticPrediction:
    """F = pi a b / (2 gamma cos(pi t / (2 gamma))),
    kappa = 1/12 - 2 gamma^2 / (3 pi (pi - 2 gamma))."""
    return _predict(Phase.DISORDERED, (t, gamma), n, ctx)


def predict_ferro(
    t, gamma, n: int, ctx: Optional[PrecisionContext] = None
) -> AsymptoticPrediction:
    """C = prod_{k>=1} (1 - e^(-4 gamma k)), taken from theta1'(0), G = e^(gamma - t),
    F = b = sinh(t + gamma)."""
    return _predict(Phase.FERROELECTRIC, (t, gamma), n, ctx)


def predict_crit_fd(
    alpha, n: int, ctx: Optional[PrecisionContext] = None
) -> AsymptoticPrediction:
    """kappa = 1/4, G = exp(-zeta(3/2) sqrt(a/pi)), F = b, with the critical
    point a = (alpha-1)/2, b = (alpha+1)/2."""
    return _predict(Phase.CRITICAL_FD, (alpha,), n, ctx)


def predict_af(
    t, gamma, n: int, ctx: Optional[PrecisionContext] = None
) -> AsymptoticPrediction:
    """F = pi a b theta1'(0) / (2 gamma theta1(omega)) with nome
    q = e^(-pi^2 / (2 gamma)) and omega = (pi/2)(1 + t/gamma); the oscillating
    factor is theta4(n omega)."""
    return _predict(Phase.ANTIFERROELECTRIC, (t, gamma), n, ctx)


def _predict(phase: Phase, point: tuple, n: int, ctx) -> AsymptoticPrediction:
    """log Z_n: the terms of phase's law at point, in the module's order."""
    if n < 1:
        raise ParameterDomainError(f"n >= 1 required, got {n}")
    ctx = ctx or DEFAULT_CONTEXT
    law = _law(phase, point, ctx)
    with ctx.guardprec():
        log_pred = n * n * law.log_f
        if law.log_g is not None:
            log_pred += _N_POWERS[law.g_mode](n) * law.log_g
        if law.kappa is not None:
            log_pred += law.kappa * mp.log(n)
        if law.log_c is not None:
            log_pred += law.log_c
        tf = None
        if law.q is not None:
            tf = theta4(n * law.omega, law.q, ctx)
            log_pred += mp.log(tf)
    return AsymptoticPrediction(phase, n, law.f, log_pred, law.kappa, law.g,
                                law.g_mode, law.c, tf, law)


@lru_cache(maxsize=None)
def _law(phase: Phase, point: tuple, ctx: PrecisionContext) -> _Law:
    """The law of phase at point, (t, gamma) or (alpha,), once its domain is
    checked: the check, zeta(3/2), theta1 and theta1'(0) run once a series."""
    PhaseParams(phase, **dict(zip(_PHASE_RULES[phase].params, point)))
    with ctx.guardprec():
        return _LAWS[phase](*map(to_mpf, point), ctx)


def _disordered_law(tt, g, ctx) -> _Law:
    a, b = mp.sin(g - tt), mp.sin(g + tt)
    f = mp.pi * a * b / (2 * g * mp.cos(mp.pi * tt / (2 * g)))
    kappa = mp.mpf(1) / 12 - 2 * g * g / (3 * mp.pi * (mp.pi - 2 * g))
    return _Law(f, mp.log(f), kappa=kappa)


def _ferro_law(tt, g, ctx) -> _Law:
    # C = prod_{k>=1} (1 - e^(-4 gamma k)).  By Jacobi's triple product
    # log C = gamma/6 + log(theta1'(0, q) / 2) / 3 at q = e^(-2 gamma); by
    # Dedekind's eta transformation it is that plus log(pi / (2 gamma)) / 2 at
    # q = e^(-pi^2 / (2 gamma)).  Switching at gamma = pi/2 keeps q <= e^(-pi),
    # so every gamma takes a few terms.
    f = mp.sinh(tt + g)
    if g >= mp.pi / 2:
        q, log_c = mp.exp(-2 * g), g / 6
    else:
        q, log_c = mp.exp(-mp.pi**2 / (2 * g)), g / 6 + mp.log(mp.pi / (2 * g)) / 2
    log_c += mp.log(theta1_prime0(q, ctx) / 2) / 3
    return _Law(f, mp.log(f), g=mp.exp(g - tt), log_g=g - tt, g_mode="n",
                c=mp.exp(log_c), log_c=log_c)


def _crit_fd_law(aa, ctx) -> _Law:
    a, f = (aa - 1) / 2, (aa + 1) / 2
    log_g = -zeta_three_halves(ctx) * mp.sqrt(a / mp.pi)
    return _Law(f, mp.log(f), kappa=mp.mpf(1) / 4, g=mp.exp(log_g), log_g=log_g,
                g_mode="sqrt_n")


def _af_law(tt, g, ctx) -> _Law:
    q = mp.exp(-mp.pi**2 / (2 * g))
    omega = mp.pi / 2 * (1 + tt / g)
    a, b = mp.sinh(g - tt), mp.sinh(g + tt)
    f = mp.pi * a * b * theta1_prime0(q, ctx) / (2 * g * theta1(omega, q, ctx))
    return _Law(f, mp.log(f), q=q, omega=omega)


# the law builder of each phase that has one; critical-afd has none yet
_LAWS = {Phase.DISORDERED: _disordered_law, Phase.FERROELECTRIC: _ferro_law,
         Phase.ANTIFERROELECTRIC: _af_law, Phase.CRITICAL_FD: _crit_fd_law}


# ---------------------------------------------------------------------------
# Fitting.  The regressions are tiny, so they run 64 bits above the widest
# mantissa among their mpf inputs (any other input counts as 53 bits, like a
# float): exact relative to the inputs, at no more cost than they need.


def _fit_prec(values) -> int:
    return 64 + max(v._mpf_[3] if isinstance(v, mp.mpf) else 53 for v in values)


def _check_series(series) -> List[Tuple[int, object]]:
    pts = [(int(n), v) for n, v in series]
    if len(pts) < 4:
        raise ParameterDomainError(f"need >= 4 points, got {len(pts)}")
    ns = [n for n, _ in pts]
    if ns != list(range(ns[0], ns[0] + len(ns))):
        raise ParameterDomainError("series must cover consecutive n values")
    return pts


def _trailing_window(count: int, window: Optional[int]) -> int:
    if window is None:
        window = max(2, count // 3)
    if not 2 <= window <= count:
        raise ParameterDomainError(
            f"window must have between 2 and {count} points, got {window}"
        )
    return window


def fit_free_energy(
    series: Sequence, window: Optional[int] = None
) -> FitResult:
    """Estimate log F from a log Z_n series by the centered second difference
    (log Z_{n+1} - 2 log Z_n + log Z_{n-1}) / 2, which annihilates G^n-type
    and constant factors and leaves an O(n^-2) bias from n^kappa.

    ``window`` is a trailing point count; the extrapolation is that window's
    mean.  Returned per-n estimates pair each interior n with its estimate.
    """
    pts = _check_series(series)
    with mp.workprec(_fit_prec(v for _, v in pts)):
        pts = [(n, to_mpf(v)) for n, v in pts]
        ests = []
        for i in range(1, len(pts) - 1):
            n = pts[i][0]
            est = (pts[i + 1][1] - 2 * pts[i][1] + pts[i - 1][1]) / 2
            ests.append((n, est))
        w = _trailing_window(len(ests), window)
        tail = ests[-w:]
        mean = mp.fsum(v for _, v in tail) / w
        rms = mp.sqrt(mp.fsum((v - mean) ** 2 for _, v in tail) / w)
    return FitResult("F", tuple(ests), mean, (tail[0][0], tail[-1][0]), rms)


def fit_kappa(
    series: Sequence,
    log_f,
    log_g=None,
    g_mode: Optional[str] = "n",
    window: Optional[int] = None,
) -> FitResult:
    """Least-squares slope of r_n = log Z_n - n^2 log F - (n or sqrt n) log G
    against log n over a trailing window; the intercept estimates log C.
    ``g_mode`` ("n" or "sqrt_n") is the power of n on log G; None without G.

    Per-n estimates are the pairwise difference quotients of r against log n;
    every n must be >= 1.
    """
    if g_mode not in _N_POWERS and (g_mode is not None or log_g is not None):
        raise ParameterDomainError(f"g_mode must be 'n' or 'sqrt_n', got {g_mode}")
    pts = _check_series(series)
    if pts[0][0] < 1:
        raise ParameterDomainError(f"n >= 1 required, got {pts[0][0]}")
    inputs = [v for _, v in pts] + [x for x in (log_f, log_g) if x is not None]
    with mp.workprec(_fit_prec(inputs)):
        lf = to_mpf(log_f)
        lg = to_mpf(log_g) if log_g is not None else None
        resid = []
        for n, lz in pts:
            r = to_mpf(lz) - n * n * lf
            if lg is not None:
                r -= _N_POWERS[g_mode](n) * lg
            resid.append((n, mp.log(n), r))
        ests = []
        for (_, x1, r1), (n2, x2, r2) in zip(resid, resid[1:]):
            if x1 == x2:  # n near 2^precision: consecutive logs round together
                raise ParameterDomainError("log n values coincide at the fit's precision")
            ests.append((n2, (r2 - r1) / (x2 - x1)))
        w = _trailing_window(len(resid), window)
        tail = resid[-w:]
        xs = [x for _, x, _ in tail]
        ys = [r for _, _, r in tail]
        xbar = mp.fsum(xs) / w
        ybar = mp.fsum(ys) / w
        sxx = mp.fsum((x - xbar) ** 2 for x in xs)
        slope = mp.fsum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sxx
        intercept = ybar - slope * xbar
        rms = mp.sqrt(
            mp.fsum((y - slope * x - intercept) ** 2 for x, y in zip(xs, ys)) / w
        )
    return FitResult(
        "kappa",
        tuple(ests),
        slope,
        (tail[0][0], tail[-1][0]),
        rms,
        log_c=intercept,
    )
