"""Command-line front end: single evaluations, cross-method comparisons,
sweeps, and fit reports in JSON or CSV.

Commands:
  phase     classify a weight triple (a, b, c)
  exact     Z_n by enumeration or transfer matrix, exact rational output
  compare   exact log Z_n against the phase's asymptotic predictor
  toda      finite-difference residual of the Toda relation
  fit       free-energy and exponent fits from a log Z_n series
  norms     orthogonal-polynomial norms h_k and ratios R_k

All numeric output is emitted as decimal strings at the requested precision.
Exit codes: 0 success, 2 parameter-domain error, 3 precision failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from mpmath import mp

from . import asymptotics, hankel, lattice, orthopoly, specfun
from .errors import ParameterDomainError, PrecisionFailureError
from .model import (
    Phase,
    PhaseParams,
    PrecisionContext,
    Weights,
    classify,
    to_mpf,
)

_PHASE_FLAGS = {
    "disordered": Phase.DISORDERED,
    "ferro": Phase.FERROELECTRIC,
    "af": Phase.ANTIFERROELECTRIC,
    "critical-fd": Phase.CRITICAL_FD,
    "critical-afd": Phase.CRITICAL_AFD,
}


@dataclass(frozen=True)
class RunConfig:
    """Validated bundle of one CLI invocation."""

    command: str
    phase: Optional[Phase] = None
    t: Optional[str] = None
    gamma: Optional[str] = None
    alpha: Optional[str] = None
    n: Optional[int] = None
    nmax: Optional[int] = None
    bits: int = 256
    h: Optional[str] = None
    window: Optional[int] = None
    fmt: str = "json"
    out: Optional[str] = None

    def __post_init__(self) -> None:
        if self.phase is None:
            return
        has_tg = self.t is not None and self.gamma is not None
        has_alpha = self.alpha is not None
        if self.phase.is_critical:
            if not has_alpha or self.t is not None or self.gamma is not None:
                raise ParameterDomainError(
                    f"--phase {self.phase.value} takes --alpha only"
                )
        elif not has_tg or has_alpha:
            raise ParameterDomainError(
                f"--phase {self.phase.value} takes --t and --gamma (not --alpha)"
            )

    def context(self) -> PrecisionContext:
        return PrecisionContext(self.bits)

    def phase_params(self) -> PhaseParams:
        with self.context().guardprec():
            if self.phase.is_critical:
                return PhaseParams(self.phase, alpha=_parse_real(self.alpha, "alpha"))
            return PhaseParams(
                self.phase, t=_parse_real(self.t, "t"), gamma=_parse_real(self.gamma, "gamma")
            )


def _fraction_str(fr: Fraction, dps: int) -> str:
    """Decimal string of a rational: exact when the expansion terminates,
    rounded to dps significant digits otherwise."""
    den = fr.denominator
    d = den
    twos = fives = 0
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d == 1:
        k = max(twos, fives)
        digits = abs(fr.numerator) * 10**k // den
        s = str(digits).rjust(k + 1, "0")
        sign = "-" if fr < 0 else ""
        return sign + (s[:-k] + "." + s[-k:] if k else s)
    with mp.workprec(int(dps * 3.33) + 16):
        return mp.nstr(to_mpf(fr), dps)


def _nstr(x, ctx: PrecisionContext) -> str:
    with ctx.guardprec():
        return mp.nstr(mp.mpf(x), ctx.dps)


def _emit(cfg: RunConfig, obj=None, rows=None, fieldnames=None) -> None:
    """Write the JSON object or the CSV table (rows of string cells)."""
    if cfg.fmt == "csv":
        if rows is None:
            raise ParameterDomainError(
                f"command {cfg.command!r} has no tabular form; use --format json"
            )
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(fieldnames)
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        if obj is None:
            obj = [dict(zip(fieldnames, r)) for r in rows]
        text = json.dumps(obj, indent=2) + "\n"
    if cfg.out and cfg.out != "-":
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_weight(s: str, name: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterDomainError(f"--{name} must be a decimal literal: {exc}")


def _parse_real(s: str, name: str):
    """Finite mpf of a decimal literal, at ambient precision."""
    try:
        x = mp.mpf(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterDomainError(f"--{name} must be a decimal literal: {exc}")
    if not mp.isfinite(x):
        raise ParameterDomainError(f"--{name} must be finite, got {s!r}")
    return x


def cmd_phase(cfg: RunConfig, args) -> None:
    w = Weights(
        _parse_weight(args.a, "a"), _parse_weight(args.b, "b"), _parse_weight(args.c, "c")
    )
    ctx = cfg.context()
    res = classify(w, ctx)
    _emit(
        cfg,
        obj={
            "a": _fraction_str(Fraction(w.a), ctx.dps),
            "b": _fraction_str(Fraction(w.b), ctx.dps),
            "c": _fraction_str(Fraction(w.c), ctx.dps),
            "delta": _fraction_str(res.delta, ctx.dps),
            "phase": res.phase.value,
            "borderline": res.borderline,
        },
    )


def cmd_exact(cfg: RunConfig, args) -> None:
    w = Weights(
        _parse_weight(args.a, "a"), _parse_weight(args.b, "b"), _parse_weight(args.c, "c")
    )
    if args.method == "transfer":
        z = lattice.transfer_matrix_zn(cfg.n, w, exact=True)
        count = None
    else:
        z, count = lattice.enumerate_dfs(cfg.n, w, exact=True)
    obj = {"n": cfg.n, "method": args.method, "zn": str(z)}
    if count is not None:
        obj["count"] = count
    _emit(cfg, obj=obj)


def _zn_log_series(cfg: RunConfig, params: PhaseParams, nmax: int):
    ctx = PrecisionContext(max(cfg.bits, 24 * nmax))
    if params.phase.is_critical:
        return orthopoly.zn_crit_series(params.phase, nmax, params.alpha, ctx), ctx
    return hankel.zn_series(params, nmax, ctx), ctx


def _predictor(params: PhaseParams, n: int, ctx: PrecisionContext):
    if params.phase is Phase.DISORDERED:
        return asymptotics.predict_disordered(params.t, params.gamma, n, ctx)
    if params.phase is Phase.FERROELECTRIC:
        return asymptotics.predict_ferro(params.t, params.gamma, n, ctx)
    if params.phase is Phase.ANTIFERROELECTRIC:
        return asymptotics.predict_af(params.t, params.gamma, n, ctx)
    if params.phase is Phase.CRITICAL_FD:
        return asymptotics.predict_crit_fd(params.alpha, n, ctx)
    raise ParameterDomainError(
        "no asymptotic predictor for critical-afd; use compare on a bulk phase"
    )


def cmd_compare(cfg: RunConfig, args) -> None:
    params = cfg.phase_params()
    series, ctx = _zn_log_series(cfg, params, cfg.nmax)
    rows = []
    with ctx.guardprec():
        for res in series:
            pred = _predictor(params, res.n, ctx)
            ratio = mp.exp(res.log_zn - pred.log_prediction)
            rows.append(
                [
                    str(res.n),
                    _nstr(res.zn, ctx),
                    _nstr(res.log_zn, ctx),
                    _nstr(pred.log_prediction, ctx),
                    _nstr(ratio, ctx),
                ]
            )
    _emit(cfg, rows=rows, fieldnames=["n", "zn", "log_zn", "log_prediction", "ratio"])


def cmd_toda(cfg: RunConfig, args) -> None:
    params = cfg.phase_params()
    if params.phase.is_critical:
        raise ParameterDomainError("toda needs a bulk phase (t, gamma)")
    ctx = cfg.context()
    with ctx.guardprec():
        step = _parse_real(cfg.h, "h")
    residual = hankel.toda_residual(params, cfg.n, step, ctx)
    _emit(
        cfg,
        obj={
            "phase": params.phase.value,
            "t": cfg.t,
            "gamma": cfg.gamma,
            "n": cfg.n,
            "h": cfg.h,
            "bits": cfg.bits,
            "residual": _nstr(residual, ctx),
        },
    )


def cmd_fit(cfg: RunConfig, args) -> None:
    params = cfg.phase_params()
    series, ctx = _zn_log_series(cfg, params, cfg.nmax)
    pts = [(r.n, r.log_zn) for r in series]
    f_fit = asymptotics.fit_free_energy(pts, window=cfg.window)
    obj = {
        "phase": params.phase.value,
        "nmax": cfg.nmax,
        "bits": ctx.bits,
        "free_energy": f_fit.to_json(ctx.dps),
    }
    # kappa regression against log n applies where the predictor has n^kappa;
    # the theorem value of log F is used so the n^2 term cancels cleanly.
    if params.phase in (Phase.DISORDERED, Phase.CRITICAL_FD):
        pred = _predictor(params, cfg.nmax, ctx)
        with ctx.guardprec():
            log_f = mp.log(pred.f)
            log_g = mp.log(pred.g) if pred.g is not None else None
        k_fit = asymptotics.fit_kappa(
            pts,
            log_f,
            log_g=log_g,
            g_mode=pred.g_mode or "n",
            window=cfg.window,
        )
        obj["kappa"] = k_fit.to_json(ctx.dps)
        obj["predicted"] = pred.to_json(ctx.dps)
    _emit(cfg, obj=obj)


def cmd_norms(cfg: RunConfig, args) -> None:
    params = cfg.phase_params()
    ctx = PrecisionContext(max(cfg.bits, 24 * cfg.n))
    kmax = 2 * cfg.n - 2
    if params.phase is Phase.DISORDERED:
        moments = specfun.phi_derivatives(params, kmax, ctx)
    elif params.phase is Phase.FERROELECTRIC:
        moments = specfun.ferro_moments(kmax, params.t, params.gamma, ctx)
    elif params.phase is Phase.ANTIFERROELECTRIC:
        moments = specfun.af_moments(kmax, params.t, params.gamma, ctx)
    elif params.phase is Phase.CRITICAL_FD:
        moments = specfun.crit_fd_moments(kmax, params.alpha, ctx)
    else:
        moments = specfun.crit_afd_moments(kmax, params.alpha, ctx)
    norms = orthopoly.norms_from_moments(moments, cfg.n, ctx)
    ratios = orthopoly.recurrence_r(norms)
    _emit(
        cfg,
        obj={
            "phase": params.phase.value,
            "family": norms.family.value,
            "n": cfg.n,
            "bits": ctx.bits,
            "h": [_nstr(v, ctx) for v in norms.h],
            "r": [_nstr(v, ctx) for v in ratios],
        },
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sixvertex",
        description="Six-vertex model with domain wall boundaries: exact "
        "partition functions, Hankel determinants, and asymptotics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--bits", type=int, default=256, help="working precision")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    def add_phase_params(p):
        p.add_argument("--phase", choices=sorted(_PHASE_FLAGS), required=True)
        p.add_argument("--t", default=None, help="decimal literal")
        p.add_argument("--gamma", default=None, help="decimal literal")
        p.add_argument("--alpha", default=None, help="decimal literal")

    p = sub.add_parser("phase", help="classify a weight triple")
    for name in "abc":
        p.add_argument(f"--{name}", required=True)
    add_common(p)

    p = sub.add_parser("exact", help="exact Z_n for rational weights")
    p.add_argument("--n", type=int, required=True)
    for name in "abc":
        p.add_argument(f"--{name}", required=True)
    p.add_argument("--method", choices=("dfs", "transfer"), default="dfs")
    add_common(p)

    p = sub.add_parser("compare", help="exact Z_n against the asymptotic predictor")
    add_phase_params(p)
    p.add_argument("--nmax", type=int, required=True)
    add_common(p)

    p = sub.add_parser("toda", help="Toda-equation finite-difference residual")
    add_phase_params(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--h", required=True, help="finite-difference step")
    add_common(p)

    p = sub.add_parser("fit", help="fit F, kappa, C from an exact series")
    add_phase_params(p)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--window", type=int, default=None, help="trailing points")
    add_common(p)

    p = sub.add_parser("norms", help="orthogonal polynomial norms h_k")
    add_phase_params(p)
    p.add_argument("--n", type=int, required=True)
    add_common(p)

    return parser


_HANDLERS = {
    "phase": cmd_phase,
    "exact": cmd_exact,
    "compare": cmd_compare,
    "toda": cmd_toda,
    "fit": cmd_fit,
    "norms": cmd_norms,
}


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = RunConfig(
            command=args.command,
            phase=_PHASE_FLAGS.get(getattr(args, "phase", None)),
            t=getattr(args, "t", None),
            gamma=getattr(args, "gamma", None),
            alpha=getattr(args, "alpha", None),
            n=getattr(args, "n", None),
            nmax=getattr(args, "nmax", None),
            bits=args.bits,
            h=getattr(args, "h", None),
            window=getattr(args, "window", None),
            fmt=args.format,
            out=args.out,
        )
        _HANDLERS[args.command](cfg, args)
    except ParameterDomainError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    except PrecisionFailureError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 3
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
