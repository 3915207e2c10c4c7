"""Command-line front end: single evaluations, cross-method comparisons,
sweeps, and fit reports in JSON, or CSV for the compare table.

Commands:
  phase     classify a weight triple (a, b, c)
  exact     Z_n by enumeration or transfer matrix, exact rational output
  compare   exact log Z_n against the phase's asymptotic predictor
  toda      finite-difference residual of the Toda relation
  fit       free-energy and exponent fits from a log Z_n series
  norms     orthogonal-polynomial norms h_k and ratios R_k

compare, fit and norms run on the precision ladder ``hankel.contexts(point,
size, --bits)``: a result claims 2^(-bits/2) relative error, and the first rung
works at bits/2 + predicted loss + 32 bits with its guard run 64 bits above.  A
run that fails its base/guard check is repeated at twice the bits, up to the
first rung at or above max(--bits, 24 size), and exits 3 only when that rung
fails too.  fit and norms report the claim, the bits and guard bits of the rung
that passed and the bits on which its base and guard runs agreed; toda runs at
exactly --bits.

All numeric output is emitted as decimal strings at the run's precision.
Only compare has a table: --format csv on any other command exits 2 before
it computes anything.
Exit codes: 0 success, 2 parameter-domain error, 3 precision failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

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


class _PhaseEntry(NamedTuple):
    """What the CLI does differently per phase; `norms` reads the weight's
    moments from ``specfun._WEIGHT_MOMENTS``.  Each callable goes through the
    module attribute, so a wrapper bound there sees the call."""

    flag: str
    predict: Optional[Callable]  # (params, n, ctx): large-n law, if one is known
    fits_kappa: bool  # the law has an n^kappa factor for fit to regress


_PHASES = {
    Phase.DISORDERED: _PhaseEntry(
        "disordered",
        lambda p, n, ctx: asymptotics.predict_disordered(p.t, p.gamma, n, ctx),
        fits_kappa=True,
    ),
    Phase.FERROELECTRIC: _PhaseEntry(
        "ferro",
        lambda p, n, ctx: asymptotics.predict_ferro(p.t, p.gamma, n, ctx),
        fits_kappa=False,
    ),
    Phase.ANTIFERROELECTRIC: _PhaseEntry(
        "af",
        lambda p, n, ctx: asymptotics.predict_af(p.t, p.gamma, n, ctx),
        fits_kappa=False,
    ),
    Phase.CRITICAL_FD: _PhaseEntry(
        "critical-fd",
        lambda p, n, ctx: asymptotics.predict_crit_fd(p.alpha, n, ctx),
        fits_kappa=True,
    ),
    Phase.CRITICAL_AFD: _PhaseEntry("critical-afd", None, fits_kappa=False),
}

_PHASE_FLAGS = {entry.flag: phase for phase, entry in _PHASES.items()}


def _on_ladder(args, body: Callable):
    """body(args, params, ctx) on the precision ladder of the phase point,
    the command's size (nmax or n) and --bits.  The point is parsed once,
    at 4 max(bits, 24 size) bits, above the guard bits of every rung (each
    below 2 max(bits, 24 size) + 64): it predicts the loss, no rung loses a
    digit of a long literal, and a difference such as t - gamma near a
    domain edge keeps every bit a rung resolves.  A size below 1 is refused
    by the flag that set it."""
    flag = "nmax" if "nmax" in vars(args) else "n"  # each subcommand has one
    size = getattr(args, flag)
    if size < 1:
        raise ParameterDomainError(f"--{flag} >= 1 required, got {size}")
    params = _phase_params(args, 4 * max(64, args.bits, 24 * size))
    return hankel.on_ladder(params, size, args.bits, lambda ctx: body(args, params, ctx))


def _phase_params(args, bits: int) -> PhaseParams:
    """The phase parameters, parsed at bits of working precision."""
    given = {k: getattr(args, k) for k in ("t", "gamma", "alpha")}
    with mp.workprec(bits):
        return PhaseParams(
            _PHASE_FLAGS[args.phase],
            **{k: _parse_real(s, k) for k, s in given.items() if s is not None},
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
        s = _exact_str(digits).rjust(k + 1, "0")
        sign = "-" if fr < 0 else ""
        return sign + (s[:-k] + "." + s[-k:] if k else s)
    with mp.workprec(int(dps * 3.33) + 16):
        return mp.nstr(to_mpf(fr), dps)


def _exact_str(x) -> str:
    """Decimal digits of an exact int or Fraction, which must not exceed the
    interpreter's int -> str digit limit."""
    try:
        return str(x)
    except ValueError as exc:
        raise ParameterDomainError(f"exact value too long to print: {exc}")


def _nstr(x, ctx: PrecisionContext) -> str:
    """x, an mpf at the guard precision of ctx, to ctx.dps digits."""
    return mp.nstr(x, ctx.dps)


def _emit(args, obj=None, rows=None, fieldnames=None) -> None:
    """Write the JSON object or the CSV table (rows of string cells)."""
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(fieldnames)
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        if obj is None:
            obj = [dict(zip(fieldnames, r)) for r in rows]
        text = json.dumps(obj, indent=2) + "\n"
    if args.out and args.out != "-":
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParameterDomainError(f"--out {args.out!r}: {exc.strerror or exc}")
    else:
        sys.stdout.write(text)


# Python's default limit on int <-> str conversion (sys.get_int_max_str_digits)
_MAX_DIGITS = 4300


def _parse_weight(s: str, name: str) -> Fraction:
    """Exact rational of a decimal literal.  An exponent past the digit limit
    is refused before Fraction builds that power of ten."""
    exponent = re.search(r"[eE][-+]?0*(\d+(?:_\d+)*)\s*$", s)
    if exponent and (len(exponent[1]) > 9 or int(exponent[1]) > _MAX_DIGITS):
        raise ParameterDomainError(
            f"--{name} exponent must not exceed {_MAX_DIGITS}, got {s!r}"
        )
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


def cmd_phase(args) -> None:
    w = Weights(*(_parse_weight(getattr(args, k), k) for k in "abc"))
    ctx = PrecisionContext(args.bits)
    res = classify(w, ctx)
    _emit(
        args,
        obj={
            "a": _fraction_str(Fraction(w.a), ctx.dps),
            "b": _fraction_str(Fraction(w.b), ctx.dps),
            "c": _fraction_str(Fraction(w.c), ctx.dps),
            "delta": _fraction_str(res.delta, ctx.dps),
            "phase": res.phase.value,
            "borderline": res.borderline,
        },
    )


def cmd_exact(args) -> None:
    w = Weights(*(_parse_weight(getattr(args, k), k) for k in "abc"))
    if args.method == "transfer":
        z = lattice.transfer_matrix_zn(args.n, w, exact=True)
        count = None
    else:
        z, count = lattice.enumerate_dfs(args.n, w, exact=True)
    obj = {"n": args.n, "method": args.method, "zn": _exact_str(z)}
    if count is not None:
        obj["count"] = count
    _emit(args, obj=obj)


def cmd_compare(args) -> None:
    rows = _on_ladder(args, _compare_rows)
    _emit(args, rows=rows, fieldnames=["n", "zn", "log_zn", "log_prediction", "ratio"])


def _compare_rows(args, params: PhaseParams, ctx: PrecisionContext) -> list:
    entry = _PHASES[params.phase]
    if entry.predict is None:
        raise ParameterDomainError(
            f"no asymptotic predictor for {params.phase.value}; use compare on a bulk phase"
        )
    series = hankel.zn_series(params, args.nmax, ctx)
    rows = []
    with ctx.guardprec():
        for res in series:
            pred = entry.predict(params, res.n, ctx)
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
    return rows


def cmd_toda(args) -> None:
    # exactly --bits: the residual shows a too-small --bits as exit 3
    ctx = PrecisionContext(args.bits)
    params = _phase_params(args, ctx.guard_bits)
    with ctx.guardprec():
        step = _parse_real(args.h, "h")
    residual = hankel.toda_residual(params, args.n, step, ctx)
    _emit(
        args,
        obj={
            "phase": params.phase.value,
            "t": args.t,
            "gamma": args.gamma,
            "n": args.n,
            "h": args.h,
            "bits": args.bits,
            "residual": _nstr(residual, ctx),
        },
    )


def cmd_fit(args) -> None:
    _emit(args, obj=_on_ladder(args, _fit_report))


def _fit_report(args, params: PhaseParams, ctx: PrecisionContext) -> dict:
    entry = _PHASES[params.phase]
    series = hankel.zn_series(params, args.nmax, ctx)
    pts = [(r.n, r.log_zn) for r in series]
    f_fit = asymptotics.fit_free_energy(pts, window=args.window)
    obj = {
        "phase": params.phase.value,
        "nmax": args.nmax,
        "bits": ctx.bits,
        "claim_bits": ctx.claim_bits,
        "guard_bits": ctx.guard_bits,
        "agreement_bits": series[-1].agreement_bits,
        "free_energy": f_fit.to_json(ctx.dps),
    }
    # kappa is regressed where the law has n^kappa, on the law's own log F and G
    if entry.fits_kappa:
        pred = entry.predict(params, args.nmax, ctx)
        law = pred.law
        k_fit = asymptotics.fit_kappa(pts, law.log_f, law.log_g, law.g_mode, args.window)
        obj["kappa"] = k_fit.to_json(ctx.dps)
        obj["predicted"] = pred.to_json(ctx.dps)
    return obj


def cmd_norms(args) -> None:
    _emit(args, obj=_on_ladder(args, _norms_report))


def _norms_report(args, params: PhaseParams, ctx: PrecisionContext) -> dict:
    moments = specfun._WEIGHT_MOMENTS[params.phase](params, 2 * args.n - 2, ctx)
    norms = orthopoly.norms_from_moments(moments, args.n)
    ratios = orthopoly.recurrence_r(norms)
    return {
        "phase": params.phase.value,
        "family": norms.family.value,
        "n": args.n,
        "bits": ctx.bits,
        "claim_bits": ctx.claim_bits,
        "guard_bits": ctx.guard_bits,
        "agreement_bits": norms.agreement_bits,
        "h": [_nstr(v, ctx) for v in norms.h],
        "r": [_nstr(v, ctx) for v in ratios],
    }


def _weight_flags(p) -> None:
    for name in "abc":
        p.add_argument(f"--{name}", required=True)


def _exact_flags(p) -> None:
    p.add_argument("--n", type=int, required=True)
    _weight_flags(p)
    p.add_argument("--method", choices=("dfs", "transfer"), default="dfs")


def _point_flags(p, size: str) -> None:
    """--phase and its parameters, then the command's size flag."""
    p.add_argument("--phase", choices=sorted(_PHASE_FLAGS), required=True)
    for name in ("t", "gamma", "alpha"):
        p.add_argument(f"--{name}", help="decimal literal")
    p.add_argument(f"--{size}", type=int, required=True)


def _toda_flags(p) -> None:
    _point_flags(p, "n")
    p.add_argument("--h", required=True, help="finite-difference step")


def _fit_flags(p) -> None:
    _point_flags(p, "nmax")
    p.add_argument("--window", type=int, default=None, help="trailing points")


class _Command(NamedTuple):
    handler: Callable  # (args): computes and emits
    help: str
    add_flags: Callable  # (subparser): the command's own flags
    tabular: bool  # it has a table for --format csv


_COMMANDS = {
    "phase": _Command(cmd_phase, "classify a weight triple", _weight_flags, False),
    "exact": _Command(cmd_exact, "exact Z_n for rational weights", _exact_flags, False),
    "compare": _Command(cmd_compare, "exact Z_n against the asymptotic predictor",
                        lambda p: _point_flags(p, "nmax"), True),
    "toda": _Command(cmd_toda, "Toda-equation finite-difference residual", _toda_flags, False),
    "fit": _Command(cmd_fit, "fit F, kappa, C from an exact series", _fit_flags, False),
    "norms": _Command(cmd_norms, "orthogonal polynomial norms h_k",
                      lambda p: _point_flags(p, "n"), False),
}


def _build_parser(argv) -> argparse.ArgumentParser:
    """The parser for argv.  Every command gets its subparser and help, so
    the usage lines, --help and a bad command read the same for any argv,
    but only the commands named in argv get their flags.  The command that
    parses is always among them; the other commands' flags would be built
    and never read."""
    parser = argparse.ArgumentParser(
        prog="sixvertex",
        description="Six-vertex model with domain wall boundaries: exact "
        "partition functions, Hankel determinants, and asymptotics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        if name in argv:
            command.add_flags(p)
            p.add_argument("--bits", type=int, default=256, help="working precision")
            p.add_argument("--format", choices=("json", "csv"), default="json")
            p.add_argument("--out", default=None, help="output path (default stdout)")
    return parser


def run(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)  # read twice below
    args = _build_parser(argv).parse_args(argv)
    command = _COMMANDS[args.command]
    try:
        if args.format == "csv" and not command.tabular:
            raise ParameterDomainError(
                f"command {args.command!r} has no tabular form; use --format json"
            )
        command.handler(args)
    except (ParameterDomainError, PrecisionFailureError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2 if isinstance(exc, ParameterDomainError) else 3
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
