"""Command-line front end: single evaluations, cross-method comparisons and
fit reports in JSON, or CSV for the compare table.

Commands:
  phase     classify a weight triple (a, b, c)
  exact     Z_n by enumeration or transfer matrix, exact rational output
  compare   exact log Z_n against the phase's asymptotic predictor
  toda      finite-difference residual of the Toda relation
  fit       free-energy and exponent fits from a log Z_n series
  norms     orthogonal-polynomial norms h_k and ratios R_k

compare, fit and norms run on the precision ladder ``hankel.contexts(point,
size, --bits)``: a result claims the claim of ``PrecisionContext(--bits)``,
2^(-bits/2) relative error, and a run that fails its base/guard check moves to
the next rung; it exits 3 only when the last rung fails too.  fit and norms
report the claim, the bits and guard bits of the rung that passed and the bits
on which its base and guard runs agreed; toda runs at exactly --bits.  Every
command parses its point once, at ``hankel.point_bits(size, --bits)``: hankel
owns every bit count, and the CLI works out none of its own.

Every command returns its result and ``run`` writes it, as JSON or, for
compare, as a CSV table.  Numbers are printed as decimal strings, each
inexact one by ``_nstr``.
compare, fit and norms compute every row past the Hankel runs (log Z_n, the
law, the ratio, the fits) at ``hankel.report_context`` of the rung that
passed, claim + 32 bits, which ``_on_ladder`` hands to each, and print its
dps digits; toda prints the digits of --bits.  log Z_n is the log of a Z_n
verified to a relative error, so its own error is absolute: compare prints
it, and fit every cell derived from it, to the digit of 10^-dps, which
below 0.1 takes fewer than dps digits.  So does log_prediction, a sum of
logs, in compare's rows and fit's predicted block; the other law terms keep
dps digits.
Only compare has a table: --format csv on any other command exits 2 before
it computes anything.
Exit codes: 0 success, 2 parameter-domain error (a request too large to
allocate among them: more bits cannot serve it), 3 precision failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

from mpmath import mp
from mpmath.libmp import to_digits_exp

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


# --phase flag -> Phase: the CLI's one per-phase fact; the laws, moments and
# charts are read from the tables of asymptotics, specfun and model
_PHASE_FLAGS = {"disordered": Phase.DISORDERED, "ferro": Phase.FERROELECTRIC,
                "af": Phase.ANTIFERROELECTRIC, "critical-fd": Phase.CRITICAL_FD,
                "critical-afd": Phase.CRITICAL_AFD}


def _on_ladder(args, body: Callable):
    """body(args, params, ctx, report) on the precision ladder of the phase
    point, the command's size (nmax or n) and --bits, with report the
    ``hankel.report_context`` of the rung ctx.  A size below 1 is refused by
    the flag that set it."""
    flag = "nmax" if "nmax" in vars(args) else "n"  # each subcommand has one
    size = getattr(args, flag)
    if size < 1:
        raise ParameterDomainError(f"--{flag} >= 1 required, got {size}")
    params = _phase_params(args, size)
    return hankel.on_ladder(params, size, args.bits,
                            lambda ctx: body(args, params, ctx, hankel.report_context(ctx)))


def _phase_params(args, size: int) -> PhaseParams:
    """The phase parameters, parsed once at ``hankel.point_bits(size, --bits)``."""
    given = {k: getattr(args, k) for k in ("t", "gamma", "alpha")}
    with mp.workprec(hankel.point_bits(size, args.bits)):
        return PhaseParams(
            _PHASE_FLAGS[args.phase],
            **{k: _parse_real(s, k) for k, s in given.items() if s is not None},
        )


def _fraction_str(fr: Fraction, ctx: PrecisionContext) -> str:
    """Decimal string of a rational: exact when the expansion terminates,
    rounded to ctx.dps significant digits otherwise."""
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
    with ctx.guardprec():
        return _nstr(to_mpf(fr), ctx)


def _exact_str(x) -> str:
    """Decimal digits of an exact int or Fraction, which must not exceed the
    interpreter's int -> str digit limit."""
    try:
        return str(x)
    except ValueError as exc:
        raise ParameterDomainError(f"exact value too long to print: {exc}")


def _nstr(x, ctx: PrecisionContext, absolute: bool = False) -> str:
    """x, an mpf held at the guard precision of ctx, to ctx.dps digits: a
    compare, fit or norms value at its ``hankel.report_context``, a toda
    residual at exactly --bits.  An absolute x, whose error scales with
    max(1, |x|), is printed below 1 to the digit of 10^-dps: ctx.dps digits
    plus its decimal exponent E, with |x| = 0.d... 10^E, and at least one."""
    digits = ctx.dps
    if absolute and x and abs(x) < 1:
        digits += min(to_digits_exp(x._mpf_, ctx.dps)[2] + 1, 0)  # x = d.d... 10^(E - 1)
    return mp.nstr(x, max(digits, 1))


def _emit(args, obj) -> None:
    """Write obj as JSON, or for --format csv as the table of obj, a list of
    row dicts of string cells headed by the first row's keys."""
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(obj[0]))
        writer.writeheader()
        writer.writerows(obj)
        text = buf.getvalue()
    else:
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


def cmd_phase(args) -> dict:
    w = Weights(*(_parse_weight(getattr(args, k), k) for k in "abc"))
    ctx = PrecisionContext(args.bits)
    res = classify(w, ctx)
    return {
        "a": _fraction_str(Fraction(w.a), ctx),
        "b": _fraction_str(Fraction(w.b), ctx),
        "c": _fraction_str(Fraction(w.c), ctx),
        "delta": _fraction_str(res.delta, ctx),
        "phase": res.phase.value,
        "borderline": res.borderline,
    }


def cmd_exact(args) -> dict:
    w = Weights(*(_parse_weight(getattr(args, k), k) for k in "abc"))
    if args.method == "transfer":
        z = lattice.transfer_matrix_zn(args.n, w, exact=True)
        count = None
    else:
        z, count = lattice.enumerate_dfs(args.n, w, exact=True)
    obj = {"n": args.n, "method": args.method, "zn": _exact_str(z)}
    if count is not None:
        obj["count"] = count
    return obj


def _compare_rows(args, params: PhaseParams, ctx: PrecisionContext,
                  report: PrecisionContext) -> list:
    predict = asymptotics._predictor(params)  # refuses a phase without a law, before any run
    series = hankel.zn_series(params, args.nmax, ctx)
    rows = []
    with report.guardprec():
        for res in series:
            zn = +res.zn  # rounded once, to the report's guard bits
            log_zn = mp.log(zn)
            pred = predict(res.n, report)
            ratio = mp.exp(log_zn - pred.log_prediction)
            rows.append({
                "n": str(res.n),
                "zn": _nstr(zn, report),
                "log_zn": _nstr(log_zn, report, absolute=True),
                "log_prediction": _nstr(pred.log_prediction, report, absolute=True),
                "ratio": _nstr(ratio, report),
            })
    return rows


def cmd_toda(args) -> dict:
    # exactly --bits: the residual shows a too-small --bits as exit 3
    ctx = PrecisionContext(args.bits)
    params = _phase_params(args, args.n)
    with ctx.guardprec():
        step = _parse_real(args.h, "h")
    residual = hankel.toda_residual(params, args.n, step, ctx)
    return {
        "phase": params.phase.value,
        "t": args.t,
        "gamma": args.gamma,
        "n": args.n,
        "h": args.h,
        "bits": args.bits,
        "residual": _nstr(residual, ctx),
    }


def _fit_report(args, params: PhaseParams, ctx: PrecisionContext,
                report: PrecisionContext) -> dict:
    series = hankel.zn_series(params, args.nmax, ctx)
    with report.guardprec():  # the fits run 64 bits past their inputs' bits
        pts = [(r.n, mp.log(+r.zn)) for r in series]  # as compare: Z_n rounded once
    f_fit = asymptotics.fit_free_energy(pts, window=args.window)
    obj = {
        "phase": params.phase.value,
        "nmax": args.nmax,
        "bits": ctx.bits,
        "claim_bits": ctx.claim_bits,
        "guard_bits": ctx.guard_bits,
        "agreement_bits": series[-1].agreement_bits,
        "free_energy": _fit_cells(f_fit, report),
    }
    # kappa is regressed where the law has n^kappa, on the law's own log F and G
    if params.phase in asymptotics._KAPPA_LAWS:
        pred = asymptotics._predictor(params)(args.nmax, report)
        law = pred.law
        k_fit = asymptotics.fit_kappa(pts, law.log_f, law.log_g, law.g_mode, args.window)
        obj["kappa"] = _fit_cells(k_fit, report)
        obj["predicted"] = _prediction_cells(pred, report)
    return obj


def _fit_cells(fit: asymptotics.FitResult, report: PrecisionContext) -> dict:
    """The block of a fit, each value rounded once to the report's guard bits
    and, derived from log Z_n, printed to the digit of 10^-dps."""
    with report.guardprec():
        cell = lambda v: _nstr(+v, report, absolute=True)
        obj = {"target": fit.target, "per_n": [[n, cell(v)] for n, v in fit.per_n_estimates],
               "extrapolated": cell(fit.extrapolated), "window": list(fit.window),
               "residual_norm": cell(fit.residual_norm)}
        if fit.log_c is not None:
            obj["log_c"] = cell(fit.log_c)
    return obj


def _prediction_cells(pred: asymptotics.AsymptoticPrediction, report: PrecisionContext) -> dict:
    """The terms of a prediction's law, each value rounded once to the report's
    guard bits; log_prediction, a sum of logs, to the digit of 10^-dps."""
    obj = {"phase": pred.phase.value, "n": pred.n}
    with report.guardprec():
        for name in ("f", "log_prediction", "kappa", "g", "c", "theta_factor"):
            if getattr(pred, name) is not None:
                obj[name] = _nstr(+getattr(pred, name), report, absolute=name == "log_prediction")
    return {**obj, "g_mode": pred.g_mode} if pred.g_mode else obj


def _norms_report(args, params: PhaseParams, ctx: PrecisionContext,
                  report: PrecisionContext) -> dict:
    moments = specfun._WEIGHT_MOMENTS[params.phase](params, 2 * args.n - 2, ctx)
    norms = orthopoly.norms_from_moments(moments, args.n)
    ratios = orthopoly.recurrence_r(norms)
    with report.guardprec():  # each value rounded once, to the report's guard bits
        return {
            "phase": params.phase.value,
            "family": norms.family.value,
            "n": args.n,
            "bits": ctx.bits,
            "claim_bits": ctx.claim_bits,
            "guard_bits": ctx.guard_bits,
            "agreement_bits": norms.agreement_bits,
            "h": [_nstr(+v, report) for v in norms.h],
            "r": [_nstr(+v, report) for v in ratios],
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
    handler: Callable  # (args): the value that run emits
    help: str
    add_flags: Callable  # (subparser): the command's own flags
    tabular: bool  # it has a table for --format csv


_COMMANDS = {
    "phase": _Command(cmd_phase, "classify a weight triple", _weight_flags, False),
    "exact": _Command(cmd_exact, "exact Z_n for rational weights", _exact_flags, False),
    "compare": _Command(lambda args: _on_ladder(args, _compare_rows),
                        "exact Z_n against the asymptotic predictor",
                        lambda p: _point_flags(p, "nmax"), True),
    "toda": _Command(cmd_toda, "Toda-equation finite-difference residual", _toda_flags, False),
    "fit": _Command(lambda args: _on_ladder(args, _fit_report),
                    "fit F, kappa, C from an exact series", _fit_flags, False),
    "norms": _Command(lambda args: _on_ladder(args, _norms_report),
                      "orthogonal polynomial norms h_k",
                      lambda p: _point_flags(p, "n"), False),
}


def _build_parser(argv) -> argparse.ArgumentParser:
    """The parser for argv.  When argv's first token names a command, that
    command parses all the rest, so only its subparser is built.  Otherwise
    (no arguments, --help, a bad or misplaced command) every command gets its
    subparser and help, so the top-level help and argparse's errors read as
    they always have.  Only the commands named in argv get their flags: the
    command that parses is always among them."""
    parser = argparse.ArgumentParser(
        prog="sixvertex",
        description="Six-vertex model with domain wall boundaries: exact "
        "partition functions, Hankel determinants, and asymptotics.",
    )
    named = bool(argv) and argv[0] in _COMMANDS
    # the metavar keeps every command in the usage line of a lone subparser;
    # a full parser goes without, as the metavar would also rename the
    # command argument in argparse's errors for a missing or bad command
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{" + ",".join(_COMMANDS) + "}" if named else None)
    for name in argv[:1] if named else _COMMANDS:
        command = _COMMANDS[name]
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
        _emit(args, command.handler(args))
    except (ParameterDomainError, PrecisionFailureError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2 if isinstance(exc, ParameterDomainError) else 3
    except MemoryError:
        # no precision serves a request that does not fit in memory, so it is
        # refused as out of the parameter domain, not as a precision failure
        asked = ", ".join(f"--{k} {v}" for k, v in vars(args).items()
                          if k in ("n", "nmax", "bits"))
        print(json.dumps({"error": f"request too large to allocate: {asked}"}),
              file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
