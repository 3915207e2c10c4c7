#!/usr/bin/env python3
"""Fit the subleading exponent kappa across the disordered phase at t = 0 and
compare with the closed form 1/12 - 2 gamma^2 / (3 pi (pi - 2 gamma)).

The fitted slope uses the theorem's free energy so the n^2 term cancels; see
the package docs for why a fitted F would contaminate the slope.
"""

import argparse
import csv
import pathlib

from mpmath import mp

import sixvertex as sv


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nmax", default=32, type=int)
    ap.add_argument("--points", default=9, type=int, help="gamma grid size")
    ap.add_argument("--out", default="out/kappa_scan.csv", type=pathlib.Path)
    args = ap.parse_args(argv)
    args.out.parent.mkdir(parents=True, exist_ok=True)

    ctx = sv.DEFAULT_CONTEXT  # for gamma and the closed-form kappa
    rows = []
    for i in range(1, args.points + 1):
        with ctx.guardprec():
            gamma = mp.pi / 2 * i / (args.points + 1)
            params = sv.PhaseParams(sv.Phase.DISORDERED, t=mp.mpf(0), gamma=gamma)
            pred = sv.predict_disordered(params.t, gamma, args.nmax, ctx)
        series = sv.zn_series(params, args.nmax)
        fit = sv.fit_kappa([(r.n, r.log_zn) for r in series], pred.law.log_f)
        with ctx.guardprec():
            err = fit.extrapolated - pred.kappa
        rows.append(
            [
                mp.nstr(gamma, 12),
                mp.nstr(pred.kappa, 12),
                mp.nstr(fit.extrapolated, 12),
                mp.nstr(err, 4),
            ]
        )
        print(f"gamma={mp.nstr(gamma, 8):14s} kappa={mp.nstr(pred.kappa, 8):12s} "
              f"fit={mp.nstr(fit.extrapolated, 8):12s} err={mp.nstr(err, 3)}")

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["gamma", "kappa_formula", "kappa_fit", "error"])
        writer.writerows(rows)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
