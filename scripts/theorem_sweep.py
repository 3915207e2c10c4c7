#!/usr/bin/env python3
"""Sweep exact Z_n against the asymptotic predictor in every phase that has
one and write per-phase comparison tables.

Each table is one `sixvertex compare --format csv` run, with columns n, zn,
log_zn, log_prediction, ratio; the ratio column should drift toward the
unknown constant C (disordered, antiferroelectric, critical FE-D) or toward 1
(ferroelectric, whose constant is predicted).
"""

import argparse
import csv
import pathlib
import sys

from mpmath import mp

from sixvertex import cli, hankel

PI_OVER_3 = "pi/3"  # replaced by a decimal literal good to the bits the CLI parses it at

SWEEPS = [
    ("disordered", ["--t", "0", "--gamma", PI_OVER_3], 40),
    ("ferro", ["--t", "2", "--gamma", "1"], 12),
    ("af", ["--t", "0.3", "--gamma", "1"], 30),
    ("critical-fd", ["--alpha", "3"], 30),
]


def pi_over_3(bits):
    """pi/3 as a decimal literal that parses back to pi/3 at ``bits`` bits."""
    with mp.workprec(bits + 32):
        return mp.nstr(mp.pi / 3, int(bits * 0.30103) + 10)


def run_sweep(name, params, nmax, outdir, bits):
    # the CLI parses the point at hankel.point_bits, above every rung's guard bits
    params = [pi_over_3(hankel.point_bits(nmax, bits)) if p == PI_OVER_3 else p
              for p in params]
    path = outdir / f"compare_{name}.csv"
    argv = ["compare", "--phase", name, *params, "--nmax", str(nmax), "--bits", str(bits),
            "--format", "csv", "--out", str(path)]
    code = cli.run(argv)
    if code:
        sys.exit(code)
    with open(path, newline="") as fh:
        final = list(csv.reader(fh))[-1][-1]
    print(f"{name:12s} nmax={nmax:3d} bits={bits:5d} "
          f"final ratio={mp.nstr(mp.mpf(final), 10)} -> {path}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="out", type=pathlib.Path)
    ap.add_argument("--bits", default=256, type=int)
    args = ap.parse_args(argv)
    args.outdir.mkdir(parents=True, exist_ok=True)
    for name, params, nmax in SWEEPS:
        run_sweep(name, params, nmax, args.outdir, args.bits)


if __name__ == "__main__":
    main()
