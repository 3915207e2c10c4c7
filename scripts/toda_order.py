#!/usr/bin/env python3
"""Residual of the Toda relation tau_n tau_n'' - (tau_n')^2 = tau_{n+1} tau_{n-1}
as the finite-difference step shrinks: the table should show second-order
decay until roundoff takes over."""

import argparse

from mpmath import mp

import sixvertex as sv


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--gamma", default="1.2")
    ap.add_argument("--t", default="0.4")
    ap.add_argument("--n", default=3, type=int)
    ap.add_argument("--bits", default=512, type=int)
    args = ap.parse_args(argv)

    ctx = sv.PrecisionContext(args.bits)
    with ctx.guardprec():
        params = sv.PhaseParams(
            sv.Phase.DISORDERED, t=mp.mpf(args.t), gamma=mp.mpf(args.gamma)
        )
        print(f"n={args.n} gamma={args.gamma} t={args.t} bits={args.bits}")
        print(f"{'h':>10s} {'residual':>14s} {'observed order':>16s}")
        prev = None
        for k in range(3, 11):
            h = mp.mpf(10) ** (-k)
            res = sv.toda_residual(params, args.n, h, ctx)
            order = "" if prev is None else mp.nstr(mp.log(prev / res) / mp.log(10), 5)
            print(f"{mp.nstr(h, 3):>10s} {mp.nstr(res, 6):>14s} {order:>16s}")
            prev = res


if __name__ == "__main__":
    main()
