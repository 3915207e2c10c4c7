#!/usr/bin/env python3
"""Edge sweep: Z_n and the large-n laws at random points next to the domain
edges of every phase, each against a reference that shares no code with the
route it checks.

Run from a checkout root:

    PYTHONPATH=src python scripts/edge_sweep.py [--draws N] [--seed S]

Each draw picks a phase, then a point whose distance to each edge it nears
is log-uniform from 10^-1 to 10^-45: gamma -> 0, gamma -> pi/2 and
t -> +-gamma on the bulk charts, alpha -> 1 and alpha -> inf on the
critical-fd line, alpha -> +-1 on the critical-afd line.  A coordinate that
nears no edge is drawn inside the domain, t - gamma up to 20 on the
ferroelectric branch and gamma up to 10 in the antiferroelectric phase.  The
point is formed at 8,000 bits.  Two checks run on it:

- Z_1..Z_6 of ``zn_series`` on the default ladder, each against
  ``transfer_matrix_zn`` in mpf at 4,096 bits on weights formed here at
  8,192 bits and rounded to 4,096, must meet the claim of their rung.  A PrecisionFailureError
  passes: the contract allows a raise.
- log_prediction at n = 1..6 at the report context of the default --bits,
  as compare and fit print it, must lie within 2^-(its bits) max(1, |law|)
  of the law at four times those bits.

Every failing point is printed with what it missed; the last line counts
the draws and the failures.  The exit code is 1 when a draw failed.
"""

import argparse
import random
import sys
import time

from mpmath import mp

import sixvertex as sv
from sixvertex import asymptotics, hankel

NMAX = 6
POINT_BITS = 8000
REF_BITS = 4096
# the chart of each bulk phase, written out: a = s f(gamma - t),
# b = f(gamma + t), c = f(2 gamma)
CHARTS = {sv.Phase.DISORDERED: (mp.sin, 1), sv.Phase.FERROELECTRIC: (mp.sinh, -1),
          sv.Phase.ANTIFERROELECTRIC: (mp.sinh, 1)}


def _near(rnd):
    """A distance to an edge, 10^-x with x uniform on [1, 45]."""
    return mp.mpf(10) ** -mp.mpf(rnd.uniform(1, 45))


def _t_inside(rnd, gamma):
    """t with |t| < gamma: next to gamma, next to -gamma, or between them."""
    side = rnd.choice((1, -1, 0))
    return side * gamma * (1 - _near(rnd)) if side else gamma * mp.mpf(rnd.uniform(-0.99, 0.99))


def _point(rnd, phase):
    if phase is sv.Phase.DISORDERED:
        gamma = rnd.choice((_near, lambda r: mp.pi / 2 - _near(r),
                            lambda r: mp.mpf(r.uniform(0.05, 1.52))))(rnd)
        return {"t": _t_inside(rnd, gamma), "gamma": gamma}
    if phase is sv.Phase.FERROELECTRIC:
        gamma = _near(rnd) if rnd.random() < 0.5 else mp.mpf(rnd.uniform(0.05, 3))
        past = gamma * _near(rnd) if rnd.random() < 0.5 else mp.mpf(10) ** rnd.uniform(-2, 1.3)
        return {"t": gamma + past, "gamma": gamma}
    if phase is sv.Phase.ANTIFERROELECTRIC:
        gamma = _near(rnd) if rnd.random() < 0.5 else mp.mpf(10) ** rnd.uniform(-1, 1)
        return {"t": _t_inside(rnd, gamma), "gamma": gamma}
    if phase is sv.Phase.CRITICAL_FD:
        return {"alpha": rnd.choice((lambda r: 1 + _near(r),
                                     lambda r: mp.mpf(10) ** r.uniform(1, 45),
                                     lambda r: mp.mpf(r.uniform(1.1, 10))))(rnd)}
    return {"alpha": rnd.choice((lambda r: 1 - _near(r), lambda r: _near(r) - 1,
                                 lambda r: mp.mpf(r.uniform(-0.99, 0.99))))(rnd)}


def draw(rnd) -> sv.PhaseParams:
    """A point next to the edges of a phase, formed at POINT_BITS bits, from
    the random.Random rnd."""
    phase = rnd.choice(list(sv.Phase))
    with mp.workprec(POINT_BITS):
        return sv.PhaseParams(phase, **_point(rnd, phase))


def reference_weights(p: sv.PhaseParams) -> sv.Weights:
    """p's weights from the chart formulas written out, formed at 2 REF_BITS
    bits and rounded to REF_BITS."""
    with mp.workprec(2 * REF_BITS):
        if p.phase in CHARTS:
            f, s = CHARTS[p.phase]
            t, gamma = mp.mpf(p.t), mp.mpf(p.gamma)
            w = (s * f(gamma - t), f(gamma + t), f(2 * gamma))
        else:
            alpha = mp.mpf(p.alpha)
            w = (abs(alpha - 1) / 2, (alpha + 1) / 2, mp.mpf(1))
    with mp.workprec(REF_BITS):
        return sv.Weights(*(+x for x in w))


def _off(got, want, scale) -> float:
    """log2 of |got - want| / scale, the quotient at REF_BITS bits (-inf when
    got = want)."""
    with mp.workprec(REF_BITS):
        err = abs(mp.mpf(got) - mp.mpf(want)) / scale
    with mp.workprec(53):
        return float(mp.log(err, 2)) if err else float("-inf")


def failures(p: sv.PhaseParams) -> list:
    """What p misses: each Z_n of its ladder series against the transfer
    matrix, and each log_prediction at the report context against the law at
    four times its bits."""
    out = []
    try:
        series = sv.zn_series(p, NMAX)
    except sv.PrecisionFailureError:
        series = []
    except sv.ParameterDomainError as exc:
        return [f"zn_series refused the point: {exc}"]
    w = reference_weights(p)
    for r in series:
        ref = sv.transfer_matrix_zn(r.n, w, ctx=sv.PrecisionContext(REF_BITS))
        off = _off(r.zn, ref, abs(ref))
        if not off < -r.ctx.claim_bits:
            out.append(f"Z_{r.n} 2^{off:.1f} off, claim 2^-{r.ctx.claim_bits}")
    if p.phase not in asymptotics._LAWS:
        return out
    predict = asymptotics._predictor(p)
    report = hankel.report_context(sv.PrecisionContext(256))
    fine = sv.PrecisionContext(4 * report.bits)
    for n in range(1, NMAX + 1):
        try:
            law = predict(n, fine).log_prediction
            off = _off(predict(n, report).log_prediction, law, max(1, abs(law)))
        except sv.ParameterDomainError as exc:
            return out + [f"the law refused the point: {exc}"]
        if not off < -report.bits:
            out.append(f"log_prediction at n={n} 2^{off:.1f} off, bound 2^-{report.bits}")
    return out


def describe(p: sv.PhaseParams) -> str:
    """The phase and the parameters of p, to 50 digits."""
    values = ((k, getattr(p, k)) for k in ("t", "gamma", "alpha"))
    return " ".join([p.phase.value] + [f"{k}={mp.nstr(x, 50)}" for k, x in values
                                       if x is not None])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--draws", type=int, default=200)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    rnd = random.Random(args.seed)
    start, failed = time.perf_counter(), 0
    for i in range(args.draws):
        p = draw(rnd)
        missed = failures(p)
        if missed:
            failed += 1
            print(f"draw {i}: {describe(p)}: " + "; ".join(missed))
    print(f"{args.draws} draws, seed {args.seed}: {failed} failed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
