"""Reads of the orthogonal-polynomial norms h_k that ``hankel.norms_from_moments``
computes by Chebyshev's algorithm: the recurrence ratios, the Meixner closed
forms that the ferroelectric norms approach, and the partition functions on
the two critical lines (reads of ``hankel.zn_series``).  h_k = D_{k+1}/D_k,
the ratio of leading principal minors of the moment Hankel matrix, so
prod_{k<n} h_k telescopes to tau_n.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from mpmath import mp

from .errors import ParameterDomainError
from .hankel import NormSequence, ZnResult, norms_from_moments, on_ladder, zn_series
from .model import DEFAULT_CONTEXT, Phase, PhaseParams, PrecisionContext, to_mpf
from .specfun import ferro_moments


def recurrence_r(ns: NormSequence) -> Tuple:
    """Three-term recurrence ratios R_k = h_k / h_{k-1}, k = 1..n-1."""
    with ns.ctx.guardprec():
        return tuple(ns.h[k] / ns.h[k - 1] for k in range(1, len(ns.h)))


def meixner_norm(k: int, t, gamma, ctx: Optional[PrecisionContext] = None):
    """Closed-form norm of the monic Meixner-type polynomials orthogonal on
    l = 1, 2, ... with weight q^l, q = e^{2 gamma - 2 t}:

        h_k = (k!)^2 q^(k+1) / (1-q)^(2k+1)
    """
    if k < 0:
        raise ParameterDomainError(f"k >= 0 required, got {k}")
    ctx = ctx or DEFAULT_CONTEXT
    with ctx.guardprec():
        q = mp.exp(2 * (to_mpf(gamma) - to_mpf(t)))
        if not 0 < q < 1:
            raise ParameterDomainError(
                f"q = e^(2 gamma - 2 t) in (0,1) required (t > gamma), got q={q}"
            )
        f = mp.mpf(math.factorial(k))
        return f * f * q ** (k + 1) / (1 - q) ** (2 * k + 1)


def meixner_ratios(
    kmax: int, t, gamma, ctx: Optional[PrecisionContext] = None
) -> Tuple:
    """h_k / h_k^Meixner for k = 0..kmax, with h_k from the ferroelectric
    discrete weight 2 e^{-2tl} sinh(2 gamma l).  The ratios tend to 1.
    Without ``ctx`` they run on the precision ladder of ``contexts(p, kmax + 1)``
    at the ferroelectric point p = (t, gamma)."""
    if kmax < 0:
        raise ParameterDomainError(f"kmax >= 0 required, got {kmax}")
    if ctx is None:
        p = PhaseParams(Phase.FERROELECTRIC, t=t, gamma=gamma)
        return on_ladder(p, kmax + 1, 256, lambda c: meixner_ratios(kmax, t, gamma, c))
    norms = norms_from_moments(ferro_moments(2 * kmax, t, gamma, ctx), kmax + 1)
    with ctx.guardprec():
        return tuple(h / meixner_norm(k, t, gamma, ctx) for k, h in enumerate(norms.h))


def zn_crit_fd(n: int, alpha, ctx: Optional[PrecisionContext] = None) -> ZnResult:
    """Partition function on the ferroelectric-disordered critical line at
    normalized weights a/c = (alpha-1)/2, b/c = (alpha+1)/2, alpha > 1:

        Z_n = ((alpha+1)/2)^(n^2) prod_{k<n} h_k / (k!)^2

    with h_k the norms of the weight e^{-x} - e^{-rx} on (0, inf),
    r = (alpha+1)/(alpha-1).
    """
    return zn_crit_series(Phase.CRITICAL_FD, n, alpha, ctx)[-1]


def zn_crit_afd(n: int, alpha, ctx: Optional[PrecisionContext] = None) -> ZnResult:
    """Partition function on the antiferroelectric-disordered critical line at
    normalized weights a/c = (1-alpha)/2, b/c = (1+alpha)/2, -1 < alpha < 1:

        Z_n = ((1+alpha)/2)^(n^2) prod_{k<n} h_k / (k!)^2

    with h_k the norms of the two-sided exponential weight e^{-x} (x >= 0),
    e^{rx} (x < 0), r = (1+alpha)/(1-alpha).
    """
    return zn_crit_series(Phase.CRITICAL_AFD, n, alpha, ctx)[-1]


def zn_crit_series(
    phase: Phase, nmax: int, alpha, ctx: Optional[PrecisionContext] = None
):
    """Z_1..Z_nmax on a critical line: ``zn_series`` of PhaseParams(phase, alpha=alpha)."""
    return zn_series(PhaseParams(phase, alpha=alpha), nmax, ctx)
