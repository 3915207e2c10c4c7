"""Arbitrary-precision scalar kernels: derivatives of the moment generating
function phi, moment sequences for all five weight families, Jacobi theta
functions (theta_1 by its series, theta_4 and theta_1'(0) by mp.jtheta) and
zeta(3/2).

Derivatives of phi = c/P, P = ab, come from Leibniz's rule on P phi = c,
the recurrence for the reciprocal of a power series (R. P. Brent and
H. T. Kung, J. ACM 25 (1978) 581-595): phi^(m) = -sum_{i=1..m} C(m, i) r_i
phi^(m-i), where r_i = P^(i)/P is sigma^floor((i-1)/2) 2^(i-1) times u - v
for odd i and sigma - uv for even i, with u = x(gamma + t), v = x(gamma - t)
on the bulk chart (``model.BulkChart``) at the model's chart arguments: O(1)
at any point.  phi = s (u + v) where u and v share a sign; where they differ
(ferroelectric, and disordered past gamma + |t| = pi/2) that sum cancels,
and phi is c/(ab) from ``model.weights_from_params``, unless the sum is an
exact zero (x = +-1 at a huge point), whose norms fail at once.
Each step sums its odd-i and its even-i terms exactly on integer mantissas
(``_linalg._split``), skipping exact-zero phi, multiplies each sum once by
u - v or sigma - uv and rounds once; at t = 0, where u - v = 0, every odd
phi^(m) is an exact zero.

In the ferroelectric and antiferroelectric phases phi is the Laplace
transform of a measure on the integers, so the discrete moments are the
phi-derivatives rescaled by s^k / 2^(k+1), with s the chart's sign.  The two
critical lines have closed-form moments.  ``_WEIGHT_MOMENTS`` maps each phase
to the moments of its orthogonality weight.
"""

from __future__ import annotations

from enum import Enum
from itertools import accumulate
from math import isqrt
from operator import mul
from typing import Optional, Tuple

from mpmath import mp

from ._linalg import _div, _round, _split
from .errors import ParameterDomainError, PrecisionFailureError
from .model import (
    DEFAULT_CONTEXT, Phase, PhaseParams, PrecisionContext, _chart_args, _SlotRecord, bulk_chart,
    exact_or_mpf, to_mpf, weights_from_params,
)


class MomentFamily(str, Enum):
    DISORDERED_PHI = "disordered-phi"
    FERRO_PHI = "ferro-phi"
    AF_PHI = "af-phi"
    FERRO_DISCRETE = "ferro-discrete"
    AF_DISCRETE = "af-discrete"
    CRIT_FD = "critical-fd"
    CRIT_AFD = "critical-afd"


_PHI_FAMILY = {
    Phase.DISORDERED: MomentFamily.DISORDERED_PHI,
    Phase.FERROELECTRIC: MomentFamily.FERRO_PHI,
    Phase.ANTIFERROELECTRIC: MomentFamily.AF_PHI,
}


class MomentSequence(_SlotRecord):
    """Moments mu_0..mu_m of one weight family at one parameter point, as mpf
    computed at the guard precision of ``ctx``, the context they were built
    for and the one context of every run on them."""

    __slots__ = ("family", "params", "values", "ctx")

    def __init__(
        self, family: MomentFamily, params: Tuple, values: Tuple, ctx: PrecisionContext
    ) -> None:
        super().__init__(family, params, values, ctx)

    @property
    def order(self) -> int:
        return len(self.values) - 1

    def __getitem__(self, k: int):
        return self.values[k]

    def __len__(self) -> int:
        return len(self.values)

    def is_phi_of(self, p: PhaseParams) -> bool:
        """Whether these are the phi-derivatives of p, as phi_derivatives
        labels them."""
        return (self.family, self.params) == (_PHI_FAMILY.get(p.phase), (p.t, p.gamma))


def phi_derivatives(
    p: PhaseParams, kmax: int, ctx: Optional[PrecisionContext] = None
) -> MomentSequence:
    """phi(t), phi'(t), ..., phi^(kmax)(t) as a MomentSequence.

    These are precisely the moments of the (phase-dependent) measure whose
    Laplace transform is phi, so they feed the Hankel determinant directly.
    """
    ctx = ctx or DEFAULT_CONTEXT
    values = _phi_values(p, kmax, ctx)
    return MomentSequence(_PHI_FAMILY[p.phase], (p.t, p.gamma), values, ctx)


def _sum(terms) -> Tuple[int, int]:
    """The exact sum of (man, exp) pairs, as (man, exp) at their smallest
    exponent."""
    e = min((f for _, f in terms), default=0)
    return sum(m << (f - e) for m, f in terms), e


def _phi_values(p: PhaseParams, kmax: int, ctx: PrecisionContext) -> Tuple:
    """phi^(k)(t) for k = 0..kmax at the guard precision of ctx, by the
    Leibniz recurrence of the module docstring."""
    chart = bulk_chart(p)
    if kmax < 0:
        raise ParameterDomainError(f"kmax >= 0 required, got {kmax}")
    with ctx.guardprec():
        prec = mp.prec
        v, u = map(chart.x, _chart_args(to_mpf(p.t), to_mpf(p.gamma)))
        phi = chart.s * (u + v)
        if phi and (u < 0) != (v < 0):  # u + v cancels: take c/(ab) itself
            w = weights_from_params(p, ctx)
            phi = w.c / (w.a * w.b)
        phis = [_split(phi)]
        # P'/P = u - v and P''/P = 2 (sigma - uv), each rounded once; the odd-i
        # and even-i terms carry one each, and an exact zero drops its terms
        ratios = ((1, u - v), (2, mp.fsub(chart.sigma, mp.fmul(u, v, exact=True))))
        ratios = [(first, _split(r)) for first, r in ratios if r]
        row = [1]
        for m in range(1, kmax + 1):
            row = [1, *(x + y for x, y in zip(row, row[1:])), 1]  # C(m, i)
            parts = []
            for first, (rm, re) in ratios:
                terms = []
                for i in range(first, m + 1, 2):
                    pm, pe = phis[m - i]
                    if pm:  # C(m, i) sigma^floor((i-1)/2) 2^(i-1) phi^(m-i)
                        c = -row[i] if chart.sigma < 0 and (i - 1) & 2 else row[i]
                        terms.append((c * pm, pe + i - 1))
                s, e = _sum(terms)
                parts.append((s * rm, e + re))
            s, e = _sum(parts)
            phis.append(_round(-s, e, prec))
        return tuple(map(mp.mpf, phis))


# ---------------------------------------------------------------------------
# The discrete ferroelectric and antiferroelectric measures are the phi
# measures with x rescaled: coth x = 1 + 2 sum_{l>=1} e^(-2lx) for x > 0 gives
#
#     ferroelectric       phi = 2 sum_{l>=1} (e^(-2l(t - gamma)) - e^(-2l(t + gamma)))
#     antiferroelectric   phi = 2 sum_{l in Z} e^(2tl - 2 gamma |l|)
#
# so phi^(k) = 2 (-2)^k mu_k and 2 2^k mu_k, and mu_k = s^k phi^(k) / 2^(k+1)
# with an exact division and s the chart's sign.  Both signs come from
# t > gamma: it puts the ferroelectric nodes at Laplace variable -2l, and it
# makes s = -1, since a = s sinh(gamma - t) > 0.


def _discrete_moments(
    family: MomentFamily, phase: Phase, kmax: int, t, gamma, ctx: Optional[PrecisionContext]
) -> MomentSequence:
    ctx = ctx or DEFAULT_CONTEXT
    p = PhaseParams(phase, t=t, gamma=gamma)
    s, derivs = bulk_chart(p).s, _phi_values(p, kmax, ctx)
    with ctx.guardprec():
        vals = tuple(mp.ldexp(s**k * v, -(k + 1)) for k, v in enumerate(derivs))
    return MomentSequence(family, (t, gamma), vals, ctx)


def ferro_moments(
    kmax: int, t, gamma, ctx: Optional[PrecisionContext] = None
) -> MomentSequence:
    """mu_k = sum_{l>=1} l^k 2 e^{-2tl} sinh(2 gamma l) for k = 0..kmax and
    t > gamma > 0."""
    return _discrete_moments(
        MomentFamily.FERRO_DISCRETE, Phase.FERROELECTRIC, kmax, t, gamma, ctx
    )


def af_moments(
    kmax: int, t, gamma, ctx: Optional[PrecisionContext] = None
) -> MomentSequence:
    """mu_k = sum_{l in Z} l^k e^{2tl - 2 gamma |l|} for k = 0..kmax and
    |t| < gamma."""
    return _discrete_moments(
        MomentFamily.AF_DISCRETE, Phase.ANTIFERROELECTRIC, kmax, t, gamma, ctx
    )


def ferro_moment(k: int, t, gamma, ctx: Optional[PrecisionContext] = None):
    """mu_k of ``ferro_moments``."""
    return ferro_moments(k, t, gamma, ctx)[k]


def af_moment(k: int, t, gamma, ctx: Optional[PrecisionContext] = None):
    """mu_k of ``af_moments``."""
    return af_moments(k, t, gamma, ctx)[k]


# ---------------------------------------------------------------------------
# Closed-form moments of the two critical lines.  Both are
# mu_k = k! (1 - q^(k+1)) with q = (alpha - 1)/(alpha + 1): q = 1/r on the
# critical-fd line and q = -1/r on the critical-afd line.


def _critical_moments(
    family: MomentFamily, phase: Phase, kmax: int, alpha, ctx: Optional[PrecisionContext]
) -> MomentSequence:
    """mu_0..mu_kmax of a critical line at the guard precision of ctx, from a
    running int k! and running products of q, so the error grows by about one
    ulp per k.  On the fd line (q > 0) 1 - q^(k+1) is the running sum of the
    positive (1 - q) q^j, j <= k, with 1 - q = 2/(alpha + 1): nothing cancels
    as alpha -> inf.  A rational alpha gives q and 1 - q exactly, rounded once."""
    PhaseParams(phase, alpha=alpha)
    if kmax < 0:
        raise ParameterDomainError(f"kmax >= 0 required, got {kmax}")
    ctx = ctx or DEFAULT_CONTEXT
    with ctx.guardprec():
        a = exact_or_mpf(alpha)
        q = to_mpf((a - 1) / (a + 1))
        if q > 0:
            rests = accumulate(accumulate([to_mpf(2 / (a + 1))] + [q] * kmax, mul))
        else:
            rests = (1 - power for power in accumulate([q] * (kmax + 1), mul))
        facts = accumulate(range(1, kmax + 1), mul, initial=1)
        vals = tuple(fact * rest for fact, rest in zip(facts, rests))
    return MomentSequence(family, (alpha,), vals, ctx)


def crit_fd_moments(
    kmax: int, alpha, ctx: Optional[PrecisionContext] = None
) -> MomentSequence:
    """mu_k = int_0^inf x^k (e^{-x} - e^{-rx}) dx = k! (1 - r^{-(k+1)}) for
    k = 0..kmax, r = (alpha+1)/(alpha-1) and alpha > 1."""
    return _critical_moments(MomentFamily.CRIT_FD, Phase.CRITICAL_FD, kmax, alpha, ctx)


def crit_afd_moments(
    kmax: int, alpha, ctx: Optional[PrecisionContext] = None
) -> MomentSequence:
    """Moments of the two-sided exponential weight e^{-x} (x>=0) / e^{rx} (x<0):
    k! (1 + (-1)^k r^{-(k+1)}) for k = 0..kmax, r = (1+alpha)/(1-alpha) and
    -1 < alpha < 1."""
    return _critical_moments(MomentFamily.CRIT_AFD, Phase.CRITICAL_AFD, kmax, alpha, ctx)


# Phase -> mu_0..mu_kmax of its orthogonality weight, as (p, kmax, ctx).  Each
# entry calls its builder through this module's global name, so a wrapper
# bound there sees the call.
_WEIGHT_MOMENTS = {
    Phase.DISORDERED: lambda p, k, ctx: phi_derivatives(p, k, ctx),
    Phase.FERROELECTRIC: lambda p, k, ctx: ferro_moments(k, p.t, p.gamma, ctx),
    Phase.ANTIFERROELECTRIC: lambda p, k, ctx: af_moments(k, p.t, p.gamma, ctx),
    Phase.CRITICAL_FD: lambda p, k, ctx: crit_fd_moments(k, p.alpha, ctx),
    Phase.CRITICAL_AFD: lambda p, k, ctx: crit_afd_moments(k, p.alpha, ctx),
}


def crit_fd_moment(k: int, alpha, ctx: Optional[PrecisionContext] = None):
    """mu_k of ``crit_fd_moments``."""
    return crit_fd_moments(k, alpha, ctx)[k]


def crit_afd_moment(k: int, alpha, ctx: Optional[PrecisionContext] = None):
    """mu_k of ``crit_afd_moments``."""
    return crit_afd_moments(k, alpha, ctx)[k]


# ---------------------------------------------------------------------------
# Jacobi theta functions.  Real z, real nome 0 < q < 0.9 (no modular
# transform: larger nomes are rejected).  theta_4 and theta_1'(0) are
# mp.jtheta; theta_1 keeps its own series, since mp.jtheta forms it as
# theta_2(z - pi/2), which is not 0 at z = 0 and loses relative accuracy
# next to z = pi.


def _check_nome(q) -> None:
    if not 0 < q < 0.9:
        raise ParameterDomainError(
            f"nome q in (0, 0.9) required, got {q} (modular transform out of scope)"
        )


_THETA_MAX_TERMS = 10_000


def theta1(z, q, ctx: Optional[PrecisionContext] = None):
    """theta_1(z) = 2 sum_{k>=0} (-1)^k q^((k+1/2)^2) sin((2k+1) z), summed
    until the next term's bound 2 q^((k+1/2)^2) falls below 2^(-bits-8)
    times the largest of 2 q^(1/4) and every partial |sum|."""
    _check_nome(q)
    ctx = ctx or DEFAULT_CONTEXT
    with mp.workprec(ctx.guard_bits + 32):
        zz, qq = to_mpf(z), to_mpf(q)
        thresh = mp.mpf(2) ** (-(ctx.bits + 8))
        s = mp.mpf(0)
        scale = m = 2 * qq ** mp.mpf(0.25)
        for k in range(_THETA_MAX_TERMS):
            term = m * mp.sin((2 * k + 1) * zz)
            s += term if k % 2 == 0 else -term
            scale = max(scale, abs(s))
            m = 2 * qq ** (mp.mpf(2 * k + 3) ** 2 / 4)
            if m < thresh * scale:
                return s
    raise PrecisionFailureError("theta series did not converge")  # pragma: no cover


def theta4(z, q, ctx: Optional[PrecisionContext] = None):
    """theta_4(z) = 1 + 2 sum_{k>=1} (-1)^k q^(k^2) cos(2 k z)."""
    _check_nome(q)
    ctx = ctx or DEFAULT_CONTEXT
    with mp.workprec(ctx.guard_bits + 32):
        return mp.jtheta(4, to_mpf(z), to_mpf(q))


def theta1_prime0(q, ctx: Optional[PrecisionContext] = None):
    """theta_1'(0) = 2 sum_{k>=0} (-1)^k (2k+1) q^((k+1/2)^2)."""
    _check_nome(q)
    ctx = ctx or DEFAULT_CONTEXT
    with mp.workprec(ctx.guard_bits + 32):
        return mp.jtheta(1, 0, to_mpf(q), 1)


# ---------------------------------------------------------------------------
# zeta(3/2) = (2 + sqrt 2) eta(3/2), with eta(3/2) = sum_{k>=0} (-1)^k (k+1)^(-3/2)
# summed by the Chebyshev acceleration of H. Cohen, F. Rodriguez Villegas and
# D. Zagier, Exp. Math. 9 (2000) 3-12: eta ~ sum_k c_k (k+1)^(-3/2) / d with
# d = T_n(3) and error ~ (3 + sqrt 8)^(-n).  d, the coefficients b_k of T_n and
# the running c_k are exact ints, each (k+1)^(-3/2) and sqrt 2 an integer
# square root at P bits, and the sum is rounded once.  Not cached: it runs in
# the critical-fd law, which the one law cache (``asymptotics._law``) holds.


def zeta_three_halves(ctx: Optional[PrecisionContext] = None):
    """zeta(3/2) as an mpf of ctx.guard_bits + 32 bits."""
    ctx = ctx or DEFAULT_CONTEXT
    prec = ctx.guard_bits + 32
    # P-bit fixed point: each term is off by under one ulp and |c_k| <= d,
    # so the n terms lose under log2(n) of the 20 extra bits
    P = prec + 20
    n = int((ctx.guard_bits + 16) * 0.3933) + 4
    t, d = 1, 3  # T_0(3), T_1(3); T_{k+1} = 6 T_k - T_{k-1}
    for _ in range(n - 1):
        t, d = d, 6 * d - t
    one = 1 << (2 * P)
    b, c, s = -1, -d, 0
    for k in range(n):
        c = b - c
        s += c * isqrt(one // (k + 1) ** 3)
        b = 2 * (k + n) * (k - n) * b // ((2 * k + 1) * (k + 1))  # exact
    # zeta = (2 + sqrt 2) s / (d 2^P), with sqrt 2 = isqrt(2^(2P+1)) / 2^P
    with mp.workprec(prec):
        return mp.mpf(_div(((2 << P) + isqrt(2 * one)) * s, -2 * P, d, prec))
