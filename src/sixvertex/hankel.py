"""Hankel determinants of moment sequences, the norms h_k of their orthogonal
polynomials, the Izergin-Korepin partition function, the Z_n series of all
five phases, and the Toda-equation residual check.

Z_n = (ab)^(n^2) tau_n / (prod_{k<n} k!)^2 with tau_n the n x n Hankel
determinant of the derivatives of phi(t) = c/(ab); on the critical lines the
moments are those of the critical weight and b/c replaces ab.  Every tau_n
used here is a prefix product prod_{k<n} h_k of one ``NormSequence``, the
norms h_k = D_{k+1}/D_k of ``norms_from_moments``, the one route from moments
to norms; ``hankel_det`` keeps pivoted LU as the independent reference.
tau_0 = 1 makes the Toda relation tau_n tau_n'' - (tau_n')^2 = tau_{n+1} tau_{n-1}
hold from n = 1.
"""

from __future__ import annotations

import math
from itertools import accumulate, count
from operator import mul
from typing import Callable, Iterator, List, NamedTuple, Optional, Tuple

from mpmath import mp
from mpmath.libmp import from_man_exp

from . import _linalg
from .errors import ParameterDomainError, PrecisionFailureError
from .model import (
    Phase, PhaseParams, PrecisionContext, _PHASE_RULES, _SlotRecord, bulk_chart, exact_or_mpf,
    to_mpf, weights_from_params,
)
from .specfun import MomentFamily, MomentSequence, _WEIGHT_MOMENTS, phi_derivatives


def predicted_loss(p: PhaseParams, n: int) -> float:
    """Bits that the Chebyshev norms of p's moments lose at size n: n times
    the ``loss`` column of p's row of ``model._PHASE_RULES``, which is
    max(3.5, 2 (t - gamma) log2(e) + 1) at a ferroelectric point and 3.5
    elsewhere.  The loss does not depend on the working bits, so it can be
    added to the claim; the rule covers the losses measured over the five
    phases, except deep in the antiferroelectric phase, where a run climbs."""
    return _PHASE_RULES[p.phase].loss(p) * n if n > 0 else 0.0


# bits past the claim (and past the predicted loss) that a first rung carries,
# and bits past the claim at which a verified result is reported
_MARGIN_BITS = 32


def contexts(p: PhaseParams, n: int, bits: int = 256) -> Iterator[PrecisionContext]:
    """The precision ladder for size-n runs at p that serve the request
    ``PrecisionContext(bits)``, which checks bits and sets the claim: a first
    rung of W = claim + ceil(predicted_loss(p, n)) + 32 bits, an int sum
    capped at 2 max(bits, 24 n), then 2W, 4W, ..., ending with the first rung
    at or above max(bits, 24 n).  Each rung's guard run is at its bits + 64,
    and a run passes when its base and guard runs agree to the claim."""
    claim, top = PrecisionContext(bits).claim_bits, max(bits, 24 * n)
    loss = math.ceil(min(predicted_loss(p, n), 2 * top))  # capped first: it may be inf
    ctx = PrecisionContext(min(claim + loss + _MARGIN_BITS, 2 * top), claim=claim)
    yield ctx
    while ctx.bits < top:
        ctx = PrecisionContext(2 * ctx.bits, claim=claim)
        yield ctx


def report_context(ctx: PrecisionContext) -> PrecisionContext:
    """The context at which a result verified at ctx is reported: claim + 32
    bits, with ctx's claim.  What is derived from a verified value (its log,
    the law, the ratio, the fits) is computed at its guard precision, claim +
    96 bits, and printed to its dps, the digits of claim + 32 bits.  Only the
    norms lose bits with n, so only their runs need the rung's bits."""
    claim = ctx.claim_bits
    return PrecisionContext(claim + _MARGIN_BITS, claim=claim)


def point_bits(n: int, bits: int) -> int:
    """Bits at which to parse a point for size-n runs at bits: 4 max(64,
    bits, 24 n), above the guard bits of ``PrecisionContext(bits)`` and of
    every rung of ``contexts(p, n, bits)`` (each below 2 max(bits, 24 n) +
    64).  So the point predicts the loss, and a long literal or a difference
    such as t - gamma near a domain edge keeps every bit a run resolves."""
    return 4 * max(64, bits, 24 * n)


def on_ladder(p: PhaseParams, n: int, bits: int, run: Callable):
    """run(ctx) at each rung of ``contexts(p, n, bits)`` in turn until a rung
    does not raise PrecisionFailureError; the last rung's failure
    propagates."""
    for ctx in contexts(p, n, bits):
        try:
            return run(ctx)
        except PrecisionFailureError as exc:
            failure = exc
    raise failure


class HankelResult(NamedTuple):
    """Hankel determinant tau_n with its precision: the context of the run and
    the bits on which the base and guard runs agreed on tau_n."""

    n: int
    tau: object
    ctx: PrecisionContext
    agreement_bits: int


class ZnResult(NamedTuple):
    """Partition function value with its provenance and precision: the
    context of the run and the fewest bits on which the base and guard runs
    agreed over the norms behind it."""

    n: int
    zn: object
    phase: Phase
    params: Tuple
    ctx: PrecisionContext
    agreement_bits: int

    @property
    def bits(self) -> int:
        return self.ctx.bits

    @property
    def log_zn(self):
        """log Z_n at the run's guard precision, taken at each read."""
        with self.ctx.guardprec():
            return mp.log(self.zn)


class NormSequence(_SlotRecord):
    """Norms h_0..h_{n-1} of the monic orthogonal polynomials of one family at
    the guard precision of ``ctx``, the context of the run that computed them,
    with ``agreement[k]`` the bits on which its base and guard runs agreed on
    h_k."""

    __slots__ = ("family", "params", "h", "ctx", "agreement")

    def __init__(
        self,
        family: MomentFamily,
        params: Tuple,
        h: Tuple,
        ctx: PrecisionContext,
        agreement: Tuple,
    ) -> None:
        super().__init__(family, params, h, ctx, agreement)

    @property
    def agreement_bits(self) -> int:
        """The fewest bits on which the base and guard runs agreed over the norms."""
        return min(self.agreement)

    def __len__(self) -> int:
        return len(self.h)

    def __getitem__(self, k: int):
        return self.h[k]


def _own_context(m: MomentSequence, ctx: Optional[PrecisionContext]) -> PrecisionContext:
    """m.ctx, the one context of a run on m; any other ctx raises."""
    if ctx is not None and ctx != m.ctx:
        raise ParameterDomainError(f"moments built at {m.ctx} cannot run at {ctx}")
    return m.ctx


def hankel_det(
    m: MomentSequence, n: int, ctx: Optional[PrecisionContext] = None
) -> HankelResult:
    """Verified Hankel determinant tau_n = det(mu_{i+k-2})_{1<=i,k<=n}, at the
    moments' own context m.ctx; a ctx, if given, must equal it.

    Raises PrecisionFailureError when the base and guard runs disagree beyond
    the context's claim, or when the determinant of a positive-measure moment
    matrix comes out non-positive.
    """
    ctx = _own_context(m, ctx)
    tau, agreement = _linalg.hankel_determinant(m.values, n, ctx)
    return HankelResult(n, tau, ctx, agreement)


def norms_from_moments(
    m: MomentSequence, n: int, ctx: Optional[PrecisionContext] = None
) -> NormSequence:
    """h_0..h_{n-1} from mu_0..mu_{2n-2}; every h_k must come out positive and
    agree between the base run at ctx.bits and the guard run at
    ctx.guard_bits (bits + 64 on a ladder rung), with ctx the moments' own
    context m.ctx; a ctx, if given, must equal it."""
    ctx = _own_context(m, ctx)
    pivots, agreement = _linalg.hankel_pivots(m.values, n, ctx)
    return NormSequence(m.family, m.params, tuple(pivots), ctx, tuple(agreement))


def _superfactorial_squares() -> Iterator[Tuple[int, int]]:
    """(odd, twos) with (prod_{k<n} k!)^2 = odd 2^twos, for n = 1, 2, ...
    mpmath normalizes an int slowly by its trailing zero bits, so the
    division by the square reads it as this pair, the same value exactly."""
    odd, twos = 1, 0
    for m in count():  # m = n - 1
        v = m - m.bit_count()  # 2-adic valuation of m!
        odd *= (math.factorial(m) >> v) ** 2
        twos += 2 * v
        yield odd, twos


def _series(p: PhaseParams, moments: MomentSequence, nmax: int) -> List[ZnResult]:
    """Z_1..Z_nmax of p from its moments (order at least 2 nmax - 2) at their
    context, with base ab where p's phase has a (t, gamma) chart and
    (1 + alpha)/2 on a critical line; a rational alpha gives that base
    exactly, rounded once."""
    ctx = moments.ctx
    norms = norms_from_moments(moments, nmax)  # before sinh, which takes minutes at a huge point
    w = weights_from_params(p, ctx) if _PHASE_RULES[p.phase].chart else None
    out = []
    with ctx.guardprec():
        base = to_mpf((1 + exact_or_mpf(p.alpha)) / 2) if w is None else w.a * w.b
        taus, agrees = accumulate(norms.h, mul), accumulate(norms.agreement, min)
        for n, tau, agree, square in zip(count(1), taus, agrees, _superfactorial_squares()):
            zn = base ** (n * n) * tau / mp.make_mpf(from_man_exp(*square))
            out.append(ZnResult(n, zn, p.phase, moments.params, ctx, agree))
    return out


def zn_ik(
    p: PhaseParams,
    n: int,
    ctx: Optional[PrecisionContext] = None,
    moments: Optional[MomentSequence] = None,
) -> ZnResult:
    """Izergin-Korepin partition function for the parameterized weights of p:
    the last entry of the ``zn_series`` assembly on its phi-derivatives.

    ``moments`` may carry a precomputed phi-derivative sequence to share
    across a sweep in n; it must be that of p (ParameterDomainError
    otherwise), and it is rebuilt at ctx unless it was built at ctx and its
    order reaches 2n-2.  Without ``ctx`` it runs on the precision ladder of
    ``contexts(p, n)``.
    """
    if n < 1:
        raise ParameterDomainError(f"n >= 1 required, got {n}")
    if moments is not None and not moments.is_phi_of(p):
        raise ParameterDomainError(
            f"moments of {moments.family.value} at {moments.params} are not the "
            f"phi-derivatives of {p.phase.value} at {(p.t, p.gamma)}"
        )
    if ctx is None:
        return on_ladder(p, n, 256, lambda c: zn_ik(p, n, c, moments))
    if moments is None or moments.ctx != ctx or moments.order < 2 * n - 2:
        moments = phi_derivatives(p, 2 * n - 2, ctx)
    return _series(p, moments, n)[-1]


def zn_series(
    p: PhaseParams, nmax: int, ctx: Optional[PrecisionContext] = None
) -> List[ZnResult]:
    """Z_1..Z_nmax in one pass, in any of the five phases:

        Z_n = base^(n^2) prod_{k<n} h_k / (prod_{k<n} k!)^2

    with h_k the verified norms of the orthogonal polynomials of the phase's
    moments, computed by Chebyshev's algorithm in O(nmax^2) operations.  A
    phase with a (t, gamma) chart takes the phi-derivatives and base = ab; a
    critical line takes its weight's moments (``specfun._WEIGHT_MOMENTS``)
    and base = b/c = (1+alpha)/2.  The superfactorial's square is divided
    out as its odd part times a power of two, the integer square's value
    exactly.
    Without ``ctx`` the series runs on the precision ladder of
    ``contexts(p, nmax)``; with one it runs at exactly that precision or raises.
    """
    if nmax < 1:
        raise ParameterDomainError(f"nmax >= 1 required, got {nmax}")
    if ctx is None:
        return on_ladder(p, nmax, 256, lambda c: zn_series(p, nmax, c))
    build = phi_derivatives if _PHASE_RULES[p.phase].chart else _WEIGHT_MOMENTS[p.phase]
    return _series(p, build(p, 2 * nmax - 2, ctx), nmax)


def toda_residual(p: PhaseParams, n: int, h, ctx: PrecisionContext):
    """Relative residual of tau_n tau_n'' - (tau_n')^2 = tau_{n+1} tau_{n-1},
    with t-derivatives replaced by central differences at step h, at exactly
    ctx.

    tau_{n-1}, tau_n and tau_{n+1} at t are prefixes of one norms run on the
    phi-derivatives of order 2n; tau_n at t +- h takes one run each.  The
    residual is |lhs - rhs| / rhs and scales as O(h^2) plus roundoff.  The
    critical lines have no t to differentiate in.
    """
    bulk_chart(p)
    if n < 1:
        raise ParameterDomainError(f"n >= 1 required, got {n}")

    def taus_at(q: PhaseParams, size: int) -> list:  # tau_0 = 1, ..., tau_size
        norms = norms_from_moments(phi_derivatives(q, 2 * size - 2, ctx), size)
        return list(accumulate(norms.h, mul, initial=mp.mpf(1)))

    with ctx.guardprec():
        step = to_mpf(h)
        if not step > 0:
            raise ParameterDomainError(f"step h > 0 required, got {h}")
        # domain exit at t +- h surfaces here as a ParameterDomainError
        p_plus, p_minus = p.shifted_t(step), p.shifted_t(-step)
        taus = taus_at(p, n + 1)
        t0, tp, tm = taus[n], taus_at(p_plus, n)[n], taus_at(p_minus, n)[n]
        d1 = (tp - tm) / (2 * step)
        d2 = (tp - 2 * t0 + tm) / (step * step)
        rhs = taus[n + 1] * taus[n - 1]
        return abs(t0 * d2 - d1 * d1 - rhs) / rhs
