"""Hankel determinants, the Izergin-Korepin formula, and the Toda check."""

import re
from fractions import Fraction
from functools import lru_cache, partial
from itertools import accumulate
from math import ceil, factorial, floor
from operator import mul

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp

import sixvertex as sv
from sixvertex import _linalg, specfun
from sixvertex.errors import ParameterDomainError, PrecisionFailureError
from sixvertex.model import _PHASE_RULES, exact_or_mpf

from conftest import (
    CTX256, CTX512, RATIONAL_POINTS, ROOT, _hyperbolic_point, load_file, rel_to,
)
from oracles import (
    agreement_bits,
    asm_count,
    chebyshev_norms,
    crit_afd_exact_moments,
    crit_fd_exact_moments,
    elimination_pivots,
    exact_phi_derivatives,
    fraction_free_norms,
    hurwitz_phi_derivatives,
    series_af_moments,
    series_ferro_moments,
)

TOL30 = mp.mpf("1e-30")


def test_hankel_det_small_sizes(disordered_pi3):
    ms = sv.phi_derivatives(disordered_pi3, 4, CTX256)
    t1 = sv.hankel_det(ms, 1, CTX256)
    assert t1.tau == ms[0]
    t2 = sv.hankel_det(ms, 2, CTX256)
    with CTX256.guardprec():
        ref = ms[0] * ms[2] - ms[1] * ms[1]
    assert rel_to(t2.tau, ref) < TOL30


def test_hankel_det_pi3_closed_form(disordered_pi3):
    # tau_2 = phi * phi'' = (2/sqrt3)(16/(3 sqrt3)) = 32/9 at t=0
    ms = sv.phi_derivatives(disordered_pi3, 2, CTX256)
    t2 = sv.hankel_det(ms, 2, CTX256)
    with CTX256.guardprec():
        assert rel_to(t2.tau, mp.mpf(32) / 9) < TOL30


def test_hankel_det_requires_enough_moments(disordered_pi3):
    ms = sv.phi_derivatives(disordered_pi3, 2, CTX256)
    with pytest.raises(ParameterDomainError, match="moments up to order 4"):
        sv.hankel_det(ms, 3, CTX256)
    with pytest.raises(ParameterDomainError, match="moments up to order 4"):
        sv.norms_from_moments(ms, 3, CTX256)


@pytest.mark.parametrize("n", [0, -1])
def test_hankel_routes_require_n_at_least_one(disordered_pi3, n):
    ms = sv.phi_derivatives(disordered_pi3, 4, CTX256)
    for route in (sv.hankel_det, sv.norms_from_moments):
        with pytest.raises(ParameterDomainError, match=f"n >= 1 required, got {n}"):
            route(ms, n, CTX256)


def test_kernels_round_their_own_inputs(disordered_pi3):
    # both runs get the same moments, carried at guard precision; a kernel
    # that used them unrounded would let the base run see the guard bits
    ms = list(sv.phi_derivatives(disordered_pi3, 22, CTX512).values)
    for bits in (100, 200):
        with mp.workprec(bits):
            rounded = [+mu for mu in ms]
            assert rounded != ms
            assert _linalg._forward_pivots(ms) == _linalg._forward_pivots(rounded)
            lu = [_linalg._lu_det(_linalg._hankel_matrix(mus)) for mus in (ms, rounded)]
            assert lu[0] == lu[1]


@pytest.mark.parametrize("rung", [True, False], ids=["ladder-rung", "plain-256"])
def test_hankel_result_carries_its_context(disordered_pi3, rung):
    n = 12
    ctx = next(sv.contexts(disordered_pi3, n)) if rung else sv.PrecisionContext(256)
    res = sv.hankel_det(sv.phi_derivatives(disordered_pi3, 2 * n - 2, ctx), n, ctx)
    assert (res.n, res.ctx) == (n, ctx)
    assert ctx.claim_bits <= res.agreement_bits <= ctx.bits


@pytest.mark.parametrize(
    "phase,t,gamma",
    [
        (sv.Phase.DISORDERED, "0.2", "1.1"),
        (sv.Phase.FERROELECTRIC, "2", "1"),
        (sv.Phase.ANTIFERROELECTRIC, "0.3", "1"),
    ],
)
def test_zn_ik_n1_is_c(phase, t, gamma):
    with CTX256.guardprec():
        p = sv.PhaseParams(phase, t=mp.mpf(t), gamma=mp.mpf(gamma))
    w = sv.weights_from_params(p, CTX256)
    res = sv.zn_ik(p, 1, CTX256)
    assert rel_to(res.zn, w.c) < TOL30


def test_zn_ik_matches_enumeration_disordered(disordered_pi3):
    # includes the c^(n^2) normalization: Z(a,b,c) = c^(n^2) Z(a/c, b/c, 1)
    w = sv.weights_from_params(disordered_pi3, CTX256)
    wn, scale = sv.normalize(w, CTX256)
    n = 3
    res = sv.zn_ik(disordered_pi3, n, CTX256)
    z_norm, _ = sv.enumerate_dfs(n, wn, ctx=CTX256)
    with CTX256.guardprec():
        assert rel_to(res.zn, z_norm * scale ** (n * n)) < TOL30


def test_zn_ik_matches_enumeration_ferro(ferro_21):
    w = sv.weights_from_params(ferro_21, CTX256)
    res = sv.zn_ik(ferro_21, 4, CTX256)
    z, _ = sv.enumerate_dfs(4, w, ctx=CTX256)
    assert rel_to(res.zn, z) < TOL30


def test_zn_ik_rejects_critical():
    with pytest.raises(ParameterDomainError):
        sv.zn_ik(sv.PhaseParams(sv.Phase.CRITICAL_FD, alpha=3), 2)


@pytest.mark.parametrize(
    "phase,alpha",
    [
        (sv.Phase.CRITICAL_FD, Fraction(3)),
        (sv.Phase.CRITICAL_FD, Fraction(7, 3)),
        (sv.Phase.CRITICAL_AFD, Fraction(1, 3)),
        (sv.Phase.CRITICAL_AFD, Fraction(-1, 2)),
    ],
)
def test_zn_series_on_critical_lines_matches_transfer_matrix(phase, alpha):
    # the weights (|alpha-1|/2, (1+alpha)/2, 1) lie on the critical line
    w = sv.Weights(abs(alpha - 1) / 2, (1 + alpha) / 2, Fraction(1))
    assert sv.classify(w).phase is phase
    series = sv.zn_series(sv.PhaseParams(phase, alpha=alpha), 8, CTX256)
    assert [r.n for r in series] == list(range(1, 9))
    for res in series:
        with mp.workprec(4096):
            exact = sv.to_mpf(sv.transfer_matrix_zn(res.n, w, exact=True))
        assert rel_to(res.zn, exact) < CTX256.verify_tolerance(), res.n


def test_zn_series_matches_zn_ik(af_031):
    series = sv.zn_series(af_031, 6, CTX256)
    assert [r.n for r in series] == [1, 2, 3, 4, 5, 6]
    for r in series:
        single = sv.zn_ik(af_031, r.n, CTX256)
        assert rel_to(r.zn, single.zn) < TOL30
        assert rel_to(r.log_zn, single.log_zn, prec=1024) < TOL30


def test_tau_positive_up_to_30():
    # positive measures give positive determinants; check via the norms route
    points = [
        sv.PhaseParams(sv.Phase.DISORDERED, t=0.3, gamma=1.2),
        sv.PhaseParams(sv.Phase.FERROELECTRIC, t=1.7, gamma=0.6),
        sv.PhaseParams(sv.Phase.ANTIFERROELECTRIC, t=-0.4, gamma=0.9),
    ]
    ctx = sv.PrecisionContext(24 * 30)
    for p in points:
        ms = sv.phi_derivatives(p, 58, ctx)
        norms = sv.norms_from_moments(ms, 30, ctx)
        assert all(h > 0 for h in norms.h)
        assert sv.hankel_det(ms, 30, ctx).tau > 0


def test_precision_failure_raises_and_names_bits():
    ctx = sv.PrecisionContext(64)
    with ctx.guardprec():
        p = sv.PhaseParams(sv.Phase.DISORDERED, t=mp.mpf("0.4"), gamma=mp.mpf("1.2"))
    ms = sv.phi_derivatives(p, 38, ctx)
    with pytest.raises(PrecisionFailureError, match="bits"):
        sv.hankel_det(ms, 20, ctx)


def test_precision_failure_on_norms_path():
    ctx = sv.PrecisionContext(64)
    with ctx.guardprec():
        p = sv.PhaseParams(sv.Phase.DISORDERED, t=mp.mpf("0.4"), gamma=mp.mpf("1.2"))
    ms = sv.phi_derivatives(p, 38, ctx)
    with pytest.raises(PrecisionFailureError, match="bits"):
        sv.norms_from_moments(ms, 20, ctx)
    with pytest.raises(PrecisionFailureError, match="bits"):
        sv.zn_series(p, 20, ctx)


def test_toda_residual_n1_small(disordered_pi3):
    # tau_2 = phi phi'' - phi'^2 exactly, so the n=1 residual is pure stencil error
    with CTX512.guardprec():
        p = sv.PhaseParams(sv.Phase.DISORDERED, t=mp.mpf("0.1"), gamma=mp.mpf("1.0"))
        res = sv.toda_residual(p, 1, mp.mpf("1e-10"), CTX512)
    assert res < mp.mpf("1e-18")


def test_toda_residual_halving_is_second_order():
    with CTX512.guardprec():
        p = sv.PhaseParams(sv.Phase.DISORDERED, t=mp.mpf("0.4"), gamma=mp.mpf("1.2"))
        r1 = sv.toda_residual(p, 3, mp.mpf("1e-6"), CTX512)
        r2 = sv.toda_residual(p, 3, mp.mpf("5e-7"), CTX512)
        ratio = r1 / r2
    assert mp.mpf("3.3") < ratio < mp.mpf("4.7")


def test_toda_rejects_domain_exit():
    with CTX256.guardprec():
        p = sv.PhaseParams(sv.Phase.DISORDERED, t=mp.mpf("0.0"), gamma=mp.mpf("0.5"))
        # t + h leaves |t| < gamma
        with pytest.raises(ParameterDomainError):
            sv.toda_residual(p, 2, mp.mpf("0.6"), CTX256)
    with pytest.raises(ParameterDomainError, match="step h > 0 required"):
        sv.toda_residual(p, 2, "0", CTX256)


@pytest.mark.parametrize(
    "call",
    [
        lambda p: sv.zn_ik(p, 0, CTX256),
        lambda p: sv.zn_series(p, 0, CTX256),
        lambda p: sv.toda_residual(p, 0, "1e-10", CTX256),
    ],
    ids=["zn_ik", "zn_series", "toda_residual"],
)
def test_sizes_below_one_are_refused(disordered_pi3, call):
    with pytest.raises(ParameterDomainError, match=">= 1 required, got 0"):
        call(disordered_pi3)


@pytest.mark.parametrize(
    "values,match",
    [((1, 1, 1), "failed verification"), ((1, 0, -1), "tau_2 <= 0")],
    ids=["singular", "negative"],
)
def test_hankel_det_refuses_moments_of_no_positive_measure(values, match):
    # (1, 1, 1) makes LU meet a zero pivot, and a zero determinant cannot
    # be verified; (1, 0, -1) verifies, but its tau_2 = -1
    m = sv.MomentSequence(
        sv.MomentFamily.DISORDERED_PHI, (0, 1), tuple(map(mp.mpf, values)), CTX256
    )
    with pytest.raises(PrecisionFailureError, match=match):
        sv.hankel_det(m, 2)


def test_toda_works_in_ferro_phase(ferro_21):
    with CTX512.guardprec():
        res = sv.toda_residual(ferro_21, 2, mp.mpf("1e-8"), CTX512)
    assert res < mp.mpf("1e-13")


def lu_toda_residual(p, n, h, ctx):
    """The Toda residual from five pivoted-LU determinants, each on moments
    of its own: tau_n at t and t +- h, tau_{n+1} and tau_{n-1} at t."""

    def tau(q, size):
        if size == 0:
            return mp.mpf(1)
        return sv.hankel_det(sv.phi_derivatives(q, 2 * size - 2, ctx), size, ctx).tau

    with ctx.guardprec():
        t0, tp, tm = tau(p, n), tau(p.shifted_t(h), n), tau(p.shifted_t(-h), n)
        d1 = (tp - tm) / (2 * h)
        d2 = (tp - 2 * t0 + tm) / (h * h)
        rhs = tau(p, n + 1) * tau(p, n - 1)
        return abs(t0 * d2 - d1 * d1 - rhs) / rhs


@pytest.mark.parametrize(
    "phase,t,gamma",
    [
        (sv.Phase.DISORDERED, "0.4", "1.2"),
        (sv.Phase.FERROELECTRIC, "2", "1"),
        (sv.Phase.ANTIFERROELECTRIC, "0.3", "1"),
    ],
)
def test_norms_route_agrees_with_the_lu_reference(phase, t, gamma):
    # toda_residual and zn_ik read prefix products of the Chebyshev norms;
    # pivoted LU determinants are the independent reference for both
    with CTX512.guardprec():
        p = sv.PhaseParams(phase, t=mp.mpf(t), gamma=mp.mpf(gamma))
        h = mp.mpf("1e-10")
    tol = CTX512.verify_tolerance()
    for n in (1, 3, 6):
        got = sv.toda_residual(p, n, h, CTX512)
        assert rel_to(got, lu_toda_residual(p, n, h, CTX512)) < tol, n
    w = sv.weights_from_params(p, CTX512)
    moments = sv.phi_derivatives(p, 22, CTX512)
    superfactorial = 1
    for n in range(1, 13):
        superfactorial *= factorial(n - 1)
        tau = sv.hankel_det(moments, n, CTX512).tau
        with CTX512.guardprec():
            ref = (w.a * w.b) ** (n * n) * tau / superfactorial**2
        assert rel_to(sv.zn_ik(p, n, CTX512).zn, ref) < tol, n


def disordered(t, gamma):
    return sv.PhaseParams(sv.Phase.DISORDERED, t=mp.mpf(t), gamma=mp.mpf(gamma))


def test_default_context_policy():
    # the first rung of the ladder: claim bits/2, W = claim + predicted loss
    # + 32, guard W + 64
    p = disordered("0.3", "1.1")
    first = next(sv.contexts(p, 1))
    assert (first.claim_bits, first.bits, first.guard_bits) == (128, 164, 228)
    assert [next(sv.contexts(p, n, bits)).bits for n, bits in
            [(20, 256), (40, 256), (48, 64), (40, 1024)]] == [230, 300, 232, 684]
    assert next(sv.contexts(p, 48, 64)).claim_bits == 32
    # the ferro loss grows with t - gamma: 3.89 n at (2, 1), 11.96 n at (4, 0.2)
    ferro = sv.PhaseParams(sv.Phase.FERROELECTRIC, t=mp.mpf(2), gamma=mp.mpf(1))
    assert sv.predicted_loss(ferro, 24) == pytest.approx(24 * (2 * mp.log(mp.e, 2) + 1))
    assert next(sv.contexts(ferro, 24)).bits == 254
    assert next(sv.contexts(ferro_steep(CTX256), 24)).bits == 448
    # a point far into the ferro phase gets at most 2 max(bits, 24 n)
    far = sv.PhaseParams(sv.Phase.FERROELECTRIC, t=mp.mpf("1e400"), gamma=mp.mpf(1))
    assert [c.bits for c in sv.contexts(far, 4)] == [512]


LADDER_POINTS = {
    "disordered": disordered("0.3", "1.1"),
    "ferro": sv.PhaseParams(sv.Phase.FERROELECTRIC, t=mp.mpf(2), gamma=mp.mpf(1)),
    # the capped first rung: the predicted loss is an inf float
    "ferro-far": sv.PhaseParams(sv.Phase.FERROELECTRIC, t=mp.mpf("1e400"), gamma=mp.mpf(1)),
    # the first rung fails and the ladder climbs
    "af-deep": sv.PhaseParams(sv.Phase.ANTIFERROELECTRIC, t=mp.mpf(0), gamma=mp.mpf(10)),
}


@pytest.mark.parametrize("name", LADDER_POINTS)
def test_every_rung_runs_below_the_point_bits(name):
    # the CLI parses a point once, at point_bits, for every rung of its ladder
    # and for the claimless context toda runs at
    p = LADDER_POINTS[name]
    for n in (1, 2, 24, 48, 120):
        for bits in (64, 256, 608, 4096):
            ceiling = sv.hankel.point_bits(n, bits)
            assert sv.PrecisionContext(bits).guard_bits < ceiling, (n, bits)
            for ctx in sv.contexts(p, n, bits):
                assert ctx.guard_bits < ceiling, (n, bits, ctx.bits)
    # the ladder serves the request PrecisionContext(bits), which checks bits
    for bits in (63, 256.5):
        with pytest.raises(ParameterDomainError) as refused:
            sv.PrecisionContext(bits)
        with pytest.raises(ParameterDomainError, match=f"^{re.escape(str(refused.value))}$"):
            next(sv.contexts(p, 4, bits))


@pytest.mark.parametrize("name,n", [("disordered", 4), ("ferro", 24)])
def test_first_rung_sums_its_bits_in_ints_at_huge_bits(name, n):
    # a float sum would round the loss and the margin away from 2^53 bits on;
    # a context record allocates nothing, so this runs at any bits
    p = LADDER_POINTS[name]
    loss = ceil(sv.predicted_loss(p, n))
    for e in range(52, 65):
        first = next(sv.contexts(p, n, 2**e))
        assert (first.claim_bits, first.bits) == (2 ** (e - 1), 2 ** (e - 1) + loss + 32), e


def test_ladder_climbs_to_the_first_rung_past_24n_then_raises():
    seen = []

    def run(ctx):
        seen.append(ctx.bits)
        raise PrecisionFailureError(f"failed at {ctx.bits} bits")

    p = disordered("0.3", "1.1")
    with pytest.raises(PrecisionFailureError, match="1200"):
        sv.on_ladder(p, 40, 256, run)
    assert seen == [c.bits for c in sv.contexts(p, 40)] == [300, 600, 1200]
    assert seen[-2] < 24 * 40 <= seen[-1]
    assert [c.bits for c in sv.contexts(p, 40, 1024)] == [684, 1368]
    ladder = list(sv.contexts(p, 48, 64))
    assert [c.bits for c in ladder] == [232, 464, 928, 1856]
    # every rung keeps the claim of --bits and runs its guard 64 bits above
    assert all((c.claim_bits, c.guard_bits) == (32, c.bits + 64) for c in ladder)


def test_ladder_returns_the_first_rung_that_passes():
    def run(ctx):
        if ctx.bits < 500:
            raise PrecisionFailureError("too few bits")
        return ctx.bits

    assert sv.on_ladder(disordered("0.3", "1.1"), 40, 256, run) == 600


def ferro_steep(ctx):
    """Ferro t = 4, gamma = 0.2, whose norms lose about 11 n bits."""
    with ctx.guardprec():
        return sv.PhaseParams(sv.Phase.FERROELECTRIC, t=mp.mpf(4), gamma=mp.mpf("0.2"))


# e^gamma = 22026, so gamma = 10.0 and t = 0: the norms lose about 11.4 n bits,
# more than the 3.5 n the first rung is sized for
AF_DEEP = _hyperbolic_point(sv.Phase.ANTIFERROELECTRIC, Fraction(22026), Fraction(1))


def test_explicit_first_rung_raises_where_the_ladder_climbs(rungs):
    # bits 608 claim 2^-304
    p = AF_DEEP.params(4096)
    first = next(sv.contexts(p, 24, 608))
    with pytest.raises(PrecisionFailureError):
        sv.zn_series(p, 24, first)
    assert rungs == []  # an explicit context never draws a rung
    series = sv.on_ladder(p, 24, 608, lambda ctx: sv.zn_series(p, 24, ctx))
    assert rungs == [first.bits, 2 * first.bits]
    assert series[-1].bits == 2 * first.bits
    ref_ctx = sv.PrecisionContext(1024)
    ref = sv.zn_series(p, 24, ref_ctx)
    tol = mp.mpf(2) ** -304
    for r, want in zip(series, ref):
        assert rel_to(r.zn, want.zn) < tol, r.n


def test_deep_af_point_climbs_and_meets_its_claim_against_the_exact_route(rungs):
    exact = exact_hankel_series(AF_DEEP, 24)
    series = sv.zn_series(AF_DEEP.params(8192), 24)
    assert len(rungs) == 2
    assert series[-1].bits == rungs[-1]
    for r, zn in zip(series, exact):
        assert r.ctx.claim_bits <= r.agreement_bits <= r.bits
        with mp.workprec(8192):
            ref = sv.to_mpf(zn)
        assert rel_to(r.zn, ref, 8192) < 2.0 ** -128, r.n


@pytest.mark.parametrize(
    "call",
    [
        lambda p, ctx: sv.zn_ik(p, 24, ctx),
        lambda p, ctx: sv.meixner_ratios(23, p.t, p.gamma, ctx),
    ],
    ids=["zn_ik", "meixner_ratios"],
)
def test_context_free_calls_climb_the_ladder(rungs, monkeypatch, call):
    # ferro t = 2, gamma = 1 loses about 3.9 n bits; with no loss predicted
    # the first rung (claim + 32 bits) fails and the ladder climbs
    monkeypatch.setattr(sv.hankel, "predicted_loss", lambda p, n: 0)
    p = sv.PhaseParams(sv.Phase.FERROELECTRIC, t=mp.mpf(2), gamma=mp.mpf(1))
    first = next(sv.contexts(p, 24))
    assert first.bits == 160
    with pytest.raises(PrecisionFailureError):
        call(p, first)
    call(p, None)
    assert rungs == [first.bits, 2 * first.bits]


def assert_meets_the_claim(r, error):
    """error, that of the ladder result r, is below the rung's own claim and
    below 2^-(bits/2) at the rung's bits, whichever is the tighter."""
    assert error < r.ctx.verify_tolerance(), r.n
    assert error < sv.PrecisionContext(r.bits).verify_tolerance(), r.n


def test_ladder_series_meets_its_claim_against_closed_forms():
    with mp.workprec(4096):
        ice = sv.PhaseParams(sv.Phase.DISORDERED, t=mp.mpf(0), gamma=mp.pi / 3)
        free_fermion = sv.PhaseParams(sv.Phase.DISORDERED, t=mp.mpf("0.3"), gamma=mp.pi / 4)
    # a = b = c = sqrt(3)/2 at the ice point, so Z_n = A_n (3/4)^(n^2/2)
    for r in sv.zn_series(ice, 48):
        with mp.workprec(4096):
            ref = asm_count(r.n) * (mp.mpf(3) / 4) ** (mp.mpf(r.n * r.n) / 2)
        assert_meets_the_claim(r, rel_to(r.zn, ref))
    # a^2 + b^2 = c^2 = 1 at gamma = pi/4, so Z_n = 1
    for r in sv.zn_series(free_fermion, 40):
        assert_meets_the_claim(r, rel_to(r.zn, 1))


@pytest.mark.parametrize(
    "phase,alpha",
    [(sv.Phase.CRITICAL_FD, Fraction(5, 2)), (sv.Phase.CRITICAL_AFD, Fraction(-1, 2)),
     (sv.Phase.CRITICAL_FD, Fraction(10**90))],
)
def test_ladder_series_meets_its_claim_against_the_lattice(phase, alpha):
    w = sv.Weights(abs(alpha - 1) / 2, (1 + alpha) / 2, Fraction(1))
    series = sv.zn_series(sv.PhaseParams(phase, alpha=alpha), 40)
    for r in series[:12]:
        with mp.workprec(4096):
            exact = sv.to_mpf(sv.transfer_matrix_zn(r.n, w, exact=True))
        assert_meets_the_claim(r, rel_to(r.zn, exact))


@pytest.mark.parametrize("distance", ["1e-20", "1e-33", "1e-45", "1e-60"])
@pytest.mark.parametrize("phase", [sv.Phase.FERROELECTRIC, sv.Phase.DISORDERED],
                         ids=lambda phase: phase.value)
def test_ladder_series_meets_its_claim_where_c_is_tiny(phase, distance):
    # ferro gamma -> 0 and disordered gamma -> pi/2 put c = f(2 gamma) far
    # below a and b, where phi = s (x(gamma - t) + x(gamma + t)) cancels; the
    # reference is the transfer matrix on weights formed here from the point
    with mp.workprec(8000):
        if phase is sv.Phase.FERROELECTRIC:
            t, gamma, f, s = mp.mpf(2), mp.mpf(distance), mp.sinh, -1
        else:
            t, gamma, f, s = mp.mpf("0.3"), mp.pi / 2 - mp.mpf(distance), mp.sin, 1
        p = sv.PhaseParams(phase, t=t, gamma=gamma)
    with mp.workprec(8192):
        w = sv.Weights(s * f(gamma - t), f(gamma + t), f(2 * gamma))
    for r in sv.zn_series(p, 4):
        ref = sv.transfer_matrix_zn(r.n, w, ctx=sv.PrecisionContext(4096))
        assert_meets_the_claim(r, rel_to(r.zn, ref))


@pytest.mark.parametrize("sign,digits", [(-1, 45), (1, 40)], ids=["minus", "plus"])
def test_ladder_series_meets_its_claim_at_the_disordered_double_edge(sign, digits):
    # gamma -> pi/2 and |t| -> gamma at once put gamma + |t| next to pi: c and
    # one of a, b are tiny, and sin and cot of a rounded gamma + |t| would
    # lose the bits of pi - gamma - |t| in both base and guard runs
    with mp.workprec(8000):
        gamma = mp.pi / 2 - mp.mpf(10) ** -digits
        t = sign * (gamma - mp.mpf(10) ** -digits * gamma)
        p = sv.PhaseParams(sv.Phase.DISORDERED, t=t, gamma=gamma)
    with mp.workprec(8192):
        w = sv.Weights(mp.sin(gamma - t), mp.sin(gamma + t), mp.sin(2 * gamma))
    for r in sv.zn_series(p, 5):
        ref = sv.transfer_matrix_zn(r.n, w, ctx=sv.PrecisionContext(4096))
        assert_meets_the_claim(r, rel_to(r.zn, ref))


EDGE_SWEEP = load_file(ROOT / "scripts" / "edge_sweep.py", "edge_sweep")

# points that lost bits next to an edge, at the sweep's point bits: c tiny
# (ferro gamma -> 0, disordered gamma -> pi/2, critical-fd alpha -> inf), a
# law next to a zero (|t| -> gamma), the double edge, the AF t the domain
# rule once rounded onto gamma, and the free-fermion point, whose law is 0
with mp.workprec(EDGE_SWEEP.POINT_BITS):
    _D45, _D40, _HALF_PI = mp.mpf(10) ** -45, mp.mpf(10) ** -40, mp.pi / 2
    EDGE_WITNESSES = [
        sv.PhaseParams(sv.Phase.FERROELECTRIC, t=mp.mpf(2), gamma=_D45),
        sv.PhaseParams(sv.Phase.DISORDERED, t=mp.mpf("0.3"), gamma=_HALF_PI - _D45),
        sv.PhaseParams(sv.Phase.CRITICAL_FD, alpha=mp.mpf(10) ** 90),
        sv.PhaseParams(sv.Phase.ANTIFERROELECTRIC, t=mp.mpf(1), gamma=1 + _D45),
        sv.PhaseParams(sv.Phase.ANTIFERROELECTRIC, t=mp.mpf(-1), gamma=1 + _D45),
        sv.PhaseParams(sv.Phase.ANTIFERROELECTRIC, t=1 - mp.mpf(10) ** -80, gamma=mp.mpf(1)),
        sv.PhaseParams(sv.Phase.DISORDERED, t=1 - _D45, gamma=mp.mpf(1)),
        sv.PhaseParams(sv.Phase.DISORDERED, t=_D45 - 1, gamma=mp.mpf(1)),
        sv.PhaseParams(sv.Phase.DISORDERED, t=-(_HALF_PI - _D45) * (1 - _D45),
                       gamma=_HALF_PI - _D45),
        sv.PhaseParams(sv.Phase.DISORDERED, t=(_HALF_PI - _D40) * (1 - _D40),
                       gamma=_HALF_PI - _D40),
        sv.PhaseParams(sv.Phase.DISORDERED, t=mp.mpf("0.1104"), gamma=mp.pi / 4),
    ]


def with_edge_witnesses(test):
    """test with every edge witness as an explicit example."""
    for point in EDGE_WITNESSES:
        test = example(point=point)(test)
    return test


@given(point=st.randoms(use_true_random=False).map(EDGE_SWEEP.draw))
@with_edge_witnesses
def test_points_next_to_the_domain_edges_meet_their_claims(point):
    # scripts/edge_sweep.py at n <= 6: each Z_n against the transfer matrix
    # and each log_prediction against the law at four times its bits
    assert EDGE_SWEEP.failures(point) == [], EDGE_SWEEP.describe(point)


def exact_zn(base, norms):
    """Z_1..Z_nmax from the norms h_0..h_{nmax-1} by Izergin-Korepin,
    Z_n = base^(n^2) prod_{k<n} h_k / (prod_{k<n} k!)^2: exact for Fractions,
    at the ambient precision for mpf."""
    out, tau, superfactorial = [], 1, 1
    for n, h in enumerate(norms, start=1):
        tau *= h
        superfactorial *= factorial(n - 1)
        out.append(base ** (n * n) * tau / superfactorial**2)
    return out


def exact_hankel_series(point, nmax):
    """Exact Z_1..Z_nmax at a rational bulk point: the fraction-free
    Chebyshev norms of the oracle's phi-derivatives, and base = ab."""
    moments = exact_phi_derivatives(
        point.s, point.sigma, point.x_plus, point.x_minus, 2 * nmax - 2
    )
    return exact_zn(point.weights.a * point.weights.b, fraction_free_norms(moments))


BULK_POINTS = ["disordered", "ferro", "af"]


@pytest.mark.parametrize("name", BULK_POINTS)
def test_exact_hankel_route_equals_the_lattice(name):
    point = RATIONAL_POINTS[name]
    for n, zn in enumerate(exact_hankel_series(point, 12), start=1):
        assert zn == sv.transfer_matrix_zn(n, point.weights, exact=True), n


@pytest.mark.parametrize("name", BULK_POINTS)
def test_ladder_series_meets_its_claim_against_the_exact_hankel_route(name):
    point = RATIONAL_POINTS[name]
    exact = exact_series(name, 40)
    series = sv.zn_series(point.params(8192), 40)
    for r, zn in zip(series, exact):
        with mp.workprec(8192):
            ref = sv.to_mpf(zn)
        assert_meets_the_claim(r, rel_to(r.zn, ref, 8192))


def exact_moments(name, kmax):
    """(base, exact mu_0..mu_kmax) at a RATIONAL_POINTS point (base ab, the
    oracle's phi-derivatives) or on a critical line at the alpha of
    CRITICAL_POINTS (base (1 + alpha)/2)."""
    if name in RATIONAL_POINTS:
        point = RATIONAL_POINTS[name]
        return point.weights.a * point.weights.b, exact_phi_derivatives(
            point.s, point.sigma, point.x_plus, point.x_minus, kmax
        )
    phase, alpha = CRITICAL_POINTS[name]
    moments_of = crit_fd_exact_moments if phase is sv.Phase.CRITICAL_FD else crit_afd_exact_moments
    return (1 + alpha) / 2, moments_of(alpha, kmax)


@lru_cache(maxsize=None)
def exact_series(name, nmax):
    """Exact Z_1..Z_nmax of a RATIONAL_POINTS or CRITICAL_POINTS name from
    the fraction-free Chebyshev norms of its exact moments."""
    base, moments = exact_moments(name, 2 * nmax - 2)
    return exact_zn(base, fraction_free_norms(moments))


def ladder_params(name):
    """PhaseParams of a RATIONAL_POINTS or CRITICAL_POINTS name."""
    if name in RATIONAL_POINTS:
        return RATIONAL_POINTS[name].params(8192)
    phase, alpha = CRITICAL_POINTS[name]
    return sv.PhaseParams(phase, alpha=alpha)


CRITICAL_POINTS = {
    "critical-fd": (sv.Phase.CRITICAL_FD, Fraction(5, 2)),
    "critical-afd": (sv.Phase.CRITICAL_AFD, Fraction(-1, 2)),
}


@pytest.mark.parametrize("name", list(RATIONAL_POINTS) + list(CRITICAL_POINTS))
def test_fraction_free_norms_equal_exact_chebyshev(name):
    _, moments = exact_moments(name, 39)
    for n in range(1, 21):
        for m in (2 * n - 1, 2 * n):  # the norms of mu_0..mu_{2n-2}, with and without mu_{2n-1}
            assert fraction_free_norms(moments[:m]) == chebyshev_norms(moments[:m]), (n, m)


@pytest.mark.parametrize("bits", [64, 256, 1024])
@pytest.mark.parametrize("name", BULK_POINTS + list(CRITICAL_POINTS))
def test_ladder_series_meets_the_claim_of_its_bits(name, bits):
    # a series on the ladder of --bits is within 2^-(bits/2) of the exact one
    p = ladder_params(name)
    series = sv.on_ladder(p, 40, bits, lambda ctx: sv.zn_series(p, 40, ctx))
    for r, zn in zip(series, exact_series(name, 40)):
        assert r.ctx.claim_bits == bits // 2
        assert r.ctx.claim_bits <= r.agreement_bits <= r.bits
        with mp.workprec(8192):
            ref = sv.to_mpf(zn)
        assert rel_to(r.zn, ref, 8192) < mp.mpf(2) ** -(bits // 2), r.n


@pytest.mark.parametrize("name", BULK_POINTS + list(CRITICAL_POINTS))
def test_ladder_series_meets_its_claim_at_n60_against_the_exact_hankel_route(name):
    # past the lattice's reach; each exact series takes 1-4 s
    series = sv.zn_series(ladder_params(name), 60)
    for r, zn in zip(series, exact_series(name, 60), strict=True):
        assert r.ctx.claim_bits <= r.agreement_bits <= r.bits
        with mp.workprec(8192):
            ref = sv.to_mpf(zn)
        assert rel_to(r.zn, ref, 8192) < r.ctx.verify_tolerance(), r.n


# Ladder series at generic decimal points against references that share no
# code with specfun or _linalg.  The point is parsed as the CLI parses it.
# The bulk moments come from node sums or the Hurwitz zeta function, and their
# norms from elimination at 3 times the rung's guard bits; on the critical
# lines the exact moments of the decimal's own rational give an exact Z_n.
# Each Z_n must meet its claim and also lie within 2^-agreement_bits.


def decimal_point(phase, n, **decimals):
    """The point of the decimal literals, parsed at point_bits for size n."""
    with mp.workprec(sv.hankel.point_bits(n, 256)):
        return sv.PhaseParams(phase, **{k: mp.mpf(v) for k, v in decimals.items()})


def assert_meets_the_claim_and_its_agreement(series, refs, prec):
    for r, ref in zip(series, refs, strict=True):
        error = rel_to(r.zn, ref, prec)
        assert_meets_the_claim(r, error)
        assert error < mp.mpf(2) ** -r.agreement_bits, r.n


# phase: (t, gamma, n, moments(kmax, t, gamma, bits), the Z_n base of those moments).
# The node sums are 2^-(k+1) |phi^(k)|, so their tau_n is 2^-(n^2) that of phi
# and the base doubles.  Their terms fall as e^(-2.4 l) (ferro) and
# e^(-1.8 l) (AF), so l up to 600 and 800 leaves a tail below 2^-1300 of
# every mu_k with k <= 78.
INDEPENDENT_MOMENTS = {
    sv.Phase.DISORDERED: ("0.2", "0.9", 32, hurwitz_phi_derivatives,
                          lambda t, g: mp.sin(g - t) * mp.sin(g + t)),
    sv.Phase.FERROELECTRIC: ("2.1", "0.9", 40, partial(series_ferro_moments, lmax=600),
                             lambda t, g: 2 * mp.sinh(t - g) * mp.sinh(t + g)),
    sv.Phase.ANTIFERROELECTRIC: ("0.3", "1.2", 40, partial(series_af_moments, lmax=800),
                                 lambda t, g: 2 * mp.sinh(g - t) * mp.sinh(g + t)),
}


@pytest.mark.parametrize("phase", INDEPENDENT_MOMENTS, ids=lambda phase: phase.value)
def test_bulk_series_at_a_decimal_point_against_independent_moments(phase):
    t, gamma, n, moments, base = INDEPENDENT_MOMENTS[phase]
    p = decimal_point(phase, n, t=t, gamma=gamma)
    series = sv.zn_series(p, n)
    bits = 3 * series[0].ctx.guard_bits
    mus = moments(2 * n - 2, p.t, p.gamma, bits)
    with mp.workprec(bits):
        refs = exact_zn(base(p.t, p.gamma), elimination_pivots(mus, n))
    assert_meets_the_claim_and_its_agreement(series, refs, 2 * bits)


@pytest.mark.parametrize("phase,alpha", [(sv.Phase.CRITICAL_FD, "3.17"),
                                         (sv.Phase.CRITICAL_AFD, "-0.37")])
def test_critical_series_at_a_decimal_alpha_against_exact_moments(phase, alpha):
    n, exact_alpha = 40, Fraction(alpha)
    series = sv.zn_series(decimal_point(phase, n, alpha=alpha), n)
    moments_of = crit_fd_exact_moments if phase is sv.Phase.CRITICAL_FD else crit_afd_exact_moments
    exact = exact_zn((1 + exact_alpha) / 2, fraction_free_norms(moments_of(exact_alpha, 2 * n - 2)))
    with mp.workprec(8192):
        refs = [sv.to_mpf(zn) for zn in exact]
    assert_meets_the_claim_and_its_agreement(series, refs, 8192)


@pytest.mark.parametrize(
    "name,nmax", [(name, 60) for name in BULK_POINTS + list(CRITICAL_POINTS)] + [("ferro", 120)]
)
def test_zn_series_divides_by_the_superfactorial_square_bit_for_bit(name, nmax):
    # each Z_n is base^(n^2) tau_n / (prod_{k<n} k!)^2 with the square an
    # int, formed from the same taus, to the last bit
    p = ladder_params(name)
    series = sv.zn_series(p, nmax)
    ctx = series[-1].ctx
    critical = _PHASE_RULES[p.phase].chart is None
    if critical:
        moments_of = sv.crit_fd_moments if p.phase is sv.Phase.CRITICAL_FD else sv.crit_afd_moments
        moments = moments_of(2 * nmax - 2, p.alpha, ctx)
    else:
        moments = sv.phi_derivatives(p, 2 * nmax - 2, ctx)
        w = sv.weights_from_params(p, ctx)
    superfactorial = 1
    with ctx.guardprec():
        base = sv.to_mpf((1 + exact_or_mpf(p.alpha)) / 2) if critical else w.a * w.b
        taus = accumulate(sv.norms_from_moments(moments, nmax, ctx).h, mul)
        for r, tau in zip(series, taus, strict=True):
            superfactorial *= factorial(r.n - 1)
            assert r.zn._mpf_ == (base ** (r.n * r.n) * tau / superfactorial**2)._mpf_, r.n


def test_superfactorial_squares_are_the_odd_part_and_the_power_of_two():
    square = 1
    for n, (odd, twos) in zip(range(1, 301), sv.hankel._superfactorial_squares()):
        square *= factorial(n - 1) ** 2
        assert odd % 2 == 1 and odd << twos == square, n


def test_zn_series_meets_its_claim_next_to_alpha_minus_one():
    # alpha = -1 + 10^-90: rounded before 1 + alpha was formed, it made the
    # first rung's guard run divide by zero
    alpha = Fraction(-1) + Fraction(1, 10**90)
    series = sv.zn_series(sv.PhaseParams(sv.Phase.CRITICAL_AFD, alpha=alpha), 8)
    exact = exact_zn((1 + alpha) / 2, chebyshev_norms(crit_afd_exact_moments(alpha, 14)))
    for r, zn in zip(series, exact, strict=True):
        with mp.workprec(8192):
            ref = sv.to_mpf(zn)
        assert rel_to(r.zn, ref, 8192) < r.ctx.verify_tolerance(), r.n


AGREEMENT_GRID = [
    (sv.Phase.DISORDERED, {"t": "0", "gamma": "1.0471975511965977"}),
    (sv.Phase.DISORDERED, {"t": "0.3", "gamma": "0.7853981633974483"}),
    (sv.Phase.DISORDERED, {"t": "-0.4", "gamma": "1.2"}),
    (sv.Phase.FERROELECTRIC, {"t": "2", "gamma": "1"}),
    (sv.Phase.FERROELECTRIC, {"t": "2.4", "gamma": "0.6"}),
    (sv.Phase.ANTIFERROELECTRIC, {"t": "0.3", "gamma": "1"}),
    (sv.Phase.ANTIFERROELECTRIC, {"t": "-0.5", "gamma": "1.5"}),
    (sv.Phase.CRITICAL_FD, {"alpha": "2.5"}),
    (sv.Phase.CRITICAL_FD, {"alpha": "3.5"}),
    (sv.Phase.CRITICAL_AFD, {"alpha": "-0.5"}),
    (sv.Phase.CRITICAL_AFD, {"alpha": "0.5"}),
]


def first_rung_at(phase, point, n=24):
    """The first rung of the ladder at a grid point, and the point parsed at
    that rung's guard precision."""
    ctx = next(sv.contexts(sv.PhaseParams(phase, **{k: mp.mpf(v) for k, v in point.items()}), n))
    with ctx.guardprec():
        return sv.PhaseParams(phase, **{k: mp.mpf(v) for k, v in point.items()}), ctx


@pytest.mark.parametrize("phase,point", AGREEMENT_GRID)
def test_agreement_bits_clear_the_claim(phase, point):
    # a result claims 2^-(bits/2); the base and guard runs agree to more
    p, ctx = first_rung_at(phase, point)
    series = sv.zn_series(p, 24, ctx)
    agree = [r.agreement_bits for r in series]
    assert all(ctx.claim_bits <= a <= ctx.bits for a in agree)
    assert agree == sorted(agree, reverse=True)  # Z_n's agreement covers h_0..h_{n-1}
    assert series[-1].phase is phase
    run = series[-1].ctx
    assert run == ctx
    assert (run.claim_bits, run.bits, run.guard_bits) == (128, ctx.bits, ctx.bits + 64)


@pytest.mark.parametrize("phase,point", AGREEMENT_GRID)
def test_zn_series_log_zn_is_the_log_of_zn(phase, point):
    p, ctx = first_rung_at(phase, point)
    for r in sv.zn_series(p, 24, ctx):
        with ctx.guardprec():
            assert abs(r.log_zn - mp.log(r.zn)) <= mp.mpf(2) ** -ctx.bits, r.n


def dyadic(x):
    """The mpf x as an exact Fraction."""
    sign, man, exp, _ = x._mpf_
    value = Fraction(man) * Fraction(2) ** exp
    return -value if sign else value


# the disordered points at t = 0 and t != 0, then one point of each other family
KERNEL_GRID = [AGREEMENT_GRID[i] for i in (0, 1, 3, 5, 7, 9)]


@pytest.mark.parametrize("n", [8, 24])
@pytest.mark.parametrize("phase,point", KERNEL_GRID)
def test_chebyshev_kernel_meets_the_claim_against_exact_chebyshev(phase, point, n):
    # the integer-mantissa kernel against exact Chebyshev on the same moments,
    # rounded to the rung's bits and to its guard bits
    p, ctx = first_rung_at(phase, point, n)
    values = specfun._WEIGHT_MOMENTS[phase](p, 2 * n - 2, ctx).values
    for bits in (ctx.bits, ctx.guard_bits):
        with mp.workprec(bits):
            mus = [+mu for mu in values]
            norms = _linalg._forward_pivots(mus)
        exact = chebyshev_norms([dyadic(mu) for mu in mus])
        assert len(norms) == len(exact) == n
        for k, (h, e) in enumerate(zip(norms, exact)):
            assert e > 0 and abs(dyadic(h) - e) <= e / 2**ctx.claim_bits, (bits, k)


def test_chebyshev_kernel_raises_on_a_negative_norm():
    # mu = 1, 1, 1/2 gives h_1 = mu_2 - mu_1^2 / mu_0 = -1/2
    with mp.workprec(64):
        with pytest.raises(PrecisionFailureError, match="h_1 at 64 bits"):
            _linalg._forward_pivots([mp.mpf(1), mp.mpf(1), mp.mpf(0.5)])


@pytest.mark.parametrize("bad", [mp.nan, mp.inf])
def test_chebyshev_kernel_rejects_a_non_finite_moment(bad):
    # inf and nan carry a zero mantissa, which the kernel must not read as 0
    with mp.workprec(64):
        with pytest.raises(ValueError, match="non-finite"):
            _linalg._forward_pivots([mp.mpf(1), mp.mpf(0), bad])


def test_chebyshev_kernel_skips_only_exact_zero_odd_moments(disordered_pi3):
    # zero odd moments (a symmetric measure) let the kernel skip the mixed
    # moments of odd k + l; one odd moment of 2^-300 must not take that skip.
    # It moves the norms by about 2^-600, so the claim is set past 600 bits
    n = 12
    ctx = sv.PrecisionContext(1024, claim=700)
    values = list(sv.phi_derivatives(disordered_pi3, 2 * n - 2, ctx).values)
    assert all(mu == 0 for mu in values[1::2])
    values[3] = mp.ldexp(1, -300)
    for bits in (ctx.bits, ctx.guard_bits):
        with mp.workprec(bits):
            mus = [+mu for mu in values]
            norms = _linalg._forward_pivots(mus)
        exact_mus = [dyadic(mu) for mu in mus]
        exact = chebyshev_norms(exact_mus)
        for k, (h, e) in enumerate(zip(norms, exact)):
            assert e > 0 and abs(dyadic(h) - e) <= e / 2**ctx.claim_bits, (bits, k)
    # the claim sees the odd moment: without it the norms move past the claim
    symmetric = chebyshev_norms(exact_mus[:3] + [Fraction(0)] + exact_mus[4:])
    assert any(abs(s - e) > e / 2**ctx.claim_bits for s, e in zip(symmetric, exact))


LADDER_CONTEXTS = st.integers(64, 2048).flatmap(
    lambda bits: st.builds(
        lambda claim: sv.PrecisionContext(bits, claim=claim), st.integers(1, bits - 1)
    )
)
CLAIMLESS_CONTEXTS = st.builds(sv.PrecisionContext, st.integers(64, 1024))


def check_or_raise(base, guard, ctx):
    """_check_agreement's bits, or None when it raises PrecisionFailureError."""
    try:
        return _linalg._check_agreement(base, guard, ctx, "value")
    except PrecisionFailureError as exc:
        assert "value failed verification" in str(exc)
        return None


def expected_agreement(base, guard, ctx):
    """The exact oracle's bits, or None where they fall short of the claim."""
    bits = agreement_bits(base, guard, ctx)
    return None if bits is None or bits < ctx.claim_bits else bits


@settings(max_examples=300)
@given(ctx=LADDER_CONTEXTS | CLAIMLESS_CONTEXTS, data=st.data())
def test_agreement_check_is_the_exact_floor_of_the_relative_difference(ctx, data):
    # base = guard (1 + 2^-j (1 + eps 2^-20)) at ctx.bits, with the difference
    # at every scale from past the bits down to a sign flip; j near the claim
    # is drawn often
    man = data.draw(st.integers(1, 2**ctx.guard_bits - 1))
    exp = data.draw(st.integers(-400, 400))
    sign, rel_sign = data.draw(st.sampled_from([1, -1])), data.draw(st.sampled_from([1, -1]))
    claim = ctx.claim_bits
    j = data.draw(st.integers(-2, ctx.bits + 4) | st.integers(claim - 3, claim + 3))
    eps = data.draw(st.integers(-(2**20), 2**20))
    with mp.workprec(ctx.guard_bits):
        guard = sign * mp.ldexp(man, exp)
    with mp.workprec(ctx.bits):
        base = guard * (1 + rel_sign * mp.ldexp(2**20 + eps, -j - 20))
    assert check_or_raise(base, guard, ctx) == expected_agreement(base, guard, ctx)


@pytest.mark.parametrize("ctx", [sv.PrecisionContext(328, claim=128), sv.PrecisionContext(256)])
def test_agreement_check_at_a_power_of_two_relative_difference(ctx):
    # guard M = 3 2^(G-2) fills the G guard bits with ulp 1, and base =
    # M (1 + 2^-j) has j + 2 bits; guard M + 1 or M - 1 moves the relative
    # difference one guard ulp below or above 2^-j
    big = 3 << (ctx.guard_bits - 2)
    claim = ctx.claim_bits
    cases = {  # j: bits at guard M - 1, M, M + 1
        claim: (None, claim, claim),
        claim + 1: (claim, claim + 1, claim + 1),
        ctx.bits - 2: (ctx.bits - 3, ctx.bits - 2, ctx.bits - 2),
        ctx.bits + 10: (ctx.bits, ctx.bits, ctx.bits),  # capped at the bits
    }
    for j, expected in cases.items():
        with mp.workprec(ctx.guard_bits):
            base = mp.mpf(big + (big >> j))
            guards = [mp.mpf(big + offset) for offset in (-1, 0, 1)]
        got = [check_or_raise(base, guard, ctx) for guard in guards]
        assert got == [expected_agreement(base, guard, ctx) for guard in guards], j
        assert got == list(expected), j
    with mp.workprec(ctx.guard_bits):
        guard = mp.mpf(big)
    assert check_or_raise(guard, guard, ctx) == ctx.bits  # d = 0


def test_agreement_check_raises_on_a_sign_flip_a_zero_or_a_binade_gap():
    ctx = sv.PrecisionContext(328, claim=128)
    with mp.workprec(ctx.guard_bits):
        guard = mp.mpf(2) / 3
    zero = mp.mpf(0)
    pairs = [
        (-guard, guard),  # sign flip
        (zero, zero),  # a zero on either side
        (guard, zero),
        (zero, guard),
        (guard * 4, guard),  # leading bits two binades apart
        (guard / 4, guard),
        (mp.ldexp(guard, 1 << 24), guard),  # raised without aligning the two
        (mp.ldexp(guard, -(1 << 24)), guard),
    ]
    for base, g in pairs:
        assert check_or_raise(base, g, ctx) is None, (base, g)
        assert expected_agreement(base, g, ctx) is None, (base, g)


@pytest.mark.parametrize("bad", [mp.nan, mp.inf, -mp.inf])
def test_agreement_check_rejects_a_non_finite_value(bad):
    for base, guard in ((bad, mp.mpf(1)), (mp.mpf(1), bad)):
        with pytest.raises(ValueError, match=re.escape(f"non-finite value {bad}")):
            _linalg._check_agreement(base, guard, CTX256, "value")


@pytest.mark.parametrize("bad", [mp.inf, mp.nan, float("inf")])
def test_lu_route_rejects_a_non_finite_moment(bad):
    # the LU determinant of [[1, bad], [bad, 3]] is -inf or nan
    with pytest.raises(ValueError, match="non-finite value"):
        _linalg.hankel_determinant([1, bad, 3], 2, CTX256)


def _nearest(x: Fraction, prec: int) -> Fraction:
    """x rounded to nearest with prec bits, ties toward +inf."""
    num, den = abs(x.numerator), x.denominator
    top = num.bit_length() - den.bit_length()  # floor(log2 |x|) or one above
    if num < den * Fraction(2) ** top:
        top -= 1
    ulp = Fraction(2) ** (top - prec + 1)
    return floor(x / ulp + Fraction(1, 2)) * ulp


def _assert_rounded(pair, x: Fraction, prec: int):
    man, exp = pair
    if x == 0:
        assert pair == (0, _linalg._ZERO_EXP)
        return
    assert man * Fraction(2) ** exp == _nearest(x, prec)
    assert abs(man).bit_length() <= prec + 1  # 2^prec after a carry


@given(
    man=st.integers(-(1 << 4100), 1 << 4100) | st.integers(-(1 << 70), 1 << 70),
    exp=st.integers(-5000, 5000),
    den=st.integers(1, 200),
    prec=st.integers(53, 2000),
)
@example(man=0, exp=7, den=3, prec=53)
@example(man=(1 << 60) - 1, exp=0, den=1, prec=53)  # rounds up to 2^60
@example(man=-((1 << 54) + 1), exp=-4, den=1, prec=54)  # a tie, rounds toward +inf
@example(man=5 << 200, exp=0, den=5, prec=53)  # an exact quotient
def test_round_and_div_give_the_nearest_value(man, exp, den, prec):
    _assert_rounded(_linalg._round(man, exp, prec), Fraction(man) * Fraction(2) ** exp, prec)
    _assert_rounded(
        _linalg._div(man, exp, den, prec), Fraction(man, den) * Fraction(2) ** exp, prec
    )


def test_moments_run_only_at_their_own_context():
    # moments built at 256 bits carry 512 guard bits: a 1024-bit run on them
    # would claim 2^-512 and be wrong past 2^-326 (ferro t = 2, gamma = 0.6),
    # so only their own context runs on them and zn_ik rebuilds for any other
    low, high = sv.PrecisionContext(256), sv.PrecisionContext(1024)
    with high.guardprec():
        p = sv.PhaseParams(sv.Phase.FERROELECTRIC, t=mp.mpf(2), gamma=mp.mpf("0.6"))
    m = sv.phi_derivatives(p, 78, low)
    ref = sv.zn_series(p, 40, sv.PrecisionContext(2048))[-1].zn
    res = sv.zn_ik(p, 40, high, moments=m)
    assert res.bits == 1024 and rel_to(res.zn, ref) < high.verify_tolerance()
    for other in (high, sv.PrecisionContext(160), sv.PrecisionContext(256, claim=128)):
        both = f"{re.escape(repr(low))}.*{re.escape(repr(other))}"
        for route in (sv.norms_from_moments, sv.hankel_det):
            with pytest.raises(ParameterDomainError, match=both):
                route(m, 40, other)
    # at the moments' own context, given or by default, both run as the
    # verified routines on the moment values
    for ctx in (None, low):
        norms = sv.norms_from_moments(m, 8, ctx)
        assert norms.ctx == low
        assert norms.h == tuple(_linalg.hankel_pivots(m.values, 8, low)[0])
        tau = _linalg.hankel_determinant(m.values, 8, low)[0]
        assert sv.hankel_det(m, 8, ctx).tau == tau


def test_zn_ik_builds_moments_unless_they_are_at_its_context(monkeypatch):
    p = sv.PhaseParams(sv.Phase.DISORDERED, t=0.3, gamma=1.1)
    want = sv.zn_ik(p, 12, CTX256).zn
    build, builds = sv.hankel.phi_derivatives, []
    monkeypatch.setattr(
        sv.hankel, "phi_derivatives", lambda *a: builds.append(a) or build(*a)
    )
    for built_at, rebuilds in (
        (CTX256, 0),
        (sv.PrecisionContext(1024), 1),
        (sv.PrecisionContext(160), 1),
        (sv.PrecisionContext(256, claim=128), 1),
    ):
        builds.clear()
        res = sv.zn_ik(p, 12, CTX256, moments=build(p, 22, built_at))
        assert len(builds) == rebuilds, built_at
        assert res.ctx == CTX256 and res.zn == want, built_at


def test_zn_ik_rejects_the_moments_of_another_point():
    p = sv.PhaseParams(sv.Phase.DISORDERED, t=0.3, gamma=1.1)
    for other in (
        sv.PhaseParams(sv.Phase.ANTIFERROELECTRIC, t=0.1, gamma=1.0),
        sv.PhaseParams(sv.Phase.DISORDERED, t=0.1, gamma=1.0),
    ):
        m = sv.phi_derivatives(other, 8, CTX256)
        for ctx in (CTX256, None):
            with pytest.raises(ParameterDomainError, match="not the phi-derivatives"):
                sv.zn_ik(p, 5, ctx, moments=m)
    own = sv.zn_ik(p, 5, CTX256, moments=sv.phi_derivatives(p, 8, CTX256))
    assert own.params == (0.3, 1.1)
    assert rel_to(own.zn, sv.zn_ik(p, 5, CTX256).zn) == 0


def test_zn_ik_takes_one_log(monkeypatch):
    # zn_ik returns only Z_n, so a read of log_zn takes only Z_n's log
    calls = []
    log = mp.log
    monkeypatch.setattr(mp, "log", lambda *a, **k: calls.append(a) or log(*a, **k))
    p = sv.PhaseParams(sv.Phase.DISORDERED, t=0.3, gamma=1.1)
    res = sv.zn_ik(p, 48, next(sv.contexts(p, 48)))
    assert calls == []
    log_zn = res.log_zn
    assert calls == [(res.zn,)]
    with res.ctx.guardprec():
        assert log_zn == log(res.zn)


@pytest.mark.parametrize("ctx", [None, CTX256])
@pytest.mark.parametrize(
    "p",
    [
        sv.PhaseParams(sv.Phase.CRITICAL_FD, alpha=3),
        sv.PhaseParams(sv.Phase.CRITICAL_AFD, alpha=Fraction(1, 3)),
    ],
)
def test_toda_rejects_the_critical_lines(p, ctx):
    with pytest.raises(ParameterDomainError, match="chart"):
        sv.toda_residual(p, 2, "1e-10", ctx)
