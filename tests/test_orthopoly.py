"""Orthogonal-polynomial norms, Meixner closed forms, critical-line Z_n."""

from fractions import Fraction
from math import factorial

import pytest
from mpmath import mp

import sixvertex as sv
from sixvertex import _linalg
from sixvertex.errors import ParameterDomainError

from conftest import CTX256, CTX512, rel_to
from oracles import (
    chebyshev_norms,
    crit_afd_exact_moments,
    crit_fd_exact_moments,
    elimination_pivots,
)

TOL30 = mp.mpf("1e-30")


def test_h0_is_mu0(disordered_pi3):
    ms = sv.phi_derivatives(disordered_pi3, 2, CTX256)
    norms = sv.norms_from_moments(ms, 1, CTX256)
    assert rel_to(norms[0], ms[0]) < TOL30


def test_h0_disordered_closed_form():
    # h_0 = sin(2 gamma) / (sin(gamma+t) sin(gamma-t))
    with CTX256.guardprec():
        t, g = mp.mpf("0.3"), mp.mpf("1.1")
        p = sv.PhaseParams(sv.Phase.DISORDERED, t=t, gamma=g)
        ref = mp.sin(2 * g) / (mp.sin(g + t) * mp.sin(g - t))
    ms = sv.phi_derivatives(p, 0, CTX256)
    norms = sv.norms_from_moments(ms, 1, CTX256)
    assert rel_to(norms[0], ref) < TOL30


def test_h1_and_r1_pi3(disordered_pi3):
    # h_1 = tau_2 / tau_1 = (32/9)/(2/sqrt 3); R_1 = tau_2 / tau_1^2 = 8/3
    ms = sv.phi_derivatives(disordered_pi3, 2, CTX256)
    norms = sv.norms_from_moments(ms, 2, CTX256)
    r = sv.recurrence_r(norms)
    with CTX256.guardprec():
        h1_ref = (mp.mpf(32) / 9) / (2 / mp.sqrt(3))
        assert rel_to(norms[1], h1_ref) < TOL30
        assert rel_to(r[0], mp.mpf(8) / 3) < TOL30


def test_recurrence_reconstruction(ferro_21):
    ms = sv.ferro_moments(10, 2, 1, CTX256)
    norms = sv.norms_from_moments(ms, 6, CTX256)
    r = sv.recurrence_r(norms)
    assert len(r) == 5
    with CTX256.guardprec():
        acc = norms[0]
        for k, rk in enumerate(r, start=1):
            assert rk > 0
            acc = acc * rk
            assert rel_to(acc, norms[k]) < TOL30


def test_norms_product_equals_determinant(af_031):
    # unpivoted minor ratios vs the partially pivoted determinant route
    ms = sv.phi_derivatives(af_031, 18, CTX512)
    norms = sv.norms_from_moments(ms, 10, CTX512)
    with CTX512.guardprec():
        prod = mp.mpf(1)
        for k, h in enumerate(norms.h, start=1):
            prod *= h
            tau = sv.hankel_det(ms, k, CTX512)
            assert rel_to(prod, tau.tau) < TOL30


def test_meixner_norm_q_half():
    # q = 1/2 at t = gamma + ln(2)/2: h_0 = 1, h_1 = 2
    with CTX256.guardprec():
        g = mp.mpf(1)
        t = g + mp.log(2) / 2
    assert rel_to(sv.meixner_norm(0, t, g, CTX256), 1) < TOL30
    assert rel_to(sv.meixner_norm(1, t, g, CTX256), 2) < TOL30


def test_meixner_norm_k0_geometric_sum():
    with CTX256.guardprec():
        q = mp.exp(2 * (mp.mpf(1) - mp.mpf(2)))
        ref = q / (1 - q)
    assert rel_to(sv.meixner_norm(0, 2, 1, CTX256), ref) < TOL30


def test_meixner_norm_rejects_domain():
    with pytest.raises(ParameterDomainError):
        sv.meixner_norm(0, 1, 2)  # t < gamma gives q > 1
    with pytest.raises(ParameterDomainError, match="k >= 0 required, got -1"):
        sv.meixner_norm(-1, 2, 1)
    with pytest.raises(ParameterDomainError, match="kmax >= 0 required, got -1"):
        sv.meixner_ratios(-1, 2, 1)


def test_meixner_ratio_k0_closed_form():
    with CTX256.guardprec():
        q1, q2 = mp.exp(-2), mp.exp(-6)
        ref = (q1 / (1 - q1) - q2 / (1 - q2)) / (q1 / (1 - q1))
    got = sv.meixner_ratios(0, 2, 1, CTX256)[0]
    assert rel_to(got, ref) < TOL30


def test_meixner_ratio_monotone_tail():
    ctx = sv.PrecisionContext(768)
    ratios = sv.meixner_ratios(20, 2, 1, ctx)
    with ctx.guardprec():
        devs = [abs(r - 1) for r in ratios]
    assert devs[20] < devs[5]
    assert all(devs[k + 1] < devs[k] for k in range(5, 20))


def test_zn_crit_fd_n1_is_one():
    for alpha in (2, 3, 10, mp.mpf("1.5")):
        res = sv.zn_crit_fd(1, alpha, CTX256)
        assert rel_to(res.zn, 1) < TOL30


def test_zn_crit_afd_n1_is_one():
    for alpha in (0, mp.mpf("0.5"), mp.mpf("-0.7"), mp.mpf("0.9")):
        res = sv.zn_crit_afd(1, alpha, CTX256)
        assert rel_to(res.zn, 1) < TOL30


def test_zn_crit_fd_n2_against_pivoted_determinant():
    # ((alpha+1)/2)^4 h_0 h_1 via minors must equal the same with tau_2 from
    # the pivoted-LU route
    ms = sv.crit_fd_moments(2, 3, CTX256)
    tau2 = sv.hankel_det(ms, 2, CTX256)
    res = sv.zn_crit_fd(2, 3, CTX256)
    with CTX256.guardprec():
        ref = mp.mpf(2) ** 4 * tau2.tau / 1  # (0! 1!)^2 = 1
        assert rel_to(res.zn, ref) < TOL30


def test_zn_crit_afd_alpha0_norms():
    # symmetric weight: mu_0 = 2, mu_2 = 4, so h_0 = 2, h_1 = D_2/D_1 = 4,
    # and R_1 = mu_2/mu_0 = 2
    ms = sv.crit_afd_moments(2, 0, CTX256)
    assert rel_to(ms[0], 2) < TOL30
    assert ms[1] == 0
    assert rel_to(ms[2], 4) < TOL30
    norms = sv.norms_from_moments(ms, 2, CTX256)
    r = sv.recurrence_r(norms)
    assert rel_to(norms[0], 2) < TOL30
    assert rel_to(norms[1], 4) < TOL30
    assert rel_to(r[0], 2) < TOL30


def test_zn_crit_series_matches_single():
    series = sv.zn_crit_series(sv.Phase.CRITICAL_FD, 5, 3, CTX256)
    for r in series:
        single = sv.zn_crit_fd(r.n, 3, CTX256)
        assert rel_to(r.zn, single.zn) < TOL30
    series = sv.zn_crit_series(sv.Phase.CRITICAL_AFD, 4, mp.mpf("0.25"), CTX256)
    for r in series:
        single = sv.zn_crit_afd(r.n, mp.mpf("0.25"), CTX256)
        assert rel_to(r.zn, single.zn) < TOL30


def test_critical_domain_rejections():
    with pytest.raises(ParameterDomainError):
        sv.zn_crit_fd(2, 1)
    with pytest.raises(ParameterDomainError):
        sv.zn_crit_afd(2, 1)
    with pytest.raises(ParameterDomainError):
        sv.zn_crit_series(sv.Phase.DISORDERED, 3, 2, CTX256)


def family_point(family):
    """The phase point of one family in ``family_moments``, at ambient
    precision."""
    if family == "disordered-t0":
        # gamma = pi/3, t = 0: the odd moments vanish, so every alpha_k is 0
        return sv.PhaseParams(sv.Phase.DISORDERED, t=mp.mpf(0), gamma=mp.pi / 3)
    if family == "disordered":
        return sv.PhaseParams(sv.Phase.DISORDERED, t=mp.mpf("0.4"), gamma=mp.mpf("1.2"))
    if family == "ferro":
        return sv.PhaseParams(sv.Phase.FERROELECTRIC, t=2, gamma=1)
    if family == "af":
        return sv.PhaseParams(sv.Phase.ANTIFERROELECTRIC, t=Fraction(3, 10), gamma=1)
    if family == "critical-fd":
        return sv.PhaseParams(sv.Phase.CRITICAL_FD, alpha=3)
    return sv.PhaseParams(sv.Phase.CRITICAL_AFD, alpha=Fraction(1, 4))


def family_moments(family, kmax, ctx):
    """mu_0..mu_kmax of one point in each of the five moment families."""
    with ctx.guardprec():
        p = family_point(family)
    if family.startswith("disordered"):
        return sv.phi_derivatives(p, kmax, ctx)
    if family == "ferro":
        return sv.ferro_moments(kmax, p.t, p.gamma, ctx)
    if family == "af":
        return sv.af_moments(kmax, p.t, p.gamma, ctx)
    if family == "critical-fd":
        return sv.crit_fd_moments(kmax, p.alpha, ctx)
    return sv.crit_afd_moments(kmax, p.alpha, ctx)


@pytest.mark.parametrize("n", [8, 24, 48])
@pytest.mark.parametrize(
    "family", ["disordered-t0", "disordered", "ferro", "af", "critical-fd", "critical-afd"]
)
def test_norms_match_elimination_oracle(family, n):
    ctx = sv.PrecisionContext(max(256, 10 * n + 64))
    ms = family_moments(family, 2 * n - 2, ctx)
    norms = sv.norms_from_moments(ms, n, ctx)
    with ctx.guardprec():
        ref = elimination_pivots(ms.values, n)
    tol = ctx.verify_tolerance()
    for h, r in zip(norms.h, ref):
        assert rel_to(h, r) < tol


@pytest.mark.parametrize("n", [8, 24, 48])
@pytest.mark.parametrize(
    "family", ["disordered-t0", "disordered", "ferro", "af", "critical-fd", "critical-afd"]
)
def test_norms_report_their_agreement(family, n):
    ctx = next(sv.contexts(family_point(family), n))
    ms = family_moments(family, 2 * n - 2, ctx)
    norms = sv.norms_from_moments(ms, n, ctx)
    _, per_k = _linalg.hankel_pivots(ms.values, n, ctx)
    assert norms.agreement == tuple(per_k)
    assert norms.agreement_bits == min(per_k)
    assert ctx.claim_bits <= norms.agreement_bits <= ctx.bits
    assert (norms.family, norms.params) == (ms.family, ms.params)
    run = norms.ctx
    assert run == ctx
    assert (run.claim_bits, run.bits, run.guard_bits) == (128, ctx.bits, ctx.bits + 64)


@pytest.mark.parametrize("alpha", [Fraction(3), Fraction(3, 2), Fraction(11, 9)])
def test_norms_exact_over_fractions(alpha):
    nmax = 12
    mus = crit_fd_exact_moments(alpha, 2 * nmax - 2)
    exact = elimination_pivots(mus, nmax)
    assert all(isinstance(h, Fraction) and h > 0 for h in exact)
    for n in range(1, nmax + 1):
        assert chebyshev_norms(mus[: 2 * n - 1]) == exact[:n]
    # the verified mpf norms agree with the exact minor ratios
    norms = sv.norms_from_moments(sv.crit_fd_moments(2 * nmax - 2, alpha, CTX256), nmax, CTX256)
    tol = CTX256.verify_tolerance()
    with mp.workprec(4096):
        for h, e in zip(norms.h, exact):
            assert rel_to(h, sv.to_mpf(e)) < tol


@pytest.mark.parametrize(
    "moments_of, alpha",
    [
        (crit_fd_exact_moments, Fraction(3)),
        (crit_fd_exact_moments, Fraction(7, 3)),
        (crit_afd_exact_moments, Fraction(1, 3)),
        (crit_afd_exact_moments, Fraction(-1, 2)),
    ],
)
def test_exact_norms_give_lattice_zn_on_critical_lines(moments_of, alpha):
    # Z_n = ((1+alpha)/2)^(n^2) prod h_k / (prod k!)^2 over Fractions is the
    # exact lattice Z_n at (|alpha-1|/2, (1+alpha)/2, 1), both sides exact
    nmax = 12
    norms = chebyshev_norms(moments_of(alpha, 2 * nmax - 2))
    w = sv.Weights(abs(alpha - 1) / 2, (1 + alpha) / 2, Fraction(1))
    tau, superfactorial = Fraction(1), 1
    for n in range(1, nmax + 1):
        tau *= norms[n - 1]
        superfactorial *= factorial(n - 1)
        zn = ((1 + alpha) / 2) ** (n * n) * tau / superfactorial**2
        assert zn == sv.transfer_matrix_zn(n, w, exact=True), n
