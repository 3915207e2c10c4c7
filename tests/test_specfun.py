"""Scalar kernels: phi and its derivatives, moments, theta, zeta; the exact
polylogarithm oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st
from mpmath import mp

import sixvertex as sv
from sixvertex.errors import ParameterDomainError

import oracles
from conftest import CTX256, CTX512, RATIONAL_POINTS, rel_to

TOL30 = mp.mpf("1e-30")


def _disordered(t, gamma):
    with CTX512.guardprec():
        return sv.PhaseParams(sv.Phase.DISORDERED, t=mp.mpf(t), gamma=gamma)


def test_phi_disordered_values():
    with CTX512.guardprec():
        p4 = _disordered(0, mp.pi / 4)
        assert rel_to(sv.phi_derivatives(p4, 0, CTX512)[0], 2) < TOL30
        p3 = _disordered(0, mp.pi / 3)
        assert rel_to(sv.phi_derivatives(p3, 0, CTX512)[0], 2 / mp.sqrt(3)) < TOL30


@given(
    phase=st.sampled_from(
        [sv.Phase.DISORDERED, sv.Phase.FERROELECTRIC, sv.Phase.ANTIFERROELECTRIC]
    ),
    gamma=st.floats(min_value=0.01, max_value=1.5),
    u=st.floats(min_value=-0.99, max_value=0.99),
    bits=st.sampled_from([64, 256, 1024]),
)
def test_phi_is_c_over_ab_of_the_weight_chart(phase, gamma, u, bits):
    ctx = sv.PrecisionContext(bits)
    with ctx.guardprec():
        g = mp.mpf(gamma)
        # |t| < gamma, or gamma < t < 3 gamma on the ferroelectric branch
        t = g * (2 + u) if phase is sv.Phase.FERROELECTRIC else g * u
        p = sv.PhaseParams(phase, t=t, gamma=g)
    w = sv.weights_from_params(p, ctx)
    with ctx.guardprec():
        ref = w.c / (w.a * w.b)
    assert rel_to(sv.phi_derivatives(p, 0, ctx)[0], ref) < ctx.verify_tolerance()


def test_phi_ferro_value():
    with CTX512.guardprec():
        p = sv.PhaseParams(sv.Phase.FERROELECTRIC, t=mp.mpf(2), gamma=mp.mpf(1))
        ref = mp.sinh(2) / (mp.sinh(3) * mp.sinh(1))
    assert rel_to(sv.phi_derivatives(p, 0, CTX512)[0], ref) < TOL30


def test_phi_af_value():
    with CTX512.guardprec():
        p = sv.PhaseParams(sv.Phase.ANTIFERROELECTRIC, t=mp.mpf("0.3"), gamma=mp.mpf(1))
        ref = mp.sinh(2) / (mp.sinh(mp.mpf("0.7")) * mp.sinh(mp.mpf("1.3")))
    assert rel_to(sv.phi_derivatives(p, 0, CTX512)[0], ref) < TOL30


def test_phi_derivatives_order_zero_is_phi():
    with CTX256.guardprec():
        p = _disordered("0.2", mp.mpf("1.1"))
    ms = sv.phi_derivatives(p, 6, CTX256)
    assert ms[0] == sv.phi_derivatives(p, 0, CTX256)[0]


def test_phi_derivatives_odd_vanish_at_t0():
    with CTX512.guardprec():
        p = _disordered(0, mp.mpf("0.9"))
    ms = sv.phi_derivatives(p, 7, CTX512)
    for k in (1, 3, 5, 7):
        assert ms[k] == 0


def test_phi_second_derivative_closed_form():
    # at t=0: phi'' = 4 csc^2(gamma) cot(gamma); for gamma=pi/3 this is 16/(3 sqrt 3)
    with CTX512.guardprec():
        p = _disordered(0, mp.pi / 3)
        ref = 16 / (3 * mp.sqrt(3))
    ms = sv.phi_derivatives(p, 2, CTX512)
    assert rel_to(ms[2], ref) < TOL30


def test_phi_derivative_matches_central_difference():
    # ferro gamma=1, t=2: first derivative vs step-1e-20 stencil at 512 bits
    with CTX512.guardprec():
        p = sv.PhaseParams(sv.Phase.FERROELECTRIC, t=mp.mpf(2), gamma=mp.mpf(1))
    ms = sv.phi_derivatives(p, 1, CTX512)

    def f(x):
        q = sv.PhaseParams(sv.Phase.FERROELECTRIC, t=x, gamma=mp.mpf(1))
        return sv.phi_derivatives(q, 0, CTX512)[0]

    fd = oracles.central_diff(f, 2, mp.mpf("1e-20"), bits=1024)
    assert rel_to(ms[1], fd) < TOL30


@pytest.mark.parametrize("nmax", [24, 48])
@pytest.mark.parametrize("point", RATIONAL_POINTS.values(), ids=RATIONAL_POINTS)
def test_phi_derivatives_match_exact_rational_moments(point, nmax):
    # moments for an nmax series lose at most 32 guard bits, near
    # coth = -+1 (ferro-far) too, with a doubled guard run and on the first
    # rung of the ladder (guard run at W + 64), as the series are run
    kmax = 2 * nmax - 2
    want = oracles.exact_phi_derivatives(
        point.s, point.sigma, point.x_plus, point.x_minus, kmax
    )
    first = next(sv.contexts(point.params(8192), nmax))
    for ctx in (sv.PrecisionContext(max(256, 10 * nmax + 64)), first):
        got = sv.phi_derivatives(point.params(4 * ctx.guard_bits), kmax, ctx)
        tol = mp.mpf(2) ** -(ctx.guard_bits - 32)
        prec = 8 * ctx.guard_bits
        for k, (g, w) in enumerate(zip(got.values, want)):
            with mp.workprec(prec):
                ref = sv.to_mpf(w)
            assert rel_to(g, ref, prec) < tol, (ctx, k)


# --- exact polylogarithm oracle --------------------------------------------


def test_polylog_trivial_values():
    assert oracles.polylog_neg(0, Fraction(1, 2)) == 1
    assert oracles.polylog_neg(1, Fraction(1, 2)) == 2
    assert oracles.polylog_neg(2, Fraction(1, 2)) == 6
    assert oracles.polylog_neg(3, Fraction(1, 2)) == 26


@given(
    st.integers(min_value=1, max_value=12),
    st.fractions(
        min_value=Fraction(1, 20), max_value=Fraction(19, 20), max_denominator=30
    ),
)
def test_polylog_defining_recurrence_exact(k, q):
    # Li_{-k}(q) = q d/dq Li_{-(k-1)}(q), with the derivative taken on the
    # stored rational form N(q)/(1-q)^k.
    if k == 1:
        # Li_0 = q/(1-q); q d/dq = q/(1-q)^2
        assert oracles.polylog_neg(1, q) == q / (1 - q) ** 2
        return
    row = oracles.eulerian_row(k - 1)
    n_val = sum(a * q ** (j + 1) for j, a in enumerate(row))
    n_prime = sum(a * (j + 1) * q**j for j, a in enumerate(row))
    derivative = (n_prime * (1 - q) + k * n_val) / (1 - q) ** (k + 1)
    assert oracles.polylog_neg(k, q) == q * derivative


def test_eulerian_rows():
    assert oracles.eulerian_row(1) == (1,)
    assert oracles.eulerian_row(2) == (1, 1)
    assert oracles.eulerian_row(3) == (1, 4, 1)
    assert oracles.eulerian_row(4) == (1, 11, 11, 1)
    # row sums are factorials
    assert sum(oracles.eulerian_row(7)) == 5040


# --- moment families vs oracles -------------------------------------------


@pytest.mark.parametrize("bits", [256, 1024])
def test_discrete_moments_match_exact_polylogs(bits):
    # e^(-2|t - gamma|) = 1/3 and e^(-2(|t| + gamma)) = 1/7 at both points, so
    # ferro mu_k = Li_{-k}(1/3) - Li_{-k}(1/7) and
    # AF mu_k = Li_{-k}(1/3) + (-1)^k Li_{-k}(1/7) + [k = 0], exact rationals
    ctx = sv.PrecisionContext(bits)
    kmax = 46
    with mp.workprec(4 * ctx.guard_bits):
        near, far = mp.log(3) / 2, mp.log(7) / 2
        outer, inner = (far + near) / 2, (far - near) / 2
    ferro = sv.ferro_moments(kmax, outer, inner, ctx)
    af = sv.af_moments(kmax, inner, outer, ctx)
    tol = mp.mpf(2) ** -(ctx.guard_bits - 32)
    prec = 8 * ctx.guard_bits
    for k in range(kmax + 1):
        li3 = oracles.polylog_neg(k, Fraction(1, 3))
        li7 = oracles.polylog_neg(k, Fraction(1, 7))
        for got, want in ((ferro, li3 - li7), (af, li3 + (-1) ** k * li7 + (k == 0))):
            with mp.workprec(prec):
                ref = sv.to_mpf(want)
            assert rel_to(got[k], ref, prec) < tol, (got.family, k)


def test_ferro_moment_k0_geometric():
    with CTX512.guardprec():
        q1, q2 = mp.exp(-2), mp.exp(-6)
        ref = q1 / (1 - q1) - q2 / (1 - q2)
    assert rel_to(sv.ferro_moment(0, 2, 1, CTX512), ref) < TOL30


def test_ferro_moment_series_oracle():
    got = sv.ferro_moment(3, 2, 1, CTX512)
    ref = oracles.series_ferro_moments(3, 2, 1, bits=1024, lmax=200)[3]
    assert rel_to(got, ref) < TOL30


def test_af_moment_t0_symmetric():
    with CTX512.guardprec():
        q = mp.exp(-2)
        ref = 1 + 2 * q / (1 - q)
    assert rel_to(sv.af_moment(0, 0, 1, CTX512), ref) < TOL30
    for k in (1, 3, 5):
        assert sv.af_moment(k, 0, 1, CTX512) == 0


def test_af_moment_series_oracle():
    with CTX512.guardprec():
        t = mp.mpf("0.3")
    got = sv.af_moment(4, t, 1, CTX512)
    ref = oracles.series_af_moments(4, "0.3", 1, bits=1024, lmax=200)[4]
    assert rel_to(got, ref) < TOL30


def test_crit_fd_moment_closed_values():
    # r = 2 at alpha = 3
    assert rel_to(sv.crit_fd_moment(0, 3, CTX512), mp.mpf(1) / 2) < TOL30
    assert rel_to(sv.crit_fd_moment(1, 3, CTX512), mp.mpf(3) / 4) < TOL30


def test_crit_fd_moment_quadrature_oracle():
    got = sv.crit_fd_moment(5, 3, CTX512)
    ref = oracles.quad_crit_fd_moment(5, 3, bits=700)
    assert rel_to(got, ref) < TOL30


def test_crit_afd_moment_closed_values():
    assert rel_to(sv.crit_afd_moment(0, 0, CTX512), 2) < TOL30
    assert sv.crit_afd_moment(1, 0, CTX512) == 0


def test_crit_afd_moment_quadrature_oracle():
    got = sv.crit_afd_moment(4, Fraction(1, 3), CTX512)
    ref = oracles.quad_crit_afd_moment(4, Fraction(1, 3), bits=700)
    assert rel_to(got, ref) < TOL30


@pytest.mark.parametrize("n", [24, 48])
@pytest.mark.parametrize(
    "phase,alpha,exact",
    [
        (sv.Phase.CRITICAL_FD, alpha, oracles.crit_fd_exact_moments)
        for alpha in (Fraction(1001, 1000), Fraction(3), Fraction(20))
    ]
    + [
        (sv.Phase.CRITICAL_AFD, alpha, oracles.crit_afd_exact_moments)
        for alpha in (
            Fraction(-999, 1000), -1 + Fraction(1, 10**30), Fraction(0), Fraction(1, 2),
            Fraction(19, 20),
        )
    ],
)
def test_critical_moments_match_the_exact_ones_entry_by_entry(phase, alpha, exact, n):
    # the running k! and power of q stay within 16 guard bits up to
    # k = 2n - 2; a rational alpha gives q exactly, so alpha -> -1 (and
    # alpha -> 1 on the fd line) cancels no bits
    ctx = next(sv.contexts(sv.PhaseParams(phase, alpha=alpha), n))
    build = sv.crit_fd_moments if phase is sv.Phase.CRITICAL_FD else sv.crit_afd_moments
    got = build(2 * n - 2, alpha, ctx).values
    want = exact(alpha, 2 * n - 2)
    assert len(got) == len(want) == 2 * n - 1
    tol = mp.mpf(2) ** -(ctx.guard_bits - 16)
    prec = 8 * ctx.guard_bits
    for k, (g, w) in enumerate(zip(got, want)):
        if w == 0:  # the odd moments at alpha = 0
            assert g == 0, k
            continue
        with mp.workprec(prec):
            ref = sv.to_mpf(w)
        assert rel_to(g, ref, prec) < tol, k


def test_moment_domain_rejections():
    with pytest.raises(ParameterDomainError):
        sv.ferro_moment(0, 1, 2)  # t <= gamma
    with pytest.raises(ParameterDomainError):
        sv.af_moment(0, 2, 1)  # |t| >= gamma
    with pytest.raises(ParameterDomainError):
        sv.crit_fd_moment(0, 1)
    with pytest.raises(ParameterDomainError):
        sv.crit_afd_moment(0, 1)


@pytest.mark.parametrize(
    "moment, moments, alpha",
    [
        (sv.crit_fd_moment, sv.crit_fd_moments, Fraction(7, 3)),
        (sv.crit_afd_moment, sv.crit_afd_moments, Fraction(-1, 2)),
    ],
    ids=["crit-fd", "crit-afd"],
)
def test_critical_scalar_moments_are_sequence_entries(moment, moments, alpha):
    seq = moments(10, alpha, CTX512)
    assert [moment(k, alpha, CTX512) for k in range(11)] == list(seq.values)


@pytest.mark.parametrize(
    "build",
    [
        lambda kmax: sv.phi_derivatives(_disordered(0, 1), kmax),
        lambda kmax: sv.ferro_moments(kmax, 2, 1),
        lambda kmax: sv.af_moments(kmax, Fraction(3, 10), 1),
        lambda kmax: sv.crit_fd_moments(kmax, 3),
        lambda kmax: sv.crit_afd_moments(kmax, Fraction(1, 2)),
        lambda k: sv.ferro_moment(k, 2, 1),
        lambda k: sv.af_moment(k, Fraction(3, 10), 1),
        lambda k: sv.crit_fd_moment(k, 3),
        lambda k: sv.crit_afd_moment(k, Fraction(1, 3)),
    ],
    ids=[
        "phi", "ferro", "af", "crit-fd", "crit-afd",
        "ferro-scalar", "af-scalar", "crit-fd-scalar", "crit-afd-scalar",
    ],
)
def test_moment_builders_reject_negative_kmax(build):
    with pytest.raises(ParameterDomainError, match="kmax >= 0"):
        build(-1)


# Dyadic points on both sides of every domain boundary, and on it
DOMAIN_GRID = st.integers(-24, 24).map(lambda i: Fraction(i, 8))


def _raises_domain_error(call) -> bool:
    try:
        call()
    except ParameterDomainError:
        return True
    return False


@given(k=st.integers(0, 6), t=DOMAIN_GRID, gamma=DOMAIN_GRID, alpha=DOMAIN_GRID)
def test_domains_are_those_of_phase_params(k, t, gamma, alpha):
    bulk, line = {"t": t, "gamma": gamma}, {"alpha": alpha}
    cases = [
        (sv.Phase.FERROELECTRIC, bulk, lambda: sv.ferro_moment(k, t, gamma)),
        (sv.Phase.ANTIFERROELECTRIC, bulk, lambda: sv.af_moment(k, t, gamma)),
        (sv.Phase.CRITICAL_FD, line, lambda: sv.crit_fd_moment(k, alpha)),
        (sv.Phase.CRITICAL_AFD, line, lambda: sv.crit_afd_moment(k, alpha)),
        (sv.Phase.DISORDERED, bulk, lambda: sv.predict_disordered(t, gamma, k + 1)),
        (sv.Phase.FERROELECTRIC, bulk, lambda: sv.predict_ferro(t, gamma, k + 1)),
        (sv.Phase.ANTIFERROELECTRIC, bulk, lambda: sv.predict_af(t, gamma, k + 1)),
        (sv.Phase.CRITICAL_FD, line, lambda: sv.predict_crit_fd(alpha, k + 1)),
    ]
    for phase, params, call in cases:
        rejected = _raises_domain_error(lambda: sv.PhaseParams(phase, **params))
        assert _raises_domain_error(call) == rejected, (phase, params)


@pytest.mark.parametrize(
    "moment, t, gamma", [(sv.ferro_moment, 2e-50, 1e-50), (sv.af_moment, 1e-50, 2e-50)]
)
def test_discrete_moments_keep_their_bits_near_the_boundary(moment, t, gamma):
    # |t -+ gamma| = 1e-50: the moments start from coth at arguments near
    # 1e-50, where it keeps its relative bits, so nearness to the boundary
    # costs no guard bits
    high = sv.PrecisionContext(2048)
    for k in (0, 3, 20):
        assert rel_to(moment(k, t, gamma, CTX256), moment(k, t, gamma, high)) <= mp.mpf(2) ** -500


def test_discrete_moments_within_guard_precision_of_the_boundary():
    # |t -+ gamma| lies far below the guard precision's ulp of 1; mu_0 = phi/2,
    # and coth x = 1/x + O(x) at these arguments
    assert rel_to(sv.ferro_moment(0, 1e-300, 5e-301), mp.mpf(2) / 3 * mp.mpf(10) ** 300) < 1e-12
    assert rel_to(sv.af_moment(0, 5e-301, 1e-300), mp.mpf(4) / 3 * mp.mpf(10) ** 300) < 1e-12


# --- theta -----------------------------------------------------------------


def test_theta4_small_nome_value():
    # 1 - 2(0.1) + 2(0.1)^4 - 2(0.1)^9 + 2(0.1)^16 - ... = 0.80019999800000019999998...
    with CTX256.guardprec():
        q = mp.mpf("0.1")
    got = sv.theta4(0, q, CTX256)
    assert rel_to(got, "0.8001999980000001999999998") < mp.mpf("1e-25")


def test_theta1_odd_and_zero_at_origin():
    q = mp.mpf("0.3")
    assert sv.theta1(0, q, CTX256) == 0
    with CTX256.guardprec():
        for z in (mp.mpf("0.7"), mp.mpf(2)):
            assert rel_to(sv.theta1(-z, q, CTX256), -sv.theta1(z, q, CTX256)) < TOL30


def test_theta_periodicity_and_parity_grid():
    q = mp.mpf("0.25")
    with CTX256.guardprec():
        zs = [mp.mpf(i) * mp.pi / 10 + mp.mpf("0.05") for i in range(10)]
        for z in zs:
            t4 = sv.theta4(z, q, CTX256)
            assert rel_to(sv.theta4(z + mp.pi, q, CTX256), t4) < TOL30
            assert rel_to(sv.theta4(-z, q, CTX256), t4) < TOL30
            t1 = sv.theta1(z, q, CTX256)
            assert rel_to(sv.theta1(z + mp.pi, q, CTX256), -t1) < TOL30


def test_theta_against_mpmath():
    # away from z = 0 and pi, where mp.jtheta's theta_2(z - pi/2) form of
    # theta_1 keeps its relative accuracy
    with CTX256.guardprec():
        q = mp.mpf("0.2")
        z = mp.mpf("0.9")
        assert rel_to(sv.theta1(z, q, CTX256), mp.jtheta(1, z, q)) < TOL30


@pytest.mark.parametrize("bits", [128, 328, 1024])
def test_theta4_and_theta1_prime0_against_plain_series(bits):
    # theta_4 and theta_1'(0) are mp.jtheta; the reference is their plain
    # partial sums at 4x the bits.  z runs over n omega at the AF point
    # (t, gamma) = (0.4, 1.5) for n <= 48 as well as fixed values.
    ctx = sv.PrecisionContext(bits)
    with ctx.guardprec():
        qs = [mp.mpf(q) for q in ("1e-40", "0.004", "0.04", "0.2", "0.5", "0.89")]
        omega = mp.pi / 2 * (1 + mp.mpf("0.4") / mp.mpf("1.5"))
        zs = [mp.mpf(0), mp.mpf("0.3"), mp.pi / 2, mp.mpf(10) ** 6]
        zs += [n * omega for n in range(1, 49)]
    tol = mp.mpf(2) ** -bits
    for q in qs:
        ref = oracles.series_theta1_prime0(q, 4 * bits)
        assert rel_to(sv.theta1_prime0(q, ctx), ref) < tol
        for z in zs:
            assert rel_to(sv.theta4(z, q, ctx), oracles.series_theta4(z, q, 4 * bits)) < tol


def test_theta1_prime_finite_difference():
    q = mp.mpf("0.15")
    got = sv.theta1_prime0(q, CTX512)

    def f(z):
        return sv.theta1(z, q, CTX512)

    fd = oracles.central_diff(f, 0, mp.mpf("1e-15"), bits=1024)
    assert rel_to(got, fd) < mp.mpf("1e-20")


def test_theta_rejects_large_nome():
    for q in (mp.mpf("0.95"), mp.mpf(1), mp.mpf("1.2"), 0):
        with pytest.raises(ParameterDomainError):
            sv.theta4(0, q)


# --- zeta ------------------------------------------------------------------


def test_zeta_three_halves_value():
    got = sv.zeta_three_halves(CTX256)
    assert rel_to(got, "2.612375348685488") < mp.mpf("1e-15")
    with mp.workprec(700):
        assert rel_to(got, mp.zeta(mp.mpf(3) / 2)) < mp.mpf("1e-77")


def test_zeta_doubled_precision_consistency():
    lo = sv.zeta_three_halves(sv.PrecisionContext(256))
    hi = sv.zeta_three_halves(sv.PrecisionContext(512))
    assert rel_to(lo, hi) < mp.mpf(2) ** (-500)


def test_zeta_lower_bound_partial_sum():
    with CTX256.guardprec():
        partial = mp.fsum(mp.mpf(k) ** mp.mpf("-1.5") for k in range(1, 11))
    assert sv.zeta_three_halves(CTX256) > partial


ZETA_CONTEXTS = [
    ctx
    for bits in [*range(64, 1501, 37), 244, 328, 656, 1312]
    for ctx in (sv.PrecisionContext(bits), sv.PrecisionContext(bits, claim=bits // 2))
]


def test_zeta_three_halves_against_mpmath_zeta():
    # one reference at 2 guard_bits + 64 of the widest context serves all;
    # Euler-Maclaurin is independent of the Chebyshev-accelerated series the
    # kernel sums (and of mpmath's default for real s, Borwein's)
    prec = 2 * max(ctx.guard_bits for ctx in ZETA_CONTEXTS) + 64
    with mp.workprec(prec):
        ref = mp.zeta(mp.mpf(3) / 2, method="euler-maclaurin")
    for ctx in ZETA_CONTEXTS:
        got = sv.zeta_three_halves(ctx)
        assert rel_to(got, ref, prec) <= mp.mpf(2) ** -(ctx.guard_bits + 24), ctx
