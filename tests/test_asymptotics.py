"""Theorem predictors and the F / kappa / C fitting helpers."""

import copy
import pickle

import pytest
from hypothesis import given, strategies as st
from mpmath import mp

import sixvertex as sv
from sixvertex.errors import ParameterDomainError

import oracles
from conftest import CTX256, rel_to

TOL30 = mp.mpf("1e-30")


def test_predict_disordered_f_pi3():
    with CTX256.guardprec():
        pred = sv.predict_disordered(mp.mpf(0), mp.pi / 3, 5, CTX256)
        assert rel_to(pred.f, mp.mpf(9) / 8) < TOL30
        assert rel_to(pred.kappa, -mp.mpf(5) / 36) < TOL30


def test_predict_disordered_kappa_pi4_zero():
    with CTX256.guardprec():
        pred = sv.predict_disordered(mp.mpf(0), mp.pi / 4, 5, CTX256)
    assert abs(pred.kappa) < mp.mpf("1e-70")


def test_predict_disordered_kappa_small_gamma_limit():
    with CTX256.guardprec():
        pred = sv.predict_disordered(mp.mpf(0), mp.mpf("1e-8"), 5, CTX256)
        assert rel_to(pred.kappa, mp.mpf(1) / 12) < mp.mpf("1e-7")


def test_predict_ferro_values():
    pred = sv.predict_ferro(2, 1, 1, CTX256)
    with CTX256.guardprec():
        assert rel_to(pred.f, mp.sinh(3)) < TOL30
        assert rel_to(pred.g, mp.exp(-1)) < TOL30
        # prefactor: Euler product whose leading factor is 1 - e^{-4}
        lead = 1 - mp.exp(-4)
        assert abs(pred.c / lead - 1) < mp.mpf("4e-4")
        assert rel_to(
            mp.exp(pred.log_prediction), pred.c * pred.g * pred.f
        ) < TOL30
    assert pred.g_mode == "n"


@given(
    st.floats(min_value=0.05, max_value=2.0),
    st.floats(min_value=1.05, max_value=4.0),
)
def test_predict_ferro_g_below_one(gamma, ratio):
    pred = sv.predict_ferro(gamma * ratio, gamma, 3, CTX256)
    assert 0 < pred.g < 1
    assert pred.f > 0


def _ferro_log_c(gamma, rung):
    """(log C, gamma, ctx) of the ferro law at t = 2 gamma on PrecisionContext(128)
    (rung 0) or the first rung of the nmax 24 (1) or 48 (2) ladder, with gamma
    rounded to that context's guard precision; "pi/2-" and "pi/2+" are
    pi/2 -+ 2^-40."""

    def rounded(ctx):
        with ctx.guardprec():
            if gamma.startswith("pi/2"):
                return mp.pi / 2 + int(gamma[-1] + "1") * mp.mpf(2) ** -40
            return mp.mpf(gamma)

    g = rounded(sv.PrecisionContext(1024))
    p = sv.PhaseParams(sv.Phase.FERROELECTRIC, t=2 * g, gamma=g)
    ctx = ([sv.PrecisionContext(128)] + [next(sv.contexts(p, n)) for n in (24, 48)])[rung]
    g = rounded(ctx)
    return sv.predict_ferro(2 * g, g, 1, ctx).law.log_c, g, ctx


@pytest.mark.parametrize("rung", [0, 1, 2])
@pytest.mark.parametrize(
    "gamma", ["0.05", "0.3", "0.6", "1.2", "pi/2-", "pi/2+", "2", "5", "20", "40"]
)
def test_ferro_constant_matches_the_euler_product(gamma, rung):
    # log C from theta1'(0) at either nome against the plain product at 4x bits
    log_c, g, ctx = _ferro_log_c(gamma, rung)
    with mp.workprec(4 * ctx.guard_bits):
        ref = mp.log(oracles.ferro_euler_product(g, 4 * ctx.guard_bits))
        assert abs(log_c - ref) <= mp.mpf(2) ** -(ctx.guard_bits - 16) * max(1, abs(ref))


@pytest.mark.parametrize("rung", [0, 1, 2])
@pytest.mark.parametrize("gamma", ["1e-6", "1e-30", "1e-300"])
def test_ferro_constant_at_tiny_gamma(gamma, rung):
    # log C = -pi^2/(24 gamma) + log(pi/(2 gamma))/2 + gamma/6 + O(e^(-pi^2/gamma))
    log_c, g, ctx = _ferro_log_c(gamma, rung)
    with mp.workprec(4 * ctx.guard_bits):
        ref = -mp.pi**2 / (24 * g) + mp.log(mp.pi / (2 * g)) / 2 + g / 6
        assert abs(log_c - ref) <= mp.mpf(2) ** -(ctx.guard_bits - 16) * max(1, abs(ref))


def test_predict_crit_fd_values():
    pred = sv.predict_crit_fd(3, 4, CTX256)
    with CTX256.guardprec():
        assert rel_to(pred.f, 2) < TOL30
        ref_g = mp.exp(-sv.zeta_three_halves(CTX256) / mp.sqrt(mp.pi))
        assert rel_to(pred.g, ref_g) < TOL30
        assert rel_to(pred.kappa, mp.mpf(1) / 4) < TOL30
    assert pred.g_mode == "sqrt_n"


@given(st.floats(min_value=1.01, max_value=25.0))
def test_predict_crit_fd_g_in_unit_interval(alpha):
    pred = sv.predict_crit_fd(alpha, 2, CTX256)
    assert 0 < pred.g < 1
    assert pred.f > 0


def test_predict_af_t0_theta_alternates():
    # omega = pi/2: theta4(n omega) alternates between theta4(0) and theta4(pi/2)
    with CTX256.guardprec():
        q = mp.exp(-(mp.pi**2) / 2)
        even_ref = sv.theta4(0, q, CTX256)
        odd_ref = sv.theta4(mp.pi / 2, q, CTX256)
    preds = [sv.predict_af(0, 1, n, CTX256) for n in range(1, 6)]
    for n, pred in enumerate(preds, start=1):
        ref = even_ref if n % 2 == 0 else odd_ref
        assert rel_to(pred.theta_factor, ref) < mp.mpf("1e-60")
        assert 0 < pred.theta_factor < 2


def test_predict_af_f_positive_finite():
    with CTX256.guardprec():
        pred = sv.predict_af(mp.mpf("0.3"), mp.mpf(1), 7, CTX256)
    assert pred.f > 0
    assert mp.isfinite(pred.f)


@given(
    st.floats(min_value=0.3, max_value=3.0),
    st.floats(min_value=-0.8, max_value=0.8),
)
def test_predict_af_f_positive_property(gamma, frac):
    pred = sv.predict_af(gamma * frac, gamma, 2, CTX256)
    assert pred.f > 0


def double_edge(sign, digits):
    """The disordered point t = sign (gamma - 10^-digits gamma), gamma =
    pi/2 - 10^-digits, at the ambient precision."""
    gamma = mp.pi / 2 - mp.mpf(10) ** -digits
    return sign * (gamma - mp.mpf(10) ** -digits * gamma), gamma


# (predictor, phase, (t, gamma) at the ambient precision) next to a domain
# edge: |t| -> gamma puts the AF theta1(omega) and the disordered
# cos(pi t / (2 gamma)) next to a zero, and disordered gamma -> pi/2 makes
# kappa's pi - 2 gamma cancel
EDGE_LAWS = {
    "af-t-to-gamma": (sv.predict_af, sv.Phase.ANTIFERROELECTRIC,
                      lambda: (mp.mpf(1), 1 + mp.mpf(10) ** -45)),
    "af-t-to-minus-gamma": (sv.predict_af, sv.Phase.ANTIFERROELECTRIC,
                            lambda: (mp.mpf(-1), 1 + mp.mpf(10) ** -45)),
    "disordered-gamma-to-half-pi": (sv.predict_disordered, sv.Phase.DISORDERED,
                                    lambda: (mp.mpf("0.3"), mp.pi / 2 - mp.mpf(10) ** -45)),
    "disordered-t-to-gamma": (sv.predict_disordered, sv.Phase.DISORDERED,
                              lambda: (1 - mp.mpf(10) ** -45, mp.mpf(1))),
    "disordered-t-to-minus-gamma": (sv.predict_disordered, sv.Phase.DISORDERED,
                                    lambda: (mp.mpf(10) ** -45 - 1, mp.mpf(1))),
    # gamma -> pi/2 and |t| -> gamma at once, where gamma + |t| -> pi
    "disordered-double-edge-minus": (sv.predict_disordered, sv.Phase.DISORDERED,
                                     lambda: double_edge(-1, 45)),
    "disordered-double-edge-plus": (sv.predict_disordered, sv.Phase.DISORDERED,
                                    lambda: double_edge(1, 40)),
}


@pytest.mark.parametrize("name", EDGE_LAWS)
def test_law_at_the_report_context_keeps_its_bits_next_to_a_domain_edge(name):
    predict, phase, point = EDGE_LAWS[name]
    with mp.workprec(8000):
        t, gamma = point()
    first = next(sv.contexts(sv.PhaseParams(phase, t=t, gamma=gamma), 3))
    report = sv.hankel.report_context(first)
    law = predict(t, gamma, 3, report).log_prediction
    ref = predict(t, gamma, 3, sv.PrecisionContext(4 * report.bits)).log_prediction
    assert rel_to(law, ref) < mp.mpf(2) ** -report.bits


PREDICTORS = [
    lambda n: sv.predict_disordered(mp.mpf("0.3"), mp.mpf("1.1"), n, CTX256),
    lambda n: sv.predict_ferro(2, 1, n, CTX256),
    lambda n: sv.predict_crit_fd(3, n, CTX256),
    lambda n: sv.predict_af(mp.mpf("0.3"), 1, n, CTX256),
]


@pytest.mark.parametrize("predict", PREDICTORS)
@pytest.mark.parametrize("n", [0, -1])
def test_predictors_reject_n_below_one(predict, n):
    # below n = 1, log n and sqrt n would make log_prediction infinite or complex
    with pytest.raises(ParameterDomainError, match=f"n >= 1 required, got {n}"):
        predict(n)


def test_law_sum_adds_each_phase_terms_in_order():
    # the one sum reproduces, bit for bit, the four sums written out per phase
    sums = [
        lambda n, w: n * n * w.log_f + w.kappa * mp.log(n),
        lambda n, w: n * n * w.log_f + n * w.log_g + w.log_c,
        lambda n, w: n * n * w.log_f + mp.sqrt(n) * w.log_g + w.kappa * mp.log(n),
        lambda n, w: n * n * w.log_f + mp.log(sv.theta4(n * w.omega, w.q, CTX256)),
    ]
    for predict, written_out in zip(PREDICTORS, sums):
        for n in (1, 2, 7, 48):
            pred = predict(n)
            with CTX256.guardprec():
                assert pred.log_prediction._mpf_ == written_out(n, pred.law)._mpf_


def test_prediction_copies_and_pickles():
    pred = sv.predict_ferro(2, 1, 3, CTX256)
    for twin in (copy.copy(pred), pickle.loads(pickle.dumps(pred))):
        assert twin == pred and twin.law == pred.law


# --- fits -------------------------------------------------------------------


def _synthetic_series(nmax, log_f, log_g=0, log_c=0, kappa=0, prec=300):
    with mp.workprec(prec):
        out = []
        for n in range(1, nmax + 1):
            v = (
                n * n * mp.mpf(log_f)
                + n * mp.mpf(log_g)
                + mp.mpf(log_c)
                + mp.mpf(kappa) * mp.log(n)
            )
            out.append((n, v))
        return out


def test_fit_free_energy_exact_on_pure_growth():
    series = _synthetic_series(12, log_f="0.7")
    fit = sv.fit_free_energy(series)
    for _, est in fit.per_n_estimates:
        assert rel_to(est, "0.7") < mp.mpf("1e-55")
    assert rel_to(fit.extrapolated, "0.7") < mp.mpf("1e-55")


def test_fit_free_energy_annihilates_linear_and_constant():
    series = _synthetic_series(12, log_f="0.7", log_g="-0.3", log_c="1.1")
    fit = sv.fit_free_energy(series)
    assert rel_to(fit.extrapolated, "0.7") < mp.mpf("1e-55")
    assert fit.window[1] == 11  # estimates exist only at interior n


def test_fit_kappa_exact_linear():
    # r_n = 0.25 log n + 1  ->  kappa = 0.25, C = e
    series = _synthetic_series(20, log_f=0, log_c=1, kappa="0.25")
    fit = sv.fit_kappa(series, 0)
    assert rel_to(fit.extrapolated, "0.25") < mp.mpf("1e-55")
    assert rel_to(fit.log_c, 1) < mp.mpf("1e-55")
    assert fit.residual_norm < mp.mpf("1e-55")
    # a law without G passes g_mode None
    assert sv.fit_kappa(series, 0, g_mode=None) == fit


def test_fit_kappa_removes_g_term():
    series = _synthetic_series(20, log_f="0.4", log_g="-0.2", log_c="0.5", kappa="-0.1")
    fit = sv.fit_kappa(series, "0.4", log_g="-0.2", g_mode="n")
    assert rel_to(fit.extrapolated, "-0.1") < mp.mpf("1e-50")


def test_fits_keep_the_bits_of_their_inputs():
    # 1,200-bit inputs: a fit at a fixed 512 or 1,024 bits would stop near
    # 2^-1000, above the 2^-1100 asserted here
    tol = mp.mpf(2) ** -1100
    with mp.workprec(1200):
        log_f, log_g = mp.mpf("0.4"), mp.mpf("-0.2")
    series = _synthetic_series(20, log_f, log_g, log_c="0.5", kappa="0.25", prec=1200)
    fit = sv.fit_kappa(series, log_f, log_g=log_g, g_mode="n")
    assert rel_to(fit.extrapolated, "0.25") < tol
    assert rel_to(fit.log_c, "0.5") < tol
    series = _synthetic_series(12, log_f, log_g, log_c="1.1", prec=1200)
    assert rel_to(sv.fit_free_energy(series).extrapolated, log_f) < tol


def test_fit_requires_enough_consecutive_points():
    with pytest.raises(ParameterDomainError):
        sv.fit_free_energy([(1, 0.0), (2, 1.0), (3, 2.0)])
    with pytest.raises(ParameterDomainError):
        sv.fit_free_energy([(1, 0.0), (2, 1.0), (4, 2.0), (5, 3.0)])
    with pytest.raises(ParameterDomainError):
        sv.fit_kappa(_synthetic_series(10, log_f=0), 0, g_mode="bad")
    with pytest.raises(ParameterDomainError):
        sv.fit_kappa(_synthetic_series(10, log_f=0), 0, log_g=0, g_mode=None)


def test_fit_window_bounds():
    series = _synthetic_series(10, log_f=0, kappa="0.25")
    fit = sv.fit_kappa(series, 0, window=5)
    assert fit.window == (6, 10)
    with pytest.raises(ParameterDomainError):
        sv.fit_kappa(series, 0, window=1)
    with pytest.raises(ParameterDomainError):
        sv.fit_kappa(series, 0, window=99)


@pytest.mark.parametrize("first", [-3, 0])
def test_fit_kappa_refuses_n_below_one(first):
    # kappa is a slope against log n, which n <= 0 does not have; the
    # free-energy fit takes no logs and serves any n
    series = [(n, mp.mpf(n * n)) for n in range(first, first + 8)]
    with pytest.raises(ParameterDomainError, match="n >= 1 required, got"):
        sv.fit_kappa(series, 0, window=8)
    assert sv.fit_free_energy(series).extrapolated == 1


def test_fit_kappa_refuses_a_series_whose_logs_coincide():
    # the fit runs 64 bits above its inputs' mantissas, where log n of
    # consecutive n near 10^40 round to one value; the quotient of r against
    # log n divided by zero there
    series = [(10**40 + k, mp.mpf(k)) for k in range(4)]
    with pytest.raises(ParameterDomainError, match="log n values coincide"):
        sv.fit_kappa(series, 0, window=2)
