"""Acceptance suite: every criterion at its stated tolerance, one pass/fail
line per criterion (run with -v to see the per-criterion verdicts, or -s to
see the printed lines)."""

import random
from fractions import Fraction

import pytest
from mpmath import mp

import sixvertex as sv

import oracles
from conftest import rel_to

TOL30 = mp.mpf("1e-30")


def record(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{criterion}: {detail}"


def bulk_points():
    ctx = sv.PrecisionContext(256)
    with ctx.guardprec():
        return {
            sv.Phase.DISORDERED: [
                sv.PhaseParams(sv.Phase.DISORDERED, t=mp.mpf(0), gamma=mp.pi / 3),
                sv.PhaseParams(sv.Phase.DISORDERED, t=mp.mpf("0.3"), gamma=mp.mpf("1.1")),
                sv.PhaseParams(sv.Phase.DISORDERED, t=mp.mpf("-0.25"), gamma=mp.mpf("0.8")),
            ],
            sv.Phase.FERROELECTRIC: [
                sv.PhaseParams(sv.Phase.FERROELECTRIC, t=mp.mpf(2), gamma=mp.mpf(1)),
                sv.PhaseParams(sv.Phase.FERROELECTRIC, t=mp.mpf("1.7"), gamma=mp.mpf("0.6")),
                sv.PhaseParams(sv.Phase.FERROELECTRIC, t=mp.mpf("2.5"), gamma=mp.mpf("0.7")),
            ],
            sv.Phase.ANTIFERROELECTRIC: [
                sv.PhaseParams(sv.Phase.ANTIFERROELECTRIC, t=mp.mpf("0.3"), gamma=mp.mpf(1)),
                sv.PhaseParams(sv.Phase.ANTIFERROELECTRIC, t=mp.mpf(0), gamma=mp.mpf("0.9")),
                sv.PhaseParams(sv.Phase.ANTIFERROELECTRIC, t=mp.mpf("-0.4"), gamma=mp.mpf("1.3")),
            ],
        }


def test_criterion_01_oracle_equivalence():
    """zn_ik matches brute-force enumeration for n = 1..5, 3 points per phase."""
    ctx = sv.PrecisionContext(256)
    worst = mp.mpf(0)
    for phase, points in bulk_points().items():
        for p in points:
            w = sv.weights_from_params(p, ctx)
            wn, scale = sv.normalize(w, ctx)
            moments = sv.phi_derivatives(p, 8, ctx)
            for n in range(1, 6):
                res = sv.zn_ik(p, n, ctx, moments=moments)
                z_norm, _ = sv.enumerate_dfs(n, wn, ctx=ctx)
                with ctx.guardprec():
                    z_enum = z_norm * sv.to_mpf(scale) ** (n * n)
                worst = max(worst, rel_to(res.zn, z_enum))
    record("1 (oracle equivalence)", worst < TOL30, f"worst rel err {mp.nstr(worst, 3)}")


def test_criterion_02_dp_equivalence():
    """enumerate_dfs == transfer_matrix_zn exactly on 10 random rational triples."""
    rng = random.Random(20260810)
    ok = True
    for _ in range(10):
        w = sv.Weights(
            Fraction(rng.randint(1, 9), rng.randint(1, 9)),
            Fraction(rng.randint(1, 9), rng.randint(1, 9)),
            Fraction(rng.randint(1, 9), rng.randint(1, 9)),
        )
        for n in range(1, 7):
            ok = ok and sv.enumerate_dfs(n, w)[0] == sv.transfer_matrix_zn(n, w)
    record("2 (DFS = transfer matrix, exact)", ok)


def test_criterion_03_asm_counts():
    counts = [sv.enumerate_dfs(n, sv.Weights(1, 1, 1))[1] for n in range(1, 6)]
    record("3 (ASM counts)", counts == [1, 2, 7, 42, 429], f"got {counts}")


def test_criterion_04_identity_suite():
    """prod h_k = tau_n (n <= 20, five families); h_0 closed form; 2^(n^2) factor."""
    ctx = sv.PrecisionContext(512)
    with ctx.guardprec():
        t, g = mp.mpf("0.3"), mp.mpf("1.1")
        p_dis = sv.PhaseParams(sv.Phase.DISORDERED, t=t, gamma=g)
        p_fe = sv.PhaseParams(sv.Phase.FERROELECTRIC, t=mp.mpf(2), gamma=mp.mpf(1))
        p_af = sv.PhaseParams(sv.Phase.ANTIFERROELECTRIC, t=mp.mpf("0.3"), gamma=mp.mpf(1))
        families = {
            "disordered-phi": sv.phi_derivatives(p_dis, 38, ctx),
            "ferro-discrete": sv.ferro_moments(38, mp.mpf(2), mp.mpf(1), ctx),
            "af-discrete": sv.af_moments(38, mp.mpf("0.3"), mp.mpf(1), ctx),
            "critical-fd": sv.crit_fd_moments(38, 3, ctx),
            "critical-afd": sv.crit_afd_moments(38, Fraction(1, 3), ctx),
        }
    worst = mp.mpf(0)
    for name, ms in families.items():
        norms = sv.norms_from_moments(ms, 20, ctx)
        with ctx.guardprec():
            prod = mp.mpf(1)
            for n in range(1, 21):
                prod *= norms[n - 1]
                tau = sv.hankel_det(ms, n, ctx)
                worst = max(worst, rel_to(prod, tau.tau))
    # h_0 closed form in the disordered phase
    with ctx.guardprec():
        h0_ref = mp.sin(2 * g) / (mp.sin(g + t) * mp.sin(g - t))
    h0 = sv.norms_from_moments(families["disordered-phi"], 1, ctx)[0]
    worst = max(worst, rel_to(h0, h0_ref))
    # phi-derivative dets = 2^(n^2) * weight-moment dets, n <= 10, both discrete phases
    for p, ms in ((p_fe, families["ferro-discrete"]), (p_af, families["af-discrete"])):
        phi_ms = sv.phi_derivatives(p, 18, ctx)
        for n in range(1, 11):
            tau_phi = sv.hankel_det(phi_ms, n, ctx)
            tau_w = sv.hankel_det(ms, n, ctx)
            with ctx.guardprec():
                worst = max(worst, rel_to(tau_phi.tau, mp.mpf(2) ** (n * n) * tau_w.tau))
    record("4 (identity suite)", worst < TOL30, f"worst rel err {mp.nstr(worst, 3)}")


def test_criterion_05_toda():
    ctx = sv.PrecisionContext(512)
    with ctx.guardprec():
        p = sv.PhaseParams(sv.Phase.DISORDERED, t=mp.mpf("0.4"), gamma=mp.mpf("1.2"))
        residual = sv.toda_residual(p, 3, mp.mpf("1e-8"), ctx)
        r_coarse = sv.toda_residual(p, 3, mp.mpf("1e-4"), ctx)
        r_fine = sv.toda_residual(p, 3, mp.mpf("1e-5"), ctx)
        order = mp.log(r_coarse / r_fine) / mp.log(10)
    ok = residual < mp.mpf("1e-14") and mp.mpf("1.8") <= order <= mp.mpf("2.2")
    record(
        "5 (Toda residual and order)",
        ok,
        f"residual {mp.nstr(residual, 3)}, order {mp.nstr(order, 4)}",
    )


def test_criterion_06_theorem2_ferro():
    ctx = sv.PrecisionContext(512)
    with ctx.guardprec():
        p = sv.PhaseParams(sv.Phase.FERROELECTRIC, t=mp.mpf(2), gamma=mp.mpf(1))
    series = sv.zn_series(p, 10, ctx)
    devs = {}
    with ctx.guardprec():
        for res in series[4:]:
            pred = sv.predict_ferro(mp.mpf(2), mp.mpf(1), res.n, ctx)
            devs[res.n] = abs(mp.exp(res.log_zn - pred.log_prediction) - 1)
    decreasing = all(devs[n + 1] < devs[n] for n in range(5, 10))
    ok = devs[10] < mp.mpf("1e-6") and decreasing
    record(
        "6 (Theorem 2, ferroelectric)",
        ok,
        f"|ratio-1| at n=10: {mp.nstr(devs[10], 3)}, decreasing {decreasing}",
    )


@pytest.fixture(scope="module")
def disordered_series_pi3():
    ctx = sv.PrecisionContext(1536)
    with ctx.guardprec():
        p = sv.PhaseParams(sv.Phase.DISORDERED, t=mp.mpf(0), gamma=mp.pi / 3)
    return [(r.n, r.log_zn) for r in sv.zn_series(p, 40, ctx)]


def test_criterion_07_theorem1_disordered(disordered_series_pi3):
    with mp.workprec(400):
        log_f_true = mp.log(mp.mpf(9) / 8)
        kappa_true = -mp.mpf(5) / 36
    f_fit = sv.fit_free_energy(disordered_series_pi3)
    k_fit = sv.fit_kappa(disordered_series_pi3, log_f_true)
    with mp.workprec(400):
        df = abs(f_fit.extrapolated - log_f_true)
        dk = abs(k_fit.extrapolated - kappa_true)
    # gamma = pi/4 sits on the free-fermion line: Z_n is identically 1 there
    ctx = sv.PrecisionContext(1536)
    with ctx.guardprec():
        p4 = sv.PhaseParams(sv.Phase.DISORDERED, t=mp.mpf(0), gamma=mp.pi / 4)
    series4 = [(r.n, r.log_zn) for r in sv.zn_series(p4, 40, ctx)]
    k_fit4 = sv.fit_kappa(series4, mp.mpf(0))
    dk4 = abs(k_fit4.extrapolated)
    ok = df < mp.mpf("1e-3") and dk < mp.mpf("0.05") and dk4 < mp.mpf("0.05")
    record(
        "7 (Theorem 1, disordered fits)",
        ok,
        f"|logF err| {mp.nstr(df, 3)}, |kappa err| {mp.nstr(dk, 3)}, "
        f"|kappa(pi/4)| {mp.nstr(dk4, 3)}",
    )


def test_criterion_08_theorem4_af():
    ctx = sv.PrecisionContext(1024)
    with ctx.guardprec():
        t, g = mp.mpf("0.3"), mp.mpf(1)
        p = sv.PhaseParams(sv.Phase.ANTIFERROELECTRIC, t=t, gamma=g)
    series = sv.zn_series(p, 30, ctx)
    with ctx.guardprec():
        ratios = []
        for res in series[19:]:
            pred = sv.predict_af(t, g, res.n, ctx)
            ratios.append(mp.exp(res.log_zn - pred.log_prediction))
        mean = mp.fsum(ratios) / len(ratios)
        spread = (max(ratios) - min(ratios)) / mean
        drift = abs(ratios[-1] - ratios[0]) / mean
        allowed_drift = 10 * (mp.mpf(1) / 20 - mp.mpf(1) / 30)
    ok = spread < mp.mpf("0.1") and drift <= allowed_drift
    record(
        "8 (Theorem 4, antiferroelectric)",
        ok,
        f"spread {mp.nstr(spread, 3)}, drift {mp.nstr(drift, 3)} "
        f"(O(1/n) allowance {mp.nstr(allowed_drift, 3)})",
    )


def test_criterion_09_theorem3_crit_fd():
    ctx = sv.PrecisionContext(1024)
    series = sv.zn_crit_series(sv.Phase.CRITICAL_FD, 30, 3, ctx)
    pred = sv.predict_crit_fd(3, 30, ctx)
    with ctx.guardprec():
        log_f, log_g = mp.log(pred.f), mp.log(pred.g)
    fit = sv.fit_kappa(
        [(r.n, r.log_zn) for r in series], log_f, log_g=log_g, g_mode="sqrt_n",
        window=16,
    )
    ok = mp.mpf("0.15") <= fit.extrapolated <= mp.mpf("0.35")
    record(
        "9 (Theorem 3, critical FE-D)",
        ok,
        f"kappa slope {mp.nstr(fit.extrapolated, 4)} over n in [15, 30]",
    )


def test_criterion_10_meixner():
    ctx = sv.PrecisionContext(1024)
    ratios = sv.meixner_ratios(30, 2, 1, ctx)
    with ctx.guardprec():
        devs = [abs(r - 1) for r in ratios]
    decreasing = all(devs[k + 1] < devs[k] for k in range(5, 30))
    ok = decreasing and devs[30] < mp.mpf("1e-8")
    record(
        "10 (Meixner ratio)",
        ok,
        f"|ratio-1| at k=30: {mp.nstr(devs[30], 3)}, decreasing for k>=5: {decreasing}",
    )


def test_criterion_11_special_functions():
    ctx = sv.PrecisionContext(512)
    worst = mp.mpf(0)
    # the terms fall as e^(-2l) (ferro) and e^(-1.4l) (AF), so lmax = 250
    # leaves a tail below 2^-300 of mu_k for every k <= 46
    ferro = oracles.series_ferro_moments(46, 2, 1, bits=1200, lmax=250)
    af = oracles.series_af_moments(46, Fraction(3, 10), 1, bits=1200, lmax=250)
    for k in range(47):
        worst = max(
            worst,
            rel_to(sv.ferro_moment(k, 2, 1, ctx), ferro[k]),
            rel_to(sv.af_moment(k, Fraction(3, 10), 1, ctx), af[k]),
        )
    for k in range(9):
        worst = max(
            worst,
            rel_to(
                sv.crit_fd_moment(k, 3, ctx),
                oracles.quad_crit_fd_moment(k, 3, bits=700),
            ),
        )
        afd = sv.crit_afd_moment(k, Fraction(1, 3), ctx)
        ref = oracles.quad_crit_afd_moment(k, Fraction(1, 3), bits=700)
        if k % 2 == 0:
            worst = max(worst, rel_to(afd, ref))
        else:
            # odd moments are tiny but nonzero; compare absolutely on the
            # quadrature's own scale
            with mp.workprec(700):
                worst = max(worst, abs(afd - ref) / abs(sv.crit_afd_moment(k, Fraction(1, 3), ctx)))
        # disordered phi-derivatives double as the fifth family; their oracle
        # is the central-difference check below plus the enumeration suite
    moments_ok = worst < TOL30

    # theta parity and periodicity on a grid of 10 z values
    q = mp.mpf("0.2")
    theta_ok = True
    with ctx.guardprec():
        for i in range(10):
            z = mp.mpf(i) / 10 * mp.pi + mp.mpf("0.03")
            theta_ok = theta_ok and rel_to(sv.theta4(z + mp.pi, q, ctx), sv.theta4(z, q, ctx)) < TOL30
            theta_ok = theta_ok and rel_to(sv.theta1(z + mp.pi, q, ctx), -sv.theta1(z, q, ctx)) < TOL30
            theta_ok = theta_ok and rel_to(sv.theta4(-z, q, ctx), sv.theta4(z, q, ctx)) < TOL30
            theta_ok = theta_ok and rel_to(sv.theta1(-z, q, ctx), -sv.theta1(z, q, ctx)) < TOL30

    ctx512 = sv.PrecisionContext(512)
    with ctx512.guardprec():
        q15 = mp.mpf("0.15")
    fd = oracles.central_diff(
        lambda z: sv.theta1(z, q15, ctx512), 0, mp.mpf("1e-15"), bits=1024
    )
    prime_ok = rel_to(sv.theta1_prime0(q15, ctx512), fd) < mp.mpf("1e-20")

    ok = moments_ok and theta_ok and prime_ok
    record(
        "11 (special functions)",
        ok,
        f"worst moment rel {mp.nstr(worst, 3)}, theta suite {theta_ok}, "
        f"theta1'(0) FD {prime_ok}",
    )


def test_criterion_12_critical_line_continuity():
    ctx = sv.PrecisionContext(256)
    with ctx.guardprec():
        g = mp.mpf("1e-4")
        # FE-D line at alpha = 3
        pf = sv.PhaseParams(sv.Phase.FERROELECTRIC, t=3 * g, gamma=g)
        wf = sv.weights_from_params(pf, ctx)
        zf = sv.zn_ik(pf, 3, ctx).zn / sv.to_mpf(wf.c) ** 9
        df = rel_to(zf, sv.zn_crit_fd(3, 3, ctx).zn)
        # AF-D line at alpha = 1/3
        alpha = mp.mpf(1) / 3
        pa = sv.PhaseParams(sv.Phase.ANTIFERROELECTRIC, t=alpha * g, gamma=g)
        wa = sv.weights_from_params(pa, ctx)
        za = sv.zn_ik(pa, 3, ctx).zn / sv.to_mpf(wa.c) ** 9
        da = rel_to(za, sv.zn_crit_afd(3, alpha, ctx).zn)
    ok = df < mp.mpf("1e-3") and da < mp.mpf("1e-3")
    record(
        "12 (critical-line continuity)",
        ok,
        f"FE-D rel {mp.nstr(df, 3)}, AF-D rel {mp.nstr(da, 3)}",
    )
