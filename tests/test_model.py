"""Weights, anisotropy, phase classification, and the weight charts."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st
from mpmath import mp

import sixvertex as sv
from sixvertex.errors import ParameterDomainError

from conftest import CTX256, rel_to


def test_delta_equal_weights_is_half():
    assert sv.delta(sv.Weights(1, 1, 1)) == Fraction(1, 2)


def test_delta_free_fermion_zero():
    with CTX256.guardprec():
        w = sv.Weights(mp.mpf(1), mp.mpf(1), mp.sqrt(2))
    d = sv.delta(w, CTX256)
    assert abs(d) < mp.mpf("1e-70")


def test_delta_ferro_parameterization_gives_cosh2():
    # weights (sinh 1, sinh 3, sinh 2) sit at delta = cosh 2
    with CTX256.guardprec():
        w = sv.Weights(mp.sinh(1), mp.sinh(3), mp.sinh(2))
        ref = mp.cosh(2)
    assert rel_to(sv.delta(w, CTX256), ref) < mp.mpf("1e-70")
    assert rel_to(sv.delta(w, CTX256), mp.mpf("3.7621956910836")) < mp.mpf("1e-12")


@pytest.mark.parametrize(
    "a,b,c,phase",
    [
        (1, 1, 1, sv.Phase.DISORDERED),
        (1, Fraction(5, 2), 1, sv.Phase.FERROELECTRIC),
        (Fraction(3, 10), Fraction(3, 10), 1, sv.Phase.ANTIFERROELECTRIC),
    ],
)
def test_classify_phase_examples(a, b, c, phase):
    assert sv.classify(sv.Weights(a, b, c)).phase is phase


def test_classify_critical_exact_rational():
    # a + b = c exactly: delta = -1
    res = sv.classify(sv.Weights(Fraction(1, 3), Fraction(2, 3), 1))
    assert res.phase is sv.Phase.CRITICAL_AFD
    assert res.delta == -1
    assert not res.borderline
    # b - a = c exactly: delta = +1
    res = sv.classify(sv.Weights(Fraction(1, 2), Fraction(3, 2), 1))
    assert res.phase is sv.Phase.CRITICAL_FD
    assert res.delta == 1


def test_classify_borderline_flag_on_floats():
    with CTX256.guardprec():
        eps = mp.mpf(2) ** (-200)  # inside the 2^(-128) tolerance band
        w = sv.Weights(mp.mpf(1) / 2 + eps, mp.mpf(3) / 2, mp.mpf(1))
    res = sv.classify(w, CTX256)
    assert res.phase is sv.Phase.CRITICAL_FD
    assert res.borderline


def test_classify_borderline_flag_next_to_minus_one():
    # c = 2 + 2^-200 puts delta 2^-199 below -1, inside the 2^-150 band
    ctx = sv.PrecisionContext(300)
    with mp.workprec(300):
        w = sv.Weights(mp.mpf(1), mp.mpf(1), 2 + mp.mpf(2) ** -200)
    res = sv.classify(w, ctx)
    assert res.phase is sv.Phase.CRITICAL_AFD
    assert res.borderline


def test_weights_from_params_disordered_pi3():
    with CTX256.guardprec():
        p = sv.PhaseParams(sv.Phase.DISORDERED, t=mp.mpf(0), gamma=mp.pi / 3)
        ref = mp.sqrt(3) / 2
    w = sv.weights_from_params(p, CTX256)
    for x in (w.a, w.b, w.c):
        assert rel_to(x, ref) < mp.mpf("1e-70")


def test_weights_from_params_ferro():
    with CTX256.guardprec():
        p = sv.PhaseParams(sv.Phase.FERROELECTRIC, t=mp.mpf(2), gamma=mp.mpf(1))
    w = sv.weights_from_params(p, CTX256)
    with CTX256.guardprec():
        assert rel_to(w.a, mp.sinh(1)) < mp.mpf("1e-70")
        assert rel_to(w.b, mp.sinh(3)) < mp.mpf("1e-70")
        assert rel_to(w.c, mp.sinh(2)) < mp.mpf("1e-70")


def test_weights_from_params_af():
    with CTX256.guardprec():
        p = sv.PhaseParams(
            sv.Phase.ANTIFERROELECTRIC, t=mp.mpf("0.3"), gamma=mp.mpf(1)
        )
    w = sv.weights_from_params(p, CTX256)
    with CTX256.guardprec():
        assert rel_to(w.a, mp.sinh(mp.mpf("0.7"))) < mp.mpf("1e-70")
        assert rel_to(w.b, mp.sinh(mp.mpf("1.3"))) < mp.mpf("1e-70")
        assert rel_to(w.c, mp.sinh(2)) < mp.mpf("1e-70")


def test_weights_from_params_rejects_critical():
    p = sv.PhaseParams(sv.Phase.CRITICAL_FD, alpha=3)
    with pytest.raises(ParameterDomainError):
        sv.weights_from_params(p)


@pytest.mark.parametrize(
    "phase,kwargs",
    [
        (sv.Phase.DISORDERED, dict(t=1.0, gamma=0.5)),  # |t| >= gamma
        (sv.Phase.DISORDERED, dict(t=0.0, gamma=1.6)),  # gamma >= pi/2
        (sv.Phase.FERROELECTRIC, dict(t=1.0, gamma=2.0)),  # gamma >= t
        (sv.Phase.ANTIFERROELECTRIC, dict(t=2.0, gamma=1.0)),
        (sv.Phase.CRITICAL_FD, dict(alpha=1.0)),
        (sv.Phase.CRITICAL_AFD, dict(alpha=1.0)),
        (sv.Phase.CRITICAL_FD, dict(t=2.0, gamma=1.0)),
        (sv.Phase.DISORDERED, dict(t=0.0, gamma=1.0, alpha=3.0)),  # a bulk phase given alpha
        (sv.Phase.CRITICAL_AFD, dict(t=0.5)),  # a critical line given only t
    ],
)
def test_phase_params_domain_rejections(phase, kwargs):
    with pytest.raises(ParameterDomainError):
        sv.PhaseParams(phase, **kwargs)


def _exact_fraction(x) -> Fraction:
    sign, man, exp, _ = x._mpf_
    return Fraction(-man if sign else man) * Fraction(2) ** exp


def test_disordered_gamma_next_to_pi_half():
    # pi/2 rounded at 128 bits lies 9.4e-40 below pi/2, inside this gap
    with mp.workprec(500):
        below, above = mp.pi / 2 - mp.mpf("2.4e-40"), mp.pi / 2 + mp.mpf("2.4e-40")
    for gamma in (below, _exact_fraction(below)):
        assert sv.PhaseParams(sv.Phase.DISORDERED, t=0, gamma=gamma).gamma == gamma
    for gamma in (above, _exact_fraction(above)):
        with pytest.raises(ParameterDomainError, match="gamma < pi/2"):
            sv.PhaseParams(sv.Phase.DISORDERED, t=0, gamma=gamma)


def test_normalize_exact():
    w, scale = sv.normalize(sv.Weights(2, 3, 4))
    assert (w.a, w.b, w.c) == (Fraction(1, 2), Fraction(3, 4), Fraction(1))
    assert scale == 4
    w, scale = sv.normalize(sv.Weights(1, 1, 1))
    assert (w.a, w.b, w.c) == (Fraction(1), Fraction(1), Fraction(1))
    assert scale == 1


def test_normalize_round_trip_via_enumeration():
    # scale^(n^2) * Z(normalized) = Z(original), exactly in rationals
    n = 3
    w = sv.Weights(Fraction(2), Fraction(3), Fraction(4))
    wn, scale = sv.normalize(w)
    z_orig, _ = sv.enumerate_dfs(n, w)
    z_norm, _ = sv.enumerate_dfs(n, wn)
    assert z_orig == scale ** (n * n) * z_norm


def test_weights_must_be_positive():
    with pytest.raises(ParameterDomainError):
        sv.Weights(0, 1, 1)
    with pytest.raises(ParameterDomainError):
        sv.Weights(1, -2, 1)


@pytest.mark.parametrize("inf", [mp.inf, float("inf")])
def test_weights_and_params_must_be_finite(inf):
    for w in ((inf, 1, 1), (1, inf, 1), (1, 1, inf)):
        with pytest.raises(ParameterDomainError, match="finite"):
            sv.Weights(*w)
    for phase, kwargs in [
        (sv.Phase.FERROELECTRIC, dict(t=inf, gamma=1)),
        (sv.Phase.ANTIFERROELECTRIC, dict(t=0, gamma=inf)),
        (sv.Phase.DISORDERED, dict(t=-inf, gamma=1)),
        (sv.Phase.CRITICAL_FD, dict(alpha=inf)),
        (sv.Phase.CRITICAL_AFD, dict(alpha=-inf)),
    ]:
        with pytest.raises(ParameterDomainError, match="finite"):
            sv.PhaseParams(phase, **kwargs)


def test_library_refuses_infinite_inputs():
    # an infinite input raises, rather than giving nan, +inf, a phase or a
    # precision failure that more bits cannot mend
    for call in (
        lambda: sv.predict_crit_fd(mp.inf, 3, CTX256),
        lambda: sv.classify(sv.Weights(mp.inf, 1, 1)),
        lambda: sv.transfer_matrix_zn(3, sv.Weights(mp.inf, 1, 1)),
        lambda: sv.zn_series(sv.PhaseParams(sv.Phase.ANTIFERROELECTRIC, t=0, gamma=mp.inf), 3),
        lambda: sv.zn_series(sv.PhaseParams(sv.Phase.FERROELECTRIC, t=mp.inf, gamma=1), 3),
    ):
        with pytest.raises(ParameterDomainError, match="finite"):
            call()


@pytest.mark.parametrize(
    "kwargs", [dict(bits=256.5), dict(bits=True), dict(verify_factor=2.0),
               dict(bits=300, claim=150.5), dict(claim=Fraction(100))],
)
def test_precision_context_fields_are_ints(kwargs):
    with pytest.raises(ParameterDomainError, match="must be an int"):
        sv.PrecisionContext(**kwargs)


@pytest.mark.parametrize(
    "kwargs,match",
    [(dict(bits=256, verify_factor=1), "verify_factor >= 2"),
     (dict(bits=256, claim=0), "0 < claim < bits"),
     (dict(bits=256, claim=256), "0 < claim < bits")],
)
def test_precision_context_domain(kwargs, match):
    with pytest.raises(ParameterDomainError, match=match):
        sv.PrecisionContext(**kwargs)


def test_precision_context_is_a_value_of_its_own():
    ctx = sv.PrecisionContext(256)
    with pytest.raises(AttributeError, match="cannot delete field 'bits'"):
        del ctx.bits
    assert ctx.bits == 256
    # another type compares unequal: __eq__ returns NotImplemented for it
    assert ctx != 256 and not ctx == 256
    assert ctx.__eq__(256) is NotImplemented


# --- properties -----------------------------------------------------------

small_fractions = st.fractions(
    min_value=Fraction(1, 10), max_value=Fraction(10), max_denominator=20
)


# 10 to 700 bits, most of them wider than the precision they are rounded to
wide_ints = st.integers(10, 700).flatmap(lambda b: st.integers(2 ** (b - 1), 2**b - 1))


@given(wide_ints, wide_ints, st.booleans(), st.integers(min_value=53, max_value=308))
def test_to_mpf_rounds_a_fraction_once(num, den, negative, prec):
    # correctly rounded: within half an ulp of the exact value at prec bits
    f = Fraction(-num if negative else num, den)
    with mp.workprec(prec):
        got = sv.to_mpf(f)
    e = num.bit_length() - den.bit_length()  # floor(log2 |f|), or one above
    if abs(f) < Fraction(2) ** e:
        e -= 1
    assert abs(_exact_fraction(got) - f) <= Fraction(2) ** (e - prec)


@given(small_fractions, small_fractions, small_fractions, small_fractions)
def test_delta_scale_invariant_exact(a, b, c, lam):
    w = sv.Weights(a, b, c)
    ws = sv.Weights(a * lam, b * lam, c * lam)
    assert sv.delta(w) == sv.delta(ws)


@given(small_fractions, small_fractions, small_fractions)
def test_delta_symmetric_in_a_b(a, b, c):
    assert sv.delta(sv.Weights(a, b, c)) == sv.delta(sv.Weights(b, a, c))


disordered_params = st.tuples(
    st.floats(min_value=0.2, max_value=1.35),
    st.floats(min_value=-0.9, max_value=0.9),
).map(lambda p: (p[0], p[0] * p[1]))


@given(disordered_params)
def test_disordered_delta_identity_and_roundtrip(gt):
    gamma, t = gt
    p = sv.PhaseParams(sv.Phase.DISORDERED, t=t, gamma=gamma)
    w = sv.weights_from_params(p, CTX256)
    d = sv.delta(w, CTX256)
    with CTX256.guardprec():
        assert abs(d + mp.cos(2 * mp.mpf(gamma))) < mp.mpf("1e-70")
    assert sv.classify(w, CTX256).phase is sv.Phase.DISORDERED


@given(
    st.floats(min_value=0.05, max_value=2.0),
    st.floats(min_value=1.1, max_value=4.0),
)
def test_ferro_delta_identity_and_roundtrip(gamma, ratio):
    t = gamma * ratio
    p = sv.PhaseParams(sv.Phase.FERROELECTRIC, t=t, gamma=gamma)
    w = sv.weights_from_params(p, CTX256)
    d = sv.delta(w, CTX256)
    with CTX256.guardprec():
        assert rel_to(d, mp.cosh(2 * mp.mpf(gamma))) < mp.mpf("1e-70")
    assert sv.classify(w, CTX256).phase is sv.Phase.FERROELECTRIC


@given(
    st.floats(min_value=0.1, max_value=3.0),
    st.floats(min_value=-0.9, max_value=0.9),
)
def test_af_delta_identity_and_roundtrip(gamma, frac):
    t = gamma * frac
    p = sv.PhaseParams(sv.Phase.ANTIFERROELECTRIC, t=t, gamma=gamma)
    w = sv.weights_from_params(p, CTX256)
    d = sv.delta(w, CTX256)
    with CTX256.guardprec():
        assert rel_to(d, -mp.cosh(2 * mp.mpf(gamma))) < mp.mpf("1e-70")
    assert sv.classify(w, CTX256).phase is sv.Phase.ANTIFERROELECTRIC
