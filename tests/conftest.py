"""Shared fixtures and numeric helpers for the test suite."""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings
from mpmath import mp

import sixvertex as sv

settings.register_profile(
    "sixvertex",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("sixvertex")


CTX256 = sv.PrecisionContext(256)
CTX512 = sv.PrecisionContext(512)


def rel_to(x, ref, prec: int = 4096):
    """|x - ref| / |ref| evaluated away from both operands' precisions.

    Decimal-string references are parsed inside the high-precision block so
    frozen test values do not get truncated at the ambient precision.
    """
    with mp.workprec(prec):
        x, ref = mp.mpf(x), mp.mpf(ref)
        return abs(x - ref) / abs(ref)


def mpf_at(s, bits: int = 512):
    with mp.workprec(bits):
        return mp.mpf(s)


@pytest.fixture(scope="session")
def ctx256():
    return CTX256


@pytest.fixture(scope="session")
def ctx512():
    return CTX512


@pytest.fixture(scope="session")
def disordered_pi3():
    """Disordered phase point gamma = pi/3, t = 0 (weights all sqrt(3)/2)."""
    with CTX256.guardprec():
        return sv.PhaseParams(sv.Phase.DISORDERED, t=mp.mpf(0), gamma=mp.pi / 3)


@pytest.fixture(scope="session")
def ferro_21():
    with CTX256.guardprec():
        return sv.PhaseParams(sv.Phase.FERROELECTRIC, t=mp.mpf(2), gamma=mp.mpf(1))


@pytest.fixture(scope="session")
def af_031():
    with CTX256.guardprec():
        return sv.PhaseParams(
            sv.Phase.ANTIFERROELECTRIC, t=mp.mpf("0.3"), gamma=mp.mpf(1)
        )


@pytest.fixture
def rungs(monkeypatch):
    """Bits of each rung the precision ladder hands out during the test, in
    order; ``on_ladder`` draws a rung only when the one before it failed."""
    drawn = []
    ladder = sv.hankel.contexts

    def contexts(n, bits=256):
        for ctx in ladder(n, bits):
            drawn.append(ctx.bits)
            yield ctx

    monkeypatch.setattr(sv.hankel, "contexts", contexts)
    return drawn


def rational_weights(a, b, c) -> sv.Weights:
    return sv.Weights(Fraction(a), Fraction(b), Fraction(c))
