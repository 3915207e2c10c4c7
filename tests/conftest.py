"""Shared fixtures and numeric helpers for the test suite."""

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

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
ROOT = Path(__file__).resolve().parents[1]


def load_file(path: Path, name: str):
    """The module at path, a script or a benchmark file, imported as name."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


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

    def contexts(p, n, bits=256):
        for ctx in ladder(p, n, bits):
            drawn.append(ctx.bits)
            yield ctx

    monkeypatch.setattr(sv.hankel, "contexts", contexts)
    return drawn


def rational_weights(a, b, c) -> sv.Weights:
    return sv.Weights(Fraction(a), Fraction(b), Fraction(c))


class RationalPoint(NamedTuple):
    """A bulk point whose x = cot or coth values x(gamma + t) and
    x(gamma - t) are rational, and with them its weights and every
    derivative of phi.  Disordered points need both cot values positive."""

    phase: sv.Phase
    x_plus: Fraction
    x_minus: Fraction
    weights: sv.Weights

    @property
    def sigma(self) -> int:
        return -1 if self.phase is sv.Phase.DISORDERED else 1

    @property
    def s(self) -> int:
        return -1 if self.phase is sv.Phase.FERROELECTRIC else 1

    def params(self, bits: int) -> sv.PhaseParams:
        """The point with t and gamma computed at ``bits`` bits."""
        arc = mp.acot if self.phase is sv.Phase.DISORDERED else mp.acoth
        with mp.workprec(bits):
            up = arc(sv.to_mpf(self.x_plus))
            um = arc(sv.to_mpf(self.x_minus))
            return sv.PhaseParams(self.phase, t=(up - um) / 2, gamma=(up + um) / 2)


def _hyperbolic_point(phase: sv.Phase, e_gamma: Fraction, e_t: Fraction):
    """The ferro or AF point with e^gamma and e^t rational."""

    def sinh(e):  # sinh(u) from e = e^u
        return (e - 1 / e) / 2

    def coth(e):
        return (e * e + 1) / (e * e - 1)

    s = -1 if phase is sv.Phase.FERROELECTRIC else 1
    weights = sv.Weights(
        s * sinh(e_gamma / e_t), sinh(e_gamma * e_t), sinh(e_gamma * e_gamma)
    )
    return RationalPoint(phase, coth(e_gamma * e_t), coth(e_gamma / e_t), weights)


RATIONAL_POINTS = {
    # (a, b, c) = (3/5, 12/13, 63/65): cot(gamma - t) = 4/3, cot(gamma + t) = 5/12
    "disordered": RationalPoint(
        sv.Phase.DISORDERED, Fraction(5, 12), Fraction(4, 3),
        rational_weights("3/5", "12/13", "63/65"),
    ),
    "ferro": _hyperbolic_point(sv.Phase.FERROELECTRIC, Fraction(2), Fraction(5)),
    "af": _hyperbolic_point(sv.Phase.ANTIFERROELECTRIC, Fraction(3), Fraction(2)),
    # coth(gamma + t) and coth(gamma - t) lie within 2^-9 of 1 and -1
    "ferro-far": _hyperbolic_point(
        sv.Phase.FERROELECTRIC, Fraction(6, 5), Fraction(50)
    ),
}
