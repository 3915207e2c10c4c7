"""Vertex weights, the anisotropy parameter, phase classification, and the
standard trigonometric/hyperbolic parameterizations of the weights.

Exact (rational) inputs stay exact wherever the formulas are rational;
everything else is evaluated with mpmath at an explicitly passed precision.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Union

from mpmath import mp
from mpmath.libmp import from_rational, round_nearest

from .errors import ParameterDomainError

Real = Union[int, float, Fraction, "mp.mpf"]


class Phase(str, Enum):
    DISORDERED = "disordered"
    FERROELECTRIC = "ferroelectric"
    ANTIFERROELECTRIC = "antiferroelectric"
    CRITICAL_FD = "critical-fd"
    CRITICAL_AFD = "critical-afd"


class _SlotRecord:
    """Immutable record of the fields named in ``__slots__``: equality, hash,
    repr, copy and pickle go by the fields, as for a frozen dataclass, and
    copy and pickle rebuild the record through its constructor.

    The records that check their fields use it rather than a NamedTuple,
    whose ``_make`` and ``_replace`` skip the check and whose defaults
    introspection (``hypothesis.strategies.builds``) does not see; so do the
    sequences, whose ``len``, ``[k]`` and iteration are over their values."""

    __slots__ = ()

    def __init__(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._astuple()


class PrecisionContext(_SlotRecord):
    """Working precision, the precision of the verification rerun, and the
    relative error a verified result claims.

    ``bits`` is the working mantissa size.  Without a ``claim`` the guard
    rerun runs at ``guard_bits = bits * verify_factor`` and a result claims
    2^(-bits/2).  A rung of the precision ladder (``hankel.contexts``)
    carries the claim it was sized for instead: its guard rerun runs at
    bits + 64 and its results claim 2^(-claim).  Either way a disagreement
    between the two levels beyond the claim flags a genuine precision
    failure.  All three fields are ints (claim may be None).
    """

    __slots__ = ("bits", "verify_factor", "claim")

    def __init__(self, bits: int = 256, verify_factor: int = 2, claim: Optional[int] = None):
        super().__init__(bits, verify_factor, claim)
        for name in self.__slots__:
            value = getattr(self, name)
            if type(value) is not int and not (name == "claim" and value is None):
                raise ParameterDomainError(f"{name} must be an int, got {value!r}")
        if self.bits < 64:
            raise ParameterDomainError(f"bits >= 64 required, got {self.bits}")
        if self.verify_factor < 2:
            raise ParameterDomainError(
                f"verify_factor >= 2 required, got {self.verify_factor}"
            )
        if self.claim is not None and not 0 < self.claim < self.bits:
            raise ParameterDomainError(
                f"0 < claim < bits required, got claim={self.claim}, bits={self.bits}"
            )

    @property
    def claim_bits(self) -> int:
        """Bits of relative accuracy a verified result claims."""
        return self.bits // 2 if self.claim is None else self.claim

    @property
    def guard_bits(self) -> int:
        if self.claim is None:
            return self.bits * self.verify_factor
        return self.bits + 64

    @property
    def dps(self) -> int:
        """Decimal digits carried by ``bits`` mantissa bits."""
        return int(self.bits * 0.3010299956639812) + 2

    def guardprec(self):
        return mp.workprec(self.guard_bits)

    def verify_tolerance(self):
        """Relative agreement required between base and guard runs:
        2^(-claim_bits)."""
        with mp.workprec(64):
            return mp.mpf(2) ** (-self.claim_bits)


DEFAULT_CONTEXT = PrecisionContext()


def _is_inf(x) -> bool:
    """Whether x is +-inf: only a float or an mpf can be."""
    return isinstance(x, (float, mp.mpf)) and mp.isinf(x)


def is_rational(x) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def exact_or_mpf(x):
    """Fraction(x) for an int or Fraction x, so arithmetic on it stays exact; else to_mpf(x)."""
    return Fraction(x) if is_rational(x) else to_mpf(x)


def to_mpf(x) -> "mp.mpf":
    """Convert to mpf at the ambient precision.

    Values that are already mpf pass through unrounded; a Fraction is
    rounded once, to nearest.
    """
    if isinstance(x, mp.mpf):
        return x
    if isinstance(x, Fraction):
        return mp.make_mpf(from_rational(x.numerator, x.denominator, mp.prec, round_nearest))
    return mp.mpf(x)


class Weights(_SlotRecord):
    """The (a, b, c) triple of positive, finite vertex weights."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a: Real, b: Real, c: Real):
        super().__init__(a, b, c)
        for name in self.__slots__:
            x = getattr(self, name)
            if not x > 0:
                raise ParameterDomainError(f"weight {name} > 0 required, got {x}")
            if _is_inf(x):
                raise ParameterDomainError(f"weight {name} must be finite, got {x}")

    @property
    def is_rational(self) -> bool:
        return all(is_rational(x) for x in (self.a, self.b, self.c))

    def as_mpf(self):
        return to_mpf(self.a), to_mpf(self.b), to_mpf(self.c)


class PhaseClassification(NamedTuple):
    delta: Real
    phase: Phase
    borderline: bool


def delta(w: Weights, ctx: Optional[PrecisionContext] = None) -> Real:
    """Anisotropy (a^2 + b^2 - c^2) / (2ab); exact for rational weights."""
    if w.is_rational:
        a, b, c = Fraction(w.a), Fraction(w.b), Fraction(w.c)
        return (a * a + b * b - c * c) / (2 * a * b)
    ctx = ctx or DEFAULT_CONTEXT
    with ctx.guardprec():
        a, b, c = w.as_mpf()
        return (a * a + b * b - c * c) / (2 * a * b)


def classify(w: Weights, ctx: Optional[PrecisionContext] = None) -> PhaseClassification:
    """Phase of a weight triple from the sign of delta against +-1.

    Rational weights are classified exactly.  Floating weights use a relative
    tolerance of 2^(-bits/2) on |delta -+ 1|; a hit inside the tolerance band
    that is not an exact equality is reported with ``borderline=True``.
    """
    ctx = ctx or DEFAULT_CONTEXT
    d = delta(w, ctx)
    if w.is_rational:
        if d == 1:
            return PhaseClassification(d, Phase.CRITICAL_FD, False)
        if d == -1:
            return PhaseClassification(d, Phase.CRITICAL_AFD, False)
    else:
        with ctx.guardprec():
            tol = ctx.verify_tolerance() * max(mp.mpf(1), abs(d))
            if abs(d - 1) <= tol:
                return PhaseClassification(d, Phase.CRITICAL_FD, d != 1)
            if abs(d + 1) <= tol:
                return PhaseClassification(d, Phase.CRITICAL_AFD, d != -1)
    if d > 1:
        return PhaseClassification(d, Phase.FERROELECTRIC, False)
    if d < -1:
        return PhaseClassification(d, Phase.ANTIFERROELECTRIC, False)
    return PhaseClassification(d, Phase.DISORDERED, False)


class PhaseParams(_SlotRecord):
    """Phase tag plus its finite parameters: (t, gamma) for the three bulk
    phases, alpha for the two critical lines.

    Domains enforced at construction (the rows of ``_PHASE_RULES``):
      disordered          0 < gamma < pi/2 and |t| < gamma
      ferroelectric       0 < gamma < t           (b > a + c branch)
      antiferroelectric   gamma > 0 and |t| < gamma
      critical-fd         alpha > 1
      critical-afd        -1 < alpha < 1
    """

    __slots__ = ("phase", "t", "gamma", "alpha")

    def __init__(
        self,
        phase: Phase,
        t: Optional[Real] = None,
        gamma: Optional[Real] = None,
        alpha: Optional[Real] = None,
    ):
        super().__init__(phase, t, gamma, alpha)
        given = {k: x for k, x in zip(("t", "gamma", "alpha"), (t, gamma, alpha)) if x is not None}
        for name, x in given.items():
            if _is_inf(x):
                raise ParameterDomainError(f"{name} must be finite, got {x}")
        rule = _PHASE_RULES[phase]
        if tuple(given) != rule.params:
            takes, got = " and ".join(rule.params), ", ".join(given) or "none"
            raise ParameterDomainError(f"{phase.value} takes {takes}, got {got}")
        if not rule.holds(**given):
            got = ", ".join(f"{k}={x}" for k, x in given.items())
            raise ParameterDomainError(f"{phase.value} requires {rule.domain}, got {got}")

    def shifted_t(self, dt) -> "PhaseParams":
        """Same phase and gamma with t moved by dt (domain re-checked)."""
        return PhaseParams(self.phase, t=to_mpf(self.t) + dt, gamma=self.gamma)


class BulkChart(NamedTuple):
    """The (t, gamma) chart of one bulk phase:

        a = s f(gamma - t),  b = f(gamma + t),  c = f(2 gamma)

    with f = sin or sinh, x = f'/f = cot or coth obeying x' = sigma - x^2, and
    s = -1 only on the ferroelectric (b > a + c) branch.  Then
    phi = c/(ab) = s (x(gamma - t) + x(gamma + t)).
    """

    f: Callable
    x: Callable
    sigma: int
    s: int


def _below_half_pi(g) -> bool:
    """g < pi/2, decided 128 bits past g's own size: an mpf g is held exactly."""
    size = g.bc if isinstance(g, mp.mpf) else sum(map(int.bit_length, g.as_integer_ratio()))
    with mp.workprec(128 + size):
        return to_mpf(g) < mp.pi / 2


class _PhaseRule(NamedTuple):
    """One phase's row: the parameters it takes, its domain (the text errors and
    the ``PhaseParams`` docstring print, and its test), a bulk phase's chart,
    and the bits per n that the Chebyshev norms of its moments lose
    (``hankel.predicted_loss``), a function of the point."""

    params: tuple
    domain: str
    holds: Callable
    chart: Optional[BulkChart] = None
    loss: Callable = lambda p: 3.5


_PHASE_RULES = {
    Phase.DISORDERED: _PhaseRule(
        ("t", "gamma"), "0 < gamma < pi/2 and |t| < gamma",
        lambda t, gamma: 0 < gamma and abs(t) < gamma and _below_half_pi(gamma),
        BulkChart(mp.sin, mp.cot, -1, 1)),
    Phase.FERROELECTRIC: _PhaseRule(
        ("t", "gamma"), "0 < gamma < t", lambda t, gamma: 0 < gamma < t,
        BulkChart(mp.sinh, mp.coth, 1, -1),
        lambda p: max(3.5, 2 * float(to_mpf(p.t) - to_mpf(p.gamma)) * math.log2(math.e) + 1)),
    Phase.ANTIFERROELECTRIC: _PhaseRule(
        ("t", "gamma"), "gamma > 0 and |t| < gamma", lambda t, gamma: gamma > 0 and abs(t) < gamma,
        BulkChart(mp.sinh, mp.coth, 1, 1)),
    Phase.CRITICAL_FD: _PhaseRule(("alpha",), "alpha > 1", lambda alpha: alpha > 1),
    Phase.CRITICAL_AFD: _PhaseRule(("alpha",), "-1 < alpha < 1", lambda alpha: -1 < alpha < 1),
}


def bulk_chart(p: PhaseParams) -> BulkChart:
    """The chart of p's bulk phase; the critical lines have none."""
    chart = _PHASE_RULES[p.phase].chart
    if chart is None:
        raise ParameterDomainError(f"{p.phase.value} has no (t, gamma) weight chart")
    return chart


def weights_from_params(
    p: PhaseParams, ctx: Optional[PrecisionContext] = None
) -> Weights:
    """Weights of the standard parameterization for the bulk phases
    (see ``BulkChart``):

    disordered          a = sin(gamma - t),  b = sin(gamma + t),  c = sin(2 gamma)
    ferroelectric       a = sinh(t - gamma), b = sinh(t + gamma), c = sinh(2 gamma)
    antiferroelectric   a = sinh(gamma - t), b = sinh(gamma + t), c = sinh(2 gamma)

    The critical lines have no finite (t, gamma) chart; use the dedicated
    critical-line partition functions instead.
    """
    chart = bulk_chart(p)
    ctx = ctx or DEFAULT_CONTEXT
    with ctx.guardprec():
        t, g = to_mpf(p.t), to_mpf(p.gamma)
        return Weights(chart.s * chart.f(g - t), chart.f(g + t), chart.f(2 * g))


def normalize(w: Weights, ctx: Optional[PrecisionContext] = None):
    """Rescale to c = 1.  Returns ((a/c, b/c, 1), scale) with scale = c, so
    Z_n(a, b, c) = scale^(n^2) * Z_n(a/c, b/c, 1)."""
    if w.is_rational:
        a, b, c = Fraction(w.a), Fraction(w.b), Fraction(w.c)
        return Weights(a / c, b / c, Fraction(1)), c
    ctx = ctx or DEFAULT_CONTEXT
    with ctx.guardprec():
        a, b, c = w.as_mpf()
        return Weights(a / c, b / c, mp.mpf(1)), c
