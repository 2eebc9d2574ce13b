"""Privacy-loss evaluation, general budget zeta, composition and bounds.

The general budget of a mechanism is ``zeta = ln E[exp |L|]`` where ``L`` is
the per-outcome log-ratio of output probabilities on neighboring databases.
It equals epsilon for the plain geometric mechanism, lies between the two
parameters for the mixtures, and adds under composition.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import BoundNotApplicableError, InvalidParameterError
from .mechanisms import GeometricMixture, MechanismSpec, MixtureParams, lapmix_constants

__all__ = [
    "BudgetLedger",
    "privacy_loss",
    "zeta_closed_form",
    "zeta_empirical",
    "compose",
    "equivalent_epsilon",
    "usefulness_bound",
]

# Largest rounded-Laplace target: the first Newton denominator, ~6 e^target, stays finite.
_RLAP_MAX_ZETA = math.log(sys.float_info.max) - 2.0


@dataclass(frozen=True)
class BudgetLedger:
    """Append-only record of general-budget charges; totals add exactly."""

    entries: tuple[tuple[str, float], ...] = ()

    @property
    def total(self) -> float:
        return float(sum(zeta for _, zeta in self.entries))


def compose(ledger: BudgetLedger, zeta: float, label: str) -> BudgetLedger:
    """Append a charge; the total grows by exactly zeta (basic composition)."""
    if not (zeta > 0 and math.isfinite(zeta)):
        raise InvalidParameterError(f"zeta must be positive and finite, got {zeta!r}")
    return BudgetLedger(ledger.entries + ((label, float(zeta)),))


def _log_ratio_abs(p_shifted: float, p_at: float) -> float:
    """|ln(p_shifted / p_at)| with the zero-probability conventions."""
    if p_at == 0.0 and p_shifted == 0.0:
        return math.nan
    if p_at == 0.0 or p_shifted == 0.0:
        return math.inf
    return abs(math.log(p_shifted / p_at))


def privacy_loss(spec: MechanismSpec, outcome_noise, shift: int = 1) -> float:
    """Per-outcome privacy loss |ln P[noise = outcome -+ shift] / P[noise = outcome]|.

    Both shift directions are evaluated and the larger magnitude returned.
    A zero-probability denominator against a positive numerator reports an
    infinite loss (the truncated-mechanism pathology); nan means the outcome
    is impossible under every involved distribution.
    """
    p_here = float(spec.prob(outcome_noise))
    losses = [
        _log_ratio_abs(float(spec.prob(outcome_noise - shift)), p_here),
        _log_ratio_abs(float(spec.prob(outcome_noise + shift)), p_here),
    ]
    if all(math.isnan(v) for v in losses):
        return math.nan
    return max(v for v in losses if not math.isnan(v))


def zeta_closed_form(spec: MechanismSpec) -> float:
    """General privacy budget from the closed forms (unit-shift count setting)."""
    return spec.zeta()


def _zeta_discrete_exact(spec: MechanismSpec, shift: int) -> float:
    """Exact E[exp |L|] for integer-output mechanisms.

    The sum runs over a finite window around the break-point; beyond it the
    loss is the constant outer rate, so the two tails contribute analytically
    through the CDF (no truncation error).
    """
    ct, rate = spec.loss_tail()
    lo, hi = -(ct + shift + 1), ct + shift + 1
    ks = np.arange(lo, hi + 1)
    pk = np.asarray(spec.prob(ks), dtype=float)
    total = 0.0
    for k, p in zip(ks, pk):
        if p == 0.0:
            continue
        loss = _log_ratio_abs(float(spec.prob(k - shift)), p)
        total += math.exp(loss) * p
    outer = math.exp(shift * rate)
    total += outer * (spec.cdf(lo - 1) + (1.0 - spec.cdf(hi)))
    return math.log(total)


def _zeta_continuous_quadrature(spec: MechanismSpec, shift: int) -> float:
    """Definitional zeta for continuous mechanisms by adaptive quadrature."""
    from scipy import integrate  # here, so that importing pwmix does not load scipy

    ct, rate = spec.loss_tail()
    lo, hi = -ct - shift, ct + shift
    breakpoints = [-ct, -ct + shift, 0.0, float(shift), ct, ct + shift]

    def integrand(x: float) -> float:
        p = float(spec.prob(x))
        ps = float(spec.prob(x - shift))
        return math.exp(_log_ratio_abs(ps, p)) * p

    total = 0.0
    pts = sorted({lo, hi, *(b for b in breakpoints if lo < b < hi)})
    for a, b in zip(pts[:-1], pts[1:]):
        val, _ = integrate.quad(integrand, a, b, limit=200, epsabs=1e-12, epsrel=1e-11)
        total += val
    total += math.exp(shift * rate) * (spec.cdf(lo) + (1.0 - spec.cdf(hi)))
    return math.log(total)


def zeta_empirical(spec: MechanismSpec, shift: int = 1) -> float:
    """General budget evaluated from its definition, ln sum exp(|L|) P.

    Integer-output mechanisms are summed exactly (constant-loss tails folded
    in analytically); continuous mechanisms are integrated by quadrature.  A
    mechanism with unbounded worst-case loss has an infinite budget.
    """
    if math.isinf(spec.worst_case_eps()):
        return math.inf
    if spec.integer:
        return _zeta_discrete_exact(spec, shift)
    return _zeta_continuous_quadrature(spec, shift)


def equivalent_epsilon(target_zeta: float, family: str) -> float:
    """Standard-mechanism epsilon whose zeta matches the target.

    For the geometric mechanism zeta equals epsilon.  The rounded-Laplace
    closed form is inverted exactly: it is ln((5 - z + z^2 - z^3) / (2z(1+z)))
    in z = exp(-eps/2), so z is the root in (0, 1) of the increasing, convex
    cubic z^3 + (2Z-1) z^2 + (2Z+1) z - 5, Z = exp(target), onto which
    Newton's method from z = 1 falls monotonically.  Targets in
    (1.1e-16, ln(DBL_MAX) - 2] are inverted; others raise InvalidParameterError.
    """
    if not (target_zeta > 0 and math.isfinite(target_zeta)):
        raise InvalidParameterError(f"target_zeta must be positive, got {target_zeta!r}")
    if family == "geometric":
        return float(target_zeta)
    if family != "rounded_laplace":
        raise InvalidParameterError(f"unknown family {family!r}")
    if target_zeta > _RLAP_MAX_ZETA:
        raise InvalidParameterError(f"target_zeta {target_zeta!r} exceeds {_RLAP_MAX_ZETA:.6g}")
    two_big_z = 2.0 * math.exp(target_zeta)
    z = 1.0
    while True:  # until z stops falling; every term is positive, so nothing cancels
        step = (2.0 * z**3 + (two_big_z - 1.0) * z * z + 5.0) / (
            3.0 * z * z + 2.0 * (two_big_z - 1.0) * z + two_big_z + 1.0
        )
        if step >= z:
            break
        z = step
    if z == 1.0:
        raise InvalidParameterError(
            f"target_zeta {target_zeta!r} is too small: exp(-eps/2) rounds to 1"
        )
    return -2.0 * math.log(z)


def usefulness_bound(
    params: MixtureParams, k: int, delta: float, *, family: str = "laplace"
) -> float:
    """Accuracy radius t with P[max of k i.i.d. draws >= t] <= delta.

    Valid in the regime where the radius clears the break-point (raises
    BoundNotApplicableError otherwise).  The Laplace-mixture radius is
    ``ln(k a1 / delta) / (r eps)`` and is tight per coordinate.
    For the geometric mixture the radius must land on an integer; it is
    raised to the smallest integer whose exact two-sided tail mass is below
    delta / k, which is the nearest point at which the guarantee holds.
    """
    if not (0.0 < delta < 1.0):
        raise InvalidParameterError(f"delta must lie in (0, 1), got {delta!r}")
    if k < 1 or k != int(k):
        raise InvalidParameterError(f"k must be a positive integer, got {k!r}")
    if family == "laplace":
        a1 = lapmix_constants(params).a1
        radius = math.log(k * a1 / delta) / params.eps_r
        if radius <= params.break_point:
            raise BoundNotApplicableError(
                f"radius {radius:.4g} does not clear the break-point {params.break_point:g}"
            )
        return radius
    if family == "geometric":
        ct = params.integer_break_point()
        spec = GeometricMixture(params)
        nominal = math.log(k * spec.constants().a1 / delta) / params.eps_r
        if nominal <= ct:
            raise BoundNotApplicableError(
                f"radius {nominal:.4g} does not clear the break-point {ct}"
            )
        m = math.ceil(nominal)
        while 2.0 * spec.cdf(-m) > delta / k:
            m += 1
        return float(m)
    raise InvalidParameterError(f"unknown family {family!r}")
