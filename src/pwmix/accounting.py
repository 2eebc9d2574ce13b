"""Privacy-loss evaluation, general budget zeta, composition and bounds.

The general budget of a mechanism is ``zeta = ln E[exp |L|]`` where ``L`` is
the per-outcome log-ratio of output probabilities on neighboring databases.
It equals epsilon for the plain geometric mechanism, lies between the two
parameters for the mixtures, and adds under composition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BoundNotApplicableError,
    InvalidParameterError,
    SolverError,
    UnsupportedSpecError,
)
from .mechanisms import (
    Geometric,
    GeometricMixture,
    Laplace,
    LaplaceMixture,
    MechanismSpec,
    MixtureParams,
    RoundedLaplace,
    TruncatedLaplace,
    ZeroNoise,
    geomix_cdf,
    geomix_constants,
    geomix_pmf,
    geometric_pmf,
    laplace_cdf,
    lapmix_cdf,
    lapmix_constants,
    lapmix_pdf,
    laplace_pdf,
    mechanism_label,
    rounded_laplace_pmf,
)

__all__ = [
    "BudgetLedger",
    "PrivacyReport",
    "privacy_loss",
    "worst_case_eps",
    "zeta_closed_form",
    "zeta_empirical",
    "compose",
    "equivalent_epsilon",
    "usefulness_bound",
    "privacy_report",
]


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


def _noise_pmf(spec: MechanismSpec, k):
    if isinstance(spec, Geometric):
        return geometric_pmf(k, spec.alpha)
    if isinstance(spec, GeometricMixture):
        return geomix_pmf(k, spec.params)
    if isinstance(spec, RoundedLaplace):
        return rounded_laplace_pmf(k, spec.scale)
    if isinstance(spec, ZeroNoise):
        ks = np.asarray(k)
        out = np.where(ks == 0, 1.0, 0.0)
        return float(out) if np.ndim(k) == 0 else out
    raise UnsupportedSpecError(f"{spec!r} has no integer mass function")


def _noise_pdf(spec: MechanismSpec, x):
    if isinstance(spec, Laplace):
        return laplace_pdf(x, spec.scale)
    if isinstance(spec, LaplaceMixture):
        return lapmix_pdf(x, spec.params)
    if isinstance(spec, TruncatedLaplace):
        norm = 1.0 - math.exp(-spec.bound / spec.scale)
        xs = np.asarray(x, dtype=float)
        dens = np.where(np.abs(xs) <= spec.bound, laplace_pdf(xs, spec.scale) / norm, 0.0)
        return float(dens) if np.ndim(x) == 0 else dens
    raise UnsupportedSpecError(f"{spec!r} has no density")


def _is_discrete(spec: MechanismSpec) -> bool:
    return isinstance(spec, (Geometric, GeometricMixture, RoundedLaplace, ZeroNoise))


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
    prob = _noise_pmf if _is_discrete(spec) else _noise_pdf
    p_here = float(prob(spec, outcome_noise))
    losses = [
        _log_ratio_abs(float(prob(spec, outcome_noise - shift)), p_here),
        _log_ratio_abs(float(prob(spec, outcome_noise + shift)), p_here),
    ]
    if all(math.isnan(v) for v in losses):
        return math.nan
    return max(v for v in losses if not math.isnan(v))


def worst_case_eps(spec: MechanismSpec) -> float:
    """Differential-privacy level of the mechanism for unit-sensitivity queries."""
    if isinstance(spec, (Laplace, RoundedLaplace)):
        return 1.0 / spec.scale
    if isinstance(spec, Geometric):
        return math.log(spec.alpha)
    if isinstance(spec, (LaplaceMixture, GeometricMixture)):
        return max(spec.params.epsilon, spec.params.eps_r)
    if isinstance(spec, (TruncatedLaplace, ZeroNoise)):
        return math.inf
    raise UnsupportedSpecError(f"no worst-case epsilon for {spec!r}")


def _zeta_rounded_laplace(eps: float) -> float:
    a = 1.0 - math.exp(-0.5 * eps)
    b = 0.5 * (math.exp(-0.5 * eps) - math.exp(-1.5 * eps))
    tails = 0.5 * math.exp(-1.5 * eps) + 0.5 * math.exp(-0.5 * eps)
    return math.log(a * a / b + a + math.exp(eps) * tails)


def _zeta_lapmix(params: MixtureParams) -> float:
    c = lapmix_constants(params)
    eps = params.epsilon / params.sensitivity
    reps = params.eps_r / params.sensitivity
    ct = params.break_point
    a = 1.0 - c.a2 * math.exp(-0.5 * eps) - 2.0 * c.k_c
    b = 0.5 * c.a2 * (math.exp(-0.5 * eps) - math.exp(-1.5 * eps))
    inner = math.exp(eps) * c.a2 * (
        0.5 * math.exp(-0.5 * eps) + 0.5 * math.exp(-1.5 * eps) - math.exp(-ct * eps)
    )
    outer = c.a1 * math.exp(-reps * (ct - 1.0))
    return math.log(a * a / b + a + inner + outer)


def _zeta_geomix(params: MixtureParams) -> float:
    c = geomix_constants(params)
    eps = params.epsilon / params.sensitivity
    reps = params.eps_r / params.sensitivity
    outer_tail = c.a1g * math.exp(-reps * params.break_point)
    return math.log(math.exp(eps) * (1.0 - outer_tail) + math.exp(reps) * outer_tail)


def zeta_closed_form(spec: MechanismSpec) -> float:
    """General privacy budget from the closed forms (unit-shift count setting).

    The plain continuous Laplace mechanism has no rounding correction; its
    budget is reported as epsilon = 1/b directly.
    """
    if isinstance(spec, Geometric):
        return math.log(spec.alpha)
    if isinstance(spec, Laplace):
        return 1.0 / spec.scale
    if isinstance(spec, RoundedLaplace):
        return _zeta_rounded_laplace(1.0 / spec.scale)
    if isinstance(spec, GeometricMixture):
        return _zeta_geomix(spec.params)
    if isinstance(spec, LaplaceMixture):
        return _zeta_lapmix(spec.params)
    if isinstance(spec, (TruncatedLaplace, ZeroNoise)):
        return math.inf
    raise UnsupportedSpecError(f"no closed-form zeta for {spec!r}")


def _zeta_discrete_exact(spec: MechanismSpec, shift: int) -> float:
    """Exact E[exp |L|] for integer-output mechanisms.

    The sum runs over a finite window around the break-point; beyond it the
    loss is the constant outer rate, so the two tails contribute analytically
    through the CDF (no truncation error).
    """
    if isinstance(spec, GeometricMixture):
        ct = spec.params.integer_break_point()
        rate = spec.params.eps_r / spec.params.sensitivity

        def cdf(x: float) -> float:
            return float(geomix_cdf(x, spec.params))

    elif isinstance(spec, Geometric):
        ct = 0
        rate = math.log(spec.alpha)
        q = 1.0 / spec.alpha

        def cdf(x: float) -> float:
            return _geometric_cdf(x, q)

    elif isinstance(spec, RoundedLaplace):
        ct = 0
        rate = 1.0 / spec.scale

        def cdf(x: float) -> float:
            return _rounded_laplace_cdf(x, 1.0 / spec.scale)

    else:
        raise UnsupportedSpecError(f"{spec!r} is not a discrete mechanism")
    lo, hi = -(ct + shift + 1), ct + shift + 1
    ks = np.arange(lo, hi + 1)
    pk = np.asarray(_noise_pmf(spec, ks), dtype=float)
    total = 0.0
    for k, p in zip(ks, pk):
        if p == 0.0:
            continue
        loss = _log_ratio_abs(float(_noise_pmf(spec, k - shift)), p)
        total += math.exp(loss) * p
    outer = math.exp(shift * rate)
    total += outer * (cdf(lo - 1) + (1.0 - cdf(hi)))
    return math.log(total)


def _geometric_cdf(x: float, q: float) -> float:
    k = math.floor(x)
    if k < 0:
        return q ** (-k) / (1.0 + q)
    return 1.0 - q ** (k + 1) / (1.0 + q)


def _rounded_laplace_cdf(x: float, eps: float) -> float:
    k = math.floor(x)
    if k < 0:
        return 0.5 * math.exp((k + 0.5) * eps)
    return 1.0 - 0.5 * math.exp(-(k + 0.5) * eps)


def _zeta_continuous_quadrature(spec: MechanismSpec, shift: int) -> float:
    """Definitional zeta for continuous mechanisms by adaptive quadrature."""
    from scipy import integrate  # here, so that importing pwmix does not load scipy

    if isinstance(spec, LaplaceMixture):
        ct = spec.params.break_point
        rate = spec.params.eps_r / spec.params.sensitivity
        breakpoints = [-ct, -ct + shift, 0.0, float(shift), ct, ct + shift]

        def cdf(x: float) -> float:
            return float(lapmix_cdf(x, spec.params))

    elif isinstance(spec, Laplace):
        ct = 0.0
        rate = 1.0 / spec.scale
        breakpoints = [0.0, float(shift)]

        def cdf(x: float) -> float:
            return float(laplace_cdf(x, spec.scale))

    else:
        raise UnsupportedSpecError(f"{spec!r} is not a continuous private mechanism")
    lo, hi = -ct - shift, ct + shift

    def integrand(x: float) -> float:
        p = float(_noise_pdf(spec, x))
        ps = float(_noise_pdf(spec, x - shift))
        return math.exp(_log_ratio_abs(ps, p)) * p

    total = 0.0
    pts = sorted({lo, hi, *(b for b in breakpoints if lo < b < hi)})
    for a, b in zip(pts[:-1], pts[1:]):
        val, _ = integrate.quad(integrand, a, b, limit=200, epsabs=1e-12, epsrel=1e-11)
        total += val
    total += math.exp(shift * rate) * (cdf(lo) + (1.0 - cdf(hi)))
    return math.log(total)


def zeta_empirical(spec: MechanismSpec, shift: int = 1) -> float:
    """General budget evaluated from its definition, ln sum exp(|L|) P.

    Integer-output mechanisms are summed exactly (constant-loss tails folded
    in analytically); continuous mechanisms are integrated by quadrature.
    """
    if isinstance(spec, (TruncatedLaplace, ZeroNoise)):
        return math.inf
    if _is_discrete(spec):
        return _zeta_discrete_exact(spec, shift)
    return _zeta_continuous_quadrature(spec, shift)


def equivalent_epsilon(target_zeta: float, family: str) -> float:
    """Standard-mechanism epsilon whose zeta matches the target.

    For the geometric mechanism zeta equals epsilon.  For the rounded Laplace
    mechanism the (strictly increasing) closed form is inverted by bisection
    to 1e-9, widening the initial [target/2, 2 target] bracket if needed.
    """
    if not (target_zeta > 0 and math.isfinite(target_zeta)):
        raise InvalidParameterError(f"target_zeta must be positive, got {target_zeta!r}")
    if family == "geometric":
        return float(target_zeta)
    if family != "rounded_laplace":
        raise InvalidParameterError(f"unknown family {family!r}")
    lo, hi = target_zeta / 2.0, 2.0 * target_zeta
    for _ in range(80):
        if _zeta_rounded_laplace(lo) <= target_zeta:
            break
        lo /= 2.0
    else:
        raise SolverError(f"could not bracket below: zeta({lo}) > {target_zeta}")
    for _ in range(80):
        if _zeta_rounded_laplace(hi) >= target_zeta:
            break
        hi *= 2.0
    else:
        raise SolverError(f"could not bracket above: zeta({hi}) < {target_zeta}")
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if _zeta_rounded_laplace(mid) < target_zeta:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def usefulness_bound(
    params: MixtureParams, k: int, delta: float, *, family: str = "laplace"
) -> float:
    """Accuracy radius t with P[max of k i.i.d. draws >= t] <= delta.

    Valid in the regime where the radius clears the break-point (raises
    BoundNotApplicableError otherwise).  The Laplace-mixture radius is
    ``ln(k a1 / delta) * sensitivity / (r eps)`` and is tight per coordinate.
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
        radius = math.log(k * a1 / delta) * params.sensitivity / params.eps_r
        if radius <= params.break_point:
            raise BoundNotApplicableError(
                f"radius {radius:.4g} does not clear the break-point {params.break_point:g}"
            )
        return radius
    if family == "geometric":
        ct = params.integer_break_point()
        c = geomix_constants(params)
        q1 = 1.0 / params.outer_alpha
        rate = params.eps_r / params.sensitivity
        nominal = math.log(k * c.a1g / delta) / rate
        if nominal <= ct:
            raise BoundNotApplicableError(
                f"radius {nominal:.4g} does not clear the break-point {ct}"
            )
        m = math.ceil(nominal)
        while 2.0 * c.a1g * q1**m / (1.0 + q1) > delta / k:
            m += 1
        return float(m)
    raise InvalidParameterError(f"unknown family {family!r}")


@dataclass(frozen=True)
class PrivacyReport:
    """Worst-case epsilon, general budget and a window of per-outcome losses."""

    mechanism: str
    worst_case_eps: float
    zeta: float
    per_outcome_losses: dict = field(default_factory=dict)


def privacy_report(spec: MechanismSpec, shift: int = 1, window: int | None = None) -> PrivacyReport:
    """Summarize the privacy characteristics of a mechanism."""
    if window is None:
        ct = 0.0
        if isinstance(spec, (LaplaceMixture, GeometricMixture)):
            ct = spec.params.break_point
        elif isinstance(spec, TruncatedLaplace):
            ct = spec.bound
        window = int(math.ceil(ct)) + shift + 2
    losses = {
        int(k): privacy_loss(spec, int(k), shift) for k in range(-window, window + 1)
    }
    try:
        zeta = zeta_closed_form(spec)
    except UnsupportedSpecError:
        zeta = zeta_empirical(spec, shift)
    return PrivacyReport(
        mechanism=mechanism_label(spec),
        worst_case_eps=worst_case_eps(spec),
        zeta=zeta,
        per_outcome_losses=losses,
    )
