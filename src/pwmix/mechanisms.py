"""Mechanism parameterizations and their exact densities, mass functions and CDFs.

Five noise families are supported: the continuous Laplace mechanism, its
nearest-integer rounding, the symmetric geometric (discrete Laplace)
mechanism, and the two-piece mixture variants of the Laplace and geometric
mechanisms.  A truncated Laplace spec exists for audit demonstrations only;
it is not differentially private.

The mixtures fuse an inner distribution with privacy parameter ``epsilon``
(applied for ``|x| <= break_point``) and an outer one with parameter
``ratio * epsilon`` (beyond the break-point), with normalizing constants
chosen so the total mass is 1 and the density/step heights match at the
break-point.  Boundary convention: ``|x| == break_point`` belongs to the
inner piece.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .errors import InvalidParameterError

__all__ = [
    "MixtureParams",
    "Laplace",
    "RoundedLaplace",
    "Geometric",
    "LaplaceMixture",
    "GeometricMixture",
    "TruncatedLaplace",
    "ZeroNoise",
    "MechanismSpec",
    "LapMixtureConstants",
    "GeoMixtureConstants",
    "mechanism_label",
    "laplace_pdf",
    "laplace_cdf",
    "lapmix_constants",
    "lapmix_pdf",
    "lapmix_cdf",
    "geometric_pmf",
    "geomix_constants",
    "geomix_pmf",
    "geomix_cdf",
    "rounded_laplace_pmf",
]


def _require_positive(name: str, value: float) -> None:
    if not (value > 0 and math.isfinite(value)):
        raise InvalidParameterError(f"{name} must be a positive finite number, got {value!r}")


@dataclass(frozen=True)
class MixtureParams:
    """Parameters of a two-piece noise mixture.

    ``epsilon`` is the inner privacy parameter, ``ratio`` the factor r such
    that the outer parameter is ``r * epsilon``, ``break_point`` the fusing
    point c_t, and ``sensitivity`` the query's l1 sensitivity (1 for count
    and histogram queries).  The geometric family additionally requires an
    integer break-point.
    """

    epsilon: float
    ratio: float
    break_point: float
    sensitivity: float = 1.0

    def __post_init__(self) -> None:
        _require_positive("epsilon", self.epsilon)
        _require_positive("ratio", self.ratio)
        _require_positive("break_point", self.break_point)
        _require_positive("sensitivity", self.sensitivity)

    @property
    def eps_r(self) -> float:
        """Outer privacy parameter r * epsilon."""
        return self.ratio * self.epsilon

    @property
    def inner_scale(self) -> float:
        """Laplace scale b2 = sensitivity / epsilon used for |x| <= c_t."""
        return self.sensitivity / self.epsilon

    @property
    def outer_scale(self) -> float:
        """Laplace scale b1 = sensitivity / (r * epsilon) used beyond c_t."""
        return self.sensitivity / self.eps_r

    @property
    def inner_alpha(self) -> float:
        """Geometric decay alpha2 = exp(epsilon / sensitivity)."""
        return math.exp(self.epsilon / self.sensitivity)

    @property
    def outer_alpha(self) -> float:
        """Geometric decay alpha1 = exp(r * epsilon / sensitivity)."""
        return math.exp(self.eps_r / self.sensitivity)

    def integer_break_point(self) -> int:
        """Break-point as an integer; raises for the geometric family otherwise."""
        ct = self.break_point
        if ct != int(ct) or ct < 1:
            raise InvalidParameterError(
                f"geometric-family break_point must be a positive integer, got {ct!r}"
            )
        return int(ct)


@dataclass(frozen=True)
class Laplace:
    """Continuous Laplace mechanism with scale b (= sensitivity / epsilon)."""

    scale: float

    def __post_init__(self) -> None:
        _require_positive("scale", self.scale)


@dataclass(frozen=True)
class RoundedLaplace:
    """Laplace mechanism whose draw is rounded to the nearest integer."""

    scale: float

    def __post_init__(self) -> None:
        _require_positive("scale", self.scale)


@dataclass(frozen=True)
class Geometric:
    """Symmetric geometric mechanism with decay alpha (= exp(epsilon))."""

    alpha: float

    def __post_init__(self) -> None:
        if not (self.alpha > 1 and math.isfinite(self.alpha)):
            raise InvalidParameterError(f"alpha must exceed 1, got {self.alpha!r}")


@dataclass(frozen=True)
class LaplaceMixture:
    """Two-piece Laplace mixture mechanism (continuous output)."""

    params: MixtureParams


@dataclass(frozen=True)
class GeometricMixture:
    """Two-piece geometric mixture mechanism (integer output)."""

    params: MixtureParams

    def __post_init__(self) -> None:
        self.params.integer_break_point()


@dataclass(frozen=True)
class TruncatedLaplace:
    """Laplace noise rejected outside [-bound, bound].

    Not differentially private: neighboring counts can produce outcomes of
    zero probability under one of them, so the loss is unbounded.  Kept for
    audit demonstrations; use requires ``allow_unsafe=True``.
    """

    scale: float
    bound: float
    allow_unsafe: bool = False

    def __post_init__(self) -> None:
        _require_positive("scale", self.scale)
        _require_positive("bound", self.bound)


@dataclass(frozen=True)
class ZeroNoise:
    """Degenerate mechanism that adds no noise.  Test/debug stub; non-private."""


MechanismSpec = Union[
    Laplace,
    RoundedLaplace,
    Geometric,
    LaplaceMixture,
    GeometricMixture,
    TruncatedLaplace,
    ZeroNoise,
]

_LABELS = {
    Laplace: "laplace",
    RoundedLaplace: "rlaplace",
    Geometric: "geometric",
    LaplaceMixture: "lapmix",
    GeometricMixture: "geomix",
    TruncatedLaplace: "trunclap",
    ZeroNoise: "zero",
}


def mechanism_label(spec: MechanismSpec) -> str:
    """Short stable identifier for reports and CLI output."""
    kind = _LABELS[type(spec)]
    if isinstance(spec, (Laplace, RoundedLaplace)):
        return f"{kind}(b={spec.scale:g})"
    if isinstance(spec, Geometric):
        return f"{kind}(alpha={spec.alpha:g})"
    if isinstance(spec, (LaplaceMixture, GeometricMixture)):
        p = spec.params
        return f"{kind}(eps={p.epsilon:g},reps={p.eps_r:g},ct={p.break_point:g})"
    if isinstance(spec, TruncatedLaplace):
        return f"{kind}(b={spec.scale:g},c={spec.bound:g})"
    return kind


@dataclass(frozen=True)
class LapMixtureConstants:
    """Derived normalizers of the Laplace mixture.

    ``a1``/``a2`` scale the outer/inner density pieces, ``p1 + p2 == 2`` by
    construction, and ``k_c`` is the CDF offset that keeps the closed-form
    CDF continuous at the break-point.
    """

    a1: float
    a2: float
    p1: float
    p2: float
    k_c: float


@dataclass(frozen=True)
class GeoMixtureConstants:
    """Derived normalizers of the geometric mixture (see LapMixtureConstants)."""

    a1g: float
    a2g: float
    g1: float
    g2: float
    k_c: float


# Bounded, so that a stream of fresh parameter points cannot grow memory
# without limit; one entry is a few hundred bytes.
CONSTANTS_CACHE_SIZE = 1024


def _underflow(params: MixtureParams) -> InvalidParameterError:
    """The error for a point whose mixture mass underflows in double precision.

    The normalizers divide by the mass, and the weights they divide are at
    most 2, so a mass below the smallest normal double would divide by zero
    or overflow.
    """
    return InvalidParameterError(
        f"the mixture mass underflows at r*eps*c_t = {params.break_point / params.outer_scale:.6g}; "
        "the mixture constants are not representable in double precision"
    )


@lru_cache(maxsize=CONSTANTS_CACHE_SIZE)
def lapmix_constants(params: MixtureParams) -> LapMixtureConstants:
    """Normalizing constants (a1, a2, p1, p2, k_c) of the Laplace mixture.

    Satisfies the identities
    ``a1*exp(-ct/b1) + a2*(1 - exp(-ct/b2)) == 1`` (unit mass) and
    ``a1/(2 b1) * exp(-ct/b1) == a2/(2 b2) * exp(-ct/b2)`` (continuity).
    """
    b1, b2, ct = params.outer_scale, params.inner_scale, params.break_point
    e1 = math.exp(-ct / b1)
    e2 = math.exp(-ct / b2)
    half_density_sum = 0.5 * (e1 / b1 + e2 / b2)
    if half_density_sum == 0.0:
        raise _underflow(params)
    p1 = e2 / (b2 * half_density_sum)
    p2 = e1 / (b1 * half_density_sum)
    mass = p1 * e1 + p2 * (1.0 - e2)
    if mass < sys.float_info.min:
        raise _underflow(params)
    a1 = p1 / mass
    a2 = p2 / mass
    k_c = 0.5 * a1 * e1 - 0.5 * a2 * e2
    return LapMixtureConstants(a1=a1, a2=a2, p1=p1, p2=p2, k_c=k_c)


@lru_cache(maxsize=CONSTANTS_CACHE_SIZE)
def geomix_constants(params: MixtureParams) -> GeoMixtureConstants:
    """Normalizing constants (a1g, a2g, g1, g2, k_c) of the geometric mixture.

    Requires an integer break-point.  The constants satisfy
    ``a1g * alpha1**-ct + a2g * (1 - alpha2**-ct) == 1`` and make the inverse
    transform exact at the break-point because
    ``a1g * Geo(alpha1, ct) == a2g * Geo(alpha2, ct)``.
    """
    ct = params.integer_break_point()
    q1 = 1.0 / params.outer_alpha
    q2 = 1.0 / params.inner_alpha
    pm1 = (1.0 - q1) / (1.0 + q1) * q1**ct
    pm2 = (1.0 - q2) / (1.0 + q2) * q2**ct
    if pm1 + pm2 == 0.0:
        raise _underflow(params)
    g1 = 2.0 * pm2 / (pm1 + pm2)
    g2 = 2.0 * pm1 / (pm1 + pm2)
    mass = g1 * q1**ct + g2 * (1.0 - q2**ct)
    if mass < sys.float_info.min:
        raise _underflow(params)
    a1g = g1 / mass
    a2g = g2 / mass
    k_c = 0.5 * a1g * q1**ct - 0.5 * a2g * q2**ct
    return GeoMixtureConstants(a1g=a1g, a2g=a2g, g1=g1, g2=g2, k_c=k_c)


def _wrap(x, values):
    """Return a float for scalar input, else the ndarray."""
    if np.ndim(x) == 0:
        return float(values)
    return np.asarray(values, dtype=float)


def laplace_pdf(x, b: float):
    """Density of the zero-mean Laplace distribution, (1/2b) exp(-|x|/b)."""
    _require_positive("b", b)
    ax = np.abs(np.asarray(x, dtype=float))
    return _wrap(x, np.exp(-ax / b) / (2.0 * b))


def laplace_cdf(x, b: float):
    """CDF of the zero-mean Laplace distribution with scale b."""
    _require_positive("b", b)
    xs = np.asarray(x, dtype=float)
    lower = 0.5 * np.exp(np.minimum(xs, 0.0) / b)
    upper = 1.0 - 0.5 * np.exp(-np.maximum(xs, 0.0) / b)
    return _wrap(x, np.where(xs < 0.0, lower, upper))


def lapmix_pdf(x, params: MixtureParams):
    """Density of the Laplace mixture: inner scale b2 up to c_t, outer b1 beyond."""
    c = lapmix_constants(params)
    b1, b2, ct = params.outer_scale, params.inner_scale, params.break_point
    ax = np.abs(np.asarray(x, dtype=float))
    inner = c.a2 / (2.0 * b2) * np.exp(-ax / b2)
    outer = c.a1 / (2.0 * b1) * np.exp(-ax / b1)
    return _wrap(x, np.where(ax <= ct, inner, outer))


def lapmix_cdf(x, params: MixtureParams):
    """Closed-form CDF of the Laplace mixture; continuous everywhere."""
    c = lapmix_constants(params)
    b1, b2, ct = params.outer_scale, params.inner_scale, params.break_point
    xs = np.asarray(x, dtype=float)
    ax = np.abs(xs)
    # Evaluate the lower-half expression at -|x| and mirror for x > 0.
    lower_outer = 0.5 * c.a1 * np.exp(-ax / b1)
    lower_inner = 0.5 * c.a2 * np.exp(-ax / b2) + c.k_c
    lower = np.where(ax > ct, lower_outer, lower_inner)
    out = np.where(xs <= 0.0, lower, 1.0 - lower)
    return _wrap(x, out)


def geometric_pmf(k, alpha: float):
    """Symmetric geometric mass function ((alpha-1)/(alpha+1)) alpha**-|k|."""
    if not (alpha > 1 and math.isfinite(alpha)):
        raise InvalidParameterError(f"alpha must exceed 1, got {alpha!r}")
    ak = np.abs(np.asarray(k, dtype=float))
    if not np.all(ak == np.floor(ak)):
        raise InvalidParameterError("geometric_pmf is defined on integers only")
    coeff = (alpha - 1.0) / (alpha + 1.0)
    return _wrap(k, coeff * np.power(alpha, -ak))


def geomix_pmf(k, params: MixtureParams):
    """Mass function of the geometric mixture: alpha2 decay up to c_t, alpha1 beyond."""
    c = geomix_constants(params)
    ct = params.integer_break_point()
    a1_, a2_ = params.outer_alpha, params.inner_alpha
    ak = np.abs(np.asarray(k, dtype=float))
    if not np.all(ak == np.floor(ak)):
        raise InvalidParameterError("geomix_pmf is defined on integers only")
    inner = c.a2g * (a2_ - 1.0) / (a2_ + 1.0) * np.power(a2_, -ak)
    outer = c.a1g * (a1_ - 1.0) / (a1_ + 1.0) * np.power(a1_, -ak)
    return _wrap(k, np.where(ak <= ct, inner, outer))


def geomix_cdf(x, params: MixtureParams):
    """CDF of the geometric mixture: right-continuous step function on the reals.

    Derived as the running sum of the mass function; equal by construction to
    the cumulative sum of :func:`geomix_pmf` over integers <= x.
    """
    c = geomix_constants(params)
    ct = params.integer_break_point()
    q1 = 1.0 / params.outer_alpha
    q2 = 1.0 / params.inner_alpha
    ks = np.floor(np.asarray(x, dtype=float))
    # Lower-half formulas evaluated at -|k|-ish positions, mirrored for k >= 0:
    # P(Y <= k) for k < 0 equals P(Y >= -k) subtracted from 1 on the mirror side.
    neg = ks < 0
    m = np.where(neg, -ks, ks + 1.0)  # P(Y <= k) = P(Y >= m) on the negative side
    tail_outer = c.a1g * np.power(q1, m) / (1.0 + q1)
    tail_inner = c.a2g * np.power(q2, m) / (1.0 + q2) + c.k_c
    tail = np.where(m > ct, tail_outer, tail_inner)
    out = np.where(neg, tail, 1.0 - tail)
    return _wrap(x, out)


def rounded_laplace_pmf(k, scale: float):
    """Mass function of the nearest-integer rounding of a Laplace draw."""
    _require_positive("scale", scale)
    ak = np.abs(np.asarray(k, dtype=float))
    if not np.all(ak == np.floor(ak)):
        raise InvalidParameterError("rounded_laplace_pmf is defined on integers only")
    eps = 1.0 / scale
    center = 1.0 - math.exp(-0.5 * eps)
    off = 0.5 * (math.exp(0.5 * eps) - math.exp(-0.5 * eps)) * np.exp(-ak * eps)
    return _wrap(k, np.where(ak == 0, center, off))
