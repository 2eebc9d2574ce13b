"""Closed-form first absolute moment, variance and entropy of the noise.

Each family's formulas are its spec's ``stats()``
(:mod:`pwmix.mechanisms`); these are the entry points by parameters.  The
geometric-mixture formulas are assembled from the standard partial sums
``sum_{x=1}^{c} x q^x``, ``sum_{x=m}^inf x q^x = q^m (m - (m-1) q)/(1-q)^2``
and their second-moment analogues; they are validated against truncated
series and quadrature oracles in the test suite.
"""

from __future__ import annotations

from .errors import UnsupportedSpecError
from .mechanisms import (
    Geometric,
    GeometricMixture,
    Laplace,
    LaplaceMixture,
    MechanismSpec,
    MechanismStats,
    MixtureParams,
)

__all__ = [
    "MechanismStats",
    "lapmix_stats",
    "geomix_stats",
    "standard_stats",
]


def lapmix_stats(params: MixtureParams) -> MechanismStats:
    """Closed-form stats of the (continuous) Laplace mixture."""
    return LaplaceMixture(params).stats()


def geomix_stats(params: MixtureParams) -> MechanismStats:
    """Closed-form stats of the geometric mixture (integer break-point)."""
    return GeometricMixture(params).stats()


def standard_stats(spec: MechanismSpec) -> MechanismStats:
    """Stats of the plain Laplace or geometric mechanism.

    Laplace has (b, 2 b^2, 1 + ln 2b); the geometric values are summed from
    the mass function with the series truncated once the analytic tail bound
    drops below 1e-12.
    """
    if not isinstance(spec, (Laplace, Geometric)):
        raise UnsupportedSpecError(f"standard_stats supports Laplace and Geometric, got {spec!r}")
    return spec.stats()
