"""Closed-form first absolute moment, variance and entropy of the noise.

Each family's formulas are its spec's ``stats()``
(:mod:`pwmix.mechanisms`); these are the entry points by parameters.  The
geometric mechanism and its mixture are cell sums: their cells are those of
a rounded two-piece law, summed in positive terms by the same function as the
sweep's rounded moments (``rounded_moments``), with no truncated series.  The
test suite checks them against sums over their mass cells, and the Laplace
mixture's closed forms against quadrature.
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
    """Closed-form stats of the plain Laplace or geometric mechanism."""
    if not isinstance(spec, (Laplace, Geometric)):
        raise UnsupportedSpecError(f"standard_stats supports Laplace and Geometric, got {spec!r}")
    return spec.stats()
