"""Mechanism families: their laws, budgets, samplers and noise statistics.

Five noise families are supported: the continuous Laplace mechanism, its
nearest-integer rounding, the symmetric geometric (discrete Laplace)
mechanism, and the two-piece mixture variants of the Laplace and geometric
mechanisms.  A truncated Laplace spec exists for audit demonstrations only;
it is not differentially private.

Each family is one frozen dataclass implementing :class:`MechanismSpec`: its
mass function or density, CDF, worst-case epsilon, general budget, sampler
and closed-form statistics are members of that class, so the rest of the
toolkit asks the spec instead of switching on its type.

The mixtures fuse an inner distribution with privacy parameter ``epsilon``
(applied for ``|x| <= break_point``) and an outer one with parameter
``ratio * epsilon`` (beyond the break-point), with normalizing constants
chosen so the total mass is 1 and the density/step heights match at the
break-point.  Boundary convention: ``|x| == break_point`` belongs to the
inner piece.

Every sampler is an inverse transform of uniforms from a
:class:`~pwmix.sampling.SeededStream`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar, Protocol

import numpy as np

from .errors import InvalidParameterError, PwmixError, UnsafeMechanismError, UnsupportedSpecError

__all__ = [
    "MixtureParams",
    "MechanismStats",
    "MechanismSpec",
    "Laplace",
    "RoundedLaplace",
    "Geometric",
    "LaplaceMixture",
    "GeometricMixture",
    "TruncatedLaplace",
    "ZeroNoise",
    "SPECS",
    "spec_from_dict",
    "LapMixtureConstants",
    "GeoMixtureConstants",
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
    "rounded_laplace_zeta",
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
class MechanismStats:
    """Noise summary: E|x|, variance and entropy (nats)."""

    mean_abs_noise: float
    variance: float
    entropy: float


def geometric_series_x(q: float, first: int) -> float:
    """sum_{x=first}^inf x q^x for 0 < q < 1."""
    return q**first * (first - (first - 1) * q) / (1.0 - q) ** 2


def geometric_series_x2(q: float, first: int) -> float:
    """sum_{x=first}^inf x^2 q^x for 0 < q < 1."""
    m = first
    return q**m * (m * m - (2 * m * m - 2 * m - 1) * q + (m - 1) ** 2 * q * q) / (1.0 - q) ** 3


def geometric_tail_mass(q: float, first: int) -> float:
    """sum_{x=first}^inf q^x for 0 < q < 1."""
    return q**first / (1.0 - q)


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


def _outer_weight(c: GeoMixtureConstants, params: MixtureParams, k):
    """a1g * alpha1**-k, taken through logs.

    Where the inner piece carries nearly all the mass, a1g is near the
    overflow limit and alpha1**-k underflows: the direct product is then
    0 or, through a1g * (alpha1 - 1) = inf, inf * 0 = nan.
    """
    with np.errstate(divide="ignore"):  # a1g == 0 when the outer piece underflows
        return np.exp(np.log(c.a1g) - k * (params.eps_r / params.sensitivity))


def geomix_pmf(k, params: MixtureParams):
    """Mass function of the geometric mixture: alpha2 decay up to c_t, alpha1 beyond."""
    c = geomix_constants(params)
    ct = params.integer_break_point()
    a1_, a2_ = params.outer_alpha, params.inner_alpha
    ak = np.abs(np.asarray(k, dtype=float))
    if not np.all(ak == np.floor(ak)):
        raise InvalidParameterError("geomix_pmf is defined on integers only")
    inner = c.a2g * (a2_ - 1.0) / (a2_ + 1.0) * np.power(a2_, -ak)
    outer = (a1_ - 1.0) / (a1_ + 1.0) * _outer_weight(c, params, ak)
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
    tail_outer = _outer_weight(c, params, m) / (1.0 + q1)
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


def rounded_laplace_zeta(eps: float) -> float:
    """Closed-form general budget of the Laplace mechanism rounded to integers, b = 1/eps."""
    a = 1.0 - math.exp(-0.5 * eps)
    b = 0.5 * (math.exp(-0.5 * eps) - math.exp(-1.5 * eps))
    tails = 0.5 * math.exp(-1.5 * eps) + 0.5 * math.exp(-0.5 * eps)
    return math.log(a * a / b + a + math.exp(eps) * tails)


def _round_half_away(values: np.ndarray) -> np.ndarray:
    """Round to nearest integer, halves away from zero (keeps symmetry)."""
    return np.sign(values) * np.floor(np.abs(values) + 0.5)


def _laplace_from_uniform(u: np.ndarray, scale: float) -> np.ndarray:
    left = scale * np.log(2.0 * u)
    right = -scale * np.log(2.0 * (1.0 - u))
    return np.where(u < 0.5, left, right)


# Uniforms per pass of the mixture inverse transform: the pass's temporaries
# (a few arrays of this length) stay in cache instead of streaming through memory.
_CHUNK = 1 << 14


def _mixture_from_uniform(
    u: np.ndarray,
    thresholds: tuple[float, float, float],
    inner: tuple[float, float, float, float],
    outer: tuple[float, float, float, float],
    scale,
    integer: bool,
) -> np.ndarray:
    """Branch-first inverse CDF of a two-piece mixture, one ``log`` per draw.

    ``thresholds`` are ``(t_left, t_right, t_mid)``: a draw lies on the outer
    piece below ``t_left`` or above ``t_right``, and on the right side above
    ``t_right`` or, on the inner piece, above ``t_mid`` (first match wins, as
    in the four-branch form).  Each piece is ``(m, a, s, k)``; a left draw is
    ``scale(log(m * (u - k) / a), s)`` and a right draw is the same of
    ``1 - u``, negated.  Integer output also subtracts 1 on the right and
    takes the ceiling.  The steps that merge the branches (picking the side
    as ``f*(1-u) + (1-f)*u``, subtracting ``k = 0.0`` on the outer piece,
    multiplying by +-1) are exact, and every rounded step sees the operands
    its branch of the four-branch form sees, so the output is bit-identical
    to that form.
    """
    t_left, t_right, t_mid = thresholds
    m, a, s, k = (np.array(pair) for pair in zip(inner, outer))
    u = np.asarray(u, dtype=float)
    flat = u.ravel()
    out = np.empty(flat.size, dtype=np.int64 if integer else np.float64)
    for i in range(0, flat.size, _CHUNK):
        uc = flat[i : i + _CHUNK]
        lo = uc < t_left
        ro = (uc > t_right) & ~lo
        of = lo | ro
        f = (ro | (~of & (uc > t_mid))).astype(float)
        # 1 - u on the right, u on the left; minus 0.0 on the outer piece is exact
        x = f * (1.0 - uc) + (1.0 - f) * uc
        x -= k.take(of)
        x *= m.take(of)
        x /= a.take(of)
        with np.errstate(invalid="ignore", divide="ignore"):
            np.log(x, out=x)
        scale(x, s.take(of), out=x)
        # y * (1 - 2f) - f: -y - 1.0 on the right, y on the left; both exact
        x *= 1.0 - 2.0 * f
        if integer:
            x -= f
            np.ceil(x, out=x)
        out[i : i + uc.size] = x
    return out.reshape(u.shape)


def _lapmix_from_uniform(u: np.ndarray, params: MixtureParams) -> np.ndarray:
    """Inverse CDF of the Laplace mixture."""
    c = lapmix_constants(params)
    b1, b2, ct = params.outer_scale, params.inner_scale, params.break_point
    t_outer = 0.5 * c.a1 * np.exp(-ct / b1)
    return _mixture_from_uniform(
        u,
        (t_outer, 1.0 - t_outer, 0.5),
        inner=(2.0, c.a2, b2, c.k_c),
        outer=(2.0, c.a1, b1, 0.0),
        scale=np.multiply,
        integer=False,
    )


def _geomix_from_uniform(u: np.ndarray, params: MixtureParams) -> np.ndarray:
    """Inverse CDF of the geometric mixture (integer output)."""
    c = geomix_constants(params)
    ct = params.integer_break_point()
    q1 = 1.0 / params.outer_alpha
    q2 = 1.0 / params.inner_alpha
    lam1 = params.eps_r / params.sensitivity
    lam2 = params.epsilon / params.sensitivity
    t_left = c.a1g * q1**ct / (1.0 + q1)
    t_right = 1.0 - c.a1g * q1 ** (ct + 1) / (1.0 + q1)
    t_mid = c.a2g / (1.0 + q2) + c.k_c
    return _mixture_from_uniform(
        u,
        (t_left, t_right, t_mid),
        inner=(1.0 + q2, c.a2g, lam2, c.k_c),
        outer=(1.0 + q1, c.a1g, lam1, 0.0),
        scale=np.divide,
        integer=True,
    )


class MechanismSpec(Protocol):
    """What every mechanism family states about itself.

    ``kind`` names the family on the command line and opens its ``label``;
    ``integer`` is true when the noise, and so every release, is an integer.
    Losses and budgets are for unit-shift (count and histogram) queries.
    """

    kind: ClassVar[str]
    integer: ClassVar[bool]

    @property
    def label(self) -> str:
        """Short stable identifier for reports, ledgers and CLI output."""

    def worst_case_eps(self) -> float:
        """Differential-privacy level; inf when the loss is unbounded."""

    def zeta(self) -> float:
        """General budget ln E[exp |L|] from the paper's closed form; inf when unbounded."""

    def prob(self, x):
        """Mass function (integer output) or density (continuous output) at x."""

    def cdf(self, x):
        """P(noise <= x); float for scalar x, else an ndarray."""

    def loss_tail(self) -> tuple[float, float]:
        """``(c, rate)``: for |x| beyond c + shift the loss is the constant ``shift * rate``.

        Raises UnsupportedSpecError for a family whose loss is unbounded.
        """

    def draw(self, stream, n: int) -> np.ndarray:
        """n noise draws from a SeededStream; int64 when ``integer``, else float64."""

    def stats(self) -> MechanismStats:
        """Closed-form E|x|, variance and entropy."""


def _mixture_label(kind: str, p: MixtureParams) -> str:
    return f"{kind}(eps={p.epsilon:g},reps={p.eps_r:g},ct={p.break_point:g})"


@dataclass(frozen=True)
class Laplace:
    """Continuous Laplace mechanism with scale b (= sensitivity / epsilon)."""

    scale: float
    kind: ClassVar[str] = "laplace"
    integer: ClassVar[bool] = False

    def __post_init__(self) -> None:
        _require_positive("scale", self.scale)

    @property
    def label(self) -> str:
        return f"{self.kind}(b={self.scale:g})"

    def worst_case_eps(self) -> float:
        return 1.0 / self.scale

    def zeta(self) -> float:
        """epsilon = 1/b: the continuous mechanism has no rounding correction."""
        return 1.0 / self.scale

    def prob(self, x):
        return laplace_pdf(x, self.scale)

    def cdf(self, x):
        return laplace_cdf(x, self.scale)

    def loss_tail(self) -> tuple[float, float]:
        return 0.0, 1.0 / self.scale

    def draw(self, stream, n: int) -> np.ndarray:
        return _laplace_from_uniform(stream.uniforms(n), self.scale)

    def stats(self) -> MechanismStats:
        b = self.scale
        return MechanismStats(b, 2.0 * b * b, 1.0 + math.log(2.0 * b))


@dataclass(frozen=True)
class RoundedLaplace:
    """Laplace mechanism whose draw is rounded to the nearest integer."""

    scale: float
    kind: ClassVar[str] = "rlaplace"
    integer: ClassVar[bool] = True

    def __post_init__(self) -> None:
        _require_positive("scale", self.scale)

    @property
    def label(self) -> str:
        return f"{self.kind}(b={self.scale:g})"

    def worst_case_eps(self) -> float:
        return 1.0 / self.scale

    def zeta(self) -> float:
        return rounded_laplace_zeta(1.0 / self.scale)

    def prob(self, x):
        return rounded_laplace_pmf(x, self.scale)

    def cdf(self, x):
        # rounding half away from zero: the draw is <= k exactly when X < k + 1/2
        return laplace_cdf(np.floor(np.asarray(x, dtype=float)) + 0.5, self.scale)

    def loss_tail(self) -> tuple[float, float]:
        return 0, 1.0 / self.scale

    def draw(self, stream, n: int) -> np.ndarray:
        y = _laplace_from_uniform(stream.uniforms(n), self.scale)
        return _round_half_away(y).astype(np.int64)

    def stats(self) -> MechanismStats:
        """The continuous closed forms of the Laplace law that is rounded."""
        return Laplace(self.scale).stats()


@dataclass(frozen=True)
class Geometric:
    """Symmetric geometric mechanism with decay alpha (= exp(epsilon))."""

    alpha: float
    kind: ClassVar[str] = "geometric"
    integer: ClassVar[bool] = True

    def __post_init__(self) -> None:
        if not (self.alpha > 1 and math.isfinite(self.alpha)):
            raise InvalidParameterError(f"alpha must exceed 1, got {self.alpha!r}")

    @property
    def label(self) -> str:
        return f"{self.kind}(alpha={self.alpha:g})"

    def worst_case_eps(self) -> float:
        return math.log(self.alpha)

    def zeta(self) -> float:
        return math.log(self.alpha)

    def prob(self, x):
        return geometric_pmf(x, self.alpha)

    def cdf(self, x):
        q = 1.0 / self.alpha
        ks = np.floor(np.asarray(x, dtype=float))
        neg = ks < 0
        tail = np.power(q, np.where(neg, -ks, ks + 1.0)) / (1.0 + q)
        return _wrap(x, np.where(neg, tail, 1.0 - tail))

    def loss_tail(self) -> tuple[float, float]:
        return 0, math.log(self.alpha)

    def draw(self, stream, n: int) -> np.ndarray:
        """The difference of two floored exponential draws with rate ln(alpha)."""
        lam = np.log(self.alpha)
        e1 = -np.log(stream.uniforms(n)) / lam
        e2 = -np.log(stream.uniforms(n)) / lam
        return (np.floor(e1) - np.floor(e2)).astype(np.int64)

    def stats(self) -> MechanismStats:
        """Summed from the mass function, truncated once the tail bound is below 1e-12."""
        q = 1.0 / self.alpha
        coeff = (1.0 - q) / (1.0 + q)
        # Truncate where the remaining x^2-weighted tail is provably < 1e-12.
        k_max = 2
        while 2.0 * coeff * geometric_series_x2(q, k_max) > 1e-12:
            k_max *= 2
        mean_abs = variance = entropy = 0.0
        p0 = coeff
        entropy -= p0 * math.log(p0)
        for k in range(1, k_max + 1):
            p = coeff * q**k
            mean_abs += 2.0 * k * p
            variance += 2.0 * k * k * p
            entropy -= 2.0 * p * math.log(p)
        return MechanismStats(mean_abs, variance, entropy)


@dataclass(frozen=True)
class LaplaceMixture:
    """Two-piece Laplace mixture mechanism (continuous output)."""

    params: MixtureParams
    kind: ClassVar[str] = "lapmix"
    integer: ClassVar[bool] = False

    @property
    def label(self) -> str:
        return _mixture_label(self.kind, self.params)

    def worst_case_eps(self) -> float:
        return max(self.params.epsilon, self.params.eps_r)

    def zeta(self) -> float:
        params = self.params
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

    def prob(self, x):
        return lapmix_pdf(x, self.params)

    def cdf(self, x):
        return lapmix_cdf(x, self.params)

    def loss_tail(self) -> tuple[float, float]:
        return self.params.break_point, self.params.eps_r / self.params.sensitivity

    def draw(self, stream, n: int) -> np.ndarray:
        return _lapmix_from_uniform(stream.uniforms(n), self.params)

    def stats(self) -> MechanismStats:
        params = self.params
        c = lapmix_constants(params)
        b1, b2, ct = params.outer_scale, params.inner_scale, params.break_point
        e1 = math.exp(-ct / b1)
        e2 = math.exp(-ct / b2)
        mean_abs = c.a2 * (b2 - e2 * (b2 + ct)) + c.a1 * e1 * (b1 + ct)
        variance = 2.0 * c.a2 * (
            b2 * b2 - e2 * (b2 * b2 + b2 * ct + 0.5 * ct * ct)
        ) + 2.0 * c.a1 * e1 * (b1 * b1 + b1 * ct + 0.5 * ct * ct)
        entropy = (
            math.log(2.0 * b2 / c.a2) * (1.0 - c.a1 * e1)
            + math.log(2.0 * b1 / c.a1) * (c.a1 * e1)
            + c.a1 / b1 * e1 * (b1 + ct)
            - c.a2 / b2 * e2 * (b2 + ct)
            + c.a2
        )
        return MechanismStats(mean_abs, variance, entropy)


@dataclass(frozen=True)
class GeometricMixture:
    """Two-piece geometric mixture mechanism (integer output)."""

    params: MixtureParams
    kind: ClassVar[str] = "geomix"
    integer: ClassVar[bool] = True

    def __post_init__(self) -> None:
        self.params.integer_break_point()

    @property
    def label(self) -> str:
        return _mixture_label(self.kind, self.params)

    def worst_case_eps(self) -> float:
        return max(self.params.epsilon, self.params.eps_r)

    def zeta(self) -> float:
        params = self.params
        c = geomix_constants(params)
        eps = params.epsilon / params.sensitivity
        reps = params.eps_r / params.sensitivity
        outer_tail = c.a1g * math.exp(-reps * params.break_point)
        return math.log(math.exp(eps) * (1.0 - outer_tail) + math.exp(reps) * outer_tail)

    def prob(self, x):
        return geomix_pmf(x, self.params)

    def cdf(self, x):
        return geomix_cdf(x, self.params)

    def loss_tail(self) -> tuple[float, float]:
        return self.params.integer_break_point(), self.params.eps_r / self.params.sensitivity

    def draw(self, stream, n: int) -> np.ndarray:
        return _geomix_from_uniform(stream.uniforms(n), self.params)

    def stats(self) -> MechanismStats:
        params = self.params
        ct = params.integer_break_point()
        c = geomix_constants(params)
        q1 = 1.0 / params.outer_alpha
        q2 = 1.0 / params.inner_alpha
        c1 = (1.0 - q1) / (1.0 + q1)
        c2 = (1.0 - q2) / (1.0 + q2)
        inner_abs = 2.0 * c.a2g * c2 * (geometric_series_x(q2, 1) - geometric_series_x(q2, ct + 1))
        outer_abs = 2.0 * c.a1g * c1 * geometric_series_x(q1, ct + 1)
        mean_abs = inner_abs + outer_abs
        variance = 2.0 * c.a2g * c2 * (
            geometric_series_x2(q2, 1) - geometric_series_x2(q2, ct + 1)
        ) + 2.0 * c.a1g * c1 * geometric_series_x2(q1, ct + 1)
        inner_mass = c.a2g * (1.0 - 2.0 * c2 * geometric_tail_mass(q2, ct + 1))
        outer_mass = 1.0 - inner_mass
        eps_in = params.epsilon / params.sensitivity
        eps_out = params.eps_r / params.sensitivity
        entropy = (
            -inner_mass * math.log(c.a2g * c2)
            - outer_mass * math.log(c.a1g * c1)
            + eps_in * inner_abs
            + eps_out * outer_abs
        )
        return MechanismStats(mean_abs, variance, entropy)


@dataclass(frozen=True)
class TruncatedLaplace:
    """Laplace noise rejected outside [-bound, bound].

    Not differentially private: neighboring counts can produce outcomes of
    zero probability under one of them, so the loss is unbounded.  Kept for
    audit demonstrations; drawing requires ``allow_unsafe=True``.
    """

    scale: float
    bound: float
    allow_unsafe: bool = False
    kind: ClassVar[str] = "trunclap"
    integer: ClassVar[bool] = False

    def __post_init__(self) -> None:
        _require_positive("scale", self.scale)
        _require_positive("bound", self.bound)

    @property
    def label(self) -> str:
        return f"{self.kind}(b={self.scale:g},c={self.bound:g})"

    def worst_case_eps(self) -> float:
        return math.inf

    def zeta(self) -> float:
        return math.inf

    def prob(self, x):
        norm = 1.0 - math.exp(-self.bound / self.scale)
        xs = np.asarray(x, dtype=float)
        return _wrap(x, np.where(np.abs(xs) <= self.bound, laplace_pdf(xs, self.scale) / norm, 0.0))

    def cdf(self, x):
        xs = np.clip(np.asarray(x, dtype=float), -self.bound, self.bound)
        below = laplace_cdf(-self.bound, self.scale)
        return _wrap(x, (laplace_cdf(xs, self.scale) - below) / (1.0 - 2.0 * below))

    def loss_tail(self) -> tuple[float, float]:
        raise UnsupportedSpecError(f"{self.label} has unbounded loss, no constant-loss tail")

    def draw(self, stream, n: int) -> np.ndarray:
        """Rejection of Laplace draws with |y| > bound; refused unless ``allow_unsafe``."""
        if not self.allow_unsafe:
            raise UnsafeMechanismError(
                f"{self.label} has unbounded privacy loss and is not differentially private; "
                "allow it with the unsafe flag (--unsafe on the command line)"
            )
        accept = 1.0 - np.exp(-self.bound / self.scale)
        out = np.empty(n, dtype=float)
        filled = 0
        while filled < n:
            want = n - filled
            batch = max(32, int(want / accept * 1.1) + 8)
            y = _laplace_from_uniform(stream.uniforms(batch), self.scale)
            kept = y[np.abs(y) <= self.bound][:want]
            out[filled : filled + kept.size] = kept
            filled += kept.size
        return out

    def stats(self) -> MechanismStats:
        raise UnsupportedSpecError(f"no closed-form stats for {self.label}")


@dataclass(frozen=True)
class ZeroNoise:
    """Degenerate mechanism that adds no noise.  Test/debug stub; non-private."""

    kind: ClassVar[str] = "zero"
    integer: ClassVar[bool] = True

    @property
    def label(self) -> str:
        return self.kind

    def worst_case_eps(self) -> float:
        return math.inf

    def zeta(self) -> float:
        return math.inf

    def prob(self, x):
        return _wrap(x, np.where(np.asarray(x) == 0, 1.0, 0.0))

    def cdf(self, x):
        return _wrap(x, np.where(np.asarray(x, dtype=float) >= 0.0, 1.0, 0.0))

    def loss_tail(self) -> tuple[float, float]:
        raise UnsupportedSpecError(f"{self.label} has unbounded loss, no constant-loss tail")

    def draw(self, stream, n: int) -> np.ndarray:
        return np.zeros(n, dtype=np.int64)

    def stats(self) -> MechanismStats:
        raise UnsupportedSpecError(f"no closed-form stats for {self.label}")


# Every family, in the order the command line lists their kinds.
SPECS = (
    Laplace,
    RoundedLaplace,
    Geometric,
    LaplaceMixture,
    GeometricMixture,
    TruncatedLaplace,
    ZeroNoise,
)


def spec_from_dict(doc: dict) -> MechanismSpec:
    """Build a mechanism spec from the CLI/config representation.

    Keys: kind (laplace|rlaplace|geometric|lapmix|geomix|trunclap|zero),
    eps, reps (the outer parameter r*eps), ct, sens (default 1), unsafe.
    """
    kind = doc.get("kind")
    eps = doc.get("eps")
    sens = doc.get("sens") or 1.0
    if kind == "zero":
        return ZeroNoise()
    if eps is None:
        raise PwmixError(f"mechanism {kind!r} requires --eps")
    if kind == "laplace":
        return Laplace(scale=sens / eps)
    if kind == "rlaplace":
        return RoundedLaplace(scale=sens / eps)
    if kind == "geometric":
        return Geometric(alpha=math.exp(eps / sens))
    if kind == "trunclap":
        if doc.get("ct") is None:
            raise PwmixError("trunclap requires --ct as the truncation bound")
        return TruncatedLaplace(
            scale=sens / eps, bound=float(doc["ct"]), allow_unsafe=bool(doc.get("unsafe"))
        )
    if kind in ("lapmix", "geomix"):
        if doc.get("reps") is None or doc.get("ct") is None:
            raise PwmixError(f"{kind} requires --reps and --ct")
        params = MixtureParams(
            epsilon=eps, ratio=float(doc["reps"]) / eps, break_point=float(doc["ct"]), sensitivity=sens
        )
        return LaplaceMixture(params) if kind == "lapmix" else GeometricMixture(params)
    raise PwmixError(f"unknown mechanism kind {kind!r}")
