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

The two mixtures are one law: an inner piece with privacy parameter
``epsilon`` (for ``|x| <= break_point``; the boundary belongs to it) and an
outer one with ``ratio * epsilon`` beyond, fused by ``_fuse`` into weights
(:class:`MixtureConstants`) that make the total mass 1 and the heights meet
at the break-point.  Their label, budgets, loss tail, mass function or
density, CDF and sampler are written once.  Each mixture states only its
lattice (each piece's tail beyond c_t and height divisor, ``2 b_i`` or
``(1 + q_i)/(1 - q_i)``; where its CDF tail starts and the tail's divisors;
its inverse-CDF pieces) and its zeta and stats: the paper's closed forms, but
the integer laws' moments are cell sums (``_lattice_stats``).

Every sampler is an inverse transform of uniforms from a
:class:`~pwmix.sampling.SeededStream`, one per draw except for the geometric
mechanism's two.
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
    "MixtureConstants",
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
    "rounded_moments",
]


# exp overflows a double above this.
_LOG_MAX = math.log(sys.float_info.max)
_REALS = (float, int, np.floating, np.integer)


def _require_positive(name: str, value) -> float:
    """``value`` as a float, refused unless it is a positive finite number (a bool is not one)."""
    real = isinstance(value, _REALS) and not isinstance(value, bool)
    if not (real and 0 < value <= sys.float_info.max):
        raise InvalidParameterError(f"{name} must be a positive finite number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class MixtureParams:
    """Parameters of a two-piece noise mixture.

    ``epsilon`` is the inner privacy parameter, ``ratio`` the factor r such
    that the outer parameter is ``r * epsilon``, and ``break_point`` the
    fusing point c_t; budgets are for a unit shift.  The geometric family
    additionally requires an integer break-point.
    """

    epsilon: float
    ratio: float
    break_point: float

    def __post_init__(self) -> None:
        _require_positive("epsilon", self.epsilon)
        _require_positive("ratio", self.ratio)
        _require_positive("break_point", self.break_point)

    @property
    def eps_r(self) -> float:
        """Outer privacy parameter r * epsilon, the outer piece's decay rate."""
        return self.ratio * self.epsilon

    @property
    def inner_scale(self) -> float:
        """Laplace scale b2 = 1 / epsilon used for |x| <= c_t."""
        return 1.0 / self.epsilon

    @property
    def outer_scale(self) -> float:
        """Laplace scale b1 = 1 / (r * epsilon) used beyond c_t."""
        return 1.0 / self.eps_r

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
    """Noise summary: E|x|, variance and entropy (nats), each a finite double."""

    mean_abs_noise: float
    variance: float
    entropy: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.mean_abs_noise, self.variance, self.entropy))):
            raise InvalidParameterError(f"a closed-form statistic is not a finite double: {self}")


@dataclass(frozen=True)
class MixtureConstants:
    """Weights of a two-piece mixture.

    ``a1``/``a2`` scale the outer/inner piece, and ``k_c`` is the CDF offset
    that keeps the closed-form CDF continuous at the break-point.
    """

    a1: float
    a2: float
    k_c: float


# Bounded, so that a stream of fresh parameter points cannot grow memory
# without limit; one entry is a few hundred bytes.
CONSTANTS_CACHE_SIZE = 1024


def _underflow(params: MixtureParams) -> InvalidParameterError:
    """The error for a point whose mixture mass underflows in double precision.

    The weights divide by the mass, and the terms they divide are at most 2,
    so a mass below the smallest normal double would divide by zero or
    overflow.
    """
    return InvalidParameterError(
        f"the mixture mass underflows at r*eps*c_t = {params.break_point / params.outer_scale:.6g}; "
        "the mixture constants are not representable in double precision"
    )


def _fuse(params: MixtureParams, t1: float, t2: float, d1: float, d2: float) -> MixtureConstants:
    """Weights that fuse an outer piece 1 and an inner piece 2 at c_t.

    Piece i alone has height exp(-rate_i |x|) / d_i at x (``d_i`` is its
    height divisor) and mass ``t_i`` = exp(-rate_i c_t) beyond c_t, counting
    the lattice's break-point cell half in, half out.  The weights satisfy
    ``a1 t1 + a2 (1 - t2) == 1`` (unit mass) and ``a1 t1 / d1 == a2 t2 / d2``
    (the heights meet at c_t).
    """
    height_sum = t1 / d1 + t2 / d2
    den1, den2 = d1 * height_sum, d2 * height_sum
    if den1 == 0.0 or den2 == 0.0:
        raise _underflow(params)
    p1 = 2.0 * t2 / den2
    p2 = 2.0 * t1 / den1
    mass = p1 * t1 + p2 * (1.0 - t2)
    if mass < sys.float_info.min:
        raise _underflow(params)
    a1 = p1 / mass
    a2 = p2 / mass
    return MixtureConstants(a1=a1, a2=a2, k_c=0.5 * a1 * t1 - 0.5 * a2 * t2)


@lru_cache(maxsize=CONSTANTS_CACHE_SIZE)
def lapmix_constants(params: MixtureParams) -> MixtureConstants:
    """Weights of the Laplace mixture (see :func:`_fuse`)."""
    return _fuse(params, *LaplaceMixture(params)._pieces())


@lru_cache(maxsize=CONSTANTS_CACHE_SIZE)
def geomix_constants(params: MixtureParams) -> MixtureConstants:
    """Weights of the geometric mixture (see :func:`_fuse`); needs an integer break-point."""
    return _fuse(params, *GeometricMixture(params)._pieces())


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


def _log(a: float) -> float:
    """ln a for a weight a >= 0, -inf at 0."""
    return math.log(a) if a > 0.0 else -math.inf


def _outer_weight(a: float, decay):
    """a * exp(-decay) for a mixture's outer-piece weight ``a``, taken through logs.

    Where the inner piece carries nearly all the mass, ``a`` is near the
    overflow limit and exp(-decay) underflows, so the direct product reads 0.
    """
    return np.exp(_log(a) - decay)


# Inner cells summed one by one before the rest is taken as a difference of two
# tail sums.  Over a few cells that difference cancels: with no cells summed
# directly, it was off by up to 6e-12 relative at eps = 0.01 and one inner cell.
_DIRECT_CELLS = 32


def _cells_from(m: int, log_a: float, b: float) -> tuple[float, float, float]:
    """(sum m_k, sum k m_k, sum k^2 m_k) over the cells k >= m of one piece of a rounded
    two-piece law, cell k having mass m_k = a/2 (exp(-(k - 1/2)/b) - exp(-(k + 1/2)/b)).

    With q = exp(-1/b) and p = 1 - q, m_k = w q^(k - m) for w = a/2 exp(-(m - 1/2)/b) p,
    so the sums are w/p, w (m/p + q/p^2) and w (m^2/p + 2 m q/p^2 + q (1 + q)/p^3): every
    term is positive.  The weight comes as a log, since ``a`` can be near the overflow limit.
    """
    q, p = math.exp(-1.0 / b), -math.expm1(-1.0 / b)
    half = 0.5 * math.exp(log_a - (m - 0.5) / b)
    if half == 0.0:  # and m may be too large to square
        return 0.0, 0.0, 0.0
    return half, half * (m + q / p), half * (m * m + 2.0 * m * q / p + q * (1.0 + q) / (p * p))


def _rounded_cells(log_a1: float, b1: float, log_a2: float, b2: float, ct: float) -> tuple:
    """(E|K|, E K^2, the outer cells' mass, their share of E|K|) for K as in
    :func:`rounded_moments` with weights a_i = exp(log_a_i)."""
    last_inner = max(math.floor(ct - 0.5), 0)
    first_outer = math.ceil(ct + 0.5)
    direct = min(last_inner, _DIRECT_CELLS)
    outer_mass, outer_abs, e_sq = _cells_from(first_outer, log_a1, b1)
    e_abs = outer_abs
    if last_inner > direct:  # the inner cells past the direct ones, as two tails' difference
        _, head_abs, head_sq = _cells_from(direct + 1, log_a2, b2)
        _, tail_abs, tail_sq = _cells_from(last_inner + 1, log_a2, b2)
        e_abs, e_sq = (head_abs - tail_abs) + e_abs, (head_sq - tail_sq) + e_sq
    inner = 0.5 * -math.expm1(-1.0 / b2)
    for k in range(1, direct + 1):
        mass = inner * math.exp(log_a2 + (0.5 - k) / b2)
        e_abs += k * mass
        e_sq += k * k * mass
    if first_outer - last_inner == 2:
        k = last_inner + 1
        inner_part = math.exp(log_a2 + (0.5 - k) / b2) - math.exp(log_a2 - ct / b2)
        mass = 0.5 * (inner_part + math.exp(log_a1 - ct / b1) - math.exp(log_a1 - (k + 0.5) / b1))
        e_abs += k * mass
        e_sq += k * k * mass
    return 2.0 * e_abs, 2.0 * e_sq, 2.0 * outer_mass, 2.0 * outer_abs


def rounded_moments(a1: float, b1: float, a2: float, b2: float, ct: float) -> tuple[float, float]:
    """E|K| and E K^2 of K, a draw of a two-piece law rounded half away from zero.

    The law has density a2/(2 b2) exp(-|x|/b2) for |x| <= c_t and
    a1/(2 b1) exp(-|x|/b1) beyond.  Cell k >= 1 covers [k - 1/2, k + 1/2), so the
    cells are of three kinds: inner cells (k + 1/2 <= c_t) of mass
    a2 sinh(1/(2 b2)) exp(-k/b2), at most one cell that straddles c_t, and outer
    cells (k - 1/2 >= c_t) of mass a1 sinh(1/(2 b1)) exp(-k/b1).  The outer cells,
    and the inner ones past the first ``_DIRECT_CELLS``, sum in closed form
    (:func:`_cells_from`).  A one-piece law (a1 = a2 = 1, b1 = b2) is the rounded
    Laplace mechanism; a lattice law is the case of :func:`_lattice_stats`.
    """
    return _rounded_cells(_log(a1), b1, _log(a2), b2, ct)[:2]


def _lattice_stats(a1: float, rate1: float, a2: float, rate2: float, ct: int) -> MechanismStats:
    """Stats of the two-piece lattice law whose cell k has mass h_2 exp(-rate_2 |k|) for
    |k| <= c_t and h_1 exp(-rate_1 |k|) beyond, where h_i = a_i tanh(rate_i / 2).

    That cell k >= 1 is a rounded cell of :func:`rounded_moments` with weight
    a_i / cosh(rate_i / 2) and b_i = 1 / rate_i, and with the break-point at c_t + 1/2
    no cell straddles it.  The weights go through logs: cosh overflows above a rate of
    about 1420.  Of the entropy, -sum m_k ln m_k, each piece gives -(its mass) ln h_i
    plus rate_i times its share of E|K|.
    """
    logs = []  # ln(a_i / cosh(rate_i / 2)) and ln h_i, piece by piece
    for a, rate in ((a1, rate1), (a2, rate2)):
        q, log_a = math.exp(-rate), _log(a)
        log_weight = log_a - 0.5 * rate + math.log(2.0 / (1.0 + q))
        logs += [log_weight, log_a + math.log1p(-q) - math.log1p(q)]
    lw1, lh1, lw2, lh2 = logs
    mean_abs, variance, w, outer_abs = _rounded_cells(lw1, 1.0 / rate1, lw2, 1.0 / rate2, ct + 0.5)
    outer = w * lh1 if w else 0.0  # 0 log 0 = 0
    entropy = -(1.0 - w) * lh2 - outer + rate2 * mean_abs + (rate1 - rate2) * outer_abs
    return MechanismStats(mean_abs, variance, entropy)


def geometric_pmf(k, alpha: float):
    """Symmetric geometric mass function ((alpha-1)/(alpha+1)) alpha**-|k|."""
    if not (alpha > 1 and math.isfinite(alpha)):
        raise InvalidParameterError(f"alpha must exceed 1, got {alpha!r}")
    ak = np.abs(np.asarray(k, dtype=float))
    if not np.all(ak == np.floor(ak)):
        raise InvalidParameterError("geometric_pmf is defined on integers only")
    coeff = (alpha - 1.0) / (alpha + 1.0)
    return _wrap(k, coeff * np.power(alpha, -ak))


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


def _laplace_from_uniform(u: np.ndarray, scale: float) -> np.ndarray:
    left = scale * np.log(2.0 * u)
    right = -scale * np.log(2.0 * (1.0 - u))
    return np.where(u < 0.5, left, right)


# Uniforms per pass of the mixture inverse transform: the pass's temporaries
# (a few arrays of this length) stay in cache instead of streaming through memory.
_CHUNK = 1 << 14


def _mixture_pre_rounding(uc: np.ndarray, thresholds, m, a, s, k, scale, integer: bool, ct: float):
    """The branch-first inverse CDF of ``_mixture_from_uniform`` before its rounding up.

    Returns ``(x, outer, right, edge)``: the value, and per uniform whether it
    is on the outer piece, on the right side (as 0.0 or 1.0), and at a piece's
    edge where ``u - k`` has no value.
    """
    t_left, t_right, t_mid = thresholds
    lo = uc < t_left
    ro = (uc > t_right) & ~lo
    of = lo | ro
    f = (ro | (~of & (uc > t_mid))).astype(float)
    # 1 - u on the right, u on the left; minus 0.0 on the outer piece is exact
    x = f * (1.0 - uc) + (1.0 - f) * uc
    x -= k.take(of)
    edge = x <= 0.0
    x *= m.take(of)
    x /= a.take(of)
    with np.errstate(invalid="ignore", divide="ignore"):
        np.log(x, out=x)
    scale(x, s.take(of), out=x)
    # y * (1 - 2f) - f: -y - 1.0 on the right, y on the left; both exact
    x *= 1.0 - 2.0 * f
    if integer:
        x -= f
    if edge.any():
        x[edge] = ct * (2.0 * f[edge] - 1.0)
    return x, of, f, edge


def _mixture_from_uniform(
    u: np.ndarray,
    thresholds: tuple[float, float, float],
    inner: tuple[float, float, float, float],
    outer: tuple[float, float, float, float],
    scale,
    integer: bool,
    ct: float,
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

    Where an inner piece's tail beyond ``c_t`` is below half an ulp of the
    uniform, ``u - k`` (or ``1 - u - k``) at the threshold rounds to zero or
    below and the formula has no value; the draw there is the piece's edge,
    ``-c_t`` on the left and ``c_t`` on the right, as at its float neighbours.
    """
    pieces = tuple(np.array(pair) for pair in zip(inner, outer))
    u = np.asarray(u, dtype=float)
    flat = u.ravel()
    out = np.empty(flat.size, dtype=np.int64 if integer else np.float64)
    for i in range(0, flat.size, _CHUNK):
        uc = flat[i : i + _CHUNK]
        x = _mixture_pre_rounding(uc, thresholds, *pieces, scale, integer, ct)[0]
        if integer:
            np.ceil(x, out=x)
        out[i : i + uc.size] = x
    return out.reshape(u.shape)


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


@dataclass(frozen=True)
class Laplace:
    """Continuous Laplace mechanism with scale b (= 1 / epsilon)."""

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
        """Refused where exp(eps) overflows or exp(-eps/2) rounds to 1 (eps below ~1.1e-16)."""
        eps = 1.0 / self.scale
        if not (math.exp(-0.5 * eps) < 1.0 and eps <= _LOG_MAX):
            raise InvalidParameterError(
                f"{self.label}: zeta needs eps in (1.1e-16, {_LOG_MAX:.6g}], got {eps!r}"
            )
        return rounded_laplace_zeta(eps)

    def prob(self, x):
        return rounded_laplace_pmf(x, self.scale)

    def cdf(self, x):
        # rounding half away from zero: the draw is <= k exactly when X < k + 1/2
        return laplace_cdf(np.floor(np.asarray(x, dtype=float)) + 0.5, self.scale)

    def loss_tail(self) -> tuple[float, float]:
        return 0, 1.0 / self.scale

    def draw(self, stream, n: int) -> np.ndarray:
        y = _laplace_from_uniform(stream.uniforms(n), self.scale)
        # to the nearest integer, halves away from zero (keeps symmetry)
        return (np.sign(y) * np.floor(np.abs(y) + 0.5)).astype(np.int64)

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
        """The one-piece lattice law: every cell but the centre is outer."""
        rate = math.log(self.alpha)
        return _lattice_stats(1.0, rate, 1.0, rate, 0)


@dataclass(frozen=True)
class _TwoPieceMixture:
    """The law both mixtures share: piece i has weight a_i and decays as exp(-|x| / b_i),
    with b_1, b_2 the params' ``outer_scale``, ``inner_scale``.  A subclass states its
    lattice (``constants``, ``_pieces``, ``_lower_tail``, ``_inverse_pieces``) and the
    paper's closed forms (``_zeta``, ``stats``).
    """

    params: MixtureParams
    kind: ClassVar[str]
    integer: ClassVar[bool]

    @property
    def label(self) -> str:
        p = self.params
        return f"{self.kind}(eps={p.epsilon:g},reps={p.eps_r:g},ct={p.break_point:g})"

    def worst_case_eps(self) -> float:
        return max(self.params.epsilon, self.params.eps_r)

    def zeta(self) -> float:
        """The paper's closed form; refused where it is not a finite positive double."""
        c = self.constants()
        try:
            zeta = self._zeta(c)
        except (OverflowError, ZeroDivisionError, ValueError):  # ValueError: log of a non-positive
            zeta = math.nan
        if not (zeta > 0.0 and math.isfinite(zeta)):
            raise InvalidParameterError(
                f"{self.label}: the closed-form zeta is not a finite positive double"
            )
        return zeta

    def loss_tail(self) -> tuple[float, float]:
        ct = self.params.break_point
        return (int(ct) if self.integer else ct), self.params.eps_r

    def prob(self, x):
        c = self.constants()
        ct, b1, b2 = self.params.break_point, self.params.outer_scale, self.params.inner_scale
        _, _, d1, d2 = self._pieces()
        m = np.abs(np.asarray(x, dtype=float))
        if self.integer and not np.all(m == np.floor(m)):
            raise InvalidParameterError(f"the {self.kind} mass function takes integers only")
        inner = c.a2 / d2 * np.exp(-m / b2)
        # taken at c_t inside it, where the discarded a1 / d1 can overflow
        outer = _outer_weight(c.a1, np.maximum(m, ct) / b1) / d1
        return _wrap(x, np.where(m <= ct, inner, outer))

    def cdf(self, x):
        c = self.constants()
        b1, b2 = self.params.outer_scale, self.params.inner_scale
        lower, m, start, g1, g2 = self._lower_tail(np.asarray(x, dtype=float))
        # The outer tail from max(m, start), plus the inner mass between m and start:
        # no rounding lets the tail rise with m, nor a lower tail pass one half.
        outer = _outer_weight(c.a1, np.maximum(m, start) / b1) / g1
        inner_mass = c.a2 / g2 * np.maximum(np.exp(m / -b2) - math.exp(-start / b2), 0.0)
        tail = np.minimum(outer + inner_mass, 0.5)
        return _wrap(x, np.where(lower, tail, 1.0 - tail))

    def inverse_cdf(self, u) -> np.ndarray:
        """Noise at each uniform u in (0, 1): int64 when ``integer``, else float64."""
        return _mixture_from_uniform(
            u, *self._inverse_pieces(), integer=self.integer, ct=self.params.break_point
        )

    def pre_rounding(self, u) -> tuple[np.ndarray, np.ndarray]:
        """``inverse_cdf`` at each u before geomix rounds it up, and the kernel branch taken.

        The branch is a small int: outer piece, right side, piece edge.  Each
        branch is taken on an interval of u, and there the value is a
        non-decreasing function of u computed through a handful of correctly
        rounded steps and one ``log``, so it is within about 1e-15 (1 + |x| + b)
        of that function, b the larger piece scale.
        """
        thresholds, inner, outer, scale = self._inverse_pieces()
        pieces = (np.array(pair) for pair in zip(inner, outer))
        x, of, f, edge = _mixture_pre_rounding(
            np.asarray(u, dtype=float), thresholds, *pieces, scale, self.integer,
            self.params.break_point,
        )
        return x, of + 2 * f.astype(np.int64) + 4 * edge

    def draw(self, stream, n: int) -> np.ndarray:
        return self.inverse_cdf(stream.uniforms(n))


@dataclass(frozen=True)
class LaplaceMixture(_TwoPieceMixture):
    """Two-piece Laplace mixture mechanism (continuous output)."""

    kind: ClassVar[str] = "lapmix"
    integer: ClassVar[bool] = False

    def constants(self) -> MixtureConstants:
        return lapmix_constants(self.params)

    def _pieces(self) -> tuple[float, float, float, float]:
        """Tails exp(-c_t / b_i) and height divisors 2 b_i."""
        b1, b2, ct = self.params.outer_scale, self.params.inner_scale, self.params.break_point
        return math.exp(-ct / b1), math.exp(-ct / b2), 2.0 * b1, 2.0 * b2

    def _lower_tail(self, xs):
        """(lower, m, start, g1, g2): P(noise <= x) is the lower tail P(noise <= -m) at
        m = |x| for x <= 0, mirrored above; the outer piece starts at c_t, and piece
        i's tail from m is a_i exp(-m / b_i) / g_i with g_i = 2."""
        return xs <= 0.0, np.abs(xs), self.params.break_point, 2.0, 2.0

    def _inverse_pieces(self):
        c = self.constants()
        b1, b2, ct = self.params.outer_scale, self.params.inner_scale, self.params.break_point
        t_outer = 0.5 * c.a1 * np.exp(-ct / b1)
        inner, outer = (2.0, c.a2, b2, c.k_c), (2.0, c.a1, b1, 0.0)
        return (t_outer, 1.0 - t_outer, 0.5), inner, outer, np.multiply

    def _zeta(self, c: MixtureConstants) -> float:
        reps, eps, ct = self.params.eps_r, self.params.epsilon, self.params.break_point
        a = 1.0 - c.a2 * math.exp(-0.5 * eps) - 2.0 * c.k_c
        b = 0.5 * c.a2 * (math.exp(-0.5 * eps) - math.exp(-1.5 * eps))
        inner = math.exp(eps) * c.a2 * (
            0.5 * math.exp(-0.5 * eps) + 0.5 * math.exp(-1.5 * eps) - math.exp(-ct * eps)
        )
        outer = c.a1 * math.exp(-reps * (ct - 1.0))
        return math.log(a * a / b + a + inner + outer)

    def stats(self) -> MechanismStats:
        params = self.params
        c = self.constants()
        b1, b2, ct = params.outer_scale, params.inner_scale, params.break_point
        # the outer piece's mass a1 exp(-c_t / b1), where a1 alone can overflow a term
        w1 = float(_outer_weight(c.a1, ct / b1))
        e2 = math.exp(-ct / b2)
        mean_abs = c.a2 * (b2 - e2 * (b2 + ct)) + w1 * (b1 + ct)
        variance = 2.0 * c.a2 * (
            b2 * b2 - e2 * (b2 * b2 + b2 * ct + 0.5 * ct * ct)
        ) + 2.0 * w1 * (b1 * b1 + b1 * ct + 0.5 * ct * ct)
        entropy = (
            math.log(2.0 * b2 / c.a2) * (1.0 - w1)
            + ((math.log(2.0 * b1) - math.log(c.a1)) * w1 if w1 else 0.0)  # 0 log 0 = 0
            + w1 / b1 * (b1 + ct)
            - c.a2 / b2 * e2 * (b2 + ct)
            + c.a2
        )
        return MechanismStats(mean_abs, variance, entropy)


@dataclass(frozen=True)
class GeometricMixture(_TwoPieceMixture):
    """Two-piece geometric mixture mechanism (integer output)."""

    kind: ClassVar[str] = "geomix"
    integer: ClassVar[bool] = True

    def __post_init__(self) -> None:
        self.params.integer_break_point()

    def constants(self) -> MixtureConstants:
        return geomix_constants(self.params)

    def _decays(self) -> tuple[float, float]:
        """q_i = exp(-rate_i), each piece's decay per lattice step."""
        q1, q2 = math.exp(-self.params.eps_r), math.exp(-self.params.epsilon)
        if max(q1, q2) == 1.0:
            raise InvalidParameterError(f"{self.label}: exp(-rate) rounds to 1 below rate 1.1e-16")
        return q1, q2

    def _pieces(self) -> tuple[float, float, float, float]:
        """Tails q_i^c_t and height divisors (1 + q_i) / (1 - q_i)."""
        q1, q2 = self._decays()
        ct = int(self.params.break_point)
        return q1**ct, q2**ct, (1.0 + q1) / (1.0 - q1), (1.0 + q2) / (1.0 - q2)

    def _lower_tail(self, xs):
        """(lower, m, start, g1, g2): P(noise <= k) is the lower tail P(noise >= m) at
        m = -k for k < 0, mirrored from m = k + 1 for k >= 0; the outer piece starts
        at c_t + 1, and piece i's tail from m is a_i q_i^m / g_i with g_i = 1 + q_i."""
        q1, q2 = self._decays()
        ks = np.floor(xs)
        lower = ks < 0
        m = np.where(lower, -ks, ks + 1.0)
        return lower, m, self.params.break_point + 1.0, 1.0 + q1, 1.0 + q2

    def _inverse_pieces(self):
        c = self.constants()
        q1, q2 = self._decays()
        p = self.params
        ct = int(p.break_point)
        t_left = c.a1 * q1**ct / (1.0 + q1)
        t_right = 1.0 - c.a1 * q1 ** (ct + 1) / (1.0 + q1)
        t_mid = c.a2 / (1.0 + q2) + c.k_c
        inner, outer = (1.0 + q2, c.a2, p.epsilon, c.k_c), (1.0 + q1, c.a1, p.eps_r, 0.0)
        return (t_left, t_right, t_mid), inner, outer, np.divide

    def _zeta(self, c: MixtureConstants) -> float:
        reps, eps = self.params.eps_r, self.params.epsilon
        outer_tail = c.a1 * math.exp(-reps * self.params.break_point)
        zeta = math.log(math.exp(eps) * (1.0 - outer_tail) + math.exp(reps) * outer_tail)
        # the log of a convex combination of e^eps and e^(r eps), which rounding
        # can take 1 ulp outside [eps, r eps] at r = 1; nan stays nan
        return float(min(max(zeta, min(eps, reps)), max(eps, reps)))

    def stats(self) -> MechanismStats:
        c, p = self.constants(), self.params
        return _lattice_stats(c.a1, p.eps_r, c.a2, p.epsilon, int(p.break_point))


def lapmix_pdf(x, params: MixtureParams):
    """Density of the Laplace mixture: inner scale b2 up to c_t, outer b1 beyond."""
    return LaplaceMixture(params).prob(x)


def lapmix_cdf(x, params: MixtureParams):
    """Closed-form CDF of the Laplace mixture; continuous everywhere."""
    return LaplaceMixture(params).cdf(x)


def geomix_pmf(k, params: MixtureParams):
    """Mass function of the geometric mixture: decay q2 up to c_t, q1 beyond."""
    return GeometricMixture(params).prob(k)


def geomix_cdf(x, params: MixtureParams):
    """CDF of the geometric mixture: a right-continuous step function on the reals."""
    return GeometricMixture(params).cdf(x)

@dataclass(frozen=True)
class TruncatedLaplace:
    """Laplace noise conditioned on [-bound, bound].

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
        # F(bound) - F(-bound) can round above 1 - 2 F(-bound)
        mass = (laplace_cdf(xs, self.scale) - below) / (1.0 - 2.0 * below)
        return _wrap(x, np.minimum(mass, 1.0))

    def loss_tail(self) -> tuple[float, float]:
        raise UnsupportedSpecError(f"{self.label} has unbounded loss, no constant-loss tail")

    def draw(self, stream, n: int) -> np.ndarray:
        """Inverse CDF of the Laplace law on [-bound, bound]; refused unless ``allow_unsafe``.

        u maps to the Laplace CDF value F(-bound) + u (F(bound) - F(-bound)),
        taken through the tail mass on its side so that both sides keep their
        precision.
        """
        if not self.allow_unsafe:
            raise UnsafeMechanismError(
                f"{self.label} has unbounded privacy loss and is not differentially private; "
                "allow it with the unsafe flag (--unsafe on the command line)"
            )
        below = 0.5 * math.exp(-self.bound / self.scale)  # F(-bound)
        u = stream.uniforms(n)
        right = u >= 0.5
        tail = below + np.where(right, 1.0 - u, u) * (1.0 - 2.0 * below)
        y = self.scale * np.log(2.0 * tail)
        return np.clip(np.where(right, -y, y), -self.bound, self.bound)

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


# The keys of a mechanism in its CLI/config form; any other key is refused.
_KEYS = ("kind", "eps", "reps", "ct", "unsafe")


def spec_from_dict(doc: dict) -> MechanismSpec:
    """Build a mechanism spec from the CLI/config representation.

    Keys: kind (laplace|rlaplace|geometric|lapmix|geomix|trunclap|zero),
    eps, reps (the outer parameter r*eps), ct, unsafe; budgets are for a unit shift.
    """
    if not isinstance(doc, dict):
        raise PwmixError(f"a mechanism must be a JSON object, got {doc!r}")
    unknown = ", ".join(sorted(map(repr, set(doc) - set(_KEYS))))
    if unknown:
        raise PwmixError(f"unknown mechanism key {unknown}; the keys are {', '.join(_KEYS)}")
    kind = doc.get("kind")
    if kind == "zero":
        return ZeroNoise()
    if doc.get("eps") is None:
        raise PwmixError(f"mechanism {kind!r} requires --eps")
    eps = _require_positive("eps", doc["eps"])
    if kind == "laplace":
        return Laplace(scale=1.0 / eps)
    if kind == "rlaplace":
        return RoundedLaplace(scale=1.0 / eps)
    if kind == "geometric":
        if eps > _LOG_MAX:
            raise InvalidParameterError(f"alpha = exp(eps) overflows a double at eps = {eps:g}")
        return Geometric(alpha=math.exp(eps))
    if kind == "trunclap":
        if doc.get("ct") is None:
            raise PwmixError("trunclap requires --ct as the truncation bound")
        bound = _require_positive("ct", doc["ct"])
        return TruncatedLaplace(scale=1.0 / eps, bound=bound, allow_unsafe=bool(doc.get("unsafe")))
    if kind in ("lapmix", "geomix"):
        if doc.get("reps") is None or doc.get("ct") is None:
            raise PwmixError(f"{kind} requires --reps and --ct")
        params = MixtureParams(
            epsilon=eps,
            ratio=_require_positive("reps", doc["reps"]) / eps,
            break_point=_require_positive("ct", doc["ct"]),
        )
        return LaplaceMixture(params) if kind == "lapmix" else GeometricMixture(params)
    raise PwmixError(f"unknown mechanism kind {kind!r}")
