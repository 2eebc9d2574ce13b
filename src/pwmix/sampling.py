"""Deterministic, seedable variate generation for all mechanism families.

Every sampler is an inverse transform driven by uniforms from a counter-based
generator (Philox keyed by ``(seed, stream_id)``), so a given stream always
reproduces the same sequence and distinct stream ids are independent.
Uniforms are drawn from the open interval (0, 1) — midpoints of a 2**53
lattice — so logarithms of both u and 1-u are always finite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import UnsafeMechanismError, UnsupportedSpecError
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
    geomix_constants,
    lapmix_constants,
)

__all__ = ["SeededStream", "sample_lapmix", "sample_geomix", "sample_standard", "sample"]

_MASK64 = (1 << 64) - 1


def _mix64(*values: int) -> int:
    """Stable splitmix64-style hash of a tuple of integers onto 64 bits."""
    acc = 0x9E3779B97F4A7C15
    for v in values:
        acc = (acc + (v & _MASK64) + 0x9E3779B97F4A7C15) & _MASK64
        acc = ((acc ^ (acc >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        acc = ((acc ^ (acc >> 27)) * 0x94D049BB133111EB) & _MASK64
        acc = acc ^ (acc >> 31)
    return acc


@dataclass
class SeededStream:
    """A consuming stream of randomness identified by (seed, stream_id).

    The stream is exclusively owned by one execution context; hand derived
    streams (``derive``) to parallel workers instead of sharing one.
    """

    seed: int
    stream_id: int = 0
    _gen: np.random.Generator | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.seed = int(self.seed) & _MASK64
        self.stream_id = int(self.stream_id) & _MASK64

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
            self._gen = np.random.Generator(np.random.Philox(seq))
        return self._gen

    def derive(self, *indices: int) -> "SeededStream":
        """Independent child stream keyed by the given index tuple."""
        return SeededStream(self.seed, _mix64(self.stream_id, *indices))

    def uniforms(self, size: int | None = None):
        """Uniform draws from the open interval (0, 1)."""
        n = 1 if size is None else int(size)
        lattice = self.generator.integers(0, 1 << 53, size=n, dtype=np.int64)
        u = (lattice.astype(np.float64) + 0.5) * 2.0**-53
        return float(u[0]) if size is None else u


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


def sample_lapmix(params: MixtureParams, stream: SeededStream, size: int | None = None):
    """Draw from the Laplace mixture; float for scalar calls, ndarray otherwise."""
    u = stream.uniforms(size if size is not None else 1)
    y = _lapmix_from_uniform(np.atleast_1d(u), params)
    return float(y[0]) if size is None else y


def sample_geomix(params: MixtureParams, stream: SeededStream, size: int | None = None):
    """Draw from the geometric mixture; int for scalar calls, int64 array otherwise."""
    u = stream.uniforms(size if size is not None else 1)
    y = _geomix_from_uniform(np.atleast_1d(u), params)
    return int(y[0]) if size is None else y


def _truncated_laplace(spec: TruncatedLaplace, stream: SeededStream, n: int) -> np.ndarray:
    accept = 1.0 - np.exp(-spec.bound / spec.scale)
    out = np.empty(n, dtype=float)
    filled = 0
    while filled < n:
        want = n - filled
        batch = max(32, int(want / accept * 1.1) + 8)
        y = _laplace_from_uniform(stream.uniforms(batch), spec.scale)
        kept = y[np.abs(y) <= spec.bound][:want]
        out[filled : filled + kept.size] = kept
        filled += kept.size
    return out


def sample_standard(spec: MechanismSpec, stream: SeededStream, size: int | None = None):
    """Draw from a non-mixture mechanism.

    Laplace uses the inverse CDF; Geometric is the difference of two floored
    exponential draws with rate ln(alpha); RoundedLaplace rounds the Laplace
    draw half-away-from-zero.  TruncatedLaplace (rejection of |y| > bound)
    refuses to run unless its unsafe flag is set.
    """
    n = 1 if size is None else int(size)
    if isinstance(spec, Laplace):
        y = _laplace_from_uniform(np.atleast_1d(stream.uniforms(n)), spec.scale)
    elif isinstance(spec, RoundedLaplace):
        y = _round_half_away(
            _laplace_from_uniform(np.atleast_1d(stream.uniforms(n)), spec.scale)
        ).astype(np.int64)
    elif isinstance(spec, Geometric):
        lam = np.log(spec.alpha)
        e1 = -np.log(np.atleast_1d(stream.uniforms(n))) / lam
        e2 = -np.log(np.atleast_1d(stream.uniforms(n))) / lam
        y = (np.floor(e1) - np.floor(e2)).astype(np.int64)
    elif isinstance(spec, TruncatedLaplace):
        if not spec.allow_unsafe:
            raise UnsafeMechanismError(
                "truncated Laplace is not differentially private; "
                "construct it with allow_unsafe=True to sample anyway"
            )
        y = _truncated_laplace(spec, stream, n)
    elif isinstance(spec, ZeroNoise):
        y = np.zeros(n, dtype=np.int64)
    else:
        raise UnsupportedSpecError(f"sample_standard does not handle {spec!r}")
    if size is None:
        return int(y[0]) if y.dtype == np.int64 else float(y[0])
    return y


def sample(spec: MechanismSpec, stream: SeededStream, size: int | None = None):
    """Draw noise from any mechanism spec."""
    if isinstance(spec, LaplaceMixture):
        return sample_lapmix(spec.params, stream, size)
    if isinstance(spec, GeometricMixture):
        return sample_geomix(spec.params, stream, size)
    return sample_standard(spec, stream, size)


def integer_output(spec: MechanismSpec) -> bool:
    """True when the mechanism releases integers."""
    return isinstance(spec, (Geometric, GeometricMixture, RoundedLaplace, ZeroNoise))
