"""Independent reference laws, written from the paper's definitions.

Nothing here imports pwmix.  The lattice laws (geometric mixture, geometric
mechanism, rounded Laplace) are built as log mass functions on a finite
window and normalised by log-sum-exp, so they stay exact where the program's
closed forms underflow (r * eps * c_t > 745).  The Laplace mixture is its
piecewise-exponential density with the constants fixed by unit mass and
continuity at c_t; its moments come from Gauss-Legendre quadrature, not
from closed forms.

Definitions (unit sensitivity, inner rate eps, outer rate r*eps, break c_t):
    geometric mixture   p(k) proportional to exp(-eps |k|)                 for |k| <= c_t
                        p(k) proportional to exp(-eps c_t - r eps (|k| - c_t)) beyond
    geometric mechanism p(k) proportional to exp(-eps |k|)
    rounded Laplace     p(k) = F(k + 1/2) - F(k - 1/2), F the Laplace(1/eps) CDF
    Laplace mixture     f(x) = A2 exp(-eps |x|) for |x| <= c_t, A1 exp(-r eps |x|) beyond,
                        A1 exp(-r eps c_t) = A2 exp(-eps c_t), integral 1
    zeta                ln sum_k p(k) exp|ln p(k-1) / p(k)|
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Window half-width beyond the break-point, in units of 1 / outer rate: the
# mass left out is below exp(-TAIL_NATS).
TAIL_NATS = 60.0


def _logsumexp(x: np.ndarray) -> float:
    m = float(np.max(x))
    return m + math.log(float(np.sum(np.exp(x - m))))


@dataclass(frozen=True)
class LatticeLaw:
    """A symmetric law on the integers -K..K, with log-masses."""

    ks: np.ndarray
    logp: np.ndarray

    @property
    def p(self) -> np.ndarray:
        return np.exp(self.logp)

    def mass(self) -> float:
        return float(np.sum(self.p))

    def e_abs(self) -> float:
        return float(np.sum(np.abs(self.ks) * self.p))

    def variance(self) -> float:
        return float(np.sum(self.ks.astype(float) ** 2 * self.p))

    def p_within(self, c: float) -> float:
        """P(|Y| <= c)."""
        return float(np.sum(self.p[np.abs(self.ks) <= c]))

    def zeta(self) -> float:
        """ln sum_k p(k) exp|ln p(k-1) - ln p(k)| at unit shift."""
        here, below = self.logp[1:], self.logp[:-1]
        return _logsumexp(here + np.abs(below - here))


def _lattice(eps_in: float, eps_out: float, c_t: float, cells=None) -> LatticeLaw:
    k_max = int(math.ceil(c_t + TAIL_NATS / min(eps_in, eps_out))) + 2
    ks = np.arange(-k_max, k_max + 1)
    a = np.abs(ks).astype(float)
    logw = np.where(a <= c_t, -eps_in * a, -eps_in * c_t - eps_out * (a - c_t))
    if cells is not None:
        logw = cells(ks, logw)
    return LatticeLaw(ks, logw - _logsumexp(logw))


def geometric_mixture(eps: float, r_eps: float, c_t: int) -> LatticeLaw:
    return _lattice(eps, r_eps, float(c_t))


def geometric(eps: float) -> LatticeLaw:
    return _lattice(eps, eps, 0.0)


def rounded_laplace(eps: float) -> LatticeLaw:
    """Nearest-integer rounding of a Laplace(1/eps) draw."""
    # For k != 0: F(|k| + 1/2) - F(|k| - 1/2) = exp(-eps |k|) sinh(eps / 2).
    # For k == 0: 1 - exp(-eps / 2).
    log_sinh = math.log(math.sinh(eps / 2.0))
    log_center = math.log(-math.expm1(-eps / 2.0))

    def cells(ks, logw):
        return np.where(ks == 0, log_center, log_sinh + logw)

    return _lattice(eps, eps, 0.0, cells)


@dataclass(frozen=True)
class LaplaceMixtureLaw:
    """Continuous two-piece Laplace mixture."""

    eps: float
    r_eps: float
    c_t: float

    @property
    def a2(self) -> float:
        # Unit mass: 2 * [A2 (1 - e^{-eps c}) / eps + A1 e^{-r eps c} / (r eps)] = 1
        # with A1 e^{-r eps c} = A2 e^{-eps c}.
        e2 = math.exp(-self.eps * self.c_t)
        return 1.0 / (2.0 * ((1.0 - e2) / self.eps + e2 / self.r_eps))

    def pdf(self, x):
        ax = np.abs(np.asarray(x, dtype=float))
        inner = self.a2 * np.exp(-self.eps * ax)
        outer = self.a2 * np.exp(-self.eps * self.c_t - self.r_eps * (np.maximum(ax, self.c_t) - self.c_t))
        return np.where(ax <= self.c_t, inner, outer)

    def cdf(self, x: float) -> float:
        """Piecewise closed-form integral of pdf from -inf to x."""
        a2, e, re, c = self.a2, self.eps, self.r_eps, self.c_t
        at_break = a2 * math.exp(-e * c) / re  # F(-c)
        ax = abs(x)
        if ax >= c:
            lower = a2 * math.exp(-e * c - re * (ax - c)) / re
        else:
            lower = at_break + a2 * (math.exp(-e * ax) - math.exp(-e * c)) / e
        return lower if x <= 0 else 1.0 - lower

    def p_within(self, c: float) -> float:
        return self.cdf(c) - self.cdf(-c)

    def _abs_moment(self, power: int) -> float:
        nodes, weights = np.polynomial.legendre.leggauss(96)
        total = 0.0
        far = self.c_t + TAIL_NATS / self.r_eps
        for lo, hi in ((0.0, self.c_t), (self.c_t, far)):
            x = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
            total += 0.5 * (hi - lo) * float(np.sum(weights * x**power * self.pdf(x)))
        return 2.0 * total

    def e_abs(self) -> float:
        return self._abs_moment(1)

    def variance(self) -> float:
        return self._abs_moment(2)


def law(kind: str, eps: float, r_eps: float | None = None, c_t: float | None = None):
    """Reference law of a mechanism in the CLI's config form."""
    if kind == "geomix":
        return geometric_mixture(eps, r_eps, int(c_t))
    if kind == "lapmix":
        return LaplaceMixtureLaw(eps, r_eps, float(c_t))
    if kind == "geometric":
        return geometric(eps)
    if kind == "rlaplace":
        return rounded_laplace(eps)
    raise ValueError(f"no reference law for {kind!r}")


def _folded_normal_mean(mu: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """E|X| for X ~ N(mu, sigma^2)."""
    z = mu / sigma
    phi = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    upper = 0.5 * np.array([math.erfc(-v / math.sqrt(2.0)) for v in z])  # Phi(z)
    return sigma * 2.0 * phi + mu * (2.0 * upper - 1.0)


def audit_mean_loss(outcome_p: np.ndarray, shifted_p: np.ndarray, trials: int, min_count: int):
    """Expected probability-weighted mean |log frequency ratio| of a two-arm audit.

    Arm 1 draws outcomes with probabilities ``outcome_p``, arm 2 with
    ``shifted_p`` (same outcomes), ``trials`` draws each.  An outcome is
    resolvable when both expected counts reach ``min_count``.  Each
    resolvable outcome's estimate |ln(b/a)| is taken as a folded normal with
    mean |ln(q/p)| and variance 1/(T p) + 1/(T q).  Returns the expected
    weighted mean and its standard error.
    """
    keep = (trials * outcome_p >= min_count) & (trials * shifted_p >= min_count)
    p, q = outcome_p[keep], shifted_p[keep]
    covered = float(np.sum(p))
    loss = np.abs(np.log(q / p))
    sigma = np.sqrt(1.0 / (trials * p) + 1.0 / (trials * q))
    per_outcome = _folded_normal_mean(loss, sigma)
    mean = float(np.sum(p * per_outcome)) / covered
    # Spread from the loss estimates and from the empirical weights.
    var = float(np.sum((p / covered) ** 2 * sigma**2))
    var += float(np.sum((per_outcome - mean) ** 2 * p / trials)) / covered**2
    return mean, math.sqrt(var)


def clamped_outcomes(ref: LatticeLaw, true_count: int) -> np.ndarray:
    """Probabilities of the released outcomes 0, 1, 2, ... for a true count.

    Releases are max(true + noise, 0), so outcome 0 holds P(noise <= -true).
    """
    released = ref.ks + true_count
    p = ref.p
    top = int(released.max())
    out = np.zeros(top + 1)
    np.add.at(out, np.maximum(released, 0), p)
    return out
