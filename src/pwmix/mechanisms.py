"""Mechanism families: their laws, budgets, samplers and noise statistics.

Five noise families are supported: the Laplace mechanism, its nearest-integer
rounding, the symmetric geometric (discrete Laplace) mechanism, and the
two-piece mixture variants of the Laplace and geometric mechanisms.  A
truncated Laplace spec exists for audit demonstrations only; it is not
differentially private.

Each family is one frozen dataclass that subclasses :class:`MechanismSpec`:
its worst-case epsilon, general budget, grid law and noise statistics are
members of that class, so the rest of the toolkit asks the spec instead of
switching on its type.

Every family is the law it releases: ``cell`` times a draw of its
``grid_law()``, a :class:`_Lattice` in units of a cell.  Its mass function
(``log_prob``, in logs), CDF, sampler (that law's exact inverse at one uniform of
a :class:`~pwmix.sampling.SeededStream` per draw) and charge (that law's exact
zeta for a unit shift) are read from that law at x / cell, in
:class:`MechanismSpec`.  The three integer families have a cell of 1 and state
their runs once.  The Laplace mechanism, the Laplace mixture and the truncated
Laplace spec have a cell of ``GRID`` (1/8): their grid law is the law of their
continuous noise divided by the cell and rounded, whose runs one function
states (:func:`_rounded_laplace_runs`).  A double drawn from a continuous law
would carry low-order bits that tell neighbouring truths apart (Mironov, CCS
2012); every output of ``truth + cell K`` is an exact double that a neighbour
reaches too.  The paper's formulas stay as formulas: each
family's ``zeta()`` is its closed form, the Laplace families' ``stats()`` are
the continuous law's, and ``laplace_pdf``, ``laplace_cdf``, ``lapmix_pdf`` and
``lapmix_cdf`` state the continuous densities and CDFs.

The two mixtures are one law: an inner piece with privacy parameter
``epsilon`` (for ``|x| <= break_point``; the boundary belongs to it) and an
outer one with ``ratio * epsilon`` beyond, fused in logs by ``_fuse`` into
weights (:class:`MixtureConstants`) that make the total mass 1 and the heights
meet at the break-point; every reading of the outer piece starts from its mass
beyond the break-point.  Their label, budgets and usefulness bound are written
once.  Each mixture states its height divisors (``2 b_i`` or ``coth(rate_i/2)``)
and the paper's closed forms for zeta and, for the Laplace mixture, stats; the
sweep reads the Laplace mixture rounded to integers (``rounded_lattice``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import ClassVar

import numpy as np

from .errors import (
    BoundNotApplicableError,
    InvalidParameterError,
    PwmixError,
    UnsafeMechanismError,
    UnsupportedSpecError,
)

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
    "SPECS",
    "GRID",
    "spec_from_dict",
    "MixtureConstants",
    "laplace_pdf",
    "laplace_cdf",
    "lapmix_constants",
    "lapmix_pdf",
    "lapmix_cdf",
    "geomix_constants",
    "rounded_laplace_zeta",
]


# exp overflows a double above this.
_LOG_MAX = math.log(sys.float_info.max)
_LN2 = math.log(2.0)
_REALS = (float, int, np.floating, np.integer)
# The cell of the grid on which the Laplace mechanism and mixture release their noise.
GRID = 0.125


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
        if not (0.0 < self.eps_r < math.inf and math.isfinite(self.inner_scale) and math.isfinite(self.outer_scale)):
            raise InvalidParameterError(f"r*eps and the piece scales 1/eps and 1/(r*eps) must be finite: {self!r}")

    @classmethod
    def from_rates(cls, eps, reps, ct) -> MixtureParams:
        """The params from the command line's eps, reps (r eps) and ct, refused by those names."""
        eps = _require_positive("eps", eps)
        return cls(eps, _require_positive("reps", reps) / eps, _require_positive("ct", ct))

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
        """Break-point as an integer in [1, 2^53], where doubles step by one; raises otherwise."""
        ct = self.break_point
        if ct != int(ct) or not 1 <= ct <= _LAST_CELL:
            raise InvalidParameterError(
                f"a geomix break_point must be an integer in [1, 2^53], got {ct!r}"
            )
        return int(ct)


@dataclass(frozen=True)
class MechanismStats:
    """Noise summary: E|x|, variance and entropy (nats), each a finite double."""

    mean_abs_noise: float
    variance: float
    entropy: float

    def __post_init__(self) -> None:
        isfinite = math.isfinite
        if not (isfinite(self.mean_abs_noise) and isfinite(self.variance) and isfinite(self.entropy)):
            raise InvalidParameterError(f"a noise statistic is not a finite double: {self}")


@dataclass(frozen=True)
class MixtureConstants:
    """Weights of a two-piece mixture: ln of the inner piece's weight a2, ln of the outer
    piece's mass w1 beyond c_t (its weight at 0, which can overflow, is never formed), and
    the offset ``k_c`` that keeps the closed-form CDF continuous at the break-point."""

    log_a2: float
    log_w1: float
    k_c: float

    @property
    def a2(self) -> float:
        return math.exp(self.log_a2)

    @property
    def w1(self) -> float:
        return math.exp(self.log_w1)  # 0 where it underflows


# Bounded, so that a stream of fresh parameter points cannot grow memory
# without limit; one entry is a few hundred bytes.
CONSTANTS_CACHE_SIZE = 1024


def _fuse(params: MixtureParams, log_rho: float) -> MixtureConstants:
    """Weights that fuse an outer piece 1 and an inner piece 2 at c_t.

    Piece i alone has height exp(-rate_i |x|) / d_i at x (``d_i`` its height divisor,
    rho = d1 / d2), the inner one mass t2 = exp(-eps c_t) beyond c_t (a lattice's c_t
    cell half in, half out).  Unit mass, w1 + a2 (1 - t2) = 1, and heights that meet at
    c_t, w1 / d1 = a2 t2 / d2, give a2 = 1 / den, w1 = rho t2 / den and k_c = (w1 - a2 t2)/2
    with den = rho t2 + 1 - t2, whose positive terms are summed in logs: none underflows.
    """
    log_t2 = -params.epsilon * params.break_point
    # ln(rho t2) and ln(1 - t2); 1 - t2 is 0 where eps c_t underflows
    outer, inner = log_rho + log_t2, _log1mexp(-log_t2) if log_t2 else -math.inf
    log_den = max(outer, inner) + math.log1p(math.exp(-abs(outer - inner)))
    log_w1 = outer - log_den
    k_c = 0.5 * (math.exp(log_w1) - math.exp(log_t2 - log_den))
    return MixtureConstants(log_a2=-log_den, log_w1=log_w1, k_c=k_c)


@lru_cache(maxsize=CONSTANTS_CACHE_SIZE)
def lapmix_constants(params: MixtureParams) -> MixtureConstants:
    """Weights of the Laplace mixture (see :func:`_fuse`), whose height divisors are 2 b_i."""
    return _fuse(params, math.log(params.outer_scale) - math.log(params.inner_scale))


@lru_cache(maxsize=CONSTANTS_CACHE_SIZE)
def geomix_constants(params: MixtureParams) -> MixtureConstants:
    """Weights of the geometric mixture (see :func:`_fuse`): height divisors coth(rate_i / 2)."""
    GeometricMixture(params)  # refuses what its lattice cannot hold
    return _fuse(params, _log_coth_half(params.eps_r) - _log_coth_half(params.epsilon))


def _wrap(x, values):
    """Return a float for scalar input, else the ndarray."""
    if np.ndim(x) == 0:
        return float(values)
    return np.asarray(values, dtype=float)


def laplace_pdf(x, b: float):
    """Density of the zero-mean Laplace distribution, (1/2b) exp(-|x|/b)."""
    _require_positive("b", b)
    return _wrap(x, np.exp(-np.abs(np.asarray(x, dtype=float)) / b - (_LN2 + math.log(b))))


def laplace_cdf(x, b: float):
    """CDF of the zero-mean Laplace distribution with scale b."""
    _require_positive("b", b)
    xs = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):  # a decay beyond the double range reads exp(-inf) = 0
        lower = 0.5 * np.exp(np.minimum(xs, 0.0) / b)
        upper = 1.0 - 0.5 * np.exp(-np.maximum(xs, 0.0) / b)
    return _wrap(x, np.where(xs < 0.0, lower, upper))


def _log1mexp(x: float) -> float:
    """ln(1 - e^-x) for x > 0, to full relative precision on either side of ln 2."""
    return math.log(-math.expm1(-x)) if x < _LN2 else math.log1p(-math.exp(-x))


def _log_coth_half(rate: float) -> float:
    """ln coth(rate / 2): a lattice piece's height divisor, (1 + q) / (1 - q), q = e^-rate."""
    return math.log1p(math.exp(-rate)) - _log1mexp(rate)


def _log_sinh_half(rate: float) -> float:
    """ln sinh(rate / 2), finite where sinh overflows."""
    return 0.5 * rate - _LN2 + math.log(-math.expm1(-rate))


def _run_sums(rate: float, cells: int) -> tuple[float, float, float]:
    """(sum q^j, sum j q^j, sum j^2 q^j) over 0 <= j < ``cells``, q = exp(-rate), built along
    the binary digits of ``cells`` in positive terms: the sums over 2a cells are those over a
    plus the same at j + a times q^a, and a set digit appends a cell.  A difference of two
    endless sums cancels where ``cells * rate`` is small (4.8e-14 at 0.011 over 33 cells)."""
    mass, s1, s2, size = 1.0, 0.0, 0.0, 1.0  # cell 0, then the digits after the leading 1
    for digit in bin(cells)[3:]:
        shift = math.exp(-rate * size)  # the copy's terms at j + size, in this order
        s2 += shift * (s2 + size * (2.0 * s1 + size * mass))
        s1 += shift * (s1 + size * mass)
        mass += shift * mass
        size *= 2.0
        if digit == "1":
            cell = math.exp(-rate * size)
            mass, s1, s2, size = mass + cell, s1 + size * cell, s2 + size * size * cell, size + 1.0
    return mass, s1, s2


# For ``_Lattice.inverse``: the most tail cells it tables, and the last cell it reads.
_TAIL_CELLS = 4096
_LAST_CELL = 2.0**53


@dataclass(frozen=True)
class _Lattice:
    """A symmetric law on the integers that does not increase in |k|, as its runs.

    A run ``(first cell m, log mass at m, rate)`` holds the cells from its first up to
    the next run's, cell k having mass exp(log mass at m - rate (|k| - m)); the first
    run starts at 0, and a run of rate 0 holds one cell.  Masses stay in logs, so no
    far cell underflows before its loss is read, and each is anchored at its run's
    first cell, so rate m, however large, cancels in none of them.
    """

    runs: tuple[tuple[int, float, float], ...]

    def log_mass(self, x):
        """ln P(K = k) at each integer k."""
        m = np.abs(np.asarray(x, dtype=float))
        firsts, log_first, rates = (np.array(column) for column in zip(*self.runs))
        run = np.searchsorted(firsts, m, side="right") - 1
        return _wrap(x, log_first[run] - rates[run] * (m - firsts[run]))

    def _tail(self, m):
        """The tail T(m) = P(K >= m) at integers m >= 1 (as floats): each run's cells from m
        on, a geometric sum in logs that falls with m; capped so as not to pass 1/2."""
        tail, ends = 0.0, [run[0] for run in self.runs[1:]] + [math.inf]
        for (first, log_first, rate), end in zip(self.runs, ends):
            if end > 1:  # else cell 0 alone, below every m
                start = np.maximum(m, first)
                # ln 0 past the run; a decay beyond the double range reads exp(-inf) = 0
                with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                    cells = np.fmax(end - start, 0.0)  # of equal mass in a run of rate 0
                    log_sum = np.log(np.expm1(-rate * cells) / np.expm1(-rate) if rate else cells)
                    tail = tail + np.exp(log_first - rate * (start - first) + log_sum)
        return np.minimum(tail, 0.5)

    def cdf(self, x):
        """The tail T(m) at m = -k below 0, mirrored from m = k + 1."""
        ks = np.floor(np.asarray(x, dtype=float))
        lower = ks < 0
        tail = self._tail(np.where(lower, -ks, ks + 1.0))
        return _wrap(x, np.where(lower, tail, 1.0 - tail))

    @cached_property
    def _inverse_tables(self):
        """What ``inverse`` reads besides the uniforms, built on its first call and kept.
        Refused for a law whose tail at cell 2^53 reaches the least uniform, 2^-54: its
        draws would pile up on that cell, past which doubles do not step by one."""
        ends = [run[0] for run in self.runs[1:]]
        # d cells past the last run's first, T is at most exp(-rate d): below 2^-54 at d = 38 / rate
        cells = int(min(self.runs[-1][0] + 38.0 / self.runs[-1][2] + 2.0, _TAIL_CELLS))
        at_cells = np.concatenate((ends, np.arange(1.0, cells + 1.0), [_LAST_CELL]))
        starts, tail, (beyond,) = np.split(self._tail(at_cells), [len(ends), len(ends) + cells])
        if beyond >= 2.0**-54:
            raise InvalidParameterError(
                f"a law with mass {beyond:.3g} from cell 2^53 on cannot be drawn: its rate is too small"
            )
        # per run: first cell, T past it, (1 - q) / its first mass, q^cells, q^cells - 1,
        # -1 / rate, and whether q^cells > 1/2, where a log of it would lose the digits
        consts = []
        for (first, log_first, rate), end, past in zip(self.runs, [*ends, math.inf], [*starts, 0.0]):
            if rate:
                scale = math.exp(min(_log1mexp(rate) - log_first, _LOG_MAX))
                q_cells, drop = math.exp(-rate * (end - first)), math.expm1(-rate * (end - first))
                consts.append((first, past, scale, q_cells, drop, -1.0 / rate, q_cells > 0.5))
            else:  # one cell
                consts.append((first, past, 0.0, 1.0, 0.0, 0.0, False))
        # T at a candidate (inf at cell 0, which needs none) and at the cell after it; a
        # candidate past the table fails
        at, after = np.concatenate(([np.inf], tail[:-1], [-np.inf])), np.append(tail, 0.0)
        return starts.tolist(), cells, at, after, *(np.array(c) for c in zip(*consts))

    def inverse(self, u) -> np.ndarray:
        """The noise at each uniform u in (0, 1), int64: ``cdf``'s generalised inverse,
        mirrored at 1/2.

        u <= 1/2 gives K = -M(u), M(v) = max{m >= 0 : m = 0 or T(m) >= v} with T the tail
        that ``cdf`` reads; u > 1/2 gives M(1 - u), 1 - u being exact.  T falls with m, so
        K is non-decreasing in u.  The run that v = min(u, 1 - u) falls in is found from T
        at the runs' first cells, and its closed form gives a candidate M with one ``log``
        per draw; in a run shorter than ln 2 / its rate it is a ``log1p``, since the log of
        a value near 1 would put the candidate up to 1e-16 / rate cells off.  A table of T
        over the cells that a uniform of the stream (at least 2^-54) can reach confirms
        most candidates; the rest step by one through T, up to cell 2^53, past which
        doubles do not step by one.  The tables are built once per law.
        """
        tables = self._inverse_tables
        starts, cells, at, after, firsts, pasts, scales, q_cells, drops, inv_rates, shorts = tables
        u = np.asarray(u, dtype=float)
        flat = u.ravel()
        out = np.empty(flat.size, dtype=np.int64)
        for i in range(0, flat.size, _CHUNK):
            uc = flat[i : i + _CHUNK]
            v = np.minimum(uc, 1.0 - uc)
            run = sum(v <= s for s in starts)  # 0 for a law of one run
            with np.errstate(divide="ignore", invalid="ignore"):
                a = (v - pasts.take(run)) * scales.take(run)
                m = np.log(a + q_cells.take(run))
                short = shorts.take(run)
                if short.any():  # ln(a + q^cells) as log1p(a - (1 - q^cells))
                    m[short] = np.log1p(a[short] + drops.take(run[short]))
            m = np.fmax(np.floor(m * inv_rates.take(run) + firsts.take(run)), 0.0)  # nan to 0
            cell = np.minimum(m, cells).astype(np.intp)
            off = (at.take(cell) < v) | (after.take(cell) >= v)
            if off.any():
                m[off] = self._step(np.fmin(m[off], _LAST_CELL), v[off])
            out[i : i + uc.size] = np.where(uc > 0.5, m, -m)
        return out.reshape(u.shape)

    def _step(self, m: np.ndarray, v: np.ndarray) -> np.ndarray:
        """M(v) of ``inverse``, stepped by one through T from the candidates m."""
        while True:
            up = (m < _LAST_CELL) & (self._tail(m + 1.0) >= v)
            down = (m > 0) & (self._tail(np.maximum(m, 1.0)) < v)
            if not (up.any() or down.any()):
                return m
            m = m + up - down

    def stats(self) -> tuple[float, float, float]:
        """E|K|, E K^2 and the entropy, summed run by run in positive terms.

        A run's cell m + j has mass w q^j, q = exp(-rate).  With M, S1, S2 its sums of q^j,
        j q^j and j^2 q^j (:func:`_run_sums`; for the last run 1/p, q/p^2 and q (1 + q)/p^3,
        p = 1 - q), it adds w (m M + S1) to sum k m_k, w (m^2 M + 2 m S1 + S2) to sum k^2 m_k
        and w (rate S1 - M ln w) to the entropy.  Cells k >= 1 count twice, cell 0 once.
        """
        runs, last = self.runs, len(self.runs) - 1
        e_abs = e_sq = entropy = 0.0
        for i, (m, log_w, rate) in enumerate(runs):
            w = math.exp(log_w)
            if not w:  # 0 log 0 = 0, and m may be too large to square
                continue
            if not m:  # cell 0 counts once in the entropy doubled below
                entropy += 0.5 * w * log_w
            if not rate:  # one cell
                e_abs, e_sq, entropy = e_abs + w * m, e_sq + w * m * m, entropy - w * log_w
                continue
            if i < last:
                mass, s1, s2 = _run_sums(rate, runs[i + 1][0] - m)
            else:
                q, p = math.exp(-rate), -math.expm1(-rate)
                mass, s1, s2 = 1.0 / p, q / (p * p), q * (1.0 + q) / (p * p * p)
            e_abs += w * (m * mass + s1)
            e_sq += w * (m * (m * mass + 2.0 * s1) + s2)
            entropy += w * (rate * s1 - mass * log_w)
        return 2.0 * e_abs, 2.0 * e_sq, 2.0 * entropy

    def zeta(self, shift: int) -> float:
        """ln sum_k P(k) exp|ln P(k - shift) / P(k)|, the definitional zeta, exactly.

        It is ln(1 + the excess sum_k P(k) (exp|L(k)| - 1)), whose positive terms are
        taken in logs, so a small zeta keeps its digits.  Where k and k - shift lie in one
        run [m, e) of rate d, the loss is shift d: at k in [m + shift, e), and at k = -j
        for j in [m, e - shift).  Those two stretches add P(m) 2 sinh(shift d)
        (1 - q^(e - m - shift)) / (1 - q), q = e^-d, in closed form.  The cells left, in
        (0, shift) and within shift of a run's first cell, are summed one by one, so the
        sum takes O(runs x shift) terms however far the runs reach.
        """
        singles, stretches = [], []
        ends = [run[0] for run in self.runs[1:]] + [math.inf]
        for (first, log_first, rate), end in zip(self.runs, ends):
            singles.append(np.arange(max(first, 1), min(first + shift, end)))
            if end < math.inf:
                singles.append(-np.arange(max(first, end - shift), end))
            if rate and end - first > shift:  # a run of rate 0 has no loss inside
                rest = _log1mexp(rate * (end - first - shift)) if end < math.inf else 0.0
                two_sinh = shift * rate + _log1mexp(2.0 * shift * rate)
                stretches.append(log_first + two_sinh + rest - _log1mexp(rate))
        ks = np.concatenate(singles)
        here, there = self.log_mass(ks), self.log_mass(ks - shift)
        # P(k)^2 of a mass beyond the double range reads 0
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            # max(P(k - shift), P(k)^2 / P(k - shift)) (1 - exp -|L(k)|)
            cells = np.fmax(there, 2.0 * here - there) + np.log(-np.expm1(-np.abs(there - here)))
        # no excess where the loss is 0, nor where neither cell has mass
        terms = np.append(np.where(here == there, -np.inf, cells), stretches)
        top = terms.max()
        if top == math.inf:  # a cell of mass whose neighbour has none
            return math.inf
        return float(np.logaddexp(0.0, top + math.log(math.fsum(np.exp(terms - top)))))


class MechanismSpec:
    """What every mechanism family states about itself, and what it reads from the law it
    releases: ``cell`` times a draw of its ``grid_law()``, the law of its released noise in
    units of a cell.

    ``kind`` names the family on the command line and opens its ``label``; ``cell`` is the
    width of the grid the noise is released on, 1 when the noise, and so every release, is an
    integer.  A family states its label, budgets and grid law; its mass function, CDF,
    sampler and charge read that law at x / cell, and so do its stats unless it states the
    paper's closed forms.  Losses and budgets are for unit-shift (count and histogram) queries.
    """

    kind: ClassVar[str]
    cell: ClassVar[float] = 1

    @property
    def label(self) -> str:
        """Short stable identifier for reports, ledgers and CLI output."""
        raise NotImplementedError

    def worst_case_eps(self) -> float:
        """Differential-privacy level; inf when the loss is unbounded."""
        raise NotImplementedError

    def zeta(self) -> float:
        """General budget ln E[exp |L|] from the paper's closed form; inf when unbounded."""
        raise NotImplementedError

    def grid_law(self) -> _Lattice:
        """The law of the released noise in units of a cell."""
        raise NotImplementedError

    @cached_property
    def _law(self) -> _Lattice:
        """The grid law, built on first use and kept with its inverse tables; ``stats()``
        builds a fresh one, so a spec asked only for its formulas keeps nothing."""
        return self.grid_law()

    def log_prob(self, x):
        """ln of the mass function of the released noise at x, a point of its grid (a
        multiple of ``cell``); -inf where it is 0."""
        k = np.divide(x, self.cell)
        off = k != np.floor(k)  # nan too
        if np.any(off):
            grid = "integers" if self.cell == 1 else f"multiples of the cell {self.cell:g}"
            bad = float(np.asarray(x, dtype=float)[off].flat[0])
            raise InvalidParameterError(f"{self.label} releases noise on {grid} only, got x = {bad!r}")
        return self._law.log_mass(k)

    def prob(self, x):
        """exp(``log_prob``)."""
        return _wrap(x, np.exp(self.log_prob(x)))

    def cdf(self, x):
        """P(released noise <= x); float for scalar x, else an ndarray."""
        return self._law.cdf(np.divide(x, self.cell))

    def draw(self, stream, n: int) -> np.ndarray:
        """n noise draws from a SeededStream; int64 when ``cell`` is 1, else float64."""
        return self._law.inverse(stream.uniforms(n)) * self.cell

    def charge(self) -> float:
        """What a release is charged: the exact zeta of the released law for a unit shift,
        1 / cell cells of the grid law; inf when unbounded."""
        return self._law.zeta(round(1 / self.cell))

    def stats(self) -> MechanismStats:
        """E|x|, variance and entropy: the paper's closed forms, or sums over the grid law's runs."""
        return MechanismStats(*self.grid_law().stats())


def _rounded_laplace_runs(
    eps: float, log_a: float = 0.0, ct: float | None = None, outer: tuple[float, float] | None = None
) -> tuple:
    """The runs of a Laplace piece of rate eps and weight exp(log_a), in units of a cell,
    rounded half away from zero: cell k holds the mass on [k - 1/2, k + 1/2) and its mirror,
    exp(log_a) sinh(eps/2) e^(-eps |k|) off 0.

    With a break-point of ``ct`` cells the piece stops there: its runs are the centre cell,
    the inner run from cell 1 (k + 1/2 <= c_t), at most one cell of rate 0 that straddles c_t
    (cell 0 when c_t < 1/2) and the outer run.  ``outer`` = (r, ln w1) is a piece of rate
    r eps and mass w1 beyond c_t whose height there is the inner one's; without it the outer
    run holds no mass (its rate is immaterial).  Refused where c_t passes 2^52 cells, beyond
    which a half cell is not a double.
    """
    runs = [(0, log_a + _log1mexp(0.5 * eps), 0.0), (1, log_a + _log_sinh_half(eps) - eps, eps)]
    if ct is None:
        return tuple(runs)
    if not ct <= _LAST_CELL / 2:
        raise InvalidParameterError(
            f"ct passes 2^52 cells ({ct:g} cells), where a half cell is not a double"
        )
    k = math.ceil(ct + 0.5) - 1  # the last cell that is not outer
    last_inner = k - (k + 0.5 > ct)  # k straddles c_t unless its edge is c_t
    runs = runs[: last_inner + 1]
    ratio, log_w1 = outer or (None, None)
    if last_inner < k:
        # the mass on [lo, hi) and its mirror; at c_t the outer height is the inner one / r
        lo = max(k - 0.5, 0.0)
        x = (ct - lo) * eps
        mass = -math.expm1(-x)
        if ratio:
            mass -= math.exp(-x) * math.expm1(-(k + 0.5 - ct) * (ratio * eps)) / ratio
        log_mass = math.log(mass) if mass else -math.inf
        runs.append((k, log_a - lo * eps + log_mass - (_LN2 if k else 0.0), 0.0))
    if not ratio:
        return (*runs, (k + 1, -math.inf, 1.0))
    reps = ratio * eps
    return (*runs, (k + 1, log_w1 + _log_sinh_half(reps) - reps * (k + 1 - ct), reps))


def rounded_laplace_zeta(eps: float) -> float:
    """Closed-form general budget of the Laplace mechanism rounded to integers, b = 1/eps."""
    a = 1.0 - math.exp(-0.5 * eps)
    b = 0.5 * (math.exp(-0.5 * eps) - math.exp(-1.5 * eps))
    tails = 0.5 * math.exp(-1.5 * eps) + 0.5 * math.exp(-0.5 * eps)
    return math.log(a * a / b + a + math.exp(eps) * tails)


def _exp_series_from_3(x: float) -> float:
    """sum_{j >= 3} x^j / j! for 0 <= x < 1, in positive terms."""
    term, total, j = x * x * x / 6.0, 0.0, 3
    while total + term != total:
        total, j = total + term, j + 1
        term *= x / j
    return total


# Uniforms per pass of an inverse transform: the pass's temporaries (a few
# arrays of this length) stay in cache instead of streaming through memory.
_CHUNK = 1 << 14


@dataclass(frozen=True)
class Laplace(MechanismSpec):
    """Laplace mechanism with scale b (= 1 / epsilon), released on the grid of ``GRID``."""

    scale: float
    kind: ClassVar[str] = "laplace"
    cell: ClassVar[float] = GRID

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

    def grid_law(self) -> _Lattice:
        """The law of a draw divided by the cell and rounded half away from zero."""
        return RoundedLaplace(self.scale / self.cell).grid_law()

    def stats(self) -> MechanismStats:
        b = self.scale
        return MechanismStats(b, 2.0 * b * b, 1.0 + math.log(2.0 * b))


@dataclass(frozen=True)
class RoundedLaplace(MechanismSpec):
    """Laplace mechanism whose draw is rounded to the nearest integer."""

    scale: float
    kind: ClassVar[str] = "rlaplace"

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

    def grid_law(self) -> _Lattice:
        return _Lattice(_rounded_laplace_runs(1.0 / self.scale))

    def stats(self) -> MechanismStats:
        """The continuous closed forms of the Laplace law that is rounded."""
        return Laplace(self.scale).stats()


@dataclass(frozen=True)
class Geometric(MechanismSpec):
    """Symmetric geometric mechanism with decay alpha (= exp(epsilon))."""

    alpha: float
    kind: ClassVar[str] = "geometric"

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

    def grid_law(self) -> _Lattice:
        """One run: cell k holds ((alpha - 1)/(alpha + 1)) alpha^-|k|."""
        rate = math.log(self.alpha)
        return _Lattice(((0, -_log_coth_half(rate), rate),))


@dataclass(frozen=True)
class _TwoPieceMixture(MechanismSpec):
    """The law both mixtures share: piece i decays as exp(-|x| / b_i), with b_1, b_2 the
    params' ``outer_scale``, ``inner_scale``; the inner piece has weight a2 and the outer
    one mass w1 beyond c_t.  A subclass states its weights (``constants``), its grid law,
    and the paper's closed forms (``_zeta``, and ``stats`` for the Laplace mixture).
    """

    params: MixtureParams
    kind: ClassVar[str]

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

    def usefulness_bound(self, k: int, delta: float) -> float:
        """Accuracy radius t with P[max of k i.i.d. |released draws| >= t] <= delta.

        The continuous radius ``c_t + ln(k w1 / delta) / (r eps)`` inverts the outer tail,
        so it is tight per coordinate; it holds only where it clears the break-point, and
        raises BoundNotApplicableError otherwise.  A release is on a grid, so the radius is
        raised to the first grid point m cell whose exact two-sided tail mass under the
        grid law, 2 P(K <= -m), is at most delta / k: the nearest point at which the
        guarantee holds for what is released.
        """
        if not (0.0 < delta < 1.0):
            raise InvalidParameterError(f"delta must lie in (0, 1), got {delta!r}")
        if k < 1 or k != int(k):
            raise InvalidParameterError(f"k must be a positive integer, got {k!r}")
        ct = self.params.break_point
        radius = ct + (math.log(k / delta) + self.constants().log_w1) / self.params.eps_r
        if radius <= ct:
            raise BoundNotApplicableError(
                f"radius {radius:.4g} does not clear the break-point {ct:g}"
            )
        m = math.ceil(radius / self.cell)
        while 2.0 * self._law.cdf(-m) > delta / k:
            m += 1
        return float(m * self.cell)


@dataclass(frozen=True)
class LaplaceMixture(_TwoPieceMixture):
    """Two-piece Laplace mixture mechanism, released on the grid of ``GRID``."""

    kind: ClassVar[str] = "lapmix"
    cell: ClassVar[float] = GRID

    def constants(self) -> MixtureConstants:
        return lapmix_constants(self.params)

    def rounded_lattice(self) -> _Lattice:
        """The law of a draw rounded half away from zero (:func:`_rounded_laplace_runs`)."""
        c, p = self.constants(), self.params
        return _Lattice(_rounded_laplace_runs(p.epsilon, c.log_a2, p.break_point, (p.ratio, c.log_w1)))

    def grid_law(self) -> _Lattice:
        """The law of a draw divided by the cell and rounded half away from zero: the rounded
        law of the mixture whose rates and break-point are in units of a cell."""
        p, cell = self.params, self.cell
        grid = MixtureParams(p.epsilon * cell, p.ratio, p.break_point / cell)
        return LaplaceMixture(grid).rounded_lattice()

    def _zeta(self, c: MixtureConstants) -> float:
        reps, eps, ct = self.params.eps_r, self.params.epsilon, self.params.break_point
        a = 1.0 - c.a2 * math.exp(-0.5 * eps) - 2.0 * c.k_c
        b = 0.5 * c.a2 * (math.exp(-0.5 * eps) - math.exp(-1.5 * eps))
        inner = math.exp(eps) * c.a2 * (
            0.5 * math.exp(-0.5 * eps) + 0.5 * math.exp(-1.5 * eps) - math.exp(-ct * eps)
        )
        return math.log(a * a / b + a + inner + math.exp(c.log_w1 + reps))

    def stats(self) -> MechanismStats:
        params = self.params
        c = self.constants()
        b1, b2, ct = params.outer_scale, params.inner_scale, params.break_point
        w1 = c.w1
        x = ct / b2
        e2 = math.exp(-x)
        if x < 1.0:  # 1 - e^-x sum_{j<n} x^j/j! cancels; e^-x sum_{j>=n} x^j/j! does not
            from_3 = _exp_series_from_3(x)
            inner_abs, inner_sq = b2 * e2 * (0.5 * x * x + from_3), b2 * b2 * e2 * from_3
        else:
            inner_abs = b2 - e2 * (b2 + ct)
            inner_sq = b2 * b2 - e2 * (b2 * b2 + b2 * ct + 0.5 * ct * ct)
        mean_abs = c.a2 * inner_abs + w1 * (b1 + ct)
        variance = 2.0 * c.a2 * inner_sq + 2.0 * w1 * (b1 * b1 + b1 * ct + 0.5 * ct * ct)
        entropy = (
            (_LN2 + math.log(b2) - c.log_a2) * (1.0 - w1)
            + ((_LN2 + math.log(b1) + 1.0 - c.log_w1) * w1 if w1 else 0.0)  # 0 log 0 = 0
            - c.a2 / b2 * e2 * (b2 + ct)
            + c.a2
        )
        return MechanismStats(mean_abs, variance, entropy)


@dataclass(frozen=True)
class GeometricMixture(_TwoPieceMixture):
    """Two-piece geometric mixture mechanism (integer output)."""

    kind: ClassVar[str] = "geomix"

    def __post_init__(self) -> None:
        self.params.integer_break_point()
        if math.exp(-min(self.params.epsilon, self.params.eps_r)) == 1.0:
            raise InvalidParameterError(f"{self.label}: exp(-rate) rounds to 1 below rate 1.1e-16")

    def constants(self) -> MixtureConstants:
        return geomix_constants(self.params)

    def grid_law(self) -> _Lattice:
        """Cells a_2 tanh(eps/2) e^(-eps |k|) up to c_t, then w_1 tanh(r eps/2)
        e^(-r eps (|k| - c_t))."""
        c, p = self.constants(), self.params
        ct, reps = int(p.break_point), p.eps_r
        inner = (0, c.log_a2 - _log_coth_half(p.epsilon), p.epsilon)
        return _Lattice((inner, (ct + 1, c.log_w1 - _log_coth_half(reps) - reps, reps)))

    def _zeta(self, c: MixtureConstants) -> float:
        reps, eps, w1 = self.params.eps_r, self.params.epsilon, c.w1
        zeta = math.log(math.exp(eps) * (1.0 - w1) + math.exp(reps) * w1)
        # the log of a convex combination of e^eps and e^(r eps), which rounding
        # can take 1 ulp outside [eps, r eps] at r = 1; nan stays nan
        return float(min(max(zeta, min(eps, reps)), max(eps, reps)))


def lapmix_pdf(x, params: MixtureParams):
    """Density of the Laplace mixture: inner scale b2 up to c_t, outer b1 beyond."""
    c = lapmix_constants(params)
    ct, b1, b2 = params.break_point, params.outer_scale, params.inner_scale
    m = np.abs(np.asarray(x, dtype=float))
    inner = c.log_a2 - _LN2 - math.log(b2) - m / b2
    outer = c.log_w1 - _LN2 - math.log(b1) - (m - ct) / b1
    return _wrap(x, np.exp(np.where(m <= ct, inner, outer)))


def lapmix_cdf(x, params: MixtureParams):
    """Closed-form CDF of the Laplace mixture; continuous everywhere.

    The lower tail P(noise <= -m) at m = |x|, mirrored above 0: the outer tail from
    max(m, c_t) plus the inner mass between.  No rounding lets it rise with m or pass 1/2.
    """
    c = lapmix_constants(params)
    ct, b1, b2 = params.break_point, params.outer_scale, params.inner_scale
    xs = np.asarray(x, dtype=float)
    m = np.abs(xs)
    with np.errstate(over="ignore"):  # a decay beyond the double range reads exp(-inf) = 0
        outer = 0.5 * np.exp(c.log_w1 - (np.maximum(m, ct) - ct) / b1)
        inner_mass = c.a2 / 2.0 * np.maximum(np.exp(m / -b2) - math.exp(-ct / b2), 0.0)
    tail = np.minimum(outer + inner_mass, 0.5)
    return _wrap(x, np.where(xs <= 0.0, tail, 1.0 - tail))


@dataclass(frozen=True)
class TruncatedLaplace(MechanismSpec):
    """Laplace noise conditioned on [-bound, bound], released on the grid of ``GRID``.

    Not differentially private: neighboring counts can produce outcomes of
    zero probability under one of them, so the loss is unbounded.  Kept for
    audit demonstrations; drawing requires ``allow_unsafe=True``.
    """

    scale: float
    bound: float
    allow_unsafe: bool = False
    kind: ClassVar[str] = "trunclap"
    cell: ClassVar[float] = GRID

    def __post_init__(self) -> None:
        _require_positive("scale", self.scale)
        _require_positive("bound", self.bound)
        if not self.bound / self.scale > 0.0:
            raise InvalidParameterError(f"{self.label}: bound / scale underflows to 0")

    @property
    def label(self) -> str:
        return f"{self.kind}(b={self.scale:g},c={self.bound:g})"

    def worst_case_eps(self) -> float:
        return math.inf

    def zeta(self) -> float:
        return math.inf

    def grid_law(self) -> _Lattice:
        """The law of a draw divided by the cell and rounded half away from zero: the Laplace
        piece over its mass 1 - e^(-c/b) within the bound c, with no mass past it."""
        ct, eps = self.bound / self.cell, self.cell / self.scale
        return _Lattice(_rounded_laplace_runs(eps, -_log1mexp(ct * eps), ct))

    def draw(self, stream, n: int) -> np.ndarray:
        """Refused unless ``allow_unsafe``."""
        if not self.allow_unsafe:
            raise UnsafeMechanismError(
                f"{self.label} has unbounded privacy loss and is not differentially private; "
                "allow it with the unsafe flag (--unsafe on the command line)"
            )
        return super().draw(stream, n)

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
)


# The keys of a mechanism in its CLI/config form; any other key is refused.
_KEYS = ("kind", "eps", "reps", "ct", "unsafe")


def spec_from_dict(doc: dict) -> MechanismSpec:
    """Build a mechanism spec from the CLI/config representation.

    Keys: kind (laplace|rlaplace|geometric|lapmix|geomix|trunclap), eps,
    reps (the outer parameter r*eps), ct, unsafe; budgets are for a unit shift.
    """
    if not isinstance(doc, dict):
        raise PwmixError(f"a mechanism must be a JSON object, got {doc!r}")
    unknown = ", ".join(sorted(map(repr, set(doc) - set(_KEYS))))
    if unknown:
        raise PwmixError(f"unknown mechanism key {unknown}; the keys are {', '.join(_KEYS)}")
    unsafe = doc.get("unsafe", False)
    if not isinstance(unsafe, bool):
        raise InvalidParameterError(f"unsafe must be true or false, got {unsafe!r}")
    kind = doc.get("kind")
    kinds = [cls.kind for cls in SPECS]
    if kind not in kinds:
        raise PwmixError(f"unknown mechanism kind {kind!r}; the kinds are {', '.join(kinds)}")
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
        return TruncatedLaplace(scale=1.0 / eps, bound=bound, allow_unsafe=unsafe)
    if doc.get("reps") is None or doc.get("ct") is None:  # lapmix or geomix
        raise PwmixError(f"{kind} requires --reps and --ct")
    params = MixtureParams.from_rates(eps, doc["reps"], doc["ct"])
    return LaplaceMixture(params) if kind == "lapmix" else GeometricMixture(params)
