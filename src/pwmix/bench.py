"""Analytic sweeps, Monte Carlo utility benchmarks and empirical privacy audits.

Simulation cells (mechanism x true count) draw from independent derived
streams, so reports are byte-identical regardless of worker count or
scheduling.  The clamping rule matches the release path: when true + noise
is negative the released value is zero, i.e. the effective noise is -true.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import astuple, dataclass, fields

import numpy as np

from .accounting import _require_shift, equivalent_epsilon, zeta_closed_form
from .analytics import geomix_stats, lapmix_stats, standard_stats
from .data import Dataset, QuerySpec, count_query, json_float, record_matches
from .errors import InvalidParameterError, UndefinedMetricError
from .mechanisms import (
    Geometric,
    GeometricMixture,
    Laplace,
    LaplaceMixture,
    MechanismSpec,
    MixtureParams,
    RoundedLaplace,
    laplace_cdf,  # noqa: F401  (unused; perfbench's tracer wraps both names here)
    lapmix_cdf,  # noqa: F401
)
from .sampling import SeededStream, lattice_uniforms, sample

__all__ = [
    "error_cdf",
    "within_bound_fraction",
    "mean_relative_error",
    "TABLE1_GRID",
    "SweepRow",
    "table_sweep",
    "SimulationConfig",
    "CellReport",
    "UtilityReport",
    "run_simulation",
    "MechanismAudit",
    "audit_mechanism",
    "PrivacyAuditReport",
    "audit_privacy",
]


# ---------------------------------------------------------------------------
# metrics


def _counted_errors(errors, metric: str) -> tuple[np.ndarray, np.ndarray]:
    """The distinct |errors|, increasing, and how often each occurs."""
    errs = np.abs(np.asarray(errors, dtype=float))
    if errs.size == 0:
        raise InvalidParameterError(f"{metric} needs at least one error")
    return np.unique(errs, return_counts=True)


def _shares_at_most(errors: np.ndarray, counts: np.ndarray, thresholds) -> list[float]:
    """The share of the counted ``errors`` (distinct, increasing) at or below each threshold."""
    thresholds = np.asarray(thresholds, dtype=float)
    if np.isnan(thresholds).any():
        raise InvalidParameterError("a metric threshold is nan")
    at_most = np.concatenate(([0], np.cumsum(counts)))
    ranks = np.searchsorted(errors, thresholds, side="right")
    return (at_most[ranks] / at_most[-1]).tolist()


def _relative_tail(errors: np.ndarray, counts: np.ndarray, n_i: float, c_t: float) -> float:
    """The weight of the counted ``errors`` beyond c_t, per error, relative to n_i."""
    beyond = errors > c_t
    return math.fsum(errors[beyond] * counts[beyond]) / int(counts.sum()) / n_i


def error_cdf(errors, thresholds) -> dict:
    """Fraction of |errors| at or below each threshold."""
    thresholds = tuple(thresholds)
    return dict(zip(thresholds, _shares_at_most(*_counted_errors(errors, "error_cdf"), thresholds)))


def within_bound_fraction(errors, c_t: float) -> float:
    """Fraction of |errors| within the break-point bound."""
    return _shares_at_most(*_counted_errors(errors, "within_bound_fraction"), (c_t,))[0]


def mean_relative_error(errors, n_i: float, c_t: float) -> float:
    """Tail error weight relative to the true count.

    E(|Y| given |Y| > c_t) * P(|Y| > c_t) / n_i, with the exceedance
    probability estimated empirically; 0 when no error exceeds the bound.
    """
    if not n_i > 0:
        raise UndefinedMetricError(f"mean_relative_error needs a positive true count, got {n_i!r}")
    return _relative_tail(*_counted_errors(errors, "mean_relative_error"), n_i, c_t)


# ---------------------------------------------------------------------------
# analytic sweep

# (c_t, eps, r*eps) grid of the reference metrics table: eps in
# {0.1, 1/6, 0.2, 0.25, 0.5}, r in {2, 4, 5, 10}, with the r=10 column absent
# for eps=0.5 and c_t=7 truncated after eps=0.2.
_EPS_LEVELS = (0.1, 1.0 / 6.0, 0.2, 0.25, 0.5)
_RATIOS = (2, 4, 5, 10)
TABLE1_GRID: tuple[tuple[float, float, float], ...] = tuple(
    (float(ct), eps, r * eps)
    for ct in (4, 5, 6)
    for eps in _EPS_LEVELS
    for r in _RATIOS
    if not (eps == 0.5 and r == 10)
) + tuple((7.0, eps, r * eps) for eps in _EPS_LEVELS[:3] for r in _RATIOS)


@dataclass(frozen=True)
class SweepRow:
    """One grid point of the metrics sweep.

    Standard-mechanism columns are evaluated at the matched budgets: the
    geometric one at eps = zeta of the geometric mixture, the Laplace one at
    the solved equivalent eps of the rounded Laplace mechanism.  E|x| and
    sigma^2 for the two Laplace-family columns are moments of the
    nearest-integer release (the count-query setting), read from the runs of
    its law on the integers (``LaplaceMixture.rounded_lattice()``,
    ``RoundedLaplace.grid_law()``), which refuses a c_t past 2^52, where a half
    cell is not a double; entropies come from the continuous closed forms.
    """

    c_t: float
    eps: float
    r_eps: float
    zeta_gm: float
    zeta_lm: float
    eps_lap: float
    e_abs_gm: float
    e_abs_lm: float
    e_abs_geo: float
    e_abs_lap: float
    var_gm: float
    var_lm: float
    var_geo: float
    var_lap: float
    entropy_gm: float
    entropy_lm: float
    entropy_geo: float
    entropy_lap: float

    def as_tuple(self) -> tuple:
        return astuple(self)


# The `pwmix sweep` header: the field names in declaration order.
SweepRow.FIELDS = tuple(f.name for f in fields(SweepRow))


def sweep_point(c_t: float, eps: float, r_eps: float) -> SweepRow:
    """Evaluate one (c_t, eps, r*eps) grid point."""
    params = MixtureParams.from_rates(eps, r_eps, c_t)
    zeta_gm = zeta_closed_form(GeometricMixture(params))
    lapmix = LaplaceMixture(params)
    zeta_lm = zeta_closed_form(lapmix)
    eps_lap = equivalent_epsilon(zeta_lm)
    gm = geomix_stats(params)
    lm = lapmix_stats(params)
    geo = standard_stats(Geometric(math.exp(zeta_gm)))
    lap = standard_stats(Laplace(1.0 / eps_lap))
    e_abs_lm, var_lm, _ = lapmix.rounded_lattice().stats()
    e_abs_lap, var_lap, _ = RoundedLaplace(1.0 / eps_lap).grid_law().stats()
    return SweepRow(
        c_t=c_t,
        eps=eps,
        r_eps=r_eps,
        zeta_gm=zeta_gm,
        zeta_lm=zeta_lm,
        eps_lap=eps_lap,
        e_abs_gm=gm.mean_abs_noise,
        e_abs_lm=e_abs_lm,
        e_abs_geo=geo.mean_abs_noise,
        e_abs_lap=e_abs_lap,
        var_gm=gm.variance,
        var_lm=var_lm,
        var_geo=geo.variance,
        var_lap=var_lap,
        entropy_gm=gm.entropy,
        entropy_lm=lm.entropy,
        entropy_geo=geo.entropy,
        entropy_lap=lap.entropy,
    )


def table_sweep(grid=None) -> list[SweepRow]:
    """Evaluate the sweep on a grid of (c_t, eps, r*eps) triples."""
    if grid is None:
        grid = TABLE1_GRID
    return [sweep_point(float(ct), float(eps), float(reps)) for ct, eps, reps in grid]


# ---------------------------------------------------------------------------
# Monte Carlo utility simulation


def _thread_count() -> int:
    """Workers from ``PWMIX_THREADS``: 1 when it is unset or empty, else a positive integer."""
    env = os.environ.get("PWMIX_THREADS", "")
    if not env:
        return 1
    if not (env.isdecimal() and int(env) >= 1):
        raise InvalidParameterError(f"PWMIX_THREADS must be a positive integer, got {env!r}")
    return int(env)


# Each cell's error CDF is read at these |error| thresholds.
_ERROR_THRESHOLDS = tuple(range(26))


@dataclass(frozen=True)
class SimulationConfig:
    """Inputs of one utility simulation run."""

    true_counts: tuple[int, ...]
    mechanisms: tuple[MechanismSpec, ...]
    samples_per_cell: int
    master_seed: int
    c_t_for_metrics: float

    def __post_init__(self) -> None:
        if self.samples_per_cell < 1:
            raise InvalidParameterError("samples_per_cell must be >= 1")
        if not self.mechanisms:
            raise InvalidParameterError("at least one mechanism is required")
        counts = self.true_counts
        if not all(type(n) is not bool and isinstance(n, (int, np.integer)) and 0 <= n <= 2**53 for n in counts):
            raise InvalidParameterError(f"true counts must be whole numbers in [0, 2^53], got {counts!r}")
        if not 0.0 <= self.c_t_for_metrics < math.inf:
            raise InvalidParameterError(f"c_t_for_metrics must be finite and >= 0, got {self.c_t_for_metrics!r}")


@dataclass(frozen=True)
class CellReport:
    """Metrics of one (mechanism, true count) simulation cell."""

    mechanism: str
    true_count: int
    samples: int
    within_bound: float
    mre: float
    clamped_fraction: float
    error_cdf: dict


@dataclass(frozen=True)
class UtilityReport:
    cells: tuple[CellReport, ...]
    pooled: dict
    c_t_for_metrics: float
    master_seed: int
    samples_per_cell: int

    def to_json_dict(self) -> dict:
        return {
            "c_t_for_metrics": self.c_t_for_metrics,
            "master_seed": self.master_seed,
            "samples_per_cell": self.samples_per_cell,
            "cells": [
                {
                    "mechanism": c.mechanism,
                    "true_count": c.true_count,
                    "samples": c.samples,
                    "within_bound": c.within_bound,
                    "mre": c.mre,
                    "clamped_fraction": c.clamped_fraction,
                    "error_cdf": {str(k): v for k, v in c.error_cdf.items()},
                }
                for c in self.cells
            ],
            "pooled": self.pooled,
        }


def _simulate_cell(config: SimulationConfig, tables, mech_idx: int, count_idx: int) -> CellReport:
    spec = config.mechanisms[mech_idx]
    n = int(config.true_counts[count_idx])
    samples = int(config.samples_per_cell)
    stream = SeededStream(config.master_seed).derive(mech_idx, count_idx, 0)
    noise, counts = _noise_counts(spec, stream, samples, tables[mech_idx])
    # |max(n + noise, 0) - n|: the error of what a release gives, clamped at zero
    released = n + noise
    clamped = int(counts[released < 0].sum())
    errors, counts = _merged(np.abs(np.maximum(released, 0) - n, dtype=float), counts)
    c_t = config.c_t_for_metrics
    within_bound, *cdf = _shares_at_most(errors, counts, (c_t, *_ERROR_THRESHOLDS))
    return CellReport(
        mechanism=spec.label,
        true_count=n,
        samples=samples,
        within_bound=within_bound,
        mre=_relative_tail(errors, counts, n, c_t) if n > 0 else math.nan,
        clamped_fraction=clamped / samples,
        error_cdf=dict(zip(_ERROR_THRESHOLDS, cdf)),
    )


def run_simulation(config: SimulationConfig) -> UtilityReport:
    """Run every (mechanism, true count) cell and pool per-mechanism metrics.

    The cells run on ``PWMIX_THREADS`` worker threads.  Deterministic for a
    given master seed: each cell owns a derived stream and the reduction is by
    cell index, so worker count does not matter.
    """
    workers = _thread_count()
    tables = [_bucket_table(spec) for spec in config.mechanisms]
    tasks = [
        (i, j) for i in range(len(config.mechanisms)) for j in range(len(config.true_counts))
    ]
    if workers > 1:
        # imported here: a process that never simulates on threads does not load it
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            cells = list(pool.map(lambda t: _simulate_cell(config, tables, *t), tasks))
    else:
        cells = [_simulate_cell(config, tables, *t) for t in tasks]

    pooled: dict = {}
    for spec in config.mechanisms:
        label = spec.label
        sub = [c for c in cells if c.mechanism == label]
        total = sum(c.samples for c in sub)
        pooled[label] = {
            "within_bound": sum(c.within_bound * c.samples for c in sub) / total,
            "error_cdf": {
                str(t): sum(c.error_cdf[t] * c.samples for c in sub) / total
                for t in _ERROR_THRESHOLDS
            },
        }
    return UtilityReport(
        cells=tuple(cells),
        pooled=pooled,
        c_t_for_metrics=config.c_t_for_metrics,
        master_seed=config.master_seed,
        samples_per_cell=config.samples_per_cell,
    )


# ---------------------------------------------------------------------------
# empirical privacy audits


def _binned(values: np.ndarray) -> np.ndarray:
    """Each value to its nearest integer, a half up (floor(x + 1/2)): so an integer offset
    added after binning gives what it gives added before, at the grid's exact halves too."""
    if values.dtype.kind in "iu":
        return values.astype(np.int64, copy=False)
    return np.floor(values + 0.5).astype(np.int64)


# Words per pass of a noise tally: a tally holds its counts and one chunk of raw
# words, not all of its draws.
_AUDIT_CHUNK = 1 << 16

# A noise tally counts its draws per bucket of the uniform lattice, a bucket
# being the top _BUCKET_BITS bits of the 53-bit value, and reads each bucket's
# noise from a table (``_bucket_table``).  At the bench_ct5 presets 22 of the
# 4,096 buckets straddle a step of the geometric mixture, and 148 of the Laplace
# mixture's 1/8 grid.
_BUCKET_BITS = 12
_BUCKET_SHIFT = 53 - _BUCKET_BITS


@dataclass(frozen=True)
class _BucketTable:
    """Per lattice bucket, whether no one value covers it and which of the distinct ``noise``
    values its first lattice value draws: every draw of a covered bucket gives that one."""

    straddles: np.ndarray
    group: np.ndarray
    noise: np.ndarray


def _bucket_table(spec: MechanismSpec) -> _BucketTable:
    """The bucket table of ``spec``.

    A family's draw is its cell times an integer that does not decrease in u, its grid
    law's exact ``inverse``.  So a bucket is covered when the draw at its first lattice
    value equals the draw at its last.
    """
    first = np.arange(1 << _BUCKET_BITS, dtype=np.int64) << _BUCKET_SHIFT
    noise, last = (
        spec.draw(_Drawn(lattice_uniforms(edge)), edge.size)
        for edge in (first, first + ((1 << _BUCKET_SHIFT) - 1))
    )
    values, group = np.unique(noise, return_inverse=True)
    return _BucketTable(noise != last, group, values)


class _Drawn:
    """Stands in for a stream whose uniforms are already drawn."""

    def __init__(self, u: np.ndarray) -> None:
        self.u = u

    def uniforms(self, n: int) -> np.ndarray:
        return self.u[:n]


def _merged(values: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``values``, increasing, and the sum of the ``counts`` of each."""
    distinct, inverse = np.unique(values, return_inverse=True)
    return distinct, np.bincount(inverse, counts, distinct.size).astype(np.int64)


def _noise_counts(
    spec: MechanismSpec, stream: SeededStream, n: int, table: _BucketTable
) -> tuple[np.ndarray, np.ndarray]:
    """The distinct noise values of ``n`` draws of ``spec`` from ``stream``, increasing,
    and how often each was drawn: those of ``sample(spec, stream, n)``.

    The stream's raw words are taken ``_AUDIT_CHUNK`` at a time and counted per bucket of
    ``table`` (``_bucket_table(spec)``), read from their top bits.  The words of straddling
    buckets are held and drawn together once ``_AUDIT_CHUNK`` of them have collected, and
    at the end; every family takes one uniform per draw, so the chunk size does not matter.
    """
    per_bucket = np.zeros(table.straddles.size, dtype=np.int64)
    held: list[np.ndarray] = []  # straddling raw words not yet drawn
    tallies = []
    for start in range(0, n, _AUDIT_CHUNK):
        # raw Philox words: ``stream.lattice`` gives their top 53 bits
        words = stream.generator.bit_generator.random_raw(min(_AUDIT_CHUNK, n - start))
        buckets = (words >> (64 - _BUCKET_BITS)).view(np.int64)
        per_bucket += np.bincount(buckets, minlength=per_bucket.size)
        held.append(words[table.straddles.take(buckets)])
        if sum(map(len, held)) >= _AUDIT_CHUNK or start + _AUDIT_CHUNK >= n:
            cut = (np.concatenate(held) >> 11).view(np.int64)
            held.clear()
            drawn = sample(spec, _Drawn(lattice_uniforms(cut)), size=cut.size)
            tallies.append(np.unique(drawn, return_counts=True))
    covered = np.bincount(table.group, np.where(table.straddles, 0, per_bucket), table.noise.size)
    tallies.append((table.noise, covered.astype(np.int64)))
    values, counts = _merged(*(np.concatenate(column) for column in zip(*tallies)))
    drawn = counts > 0
    return values[drawn], counts[drawn]


def _outcome_counts(
    spec: MechanismSpec,
    stream: SeededStream,
    trials: int,
    offset: int,
    clamp: bool,
    table: _BucketTable,
) -> dict[int, int]:
    """Count each binned outcome of ``offset + noise`` over ``trials`` draws, tallied by
    ``_noise_counts``.

    With ``clamp`` an outcome below zero counts as zero, clamped before it is
    rounded, as a release clamps it.
    """
    noise, counts = _noise_counts(spec, stream, int(trials), table)
    outcomes = offset + noise
    if clamp:
        outcomes = np.maximum(outcomes, 0)
    outcomes, counts = _merged(_binned(outcomes), counts)
    return dict(zip(outcomes.tolist(), counts.tolist()))


def _frequency_losses(counts1: dict, counts2: dict, trials: int, min_count: int):
    """Per-outcome |log frequency ratio| between the outcome counts of two arms.

    Only outcomes observed at least ``min_count`` times in both arms get a
    loss estimate (add-nothing ratios).  Outcomes meeting the threshold in
    exactly one arm while absent from the other are reported separately as
    one-sided: they are the signature of a truncated mechanism.
    """
    losses: dict[int, float] = {}
    sigmas: dict[int, float] = {}
    weights: dict[int, float] = {}
    one_sided: dict[int, float] = {}
    for outcome in sorted(set(counts1) | set(counts2)):
        a = counts1.get(outcome, 0)
        b = counts2.get(outcome, 0)
        if a >= min_count and b >= min_count:
            losses[outcome] = abs(math.log(b / a))
            sigmas[outcome] = math.sqrt(1.0 / a + 1.0 / b)
            weights[outcome] = a / trials
        elif (a >= min_count and b == 0) or (b >= min_count and a == 0):
            one_sided[outcome] = max(a, b) / trials
    return losses, sigmas, weights, one_sided


@dataclass(frozen=True)
class MechanismAudit:
    """Frequency-ratio audit of one neighboring pair of noise distributions."""

    mechanism: str
    trials: int
    shift: int
    losses: dict
    sigmas: dict
    weights: dict
    one_sided: dict

    @property
    def max_abs_loss(self) -> float:
        if self.one_sided:
            return math.inf
        return max(self.losses.values(), default=0.0)

    @property
    def mean_abs_loss(self) -> float:
        """Probability-weighted average |loss| over resolvable outcomes."""
        covered = sum(self.weights.values())
        if covered == 0.0:
            return math.nan
        return sum(self.weights[o] * self.losses[o] for o in self.losses) / covered

    def max_excess_over(self, bound: float, n_sigma: float = 3.0) -> float:
        """Largest amount any outcome loss exceeds bound + n_sigma * sigma."""
        if self.one_sided:
            return math.inf
        excesses = [
            self.losses[o] - (bound + n_sigma * self.sigmas[o]) for o in self.losses
        ]
        return max(excesses, default=-math.inf)


def _require_sizes(**sizes) -> None:
    for name, size in sizes.items():
        if not size >= 1:
            raise InvalidParameterError(f"{name} must be >= 1, got {size!r}")


def _two_arm_audit(spec: MechanismSpec, trials, min_count, clamp, table, arms) -> MechanismAudit:
    """The frequency-ratio audit of two arms, each ``(stream, offset)``, whose outcomes
    ``_outcome_counts`` counts; the shift is the distance between the offsets."""
    counts = [_outcome_counts(spec, arm, trials, offset, clamp, table) for arm, offset in arms]
    losses = _frequency_losses(*counts, trials, min_count)
    return MechanismAudit(spec.label, int(trials), int(abs(arms[1][1] - arms[0][1])), *losses)


def audit_mechanism(
    spec: MechanismSpec,
    trials: int,
    stream: SeededStream,
    shift: int = 1,
    min_count: int = 50,
) -> MechanismAudit:
    """Estimate per-outcome losses between noise laws shifted by ``shift`` (a positive integer)."""
    _require_sizes(trials=trials, min_count=min_count)
    shift = _require_shift(shift)
    table = _bucket_table(spec)
    arms = (stream.derive(0), 0), (stream.derive(1), shift)
    return _two_arm_audit(spec, trials, min_count, False, table, arms)


def _clamp_free_count(spec: MechanismSpec) -> int:
    """The first n of 4, 8, 16, ... (at most 2^20) with P(noise <= 1 - n) <= 1e-12.

    From that true count on, clamping at zero is unreachable in practice.
    """
    n = 4
    while spec.cdf(1 - n) > 1e-12 and n < 1 << 20:
        n *= 2
    return n


@dataclass(frozen=True)
class PrivacyAuditReport:
    """Empirical privacy-loss audit over sampled (record, query) pairs."""

    mechanism: str
    trials: int
    n_pairs: int
    fraction_same_answer: float
    max_count_difference: int
    same_answer_max_mean_loss: float
    diff_answer_max_mean_loss: float
    diff_answer_max_outcome_loss: float
    diff_answer_max_excess_vs_eps: float
    unbounded_loss_detected: bool
    groups: tuple = ()

    def to_json_dict(self) -> dict:
        return {
            "mechanism": self.mechanism,
            "trials": self.trials,
            "n_pairs": self.n_pairs,
            "fraction_same_answer": self.fraction_same_answer,
            "max_count_difference": self.max_count_difference,
            "same_answer_max_mean_loss": self.same_answer_max_mean_loss,
            "diff_answer_max_mean_loss": self.diff_answer_max_mean_loss,
            "diff_answer_max_outcome_loss": json_float(self.diff_answer_max_outcome_loss),
            "diff_answer_max_excess_vs_eps": json_float(self.diff_answer_max_excess_vs_eps),
            "unbounded_loss_detected": self.unbounded_loss_detected,
            "groups": [dict(g) for g in self.groups],
        }


def audit_privacy(
    ds: Dataset,
    queries: list[QuerySpec],
    spec: MechanismSpec,
    trials: int,
    stream: SeededStream,
    max_records: int = 200,
    queries_per_record: int = 100,
    min_count: int = 50,
) -> PrivacyAuditReport:
    """Empirical loss between the dataset and its remove-one neighbors.

    For each sampled (record, query) pair the true counts of the pair either
    agree (record does not match the predicate) or differ by one.  Pairs are
    grouped by (agreement, true count) — counts large enough that clamping is
    unreachable share one canonical group since the loss profile is then
    count-invariant — and each group gets a two-arm frequency audit with
    ``trials`` draws per arm.
    """
    _require_sizes(trials=trials, max_records=max_records,
                   queries_per_record=queries_per_record, min_count=min_count)
    if not queries:
        raise InvalidParameterError("audit needs at least one query")
    if ds.row_count == 0:
        raise InvalidParameterError("audit needs a nonempty dataset")
    rng = stream.derive(0).generator
    n_rec = min(ds.row_count, max_records)
    rec_idx = np.sort(rng.choice(ds.row_count, size=n_rec, replace=False))
    true_counts = [count_query(ds, q) for q in queries]
    big_n = _clamp_free_count(spec)

    # picked[q, j]: whether the j-th sampled record is paired with query q
    if len(queries) > queries_per_record:
        picked = np.zeros((len(queries), n_rec), dtype=bool)
        for j in range(n_rec):
            picked[rng.choice(len(queries), size=queries_per_record, replace=False), j] = True
    else:
        picked = np.ones((len(queries), n_rec), dtype=bool)
    group_pairs = Counter()  # (kind, n1) with n1 canonicalized for clamp-free counts
    for q, n, sel in zip(queries, true_counts, picked):
        diff = int(np.count_nonzero(record_matches(ds, rec_idx, q) & sel))
        group_pairs["diff", min(n, big_n)] += diff
        group_pairs["same", min(n, big_n)] += int(np.count_nonzero(sel)) - diff
    group_pairs = +group_pairs  # drops the groups no pair fell into
    n_pairs = sum(group_pairs.values())
    n_same = sum(n for (kind, _), n in group_pairs.items() if kind == "same")
    eps_bound = spec.worst_case_eps()

    table = _bucket_table(spec)
    audits = {}  # per group, in the order of its derived streams
    for gi, (kind, n1) in enumerate(sorted(group_pairs)):
        n2 = n1 - 1 if kind == "diff" else n1
        arms = (stream.derive(1, gi, 0), n1), (stream.derive(1, gi, 1), n2)
        audits[kind, n1] = _two_arm_audit(spec, trials, min_count, True, table, arms)

    def max_outcome(audit: MechanismAudit) -> float:
        # -inf, not max_abs_loss's 0, for a group that resolves no outcome
        return audit.max_abs_loss if audit.losses or audit.one_sided else -math.inf

    # Folded in group order from 0.0 or -inf, so a group whose value is nan is passed
    # over; ``max(values, default=0.0)`` would return a first group's nan.
    same = [audit for (kind, _), audit in audits.items() if kind == "same"]
    diff = [audit for (kind, _), audit in audits.items() if kind == "diff"]
    return PrivacyAuditReport(
        mechanism=spec.label,
        trials=int(trials),
        n_pairs=n_pairs,
        fraction_same_answer=n_same / n_pairs,
        max_count_difference=int(n_same < n_pairs),
        same_answer_max_mean_loss=max([0.0, *(a.mean_abs_loss for a in same)]),
        diff_answer_max_mean_loss=max([0.0, *(a.mean_abs_loss for a in diff)]),
        diff_answer_max_outcome_loss=max([-math.inf, *map(max_outcome, diff)]),
        diff_answer_max_excess_vs_eps=max(
            [-math.inf, *(a.max_excess_over(eps_bound) for a in diff)]
        ),
        unbounded_loss_detected=any(a.one_sided for a in audits.values()),
        groups=tuple(
            {
                "kind": kind,
                "true_count": int(n1),
                "canonical_large": bool(n1 == big_n),
                "pairs": group_pairs[(kind, n1)],
                "mean_abs_loss": json_float(audit.mean_abs_loss),
                "max_outcome_loss": json_float(max_outcome(audit)),
                "one_sided_mass": sum(audit.one_sided.values()),
            }
            for (kind, n1), audit in audits.items()
        ),
    )
