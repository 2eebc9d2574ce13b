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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass, fields

import numpy as np

from .accounting import equivalent_epsilon, zeta_closed_form
from .analytics import geomix_stats, lapmix_stats, standard_stats
from .data import Dataset, QuerySpec, count_query, record_matches
from .errors import InvalidParameterError, UndefinedMetricError
from .mechanisms import (
    Geometric,
    GeometricMixture,
    Laplace,
    LaplaceMixture,
    MechanismSpec,
    MixtureParams,
    laplace_cdf,
    lapmix_cdf,
)
from .sampling import SeededStream, sample

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


def error_cdf(errors, thresholds) -> dict:
    """Fraction of |errors| at or below each threshold."""
    errs = np.abs(np.asarray(errors, dtype=float))
    if errs.size == 0:
        raise InvalidParameterError("error_cdf needs at least one error")
    errs = np.sort(errs)
    out = {}
    for t in thresholds:
        out[t] = float(np.searchsorted(errs, float(t), side="right") / errs.size)
    return out


def within_bound_fraction(errors, c_t: float) -> float:
    """Fraction of |errors| within the break-point bound."""
    errs = np.abs(np.asarray(errors, dtype=float))
    if errs.size == 0:
        raise InvalidParameterError("within_bound_fraction needs at least one error")
    return float(np.mean(errs <= c_t))


def mean_relative_error(errors, n_i: float, c_t: float) -> float:
    """Tail error weight relative to the true count.

    E(|Y| given |Y| > c_t) * P(|Y| > c_t) / n_i, with the exceedance
    probability estimated empirically; 0 when no error exceeds the bound.
    """
    if not n_i > 0:
        raise UndefinedMetricError(f"mean_relative_error needs a positive true count, got {n_i!r}")
    errs = np.abs(np.asarray(errors, dtype=float))
    if errs.size == 0:
        raise InvalidParameterError("mean_relative_error needs at least one error")
    tail = errs[errs > c_t]
    if tail.size == 0:
        return 0.0
    return float(tail.sum() / errs.size / n_i)


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
    nearest-integer release (the count-query setting); entropies come from
    the continuous closed forms.
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


def _rounded_abs_moments(cdf, args) -> tuple[float, float]:
    """E|k| and E k^2 of the nearest-integer rounding of a continuous draw."""
    bound = 64
    while 1.0 - float(cdf(bound + 0.5, *args)) > 1e-16:
        bound *= 2
    ks = np.arange(1, bound + 1, dtype=float)
    cell = np.asarray(cdf(ks + 0.5, *args)) - np.asarray(cdf(ks - 0.5, *args))
    return float(2.0 * np.sum(ks * cell)), float(2.0 * np.sum(ks * ks * cell))


def sweep_point(c_t: float, eps: float, r_eps: float) -> SweepRow:
    """Evaluate one (c_t, eps, r*eps) grid point."""
    params = MixtureParams(epsilon=eps, ratio=r_eps / eps, break_point=c_t)
    zeta_gm = zeta_closed_form(GeometricMixture(params))
    zeta_lm = zeta_closed_form(LaplaceMixture(params))
    eps_lap = equivalent_epsilon(zeta_lm, "rounded_laplace")
    gm = geomix_stats(params)
    lm = lapmix_stats(params)
    geo = standard_stats(Geometric(math.exp(zeta_gm)))
    lap = standard_stats(Laplace(1.0 / eps_lap))
    e_lm, v_lm = _rounded_abs_moments(lapmix_cdf, (params,))
    e_lap, v_lap = _rounded_abs_moments(laplace_cdf, (1.0 / eps_lap,))
    return SweepRow(
        c_t=c_t,
        eps=eps,
        r_eps=r_eps,
        zeta_gm=zeta_gm,
        zeta_lm=zeta_lm,
        eps_lap=eps_lap,
        e_abs_gm=gm.mean_abs_noise,
        e_abs_lm=e_lm,
        e_abs_geo=geo.mean_abs_noise,
        e_abs_lap=e_lap,
        var_gm=gm.variance,
        var_lm=v_lm,
        var_geo=geo.variance,
        var_lap=v_lap,
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


def _thread_count(requested: int | None = None) -> int:
    if requested is not None:
        return max(1, int(requested))
    env = os.environ.get("PWMIX_THREADS", "")
    try:
        return max(1, int(env)) if env else 1
    except ValueError:
        return 1


@dataclass(frozen=True)
class SimulationConfig:
    """Inputs of one utility simulation run."""

    true_counts: tuple[int, ...]
    mechanisms: tuple[MechanismSpec, ...]
    samples_per_cell: int
    master_seed: int
    c_t_for_metrics: float
    error_thresholds: tuple[int, ...] = tuple(range(0, 26))

    def __post_init__(self) -> None:
        if self.samples_per_cell < 1:
            raise InvalidParameterError("samples_per_cell must be >= 1")
        if not self.mechanisms:
            raise InvalidParameterError("at least one mechanism is required")
        if any(n < 0 for n in self.true_counts):
            raise InvalidParameterError("true counts must be nonnegative")


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


def _simulate_cell(config: SimulationConfig, mech_idx: int, count_idx: int) -> CellReport:
    spec = config.mechanisms[mech_idx]
    n = int(config.true_counts[count_idx])
    stream = SeededStream(config.master_seed).derive(mech_idx, count_idx, 0)
    noise = np.atleast_1d(sample(spec, stream, size=config.samples_per_cell))
    released = np.maximum(n + noise, 0)
    errors = np.abs(released - n)
    clamped = float(np.mean(n + noise < 0))
    mre = mean_relative_error(errors, n, config.c_t_for_metrics) if n > 0 else math.nan
    return CellReport(
        mechanism=spec.label,
        true_count=n,
        samples=int(config.samples_per_cell),
        within_bound=within_bound_fraction(errors, config.c_t_for_metrics),
        mre=mre,
        clamped_fraction=clamped,
        error_cdf=error_cdf(errors, config.error_thresholds),
    )


def run_simulation(config: SimulationConfig, threads: int | None = None) -> UtilityReport:
    """Run every (mechanism, true count) cell and pool per-mechanism metrics.

    Deterministic for a given master seed: each cell owns a derived stream and
    the reduction is by cell index, so worker count does not matter.
    """
    tasks = [
        (i, j) for i in range(len(config.mechanisms)) for j in range(len(config.true_counts))
    ]
    workers = _thread_count(threads)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            cells = list(pool.map(lambda t: _simulate_cell(config, *t), tasks))
    else:
        cells = [_simulate_cell(config, *t) for t in tasks]

    pooled: dict = {}
    for spec in config.mechanisms:
        label = spec.label
        sub = [c for c in cells if c.mechanism == label]
        total = sum(c.samples for c in sub)
        pooled[label] = {
            "within_bound": sum(c.within_bound * c.samples for c in sub) / total,
            "error_cdf": {
                str(t): sum(c.error_cdf[t] * c.samples for c in sub) / total
                for t in config.error_thresholds
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
    if values.dtype.kind in "iu":
        return values.astype(np.int64)
    return np.round(values).astype(np.int64)


def _frequency_losses(out1: np.ndarray, out2: np.ndarray, trials: int, min_count: int):
    """Per-outcome |log frequency ratio| between two output samples.

    Only outcomes observed at least ``min_count`` times in both arms get a
    loss estimate (add-nothing ratios).  Outcomes meeting the threshold in
    exactly one arm while absent from the other are reported separately as
    one-sided: they are the signature of a truncated mechanism.
    """
    v1, c1 = np.unique(_binned(out1), return_counts=True)
    v2, c2 = np.unique(_binned(out2), return_counts=True)
    counts1 = dict(zip(v1.tolist(), c1.tolist()))
    counts2 = dict(zip(v2.tolist(), c2.tolist()))
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


def audit_mechanism(
    spec: MechanismSpec,
    trials: int,
    stream: SeededStream,
    shift: int = 1,
    min_count: int = 50,
) -> MechanismAudit:
    """Estimate per-outcome losses between noise laws shifted by ``shift``."""
    if trials < 1:
        raise InvalidParameterError("trials must be >= 1")
    y1 = np.atleast_1d(sample(spec, stream.derive(0), size=trials))
    y2 = np.atleast_1d(sample(spec, stream.derive(1), size=trials))
    losses, sigmas, weights, one_sided = _frequency_losses(
        np.asarray(y1), np.asarray(y2) + shift, trials, min_count
    )
    return MechanismAudit(
        mechanism=spec.label,
        trials=int(trials),
        shift=int(shift),
        losses=losses,
        sigmas=sigmas,
        weights=weights,
        one_sided=one_sided,
    )


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
            "diff_answer_max_outcome_loss": _json_float(self.diff_answer_max_outcome_loss),
            "diff_answer_max_excess_vs_eps": _json_float(self.diff_answer_max_excess_vs_eps),
            "unbounded_loss_detected": self.unbounded_loss_detected,
            "groups": [dict(g) for g in self.groups],
        }


def _json_float(x: float):
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return x


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
    if not queries:
        raise InvalidParameterError("audit needs at least one query")
    if ds.row_count == 0:
        raise InvalidParameterError("audit needs a nonempty dataset")
    rng = stream.derive(0).generator
    n_rec = min(ds.row_count, max_records)
    rec_idx = np.sort(rng.choice(ds.row_count, size=n_rec, replace=False))
    true_counts = [count_query(ds, q) for q in queries]
    big_n = _clamp_free_count(spec)

    group_pairs = Counter()  # (kind, n1) with n1 canonicalized for clamp-free counts
    for r in rec_idx:
        if len(queries) > queries_per_record:
            q_sel = rng.choice(len(queries), size=queries_per_record, replace=False)
        else:
            q_sel = np.arange(len(queries))
        for qi in q_sel:
            kind = "diff" if record_matches(ds, int(r), queries[int(qi)]) else "same"
            group_pairs[kind, min(true_counts[int(qi)], big_n)] += 1
    n_pairs = sum(group_pairs.values())
    n_same = sum(n for (kind, _), n in group_pairs.items() if kind == "same")
    eps_bound = spec.worst_case_eps()

    groups = []
    same_max_mean = 0.0
    diff_max_mean = 0.0
    diff_max_outcome = -math.inf
    diff_max_excess = -math.inf
    unbounded = False
    for gi, (kind, n1) in enumerate(sorted(group_pairs)):
        n2 = n1 - 1 if kind == "diff" else n1
        d1 = np.atleast_1d(sample(spec, stream.derive(1, gi, 0), size=trials))
        d2 = np.atleast_1d(sample(spec, stream.derive(1, gi, 1), size=trials))
        out1 = np.maximum(n1 + d1, 0)
        out2 = np.maximum(n2 + d2, 0)
        audit = MechanismAudit(
            spec.label, int(trials), n1 - n2, *_frequency_losses(out1, out2, trials, min_count)
        )
        mean_loss = audit.mean_abs_loss
        # -inf, not max_abs_loss's 0, for a group that resolves no outcome
        max_outcome = audit.max_abs_loss if audit.losses or audit.one_sided else -math.inf
        if audit.one_sided:
            unbounded = True
        if kind == "same":
            same_max_mean = max(same_max_mean, mean_loss)
        else:
            diff_max_mean = max(diff_max_mean, mean_loss)
            diff_max_outcome = max(diff_max_outcome, max_outcome)
            diff_max_excess = max(diff_max_excess, audit.max_excess_over(eps_bound))
        groups.append(
            {
                "kind": kind,
                "true_count": int(n1),
                "canonical_large": bool(n1 == big_n),
                "pairs": group_pairs[(kind, n1)],
                "mean_abs_loss": _json_float(mean_loss),
                "max_outcome_loss": _json_float(max_outcome),
                "one_sided_mass": sum(audit.one_sided.values()),
            }
        )

    return PrivacyAuditReport(
        mechanism=spec.label,
        trials=int(trials),
        n_pairs=n_pairs,
        fraction_same_answer=n_same / n_pairs,
        max_count_difference=int(n_same < n_pairs),
        same_answer_max_mean_loss=same_max_mean,
        diff_answer_max_mean_loss=diff_max_mean,
        diff_answer_max_outcome_loss=diff_max_outcome,
        diff_answer_max_excess_vs_eps=diff_max_excess,
        unbounded_loss_detected=unbounded,
        groups=tuple(groups),
    )
