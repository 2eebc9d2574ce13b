import io
import json
import math
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pwmix import bench
from pwmix.bench import (
    TABLE1_GRID,
    CellReport,
    _bucket_table,
    _clamp_free_count,
    _outcome_counts,
    SimulationConfig,
    audit_mechanism,
    audit_privacy,
    error_cdf,
    mean_relative_error,
    run_simulation,
    sweep_point,
    table_sweep,
    within_bound_fraction,
)
from pwmix.cli import _random_queries, spec_from_dict
from pwmix.data import QuerySpec, count_query, load_dataset, record_matches
from pwmix.errors import InvalidParameterError, UndefinedMetricError, UnsafeMechanismError
from pwmix.mechanisms import (
    GRID,
    Geometric,
    GeometricMixture,
    Laplace,
    LaplaceMixture,
    MixtureParams,
    RoundedLaplace,
    TruncatedLaplace,
    geomix_constants,
    laplace_cdf,
    lapmix_cdf,
    lapmix_constants,
)
from pwmix.sampling import SeededStream, sample

from conftest import ALL_STRADDLE, EXACT_ZERO, PRESET_A, PRESET_B, make_synthetic_dataset


class TestMetrics:
    def test_error_cdf_all_zero(self):
        cdf = error_cdf([0, 0, 0], [0, 1, 5])
        assert cdf == {0: 1.0, 1: 1.0, 5: 1.0}

    def test_error_cdf_simple(self):
        cdf = error_cdf([0, 1, 2, 3], [1])
        assert cdf[1] == pytest.approx(0.5)

    def test_error_cdf_monotone(self):
        errs = np.arange(100)
        cdf = error_cdf(errs, range(0, 120, 7))
        vals = list(cdf.values())
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] == 1.0

    def test_within_bound(self):
        assert within_bound_fraction([0, 0, 6], 5) == pytest.approx(2 / 3)
        assert within_bound_fraction([0.0], 5) == 1.0

    def test_nan_threshold_refused(self):
        # a nan bound is no bound: the sorted errors would put it past them all
        with pytest.raises(InvalidParameterError, match="threshold is nan"):
            within_bound_fraction([0, 6], math.nan)
        with pytest.raises(InvalidParameterError, match="threshold is nan"):
            error_cdf([0, 6], [1, math.nan])

    def test_mre_zero_when_inside(self):
        assert mean_relative_error([1, 2, 3], 10, 5) == 0.0

    def test_mre_formula(self):
        errors = [6, 8] + [0] * 98
        assert mean_relative_error(errors, 10, 5) == pytest.approx(0.014)

    def test_mre_undefined_for_zero_count(self):
        with pytest.raises(UndefinedMetricError):
            mean_relative_error([1, 2], 0, 5)

    def test_mre_order_invariant_and_scaling(self):
        errors = [9, 0, 7, 0, 12, 3]
        a = mean_relative_error(errors, 10, 5)
        b = mean_relative_error(list(reversed(errors)), 10, 5)
        assert a == b
        assert mean_relative_error(errors, 100, 5) == pytest.approx(a / 10)


class TestTableSweep:
    def test_grid_size(self):
        assert len(TABLE1_GRID) == 69

    def test_spot_row_preset_a(self):
        row = sweep_point(5.0, 0.2, 1.0)
        assert round(row.zeta_gm, 3) == 0.328
        assert round(row.zeta_lm, 3) == 0.309
        assert round(row.eps_lap, 3) == 0.332
        assert row.e_abs_gm == pytest.approx(2.48, abs=0.02)
        assert row.var_gm == pytest.approx(9.61, abs=0.02)
        assert row.entropy_gm == pytest.approx(2.54, abs=0.01)

    def test_spot_row_preset_b(self):
        row = sweep_point(6.0, 0.1, 1.0)
        assert round(row.zeta_gm, 3) == 0.257
        assert round(row.zeta_lm, 3) == 0.243
        assert round(row.eps_lap, 3) == 0.257

    def test_collapse_row(self):
        row = sweep_point(5.0, 0.3, 0.3)
        assert row.zeta_gm == pytest.approx(0.3, abs=1e-12)
        assert row.e_abs_gm == pytest.approx(row.e_abs_geo, abs=1e-9)
        assert row.var_gm == pytest.approx(row.var_geo, abs=1e-9)
        # at ratio 1 the Laplace mixture is the Laplace law its budget matches
        assert row.e_abs_lm == pytest.approx(row.e_abs_lap, rel=1e-12)
        assert row.var_lm == pytest.approx(row.var_lap, rel=1e-12)

    def test_rounded_columns_match_the_probe_loop(self):
        for c_t, eps, r_eps in TABLE1_GRID:
            row = sweep_point(c_t, eps, r_eps)
            params = MixtureParams(epsilon=eps, ratio=r_eps / eps, break_point=c_t)
            want = _probe_moments(lapmix_cdf, (params,)) + _probe_moments(
                laplace_cdf, (1.0 / row.eps_lap,)
            )
            got = (row.e_abs_lm, row.var_lm, row.e_abs_lap, row.var_lap)
            assert got == pytest.approx(want, rel=1e-12)

    def test_tiny_eps_row(self):
        # scales near 1e9: a cell-by-cell sum would need about 2^35 cells
        row = sweep_point(5.0, 1e-9, 2e-9)
        params = MixtureParams(epsilon=1e-9, ratio=2.0, break_point=5.0)
        continuous = LaplaceMixture(params).stats()
        assert row.e_abs_lm == pytest.approx(continuous.mean_abs_noise, rel=1e-6)
        assert row.var_lm == pytest.approx(continuous.variance, rel=1e-6)
        assert row.e_abs_lap == pytest.approx(1.0 / row.eps_lap, rel=1e-6)
        assert row.var_lap == pytest.approx(2.0 / row.eps_lap**2, rel=1e-6)

    def test_custom_grid(self):
        rows = table_sweep([(5.0, 0.2, 1.0)])
        assert len(rows) == 1
        assert rows[0].c_t == 5.0


def _probe_moments(cdf, args) -> tuple[float, float]:
    """E|K| and E K^2 of a symmetric law rounded half away from zero, summed cell by
    cell from its CDF: the loop ``sweep_point`` used before its closed form.

    Cell k >= 1 is read on the lower half, as cdf(1/2 - k) - cdf(-1/2 - k), where the
    CDF holds small masses to full relative precision; on the upper half, 1 - tail
    rounds every mass below 1e-16 away.
    """
    bound = 64
    while float(cdf(-bound - 0.5, *args)) > 1e-20 * float(cdf(-0.5, *args)):
        bound *= 2
    ks = np.arange(1, bound + 1, dtype=float)
    cell = np.asarray(cdf(0.5 - ks, *args)) - np.asarray(cdf(-0.5 - ks, *args))
    return float(2.0 * np.sum(ks * cell)), float(2.0 * np.sum(ks * ks * cell))


class TestRoundedMoments:
    @settings(max_examples=150, deadline=None)
    @given(
        eps=st.floats(0.01, 5.0),
        ratio=st.floats(1.0, 50.0),
        ct=st.one_of(
            st.floats(0.0, 40.0, exclude_min=True),
            st.integers(0, 39).map(lambda k: k + 0.5),  # no cell straddles c_t
            st.floats(0.0, 0.5, exclude_min=True),  # every cell k >= 1 is outer
        ),
    )
    @example(eps=0.01, ratio=50.0, ct=1.5)  # one inner cell, where a tail difference cancels
    @example(eps=0.2, ratio=5.0, ct=0.25)
    @example(eps=1.0, ratio=3.0, ct=35.5)  # beyond the cells summed one by one
    def test_lapmix_matches_the_probe_loop(self, eps, ratio, ct):
        params = MixtureParams(epsilon=eps, ratio=ratio, break_point=ct)
        got = LaplaceMixture(params).rounded_lattice().stats()[:2]
        assert got == pytest.approx(_probe_moments(lapmix_cdf, (params,)), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(eps=st.floats(0.01, 5.0), ct=st.floats(0.0, 40.0, exclude_min=True))
    def test_one_piece_is_the_rounded_laplace(self, eps, ct):
        # where c_t falls does not matter when both pieces are one law
        b = 1.0 / eps
        half = 0.5 * eps
        want = (0.5 / math.sinh(half), 0.5 * math.cosh(half) / math.sinh(half) ** 2)
        one_piece = LaplaceMixture(MixtureParams(epsilon=eps, ratio=1.0, break_point=ct))
        for law in (one_piece.rounded_lattice(), RoundedLaplace(b).lattice()):
            got = law.stats()[:2]
            assert got == pytest.approx(_probe_moments(laplace_cdf, (b,)), rel=1e-12)
            assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize(
        "eps, ratio, ct",
        [
            # r eps c_t = 700: the outer weight at 0 would be near 1e301, and the outer
            # cells carry 0.3% of E|K|
            (0.01, 6829.0, 10.25),
            # r eps = 1500: sinh(r eps / 2), a factor of the outer cells' mass, overflows
            (5.0, 300.0, 0.4),
        ],
    )
    def test_outer_piece_at_the_double_limits(self, eps, ratio, ct):
        params = MixtureParams(epsilon=eps, ratio=ratio, break_point=ct)
        got = LaplaceMixture(params).rounded_lattice().stats()[:2]
        assert got == pytest.approx(_probe_moments(lapmix_cdf, (params,)), rel=1e-12)

    def test_no_mass_beyond_the_lattice(self):
        # every cell but the centre underflows
        assert RoundedLaplace(1e-4).lattice().stats()[:2] == (0.0, 0.0)
        # the outer weight underflows to 0, so the outer run adds nothing (0 log 0 = 0)
        params = MixtureParams(epsilon=48.9, ratio=2.153 / 48.9, break_point=21.56)
        assert lapmix_constants(params).w1 == 0.0
        got = LaplaceMixture(params).rounded_lattice().stats()
        assert got == pytest.approx(RoundedLaplace(1 / 48.9).lattice().stats(), rel=1e-12)


def geometric_series_x(q: float, first: int) -> float:
    """sum_{x=first}^inf x q^x for 0 < q < 1."""
    return q**first * (first - (first - 1) * q) / (1.0 - q) ** 2


class TestRunSimulation:
    def _config(self, **kw):
        base = dict(
            true_counts=(1, 10, 1000),
            mechanisms=(GeometricMixture(PRESET_A),),
            samples_per_cell=50_000,
            master_seed=314,
            c_t_for_metrics=5.0,
        )
        base.update(kw)
        return SimulationConfig(**base)

    def test_zero_noise_stub(self):
        report = run_simulation(self._config(mechanisms=(EXACT_ZERO,)))
        for cell in report.cells:
            assert cell.within_bound == 1.0
            assert cell.mre == 0.0
            assert cell.error_cdf[0] == 1.0

    def test_determinism_across_workers(self, monkeypatch):
        cfg = self._config()
        monkeypatch.setenv("PWMIX_THREADS", "1")
        r1 = run_simulation(cfg)
        monkeypatch.setenv("PWMIX_THREADS", "4")
        r4 = run_simulation(cfg)
        assert r1.to_json_dict() == r4.to_json_dict()

    def test_threads_unset_or_empty_is_one(self, monkeypatch):
        monkeypatch.delenv("PWMIX_THREADS", raising=False)
        assert bench._thread_count() == 1
        monkeypatch.setenv("PWMIX_THREADS", "")
        assert bench._thread_count() == 1
        monkeypatch.setenv("PWMIX_THREADS", "3")
        assert bench._thread_count() == 3

    def test_within_bound_matches_analytics(self):
        report = run_simulation(self._config(samples_per_cell=200_000))
        cells = {c.true_count: c for c in report.cells}
        # P(|Y| <= 5) = 0.93992 unclamped; clamping lifts the n=1 cell
        assert cells[1000].within_bound == pytest.approx(0.94001, abs=0.004)
        assert cells[1].within_bound == pytest.approx(0.97001, abs=0.004)

    def test_clamping_only_for_small_counts(self):
        report = run_simulation(self._config())
        cells = {c.true_count: c for c in report.cells}
        assert cells[1].clamped_fraction > 0.1
        assert cells[1000].clamped_fraction == 0.0

    def test_validation(self):
        with pytest.raises(Exception):
            self._config(samples_per_cell=0)
        with pytest.raises(Exception):
            self._config(mechanisms=())

    @pytest.mark.parametrize("count", [1.7, True, -1, 2**53 + 1])
    def test_true_count_not_a_whole_number_in_range(self, count):
        # a cell read int(1.7) as a true count of 1
        with pytest.raises(InvalidParameterError, match="true counts must be whole numbers"):
            self._config(true_counts=(count,))

    def test_mre_inflation_between_presets(self):
        # moving to the tighter-budget preset inflates relative error ~1.2x
        ratios = []
        for params in (PRESET_A, PRESET_B):
            c = geomix_constants(params)
            q1 = math.exp(-params.eps_r)
            c1 = (1 - q1) / (1 + q1)
            ct = params.integer_break_point()
            ratios.append(2 * c.w1 * c1 * geometric_series_x(q1, ct + 1) / q1**ct)
        analytic_inflation = ratios[1] / ratios[0]
        assert analytic_inflation == pytest.approx(1.2, abs=0.05)
        cfg_a = self._config(true_counts=(1000,), samples_per_cell=400_000)
        cfg_b = self._config(
            true_counts=(1000,),
            samples_per_cell=400_000,
            mechanisms=(GeometricMixture(PRESET_B),),
            c_t_for_metrics=6.0,
        )
        mre_a = run_simulation(cfg_a).cells[0].mre
        mre_b = run_simulation(cfg_b).cells[0].mre
        assert mre_b / mre_a == pytest.approx(analytic_inflation, rel=0.08)


def _drawn_and_sorted_cell(config: SimulationConfig, mech_idx: int, count_idx: int) -> CellReport:
    """One cell's report from all its draws held in one array and sorted: the oracle for
    the tally that ``run_simulation`` reads its cells from."""
    spec = config.mechanisms[mech_idx]
    n = int(config.true_counts[count_idx])
    stream = SeededStream(config.master_seed).derive(mech_idx, count_idx, 0)
    raw = n + np.atleast_1d(sample(spec, stream, size=config.samples_per_cell))
    clamped_fraction = float(np.mean(raw < 0))
    np.maximum(raw, 0, out=raw)
    raw -= n
    errors = np.abs(raw, dtype=float)
    ranked = np.sort(errors)

    def at_most(t) -> float:
        return float(np.searchsorted(ranked, float(t), side="right") / ranked.size)

    c_t = config.c_t_for_metrics
    tail = errors[errors > c_t]
    mre = math.nan if n == 0 else float(tail.sum() / errors.size / n) if tail.size else 0.0
    return CellReport(
        mechanism=spec.label,
        true_count=n,
        samples=int(config.samples_per_cell),
        within_bound=at_most(c_t),
        mre=mre,
        clamped_fraction=clamped_fraction,
        error_cdf={t: at_most(t) for t in bench._ERROR_THRESHOLDS},
    )


# The four families of configs/bench_ct5.json, the Laplace mechanism at the budget
# rlaplace is matched to, and trunclap.
SIX_FAMILIES = (
    GeometricMixture(PRESET_A),
    LaplaceMixture(PRESET_A),
    Geometric(alpha=math.exp(0.32810599476390334)),
    RoundedLaplace(scale=1.0 / 0.33180903378641224),
    Laplace(scale=1.0 / 0.332),
    TruncatedLaplace(scale=5.0, bound=5.0, allow_unsafe=True),
)


class TestCellTally:
    """A cell read from the tally of its noise, against its draws held and sorted."""

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_equals_the_drawn_and_sorted_cell(self, monkeypatch, threads):
        config = SimulationConfig(
            true_counts=(0, 1, 3, 50),
            mechanisms=SIX_FAMILIES,
            samples_per_cell=2 * (1 << 16) + 17,
            master_seed=42,
            c_t_for_metrics=5.0,
        )
        monkeypatch.setenv("PWMIX_THREADS", threads)
        got = run_simulation(config).cells
        want = [
            _drawn_and_sorted_cell(config, i, j)
            for i in range(len(config.mechanisms))
            for j in range(len(config.true_counts))
        ]
        # repr: the floats bit for bit and their types, and nan equal to nan
        assert list(map(repr, got)) == list(map(repr, want))

    def test_memory_of_a_cell(self, monkeypatch):
        # 10^6 draws held as floats would take 8 MB an array; a cell keeps their tally
        monkeypatch.delenv("PWMIX_THREADS", raising=False)
        config = SimulationConfig(
            true_counts=(3,),
            mechanisms=(LaplaceMixture(PRESET_A),),
            samples_per_cell=10**6,
            master_seed=42,
            c_t_for_metrics=5.0,
        )
        tracemalloc.start()
        try:
            run_simulation(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000

    def test_bench_ct5_within_five_sigma_of_the_law(self):
        # A cell's error at truth n is e = |max(n + noise, 0) - n|: |noise|, or n where the
        # release clamps (noise < -n).  So P(e <= t) is P(noise <= t) for t >= n, else
        # P(-t <= noise <= t), for within_bound (t = c) and each error_cdf threshold;
        # clamped_fraction is P(noise < -n); and mre is E[e 1{e > c}] / n, summed over the
        # grid's cells from -n out to ``reach``, past which the law holds below 1e-15.
        reach = 4000.0
        doc = json.loads((Path(__file__).parent.parent / "configs" / "bench_ct5.json").read_text())
        config = SimulationConfig(
            true_counts=tuple(doc["true_counts"]),
            mechanisms=tuple(map(spec_from_dict, doc["mechanisms"])),
            samples_per_cell=10**5,
            master_seed=42,
            c_t_for_metrics=float(doc["c_t_for_metrics"]),
        )
        for cell, (spec, n) in zip(
            run_simulation(config).cells,
            [(spec, n) for spec in config.mechanisms for n in config.true_counts],
        ):
            c = config.c_t_for_metrics

            def below(x):  # P(noise < x)
                return float(spec.cdf(np.nextafter(x, -np.inf)))

            def at_most(t):  # P(e <= t)
                return float(spec.cdf(t)) - (below(-t) if t < n else 0.0)

            shares = [(cell.within_bound, at_most(c)), (cell.clamped_fraction, below(-n))]
            shares += [(got, at_most(t)) for t, got in cell.error_cdf.items()]
            assert len(shares) == 28
            for got, p in shares:
                sigma = math.sqrt(p * (1.0 - p) / cell.samples)
                assert abs(got - p) <= 5.0 * sigma + 1e-12, (cell.mechanism, n, got, p)
            if n > 0:
                assert float(spec.cdf(-reach)) < 1e-15
                ks = np.arange(-n / spec.cell, reach / spec.cell + 1.0) * spec.cell
                errors = np.abs(ks)
                mass = np.where(errors > c, spec.prob(ks), 0.0)
                clamped = below(-n) if n > c else 0.0
                mre = (math.fsum(errors * mass) + n * clamped) / n
                second = (math.fsum(errors * errors * mass) + n * n * clamped) / (n * n)
                sigma = math.sqrt((second - mre * mre) / cell.samples)
                assert abs(cell.mre - mre) <= 5.0 * sigma + 1e-12, (cell.mechanism, n, mre)


class TestAuditMechanism:
    def test_geometric_loss_flat(self):
        spec = Geometric(alpha=math.exp(0.5))
        audit = audit_mechanism(spec, 200_000, SeededStream(404))
        assert audit.max_excess_over(0.5) <= 0.0
        # precisely estimated outcomes sit right on the constant loss
        for outcome, loss in audit.losses.items():
            if audit.sigmas[outcome] < 0.01:
                assert loss == pytest.approx(0.5, abs=0.04)

    def test_geomix_bounded_by_outer(self):
        audit = audit_mechanism(GeometricMixture(PRESET_A), 200_000, SeededStream(405))
        assert audit.max_excess_over(PRESET_A.eps_r) <= 0.0
        assert not audit.one_sided

    def test_truncated_one_sided(self):
        spec = TruncatedLaplace(scale=2.0, bound=5.0, allow_unsafe=True)
        audit = audit_mechanism(spec, 100_000, SeededStream(406))
        assert audit.one_sided
        assert audit.max_abs_loss == math.inf
        assert 6 in audit.one_sided  # outcome just past the shifted support edge

    def test_memory_scales_with_outcomes_not_trials(self):
        # 10^6 draws per arm would take 8 MB each; the arms keep only their counts
        tracemalloc.start()
        try:
            audit_mechanism(GeometricMixture(PRESET_A), 10**6, SeededStream(407))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000

    def test_float_trials(self):
        spec = Laplace(scale=2.0)
        audit = audit_mechanism(spec, 1e4, SeededStream(409))
        assert audit == audit_mechanism(spec, 10**4, SeededStream(409))

    @pytest.mark.parametrize("key", ["trials", "min_count"])
    @pytest.mark.parametrize("value", [0, -5, 0.5])
    def test_sizes_below_one_refused(self, key, value):
        sizes = {"trials": 100, key: value}
        with pytest.raises(InvalidParameterError, match=f"{key} must be >= 1, got {value}"):
            audit_mechanism(Laplace(2.0), stream=SeededStream(1), **sizes)

    @pytest.mark.parametrize("shift", [0.5, 0, -1, True, 2.0])
    def test_shift_not_a_positive_integer_refused(self, shift):
        # a half shift would read the half-integer outcomes as one-sided: a false "unbounded"
        with pytest.raises(InvalidParameterError, match="shift must be a positive integer"):
            audit_mechanism(GeometricMixture(PRESET_A), 100, SeededStream(1), shift=shift)


class TestOutcomeCounts:
    """An arm counted a chunk at a time matches the counts of one call's draws."""

    @pytest.mark.parametrize(
        "spec, offset, clamp",
        [
            (GeometricMixture(PRESET_A), 3, True),
            (LaplaceMixture(PRESET_A), 0, True),
            (Laplace(scale=2.0), -4, False),
            # outcomes spread over billions of integers
            (Laplace(scale=1e9), 5, False),
            (Laplace(scale=1e9), 5, True),
            (EXACT_ZERO, 2, False),
        ],
    )
    def test_matches_one_call(self, spec, offset, clamp):
        trials = 2 * (1 << 16) + 17
        got = _outcome_counts(spec, SeededStream(408), trials, offset, clamp, _bucket_table(spec))
        assert got == _one_call_counts(spec, SeededStream(408), trials, offset, clamp)

    def test_clamp_before_rounding(self):
        # n + d is clamped, then rounded, a half up: round(max(n + d, 0)), which is
        # max(n + round(d), 0), so an integer offset commutes with binning at the halves
        # of the 1/8 grid; rounding halves to even would give {0: 2, 2: 2} here
        spec = _FixedNoise([0.5, -1.5, -0.5, 1.5])
        got = _outcome_counts(spec, SeededStream(0), 4, 1, True, ALL_STRADDLE)
        assert got == {2: 1, 0: 1, 1: 1, 3: 1}


def _one_call_counts(spec, stream, trials, offset, clamp):
    """The binned outcome counts of one arm, drawn in one call of ``sample``."""
    outcomes = offset + sample(spec, stream, size=trials)
    if clamp:
        outcomes = np.maximum(outcomes, 0)
    values, counts = np.unique(np.floor(outcomes + 0.5).astype(np.int64), return_counts=True)
    return dict(zip(values.tolist(), counts.tolist()))


def _bucket_and_draw_counts(spec, trials, offset, clamp, seed=408, stream=None):
    """(counts through the bucket table, counts drawn in one call) of one arm."""
    table = _bucket_table(spec)
    got = _outcome_counts(spec, stream or SeededStream(seed), trials, offset, clamp, table)
    return got, _one_call_counts(spec, stream or SeededStream(seed), trials, offset, clamp)


# A Laplace mixture's inner epsilon at which one lattice bucket, 2^-_BUCKET_BITS of
# mass, spans about a third of an integer (two and a half cells of its grid) near 0,
# where the density is about eps / 2: no bucket is covered.  At eight times it, about
# 47% of the buckets straddle a step of the grid.
WIDE_EPS = 6.0 * 2.0**-bench._BUCKET_BITS
HALF_EPS = 8.0 * WIDE_EPS


class TestBucketCounts:
    """An arm counted per lattice bucket has exactly the counts of one call's draws."""

    TRIALS = 2 * (1 << 16) + 17
    POINTS = [
        # the bench_ct5 preset
        MixtureParams(epsilon=0.2, ratio=5.0, break_point=5.0),
        # the inner piece's tail beyond c_t is below half an ulp of the uniforms
        MixtureParams(epsilon=3.7890625, ratio=0.5, break_point=9.0),
    ]

    @pytest.mark.parametrize("params", POINTS)
    @pytest.mark.parametrize(
        "family",
        [
            GeometricMixture,
            LaplaceMixture,
            lambda p: RoundedLaplace(scale=1.0 / p.epsilon),
            lambda p: Geometric(alpha=math.exp(p.epsilon)),
            lambda p: Laplace(scale=1.0 / p.epsilon),
            lambda p: TruncatedLaplace(1.0 / p.epsilon, p.break_point, allow_unsafe=True),
        ],
        ids=["GeometricMixture", "LaplaceMixture", "RoundedLaplace", "Geometric", "Laplace",
             "TruncatedLaplace"],
    )
    @pytest.mark.parametrize("offset, clamp", [(0, False), (3, True), (-4, False), (1 << 20, True)])
    def test_matches_draws(self, family, params, offset, clamp):
        got, want = _bucket_and_draw_counts(family(params), self.TRIALS, offset, clamp)
        assert got == want

    def test_preset_straddles_few_buckets(self):
        # a bucket straddles where its two ends draw apart: of 4,096, 22 for the geometric
        # mixture and 148 for the Laplace mixture, whose steps are 1/8 apart
        for family, straddling in ((GeometricMixture, 22), (LaplaceMixture, 148)):
            table = _bucket_table(family(self.POINTS[0]))
            assert table.straddles.sum() == straddling

    @pytest.mark.parametrize("offset, clamp", [(0, False), (7, True), (1 << 20, True)])
    def test_wide_lapmix(self, offset, clamp):
        # one bucket spans two and a half cells of the grid: every bucket straddles a step
        spec = LaplaceMixture(MixtureParams(epsilon=WIDE_EPS, ratio=2.0, break_point=5.0))
        assert _bucket_table(spec).straddles.all()
        got, want = _bucket_and_draw_counts(spec, self.TRIALS, offset, clamp)
        assert got == want

    def test_straddlers_beyond_a_chunk(self, monkeypatch):
        # About 47% of the buckets straddle, so an arm holds more than a chunk
        # of straddling values after its third chunk, draws them in one call,
        # and draws the rest at the end of the arm.
        spec = LaplaceMixture(MixtureParams(epsilon=HALF_EPS, ratio=2.0, break_point=5.0))
        trials = 5 * (1 << 16) + 17
        table = _bucket_table(spec)
        sizes = []
        monkeypatch.setattr(bench, "sample", lambda s, st, size: sizes.append(size) or sample(s, st, size))
        tracemalloc.start()
        try:
            got = _outcome_counts(spec, SeededStream(408), trials, 7, True, table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(sizes) == 2 and sizes[0] >= bench._AUDIT_CHUNK and sum(sizes) < trials
        assert peak < 8_000_000
        sizes.clear()
        assert got == _outcome_counts(spec, SeededStream(408), trials, 7, True, ALL_STRADDLE)
        assert len(sizes) == 6

    @pytest.mark.parametrize("params", POINTS)
    @pytest.mark.parametrize("family", [GeometricMixture, LaplaceMixture])
    def test_lattice_ends(self, family, params):
        # the lowest uniform, 2^-54; 1 - 2^-52, which is t_right at the edge-case
        # point; and the top one, capped below 1
        stream = SeededStream(0)
        stream._gen = _LatticeEnds()
        got, want = _bucket_and_draw_counts(family(params), 999, 2, True, stream=stream)
        assert got == want and sum(got.values()) == 999

    def test_unsafe_family_refused(self):
        # trunclap is on the grid too, so it has a table, but drawing one needs its flag
        assert not _bucket_table(TruncatedLaplace(scale=2.0, bound=3.0, allow_unsafe=True)).straddles.all()
        with pytest.raises(UnsafeMechanismError):
            _bucket_table(TruncatedLaplace(scale=2.0, bound=3.0))

    @settings(max_examples=40, deadline=None)
    @given(
        family=st.sampled_from([GeometricMixture, LaplaceMixture]),
        eps=st.floats(0.01, 20.0),
        ratio=st.floats(0.1, 20.0),
        ct=st.integers(1, 30),
        offset=st.integers(-64, 1 << 20),
        clamp=st.booleans(),
    )
    def test_property(self, family, eps, ratio, ct, offset, clamp):
        spec = family(MixtureParams(epsilon=eps, ratio=ratio, break_point=float(ct)))
        got, want = _bucket_and_draw_counts(spec, (1 << 16) + 9, offset, clamp, seed=ct)
        assert got == want


class _LatticeEnds:
    """Stands in for a generator: the lattice in its raw words' top 53 bits cycles
    through the given values, by default 0, 2^53 - 2 and 2^53 - 1."""

    def __init__(self, values=(0, 2**53 - 2, 2**53 - 1)):
        self.values = values
        self.bit_generator = self

    def random_raw(self, size):
        return np.resize(np.array(self.values, dtype=np.uint64) << 11, size)


class _FixedNoise:
    """A spec on the grid of ``GRID`` whose draws are the given values, in order."""

    cell = GRID

    def __init__(self, values):
        self.values = np.array(values, dtype=float)

    def draw(self, stream, n):
        return self.values[:n]


@pytest.fixture(scope="module")
def small_audit():
    ds = make_synthetic_dataset(rows=400, seed=7)
    stream = SeededStream(2718)
    queries = _random_queries(ds, 40, stream.derive(99).generator)
    return audit_privacy(
        ds,
        queries,
        GeometricMixture(PRESET_A),
        trials=200_000,
        stream=stream,
        max_records=50,
        queries_per_record=40,
    )


class TestAuditPrivacy:
    def test_pair_bookkeeping(self, small_audit):
        assert small_audit.n_pairs == 50 * 40
        assert 0.0 < small_audit.fraction_same_answer < 1.0
        assert small_audit.max_count_difference == 1

    def test_same_answer_loss_small(self, small_audit):
        assert small_audit.same_answer_max_mean_loss < 0.02

    def test_diff_answer_bounded(self, small_audit):
        assert small_audit.diff_answer_max_excess_vs_eps <= 0.0
        assert small_audit.diff_answer_max_mean_loss <= PRESET_A.eps_r

    def test_not_unbounded(self, small_audit):
        assert not small_audit.unbounded_loss_detected

    @pytest.mark.parametrize("key", ["trials", "max_records", "queries_per_record", "min_count"])
    @pytest.mark.parametrize("value", [0, -5, 0.5])
    def test_sizes_below_one_refused(self, key, value):
        ds = make_synthetic_dataset(rows=50, seed=7)
        queries = _random_queries(ds, 5, SeededStream(1).derive(99).generator)
        sizes = {"trials": 100, "max_records": 5, "queries_per_record": 5, key: value}
        with pytest.raises(InvalidParameterError, match=f"{key} must be >= 1"):
            audit_privacy(ds, queries, GeometricMixture(PRESET_A), stream=SeededStream(5), **sizes)

    def test_deterministic(self):
        ds = make_synthetic_dataset(rows=200, seed=7)
        queries = _random_queries(ds, 10, SeededStream(1).derive(99).generator)
        kw = dict(trials=50_000, max_records=20, queries_per_record=10)
        a = audit_privacy(ds, queries, GeometricMixture(PRESET_A), stream=SeededStream(5), **kw)
        b = audit_privacy(ds, queries, GeometricMixture(PRESET_A), stream=SeededStream(5), **kw)
        assert a.to_json_dict() == b.to_json_dict()


def _oracle_pairs(ds, queries, spec, stream, max_records, queries_per_record):
    """Pairs per (kind, canonical true count), classified one (record, query) pair at a time."""
    rng = stream.derive(0).generator
    rec_idx = np.sort(rng.choice(ds.row_count, size=min(ds.row_count, max_records), replace=False))
    true_counts = [count_query(ds, q) for q in queries]
    big_n = _clamp_free_count(spec)
    pairs = Counter()
    for r in rec_idx:
        if len(queries) > queries_per_record:
            q_sel = rng.choice(len(queries), size=queries_per_record, replace=False)
        else:
            q_sel = np.arange(len(queries))
        for qi in q_sel:
            kind = "diff" if record_matches(ds, int(r), queries[int(qi)]) else "same"
            pairs[kind, min(true_counts[int(qi)], big_n)] += 1
    return dict(pairs)


class TestPairClassification:
    """audit_privacy's pairs per group equal those of a per-pair loop."""

    @pytest.mark.parametrize(
        "rows, n_queries, max_records, queries_per_record",
        [
            (400, 30, 50, 7),  # each record draws a subset of the queries
            (400, 30, 50, 30),  # every record meets every query
            (40, 12, 200, 5),  # fewer records than max_records
            (40, 12, 200, 50),
        ],
    )
    @pytest.mark.parametrize("seed", [3, 11])
    def test_matches_per_pair_loop(self, rows, n_queries, max_records, queries_per_record, seed):
        ds = make_synthetic_dataset(rows=rows, seed=seed)
        queries = _random_queries(ds, n_queries, SeededStream(seed).derive(99).generator)
        # a value the column lacks matches no record, alone and in a conjunction
        queries += [
            QuerySpec(predicates=(("color", "purple"),)),
            QuerySpec(predicates=(("shape", "tri"), ("region", "x"))),
        ]
        spec = GeometricMixture(PRESET_A)
        kw = dict(max_records=max_records, queries_per_record=queries_per_record)
        report = audit_privacy(ds, queries, spec, 2000, SeededStream(seed), **kw)
        want = _oracle_pairs(ds, queries, spec, SeededStream(seed), **kw)
        got = {(g["kind"], g["true_count"]): g["pairs"] for g in report.groups}
        assert got == want
        assert report.n_pairs == min(rows, max_records) * min(len(queries), queries_per_record)
        assert ("same", 0) in got


class TestRandomQueries:
    # Drawn by the version that took each attribute's values as
    # sorted(set(column)) per predicate; the dictionary encoding must draw the
    # same queries, since audit reports depend on them.
    CSV = (
        "work,edu,country\n"
        "Private,HS-grad,United-States\n"
        " Self-emp ,Bachelors,?\n"
        "?,Masters,Mexico\n"
        "Private,hs-grad,Holand-Netherlands\n"
        "Federal-gov,10th,United-States\n"
        "private,Bachelors, Mexico\n"
        "Local-gov,?,Cuba\n"
    )
    GOLDEN = [
        (("work", "Local-gov"), ("edu", "hs-grad")),
        (("edu", "Bachelors"), ("work", "private")),
        (("work", "Local-gov"), ("edu", "?")),
        (("work", "Federal-gov"), ("edu", "Bachelors")),
        (("edu", "hs-grad"), ("work", "Local-gov")),
        (("edu", "HS-grad"), ("country", "Mexico")),
        (("work", "Federal-gov"), ("edu", "Masters")),
        (("country", "?"), ("edu", "HS-grad")),
    ]

    def test_golden_draw(self):
        ds = load_dataset(io.StringIO(self.CSV))
        queries = _random_queries(ds, 8, SeededStream(2024).derive(99).generator)
        assert [q.predicates for q in queries] == self.GOLDEN


class TestClampFreeCount:
    """The true count from which an audit treats clamping as unreachable."""

    @pytest.mark.parametrize(
        "doc, count",
        [
            ({"kind": "laplace", "eps": 0.332}, 128),
            ({"kind": "rlaplace", "eps": 0.33180903378641224}, 128),
            ({"kind": "geometric", "eps": 0.32810599476390334}, 128),
            ({"kind": "geomix", "eps": 0.2, "reps": 1, "ct": 5}, 32),
            ({"kind": "lapmix", "eps": 0.2, "reps": 1, "ct": 5}, 32),
            ({"kind": "geometric", "eps": 700}, 4),
        ],
    )
    def test_golden_count(self, doc, count):
        assert _clamp_free_count(spec_from_dict(doc)) == count

    def test_truncated_counts_clamping_inside_the_bound(self):
        # clamping is reachable up to the bound, so the count must pass it
        assert _clamp_free_count(TruncatedLaplace(scale=1.0, bound=10.0, allow_unsafe=True)) > 10

