import io
import math
from pathlib import Path

import numpy as np
import pytest

from pwmix import mechanisms
from pwmix.bench import (
    TABLE1_GRID,
    _clamp_free_count,
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
from pwmix.data import load_dataset
from pwmix.errors import UndefinedMetricError
from pwmix.mechanisms import (
    Geometric,
    GeometricMixture,
    TruncatedLaplace,
    ZeroNoise,
    geomix_constants,
    geometric_series_x,
)
from pwmix.sampling import SeededStream

from conftest import PRESET_A, PRESET_B, make_synthetic_dataset


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

    def test_custom_grid(self):
        rows = table_sweep([(5.0, 0.2, 1.0)])
        assert len(rows) == 1
        assert rows[0].c_t == 5.0


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
        report = run_simulation(self._config(mechanisms=(ZeroNoise(),)))
        for cell in report.cells:
            assert cell.within_bound == 1.0
            assert cell.mre == 0.0
            assert cell.error_cdf[0] == 1.0

    def test_determinism_across_workers(self):
        cfg = self._config()
        r1 = run_simulation(cfg, threads=1)
        r4 = run_simulation(cfg, threads=4)
        assert r1.to_json_dict() == r4.to_json_dict()

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

    def test_mre_inflation_between_presets(self):
        # moving to the tighter-budget preset inflates relative error ~1.2x
        ratios = []
        for params in (PRESET_A, PRESET_B):
            c = geomix_constants(params)
            q1 = 1 / params.outer_alpha
            c1 = (1 - q1) / (1 + q1)
            ct = params.integer_break_point()
            ratios.append(2 * c.a1g * c1 * geometric_series_x(q1, ct + 1))
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

    def test_deterministic(self):
        ds = make_synthetic_dataset(rows=200, seed=7)
        queries = _random_queries(ds, 10, SeededStream(1).derive(99).generator)
        kw = dict(trials=50_000, max_records=20, queries_per_record=10)
        a = audit_privacy(ds, queries, GeometricMixture(PRESET_A), stream=SeededStream(5), **kw)
        b = audit_privacy(ds, queries, GeometricMixture(PRESET_A), stream=SeededStream(5), **kw)
        assert a.to_json_dict() == b.to_json_dict()


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
            ({"kind": "zero"}, 4),
        ],
    )
    def test_golden_count(self, doc, count):
        assert _clamp_free_count(spec_from_dict(doc)) == count

    def test_truncated_counts_clamping_inside_the_bound(self):
        # clamping is reachable up to the bound, so the count must pass it
        assert _clamp_free_count(TruncatedLaplace(scale=1.0, bound=10.0, allow_unsafe=True)) > 10


class TestBenchmarkHooks:
    """perfbench's tracer wraps pwmix functions by name; a rename breaks ``--trace 1``."""

    def test_tracer_targets_and_constant_caches_exist(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        import spans

        tracer = spans.Tracer()
        tracer.install()
        tracer.uninstall()
        for cache in (mechanisms.lapmix_constants, mechanisms.geomix_constants):
            assert callable(cache.cache_clear)
            assert callable(cache.cache_info)
