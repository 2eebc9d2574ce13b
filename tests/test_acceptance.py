"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is calibrated at runtime.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
from scipy import integrate, stats

from pwmix.accounting import (
    equivalent_epsilon,
    zeta_closed_form,
    zeta_empirical,
)
from pwmix.analytics import geomix_stats, lapmix_stats, standard_stats
from pwmix.bench import (
    TABLE1_GRID,
    SimulationConfig,
    audit_mechanism,
    audit_privacy,
    run_simulation,
)
from pwmix.cli import _random_queries
from pwmix.data import count_query, neighbors, record_matches
from pwmix.mechanisms import (
    GRID,
    Geometric,
    GeometricMixture,
    Laplace,
    LaplaceMixture,
    MixtureParams,
    RoundedLaplace,
    TruncatedLaplace,
    lapmix_cdf,
    lapmix_pdf,
    laplace_cdf,
)
from pwmix.sampling import SeededStream, sample

import conftest
from conftest import (
    PRESET_A,
    PRESET_B,
    chi_square_pvalue,
    cli_env,
    grid_chi_square_pvalue,
    make_synthetic_dataset,
)
from table1_reference import REFERENCE_ROWS

# Reference tables print zetas to 3 decimals and stats to 2; comparisons get
# the stated tolerance plus half a printed digit.
PRINT3 = 0.0005
PRINT2 = 0.005


class SweepRowView:
    """Row of the sweep CSV addressed by column name."""

    def __init__(self, header, values):
        self._data = dict(zip(header, values))

    def __getattr__(self, name):
        try:
            return self._data[name]
        except KeyError:
            raise AttributeError(name)

    def as_tuple(self):
        return tuple(self._data.values())


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)


class TestCriterion1TableRegression:
    def test_sweep_reproduces_reference_rows(self, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "pwmix.cli", "sweep", "--table1", "--out", str(out_csv)],
            capture_output=True,
            env=cli_env(),
        )
        elapsed = time.monotonic() - t0
        assert proc.returncode == 0, proc.stderr.decode()
        import csv as _csv

        with open(out_csv) as fh:
            reader = _csv.reader(fh)
            header = next(reader)
            rows = [SweepRowView(header, [float(v) for v in r]) for r in reader]
        assert len(rows) == len(REFERENCE_ROWS) == 69

        tol = {
            "zeta_gm": 0.002 + PRINT3,
            "zeta_lm": 0.002 + PRINT3,
            "eps_lap": 0.002 + PRINT3,
            "e": 0.02 + PRINT2,
            "var": 0.1 + PRINT2,
            "h": 0.02 + PRINT2,
        }
        failures = []
        for row, ref in zip(rows, REFERENCE_ROWS):
            got = row.as_tuple()[3:]
            want = ref[3:]
            kinds = ["zeta_gm", "zeta_lm", "eps_lap"] + ["e"] * 4 + ["var"] * 4 + ["h"] * 4
            for kind, g, w in zip(kinds, got, want):
                if abs(g - w) > tol[kind]:
                    failures.append((ref[:3], kind, g, w))
        # spot rows must agree to all three printed decimals
        spots = {(5.0, 0.2, 1.0): (0.328, 0.309, 0.332), (6.0, 0.1, 1.0): (0.257, 0.243, 0.257)}
        for row in rows:
            key = (row.c_t, row.eps, row.r_eps)
            if key in spots:
                got3 = (round(row.zeta_gm, 3), round(row.zeta_lm, 3), round(row.eps_lap, 3))
                if got3 != spots[key]:
                    failures.append((key, "spot", got3, spots[key]))
        ok = not failures and elapsed < 5.0
        _verdict("1 table regression", ok, f"{len(rows)} rows, {elapsed:.2f}s")
        assert not failures, failures[:8]
        assert elapsed < 5.0


class TestCriterion2OracleEquivalence:
    def test_closed_forms_match_oracles(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(20240801)
        worst_geo = worst_lap = 0.0
        for _ in range(50):
            eps = float(rng.uniform(0.05, 1.0))
            reps = float(rng.uniform(eps, 3.0))
            ct = int(rng.integers(1, 11))
            params = MixtureParams(epsilon=eps, ratio=reps / eps, break_point=float(ct))

            s = geomix_stats(params)
            reach = ct + int(50 / min(eps, reps)) + 50
            ks = np.arange(-reach, reach + 1)
            p = GeometricMixture(params).prob(ks)
            live = p > 0  # cells that underflowed contribute nothing
            entropy_oracle = float(-(p[live] * np.log(p[live])).sum())
            worst_geo = max(
                worst_geo,
                abs(s.mean_abs_noise - float((np.abs(ks) * p).sum())),
                abs(s.variance - float((ks.astype(float) ** 2 * p).sum())),
                abs(s.entropy - entropy_oracle),
            )

            ct_real = float(ct) + float(rng.uniform(-0.4, 0.4))
            lp = MixtureParams(epsilon=eps, ratio=reps / eps, break_point=ct_real)
            sl = lapmix_stats(lp)

            def piecewise(f, brk=ct_real):
                inner, _ = integrate.quad(f, 0, brk, epsabs=1e-11, epsrel=1e-12, limit=300)
                outer, _ = integrate.quad(f, brk, np.inf, epsabs=1e-11, epsrel=1e-12, limit=300)
                return 2 * (inner + outer)

            def neg_plogp(x, _lp=lp):
                d = lapmix_pdf(x, _lp)
                return -d * math.log(d) if d > 0 else 0.0

            worst_lap = max(
                worst_lap,
                abs(sl.mean_abs_noise - piecewise(lambda x: x * lapmix_pdf(x, lp))),
                abs(sl.variance - piecewise(lambda x: x * x * lapmix_pdf(x, lp))),
                abs(sl.entropy - piecewise(neg_plogp)),
            )
        elapsed = time.monotonic() - t0
        ok = worst_geo <= 1e-9 and worst_lap <= 1e-7 and elapsed < 30
        _verdict(
            "2 oracle equivalence",
            ok,
            f"series dev {worst_geo:.2e}, quadrature dev {worst_lap:.2e}, {elapsed:.1f}s",
        )
        assert worst_geo <= 1e-9
        assert worst_lap <= 1e-7
        assert elapsed < 30


LAPMIX_SETS = [
    (0.2, 1.0, 5.0), (0.1, 1.0, 6.0), (0.05, 0.5, 4.0), (0.1, 0.2, 4.5),
    (0.25, 1.25, 4.0), (0.5, 2.5, 5.0), (1 / 6, 5 / 6, 7.0), (0.2, 2.0, 6.5),
    (0.25, 0.5, 7.0), (1.0, 2.0, 3.0),
]
GEOMIX_SETS = [
    (0.2, 1.0, 5), (0.1, 1.0, 6), (0.05, 0.5, 4), (0.1, 0.2, 4),
    (0.25, 1.25, 4), (0.5, 2.5, 5), (1 / 6, 5 / 6, 7), (0.2, 2.0, 6),
    (0.25, 0.5, 7), (1.0, 2.0, 3),
]
STANDARD_EPS = [0.05, 0.1, 1 / 6, 0.2, 0.25, 0.328, 0.45, 0.5, 0.75, 1.0]


class TestCriterion3SamplerFidelity:
    GOF_N = 10**6
    ALPHA = 1e-3

    def test_goodness_of_fit_and_moments(self):
        t0 = time.monotonic()
        failures = []

        for i, (eps, reps, ct) in enumerate(LAPMIX_SETS):
            params = MixtureParams(epsilon=eps, ratio=reps / eps, break_point=ct)
            y = sample(LaplaceMixture(params), SeededStream(9000, i), self.GOF_N)
            p = grid_chi_square_pvalue(y, lambda x: lapmix_cdf(x, params), GRID)
            if p <= self.ALPHA:
                failures.append(("lapmix-chi2", (eps, reps, ct), p))

        for i, (eps, reps, ct) in enumerate(GEOMIX_SETS):
            params = MixtureParams(epsilon=eps, ratio=reps / eps, break_point=float(ct))
            y = sample(GeometricMixture(params), SeededStream(9100, i), self.GOF_N)
            reach = ct + int(9 / min(eps, reps)) + 3
            p = chi_square_pvalue(
                y,
                lambda k: float(GeometricMixture(params).prob(k)),
                lambda k: float(GeometricMixture(params).cdf(k)),
                -reach,
                reach,
            )
            if p <= self.ALPHA:
                failures.append(("geomix-chi2", (eps, reps, ct), p))

        for i, eps in enumerate(STANDARD_EPS):
            y = sample(Laplace(scale=1 / eps), SeededStream(9200, i), self.GOF_N)
            p = grid_chi_square_pvalue(y, lambda x: laplace_cdf(x, 1 / eps), GRID)
            if p <= self.ALPHA:
                failures.append(("laplace-chi2", eps, p))

            alpha = math.exp(eps)
            q = 1 / alpha
            y = sample(Geometric(alpha=alpha), SeededStream(9300, i), self.GOF_N)

            def geo_cdf(k, q=q):
                return q ** (-k) / (1 + q) if k < 0 else 1 - q ** (k + 1) / (1 + q)

            reach = int(9 / eps) + 3
            p = chi_square_pvalue(
                y, lambda k: float(Geometric(alpha).prob(k)), geo_cdf, -reach, reach
            )
            if p <= self.ALPHA:
                failures.append(("geometric-chi2", eps, p))

            y = sample(RoundedLaplace(scale=1 / eps), SeededStream(9400, i), self.GOF_N)

            def rl_cdf(k, eps=eps):
                return float(laplace_cdf(k + 0.5, 1 / eps))

            p = chi_square_pvalue(
                y, lambda k: float(RoundedLaplace(1 / eps).prob(k)), rl_cdf, -reach, reach
            )
            if p <= self.ALPHA:
                failures.append(("rlaplace-chi2", eps, p))

        # moment agreement at 1e7 draws, within 1%
        big = 10**7
        checks = [
            ("lapmix", sample(LaplaceMixture(PRESET_A), SeededStream(9500), big), lapmix_stats(PRESET_A)),
            ("geomix", sample(GeometricMixture(PRESET_A), SeededStream(9501), big), geomix_stats(PRESET_A)),
            (
                "laplace",
                sample(Laplace(scale=3.0), SeededStream(9502), big),
                standard_stats(Laplace(scale=3.0)),
            ),
            (
                "geometric",
                sample(Geometric(alpha=math.exp(0.328)), SeededStream(9503), big),
                standard_stats(Geometric(alpha=math.exp(0.328))),
            ),
        ]
        for name, y, s in checks:
            if abs(np.abs(y).mean() - s.mean_abs_noise) > 0.01 * s.mean_abs_noise:
                failures.append((f"{name}-mean", np.abs(y).mean(), s.mean_abs_noise))
            if abs(y.var() - s.variance) > 0.01 * s.variance:
                failures.append((f"{name}-var", y.var(), s.variance))

        elapsed = time.monotonic() - t0
        ok = not failures and elapsed < 120
        _verdict("3 sampler fidelity", ok, f"40 GoF tests + moments, {elapsed:.1f}s")
        assert not failures, failures
        assert elapsed < 120


class TestCriterion4BudgetConsistency:
    def test_general_budget(self):
        failures = []
        z_emp = zeta_empirical(GeometricMixture(PRESET_A))
        if abs(z_emp - 0.328) > 0.001:
            failures.append(("preset-a", z_emp))
        for ct, eps, reps in TABLE1_GRID:
            params = MixtureParams(epsilon=eps, ratio=reps / eps, break_point=ct)
            spec = GeometricMixture(params)
            if abs(zeta_empirical(spec) - zeta_closed_form(spec)) > 0.001:
                failures.append(("grid", (ct, eps, reps)))
        for eps in (0.05, 0.328, 1.0):
            spec = Geometric(alpha=math.exp(eps))
            if abs(zeta_empirical(spec) - eps) > 1e-12:
                failures.append(("geometric-exact", eps))
        eq = equivalent_epsilon(0.309)
        if abs(eq - 0.332) > 0.001:
            failures.append(("equivalent-eps", eq))
        ok = not failures
        _verdict("4 general budget", ok, f"zeta_emp={z_emp:.4f}, eq_eps={eq:.4f}")
        assert not failures, failures


class TestCriterion5DpAudit:
    TRIALS = 10**6

    def test_per_outcome_losses_bounded(self):
        t0 = time.monotonic()
        failures = []
        cases = [
            (GeometricMixture(PRESET_A), PRESET_A.eps_r),
            (GeometricMixture(PRESET_B), PRESET_B.eps_r),
            (LaplaceMixture(PRESET_A), PRESET_A.eps_r),
            (Geometric(alpha=math.exp(0.328)), 0.328),
            (RoundedLaplace(scale=1 / 0.332), 0.332),
        ]
        for i, (spec, bound) in enumerate(cases):
            audit = audit_mechanism(spec, self.TRIALS, SeededStream(7100, i))
            excess = audit.max_excess_over(bound)
            if excess > 0:
                failures.append((audit.mechanism, excess))
        trunc = audit_mechanism(
            TruncatedLaplace(scale=2.0, bound=5.0, allow_unsafe=True),
            self.TRIALS,
            SeededStream(7200),
        )
        if not trunc.one_sided or trunc.max_abs_loss != math.inf:
            failures.append(("trunclap", trunc.one_sided))
        elapsed = time.monotonic() - t0
        ok = not failures and elapsed < 120
        _verdict("5 dp audit", ok, f"6 mechanisms at 1e6 trials, {elapsed:.1f}s")
        assert not failures, failures
        assert elapsed < 120


class TestCriterion6UsefulnessBounds:
    DRAWS = 10**7
    ALPHA = 1e-3

    def test_tail_probabilities(self):
        t0 = time.monotonic()
        failures = []
        y_lap = np.abs(sample(LaplaceMixture(PRESET_A), SeededStream(6100), self.DRAWS))
        y_geo = np.abs(sample(GeometricMixture(PRESET_A), SeededStream(6200), self.DRAWS))
        for delta in (0.01, 0.001):
            for k in (1, 10):
                r = LaplaceMixture(PRESET_A).usefulness_bound(k, delta)
                count = int(np.sum(y_lap >= r))
                p = stats.binomtest(count, self.DRAWS, delta, alternative="greater").pvalue
                if p <= self.ALPHA:
                    failures.append(("laplace", delta, k, count))
                r = GeometricMixture(PRESET_A).usefulness_bound(k, delta)
                count = int(np.sum(y_geo >= r))
                p = stats.binomtest(count, self.DRAWS, delta, alternative="greater").pvalue
                if p <= self.ALPHA:
                    failures.append(("geometric", delta, k, count))
        elapsed = time.monotonic() - t0
        ok = not failures
        _verdict("6 usefulness bounds", ok, f"8 (family, delta, k) checks, {elapsed:.1f}s")
        assert not failures, failures


class TestCriterion7SimulationHeadlines:
    SAMPLES = 10**6

    def test_headline_numbers(self):
        t0 = time.monotonic()
        zeta_gm = zeta_closed_form(GeometricMixture(PRESET_A))
        eps_lap = equivalent_epsilon(zeta_closed_form(LaplaceMixture(PRESET_A)))
        gm = GeometricMixture(PRESET_A)
        lm = LaplaceMixture(PRESET_A)
        geo = Geometric(alpha=math.exp(zeta_gm))
        rlap = RoundedLaplace(scale=1 / eps_lap)
        config = SimulationConfig(
            true_counts=(1, 3, 10, 50, 200, 1000),
            mechanisms=(gm, lm, geo, rlap),
            samples_per_cell=self.SAMPLES,
            master_seed=777,
            c_t_for_metrics=5.0,
        )
        report = run_simulation(config)
        by_label = report.pooled
        labels = list(by_label)
        gm_l, lm_l, geo_l, rlap_l = labels
        failures = []

        # pooled within-bound fraction: 0.95 +- 0.01 vs <= 0.87 for standard
        wb_gm = by_label[gm_l]["within_bound"]
        wb_geo = by_label[geo_l]["within_bound"]
        if not (0.94 <= wb_gm <= 0.96):
            failures.append(("within-bound-mixture", wb_gm))
        if not wb_geo <= 0.87:
            failures.append(("within-bound-standard", wb_geo))

        # mean-relative-error improvement factor 3 +- 0.5 at matched budget
        cells = {(c.mechanism, c.true_count): c for c in report.cells}
        ratios = []
        for n in (10, 50, 200, 1000):
            ratios.append(cells[(geo_l, n)].mre / cells[(gm_l, n)].mre)
            ratios.append(cells[(rlap_l, n)].mre / cells[(lm_l, n)].mre)
        factor = float(np.mean(ratios))
        if not (2.5 <= factor <= 3.5):
            failures.append(("mre-improvement", factor))

        # pooled error CDF: mixture hits 0.999 by threshold 8 +- 2; the
        # matched-budget standard not before 14 - 2
        def first_threshold(label, target=0.999):
            cdf = by_label[label]["error_cdf"]
            for t in sorted(int(k) for k in cdf):
                if cdf[str(t)] >= target:
                    return t
            return math.inf

        t_gm = first_threshold(gm_l)
        t_geo = first_threshold(geo_l)
        if not t_gm <= 10:
            failures.append(("cdf-threshold-mixture", t_gm))
        if not t_geo >= 12:
            failures.append(("cdf-threshold-standard", t_geo))

        elapsed = time.monotonic() - t0
        ok = not failures and elapsed < 300
        _verdict(
            "7 simulation headlines",
            ok,
            f"wb={wb_gm:.3f}/{wb_geo:.3f}, factor={factor:.2f}, "
            f"cdf@0.999={t_gm}/{t_geo}, {elapsed:.0f}s",
        )
        assert not failures, failures
        assert elapsed < 300


class TestCriterion8SyntheticAudit:
    def test_dataset_audit(self):
        t0 = time.monotonic()
        ds = make_synthetic_dataset(rows=1000, seed=123)
        stream = SeededStream(8800)
        queries = _random_queries(ds, 100, stream.derive(99).generator)
        spec = GeometricMixture(PRESET_A)
        report = audit_privacy(
            ds, queries, spec, trials=10**6, stream=stream,
            max_records=200, queries_per_record=100,
        )
        failures = []
        if not report.same_answer_max_mean_loss < 0.01:
            failures.append(("same-answer-loss", report.same_answer_max_mean_loss))
        if not report.diff_answer_max_excess_vs_eps <= 0:
            failures.append(("diff-answer-excess", report.diff_answer_max_excess_vs_eps))
        if report.unbounded_loss_detected:
            failures.append(("unexpected-unbounded",))
        if report.max_count_difference > 1:
            failures.append(("count-difference", report.max_count_difference))
        # independent check of the sensitivity premise on actual neighbors
        rng = np.random.default_rng(5)
        for i in rng.choice(ds.row_count, size=20, replace=False):
            nb = neighbors(ds, int(i))
            for q in queries[:50]:
                n1 = count_query(ds, q)
                n2 = count_query(nb, q)
                if abs(n1 - n2) > 1:
                    failures.append(("neighbor-sensitivity", int(i)))
                if (n1 - n2 == 1) != record_matches(ds, int(i), q):
                    failures.append(("match-bookkeeping", int(i)))
        elapsed = time.monotonic() - t0
        ok = not failures and elapsed < 120
        _verdict(
            "8 synthetic dataset audit",
            ok,
            f"{report.n_pairs} pairs, same-loss={report.same_answer_max_mean_loss:.4f}, "
            f"{elapsed:.0f}s",
        )
        assert not failures, failures
        assert elapsed < 120


class TestCriterion9Determinism:
    def test_reports_identical_across_thread_counts(self, tmp_path):
        bench_cfg = tmp_path / "bench.json"
        bench_cfg.write_text(json.dumps({
            "true_counts": [1, 10, 200],
            "mechanisms": [
                {"kind": "geomix", "eps": 0.2, "reps": 1, "ct": 5},
                {"kind": "rlaplace", "eps": 0.332},
            ],
            "samples_per_cell": 100000,
            "c_t_for_metrics": 5,
        }))
        audit_cfg = tmp_path / "audit.json"
        data_csv = tmp_path / "data.csv"
        ds = make_synthetic_dataset(rows=120, seed=3)
        with open(data_csv, "w") as fh:
            fh.write(",".join(ds.schema) + "\n")
            for rec in ds.records:
                fh.write(",".join(rec) + "\n")
        audit_cfg.write_text(json.dumps({
            "data": str(data_csv),
            "mechanism": {"kind": "geomix", "eps": 0.2, "reps": 1, "ct": 5},
            "trials": 50000,
            "n_queries": 20,
            "max_records": 30,
            "queries_per_record": 20,
        }))

        def run(cmd_args, out, threads):
            proc = subprocess.run(
                [sys.executable, "-m", "pwmix.cli", *cmd_args, "--out", str(out), "--seed", "42"],
                capture_output=True,
                env=cli_env(PWMIX_THREADS=str(threads)),
                cwd=str(tmp_path),
            )
            assert proc.returncode == 0, proc.stderr.decode()
            files = {p.name: p.read_bytes() for p in out.iterdir()}
            # The directory must hold exactly the manifest and the reports it
            # lists, so an empty or partial run cannot compare equal.
            assert "manifest.json" in files, (out.name, sorted(files))
            listed = json.loads(files["manifest.json"])["outputs"]
            assert listed, (out.name, "manifest lists no outputs")
            assert set(files) == {"manifest.json", *listed}, (out.name, sorted(files), listed)
            return files

        def differences(a, b):
            return {
                "only_at_1_thread": sorted(a.keys() - b.keys()),
                "only_at_8_threads": sorted(b.keys() - a.keys()),
                "bytes_differ": sorted(k for k in a.keys() & b.keys() if a[k] != b[k]),
            }

        failures = []
        for command, cfg in (("bench", bench_cfg), ("audit", audit_cfg)):
            a = run([command, "--config", str(cfg)], tmp_path / f"{command}1", 1)
            b = run([command, "--config", str(cfg)], tmp_path / f"{command}8", 8)
            diff = differences(a, b)
            if any(diff.values()):
                failures.append((command, diff))
        ok = not failures
        _verdict("9 determinism", ok, "bench+audit byte-identical across PWMIX_THREADS")
        assert not failures, failures
