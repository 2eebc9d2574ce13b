import csv
import io
import json
import math
import subprocess
import sys

import pytest

from pwmix.bench import TABLE1_GRID
from pwmix.cli import main, spec_from_dict
from pwmix.mechanisms import GeometricMixture, RoundedLaplace, TruncatedLaplace

from conftest import cli_env

FIXTURE = "age,work\n25,Private\n30,Private\n25,Gov\n40,?\n25,Private\n"


@pytest.fixture
def data_file(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(FIXTURE)
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpecFromDict:
    def test_geomix(self):
        spec = spec_from_dict({"kind": "geomix", "eps": 0.2, "reps": 1, "ct": 5})
        assert isinstance(spec, GeometricMixture)
        assert spec.params.eps_r == pytest.approx(1.0)

    def test_rlaplace(self):
        spec = spec_from_dict({"kind": "rlaplace", "eps": 0.332})
        assert isinstance(spec, RoundedLaplace)
        assert spec.scale == pytest.approx(1 / 0.332)

    def test_trunclap_unsafe_flag(self):
        spec = spec_from_dict({"kind": "trunclap", "eps": 0.5, "ct": 4, "unsafe": True})
        assert isinstance(spec, TruncatedLaplace)
        assert spec.allow_unsafe


class TestStats:
    def test_geomix_row(self, capsys):
        code, out, _ = run_cli(
            ["stats", "--mechanism", "geomix", "--eps", "0.2", "--reps", "1", "--ct", "5"],
            capsys,
        )
        assert code == 0
        row = next(csv.DictReader(io.StringIO(out)))
        assert float(row["mean_abs_noise"]) == pytest.approx(2.48, abs=0.01)
        assert float(row["variance"]) == pytest.approx(9.61, abs=0.01)
        assert float(row["entropy"]) == pytest.approx(2.54, abs=0.01)
        assert float(row["zeta"]) == pytest.approx(0.328, abs=0.001)

    def test_laplace_trivial(self, capsys):
        code, out, _ = run_cli(
            ["stats", "--mechanism", "laplace", "--eps", "1", "--format", "json"], capsys
        )
        doc = json.loads(out)
        assert (doc["mean_abs_noise"], doc["variance"]) == (1.0, 2.0)
        assert doc["entropy"] == pytest.approx(1 + math.log(2))

    def test_collapse_matches_geometric(self, capsys):
        _, out_mix, _ = run_cli(
            ["stats", "--mechanism", "geomix", "--eps", "0.2", "--reps", "0.2", "--ct", "5",
             "--format", "json"],
            capsys,
        )
        _, out_std, _ = run_cli(
            ["stats", "--mechanism", "geometric", "--eps", "0.2", "--format", "json"], capsys
        )
        mix, std = json.loads(out_mix), json.loads(out_std)
        for key in ("mean_abs_noise", "variance", "entropy", "zeta"):
            assert mix[key] == pytest.approx(std[key], rel=1e-9)

    # The JSON row of each private kind, byte for byte.  rlaplace reports the
    # continuous closed forms of the Laplace law it rounds.
    @pytest.mark.parametrize(
        "flags, row",
        [
            (
                ["laplace", "--eps", "0.332"],
                '{"entropy": 2.795767490625594, "mean_abs_noise": 3.012048192771084, '
                '"mechanism": "laplace(b=3.01205)", "variance": 18.144868631151105, '
                '"worst_case_eps": 0.332, "zeta": 0.332}',
            ),
            (
                ["rlaplace", "--eps", "0.332"],
                '{"entropy": 2.795767490625594, "mean_abs_noise": 3.012048192771084, '
                '"mechanism": "rlaplace(b=3.01205)", "variance": 18.144868631151105, '
                '"worst_case_eps": 0.332, "zeta": 0.3091669465188472}',
            ),
            (
                ["geometric", "--eps", "0.332"],
                '{"entropy": 2.786757073830027, "mean_abs_noise": 2.9574182390175836, '
                '"mechanism": "geometric(alpha=1.39375)", "variance": 17.97911649562625, '
                '"worst_case_eps": 0.33199999999999996, "zeta": 0.33199999999999996}',
            ),
            (
                ["lapmix", "--eps", "0.2", "--reps", "1", "--ct", "5"],
                '{"entropy": 2.536975129652684, "mean_abs_noise": 2.497760793649473, '
                '"mechanism": "lapmix(eps=0.2,reps=1,ct=5)", "variance": 9.547132830666468, '
                '"worst_case_eps": 1.0, "zeta": 0.309062728405327}',
            ),
            (
                ["geomix", "--eps", "0.2", "--reps", "1", "--ct", "5"],
                '{"entropy": 2.537405131153661, "mean_abs_noise": 2.4800462651852766, '
                '"mechanism": "geomix(eps=0.2,reps=1,ct=5)", "variance": 9.609491315109436, '
                '"worst_case_eps": 1.0, "zeta": 0.32810599476390334}',
            ),
        ],
    )
    def test_golden_json_row(self, capsys, flags, row):
        code, out, _ = run_cli(["stats", "--format", "json", "--mechanism", *flags], capsys)
        assert code == 0
        assert out == row + "\n"

    @pytest.mark.parametrize(
        "flags", [["trunclap", "--eps", "1", "--ct", "3"], ["zero"]]
    )
    def test_no_stats_exits_2(self, capsys, flags):
        code, out, err = run_cli(["stats", "--mechanism", *flags], capsys)
        assert code == 2
        assert out == ""
        assert "no closed-form stats" in err

    def test_geometric_at_large_eps(self, capsys):
        # the mass at |x| >= 2 underflows to 0 from eps 372.5 on
        code, out, _ = run_cli(
            ["stats", "--mechanism", "geometric", "--eps", "380", "--format", "json"], capsys
        )
        assert code == 0
        assert json.loads(out)["entropy"] == pytest.approx(2 * 381 * math.exp(-380), rel=1e-12)

    @pytest.mark.parametrize(
        "flags",
        [
            ["geometric", "--eps", "800"],
            ["rlaplace", "--eps", "800"],
            ["rlaplace", "--eps", "1e-17"],
        ],
    )
    def test_eps_beyond_double_range_exits_2(self, capsys, flags):
        code, out, err = run_cli(["stats", "--mechanism", *flags], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("pwmix: error:")

    def test_laplace_at_large_eps(self, capsys):
        code, out, _ = run_cli(
            ["stats", "--mechanism", "laplace", "--eps", "800", "--format", "json"], capsys
        )
        assert code == 0
        assert json.loads(out)["zeta"] == 800.0

    def test_missing_eps(self, capsys):
        code, _, err = run_cli(["stats", "--mechanism", "laplace"], capsys)
        assert code == 2
        assert "eps" in err

    @pytest.mark.parametrize("mechanism", ["lapmix", "geomix"])
    def test_underflow_exits_2(self, capsys, mechanism):
        code, out, err = run_cli(
            ["stats", "--mechanism", mechanism, "--eps", "2", "--reps", "20", "--ct", "40"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "underflows" in err


class TestSweep:
    def test_table1_row_count(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, _, _ = run_cli(["sweep", "--table1", "--out", str(out_file)], capsys)
        assert code == 0
        with out_file.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 69

    def test_single_triple_grid(self, capsys, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text("[[5, 0.2, 1.0]]")
        code, out, _ = run_cli(["sweep", "--grid", str(grid)], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        assert float(rows[0]["zeta_gm"]) == pytest.approx(0.328, abs=0.001)

    def test_empty_grid(self, capsys, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text("[]")
        code, out, _ = run_cli(["sweep", "--grid", str(grid)], capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == 1  # header only

    def test_malformed_grid(self, capsys, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text('{"not": "a grid"}')
        code, _, err = run_cli(["sweep", "--grid", str(grid)], capsys)
        assert code == 2


class TestRelease:
    def test_zero_noise_release(self, data_file, capsys):
        code, out, _ = run_cli(
            ["release", "--data", data_file, "--query", "age=25,work=Private",
             "--mechanism", "zero", "--seed", "1", "--reveal-true"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["released"] == doc["true"] == 2
        assert doc["clamped"] is False

    def test_ledger_accumulates(self, data_file, capsys, tmp_path):
        ledger = tmp_path / "ledger.json"
        args = ["release", "--data", data_file, "--query", "age=25", "--mechanism", "geomix",
                "--eps", "0.2", "--reps", "1", "--ct", "5", "--ledger", str(ledger)]
        code1, out1, _ = run_cli(args + ["--seed", "1"], capsys)
        code2, out2, _ = run_cli(args + ["--seed", "2"], capsys)
        assert code1 == code2 == 0
        entries = json.loads(ledger.read_text())
        assert len(entries) == 2
        total = sum(e["zeta"] for e in entries)
        assert total == pytest.approx(2 * 0.3281, abs=0.001)
        assert json.loads(out2)["ledger_total"] == pytest.approx(total)

    def test_budget_cap_refusal(self, data_file, capsys, tmp_path):
        ledger = tmp_path / "ledger.json"
        args = ["release", "--data", data_file, "--query", "age=25", "--mechanism", "geomix",
                "--eps", "0.2", "--reps", "1", "--ct", "5", "--ledger", str(ledger),
                "--budget-cap", "0.5"]
        assert run_cli(args + ["--seed", "1"], capsys)[0] == 0
        code, _, err = run_cli(args + ["--seed", "2"], capsys)
        assert code == 3
        assert "cap" in err
        assert len(json.loads(ledger.read_text())) == 1  # refused charge not written

    def test_concurrent_charges_all_recorded(self, data_file, tmp_path):
        ledger = tmp_path / "ledger.json"
        runs = 6
        procs = [
            subprocess.Popen(
                [sys.executable, "-m", "pwmix.cli", "release", "--data", data_file,
                 "--query", "age=25", "--mechanism", "geomix", "--eps", "0.2", "--reps", "1",
                 "--ct", "5", "--seed", str(i), "--ledger", str(ledger)],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env=cli_env(),
            )
            for i in range(runs)
        ]
        outputs = [p.communicate(timeout=120) for p in procs]
        assert [p.returncode for p in procs] == [0] * runs, [err for _, err in outputs]
        entries = json.loads(ledger.read_text())
        assert len(entries) == runs
        total = sum(e["zeta"] for e in entries)
        charge = entries[0]["zeta"]
        assert total == pytest.approx(runs * charge)
        # each run saw the charges of the runs before it, and only those
        seen = sorted(json.loads(out)["ledger_total"] for out, _ in outputs)
        assert seen == pytest.approx([k * charge for k in range(1, runs + 1)])
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "data.csv", "ledger.json", "ledger.json.lock"
        ]

    def test_ledger_rewrite_keeps_file_mode(self, data_file, capsys, tmp_path):
        ledger = tmp_path / "ledger.json"
        ledger.write_text("[]")
        ledger.chmod(0o640)
        args = ["release", "--data", data_file, "--query", "age=25", "--mechanism", "geomix",
                "--eps", "0.2", "--reps", "1", "--ct", "5", "--seed", "1", "--ledger", str(ledger)]
        assert run_cli(args, capsys)[0] == 0
        assert len(json.loads(ledger.read_text())) == 1
        assert ledger.stat().st_mode & 0o777 == 0o640

    def test_unlockable_ledger_refused(self, data_file, capsys, tmp_path):
        ledger = tmp_path / "missing" / "ledger.json"
        code, _, err = run_cli(
            ["release", "--data", data_file, "--query", "age=25", "--mechanism", "geomix",
             "--eps", "0.2", "--reps", "1", "--ct", "5", "--seed", "1", "--ledger", str(ledger)],
            capsys,
        )
        assert code == 2
        assert "cannot lock ledger" in err

    @pytest.mark.parametrize(
        "content, message",
        [
            ('[{"label": "x", "zeta": -5}]', "positive and finite"),
            ('[{"label": "x", "zeta": 1e999}]', "positive and finite"),
            ('[{"label": "x", "zeta": "0.3"}]', "numeric 'zeta'"),
            ('[{"zeta": 0.3}]', "string 'label'"),
            ('[{"label": "x", "zeta": 0.3}', "unreadable ledger"),
            ('{"label": "x", "zeta": 0.3}', "JSON list"),
        ],
    )
    def test_invalid_ledger_refused(self, data_file, capsys, tmp_path, content, message):
        ledger = tmp_path / "ledger.json"
        ledger.write_text(content)
        code, out, err = run_cli(
            ["release", "--data", data_file, "--query", "age=25", "--mechanism", "geomix",
             "--eps", "0.2", "--reps", "1", "--ct", "5", "--ledger", str(ledger),
             "--budget-cap", "0.1", "--seed", "1"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert message in err
        assert ledger.read_text() == content  # nothing charged

    def test_trunclap_refused_without_unsafe(self, data_file, capsys):
        code, _, err = run_cli(
            ["release", "--data", data_file, "--query", "age=25", "--mechanism", "trunclap",
             "--eps", "0.5", "--ct", "4", "--seed", "3"],
            capsys,
        )
        assert code == 3
        assert "unbounded" in err

    def test_trunclap_with_unsafe(self, data_file, capsys):
        code, out, _ = run_cli(
            ["release", "--data", data_file, "--query", "age=25", "--mechanism", "trunclap",
             "--eps", "0.5", "--ct", "4", "--seed", "3", "--unsafe"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["zeta_charged"] == "inf"

    def test_histogram_charge_modes(self, data_file, capsys):
        base = ["release", "--data", data_file, "--hist", "work", "--mechanism", "geometric",
                "--eps", "0.3", "--seed", "4"]
        _, out_par, _ = run_cli(base + ["--charge-mode", "parallel"], capsys)
        _, out_seq, _ = run_cli(base + ["--charge-mode", "sequential"], capsys)
        par, seq = json.loads(out_par), json.loads(out_seq)
        k = len(par["cells"])
        assert k == 3
        assert seq["zeta_charged"] == pytest.approx(k * par["zeta_charged"])

    def test_hidden_true_by_default(self, data_file, capsys):
        _, out, _ = run_cli(
            ["release", "--data", data_file, "--query", "age=25", "--mechanism", "zero",
             "--seed", "1"],
            capsys,
        )
        assert "true" not in json.loads(out)

    def test_seed_reproducibility(self, data_file, capsys):
        args = ["release", "--data", data_file, "--query", "age=25", "--mechanism", "geomix",
                "--eps", "0.2", "--reps", "1", "--ct", "5", "--seed", "77"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2

    def test_generated_seed_printed(self, data_file, capsys):
        code, out, err = run_cli(
            ["release", "--data", data_file, "--query", "age=25", "--mechanism", "zero"], capsys
        )
        assert code == 0
        assert "seed" in err


class TestBenchAudit:
    def test_bench_outputs(self, capsys, tmp_path):
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({
            "true_counts": [1, 10],
            "mechanisms": [{"kind": "geomix", "eps": 0.2, "reps": 1, "ct": 5}],
            "samples_per_cell": 20000,
            "c_t_for_metrics": 5,
        }))
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(
            ["bench", "--config", str(cfg), "--out", str(out_dir), "--seed", "5"], capsys
        )
        assert code == 0
        names = {p.name for p in out_dir.iterdir()}
        assert names == {"utility_report.json", "error_cdf.csv", "within_bound.csv",
                         "mre.csv", "manifest.json"}
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["master_seed"] == 5
        assert manifest["command"] == "bench"

    def test_bench_invalid_samples(self, capsys, tmp_path):
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({
            "true_counts": [1],
            "mechanisms": [{"kind": "zero"}],
            "samples_per_cell": 0,
            "c_t_for_metrics": 5,
        }))
        code, _, _ = run_cli(
            ["bench", "--config", str(cfg), "--out", str(tmp_path / "x"), "--seed", "5"], capsys
        )
        assert code == 2

    def test_bench_unreadable_config(self, capsys, tmp_path):
        code, _, _ = run_cli(
            ["bench", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path / "x"),
             "--seed", "5"],
            capsys,
        )
        assert code == 2

    def test_audit_outputs(self, capsys, tmp_path, data_file):
        cfg = tmp_path / "audit.json"
        cfg.write_text(json.dumps({
            "data": data_file,
            "mechanism": {"kind": "geomix", "eps": 0.2, "reps": 1, "ct": 5},
            "trials": 20000,
            "n_queries": 5,
            "max_records": 4,
            "queries_per_record": 5,
        }))
        out_dir = tmp_path / "audit_out"
        code, _, _ = run_cli(
            ["audit", "--config", str(cfg), "--out", str(out_dir), "--seed", "6"], capsys
        )
        assert code == 0
        report = json.loads((out_dir / "privacy_audit.json").read_text())
        assert report["max_count_difference"] <= 1
        assert (out_dir / "manifest.json").exists()


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pwmix.cli", "--version"],
            capture_output=True,
            text=True,
            env=cli_env(),
        )
        assert proc.returncode == 0
        assert "pwmix" in proc.stdout

    def test_cold_start_does_not_load_scipy(self):
        # scipy serves only the quadrature oracle of zeta_empirical
        code = (
            "import sys, pwmix.cli\n"
            "from pwmix.bench import sweep_point\n"
            "sweep_point(5.0, 0.2, 1.0)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=cli_env()
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_closed_pipe_ends_quietly(self, tmp_path):
        # The Table-1 grid 15 times over prints about 140 kB, more than a pipe
        # holds, so the sweep is still writing when the reader goes.
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([list(point) for point in TABLE1_GRID] * 15))
        with subprocess.Popen(
            [sys.executable, "-m", "pwmix.cli", "sweep", "--grid", str(grid)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=cli_env(),
        ) as proc:
            assert proc.stdout.readline().startswith(b"c_t,eps,r_eps")
            proc.stdout.close()
            err = proc.stderr.read().decode()
            assert proc.wait(timeout=120) == 141
        assert err == ""  # no traceback, no "Exception ignored" at exit
