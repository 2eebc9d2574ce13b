import csv
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time

import mpmath as mp
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pwmix import cli
from pwmix.bench import TABLE1_GRID
from pwmix.cli import main, spec_from_dict
from pwmix.errors import InvalidParameterError, PwmixError
from pwmix.mechanisms import (
    SPECS,
    Geometric,
    GeometricMixture,
    Laplace,
    RoundedLaplace,
    TruncatedLaplace,
)

from conftest import EXACT_ZERO_FLAGS, cli_env

# Points where the paper's closed-form zeta is not a finite positive double.
NON_FINITE_ZETA = [
    ["lapmix", "--eps", "182.6", "--reps", "159.6", "--ct", "0.1964"],  # log of a negative
    ["lapmix", "--eps", "23.24", "--reps", "7.745", "--ct", "0.154"],
    ["geomix", "--eps", "40.48", "--reps", "715.1", "--ct", "1"],  # exp(r eps) overflows
    ["lapmix", "--eps", "1", "--reps", "800", "--ct", "0.5"],  # inf
]

# Every kind whose spec has unbounded loss, built from flags that every kind accepts.
UNBOUNDED_KINDS = [
    cls.kind for cls in SPECS
    if spec_from_dict({"kind": cls.kind, "eps": 1, "reps": 2, "ct": 3}).worst_case_eps() == math.inf
]

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

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"kind": "lapmix", "eps": 0.5, "reps": 1.5, "ct": 2.5, "sens": 2}, "sens"),
            ({"kind": "laplace", "eps": 0.2, "sens": 1}, "sens"),
            ({"kind": "geomix", "eps": 0.2, "reps": 1, "c_t": 5}, "c_t"),
            ({"kind": "geometric", "eps": 1, "scale": 2}, "scale"),
        ],
    )
    def test_unknown_key_refused(self, doc, key):
        with pytest.raises(PwmixError, match=f"unknown mechanism key '{key}'"):
            spec_from_dict(doc)

    @pytest.mark.parametrize("eps", [None, 0.5])
    @pytest.mark.parametrize("kind", ["gaussian", "zero", None, 3])
    def test_unknown_kind_named_before_eps(self, kind, eps):
        doc = {key: v for key, v in (("kind", kind), ("eps", eps)) if v is not None}
        with pytest.raises(PwmixError, match=f"^unknown mechanism kind {kind!r}; the kinds are"):
            spec_from_dict(doc)

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"kind": "laplace", "eps": True}, "eps"),
            ({"kind": "laplace", "eps": "0.2"}, "eps"),
            ({"kind": "geometric", "eps": 10**400}, "eps"),
            ({"kind": "trunclap", "eps": 0.5, "ct": 0}, "ct"),
            ({"kind": "geomix", "eps": 0.2, "reps": -1, "ct": 5}, "reps"),
            ({"kind": "lapmix", "eps": 0.2, "reps": 1, "ct": float("inf")}, "ct"),
        ],
    )
    def test_parameter_not_positive_finite_number(self, doc, key):
        with pytest.raises(InvalidParameterError, match=f"^{key} must be a positive finite number"):
            spec_from_dict(doc)


def _assert_stats_match_the_definition(doc, kind, eps, reps, ct):
    """A mixture's ``stats`` row against its law from the definition, in 50-digit arithmetic:
    p(x) proportional to e^(-eps |x|) up to c_t and to e^(-eps c_t - r eps (|x| - c_t)) beyond,
    on the integers (geomix) or the line (lapmix).  The geomix zeta is the exact unit-shift
    sum; the lapmix one, the paper's closed form, is only checked to lie in (0, r eps]."""
    with mp.workdps(50):
        e, r, c = mp.mpf(eps), mp.mpf(reps), mp.mpf(ct)

        def log_f(x):
            return -e * x if x <= c else -e * c - r * (x - c)

        if kind == "geomix":
            cells = [mp.exp(log_f(k)) for k in range(int(ct + 60 / eps + 60 / reps))]
            norm = 2 * mp.fsum(cells) - cells[0]
            p = [cell / norm for cell in cells]
            ks = range(len(p))
            moments = [2 * mp.fsum(k**n * pk for k, pk in zip(ks, p)) for n in (1, 2)]
            entropy = -2 * mp.fsum(pk * mp.log(pk) for pk in p) + p[0] * mp.log(p[0])
            two_sided = p[:0:-1] + p
            zeta = mp.log(mp.fsum(max(a, b * b / a) for a, b in zip(two_sided, two_sided[1:])))
            assert doc["zeta"] == pytest.approx(float(zeta), rel=1e-12)
        else:
            pieces = [[0, c], [c, c + 200 / r]]
            norm = 2 * mp.fsum(mp.quad(lambda x: mp.exp(log_f(x)), piece) for piece in pieces)

            def integral(g):
                return 2 * mp.fsum(
                    mp.quad(lambda x: g(x) * mp.exp(log_f(x)) / norm, piece) for piece in pieces
                )

            moments = [integral(lambda x, n=n: x**n) for n in (1, 2)]
            entropy = integral(lambda x: mp.log(norm) - log_f(x))
            assert 0.0 < doc["zeta"] <= reps
    for key, want in zip(("mean_abs_noise", "variance", "entropy"), (*moments, entropy)):
        assert doc[key] == pytest.approx(float(want), rel=1e-12), key
    assert doc["worst_case_eps"] == max(eps, reps)


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
    # continuous closed forms of the Laplace law it rounds.  ``zeta`` is the paper's
    # closed form; ``zeta_charged`` is what a release charges, the exact zeta of the
    # law it releases.
    @pytest.mark.parametrize(
        "flags, row",
        [
            (
                ["laplace", "--eps", "0.332"],
                '{"entropy": 2.795767490625594, "mean_abs_noise": 3.012048192771084, '
                '"mechanism": "laplace(b=3.01205)", "variance": 18.144868631151105, '
                '"worst_case_eps": 0.332, "zeta": 0.332, "zeta_charged": 0.3104634445086862}',
            ),
            (
                ["rlaplace", "--eps", "0.332"],
                '{"entropy": 2.795767490625594, "mean_abs_noise": 3.012048192771084, '
                '"mechanism": "rlaplace(b=3.01205)", "variance": 18.144868631151105, '
                '"worst_case_eps": 0.332, "zeta": 0.3091669465188472, '
                '"zeta_charged": 0.3091669465188472}',
            ),
            (
                ["geometric", "--eps", "0.332"],
                '{"entropy": 2.7867570738300276, "mean_abs_noise": 2.957418239017585, '
                '"mechanism": "geometric(alpha=1.39375)", "variance": 17.97911649562626, '
                '"worst_case_eps": 0.33199999999999996, "zeta": 0.33199999999999996, '
                '"zeta_charged": 0.3320000000000001}',
            ),
            (
                ["lapmix", "--eps", "0.2", "--reps", "1", "--ct", "5"],
                '{"entropy": 2.5369751296526846, "mean_abs_noise": 2.4977607936494723, '
                '"mechanism": "lapmix(eps=0.2,reps=1,ct=5)", "variance": 9.547132830666467, '
                '"worst_case_eps": 1.0, "zeta": 0.3090627284053273, "zeta_charged": 0.3123962700980893}',
            ),
            (
                ["geomix", "--eps", "0.2", "--reps", "1", "--ct", "5"],
                '{"entropy": 2.537405131153662, "mean_abs_noise": 2.480046265185278, '
                '"mechanism": "geomix(eps=0.2,reps=1,ct=5)", "variance": 9.609491315109482, '
                '"worst_case_eps": 1.0, "zeta": 0.3281059947639035, "zeta_charged": 0.3281059947639035}',
            ),
        ],
    )
    def test_golden_json_row(self, capsys, flags, row):
        code, out, _ = run_cli(["stats", "--format", "json", "--mechanism", *flags], capsys)
        assert code == 0
        assert out == row + "\n"

    @pytest.mark.parametrize("flags", [["trunclap", "--eps", "1", "--ct", "3"]])
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
        # Named for what it once checked: r eps c_t = 800, where the linear mixture mass
        # underflowed and the point was refused.  It now works and matches the definition.
        flags = [mechanism, "--eps", "2", "--reps", "20", "--ct", "40"]
        code, out, _ = run_cli(["stats", "--format", "json", "--mechanism", *flags], capsys)
        assert code == 0
        _assert_stats_match_the_definition(json.loads(out), mechanism, 2.0, 20.0, 40.0)

    def test_height_sum_underflow_exits_2(self, capsys):
        # Named for what it once checked: b1 times the summed heights at c_t rounded to 0,
        # and the point was refused.  It now works and matches the definition.
        flags = ["lapmix", "--eps", "29.3", "--reps", "849.5", "--ct", "25.31"]
        code, out, _ = run_cli(["stats", "--format", "json", "--mechanism", *flags], capsys)
        assert code == 0
        _assert_stats_match_the_definition(json.loads(out), "lapmix", 29.3, 849.5, 25.31)

    @pytest.mark.parametrize(
        "flags, inner",
        [
            # exp(-eps c_t) underflows, so the outer piece's mass w1 is 0 as a double
            (
                ["geomix", "--eps", "43.88", "--reps", "13.18", "--ct", "18"],
                Geometric(math.exp(43.88)),
            ),
            (["lapmix", "--eps", "48.9", "--reps", "2.153", "--ct", "21.56"], Laplace(1 / 48.9)),
        ],
    )
    def test_piece_of_zero_weight_adds_nothing(self, capsys, flags, inner):
        code, out, _ = run_cli(["stats", "--format", "json", "--mechanism", *flags], capsys)
        assert code == 0
        doc = json.loads(out)
        for key, value in vars(inner.stats()).items():
            assert doc[key] == pytest.approx(value, rel=0, abs=1e-12)

    @pytest.mark.parametrize(
        "flags",
        NON_FINITE_ZETA
        + [
            ["laplace", "--eps", "1e-300"],  # variance inf
            ["lapmix", "--eps", "1e-160", "--reps", "2e-160", "--ct", "3"],  # variance inf - inf
        ],
    )
    def test_non_finite_closed_form_exits_2(self, capsys, flags):
        code, out, err = run_cli(["stats", "--format", "json", "--mechanism", *flags], capsys)
        assert code == 2
        assert out == ""
        assert "not a finite" in err

    def test_outer_weight_near_overflow(self, capsys):
        # the outer weight at 0 would be about 1e306: the outer piece is read from c_t in logs
        flags = ["lapmix", "--eps", "3.4247", "--reps", "161.38", "--ct", "4.5118"]
        code, out, _ = run_cli(["stats", "--format", "json", "--mechanism", *flags], capsys)
        assert code == 0
        # -int p ln p by scipy.integrate.quad on [0, c_t] and [c_t, inf), doubled
        assert json.loads(out)["entropy"] == pytest.approx(0.46213016801133117, rel=1e-6)

    def test_sens_flag_is_gone(self, capsys):
        flags = ["geomix", "--eps", "0.2", "--reps", "1", "--ct", "40", "--sens", "8"]
        with pytest.raises(SystemExit) as exc:
            main(["stats", "--mechanism", *flags])
        assert exc.value.code == 2
        assert "--sens" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize(
        "flags",
        [
            ["laplace"],
            ["rlaplace"],
            ["geometric"],
            ["trunclap", "--ct", "3"],
            ["lapmix", "--reps", "1", "--ct", "3"],
            ["geomix", "--reps", "1", "--ct", "3"],
        ],
    )
    def test_eps_not_positive_finite_exits_2(self, capsys, flags, eps):
        code, out, err = run_cli(["stats", "--mechanism", *flags, f"--eps={eps}"], capsys)
        assert code == 2
        assert out == ""
        assert "eps must be a positive finite number" in err and "Traceback" not in err


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

    def test_out_in_a_missing_directory(self, capsys, tmp_path):
        out = tmp_path / "missing" / "x.csv"
        code, stdout, err = run_cli(["sweep", "--table1", "--out", str(out)], capsys)
        assert code == 2 and stdout == "" and "Traceback" not in err
        assert "cannot write the output" in err and not out.parent.exists()

    def test_break_point_past_2_52_is_refused(self, capsys, tmp_path):
        # the integer law of the lapmix columns: past 2^52 cells a half cell is not a double
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([[2.0**52 + 2, 0.2, 1.0]]))
        code, out, err = run_cli(["sweep", "--grid", str(grid)], capsys)
        assert (code, out) == (2, "") and "passes 2^52 cells" in err and "Traceback" not in err
        grid.write_text(json.dumps([[2.0**52, 0.2, 1.0]]))
        assert run_cli(["sweep", "--grid", str(grid)], capsys)[0] == 0

    def test_malformed_grid(self, capsys, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text('{"not": "a grid"}')
        code, _, err = run_cli(["sweep", "--grid", str(grid)], capsys)
        assert code == 2


class TestRelease:
    def test_zero_noise_release(self, data_file, capsys):
        code, out, _ = run_cli(
            ["release", "--data", data_file, "--query", "age=25,work=Private",
             "--mechanism", *EXACT_ZERO_FLAGS, "--seed", "1", "--reveal-true"],
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

    @pytest.mark.parametrize("flags", NON_FINITE_ZETA)
    def test_exact_charge_where_the_closed_form_is_not_finite(self, data_file, capsys, tmp_path, flags):
        # ``stats`` refuses these points, whose closed-form zeta is not a finite double; a
        # release charges the exact zeta of the law it releases, which is finite
        ledger = tmp_path / "ledger.json"
        ledger.write_text("[]")
        code, out, err = run_cli(
            ["release", "--data", data_file, "--query", "age=25", "--seed", "1",
             "--ledger", str(ledger), "--mechanism", *flags],
            capsys,
        )
        assert code == 0, err
        kind, values = flags[0], dict(zip(flags[1::2], map(float, flags[2::2])))
        spec = spec_from_dict({"kind": kind, **{k.lstrip("-"): v for k, v in values.items()}})
        (entry,) = json.loads(ledger.read_text())
        assert entry["zeta"] == json.loads(out)["zeta_charged"] == spec.charge()
        assert 0.0 < spec.charge() < math.inf

    @pytest.mark.parametrize(
        "flags, message",
        [
            # rates per cell so small that the law's mass from cell 2^53 on reaches 2^-54
            (["laplace", "--eps", "1e-15"], "cannot be drawn"),
            (["rlaplace", "--eps", "1e-15"], "cannot be drawn"),
            (["geometric", "--eps", "1e-15"], "cannot be drawn"),
            (["lapmix", "--eps", "1", "--reps", "1e-15", "--ct", "3"], "cannot be drawn"),
            # a break-point of 2^52 cells of 1/8 and more
            (["lapmix", "--eps", "0.2", "--reps", "1", "--ct", "1e16"], "passes 2^52 cells"),
        ],
    )
    def test_grid_law_that_cannot_be_drawn_is_refused(self, data_file, capsys, tmp_path, flags, message):
        ledger = tmp_path / "ledger.json"
        code, out, err = run_cli(
            ["release", "--data", data_file, "--query", "age=25", "--seed", "1",
             "--ledger", str(ledger), "--mechanism", *flags],
            capsys,
        )
        assert (code, out) == (2, "")
        assert message in err and "Traceback" not in err
        assert not ledger.exists()

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

    def test_charge_is_durable(self, data_file, capsys, tmp_path, monkeypatch):
        # the temporary file is synced before it replaces the ledger, the directory after
        events, fsync, replace = [], os.fsync, os.replace

        def record_fsync(fd):
            events.append(("fsync", os.fstat(fd).st_ino))
            fsync(fd)

        def record_replace(*paths):
            events.append(("replace",))
            replace(*paths)

        monkeypatch.setattr(os, "fsync", record_fsync)
        monkeypatch.setattr(os, "replace", record_replace)
        ledger = tmp_path / "ledger.json"
        code, _, err = run_cli(
            ["release", "--data", data_file, "--query", "age=25", "--mechanism", "geomix",
             "--eps", "0.2", "--reps", "1", "--ct", "5", "--seed", "1", "--ledger", str(ledger)],
            capsys,
        )
        assert code == 0, err
        assert events == [
            ("fsync", ledger.stat().st_ino), ("replace",), ("fsync", tmp_path.stat().st_ino)
        ]

    def test_large_ledger_charged_in_linear_time(self, data_file, capsys, tmp_path):
        ledger = tmp_path / "ledger.json"
        n = 100_000
        ledger.write_text(json.dumps([{"label": f"q{i}", "zeta": 0.25} for i in range(n)]))
        start = time.perf_counter()
        code, out, err = run_cli(
            ["release", "--data", data_file, "--query", "age=25", "--mechanism", "geomix",
             "--eps", "0.2", "--reps", "1", "--ct", "5", "--seed", "1", "--ledger", str(ledger)],
            capsys,
        )
        assert time.perf_counter() - start < 3.0
        assert code == 0, err
        entries = json.loads(ledger.read_text())
        assert len(entries) == n + 1
        assert json.loads(out)["ledger_total"] == pytest.approx(n * 0.25 + entries[-1]["zeta"])

    def test_bad_entry_named_by_its_index(self, data_file, capsys, tmp_path):
        ledger = tmp_path / "ledger.json"
        content = json.dumps([{"label": "q", "zeta": 0.25}] * 1000 + [{"label": "q", "zeta": 0}])
        ledger.write_text(content)
        code, out, err = run_cli(
            ["release", "--data", data_file, "--query", "age=25", "--mechanism", "geomix",
             "--eps", "0.2", "--reps", "1", "--ct", "5", "--seed", "1", "--ledger", str(ledger)],
            capsys,
        )
        assert code == 2 and out == ""
        assert f"ledger {ledger} entry 1000: zeta must be positive and finite, got 0.0" in err
        assert ledger.read_text() == content

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

    @pytest.mark.parametrize("kind", UNBOUNDED_KINDS)
    def test_unbounded_family_refused_without_unsafe(self, data_file, capsys, kind):
        code, out, _ = run_cli(
            ["release", "--data", data_file, "--query", "age=25", "--mechanism", kind,
             "--eps", "1", "--reps", "2", "--ct", "3", "--seed", "3"],
            capsys,
        )
        assert code == 3 and out == ""

    def test_zero_is_not_a_mechanism(self, data_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["release", "--data", data_file, "--query", "age=25", "--mechanism", "zero"])
        assert exc.value.code == 2
        assert "invalid choice: 'zero'" in capsys.readouterr().err

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
            ["release", "--data", data_file, "--query", "age=25", "--mechanism",
             *EXACT_ZERO_FLAGS, "--seed", "1"],
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
            ["release", "--data", data_file, "--query", "age=25", "--mechanism", *EXACT_ZERO_FLAGS],
            capsys,
        )
        assert code == 0
        assert "seed" in err


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("contract")
    (path / "data.csv").write_text(FIXTURE)
    return path


def _no_constant(name):
    raise AssertionError(f"JSON output holds {name}")


# Log-uniform over [1e-6, 1e3], and the edge values.
CONTRACT_VALUES = st.one_of(
    st.floats(math.log(1e-6), math.log(1e3)).map(math.exp),
    st.sampled_from([0.0, -1.0, math.nan, math.inf, 1e-320, 1e308, 5e-324]),
)


class TestContract:
    """Every parameter point of ``stats`` and ``release`` exits 0, 2 or 3: it works or is
    refused with a message, never with a traceback, and what it prints is JSON without
    NaN or Infinity.  A release charges ``spec.charge()``, and releases a true count plus
    a whole number of its family's cells, unless it is clamped."""

    @settings(
        max_examples=150, derandomize=True, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        command=st.sampled_from(["stats", "release", "release --ledger"]),
        kind=st.sampled_from([cls.kind for cls in SPECS]),
        eps=CONTRACT_VALUES,
        reps=CONTRACT_VALUES,
        ct=CONTRACT_VALUES,
    )
    # 1 / (r eps) overflowed, the mixture weight a2 read 0 and stats divided by it
    @example(command="stats", kind="lapmix", eps=1.0, reps=1e-310, ct=1.0)
    # r eps rounded up to inf, and the outer scale 1/(r eps) read 0
    @example(command="stats", kind="lapmix", eps=3.0, reps=sys.float_info.max, ct=1.0)
    def test_every_point_exits_0_2_or_3(self, capsys, contract_dir, command, kind, eps, reps, ct):
        flags = ["--mechanism", kind, "--eps", repr(eps), "--reps", repr(reps), "--ct", repr(ct)]
        if command == "stats":
            args = ["stats", "--format", "json", *flags]
        else:
            args = ["release", "--data", str(contract_dir / "data.csv"), "--query", "age=25",
                    "--seed", "1", "--reveal-true", *flags]
            if command == "release --ledger":
                ledger = contract_dir / "ledger.json"
                ledger.unlink(missing_ok=True)
                args += ["--ledger", str(ledger)]
        code, out, err = run_cli(args, capsys)
        assert code in (0, 2, 3), err
        assert "Traceback" not in err
        if code == 0:
            doc = json.loads(out, parse_constant=_no_constant)
            if command != "stats":
                spec = spec_from_dict({"kind": kind, "eps": eps, "reps": reps, "ct": ct})
                assert doc["zeta_charged"] == spec.charge()
                steps = (doc["released"] - doc["true"]) / spec.cell
                assert doc["clamped"] or steps == int(steps), doc
            if command == "release --ledger":  # the one charge is what was printed
                (entry,) = json.loads(ledger.read_text())
                assert entry["zeta"] == doc["zeta_charged"] == doc["ledger_total"]
        else:
            assert out == ""
            if command == "release --ledger":  # a refused release charges nothing
                assert not ledger.exists()


    @settings(
        max_examples=200, derandomize=True, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        command=st.sampled_from(["sweep --grid", "bench", "audit"]),
        kind=st.sampled_from([cls.kind for cls in SPECS]),
        unsafe=st.booleans(),
        eps=CONTRACT_VALUES,
        reps=CONTRACT_VALUES,
        ct=CONTRACT_VALUES,
    )
    # r eps c_t = 800, where the linear mixture mass underflowed
    @example(command="sweep --grid", kind="geomix", unsafe=False, eps=2.0, reps=20.0, ct=40.0)
    def test_every_config_exits_0_2_or_3(
        self, capsys, contract_dir, command, kind, unsafe, eps, reps, ct
    ):
        # the same points in the files of ``sweep --grid``, ``bench`` and ``audit``, at 200
        # samples per cell and 200 trials; a value that is not finite goes in as JSON's NaN
        # or Infinity, which the loaders accept
        mechanism = {"kind": kind, "eps": eps, "reps": reps, "ct": ct, "unsafe": unsafe}
        if command == "sweep --grid":
            doc = [[ct, eps, reps]]
        elif command == "bench":
            doc = {"true_counts": [1, 50], "mechanisms": [mechanism], "samples_per_cell": 200,
                   "c_t_for_metrics": 5}
        else:
            doc = {"data": str(contract_dir / "data.csv"), "mechanism": mechanism, "trials": 200,
                   "n_queries": 3, "max_records": 3, "queries_per_record": 3}
        config, out = contract_dir / "config.json", contract_dir / "out"
        config.write_text(json.dumps(doc))
        shutil.rmtree(out, ignore_errors=True)
        if command == "sweep --grid":
            args = ["sweep", "--grid", str(config)]
        else:
            args = [command, "--config", str(config), "--out", str(out), "--seed", "1"]
        code, stdout, err = run_cli(args, capsys)
        assert code in (0, 2, 3), err
        assert "Traceback" not in err
        outputs = {"stdout": stdout, **{path.name: path.read_text() for path in out.glob("*")}}
        if code != 0:
            assert outputs == {"stdout": ""}
        for name, text in outputs.items():
            if name.endswith(".json"):
                json.loads(text, parse_constant=_no_constant)
            else:
                assert not re.search(r"\b(nan|inf)\b", text, re.IGNORECASE), (name, text)


class TestParser:
    def test_built_once_and_commands_looked_up_when_run(self, capsys, monkeypatch):
        cli.build_parser.cache_clear()
        args = ["stats", "--mechanism", "geometric", "--eps", "1"]
        assert run_cli(args, capsys)[0] == 0
        monkeypatch.setattr(cli, "_cmd_stats", lambda parsed: 7)
        assert run_cli(args, capsys)[0] == 7
        assert cli.build_parser.cache_info().misses == 1


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

    @pytest.mark.parametrize("threads", ["abc", "0", "-3", "1.5", " 2"])
    def test_bench_threads_not_a_positive_integer(self, capsys, tmp_path, monkeypatch, threads):
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({
            "true_counts": [1],
            "mechanisms": [{"kind": "geometric", "eps": 700}],
            "samples_per_cell": 10,
            "c_t_for_metrics": 5,
        }))
        monkeypatch.setenv("PWMIX_THREADS", threads)
        code, _, err = run_cli(
            ["bench", "--config", str(cfg), "--out", str(tmp_path / "x"), "--seed", "5"], capsys
        )
        assert code == 2 and f"PWMIX_THREADS must be a positive integer, got {threads!r}" in err

    def test_bench_failure_leaves_no_out_dir(self, capsys, tmp_path, monkeypatch):
        # the directory is made only once the simulation has run
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({
            "true_counts": [1],
            "mechanisms": [{"kind": "geometric", "eps": 700}],
            "samples_per_cell": 10,
            "c_t_for_metrics": 5,
        }))
        monkeypatch.setenv("PWMIX_THREADS", "abc")
        out = tmp_path / "out"
        code, _, _ = run_cli(["bench", "--config", str(cfg), "--out", str(out), "--seed", "5"], capsys)
        assert code == 2 and not out.exists()

    def test_bench_invalid_samples(self, capsys, tmp_path):
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({
            "true_counts": [1],
            "mechanisms": [{"kind": "geometric", "eps": 700}],
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

    # a mechanism the config states wrongly exits 2 and names the key, for bench and audit alike
    BAD_MECHANISMS = [
        ({"kind": "geomix", "eps": 0.2, "reps": 1, "ct": 5, "sens": 8}, "'sens'"),
        ({"kind": "laplace", "eps": 0}, "eps must be"),
        ({"kind": "lapmix", "eps": 0.2, "reps": 1, "ct": 0}, "ct must be"),
    ]

    @pytest.mark.parametrize("mechanism, named", BAD_MECHANISMS)
    def test_bench_bad_mechanism(self, capsys, tmp_path, mechanism, named):
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({
            "true_counts": [1],
            "mechanisms": [mechanism],
            "samples_per_cell": 100,
            "c_t_for_metrics": 5,
        }))
        code, _, err = run_cli(
            ["bench", "--config", str(cfg), "--out", str(tmp_path / "x"), "--seed", "5"], capsys
        )
        assert code == 2 and not (tmp_path / "x").exists()
        assert named in err

    @pytest.mark.parametrize("mechanism, named", BAD_MECHANISMS)
    def test_audit_bad_mechanism(self, capsys, tmp_path, data_file, mechanism, named):
        cfg = tmp_path / "audit.json"
        cfg.write_text(json.dumps({"data": data_file, "mechanism": mechanism, "trials": 100}))
        code, _, err = run_cli(
            ["audit", "--config", str(cfg), "--out", str(tmp_path / "x"), "--seed", "6"], capsys
        )
        assert code == 2 and not (tmp_path / "x").exists()
        assert named in err

    # a flag that is not a JSON boolean: "false" read as true let trunclap run (exit 0, where
    # without the key it exits 3), and a header of "false" was read as true
    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    @pytest.mark.parametrize("command", ["bench", "audit"])
    def test_flag_not_a_boolean(self, capsys, tmp_path, data_file, command, value):
        if command == "bench":
            doc = {"true_counts": [1], "samples_per_cell": 10, "c_t_for_metrics": 5,
                   "mechanisms": [{"kind": "trunclap", "eps": 0.5, "ct": 4, "unsafe": value}]}
        else:
            doc = {"data": data_file, "trials": 10,
                   "mechanism": {"kind": "trunclap", "eps": 0.5, "ct": 4, "unsafe": value}}
        cfg, out = tmp_path / "config.json", tmp_path / "x"
        cfg.write_text(json.dumps(doc))
        code, _, err = run_cli([command, "--config", str(cfg), "--out", str(out), "--seed", "5"], capsys)
        assert code == 2 and not out.exists()
        assert f"unsafe must be true or false, got {value!r}" in err

    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_audit_header_not_a_boolean(self, capsys, tmp_path, data_file, value):
        cfg, out = tmp_path / "audit.json", tmp_path / "x"
        cfg.write_text(json.dumps({
            "data": data_file, "header": value, "trials": 10,
            "mechanism": {"kind": "geomix", "eps": 0.2, "reps": 1, "ct": 5},
        }))
        code, _, err = run_cli(["audit", "--config", str(cfg), "--out", str(out), "--seed", "5"], capsys)
        assert code == 2 and not out.exists()
        assert f"header must be true or false, got {value!r}" in err

    @pytest.mark.parametrize("command", ["bench", "audit"])
    def test_out_is_a_file(self, capsys, tmp_path, data_file, monkeypatch, command):
        # an unusable --out fails before the simulation or the audit runs, not after it
        def refused(*args, **kwargs):
            raise PwmixError("the work ran")

        monkeypatch.setattr(cli, "run_simulation", refused)
        monkeypatch.setattr(cli, "audit_privacy", refused)
        if command == "bench":
            doc = {"true_counts": [1], "samples_per_cell": 10, "c_t_for_metrics": 5,
                   "mechanisms": [{"kind": "geometric", "eps": 700}]}
        else:
            doc = {"data": data_file, "trials": 10,
                   "mechanism": {"kind": "geomix", "eps": 0.2, "reps": 1, "ct": 5}}
        cfg, out = tmp_path / "config.json", tmp_path / "taken"
        cfg.write_text(json.dumps(doc))
        out.write_text("kept")
        code, stdout, err = run_cli([command, "--config", str(cfg), "--out", str(out), "--seed", "5"], capsys)
        assert code == 2 and stdout == "" and "Traceback" not in err
        assert "cannot write the output" in err and out.read_text() == "kept"
        # the directories made for a run that then fails are removed again
        out = tmp_path / "made" / "out"
        code, _, err = run_cli([command, "--config", str(cfg), "--out", str(out), "--seed", "5"], capsys)
        assert code == 2 and "the work ran" in err and not (tmp_path / "made").exists()

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

    def _audit(self, capsys, tmp_path, data_file, **sizes):
        cfg = tmp_path / "audit.json"
        cfg.write_text(json.dumps({
            "data": data_file,
            "mechanism": {"kind": "geomix", "eps": 0.2, "reps": 1, "ct": 5},
            **{"trials": 200, "n_queries": 5, "max_records": 4, "queries_per_record": 5, **sizes},
        }))
        out_dir = tmp_path / "audit_out"
        code, _, err = run_cli(
            ["audit", "--config", str(cfg), "--out", str(out_dir), "--seed", "6"], capsys
        )
        return code, err, out_dir

    @pytest.mark.parametrize("key", ["trials", "n_queries", "max_records", "queries_per_record"])
    @pytest.mark.parametrize("value", [2.5, True, False, "100", None, float("inf")])
    def test_audit_size_not_whole_number(self, capsys, tmp_path, data_file, key, value):
        code, err, out_dir = self._audit(capsys, tmp_path, data_file, **{key: value})
        assert code == 2 and not out_dir.exists()
        assert f"{key} must be a whole number" in err and "Traceback" not in err

    @pytest.mark.parametrize("key", ["trials", "max_records", "queries_per_record"])
    @pytest.mark.parametrize("value", [0, -5])
    def test_audit_size_below_one(self, capsys, tmp_path, data_file, key, value):
        code, err, out_dir = self._audit(capsys, tmp_path, data_file, **{key: value})
        assert code == 2 and not out_dir.exists()
        assert f"{key} must be >= 1, got {value}" in err

    def test_audit_integral_float_sizes(self, capsys, tmp_path, data_file):
        code, _, out_dir = self._audit(capsys, tmp_path, data_file)
        assert code == 0
        want = (out_dir / "privacy_audit.json").read_bytes()
        floats = {"trials": 2e2, "n_queries": 5.0, "max_records": 4.0, "queries_per_record": 5.0}
        code, _, out_dir = self._audit(capsys, tmp_path, data_file, **floats)
        assert code == 0 and (out_dir / "privacy_audit.json").read_bytes() == want

    def test_bench_samples_not_whole_number(self, capsys, tmp_path):
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({
            "true_counts": [1],
            "mechanisms": [{"kind": "geometric", "eps": 700}],
            "samples_per_cell": 2.5,
            "c_t_for_metrics": 5,
        }))
        code, _, err = run_cli(
            ["bench", "--config", str(cfg), "--out", str(tmp_path / "x"), "--seed", "5"], capsys
        )
        assert code == 2 and "samples_per_cell must be a whole number" in err

    @pytest.mark.parametrize(
        "key, value, named",
        [
            # a bound that is not a number read every cell as within it, and wrote NaN
            ("c_t_for_metrics", float("nan"), "c_t_for_metrics must be finite and >= 0"),
            ("c_t_for_metrics", float("inf"), "c_t_for_metrics must be finite and >= 0"),
            ("c_t_for_metrics", -3, "c_t_for_metrics must be finite and >= 0"),
            # a count was truncated to 1, and true read as 1
            ("true_counts", [1.7, 10], "true_counts must be a whole number, got 1.7"),
            ("true_counts", [True], "true_counts must be a whole number, got True"),
            # a count past the int64 range ended in a traceback from numpy
            ("true_counts", [1e300], "true counts must be whole numbers in [0, 2^53]"),
            ("true_counts", [-1], "true counts must be whole numbers in [0, 2^53]"),
            # a string or a bool was read as the number it spells: 5.0, or 1.0 for true
            ("c_t_for_metrics", "5", "c_t_for_metrics must be a number, got '5'"),
            ("c_t_for_metrics", True, "c_t_for_metrics must be a number, got True"),
            pytest.param("c_t_for_metrics", 10**400, "OverflowError", id="c_t_for_metrics-10**400"),
        ],
    )
    def test_bench_bad_config_value(self, capsys, tmp_path, key, value, named):
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({
            "true_counts": [1],
            "mechanisms": [{"kind": "geometric", "eps": 700}],
            "samples_per_cell": 10,
            "c_t_for_metrics": 5,
            key: value,
        }))
        out = tmp_path / "x"
        code, _, err = run_cli(["bench", "--config", str(cfg), "--out", str(out), "--seed", "5"], capsys)
        assert code == 2 and not out.exists()
        assert named in err and "Traceback" not in err


class TestOversizedCell:
    """A cell past csv.field_size_limit() is a parse error: exit 2, no traceback."""

    @pytest.fixture
    def big_csv(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("age,work\n25,Private\n30," + "x" * 131_073 + "\n")
        return str(path)

    def test_release(self, capsys, big_csv):
        code, out, err = run_cli(
            ["release", "--data", big_csv, "--query", "work=Private", "--mechanism", *EXACT_ZERO_FLAGS],
            capsys,
        )
        assert code == 2 and out == ""
        assert "field larger than field limit" in err and "Traceback" not in err

    def test_audit(self, capsys, tmp_path, big_csv):
        cfg = tmp_path / "audit.json"
        cfg.write_text(json.dumps({
            "data": big_csv,
            "mechanism": {"kind": "geomix", "eps": 0.2, "reps": 1, "ct": 5},
            "trials": 100,
        }))
        out_dir = tmp_path / "audit_out"
        code, _, err = run_cli(
            ["audit", "--config", str(cfg), "--out", str(out_dir), "--seed", "6"], capsys
        )
        assert code == 2 and not out_dir.exists()
        assert "field larger than field limit" in err and "Traceback" not in err


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
        # scipy is a test-only dependency: no pwmix module imports it
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

    def test_cold_start_does_not_load_the_thread_pool(self):
        # concurrent.futures serves only run_simulation on more than one thread
        code = (
            "import sys, pwmix.cli\n"
            "from pwmix.bench import sweep_point\n"
            "sweep_point(5.0, 0.2, 1.0)\n"
            "print('concurrent.futures' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=cli_env()
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

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
