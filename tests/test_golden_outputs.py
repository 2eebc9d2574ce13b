"""Byte pins: sha256 digests of CLI outputs for fixed seeds.

A refactor that claims identical outputs keeps every digest here.  A change
that moves an output on purpose updates the digest, and says which output
moved and why.
"""

import hashlib
import json
from pathlib import Path

import pytest

from pwmix import bench
from pwmix.cli import main

from conftest import ALL_STRADDLE, make_synthetic_dataset

REPO = Path(__file__).resolve().parent.parent


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(args, capsys) -> str:
    code = main(args)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


class TestAuditReport:
    """privacy_audit.json on criterion 8's synthetic table (1000 rows, seed 123).

    The two lapmix digests moved once on purpose, when lapmix began to release on the
    1/8 grid: its outcomes are binned from the grid draws."""

    @pytest.fixture(scope="class")
    def data_csv(self, tmp_path_factory):
        ds = make_synthetic_dataset(rows=1000, seed=123)
        path = tmp_path_factory.mktemp("audit") / "data.csv"
        path.write_text("\n".join(",".join(r) for r in (ds.schema, *ds.records)) + "\n")
        return path

    @pytest.mark.parametrize(
        "kind, seed, trials, digest",
        [
            ("geomix", 1, 20_000, "9ac6d337f3bbefbefd8ed2d2a95ac3056e5ac409365f2e882f28497609b45e1e"),
            ("geomix", 7, 20_000, "512e5a2f4d224f19ae110468cdf1f591faa797c8d2263c24bfb65c06cbf3003b"),
            ("lapmix", 1, 20_000, "02f35e2d6988057e3c97e81b3fd668426f6d2eeb46f14def7486043306025824"),
            ("lapmix", 7, 20_000, "8c9b397c966e98e8889e59090032f3e7a0927182ebec9ec458f4374f72f1f026"),
            # Below min_count: groups resolve no outcome and report "nan"/"-inf".
            ("geomix", 1, 20, "ac36b323a0920802a566934236e208c59bb6a9d68e322badda09d1f77a28b6b0"),
        ],
    )
    def test_digest(self, capsys, tmp_path, data_csv, kind, seed, trials, digest):
        cfg = tmp_path / "audit.json"
        cfg.write_text(json.dumps({
            "data": str(data_csv),
            "mechanism": {"kind": kind, "eps": 0.2, "reps": 1, "ct": 5},
            "trials": trials,
        }))
        out = tmp_path / "out"
        run_cli(["audit", "--config", str(cfg), "--out", str(out), "--seed", str(seed)], capsys)
        report = (out / "privacy_audit.json").read_bytes()
        if trials < 50:
            assert b'"nan"' in report and b'"-inf"' in report
        assert sha256(report) == digest

    @pytest.mark.parametrize("kind", ["geomix", "lapmix"])
    def test_bucket_counts_leave_report_unchanged(
        self, capsys, tmp_path, monkeypatch, data_csv, kind
    ):
        # The arms count per lattice bucket; forced to draw every value instead,
        # by a table builder in which every bucket straddles, the report is the same bytes.
        cfg = tmp_path / "audit.json"
        cfg.write_text(json.dumps({
            "data": str(data_csv),
            "mechanism": {"kind": kind, "eps": 0.2, "reps": 1, "ct": 5},
            "trials": 1 << 17,
            "max_records": 20,
            "queries_per_record": 10,
        }))
        tables = []
        build = bench._bucket_table
        reports = []
        for builder in (lambda *a: tables.append(build(*a)) or tables[-1], lambda *a: ALL_STRADDLE):
            monkeypatch.setattr(bench, "_bucket_table", builder)
            out = tmp_path / f"out{len(reports)}"
            run_cli(["audit", "--config", str(cfg), "--out", str(out), "--seed", "3"], capsys)
            reports.append((out / "privacy_audit.json").read_bytes())
        assert len(tables) == 1 and not tables[0].straddles.all()
        assert reports[0] == reports[1]


# Whitespace, case and "?" variants: cells are trimmed text, so " Private "
# and "Private" are one category while "private" is another.
RELEASE_CSV = (
    "work, edu ,sex\n"
    " Private ,HS-grad,Male\n"
    "Private,Bachelors , Female\n"
    "private,HS-grad,Male\n"
    " ?,Masters,Female\n"
    "Private , HS-grad,Female\n"
    "Self-emp,?,Male\n"
    "?,HS-grad ,Male\n"
)


class TestReleaseOutput:
    # The four mixture digests moved once on purpose, when the mixture weights began to be
    # fused in logs: every ``zeta_charged`` in its last digits, and lapmix ``released``
    # values by at most 1.6e-15; the geomix ``released`` values held.  The two lapmix
    # digests moved again when lapmix began to release on the 1/8 grid and to charge the
    # exact zeta of that law: each ``released`` value is the earlier one rounded half away
    # from zero to a multiple of 1/8, and ``zeta_charged`` reads 0.3123962700980893 per
    # release, not the closed form 0.3090627284053273.
    @pytest.mark.parametrize(
        "args, digest",
        [
            (["--query", "work=Private,edu=HS-grad", "--mechanism", "geomix",
              "--eps", "0.2", "--reps", "1", "--ct", "5"],
             "9a28ccac00047338d394dc0cde0b38491b930f94ae420059f643464a87f3a066"),
            (["--query", "work=?", "--mechanism", "lapmix",
              "--eps", "0.2", "--reps", "1", "--ct", "5"],
             "aa48a2f76dc95937dffbcb56afb572d3f578634e157a0be4f18a59c001b58bd0"),
            (["--mechanism", "rlaplace", "--eps", "0.5"],
             "d3bb130d4da7fb38169f21aba5540ca5c98db48e944b1f80a628994a80308d8f"),
            (["--hist", "work", "--mechanism", "geomix",
              "--eps", "0.2", "--reps", "1", "--ct", "5"],
             "5e067f890e229074fe2b49bc7cdc1a1ad586785f82aa9627be9501e38e2834c6"),
            (["--hist", "edu", "--mechanism", "lapmix", "--eps", "0.2", "--reps", "1",
              "--ct", "5", "--charge-mode", "sequential"],
             "0084f130bb3e1a658579158825dbae7ae56939626aae442b192d86ff84dcaca9"),
        ],
    )
    def test_digest(self, capsys, tmp_path, args, digest):
        data = tmp_path / "data.csv"
        data.write_text(RELEASE_CSV)
        out = run_cli(
            ["release", "--data", str(data), "--seed", "11", "--reveal-true", *args], capsys
        )
        assert sha256(out.encode()) == digest


class TestBenchOutputs:
    """Every file of `pwmix bench` on bench_ct5 at 20,000 samples per cell.

    The four report digests moved once on purpose, when the geometric mechanism
    began to draw from one uniform per draw (its lattice law's inverse) instead of
    two; only its six cells changed.  ``utility_report.json`` moved again when the
    mixture weights began to be fused in logs: two lapmix ``mre`` values, in their
    last digit (1.8e-16 relative).  All four moved when lapmix began to release on the
    1/8 grid; only its six cells and its pooled entry changed."""

    DIGESTS = {
        "utility_report.json": "fcd5ac6d869d56fc6eeafc22233e866075dc5c393f46c86c3b4bfce5c9c68e02",
        "error_cdf.csv": "d6e3ecc493d5889cbd47cb584b23b9f6a985c69e83c7c08df9cc5603e238976e",
        "within_bound.csv": "ddcbac67fad7285d3ab33a300bec79b0e77dd0003a4ece82fe08443f09231af6",
        "mre.csv": "20cc090bfba98085dde81967f89604c83a261b667e4e9b75bb3a5caa03541e2c",
        "manifest.json": "a39f26272aa1095057f3a7923f99af4ca7334b4b353ec0f84ce3ab4060610872",
    }

    def test_digests(self, capsys, tmp_path):
        doc = json.loads((REPO / "configs" / "bench_ct5.json").read_text())
        doc["samples_per_cell"] = 20_000
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps(doc, sort_keys=True))
        out = tmp_path / "out"
        run_cli(["bench", "--config", str(cfg), "--out", str(out), "--seed", "42"], capsys)
        got = {p.name: sha256(p.read_bytes()) for p in out.iterdir()}
        assert got == self.DIGESTS


def test_sweep_table1_digest(capsys):
    out = run_cli(["sweep", "--table1"], capsys)
    assert sha256(out.encode()) == "dd5738b85db13eb91888dc2a1cee54611c8616d42eb11de1a45754942e4ef35a"
