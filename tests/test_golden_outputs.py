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

from conftest import make_synthetic_dataset

REPO = Path(__file__).resolve().parent.parent


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(args, capsys) -> str:
    code = main(args)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


class TestAuditReport:
    """privacy_audit.json on criterion 8's synthetic table (1000 rows, seed 123)."""

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
            ("lapmix", 1, 20_000, "fba3f4b5250029da6a8532065f4a6408ad531a4a9bc67653a17311dba9d13e08"),
            ("lapmix", 7, 20_000, "6761337553338d15d6af00a7459b456c2c5b0691daff2989fce2581e7245255c"),
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
        # The arms count per lattice bucket; forced to draw one by one instead,
        # by a table builder that returns None, the report is the same bytes.
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
        for builder in (lambda *a: tables.append(build(*a)) or tables[-1], lambda *a: None):
            monkeypatch.setattr(bench, "_bucket_table", builder)
            out = tmp_path / f"out{len(reports)}"
            run_cli(["audit", "--config", str(cfg), "--out", str(out), "--seed", "3"], capsys)
            reports.append((out / "privacy_audit.json").read_bytes())
        assert len(tables) == 1 and tables[0] is not None
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
    # values by at most 1.6e-15; the geomix ``released`` values held.
    @pytest.mark.parametrize(
        "args, digest",
        [
            (["--query", "work=Private,edu=HS-grad", "--mechanism", "geomix",
              "--eps", "0.2", "--reps", "1", "--ct", "5"],
             "9a28ccac00047338d394dc0cde0b38491b930f94ae420059f643464a87f3a066"),
            (["--query", "work=?", "--mechanism", "lapmix",
              "--eps", "0.2", "--reps", "1", "--ct", "5"],
             "fb0a10bfd74058eb7d0569e3b0bcceda8800fc868f1ad368aa1a101f75e582cd"),
            (["--mechanism", "rlaplace", "--eps", "0.5"],
             "d3bb130d4da7fb38169f21aba5540ca5c98db48e944b1f80a628994a80308d8f"),
            (["--hist", "work", "--mechanism", "geomix",
              "--eps", "0.2", "--reps", "1", "--ct", "5"],
             "5e067f890e229074fe2b49bc7cdc1a1ad586785f82aa9627be9501e38e2834c6"),
            (["--hist", "edu", "--mechanism", "lapmix", "--eps", "0.2", "--reps", "1",
              "--ct", "5", "--charge-mode", "sequential"],
             "f26afa45c78f1cb063a7e1b90081acd794c6ceb726d611cd204e559320249609"),
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
    last digit (1.8e-16 relative)."""

    DIGESTS = {
        "utility_report.json": "a7ea7327a4d8f06debf6c667726e8f0a8513736e1d426f1d4533046c0e05bbbb",
        "error_cdf.csv": "ba1de13808f7915e6b13f4c78d3097f1fd5cf721a9018f7e7d2af7d386c29d0b",
        "within_bound.csv": "08880ed2c1025c668a7dcd6ae48936c03ad2ab6690e45e6a4f0e83786231b469",
        "mre.csv": "958be6a22d285ae236dfb728cc9b58cc0ec99a3ac937003bcdf75b60a370529c",
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
