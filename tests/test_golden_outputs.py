"""Byte pins: sha256 digests of CLI outputs for fixed seeds.

A refactor that claims identical outputs keeps every digest here.  A change
that moves an output on purpose updates the digest, and says which output
moved and why.
"""

import hashlib
import json
from pathlib import Path

import pytest

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
    @pytest.mark.parametrize(
        "args, digest",
        [
            (["--query", "work=Private,edu=HS-grad", "--mechanism", "geomix",
              "--eps", "0.2", "--reps", "1", "--ct", "5"],
             "b1e570b426f7ea6e165e42487b03620b925e187fe24e4f0b5c25959886db0024"),
            (["--query", "work=?", "--mechanism", "lapmix",
              "--eps", "0.2", "--reps", "1", "--ct", "5"],
             "dc3cd13bb452311f69c54a93940ec2179c858cd20db0a4dd4906e1000a1bc9f6"),
            (["--mechanism", "rlaplace", "--eps", "0.5"],
             "d3bb130d4da7fb38169f21aba5540ca5c98db48e944b1f80a628994a80308d8f"),
            (["--hist", "work", "--mechanism", "geomix",
              "--eps", "0.2", "--reps", "1", "--ct", "5"],
             "dcf10ba7f95691cdf42104c2a3790afa61269db149c8885e2a8eb1bb303906c9"),
            (["--hist", "edu", "--mechanism", "lapmix", "--eps", "0.2", "--reps", "1",
              "--ct", "5", "--charge-mode", "sequential"],
             "2228420fb983282a7ca612af7a80e7eab4a92e57b7e61b797481950431ffc83f"),
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
    """Every file of `pwmix bench` on bench_ct5 at 20,000 samples per cell."""

    DIGESTS = {
        "utility_report.json": "ed3024c8210d44458f62ff3628de0a39e8a24866219fde445a669c4744779707",
        "error_cdf.csv": "41e39afd0b7a8b1216e4cf8659b0726c471d9763851a1512869e012aee5b354e",
        "within_bound.csv": "4f68f370762f7837b03d12aaf186c46bbe0258be354ace7003343e731cce9bc6",
        "mre.csv": "edc596fb031d42268801396d9fe96cf9c3219fc492352effc750d23710b5f104",
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
