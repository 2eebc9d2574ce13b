"""The suite's own pytest configuration, the dependencies it declares, and the hooks
the benchmark takes into pwmix."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

from pwmix import bench, mechanisms

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
SOURCES = ROOT / "src" / "pwmix"

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
'''


def test_a_failing_property_does_not_end_the_session(tmp_path):
    # Warnings are errors, but reporting a failing @given test must not be one:
    # the tests after it still run.
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout


def test_tracer_targets_and_constant_caches_exist(monkeypatch):
    # perfbench's tracer wraps pwmix functions by name and its workloads clear the
    # constants caches: a rename or deletion breaks ``--trace 1`` and analytic-sweep.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import spans

    # bench keeps lapmix_cdf and laplace_cdf bound for the tracer's mechanisms.cdf span
    targets = spans._targets()
    assert {(bench, "lapmix_cdf"), (bench, "laplace_cdf")} <= {t[:2] for t in targets}
    originals = [owner.__dict__[attr] for owner, attr, *_ in targets]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (owner, attr, *_), original in zip(targets, originals):
            assert owner.__dict__[attr].__wrapped__ is original
    finally:
        tracer.uninstall()
    for (owner, attr, *_), original in zip(targets, originals):
        assert owner.__dict__[attr] is original
    for cache in (mechanisms.lapmix_constants, mechanisms.geomix_constants):
        assert callable(cache.cache_clear)
        assert callable(cache.cache_info)


def test_an_analytic_sweep_round_passes_its_check(monkeypatch, tmp_path):
    # One round of the benchmark's analytic-sweep workload (seed 1401, 1,000 points) through
    # its own run and check, the reference law of perfbench/reference.py: every point passes,
    # the one in 100 with r eps c_t beyond 745 included.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    sweep = workloads.AnalyticSweep(ROOT, 1401, tmp_path, 0)
    sweep.setup()
    sweep.before_round(0)
    points = sweep.round()
    assert len(points) == 1000 and sum(op.underflow for op in points) == 10
    for op in points:
        sweep.check(op, sweep.run(op))


def test_family_names_only_in_mechanisms():
    # The kind switch lives in mechanisms.spec_from_dict; elsewhere a family is
    # asked about itself, not named.  "rounded_laplace" was such a name.
    names = {cls.kind for cls in mechanisms.SPECS} | {"rounded_laplace"}
    found = [
        f"{path.name}:{node.lineno}: {node.value!r}"
        for path in sorted(SOURCES.glob("*.py"))
        if path.name != "mechanisms.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and node.value in names
    ]
    assert not found, found


def test_every_family_is_the_law_it_releases():
    # One law per family: every family reads its mass function, CDF, draws and charge from
    # its grid law through MechanismSpec, and states none of its own; trunclap's draw only
    # gates the shared one behind the unsafe flag.
    base = mechanisms.MechanismSpec
    own = {
        (cls.__name__, name)
        for cls in mechanisms.SPECS
        for name in ("log_prob", "prob", "cdf", "draw", "charge")
        if getattr(cls, name) is not getattr(base, name)
    }
    assert own == {("TruncatedLaplace", "draw")}, own
    assert all(issubclass(cls, base) for cls in mechanisms.SPECS)


def _third_party_imports(*dirs: Path) -> set[str]:
    """Top-level names imported anywhere in the .py files under ``dirs``, leaving out the
    standard library, relative imports and the repo's own modules."""
    files = [path for d in dirs for path in d.rglob("*.py")]
    local = {"pwmix"} | {path.stem for d in (ROOT / "tests", ROOT / "perfbench") for path in d.glob("*.py")}
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - local


def test_dependencies_are_what_the_code_imports():
    # The runtime dependencies are exactly what pwmix imports; the test extra covers
    # whatever else the tests and the benchmark import.
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text())["project"]

    def names(requirements):
        return {re.match(r"[A-Za-z0-9_.-]+", req)[0].lower().replace("-", "_") for req in requirements}

    runtime = names(project["dependencies"])
    assert _third_party_imports(SOURCES) == runtime
    test_only = names(project["optional-dependencies"]["test"])
    assert _third_party_imports(ROOT / "tests", ROOT / "perfbench") <= runtime | test_only
