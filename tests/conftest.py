import math
import os
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import settings
from scipy import stats

import pwmix
from pwmix import bench
from pwmix.data import Dataset
from pwmix.mechanisms import Geometric, MixtureParams

# Tier-1 draws the same examples on every run, so it cannot fail at random, and replays no
# stored failure (derandomize implies no example database).  HYPOTHESIS_PROFILE=random
# searches afresh; a failure it finds is mended and pinned with @example.
settings.register_profile("tier1", derandomize=True)
settings.register_profile("random", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))

# Workhorse parameter sets: the two simulation presets plus assorted shapes.
PRESET_A = MixtureParams(epsilon=0.2, ratio=5.0, break_point=5.0)
PRESET_B = MixtureParams(epsilon=0.1, ratio=10.0, break_point=6.0)

PARAM_GRID = [
    MixtureParams(epsilon=eps, ratio=r, break_point=ct)
    for eps in (0.05, 0.1, 0.2, 0.5, 1.0)
    for r in (1.0, 2.0, 5.0)
    for ct in (1.0, 4.0, 10.0)
]

INT_PARAM_GRID = [p for p in PARAM_GRID if p.break_point == int(p.break_point)]

# A geometric mechanism whose every draw is exactly 0, for tests that need the
# release or the simulation to add nothing.  A draw is the inverse of its lattice law
# at one uniform, and its mass from cell 1 on, e^-700 / (1 + e^-700), is below the
# least uniform of a stream, 2^-54, so every uniform maps to cell 0.  On the command
# line: --mechanism geometric --eps 700.
EXACT_ZERO = Geometric(alpha=math.exp(700))
EXACT_ZERO_FLAGS = ["geometric", "--eps", "700"]

# A bucket table in which every bucket straddles: a noise tally that reads it draws every
# value through ``sample``.
ALL_STRADDLE = bench._BucketTable(
    straddles=np.ones(1 << bench._BUCKET_BITS, dtype=bool),
    group=np.zeros(1 << bench._BUCKET_BITS, dtype=np.intp),
    noise=np.zeros(1, dtype=np.int64),
)


def lapmix_definition(params):
    """(A2, t2, eps, r eps, c_t) of the Laplace mixture as mpmath numbers at the working
    precision, from its definition: the density A2 e^(-eps |x|) up to c_t and
    A2 t2 e^(-r eps (|x| - c_t)) beyond, t2 = e^(-eps c_t), of mass 1."""
    eps, reps, ct = (mp.mpf(v) for v in (params.epsilon, params.eps_r, params.break_point))
    t2 = mp.exp(-eps * ct)
    return 1 / (2 * ((1 - t2) / eps + t2 / reps)), t2, eps, reps, ct


@pytest.fixture
def preset_a():
    return PRESET_A


@pytest.fixture
def preset_b():
    return PRESET_B


def make_synthetic_dataset(rows: int = 1000, seed: int = 123) -> Dataset:
    """Deterministic categorical dataset for audit and release tests."""
    rng = np.random.default_rng(seed)
    levels = {
        "color": ["red", "green", "blue", "gray"],
        "shape": ["circle", "square", "tri"],
        "size": ["s", "m", "l"],
        "region": ["n", "e", "s", "w", "c"],
    }
    attrs = tuple(levels)
    records = tuple(
        tuple(levels[a][rng.integers(0, len(levels[a]))] for a in attrs) for _ in range(rows)
    )
    return Dataset(schema=attrs, records=records)


@pytest.fixture(scope="session")
def synthetic_dataset():
    return make_synthetic_dataset()


# Verdict lines recorded by the acceptance tests; echoed after the run so
# they are visible even without -s.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def cli_env(**extra: str) -> dict[str, str]:
    """Environment for a `python -m pwmix.cli` subprocess.

    Prepends the absolute source root of the imported `pwmix` to PYTHONPATH
    (existing entries kept after it), so the child runs the same package as
    the test process whatever its cwd: a relative entry such as
    `PYTHONPATH=src` resolves against the child's cwd, not the caller's.
    """
    src_root = str(Path(pwmix.__file__).resolve().parent.parent)
    inherited = [e for e in os.environ.get("PYTHONPATH", "").split(os.pathsep) if e]
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src_root, *inherited]), **extra)


def chi_square_pvalue(draws, pmf, cdf, lo, hi):
    """Chi-square GoF of integer draws against an exact mass function.

    Cells outside [lo, hi] are pooled into two tail cells; cells with
    expectation below 5 are folded together.
    """
    n = draws.size
    obs = [np.sum(draws < lo)]
    expected = [cdf(lo - 1) * n]
    for k in range(lo, hi + 1):
        obs.append(np.sum(draws == k))
        expected.append(pmf(k) * n)
    obs.append(np.sum(draws > hi))
    expected.append((1 - cdf(hi)) * n)
    obs, expected = np.asarray(obs, dtype=float), np.asarray(expected, dtype=float)
    keep = expected >= 5
    obs = np.append(obs[keep], obs[~keep].sum())
    expected = np.append(expected[keep], expected[~keep].sum())
    if expected[-1] < 1e-9:
        obs, expected = obs[:-1], expected[:-1]
    expected *= obs.sum() / expected.sum()
    return stats.chisquare(obs, expected).pvalue


class GivenUniforms:
    """Stands in for a stream whose uniforms are already drawn."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def uniforms(self, n):
        return self.u[:n]


def truncated_laplace_cdf(x, b, c):
    """CDF of the Laplace law of scale b conditioned on [-c, c]: the lower tail
    (e^(-m/b) - e^(-c/b)) / (2 (1 - e^(-c/b))) at m = |x| up to c, mirrored above 0; taken
    through expm1, so a narrow window keeps its mass."""
    xs = np.asarray(x, dtype=float)
    m = np.minimum(np.abs(xs), c)
    with np.errstate(over="ignore"):  # a decay beyond the double range reads exp(-inf) = 0
        tail = 0.5 * np.exp(-m / b) * np.expm1((m - c) / b) / math.expm1(-c / b)
    return np.where(xs <= 0.0, tail, 1.0 - tail)


def grid_chi_square_pvalue(draws, cdf, cell):
    """Chi-square GoF of draws on the grid cell * Z against the masses that a continuous
    law puts on each cell: cell k holds cdf((k + 1/2) cell) - cdf((k - 1/2) cell), read
    from the CDF and so independent of any lattice law.  The cells outside the observed
    range are pooled into the two end cells; cells with expectation below 5 are folded
    together, as in ``chi_square_pvalue``.
    """
    ks = np.asarray(draws) / cell
    assert np.array_equal(ks, np.round(ks))  # every draw is on the grid
    ks = ks.astype(np.int64)
    lo, hi = int(ks.min()), int(ks.max())
    edges = np.asarray(cdf((np.arange(lo, hi + 2) - 0.5) * cell), dtype=float)
    expected = np.diff(edges)
    expected[0] += edges[0]
    expected[-1] += 1.0 - edges[-1]
    obs = np.bincount(ks - lo, minlength=hi - lo + 1).astype(float)
    keep = expected * ks.size >= 5
    obs = np.append(obs[keep], obs[~keep].sum())
    expected = np.append(expected[keep], expected[~keep].sum()) * ks.size
    if expected[-1] < 1e-9:
        obs, expected = obs[:-1], expected[:-1]
    expected *= obs.sum() / expected.sum()
    return stats.chisquare(obs, expected).pvalue
