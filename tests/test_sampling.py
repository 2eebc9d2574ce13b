import hashlib
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pwmix import mechanisms
from pwmix.analytics import lapmix_stats
from pwmix.errors import InvalidParameterError, UnsafeMechanismError
from pwmix.mechanisms import (
    GRID,
    SPECS,
    Geometric,
    GeometricMixture,
    Laplace,
    LaplaceMixture,
    MixtureParams,
    RoundedLaplace,
    TruncatedLaplace,
    geomix_constants,
    lapmix_cdf,
    lapmix_constants,
)
from pwmix.sampling import SeededStream, lattice_uniforms, sample

from conftest import (
    EXACT_ZERO,
    PRESET_A,
    PRESET_B,
    GivenUniforms,
    chi_square_pvalue,
    grid_chi_square_pvalue,
    lapmix_definition,
    truncated_laplace_cdf,
)

N = 10**5


# First 16 hex digits of sha256(draws.tobytes()) for the draws of
# ``sample(spec, SeededStream(seed, i), size)``, where ``i`` is the index of
# ``size`` in GOLDEN_SIZES; a scalar call is hashed as one int64 / float64.
# Pinned from the four-branch np.select sampler, so any change to the mixture
# inverse transform that moves a single draw fails here.  The lapmix digests moved
# on purpose twice: when the mixture weights began to be fused in logs (41 of them,
# each draw by at most 4.3e-16 (1 + |x| + b), b the larger piece scale), and when
# lapmix began to release on the 1/8 grid, where every one of these draws is the
# earlier float draw rounded half away from zero to a multiple of 1/8.
GOLDEN_PARAMS = {
    "preset_a": PRESET_A,  # also bench_ct5's geomix and lapmix presets
    "bench_ct6": PRESET_B,
    "ct1": MixtureParams(epsilon=0.5, ratio=3.0, break_point=1.0),
    "ct10": MixtureParams(epsilon=0.05, ratio=4.0, break_point=10.0),
}
GOLDEN_SIZES = (None, 1, 7, 2**14 - 1, 2**14 + 1, 10**5)
GOLDEN_DIGESTS = {
    ("geomix", "preset_a", 11, None): "7c9fa136d4413fa6",
    ("geomix", "preset_a", 11, 1): "74d323611439a39d",
    ("geomix", "preset_a", 11, 7): "ab961bf61b661ed9",
    ("geomix", "preset_a", 11, 16383): "3a184eb798be452e",
    ("geomix", "preset_a", 11, 16385): "60ef4961574dad6e",
    ("geomix", "preset_a", 11, 100000): "98fcc686ac11298d",
    ("geomix", "preset_a", 2024, None): "f13ee6ed54ea2aae",
    ("geomix", "preset_a", 2024, 1): "d86e8112f3c4c444",
    ("geomix", "preset_a", 2024, 7): "80dd7b62a4e4b8ed",
    ("geomix", "preset_a", 2024, 16383): "a063741ed0d9b8ec",
    ("geomix", "preset_a", 2024, 16385): "f61152282e2c614c",
    ("geomix", "preset_a", 2024, 100000): "445436dd25c627d2",
    ("geomix", "bench_ct6", 11, None): "7c9fa136d4413fa6",
    ("geomix", "bench_ct6", 11, 1): "08a728219774e3c9",
    ("geomix", "bench_ct6", 11, 7): "2ca3f0155f632933",
    ("geomix", "bench_ct6", 11, 16383): "3722635a1fb89989",
    ("geomix", "bench_ct6", 11, 16385): "d81701348276a743",
    ("geomix", "bench_ct6", 11, 100000): "01edbaf5e4913b37",
    ("geomix", "bench_ct6", 2024, None): "23d7f42b1cdc1f0d",
    ("geomix", "bench_ct6", 2024, 1): "35be322d094f9d15",
    ("geomix", "bench_ct6", 2024, 7): "9d45a14e55b5f481",
    ("geomix", "bench_ct6", 2024, 16383): "0c35a0fc0cf00bf2",
    ("geomix", "bench_ct6", 2024, 16385): "459156a16e6937d4",
    ("geomix", "bench_ct6", 2024, 100000): "0b448f7fb509873d",
    ("geomix", "ct1", 11, None): "af5570f5a1810b7a",
    ("geomix", "ct1", 11, 1): "12a3ae445661ce5d",
    ("geomix", "ct1", 11, 7): "b59740e21194a1c5",
    ("geomix", "ct1", 11, 16383): "0db4a4569d51c2c7",
    ("geomix", "ct1", 11, 16385): "231103c1dc33c2a6",
    ("geomix", "ct1", 11, 100000): "cf8ea9ff32fc2985",
    ("geomix", "ct1", 2024, None): "d86e8112f3c4c444",
    ("geomix", "ct1", 2024, 1): "7c9fa136d4413fa6",
    ("geomix", "ct1", 2024, 7): "c6113c20c1fda949",
    ("geomix", "ct1", 2024, 16383): "ab956b787b792313",
    ("geomix", "ct1", 2024, 16385): "25b7a0d8b0e8d7a0",
    ("geomix", "ct1", 2024, 100000): "2bef7d7565aa4d4a",
    ("geomix", "ct10", 11, None): "35be322d094f9d15",
    ("geomix", "ct10", 11, 1): "7820681adb7f1912",
    ("geomix", "ct10", 11, 7): "0a8a881bcd36d96b",
    ("geomix", "ct10", 11, 16383): "91ffa37b9d8ae6e8",
    ("geomix", "ct10", 11, 16385): "3cd9d20d1eec78d7",
    ("geomix", "ct10", 11, 100000): "4388ec3c78e8d37f",
    ("geomix", "ct10", 2024, None): "18d8d609947c6b82",
    ("geomix", "ct10", 2024, 1): "23d7f42b1cdc1f0d",
    ("geomix", "ct10", 2024, 7): "886829510e85f5be",
    ("geomix", "ct10", 2024, 16383): "e148dd4a4572f87f",
    ("geomix", "ct10", 2024, 16385): "4dfee63f1399a373",
    ("geomix", "ct10", 2024, 100000): "e4d5eabd55aea402",
    ("lapmix", "preset_a", 11, None): "bac5c83aed0fef56",
    ("lapmix", "preset_a", 11, 1): "ee386ccf9da47a6f",
    ("lapmix", "preset_a", 11, 7): "afe8a7ddf6554150",
    ("lapmix", "preset_a", 11, 16383): "eac4da051723562c",
    ("lapmix", "preset_a", 11, 16385): "a1bcdf423166b3ab",
    ("lapmix", "preset_a", 11, 100000): "fe35c0a72fa3fdb3",
    ("lapmix", "preset_a", 2024, None): "a712affd7b05d140",
    ("lapmix", "preset_a", 2024, 1): "b7ee3c2ee7c05d76",
    ("lapmix", "preset_a", 2024, 7): "3a5f285cf097f86b",
    ("lapmix", "preset_a", 2024, 16383): "9dda9dec89e062ad",
    ("lapmix", "preset_a", 2024, 16385): "7c389af05a908350",
    ("lapmix", "preset_a", 2024, 100000): "cea0c5a905d4e0dc",
    ("lapmix", "bench_ct6", 11, None): "dbd4c1a79b2e5210",
    ("lapmix", "bench_ct6", 11, 1): "f9b78adbce8b8ae1",
    ("lapmix", "bench_ct6", 11, 7): "d36e6a86d0118602",
    ("lapmix", "bench_ct6", 11, 16383): "26e7c163e5886d83",
    ("lapmix", "bench_ct6", 11, 16385): "b3726ada08f56223",
    ("lapmix", "bench_ct6", 11, 100000): "63990f4368352867",
    ("lapmix", "bench_ct6", 2024, None): "3014a89e910127bf",
    ("lapmix", "bench_ct6", 2024, 1): "2fede43de580e02d",
    ("lapmix", "bench_ct6", 2024, 7): "256b50dc546e8a4d",
    ("lapmix", "bench_ct6", 2024, 16383): "4d1416aee57abfa4",
    ("lapmix", "bench_ct6", 2024, 16385): "fd0e202a0c65c84a",
    ("lapmix", "bench_ct6", 2024, 100000): "a700b875ec22b3ff",
    ("lapmix", "ct1", 11, None): "272f78036db6721f",
    ("lapmix", "ct1", 11, 1): "e4ad63791eac4146",
    ("lapmix", "ct1", 11, 7): "dfb0c4571dfe7cf4",
    ("lapmix", "ct1", 11, 16383): "695abd233040cb58",
    ("lapmix", "ct1", 11, 16385): "bac47cd0e67e308a",
    ("lapmix", "ct1", 11, 100000): "61b78ba3faf42786",
    ("lapmix", "ct1", 2024, None): "12245c33a3be9ef7",
    ("lapmix", "ct1", 2024, 1): "1484002011489c8f",
    ("lapmix", "ct1", 2024, 7): "64ef100a4b7a47b6",
    ("lapmix", "ct1", 2024, 16383): "72ff3a1ad30a7adc",
    ("lapmix", "ct1", 2024, 16385): "5e73d028d9574ce3",
    ("lapmix", "ct1", 2024, 100000): "b0dd2b85de647308",
    ("lapmix", "ct10", 11, None): "0a8ade4503c3bb56",
    ("lapmix", "ct10", 11, 1): "39c616169cba821b",
    ("lapmix", "ct10", 11, 7): "e91b20d36ff3069f",
    ("lapmix", "ct10", 11, 16383): "42137aa9da503251",
    ("lapmix", "ct10", 11, 16385): "b1744c8796a31ca3",
    ("lapmix", "ct10", 11, 100000): "555d90e806bbb9fd",
    ("lapmix", "ct10", 2024, None): "f8d181a442a2045d",
    ("lapmix", "ct10", 2024, 1): "ac4080063316084a",
    ("lapmix", "ct10", 2024, 7): "23b9758522f3cc8b",
    ("lapmix", "ct10", 2024, 16383): "98f83b027a7e0386",
    ("lapmix", "ct10", 2024, 16385): "3ca528dea9268ef6",
    ("lapmix", "ct10", 2024, 100000): "b362de621f848bf5",
}


class TestGoldenDraws:
    @pytest.mark.parametrize("key", sorted(GOLDEN_DIGESTS, key=repr), ids=repr)
    def test_digest(self, key):
        family, name, seed, size = key
        spec_cls = GeometricMixture if family == "geomix" else LaplaceMixture
        stream = SeededStream(seed, GOLDEN_SIZES.index(size))
        y = sample(spec_cls(GOLDEN_PARAMS[name]), stream, size=size)
        if size is None:
            assert type(y) is (int if family == "geomix" else float)
            y = np.array([y], dtype=np.int64 if family == "geomix" else np.float64)
        else:
            assert y.dtype == (np.int64 if family == "geomix" else np.float64)
            assert y.shape == (size,)
        assert hashlib.sha256(y.tobytes()).hexdigest()[:16] == GOLDEN_DIGESTS[key]


class _Lattice:
    """Stands in for a generator: its raw words carry the given lattice values
    in their top 53 bits."""

    def __init__(self, values):
        self.values = values
        self.bit_generator = self

    def random_raw(self, size):
        assert size == len(self.values)
        return np.array(self.values, dtype=np.uint64) << 11


class TestSeededStream:
    def test_determinism(self):
        a = SeededStream(5, 3).uniforms(64)
        b = SeededStream(5, 3).uniforms(64)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = SeededStream(5, 3).uniforms(64)
        b = SeededStream(5, 4).uniforms(64)
        c = SeededStream(6, 3).uniforms(64)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.35

    def test_open_interval(self):
        u = SeededStream(0).uniforms(10**5)
        assert u.min() > 0.0
        assert u.max() < 1.0

    def test_top_lattice_value_stays_below_one(self):
        # the top midpoint (2^53 - 1 + 0.5) * 2^-53 rounds to 1.0 in float64
        stream = SeededStream(0)
        stream._gen = _Lattice([0, 2**53 - 2, 2**53 - 1])
        u = stream.uniforms(3)
        assert u.tolist() == [2.0**-54, 1.0 - 2.0**-52, 1.0 - 2.0**-53]
        for spec in (GeometricMixture(PRESET_A), LaplaceMixture(PRESET_A)):
            stream._gen = _Lattice([2**53 - 1, 0])
            y = sample(spec, stream, 2)
            assert np.all(np.isfinite(y.astype(float)))
            assert np.all(np.abs(y) < 10**4) and y[0] > 0 > y[1]

    @pytest.mark.parametrize("size", [0, 1, (1 << 16) + 3])
    def test_lattice_is_the_bounded_integers(self, size):
        # raw words shifted right by 11 are generator.integers(0, 2^53), in one call or in pieces
        for seed, stream_id in ((0, 0), (7, 3), (2**40 + 1, 2**63 + 5)):
            want = SeededStream(seed, stream_id).generator.integers(
                0, 2**53, size=size, dtype=np.int64
            )
            got = SeededStream(seed, stream_id).lattice(size)
            assert got.dtype == np.int64 and np.array_equal(got, want)
            stream = SeededStream(seed, stream_id)
            pieces = [stream.lattice(n) for n in (size // 3, 0, size - size // 3)]
            assert np.array_equal(np.concatenate(pieces), want)

    @pytest.mark.parametrize("pieces", [(10_000,), (1, 4_096, 5_903), (7_000, 3_000)])
    def test_uniforms_are_lattice_midpoints(self, pieces):
        # uniforms(n) is (lattice(n) + 1/2) 2^-53 capped below 1, read in one call or in pieces
        lattice = SeededStream(11, 2).lattice(10_000)
        assert lattice.dtype == np.int64
        assert 0 <= lattice.min() and lattice.max() < 2**53
        want = np.minimum((lattice.astype(float) + 0.5) * 2.0**-53, np.nextafter(1.0, 0.0))
        stream = SeededStream(11, 2)
        got = np.concatenate([stream.uniforms(n) for n in pieces])
        assert np.array_equal(got, want)
        assert np.array_equal(lattice_uniforms(lattice), want)
        read = SeededStream(11, 2)
        assert np.array_equal(np.concatenate([read.lattice(n) for n in pieces]), lattice)

    def test_derive_stable(self):
        s = SeededStream(9, 1)
        assert s.derive(2, 3).stream_id == s.derive(2, 3).stream_id
        assert s.derive(2, 3).stream_id != s.derive(3, 2).stream_id

    def test_sequence_continues(self):
        s = SeededStream(7)
        first = s.uniforms(4)
        second = s.uniforms(4)
        assert not np.array_equal(first, second)
        both = SeededStream(7).uniforms(8)
        assert np.array_equal(np.concatenate([first, second]), both)


# One spec per family, in the order of mechanisms.SPECS.
FAMILY_SPECS = (
    Laplace(scale=2.0),
    RoundedLaplace(scale=3.0),
    Geometric(alpha=math.exp(0.3)),
    LaplaceMixture(PRESET_A),
    GeometricMixture(PRESET_A),
    TruncatedLaplace(scale=2.0, bound=3.0, allow_unsafe=True),
)


class TestDrawsInPieces:
    """Every family takes one uniform per draw, so it gives the same draws from a
    stream read in pieces as from one call; the audit counts its arms a chunk
    at a time."""

    @settings(max_examples=100, deadline=None)
    @given(
        family=st.sampled_from(range(len(FAMILY_SPECS))),
        seed=st.integers(0, 2**32 - 1),
        pieces=st.lists(st.sampled_from([0, 1, 2, 3, 7, 100, 2**14 - 1, 2**14 + 5]), max_size=5),
    )
    def test_pieces_concatenate_to_one_call(self, family, seed, pieces):
        spec = FAMILY_SPECS[family]
        whole = sample(spec, SeededStream(seed, 3), sum(pieces))
        stream = SeededStream(seed, 3)
        parts = [sample(spec, stream, size) for size in pieces]
        joined = np.concatenate([whole[:0], *parts])
        assert joined.dtype == whole.dtype
        assert joined.tobytes() == whole.tobytes()

    def test_every_family(self):
        assert [type(spec) for spec in FAMILY_SPECS] == list(SPECS)


def _released_noise(spec, u):
    """The noise that ``spec`` releases at each uniform u."""
    return spec.draw(GivenUniforms(u), np.size(u))


def truncated_float_draw(spec, u):
    """The sampler trunclap had before it drew its grid law: the inverse CDF of the Laplace
    law on [-bound, bound] at each uniform u, divided by the cell and rounded half away from
    zero.  u maps to the Laplace CDF value F(-bound) + u (F(bound) - F(-bound)), taken through
    the tail mass on its side so that both sides keep their precision."""
    below = 0.5 * math.exp(-spec.bound / spec.scale)  # F(-bound)
    right = u >= 0.5
    tail = below + np.where(right, 1.0 - u, u) * (1.0 - 2.0 * below)
    y = spec.scale * np.log(2.0 * tail)
    cells = np.clip(np.where(right, -y, y), -spec.bound, spec.bound) / spec.cell
    return np.copysign(np.floor(np.abs(cells) + 0.5), cells).astype(np.int64) * spec.cell


def _rounded_to_grid(x):
    """x rounded half away from zero to a multiple of GRID (0 with no sign)."""
    return np.sign(x) * np.floor(np.abs(x) / GRID + 0.5) * GRID + 0.0


def _near_a_half_cell(x, tolerance):
    """Where |x| lies within ``tolerance`` of a half cell k GRID + GRID / 2."""
    cells = np.abs(x) / GRID
    return np.abs(cells - np.floor(cells) - 0.5) * GRID <= tolerance


class TestAlgorithmBranches:
    def test_lapmix_median_is_zero(self):
        assert _released_noise(LaplaceMixture(PRESET_A), [0.5]).tolist() == [0.0]

    def test_lapmix_median_collapse(self):
        params = MixtureParams(epsilon=0.5, ratio=1.0, break_point=3.0)
        assert _released_noise(LaplaceMixture(params), [0.5]).tolist() == [0.0]

    def test_lapmix_branch_values_match_cdf_inversion(self):
        # u inside each of the continuous law's four branches: the released value's cell,
        # half a cell either side of it, holds u between the CDF at its edges
        for u in (0.01, 0.2, 0.5, 0.8, 0.99):
            y = float(_released_noise(LaplaceMixture(PRESET_A), [u])[0])
            assert y / GRID == round(y / GRID)
            below, above = lapmix_cdf(np.array([y - GRID / 2, y + GRID / 2]), PRESET_A)
            assert below - 1e-12 <= u <= above + 1e-12

    def test_geomix_inverse_matches_cdf_steps(self):
        # the inverse transform must reproduce P(Y <= k) exactly at the steps
        spec = GeometricMixture(PRESET_A)
        for k in range(-12, 13):
            below = float(spec.cdf(k - 1))
            above = float(spec.cdf(k))
            for u in (below + 1e-9, 0.5 * (below + above), above - 1e-9):
                assert int(spec.grid_law().inverse(np.array([u]))[0]) == k

    def test_geomix_median(self):
        assert int(GeometricMixture(PRESET_A).grid_law().inverse(np.array([0.5]))[0]) == 0


# Reference oracles: the four-branch inverse transforms that evaluate every
# branch's formula for every draw and pick one with np.select.  The Laplace
# mixture releases its oracle's value rounded half away from zero to its grid,
# including at the branch thresholds, wherever that value is not within float
# error of a half cell.  The geometric mixture draws through its lattice law's
# exact inverse, which reproduces the oracle on the stream's uniforms; at the
# oracle's float thresholds, which can part from the law's runs by an ulp, it is
# the inverse by definition.


def _oracle_lapmix_thresholds(params):
    t_outer = 0.5 * lapmix_constants(params).w1
    return t_outer, 1.0 - t_outer, 0.5


def _oracle_lapmix(u, params):
    c = lapmix_constants(params)
    b1, b2, ct = params.outer_scale, params.inner_scale, params.break_point
    t_outer, t_upper, _ = _oracle_lapmix_thresholds(params)
    with np.errstate(invalid="ignore", divide="ignore"):
        # the outer piece read from c_t
        left_outer = b1 * np.log(2.0 * u / c.w1) - ct
        right_outer = -(b1 * np.log(2.0 * (1.0 - u) / c.w1) - ct)
        left_inner = b2 * np.log(2.0 * (u - c.k_c) / c.a2)
        right_inner = -b2 * np.log(2.0 * (1.0 - u - c.k_c) / c.a2)
    # an inner tail rounded away at the threshold: the draw is the piece's edge
    left_inner = np.where(u - c.k_c <= 0.0, -ct, left_inner)
    right_inner = np.where(1.0 - u - c.k_c <= 0.0, ct, right_inner)
    return np.select(
        [u < t_outer, u > t_upper, u <= 0.5],
        [left_outer, right_outer, left_inner],
        default=right_inner,
    )


def _oracle_geomix_thresholds(params):
    c = geomix_constants(params)
    ct = params.integer_break_point()
    q1 = math.exp(-params.eps_r)
    q2 = math.exp(-params.epsilon)
    t_left = c.w1 / (1.0 + q1)
    t_right = 1.0 - c.w1 * q1 / (1.0 + q1)
    t_mid = c.a2 / (1.0 + q2) + c.k_c
    return t_left, t_right, t_mid


def _oracle_geomix(u, params):
    c = geomix_constants(params)
    q1 = math.exp(-params.eps_r)
    q2 = math.exp(-params.epsilon)
    lam1 = params.eps_r
    lam2 = params.epsilon
    t_left, t_right, t_mid = _oracle_geomix_thresholds(params)
    ct = params.integer_break_point()
    with np.errstate(invalid="ignore", divide="ignore"):
        # the outer piece read from c_t
        left_outer = np.ceil(np.log((1.0 + q1) * u / c.w1) / lam1) - ct
        right_outer = np.ceil(-np.log((1.0 - u) * (1.0 + q1) / c.w1) / lam1 - 1.0) + ct
        left_inner = np.ceil(np.log((1.0 + q2) * (u - c.k_c) / c.a2) / lam2)
        right_inner = np.ceil(-np.log((1.0 - u - c.k_c) * (1.0 + q2) / c.a2) / lam2 - 1.0)
    # an inner tail rounded away at the threshold: the draw is the piece's edge
    left_inner = np.where(u - c.k_c <= 0.0, -ct, left_inner)
    right_inner = np.where(1.0 - u - c.k_c <= 0.0, ct, right_inner)
    out = np.select(
        [u < t_left, u > t_right, u <= t_mid],
        [left_outer, right_outer, left_inner],
        default=right_inner,
    )
    return out.astype(np.int64)


def _exact_lapmix_inverse(u, params):
    """The noise at u of the Laplace mixture's CDF from its definition
    (``lapmix_definition``), in 50-digit arithmetic.  Below 1/2 it inverts the lower tail
    T(m) = P(noise <= -m); above, it mirrors 1 - u, which is exact there."""
    with mp.workdps(50):
        big_a2, t2, eps, reps, ct = lapmix_definition(params)
        v = mp.mpf(min(u, 1.0 - u))
        outer = big_a2 * t2 / reps  # T(c_t)
        if v <= outer:
            m = ct + mp.log(outer / v) / reps
        else:
            m = -mp.log((v - outer) * eps / big_a2 + t2) / eps
        return float(m if u > 0.5 else -m)


def _oracle_uniforms(seed, n_random, thresholds):
    """``n_random`` random uniforms, then every threshold in (0, 1) and its two
    float neighbours."""
    special = []
    for t in thresholds:
        special += [np.nextafter(t, 0.0), t, np.nextafter(t, 1.0)]
    special = np.array([v for v in special if 0.0 < v < 1.0])
    return np.concatenate([SeededStream(seed).uniforms(n_random), special])


oracle_cases = settings(max_examples=150, deadline=None)
eps_values = st.floats(1e-3, 10.0)
ratio_values = st.floats(0.05, 50.0)
# with 2**14 +- a few random uniforms, the thresholds land in a second chunk
n_random_values = st.sampled_from([0, 1, 1000, 2**14 - 2, 2**14 + 3])


class TestInverseOracle:
    @oracle_cases
    @given(
        eps=eps_values,
        ratio=ratio_values,
        ct=st.integers(1, 60),
        seed=st.integers(0, 2**32 - 1),
        n_random=n_random_values,
    )
    # t_right = 0.9999999999999998 and 1 - t_right - k_c rounds below zero
    @example(eps=3.7890625, ratio=0.5, ct=9, seed=0, n_random=0)
    def test_geomix_bit_identical(self, eps, ratio, ct, seed, n_random):
        params = MixtureParams(epsilon=eps, ratio=ratio, break_point=float(ct))
        thresholds = _oracle_geomix_thresholds(params)
        law = GeometricMixture(params).grid_law()
        u = SeededStream(seed).uniforms(n_random)
        got = law.inverse(u)
        assert got.dtype == np.int64
        assert got.tobytes() == _oracle_geomix(u, params).tobytes()
        special = _oracle_uniforms(seed, 0, thresholds)
        assert law.inverse(special).tolist() == _inverse_by_definition(law, special).tolist()

    @oracle_cases
    @given(
        eps=eps_values,
        ratio=ratio_values,
        ct=st.floats(0.01, 60.0),
        seed=st.integers(0, 2**32 - 1),
        n_random=n_random_values,
    )
    def test_lapmix_bit_identical(self, eps, ratio, ct, seed, n_random):
        # the released noise is the float oracle's value rounded to the grid, bit for bit,
        # except where that value lies within the oracle's float error of a half cell
        params = MixtureParams(epsilon=eps, ratio=ratio, break_point=ct)
        thresholds = _oracle_lapmix_thresholds(params)
        u = _oracle_uniforms(seed, n_random, thresholds)
        got = _released_noise(LaplaceMixture(params), u)
        assert got.dtype == np.float64
        x = _oracle_lapmix(u, params)
        b = max(params.inner_scale, params.outer_scale)
        clear = ~_near_a_half_cell(x, 1e-12 * (1.0 + np.abs(x) + b))
        assert got[clear].tobytes() == _rounded_to_grid(x[clear]).tobytes()

    @pytest.mark.parametrize(
        "params",
        [
            PRESET_A,
            PRESET_B,
            GOLDEN_PARAMS["ct1"],
            GOLDEN_PARAMS["ct10"],
            MixtureParams(epsilon=2.305, ratio=19.74, break_point=16.0),  # r eps c_t = 728
            MixtureParams(epsilon=2.0, ratio=10.0, break_point=40.0),  # r eps c_t = 800
            MixtureParams(epsilon=3.0, ratio=0.3, break_point=2.5),  # r < 1
            MixtureParams(epsilon=43.88, ratio=13.18 / 43.88, break_point=18.0),  # eps c_t = 790
        ],
    )
    def test_lapmix_against_the_exact_inverse(self, params):
        # the released noise against the inverse of the exact CDF in 50-digit arithmetic,
        # rounded half away from zero to the grid, at the stream's uniforms, its extremes
        # and every threshold; and the float oracle against the exact inverse
        u = np.concatenate([
            _oracle_uniforms(7, 2000, _oracle_lapmix_thresholds(params)),
            [2.0**-54, 1e-300, 1e-20, 0.25, np.nextafter(0.5, 1.0), 1.0 - 2.0**-53],
        ])
        b = max(params.inner_scale, params.outer_scale)
        want = np.array([_exact_lapmix_inverse(v, params) for v in u])
        tolerance = 1e-14 * (1.0 + np.abs(want) + b)
        np.testing.assert_array_less(np.abs(_oracle_lapmix(u, params) - want), tolerance)
        clear = ~_near_a_half_cell(want, tolerance)
        got = _released_noise(LaplaceMixture(params), u)
        assert got[clear].tolist() == _rounded_to_grid(want[clear]).tolist()

    def test_draw_at_a_rounded_away_inner_tail(self):
        # the stream gives u = t_right here (lattice value 2^53 - 2), where the oracle's
        # inner tail rounds away and it draws c_t.  The law's P(K >= c_t + 1) is 2.6e-16,
        # above 1 - u = 2^-52, so its inverse draws c_t + 1 there, as at the neighbour above.
        spec = GeometricMixture(MixtureParams(epsilon=3.7890625, ratio=0.5, break_point=9.0))
        t_right = _oracle_geomix_thresholds(spec.params)[1]
        assert t_right == (2**53 - 2 + 0.5) * 2.0**-53 == 1.0 - 2.0**-52
        u = np.array([np.nextafter(t_right, 0.0), t_right, np.nextafter(t_right, 1.0)])
        assert _oracle_geomix(u, spec.params).tolist() == [9, 9, 10]
        law = spec.grid_law()
        assert law.cdf(-10) > 2.0**-52
        assert law.inverse(u).tolist() == _inverse_by_definition(law, u).tolist() == [9, 10, 10]

    def test_thresholds_are_exercised(self):
        # at PRESET_A every threshold and both neighbours are inside (0, 1)
        for thresholds in (
            _oracle_geomix_thresholds(PRESET_A),
            _oracle_lapmix_thresholds(PRESET_A),
        ):
            assert _oracle_uniforms(0, 0, thresholds).size == 9


def _inverse_by_definition(law, u):
    """``_Lattice.inverse`` by its definition, read from the law's ``cdf``: K = -M(u) for
    u <= 1/2 and M(1 - u) above, M(v) = max{m >= 0 : m = 0 or T(m) >= v} with T(m) =
    cdf(-m).  T is checked to fall with m, so M(v) counts the cells m >= 1 with T(m) >= v;
    they are read until T falls below the least v."""
    u = np.asarray(u, dtype=float)
    v = np.minimum(u, 1.0 - u)
    n = 64
    while law.cdf(-n) >= v.min():
        n *= 2
    tails = law.cdf(-np.arange(1.0, n + 1.0))
    assert np.all(np.diff(tails) <= 0.0)
    m = np.searchsorted(-tails, -v, side="right")
    return np.where(u > 0.5, m, -m)


def _lattice_law(family, eps, ratio, ct):
    if family == "geomix":
        return GeometricMixture(MixtureParams(eps, ratio, float(round(ct)))).grid_law()
    if family == "rounded lapmix":
        return LaplaceMixture(MixtureParams(eps, ratio, ct)).rounded_lattice()
    return RoundedLaplace(1.0 / eps).grid_law() if family == "rlaplace" else Geometric(math.exp(eps)).grid_law()


class TestLatticeInverse:
    """Every integer family draws through ``_Lattice.inverse``: at each tail value of its
    law, at both float neighbours and at stream uniforms it is the inverse by definition,
    and it is non-decreasing in u."""

    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(["geomix", "rlaplace", "geometric", "rounded lapmix"]),
        eps=st.floats(0.1, 3.0),
        ratio=st.floats(0.2, 20.0),
        ct=st.floats(0.6, 29.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(family="geomix", eps=1.0, ratio=3.0, ct=2.0, seed=0)
    @example(family="rlaplace", eps=1.0 / 3.0, ratio=1.0, ct=1.0, seed=0)
    @example(family="geometric", eps=0.3, ratio=1.0, ct=1.0, seed=0)
    @example(family="rounded lapmix", eps=0.2, ratio=5.0, ct=5.0, seed=0)
    def test_is_the_definition(self, family, eps, ratio, ct, seed):
        try:
            law = _lattice_law(family, eps, ratio, ct)
        except InvalidParameterError:  # constants that underflow
            assume(False)
        tails = law.cdf(-np.arange(1.0, 4096.0))
        special = []
        for t in tails[tails >= 2.0**-54]:
            for w in (t, 1.0 - t):
                special += [np.nextafter(w, 0.0), w, np.nextafter(w, 1.0)]
        u = np.concatenate([special, SeededStream(seed).uniforms(3000)])
        u = np.clip(u, 2.0**-54, np.nextafter(1.0, 0.0))  # the stream's least and greatest
        assert law.inverse(u).tolist() == _inverse_by_definition(law, u).tolist()
        draws = law.inverse(np.sort(SeededStream(seed, 1).uniforms(3000)))
        assert np.all(np.diff(draws) >= 0)

    def test_where_the_runs_and_the_thresholds_part(self):
        # P(K <= 0) is 0.88705640151889878 to 40 digits, below the uniforms of these
        # lattice values, so the law draws 1; the four-branch threshold, rounded an ulp
        # above it, draws 0 at the first two
        params = MixtureParams(epsilon=1.924829037709121, ratio=34.617004438047864, break_point=1.0)
        u = lattice_uniforms(np.arange(7989893758674251, 7989893758674255))
        assert np.all(u > 0.88705640151889878)
        assert GeometricMixture(params).grid_law().inverse(u).tolist() == [1, 1, 1, 1]
        assert _oracle_geomix(u, params).tolist() == [0, 0, 1, 1]

    @pytest.mark.parametrize(
        "eps, reps, ct",
        [
            (3.041691477278409e-139, 9.301827922597914e30, 474569493.054074),
            (1.3518807828685601e-29, 7.720699731713476e18, 3263015609917.4126),
            (1e-20, 1.0, 5.0),
        ],
    )
    def test_runs_far_shorter_than_their_scale(self, eps, reps, ct):
        # the lapmix grid law's inner run is billions of cells long at a rate near 0, so its
        # tail is nearly linear in the cell; a candidate read from the log of a value near 1
        # would be that many cells off, too many to step through
        law = LaplaceMixture(MixtureParams.from_rates(eps, reps, ct)).grid_law()
        u = np.concatenate([SeededStream(3).uniforms(500), [2.0**-54, 0.25, 0.5, 1.0 - 2.0**-53]])
        v = np.minimum(u, 1.0 - u)
        # M(v), the last m with m = 0 or T(m) = cdf(-m) >= v, bisected over [0, 2^53]
        lo, hi = np.zeros(u.size, dtype=np.int64), np.full(u.size, 2**53, dtype=np.int64)
        while (lo < hi).any():
            mid = (lo + hi + 1) // 2
            holds = law.cdf(-mid.astype(float)) >= v
            lo, hi = np.where(holds, mid, lo), np.where(holds, hi, mid - 1)
        assert law.inverse(u).tolist() == np.where(u > 0.5, lo, -lo).tolist()

    def test_tables_built_once_per_spec(self, monkeypatch):
        # the spec keeps the law it draws through, and the law keeps its inverse
        # tables: the second call reads no tail, and the two calls are one call's draws
        calls = []
        tail = mechanisms._Lattice._tail
        monkeypatch.setattr(mechanisms._Lattice, "_tail", lambda law, m: calls.append(1) or tail(law, m))
        spec = GeometricMixture(PRESET_A)
        first = sample(spec, SeededStream(11), 5000)
        assert len(calls) == 1
        second = sample(spec, SeededStream(11, 1), 5000)
        assert len(calls) == 1
        stream = SeededStream(11)
        pieces = np.concatenate([sample(spec, stream, 2000), sample(spec, stream, 3000)])
        assert len(calls) == 1
        assert first.tolist() == pieces.tolist()
        assert second.tolist() == sample(GeometricMixture(PRESET_A), SeededStream(11, 1), 5000).tolist()
        assert len(calls) == 2


# bench_ct5's mechanisms, and the Laplace mechanism at eps 0.3281
BENCH_CT5 = {
    "geomix": GeometricMixture(PRESET_A),
    "geometric": Geometric(math.exp(0.32810599476390334)),
    "rlaplace": RoundedLaplace(1.0 / 0.33180903378641224),
    "lapmix": LaplaceMixture(PRESET_A),
    "laplace": Laplace(1.0 / 0.3281),
}


class TestFiniteSupport:
    """The sampler maps one of 2^53 lattice values to a cell of its grid law, so it reaches
    a finite range, and near its edges some cells take no lattice value.  A release of truth
    n then has outputs that its neighbour n +- 1, 1 / cell cells away, can never produce:
    the definitional zeta of what is sampled is infinite, and the sampler's mass on those
    outputs is a per-release delta.  This states the residual, in cells of each family's
    grid; README quotes these figures."""

    @pytest.mark.parametrize(
        "kind, reach, unmatched, hockey_stick",
        [
            ("geomix", (-39, 39), 1, 5.10036450155075e-15),
            ("geometric", (-112, 110), 9, 8.041424516363476e-15),
            ("rlaplace", (-111, 109), 6, 8.880999194321912e-15),
            # in cells of 1/8: lapmix reaches [-39.5, 38.75] and laplace [-112, 109.875]
            ("lapmix", (-316, 310), 25, 2.652826480710537e-14),
            ("laplace", (-896, 879), 45, 5.6281834870174926e-14),
        ],
    )
    def test_reach_and_delta(self, kind, reach, unmatched, hockey_stick):
        spec = BENCH_CT5[kind]
        law, top, shift = spec.grid_law(), 2**53, round(1 / spec.cell)

        def inverse(values):
            return law.inverse(lattice_uniforms(np.asarray(values, dtype=np.int64)))

        edges = inverse([0, 1, top - 2, top - 1])
        assert (edges[0], edges[-1]) == reach
        # the lattice values that reach each cell of the range: the least one reaching k or
        # beyond, bisected for every k at once (the inverse does not decrease)
        ks = np.arange(reach[0], reach[1] + 1)
        lo, hi = np.zeros(ks.size, dtype=np.int64), np.full(ks.size, top, dtype=np.int64)
        while (lo < hi).any():
            mid = (lo + hi) // 2
            reached = inverse(np.minimum(mid, top - 1)) >= ks
            lo, hi = np.where(reached, lo, mid + 1), np.where(reached, mid, hi)
        counts = np.diff(np.append(lo, top))
        assert counts.sum() == top and counts[0] > 0 and counts[-1] > 0
        # at output n + k cells the neighbour n + 1 has the count of k - shift, and n - 1
        # that of k + shift
        none = np.zeros(shift, dtype=np.int64)
        below, above = np.concatenate((none, counts[:-shift])), np.append(counts[shift:], none)
        delta = max(counts[below == 0].sum(), counts[above == 0].sum()) / top
        assert delta == unmatched * 2.0**-53 > 0.0
        # and delta at the worst-case eps, the hockey-stick divergence of the pair
        p, q = np.append(counts, none) / top, np.concatenate((none, counts)) / top
        bound = math.exp(spec.worst_case_eps())
        hockey = max(np.maximum(p - bound * q, 0.0).sum(), np.maximum(q - bound * p, 0.0).sum())
        assert hockey == pytest.approx(hockey_stick, rel=1e-9)


class TestLapMixSampler:
    def test_chi_square_against_cdf(self):
        # the released draws, in cells of 1/8, against the masses the continuous CDF puts
        # on each cell
        y = sample(LaplaceMixture(PRESET_A), SeededStream(101), N)
        assert grid_chi_square_pvalue(y, lambda x: lapmix_cdf(x, PRESET_A), GRID) > 1e-3

    def test_moments(self):
        y = sample(LaplaceMixture(PRESET_A), SeededStream(102), 10**6)
        s = lapmix_stats(PRESET_A)
        assert np.abs(y).mean() == pytest.approx(s.mean_abs_noise, rel=0.01)
        assert y.var() == pytest.approx(s.variance, rel=0.02)

    def test_scalar_call(self):
        y = sample(LaplaceMixture(PRESET_A), SeededStream(103))
        assert isinstance(y, float)


class TestGeoMixSampler:
    def test_chi_square(self):
        y = sample(GeometricMixture(PRESET_A), SeededStream(104), N)
        p = chi_square_pvalue(
            y,
            lambda k: float(GeometricMixture(PRESET_A).prob(k)),
            lambda k: float(GeometricMixture(PRESET_A).cdf(k)),
            -15,
            15,
        )
        assert p > 1e-3

    def test_within_break_mass(self):
        y = sample(GeometricMixture(PRESET_A), SeededStream(105), 10**6)
        assert np.mean(np.abs(y) <= 5) == pytest.approx(0.93992, abs=0.002)

    def test_symmetry(self):
        y = sample(GeometricMixture(PRESET_A), SeededStream(106), 10**6)
        assert abs(y.mean()) < 0.01

    def test_collapse_to_geometric(self):
        params = MixtureParams(epsilon=0.4, ratio=1.0, break_point=4.0)
        y = sample(GeometricMixture(params), SeededStream(107), N)
        alpha = math.exp(0.4)
        q = 1 / alpha

        def cdf(k):
            return q ** (-k) / (1 + q) if k < 0 else 1 - q ** (k + 1) / (1 + q)

        p = chi_square_pvalue(y, lambda k: float(Geometric(alpha).prob(k)), cdf, -20, 20)
        assert p > 1e-3


class TestStandardSamplers:
    def test_laplace_mean_abs(self):
        y = sample(Laplace(scale=3.0), SeededStream(108), 10**6)
        assert np.abs(y).mean() == pytest.approx(3.0, rel=0.01)

    def test_geometric_center_mass(self):
        y = sample(Geometric(alpha=math.e), SeededStream(109), 10**6)
        assert np.mean(y == 0) == pytest.approx(0.4621, abs=0.003)

    def test_geometric_chi_square(self):
        alpha = math.exp(0.5)
        y = sample(Geometric(alpha=alpha), SeededStream(110), N)
        q = 1 / alpha

        def cdf(k):
            return q ** (-k) / (1 + q) if k < 0 else 1 - q ** (k + 1) / (1 + q)

        p = chi_square_pvalue(y, lambda k: float(Geometric(alpha).prob(k)), cdf, -15, 15)
        assert p > 1e-3

    def test_rounded_laplace_pmf(self):
        y = sample(RoundedLaplace(scale=1.0), SeededStream(111), 10**6)
        for k in (0, 1, -2):
            assert np.mean(y == k) == pytest.approx(
                float(RoundedLaplace(1.0).prob(k)), abs=0.002
            )

    def test_rounded_laplace_differs_from_geometric(self):
        # same eps = 1: the two integer mechanisms are close but distinct at 0
        n = 10**6
        rl = sample(RoundedLaplace(scale=1.0), SeededStream(112), n)
        geo = sample(Geometric(alpha=math.e), SeededStream(113), n)
        p_rl = np.mean(rl == 0)
        p_geo = np.mean(geo == 0)
        sigma = math.sqrt(p_rl * (1 - p_rl) / n + p_geo * (1 - p_geo) / n)
        assert (p_geo - p_rl) / sigma > 5.0

    def test_truncated_requires_unsafe(self):
        with pytest.raises(UnsafeMechanismError):
            sample(TruncatedLaplace(scale=2.0, bound=4.0), SeededStream(114), 10)

    def test_truncated_respects_bound(self):
        spec = TruncatedLaplace(scale=2.0, bound=4.0, allow_unsafe=True)
        y = sample(spec, SeededStream(115), N)
        assert np.abs(y).max() <= 4.0
        assert np.abs(y).max() > 3.5

    def test_truncated_ks_against_cdf(self):
        # the released draws, in cells of 1/8, against the masses the continuous CDF puts
        # on each cell
        for bound in (0.5, 4.0, 30.0):
            spec = TruncatedLaplace(scale=2.0, bound=bound, allow_unsafe=True)
            y = sample(spec, SeededStream(120, int(bound * 2)), N)
            assert grid_chi_square_pvalue(y, lambda x: truncated_laplace_cdf(x, 2.0, bound), GRID) > 1e-3

    def test_truncated_draws_have_mass(self):
        # A bound that is not a multiple of the cell: the draws of +-1/8 fall in the cell
        # that holds the bound, [1/16, 0.1], and its mass function says so.  Before trunclap
        # read its grid law, its density was 0 at +-1/8, where 3,662 of 10,000 draws fell.
        spec = TruncatedLaplace(scale=2.0, bound=0.1, allow_unsafe=True)
        y = sample(spec, SeededStream(121), N)
        assert set(np.unique(y)) == {-GRID, 0.0, GRID}
        assert np.all(np.isfinite(spec.log_prob(y)))
        ks = np.arange(-2, 3) * GRID
        assert np.allclose(np.diff(spec.cdf(np.append(-3 * GRID, ks))), spec.prob(ks), rtol=1e-14, atol=0)
        assert grid_chi_square_pvalue(y, spec.cdf, GRID) > 1e-3

    def test_truncated_draws_equal_the_float_sampler(self):
        # The float sampler trunclap had, rounded to the grid, is the inverse of its grid
        # law at every uniform drawn here: at the edge lattice values and at random (b, c).
        rng = np.random.default_rng(122)
        edges = lattice_uniforms(np.array([0, 1, 2, 2**52 - 1, 2**52, 2**53 - 2, 2**53 - 1]))
        points = [(1.0, 0.0625), (2.0, 0.1), (1.0, 0.1875), (1.0, 0.125), (1e-3, 5.0), (1e3, 0.05)]
        # b log-uniform in [1e-3, 1e3], c in [1e-2, 1e3]
        points += [tuple(np.exp(rng.uniform(np.log([1e-3, 1e-2]), np.log(1e3)))) for _ in range(30)]
        for b, c in points:
            spec = TruncatedLaplace(scale=b, bound=c, allow_unsafe=True)
            u = np.concatenate([edges, lattice_uniforms(rng.integers(0, 2**53, 20_000))])
            assert _released_noise(spec, u).tobytes() == truncated_float_draw(spec, u).tobytes()

    def test_zero_noise(self):
        y = sample(EXACT_ZERO, SeededStream(116), 100)
        assert np.all(y == 0)

    def test_dispatch(self):
        assert isinstance(sample(LaplaceMixture(PRESET_A), SeededStream(117)), float)
        assert isinstance(sample(GeometricMixture(PRESET_A), SeededStream(118)), int)
        assert isinstance(sample(Geometric(alpha=2.0), SeededStream(119)), int)
