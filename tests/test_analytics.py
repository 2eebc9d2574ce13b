import math
from dataclasses import astuple

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from pwmix.analytics import geomix_stats, lapmix_stats, standard_stats
from pwmix.errors import UnsupportedSpecError
from pwmix.mechanisms import (
    Geometric,
    GeometricMixture,
    Laplace,
    LaplaceMixture,
    MechanismStats,
    MixtureParams,
    RoundedLaplace,
    lapmix_pdf,
)

from conftest import INT_PARAM_GRID, PRESET_A, PRESET_B


def series_oracle(params):
    """Stats of the geometric mixture by brute truncated summation."""
    reach = params.integer_break_point() + int(40 / min(params.epsilon, params.eps_r)) + 40
    ks = np.arange(-reach, reach + 1)
    p = GeometricMixture(params).prob(ks)
    mean_abs = float((np.abs(ks) * p).sum())
    variance = float((ks.astype(float) ** 2 * p).sum())
    entropy = float(-(p * np.log(p)).sum())
    return mean_abs, variance, entropy


def geometric_series_x2(q, first):
    """sum_{x=first}^inf x^2 q^x for 0 < q < 1."""
    m = first
    return q**m * (m * m - (2 * m * m - 2 * m - 1) * q + (m - 1) ** 2 * q * q) / (1.0 - q) ** 3


def truncated_geometric_series(alpha):
    """Stats of the geometric mechanism summed from its mass function.

    The sum stops where the x^2-weighted tail, bounded in closed form, is
    below 1e-12.
    """
    q = 1.0 / alpha
    coeff = (1.0 - q) / (1.0 + q)
    k_max = 2
    while 2.0 * coeff * geometric_series_x2(q, k_max) > 1e-12:
        k_max *= 2
    mean_abs = variance = 0.0
    entropy = -coeff * math.log(coeff)
    for k in range(1, k_max + 1):
        p = coeff * q**k
        mean_abs += 2.0 * k * p
        variance += 2.0 * k * k * p
        entropy -= 2.0 * p * math.log(p)
    return mean_abs, variance, entropy


def quadrature_oracle(params):
    """Stats of the Laplace mixture by adaptive quadrature."""
    ct = params.break_point

    def piecewise(f):
        inner, _ = integrate.quad(f, 0, ct, limit=200)
        outer, _ = integrate.quad(f, ct, np.inf, limit=200)
        return 2 * (inner + outer)

    def neg_plogp(x):
        p = lapmix_pdf(x, params)
        return -p * math.log(p) if p > 0 else 0.0

    mean_abs = piecewise(lambda x: x * lapmix_pdf(x, params))
    variance = piecewise(lambda x: x * x * lapmix_pdf(x, params))
    entropy = piecewise(neg_plogp)
    return mean_abs, variance, entropy


class TestLapMixStats:
    def test_preset_a(self):
        s = lapmix_stats(PRESET_A)
        # closed-form values; the variance is the analytic one (the reference
        # table's 9.63 is a moment of the rounded release, handled in bench)
        assert s.mean_abs_noise == pytest.approx(2.497760793649473, rel=1e-12)
        assert s.variance == pytest.approx(9.547132830666468, rel=1e-12)
        assert s.entropy == pytest.approx(2.536975129652684, rel=1e-12)

    def test_preset_b(self):
        s = lapmix_stats(PRESET_B)
        assert s.mean_abs_noise == pytest.approx(3.16, abs=0.02)
        assert s.variance == pytest.approx(14.56, abs=0.05)
        assert s.entropy == pytest.approx(2.73, abs=0.02)

    def test_collapse(self):
        s = lapmix_stats(MixtureParams(epsilon=0.25, ratio=1.0, break_point=3.0))
        b = 4.0
        assert s.mean_abs_noise == pytest.approx(b, rel=1e-12)
        assert s.variance == pytest.approx(2 * b * b, rel=1e-12)
        assert s.entropy == pytest.approx(1 + math.log(2 * b), rel=1e-12)

    @pytest.mark.parametrize("params", INT_PARAM_GRID[::2])
    def test_against_quadrature(self, params):
        s = lapmix_stats(params)
        mean_abs, variance, entropy = quadrature_oracle(params)
        assert s.mean_abs_noise == pytest.approx(mean_abs, abs=1e-7)
        assert s.variance == pytest.approx(variance, abs=1e-7)
        assert s.entropy == pytest.approx(entropy, abs=1e-6)

    def test_outer_weight_near_overflow(self):
        # the outer piece's weight at 0 would be about 1e306: its terms are read from c_t
        params = MixtureParams(epsilon=3.4247, ratio=161.38 / 3.4247, break_point=4.5118)
        s = lapmix_stats(params)
        for value, oracle in zip(vars(s).values(), quadrature_oracle(params)):
            assert value == pytest.approx(oracle, rel=1e-6)

    @pytest.mark.parametrize(
        "eps, ratio, ct",
        [
            (0.01, 50.0, 1.0),  # c_t / b2 = 0.01: the closed-form inner terms cancel to 1e-11
            (1e-4, 2.0, 2.0),
            (0.05, 3.0, 0.5),
            (1.0, 3.0, 0.3),
            (0.9, 0.5, 1.1),  # c_t / b2 just below 1
            (0.2, 5.0, 5.0),  # c_t / b2 = 1, the closed form as before
            (0.3, 2.0, 3.0),
        ],
    )
    def test_moments_against_a_40_digit_integral(self, eps, ratio, ct):
        # the same density, with the same double constants, integrated in mpmath
        params = MixtureParams(epsilon=eps, ratio=ratio, break_point=ct)
        s, c = lapmix_stats(params), LaplaceMixture(params).constants()
        with mp.workdps(40):
            w1, a2, b1, b2, c_t = map(
                mp.mpf, (c.w1, c.a2, params.outer_scale, params.inner_scale, ct)
            )

            def moment(n):
                inner = mp.quad(lambda x: x**n * a2 / b2 * mp.exp(-x / b2), [0, c_t])
                outer = mp.quad(lambda x: x**n * w1 / b1 * mp.exp(-(x - c_t) / b1), [c_t, mp.inf])
                return float(inner + outer)

            mean_abs, variance = moment(1), moment(2)
        assert s.mean_abs_noise == pytest.approx(mean_abs, rel=1e-14)
        assert s.variance == pytest.approx(variance, rel=1e-14)

    def test_jensen(self):
        for params in (PRESET_A, PRESET_B):
            s = lapmix_stats(params)
            assert s.variance >= s.mean_abs_noise**2


class TestGeoMixStats:
    def test_preset_a(self):
        s = geomix_stats(PRESET_A)
        assert s.mean_abs_noise == pytest.approx(2.48, abs=0.02)
        assert s.variance == pytest.approx(9.61, abs=0.02)
        assert s.entropy == pytest.approx(2.54, abs=0.01)

    def test_preset_b(self):
        s = geomix_stats(PRESET_B)
        assert s.mean_abs_noise == pytest.approx(3.17, abs=0.02)
        assert s.variance == pytest.approx(14.71, abs=0.05)

    def test_quarter(self):
        s = geomix_stats(MixtureParams(epsilon=0.25, ratio=4.0, break_point=4.0))
        assert s.mean_abs_noise == pytest.approx(2.07, abs=0.02)
        assert s.variance == pytest.approx(6.88, abs=0.02)

    def test_collapse(self):
        params = MixtureParams(epsilon=0.3, ratio=1.0, break_point=5.0)
        s = geomix_stats(params)
        ref = standard_stats(Geometric(alpha=math.exp(0.3)))
        assert s.mean_abs_noise == pytest.approx(ref.mean_abs_noise, rel=1e-10)
        assert s.variance == pytest.approx(ref.variance, rel=1e-10)
        assert s.entropy == pytest.approx(ref.entropy, rel=1e-10)

    @pytest.mark.parametrize("params", INT_PARAM_GRID)
    def test_against_series(self, params):
        s = geomix_stats(params)
        mean_abs, variance, entropy = series_oracle(params)
        assert s.mean_abs_noise == pytest.approx(mean_abs, abs=1e-9)
        assert s.variance == pytest.approx(variance, abs=1e-9)
        assert s.entropy == pytest.approx(entropy, abs=1e-9)


def assert_stats_are_cell_sums(stats, law, reach):
    """(E|K|, E K^2, entropy) against math.fsum over the mass cells |k| <= reach of a
    lattice law, at 1e-13; ln p is the law's own, as ln exp(ln p) loses digits near p = 1."""
    ks = np.arange(-reach, reach + 1)
    log_p = law.log_mass(ks.astype(float))
    p = np.exp(log_p)
    p, log_p, ks = p[p > 0.0], log_p[p > 0.0], ks[p > 0.0]  # 0 log 0 = 0
    mean_abs, variance, entropy = stats
    assert mean_abs == pytest.approx(math.fsum(np.abs(ks) * p), rel=1e-13, abs=0)
    assert variance == pytest.approx(math.fsum(ks.astype(float) ** 2 * p), rel=1e-13, abs=0)
    assert entropy == pytest.approx(math.fsum(-p * log_p), rel=1e-13, abs=0)


def assert_spec_stats_are_cell_sums(spec, reach):
    assert_stats_are_cell_sums(astuple(spec.stats()), spec.grid_law(), reach)


class TestLatticeStatsAreCellSums:
    """Geometric, geomix and rounded lapmix stats are sums over their mass cells;
    beyond 60 / rate past the break-point the cells carry less than e^-60 of the moments."""

    @settings(max_examples=200, deadline=None)
    @given(eps=st.floats(0.01, 5.0), ratio=st.floats(1.0, 50.0), ct=st.integers(1, 40))
    # the variance as a difference of two tail series was off by 1.2e-11 here
    @example(eps=0.01, ratio=50.0, ct=1)
    def test_geomix(self, eps, ratio, ct):
        spec = GeometricMixture(MixtureParams(epsilon=eps, ratio=ratio, break_point=float(ct)))
        assert_spec_stats_are_cell_sums(spec, ct + math.ceil(60.0 / eps))

    @settings(max_examples=200, deadline=None)
    @given(eps=st.floats(0.01, 5.0))
    def test_geometric(self, eps):
        assert_spec_stats_are_cell_sums(Geometric(alpha=math.exp(eps)), math.ceil(60.0 / eps))

    def test_long_inner_run_against_a_40_digit_sum(self):
        # a difference of two tail sums over these 33 inner cells was off by 4.8e-14
        params = MixtureParams(epsilon=0.011121744054961268, ratio=49.66426040413934, break_point=32.0)
        spec = GeometricMixture(params)
        c = spec.constants()
        with mp.workdps(40):

            def cell(k):  # the outer piece read from c_t
                a, rate, k0 = (c.a2, params.epsilon, 0) if k <= 32 else (c.w1, params.eps_r, 32)
                return mp.mpf(a) * mp.tanh(mp.mpf(rate) / 2) * mp.exp(-mp.mpf(rate) * (k - k0))

            cells = [cell(k) for k in range(400)]  # the rest carry below e^-190
            want = (
                2 * mp.fsum(k * p for k, p in enumerate(cells)),
                2 * mp.fsum(k * k * p for k, p in enumerate(cells)),
                -2 * mp.fsum(p * mp.log(p) for p in cells) + cells[0] * mp.log(cells[0]),
            )
        assert astuple(spec.stats()) == pytest.approx([float(x) for x in want], rel=5e-15, abs=0)

    @settings(max_examples=200, deadline=None)
    @given(
        eps=st.floats(0.01, 5.0),
        ratio=st.floats(1.0, 50.0),
        ct=st.one_of(
            st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),  # cell 0 straddles c_t
            st.integers(0, 39).map(lambda k: k + 0.5),  # no cell straddles c_t
            st.floats(0.0, 40.0, exclude_min=True),
        ),
    )
    @example(eps=0.01, ratio=50.0, ct=1.5)  # one inner cell under a flat inner piece
    @example(eps=0.011, ratio=40.0, ct=33.5)  # 33 inner cells under a flat inner piece
    def test_rounded_lapmix(self, eps, ratio, ct):
        spec = LaplaceMixture(MixtureParams(epsilon=eps, ratio=ratio, break_point=ct))
        law = spec.rounded_lattice()
        assert_stats_are_cell_sums(law.stats(), law, math.ceil(ct) + math.ceil(60.0 / eps))

    @pytest.mark.parametrize("eps, ratio", [(1500.0, 0.01), (3000.0, 0.1), (1e5, 1e-3)])
    def test_finite_where_cosh_overflows(self, eps, ratio):
        # cosh(eps / 2) overflows; the inner cells beyond the centre carry nothing
        # and the outer weight is 0, so the law is a point mass at 0
        spec = GeometricMixture(MixtureParams(epsilon=eps, ratio=ratio, break_point=1.0))
        assert spec.stats() == MechanismStats(0.0, 0.0, 0.0)


class TestStandardStats:
    def test_laplace(self):
        s = standard_stats(Laplace(scale=1.0))
        assert (s.mean_abs_noise, s.variance) == (1.0, 2.0)
        assert s.entropy == pytest.approx(1 + math.log(2))

    def test_matched_budget_values(self):
        s = standard_stats(Laplace(scale=1 / 0.332))
        assert s.mean_abs_noise == pytest.approx(3.01, abs=0.02)
        assert s.variance == pytest.approx(18.15, abs=0.05)
        assert s.entropy == pytest.approx(2.80, abs=0.01)
        g = standard_stats(Geometric(alpha=math.exp(0.328)))
        assert g.mean_abs_noise == pytest.approx(2.99, abs=0.01)
        assert g.variance == pytest.approx(18.42, abs=0.02)

    def test_geometric_closed_form_cross_check(self):
        for eps in (0.1, 0.328, 0.7, 1.5):
            q = math.exp(-eps)
            s = standard_stats(Geometric(alpha=math.exp(eps)))
            assert s.mean_abs_noise == pytest.approx(2 * q / (1 - q * q), rel=1e-10)
            assert s.variance == pytest.approx(2 * q / (1 - q) ** 2, rel=1e-10)

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.332, 1.0, 3.0, 10.0])
    def test_geometric_against_truncated_series(self, eps):
        alpha = math.exp(eps)
        s = standard_stats(Geometric(alpha=alpha))
        mean_abs, variance, entropy = truncated_geometric_series(alpha)
        assert s.mean_abs_noise == pytest.approx(mean_abs, rel=1e-12, abs=0)
        assert s.variance == pytest.approx(variance, rel=1e-12, abs=0)
        assert s.entropy == pytest.approx(entropy, rel=1e-12, abs=0)

    def test_geometric_entropy_where_the_coefficient_rounds_to_one(self):
        # c = (1 - q)/(1 + q) rounds to 1.0 at eps 50, where -ln c is 2% of
        # the entropy; the 60-digit value is
        # 1.96732484492319629456057394323168056546658276373775514967823e-20
        s = standard_stats(Geometric(alpha=math.exp(50.0)))
        assert s.entropy == pytest.approx(1.96732484492319629456057394323e-20, rel=1e-12, abs=0)

    @pytest.mark.parametrize("eps", [380.0, 700.0])
    def test_geometric_finite_at_large_eps(self, eps):
        # the masses at +-1 (about q = e^-eps each) carry all of it
        s = standard_stats(Geometric(alpha=math.exp(eps)))
        q = math.exp(-eps)
        assert s.mean_abs_noise == pytest.approx(2 * q, rel=1e-12, abs=0)
        assert s.variance == pytest.approx(2 * q, rel=1e-12, abs=0)
        assert s.entropy == pytest.approx(2 * q * (eps + 1), rel=1e-12, abs=0)

    def test_unsupported(self):
        with pytest.raises(UnsupportedSpecError):
            standard_stats(LaplaceMixture(PRESET_A))
        with pytest.raises(UnsupportedSpecError):
            standard_stats(GeometricMixture(PRESET_A))
        with pytest.raises(UnsupportedSpecError):
            standard_stats(RoundedLaplace(scale=2.0))


class TestMonotoneTradeoff:
    def test_increasing_eps_decreases_noise(self):
        # fixed r*eps and c_t, growing inner eps
        for reps, ct in ((1.0, 5), (0.8, 4)):
            rows = []
            for eps in (0.1, 0.167, 0.2, 0.25):
                p = MixtureParams(epsilon=eps, ratio=reps / eps, break_point=float(ct))
                rows.append((geomix_stats(p), lapmix_stats(p)))
            for (g0, l0), (g1, l1) in zip(rows, rows[1:]):
                assert g1.mean_abs_noise < g0.mean_abs_noise
                assert g1.variance < g0.variance
                assert l1.mean_abs_noise < l0.mean_abs_noise
                assert l1.variance < l0.variance
