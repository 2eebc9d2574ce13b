import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from pwmix.analytics import geomix_stats, lapmix_stats, standard_stats
from pwmix.errors import InvalidParameterError, UnsupportedSpecError
from pwmix.mechanisms import (
    Geometric,
    GeometricMixture,
    Laplace,
    LaplaceMixture,
    MechanismStats,
    MixtureParams,
    RoundedLaplace,
    geomix_pmf,
    lapmix_pdf,
)

from conftest import INT_PARAM_GRID, PRESET_A, PRESET_B


def series_oracle(params):
    """Stats of the geometric mixture by brute truncated summation."""
    reach = params.integer_break_point() + int(40 / min(params.epsilon, params.eps_r)) + 40
    ks = np.arange(-reach, reach + 1)
    p = geomix_pmf(ks, params)
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
        # a1 is about 1e306: the outer piece's terms must not pass through a1 / b1
        params = MixtureParams(epsilon=3.4247, ratio=161.38 / 3.4247, break_point=4.5118)
        s = lapmix_stats(params)
        for value, oracle in zip(vars(s).values(), quadrature_oracle(params)):
            assert value == pytest.approx(oracle, rel=1e-6)

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


def assert_stats_are_cell_sums(spec, reach):
    """The spec's stats against math.fsum over its mass cells |k| <= reach, at 1e-13."""
    ks = np.arange(-reach, reach + 1)
    p = spec.prob(ks.astype(float))
    p, ks = p[p > 0.0], ks[p > 0.0]  # 0 log 0 = 0
    s = spec.stats()
    assert s.mean_abs_noise == pytest.approx(math.fsum(np.abs(ks) * p), rel=1e-13, abs=0)
    assert s.variance == pytest.approx(math.fsum(ks.astype(float) ** 2 * p), rel=1e-13, abs=0)
    assert s.entropy == pytest.approx(math.fsum(-p * np.log(p)), rel=1e-13, abs=0)


class TestLatticeStatsAreCellSums:
    """Geometric and geomix stats are sums over their mass cells; beyond 60 / rate
    past the break-point the cells carry less than e^-60 of the moments."""

    @settings(max_examples=200, deadline=None)
    @given(eps=st.floats(0.01, 5.0), ratio=st.floats(1.0, 50.0), ct=st.integers(1, 40))
    # the variance as a difference of two tail series was off by 1.2e-11 here
    @example(eps=0.01, ratio=50.0, ct=1)
    def test_geomix(self, eps, ratio, ct):
        spec = GeometricMixture(MixtureParams(epsilon=eps, ratio=ratio, break_point=float(ct)))
        try:
            spec.constants()
        except InvalidParameterError:  # only where the outer tail underflows
            assert spec.params.eps_r * ct > 700.0
            return
        assert_stats_are_cell_sums(spec, ct + math.ceil(60.0 / eps))

    @settings(max_examples=200, deadline=None)
    @given(eps=st.floats(0.01, 5.0))
    def test_geometric(self, eps):
        assert_stats_are_cell_sums(Geometric(alpha=math.exp(eps)), math.ceil(60.0 / eps))

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
