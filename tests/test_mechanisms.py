import math
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from pwmix.accounting import privacy_loss, zeta_empirical
from pwmix.cli import spec_from_dict
from pwmix.data import release, release_to_json
from pwmix.errors import InvalidParameterError, PwmixError, UnsupportedSpecError
from pwmix.mechanisms import (
    CONSTANTS_CACHE_SIZE,
    Geometric,
    GeometricMixture,
    Laplace,
    LaplaceMixture,
    MixtureParams,
    RoundedLaplace,
    TruncatedLaplace,
    geomix_constants,
    laplace_cdf,
    laplace_pdf,
    lapmix_cdf,
    lapmix_constants,
    lapmix_pdf,
)
from pwmix.sampling import SeededStream

from conftest import INT_PARAM_GRID, PARAM_GRID, PRESET_A, lapmix_definition, truncated_laplace_cdf


class TestLaplacePdf:
    def test_peak_values(self):
        assert laplace_pdf(0.0, 1.0) == pytest.approx(0.5)
        assert laplace_pdf(0.0, 10.0) == pytest.approx(0.05)

    def test_off_peak(self):
        # 0.05 * exp(-0.45), evaluated independently
        assert laplace_pdf(4.5, 10.0) == pytest.approx(0.03188140758108867, abs=1e-12)

    def test_invalid_scale(self):
        with pytest.raises(InvalidParameterError):
            laplace_pdf(0.0, 0.0)
        with pytest.raises(InvalidParameterError):
            laplace_pdf(0.0, -1.0)


def lapmix_weights(params):
    """(a2, w1, k_c) of the Laplace mixture in 50-digit arithmetic, from its definition
    (``lapmix_definition``): the inner piece is a2 times the Laplace(1/eps) density, and
    w1 = P(|X| > c_t)."""
    with mp.workdps(50):
        big_a2, t2, eps, reps, _ = lapmix_definition(params)
        a2, w1 = 2 * big_a2 / eps, 2 * big_a2 * t2 / reps
        return a2, w1, (w1 - a2 * t2) / 2


def geomix_weights(params):
    """(a2, w1, k_c) of the geometric mixture in 50-digit arithmetic, from its definition:
    p(k) proportional to e^(-eps |k|) up to c_t, e^(-eps c_t - r eps (|k| - c_t)) beyond.  Cell
    k of the inner piece is a2 tanh(eps / 2) e^(-eps |k|), and w1 = P(|K| > c_t) + p(c_t)."""
    with mp.workdps(50):
        eps, reps, ct = (mp.mpf(v) for v in (params.epsilon, params.eps_r, params.break_point))
        q1, q2, t2 = mp.exp(-reps), mp.exp(-eps), mp.exp(-eps * ct)
        norm = 1 + 2 * q2 * (1 - t2) / (1 - q2) + 2 * t2 * q1 / (1 - q1)
        a2, w1 = 1 / (norm * mp.tanh(eps / 2)), t2 * (1 + q1) / ((1 - q1) * norm)
        return a2, w1, (w1 - a2 * t2) / 2


class TestLapMixtureConstants:
    def test_preset_values(self):
        c = lapmix_constants(PRESET_A)
        assert c.a2 == pytest.approx(1.4170398677250879, rel=1e-12)
        assert c.w1 == pytest.approx(0.10425996693127197, rel=1e-12)
        assert c.k_c == pytest.approx(-0.20851993386254394, rel=1e-12)
        assert [c.a2, c.w1, c.k_c] == pytest.approx(lapmix_weights(PRESET_A), rel=1e-12)

    def test_equal_scales_collapse(self):
        c = lapmix_constants(MixtureParams(epsilon=0.3, ratio=1.0, break_point=7.0))
        assert c.a2 == pytest.approx(1.0, abs=1e-14)
        assert c.w1 == pytest.approx(math.exp(-2.1), rel=1e-14)
        assert c.k_c == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("params", PARAM_GRID)
    def test_identities(self, params):
        c = lapmix_constants(params)
        b1, b2, ct = params.outer_scale, params.inner_scale, params.break_point
        assert c.w1 + c.a2 * (1 - math.exp(-ct / b2)) == pytest.approx(1.0, abs=1e-12)
        # the heights meet at c_t
        assert c.w1 / (2 * b1) == pytest.approx(c.a2 / (2 * b2) * math.exp(-ct / b2), rel=1e-12)
        # CDF offset identity: 2 k_c == 1 - a2
        assert 2 * c.k_c == pytest.approx(1 - c.a2, abs=1e-12)


class TestLapMixturePdfCdf:
    def test_collapse_to_laplace(self):
        params = MixtureParams(epsilon=0.1, ratio=1.0, break_point=4.5)
        xs = np.linspace(-30, 30, 401)
        assert np.allclose(lapmix_pdf(xs, params), laplace_pdf(xs, 10.0), atol=1e-14)

    def test_preset_point_values(self):
        assert lapmix_pdf(0.0, PRESET_A) == pytest.approx(0.1417039867725088, rel=1e-12)
        # both one-sided limits at the break-point agree
        inner = lapmix_pdf(5.0, PRESET_A)
        outer = lapmix_pdf(np.nextafter(5.0, 6.0), PRESET_A)
        assert inner == pytest.approx(0.05212998346563599, rel=1e-12)
        assert outer == pytest.approx(inner, rel=1e-9)

    @pytest.mark.parametrize("params", PARAM_GRID)
    def test_pdf_integrates_to_one(self, params):
        ct = params.break_point
        inner, _ = integrate.quad(lambda x: lapmix_pdf(x, params), 0, ct)
        outer, _ = integrate.quad(lambda x: lapmix_pdf(x, params), ct, np.inf)
        assert 2 * (inner + outer) == pytest.approx(1.0, abs=1e-8)

    def test_cdf_limits_and_symmetry(self):
        for params in (PRESET_A, PARAM_GRID[3]):
            assert lapmix_cdf(0.0, params) == pytest.approx(0.5, abs=1e-14)
            assert lapmix_cdf(-1e6, params) == pytest.approx(0.0, abs=1e-200)
            assert lapmix_cdf(1e6, params) == pytest.approx(1.0, abs=1e-12)

    def test_cdf_preset_value(self):
        assert lapmix_cdf(-5.0, PRESET_A) == pytest.approx(0.05212998346563599, rel=1e-12)

    @pytest.mark.parametrize("params", PARAM_GRID)
    def test_cdf_monotone_and_continuous(self, params):
        ct = params.break_point
        xs = np.sort(np.concatenate([
            np.linspace(-4 * ct - 30, 4 * ct + 30, 10_000),
            [-ct - 1e-9, -ct, -ct + 1e-9, ct - 1e-9, ct, ct + 1e-9],
        ]))
        vals = lapmix_cdf(xs, params)
        assert np.all(np.diff(vals) >= -1e-15)
        # no step at the break-point
        for x0 in (-ct, ct):
            lo = lapmix_cdf(x0 - 1e-9, params)
            hi = lapmix_cdf(x0 + 1e-9, params)
            assert hi - lo < 1e-6

    @pytest.mark.parametrize("params", PARAM_GRID)
    def test_cdf_is_antiderivative_of_pdf(self, params):
        # away from the density kinks at 0 and +-c_t, where central
        # differences lose an order of accuracy
        ct = params.break_point
        xs = [
            x
            for x in np.linspace(-2 * ct, 2 * ct, 41)
            if min(abs(x - ct), abs(x + ct), abs(x)) > 0.05
        ]
        h = 1e-5
        for x in xs:
            deriv = (lapmix_cdf(x + h, params) - lapmix_cdf(x - h, params)) / (2 * h)
            assert deriv == pytest.approx(lapmix_pdf(x, params), abs=1e-6)


class TestGeometricPmf:
    def test_point_values(self):
        assert Geometric(math.e).prob(0) == pytest.approx(0.46211715726000974, rel=1e-12)
        assert Geometric(math.exp(0.2)).prob(5) == pytest.approx(0.03666580616530707, rel=1e-12)

    def test_symmetry(self):
        for k in range(0, 15):
            assert Geometric(1.7).prob(k) == Geometric(1.7).prob(-k)

    def test_invalid_alpha(self):
        with pytest.raises(InvalidParameterError):
            Geometric(1.0)
        with pytest.raises(InvalidParameterError):
            Geometric(0.5)


class TestGeoMixtureConstants:
    def test_preset_values(self):
        c = geomix_constants(PRESET_A)
        assert c.a2 == pytest.approx(1.4055531756603796, rel=1e-12)
        assert c.w1 == pytest.approx(0.11152094113830691, rel=1e-12)
        assert c.k_c == pytest.approx(-0.20277658783018981, rel=1e-12)
        assert [c.a2, c.w1, c.k_c] == pytest.approx(geomix_weights(PRESET_A), rel=1e-12)

    def test_collapse(self):
        c = geomix_constants(MixtureParams(epsilon=0.4, ratio=1.0, break_point=3.0))
        assert c.a2 == pytest.approx(1.0, abs=1e-14)
        assert c.w1 == pytest.approx(math.exp(-1.2), rel=1e-14)

    def test_non_integer_break_point_rejected(self):
        with pytest.raises(InvalidParameterError):
            geomix_constants(MixtureParams(epsilon=0.2, ratio=5.0, break_point=4.5))
        with pytest.raises(InvalidParameterError):
            GeometricMixture(MixtureParams(epsilon=0.2, ratio=5.0, break_point=4.5))

    @pytest.mark.parametrize("params", INT_PARAM_GRID)
    def test_mass_and_boundary_identities(self, params):
        c = geomix_constants(params)
        ct = params.integer_break_point()
        q1, q2 = math.exp(-params.eps_r), math.exp(-params.epsilon)
        assert c.w1 + c.a2 * (1 - q2**ct) == pytest.approx(1.0, abs=1e-12)
        # break-point step heights agree between the two pieces
        lhs = c.w1 * (1 - q1) / (1 + q1)
        rhs = c.a2 * (1 - q2) / (1 + q2) * q2**ct
        assert lhs == pytest.approx(rhs, rel=1e-12)
        # the printed k_c equals the CDF-offset form
        alt = c.w1 * q1 / (1 + q1) - c.a2 * q2 ** (ct + 1) / (1 + q2)
        assert c.k_c == pytest.approx(alt, rel=1e-10, abs=1e-14)


# r eps c_t across [700, 800], where exp(-r eps c_t) goes subnormal and then underflows,
# and r < 1 with eps c_t beyond 745, where exp(-eps c_t) underflows: as (eps, r eps, c_t)
FUSED_FAR = st.one_of(
    st.builds(
        lambda eps, reps_ct, ct: (eps, reps_ct / ct, ct),
        st.floats(0.05, 5.0), st.floats(700.0, 800.0), st.integers(2, 80),
    ),
    st.builds(
        lambda eps_ct, ratio, ct: (eps_ct / ct, ratio * eps_ct / ct, ct),
        st.floats(745.0, 900.0), st.floats(0.05, 0.99), st.integers(2, 80),
    ),
)


class TestFusedInLogs:
    """The mixtures where the weights fused in linear doubles lost digits or were refused."""

    @settings(max_examples=60, deadline=None)
    @given(point=FUSED_FAR, family=st.sampled_from(["geomix", "rounded lapmix"]))
    @example(point=(3.0, 9.9, 75), family="geomix")
    @example(point=(43.88, 13.18, 18), family="geomix")
    def test_losses_budget_and_stats(self, point, family):
        eps, reps, ct = point
        params = MixtureParams(epsilon=eps, ratio=reps / eps, break_point=float(ct))
        if family == "geomix":
            spec = GeometricMixture(params)
            law = spec.lattice()
            assert zeta_empirical(spec) == pytest.approx(spec.zeta(), rel=1e-9)
            spec.stats()  # refused unless every statistic is finite
        else:
            spec = LaplaceMixture(params)
            law = spec.rounded_lattice()
            assert math.isfinite(law.zeta(1))
            assert all(math.isfinite(v) for v in law.stats())
        log_mass = law.log_mass(np.arange(ct + 12.0))
        assert np.all(np.isfinite(log_mass))
        assert np.all(np.abs(np.diff(log_mass)) <= spec.worst_case_eps() * (1 + 1e-12))

    @pytest.mark.parametrize("eps, reps, ct", [(3.0, 9.9, 75), (2.0, 20.0, 37)])
    def test_the_loss_at_the_break_point_is_the_outer_rate(self, eps, reps, ct):
        # r eps c_t is 742.5 and 740: exp(-r eps c_t) is subnormal, and the linear weights
        # read losses of 9.90584 and 20.00258 here, beyond the worst case
        spec = GeometricMixture(MixtureParams(epsilon=eps, ratio=reps / eps, break_point=ct))
        law = spec.lattice()
        assert law.log_mass(ct) - law.log_mass(ct + 1) == pytest.approx(reps, rel=1e-13)
        assert privacy_loss(spec, ct + 1) == pytest.approx(reps, rel=1e-13)

    def test_outer_piece_beyond_an_underflowed_inner_tail(self):
        # r < 1 and eps c_t = 790: exp(-eps c_t) underflows, and the linear outer weight was
        # 0, so an outcome beyond c_t was impossible at one truth and possible at the next
        spec = GeometricMixture(MixtureParams(epsilon=43.88, ratio=13.18 / 43.88, break_point=18.0))
        assert spec.zeta() == pytest.approx(43.88, rel=1e-15)
        assert zeta_empirical(spec) == pytest.approx(43.88, rel=1e-13)
        assert privacy_loss(spec, 18) == pytest.approx(43.88, rel=1e-13)
        assert math.isfinite(spec.lattice().log_mass(19))


class TestConstantsLimits:
    @pytest.mark.parametrize(
        "constants, weights",
        [(lapmix_constants, lapmix_weights), (geomix_constants, geomix_weights)],
        ids=["lapmix_constants", "geomix_constants"],
    )
    @pytest.mark.parametrize(
        "params",
        [
            # outer tail exp(-800) underflows to 0
            MixtureParams(epsilon=2.0, ratio=10.0, break_point=40.0),
            # both tails underflow
            MixtureParams(epsilon=20.0, ratio=1.0, break_point=40.0),
        ],
    )
    def test_underflow_is_a_typed_error(self, constants, weights, params):
        # Once refused because the linear mass underflowed; the weights are now fused in
        # logs, so the point works and matches the definition.
        c = constants(params)
        a2, w1, k_c = weights(params)
        assert c.a2 == pytest.approx(float(a2), rel=1e-12)
        assert c.log_w1 == pytest.approx(float(mp.log(w1)), rel=1e-13)
        assert c.k_c == pytest.approx(float(k_c), rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("constants", [lapmix_constants, geomix_constants])
    def test_subnormal_outer_tail_still_works(self, constants):
        # exp(-740) is subnormal, but the mass is dominated by the inner piece.
        c = constants(MixtureParams(epsilon=2.0, ratio=9.25, break_point=40.0))
        assert all(math.isfinite(v) for v in vars(c).values())

    def test_lattice_decay_rounding_to_one_is_a_typed_error(self):
        with pytest.raises(InvalidParameterError, match="rounds to 1"):
            geomix_constants(MixtureParams(epsilon=1e-17, ratio=2.0, break_point=3.0))

    def test_inner_dominated_geomix_has_no_nan(self):
        # the outer weight at 0 would be about 1e300 and alpha1**-17 underflows, so
        # their product is inf * 0 = nan; pmf(17) is 1.366e-36 in 60-digit arithmetic.
        params = MixtureParams(epsilon=2.305, ratio=19.74, break_point=16.0)
        ks = np.arange(-400, 401)
        pmf = GeometricMixture(params).prob(ks)
        assert not np.any(np.isnan(pmf))
        assert GeometricMixture(params).prob(17) == pytest.approx(1.3664005e-36, rel=1e-6, abs=0)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
        cdf = GeometricMixture(params).cdf(ks)
        assert not np.any(np.isnan(cdf))
        assert np.allclose(cdf, np.cumsum(pmf), rtol=0, atol=1e-12)

    def test_inner_dominated_lapmix_outer_piece(self):
        # r eps c_t is 728, so the outer piece's weight at 0 would be 7.2e298 and
        # exp(-r eps c_t) is subnormal.  The values are the definition's (see
        # ``lapmix_weights``) in 60-digit arithmetic.
        params = MixtureParams(epsilon=2.305, ratio=19.74, break_point=16.0)
        assert lapmix_pdf(17, params) == pytest.approx(1.9237893170488488e-36, rel=1e-9, abs=0)
        assert lapmix_cdf(-17, params) == pytest.approx(4.228043342297698e-38, rel=1e-9, abs=0)
        xs = np.linspace(-40, 40, 801)
        assert not np.any(np.isnan(lapmix_pdf(xs, params)))
        assert np.all(np.diff(lapmix_cdf(xs, params)) >= 0)

    @pytest.mark.parametrize("constants", [lapmix_constants, geomix_constants])
    def test_caches_are_bounded(self, constants):
        constants.cache_clear()
        for i in range(CONSTANTS_CACHE_SIZE + 10):
            constants(MixtureParams(epsilon=0.1 + 1e-4 * i, ratio=2.0, break_point=3.0))
        info = constants.cache_info()
        assert info.maxsize == CONSTANTS_CACHE_SIZE
        assert info.currsize == CONSTANTS_CACHE_SIZE
        constants.cache_clear()


class TestGeoMixturePmfCdf:
    def test_preset_point_values(self):
        assert GeometricMixture(PRESET_A).prob(0) == pytest.approx(0.14008866635680833, rel=1e-12)
        assert GeometricMixture(PRESET_A).prob(5) == pytest.approx(0.05153574029379527, rel=1e-12)
        assert GeometricMixture(PRESET_A).prob(6) == pytest.approx(0.018958939339637985, rel=1e-12)
        # decay across the break-point happens at the outer rate
        ratio = GeometricMixture(PRESET_A).prob(5) / GeometricMixture(PRESET_A).prob(6)
        assert math.log(ratio) == pytest.approx(PRESET_A.eps_r, abs=2e-4)

    def test_collapse(self):
        params = MixtureParams(epsilon=0.3, ratio=1.0, break_point=4.0)
        ks = np.arange(-30, 31)
        assert np.allclose(
            GeometricMixture(params).prob(ks), Geometric(math.exp(0.3)).prob(ks), atol=1e-15
        )

    @pytest.mark.parametrize("params", INT_PARAM_GRID)
    def test_pmf_sums_to_one(self, params):
        # window chosen from the outer decay so the untouched tail is < 1e-12
        reach = params.integer_break_point() + int(40 / min(params.epsilon, params.eps_r)) + 40
        ks = np.arange(-reach, reach + 1)
        assert GeometricMixture(params).prob(ks).sum() == pytest.approx(1.0, abs=1e-10)

    def test_cdf_preset_value(self):
        assert GeometricMixture(PRESET_A).cdf(-6) == pytest.approx(0.029992600422255825, rel=1e-12)

    def test_cdf_symmetry_at_half(self):
        p0 = GeometricMixture(PRESET_A).prob(0)
        assert GeometricMixture(PRESET_A).cdf(-0.5) == pytest.approx((1 - p0) / 2, rel=1e-12)
        assert GeometricMixture(PRESET_A).cdf(math.inf) == pytest.approx(1.0)

    def test_three_way_split(self):
        below = GeometricMixture(PRESET_A).cdf(-1)
        at = GeometricMixture(PRESET_A).prob(0)
        above = 1 - GeometricMixture(PRESET_A).cdf(0)
        assert below + at + above == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("params", INT_PARAM_GRID)
    def test_cdf_matches_running_pmf_sum(self, params):
        reach = params.integer_break_point() + int(40 / min(params.epsilon, params.eps_r)) + 40
        ks = np.arange(-reach, reach + 1)
        running = np.cumsum(GeometricMixture(params).prob(ks))
        cdf_vals = GeometricMixture(params).cdf(ks)
        lower = float(GeometricMixture(params).cdf(-reach - 1))
        assert np.allclose(cdf_vals, running + lower, atol=1e-10)

    def test_cdf_right_continuous_step(self):
        # constant between integers, jumps at them
        assert GeometricMixture(PRESET_A).cdf(2.0) == GeometricMixture(PRESET_A).cdf(2.7)
        assert GeometricMixture(PRESET_A).cdf(3.0) > GeometricMixture(PRESET_A).cdf(2.99)

    @pytest.mark.parametrize("params", INT_PARAM_GRID)
    def test_cdf_monotone(self, params):
        xs = np.linspace(-60, 60, 10_000)
        vals = GeometricMixture(params).cdf(xs)
        assert np.all(np.diff(vals) >= -1e-15)


# Each integer family's mass function and CDF in closed form: oracles for its lattice law.
def geometric_pmf_oracle(k, alpha):
    return (alpha - 1.0) / (alpha + 1.0) * np.power(alpha, -np.abs(k))


def geometric_cdf_oracle(x, alpha):
    # q^m / (1 + q) with q = 1/alpha, raised as alpha^-m: a rounded q is off by m ulps
    ks = np.floor(x)
    neg = ks < 0
    tail = np.power(alpha, -np.where(neg, -ks, ks + 1.0)) / (1.0 + 1.0 / alpha)
    return np.where(neg, tail, 1.0 - tail)


def rounded_laplace_pmf_oracle(k, scale):
    """nan where the factor exp(-|k| eps) is subnormal, and so has lost its digits."""
    eps, ak = 1.0 / scale, np.abs(k)
    decay = np.exp(-ak * eps)
    decay[decay < sys.float_info.min] = np.nan
    off = 0.5 * (math.exp(0.5 * eps) - math.exp(-0.5 * eps)) * decay
    return np.where(ak == 0, 1.0 - math.exp(-0.5 * eps), off)


def rounded_laplace_cdf_oracle(x, scale):
    return laplace_cdf(np.floor(x) + 0.5, scale)


def _geomix_oracle_pieces(params):
    c = geomix_constants(params)
    q1, q2 = math.exp(-params.eps_r), math.exp(-params.epsilon)
    return c, q1, q2, params.outer_scale, params.inner_scale


def geomix_pmf_oracle(k, params):
    c, q1, q2, b1, b2 = _geomix_oracle_pieces(params)
    ct, m = params.break_point, np.abs(k)
    inner = c.a2 * (1.0 - q2) / (1.0 + q2) * np.exp(-m / b2)
    outer = np.exp(c.log_w1 - (np.maximum(m, ct) - ct) / b1) * (1.0 - q1) / (1.0 + q1)
    return np.where(m <= ct, inner, outer)


def geomix_cdf_oracle(x, params):
    c, q1, q2, b1, b2 = _geomix_oracle_pieces(params)
    ct = params.break_point
    start = ct + 1.0
    ks = np.floor(x)
    lower = ks < 0
    m = np.where(lower, -ks, ks + 1.0)
    outer = np.exp(c.log_w1 - (np.maximum(m, start) - ct) / b1) / (1.0 + q1)
    # 0 from the break-point out; within it both exponentials come from np.exp, whose
    # result can differ from math.exp's by an ulp, which once left a residue at m = start
    inner = c.a2 / (1.0 + q2) * np.where(m < start, np.exp(-m / b2) - np.exp(-start / b2), 0.0)
    tail = np.minimum(outer + inner, 0.5)
    return np.where(lower, tail, 1.0 - tail)


def assert_matches_where_normal(got, want):
    """Equal to 1e-12 relative wherever ``want`` is a normal double."""
    normal = np.abs(want) >= sys.float_info.min
    assert normal.any()
    np.testing.assert_allclose(got[normal], want[normal], rtol=1e-12, atol=0)


def _cells(reach):
    """Every integer within +-reach (at most +-20000), and the halves between the first few."""
    reach = min(reach, 20_000)
    return np.arange(-reach, reach + 1, dtype=float), np.arange(-40.5, 41.0)


class TestLatticeLaw:
    """Each integer family's pmf and CDF, read from its runs, against its closed forms."""

    @settings(max_examples=60, deadline=None)
    @given(eps=st.floats(0.01, 20.0))
    @example(eps=1.0)
    def test_geometric(self, eps):
        spec, alpha = Geometric(math.exp(eps)), math.exp(eps)
        ks, xs = _cells(int(750 / eps) + 2)
        assert_matches_where_normal(spec.prob(ks), geometric_pmf_oracle(ks, alpha))
        for x in (ks, xs):
            assert_matches_where_normal(spec.cdf(x), geometric_cdf_oracle(x, alpha))

    @settings(max_examples=60, deadline=None)
    @given(eps=st.floats(0.01, 700.0))
    @example(eps=0.3318)
    def test_rounded_laplace(self, eps):
        spec = RoundedLaplace(1.0 / eps)
        ks, xs = _cells(int(750 / eps) + 2)
        assert_matches_where_normal(spec.prob(ks), rounded_laplace_pmf_oracle(ks, 1.0 / eps))
        for x in (ks, xs):
            assert_matches_where_normal(spec.cdf(x), rounded_laplace_cdf_oracle(x, 1.0 / eps))

    @settings(max_examples=60, deadline=None)
    @given(eps=st.floats(0.01, 5.0), ratio=st.floats(0.1, 50.0), ct=st.integers(1, 40))
    @example(eps=0.2, ratio=5.0, ct=5)
    @example(eps=2.305, ratio=19.74, ct=16)  # r eps c_t = 728
    @example(eps=2.0, ratio=10.0, ct=40)  # r eps c_t = 800
    @example(eps=1.0896258747399452, ratio=9.0, ct=6)  # the oracle left a residue at c_t + 1
    # the outer run's log height at 0, r eps c_t = 4885 and rounded there, lost 1e-12 at c_t + 1
    @example(eps=2.794751766876965, ratio=46.0, ct=38)
    def test_geometric_mixture(self, eps, ratio, ct):
        params = MixtureParams(epsilon=eps, ratio=ratio, break_point=float(ct))
        spec = GeometricMixture(params)
        ks, xs = _cells(ct + int(750 / min(eps, params.eps_r)) + 2)
        assert_matches_where_normal(spec.prob(ks), geomix_pmf_oracle(ks, params))
        for x in (ks, xs):
            assert_matches_where_normal(spec.cdf(x), geomix_cdf_oracle(x, params))

    def test_far_rounded_laplace(self):
        # exp(eps / 2) overflows a double; the law is a point mass at 0
        spec = RoundedLaplace(1.0 / 1500)
        assert spec.prob(0) == 1.0
        assert spec.prob(1) == 0.0
        assert spec.cdf(-1) == 0.0 and spec.cdf(0) == 1.0
        assert spec.lattice().log_mass(3) == pytest.approx(-3750.0 - math.log(2.0), rel=1e-15)

    @pytest.mark.parametrize(
        "spec", [Geometric(1.7), RoundedLaplace(2.0), GeometricMixture(PRESET_A)]
    )
    def test_integers_only(self, spec):
        with pytest.raises(InvalidParameterError, match="integers only"):
            spec.prob(0.5)
        with pytest.raises(InvalidParameterError, match="integers only"):
            spec.prob(np.array([1.0, math.nan]))

    @pytest.mark.parametrize(
        "spec", [Laplace(2.0), LaplaceMixture(PRESET_A), TruncatedLaplace(2.0, 3.0)],
        ids=lambda spec: spec.kind,
    )
    def test_grid_points_only(self, spec):
        # the mass function of what is released, on the grid of 1/8: off it there is no cell
        assert spec.prob(0.375) == math.exp(spec.grid_law().log_mass(3))
        with pytest.raises(InvalidParameterError):
            spec.prob(0.3)


# Rounded Laplace mixtures: c_t below 1/2 (cell 0 straddles it), a half-integer (no
# cell does), integers and general floats; an outer weight at 0 near 1e301; r eps =
# 1500, where sinh(r eps / 2) overflows.
ROUNDED_POINTS = [
    PRESET_A,
    MixtureParams(epsilon=0.2, ratio=5.0, break_point=0.25),
    MixtureParams(epsilon=1.0, ratio=3.0, break_point=0.5),
    MixtureParams(epsilon=1.0, ratio=3.0, break_point=2.5),
    MixtureParams(epsilon=1.0, ratio=3.0, break_point=2.0),
    MixtureParams(epsilon=0.9, ratio=10.0, break_point=3.3),
    MixtureParams(epsilon=0.01, ratio=6829.0, break_point=10.25),
    MixtureParams(epsilon=5.0, ratio=300.0, break_point=0.4),
]


def rounded_zeta_oracle(params, reach=400):
    """ln sum_k max(P(k - 1), P(k)^2 / P(k - 1)) over |k| <= reach, the cells being
    lapmix CDF differences read on the lower half; those that underflow are left out."""
    m = -np.abs(np.arange(-reach - 1, reach + 1, dtype=float))
    cells = lapmix_cdf(m + 0.5, params) - lapmix_cdf(m - 0.5, params)
    cells = cells[cells > 0.0]
    here, before = cells[1:], cells[:-1]
    return math.log(math.fsum(np.maximum(before, here * here / before)))


class TestRoundedLaplaceMixture:
    """``LaplaceMixture.rounded_lattice``: the law of a draw rounded half away from zero."""

    @pytest.mark.parametrize("params", ROUNDED_POINTS, ids=str)
    def test_cells_are_cdf_differences(self, params):
        ks = np.arange(-200, 201, dtype=float)
        cells = np.exp(LaplaceMixture(params).rounded_lattice().log_mass(ks))
        want = lapmix_cdf(ks + 0.5, params) - lapmix_cdf(ks - 0.5, params)
        np.testing.assert_allclose(cells, want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("params", ROUNDED_POINTS, ids=str)
    def test_cdf_is_the_mixture_cdf_half_a_cell_up(self, params):
        ks = np.arange(-200, 201, dtype=float)
        got = LaplaceMixture(params).rounded_lattice().cdf(ks)
        np.testing.assert_allclose(got, lapmix_cdf(ks + 0.5, params), rtol=0, atol=1e-15)

    def test_cdf_across_the_straddling_cell(self):
        # the rate-0 run of cell 5 once read nan here: expm1(0) / expm1(0)
        law = LaplaceMixture(PRESET_A).rounded_lattice()
        assert law.cdf(2) == pytest.approx(lapmix_cdf(2.5, PRESET_A), rel=1e-15)
        assert law.cdf(2) == pytest.approx(0.7788, abs=1e-4)

    @pytest.mark.parametrize(
        "ct, firsts, rates",
        [
            (5.0, (0, 1, 5, 6), (0.0, 0.2, 0.0, 1.0)),  # cell 5 straddles c_t
            (5.5, (0, 1, 6), (0.0, 0.2, 1.0)),
            (1.5, (0, 1, 2), (0.0, 0.2, 1.0)),
            (1.0, (0, 1, 2), (0.0, 0.0, 1.0)),  # no inner run
            (0.5, (0, 1), (0.0, 1.0)),
            (0.25, (0, 1), (0.0, 1.0)),  # cell 0 straddles c_t
        ],
    )
    def test_runs(self, ct, firsts, rates):
        params = MixtureParams(epsilon=0.2, ratio=5.0, break_point=ct)
        runs = LaplaceMixture(params).rounded_lattice().runs
        assert tuple(run[0] for run in runs) == firsts
        assert tuple(run[2] for run in runs) == pytest.approx(rates, rel=1e-15)

    @pytest.mark.parametrize(
        "eps, reps, ct, zeta, half_unit",
        [
            (4.99, 14.27, 3.0, 3.319, 5e-4),
            (1.0, 3.0, 2.0, 1.176, 5e-4),
            (0.2, 1.0, 5.0, 0.3096, 5e-5),
            (0.9, 9.0, 3.0, 2.825, 5e-4),
        ],
    )
    def test_zeta_of_the_rounded_release(self, eps, reps, ct, zeta, half_unit):
        # the "width 1" column of ROADMAP.md's table of released-output charges,
        # to its four figures
        params = MixtureParams(epsilon=eps, ratio=reps / eps, break_point=ct)
        got = LaplaceMixture(params).rounded_lattice().zeta(1)
        assert got == pytest.approx(zeta, abs=half_unit)
        assert got == pytest.approx(rounded_zeta_oracle(params), rel=1e-12)


def _or_refused(call):
    """call(), or None where it refuses with a PwmixError."""
    try:
        return call()
    except PwmixError:
        return None


def _check_cdf_values(cdf):
    """CDF values on an increasing grid: no NaN, within [0, 1], never decreasing."""
    assert not np.any(np.isnan(cdf))
    assert np.all((cdf >= 0.0) & (cdf <= 1.0))
    assert np.all(np.diff(cdf) >= 0.0)


def _check_mixture(spec):
    """Each member of a mixture spec refuses with a PwmixError or gives a sound answer.

    No warning escapes either: the suite turns every RuntimeWarning into an error.
    """
    p = spec.params
    ct = p.break_point
    reach = ct + 40.0 / min(p.epsilon, p.eps_r)
    if spec.cell == 1:
        xs = np.arange(-math.ceil(reach), math.ceil(reach) + 1, dtype=float)
    else:  # points of the grid, with the cells at c_t
        near_ct = round(ct / spec.cell) + np.array([-1.0, 0.0, 1.0])
        cells = np.round(np.linspace(-reach, reach, 4001) / spec.cell)
        xs = np.union1d(cells, np.append(near_ct, -near_ct)) * spec.cell
    prob = _or_refused(lambda: spec.prob(xs))
    if prob is not None:
        assert not np.any(np.isnan(prob)) and np.all(prob >= 0.0)
        if spec.cell == 1:
            assert prob.sum() == pytest.approx(1.0, abs=1e-9)
    cdf = _or_refused(lambda: spec.cdf(xs))
    if cdf is not None:
        _check_cdf_values(cdf)
    stats = _or_refused(spec.stats)
    if stats is not None:
        assert all(math.isfinite(v) for v in vars(stats).values())
    zeta = _or_refused(spec.zeta)
    if zeta is not None:
        assert math.isfinite(zeta)
        if spec.cell == 1:
            assert min(p.epsilon, p.eps_r) <= zeta <= max(p.epsilon, p.eps_r)
    draws = _or_refused(lambda: spec.draw(SeededStream(1), 1000))
    if draws is not None:
        assert not np.any(np.isnan(draws))
        assert np.array_equal(draws / spec.cell, np.round(draws / spec.cell))  # on the grid
    u = SeededStream(2).uniforms(1000)
    law = _or_refused(spec.grid_law)
    if law is not None:
        noise = law.inverse(u)  # the inverse of the grid law's step CDF, exactly
        assert np.all(law.cdf(noise - 1.0) < u) and np.all(u <= law.cdf(noise))
        assert np.array_equal(spec.cdf(noise * spec.cell), law.cdf(noise))  # the spec's law
        if spec.cell != 1:  # and it is the continuous mixture rounded to the grid
            rounded = lapmix_cdf((noise + 0.5) * spec.cell, p)
            assert np.max(np.abs(law.cdf(noise) - rounded)) <= 1e-12
        charge = spec.charge()
        assert 0.0 < charge < math.inf


def _check_one_piece(spec, reach, continuous_cdf=None):
    """The mass, CDF and draws of a one-piece family, read at the points of its grid; its mass
    beyond ``reach`` is below e^-40.  ``continuous_cdf`` is the law that its grid law rounds
    half away from zero, read at each cell's upper edge."""
    cells = math.ceil(reach / spec.cell)
    xs = np.arange(-cells, cells + 1) * spec.cell
    assert spec.prob(xs).sum() == pytest.approx(1.0, abs=1e-9)
    cdf = spec.cdf(xs)
    _check_cdf_values(cdf)
    if continuous_cdf is not None:
        assert np.max(np.abs(cdf - continuous_cdf(xs + spec.cell / 2))) <= 1e-12
    draws = spec.draw(SeededStream(1), 1000)
    assert draws.dtype == (np.int64 if spec.cell == 1 else np.float64)
    assert not np.any(np.isnan(draws))
    assert np.array_equal(draws / spec.cell, np.round(draws / spec.cell))  # on the grid
    assert not np.any(np.signbit(draws) & (draws == 0))  # no -0.0


mixture_points = settings(max_examples=200, deadline=None)
mixture_eps = st.floats(1e-3, 50.0)
mixture_ratio = st.floats(0.05, 50.0)


class TestMixtureProperties:
    @mixture_points
    @given(eps=mixture_eps, ratio=mixture_ratio, ct=st.floats(0.1, 40.0))
    def test_laplace_mixture(self, eps, ratio, ct):
        _check_mixture(LaplaceMixture(MixtureParams(epsilon=eps, ratio=ratio, break_point=ct)))

    @mixture_points
    @given(eps=mixture_eps, ratio=mixture_ratio, ct=st.integers(1, 40))
    # at r = 1 the rounded closed-form zeta fell 1 ulp outside [eps, r eps]
    @example(eps=1.0, ratio=1.0, ct=11)
    @example(eps=0.875, ratio=1.0, ct=1)
    def test_geometric_mixture(self, eps, ratio, ct):
        params = MixtureParams(epsilon=eps, ratio=ratio, break_point=float(ct))
        _check_mixture(GeometricMixture(params))


class TestStandardProperties:
    """What TestMixtureProperties checks, for the standard families."""

    @mixture_points
    @given(eps=mixture_eps, kind=st.sampled_from(["laplace", "rlaplace", "geometric"]))
    def test_private_family(self, eps, kind):
        spec = spec_from_dict({"kind": kind, "eps": eps})
        continuous = None if kind == "geometric" else (lambda x: laplace_cdf(x, 1.0 / eps))
        _check_one_piece(spec, 40.0 / eps + 40.0, continuous)
        assert all(math.isfinite(v) for v in vars(spec.stats()).values())
        assert math.isfinite(spec.zeta())

    @mixture_points
    @given(eps=mixture_eps, bound=st.floats(0.1, 40.0))
    def test_truncated_laplace(self, eps, bound):
        spec = TruncatedLaplace(scale=1.0 / eps, bound=bound, allow_unsafe=True)
        _check_one_piece(spec, bound, lambda x: truncated_laplace_cdf(x, 1.0 / eps, bound))
        with pytest.raises(UnsupportedSpecError):
            spec.stats()


class TestSpecValidation:
    def test_params_validation(self):
        with pytest.raises(InvalidParameterError):
            MixtureParams(epsilon=0.0, ratio=1.0, break_point=1.0)
        with pytest.raises(InvalidParameterError):
            MixtureParams(epsilon=0.1, ratio=-2.0, break_point=1.0)
        with pytest.raises(InvalidParameterError):
            MixtureParams(epsilon=0.1, ratio=1.0, break_point=0.0)

    def test_spec_validation(self):
        with pytest.raises(InvalidParameterError):
            Laplace(scale=0.0)
        with pytest.raises(InvalidParameterError):
            Geometric(alpha=1.0)
        with pytest.raises(InvalidParameterError):
            TruncatedLaplace(scale=1.0, bound=0.0)


# The label of each family as every report, ledger entry and CLI row shows it.
GOLDEN_LABELS = [
    ({"kind": "laplace", "eps": 0.332}, "laplace(b=3.01205)"),
    ({"kind": "rlaplace", "eps": 0.332}, "rlaplace(b=3.01205)"),
    ({"kind": "geometric", "eps": 0.332}, "geometric(alpha=1.39375)"),
    ({"kind": "lapmix", "eps": 0.2, "reps": 1, "ct": 5}, "lapmix(eps=0.2,reps=1,ct=5)"),
    ({"kind": "lapmix", "eps": 0.5, "reps": 1.5, "ct": 2.5}, "lapmix(eps=0.5,reps=1.5,ct=2.5)"),
    ({"kind": "geomix", "eps": 0.1, "reps": 1, "ct": 6}, "geomix(eps=0.1,reps=1,ct=6)"),
    ({"kind": "trunclap", "eps": 0.5, "ct": 4, "unsafe": True}, "trunclap(b=2,c=4)"),
]


class TestLabels:
    @pytest.mark.parametrize("doc, label", GOLDEN_LABELS)
    def test_golden_label(self, doc, label):
        spec = spec_from_dict(doc)
        assert spec.label == label
        rel = release(3, spec, SeededStream(1))
        assert release_to_json(rel, query="q", zeta_charged=1.0)["mechanism"] == label
