import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

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
    TruncatedLaplace,
    geometric_pmf,
    geomix_cdf,
    geomix_constants,
    geomix_pmf,
    laplace_pdf,
    lapmix_cdf,
    lapmix_constants,
    lapmix_pdf,
)
from pwmix.sampling import SeededStream

from conftest import INT_PARAM_GRID, PARAM_GRID, PRESET_A


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


class TestLapMixtureConstants:
    def test_preset_values(self):
        c = lapmix_constants(PRESET_A)
        assert c.a1 == pytest.approx(15.473551060200245, rel=1e-12)
        assert c.a2 == pytest.approx(1.4170398677250882, rel=1e-12)
        assert c.k_c == pytest.approx(-0.208519933862544, rel=1e-12)

    def test_equal_scales_collapse(self):
        c = lapmix_constants(MixtureParams(epsilon=0.3, ratio=1.0, break_point=7.0))
        assert c.a1 == pytest.approx(1.0, abs=1e-14)
        assert c.a2 == pytest.approx(1.0, abs=1e-14)
        assert c.k_c == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("params", PARAM_GRID)
    def test_identities(self, params):
        c = lapmix_constants(params)
        b1, b2, ct = params.outer_scale, params.inner_scale, params.break_point
        mass = c.a1 * math.exp(-ct / b1) + c.a2 * (1 - math.exp(-ct / b2))
        assert mass == pytest.approx(1.0, abs=1e-12)
        left = c.a1 / (2 * b1) * math.exp(-ct / b1)
        right = c.a2 / (2 * b2) * math.exp(-ct / b2)
        assert left == pytest.approx(right, rel=1e-12)
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
        assert geometric_pmf(0, math.e) == pytest.approx(0.46211715726000974, rel=1e-12)
        assert geometric_pmf(5, math.exp(0.2)) == pytest.approx(0.03666580616530707, rel=1e-12)

    def test_symmetry(self):
        for k in range(0, 15):
            assert geometric_pmf(k, 1.7) == geometric_pmf(-k, 1.7)

    def test_invalid_alpha(self):
        with pytest.raises(InvalidParameterError):
            geometric_pmf(0, 1.0)
        with pytest.raises(InvalidParameterError):
            geometric_pmf(0, 0.5)


class TestGeoMixtureConstants:
    def test_preset_values(self):
        c = geomix_constants(PRESET_A)
        assert c.a1 == pytest.approx(16.551175180428622, rel=1e-12)
        assert c.a2 == pytest.approx(1.4055531756603794, rel=1e-12)

    def test_collapse(self):
        c = geomix_constants(MixtureParams(epsilon=0.4, ratio=1.0, break_point=3.0))
        assert c.a1 == pytest.approx(1.0, abs=1e-14)
        assert c.a2 == pytest.approx(1.0, abs=1e-14)

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
        assert c.a1 * q1**ct + c.a2 * (1 - q2**ct) == pytest.approx(1.0, abs=1e-12)
        # break-point step heights agree between the two pieces
        lhs = c.a1 * (1 - q1) / (1 + q1) * q1**ct
        rhs = c.a2 * (1 - q2) / (1 + q2) * q2**ct
        assert lhs == pytest.approx(rhs, rel=1e-12)
        # the printed k_c equals the CDF-offset form
        alt = c.a1 * q1 ** (ct + 1) / (1 + q1) - c.a2 * q2 ** (ct + 1) / (1 + q2)
        assert c.k_c == pytest.approx(alt, rel=1e-10, abs=1e-14)


class TestConstantsLimits:
    @pytest.mark.parametrize("constants", [lapmix_constants, geomix_constants])
    @pytest.mark.parametrize(
        "params",
        [
            # outer tail exp(-800) underflows to 0
            MixtureParams(epsilon=2.0, ratio=10.0, break_point=40.0),
            # both tails underflow
            MixtureParams(epsilon=20.0, ratio=1.0, break_point=40.0),
        ],
    )
    def test_underflow_is_a_typed_error(self, constants, params):
        with pytest.raises(InvalidParameterError, match="underflows"):
            constants(params)

    @pytest.mark.parametrize("constants", [lapmix_constants, geomix_constants])
    def test_subnormal_outer_tail_still_works(self, constants):
        # exp(-740) is subnormal, but the mass is dominated by the inner piece.
        c = constants(MixtureParams(epsilon=2.0, ratio=9.25, break_point=40.0))
        assert all(math.isfinite(v) for v in vars(c).values())

    def test_lattice_decay_rounding_to_one_is_a_typed_error(self):
        with pytest.raises(InvalidParameterError, match="rounds to 1"):
            geomix_constants(MixtureParams(epsilon=1e-17, ratio=2.0, break_point=3.0))

    def test_inner_dominated_geomix_has_no_nan(self):
        # a1 is about 1e300 and alpha1**-17 underflows, so the direct product
        # a1 * (alpha1 - 1) * alpha1**-17 is inf * 0 = nan; pmf(17) is
        # 1.366e-36 in 60-digit arithmetic.
        params = MixtureParams(epsilon=2.305, ratio=19.74, break_point=16.0)
        ks = np.arange(-400, 401)
        pmf = geomix_pmf(ks, params)
        assert not np.any(np.isnan(pmf))
        assert geomix_pmf(17, params) == pytest.approx(1.3664005e-36, rel=1e-6, abs=0)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
        cdf = geomix_cdf(ks, params)
        assert not np.any(np.isnan(cdf))
        assert np.allclose(cdf, np.cumsum(pmf), rtol=0, atol=1e-12)

    def test_inner_dominated_lapmix_outer_piece(self):
        # a1 is 7.2e298 and exp(-17/b1) underflows, so the direct product
        # a1 * exp(-17/b1) reads 0; the density is 1.92378933344e-36 in
        # 60-digit arithmetic.
        params = MixtureParams(epsilon=2.305, ratio=19.74, break_point=16.0)
        assert lapmix_pdf(17, params) == pytest.approx(1.92378933343978557e-36, rel=1e-9, abs=0)
        assert lapmix_cdf(-17, params) == pytest.approx(4.2280433783e-38, rel=1e-9, abs=0)
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
        assert geomix_pmf(0, PRESET_A) == pytest.approx(0.14008866635680833, rel=1e-12)
        assert geomix_pmf(5, PRESET_A) == pytest.approx(0.05153574029379527, rel=1e-12)
        assert geomix_pmf(6, PRESET_A) == pytest.approx(0.018958939339637985, rel=1e-12)
        # decay across the break-point happens at the outer rate
        ratio = geomix_pmf(5, PRESET_A) / geomix_pmf(6, PRESET_A)
        assert math.log(ratio) == pytest.approx(PRESET_A.eps_r, abs=2e-4)

    def test_collapse(self):
        params = MixtureParams(epsilon=0.3, ratio=1.0, break_point=4.0)
        ks = np.arange(-30, 31)
        assert np.allclose(
            geomix_pmf(ks, params), geometric_pmf(ks, math.exp(0.3)), atol=1e-15
        )

    @pytest.mark.parametrize("params", INT_PARAM_GRID)
    def test_pmf_sums_to_one(self, params):
        # window chosen from the outer decay so the untouched tail is < 1e-12
        reach = params.integer_break_point() + int(40 / min(params.epsilon, params.eps_r)) + 40
        ks = np.arange(-reach, reach + 1)
        assert geomix_pmf(ks, params).sum() == pytest.approx(1.0, abs=1e-10)

    def test_cdf_preset_value(self):
        assert geomix_cdf(-6, PRESET_A) == pytest.approx(0.029992600422255825, rel=1e-12)

    def test_cdf_symmetry_at_half(self):
        p0 = geomix_pmf(0, PRESET_A)
        assert geomix_cdf(-0.5, PRESET_A) == pytest.approx((1 - p0) / 2, rel=1e-12)
        assert geomix_cdf(math.inf, PRESET_A) == pytest.approx(1.0)

    def test_three_way_split(self):
        below = geomix_cdf(-1, PRESET_A)
        at = geomix_pmf(0, PRESET_A)
        above = 1 - geomix_cdf(0, PRESET_A)
        assert below + at + above == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("params", INT_PARAM_GRID)
    def test_cdf_matches_running_pmf_sum(self, params):
        reach = params.integer_break_point() + int(40 / min(params.epsilon, params.eps_r)) + 40
        ks = np.arange(-reach, reach + 1)
        running = np.cumsum(geomix_pmf(ks, params))
        cdf_vals = geomix_cdf(ks, params)
        lower = float(geomix_cdf(-reach - 1, params))
        assert np.allclose(cdf_vals, running + lower, atol=1e-10)

    def test_cdf_right_continuous_step(self):
        # constant between integers, jumps at them
        assert geomix_cdf(2.0, PRESET_A) == geomix_cdf(2.7, PRESET_A)
        assert geomix_cdf(3.0, PRESET_A) > geomix_cdf(2.99, PRESET_A)

    @pytest.mark.parametrize("params", INT_PARAM_GRID)
    def test_cdf_monotone(self, params):
        xs = np.linspace(-60, 60, 10_000)
        vals = geomix_cdf(xs, params)
        assert np.all(np.diff(vals) >= -1e-15)


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
    if spec.integer:
        xs = np.arange(-math.ceil(reach), math.ceil(reach) + 1, dtype=float)
    else:
        near_ct = [ct, np.nextafter(ct, 0.0), np.nextafter(ct, np.inf)]
        near_ct += [-x for x in near_ct]
        xs = np.union1d(np.linspace(-reach, reach, 4001), near_ct)
    prob = _or_refused(lambda: spec.prob(xs))
    if prob is not None:
        assert not np.any(np.isnan(prob)) and np.all(prob >= 0.0)
        if spec.integer:
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
        if spec.integer:
            assert min(p.epsilon, p.eps_r) <= zeta <= max(p.epsilon, p.eps_r)
    draws = _or_refused(lambda: spec.draw(SeededStream(1), 1000))
    if draws is not None:
        assert not np.any(np.isnan(draws))
    u = SeededStream(2).uniforms(1000)
    noise = _or_refused(lambda: spec.inverse_cdf(u))
    if noise is not None:
        if spec.integer:  # the inverse of a step CDF, exactly
            assert np.all(spec.cdf(noise - 1.0) < u) and np.all(u <= spec.cdf(noise))
        else:
            assert np.max(np.abs(spec.cdf(noise) - u)) <= 1e-12


def _check_one_piece(spec, reach):
    """The mass, CDF and draws of a one-piece family; its mass beyond ``reach`` is below e^-40."""
    if spec.integer:
        xs = np.arange(-math.ceil(reach), math.ceil(reach) + 1, dtype=float)
        assert spec.prob(xs).sum() == pytest.approx(1.0, abs=1e-9)
    else:
        xs = np.linspace(-1.5 * reach, 1.5 * reach, 4001)
        mass = sum(integrate.quad(spec.prob, a, b, limit=200)[0] for a, b in ((-reach, 0), (0, reach)))
        assert mass == pytest.approx(1.0, abs=1e-9)
    _check_cdf_values(spec.cdf(xs))
    draws = spec.draw(SeededStream(1), 1000)
    assert draws.dtype == (np.int64 if spec.integer else np.float64)
    assert not np.any(np.isnan(draws))


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
        _check_one_piece(spec, 40.0 / eps + 40.0)
        assert all(math.isfinite(v) for v in vars(spec.stats()).values())
        assert math.isfinite(spec.zeta())

    @mixture_points
    @given(eps=mixture_eps, bound=st.floats(0.1, 40.0))
    def test_truncated_laplace(self, eps, bound):
        spec = TruncatedLaplace(scale=1.0 / eps, bound=bound, allow_unsafe=True)
        _check_one_piece(spec, bound)
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
    ({"kind": "zero"}, "zero"),
]


class TestLabels:
    @pytest.mark.parametrize("doc, label", GOLDEN_LABELS)
    def test_golden_label(self, doc, label):
        spec = spec_from_dict(doc)
        assert spec.label == label
        rel = release(3, spec, SeededStream(1))
        assert release_to_json(rel, query="q", zeta_charged=1.0)["mechanism"] == label
