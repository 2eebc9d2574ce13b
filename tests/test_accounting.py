import math
import time

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pwmix.accounting import (
    BudgetLedger,
    compose,
    equivalent_epsilon,
    privacy_loss,
    zeta_closed_form,
    zeta_empirical,
)
from pwmix.errors import BoundNotApplicableError, InvalidParameterError
from pwmix.mechanisms import (
    GRID,
    Geometric,
    GeometricMixture,
    Laplace,
    LaplaceMixture,
    MixtureParams,
    RoundedLaplace,
    TruncatedLaplace,
    _Lattice,
    laplace_cdf,
    lapmix_cdf,
    lapmix_constants,
)

from conftest import INT_PARAM_GRID, PRESET_A, PRESET_B, lapmix_definition


class TestPrivacyLoss:
    def test_geometric_constant(self):
        spec = Geometric(alpha=math.exp(0.4))
        for outcome in (-7, -1, 0, 1, 9):
            assert privacy_loss(spec, outcome) == pytest.approx(0.4, rel=1e-12)

    def test_geomix_boundary(self):
        loss = privacy_loss(GeometricMixture(PRESET_A), 6)
        assert loss == pytest.approx(1.0, abs=1e-9)
        # interior of the inner piece sees only the inner parameter
        assert privacy_loss(GeometricMixture(PRESET_A), 0) == pytest.approx(0.2, rel=1e-9)

    def test_truncated_boundary_infinite(self):
        spec = TruncatedLaplace(scale=2.0, bound=5.0, allow_unsafe=True)
        assert privacy_loss(spec, 5.0) == math.inf
        assert math.isnan(privacy_loss(spec, 100.0))

    def test_lapmix_losses_between_parameters(self):
        # on the grid a loss near 0 falls below eps (0.1937 < 0.2), as rounding mixes the
        # rates of neighbouring cells; none passes r eps
        spec = LaplaceMixture(PRESET_A)
        for outcome in np.linspace(-8, 8, 33):
            loss = privacy_loss(spec, float(outcome))
            assert 0.0 < loss <= 1.0 + 1e-9

    def test_lapmix_boundary_band_strictly_between(self):
        # a shifted pair straddling the break-point mixes the two rates: the
        # one-directional loss is strictly between the parameters
        from pwmix.mechanisms import lapmix_pdf

        for x in (5.5, 5.2, -4.5, -4.2):
            loss = abs(math.log(lapmix_pdf(x - 1, PRESET_A) / lapmix_pdf(x, PRESET_A)))
            assert 0.2 < loss < 1.0

    def test_geomix_analytic_loss_capped_by_outer(self):
        # every outcome with non-negligible mass stays at or below r*eps
        spec = GeometricMixture(PRESET_A)
        for outcome in range(-40, 41):
            if float(spec.prob(outcome)) > 1e-12:
                assert privacy_loss(spec, outcome) <= PRESET_A.eps_r + 1e-9

    @pytest.mark.parametrize(
        "spec, outcome, loss",
        [
            # the masses underflow (800) or go subnormal (740); the loss is the rate
            (Geometric(alpha=math.e), 800, 1.0),
            (Geometric(alpha=math.e), -800, 1.0),
            (Geometric(alpha=math.e), 740, 1.0),
            (GeometricMixture(MixtureParams(epsilon=1.0, ratio=3.0, break_point=5.0)), 300, 3.0),
            (RoundedLaplace(scale=1.0), 800, 1.0),
            # the densities underflow; their logs do not
            (LaplaceMixture(MixtureParams(epsilon=1.0, ratio=3.0, break_point=5.0)), 300, 3.0),
            (Laplace(scale=1.0), 800, 1.0),
        ],
    )
    def test_far_tail(self, spec, outcome, loss):
        assert privacy_loss(spec, outcome) == pytest.approx(loss, rel=1e-12)

    def test_far_tail_of_a_point_mass(self):
        spec = RoundedLaplace(scale=1 / 1500)
        assert privacy_loss(spec, 0) == pytest.approx(750.0 + math.log(2.0), rel=1e-15)
        assert privacy_loss(spec, 5) == pytest.approx(1500.0, rel=1e-15)
        assert 750.0 < zeta_empirical(spec) < 1500.0


class TestWorstCaseEps:
    def test_values(self):
        assert LaplaceMixture(PRESET_A).worst_case_eps() == pytest.approx(1.0)
        assert Geometric(alpha=math.exp(0.328)).worst_case_eps() == pytest.approx(0.328)
        assert Laplace(scale=4.0).worst_case_eps() == pytest.approx(0.25)
        assert TruncatedLaplace(scale=1.0, bound=3.0).worst_case_eps() == math.inf


class TestZetaClosedForm:
    def test_preset_values(self):
        assert zeta_closed_form(GeometricMixture(PRESET_A)) == pytest.approx(0.328, abs=5e-4)
        assert zeta_closed_form(LaplaceMixture(PRESET_A)) == pytest.approx(0.309, abs=5e-4)
        assert zeta_closed_form(RoundedLaplace(scale=1 / 0.332)) == pytest.approx(0.309, abs=5e-4)

    def test_preset_b(self):
        assert zeta_closed_form(GeometricMixture(PRESET_B)) == pytest.approx(0.257, abs=5e-4)
        assert zeta_closed_form(LaplaceMixture(PRESET_B)) == pytest.approx(0.243, abs=5e-4)

    def test_standard_identities(self):
        assert zeta_closed_form(Geometric(alpha=math.exp(0.7))) == pytest.approx(0.7, rel=1e-12)
        # plain Laplace: reported as eps directly
        assert zeta_closed_form(Laplace(scale=2.0)) == pytest.approx(0.5)

    def test_unbounded(self):
        assert zeta_closed_form(TruncatedLaplace(scale=1.0, bound=2.0)) == math.inf


class TestZetaEmpirical:
    def test_geometric_exact(self):
        for eps in (0.1, 0.328, 1.0):
            spec = Geometric(alpha=math.exp(eps))
            assert zeta_empirical(spec) == pytest.approx(eps, abs=1e-12)
            assert zeta_empirical(spec) == pytest.approx(zeta_closed_form(spec), abs=1e-12)

    def test_geomix_matches_closed_form(self):
        spec = GeometricMixture(PRESET_A)
        z = zeta_empirical(spec)
        assert z == pytest.approx(0.3281, abs=5e-4)
        assert z == pytest.approx(zeta_closed_form(spec), abs=1e-3)

    def test_geomix_grid(self):
        for params in INT_PARAM_GRID[::2]:
            spec = GeometricMixture(params)
            assert zeta_empirical(spec) == pytest.approx(zeta_closed_form(spec), abs=1e-3)

    def test_inner_dominated_extreme_point(self):
        # r eps c_t is 728: the outer weight at 0 would be about 1e300, and exp(-r eps c_t)
        # is subnormal.  The exact zeta, summed over the definition's cells in 60-digit
        # arithmetic, is 8.4227224640240199; the linear weights read 8.422722455522726.
        spec = GeometricMixture(MixtureParams(epsilon=2.305, ratio=19.74, break_point=16.0))
        assert math.isfinite(privacy_loss(spec, 17))
        assert zeta_empirical(spec) == pytest.approx(zeta_closed_form(spec), rel=1e-8)
        assert zeta_empirical(spec) == pytest.approx(8.4227224640240199, rel=1e-13)

    def test_inner_dominated_lapmix_is_finite(self):
        # the outer weight at 0 would be 7.2e298 here: the outer density must be read
        # from c_t in logs, or it reads 0 beyond c_t and the loss there is infinite
        params = MixtureParams(epsilon=2.305, ratio=19.74, break_point=16.0)
        # from c_t in logs; a loss may pass r eps by an ulp (ROADMAP item 9), as 45.50070000000001
        spec = LaplaceMixture(params)
        assert 0 < privacy_loss(spec, 16.5) <= params.eps_r * (1 + 1e-13)
        assert 0 < zeta_empirical(spec) <= params.eps_r * (1 + 1e-13)

    @pytest.mark.parametrize("eps", [1e-17, 1e-16, 709.8, 800.0])
    def test_rounded_laplace_zeta_out_of_range(self, eps):
        # exp(-eps/2) rounds to 1 below about 1.1e-16; exp(eps) overflows above 709.78
        with pytest.raises(InvalidParameterError):
            RoundedLaplace(scale=1 / eps).zeta()

    def test_rounded_laplace_matches_closed_form(self):
        for eps in (0.257, 0.332, 0.9):
            spec = RoundedLaplace(scale=1 / eps)
            assert zeta_empirical(spec) == pytest.approx(zeta_closed_form(spec), abs=1e-12)

    def test_bounds_for_mixtures(self):
        for params in (PRESET_A, PRESET_B):
            lo = min(params.epsilon, params.eps_r)
            hi = max(params.epsilon, params.eps_r)
            for spec in (GeometricMixture(params), LaplaceMixture(params)):
                assert lo <= zeta_empirical(spec) <= hi

    def test_brute_force_cross_check(self):
        # independent summation straight from the mass function
        spec = GeometricMixture(PRESET_A)
        ks = np.arange(-400, 401)
        pk = spec.prob(ks)
        total = 0.0
        for k, p in zip(ks[1:], pk[1:]):
            total += math.exp(abs(math.log(float(spec.prob(k - 1)) / p))) * p
        assert zeta_empirical(spec) == pytest.approx(math.log(total), abs=1e-12)

    def test_lapmix_rounded_release_matches_closed_form(self):
        # the closed form describes integer-rounded counting outcomes; an
        # independent cell-sum over rounding cells should land nearby
        params = PRESET_A

        def cell(k):
            k = -abs(k)  # symmetric; the lower half avoids 1 - cdf cancellation
            return float(lapmix_cdf(k + 0.5, params)) - float(lapmix_cdf(k - 0.5, params))

        total = 0.0
        for k in range(-60, 61):
            p = cell(k)
            total += math.exp(abs(math.log(cell(k - 1) / p))) * p
        assert math.log(total) == pytest.approx(zeta_closed_form(LaplaceMixture(params)), abs=2e-3)


def zeta_cell_sum(spec, shift):
    """ln sum_k max(P(k - shift), P(k)^2 / P(k - shift)), cell by cell with math.fsum.

    Each family's log mass is written out here; the sum stops where the cells
    beyond it carry less than e^-50 of the total.
    """
    if isinstance(spec, Geometric):
        rate = last_rate = math.log(spec.alpha)
        log_h, last = math.log((spec.alpha - 1) / (spec.alpha + 1)), 0

        def log_p(k):
            return log_h - rate * abs(k)

    elif isinstance(spec, RoundedLaplace):
        eps = last_rate = 1 / spec.scale
        last = 1

        def log_p(k):
            if k == 0:
                return math.log(1 - math.exp(-eps / 2))
            return math.log(math.sinh(eps / 2)) - eps * abs(k)

    else:
        c, params = spec.constants(), spec.params
        ct, last_rate = int(params.break_point), params.eps_r
        last = ct + 1

        def log_p(k):  # the outer piece read from c_t
            if abs(k) <= ct:
                return c.log_a2 + math.log(math.tanh(params.epsilon / 2)) - params.epsilon * abs(k)
            return c.log_w1 + math.log(math.tanh(last_rate / 2)) - last_rate * (abs(k) - ct)

    reach = last + shift + math.ceil(shift + 50 / last_rate)
    cells = []
    for k in range(-reach, reach + 1):
        here, there = log_p(k), log_p(k - shift)
        cells.append(math.exp(max(there, 2 * here - there)))
    return math.log(math.fsum(cells))


# A point where a sum of the window's weights and CDF tails was off by 7.6e-13 relative.
FAR_POINT = MixtureParams(epsilon=0.4494609712881677, ratio=10.907575466265854, break_point=22.0)


class TestExactZeta:
    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from([Geometric, RoundedLaplace, GeometricMixture]),
        eps=st.floats(0.02, 5.0),
        ratio=st.floats(0.1, 20.0),
        ct=st.integers(1, 30),
        shift=st.integers(1, 4),
    )
    @example(family=GeometricMixture, eps=FAR_POINT.epsilon, ratio=FAR_POINT.ratio, ct=22, shift=3)
    def test_matches_a_cell_sum(self, family, eps, ratio, ct, shift):
        if family is Geometric:
            spec = Geometric(alpha=math.exp(eps))
        elif family is RoundedLaplace:
            spec = RoundedLaplace(scale=1 / eps)
        else:
            spec = GeometricMixture(MixtureParams(epsilon=eps, ratio=ratio, break_point=ct))
        assert zeta_empirical(spec, shift) == pytest.approx(zeta_cell_sum(spec, shift), rel=1e-13)

    def test_far_point_against_a_40_digit_sum(self):
        spec = GeometricMixture(FAR_POINT)
        c, ct = spec.constants(), 22
        with mp.workdps(40):

            def p(k):
                if abs(k) <= ct:
                    rate = mp.mpf(FAR_POINT.epsilon)
                    return mp.exp(c.log_a2) * mp.tanh(rate / 2) * mp.exp(-rate * abs(k))
                rate = mp.mpf(FAR_POINT.eps_r)
                return mp.exp(c.log_w1) * mp.tanh(rate / 2) * mp.exp(-rate * (abs(k) - ct))

            # the cells beyond +-60 carry below e^-180
            exact = float(mp.log(mp.fsum(max(p(k - 3), p(k) ** 2 / p(k - 3)) for k in range(-60, 64))))
        assert exact == pytest.approx(3.44751886118557, rel=1e-14)
        assert zeta_empirical(spec, 3) == pytest.approx(exact, rel=1e-13)


def continuous_law(spec):
    """(ln density, CDF, c_t, rate) of the continuous law that a Laplace or lapmix spec's grid
    release rounds; beyond +-(c_t + s) its loss is s * rate.  The log density is read from
    c_t in logs, so no far density underflows before its loss is read."""
    if isinstance(spec, Laplace):
        b = spec.scale
        log_pdf = lambda x: -np.abs(x) / b - (math.log(2.0) + math.log(b))  # noqa: E731
        return log_pdf, (lambda x: laplace_cdf(x, b)), 0.0, 1.0 / b
    c, p = spec.constants(), spec.params
    ct, b1, b2 = p.break_point, p.outer_scale, p.inner_scale

    def log_pdf(x):
        m = np.abs(x)
        inner = c.log_a2 - math.log(2.0) - math.log(b2) - m / b2
        outer = c.log_w1 - math.log(2.0) - math.log(b1) - (m - ct) / b1
        return np.where(m <= ct, inner, outer)

    return log_pdf, (lambda x: lapmix_cdf(x, p)), ct, p.eps_r


def zeta_by_segments(spec, shift):
    """Definitional zeta of the continuous law of ``continuous_law(spec)``, ln of the integral
    of max(q, p^2 / q), q = p(x - s): ROADMAP item 1's "def." column.

    The density is symmetric, piecewise exponential and does not increase in |x|.  So between
    the kinks of ln p(x) and ln q, and x = s/2 where the loss changes sign, the integrand is
    exp of a line: read at 1/4 and 3/4 of its segment, away from the kinks where the pieces
    meet only to rounding, and integrated in closed form.  Beyond +-(c_t + s) the loss is
    ``s * rate`` and the density falls at ``rate``, so both tails hold 2 p(-c_t - s) / rate,
    taken from the log density.  Where a log density is not finite, the budget is inf.
    """
    log_p, _, ct, rate = continuous_law(spec)
    lo = -ct - shift
    cuts = np.array(sorted({lo, -ct, shift - ct, 0.0, 0.5 * shift, shift, ct, ct + shift}))
    widths = np.diff(cuts)
    x = cuts[:-1] + np.multiply.outer([0.25, 0.75], widths)
    here, there = log_p(x), log_p(x - shift)
    tail = float(log_p(lo)) + math.log(2.0) - math.log(rate)
    if not (math.isfinite(tail) and np.isfinite(here).all() and np.isfinite(there).all()):
        return math.inf
    logs = [tail + shift * rate]
    for width, g1, g3 in zip(widths.tolist(), *np.maximum(there, 2.0 * here - there).tolist()):
        rise = 2.0 * abs(g3 - g1)  # the line's change across the segment
        shape = -math.expm1(-rise) / rise if rise else 1.0
        logs.append(max(g1, g3) + 0.25 * rise + math.log(width * shape))
    top = max(logs)
    return top + math.log(math.fsum(math.exp(v - top) for v in logs))


class _Unrepresentable(Exception):
    """A density sampled by the quadrature underflows to 0."""


def zeta_by_quadrature(spec, shift):
    """Definitional zeta of a continuous law by adaptive quadrature, inf where it underflows.

    The window +-(c_t + shift) is split at the kinks of ln p(x) and ln p(x - shift) and
    at x = shift/2, where the loss changes sign; both constant-loss tails are
    exp(shift rate) 2 P(noise <= -c_t - shift).  Integrands are scaled by
    exp(-shift * worst-case eps), so no sum overflows.
    """
    log_pdf, cdf, ct, rate = continuous_law(spec)
    lo, hi = -ct - shift, ct + shift
    scale = shift * spec.worst_case_eps()

    def log_p(x):  # of the density as a double, which may underflow
        with np.errstate(divide="ignore"):
            return float(np.log(np.exp(log_pdf(x))))

    def integrand(x):
        here, there = log_p(x), log_p(x - shift)
        if there == -math.inf:
            raise _Unrepresentable
        return math.exp(max(there, 2 * here - there) - scale)

    tail = 2 * cdf(lo)
    if tail == 0:
        return math.inf
    cuts = sorted({lo, -ct, shift - ct, 0.0, shift / 2, float(shift), ct, hi})
    try:
        parts = [
            integrate.quad(integrand, a, b, limit=200, epsabs=0.0, epsrel=1e-13)[0]
            for a, b in zip(cuts, cuts[1:])
        ]
    except _Unrepresentable:
        return math.inf
    parts.append(math.exp(shift * rate - scale + math.log(tail)))
    return scale + math.log(math.fsum(parts))


# (eps, r, c_t) where r eps c_t is 728, so exp(-r eps c_t) is subnormal, and one where the
# outer density underflows as a double at shift 3
INNER_DOMINATED = MixtureParams(epsilon=2.305, ratio=19.74, break_point=16.0)
UNDERFLOW_POINT = MixtureParams(
    epsilon=4.364475138761644, ratio=46.82546617949507, break_point=0.7493030098756799
)
# Its upper tail mass is below an ulp of 1: 1 - cdf(c_t + 1) reads 0, so the tail is 2 cdf(-c_t - 1).
FAR_TAIL = MixtureParams(epsilon=0.4274, ratio=45.43, break_point=34.07)


class TestContinuousZeta:
    """The definitional zeta of the continuous Laplace and lapmix laws, which no command
    releases: the oracle ``zeta_by_segments``, an exact sum over segments."""

    @settings(max_examples=80, deadline=None)
    @given(
        family=st.sampled_from([Laplace, LaplaceMixture]),
        eps=st.floats(0.01, 5.0),
        ratio=st.floats(0.2, 50.0),
        ct=st.floats(0.05, 40.0),
        shift=st.integers(1, 3),
    )
    @example(family=LaplaceMixture, eps=2.305, ratio=19.74, ct=16.0, shift=2)
    @example(family=LaplaceMixture, eps=0.4274, ratio=45.43, ct=34.07, shift=1)
    def test_matches_quadrature(self, family, eps, ratio, ct, shift):
        if family is Laplace:
            spec = Laplace(scale=1 / eps)
        else:
            spec = LaplaceMixture(MixtureParams(epsilon=eps, ratio=ratio, break_point=ct))
        oracle = zeta_by_quadrature(spec, shift)
        assume(math.isfinite(oracle))
        assert zeta_by_segments(spec, shift) == pytest.approx(oracle, rel=1e-11)

    @pytest.mark.parametrize(
        "eps, reps, ct, zeta",
        [
            # ROADMAP item 1's "def." column, against 40-digit integrals
            (4.99, 14.27, 3.0, 4.59785255839705183),
            (1.0, 3.0, 2.0, 1.24983569853996973),
            (0.2, 1.0, 5.0, 0.312615430384150584),
            (0.9, 9.0, 3.0, 4.20901298178853438),
        ],
    )
    def test_definitional_column(self, eps, reps, ct, zeta):
        spec = LaplaceMixture(MixtureParams(epsilon=eps, ratio=reps / eps, break_point=ct))
        assert zeta_by_segments(spec, 1) == pytest.approx(zeta, rel=1e-12)

    @pytest.mark.parametrize(
        "params, shift, zeta",
        [
            # the fused heights at c_t meet only to rounding: the lines are read inside.
            # Integrals of the definition (the density of ``lapmix_weights`` in
            # tests/test_mechanisms.py) at 60 digits, split at the kinks.
            (INNER_DOMINATED, 1, 5.7177596279425116100),
            (INNER_DOMINATED, 2, 51.193591265923508577),
            (UNDERFLOW_POINT, 1, 197.311796980805627),
            (UNDERFLOW_POINT, 2, 401.680379982136064),
            (FAR_TAIL, 1, 1.4760247230580816069),
        ],
    )
    def test_against_40_digit_integrals(self, params, shift, zeta):
        assert zeta_by_segments(LaplaceMixture(params), shift) == pytest.approx(zeta, rel=1e-12)

    def test_underflowed_density_is_infinite(self):
        # Named for what it once checked: at shift 3 a sampled outer density underflows as a
        # double, and the budget read inf.  Its log does not underflow, so the budget is
        # the 60-digit integral of the definition.
        zeta = zeta_by_segments(LaplaceMixture(UNDERFLOW_POINT), 3)
        assert zeta == pytest.approx(606.04896298346645401, rel=1e-12)

    @pytest.mark.parametrize("eps", [710.0, 800.0])
    def test_laplace_beyond_the_double_range(self, eps):
        # the tail mass 2 P(noise <= -1) = exp(-eps) underflows, its log does not: the
        # budget is the closed form of test_laplace_closed_form
        with mp.workdps(40):
            u = mp.mpf(eps)
            exact = float(mp.log(mp.mpf(2) / 3 * mp.exp(u) + 1 - mp.mpf(2) / 3 * mp.exp(-u / 2)))
        assert zeta_by_segments(Laplace(scale=1 / eps), 1) == pytest.approx(exact, rel=1e-13)

    def test_lapmix_whose_tail_mass_underflows(self):
        # r < 1 with eps c_t = 790: the tail mass 2 P(noise <= -c_t - 1) underflows, and the
        # budget read inf.  Against the definition's density (``lapmix_definition``)
        # integrated in 60-digit arithmetic, split at the kinks
        params = MixtureParams.from_rates(43.88, 13.18, 18)
        with mp.workdps(60):
            big_a2, t2, eps, reps, ct = lapmix_definition(params)

            def p(x):
                m = abs(x)
                return big_a2 * (mp.exp(-eps * m) if m <= ct else t2 * mp.exp(-reps * (m - ct)))

            cuts = [-mp.inf, -ct - 1, -ct, 1 - ct, 0, mp.mpf(1) / 2, 1, ct, ct + 1, mp.inf]
            parts = (mp.quad(lambda x: max(p(x - 1), p(x) ** 2 / p(x - 1)), [a, b])
                     for a, b in zip(cuts, cuts[1:]))
            exact = float(mp.log(mp.fsum(parts)))
        assert exact == pytest.approx(43.474534891891838176, rel=1e-15)
        assert zeta_by_segments(LaplaceMixture(params), 1) == pytest.approx(exact, rel=1e-13)

    def test_laplace_where_its_density_underflows(self):
        # the tail mass exp(-700) is normal, but the density 350 exp(-700 |x|) that the
        # segments read at |x| = 1.75 underflows; its log does not
        spec = Laplace(scale=1 / 700)
        with mp.workdps(40):
            u = mp.mpf(700)
            exact = float(mp.log(mp.mpf(2) / 3 * mp.exp(u) + 1 - mp.mpf(2) / 3 * mp.exp(-u / 2)))
        assert exact == pytest.approx(699.5945348918918, rel=1e-15)
        assert zeta_by_segments(spec, 1) == pytest.approx(exact, rel=1e-13)

    @pytest.mark.parametrize("eps", [0.01, 0.3, 1.0, 4.0, 50.0])
    @pytest.mark.parametrize("shift", [1, 3])
    def test_laplace_closed_form(self, eps, shift):
        # e^zeta = 2/3 e^u + 1 - 2/3 e^(-u/2), u = shift eps: the loss is u outside
        # (0, shift) and eps |2x - shift| inside
        spec = Laplace(scale=1 / eps)
        with mp.workdps(40):
            u = shift * mp.mpf(spec.worst_case_eps())
            exact = float(mp.log(mp.mpf(2) / 3 * mp.exp(u) + 1 - mp.mpf(2) / 3 * mp.exp(-u / 2)))
        assert zeta_by_segments(spec, shift) == pytest.approx(exact, rel=1e-13)


def lattice_zeta_by_cells(law, shift):
    """``_Lattice.zeta`` summed cell by cell out to the last run: every cell k with
    1 - L <= k < L + shift, L the last run's first cell, one by one, and beyond them the
    two tails of constant loss shift * rate, P(K >= L) 2 sinh(shift rate), in closed form.
    Its arrays grow with L, so it is the oracle for laws of a few thousand cells."""
    last, log_first, rate = law.runs[-1]
    ks = np.arange(1 - last, last + shift)
    here, there = law.log_mass(ks), law.log_mass(ks - shift)
    with np.errstate(divide="ignore", over="ignore"):
        cells = np.fmax(there, 2.0 * here - there) + np.log(-np.expm1(-np.abs(there - here)))
    tails = log_first + rate * shift - math.log(-math.expm1(-rate))
    terms = np.append(cells, tails + math.log(-math.expm1(-2.0 * shift * rate)))
    top = terms.max()
    return float(np.logaddexp(0.0, top + math.log(math.fsum(np.exp(terms - top)))))


# (eps, r eps, c_t) -> (the paper's closed form, the charge of the release on the 1/8
# grid, the continuous definitional zeta)
CHARGE_POINTS = {
    (0.2, 1.0, 5.0): (0.309063, 0.312396, 0.312615),  # the bench_ct5 preset
    (4.99, 14.27, 3.0): (3.322931, 4.572814, 4.597853),  # the CLI case
    (1.0, 3.0, 2.0): (1.147793, 1.247224, 1.249836),
    (0.9, 9.0, 3.0): (4.095770, 4.169821, 4.209013),
    (43.88, 13.18, 18.0): (22.856291, 41.951963, 43.474535),  # r < 1
}


def _private_spec(family, eps, ratio, ct):
    if family == "laplace":
        return Laplace(scale=1 / eps)
    if family == "rlaplace":
        return RoundedLaplace(scale=1 / eps)
    if family == "geometric":
        return Geometric(alpha=math.exp(eps))
    if family == "geomix":
        return GeometricMixture(MixtureParams(epsilon=eps, ratio=ratio, break_point=float(round(ct))))
    return LaplaceMixture(MixtureParams(epsilon=eps, ratio=ratio, break_point=ct))


class TestCharge:
    """A release charges the definitional zeta of the law it releases: its grid law's, at a
    shift of one unit (1 / cell cells), summed exactly with the constant-loss stretches of
    every run in closed form."""

    @settings(max_examples=150, deadline=None)
    @given(
        family=st.sampled_from(["laplace", "rlaplace", "geometric", "geomix", "lapmix"]),
        eps=st.floats(0.02, 5.0),
        ratio=st.floats(0.1, 20.0),
        ct=st.floats(0.6, 30.0),
    )
    @example(family="lapmix", eps=43.88, ratio=13.18 / 43.88, ct=18.0)
    @example(family="lapmix", eps=0.2, ratio=5.0, ct=0.01)  # the break-point inside cell 0
    def test_matches_the_cell_by_cell_sum(self, family, eps, ratio, ct):
        try:
            spec = _private_spec(family, eps, ratio, ct)
            law = spec.grid_law()
        except InvalidParameterError:  # constants that underflow
            assume(False)
        charge = spec.charge()
        assert charge == pytest.approx(lattice_zeta_by_cells(law, round(1 / spec.cell)), rel=1e-12)
        assert zeta_empirical(spec) == charge
        if spec.cell != 1:  # rounding is post-processing of the continuous law
            assert charge <= zeta_by_segments(spec, 1) * (1 + 1e-9)

    @pytest.mark.parametrize("point", CHARGE_POINTS, ids=str)
    def test_lapmix_points(self, point):
        closed, charge, definitional = CHARGE_POINTS[point]
        spec = LaplaceMixture(MixtureParams.from_rates(*point))
        assert spec.zeta() == pytest.approx(closed, abs=1e-6)
        assert spec.charge() == pytest.approx(charge, abs=1e-6)
        assert zeta_empirical(spec) == spec.charge()
        assert zeta_by_segments(spec, 1) == pytest.approx(definitional, abs=1e-6)

    def test_laplace(self):
        spec = Laplace(scale=2.0)
        assert spec.zeta() == 0.5
        assert spec.charge() == pytest.approx(0.456798, abs=1e-6)
        assert zeta_empirical(spec) == spec.charge()
        assert zeta_by_segments(spec, 1) == pytest.approx(0.457391, abs=1e-6)

    def test_integer_families_charge_their_closed_forms(self):
        # the exact zeta of the integer laws equals the paper's closed forms, to rounding
        for spec in (GeometricMixture(PRESET_A), RoundedLaplace(2.0), Geometric(math.exp(0.3))):
            assert spec.charge() == pytest.approx(spec.zeta(), rel=1e-14)
        assert RoundedLaplace(2.0).charge() == 0.4523214332286103

    def test_far_break_point_in_closed_form(self):
        # 2^40 cells between the runs: the sum does not walk them
        spec = GeometricMixture(MixtureParams(epsilon=0.2, ratio=5.0, break_point=2.0**40))
        start = time.perf_counter()
        charge = spec.charge()
        assert time.perf_counter() - start < 0.01
        assert charge == pytest.approx(spec.zeta(), rel=1e-12)

    def test_unbounded_family(self):
        assert TruncatedLaplace(scale=1.0, bound=5.0).charge() == math.inf

    @pytest.mark.parametrize("bound", [0.1, 0.0625, 0.05, 5.0])
    def test_a_run_with_no_mass_is_unbounded(self, bound):
        # cells where neither P(k) nor P(k - shift) has mass add nothing; they read nan once,
        # and so did trunclap's charge at bounds 0.1 and 0.0625
        assert _Lattice(((0, 0.0, 0.0), (1, -math.inf, 0.0), (2, -math.inf, 1.0))).zeta(1) == math.inf
        spec = TruncatedLaplace(scale=2.0, bound=bound)
        assert spec.charge() == zeta_empirical(spec, 2) == math.inf


class TestShiftValidation:
    """A shift must be a positive integer; anything else is refused, not evaluated."""

    SPECS = [
        Geometric(alpha=math.exp(0.5)),
        RoundedLaplace(scale=2.0),
        GeometricMixture(PRESET_A),
        LaplaceMixture(PRESET_A),
        Laplace(scale=2.0),
        TruncatedLaplace(scale=1.0, bound=5.0),
    ]

    @pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.kind)
    @pytest.mark.parametrize("shift", [0, -1, -3, 1.0, 1.5, True, "1", None])
    def test_refused(self, spec, shift):
        with pytest.raises(InvalidParameterError, match="shift must be a positive integer"):
            zeta_empirical(spec, shift)
        with pytest.raises(InvalidParameterError, match="shift must be a positive integer"):
            privacy_loss(spec, 0, shift)

    @pytest.mark.parametrize("spec", SPECS[:3], ids=lambda spec: spec.kind)
    def test_numpy_integer(self, spec):
        assert zeta_empirical(spec, np.int64(2)) == zeta_empirical(spec, 2)
        assert privacy_loss(spec, 3, np.int32(2)) == privacy_loss(spec, 3, 2)


class TestCompose:
    def test_additivity(self):
        ledger = BudgetLedger()
        assert ledger.total == 0.0
        ledger = compose(ledger, 0.3, "q1")
        ledger = compose(ledger, 0.3, "q2")
        assert ledger.total == pytest.approx(0.6)

    def test_three_mixture_queries(self):
        ledger = BudgetLedger()
        for z, label in ((0.328, "a"), (0.257, "b"), (0.309, "c")):
            ledger = compose(ledger, z, label)
        assert ledger.total == pytest.approx(0.894)
        assert [label for label, _ in ledger.entries] == ["a", "b", "c"]

    def test_order_independent_total(self):
        charges = [0.11, 0.02, 0.57]
        a = BudgetLedger()
        b = BudgetLedger()
        for z in charges:
            a = compose(a, z, "x")
        for z in reversed(charges):
            b = compose(b, z, "x")
        assert a.total == pytest.approx(b.total, abs=1e-15)

    def test_immutability(self):
        base = BudgetLedger()
        compose(base, 1.0, "x")
        assert base.total == 0.0

    def test_invalid_charge(self):
        with pytest.raises(InvalidParameterError):
            compose(BudgetLedger(), 0.0, "x")
        with pytest.raises(InvalidParameterError):
            compose(BudgetLedger(), math.inf, "x")


class TestEquivalentEpsilon:
    def test_geometric_identity(self):
        # the sweep matches the geometric mechanism without inverting: its zeta is its eps
        spec = Geometric(alpha=math.exp(0.328))
        assert zeta_closed_form(spec) == pytest.approx(0.328, rel=1e-12)
        assert zeta_empirical(spec) == pytest.approx(0.328, rel=1e-12)

    def test_rounded_laplace_presets(self):
        assert equivalent_epsilon(0.309) == pytest.approx(0.332, abs=1e-3)
        assert equivalent_epsilon(0.243) == pytest.approx(0.257, abs=1e-3)

    def test_round_trip(self):
        for eps in (0.1, 0.332, 0.8, 2.0):
            z = zeta_closed_form(RoundedLaplace(scale=1 / eps))
            assert equivalent_epsilon(z) == pytest.approx(eps, abs=1e-8)

    def test_exact_round_trip(self):
        for eps in np.geomspace(1e-3, 350.0, 400):
            z = RoundedLaplace(scale=1 / eps).zeta()
            assert equivalent_epsilon(z) == pytest.approx(eps, rel=1e-12, abs=0)

    @pytest.mark.parametrize("target", [360.0, 700.0])
    def test_targets_beyond_the_spec_range(self, target):
        # the matched eps exceeds 709.78, where RoundedLaplace.zeta refuses;
        # check it against the closed form in z = exp(-eps/2)
        eps = equivalent_epsilon(target)
        z = math.exp(-0.5 * eps)
        assert math.log((5 - z + z * z - z**3) / (2 * z * (1 + z))) == pytest.approx(
            target, rel=1e-15
        )

    @pytest.mark.parametrize("target", [1e-17, 1e-16, 708.0, 709.5, 800.0])
    def test_targets_out_of_range(self, target):
        with pytest.raises(InvalidParameterError):
            equivalent_epsilon(target)

    def test_validation(self):
        for target in (-1.0, 0.0, math.inf, math.nan):
            with pytest.raises(InvalidParameterError):
                equivalent_epsilon(target)


def lapmix_release_tail(params, r):
    """P(|Y| >= r) for the Laplace mixture released on its grid, r a grid point above c_t:
    the continuous outer tail w1 exp(-r eps (x - c_t)) from x = r - GRID / 2, the lower edge
    of the cell that r rounds from."""
    w1, ct = lapmix_constants(params).w1, params.break_point
    return w1 * math.exp(-(r - GRID / 2 - ct) * params.eps_r)


class TestUsefulnessBound:
    def test_laplace_radius(self):
        # the continuous radius 7.344302369170264 inverts the outer tail at delta; the
        # released draws are rounded to the grid, so the guarantee holds from 7.5 on
        r = LaplaceMixture(PRESET_A).usefulness_bound(1, 0.01)
        assert r == 7.5
        assert lapmix_release_tail(PRESET_A, r) <= 0.01 < lapmix_release_tail(PRESET_A, r - GRID)

    def test_union_bound_scaling(self):
        # the continuous radii part by ln(10) / (r eps); the released ones by that, rounded
        # up to the grid, within a cell
        r1 = LaplaceMixture(PRESET_A).usefulness_bound(1, 0.01)
        r10 = LaplaceMixture(PRESET_A).usefulness_bound(10, 0.01)
        assert abs(r10 - r1 - math.log(10) / PRESET_A.eps_r) <= GRID
        assert lapmix_release_tail(PRESET_A, r10) <= 0.001 < lapmix_release_tail(PRESET_A, r10 - GRID)

    def test_admissible_delta_inverts_exactly(self):
        # delta the released tail at a grid point m: the radius comes back as m
        for m in (6.5, 8.0, 11.125):
            delta = lapmix_release_tail(PRESET_A, m) * (1.0 + 1e-12)
            r = LaplaceMixture(PRESET_A).usefulness_bound(1, delta)
            assert r == m

    def test_geometric_radius_is_guaranteed_integer(self):
        from pwmix.mechanisms import geomix_constants

        c = geomix_constants(PRESET_A)
        q1 = math.exp(-PRESET_A.eps_r)
        for delta, k in ((0.01, 1), (0.001, 1), (0.01, 10), (0.001, 10)):
            r = GeometricMixture(PRESET_A).usefulness_bound(k, delta)
            assert r == int(r) and r > PRESET_A.break_point
            tail = 2 * c.w1 * q1 ** (r - 5) / (1 + q1)
            assert tail <= delta / k
            # and one step tighter would break the guarantee
            tail_prev = 2 * c.w1 * q1 ** (r - 6) / (1 + q1)
            assert tail_prev > delta / k

    def test_not_applicable_inside_break(self):
        for family in (LaplaceMixture, GeometricMixture):
            with pytest.raises(BoundNotApplicableError, match="does not clear the break-point 5$"):
                family(PRESET_A).usefulness_bound(1, 0.5)

    @pytest.mark.parametrize(
        "family, radii",
        [
            # the continuous radii 7.344302369170264, 9.64688746216431 and 11.949472555158355,
            # raised to the grid
            (LaplaceMixture, (7.5, 9.75, 9.75, 12.125)),
            (GeometricMixture, (8.0, 11.0, 11.0, 13.0)),
        ],
    )
    def test_golden_radii(self, family, radii):
        spec = family(PRESET_A)
        got = [spec.usefulness_bound(k, delta) for delta in (0.01, 0.001) for k in (1, 10)]
        assert got == pytest.approx(radii, rel=1e-12)

    @pytest.mark.parametrize("family", [LaplaceMixture, GeometricMixture])
    @pytest.mark.parametrize("k", [0, -1, 1.5])
    def test_k_validation(self, family, k):
        with pytest.raises(InvalidParameterError, match="k must be a positive integer"):
            family(PRESET_A).usefulness_bound(k, 0.01)

    def test_delta_validation(self):
        with pytest.raises(InvalidParameterError):
            LaplaceMixture(PRESET_A).usefulness_bound(1, 0.0)
        with pytest.raises(InvalidParameterError):
            LaplaceMixture(PRESET_A).usefulness_bound(1, 1.5)
