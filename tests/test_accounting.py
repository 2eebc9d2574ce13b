import math

import numpy as np
import pytest

from pwmix.accounting import (
    BudgetLedger,
    compose,
    equivalent_epsilon,
    privacy_loss,
    usefulness_bound,
    zeta_closed_form,
    zeta_empirical,
)
from pwmix.errors import BoundNotApplicableError, InvalidParameterError
from pwmix.mechanisms import (
    Geometric,
    GeometricMixture,
    Laplace,
    LaplaceMixture,
    MixtureParams,
    RoundedLaplace,
    TruncatedLaplace,
    geomix_pmf,
    lapmix_cdf,
    lapmix_constants,
)

from conftest import INT_PARAM_GRID, PRESET_A, PRESET_B


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
        spec = LaplaceMixture(PRESET_A)
        for outcome in np.linspace(-8, 8, 33):
            loss = privacy_loss(spec, float(outcome))
            assert 0.2 - 1e-9 <= loss <= 1.0 + 1e-9

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
            if float(geomix_pmf(outcome, PRESET_A)) > 1e-12:
                assert privacy_loss(spec, outcome) <= PRESET_A.eps_r + 1e-9


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
        # a1 is about 1e300 here, so a1 * (alpha1 - 1) overflows; the exact
        # zeta, summed in 60-digit decimal arithmetic, is 8.42272246402
        spec = GeometricMixture(MixtureParams(epsilon=2.305, ratio=19.74, break_point=16.0))
        assert math.isfinite(privacy_loss(spec, 17))
        assert zeta_empirical(spec) == pytest.approx(zeta_closed_form(spec), rel=1e-8)
        assert zeta_empirical(spec) == pytest.approx(8.42272246402, rel=1e-8)

    def test_inner_dominated_lapmix_is_finite(self):
        # a1 is 7.2e298 here: the outer density must be taken through logs,
        # or it reads 0 beyond c_t and the loss there is infinite
        params = MixtureParams(epsilon=2.305, ratio=19.74, break_point=16.0)
        spec = LaplaceMixture(params)
        assert 0 < privacy_loss(spec, 16.5) <= params.eps_r
        assert 0 < zeta_empirical(spec) <= params.eps_r

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
        pk = geomix_pmf(ks, PRESET_A)
        total = 0.0
        for k, p in zip(ks[1:], pk[1:]):
            total += math.exp(abs(math.log(float(geomix_pmf(k - 1, PRESET_A)) / p))) * p
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
        assert equivalent_epsilon(0.328, "geometric") == pytest.approx(0.328)

    def test_rounded_laplace_presets(self):
        assert equivalent_epsilon(0.309, "rounded_laplace") == pytest.approx(0.332, abs=1e-3)
        assert equivalent_epsilon(0.243, "rounded_laplace") == pytest.approx(0.257, abs=1e-3)

    def test_round_trip(self):
        for eps in (0.1, 0.332, 0.8, 2.0):
            z = zeta_closed_form(RoundedLaplace(scale=1 / eps))
            assert equivalent_epsilon(z, "rounded_laplace") == pytest.approx(eps, abs=1e-8)

    def test_exact_round_trip(self):
        for eps in np.geomspace(1e-3, 350.0, 400):
            z = RoundedLaplace(scale=1 / eps).zeta()
            assert equivalent_epsilon(z, "rounded_laplace") == pytest.approx(eps, rel=1e-12, abs=0)

    @pytest.mark.parametrize("target", [360.0, 700.0])
    def test_targets_beyond_the_spec_range(self, target):
        # the matched eps exceeds 709.78, where RoundedLaplace.zeta refuses;
        # check it against the closed form in z = exp(-eps/2)
        eps = equivalent_epsilon(target, "rounded_laplace")
        z = math.exp(-0.5 * eps)
        assert math.log((5 - z + z * z - z**3) / (2 * z * (1 + z))) == pytest.approx(
            target, rel=1e-15
        )

    @pytest.mark.parametrize("target", [1e-17, 1e-16, 708.0, 709.5, 800.0])
    def test_targets_out_of_range(self, target):
        with pytest.raises(InvalidParameterError):
            equivalent_epsilon(target, "rounded_laplace")

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            equivalent_epsilon(-1.0, "geometric")
        with pytest.raises(InvalidParameterError):
            equivalent_epsilon(0.3, "gaussian")


class TestUsefulnessBound:
    def test_laplace_radius(self):
        r = usefulness_bound(PRESET_A, 1, 0.01, family="laplace")
        assert r == pytest.approx(7.344302369170264, rel=1e-12)
        # exact tail inversion: P(|Y| >= r) equals delta
        a1 = lapmix_constants(PRESET_A).a1
        assert a1 * math.exp(-r * PRESET_A.eps_r) == pytest.approx(0.01, rel=1e-12)

    def test_union_bound_scaling(self):
        r1 = usefulness_bound(PRESET_A, 1, 0.01, family="laplace")
        r10 = usefulness_bound(PRESET_A, 10, 0.01, family="laplace")
        assert r10 - r1 == pytest.approx(math.log(10) / PRESET_A.eps_r, rel=1e-12)

    def test_admissible_delta_inverts_exactly(self):
        # delta on the exact outer tail lattice: radius comes back as m / (r eps)
        a1 = lapmix_constants(PRESET_A).a1
        for m in (6, 8, 11):
            delta = a1 * math.exp(-PRESET_A.eps_r * m)
            r = usefulness_bound(PRESET_A, 1, delta, family="laplace")
            assert r == pytest.approx(m / PRESET_A.eps_r, rel=1e-12)

    def test_geometric_radius_is_guaranteed_integer(self):
        from pwmix.mechanisms import geomix_constants

        c = geomix_constants(PRESET_A)
        q1 = math.exp(-PRESET_A.eps_r)
        for delta, k in ((0.01, 1), (0.001, 1), (0.01, 10), (0.001, 10)):
            r = usefulness_bound(PRESET_A, k, delta, family="geometric")
            assert r == int(r) and r > PRESET_A.break_point
            tail = 2 * c.a1 * q1**r / (1 + q1)
            assert tail <= delta / k
            # and one step tighter would break the guarantee
            tail_prev = 2 * c.a1 * q1 ** (r - 1) / (1 + q1)
            assert tail_prev > delta / k

    def test_not_applicable_inside_break(self):
        with pytest.raises(BoundNotApplicableError):
            usefulness_bound(PRESET_A, 1, 0.5, family="laplace")

    def test_delta_validation(self):
        with pytest.raises(InvalidParameterError):
            usefulness_bound(PRESET_A, 1, 0.0, family="laplace")
        with pytest.raises(InvalidParameterError):
            usefulness_bound(PRESET_A, 1, 1.5, family="laplace")
