"""Tests of the benchmark's own references and input generators.

    python -m pytest -q perfbench

They import no pwmix: the references must stand on the paper's definitions.
"""

import math

import numpy as np
import pytest

import inputs
import reference as ref

MIXTURES = [(0.2, 1.0, 5), (0.1, 1.0, 6), (0.05, 0.075, 10), (1.0, 10.0, 1), (2.0, 20.0, 40)]


@pytest.mark.parametrize("eps,r_eps,c_t", MIXTURES)
def test_geometric_mixture_has_unit_mass_and_fuses_at_the_break_point(eps, r_eps, c_t):
    law = ref.geometric_mixture(eps, r_eps, c_t)
    assert law.mass() == pytest.approx(1.0, abs=1e-12)
    logp = dict(zip(law.ks.tolist(), law.logp.tolist()))
    assert logp[c_t] - logp[c_t - 1] == pytest.approx(-eps, rel=1e-9)
    assert logp[c_t + 1] - logp[c_t] == pytest.approx(-r_eps, rel=1e-9)
    assert eps <= law.zeta() <= r_eps


@pytest.mark.parametrize("eps", [0.05, 0.3281, 1.0, 3.0])
def test_geometric_mechanism(eps):
    law = ref.geometric(eps)
    q = math.exp(-eps)
    assert law.mass() == pytest.approx(1.0, abs=1e-12)
    assert law.zeta() == pytest.approx(eps, rel=1e-12)
    assert law.p_within(5) == pytest.approx(1.0 - 2.0 * q**6 / (1.0 + q), rel=1e-12)


@pytest.mark.parametrize("eps", [0.05, 0.3318, 1.0])
def test_rounded_laplace_is_the_rounded_continuous_law(eps):
    law = ref.rounded_laplace(eps)
    assert law.mass() == pytest.approx(1.0, abs=1e-12)

    def laplace_cdf(x):
        return 0.5 * math.exp(eps * x) if x < 0 else 1.0 - 0.5 * math.exp(-eps * x)

    for k in (-3, 0, 1, 7):
        cell = laplace_cdf(k + 0.5) - laplace_cdf(k - 0.5)
        assert law.p[law.ks == k][0] == pytest.approx(cell, rel=1e-12)


@pytest.mark.parametrize("eps,r_eps,c_t", MIXTURES)
def test_laplace_mixture_has_unit_mass_and_is_continuous_at_the_break_point(eps, r_eps, c_t):
    law = ref.LaplaceMixtureLaw(eps, r_eps, float(c_t))
    assert law.cdf(-1e9) == pytest.approx(0.0, abs=1e-300)
    assert law.cdf(1e9) == pytest.approx(1.0, abs=1e-15)
    assert law.cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert law._abs_moment(0) == pytest.approx(1.0, rel=1e-12)
    tiny = 1e-9 * c_t
    assert law.pdf(c_t - tiny) == pytest.approx(float(law.pdf(c_t + tiny)), rel=1e-6)
    assert law.cdf(-c_t - tiny) == pytest.approx(law.cdf(-c_t + tiny), rel=1e-6)


def test_laplace_mixture_moments_by_quadrature_match_the_series():
    law = ref.LaplaceMixtureLaw(0.2, 1.0, 5.0)
    xs = np.linspace(0.0, 80.0, 800_001)
    dens = 2.0 * law.pdf(xs)
    assert law.e_abs() == pytest.approx(np.trapezoid(xs * dens, xs), rel=1e-6)
    assert law.variance() == pytest.approx(np.trapezoid(xs * xs * dens, xs), rel=1e-6)


def test_audit_mean_loss():
    law = ref.geometric(0.5)
    p = law.p
    mean, se = ref.audit_mean_loss(p[:-1], p[1:], 10**6, 50)
    assert mean == pytest.approx(0.5, abs=5 * se)
    same, se = ref.audit_mean_loss(p, p, 10**6, 50)
    assert 0.0 < same < 0.01 and se < 0.01


def test_clamped_outcomes_put_the_lower_tail_on_zero():
    law = ref.geometric_mixture(0.2, 1.0, 5)
    out = ref.clamped_outcomes(law, 3)
    assert out.sum() == pytest.approx(1.0, abs=1e-12)
    assert out[0] == pytest.approx(float(law.p[law.ks <= -3].sum()), rel=1e-12)


def test_table_is_seeded_and_keeps_every_level():
    a, b = inputs.make_table(7), inputs.make_table(7)
    assert all(np.array_equal(a.codes[k], b.codes[k]) for k in a.codes)
    assert not np.array_equal(a.codes["education"], inputs.make_table(8).codes["education"])
    for attribute, levels, head in inputs.SCHEMA:
        counts = np.bincount(a.codes[attribute], minlength=levels)
        assert counts.size == levels and counts.min() >= 1
        assert (counts[head:] == 1).all()


def test_sweep_points():
    points = inputs.make_sweep_points(5)
    assert points == inputs.make_sweep_points(5)
    under = [p for p in points if p.underflow]
    assert len(under) * inputs.UNDERFLOW_EVERY == len(points)
    assert all(p.r_eps * p.c_t > 745 for p in under)
    for p in points:
        if not p.underflow:
            assert p.c_t in range(1, 11) and 0.05 <= p.eps <= 1.0
            assert 1.5 <= p.r_eps / p.eps <= 10.0
