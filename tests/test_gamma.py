"""Gamma density closed forms, the nu weight family, and diffusion recoveries."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import quad

from chaosgamma.gamma import (
    DiffusionSpec,
    diffusion_density_estimate,
    gamma_pdf,
    gamma_pdf_deriv,
    laguerre_diffusion,
    nu_coefficients,
    nu_weight,
    ornstein_uhlenbeck,
    representation_check,
)


def test_gamma_pdf_reference_values():
    assert gamma_pdf(1.0, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-14)
    assert gamma_pdf(2.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)
    assert gamma_pdf(2.0, -1.0) == 0.0
    assert gamma_pdf(0.5, 0.0) == 0.0
    x = np.array([-2.0, 0.0, 0.5, 3.0])
    vals = gamma_pdf(2.5, x)
    assert vals[0] == 0.0 and vals[1] == 0.0
    assert np.all(vals[2:] > 0)


def test_gamma_pdf_integrates_to_one():
    for alpha in (0.6, 1.0, 2.0, 4.5, 11.0):
        total, err = quad(lambda t: gamma_pdf(alpha, t), 0.0, np.inf, limit=200)
        assert total == pytest.approx(1.0, abs=1e-8)


def test_gamma_pdf_deriv_k0_reduction_and_closed_form():
    x = np.linspace(0.05, 9.0, 30)
    assert np.allclose(gamma_pdf_deriv(3.0, 0, x), gamma_pdf(3.0, x), atol=1e-14)
    # alpha = 2: p(x) = x e^{-x}, p'(x) = (1 - x) e^{-x}
    assert np.allclose(gamma_pdf_deriv(2.0, 1, x), (1.0 - x) * np.exp(-x), atol=1e-12)


def test_gamma_pdf_deriv_matches_finite_differences():
    h = 1e-5
    for alpha in (2.5, 4.0, 7.5):
        for x in (0.4, 1.3, 3.7, 8.0):
            d1 = (gamma_pdf(alpha, x + h) - gamma_pdf(alpha, x - h)) / (2 * h)
            assert gamma_pdf_deriv(alpha, 1, x) == pytest.approx(d1, rel=1e-6, abs=1e-9)
            h2 = 1e-4  # cancellation noise dominates below this step
            d2 = (
                gamma_pdf(alpha, x + h2) - 2 * gamma_pdf(alpha, x) + gamma_pdf(alpha, x - h2)
            ) / (h2 * h2)
            assert gamma_pdf_deriv(alpha, 2, x) == pytest.approx(d2, rel=1e-4, abs=1e-7)


def test_gamma_pdf_deriv_integrates_to_zero():
    for alpha, k in [(2.5, 1), (4.0, 2), (6.0, 3)]:
        total, err = quad(lambda t: gamma_pdf_deriv(alpha, k, t), 0.0, np.inf, limit=200)
        assert total == pytest.approx(0.0, abs=1e-7)


def test_gamma_pdf_deriv_origin_rules():
    # alpha > k + 1 gives a well-defined (zero) value at the origin
    assert gamma_pdf_deriv(3.5, 1, 0.0) == 0.0
    with pytest.raises(ValueError):
        gamma_pdf_deriv(2.0, 1, 0.0)
    with pytest.raises(ValueError):
        gamma_pdf_deriv(1.0, 0, 0.0)


def test_nu_weight_closed_forms():
    y = np.array([0.3, 1.0, 2.7, 10.0])
    for alpha in (0.8, 2.0, 5.5):
        assert np.allclose(nu_weight(alpha, 1, y), 1.0 + (1.0 - alpha) / y, atol=1e-13)
    assert nu_weight(3.0, 2, 0.0) == 0.0
    assert nu_weight(3.0, 4, 0.0) == 0.0


def test_nu_coefficients_closed_form():
    """c_i = (-1)^(k-1) C(k,i) prod_{j<=i}(j - alpha), and nu_weight sums them."""
    y = np.array([-3.0, -0.4, 0.25, 1.7, 12.0])
    for alpha in (0.7, 2.0, 4.0, 6.21):
        for k in (1, 2, 4):
            prods = [math.prod(j - alpha for j in range(1, i + 1)) for i in range(k + 1)]
            want = [(-1.0) ** (k - 1) * math.comb(k, i) * prods[i] for i in range(k + 1)]
            assert nu_coefficients(alpha, k) == pytest.approx(want, rel=1e-15)
            direct = sum(c * y ** -float(i) for i, c in enumerate(want))
            assert np.allclose(nu_weight(alpha, k, y), direct, rtol=1e-13, atol=0.0)
    with pytest.raises(ValueError):
        nu_coefficients(2.0, 0)


def test_nu_weight_recursion():
    """nu_{k+2}(y) = -[nu_{k+1} + (1-alpha) nu_{k+1}/y - nu_{k+1}'] as
    exact rational functions, checked in coefficient space for k <= 4."""
    alpha = 3.3

    def coeff_vec(k, length):
        # nu_k(y) = sum_i c_i y^{-i}; read coefficients off the closed form
        c = np.zeros(length)
        for i in range(k + 1):
            prod = 1.0
            for j in range(1, i + 1):
                prod *= j - alpha
            c[i] = (-1.0) ** (k - 1) * math.comb(k, i) * prod
        return c

    L = 10
    for k in range(0, 5):
        a = coeff_vec(k + 1, L)
        # y^{-1} shift and term-by-term derivative in the y^{-i} basis
        shifted = np.roll(a, 1)
        shifted[0] = 0.0
        deriv = np.zeros(L)
        for i in range(L - 1):
            deriv[i + 1] = -i * a[i]  # d/dy y^{-i} = -i y^{-i-1}
        want = -(a + (1.0 - alpha) * shifted - deriv)
        got = coeff_vec(k + 2, L)
        assert np.allclose(got, want, atol=1e-10)
        # and the closed-form evaluator agrees with the coefficients
        y = 1.7
        val = sum(c * y ** (-i) for i, c in enumerate(coeff_vec(k + 1, L)))
        assert nu_weight(alpha, k + 1, y) == pytest.approx(val, rel=1e-12)


# -- indicator representation of density derivatives --------------------------------


@pytest.mark.parametrize("alpha,k,x", [(2.0, 0, 1.0), (4.0, 1, 2.0), (3.0, 1, 0.7)])
def test_representation_matches_closed_form(alpha, k, x):
    est, exact = representation_check(alpha, k, x, n=200_000, seed=81)
    assert est.within(exact, sigmas=4.0)
    assert est.stderr > 0


def test_representation_negative_x_is_exact_zero():
    est, exact = representation_check(2.0, 1, -1.0, n=10_000, seed=82)
    assert exact == 0.0
    assert est.value == 0.0
    assert est.stderr == 0.0


def test_representation_at_origin():
    est, exact = representation_check(4.0, 1, 0.0, n=200_000, seed=83)
    assert exact == 0.0
    assert est.within(0.0, sigmas=4.0)
    with pytest.raises(ValueError):
        representation_check(2.0, 1, 0.0, n=1000, seed=84)


# -- diffusions ----------------------------------------------------------------------


def test_ou_score_recovers_normal_density():
    ou = ornstein_uhlenbeck()
    for x in (-1.0, 0.0, 1.0):
        est = diffusion_density_estimate(ou, x, n=400_000, seed=85)
        want = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        assert est.within(want, sigmas=4.0)


def test_laguerre_diffusion_recovers_gamma_density():
    alpha = 2.5
    lag = laguerre_diffusion(alpha)
    for x in (0.8, 2.0, 5.0):
        est = diffusion_density_estimate(lag, x, n=400_000, seed=86)
        assert est.within(gamma_pdf(alpha, x), sigmas=4.0)


def test_diffusion_outside_support_is_noise_around_zero():
    ou = ornstein_uhlenbeck()
    est = diffusion_density_estimate(ou, 9.0, n=100_000, seed=87)
    assert est.within(0.0, sigmas=4.0, atol=1e-12)


def test_gamma_target_validation():
    with pytest.raises(ValueError):
        laguerre_diffusion(-1.0)
