"""Hermite and Laguerre evaluation, orthogonality, and the PolySpec helper."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.special import roots_hermitenorm

from chaosgamma.polynomials import PolySpec, hermite_table, hermite_value, laguerre_value

EXPLICIT_HERMITE = {
    0: lambda x: np.ones_like(x),
    1: lambda x: x,
    2: lambda x: x**2 - 1,
    3: lambda x: x**3 - 3 * x,
    4: lambda x: x**4 - 6 * x**2 + 3,
    5: lambda x: x**5 - 10 * x**3 + 15 * x,
    6: lambda x: x**6 - 15 * x**4 + 45 * x**2 - 15,
}


def test_hermite_values_match_explicit_polynomials():
    x = np.linspace(-3.5, 3.5, 41)
    for n, fn in EXPLICIT_HERMITE.items():
        assert np.allclose(hermite_value(n, x), fn(x), atol=1e-10)


def test_hermite_scalar_input_returns_float():
    v = hermite_value(3, 2.0)
    assert isinstance(v, float)
    assert v == pytest.approx(2.0)


def test_hermite_table_consistent_with_single_evaluations():
    rng = np.random.default_rng(31)
    z = rng.normal(size=(5, 7))
    table = hermite_table(z, 8)
    assert table.shape == (5, 7, 9)
    for n in range(9):
        assert np.allclose(table[..., n], hermite_value(n, z), atol=1e-10)


def test_hermite_table_rows_are_contiguous_and_shapes_kept():
    z = np.random.default_rng(32).normal(size=(6, 4))
    table = hermite_table(z, 5)
    assert table.shape == (6, 4, 6)
    for v in range(4):
        for a in range(6):
            assert table[:, v, a].flags.c_contiguous
    assert hermite_table(np.float64(0.3), 4).shape == (5,)
    assert hermite_table(z[:, 0], 4).shape == (6, 5)
    assert np.array_equal(hermite_table(z[:, 0], 4), table[:, 0, :5])
    assert isinstance(hermite_value(4, 0.3), float)


def test_hermite_orthogonality_by_quadrature():
    """E[He_n(Z) He_m(Z)] = n! delta_nm, integrated exactly by Gauss-Hermite."""
    nodes, weights = roots_hermitenorm(40)
    weights = weights / math.sqrt(2.0 * math.pi)
    for n in range(7):
        for m in range(7):
            val = float(np.sum(weights * hermite_value(n, nodes) * hermite_value(m, nodes)))
            want = math.factorial(n) if n == m else 0.0
            assert val == pytest.approx(want, abs=1e-8 * max(1.0, want))


def test_hermite_rejects_negative_degree():
    with pytest.raises(ValueError):
        hermite_value(-1, 0.0)


def test_laguerre_matches_polynomial_construction():
    x = np.linspace(0.05, 12.0, 25)
    for alpha in (0.7, 1.0, 2.5):
        for n in range(8):
            p = PolySpec.laguerre(n, alpha)
            assert np.allclose(laguerre_value(n, alpha, x), p(x), atol=1e-9)


def test_laguerre_orthogonality_under_gamma_weight():
    from scipy.special import roots_genlaguerre

    alpha = 2.5
    nodes, weights = roots_genlaguerre(40, alpha - 1.0)
    weights = weights / math.gamma(alpha)
    for n in range(6):
        for m in range(6):
            val = float(
                np.sum(weights * laguerre_value(n, alpha, nodes) * laguerre_value(m, alpha, nodes))
            )
            if n != m:
                assert val == pytest.approx(0.0, abs=1e-8)
            else:
                assert val > 0


def test_polyspec_arithmetic():
    p = PolySpec((1.0, 2.0, 3.0))  # 1 + 2x + 3x^2
    q = PolySpec((0.0, 1.0))  # x
    assert (p * q).coeffs == (0.0, 1.0, 2.0, 3.0)
    assert p.derivative().coeffs == (2.0, 6.0)
    assert p.shift_mul_x().coeffs == (0.0, 1.0, 2.0, 3.0)
    assert (p - p).coeffs == (0.0,)
    assert p.degree == 2
    assert p(2.0) == pytest.approx(17.0)


def test_polyspec_normalizes_trailing_zeros():
    p = PolySpec((1.0, 0.0, 0.0))
    assert p.coeffs == (1.0,)
    assert p.degree == 0
    assert PolySpec((0.0,)).derivative().coeffs == (0.0,)
