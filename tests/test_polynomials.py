"""Hermite evaluation, table layout and orthogonality."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.special import roots_hermitenorm

from chaosgamma.polynomials import hermite_table, hermite_value

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
