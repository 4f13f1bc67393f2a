"""Stein equation solutions, residuals and envelopes."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from scipy.integrate import quad

from chaosgamma.gamma import gamma_pdf_deriv, nu_weight
import chaosgamma.gamma as gamma_module
import chaosgamma.stein as stein_module
from chaosgamma.stein import (
    SteinEnvelope,
    envelope,
    exp_weighted_power_integral,
    solve,
    stein_rhs,
)

POSITIVE_CASES = [(2.0, 0, 1.0), (4.0, 1, 2.5), (0.7, 0, 0.5)]
NEGATIVE_CASES = [(2.0, 0, -1.0), (4.0, 1, -2.0), (0.7, 0, -0.4)]
ORIGIN_CASES = [(3.0, 0, 0.0), (4.5, 1, 0.0), (6.0, 2, 0.0)]


def two_sided_grid(lo=1e-3, hi=40.0, points=25):
    pos = np.geomspace(lo, hi, points)
    return tuple(np.concatenate([-pos[::-1], pos]))


def residual_away_from_origin(sol, min_abs=0.05):
    res = np.abs(sol.residuals())
    mask = np.abs(np.asarray(sol.grid)) >= min_abs
    return float(res[mask].max())


@pytest.mark.parametrize("alpha,k,x", POSITIVE_CASES + NEGATIVE_CASES + ORIGIN_CASES)
def test_exact_solution_has_tiny_residual(alpha, k, x):
    """y f' + (alpha - y) f reproduces the centered indicator test function."""
    sol = solve(alpha, k, x, two_sided_grid())
    assert residual_away_from_origin(sol) <= 1e-8
    assert sol.eh == pytest.approx(
        float(gamma_pdf_deriv(alpha, k, x)) if x > 0 else 0.0, abs=1e-12
    )


@pytest.mark.parametrize(
    "alpha,k,x", POSITIVE_CASES + NEGATIVE_CASES + ORIGIN_CASES + [(4.0, 1, 0.5), (6.21, 2, 6.0)]
)
def test_quadrature_route_agrees_with_exact(alpha, k, x):
    """Every branch, x in (0, 1) (the split at (x/y)^alpha) and k = 2, on the
    benchmark's grid: f and f' agree to 1e-10 of max(1, |exact|) pointwise."""
    grid = two_sided_grid(1e-3, 50.0, 200)
    a = solve(alpha, k, x, grid, method="exact")
    b = solve(alpha, k, x, grid, method="quad")
    for want, got in ((a.f_values, b.f_values), (a.fprime_values, b.fprime_values)):
        assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(1.0, np.abs(want)))


def test_quadrature_resolves_the_layer_at_the_end_of_a_long_left_range():
    """For alpha = 0.05 and y = -1000 the weight e^{t(v-1)} lives within
    about alpha/t = 5e-5 of u = 1 after v = u^(1/alpha), far closer than
    the outermost Kronrod node of [0, 1]."""
    grid = (-1000.0, -359.0, -50.0, 0.5)
    a = solve(0.05, 0, 0.5, grid, method="exact")
    b = solve(0.05, 0, 0.5, grid, method="quad")
    assert np.all(np.abs(b.f_values - a.f_values) <= 1e-10 * np.maximum(1.0, np.abs(a.f_values)))


def test_quadrature_round_cap_names_the_point(monkeypatch):
    monkeypatch.setattr(stein_module, "_MAX_ROUNDS", 1)
    grid = two_sided_grid(1e-3, 50.0, 20)
    with pytest.raises(RuntimeError, match=r"at y = -?[0-9.e+-]+ after 1 rounds") as info:
        solve(4.0, 1, 2.0, grid, method="quad")
    named = float(str(info.value).split("at y = ")[1].split()[0])
    assert named in grid


def test_quadrature_that_cannot_converge_stops_at_the_interval_cap():
    """At alpha = 30, x = 20 the tail integral near y = 1 cancels parts of
    order Gamma(30)/y^29; rounding in the integrand keeps its error estimate
    above tolerance, and the point is refused once it holds more than
    _MAX_INTERVALS intervals instead of being bisected without end."""
    with pytest.raises(RuntimeError, match=r"at y = 1\.09\d* after \d+ rounds and \d{4} intervals"):
        solve(30.0, 3, 20.0, two_sided_grid(1e-3, 50.0, 100), method="quad")


@pytest.mark.parametrize("method", ["exact", "quad"])
def test_right_hand_side_that_overflows_on_the_grid_is_named(method):
    """nu_2(y) holds y^-2, which overflows at y = -1e-160 on the origin branch."""
    with pytest.raises(OverflowError, match=r"overflowed in rhs at .* y = -1e-160: "):
        solve(3.0, 1, 0.0, (-1e-160, 1.0), method=method)


def test_gauss_kronrod_constants():
    """The embedded G7 rule is Gauss-Legendre; K15 integrates polynomials of
    degree 22 exactly and G7 those of degree 13."""
    nodes = stein_module._GK_NODES
    wk = stein_module._GK_WEIGHTS[:, 0]
    wg = wk - stein_module._GK_WEIGHTS[:, 1]
    gx, gw = np.polynomial.legendre.leggauss(7)
    assert np.allclose(nodes[1::2], gx, rtol=0, atol=1e-15)
    assert np.allclose(wg[1::2], gw, rtol=0, atol=1e-15)
    assert np.all(wg[0::2] == 0.0) and np.all(wk > 0)
    for j in range(23):
        exact = (1.0 - (-1.0) ** (j + 1)) / (j + 1)
        assert abs(wk @ nodes**j - exact) <= 1e-15
        if j <= 13:
            assert abs(wg @ nodes**j - exact) <= 1e-15


def test_negative_threshold_solution_vanishes_above_x():
    """For x < 0 the solution is identically zero on [x, oo) away from 0."""
    x = -1.5
    sol = solve(3.0, 1, x, two_sided_grid())
    g = np.asarray(sol.grid)
    above = g >= x
    assert np.all(sol.f_values[above] == 0.0)
    assert np.all(sol.fprime_values[above] == 0.0)
    below = g < x
    assert np.any(sol.f_values[below] != 0.0)


@pytest.mark.parametrize("alpha,k,x", POSITIVE_CASES + NEGATIVE_CASES + ORIGIN_CASES)
def test_envelope_dominates_solution_everywhere(alpha, k, x):
    sol = solve(alpha, k, x, two_sided_grid())
    env = envelope(alpha, k, x)
    assert env.dominates(sol)
    g = np.asarray(sol.grid)
    bound = env.bound(g)
    assert np.all(bound >= np.abs(sol.f_values) - 1e-9)
    assert np.all(bound >= np.abs(sol.fprime_values) - 1e-9)


def test_envelope_summaries_by_branch():
    pos = envelope(3.0, 1, 2.0)
    assert set(pos.summary) == {"d1", "d2", "d3", "Eh"}
    neg = envelope(3.0, 1, -2.0)
    assert set(neg.summary) == {"e1", "e2"}
    org = envelope(6.0, 1, 0.0)
    assert set(org.summary) == {"f1", "f2"}
    # negative branch never needs a 1/|y| term; origin terms are pure
    # nonpositive powers reaching down to -(k+2)
    assert all(p <= 0 for p, _ in org.terms)
    assert min(p for p, _ in org.terms) == -3
    assert isinstance(pos, SteinEnvelope)


def test_solution_rows_include_envelope_column():
    sol = solve(2.0, 0, 1.0, two_sided_grid(points=6))
    env = envelope(2.0, 0, 1.0)
    rows = sol.to_rows(env)
    assert len(rows) == len(sol.grid)
    assert all(len(r) == 5 for r in rows)
    y, f, fp, res, bnd = rows[0]
    assert bnd >= max(abs(f), abs(fp)) - 1e-9


def test_grid_validation():
    with pytest.raises(ValueError):
        solve(2.0, 0, 1.0, (0.5, 0.5, 1.0))
    with pytest.raises(ValueError):
        solve(2.0, 0, 1.0, (-1.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        solve(2.0, 1, 0.0, (0.5, 1.0))  # origin threshold needs alpha > k + 1


@pytest.mark.parametrize(
    "alpha, x", [(2.0, math.nan), (2.0, math.inf), (math.nan, 1.0), (math.inf, 1.0)]
)
def test_nonfinite_threshold_or_alpha_is_refused(alpha, x):
    """NaN fails every comparison, so it used to reach the origin branch."""
    with pytest.raises(ValueError, match="finite"):
        solve(alpha, 0, x, (0.5, 1.0))
    with pytest.raises(ValueError, match="finite"):
        envelope(alpha, 0, x)


def test_rhs_closed_form():
    y = np.array([0.5, 1.5, 3.0])
    out = stein_rhs(2.0, 0, 1.0, y)
    eh = float(gamma_pdf_deriv(2.0, 0, 1.0))
    want = np.where(y > 1.0, nu_weight(2.0, 1, y), 0.0) - eh
    assert np.allclose(out, want, atol=1e-13)
    assert stein_rhs(2.0, 0, -1.0, -2.0) == pytest.approx(nu_weight(2.0, 1, -2.0))
    assert stein_rhs(2.0, 0, -1.0, 2.0) == 0.0


@pytest.mark.parametrize(
    "alpha,k,x", [(4.0, 1, 2.0), (6.21, 2, 6.0), (4.0, 1, -2.0), (0.7, 0, -0.4), (4.0, 1, 0.0), (6.0, 2, 0.0)]
)
def test_scalar_rhs_matches_stein_rhs(alpha, k, x):
    """stein_rhs, which applies the per-solve closure elementwise, is
    1_A(y) nu_{k+1}(y) - E h(G) on every branch, at the edges too: y = x
    (A = {y > x} for x > 0, {y <= x} for x < 0, {y < 0} for x = 0), y = 0
    and y < 0."""
    eh = float(gamma_pdf_deriv(alpha, k, x))
    inside = {1: lambda y: y > x, -1: lambda y: y <= x, 0: lambda y: y < 0}[int(np.sign(x))]
    ys = [x, 0.0, -1e-3, -0.4, -0.5, -7.0, 1e-3, 0.9, 2.5, 45.0]
    if x != 0.0:
        ys += [math.nextafter(x, math.inf), math.nextafter(x, -math.inf)]
    for y in ys:
        want = (float(nu_weight(alpha, k + 1, y)) if inside(y) else 0.0) - eh
        assert abs(stein_rhs(alpha, k, x, y) - want) <= 1e-15 * max(1.0, abs(want)), y
    got = stein_rhs(alpha, k, x, np.array(ys))
    assert got.shape == (len(ys),)
    assert list(got) == [stein_rhs(alpha, k, x, y) for y in ys]


def test_quad_solve_evaluates_the_right_hand_side_in_plain_floats(monkeypatch):
    """One solve computes E h(G) once and never goes through the numpy
    weight or stein_rhs inside the quadrature."""
    calls = Counter()

    def counted(name, module):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted("gamma_pdf_deriv", stein_module)
    counted("stein_rhs", stein_module)
    counted("nu_weight", gamma_module)
    assert not hasattr(stein_module, "nu_weight")
    grid = two_sided_grid(1e-2, 20.0, 10)
    sol = solve(4.0, 1, 2.0, grid, method="quad")
    assert len(sol.grid) == 20
    assert calls["gamma_pdf_deriv"] <= 1
    assert calls["nu_weight"] == 0
    assert calls["stein_rhs"] == 0


@pytest.mark.parametrize("beta,A,Y", [
    (1.5, 0.0, 2.0),
    (2.0, 0.5, 8.0),
    (-0.5, 0.25, 3.0),
    (0.0, 0.1, 1.0),
    (3.2, 1.0, 60.0),
])
def test_exp_weighted_power_integral_against_quadrature(beta, A, Y):
    want, err = quad(lambda s: math.exp(s - Y) * s ** (beta - 1.0), A, Y, limit=400)
    got = exp_weighted_power_integral(beta, A, Y)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_exp_weighted_power_integral_validation():
    with pytest.raises(ValueError):
        exp_weighted_power_integral(1.0, -0.5, 1.0)
    with pytest.raises(ValueError):
        exp_weighted_power_integral(-1.0, 0.0, 1.0)
    assert exp_weighted_power_integral(2.0, 1.0, 1.0) == 0.0
