"""Operator calculus on finite chaos expansions.

The multiplication, derivative, divergence, and generator routines are
checked against independent oracles: Wick closed forms for low-order
multiple integrals, tensorized Gauss-Hermite quadrature for moments, and
finite differences for jets.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_hermitenorm

from chaosgamma.chaos import (
    ChaosField,
    ChaosVector,
    OrderBudgetError,
    carre_du_champ,
    covariance,
    divergence,
    eval_jet,
    evaluate,
    expectation,
    generator,
    generator_inverse,
    gradient_norm_sq,
    malliavin_derivative,
    moment,
    multiply,
    second_moment,
)
from chaosgamma.spectral import negative_moment_exists
from chaosgamma.tensors import SymTensor, symmetrize, tensor_from_dense

RNG_SEED = 20260819


def random_kernel(rng, order, dim, scale=0.5):
    return tensor_from_dense(symmetrize(rng.normal(size=(dim,) * order) * scale).to_dense())


def random_vector(rng, dim, orders, scale=0.5, constant=0.0):
    F = ChaosVector(dim=dim, constant=constant, kernels={})
    for q in orders:
        F = F + ChaosVector.from_kernel(random_kernel(rng, q, dim, scale))
    return F


def gauss_hermite_expectation(F, nodes_per_axis=15):
    """E[g(Z)] for polynomial g by tensorized probabilists' quadrature."""
    nodes, weights = roots_hermitenorm(nodes_per_axis)
    weights = weights / math.sqrt(2.0 * math.pi)
    grids = np.meshgrid(*([nodes] * F.dim), indexing="ij")
    Z = np.stack([g.ravel() for g in grids], axis=-1)
    W = np.ones(Z.shape[0])
    for axis in range(F.dim):
        W = W * weights[np.unravel_index(np.arange(Z.shape[0]), (nodes_per_axis,) * F.dim)[axis]]
    return float(np.sum(W * evaluate(F, Z)))


# -- evaluation against Wick closed forms --------------------------------------------


def test_evaluate_gaussian_and_second_chaos_closed_forms():
    rng = np.random.default_rng(RNG_SEED)
    Z = rng.normal(size=(64, 3))
    c = [0.3, -1.1, 0.7]
    G = ChaosVector.gaussian(c)
    assert np.allclose(evaluate(G, Z), Z @ np.array(c), atol=1e-12)

    zeta = [0.9, -0.4, 0.25]
    F = ChaosVector.second_chaos_diagonal(zeta)
    want = (Z**2 - 1.0) @ np.array(zeta)
    assert np.allclose(evaluate(F, Z), want, atol=1e-12)


def test_evaluate_dense_wick_formula_order2():
    rng = np.random.default_rng(RNG_SEED + 1)
    f = random_kernel(rng, 2, 4)
    F = ChaosVector.from_kernel(f)
    Z = rng.normal(size=(50, 4))
    fd = f.to_dense()
    want = np.einsum("ni,ij,nj->n", Z, fd, Z) - np.trace(fd)
    assert np.allclose(evaluate(F, Z), want, atol=1e-10)


def test_evaluate_dense_wick_formula_order3():
    rng = np.random.default_rng(RNG_SEED + 2)
    f = random_kernel(rng, 3, 3)
    F = ChaosVector.from_kernel(f)
    Z = rng.normal(size=(50, 3))
    fd = f.to_dense()
    cubic = np.einsum("ijk,ni,nj,nk->n", fd, Z, Z, Z)
    linear = np.einsum("ijj,ni->n", fd, Z)
    assert np.allclose(evaluate(F, Z), cubic - 3.0 * linear, atol=1e-10)


def test_evaluate_dense_wick_formula_order4():
    rng = np.random.default_rng(RNG_SEED + 3)
    f = random_kernel(rng, 4, 2)
    F = ChaosVector.from_kernel(f)
    Z = rng.normal(size=(40, 2))
    fd = f.to_dense()
    quart = np.einsum("ijkl,ni,nj,nk,nl->n", fd, Z, Z, Z, Z)
    quad = np.einsum("ijkk,ni,nj->n", fd, Z, Z)
    const = np.einsum("iijj->", fd)
    assert np.allclose(evaluate(F, Z), quart - 6.0 * quad + 3.0 * const, atol=1e-10)


# -- isometry and orthogonality ------------------------------------------------------


def test_isometry_and_cross_order_orthogonality():
    rng = np.random.default_rng(RNG_SEED + 4)
    for q, dim in [(1, 3), (2, 3), (3, 2), (4, 2)]:
        f = random_kernel(rng, q, dim)
        g = random_kernel(rng, q, dim)
        Fq = ChaosVector.from_kernel(f)
        Gq = ChaosVector.from_kernel(g)
        want = math.factorial(q) * f.inner(g)
        assert expectation(multiply(Fq, Gq)) == pytest.approx(want, rel=1e-12, abs=1e-12)
        assert second_moment(Fq) == pytest.approx(math.factorial(q) * f.norm_sq(), rel=1e-12)
    # different orders are orthogonal
    F2 = ChaosVector.from_kernel(random_kernel(rng, 2, 3))
    F3 = ChaosVector.from_kernel(random_kernel(rng, 3, 3))
    assert expectation(multiply(F2, F3)) == pytest.approx(0.0, abs=1e-12)
    assert covariance(F2, F3) == pytest.approx(0.0, abs=1e-12)


def test_product_formula_agrees_with_pointwise_product():
    rng = np.random.default_rng(RNG_SEED + 5)
    for trial in range(5):
        F = random_vector(rng, 3, (1, 2), constant=rng.normal())
        G = random_vector(rng, 3, (2, 3))
        Z = rng.normal(size=(30, 3))
        lhs = evaluate(multiply(F, G), Z)
        rhs = evaluate(F, Z) * evaluate(G, Z)
        assert np.allclose(lhs, rhs, atol=1e-9 * max(1.0, np.max(np.abs(rhs))))


def test_moments_against_quadrature():
    rng = np.random.default_rng(RNG_SEED + 6)
    F = random_vector(rng, 2, (1, 2, 3), constant=0.4)
    assert expectation(F) == pytest.approx(gauss_hermite_expectation(F), abs=1e-10)
    for p in (2, 3, 4):
        Fp = F
        for _ in range(p - 1):
            Fp = multiply(Fp, F)
        assert moment(F, p) == pytest.approx(gauss_hermite_expectation(Fp), rel=1e-9)


coefficients = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def small_chaos_vectors(draw, dim=None, orders=(1, 2, 3)):
    """A constant plus a random kernel at each chosen order, on d <= 3."""
    d = draw(st.integers(1, 3)) if dim is None else dim
    kernels = {}
    for n in draw(st.sets(st.sampled_from(orders), max_size=len(orders))):
        entries = {m: draw(coefficients) for m in combinations_with_replacement(range(d), n)}
        kernels[n] = SymTensor(n, d, entries)
    return ChaosVector(d, draw(coefficients), kernels)


def repeated_product_moment(F, p):
    """E[F^p] from the fully built product F^p (reference for ``moment``)."""
    Fb = F.with_budget(max(F.max_order, p * F.top_order))
    acc = ChaosVector(F.dim, 1.0, {}, Fb.max_order)
    for _ in range(p):
        acc = multiply(acc, Fb)
    return expectation(acc)


@settings(deadline=None)
@given(small_chaos_vectors(), st.integers(0, 6))
def test_moment_matches_repeated_products(F, p):
    """The isometry route E[F^a F^b] equals the expectation of F^p built in
    full.  Odd moments may cancel to ~0, so the tolerance is relative to
    the hypercontractive bound E|F|^p <= (|c| + sum_n (p-1)^(n/2) ||I_n||)^p."""
    Fb = F.with_budget(max(F.max_order, ((p + 1) // 2) * F.top_order))
    norms = {n: math.sqrt(math.factorial(n) * f.norm_sq()) for n, f in F.kernels.items()}
    scale = (abs(F.constant) + sum(max(p - 1, 1) ** (n / 2) * v for n, v in norms.items())) ** p
    assert moment(Fb, p) == pytest.approx(repeated_product_moment(F, p), rel=1e-10, abs=1e-10 * scale)


@settings(deadline=None)
@given(st.data())
def test_product_formula_holds_pointwise(data):
    """evaluate(multiply(F, G), Z) = evaluate(F, Z) * evaluate(G, Z) at
    random points, F and G with constants and kernels of orders 1 to 3."""
    F = data.draw(small_chaos_vectors())
    G = data.draw(small_chaos_vectors(dim=F.dim))
    point = st.lists(st.floats(-3.0, 3.0), min_size=F.dim, max_size=F.dim)
    Z = np.array(data.draw(st.lists(point, min_size=1, max_size=4)))
    lhs = evaluate(multiply(F, G), Z)
    rhs = evaluate(F, Z) * evaluate(G, Z)
    assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-9)


# -- derivative, divergence, generator ----------------------------------------------


def test_malliavin_derivative_of_diagonal_second_chaos():
    zeta = [0.5, -0.3, 1.2]
    F = ChaosVector.second_chaos_diagonal(zeta)
    DF = malliavin_derivative(F)
    rng = np.random.default_rng(RNG_SEED + 7)
    Z = rng.normal(size=(20, 3))
    for j, z in enumerate(zeta):
        assert np.allclose(evaluate(DF[j], Z), 2.0 * z * Z[:, j], atol=1e-12)


def test_duality_derivative_divergence():
    """E[F delta(u)] = E<DF, u> for polynomial F and field u."""
    rng = np.random.default_rng(RNG_SEED + 8)
    for trial in range(5):
        F = random_vector(rng, 3, (1, 2, 3))
        u = ChaosField(
            dim=3,
            components=tuple(random_vector(rng, 3, (1, 2)) for _ in range(3)),
        )
        lhs = expectation(multiply(F, divergence(u)))
        rhs = expectation(malliavin_derivative(F).inner(u))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


@settings(deadline=None)
@given(st.data())
def test_duality_property(data):
    """E[F delta(u)] = E<DF, u> on random small F and fields u."""
    F = data.draw(small_chaos_vectors())
    u = ChaosField(
        F.dim,
        tuple(data.draw(small_chaos_vectors(dim=F.dim, orders=(1, 2))) for _ in range(F.dim)),
    )
    delta = divergence(u)
    lhs = F.constant * delta.constant + covariance(F, delta)
    rhs = expectation(malliavin_derivative(F).inner(u))
    scale = math.sqrt(second_moment(F)) * sum(math.sqrt(second_moment(c)) for c in u.components)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12 * scale)


def test_generator_is_minus_divergence_of_derivative():
    rng = np.random.default_rng(RNG_SEED + 9)
    F = random_vector(rng, 3, (1, 2, 3), constant=0.8)
    L1 = generator(F)
    L2 = divergence(malliavin_derivative(F)).scale(-1.0)
    diff = L1 - L2
    assert diff.max_abs_coeff() <= 1e-12


def test_generator_scales_chaos_orders():
    rng = np.random.default_rng(RNG_SEED + 10)
    for q in (1, 2, 3, 4):
        F = ChaosVector.from_kernel(random_kernel(rng, q, 2))
        diff = generator(F) + F.scale(q)
        assert diff.max_abs_coeff() <= 1e-13


def test_pseudo_inverse_recenters():
    rng = np.random.default_rng(RNG_SEED + 11)
    F = random_vector(rng, 3, (1, 2, 3), constant=1.5)
    back = generator(generator_inverse(F))
    want = F - expectation(F)
    assert (back - want).max_abs_coeff() <= 1e-12


def test_carre_du_champ_identity_and_gradient():
    rng = np.random.default_rng(RNG_SEED + 12)
    F = random_vector(rng, 3, (1, 2))
    G = random_vector(rng, 3, (2,))
    gamma = carre_du_champ(F, G)
    direct = (
        generator(multiply(F, G))
        - multiply(F, generator(G))
        - multiply(G, generator(F))
    ).scale(0.5)
    assert (gamma - direct).max_abs_coeff() <= 1e-11
    inner = malliavin_derivative(F).inner(malliavin_derivative(G))
    assert (gamma - inner).max_abs_coeff() <= 1e-11
    grad = gradient_norm_sq(F)
    assert (grad - carre_du_champ(F, F)).max_abs_coeff() <= 1e-11


# -- jets, budgets, serialization ----------------------------------------------------


def test_eval_jet_matches_finite_differences():
    rng = np.random.default_rng(RNG_SEED + 13)
    F = random_vector(rng, 3, (1, 2, 3), constant=-0.2)
    z0 = rng.normal(size=3)
    jet = eval_jet(F, z0, 2)
    h = 1e-5

    def fval(z):
        return float(evaluate(F, np.asarray(z)[None, :])[0])

    assert jet.partial(()) == pytest.approx(fval(z0), rel=1e-10)
    for i in range(3):
        zp, zm = z0.copy(), z0.copy()
        zp[i] += h
        zm[i] -= h
        fd = (fval(zp) - fval(zm)) / (2 * h)
        assert jet.partial((i,)) == pytest.approx(fd, rel=2e-5, abs=2e-5)
    for i in range(3):
        for j in range(i, 3):
            zpp, zpm, zmp, zmm = (z0.copy() for _ in range(4))
            for zz, si, sj in ((zpp, 1, 1), (zpm, 1, -1), (zmp, -1, 1), (zmm, -1, -1)):
                zz[i] += si * h
                zz[j] += sj * h
            fd = (fval(zpp) - fval(zpm) - fval(zmp) + fval(zmm)) / (4 * h * h)
            assert jet.partial((i, j)) == pytest.approx(fd, rel=5e-4, abs=5e-4)


def test_order_budget_enforced_on_products():
    rng = np.random.default_rng(RNG_SEED + 14)
    f = random_kernel(rng, 3, 2)
    F = ChaosVector.from_kernel(f, max_order=4)
    with pytest.raises(OrderBudgetError):
        multiply(F, F)
    ok = multiply(F.with_budget(6), F.with_budget(6))
    assert ok.top_order == 6
    # moment builds F^ceil(p/2) only: it raises exactly when 3 * ceil(p/2) > 6
    for p in range(8):
        if 3 * ((p + 1) // 2) > 6:
            with pytest.raises(OrderBudgetError):
                moment(F.with_budget(6), p)
        else:
            assert math.isfinite(moment(F.with_budget(6), p))


def test_json_roundtrip_preserves_evaluation():
    rng = np.random.default_rng(RNG_SEED + 15)
    F = random_vector(rng, 3, (1, 2, 3), constant=0.9)
    G = ChaosVector.from_json_dict(F.to_json_dict())
    Z = rng.normal(size=(10, 3))
    assert np.allclose(evaluate(F, Z), evaluate(G, Z), atol=1e-12)
    assert G.max_order == F.max_order


def test_kernel_order_validation():
    with pytest.raises(ValueError):
        ChaosVector(dim=2, constant=0.0, kernels={0: SymTensor(0, 2, {(): 1.0})})
    with pytest.raises(ValueError):
        ChaosVector(dim=2, constant=0.0, kernels={2: SymTensor(2, 3, {(0, 1): 1.0})})


@pytest.mark.parametrize(
    "zeta,alpha,a,b,finite",
    [
        # E[w^-a] needs more than 2a nonzero eigenvalues, whatever their sign
        ([0.5] * 12, 6.0, 6.0, 0.0, False),
        ([0.5] * 13, 6.5, 6.0, 0.0, True),
        ([0.5] * 4 + [0.0] * 3, 2.0, 2.0, 0.0, False),
        ([0.6] * 4 + [-0.2], 3.0, 2.0, 0.0, True),
        # E[(F+alpha)^-b]: a positive gap is enough, even with few eigenvalues ...
        ([0.55] * 4, 2.5, 0.0, 3.0, True),
        # ... a zero gap needs more than 2b positive eigenvalues ...
        ([0.5] * 3, 1.5, 0.0, 2.0, False),
        ([0.6] * 4 + [0.2] * 4, 3.2, 0.0, 4.0, False),
        ([0.6] * 6 + [0.3] * 6, 5.4, 0.0, 4.0, True),
        # ... and a negative gap or eigenvalue makes every b > 0 diverge
        ([0.3] * 12, 3.0, 0.0, 1.0, False),
        ([0.6] * 10 + [-0.2], 10.0, 0.0, 1.0, False),
        # mixed: a sign failure refutes it; otherwise a positive gap needs
        # m > 2a and a zero gap m > 2(a + b)
        ([0.55] * 12, 7.26, 2.0, 2.0, True),
        ([0.6] * 6 + [0.3] * 6, 5.4, 2.0, 2.0, True),
        ([0.55] * 8, 4.84, 4.0, 4.0, False),
        ([0.3] * 12, 3.0, 2.0, 2.0, False),
        # no negative power
        ([0.5], 0.5, 0.0, 0.0, True),
        # the mixed thresholds: m = 8 at a positive gap, m = 9 at gap 0
        ([0.55] * 8, 4.84, 3.5, 4.0, True),
        ([0.6] * 4 + [0.2] * 4, 3.2, 2.0, 2.0, False),
        ([0.6, 0.2] * 4 + [0.5], 3.7, 2.0, 2.0, True),
    ],
)
def test_negative_moment_existence_rule(zeta, alpha, a, b, finite):
    assert negative_moment_exists(np.array(zeta), alpha, a, b) is finite
