"""Contraction constants, defect expansions, and the assembled density bounds."""

from __future__ import annotations

import math
from itertools import combinations_with_replacement, product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import roots_hermitenorm

from chaosgamma.bounds import (
    assemble_density_bound,
    assemble_general_bound,
    c1_constant,
    defect_domination_constant,
    dtheta_identity_check,
    fourth_moment_combo,
    lambda_const,
    lambda_field,
    lambda_norm_direct,
    lambda_norm_expansion,
    lambda_norm_symmetrized,
    lambda_norm_symmetrized_expansion,
    second_chaos_eigenvalues,
    second_derivative_defect_direct,
    second_derivative_defect_expansion,
    shifted_positive_moment,
    tau_const,
    theta,
    theta_variance_direct,
    theta_variance_expansion,
    wbar,
)
from chaosgamma import bounds, mc
from chaosgamma.bounds import _variance_flag
from chaosgamma.chaos import (
    ChaosVector,
    evaluate,
    expectation,
    generator_inverse,
    gradient_norm_sq,
    malliavin_derivative,
    moment,
    second_moment,
)
from chaosgamma.multiindex import as_multi_index
from chaosgamma.stein import envelope
from chaosgamma.tensors import SymTensor, symmetrize

EXACT = 1e-10


@settings(deadline=None, max_examples=40)
@given(st.sampled_from((2, 4)), st.integers(1, 3), st.data())
def test_dtheta_identity_property(q, d, data):
    """D Theta = q Lambda(2, 1) on random even-order kernels with d <= 3."""
    coeff = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    f = SymTensor(q, d, {m: data.draw(coeff) for m in combinations_with_replacement(range(d), q)})
    assume(f.norm_sq() > 1e-12)
    assert dtheta_identity_check(f)


def admissible_kl(q):
    out = []
    for k in range(1, q // 2 + 2):
        for l in range(1, q // 2 + 2):
            if k + l >= 3:
                out.append((k, l))
    return out


def random_kernel(rng, q, dim, scale=0.5):
    return symmetrize(rng.normal(size=(dim,) * q) * scale)


def second_chaos_kernel(rng, dim):
    zeta = 0.5 + 0.15 * rng.uniform(-1.0, 1.0, size=dim)
    return ChaosVector.second_chaos_diagonal(zeta).kernel(2), zeta


def rel_close(a, b, tol=EXACT):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def vectors_equal(a, b, tol=1e-12):
    d = a - b
    return abs(d.constant) <= tol and d.max_abs_coeff() <= tol


# -- combinatorial constants ---------------------------------------------------------


def test_lambda_basic_values_and_symmetry():
    for q in (2, 4, 6, 8):
        assert lambda_const(2, 1, q) == pytest.approx(2.0 / q, rel=1e-14)
        for k, l in admissible_kl(q):
            assert lambda_const(k, l, q) == pytest.approx(lambda_const(l, k, q), rel=1e-14)
            assert lambda_const(k, l, q) > 0


def test_lambda_recursion():
    """1/lambda(k+1,l) + 1/lambda(k,l+1) = 1/lambda(k,l) whenever all three
    index pairs stay admissible."""
    checked = 0
    for q in (2, 4, 6, 8):
        for k in range(1, q // 2 + 1):
            for l in range(1, q // 2 + 1):
                if k + l < 3:
                    continue
                lhs = 1.0 / lambda_const(k + 1, l, q) + 1.0 / lambda_const(k, l + 1, q)
                rhs = 1.0 / lambda_const(k, l, q)
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
                checked += 1
    assert checked > 10


def test_lambda_domain_errors():
    with pytest.raises(ValueError):
        lambda_const(2, 1, 3)  # odd order
    with pytest.raises(ValueError):
        lambda_const(1, 1, 4)  # k + l < 3
    with pytest.raises(ValueError):
        lambda_const(4, 1, 4)  # k beyond q/2 + 1


def test_tau_lambda_identity_at_special_rank():
    """tau(k,l,q/2-1) * lambda(k,l) depends on (k,l) only through the
    factorial (q-k-l+2)!."""
    for q in (2, 4, 6):
        r = q // 2 - 1
        base = (
            math.factorial(q)
            * q
            * math.factorial(q // 2 - 1)
            * math.comb(q - 1, q // 2 - 1) ** 2
        )
        for k, l in admissible_kl(q):
            if r > q - max(k, l):
                continue
            got = tau_const(k, l, r, q) * lambda_const(k, l, q)
            want = base / math.factorial(q - k - l + 2)
            assert rel_close(got, want, 1e-12)


def test_tau_zero_rank_value():
    assert tau_const(2, 1, 0, 4) == pytest.approx(
        math.factorial(4) ** 2 / (math.factorial(2) * math.factorial(3)), rel=1e-13
    )
    with pytest.raises(ValueError):
        tau_const(2, 1, 5, 4)  # r beyond q - max(k,l)


def test_c1_values():
    assert [c1_constant(q) for q in (2, 4, 6, 8)] == [2.0, 6.0, 10.0, 14.0]
    with pytest.raises(ValueError):
        c1_constant(3)


@pytest.mark.parametrize("q", [2, 4, 6, 8, 10])
def test_c1_closed_form_matches_the_shared_weight_table(q):
    """2 D^2F (x)_1 DF - q DF = q Lambda(2, 1), so C1 is q^2 C(q, 2, 1)."""
    assert q**2 * defect_domination_constant(q, 2, 1) == pytest.approx(c1_constant(q), rel=1e-15)


# -- Theta and wbar ------------------------------------------------------------------


def test_theta_is_centered_gradient_defect():
    rng = np.random.default_rng(41)
    f, zeta = second_chaos_kernel(rng, 8)
    F = ChaosVector.from_kernel(f)
    alpha = second_moment(F)
    T = theta(F, alpha)
    assert expectation(T) == pytest.approx(0.0, abs=1e-12)
    W = wbar(F)
    assert expectation(W) == pytest.approx(alpha, rel=1e-12)
    assert vectors_equal(T, (W - F - alpha).scale(2.0))


def test_wbar_identities():
    rng = np.random.default_rng(39)
    f = random_kernel(rng, 4, 3, scale=0.4)
    F = ChaosVector.from_kernel(f)
    assert vectors_equal(wbar(F), gradient_norm_sq(F).scale(0.25), tol=1e-11)
    mixed = ChaosVector.gaussian([1.0, 0.5]) + ChaosVector.second_chaos_diagonal([0.3, 0.3])
    assert expectation(wbar(mixed)) == pytest.approx(second_moment(mixed), rel=1e-12)


def test_theta_multiplied_out():
    """Theta for a diagonal second-chaos spectrum has the explicit expansion
    4 sum zeta_i^2 (Z_i^2 - 1) + 2(2 sum zeta_i^2 - alpha) - 2 F."""
    zeta = np.array([0.7, 0.4, 0.3])
    F = ChaosVector.second_chaos_diagonal(zeta)
    alpha = 2.0 * float(np.sum(zeta * zeta))
    explicit = (
        ChaosVector.second_chaos_diagonal(4.0 * zeta * zeta)
        - F.scale(2.0)
        + (4.0 * float(np.sum(zeta * zeta)) - 2.0 * alpha)
    )
    assert vectors_equal(theta(F, alpha), explicit)


def test_theta_rejects_alpha_mismatch_and_odd_order():
    rng = np.random.default_rng(40)
    f, _ = second_chaos_kernel(rng, 6)
    F = ChaosVector.from_kernel(f)
    with pytest.raises(ValueError, match="does not match"):
        theta(F, second_moment(F) + 0.3)
    odd = ChaosVector.from_kernel(random_kernel(rng, 3, 3))
    with pytest.raises(ValueError, match="odd"):
        theta(odd, second_moment(odd))


# -- contraction expansions against direct engine moments ----------------------------


def test_theta_variance_expansion_second_chaos():
    rng = np.random.default_rng(42)
    for trial in range(6):
        f, zeta = second_chaos_kernel(rng, 6 + (trial % 3))
        alpha = 2.0 * float(np.sum(zeta * zeta))
        assert rel_close(theta_variance_expansion(f, alpha), theta_variance_direct(f, alpha))


def test_theta_variance_expansion_q4():
    rng = np.random.default_rng(43)
    for dim in (2, 3):
        f = random_kernel(rng, 4, dim, scale=0.4)
        alpha = second_moment(ChaosVector.from_kernel(f))
        assert rel_close(theta_variance_expansion(f, alpha), theta_variance_direct(f, alpha))


def test_theta_variance_alpha_mismatch_rejected():
    rng = np.random.default_rng(44)
    f, _ = second_chaos_kernel(rng, 6)
    with pytest.raises(ValueError, match="does not match"):
        theta_variance_expansion(f, 1.0)


def test_second_derivative_defect_expansion():
    rng = np.random.default_rng(45)
    for trial in range(4):
        f, _ = second_chaos_kernel(rng, 6)
        assert rel_close(second_derivative_defect_expansion(f), second_derivative_defect_direct(f))
    for dim in (2, 3):
        f = random_kernel(rng, 4, dim, scale=0.4)
        assert rel_close(second_derivative_defect_expansion(f), second_derivative_defect_direct(f))


def test_lambda_norm_expansion_rank_one():
    """The (2,1) contraction defect expansion is an exact identity."""
    rng = np.random.default_rng(46)
    f, _ = second_chaos_kernel(rng, 7)
    assert rel_close(lambda_norm_expansion(f, 2, 1), lambda_norm_direct(f, 2, 1))
    g = random_kernel(rng, 4, 3, scale=0.4)
    assert rel_close(lambda_norm_expansion(g, 2, 1), lambda_norm_direct(g, 2, 1))


def test_lambda_norm_expansion_second_chaos_all_orders():
    """At q = 2 the expansion is exact for every admissible (k, l)."""
    rng = np.random.default_rng(47)
    f, _ = second_chaos_kernel(rng, 6)
    for k, l in admissible_kl(2):
        assert rel_close(lambda_norm_expansion(f, k, l), lambda_norm_direct(f, k, l))


def test_lambda_norm_expansion_exact_q4_q6():
    """The closed expansion equals the direct norm for every admissible
    (k, l) at q = 4, d = 4 and at q = 6, d = 2."""
    rng = np.random.default_rng(52)
    for q, dim in [(4, 4), (6, 2)]:
        f = random_kernel(rng, q, dim, scale=0.4 / dim)
        for k, l in admissible_kl(q):
            assert rel_close(lambda_norm_expansion(f, k, l), lambda_norm_direct(f, k, l))


def test_lambda_norm_symmetrized_expansion_lower_bound():
    """The fully symmetrized expansion is a lower bound of the direct norm,
    equal to it at (2, 1) and strictly below it at (3, 3) for q = 4."""
    rng = np.random.default_rng(53)
    f = random_kernel(rng, 4, 3, scale=0.4)
    for k, l in admissible_kl(4):
        assert lambda_norm_symmetrized_expansion(f, k, l) <= lambda_norm_direct(f, k, l) * (
            1.0 + 1e-12
        )
    assert rel_close(lambda_norm_symmetrized_expansion(f, 2, 1), lambda_norm_direct(f, 2, 1))
    sym = lambda_norm_symmetrized_expansion(f, 3, 3)
    full = lambda_norm_direct(f, 3, 3)
    assert full - sym > 0.01 * full


def test_lambda_field_symmetry_split_q4():
    """Lambda(2,2) and Lambda(3,1) come out fully symmetric, so symmetrizing
    the free slots changes nothing; Lambda(3,2) genuinely loses norm."""
    rng = np.random.default_rng(48)
    f = random_kernel(rng, 4, 3, scale=0.4)
    for k, l in [(2, 2), (3, 1)]:
        assert rel_close(lambda_norm_symmetrized(f, k, l), lambda_norm_direct(f, k, l))
    sym = lambda_norm_symmetrized(f, 3, 2)
    full = lambda_norm_direct(f, 3, 2)
    assert sym <= full * (1.0 + 1e-12)
    assert full - sym > 1e-6 * full


def test_lambda_field_grouped_storage_equals_tuple_enumeration():
    """E||Lambda(k,l)||^2 from multiset components with multiplicities equals
    the brute-force sum over all index tuples."""
    rng = np.random.default_rng(49)
    f = random_kernel(rng, 4, 3, scale=0.4)
    for k, l in [(2, 2), (3, 2)]:
        field = lambda_field(f, k, l)
        brute = 0.0
        for jt in product(range(3), repeat=k - 1):
            for kt in product(range(3), repeat=l - 1):
                comp = field.component(as_multi_index(jt), as_multi_index(kt))
                brute += second_moment(comp)
        assert rel_close(field.norm_sq_expectation(), brute, 1e-11)


def test_dtheta_identity():
    rng = np.random.default_rng(50)
    f, _ = second_chaos_kernel(rng, 6)
    assert dtheta_identity_check(f)
    g = random_kernel(rng, 4, 3, scale=0.4)
    assert dtheta_identity_check(g)


def test_defect_domination_by_theta_variance():
    """E||Lambda(k,l)||^2 <= C(q,k,l) E[Theta^2] on random kernels."""
    rng = np.random.default_rng(51)
    f, zeta = second_chaos_kernel(rng, 6)
    alpha = 2.0 * float(np.sum(zeta * zeta))
    tvar = theta_variance_direct(f, alpha)
    for k, l in admissible_kl(2):
        assert lambda_norm_direct(f, k, l) <= defect_domination_constant(2, k, l) * tvar * (
            1.0 + 1e-9
        )
    g = random_kernel(rng, 4, 3, scale=0.4)
    alpha4 = second_moment(ChaosVector.from_kernel(g))
    tvar4 = theta_variance_direct(g, alpha4)
    for k, l in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        assert lambda_norm_direct(g, k, l) <= defect_domination_constant(4, k, l) * tvar4 * (
            1.0 + 1e-9
        )


# -- fourth-moment combination -------------------------------------------------------


def test_fourth_moment_combo_against_engine_moments():
    """The spectral route inside the combo agrees with the chaos-product
    moments computed in the engine."""
    rng = np.random.default_rng(52)
    f, zeta = second_chaos_kernel(rng, 8)
    F = ChaosVector.from_kernel(f)
    alpha = second_moment(F)
    ef3 = moment(F, 3)
    ef4 = moment(F, 4)
    assert ef3 == pytest.approx(8.0 * float(np.sum(zeta**3)), rel=1e-11)
    assert ef4 == pytest.approx(
        48.0 * float(np.sum(zeta**4)) + 12.0 * float(np.sum(zeta**2)) ** 2, rel=1e-11
    )
    want = ef4 - 6.0 * ef3 + 6.0 * (1.0 - alpha) * alpha + 3.0 * alpha * alpha
    assert fourth_moment_combo(F, alpha) == pytest.approx(want, rel=1e-11)


def test_fourth_moment_combo_tight_case_vanishes():
    F = ChaosVector.second_chaos_diagonal([0.5] * 12)
    assert abs(fourth_moment_combo(F, 6.0)) <= 1e-10


def test_theta_variance_equals_two_thirds_combo_at_q2():
    """In the second chaos E[Theta^2] = (2/3) * fourth-moment combination,
    an exact identity rather than an inequality."""
    rng = np.random.default_rng(53)
    for trial in range(5):
        f, zeta = second_chaos_kernel(rng, 5 + trial)
        F = ChaosVector.from_kernel(f)
        alpha = second_moment(F)
        tvar = second_moment(theta(F, alpha))
        combo = fourth_moment_combo(F, alpha)
        assert rel_close(tvar, (2.0 / 3.0) * combo, 1e-11)


def test_theta_variance_below_combo_at_q4():
    rng = np.random.default_rng(54)
    g = random_kernel(rng, 4, 3, scale=0.4)
    F = ChaosVector.from_kernel(g)
    alpha = second_moment(F)
    tvar = second_moment(theta(F, alpha))
    combo = fourth_moment_combo(F, alpha)
    assert tvar <= (16.0 / 3.0) * combo * (1.0 + 1e-9)


# -- positive moment routes ----------------------------------------------------------


def test_shifted_positive_moment_routes():
    rng = np.random.default_rng(55)
    f, zeta = second_chaos_kernel(rng, 6)
    F = ChaosVector.from_kernel(f)
    alpha = second_moment(F)

    assert shifted_positive_moment(F, alpha, 0.0) == (1.0, "trivial")

    val2, route2 = shifted_positive_moment(F, alpha, 2.0)
    assert route2 == "spectral"
    assert val2 == pytest.approx(moment(F + alpha, 2), rel=1e-11)

    g = random_kernel(rng, 4, 2, scale=0.3)
    G = ChaosVector.from_kernel(g)
    beta = second_moment(G)
    val3, route3 = shifted_positive_moment(G, beta, 2.0)
    assert route3 == "chaos-product"
    assert val3 == pytest.approx(moment(G + beta, 2), rel=1e-11)

    assert shifted_positive_moment(G, beta, 2.5) is None

    with pytest.raises(ValueError):
        shifted_positive_moment(F, alpha, -1.0)


def test_chaos_product_route_reaches_exponent_six_at_q4():
    """moment builds only (G + beta)^ceil(e/2), so on a q = 4 kernel the
    integer exponents up to 6 are exact (order 4 * 3 = 12) and 7 is not;
    the exact values match tensor Gauss-Hermite quadrature."""
    rng = np.random.default_rng(61)
    G = ChaosVector.from_kernel(random_kernel(rng, 4, 2, scale=0.3))
    beta = second_moment(G)
    nodes, weights = roots_hermitenorm(16)  # exact to per-axis degree 31
    weights = weights / math.sqrt(2.0 * math.pi)
    Z = np.array(list(product(nodes, repeat=2)))
    W = np.prod(np.array(list(product(weights, repeat=2))), axis=1)
    values = evaluate(G, Z) + beta
    for e in (4, 5, 6):
        val, route = shifted_positive_moment(G, beta, float(e))
        assert route == "chaos-product"
        assert val == pytest.approx(float(np.sum(W * values**e)), rel=1e-9)
    assert shifted_positive_moment(G, beta, 7.0) is None


# -- spectrum helpers ----------------------------------------------------------------


def test_second_chaos_eigenvalues():
    zeta = [0.9, 0.5, 0.2]
    F = ChaosVector.second_chaos_diagonal(zeta)
    eigs = second_chaos_eigenvalues(F)
    assert eigs is not None
    assert np.allclose(sorted(eigs), sorted(zeta), atol=1e-12)
    rng = np.random.default_rng(61)
    G = ChaosVector.from_kernel(random_kernel(rng, 4, 2))
    assert second_chaos_eigenvalues(G) is None
    mixed = ChaosVector.gaussian([1.0]) + ChaosVector.second_chaos_diagonal([0.5])
    assert second_chaos_eigenvalues(mixed) is None


def test_second_chaos_eigenvalues_dense_kernel():
    """A rotated diagonal kernel recovers the same spectrum."""
    rng = np.random.default_rng(62)
    zeta = np.array([0.8, 0.6, 0.5, 0.4])
    quad, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    dense = quad @ np.diag(zeta) @ quad.T
    F = ChaosVector.from_kernel(symmetrize(dense))
    eigs = second_chaos_eigenvalues(F)
    assert eigs is not None
    assert np.allclose(np.sort(eigs), np.sort(zeta), atol=1e-10)


# -- assembled bounds ----------------------------------------------------------------


def ok_spec_vector(rng, size=12):
    zeta = np.sort(0.55 + 0.05 * rng.uniform(-1.0, 1.0, size=size))[::-1]
    F = ChaosVector.second_chaos_diagonal(zeta)
    return F, second_moment(F)


ROUTES = {"chaos-moment": assemble_density_bound, "malliavin-general": assemble_general_bound}


# refused spectra and the routes that refuse them: eight eigenvalues at a
# positive shift gap carry every chaos-moment column (E[w^-3] needs m > 6)
# but not the general route's E[wbar^-6] (m > 12)
REFUSALS = [
    ([0.6] * 10 + [-0.2], "negative eigenvalues", sorted(ROUTES)),
    ([0.3] * 12, "shift gap", sorted(ROUTES)),
    ([0.5] * 8, "positive eigenvalues", sorted(ROUTES)),
    ([0.55] * 8, "positive eigenvalues", ["malliavin-general"]),
]


@pytest.mark.parametrize(
    "zeta,message,route",
    [
        pytest.param(zeta, message, route, id=f"zeta{i}-{message}-{route}")
        for i, (zeta, message, routes) in enumerate(REFUSALS)
        for route in routes
    ],
)
def test_spectrum_refusals(zeta, message, route):
    F = ChaosVector.second_chaos_diagonal(zeta)
    with pytest.raises(ValueError, match=message):
        ROUTES[route](F, second_moment(F), [1.0], 1000, seed=64)


@pytest.mark.parametrize(
    "route,zeta,message",
    [
        ("chaos-moment", [0.6, 0.2] * 4 + [0.5], None),  # m = 9 at shift gap 0
        ("chaos-moment", [0.55] * 9, None),  # m = 9 at a positive gap
        ("malliavin-general", [0.55] * 12, "nonzero eigenvalues"),
        ("malliavin-general", [0.55] * 13, None),
        ("chaos-moment", [0.55] * 8, None),  # m = 8 at a positive gap: E[w^-3] needs m > 6
        ("chaos-moment", [0.55] * 6, "nonzero eigenvalues"),
    ],
)
def test_spectrum_refusal_boundaries(route, zeta, message):
    F = ChaosVector.second_chaos_diagonal(zeta)
    alpha = second_moment(F)
    if message is not None:
        with pytest.raises(ValueError, match=message):
            ROUTES[route](F, alpha, [1.0], 1000, seed=65)
        return
    rep = ROUTES[route](F, alpha, [1.0], 1000, seed=65)
    assert math.isfinite(rep.bound[1.0])
    assert "negative_moment_existence_unverified" not in rep.flags


def test_density_bound_refusals():
    rng = np.random.default_rng(63)
    odd = ChaosVector.from_kernel(random_kernel(rng, 3, 3))
    with pytest.raises(ValueError, match="odd"):
        assemble_density_bound(odd, second_moment(odd), [1.0], 1000, seed=67)
    F, alpha = ok_spec_vector(rng)
    with pytest.raises(ValueError, match="does not match"):
        assemble_density_bound(F, alpha + 0.5, [1.0], 1000, seed=68)
    with pytest.raises(ValueError, match="finite"):
        assemble_density_bound(F, alpha, [1.0, math.nan], 1000, seed=68)
    with pytest.raises(ValueError, match="finite"):
        assemble_density_bound(F, math.nan, [1.0], 1000, seed=68)


def test_density_bound_tight_case_short_circuit():
    F = ChaosVector.second_chaos_diagonal([0.5] * 12)
    rep = assemble_density_bound(F, 6.0, [3.0, 6.0, 12.0], 20_000, seed=69)
    assert "zero_defect_shortcut" in rep.flags
    assert all(v == 0.0 for v in rep.bound.values())
    assert rep.fourth_moment_combo <= 1e-10
    assert all(rep.domination_ok().values())
    assert rep.negative_moments == {}


def test_density_bound_perturbed_spec_report():
    rng = np.random.default_rng(70)
    F, alpha = ok_spec_vector(rng)
    xs = [alpha / 2, alpha, 2 * alpha]
    rep = assemble_density_bound(F, alpha, xs, 40_000, seed=71, workers=2)
    assert rep.kind == "chaos-moment"
    assert rep.q == 2
    assert all(rep.bound[x] > 0 for x in rep.xs())
    assert all(rep.domination_ok().values())
    assert "workers" not in rep.meta
    assert {"E[w^-2]", "E[w^-3]", "E[w^-2 (F+a)^-2]"} <= set(rep.negative_moments)
    csv = rep.csv_text()
    lines = csv.splitlines()
    assert lines[0] == "x,density_mc,density_target,abs_diff,bound"
    assert len(lines) == 4
    doc = rep.to_json_dict()
    assert doc["kind"] == "chaos-moment"
    assert set(doc["stein_envelope"]) == {f"{x:.12g}" for x in xs}


def test_general_bound_report_and_flags():
    rng = np.random.default_rng(72)
    zeta = np.sort(0.58 + 0.06 * rng.uniform(-1.0, 1.0, size=14))[::-1]
    F = ChaosVector.second_chaos_diagonal(zeta)
    alpha = second_moment(F)
    rep = assemble_general_bound(F, alpha, [alpha], 30_000, seed=73, s=8)
    assert rep.kind == "malliavin-general"
    assert rep.s == 8 and rep.p == pytest.approx(4.8) and rep.r == pytest.approx(4.8)
    assert rep.defect_moment >= 0
    assert "negative_moment_existence_unverified" not in rep.flags
    assert "s4_constant_uncertified" not in rep.flags
    assert rep.bound[alpha] > 0
    assert "workers" not in rep.meta
    assert {"E[wbar^-2]", "E[wbar^-2 (F+a)^-2]", "E[wbar^-6]", "E[||D Linv F||^3]"} <= set(
        rep.negative_moments
    )

    rep4 = assemble_general_bound(F, alpha, [alpha], 10_000, seed=74, s=4)
    assert "s4_constant_uncertified" in rep4.flags


def test_general_bound_refusals():
    F = ChaosVector.second_chaos_diagonal([0.7] * 12)
    alpha = second_moment(F)
    with pytest.raises(ValueError, match="nonzero eigenvalues"):
        assemble_general_bound(F, alpha, [alpha], 1000, seed=75)
    with pytest.raises(ValueError):
        assemble_general_bound(F, alpha, [alpha], 1000, seed=76, s=6)
    with pytest.raises(ValueError, match="centered"):
        assemble_general_bound(F + 1.0, alpha, [alpha], 1000, seed=77, s=8)


def test_general_bound_mixed_chaos_flag():
    """A genuinely mixed functional cannot be prechecked spectrally, so the
    existence flag must be raised."""
    zeta = np.linspace(0.68, 0.52, 14)
    F2 = ChaosVector.second_chaos_diagonal(zeta)
    dense = np.zeros((14,) * 3)
    dense[:2, :2, :2] = np.random.default_rng(79).normal(size=(2, 2, 2)) * 0.01
    F = F2 + ChaosVector.from_kernel(symmetrize(dense))
    alpha = second_moment(F)
    rep = assemble_general_bound(F, alpha, [alpha], 20_000, seed=80, s=8)
    assert "negative_moment_existence_unverified" in rep.flags


def test_positive_moment_flags_agree_across_routes():
    """On a q = 4 element F + alpha takes negative values, so fractional
    positive moments go to Monte Carlo with rejected bases; both routes must
    record the same flags for each moment they share."""
    rng = np.random.default_rng(0)
    F = ChaosVector.from_kernel(random_kernel(rng, 4, 2, scale=0.3))
    alpha = second_moment(F)
    moment_rep = assemble_density_bound(F, alpha, [alpha], 4000, seed=5)
    general_rep = assemble_general_bound(F, alpha, [alpha], 4000, seed=5)
    shared = set(moment_rep.positive_moments) & set(general_rep.positive_moments)
    assert shared
    for label in shared:
        a = moment_rep.positive_moments[label]
        b = general_rep.positive_moments[label]
        assert a["route"] == "mc"
        assert "signed_base_rejections" in a["flags"]
        assert a["flags"] == b["flags"]


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("case", ["second-chaos", "q4"])
def test_assembly_asks_the_router_once_per_positive_exponent(case, route, monkeypatch):
    """On the 14-eigenvalue spectrum every plan exponent 2, 4, ..., 12 is
    spectral.  The q = 4 element F = c (H_4(Z_1) + H_4(Z_2)) stays above
    -12 c = -3.24 > -alpha, so its odd moments are absolute moments, and
    x = -1 at alpha = 3.5 needs exponents 5 (chaos-product) and 7 (no exact
    route, so a pass column)."""
    if case == "second-chaos":
        F = ChaosVector.second_chaos_diagonal(np.linspace(0.62, 0.52, 14))
        alpha, xs = 7.0, [3.5, 7.0, 14.0]
    else:
        F = ChaosVector.from_kernel(SymTensor(4, 2, {(0, 0, 0, 0): 1.0, (1, 1, 1, 1): 1.0}))
        alpha, xs = 3.5, [-1.0]
    F = F.scale(math.sqrt(alpha / second_moment(F)))
    calls = []
    router = bounds.shifted_positive_moment

    def counting(F, alpha, exponent):
        calls.append(exponent)
        return router(F, alpha, exponent)

    monkeypatch.setattr(bounds, "shifted_positive_moment", counting)
    rep = ROUTES[route](F, alpha, xs, 2000, seed=84)
    want = {2.0 * p for x in xs for p, c in envelope(alpha, 0, x).terms if c != 0.0 and p > 0}
    assert sorted(calls) == sorted(want)
    routes = {k: v["route"] for k, v in rep.positive_moments.items()}
    if case == "q4":
        assert routes["E[(F+a)^5]"] == "chaos-product" and routes["E[(F+a)^7]"] == "mc"
    else:
        assert set(routes.values()) == {"spectral"}


# -- the one Gaussian pass behind a bound -----------------------------------------------


def reference_columns(F, alpha, rep, n, seed):
    """Every Monte Carlo column of a report, recomputed by a plain loop: per
    chunk one standard_normals draw on substream(seed + 3, i), then evaluate
    per functional.  Returns label -> (mean over valid rows, mean |v|, n valid)."""
    vectors = {"F": F, "w": gradient_norm_sq(F), "W": wbar(F)}
    DLinv = malliavin_derivative(generator_inverse(F))
    vectors["U"] = DLinv.inner(DLinv)
    est_vecs = mc.estimator_vectors(F, 0)
    vectors["V1"], vectors["V2"] = est_vecs["V1"], est_vecs["V2"]
    exponents = {
        f"E[(F+a)^{2.0 * p:g}]": 2.0 * p
        for env in rep.stein_envelope.values() for p, c in env.terms if c != 0.0 and p != 0.0
    }
    chunks: dict[str, list[np.ndarray]] = {}
    for i, start in enumerate(range(0, n, mc.CHUNK_SIZE)):
        m = min(mc.CHUNK_SIZE, n - start)
        Z = mc.standard_normals(mc.substream(seed + 3, i), (m, F.dim))
        v = {name: evaluate(vec, Z) for name, vec in vectors.items()}
        y = v["F"] + alpha

        def neg(base, p):
            return np.where(base < mc.REJECT_EPS, np.nan, base) ** p

        def pos(base, p):
            return base**p if float(p).is_integer() else neg(base, p)

        cols = {
            "E[w^-2]": neg(v["w"], -2.0),
            "E[w^-3]": neg(v["w"], -3.0),
            "E[w^-2 (F+a)^-2]": neg(v["w"], -2.0) * neg(y, -2.0),
            "E[wbar^-2]": neg(v["W"], -2.0),
            "E[wbar^-2 (F+a)^-2]": neg(v["W"], -2.0) * neg(y, -2.0),
            "E[wbar^-6]": neg(v["W"], -6.0),
            "E[||D Linv F||^3]": pos(v["U"], 1.5),
        }
        cols.update({label: pos(y, ex) for label, ex in exponents.items()})
        weight = v["V1"] / v["w"] + v["V2"] / v["w"] ** 2
        weight = np.where(v["w"] < mc.REJECT_EPS, np.nan, weight)
        cols.update({f"density@{x:g}": np.where(y > x, weight, 0.0) for x in rep.xs()})
        for label, vals in cols.items():
            chunks.setdefault(label, []).append(vals[np.isfinite(vals)])
    out = {}
    for label, parts in chunks.items():
        vals = np.concatenate(parts)
        out[label] = (math.fsum(vals) / len(vals), math.fsum(np.abs(vals)) / len(vals), len(vals))
    return out


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_one_pass_matches_per_functional_reference(route, monkeypatch):
    zeta = np.linspace(0.62, 0.52, 14)
    F = ChaosVector.second_chaos_diagonal(zeta)
    alpha = second_moment(F)
    n, seed = 20_000, 81
    passes = []
    run_chunked_multi = mc.run_chunked_multi

    def counting(*args, **kwargs):
        passes.append(args[1])
        return run_chunked_multi(*args, **kwargs)

    monkeypatch.setattr(mc, "run_chunked_multi", counting)
    rep = ROUTES[route](F, alpha, [alpha / 2, alpha, 2 * alpha], n, seed=seed)
    assert passes == [n]
    assert rep.meta["gaussian_passes"] == 1 and rep.meta["normal_draws"] == n * 14

    ref = reference_columns(F, alpha, rep, n, seed)
    got = dict(rep.negative_moments)
    got.update({f"density@{x:g}": est for x, est in rep.density_mc.items()})
    mc_positive = {k: v for k, v in rep.positive_moments.items() if v["route"] == "mc"}
    assert mc_positive
    checked = 0
    for label, est in got.items():
        mean, mean_abs, n_valid = ref[label]
        assert est.seed == seed + 3
        assert est.n == n_valid, label
        assert abs(est.value - mean) <= 1e-12 * mean_abs, label
        checked += 1
    for label, rec in mc_positive.items():
        mean, mean_abs, _ = ref[label]
        assert abs(rec["value"] - mean) <= 1e-12 * mean_abs, label
        checked += 1
    assert checked >= 4 + 3 + len(mc_positive)


def test_zero_defect_bound_makes_one_pass(monkeypatch):
    passes = []
    run_chunked_multi = mc.run_chunked_multi

    def counting(*args, **kwargs):
        passes.append(args[3])
        return run_chunked_multi(*args, **kwargs)

    monkeypatch.setattr(mc, "run_chunked_multi", counting)
    F = ChaosVector.second_chaos_diagonal([0.5] * 12)
    rep = assemble_density_bound(F, 6.0, [3.0, 6.0], 5000, seed=82)
    assert passes == [2]  # the density columns only
    assert rep.negative_moments == {} and rep.positive_moments == {}


# -- variance existence of the Monte Carlo columns ----------------------------------


def test_readme_spec_flags_infinite_variance_of_w_minus_three():
    """At 12 positive eigenvalues E[w^-6] diverges, so the E[w^-3] estimate
    has no variance; the shift gap 0.11 > 0 keeps the other columns'."""
    F = ChaosVector.second_chaos_diagonal([0.55, 0.55] + [0.5] * 10)
    rep = assemble_density_bound(F, 6.21, [3.0, 6.0, 12.0], 4000, seed=83)
    assert "infinite_variance" in rep.flags
    for label, est in rep.negative_moments.items():
        assert ("infinite_variance" in est.flags) == (label == "E[w^-3]"), label
        assert "variance_unverified" not in est.flags


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_higher_chaos_negative_columns_flag_variance_unverified(route):
    rng = np.random.default_rng(0)
    F = ChaosVector.from_kernel(random_kernel(rng, 4, 2, scale=0.3))
    rep = ROUTES[route](F, second_moment(F), [second_moment(F)], 4000, seed=84)
    assert "variance_unverified" in rep.flags
    for label, est in rep.negative_moments.items():
        negative = label != "E[||D Linv F||^3]"
        assert ("variance_unverified" in est.flags) == negative, label
        assert "infinite_variance" not in est.flags
    assert all("variance_unverified" not in r.get("flags", ()) for r in rep.positive_moments.values())


@pytest.mark.parametrize(
    "zeta,alpha,factors,flag",
    [
        # w^-a: m positive eigenvalues, variance iff m > 4a
        ([0.5] * 12, 6.0, (("w", 0.0, -3.0),), "infinite_variance"),
        ([0.5] * 13, 6.5, (("W", 0.0, -3.0),), None),
        # (F+a)^-b: a positive shift gap always gives a variance ...
        ([0.55] * 4, 2.5, (("F", 2.5, -2.0),), None),
        # ... a zero gap needs m > 4b
        ([0.6] * 4 + [0.2] * 4, 3.2, (("F", 3.2, -2.0),), "infinite_variance"),
        ([0.6] * 6 + [0.3] * 6, 5.4, (("F", 5.4, -2.0),), None),
        # mixed columns: a positive gap needs m > 4a, a zero gap m > 4(a + b)
        ([0.55] * 12, 7.26, (("w", 0.0, -2.0), ("F", 7.26, -2.0)), None),
        ([0.6] * 6 + [0.3] * 6, 5.4, (("w", 0.0, -2.0), ("F", 5.4, -2.0)), "infinite_variance"),
        ([0.55] * 8, 4.84, (("w", 0.0, -2.0), ("F", 4.84, -2.0)), "infinite_variance"),
        # no negative power, no flag; no spectrum, no proof
        ([0.5] * 4, 2.0, (("U", 0.0, 1.5),), None),
        (None, 1.0, (("F", 1.0, -2.0),), "variance_unverified"),
    ],
)
def test_variance_flag_rule(zeta, alpha, factors, flag):
    spectrum = None if zeta is None else np.array(zeta)
    assert _variance_flag(spectrum, alpha, factors) == flag
