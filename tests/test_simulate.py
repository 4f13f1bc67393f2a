"""Seeded substream reproducibility, functional estimators, and density routes."""

from __future__ import annotations

import math

import numpy as np
import pytest

from chaosgamma.bounds import even_chaos_moments
from chaosgamma.chaos import ChaosVector, evaluate, gradient_norm_sq, moment, second_moment
from chaosgamma.gamma import gamma_pdf
from chaosgamma.mc import (
    CHUNK_SIZE,
    McEstimate,
    SecondChaosSpec,
    density_cf_oracle,
    density_kde,
    density_malliavin,
    estimator_vectors,
    power_column,
    run_chunked,
    run_chunked_multi,
    run_pass,
    substream,
)

TIGHT_ZETA = tuple([0.5] * 12)  # F + 6 is exactly Gamma(6)


def perturbed_spec(seed, size=12, base=0.5, jitter=0.12):
    rng = np.random.default_rng(seed)
    zeta = base + jitter * rng.uniform(-1.0, 1.0, size=size)
    zeta = tuple(sorted((float(z) for z in zeta), reverse=True))
    return SecondChaosSpec(zeta=zeta, alpha=float(2 * sum(z * z for z in zeta)))


# -- substreams and determinism ------------------------------------------------------


def test_substream_reproducible_and_disjoint():
    a = substream(7, 3).standard_normal(8)
    b = substream(7, 3).standard_normal(8)
    c = substream(7, 4).standard_normal(8)
    d = substream(8, 3).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_run_chunked_worker_count_invariance():
    def sample_chunk(gen, m):
        return gen.standard_normal(m) ** 2, 0

    n = 3 * CHUNK_SIZE + 517  # deliberately not a multiple of the chunk size
    one = run_chunked(sample_chunk, n, seed=5, workers=1)
    three = run_chunked(sample_chunk, n, seed=5, workers=3)
    assert one.value == three.value  # bit identical, not just close
    assert one.stderr == three.stderr
    assert one.n == three.n == n
    assert one.chunking == three.chunking


def test_run_chunked_multi_column_consistency():
    def sample_chunk(gen, m):
        z = gen.standard_normal(m)
        return np.stack([z, z * z], axis=1), np.zeros(2, dtype=int)

    ests = run_chunked_multi(sample_chunk, 50_000, seed=6, n_columns=2, workers=2)
    assert ests[0].within(0.0, sigmas=4.0)
    assert ests[1].within(1.0, sigmas=4.0)


def test_column_estimate_does_not_depend_on_its_neighbours():
    """A column run alone and the same column inside a wide pass give the
    identical estimate, bit for bit."""
    F = ChaosVector.second_chaos_diagonal([0.6, 0.5, 0.4])
    vectors = {"F": F, "w": gradient_norm_sq(F)}
    col = power_column(("F", 2.0, 3.0))
    wide = {
        "w^-1": power_column(("w", 0.0, -1.0)),
        "F^2": power_column(("F", 0.0, 2.0)),
        "col": col,
        "wF": power_column(("w", 0.0, 1.0), ("F", 1.5, 1.0)),
    }
    n = 2 * CHUNK_SIZE + 4321
    alone = run_pass(vectors, {"col": col}, n, seed=17)["col"]
    assert run_pass(vectors, wide, n, seed=17)["col"] == alone


def test_run_chunked_multi_rejections_per_column():
    """Each column keeps its own rejection count: a column with rejected
    rows is not flagged, and NaN rows a column does not count as rejected
    stay flagged even when another column rejected more rows."""

    def sample_chunk(gen, m):
        z = gen.standard_normal(m)
        rejected = z < 0.0
        unexplained = np.where(z > 1.0, np.nan, z)
        cols = np.stack([np.where(rejected, np.nan, z), z, unexplained], axis=1)
        return cols, np.array([rejected.sum(), 0, 0])

    n = 2 * CHUNK_SIZE + 100
    rej, clean, stray = run_chunked_multi(sample_chunk, n, seed=7, n_columns=3)
    assert 0 < rej.n_rejected == rej.n_nonfinite < n
    assert "nonfinite_samples" not in rej.flags
    assert clean.n_rejected == 0 and clean.n_nonfinite == 0 and clean.flags == ()
    assert stray.n_rejected == 0 < stray.n_nonfinite < rej.n_rejected
    assert "nonfinite_samples" in stray.flags


def test_run_chunked_multi_requires_one_count_per_column():
    def sample_chunk(gen, m):
        return np.zeros((m, 2)), 0

    with pytest.raises(ValueError, match="shapes"):
        run_chunked_multi(sample_chunk, 100, seed=8, n_columns=2)


def test_power_column_counts_each_rejected_row_once():
    """A row where several bases are rejected is one rejected row."""
    F = ChaosVector.gaussian([1.0])
    col = power_column(("F", 0.0, -1.0), ("F", 0.0, -3.0))
    est = run_pass({"F": F}, {"c": col}, 20_000, seed=9)["c"]
    assert 0 < est.n_rejected == est.n_nonfinite < 20_000
    assert "nonfinite_samples" not in est.flags


def test_mc_estimate_serialization_and_within():
    est = McEstimate(
        value=1.0,
        stderr=0.1,
        n=100,
        seed=3,
        chunking=(100,),
        n_requested=100,
        n_nonfinite=0,
        n_rejected=0,
        max_abs_share=0.01,
        flags=(),
    )
    assert est.within(1.35, sigmas=4.0)
    assert not est.within(1.45, sigmas=4.0)
    doc = est.to_json_dict()
    assert doc["value"] == 1.0 and doc["n"] == 100


# -- functionals against exact chaos moments -----------------------------------------


def test_moment_functional_matches_engine_moment():
    spec = perturbed_spec(11)
    F = spec.chaos_vector()
    col = power_column(("F", spec.alpha, 2.0))
    est = run_pass({"F": F}, {"E[(F+a)^2]": col}, 150_000, seed=12)["E[(F+a)^2]"]
    exact = moment(F + spec.alpha, 2)
    assert est.within(exact, sigmas=4.0)


def test_gradient_norm_functional_positive_power():
    spec = perturbed_spec(13)
    F = spec.chaos_vector()
    # ||DF||^2 = 4 sum zeta_i^2 z_i^2 has mean 4 sum zeta_i^2
    col = power_column(("w", 0.0, 1.0))
    est = run_pass({"w": gradient_norm_sq(F)}, {"E[w]": col}, 150_000, seed=14)["E[w]"]
    want = 4.0 * sum(z * z for z in spec.zeta)
    assert est.within(want, sigmas=4.0)


def test_signed_power_rejections_are_counted():
    F = ChaosVector.gaussian([1.0])
    # E[(F+0)^(-1)] does not exist; samples near 0 and negatives are rejected
    col = power_column(("F", 0.0, -1.0))
    est = run_pass({"F": F}, {"E[F^-1]": col}, 20_000, seed=15)["E[F^-1]"]
    assert est.n_rejected > 0
    # rejected samples are dropped as non-finite, so the two tallies agree
    assert est.n_nonfinite >= est.n_rejected
    assert est.n == est.n_requested - est.n_nonfinite
    assert "heavy_tail" in est.flags


def test_mixed_negative_functional_runs():
    spec = perturbed_spec(16)
    F = spec.chaos_vector()
    vectors = {"F": F, "w": gradient_norm_sq(F)}
    col = power_column(("w", 0.0, -2.0), ("F", spec.alpha, -2.0))
    est = run_pass(vectors, {"mixed": col}, 100_000, seed=17)["mixed"]
    assert est.value > 0
    assert est.n > 0


def test_indicator_functional_tail_probability():
    spec = perturbed_spec(18)
    F = spec.chaos_vector()

    def tail(vals):
        return np.where(vals["F"] + spec.alpha > spec.alpha, 1.0, 0.0), 0

    est = run_pass({"F": F}, {"P": tail}, 150_000, seed=19)["P"]
    # P(F + alpha > alpha) = P(F > 0); sanity interval only
    assert 0.2 < est.value < 0.8


# -- second-chaos spec bookkeeping ---------------------------------------------------


def test_spec_moments_match_engine():
    spec = perturbed_spec(21)
    F = spec.chaos_vector()
    assert spec.variance() == pytest.approx(second_moment(F), rel=1e-12)
    spectral = even_chaos_moments(F, spec.alpha)
    assert spectral["EF3"] == pytest.approx(moment(F, 3), rel=1e-12)
    assert spectral["EF4"] == pytest.approx(moment(F, 4), rel=1e-12)


def test_spec_negative_moment_criterion():
    spec = SecondChaosSpec(zeta=tuple([0.4] * 9), alpha=4.0)  # gap 4 - 3.6 >= 0
    assert spec.negative_moment_finite(4.0)  # 9 > 8
    assert not spec.negative_moment_finite(4.5)  # 9 = 2 * 4.5 fails strictness
    tight_alpha = SecondChaosSpec(zeta=tuple([0.4] * 9), alpha=2.88)
    assert tight_alpha.shift_gap() < 0
    assert not tight_alpha.negative_moment_finite(4.0)
    thin = SecondChaosSpec(zeta=(0.5, 0.5, 0.5), alpha=1.5)
    assert not thin.negative_moment_finite(2.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        SecondChaosSpec(zeta=(), alpha=1.0)
    with pytest.raises(ValueError):
        SecondChaosSpec(zeta=(0.5,), alpha=0.0)
    with pytest.raises(ValueError, match="finite"):
        SecondChaosSpec(zeta=(0.5, math.nan), alpha=1.0)
    with pytest.raises(ValueError, match="finite"):
        SecondChaosSpec(zeta=(0.5,), alpha=math.inf)


def test_spec_json_roundtrip():
    spec = perturbed_spec(22)
    again = SecondChaosSpec.from_json_dict(spec.to_json_dict())
    assert again.zeta == spec.zeta
    assert again.alpha == spec.alpha


# -- density estimators --------------------------------------------------------------


def test_estimator_weights_reduce_to_score_in_one_dimension():
    """For F = zeta (Z^2 - 1) in d = 1 the order-0 weight G_1 must satisfy
    p(x) = E[1_{F+a>x} G_1]; check G_1 against the explicit derivative of
    log density of the half-line variable via the known chi-square law at
    the sample level: G_1 = V1/w + V2/w^2 with V1 = -LF, V2 = Gamma(w, F).
    """
    zeta = 0.7
    F = ChaosVector.second_chaos_diagonal([zeta])
    vecs = estimator_vectors(F, 0)
    rng = np.random.default_rng(23)
    Z = rng.normal(size=(64, 1))
    vals = {k: evaluate(v, Z, None) for k, v in vecs.items()}
    z = Z[:, 0]
    w = 4.0 * zeta * zeta * z * z
    assert np.allclose(vals["w"], w, atol=1e-10)
    assert np.allclose(vals["V1"], 2.0 * evaluate(F, Z), atol=1e-10)
    # V2 = <Dw, DF> = (8 zeta^2 z)(2 zeta z) = 16 zeta^3 z^2
    assert np.allclose(vals["V2"], 16.0 * zeta**3 * z * z, atol=1e-10)


def test_density_malliavin_matches_cf_oracle():
    spec = perturbed_spec(24, size=13)
    F = spec.chaos_vector()
    xs = [0.6 * spec.alpha, spec.alpha, 1.7 * spec.alpha]
    ests = density_malliavin(F, spec.alpha, 0, xs, 150_000, seed=25, workers=2)
    oracle = density_cf_oracle(spec, xs)
    for est, want in zip(ests, oracle):
        assert est.within(want, sigmas=4.0)


def test_density_malliavin_tight_case_recovers_gamma():
    F = ChaosVector.second_chaos_diagonal(TIGHT_ZETA)
    xs = [4.0, 6.0]
    ests = density_malliavin(F, 6.0, 0, xs, 200_000, seed=26)
    for est, x in zip(ests, xs):
        assert est.within(float(gamma_pdf(6.0, x)), sigmas=4.0)


def test_density_first_derivative_against_cf_differences():
    spec = perturbed_spec(27, size=13)
    F = spec.chaos_vector()
    x = spec.alpha
    ests = density_malliavin(F, spec.alpha, 1, [x], 200_000, seed=28)
    h = 0.05
    lo, hi = density_cf_oracle(spec, [x - h, x + h])
    want = (hi - lo) / (2 * h)
    # allow the O(h^2) truncation of the oracle derivative on top of MC noise
    assert abs(ests[0].value - want) <= 4.0 * ests[0].stderr + 1e-3


def test_density_kde_matches_oracle_with_bias_allowance():
    spec = perturbed_spec(29)
    F = spec.chaos_vector()
    xs = [spec.alpha]
    n = 100_000
    sigma = math.sqrt(spec.variance())
    bandwidth = 1.06 * sigma * n ** (-0.2)
    est = density_kde(F, spec.alpha, xs, n, bandwidth, seed=30)[0]
    want = density_cf_oracle(spec, xs)[0]
    # second-derivative bias h^2 p''/2; bound |p''| crudely through the oracle
    h = 0.25 * sigma
    lo, mid, hi = density_cf_oracle(spec, [xs[0] - h, xs[0], xs[0] + h])
    curv = abs(hi - 2 * mid + lo) / (h * h)
    tol = 4.0 * est.stderr + 0.75 * bandwidth * bandwidth * max(curv, 0.005)
    assert abs(est.value - want) <= tol


def test_density_cf_oracle_tight_case_equals_gamma_pdf():
    spec = SecondChaosSpec(zeta=TIGHT_ZETA, alpha=6.0)
    xs = [2.0, 4.0, 6.0, 10.0]
    got = density_cf_oracle(spec, xs)
    for x, v in zip(xs, got):
        assert v == pytest.approx(float(gamma_pdf(6.0, x)), rel=1e-5, abs=1e-8)


def test_density_rejects_bad_bandwidth():
    spec = perturbed_spec(31)
    with pytest.raises(ValueError):
        density_kde(spec.chaos_vector(), spec.alpha, [1.0], 1000, 0.0, seed=32)


def test_density_malliavin_worker_invariance():
    spec = perturbed_spec(33)
    F = spec.chaos_vector()
    xs = [spec.alpha]
    a = density_malliavin(F, spec.alpha, 0, xs, 40_000, seed=34, workers=1)[0]
    b = density_malliavin(F, spec.alpha, 0, xs, 40_000, seed=34, workers=4)[0]
    assert a.value == b.value
    assert a.stderr == b.stderr
    assert a.to_json_dict() == b.to_json_dict()
