"""Seedable Monte Carlo for chaos functionals.

Reproducibility contract: sampling is partitioned into fixed-size chunks and
chunk i draws from a counter-based Philox stream keyed by (master seed, i).
Per-chunk reductions are folded in chunk order with compensated summation, so
an estimate depends only on (seed, n), with the chunk size fixed at
``CHUNK_SIZE``, and is bit-identical for any worker count.  Normal variates
come from numpy's ziggurat and Gamma variates from the inverse CDF; the
ziggurat's draw count per chunk varies, which is harmless because no chunk
reads another's substream.  numpy promises no ``Generator`` stream across
its versions (NEP 19), so the manifest records the numpy version.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Mapping, Sequence

import numpy as np

from .chaos import (
    ChaosVector,
    carre_du_champ,
    evaluate,
    evaluate_quadratic,
    generator,
    gradient_norm_sq,
    needed_degree,
    quadratic_form,
)
from .polynomials import hermite_table
from .spectral import SecondChaosSpec, density_cf_oracle  # re-exported
from .spectral import check_column, second_chaos_eigenvalues

__all__ = [
    "CHUNK_SIZE",
    "REJECT_EPS",
    "McEstimate",
    "substream",
    "standard_normals",
    "gamma_variates",
    "run_chunked",
    "run_chunked_multi",
    "run_pass",
    "power_column",
    "SecondChaosSpec",
    "density_columns",
    "density_malliavin",
    "density_kde",
    "density_cf_oracle",
    "estimator_vectors",
]

CHUNK_SIZE = 16384
REJECT_EPS = 1e-12
HEAVY_TAIL_SHARE = 0.05
# below 2^_SQUARE_EXP a square is below 2^960, so the squares of 2^60
# samples still sum to a finite float
_SQUARE_EXP = 480

_U_LO = np.finfo(float).tiny
_U_HI = 1.0 - np.finfo(float).epsneg


def substream(seed: int, index: int) -> np.random.Generator:
    """Counter-based generator for chunk `index` of master stream `seed`."""
    key = np.array([np.uint64(seed & (2**64 - 1)), np.uint64(index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def standard_normals(gen: np.random.Generator, shape) -> np.ndarray:
    """N(0,1) variates by numpy's ziggurat (Marsaglia & Tsang 2000) on ``gen``."""
    return gen.standard_normal(shape)


def gamma_variates(gen: np.random.Generator, alpha: float, size: int) -> np.ndarray:
    """Gamma(alpha, 1) variates by inverse CDF."""
    from scipy.special import gammaincinv

    u = gen.random(size)
    return gammaincinv(alpha, np.clip(u, _U_LO, _U_HI))


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo mean with its sampling error and provenance."""

    value: float
    stderr: float
    n: int
    seed: int
    chunking: str
    n_requested: int = 0
    n_nonfinite: int = 0
    n_rejected: int = 0
    max_abs_share: float = 0.0
    flags: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "stderr": self.stderr,
            "n": self.n,
            "seed": self.seed,
            "chunking": self.chunking,
            "n_requested": self.n_requested,
            "n_nonfinite": self.n_nonfinite,
            "n_rejected": self.n_rejected,
            "max_abs_share": self.max_abs_share,
            "flags": list(self.flags),
        }

    def within(self, target: float, sigmas: float = 4.0, atol: float = 0.0) -> bool:
        return abs(self.value - target) <= sigmas * self.stderr + atol


def _chunk_sizes(n: int) -> list[int]:
    if n < 1:
        raise ValueError("need n >= 1 samples")
    full, rem = divmod(n, CHUNK_SIZE)
    return [CHUNK_SIZE] * full + ([rem] if rem else [])


def run_chunked_multi(
    sample_chunk: Callable[[np.random.Generator, int], tuple[np.ndarray, np.ndarray]],
    n: int,
    seed: int,
    n_columns: int,
    workers: int = 1,
) -> list[McEstimate]:
    """Estimate the column means of a (n, n_columns) sample matrix.

    ``sample_chunk(gen, m)`` returns (values of shape (m, n_columns),
    rejected counts of shape (n_columns,)).  Rejected or otherwise invalid
    entries must be NaN; they are dropped per column.  Each column reports
    its own rejection count, and the NaN entries it does not account for
    flag it ``nonfinite_samples``.  Each column is reduced on its own, so its
    estimate does not depend on the other columns of the pass; the fold over
    chunks uses math.fsum on per-chunk partial sums, so the result is
    independent of the worker count.  Each column is squared at a
    power-of-two scale that brings its chunk peak to at most 2^480 (scale 1,
    which is exact, below that), and the fold rescales every chunk to the
    largest scale, so the stderr of values beyond about 1e154 stays finite.
    """
    sizes = _chunk_sizes(n)

    def work(i: int):
        # a value or sum past the float range becomes inf and reaches the
        # estimate, whose callers refuse it; numpy need not warn on the way
        # (errstate is per thread, so it is set here, in the worker)
        with np.errstate(over="ignore"):
            gen = substream(seed, i)
            vals, rejected = sample_chunk(gen, sizes[i])
            vals = np.asarray(vals, dtype=float)
            rejected = np.asarray(rejected, dtype=np.int64)
            if vals.shape != (sizes[i], n_columns) or rejected.shape != (n_columns,):
                raise ValueError(f"sample_chunk returned shapes {vals.shape}, {rejected.shape}")
            finite = np.isfinite(vals)
            # one contiguous row per column, summed pairwise like a lone column
            safe = np.ascontiguousarray(np.where(finite, vals, 0.0).T)
            peak = np.max(np.abs(safe), axis=1, initial=0.0)
            shift = np.maximum(np.frexp(peak)[1] - _SQUARE_EXP, 0)
            # a power of two scales exactly; np.ldexp on the whole chunk costs
            # several times the square it guards
            scaled = safe * np.ldexp(1.0, -shift)[:, None]
            return (
                finite.sum(axis=0).astype(float),
                np.sum(safe, axis=1),
                np.sum(scaled * scaled, axis=1),
                np.sum(np.abs(safe), axis=1),
                peak,
                rejected,
                shift,
            )

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            stats = list(pool.map(work, range(len(sizes))))
    else:
        stats = [work(i) for i in range(len(sizes))]

    chunk_tag = f"philox2x64/{CHUNK_SIZE}"
    out = []
    for c in range(n_columns):
        n_used = int(math.fsum(s[0][c] for s in stats))
        total = math.fsum(s[1][c] for s in stats)
        top = int(max(s[6][c] for s in stats))
        total_sq = math.fsum(math.ldexp(s[2][c], 2 * (int(s[6][c]) - top)) for s in stats)
        total_abs = math.fsum(s[3][c] for s in stats)
        max_abs = max(s[4][c] for s in stats)
        rejected = sum(int(s[5][c]) for s in stats)
        n_bad = n - n_used
        flags: list[str] = []
        if n_used == 0:
            out.append(
                McEstimate(
                    math.nan, math.nan, 0, seed, chunk_tag, n, n_bad, rejected,
                    0.0, ("no_valid_samples",),
                )
            )
            continue
        mean = total / n_used
        scaled_mean = math.ldexp(mean, -top)
        var = max(total_sq / n_used - scaled_mean * scaled_mean, 0.0)
        stderr = math.ldexp(math.sqrt(var / n_used), top)
        share = max_abs / total_abs if total_abs > 0 else 0.0
        if share > HEAVY_TAIL_SHARE:
            flags.append("heavy_tail")
        if n_bad > rejected:
            flags.append("nonfinite_samples")
        out.append(
            McEstimate(
                mean, stderr, n_used, seed, chunk_tag, n, n_bad, rejected,
                share, tuple(flags),
            )
        )
    return out


def run_chunked(
    sample_chunk: Callable[[np.random.Generator, int], tuple[np.ndarray, int]],
    n: int,
    seed: int,
    workers: int = 1,
) -> McEstimate:
    """Single-column ``run_chunked_multi``; ``sample_chunk`` returns (values, rejected count)."""

    def wrap(gen, m):
        vals, rejected = sample_chunk(gen, m)
        return np.asarray(vals, dtype=float).reshape(m, 1), [rejected]

    return run_chunked_multi(wrap, n, seed, 1, workers)[0]


# A column maps the evaluated arrays of one chunk to (values, rejected count).
Column = Callable[[dict[str, np.ndarray]], tuple[np.ndarray, int]]


def run_pass(
    vectors: Mapping[str, ChaosVector],
    columns: Mapping[str, Column],
    n: int,
    seed: int,
    workers: int = 1,
) -> dict[str, McEstimate]:
    """Means of named columns over one Gaussian pass, keyed like ``columns``.

    Each chunk draws its Gaussian rows Z once and evaluates each of
    ``vectors`` once into a dict of arrays under the same names.  When every
    vector has chaos order <= 2, each is the quadratic form of
    ``chaos.quadratic_form``, c - tr A + b.Z + Z^T A Z, computed by matrix
    products with no Hermite table; otherwise the chunk builds one Hermite
    table and runs ``chaos.evaluate`` on it.  The columns run in order on
    that dict, so a column may store a derived array in it for the ones
    after it.
    """
    names, fns = list(columns), list(columns.values())
    dim = next(iter(vectors.values())).dim
    if max(vec.top_order for vec in vectors.values()) <= 2:
        forms = {name: quadratic_form(vec) for name, vec in vectors.items()}

        def values(Z: np.ndarray) -> dict[str, np.ndarray]:
            return {name: evaluate_quadratic(form, Z) for name, form in forms.items()}
    else:
        deg = needed_degree(vectors.values())

        def values(Z: np.ndarray) -> dict[str, np.ndarray]:
            table = hermite_table(Z, deg)
            return {name: evaluate(vec, Z, table) for name, vec in vectors.items()}

    def sample_chunk(gen: np.random.Generator, m: int):
        vals = values(standard_normals(gen, (m, dim)))
        out = np.empty((m, len(fns)))
        rejected = np.empty(len(fns), dtype=np.int64)
        for j, fn in enumerate(fns):
            out[:, j], rejected[j] = fn(vals)
        return out, rejected

    ests = run_chunked_multi(sample_chunk, n, seed, len(fns), workers)
    return dict(zip(names, ests))


def power_column(*factors: tuple[str, float, float]) -> Column:
    """Column of the product of (vals[name] + shift)^power over the factors
    (name, shift, power).  Near-zero and negative bases of negative or
    fractional powers are rejected: the row is NaN and counted once."""

    def column(vals: Mapping[str, np.ndarray]) -> tuple[np.ndarray, int]:
        out, bad = 1.0, False
        for name, shift, power in factors:
            base = vals[name] + shift
            if power >= 0 and float(power).is_integer():
                out = out * base**power
                continue
            rejected = base < REJECT_EPS
            out = out * np.where(rejected, np.nan, np.power(np.where(rejected, 1.0, base), power))
            bad = bad | rejected
        return out, int(np.sum(bad))

    return column


# -- Malliavin density estimator ---------------------------------------------------


def estimator_vectors(F: ChaosVector, k: int) -> dict[str, ChaosVector]:
    """Exact chaos vectors feeding the order-k density estimator weights.

    With w = ||DF||^2 and the directional operator A(X) = <DX, DF>/w, the
    integration-by-parts weights G_1, G_2, G_3 reduce to rational functions
    of w and carre-du-champ chains:

        V1 = -LF, V2 = Gamma(w,F), V3 = Gamma(V1,F), V4 = Gamma(V2,F),
        V5 = Gamma(V3,F), V6 = Gamma(V4,F).
    """
    if not 0 <= k <= 2:
        raise ValueError("density derivative order k must be in 0..2")
    w = gradient_norm_sq(F)
    v1 = generator(F).scale(-1.0)
    out = {"F": F, "w": w, "V1": v1, "V2": carre_du_champ(w, F)}
    if k >= 1:
        out["V3"] = carre_du_champ(out["V1"], F)
        out["V4"] = carre_du_champ(out["V2"], F)
    if k >= 2:
        out["V5"] = carre_du_champ(out["V3"], F)
        out["V6"] = carre_du_champ(out["V4"], F)
    return out


def _estimator_weights(vals: Mapping[str, np.ndarray], k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample (G_{k+1}, reject mask) from evaluated estimator vectors."""
    w = vals["w"]
    bad = w < REJECT_EPS
    w = np.where(bad, 1.0, w)
    v1, v2 = vals["V1"], vals["V2"]
    g1 = v1 / w + v2 / w**2
    if k == 0:
        return np.where(bad, np.nan, g1), bad
    v3, v4 = vals["V3"], vals["V4"]
    h = v3 / w**2 - v1 * v2 / w**3 + v4 / w**3 - 2.0 * v2**2 / w**4
    g2 = g1 * g1 - h
    if k == 1:
        return np.where(bad, np.nan, g2), bad
    v5, v6 = vals["V5"], vals["V6"]
    ah = (
        v5 / w**3
        + (v6 - 3.0 * v2 * v3 - v1 * v4) / w**4
        + (3.0 * v1 * v2**2 - 7.0 * v2 * v4) / w**5
        + 8.0 * v2**3 / w**6
    )
    g3 = g1**3 - 3.0 * g1 * h + ah
    return np.where(bad, np.nan, g3), bad


def density_columns(alpha: float, k: int, xs: Sequence[float]) -> dict[str, Column]:
    """Columns "density[j]" of the order-k Malliavin density estimator of
    F + alpha at xs[j], read from the vectors of ``estimator_vectors(F, k)``.

    p^(k)(x) = (-1)^k E[1_{F+alpha>x} G_{k+1}]; the weights are computed once
    per chunk, and rows with ||DF||^2 below REJECT_EPS are rejected in every
    column.
    """
    sign = (-1.0) ** k

    def column(vals, x):
        if "G" not in vals:
            vals["G"], vals["G_rejected"] = _estimator_weights(vals, k)
        bad = vals["G_rejected"]
        v = sign * np.where(vals["F"] + alpha > x, vals["G"], 0.0)
        v[bad] = np.nan
        return v, int(bad.sum())

    return {f"density[{j}]": partial(column, x=float(x)) for j, x in enumerate(xs)}


def _checked_pass(
    F: ChaosVector,
    alpha: float,
    k: int,
    xs: Sequence[float],
    columns: Mapping[str, tuple],
    vectors: Mapping[str, ChaosVector],
    n: int,
    seed: int,
    workers: int,
) -> tuple[dict[str, McEstimate], dict[str, str]]:
    """(estimates, variance flag by label) of one ``run_pass`` of the
    ``power_column`` columns (label -> factors) and ``density_columns(alpha,
    k, xs)``, reading ``vectors`` and ``estimator_vectors(F, k)``.

    ``spectral.check_column`` first checks a power column as
    E[w^-a (F+alpha)^-b] (w or wbar), and on second chaos a density column
    at x <= alpha - sum(zeta) as E[w^-(k+1)]: there F + alpha > x holds
    where w nears 0 and G_{k+1} = O(w^-(k+1)); above the gap the event keeps
    w >= 4 min(zeta) (x - gap) away from 0.
    """
    zeta = second_chaos_eigenvalues(F)
    checks = {}
    for c, fac in columns.items():
        a = sum(-p for name, _, p in fac if name != "F" and p < 0)
        b = sum(-p for name, _, p in fac if name == "F" and p < 0)
        checks[c] = (c, a, b)
    gap = -math.inf if zeta is None else alpha - float(np.sum(zeta))
    for j, x in enumerate(xs):
        if x <= gap:
            what = f"density[{j}] at x = {x:g} <= alpha - sum(zeta), of order E[w^-{k + 1}],"
            checks[f"density[{j}]"] = (what, k + 1.0, 0.0)
    flags = {}
    for c, (what, a, b) in checks.items():
        flag = check_column(zeta, alpha, a, b, f"the mean of the Monte Carlo column {what}")
        if flag is not None:
            flags[c] = flag
    cols = {c: power_column(*fac) for c, fac in columns.items()}
    cols.update(density_columns(alpha, k, xs))
    ests = run_pass({**estimator_vectors(F, k), **vectors}, cols, n, seed, workers)
    for c, flag in flags.items():
        ests[c] = replace(ests[c], flags=ests[c].flags + (flag,))
    return ests, flags


def density_malliavin(
    F: ChaosVector,
    alpha: float,
    k: int,
    xs: Sequence[float],
    n: int,
    seed: int,
    workers: int = 1,
) -> list[McEstimate]:
    """Estimate the k-th derivative of the density of F + alpha at points xs.

    p^(k)(x) = (-1)^k E[1_{F+alpha>x} G_{k+1}] with the integration-by-parts
    weights evaluated exactly on each sample; samples with ||DF||^2 below
    REJECT_EPS are rejected and counted; ``_checked_pass`` checks each column.
    """
    return list(_checked_pass(F, alpha, k, xs, {}, {}, n, seed, workers)[0].values())


def density_kde(
    F: ChaosVector,
    alpha: float,
    xs: Sequence[float],
    n: int,
    bandwidth: float,
    seed: int,
    workers: int = 1,
) -> list[McEstimate]:
    """Gaussian-kernel density estimate of F + alpha at points xs."""
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    norm = 1.0 / (bandwidth * math.sqrt(2.0 * math.pi))

    def column(vals, x):
        u = (x - (vals["F"] + alpha)) / bandwidth
        return norm * np.exp(-0.5 * u * u), 0

    cols = {f"kde[{j}]": partial(column, x=float(x)) for j, x in enumerate(xs)}
    return list(run_pass({"F": F}, cols, n, seed, workers).values())
