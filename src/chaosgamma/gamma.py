"""Gamma(alpha) target: density derivatives, indicator representations,
and diffusions with known invariant laws.

Everything here is about the unit-scale Gamma law with density
x^(alpha-1) e^(-x) / Gamma(alpha) on (0, inf).  The k-th density derivative
admits both a closed form and an indicator representation

    p^(k)(x) = E[1_{G > x} nu_{k+1}(G)],   x > 0,

where nu_k is a rational weight vanishing at the origin.  Both routes are
implemented; tests hold them against each other.  The Laguerre diffusion
dX = (alpha - X) dt + sqrt(2 X) dW, whose generator is
L f = x f'' + (alpha - x) f', has Gamma(alpha) as its invariant law; its
density is recovered from indicator averages of the diffusion's score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .mc import (
    McEstimate,
    gamma_variates,
    run_chunked,
    standard_normals,
)

__all__ = [
    "gamma_pdf",
    "gamma_pdf_deriv",
    "nu_weight",
    "nu_coefficients",
    "signed_products",
    "DiffusionSpec",
    "ornstein_uhlenbeck",
    "laguerre_diffusion",
    "diffusion_density_estimate",
    "representation_check",
]


def signed_products(alpha: float, k: int) -> list[float]:
    """prod_{j=1}^{i} (j - alpha) for i = 0..k (empty product is 1)."""
    out = [1.0]
    for j in range(1, k + 1):
        out.append(out[-1] * (j - alpha))
    return out


def gamma_pdf(alpha: float, x: "float | np.ndarray") -> "float | np.ndarray":
    """Density of Gamma(alpha, 1); zero on the closed negative axis."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    x = np.asarray(x, dtype=float)
    pos = x > 0
    safe = np.where(pos, x, 1.0)
    val = np.exp((alpha - 1.0) * np.log(safe) - safe - math.lgamma(alpha))
    out = np.where(pos, val, 0.0)
    return float(out) if out.ndim == 0 else out


def gamma_pdf_deriv(alpha: float, k: int, x: "float | np.ndarray") -> "float | np.ndarray":
    """k-th derivative of the Gamma(alpha) density.

    Closed form for x != 0; zero for x < 0.  At x = 0 the derivative exists
    (and equals 0) only when alpha > k + 1; otherwise a ValueError explains
    the refusal.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if k < 0:
        raise ValueError("derivative order k must be nonnegative")
    x = np.asarray(x, dtype=float)
    if np.any(x == 0.0) and alpha <= k + 1:
        raise ValueError(
            f"derivative of order {k} of the Gamma({alpha}) density is "
            "undefined at the origin; need alpha > k + 1"
        )
    prods = signed_products(alpha, k)
    pos = x > 0
    safe = np.where(pos, x, 1.0)
    bracket = np.zeros_like(safe)
    for i in range(k + 1):
        bracket += math.comb(k, i) * prods[i] * safe ** (-i)
    val = (-1.0) ** k * np.exp((alpha - 1.0) * np.log(safe) - safe - math.lgamma(alpha)) * bracket
    out = np.where(pos, val, 0.0)
    return float(out) if out.ndim == 0 else out


def nu_weight(alpha: float, k: int, y: "float | np.ndarray") -> "float | np.ndarray":
    """Indicator-representation weight nu_k, with nu_k(0) = 0.

    nu_k(y) = (-1)^(k-1) sum_{i=0}^{k} C(k,i) prod_{j=1}^{i}(j-alpha) y^(-i);
    in particular nu_1(y) = 1 + (1 - alpha)/y.
    """
    coeffs = nu_coefficients(alpha, k)
    y = np.asarray(y, dtype=float)
    nonzero = y != 0.0
    safe = np.where(nonzero, y, 1.0)
    acc = np.zeros_like(safe)
    for i, c in enumerate(coeffs):
        acc += c * safe ** (-i)
    out = np.where(nonzero, acc, 0.0)
    return float(out) if out.ndim == 0 else out


def nu_coefficients(alpha: float, k: int) -> list[float]:
    """c_i = (-1)^(k-1) C(k,i) prod_{j=1}^{i}(j-alpha), i = 0..k, so that
    nu_k(y) = sum_i c_i y^(-i) for y != 0."""
    if k < 1:
        raise ValueError("weight order k must be at least 1")
    sign = (-1.0) ** (k - 1)
    prods = signed_products(alpha, k)
    return [sign * math.comb(k, i) * prods[i] for i in range(k + 1)]


# -- diffusions with known invariant laws ------------------------------------------


@dataclass(frozen=True)
class DiffusionSpec:
    """A one-dimensional diffusion dX = b(X) dt + sigma(X) dW together with a
    sampler for its invariant law.  The density of the invariant law can be
    recovered from indicator averages of the score -2(-sigma'/sigma + b/sigma^2).
    """

    name: str
    b: Callable[[np.ndarray], np.ndarray]
    sigma: Callable[[np.ndarray], np.ndarray]
    sigma_prime: Callable[[np.ndarray], np.ndarray]
    invariant_sampler: Callable[[np.random.Generator, int], np.ndarray]

    def score(self, y: np.ndarray) -> np.ndarray:
        s = self.sigma(y)
        return -2.0 * (-self.sigma_prime(y) / s + self.b(y) / (s * s))


def ornstein_uhlenbeck() -> DiffusionSpec:
    """dX = -X dt + sqrt(2) dW; invariant law N(0, 1)."""
    return DiffusionSpec(
        name="ornstein-uhlenbeck",
        b=lambda y: -y,
        sigma=lambda y: np.full_like(np.asarray(y, dtype=float), math.sqrt(2.0)),
        sigma_prime=lambda y: np.zeros_like(np.asarray(y, dtype=float)),
        invariant_sampler=lambda gen, m: standard_normals(gen, m),
    )


def laguerre_diffusion(alpha: float) -> DiffusionSpec:
    """dX = (alpha - X) dt + sqrt(2 X) dW; invariant law Gamma(alpha)."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return DiffusionSpec(
        name=f"laguerre(alpha={alpha})",
        b=lambda y: alpha - y,
        sigma=lambda y: np.sqrt(2.0 * y),
        sigma_prime=lambda y: 1.0 / np.sqrt(2.0 * y),
        invariant_sampler=lambda gen, m: gamma_variates(gen, alpha, m),
    )


def diffusion_density_estimate(
    diff: DiffusionSpec,
    x: float,
    n: int,
    seed: int,
    workers: int = 1,
) -> McEstimate:
    """Estimate the invariant density at x as -2 E[1_{x <= Y} (-s'/s + b/s^2)(Y)]."""

    def sample_chunk(gen, m):
        y = diff.invariant_sampler(gen, m)
        return np.where(y >= x, diff.score(y), 0.0), 0

    return run_chunked(sample_chunk, n, seed, workers)


# -- indicator representation of density derivatives -------------------------------


def representation_check(
    alpha: float,
    k: int,
    x: float,
    n: int,
    seed: int,
    workers: int = 1,
) -> tuple[McEstimate, float]:
    """Monte Carlo for the right-hand side of the indicator representation of
    p^(k)(x), paired with the exact closed-form value.

    For x >= 0 the representation reads E[1_{G > x} nu_{k+1}(G)]; for x < 0
    the indicator flips to 1_{G < x}, which never fires, matching the exact
    zero.  x = 0 requires alpha > k + 1, which is also what makes
    E[nu_{k+1}(G)] absolutely convergent.
    """
    exact = float(gamma_pdf_deriv(alpha, k, x))

    def sample_chunk(gen, m):
        g = gamma_variates(gen, alpha, m)
        w = nu_weight(alpha, k + 1, g)
        ind = g > x if x >= 0 else g < x
        return np.where(ind, w, 0.0), 0

    return run_chunked(sample_chunk, n, seed, workers), exact
