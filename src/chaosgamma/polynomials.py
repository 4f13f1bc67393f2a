"""Orthogonal polynomial evaluation and a tiny exact polynomial type.

Hermite polynomials here are the monic probabilists' family

    He_0 = 1,  He_1 = x,  He_{n+1} = x He_n - n He_{n-1},

orthogonal with E[He_n(Z) He_m(Z)] = n! delta_{nm} for Z ~ N(0,1).  The
Laguerre family Q_n used with the Gamma(alpha) generator
L f = x f'' + (alpha - x) f' is the classical generalized Laguerre
L_n^{(alpha-1)}, satisfying L Q_n = -n Q_n; it is evaluated through the
standard three-term recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["hermite_value", "hermite_table", "laguerre_value", "PolySpec"]


def hermite_value(n: int, x: "float | np.ndarray") -> "float | np.ndarray":
    """Monic probabilists' Hermite He_n(x): the last column of ``hermite_table``."""
    if n < 0:
        raise ValueError("Hermite degree must be >= 0")
    out = hermite_table(x, n)[..., n]
    return out if out.shape else float(out)


def hermite_table(z: np.ndarray, nmax: int) -> np.ndarray:
    """Stack He_0..He_nmax evaluated at z; shape z.shape + (nmax+1,).

    The result is the transpose of a C-ordered array of shape
    (nmax+1,) + z.T.shape, so for sample rows z of shape (S, d) every
    ``table[:, v, a]`` = He_a(z[:, v]) is a contiguous run of S floats.
    """
    zt = np.asarray(z, dtype=float).T.copy()
    out = np.empty((nmax + 1,) + zt.shape)
    out[0] = 1.0
    if nmax >= 1:
        out[1] = zt
    for k in range(1, nmax):
        out[k + 1] = zt * out[k] - k * out[k - 1]
    return out.T


def laguerre_value(n: int, alpha: float, x: "float | np.ndarray") -> "float | np.ndarray":
    """Q_n(x): eigenfunction of x f'' + (alpha - x) f' with eigenvalue -n.

    Q_n = L_n^{(alpha-1)} by the recurrence
    (k+1) L_{k+1} = (2k + alpha - x) L_k - (k + alpha - 1) L_{k-1}.
    """
    if n < 0:
        raise ValueError("Laguerre degree must be >= 0")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    xa = np.asarray(x, dtype=float)
    prev = np.ones_like(xa)
    if n == 0:
        return prev if xa.shape else float(prev)
    cur = alpha - xa
    for k in range(1, n):
        prev, cur = cur, ((2 * k + alpha - xa) * cur - (k + alpha - 1) * prev) / (k + 1)
    return cur if xa.shape else float(cur)


@dataclass(frozen=True)
class PolySpec:
    """Polynomial in one variable, coefficients low degree first."""

    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        c = tuple(float(v) for v in self.coeffs)
        while len(c) > 1 and c[-1] == 0.0:
            c = c[:-1]
        if not c:
            c = (0.0,)
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: "float | np.ndarray") -> "float | np.ndarray":
        xa = np.asarray(x, dtype=float)
        acc = np.zeros_like(xa)
        for c in reversed(self.coeffs):
            acc = acc * xa + c
        return acc if xa.shape else float(acc)

    def derivative(self) -> "PolySpec":
        if self.degree == 0:
            return PolySpec((0.0,))
        return PolySpec(tuple(k * c for k, c in enumerate(self.coeffs) if k >= 1))

    def shift_mul_x(self) -> "PolySpec":
        """x * p(x)."""
        return PolySpec((0.0,) + self.coeffs)

    def __add__(self, other: "PolySpec") -> "PolySpec":
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0.0,) * (n - len(self.coeffs))
        b = other.coeffs + (0.0,) * (n - len(other.coeffs))
        return PolySpec(tuple(x + y for x, y in zip(a, b)))

    def __sub__(self, other: "PolySpec") -> "PolySpec":
        return self + other.scale(-1.0)

    def scale(self, a: float) -> "PolySpec":
        return PolySpec(tuple(a * c for c in self.coeffs))

    def __mul__(self, other: "PolySpec") -> "PolySpec":
        out = [0.0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0.0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return PolySpec(tuple(out))

    @staticmethod
    def laguerre(n: int, alpha: float) -> "PolySpec":
        """Q_n as an explicit polynomial (same family as laguerre_value)."""
        if n == 0:
            return PolySpec((1.0,))
        prev = PolySpec((1.0,))
        cur = PolySpec((alpha, -1.0))
        for k in range(1, n):
            nxt = (PolySpec((2 * k + alpha, -1.0)) * cur - prev.scale(k + alpha - 1)).scale(
                1.0 / (k + 1)
            )
            prev, cur = cur, nxt
        return cur
