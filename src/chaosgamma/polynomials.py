"""Hermite polynomial evaluation.

Hermite polynomials here are the monic probabilists' family

    He_0 = 1,  He_1 = x,  He_{n+1} = x He_n - n He_{n-1},

orthogonal with E[He_n(Z) He_m(Z)] = n! delta_{nm} for Z ~ N(0,1).
"""

from __future__ import annotations

import numpy as np

__all__ = ["hermite_value", "hermite_table"]


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
