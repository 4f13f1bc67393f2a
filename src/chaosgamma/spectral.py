"""Closed forms for pure second Wiener chaos.

In the eigenbasis of its kernel a pure second-chaos element is
F = sum_i zeta_i (Y_i^2 - 1) with independent standard Gaussians Y_i, so

    F + alpha = sum_i zeta_i Y_i^2 + (alpha - sum_i zeta_i)

and every law-level quantity is a closed function of the eigenvalues zeta
and the shift gap alpha - sum(zeta) (Nourdin & Peccati 2009):

* ``second_chaos_eigenvalues`` — the spectrum of F, or None for any other F;
* ``negative_moment_exists`` — the one rule that decides which negative
  moments E[w^-a (F+alpha)^-b] are finite; ``require_finite`` turns its
  "no" into a refusal, and ``check_column`` checks a Monte Carlo column;
* ``shifted_moment`` — E[(F+alpha)^p] for integer p from the cumulants;
* ``characteristic_function`` and ``density_cf_oracle`` — the law of
  F + alpha and its density by Fourier inversion (Imhof 1961);
* ``SecondChaosSpec`` — a diagonal spec with positive weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import isfinite
from typing import Mapping, Sequence

import numpy as np

from .chaos import ChaosVector

__all__ = [
    "SPECTRUM_TOL",
    "second_chaos_eigenvalues",
    "negative_moment_exists",
    "require_finite",
    "check_column",
    "shifted_moment",
    "characteristic_function",
    "density_cf_oracle",
    "SecondChaosSpec",
]

# eigenvalues and shift gaps within this of zero count as zero
SPECTRUM_TOL = 1e-12
# agreement and tightening budget of the characteristic-function inversion
_CF_RTOL = 1e-6
_CF_REFINEMENTS = 4


def second_chaos_eigenvalues(F: ChaosVector) -> np.ndarray | None:
    """Spectrum of the order-2 kernel when F is pure second chaos, else None.

    F = sum_i zeta_i (Y_i^2 - 1) in the eigenbasis, so every moment and
    cumulant of F is a closed function of the returned eigenvalues.
    """
    if not F.is_pure_chaos() or F.top_order != 2:
        return None
    return np.linalg.eigvalsh(F.kernel(2).to_dense())


def negative_moment_exists(zeta, alpha: float, a: float, b: float) -> bool:
    """Whether E[w^-a (F+alpha)^-b] is finite for F = sum_i zeta_i (Y_i^2 - 1),
    w = ||DF||^2 = 4 sum_i zeta_i^2 Y_i^2 or wbar = w/2.

    With m nonzero eigenvalues P(w < eps) ~ eps^(m/2): E[w^-a] < inf iff
    m > 2a.  F + alpha = sum_i zeta_i Y_i^2 + alpha - sum(zeta): a negative
    gap alpha - sum(zeta) or eigenvalue lets it reach 0 with positive
    density, a positive gap keeps it off 0, and at gap 0 E[(F+alpha)^-b]
    < inf iff m > 2b.  For a mixed moment on a nonnegative spectrum, a
    positive gap keeps F + alpha in [gap, gap + O(|Y|^2)] where w is small,
    so it is finite iff m > 2a; at gap 0 both w and F + alpha are of order
    |Y|^2 on the m active coordinates, so it is finite iff m > 2(a + b).
    """
    return _infinite_reason(zeta, alpha, a, b) is None


def _infinite_reason(zeta, alpha: float, a: float, b: float) -> str | None:
    """The case analysis of ``negative_moment_exists``: None when
    E[w^-a (F+alpha)^-b] is finite, else the reason it is not."""
    zeta = np.asarray(zeta, dtype=float)
    gap = alpha - float(np.sum(zeta))
    if b > 0 and np.any(zeta < -SPECTRUM_TOL):
        return (
            "the second-chaos spectrum has negative eigenvalues, so F + alpha"
            " crosses zero with positive density"
        )
    if b > 0 and gap < -SPECTRUM_TOL:
        return (
            f"the shift gap alpha - sum(zeta) = {gap!r} is negative, so F + alpha"
            " is not almost surely nonnegative"
        )
    if b <= 0 or gap > SPECTRUM_TOL:
        if a <= 0:
            return None
        where, m_min = ("at a positive shift gap " if b > 0 else ""), 2 * a
    else:
        where, m_min = "at zero shift gap ", 2 * (max(a, 0.0) + b)
    if int(np.sum(np.abs(zeta) > SPECTRUM_TOL)) > m_min:
        return None
    n_pos = int(np.sum(zeta > SPECTRUM_TOL))
    n_neg = int(np.sum(zeta < -SPECTRUM_TOL))
    return (
        f"{where}it takes more than {m_min:g} nonzero eigenvalues; this"
        f" spectrum has {n_pos} positive eigenvalues"
        + (f" and {n_neg} negative" if n_neg else "")
    )


def require_finite(zeta, alpha: float, a: float, b: float, what: str) -> None:
    """Refuses (ValueError) a spectrum on which ``negative_moment_exists``
    says E[w^-a (F+alpha)^-b] is infinite; ``what`` names that quantity in
    the message, which gives the reason the rule found."""
    reason = _infinite_reason(zeta, alpha, a, b)
    if reason is not None:
        raise ValueError(f"{what} is not finite: {reason}")


def check_column(zeta, alpha: float, a: float, b: float, what: str) -> str | None:
    """Checks a Monte Carlo column of order w^-a (F+alpha)^-b on the spectrum
    zeta, or None for no spectrum: ``require_finite`` refuses an infinite
    mean; returns "infinite_variance", "variance_unverified" when there is
    no spectrum, or None when the variance exists or no power is negative."""
    if a <= 0 and b <= 0:
        return None
    if zeta is None:
        return "variance_unverified"
    require_finite(zeta, alpha, a, b, what)
    return None if negative_moment_exists(zeta, alpha, 2 * a, 2 * b) else "infinite_variance"


def shifted_moment(zeta, alpha: float, p: int) -> float:
    """E[(F + alpha)^p] for integer p >= 0, exact from the cumulants
    kappa_1 = alpha and kappa_j = 2^(j-1) (j-1)! sum_i zeta_i^j through the
    moment-cumulant recursion."""
    zeta = np.asarray(zeta, dtype=float)
    kappa = [float(alpha)]
    for j in range(2, p + 1):
        kappa.append(2.0 ** (j - 1) * float(math.factorial(j - 1)) * float(np.sum(zeta**j)))
    m = [1.0]
    for j in range(1, p + 1):
        m.append(math.fsum(math.comb(j - 1, i) * kappa[i] * m[j - 1 - i] for i in range(j)))
    return m[p]


def characteristic_function(zeta, alpha: float, t) -> np.ndarray:
    """E[exp(i t (F + alpha))] = exp(i alpha t) prod_i (1 - 2 i zeta_i t)^(-1/2)
    exp(-i zeta_i t), taken as one sum of logarithms over the eigenvalues."""
    t = np.asarray(t, dtype=float)
    zt = np.multiply.outer(t, np.asarray(zeta, dtype=float))
    return np.exp(1j * alpha * t + np.sum(-0.5 * np.log(1.0 - 2j * zt) - 1j * zt, axis=-1))


def density_cf_oracle(spec: "SecondChaosSpec", xs: Sequence[float]) -> list[float]:
    """Density of F + alpha by Fourier inversion of the closed-form
    characteristic function; adaptive tolerance tightened, at most
    _CF_REFINEMENTS times, until two consecutive runs agree within _CF_RTOL
    at every point."""
    from scipy.integrate import quad

    re_phi = lambda t: np.real(characteristic_function(spec.zeta, spec.alpha, t))
    im_phi = lambda t: np.imag(characteristic_function(spec.zeta, spec.alpha, t))

    def invert(x: float, epsabs: float) -> float:
        if x == 0.0:
            val, _ = quad(re_phi, 0.0, np.inf, epsabs=epsabs, limit=400)
            return val / math.pi
        c, _ = quad(re_phi, 0.0, np.inf, weight="cos", wvar=x, epsabs=epsabs, limit=400)
        s, _ = quad(im_phi, 0.0, np.inf, weight="sin", wvar=x, epsabs=epsabs, limit=400)
        return (c + s) / math.pi

    out = []
    for x in xs:
        epsabs = 1e-8
        prev = invert(float(x), epsabs)
        for _ in range(_CF_REFINEMENTS):
            cur = invert(float(x), epsabs / 10.0)
            if abs(cur - prev) <= _CF_RTOL * max(1.0, abs(cur)):
                out.append(cur)
                break
            prev, epsabs = cur, epsabs / 10.0
        else:
            raise RuntimeError(
                f"characteristic-function inversion did not stabilize at x={x}: "
                f"last two values differ by {abs(cur - prev):.3e} (> {_CF_RTOL})"
            )
    return out


@dataclass(frozen=True)
class SecondChaosSpec:
    """F = sum_i zeta_i (Z_i^2 - 1) with non-increasing positive weights,
    approximated against a Gamma(alpha) target via the shift F + alpha."""

    zeta: tuple[float, ...]
    alpha: float

    def __post_init__(self) -> None:
        z = tuple(float(v) for v in self.zeta)
        if not z:
            raise ValueError("zeta must be non-empty")
        if not all(isfinite(v) for v in z):
            raise ValueError(f"zeta entries must be finite, got {z}")
        if any(v <= 0 for v in z):
            raise ValueError("zeta entries must be positive")
        if any(z[i] < z[i + 1] for i in range(len(z) - 1)):
            raise ValueError("zeta must be non-increasing")
        object.__setattr__(self, "zeta", z)
        object.__setattr__(self, "alpha", float(self.alpha))
        if not (self.alpha > 0 and isfinite(self.alpha)):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha!r}")

    def variance(self) -> float:
        return 2.0 * sum(v * v for v in self.zeta)

    def shift_gap(self) -> float:
        """alpha - sum(zeta); nonnegative keeps F + alpha > 0 almost surely."""
        return self.alpha - sum(self.zeta)

    def chaos_vector(self) -> ChaosVector:
        return ChaosVector.second_chaos_diagonal(self.zeta)

    def negative_moment_finite(self, p: float) -> bool:
        """Whether both E[(F+alpha)^-p] and E[||DF||^-2p] are finite."""
        return all(negative_moment_exists(self.zeta, self.alpha, a, b) for a, b in ((p, 0), (0, p)))

    def to_json_dict(self) -> dict:
        return {"zeta": list(self.zeta), "alpha": self.alpha}

    @staticmethod
    def from_json_dict(doc: Mapping) -> "SecondChaosSpec":
        return SecondChaosSpec(tuple(doc["zeta"]), float(doc["alpha"]))
