"""Stein equation for the Gamma(alpha) target with indicator test functions.

The ODE is

    y f'(y) + (alpha - y) f(y) = h(y) - E[h(G)],    y in R \\ {0},

where h(y) = 1_{y > x} nu_{k+1}(y) for a positive threshold x (with the
indicator flipped to 1_{y <= x} for x < 0 and to 1_{y < 0} for x = 0, the
latter requiring alpha > k + 1).  Two evaluation routes are provided: a
closed-form route built from incomplete-gamma identities and a termwise
exponentially-weighted power-integral series, and a literal adaptive
quadrature of the defining integral.  Both produce the solution and its
derivative on a grid, plus explicit envelope coefficients assembled from
the same integral estimates that prove the solution finite.  The threshold
and input checks here (``_check_branch``, ``_check_alpha``) are the ones the
density bounds run.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chaos import ChaosVector, expectation, second_moment
from .gamma import gamma_pdf_deriv, nu_coefficients, signed_products

__all__ = [
    "SteinSolution",
    "SteinEnvelope",
    "solve",
    "envelope",
    "stein_rhs",
    "exp_weighted_power_integral",
]

_SERIES_EPS = 1e-17
_LARGE_Y = 400.0
# absolute tolerance of every adaptive quadrature in the "quad" solve
_EPSABS = 1e-12
_ALPHA_TOL = 1e-9  # relative, of E[F^2] = alpha


def _branch(x: float) -> str:
    return "positive" if x > 0 else ("negative" if x < 0 else "origin")


def _check_branch(alpha: float, k: int, x: float) -> str:
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha!r}")
    if not math.isfinite(x):
        raise ValueError(f"threshold x must be finite, got {x!r}")
    if not 0 <= k:
        raise ValueError("k must be nonnegative")
    br = _branch(x)
    if br == "origin" and alpha <= k + 1:
        raise ValueError(
            f"threshold x = 0 requires alpha > k + 1 (got alpha={alpha}, k={k})"
        )
    return br


def _check_alpha(F: ChaosVector, alpha: float) -> None:
    """alpha > 0 finite, F centered, and E[F^2] = alpha."""
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha!r}")
    mean = expectation(F)
    if abs(mean) > 1e-12 * max(1.0, alpha):
        raise ValueError(f"F must be centered; E[F] = {mean!r}")
    m2 = second_moment(F)
    if abs(m2 - alpha) > _ALPHA_TOL * max(1.0, alpha):
        raise ValueError(f"E[F^2] = {m2!r} does not match alpha = {alpha!r}")


def stein_rhs(alpha: float, k: int, x: float, y: "float | np.ndarray") -> "float | np.ndarray":
    """h(y) - E[h(G)] for the branch selected by the sign of x: the solve's
    ``_scalar_rhs`` applied to each element of y."""
    _check_branch(alpha, k, x)
    rhs = _scalar_rhs(alpha, k, x, float(gamma_pdf_deriv(alpha, k, x)))
    y = np.asarray(y, dtype=float)
    out = np.array([rhs(v) for v in y.ravel().tolist()]).reshape(y.shape)
    return float(out) if out.ndim == 0 else out


def _scalar_rhs(alpha: float, k: int, x: float, eh: float):
    """h(y) - eh on one float, eh standing for E[h(G)], with the nu_{k+1}
    coefficients bound once: both solve routes call it per grid point and
    the quadrature integrands per node.  This is the one definition of h."""
    terms = tuple(enumerate(nu_coefficients(alpha, k + 1)))

    def nu(y):
        acc = 0.0
        for i, c in terms:
            acc += c * y ** -i
        return acc

    if x > 0:
        return lambda y: (nu(y) if y > x else 0.0) - eh
    if x < 0:
        return lambda y: (nu(y) if y <= x else 0.0) - eh
    return lambda y: (nu(y) if y < 0 else 0.0) - eh


# -- exponentially weighted power integrals -----------------------------------------


def _ewpi_series(beta: float, A: float, Y: float) -> float:
    """Termwise series for int_A^Y e^(s-Y) s^(beta-1) ds, moderate Y."""
    logY = math.log(Y)
    u = math.exp(-Y + beta * logY)
    if A > 0:
        logA = math.log(A)
        v = math.exp(-Y + beta * logA)
    else:
        v = 0.0
    acc = 0.0
    m = 0
    while m < 100_000:
        bm = beta + m
        if bm == 0.0:
            term = u * (logY - logA)
        else:
            term = (u - v) / bm
        acc += term
        u *= Y / (m + 1)
        if A > 0:
            v *= A / (m + 1)
        m += 1
        if m > Y and max(u, v) / max(abs(beta + m), 1.0) < _SERIES_EPS * max(abs(acc), 1e-300):
            return acc
    raise RuntimeError(f"power integral series did not converge (beta={beta}, A={A}, Y={Y})")


def _ewpi_large(beta: float, A: float, Y: float) -> float:
    """Large-Y expansion: substitute s = Y - t and expand (1 - t/Y)^(beta-1)."""
    from scipy.special import gammainc

    D = Y - A
    acc = 0.0
    coeff = 1.0
    prev = math.inf
    for j in range(0, 80):
        term = coeff * (-1.0) ** j * gammainc(j + 1, D) / Y**j
        if j > 5 and abs(term) > prev:
            break
        acc += term
        prev = abs(term)
        if abs(term) < _SERIES_EPS * max(abs(acc), 1e-300):
            break
        coeff *= beta - 1 - j
    return Y ** (beta - 1) * acc


def exp_weighted_power_integral(beta: float, A: float, Y: float) -> float:
    """int_A^Y e^(s-Y) s^(beta-1) ds for 0 <= A <= Y; A = 0 needs beta > 0.

    The integrand weight never exceeds 1, so the value is bounded by the bare
    power integral; it is computed by an entire termwise series (moderate Y)
    or an endpoint expansion (large Y), never by cancellation-prone
    incomplete-gamma differences.
    """
    if not 0 <= A <= Y:
        raise ValueError("need 0 <= A <= Y")
    if A == Y:
        return 0.0
    if A == 0.0 and beta <= 0:
        raise ValueError("lower limit 0 requires beta > 0")
    if Y <= _LARGE_Y:
        return _ewpi_series(beta, A, Y)
    return _ewpi_large(beta, A, Y)


# -- incomplete-gamma helpers for the y > 0 side ------------------------------------


def _exp_lower_gamma(alpha: float, y: float) -> float:
    """e^y * int_0^y e^(-s) s^(alpha-1) ds = e^y Gamma(alpha) P(alpha, y)."""
    from scipy.special import gammainc, gammaln

    return math.exp(y + gammaln(alpha)) * gammainc(alpha, y)


def _exp_upper_gamma(alpha: float, y: float) -> float:
    """e^y * int_y^inf e^(-s) s^(alpha-1) ds, stable for large y."""
    from scipy.special import gammaincc, gammaln

    if y <= 300.0:
        return math.exp(y + gammaln(alpha)) * gammaincc(alpha, y)
    acc = 0.0
    coeff = 1.0
    prev = math.inf
    for m in range(0, 60):
        term = coeff / y**m
        if m > 3 and abs(term) > prev:
            break
        acc += term
        prev = abs(term)
        if abs(term) < _SERIES_EPS * abs(acc):
            break
        coeff *= alpha - 1 - m
    return y ** (alpha - 1) * acc


def _exp_scaled_pdf_deriv(alpha: float, k: int, y: float) -> float:
    """e^y Gamma(alpha) p^(k)(y) for y > 0, exact cancellation of e^(-y)."""
    prods = signed_products(alpha, k)
    bracket = math.fsum(math.comb(k, i) * prods[i] * y ** (-i) for i in range(k + 1))
    return (-1.0) ** k * y ** (alpha - 1.0) * bracket


# -- solution -----------------------------------------------------------------------


@dataclass(frozen=True)
class SteinSolution:
    """Stein solution f and derivative f' sampled on a grid excluding 0."""

    alpha: float
    k: int
    x: float
    grid: tuple[float, ...]
    f_values: np.ndarray
    fprime_values: np.ndarray
    eh: float
    method: str

    def residuals(self) -> np.ndarray:
        y = np.asarray(self.grid, dtype=float)
        rhs = stein_rhs(self.alpha, self.k, self.x, y)
        return y * self.fprime_values + (self.alpha - y) * self.f_values - rhs

    def to_rows(self, env: "SteinEnvelope | None" = None) -> list[tuple]:
        res = self.residuals()
        rows = []
        for i, y in enumerate(self.grid):
            row = [y, float(self.f_values[i]), float(self.fprime_values[i]), float(res[i])]
            if env is not None:
                row.append(float(env.bound(y)))
            rows.append(tuple(row))
        return rows


def _solve_exact_point(
    alpha: float, k: int, x: float, br: str, eh: float, rhs, y: float
) -> tuple[float, float]:
    g_y = rhs(y)
    if y < 0:
        t = -y
        if br == "positive":
            W = -eh * exp_weighted_power_integral(alpha, 0.0, t)
        elif t <= -x:
            W = 0.0
        else:
            # nu_{k+1}(-s) = sum_i (-1)^i c_i s^-i, integrated from -x (0 at the origin)
            W = math.fsum(
                (-1.0) ** i * c * exp_weighted_power_integral(alpha - i, -x, t)
                for i, c in enumerate(nu_coefficients(alpha, k + 1))
            )
        f = t ** (-alpha) * W
        fp = (t ** (-alpha) + alpha * t ** (-alpha - 1.0)) * W - g_y / t
        return f, fp
    # y > 0
    if br != "positive":
        return 0.0, 0.0
    if y <= x:
        ej = -eh * _exp_lower_gamma(alpha, y)
    else:
        ej = -_exp_scaled_pdf_deriv(alpha, k, y) + eh * _exp_upper_gamma(alpha, y)
    f = y ** (-alpha) * ej
    fp = (y ** (-alpha) - alpha * y ** (-alpha - 1.0)) * ej + g_y / y
    return f, fp


def _quad_checked(fn, a, b, pts):
    from scipy.integrate import IntegrationWarning, quad

    # the error estimate is checked by hand below, so the library's own
    # roundoff warning is redundant noise here
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = quad(fn, a, b, points=pts or None, epsabs=_EPSABS, epsrel=1e-12, limit=300)
        if err > max(1e-10, 1e-9 * abs(val)):
            val, err = quad(fn, a, b, points=pts or None, epsabs=_EPSABS, epsrel=1e-13, limit=1000)
            if err > max(1e-9, 1e-8 * abs(val)):
                raise RuntimeError(
                    f"quadrature error estimate {err:.2e} too large on [{a}, {b}]"
                )
    return val


def _solve_quad_point(
    alpha: float, k: int, x: float, br: str, rhs, y: float
) -> tuple[float, float]:
    """One grid point by adaptive quadrature, at the scale of f itself.

    The defining integral is rescaled by the substitution s = |y| v so that
    the quadrature target is f directly (the bare integral would need
    relative accuracy under a |y|^(-alpha) prefactor, and for y well past
    the threshold it hides e^y-sized cancellation; integrating the tail
    from +infinity instead avoids both).  The remaining endpoint
    singularity v^(alpha-1) is removed by v = u^(1/alpha).  ``rhs`` is
    the solve's ``_scalar_rhs``.
    """
    g_y = rhs(y)

    if y < 0:
        t = -y
        v0 = min((-x) / t, 1.0) if br == "negative" else 0.0
        if v0 >= 1.0:
            f = 0.0
        elif v0 > 0.0:
            # f = int_{v0}^1 e^{t(v-1)} v^(alpha-1) g(-t v) dv
            def integrand_v(v):
                return math.exp(t * (v - 1.0)) * v ** (alpha - 1.0) * rhs(-t * v)

            f = _quad_checked(integrand_v, v0, 1.0, None)
        else:
            # v = u^(1/m) flattens the combined v^(alpha-1) g(-tv) endpoint
            # singularity; the weight contributes v^-(k+1) on the origin branch
            m = alpha if br == "positive" else alpha - (k + 1.0)

            def integrand_u(u):
                if u <= 0.0:
                    return 0.0
                v = u ** (1.0 / m)
                return (
                    math.exp(t * (v - 1.0))
                    * v ** (alpha - 1.0)
                    * rhs(-t * v)
                    * u ** (1.0 / m - 1.0)
                    / m
                )

            f = _quad_checked(integrand_u, 0.0, 1.0, None)
        fp = (1.0 + alpha / t) * f - g_y / t
        return f, fp
    if br != "positive":
        return 0.0, 0.0
    if y < 1.0:
        # f = int_0^1 e^{y(1-u^(1/a))} g(y u^(1/a)) du / alpha
        def integrand_u(u):
            v = u ** (1.0 / alpha)
            return math.exp(y * (1.0 - v)) * rhs(y * v) / alpha

        pts = [(x / y) ** alpha] if x < y else None
        f = _quad_checked(integrand_u, 0.0, 1.0, pts)
    else:
        # f = -(1/y) int_0^inf e^{-t} ((y+t)/y)^(alpha-1) g(y+t) dt
        def integrand_t(t):
            return math.exp(-t) * ((y + t) / y) ** (alpha - 1.0) * rhs(y + t)

        t0 = x - y
        if t0 > 0:
            f = -(
                _quad_checked(integrand_t, 0.0, t0, None)
                + _quad_checked(integrand_t, t0, np.inf, None)
            ) / y
        else:
            f = -_quad_checked(integrand_t, 0.0, np.inf, None) / y
    fp = (1.0 - alpha / y) * f + g_y / y
    return f, fp


def solve(
    alpha: float,
    k: int,
    x: float,
    grid: Sequence[float],
    method: str = "exact",
) -> SteinSolution:
    """Solve the Stein ODE on a grid (strictly increasing, excluding 0).

    method "exact" evaluates the closed-form representation of the canonical
    solution; method "quad" integrates the defining integral by adaptive
    quadrature with the endpoint substitution s = u^(1/alpha) near 0.
    """
    br = _check_branch(alpha, k, x)
    if method not in ("exact", "quad"):
        raise ValueError(f"unknown method {method!r}")
    g = [float(v) for v in grid]
    if any(v == 0.0 for v in g):
        raise ValueError("grid must exclude 0")
    if any(g[i] >= g[i + 1] for i in range(len(g) - 1)):
        raise ValueError("grid must be strictly increasing")
    eh = float(gamma_pdf_deriv(alpha, k, x))
    rhs = _scalar_rhs(alpha, k, x, eh)
    f = np.empty(len(g))
    fp = np.empty(len(g))
    for i, y in enumerate(g):
        try:
            if method == "exact":
                f[i], fp[i] = _solve_exact_point(alpha, k, x, br, eh, rhs, y)
            else:
                f[i], fp[i] = _solve_quad_point(alpha, k, x, br, rhs, y)
        except OverflowError as exc:
            tb = exc.__traceback__
            while tb.tb_next is not None:
                tb = tb.tb_next
            raise OverflowError(
                f"stein solve ({method}) overflowed in {tb.tb_frame.f_code.co_name} "
                f"at alpha = {alpha}, k = {k}, x = {x}, y = {y}: {exc}"
            ) from exc
    return SteinSolution(alpha, k, float(x), tuple(g), f, fp, eh, method)


# -- envelopes ----------------------------------------------------------------------


@dataclass(frozen=True)
class SteinEnvelope:
    """Pointwise envelope for max(|f|, |f'|) as sum of coeff * |y|^power.

    ``terms`` dominate both the solution and its derivative on the whole
    domain of the branch.  ``summary`` carries the branch's headline scalars:
    (d1, d2, d3) for x > 0 in the shape d1 * sum |y|^(alpha-i) + d2/|y| + d3;
    (e1, e2) for x < 0 (no 1/|y| term); (f1, f2) for x = 0, where the shape
    has negative powers of |y| down to |y|^-(k+2) because the solution blows
    up polynomially at the origin from the left.
    """

    alpha: float
    k: int
    x: float
    branch: str
    terms: tuple[tuple[float, float], ...]
    summary: dict

    def bound(self, y: "float | np.ndarray") -> "float | np.ndarray":
        ay = np.abs(np.asarray(y, dtype=float))
        out = np.zeros_like(ay)
        for power, coeff in self.terms:
            out = out + coeff * ay**power
        return float(out) if out.ndim == 0 else out

    def dominates(self, sol: SteinSolution, slack: float = 1e-9) -> bool:
        y = np.asarray(sol.grid)
        env = self.bound(y)
        worst = np.maximum(np.abs(sol.f_values), np.abs(sol.fprime_values))
        return bool(np.all(worst <= env * (1.0 + slack) + slack))


def _merge_max(maps: list[dict[float, float]]) -> dict[float, float]:
    out: dict[float, float] = {}
    for m in maps:
        for p, c in m.items():
            out[p] = max(out.get(p, 0.0), c)
    return out


def _envelope_positive(alpha: float, k: int, x: float) -> SteinEnvelope:
    eh = abs(float(gamma_pdf_deriv(alpha, k, x)))
    c = [abs(v) for v in nu_coefficients(alpha, k + 1)]
    # prod_{j<=i} |j - alpha|: IEEE products round alike whatever the signs
    cabs = [abs(v) for v in signed_products(alpha, max(k, math.ceil(alpha)))]
    bk = math.fsum(math.comb(k, i) * cabs[i] * x ** (-i) for i in range(k + 1))
    px = x ** (-alpha) + alpha * x ** (-alpha - 1.0)
    n_up = math.ceil(alpha) - 1

    # regime y < 0: |f'| <= 2|Eh|/|y| + |Eh|/alpha
    reg_neg = {-1.0: 2.0 * eh, 0.0: eh / alpha}
    # regime 0 < y <= x: |f'| <= |Eh|(e^x + 1)/|y| + |Eh| e^x / alpha
    reg_mid = {-1.0: eh * (math.exp(x) + 1.0), 0.0: eh * math.exp(x) / alpha}
    # regime y > x: scaled upper-gamma expansion plus the exact derivative text
    growth = {}
    for n in range(1, n_up + 1):
        growth[alpha - n] = max(
            growth.get(alpha - n, 0.0), eh * px * cabs[n - 1]
        )
    if alpha == math.floor(alpha):
        r_tail = math.gamma(alpha)  # (alpha-1)! exact termination
    else:
        r_tail = (
            cabs[math.ceil(alpha) - 1] * x ** (alpha - math.ceil(alpha))
            + cabs[math.ceil(alpha)] * x ** (alpha - math.ceil(alpha)) / (math.ceil(alpha) - alpha)
        )
    const_tail = (
        (1.0 / x + alpha / x**2) * bk
        + eh * px * r_tail
        + math.fsum(c[i] * x ** (-(i + 1)) for i in range(k + 2))
        + eh / x
    )
    reg_tail = dict(growth)
    reg_tail[0.0] = const_tail

    # |f| is bounded by a constant in every regime
    bracket = (
        math.fsum(
            cabs[n - 1] * x ** (alpha - n) for n in range(1, n_up + 1)
        )
        + r_tail
    )
    f_const = max(eh / alpha, eh * math.exp(x) / alpha, bk / x + eh * x ** (-alpha) * bracket)

    merged = _merge_max([reg_neg, reg_mid, reg_tail, {0.0: f_const}])
    terms = tuple(sorted(merged.items()))
    d1 = max((cf for p, cf in merged.items() if p > 0), default=0.0)
    d2 = merged.get(-1.0, 0.0)
    d3 = merged.get(0.0, 0.0)
    return SteinEnvelope(
        alpha, k, x, "positive", terms, {"d1": d1, "d2": d2, "d3": d3, "Eh": eh}
    )


def _envelope_negative(alpha: float, k: int, x: float) -> SteinEnvelope:
    ax = -x
    c = [abs(v) for v in nu_coefficients(alpha, k + 1)]
    px = ax ** (-alpha) + alpha * ax ** (-alpha - 1.0)

    fp_terms: dict[float, float] = {}
    f_const = 0.0
    const = math.fsum(c[i] * ax ** (-(i + 1)) for i in range(k + 2))
    for i in range(k + 2):
        gap = alpha - i
        if gap > 0:
            fp_terms[gap] = fp_terms.get(gap, 0.0) + px * c[i] / gap
            f_const += c[i] * ax ** (-i) / gap
        elif gap < 0:
            const += px * c[i] * ax**gap / (-gap)
            f_const += c[i] * ax ** (-i) / (-gap)
        else:
            # log(|y|/|x|) <= |y|/|x| feeds the |y|^1 coefficient
            fp_terms[1.0] = fp_terms.get(1.0, 0.0) + px * c[i] / ax
            f_const += c[i] * ax ** (-alpha) if alpha >= 1 else c[i] / ax
    fp_terms[0.0] = max(const, f_const)
    terms = tuple(sorted(fp_terms.items()))
    e1 = max((cf for p, cf in fp_terms.items() if p > 0), default=0.0)
    e2 = fp_terms[0.0]
    return SteinEnvelope(alpha, k, x, "negative", terms, {"e1": e1, "e2": e2})


def _envelope_origin(alpha: float, k: int) -> SteinEnvelope:
    c = [abs(v) for v in nu_coefficients(alpha, k + 1)]
    f_terms = {-float(i): c[i] / (alpha - i) for i in range(k + 2)}
    fp_terms: dict[float, float] = {}
    for j in range(k + 3):
        a_j = 0.0
        if j <= k + 1:
            a_j += c[j] / (alpha - j)
        if 1 <= j <= k + 2:
            a_j += alpha * c[j - 1] / (alpha - j + 1.0) + c[j - 1]
        fp_terms[-float(j)] = a_j
    merged = _merge_max([f_terms, fp_terms])
    terms = tuple(sorted(merged.items()))
    f1 = max(f_terms.values())
    f2 = max(fp_terms.values())
    return SteinEnvelope(alpha, k, 0.0, "origin", terms, {"f1": f1, "f2": f2})


def envelope(alpha: float, k: int, x: float) -> SteinEnvelope:
    """Explicit envelope coefficients for the branch selected by x.

    For x > 0 the terms realize d1 sum_{i=1}^{ceil(alpha)-1} |y|^(alpha-i)
    + d2/|y| + d3; for x < 0 there is no 1/|y| term; for x = 0 the terms are
    pure nonpositive powers of |y| (the solution is not bounded near 0).
    """
    br = _check_branch(alpha, k, x)
    if br == "positive":
        return _envelope_positive(alpha, k, x)
    if br == "negative":
        return _envelope_negative(alpha, k, x)
    return _envelope_origin(alpha, k)
