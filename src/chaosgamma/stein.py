"""Stein equation for the Gamma(alpha) target with indicator test functions.

The ODE is

    y f'(y) + (alpha - y) f(y) = h(y) - E[h(G)],    y in R \\ {0},

where h(y) = 1_{y > x} nu_{k+1}(y) for a positive threshold x (with the
indicator flipped to 1_{y <= x} for x < 0 and to 1_{y < 0} for x = 0, the
latter requiring alpha > k + 1).  Two evaluation routes are provided: a
closed-form route built from incomplete-gamma identities (scipy.special)
and a termwise exponentially-weighted power-integral series, and a literal
quadrature of the defining integral by one adaptive G7/K15 Gauss-Kronrod
rule in numpy that bisects every grid point's intervals at once.  Both
produce the solution and its derivative on a grid, plus explicit envelope
coefficients assembled from the same integral estimates that prove the
solution finite.  The threshold and input checks here (``_check_branch``,
``_check_alpha``) are the ones the density bounds run.
"""

from __future__ import annotations

import itertools
import math
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
    ``_rhs`` applied to y."""
    _check_branch(alpha, k, x)
    out = _rhs(alpha, k, x, float(gamma_pdf_deriv(alpha, k, x)))(np.asarray(y, dtype=float))
    return float(out) if out.ndim == 0 else out


def _rhs(alpha: float, k: int, x: float, eh: float):
    """h - eh on an array of y, eh standing for E[h(G)], with the nu_{k+1}
    coefficients bound once: the exact route calls it on the grid and the
    quadrature integrands on their node arrays.  This is the one definition
    of h.  y = 0 lies outside every indicator set, so nu is never divided
    there."""
    coeffs = nu_coefficients(alpha, k + 1)

    def rhs(y: np.ndarray) -> np.ndarray:
        inside = y > x if x > 0 else (y <= x if x < 0 else y < 0)
        safe = np.where(inside, y, 1.0)
        acc = np.zeros_like(safe)
        for i, c in enumerate(coeffs):
            acc += c * safe ** (-i)
        return np.where(inside, acc, 0.0) - eh

    return rhs


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
    alpha: float, k: int, x: float, br: str, eh: float, g_y: float, y: float
) -> tuple[float, float]:
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


# -- adaptive Gauss-Kronrod quadrature ----------------------------------------------

# The 15-point Kronrod rule on [-1, 1] and its embedded 7-point Gauss rule
# (Piessens et al. 1983, QUADPACK qk15; Laurie 1997), nonnegative half from
# the outermost node in.  The Gauss nodes are every other Kronrod node, so
# one evaluation serves both rules and |K15 - G7| estimates the error.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.0,
    0.129484966168869693270611432679082,
    0.0,
    0.279705391489276667901467771423780,
    0.0,
    0.381830050505118944950369775488975,
    0.0,
    0.417959183673469387755102040816327,
)
_GK_NODES = np.array([-v for v in _XGK] + list(_XGK[-2::-1]))
# columns: the K15 weights and the K15 - G7 weights, on the ascending nodes
_GK_WEIGHTS = np.array(
    [[wk, wk - wg] for wk, wg in zip(_WGK + _WGK[-2::-1], _WG + _WG[-2::-1])]
)

# A grid point is done when the sum of |K15 - G7| over its intervals is at
# most max(_EPSABS, _EPSREL |integral|, _EPSROUND * integral of |integrand|);
# the last term is the rounding floor of the node sums (QUADPACK's 50 eps).
_EPSABS = 1e-14
_EPSREL = 1e-12
_EPSROUND = 50.0 * 2.0**-52
_MAX_ROUNDS = 50
_MAX_INTERVALS = 1000  # per grid point; bounds memory like QUADPACK's limit


class _NonFinite(ArithmeticError):
    """args: the integrand's name and the grid index where it is not finite."""


def _gk15(fn, owner: np.ndarray, a: np.ndarray, b: np.ndarray):
    """K15, |K15 - G7| and K15 of |fn| on each interval [a, b]."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = fn(c[:, None] + h[:, None] * _GK_NODES, owner)
        sums = vals @ _GK_WEIGHTS
    # every K15 weight is positive, so a node value that is not finite shows here
    bad = ~np.isfinite(sums[:, 0])
    if bad.any():
        raise _NonFinite(fn.__name__, int(owner[bad].min()))
    return h * sums[:, 0], np.abs(h * sums[:, 1]), h * (np.abs(vals) @ _GK_WEIGHTS[:, 0])


def _integrate(pieces: list, ys: np.ndarray) -> np.ndarray:
    """The sum of the integrals each grid point owns, by adaptive G7/K15
    bisection of all points at once.

    ``pieces`` lists (fn, owner, a, b): grid point ``owner[j]`` integrates
    ``fn`` over [a[j], b[j]], and ``fn(nodes, owner)`` evaluates a whole
    (intervals x 15) node array.  Each round evaluates the new intervals of
    each integrand once.  A point whose summed error is above its tolerance
    bisects every interval whose error exceeds a quarter of that tolerance
    shared over its intervals and keeps the rest; a point within tolerance
    is final and its intervals leave.  A point still open after _MAX_ROUNDS
    rounds, or with more than _MAX_INTERVALS intervals, is an error.
    """
    n = len(ys)
    out = np.zeros(n)
    # per integrand: fn, owner, a, b, then K15, |K15 - G7| and K15 of |fn|
    live = [(fn, owner, a, b, *_gk15(fn, owner, a, b)) for fn, owner, a, b in pieces]

    def per_point(col):
        return sum((np.bincount(p[1], p[col], n) for p in live), np.zeros(n))

    for rounds in itertools.count(1):
        val, err, absval = per_point(4), per_point(5), per_point(6)
        count = sum((np.bincount(p[1], minlength=n) for p in live), np.zeros(n))
        tol = np.maximum(np.maximum(_EPSABS, _EPSREL * np.abs(val)), _EPSROUND * absval)
        open_ = err > tol
        out[~open_] += val[~open_]
        if not open_.any():
            return out
        stuck = open_ & (count > _MAX_INTERVALS)
        if rounds >= _MAX_ROUNDS or stuck.any():
            i = int(np.flatnonzero(stuck if stuck.any() else open_)[0])
            _, name, lo, hi = max(
                (p[5][j], p[0].__name__, p[2][j], p[3][j])
                for p in live
                for j in np.flatnonzero(p[1] == i)
            )
            raise RuntimeError(
                f"quadrature error estimate {err[i]:.2e} above {tol[i]:.2e} at y = {ys[i]} "
                f"after {rounds} rounds and {int(count[i])} intervals; the worst is "
                f"[{lo}, {hi}] of {name}"
            )
        cut = tol / (4.0 * np.maximum(count, 1.0))
        nxt = []
        for fn, owner, a, b, *sums in live:
            split = open_[owner] & (sums[1] > cut[owner])
            keep = open_[owner] & ~split
            mid = 0.5 * (a[split] + b[split])
            o2 = np.concatenate([owner[split], owner[split]])
            a2 = np.concatenate([a[split], mid])
            b2 = np.concatenate([mid, b[split]])
            new = _gk15(fn, o2, a2, b2)
            nxt.append(
                (fn, np.concatenate([owner[keep], o2]), np.concatenate([a[keep], a2]),
                 np.concatenate([b[keep], b2]),
                 *(np.concatenate([old[keep], nw]) for old, nw in zip(sums, new)))
            )
        live = nxt


def _split(fn, owner: np.ndarray, a: np.ndarray, b: np.ndarray, at: np.ndarray) -> list:
    """Pieces of ``fn`` over [a, b] for each owner, split at ``at`` where it
    lies strictly inside."""
    inside = (a < at) & (at < b)
    return [(fn, owner, a, np.where(inside, at, b)), (fn, owner[inside], at[inside], b[inside])]


def _solve_quad(
    alpha: float, k: int, x: float, br: str, rhs, y: np.ndarray, g_y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every grid point by adaptive quadrature, at the scale of f itself.

    The defining integral is rescaled by the substitution s = |y| v so that
    the quadrature target is f directly (the bare integral would need
    relative accuracy under a |y|^(-alpha) prefactor, and for y well past
    the threshold it hides e^y-sized cancellation; integrating the tail
    from +infinity instead avoids both).  The remaining endpoint
    singularity v^(alpha-1) is removed by v = u^(1/alpha).  Powers are
    taken in log space, so an integrand overflows only where the integral
    does.  ``rhs`` is the solve's ``_rhs`` and ``g_y`` its values on y.
    """
    t = -y
    left = np.flatnonzero(y < 0)
    if br == "negative":
        # f = int_{v0}^1 e^{t(v-1)} v^(alpha-1) g(-t v) dv, v0 = |x|/t, and 0 when v0 >= 1
        v0 = -x / t[left]
        left, lo = left[v0 < 1.0], v0[v0 < 1.0]
        m = 1.0
    else:
        # v = u^(1/m) flattens the combined v^(alpha-1) g(-tv) endpoint
        # singularity; the weight contributes v^-(k+1) on the origin branch
        lo = np.zeros(len(left))
        m = alpha if br == "positive" else alpha - (k + 1.0)

    def integrand_u(u, i):
        ti = t[i, None]
        v = u ** (1.0 / m)
        return np.exp(ti * (v - 1.0) + (alpha / m - 1.0) * np.log(u)) * rhs(-ti * v) / m

    # e^{t(v-1)} is a layer of width 1/t at v = 1, narrower still in u for
    # m < 1, which the first nodes on [0, 1] can step over; a split at
    # v = 1 - 40/t gives it a piece of its own, and below the split the
    # weight is under e^-40
    layer = np.maximum(1.0 - 40.0 / t[left], 0.0) ** m
    pieces = _split(integrand_u, left, lo, np.ones(len(left)), layer)
    near = far = np.zeros(0, dtype=int)
    if br == "positive":
        near = np.flatnonzero((y > 0) & (y < 1.0))
        far = np.flatnonzero(y >= 1.0)

        # f = int_0^1 e^{y(1-u^(1/a))} g(y u^(1/a)) du / alpha, split where y u^(1/a) = x
        def integrand_near(u, i):
            yi = y[i, None]
            v = u ** (1.0 / alpha)
            return np.exp(yi * (1.0 - v)) * rhs(yi * v) / alpha

        at = np.minimum(x / y[near], 1.0) ** alpha
        pieces += _split(integrand_near, near, np.zeros(len(near)), np.ones(len(near)), at)

        # f = -(1/y) int_0^inf e^{-t} ((y+t)/y)^(alpha-1) g(y+t) dt, split at t0 = x - y,
        # and [max(t0, 0), inf) mapped to [0, 1) by t = t0 + s/(1-s)
        t0 = np.maximum(x - y, 0.0)

        def integrand_t(tt, i):
            yi = y[i, None]
            return np.exp(-tt + (alpha - 1.0) * np.log1p(tt / yi)) * rhs(yi + tt)

        def integrand_s(s, i):
            yi = y[i, None]
            tt = t0[i, None] + s / (1.0 - s)
            return np.exp(-tt + (alpha - 1.0) * np.log1p(tt / yi) - 2.0 * np.log1p(-s)) * rhs(yi + tt)

        head = far[t0[far] > 0]
        pieces += [
            (integrand_t, head, np.zeros(len(head)), t0[head]),
            (integrand_s, far, np.zeros(len(far)), np.ones(len(far))),
        ]
    total = _integrate([p for p in pieces if len(p[1])], y)
    f = np.zeros(len(y))
    f[left] = total[left]
    f[near] = total[near]
    f[far] = -total[far] / y[far]
    fp = np.zeros(len(y))
    neg = y < 0
    fp[neg] = (1.0 + alpha / t[neg]) * f[neg] - g_y[neg] / t[neg]
    if br == "positive":
        pos = y > 0
        fp[pos] = (1.0 - alpha / y[pos]) * f[pos] + g_y[pos] / y[pos]
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
    solution point by point; method "quad" integrates the defining integral
    on every grid point at once, by adaptive Gauss-Kronrod (G7/K15)
    bisection in numpy with the endpoint substitution s = u^(1/alpha) near
    0.  An overflow in either route raises OverflowError naming the function
    and the grid point.
    """
    br = _check_branch(alpha, k, x)
    if method not in ("exact", "quad"):
        raise ValueError(f"unknown method {method!r}")
    g = [float(v) for v in grid]
    if any(v == 0.0 for v in g):
        raise ValueError("grid must exclude 0")
    if any(g[i] >= g[i + 1] for i in range(len(g) - 1)):
        raise ValueError("grid must be strictly increasing")

    def overflow(name: str, y: float, detail: str) -> OverflowError:
        return OverflowError(
            f"stein solve ({method}) overflowed in {name} "
            f"at alpha = {alpha}, k = {k}, x = {x}, y = {y}: {detail}"
        )

    eh = float(gamma_pdf_deriv(alpha, k, x))
    rhs = _rhs(alpha, k, x, eh)
    ys = np.array(g)
    with np.errstate(over="ignore"):
        g_y = rhs(ys)
    if not np.all(np.isfinite(g_y)):
        i = int(np.flatnonzero(~np.isfinite(g_y))[0])
        raise overflow("rhs", g[i], "h(y) - E h(G) is not finite")
    if method == "quad":
        try:
            f, fp = _solve_quad(alpha, k, x, br, rhs, ys, g_y)
        except _NonFinite as exc:
            name, i = exc.args
            raise overflow(name, g[i], "the integrand is not finite") from None
    else:
        f = np.empty(len(g))
        fp = np.empty(len(g))
        for i, y in enumerate(g):
            try:
                f[i], fp[i] = _solve_exact_point(alpha, k, x, br, eh, float(g_y[i]), y)
            except OverflowError as exc:
                tb = exc.__traceback__
                while tb.tb_next is not None:
                    tb = tb.tb_next
                raise overflow(tb.tb_frame.f_code.co_name, y, str(exc)) from exc
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
