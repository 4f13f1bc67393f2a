"""Exact calculus on finite Wiener-chaos expansions.

A ``ChaosVector`` represents F = c + sum_n I_n(f_n), a square-integrable
functional of d independent standard Gaussians with symmetric order-n kernels
f_n.  The multiple integral is realized on sample points z in R^d as

    I_q(f)(z) = sum_m mult(m) f[m] prod_i He_{a_i(m)}(z_i),

with He the monic probabilists' Hermite polynomials, mult(m) = q!/prod a_i!
the ordering count of the multi-index m and a_i(m) the multiplicity of basis
label i in m.  Under this normalization the isometry

    E[I_q(f) I_q(g)] = q! <f, g>,   E[I_p I_q] = 0 for p != q

holds exactly, and all operators below are exact kernel manipulations:

* ``multiply`` — the product formula I_n(f) I_m(g) =
  sum_r r! C(n,r) C(m,r) I_{n+m-2r}(sym(f ox_r g));
* ``malliavin_derivative`` — D_j I_n(f) = n I_{n-1}(f(j, .));
* ``divergence`` — delta(u) = sum_j (Z_j u_j - D_j u_j) for a smooth field u;
* ``generator``/``generator_inverse`` — L = -n and its pseudo-inverse -1/n on
  chaos n, the inverse acting on the centered part;
* ``carre_du_champ`` — Gamma(F, G) = <DF, DG>;
* ``moment`` — E[F^p] = E[F^a F^b] with a = floor(p/2), b = ceil(p/2): only
  the half power F^b is built by products, and the isometry pairs it with F^a.

Products can only grow the chaos order, so every vector carries an order
budget; exceeding it raises ``OrderBudgetError`` instead of silently building
an enormous expansion; ``moment_order`` gives the order ``moment`` needs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import comb, factorial
from typing import Iterable, Mapping, Sequence

import numpy as np

from .multiindex import MultiIndex, distinct_permutations, permutation_count
from .polynomials import hermite_table
from .tensors import SymTensor, contract_sym

__all__ = [
    "DEFAULT_MAX_ORDER",
    "OrderBudgetError",
    "ChaosVector",
    "ChaosField",
    "multiply",
    "malliavin_derivative",
    "divergence",
    "generator",
    "generator_inverse",
    "expectation",
    "second_moment",
    "covariance",
    "moment",
    "moment_order",
    "carre_du_champ",
    "gradient_norm_sq",
    "wbar",
    "needed_degree",
    "evaluate",
    "eval_jet",
    "JetValue",
]

DEFAULT_MAX_ORDER = 16


class OrderBudgetError(RuntimeError):
    """A product would create chaos kernels beyond the configured order cap."""


@dataclass(frozen=True)
class ChaosVector:
    """c + sum_n I_n(f_n) on a d-dimensional Gaussian space."""

    dim: int
    constant: float = 0.0
    kernels: Mapping[int, SymTensor] = field(default_factory=dict)
    max_order: int = DEFAULT_MAX_ORDER

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        clean: dict[int, SymTensor] = {}
        for n, f in self.kernels.items():
            n = int(n)
            if n < 1:
                raise ValueError("kernels are indexed by chaos order >= 1")
            if f.order != n:
                raise ValueError(f"kernel at order {n} has tensor order {f.order}")
            if f.dim != self.dim:
                raise ValueError("kernel dim mismatch")
            if n > self.max_order:
                raise OrderBudgetError(
                    f"kernel order {n} exceeds the order budget {self.max_order}"
                )
            if f.coeffs:
                clean[n] = f
        object.__setattr__(self, "kernels", clean)
        object.__setattr__(self, "constant", float(self.constant))

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_kernel(f: SymTensor, constant: float = 0.0, max_order: int = DEFAULT_MAX_ORDER) -> "ChaosVector":
        return ChaosVector(f.dim, constant, {f.order: f}, max_order)

    @staticmethod
    def gaussian(coeffs: Sequence[float], max_order: int = DEFAULT_MAX_ORDER) -> "ChaosVector":
        """I_1(sum_i c_i e_i) = sum_i c_i Z_i."""
        entries = {(i,): float(c) for i, c in enumerate(coeffs) if c != 0.0}
        d = len(tuple(coeffs))
        return ChaosVector(d, 0.0, {1: SymTensor(1, d, entries)}, max_order)

    @staticmethod
    def second_chaos_diagonal(zeta: Sequence[float], max_order: int = DEFAULT_MAX_ORDER) -> "ChaosVector":
        """F = sum_i zeta_i (Z_i^2 - 1) = I_2(sum_i zeta_i e_i (x) e_i)."""
        z = tuple(float(v) for v in zeta)
        entries = {(i, i): v for i, v in enumerate(z) if v != 0.0}
        return ChaosVector(len(z), 0.0, {2: SymTensor(2, len(z), entries)}, max_order)

    # -- structure -----------------------------------------------------------

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(sorted(self.kernels))

    @property
    def top_order(self) -> int:
        return max(self.kernels, default=0)

    def kernel(self, n: int) -> SymTensor:
        return self.kernels.get(n, SymTensor.zero(n, self.dim))

    def is_pure_chaos(self) -> bool:
        return self.constant == 0.0 and len(self.kernels) == 1

    def with_budget(self, max_order: int) -> "ChaosVector":
        return ChaosVector(self.dim, self.constant, dict(self.kernels), max_order)

    # -- linear algebra --------------------------------------------------------

    def __add__(self, other: "ChaosVector | float | int") -> "ChaosVector":
        if isinstance(other, (int, float)):
            return ChaosVector(self.dim, self.constant + float(other), dict(self.kernels), self.max_order)
        self._check(other)
        ker = dict(self.kernels)
        for n, f in other.kernels.items():
            ker[n] = ker[n] + f if n in ker else f
        return ChaosVector(
            self.dim, self.constant + other.constant, ker, max(self.max_order, other.max_order)
        )

    __radd__ = __add__

    def __sub__(self, other: "ChaosVector | float | int") -> "ChaosVector":
        if isinstance(other, (int, float)):
            return self + (-float(other))
        return self + other.scale(-1.0)

    def __neg__(self) -> "ChaosVector":
        return self.scale(-1.0)

    def scale(self, a: float) -> "ChaosVector":
        return ChaosVector(
            self.dim,
            a * self.constant,
            {n: f.scale(a) for n, f in self.kernels.items()},
            self.max_order,
        )

    def __rmul__(self, a: float) -> "ChaosVector":
        if isinstance(a, (int, float)):
            return self.scale(float(a))
        return NotImplemented

    def __mul__(self, other: "ChaosVector | float | int") -> "ChaosVector":
        if isinstance(other, (int, float)):
            return self.scale(float(other))
        return multiply(self, other)

    def _check(self, other: "ChaosVector") -> None:
        if self.dim != other.dim:
            raise ValueError("dimension mismatch between chaos vectors")

    def max_abs_coeff(self) -> float:
        vals = [abs(self.constant)] + [f.max_abs_coeff() for f in self.kernels.values()]
        return max(vals)

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "constant": self.constant,
            "max_order": self.max_order,
            "kernels": {str(n): f.to_json_dict() for n, f in sorted(self.kernels.items())},
        }

    @staticmethod
    def from_json_dict(doc: Mapping) -> "ChaosVector":
        ker = {int(n): SymTensor.from_json_dict(t) for n, t in doc.get("kernels", {}).items()}
        return ChaosVector(
            int(doc["dim"]),
            float(doc.get("constant", 0.0)),
            ker,
            int(doc.get("max_order", DEFAULT_MAX_ORDER)),
        )


@dataclass(frozen=True)
class ChaosField:
    """An R^d-valued functional: one ChaosVector per coordinate direction."""

    dim: int
    components: tuple[ChaosVector, ...]

    def __post_init__(self) -> None:
        if len(self.components) != self.dim:
            raise ValueError("field needs exactly dim components")
        for c in self.components:
            if c.dim != self.dim:
                raise ValueError("component dimension mismatch")

    def __getitem__(self, j: int) -> ChaosVector:
        return self.components[j]

    def __add__(self, other: "ChaosField") -> "ChaosField":
        return ChaosField(self.dim, tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "ChaosField") -> "ChaosField":
        return ChaosField(self.dim, tuple(a - b for a, b in zip(self.components, other.components)))

    def scale(self, a: float) -> "ChaosField":
        return ChaosField(self.dim, tuple(c.scale(a) for c in self.components))

    def inner(self, other: "ChaosField") -> ChaosVector:
        """<u, v> = sum_j u_j v_j as an exact ChaosVector."""
        total: ChaosVector | None = None
        for a, b in zip(self.components, other.components):
            term = multiply(a, b)
            total = term if total is None else total + term
        assert total is not None
        return total


# -- core operators -------------------------------------------------------------


def multiply(F: ChaosVector, G: ChaosVector) -> ChaosVector:
    """Exact product via the multiplication formula, kernel by kernel."""
    F._check(G)
    budget = max(F.max_order, G.max_order)
    const = F.constant * G.constant
    ker: dict[int, SymTensor] = {}

    def add_kernel(n: int, t: SymTensor, scale: float = 1.0) -> None:
        if not t.coeffs:
            return
        tt = t.scale(scale) if scale != 1.0 else t
        ker[n] = ker[n] + tt if n in ker else tt

    # constant x kernel parts
    if F.constant != 0.0:
        for n, g in G.kernels.items():
            add_kernel(n, g, F.constant)
    if G.constant != 0.0:
        for n, f in F.kernels.items():
            add_kernel(n, f, G.constant)

    extra_const = 0.0
    for n, f in F.kernels.items():
        for m, g in G.kernels.items():
            if n + m > budget:
                raise OrderBudgetError(
                    f"product of chaos orders {n} and {m} exceeds the order budget {budget}"
                )
            for r in range(0, min(n, m) + 1):
                coef = factorial(r) * comb(n, r) * comb(m, r)
                t = contract_sym(f, g, r)
                out_order = n + m - 2 * r
                if out_order == 0:
                    extra_const += coef * t.coeffs.get((), 0.0)
                else:
                    add_kernel(out_order, t, float(coef))
    return ChaosVector(F.dim, const + extra_const, ker, budget)


def malliavin_derivative(F: ChaosVector) -> ChaosField:
    """DF, with D_j I_n(f) = n I_{n-1}(f(j, .))."""
    return ChaosField(F.dim, tuple(_partial_derivative(F, j) for j in range(F.dim)))


def _partial_derivative(F: ChaosVector, j: int) -> ChaosVector:
    """D_j F, the j-th component of ``malliavin_derivative(F)``."""
    ker: dict[int, SymTensor] = {}
    const = 0.0
    for n, f in F.kernels.items():
        sl = f.slice(j).scale(float(n))
        if n == 1:
            const += sl.coeffs.get((), 0.0)
        elif sl.coeffs:
            ker[n - 1] = ker[n - 1] + sl if n - 1 in ker else sl
    return ChaosVector(F.dim, const, ker, F.max_order)


def divergence(u: ChaosField) -> ChaosVector:
    """delta(u) = sum_j (Z_j u_j - D_j u_j).

    On polynomial fields this is the adjoint of D:
    E[F delta(u)] = E[<DF, u>] for every ChaosVector F.
    """
    total: ChaosVector | None = None
    for j in range(u.dim):
        zj = ChaosVector(u.dim, 0.0, {1: SymTensor(1, u.dim, {(j,): 1.0})}, u.components[j].max_order)
        term = multiply(zj, u.components[j]) - _partial_derivative(u.components[j], j)
        total = term if total is None else total + term
    assert total is not None
    return total


def generator(F: ChaosVector) -> ChaosVector:
    """L F = -sum_n n I_n(f_n); kills the constant."""
    return ChaosVector(
        F.dim, 0.0, {n: f.scale(-float(n)) for n, f in F.kernels.items()}, F.max_order
    )


def generator_inverse(F: ChaosVector) -> ChaosVector:
    """Pseudo-inverse L^{-1} F = -sum_n (1/n) I_n(f_n) of the centered part."""
    return ChaosVector(
        F.dim, 0.0, {n: f.scale(-1.0 / n) for n, f in F.kernels.items()}, F.max_order
    )


def expectation(F: ChaosVector) -> float:
    return F.constant


def second_moment(F: ChaosVector) -> float:
    """E[F^2] through the isometry, without forming the product."""
    return F.constant**2 + sum(factorial(n) * f.norm_sq() for n, f in F.kernels.items())


def covariance(F: ChaosVector, G: ChaosVector) -> float:
    """E[FG] - E[F]E[G] via the isometry and orthogonality of chaoses."""
    F._check(G)
    return float(
        sum(factorial(n) * f.inner(G.kernels[n]) for n, f in F.kernels.items() if n in G.kernels)
    )


def moment(F: ChaosVector, p: int) -> float:
    """E[F^p] through the isometry, without building F^p.

    With a = floor(p/2) and b = ceil(p/2), only F^a is built by exact
    products, and F^b is F^a or F^a F, so the largest order formed is
    b * top_order.  Then E[F^p] = E[F^a] E[F^b] + covariance(F^a, F^b).
    """
    if p < 0:
        raise ValueError("moment order must be >= 0")
    a, b = p // 2, p - p // 2
    if moment_order(F, p) > F.max_order:
        raise OrderBudgetError(
            f"moment({p}) of a chaos-{F.top_order} vector needs order {moment_order(F, p)} "
            f"> budget {F.max_order}"
        )
    lo = ChaosVector(F.dim, 1.0, {}, F.max_order)
    for _ in range(a):
        lo = multiply(lo, F)
    hi = multiply(lo, F) if b > a else lo
    return lo.constant * hi.constant + covariance(lo, hi)


def moment_order(F: ChaosVector, p: int) -> int:
    """Highest chaos order ``moment(F, p)`` builds: that of F^ceil(p/2)."""
    return F.top_order * ((p + 1) // 2)


def carre_du_champ(F: ChaosVector, G: ChaosVector) -> ChaosVector:
    """Gamma(F, G) = <DF, DG> as an exact ChaosVector."""
    return malliavin_derivative(F).inner(malliavin_derivative(G))


def gradient_norm_sq(F: ChaosVector) -> ChaosVector:
    """||DF||^2 as an exact ChaosVector."""
    return carre_du_champ(F, F)


def wbar(F: ChaosVector) -> ChaosVector:
    """Projected gradient weight <DF, -D L^-1 F> as an exact chaos element.

    For pure chaos of order q this is ||DF||^2 / q; its expectation always
    equals E[F^2].
    """
    DLinv = malliavin_derivative(generator_inverse(F))
    return malliavin_derivative(F).inner(DLinv.scale(-1.0))


# -- evaluation -----------------------------------------------------------------


def needed_degree(vectors: Iterable[ChaosVector]) -> int:
    """Highest Hermite degree any basis label reaches in the given vectors."""
    deg = 1
    for F in vectors:
        for f in F.kernels.values():
            for key in f.coeffs:
                if key:
                    deg = max(deg, max(Counter(key).values()))
    return deg


def evaluate(F: ChaosVector, Z: np.ndarray, table: np.ndarray | None = None) -> np.ndarray:
    """Evaluate F at sample rows Z of shape (S, d); returns shape (S,).

    ``table`` may carry a precomputed Hermite table from ``hermite_table``
    (shape (S, d, deg+1)) shared across several vectors on the same chunk.
    """
    Z = np.asarray(Z, dtype=float)
    if Z.ndim == 1:
        Z = Z[None, :]
    if Z.shape[1] != F.dim:
        raise ValueError(f"sample dimension {Z.shape[1]} != chaos dimension {F.dim}")
    if table is None:
        table = hermite_table(Z, needed_degree([F]))
    out = np.full(Z.shape[0], F.constant)
    for _, f in sorted(F.kernels.items()):
        for key, val in f.coeffs.items():
            c = Counter(key)
            term = np.full(Z.shape[0], val * float(permutation_count(key)))
            for v, a in c.items():
                term = term * table[:, v, a]
            out += term
    return out


@dataclass(frozen=True)
class JetValue:
    """Value and derivative tensors of a ChaosVector at one point."""

    value: float
    derivs: Mapping[int, np.ndarray]

    def partial(self, indices: Sequence[int]) -> float:
        idx = tuple(int(i) for i in indices)
        if not idx:
            return self.value
        return float(self.derivs[len(idx)][idx])


def eval_jet(F: ChaosVector, z: Sequence[float], k: int) -> JetValue:
    """F(z) together with all partial derivatives up to total order k <= 4.

    On this finite Gaussian space d/dz_j of the Hermite realization is D_j,
    so the order-p tensor is D^p F evaluated at z: one evaluation per sorted
    multi-index, copied to each of its orderings (dense, shape (d,)*p).
    """
    if not 0 <= k <= 4:
        raise ValueError("jet order k must be in 0..4")
    z = np.asarray(z, dtype=float)
    if z.shape != (F.dim,):
        raise ValueError(f"point must have shape ({F.dim},)")
    Z = z[None, :]
    table = hermite_table(Z, needed_degree([F]))
    levels = _derivative_components(F, k)
    derivs = {p: np.zeros((F.dim,) * p) for p in range(1, k + 1)}
    for p in range(1, k + 1):
        for X, G in levels[p].items():
            value = float(evaluate(G, Z, table)[0])
            for perm in distinct_permutations(X):
                derivs[p][perm] = value
    return JetValue(float(evaluate(F, Z, table)[0]), derivs)


def _derivative_components(F: ChaosVector, m: int) -> list[dict[MultiIndex, ChaosVector]]:
    """D^p F for p = 0..m: entry p maps each sorted multi-index X of size p
    to D_(x_1) ... D_(x_p) F, built by applying ``_partial_derivative`` to
    the entries of order p - 1 in the directions j >= x_(p-1) only.
    Identically zero components are omitted, and each entry is in
    lexicographic order of X."""
    levels = [{(): F}]
    for _ in range(m):
        nxt: dict[MultiIndex, ChaosVector] = {}
        for X, G in levels[-1].items():
            for j in range(X[-1] if X else 0, F.dim):
                DjG = _partial_derivative(G, j)
                if DjG.constant != 0.0 or DjG.kernels:
                    nxt[X + (j,)] = DjG
        levels.append(nxt)
    return levels
