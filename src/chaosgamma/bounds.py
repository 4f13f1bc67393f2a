"""Quantitative density bounds for Gamma approximation on Wiener chaos.

The central object is the defect Theta = ||DF||^2 - q(F + alpha) of a pure
chaos element F of even order q.  Its variance controls how far the density
of F + alpha sits from the Gamma(alpha) density, through moments of the
solution envelope of the Gamma Stein equation.  This module provides

* the contraction coefficients lambda(k, l) and tau(k, l, r) together with
  the coefficient-ratio constants that convert one defect norm into another,
* exact chaos-level constructions of Theta and of the tensor defect
  Lambda(k, l) = lambda(k, l) D^k F (x)_1 D^l F - D^(k+l-2) F (the projected
  gradient weight wbar = <DF, -D L^-1 F> is built in ``chaos`` and
  re-exported here),
* closed contraction-norm expansions for E[Theta^2] and its relatives, each
  paired with an independent direct computation in the chaos engine,
* the fully assembled pointwise density bounds: a moment-based bound for
  pure even chaos and a general Malliavin route driven by the defect
  E[||D wbar - DF||^(s/2)].  Both are a Stein-envelope prefactor times a
  defect factor and share one assembly; each route supplies only its own
  defect factor and gradient-weight terms.

Everything that can be computed exactly is; Monte Carlo enters only for the
moments that have no finite closed form (negative moments, fractional
moments), and each such estimate is returned with its seed and stderr.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from typing import Mapping

from .chaos import (
    DEFAULT_MAX_ORDER,
    ChaosVector,
    _derivative_components,
    covariance,
    expectation,
    generator_inverse,
    gradient_norm_sq,
    malliavin_derivative,
    moment,
    moment_order,
    multiply,
    second_moment,
    wbar,
)
from .gamma import gamma_pdf
from .mc import McEstimate, _checked_pass
from .multiindex import MultiIndex, merge, permutation_count, sub_multisets
from .spectral import second_chaos_eigenvalues, shifted_moment  # the first is re-exported
from .stein import _ALPHA_TOL, SteinEnvelope, _check_alpha, _check_branch, envelope
from .tensors import SymTensor, contract_sym

__all__ = [
    "BoundReport",
    "LambdaField",
    "assemble_density_bound",
    "assemble_general_bound",
    "c1_constant",
    "defect_domination_constant",
    "dtheta_identity_check",
    "even_chaos_moments",
    "fourth_moment_combo",
    "lambda_const",
    "lambda_field",
    "lambda_norm_direct",
    "lambda_norm_expansion",
    "lambda_norm_symmetrized",
    "lambda_norm_symmetrized_expansion",
    "second_chaos_eigenvalues",
    "second_derivative_defect_direct",
    "second_derivative_defect_expansion",
    "shifted_positive_moment",
    "tau_const",
    "theta",
    "theta_variance_direct",
    "theta_variance_expansion",
    "wbar",
]

def _fact(n: int) -> float:
    return float(math.factorial(n))


def _comb(n: int, k: int) -> float:
    return float(math.comb(n, k))


# -- contraction coefficients ------------------------------------------------------


def lambda_const(k: int, l: int, q: int) -> float:
    """Coefficient lambda(k, l) in the derivative-contraction identity.

    Defined for even q >= 2 and 1 <= k, l <= q/2 + 1 with k + l >= 3 as

        (q-1)! (q/2 - k + 1)! (q/2 - l + 1)! / ((q - k - l + 2)! ((q/2)!)^2),

    normalized so that lambda(k, l) D^k F (x)_1 D^l F has the same leading
    kernel as D^(k+l-2) F.  lambda(2, 1) = 2/q.
    """
    _check_kl(k, l, q)
    h = q // 2
    num = _fact(q - 1) * _fact(h - k + 1) * _fact(h - l + 1)
    den = _fact(q - k - l + 2) * _fact(h) ** 2
    return num / den


def tau_const(k: int, l: int, r: int, q: int) -> float:
    """Weight of the order-r contraction in the expansion of D^k F (x)_1 D^l F:

        tau(k, l, r) = q!^2 / ((q-l)! (q-k)!) * r! C(q-k, r) C(q-l, r),

    for 0 <= r <= q - max(k, l).
    """
    _check_kl(k, l, q)
    if not 0 <= r <= q - max(k, l):
        raise ValueError(f"contraction order r={r} outside [0, {q - max(k, l)}]")
    return (
        _fact(q) ** 2
        / (_fact(q - l) * _fact(q - k))
        * _fact(r)
        * _comb(q - k, r)
        * _comb(q - l, r)
    )


def _check_kl(k: int, l: int, q: int) -> None:
    if q < 2 or q % 2 != 0:
        raise ValueError(f"chaos order q={q} must be even and >= 2")
    h = q // 2
    if not (1 <= k <= h + 1 and 1 <= l <= h + 1):
        raise ValueError(f"(k, l)=({k}, {l}) outside [1, {h + 1}]^2 for q={q}")
    if k + l < 3:
        raise ValueError("need k + l >= 3")


def c1_constant(q: int) -> float:
    """Smallest constant with E||2 D^2F (x)_1 DF - q DF||^2 <= C1 E[Theta^2]
    that the two contraction expansions certify termwise.

    Computed as the maximum coefficient ratio over the shared terms: the
    order-r contraction terms give 2(q - 1 - r), the final alignment term
    gives q, so the maximum is 2(q - 1).
    """
    if q < 2 or q % 2 != 0:
        raise ValueError(f"chaos order q={q} must be even and >= 2")
    ratios = [2.0 * (q - 1 - r) for r in range(q - 1) if r != q // 2 - 1]
    ratios.append(float(q))
    return max(ratios)


def defect_domination_constant(q: int, k: int, l: int) -> float:
    """Termwise constant with lambda_norm_symmetrized_expansion(f, k, l)
    <= C(q,k,l) E[Theta^2].

    Maximum ratio of matching coefficients between the symmetrized
    expansion of the defect norm and the expansion of E[Theta^2], taken over
    the contraction terms both share plus the final alignment term.  That
    inequality is the only one the constant certifies.  The full norm
    lambda_norm_direct (equal to lambda_norm_expansion) has terms that are
    not multiples of the E[Theta^2] terms, so E||Lambda(k, l)||^2
    <= C(q,k,l) E[Theta^2] is checked on random kernels (largest measured
    ratio 0.67 over 16 order-4 kernels) but not derived; a certified
    constant for the full norm is an open question.
    """
    _check_kl(k, l, q)
    weights, align = _expansion_weights(q, (k, l))
    theta_weights, theta_align = _expansion_weights(q)
    return max([w / theta_weights[r] for r, w in weights.items()] + [align / theta_align])


def _expansion_weights(
    q: int, kl: tuple[int, int] | None = None
) -> tuple[dict[int, float], float]:
    """The weights of the contraction expansion of E[Theta^2] (kl None) or
    of the symmetrized E||Lambda(k, l)||^2 (kl = (k, l)): w_r multiplies
    ||f (x~)_(r+1) f||^2 for r != q/2 - 1, and the alignment weight
    multiplies ||g||^2, g being ``_alignment_defect(f)``."""
    if kl is None:
        weights = {
            r: q**4 * _fact(r) ** 2 * _comb(q - 1, r) ** 4 * _fact(2 * q - 2 - 2 * r)
            for r in range(q - 1)
        }
        align = _fact(q - 1) * q**3
    else:
        k, l = kl
        lam = lambda_const(k, l, q)
        weights = {
            r: lam**2 * tau_const(k, l, r, q) ** 2 * _fact(2 * q - k - l - 2 * r)
            for r in range(q - max(k, l) + 1)
        }
        align = _fact(q) ** 2 / _fact(q - k - l + 2)
    weights.pop(q // 2 - 1, None)
    return weights, align


def _weighted_expansion(f: SymTensor, kl: tuple[int, int] | None = None) -> float:
    """sum_r w_r ||f (x~)_(r+1) f||^2 + (alignment weight) ||g||^2 with the
    weights of ``_expansion_weights(f.order, kl)``."""
    weights, align = _expansion_weights(f.order, kl)
    total = 0.0
    for r, w in weights.items():
        total += w * contract_sym(f, f, r + 1).norm_sq()
    return total + align * _alignment_defect(f).norm_sq()


# -- exact defect constructions ----------------------------------------------------


def _pure_even_order(F: ChaosVector) -> int:
    if not F.is_pure_chaos():
        raise ValueError(
            "the Gamma defect needs a pure chaos element (a single chaos order, no"
            f" constant); got orders {F.orders or (0,)} with constant {F.constant}"
        )
    q = F.top_order
    if q % 2 != 0:
        raise ValueError(
            f"the chaos order {q} is odd; the Gamma-approximation defect is only"
            " controlled for even orders, where F + alpha can stay nonnegative"
        )
    return q


def theta(F: ChaosVector, alpha: float) -> ChaosVector:
    """Defect Theta = ||DF||^2 - q (F + alpha) as an exact chaos element.

    Mean zero when alpha = E[F^2]; identically zero exactly when F + alpha
    is distributed as Gamma(alpha) within the chaos.
    """
    q = _pure_even_order(F)
    _check_alpha(F, alpha)
    return gradient_norm_sq(F) - F.scale(float(q)) - float(q) * alpha


def theta_variance_expansion(f: SymTensor, alpha: float) -> float:
    """E[Theta^2] as a closed sum of symmetrized-contraction norms.

    Requires alpha = q! ||f||^2 (so that Theta has mean zero).  The value is

        q^4 sum_{r != q/2-1} r!^2 C(q-1, r)^4 (2q-2-2r)! ||f (x~)_(r+1) f||^2
        + (q-1)! q^3 ||g||^2,

    with g = q (q/2-1)! C(q-1, q/2-1)^2 f (x~)_(q/2) f - f the alignment
    defect; both pieces vanish exactly in the Gamma-distributed case.
    """
    q = f.order
    if q < 2 or q % 2 != 0:
        raise ValueError(f"kernel order {q} must be even and >= 2")
    m2 = _fact(q) * f.norm_sq()
    if abs(m2 - alpha) > _ALPHA_TOL * max(1.0, abs(alpha)):
        raise ValueError(f"q! ||f||^2 = {m2!r} does not match alpha = {alpha!r}")
    return _weighted_expansion(f)


def _alignment_defect(f: SymTensor) -> SymTensor:
    """g = q (q/2-1)! C(q-1, q/2-1)^2 f (x~)_(q/2) f - f (order q)."""
    q = f.order
    coeff = q * _fact(q // 2 - 1) * _comb(q - 1, q // 2 - 1) ** 2
    return contract_sym(f, f, q // 2).scale(coeff) - f


def theta_variance_direct(f: SymTensor, alpha: float) -> float:
    """E[Theta^2] computed directly in the chaos engine (independent route)."""
    q = f.order
    budget = max(DEFAULT_MAX_ORDER, 4 * q - 4)
    F = ChaosVector.from_kernel(f, max_order=budget)
    return second_moment(theta(F, alpha))


def second_derivative_defect_expansion(f: SymTensor) -> float:
    """E||2 D^2 F (x)_1 DF - q DF||^2 as a closed contraction-norm sum.

    Since lambda(2, 1) = 2/q, 2 D^2 F (x)_1 DF - q DF = q Lambda(2, 1), and
    the symmetrized expansion is exact at (2, 1), so this is
    q^2 lambda_norm_symmetrized_expansion(f, 2, 1).
    """
    return f.order**2 * lambda_norm_symmetrized_expansion(f, 2, 1)


def second_derivative_defect_direct(f: SymTensor) -> float:
    """E||2 D^2 F (x)_1 DF - q DF||^2 = q^2 lambda_norm_direct(f, 2, 1),
    summed component by component in the engine (independent route)."""
    return f.order**2 * lambda_norm_direct(f, 2, 1)


# -- the tensor-valued defect field -------------------------------------------------


@dataclass(frozen=True)
class LambdaField:
    """Lambda(k, l) = lambda(k, l) D^k F (x)_1 D^l F - D^(k+l-2) F.

    A tensor-valued random element with k + l - 2 free slots.  It is
    symmetric within the slots inherited from each derivative factor but not
    across the split, so components are stored per pair (J, K) of sorted
    multi-indices (sizes k-1 and l-1); that grouping is lossless.  Components
    that are identically zero are omitted.
    """

    q: int
    k: int
    l: int
    dim: int
    components: Mapping[tuple[MultiIndex, MultiIndex], ChaosVector] = field(
        default_factory=dict
    )

    def component(self, J: MultiIndex, K: MultiIndex) -> ChaosVector:
        key = (tuple(sorted(J)), tuple(sorted(K)))
        got = self.components.get(key)
        return got if got is not None else ChaosVector(self.dim)

    def norm_sq_expectation(self) -> float:
        """E||Lambda||^2 over the full tensor: every index tuple counted."""
        return sum(
            permutation_count(J) * permutation_count(K) * second_moment(c)
            for (J, K), c in self.components.items()
        )

    def symmetrized_norm_sq_expectation(self) -> float:
        """E||sym Lambda||^2 after full symmetrization of the free slots.

        The symmetrization averages, for each combined multiset M, over all
        ways of splitting M into the (k-1, l-1) slot groups.  This is a
        norm-contracting projection, so the value is at most
        norm_sq_expectation(), with equality when k + l - 2 <= 1.
        """
        combined: dict[MultiIndex, None] = {}
        for J, K in self.components:
            combined[merge(J, K)] = None
        total = 0.0
        for M in combined:
            pm = permutation_count(M)
            acc: ChaosVector | None = None
            for J, K in sub_multisets(M, self.k - 1):
                comp = self.components.get((J, K))
                if comp is None:
                    continue
                w = permutation_count(J) * permutation_count(K) / pm
                acc = comp.scale(w) if acc is None else acc + comp.scale(w)
            if acc is not None:
                total += pm * second_moment(acc)
        return total


def _multi_slice(f: SymTensor, X: tuple[int, ...]) -> SymTensor:
    t = f
    for j in X:
        t = t.slice(j)
    return t


def _contraction_defect_components(
    f: SymTensor, k: int, l: int, c_contr: float
) -> dict[tuple[MultiIndex, MultiIndex], ChaosVector]:
    """Components of c_contr * D^k F (x)_1 D^l F - D^(k+l-2) F, grouped by
    the (J, K) multi-index split."""
    F = ChaosVector.from_kernel(f, max_order=max(DEFAULT_MAX_ORDER, 2 * f.order))
    D = _derivative_components(F, max(k, l, k + l - 2))
    out: dict[tuple[MultiIndex, MultiIndex], ChaosVector] = {}
    for J in D[k - 1]:
        for K in D[l - 1]:
            acc: ChaosVector | None = None
            for a in range(f.dim):
                va = D[k].get(merge(J, (a,)))
                vb = D[l].get(merge(K, (a,)))
                if va is None or vb is None:
                    continue
                term = multiply(va, vb)
                acc = term if acc is None else acc + term
            sub = D[k + l - 2].get(merge(J, K))
            comp: ChaosVector | None = None
            if acc is not None:
                comp = acc.scale(c_contr)
            if sub is not None:
                comp = sub.scale(-1.0) if comp is None else comp - sub
            if comp is not None and (comp.constant != 0.0 or comp.kernels):
                out[(J, K)] = comp
    return out


def lambda_field(f: SymTensor, k: int, l: int) -> LambdaField:
    """Build Lambda(k, l) for F = I_q(f) with exact chaos components."""
    q = f.order
    _check_kl(k, l, q)
    lam = lambda_const(k, l, q)
    comps = _contraction_defect_components(f, k, l, lam)
    return LambdaField(q, k, l, f.dim, comps)


def lambda_norm_direct(f: SymTensor, k: int, l: int) -> float:
    """E||Lambda(k, l)||^2 computed in the engine, full tensor norm."""
    return lambda_field(f, k, l).norm_sq_expectation()


def lambda_norm_symmetrized(f: SymTensor, k: int, l: int) -> float:
    """E||sym Lambda(k, l)||^2 with the free slots symmetrized."""
    return lambda_field(f, k, l).symmetrized_norm_sq_expectation()


def lambda_norm_expansion(f: SymTensor, k: int, l: int) -> float:
    """E||Lambda(k, l)||^2 as an exact closed contraction-norm sum.

    The (J, K) component of Lambda(k, l) is a finite chaos sum whose order
    2q-k-l-2r kernel is lambda tau(k,l,r) f_J (x~)_(r+1) f_K, with
    f_J = f(J, .) and the symmetrization taken over the chaos variables only;
    the order q-k-l+2 kernel also carries -(q!/(q-k-l+2)!) f_(J+K).  By the
    isometry, with J, K running over sorted multisets of sizes k-1 and l-1
    and m(.) counting their orderings,

        sum_{J,K} m(J) m(K) [ sum_{r != q/2-1} lambda^2 tau_r^2 (2q-k-l-2r)!
                                  ||f_J (x~)_(r+1) f_K||^2
            + (q-k-l+2)! ||lambda tau_(q/2-1) f_J (x~)_(q/2) f_K
                           - (q!/(q-k-l+2)!) f_(J+K)||^2 ].

    Equal to lambda_norm_direct for every admissible (k, l) and even q, but
    computed from tensor contractions alone, without chaos products.
    """
    q = f.order
    _check_kl(k, l, q)
    lam = lambda_const(k, l, q)
    coeffs = [lam * tau_const(k, l, r, q) for r in range(q - max(k, l) + 1)]
    sub_coeff = _fact(q) / _fact(q - k - l + 2)
    supp = sorted(f.support())

    def slices(m: int) -> list[tuple[MultiIndex, SymTensor]]:
        out = [(X, _multi_slice(f, X)) for X in combinations_with_replacement(supp, m)]
        return [(X, t) for X, t in out if t.coeffs]

    right = slices(l - 1)
    total = 0.0
    for J, fJ in slices(k - 1):
        for K, fK in right:
            acc = 0.0
            for r, coeff in enumerate(coeffs):
                c = contract_sym(fJ, fK, r + 1)
                if r == q // 2 - 1:
                    g = c.scale(coeff) - _multi_slice(f, merge(J, K)).scale(sub_coeff)
                    acc += _fact(q - k - l + 2) * g.norm_sq()
                else:
                    acc += coeff**2 * _fact(2 * q - k - l - 2 * r) * c.norm_sq()
            total += permutation_count(J) * permutation_count(K) * acc
    return total


def lambda_norm_symmetrized_expansion(f: SymTensor, k: int, l: int) -> float:
    """The paper's contraction expansion with fully symmetrized contractions:

        lambda(k,l)^2 sum_{r != q/2-1} tau(k,l,r)^2 (2q-k-l-2r)!
            ||f (x~)_(r+1) f||^2  +  (q!^2/(q-k-l+2)!) ||g||^2.

    Each term is the matching term of lambda_norm_expansion after the
    derivative slots J, K are also symmetrized into the chaos variables.
    That symmetrization is a norm-reducing projection, so the value is a
    termwise lower bound of lambda_norm_direct.  It is equal at (2, 1),
    (1, 2) and at q = 2, and falls short otherwise: by 19.8 percent at
    q = 4, (k, l) = (3, 3) on the seed-203 acceptance kernels, and by up to
    about 25 percent on other random order-4 kernels.
    """
    _check_kl(k, l, f.order)
    return _weighted_expansion(f, (k, l))


def dtheta_identity_check(f: SymTensor, tol: float = 1e-12) -> bool:
    """Verify D Theta = q Lambda(2, 1) at the kernel level.

    Exact for every even-order kernel; returns False only if the chaos
    calculus and the contraction normalization disagree.
    """
    q = f.order
    budget = max(DEFAULT_MAX_ORDER, 2 * q)
    F = ChaosVector.from_kernel(f, max_order=budget)
    alpha = second_moment(F)
    dtheta = malliavin_derivative(theta(F, alpha))
    lam = lambda_field(f, 2, 1)
    for j in range(f.dim):
        a = dtheta[j]
        b = lam.component((j,), ()).scale(float(q))
        diff = a - b
        scale = max(1.0, a.max_abs_coeff(), b.max_abs_coeff())
        if abs(diff.constant) > tol * scale or diff.max_abs_coeff() > tol * scale:
            return False
    return True


# -- moment machinery ---------------------------------------------------------------


def shifted_positive_moment(
    F: ChaosVector, alpha: float, exponent: float
) -> tuple[float, str] | None:
    """(value, route) of E[(F + alpha)^exponent] for exponent >= 0 by the
    cheapest exact route, or None when there is none.

    Routes: "trivial" (exponent 0), "spectral" (second chaos, integer
    exponent, exact cumulants), "chaos-product" (integer exponent e whose
    half power (F + alpha)^ceil(e/2) has chaos order at most 12).  Any other
    moment is a Monte Carlo column, ``mc.power_column(("F", alpha, exponent))``
    of an ``mc.run_pass``.
    """
    if exponent < 0:
        raise ValueError("exponent must be nonnegative; negative moments are Monte Carlo columns")
    if exponent == 0:
        return 1.0, "trivial"
    e_int = int(round(exponent))
    if abs(exponent - e_int) < 1e-12:
        zeta = second_chaos_eigenvalues(F)
        if zeta is not None:
            return shifted_moment(zeta, alpha, e_int), "spectral"
        if moment_order(F, e_int) <= 12:
            budget = max(F.max_order, moment_order(F, e_int))
            return moment((F + float(alpha)).with_budget(budget), e_int), "chaos-product"
    return None


# -- assembled bounds ---------------------------------------------------------------


def even_chaos_moments(F: ChaosVector, alpha: float) -> dict:
    """Exact low moments of a pure even-order chaos element with E[F^2] = alpha.

    Returns alpha, q, E[F] ("EF"), E[F^2] ("EF2"), E[F^3] ("EF3"),
    E[F^4] ("EF4"), fourth_moment_combo and theta_var = E[Theta^2].  E[F^3]
    and E[F^4] come from the spectral cumulants in the second chaos and
    otherwise from one product F^2 through the isometry, as in
    ``chaos.moment``: E[F^3] = E[F] E[F^2] + Cov(F, F^2) and
    E[F^4] = E[F^2]^2 + Cov(F^2, F^2).
    """
    q = _pure_even_order(F)
    _check_alpha(F, alpha)
    Fb = F.with_budget(max(F.max_order, moment_order(F, 4)))
    zeta = second_chaos_eigenvalues(F)
    if zeta is not None:
        m3 = shifted_moment(zeta, 0.0, 3)
        m4 = shifted_moment(zeta, 0.0, 4)
    else:
        F2 = multiply(Fb, Fb)
        m3 = Fb.constant * F2.constant + covariance(Fb, F2)
        m4 = F2.constant * F2.constant + covariance(F2, F2)
    return {
        "alpha": alpha,
        "q": q,
        "EF": expectation(F),
        "EF2": second_moment(F),
        "EF3": m3,
        "EF4": m4,
        "fourth_moment_combo": m4 - 6.0 * m3 + 6.0 * (1.0 - alpha) * alpha + 3.0 * alpha * alpha,
        "theta_var": second_moment(theta(Fb, alpha)),
    }


def fourth_moment_combo(F: ChaosVector, alpha: float) -> float:
    """E[F^4] - 6 E[F^3] + 6(1 - alpha) alpha + 3 alpha^2.

    Nonnegative for pure even chaos with E[F^2] = alpha, zero exactly in the
    Gamma-matching case; (q^2/3) times this dominates E[Theta^2].
    """
    return even_chaos_moments(F, alpha)["fourth_moment_combo"]


@dataclass(frozen=True)
class BoundReport:
    """Everything behind one assembled density bound, ready to serialize.

    ``bound`` maps evaluation points to the certified upper bound for
    |p_{F+alpha}(x) - p_Gamma(alpha)(x)|; ``density_mc`` and
    ``density_target`` carry the Monte Carlo density estimate and the exact
    Gamma density at the same points so the domination can be checked
    directly.  ``negative_moments`` holds every Monte Carlo moment estimate
    that enters the prefactor; ``positive_moments`` records the value and
    the route (spectral / chaos-product / mc) of each positive moment.
    ``moments`` keeps the ``even_chaos_moments`` of the chaos-moment route
    for its caller; it is not serialized.
    """

    kind: str
    alpha: float
    q: int
    fourth_moment_combo: float | None = None
    theta_var: float | None = None
    c1: float | None = None
    s: int | None = None
    p: float | None = None
    r: float | None = None
    defect_moment: float | None = None
    negative_moments: Mapping[str, McEstimate] = field(default_factory=dict)
    positive_moments: Mapping[str, Mapping] = field(default_factory=dict)
    stein_envelope: Mapping[float, SteinEnvelope] = field(default_factory=dict)
    prefactor: Mapping[float, float] = field(default_factory=dict)
    bound: Mapping[float, float] = field(default_factory=dict)
    density_mc: Mapping[float, McEstimate] = field(default_factory=dict)
    density_target: Mapping[float, float] = field(default_factory=dict)
    flags: tuple[str, ...] = ()
    meta: Mapping[str, object] = field(default_factory=dict)
    moments: Mapping | None = field(default=None, compare=False, repr=False)

    def xs(self) -> list[float]:
        return sorted(self.bound)

    def domination_ok(self, sigmas: float = 4.0) -> dict[float, bool]:
        """Per point: |density_mc - target| <= bound + sigmas * stderr."""
        out: dict[float, bool] = {}
        for x in self.xs():
            est = self.density_mc[x]
            gap = abs(est.value - self.density_target[x])
            out[x] = gap <= self.bound[x] + sigmas * est.stderr
        return out

    def csv_rows(self) -> list[tuple[float, float, float, float, float]]:
        rows = []
        for x in self.xs():
            est = self.density_mc[x]
            tgt = self.density_target[x]
            rows.append((x, est.value, tgt, abs(est.value - tgt), self.bound[x]))
        return rows

    def csv_text(self) -> str:
        lines = ["x,density_mc,density_target,abs_diff,bound"]
        for row in self.csv_rows():
            lines.append(",".join(f"{v:.12g}" for v in row))
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        def envdoc(e: SteinEnvelope) -> dict:
            return {
                "branch": e.branch,
                "terms": [[p, c] for p, c in e.terms],
                "summary": dict(e.summary),
            }

        return {
            "kind": self.kind,
            "alpha": self.alpha,
            "q": self.q,
            "fourth_moment_combo": self.fourth_moment_combo,
            "theta_var": self.theta_var,
            "c1": self.c1,
            "s": self.s,
            "p": self.p,
            "r": self.r,
            "defect_moment": self.defect_moment,
            "negative_moments": {
                k: v.to_json_dict() for k, v in self.negative_moments.items()
            },
            "positive_moments": {k: dict(v) for k, v in self.positive_moments.items()},
            "stein_envelope": {f"{x:.12g}": envdoc(e) for x, e in self.stein_envelope.items()},
            "prefactor": {f"{x:.12g}": v for x, v in self.prefactor.items()},
            "bound": {f"{x:.12g}": v for x, v in self.bound.items()},
            "density_mc": {f"{x:.12g}": v.to_json_dict() for x, v in self.density_mc.items()},
            "density_target": {f"{x:.12g}": v for x, v in self.density_target.items()},
            "flags": list(self.flags),
            "meta": dict(self.meta),
        }


def _checked_inputs(F: ChaosVector, alpha: float, xs) -> tuple[list[float], list[str]]:
    """(xs as distinct floats the order-0 Stein equation accepts, flags)
    after checking alpha = E[F^2]; off second chaos the flags say that
    negative-moment existence is unverified."""
    _check_alpha(F, alpha)
    pts = [float(x) for x in xs]
    if not pts:
        raise ValueError("need at least one evaluation point")
    for x in pts:
        _check_branch(alpha, 0, x)
    if len(set(pts)) != len(pts):
        raise ValueError("evaluation points must be distinct")
    if second_chaos_eigenvalues(F) is None:
        return pts, ["negative_moment_existence_unverified"]
    return pts, []


# A prefactor term (coeff, root, {label: factors}) stands for
# coeff * prod_label E[label]^(1/root), E[label] being the mean of the
# ``mc.power_column`` of its factors.
Term = tuple[float, int, Mapping[str, tuple]]


def _term_value(term: Term, means: Mapping[str, float]) -> float:
    coeff, root, labels = term
    value = coeff
    for k in labels:
        value = value * (math.sqrt(means[k]) if root == 2 else means[k] ** (1.0 / root))
    return value


def _require_finite_bound(
    x: float, terms: list[Term], means: Mapping[str, float], bound: float
) -> None:
    """FloatingPointError unless every term of the bound at x, and the
    bound, is finite; the message names the first term that is not and the
    moments it reads."""
    for t in terms:
        value = _term_value(t, means)
        if not math.isfinite(value):
            reads = ", ".join(f"{k} = {means[k]!r}" for k in t[2]) or "no moment"
            raise FloatingPointError(
                f"the bound at x = {x:g} is not finite: its term with coefficient "
                f"{t[0]:g} is {value!r} (it reads {reads})"
            )
    if not math.isfinite(bound):
        raise FloatingPointError(f"the bound at x = {x:g} overflows to {bound!r} from finite terms")


def _assemble_bound(
    kind: str,
    F: ChaosVector,
    alpha: float,
    pts: list[float],
    n: int,
    seed: int,
    workers: int,
    factor: float,
    fields: dict,
    vectors: Mapping[str, ChaosVector],
    weights: list[Term],
    flags: list[str],
) -> BoundReport:
    """The assembly both density bounds share.  ``vectors`` are what the
    route's columns read beyond ``mc.estimator_vectors(F, 0)``.  The bound
    at x is (envelope terms + gradient-weight terms) * defect factor, the
    envelope coeff * |y|^power giving the L^2 term
    (coeff, 2, {E[(F+a)^(2 power)]}), or coeff alone at power 0.

    A defect factor of exactly 0 at alpha = E[F^2] exactly means F + alpha
    is Gamma(alpha) (the fourth-moment characterisation of Nourdin & Peccati
    2009): the bound is 0 with no prefactor, and the pass holds only the
    density columns.  At any other alpha, even one inside the tolerance of
    the alpha check, F + alpha is not Gamma(alpha), so a zero factor is a
    ValueError naming the mismatch.
    Otherwise every label a term reads is one request, in order of first
    use.  A single factor E[(F+alpha)^e], e >= 0, takes its exact route from
    ``shifted_positive_moment`` when there is one; every other request is a
    column.  Every Monte Carlo number of the report (these columns and the
    density at each x) comes from one ``mc._checked_pass`` at seed + 3,
    which checks each column first: it refuses an infinite mean, and an
    infinite or unverified variance flags the column and the report.
    """
    envs = {x: envelope(alpha, 0, x) for x in pts}
    label = "E[(F+a)^{:g}]".format
    terms = {
        x: [
            (c, 2, {label(2.0 * p): (("F", alpha, 2.0 * p),)} if p != 0.0 else {})
            for p, c in envs[x].terms if c != 0.0
        ]
        for x in pts
    }
    if factor == 0.0:
        m2 = second_moment(F)
        if alpha != m2:
            raise ValueError(
                f"the defect factor is 0, which makes F + alpha Gamma(alpha) only at alpha = "
                f"E[F^2] = {m2!r}, but alpha = {alpha!r}; a bound 0 would not hold"
            )
        flags.append("zero_defect_shortcut")
        vectors, weights, terms = {}, [], {}
    requests: dict[str, tuple] = {}
    for _, _, labels in weights + [t for x in terms for t in terms[x]]:
        requests.update(labels)
    # the exact route, or None, of each positive moment E[(F+alpha)^e]
    exact = {
        k: shifted_positive_moment(F, alpha, fac[0][2]) for k, fac in requests.items()
        if len(fac) == 1 and fac[0][:2] == ("F", alpha) and fac[0][2] >= 0
    }
    columns = {k: fac for k, fac in requests.items() if exact.get(k) is None}
    ests, var_flags = _checked_pass(F, alpha, 0, pts, columns, vectors, n, seed + 3, workers)
    flags.extend(var_flags.values())

    pos: dict[str, dict] = {}
    neg: dict[str, McEstimate] = {}
    means: dict[str, float] = {}
    for k in requests:
        if exact.get(k) is not None:
            pos[k] = {"value": exact[k][0], "route": exact[k][1]}
        elif k in exact:
            est = ests[k]
            pos[k] = {"value": est.value, "route": "mc", "stderr": est.stderr}
            mc_flags = list(est.flags) + ["signed_base_rejections"] * (est.n_rejected > 0)
            if mc_flags:
                pos[k]["flags"] = mc_flags
        else:
            neg[k] = ests[k]
        means[k] = pos[k]["value"] if k in pos else max(neg[k].value, 0.0)

    weight_sum = sum(_term_value(t, means) for t in weights)
    prefactor = {x: sum(_term_value(t, means) for t in terms[x]) + weight_sum for x in terms}
    bound = {x: prefactor.get(x, 0.0) * factor for x in pts}
    for x in terms:
        _require_finite_bound(x, weights + terms[x], means, bound[x])

    density = {x: ests[f"density[{j}]"] for j, x in enumerate(pts)}
    for x in pts:
        flags.extend(f"density@{x:g}:{fl}" for fl in density[x].flags)
    fields["meta"] = {
        "n": n, "seed": seed, "gaussian_passes": 1, "normal_draws": n * F.dim, **fields["meta"]
    }
    return BoundReport(
        kind=kind,
        alpha=float(alpha),
        q=F.top_order,
        negative_moments=neg,
        positive_moments=pos,
        stein_envelope=envs,
        prefactor=prefactor,
        bound=bound,
        density_mc=density,
        density_target={x: (gamma_pdf(alpha, x) if x >= 0 else 0.0) for x in pts},
        flags=tuple(dict.fromkeys(flags)),
        **fields,
    )


def assemble_density_bound(
    F: ChaosVector,
    alpha: float,
    xs,
    n: int,
    seed: int,
    workers: int = 1,
) -> BoundReport:
    """Pointwise density bound for a pure even-order chaos element.

    For F = I_q(f) with q even and E[F^2] = alpha, the density of F + alpha
    differs from the Gamma(alpha) density at each x by at most

        P0(x) * sqrt(q^2/3 * fourth_moment_combo(F, alpha)),

    where P0 collects L^2 moments of the Stein-solution envelope at x plus
    the gradient weight terms E[||DF||^-4]^(1/2),
    |alpha - 1| E[||DF||^-4 (F+alpha)^-2]^(1/2), and
    C1(q) E[||DF||^-6]^(1/2).  Negative moments are estimated by Monte
    Carlo; positive moments go through exact routes whenever one exists.

    A fourth-moment combo <= 0 gives the bound 0 with no gradient-weight
    column at alpha = E[F^2] exactly, and a ValueError at any other alpha.
    Otherwise second-chaos inputs are refused when the spectrum
    cannot support a Monte Carlo column E[||DF||^-2a (F+alpha)^-b]: a
    negative eigenvalue or shift gap alpha - sum zeta_i, or m positive
    eigenvalues too few for ``spectral.negative_moment_exists`` (the
    gradient-weight columns alone need m >= 7 at a positive gap and m >= 9
    at gap 0).  For higher orders the existence is flagged as unverified
    instead.  On either path a density point x <= alpha - sum zeta_i needs
    E[||DF||^-2] < inf (m >= 3).
    """
    q = _pure_even_order(F)
    pts, flags = _checked_inputs(F, alpha, xs)
    moments = even_chaos_moments(F, alpha)
    combo = moments["fourth_moment_combo"]
    if combo < -1e-9 * max(1.0, alpha * alpha):
        flags.append("negative_combo_clamped")
    radical = math.sqrt(q * q / 3.0 * max(combo, 0.0))
    c1 = c1_constant(q)
    fields = {
        "fourth_moment_combo": combo,
        "theta_var": moments["theta_var"],
        "c1": c1,
        "moments": moments,
        "meta": {"radical": radical},
    }
    weights = [
        (1.0, 2, {"E[w^-2]": (("w", 0.0, -2.0),)}),
        (abs(alpha - 1.0), 2, {"E[w^-2 (F+a)^-2]": (("w", 0.0, -2.0), ("F", alpha, -2.0))}),
        (c1, 2, {"E[w^-3]": (("w", 0.0, -3.0),)}),
    ]
    return _assemble_bound(
        "chaos-moment", F, alpha, pts, n, seed, workers, radical, fields, {}, weights, flags
    )


def assemble_general_bound(
    F: ChaosVector,
    alpha: float,
    xs,
    n: int,
    seed: int,
    s: int = 8,
    workers: int = 1,
) -> BoundReport:
    """Pointwise density bound for a general centered functional with
    E[F^2] = alpha, driven by the projected gradient weight wbar.

    The bound at each x is

        [ envelope moments  +  sqrt(s/2 - 1) E[wbar^-2]^(1/2)
          + sqrt(s/2 - 1) |1 - alpha| E[wbar^-2 (F+alpha)^-2]^(1/2)
          + E[wbar^-6]^(1/3) E[||D L^-1 F||^3]^(1/3) ]
        * E[||D wbar - DF||^(s/2)]^(2/s),

    with s in {4, 8, 12} so the defect moment is an exact chaos computation
    (exponents s/4 = 1, 2, 3).  The exponents (p, r) of the Hoelder split
    1/p + 2/r + 3/s = 1 are reported at the equal split p = r = 3s/(s-3).
    The s = 4 case is assembled with the same unit constant but flagged:
    that endpoint's constant is not certified.

    A zero defect moment gives the bound 0 with no gradient-weight column
    at alpha = E[F^2] exactly, and a ValueError at any other alpha.
    Otherwise pure second-chaos inputs are refused when the spectrum cannot
    support a Monte Carlo column E[wbar^-a (F+alpha)^-b]: a negative
    eigenvalue or shift gap, or m positive eigenvalues too few for
    ``spectral.negative_moment_exists`` (E[wbar^-6] alone needs m >= 13).
    Otherwise existence is flagged as unverified.  A density point at or
    below the shift gap is checked as in ``assemble_density_bound``.
    """
    if s not in (4, 8, 12):
        raise ValueError(f"s must be one of 4, 8, 12; got {s}")
    pts, flags = _checked_inputs(F, alpha, xs)
    W = wbar(F)
    ew = expectation(W)
    if abs(ew - alpha) > _ALPHA_TOL * max(1.0, alpha):
        raise ValueError(f"E[wbar] = {ew!r} does not match alpha = {alpha!r}")

    diff = malliavin_derivative(W) - malliavin_derivative(F)
    gsq = diff.inner(diff)
    e_def = s // 4
    gsq_b = gsq.with_budget(max(gsq.max_order, moment_order(gsq, e_def)))
    defect_moment = max(moment(gsq_b, e_def), 0.0)

    DLinv = malliavin_derivative(generator_inverse(F))
    sqrt_m1 = math.sqrt(s / 2.0 - 1.0)
    weights = [
        (sqrt_m1, 2, {"E[wbar^-2]": (("W", 0.0, -2.0),)}),
        (
            sqrt_m1 * abs(1.0 - alpha),
            2,
            {"E[wbar^-2 (F+a)^-2]": (("W", 0.0, -2.0), ("F", alpha, -2.0))},
        ),
        (1.0, 3, {"E[wbar^-6]": (("W", 0.0, -6.0),), "E[||D Linv F||^3]": (("U", 0.0, 1.5),)}),
    ]
    hs = 3.0 * s / (s - 3.0)
    fields = {"s": s, "p": hs, "r": hs, "defect_moment": defect_moment, "meta": {"m": s // 2}}
    flags = ["s4_constant_uncertified"] * (s == 4) + flags
    return _assemble_bound(
        "malliavin-general", F, alpha, pts, n, seed, workers, defect_moment ** (2.0 / s),
        fields, {"W": W, "U": DLinv.inner(DLinv)}, weights, flags,
    )
