"""Gamma approximation toolkit for functionals of Gaussian fields.

Exact finite-dimensional Wiener-chaos calculus, closed-form Gamma density
machinery, Stein-equation numerics, density-distance bounds and Monte Carlo
verification utilities.
"""

from .bounds import (
    BoundReport,
    LambdaField,
    assemble_density_bound,
    assemble_general_bound,
    c1_constant,
    defect_domination_constant,
    dtheta_identity_check,
    even_chaos_moments,
    fourth_moment_combo,
    lambda_const,
    lambda_field,
    lambda_norm_direct,
    lambda_norm_expansion,
    lambda_norm_symmetrized,
    lambda_norm_symmetrized_expansion,
    second_derivative_defect_direct,
    second_derivative_defect_expansion,
    shifted_positive_moment,
    tau_const,
    theta,
    theta_variance_direct,
    theta_variance_expansion,
)
from .chaos import (
    ChaosField,
    ChaosVector,
    OrderBudgetError,
    carre_du_champ,
    divergence,
    eval_jet,
    evaluate,
    expectation,
    generator,
    generator_inverse,
    gradient_norm_sq,
    malliavin_derivative,
    moment,
    multiply,
    second_moment,
    wbar,
)
from .gamma import (
    DiffusionSpec,
    gamma_pdf,
    gamma_pdf_deriv,
    gamma_poly_expectation,
    laguerre_carre_du_champ,
    laguerre_diffusion,
    laguerre_generator_apply,
    nu_weight,
    ornstein_uhlenbeck,
    representation_check,
    rising_factorial,
)
from .mc import (
    McEstimate,
    density_kde,
    density_malliavin,
    estimator_vectors,
    run_chunked,
    run_chunked_multi,
    run_pass,
    substream,
)
from .polynomials import PolySpec, hermite_table, hermite_value, laguerre_value
from .spectral import SecondChaosSpec, density_cf_oracle, second_chaos_eigenvalues
from .stein import (
    SteinDiscrepancy,
    SteinEnvelope,
    SteinSolution,
    envelope,
    solve,
    stein_discrepancy,
    stein_rhs,
)
from .tensors import SymTensor, contract, contract_sym, symmetrize

__version__ = "0.1.0"
