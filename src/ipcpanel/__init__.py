"""Iterative principal components estimation for interactive effects
panel regressions whose latent factors have unknown, heterogeneous
orders of magnitude.
"""

from .errors import IpcError
from .final_estimator import fit_final, fit_ipc, loading_weights, z_matrices
from .factor_selection import (
    RatioDecision,
    eigen_ratio_select,
    extract_group,
    iterate_groups,
    mock_eigenvalue,
    threshold_tau,
)
from .inference import (
    InferenceResult,
    JackknifeResult,
    WaldSpec,
    jackknife_bias_correct,
    strength_gap_diagnostic,
    unit_variances,
    wald_test,
    wald_variants,
)
from .init_estimator import InitResult, beta_given_f, f_given_beta, fit_initial
from .io_cli import LongCsvSchema, load_long_csv, write_fit, write_mc_result
from .model import (
    FactorGroup,
    IpcConfig,
    IpcFit,
    PanelDataset,
    TruthSpec,
    validate,
)
from .numerics import annihilator_apply, chi2_sf
from .simulation import (
    Dgp1Spec,
    McResult,
    generate_dgp1,
    projector_distance,
    run_monte_carlo,
)

__version__ = "0.1.0"

__all__ = [
    "Dgp1Spec",
    "FactorGroup",
    "InferenceResult",
    "InitResult",
    "IpcConfig",
    "IpcError",
    "IpcFit",
    "JackknifeResult",
    "LongCsvSchema",
    "McResult",
    "PanelDataset",
    "RatioDecision",
    "TruthSpec",
    "WaldSpec",
    "annihilator_apply",
    "beta_given_f",
    "chi2_sf",
    "eigen_ratio_select",
    "extract_group",
    "f_given_beta",
    "fit_final",
    "fit_initial",
    "fit_ipc",
    "generate_dgp1",
    "iterate_groups",
    "jackknife_bias_correct",
    "load_long_csv",
    "loading_weights",
    "mock_eigenvalue",
    "projector_distance",
    "run_monte_carlo",
    "strength_gap_diagnostic",
    "threshold_tau",
    "unit_variances",
    "validate",
    "wald_test",
    "wald_variants",
    "write_fit",
    "write_mc_result",
    "z_matrices",
]
