"""Adaptive exact selection of sparse functional-ANOVA components observed in
Gaussian white noise, reduced to the sequence space of Fourier coefficients.

The package calibrates weighted chi-square statistics on a sparsity grid,
simulates the sequence model at benchmark desk scales, estimates Hamming risk
by Monte Carlo, and classifies configurations against the sharp selection and
detection boundaries.  See README.md for the command-line entry points.
"""

__version__ = "0.1.0"

from .errors import CalibrationError, CapacityError
from .lattice import DimensionSpec, Subset, active_count, log_binomial
from .extremal import (
    ExtremalProfile,
    GridSpec,
    WeightProfile,
    a_asymp,
    a_exact,
    beta_grid,
    calibration_target,
    extremal_sequence,
    solve_r_star,
    weights,
)
from .signals import (
    CoefficientTable,
    ComponentSpec,
    SparsityPattern,
    build_pattern,
    eval_g,
    fourier_coeff_1d,
    orthogonality_check,
    product_coeff,
)
from .selector import (
    SelectorConfig,
    build_selector_config,
    epsilon_hat,
    tail_bound_audit,
    threshold,
    truncation_radius,
)
from .risk import (
    RegimeVerdict,
    RiskReport,
    SelectionResult,
    attenuation_experiment,
    boundary_sweep,
    classify_regime,
    estimate_risk,
    hamming_loss,
    select,
)

__all__ = [
    "CalibrationError",
    "CapacityError",
    "DimensionSpec",
    "Subset",
    "active_count",
    "log_binomial",
    "ExtremalProfile",
    "GridSpec",
    "WeightProfile",
    "a_asymp",
    "a_exact",
    "beta_grid",
    "calibration_target",
    "extremal_sequence",
    "solve_r_star",
    "weights",
    "CoefficientTable",
    "ComponentSpec",
    "SparsityPattern",
    "build_pattern",
    "eval_g",
    "fourier_coeff_1d",
    "orthogonality_check",
    "product_coeff",
    "SelectorConfig",
    "build_selector_config",
    "epsilon_hat",
    "tail_bound_audit",
    "threshold",
    "truncation_radius",
    "RegimeVerdict",
    "RiskReport",
    "SelectionResult",
    "attenuation_experiment",
    "boundary_sweep",
    "classify_regime",
    "estimate_risk",
    "hamming_loss",
    "select",
]
