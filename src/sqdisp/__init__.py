"""Optimal maximum-likelihood joint estimation of real squeezing and displacement."""

from .errors import (ConfigError, CutoffTooSmall, DivergenceDetected,
                     DomainViolation, EmptySupport, EstimationError,
                     GridMismatch, GridTooNarrow, InsufficientMass,
                     SupportViolation)
from .grids import (GaussianStateParams, QuadratureGrid, StateVector,
                    default_grid, half_line_moment, inner_product, make_coherent,
                    make_displaced_squeezed, make_sampled, make_vacuum)
from .group import IDENTITY, GroupElement, act, compose, inverse, parity_act
from .povm import (PovmSeed, build_ml_seed, build_parity_seed, build_srm_seed,
                   optimal_likelihood, seed_overlap_likelihood, srm_likelihood)
from .distribution import (DensityMap, SummaryStats, argmax,
                           closed_form_sandwich, density_at,
                           group_average_sandwich, moments,
                           normalization_check, scan, window_statistics)
from .asymptotics import (AsymptoticModel, IsotropicSolution, heisenberg_ratio,
                          isotropic_params, model_density, rms_predictions,
                          separate_optima, uncertainty_product_ratio)
from .two_mode import (ConcentrationProfile, TwoModePointer,
                       concentration_profile, hermite_functions, make_pointer,
                       pointer_overlap, raw_pointer_coefficients)

__version__ = "0.1.0"
