"""Pseudospectral laboratory for higher-order generalized KdV equations."""

from .spectral import (Grid, RealField, make_grid, derivative, frac_deriv,
                       stein_deriv, dealias_cutoff, synthesize_at, require_decay)
from .propagators import (DispersionParams, Trajectory, linear_flow, conjugated_flow,
                          evolve, duhamel_split, duhamel_quadrature)
from .identities import (CoefficientVector, solve_coefficients,
                         verify_reduction_identity, x_weight_commutator,
                         dispersive_decay_probe)
from .norms import (weighted_norm, mixed_norm, CutoffFunction, WindowSpec,
                    window_energy)
from .blowup import (singular_profile, BlowupDatumSpec, build_blowup_datum,
                     irrationality_gap, tail_exponent, jump_quotients, smoothing_gain)
from . import errors, fields

__version__ = "0.1.0"
