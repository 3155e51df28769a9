"""Pseudospectral laboratory for higher-order generalized KdV equations."""

from .spectral import (Grid, RealField, SpectralField, MultiplierSpec,
                       make_grid, forward, inverse, apply_multiplier,
                       apply_multiplier_spectral, derivative, frac_deriv,
                       stein_deriv, dealias, dealias_cutoff, synthesize_at,
                       require_decay, save_field, load_field, save_spectral,
                       load_spectral)
from .propagators import (DispersionParams, ConjugationSpec, Trajectory,
                          linear_flow, conjugated_flow, evolve, duhamel_split,
                          duhamel_quadrature)
from .identities import (CoefficientVector, solve_coefficients,
                         verify_reduction_identity, x_weight_commutator,
                         frac_weight_decomposition, InequalityProbeSpec,
                         inequality_ratio_probe, dispersive_decay_probe)
from .norms import (sobolev_norm, weighted_norm, z_norm, MixedNormSpec,
                    mixed_norm, CutoffSpec, make_cutoff, WindowSpec,
                    window_energy)
from .blowup import (SingularProfileSpec, singular_profile, BlowupDatumSpec,
                     build_blowup_datum, TimeProbe, irrationality_gap,
                     tail_exponent, singularity_indicator, blowup_contrast,
                     excluded_time_ratio, smoothing_gain)
from . import errors, fields

__version__ = "0.1.0"
