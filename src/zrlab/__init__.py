"""zrlab: a spectral laboratory for a coupled Schrodinger-transport system.

Strang-split Fourier integration of

    i dB/dt + dispersion B_xx = (p+ psi1 + p- psi2 + cubic |B|^2) B
    d(psi1)/dt + c+ d(psi1)/dx = s+ d/dx |B|^2
    d(psi2)/dt + c- d(psi2)/dx = s- d/dx |B|^2

with exact linear sub-flows, invariant monitoring, quadrature oracles for
the weak-norm response kernels, and reproducible experiment pipelines
(conservation audit, norm-inflation sweep, bilinear-kernel probe,
small-dispersion decoherence pair, long-horizon growth audit).
"""

__version__ = "0.1.0"

from .closed_forms import (HatDatum, as_grid_norm, build_c2_psi10, build_fN,
                           first_order_psi1, first_order_psi1_time_quadrature,
                           hat_sobolev_norm, l_hat, l_hat_norm,
                           l_hat_time_quadrature, modulated_sinc, normalize_hats,
                           resonance_phi, scaling_embed, small_dispersion_solution,
                           smooth_plateau, synthesize_hat_field, trig_interpolate)
from .evolution import BlowUpError, StepperConfig, evolve, strang_step
from .grid import ComplexField, SpectralGrid, next_pow2
from .model import (FieldState, GeneralCoefficients, PhysicalParams, Schedule,
                    coefficients_from_params, conserved_quantities,
                    from_physical_vars, iteration_schedule,
                    modified_system_coefficients, normalized_coefficients,
                    plane_wave_state, to_physical_vars, unit_physical_params)

__all__ = [
    "__version__",
    # grid
    "SpectralGrid", "ComplexField", "next_pow2",
    # model
    "PhysicalParams", "GeneralCoefficients", "FieldState", "Schedule",
    "coefficients_from_params", "normalized_coefficients", "unit_physical_params",
    "modified_system_coefficients", "to_physical_vars", "from_physical_vars",
    "conserved_quantities", "plane_wave_state", "iteration_schedule",
    # evolution
    "StepperConfig", "BlowUpError", "evolve", "strang_step",
    # closed forms
    "HatDatum", "build_fN", "build_c2_psi10", "hat_sobolev_norm", "normalize_hats",
    "synthesize_hat_field", "as_grid_norm", "resonance_phi", "l_hat", "l_hat_norm",
    "l_hat_time_quadrature", "first_order_psi1", "first_order_psi1_time_quadrature",
    "small_dispersion_solution", "scaling_embed", "trig_interpolate",
    "smooth_plateau", "modulated_sinc",
]
