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
                           first_order_psi1, hat_sobolev_norm, l_hat, l_hat_norm,
                           modulated_sinc, normalize_hats, resonance_phi,
                           small_dispersion_solution, smooth_plateau, synthesize_hat_field)
from .evolution import BlowUpError, StepperConfig, evolve, strang_step
from .grid import SpectralGrid, next_fast_len
from .model import (FieldState, GeneralCoefficients, PhysicalParams,
                    coefficients_from_params, conserved_quantities,
                    modified_system_coefficients, normalized_coefficients,
                    plane_wave_state, unit_physical_params)

__all__ = [
    "__version__",
    # grid
    "SpectralGrid", "next_fast_len",
    # model
    "PhysicalParams", "GeneralCoefficients", "FieldState",
    "coefficients_from_params", "normalized_coefficients", "unit_physical_params",
    "modified_system_coefficients",
    "conserved_quantities", "plane_wave_state",
    # evolution
    "StepperConfig", "BlowUpError", "evolve", "strang_step",
    # closed forms
    "HatDatum", "build_fN", "build_c2_psi10", "hat_sobolev_norm", "normalize_hats",
    "synthesize_hat_field", "as_grid_norm", "resonance_phi", "l_hat", "l_hat_norm",
    "first_order_psi1",
    "small_dispersion_solution", "smooth_plateau", "modulated_sinc",
]
