"""Model layer: parameters, coefficient mapping, states, invariants.

The physical system couples a complex envelope B with two real fields
(rho, u):

    i dB/dt + omega B_xx = gamma (u - (nu/2) rho + q |B|^2) B
    theta d(rho)/dt + d/dx (u - nu rho) = -gamma d/dx |B|^2
    theta d(u)/dt  + d/dx (beta rho - nu u) = (gamma nu / 2) d/dx |B|^2

(the u-row source carries the factor nu: this is the unique choice under
which the quartic energy below is a constant of motion, checked numerically
to second order in dt for generic parameters).

with q = gamma + nu (gamma nu - 1) / (2 (beta - nu^2)).  The change of
variables

    rho = psi1 + psi2,      u = sqrt(beta) (psi1 - psi2)

decouples the left-hand transport part into two one-way wave operators, and
the solver integrates the resulting first-order system

    i dB/dt + dispersion B_xx
        = (potential_plus psi1 + potential_minus psi2 + cubic |B|^2) B
    d(psi1)/dt + speed_plus  d(psi1)/dx = source_plus  d/dx |B|^2
    d(psi2)/dt + speed_minus d(psi2)/dx = source_minus d/dx |B|^2

for an arbitrary coefficient record, of which the physical system, the unit
normalization, and the small-dispersion modified system are instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .grid import SpectralGrid

__all__ = [
    "PhysicalParams",
    "GeneralCoefficients",
    "coefficients_from_params",
    "normalized_coefficients",
    "unit_physical_params",
    "modified_system_coefficients",
    "FieldState",
    "hs_columns",
    "conserved_quantities",
    "check_plane_wave",
    "plane_wave_state",
]


@dataclass(frozen=True)
class PhysicalParams:
    """Constants (theta, gamma, omega, beta, nu) of the physical system.

    Constraints: theta != 0, beta > 0, beta - nu^2 != 0.  The cubic strength
    q is derived, never stored.
    """

    theta: float = 1.0
    gamma: float = 1.0
    omega: float = 1.0
    beta: float = 1.0
    nu: float = 0.0

    def __post_init__(self) -> None:
        vals = (self.theta, self.gamma, self.omega, self.beta, self.nu * self.nu)  # nu**2 raises
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("physical parameters and nu^2 must be finite")
        if self.theta == 0.0:
            raise ValueError("theta must be nonzero")
        if self.beta <= 0.0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if self.beta - self.nu**2 == 0.0:
            raise ValueError("beta - nu^2 must be nonzero")

    @property
    def q(self) -> float:
        return self.gamma + self.nu * (self.gamma * self.nu - 1.0) / (2.0 * (self.beta - self.nu**2))

    @property
    def global_existence(self) -> bool:
        """The global-existence signs omega > 0 and beta - nu^2 > 0, under
        which the energy Q4 backs a conservation verdict."""
        return self.omega > 0 and self.beta - self.nu**2 > 0


@dataclass(frozen=True)
class GeneralCoefficients:
    """Coefficient record for the first-order (B, psi1, psi2) system."""

    dispersion: float
    potential_plus: float
    potential_minus: float
    cubic: float
    speed_plus: float
    speed_minus: float
    source_plus: float
    source_minus: float

    def __post_init__(self) -> None:
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"coefficient {f.name} must be finite")


def coefficients_from_params(p: PhysicalParams) -> GeneralCoefficients:
    """Map physical constants to the general coefficient record.

    Derived by substituting rho = psi1 + psi2, u = sqrt(beta)(psi1 - psi2)
    into the physical system and dividing the transport rows by theta.
    """
    rb = math.sqrt(p.beta)
    return GeneralCoefficients(
        dispersion=p.omega,
        potential_plus=p.gamma * (rb - 0.5 * p.nu),
        potential_minus=-p.gamma * (rb + 0.5 * p.nu),
        cubic=p.gamma * p.q,
        speed_plus=(rb - p.nu) / p.theta,
        speed_minus=-(rb + p.nu) / p.theta,
        source_plus=(0.5 * p.gamma / p.theta) * (-1.0 + 0.5 * p.nu / rb),
        source_minus=(0.5 * p.gamma / p.theta) * (-1.0 - 0.5 * p.nu / rb),
    )


def normalized_coefficients() -> GeneralCoefficients:
    """Unit-coefficient preset:

        i dB/dt + B_xx = (psi1 + psi2 + |B|^2) B
        d(psi1)/dt + d(psi1)/dx = d/dx |B|^2
        d(psi2)/dt - d(psi2)/dx = d/dx |B|^2

    Not realizable from PhysicalParams (the two potential couplings carry the
    same sign); used directly by the frequency-sweep experiments.
    """
    return GeneralCoefficients(
        dispersion=1.0, potential_plus=1.0, potential_minus=1.0, cubic=1.0,
        speed_plus=1.0, speed_minus=-1.0, source_plus=1.0, source_minus=1.0,
    )


unit_physical_params = PhysicalParams  # theta = gamma = omega = beta = 1, nu = 0; q = 1


def modified_system_coefficients(mu: float, big_l: float, c: float,
                                 theta_sq: float) -> GeneralCoefficients:
    """Small-dispersion modified system used by the decoherence experiment.

        i dB/dt + mu^2 B_xx = (psi_ext + psi1 + psi2 + theta_sq |B|^2) B
        d(psi1)/dt + (mu(1-c)/L) d(psi1)/dx = (theta_sq mu / L) d/dx |B|^2
        d(psi2)/dt - (mu(1+c)/L) d(psi2)/dx = (theta_sq mu / L) d/dx |B|^2

    The travelling potential psi_ext = psi_plus0(x - (mu(1-c)/L) t) solves
    psi1's free transport and enters V with psi1's coefficient 1, so by
    linearity psi_ext + psi1 is psi1 started from psi1(0) + psi_plus0: runs
    carry psi_ext as psi1's initial data and take these coefficients as is.
    """
    if not (0.0 < mu < 1.0):
        raise ValueError(f"mu must lie in (0, 1), got {mu}")
    if not (0.0 < c < 1.0):
        raise ValueError(f"c must lie in (0, 1), got {c}")
    if big_l <= 0.0:
        raise ValueError("scale parameter must be positive")
    return GeneralCoefficients(
        dispersion=mu**2,
        potential_plus=1.0,
        potential_minus=1.0,
        cubic=theta_sq,
        speed_plus=mu * (1.0 - c) / big_l,
        speed_minus=-mu * (1.0 + c) / big_l,
        source_plus=theta_sq * mu / big_l,
        source_minus=theta_sq * mu / big_l,
    )


# -- state -------------------------------------------------------------------

@dataclass
class FieldState:
    """Solver state: complex B and real psi1, psi2 on a shared grid.  A
    complex psi is a TypeError: the stepper's real transforms take real
    fields only."""

    grid: SpectralGrid
    b: np.ndarray
    psi1: np.ndarray
    psi2: np.ndarray
    time: float = 0.0

    def __post_init__(self) -> None:
        if np.iscomplexobj(self.psi1) or np.iscomplexobj(self.psi2):
            raise TypeError("psi1 and psi2 must be real fields, got a complex one")
        self.b = np.asarray(self.b, dtype=np.complex128).copy()
        self.psi1 = np.asarray(self.psi1, dtype=np.float64).copy()
        self.psi2 = np.asarray(self.psi2, dtype=np.float64).copy()
        for arr in (self.b, self.psi1, self.psi2):
            if arr.shape != (self.grid.n,):
                raise ValueError(f"field shape {arr.shape} does not match grid size {self.grid.n}")
            if not np.isfinite(arr).all():
                raise ValueError("field contains non-finite entries")

    def copy(self) -> "FieldState":
        return FieldState(self.grid, self.b, self.psi1, self.psi2, self.time)


def hs_columns(s_list) -> dict[str, float]:
    """Each distinct s of s_list, ascending, by its column HsB_<s:g> (||B||_{H^s})."""
    return {f"HsB_{s:g}": s for s in sorted(set(map(float, s_list)))}


def conserved_quantities(state: FieldState, params: PhysicalParams,
                         s_list: tuple[float, ...] = (1.0,),
                         psi_index: float = -0.5) -> dict[str, float]:
    """The record row, in the CSV's column order: the four invariants Q1..Q4
    of the physical system, HsB_<s> (||B||_{H^s}, s in `s_list` ascending),
    and Hpsi1, Hpsi2 (||psi||_{H^psi_index}).

        Q1 = int |B|^2
        Q3 = theta int u rho + P,  P = (i/2) int (B conj(B)_x - B_x conj(B))
        Q4 = (omega/2) int |B_x|^2 + (gamma q / 4) int |B|^4
             + (gamma/2) int (u - (nu/2) rho) |B|^2
             + (beta/4) int rho^2 + (1/4) int u^2 + (nu / 2 theta) P
        Q2 = Q4 - (nu / 2 theta) Q3

    Integrals are dx-weighted sums (spectrally accurate on the torus); B_x is
    the spectral derivative.  psi1, psi2 are converted back to (rho, u) with
    the record's beta.  On the flow of `params` the stepper holds Q1 and Q3
    (the momentum) to round-off and Q2, Q4 to second order in dt.
    """
    g = state.grid
    dx = g.dx
    rho, u = state.psi1 + state.psi2, math.sqrt(params.beta) * (state.psi1 - state.psi2)
    b = state.b
    b_hat = g.forward(b)
    bx = g.inverse(g.derivative_coeffs(b_hat))
    absb2 = np.abs(b) ** 2

    q1 = dx * float(np.sum(absb2))
    momentum = dx * float(np.sum(np.imag(np.conj(b) * bx)))
    q3 = params.theta * dx * float(np.sum(u * rho)) + momentum
    q4 = (0.5 * params.omega * dx * float(np.sum(np.abs(bx) ** 2))
          + 0.25 * params.gamma * params.q * dx * float(np.sum(absb2**2))
          + 0.5 * params.gamma * dx * float(np.sum((u - 0.5 * params.nu * rho) * absb2))
          + 0.25 * params.beta * dx * float(np.sum(rho**2))
          + 0.25 * dx * float(np.sum(u**2))
          + 0.5 * params.nu / params.theta * momentum)
    q2 = q4 - 0.5 * params.nu / params.theta * q3

    return {"Q1": q1, "Q2": q2, "Q3": q3, "Q4": q4,
            **{name: g.sobolev_norm_coeffs(b_hat, s) for name, s in hs_columns(s_list).items()},
            "Hpsi1": g.sobolev_norm(state.psi1, psi_index),
            "Hpsi2": g.sobolev_norm(state.psi2, psi_index)}


def check_plane_wave(kappa: float, n: int, length: float) -> None:
    """Raise ValueError unless kappa is a wavenumber of the grid (n, length)
    inside its resolved band (shared by config validation and plane_wave_state)."""
    j = kappa * length / (2.0 * np.pi)
    if not abs(j - np.round(j)) <= 1e-9:
        raise ValueError(f"kappa = {kappa} is not a grid wavenumber (mode index {j:.6f})")
    if not -n / 2 <= np.round(j) < n / 2:
        raise ValueError(f"kappa = {kappa} lies outside the resolved band")


def plane_wave_state(grid: SpectralGrid, coeffs: GeneralCoefficients,
                     amplitude: float, kappa: float,
                     c1: float = 0.0, c2: float = 0.0) -> tuple[FieldState, float]:
    """Exact plane-wave solution B = A exp(i(kappa x - Omega t)), psi constant.

    kappa must be a grid wavenumber.  Substituting into the B equation with
    constant potentials V = potential_plus*c1 + potential_minus*c2 + cubic*A^2
    gives

        Omega = dispersion * kappa^2 + V

    (constant psi fields advect trivially and |B|^2 is x-independent, so the
    psi equations hold with both sides zero).  Returns the t = 0 state and
    Omega.
    """
    check_plane_wave(kappa, grid.n, grid.length)
    b = amplitude * np.exp(1j * kappa * grid.x)
    psi1 = np.full(grid.n, c1)
    psi2 = np.full(grid.n, c2)
    v = coeffs.potential_plus * c1 + coeffs.potential_minus * c2 + coeffs.cubic * amplitude**2
    omega_freq = coeffs.dispersion * kappa**2 + v
    return FieldState(grid, b, psi1, psi2, 0.0), omega_freq
