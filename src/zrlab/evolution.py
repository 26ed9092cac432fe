"""Strang-split time stepping for the coupled Schrodinger-transport system.

One step of size dt is

    linear half-step  (exact Fourier multipliers, dt/2)
    nonlinear step    (dt)
    linear half-step  (dt/2)

The linear half-step advances the decoupled constant-coefficient flows

    bhat_j   *= exp(-i dispersion xi_j^2 tau)
    psihat_j *= exp(-i speed xi_j tau)

which are exact and unitary.  The nonlinear step freezes the transport and
dispersion and advances

    i dB/dt = V B,          V = p+ psi1 + p- psi2 + cubic |B|^2 + externals
    d(psi)/dt = source d/dx |B|^2

symmetrically: half a psi kick, the exact phase rotation B *= exp(-i V dt)
with V evaluated at the midpoint psi, then the second half kick.  |B| is
invariant under the rotation, so the kick (which depends on B only through
|B|^2) is the same on both sides and the whole step is exactly
time-reversible.  Mass sum|B|^2 dx is conserved to machine precision by
construction.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .grid import SpectralGrid
from .model import FieldState, GeneralCoefficients
from .records import RunRecord

__all__ = [
    "StepperConfig",
    "BlowUpError",
    "whole_steps",
    "linear_halfstep",
    "nonlinear_step",
    "strang_step",
    "evolve",
]

logger = logging.getLogger(__name__)

REALITY_BUDGET = 1e-11

Observer = Callable[[FieldState], dict]


class BlowUpError(RuntimeError):
    """Raised when a field stops being finite; carries the failure time."""

    def __init__(self, time: float):
        super().__init__(f"solution blew up (non-finite field) at t = {time:.6g}")
        self.time = time


def whole_steps(dt: float, t_end: float) -> Optional[int]:
    """Number of steps of size dt > 0 spanning [0, t_end], or None when t_end
    is not a whole multiple of dt to within roundoff."""
    steps = round(t_end / dt) if t_end > 0 else 0
    return steps if abs(steps * dt - t_end) <= 1e-9 * max(1.0, t_end) else None


@dataclass(frozen=True)
class StepperConfig:
    """Time-stepping controls.

    dt must divide t_end to within roundoff; states are recorded at t = 0,
    every `record_every` steps, and at t_end.  `dealias` applies the 2/3 mask
    to the quadratic source feeding the psi fields.
    """

    dt: float
    t_end: float
    record_every: int = 1
    dealias: bool = True

    def __post_init__(self) -> None:
        if not np.isfinite(self.dt) or self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not np.isfinite(self.t_end) or self.t_end < 0:
            raise ValueError(f"t_end must be nonnegative, got {self.t_end}")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if whole_steps(self.dt, self.t_end) is None:
            raise ValueError(f"t_end = {self.t_end} is not an integer multiple of dt = {self.dt}")

    @property
    def steps(self) -> int:
        return whole_steps(self.dt, self.t_end)


def _take_real(arr: np.ndarray, time: float, scale: float) -> np.ndarray:
    leak = float(np.max(np.abs(arr.imag)))
    if leak > REALITY_BUDGET * max(1.0, scale):
        raise RuntimeError(
            f"psi reality budget exceeded at t = {time:.6g}: residue {leak:.3e}")
    return np.ascontiguousarray(arr.real)


class _LinearCache:
    """Half-step multipliers for a fixed tau (reused across steps)."""

    def __init__(self, grid: SpectralGrid, coeffs: GeneralCoefficients, tau: float):
        xi = grid.wavenumbers
        self.tau = tau
        self.mult_b = np.exp(-1j * coeffs.dispersion * xi**2 * tau)
        self.mult_psi1 = self._translation(grid, coeffs.speed_plus * tau)
        self.mult_psi2 = self._translation(grid, coeffs.speed_minus * tau)

    @staticmethod
    def _translation(grid: SpectralGrid, shift: float) -> np.ndarray:
        # The unpaired Nyquist mode cannot carry a complex phase on a real
        # field; keep its cosine part (same convention as odd derivatives).
        mult = np.exp(-1j * grid.wavenumbers * shift)
        nyq = grid.modes == -grid.n // 2
        mult[nyq] = mult[nyq].real
        return mult


def linear_halfstep(state: FieldState, coeffs: GeneralCoefficients, tau: float,
                    _cache: Optional[_LinearCache] = None) -> FieldState:
    """Advance the linear sub-flows by tau (exact; any sign of tau)."""
    g = state.grid
    c = _cache if _cache is not None and _cache.tau == tau else _LinearCache(g, coeffs, tau)
    state.b = g.inverse(g.forward(state.b) * c.mult_b)
    scale1 = float(np.max(np.abs(state.psi1))) if state.psi1.size else 0.0
    scale2 = float(np.max(np.abs(state.psi2))) if state.psi2.size else 0.0
    state.psi1 = _take_real(g.inverse(g.forward(state.psi1) * c.mult_psi1), state.time, scale1)
    state.psi2 = _take_real(g.inverse(g.forward(state.psi2) * c.mult_psi2), state.time, scale2)
    return state


class _ExternalCache:
    """Fourier coefficients of the external profiles, for exact translation."""

    def __init__(self, grid: SpectralGrid, coeffs: GeneralCoefficients):
        self.items = []
        for ext in (coeffs.external_plus, coeffs.external_minus):
            if ext is None:
                continue
            if ext.profile.shape != (grid.n,):
                raise ValueError("external potential profile does not match the run grid")
            self.items.append((grid.forward(ext.profile), ext.speed))

    def potential(self, grid: SpectralGrid, t: float) -> Optional[np.ndarray]:
        if not self.items:
            return None
        total = np.zeros(grid.n)
        for prof_hat, speed in self.items:
            total += grid.inverse(grid.translate_coeffs(prof_hat, speed * t)).real
        return total


def nonlinear_step(state: FieldState, coeffs: GeneralCoefficients, dt: float,
                   dealias: bool = True,
                   _ext: Optional[_ExternalCache] = None) -> FieldState:
    """Advance the potential/source sub-flow by dt (symmetric, reversible);
    travelling external potentials are sampled at the midpoint time."""
    g = state.grid
    absb2 = np.abs(state.b) ** 2
    ghat = g.forward(absb2)
    if dealias:
        ghat = g.dealias(ghat)
    dxg = _take_real(g.inverse(g.derivative_coeffs(ghat, 1)), state.time,
                     float(np.max(absb2)) if absb2.size else 0.0)

    kick1 = (0.5 * dt * coeffs.source_plus) * dxg
    kick2 = (0.5 * dt * coeffs.source_minus) * dxg
    state.psi1 = state.psi1 + kick1
    state.psi2 = state.psi2 + kick2

    v = (coeffs.potential_plus * state.psi1 + coeffs.potential_minus * state.psi2
         + coeffs.cubic * absb2)
    ext = _ext if _ext is not None else _ExternalCache(g, coeffs)
    ext_pot = ext.potential(g, state.time + 0.5 * dt)
    if ext_pot is not None:
        v = v + ext_pot
    vmax = float(np.max(np.abs(v))) if v.size else 0.0
    if vmax * abs(dt) >= np.pi:
        warnings.warn(
            f"potential phase advanced {vmax * abs(dt):.3g} rad (>= pi) in one step; "
            "decrease dt", RuntimeWarning)
    state.b = state.b * np.exp(-1j * dt * v)

    state.psi1 = state.psi1 + kick1
    state.psi2 = state.psi2 + kick2

    if not state.check_finite():
        raise BlowUpError(state.time)
    return state


def strang_step(state: FieldState, coeffs: GeneralCoefficients, dt: float,
                dealias: bool = True,
                _lin: Optional[_LinearCache] = None,
                _ext: Optional[_ExternalCache] = None) -> FieldState:
    """One full Strang step; advances state.time by dt."""
    linear_halfstep(state, coeffs, 0.5 * dt, _cache=_lin)
    nonlinear_step(state, coeffs, dt, dealias=dealias, _ext=_ext)
    linear_halfstep(state, coeffs, 0.5 * dt, _cache=_lin)
    state.time += dt
    return state


def evolve(state0: FieldState, coeffs: GeneralCoefficients, config: StepperConfig,
           observers: Sequence[Observer] = ()) -> tuple[FieldState, RunRecord]:
    """Integrate to t_end, recording observer outputs along the way.

    The initial state is not mutated.  Returns the final state and the
    record; rows are {t, **observer columns} at the recorded times.
    """
    state = state0.copy()
    t0 = state.time
    record = RunRecord()
    lin = _LinearCache(state.grid, coeffs, 0.5 * config.dt)
    ext = _ExternalCache(state.grid, coeffs)

    def snapshot() -> None:
        row = {"t": state.time}
        for obs in observers:
            row.update(obs(state))
        record.append(row)

    snapshot()
    n_steps = config.steps
    for i in range(1, n_steps + 1):
        strang_step(state, coeffs, config.dt, dealias=config.dealias, _lin=lin, _ext=ext)
        state.time = t0 + i * config.dt  # avoid accumulated addition drift
        if i % config.record_every == 0 or i == n_steps:
            snapshot()
        if i % max(1, n_steps // 10) == 0:
            logger.debug("evolve: step %d/%d (t = %.6g)", i, n_steps, state.time)
    record.meta["steps"] = n_steps
    record.meta["dt"] = config.dt
    return state, record
