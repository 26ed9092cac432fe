"""Strang-split time stepping for the coupled Schrodinger-transport system.

One step of size dt is

    linear half-step  (exact Fourier multipliers, dt/2)
    nonlinear step    (dt)
    linear half-step  (dt/2)

The linear half-step advances the decoupled constant-coefficient flows

    bhat_j   *= exp(-i dispersion xi_j^2 tau)
    psihat_j *= exp(-i speed xi_j tau)

which are exact and unitary.  psi1, psi2, |B|^2 and the external potentials
go through real half-spectrum transforms, so they are real by construction.
The nonlinear step freezes the transport and dispersion and advances

    i dB/dt = V B,          V = p+ psi1 + p- psi2 + cubic |B|^2 + externals
    d(psi)/dt = source d/dx |B|^2

symmetrically: half a psi kick, the exact phase rotation B *= exp(-i V dt)
with V evaluated at the midpoint psi, then the second half kick.  |B| is
invariant under the rotation, so the kick (which depends on B only through
|B|^2) is the same on both sides and the whole step is exactly
time-reversible.  Mass sum|B|^2 dx is conserved to machine precision by
construction.

`strang_step` is the unfused reference: 4 complex and 10 real transforms.
`evolve` fuses the loop: the half-steps that meet between steps are merged,
psi1 and psi2 stay half spectra, and one inverse of p+ psi1^ + p- psi2^
(at the midpoint kick) plus the translated external spectra gives the psi
and external parts of V.  A step costs 2 complex and 2 real transforms and,
off record times, allocates nothing: `_Plan.nonlinear` updates B and psi in
place, and it and the loop write every result into the plan's work arrays.
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


class _Plan:
    """What every step of a run reuses, the one nonlinear kernel, and its work arrays.

    Built for one grid, coefficient record, dt and dealias flag: the linear
    multipliers for tau = dt/2 (B on the full spectrum; psi1 and psi2 stacked
    as rows on the real half spectrum) and their squares for a whole dt (a
    square, not `translation(speed*dt)`: the Nyquist cosine rule does not
    compose), the psi half-kick multipliers (d/dx of |B|^2, 2/3-masked when
    dealiasing), and the external profiles' half spectra.  Half spectra here
    are numpy's unscaled `rfft` coefficients.

    It also owns the work arrays every step writes into: |B|^2, the psi
    kicks, V, a translated external, a half spectrum (|B|^2's, then V's) and
    a complex grid array (the phase factor, then B's spectrum).  A plan
    belongs to one run and is never shared between threads; no array handed
    out aliases these.
    """

    def __init__(self, grid: SpectralGrid, coeffs: GeneralCoefficients, dt: float,
                 dealias: bool = True):
        tau, h = 0.5 * dt, grid.n // 2 + 1
        self.grid, self.dt, self.cubic = grid, dt, coeffs.cubic
        self.mult_b = np.exp(-1j * coeffs.dispersion * grid.wavenumbers**2 * tau)
        self.mult_psi = np.stack([grid.translation(coeffs.speed_plus * tau),
                                  grid.translation(coeffs.speed_minus * tau)])
        self.step_b, self.step_psi = self.mult_b**2, self.mult_psi**2
        mask = grid.dealias_mask if dealias else np.ones(grid.n)
        ddx = grid.derivative_coeffs(mask, 1)[:h]
        self.kick = np.outer([tau * coeffs.source_plus, tau * coeffs.source_minus], ddx)
        self.potential = np.array([coeffs.potential_plus, coeffs.potential_minus], complex)
        self.externals = []
        for ext in (coeffs.external_plus, coeffs.external_minus):
            if ext is None:
                continue
            if ext.profile.shape != (grid.n,):
                raise ValueError("external potential profile does not match the run grid")
            self.externals.append((np.fft.rfft(ext.profile), ext.speed))
        self.absb2, self.v, self.b_finite = (np.empty(grid.n, t) for t in (float, float, bool))
        self.phase, self.vhat, self.moved = (np.empty(m, complex) for m in (grid.n, h, h))
        self.psi_kick, self.psi_finite = np.empty((2, h), complex), np.empty((2, h), bool)

    def nonlinear(self, b: np.ndarray, psi: np.ndarray, time: float) -> None:
        """The nonlinear sub-flow over dt from `time`, on B's grid values and
        the stacked half spectra of psi1, psi2; updates `b` and `psi` in place."""
        dt = self.dt
        absb2 = np.square(np.abs(b, out=self.absb2), out=self.absb2)
        kick = np.multiply(np.fft.rfft(absb2, out=self.vhat), self.kick,
                           out=self.psi_kick)
        psi += kick
        vhat = np.matmul(self.potential, psi, out=self.vhat)
        for hat, speed in self.externals:
            moved = self.grid.translation(speed * (time + 0.5 * dt), out=self.moved)
            vhat += np.multiply(hat, moved, out=moved)
        v = np.fft.irfft(vhat, self.grid.n, out=self.v)
        v += np.multiply(self.cubic, absb2, out=absb2)
        vmax = float(np.abs(v, out=absb2).max())
        if vmax * abs(dt) >= np.pi:
            warnings.warn(
                f"potential phase advanced {vmax * abs(dt):.3g} rad (>= pi) in one step; "
                "decrease dt", RuntimeWarning)
        angle = np.multiply(v, -dt, out=v)  # exp(-i dt V) as cos, sin: no complex exp
        np.cos(angle, out=self.phase.real)
        np.sin(angle, out=self.phase.imag)
        b *= self.phase
        psi += kick
        if not (np.isfinite(b, out=self.b_finite).all()
                and np.isfinite(psi, out=self.psi_finite).all()):
            raise BlowUpError(time)


def linear_halfstep(state: FieldState, coeffs: GeneralCoefficients, tau: float,
                    plan: Optional[_Plan] = None) -> FieldState:
    """Advance the linear sub-flows by tau (exact; any sign of tau); `plan`,
    if given, must have been built for dt = 2 tau."""
    g = state.grid
    p = plan if plan is not None else _Plan(g, coeffs, 2.0 * tau)
    state.b = g.inverse(g.forward(state.b) * p.mult_b)
    state.psi1 = g.rinverse(g.rforward(state.psi1) * p.mult_psi[0])
    state.psi2 = g.rinverse(g.rforward(state.psi2) * p.mult_psi[1])
    return state


def nonlinear_step(state: FieldState, coeffs: GeneralCoefficients, dt: float,
                   dealias: bool = True, plan: Optional[_Plan] = None) -> FieldState:
    """Advance the potential/source sub-flow by dt (symmetric, reversible;
    state.b is updated in place); travelling external potentials are sampled
    at the midpoint time.  `plan`, if given, must have been built for this dt
    and dealias flag."""
    p = plan if plan is not None else _Plan(state.grid, coeffs, dt, dealias)
    psi = np.fft.rfft(np.stack([state.psi1, state.psi2]))
    p.nonlinear(state.b, psi, state.time)
    state.psi1, state.psi2 = np.fft.irfft(psi, state.grid.n)
    return state


def strang_step(state: FieldState, coeffs: GeneralCoefficients, dt: float,
                dealias: bool = True, plan: Optional[_Plan] = None) -> FieldState:
    """One full Strang step; advances state.time by dt.  `plan`, built for
    this grid, coefficients, dt and dealias flag, saves rebuilding it."""
    plan = plan if plan is not None else _Plan(state.grid, coeffs, dt, dealias)
    linear_halfstep(state, coeffs, 0.5 * dt, plan=plan)
    nonlinear_step(state, coeffs, dt, dealias=dealias, plan=plan)
    linear_halfstep(state, coeffs, 0.5 * dt, plan=plan)
    state.time += dt
    return state


def evolve(state0: FieldState, coeffs: GeneralCoefficients, config: StepperConfig,
           observers: Sequence[Observer] = ()) -> tuple[FieldState, RunRecord]:
    """Integrate to t_end, recording observer outputs along the way.

    The initial state is not mutated.  Returns the final state and the
    record; rows are {t, **observer columns} at the recorded times.
    Between records B (grid values) and psi1, psi2 (half spectra) run half
    a linear step ahead; a record time adds the half-step that syncs them.
    """
    state = state0.copy()
    g, dt, n_steps = state.grid, config.dt, config.steps
    t0 = state.time
    record = RunRecord()
    plan = _Plan(g, coeffs, dt, config.dealias)

    def snapshot() -> None:
        row = {"t": state.time}
        for obs in observers:
            row.update(obs(state))
        record.append(row)

    snapshot()
    b = g.inverse(g.forward(state.b) * plan.mult_b)
    psi = np.fft.rfft(np.stack([state.psi1, state.psi2])) * plan.mult_psi
    for i in range(1, n_steps + 1):
        plan.nonlinear(b, psi, t0 + (i - 1) * dt)
        if i % config.record_every == 0 or i == n_steps:
            bhat = g.forward(b)
            state.b = g.inverse(bhat * plan.mult_b)
            state.psi1, state.psi2 = np.fft.irfft(psi * plan.mult_psi, g.n)
            state.time = t0 + i * dt  # avoid accumulated addition drift
            snapshot()
            if i < n_steps:
                b = g.inverse(bhat * plan.step_b)
        else:
            bhat = np.multiply(np.fft.fft(b, out=plan.phase), plan.step_b, out=plan.phase)
            np.fft.ifft(bhat, out=b)
        psi *= plan.step_psi
        if i % max(1, n_steps // 10) == 0:
            logger.debug("evolve: step %d/%d (t = %.6g)", i, n_steps, t0 + i * dt)
    record.meta["steps"] = n_steps
    record.meta["dt"] = dt
    return state, record
