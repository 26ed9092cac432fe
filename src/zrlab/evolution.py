"""Strang-split time stepping for the coupled Schrodinger-transport system.

One step of size dt is

    linear half-step  (exact Fourier multipliers, dt/2)
    nonlinear step    (dt)
    linear half-step  (dt/2)

The linear half-step advances the decoupled constant-coefficient flows

    bhat_j   *= exp(-i dispersion xi_j^2 tau)
    psihat_j *= exp(-i speed xi_j tau)

which are exact and unitary.  psi1, psi2 and |B|^2 go through numpy's
`rfft`/`irfft`, the one real-field convention (the unscaled half spectrum
j = 0..n/2; diagonal multipliers need no grid-origin phase), so they are
real by construction.
The nonlinear step freezes the transport and dispersion and advances

    i dB/dt = V B,          V = p+ psi1 + p- psi2 + cubic |B|^2
    d(psi)/dt = source d/dx |B|^2

symmetrically: half a psi kick, the exact phase rotation B *= exp(-i V dt)
with V evaluated at the midpoint psi, then the second half kick.  |B| is
invariant under the rotation, so the kick (which depends on B only through
|B|^2) is the same on both sides and the whole step is exactly
time-reversible.  Mass sum|B|^2 dx is conserved to machine precision by
construction.

`strang_step` is the unfused reference: 4 complex and 14 real transforms.
`evolve` fuses the loop: the half-steps that meet between steps are merged,
psi1 and psi2 stay half spectra, and one inverse of p+ psi1^ + p- psi2^ (at
the midpoint kick) gives the psi part of V.  A potential travelling at a
transport speed is that psi field's initial data, not a path of its own
(`model.modified_system_coefficients`).  A step costs 2 complex and 2 real
transforms and, off record times, allocates nothing: `_Plan.nonlinear`
updates B and psi in place, and it and the loop write every result into
the plan's work arrays.  The four transforms call numpy's pocketfft gufuncs,
as `np.fft.*` does after 3-4 us of Python per call, so the bits are the
same.  The finite test rides on the phase reduction.  A record time syncs a
copy for the observers and writes nothing back, so the trajectory does not
depend on when they look.
`evolve_members` steps several runs on one grid as the rows of one plan, so
at small n, where each numpy call costs more than its arithmetic, a batch
step makes the calls of one; `evolve` is its one-member case.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .grid import SpectralGrid
from .model import FieldState, GeneralCoefficients
from .records import RunRecord

__all__ = [
    "StepperConfig",
    "BlowUpError",
    "linear_halfstep",
    "nonlinear_step",
    "strang_step",
    "evolve",
    "evolve_members",
]

logger = logging.getLogger(__name__)

Observer = Callable[[FieldState], dict]


class BlowUpError(RuntimeError):
    """Raised when a field stops being finite; carries the failure time."""

    def __init__(self, time: float):
        super().__init__(f"solution blew up (non-finite field) at t = {time:.6g}")
        self.time = time


@dataclass(frozen=True)
class StepperConfig:
    """Time-stepping controls.

    dt must divide t_end to within roundoff; states are recorded at t = 0,
    every `record_every` steps, and at t_end.
    """

    dt: float
    t_end: float
    record_every: int = 1
    steps: int = field(init=False)  # the number of steps spanning [0, t_end]

    def __post_init__(self) -> None:
        steps = round(_quotient(self.t_end, self.dt))
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if abs(steps * self.dt - self.t_end) > 1e-9 * max(1.0, self.t_end):
            raise ValueError(f"t_end = {self.t_end} is not an integer multiple of dt = {self.dt}")
        object.__setattr__(self, "steps", steps)

    @classmethod
    def spanning(cls, t_end: float, dt: float,
                 record_every: Optional[int] = None) -> "StepperConfig":
        """The fewest equal steps of at most dt (to within 1e-9 of a step), at
        least one, spanning [0, t_end], or none of dt when t_end = 0; recording
        at both ends only by default."""
        steps = max(1, math.ceil(_quotient(t_end, dt) - 1e-9))
        return cls(t_end / steps if t_end else dt, t_end,
                   steps if record_every is None else record_every)


def _quotient(t_end: float, dt: float) -> float:
    """t_end / dt, the unrounded step count; a ValueError unless dt is positive,
    t_end nonnegative and both finite, or when the quotient overflows."""
    if not np.isfinite(dt) or dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not np.isfinite(t_end) or t_end < 0:
        raise ValueError(f"t_end must be nonnegative, got {t_end}")
    if not math.isfinite(t_end / dt):
        raise ValueError(f"t_end / dt = {t_end!r} / {dt!r} overflows the step count")
    return t_end / dt


def _member_view(arr: np.ndarray, k: int):
    """Rows 0..k-1 of a per-member array.  A per-member scalar (1-D `arr`)
    becomes a column; a lone member drops the member axis, and its scalar
    becomes a float."""
    if k == 1:
        return arr[0].item() if arr.ndim == 1 else arr[0]
    return arr[:k, None] if arr.ndim == 1 else arr[:k]


class _Plan:
    """What every step of a batch of runs (members) reuses, the one nonlinear
    kernel, and its work arrays.

    Built for one grid and, per member, a coefficient record and dt.  Row k
    of each array in `full` is member k's: the linear multipliers for
    tau = dt/2 (B on the full spectrum; psi1 and psi2 stacked on the real
    half spectrum) and their squares for a whole dt (a square, not
    `translation(speed*dt)`: the Nyquist cosine rule does not compose), the
    psi half-kick multipliers (d/dx of |B|^2, always under the 2/3 mask), the
    potential row, cubic coefficient and dt, and the work arrays every step
    writes into: |B|^2 (then |V| dt / 2), the psi kicks, V, a half spectrum
    (|B|^2's, then V's) and a complex grid array (the phase factor, then B's
    spectrum).  `gufuncs`, numpy's pocketfft gufuncs, are imported here:
    numpy.fft loads lazily, and a run that builds no plan never needs it.

    The step reads the views of the first k rows that `narrow(k)` sets under
    the same names: the members still stepping are a prefix, so a finished
    one costs no copy.  A lone member's views drop the member axis and its
    scalars are floats, so a single run makes the calls, on (n,) shapes, that
    it made before the member axis: at small n per-call cost dominates.  A
    plan belongs to one call and is never shared between threads; no array
    handed out aliases its work arrays.
    """

    def __init__(self, grid: SpectralGrid, coeffs: Sequence[GeneralCoefficients],
                 dts: Sequence[float]):
        m, n, h = len(coeffs), grid.n, grid.n // 2 + 1
        from numpy.fft import _pocketfft_umath as gufuncs

        self.gufuncs, self.inv_n, dt = gufuncs, 1.0 / n, np.array(dts, float)
        tau = 0.5 * dt[:, None]

        def per_member(*names: str) -> np.ndarray:
            return np.array([[getattr(c, name) for name in names] for c in coeffs])

        ddx = grid.derivative_coeffs(grid.dealias_mask)[:h]
        mult_b = np.exp(-1j * per_member("dispersion") * grid.wavenumbers**2 * tau)
        mult_psi = grid.translation((per_member("speed_plus", "speed_minus") * tau)[..., None])
        self.full = {
            "mult_b": mult_b, "mult_psi": mult_psi,
            "step_b": mult_b**2, "step_psi": mult_psi**2,
            "kick": (tau * per_member("source_plus", "source_minus"))[..., None] * ddx,
            "potential": per_member("potential_plus", "potential_minus").astype(complex),
            "cubic": per_member("cubic")[:, 0], "dt": dt,
            "absb2": np.empty((m, n)), "v": np.empty((m, n)),
            "phase": np.empty((m, n), complex), "vhat": np.empty((m, h), complex),
            "psi_kick": np.empty((m, 2, h), complex),
        }
        self.narrow(m)

    def narrow(self, k: int) -> None:
        """Point the step's views at members 0..k-1; nothing is copied."""
        for name, arr in self.full.items():
            setattr(self, name, _member_view(arr, k))
        self.vhat_rows = self.vhat
        if k > 1:  # a member's row of V's half spectrum pairs with its two psi rows
            self.potential, self.vhat_rows = self.potential[:, None], self.vhat[:, None]

    def nonlinear(self, b: np.ndarray, psi: np.ndarray, start, step: int) -> None:
        """The nonlinear sub-flow over dt, on B's grid values and the stacked
        half spectra of psi1, psi2; updates `b` and `psi` in place.  The phase
        guard max |V| dt < pi is also B's finite test (a NaN or inf on the
        path |B|^2 -> V -> angle fails it); psi, which need not reach V, gets
        one sum.  Only when either trips does `diagnose` run."""
        absb2 = np.square(np.abs(b, out=self.absb2), out=self.absb2)
        self.gufuncs.rfft_n_even(absb2, 1.0, out=(self.vhat,))
        kick = np.multiply(self.vhat_rows, self.kick, out=self.psi_kick)
        psi += kick
        np.matmul(self.potential, psi, out=self.vhat_rows)
        v = self.gufuncs.irfft(self.vhat, self.inv_n, out=(self.v,))
        v += np.multiply(self.cubic, absb2, out=absb2)
        half = np.multiply(v, -0.5 * self.dt, out=v)  # halving is exact, so this is
        calm = np.abs(half, out=absb2).max() < 0.5 * np.pi  # max |V| dt < pi, bit for bit
        # exp(-i dt V) = (1 + i u) / (1 - i u), u = tan(-dt V / 2): numpy runs float64
        # tan in a vectorised loop, but cos and sin (and complex exp) one value at a time
        phase = self.phase
        phase.real = 1.0
        u = np.tan(half, out=phase.imag)
        b *= phase
        np.negative(u, out=u)
        b /= phase
        psi += kick
        if not (calm and math.isfinite(abs(psi.sum()))):
            self.diagnose(b, psi, start, step)

    def diagnose(self, b: np.ndarray, psi: np.ndarray, start, step: int) -> None:
        """`nonlinear`'s slow path: warn per member whose phase advanced pi or
        more, then raise `BlowUpError` if a field is not finite, at the first
        such member's step-start time start + step dt, formed only then."""
        for rad in np.ravel(2.0 * self.absb2.max(axis=-1)):
            if rad >= np.pi:
                warnings.warn(f"potential phase advanced {rad:.3g} rad (>= pi) in one "
                              "step; decrease dt", RuntimeWarning)
        failed = ~(np.isfinite(b).all(axis=-1) & np.isfinite(psi).all(axis=(-2, -1)))
        if failed.any():
            time = np.ravel(start + step * self.dt)
            raise BlowUpError(float(time[np.argmax(np.ravel(failed))]))


def linear_halfstep(state: FieldState, coeffs: GeneralCoefficients, tau: float) -> FieldState:
    """Advance the linear sub-flows by tau (exact; any sign of tau)."""
    g, p = state.grid, _Plan(state.grid, [coeffs], [2.0 * tau])
    state.b = g.inverse(g.forward(state.b) * p.mult_b)
    psi = np.fft.rfft(np.stack([state.psi1, state.psi2])) * p.mult_psi
    state.psi1, state.psi2 = np.fft.irfft(psi, g.n)
    return state


def nonlinear_step(state: FieldState, coeffs: GeneralCoefficients, dt: float) -> FieldState:
    """Advance the potential/source sub-flow by dt (symmetric, reversible;
    state.b is updated in place)."""
    psi = np.fft.rfft(np.stack([state.psi1, state.psi2]))
    _Plan(state.grid, [coeffs], [dt]).nonlinear(state.b, psi, state.time, 0)
    state.psi1, state.psi2 = np.fft.irfft(psi, state.grid.n)
    return state


def strang_step(state: FieldState, coeffs: GeneralCoefficients, dt: float) -> FieldState:
    """One full Strang step; advances state.time by dt."""
    linear_halfstep(state, coeffs, 0.5 * dt)
    nonlinear_step(state, coeffs, dt)
    linear_halfstep(state, coeffs, 0.5 * dt)
    state.time += dt
    return state


def evolve(state0: FieldState, coeffs: GeneralCoefficients, config: StepperConfig,
           observers: Sequence[Observer] = ()) -> tuple[FieldState, RunRecord]:
    """Integrate to t_end, recording observer outputs along the way.

    The initial state is not mutated.  Returns the final state and the
    record; rows are {t, **observer columns} at the recorded times.
    B (grid values) and psi1, psi2 (half spectra) run half a linear step
    ahead; a record time syncs a copy of them for the observers and leaves
    the stepped fields as they are.
    """
    return evolve_members([state0], [coeffs], [config], observers)[0]


def evolve_members(states: Sequence[FieldState], coeffs: Sequence[GeneralCoefficients],
                   configs: Sequence[StepperConfig], observers: Sequence[Observer] = ()
                   ) -> list[tuple[FieldState, RunRecord]]:
    """`evolve` for several runs (members) stepped together as the rows of one
    plan: each member's (final state, record), bit for bit what `evolve`
    returns for it alone.

    The members share a grid; coefficients, start time, dt, step count and
    `record_every` may differ.  Observers see one member's state at a
    time.  A blow-up raises `BlowUpError` at the failing member's step-start
    time.
    """
    g = states[0].grid
    if not len(states) == len(coeffs) == len(configs) or any(st.grid != g for st in states):
        raise ValueError("members need a state, coefficients and a stepper config each, "
                         "and must share a grid")
    order = sorted(range(len(states)), key=lambda k: -configs[k].steps)  # longest first
    members = [states[k].copy() for k in order]
    steps = [configs[k].steps for k in order]
    every = [configs[k].record_every for k in order]
    plan = _Plan(g, [coeffs[k] for k in order], [configs[k].dt for k in order])
    full, t0 = plan.full, np.array([st.time for st in members])
    records = [RunRecord() for _ in members]

    def snapshot(j: int, i: int = 0) -> None:
        """Record member j after its step i, syncing a copy of its state first
        if i > 0; reads the batch, never writes it."""
        state = members[j]
        if i:
            state.b = g.inverse(g.forward(bs[j]) * full["mult_b"][j])
            state.psi1, state.psi2 = np.fft.irfft(psis[j] * full["mult_psi"][j], g.n)
            state.time = float(t0[j] + i * full["dt"][j])  # avoid accumulated addition drift
        row = {"t": state.time}
        for obs in observers:
            row.update(obs(state))
        records[j].append(row)

    def views(i: int) -> tuple:
        """The number of members still stepping at step i, and their views."""
        k = sum(n >= i for n in steps)
        plan.narrow(k)
        return (k, *(_member_view(arr, k) for arr in (bs, psis, t0)))

    for j in range(len(members)):
        snapshot(j)
    bs = np.stack([g.inverse(g.forward(st.b) * mult) for st, mult in zip(members, full["mult_b"])])
    psis = np.fft.rfft(np.stack([(st.psi1, st.psi2) for st in members])) * full["mult_psi"]
    active, b, psi, start = views(1)
    fft, ifft, log_every = plan.gufuncs.fft, plan.gufuncs.ifft, max(1, steps[0] // 10)
    for i in range(1, steps[0] + 1):
        if steps[active - 1] < i:  # the last rows are done: step the others only
            active, b, psi, start = views(i)
        plan.nonlinear(b, psi, start, i - 1)
        for j in range(active):
            if i % every[j] == 0 or steps[j] == i:
                snapshot(j, i)
        bhat = np.multiply(fft(b, 1.0, out=(plan.phase,)), plan.step_b, out=plan.phase)
        ifft(bhat, plan.inv_n, out=(b,))
        psi *= plan.step_psi
        if i % log_every == 0:
            logger.debug("evolve: step %d/%d", i, steps[0])
    out: list = [None] * len(members)
    for j, k in enumerate(order):
        out[k] = (members[j], records[j])
    return out
