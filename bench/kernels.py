"""Kernel pass: single-threaded per-call times of the stepper's building blocks.

    python3 bench/kernels.py '<json request>'

At each grid size it times `numpy.fft.fft` of a complex field,
`SpectralGrid.forward`, the public `linear_halfstep` and `nonlinear_step`,
one growth-style observer call (`conserved_quantities` with s = 1, 3), and
`evolve` over m >= 2 steps without observers, which is how runs call
`strang_step` (the public `strang_step` rebuilds its Fourier multipliers on
every call; no run pays that).  Each kernel gets one warm-up call, then runs
in three rounds (two when a call takes over a second); a round runs one batch
of every kernel in turn, a batch repeating the call for about 50 ms.  Times
are medians over the rounds, and ratios are medians of per-round ratios, so
both sides of a ratio see the same machine speed.  Sub-steps alternate +dt /
-dt (the scheme is time-reversible) so repeated calls stay on bounded data.

Derived per size: ms/step (evolve time / m), ns/point/step, FFT-equivalents
per step (step time / one complex FFT: a time ratio, not a transform count)
and the computed bytes per step (input plus output `nbytes` of every
transform in one step; cache misses are not seen).  No bandwidth ratio is
reported: every working set here (2^21 complex128 is 32 MiB) fits the
last-level cache the VM reports, so no array meets the four-times-the-cache
rule a bandwidth figure needs.
"""

import itertools
import json
import math
import statistics
import sys
import time

BATCH_S = 0.05
REPS = 3


def _call_s(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _rounds(kernels: dict) -> dict[str, list[float]]:
    """kernels: name -> (fn, estimated seconds per call).  Returns the
    per-call seconds of each kernel in every round."""
    calls = {name: max(1, int(BATCH_S / max(est, 1e-7))) for name, (_, est) in kernels.items()}
    reps = REPS if max(est for _, est in kernels.values()) < 1.0 else 2
    out: dict[str, list[float]] = {name: [] for name in kernels}
    for _ in range(reps):
        for name, (fn, _) in kernels.items():
            start = time.perf_counter()
            for _ in range(calls[name]):
                fn()
            out[name].append((time.perf_counter() - start) / calls[name])
    return out


def kernel_pass(sizes) -> dict[str, float]:
    import numpy as np

    import tracing
    from zrlab.evolution import StepperConfig, evolve, linear_halfstep, nonlinear_step
    from zrlab.grid import SpectralGrid
    from zrlab.model import (FieldState, coefficients_from_params,
                             conserved_quantities, unit_physical_params)

    params = unit_physical_params()
    coeffs = coefficients_from_params(params)
    dt = 1e-3
    out: dict[str, float] = {}
    for n in sizes:
        grid = SpectralGrid(n / 8.0, n)  # growth's spacing dx = 1/8 at every n
        bump = np.exp(-((grid.x / 2.0) ** 2))
        state = FieldState(grid, bump.astype(np.complex128), 0.5 * bump, 0.5 * bump, 0.0)
        field = state.b.copy()
        half_steps = itertools.cycle((0.5 * dt, -0.5 * dt))
        steps = itertools.cycle((dt, -dt))
        kernels = {
            "fft": lambda: np.fft.fft(field),
            "forward": lambda: grid.forward(field),
            "linear": lambda: linear_halfstep(state, coeffs, next(half_steps)),
            "nonlinear": lambda: nonlinear_step(state, coeffs, next(steps)),
            "observer": lambda: conserved_quantities(state, params, (1.0, 3.0), -0.5),
        }
        timed = {name: (fn, _call_s(fn)) for name, fn in kernels.items()}  # warm-up
        step_estimate = 2.0 * timed["linear"][1] + timed["nonlinear"][1]
        m = max(2, math.ceil(0.2 / step_estimate))
        config = StepperConfig(dt=dt, t_end=m * dt, record_every=m)
        timed["evolve"] = (lambda: evolve(state, coeffs, config), m * step_estimate)
        rounds = _rounds(timed)
        ms = {name: statistics.median(values) * 1e3 for name, values in rounds.items()}
        step_ms = ms["evolve"] / m

        tracer = tracing.Tracer()
        tracing.trace_transforms(tracer)
        evolve(state, coeffs, StepperConfig(dt=dt, t_end=dt, record_every=1))
        tracer.uninstall()

        key = f"n{n}"
        out.update({
            f"grid.fft_ms.{key}": ms["fft"],
            f"grid.forward_ms.{key}": ms["forward"],
            f"evolution.linear_ms.{key}": ms["linear"],
            f"evolution.nonlinear_ms.{key}": ms["nonlinear"],
            f"evolution.ms_per_step.{key}": step_ms,
            f"evolution.ns_per_point_step.{key}": step_ms * 1e6 / n,
            f"evolution.fft_equiv_per_step.{key}": statistics.median(
                e / m / f for e, f in zip(rounds["evolve"], rounds["fft"])),
            f"evolution.bytes_per_step.{key}": tracer.counters()["grid.bytes_computed"],
            f"model.observer_ms.{key}": ms["observer"],
        })
    return out


def main() -> int:
    req = json.loads(sys.argv[1])
    sys.path.insert(0, req["src"])
    metrics = kernel_pass(req["sizes"])
    with open(req["result"], "w") as fh:
        json.dump(metrics, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
