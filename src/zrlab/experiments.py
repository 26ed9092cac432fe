"""Preset experiment pipelines.

Each run_* function consumes a validated ExperimentSpec and returns an
ExperimentResult bundling time-series records, log-log fits, and a verdict
made of named checks; a blow-up ends the run with a failed completion
check.  A scaling claim is a least-squares log-log slope; its verdict needs
four or more samples, all positive and finite, and a rate check (a sweep
against its predicted slope) r^2 >= 0.98 too, else it reads "inconclusive".
Growth's exponent caps a running maximum instead: a bounded, flat envelope
leaves a line little to explain (r^2 = 0.408 at defaults), so no r^2 gate.

Sweeps over N run their members in a thread pool, largest N first (c2probe
runs one task per route and N, dual-route tasks first); each task is
sequential and the results come back in ascending order, so records are
deterministic for a fixed spec.  ZRLAB_THREADS caps the pool (0 = auto;
1 = a pool of one worker).
Decohere splits its runs into one `evolve_members` batch per worker, longest
run first, and steps the batches through the same pool.
"""

from __future__ import annotations

import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import closed_forms as cf
from .closed_forms import expected_c2_slope, expected_inflation_slope
from .config import ConfigError, ExperimentSpec, check_decohere_band, decohere_pairs
from .evolution import BlowUpError, StepperConfig, evolve, evolve_members
from .grid import SpectralGrid, next_fast_len
from .model import (FieldState, GeneralCoefficients, conserved_quantities, hs_columns,
                    modified_system_coefficients, plane_wave_state)
from .records import RunRecord

__all__ = [
    "FitResult",
    "CheckResult",
    "ExperimentResult",
    "fit_loglog",
    "inflation_grid",
    "inflate_member",
    "run_simulate",
    "run_conserve",
    "run_inflate",
    "run_c2probe",
    "run_decohere",
    "run_growth",
    "run_experiment",
]

logger = logging.getLogger(__name__)


# -- verdict plumbing -------------------------------------------------------------

@dataclass(frozen=True)
class FitResult:
    """Least-squares line through (log x, log y) samples."""

    slope: float
    intercept: float
    r_squared: float
    log_x: tuple[float, ...]
    log_y: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.log_x) < 3 or len(self.log_x) != len(self.log_y):
            raise ValueError("fit needs at least three matched sample points")
        if not (0.0 <= self.r_squared <= 1.0):
            raise ValueError(f"r_squared out of range: {self.r_squared}")


def fit_loglog(x: Sequence[float], y: Sequence[float]) -> FitResult:
    """Fit log(y) = slope*log(x) + intercept; x, y must be positive."""
    with np.errstate(divide="ignore", invalid="ignore"):
        lx = np.log(np.asarray(x, dtype=np.float64))
        ly = np.log(np.asarray(y, dtype=np.float64))
    if not (np.all(np.isfinite(lx)) and np.all(np.isfinite(ly))):
        raise ValueError("fit_loglog requires positive finite samples")
    slope, intercept = np.polyfit(lx, ly, 1)
    residuals = ly - (slope * lx + intercept)
    ss_res = float(np.sum(residuals**2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    if ss_tot < 1e-28:
        r2 = 1.0 if ss_res < 1e-28 else 0.0
    else:
        r2 = max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return FitResult(float(slope), float(intercept), r2, tuple(lx), tuple(ly))


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # pass | fail | inconclusive
    observed: str
    expected: str

    def __post_init__(self) -> None:
        if self.status not in ("pass", "fail", "inconclusive"):
            raise ValueError(f"bad status {self.status!r}")

    def line(self) -> str:
        return f"[{self.status.upper():12s}] {self.name}: {self.observed} (want {self.expected})"


@dataclass
class ExperimentResult:
    kind: str
    checks: list[CheckResult] = field(default_factory=list)
    records: dict[str, RunRecord] = field(default_factory=dict)
    fits: dict[str, FitResult] = field(default_factory=dict)
    info: dict = field(default_factory=dict)

    @property
    def status(self) -> str:
        statuses = {c.status for c in self.checks}
        if "fail" in statuses:
            return "fail"
        if "inconclusive" in statuses:
            return "inconclusive"
        return "pass"

    def add(self, name: str, ok: Optional[bool], observed: str, expected: str) -> None:
        status = "inconclusive" if ok is None else ("pass" if ok else "fail")
        self.checks.append(CheckResult(name, status, observed, expected))


def _slope_check(result: ExperimentResult, name: str, x: Sequence[float],
                 y: Sequence[float], expected: float, tol: float) -> Optional[FitResult]:
    """Check the log-log slope of y against x; returns the fit, made when
    three or more samples are all positive and finite."""
    usable = sum(0.0 < v < math.inf for v in y)
    fit = fit_loglog(x, y) if usable == len(y) >= 3 else None
    if fit is None or usable < 4:
        result.add(name, None, f"{usable} of {len(y)} samples positive and finite",
                   ">= 4 samples, all positive and finite, for a verdict")
    elif fit.r_squared < 0.98:
        result.add(name, None, f"r^2 = {fit.r_squared:.4f}", "r^2 >= 0.98 for a verdict")
    else:
        result.add(name, abs(fit.slope - expected) <= tol,
                   f"slope = {fit.slope:.4f} (r^2 = {fit.r_squared:.4f})",
                   f"{expected:+.4f} +/- {tol}")
    return fit


# -- sweep parallelism -------------------------------------------------------------

def _max_workers(n_tasks: int) -> int:
    raw = os.environ.get("ZRLAB_THREADS", "0").strip()
    try:
        cap = int(raw) if raw else 0
    except ValueError:
        raise ConfigError(f"ZRLAB_THREADS must be an integer, got {raw!r}")
    if cap <= 0:
        cap = min(4, os.cpu_count() or 1)
    return max(1, min(cap, n_tasks))


def _run_sweep(keys: Sequence, worker: Callable) -> list:
    """Run worker(key) for every key, largest key (the longest member) first;
    returns the results in ascending key order."""
    keys = sorted(keys, reverse=True)
    with ThreadPoolExecutor(max_workers=_max_workers(len(keys))) as pool:
        return list(pool.map(worker, keys))[::-1]


def _run_batched(tasks: Sequence, cost: Callable, step: Callable) -> list:
    """Run step(batch) -> one outcome per task, for one batch of tasks per pool
    worker; returns the outcomes in task order.  Longest first: each task, by
    descending cost, joins the batch with the least total cost so far."""
    batches: list[list[int]] = [[] for _ in range(_max_workers(len(tasks)))]
    for i in sorted(range(len(tasks)), key=lambda i: -cost(tasks[i])):
        min(batches, key=lambda batch: sum(cost(tasks[j]) for j in batch)).append(i)
    parts = _run_sweep(range(len(batches)), lambda b: step([tasks[i] for i in batches[b]]))
    by_task = {i: outcome for batch, part in zip(batches, parts) for i, outcome in zip(batch, part)}
    return [by_task[i] for i in range(len(tasks))]


def _sweep_slope(result: ExperimentResult, name: str, table: list[dict], column: str,
                 expected: float) -> list[float]:
    """Record a sweep's member table and check the log-log slope of `column`
    against N (fit `name`, check `<name>_slope`); returns the column."""
    result.info["members"] = table
    result.info["expected_slope"] = expected
    values = [m[column] for m in table]
    fit = _slope_check(result, f"{name}_slope", [m["N"] for m in table], values, expected, 0.1)
    if fit is not None:
        result.fits[name] = fit
    return values


# -- shared data builders ------------------------------------------------------------

def _smooth_random(grid: SpectralGrid, rng: np.random.Generator,
                   amplitude: float, width: float, real: bool) -> np.ndarray:
    """Band-limited random field with Gaussian spectral envelope."""
    envelope = np.exp(-((grid.wavenumbers * width / 4.0) ** 2))
    coeffs = envelope * (rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n))
    values = grid.inverse(coeffs * grid.dealias_mask)
    if real:
        values = values.real
    return values * (amplitude / grid.sobolev_norm(values, 0.0))


def _initial_state(spec: ExperimentSpec, grid: SpectralGrid,
                   coeffs: GeneralCoefficients) -> tuple[FieldState, Optional[float]]:
    """Initial data for simulate/conserve/growth; returns (state, plane-wave Omega).
    growth has no `initial` key and always starts from the Gaussian."""
    t = spec.table
    x = grid.x
    kind_initial = t.get("initial", "gaussian")
    if kind_initial == "plane_wave":
        return plane_wave_state(grid, coeffs, t["amplitude"], t["kappa"], t["c1"], t["c2"])
    if kind_initial in ("gaussian", "plateau"):
        shape = np.exp(-((x / t["width"]) ** 2)) if kind_initial == "gaussian" \
            else cf.smooth_plateau(x)
        psi_amp = t["psi_amplitude"]
        psi = psi_amp * np.exp(-((x / t["psi_width"]) ** 2)) if psi_amp else np.zeros(grid.n)
        return FieldState(grid, t["amplitude"] * shape, psi, psi, 0.0), None
    if kind_initial == "random":
        rng = np.random.default_rng(t["seed"])
        b = _smooth_random(grid, rng, t["amplitude"], t["width"], real=False)
        psi_amp = t["psi_amplitude"]
        psi1, psi2 = (_smooth_random(grid, rng, psi_amp, t["psi_width"], real=True)
                      if psi_amp else np.zeros(grid.n) for _ in range(2))
        return FieldState(grid, b, psi1, psi2, 0.0), None
    raise ConfigError(f"unknown initial preset {kind_initial!r}")


def _rel_drift(series: Sequence[float]) -> float:
    arr = np.asarray(series, dtype=np.float64)
    base = arr[0]
    scale = abs(base) if abs(base) > 1e-12 else 1.0
    return float(np.max(np.abs(arr - base))) / scale


def _preset_run(spec: ExperimentSpec, result: ExperimentResult, s_list: Sequence[float]):
    """Set up a simulate/conserve/growth run: build the initial data (noting
    its boundary mass in `result`) and return (initial state, plane-wave
    Omega or None, run), where run(dt) evolves the data with step dt under
    the invariant observer, recording at the spec's record times, and
    returns (final state, record)."""
    grid = SpectralGrid(spec.grid_length, spec.grid_n)
    coeffs = spec.coefficients()
    state0, omega_freq = _initial_state(spec, grid, coeffs)
    frac = grid.boundary_mass_fraction(state0.b)
    result.info["boundary_mass_fraction"] = frac
    if frac > 1e-8:
        logger.warning("initial data carries %.2e of its mass near the boundary "
                       "(want < 1e-8); consider a larger grid length", frac)
    # the normalized preset has no physical energy: the unit parameters stand
    # in, and only Q1 and the momentum part (preset-independent) back a verdict
    params = spec.physical_params()

    def observe(state: FieldState) -> dict[str, float]:
        return conserved_quantities(state, params, s_list)

    def run(dt: float) -> tuple[FieldState, RunRecord]:
        steps_per_record = max(1, int(round(spec.record_every * spec.dt / dt)))
        config = StepperConfig(dt=dt, t_end=spec.t_end, record_every=steps_per_record)
        return evolve(state0, coeffs, config, observers=(observe,))

    return state0, omega_freq, run


# -- runners and dispatch -----------------------------------------------------------

_RUNNERS: dict[str, Callable[[ExperimentSpec], ExperimentResult]] = {}


def _runner(body: Callable[[ExperimentSpec, ExperimentResult], None]):
    """Register body(spec, result), named run_<kind>, as kind's runner and
    return run_<kind>(spec) -> ExperimentResult.  The runner owns the run
    contract: a fresh result for every run, and a blow-up anywhere in the
    body becomes the failed completion check, after the checks the body
    had added."""
    kind = body.__name__.removeprefix("run_")

    def run(spec: ExperimentSpec) -> ExperimentResult:
        result = ExperimentResult(kind)
        try:
            body(spec, result)
        except BlowUpError as exc:
            result.add("completion", False, f"blow-up at t = {exc.time:.6g}", "finite fields")
        return result

    run.__name__ = run.__qualname__ = body.__name__
    run.__doc__ = body.__doc__
    _RUNNERS[kind] = run
    return run


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    try:
        runner = _RUNNERS[spec.kind]
    except KeyError:
        raise ConfigError(f"unknown experiment kind {spec.kind!r}")
    return runner(spec)


# -- simulate -----------------------------------------------------------------------

@_runner
def run_simulate(spec: ExperimentSpec, result: ExperimentResult) -> None:
    """Plain evolution with invariant/norm recording; verdict = completion."""
    _, omega_freq, run = _preset_run(spec, result, spec.table["s_list"])
    final, record = run(spec.dt)
    result.records["series"] = record
    result.add("completion", True, f"reached t = {final.time:.6g}", f"t_end = {spec.t_end}")
    if omega_freq is not None:
        result.info["plane_wave_omega"] = omega_freq


# -- conserve -----------------------------------------------------------------------

@_runner
def run_conserve(spec: ExperimentSpec, result: ExperimentResult) -> None:
    """Invariant-drift audit: Q1 to near round-off, Q4 to o(dt^2)."""
    _, _, run = _preset_run(spec, result, spec.table["s_list"])

    # Q3/Q4 back a verdict only when the run is an actual physical-parameter
    # flow with the global-existence signs; the normalized preset gets the
    # structural Q1 check alone.
    physical_flow = spec.preset != "normalized" and spec.physical_params().global_existence

    _, record = run(spec.dt)
    result.records["series"] = record

    q1_drift = _rel_drift(record.column("Q1"))
    result.add("q1_drift", q1_drift < 1e-10, f"{q1_drift:.3e}", "< 1e-10")
    result.info["q1_drift"] = q1_drift

    if physical_flow:
        q4_drift = _rel_drift(record.column("Q4"))
        result.add("q4_drift", q4_drift < 1e-6, f"{q4_drift:.3e}", "< 1e-06")
        result.info["q4_drift"] = q4_drift
        result.info["q2_drift"] = _rel_drift(record.column("Q2"))
        result.info["q3_drift"] = _rel_drift(record.column("Q3"))

        _, record_half = run(0.5 * spec.dt)
        result.records["series_half_dt"] = record_half
        half_drift = _rel_drift(record_half.column("Q4"))
        ratio = q4_drift / half_drift if half_drift > 0 else None  # no drift, no order
        result.info["q4_drift_half_dt"] = half_drift
        result.info["richardson_ratio"] = ratio
        result.add("q4_order2", None if ratio is None else 3.5 <= ratio <= 4.5,
                   "Q4 drift 0 at dt/2" if ratio is None else f"ratio = {ratio:.3f}",
                   "in [3.5, 4.5] (second-order drift)")
    else:
        result.info["note"] = ("preset lacks a physical-parameter energy; "
                               "Q2-Q4 columns are diagnostics only")


# -- inflate ------------------------------------------------------------------------

def inflation_grid(n_freq: int, modes_per_hat: int) -> SpectralGrid:
    """Grid whose frequency lattice contains the hat edges exactly and whose
    dealiased band covers the doubled data support |xi| <= 2N + 2 + 2/N."""
    length = 2.0 * math.pi * modes_per_hat * n_freq
    need = 2.0 * n_freq + 2.0 + 2.0 / n_freq
    n = next_fast_len(3.0 * modes_per_hat * n_freq * need)
    return SpectralGrid(length, n)


def inflate_member(n_freq: int, k: float, l: float, t_probe: float, dt: float,
                   variant: str, modes_per_hat: int, nodes: int,
                   coeffs: GeneralCoefficients) -> dict:
    """One N of the inflation sweep: solver norm, oracle norm, ratio.

    The envelope data is the two-bump hat family normalized to unit H^k
    (frequency-integral convention); the solver starts from (f_N, 0, 0) and
    the measured field is psi1 for variant 'f' (resonant with the speed +1
    transport flow) or psi2 for variant 'g' (speed -1).
    """
    hats = cf.normalize_hats(cf.build_fN(n_freq, k, f"inflation_{variant}"), k, nodes)
    grid = inflation_grid(n_freq, modes_per_hat)
    b0 = cf.synthesize_hat_field(grid, hats)
    state = FieldState(grid, b0, np.zeros(grid.n), np.zeros(grid.n), 0.0)

    config = StepperConfig.spanning(t_probe, dt)
    final, _ = evolve(state, coeffs, config)

    if variant == "f":
        target, speed, source = final.psi1, coeffs.speed_plus, coeffs.source_plus
    else:
        target, speed, source = final.psi2, coeffs.speed_minus, coeffs.source_minus
    solver_norm = grid.sobolev_norm(target, l)
    oracle = cf.as_grid_norm(cf.first_order_psi1(t_probe, hats, l, speed=speed,
                                                 source=source, nodes=nodes))
    return {
        "N": n_freq,
        "grid_n": grid.n,
        "grid_length": grid.length,
        "dt": config.dt,
        "solver_norm": solver_norm,
        "oracle_norm": oracle,
        "ratio": solver_norm / oracle if oracle > 0 else math.inf,
        "data_norm_hk": cf.hat_sobolev_norm(hats, k, nodes),
    }


@_runner
def run_inflate(spec: ExperimentSpec, result: ExperimentResult) -> None:
    """Norm-inflation sweep: ||psi(t_probe)||_{H^l} ~ t * N^(l - (2k - 1/2))."""
    t = spec.table
    k, l, variant = t["k"], t["l"], t["variant"]
    expected = expected_inflation_slope(k, l)
    if expected > 0.5 + 1e-12:
        result.info["regime_note"] = (
            "l - (2k - 1/2) > 1/2: the first-order rate is extrapolated beyond "
            "the regime the reduction argument targets; slope taken from the "
            "same formula and flagged here")

    coeffs = spec.coefficients()

    def worker(n_freq: int) -> dict:
        member = inflate_member(n_freq, k, l, t["t_probe"], spec.dt, variant,
                                t["modes_per_hat"], t["nodes"], coeffs=coeffs)
        logger.info("inflate N=%d: solver %.6e oracle %.6e ratio %.4f",
                    n_freq, member["solver_norm"], member["oracle_norm"], member["ratio"])
        return member

    table = _run_sweep(t["n_list"], worker)
    for member in table:  # a zero or overflowed oracle norm leaves no ratio to judge
        ok = 0.8 <= member["ratio"] <= 1.25 if member["ratio"] < math.inf else None
        result.add(f"oracle_ratio_N{member['N']}", ok,
                   f"{member['ratio']:.4f}", "in [0.8, 1.25]")
    _sweep_slope(result, "inflation", table, "solver_norm", expected)


# -- c2probe ------------------------------------------------------------------------

@_runner
def run_c2probe(spec: ExperimentSpec, result: ExperimentResult) -> None:
    """Second-derivative (bilinear kernel) growth probe, pure quadrature.

    B0 is normalized to unit H^k; the transport bump keeps its literal
    amplitude N^(1/2 - l) (its H^l norm, which grows like sqrt(2) N^{-l}, is
    recorded per member — normalizing it away would also flatten the probed
    growth).
    """
    t = spec.table
    k, l, t_probe, nodes = t["k"], t["l"], t["t_probe"], t["nodes"]
    expected = expected_c2_slope(l)

    # the hat data, and with it the cached GL rule, built once here, not per worker;
    # one task per (time nodes, N): the costlier dual-route tasks start first
    data = {n: (cf.normalize_hats(cf.build_fN(n, k, "c2_B0"), k, nodes)[0],
                cf.build_c2_psi10(n, l)[0]) for n in t["n_list"]}
    keys = [(time_nodes, n) for time_nodes in (0, 64) for n in data]
    norms = dict(zip(sorted(keys), _run_sweep(keys, lambda key: cf.l_hat_norm(
        t_probe, *data[key[1]], k, nodes, key[0]))))
    table = [{
        "N": n,
        "norm": norms[0, n],
        "dual_route": norms[64, n],
        "dual_rel_diff": abs(norms[0, n] - norms[64, n]) / norms[0, n] if norms[0, n] > 0 else None,
        "psi10_norm_hl": cf.hat_sobolev_norm([psi10], l, nodes),
        "b0_norm_hk": cf.hat_sobolev_norm([b0], k, nodes),
    } for n, (b0, psi10) in data.items()]
    unsound = sum(not 0.0 < m["norm"] < math.inf for m in table)  # no diff or order to judge
    missing = f"{unsound} of {len(table)} norms zero or not finite"
    worst_dual = None if unsound else max(m["dual_rel_diff"] for m in table)
    if unsound:
        result.add("dual_route", None, missing, "<= 1e-6")
    else:
        result.add("dual_route", worst_dual <= 1e-6, f"max rel diff {worst_dual:.3e}", "<= 1e-6")
    result.info["dual_route_max_rel_diff"] = worst_dual
    values = _sweep_slope(result, "c2", table, "norm", expected)

    if expected > 0.05 and len(values) >= 2:
        monotone = all(a < b for a, b in zip(values, values[1:]))
        observed = "norm strictly increasing in N" if monotone else "norm not monotone in N"
        result.add("unbounded_growth", None if unsound else monotone,
                   missing if unsound else observed, "strictly increasing (contradiction engine)")


# -- decohere -----------------------------------------------------------------------

@_runner
def run_decohere(spec: ExperimentSpec, result: ExperimentResult) -> None:
    """Decoherence pair: identical data, two scale parameters, O(1) drift apart.

    Verdict-bearing comparisons live in the rescaled (comoving) frame, where
    the two runs share initial data exactly.  The structural relations
    (L2^2 - L1^2) T = pi/2 and Theta^2 = mu/M hold exactly and are asserted
    as such.  The resolution guard covers every run before any run steps;
    then the runs step as one batch per pool worker, each run's result bit
    for bit what a lone `evolve` returns, whatever batch it lands in.
    """
    t = spec.table
    mu, m_big, c, k_reg = t["mu"], t["m"], t["c"], t["k_reg"]
    grid = SpectralGrid(spec.grid_length, spec.grid_n)
    b0, psi_plus0 = cf.smooth_plateau(grid.x), cf.modulated_sinc(grid.x)

    pairs, sweep_keys = decohere_pairs(t)
    mu_list = [mu_j for mu_j, _ in sweep_keys]
    check_decohere_band(grid.n, grid.length, pairs)
    runs = [(pair, tag) for pair in pairs.values() for tag in ("L1", "L2")]
    members = [(FieldState(grid, b0, psi_plus0, np.zeros(grid.n), 0.0),
                modified_system_coefficients(pair["mu"], pair[tag], c, pair["theta_sq"]),
                StepperConfig.spanning(pair["t_internal"][tag], spec.dt, spec.record_every))
               for pair, tag in runs]

    def observe(st: FieldState) -> dict[str, float]:  # Q1 as conserved_quantities forms it
        diff = grid.forward(st.b - cf.small_dispersion_solution(b0, psi_plus0, st.time))
        return {"Q1": grid.dx * float(np.sum(np.abs(st.b) ** 2)),
                "devA_L2": grid.sobolev_norm_coeffs(diff, 0.0),
                "devA_Hk": grid.sobolev_norm_coeffs(diff, k_reg)}

    outcomes = _run_batched(members, lambda member: member[2].steps,
                            lambda batch: evolve_members(*zip(*batch), observers=(observe,)))
    for (pair, tag), (state, _, config), (final, record) in zip(runs, members, outcomes):
        diag = {"dt": config.dt, "steps": config.steps,
                "q1_drift": _rel_drift(record.column("Q1")),
                "dev_sup_L2": float(np.max(record.column("devA_L2"))),
                "dev_sup_Hk": float(np.max(record.column("devA_Hk")))}
        pair.setdefault("runs", {})[tag] = {"record": record, "initial": state,
                                            "final": final, "diag": diag}
    target = grid.sobolev_norm((np.exp(1j * 0.5 * math.pi * psi_plus0) - 1.0) * b0, 0.0)
    for pair in pairs.values():
        one, two = pair["runs"]["L1"], pair["runs"]["L2"]
        pair["analytic_target"] = target
        pair["separation_final"] = grid.sobolev_norm(two["final"].b - one["final"].b, 0.0)
        pair["separation_initial"] = grid.sobolev_norm(two["initial"].b - one["initial"].b, 0.0)
        for norm in ("Hk", "L2"):
            pair[f"dev_over_mu_{norm}"] = max(run["diag"][f"dev_sup_{norm}"]
                                              for run in (one, two)) / pair["mu"]
    pair = pairs[(mu, m_big)]
    for tag in ("L1", "L2"):
        result.records[f"series_{tag}"] = pair["runs"][tag]["record"]

    # exact structural relations of the parameter scheme
    gap = (pair["L2"] ** 2 - pair["L1"] ** 2) * pair["T"]
    ok_gap = abs(gap - 0.5 * math.pi) <= 1e-12 * math.pi
    result.add("phase_gap", ok_gap, f"(L2^2 - L1^2) T = {gap!r}", "pi/2 exactly")
    ok_theta = pair["theta_sq"] == mu / m_big
    result.add("theta_relation", ok_theta, f"Theta^2 = {pair['theta_sq']!r}", "mu/M exactly")

    q1_worst = max(pair["runs"][tag]["diag"]["q1_drift"] for tag in ("L1", "L2"))
    result.add("q1_drift", q1_worst <= 1e-10, f"{q1_worst:.3e}", "<= 1e-10 per run")

    sep, target = pair["separation_final"], pair["analytic_target"]
    ratio = sep / target if target > 0 else math.inf
    result.add("separation_target", 0.5 <= ratio <= 1.5,
               f"final separation {sep:.4f} = {ratio:.3f} x target {target:.4f}",
               "in [0.5, 1.5] x analytic target")
    init_ok = pair["separation_initial"] < 0.1 * sep
    result.add("initial_separation", init_ok,
               f"{pair['separation_initial']:.3e}", f"< 0.1 x final = {0.1 * sep:.3e}")

    result.info["pair"] = {k: v for k, v in pair.items() if k != "runs"}
    result.info["run_diagnostics"] = {tag: pair["runs"][tag]["diag"] for tag in ("L1", "L2")}
    result.info["asymptotic_regime"] = {
        "L1_ge_mu^-5": pair["L1"] >= mu**-5,
        "T_le_log": pair["T"] <= abs(math.log(mu)),
    }

    columns = ("mu", "m", "dev_over_mu_Hk", "dev_over_mu_L2", "separation_final",
               "analytic_target")
    table = [{name: pairs[key][name] for name in columns} for key in sweep_keys]
    result.info["mu_sweep"] = table
    cs = [row["dev_over_mu_Hk"] for row in table]
    stability = max(cs) / min(cs) if min(cs) > 0 else math.inf
    result.info["dev_constant_stability"] = stability
    result.add("dev_bound_stability", stability <= 3.0,
               f"max/min of sup||B - A||_Hk / mu = {stability:.3f} over mu = {mu_list}",
               "<= 3.0 (constant stable to +/-50%)")


# -- growth -------------------------------------------------------------------------

@_runner
def run_growth(spec: ExperimentSpec, result: ExperimentResult) -> None:
    """Long-horizon Sobolev growth audit against a priori envelopes."""
    # H^1 is always audited; s_list's entries lie in [1, 8]
    columns = hs_columns((1.0, *spec.table["s_list"]))
    state0, _, run = _preset_run(spec, result, tuple(columns.values()))
    grid = state0.grid
    final, record = run(spec.dt)
    result.records["series"] = record
    times = np.asarray(record.column("t"))

    # s = 1: a priori energy envelope (global-existence regime), C1 = 10
    h1 = np.asarray(record.column("HsB_1"))
    q1_0 = record.column("Q1")[0]
    data_sq = (h1[0] ** 2
               + grid.sobolev_norm(state0.psi1, 0.0) ** 2
               + grid.sobolev_norm(state0.psi2, 0.0) ** 2)
    envelope = 10.0 * (data_sq + q1_0**3)
    sup_h1 = float(np.max(h1))
    result.info["h1_envelope"] = envelope
    result.info["h1_sup"] = sup_h1
    result.add("h1_apriori", sup_h1 <= envelope,
               f"sup ||B||_H1 = {sup_h1:.4f}",
               f"<= C1 (||data||^2 + Q1^3) = {envelope:.4f}")

    # s > 1: polynomial-in-time envelope exponent of the running maximum
    for column, s in list(columns.items())[1:]:
        env = np.maximum.accumulate(record.column(column))
        if len(env) < 4 or not np.all(env > 0):  # an underflowed norm has no logarithm
            result.add(f"growth_exponent_s{s:g}", None, f"{np.count_nonzero(env > 0)} positive "
                       f"of {len(env)} samples", ">= 4 samples, all positive, for a fit")
            continue
        fit = fit_loglog(1.0 + times, env)
        result.fits[f"growth_s{s:g}"] = fit
        cap = (s - 1.0) + 0.5
        result.add(f"growth_exponent_s{s:g}", fit.slope <= cap,
                   f"envelope exponent {fit.slope:.4f} (r^2 = {fit.r_squared:.3f})",
                   f"<= {cap}")

    hpsi = np.maximum(record.column("Hpsi1"), record.column("Hpsi2"))
    _psi_envelope_check(result, times, hpsi, q1_0)
    result.info["final_time"] = final.time


def _psi_envelope_check(result: ExperimentResult, times: np.ndarray, hpsi: np.ndarray,
                        q1_0: float) -> None:
    """psi fields against the exponential envelope max(Hpsi(0), Q1(0)) exp(C Q1(0) t):
    the constant C^ is fitted on the first half of the horizon, and the check
    passes when the whole series stays under the envelope with C = 1.05 C^."""
    grow = (times <= 0.5 * times[-1]) & (times > 0)
    if q1_0 <= 0 or not np.any(grow):
        result.add("psi_envelope", None, f"Q1(0) = {q1_0:.4g}, {np.count_nonzero(grow)} record "
                   f"times in (0, {0.5 * times[-1]:.4g}]", "Q1(0) > 0 and a time to fit C^ on")
        return
    m0 = max(hpsi[0], q1_0)
    with np.errstate(divide="ignore"):
        y = np.log(np.maximum(hpsi, 1e-300) / m0)
    c_hat = max(0.0, float(np.max(y[grow] / (times[grow] * q1_0))))
    bound = 1.05 * c_hat * times * q1_0 + 1e-9
    ok = bool(np.all(y <= bound))
    result.info["c_hat"] = c_hat
    result.info["psi_envelope_base"] = m0
    result.add("psi_envelope", ok,
               f"C^ = {c_hat:.4f} fitted on [0, {0.5 * times[-1]:.1f}]",
               "exp envelope holds on the full horizon (5% slack)")
