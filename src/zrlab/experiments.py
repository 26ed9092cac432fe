"""Preset experiment pipelines.

Each run_* function consumes a validated ExperimentSpec and returns an
ExperimentResult bundling time-series records, log-log fits, and a verdict
made of named checks.  Scaling claims are operationalized as least-squares
slopes in log-log coordinates over at least four points with r^2 >= 0.98;
anything less yields the verdict "inconclusive", never "pass".

Sweeps (over N or mu) run members in parallel threads; each member is
sequential and results are merged by sorted key, so records are
deterministic for a fixed spec.  ZRLAB_THREADS caps the pool (0 = auto).
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
from .config import ConfigError, ExperimentSpec, check_inflation_band, inflation_band
from .evolution import BlowUpError, StepperConfig, evolve
from .grid import SpectralGrid, next_pow2
from .model import (ExternalPotential, FieldState, GeneralCoefficients,
                    PhysicalParams, coefficients_from_params, conserved_quantities,
                    iteration_schedule, modified_system_coefficients,
                    normalized_coefficients, plane_wave_state, unit_physical_params)
from .records import RunRecord

__all__ = [
    "FitResult",
    "CheckResult",
    "ExperimentResult",
    "fit_loglog",
    "expected_inflation_slope",
    "expected_c2_slope",
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

    def predict(self, log_x: np.ndarray) -> np.ndarray:
        return self.slope * np.asarray(log_x) + self.intercept


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


def _slope_check(result: ExperimentResult, name: str, fit: Optional[FitResult],
                 expected: float, tol: float) -> None:
    if fit is None or len(fit.log_x) < 4:
        result.add(name, None, "fewer than 4 sample points", ">= 4 points for a verdict")
        return
    if fit.r_squared < 0.98:
        result.add(name, None, f"r^2 = {fit.r_squared:.4f}", "r^2 >= 0.98 for a verdict")
        return
    ok = abs(fit.slope - expected) <= tol
    result.add(name, ok, f"slope = {fit.slope:.4f} (r^2 = {fit.r_squared:.4f})",
               f"{expected:+.4f} +/- {tol}")


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


def _run_sweep(tasks: dict, worker: Callable) -> dict:
    """Run worker(key, payload) for every task; merge by sorted key."""
    keys = sorted(tasks)
    workers = _max_workers(len(keys))
    if workers == 1:
        return {k: worker(k, tasks[k]) for k in keys}
    with ThreadPoolExecutor(max_workers=workers) as pool:
        out = list(pool.map(lambda k: worker(k, tasks[k]), keys))
    return dict(zip(keys, out))


# -- shared data builders ------------------------------------------------------------

def _grid_for(spec: ExperimentSpec) -> SpectralGrid:
    assert spec.grid_n is not None and spec.grid_length is not None
    return SpectralGrid(spec.grid_length, spec.grid_n)


def _coeffs_for(spec: ExperimentSpec) -> GeneralCoefficients:
    if spec.preset == "normalized":
        return normalized_coefficients()
    if spec.preset == "unit_physical":
        return coefficients_from_params(unit_physical_params())
    if spec.preset == "physical":
        return coefficients_from_params(spec.physical_params())
    raise ConfigError(f"kind {spec.kind} has no coefficient preset")


def _report_params(spec: ExperimentSpec) -> PhysicalParams:
    """Parameters used to evaluate the recorded invariants.

    For the normalized preset (not realizable from physical constants) the
    unit parameters stand in: Q1 and the momentum part are preset-independent
    and only those back a verdict there.
    """
    if spec.preset == "physical":
        return spec.physical_params()
    return unit_physical_params()


def _gaussian(x: np.ndarray, amplitude: float, width: float) -> np.ndarray:
    return amplitude * np.exp(-((x / width) ** 2))


def _smooth_random(grid: SpectralGrid, rng: np.random.Generator,
                   amplitude: float, width: float, real: bool) -> np.ndarray:
    """Band-limited random field with Gaussian spectral envelope."""
    envelope = np.exp(-((grid.wavenumbers * width / 4.0) ** 2))
    coeffs = envelope * (rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n))
    values = grid.inverse(grid.dealias(coeffs))
    if real:
        values = values.real
    norm = grid.sobolev_norm(values, 0.0)
    if norm == 0.0:
        return np.zeros(grid.n, dtype=np.float64 if real else np.complex128)
    return values * (amplitude / norm)


def _initial_state(spec: ExperimentSpec, grid: SpectralGrid,
                   coeffs: GeneralCoefficients) -> tuple[FieldState, Optional[float]]:
    """Initial data for simulate/conserve/growth; returns (state, plane-wave Omega).
    growth has no `initial` key and always starts from the Gaussian."""
    t = spec.table
    x = grid.x
    kind_initial = t.get("initial", "gaussian")
    if kind_initial == "plane_wave":
        state, omega_freq = plane_wave_state(grid, coeffs, t["amplitude"], t["kappa"],
                                             t["c1"], t["c2"])
        return state, omega_freq
    if kind_initial == "gaussian":
        b = _gaussian(x, t["amplitude"], t["width"]).astype(np.complex128)
        psi = _gaussian(x, t["psi_amplitude"], t["psi_width"])
        return FieldState(grid, b, psi.copy(), psi.copy(), 0.0), None
    if kind_initial == "plateau":
        b = (t["amplitude"] * cf.smooth_plateau(x)).astype(np.complex128)
        psi = _gaussian(x, t["psi_amplitude"], t["psi_width"])
        return FieldState(grid, b, psi.copy(), psi.copy(), 0.0), None
    if kind_initial == "random":
        rng = np.random.default_rng(t["seed"])
        b = _smooth_random(grid, rng, t["amplitude"], t["width"], real=False)
        psi_amp = t["psi_amplitude"]
        psi1 = _smooth_random(grid, rng, psi_amp, t["psi_width"], real=True) \
            if psi_amp else np.zeros(grid.n)
        psi2 = _smooth_random(grid, rng, psi_amp, t["psi_width"], real=True) \
            if psi_amp else np.zeros(grid.n)
        return FieldState(grid, b, psi1, psi2, 0.0), None
    raise ConfigError(f"unknown initial preset {kind_initial!r}")


def _observer(params: PhysicalParams, s_list: Sequence[float], psi_index: float):
    s_tuple = tuple(float(s) for s in s_list)

    def observe(state: FieldState) -> dict[str, float]:
        rep = conserved_quantities(state, params, s_tuple, psi_index)
        row = {"Q1": rep.q1, "Q2": rep.q2, "Q3": rep.q3, "Q4": rep.q4,
               "Hpsi1": rep.psi1_norm, "Hpsi2": rep.psi2_norm}
        for s, value in rep.b_norms.items():
            row[f"HsB_{s:g}"] = value
        return row

    return observe


def _log_schedule(result: ExperimentResult, state: FieldState) -> None:
    g = state.grid
    sched = iteration_schedule(g.sobolev_norm(state.psi1, 0.0),
                               g.sobolev_norm(state.psi2, 0.0),
                               g.sobolev_norm(state.b, 0.0))
    logger.info("iteration schedule estimate: dT = %.6g, m = %d (horizon %.6g)",
                sched.dt, sched.steps, sched.horizon)
    result.info["schedule"] = {"dt": sched.dt, "steps": sched.steps, "horizon": sched.horizon}


def _boundary_note(result: ExperimentResult, state: FieldState) -> None:
    frac = state.grid.boundary_mass_fraction(state.b)
    result.info["boundary_mass_fraction"] = frac
    if frac > 1e-8:
        logger.warning("initial data carries %.2e of its mass near the boundary "
                       "(want < 1e-8); consider a larger grid length", frac)


def _rel_drift(series: Sequence[float]) -> float:
    arr = np.asarray(series, dtype=np.float64)
    base = arr[0]
    scale = abs(base) if abs(base) > 1e-12 else 1.0
    return float(np.max(np.abs(arr - base))) / scale


def _preset_run(spec: ExperimentSpec, result: ExperimentResult, s_list: Sequence[float]):
    """Set up a simulate/conserve/growth run: build the initial data (noting
    boundary mass and the iteration schedule in `result`) and return
    (initial state, plane-wave Omega or None, run), where run(dt) evolves the
    data with step dt under the invariant observer, recording at the spec's
    record times."""
    grid = _grid_for(spec)
    coeffs = _coeffs_for(spec)
    state0, omega_freq = _initial_state(spec, grid, coeffs)
    _boundary_note(result, state0)
    _log_schedule(result, state0)
    obs = _observer(_report_params(spec), s_list, spec.table["psi_index"])

    def run(dt: float) -> tuple[FieldState, RunRecord]:
        steps_per_record = max(1, int(round(spec.record_every * spec.dt / dt)))
        config = StepperConfig(dt=dt, t_end=spec.t_end,
                               record_every=steps_per_record, dealias=spec.dealias)
        return evolve(state0, coeffs, config, observers=(obs,))

    return state0, omega_freq, run


# -- simulate -----------------------------------------------------------------------

def run_simulate(spec: ExperimentSpec) -> ExperimentResult:
    """Plain evolution with invariant/norm recording; verdict = completion."""
    result = ExperimentResult("simulate")
    _, omega_freq, run = _preset_run(spec, result, spec.table["s_list"])
    try:
        final, record = run(spec.dt)
    except BlowUpError as exc:
        result.add("completion", False, f"blow-up at t = {exc.time:.6g}", "finite fields")
        return result
    result.records["series"] = record
    result.add("completion", True, f"reached t = {final.time:.6g}", f"t_end = {spec.t_end}")
    if omega_freq is not None:
        result.info["plane_wave_omega"] = omega_freq
    return result


# -- conserve -----------------------------------------------------------------------

def run_conserve(spec: ExperimentSpec) -> ExperimentResult:
    """Invariant-drift audit: Q1 to near round-off, Q4 to o(dt^2)."""
    result = ExperimentResult("conserve")
    _, _, run = _preset_run(spec, result, spec.table["s_list"])

    # Q3/Q4 back a verdict only when the run is an actual physical-parameter
    # flow with the global-existence signs; the normalized preset gets the
    # structural Q1 check alone.
    physical_flow = spec.preset in ("unit_physical", "physical")
    if spec.preset == "physical":
        p = spec.physical_params()
        physical_flow = p.omega > 0 and p.beta - p.nu**2 > 0

    try:
        _, record = run(spec.dt)
    except BlowUpError as exc:
        result.add("completion", False, f"blow-up at t = {exc.time:.6g}", "finite fields")
        return result
    result.records["series"] = record

    q1_drift = _rel_drift(record.column("Q1"))
    q1_tol = spec.table["q1_tol"]
    result.add("q1_drift", q1_drift < q1_tol, f"{q1_drift:.3e}", f"< {q1_tol:g}")
    result.info["q1_drift"] = q1_drift

    if physical_flow:
        q4_drift = _rel_drift(record.column("Q4"))
        q4_tol = spec.table["q4_tol"]
        result.add("q4_drift", q4_drift < q4_tol, f"{q4_drift:.3e}", f"< {q4_tol:g}")
        result.info["q4_drift"] = q4_drift
        result.info["q2_drift"] = _rel_drift(record.column("Q2"))
        result.info["q3_drift"] = _rel_drift(record.column("Q3"))

        if spec.table["richardson"]:
            _, record_half = run(0.5 * spec.dt)
            result.records["series_half_dt"] = record_half
            half_drift = _rel_drift(record_half.column("Q4"))
            ratio = q4_drift / half_drift if half_drift > 0 else math.inf
            result.info["q4_drift_half_dt"] = half_drift
            result.info["richardson_ratio"] = ratio
            result.add("q4_order2", 3.5 <= ratio <= 4.5, f"ratio = {ratio:.3f}",
                       "in [3.5, 4.5] (second-order drift)")
    else:
        result.info["note"] = ("preset lacks a physical-parameter energy; "
                               "Q2-Q4 columns are diagnostics only")
    return result


# -- inflate ------------------------------------------------------------------------

def expected_inflation_slope(k: float, l: float) -> float:
    return l - (2.0 * k - 0.5)


def inflation_grid(n_freq: int, modes_per_hat: int,
                   explicit: Optional[SpectralGrid] = None) -> SpectralGrid:
    """Grid whose frequency lattice contains the hat edges exactly and whose
    dealiased band covers the doubled data support |xi| <= 2N + 2 + 2/N."""
    if explicit is not None:
        check_inflation_band(explicit.n, explicit.length, n_freq)
        return explicit
    length = 2.0 * math.pi * modes_per_hat * n_freq
    need = inflation_band(n_freq)
    n = next_pow2(int(math.ceil(3.0 * modes_per_hat * n_freq * need)))
    return SpectralGrid(length, n)


def inflate_member(n_freq: int, k: float, l: float, t_probe: float, dt: float,
                   variant: str, modes_per_hat: int, nodes: int,
                   coeffs: Optional[GeneralCoefficients] = None,
                   explicit_grid: Optional[SpectralGrid] = None,
                   dealias: bool = True) -> dict:
    """One N of the inflation sweep: solver norm, oracle norm, ratio.

    The envelope data is the two-bump hat family normalized to unit H^k
    (frequency-integral convention); the solver starts from (f_N, 0, 0) and
    the measured field is psi1 for variant 'f' (resonant with the speed +1
    transport flow) or psi2 for variant 'g' (speed -1).
    """
    coeffs = coeffs if coeffs is not None else normalized_coefficients()
    hats = cf.normalize_hats(cf.build_fN(n_freq, k, f"inflation_{variant}"), k, nodes)
    grid = inflation_grid(n_freq, modes_per_hat, explicit_grid)
    b0 = cf.synthesize_hat_field(grid, hats)
    state = FieldState(grid, b0.values, np.zeros(grid.n), np.zeros(grid.n), 0.0)

    steps = max(1, int(math.ceil(t_probe / dt - 1e-9)))
    dt_eff = t_probe / steps
    config = StepperConfig(dt=dt_eff, t_end=t_probe, record_every=steps, dealias=dealias)
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
        "dt": dt_eff,
        "solver_norm": solver_norm,
        "oracle_norm": oracle,
        "ratio": solver_norm / oracle if oracle > 0 else math.inf,
        "data_norm_hk": cf.hat_sobolev_norm(hats, k, nodes),
    }


def run_inflate(spec: ExperimentSpec) -> ExperimentResult:
    """Norm-inflation sweep: ||psi(t_probe)||_{H^l} ~ t * N^(l - (2k - 1/2))."""
    result = ExperimentResult("inflate")
    t = spec.table
    k, l, variant = t["k"], t["l"], t["variant"]
    n_list = list(t["n_list"])
    expected = expected_inflation_slope(k, l)
    if expected > 0.5 + 1e-12:
        result.info["regime_note"] = (
            "l - (2k - 1/2) > 1/2: the first-order rate is extrapolated beyond "
            "the regime the reduction argument targets; slope taken from the "
            "same formula and flagged here")

    explicit = None
    if spec.grid_n is not None and spec.grid_length is not None:
        explicit = SpectralGrid(spec.grid_length, spec.grid_n)
    coeffs = _coeffs_for(spec)

    def worker(n_freq: int, _payload=None) -> dict:
        member = inflate_member(n_freq, k, l, t["t_probe"], spec.dt, variant,
                                t["modes_per_hat"], t["nodes"], coeffs=coeffs,
                                explicit_grid=explicit, dealias=spec.dealias)
        logger.info("inflate N=%d: solver %.6e oracle %.6e ratio %.4f",
                    n_freq, member["solver_norm"], member["oracle_norm"], member["ratio"])
        return member

    members = _run_sweep({n: None for n in n_list}, worker)
    table = [members[n] for n in sorted(members)]
    result.info["members"] = table
    result.info["expected_slope"] = expected

    for member in table:
        ok = 0.8 <= member["ratio"] <= 1.25
        result.add(f"oracle_ratio_N{member['N']}", ok,
                   f"{member['ratio']:.4f}", "in [0.8, 1.25]")

    values = [m["solver_norm"] for m in table]
    fit = None
    if len(table) >= 3 and all(v > 0 for v in values):
        fit = fit_loglog([m["N"] for m in table], values)
        result.fits["inflation"] = fit
    _slope_check(result, "inflation_slope", fit, expected, 0.1)
    return result


# -- c2probe ------------------------------------------------------------------------

def expected_c2_slope(l: float) -> float:
    return -l - 0.5


def run_c2probe(spec: ExperimentSpec) -> ExperimentResult:
    """Second-derivative (bilinear kernel) growth probe, pure quadrature.

    B0 is normalized to unit H^k; the transport bump keeps its literal
    amplitude N^(1/2 - l) (its H^l norm, which grows like sqrt(2) N^{-l}, is
    recorded per member — normalizing it away would also flatten the probed
    growth).
    """
    result = ExperimentResult("c2probe")
    t = spec.table
    k, l, t_probe, nodes = t["k"], t["l"], t["t_probe"], t["nodes"]
    n_list = list(t["n_list"])
    expected = expected_c2_slope(l)

    def worker(n_freq: int, _payload=None) -> dict:
        b0 = cf.normalize_hats(cf.build_fN(n_freq, k, "c2_B0"), k, nodes)[0]
        psi10 = cf.build_c2_psi10(n_freq, l)[0]
        value = cf.l_hat_norm(t_probe, b0, psi10, k, nodes)
        dual = cf.l_hat_norm(t_probe, b0, psi10, k, nodes, time_quadrature=True)
        return {
            "N": n_freq,
            "norm": value,
            "dual_route": dual,
            "dual_rel_diff": abs(value - dual) / value if value > 0 else 0.0,
            "psi10_norm_hl": cf.hat_sobolev_norm([psi10], l, nodes),
            "b0_norm_hk": cf.hat_sobolev_norm([b0], k, nodes),
        }

    members = _run_sweep({n: None for n in n_list}, worker)
    table = [members[n] for n in sorted(members)]
    result.info["members"] = table
    result.info["expected_slope"] = expected

    worst_dual = max(m["dual_rel_diff"] for m in table)
    result.add("dual_route", worst_dual <= 1e-6, f"max rel diff {worst_dual:.3e}", "<= 1e-6")
    result.info["dual_route_max_rel_diff"] = worst_dual

    values = [m["norm"] for m in table]
    fit = None
    if len(table) >= 3 and all(v > 0 for v in values):
        fit = fit_loglog([m["N"] for m in table], values)
        result.fits["c2"] = fit
    _slope_check(result, "c2_slope", fit, expected, 0.1)

    if expected > 0.05 and len(values) >= 2:
        monotone = all(a < b for a, b in zip(values, values[1:]))
        result.add("unbounded_growth", monotone,
                   "norm strictly increasing in N" if monotone else "norm not monotone in N",
                   "strictly increasing (contradiction engine)")
    return result


# -- decohere -----------------------------------------------------------------------

def _decohere_profiles(grid: SpectralGrid) -> tuple[np.ndarray, np.ndarray]:
    b0 = cf.smooth_plateau(grid.x)
    psi_plus0 = cf.modulated_sinc(grid.x)
    return b0, psi_plus0


def _decohere_run(grid: SpectralGrid, mu: float, big_l: float, c: float,
                  theta_sq: float, t_end: float, dt_hint: float, record_every: int,
                  k_reg: float, dealias: bool) -> dict:
    """One rescaled-frame run up to internal time t_end: its record, initial
    and final states, and diagnostics."""
    b0, psi_plus0 = _decohere_profiles(grid)
    coeffs = modified_system_coefficients(mu, big_l, c, theta_sq)
    coeffs = coeffs.with_externals(
        ExternalPotential(psi_plus0, coeffs.speed_plus), None)

    # resolution guard: the phase gradient grows at most like t * max|psi'|,
    # so the dealiased band must hold the data band plus that chirp
    band = float(np.max(np.abs(grid.wavenumbers[grid.dealias_mask])))
    data_band = 8.0
    chirp = t_end * float(np.max(np.abs(grid.derivative(psi_plus0, 1))))
    if band < data_band + chirp:
        raise ConfigError(
            f"under-resolved small-dispersion run: dealiased band {band:.1f} "
            f"< {data_band + chirp:.1f} needed for internal horizon {t_end:.3f}")

    steps = max(1, int(math.ceil(t_end / dt_hint - 1e-9)))
    dt = t_end / steps
    state = FieldState(grid, b0.astype(np.complex128), np.zeros(grid.n),
                       np.zeros(grid.n), 0.0)
    params = unit_physical_params()
    b0_field = cf.ComplexField(grid, b0)
    psi_minus0 = np.zeros(grid.n)

    def observe(st: FieldState) -> dict[str, float]:
        rep = conserved_quantities(st, params, (k_reg,), -0.5)
        target = cf.small_dispersion_solution(b0_field, psi_plus0, psi_minus0, st.time)
        diff = st.b - target.values
        return {"Q1": rep.q1, "Q2": rep.q2, "Q3": rep.q3, "Q4": rep.q4,
                f"HsB_{k_reg:g}": rep.b_norms[k_reg],
                "Hpsi1": rep.psi1_norm, "Hpsi2": rep.psi2_norm,
                "devA_L2": st.grid.sobolev_norm(diff, 0.0),
                "devA_Hk": st.grid.sobolev_norm(diff, k_reg)}

    config = StepperConfig(dt=dt, t_end=t_end, record_every=record_every, dealias=dealias)
    final, record = evolve(state, coeffs, config, observers=(observe,))
    diag = {
        "dt": dt,
        "steps": steps,
        "q1_drift": _rel_drift(record.column("Q1")),
        "dev_sup_L2": float(np.max(record.column("devA_L2"))),
        "dev_sup_Hk": float(np.max(record.column("devA_Hk"))),
    }
    return {"record": record, "initial": state, "final": final, "diag": diag}


def _decohere_pair(grid: SpectralGrid, mu: float, m_big: float, c: float,
                   dt_hint: float, record_every: int, k_reg: float,
                   dealias: bool) -> dict:
    """The (L1, L2) pair for one mu; returns runs, geometry, separations."""
    big_t = abs(math.log(mu)) / m_big**2
    l1 = m_big
    l2 = math.sqrt(math.pi / (2.0 * big_t) + m_big**2)
    theta_sq = mu / m_big
    ends = {"L1": l1**2 * big_t, "L2": l2**2 * big_t}

    out: dict = {"mu": mu, "m": m_big, "T": big_t, "L1": l1, "L2": l2,
                 "theta_sq": theta_sq, "t_internal": ends}
    runs = {tag: _decohere_run(grid, mu, big_l, c, theta_sq, ends[tag], dt_hint,
                               record_every, k_reg, dealias)
            for tag, big_l in (("L1", l1), ("L2", l2))}
    out["runs"] = runs

    b0, psi_plus0 = _decohere_profiles(grid)
    target = grid.sobolev_norm((np.exp(1j * 0.5 * math.pi * psi_plus0) - 1.0) * b0, 0.0)
    sep_final = grid.sobolev_norm(runs["L2"]["final"].b - runs["L1"]["final"].b, 0.0)
    out["analytic_target"] = target
    out["separation_final"] = sep_final
    out["separation_initial"] = grid.sobolev_norm(
        runs["L2"]["initial"].b - runs["L1"]["initial"].b, 0.0)
    out["dev_over_mu_Hk"] = max(runs["L1"]["diag"]["dev_sup_Hk"],
                                runs["L2"]["diag"]["dev_sup_Hk"]) / mu
    out["dev_over_mu_L2"] = max(runs["L1"]["diag"]["dev_sup_L2"],
                                runs["L2"]["diag"]["dev_sup_L2"]) / mu
    return out


def _embedded_diagnostics(grid: SpectralGrid, pair: dict, mu: float, c: float) -> dict:
    """Original-variable (embedded) numbers, reported but not verdict-bearing:
    at desk scale L2/L1 is far from 1, so the two embeddings start O(1) apart
    in L^2 — their closeness is an asymptotic statement needing |log mu| >> 1."""
    big_t = pair["T"]
    theta = math.sqrt(pair["theta_sq"])
    l1, l2 = pair["L1"], pair["L2"]
    # sample where both mapped coordinates stay inside the rescaled domain
    # (all field mass does; this just avoids touching the periodic wrap)
    limit = 0.98 * 0.5 * grid.length * (l1 / l2)
    sel = np.abs(grid.x) <= limit
    x_out = c * big_t + grid.x[sel] / (l1 * mu)
    dx_out = grid.dx / (l1 * mu)

    def embed(big_l: float, when: float, values: np.ndarray) -> np.ndarray:
        return cf.scaling_embed(cf.ComplexField(grid, values), when, big_l, mu,
                                theta, c, x_out)

    b0, _ = _decohere_profiles(grid)
    init1 = embed(l1, 0.0, b0.astype(np.complex128))
    init2 = embed(l2, 0.0, b0.astype(np.complex128))
    fin1 = embed(l1, big_t, pair["runs"]["L1"]["final"].b)
    fin2 = embed(l2, big_t, pair["runs"]["L2"]["final"].b)

    def l2norm(v: np.ndarray) -> float:
        return math.sqrt(dx_out * float(np.sum(np.abs(v) ** 2)))

    norm_identity = l2norm(init1) / (math.sqrt(l1) * theta / math.sqrt(mu)
                                     * grid.sobolev_norm(b0, 0.0))
    return {
        "initial_separation": l2norm(init2 - init1),
        "final_separation": l2norm(fin2 - fin1),
        "norm_identity_ratio": norm_identity,
        "scale_ratio_L2_over_L1": l2 / l1,
    }


def run_decohere(spec: ExperimentSpec) -> ExperimentResult:
    """Decoherence pair: identical data, two scale parameters, O(1) drift apart.

    Verdict-bearing comparisons live in the rescaled (comoving) frame, where
    the two runs share initial data exactly; original-variable embeddings are
    attached as diagnostics.  The structural relations (L2^2 - L1^2) T = pi/2
    and Theta^2 = mu/M hold exactly and are asserted as such.
    """
    result = ExperimentResult("decohere")
    t = spec.table
    mu, m_big, c, k_reg = t["mu"], t["m"], t["c"], t["k_reg"]
    grid = _grid_for(spec)

    pair = _decohere_pair(grid, mu, m_big, c, spec.dt, spec.record_every,
                          k_reg, spec.dealias)
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
    result.info["embedded"] = _embedded_diagnostics(grid, pair, mu, c)
    result.info["asymptotic_regime"] = {
        "L1_ge_mu^-5": pair["L1"] >= mu**-5,
        "T_le_log": pair["T"] <= abs(math.log(mu)),
    }

    mu_list = sorted(set(t["mu_list"]))
    if mu_list:
        def worker(mu_j: float, _payload=None) -> dict:
            m_j = max(m_big, float(math.ceil(1.0 / mu_j)))
            p = _decohere_pair(grid, mu_j, m_j, c, spec.dt, spec.record_every,
                               k_reg, spec.dealias)
            return {"mu": mu_j, "m": m_j,
                    "dev_over_mu_Hk": p["dev_over_mu_Hk"],
                    "dev_over_mu_L2": p["dev_over_mu_L2"],
                    "separation_final": p["separation_final"],
                    "analytic_target": p["analytic_target"]}

        sweep = _run_sweep({mu_j: None for mu_j in mu_list}, worker)
        table = [sweep[mu_j] for mu_j in sorted(sweep)]
        result.info["mu_sweep"] = table
        cs = [row["dev_over_mu_Hk"] for row in table]
        stability = max(cs) / min(cs) if min(cs) > 0 else math.inf
        result.info["dev_constant_stability"] = stability
        result.add("dev_bound_stability", stability <= 3.0,
                   f"max/min of sup||B - A||_Hk / mu = {stability:.3f} over mu = {mu_list}",
                   "<= 3.0 (constant stable to +/-50%)")
    return result


# -- growth -------------------------------------------------------------------------

def run_growth(spec: ExperimentSpec) -> ExperimentResult:
    """Long-horizon Sobolev growth audit against a priori envelopes."""
    result = ExperimentResult("growth")
    t = spec.table
    s_list = tuple(sorted(set(float(s) for s in t["s_list"])))
    state0, _, run = _preset_run(spec, result, s_list)
    grid = state0.grid
    try:
        final, record = run(spec.dt)
    except BlowUpError as exc:
        result.add("completion", False, f"blow-up at t = {exc.time:.6g}", "finite fields")
        return result
    result.records["series"] = record
    times = np.asarray(record.column("t"))

    # s = 1: a priori energy envelope (global-existence regime)
    if 1.0 in s_list:
        h1 = np.asarray(record.column("HsB_1"))
        q1_0 = record.column("Q1")[0]
        data_sq = (h1[0] ** 2
                   + grid.sobolev_norm(state0.psi1, 0.0) ** 2
                   + grid.sobolev_norm(state0.psi2, 0.0) ** 2)
        envelope = t["c_one"] * (data_sq + q1_0**3)
        sup_h1 = float(np.max(h1))
        result.info["h1_envelope"] = envelope
        result.info["h1_sup"] = sup_h1
        result.add("h1_apriori", sup_h1 <= envelope,
                   f"sup ||B||_H1 = {sup_h1:.4f}",
                   f"<= C1 (||data||^2 + Q1^3) = {envelope:.4f}")

    # s > 1: polynomial-in-time envelope exponent of the running maximum
    for s in s_list:
        if s <= 1.0:
            continue
        series = np.asarray(record.column(f"HsB_{s:g}"))
        env = np.maximum.accumulate(series)
        fit = fit_loglog(1.0 + times, env)
        result.fits[f"growth_s{s:g}"] = fit
        cap = (s - 1.0) + 0.5
        result.add(f"growth_exponent_s{s:g}", fit.slope <= cap,
                   f"envelope exponent {fit.slope:.4f} (r^2 = {fit.r_squared:.3f})",
                   f"<= {cap}")

    # psi fields against the exponential envelope with a fitted constant
    hpsi = np.maximum(np.asarray(record.column("Hpsi1")),
                      np.asarray(record.column("Hpsi2")))
    q1_0 = record.column("Q1")[0]
    m0 = max(hpsi[0], q1_0)
    with np.errstate(divide="ignore"):
        y = np.log(np.maximum(hpsi, 1e-300) / m0)
    half = times <= 0.5 * times[-1]
    grow = half & (times > 0)
    if q1_0 > 0 and np.any(grow):
        c_hat = max(0.0, float(np.max(y[grow] / (times[grow] * q1_0))))
    else:
        c_hat = 0.0
    bound = 1.05 * c_hat * times * q1_0 + 1e-9
    ok = bool(np.all(y <= bound))
    result.info["c_hat"] = c_hat
    result.info["psi_envelope_base"] = m0
    result.add("psi_envelope", ok,
               f"C^ = {c_hat:.4f} fitted on [0, {0.5 * times[-1]:.1f}]",
               "exp envelope holds on the full horizon (5% slack)")
    result.info["final_time"] = final.time
    return result


# -- dispatch -----------------------------------------------------------------------

_RUNNERS = {
    "simulate": run_simulate,
    "conserve": run_conserve,
    "inflate": run_inflate,
    "c2probe": run_c2probe,
    "decohere": run_decohere,
    "growth": run_growth,
}


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    try:
        runner = _RUNNERS[spec.kind]
    except KeyError:
        raise ConfigError(f"unknown experiment kind {spec.kind!r}")
    return runner(spec)
