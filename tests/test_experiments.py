"""Experiment-layer tests: fits, check plumbing, sweeps, and small end-to-end runs.

Full-size experiment runs live in test_acceptance.py; everything here is sized
to finish in seconds and pins the bookkeeping those runs rely on.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from zrlab.config import DECLARATIONS, ConfigError, decohere_setup, default_spec
from zrlab.experiments import (
    CheckResult,
    ExperimentResult,
    FitResult,
    _max_workers,
    _psi_envelope_check,
    _rel_drift,
    _run_batched,
    _run_sweep,
    _slope_check,
    expected_c2_slope,
    expected_inflation_slope,
    fit_loglog,
    inflate_member,
    inflation_grid,
    run_c2probe,
    run_conserve,
    run_decohere,
    run_experiment,
    run_growth,
    run_inflate,
    run_simulate,
)
from zrlab.evolution import BlowUpError
from zrlab.grid import dealiased_band
from zrlab.model import normalized_coefficients
from zrlab.records import write_record_csv


# -- log-log fits --------------------------------------------------------------

def test_fit_loglog_exact_power_law():
    x = [1.0, 2.0, 4.0, 8.0, 16.0]
    y = [3.0 * xi**1.7 for xi in x]
    fit = fit_loglog(x, y)
    assert fit.slope == pytest.approx(1.7, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)
    assert fit.r_squared == 1.0


def test_fit_loglog_flat_data_r2_convention():
    # constant samples have zero total variance; the fit reports r^2 = 1
    # (perfect flat line) instead of the 0/0 that the textbook formula gives
    fit = fit_loglog([1.0, 2.0, 4.0, 8.0], [5.0, 5.0, 5.0, 5.0])
    assert fit.slope == pytest.approx(0.0, abs=1e-14)
    assert fit.r_squared == 1.0


def test_fit_loglog_rejects_nonpositive():
    with pytest.raises(ValueError, match="positive finite"):
        fit_loglog([1.0, 0.0, 2.0], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="positive finite"):
        fit_loglog([1.0, 2.0, 4.0], [1.0, -3.0, 1.0])


def test_fit_result_validation():
    with pytest.raises(ValueError, match="three matched"):
        FitResult(1.0, 0.0, 1.0, (0.0, 1.0), (0.0, 1.0))
    with pytest.raises(ValueError, match="r_squared out of range"):
        FitResult(1.0, 0.0, 1.5, (0.0, 1.0, 2.0), (0.0, 1.0, 2.0))


# -- check plumbing ------------------------------------------------------------

def test_check_result_line_format():
    line = CheckResult("q1_drift", "pass", "1.2e-12", "< 1e-10").line()
    assert line == "[PASS        ] q1_drift: 1.2e-12 (want < 1e-10)"
    with pytest.raises(ValueError, match="bad status"):
        CheckResult("x", "maybe", "", "")


def test_experiment_result_status_precedence():
    result = ExperimentResult("demo")
    assert result.status == "pass"  # vacuously
    result.add("a", True, "ok", "ok")
    assert result.status == "pass"
    result.add("b", None, "no verdict", "data")
    assert result.status == "inconclusive"
    result.add("c", False, "bad", "good")
    assert result.status == "fail"  # fail dominates


def test_slope_check_gatekeeping():
    result = ExperimentResult("demo")
    # three points: no verdict regardless of fit quality
    _slope_check(result, "few", [1, 2, 4], [1, 2, 4], 1.0, 0.1)
    assert result.checks[-1].status == "inconclusive"
    # scattered points: r^2 below 0.98 withholds the verdict
    noisy = fit_loglog([1, 2, 4, 8], [1.0, 10.0, 2.0, 30.0])
    assert noisy.r_squared < 0.98
    _slope_check(result, "noisy", [1, 2, 4, 8], [1.0, 10.0, 2.0, 30.0], 1.0, 0.5)
    assert result.checks[-1].status == "inconclusive"
    # clean power law: verdict follows the tolerance window
    clean = ([1, 2, 4, 8], [1, 4, 16, 64])
    _slope_check(result, "hit", *clean, 2.0, 0.1)
    assert result.checks[-1].status == "pass"
    _slope_check(result, "miss", *clean, 1.0, 0.1)
    assert result.checks[-1].status == "fail"


@pytest.mark.parametrize("samples, usable", [([0.0] * 5, 0), ([1.0, 2.0, math.inf, 4.0, 8.0], 4),
                                             ([1.0, 2.0, math.nan, 4.0, 8.0], 4)])
def test_slope_check_needs_every_sample_positive_and_finite(samples, usable):
    """A zero, overflowed or NaN sample has no logarithm: the check fits
    nothing, reads inconclusive and reports how many samples it could use."""
    result = ExperimentResult("demo")
    assert _slope_check(result, "edge", [1, 2, 4, 8, 16], samples, 1.0, 0.1) is None
    check = result.checks[-1]
    assert check.status == "inconclusive"
    assert check.observed == f"{usable} of 5 samples positive and finite"


def test_rel_drift_uses_absolute_scale_near_zero():
    assert _rel_drift([1.0, 1.0 + 2e-10]) == pytest.approx(2e-10, rel=1e-6)
    # baseline below 1e-12 switches to absolute drift (no division blow-up)
    assert _rel_drift([0.0, 3e-13]) == pytest.approx(3e-13)


# -- scaling-law bookkeeping -----------------------------------------------------

def test_expected_slopes():
    assert expected_inflation_slope(0.25, 0.25) == pytest.approx(0.25)
    assert expected_inflation_slope(0.0, 1.0) == pytest.approx(1.5)
    assert expected_c2_slope(-1.0) == pytest.approx(0.5)
    assert expected_c2_slope(-0.5) == pytest.approx(0.0)


# -- sweep parallelism -----------------------------------------------------------

def test_max_workers_env(monkeypatch):
    monkeypatch.setenv("ZRLAB_THREADS", "1")
    assert _max_workers(8) == 1
    monkeypatch.setenv("ZRLAB_THREADS", "8")
    assert _max_workers(3) == 3  # never more workers than tasks
    monkeypatch.setenv("ZRLAB_THREADS", "abc")
    with pytest.raises(ConfigError, match="must be an integer"):
        _max_workers(2)
    monkeypatch.delenv("ZRLAB_THREADS")
    assert 1 <= _max_workers(2) <= 2


def test_run_sweep_merges_by_sorted_key(monkeypatch):
    """The largest key, the longest member, is dispatched first to the pool,
    a pool of one worker included; the results come back in ascending key
    order either way."""
    import zrlab.experiments as experiments

    keys = [3, 1, 2]
    started = []

    def worker(key):
        started.append(key)
        return f"r{key}"

    dispatched = []

    class Pool(experiments.ThreadPoolExecutor):
        def map(self, fn, keys):
            keys = list(keys)
            dispatched.append((self._max_workers, keys))
            return super().map(fn, keys)

    monkeypatch.setattr(experiments, "ThreadPoolExecutor", Pool)
    monkeypatch.setenv("ZRLAB_THREADS", "1")
    serial = _run_sweep(keys, worker)
    assert started == [3, 2, 1] and dispatched == [(1, [3, 2, 1])]
    monkeypatch.setenv("ZRLAB_THREADS", "3")
    threaded = _run_sweep(keys, worker)
    assert dispatched[1] == (3, [3, 2, 1])
    assert serial == threaded == ["r1", "r2", "r3"]


@pytest.mark.parametrize("threads, loads", [("1", [4540]), ("2", [2251, 2289]),
                                            ("8", [461, 600, 738, 775, 914, 1052])])
def test_run_batched_partitions_longest_first(monkeypatch, threads, loads):
    """One batch per pool worker: each task, by descending cost, joins the
    batch with the least total cost so far, so decohere's default step
    counts split 2251 / 2289 over two workers.  Every task lands in exactly
    one batch, longest first within it, and the outcomes come back in task
    order."""
    tasks = [738, 461, 1052, 600, 914, 775]
    batches = []

    def step(batch):
        batches.append(batch)
        return [f"ran {task}" for task in batch]

    monkeypatch.setenv("ZRLAB_THREADS", threads)
    outcomes = _run_batched(tasks, lambda task: task, step)
    assert outcomes == [f"ran {task}" for task in tasks]
    assert sorted(task for batch in batches for task in batch) == sorted(tasks)
    assert all(batch == sorted(batch, reverse=True) for batch in batches)
    assert sorted(sum(batch) for batch in batches) == loads


# -- simulate ---------------------------------------------------------------------

def _small_simulate_spec(**table):
    spec = default_spec("simulate")
    return replace(spec, grid_n=64, grid_length=16.0, dt=0.005, t_end=0.05,
                   record_every=2, table=dict(spec.table, **table))


def test_run_simulate_plane_wave_keeps_norms():
    kappa = math.pi / 4.0  # lattice frequency of the L = 16 grid
    spec = _small_simulate_spec(initial="plane_wave", amplitude=0.5, kappa=kappa)
    result = run_simulate(spec)
    assert result.status == "pass"
    record = result.records["series"]
    h1 = np.asarray(record.column("HsB_1"))
    assert np.max(np.abs(h1 - h1[0])) < 1e-12 * h1[0]
    assert _rel_drift(record.column("Q1")) < 1e-13
    assert np.max(np.asarray(record.column("Hpsi1"))) < 1e-13  # sources see flat |B|^2
    assert result.info["plane_wave_omega"] == pytest.approx(kappa**2 + 0.25)


def test_run_simulate_is_deterministic():
    spec = _small_simulate_spec(initial="random", amplitude=0.8,
                                psi_amplitude=0.3, seed=7)
    first = run_simulate(spec).records["series"]
    second = run_simulate(spec).records["series"]
    assert first.columns.keys() == second.columns.keys()
    for name in first.columns:
        assert np.array_equal(first.column(name), second.column(name)), name


def test_run_simulate_reports_blowup_as_failure():
    spec = _small_simulate_spec(amplitude=1e160)  # |B|^2 overflows immediately
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # numpy overflow chatter on the way down
        result = run_simulate(spec)
    assert result.status == "fail"
    assert "blow-up" in result.checks[0].observed


def test_run_simulate_attaches_schedule_and_boundary_info():
    """The initial data's boundary mass is noted; no iteration schedule is."""
    result = run_simulate(_small_simulate_spec())
    assert result.info["boundary_mass_fraction"] < 1e-8
    assert "schedule" not in result.info


# -- conserve ---------------------------------------------------------------------

def test_run_conserve_physical_preset_all_checks():
    spec = default_spec("conserve")
    spec = replace(spec, t_end=0.4, dt=0.004, record_every=25)
    result = run_conserve(spec)
    names = {c.name: c for c in result.checks}
    assert set(names) == {"q1_drift", "q4_drift", "q4_order2"}
    assert result.status == "pass"
    assert 3.5 <= result.info["richardson_ratio"] <= 4.5
    assert "series" in result.records and "series_half_dt" in result.records


@pytest.mark.parametrize("kind", ["conserve", "decohere"])
def test_q1_drift_can_fail(monkeypatch, kind):
    """Negative control: a stepper that scales B by 1 + 1e-9 after each
    nonlinear step gains mass, and q1_drift fails in conserve and decohere;
    the same small specs pass unpatched."""
    from zrlab import evolution

    spec = default_spec(kind)
    spec = (replace(spec, t_end=0.4, dt=0.004, record_every=25) if kind == "conserve" else
            replace(spec, table=dict(spec.table, mu=0.2, m=5.0, mu_list=(0.25, 0.2))))
    run = run_conserve if kind == "conserve" else run_decohere
    assert {c.name: c.status for c in run(spec).checks}["q1_drift"] == "pass"
    kernel = evolution._Plan.nonlinear

    def leaking(plan, b, psi, start, step=0):
        kernel(plan, b, psi, start, step)
        b *= 1.0 + 1e-9

    monkeypatch.setattr(evolution._Plan, "nonlinear", leaking)
    assert {c.name: c.status for c in run(spec).checks}["q1_drift"] == "fail"


def test_conserve_q4_order2_can_fail(monkeypatch):
    """Negative control: a Lie (first-order) splitting built from the public
    sub-flows drifts Q4 at first order, so halving dt halves the drift, the
    Richardson ratio sits near 2 and q4_order2 fails; on the same config the
    Strang stepper reads 4 and passes."""
    import zrlab.experiments as experiments
    from zrlab.evolution import linear_halfstep, nonlinear_step
    from zrlab.records import RunRecord

    def lie_evolve(state0, coeffs, config, observers=()):
        state, record = state0.copy(), RunRecord()
        for i in range(config.steps + 1):
            if i:
                linear_halfstep(state, coeffs, config.dt)  # the whole dt, not half
                nonlinear_step(state, coeffs, config.dt)
                state.time = i * config.dt
            if i % config.record_every == 0 or i == config.steps:
                row = {"t": state.time}
                for obs in observers:
                    row.update(obs(state))
                record.append(row)
        return state, record

    spec = replace(default_spec("conserve"), grid_n=128, grid_length=32.0, dt=0.01,
                   t_end=1.0, record_every=10)
    strang = run_conserve(spec)
    assert 3.5 <= strang.info["richardson_ratio"] <= 4.5
    assert {c.name: c.status for c in strang.checks}["q4_order2"] == "pass"
    monkeypatch.setattr(experiments, "evolve", lie_evolve)
    lie = run_conserve(spec)
    assert lie.info["richardson_ratio"] == pytest.approx(2.0, abs=0.25)
    assert {c.name: c.status for c in lie.checks}["q4_order2"] == "fail"


def test_conserve_q4_drift_can_fail(monkeypatch):
    """Negative control: a plan whose psi kick is 0.1 % too strong breaks the
    energy balance, so Q4 drifts past 1e-6, no longer at second order in
    dt, while Q1 stays exact; the same config passes unpatched."""
    from zrlab import evolution

    spec = replace(default_spec("conserve"), grid_n=128, grid_length=32.0, dt=0.01,
                   t_end=1.0, record_every=10)
    spec = replace(spec, table=dict(spec.table, psi_amplitude=0.3))
    statuses = {c.name: c.status for c in run_conserve(spec).checks}
    assert statuses == {"q1_drift": "pass", "q4_drift": "pass", "q4_order2": "pass"}
    build = evolution._Plan.__init__

    def strong_kick(plan, grid, coeffs, dts):
        build(plan, grid, coeffs, dts)
        plan.full["kick"] *= 1.001

    monkeypatch.setattr(evolution._Plan, "__init__", strong_kick)
    statuses = {c.name: c.status for c in run_conserve(spec).checks}
    assert statuses == {"q1_drift": "pass", "q4_drift": "fail", "q4_order2": "fail"}


def test_run_conserve_blowup_in_half_dt_run_fails_completion(monkeypatch):
    """A blow-up in the Richardson half-dt run (the second evolve) becomes a
    failed completion check; the first run's record and checks stay, ahead
    of it."""
    import zrlab.experiments as experiments

    real_evolve = experiments.evolve
    calls = []

    def evolve_blowing_up_second(state0, coeffs, config, observers=()):
        calls.append(config.dt)
        if len(calls) == 2:
            raise BlowUpError(0.125)
        return real_evolve(state0, coeffs, config, observers)

    monkeypatch.setattr(experiments, "evolve", evolve_blowing_up_second)
    spec = replace(default_spec("conserve"), t_end=0.4, dt=0.004, record_every=25)
    result = run_conserve(spec)
    assert calls == [0.004, 0.002]
    checks = [(c.name, c.status) for c in result.checks]
    assert checks == [("q1_drift", "pass"), ("q4_drift", "pass"), ("completion", "fail")]
    assert "t = 0.125" in result.checks[-1].observed
    assert result.status == "fail"
    assert set(result.records) == {"series"}


def test_run_conserve_normalized_preset_q1_only():
    spec = default_spec("conserve")
    spec = replace(spec, preset="normalized", t_end=0.2, dt=0.002, record_every=20)
    result = run_conserve(spec)
    assert [c.name for c in result.checks] == ["q1_drift"]
    assert result.status == "pass"
    assert "physical-parameter energy" in result.info["note"]


# -- inflate ----------------------------------------------------------------------

def test_inflate_member_tracks_oracle_at_small_n():
    coeffs = normalized_coefficients()
    member = inflate_member(8, 0.25, 0.25, t_probe=0.02, dt=2.5e-3,
                            variant="f", modes_per_hat=4, nodes=64, coeffs=coeffs)
    assert member["N"] == 8
    assert member["data_norm_hk"] == pytest.approx(1.0, rel=1e-9)
    assert 0.9 <= member["ratio"] <= 1.1
    # the mirrored variant rides the opposite transport speed
    member_g = inflate_member(8, 0.25, 0.25, t_probe=0.02, dt=2.5e-3,
                              variant="g", modes_per_hat=4, nodes=64, coeffs=coeffs)
    assert 0.9 <= member_g["ratio"] <= 1.1


def test_inflation_grid_covers_doubled_support():
    """Each member's grid holds the hat edges on its lattice and resolves the
    doubled data support |xi| <= 2N + 2 + 2/N after dealiasing."""
    for n_freq in range(2, 65):
        for modes_per_hat in range(1, 5):
            grid = inflation_grid(n_freq, modes_per_hat)
            assert grid.length == 2.0 * math.pi * modes_per_hat * n_freq
            need = 2.0 * n_freq + 2.0 + 2.0 / n_freq
            assert dealiased_band(grid.n, grid.length) >= need, (n_freq, modes_per_hat)


def test_run_inflate_few_points_is_inconclusive(monkeypatch):
    monkeypatch.setenv("ZRLAB_THREADS", "2")
    spec = default_spec("inflate")
    spec = replace(spec, table=dict(spec.table, n_list=(8, 16), t_probe=0.02))
    result = run_inflate(spec)
    slope_checks = [c for c in result.checks if c.name == "inflation_slope"]
    assert slope_checks[0].status == "inconclusive"
    assert result.status == "inconclusive"
    ratio_checks = [c for c in result.checks if c.name.startswith("oracle_ratio")]
    assert len(ratio_checks) == 2 and all(c.status == "pass" for c in ratio_checks)
    # sweep output is keyed and ordered by N regardless of thread scheduling
    assert [m["N"] for m in result.info["members"]] == [8, 16]


def test_inflate_underflowed_norms_are_inconclusive():
    """At t_probe = 1e-300 the solver and oracle norms underflow to zero: no
    ratio and no slope to judge, so every check reads inconclusive, not fail."""
    spec = default_spec("inflate")
    spec = replace(spec, table=dict(spec.table, n_list=(8, 16), t_probe=1e-300))
    result = run_inflate(spec)
    assert [m["oracle_norm"] for m in result.info["members"]] == [0.0, 0.0]
    assert {c.status for c in result.checks} == {"inconclusive"}
    assert result.checks[-1].observed == "0 of 2 samples positive and finite"


def test_oracle_ratio_can_fail(monkeypatch):
    """Negative control: an oracle whose source is scaled by 1.5 moves every
    solver/oracle ratio to about 1/1.5, outside [0.8, 1.25]."""
    import zrlab.experiments as experiments

    first_order_psi1 = experiments.cf.first_order_psi1

    def scaled_source(t, hats, l, speed=1.0, source=1.0, nodes=64):
        return first_order_psi1(t, hats, l, speed=speed, source=1.5 * source, nodes=nodes)

    spec = default_spec("inflate")
    spec = replace(spec, table=dict(spec.table, n_list=(8, 16), t_probe=0.02))
    monkeypatch.setattr(experiments.cf, "first_order_psi1", scaled_source)
    result = run_inflate(spec)
    ratio_checks = [c for c in result.checks if c.name.startswith("oracle_ratio")]
    assert [c.name for c in ratio_checks] == ["oracle_ratio_N8", "oracle_ratio_N16"]
    assert all(c.status == "fail" for c in ratio_checks)
    assert all(0.6 < m["ratio"] < 0.75 for m in result.info["members"])


def test_inflation_slope_can_fail(monkeypatch):
    """Negative control: a solver norm scaled by N^0.3 moves the fitted slope
    from about 0.245 to about 0.545, outside 0.25 +/- 0.1, while every member's
    solver/oracle ratio (computed inside inflate_member) still passes."""
    import zrlab.experiments as experiments

    spec = default_spec("inflate")
    spec = replace(spec, table=dict(spec.table, n_list=(8, 16, 32, 64), t_probe=0.02))
    statuses = {c.name: c.status for c in run_inflate(spec).checks}
    assert statuses["inflation_slope"] == "pass"

    member = experiments.inflate_member

    def steeper(n_freq, *args, **kwargs):
        out = member(n_freq, *args, **kwargs)
        return dict(out, solver_norm=out["solver_norm"] * n_freq**0.3)

    monkeypatch.setattr(experiments, "inflate_member", steeper)
    statuses = {c.name: c.status for c in run_inflate(spec).checks}
    assert statuses["inflation_slope"] == "fail"
    ratios = [v for name, v in statuses.items() if name.startswith("oracle_ratio")]
    assert len(ratios) == 4 and set(ratios) == {"pass"}


def test_inflate_regime_note(monkeypatch):
    """l - (2k - 1/2) > 1/2 (k = 0.25, l = 1) flags the extrapolated rate in
    the run's info; the defaults do not.  The members are stubbed, so nothing
    steps."""
    import zrlab.experiments as experiments

    monkeypatch.setattr(experiments, "inflate_member", lambda n_freq, *args, **kwargs: {
        "N": n_freq, "solver_norm": float(n_freq), "oracle_norm": float(n_freq), "ratio": 1.0})
    spec = default_spec("inflate")
    assert "regime_note" not in run_inflate(spec).info
    note = run_inflate(replace(spec, table=dict(spec.table, l=1.0))).info["regime_note"]
    assert note.startswith("l - (2k - 1/2) > 1/2")


# -- c2probe -----------------------------------------------------------------------

# N: kernel norm of the default c2probe run; each is the norm recorded before
# l_hat carried the 1/(2 pi) of the convolution theorem, divided by 2 pi, to
# within 2.2e-16 relative (0.051639777586892234 / (2 pi) at N = 16)
C2PROBE_DEFAULT_MEMBERS = {
    16: 0.008218725863119968,
    32: 0.011623033640894495,
    64: 0.016437451833700018,
    128: 0.023246067322450145,
    256: 0.03287490368226381,
}


def test_c2probe_default_member_table_is_pinned():
    """The default run's member table keeps its recorded values: each N's
    kernel norm within 1e-13 relative, a bound for round-off across machines
    rather than a bitwise pin, and each solver ratio sqrt(1 - 1/(10 m^2)),
    about 1 - 1/(20 m^2), for m = 16 lattice points per 1/N, within 1e-8 (it
    is within 4.3e-10)."""
    members = run_c2probe(default_spec("c2probe")).info["members"]
    assert [m["N"] for m in members] == list(C2PROBE_DEFAULT_MEMBERS)
    for m in members:
        assert m["norm"] == pytest.approx(C2PROBE_DEFAULT_MEMBERS[m["N"]], rel=1e-13, abs=0.0)
        assert m["solver_ratio"] == pytest.approx(math.sqrt(1.0 - 1.0 / (10 * 16**2)), abs=1e-8)


def test_c2probe_unbounded_growth_can_fail(monkeypatch):
    """Negative control: the kernel norm grows with N over a small sweep, and a
    stand-in l_hat_norm that shrinks like N^-3 (the B0 bump is [0, 1/N]) fails
    unbounded_growth: the run scales it by the hat amplitudes, N^(1/2) N^(3/2),
    to a norm 1/N."""
    import zrlab.experiments as experiments

    spec = default_spec("c2probe")
    spec = replace(spec, table=dict(spec.table, n_list=(8, 16, 32)))
    statuses = {c.name: c.status for c in run_c2probe(spec).checks}
    assert statuses["unbounded_growth"] == "pass"

    def shrinking_norm(t, b0, psi10, k, nodes=64):
        return b0.hi**3

    monkeypatch.setattr(experiments.cf, "l_hat_norm", shrinking_norm)
    result = run_c2probe(spec)
    statuses = {c.name: c.status for c in result.checks}
    assert statuses["unbounded_growth"] == "fail"
    assert [m["norm"] for m in result.info["members"]] == pytest.approx([1 / 8, 1 / 16, 1 / 32])


def _l_hat_sign_mutant(xi, t, b0, psi10, nodes=64):
    """l_hat with the phase a = (xi - xi_1)(xi + xi_1 + 1) instead of
    (xi - xi_1)(xi + xi_1 - 1)."""
    import zrlab.closed_forms as cf

    xi = np.atleast_1d(np.asarray(xi, dtype=np.float64))
    col = xi[:, None]
    inner = cf._overlap_integral(t, np.maximum(b0.lo, xi - psi10.hi),
                                 np.minimum(b0.hi, xi - psi10.lo),
                                 lambda xi1: (col - xi1) * (col + xi1 + 1.0), nodes)
    return np.exp(-1j * t * xi**2) * b0.amplitude * psi10.amplitude * inner / (2.0 * np.pi)


@pytest.mark.parametrize("mutant", ["two-pi", "half-horizon", "kernel-sign"])
def test_c2probe_solver_ratio_can_fail(mutant, monkeypatch):
    """Negative controls: each kernel mutant fails every solver_ratio_N* that
    passes without it.  `two-pi` is l_hat without its 1/(2 pi) (ratio
    1/(2 pi)); `half-horizon` takes resonance_phi over [0, t/2] (ratio about
    2).  `kernel-sign` is almost the conjugate kernel, whose norm is the
    same: it moves the norm by 2e-9 at N = 16 and t_probe = 0.01, so it is
    probed where the phases are large, at N = 2 and 4 and t_probe = 1, where
    it moves the ratio by 1e-2 and 2.8e-3."""
    import zrlab.closed_forms as cf

    spec = default_spec("c2probe")
    table = ({"n_list": (2, 4), "t_probe": 1.0} if mutant == "kernel-sign"
             else {"n_list": (8, 16, 32)})
    spec = replace(spec, table=dict(spec.table, **table))
    names = [f"solver_ratio_N{n}" for n in spec.table["n_list"]]
    statuses = {c.name: c.status for c in run_c2probe(spec).checks}
    assert [statuses[name] for name in names] == ["pass"] * len(names)

    if mutant == "two-pi":
        l_hat = cf.l_hat
        monkeypatch.setattr(cf, "l_hat", lambda *args: 2.0 * np.pi * l_hat(*args))
    elif mutant == "half-horizon":
        phi = cf.resonance_phi
        monkeypatch.setattr(cf, "resonance_phi", lambda t, a: phi(0.5 * t, a))
    else:
        monkeypatch.setattr(cf, "l_hat", _l_hat_sign_mutant)
    result = run_c2probe(spec)
    statuses = {c.name: c.status for c in result.checks}
    assert [statuses[name] for name in names] == ["fail"] * len(names)
    ratios = [m["solver_ratio"] for m in result.info["members"]]
    if mutant == "two-pi":
        assert ratios == pytest.approx([1.0 / (2.0 * np.pi)] * len(names), rel=1e-3)
    elif mutant == "half-horizon":
        assert all(1.9 < r < 2.1 for r in ratios)


def test_c2_slope_can_fail(monkeypatch):
    """Negative control: the kernel norm scaled by N^0.3 (the B0 bump is
    [0, 1/N]) moves the fitted slope 0.3 off -l - 1/2, so c2_slope fails."""
    import zrlab.experiments as experiments

    spec = default_spec("c2probe")
    statuses = {c.name: c.status for c in run_c2probe(spec).checks}
    assert statuses["c2_slope"] == "pass"

    l_hat_norm = experiments.cf.l_hat_norm

    def steeper(t, b0, psi10, k, nodes=64):
        return l_hat_norm(t, b0, psi10, k, nodes) * (1.0 / b0.hi) ** 0.3

    monkeypatch.setattr(experiments.cf, "l_hat_norm", steeper)
    statuses = {c.name: c.status for c in run_c2probe(spec).checks}
    assert statuses["c2_slope"] == "fail"


# -- decohere ----------------------------------------------------------------------

def test_run_decohere_structural_relations_small(tmp_path):
    spec = default_spec("decohere")
    spec = replace(spec, table=dict(spec.table, mu=0.2, m=5.0, mu_list=(0.25, 0.2)))
    result = run_decohere(spec)
    write_record_csv(result.records["series_L1"], tmp_path / "series.csv")
    assert (tmp_path / "series.csv").read_text().splitlines()[0] == "t,Q1,devA_L2,devA_Hk"
    names = {c.name: c for c in result.checks}
    assert names["phase_gap"].status == "pass"
    assert names["theta_relation"].status == "pass"
    assert names["q1_drift"].status == "pass"
    assert names["dev_bound_stability"].status == "pass"
    assert [row["mu"] for row in result.info["mu_sweep"]] == [0.2, 0.25]
    pair = result.info["pair"]
    assert (pair["L2"] ** 2 - pair["L1"] ** 2) * pair["T"] == pytest.approx(
        0.5 * math.pi, abs=1e-13)
    assert pair["theta_sq"] == 0.2 / 5.0
    assert pair["separation_initial"] == 0.0
    assert set(result.records) == {"series_L1", "series_L2"}


def test_decohere_initial_separation_can_fail(monkeypatch):
    """Negative control: the L2 run started from perturbed data trips the
    initial_separation check, which reads the runs' t = 0 fields.  The L2
    run is found by its horizon, in one batch or in a batch of its own."""
    import zrlab.experiments as experiments

    real_evolve_members = experiments.evolve_members
    spec = default_spec("decohere")
    spec = replace(spec, table=dict(spec.table, mu=0.2, m=5.0, mu_list=(0.25, 0.2)))
    horizon = decohere_setup(spec)[0][(0.2, 5.0)]["t_internal"]
    perturbed = []

    def evolve_perturbing_l2(states, coeffs, configs, observers=()):
        for state, config in zip(states, configs):
            if config.t_end == horizon["L2"]:
                perturbed.append(config.t_end)
                state.b *= 1.5
        return real_evolve_members(states, coeffs, configs, observers)

    monkeypatch.setattr(experiments, "evolve_members", evolve_perturbing_l2)
    for threads in ("1", "2"):
        monkeypatch.setenv("ZRLAB_THREADS", threads)
        perturbed.clear()
        result = run_decohere(spec)
        assert perturbed == [horizon["L2"]] and horizon["L1"] < horizon["L2"]
        assert result.info["pair"]["separation_initial"] > 0.0
        assert {c.name: c.status for c in result.checks}["initial_separation"] == "fail"
        assert result.status == "fail"


def test_decohere_separation_and_stability_can_fail(monkeypatch):
    """Negative control: with psi1's travelling data zeroed, B feels no
    psi_plus0 potential, so the pair hardly separates (0.019 x target) and
    sup||B - A||_Hk / mu drifts with mu (max/min 5.1): both checks fail at
    the default spec."""
    import zrlab.experiments as experiments

    real_evolve_members = experiments.evolve_members

    def evolve_without_psi1(states, coeffs, configs, observers=()):
        for state in states:
            state.psi1[:] = 0.0
        return real_evolve_members(states, coeffs, configs, observers)

    monkeypatch.setattr(experiments, "evolve_members", evolve_without_psi1)
    result = run_decohere(default_spec("decohere"))
    status = {c.name: c.status for c in result.checks}
    assert status["separation_target"] == status["dev_bound_stability"] == "fail"
    assert result.info["pair"]["separation_final"] < 0.05 * result.info["pair"]["analytic_target"]
    assert result.info["dev_constant_stability"] > 3.0


@pytest.mark.parametrize("field, check", [("L2", "phase_gap"), ("theta_sq", "theta_relation")])
def test_decohere_structural_checks_can_fail(monkeypatch, field, check):
    """Negative control: phase_gap and theta_relation test decohere's
    parameter scheme, not the run.  A `_decohere_pair` whose L2, or
    Theta^2, is off by a factor 1 + 1e-6 fails exactly that check at the
    default spec."""
    from zrlab import config

    decohere_pair = config._decohere_pair

    def skewed(mu, m_big):
        pair = decohere_pair(mu, m_big)
        pair[field] *= 1.0 + 1e-6
        return pair

    monkeypatch.setattr(config, "_decohere_pair", skewed)
    result = run_decohere(default_spec("decohere"))
    assert {c.name for c in result.checks if c.status != "pass"} == {check}


def test_decohere_runs_each_pair_once(monkeypatch):
    """The main (mu, M) pair is also a mu-sweep pair (M_j = max(M, ceil(1/mu_j))
    = M), so it runs once and feeds both the verdict and the sweep row: over
    the union of the batches, each (pair, tag) run steps exactly once."""
    import zrlab.experiments as experiments

    real_evolve_members = experiments.evolve_members
    calls = []

    def counting_evolve_members(states, coeffs, configs, observers=()):
        calls.append([config.t_end for config in configs])
        return real_evolve_members(states, coeffs, configs, observers)

    monkeypatch.setattr(experiments, "evolve_members", counting_evolve_members)
    spec = default_spec("decohere")
    spec = replace(spec, table=dict(spec.table, mu=0.2, m=5.0, mu_list=(0.25, 0.2)))
    pairs = decohere_setup(spec)[0]
    runs = sorted(t for pair in pairs.values() for t in pair["t_internal"].values())
    assert len(pairs) == 2 and len(set(runs)) == 4  # two pairs of (L1, L2) runs
    for threads in ("1", "2"):
        monkeypatch.setenv("ZRLAB_THREADS", threads)
        calls.clear()
        result = run_decohere(spec)
        assert len(calls) == int(threads)
        assert sorted(t for call in calls for t in call) == runs
        rows = {row["mu"]: row for row in result.info["mu_sweep"]}
        assert sorted(rows) == [0.2, 0.25] and rows[0.2]["m"] == 5.0
        assert rows[0.2]["separation_final"] == result.info["pair"]["separation_final"]


def test_decohere_split_matches_one_batch(monkeypatch):
    """The default runs split over two workers (2251 and 2289 steps) give the
    single batch's verdict bit for bit: equal info and records, every float
    compared by ==, and the same check lines."""
    import zrlab.experiments as experiments

    real_evolve_members = experiments.evolve_members
    loads = []

    def counting_evolve_members(states, coeffs, configs, observers=()):
        loads.append(sum(config.steps for config in configs))
        return real_evolve_members(states, coeffs, configs, observers)

    monkeypatch.setattr(experiments, "evolve_members", counting_evolve_members)
    results = []
    for threads, split in (("1", [4540]), ("2", [2251, 2289])):
        monkeypatch.setenv("ZRLAB_THREADS", threads)
        loads.clear()
        results.append(run_decohere(default_spec("decohere")))
        assert sorted(loads) == split
    one, two = results
    assert one.status == "pass"
    assert two.info == one.info and two.records == one.records
    assert [c.line() for c in two.checks] == [c.line() for c in one.checks]


@pytest.mark.parametrize("n", [256, 1024])
def test_decohere_chirp_guard_stops_before_any_step(monkeypatch, n):
    """Negative control: at n = 256 no run's chirp fits the dealiased band,
    and at n = 1024 only the longest (the mu = 0.025 sweep's L2 run) misses
    it; either way the resolution guard refuses the run before any member
    steps."""
    import zrlab.experiments as experiments

    def must_not_step(*args, **kwargs):
        raise AssertionError("a member stepped before every guard ran")

    monkeypatch.setattr(experiments, "evolve_members", must_not_step)
    with pytest.raises(ConfigError, match="under-resolved"):
        run_decohere(replace(default_spec("decohere"), grid_n=n))


# -- growth ------------------------------------------------------------------------

def test_psi_envelope_can_fail():
    """Negative control: an Hpsi series above the base max(Hpsi(0), Q1(0)) that
    grows like exp(0.01 t) on the fitted first half passes, and the same series
    turning to exp(0.05 t) in the second half crosses the envelope and fails."""
    times = np.linspace(0.0, 50.0, 501)
    slow = 2.0 * np.exp(0.01 * times)
    fast = np.where(times <= 25.0, slow, 2.0 * np.exp(0.25 + 0.05 * (times - 25.0)))
    outcome = {}
    for name, hpsi in (("slow", slow), ("fast", fast)):
        result = ExperimentResult("growth")
        _psi_envelope_check(result, times, hpsi, 1.0)
        outcome[name] = (result.checks[0].status, result.info["c_hat"])
    assert outcome["slow"][0] == "pass" and outcome["fast"][0] == "fail"
    assert outcome["slow"][1] == pytest.approx(0.01) and outcome["fast"][1] == outcome["slow"][1]


def test_psi_envelope_without_a_fit_window_is_inconclusive():
    """No record time in (0, t_end/2], or Q1(0) = 0, leaves nothing to fit C^
    on: the check reads inconclusive instead of passing on C^ = 0."""
    for times, q1_0 in ((np.array([0.0, 1.0]), 1.0), (np.linspace(0.0, 50.0, 11), 0.0)):
        result = ExperimentResult("growth")
        _psi_envelope_check(result, times, np.ones_like(times), q1_0)
        assert [c.status for c in result.checks] == ["inconclusive"]


def test_run_growth_short_horizon_passes_envelopes():
    spec = default_spec("growth")
    spec = replace(spec, grid_n=256, t_end=0.5, dt=0.002, record_every=25)
    result = run_growth(spec)
    names = {c.name: c for c in result.checks}
    assert names["h1_apriori"].status == "pass"
    assert names["growth_exponent_s3"].status == "pass"
    assert names["psi_envelope"].status == "pass"
    assert result.status == "pass"
    assert "growth_s3" in result.fits
    assert result.info["c_hat"] >= 0.0
    assert result.info["h1_sup"] <= result.info["h1_envelope"]


def test_h1_apriori_can_fail(monkeypatch):
    """Negative control: a fabricated HsB_1 series that gains 1e4 t over its
    true value leaves its t = 0 value, and so the envelope, as it was, but
    its supremum (about 5000 at t = 0.5) exceeds the envelope and fails
    h1_apriori; the other checks still pass."""
    import zrlab.experiments as experiments

    row = experiments.conserved_quantities
    spec = replace(default_spec("growth"), grid_n=256, t_end=0.5, dt=0.002, record_every=25)
    honest = run_growth(spec)

    def fabricated(state, params, s_list, psi_index=-0.5):
        values = row(state, params, s_list, psi_index)
        return dict(values, HsB_1=values["HsB_1"] + 1e4 * state.time)

    monkeypatch.setattr(experiments, "conserved_quantities", fabricated)
    result = run_growth(spec)
    statuses = {c.name: c.status for c in result.checks}
    assert statuses["h1_apriori"] == "fail"
    assert result.info["h1_envelope"] == honest.info["h1_envelope"]
    assert result.info["h1_sup"] > result.info["h1_envelope"]
    assert statuses["growth_exponent_s3"] == statuses["psi_envelope"] == "pass"


def test_growth_exponent_can_fail(monkeypatch):
    """Negative control: a fabricated HsB_3 series growing like (1+t)^3 has
    envelope exponent 3 > 2.5 and fails growth_exponent_s3."""
    import zrlab.experiments as experiments

    row = experiments.conserved_quantities

    def fabricated(state, params, s_list, psi_index=-0.5):
        return dict(row(state, params, s_list, psi_index), HsB_3=(1.0 + state.time) ** 3)

    monkeypatch.setattr(experiments, "conserved_quantities", fabricated)
    spec = default_spec("growth")
    result = run_growth(replace(spec, grid_n=256, t_end=0.5, dt=0.002, record_every=25))
    statuses = {c.name: c.status for c in result.checks}
    assert statuses["growth_exponent_s3"] == "fail"
    assert result.fits["growth_s3"].slope == pytest.approx(3.0)
    assert statuses["h1_apriori"] == statuses["psi_envelope"] == "pass"


# -- dispatch ------------------------------------------------------------------------

def test_run_experiment_dispatch():
    spec = _small_simulate_spec()
    assert run_experiment(spec).status == "pass"
    with pytest.raises(ConfigError, match="unknown experiment kind"):
        run_experiment(replace(spec, kind="bogus"))


def test_every_kind_has_one_registered_runner():
    """Each declared kind registers exactly one runner, the module's
    run_<kind>, and nothing else is registered."""
    import zrlab.experiments as experiments

    assert set(experiments._RUNNERS) == set(DECLARATIONS)
    for kind, runner in experiments._RUNNERS.items():
        assert runner is getattr(experiments, f"run_{kind}")
        assert runner.__name__ == f"run_{kind}" and runner.__doc__
