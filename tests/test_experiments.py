"""Experiment-layer tests: fits, check plumbing, sweeps, and small end-to-end runs.

Full-size experiment runs live in test_acceptance.py; everything here is sized
to finish in seconds and pins the bookkeeping those runs rely on.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from zrlab.config import ConfigError, default_spec
from zrlab.experiments import (
    CheckResult,
    ExperimentResult,
    FitResult,
    _max_workers,
    _rel_drift,
    _run_sweep,
    _slope_check,
    expected_c2_slope,
    expected_inflation_slope,
    fit_loglog,
    inflate_member,
    run_conserve,
    run_decohere,
    run_experiment,
    run_growth,
    run_inflate,
    run_simulate,
)
from zrlab.evolution import BlowUpError


# -- log-log fits --------------------------------------------------------------

def test_fit_loglog_exact_power_law():
    x = [1.0, 2.0, 4.0, 8.0, 16.0]
    y = [3.0 * xi**1.7 for xi in x]
    fit = fit_loglog(x, y)
    assert fit.slope == pytest.approx(1.7, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)
    assert fit.r_squared == 1.0
    assert_allclose(fit.predict(np.log([32.0])), [1.7 * math.log(32.0) + math.log(3.0)])


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
    _slope_check(result, "few", fit_loglog([1, 2, 4], [1, 2, 4]), 1.0, 0.1)
    assert result.checks[-1].status == "inconclusive"
    # scattered points: r^2 below 0.98 withholds the verdict
    noisy = fit_loglog([1, 2, 4, 8], [1.0, 10.0, 2.0, 30.0])
    assert noisy.r_squared < 0.98
    _slope_check(result, "noisy", noisy, 1.0, 0.5)
    assert result.checks[-1].status == "inconclusive"
    # clean power law: verdict follows the tolerance window
    clean = fit_loglog([1, 2, 4, 8], [1, 4, 16, 64])
    _slope_check(result, "hit", clean, 2.0, 0.1)
    assert result.checks[-1].status == "pass"
    _slope_check(result, "miss", clean, 1.0, 0.1)
    assert result.checks[-1].status == "fail"


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
    tasks = {3: "c", 1: "a", 2: "b"}
    worker = lambda key, payload: f"{payload}{key}"
    monkeypatch.setenv("ZRLAB_THREADS", "1")
    serial = _run_sweep(tasks, worker)
    monkeypatch.setenv("ZRLAB_THREADS", "3")
    threaded = _run_sweep(tasks, worker)
    assert serial == threaded == {1: "a1", 2: "b2", 3: "c3"}
    assert list(serial) == [1, 2, 3]


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
    result = run_simulate(_small_simulate_spec())
    assert result.info["boundary_mass_fraction"] < 1e-8
    sched = result.info["schedule"]
    assert sched["dt"] > 0 and sched["steps"] >= 1


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


def test_run_conserve_normalized_preset_q1_only():
    spec = default_spec("conserve")
    spec = replace(spec, preset="normalized", t_end=0.2, dt=0.002, record_every=20)
    result = run_conserve(spec)
    assert [c.name for c in result.checks] == ["q1_drift"]
    assert result.status == "pass"
    assert "physical-parameter energy" in result.info["note"]


# -- inflate ----------------------------------------------------------------------

def test_inflate_member_tracks_oracle_at_small_n():
    member = inflate_member(8, 0.25, 0.25, t_probe=0.02, dt=2.5e-3,
                            variant="f", modes_per_hat=4, nodes=64)
    assert member["N"] == 8
    assert member["data_norm_hk"] == pytest.approx(1.0, rel=1e-9)
    assert 0.9 <= member["ratio"] <= 1.1
    # the mirrored variant rides the opposite transport speed
    member_g = inflate_member(8, 0.25, 0.25, t_probe=0.02, dt=2.5e-3,
                              variant="g", modes_per_hat=4, nodes=64)
    assert 0.9 <= member_g["ratio"] <= 1.1


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


# -- decohere ----------------------------------------------------------------------

def test_run_decohere_structural_relations_small():
    spec = default_spec("decohere")
    spec = replace(spec, table=dict(spec.table, mu=0.2, m=5.0, mu_list=()))
    result = run_decohere(spec)
    names = {c.name: c for c in result.checks}
    assert names["phase_gap"].status == "pass"
    assert names["theta_relation"].status == "pass"
    assert names["q1_drift"].status == "pass"
    assert "dev_bound_stability" not in names  # no mu sweep requested
    pair = result.info["pair"]
    assert (pair["L2"] ** 2 - pair["L1"] ** 2) * pair["T"] == pytest.approx(
        0.5 * math.pi, abs=1e-13)
    assert pair["theta_sq"] == 0.2 / 5.0
    assert pair["separation_initial"] == 0.0
    assert set(result.records) == {"series_L1", "series_L2"}
    embedded = result.info["embedded"]
    assert embedded["norm_identity_ratio"] == pytest.approx(1.0, rel=1e-6)
    assert embedded["scale_ratio_L2_over_L1"] > 1.0


def test_decohere_initial_separation_can_fail(monkeypatch):
    """Negative control: the L2 run started from perturbed data trips the
    initial_separation check, which reads the runs' t = 0 fields."""
    import zrlab.experiments as experiments

    real_evolve = experiments.evolve
    calls = []

    def evolve_perturbing_l2(state0, coeffs, config, observers=()):
        calls.append(config.t_end)
        if len(calls) == 2:  # the pair runs L1, then L2
            state0.b *= 1.5
        return real_evolve(state0, coeffs, config, observers)

    monkeypatch.setattr(experiments, "evolve", evolve_perturbing_l2)
    spec = default_spec("decohere")
    result = run_decohere(replace(spec, table=dict(spec.table, mu=0.2, m=5.0, mu_list=())))
    assert len(calls) == 2 and calls[0] < calls[1]
    assert result.info["pair"]["separation_initial"] > 0.0
    assert {c.name: c.status for c in result.checks}["initial_separation"] == "fail"
    assert result.status == "fail"


# -- growth ------------------------------------------------------------------------

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


# -- dispatch ------------------------------------------------------------------------

def test_run_experiment_dispatch():
    spec = _small_simulate_spec()
    assert run_experiment(spec).status == "pass"
    with pytest.raises(ConfigError, match="unknown experiment kind"):
        run_experiment(replace(spec, kind="bogus"))
