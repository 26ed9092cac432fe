"""Acceptance gate: the eight headline criteria at their stated tolerances.

Each test appends one [PASS]/[FAIL] line to the session report (printed as an
"acceptance criteria" section at the end of the run) before asserting, so the
summary stays complete even when a criterion fails.  Wall-clock budgets are
part of the criteria and are asserted alongside the numeric tolerances.
"""

import time
from dataclasses import replace

import numpy as np

from zrlab import (
    SpectralGrid,
    StepperConfig,
    evolve,
    normalized_coefficients,
    plane_wave_state,
)
from zrlab.config import default_spec
from zrlab.experiments import (
    inflate_member,
    run_c2probe,
    run_conserve,
    run_decohere,
    run_growth,
    run_inflate,
)


def _emit(report, name, ok, observed, expected, wall, budget):
    status = "PASS" if ok else "FAIL"
    report.append(f"[{status:12s}] {name}: {observed} (want {expected}) "
                  f"[{wall:.1f} s, budget {budget:.0f} s]")


def _checks(result):
    return {c.name: c for c in result.checks}


def test_criterion_1_mass_conservation(acceptance_report):
    budget = 10.0
    spec = replace(default_spec("conserve"), preset="normalized")
    start = time.perf_counter()
    result = run_conserve(spec)
    wall = time.perf_counter() - start

    drift = result.info["q1_drift"]
    ok = drift < 1e-10 and result.status == "pass" and wall < budget
    _emit(acceptance_report, "criterion-1 mass-conservation", ok,
          f"relative Q1 drift {drift:.3e} over t in [0, 5]", "< 1e-10", wall, budget)
    assert drift < 1e-10
    assert result.status == "pass"
    assert wall < budget


def test_criterion_2_energy_conservation(acceptance_report):
    budget = 30.0
    spec = default_spec("conserve")  # unit_physical: omega > 0, beta - nu^2 > 0
    start = time.perf_counter()
    result = run_conserve(spec)
    wall = time.perf_counter() - start

    drift = result.info["q4_drift"]
    ratio = result.info["richardson_ratio"]
    ok = (drift < 1e-6 and 3.5 <= ratio <= 4.5
          and result.status == "pass" and wall < budget)
    _emit(acceptance_report, "criterion-2 energy-conservation", ok,
          f"Q4 drift {drift:.3e}, halved-dt ratio {ratio:.3f}",
          "drift < 1e-6, ratio in [3.5, 4.5]", wall, budget)
    assert drift < 1e-6
    assert 3.5 <= ratio <= 4.5
    assert result.status == "pass"
    assert wall < budget


def test_criterion_3_plane_wave(acceptance_report):
    budget = 5.0
    grid = SpectralGrid(64.0, 512)
    coeffs = normalized_coefficients()
    kappa = 16.0 * (2.0 * np.pi / 64.0)  # lattice mode j = 16
    amplitude = 0.5
    state, omega_freq = plane_wave_state(grid, coeffs, amplitude, kappa)

    def observe(st):
        exact = amplitude * np.exp(1j * (kappa * grid.x - omega_freq * st.time))
        return {"rel_l2": grid.sobolev_norm(st.b - exact, 0.0)
                / grid.sobolev_norm(exact, 0.0)}

    start = time.perf_counter()
    _, record = evolve(state, coeffs,
                       StepperConfig(dt=1e-3, t_end=1.0, record_every=100),
                       observers=(observe,))
    wall = time.perf_counter() - start

    err = max(record.column("rel_l2"))
    ok = err < 1e-6 and wall < budget
    _emit(acceptance_report, "criterion-3 plane-wave", ok,
          f"max relative L2 error {err:.3e} over t in [0, 1]", "< 1e-6", wall, budget)
    assert err < 1e-6
    assert wall < budget


def test_criterion_4_norm_inflation(acceptance_report):
    budget = 300.0
    spec = default_spec("inflate")  # k = l = 1/4, t_probe = 0.1, N in {32..256}
    start = time.perf_counter()
    result = run_inflate(spec)
    wall = time.perf_counter() - start

    fit = result.fits.get("inflation")
    ratios = [m["ratio"] for m in result.info["members"]]
    slope = fit.slope if fit else float("nan")
    r2 = fit.r_squared if fit else 0.0
    ok = (fit is not None and abs(slope - 0.25) <= 0.1 and r2 >= 0.98
          and all(0.8 <= r <= 1.25 for r in ratios)
          and result.status == "pass" and wall < budget)
    _emit(acceptance_report, "criterion-4 norm-inflation", ok,
          f"slope {slope:.4f} (r^2 {r2:.4f}), oracle ratios "
          f"[{min(ratios):.4f}, {max(ratios):.4f}]",
          "slope 0.25 +/- 0.1, r^2 >= 0.98, ratios in [0.8, 1.25]", wall, budget)
    assert fit is not None
    assert abs(slope - 0.25) <= 0.1
    assert r2 >= 0.98
    assert all(0.8 <= r <= 1.25 for r in ratios)
    assert result.status == "pass"
    assert wall < budget


def test_criterion_5_c2_failure_probe(acceptance_report):
    budget = 60.0
    spec = default_spec("c2probe")  # l = -1, k = 0, t_probe = 0.01, N in {16..256}
    start = time.perf_counter()
    result = run_c2probe(spec)
    wall = time.perf_counter() - start

    fit = result.fits.get("c2")
    slope = fit.slope if fit else float("nan")
    ratios = [m["solver_ratio"] for m in result.info["members"]]
    worst = max(abs(r - 1.0) for r in ratios) if None not in ratios else float("nan")
    ok = (fit is not None and abs(slope - 0.5) <= 0.1 and worst <= 1e-3
          and result.status == "pass" and wall < budget)
    _emit(acceptance_report, "criterion-5 c2-failure", ok,
          f"slope {slope:.4f} (r^2 {fit.r_squared if fit else 0:.4f}), "
          f"solver ratios within {worst:.3e} of 1",
          "slope 0.5 +/- 0.1, solver/kernel L2 ratios within 1e-3 of 1", wall, budget)
    assert fit is not None
    assert abs(slope - 0.5) <= 0.1
    assert worst <= 1e-3
    assert result.status == "pass"
    assert wall < budget


def test_criterion_6_decoherence(acceptance_report):
    budget = 300.0
    spec = default_spec("decohere")  # mu = 0.05, M = 20, c = 1/2, sweep {0.1, 0.05, 0.025}
    start = time.perf_counter()
    result = run_decohere(spec)
    wall = time.perf_counter() - start

    pair = result.info["pair"]
    sep, target = pair["separation_final"], pair["analytic_target"]
    stability = result.info["dev_constant_stability"]
    names = _checks(result)
    structural = (names["phase_gap"].status == "pass"
                  and names["theta_relation"].status == "pass")
    ok = (0.5 <= sep / target <= 1.5 and pair["separation_initial"] < 0.1 * sep
          and stability <= 3.0 and structural
          and result.status == "pass" and wall < budget)
    _emit(acceptance_report, "criterion-6 decoherence", ok,
          f"final separation {sep:.4f} = {sep / target:.3f} x target {target:.4f}, "
          f"deviation-constant stability {stability:.3f}, structural relations exact",
          "ratio in [0.5, 1.5], initial < 0.1 x final, stability <= 3.0", wall, budget)
    assert structural
    assert 0.5 <= sep / target <= 1.5
    assert pair["separation_initial"] < 0.1 * sep
    assert stability <= 3.0
    assert result.status == "pass"
    assert wall < budget


def test_criterion_7_sobolev_growth(acceptance_report):
    budget = 600.0
    spec = default_spec("growth")  # s in {1, 3}, t in [0, 50], unit_physical
    start = time.perf_counter()
    result = run_growth(spec)
    wall = time.perf_counter() - start

    names = _checks(result)
    exponent = result.fits["growth_s3"].slope
    h1_sup, h1_env = result.info["h1_sup"], result.info["h1_envelope"]
    ok = (names["h1_apriori"].status == "pass" and exponent <= 2.5
          and names["psi_envelope"].status == "pass"
          and result.status == "pass" and wall < budget)
    _emit(acceptance_report, "criterion-7 sobolev-growth", ok,
          f"sup H1 {h1_sup:.3f} <= envelope {h1_env:.3f}, s=3 exponent "
          f"{exponent:.4f}, psi envelope C^ = {result.info['c_hat']:.4f}",
          "H1 under a priori envelope, exponent <= 2.5, psi under exp envelope",
          wall, budget)
    assert names["h1_apriori"].status == "pass"
    assert exponent <= 2.5
    assert names["psi_envelope"].status == "pass"
    assert result.status == "pass"
    assert wall < budget


def test_criterion_8_oracle_cross_validation(acceptance_report):
    budget = 60.0
    start = time.perf_counter()
    ratios = {}
    for t_probe in (0.005, 0.01, 0.02):
        member = inflate_member(64, 0.25, 0.25, t_probe=t_probe, dt=2.5e-3,
                                variant="f", modes_per_hat=4, nodes=64,
                                coeffs=normalized_coefficients())
        ratios[t_probe] = member["ratio"]
    wall = time.perf_counter() - start

    ok = all(0.9 <= r <= 1.1 for r in ratios.values()) and wall < budget
    shown = ", ".join(f"t={t:g}: {r:.4f}" for t, r in ratios.items())
    _emit(acceptance_report, "criterion-8 oracle-cross-validation", ok,
          f"solver/oracle ratios {shown}", "in [0.9, 1.1] for t <= 0.02", wall, budget)
    for t_probe, ratio in ratios.items():
        assert 0.9 <= ratio <= 1.1, f"t_probe = {t_probe}"
    assert wall < budget
