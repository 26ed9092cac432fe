"""Strang stepper: exactness, conservation, reversibility, order, guards."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from zrlab import (BlowUpError, FieldState, GeneralCoefficients, PhysicalParams,
                   SpectralGrid, StepperConfig, coefficients_from_params,
                   conserved_quantities, evolve, normalized_coefficients,
                   plane_wave_state, strang_step, unit_physical_params)
from zrlab.model import ExternalPotential


def smooth_state(grid, seed=0):
    """Periodic-smooth data (band-limited trig panels), safely resolved."""
    rng = np.random.default_rng(seed)
    k0 = 2.0 * np.pi / grid.length
    b = (0.8 * np.exp(-np.sin(0.5 * k0 * grid.x) ** 2 * 20.0)
         * np.exp(1j * 2.0 * k0 * grid.x))
    psi1 = 0.3 * np.cos(k0 * grid.x) + 0.1 * np.sin(3 * k0 * grid.x)
    psi2 = -0.2 * np.cos(2 * k0 * grid.x)
    return FieldState(grid, b, psi1, psi2, 0.0)


@pytest.fixture
def setup():
    grid = SpectralGrid(32.0, 256)
    coeffs = coefficients_from_params(unit_physical_params())
    return grid, coeffs, smooth_state(grid)


def test_tiny_step_is_near_identity(setup):
    grid, coeffs, state = setup
    before = state.copy()
    strang_step(state, coeffs, 1e-9)
    assert np.max(np.abs(state.b - before.b)) < 1e-6
    assert np.max(np.abs(state.psi1 - before.psi1)) < 1e-8
    assert state.time == pytest.approx(1e-9)


def test_plane_wave_is_exact(setup):
    # plane waves solve every sub-flow exactly, so the split solution is exact
    grid2 = SpectralGrid(2.0 * np.pi, 64)
    coeffs = normalized_coefficients()
    state, omega_freq = plane_wave_state(grid2, coeffs, 0.7, 3.0, c1=0.2, c2=-0.1)
    config = StepperConfig(dt=1e-3, t_end=0.5, record_every=500)
    final, _ = evolve(state, coeffs, config)
    exact = 0.7 * np.exp(1j * (3.0 * grid2.x - omega_freq * 0.5))
    assert np.max(np.abs(final.b - exact)) < 1e-11
    assert_allclose(final.psi1, 0.2, atol=1e-13)
    assert_allclose(final.psi2, -0.1, atol=1e-13)


def test_mass_is_machine_exact(setup):
    grid, coeffs, state = setup
    q0 = grid.sobolev_norm(state.b, 0.0) ** 2
    for _ in range(1000):
        strang_step(state, coeffs, 1e-3)
    q1 = grid.sobolev_norm(state.b, 0.0) ** 2
    assert abs(q1 - q0) / q0 < 5e-12


def test_time_reversal(setup):
    grid, coeffs, state = setup
    start = state.copy()
    for _ in range(200):
        strang_step(state, coeffs, 1e-3)
    for _ in range(200):
        strang_step(state, coeffs, -1e-3)
    assert np.max(np.abs(state.b - start.b)) < 1e-10
    assert np.max(np.abs(state.psi1 - start.psi1)) < 1e-10
    assert np.max(np.abs(state.psi2 - start.psi2)) < 1e-10


def test_second_order_convergence(setup):
    grid, coeffs, state0 = setup

    def run(dt):
        config = StepperConfig(dt=dt, t_end=0.2, record_every=10**9)
        final, _ = evolve(state0, coeffs, config)
        return final

    ref = run(1.25e-4)

    def err(final):
        return (grid.sobolev_norm(final.b - ref.b, 0.0)
                + grid.sobolev_norm(final.psi1 - ref.psi1, 0.0)
                + grid.sobolev_norm(final.psi2 - ref.psi2, 0.0))

    e1, e2 = err(run(2e-3)), err(run(1e-3))
    assert e1 / e2 == pytest.approx(4.0, abs=0.5)


def test_q1_and_q4_conserved_nu_zero(setup):
    grid, coeffs, state = setup
    p = unit_physical_params()
    q_start = conserved_quantities(state, p)
    for _ in range(500):
        strang_step(state, coeffs, 1e-3)
    q_end = conserved_quantities(state, p)
    assert abs(q_end.q1 - q_start.q1) / q_start.q1 < 1e-12
    assert abs(q_end.q4 - q_start.q4) / abs(q_start.q4) < 1e-6


def test_q4_conserved_nu_nonzero():
    """Quartic-energy conservation for generic parameters (nu != 0) with
    second-order drift decay; this is what pins the u-row source term."""
    p = PhysicalParams(theta=1.3, gamma=0.9, omega=0.8, beta=2.2, nu=0.7)
    coeffs = coefficients_from_params(p)
    grid = SpectralGrid(32.0, 256)
    state0 = smooth_state(grid)

    def drift(dt):
        state = state0.copy()
        q0 = conserved_quantities(state, p).q4
        worst = 0.0
        for _ in range(int(round(0.5 / dt))):
            strang_step(state, coeffs, dt)
            worst = max(worst, abs(conserved_quantities(state, p).q4 - q0))
        return worst / abs(q0)

    d1, d2 = drift(1e-3), drift(5e-4)
    assert d1 < 1e-6
    assert d1 / d2 == pytest.approx(4.0, abs=0.5)


def test_blow_up_detected():
    grid = SpectralGrid(8.0, 32)
    coeffs = normalized_coefficients()
    # |B|^2 overflows float64, so the first nonlinear step must flag it
    state = FieldState(grid, np.full(grid.n, 1e160 + 0j), np.zeros(grid.n),
                       np.zeros(grid.n), 0.0)
    with pytest.warns(RuntimeWarning):
        with pytest.raises(BlowUpError) as excinfo:
            strang_step(state, coeffs, 1e-3)
    assert excinfo.value.time == 0.0


def test_reality_guard_fires_on_corrupted_psi(setup):
    grid, coeffs, state = setup
    state.psi1 = state.psi1 + 1e-6j * np.ones(grid.n)  # bypasses construction
    with pytest.raises(RuntimeError, match="reality budget"):
        strang_step(state, coeffs, 1e-3)


def test_stepper_config_validation():
    with pytest.raises(ValueError):
        StepperConfig(dt=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        StepperConfig(dt=0.1, t_end=0.35)  # not an integer multiple
    with pytest.raises(ValueError):
        StepperConfig(dt=0.1, t_end=1.0, record_every=0)
    assert StepperConfig(dt=0.1, t_end=1.0).steps == 10
    assert StepperConfig(dt=0.1, t_end=0.0).steps == 0


def test_evolve_records_and_preserves_input(setup):
    grid, coeffs, state = setup
    before = state.copy()
    config = StepperConfig(dt=0.01, t_end=0.1, record_every=3)
    final, record = evolve(state, coeffs, config,
                           observers=(lambda st: {"m": grid.sobolev_norm(st.b)},))
    assert_allclose(state.b, before.b)  # input untouched
    assert record.column("t") == pytest.approx([0.0, 0.03, 0.06, 0.09, 0.1])
    assert "m" in record.columns and len(record) == 5
    assert record.meta["steps"] == 10
    assert final.time == pytest.approx(0.1)


def test_dealias_masks_high_frequency_source():
    """|B|^2 of a j = +/-20 cosine pair lives at modes 0 and +/-40; with n = 64
    the 2/3 mask kills |j| > 21, so the dealiased source is exactly zero and
    psi stays frozen, while the unmasked run picks the mode up."""
    grid = SpectralGrid(2.0 * np.pi, 64)
    coeffs = normalized_coefficients()
    b = (2.0 * np.cos(20.0 * grid.x)).astype(complex)

    def run(dealias):
        state = FieldState(grid, b, np.zeros(grid.n), np.zeros(grid.n), 0.0)
        strang_step(state, coeffs, 1e-2, dealias=dealias)
        return state

    frozen = run(dealias=True)
    alive = run(dealias=False)
    assert np.max(np.abs(frozen.psi1)) < 1e-14
    assert np.max(np.abs(alive.psi1)) > 1e-4


def test_static_external_is_exact_phase():
    grid = SpectralGrid(2.0 * np.pi, 64)
    profile = np.cos(grid.x)
    coeffs = GeneralCoefficients(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                                 external_plus=ExternalPotential(profile, 0.0))
    b0 = np.exp(-np.sin(grid.x / 2) ** 2 * 4) + 0j
    state = FieldState(grid, b0, np.zeros(grid.n), np.zeros(grid.n), 0.0)
    config = StepperConfig(dt=0.01, t_end=1.0, record_every=100)
    final, _ = evolve(state, coeffs, config)
    assert_allclose(final.b, b0 * np.exp(-1j * 1.0 * profile), atol=1e-12)


def test_moving_external_second_order():
    """V(x, t) = cos(x - t): the exact phase is int_0^t V = sin(x) - sin(x-t);
    midpoint sampling of the travelling profile makes the error O(dt^2)."""
    grid = SpectralGrid(2.0 * np.pi, 64)
    profile = np.cos(grid.x)
    coeffs = GeneralCoefficients(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                                 external_plus=ExternalPotential(profile, 1.0))
    b0 = np.ones(grid.n, dtype=complex)
    exact = b0 * np.exp(-1j * (np.sin(grid.x) - np.sin(grid.x - 0.5)))

    def err(dt):
        state = FieldState(grid, b0, np.zeros(grid.n), np.zeros(grid.n), 0.0)
        config = StepperConfig(dt=dt, t_end=0.5, record_every=10**9)
        final, _ = evolve(state, coeffs, config)
        return np.max(np.abs(final.b - exact))

    e1, e2 = err(1e-2), err(5e-3)
    assert e1 < 1e-4
    assert e1 / e2 == pytest.approx(4.0, abs=0.5)


def test_external_profile_grid_mismatch():
    grid = SpectralGrid(2.0 * np.pi, 64)
    coeffs = GeneralCoefficients(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                                 external_plus=ExternalPotential(np.ones(32), 0.0))
    state = FieldState(grid, np.ones(grid.n, dtype=complex), np.zeros(grid.n),
                       np.zeros(grid.n), 0.0)
    with pytest.raises(ValueError, match="does not match the run grid"):
        strang_step(state, coeffs, 1e-3)


def test_large_phase_step_warns():
    grid = SpectralGrid(2.0 * np.pi, 64)
    coeffs = normalized_coefficients()
    state = FieldState(grid, 10.0 * np.ones(grid.n, dtype=complex),
                       np.zeros(grid.n), np.zeros(grid.n), 0.0)
    with pytest.warns(RuntimeWarning, match="decrease dt"):
        strang_step(state, coeffs, 0.1)  # |B|^2 dt = 10 rad > pi
