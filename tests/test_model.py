"""Parameter mapping, change of variables, invariants, plane waves."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from zrlab import (FieldState, PhysicalParams, SpectralGrid, StepperConfig,
                   coefficients_from_params, conserved_quantities, evolve,
                   modified_system_coefficients, normalized_coefficients,
                   plane_wave_state, unit_physical_params)


def test_unit_physical_collapse():
    # nu = 0, beta = 1: potentials (+1, -1), speeds (+1, -1), sources (-1/2, -1/2)
    co = coefficients_from_params(unit_physical_params())
    assert co.dispersion == 1.0
    assert co.potential_plus == 1.0
    assert co.potential_minus == -1.0
    assert co.cubic == 1.0
    assert co.speed_plus == 1.0
    assert co.speed_minus == -1.0
    assert co.source_plus == -0.5
    assert co.source_minus == -0.5


def test_cubic_strength_example():
    p = PhysicalParams(theta=2.0, gamma=3.0, omega=1.0, beta=4.0, nu=1.0)
    # q = gamma + nu(gamma nu - 1)/(2(beta - nu^2)) = 3 + 2/6
    assert p.q == pytest.approx(10.0 / 3.0, rel=1e-15)
    co = coefficients_from_params(p)
    assert co.potential_plus == pytest.approx(3.0 * (2.0 - 0.5))
    assert co.potential_minus == pytest.approx(-3.0 * (2.0 + 0.5))
    assert co.cubic == pytest.approx(10.0)
    assert co.speed_plus == pytest.approx(0.5)
    assert co.speed_minus == pytest.approx(-1.5)
    assert co.source_plus == pytest.approx(0.75 * (-1.0 + 0.25))
    assert co.source_minus == pytest.approx(0.75 * (-1.0 - 0.25))


def test_coefficient_mapping_reproduces_physical_rhs():
    """Push smooth fields through both formulations of the right-hand side and
    compare: the first-order system mapped back through rho = psi1 + psi2,
    u = sqrt(beta)(psi1 - psi2) must give the original transport rows, and the
    potential seen by B must equal gamma (u - nu/2 rho + q |B|^2)."""
    p = PhysicalParams(theta=1.7, gamma=0.8, omega=1.2, beta=3.0, nu=0.6)
    co = coefficients_from_params(p)
    g = SpectralGrid(2.0 * np.pi, 128)
    b = np.exp(1j * 2.0 * g.x) + 0.3 * np.exp(-1j * g.x)
    psi1 = np.cos(3.0 * g.x)
    psi2 = np.sin(2.0 * g.x)
    rb = np.sqrt(p.beta)

    dx = lambda f: g.derivative(f).real
    absb2 = np.abs(b) ** 2

    # transport rows of the first-order system
    dpsi1 = -co.speed_plus * dx(psi1) + co.source_plus * dx(absb2)
    dpsi2 = -co.speed_minus * dx(psi2) + co.source_minus * dx(absb2)
    drho_sys = dpsi1 + dpsi2
    du_sys = rb * (dpsi1 - dpsi2)

    # original transport rows (u-row source = gamma*nu/2, the energy-conserving
    # normalization; the nu-free variant demonstrably breaks Q4 conservation)
    rho, u = psi1 + psi2, rb * (psi1 - psi2)
    drho_phys = (-dx(u - p.nu * rho) - p.gamma * dx(absb2)) / p.theta
    du_phys = (-dx(p.beta * rho - p.nu * u) + 0.5 * p.gamma * p.nu * dx(absb2)) / p.theta
    assert_allclose(drho_sys, drho_phys, atol=1e-10)
    assert_allclose(du_sys, du_phys, atol=1e-10)

    # potential row
    v_sys = co.potential_plus * psi1 + co.potential_minus * psi2 + co.cubic * absb2
    v_phys = p.gamma * (u - 0.5 * p.nu * rho + p.q * absb2)
    assert_allclose(v_sys, v_phys, atol=1e-12)
    assert co.dispersion == p.omega


def test_normalized_preset_is_all_ones():
    co = normalized_coefficients()
    assert (co.dispersion, co.potential_plus, co.potential_minus, co.cubic) == (1, 1, 1, 1)
    assert (co.speed_plus, co.speed_minus) == (1, -1)
    assert (co.source_plus, co.source_minus) == (1, 1)


def test_modified_system_coefficients():
    co = modified_system_coefficients(mu=0.1, big_l=3.0, c=0.5, theta_sq=0.04)
    assert co.dispersion == pytest.approx(0.01)
    assert co.potential_plus == 1.0 and co.potential_minus == 1.0
    assert co.cubic == 0.04
    assert co.speed_plus == pytest.approx(0.1 * 0.5 / 3.0)
    assert co.speed_minus == pytest.approx(-0.1 * 1.5 / 3.0)
    assert co.source_plus == pytest.approx(0.04 * 0.1 / 3.0)
    assert co.source_minus == co.source_plus
    with pytest.raises(ValueError):
        modified_system_coefficients(0.0, 3.0, 0.5, 0.04)
    with pytest.raises(ValueError):
        modified_system_coefficients(0.1, 3.0, 1.2, 0.04)


def test_params_validation():
    with pytest.raises(ValueError):
        PhysicalParams(beta=0.0)
    with pytest.raises(ValueError):
        PhysicalParams(theta=0.0)
    with pytest.raises(ValueError):
        PhysicalParams(beta=1.0, nu=1.0)  # beta - nu^2 = 0
    with pytest.raises(ValueError):
        PhysicalParams(gamma=np.inf)


def test_field_state_reality_budget():
    # psi is real by construction: a complex psi is refused, whatever its
    # imaginary part, and a real one of any dtype is stored as float64
    g = SpectralGrid(8.0, 16)
    for psi in (np.ones(g.n) * (1 + 1e-6j), np.ones(g.n) + 0j):
        with pytest.raises(TypeError, match="real fields"):
            FieldState(g, np.zeros(g.n), psi, np.zeros(g.n))
        with pytest.raises(TypeError, match="real fields"):
            FieldState(g, np.zeros(g.n), np.zeros(g.n), psi)
    st = FieldState(g, np.zeros(g.n), np.ones(g.n, dtype=np.float32), np.zeros(g.n, dtype=int))
    assert st.psi1.dtype == st.psi2.dtype == np.float64
    with pytest.raises(ValueError):
        FieldState(g, np.zeros(g.n - 1), np.zeros(g.n), np.zeros(g.n))


def test_field_state_rejects_non_finite():
    g = SpectralGrid(8.0, 16)
    ok = np.zeros(g.n)
    for bad in (np.nan, np.inf, -np.inf):
        spoiled = ok.copy()
        spoiled[3] = bad
        for fields in ((spoiled, ok, ok), (ok, spoiled, ok), (ok, ok, spoiled)):
            with pytest.raises(ValueError, match="non-finite"):
                FieldState(g, *fields)


def test_conserved_plane_wave_values():
    """For B = A e^{i kappa x}, psi = 0: Q1 = A^2 L, Q3 = kappa Q1 (pure
    momentum), Q4 = (omega/2) kappa^2 A^2 L + (gamma q / 4) A^4 L."""
    g = SpectralGrid(2.0 * np.pi, 64)
    p = unit_physical_params()
    co = coefficients_from_params(p)
    amp, kappa = 0.7, 3.0
    state, _ = plane_wave_state(g, co, amp, kappa)
    row = conserved_quantities(state, p, s_list=(0.0, 1.0))
    assert list(row) == ["Q1", "Q2", "Q3", "Q4", "HsB_0", "HsB_1", "Hpsi1", "Hpsi2"]
    L = g.length
    assert row["Q1"] == pytest.approx(amp**2 * L, rel=1e-12)
    assert row["Q3"] == pytest.approx(kappa * amp**2 * L, rel=1e-12)
    want_q4 = 0.5 * kappa**2 * amp**2 * L + 0.25 * amp**4 * L
    assert row["Q4"] == pytest.approx(want_q4, rel=1e-12)
    assert row["Q2"] == pytest.approx(row["Q4"])  # nu = 0
    assert row["HsB_0"] == pytest.approx(amp * np.sqrt(L), rel=1e-12)
    assert row["HsB_1"] == pytest.approx(amp * np.sqrt(L) * (1 + kappa), rel=1e-12)
    assert row["Hpsi1"] == row["Hpsi2"] == 0.0


def test_plane_wave_dispersion_relation():
    g = SpectralGrid(2.0 * np.pi, 64)
    co = normalized_coefficients()
    _, omega_freq = plane_wave_state(g, co, amplitude=0.7, kappa=3.0, c1=0.2, c2=-0.1)
    # Omega = kappa^2 + c1 + c2 + A^2 for the all-ones preset
    assert omega_freq == pytest.approx(9.0 + 0.2 - 0.1 + 0.49, rel=1e-14)


def test_plane_wave_rejects_bad_kappa():
    g = SpectralGrid(2.0 * np.pi, 64)
    co = normalized_coefficients()
    with pytest.raises(ValueError):
        plane_wave_state(g, co, 1.0, kappa=2.5)  # not a lattice frequency
    with pytest.raises(ValueError):
        plane_wave_state(g, co, 1.0, kappa=40.0)  # beyond the band


def _exact_invariant_drifts(params, dt, theta_less=False):
    """Relative drifts of Q1 and Q3 over 20 fused steps of a phased Gaussian B
    with psi1 = 0.3 e^{-(x/3)^2}, psi2 = psi1 / 2.  `theta_less` swaps in the
    Q3 formula without the factor theta: int u rho + P."""
    grid = SpectralGrid(64.0, 256)
    psi1 = 0.3 * np.exp(-((grid.x / 3.0) ** 2))
    state = FieldState(grid, np.exp(-((grid.x / 2.0) ** 2) + 0.5j * grid.x), psi1, 0.5 * psi1)

    def observe(st):
        row = conserved_quantities(st, params)
        if theta_less:
            rho, u = st.psi1 + st.psi2, np.sqrt(params.beta) * (st.psi1 - st.psi2)
            row["Q3"] -= (params.theta - 1.0) * grid.dx * float(np.sum(u * rho))
        return row

    _, record = evolve(state, coefficients_from_params(params),
                       StepperConfig(dt, 20 * dt), (observe,))
    drifts = {}
    for name in ("Q1", "Q3"):
        series = np.asarray(record.column(name))
        drifts[name] = float(np.max(np.abs(series - series[0]))) / abs(series[0])
    return drifts


def test_mass_and_momentum_exact_for_drawn_params():
    """Q1 and Q3 = theta int u rho + P are invariants the Strang scheme holds
    to round-off, for any physical parameters with beta - nu^2 > 0."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=25, deadline=None)
    @hypothesis.example(1.3, 0.9, 0.8, 2.2, 0.7 / np.sqrt(2.2), 1e-2)
    @hypothesis.given(st.floats(0.5, 2.0), st.floats(0.5, 1.5), st.floats(0.5, 1.5),
                      st.floats(0.5, 3.0), st.floats(-0.9, 0.9), st.floats(2e-3, 1e-2))
    def check(theta, gamma, omega, beta, nu_frac, dt):
        params = PhysicalParams(theta, gamma, omega, beta, nu_frac * np.sqrt(beta))
        drifts = _exact_invariant_drifts(params, dt)
        assert drifts["Q1"] < 1e-12 and drifts["Q3"] < 1e-12

    check()


def test_theta_less_momentum_drifts():
    """Negative control: without the factor theta, Q3 is no invariant at
    theta = 1.3 and fails the round-off bound the exact formula meets."""
    params = PhysicalParams(1.3, 0.9, 0.8, 2.2, 0.7)
    assert _exact_invariant_drifts(params, 1e-2)["Q3"] < 1e-12
    assert _exact_invariant_drifts(params, 1e-2, theta_less=True)["Q3"] > 1e-6
