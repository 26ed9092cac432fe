"""Strang stepper: exactness, conservation, reversibility, order, guards,
the fused loop's private work arrays and direct FFT calls, and the
per-member guards of a batch."""

import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from zrlab import (BlowUpError, FieldState, GeneralCoefficients, PhysicalParams,
                   SpectralGrid, StepperConfig, coefficients_from_params,
                   conserved_quantities, evolve, normalized_coefficients,
                   plane_wave_state, strang_step, unit_physical_params)
from zrlab import evolution
from zrlab.evolution import evolve_members


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
    assert abs(q_end["Q1"] - q_start["Q1"]) / q_start["Q1"] < 1e-12
    assert abs(q_end["Q4"] - q_start["Q4"]) / abs(q_start["Q4"]) < 1e-6


def test_q4_conserved_nu_nonzero():
    """Quartic-energy conservation for generic parameters (nu != 0) with
    second-order drift decay; this is what pins the u-row source term."""
    p = PhysicalParams(theta=1.3, gamma=0.9, omega=0.8, beta=2.2, nu=0.7)
    coeffs = coefficients_from_params(p)
    grid = SpectralGrid(32.0, 256)
    state0 = smooth_state(grid)

    def drift(dt):
        state = state0.copy()
        q0 = conserved_quantities(state, p)["Q4"]
        worst = 0.0
        for _ in range(int(round(0.5 / dt))):
            strang_step(state, coeffs, dt)
            worst = max(worst, abs(conserved_quantities(state, p)["Q4"] - q0))
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
    # psi travels through numpy's real transforms, which refuse a complex field
    grid, coeffs, state = setup
    state.psi1 = state.psi1 + 1e-6j * np.ones(grid.n)  # bypasses construction
    with pytest.raises(TypeError, match="rfft"):
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
    assert "m" in record.columns and len(record.column("t")) == 5
    assert config.steps == 10 and record.column("t")[-1] == config.steps * config.dt
    assert final.time == pytest.approx(0.1)


def test_dealias_masks_high_frequency_source():
    """|B|^2 of a j = +/-20 cosine pair lives at modes 0 and +/-40; with n = 64
    the 2/3 mask kills |j| > 21, so the dealiased source is exactly zero and
    psi stays frozen, while with n = 128 the mask keeps |j| <= 42 and psi
    picks the mode up."""
    coeffs = normalized_coefficients()

    def run(n):
        grid = SpectralGrid(2.0 * np.pi, n)
        b = (2.0 * np.cos(20.0 * grid.x)).astype(complex)
        state = FieldState(grid, b, np.zeros(grid.n), np.zeros(grid.n), 0.0)
        return strang_step(state, coeffs, 1e-2)

    assert np.max(np.abs(run(64).psi1)) < 1e-14
    assert np.max(np.abs(run(128).psi1)) > 0.5


def test_static_external_is_exact_phase():
    """A frozen psi1 (no speed, no source) is a static potential: B picks up
    the exact phase exp(-i t psi1)."""
    grid = SpectralGrid(2.0 * np.pi, 64)
    profile = np.cos(grid.x)
    coeffs = GeneralCoefficients(0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    b0 = np.exp(-np.sin(grid.x / 2) ** 2 * 4) + 0j
    state = FieldState(grid, b0, profile, np.zeros(grid.n), 0.0)
    config = StepperConfig(dt=0.01, t_end=1.0, record_every=100)
    final, _ = evolve(state, coeffs, config)
    assert_allclose(final.b, b0 * np.exp(-1j * 1.0 * profile), atol=1e-12)


def test_moving_external_second_order():
    """psi1 = cos x transported at speed 1 with no source is the travelling
    potential V(x, t) = cos(x - t): the exact phase is int_0^t V =
    sin(x) - sin(x - t); the Strang splitting makes the error O(dt^2)."""
    grid = SpectralGrid(2.0 * np.pi, 64)
    profile = np.cos(grid.x)
    coeffs = GeneralCoefficients(0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0)
    b0 = np.ones(grid.n, dtype=complex)
    exact = b0 * np.exp(-1j * (np.sin(grid.x) - np.sin(grid.x - 0.5)))

    def err(dt):
        state = FieldState(grid, b0, profile, np.zeros(grid.n), 0.0)
        config = StepperConfig(dt=dt, t_end=0.5, record_every=10**9)
        final, _ = evolve(state, coeffs, config)
        return np.max(np.abs(final.b - exact))

    e1, e2 = err(1e-2), err(5e-3)
    assert e1 < 1e-4
    assert e1 / e2 == pytest.approx(4.0, abs=0.5)


def test_large_phase_step_warns():
    grid = SpectralGrid(2.0 * np.pi, 64)
    coeffs = normalized_coefficients()
    state = FieldState(grid, 10.0 * np.ones(grid.n, dtype=complex),
                       np.zeros(grid.n), np.zeros(grid.n), 0.0)
    with pytest.warns(RuntimeWarning, match="decrease dt"):
        strang_step(state, coeffs, 0.1)  # |B|^2 dt = 10 rad > pi


def test_evolve_warns_on_large_phase_step():
    grid = SpectralGrid(2.0 * np.pi, 64)
    coeffs = normalized_coefficients()
    state = FieldState(grid, 10.0 * np.ones(grid.n, dtype=complex),
                       np.zeros(grid.n), np.zeros(grid.n), 0.0)
    with pytest.warns(RuntimeWarning, match="decrease dt"):
        evolve(state, coeffs, StepperConfig(dt=0.1, t_end=0.2))


def test_evolve_blow_up_carries_failing_step_start():
    """|B|^2 ~ 1e306 drives psi past the float64 range in the second step of
    size 0.5 from t = 0.25: evolve and the unfused steps both report the
    start time 0.75 of that step (not 0.25, not its end time 1.25)."""
    grid = SpectralGrid(2.0 * np.pi, 32)
    coeffs = normalized_coefficients()
    b = 1e153 * (1.0 + 0.5 * np.cos(grid.x)) + 0j
    state = FieldState(grid, b, np.zeros(grid.n), np.zeros(grid.n), 0.25)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.warns(RuntimeWarning, match="decrease dt"):
        with pytest.raises(BlowUpError) as fused:
            evolve(state, coeffs, StepperConfig(dt=0.5, t_end=5.0))
        with pytest.raises(BlowUpError) as unfused:
            for _ in range(10):
                strang_step(state, coeffs, 0.5)
    assert fused.value.time == unfused.value.time == 0.75


def test_evolve_hands_out_no_work_array(setup):
    """Every state an observer sees, and the final state, keeps its values
    after the run goes on: no handed-out array is one the steps write into."""
    grid, coeffs, state = setup
    seen = []

    def keep(st):
        seen.append([(arr, arr.copy()) for arr in (st.b, st.psi1, st.psi2)])
        return {}

    final, _ = evolve(state, coeffs, StepperConfig(dt=0.01, t_end=0.1, record_every=3),
                      observers=(keep,))
    assert len(seen) == 5
    for arrays in seen:
        for ref, copy in arrays:
            assert np.array_equal(ref, copy)
    assert final.b is seen[-1][0][0]


def test_evolve_threads_bit_identical_to_serial(setup):
    """Four threads running evolve on the same inputs, switching often, give
    bit for bit the serial result: no two runs share work arrays."""
    grid, coeffs, state = setup
    state.psi1 += 0.3 * np.cos(2.0 * np.pi * grid.x / grid.length)
    config = StepperConfig(dt=1e-3, t_end=0.3, record_every=40)
    observers = (lambda st: {"m": grid.sobolev_norm(st.b)},)
    serial, serial_record = evolve(state, coeffs, config, observers)
    results = [None] * 4

    def run(k):
        results[k] = evolve(state, coeffs, config, observers)

    threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for final, record in results:
        for name in ("b", "psi1", "psi2"):
            assert np.array_equal(getattr(final, name), getattr(serial, name))
        assert record.column("m") == serial_record.column("m")


def test_blow_up_detected_in_psi_alone():
    """With no potential and no cubic term B only disperses, so a psi field
    overflowing in the second half kick is caught by its own finite check,
    at the start time of the failing step, by evolve and strang_step alike."""
    grid = SpectralGrid(2.0 * np.pi, 32)
    coeffs = GeneralCoefficients(1.0, 0.0, 0.0, 0.0, 1.0, -1.0, 3e307, 0.0)
    b = np.sqrt(1.0 + 0.5 * np.cos(grid.x)) + 0j
    state = FieldState(grid, b, np.zeros(grid.n), np.zeros(grid.n), 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowUpError) as fused:
            evolve(state, coeffs, StepperConfig(dt=1.0, t_end=3.0))
        with pytest.raises(BlowUpError) as unfused:
            strang_step(state.copy(), coeffs, 1.0)
    assert fused.value.time == unfused.value.time == 0.0


@pytest.mark.parametrize("blow_up_first", [True, False])
def test_evolve_members_blow_up_carries_the_member_step_start(blow_up_first):
    """In a batch, the member that overflows (the one of
    test_evolve_blow_up_carries_failing_step_start) raises BlowUpError at its
    own step start 0.75, not at the other member's (0.1), wherever it stands
    in the batch."""
    grid = SpectralGrid(2.0 * np.pi, 32)
    coeffs = normalized_coefficients()
    calm = FieldState(grid, 0.1 * np.exp(1j * grid.x), np.zeros(grid.n), np.zeros(grid.n), 0.0)
    b = 1e153 * (1.0 + 0.5 * np.cos(grid.x)) + 0j
    wild = FieldState(grid, b, np.zeros(grid.n), np.zeros(grid.n), 0.25)
    members = [(calm, StepperConfig(dt=0.1, t_end=5.0)),
               (wild, StepperConfig(dt=0.5, t_end=5.0))]
    if blow_up_first:
        members.reverse()
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.warns(RuntimeWarning, match="decrease dt"):
        with pytest.raises(BlowUpError) as excinfo:
            evolve_members([m[0] for m in members], [coeffs, coeffs], [m[1] for m in members])
    assert excinfo.value.time == 0.75


def test_evolve_members_blow_up_time_formed_only_on_blow_up(monkeypatch):
    """The loop hands the nonlinear kernel the members' start times and the
    step index, and forms no per-step time array: every one of a 2-member,
    100-step batch's steps receives the same `start` object."""
    grid = SpectralGrid(2.0 * np.pi, 32)
    coeffs = normalized_coefficients()
    state = FieldState(grid, 0.1 * np.exp(1j * grid.x), np.zeros(grid.n), np.zeros(grid.n), 0.0)
    kernel, starts = evolution._Plan.nonlinear, []

    def spy(plan, b, psi, start, step=0):
        starts.append(start)
        return kernel(plan, b, psi, start, step)

    monkeypatch.setattr(evolution._Plan, "nonlinear", spy)
    config = StepperConfig(dt=0.01, t_end=1.0, record_every=10)
    evolve_members([state, state], [coeffs, coeffs], [config, config])
    assert len(starts) == 100 and all(start is starts[0] for start in starts)


def test_evolve_members_phase_warning_fires_for_one_member():
    """One member advancing its phase by 10 rad in a step warns with its own
    max |V| dt; the batch without it stays silent."""
    grid = SpectralGrid(2.0 * np.pi, 64)
    coeffs = normalized_coefficients()
    calm = FieldState(grid, 0.1 * np.ones(grid.n, dtype=complex),
                      np.zeros(grid.n), np.zeros(grid.n), 0.0)
    loud = FieldState(grid, 10.0 * np.ones(grid.n, dtype=complex),
                      np.zeros(grid.n), np.zeros(grid.n), 0.0)
    config = StepperConfig(dt=0.1, t_end=0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        evolve_members([calm, calm], [coeffs, coeffs], [config, config])
    with pytest.warns(RuntimeWarning, match=r"advanced 10 rad .* decrease dt"):
        evolve_members([calm, loud], [coeffs, coeffs], [config, config])


@pytest.mark.parametrize("what", ["grid"])  # the one thing the members must share
def test_evolve_members_rejects_mismatched_members(what):
    coeffs = normalized_coefficients()
    states = [FieldState(g, np.ones(g.n, dtype=complex), np.zeros(g.n), np.zeros(g.n), 0.0)
              for g in (SpectralGrid(2.0 * np.pi, 64), SpectralGrid(2.0 * np.pi, 32))]
    config = StepperConfig(dt=0.01, t_end=0.1, record_every=2)
    with pytest.raises(ValueError, match="must share a grid"):
        evolve_members(states, [coeffs, coeffs], [config, config])


def test_evolve_members_honors_each_record_every(setup):
    """Members with their own record_every (7, 10, 3), dt and t_end each
    return, bit for bit, the state and record of a lone `evolve`."""
    grid, coeffs, state = setup
    observers = (lambda st: {"m": grid.sobolev_norm(st.b), "p": float(np.sum(st.psi1))},)
    configs = [StepperConfig(dt=0.01, t_end=0.5, record_every=7),
               StepperConfig(dt=0.02, t_end=0.4, record_every=10),
               StepperConfig(dt=0.005, t_end=0.2, record_every=3)]
    batch = evolve_members([state] * 3, [coeffs] * 3, configs, observers)
    for config, (final, record) in zip(configs, batch):
        alone, alone_record = evolve(state, coeffs, config, observers)
        for name in ("b", "psi1", "psi2"):
            assert getattr(final, name).tobytes() == getattr(alone, name).tobytes()
        assert final.time == alone.time
        assert record.columns == alone_record.columns
        assert record.column("t")[-1] == config.steps * config.dt
    assert [len(record.column("t")) for _, record in batch] == [9, 3, 15]


def test_evolve_members_zero_step_member(setup):
    """A member with t_end = 0 is recorded once at its start and returned
    unchanged, while the batch steps the others as `evolve` does alone."""
    grid, coeffs, state = setup
    observers = (lambda st: {"m": grid.sobolev_norm(st.b)},)
    configs = [StepperConfig(dt=0.01, t_end=0.0), StepperConfig(dt=0.01, t_end=0.05)]
    (still, still_record), (moved, record) = evolve_members([state, state], [coeffs, coeffs],
                                                            configs, observers)
    assert configs[0].steps == 0 and still_record.column("t") == [0.0]
    assert np.array_equal(still.b, state.b) and still.b is not state.b
    alone, alone_record = evolve(state, coeffs, configs[1], observers)
    assert moved.b.tobytes() == alone.b.tobytes() and record.columns == alone_record.columns


@pytest.mark.parametrize("n", [8, 480, 512, 2**15])
@pytest.mark.parametrize("rows", [(), (3,)])
def test_fft_gufuncs_match_numpy_fft(n, rows):
    """The fused loop's four transforms, called as it calls numpy's pocketfft
    gufuncs (fct 1.0 or 1/n, out=(work array,)), give np.fft's bits on 1-D
    and batched inputs, at powers of two and at a 5-smooth n."""
    gufuncs = evolution._Plan(SpectralGrid(2.0 * np.pi, 8), [normalized_coefficients()],
                              [0.1]).gufuncs
    rng = np.random.default_rng(n)
    z = rng.standard_normal(rows + (n,)) + 1j * rng.standard_normal(rows + (n,))
    x = rng.standard_normal(rows + (n,))
    half = np.fft.rfft(x) + 1j * rng.standard_normal(rows + (n // 2 + 1,))
    calls = [(gufuncs.fft, z, 1.0, complex, n, np.fft.fft(z)),
             (gufuncs.ifft, z, 1.0 / n, complex, n, np.fft.ifft(z)),
             (gufuncs.rfft_n_even, x, 1.0, complex, n // 2 + 1, np.fft.rfft(x)),
             (gufuncs.irfft, half, 1.0 / n, float, n, np.fft.irfft(half, n))]
    for gufunc, arg, fct, dtype, length, want in calls:
        out = np.empty(rows + (length,), dtype)
        assert gufunc(arg, fct, out=(out,)) is out
        assert np.array_equal(out, want), gufunc.__name__


def test_slow_path_passes_a_finite_psi_whose_sum_overflows(monkeypatch):
    """A finite psi whose entries sum past the float64 range trips the cheap
    psi test; the slow path finds every field finite and raises nothing.
    With no potential coupling psi stays out of V, so B's phase stays calm."""
    grid = SpectralGrid(2.0 * np.pi, 32)
    coeffs = GeneralCoefficients(1.0, 0.0, 0.0, 0.0, 1.0, -1.0, 1.0, 0.0)
    plan = evolution._Plan(grid, [coeffs], [1e-3])
    diagnose, calls = evolution._Plan.diagnose, []

    def spy(*args):
        calls.append(args)
        return diagnose(*args)

    monkeypatch.setattr(evolution._Plan, "diagnose", spy)
    b = 0.1 * np.exp(1j * grid.x)
    psi = np.full((2, grid.n // 2 + 1), 1e308 + 0j)
    with np.errstate(over="ignore"):
        plan.nonlinear(b, psi, 0.0, 0)
    assert len(calls) == 1 and np.isfinite(psi).all() and np.isfinite(b).all()


def test_slow_path_warns_once_per_loud_member_and_does_not_raise():
    """A finite step whose max |V| dt reaches pi in two of three members takes
    the slow path: one "decrease dt" warning per loud member, each with its
    own phase, and no BlowUpError."""
    grid = SpectralGrid(2.0 * np.pi, 64)
    coeffs = normalized_coefficients()

    def flat(amplitude):
        return FieldState(grid, amplitude * np.ones(grid.n, dtype=complex),
                          np.zeros(grid.n), np.zeros(grid.n), 0.0)

    config = StepperConfig(dt=0.1, t_end=0.1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        evolve_members([flat(0.1), flat(10.0), flat(20.0)], [coeffs] * 3, [config] * 3)
    messages = sorted(str(w.message) for w in caught if "decrease dt" in str(w.message))
    assert len(messages) == 2
    assert "advanced 10 rad" in messages[0] and "advanced 40 rad" in messages[1]


def test_blow_up_tests_fail_without_the_exact_finite_test(monkeypatch):
    """Negative control: a slow path that warns but skips the exact isfinite
    test (it is handed finite stand-ins for b and psi) lets every blow-up
    test above run to t_end without raising."""
    diagnose = evolution._Plan.diagnose

    def warn_only(plan, b, psi, start, step):
        diagnose(plan, np.zeros_like(b), np.zeros_like(psi), start, step)

    monkeypatch.setattr(evolution._Plan, "diagnose", warn_only)
    blow_up_tests = [test_blow_up_detected, test_evolve_blow_up_carries_failing_step_start,
                     test_blow_up_detected_in_psi_alone,
                     lambda: test_evolve_members_blow_up_carries_the_member_step_start(True),
                     lambda: test_evolve_members_blow_up_carries_the_member_step_start(False)]
    for blow_up_test in blow_up_tests:
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            with pytest.raises(pytest.fail.Exception, match="DID NOT RAISE"):
                blow_up_test()


def _evolve_peak_bytes(steps, every_step=None):
    """Peak traced memory of one `evolve` of `steps` steps at n = 512,
    recording at both ends only; `every_step(plan, b, psi)` runs after each
    nonlinear kernel when given."""
    grid = SpectralGrid(32.0, 512)
    coeffs = coefficients_from_params(unit_physical_params())
    state = smooth_state(grid)
    config = StepperConfig(dt=1e-3, t_end=steps * 1e-3, record_every=steps)
    kernel = evolution._Plan.nonlinear

    def step(plan, b, psi, start, i=0):
        kernel(plan, b, psi, start, i)
        every_step(plan, b, psi)

    with pytest.MonkeyPatch.context() as mp:
        if every_step is not None:
            mp.setattr(evolution._Plan, "nonlinear", step)
        tracemalloc.start()
        try:
            evolve(state, coeffs, config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_evolve_peak_memory_does_not_grow_with_steps():
    """Between records the fused loop allocates nothing that outlives a step:
    2 000 steps at n = 512 peak no higher than 20 steps, within one grid
    array.  A loop that keeps psi's half spectra each step fails the guard
    (negative control)."""
    grid_array = 512 * 16
    assert _evolve_peak_bytes(2000) <= _evolve_peak_bytes(20) + grid_array
    kept = []
    leaking = _evolve_peak_bytes(2000, lambda plan, b, psi: kept.append(psi.copy()))
    assert leaking > _evolve_peak_bytes(20) + grid_array
