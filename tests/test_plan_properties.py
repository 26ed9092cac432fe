"""Property tests of the stepper plan over random band-limited data on grids
of every valid size up to 256: the real transforms agree with the complex
ones, translation keeps the Nyquist cosine rule, a Strang step conserves mass, is
reversible and keeps psi1, psi2 real, the fused loop in `evolve` matches a
loop of the unfused `strang_step` for one member or several, and a batch of
members gives bit for bit what `evolve` gives each member alone, whenever
its observers look, the kernel's half-angle phase is exp(-i dt V) to
1e-15, a Galilean boost and the reflection x -> -x map one run to
another to round-off, and `evolve` agrees with an independent reference
stepper (`reference_stepper`) that shares no code with its plan."""

from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from zrlab import (FieldState, GeneralCoefficients, PhysicalParams,  # noqa: E402
                   SpectralGrid, StepperConfig, coefficients_from_params, evolve, strang_step,
                   unit_physical_params)
from zrlab import evolution  # noqa: E402
from zrlab.evolution import evolve_members  # noqa: E402
from reference_stepper import reference_evolve  # noqa: E402


def band_limited(grid, rng, amplitude, real):
    """Random field whose modes lie inside the dealiased band, scaled to sup norm
    `amplitude`."""
    coeffs = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    values = grid.inverse(coeffs * grid.dealias_mask)
    values = values.real if real else values
    return amplitude * values / np.max(np.abs(values))


# every valid grid size up to 256: even, >= 8, 5-smooth
SIZES = sorted({2**a * 3**b * 5**c for a in range(1, 9) for b in range(5) for c in range(4)}
               & set(range(8, 257)))


@st.composite
def fields(draw):
    """(grid, rng): a grid of drawn valid size and length, and a seeded generator."""
    n = draw(st.sampled_from(SIZES))
    length = draw(st.floats(4.0, 64.0))
    return SpectralGrid(length, n), np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=50, deadline=None)
@given(fields())
def test_real_transforms_match_complex(case):
    """The stepper's half spectrum of a real field (numpy's unscaled `rfft`)
    is the grid's complex spectrum on j = 0..n/2, undone by the grid-origin
    phase (-1)^j and the 1/n scale, and `irfft` returns the field."""
    grid, rng = case
    f = band_limited(grid, rng, 1.0, real=True) + rng.standard_normal(grid.n)
    fhat = np.fft.rfft(f)
    parity = (-1.0) ** np.arange(grid.n // 2 + 1)
    assert_allclose(parity * fhat / grid.n, grid.forward(f)[:grid.n // 2 + 1], atol=1e-14)
    back = np.fft.irfft(fhat, grid.n)
    assert back.dtype == np.float64
    assert_allclose(back, f, atol=1e-13)


@settings(max_examples=50, deadline=None)
@given(fields(), st.floats(-10.0, 10.0), st.floats(-1.0, 1.0))
def test_translation_moves_band_and_keeps_nyquist_cosine(case, shift, nyquist):
    """On every valid grid size the half-spectrum translation takes a
    band-limited real field f to x -> f(x - shift) and scales the unpaired
    Nyquist mode by cos(xi_{n/2} shift), keeping the result real."""
    grid, rng = case
    f = band_limited(grid, rng, 1.0, real=True)
    alternating = (-1.0) ** np.arange(grid.n)
    row = grid.translation(shift)
    shifted = np.fft.irfft(np.fft.rfft(f + nyquist * alternating) * row, grid.n)
    moved = grid.inverse(grid.forward(f) * np.exp(-1j * grid.wavenumbers * shift)).real
    cosine = np.cos(grid.wavenumbers[grid.n // 2] * shift)
    assert row[-1].imag == 0.0 and row[-1].real == cosine
    assert_allclose(shifted, moved + nyquist * cosine * alternating, atol=1e-11)


def random_state(grid, rng):
    return FieldState(grid, band_limited(grid, rng, 1.0, real=False),
                      band_limited(grid, rng, 0.5, real=True),
                      band_limited(grid, rng, 0.5, real=True), 0.0)


@settings(max_examples=25, deadline=None)
@given(fields())
def test_strang_step_mass_reversal_reality(case):
    grid, rng = case
    coeffs = coefficients_from_params(unit_physical_params())
    state = random_state(grid, rng)
    start = state.copy()
    mass0 = grid.sobolev_norm(state.b, 0.0) ** 2
    dt = 1e-3
    for _ in range(20):
        strang_step(state, coeffs, dt)
    assert abs(grid.sobolev_norm(state.b, 0.0) ** 2 - mass0) / mass0 < 5e-12
    assert state.psi1.dtype == np.float64 and state.psi2.dtype == np.float64
    for _ in range(20):
        strang_step(state, coeffs, -dt)
    for name in ("b", "psi1", "psi2"):
        assert np.max(np.abs(getattr(state, name) - getattr(start, name))) < 1e-10


def with_nyquist(state, amplitude):
    """`state` with psi1, psi2 given energy at the unpaired Nyquist mode."""
    alternating = amplitude * (-1.0) ** np.arange(state.grid.n)
    state.psi1, state.psi2 = state.psi1 + alternating, state.psi2 - 0.5 * alternating
    return state


def fused_and_unfused(members, record_every):
    """For each member (state0, coeffs, steps, dt): the states `evolve_members`
    hands the observer and returns, and the states a loop of `strang_step`
    reaches at the same record times."""
    seen = {}

    def observe(st):
        seen.setdefault(id(st), []).append(st.copy())  # one state object per member
        return {"mass": st.grid.sobolev_norm(st.b) ** 2}

    configs = [StepperConfig(dt=dt, t_end=steps * dt, record_every=record_every)
               for _, _, steps, dt in members]
    outcomes = evolve_members([m[0] for m in members], [m[1] for m in members], configs,
                              observers=(observe,))
    pairs = []
    for (state0, coeffs, steps, dt), (final, record) in zip(members, outcomes):
        ref = state0.copy()
        expected = [ref.copy()]
        for i in range(1, steps + 1):
            strang_step(ref, coeffs, dt)
            if i % record_every == 0 or i == steps:
                expected.append(ref.copy())
        got = seen[id(final)]
        assert len(got) == len(expected) == len(record.column("t"))
        mass = [st.grid.sobolev_norm(st.b) ** 2 for st in expected]
        assert_allclose(record.column("mass"), mass, rtol=1e-12)
        pairs.append((got + [final], expected + [ref]))
    return pairs


def assert_states_match(got, want):
    for a, b in zip(got, want):
        assert a.time == pytest.approx(b.time, rel=1e-12, abs=1e-15)
        assert a.psi1.dtype == np.float64 and a.psi2.dtype == np.float64
        for name in ("b", "psi1", "psi2"):
            x, y = getattr(a, name), getattr(b, name)
            assert np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(y))


@st.composite
def schedules(draw, members=1):
    """(step counts, record_every) for `members` runs: record every step, at a
    stride that does not divide the longest run's step count, or only at the
    end of the longest run."""
    counts = draw(st.lists(st.integers(3, 12), min_size=members, max_size=members))
    steps = max(counts)
    stride = draw(st.sampled_from(["every", "uneven", "end"]))
    if stride == "uneven":
        return counts, draw(st.sampled_from([r for r in range(2, steps) if steps % r]))
    return counts, 1 if stride == "every" else steps


@settings(max_examples=40, deadline=None)
@given(fields(), st.integers(1, 3).flatmap(schedules), st.floats(0.0, 0.1))
def test_fused_evolve_matches_strang_steps(case, schedule, nyquist):
    grid, rng = case
    counts, record_every = schedule
    members = []
    coeffs = coefficients_from_params(unit_physical_params())
    for k, steps in enumerate(counts):
        state = with_nyquist(random_state(grid, rng), nyquist)
        members.append((state, coeffs, steps, 1e-3 * (1 + k)))
    for got, want in fused_and_unfused(members, record_every):
        assert_states_match(got, want)


@settings(max_examples=30, deadline=None)
@given(fields(), st.lists(st.integers(3, 12), min_size=1, max_size=3))
def test_records_do_not_steer_the_trajectory(case, counts):
    """Recording at every step, at a stride that does not divide the longest
    run's step count, or only at its end leaves every member's final fields
    bit for bit the same: a record time only reads the stepped fields."""
    grid, rng = case
    states = [random_state(grid, rng) for _ in counts]
    coeffs = [coefficients_from_params(unit_physical_params())] * len(counts)
    steps = max(counts)
    stride = next(r for r in range(2, steps) if steps % r)
    finals = []
    for every in (1, stride, steps):
        configs = [StepperConfig(dt=1e-3, t_end=c * 1e-3, record_every=every) for c in counts]
        outcomes = evolve_members(states, coeffs, configs)
        finals.append([[getattr(final, name).tobytes() for name in ("b", "psi1", "psi2")]
                       for final, _ in outcomes])
    assert finals[0] == finals[1] == finals[2]


@st.composite
def coefficient_records(draw):
    """A coefficient record with every entry drawn from [-1, 1]."""
    return GeneralCoefficients(*draw(st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8)))


@settings(max_examples=30, deadline=None)
@given(fields(), st.integers(1, 4).flatmap(lambda m: st.tuples(
    schedules(m), st.lists(coefficient_records(), min_size=m, max_size=m),
    st.lists(st.sampled_from([5e-4, 1e-3, 2.5e-3]), min_size=m, max_size=m))))
def test_evolve_members_bit_identical_to_evolve(case, draws):
    """Each member of a batch ends, and is recorded, bit for bit as when it
    runs alone; members differ in coefficients, dt, step count, start time and
    their random psi data, which travels at their transport speeds."""
    grid, rng = case
    (counts, record_every), records, dts = draws
    states, configs = [], []
    for k, (steps, dt) in enumerate(zip(counts, dts)):
        states.append(random_state(grid, rng))
        states[-1].time = 0.1 * k
        configs.append(StepperConfig(dt=dt, t_end=steps * dt, record_every=record_every))
    observers = (lambda st: {"mass": st.grid.sobolev_norm(st.b) ** 2,
                             "psi": st.grid.sobolev_norm(st.psi1 - st.psi2, 1.0)},)
    batch = evolve_members(states, records, configs, observers)
    for state, c, config, (final, record) in zip(states, records, configs, batch):
        alone, alone_record = evolve(state, c, config, observers)
        assert final.time == alone.time
        for name in ("b", "psi1", "psi2"):
            assert getattr(final, name).tobytes() == getattr(alone, name).tobytes()
        assert record.columns == alone_record.columns
        assert record.column("t")[-1] == state.time + config.steps * config.dt


def reference_gap(state, coeffs, dt, steps):
    """The largest relative L2 difference, over B, psi1 and psi2, between
    `evolve` and the reference stepper after `steps` steps of dt."""
    final, _ = evolve(state, coeffs, StepperConfig(dt=dt, t_end=steps * dt, record_every=steps))
    ref = reference_evolve(state.grid.length, coeffs, state.b, state.psi1, state.psi2, dt, steps)
    return max(np.linalg.norm(getattr(final, name) - want) / np.linalg.norm(want)
               for name, want in zip(("b", "psi1", "psi2"), ref))


@settings(max_examples=30, deadline=None)
@given(fields(), coefficient_records(), st.sampled_from([1e-3, 5e-3, 1e-2]),
       st.integers(1, 40))
def test_evolve_matches_reference_stepper(case, coeffs, dt, steps):
    """`evolve` agrees to 1e-12 (relative L2) with a Strang stepper written
    from the scheme's description alone, for drawn records, data, dt and step
    counts; a 400-case sweep read at most 5.8e-14."""
    grid, rng = case
    assert reference_gap(random_state(grid, rng), coeffs, dt, steps) < 1e-12


def test_reference_stepper_negative_control(monkeypatch):
    """Scaling the plan's psi kick by 1 + 1e-4, which `strang_step` shares and
    so cannot expose, fails the reference comparison by far (about 1e-5 on
    this case, against about 1e-14 unscaled)."""
    grid = SpectralGrid(64.0, 512)
    x = grid.x
    state = FieldState(grid, 0.8 * np.exp(-x**2 / 4.0 + 0.5j * x),
                       0.3 * np.exp(-(x - 1.0) ** 2 / 2.0), -0.2 * np.exp(-(x + 2.0) ** 2 / 3.0),
                       0.0)
    coeffs = coefficients_from_params(PhysicalParams(1.3, 0.9, 0.8, 2.2, 0.7))
    assert reference_gap(state, coeffs, 0.01, 100) < 1e-12
    build = evolution._Plan.__init__

    def scaled_kick(plan, *args):
        build(plan, *args)
        plan.full["kick"] *= 1.0 + 1e-4  # in place, so the step's views see it

    monkeypatch.setattr(evolution._Plan, "__init__", scaled_kick)
    assert reference_gap(state, coeffs, 0.01, 100) > 1e-6


def test_fused_whole_step_multiplier_negative_control(monkeypatch):
    """A whole-step psi multiplier built as translation(speed*dt) agrees with
    the product of the two half multipliers except at the Nyquist mode, where
    the cosine rule does not compose: the match fails on psi with Nyquist
    energy and holds without it."""
    grid = SpectralGrid(32.0, 64)
    coeffs = coefficients_from_params(unit_physical_params())
    build = evolution._Plan.__init__

    def translated_whole_step(plan, grid, coeffs, dts):
        build(plan, grid, coeffs, dts)
        (c,), (dt,) = coeffs, dts
        plan.step_psi[...] = np.stack([grid.translation(c.speed_plus * dt),
                                       grid.translation(c.speed_minus * dt)])

    monkeypatch.setattr(evolution._Plan, "__init__", translated_whole_step)
    state = random_state(grid, np.random.default_rng(7))
    (matched,) = fused_and_unfused([(state, coeffs, 8, 1e-3)], 3)
    assert_states_match(*matched)
    with pytest.raises(AssertionError):
        (mismatched,) = fused_and_unfused([(with_nyquist(state, 0.05), coeffs, 8, 1e-3)], 3)
        assert_states_match(*mismatched)


@settings(max_examples=60, deadline=None)
@given(fields(), coefficient_records(), st.floats(-3.0, 0.5))
def test_nonlinear_phase_is_the_complex_exponential(case, coeffs, log_dt):
    """One `_Plan.nonlinear` phase, formed from half-angle tangents, rotates
    B by exp(-i dt V) to 1e-15 relative and keeps sum |B|^2 to 1e-15, for
    drawn records, data and dt with max |V| dt < pi.  V is formed here as
    the kernel forms it, from |B|^2 and the psi kicked by half a step."""
    grid, rng = case
    dt = 10.0 ** log_dt
    state = random_state(grid, rng)
    plan = evolution._Plan(grid, [coeffs], [dt])
    b, psi = state.b.copy(), np.fft.rfft(np.stack([state.psi1, state.psi2]))
    absb2 = np.abs(b) ** 2
    kicked = psi + np.fft.rfft(absb2) * plan.kick
    v = np.fft.irfft(plan.potential @ kicked, grid.n) + coeffs.cubic * absb2
    assume(np.max(np.abs(v)) * dt < np.pi)
    want, mass = b * np.exp(-1j * dt * v), np.sum(absb2)
    plan.nonlinear(b, psi, 0.0, 0)
    assert np.all(np.abs(b - want) <= 1e-15 * np.abs(want))
    assert abs(np.sum(np.abs(b) ** 2) - mass) <= 1e-15 * mass


# -- symmetries: a Galilean boost and a reflection map one run to another ----------------

SMOOTH_GRID = SpectralGrid(64.0, 256)


@st.composite
def smooth_states(draw):
    """B a Gaussian with a phase ramp, psi1 and psi2 Gaussian bumps, each of
    width >= 3 on SMOOTH_GRID (n = 256, L = 64): every spectrum is below
    1e-15 of its peak beyond |xi| = 4, so the data lie well inside the 2/3
    band |xi| <= 8.4, with room for a boost by |kappa| <= 1 and for the
    broadening of a short run.  Under-resolved data would add the aliasing of
    a pointwise step under a shift that is not a whole number of cells."""
    x = SMOOTH_GRID.x

    def bump():
        amplitude, center, width = (draw(st.floats(*r)) for r in ((0.2, 1.0), (-8.0, 8.0),
                                                                  (3.0, 5.0)))
        return amplitude * np.exp(-((x - center) / width) ** 2)

    ramp = draw(st.floats(-1.0, 1.0))
    return FieldState(SMOOTH_GRID, bump() * np.exp(1j * ramp * x), bump(), bump(), 0.0)


def finals(states, records, config, batch):
    """Each member's final state, from one `evolve_members` batch or from `evolve`."""
    if batch:
        return [final for final, _ in evolve_members(states, records, [config] * len(states))]
    return [evolve(state, c, config)[0] for state, c in zip(states, records)]


def mismatch(got, want):
    """The largest relative L2 difference over B, psi1 and psi2."""
    return max(np.linalg.norm(getattr(got, name) - getattr(want, name))
               / np.linalg.norm(getattr(want, name)) for name in ("b", "psi1", "psi2"))


def boost_mismatch(coeffs, state, j, config, batch, plus=-1.0, scale=1.0):
    """Galilean boost by the grid wavenumber kappa = 2 pi j / L: a run from
    exp(i kappa x) B(0), psi(0) under `coeffs` against the boost
    exp(i (kappa x - dispersion kappa^2 t)) B~(x - v t), psi~(x - v t) of the
    run B~, psi~ from B(0), psi(0) under `coeffs` with speeds
    (c+ + plus v) scale and (c- - v) scale, v = 2 dispersion kappa: the
    symmetry's record at the defaults."""
    grid = state.grid
    kappa = 2.0 * np.pi * j / grid.length
    v = 2.0 * coeffs.dispersion * kappa
    shifted = replace(coeffs, speed_plus=(coeffs.speed_plus + plus * v) * scale,
                      speed_minus=(coeffs.speed_minus - v) * scale)
    boosted = state.copy()
    boosted.b = np.exp(1j * kappa * grid.x) * state.b
    moving, still = finals([boosted, state], [coeffs, shifted], config, batch)
    t = still.time
    want = still.copy()
    want.b = np.exp(1j * (kappa * grid.x - coeffs.dispersion * kappa**2 * t)) * grid.inverse(
        grid.forward(still.b) * np.exp(-1j * grid.wavenumbers * v * t))
    psi = np.fft.rfft(np.stack([still.psi1, still.psi2])) * grid.translation(v * t)
    want.psi1, want.psi2 = np.fft.irfft(psi, grid.n)
    return mismatch(moving, want)


@settings(max_examples=20, deadline=None)
@given(smooth_states(), coefficient_records(), st.integers(-8, 8), st.floats(1e-3, 1e-2),
       st.integers(5, 30))
def test_galilean_boost_maps_runs(state, coeffs, j, dt, steps):
    """A Strang run of boosted data equals the boosted run with the speeds
    shifted by -v, to round-off, through `evolve` and `evolve_members`: the
    linear multipliers factor into the unboosted ones times a translation and
    a phase, and the nonlinear step sees only |B|^2 and psi."""
    config = StepperConfig(dt=dt, t_end=steps * dt, record_every=steps)
    for batch in (False, True):
        assert boost_mismatch(coeffs, state, j, config, batch) < 1e-11


@pytest.mark.parametrize("plus, scale", [(1.0, 1.0), (-1.0, 1.0 + 1e-3)],
                         ids=["c+ shifted by +v", "shifted speeds scaled by 1 + 1e-3"])
def test_galilean_boost_negative_controls(plus, scale):
    """The boost test can fail: with c+ shifted the wrong way, or both shifted
    speeds off by 1e-3, a boost by mode j = 3 misses by far more than its
    1e-11 bound (9.3e-2 and 1.6e-4 at t = 0.3 on this data), where the exact
    record meets it."""
    coeffs = coefficients_from_params(PhysicalParams(1.3, 0.9, 0.8, 2.2, 0.7))
    x = SMOOTH_GRID.x
    state = FieldState(SMOOTH_GRID, 0.8 * np.exp(-(x / 3) ** 2 + 0.5j * x),
                       0.5 * np.exp(-((x - 4) / 3) ** 2), 0.4 * np.exp(-((x + 5) / 4) ** 2), 0.0)
    config = StepperConfig(dt=1e-2, t_end=0.3, record_every=30)
    for batch in (False, True):
        assert boost_mismatch(coeffs, state, 3, config, batch) < 1e-11
        assert boost_mismatch(coeffs, state, 3, config, batch, plus, scale) > 1e-5


def reflect(f):
    """x -> -x on the grid: index m -> (n - m) mod n."""
    return np.roll(f[::-1], 1)


@settings(max_examples=20, deadline=None)
@given(smooth_states(), coefficient_records(), st.floats(1e-3, 1e-2), st.integers(5, 30))
def test_reflection_maps_runs(state, coeffs, dt, steps):
    """The reflection of a Strang run equals the run of the reflected data
    with speeds and sources negated, to round-off, through `evolve` and
    `evolve_members`."""
    mirrored = replace(coeffs, speed_plus=-coeffs.speed_plus, speed_minus=-coeffs.speed_minus,
                       source_plus=-coeffs.source_plus, source_minus=-coeffs.source_minus)
    flipped = FieldState(state.grid, reflect(state.b), reflect(state.psi1),
                         reflect(state.psi2), 0.0)
    config = StepperConfig(dt=dt, t_end=steps * dt, record_every=steps)
    for batch in (False, True):
        run, mirror = finals([state, flipped], [coeffs, mirrored], config, batch)
        want = mirror.copy()
        want.b, want.psi1, want.psi2 = (reflect(getattr(run, name))
                                        for name in ("b", "psi1", "psi2"))
        assert mismatch(mirror, want) < 1e-11
