"""Property tests of the stepper plan over random band-limited data on grids
of every valid size up to 256: the real transforms agree with the complex
ones, translation keeps the Nyquist cosine rule, a Strang step conserves mass, is
reversible and keeps psi1, psi2 real, the fused loop in `evolve` matches a
loop of the unfused `strang_step` for one member or several, and a batch of
members gives bit for bit what `evolve` gives each member alone, whenever
its observers look."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from zrlab import (FieldState, GeneralCoefficients, SpectralGrid,  # noqa: E402
                   StepperConfig, coefficients_from_params, evolve, strang_step,
                   unit_physical_params)
from zrlab import evolution  # noqa: E402
from zrlab.evolution import evolve_members  # noqa: E402


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
