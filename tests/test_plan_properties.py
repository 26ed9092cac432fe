"""Property tests of the stepper plan over random band-limited data: the real
transforms agree with the complex ones, and a Strang step conserves mass, is
reversible and keeps psi1, psi2 real."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from zrlab import (FieldState, SpectralGrid, coefficients_from_params,  # noqa: E402
                   strang_step, unit_physical_params)
from zrlab.model import ExternalPotential  # noqa: E402


def band_limited(grid, rng, amplitude, real):
    """Random field whose modes lie inside the dealiased band, scaled to sup norm
    `amplitude`."""
    coeffs = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    values = grid.inverse(grid.dealias(coeffs))
    values = values.real if real else values
    return amplitude * values / np.max(np.abs(values))


@st.composite
def fields(draw):
    """(grid, rng): a power-of-two grid of drawn length and a seeded generator."""
    n = 2 ** draw(st.integers(3, 8))
    length = draw(st.floats(4.0, 64.0))
    return SpectralGrid(length, n), np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=50, deadline=None)
@given(fields())
def test_real_transforms_match_complex(case):
    grid, rng = case
    f = band_limited(grid, rng, 1.0, real=True) + rng.standard_normal(grid.n)
    fhat = grid.rforward(f)
    assert_allclose(fhat, grid.forward(f)[:grid.n // 2 + 1], atol=1e-14)
    back = grid.rinverse(fhat)
    assert back.dtype == np.float64
    assert_allclose(back, f, atol=1e-13)


def random_state(grid, rng):
    return FieldState(grid, band_limited(grid, rng, 1.0, real=False),
                      band_limited(grid, rng, 0.5, real=True),
                      band_limited(grid, rng, 0.5, real=True), 0.0)


@settings(max_examples=25, deadline=None)
@given(fields(), st.booleans())
def test_strang_step_mass_reversal_reality(case, external):
    grid, rng = case
    coeffs = coefficients_from_params(unit_physical_params())
    if external:
        profile = band_limited(grid, rng, 0.5, real=True)
        coeffs = coeffs.with_externals(ExternalPotential(profile, 0.7), None)
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
