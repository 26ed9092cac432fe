"""Grid/transform conventions, cross-checked against a literal O(n^2) DFT."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from zrlab import ComplexField, SpectralGrid, next_pow2


def dft_oracle(grid, values):
    """fhat_j = (1/n) sum_m f(x_m) exp(-i xi_j x_m), written out literally."""
    phases = np.exp(-1j * np.outer(grid.wavenumbers, grid.x))
    return phases @ np.asarray(values) / grid.n


@pytest.fixture
def grid():
    return SpectralGrid(2.0 * np.pi, 32)


def test_nodes_start_at_minus_half_length(grid):
    assert grid.x[0] == -np.pi
    assert_allclose(np.diff(grid.x), grid.dx)
    assert grid.x[-1] == pytest.approx(np.pi - grid.dx)


def test_forward_matches_literal_dft(grid):
    rng = np.random.default_rng(7)
    f = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    assert_allclose(grid.forward(f), dft_oracle(grid, f), atol=1e-13)


def test_forward_inverse_roundtrip(grid):
    rng = np.random.default_rng(8)
    f = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    assert_allclose(grid.inverse(grid.forward(f)), f, atol=1e-13)


def test_single_mode_has_unit_coefficient(grid):
    # exp(i xi_5 x) must produce exactly one nonzero coefficient, equal to 1
    f = np.exp(1j * 5.0 * grid.x)
    fhat = grid.forward(f)
    expected = np.zeros(grid.n, dtype=complex)
    expected[grid.modes == 5] = 1.0
    assert_allclose(fhat, expected, atol=1e-13)


def test_parseval(grid):
    rng = np.random.default_rng(9)
    f = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    lhs = np.sum(np.abs(f) ** 2) / grid.n
    rhs = np.sum(np.abs(grid.forward(f)) ** 2)
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_derivative_of_sine(grid):
    f = np.sin(3.0 * grid.x)
    assert_allclose(grid.derivative(f, 1).real, 3.0 * np.cos(3.0 * grid.x), atol=1e-12)
    assert_allclose(grid.derivative(f, 2).real, -9.0 * np.sin(3.0 * grid.x), atol=1e-11)


def test_odd_derivative_zeroes_nyquist(grid):
    # the j = -n/2 cosine has no conjugate partner; its odd derivatives vanish
    nyq = np.cos((grid.n // 2) * grid.x)
    assert_allclose(grid.derivative(nyq, 1), 0.0, atol=1e-12)
    # even orders keep it: second derivative is -(n/2)^2 * cos
    assert_allclose(grid.derivative(nyq, 2).real, -((grid.n // 2) ** 2) * nyq, atol=1e-9)


def test_sobolev_norm_of_constant(grid):
    # ||1||_{H^s} = sqrt(L * 1) = sqrt(2 pi) on this grid, for every s
    ones = np.ones(grid.n)
    for s in (0.0, 0.5, 1.0, -0.5, 2.0):
        assert grid.sobolev_norm(ones, s) == pytest.approx(np.sqrt(2.0 * np.pi), rel=1e-14)


def test_sobolev_norm_single_mode():
    g = SpectralGrid(16.0, 64)
    kappa = 2.0 * np.pi * 4 / g.length
    f = np.exp(1j * kappa * g.x)
    for s in (0.0, 1.0, -0.5):
        want = np.sqrt(g.length) * (1.0 + kappa) ** s
        assert g.sobolev_norm(f, s) == pytest.approx(want, rel=1e-13)


def test_h0_equals_discrete_l2(grid):
    rng = np.random.default_rng(10)
    f = rng.standard_normal(grid.n)
    want = np.sqrt(grid.dx * np.sum(f**2))
    assert grid.sobolev_norm(f, 0.0) == pytest.approx(want, rel=1e-13)


def test_dealias_matches_exact_convolution():
    """Within the kept band the grid product of two band-limited fields must
    agree with the exact coefficient convolution (no aliasing pollution)."""
    g = SpectralGrid(2.0 * np.pi, 64)
    rng = np.random.default_rng(11)
    band = int(g.n / 3)

    def band_limited():
        c = {}
        for j in range(-band, band + 1):
            c[j] = rng.standard_normal() + 1j * rng.standard_normal()
        return c

    c1, c2 = band_limited(), band_limited()

    def synth(c):
        out = np.zeros(g.n, dtype=complex)
        for j, v in c.items():
            out += v * np.exp(1j * j * g.x)
        return out

    product_hat = g.dealias(g.forward(synth(c1) * synth(c2)))
    for j in range(-band, band + 1):
        exact = sum(c1[p] * c2[j - p] for p in c1 if (j - p) in c2)
        got = product_hat[g.modes == j][0]
        assert got == pytest.approx(exact, abs=1e-10)
    # everything outside the band is masked off
    assert np.all(product_hat[~g.dealias_mask] == 0.0)


def test_translate_by_whole_cells_is_roll():
    g = SpectralGrid(10.0, 64)
    rng = np.random.default_rng(12)
    f = rng.standard_normal(g.n)
    shifted = g.inverse(g.translate_coeffs(g.forward(f), 5 * g.dx))
    assert_allclose(shifted.real, np.roll(f, 5), atol=1e-12)
    assert np.max(np.abs(shifted.imag)) < 1e-12


def test_translate_single_mode_phase(grid):
    f = np.exp(1j * 3.0 * grid.x)
    shifted = grid.inverse(grid.translate_coeffs(grid.forward(f), 0.37))
    assert_allclose(shifted, np.exp(-1j * 3.0 * 0.37) * f, atol=1e-13)


def test_boundary_mass_fraction():
    g = SpectralGrid(64.0, 256)
    center = np.exp(-(g.x / 2.0) ** 2)
    edge = np.exp(-((np.abs(g.x) - 32.0) / 2.0) ** 2)
    assert g.boundary_mass_fraction(center) < 1e-12
    assert g.boundary_mass_fraction(edge) > 0.5
    assert g.boundary_mass_fraction(np.zeros(g.n)) == 0.0


def test_next_pow2():
    assert next_pow2(1) == 2
    assert next_pow2(2) == 2
    assert next_pow2(3) == 4
    assert next_pow2(1000) == 1024
    assert next_pow2(1024) == 1024


def test_grid_validation():
    with pytest.raises(ValueError):
        SpectralGrid(2.0 * np.pi, 48 + 1)  # not a power of two
    with pytest.raises(ValueError):
        SpectralGrid(0.0, 32)
    with pytest.raises(ValueError):
        SpectralGrid(np.inf, 32)


def test_shape_mismatch_rejected(grid):
    with pytest.raises(ValueError):
        grid.forward(np.zeros(grid.n + 2))
    with pytest.raises(ValueError):
        grid.inverse(np.zeros(grid.n - 2, dtype=complex))


def test_complex_field_norm(grid):
    fld = ComplexField(grid, np.exp(1j * grid.x))
    assert fld.norm(1.0) == pytest.approx(2.0 * np.sqrt(2.0 * np.pi), rel=1e-13)
