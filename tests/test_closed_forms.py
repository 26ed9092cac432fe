"""Closed-form oracles: kernels, hat data, norms, profiles."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import zrlab
from zrlab import (HatDatum, SpectralGrid, as_grid_norm, build_c2_psi10, build_fN,
                   first_order_psi1, hat_sobolev_norm, l_hat, l_hat_norm, modulated_sinc,
                   normalize_hats, resonance_phi, small_dispersion_solution, smooth_plateau,
                   synthesize_hat_field)
from zrlab import closed_forms
from zrlab.closed_forms import GRID_NORM_FACTOR, _gl, _gl_half
from reference_quadrature import time_phi


# -- resonance kernel ---------------------------------------------------------

def test_phi_known_values():
    assert resonance_phi(1.0, np.pi) == pytest.approx(2j / np.pi, rel=1e-14)
    assert resonance_phi(0.0, 3.7) == pytest.approx(0.0, abs=1e-15)
    assert resonance_phi(2.5, 0.0) == pytest.approx(2.5, rel=1e-15)  # removable
    # int_0^t e^{i t' a} dt' evaluated directly at a modest argument
    t, a = 0.7, 1.3
    want = (np.exp(1j * t * a) - 1.0) / (1j * a)
    assert resonance_phi(t, a) == pytest.approx(want, rel=1e-14)


def test_phi_magnitude_bound():
    # |phi(t, a)| = |int_0^t e^{i t' a} dt'| <= |t| for all real a
    a = np.linspace(-50.0, 50.0, 1001)
    for t in (0.01, 0.5, 3.0):
        assert np.all(np.abs(resonance_phi(t, a)) <= t * (1 + 1e-12))


def test_phi_vectorized():
    a = np.array([[0.0, 1.0], [np.pi, -np.pi]])
    out = resonance_phi(1.0, a)
    assert out.shape == a.shape
    assert out[0, 0] == pytest.approx(1.0)
    assert out[1, 0] == pytest.approx(2j / np.pi, rel=1e-14)


def _pre_sinc_phi(t, a):
    """resonance_phi as it was written before its sinc form: a complex exp
    and a complex division, with a three-term series below |t a| = 1e-6."""
    a = np.asarray(a, dtype=np.float64)
    ta = t * a
    small = np.abs(ta) < 1e-6
    exact = (np.exp(1j * ta) - 1.0) / (1j * np.where(small, 1.0, a))
    return np.where(small, t * (1.0 + 0.5j * ta - ta**2 / 6.0), exact)


def _kernel_error_over_t(kernel, t, a):
    """max |kernel(t, a) - phi(t, a)| / t against mpmath's 40-digit
    expm1(i t a) / (i a) at the same double inputs (phi(t, 0) = t)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        want = [complex(mpmath.expm1(1j * mpmath.mpf(t) * mpmath.mpf(v)) / (1j * mpmath.mpf(v)))
                if v else complex(t) for v in a]
    return float(np.max(np.abs(kernel(t, a) - np.array(want)))) / t


@pytest.mark.parametrize("t", [0.01, 1.0, 2.5])
def test_phi_has_no_cancellation(t):
    """resonance_phi lies within 1e-15 t of phi at |t a| log-uniform on
    [1e-12, 1e2], both signs, at a = 0, and at |t a| = 5e-7, 0.999e-6 and
    1.001e-6, either side of where the pre-sinc formula switched to its
    series.  The pre-sinc formula fails the same bound (negative control):
    just above its 1e-6 series switch, exp(i t a) - 1 cancels, and at
    t a = 2e-6 it is off by about 2e-11 relative."""
    rng = np.random.default_rng(7)
    ta = rng.choice([-1.0, 1.0], 400) * 10.0 ** rng.uniform(-12.0, 2.0, 400)
    near_switch = [sign * v for v in (5e-7, 0.999e-6, 1.001e-6) for sign in (1.0, -1.0)]
    a = np.concatenate(([0.0, 2e-6, -2e-6], near_switch, ta)) / t
    assert _kernel_error_over_t(resonance_phi, t, a) <= 1e-15
    assert _kernel_error_over_t(_pre_sinc_phi, t, a) > 1e-12
    assert _kernel_error_over_t(_pre_sinc_phi, t, a[1:2]) > 1e-11  # |phi| = t there


# -- Gauss-Legendre rule -------------------------------------------------------

def test_gl_rule_is_mirrored_and_exact():
    """For every count n in [1, 128] the rule is mirrored bit for bit, an odd
    count's centre node is 0.0, _gl_half is its non-negative half with the
    weights of x > 0 doubled, the weights sum to 2 within 4 ulp, and the rule
    integrates x^{2m} exactly for m < n within 2e-13 (numpy's leggauss is off
    by 1.2e-12 at n = 128).  The weights are not compared pointwise with a
    reference: rounding the nodes alone moves the endpoint weights by about
    1e-12 relative."""
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.example(1)
    @hypothesis.example(128)
    @hypothesis.given(hypothesis.strategies.integers(1, 128))
    def exact(n):
        x, w = _gl(n)
        assert x.shape == w.shape == (n,)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        assert np.all(np.diff(x) > 0.0) and np.all(w > 0.0)
        if n % 2:
            assert x[n // 2] == 0.0 and not np.signbit(x[n // 2])
        half_x, half_w = _gl_half(n)
        assert np.array_equal(half_x, x[n // 2:])
        assert np.array_equal(half_w, np.where(half_x > 0.0, 2.0, 1.0) * w[n // 2:])
        assert abs(np.sum(w) - 2.0) <= 4 * np.spacing(2.0)
        m = np.arange(n)[:, None]
        assert np.max(np.abs(x ** (2 * m) @ w * (2 * m[:, 0] + 1) / 2.0 - 1.0)) <= 2e-13

    exact()


def _mpmath_gl_nodes(n):
    """The n Gauss-Legendre nodes at 40 digits, by Newton on the Legendre
    recurrence from the guesses cos(pi (k - 1/4) / (n + 1/2))."""
    mpmath = pytest.importorskip("mpmath")
    nodes = []
    with mpmath.workdps(40):
        for k in range(1, n + 1):
            x = mpmath.cos(mpmath.pi * (k - mpmath.mpf(1) / 4) / (n + mpmath.mpf(1) / 2))
            for _ in range(100):
                prev, cur = mpmath.mpf(1), x
                for j in range(1, n):
                    prev, cur = cur, ((2 * j + 1) * x * cur - j * prev) / (j + 1)
                step = cur * (1 - x * x) / (n * (prev - x * cur))
                x -= step
                if abs(step) < mpmath.mpf(10) ** -38:
                    break
            nodes.append(x)
        return sorted(nodes)


@pytest.mark.parametrize("n", [1, 2, 3, 16, 63, 64, 65, 128])
def test_gl_nodes_match_mpmath(n):
    mpmath = pytest.importorskip("mpmath")
    x, _ = _gl(n)
    with mpmath.workdps(40):
        gaps = [abs(mpmath.mpf(float(u)) - v) for u, v in zip(x, _mpmath_gl_nodes(n))]
    assert float(max(gaps)) <= 2.2e-16


def test_c2probe_cold_path_builds_its_own_rule(tmp_path):
    """A fresh process: importing zrlab builds no rule, and a default
    `zrlab c2probe` run never imports numpy.polynomial."""
    override = f"output.dir={tmp_path}"
    code = "\n".join([
        "import sys",
        "from zrlab import closed_forms",
        "from zrlab.cli import main",
        "assert closed_forms._gl_half.cache_info().currsize == 0, 'rule built at import'",
        "assert closed_forms._gl.cache_info().currsize == 0, 'rule built at import'",
        f"assert main(['c2probe', '--set', {override!r}]) == 0",
        "assert closed_forms._gl_half.cache_info().currsize > 0",
        "assert 'numpy.polynomial' not in sys.modules, 'numpy.polynomial imported'",
    ])
    env = dict(os.environ, PYTHONPATH=str(Path(zrlab.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "c2probe_c2.fit").exists()


# -- hat data ------------------------------------------------------------------

def bracket_integral(lo, hi, p):
    """int_lo^hi (1+|xi|)^p dxi for lo, hi of one sign (elementary), in the
    expm1 form, which stays accurate through p = -1 (where it is a log)."""
    a, b = sorted((abs(lo), abs(hi)))
    q, r = p + 1, math.log1p((b - a) / (1 + a))
    return (1 + a) ** q * (math.expm1(q * r) / q if q else r)


def test_hat_datum_validation():
    with pytest.raises(ValueError):
        HatDatum(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        HatDatum(2.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        HatDatum(0.0, 1.0, np.inf)


def test_build_fN_supports_and_amplitude():
    hats = build_fN(8, 0.25, "inflation_f")
    assert [(h.lo, h.hi) for h in hats] == [(-8 - 1 / 8, -8.0), (9.0, 9.0 + 1 / 8)]
    assert all(h.amplitude == pytest.approx(8.0 ** 0.25) for h in hats)
    hats_g = build_fN(8, 0.25, "inflation_g")
    assert [(h.lo, h.hi) for h in hats_g] == [(-8 - 1 / 8, -8.0), (7.0, 7.0 + 1 / 8)]
    (b0,) = build_fN(8, 0.25, "c2_B0")
    assert (b0.lo, b0.hi) == (0.0, 1 / 8)
    (p0,) = build_c2_psi10(8, -1.0)
    assert (p0.lo, p0.hi) == (-1 / 8, 1 / 8)
    assert p0.amplitude == pytest.approx(8.0 ** 1.5)
    with pytest.raises(ValueError):
        build_fN(1, 0.25)
    with pytest.raises(ValueError):
        build_fN(8, 0.25, "bogus")


def test_hat_norm_against_elementary_antiderivative():
    k = 0.25
    hats = build_fN(8, k, "inflation_f")
    want_sq = sum(h.amplitude**2 * bracket_integral(h.lo, h.hi, 2 * k) for h in hats)
    assert hat_sobolev_norm(hats, k) == pytest.approx(math.sqrt(want_sq), rel=1e-13)
    # negative index too
    (p0,) = build_c2_psi10(8, -1.0)
    want_sq = p0.amplitude**2 * 2 * bracket_integral(0.0, p0.hi, -2.0)
    assert hat_sobolev_norm([p0], -1.0) == pytest.approx(math.sqrt(want_sq), rel=1e-13)


def test_hat_norm_matches_antiderivative_property():
    """Over disjoint hats, some straddling 0 and some one-sided, and s in
    [-1.5, 2], hat_sobolev_norm equals the exact antiderivative to 1e-12
    relative.  The weight (1+|xi|)^{2s} kinks at 0, so a straddling hat is
    this accurate only because the panel rule splits it there."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def exact(hats, s):
        total = 0.0
        for h in hats:
            pieces = [(h.lo, 0.0), (0.0, h.hi)] if h.lo < 0.0 < h.hi else [(h.lo, h.hi)]
            total += h.amplitude**2 * sum(bracket_integral(a, b, 2 * s) for a, b in pieces)
        return math.sqrt(total)

    edges = st.lists(st.floats(-40.0, 40.0, allow_subnormal=False), min_size=2, max_size=8,
                     unique=True)

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.example([-3.0, 5.0, 7.0, 9.0], 0.3, 1.0)  # straddling and one-sided
    @hypothesis.example([-9.0, -7.0, 2.0, 3.0], -1.5, 1.0)  # one-sided only
    @hypothesis.given(edges, st.floats(-1.5, 2.0), st.floats(0.1, 10.0))
    def matches(points, s, amplitude):
        pts = sorted(points)
        hats = [HatDatum(lo, hi, amplitude * (i + 1))
                for i, (lo, hi) in enumerate(zip(pts[::2], pts[1::2]))]
        assert hat_sobolev_norm(hats, s) == pytest.approx(exact(hats, s), rel=1e-12)

    matches()


def test_unnormalized_fN_norm_approaches_sqrt2():
    # ||f_N||_{H^k} -> sqrt(2) as N grows (each bump carries unit H^k mass)
    val = hat_sobolev_norm(build_fN(64, 0.25, "inflation_f"), 0.25)
    assert val == pytest.approx(math.sqrt(2.0), rel=0.05)
    val_big = hat_sobolev_norm(build_fN(1024, 0.25, "inflation_f"), 0.25)
    assert abs(val_big - math.sqrt(2.0)) < abs(val - math.sqrt(2.0))


def test_normalize_hats():
    hats = normalize_hats(build_fN(8, 0.25), 0.25)
    assert hat_sobolev_norm(hats, 0.25) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError):
        normalize_hats([], 0.25)


def test_overlapping_hats_rejected():
    bad = (HatDatum(0.0, 1.0, 1.0), HatDatum(0.5, 2.0, 1.0))
    with pytest.raises(ValueError, match="overlap"):
        hat_sobolev_norm(bad, 0.0)


def test_synthesis_norm_bridge():
    """Sampling hats on a lattice whose cells tile the supports: the grid
    Sobolev norm must approach as_grid_norm(hat-integral norm)."""
    n_freq, k = 8, 0.25
    hats = normalize_hats(build_fN(n_freq, k), k)
    grid = SpectralGrid(2.0 * math.pi * 4 * n_freq, 1024)
    field = synthesize_hat_field(grid, hats)
    want = as_grid_norm(hat_sobolev_norm(hats, k))
    assert grid.sobolev_norm(field, k) == pytest.approx(want, rel=0.01)
    assert GRID_NORM_FACTOR == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-15)


def test_synthesis_rejects_unresolvable_hats():
    grid = SpectralGrid(2.0 * math.pi, 64)  # integer lattice: 1/8-wide hats fall through
    with pytest.raises(ValueError, match="no grid frequencies"):
        synthesize_hat_field(grid, build_fN(8, 0.25))
    # a hat whose populated modes land beyond the dealiased band (edge 21 for
    # n = 64) must be refused, not silently clipped by the evolution mask
    big = (HatDatum(21.5, 23.0, 1.0),)
    with pytest.raises(ValueError, match="dealiased band"):
        synthesize_hat_field(grid, big)


# -- bilinear kernel -----------------------------------------------------------

def test_l_hat_vanishes_off_support():
    b0 = HatDatum(10.0, 10.1, 1.0)
    psi10 = HatDatum(0.0, 0.1, 1.0)
    out = l_hat(np.array([5.0, 9.9, 10.3]), 0.1, b0, psi10)
    assert_allclose(out, 0.0, atol=1e-15)
    # inside the sum support the kernel is nonzero
    assert abs(l_hat(np.array([10.1]), 0.1, b0, psi10)[0]) > 0


def test_l_hat_small_time_is_convolution():
    # as t -> 0, Lhat(xi, t)/t -> (1/2pi)(B0hat * psi10hat)(xi) = amp_b amp_p |overlap| / 2pi
    n = 8.0
    b0 = HatDatum(0.0, 1 / n, 2.0)
    psi10 = HatDatum(-1 / n, 1 / n, 3.0)
    t = 1e-5
    val = l_hat(np.array([0.0]), t, b0, psi10)[0]
    overlap = 1 / n  # [0,1/n] cap [-1/n, 1/n]
    assert val / t == pytest.approx(2.0 * 3.0 * overlap / (2.0 * np.pi), rel=1e-4)
    # half-way into the support the overlap shrinks linearly
    val2 = l_hat(np.array([1 / n]), t, b0, psi10)[0]
    assert abs(val2) / t == pytest.approx(2.0 * 3.0 * overlap / (2.0 * np.pi), rel=1e-4)
    val3 = l_hat(np.array([2 / n]), t, b0, psi10)[0]
    assert_allclose(abs(val3), 0.0, atol=1e-18)


def test_l_hat_dual_routes_agree(monkeypatch):
    """The kernel with resonance_phi's closed form and with the reference's
    64-node time rule in its place (tests/reference_quadrature.py)."""
    b0 = HatDatum(0.0, 0.25, 1.3)
    psi10 = HatDatum(-0.25, 0.25, 0.9)
    xi = np.linspace(-0.3, 0.55, 7)
    a = l_hat(xi, 0.3, b0, psi10)
    monkeypatch.setattr(closed_forms, "resonance_phi", time_phi)
    b = l_hat(xi, 0.3, b0, psi10)
    assert_allclose(a, b, rtol=1e-10, atol=1e-15)


def _unfolded_phi(t, a, time_nodes):
    """The reference's time rule before the fold: the same time_nodes-point GL rule
    on [0, t], summed over every node as cos + i sin of long double angles, so
    the reference's own angle rounding stays well below the fold's."""
    x, w = (v.astype(np.longdouble) for v in _gl(time_nodes))
    angle = np.multiply.outer(np.asarray(a, np.longdouble), 0.5 * np.longdouble(t) * (x + 1))
    return 0.5 * np.longdouble(t) * (np.cos(angle) @ w + 1j * (np.sin(angle) @ w))


def test_phi_time_quadrature_matches_complex_exp_reference():
    """The reference's folded GL rule equals the same rule summed over every
    node as a complex exp, for |t a| in the series range, near 1 and up to
    1e3, and for odd counts (1, 3, 63), whose centre node x = 0 keeps its
    single weight, as for even ones.  Both sum the same rule with weights of
    total 2, so float64 round-off in the fold's angles bounds the gap by about
    1e-13 t (|phi| <= t).  The fold itself is off by at most 4.3e-14 t; over
    20 000 random draws the largest gap was 4.0e-14 t against this long double
    reference, and 8.5e-14 t against a float64 complex exp."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    ta = st.one_of(st.floats(-1e-6, 1e-6, exclude_min=True, exclude_max=True),
                   st.floats(0.5, 2.0), st.floats(-2.0, -0.5), st.floats(-1e3, 1e3))

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(st.floats(1e-4, 10.0),
                      st.lists(st.lists(ta, min_size=3, max_size=3), min_size=1, max_size=4),
                      st.sampled_from([1, 2, 3, 63, 64]))
    def matches(t, ta_rows, time_nodes):
        a = np.array(ta_rows) / t
        got = time_phi(t, a, time_nodes)
        assert got.shape == a.shape
        assert np.max(np.abs(got - _unfolded_phi(t, a, time_nodes))) <= 1e-13 * t

    matches()


def test_l_hat_norm_dual_routes(monkeypatch):
    (b0,) = normalize_hats(build_fN(16, 0.0, "c2_B0"), 0.0)
    (psi10,) = build_c2_psi10(16, -1.0)
    v = l_hat_norm(0.01, b0, psi10, 0.0)
    monkeypatch.setattr(closed_forms, "resonance_phi", time_phi)
    w = l_hat_norm(0.01, b0, psi10, 0.0)
    assert v > 0
    assert abs(v - w) / v < 1e-10


def test_l_hat_norm_linear_in_small_time():
    (b0,) = normalize_hats(build_fN(16, 0.0, "c2_B0"), 0.0)
    (psi10,) = build_c2_psi10(16, -1.0)
    v1 = l_hat_norm(1e-4, b0, psi10, 0.0)
    v2 = l_hat_norm(2e-4, b0, psi10, 0.0)
    assert v2 / v1 == pytest.approx(2.0, rel=1e-4)


# -- first-order transport response ----------------------------------------------

def test_first_order_psi1_linear_in_time():
    hats = normalize_hats(build_fN(8, 0.25), 0.25)
    v1 = first_order_psi1(0.02, hats, 0.25)
    v2 = first_order_psi1(0.04, hats, 0.25)
    assert v2 / v1 == pytest.approx(2.0, rel=0.05)


def test_first_order_psi1_requires_disjoint_hats():
    bad = (HatDatum(0.0, 1.0, 1.0), HatDatum(0.5, 2.0, 1.0))
    with pytest.raises(ValueError, match="overlap"):
        first_order_psi1(0.1, bad, 0.0)


# -- small-dispersion closed form -------------------------------------------------

def test_small_dispersion_solution_phase_and_modulus():
    grid = SpectralGrid(16.0, 128)
    b0 = np.exp(-grid.x**2) + 0j
    psi_p = 0.5 * np.ones(grid.n)
    out = small_dispersion_solution(b0, psi_p, 2.0)
    assert_allclose(out, np.exp(-1j * 1.0) * b0, atol=1e-14)
    # modulus is invariant pointwise for any profile
    rng = np.random.default_rng(3)
    psi_p = rng.standard_normal(grid.n)
    out = small_dispersion_solution(b0, psi_p, 1.7)
    assert_allclose(np.abs(out), np.abs(b0), atol=1e-14)


# -- reference profiles ------------------------------------------------------------

def test_smooth_plateau_shape():
    x = np.linspace(-3.0, 3.0, 601)
    y = smooth_plateau(x)
    assert_allclose(y[np.abs(x) <= 1.0], 1.0, atol=1e-15)
    assert_allclose(y[np.abs(x) >= 2.0], 0.0, atol=1e-15)
    mid = y[(x > 1.0) & (x < 2.0)]
    assert np.all((mid >= 0) & (mid <= 1))
    assert np.all(np.diff(y[(x >= 1.0) & (x <= 2.0)]) <= 0)  # monotone ramp
    # strictly interior away from the edges (right at them the exponentials
    # underflow and the float value saturates at exactly 0 or 1)
    core = y[(x >= 1.05) & (x <= 1.95)]
    assert np.all((core > 0) & (core < 1))
    assert_allclose(y, y[::-1], atol=1e-15)  # even


def test_modulated_sinc_values_and_band():
    assert modulated_sinc(np.array([0.0]))[0] == 1.0
    x = np.pi * np.arange(1, 5)
    assert_allclose(modulated_sinc(x), 0.0, atol=1e-15)
    # cos(3x) sin(x)/x has line transform (pi/2)(chi_[2,4] + chi_[-4,-2]);
    # on the grid the plateau is pi/(2 L) and the out-of-band content is only
    # the periodic truncation of the 1/x tails (slow decay -> per-mille level)
    g = SpectralGrid(200.0, 4096)
    spec = np.abs(g.forward(modulated_sinc(g.x)))
    xi = np.abs(g.wavenumbers)
    plateau = spec[(xi > 2.2) & (xi < 3.8)]
    assert_allclose(plateau, np.pi / (2.0 * g.length), rtol=0.05)
    assert np.max(spec[xi > 4.5]) < 5e-3 * np.max(spec)
