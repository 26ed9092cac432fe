"""Closed-form references computed independently of the PDE solver.

Everything here works in continuous frequency, so comparisons against the
spectral solver are genuine cross-validations.  Two Gauss-Legendre rules do
all the integration: `_panel_integral`, the outer xi integral of
(1+|xi|)^{2s} times a density on panels split at the density's kinks and at
0 (where the weight kinks), and `_overlap_integral`, the inner xi_1 integral
of the resonance kernel phi(t, a(xi_1)) over the overlap of two supports.

Fourier/norm conventions on the line:

    fhat(xi) = int f(x) exp(-i x xi) dx
    ||f||_{H^s} = sqrt( int (1+|xi|)^{2s} |fhat(xi)|^2 dxi )

so a product transforms to a convolution with a factor 1/(2 pi),
(f g)^ = (1/2pi) fhat * ghat, which the quadratic responses `l_hat` and
`first_order_psi1` both carry.

With these, H^0 is sqrt(2*pi) times the physical L^2 norm; a band-limited
function synthesized on a periodic grid via c_j = fhat(xi_j)/L therefore has
grid Sobolev norm equal to the hat-integral norm divided by sqrt(2*pi).
`as_grid_norm` applies that bridge; it is the only place the constant lives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .grid import SpectralGrid, dealiased_band

__all__ = [
    "HatDatum",
    "build_fN",
    "build_c2_psi10",
    "hat_sobolev_norm",
    "normalize_hats",
    "synthesize_hat_field",
    "as_grid_norm",
    "resonance_phi",
    "l_hat",
    "l_hat_norm",
    "first_order_psi1",
    "expected_c2_slope",
    "expected_inflation_slope",
    "small_dispersion_solution",
    "smooth_plateau",
    "modulated_sinc",
]

GRID_NORM_FACTOR = 1.0 / math.sqrt(2.0 * math.pi)


def as_grid_norm(hat_norm_value: float) -> float:
    """Convert a hat-integral norm to the equivalent grid-norm value."""
    return hat_norm_value * GRID_NORM_FACTOR


def _legendre(n: int, x: np.ndarray):
    """P_n(x) and P_n'(x) for |x| < 1, by the three-term recurrence."""
    prev, cur = np.ones_like(x), x
    for j in range(1, n):
        prev, cur = cur, ((2 * j + 1) * x * cur - j * prev) / (j + 1)
    return cur, n * (prev - x * cur) / ((1.0 - x) * (1.0 + x))


@lru_cache(maxsize=None)
def _gl_half(nodes: int):
    """The non-negative nodes of the nodes-point Gauss-Legendre rule on
    [-1, 1], ascending, and their weights doubled (but for an odd count's
    centre node, which is exactly 0.0).

    Newton on P_n from the guesses cos(pi (k - 1/4) / (n + 1/2)), written as
    sines so that the centre guess is exactly 0; the weights
    2 / ((1 - x^2) P_n'(x)^2) are scaled so the whole rule sums to 2."""
    x = np.sin(np.pi * np.arange(1 - nodes % 2, nodes, 2) / (2 * nodes + 1))
    for _ in range(100):
        p, dp = _legendre(nodes, x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= 1e-15:
            break
    dp = _legendre(nodes, x)[1]
    w = np.where(x > 0.0, 4.0, 2.0) / ((1.0 - x) * (1.0 + x) * dp * dp)
    w *= 2.0 / np.sum(w)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@lru_cache(maxsize=None)
def _gl(nodes: int):
    """The nodes-point Gauss-Legendre rule on [-1, 1], ascending and mirrored
    bit for bit: x_k = -x_{n-1-k} and w_k = w_{n-1-k}, built from _gl_half."""
    half_x, half_w = _gl_half(nodes)
    centre = nodes % 2  # 1 if half_x[0] is the centre node 0.0
    outer_w = 0.5 * half_w[centre:]
    x = np.concatenate((-half_x[centre:][::-1], half_x))
    w = np.concatenate((outer_w[::-1], half_w[:centre], outer_w))
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


# -- hat data -----------------------------------------------------------------

@dataclass(frozen=True)
class HatDatum:
    """An indicator bump in frequency: amplitude * chi_[lo, hi]."""

    lo: float
    hi: float
    amplitude: float

    def __post_init__(self) -> None:
        if not (self.lo < self.hi):
            raise ValueError(f"empty hat support [{self.lo}, {self.hi}]")
        if not all(math.isfinite(v) for v in (self.lo, self.hi, self.amplitude)):
            raise ValueError("hat parameters must be finite")


def build_fN(n_freq: int, k: float, variant: str = "inflation_f") -> tuple[HatDatum, ...]:
    """Two-sided (or single) frequency bumps with amplitude N^{1/2-k}.

    variant:
      inflation_f : chi_[-N-1/N, -N] + chi_[N+1, N+1+1/N]
                    (resonant with the speed +1 transport field)
      inflation_g : chi_[-N-1/N, -N] + chi_[N-1, N-1+1/N]
                    (resonant with the speed -1 transport field)
      c2_B0       : chi_[0, 1/N]   (single bump at the origin)
    """
    amp, big_n = _amplitude(n_freq, k, "k"), float(n_freq)
    if variant == "inflation_f":
        return (HatDatum(-big_n - 1.0 / big_n, -big_n, amp),
                HatDatum(big_n + 1.0, big_n + 1.0 + 1.0 / big_n, amp))
    if variant == "inflation_g":
        return (HatDatum(-big_n - 1.0 / big_n, -big_n, amp),
                HatDatum(big_n - 1.0, big_n - 1.0 + 1.0 / big_n, amp))
    if variant == "c2_B0":
        return (HatDatum(0.0, 1.0 / big_n, amp),)
    raise ValueError(f"unknown hat variant {variant!r}")


def build_c2_psi10(n_freq: int, l: float) -> tuple[HatDatum, ...]:
    """Transport-field bump chi_[-1/N, 1/N] with amplitude N^{1/2-l}."""
    amp, big_n = _amplitude(n_freq, l, "l"), float(n_freq)
    return (HatDatum(-1.0 / big_n, 1.0 / big_n, amp),)


def _amplitude(n_freq: int, s: float, name: str) -> float:
    """N^(1/2 - s), s named `name`; a ValueError when it or its square (in a norm) overflows."""
    if n_freq < 2:
        raise ValueError(f"N must be >= 2, got {n_freq}")
    try:
        amp = float(n_freq) ** (0.5 - s)
        amp**2  # as hat_sobolev_norm squares it: float ** raises on overflow
        return amp
    except OverflowError:
        raise ValueError(f"amplitude N^(1/2 - {name}) = {n_freq}^{0.5-s!r} or its square overflows")


def _check_disjoint(hats: Sequence[HatDatum]) -> None:
    spans = sorted((h.lo, h.hi) for h in hats)
    for (a, b), (c, d) in zip(spans, spans[1:]):
        if c < b:
            raise ValueError("hat supports overlap")


def _panel_integral(breaks: Sequence[float], s: float, density, nodes: int) -> float:
    """int (1+|xi|)^{2s} density(xi) dxi from min(breaks) to max(breaks), by a
    nodes-point Gauss-Legendre rule on each panel between consecutive breaks.

    The breaks list the kinks of density; 0 is added when they straddle it,
    since the weight kinks there and would otherwise stall convergence."""
    breaks = [float(b) for b in breaks]
    if min(breaks) < 0.0 < max(breaks):
        breaks.append(0.0)
    pts = sorted(set(breaks))
    x, w = _gl(nodes)
    total = 0.0
    for a, b in zip(pts, pts[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        xi = mid + half * x
        total += half * float(np.sum(w * (1.0 + np.abs(xi)) ** (2.0 * s) * density(xi)))
    return total


def hat_sobolev_norm(hats: Sequence[HatDatum], s: float, nodes: int = 64) -> float:
    """Hat-integral H^s norm of a sum of disjoint hats, by quadrature."""
    _check_disjoint(hats)
    return math.sqrt(sum(h.amplitude**2 * _panel_integral((h.lo, h.hi), s, lambda xi: 1.0, nodes)
                         for h in hats))


def normalize_hats(hats: Sequence[HatDatum], s: float, nodes: int = 64) -> tuple[HatDatum, ...]:
    """Rescale amplitudes so the hat-integral H^s norm is exactly 1."""
    norm = hat_sobolev_norm(hats, s, nodes)
    if not 0.0 < norm < math.inf:
        raise ValueError(f"cannot normalize data of H^{s:g} norm {norm}")
    return tuple(HatDatum(h.lo, h.hi, h.amplitude / norm) for h in hats)


def synthesize_hat_field(grid: SpectralGrid, hats: Sequence[HatDatum]) -> np.ndarray:
    """Complex grid values of hat data sampled onto the periodic grid:
    c_j = fhat(xi_j) / L.

    Supports are half-open [lo, hi) so that aligned hats contain an exact
    number of grid cells.  The resulting grid function approximates the
    line function with Fourier transform sum_h amp_h chi_[lo,hi); its grid
    Sobolev norm converges to as_grid_norm(hat_sobolev_norm(...)).
    """
    coeffs = np.zeros(grid.n, dtype=np.complex128)
    xi = grid.wavenumbers
    for h in hats:
        sel = (xi >= h.lo) & (xi < h.hi)
        if not np.any(sel):
            raise ValueError(
                f"hat [{h.lo}, {h.hi}) contains no grid frequencies (L too small)")
        coeffs[sel] += h.amplitude / grid.length
    if not np.all(np.abs(xi[np.abs(coeffs) > 0]) <= dealiased_band(grid.n, grid.length)):
        raise ValueError("hat support extends beyond the dealiased band")
    return grid.inverse(coeffs)


# -- resonance kernel ----------------------------------------------------------

def resonance_phi(t: float, a) -> np.ndarray:
    """phi(t, a) = (exp(i t a) - 1) / (i a), the oscillatory time integral
    int_0^t exp(i t' a) dt', as

        Re phi = sin(t a) / a,    Im phi = 2 sin(t a / 2)^2 / a,

    each written with np.sinc: there is no subtraction to cancel, and
    phi(t, 0) = t needs no branch.  |phi| <= |t| everywhere.
    """
    ta = t * np.asarray(a, dtype=np.float64)
    half = np.sinc(ta / (2.0 * np.pi))
    return t * (np.sinc(ta / np.pi) + 0.5j * ta * half * half)


def _overlap_integral(t: float, lo: np.ndarray, hi: np.ndarray, a, nodes: int) -> np.ndarray:
    """Row-wise int_lo^hi resonance_phi(t, a(xi_1)) d xi_1 by a nodes-point
    Gauss-Legendre rule; a row with hi <= lo is empty and gives 0.  `a` maps
    the (rows, nodes) array of xi_1 nodes to the phase."""
    half = np.maximum(0.0, 0.5 * (hi - lo))
    x, w = _gl(nodes)
    xi1 = (0.5 * (lo + hi))[:, None] + half[:, None] * x
    return half * np.sum(w * resonance_phi(t, a(xi1)), axis=1)


# -- second-derivative (bilinear) kernel ---------------------------------------

def l_hat(xi, t: float, b0: HatDatum, psi10: HatDatum, nodes: int = 64) -> np.ndarray:
    """Bilinear Duhamel kernel

        Lhat(xi, t) = exp(-i t xi^2) * (1/2pi) *
            int B0hat(xi_1) psi10hat(xi - xi_1) phi(t, a) d xi_1,
        a = (xi - xi_1)(xi + xi_1 - 1),

    i.e. the second derivative (in the data pair) of the solution map at zero,
    under the free Schrodinger phase exp(-i t' xi^2) for B and the speed +1
    transport phase exp(-i t' xi) for the coupling field: the normalized
    flow's term bilinear in (B0, psi10) is -i Lhat.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=np.float64))
    col = xi[:, None]
    # xi_1 runs over supp(B0hat) cap (xi - supp(psi10hat))
    inner = _overlap_integral(t, np.maximum(b0.lo, xi - psi10.hi), np.minimum(b0.hi, xi - psi10.lo),
                              lambda xi1: (col - xi1) * (col + xi1 - 1.0), nodes)
    return np.exp(-1j * t * xi**2) * b0.amplitude * psi10.amplitude * inner / (2.0 * np.pi)


def l_hat_norm(t: float, b0: HatDatum, psi10: HatDatum, k: float, nodes: int = 64) -> float:
    """||L(.,t)||_{H^k} in the hat-integral convention.

    The output support is [b0.lo + psi10.lo, b0.hi + psi10.hi]; the overlap
    length is piecewise linear with kinks at the two interior corners, so the
    outer integral is split there."""
    breaks = (b0.lo + psi10.lo, b0.lo + psi10.hi, b0.hi + psi10.lo, b0.hi + psi10.hi)
    with np.errstate(over="ignore", invalid="ignore"):  # a huge t reads inf or nan, not warns
        return math.sqrt(_panel_integral(
            breaks, k, lambda xi: np.abs(l_hat(xi, t, b0, psi10, nodes)) ** 2, nodes))


def expected_c2_slope(l: float) -> float:
    """Growth rate in N of the probe's ||L||; the probe needs it >= 0, l <= -1/2."""
    return -l - 0.5


# -- first-order transport response ---------------------------------------------

def first_order_psi1(t: float, hats: Sequence[HatDatum], l: float,
                     speed: float = 1.0, source: float = 1.0, nodes: int = 64) -> float:
    """Hat-integral H^l norm of the first-order transport response at time t,
    the first Duhamel iterate

        psi1hat(xi, t) = source * (i xi) exp(-i speed t xi) * (1/2pi) *
            sum_pairs int fhat_i(xi_1) conj(fhat_j(xi_1 - xi))
                          phi(t, xi (xi - 2 xi_1 + speed)) d xi_1

    of d(psi)/dt + speed d(psi)/dx = source d/dx |exp(i t d_xx) f|^2.

    This is the continuum, whole-line oracle for the solver's psi field when
    the envelope data is the hat sum and couplings are at first order.  Use
    as_grid_norm(...) when comparing against grid Sobolev norms."""
    _check_disjoint(hats)

    def psi1_hat_sq(xi: np.ndarray) -> np.ndarray:
        col = xi[:, None]
        acc = np.zeros(xi.shape, dtype=np.complex128)
        for hi_hat in hats:
            for hj_hat in hats:
                lo = np.maximum(hi_hat.lo, xi + hj_hat.lo)
                hi = np.minimum(hi_hat.hi, xi + hj_hat.hi)
                if np.any(hi > lo):
                    acc += hi_hat.amplitude * hj_hat.amplitude * _overlap_integral(
                        t, lo, hi, lambda xi1: col * (col - 2.0 * xi1 + speed), nodes)
        return (np.abs(xi) * np.abs(acc) / (2.0 * np.pi)) ** 2 * source**2

    # the pair overlaps kink where xi is a difference of two hat edges
    breaks = [u - v for p in hats for q in hats for u in (p.lo, p.hi) for v in (q.lo, q.hi)]
    return math.sqrt(_panel_integral(breaks, l, psi1_hat_sq, nodes))


def expected_inflation_slope(k: float, l: float) -> float:
    """Inflation rate in N of the H^l response to unit H^k data; inflation
    needs it >= 0, the paper's sharpness line l >= 2k - 1/2."""
    return l - (2.0 * k - 0.5)


# -- small-dispersion closed form -----------------------------------------------

def small_dispersion_solution(b0: np.ndarray, psi_plus0: np.ndarray, t: float) -> np.ndarray:
    """Zero-dispersion phase solution from data with psi_minus0 = 0

        A(x, t) = exp(-i t psi_plus0(x)) * B0(x),

    the limit profile the modified small-dispersion system tracks to O(mu),
    on the grid values of B0.  |A| = |B0| pointwise, so every L^2-type norm
    of the modulus is preserved.
    """
    return np.exp(-1j * t * np.asarray(psi_plus0)) * b0


# -- reference profiles -----------------------------------------------------------

def smooth_plateau(x: np.ndarray) -> np.ndarray:
    """C-infinity plateau: 1 on |x| <= 1, 0 on |x| >= 2, with the
    standard exp(-1/s) partition-of-unity transition in between."""
    x = np.asarray(x, dtype=np.float64)
    y = np.clip(np.abs(x) - 1.0, 0.0, 1.0)  # transition coordinate in [0, 1]

    def f(s):
        with np.errstate(divide="ignore", over="ignore"):
            return np.where(s > 0.0, np.exp(-1.0 / np.maximum(s, 1e-300)), 0.0)

    num = f(1.0 - y)
    return num / (num + f(y))


def modulated_sinc(x: np.ndarray) -> np.ndarray:
    """cos(3x) sin(x)/x with the removable singularity filled in (value 1)."""
    x = np.asarray(x, dtype=np.float64)
    return np.cos(3.0 * x) * np.sinc(x / np.pi)
