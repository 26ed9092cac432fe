"""Periodic pseudo-spectral grid for the 1D domain [-L/2, L/2).

Conventions (fixed once, used everywhere):

* nodes            x_m = -L/2 + m*dx,  dx = L/n,  m = 0..n-1
* wavenumbers      xi_j = 2*pi*j/L,  j in {-n/2, ..., n/2-1}, stored in FFT
                   layout (0, 1, ..., n/2-1, -n/2, ..., -1)
* forward DFT      fhat_j = (1/n) * sum_m f(x_m) exp(-i xi_j x_m)
                   so a pure mode exp(i xi_k x) has fhat_k = 1
* Parseval         (1/n) sum_m |f_m|^2 = sum_j |fhat_j|^2
* Sobolev norm     ||f||_{H^s} = sqrt( L * sum_j (1+|xi_j|)^{2s} |fhat_j|^2 )
                   (H^0 equals the L^2(dx) norm of the grid function)
* dealiasing       2/3 rule: keep |j| <= n/3, i.e. |xi_j| <= dealiased_band(n, L)
* Nyquist          the unpaired j = -n/2 mode (no conjugate partner) is zeroed
                   by the derivative; translation keeps its cosine part

Because the nodes start at -L/2 rather than 0, the numpy FFT is corrected by
the alternating phase exp(-i xi_j * (-L/2)) = (-1)^j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GRID_SIZE_RULE",
    "SpectralGrid",
    "dealiased_band",
    "is_grid_size",
    "next_fast_len",
]

# n even keeps the parity (-1)^j, the half spectrum and the Nyquist rules
# exact; 5-smooth lengths are the ones pocketfft transforms fast.
GRID_SIZE_RULE = "must be even, >= 8 and have no prime factor but 2, 3 and 5"


def is_grid_size(n: int) -> bool:
    """Whether n is a valid grid size (GRID_SIZE_RULE); config validation and
    SpectralGrid both ask this."""
    if n < 8 or n % 2:
        return False
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


def next_fast_len(m: float) -> int:
    """Smallest valid grid size >= m."""
    n = max(8, math.ceil(m))
    n += n % 2
    while not is_grid_size(n):
        n += 2
    return n


def dealiased_band(n: int, length: float) -> float:
    """Largest |xi| the 2/3 rule keeps on the grid (n, length): (2 pi / L) floor(n/3)."""
    return (2.0 * np.pi / length) * (n // 3)


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform periodic grid with cached Fourier metadata.

    Parameters
    ----------
    length : float
        Period L of the domain [-L/2, L/2). Must be positive and finite.
    n : int
        Number of nodes; a valid grid size (`is_grid_size`).
    """

    length: float
    n: int

    def __post_init__(self) -> None:
        if not np.isfinite(self.length) or self.length <= 0:
            raise ValueError(f"grid length must be positive and finite, got {self.length}")
        if not is_grid_size(self.n):
            raise ValueError(f"grid size {GRID_SIZE_RULE}, got {self.n}")
        dx = self.length / self.n
        x = -0.5 * self.length + dx * np.arange(self.n)
        modes = np.fft.fftfreq(self.n, d=1.0 / self.n)  # integer j in FFT layout
        xi = (2.0 * np.pi / self.length) * modes
        mask = np.abs(xi) <= dealiased_band(self.n, self.length)
        parity = np.where(np.mod(modes, 2) == 0, 1.0, -1.0)  # (-1)^j
        for name, arr in (("x", x), ("wavenumbers", xi), ("modes", modes),
                          ("dealias_mask", mask), ("_parity", parity)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "dx", dx)

    # -- transforms ---------------------------------------------------------

    def forward(self, values: np.ndarray) -> np.ndarray:
        """Fourier coefficients fhat_j of a grid function (any dtype)."""
        values = np.asarray(values)
        if values.shape != (self.n,):
            raise ValueError(f"field has shape {values.shape}, grid expects ({self.n},)")
        return self._parity * np.fft.fft(values) / self.n

    def inverse(self, coeffs: np.ndarray) -> np.ndarray:
        """Grid values sum_j fhat_j exp(i xi_j x_m); complex output."""
        coeffs = np.asarray(coeffs)
        if coeffs.shape != (self.n,):
            raise ValueError(f"coefficients have shape {coeffs.shape}, grid expects ({self.n},)")
        return np.fft.ifft(coeffs * self._parity) * self.n

    # -- Fourier-side operations --------------------------------------------

    def derivative_coeffs(self, coeffs: np.ndarray) -> np.ndarray:
        """Multiply by i xi; the Nyquist mode goes to zero."""
        out = coeffs * (1j * self.wavenumbers)
        out[self.modes == -self.n // 2] = 0.0
        return out

    def derivative(self, values: np.ndarray) -> np.ndarray:
        return self.inverse(self.derivative_coeffs(self.forward(values)))

    def sobolev_norm_coeffs(self, coeffs: np.ndarray, s: float) -> float:
        weights = (1.0 + np.abs(self.wavenumbers)) ** (2.0 * s)
        return float(np.sqrt(self.length * np.sum(weights * np.abs(coeffs) ** 2)))

    def sobolev_norm(self, values: np.ndarray, s: float = 0.0) -> float:
        """Discrete H^s norm; s = 0 recovers the L^2(dx) norm."""
        return self.sobolev_norm_coeffs(self.forward(values), s)

    def translation(self, shift) -> np.ndarray:
        """Half-spectrum multiplier exp(-i xi shift) taking a real f to
        x -> f(x - shift): exact translation, Nyquist cosine part kept.  `shift`
        may be a column of shifts, one row per member."""
        xi = self.wavenumbers[:self.n // 2 + 1]
        out = np.empty(np.broadcast_shapes(np.shape(shift), xi.shape), complex)
        # cos, sin of the real angle 0 - xi shift (zero signs as the complex
        # product formed them): numpy's complex exp has no vectorised loop
        angle = np.subtract(0.0, np.multiply(xi, shift, out=out.imag), out=out.imag)
        np.cos(angle, out=out.real)
        np.sin(angle, out=angle)
        angle[..., -1] = 0.0
        return out

    def boundary_mass_fraction(self, values: np.ndarray) -> float:
        """Fraction of the field's L^2 mass within 0.05 L of the edges."""
        cells = max(1, int(np.ceil(0.05 * self.n)))
        dens = np.abs(np.asarray(values)) ** 2
        total = float(np.sum(dens))
        if total == 0.0:
            return 0.0
        edge = float(np.sum(dens[:cells]) + np.sum(dens[-cells:]))
        return edge / total

