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
* dealiasing       2/3 rule: keep modes with |j| <= n/3
* Nyquist          the unpaired j = -n/2 mode is zeroed by odd-order
                   derivatives (it has no conjugate partner)

Because the nodes start at -L/2 rather than 0, the numpy FFT is corrected by
the alternating phase exp(-i xi_j * (-L/2)) = (-1)^j.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpectralGrid",
    "ComplexField",
    "next_pow2",
]


def next_pow2(m: float) -> int:
    """Smallest power of two >= m (and >= 2)."""
    p = 2
    while p < m:
        p *= 2
    return p


def _is_pow2(m: int) -> bool:
    return m >= 2 and (m & (m - 1)) == 0


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform periodic grid with cached Fourier metadata.

    Parameters
    ----------
    length : float
        Period L of the domain [-L/2, L/2). Must be positive and finite.
    n : int
        Number of nodes; a power of two (so n is even and FFTs are fast).
    """

    length: float
    n: int

    def __post_init__(self) -> None:
        if not np.isfinite(self.length) or self.length <= 0:
            raise ValueError(f"grid length must be positive and finite, got {self.length}")
        if not _is_pow2(self.n):
            raise ValueError(f"grid size must be a power of two >= 2, got {self.n}")
        dx = self.length / self.n
        x = -0.5 * self.length + dx * np.arange(self.n)
        modes = np.fft.fftfreq(self.n, d=1.0 / self.n)  # integer j in FFT layout
        xi = (2.0 * np.pi / self.length) * modes
        mask = np.abs(modes) <= self.n / 3
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

    def derivative_coeffs(self, coeffs: np.ndarray, order: int = 1) -> np.ndarray:
        """Multiply by (i xi)^order; odd orders zero the Nyquist mode."""
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        out = coeffs * (1j * self.wavenumbers) ** order
        if order % 2 == 1:
            out[self.modes == -self.n // 2] = 0.0
        return out

    def derivative(self, values: np.ndarray, order: int = 1) -> np.ndarray:
        return self.inverse(self.derivative_coeffs(self.forward(values), order))

    def dealias(self, coeffs: np.ndarray) -> np.ndarray:
        return coeffs * self.dealias_mask

    def sobolev_weights(self, s: float) -> np.ndarray:
        """(1 + |xi_j|)^{2s} in FFT layout."""
        return (1.0 + np.abs(self.wavenumbers)) ** (2.0 * s)

    def sobolev_norm_coeffs(self, coeffs: np.ndarray, s: float) -> float:
        return float(np.sqrt(self.length * np.sum(self.sobolev_weights(s) * np.abs(coeffs) ** 2)))

    def sobolev_norm(self, values: np.ndarray, s: float = 0.0) -> float:
        """Discrete H^s norm; s = 0 recovers the L^2(dx) norm."""
        return self.sobolev_norm_coeffs(self.forward(values), s)

    def translate_coeffs(self, coeffs: np.ndarray, shift: float) -> np.ndarray:
        """Coefficients of x -> f(x - shift) (exact trigonometric translation)."""
        return coeffs * np.exp(-1j * self.wavenumbers * shift)

    def boundary_mass_fraction(self, values: np.ndarray, margin: float = 0.05) -> float:
        """Fraction of the field's L^2 mass within `margin*L` of the edges."""
        cells = max(1, int(np.ceil(margin * self.n)))
        dens = np.abs(np.asarray(values)) ** 2
        total = float(np.sum(dens))
        if total == 0.0:
            return 0.0
        edge = float(np.sum(dens[:cells]) + np.sum(dens[-cells:]))
        return edge / total


def _validate_field(grid: SpectralGrid, values: np.ndarray) -> None:
    if values.shape != (grid.n,):
        raise ValueError(f"field shape {values.shape} does not match grid size {grid.n}")
    if not np.all(np.isfinite(values)):
        raise ValueError("field contains non-finite entries")


@dataclass(frozen=True)
class ComplexField:
    """A complex grid function bound to its grid."""

    grid: SpectralGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.complex128)
        _validate_field(self.grid, vals)
        object.__setattr__(self, "values", vals)

    def norm(self, s: float = 0.0) -> float:
        return self.grid.sobolev_norm(self.values, s)
