"""An independent Strang stepper for the coupled Schrodinger-transport system,
written from `zrlab.evolution`'s module docstring with `np.fft` and complex
exponentials; it shares no code with the stepper's plan, so a test can hold
`evolve` to it.

One step of size dt is a linear half step, the nonlinear step and a second
linear half step.  The linear flows are exact Fourier multipliers: B's
spectrum takes exp(-i dispersion xi^2 tau), and psi_j's real half spectrum
exp(-i speed_j xi tau), except that the unpaired Nyquist mode takes the
cosine of that angle.  The nonlinear step kicks psi_j by dt/2 times
source_j d/dx |B|^2, d/dx keeping only the modes |j| <= n/3 (the 2/3 rule),
rotates B by exp(-i V dt), V = p+ psi1 + p- psi2 + cubic |B|^2 at the kicked
psi, and kicks psi_j again by dt/2 with the rotated B.
"""

import numpy as np


def reference_evolve(length, coeffs, b, psi1, psi2, dt, steps):
    """(B, psi1, psi2) on the grid of `length` after `steps` Strang steps of
    size dt from the grid values b, psi1, psi2 (the coefficient record
    `coeffs`)."""
    n = len(b)
    xi = 2.0 * np.pi * np.fft.fftfreq(n, d=length / n)
    xi_half = 2.0 * np.pi * np.fft.rfftfreq(n, d=length / n)
    ddx = np.where(np.arange(n // 2 + 1) <= n // 3, 1j * xi_half, 0.0)
    speeds = np.array([[coeffs.speed_plus], [coeffs.speed_minus]])
    sources = np.array([[coeffs.source_plus], [coeffs.source_minus]])

    def linear(b, psi_hat, tau):
        b = np.fft.ifft(np.fft.fft(b) * np.exp(-1j * coeffs.dispersion * xi**2 * tau))
        angle = speeds * xi_half * tau
        mult = np.exp(-1j * angle)
        mult[:, -1] = np.cos(angle[:, -1])
        return b, psi_hat * mult

    def kick(b, psi_hat):
        return psi_hat + 0.5 * dt * sources * ddx * np.fft.rfft(np.abs(b) ** 2)

    psi_hat = np.fft.rfft(np.array([psi1, psi2]))
    for _ in range(steps):
        b, psi_hat = linear(b, psi_hat, 0.5 * dt)
        psi_hat = kick(b, psi_hat)
        psi = np.fft.irfft(psi_hat, n)
        v = coeffs.potential_plus * psi[0] + coeffs.potential_minus * psi[1] \
            + coeffs.cubic * np.abs(b) ** 2
        b = b * np.exp(-1j * v * dt)
        psi_hat = kick(b, psi_hat)
        b, psi_hat = linear(b, psi_hat, 0.5 * dt)
    return (b, *np.fft.irfft(psi_hat, n))
