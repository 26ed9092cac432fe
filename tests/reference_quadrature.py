"""A brute-force time rule for the resonance kernel, independent of its closed
form: phi(t, a) = int_0^t exp(i t' a) dt' by a time_nodes-point
Gauss-Legendre rule on [0, t].  A test that puts `time_phi` in place of
`zrlab.closed_forms.resonance_phi` holds every oracle that integrates the
kernel (`l_hat`, `l_hat_norm`, `first_order_psi1`) to a second route for
its time integral.

The rule is folded on its node symmetry: the Gauss-Legendre rule is mirrored
bit for bit, so with t' = (t/2)(1 + x_k) the sum is exp(i a t/2) times the
cosine sum over the non-negative nodes of `_gl_half`, whose weights are
doubled but for the centre node x_k = 0 of an odd count.  The cosines and
the rotation come from tangents of half angles,

    sum w cos = sum w 2 / (1 + u^2) - sum w,   exp(i m) = (1 + i u) / (1 - i u),

u the tangent of half the angle: numpy runs float64 tan in a vectorised loop
but cos and sin one value at a time, and has no vectorised complex exp.
"""

import numpy as np

from zrlab.closed_forms import _gl_half


def time_phi(t, a, time_nodes=64):
    """phi(t, a) by the folded time_nodes-point rule, elementwise in a."""
    x, w = _gl_half(time_nodes)
    mid = 0.5 * t * np.asarray(a, dtype=np.float64)
    half = np.multiply.outer(0.5 * mid, x)  # becomes 1 + u^2, then 2 / (1 + u^2), in place
    np.square(np.tan(half, out=half), out=half)
    half += 1.0
    folded = np.divide(2.0, half, out=half) @ w - w.sum()
    u = np.tan(0.5 * mid)
    return 0.5 * t * ((1.0 + 1j * u) / (1.0 - 1j * u)) * folded
