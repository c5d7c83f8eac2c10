"""Joint-distribution builders and the sinc coupling kernel.

Two independent constructions of the same object:

* a derivative series pairing even derivatives of the density with even
  momentum derivatives of the phase-space distribution, and
* a spectral product in which the transformed joint factorizes as
  ``rho_hat(K) * sinc(hbar K q / 2) * W_hat(q, k)``.

Each is the other's test oracle.  The series is evaluated with spectral
derivatives of floored factor spectra and truncated by the shared rule
in :func:`phasekin.grids.sum_series`.

The spectral product never forms a three-axis transform.  Over r and k
the forward and inverse transforms cancel, and the K inverse acts on
``rho_hat(K) * sinc`` alone, giving the matrix
``G(R, q) = IFT_K[rho_hat(K) sinc(hbar K q / 2)]``, n rows by n + 1
frequencies -n/2 ... n/2.  What is left is
``F(R, p, r) = IFT_q[G(R, q) W_hat(q, r)]`` with ``W_hat`` the transform
over p only.  The joint is real, so only the ``q >= 0`` half of that
product is formed and inverted, which needs ``G(R, -q) = conj G(R, q)``;
that symmetry is checked on G (an O(n^2) guard) before the product.
"""

from __future__ import annotations

from itertools import count

import numpy as np

from .grids import (
    checked_hermitian,
    conjugate,
    floored_fft,
    fourier_forward,
    fourier_inverse,
    half_spectrum_forward,
    half_spectrum_inverse,
    native_frequencies,
    require_same_grid,
    series_coefficient,
    sum_series,
)
from .states import JointDistribution, VirtualDensity, WignerDistribution

KERNEL_SWITCH = 1e-4


def sinc_values(x: np.ndarray) -> np.ndarray:
    """sin(x)/x, switching to its Taylor series below |x| = 1e-4."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    big = np.abs(x) >= KERNEL_SWITCH
    out[big] = np.sin(x[big]) / x[big]
    xs = x[~big]
    out[~big] = 1.0 - xs**2 / 6.0 + xs**4 / 120.0
    return out


def _check_joint_inputs(rho: VirtualDensity, W: WignerDistribution) -> None:
    require_same_grid(rho.grid, W.grid_r, "joint builder (R vs r axis)")


def classical_joint(rho: VirtualDensity, W: WignerDistribution) -> JointDistribution:
    """Factorized joint: the outer product rho(R) W(p, r)."""
    _check_joint_inputs(rho, W)
    return JointDistribution(rho.grid, W.grid_p, W.grid_r, np.multiply.outer(rho.values, W.values), 0.0)


def _joint_terms(rho: VirtualDensity, W: WignerDistribution, hbar: float):
    """The n-th even-derivative term of the joint series, for n = 1, 2, ..."""
    if hbar == 0.0:
        return  # the classical product is exact
    rho_hat = floored_fft(rho.values)
    w_hat = floored_fft(W.values, axis=0)
    mult_R = (1j * native_frequencies(rho.grid)) ** 2
    mult_p = ((1j * native_frequencies(W.grid_p)) ** 2)[:, None]
    for n in count(1):
        rho_hat *= mult_R
        w_hat *= mult_p
        d_rho = np.fft.ifft(rho_hat).real
        d_w = np.fft.ifft(w_hat, axis=0).real
        yield series_coefficient(hbar, n) * np.multiply.outer(d_rho, d_w)


def quantum_joint_series(rho: VirtualDensity, W: WignerDistribution, hbar: float) -> JointDistribution:
    """Joint built from the even-derivative series; real term by term.

    Terms are summed by :func:`phasekin.grids.sum_series`, which raises
    :class:`NonConvergenceError` when its 20-term cap is not enough.  On
    Gaussian presets that happens once hbar^2 / (4 sigma_R^2 sigma_p^2)
    passes about 0.5, well inside hbar < 2 sigma_R sigma_p: measured at
    sigma_R = hbar = 1 and n3 = 64 or 128, the ratio 0.510 converges to
    within 1.7e-10 of :func:`quantum_joint_spectral`, and at 0.541 the
    last term is still 1.39e-8 of the sum.
    """
    _check_joint_inputs(rho, W)
    total = sum_series(
        np.multiply.outer(rho.values, W.values), _joint_terms(rho, W, hbar), "derivative series"
    )
    return JointDistribution(rho.grid, W.grid_p, W.grid_r, total, hbar)


def quantum_joint_spectral(rho: VirtualDensity, W: WignerDistribution, hbar: float) -> JointDistribution:
    """Joint built in Fourier space via the sinc kernel on the (K, q) lattice.

    The kernel is evaluated everywhere, including its negative lobes; no
    windowing is applied.  Built by the half-spectrum route of the module
    docstring, whose largest array is the (n, n/2 + 1, n) complex
    product; :class:`ImaginaryResidueError` if ``G(R, q)`` is not
    Hermitian in q (a complex kernel, say).
    """
    _check_joint_inputs(rho, W)
    n_q = W.grid_p.n
    K = conjugate(rho.grid).frequencies
    q = conjugate(W.grid_p).step * np.arange(-(n_q // 2), n_q // 2 + 1)  # symmetric, both Nyquist bins
    rho_t = fourier_forward(rho.values, (rho.grid,), (0,))
    G = fourier_inverse(rho_t[:, None] * sinc_values(hbar * np.outer(K, q) / 2.0), (rho.grid,), (0,))
    G_half = checked_hermitian(G, 1, "spectral joint kernel G(R, q)")[:, n_q // 2 :]
    w_half = half_spectrum_forward(W.values, W.grid_p, axis=0)
    f = half_spectrum_inverse(G_half[:, :, None] * w_half[None, :, :], W.grid_p, axis=1)
    return JointDistribution(rho.grid, W.grid_p, W.grid_r, f, hbar)
