"""Joint-distribution builders and the sinc coupling kernel.

Two independent constructions of the same object:

* a derivative series pairing even derivatives of the density with even
  momentum derivatives of the phase-space distribution, and
* a spectral product in which the transformed joint factorizes as
  ``rho_hat(K) * sinc(hbar K q / 2) * W_hat(q, k)``.

Each is the other's test oracle.  The series is evaluated with spectral
derivatives of floored factor spectra and truncated by the shared rule
in :func:`phasekin.grids.sum_series`.  Its terms are outer products, so
it is kept factored, (n, N + 1) density factors times (N + 1, n^2) W
factors, and formed by one matrix product; a term costs O(n^2), and the
series runs to convergence across hbar < 2 sigma_R sigma_p.

The spectral product never forms a three-axis transform.  Over r and k
the forward and inverse transforms cancel, and the K inverse acts on
``rho_hat(K) * sinc`` alone, giving the matrix
``G(R, q) = IFT_K[rho_hat(K) sinc(hbar K q / 2)]``, n rows by n + 1
frequencies -n/2 ... n/2.  What is left is ``F(R, p, r) = IFT_q[G(R, q)
W_hat(q, r)]`` with ``W_hat`` the transform over p only.  The joint is
real, so only the ``q >= 0`` half of that product is formed and
inverted, which needs ``G(R, -q) = conj G(R, q)``, checked on G (an
O(n^2) guard).  The inverse's per-bin scale and conjugation act on G
and ``W_hat``, so the product goes straight to a real inverse FFT.  It
is formed and inverted a few rows of R at a time, so the largest array
is the real n^3 joint itself.
"""

from __future__ import annotations

from itertools import count

import numpy as np

from .grids import (
    Grid1D,
    _alternating,
    _sup_norm,
    checked_hermitian,
    derivative_multiplier,
    floored_fft,
    fourier_forward,
    fourier_inverse,
    half_spectrum_forward,
    require_same_grid,
    series_coefficient,
    sum_series,
)
from .states import JointDistribution, VirtualDensity, WignerDistribution

KERNEL_SWITCH = 1e-4
# Rows of R per block of the inverse over q.  At n3 = 128 blocks of 2 to 8
# rows time within noise of each other, 4 the fastest; 16 and more are slower.
INVERSE_BLOCK = 4


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
    return JointDistribution(rho.grid, W.grid_p, W.grid_r, np.multiply.outer(rho.values, W.values))


def _joint_terms(rho: VirtualDensity, W: WignerDistribution, hbar: float):
    """The n-th term of the joint series as its two factors, for n = 1, 2, ...

    Yields ``((c_n d^2n rho / dR^2n, d^2n W / dp^2n), norm)``: the term is
    their outer product, so its sup norm is the product of theirs.
    """
    if hbar == 0.0:
        return  # the classical product is exact
    rho_hat = floored_fft(rho.values)
    w_hat = floored_fft(W.values, axis=0)
    mult_R = derivative_multiplier(rho.grid, 2)
    mult_p = derivative_multiplier(W.grid_p, 2)[:, None]
    for n in count(1):
        rho_hat *= mult_R
        w_hat *= mult_p
        coeff = series_coefficient(hbar, n)
        d_rho = np.fft.ifft(rho_hat).real
        d_w = np.fft.ifft(w_hat, axis=0).real
        yield (coeff * d_rho, d_w), abs(coeff) * (_sup_norm(d_rho) * _sup_norm(d_w))


def quantum_joint_series(rho: VirtualDensity, W: WignerDistribution, hbar: float) -> JointDistribution:
    """Joint built from the even-derivative series; real term by term.

    Every term is an outer product ``c_n rho^(2n)(R) d_p^2n W(p, r)``, so
    the sum is one matrix product ``A @ B``: A holds rho and the scaled
    density derivatives as columns, B holds W and its momentum
    derivatives as rows.  :func:`phasekin.grids.sum_series` truncates it
    from the factors' sup norms, and only the result is n^3.

    On Gaussian presets the series converges inside the whole window
    hbar < 2 sigma_R sigma_p, that is hbar^2 / (4 sigma_R^2 sigma_p^2) < 1:
    measured at sigma_R = hbar = 1, n3 = 32 to 256 and half_width 8 or 12,
    ratios up to 0.99 take at most 54 terms (SERIES_CAP is 64) and
    agree with :func:`quantum_joint_spectral` within 4.4e-14.  Outside it
    :class:`NonConvergenceError` is raised where the terms grow (hbar = 2
    on the coherent preset) or overflow; on coarse grids the floored
    spectra can still end the series a little past ratio 1.
    """
    _check_joint_inputs(rho, W)
    n_p, n_r = W.values.shape

    def assemble(terms: list) -> np.ndarray:
        factors_R = np.column_stack([rho.values, *(d_rho for d_rho, _ in terms)])
        factors_W = np.stack([W.values, *(d_w for _, d_w in terms)]).reshape(len(terms) + 1, n_p * n_r)
        terms.clear()  # the W factors now live in factors_W alone
        return (factors_R @ factors_W).reshape(rho.grid.n, n_p, n_r)

    scale = _sup_norm(rho.values) * _sup_norm(W.values)
    total = sum_series(_joint_terms(rho, W, hbar), scale, assemble, "derivative series")
    return JointDistribution(rho.grid, W.grid_p, W.grid_r, total)


def _kernel_half(rho: VirtualDensity, grid_p: Grid1D, hbar: float) -> np.ndarray:
    """``G(R, q)`` at its n/2 + 1 bins ``q >= 0``, checked Hermitian in q."""
    n_q = grid_p.n
    K = rho.grid.frequencies
    q = np.pi / grid_p.half_width * np.arange(-(n_q // 2), n_q // 2 + 1)  # symmetric, both Nyquist bins
    rho_t = fourier_forward(rho.values, (rho.grid,), (0,))
    G = fourier_inverse(rho_t[:, None] * sinc_values(hbar * np.outer(K, q) / 2.0), (rho.grid,), (0,))
    return checked_hermitian(G, 1, "spectral joint kernel G(R, q)")[:, n_q // 2 :]


def _inverse_over_q(G_half: np.ndarray, w_half: np.ndarray, grid: Grid1D, out: np.ndarray):
    """Yield ``IFT_q[G(R, q) W_hat(q, r)]`` from the ``q >= 0`` halves of
    both factors, INVERSE_BLOCK rows of R at a time.

    Each block is ``irfft`` of the factors' conjugated product times
    ``alt / step``, formed in one reused (B, n/2 + 1, n) complex buffer.
    It is written to its own rows of ``out`` when ``out`` has a row for
    every R, and otherwise to the first rows of ``out``, a block buffer
    that the next block overwrites.  Outside these buffers the work is O(n^2).
    """
    g = np.conj(G_half * (_alternating(grid.n // 2 + 1) / grid.step))[:, :, None]
    w = np.conj(w_half)
    n_R = len(g)
    product = np.empty((min(INVERSE_BLOCK, n_R), *w.shape), dtype=complex)
    for start in range(0, n_R, INVERSE_BLOCK):
        rows = slice(start, min(start + INVERSE_BLOCK, n_R))
        size = rows.stop - start
        block = out[rows] if len(out) == n_R else out[:size]
        np.fft.irfft(np.multiply(g[rows], w, out=product[:size]), grid.n, axis=1, out=block)
        yield block


def quantum_joint_spectral(rho: VirtualDensity, W: WignerDistribution, hbar: float) -> JointDistribution:
    """Joint built in Fourier space via the sinc kernel on the (K, q) lattice.

    The kernel is evaluated everywhere, including its negative lobes; no
    windowing is applied.  Built by the half-spectrum route of the module
    docstring, whose largest array is the real n^3 result: the complex
    product is formed a block of rows of R at a time, straight into it;
    :class:`ImaginaryResidueError` if ``G(R, q)`` is not Hermitian in q
    (a complex kernel, say).
    """
    _check_joint_inputs(rho, W)
    f = np.empty((rho.grid.n, W.grid_p.n, W.grid_r.n))
    blocks = _inverse_over_q(_kernel_half(rho, W.grid_p, hbar), half_spectrum_forward(W.values, W.grid_p), W.grid_p, f)
    for _ in blocks:
        pass  # each block lands in its rows of f
    return JointDistribution(rho.grid, W.grid_p, W.grid_r, f)
