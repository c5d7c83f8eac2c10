"""Joint-distribution builders and the sinc coupling kernel.

Two independent constructions of the same object:

* a derivative series pairing even derivatives of the density with even
  momentum derivatives of the phase-space distribution, and
* a spectral product in which the transformed joint factorizes as
  ``rho_hat(K) * sinc(hbar K q / 2) * W_hat(q, k)``.

Each is the other's test oracle.  The series pairs the even derivatives
of :func:`phasekin.grids.spectral_derivatives` and is truncated by
:func:`phasekin.grids.accept_series`.  Its terms are outer
products, so it is kept factored, (n, N + 1) density factors times
(N + 1, n^2) W factors, and formed by one matrix product; a term costs
O(n^2), and the series runs to convergence across hbar < 2 sigma_R sigma_p.

The spectral product never forms a three-axis transform.  Over r and k
the forward and inverse transforms cancel, and the K inverse acts on
``rho_hat(K) * sinc`` alone, giving the matrix
``G(R, q) = IFT_K[rho_hat(K) sinc(hbar K q / 2)]``.  rho is real and the
kernel even in K and in q, so G is real and even in q: it is formed from
rho's real half spectrum over K, at the n/2 + 1 bins ``q >= 0`` only,
n rows by n/2 + 1, with no symmetry left to check.  What is left is
``F(R, p, r) = IFT_q[G(R, q) W_hat(q, r)]`` with ``W_hat`` the transform
over p only.  The joint is real, so only the ``q >= 0`` half of that
product is formed and inverted.  Both factors are numpy's own
transforms, G an ``irfft`` over K and ``W_hat`` an ``rfft`` over p, so
their product goes straight to the real inverse FFT over q with no
per-bin scale.  It is formed and inverted a few rows of R at a time.

Each builder forms its factors, and the series its convergence verdict,
when called, so it either raises before its first block or streams every
block.  It returns ``(blocks, planes)``: ``blocks`` is a generator of
the joint's blocks of INVERSE_BLOCK rows of R, each written into one
reused buffer that the next block overwrites, so no n^3 array is formed,
and ``planes()`` returns the joint's O(n^2) reductions, each a product
of its reduced factors (:class:`phasekin.states.JointPlanes`);
:func:`joint_planes` takes the spectral joint's with no block formed.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .grids import (
    INVERSE_BLOCK,
    Grid1D,
    _row_blocks,
    _sup_norm,
    accept_series,
    derivative_array,
    half_frequencies,
    series_coefficient,
    spectral_derivatives,
)
from .states import JointPlanes, VirtualDensity, WignerDistribution, _check_joint_inputs

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


def _joint_terms(rho: VirtualDensity, W: WignerDistribution, hbar: float):
    """The n-th term of the joint series by its density factor, for n = 1, 2, ...

    Yields ``(c_n d^2n rho / dR^2n, norm)``.  The term is the outer
    product of that factor and ``d^2n W / dp^2n``, so its sup norm is the
    product of theirs; the W factor is not kept.
    """
    if hbar == 0.0:
        return  # the classical product is exact
    pairs = zip(spectral_derivatives(rho.values, rho.grid), spectral_derivatives(W.values, W.grid_p))
    for n, (d_rho, d_w) in enumerate(pairs, 1):
        coeff = series_coefficient(hbar, n)
        yield coeff * d_rho, abs(coeff) * (_sup_norm(d_rho) * _sup_norm(d_w))


def _series_factors(rho: VirtualDensity, W: WignerDistribution, hbar: float) -> tuple:
    """``(A, B, verdict)``: the joint series' factor matrices and the
    verdict of :func:`phasekin.grids.accept_series` on it.

    Every term is an outer product ``c_n rho^(2n)(R) d_p^2n W(p, r)``, so
    the sum is one matrix product ``A @ B``: A holds rho and the scaled
    density derivatives as columns, B holds W and its momentum
    derivatives as rows, truncated from the factors' sup norms.  The W
    derivatives are taken again for B, straight into its rows: keeping
    each until the count is known would hold B twice.
    """
    _check_joint_inputs(rho, W)
    scale = _sup_norm(rho.values) * _sup_norm(W.values)
    accepted, verdict = accept_series(_joint_terms(rho, W, hbar), scale, "derivative series")
    factors_R = np.column_stack([rho.values, *accepted])
    factors_W = np.empty((len(accepted) + 1, *W.values.shape))
    factors_W[0] = W.values
    for row, d_w in zip(factors_W[1:], spectral_derivatives(W.values, W.grid_p)):
        row[...] = d_w
    return factors_R, factors_W.reshape(len(factors_W), -1), verdict


def _peak_row(over_pr: np.ndarray) -> int:
    """The row of R whose sum over (p, r), ``over_pr``, is largest."""
    return max(range(len(over_pr)), key=over_pr.__getitem__)  # np.argmax would map code pages no command else maps


def _guard(over_pr: np.ndarray, faces, row) -> tuple:
    """``(boundary, vmax, vmin)`` from a joint's sum over (p, r), its p and r faces and its rows ``row(R)``."""
    boundary = max(map(_sup_norm, chain(map(row, (0, -1)), faces)))  # one face held at a time
    peak = row(_peak_row(over_pr))
    return boundary, float(peak.max()), float(peak.min())


def quantum_joint_series(rho: VirtualDensity, W: WignerDistribution, hbar: float) -> tuple:
    """Joint built from the even-derivative series; real term by term.

    Returns ``(blocks, planes)``.  The factors A (n, N + 1) and B
    (N + 1, n^2) are formed at the call, and ``blocks`` yields the products
    ``A[rows] @ B`` a block of rows of R at a time.  The call takes the
    series' verdict on the sup norm of its peak row, the row of R of largest
    sum over (p, r): a lower bound on the whole joint's, so it may refuse a
    series that the whole joint's would pass, never the reverse.
    ``planes()`` gives the joint's :class:`JointPlanes` from its factors,
    each a product of reduced factors: ``A @ sum_r B``, ``(sum_R A) @ B``,
    dF/dR at R = r ``sum_j (d_R A)[r, j] B[j, p, r]`` and the faces
    ``A @ B[:, p, :]`` and ``A @ B[:, :, r]``.  At hbar = 0 the series has
    no terms, so each block is a product with one inner term: the
    classical joint rho(R) W(p, r), exactly.

    On Gaussian presets the series converges inside the whole window
    hbar < 2 sigma_R sigma_p (the README gives the measured term counts);
    outside it :class:`NonConvergenceError` is raised where the terms grow
    (hbar = 2 on the coherent preset) or overflow.
    """
    factors_R, factors_W, verdict = _series_factors(rho, W, hbar)
    verdict(_sup_norm(factors_R[_peak_row(factors_R @ factors_W.sum(axis=1))] @ factors_W))

    def blocks():
        buffer = np.empty((INVERSE_BLOCK, W.grid_p.n, W.grid_r.n))
        for rows in _row_blocks(len(factors_R)):
            np.matmul(factors_R[rows], factors_W, out=buffer.reshape(INVERSE_BLOCK, -1))
            yield buffer

    def planes():
        by_p_r = factors_W.reshape(len(factors_W), W.grid_p.n, W.grid_r.n)
        over_r = factors_R @ by_p_r.sum(axis=2)
        over_R = (factors_R.sum(axis=0) @ factors_W).reshape(by_p_r.shape[1:])
        diagonal = sum(column * plane for column, plane in zip(derivative_array(factors_R, rho.grid, 0, 1).T, by_p_r))
        faces = (factors_R @ face for i in (0, -1) for face in (by_p_r[:, i], by_p_r[..., i]))
        over_pr = over_r.sum(axis=1)
        guard = _guard(over_pr, faces, lambda R: factors_R[R] @ factors_W)
        return JointPlanes(rho.grid, W.grid_p, W.grid_r, over_R, over_pr, over_r, diagonal, *guard, W.decay_tol)

    return blocks(), planes


def sinc_kernel(K: np.ndarray, q: np.ndarray, hbar: float) -> np.ndarray:
    """The coupling kernel sinc(hbar K q / 2) on the (K, q) lattice."""
    return sinc_values(hbar * np.outer(K, q) / 2.0)


def _kernel_half(rho: VirtualDensity, grid_p: Grid1D, hbar: float) -> np.ndarray:
    """``G(R, q)`` at its n/2 + 1 bins ``q >= 0``: real, from rho's half spectrum."""
    kernel = sinc_kernel(half_frequencies(rho.grid), half_frequencies(grid_p), hbar)
    return np.fft.irfft(np.fft.rfft(rho.values)[:, None] * kernel, rho.grid.n, axis=0)


def quantum_joint_spectral(rho: VirtualDensity, W: WignerDistribution, hbar: float) -> tuple:
    """Joint built in Fourier space via the sinc kernel on the (K, q) lattice,
    by the half-spectrum route of the module docstring.

    The kernel is evaluated everywhere, including its negative lobes; no
    windowing is applied.  The factors, formed at the call, are the kernel
    G, n by n/2 + 1, and W's ``rfft`` over p, n/2 + 1 by n.  Returns
    ``(blocks, planes)``: each block of rows of R is ``irfft`` over q of
    their product, formed in one reused (B, n/2 + 1, n) complex buffer;
    outside the buffers the work is O(n^2).  ``planes()`` gives the joint's
    planes from the factors alone, taken blocks or not.
    """
    _check_joint_inputs(rho, W)
    g, w = _kernel_half(rho, W.grid_p, hbar), np.fft.rfft(W.values, axis=0)

    def blocks():
        product = np.empty((INVERSE_BLOCK, *w.shape), dtype=complex)
        block = np.empty((INVERSE_BLOCK, W.grid_p.n, W.grid_r.n))
        for rows in _row_blocks(len(g)):
            np.multiply(g[rows, :, None], w, out=product)
            yield np.fft.irfft(product, W.grid_p.n, axis=1, out=block)

    return blocks(), lambda: _spectral_planes(rho, W, g, w)


def _p_face(g: np.ndarray, w: np.ndarray, p: int) -> np.ndarray:
    """The joint's face at row ``p`` of p, from its factors: irfft's output
    ``p`` is its weighted sum over q, so the face is
    ``Re[(g e^(2 pi i p q / n) weights) @ w]``: one real matrix product of
    the folded factor's two parts, (n, n/2 + 1) by (n/2 + 1, n)."""
    n = 2 * (w.shape[0] - 1)
    weights = np.full(n // 2 + 1, 2.0 / n)  # irfft's: the zero and Nyquist bins count once
    weights[[0, -1]] = 1.0 / n
    folded = g * (weights * np.exp(2j * np.pi / n * p * np.arange(n // 2 + 1)))
    return folded.real @ w.real - folded.imag @ w.imag


def _spectral_planes(rho: VirtualDensity, W: WignerDistribution, g: np.ndarray, w: np.ndarray) -> JointPlanes:
    """The :class:`JointPlanes` of the spectral joint F = irfft_q[g w], from
    its factors g, the kernel G (n by n/2 + 1, or an n by 1 column that
    broadcasts over q), and w, W's ``rfft`` over p: each
    reduction is linear in F, so it is one inverse over q of reduced factors,
    ``over_r`` of ``g * sum_r w``, ``over_R`` of ``(sum_R g) * w``, dF/dR at
    R = r of ``(d_R g)^T * w``.  The guard takes two rows, two columns and
    two p faces, each p face one real matrix product (:func:`_p_face`)."""
    n = W.grid_p.n

    def row(R):
        return np.fft.irfft(g[R][:, None] * w, n, axis=0)

    # every plane before the guard's temporaries, which are then freed last
    over_r = np.fft.irfft(g * w.sum(axis=1), n, axis=1)
    over_R = np.fft.irfft(g.sum(axis=0)[:, None] * w, n, axis=0)
    diagonal = np.fft.irfft(derivative_array(g, rho.grid, 0, 1).T * w, n, axis=0)
    faces = chain((np.fft.irfft(g * w[:, r], n, axis=1) for r in (0, -1)), (_p_face(g, w, p) for p in (0, n - 1)))
    over_pr = over_r.sum(axis=1)
    guard = _guard(over_pr, faces, row)
    return JointPlanes(rho.grid, W.grid_p, W.grid_r, over_R, over_pr, over_r, diagonal, *guard, W.decay_tol)


def joint_planes(rho: VirtualDensity, W: WignerDistribution, hbar: float) -> JointPlanes:
    """The spectral joint's :class:`JointPlanes`, with no block of it formed.
    At hbar = 0 the kernel is rho itself (sinc 0 = 1): the product rho W."""
    _check_joint_inputs(rho, W)
    G = rho.values[:, None] if hbar == 0.0 else _kernel_half(rho, W.grid_p, hbar)
    return _spectral_planes(rho, W, G, np.fft.rfft(W.values, axis=0))
