"""Joint-distribution builders and the sinc coupling kernel.

Two independent constructions of the same object:

* a derivative series pairing even derivatives of the density with even
  momentum derivatives of the phase-space distribution, and
* a spectral product in which the transformed joint factorizes as
  ``rho_hat(K) * sinc(hbar K q / 2) * W_hat(q, k)``.

Each is the other's test oracle.  The series pairs the even derivatives
of :func:`phasekin.grids.spectral_derivatives` and is truncated by the
shared rule, :func:`phasekin.grids.accept_series`.  Its terms are outer
products, so it is kept factored, (n, N + 1) density factors times
(N + 1, n^2) W factors, and formed by one matrix product; a term costs
O(n^2), and the series runs to convergence across hbar < 2 sigma_R sigma_p.

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
is formed and inverted a few rows of R at a time.

Each builder forms the joint a block of INVERSE_BLOCK rows of R at a
time, writes every block into one reused buffer and hands it to its
``each_block`` callable before the next block overwrites it, so no n^3
array is formed.  Whoever needs the joint writes it or reduces it block
by block (:class:`phasekin.states.JointSums`); its readers take what they
need from the spectral joint's two factors (:func:`joint_planes`).
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .grids import (
    Grid1D,
    _alternating,
    _sup_norm,
    accept_series,
    checked_hermitian,
    derivative_array,
    fourier_forward,
    fourier_inverse,
    half_spectrum_forward,
    series_coefficient,
    spectral_derivatives,
)
from .states import JointPlanes, VirtualDensity, WignerDistribution, _check_joint_inputs

KERNEL_SWITCH = 1e-4
# Rows of R per block of every streamed joint, and of p per block of the
# stepper's half-streams.  At n3 = 128 blocks of 2 to 8 rows time the
# spectral inverse over q within noise of each other, 4 the fastest; 16 and
# more are slower.
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


def _block_buffer(rho: VirtualDensity, W: WignerDistribution) -> np.ndarray:
    """A buffer of one block of INVERSE_BLOCK rows of R, reused block after block."""
    return np.empty((min(INVERSE_BLOCK, rho.grid.n), W.grid_p.n, W.grid_r.n))


def _row_blocks(n_rows: int, buffer: np.ndarray):
    """``(rows, block)`` for each INVERSE_BLOCK rows in turn (of R here, of p
    in the stepper); ``block`` is the first rows of ``buffer``, which the
    next block overwrites."""
    for start in range(0, n_rows, INVERSE_BLOCK):
        rows = slice(start, min(start + INVERSE_BLOCK, n_rows))
        yield rows, buffer[: rows.stop - start]


def _joint_terms(rho: VirtualDensity, W: WignerDistribution, hbar: float):
    """The n-th term of the joint series by its density factor, for n = 1, 2, ...

    Yields ``(c_n d^2n rho / dR^2n, norm)``.  The term is the outer
    product of that factor and ``d^2n W / dp^2n``, so its sup norm is the
    product of theirs; the W factor is not kept.
    """
    if hbar == 0.0:
        return  # the classical product is exact
    pairs = zip(spectral_derivatives(rho.values, rho.grid, 0), spectral_derivatives(W.values, W.grid_p, 0))
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
    for row, d_w in zip(factors_W[1:], spectral_derivatives(W.values, W.grid_p, 0)):
        row[...] = d_w
    return factors_R, factors_W.reshape(len(factors_W), -1), verdict


def _series_blocks(rho: VirtualDensity, W: WignerDistribution, hbar: float) -> tuple:
    """The series joint's blocks ``A[rows] @ B``, as a generator written into
    one reused buffer, and a function giving its dF/dR at R = r,
    ``sum_j (d_R A)[r, j] B[j, p, r]``.  The factors are formed at the call;
    the verdict, which needs the sum's sup norm, comes after the last block."""
    factors_R, factors_W, verdict = _series_factors(rho, W, hbar)
    buffer = _block_buffer(rho, W)

    def diagonal():
        planes = factors_W.reshape(len(factors_W), W.grid_p.n, W.grid_r.n)
        return sum(column * plane for column, plane in zip(derivative_array(factors_R, rho.grid, 0, 1).T, planes))

    def blocks():
        sup = 0.0
        for rows, block in _row_blocks(len(factors_R), buffer):
            np.matmul(factors_R[rows], factors_W, out=block.reshape(len(block), -1))
            sup = np.maximum(sup, _sup_norm(block))  # np.maximum keeps a NaN
            yield block
        verdict(float(sup))

    return blocks(), diagonal


def quantum_joint_series(rho: VirtualDensity, W: WignerDistribution, hbar: float, each_block) -> None:
    """Joint built from the even-derivative series; real term by term.

    The factors are formed first and the product a block of rows of R at
    a time, each block handed to ``each_block``.  Whether the truncated
    series converged depends on the sup norm of the whole sum, so
    :class:`NonConvergenceError` comes after the last block.  At hbar = 0
    the series has no terms, so each block is a product with one inner
    term: the classical joint rho(R) W(p, r), exactly.

    On Gaussian presets the series converges inside the whole window
    hbar < 2 sigma_R sigma_p, that is hbar^2 / (4 sigma_R^2 sigma_p^2) < 1:
    measured at sigma_R = hbar = 1, n3 = 32 to 256 and half_width 8 or 12,
    ratios up to 0.99 take at most 54 terms (SERIES_CAP is 64) and
    agree with :func:`quantum_joint_spectral` within 4.4e-14.  Outside it
    :class:`NonConvergenceError` is raised where the terms grow (hbar = 2
    on the coherent preset) or overflow; on coarse grids the floored
    spectra can still end the series a little past ratio 1.
    """
    for block in _series_blocks(rho, W, hbar)[0]:
        each_block(block)


def sinc_kernel(K: np.ndarray, q: np.ndarray, hbar: float) -> np.ndarray:
    """The coupling kernel sinc(hbar K q / 2) on the (K, q) lattice."""
    return sinc_values(hbar * np.outer(K, q) / 2.0)


def _kernel_half(rho: VirtualDensity, grid_p: Grid1D, hbar: float) -> np.ndarray:
    """``G(R, q)`` at its n/2 + 1 bins ``q >= 0``, checked Hermitian in q."""
    n_q = grid_p.n
    q = np.pi / grid_p.half_width * np.arange(-(n_q // 2), n_q // 2 + 1)  # symmetric, both Nyquist bins
    rho_t = fourier_forward(rho.values, (rho.grid,), (0,))
    G = fourier_inverse(rho_t[:, None] * sinc_kernel(rho.grid.frequencies, q, hbar), (rho.grid,), (0,))
    return checked_hermitian(G, 1, "spectral joint kernel G(R, q)")[:, n_q // 2 :]


def _spectral_factors(G: np.ndarray, W: WignerDistribution) -> tuple:
    """``(g, w)``: the spectral joint's two factors, F = irfft_q[g(R, q) w(q, r)],
    from the kernel's ``q >= 0`` half ``G``; ``g`` is ``conj(G * alt / step)``,
    n by n/2 + 1, and ``w`` is ``conj(W_hat)``, n/2 + 1 by n."""
    grid = W.grid_p
    g = np.conj(G * (_alternating(grid.n // 2 + 1) / grid.step))
    return g, np.conj(half_spectrum_forward(W.values, grid))


def quantum_joint_spectral(rho: VirtualDensity, W: WignerDistribution, hbar: float, each_block) -> None:
    """Joint built in Fourier space via the sinc kernel on the (K, q) lattice,
    by the half-spectrum route of the module docstring.

    The kernel is evaluated everywhere, including its negative lobes; no
    windowing is applied.  Each block of rows of R is ``irfft`` over q of
    the factors' product (:func:`_spectral_factors`), formed in one reused
    (B, n/2 + 1, n) complex buffer, and handed to ``each_block``; outside
    the buffers the work is O(n^2).
    :class:`ImaginaryResidueError` if ``G(R, q)`` is not Hermitian in q
    (a complex kernel, say).
    """
    _check_joint_inputs(rho, W)
    g, w = _spectral_factors(_kernel_half(rho, W.grid_p, hbar), W)
    product = np.empty((min(INVERSE_BLOCK, len(g)), *w.shape), dtype=complex)
    for rows, block in _row_blocks(len(g), _block_buffer(rho, W)):
        product_rows = np.multiply(g[rows, :, None], w, out=product[: len(block)])
        each_block(np.fft.irfft(product_rows, W.grid_p.n, axis=1, out=block))


def _p_face_sup(g: np.ndarray, w: np.ndarray, p: int) -> float:
    """The sup norm of the joint's face at row ``p`` of p, from its factors.

    irfft's output ``p`` is its weighted sum over q, so the face is
    ``Re[(g e^(2 pi i p q / n) weights) @ w]``: one real matrix product of
    the folded factor's two parts, (n, n/2 + 1) by (n/2 + 1, n)."""
    n = 2 * (w.shape[0] - 1)
    weights = np.full(n // 2 + 1, 2.0 / n)  # irfft's: the zero and Nyquist bins count once
    weights[[0, -1]] = 1.0 / n
    folded = g * (weights * np.exp(2j * np.pi / n * p * np.arange(n // 2 + 1)))
    return _sup_norm(folded.real @ w.real - folded.imag @ w.imag)


def joint_planes(rho: VirtualDensity, W: WignerDistribution, hbar: float) -> JointPlanes:
    """The spectral joint's :class:`JointPlanes`, from its two factors alone.

    Each reduction is linear in F = irfft_q[g w], so it is one inverse over q
    of reduced factors: ``over_r`` of ``g * sum_r w``, ``over_R`` of
    ``(sum_R g) * w``, dF/dR at R = r of ``(d_R g)^T * w``.  The guard takes
    two rows, two columns and two p faces, each p face one real matrix
    product (:func:`_p_face_sup`); the extremes are the row of largest
    ``over_pr``'s.  The products map BLAS, as the series builder's product
    does, which `verify` runs before its configured pass.  Peak RSS at
    n3 = 128 (VmHWM, fresh processes, against the row-by-row complex
    products these replaced): `cumulants` alone 37.54-37.76 MiB against
    37.46-37.74 in 4 pairs, `joint` then `cumulants` in one process
    37.96-37.98 MiB on both sides of 12 pairs.
    At hbar = 0 the kernel is rho itself (sinc 0 = 1): the product rho W."""
    _check_joint_inputs(rho, W)
    n = W.grid_p.n
    G = rho.values[:, None] if hbar == 0.0 else _kernel_half(rho, W.grid_p, hbar)
    g, w = _spectral_factors(G, W)

    def row(R):
        return np.fft.irfft(g[R][:, None] * w, n, axis=0)

    # every plane before the guard's temporaries, which are then freed last
    over_r = np.fft.irfft(g * w.sum(axis=1), n, axis=1)
    over_pr = over_r.sum(axis=1)
    over_R = np.fft.irfft(g.sum(axis=0)[:, None] * w, n, axis=0)
    diagonal = np.fft.irfft(derivative_array(g, rho.grid, 0, 1).T * w, n, axis=0)
    faces = chain(map(row, (0, -1)), (np.fft.irfft(g * w[:, r], n, axis=1) for r in (0, -1)))
    boundary = max(*map(_sup_norm, faces), _p_face_sup(g, w, 0), _p_face_sup(g, w, n - 1))  # one face held at a time
    peak = row(max(range(len(over_pr)), key=over_pr.__getitem__))  # np.argmax would map code pages no command else maps
    planes = (over_R, over_pr, over_r, diagonal, boundary, float(peak.max()), float(peak.min()))
    return JointPlanes(rho.grid, W.grid_p, W.grid_r, *planes, W.decay_tol)
