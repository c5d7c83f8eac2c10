"""Test oracles: slower or more general routes to what the package computes.

Each is the route a package function replaced, or the textbook form of
what it evaluates, kept here so that tests compare against it.
"""

import tracemalloc
from collections import deque
from dataclasses import dataclass
from itertools import count

import numpy as np
from numpy.polynomial.polynomial import polyval

from phasekin.cumulants import PHI_RATIO_FLOOR
from phasekin.coupling import (
    _kernel_half,
    _series_factors,
    quantum_joint_spectral,
    sinc_kernel,
    sinc_values,
)
from phasekin.dynamics import PROPAGATION_DECAY_TOL, _energy, _streamed, _streaming_phase, propagate
from phasekin.errors import ImaginaryResidueError
from phasekin.states import JointPlanes, WignerDistribution
from phasekin.grids import (
    DECAY_TOL,
    Grid1D,
    _floored,
    _reshape_for,
    _row_blocks,
    _sup_norm,
    accept_series,
    derivative_array,
    face_sup,
    native_frequencies,
    series_coefficient,
)

# largest imaginary sup norm, relative to the real one, that checked_real passes
IMAG_RESIDUE_TOL = 1e-9


def checked_real(values, what):
    """Real part of a nominally real result, as the package took it before
    every real field went through the real half spectrum.  Raises
    ImaginaryResidueError when the imaginary sup norm exceeds
    IMAG_RESIDUE_TOL of the real one."""
    re_max = float(np.abs(values.real).max())
    im_max = float(np.abs(values.imag).max())
    if im_max > IMAG_RESIDUE_TOL * max(re_max, 1e-300):
        raise ImaginaryResidueError(f"{what} has imaginary residue {im_max:.3e} vs real max {re_max:.3e}")
    return values.real


def frequencies(grid):
    """The grid's angular frequencies in zero-centered order, spaced
    ``pi / half_width``: the frequency axis of :func:`fourier_forward`."""
    return np.pi / grid.half_width * np.arange(-grid.n // 2, grid.n // 2)


def alternating(n):
    """``(-1)^j`` for j < n: the phase exp(+i w_k x_0) of :func:`fourier_forward`
    at the grid's first point x_0 = -half_width, each frequency in
    zero-centered order, and the phase its inverse undoes."""
    return 1.0 - 2.0 * (np.arange(n) % 2)


def fourier_forward(values, grids, axes):
    """Forward transform (``exp(+i w x)``, integral-normalized) along ``axes``,
    over the whole spectrum, complex, with the transformed axes in
    zero-centered frequency order.  An independent full-lattice route that
    tests take to the half lattice (:func:`half_lattice`) to check
    phi_field and the spectral builder against."""
    out = values.astype(complex, copy=True)
    for ax in axes:
        g = grids[ax]
        out = np.fft.fftshift(np.fft.ifft(out, axis=ax), axes=ax) * g.n
        out *= _reshape_for(g.step * alternating(g.n), out.ndim, ax)
    return out


def half_lattice(values):
    """A (K, q) array in zero-centered order on both axes, taken to
    phi_field's real half lattice: every K in the FFT's native order, and
    q >= 0.  The last q bin, +Nyquist, is the zero-centered first, -Nyquist;
    the transform takes one value at both."""
    n = values.shape[1]
    return np.fft.ifftshift(values, axes=(0, 1))[:, : n // 2 + 1]


def fourier_inverse(values, grids, axes):
    """Inverse of ``fourier_forward`` along ``axes``, over the whole
    zero-centered spectrum; complex."""
    out = values.astype(complex, copy=True)
    for ax in axes:
        g = grids[ax]
        out *= _reshape_for(alternating(g.n), out.ndim, ax)
        out = np.fft.fft(np.fft.ifftshift(out, axes=ax), axis=ax)
        out /= g.n * g.step
    return out


def floored_fft(values, axis=0):
    """The full FFT along one axis with every bin below the package's
    spectral floor of the peak zeroed."""
    return _floored(np.fft.fft(values, axis=axis))


def full_derivative_multiplier(grid, order):
    """``(i w)^order`` at the FFT's native frequencies, the whole spectrum,
    the unmatched Nyquist bin zeroed for odd orders."""
    mult = (1j * native_frequencies(grid)) ** order
    if order % 2 == 1:
        mult[grid.n // 2] = 0.0
    return mult


def full_spectrum_derivative_array(values, grid, axis, order):
    """derivative_array as it ran before it took the real half spectrum: the
    full FFT times the full multiplier, and the real part of the inverse."""
    spec = np.fft.fft(values, axis=axis) * _reshape_for(full_derivative_multiplier(grid, order), values.ndim, axis)
    return np.fft.ifft(spec, axis=axis).real


def full_spectrum_kernel_half(rho, grid_p, hbar):
    """The kernel G(R, q) at q >= 0 as _kernel_half formed it before G was
    real: rho's zero-centered transform times the kernel, inverted over the
    whole K spectrum, complex with an imaginary part at rounding."""
    q = np.pi / grid_p.half_width * np.arange(grid_p.n // 2 + 1)
    rho_t = fourier_forward(rho.values, (rho.grid,), (0,))
    return fourier_inverse(rho_t[:, None] * sinc_kernel(frequencies(rho.grid), q, hbar), (rho.grid,), (0,))


def peak_traced_bytes(fn, *args):
    """The tracemalloc peak, in bytes, of one call ``fn(*args)``."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def collect(W0, U, params):
    """``propagate`` with every snapshot it hands over kept, as it returned
    them before it streamed them: ([(t, W), ...] in order, the conserved rows)."""
    snapshots = []
    conserved = propagate(W0, U, params, each_snapshot=lambda t, W: snapshots.append((t, W)))
    return snapshots, conserved


@dataclass(frozen=True)
class WholeJoint:
    """A joint F(R, p, r) held as one n^3 array, for the tests that read it whole."""

    grid_R: Grid1D
    grid_p: Grid1D
    grid_r: Grid1D
    values: np.ndarray
    decay_tol: float = DECAY_TOL


def whole_joint(build, rho, W, *args):
    """The joint whose blocks ``build(rho, W, *args)`` streams, collected into
    one :class:`WholeJoint`; a series that does not converge raises at the call."""
    blocks, _ = build(rho, W, *args)
    values = np.concatenate([block.copy() for block in blocks])
    return WholeJoint(rho.grid, W.grid_p, W.grid_r, values, W.decay_tol)


def streamed_planes(build, rho, W, *args):
    """The planes of the joint ``build(rho, W, *args)`` streams, taken once
    every block has been formed and dropped."""
    blocks, planes = build(rho, W, *args)
    deque(blocks, maxlen=0)
    return planes()


def product_joint(rho, W):
    """The classical joint rho(R) W(p, r), formed whole by numpy's outer product."""
    return WholeJoint(rho.grid, W.grid_p, W.grid_r, np.multiply.outer(rho.values, W.values), W.decay_tol)


def planes_of(F):
    """The JointPlanes of a whole joint, each reduction taken from the whole
    array: the route :func:`phasekin.coupling.joint_planes` replaced.  The
    diagonal is the whole joint contracted with the spectral d/dR matrix,
    which holds no complex n^3 array (:func:`full_derivative_diagonal` does)."""
    v = F.values
    diagonal = np.einsum("rR,Rpr->pr", derivative_array(np.eye(F.grid_R.n), F.grid_R, 0, 1), v)
    return JointPlanes(
        F.grid_R, F.grid_p, F.grid_r, v.sum(axis=0), v.sum(axis=(1, 2)), v.sum(axis=2), diagonal,
        face_sup(v), v.max(), v.min(), F.decay_tol,
    )


def joint_transform(F):
    """The joint's characteristic function: its forward transform on all three axes."""
    return fourier_forward(F.values, (F.grid_R, F.grid_p, F.grid_r), (0, 1, 2))


def potential_at(U, x):
    """U at arbitrary points ``x``.  A density-backed potential uses its
    trigonometric interpolant (2L-periodic), faithful because the density
    vanishes at the boundary; a polynomial one is evaluated by numpy."""
    if U.rho is None:
        return polyval(x, U.coefficients or (0.0,))
    g = U.grid
    hat = np.fft.fft(U.rho.values) / g.n
    # sum_k hat_k exp(i w_k (x - x_0)) at every x
    phase = np.exp(1j * np.multiply.outer(np.asarray(x, dtype=float) - g.points[0], native_frequencies(g)))
    return U.epsilon * (phase @ hat).real


def sample_joint(F, count, seed):
    """(R, p, r) triples drawn from an effectively nonnegative joint.

    Inverse-CDF over the flattened grid with per-cell uniform jitter;
    returns an array of shape (count, 3).
    """
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    if F.values.min() < -1e-9 * F.values.max():
        raise ValueError("a joint with negative lobes cannot be sampled")
    cdf = np.cumsum(np.clip(F.values, 0.0, None).ravel())
    rng = np.random.default_rng(seed)
    picks = np.minimum(np.searchsorted(cdf, rng.random(count) * cdf[-1], side="right"), cdf.size - 1)
    idx = np.unravel_index(picks, F.values.shape)
    jitter = rng.random((count, 3)) - 0.5
    grids = (F.grid_R, F.grid_p, F.grid_r)
    return np.stack([g.points[i] + jitter[:, ax] * g.step for ax, (g, i) in enumerate(zip(grids, idx))], axis=1)


def full_complex_joint(rho, W, hbar):
    """The three-axis route the half-spectrum builder replaced: transform W
    over (p, r), multiply by rho_hat(K) sinc(hbar K q / 2) and invert all
    three axes of the complex n^3 product."""
    grids = (rho.grid, W.grid_p, W.grid_r)
    rho_t = fourier_forward(rho.values, (rho.grid,), (0,))
    w_t = fourier_forward(W.values, (W.grid_p, W.grid_r), (0, 1))
    K = frequencies(rho.grid)
    q = frequencies(W.grid_p)
    kernel = sinc_values(hbar * np.outer(K, q) / 2.0)
    f_t = rho_t[:, None, None] * kernel[:, :, None] * w_t[None, :, :]
    return checked_real(fourier_inverse(f_t, grids, (0, 1, 2)), "spectral joint")


def one_shot_spectral_joint(rho, W, hbar):
    """The spectral joint with its inverse over q taken in one call, as
    quantum_joint_spectral did before it inverted a block of rows of R at
    a time: the whole (n, n/2 + 1, n) complex product of the kernel G and
    W's rfft over p, then one irfft."""
    product = _kernel_half(rho, W.grid_p, hbar)[:, :, None] * np.fft.rfft(W.values, axis=0)[None, :, :]
    return np.fft.irfft(product, W.grid_p.n, axis=1)


def full_derivative_diagonal(F):
    """dF/dR on the diagonal R = r, read off the full n^3 complex
    R-derivative of F, as collision_rhs took it before the diagonal was
    taken from the joint's factors."""
    return np.einsum("iki->ki", derivative_array(F.values, F.grid_R, 0, 1))


def departure_norms(rho, W, hbars):
    """The quadrature L2 norms (sum (F_hbar - F_0)^2 dR dp dr)^(1/2) from
    full joints, which classical_limit_scan takes from O(n^2) spectral sums."""
    base = product_joint(rho, W).values
    volume = rho.grid.step * W.grid_p.step * W.grid_r.step
    return [
        float(np.sqrt(np.sum((whole_joint(quantum_joint_spectral, rho, W, h).values - base) ** 2) * volume))
        for h in hbars
    ]


def kernel_departure_norms(rho, W, hbars):
    """The quadrature L2 norms of classical_limit_scan, as it took them before
    it applied Parseval over K as well: per hbar, the kernel G_hbar(R, q) at
    q >= 0 formed and inverted over K, and its departure from rho summed
    over R, then paired by Parseval over q with W_hat's power."""

    def power(half):
        # sum over axis 1 of |half|^2; of the zero and Nyquist rows only the real parts
        out = np.sum(half.real**2 + half.imag**2, axis=1)
        out[[0, -1]] = np.sum(half[[0, -1]].real ** 2, axis=1)
        return out

    w_power = power(np.fft.rfft(W.values, axis=0))
    w_power[1:-1] *= 2.0
    volume = rho.grid.step * W.grid_p.step * W.grid_r.step / W.grid_p.n
    kernels = (_kernel_half(rho, W.grid_p, h) - rho.values[:, None] for h in hbars)
    return [float(np.sqrt(volume * (power(G.T) @ w_power))) for G in kernels]


def full_weighting_moments(F, orders):
    """Raw moments of a joint, each weighting all n^3 values before one sum,
    as ``moments`` did before it summed out the unindexed axes first."""
    grids = (F.grid_R, F.grid_p, F.grid_r)
    vol = float(np.prod([g.step for g in grids]))
    out = {}
    for key in orders:
        weighted = F.values
        for ax, o in enumerate(key):
            weighted = weighted * _reshape_for(grids[ax].points ** o, 3, ax)
        out[key] = float(weighted.sum() * vol)
    return out


def plane_moments(F, pairs):
    """Raw (a, b) moments <R^a p^b> of a whole joint from its r-summed
    plane, weighted and summed as ``moments`` took them from a whole joint
    before joints streamed."""
    plane = F.values.sum(axis=2)
    vol = F.grid_R.step * F.grid_p.step * F.grid_r.step
    out = {}
    for key in pairs:
        weighted = plane
        for ax, (grid, o) in enumerate(zip((F.grid_R, F.grid_p), key)):
            if o:
                weighted = weighted * _reshape_for(grid.points**o, 2, ax)
        out[key] = float(weighted.sum() * vol)
    return out


def dense_joint_series(rho, W, hbar):
    """The derivative-series joint as it was summed before the builder
    factored it into one matrix product: every term a dense n^3 outer
    product, its sup norm taken over the array, added into the dense base
    in turn.  Truncated by the builder's own rule."""
    base = np.multiply.outer(rho.values, W.values)

    def terms():
        if hbar == 0.0:
            return
        rho_hat = floored_fft(rho.values)
        w_hat = floored_fft(W.values, axis=0)
        mult_R = full_derivative_multiplier(rho.grid, 2)
        mult_p = full_derivative_multiplier(W.grid_p, 2)[:, None]
        for n in count(1):
            rho_hat *= mult_R
            w_hat *= mult_p
            d_rho = np.fft.ifft(rho_hat).real
            d_w = np.fft.ifft(w_hat, axis=0).real
            term = series_coefficient(hbar, n) * np.multiply.outer(d_rho, d_w)
            yield term, _sup_norm(term)

    accepted, verdict = accept_series(terms(), _sup_norm(base), "dense series")
    total = sum(accepted, base)
    verdict(_sup_norm(total))
    return total


def full_spectrum_derivatives(values, grid, first):
    """spectral_derivatives as it ran before it took the real half spectrum:
    the full floored FFT over axis 0, multiplied in place, and the real part
    of each full inverse."""
    spectrum = floored_fft(values, axis=0)
    if first:
        spectrum *= _reshape_for(full_derivative_multiplier(grid, first), values.ndim, 0)
    mult = _reshape_for(full_derivative_multiplier(grid, 2), values.ndim, 0)
    while True:
        spectrum *= mult
        yield np.fft.ifft(spectrum, axis=0).real


def row_by_row_p_face_sup(g, w, p):
    """The sup norm of the spectral joint's face at row ``p`` of p from its
    factors, as joint_planes took it before one real matrix product: irfft's
    weighted sum over q, formed as an (n/2 + 1, n) complex product one row
    of R at a time."""
    n = 2 * (w.shape[0] - 1)
    weights = np.full(n // 2 + 1, 2.0 / n)
    weights[[0, -1]] = 1.0 / n
    folded = g * (weights * np.exp(2j * np.pi / n * p * np.arange(n // 2 + 1)))
    return max(_sup_norm((folded_row[:, None] * w).real.sum(axis=0)) for folded_row in folded)


def whole_product_series(rho, W, hbar):
    """The series joint as one product of its factor matrices, as
    quantum_joint_series formed it before it took the product a block of
    rows of R at a time."""
    factors_R, factors_W, verdict = _series_factors(rho, W, hbar)
    product = factors_R @ factors_W
    verdict(_sup_norm(product))
    return product.reshape(rho.grid.n, W.grid_p.n, W.grid_r.n)


def whole_series_verdict(rho, W, hbar):
    """Raise :class:`NonConvergenceError` where accept_series' verdict on the
    sup norm of the whole series joint does, as quantum_joint_series took it
    after its last block before it took it on its peak row at the call; the
    product is taken a block of rows of R at a time, so no n^3 array is held."""
    factors_R, factors_W, verdict = _series_factors(rho, W, hbar)
    verdict(max(_sup_norm(factors_R[rows] @ factors_W) for rows in _row_blocks(len(factors_R))))


def phi_from_full_transform(F, rho, W, k_index, threshold=1e-6):
    """The generating function read from the 3-axis characteristic function
    and the full denominator, as phi_field computed it before it
    contracted r first."""
    f_t = joint_transform(F)[:, :, k_index]
    rho_t = fourier_forward(rho.values, (rho.grid,), (0,))
    w_t = fourier_forward(W.values, (W.grid_p, W.grid_r), (0, 1))
    denom_full_max = np.abs(rho_t[:, None, None] * w_t[None, :, :]).max()
    denom = rho_t[:, None] * w_t[None, :, k_index]
    mask = np.abs(denom) >= threshold * denom_full_max
    ratio = np.where(mask, f_t / np.where(mask, denom, 1.0), 0.0)
    mask &= ratio.real >= PHI_RATIO_FLOOR
    values = np.full(denom.shape, np.nan)
    values[mask] = np.log(ratio[mask]).real
    return values, mask


def complex_strang_reference(W0, U, params):
    """Reference stepper: six complex FFT passes per step, full spectra,
    with the kick generator from pointwise potential values.

    Returns W after every step (index 0 is W0); the real part is taken
    only on output, so the unpaired Nyquist modes evolve unprojected.
    """
    grid_p, grid_r = W0.grid_p, W0.grid_r
    lam = native_frequencies(grid_p)
    r = grid_r.points
    if params.hbar == 0.0:
        gen = np.multiply.outer(lam, U.derivative_samples(1))
    else:
        shift = params.hbar * lam / 2.0
        plus = potential_at(U, r[None, :] + shift[:, None])
        gen = (plus - potential_at(U, r[None, :] - shift[:, None])) / params.hbar
    kick = np.exp(1j * params.dt * gen)
    k = native_frequencies(grid_r)
    half_stream = np.exp(-1j * np.multiply.outer(grid_p.points, k) * params.dt / (2.0 * params.mass))

    values = W0.values.astype(complex)
    out = [W0.values]
    for _ in range(params.steps):
        values = np.fft.ifft(np.fft.fft(values, axis=1) * half_stream, axis=1)
        values = np.fft.ifft(np.fft.fft(values, axis=0) * kick, axis=0)
        values = np.fft.ifft(np.fft.fft(values, axis=1) * half_stream, axis=1)
        out.append(values.real)
    return out


def _whole_shear(W0, t, mass):
    """exp(-i p k t / m) over the whole (p, k) plane, as one array."""
    return np.exp(-1j * np.multiply.outer(W0.grid_p.points, native_frequencies(W0.grid_r)) * (t / mass))


def _whole_apply(values, phase, axis):
    np.fft.fft(values, axis=axis, out=values)
    values *= phase
    np.fft.ifft(values, axis=axis, out=values)
    return values


def analytic_free_evolution(W0, t, mass):
    """Free streaming for ``t`` by the stepper's own streaming phase, a block
    of rows of p at a time: the periodic shear the stepper applies, which
    tests compare the stepper and the closed form W0(p, r - p t / m) with."""
    spectrum = W0.values.astype(complex)
    np.fft.fft(spectrum, axis=1, out=spectrum)
    sheared = np.empty(W0.values.shape)
    for rows, block in _streamed(spectrum, W0.grid_p, W0.grid_r, t, mass):
        sheared[rows] = block.real
    return WignerDistribution(W0.grid_p, W0.grid_r, sheared)


def whole_array_free_evolution(W0, t, mass):
    """analytic_free_evolution as it was before it streamed a block of rows
    of p at a time: the whole shear phase, applied to the whole array."""
    return _whole_apply(W0.values.astype(complex), _whole_shear(W0, t, mass), 1).real


def whole_array_propagate(W0, U, params):
    """propagate as it ran before it formed its half-streams a block of rows
    of p at a time: the half-stream phase held whole beside the kick and the
    full stream, and each snapshot closed from a copy of the state.  Returns
    what :func:`collect` does: ([(t, W), ...], the conserved rows)."""
    lam = native_frequencies(W0.grid_p)
    if params.hbar > 0.0:
        gen = U.shifted_difference(params.hbar * lam / 2.0) / params.hbar
    else:
        gen = np.multiply.outer(lam, U.derivative_samples(1))
    kick = np.exp(1j * params.dt * gen)
    kicks = (kick != 1.0).any()
    half_stream = _whole_shear(W0, params.dt / 2.0, params.mass)
    full_stream = _whole_shear(W0, params.dt, params.mass)
    u = U.samples()
    snapshots, conserved = [(0.0, W0)], [(0.0, W0.normalization, _energy(W0, u, params.mass))]
    values = _whole_apply(W0.values.astype(complex), half_stream, 1)
    for step in range(1, params.steps + 1):
        if kicks:
            _whole_apply(values, kick, 0)
        if step % params.snapshot_every == 0 or step == params.steps:
            closed = _whole_apply(values.copy(), half_stream, 1).real.copy()
            W = WignerDistribution(W0.grid_p, W0.grid_r, closed, decay_tol=PROPAGATION_DECAY_TOL)
            snapshots.append((step * params.dt, W))
            conserved.append((step * params.dt, W.normalization, _energy(W, u, params.mass)))
        if step < params.steps:
            _whole_apply(values, full_stream, 1)
    return snapshots, conserved


def inplace_propagate(W0, U, params):
    """propagate as it ran before its p-axis passes went through a
    transposing buffer: the kick phase held in the (lam, r) layout and both
    p-axis passes done in place down the columns of the state.  Returns what
    :func:`collect` does: ([(t, W), ...], the conserved rows)."""
    grid_p, grid_r = W0.grid_p, W0.grid_r
    lam = native_frequencies(grid_p)
    kick = np.empty((grid_p.n, grid_r.n), dtype=complex)
    for rows in _row_blocks(grid_p.n):
        if params.hbar > 0.0:
            gen = U.shifted_difference(params.hbar * lam[rows] / 2.0) / params.hbar
        else:
            gen = np.multiply.outer(lam[rows], U.derivative_samples(1))
        np.exp(1j * params.dt * gen, out=kick[rows])
    kicks = (kick != 1.0).any()
    full_stream = np.empty_like(kick)
    _streaming_phase(grid_p.points, native_frequencies(grid_r), params.dt, params.mass, full_stream)
    u = U.samples()
    snapshots, conserved = [(0.0, W0)], [(0.0, W0.normalization, _energy(W0, u, params.mass))]
    values = W0.values.astype(complex)
    np.fft.fft(values, axis=1, out=values)
    for rows, block in _streamed(values, grid_p, grid_r, params.dt / 2.0, params.mass):
        values[rows] = block
    for step in range(1, params.steps + 1):
        if kicks:
            np.fft.fft(values, axis=0, out=values)
            values *= kick
            np.fft.ifft(values, axis=0, out=values)
        np.fft.fft(values, axis=1, out=values)
        if step % params.snapshot_every == 0 or step == params.steps:
            closed = np.empty((grid_p.n, grid_r.n))
            for rows, block in _streamed(values, grid_p, grid_r, params.dt / 2.0, params.mass):
                closed[rows] = block.real
            W = WignerDistribution(grid_p, grid_r, closed, decay_tol=PROPAGATION_DECAY_TOL)
            snapshots.append((step * params.dt, W))
            conserved.append((step * params.dt, W.normalization, _energy(W, u, params.mass)))
        if step < params.steps:
            values *= full_stream
            np.fft.ifft(values, axis=1, out=values)
    return snapshots, conserved
