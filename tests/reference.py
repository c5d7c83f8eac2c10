"""Test oracles: slower or more general routes to what the package computes.

Each is the route a package function replaced, or the textbook form of
what it evaluates, kept here so that tests compare against it.
"""

import tracemalloc
from dataclasses import dataclass
from itertools import count

import numpy as np
from numpy.polynomial.polynomial import polyval

from phasekin.cumulants import PHI_RATIO_FLOOR
from phasekin.coupling import (
    _kernel_half,
    _series_factors,
    quantum_joint_spectral,
    sinc_values,
)
from phasekin.dynamics import PROPAGATION_DECAY_TOL, _energy, propagate
from phasekin.states import JointPlanes, JointSums, WignerDistribution
from phasekin.grids import (
    DECAY_TOL,
    Grid1D,
    _alternating,
    _reshape_for,
    _sup_norm,
    accept_series,
    checked_real,
    derivative_array,
    face_sup,
    floored_fft,
    fourier_forward,
    fourier_inverse,
    half_spectrum_forward,
    native_frequencies,
    series_coefficient,
)


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
    """The joint that ``build(rho, W, *args, each_block)`` streams, its
    blocks collected into one :class:`WholeJoint`."""
    blocks = []
    build(rho, W, *args, lambda block: blocks.append(block.copy()))
    return WholeJoint(rho.grid, W.grid_p, W.grid_r, np.concatenate(blocks), W.decay_tol)


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


def streamed_sums(build, rho, W, *args):
    """The finished JointSums of the joint that ``build(rho, W, *args,
    each_block)`` streams, taken block by block as the builder hands them over."""
    sums = JointSums(rho, W)
    build(rho, W, *args, sums.add)
    return sums.finish()


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
    K = rho.grid.frequencies
    q = W.grid_p.frequencies
    kernel = sinc_values(hbar * np.outer(K, q) / 2.0)
    f_t = rho_t[:, None, None] * kernel[:, :, None] * w_t[None, :, :]
    return checked_real(fourier_inverse(f_t, grids, (0, 1, 2)), "spectral joint")


def half_spectrum_inverse(values, grid, axis=0):
    """The real array whose ``half_spectrum_forward`` is ``values``, as the
    spectral joint inverted its product before it folded the scale into G:
    bins at w < 0 are the conjugates of those at w > 0, and the imaginary
    parts of the zero and Nyquist bins are dropped."""
    scale = _reshape_for(_alternating(grid.n // 2 + 1) / grid.step, values.ndim, axis)
    return np.fft.irfft(np.conj(values) * scale, grid.n, axis=axis)


def one_shot_spectral_joint(rho, W, hbar):
    """The spectral joint with its inverse over q taken in one call, as
    quantum_joint_spectral did before it inverted a block of rows of R at
    a time: the whole (n, n/2 + 1, n) complex product, then one irfft."""
    G_half = _kernel_half(rho, W.grid_p, hbar)
    w_half = half_spectrum_forward(W.values, W.grid_p)
    scale = _alternating(W.grid_p.n // 2 + 1) / W.grid_p.step
    product = np.conj(G_half * scale)[:, :, None] * np.conj(w_half)[None, :, :]
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
        mult_R = (1j * native_frequencies(rho.grid)) ** 2
        mult_p = ((1j * native_frequencies(W.grid_p)) ** 2)[:, None]
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


def whole_product_series(rho, W, hbar):
    """The series joint as one product of its factor matrices, as
    quantum_joint_series formed it before it took the product a block of
    rows of R at a time."""
    factors_R, factors_W, verdict = _series_factors(rho, W, hbar)
    product = factors_R @ factors_W
    verdict(_sup_norm(product))
    return product.reshape(rho.grid.n, W.grid_p.n, W.grid_r.n)


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
