"""Uniform grids, Fourier transforms, and spectral differentiation.

Transform convention
--------------------
The forward transform uses the characteristic-function sign and an
integral normalization::

    F(w) = sum_j f(x_j) exp(+i w x_j) * step

so the value at zero frequency equals the quadrature integral of ``f``.
The inverse carries the ``1/(2 pi)`` per axis.  Frequencies are stored
zero-centered with spacing ``pi / half_width``; the mapping to the FFT's
native ordering is internal.  A real array's transform along one axis is
Hermitian, ``F(-w) = conj F(w)``, so :func:`half_spectrum_forward` keeps
only its ``n/2 + 1`` bins at ``w >= 0`` and :func:`half_spectrum_inverse`
returns the real array from them; both follow the same convention.

Derivatives are evaluated in the FFT-native spectral domain, where
``d/dx`` is multiplication by ``(i w)``; on real input the result is
real (the unmatched Nyquist mode is dropped for odd orders).

The derivative series of the joint builder and of the Moyal transport
share one truncation rule, :func:`sum_series`, and one spectral floor,
:func:`floored_fft`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DecayGuardError, GridMismatchError, ImaginaryResidueError, NonConvergenceError

# Boundary magnitude above this fraction of the global max fails the decay
# guard for 1- and 2-axis fields.  Exactly constant fields are exempt: they
# are trivially periodic and carry no aliasing risk.
DECAY_TOL = 1e-10

# Term cap of sum_series, for the joint and the Moyal series alike.  A joint
# term costs O(n^2), so the cap is set by the window, not by cost: inside
# hbar < 2 sigma_R sigma_p the joint series converges in at most 54 terms on
# the verification grids (README), and (2n + 1)! stays in float range up to
# n = 84.
SERIES_CAP = 64
SERIES_CONVERGED_REL = 1e-12
SERIES_FAIL_REL = 1e-8
# below this fraction of the peak, box-truncation noise would pass for
# high-order structure once a series amplifies it
SPECTRAL_FLOOR_REL = 1e-13
IMAG_RESIDUE_TOL = 1e-9


def checked_real(values: np.ndarray, what: str) -> np.ndarray:
    """Real part of a nominally real result.

    Raises :class:`ImaginaryResidueError` when the imaginary sup norm
    exceeds IMAG_RESIDUE_TOL of the real one.
    """
    re_max = float(np.abs(values.real).max())
    im_max = float(np.abs(values.imag).max())
    if im_max > IMAG_RESIDUE_TOL * max(re_max, 1e-300):
        raise ImaginaryResidueError(
            f"{what} has imaginary residue {im_max:.3e} vs real max {re_max:.3e}; "
            "aliasing or a broken kernel"
        )
    return values.real


def checked_hermitian(values: np.ndarray, axis: int, what: str) -> np.ndarray:
    """``values`` sampled at frequencies symmetric about zero along ``axis``,
    checked for ``values(-w) = conj values(w)``.

    That symmetry is what a real inverse transform along ``axis`` assumes.
    Raises :class:`ImaginaryResidueError` when the largest departure
    exceeds IMAG_RESIDUE_TOL of the sup norm.
    """
    residue = float(np.abs(values - np.conj(np.flip(values, axis))).max())
    scale = float(np.abs(values).max())
    if residue > IMAG_RESIDUE_TOL * max(scale, 1e-300):
        raise ImaginaryResidueError(
            f"{what} is not Hermitian: residue {residue:.3e} vs max {scale:.3e}; "
            "aliasing or a broken kernel"
        )
    return values


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid of ``n`` samples on ``[-half_width, half_width)``, with
    its zero-centered angular ``frequencies``, spaced ``pi / half_width``."""

    n: int
    half_width: float

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)) or self.n < 16 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"grid size must be a power of two >= 16, got {self.n}")
        if not self.half_width > 0:
            raise ValueError(f"half_width must be positive, got {self.half_width}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "half_width", float(self.half_width))
        step = 2.0 * self.half_width / self.n
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "points", -self.half_width + step * np.arange(self.n))
        object.__setattr__(self, "frequencies", np.pi / self.half_width * np.arange(-self.n // 2, self.n // 2))
        self.points.setflags(write=False)
        self.frequencies.setflags(write=False)

    step: float = field(init=False, repr=False, compare=False)
    points: np.ndarray = field(init=False, repr=False, compare=False)
    frequencies: np.ndarray = field(init=False, repr=False, compare=False)


def make_grid(n: int, half_width: float) -> Grid1D:
    """Build a uniform grid; rejects non-power-of-two n and bad widths."""
    return Grid1D(n, half_width)


def boundary_ratio(values: np.ndarray) -> float:
    """Largest boundary-face magnitude of a real array over its global max magnitude."""
    gmax = _sup_norm(values)
    if gmax == 0.0:
        return 0.0
    worst = 0.0
    for ax in range(values.ndim):
        for idx in (0, -1):
            sl = [slice(None)] * values.ndim
            sl[ax] = idx
            worst = max(worst, _sup_norm(values[tuple(sl)]))
    return worst / gmax


def ensure_decaying(values: np.ndarray, tol: float = DECAY_TOL, what: str = "field") -> None:
    """Raise :class:`DecayGuardError` unless the boundary faces of the real
    array ``values`` are negligible; no full-size temporary is made.

    Constant fields pass: they are exactly periodic.
    """
    ratio = boundary_ratio(values)
    if ratio > tol and float(np.ptp(values)) > 1e-14 * _sup_norm(values):
        raise DecayGuardError(
            f"{what} is not decaying: boundary magnitude is {ratio:.3e} of the "
            f"global maximum (allowed {tol:.1e})"
        )


def _alternating(n: int) -> np.ndarray:
    alt = np.ones(n)
    alt[1::2] = -1.0
    return alt


def _reshape_for(vec: np.ndarray, ndim: int, axis: int) -> np.ndarray:
    shape = [1] * ndim
    shape[axis] = vec.size
    return vec.reshape(shape)


def fourier_forward(values: np.ndarray, grids, axes) -> np.ndarray:
    """Forward transform (``exp(+i w x)``, integral-normalized) along ``axes``.

    Output is complex with the transformed axes in zero-centered
    frequency order.
    """
    out = values.astype(complex, copy=True)
    for ax in axes:
        g = grids[ax]
        out = np.fft.fftshift(np.fft.ifft(out, axis=ax), axes=ax) * g.n
        out *= _reshape_for(g.step * _alternating(g.n), out.ndim, ax)
    return out


def fourier_inverse(values: np.ndarray, grids, axes) -> np.ndarray:
    """Inverse of :func:`fourier_forward` along ``axes``."""
    out = values.astype(complex, copy=True)
    for ax in axes:
        g = grids[ax]
        out *= _reshape_for(_alternating(g.n), out.ndim, ax)
        out = np.fft.fft(np.fft.ifftshift(out, axes=ax), axis=ax)
        out /= g.n * g.step
    return out


def half_spectrum_forward(values: np.ndarray, grid: Grid1D, axis: int = 0) -> np.ndarray:
    """:func:`fourier_forward` of a real array along one axis, at ``w >= 0`` only.

    The output has ``n/2 + 1`` bins along ``axis``: zero frequency first,
    the Nyquist frequency ``n/2 * pi / half_width`` last.
    """
    out = np.fft.ihfft(values, axis=axis, norm="forward")
    out *= _reshape_for(grid.step * _alternating(grid.n // 2 + 1), out.ndim, axis)
    return out


def half_spectrum_inverse(values: np.ndarray, grid: Grid1D, axis: int = 0) -> np.ndarray:
    """The real array whose :func:`half_spectrum_forward` is ``values``.

    Bins at ``w < 0`` are taken as the conjugates of those at ``w > 0``;
    the imaginary parts of the zero and Nyquist bins are dropped.
    ``values`` is the work array and is overwritten.
    """
    scale = _reshape_for(_alternating(grid.n // 2 + 1) / grid.step, values.ndim, axis)
    values.real *= scale
    values.imag *= -scale
    return np.fft.irfft(values, grid.n, axis=axis)


def native_frequencies(grid: Grid1D) -> np.ndarray:
    """Angular frequencies in the FFT's native ordering."""
    return 2.0 * np.pi * np.fft.fftfreq(grid.n, grid.step)


def derivative_multiplier(grid: Grid1D, order: int) -> np.ndarray:
    """``(i w)^order`` at the native frequencies, the spectral d^order/dx^order."""
    mult = (1j * native_frequencies(grid)) ** order
    if order % 2 == 1:
        mult[grid.n // 2] = 0.0  # unmatched Nyquist mode has no real odd derivative
    return mult


def derivative_array(values: np.ndarray, grid: Grid1D, axis: int, order: int) -> np.ndarray:
    """Spectral derivative of given order along one axis of a plain array."""
    spec = np.fft.fft(values, axis=axis) * _reshape_for(derivative_multiplier(grid, order), values.ndim, axis)
    out = np.fft.ifft(spec, axis=axis)
    return out.real if np.isrealobj(values) else out


def floored_fft(values: np.ndarray, axis: int = 0) -> np.ndarray:
    """FFT along one axis with every bin below 1e-13 of the peak zeroed."""
    hat = np.fft.fft(values, axis=axis)
    hat[np.abs(hat) < SPECTRAL_FLOOR_REL * np.abs(hat).max()] = 0.0
    return hat


def series_coefficient(hbar: float, n: int) -> float:
    """(-1)^n (hbar/2)^(2n) / (2n+1)!, the n-th coefficient of the even
    joint and odd Moyal series.

    Raises :class:`NonConvergenceError` where (hbar/2)^(2n) overflows.
    """
    try:
        return (-1.0) ** n * (hbar / 2.0) ** (2 * n) / math.factorial(2 * n + 1)
    except OverflowError:
        raise NonConvergenceError(f"series coefficient (hbar/2)^{2 * n} overflows at hbar = {hbar!r}") from None


def _sup_norm(values: np.ndarray) -> float:
    """max |values| of a real array, without an ``abs`` temporary."""
    return float(np.maximum(values.max(), -values.min()))


def sum_series(terms, scale: float, assemble, what: str):
    """The one truncation rule of the derivative series.

    ``terms`` is a generator of ``(term, norm)`` for n = 1, 2, ...,
    ``norm`` the sup norm of the n-th term, and ``scale`` is the sup norm
    of the zeroth term, the base.  Terms are accepted until one falls
    below 1e-12 of ``scale``, at most SERIES_CAP of them.  A term larger than
    the one before stops the series unaccepted, keeping the smaller
    partial sum; terms that run out end it exactly.  The generator is
    then closed, and ``assemble(accepted)`` returns the base plus the
    accepted terms, handed over in a list it may empty.
    :class:`NonConvergenceError` is raised if a term is not finite, or
    if the series stopped short of 1e-12 and its last accepted term
    still exceeds 1e-8 of the assembled sum.
    """
    accepted, last_norm, converged = _accept_terms(terms, scale, what)
    terms.close()
    total = assemble(accepted)
    if not converged and last_norm > SERIES_FAIL_REL * _sup_norm(total):
        raise NonConvergenceError(
            f"{what} did not converge: last term is "
            f"{last_norm / _sup_norm(total):.3e} of the sum after cap/growth stop"
        )
    return total


def _accept_terms(terms, scale: float, what: str) -> tuple:
    """(accepted terms, last accepted norm, converged) under :func:`sum_series`' rule."""
    accepted, last_norm = [], 0.0
    for n, (term, norm) in zip(range(1, SERIES_CAP + 1), terms):
        if not math.isfinite(norm):
            raise NonConvergenceError(f"{what} did not converge: term {n} is not finite")
        if n >= 2 and norm > last_norm:
            return accepted, last_norm, False
        accepted.append(term)
        last_norm = norm
        if norm <= SERIES_CONVERGED_REL * scale:
            return accepted, last_norm, True
    return accepted, last_norm, len(accepted) < SERIES_CAP


def require_same_grid(a: Grid1D, b: Grid1D, what: str) -> None:
    if a != b:
        raise GridMismatchError(f"{what}: grids differ ({a} vs {b})")
