"""Uniform grids, Fourier transforms, and spectral differentiation.

Transform convention
--------------------
Every transform is numpy's own, with its sign and normalization: no
phase or step factor is applied, and every use pairs ``rfft`` with
``irfft`` or takes a ratio of transforms, so such factors would cancel
anyway.  Angular frequencies are spaced ``pi / half_width``.  A real
array's transform along one axis is Hermitian, so every real field takes
the real half spectrum (``rfft``/``irfft``): its ``n/2 + 1`` bins at
``w >= 0`` (:func:`half_frequencies`); a real plane's 2-axis transform
likewise needs every frequency on one axis but only ``w >= 0`` on the
other (``rfft2``).  Only the time stepper's complex state takes the
whole spectrum on every axis, in the FFT's native order
(:func:`native_frequencies`).  The characteristic-function convention,
``sum_j f(x_j) exp(+i w x_j) * step``, lives only in the tests' oracle.

Derivatives are evaluated in the half spectrum (``rfft``/``irfft``),
where ``d/dx`` is multiplication by ``(i w)``; the result is real.  A real
array's Nyquist bin is real, so for odd orders its product is imaginary,
and ``irfft``, which reads only the real part of that bin, drops it.

The derivative series of the joint builder and of the Moyal transport
share one source of derivatives, :func:`spectral_derivatives`, taken
from one floored real half spectrum (the floor :data:`SPECTRAL_FLOOR_REL`
of its peak) and one truncation rule, :func:`accept_series`.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass, field

import numpy as np

from .errors import DecayGuardError, GridMismatchError, NonConvergenceError

# Boundary magnitude above this fraction of the global max fails the decay
# guard for 1- and 2-axis fields.  Exactly constant fields are exempt: they
# are trivially periodic and carry no aliasing risk.
DECAY_TOL = 1e-10

# Term cap of accept_series, for the joint and the Moyal series alike.  A joint
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
# Rows of R per block of every streamed joint, and of p per block of the
# stepper's half-streams; a grid has at least 16 points.  At n3 = 128 blocks
# of 2 to 8 rows time the spectral inverse over q within noise of each
# other, 4 the fastest; 16 and more are slower.
INVERSE_BLOCK = 4


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid of ``n`` samples ``points`` on ``[-half_width, half_width)``,
    ``step`` apart; its angular frequencies are spaced ``pi / half_width``
    (:func:`half_frequencies`, :func:`native_frequencies`)."""

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
        self.points.setflags(write=False)

    step: float = field(init=False, repr=False, compare=False)
    points: np.ndarray = field(init=False, repr=False, compare=False)


def make_grid(n: int, half_width: float) -> Grid1D:
    """Build a uniform grid; rejects non-power-of-two n and bad widths."""
    return Grid1D(n, half_width)


def face_sup(values: np.ndarray) -> float:
    """Largest magnitude on the boundary faces of a real array."""
    worst = 0.0
    for ax in range(values.ndim):
        for idx in (0, -1):
            sl = [slice(None)] * values.ndim
            sl[ax] = idx
            worst = max(worst, _sup_norm(values[tuple(sl)]))
    return worst


def ensure_decaying(values: np.ndarray, tol: float = DECAY_TOL, what: str = "field") -> None:
    """Raise :class:`DecayGuardError` unless the boundary faces of the real
    array ``values`` are negligible; no full-size temporary is made.

    Constant fields pass: they are exactly periodic.
    """
    require_decay(face_sup(values), values.max(), values.min(), tol, what)


def require_decay(boundary: float, vmax, vmin, tol: float, what: str) -> None:
    """The verdict of :func:`ensure_decaying` from an array's :func:`face_sup`,
    max and min, which a caller may have taken a block at a time."""
    peak = float(np.maximum(vmax, -vmin))
    ratio = boundary / peak if peak != 0.0 else 0.0
    if ratio > tol and float(vmax - vmin) > 1e-14 * peak:
        raise DecayGuardError(
            f"{what} is not decaying: boundary magnitude is {ratio:.3e} of the "
            f"global maximum (allowed {tol:.1e})"
        )


def _reshape_for(vec: np.ndarray, ndim: int, axis: int) -> np.ndarray:
    shape = [1] * ndim
    shape[axis] = vec.size
    return vec.reshape(shape)


def half_frequencies(grid: Grid1D) -> np.ndarray:
    """The ``n/2 + 1`` angular frequencies ``w >= 0`` of the real half spectrum."""
    return 2.0 * np.pi * np.fft.rfftfreq(grid.n, grid.step)


def native_frequencies(grid: Grid1D) -> np.ndarray:
    """Angular frequencies in the FFT's native ordering: of the stepper's
    complex state, and of the generating function's full K axis."""
    return 2.0 * np.pi * np.fft.fftfreq(grid.n, grid.step)


def derivative_multiplier(grid: Grid1D, order: int) -> np.ndarray:
    """``(i w)^order`` at the half-spectrum frequencies, the spectral
    d^order/dx^order of a real array."""
    return (1j * half_frequencies(grid)) ** order


def derivative_array(values: np.ndarray, grid: Grid1D, axis: int, order: int) -> np.ndarray:
    """Spectral derivative of given order along one axis of a real array."""
    spec = np.fft.rfft(values, axis=axis)
    spec *= _reshape_for(derivative_multiplier(grid, order), values.ndim, axis)
    return np.fft.irfft(spec, grid.n, axis=axis)


def _floored(hat: np.ndarray) -> np.ndarray:
    """``hat`` with every bin below SPECTRAL_FLOOR_REL of its peak zeroed, in
    place; for a real array's half spectrum that peak is the full one's."""
    hat[np.abs(hat) < SPECTRAL_FLOOR_REL * np.abs(hat).max()] = 0.0
    return hat


def spectral_derivatives(values: np.ndarray, grid: Grid1D, first: int):
    """``d^m values / dx^m`` along axis 0 of a real array for m = first + 2,
    first + 4, ...: the derivatives that the even joint series (``first``
    0) and the odd Moyal series (``first`` 1) pair with their coefficients.

    They come from the real half spectrum, ``rfft`` over axis 0 with every
    bin below 1e-13 of its peak zeroed (:func:`_floored`), multiplied by
    :func:`derivative_multiplier` in place, and go back by ``irfft``."""
    spectrum = _floored(np.fft.rfft(values, axis=0))
    if first:
        spectrum *= _reshape_for(derivative_multiplier(grid, first), values.ndim, 0)
    mult = _reshape_for(derivative_multiplier(grid, 2), values.ndim, 0)
    while True:
        spectrum *= mult
        yield np.fft.irfft(spectrum, grid.n, axis=0)


def series_coefficient(hbar: float, n: int) -> float:
    """(-1)^n (hbar/2)^(2n) / (2n+1)!, the n-th coefficient of the even
    joint and odd Moyal series.

    Raises :class:`NonConvergenceError` where (hbar/2)^(2n) overflows.
    """
    try:
        return (-1.0) ** n * (hbar / 2.0) ** (2 * n) / math.factorial(2 * n + 1)
    except OverflowError:
        raise NonConvergenceError(f"series coefficient (hbar/2)^{2 * n} overflows at hbar = {hbar!r}") from None


def _row_blocks(n_rows: int):
    """The slice of each INVERSE_BLOCK rows in turn (of R in the joint
    builders, of p in the stepper and its kick phase); every grid's size is
    a multiple of it."""
    for start in range(0, n_rows, INVERSE_BLOCK):
        yield slice(start, start + INVERSE_BLOCK)


def _sup_norm(values: np.ndarray) -> float:
    """max |values| of a real array, without an ``abs`` temporary."""
    return float(np.maximum(values.max(), -values.min()))


def accept_series(terms, scale: float, what: str) -> tuple:
    """The one truncation rule of the derivative series.

    ``terms`` is a generator of ``(term, norm)`` for n = 1, 2, ...,
    ``norm`` the sup norm of the n-th term, and ``scale`` is the sup norm
    of the zeroth term, the base.  Terms are accepted until one falls
    below 1e-12 of ``scale``, at most SERIES_CAP of them.  A term larger
    than the one before stops the series unaccepted, keeping the smaller
    partial sum; terms that run out end it exactly.  The generator is then
    closed.  Returns the accepted terms and the verdict, a function of the
    sup norm of the sum (the base plus the accepted terms, which the
    caller forms), or a lower bound of it: it raises
    :class:`NonConvergenceError` if the series stopped short of 1e-12 and
    its last accepted term still exceeds 1e-8 of that norm.  A term that
    is not finite raises :class:`NonConvergenceError` at once.
    """
    accepted, last_norm = [], 0.0
    with closing(terms):
        for n, (term, norm) in zip(range(1, SERIES_CAP + 1), terms):
            if not math.isfinite(norm):
                raise NonConvergenceError(f"{what} did not converge: term {n} is not finite")
            if n >= 2 and norm > last_norm:
                converged = False
                break
            accepted.append(term)
            last_norm = norm
            if norm <= SERIES_CONVERGED_REL * scale:
                converged = True
                break
        else:
            converged = len(accepted) < SERIES_CAP

    def verdict(total_norm: float) -> None:
        if not converged and last_norm > SERIES_FAIL_REL * total_norm:
            raise NonConvergenceError(
                f"{what} did not converge: last term is "
                f"{last_norm / total_norm:.3e} of the sum after cap/growth stop"
            )

    return accepted, verdict


def require_same_grid(a: Grid1D, b: Grid1D, what: str) -> None:
    if a != b:
        raise GridMismatchError(f"{what}: grids differ ({a} vs {b})")
