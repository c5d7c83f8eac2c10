"""Phase-space evolution: transport right-hand sides and the propagator.

Sign conventions, fixed once and machine-checked against the quartic
potential:

* classical transport:  dW/dt = -p dW/dr / m + dU/dr dW/dp
* quantum transport: in the momentum-spectral domain the potential term
  multiplies by i gen, gen = [U(r + hbar lam/2) - U(r - hbar lam/2)] / hbar,
  lam the conjugate of p.  gen is lam times the force dU/dr averaged over
  a carrier displacement hbar lam xi, xi uniform on [-1/2, 1/2], and at
  hbar = 0 it is lam dU/dr, the classical term.

Outside the stepper every field is real and takes the real half
spectrum (``rfft``/``irfft``, :func:`phasekin.grids.half_frequencies`):
gen is odd in lam, so :func:`moyal_rhs_spectral` evaluates it at the
n/2 + 1 frequencies lam >= 0 only.

A :class:`Potential` is either a polynomial, sum_k c_k r^k, or
epsilon * rho.  The free, harmonic and quartic presets are polynomials,
evaluated and differentiated exactly from their coefficients; the mass
enters only the harmonic one, when it is built.  The force has one
evaluator, :meth:`Potential.averaged_force`, read by the kick, by
:func:`moyal_rhs_spectral` and, at width 0, by :func:`liouville_rhs`.
A polynomial's averaged force is exact at every width and never divides
by hbar.  A density-backed potential uses its trigonometric interpolant,
whose averaged force multiplies each frequency of rho by sinc, the
coupling kernel's: O(n^2 log n) time and O(n^2) memory for n widths on
n points.

The time stepper is Strang-split: an exact streaming shear for dt/2, an
exact potential phase kick for dt, and streaming again for dt/2.  The
kick's generator is gen at every hbar, hbar = 0 included.  Both
substeps are unimodular in the spectral domain, so total probability is
conserved to rounding.

The stepper is first-same-as-last: the trailing half-stream of one step
and the leading half-stream of the next are applied as one full-stream
phase.  That makes four complex FFT passes per step, and two where the
kick phase is exactly 1 (a free potential), whose kick is skipped.  The
two passes over r run in place along the rows of the state.  The two over
p run out of place through a transposing buffer held in the (r, lam)
layout, the kick phase's own: each reads down the columns and writes
contiguous rows, which costs less than writing down the columns.
:func:`propagate` holds four n^2 complex arrays while it steps: the
state, the buffer, the kick phase and the full-stream phase, each
starting on a 64-byte boundary (:func:`_aligned_complex`); it releases
the buffer while it closes a snapshot, and holds neither the buffer nor
the kick phase for a free potential.  A snapshot closes its own
half-stream from the forward transform over r that the next full stream
takes anyway, a block of rows of p at a time, so the trajectory does not
depend on the cadence.  Each snapshot goes to its consumer as it is
taken and is not kept, so memory does not grow with their number;
:func:`propagate` returns only the conservation log.

Nyquist treatment: the state stays complex over the full spectrum, so
the unpaired Nyquist bin of each transform keeps the imaginary part its
phase gives it until a snapshot takes the real part of each closed
block.  Projecting W back onto real values after every substep
(``rfft``/``irfft``, or zeroing the bin) would halve the FFT work, but
it damps that bin instead of rotating it, and at 64^2 the quartic energy
drift then rises from about 9e-7 to 2.7e-6, past the 1e-6 verification
tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coupling import sinc_values
from .errors import DecayGuardError
from .grids import (
    INVERSE_BLOCK,
    Grid1D,
    _row_blocks,
    derivative_array,
    half_frequencies,
    native_frequencies,
    require_same_grid,
)
from .states import VirtualDensity, WignerDistribution

# Snapshot guard during propagation: anharmonic transport grows physical
# interference tails that saturate near 1e-7 of the peak at default
# resolution; real boundary escape shows up at 1e-2 and above.
PROPAGATION_DECAY_TOL = 1e-5


@dataclass(frozen=True)
class Potential:
    """Newtonian potential on a grid: the polynomial sum_k c_k r^k of
    ``coefficients`` (lowest power first), or ``epsilon * rho``."""

    grid: Grid1D
    coefficients: tuple = ()
    epsilon: float = 0.0
    rho: VirtualDensity | None = None

    def __post_init__(self) -> None:
        if self.rho is not None:
            require_same_grid(self.rho.grid, self.grid, "from_density potential")

    def samples(self) -> np.ndarray:
        """U on the grid; the density form's interpolant there is epsilon * rho."""
        if self.rho is not None:
            return self.epsilon * self.rho.values
        return _polynomial(self.coefficients, self.grid.points)

    def averaged_force(self, widths) -> np.ndarray:
        """E[U'(r + a xi)] over xi uniform on [-1/2, 1/2]: the force dU/dr
        averaged over a carrier displacement of width a, for every width a
        (rows) at every grid point r (columns); U' itself at a = 0.

        A polynomial's averages U''s Taylor series term by term with the
        moments E[xi^j] = 2^-j / (j + 1) of even j, which gives
        sum_{j even} (a/2)^j U^(j+1)(r) / (j + 1)!: exact, with no
        cancellation and no division by a.  The density form averages its
        interpolant's derivative, one real inverse transform per width:
        epsilon * irfft[i w sinc(w a / 2) rho_k], the sinc of the coupling
        kernel (:func:`phasekin.coupling.sinc_values`), in (len(a), n) memory.
        """
        a = np.asarray(widths, dtype=float)
        if self.rho is None:
            c, terms = self.coefficients, []
            for j in range(len(c) - 1):
                c = tuple(k * ck for k, ck in enumerate(c))[1:]  # U^(j+1)
                if j % 2 == 0:
                    moment = (a / 2.0) ** j / math.factorial(j + 1)
                    terms.append(np.multiply.outer(moment, _polynomial(c, self.grid.points)))
            return sum(terms[1:], terms[0]) if terms else np.zeros((len(a), self.grid.n))
        w = half_frequencies(self.grid)
        # the Nyquist term's derivative is imaginary, so irfft drops it,
        # exactly as the real part of the full interpolant's does
        kernel = 1j * w * sinc_values(np.multiply.outer(a, w) / 2.0)
        return self.epsilon * np.fft.irfft(kernel * np.fft.rfft(self.rho.values), self.grid.n)


def _polynomial(coefficients: tuple, x: np.ndarray) -> np.ndarray:
    """The sum of c_k x**k over the nonzero c_k, lowest power first."""
    terms = [c * x**k for k, c in enumerate(coefficients) if c]
    return sum(terms[1:], terms[0]) if terms else np.zeros_like(x)


def free_potential(grid: Grid1D) -> Potential:
    return Potential(grid)


def harmonic_potential(grid: Grid1D, omega: float, mass: float = 1.0) -> Potential:
    """m omega^2 r^2 / 2: the one potential that depends on the mass."""
    return Potential(grid, (0.0, 0.0, 0.5 * mass * omega**2))


def quartic_potential(grid: Grid1D, a2: float, a4: float) -> Potential:
    if not a4 > 0:
        raise ValueError("quartic potential needs a4 > 0 for confinement")
    return Potential(grid, (0.0, 0.0, a2, 0.0, a4))


def potential_from_density(rho: VirtualDensity, epsilon: float) -> Potential:
    """Contact-coupling potential: epsilon times the density, shared grid."""
    return Potential(rho.grid, epsilon=epsilon, rho=rho)


@dataclass(frozen=True)
class EvolutionParams:
    mass: float
    hbar: float
    dt: float
    steps: int
    snapshot_every: int = 100

    def __post_init__(self) -> None:
        if not self.mass > 0:
            raise ValueError("mass must be positive")
        if not self.hbar >= 0:
            raise ValueError("hbar must be nonnegative")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")


def _check_rhs_inputs(W: WignerDistribution, U: Potential) -> None:
    require_same_grid(U.grid, W.grid_r, "potential vs Wigner r axis")


def _streaming_term(W: WignerDistribution, mass: float) -> np.ndarray:
    dWdr = derivative_array(W.values, W.grid_r, 1, 1)
    return -W.grid_p.points[:, None] * dWdr / mass


def liouville_rhs(W: WignerDistribution, U: Potential, mass: float) -> np.ndarray:
    """Classical transport right-hand side, spectrally differentiated."""
    _check_rhs_inputs(W, U)
    dWdp = derivative_array(W.values, W.grid_p, 0, 1)
    return _streaming_term(W, mass) + U.averaged_force((0.0,)) * dWdp


def moyal_rhs_spectral(W: WignerDistribution, U: Potential, hbar: float, mass: float) -> np.ndarray:
    """The package's one quantum transport, at any hbar >= 0.

    In the spectral domain over p its potential term multiplies by
    i gen, with gen = [U(r + hbar lam/2) - U(r - hbar lam/2)] / hbar
    = lam U.averaged_force(hbar lam): lam times the classical force
    averaged over a uniform carrier displacement hbar lam xi, and
    lam dU/dr at hbar = 0, where this is :func:`liouville_rhs`.  gen is odd
    in lam, so the multiplier is Hermitian: on W's real half spectrum over
    p it takes the n/2 + 1 frequencies lam >= 0, and ``irfft`` returns a
    real term.  Its product at the real Nyquist bin is imaginary, so
    ``irfft`` drops it, as it does an odd derivative's."""
    _check_rhs_inputs(W, U)
    lam = half_frequencies(W.grid_p)
    gen = lam[:, None] * U.averaged_force(hbar * lam)
    kicked = np.fft.irfft(1j * gen * np.fft.rfft(W.values, axis=0), W.grid_p.n, axis=0)
    return _streaming_term(W, mass) + kicked


def collision_rhs(W: WignerDistribution, dR_diagonal: np.ndarray, epsilon: float, mass: float) -> np.ndarray:
    """Transport right-hand side from the joint via the collision integral:
    the momentum derivative of ``epsilon * dF/dR`` on the diagonal R = r,
    ``dR_diagonal`` (a :class:`JointPlanes` holds the spectral joint's), plus
    the streaming term of F's W marginal ``W`` (:func:`marginal_over_R`)."""
    dGdp = derivative_array(epsilon * dR_diagonal, W.grid_p, 0, 1)
    return _streaming_term(W, mass) + dGdp


def _aligned_complex(shape: tuple) -> np.ndarray:
    """An uninitialized complex array whose data starts on a 64-byte
    boundary: 64 bytes over-allocated, and sliced from the first aligned one."""
    size = math.prod(shape) * np.dtype(complex).itemsize
    raw = np.empty(size + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start : start + size].view(complex).reshape(shape)


def _kick_phase(U: Potential, grid_p: Grid1D, params: EvolutionParams) -> np.ndarray:
    """exp(i dt gen) for the kick's generator gen = lam U.averaged_force(hbar lam)
    at every hbar, in the (r, lam) layout of the stepper's transposing buffer:
    a block of frequencies at a time, written down its columns, with no n^2
    temporary and no transposing copy."""
    lam = native_frequencies(grid_p)
    kick = _aligned_complex((U.grid.n, grid_p.n))
    for rows in _row_blocks(grid_p.n):
        gen = lam[rows, None] * U.averaged_force(params.hbar * lam[rows])
        np.exp(1j * params.dt * gen, out=kick[:, rows].T)
    return kick


def _streaming_phase(p: np.ndarray, k: np.ndarray, t: float, mass: float, out: np.ndarray) -> np.ndarray:
    """Free-streaming phase exp(-i p k t / m) over the full k spectrum, formed in ``out``."""
    np.multiply.outer(p, k, out=out)
    np.multiply(-1j, out, out=out)
    np.multiply(out, t / mass, out=out)
    return np.exp(out, out=out)


def _streamed(spectrum: np.ndarray, grid_p: Grid1D, grid_r: Grid1D, t: float, mass: float):
    """``(rows, block)`` for each block of rows of p: those rows of the
    r-spectrum ``spectrum`` streamed for ``t`` and inverted over r, formed in
    one buffer that the next block overwrites."""
    k = native_frequencies(grid_r)
    buffer = np.empty((INVERSE_BLOCK, grid_r.n), dtype=complex)
    for rows in _row_blocks(grid_p.n):
        _streaming_phase(grid_p.points[rows], k, t, mass, buffer)
        np.multiply(spectrum[rows], buffer, out=buffer)
        yield rows, np.fft.ifft(buffer, axis=1, out=buffer)


def _energy(W: WignerDistribution, u: np.ndarray, mass: float) -> float:
    """Mean energy of W in the potential sampled on the grid as ``u``."""
    vol = W.grid_p.step * W.grid_r.step
    kinetic = float(((W.grid_p.points**2 / (2.0 * mass))[:, None] * W.values).sum() * vol)
    potential = float((u[None, :] * W.values).sum() * vol)
    return kinetic + potential


def propagate(W0: WignerDistribution, U: Potential, params: EvolutionParams, *, each_snapshot) -> list:
    """Strang split-step evolution.  Each snapshot, W0 first, goes to
    ``each_snapshot(t, W)`` as soon as it is taken and is not kept; returns
    the conservation log, one (t, total probability, mean energy) row per snapshot.

    The state is held in the (p, r) layout.  The kick's two passes over p
    go out of place through one transposing buffer, ``other``, held in the
    (r, lam) layout of the kick phase; the second writes the full stream's
    forward transform over r back into the state."""
    _check_rhs_inputs(W0, U)
    grid_p, grid_r = W0.grid_p, W0.grid_r
    kick = _kick_phase(U, grid_p, params)
    if all((row == 1.0).all() for row in kick):  # row by row: no n^2 temporary
        kick = None  # exactly 1, a free potential's: a step only streams
    full_stream = _aligned_complex((grid_p.n, grid_r.n))
    _streaming_phase(grid_p.points, native_frequencies(grid_r), params.dt, params.mass, full_stream)
    u = U.samples()
    conserved = []

    def take(t: float, snap: WignerDistribution) -> None:
        each_snapshot(t, snap)
        conserved.append((t, snap.normalization, _energy(snap, u, params.mass)))

    take(0.0, W0)
    values = _aligned_complex(W0.values.shape)
    values[...] = W0.values
    del W0  # the caller's to keep: from here on only the state is held
    np.fft.fft(values, axis=1, out=values)
    for rows, block in _streamed(values, grid_p, grid_r, params.dt / 2.0, params.mass):
        values[rows] = block
    other = None
    for step in range(1, params.steps + 1):
        if kick is None:
            np.fft.fft(values, axis=1, out=values)
        else:
            if other is None:
                other = _aligned_complex(kick.shape)
            np.fft.fft(values.T, axis=1, out=other)
            other *= kick
            np.fft.ifft(other, axis=1, out=other)
            np.fft.fft(other.T, axis=1, out=values)
        # values holds the full stream's forward transform over r, which a snapshot closes from
        if step % params.snapshot_every == 0 or step == params.steps:
            other = None  # released while the snapshot is closed
            t = step * params.dt
            closed = np.empty((grid_p.n, grid_r.n))
            for rows, block in _streamed(values, grid_p, grid_r, params.dt / 2.0, params.mass):
                closed[rows] = block.real
            try:
                snap = WignerDistribution(grid_p, grid_r, closed, decay_tol=PROPAGATION_DECAY_TOL)
            except DecayGuardError as exc:
                raise DecayGuardError(f"decay guard violated at t = {t}: {exc}") from exc
            take(t, snap)
            del closed, snap  # handed over: none is kept into the next step
        if step < params.steps:
            values *= full_stream
            np.fft.ifft(values, axis=1, out=values)
    return conserved
