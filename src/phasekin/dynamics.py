"""Phase-space evolution: transport right-hand sides and the propagator.

Sign conventions, fixed once and machine-checked against the quartic
potential (where the odd-derivative series terminates and is exact):

* classical transport:  dW/dt = -p dW/dr / m + dU/dr dW/dp
* quantum transport adds odd-derivative corrections in powers of
  (hbar/2)^2; in the momentum-spectral domain the whole potential term
  resums to multiplication by
  (i/hbar) [U(r + hbar lam/2) - U(r - hbar lam/2)], lam the FFT-native
  conjugate of p.

The odd-derivative series (:func:`moyal_rhs_series`, the transport
oracle) is summed, like the joint builder's series, by
:func:`phasekin.grids.sum_series`.

A :class:`Potential` is either a polynomial, sum_k c_k r^k, or
epsilon * rho.  The free, harmonic and quartic presets are polynomials,
evaluated and differentiated exactly from their coefficients; the mass
enters only the harmonic one, when it is built.  The shifted difference
U(r + s) - U(r - s) has one evaluator,
:meth:`Potential.shifted_difference`.  A density-backed potential uses
its trigonometric interpolant, for which the difference is
epsilon * n * ifft_k[2i sin(w_k s) U_k]: O(n^2 log n) time and O(n^2)
memory for n shifts on n points.

The time stepper is Strang-split: an exact streaming shear for dt/2, an
exact potential phase kick for dt, and streaming again for dt/2.  The
kick's generator is the shifted difference over hbar, or its classical
limit lam dU/dr at hbar = 0.  Both substeps are unimodular in the
spectral domain, so total probability is conserved to rounding.

The stepper is first-same-as-last: the trailing half-stream of one step
and the leading half-stream of the next are applied as one full-stream
phase, split back into two half-streams only where a snapshot is taken.
That makes four complex FFT passes per step, each done in place.

Nyquist treatment: the state stays complex over the full spectrum, so
the unpaired Nyquist bin of each transform keeps the imaginary part its
phase gives it until a snapshot takes the real part.  Projecting W back
onto real values after every substep (``rfft``/``irfft``, or zeroing
the bin) would halve the FFT work, but it damps that bin instead of
rotating it, and at 64^2 the quartic energy drift then rises from
about 9e-7 to 2.7e-6, past the 1e-6 verification tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count

import numpy as np

from .errors import DecayGuardError
from .grids import (
    Grid1D,
    _sup_norm,
    checked_real,
    derivative_array,
    derivative_multiplier,
    floored_fft,
    native_frequencies,
    require_same_grid,
    series_coefficient,
    sum_series,
)
from .states import JointDistribution, VirtualDensity, WignerDistribution, marginal_over_R

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

    def shifted_difference(self, s) -> np.ndarray:
        """U(r + s) - U(r - s) for every shift s (rows) and grid point r (columns).

        The density form evaluates its interpolant's difference as one
        real inverse transform per shift: (len(s), n) memory, no phase
        matrix over shifts and points.
        """
        s = np.asarray(s, dtype=float)
        r = self.grid.points
        if self.rho is None:
            c = self.coefficients
            return _polynomial(c, r[None, :] + s[:, None]) - _polynomial(c, r[None, :] - s[:, None])
        w = np.pi / self.grid.half_width * np.arange(self.grid.n // 2 + 1)  # rfft's frequencies
        # the Nyquist term's difference is imaginary, so irfft drops it,
        # exactly as the real part of the full interpolant does
        hat = np.fft.rfft(self.rho.values)
        return self.epsilon * np.fft.irfft(2j * np.sin(np.multiply.outer(s, w)) * hat, self.grid.n)

    def derivative_samples(self, order: int) -> np.ndarray:
        """d^order U / dr^order on the grid; exact for a polynomial."""
        if self.rho is None:
            c = self.coefficients
            for _ in range(order):
                c = tuple(k * ck for k, ck in enumerate(c))[1:]
            return _polynomial(c, self.grid.points)
        hat = floored_fft(self.rho.values)
        return self.epsilon * np.fft.ifft(hat * derivative_multiplier(self.grid, order)).real


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


@dataclass
class Trajectory:
    """Snapshots plus a conserved-quantity log along one propagation."""

    snapshots: list = field(default_factory=list)  # (time, WignerDistribution)
    conserved: list = field(default_factory=list)  # (time, total probability, mean energy)

    @property
    def times(self):
        return [t for t, _ in self.snapshots]

    def final(self) -> WignerDistribution:
        return self.snapshots[-1][1]


def _check_rhs_inputs(W: WignerDistribution, U: Potential) -> None:
    require_same_grid(U.grid, W.grid_r, "potential vs Wigner r axis")


def _streaming_term(W: WignerDistribution, mass: float) -> np.ndarray:
    dWdr = derivative_array(W.values, W.grid_r, 1, 1)
    return -W.grid_p.points[:, None] * dWdr / mass


def liouville_rhs(W: WignerDistribution, U: Potential, mass: float) -> np.ndarray:
    """Classical transport right-hand side, spectrally differentiated."""
    _check_rhs_inputs(W, U)
    dWdp = derivative_array(W.values, W.grid_p, 0, 1)
    return _streaming_term(W, mass) + U.derivative_samples(1)[None, :] * dWdp


def _moyal_terms(W: WignerDistribution, U: Potential, hbar: float):
    """The n-th odd-derivative transport term, for n = 1, 2, ..."""
    if hbar == 0.0:
        return  # classical transport is exact
    w_hat = floored_fft(W.values, axis=0) * derivative_multiplier(W.grid_p, 1)[:, None]  # first odd derivative
    mult = derivative_multiplier(W.grid_p, 2)[:, None]
    for n in count(1):
        w_hat *= mult
        dW = np.fft.ifft(w_hat, axis=0).real
        yield series_coefficient(hbar, n) * U.derivative_samples(2 * n + 1)[None, :] * dW


def moyal_rhs_series(W, U: Potential, hbar: float, mass: float) -> np.ndarray:
    """Quantum transport as the truncated odd-derivative series.

    For polynomial potentials the series terminates exactly; for a
    density-backed potential derivatives are spectral, and the floor
    filter and truncation rule are the joint-distribution series' own
    (:func:`phasekin.grids.sum_series`).
    """
    _check_rhs_inputs(W, U)
    base = liouville_rhs(W, U, mass)
    terms = ((term, _sup_norm(term)) for term in _moyal_terms(W, U, hbar))
    return sum_series(terms, _sup_norm(base), lambda accepted: sum(accepted, base), "odd-derivative series")


def moyal_rhs_spectral(W: WignerDistribution, U: Potential, hbar: float, mass: float) -> np.ndarray:
    """Quantum transport via the resummed shifted-potential multiplier."""
    _check_rhs_inputs(W, U)
    if not hbar > 0:
        raise ValueError("moyal_rhs_spectral needs hbar > 0; use liouville_rhs at hbar = 0")
    lam = native_frequencies(W.grid_p)
    du = U.shifted_difference(hbar * lam / 2.0)
    w_hat = np.fft.fft(W.values, axis=0)
    kicked = checked_real(np.fft.ifft((1j / hbar) * du * w_hat, axis=0), "spectral transport term")
    return _streaming_term(W, mass) + kicked


def collision_rhs(F: JointDistribution, epsilon: float, mass: float) -> np.ndarray:
    """Transport right-hand side from the joint via the collision integral.

    The interaction term is the momentum derivative of
    ``epsilon * dF/dR`` sliced exactly on the diagonal R = r.
    """
    dF = derivative_array(F.values, F.grid_R, 0, 1)
    G = epsilon * np.einsum("iki->ki", dF)
    W = marginal_over_R(F)
    dGdp = derivative_array(G, F.grid_p, 0, 1)
    return _streaming_term(W, mass) + dGdp


def _kick_phase(U: Potential, grid_p: Grid1D, params: EvolutionParams) -> np.ndarray:
    lam = native_frequencies(grid_p)
    if params.hbar > 0.0:
        gen = U.shifted_difference(params.hbar * lam / 2.0) / params.hbar
    else:
        gen = np.multiply.outer(lam, U.derivative_samples(1))
    return np.exp(1j * params.dt * gen)


def _shear(grid_p: Grid1D, grid_r: Grid1D, t: float, mass: float) -> np.ndarray:
    """Free-streaming phase exp(-i p k t / m) over the full k spectrum."""
    return np.exp(-1j * np.multiply.outer(grid_p.points, native_frequencies(grid_r)) * (t / mass))


def _apply_phase(values: np.ndarray, phase: np.ndarray, axis: int) -> np.ndarray:
    """Multiply complex ``values`` by ``phase`` in the spectral domain of one axis, in place."""
    np.fft.fft(values, axis=axis, out=values)
    values *= phase
    np.fft.ifft(values, axis=axis, out=values)
    return values


def _energy(W: WignerDistribution, u: np.ndarray, mass: float) -> float:
    """Mean energy of W in the potential sampled on the grid as ``u``."""
    vol = W.grid_p.step * W.grid_r.step
    kinetic = float(((W.grid_p.points**2 / (2.0 * mass))[:, None] * W.values).sum() * vol)
    potential = float((u[None, :] * W.values).sum() * vol)
    return kinetic + potential


def propagate(W0: WignerDistribution, U: Potential, params: EvolutionParams) -> Trajectory:
    """Strang split-step evolution with snapshots and a conservation log."""
    _check_rhs_inputs(W0, U)
    grid_p, grid_r = W0.grid_p, W0.grid_r
    half_stream = _shear(grid_p, grid_r, params.dt / 2.0, params.mass)
    full_stream = _shear(grid_p, grid_r, params.dt, params.mass)
    kick = _kick_phase(U, grid_p, params)
    u = U.samples()

    traj = Trajectory()
    traj.snapshots.append((0.0, W0))
    traj.conserved.append((0.0, W0.normalization, _energy(W0, u, params.mass)))

    # first-same-as-last: the half-streams that close one step and open
    # the next run as one full stream; a snapshot takes its own closing
    # half-stream, so the trajectory does not depend on the cadence
    values = _apply_phase(W0.values.astype(complex), half_stream, 1)
    for step in range(1, params.steps + 1):
        _apply_phase(values, kick, 0)
        if step % params.snapshot_every == 0 or step == params.steps:
            t = step * params.dt
            closed = _apply_phase(values.copy(), half_stream, 1).real.copy()
            try:
                snap = WignerDistribution(grid_p, grid_r, closed, decay_tol=PROPAGATION_DECAY_TOL)
            except DecayGuardError as exc:
                raise DecayGuardError(f"decay guard violated at t = {t}: {exc}") from exc
            traj.snapshots.append((t, snap))
            traj.conserved.append((t, snap.normalization, _energy(snap, u, params.mass)))
        if step < params.steps:
            _apply_phase(values, full_stream, 1)
    return traj


def analytic_free_evolution(W0: WignerDistribution, t: float, mass: float) -> WignerDistribution:
    """Exact free streaming by characteristics via the stepper's shear."""
    shear = _shear(W0.grid_p, W0.grid_r, t, mass)
    sheared = _apply_phase(W0.values.astype(complex), shear, 1).real
    return WignerDistribution(W0.grid_p, W0.grid_r, sheared)
