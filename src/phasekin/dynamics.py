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

The shifted difference U(r + s) - U(r - s) has one evaluator,
:meth:`Potential.shifted_difference`.  Analytic presets use their closed
forms; a density-backed potential uses its trigonometric interpolant,
for which the difference is epsilon * n * ifft_k[2i sin(w_k s) U_k]:
O(n^2 log n) time and O(n^2) memory for n shifts on n points.

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
    Field,
    Grid1D,
    _sup_norm,
    checked_real,
    derivative_array,
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

POTENTIAL_KINDS = ("free", "harmonic", "quartic", "from_density")


def _half_frequencies(grid: Grid1D) -> np.ndarray:
    """Non-negative angular frequencies of ``rfft`` along one axis."""
    return np.pi / grid.half_width * np.arange(grid.n // 2 + 1)


@dataclass(frozen=True)
class Potential:
    """Newtonian potential on a grid: an analytic preset or a scaled density."""

    kind: str
    grid: Grid1D
    omega: float = 0.0
    a2: float = 0.0
    a4: float = 0.0
    epsilon: float = 0.0
    rho: VirtualDensity | None = None

    def __post_init__(self) -> None:
        if self.kind not in POTENTIAL_KINDS:
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.kind == "quartic" and not self.a4 > 0:
            raise ValueError("quartic potential needs a4 > 0 for confinement")
        if self.kind == "from_density":
            if self.rho is None:
                raise ValueError("from_density potential needs a density")
            require_same_grid(self.rho.grid, self.grid, "from_density potential")

    def samples(self, mass: float = 1.0) -> np.ndarray:
        """U on the grid; the density form's interpolant there is epsilon * rho."""
        if self.kind == "from_density":
            return self.epsilon * self.rho.values
        return self.samples_at(self.grid.points, mass)

    def samples_at(self, x, mass: float = 1.0) -> np.ndarray:
        """U of an analytic preset at arbitrary points; presets extend
        naturally beyond the box."""
        x = np.asarray(x, dtype=float)
        if self.kind == "free":
            return np.zeros_like(x)
        if self.kind == "harmonic":
            return 0.5 * mass * self.omega**2 * x**2
        if self.kind == "quartic":
            return self.a2 * x**2 + self.a4 * x**4
        raise ValueError("samples_at serves the analytic kinds; use samples() or shifted_difference()")

    def shifted_difference(self, s, mass: float = 1.0) -> np.ndarray:
        """U(r + s) - U(r - s) for every shift s (rows) and grid point r (columns).

        The density form evaluates its interpolant's difference as one
        real inverse transform per shift: (len(s), n) memory, no phase
        matrix over shifts and points.
        """
        s = np.asarray(s, dtype=float)
        r = self.grid.points
        if self.kind != "from_density":
            return self.samples_at(r[None, :] + s[:, None], mass) - self.samples_at(
                r[None, :] - s[:, None], mass
            )
        w = _half_frequencies(self.grid)
        # the Nyquist term's difference is imaginary, so irfft drops it,
        # exactly as the real part of the full interpolant does
        hat = np.fft.rfft(self.rho.values)
        return self.epsilon * np.fft.irfft(2j * np.sin(np.multiply.outer(s, w)) * hat, self.grid.n)

    def derivative_samples(self, order: int, mass: float = 1.0) -> np.ndarray:
        """d^order U / dr^order on the grid; analytic where possible."""
        x = self.grid.points
        if self.kind == "free":
            return np.zeros_like(x)
        if self.kind == "harmonic":
            c = mass * self.omega**2
            return {1: c * x, 2: np.full_like(x, c)}.get(order, np.zeros_like(x))
        if self.kind == "quartic":
            if order == 1:
                return 2 * self.a2 * x + 4 * self.a4 * x**3
            if order == 2:
                return 2 * self.a2 + 12 * self.a4 * x**2
            if order == 3:
                return 24 * self.a4 * x
            if order == 4:
                return np.full_like(x, 24 * self.a4)
            return np.zeros_like(x)
        hat = floored_fft(self.rho.values)
        w = native_frequencies(self.grid)
        mult = (1j * w) ** order
        if order % 2 == 1:
            mult[self.grid.n // 2] = 0.0
        return self.epsilon * np.fft.ifft(hat * mult).real


def free_potential(grid: Grid1D) -> Potential:
    return Potential("free", grid)


def harmonic_potential(grid: Grid1D, omega: float) -> Potential:
    return Potential("harmonic", grid, omega=omega)


def quartic_potential(grid: Grid1D, a2: float, a4: float) -> Potential:
    return Potential("quartic", grid, a2=a2, a4=a4)


def potential_from_density(rho: VirtualDensity, epsilon: float) -> Potential:
    """Contact-coupling potential: epsilon times the density, shared grid."""
    return Potential("from_density", rho.grid, epsilon=epsilon, rho=rho)


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
        if self.hbar < 0:
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


def liouville_rhs(W: WignerDistribution, U: Potential, mass: float) -> Field:
    """Classical transport right-hand side, spectrally differentiated."""
    _check_rhs_inputs(W, U)
    dWdp = derivative_array(W.values, W.grid_p, 0, 1)
    rhs = _streaming_term(W, mass) + U.derivative_samples(1, mass)[None, :] * dWdp
    return Field((W.grid_p, W.grid_r), rhs)


def _moyal_terms(W: WignerDistribution, U: Potential, hbar: float, mass: float):
    """The n-th odd-derivative transport term, for n = 1, 2, ..."""
    if hbar == 0.0:
        return  # classical transport is exact
    lam = native_frequencies(W.grid_p)
    odd = 1j * lam
    odd[W.grid_p.n // 2] = 0.0
    w_hat = floored_fft(W.values, axis=0) * odd[:, None]  # first odd derivative accumulator
    mult = ((1j * lam) ** 2)[:, None]
    for n in count(1):
        w_hat *= mult
        dW = np.fft.ifft(w_hat, axis=0).real
        yield series_coefficient(hbar, n) * U.derivative_samples(2 * n + 1, mass)[None, :] * dW


def moyal_rhs_series(W, U: Potential, hbar: float, mass: float) -> Field:
    """Quantum transport as the truncated odd-derivative series.

    For polynomial potentials the series terminates exactly; for a
    density-backed potential derivatives are spectral, and the floor
    filter and truncation rule are the joint-distribution series' own
    (:func:`phasekin.grids.sum_series`).
    """
    _check_rhs_inputs(W, U)
    base = liouville_rhs(W, U, mass).values
    terms = ((term, _sup_norm(term)) for term in _moyal_terms(W, U, hbar, mass))
    total = sum_series(terms, _sup_norm(base), lambda accepted: sum(accepted, base), "odd-derivative series")
    return Field((W.grid_p, W.grid_r), total)


def moyal_rhs_spectral(W: WignerDistribution, U: Potential, hbar: float, mass: float) -> Field:
    """Quantum transport via the resummed shifted-potential multiplier."""
    _check_rhs_inputs(W, U)
    if not hbar > 0:
        raise ValueError("moyal_rhs_spectral needs hbar > 0; use liouville_rhs at hbar = 0")
    lam = native_frequencies(W.grid_p)
    du = U.shifted_difference(hbar * lam / 2.0, mass)
    w_hat = np.fft.fft(W.values, axis=0)
    kicked = checked_real(np.fft.ifft((1j / hbar) * du * w_hat, axis=0), "spectral transport term")
    return Field((W.grid_p, W.grid_r), _streaming_term(W, mass) + kicked)


def collision_rhs(F: JointDistribution, epsilon: float, mass: float) -> Field:
    """Transport right-hand side from the joint via the collision integral.

    The interaction term is the momentum derivative of
    ``epsilon * dF/dR`` sliced exactly on the diagonal R = r.
    """
    dF = derivative_array(F.values, F.grid_R, 0, 1)
    G = epsilon * np.einsum("iki->ki", dF)
    W = marginal_over_R(F)
    dGdp = derivative_array(G, F.grid_p, 0, 1)
    return Field((F.grid_p, F.grid_r), _streaming_term(W, mass) + dGdp)


def _kick_phase(U: Potential, grid_p: Grid1D, params: EvolutionParams) -> np.ndarray:
    lam = native_frequencies(grid_p)
    if params.hbar > 0.0:
        gen = U.shifted_difference(params.hbar * lam / 2.0, params.mass) / params.hbar
    else:
        gen = np.multiply.outer(lam, U.derivative_samples(1, params.mass))
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
    u = U.samples(params.mass)

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
