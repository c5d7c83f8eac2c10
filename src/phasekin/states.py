"""Distribution types, Gaussian presets, marginals, and moments.

The joint distribution couples the force-carrier position R to the real
particle's phase-space point (p, r).  It is never held whole: its
readers take its O(n^2) reductions from the factors it is built from
(:class:`JointPlanes`), and what streams it sums its blocks
(:class:`JointSums`).  R and r live on one shared grid so the
contraction at R = r is an exact diagonal slice.  Away from the classical limit the joint may carry
genuine tails in R of magnitude up to ~1e-10 of its peak; 3-axis decay
checks therefore use a looser guard than the 1e-10 used for 1- and
2-axis fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DecayGuardError, NormalizationError
from .grids import (
    DECAY_TOL,
    Grid1D,
    _reshape_for,
    ensure_decaying,
    require_decay,
    require_same_grid,
)

# Decay guard applied to 3-axis joints: quantum corrections carry physical
# R-tails around 1e-10 of the peak (1e-8 once built from evolved snapshots),
# so the aliasing alarm sits above them.
JOINT_DECAY_TOL = 1e-7

NORMALIZATION_TOL = 1e-8
JOINT_NORMALIZATION_TOL = 1e-7
MAX_MOMENT_ORDER = 8


def _unit_integral(total, grids, tol: float, what: str) -> float:
    """The quadrature integral from the sum of the values, ``total``,
    which must be 1 within ``tol``.

    A NaN or infinite value makes the integral non-finite, so this is
    also the finiteness guard.
    """
    norm = float(total * np.prod([g.step for g in grids]))
    if not abs(norm - 1.0) <= tol:
        raise NormalizationError(f"{what} integrates to {norm!r}, expected 1 within {tol}")
    return norm


@dataclass(frozen=True)
class WignerDistribution:
    """Real quasi-probability W(p, r); may be negative, integrates to one.

    ``decay_tol`` is the boundary guard level; the propagator relaxes it
    for mid-run snapshots, where anharmonic evolution grows physical
    interference tails around 1e-7 of the peak.
    """

    grid_p: Grid1D
    grid_r: Grid1D
    values: np.ndarray
    decay_tol: float = DECAY_TOL

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.shape != (self.grid_p.n, self.grid_r.n):
            raise ValueError(f"W shape {v.shape} does not match grids")
        norm = _unit_integral(v.sum(), (self.grid_p, self.grid_r), NORMALIZATION_TOL, "W")
        object.__setattr__(self, "normalization", norm)
        ensure_decaying(v, self.decay_tol, "Wigner distribution")

    normalization: float = field(init=False, repr=False, compare=False)


@dataclass(frozen=True)
class VirtualDensity:
    """Nonnegative normalized density of the force-carrier position."""

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.shape != (self.grid.n,):
            raise ValueError(f"density shape {v.shape} does not match grid")
        _unit_integral(v.sum(), (self.grid,), NORMALIZATION_TOL, "density")
        if v.min() < -1e-12:
            raise ValueError(f"density has negative values down to {v.min()!r}")
        ensure_decaying(v, DECAY_TOL, "virtual density")


def preset_fits(half_width: float, center: float, sigma: float) -> bool:
    """Whether a Gaussian preset decays inside the box: |center| + 8 sigma <= half_width."""
    return not half_width < abs(center) + 8.0 * sigma


def _check_preset_fits(grid: Grid1D, center: float, sigma: float, name: str) -> None:
    if not sigma > 0:
        raise ValueError(f"{name}: sigma must be positive, got {sigma}")
    if not preset_fits(grid.half_width, center, sigma):
        raise DecayGuardError(
            f"{name}: grid half_width {grid.half_width} cannot hold a Gaussian at "
            f"mean {center} with sigma {sigma} (needs |mean| + 8 sigma)"
        )


def gaussian_density(grid: Grid1D, mean: float, sigma: float) -> VirtualDensity:
    """Normalized Gaussian density preset; quadrature-renormalized."""
    _check_preset_fits(grid, mean, sigma, "gaussian_density")
    v = np.exp(-((grid.points - mean) ** 2) / (2.0 * sigma * sigma))
    v /= v.sum() * grid.step
    return VirtualDensity(grid, v)


def gaussian_wigner(
    grid_p: Grid1D,
    grid_r: Grid1D,
    p0: float,
    r0: float,
    sigma_p: float,
    sigma_r: float,
) -> WignerDistribution:
    """Product-Gaussian phase-space preset centered at (p0, r0).

    With sigma_r * sigma_p = hbar / 2 this is a coherent state.
    """
    _check_preset_fits(grid_p, p0, sigma_p, "gaussian_wigner (p axis)")
    _check_preset_fits(grid_r, r0, sigma_r, "gaussian_wigner (r axis)")
    gp = np.exp(-((grid_p.points - p0) ** 2) / (2.0 * sigma_p * sigma_p))
    gr = np.exp(-((grid_r.points - r0) ** 2) / (2.0 * sigma_r * sigma_r))
    v = np.multiply.outer(gp, gr)
    v /= v.sum() * grid_p.step * grid_r.step
    return WignerDistribution(grid_p, grid_r, v)


class JointSums:
    """The two marginal sums of a real joint density F(R, p, r) of virtual
    position and real phase space, and its normalization, taken over
    consecutive blocks of its rows of R as a builder hands them over: what
    ``joint`` and ``verify``'s builder checks read from the joints they
    stream.  Add the blocks in order (:meth:`add`), then :meth:`finish`,
    which checks that F integrates to 1.  Each sum equals its whole-array
    numpy form bit for bit: ``over_R`` is ``F.sum(axis=0)``, its rows
    added in order, ``over_pr`` is ``F.sum(axis=(1, 2))`` and ``total`` is
    ``F.sum()``, pairwise over the ``over_pr`` entries as numpy sums an
    array of power-of-two rows.  ``decay_tol`` is the guard of the W the
    joint was built from, which its recovered W marginal keeps.
    """

    def __init__(self, grid_R: Grid1D, grid_p: Grid1D, grid_r: Grid1D, decay_tol: float = DECAY_TOL):
        require_same_grid(grid_R, grid_r, "joint distribution R/r axes")
        self.grid_R, self.grid_p, self.grid_r = grid_R, grid_p, grid_r
        self.decay_tol = decay_tol
        self.over_R = None
        self.over_pr = np.empty(grid_R.n)
        self.rows = 0
        self.total = None

    def add(self, block: np.ndarray) -> None:
        """Reduce the next ``len(block)`` rows of R."""
        rows = slice(self.rows, self.rows + len(block))
        if block.shape[1:] != (self.grid_p.n, self.grid_r.n) or rows.stop > self.grid_R.n:
            raise ValueError(f"block of shape {block.shape} at row {rows.start} does not fit the joint's grids")
        self.rows = rows.stop
        self.over_pr[rows] = block.sum(axis=(1, 2))
        if self.over_R is None:
            self.over_R, block_rest = block[0].copy(), block[1:]
        else:
            block_rest = block
        for row in block_rest:
            self.over_R += row

    def finish(self) -> "JointSums":
        """Take the total and check that F integrates to 1; returns self."""
        if self.rows != self.grid_R.n:
            raise ValueError(f"{self.rows} rows of R added, expected {self.grid_R.n}")
        total = self.over_pr
        while len(total) > 1:
            total = total[0::2] + total[1::2]
        self.total = total[0]
        grids = (self.grid_R, self.grid_p, self.grid_r)
        _unit_integral(self.total, grids, JOINT_NORMALIZATION_TOL, "F")
        return self


@dataclass(frozen=True)
class JointPlanes:
    """The O(n^2) reductions of a real joint density F(R, p, r) that its
    readers take (:func:`phasekin.coupling.joint_planes`).  ``over_R`` (p, r),
    ``over_pr`` (R) and ``over_r`` (R, p) sum F over R, over (p, r) and over
    r; ``dR_diagonal`` (p, r) is dF/dR at R = r.  ``boundary`` is F's
    :func:`phasekin.grids.face_sup`; ``vmax`` and ``vmin``, from one row of F,
    bound its extremes from within, so the decay guard (:meth:`ensure_decaying`)
    errs closed.  F must integrate to 1; ``decay_tol`` is as :class:`JointSums`'.
    """

    grid_R: Grid1D
    grid_p: Grid1D
    grid_r: Grid1D
    over_R: np.ndarray
    over_pr: np.ndarray
    over_r: np.ndarray
    dR_diagonal: np.ndarray
    boundary: float
    vmax: float
    vmin: float
    decay_tol: float = DECAY_TOL

    def __post_init__(self) -> None:
        grids = (self.grid_R, self.grid_p, self.grid_r)
        _unit_integral(self.over_pr.sum(), grids, JOINT_NORMALIZATION_TOL, "F")

    def ensure_decaying(self, tol: float, what: str) -> None:
        """:func:`phasekin.grids.ensure_decaying` on F, from its planes."""
        require_decay(self.boundary, self.vmax, self.vmin, tol, what)


def marginal_over_R(sums) -> WignerDistribution:
    """Integrate out the virtual position of a joint, given by its
    :class:`JointSums` or :class:`JointPlanes`; recovers W, under the guard
    of the W that the joint was built from."""
    return WignerDistribution(sums.grid_p, sums.grid_r, sums.over_R * sums.grid_R.step, sums.decay_tol)


def marginal_over_pr(sums) -> VirtualDensity:
    """Integrate out the real-particle phase space of a joint, given as to
    :func:`marginal_over_R`; recovers the density."""
    return VirtualDensity(sums.grid_R, sums.over_pr * sums.grid_p.step * sums.grid_r.step)


def marginal_residuals(sums, rho: VirtualDensity, W: WignerDistribution) -> tuple:
    """Sup-norm gaps of a joint's two marginals from the W and rho it was built from."""
    over_R = float(np.abs(marginal_over_R(sums).values - W.values).max())
    return over_R, float(np.abs(marginal_over_pr(sums).values - rho.values).max())


def _moment_grids(obj):
    if isinstance(obj, VirtualDensity):
        return (obj.grid,), obj.values, DECAY_TOL
    if isinstance(obj, WignerDistribution):
        return (obj.grid_p, obj.grid_r), obj.values, obj.decay_tol
    raise TypeError(f"cannot compute moments of {type(obj).__name__}")


def moments(obj, orders) -> dict:
    """Quadrature raw moments of a distribution, keyed by order tuple.

    Order tuples index the object's leading axes.  A joint is given by its
    :class:`JointPlanes`, whose ``over_r`` has r summed out already: a pair
    (a, b) means <R^a p^b>, and no order has more than two entries.  Total
    order is capped at 8.
    """
    if isinstance(obj, JointPlanes):
        obj.ensure_decaying(JOINT_DECAY_TOL, "moment input")
        grids, values = (obj.grid_R, obj.grid_p, obj.grid_r), obj.over_r
    else:
        grids, values, tol = _moment_grids(obj)
        ensure_decaying(values, tol, "moment input")
    vol = float(np.prod([g.step for g in grids]))
    keys = [tuple(order) for order in orders]
    out = {}
    for key in keys:
        if len(key) > values.ndim:
            raise ValueError(f"order tuple {key} has more entries than axes")
        if any(o < 0 or int(o) != o for o in key):
            raise ValueError(f"orders must be nonnegative integers, got {key}")
        if sum(key) > MAX_MOMENT_ORDER:
            raise ValueError(f"total moment order {sum(key)} exceeds cap {MAX_MOMENT_ORDER}")
        weighted = values
        for ax, o in enumerate(key):
            if o:
                weighted = weighted * _reshape_for(grids[ax].points ** o, values.ndim, ax)
        out[key] = float(weighted.sum() * vol)
    return out
