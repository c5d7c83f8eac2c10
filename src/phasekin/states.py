"""Distribution types, Gaussian presets, marginals, and moments.

The joint distribution couples the force-carrier position R to the real
particle's phase-space point (p, r).  It is never held whole: its
readers take its O(n^2) reductions, which both builders take from their
factors (:class:`JointPlanes`).  R and r live on one shared grid so the
contraction at R = r is an exact diagonal slice (:func:`_check_joint_inputs`).
Away from the classical limit the joint may carry genuine tails in R of
magnitude up to ~1e-10 of its peak; 3-axis decay checks therefore use a
looser guard than the 1e-10 used for 1- and 2-axis fields.
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


def _check_joint_inputs(rho: VirtualDensity, W: WignerDistribution) -> None:
    """The joint's R axis, rho's grid, must be W's r grid."""
    require_same_grid(rho.grid, W.grid_r, "joint (R vs r axis)")


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


@dataclass(frozen=True)
class JointPlanes:
    """The O(n^2) reductions of a real joint density F(R, p, r) that each
    builder gives and its readers take (:func:`phasekin.coupling.joint_planes`).
    ``over_R`` (p, r), ``over_pr`` (R) and ``over_r`` (R, p) sum F over R,
    over (p, r) and over r; ``dR_diagonal`` (p, r) is dF/dR at R = r.
    ``boundary`` is F's :func:`phasekin.grids.face_sup`; ``vmax`` and
    ``vmin``, from one row of F, bound its extremes from within, so the decay
    guard (:meth:`ensure_decaying`) errs closed.  F must integrate to 1;
    ``decay_tol`` is W's guard, which the recovered W marginal keeps.
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


def marginal_over_R(planes: JointPlanes) -> WignerDistribution:
    """Integrate out the virtual position of a joint, given by its planes;
    recovers W, under the guard of the W that the joint was built from."""
    return WignerDistribution(planes.grid_p, planes.grid_r, planes.over_R * planes.grid_R.step, planes.decay_tol)


def marginal_over_pr(planes: JointPlanes) -> VirtualDensity:
    """Integrate out the real-particle phase space of a joint's planes; recovers the density."""
    return VirtualDensity(planes.grid_R, planes.over_pr * planes.grid_p.step * planes.grid_r.step)


def marginal_residuals(planes: JointPlanes, rho: VirtualDensity, W: WignerDistribution) -> tuple:
    """Sup-norm gaps of a joint's two marginals from the W and rho it was built from."""
    over_R = float(np.abs(marginal_over_R(planes).values - W.values).max())
    return over_R, float(np.abs(marginal_over_pr(planes).values - rho.values).max())


def moments(obj, orders) -> dict:
    """Quadrature raw moments of a distribution, keyed by order tuple.

    Order tuples index the object's leading axes.  A joint is given by its
    :class:`JointPlanes`, whose ``over_r`` has r summed out already: a pair
    (a, b) means <R^a p^b>, and no order has more than two entries.  Total
    order is capped at 8.  A density or W passed its decay guard when it
    was formed; a joint's planes are guarded here.
    """
    if isinstance(obj, JointPlanes):
        obj.ensure_decaying(JOINT_DECAY_TOL, "moment input")
        grids, values = (obj.grid_R, obj.grid_p, obj.grid_r), obj.over_r
    elif isinstance(obj, VirtualDensity):
        grids, values = (obj.grid,), obj.values
    elif isinstance(obj, WignerDistribution):
        grids, values = (obj.grid_p, obj.grid_r), obj.values
    else:
        raise TypeError(f"cannot compute moments of {type(obj).__name__}")
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
