"""Distribution types, Gaussian presets, marginals, and moments.

The joint distribution couples the force-carrier position R to the real
particle's phase-space point (p, r).  R and r live on one shared grid so
the contraction at R = r is an exact diagonal slice.  Away from the
classical limit the joint may carry genuine tails in R of magnitude up
to ~1e-10 of its peak; 3-axis decay checks therefore use a looser guard
than the 1e-10 used for 1- and 2-axis fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DecayGuardError, NormalizationError
from .grids import DECAY_TOL, Grid1D, ensure_decaying, require_same_grid

# Decay guard applied to 3-axis joints: quantum corrections carry physical
# R-tails around 1e-10 of the peak (1e-8 once built from evolved snapshots),
# so the aliasing alarm sits above them.
JOINT_DECAY_TOL = 1e-7

NORMALIZATION_TOL = 1e-8
JOINT_NORMALIZATION_TOL = 1e-7
MAX_MOMENT_ORDER = 8


def _unit_integral(values: np.ndarray, grids, tol: float, what: str) -> float:
    """The quadrature integral, which must be 1 within ``tol``.

    A NaN or infinite value makes the integral non-finite, so this is
    also the finiteness guard.
    """
    norm = float(values.sum() * np.prod([g.step for g in grids]))
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
        norm = _unit_integral(v, (self.grid_p, self.grid_r), NORMALIZATION_TOL, "W")
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
        _unit_integral(v, (self.grid,), NORMALIZATION_TOL, "density")
        if v.min() < -1e-12:
            raise ValueError(f"density has negative values down to {v.min()!r}")
        ensure_decaying(v, DECAY_TOL, "virtual density")


@dataclass(frozen=True)
class JointDistribution:
    """Real joint density F(R, p, r) of virtual position and real phase space.

    R and r share one grid.  Values may be negative away from the
    classical limit.
    """

    grid_R: Grid1D
    grid_p: Grid1D
    grid_r: Grid1D
    values: np.ndarray

    def __post_init__(self) -> None:
        require_same_grid(self.grid_R, self.grid_r, "joint distribution R/r axes")
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.shape != (self.grid_R.n, self.grid_p.n, self.grid_r.n):
            raise ValueError(f"F shape {v.shape} does not match grids")
        _unit_integral(v, (self.grid_R, self.grid_p, self.grid_r), JOINT_NORMALIZATION_TOL, "F")


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


def marginal_over_R(F: JointDistribution) -> WignerDistribution:
    """Integrate out the virtual position; recovers W."""
    w = F.values.sum(axis=0) * F.grid_R.step
    return WignerDistribution(F.grid_p, F.grid_r, w)


def marginal_over_pr(F: JointDistribution) -> VirtualDensity:
    """Integrate out the real-particle phase space; recovers the density."""
    rho = F.values.sum(axis=(1, 2)) * F.grid_p.step * F.grid_r.step
    return VirtualDensity(F.grid_R, rho)


def marginal_residuals(F: JointDistribution, rho: VirtualDensity, W: WignerDistribution) -> tuple:
    """Sup-norm gaps of F's two marginals from the W and rho it was built from."""
    over_R = float(np.abs(marginal_over_R(F).values - W.values).max())
    return over_R, float(np.abs(marginal_over_pr(F).values - rho.values).max())


def _moment_grids(obj):
    if isinstance(obj, VirtualDensity):
        return (obj.grid,), obj.values, DECAY_TOL
    if isinstance(obj, WignerDistribution):
        return (obj.grid_p, obj.grid_r), obj.values, DECAY_TOL
    if isinstance(obj, JointDistribution):
        return (obj.grid_R, obj.grid_p, obj.grid_r), obj.values, JOINT_DECAY_TOL
    raise TypeError(f"cannot compute moments of {type(obj).__name__}")


def moments(obj, orders) -> dict:
    """Quadrature raw moments of a distribution, keyed by order tuple.

    Order tuples index the object's leading axes; for a joint
    distribution a pair (a, b) means <R^a p^b> with r integrated out.
    Total order is capped at 8.
    """
    grids, values, tol = _moment_grids(obj)
    ensure_decaying(values, tol, "moment input")
    vol = float(np.prod([g.step for g in grids]))
    out = {}
    for order in orders:
        key = tuple(order)
        if len(key) > len(grids):
            raise ValueError(f"order tuple {key} has more entries than axes")
        if any(o < 0 or int(o) != o for o in key):
            raise ValueError(f"orders must be nonnegative integers, got {key}")
        if sum(key) > MAX_MOMENT_ORDER:
            raise ValueError(f"total moment order {sum(key)} exceeds cap {MAX_MOMENT_ORDER}")
        weighted = values
        for ax, o in enumerate(key):
            if o:
                shape = [1] * values.ndim
                shape[ax] = grids[ax].n
                weighted = weighted * (grids[ax].points ** o).reshape(shape)
        out[key] = float(weighted.sum() * vol)
    return out

