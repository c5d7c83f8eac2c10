"""Distribution types, Gaussian presets, marginals, and moments.

The joint distribution couples the force-carrier position R to the real
particle's phase-space point (p, r).  It is never held whole: its
readers take the O(n^2) sums of its blocks (:class:`JointSums`).  R and
r live on one shared grid so the contraction at R = r is an exact
diagonal slice.  Away from the classical limit the joint may carry
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
    _sup_norm,
    derivative_array,
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
    """The O(n^2) reductions of a real joint density F(R, p, r) of virtual
    position and real phase space that its readers need, taken in one pass
    over consecutive blocks of its rows of R, as the joint builders hand
    them over.  No reader needs F whole, and none is formed.

    R and r share one grid.  Add the blocks in order (:meth:`add`), then
    :meth:`finish`, which checks that F integrates to 1.  Each reduction
    equals its whole-array numpy form bit for bit:

    * ``over_R`` is ``F.sum(axis=0)``: the rows are added in order, as numpy does;
    * ``over_pr`` is ``F.sum(axis=(1, 2))`` and ``over_r`` is ``F.sum(axis=2)``,
      the r-summed plane that serves both the (R, p) moments and the k = 0
      slice of the characteristic function;
    * ``total`` is ``F.sum()``: numpy sums an array of power-of-two
      rows pairwise, row sums first, and so are the ``over_pr`` entries;
    * ``vmax``, ``vmin`` and ``boundary`` (the :func:`phasekin.grids.face_sup`)
      give the decay guard, :meth:`ensure_decaying`.

    With ``diagonal_derivative``, ``dR_diagonal`` is also taken: dF/dR at
    R = r, shape (n_p, n_r), the contraction ``einsum("rR,Rpr->pr", d_R,
    F)`` with the spectral d/dR matrix.  Each row of R is weighted by its
    column of d_R and added in order, as numpy's einsum sums them: the
    two agree bit for bit on the verification presets.

    ``decay_tol`` is the guard of the W the joint was built from, which
    its recovered W marginal keeps.
    """

    def __init__(
        self,
        grid_R: Grid1D,
        grid_p: Grid1D,
        grid_r: Grid1D,
        decay_tol: float = DECAY_TOL,
        diagonal_derivative: bool = False,
    ):
        require_same_grid(grid_R, grid_r, "joint distribution R/r axes")
        self.grid_R, self.grid_p, self.grid_r = grid_R, grid_p, grid_r
        self.decay_tol = decay_tol
        self.over_R = None
        self.over_pr = np.empty(grid_R.n)
        self.over_r = np.empty((grid_R.n, grid_p.n))
        self.d_R = derivative_array(np.eye(grid_R.n), grid_R, 0, 1) if diagonal_derivative else None
        self.dR_diagonal = np.zeros((grid_p.n, grid_r.n)) if diagonal_derivative else None
        self.vmax = self.vmin = None
        self.boundary = 0.0
        self.rows = 0
        self.total = None

    def add(self, block: np.ndarray) -> None:
        """Reduce the next ``len(block)`` rows of R."""
        n_R = self.grid_R.n
        rows = slice(self.rows, self.rows + len(block))
        if block.shape[1:] != (self.grid_p.n, self.grid_r.n) or rows.stop > n_R:
            raise ValueError(f"block of shape {block.shape} at row {rows.start} does not fit the joint's grids")
        self.rows = rows.stop
        self.over_pr[rows] = block.sum(axis=(1, 2))
        self.over_r[rows] = block.sum(axis=2)
        if self.d_R is not None:
            for R, row in enumerate(block, rows.start):
                self.dR_diagonal += self.d_R[:, R] * row
        if self.over_R is None:
            self.over_R, block_rest = block[0].copy(), block[1:]
        else:
            block_rest = block
        for row in block_rest:
            self.over_R += row
        vmax, vmin = block.max(), block.min()
        # np.maximum and np.minimum keep a NaN, as the whole-array max and min do
        self.vmax = vmax if self.vmax is None else np.maximum(self.vmax, vmax)
        self.vmin = vmin if self.vmin is None else np.minimum(self.vmin, vmin)
        faces = [block[:, 0], block[:, -1], block[:, :, 0], block[:, :, -1]]
        if rows.start == 0:
            faces.append(block[0])
        if rows.stop == n_R:
            faces.append(block[-1])
        self.boundary = max(self.boundary, *map(_sup_norm, faces))

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

    def ensure_decaying(self, tol: float, what: str) -> None:
        """:func:`phasekin.grids.ensure_decaying` on F, from its sums."""
        require_decay(self.boundary, self.vmax, self.vmin, tol, what)


def marginal_over_R(sums: JointSums) -> WignerDistribution:
    """Integrate out the virtual position; recovers W, under the guard of the
    W that the joint was built from."""
    return WignerDistribution(sums.grid_p, sums.grid_r, sums.over_R * sums.grid_R.step, sums.decay_tol)


def marginal_over_pr(sums: JointSums) -> VirtualDensity:
    """Integrate out the real-particle phase space; recovers the density."""
    return VirtualDensity(sums.grid_R, sums.over_pr * sums.grid_p.step * sums.grid_r.step)


def marginal_residuals(sums: JointSums, rho: VirtualDensity, W: WignerDistribution) -> tuple:
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
    :class:`JointSums`, whose ``over_r`` has r summed out already: a pair
    (a, b) means <R^a p^b>, and no order has more than two entries.  Axes
    that no order tuple indexes are summed out once, before any weighting.
    Total order is capped at 8.
    """
    if isinstance(obj, JointSums):
        obj.ensure_decaying(JOINT_DECAY_TOL, "moment input")
        grids, values = (obj.grid_R, obj.grid_p, obj.grid_r), obj.over_r
    else:
        grids, values, tol = _moment_grids(obj)
        ensure_decaying(values, tol, "moment input")
    vol = float(np.prod([g.step for g in grids]))
    keys = [tuple(order) for order in orders]
    kept = max(map(len, keys), default=values.ndim)
    if kept < values.ndim:
        values = values.sum(axis=tuple(range(kept, values.ndim)))
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
