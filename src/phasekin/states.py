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
from .grids import (
    DECAY_TOL,
    Grid1D,
    _reshape_for,
    _sup_norm,
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


@dataclass(frozen=True)
class JointDistribution:
    """Real joint density F(R, p, r) of virtual position and real phase space.

    R and r share one grid.  Values may be negative away from the
    classical limit.  ``decay_tol`` is the guard of the W it was built
    from, which its recovered W marginal keeps.
    """

    grid_R: Grid1D
    grid_p: Grid1D
    grid_r: Grid1D
    values: np.ndarray
    decay_tol: float = DECAY_TOL

    def __post_init__(self) -> None:
        require_same_grid(self.grid_R, self.grid_r, "joint distribution R/r axes")
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.shape != (self.grid_R.n, self.grid_p.n, self.grid_r.n):
            raise ValueError(f"F shape {v.shape} does not match grids")
        _unit_integral(v.sum(), (self.grid_R, self.grid_p, self.grid_r), JOINT_NORMALIZATION_TOL, "F")


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
    """The O(n^2) reductions of a joint F(R, p, r) that its readers need,
    taken in one pass over consecutive blocks of its rows of R.

    Add the blocks in order (:meth:`add`), then :meth:`finish`, which checks the normalization
    as :class:`JointDistribution` does.  Each reduction equals its
    whole-array numpy form bit for bit:

    * ``over_R`` is ``F.sum(axis=0)``: the rows are added in order, as numpy does;
    * ``over_pr`` is ``F.sum(axis=(1, 2))`` and ``over_r`` is ``F.sum(axis=2)``;
    * ``contracted`` is ``F @ contract``, when a ``contract`` matrix over r is given;
    * ``total`` is ``F.sum()``: numpy sums an array of power-of-two
      rows pairwise, row sums first, and so are the ``over_pr`` entries;
    * ``vmax``, ``vmin`` and ``boundary`` (the :func:`phasekin.grids.face_sup`)
      give the decay guard, :meth:`ensure_decaying`.

    ``decay_tol`` is the guard of the W the joint was built from, as on
    :class:`JointDistribution`.
    """

    def __init__(self, grid_R: Grid1D, grid_p: Grid1D, grid_r: Grid1D, contract=None, decay_tol: float = DECAY_TOL):
        require_same_grid(grid_R, grid_r, "joint distribution R/r axes")
        self.grid_R, self.grid_p, self.grid_r = grid_R, grid_p, grid_r
        self.contract, self.decay_tol = contract, decay_tol
        self.over_R = None
        self.over_pr = np.empty(grid_R.n)
        self.over_r = np.empty((grid_R.n, grid_p.n))
        self.contracted = None if contract is None else np.empty((grid_R.n, grid_p.n, contract.shape[1]))
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
        if self.contract is not None:
            self.contracted[rows] = block @ self.contract
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


def joint_sums(F: JointDistribution | JointSums, contract: np.ndarray | None = None) -> JointSums:
    """The :class:`JointSums` of a joint, reduced as one block; a
    :class:`JointSums` is returned as it is, and must then have been
    contracted with ``contract`` if one is given."""
    if isinstance(F, JointSums):
        if contract is not None and (F.contract is None or not np.array_equal(F.contract, contract)):
            raise ValueError("joint sums were taken without the contraction asked for")
        return F
    sums = JointSums(F.grid_R, F.grid_p, F.grid_r, contract, F.decay_tol)
    sums.add(F.values)
    return sums.finish()


def marginal_over_R(F: JointDistribution | JointSums) -> WignerDistribution:
    """Integrate out the virtual position; recovers W, under the guard of the
    W that F was built from.  ``F`` is a joint or its sums."""
    sums = joint_sums(F)
    return WignerDistribution(sums.grid_p, sums.grid_r, sums.over_R * sums.grid_R.step, sums.decay_tol)


def marginal_over_pr(F: JointDistribution | JointSums) -> VirtualDensity:
    """Integrate out the real-particle phase space; recovers the density.
    ``F`` is a joint or its sums."""
    sums = joint_sums(F)
    return VirtualDensity(sums.grid_R, sums.over_pr * sums.grid_p.step * sums.grid_r.step)


def marginal_residuals(F: JointDistribution | JointSums, rho: VirtualDensity, W: WignerDistribution) -> tuple:
    """Sup-norm gaps of F's two marginals from the W and rho it was built
    from; ``F`` is a joint or its sums."""
    sums = joint_sums(F)
    over_R = float(np.abs(marginal_over_R(sums).values - W.values).max())
    return over_R, float(np.abs(marginal_over_pr(sums).values - rho.values).max())


def _moment_grids(obj):
    if isinstance(obj, VirtualDensity):
        return (obj.grid,), obj.values, DECAY_TOL
    if isinstance(obj, WignerDistribution):
        return (obj.grid_p, obj.grid_r), obj.values, obj.decay_tol
    if isinstance(obj, JointDistribution):
        return (obj.grid_R, obj.grid_p, obj.grid_r), obj.values, JOINT_DECAY_TOL
    raise TypeError(f"cannot compute moments of {type(obj).__name__}")


def moments(obj, orders) -> dict:
    """Quadrature raw moments of a distribution, keyed by order tuple.

    Order tuples index the object's leading axes; for a joint
    distribution a pair (a, b) means <R^a p^b> with r integrated out.
    Axes that no order tuple indexes are summed out once, before any
    weighting, so a joint's pairs cost one n^3 pass and the rest is
    O(n^2).  A :class:`JointSums` is the joint with r summed out already,
    so its orders are pairs at most.  Total order is capped at 8.
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
