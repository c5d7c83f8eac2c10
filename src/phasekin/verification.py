"""The one-shot verification suite.

Every check pins its tolerance here.  The joint builder's derivative
series converges across ``hbar < 2 sigma_R sigma_p``, that is
``hbar^2 / (4 sigma_R^2 sigma_p^2) < 1`` (at most 54 terms up to 0.99 on
the verification grids).  The equivalence checks carry per-hbar preset
widths with that ratio near 1/3, where the joint series converges well
inside the 64-term cap of :func:`phasekin.grids.accept_series`, and a
wider box for hbar = 2, because a Gaussian needs ``half_width >= 8 sigma``
to satisfy the decay guard; the identities under test are covariant
under that joint rescaling of hbar and the widths, so nothing is lost.
Collision transport is checked against the resummed Moyal transport,
:func:`phasekin.dynamics.moyal_rhs_spectral`.  The checks read a joint's
planes; the builder gap and the classical reduction read its blocks.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from itertools import chain, repeat

import numpy as np

from .config import ScenarioConfig, check_run_time
from .coupling import joint_planes, quantum_joint_series, quantum_joint_spectral
from .cumulants import (
    CLASSICAL_SCAN_FRACTIONS,
    kappa22_closed_form_oracle,
    classical_limit_scan,
    cumulant_pass,
    heisenberg_check,
    kappa22,
    phi_field,
    phi_gap,
)
from .dynamics import (
    EvolutionParams,
    collision_rhs,
    free_potential,
    harmonic_potential,
    liouville_rhs,
    moyal_rhs_spectral,
    potential_from_density,
    propagate,
    quartic_potential,
)
from .errors import PhasekinError
from .grids import make_grid
from .serialization import fmt, write_csv
from .states import gaussian_density, gaussian_wigner, marginal_over_pr, marginal_over_R, marginal_residuals

# (sigma_R, sigma_p, sigma_r, half_width) per hbar; widths scale with hbar so
# the joint series keeps convergence ratio hbar^2/(4 sigma_R^2 sigma_p^2)
# near 1/3 inside the box.  At n3 = 64 the joint series then converges in 13,
# 21 and 20 terms.
EQUIV_PRESETS = {
    0.5: (1.0, 0.6, 0.6, 8.0),
    1.0: (1.0, 0.85, 0.85, 8.0),
    2.0: (1.45, 1.2, 1.2, 12.0),
}

# kernel_expansion[pointwise]: max |phi - ln sinc| over phi's mask read
# 6.8e-12 to 1.0e-9 for n3 = 32 to 256, hbar from 1e-5 to 2, and the
# default widths, the hbar = 2 preset's and (0.9, 0.96, 0.7), and 5.2e-12
# to 2.4e-10 at n3 = 512 on the same widths and hbars; larger n3 is
# unmeasured.  The row refuses, and never passes, where the gap of phi = 0
# (no coupling at all) on the same mask, max |ln sinc| there, is below
# KERNEL_CONTENT_FLOOR: it could not tell the kernel from none.  At the
# defaults that is 1.6e-5 at hbar = 1e-3 and 1.6e-7 at 1e-4.
KERNEL_GAP_TOL = 1e-8
KERNEL_CONTENT_FLOOR = 1e3 * KERNEL_GAP_TOL

# The report's row order: a row's family is its name up to the first "[".
FAMILIES = (
    "central_equivalence",
    "builder_equivalence",
    "marginal_recovery",
    "classical_reduction",
    "kernel_expansion",
    "cross_cumulant",
    "heisenberg",
    "classical_scaling",
    "dynamics",
    "determinism",
)


@dataclass(frozen=True)
class Check:
    name: str
    measured: float
    tolerance: float
    passed: bool
    note: str = ""


@dataclass
class VerificationReport:
    checks: list

    @property
    def overall_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def rows(self):
        for c in self.checks:
            yield (c.name, c.measured, c.tolerance, "pass" if c.passed else "fail", c.note)

    def write(self, directory: str) -> str:
        path = os.path.join(directory, "verification_report.csv")
        rows = list(self.rows())
        rows.append(("overall", float(self.overall_pass), 1.0, "pass" if self.overall_pass else "fail", ""))
        return write_csv(path, ("check", "measured", "tolerance", "status", "note"), rows)


def _tol_check(name, measured, tolerance, note="") -> Check:
    return Check(name, float(measured), float(tolerance), bool(measured <= tolerance), note)


@contextmanager
def _failed_rows(checks: list, *names: str):
    """Keep the rows the block appends to ``checks``; if it raises a
    :class:`PhasekinError`, append one failed row per name, carrying the
    error's type and message."""
    try:
        yield
    except PhasekinError as exc:
        checks.extend(Check(name, float("nan"), 0.0, False, f"{type(exc).__name__}: {exc}") for name in names)


def _sup_gap(a, b) -> float:
    """max |a - b| over paired rows, so no temporary is larger than one row."""
    return max(float(np.abs(x - y).max()) for x, y in zip(a, b))


def _attempt(compute, *args):
    """``compute(*args)``, or the :class:`PhasekinError` it raises.  An
    argument that is such an error is returned as is, without calling
    ``compute``; :func:`_value` raises it inside a family's rows."""
    for arg in args:
        if isinstance(arg, PhasekinError):
            return arg
    try:
        return compute(*args)
    except PhasekinError as exc:
        return exc.with_traceback(None)  # its frames would keep their joints alive


def _value(outcome):
    if isinstance(outcome, PhasekinError):
        raise outcome
    return outcome


def _joint_pair(rho, W, hbar: float) -> tuple:
    """(series planes, spectral planes, factors tie, builder gap) of one
    preset's two joints, each a :class:`PhasekinError` instead if what it
    reads raised.  The two block streams are zipped, so each spectral block
    meets the series block of its rows of R for the gap, and is summed over
    (p, r) and over R for the tie, the sup-norm gap of those marginals to
    the spectral planes: neither joint is held whole.  A builder that
    refuses its inputs does so at its call, before its first block.
    """
    series = _attempt(quantum_joint_series, rho, W, hbar)
    spectral = _attempt(quantum_joint_spectral, rho, W, hbar)
    series_blocks = None if isinstance(series, PhasekinError) else series[0]
    over_R, over_pr = np.zeros(W.values.shape), []

    def stream(spectral):
        gap = 0.0
        for block, paired in zip(spectral[0], series_blocks or repeat(None)):
            over_pr.extend(block.sum(axis=(1, 2)))
            for row in block:
                np.add(over_R, row, out=over_R)
            if paired is not None:
                gap = max(gap, _sup_gap(paired, block))
        return gap

    def tie(planes, _):
        factors = marginal_over_R(planes).values, marginal_over_pr(planes).values
        streamed = over_R * rho.grid.step, np.array(over_pr) * W.grid_p.step * W.grid_r.step
        return max(float(np.abs(a - b).max()) for a, b in zip(factors, streamed))

    gap = _attempt(stream, spectral)
    series_planes, spectral_planes = (_attempt(lambda joint: joint[1](), joint) for joint in (series, spectral))
    # the gap stands only if both builders gave their joints and the spectral stream ran out
    gap_row = _attempt(lambda _, gap: gap, series_planes, gap)
    return series_planes, spectral_planes, _attempt(tie, spectral_planes, gap), gap_row


def check_equivalence_presets(config: ScenarioConfig) -> list:
    """The central, builder, marginal and Heisenberg rows of every preset.

    Each preset's rho and W are built once, and its two joints streamed
    once, in step (:func:`_joint_pair`), so no n^3 array is formed.  Each
    builder gives its joint's planes, taken from its factors: the series
    joint's give ``central_equivalence[series]``, the spectral joint's
    ``central_equivalence[spectral]`` and the Heisenberg rows, and
    ``builder_equivalence[...][factors]`` ties the spectral planes'
    marginals to the streamed joint's.  ``marginal_recovery`` reads both
    joints' planes.  A family whose work raises keeps its rows and ends in
    one failed row carrying the first error; the others go on.

    The central ``[series]`` and ``[spectral]`` rows differ by more than
    the two joints do: at n3 = 64 and hbar = 0.5, 1 and 2 they read
    3.1e-12, 5.1e-12 and 2.2e-12 against 1.2e-14, 1.8e-14 and 2.0e-14.
    The joints differ by 1.6e-14, 1.0e-14 and 5.2e-15, but their
    ``collision_rhs`` by 6.2e-13, 4.9e-13 and 9.4e-14: the R and p
    derivatives amplify each bin of the gap by up to K_max = pi n3 / (2 L)
    each, and K_max^2 is about 158 at L = 8.  Weighted by K q, 97-99% of
    the gap lies at |K| or |q| above K_max / 2, yet only 6-9% in bins
    below the series' floor, ``SPECTRAL_FLOOR_REL`` of the peak: it is the
    builders' rounding, not the floor.
    """
    checks = []
    families = ("central_equivalence", "builder_equivalence", "marginal_recovery", "heisenberg")

    def transport_gap(reference, planes):
        rhs = collision_rhs(marginal_over_R(planes), planes.dR_diagonal, config.epsilon, config.mass)
        return float(np.abs(rhs - reference).max() / np.abs(reference).max())

    for hbar, (sigma_R, sigma_p, sigma_r, half_width) in EQUIV_PRESETS.items():
        tag = f"[hbar={hbar}]"
        with _failed_rows(checks, *(f"{family}{tag}" for family in families)):
            grid = make_grid(config.n3, half_width)
            rho = gaussian_density(grid, 0.0, sigma_R)
            W = gaussian_wigner(grid, grid, 0.0, 0.0, sigma_p, sigma_r)
            U = potential_from_density(rho, config.epsilon)
            reference = _attempt(moyal_rhs_spectral, W, U, hbar, config.mass)
            series, planes, tie, gap = _joint_pair(rho, W, hbar)
            with _failed_rows(checks, f"central_equivalence{tag}"):
                measured = transport_gap(_value(reference), _value(series))
                checks.append(_tol_check(f"central_equivalence{tag}[series]", measured, 1e-6))
                measured = transport_gap(reference, _value(planes))
                checks.append(_tol_check(f"central_equivalence{tag}[spectral]", measured, 1e-6))
            with _failed_rows(checks, f"builder_equivalence{tag}"):
                # read 4.2e-17 to 1.7e-16 at n3 = 64, at most 8.9e-16 up to 512
                checks.append(_tol_check(f"builder_equivalence{tag}[factors]", _value(tie), 1e-13))
                checks.append(_tol_check(f"builder_equivalence{tag}", _value(gap), 1e-8))
            with _failed_rows(checks, f"marginal_recovery{tag}"):
                residuals = (*marginal_residuals(_value(series), rho, W), *marginal_residuals(_value(planes), rho, W))
                checks.append(_tol_check(f"marginal_recovery{tag}", max(0.0, *residuals), 1e-7))
            with _failed_rows(checks, f"heisenberg{tag}"):
                report = heisenberg_check(_value(planes), hbar)
                margin = report.kappa22 + report.heisenberg_lhs
                checks.append(
                    Check(
                        f"heisenberg[cauchy_schwarz]{tag}",
                        margin,
                        0.0,
                        report.cauchy_schwarz_ok,
                        "requires kappa22 >= -sigma_R2*sigma_p2",
                    )
                )
                checks.append(
                    Check(
                        f"heisenberg[product]{tag}",
                        report.heisenberg_lhs - report.heisenberg_rhs,
                        float("inf"),
                        True,
                        f"lhs={fmt(report.heisenberg_lhs)} rhs={fmt(report.heisenberg_rhs)}",
                    )
                )
            del series, planes  # not held while the next preset streams
    return checks


def check_classical_reduction(config: ScenarioConfig) -> list:
    checks = []
    with _failed_rows(checks, "classical_reduction[hbar=0]"):
        rho, W3 = config.joint_inputs()
        worst = 0.0
        for build in (quantum_joint_series, quantum_joint_spectral):
            blocks, _ = build(rho, W3, 0.0)
            product = (r * W3.values for r in rho.values)  # rho(R) W(p, r), one row of R at a time
            # zip takes the joint's rows first, so it draws as many rows of the product
            worst = max(worst, _sup_gap(chain.from_iterable(blocks), product))
        checks.append(_tol_check("classical_reduction[hbar=0]", worst, 1e-12))
    with _failed_rows(checks, "classical_reduction[harmonic]"):
        grid2 = config.grid2()
        W2 = config.wigner(grid2)
        U = harmonic_potential(grid2, 1.0, config.mass)
        reference = liouville_rhs(W2, U, config.mass)
        worst = 0.0
        for hbar in EQUIV_PRESETS:
            worst = max(worst, float(np.abs(moyal_rhs_spectral(W2, U, hbar, config.mass) - reference).max()))
        checks.append(_tol_check("classical_reduction[harmonic]", worst, 1e-9))
    return checks


def _pass_bytes(planes, report, gap) -> bytes:
    """One cumulant pass as C-order float64 bytes: the joint's planes, their
    guard values, kappa22, the two variances and the generating function's gap."""
    values = (planes.boundary, planes.vmax, planes.vmin, report.kappa22, report.sigma_R2, report.sigma_p2, gap)
    arrays = (planes.over_R, planes.over_pr, planes.over_r, planes.dR_diagonal, values)
    return b"".join(np.asarray(a, dtype="<f8").tobytes() for a in arrays)


def check_configured_hbar(config: ScenarioConfig) -> list:
    """The kernel expansion, cross-cumulant, classical scaling and
    determinism rows, at the configured hbar (at 1 when it is 0).

    rho and W are built once; no joint is.  The spectral joint's planes
    (:func:`phasekin.coupling.joint_planes`) give kappa22, the Heisenberg
    report and the generating function's :func:`phi_gap`, each on its own
    so that a failing kernel row leaves ``cross_cumulant`` standing, and
    with all three the bytes that a :func:`cumulant_pass` rebuild must
    match, 3 n3^2 + n3 float64 held (96 KiB at n3 = 64, 6 MiB at 512).
    A family whose work raises keeps its rows and ends in one failed row,
    as in :func:`check_equivalence_presets`.
    """
    checks = []
    hbar = config.hbar if config.hbar > 0 else 1.0

    def half_kappa22(rho, W, kap):  # not taken once kap has failed
        return kappa22(joint_planes(rho, W, hbar / 2.0))

    families = ("kernel_expansion", "cross_cumulant", "classical_scaling", "determinism")
    with _failed_rows(checks, *families):
        rho, W = config.joint_inputs()
        planes = _attempt(joint_planes, rho, W, hbar)
        kap = _attempt(kappa22, planes)
        report = _attempt(heisenberg_check, planes, hbar)
        phi = _attempt(phi_field, planes, rho, W)
        gap = _attempt(phi_gap, phi, hbar)
        held = _attempt(_pass_bytes, planes, report, gap)
        del planes  # not held while the hbar/2 planes, the scan and the rebuild are taken
        kap_half = _attempt(half_kappa22, rho, W, kap)
        # at the scan fractions of hbar = 1, whatever hbar is configured
        slope = _attempt(classical_limit_scan, rho, W, CLASSICAL_SCAN_FRACTIONS)
        same = _attempt(lambda first: _pass_bytes(*cumulant_pass(rho, W, hbar)) == first, held)
        with _failed_rows(checks, "kernel_expansion"):
            _value(report)
            gap, phi = _value(gap), _value(phi)
            content = phi_gap(replace(phi, values=np.zeros_like(phi.values)), hbar)  # of no coupling
            note = "" if content >= KERNEL_CONTENT_FLOOR else (
                f"refused: max |ln sinc| on the mask is {content:.3g}, "
                f"below the content floor {KERNEL_CONTENT_FLOOR:.0e}"
            )
            passed = gap <= KERNEL_GAP_TOL and not note
            checks.append(Check("kernel_expansion[pointwise]", gap, KERNEL_GAP_TOL, passed, note))
        with _failed_rows(checks, "cross_cumulant"):
            kap = _value(kap)
            checks.append(Check("cross_cumulant[negative]", kap, 0.0, kap < 0.0, "requires kappa22 < 0"))
            ratio = abs(kap / _value(kap_half) / 4.0 - 1.0)
            checks.append(_tol_check("cross_cumulant[scaling]", ratio, 1e-4, "kappa22 at hbar vs hbar/2"))
            oracle = kappa22_closed_form_oracle(config.rho_sigma, config.sigma_p, hbar)
            checks.append(_tol_check("cross_cumulant[oracle]", abs(kap - oracle) / abs(oracle), 1e-5))
            note = "recorded, not asserted: measured vs nominal -hbar^2/2"
            checks.append(Check("cross_cumulant[reference_gap]", kap + hbar**2 / 2.0, float("inf"), True, note))
        with _failed_rows(checks, "classical_scaling"):
            slope = _value(slope)
            checks.append(_tol_check("classical_scaling[slope]", abs(slope - 2.0), 0.1, f"slope={fmt(slope)}"))
        with _failed_rows(checks, "determinism"):
            same = _value(same)
            note = "byte-compare of repeated pipeline"
            checks.append(Check("determinism[rebuild]", float(not same), 0.0, same, note))
    return checks


def _oracle_steps(dt: float) -> tuple:
    """Step counts of the dynamics oracles: free streaming for one time
    unit, one harmonic period (omega = 1) and 1000 quartic steps, each at
    least one.  Python floats, so a ``dt`` whose reciprocal overflows
    gives an infinite count."""
    return max(round(1.0 / dt, 0), 1.0), max(round(2.0 * math.pi / dt, 0), 1.0), 1000.0


def _free_gaussian(config: ScenarioConfig, grid, t: float) -> np.ndarray:
    """The preset W0 streamed freely for ``t`` in closed form, W0(p, r - p t / m),
    normalized on the grid as :func:`gaussian_wigner` normalizes W0."""
    p = grid.points[:, None]
    r = grid.points - p * t / config.mass
    v = np.exp(-((p - config.p0) ** 2) / (2.0 * config.sigma_p**2) - (r - config.r0) ** 2 / (2.0 * config.sigma_r**2))
    return v / (v.sum() * grid.step * grid.step)


def check_dynamics_oracles(config: ScenarioConfig) -> list:
    checks = []
    grid = config.grid2()
    mass = config.mass
    dt = config.dt
    free_steps, period_steps, quartic_steps = (int(steps) for steps in _oracle_steps(dt))
    with _failed_rows(checks, "dynamics[free_shear]"):
        W0 = config.wigner(grid)
        params = EvolutionParams(mass=mass, hbar=config.hbar, dt=dt, steps=free_steps, snapshot_every=free_steps)
        snaps = []  # W0, held here anyway, and the final snapshot
        propagate(W0, free_potential(grid), params, each_snapshot=lambda t, snap: snaps.append(snap))
        reference = _free_gaussian(config, grid, free_steps * dt)
        checks.append(_tol_check("dynamics[free_shear]", float(np.abs(snaps[-1].values - reference).max()), 1e-6))
    with _failed_rows(checks, "dynamics[harmonic_center]"):
        r0, omega = 1.0, 1.0
        W0 = gaussian_wigner(grid, grid, 0.0, r0, config.sigma_p, config.sigma_r)
        U = harmonic_potential(grid, omega, mass)
        params = EvolutionParams(
            mass=mass,
            hbar=config.hbar,
            dt=dt,
            steps=period_steps,
            snapshot_every=max(period_steps // 8, 1),
        )
        vol = grid.step * grid.step
        worst = 0.0

        def track(t, snap):
            nonlocal worst
            center = float((grid.points[None, :] * snap.values).sum() * vol)
            worst = max(worst, abs(center - r0 * np.cos(omega * t)))

        propagate(W0, U, params, each_snapshot=track)
        checks.append(_tol_check("dynamics[harmonic_center]", worst, 1e-4))
    with _failed_rows(checks, "dynamics[quartic]"):
        # mass 1, where a2 and a4 are calibrated: at 1.7 the p-tails reach the box
        W0 = config.wigner(grid)
        U = quartic_potential(grid, 0.5, 0.1)
        params = EvolutionParams(mass=1.0, hbar=config.hbar, dt=dt, steps=quartic_steps, snapshot_every=100)
        conserved = propagate(W0, U, params, each_snapshot=lambda t, snap: None)
        probs = [prob for _, prob, _ in conserved]
        energies = [energy for _, _, energy in conserved]
        checks.append(
            _tol_check("dynamics[probability_drift]", max(abs(p - 1.0) for p in probs), 1e-10)
        )
        checks.append(
            _tol_check("dynamics[energy_drift]", max(abs(e - energies[0]) for e in energies), 1e-6)
        )
    return checks


def run_verification(config: ScenarioConfig) -> VerificationReport:
    """Run every acceptance check at the configured resolution; the
    report lists the rows family by family, in :data:`FAMILIES` order.

    The dynamics oracles take their step counts from ``evolution.dt``, so
    a ``dt`` whose oracles cannot finish within the run-time budget is a
    :class:`ConfigError` naming it, raised before any check runs.
    """
    check_run_time(sum(_oracle_steps(config.dt)), config.n2, "evolution.dt")
    # the configured pass last: run before the oracles, the heap it leaves
    # sits under their peak, which then reads 38.0 MiB VmHWM at the
    # defaults against 37.0 in this order; no check holds an n^3 joint
    checks = [
        *check_equivalence_presets(config),
        *check_classical_reduction(config),
        *check_dynamics_oracles(config),
        *check_configured_hbar(config),
    ]
    return VerificationReport(sorted(checks, key=lambda c: FAMILIES.index(c.name.split("[")[0])))
