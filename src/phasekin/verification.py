"""The one-shot verification suite.

Every check pins its tolerance here.  The joint builder's derivative
series converges across ``hbar < 2 sigma_R sigma_p``, that is
``hbar^2 / (4 sigma_R^2 sigma_p^2) < 1`` (at most 54 terms up to 0.99 on
the verification grids).  The equivalence checks carry per-hbar preset
widths with that ratio near 1/3, where the odd-derivative Moyal series,
the transport oracle, converges well inside the 64-term cap of
:func:`phasekin.grids.sum_series`, and a wider box for hbar = 2, because
a Gaussian needs ``half_width >= 8 sigma`` to satisfy the decay guard;
the identities under test are covariant under that joint rescaling of
hbar and the widths, so nothing is lost.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .config import ScenarioConfig, check_run_time
from .coupling import classical_joint, quantum_joint_series, quantum_joint_spectral
from .cumulants import (
    CLASSICAL_SCAN_FRACTIONS,
    classical_limit_scan,
    cumulant_pipeline,
    heisenberg_check,
    kappa22,
)
from .dynamics import (
    EvolutionParams,
    analytic_free_evolution,
    collision_rhs,
    free_potential,
    harmonic_potential,
    liouville_rhs,
    moyal_rhs_series,
    moyal_rhs_spectral,
    potential_from_density,
    propagate,
    quartic_potential,
)
from .errors import PhasekinError
from .grids import make_grid
from .serialization import fmt, write_csv
from .states import gaussian_density, gaussian_wigner, marginal_residuals

# (sigma_R, sigma_p, sigma_r, half_width) per hbar; widths scale with hbar so
# every derivative series keeps convergence ratio hbar^2/(4 sigma_R^2 sigma_p^2)
# near 1/3 inside the box.  At n3 = 64 the odd series then converges in 15,
# 24 and 22 terms, the joint series in 13, 21 and 20.
EQUIV_PRESETS = {
    0.5: (1.0, 0.6, 0.6, 8.0),
    1.0: (1.0, 0.85, 0.85, 8.0),
    2.0: (1.45, 1.2, 1.2, 12.0),
}
EQUIV_HBARS = (0.5, 1.0, 2.0)


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


def _error_check(name, exc) -> Check:
    return Check(name, float("nan"), 0.0, False, f"{type(exc).__name__}: {exc}")


def _equiv_inputs(hbar: float, n3: int):
    sigma_R, sigma_p, sigma_r, half_width = EQUIV_PRESETS[hbar]
    grid = make_grid(n3, half_width)
    rho = gaussian_density(grid, 0.0, sigma_R)
    W = gaussian_wigner(grid, grid, 0.0, 0.0, sigma_p, sigma_r)
    return grid, rho, W


def _cumulant_hbar(config: ScenarioConfig) -> float:
    return config.hbar if config.hbar > 0 else 1.0


def _rel_linf(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a - b).max() / np.abs(b).max())


def check_central_equivalence(config: ScenarioConfig) -> list:
    """Collision-integral transport on both joints equals the series transport.

    The ``[series]`` and ``[spectral]`` rows differ by more than the two
    joints do.  At n3 = 64 and hbar = 0.5, 1 and 2 the joints differ by
    1.6e-14, 1.0e-14 and 5.2e-15, but their ``collision_rhs`` by 6.2e-13,
    4.9e-13 and 9.4e-14: the R and p derivatives amplify each bin of the
    gap by up to K_max = pi n3 / (2 L) each, and K_max^2 is about 158 at
    L = 8.  Weighted by K q, 97-99% of the gap lies at |K| or |q| above
    K_max / 2, yet only 6-9% in bins that ``floored_fft`` zeroes: it is
    the builders' rounding, not the series' floor.
    """
    checks = []
    for hbar in EQUIV_HBARS:
        try:
            grid, rho, W = _equiv_inputs(hbar, config.n3)
            U = potential_from_density(rho, config.epsilon)
            reference = moyal_rhs_series(W, U, hbar, config.mass)
            for label, build in (("series", quantum_joint_series), ("spectral", quantum_joint_spectral)):
                F = build(rho, W, hbar)
                measured = _rel_linf(collision_rhs(F, config.epsilon, config.mass), reference)
                checks.append(_tol_check(f"central_equivalence[hbar={hbar}][{label}]", measured, 1e-6))
        except PhasekinError as exc:
            checks.append(_error_check(f"central_equivalence[hbar={hbar}]", exc))
    return checks


def check_builder_equivalence(config: ScenarioConfig) -> list:
    checks = []
    for hbar in EQUIV_HBARS:
        try:
            grid, rho, W = _equiv_inputs(hbar, config.n3)
            a = quantum_joint_series(rho, W, hbar).values
            b = quantum_joint_spectral(rho, W, hbar).values
            checks.append(
                _tol_check(f"builder_equivalence[hbar={hbar}]", float(np.abs(a - b).max()), 1e-8)
            )
        except PhasekinError as exc:
            checks.append(_error_check(f"builder_equivalence[hbar={hbar}]", exc))
    return checks


def check_marginal_recovery(config: ScenarioConfig) -> list:
    checks = []
    for hbar in EQUIV_HBARS:
        try:
            grid, rho, W = _equiv_inputs(hbar, config.n3)
            worst = 0.0
            for build in (quantum_joint_series, quantum_joint_spectral):
                worst = max(worst, *marginal_residuals(build(rho, W, hbar), rho, W))
            checks.append(_tol_check(f"marginal_recovery[hbar={hbar}]", worst, 1e-7))
        except PhasekinError as exc:
            checks.append(_error_check(f"marginal_recovery[hbar={hbar}]", exc))
    return checks


def check_classical_reduction(config: ScenarioConfig) -> list:
    checks = []
    try:
        rho, W3 = config.joint_inputs()
        base = classical_joint(rho, W3).values
        worst = max(
            float(np.abs(quantum_joint_series(rho, W3, 0.0).values - base).max()),
            float(np.abs(quantum_joint_spectral(rho, W3, 0.0).values - base).max()),
        )
        checks.append(_tol_check("classical_reduction[hbar=0]", worst, 1e-12))
    except PhasekinError as exc:
        checks.append(_error_check("classical_reduction[hbar=0]", exc))
    try:
        grid2 = config.grid2()
        W2 = config.wigner(grid2)
        U = harmonic_potential(grid2, 1.0, config.mass)
        reference = liouville_rhs(W2, U, config.mass)
        worst = 0.0
        for hbar in EQUIV_HBARS:
            worst = max(worst, float(np.abs(moyal_rhs_series(W2, U, hbar, config.mass) - reference).max()))
            worst = max(worst, float(np.abs(moyal_rhs_spectral(W2, U, hbar, config.mass) - reference).max()))
        checks.append(_tol_check("classical_reduction[harmonic]", worst, 1e-9))
    except PhasekinError as exc:
        checks.append(_error_check("classical_reduction[harmonic]", exc))
    return checks


def check_kernel_expansion(config: ScenarioConfig) -> list:
    checks = []
    try:
        _, _, (c2, c4) = cumulant_pipeline(*config.joint_inputs(), _cumulant_hbar(config))
        checks.append(_tol_check("kernel_expansion[c2]", abs(c2 + 1.0 / 24.0) * 24.0, 2e-3))
        checks.append(_tol_check("kernel_expansion[c4]", abs(c4 + 1.0 / 2880.0) * 2880.0, 5e-2))
    except PhasekinError as exc:
        checks.append(_error_check("kernel_expansion", exc))
    return checks


def kappa22_closed_form_oracle(sigma_R: float, sigma_p: float, hbar: float, h: float = 0.01) -> float:
    """Cross-cumulant by finite differences on the analytic transform.

    Independent of the FFT stack: the characteristic functions of the
    centered Gaussian inputs are evaluated in closed form and the moment
    derivatives are taken with 4th-order central stencils.
    """
    stencil = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * h * h)
    offsets = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * h

    def f_tilde(K, q):
        # np.sinc is sin(pi y)/(pi y), so feed it arg/pi
        kernel = np.sinc(hbar * K * q / 2.0 / np.pi)
        return np.exp(-(sigma_R**2) * K**2 / 2.0) * kernel * np.exp(-(sigma_p**2) * q**2 / 2.0)

    grid = f_tilde(offsets[:, None], offsets[None, :])
    d2K = stencil @ grid          # second K-derivative at each q offset
    r2p2 = float(stencil @ d2K)   # then second q-derivative
    r2 = -float(stencil @ grid[:, 2])
    p2 = -float(stencil @ grid[2, :])
    return r2p2 - r2 * p2


def check_cross_cumulant(config: ScenarioConfig) -> list:
    checks = []
    try:
        rho, W = config.joint_inputs()
        hbar = _cumulant_hbar(config)
        kap = kappa22(quantum_joint_spectral(rho, W, hbar))
        checks.append(Check("cross_cumulant[negative]", kap, 0.0, kap < 0.0, "requires kappa22 < 0"))
        kap_half = kappa22(quantum_joint_spectral(rho, W, hbar / 2.0))
        checks.append(
            _tol_check(
                "cross_cumulant[scaling]",
                abs(kap / kap_half / 4.0 - 1.0),
                1e-4,
                "kappa22 at hbar vs hbar/2",
            )
        )
        oracle = kappa22_closed_form_oracle(config.rho_sigma, config.sigma_p, hbar)
        checks.append(_tol_check("cross_cumulant[oracle]", abs(kap - oracle) / abs(oracle), 1e-5))
        reference = -(hbar**2) / 2.0
        checks.append(
            Check(
                "cross_cumulant[reference_gap]",
                kap - reference,
                float("inf"),
                True,
                "recorded, not asserted: measured vs nominal -hbar^2/2",
            )
        )
    except PhasekinError as exc:
        checks.append(_error_check("cross_cumulant", exc))
    return checks


def check_heisenberg(config: ScenarioConfig) -> list:
    checks = []
    for hbar in EQUIV_HBARS:
        try:
            grid, rho, W = _equiv_inputs(hbar, config.n3)
            report = heisenberg_check(quantum_joint_spectral(rho, W, hbar), hbar)
            margin = report.kappa22 + report.heisenberg_lhs
            checks.append(
                Check(
                    f"heisenberg[cauchy_schwarz][hbar={hbar}]",
                    margin,
                    0.0,
                    report.cauchy_schwarz_ok,
                    "requires kappa22 >= -sigma_R2*sigma_p2",
                )
            )
            checks.append(
                Check(
                    f"heisenberg[product][hbar={hbar}]",
                    report.heisenberg_lhs - report.heisenberg_rhs,
                    float("inf"),
                    True,
                    f"lhs={fmt(report.heisenberg_lhs)} rhs={fmt(report.heisenberg_rhs)}",
                )
            )
        except PhasekinError as exc:
            checks.append(_error_check(f"heisenberg[hbar={hbar}]", exc))
    return checks


def check_classical_scaling(config: ScenarioConfig) -> list:
    try:
        # at the scan fractions of hbar = 1, whatever hbar is configured
        slope = classical_limit_scan(*config.joint_inputs(), CLASSICAL_SCAN_FRACTIONS)
        return [_tol_check("classical_scaling[slope]", abs(slope - 2.0), 0.1, f"slope={fmt(slope)}")]
    except PhasekinError as exc:
        return [_error_check("classical_scaling", exc)]


def _oracle_steps(dt: float) -> tuple:
    """Step counts of the dynamics oracles: free streaming for one time
    unit, one harmonic period (omega = 1) and 1000 quartic steps.  Python
    floats, so a ``dt`` whose reciprocal overflows gives an infinite count."""
    return max(round(1.0 / dt, 0), 1.0), round(2.0 * math.pi / dt, 0), 1000.0


def check_dynamics_oracles(config: ScenarioConfig) -> list:
    checks = []
    grid = config.grid2()
    mass = config.mass
    dt = config.dt
    free_steps, period_steps, quartic_steps = (int(steps) for steps in _oracle_steps(dt))
    try:
        W0 = config.wigner(grid)
        params = EvolutionParams(mass=mass, hbar=config.hbar, dt=dt, steps=free_steps, snapshot_every=free_steps)
        final = propagate(W0, free_potential(grid), params).final()
        reference = analytic_free_evolution(W0, free_steps * dt, mass)
        checks.append(
            _tol_check("dynamics[free_shear]", float(np.abs(final.values - reference.values).max()), 1e-6)
        )
    except PhasekinError as exc:
        checks.append(_error_check("dynamics[free_shear]", exc))
    try:
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
        trajectory = propagate(W0, U, params)
        vol = grid.step * grid.step
        worst = 0.0
        for t, snap in trajectory.snapshots:
            center = float((grid.points[None, :] * snap.values).sum() * vol)
            worst = max(worst, abs(center - r0 * np.cos(omega * t)))
        checks.append(_tol_check("dynamics[harmonic_center]", worst, 1e-4))
    except PhasekinError as exc:
        checks.append(_error_check("dynamics[harmonic_center]", exc))
    try:
        # mass 1, where a2 and a4 are calibrated: at 1.7 the p-tails reach the box
        W0 = config.wigner(grid)
        U = quartic_potential(grid, 0.5, 0.1)
        params = EvolutionParams(mass=1.0, hbar=config.hbar, dt=dt, steps=quartic_steps, snapshot_every=100)
        trajectory = propagate(W0, U, params)
        probs = [prob for _, prob, _ in trajectory.conserved]
        energies = [energy for _, _, energy in trajectory.conserved]
        checks.append(
            _tol_check("dynamics[probability_drift]", max(abs(p - 1.0) for p in probs), 1e-10)
        )
        checks.append(
            _tol_check("dynamics[energy_drift]", max(abs(e - energies[0]) for e in energies), 1e-6)
        )
    except PhasekinError as exc:
        checks.append(_error_check("dynamics[quartic]", exc))
    return checks


def _pipeline_bytes(config: ScenarioConfig) -> bytes:
    F, report, coefficients = cumulant_pipeline(*config.joint_inputs(), _cumulant_hbar(config))
    blob = F.values.astype("<f8").tobytes()
    blob += np.array([report.kappa22, report.sigma_R2, report.sigma_p2, *coefficients], dtype="<f8").tobytes()
    return blob


def check_determinism(config: ScenarioConfig) -> list:
    try:
        same = _pipeline_bytes(config) == _pipeline_bytes(config)
        return [Check("determinism[rebuild]", 0.0 if same else 1.0, 0.0, same, "byte-compare of repeated pipeline")]
    except PhasekinError as exc:
        return [_error_check("determinism", exc)]


def run_verification(config: ScenarioConfig) -> VerificationReport:
    """Run every acceptance check at the configured resolution.

    The dynamics oracles take their step counts from ``evolution.dt``, so
    a ``dt`` whose oracles cannot finish within the run-time budget is a
    :class:`ConfigError` naming it, raised before any check runs.
    """
    check_run_time(sum(_oracle_steps(config.dt)), config.n2, "evolution.dt")
    checks = []
    checks += check_central_equivalence(config)
    checks += check_builder_equivalence(config)
    checks += check_marginal_recovery(config)
    checks += check_classical_reduction(config)
    checks += check_kernel_expansion(config)
    checks += check_cross_cumulant(config)
    checks += check_heisenberg(config)
    checks += check_classical_scaling(config)
    checks += check_dynamics_oracles(config)
    checks += check_determinism(config)
    return VerificationReport(checks)
