"""One-shot scenario commands: simulate, joint, and cumulants.

Each command writes its numeric artifacts plus a manifest echoing the
resolved configuration.  A guard violation mid-run still writes the
manifest, flagged as aborted, before the error propagates.  ``simulate``
first removes the snapshot files an earlier run left in the directory,
so the snapshots present are exactly the ones its manifest lists.
"""

from __future__ import annotations

import os
import re

import numpy as np

from . import __version__
from .config import TOOL_NAME, ScenarioConfig
from .coupling import classical_joint, quantum_joint_series, quantum_joint_spectral
from .cumulants import (
    classical_limit_scan,
    heisenberg_check,
    phi_field,
    phi_series_coefficients,
)
from .dynamics import EvolutionParams, propagate
from .errors import ConfigError, PhasekinError
from .serialization import (
    write_array,
    write_csv,
    write_manifest,
    write_resolved_config,
)
from .states import marginal_over_R, marginal_over_pr

CLASSICAL_SCAN_FRACTIONS = (1 / 16, 1 / 8, 1 / 4, 1 / 2)
SNAPSHOT_FILE = re.compile(r"w_\d{6,}\.(bin|json)")


def prepare_output_dir(config: ScenarioConfig, override: str | None = None) -> str:
    directory = override or config.outputs
    try:
        os.makedirs(directory, exist_ok=True)
        probe = os.path.join(directory, ".write_probe")
        with open(probe, "w", encoding="utf-8") as fh:
            fh.write("")
        os.remove(probe)
    except OSError as exc:
        raise ConfigError(f"outputs: directory {directory!r} is not writable ({exc})") from exc
    return directory


def _finish(directory, command, config, outputs, status="complete", error=None):
    paths = list(outputs)
    paths.append(write_resolved_config(directory, config.to_dict()))
    paths.append(
        write_manifest(
            directory,
            command,
            config.to_dict(),
            status,
            paths,
            TOOL_NAME,
            __version__,
            error=error,
        )
    )
    return paths


def run_joint(config: ScenarioConfig, directory: str) -> list:
    grid = config.grid3()
    rho = config.rho(grid)
    W = config.wigner(grid)
    outputs = []
    try:
        f_series = quantum_joint_series(rho, W, config.hbar)
        f_spectral = quantum_joint_spectral(rho, W, config.hbar)
    except PhasekinError as exc:
        _finish(directory, "joint", config, outputs, status="aborted", error=str(exc))
        raise
    axis_names = ("R", "p", "r")
    grids = (grid, grid, grid)
    outputs += write_array(directory, "f_series", f_series.values, axis_names, grids)
    outputs += write_array(directory, "f_spectral", f_spectral.values, axis_names, grids)
    rows = []
    for label, F in (("series", f_series), ("spectral", f_spectral)):
        rows.append(
            (label, "over_R", float(np.abs(marginal_over_R(F).values - W.values).max()))
        )
        rows.append(
            (label, "over_pr", float(np.abs(marginal_over_pr(F).values - rho.values).max()))
        )
    outputs.append(
        write_csv(
            os.path.join(directory, "marginal_residuals.csv"),
            ("builder", "marginal", "linf_residual"),
            rows,
        )
    )
    return _finish(directory, "joint", config, outputs)


def _remove_snapshots(directory: str) -> None:
    try:
        for name in os.listdir(directory):
            if SNAPSHOT_FILE.fullmatch(name):
                os.remove(os.path.join(directory, name))
    except OSError as exc:
        raise ConfigError(f"outputs: cannot clear old snapshots in {directory!r} ({exc})") from exc


def run_simulate(config: ScenarioConfig, directory: str) -> list:
    grid = config.grid2()
    W0 = config.wigner(grid)
    potential = config.build_potential(grid)
    params = EvolutionParams(
        mass=config.mass,
        hbar=config.hbar,
        dt=config.dt,
        steps=config.steps,
        method=config.method,
        snapshot_every=config.snapshot_every,
    )
    _remove_snapshots(directory)
    outputs = []
    try:
        trajectory = propagate(W0, potential, params)
    except PhasekinError as exc:
        _finish(directory, "simulate", config, outputs, status="aborted", error=str(exc))
        raise
    for index, (t, snap) in enumerate(trajectory.snapshots):
        outputs += write_array(
            directory, f"w_{index:06d}", snap.values, ("p", "r"), (grid, grid)
        )
    outputs.append(
        write_csv(
            os.path.join(directory, "conserved.csv"),
            ("time", "total_probability", "mean_energy"),
            trajectory.conserved,
        )
    )
    return _finish(directory, "simulate", config, outputs)


def run_cumulants(config: ScenarioConfig, directory: str) -> list:
    grid = config.grid3()
    rho = config.rho(grid)
    W = config.wigner(grid)
    outputs = []
    try:
        if config.hbar == 0.0:
            F = classical_joint(rho, W)
        else:
            F = quantum_joint_spectral(rho, W, config.hbar)
        report = heisenberg_check(F, config.hbar)
        phi = phi_field(F, rho, W)
        c2, c4 = phi_series_coefficients(phi, config.hbar)
        if config.hbar > 0.0:
            slope = classical_limit_scan(
                rho, W, [config.hbar * f for f in CLASSICAL_SCAN_FRACTIONS]
            )
        else:
            slope = float("nan")
    except PhasekinError as exc:
        _finish(directory, "cumulants", config, outputs, status="aborted", error=str(exc))
        raise
    rows = [
        ("hbar", config.hbar),
        ("kappa22", report.kappa22),
        ("kappa22_reference", report.kappa22_reference),
        ("phi_c2", c2),
        ("phi_c4", c4),
        ("sigma_R2", report.sigma_R2),
        ("sigma_p2", report.sigma_p2),
        ("heisenberg_lhs", report.heisenberg_lhs),
        ("heisenberg_rhs", report.heisenberg_rhs),
        ("cauchy_schwarz_ok", report.cauchy_schwarz_ok),
        ("classical_slope", slope),
    ]
    outputs.append(
        write_csv(os.path.join(directory, "cumulant_report.csv"), ("quantity", "value"), rows)
    )
    return _finish(directory, "cumulants", config, outputs)


def run_scenario(config: ScenarioConfig, command: str, output_dir: str | None = None) -> list:
    directory = prepare_output_dir(config, output_dir)
    if command == "joint":
        return run_joint(config, directory)
    if command == "simulate":
        return run_simulate(config, directory)
    if command == "cumulants":
        return run_cumulants(config, directory)
    raise ValueError(f"unknown command {command!r}")
