"""The four commands and the one path every command runs through.

:func:`run_scenario` alone decides what a run leaves on disk.  It
prepares the output directory and removes every file whose name a
command writes (:data:`OUTPUT_FILE`), so a directory holds one run's
files; other files stay.  It then runs the command body with numpy's
overflow, divide-by-zero and invalid-value conditions raising
:class:`NonFiniteError`, turns a :class:`PhasekinError` into an
``aborted`` manifest before the error propagates, and writes
``resolved_config.json`` and ``manifest.json`` last.  An aborted run
first removes what its body wrote, so it leaves only those two files.
A command body (``run_simulate``, ``run_joint``, ``run_cumulants``,
``run_verify``) computes its results, writes its own files and returns
``(outputs, status)``: status ``complete``, or ``failed`` when a
verification check fails.  A failed write (a full disk, say) aborts as a
guard does; one of the manifest itself leaves no file of the run.
"""

from __future__ import annotations

import os
import re
from itertools import count

import numpy as np

from . import __version__
from .config import TOOL_NAME, ScenarioConfig
from .coupling import quantum_joint_series, quantum_joint_spectral
from .cumulants import CLASSICAL_SCAN_FRACTIONS, classical_limit_scan, cumulant_pass
from .dynamics import EvolutionParams, propagate
from .errors import ConfigError, NonFiniteError, PhasekinError
from .serialization import (
    RowBlocks,
    write_array,
    write_csv,
    write_manifest,
    write_resolved_config,
)
from .states import JointSums, marginal_residuals
from .verification import run_verification

# Every file name a command writes, the manifest's temporary file included;
# a test keeps it in step with the writers.
OUTPUT_FILE = re.compile(
    r"w_\d{6,}\.(bin|json)|f_(series|spectral)\.(bin|json)"
    r"|(conserved|marginal_residuals|cumulant_report|verification_report)\.csv"
    r"|(resolved_config|manifest)\.json|manifest\.json\.tmp"
)


def _clear_outputs(directory: str) -> None:
    """Remove every file in ``directory`` whose name a command writes."""
    for name in os.listdir(directory):
        if OUTPUT_FILE.fullmatch(name):
            os.remove(os.path.join(directory, name))


def _prepare_output_dir(config: ScenarioConfig, override: str | None) -> str:
    if override == "":
        raise ConfigError("--output-dir: expected a non-empty path, got ''")
    directory = override or config.outputs
    try:
        os.makedirs(directory, exist_ok=True)
        _clear_outputs(directory)
        probe = os.path.join(directory, ".write_probe")
        with open(probe, "w", encoding="utf-8") as fh:
            fh.write("")
        os.remove(probe)
    except OSError as exc:
        raise ConfigError(f"outputs: directory {directory!r} is not writable ({exc})") from exc
    return directory


def _streamed_joint(build, rho, W, hbar: float, sums: JointSums) -> RowBlocks:
    """The joint ``build`` forms, handed to its writer a block of rows of R
    at a time; each block is reduced into ``sums`` on the way."""

    def produce(write):
        def each_block(block):
            sums.add(block)
            write(block)

        build(rho, W, hbar, each_block)
        sums.finish()

    return RowBlocks((rho.grid.n, W.grid_p.n, W.grid_r.n), produce)


def run_joint(config: ScenarioConfig, directory: str) -> tuple:
    """Build, write and reduce each joint a block of rows of R at a time, in
    one pass over its blocks: no n^3 array is ever held."""
    rho, W = config.joint_inputs()
    grids = (rho.grid,) * 3
    outputs, rows = [], []
    for label, build in (("series", quantum_joint_series), ("spectral", quantum_joint_spectral)):
        sums = JointSums(rho, W)
        stream = _streamed_joint(build, rho, W, config.hbar, sums)
        outputs += write_array(directory, f"f_{label}", stream, ("R", "p", "r"), grids)
        over_R, over_pr = marginal_residuals(sums, rho, W)
        rows += [(label, "over_R", over_R), (label, "over_pr", over_pr)]
    outputs.append(
        write_csv(
            os.path.join(directory, "marginal_residuals.csv"),
            ("builder", "marginal", "linf_residual"),
            rows,
        )
    )
    return outputs, "complete"


def run_simulate(config: ScenarioConfig, directory: str) -> tuple:
    """Propagate W, writing each snapshot as it is taken, then the conservation log."""
    grid = config.grid2()
    potential = config.build_potential(grid)
    params = EvolutionParams(
        mass=config.mass, hbar=config.hbar, dt=config.dt, steps=config.steps, snapshot_every=config.snapshot_every
    )
    outputs, index = [], count()

    def write_snapshot(t, snap):
        outputs.extend(write_array(directory, f"w_{next(index):06d}", snap.values, ("p", "r"), (grid, grid)))

    # W0 goes straight in: propagate drops it once the state is formed
    conserved = propagate(config.wigner(grid), potential, params, each_snapshot=write_snapshot)
    header = ("time", "total_probability", "mean_energy")
    outputs.append(write_csv(os.path.join(directory, "conserved.csv"), header, conserved))
    return outputs, "complete"


def run_cumulants(config: ScenarioConfig, directory: str) -> tuple:
    rho, W = config.joint_inputs()
    # the scan first: it refuses scan values that underflow to 0, which
    # would otherwise surface as an unresolved fit
    scan = [config.hbar * f for f in CLASSICAL_SCAN_FRACTIONS]
    slope = classical_limit_scan(rho, W, scan) if config.hbar > 0.0 else float("nan")
    _, report, (c2, c4) = cumulant_pass(rho, W, config.hbar)
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
    path = write_csv(os.path.join(directory, "cumulant_report.csv"), ("quantity", "value"), rows)
    return [path], "complete"


def run_verify(config: ScenarioConfig, directory: str) -> tuple:
    """Run the verification suite, write its report and print one line per check."""
    report = run_verification(config)
    path = report.write(directory)
    for name, measured, tolerance, status_word, _ in report.rows():
        print(f"{status_word:4s}  {name}  measured={measured:.6g}  tol={tolerance:.6g}")
    print("overall:", "pass" if report.overall_pass else "fail")
    return [path], "complete" if report.overall_pass else "failed"


def _raise_non_finite(condition: str, flag: int) -> None:
    raise NonFiniteError(f"numpy floating-point error: {condition}")


def run_scenario(config: ScenarioConfig, command: str, output_dir: str | None = None) -> str:
    """Run one command into its output directory; returns the manifest status.

    A :class:`PhasekinError` or ``OSError`` from the command body is
    re-raised after the ``aborted`` manifest is written.
    """
    # looked up per call, so a tracer that rebinds these module names sees every command
    body = {
        "simulate": run_simulate,
        "joint": run_joint,
        "cumulants": run_cumulants,
        "verify": run_verify,
    }.get(command)
    if body is None:
        raise ValueError(f"unknown command {command!r}")
    directory = _prepare_output_dir(config, output_dir)
    error = None
    try:
        with np.errstate(over="call", invalid="call", divide="call", call=_raise_non_finite):
            outputs, status = body(config, directory)
    except (PhasekinError, OSError) as exc:  # a guard, or a write that failed
        if isinstance(exc, OSError) and exc.filename is None:  # a failed write names no file
            exc = OSError(exc.errno, exc.strerror, directory)
        outputs, status, error = [], "aborted", exc
        _clear_outputs(directory)  # what the body wrote before it failed
    resolved = config.to_dict()
    message = None if error is None else str(error)
    try:
        paths = [*outputs, write_resolved_config(directory, resolved)]
        write_manifest(directory, command, resolved, status, paths, TOOL_NAME, __version__, error=message)
    except OSError:
        _clear_outputs(directory)  # a run without its manifest leaves nothing
        raise
    if error is not None:
        raise error
    return status
