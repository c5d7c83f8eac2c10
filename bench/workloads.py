"""The benchmark's workloads: seeded configs, CLI commands and output gates.

Why these three.  Between them they run all four CLI commands at
n = 64/128/256, and each planned optimisation has one workload that
exercises it and one that bypasses it:

* ``evolve``: ``simulate`` at n2 = 256 with a density-backed potential
  (``U = epsilon * rho``, the paper's contact coupling), 1000 steps, a
  snapshot every 100.  Dominated by ``dynamics``: the shifted-density
  evaluation in ``Potential.samples_at`` builds an (n^2, n) complex phase
  matrix twice, then 1000 Strang steps; writes 11 small arrays.  Never
  touches ``coupling`` or ``cumulants``.
* ``couple``: ``joint`` then ``cumulants`` at n2 = n3 = 128, each into
  its own output directory.  Dominated by the joint builders,
  ``phi_field`` and the hbar scan, ``grids`` transforms, and two 16 MiB
  array writes with SHA-256.  Never calls ``propagate``.
* ``verify``: ``verify`` at the README defaults (n2 = 128, n3 = 64).  The
  reproduction itself; the dynamics oracles take many small steps with
  analytic potentials, the opposite of ``evolve``; almost no writes.

Seeds.  The program sees only the generated config; the dead ``seed``
key is never set.  ``evolve`` draws the phase-space centre, ``couple``
the preset widths.  ``verify`` ignores the seed: its checks carry their
own presets and its dynamics oracles are calibrated at the README
defaults, so another config would measure something other than the
paper's reproduction.

Gate tolerances are copied unchanged from ``phasekin.verification``;
the check each one mirrors is named beside it.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random

from phasekin.serialization import read_array
from phasekin.verification import kappa22_closed_form_oracle

PROBABILITY_DRIFT_TOL = 1e-10  # dynamics[probability_drift]
ENERGY_DRIFT_TOL = 1e-6  # dynamics[energy_drift]
BUILDER_EQUIVALENCE_TOL = 1e-8  # builder_equivalence
MARGINAL_RECOVERY_TOL = 1e-7  # marginal_recovery
KAPPA22_ORACLE_TOL = 1e-5  # cross_cumulant[oracle]

HALF_WIDTH = 8.0
HBAR = 1.0
# couple keeps hbar^2 / (4 sigma_R^2 sigma_p^2) at 1/3, the margin the
# verification presets use: the series builder needs it, as
# hbar < 2 sigma_R sigma_p alone does not make it converge within its
# 20-term cap.  Fixing the ratio also fixes the series' term count, so
# the seed moves the inputs but not the amount of work.
# The fixed ratio stands in only while that defect does:
# quantum_joint_series raises NonConvergenceError once the ratio passes
# a point between 0.51 (converges) and 0.69 (fails: sigma_R = 1,
# sigma_p = 0.6, n3 = 128), although the README's window,
# hbar < 2 sigma_R sigma_p, allows any ratio below 1.  When the series builder converges across that window,
# or the README narrows the window to where it does, draw the ratio from
# the documented window instead.
COUPLE_WIDTH_PRODUCT = HBAR * math.sqrt(3.0) / 2.0

WORKLOADS = ("evolve", "couple", "verify")


def _sizes(workload: str, small: bool) -> dict:
    full = {"evolve": (256, 64), "couple": (128, 128), "verify": (128, 64)}
    reduced = {"evolve": (64, 32), "couple": (32, 32), "verify": (64, 64)}
    n2, n3 = (reduced if small else full)[workload]
    return {"n2": n2, "n3": n3, "half_width": HALF_WIDTH}


def make_config(workload: str, seed: int, small: bool = False) -> dict:
    """The scenario config a workload passes to every command, from the seed.

    Widths stay within half_width >= 8 sigma and means at 0 where the
    kappa22 oracle assumes centred Gaussians.
    """
    rng = random.Random(f"{workload}:{seed}")
    config = {"grid": _sizes(workload, small)}
    if workload == "evolve":
        config["potential"] = {"kind": "from_density"}
        config["wigner_preset"] = {
            "p0": rng.uniform(-1.0, 1.0),
            "r0": rng.uniform(-1.0, 1.0),
            "sigma_p": 2**-0.5,
            "sigma_r": 2**-0.5,
        }
        steps, every = (100, 10) if small else (1000, 100)
        config["evolution"] = {"dt": 1e-3, "steps": steps, "snapshot_every": every, "method": "spectral_kernel"}
    elif workload == "couple":
        sigma_R = rng.uniform(COUPLE_WIDTH_PRODUCT, 1.0)
        config["hbar"] = HBAR
        config["rho_preset"] = {"mean": 0.0, "sigma": sigma_R}
        config["wigner_preset"] = {
            "p0": 0.0,
            "r0": 0.0,
            "sigma_p": COUPLE_WIDTH_PRODUCT / sigma_R,
            "sigma_r": rng.uniform(0.6, 1.0),
        }
    elif workload != "verify":
        raise ValueError(f"unknown workload {workload!r}")
    return config


def commands(workload: str, config_path: str, out_dir: str) -> list:
    """CLI argument lists for one operation, each with its own output dir."""
    names = {"evolve": ["simulate"], "couple": ["joint", "cumulants"], "verify": ["verify"]}[workload]
    return [[name, "--config", config_path, "--output-dir", os.path.join(out_dir, name)] for name in names]


def working_set(workload: str, small: bool = False) -> dict:
    """Computed sizes (MiB) of each workload's largest arrays."""
    grid = _sizes(workload, small)
    n2, n3 = grid["n2"], grid["n3"]
    mib = 1024.0 * 1024.0
    if workload == "evolve":
        arrays = {
            "complex_state_n2^2": n2 * n2 * 16 / mib,
            "shifted_density_phase_n2^3": n2**3 * 16 / mib,
        }
    elif workload == "couple":
        arrays = {"complex_joint_n3^3": n3**3 * 16 / mib, "real_joint_n3^3": n3**3 * 8 / mib}
    else:
        arrays = {"complex_state_n2^2": n2 * n2 * 16 / mib, "complex_joint_n3^3": n3**3 * 16 / mib}
    return arrays


# --- output gates ----------------------------------------------------------


def _read_csv(path: str) -> list:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _manifest_status(directory: str) -> str:
    with open(os.path.join(directory, "manifest.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)["status"]


def _gate_evolve(config: dict, out_dir: str) -> list:
    directory = os.path.join(out_dir, "simulate")
    failures = []
    evo = config["evolution"]
    expected = evo["steps"] // evo["snapshot_every"] + 1
    rows = _read_csv(os.path.join(directory, "conserved.csv"))
    if len(rows) != expected:
        failures.append(f"conserved.csv has {len(rows)} rows, expected {expected}")
    probs = [float(r["total_probability"]) for r in rows]
    energies = [float(r["mean_energy"]) for r in rows]
    drift = max(abs(p - 1.0) for p in probs)
    if not drift <= PROBABILITY_DRIFT_TOL:
        failures.append(f"probability drift {drift:.3e} > {PROBABILITY_DRIFT_TOL}")
    drift = max(abs(e - energies[0]) for e in energies)
    if not drift <= ENERGY_DRIFT_TOL:
        failures.append(f"energy drift {drift:.3e} > {ENERGY_DRIFT_TOL}")
    snapshots = sorted(f[:-4] for f in os.listdir(directory) if f.startswith("w_") and f.endswith(".bin"))
    if len(snapshots) != expected:
        failures.append(f"{len(snapshots)} snapshots written, expected {expected}")
    n2 = config["grid"]["n2"]
    for name in snapshots:
        values, _ = read_array(directory, name)  # raises ValueError on a checksum mismatch
        if values.shape != (n2, n2):
            failures.append(f"{name} has shape {values.shape}")
    return failures


def _gate_couple(config: dict, out_dir: str) -> list:
    failures = []
    joint = os.path.join(out_dir, "joint")
    series, _ = read_array(joint, "f_series")
    spectral, _ = read_array(joint, "f_spectral")
    sup = float(abs(series - spectral).max())
    if not sup <= BUILDER_EQUIVALENCE_TOL:
        failures.append(f"series vs spectral sup-norm {sup:.3e} > {BUILDER_EQUIVALENCE_TOL}")
    for row in _read_csv(os.path.join(joint, "marginal_residuals.csv")):
        residual = float(row["linf_residual"])
        if not residual <= MARGINAL_RECOVERY_TOL:
            failures.append(f"{row['builder']} {row['marginal']} residual {residual:.3e} > {MARGINAL_RECOVERY_TOL}")
    report = {r["quantity"]: r["value"] for r in _read_csv(os.path.join(out_dir, "cumulants", "cumulant_report.csv"))}
    oracle = kappa22_closed_form_oracle(
        config["rho_preset"]["sigma"], config["wigner_preset"]["sigma_p"], config["hbar"]
    )
    rel = abs(float(report["kappa22"]) - oracle) / abs(oracle)
    if not rel <= KAPPA22_ORACLE_TOL:
        failures.append(f"kappa22 off the closed-form oracle by {rel:.3e} relative > {KAPPA22_ORACLE_TOL}")
    for name in ("joint", "cumulants"):
        status = _manifest_status(os.path.join(out_dir, name))
        if status != "complete":
            failures.append(f"{name} manifest status {status!r}")
    return failures


def _gate_verify(config: dict, out_dir: str) -> list:
    rows = _read_csv(os.path.join(out_dir, "verify", "verification_report.csv"))
    failures = [f"{r['check']}: {r['status']} (measured {r['measured']}, tol {r['tolerance']})" for r in rows if r["status"] != "pass"]
    if not rows:
        failures.append("verification_report.csv has no rows")
    return failures


_GATES = {"evolve": _gate_evolve, "couple": _gate_couple, "verify": _gate_verify}


def gate(workload: str, config: dict, out_dir: str, exit_codes: list) -> list:
    """Failure messages for one operation's outputs; empty when all hold."""
    failures = [f"command {i} exited {code}" for i, code in enumerate(exit_codes) if code != 0]
    if failures:
        return failures
    try:
        return _GATES[workload](config, out_dir)
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
