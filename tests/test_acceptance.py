"""Acceptance suite: every criterion at its stated tolerance.

Runs the same checks as the `verify` command at the default resolution
(n2 = 128, n3 = 64, half_width = 8) and prints one pass/fail line per
criterion.  Criterion 10 additionally runs the full verify pipeline
twice on disk and compares bytes.
"""

import json
import os

import pytest

from phasekin import load_config
from phasekin.cli import main
from phasekin.verification import run_verification


@pytest.fixture(scope="module")
def report():
    return run_verification(load_config())


def _criterion(report, number, label, prefixes):
    checks = [c for c in report.checks if any(c.name.startswith(p) for p in prefixes)]
    assert checks, f"no verification rows matched {prefixes}"
    ok = all(c.passed for c in checks)
    worst = max(checks, key=lambda c: (not c.passed, 0.0))
    print(f"ACCEPTANCE {number:2d} {label}: {'PASS' if ok else 'FAIL'} ({len(checks)} checks)")
    for c in checks:
        if not c.passed:
            print(f"    failed: {c.name} measured={c.measured} tol={c.tolerance} {c.note}")
    assert ok
    return checks


def test_criterion_01_central_equivalence(report):
    checks = _criterion(report, 1, "central equivalence, both builders", ["central_equivalence["])
    assert len(checks) == 6  # three hbar values, two builders
    assert all(c.tolerance == 1e-6 for c in checks)


def test_criterion_02_builder_equivalence(report):
    checks = _criterion(report, 2, "series vs spectral joint", ["builder_equivalence["])
    assert all(c.tolerance == 1e-8 for c in checks)


def test_criterion_03_marginal_recovery(report):
    checks = _criterion(report, 3, "marginal recovery", ["marginal_recovery["])
    assert all(c.tolerance == 1e-7 for c in checks)


def test_criterion_04_classical_reduction(report):
    checks = _criterion(report, 4, "classical reduction", ["classical_reduction["])
    tols = {c.name: c.tolerance for c in checks}
    assert tols["classical_reduction[hbar=0]"] == 1e-12
    assert tols["classical_reduction[harmonic]"] == 1e-9


def test_criterion_05_kernel_expansion(report):
    checks = _criterion(report, 5, "generating-function expansion", ["kernel_expansion["])
    tols = {c.name: c.tolerance for c in checks}
    assert tols["kernel_expansion[c2]"] == 2e-3
    assert tols["kernel_expansion[c4]"] == 5e-2


def test_criterion_06_cross_cumulant(report):
    checks = _criterion(report, 6, "cross-cumulant", ["cross_cumulant["])
    by_name = {c.name: c for c in checks}
    assert by_name["cross_cumulant[negative]"].measured < 0
    assert by_name["cross_cumulant[scaling]"].tolerance == 1e-4
    assert by_name["cross_cumulant[oracle]"].tolerance == 1e-5
    # the nominal constant is recorded next to the measurement, not asserted
    gap = by_name["cross_cumulant[reference_gap]"]
    assert gap.passed and abs(gap.measured - (0.5 - 1.0 / 6.0)) < 1e-3


def test_criterion_07_heisenberg(report):
    checks = _criterion(report, 7, "spread-of-squares inequality", ["heisenberg["])
    for c in checks:
        if "[product]" in c.name:
            assert c.measured >= 0.0  # lhs exceeds hbar^2/2 on these presets


def test_criterion_08_classical_scaling(report):
    _criterion(report, 8, "hbar^2 departure scaling", ["classical_scaling["])


def test_criterion_09_dynamics_oracles(report):
    checks = _criterion(report, 9, "dynamics oracles", ["dynamics["])
    tols = {c.name: c.tolerance for c in checks}
    assert tols["dynamics[free_shear]"] == 1e-6
    assert tols["dynamics[harmonic_center]"] == 1e-4
    assert tols["dynamics[probability_drift]"] == 1e-10
    assert tols["dynamics[energy_drift]"] == 1e-6


def test_kernel_expansion_measures_the_cumulants_report(report, tmp_path):
    # verify fits the same generating function the cumulants command writes
    assert main(["cumulants", "--output-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "cumulant_report.csv").read_text().splitlines()[1:]
    written = {name: float(value) for name, value in (line.split(",") for line in lines if line.startswith("phi_"))}
    measured = {c.name: c.measured for c in report.checks}
    assert measured["kernel_expansion[c2]"] == abs(written["phi_c2"] + 1.0 / 24.0) * 24.0
    assert measured["kernel_expansion[c4]"] == abs(written["phi_c4"] + 1.0 / 2880.0) * 2880.0


def _tree_bytes(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        if name == "manifest.json":
            with open(os.path.join(directory, name)) as fh:
                doc = json.load(fh)
            doc.pop("created_at")
            out[name] = json.dumps(doc, sort_keys=True)
            continue
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_criterion_10_determinism(report, tmp_path):
    in_memory = [c for c in report.checks if c.name.startswith("determinism[")]
    assert in_memory and all(c.passed for c in in_memory)
    # full verify twice on disk at a faster resolution; bytes must agree
    cfg = dict(load_config().to_dict())
    cfg["grid"] = {"n2": 64, "n3": 64, "half_width": 8.0}
    cfg["evolution"] = {"dt": 1e-3, "steps": 100, "snapshot_every": 50, "method": "spectral_kernel"}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    first = main(["verify", "--config", str(path), "--output-dir", str(tmp_path / "a")])
    second = main(["verify", "--config", str(path), "--output-dir", str(tmp_path / "b")])
    assert first == second
    assert _tree_bytes(tmp_path / "a") == _tree_bytes(tmp_path / "b")
    print("ACCEPTANCE 10 determinism: PASS (in-memory rebuild + double verify byte-identical)")


def test_overall(report):
    failed = [c.name for c in report.checks if not c.passed]
    print(f"ACCEPTANCE OVERALL: {'PASS' if not failed else 'FAIL'} ({len(report.checks)} checks)")
    assert not failed, failed
