"""The verification pass: its builder calls and its failed rows."""

import pytest

from phasekin import NonConvergenceError, load_config, verification


@pytest.fixture
def no_dynamics(monkeypatch):
    monkeypatch.setattr(verification, "check_dynamics_oracles", lambda config: [])


def _stub_builder(monkeypatch, name, raise_at=None):
    """Wrap ``verification.<name>``; count its calls, raising at ``raise_at``."""
    build = getattr(verification, name)
    calls = []

    def stub(rho, W, hbar):
        calls.append(hbar)
        if hbar == raise_at:
            raise NonConvergenceError(f"stubbed at hbar = {hbar}")
        return build(rho, W, hbar)

    monkeypatch.setattr(verification, name, stub)
    return calls


def _failed(report):
    return {c.name: c.note for c in report.checks if not c.passed}


def test_each_preset_joint_is_built_at_most_twice(monkeypatch, no_dynamics):
    series = _stub_builder(monkeypatch, "quantum_joint_series")
    spectral = _stub_builder(monkeypatch, "quantum_joint_spectral")
    assert verification.run_verification(load_config()).overall_pass
    # three presets and classical_reduction; cross_cumulant adds two spectral builds
    assert len(series) <= 7
    assert len(spectral) <= 6


def test_series_raising_fails_only_the_families_that_use_it(monkeypatch, no_dynamics):
    _stub_builder(monkeypatch, "quantum_joint_series", raise_at=1.0)
    report = verification.run_verification(load_config())
    failed = _failed(report)
    assert set(failed) == {
        "central_equivalence[hbar=1.0]",
        "builder_equivalence[hbar=1.0]",
        "marginal_recovery[hbar=1.0]",
    }
    assert set(failed.values()) == {"NonConvergenceError: stubbed at hbar = 1.0"}
    names = [c.name for c in report.checks]
    assert "heisenberg[cauchy_schwarz][hbar=1.0]" in names and "heisenberg[product][hbar=1.0]" in names
    assert names[:5] == [
        "central_equivalence[hbar=0.5][series]",
        "central_equivalence[hbar=0.5][spectral]",
        "central_equivalence[hbar=1.0]",
        "central_equivalence[hbar=2.0][series]",
        "central_equivalence[hbar=2.0][spectral]",
    ]


def test_spectral_raising_keeps_the_rows_before_it(monkeypatch, no_dynamics):
    _stub_builder(monkeypatch, "quantum_joint_spectral", raise_at=1.0)
    report = verification.run_verification(load_config())
    assert set(_failed(report)) == {
        "central_equivalence[hbar=1.0]",
        "builder_equivalence[hbar=1.0]",
        "marginal_recovery[hbar=1.0]",
        "heisenberg[hbar=1.0]",
        "cross_cumulant",
    }
    names = [c.name for c in report.checks]
    kept = names.index("central_equivalence[hbar=1.0][series]")
    assert report.checks[kept].passed
    assert names[kept + 1] == "central_equivalence[hbar=1.0]"
    assert not any(name.startswith("cross_cumulant[") for name in names)
