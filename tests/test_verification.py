"""The verification pass: its builder calls, its failed rows and its n^3 memory."""

import dataclasses

import numpy as np
import pytest

from phasekin import NonConvergenceError, cumulants, load_config, parse_config, verification

from reference import peak_traced_bytes


@pytest.fixture
def no_dynamics(monkeypatch):
    monkeypatch.setattr(verification, "check_dynamics_oracles", lambda config: [])


def _stub_builder(monkeypatch, name, raise_at=None):
    """Wrap ``verification.<name>``; count its calls, raising at ``raise_at``
    at the call, before the first block, where a builder refuses."""
    build = getattr(verification, name)
    calls = []

    def stub(rho, W, hbar):
        calls.append(hbar)
        if hbar == raise_at:
            raise NonConvergenceError(f"stubbed at hbar = {hbar}")
        return build(rho, W, hbar)

    monkeypatch.setattr(verification, name, stub)
    return calls


def _stub_planes(monkeypatch, raise_at=None):
    """Wrap ``joint_planes`` where ``verify`` and ``cumulant_pass`` call it;
    count its calls, raising at ``raise_at``."""
    planes = verification.joint_planes
    calls = []

    def stub(rho, W, hbar):
        calls.append(hbar)
        if hbar == raise_at:
            raise NonConvergenceError(f"stubbed at hbar = {hbar}")
        return planes(rho, W, hbar)

    for owner in (verification, cumulants):
        monkeypatch.setattr(owner, "joint_planes", stub)
    return calls


def _failed(report):
    return {c.name: c.note for c in report.checks if not c.passed}


def test_each_preset_joint_is_built_at_most_twice(monkeypatch, no_dynamics):
    series = _stub_builder(monkeypatch, "quantum_joint_series")
    spectral = _stub_builder(monkeypatch, "quantum_joint_spectral")
    assert verification.run_verification(load_config()).overall_pass
    # three presets and classical_reduction; the configured pass builds none
    assert len(series) <= 4
    assert len(spectral) <= 4


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
    # the tie row reads the spectral joint alone: kept, before the failed gap row
    tie = names.index("builder_equivalence[hbar=1.0][factors]")
    assert report.checks[tie].passed and names[tie + 1] == "builder_equivalence[hbar=1.0]"
    assert names[:5] == [
        "central_equivalence[hbar=0.5][series]",
        "central_equivalence[hbar=0.5][spectral]",
        "central_equivalence[hbar=1.0]",
        "central_equivalence[hbar=2.0][series]",
        "central_equivalence[hbar=2.0][spectral]",
    ]


def test_spectral_builder_raising_fails_only_the_streamed_rows(monkeypatch, no_dynamics):
    _stub_builder(monkeypatch, "quantum_joint_spectral", raise_at=1.0)
    report = verification.run_verification(load_config())
    # the preset's spectral planes are the builder's, so its spectral
    # central, tie, marginal and Heisenberg rows fail; the configured pass
    # takes its planes from the factors and stands
    failed = _failed(report)
    assert set(failed) == {
        "central_equivalence[hbar=1.0]",
        "builder_equivalence[hbar=1.0]",
        "marginal_recovery[hbar=1.0]",
        "heisenberg[hbar=1.0]",
    }
    assert set(failed.values()) == {"NonConvergenceError: stubbed at hbar = 1.0"}
    names = [c.name for c in report.checks]
    assert "builder_equivalence[hbar=1.0][factors]" not in names and "cross_cumulant[oracle]" in names
    kept = names.index("central_equivalence[hbar=1.0][series]")
    assert report.checks[kept].passed
    assert names[kept + 1] == "central_equivalence[hbar=1.0]"


def test_spectral_raising_keeps_the_rows_before_it(monkeypatch, no_dynamics):
    calls = _stub_planes(monkeypatch, raise_at=1.0)
    report = verification.run_verification(load_config())
    # only the configured pass calls joint_planes, once, as its first
    # step: the configured hbar is 1, and its planes feed these three families
    assert set(_failed(report)) == {"kernel_expansion", "cross_cumulant", "determinism"}
    assert calls == [1.0]
    names = [c.name for c in report.checks]
    assert report.checks[names.index("central_equivalence[hbar=1.0][spectral]")].passed
    assert report.checks[names.index("classical_scaling[slope]")].passed
    assert not any(name.startswith("cross_cumulant[") for name in names)


@pytest.mark.parametrize(
    "check, joints",
    [
        # both joints stream in step; the series factors and two blocks are held
        ("check_equivalence_presets", 1.0),
        # each hbar = 0 joint against the product, a block at a time
        ("check_classical_reduction", 0.5),
        # the configured pass takes O(n^2) planes from the factors; no joint streams
        ("check_configured_hbar", 0.6),
    ],
)
def test_check_holds_its_joints_one_at_a_time(check, joints):
    n = 64
    config = parse_config({"grid": {"n2": n, "n3": n, "half_width": 8.0}})
    run = getattr(verification, check)
    run(config)
    assert peak_traced_bytes(run, config) <= joints * 8 * n**3


@pytest.mark.parametrize("check", ["check_equivalence_presets", "check_classical_reduction", "check_configured_hbar"])
def test_joint_building_check_holds_under_half_a_joint(check):
    # at n3 = 128 no check holds an n^3 joint: the series factors, O(n^2)
    # sums and a few blocks of rows of R are all that grows with n3
    n = 128
    config = parse_config({"grid": {"n2": n, "n3": n, "half_width": 8.0}})
    run = getattr(verification, check)
    run(config)
    assert peak_traced_bytes(run, config) < 0.5 * 8 * n**3


def _one_ulp_in_a_plane(planes, report, gap):
    """The rebuild with one value of its r-summed plane moved by one ulp."""
    over_r = planes.over_r.copy()
    peak = tuple(n // 2 for n in over_r.shape)
    over_r[peak] = np.nextafter(over_r[peak], np.inf)
    return dataclasses.replace(planes, over_r=over_r), report, gap


def _one_ulp_in_kappa22(planes, report, gap):
    return planes, dataclasses.replace(report, kappa22=np.nextafter(report.kappa22, np.inf)), gap


def _one_ulp_in_the_gap(planes, report, gap):
    return planes, report, np.nextafter(gap, np.inf)


@pytest.mark.parametrize(
    "perturb", [_one_ulp_in_a_plane, _one_ulp_in_kappa22, _one_ulp_in_the_gap], ids=["joint", "kappa22", "gap"]
)
def test_determinism_catches_one_ulp_in_the_rebuild(monkeypatch, perturb):
    rebuild = verification.cumulant_pass
    runs = []

    def stub(rho, W, hbar):
        runs.append(hbar)
        return perturb(*rebuild(rho, W, hbar))

    monkeypatch.setattr(verification, "cumulant_pass", stub)
    [row] = [c for c in verification.check_configured_hbar(load_config()) if c.name.startswith("determinism")]
    assert len(runs) == 1  # the rebuild; the first digest is taken from the rows' planes
    assert (row.name, row.measured, row.passed) == ("determinism[rebuild]", 1.0, False)
    assert row.note == "byte-compare of repeated pipeline"


def test_configured_joint_is_built_twice(monkeypatch, no_dynamics):
    # from its factors, once for the rows and once for the determinism
    # rebuild, plus the hbar/2 planes; 0.75 is none of the preset hbars,
    # and no builder runs at either
    calls = _stub_planes(monkeypatch)
    builds = _stub_builder(monkeypatch, "quantum_joint_spectral")
    verification.run_verification(parse_config({"hbar": 0.75}))
    assert (calls.count(0.75), calls.count(0.375)) == (2, 1)
    assert 0.75 not in builds and 0.375 not in builds


def _configured_rows(report):
    families = ("kernel_expansion", "cross_cumulant", "classical_scaling", "determinism")
    return [c for c in report.checks if c.name.split("[")[0] in families]


@pytest.mark.parametrize(
    "hbar, content, resolved", [(1e-3, None, True), (3e-4, "1.42e-06", True), (1e-4, "1.57e-07", False)]
)
def test_refused_kernel_row_leaves_cross_cumulant_standing(no_dynamics, hbar, content, resolved):
    # at 1e-3 max |ln sinc| on the mask is 1.6e-5, above the content floor,
    # and the row passes; below the floor it refuses on the content alone,
    # though the gap itself still reads rounding, and the other families
    # keep their rows.  At 1e-4 kappa22's own rounding fails the scaling and
    # oracle rows (1.2e-4 and 1.9e-5 against 1e-4 and 1e-5)
    rows = _configured_rows(verification.run_verification(parse_config({"hbar": hbar})))
    refused = f"refused: max |ln sinc| on the mask is {content}, below the content floor 1e-05"
    assert [(c.name, c.passed, c.note) for c in rows if c.name != "classical_scaling[slope]"] == [
        ("kernel_expansion[pointwise]", content is None, refused if content else ""),
        ("cross_cumulant[negative]", True, "requires kappa22 < 0"),
        ("cross_cumulant[scaling]", resolved, "kappa22 at hbar vs hbar/2"),
        ("cross_cumulant[oracle]", resolved, ""),
        ("cross_cumulant[reference_gap]", True, "recorded, not asserted: measured vs nominal -hbar^2/2"),
        ("determinism[rebuild]", True, "byte-compare of repeated pipeline"),
    ]
    assert rows[0].measured <= verification.KERNEL_GAP_TOL
    if hbar == 1e-3:
        assert rows[3].measured < 1e-6  # the oracle resolves kappa22 = -hbar^2/6 at hbar = 1e-3
    assert rows[5].name == "classical_scaling[slope]" and rows[5].passed


def test_moment_guard_fails_every_family_but_the_scan(no_dynamics):
    rows = _configured_rows(verification.run_verification(parse_config({"hbar": 2.0})))
    guard = (
        "DecayGuardError: moment input is not decaying: "
        "boundary magnitude is 2.777e-06 of the global maximum (allowed 1.0e-07)"
    )
    assert [(c.name, c.passed, c.note if not c.passed else "") for c in rows] == [
        ("kernel_expansion", False, guard),
        ("cross_cumulant", False, guard),
        ("classical_scaling[slope]", True, ""),
        ("determinism", False, guard),
    ]


def _raise(*args):
    raise NonConvergenceError("stubbed")


@pytest.mark.parametrize(
    "name, failed",
    [
        ("heisenberg_check", ["kernel_expansion", "determinism"]),
        ("phi_field", ["kernel_expansion", "determinism"]),
        ("phi_gap", ["kernel_expansion", "determinism"]),
        ("classical_limit_scan", ["classical_scaling"]),
        ("joint_inputs", ["kernel_expansion", "cross_cumulant", "classical_scaling", "determinism"]),
    ],
)
def test_raising_step_fails_only_the_families_that_use_it(monkeypatch, no_dynamics, name, failed):
    for owner in (verification, cumulants, verification.ScenarioConfig):
        if hasattr(owner, name):
            monkeypatch.setattr(owner, name, _raise)
    rows = _configured_rows(verification.run_verification(parse_config({"hbar": 0.75})))
    assert [c.name for c in rows if not c.passed] == failed
    assert {c.note for c in rows if not c.passed} == {"NonConvergenceError: stubbed"}


def test_half_hbar_joint_raising_keeps_the_row_before_it(monkeypatch, no_dynamics):
    _stub_planes(monkeypatch, raise_at=0.375)
    rows = _configured_rows(verification.run_verification(parse_config({"hbar": 0.75})))
    assert [c.name for c in rows if not c.passed] == ["cross_cumulant"]
    cross = [c.name for c in rows if c.name.startswith("cross_cumulant")]
    assert cross == ["cross_cumulant[negative]", "cross_cumulant"]
