"""Tests of the benchmark itself, at small grid sizes.

Run from the repository root: ``python3 -m pytest -q bench``.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import workloads  # noqa: E402
from phasekin.cli import main as phasekin_main  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_workload_emits_every_metric(workload):
    record = run.run_benchmark(workload, seed=3, seconds=0, trace=True, small=True)
    assert record["failed"] == 0, record["failures"]
    assert record["attempted"] == 3  # one plain, one span-recording, one tracemalloc child

    untraced = run.result_line(dict(record, trace=0))
    traced = run.result_line(record)
    assert untraced["correct"] and traced["correct"]
    assert set(untraced["metrics"]) == set(run.END_TO_END_UNITS)
    assert set(traced["metrics"]) == set(run.PER_LAYER_UNITS)
    assert all(m["value"] > 0 for m in untraced["metrics"].values())

    metrics = record["metrics"]
    # propagate is reached through runner's and verification's own imports
    assert metrics["dynamics.propagate.calls"] == {"evolve": 1, "couple": 0, "verify": 3}[workload]
    assert (metrics["coupling.quantum_joint_series.calls"] > 0) == (workload != "evolve")
    layers = sum(v for k, v in metrics.items() if k.startswith("layer."))
    assert layers == pytest.approx(metrics["trace.run_s"], abs=1e-3)
    assert 0.0 <= metrics["trace.unattributed_s"] < metrics["trace.run_s"]


def test_benchmark_json_lists_the_emitted_metrics():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_seed_moves_the_inputs_only_where_intended():
    assert workloads.make_config("evolve", 1) != workloads.make_config("evolve", 2)
    assert workloads.make_config("evolve", 1) == workloads.make_config("evolve", 1)
    assert workloads.make_config("verify", 1) == workloads.make_config("verify", 2) == {
        "grid": {"n2": 128, "n3": 64, "half_width": 8.0}
    }
    for seed in range(50):
        couple = workloads.make_config("couple", seed)
        sigma_R, wig = couple["rho_preset"]["sigma"], couple["wigner_preset"]
        assert 8.0 * max(sigma_R, wig["sigma_p"], wig["sigma_r"]) <= couple["grid"]["half_width"]
        assert couple["hbar"] < 2.0 * sigma_R * wig["sigma_p"]
        assert couple["rho_preset"]["mean"] == wig["p0"] == wig["r0"] == 0.0
        assert "seed" not in couple


def _write_config(tmp_path, workload):
    config = workloads.make_config(workload, 5, small=True)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return config, str(path)


def test_corrupted_snapshot_checksum_is_a_failure(tmp_path):
    config, path = _write_config(tmp_path, "evolve")
    [argv] = workloads.commands("evolve", path, str(tmp_path / "out"))
    assert phasekin_main(argv) == 0
    assert workloads.gate("evolve", config, str(tmp_path / "out"), [0]) == []

    snapshot = tmp_path / "out" / "simulate" / "w_000003.bin"
    payload = bytearray(snapshot.read_bytes())
    payload[100] ^= 0x01
    snapshot.write_bytes(bytes(payload))
    failures = workloads.gate("evolve", config, str(tmp_path / "out"), [0])
    assert len(failures) == 1 and "checksum mismatch" in failures[0]


def test_fail_report_row_is_a_failure(tmp_path):
    report = tmp_path / "out" / "verify" / "verification_report.csv"
    report.parent.mkdir(parents=True)
    report.write_text(
        "check,measured,tolerance,status,note\n"
        "builder_equivalence[hbar=1.0],1e-12,1e-08,pass,\n"
        "dynamics[energy_drift],2e-06,1e-06,fail,\n"
    )
    failures = workloads.gate("verify", {}, str(tmp_path / "out"), [0])
    assert failures == ["dynamics[energy_drift]: fail (measured 2e-06, tol 1e-06)"]
    assert workloads.gate("verify", {}, str(tmp_path / "out"), [1]) == ["command 0 exited 1"]
