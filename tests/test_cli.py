"""Command surface, config validation, serialization, and determinism."""

import csv
import errno
import json
import os
import re
import subprocess
import sys
import types

import numpy as np
import pytest

import phasekin
from phasekin import (
    ConfigError,
    ImaginaryResidueError,
    __version__,
    load_config,
    parse_config,
    runner,
    serialization,
    verification,
)
from phasekin.cli import main
from phasekin.config import DEFAULT_CONFIG, RUN_TIME_BUDGET_SECONDS, SECONDS_PER_STEP_UNIT
from phasekin.runner import OUTPUT_FILE
from phasekin.grids import make_grid
from phasekin.serialization import RowBlocks, read_array, write_array

from reference import peak_traced_bytes

FAST_GRID = {"n2": 32, "n3": 32, "half_width": 8.0}
FAST_EVOLUTION = {"dt": 1e-3, "steps": 20, "snapshot_every": 10, "method": "spectral_kernel"}


def write_config(tmp_path, name="config.json", **overrides):
    doc = json.loads(json.dumps(DEFAULT_CONFIG))
    doc["grid"] = dict(FAST_GRID)
    doc["evolution"] = dict(FAST_EVOLUTION)
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def manifest_without_timestamp(directory):
    with open(os.path.join(directory, "manifest.json")) as fh:
        doc = json.load(fh)
    doc.pop("created_at")
    return doc


def tree_bytes(directory, skip=("manifest.json",)):
    out = {}
    for name in sorted(os.listdir(directory)):
        if name in skip:
            continue
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


class TestConfigValidation:
    def test_defaults_load(self):
        config = load_config()
        assert config.hbar == 1.0
        assert config.n2 == 128 and config.n3 == 64

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="hbarr"):
            parse_config({"hbarr": 1.0})

    def test_unknown_nested_key_has_path(self):
        with pytest.raises(ConfigError, match=r"grid\.n4"):
            parse_config({"grid": {"n2": 64, "n4": 8}})

    def test_n3_must_not_exceed_n2(self):
        with pytest.raises(ConfigError, match=r"grid\.n3"):
            parse_config({"grid": {"n2": 32, "n3": 64, "half_width": 8.0}})

    def test_negative_hbar_rejected(self):
        with pytest.raises(ConfigError, match="hbar"):
            parse_config({"hbar": -1.0})

    @pytest.mark.parametrize("method", ["rk4", "series"])
    def test_bad_method(self, method):
        # spectral_kernel is the one kick generator; saved configs may still name it
        assert parse_config({"evolution": {"method": "spectral_kernel"}}).method == "spectral_kernel"
        with pytest.raises(ConfigError, match=r"^evolution\.method: must be one of spectral_kernel"):
            parse_config({"evolution": {"method": method}})

    def test_quartic_needs_positive_a4(self):
        with pytest.raises(ConfigError, match=r"potential\.a4"):
            parse_config({"potential": {"kind": "quartic", "a2": 0.5, "a4": 0.0}})

    def test_harmonic_requires_omega(self):
        with pytest.raises(ConfigError, match=r"potential\.omega"):
            parse_config({"potential": {"kind": "harmonic"}})

    def test_power_of_two_enforced(self):
        with pytest.raises(ConfigError, match=r"grid\.n2"):
            parse_config({"grid": {"n2": 100, "n3": 16, "half_width": 8.0}})

    def test_json_infinity_in_integer_field_rejected(self):
        doc = json.loads('{"grid": {"n2": Infinity, "n3": 16, "half_width": 8.0}}')
        with pytest.raises(ConfigError, match=r"^grid\.n2: must be finite"):
            parse_config(doc)

    def test_integer_beyond_float_range_in_integer_field_rejected(self):
        doc = json.loads('{"grid": {"n2": 3' + "0" * 400 + ', "n3": 16, "half_width": 8.0}}')
        with pytest.raises(ConfigError, match=r"^grid\.n2: must be a power of two"):
            parse_config(doc)

    def test_integer_beyond_float_range_in_float_field_rejected(self):
        doc = json.loads('{"hbar": 1' + "0" * 400 + "}")
        with pytest.raises(ConfigError, match=r"^hbar: must be finite"):
            parse_config(doc)

    @pytest.mark.parametrize(
        "preset, rule",
        [
            ({"rho_preset": {"mean": 1.0, "sigma": 1.0}}, "rho_preset: |mean| + 8 sigma"),
            ({"wigner_preset": {"p0": 2.5}}, "wigner_preset: |p0| + 8 sigma_p"),
            ({"wigner_preset": {"r0": -2.5}}, "wigner_preset: |r0| + 8 sigma_r"),
        ],
    )
    def test_preset_outside_the_box_rejected(self, preset, rule):
        with pytest.raises(ConfigError) as info:
            parse_config(preset)
        assert str(info.value).startswith(f"{rule} must not exceed grid.half_width = 8.0")

    def test_preset_touching_the_box_accepted(self):
        # the rule is |mean| + 8 sigma <= half_width, equality allowed
        config = parse_config({"rho_preset": {"mean": 2.0, "sigma": 0.75}, "grid": {"half_width": 8.0}})
        assert config.rho_mean + 8.0 * config.rho_sigma == config.half_width

    def test_round_trip_through_dict(self):
        config = load_config()
        assert parse_config(config.to_dict()) == config


class TestJointCommand:
    def test_smoke(self, tmp_path):
        cfg = write_config(tmp_path, outputs=str(tmp_path / "out"))
        assert main(["joint", "--config", cfg]) == 0
        out = tmp_path / "out"
        for name in (
            "f_series.bin",
            "f_series.json",
            "f_spectral.bin",
            "f_spectral.json",
            "marginal_residuals.csv",
            "manifest.json",
            "resolved_config.json",
        ):
            assert (out / name).exists()
        values, meta = read_array(str(out), "f_spectral")
        assert meta["axis_order"] == ["R", "p", "r"]
        assert values.shape == (32, 32, 32)
        residuals = (out / "marginal_residuals.csv").read_text().splitlines()
        assert residuals[0] == "builder,marginal,linf_residual"
        worst = max(float(line.split(",")[2]) for line in residuals[1:])
        assert worst < 1e-7

    def test_residuals_are_those_of_the_written_arrays(self, tmp_path):
        # the CSV's residuals come from the planes the builders return; each
        # must be that of the array on disk, its marginal summed whole here
        out = tmp_path / "out"
        assert main(["joint", "--output-dir", str(out)]) == 0
        rho, W = load_config().joint_inputs()
        with open(out / "marginal_residuals.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        for row in rows:
            F, _ = read_array(str(out), f"f_{row['builder']}")
            if row["marginal"] == "over_R":
                residual = np.abs(F.sum(axis=0) * rho.grid.step - W.values).max()
            else:
                residual = np.abs(F.sum(axis=(1, 2)) * (W.grid_p.step * W.grid_r.step) - rho.values).max()
            assert abs(float(row["linf_residual"]) - residual) <= 1e-15, row

    def test_hbar_override(self, tmp_path):
        cfg = write_config(tmp_path, outputs=str(tmp_path / "out"))
        assert main(["joint", "--config", cfg, "--hbar", "0.0"]) == 0
        with open(tmp_path / "out" / "manifest.json") as fh:
            assert json.load(fh)["config"]["hbar"] == 0.0
        a, _ = read_array(str(tmp_path / "out"), "f_series")
        b, _ = read_array(str(tmp_path / "out"), "f_spectral")
        assert np.abs(a - b).max() < 1e-12

    def test_seed_key_and_flag_are_gone(self, tmp_path):
        with pytest.raises(ConfigError, match="seed"):
            parse_config({"seed": 0})
        cfg = write_config(tmp_path, outputs=str(tmp_path / "out"))
        with pytest.raises(SystemExit) as exc:
            main(["joint", "--config", cfg, "--seed", "99"])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_version_is_the_package_version(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == f"phasekin {__version__}"
        cfg = write_config(tmp_path, outputs=str(tmp_path / "out"))
        assert main(["joint", "--config", cfg]) == 0
        assert manifest_without_timestamp(tmp_path / "out")["version"] == __version__

    def test_unwritable_output_dir(self, tmp_path):
        # a path through a regular file can never become a directory
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        cfg = write_config(tmp_path, outputs=str(blocker / "out"))
        assert main(["joint", "--config", cfg]) == 2
        assert blocker.read_text() == ""  # no partial files anywhere
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "config.json"]


class TestSimulateCommand:
    def test_smoke(self, tmp_path):
        cfg = write_config(tmp_path, outputs=str(tmp_path / "out"))
        assert main(["simulate", "--config", cfg]) == 0
        out = tmp_path / "out"
        conserved = (out / "conserved.csv").read_text().splitlines()
        assert conserved[0] == "time,total_probability,mean_energy"
        assert len(conserved) == 1 + 3  # t = 0, 0.01, 0.02 at snapshot_every=10
        probs = [float(line.split(",")[1]) for line in conserved[1:]]
        assert max(abs(p - 1.0) for p in probs) < 1e-10
        assert (out / "w_000000.bin").exists() and (out / "w_000002.bin").exists()

    def test_rerun_leaves_no_stale_snapshots(self, tmp_path):
        out = tmp_path / "out"
        long_run = write_config(
            tmp_path, "long.json", outputs=str(out), evolution=dict(FAST_EVOLUTION, snapshot_every=2)
        )
        assert main(["simulate", "--config", long_run]) == 0
        assert (out / "w_000010.bin").exists()
        (out / "unrelated.bin").write_text("kept")
        assert main(["simulate", "--config", write_config(tmp_path, outputs=str(out))]) == 0
        with open(out / "manifest.json") as fh:
            listed = {name for name in json.load(fh)["outputs"] if name.startswith("w_")}
        present = {p.name for p in out.iterdir() if p.name.startswith("w_")}
        assert present == listed == {f"w_00000{i}.{ext}" for i in range(3) for ext in ("bin", "json")}
        assert (out / "unrelated.bin").read_text() == "kept"

    def test_aborted_run_clears_the_snapshots_it_wrote(self, tmp_path, monkeypatch):
        # each snapshot is written as it is taken; at 32^2 this width trips
        # the snapshot guard at the fourth, t = 0.046875, and the abort
        # clears the three already on disk
        on_disk = []
        write = runner.write_array

        def recording(directory, *args):
            try:
                return write(directory, *args)
            finally:
                on_disk.append(sorted(os.listdir(directory)))

        monkeypatch.setattr(runner, "write_array", recording)
        out = tmp_path / "out"
        doc = {
            "outputs": str(out),
            "grid": {"n2": 32, "n3": 32, "half_width": 8.0},
            "potential": {"kind": "free"},
            "wigner_preset": {"sigma_p": 0.75, "sigma_r": 0.5},
            "evolution": {"dt": 0.015625, "steps": 3, "snapshot_every": 1},
        }
        (tmp_path / "narrow.json").write_text(json.dumps(doc))
        assert main(["simulate", "--config", str(tmp_path / "narrow.json")]) == 3
        snapshots = [f"w_00000{i}.{ext}" for i in range(3) for ext in ("bin", "json")]
        assert on_disk == [snapshots[:2], snapshots[:4], snapshots]
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "resolved_config.json"]
        manifest = manifest_without_timestamp(out)
        assert manifest["status"] == "aborted" and manifest["outputs"] == ["resolved_config.json"]
        assert manifest["error"].startswith("decay guard violated at t = 0.046875: ")

    def test_memory_does_not_grow_with_the_snapshot_cadence(self, tmp_path, monkeypatch):
        # no snapshot is kept once written: 201 snapshots cost less than one
        # n2^2 array more than 2 do.  What does grow, the paths written and
        # the conserved rows, is about 0.7 of one; relative paths keep the
        # path strings short wherever the temporary directory is
        monkeypatch.chdir(tmp_path)
        n = 128
        peaks = {}
        for every in (1, 200):
            config = parse_config({"grid": {"n2": n, "n3": 64}, "evolution": {"steps": 200, "snapshot_every": every}})
            os.mkdir(str(every))
            runner.run_simulate(config, str(every))
            peaks[every] = peak_traced_bytes(runner.run_simulate, config, str(every))
        assert peaks[1] - peaks[200] < 8 * n**2


class TestCumulantsCommand:
    def test_hbar_zero_report(self, tmp_path):
        cfg = write_config(
            tmp_path,
            outputs=str(tmp_path / "out"),
            grid={"n2": 64, "n3": 64, "half_width": 8.0},
            hbar=0.0,
        )
        assert main(["cumulants", "--config", cfg]) == 0
        report = dict(
            line.split(",")
            for line in (tmp_path / "out" / "cumulant_report.csv").read_text().splitlines()[1:]
        )
        assert abs(float(report["kappa22"])) < 1e-6
        assert float(report["kappa22_reference"]) == 0.0
        assert report["cauchy_schwarz_ok"] == "true"

    def test_default_hbar_report(self, tmp_path):
        cfg = write_config(
            tmp_path,
            outputs=str(tmp_path / "out"),
            grid={"n2": 64, "n3": 64, "half_width": 8.0},
        )
        assert main(["cumulants", "--config", cfg]) == 0
        report = dict(
            line.split(",")
            for line in (tmp_path / "out" / "cumulant_report.csv").read_text().splitlines()[1:]
        )
        assert abs(float(report["kappa22"]) + 1.0 / 6.0) < 1e-4
        assert float(report["kappa22_reference"]) == -0.5
        assert abs(float(report["classical_slope"]) - 2.0) < 0.1


class TestDeterminismAndRoundTrip:
    def test_repeat_runs_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, outputs="ignored")
        assert main(["joint", "--config", cfg, "--output-dir", str(tmp_path / "a")]) == 0
        assert main(["joint", "--config", cfg, "--output-dir", str(tmp_path / "b")]) == 0
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")
        assert manifest_without_timestamp(tmp_path / "a") == manifest_without_timestamp(tmp_path / "b")

    def test_manifest_config_reproduces_run(self, tmp_path):
        cfg = write_config(tmp_path, outputs="ignored")
        assert main(["joint", "--config", cfg, "--output-dir", str(tmp_path / "a")]) == 0
        resolved = str(tmp_path / "a" / "resolved_config.json")
        assert main(["joint", "--config", resolved, "--output-dir", str(tmp_path / "b")]) == 0
        skip = ("manifest.json", "resolved_config.json")
        assert tree_bytes(tmp_path / "a", skip) == tree_bytes(tmp_path / "b", skip)

    def test_checksum_round_trip(self, tmp_path):
        cfg = write_config(tmp_path, outputs=str(tmp_path / "out"))
        main(["joint", "--config", cfg])
        values, meta = read_array(str(tmp_path / "out"), "f_series")
        assert list(values.shape) == meta["shape"]


class TestWriteArray:
    @pytest.mark.parametrize("layout", ["c_order", "fortran", "big_endian", "strided"])
    def test_any_layout_writes_the_c_order_little_endian_bytes(self, tmp_path, layout):
        # whole, or as a stream of blocks of 3 rows (the last one short)
        grid = make_grid(16, 4.0)
        values = np.random.default_rng(5).normal(size=(16, 16, 16))
        other = {
            "c_order": values,
            "fortran": np.asfortranarray(values),
            "big_endian": values.astype(">f8"),
            "strided": np.swapaxes(np.swapaxes(values, 0, 2).copy(), 0, 2),
        }[layout]
        names, grids = ("R", "p", "r"), (grid,) * 3
        write_array(str(tmp_path), "c_order", values, names, grids)
        write_array(str(tmp_path), "other", other, names, grids)
        blocks = RowBlocks(other.shape, (other[start : start + 3] for start in range(0, 16, 3)))
        write_array(str(tmp_path), "blocks", blocks, names, grids)
        _, meta_c = read_array(str(tmp_path), "c_order")
        for name in ("other", "blocks"):
            assert (tmp_path / f"{name}.bin").read_bytes() == (tmp_path / "c_order.bin").read_bytes()
            back, meta = read_array(str(tmp_path), name)
            assert meta == meta_c
            assert np.array_equal(back, values)

    def test_short_stream_is_refused(self, tmp_path):
        grid = make_grid(16, 4.0)
        values = np.zeros((16, 16, 16))
        with pytest.raises(ValueError, match="bytes written for an array of shape"):
            write_array(str(tmp_path), "short", RowBlocks(values.shape, [values[:8]]), ("R", "p", "r"), (grid,) * 3)


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"hbar": -1}))
        assert main(["joint", "--config", str(bad)]) == 2

    def test_json_nan_is_2_and_names_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"hbar": NaN}')
        assert main(["simulate", "--config", str(bad)]) == 2
        assert "hbar: must be finite" in capsys.readouterr().err

    def test_json_integer_beyond_float_range_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"grid": {"n2": 3' + "0" * 400 + "}}")
        assert main(["simulate", "--config", str(bad)]) == 2
        assert "grid.n2: must be a power of two" in capsys.readouterr().err

    def test_hbar_flag_nan_is_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, outputs=str(tmp_path / "out"))
        assert main(["cumulants", "--config", cfg, "--hbar", "nan"]) == 2
        assert "hbar: must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_invalid_json_is_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["joint", "--config", str(bad)]) == 2

    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100000], ids=["not_utf8", "nested_too_deep"])
    def test_unreadable_json_is_2_and_names_file(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert main(["joint", "--config", str(bad), "--output-dir", str(tmp_path / "out")]) == 2
        assert f"config file {str(bad)!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_empty_output_dir_is_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, outputs=str(tmp_path / "out"))
        assert main(["joint", "--config", cfg, "--output-dir", ""]) == 2
        assert "--output-dir" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_preset_outside_the_box_is_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, outputs=str(tmp_path / "out"), rho_preset={"mean": 1.0, "sigma": 1.0})
        assert main(["joint", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "rho_preset" in err and "grid.half_width" in err
        assert not (tmp_path / "out").exists()

    def test_guard_violation_is_3(self, tmp_path):
        # sampling-free guard trip: the series builder diverges at hbar = 2
        # on the default widths
        cfg = write_config(tmp_path, outputs=str(tmp_path / "out"), hbar=2.0)
        assert main(["joint", "--config", cfg]) == 3
        manifest = manifest_without_timestamp(tmp_path / "out")
        assert manifest["status"] == "aborted"
        assert "error" in manifest

    def test_series_kick_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            outputs=str(tmp_path / "out"),
            potential={"kind": "from_density"},
            evolution=dict(FAST_EVOLUTION, method="series"),
        )
        assert main(["simulate", "--config", cfg]) == 2
        assert "config error: evolution.method: must be one of spectral_kernel" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_verify_failure_is_1(self, tmp_path):
        # resolution far too low for the acceptance tolerances
        cfg = write_config(
            tmp_path,
            outputs=str(tmp_path / "out"),
            grid={"n2": 16, "n3": 16, "half_width": 8.0},
        )
        assert main(["verify", "--config", cfg]) == 1
        report = (tmp_path / "out" / "verification_report.csv").read_text()
        assert ",fail," in report

    def test_overrides_on_a_non_object_root_are_2(self, tmp_path, capsys):
        bad = tmp_path / "list.json"
        bad.write_text("[1]")
        assert main(["joint", "--config", str(bad), "--hbar", "1"]) == 2
        assert "config root: expected an object, got list" in capsys.readouterr().err

    # each reaches the overflow or underflow named in the error at this grid;
    # omega**2 overflows in Python's own float arithmetic, not numpy's
    @pytest.mark.parametrize(
        "argv, overrides, code, error",
        [
            (["joint", "--hbar", "1e300"], {}, 3, "series coefficient (hbar/2)^2 overflows"),
            (["simulate", "--hbar", "1e150"], {}, 3, "numpy floating-point error: overflow"),
            (["simulate"], {"potential": {"kind": "harmonic", "omega": 2e154}}, 3, "arithmetic overflow"),
            (["cumulants", "--hbar", "5e-324"], {}, 3, "scan hbar value is 0"),
            (["cumulants", "--hbar", "1.2e-322"], {}, 3, "scan hbar value is 0 or subnormal"),
            (["verify", "--hbar", "1e150"], {}, 1, "NonFiniteError: numpy floating-point error: overflow"),
        ],
        ids=["joint", "simulate", "simulate_omega", "cumulants", "cumulants_subnormal", "verify"],
    )
    def test_non_finite_results_exit_without_traceback(self, tmp_path, argv, overrides, code, error):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, outputs=str(out), **overrides)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(phasekin.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "phasekin.cli", *argv, "--config", cfg],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        manifest = manifest_without_timestamp(out)
        if code == 1:
            assert manifest["status"] == "failed"
            assert error in (out / "verification_report.csv").read_text()
        else:
            assert manifest["status"] == "aborted"
            assert error in manifest["error"]


class TestRunPath:
    def test_joint_then_simulate_leaves_only_simulate_files(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, outputs=str(out))
        assert main(["joint", "--config", cfg]) == 0
        (out / "unrelated.txt").write_text("kept")
        assert main(["simulate", "--config", cfg]) == 0
        listed = set(manifest_without_timestamp(out)["outputs"])
        assert {p.name for p in out.iterdir()} == listed | {"manifest.json", "unrelated.txt"}
        assert "conserved.csv" in listed and not any(name.startswith("f_") for name in listed)
        assert (out / "unrelated.txt").read_text() == "kept"

    @pytest.mark.parametrize("command", ["simulate", "joint", "cumulants", "verify"])
    def test_every_written_name_matches_the_output_pattern(self, tmp_path, command):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, outputs=str(out), grid={"n2": 64, "n3": 64, "half_width": 8.0})
        assert main([command, "--config", cfg]) in (0, 1)  # verify may fail at this grid
        names = {p.name for p in out.iterdir()}
        assert names == set(manifest_without_timestamp(out)["outputs"]) | {"manifest.json"}
        assert all(OUTPUT_FILE.fullmatch(name) for name in names)

    @pytest.mark.parametrize("command", ["simulate", "joint", "cumulants", "verify"])
    def test_every_csv_row_has_the_header_s_fields(self, tmp_path, command):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, outputs=str(out), grid={"n2": 64, "n3": 64, "half_width": 8.0})
        assert main([command, "--config", cfg]) in (0, 1)  # verify may fail at this grid
        tables = {}
        for path in out.glob("*.csv"):
            with open(path, encoding="utf-8", newline="") as fh:
                header, *rows = csv.reader(fh)
            assert rows and all(len(row) == len(header) for row in rows), path.name
            tables[path.name] = {row[0]: row for row in rows}
        assert tables
        if command == "verify":
            note = tables["verification_report.csv"]["cross_cumulant[reference_gap]"][4]
            assert note == "recorded, not asserted: measured vs nominal -hbar^2/2"

    def test_csv_fields_holding_a_comma_or_a_quote_round_trip(self, tmp_path):
        rows = [("a", 0.5, "x, y"), ("b", 2, 'say "so"'), ("c", True, "")]
        path = serialization.write_csv(str(tmp_path / "t.csv"), ("name", "value", "note"), rows)
        with open(path, encoding="utf-8", newline="") as fh:
            read = list(csv.reader(fh))
        assert read == [["name", "value", "note"], ["a", "0.5", "x, y"], ["b", "2", 'say "so"'], ["c", "true", ""]]

    def test_aborted_run_leaves_none_of_the_previous_runs_files(self, tmp_path):
        out = tmp_path / "out"
        assert main(["joint", "--config", write_config(tmp_path, outputs=str(out))]) == 0
        diverging = write_config(tmp_path, "diverging.json", outputs=str(out), hbar=2.0)
        assert main(["joint", "--config", diverging]) == 3
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "resolved_config.json"]
        manifest = manifest_without_timestamp(out)
        assert manifest["status"] == "aborted" and manifest["outputs"] == ["resolved_config.json"]

    def test_joint_aborted_after_its_first_write_leaves_no_arrays(self, tmp_path, monkeypatch):
        # run_joint writes f_series before it builds the spectral joint
        def failing(*args):
            raise ImaginaryResidueError("stubbed failure of the spectral joint")

        monkeypatch.setattr(runner, "quantum_joint_spectral", failing)
        out = tmp_path / "out"
        assert main(["joint", "--config", write_config(tmp_path, outputs=str(out))]) == 3
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "resolved_config.json"]
        manifest = manifest_without_timestamp(out)
        assert manifest["status"] == "aborted" and manifest["outputs"] == ["resolved_config.json"]

    def test_nonconverging_series_aborts_before_f_series_is_written(self, tmp_path, monkeypatch):
        # the series builder takes its verdict at the call, so no array is opened
        written = []
        monkeypatch.setattr(runner, "write_array", lambda *args: written.append(args))
        out = tmp_path / "out"
        assert main(["joint", "--config", write_config(tmp_path, outputs=str(out), hbar=2.0)]) == 3
        assert written == []
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "resolved_config.json"]
        manifest = manifest_without_timestamp(out)
        assert manifest["status"] == "aborted" and manifest["outputs"] == ["resolved_config.json"]
        assert manifest["error"].startswith("derivative series did not converge: last term is")

    def test_failed_array_write_ends_clean(self, tmp_path, monkeypatch, capsys):
        # a full disk mid-array: exit 3, no partial .bin, an aborted manifest
        # naming the directory written into
        def full(self, block):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(serialization.ArrayWriter, "write", full)
        out = tmp_path / "out"
        assert main(["joint", "--config", write_config(tmp_path, outputs=str(out))]) == 3
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "resolved_config.json"]
        manifest = manifest_without_timestamp(out)
        assert manifest["status"] == "aborted" and manifest["outputs"] == ["resolved_config.json"]
        assert "No space left on device" in manifest["error"]
        assert str(out) in manifest["error"]
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_failed_manifest_write_ends_clean(self, tmp_path, monkeypatch, capsys):
        def full(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(runner, "write_manifest", full)
        out = tmp_path / "out"
        assert main(["joint", "--config", write_config(tmp_path, outputs=str(out))]) == 3
        assert list(out.iterdir()) == []  # nothing of a run it could not record
        [line] = capsys.readouterr().err.splitlines()
        assert "No space left on device" in line

    def test_joint_outputs_in_order(self, tmp_path):
        out = tmp_path / "out"
        assert main(["joint", "--config", write_config(tmp_path, outputs=str(out))]) == 0
        assert manifest_without_timestamp(out)["outputs"] == [
            "f_series.bin",
            "f_series.json",
            "f_spectral.bin",
            "f_spectral.json",
            "marginal_residuals.csv",
            "resolved_config.json",
        ]
        rows = (out / "marginal_residuals.csv").read_text().splitlines()
        assert [row.rsplit(",", 1)[0] for row in rows[1:]] == [
            "series,over_R",
            "series,over_pr",
            "spectral,over_R",
            "spectral,over_pr",
        ]

    def test_joint_holds_one_joint_at_a_time(self, tmp_path):
        # each joint is built, written and reduced a block of rows at a time;
        # at n3 = 64 the (N + 1, n^2) series factors alone are near half a joint
        n = 64
        config = parse_config({"grid": {"n2": n, "n3": n, "half_width": 8.0}})
        runner.run_joint(config, str(tmp_path))
        assert peak_traced_bytes(runner.run_joint, config, str(tmp_path)) <= 0.75 * 8 * n**3

    @pytest.mark.parametrize("command", ["run_joint", "run_cumulants"])
    def test_streamed_command_holds_under_half_a_joint(self, tmp_path, command):
        n = 128
        config = parse_config({"grid": {"n2": n, "n3": n, "half_width": 8.0}})
        run = getattr(runner, command)
        run(config, str(tmp_path))
        assert peak_traced_bytes(run, config, str(tmp_path)) < 0.5 * 8 * n**3

    def test_stale_manifest_temp_file_is_cleared(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "manifest.json.tmp").write_text("{half a manif")
        assert main(["joint", "--config", write_config(tmp_path, outputs=str(out))]) == 0
        names = {p.name for p in out.iterdir()}
        assert "manifest.json.tmp" not in names
        assert names == set(manifest_without_timestamp(out)["outputs"]) | {"manifest.json"}

    def test_failing_verify_writes_a_failed_manifest(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, outputs=str(out), grid={"n2": 16, "n3": 16, "half_width": 8.0})
        assert main(["verify", "--config", cfg]) == 1
        manifest = manifest_without_timestamp(out)
        assert manifest["status"] == "failed"
        assert manifest["outputs"] == ["resolved_config.json", "verification_report.csv"]


class TestMemoryBudget:
    @pytest.mark.parametrize(
        "grid, key",
        [
            ({"n2": 2**40, "n3": 2**40}, "grid.n3"),
            ({"n2": 2**40, "n3": 64}, "grid.n2"),
            ({"n2": 1024, "n3": 1024}, "grid.n3"),
            ({"n2": 2**1100, "n3": 16}, "grid.n2"),  # an estimate beyond the float range
        ],
    )
    def test_oversized_grid_is_refused_before_allocating(self, grid, key):
        doc = dict(DEFAULT_CONFIG, grid=dict(DEFAULT_CONFIG["grid"], **grid))

        def refused():
            with pytest.raises(ConfigError, match=rf"^{key}: estimated peak memory .* exceeds the 4 GiB budget"):
                parse_config(doc)

        assert peak_traced_bytes(refused) < 2**20

    def test_largest_grids_inside_the_budget_load(self):
        for grid in ({"n2": 512, "n3": 512}, {"n2": 4096, "n3": 512}, {"n2": 4096, "n3": 64}):
            parse_config(dict(DEFAULT_CONFIG, grid=dict(DEFAULT_CONFIG["grid"], **grid)))

    def test_cli_exits_2_naming_the_grid(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, outputs=str(out), grid={"n2": 2**40, "n3": 2**40, "half_width": 8.0})
        assert main(["joint", "--config", cfg]) == 2
        assert "config error: grid.n3: estimated peak memory" in capsys.readouterr().err
        assert not out.exists()


class TestRunTimeBudget:
    def test_unfinishable_step_count_is_refused(self):
        with pytest.raises(ConfigError, match=r"^evolution\.steps: estimated propagation time inf h"):
            parse_config({"evolution": {"steps": 10**400}})

    @pytest.mark.parametrize("n2", [128, 256, 4096])
    def test_both_sides_of_the_budget(self, n2):
        def doc(steps):
            return {"grid": {"n2": n2, "n3": 64, "half_width": 8.0}, "evolution": {"steps": steps}}

        parse_config(doc(1000))  # the defaults, the benchmark grids and the largest n2 in the memory budget
        limit = int(RUN_TIME_BUDGET_SECONDS / SECONDS_PER_STEP_UNIT) // (n2**2 * (n2.bit_length() - 1))
        assert parse_config(doc(limit)).steps == limit
        with pytest.raises(ConfigError, match=r"^evolution\.steps: .* exceeds the 24 h budget"):
            parse_config(doc(limit + 1))

    def test_cli_exits_2_naming_the_steps(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, outputs=str(out), evolution=dict(FAST_EVOLUTION, steps=10**400))
        assert main(["simulate", "--config", cfg]) == 2
        assert "config error: evolution.steps: estimated propagation time" in capsys.readouterr().err
        assert not out.exists()


class TestDiskBudget:
    @pytest.mark.parametrize(
        "command, evolution, arrays, key",
        [
            ("joint", FAST_EVOLUTION, 2, "grid.n3"),  # two n3^3 joints
            ("simulate", FAST_EVOLUTION, 3, "evolution.snapshot_every"),  # steps 0, 10, 20
            ("simulate", dict(FAST_EVOLUTION, snapshot_every=7), 4, "evolution.snapshot_every"),  # 0, 7, 14, 20
        ],
    )
    def test_a_run_that_does_not_fit_is_refused_before_writing(
        self, tmp_path, monkeypatch, capsys, command, evolution, arrays, key
    ):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, outputs=str(out), evolution=evolution)
        side = FAST_GRID["n3"] if command == "joint" else FAST_GRID["n2"]
        needed = 8 * side ** (3 if command == "joint" else 2) * arrays
        monkeypatch.setattr(runner.shutil, "disk_usage", lambda path: types.SimpleNamespace(free=needed - 1))
        assert main([command, "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key}: {command} writes")
        assert os.listdir(out) == []
        monkeypatch.setattr(runner.shutil, "disk_usage", lambda path: types.SimpleNamespace(free=needed))
        assert main([command, "--config", cfg]) == 0
        assert sum(os.path.getsize(out / name) for name in os.listdir(out) if name.endswith(".bin")) == needed


class TestOracleRunTimeBudget:
    @pytest.mark.parametrize("dt, hours", [(1e-9, r"\d\S*"), (1e-305, "inf"), (5e-324, "inf")])
    def test_verify_refuses_oracles_that_cannot_finish(self, tmp_path, capsys, dt, hours):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, outputs=str(out), evolution=dict(FAST_EVOLUTION, dt=dt))
        assert main(["verify", "--config", cfg]) == 2
        assert re.search(rf"config error: evolution\.dt: estimated propagation time {hours} h", capsys.readouterr().err)
        manifest = manifest_without_timestamp(out)
        assert manifest["status"] == "aborted" and manifest["error"].startswith("evolution.dt:")
        assert not (out / "verification_report.csv").exists()

    # above 4 pi a dt rounds the harmonic period to no steps; each oracle still runs one
    @pytest.mark.parametrize("dt", [13.0, 1e300])
    def test_verify_with_a_dt_longer_than_the_harmonic_period_fails_cleanly(self, tmp_path, dt):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, outputs=str(out), evolution=dict(FAST_EVOLUTION, dt=dt))
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(phasekin.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "phasekin.cli", "verify", "--config", cfg],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert manifest_without_timestamp(out)["status"] == "failed"
        assert "dynamics[harmonic_center],nan,0,fail," in (out / "verification_report.csv").read_text()

    def test_simulate_takes_the_same_dt(self, tmp_path):
        cfg = write_config(tmp_path, outputs=str(tmp_path / "out"), evolution=dict(FAST_EVOLUTION, dt=1e-9))
        assert main(["simulate", "--config", cfg]) == 0

    def test_default_dt_is_inside_the_budget(self, monkeypatch):
        # the checks are stubbed out: only the budget gate in front of them runs
        for name in [n for n in dir(verification) if n.startswith("check_") and n != "check_run_time"]:
            monkeypatch.setattr(verification, name, lambda config: [])
        assert verification.run_verification(parse_config({})).checks == []
        with pytest.raises(ConfigError, match=r"^evolution\.dt: "):
            verification.run_verification(parse_config({"evolution": {"dt": 1e-9}}))


class TestSmallHbar:
    def test_cumulants_at_tiny_hbar_writes_the_gap(self, tmp_path):
        # the gap is a measurement and is written at any hbar; only verify's
        # kernel row refuses where the mask holds too little of ln sinc
        out = tmp_path / "out"
        cfg = write_config(tmp_path, outputs=str(out), grid={"n2": 128, "n3": 64, "half_width": 8.0})
        assert main(["cumulants", "--config", cfg, "--hbar", "1e-4"]) == 0
        assert manifest_without_timestamp(out)["status"] == "complete"
        report = dict(line.split(",") for line in (out / "cumulant_report.csv").read_text().splitlines()[1:])
        assert 0.0 < float(report["phi_gap"]) <= 1e-8
        assert "phi_c2" not in report and "phi_c4" not in report
