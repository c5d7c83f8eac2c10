"""phasekin benchmark: three CLI workloads, end-to-end metrics and traced per-layer timings.

Usage (from the repository root)::

    python3 bench/run.py --workload evolve|couple|verify --seed N --seconds S --trace 0|1

Each operation runs the workload's CLI command(s) through
``phasekin.cli.main`` in a fresh child process (``bench/child.py``) and
checks the outputs (``bench/workloads.py``).  Operations repeat until
``--seconds`` is used up (at least ``MIN_OPERATIONS``); every figure is
a median over them.

``--trace 0`` reports the end-to-end metrics, measured with tracing off:

* ``setup_s``: child-process start to the first layer call (interpreter
  start, ``import phasekin``, ``load_config``, output-dir preparation);
* ``run_s``: the command(s) from that first layer call to the return of
  ``cli.main``, outputs written;
* ``peak_rss_mb``: the child's peak resident set (``VmHWM``, see
  ``bench/child.py``);
* ``error_rate``: failed over attempted operations.  A failure is a
  nonzero exit, an exception or a failed output gate.  It is printed in
  the summary and carried by ``attempted``/``failed``, not among the
  JSON metrics, because at a correct commit it is 0.

Both times are wall seconds rescaled to the host speed at which
``reference_kernel`` takes ``REFERENCE_S``: the kernel runs before and
after every operation, on the same pinned CPU, and the operation's wall
times are divided by the mean of the two readings over ``REFERENCE_S``.
On a shared host whose speed swings by half for minutes at a time this
keeps run-to-run spread within the bounds; the raw wall figures are
printed, kept in the result record and reported as ``wall.*`` by the
traced run.  The kernel is benchmark code, identical on both sides of
any comparison, so a slower program still reads slower.

``--trace 1`` alternates plain, span-recording and tracemalloc children
and reports the per-layer metrics listed in ``PER_LAYER_UNITS``; the
spans themselves are written beside the result.  ``layer.<module>.self_s``
clips every span to the commands' run windows, so the layers sum to
``trace.run_s`` up to the microseconds between ``cli.main`` returning and
the child's end stamp.  ``trace.unattributed_s`` is ``trace.run_s`` minus
the self times of the listed functions: time in unlisted public functions
(``ScenarioConfig`` factories, grid constructors) and in ``cli.main``
itself.  ``trace.overhead_s`` is the median, over each span-recording
child and the plain child right after it, of traced minus untraced
``run_s``.  Every per-layer time is rescaled like ``run_s``, by its own
child's reference readings; ``wall.*`` and ``reference.kernel_s`` are the
raw wall seconds.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full record, with samples, gate
messages and the environment, goes to ``.bench_work/results/``.  Exits 2
without a result when the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from spans import LAYERS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")

MIN_OPERATIONS = 3
CHILD_TIMEOUT_S = 150.0
RUN_DEADLINE_S = 170.0
# One BLAS/OpenMP thread (never more than nproc): with two OpenBLAS
# threads evolve burns more CPU for no less wall time.
BLAS_THREADS = 1
MIB = 1024.0 * 1024.0
# reference_kernel's time on the host the baseline was recorded on, when
# that host ran at full speed (Xeon, 2 vCPUs; see bench/baseline.json).
REFERENCE_S = 0.2

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MiB"}

_STAT_UNITS = {"self_s": "s", "calls": "count", "steps": "count", "peak_mb": "MiB", "bytes": "bytes_computed"}
_FUNCTION_STATS = (
    ("dynamics.propagate", ("self_s", "calls", "steps")),
    ("dynamics.Potential.samples_at", ("self_s", "calls", "peak_mb")),
    ("dynamics.Potential.derivative_samples", ("self_s",)),
    ("dynamics.moyal_rhs_series", ("self_s",)),
    ("dynamics.moyal_rhs_spectral", ("self_s",)),
    ("dynamics.liouville_rhs", ("self_s",)),
    ("dynamics.collision_rhs", ("self_s",)),
    ("dynamics.analytic_free_evolution", ("self_s",)),
    ("coupling.quantum_joint_spectral", ("self_s", "calls", "peak_mb")),
    ("coupling.quantum_joint_series", ("self_s", "calls", "peak_mb")),
    ("coupling.classical_joint", ("self_s",)),
    ("cumulants.characteristic_function", ("self_s", "peak_mb")),
    ("cumulants.phi_field", ("self_s", "peak_mb")),
    ("cumulants.phi_series_coefficients", ("self_s",)),
    ("cumulants.heisenberg_check", ("self_s",)),
    ("cumulants.kappa22", ("self_s",)),
    ("cumulants.classical_limit_scan", ("self_s",)),
    ("grids.fourier_forward", ("self_s", "calls", "bytes")),
    ("grids.fourier_inverse", ("self_s", "calls", "bytes")),
    ("grids.derivative_array", ("self_s",)),
    ("grids.ensure_decaying", ("self_s", "calls")),
    ("states.gaussian_wigner", ("self_s",)),
    ("states.gaussian_density", ("self_s",)),
    ("states.marginal_over_R", ("self_s",)),
    ("states.marginal_over_pr", ("self_s",)),
    ("states.moments", ("self_s",)),
    ("serialization.write_array", ("self_s", "calls", "bytes")),
    ("serialization.write_csv", ("self_s",)),
    ("serialization.write_manifest", ("self_s",)),
    ("config.load_config", ("self_s",)),
    ("runner.run_simulate", ("self_s",)),
    ("runner.run_joint", ("self_s",)),
    ("runner.run_cumulants", ("self_s",)),
) + tuple(
    (f"verification.check_{name}", ("self_s",))
    for name in (
        "central_equivalence",
        "builder_equivalence",
        "marginal_recovery",
        "classical_reduction",
        "kernel_expansion",
        "cross_cumulant",
        "heisenberg",
        "classical_scaling",
        "dynamics_oracles",
        "determinism",
    )
)


def _per_layer_units() -> dict:
    units = {f"{fn}.{stat}": _STAT_UNITS[stat] for fn, stats in _FUNCTION_STATS for stat in stats}
    units["setup.import_s"] = "s"
    units.update({f"layer.{layer}.self_s": "s" for layer in LAYERS})
    units.update({"trace.run_s": "s", "trace.unattributed_s": "s", "trace.overhead_s": "s"})
    units.update({"wall.setup_s": "s", "wall.run_s": "s", "reference.kernel_s": "s"})
    return units


PER_LAYER_UNITS = _per_layer_units()


def reference_kernel() -> float:
    """Time a fixed, phasekin-independent mix of work; returns seconds.

    Python bytecode, cache-resident FFTs and a 32 MiB memory stream, the
    three kinds of work the workloads are made of.
    """
    import numpy as np

    start = time.monotonic()
    total = 0
    for k in range(800_000):
        total += k & 7
    a = np.exp(1j * np.linspace(0.0, 50.0, 128 * 128)).reshape(128, 128)
    for _ in range(200):
        a = np.fft.ifft(np.fft.fft(a, axis=0), axis=1)
    b = np.ones(4_000_000)
    for _ in range(16):
        b = b * 1.0000001 + 1e-9
    return time.monotonic() - start


# --- environment -------------------------------------------------------------


def _read_first(path: str, prefix: str = "") -> str | None:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line[len(prefix):].strip().lstrip(":").strip()
    except OSError:
        return None
    return None


def environment(workload: str, small: bool) -> dict:
    """Machine and library record written beside every result."""
    import numpy as np

    from workloads import working_set

    cache = "/sys/devices/system/cpu/cpu0/cache"
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    l3 = _read_first(f"{cache}/index3/size")
    arrays = working_set(workload, small)
    l3_mib = int(l3.rstrip("K")) / 1024.0 if l3 and l3.endswith("K") else None
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": _read_first("/proc/cpuinfo", "model name"),
        "l2_size": _read_first(f"{cache}/index2/size"),
        "l3_size": l3,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "working_set_mib": arrays,
        "largest_array_vs_l3": max(arrays.values()) / l3_mib if l3_mib else None,
    }


# --- one operation -----------------------------------------------------------


def run_operation(workload: str, config: dict, index: int, mode: str, deadline: float) -> dict:
    """Run one child; return its timings, peak RSS, spans and gate failures."""
    from workloads import commands, gate

    directory = os.path.join(WORK, workload, f"op{index:03d}")
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    config_path = os.path.join(directory, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(dict(config, outputs=os.path.join(directory, "out")), fh)
    spec_path = os.path.join(directory, "spec.json")
    result_path = os.path.join(directory, "result.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "src": SRC,
                "mode": mode,
                "run_id": f"{workload}-op{index}",
                "result": result_path,
                "commands": commands(workload, config_path, os.path.join(directory, "out")),
            },
            fh,
        )
    env = dict(os.environ)
    env.update(
        {
            "PYTHONPATH": SRC,
            "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
            "OMP_NUM_THREADS": str(BLAS_THREADS),
            "MKL_NUM_THREADS": str(BLAS_THREADS),
        }
    )
    timeout = max(min(CHILD_TIMEOUT_S, deadline - time.monotonic()), 1.0)
    op = {"mode": mode, "failures": []}
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, spec_path],
            env=env,
            cwd=ROOT,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        op["failures"].append(f"child timed out after {timeout:.0f} s")
        return op
    op["elapsed_s"] = time.monotonic() - spawned
    if proc.returncode != 0:
        op["failures"].append(f"child exited {proc.returncode}: {proc.stderr.decode(errors='replace')[-2000:]}")
        return op
    with open(result_path, "r", encoding="utf-8") as fh:
        result = json.load(fh)
    cmds = result["commands"]
    for cmd in cmds:
        if cmd["error"]:
            op["failures"].append(f"{cmd['argv'][0]} raised: {cmd['error']}")
        elif cmd["first_layer"] is None:
            op["failures"].append(f"{cmd['argv'][0]} never reached its layer (exit {cmd['exit_code']})")
    if op["failures"]:
        return op
    op["failures"] = gate(workload, config, os.path.join(directory, "out"), [c["exit_code"] for c in cmds])
    op["wall_setup_s"] = cmds[0]["first_layer"] - spawned
    op["wall_run_s"] = sum(c["end"] - c["first_layer"] for c in cmds)
    op["peak_rss_mb"] = result["peak_rss_kib"] / 1024.0
    op["import_s"] = result["import_s"]
    if result["spans"]:
        op["spans"] = result["spans"]
        op["layers"] = layer_stats(result["spans"], [(c["first_layer"], c["end"]) for c in cmds])
    shutil.rmtree(directory, ignore_errors=True)
    return op


# --- span aggregation --------------------------------------------------------


def _overlap(start: float, end: float, windows) -> float:
    return sum(max(0.0, min(end, w_end) - max(start, w_start)) for w_start, w_end in windows)


def layer_stats(spans: list, windows: list) -> dict:
    """Per-function self time, calls, extras and peaks; per-layer self time in the run windows.

    Self time is a span's duration minus its children's.  Layer totals
    clip every span to the commands' run windows, so they sum to run_s.
    """
    child_time = [0.0] * len(spans)
    child_in_window = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start
            child_in_window[parent] += _overlap(start, end, windows)
    stats = {}
    for i, (name, start, end, _parent, _run, peak, extra) in enumerate(spans):
        fn = stats.setdefault(name, {"self_s": 0.0, "calls": 0, "extra": 0, "peak_mb": 0.0})
        fn["self_s"] += end - start - child_time[i]
        fn["calls"] += 1
        fn["extra"] += extra
        fn["peak_mb"] = max(fn["peak_mb"], peak / MIB)
        layer = stats.setdefault(f"layer.{name.split('.')[0]}", {"self_s": 0.0})
        layer["self_s"] += _overlap(start, end, windows) - child_in_window[i]
    return stats


def per_layer_metrics(ops: list) -> dict:
    """Medians over the traced children of every PER_LAYER_UNITS metric.

    Times are rescaled like ``run_s``, by each child's own ``scale``;
    only ``wall.*`` and ``reference.kernel_s`` are raw wall seconds.
    """
    by_mode = {mode: [op for op in ops if op["mode"] == mode and not op["failures"]] for mode in ("plain", "spans", "memory")}
    values = {}
    for name in PER_LAYER_UNITS:
        owner, _, stat = name.rpartition(".")
        if owner in ("trace", "setup", "wall", "reference"):
            continue
        source = by_mode["memory"] if stat == "peak_mb" else by_mode["spans"]
        key = {"steps": "extra", "bytes": "extra"}.get(stat, stat)
        samples = [op["layers"].get(owner, {}).get(key, 0) * (op["scale"] if stat == "self_s" else 1) for op in source]
        values[name] = statistics.median(samples) if samples else 0.0
    spans_ops = by_mode["spans"]
    listed = [n for n in PER_LAYER_UNITS if n.endswith(".self_s") and not n.startswith(("layer.", "config."))]
    attributed = [sum(op["layers"].get(n.rpartition(".")[0], {}).get("self_s", 0.0) for n in listed) for op in spans_ops]
    values["setup.import_s"] = statistics.median(op["import_s"] * op["scale"] for op in spans_ops + by_mode["plain"])
    values["trace.run_s"] = statistics.median(op["run_s"] for op in spans_ops)
    values["trace.unattributed_s"] = statistics.median(op["run_s"] - a * op["scale"] for op, a in zip(spans_ops, attributed))
    # each span-recording child against the plain child that ran right after it
    pairs = [(a, b) for a, b in zip(ops, ops[1:]) if a["mode"] == "spans" and b["mode"] == "plain" and not (a["failures"] or b["failures"])]
    if pairs:
        values["trace.overhead_s"] = statistics.median(a["run_s"] - b["run_s"] for a, b in pairs)
    for name, key in (("wall.setup_s", "wall_setup_s"), ("wall.run_s", "wall_run_s"), ("reference.kernel_s", "reference_s")):
        values[name] = statistics.median(op[key] for op in by_mode["plain"])
    return values


# --- the run -----------------------------------------------------------------


def _modes(trace: bool):
    if not trace:
        while True:
            yield "plain"
    yield from ("spans", "plain", "memory")
    while True:
        yield from ("spans", "plain")


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    """Run operations for ``seconds`` (at least ``MIN_OPERATIONS``); return the full record."""
    from workloads import make_config

    config = make_config(workload, seed, small)
    shutil.rmtree(os.path.join(WORK, workload), ignore_errors=True)
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    ops = []
    modes = _modes(trace)
    reference_kernel()  # first call pays page faults and FFT planning
    references = [reference_kernel()]
    while True:
        elapsed = time.monotonic() - started
        typical = statistics.median(op.get("elapsed_s", 0.0) for op in ops) if ops else 0.0
        if len(ops) >= MIN_OPERATIONS and elapsed + typical > seconds:
            break
        if ops and elapsed + typical > RUN_DEADLINE_S - 5.0:
            break
        ops.append(run_operation(workload, config, len(ops), next(modes), deadline))
        references.append(reference_kernel())
    shutil.rmtree(os.path.join(WORK, workload), ignore_errors=True)
    for op, before, after in zip(ops, references, references[1:]):
        op["reference_s"] = (before + after) / 2.0
        if "wall_run_s" in op:
            op["scale"] = REFERENCE_S / op["reference_s"]
            op["setup_s"] = op["wall_setup_s"] * op["scale"]
            op["run_s"] = op["wall_run_s"] * op["scale"]

    failed = sum(1 for op in ops if op["failures"])
    good = [op for op in ops if not op["failures"]]
    plain = [op for op in good if op["mode"] == "plain"]
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "config": config,
        "attempted": len(ops),
        "failed": failed,
        "failures": [f for op in ops for f in op["failures"]],
        "samples": {name: [op[name] for op in plain] for name in END_TO_END_UNITS},
        "wall_samples": {name: [op[name] for op in plain] for name in ("wall_setup_s", "wall_run_s", "reference_s")},
        "environment": environment(workload, small),
        "spans": [span for op in ops for span in op.get("spans", [])],
    }
    record["metrics"] = {name: statistics.median(v) for name, v in record["samples"].items() if v}
    if trace and {"plain", "spans", "memory"} <= {op["mode"] for op in good}:
        record["metrics"].update(per_layer_metrics(ops))
    return record


def _summary(record: dict) -> list:
    lines = [
        f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
        f"{record['attempted']} operations, {record['failed']} failed"
    ]
    for name, samples in record["samples"].items():
        if samples:
            lines.append(
                f"  {name:12s} median {statistics.median(samples):.6g} {END_TO_END_UNITS[name]}"
                f"  max {max(samples):.6g}  n={len(samples)}"
            )
    for name, samples in record["wall_samples"].items():
        if samples:
            lines.append(f"  {name:12s} median {statistics.median(samples):.6g} s  max {max(samples):.6g}  (unscaled)")
    lines.append(f"  {'error_rate':12s} {record['failed'] / record['attempted']:.6g} ratio  n={record['attempted']}")
    for message in record["failures"][:5]:
        lines.append(f"  FAIL {message}")
    env = record["environment"]
    lines.append("  env " + " ".join(f"{k}={v}" for k, v in env.items() if k != "working_set_mib"))
    lines.append("  working set (MiB) " + " ".join(f"{k}={v:.3g}" for k, v in env["working_set_mib"].items()))
    return lines


def result_line(record: dict) -> dict:
    """The final stdout object: end-to-end metrics untraced, per-layer traced."""
    units = PER_LAYER_UNITS if record["trace"] else END_TO_END_UNITS
    metrics = {name: {"value": record["metrics"][name], "unit": unit} for name, unit in units.items() if name in record["metrics"]}
    return {
        "correct": record["failed"] == 0 and len(metrics) == len(units),
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("evolve", "couple", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "phasekin", "cli.py")):
        print(f"phasekin source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # one CPU for this process and its children, so each reference reading
    # and the operation beside it see the same core
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    spans = record.pop("spans")
    if spans:
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "run", "peak_bytes", "extra"], "spans": spans}, fh)
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print("\n".join(_summary(record)))
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
