"""One benchmark operation in a fresh interpreter: run phasekin CLI commands.

Usage: ``python3 bench/child.py SPEC.json``.  The spec names the package
source directory, the CLI argument lists to pass to
``phasekin.cli.main`` in order, the mode and the result path:

* ``plain``: only the command entry functions are wrapped, to stamp where
  set-up ends; this is the untraced measurement.
* ``spans``: every public function is wrapped and its spans are kept.
* ``memory``: as ``spans``, with tracemalloc peaks per call.

The result JSON holds the import time, each command's start, first
layer call, end and exit code, the process's peak RSS and, for the
traced modes, the spans.  A fresh process per operation is required: the
peak only ever grows within one process.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import tracemalloc
import traceback


def peak_rss_kib() -> int:
    """High-water resident set of this process's own address space, in KiB.

    ``VmHWM`` rather than ``ru_maxrss``: Linux carries the parent's
    high-water mark into ``ru_maxrss`` across (v)fork and exec, so a
    child of a large parent would report the parent's peak.
    """
    try:
        with open("/proc/self/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(spec_path: str) -> int:
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import spans

    started = time.monotonic()
    import phasekin.cli

    import_s = time.monotonic() - started
    mode = spec["mode"]
    recorder = spans.Recorder(spec["run_id"], memory=mode == "memory")
    spans.install(recorder, only=spans.COMMAND_ENTRIES if mode == "plain" else None)
    if mode == "memory":
        tracemalloc.start()

    commands = []
    for argv in spec["commands"]:
        first = len(recorder.spans)
        record = {"argv": argv, "start": time.monotonic(), "exit_code": None, "error": None}
        try:
            record["exit_code"] = phasekin.cli.main(argv)
        except Exception:  # any escape from the CLI is a failed operation, not a crash of the benchmark
            record["error"] = traceback.format_exc(limit=5)
        record["end"] = time.monotonic()
        entries = [s[1] for s in recorder.spans[first:] if s[0] in spans.COMMAND_ENTRIES]
        record["first_layer"] = entries[0] if entries else None
        commands.append(record)

    if mode == "memory":
        tracemalloc.stop()
    result = {
        "mode": mode,
        "import_s": import_s,
        "commands": commands,
        "peak_rss_kib": peak_rss_kib(),
        "spans": recorder.spans if mode != "plain" else [],
    }
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
