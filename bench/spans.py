"""Span recording around phasekin's public functions, from outside the package.

``install`` wraps every public function and public method defined in the
layer modules, then rebinds each module-level name that refers to a
wrapped function.  The rebinding matters because ``runner``,
``verification`` and ``cli`` import functions by name: wrapping only the
defining module would miss those call sites.

A span is ``[name, start, end, parent, run, peak_bytes, extra]``: times
are ``time.monotonic()`` seconds, ``parent`` is the index of the
enclosing span (-1 for a root), ``run`` the run id, ``peak_bytes`` the
tracemalloc peak above the allocation level at entry (memory mode only)
and ``extra`` a computed count (steps or bytes) for the functions in
``EXTRA``.  Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import tracemalloc

LAYERS = (
    "config",
    "grids",
    "states",
    "coupling",
    "cumulants",
    "dynamics",
    "serialization",
    "runner",
    "verification",
    "cli",
)

# The first call of a command's own work: everything before it inside
# cli.main (argument parsing, load_config, output-dir preparation) is set-up.
COMMAND_ENTRIES = (
    "runner.run_simulate",
    "runner.run_joint",
    "runner.run_cumulants",
    "verification.run_verification",
)


# Computed per-call counts: integration steps, and bytes derived from
# array shapes (input plus output for transforms, payload for writes).
EXTRA = {
    "dynamics.propagate": lambda args, kwargs, result: kwargs.get("params", args[-1]).steps,
    "grids.fourier_forward": lambda args, kwargs, result: args[0].nbytes + result.nbytes,
    "grids.fourier_inverse": lambda args, kwargs, result: args[0].nbytes + result.nbytes,
    "serialization.write_array": lambda args, kwargs, result: args[2].size * 8,
}


class Recorder:
    """Collects spans for wrapped calls; optionally tracks allocation peaks."""

    def __init__(self, run_id: str, memory: bool = False):
        self.run_id = run_id
        self.memory = memory
        self.spans: list = []
        self._stack: list = []
        self._mem_stack: list = []

    def wrap(self, name: str, fn):
        extra = EXTRA.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent, self.run_id, 0, 0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            if self.memory:
                self._enter_memory()
            span[1] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.monotonic()
                self._stack.pop()
                if self.memory:
                    span[5] = self._exit_memory()
            if extra is not None:
                span[6] = int(extra(args, kwargs, result))
            return result

        return traced

    def _enter_memory(self) -> None:
        current, peak = tracemalloc.get_traced_memory()
        if self._mem_stack:
            # the reset below would lose the enclosing call's peak so far
            self._mem_stack[-1][1] = max(self._mem_stack[-1][1], peak)
        tracemalloc.reset_peak()
        self._mem_stack.append([current, current])

    def _exit_memory(self) -> int:
        _, peak = tracemalloc.get_traced_memory()
        entry, running = self._mem_stack.pop()
        top = max(running, peak)
        if self._mem_stack:
            self._mem_stack[-1][1] = max(self._mem_stack[-1][1], top)
        return top - entry


def _public_functions(layer: str, module):
    """Yield (span name, owner, attribute, function) for one layer module."""
    for attr, obj in list(vars(module).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
            yield f"{layer}.{attr}", module, attr, obj
        elif inspect.isclass(obj):
            for method, fn in list(vars(obj).items()):
                if method.startswith("_") or not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn):
                    continue
                yield f"{layer}.{attr}.{method}", obj, method, fn


def install(recorder: Recorder, only=None) -> None:
    """Wrap phasekin's public functions (or just the names in ``only``)."""
    modules = {layer: importlib.import_module(f"phasekin.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, module in modules.items():
        for name, owner, attr, fn in _public_functions(layer, module):
            if only is not None and name not in only:
                continue
            replacement = recorder.wrap(name, fn)
            setattr(owner, attr, replacement)
            wrapped[fn] = replacement
    for key, module in list(sys.modules.items()):
        if key != "phasekin" and not key.startswith("phasekin."):
            continue
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, attr, wrapped[obj])
