"""Bit-exact output formats.

Arrays go to raw little-endian float64 in row-major order with a JSON
sidecar holding shape, axis order, grid definitions, and a SHA-256
checksum; ``hashlib`` (3.4 MiB of OpenSSL) is loaded at the first one,
so a command that writes no array never maps it.  Tabular outputs are
CSV with a header row and 17 significant decimal digits, which
round-trips float64 exactly; a field holding a comma is quoted.  All
rendering is locale-independent.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np


def fmt(value) -> str:
    """Render one value deterministically for CSV output."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return format(float(value), ".17g")


@dataclass(frozen=True)
class RowBlocks:
    """An array of ``shape`` handed over as consecutive blocks of rows of
    its first axis, so that it need never be held whole: ``blocks`` yields
    them in turn, each written before the next is taken."""

    shape: tuple
    blocks: object  # an iterable of arrays

    @property
    def size(self) -> int:
        return math.prod(self.shape)


def _sha256(payload=b""):
    import hashlib  # at the first checksum, not at module load
    return hashlib.sha256(payload)


class ArrayWriter:
    """The payload of one ``.bin`` file, written and hashed a block at a
    time, in place when the block is C-order little-endian float64."""

    def __init__(self, fh):
        self.fh = fh
        self.digest = _sha256()
        self.written = 0

    def write(self, block: np.ndarray) -> None:
        payload = memoryview(np.ascontiguousarray(block, dtype="<f8").reshape(-1)).cast("B")
        self.fh.write(payload)
        self.digest.update(payload)
        self.written += payload.nbytes


def write_array(directory: str, name: str, values, axis_names, grids) -> list:
    """Write name.bin plus a name.json sidecar; returns the paths written.

    ``values`` is an array, written as one block, or a :class:`RowBlocks`,
    written block by block; the file and its checksum are those of the
    whole array either way.  The first array written loads ``hashlib``.
    """
    bin_path = os.path.join(directory, name + ".bin")
    with open(bin_path, "wb") as fh:
        writer = ArrayWriter(fh)
        for block in values.blocks if isinstance(values, RowBlocks) else (values,):
            writer.write(block)
    if writer.written != 8 * values.size:
        raise ValueError(f"{name}: {writer.written} bytes written for an array of shape {tuple(values.shape)}")
    sidecar = {
        "dtype": "float64",
        "byte_order": "little",
        "order": "C",
        "shape": list(values.shape),
        "axis_order": list(axis_names),
        "grids": {
            str(axis): {"n": g.n, "half_width": g.half_width, "step": g.step}
            for axis, g in zip(axis_names, grids)
        },
        "sha256": writer.digest.hexdigest(),
    }
    json_path = os.path.join(directory, name + ".json")
    _write_json(json_path, sidecar)
    return [bin_path, json_path]


def read_array(directory: str, name: str):
    """Load an array written by :func:`write_array`; verifies the checksum (loads ``hashlib``)."""
    with open(os.path.join(directory, name + ".json"), "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    with open(os.path.join(directory, name + ".bin"), "rb") as fh:
        payload = fh.read()
    if _sha256(payload).hexdigest() != meta["sha256"]:
        raise ValueError(f"checksum mismatch for {name}.bin")
    values = np.frombuffer(payload, dtype="<f8").reshape(meta["shape"])
    return values, meta


def write_csv(path: str, header, rows) -> str:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([fmt(v) for v in row] for row in rows)
    return path


def _write_json(path: str, doc: dict) -> str:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def write_manifest(
    directory: str,
    command: str,
    config_dict: dict,
    status: str,
    outputs,
    tool: str,
    version: str,
    error: str | None = None,
) -> str:
    """Manifest echoing the resolved config; the timestamp is the only
    field excluded from determinism comparisons."""
    doc = {
        "tool": tool,
        "version": version,
        "command": command,
        "status": status,
        "config": config_dict,
        "outputs": sorted(os.path.basename(p) for p in outputs),
        "created_at": datetime.now(timezone.utc).isoformat(),
    }
    if error is not None:
        doc["error"] = error
    # written whole or not at all: a reader never sees a half-written manifest
    path = os.path.join(directory, "manifest.json")
    os.replace(_write_json(path + ".tmp", doc), path)
    return path


def write_resolved_config(directory: str, config_dict: dict) -> str:
    """Standalone copy of the resolved config; feeding it back to the CLI
    reproduces the run exactly."""
    return _write_json(os.path.join(directory, "resolved_config.json"), config_dict)
