"""Scenario configuration: a single strict JSON document.

Unknown keys are a hard error; silent typos in physics parameters are
the worst failure mode this tool can have.  Validation messages carry
the dotted path of the offending field.

Each key is stated once, as a row of :data:`SCHEMA`.  The rows give the
defaults (:data:`DEFAULT_CONFIG`), the validation (:func:`parse_config`),
the resolved document (:meth:`ScenarioConfig.to_dict`) and the key list
of the command-line help (:func:`keys_help`).  Sections other than
``potential`` default key by key; ``potential`` takes its defaults only
when the whole section is omitted, and the parameter keys it takes
depend on its ``kind`` (:data:`POTENTIAL_PARAMS`).

A grid whose estimated peak memory exceeds :data:`MEMORY_BUDGET_BYTES`
is refused before anything is allocated, and a step count whose
estimated propagation time exceeds :data:`RUN_TIME_BUDGET_SECONDS`
before a command starts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import ConfigError
from .grids import Grid1D, make_grid
from .states import VirtualDensity, WignerDistribution, gaussian_density, gaussian_wigner, preset_fits
from .dynamics import (
    Potential,
    free_potential,
    harmonic_potential,
    potential_from_density,
    quartic_potential,
)

TOOL_NAME = "phasekin"

POTENTIAL_KINDS = ("free", "harmonic", "quartic", "from_density")

DEFAULT_SIGMA = 2**-0.5

# Peak resident bytes per grid point above the post-import level, measured
# (numpy 2.4, 64-bit, one BLAS thread, n2 = n3).  No command holds an n^3
# array.  `joint` and `verify` stream their joints a block of rows of R at
# a time, so what grows with n3 is the series factors, (N + 1) n3^2, and
# O(n3^2) planes: per n3^3 point at n3 = 64, 128, 256 and 512, `verify`
# without its dynamics oracles 16, 5.0 (4.1 in another heap layout), 1.7 and
# 0.78, `joint` 10, 3.0, 1.2 and 0.57.
# `cumulants` streams no joint: it takes O(n3^2) planes from the spectral
# joint's factors, and peaks 4.6, 9.9 and 29.5 MiB above the import at
# n3 = 128, 256 and 512 (0.23 bytes per n3^3 point at 512, about seven
# complex n3^2 arrays).  Per n2^2 point on
# `simulate`, whose stepper holds four n2^2 complex arrays while it steps
# (the state, its transposing buffer, the kick and the full stream), three
# while it closes a snapshot, and writes each snapshot as it is taken: 64 at
# n2 = 2048, 73 at 1024, 76 at 512 and 89-90 at 256, where fixed costs
# weigh, alike at a snapshot every step and every 100th.  What exceeds the
# 64 of four arrays is heap the allocator keeps after the buffer is released
# at a snapshot, while an n2^2 array fits under glibc's largest mmap
# threshold, 32 MiB (n2 <= 1024).  Rounded up here: 80 for n2, above the 76
# of n2 = 512, and 8 for n3, 1.6 times the 5.0 of n3 = 128.
BYTES_PER_N3_POINT = 8
BYTES_PER_N2_POINT = 80
MEMORY_BUDGET_BYTES = 4 * 2**30

# Propagation seconds per unit of steps * n2^2 * log2(n2).  Measured at
# n2 = 128 on one pinned CPU (numpy 2.4): 0.32-0.34 ms a step, about 2.9 ns
# a unit.  A unit costs up to 6 times more at n2 = 2048 or on slower hosts,
# so the budget, a day at 2.9 ns, refuses only step counts that cannot finish.
SECONDS_PER_STEP_UNIT = 2.9e-9
RUN_TIME_BUDGET_SECONDS = 24 * 3600

# (dotted path, ScenarioConfig attribute, type or choices, default, bound, help).
# Rows under ``potential`` fill the ``potential`` dict under their attribute;
# a default of None means the key has none.
SCHEMA = (
    ("hbar", "hbar", float, 1.0, ">= 0", "quantum scale"),
    ("mass", "mass", float, 1.0, "> 0", "particle mass"),
    ("epsilon", "epsilon", float, 1.0, None, "contact-coupling strength"),
    ("grid.n2", "n2", int, 128, ">= 16", "points per axis for 2-axis fields, power of two"),
    ("grid.n3", "n3", int, 64, ">= 16", "points per axis for 3-axis fields, power of two, <= n2"),
    ("grid.half_width", "half_width", float, 8.0, "> 0", "box half width L; grids span [-L, L)"),
    ("potential.kind", "kind", POTENTIAL_KINDS, "quartic", None, "potential preset"),
    ("potential.omega", "omega", float, None, "> 0", "harmonic frequency (harmonic only)"),
    ("potential.a2", "a2", float, 0.5, None, "quartic x^2 coefficient (quartic only)"),
    ("potential.a4", "a4", float, 0.1, "> 0", "quartic x^4 coefficient (quartic only)"),
    ("rho_preset.mean", "rho_mean", float, 0.0, None, "Gaussian force-carrier density center"),
    ("rho_preset.sigma", "rho_sigma", float, 1.0, "> 0", "Gaussian force-carrier density width"),
    ("wigner_preset.p0", "p0", float, 0.0, None, "phase-space center in p"),
    ("wigner_preset.r0", "r0", float, 0.0, None, "phase-space center in r"),
    ("wigner_preset.sigma_p", "sigma_p", float, DEFAULT_SIGMA, "> 0", "phase-space width in p"),
    ("wigner_preset.sigma_r", "sigma_r", float, DEFAULT_SIGMA, "> 0", "phase-space width in r"),
    ("evolution.dt", "dt", float, 1e-3, "> 0", "time step"),
    ("evolution.steps", "steps", int, 1000, ">= 1", "step count"),
    ("evolution.snapshot_every", "snapshot_every", int, 100, ">= 1", "snapshot cadence in steps"),
    ("evolution.method", "method", ("spectral_kernel",), "spectral_kernel", None, "kick phase, one generator"),
    ("outputs", "outputs", str, "out", None, "output directory path"),
)

# The parameter keys of the potential kinds that take any.
POTENTIAL_PARAMS = {"harmonic": ("omega",), "quartic": ("a2", "a4")}


def _nest(pairs) -> dict:
    """A nested document from (dotted path, value) pairs."""
    doc = {}
    for path, value in pairs:
        *sections, key = path.split(".")
        node = doc
        for name in sections:
            node = node.setdefault(name, {})
        node[key] = value
    return doc


DEFAULT_CONFIG = _nest((path, default) for path, _, _, default, _, _ in SCHEMA if default is not None)


def keys_help() -> str:
    """One line per schema key: its meaning, bound and default."""
    lines = [
        "configuration keys (JSON document; unknown keys are rejected;",
        "potential takes its defaults only when the whole section is omitted):",
    ]
    for path, _, kind, default, bound, text in SCHEMA:
        if isinstance(kind, tuple):
            text = f"{text}: {' | '.join(kind)}"
        detail = f"{text}, {bound}" if bound else text
        default_text = "no default" if default is None else f"default {json.dumps(default)}"
        lines.append(f"  {path:<25} {detail} ({default_text})")
    return "\n".join(lines) + "\n"


def _check(path, value, kind, bound=None):
    """Validate one value against its schema row's type or choices and bound."""
    if isinstance(kind, tuple):
        if value not in kind:
            raise ConfigError(f"{path}: must be one of {' | '.join(kind)}, got {value!r}")
        return value
    if kind is str:
        if not isinstance(value, str) or not value:
            raise ConfigError(f"{path}: expected a non-empty string, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    if kind is float:
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(f"{path}: must be finite, got an integer beyond the float range") from None
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{path}: must be finite, got {value!r}")
    if kind is int and int(value) != value:
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if bound is not None:
        op, limit = bound.split()
        if not (value > float(limit) if op == ">" else value >= float(limit)):
            raise ConfigError(f"{path}: must be {bound}, got {value!r}")
    return int(value) if kind is int else value


def _reject_unknown(section: dict, allowed, path: str) -> None:
    extra = sorted(set(section) - set(allowed))
    if extra:
        raise ConfigError(f"{path}.{extra[0]}: unknown key")


def _sections(doc: dict) -> dict:
    """Each section's sub-document, by name ("" for the top level), checked
    for shape and unknown keys."""
    _reject_unknown(doc, DEFAULT_CONFIG, "config")
    sections = {"": doc}
    for name, defaults in DEFAULT_CONFIG.items():
        if not isinstance(defaults, dict):
            continue
        if name == "potential":
            section = doc.get(name, defaults)
            if not isinstance(section, dict) or "kind" not in section:
                raise ConfigError("potential.kind: missing")
            kind = _check("potential.kind", section["kind"], POTENTIAL_KINDS)
            allowed = ("kind",) + POTENTIAL_PARAMS.get(kind, ())
        else:
            section = doc.get(name, {})
            if not isinstance(section, dict):
                raise ConfigError(f"{name}: expected an object")
            allowed = [path.split(".")[1] for path, *_ in SCHEMA if path.startswith(name + ".")]
        _reject_unknown(section, allowed, name)
        sections[name] = section
    return sections


@dataclass(frozen=True)
class ScenarioConfig:
    """A validated scenario, built by :func:`parse_config`; see :data:`SCHEMA`."""

    hbar: float
    mass: float
    epsilon: float
    n2: int
    n3: int
    half_width: float
    potential: dict
    rho_mean: float
    rho_sigma: float
    p0: float
    r0: float
    sigma_p: float
    sigma_r: float
    dt: float
    steps: int
    snapshot_every: int
    method: str
    outputs: str

    # grid and preset factories -------------------------------------------------

    def grid2(self) -> Grid1D:
        return make_grid(self.n2, self.half_width)

    def rho(self, grid: Grid1D) -> VirtualDensity:
        return gaussian_density(grid, self.rho_mean, self.rho_sigma)

    def wigner(self, grid: Grid1D) -> WignerDistribution:
        return gaussian_wigner(grid, grid, self.p0, self.r0, self.sigma_p, self.sigma_r)

    def joint_inputs(self) -> tuple:
        """(rho, W) on the 3-axis grid: the inputs of the joint builders."""
        grid = make_grid(self.n3, self.half_width)
        return self.rho(grid), self.wigner(grid)

    def build_potential(self, grid: Grid1D) -> Potential:
        kind = self.potential["kind"]
        if kind == "free":
            return free_potential(grid)
        if kind == "harmonic":
            return harmonic_potential(grid, self.potential["omega"], self.mass)
        if kind == "quartic":
            return quartic_potential(grid, self.potential["a2"], self.potential["a4"])
        return potential_from_density(self.rho(grid), self.epsilon)

    def to_dict(self) -> dict:
        pairs = []
        for path, attr, *_ in SCHEMA:
            if not path.startswith("potential."):
                pairs.append((path, getattr(self, attr)))
            elif attr in self.potential:
                pairs.append((path, self.potential[attr]))
        return _nest(pairs)


def parse_config(doc: dict) -> ScenarioConfig:
    """Validate a raw configuration document into a ScenarioConfig."""
    if not isinstance(doc, dict):
        raise ConfigError(f"config root: expected an object, got {type(doc).__name__}")
    sections = _sections(doc)
    fields, resolved = {"potential": {}}, {}
    for path, attr, kind, default, bound, _ in SCHEMA:
        name, _, key = path.rpartition(".")
        section = sections[name]
        if name != "potential":
            fields[attr] = resolved[path] = _check(path, section.get(key, default), kind, bound)
        elif key == "kind" or key in POTENTIAL_PARAMS.get(section["kind"], ()):
            if key not in section:
                raise ConfigError(f"{path}: missing")
            fields["potential"][attr] = _check(path, section[key], kind, bound)
    for key in ("n2", "n3"):
        if fields[key] & (fields[key] - 1):
            raise ConfigError(f"grid.{key}: must be a power of two, got {fields[key]}")
    if fields["n3"] > fields["n2"]:
        raise ConfigError(f"grid.n3: must not exceed grid.n2 ({fields['n3']} > {fields['n2']})")
    _check_memory(fields["n2"], fields["n3"])
    check_run_time(fields["steps"], fields["n2"])
    for section, center, sigma in (
        ("rho_preset", "mean", "sigma"), ("wigner_preset", "p0", "sigma_p"), ("wigner_preset", "r0", "sigma_r")
    ):
        values = resolved[f"{section}.{center}"], resolved[f"{section}.{sigma}"]
        if not preset_fits(fields["half_width"], *values):
            rule = f"|{center}| + 8 {sigma} must not exceed grid.half_width = {fields['half_width']!r}"
            raise ConfigError(f"{section}: {rule}, got {center} = {values[0]!r}, {sigma} = {values[1]!r}")
    return ScenarioConfig(**fields)


def _check_memory(n2: int, n3: int) -> None:
    """Refuse grids whose estimated peak memory exceeds the budget, naming
    the grid key with the larger share."""
    shares = {"n3": BYTES_PER_N3_POINT * n3**3, "n2": BYTES_PER_N2_POINT * n2**2}
    estimate = sum(shares.values())
    if estimate > MEMORY_BUDGET_BYTES:
        key = max(shares, key=shares.get)
        gib = estimate / 2**30 if estimate < 2**1000 else math.inf  # beyond float range
        raise ConfigError(
            f"grid.{key}: estimated peak memory {gib:.3g} GiB "
            f"exceeds the {MEMORY_BUDGET_BYTES / 2**30:.3g} GiB budget"
        )


def check_run_time(steps, n2: int, key: str = "evolution.steps") -> None:
    """Refuse a step count whose estimated propagation time exceeds the
    budget, naming the config key ``key`` that sets it."""
    units = steps * n2**2 * (n2.bit_length() - 1)
    if units > RUN_TIME_BUDGET_SECONDS / SECONDS_PER_STEP_UNIT:
        hours = units * SECONDS_PER_STEP_UNIT / 3600 if units < 2**1000 else math.inf  # beyond float range
        raise ConfigError(
            f"{key}: estimated propagation time {hours:.3g} h at grid.n2 = {n2} "
            f"exceeds the {RUN_TIME_BUDGET_SECONDS / 3600:.3g} h budget"
        )


def load_config(path: str | None = None, overrides: dict | None = None) -> ScenarioConfig:
    """Load a config file (or the defaults) and apply flag overrides."""
    if path is None:
        doc = json.loads(json.dumps(DEFAULT_CONFIG))
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"config file {path!r}: {exc}") from exc
        except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested too deep
            raise ConfigError(f"config file {path!r}: invalid JSON ({exc})") from exc
    if isinstance(doc, dict):  # any other root is refused by parse_config
        doc.update({key: value for key, value in (overrides or {}).items() if value is not None})
    return parse_config(doc)
