"""Scenario configuration: a single strict JSON document.

Unknown keys are a hard error; silent typos in physics parameters are
the worst failure mode this tool can have.  Validation messages carry
the dotted path of the offending field.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .errors import ConfigError
from .grids import Grid1D, make_grid
from .states import VirtualDensity, WignerDistribution, gaussian_density, gaussian_wigner
from .dynamics import (
    Potential,
    free_potential,
    harmonic_potential,
    potential_from_density,
    quartic_potential,
)

TOOL_NAME = "phasekin"
TOOL_VERSION = "0.1.0"

DEFAULT_SIGMA = 2**-0.5

DEFAULT_CONFIG = {
    "hbar": 1.0,
    "mass": 1.0,
    "epsilon": 1.0,
    "grid": {"n2": 128, "n3": 64, "half_width": 8.0},
    "potential": {"kind": "quartic", "a2": 0.5, "a4": 0.1},
    "rho_preset": {"mean": 0.0, "sigma": 1.0},
    "wigner_preset": {"p0": 0.0, "r0": 0.0, "sigma_p": DEFAULT_SIGMA, "sigma_r": DEFAULT_SIGMA},
    "evolution": {"dt": 1e-3, "steps": 1000, "snapshot_every": 100, "method": "spectral_kernel"},
    "outputs": "out",
    "seed": 0,
}

_POTENTIAL_KEYS = {
    "free": set(),
    "harmonic": {"omega"},
    "quartic": {"a2", "a4"},
    "from_density": set(),
}


def _need_number(value, path, minimum=None, strict_min=False, integer=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    if not integer:
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(f"{path}: must be finite, got an integer beyond the float range") from None
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{path}: must be finite, got {value!r}")
    if integer and int(value) != value:
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if minimum is not None:
        if strict_min and not value > minimum:
            raise ConfigError(f"{path}: must be > {minimum}, got {value!r}")
        if not strict_min and value < minimum:
            raise ConfigError(f"{path}: must be >= {minimum}, got {value!r}")
    return int(value) if integer else value


def _take(section: dict, key: str, path: str):
    if key not in section:
        raise ConfigError(f"{path}.{key}: missing")
    return section[key]


def _reject_unknown(section: dict, allowed, path: str) -> None:
    extra = sorted(set(section) - set(allowed))
    if extra:
        raise ConfigError(f"{path}.{extra[0]}: unknown key")


@dataclass(frozen=True)
class ScenarioConfig:
    hbar: float
    mass: float
    epsilon: float
    n2: int
    n3: int
    half_width: float
    potential: dict = field(default_factory=dict)
    rho_mean: float = 0.0
    rho_sigma: float = 1.0
    p0: float = 0.0
    r0: float = 0.0
    sigma_p: float = DEFAULT_SIGMA
    sigma_r: float = DEFAULT_SIGMA
    dt: float = 1e-3
    steps: int = 1000
    snapshot_every: int = 100
    method: str = "spectral_kernel"
    outputs: str = "out"
    seed: int = 0

    # grid and preset factories -------------------------------------------------

    def grid2(self) -> Grid1D:
        return make_grid(self.n2, self.half_width)

    def grid3(self) -> Grid1D:
        return make_grid(self.n3, self.half_width)

    def rho(self, grid: Grid1D | None = None) -> VirtualDensity:
        return gaussian_density(grid or self.grid3(), self.rho_mean, self.rho_sigma)

    def wigner(self, grid: Grid1D | None = None) -> WignerDistribution:
        g = grid or self.grid2()
        return gaussian_wigner(g, g, self.p0, self.r0, self.sigma_p, self.sigma_r)

    def build_potential(self, grid: Grid1D) -> Potential:
        kind = self.potential["kind"]
        if kind == "free":
            return free_potential(grid)
        if kind == "harmonic":
            return harmonic_potential(grid, self.potential["omega"])
        if kind == "quartic":
            return quartic_potential(grid, self.potential["a2"], self.potential["a4"])
        return potential_from_density(self.rho(grid), self.epsilon)

    def to_dict(self) -> dict:
        return {
            "hbar": self.hbar,
            "mass": self.mass,
            "epsilon": self.epsilon,
            "grid": {"n2": self.n2, "n3": self.n3, "half_width": self.half_width},
            "potential": dict(self.potential),
            "rho_preset": {"mean": self.rho_mean, "sigma": self.rho_sigma},
            "wigner_preset": {
                "p0": self.p0,
                "r0": self.r0,
                "sigma_p": self.sigma_p,
                "sigma_r": self.sigma_r,
            },
            "evolution": {
                "dt": self.dt,
                "steps": self.steps,
                "snapshot_every": self.snapshot_every,
                "method": self.method,
            },
            "outputs": self.outputs,
            "seed": self.seed,
        }


def parse_config(doc: dict) -> ScenarioConfig:
    """Validate a raw configuration document into a ScenarioConfig."""
    if not isinstance(doc, dict):
        raise ConfigError(f"config root: expected an object, got {type(doc).__name__}")
    _reject_unknown(doc, DEFAULT_CONFIG, "config")

    hbar = _need_number(doc.get("hbar", 1.0), "hbar", minimum=0.0)
    mass = _need_number(doc.get("mass", 1.0), "mass", minimum=0.0, strict_min=True)
    epsilon = _need_number(doc.get("epsilon", 1.0), "epsilon")

    grid = doc.get("grid", DEFAULT_CONFIG["grid"])
    if not isinstance(grid, dict):
        raise ConfigError("grid: expected an object")
    _reject_unknown(grid, {"n2", "n3", "half_width"}, "grid")
    n2 = _need_number(grid.get("n2", 128), "grid.n2", minimum=16, integer=True)
    n3 = _need_number(grid.get("n3", 64), "grid.n3", minimum=16, integer=True)
    half_width = _need_number(grid.get("half_width", 8.0), "grid.half_width", minimum=0.0, strict_min=True)
    for name, n in (("grid.n2", n2), ("grid.n3", n3)):
        if n & (n - 1):
            raise ConfigError(f"{name}: must be a power of two, got {n}")
    if n3 > n2:
        raise ConfigError(f"grid.n3: must not exceed grid.n2 ({n3} > {n2})")

    pot = doc.get("potential", DEFAULT_CONFIG["potential"])
    if not isinstance(pot, dict) or "kind" not in pot:
        raise ConfigError("potential.kind: missing")
    kind = pot["kind"]
    if kind not in _POTENTIAL_KEYS:
        raise ConfigError(f"potential.kind: unknown kind {kind!r}")
    _reject_unknown(pot, _POTENTIAL_KEYS[kind] | {"kind"}, "potential")
    potential = {"kind": kind}
    if kind == "harmonic":
        potential["omega"] = _need_number(_take(pot, "omega", "potential"), "potential.omega", 0.0, True)
    if kind == "quartic":
        potential["a2"] = _need_number(_take(pot, "a2", "potential"), "potential.a2")
        potential["a4"] = _need_number(_take(pot, "a4", "potential"), "potential.a4", 0.0, True)

    rho = doc.get("rho_preset", DEFAULT_CONFIG["rho_preset"])
    if not isinstance(rho, dict):
        raise ConfigError("rho_preset: expected an object")
    _reject_unknown(rho, {"mean", "sigma"}, "rho_preset")
    rho_mean = _need_number(rho.get("mean", 0.0), "rho_preset.mean")
    rho_sigma = _need_number(rho.get("sigma", 1.0), "rho_preset.sigma", 0.0, True)

    wig = doc.get("wigner_preset", DEFAULT_CONFIG["wigner_preset"])
    if not isinstance(wig, dict):
        raise ConfigError("wigner_preset: expected an object")
    _reject_unknown(wig, {"p0", "r0", "sigma_p", "sigma_r"}, "wigner_preset")
    p0 = _need_number(wig.get("p0", 0.0), "wigner_preset.p0")
    r0 = _need_number(wig.get("r0", 0.0), "wigner_preset.r0")
    sigma_p = _need_number(wig.get("sigma_p", DEFAULT_SIGMA), "wigner_preset.sigma_p", 0.0, True)
    sigma_r = _need_number(wig.get("sigma_r", DEFAULT_SIGMA), "wigner_preset.sigma_r", 0.0, True)

    evo = doc.get("evolution", DEFAULT_CONFIG["evolution"])
    if not isinstance(evo, dict):
        raise ConfigError("evolution: expected an object")
    _reject_unknown(evo, {"dt", "steps", "snapshot_every", "method"}, "evolution")
    dt = _need_number(evo.get("dt", 1e-3), "evolution.dt", 0.0, True)
    steps = _need_number(evo.get("steps", 1000), "evolution.steps", 1, integer=True)
    snapshot_every = _need_number(evo.get("snapshot_every", 100), "evolution.snapshot_every", 1, integer=True)
    method = evo.get("method", "spectral_kernel")
    if method not in ("series", "spectral_kernel"):
        raise ConfigError(f"evolution.method: must be 'series' or 'spectral_kernel', got {method!r}")

    outputs = doc.get("outputs", "out")
    if not isinstance(outputs, str) or not outputs:
        raise ConfigError(f"outputs: expected a non-empty path string, got {outputs!r}")
    seed = _need_number(doc.get("seed", 0), "seed", integer=True)

    return ScenarioConfig(
        hbar=hbar,
        mass=mass,
        epsilon=epsilon,
        n2=n2,
        n3=n3,
        half_width=half_width,
        potential=potential,
        rho_mean=rho_mean,
        rho_sigma=rho_sigma,
        p0=p0,
        r0=r0,
        sigma_p=sigma_p,
        sigma_r=sigma_r,
        dt=dt,
        steps=steps,
        snapshot_every=snapshot_every,
        method=method,
        outputs=outputs,
        seed=seed,
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
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path!r}: invalid JSON ({exc})") from exc
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        doc[key] = value
    return parse_config(doc)
