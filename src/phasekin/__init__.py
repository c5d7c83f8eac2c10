"""Phase-space kinetics toolkit.

Builds the joint distribution of a force-carrier position and a real
particle's phase-space point two independent ways, evolves quasi-
probability distributions under classical and quantum transport, and
analyzes the coupling kernel's cumulant structure.
"""

# The one statement of the version; pyproject.toml and the CLI read it.
__version__ = "0.1.0"

from .config import DEFAULT_CONFIG, ScenarioConfig, load_config, parse_config
from .coupling import (
    joint_planes,
    quantum_joint_series,
    quantum_joint_spectral,
    sinc_values,
)
from .cumulants import (
    CumulantReport,
    PhiField,
    classical_limit_scan,
    heisenberg_check,
    kappa22,
    phi_field,
    phi_gap,
)
from .dynamics import (
    EvolutionParams,
    Potential,
    collision_rhs,
    free_potential,
    harmonic_potential,
    liouville_rhs,
    moyal_rhs_spectral,
    potential_from_density,
    propagate,
    quartic_potential,
)
from .errors import (
    ConfigError,
    DecayGuardError,
    DegenerateFitError,
    GridMismatchError,
    ImaginaryResidueError,
    NonConvergenceError,
    NonFiniteError,
    NormalizationError,
    PhasekinError,
)
from .grids import Grid1D, make_grid
from .states import (
    JointPlanes,
    VirtualDensity,
    WignerDistribution,
    gaussian_density,
    gaussian_wigner,
    marginal_over_R,
    marginal_over_pr,
    moments,
)
from .verification import VerificationReport, run_verification
