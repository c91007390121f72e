"""caloric: desk-scale numerical verification of heat-semigroup representation.

The package evolves data under the heat semigroup, measures the function-space
conditions that govern when a caloric function is the semigroup image of a
tempered-distribution datum (interior L2 growth, tent-space norms, bmo^{-1},
Schwartz seminorms), checks the interior homotopy identity, recovers initial
data as a functional on probe panels, and exhibits the classical failure
modes (flat-series nonuniqueness, D'-versus-S' convergence).
"""

from .errors import (
    CaloricError,
    CoverageError,
    DataError,
    DomainTooSmallError,
    InsufficientDecayDataError,
    InsufficientResolutionError,
    InvariantViolationError,
)
from .grid import (
    SpaceTimeField,
    SpatialGrid,
    StripSpec,
    field_from_csv,
    field_to_csv,
    gradient,
    integrate_ball,
    integrate_strip_L2,
)
from .norms import (
    BallFamily,
    GrowthFit,
    SpaceTimeRegion,
    TentNormResult,
    bmo_inv_norm,
    caccioppoli_ratio,
    carleson_time_ladder,
    schwartz_seminorm,
    strip_growth_fit,
    tent_norm,
    tent_to_strip_bound,
)
from .probes import (
    SchwartzProbe,
    TestFunction,
    default_schwartz_panel,
    hermite_probe,
)
from .representation import (
    FluxResult,
    HomotopyReport,
    RecoveryResult,
    SnapshotLadder,
    convergence_mode_probe,
    flux_functional,
    homotopy_residual,
    pairing_bound_check,
    recover_initial_data,
    richardson_limit,
    uniqueness_probe,
)
from .semigroup import (
    AnnulusScheme,
    HeatOperatorConfig,
    annulus_decay_check,
    heat_evolve,
    heat_evolve_gradient,
)
from .zoo import (
    CaloricPolynomial,
    DiracDatum,
    Eigenmode,
    ErfFront,
    ExponentialSolution,
    GaussianKernelSolution,
    OscillatorDatum,
    ResidualProbeRegion,
    SchwartzGaussPolyDatum,
    SignDatum,
    TychonoffSolution,
    datum_from_id,
    eval_solution,
    evolve_datum_exact,
    heat_residual,
    sample_solution,
    solution_from_id,
    tychonoff_eval,
)

__version__ = "0.1.0"
