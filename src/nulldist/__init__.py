"""Convert Lorentzian spacetimes with time functions into metric spaces via
the null distance, and verify causality-encoding and rigidity statements on
analytically known examples."""

from . import errors
from .spacetime import (
    HalfLine,
    MetricForm,
    Spacetime,
    TimeSense,
    builtin,
)
from .timefn import (
    AntiLipschitzReport,
    RegularityReport,
    TimeClaims,
    TimeFunction,
    affine_time,
    check_anti_lipschitz,
    check_regularity,
    coordinate_time,
    cosmological_time_numeric,
    cubed_time,
)
from .grid import (
    CausalGrid,
    GridParams,
    ReachSet,
    StencilSpec,
    build_grid,
    null_distances_from,
    reach,
    refine_schedule,
    shortest_null_path,
)
from .curves import (
    EncodesVerdict,
    NullDistanceResult,
    PiecewiseCausalCurve,
    ball_boundary_sample,
    curve_from_grid_path,
    encodes_causality_test,
    grid_distance_oracle,
    null_distance_result,
    null_length,
    rectifiable_length,
    refine_witness,
    small_zags_check,
    zigzag_decompose,
)
from .optical import (
    NullChart,
    OpticalValue,
    build_chart,
    chart_forward,
    chart_inverse,
    chart_inverse_batch,
    g_R_eval,
    grad_norm_omega,
    lipschitz_estimate,
)
from .shooting import geodesic_shoot
from .isometry import (
    ConformalReport,
    PointMap,
    RigidityVerdict,
    assess_conformal,
    check_preserving,
    coarea_volume_compare,
    conformal_factors,
    dilation_map,
    identity_map,
    rotation_map,
    table_map,
    translation_map,
)
from .scene import Scene

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
