"""Numerical laboratory for a piecewise-smooth planar map family whose
homoclinic structure supports infinitely many coexisting single-round
periodic attractors.
"""
from .errors import (
    ConfigError,
    DegenerateCoefficientsError,
    EscapeError,
    InsufficientDataError,
    InvalidWindowError,
    ItineraryInvalidError,
    NegativeDiscriminantError,
    NoConvergenceError,
    NotMinimalError,
    ResonanceFormUnavailableError,
    SingularJacobianError,
    SrkLabError,
    StallError,
)
from .manifolds import (
    ManifoldCurve,
    RefinementStats,
    TangencyHit,
    curves_to_csv,
    detect_tangencies,
    invert_return,
    invert_saddle,
    tangencies_to_csv,
    trace_stable,
    trace_unstable,
)
from .mapcore import (
    Jacobian2,
    Point2,
    Rect,
    Region,
    blend_weight,
    eval_map,
    eval_map_arrays,
    eval_return,
    eval_saddle,
    jacobian,
    region_of,
    saddle_power,
    smoothstep,
)
from .orbits import (
    Branch,
    OrbitPoints,
    RootPair,
    ScanRecord,
    ScanResult,
    SRkOrbit,
    assemble_orbit,
    newton_periodic,
    orbits_from_csv,
    orbits_to_csv,
    scan_srk,
    srk_quadratic,
)
from .params import EXAMPLE_CASES, MapParams
from .theory import (
    GrowthDiagnostic,
    TheoryReport,
    Verdict,
    full_report,
    stability_margin,
    trace_growth_experiment,
)
from .stability import (
    AsymptoticPrediction,
    StabilityClass,
    classify,
    orbit_jacobian,
    predict_asymptotics,
)

__version__ = "0.1.0"
