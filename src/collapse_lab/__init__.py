"""collapse-lab: metric transformations of warped products, their circle
quotients, and numerical Gromov-Hausdorff collapse experiments.

The library has five parts:

* warped_metric  - warp families f(rho), the transform
                   f -> r f / sqrt(kappa^2 f^2 + r^2) in both directions
                   (sign = +1 forward, -1 inverse), Gauss curvature.
* soliton        - the first-order warp ODE f' + A f^2 = B, soliton
                   potentials and residual checks.
* killing_quotient - the pointwise quotient-metric formula for a Killing
                   direction, Gram projections, pushforward forms.
* su2_geometry   - unit quaternions, the left-invariant frame, Berger
                   metrics, the Hopf map and submersion distortion scans.
* gh_collapse    - grid-graph geodesics, finite metric spaces,
                   correspondence distortion, the collapse experiment.

The `collapse-lab` console script (see cli) drives all of it from JSON
configs and writes CSV.
"""

from .errors import (
    BlowUpError,
    ConfigError,
    ConnectivityError,
    DegenerateBasisError,
    DomainError,
    GeometryError,
    GramConditionWarning,
    InvalidMetricError,
    NoAsymptoteError,
    NotInRangeError,
    PoleProximityError,
    QuotientCollapseError,
    TangencyError,
    TransversalityError,
    TrivialSolitonError,
)
from .gh_collapse import (
    CollapseConfig,
    CollapseRow,
    Correspondence,
    FiniteMetricSpace,
    GridSpec,
    QuotientSpec,
    SurfaceDistanceField,
    SurfaceGraph,
    build_surface_graph,
    circle_distance,
    collapse_experiment,
    distance_field,
    distortion,
    natural_correspondence,
    product_distance,
    quotient_distance,
    surface_distances,
)
from .killing_quotient import (
    KillingVector,
    OrbitBasis,
    PointMetric,
    circle_quotient_pushforward,
    project_onto_complement,
    quotient_metric_form,
    transform_killing,
)
from .soliton import (
    CigarPotential,
    ExplodingPotential,
    SolitonParams,
    closed_form_warp,
    exploding_identity_residual,
    radial_laplacian,
    soliton_potential,
    soliton_residual,
    solve_warp_ode,
)
from .su2_geometry import (
    BergerMetric,
    SlopeAngle,
    UnitQuaternion,
    berger_norm,
    bracket_check,
    find_submersion_radius,
    frame_at,
    hopf_map,
    hopf_pushforward,
    quat_mul,
    slope_quotient_metric,
    submersion_distortion,
    submersion_radius_scan,
)
from .warped_metric import (
    ConstWarp,
    LinearWarp,
    RotSymMetric,
    SinWarp,
    SinhWarp,
    TabulatedWarp,
    TanWarp,
    TanhWarp,
    TransformParams,
    WarpCurve,
    asymptote_radius,
    eval_warp,
    gauss_curvature,
    make_warp,
    metric_from_warp,
    quotient_circle_radius,
    quotient_transform,
    scalar_curvature,
    transformed_warp,
    warp_from_json,
)

__version__ = "0.1.0"
