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

The package namespace is lazy (PEP 562): `import collapse_lab` imports no
submodule, and each exported name, or submodule name, imports its module
on first access.  A CLI call therefore loads only the modules its
subcommand uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "errors": (
        "BlowUpError", "ConfigError", "ConnectivityError",
        "DegenerateBasisError", "DomainError", "GeometryError",
        "GramConditionWarning", "InvalidMetricError", "NoAsymptoteError",
        "NotInRangeError", "PoleProximityError", "QuotientCollapseError",
        "TangencyError", "TransversalityError", "TrivialSolitonError",
    ),
    "gh_collapse": (
        "CollapseConfig", "CollapseRow", "Correspondence",
        "FiniteMetricSpace", "GridSpec", "QuotientSpec",
        "SurfaceDistanceField", "SurfaceGraph", "build_surface_graph",
        "circle_distance", "collapse_experiment", "distance_field",
        "distortion", "natural_correspondence", "product_distance",
        "quotient_distance", "surface_distances",
    ),
    "killing_quotient": (
        "KillingVector", "OrbitBasis", "PointMetric",
        "circle_quotient_pushforward", "project_onto_complement",
        "quotient_metric_form", "transform_killing",
    ),
    "soliton": (
        "CigarPotential", "ExplodingPotential", "SolitonParams",
        "closed_form_warp", "exploding_identity_residual",
        "radial_laplacian", "soliton_potential", "soliton_residual",
        "solve_warp_ode",
    ),
    "su2_geometry": (
        "BergerMetric", "SlopeAngle", "UnitQuaternion", "berger_norm",
        "bracket_check", "find_submersion_radius", "frame_at", "hopf_map",
        "hopf_pushforward", "quat_mul", "slope_quotient_metric",
        "submersion_distortion", "submersion_fit", "submersion_radius_scan",
    ),
    "warped_metric": (
        "ConstWarp", "LinearWarp", "RotSymMetric", "SinWarp", "SinhWarp",
        "TabulatedWarp", "TanWarp", "TanhWarp", "TransformParams",
        "WarpCurve", "asymptote_radius", "eval_warp", "gauss_curvature",
        "make_warp", "metric_from_warp", "quotient_circle_radius",
        "quotient_transform", "scalar_curvature", "transformed_warp",
        "warp_from_json",
    ),
    "cli": (),
    "schema": (),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = list(_MODULE_OF)


# Nothing is cached here: each access reads the submodule's attribute as it
# is now, so the package never holds a stale copy of a replaced name.
def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name in _MODULE_OF:
        return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_MODULE_OF})
