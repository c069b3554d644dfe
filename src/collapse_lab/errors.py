"""Exception hierarchy shared by all modules.

Everything raised for a geometric reason derives from GeometryError, so the
CLI can map "the input described something the math refuses" to a single
exit code.  Config/schema problems use ConfigError instead and are treated
as parse failures.
"""


class GeometryError(Exception):
    """Base class for all domain-level failures."""


class DomainError(GeometryError):
    """Evaluation point or interval outside the warp's natural domain."""


class PoleProximityError(GeometryError):
    """Curvature or Laplacian requested where f <= delta_cap and no closed
    form is available."""


class NotInRangeError(GeometryError):
    """Inverse transform applied to a warp that reaches the asymptote r/kappa."""


class NoAsymptoteError(GeometryError):
    """Asymptote radius requested for kappa = 0 (the identity transform)."""


class BlowUpError(GeometryError):
    """Warp ODE integration would run into the finite-time blow-up."""


class InvalidMetricError(GeometryError):
    """Matrix is not symmetric positive definite to tolerance."""


class DegenerateBasisError(GeometryError):
    """Gram matrix of the orbit basis is singular under the ambient metric."""


class TransversalityError(GeometryError):
    """Orbit basis plus candidate frame fails to span the ambient space."""


class TangencyError(GeometryError):
    """Vector handed to a sphere operation is not tangent at the base point."""


class QuotientCollapseError(GeometryError):
    """Slope angle 0 or pi: the three-dimensional quotient degenerates."""


class GramConditionWarning(UserWarning):
    """Orbit-basis Gram matrix is nearly singular (condition > 1e12)."""


class ConfigError(Exception):
    """CLI configuration is malformed (not a GeometryError on purpose)."""
