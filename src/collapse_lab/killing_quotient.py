"""Pointwise linear algebra of circle quotients.

Quotienting (M, g) x S^1(r) by the diagonal action generated by a Killing
field K (slope kappa) changes the metric at each point by a rank-one
correction:

    h = g - kappa^2 / (kappa^2 |K|_g^2 + r^2) * (gK) (gK)^T.

The same tensor arises as the induced metric on the g-orthogonal complement
of the orbit directions inside a product, which quotient_metric_form computes
for an explicit orbit basis; transform_killing and quotient_metric_form agree
wherever both apply, and both stay positive definite with

    lambda_min(h) >= r^2 / (kappa^2 |K|^2 + r^2) * lambda_min(g).

project_onto_complement is the one projector: it factors the orbit Gram
once per call, for a vector or every row of a frame, and both
quotient_metric_form and circle_quotient_pushforward project through it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateBasisError,
    DomainError,
    GramConditionWarning,
    InvalidMetricError,
    TransversalityError,
)

_SYM_TOL = 1e-12
_COND_WARN = 1e12


@dataclass(frozen=True)
class PointMetric:
    """Symmetric positive definite matrix: a metric at one point.

    Construction validates finiteness, symmetry (to 1e-12, relative) and
    positive definiteness (Cholesky), and stores 0.5 (m + m^T), refusing a
    sum that overflows.
    """
    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidMetricError("metric must be a square matrix")
        # np.linalg.cholesky passes inf through instead of failing
        if not np.all(np.isfinite(m)):
            raise InvalidMetricError("metric entries must be finite")
        scale = max(1.0, float(np.max(np.abs(m))))
        # an overflow makes inf, which is refused as asymmetric or below
        with np.errstate(over="ignore"):
            if np.max(np.abs(m - m.T)) > _SYM_TOL * scale:
                raise InvalidMetricError("metric must be symmetric to 1e-12")
            m = 0.5 * (m + m.T)
        if not np.all(np.isfinite(m)):
            raise InvalidMetricError("metric entries overflow in the "
                                     "symmetrisation 0.5 (m + m^T)")
        try:
            np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            raise InvalidMetricError("metric must be positive definite") from None
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def inner(self, x, y) -> float:
        return float(np.asarray(x, dtype=float)
                     @ self.matrix @ np.asarray(y, dtype=float))


@dataclass(frozen=True)
class OrbitBasis:
    """Rows span the orbit directions of the collapsing action at a point.

    Linear independence under the ambient metric (positive definite Gram)
    is enforced where the basis is used, not at construction.
    """
    vectors: np.ndarray

    def __post_init__(self):
        v = np.array(self.vectors, dtype=float)
        if v.ndim != 2:
            raise DomainError("orbit basis must be a 2d array of row vectors")
        if v.shape[0] == 0 or v.shape[0] > v.shape[1]:
            raise DomainError("need 1 <= #vectors <= ambient dimension")
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def _as_metric(g) -> PointMetric:
    return g if isinstance(g, PointMetric) else PointMetric(np.asarray(g))


def _as_vector(v) -> np.ndarray:
    return np.asarray(v, dtype=float)


def transform_killing(g, killing, r: float, kappa: float) -> PointMetric:
    """Pointwise quotient metric h = g - c (gK)(gK)^T with
    c = kappa^2 / (kappa^2 g(K,K) + r^2).

    g is the metric at the point (a PointMetric or a square array),
    killing the components K of the Killing field there (a 1-D array of
    g's dimension), r > 0 the circle radius and kappa >= 0 the slope.
    Identity for kappa = 0 as well as for K = 0.  The result is symmetric
    positive definite whenever g is.  An r^2, kappa^2 or denominator that
    overflows raises DomainError.
    """
    gm = _as_metric(g)
    k = _as_vector(killing)
    if k.shape != (gm.dim,):
        raise DomainError("Killing vector dimension mismatch")
    if r <= 0:
        raise DomainError("need r > 0")
    if kappa < 0:
        raise DomainError("need kappa >= 0")
    gk = gm.matrix @ k
    norm2 = float(k @ gk)
    k2, r2 = kappa * kappa, r * r
    if not (math.isfinite(k2) and math.isfinite(r2)):
        raise DomainError(f"r^2 or kappa^2 overflows (r = {r:g}, "
                          f"kappa = {kappa:g})")
    # an overflowing denominator would give c = 0 silently
    denom = k2 * norm2 + r2
    if not math.isfinite(denom):
        raise DomainError(f"kappa^2 g(K,K) + r^2 overflows (r = {r:g}, "
                          f"kappa = {kappa:g})")
    c = k2 / denom
    h = gm.matrix - c * np.outer(gk, gk)
    return PointMetric(h)


def project_onto_complement(g_prod, basis: OrbitBasis, x) -> np.ndarray:
    """Component of x orthogonal (w.r.t. g_prod) to the orbit basis, for
    one vector x or each row of a (k, n) array x.

    The basis rows are scaled exactly, by powers of two, to max-abs entries
    in [0.5, 1), which the projection does not depend on.  Their Gram
    V G V^T is checked, condition-warned and factored once per call; each
    row then solves (V G V^T) alpha = V G x with the factor and returns
    x - V^T alpha, bit for bit as a call on that row alone.  Idempotent;
    returns the zero vector on basis members.
    """
    gm = _as_metric(g_prod)
    x = _as_vector(x)
    v = basis.vectors
    if v.shape[1] != gm.dim or not 1 <= x.ndim <= 2 or x.shape[-1] != gm.dim:
        raise DomainError("dimension mismatch between metric, basis, vector")
    v = np.ldexp(v, -np.frexp(np.max(np.abs(v), axis=1, keepdims=True))[1])
    rows = x.reshape(-1, gm.dim)
    # an overflowing product is refused below, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        gv = v @ gm.matrix         # (m, n)
        gram = gv @ v.T            # (m, m)
        rhs = [gv @ row for row in rows]
    if not (np.all(np.isfinite(gram)) and np.all(np.isfinite(rhs))):
        raise DomainError("orbit basis and projected vector must be finite")
    cond = np.linalg.cond(gram)
    if cond > _COND_WARN:
        warnings.warn(f"orbit-basis Gram condition {cond:.3g} exceeds 1e12",
                      GramConditionWarning, stacklevel=2)
    try:
        low = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise DegenerateBasisError(
            "orbit basis is metric-degenerate (Gram not SPD)") from None
    proj = [row - v.T @ np.linalg.solve(low.T, np.linalg.solve(low, b))
            for row, b in zip(rows, rhs)]
    return np.reshape(proj, x.shape)


def quotient_metric_form(g_prod, basis: OrbitBasis, frame) -> PointMetric:
    """Quotient metric entries h_ij = g(Xi_perp, Xj_perp) for a frame of
    directions transverse to the orbit basis.

    The basis rows together with the frame rows must span the ambient space
    (otherwise TransversalityError), and the frame must have a row
    (otherwise DomainError); then h is positive definite and is returned
    as a PointMetric.  A frame row whose projection keeps less than
    1 / _COND_WARN (1e-12) of its squared g-norm raises
    TransversalityError too: the projection's rounding can then move
    g(Xi_perp, Xi_perp) by more than about 1e-9 of itself.  The frame is
    projected in one call, so a near-singular orbit Gram warns once.
    """
    gm = _as_metric(g_prod)
    frame = np.asarray(frame, dtype=float)
    if frame.ndim != 2 or frame.shape[1] != gm.dim:
        raise DomainError("frame must be rows of ambient vectors")
    if frame.shape[0] == 0:
        raise DomainError("frame must have at least one row")
    if basis.dim != gm.dim:
        raise DomainError("orbit basis rows must have the metric's dimension")
    if basis.count + frame.shape[0] != gm.dim:
        raise TransversalityError(
            "orbit basis plus frame must have exactly ambient dimension")
    span = np.vstack([basis.vectors, frame])
    if not np.all(np.isfinite(span)):
        raise DomainError("orbit basis or frame has non-finite entries")
    # rank of the rows scaled to unit max norm, so that no row is lost
    # below the tolerance for its scale; a zero row fails before dividing
    scale = np.max(np.abs(span), axis=1, keepdims=True)
    if np.any(scale == 0) or np.linalg.matrix_rank(span / scale) < gm.dim:
        raise TransversalityError("orbit basis plus frame fails to span")
    proj = project_onto_complement(gm, basis, frame)
    # an overflowing form is refused here, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        h = proj @ gm.matrix @ proj.T
    if not np.all(np.isfinite(h)):
        raise DomainError("quotient metric form h_ij = g(Xi_perp, Xj_perp) "
                          "overflows a float")
    # a row's projection is exact to about eps times the row's norm, so
    # h_ii can be off by 2 eps / sqrt(kept) + eps^2 / kept of itself: about
    # 1e-9 at kept = 1 / _COND_WARN, 5e68 at kept = 1e-100; a norm that
    # overflows or underflows leaves h to PointMetric's checks
    with np.errstate(all="ignore"):
        kept = np.diag(h) / np.einsum("ij,jk,ik->i", frame, gm.matrix, frame)
    if np.any(kept < 1.0 / _COND_WARN):
        i = int(np.argmin(kept))
        raise TransversalityError(
            f"frame row {i} is nearly tangent to the orbits: its projection "
            f"keeps {kept[i]:.3g} of its squared norm")
    return PointMetric(h)


def circle_quotient_pushforward(f_val: float, r: float):
    """Pushforward of the coordinate frame under the circle quotient of
    d rho^2 + f^2 d theta^2 + r^2 ds^2 along the unit field
    W = (d_theta + d_s)/sqrt(f^2 + r^2).

    Returns (p_rho, p_theta, p_s, h): the p_* are the images V - g(V, W) W
    of the coordinate vectors in the (rho, theta, s) frame, from one call
    of project_onto_complement, and h is the quotient metric form

        diag(1, r^2 f^2 / (f^2 + r^2))

    assembled from the pushforwards as quotient_metric_form assembles it,
    not from the closed form.  An f^2 + r^2 past the float range raises
    DomainError.
    """
    if f_val <= 0 or r <= 0:
        raise DomainError("need f > 0 and r > 0")
    f2, r2 = f_val * f_val, r * r
    if not f2 + r2 < math.inf:
        raise DomainError(f"f^2 + r^2 overflows (f = {f_val:g}, r = {r:g})")
    g = np.diag([1.0, f2, r2])
    push = project_onto_complement(g, OrbitBasis([[0.0, 1.0, 1.0]]),
                                   np.eye(3))
    return (*push, PointMetric(push[:2] @ g @ push[:2].T))
