"""Left-invariant geometry of the unit quaternions S^3.

The frame F_i(q) = q * e_i (right multiplication by the imaginary units) is
left invariant and satisfies [F_1, F_2] = 2 F_3 cyclically.  A Berger metric
assigns weights (A, B, C) to this frame.  The bundle projection constant
along the F_1 flow q -> q (cos t + e_1 sin t) is

    hopf_map(q) = (2 Re(z w), 2 Im(z w), |z|^2 - |w|^2),
    z = x1 + i x2,  w = x3 + i x4,

a unit 3-vector (it is a fixed rotation of the conjugation image q e_1 q^-1,
hence equivariant under left translations).  Note the invariance under the
F_1 flow forces the product z w here: under (z, w) -> (z e^{it}, w e^{-it})
the combination conj(z) w picks up e^{-2it} and is not constant on fibers.

The map is quadratic, so hopf_pushforward is its exact differential.  It
kills F_1 and maps F_2 and F_3 to orthogonal vectors of length 2, so a
horizontal Berger-unit vector (c2 F_2 + c3 F_3) / sqrt(B c2^2 + C c3^2) has
pushforward norm 2 hypot(c2, c3) / sqrt(B c2^2 + C c3^2) at every base
point.  For B = C the map becomes a Riemannian submersion onto a round
2-sphere at exactly one target radius, sqrt(B)/2; submersion_fit measures
the failure max_i |R a_i - 1| over a radius scan, given the pushforward
norms a_i of seeded horizontal unit vectors, and returns its exact
minimiser R* = 2 / (a_min + a_max) from the same draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuotientCollapseError, TangencyError

_TANGENT_TOL = 1e-8

# quaternion components ordered (x1, x2, x3, x4) = x1 + x2 i + x3 j + x4 k
_E = np.array([[0.0, 1.0, 0.0, 0.0],
               [0.0, 0.0, 1.0, 0.0],
               [0.0, 0.0, 0.0, 1.0]])


def quat_mul(p, q):
    """Hamilton product of quaternions as length-4 arrays."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return np.array([
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    ])


def _as_quat(q) -> np.ndarray:
    v = np.asarray(q, dtype=float)
    if v.shape != (4,):
        raise DomainError("expected a quaternion (4 components)")
    return v


def frame_at(q) -> np.ndarray:
    """Rows F_1, F_2, F_3 of the left-invariant frame at q (Euclidean
    orthonormal tangent basis)."""
    qv = _as_quat(q)
    return np.array([quat_mul(qv, e) for e in _E])


def _flow(q, i, t):
    """Exact flow of F_{i+1}: right multiplication by cos t + sin t e_i."""
    g = np.zeros(4)
    g[0] = math.cos(t)
    g[i + 1] = math.sin(t)
    return quat_mul(q, g)


_EPS_SIGN = {(0, 1): (2, 1.0), (1, 2): (0, 1.0), (2, 0): (1, 1.0),
             (1, 0): (2, -1.0), (2, 1): (0, -1.0), (0, 2): (1, -1.0)}


def bracket_check(q, i: int, j: int, step: float = 1e-4) -> float:
    """Max deviation of a finite-difference bracket from 2 eps_ijk F_k.

    The bracket is formed from the commutator of the exact one-parameter
    flows, symmetrized so the leading error is O(step^2):

        (c(step) + c(-step) - 2q) / (2 step^2),
        c(s) = q e^{s e_i} e^{s e_j} e^{-s e_i} e^{-s e_j}.

    i = j returns the deviation from the zero field.  Indices are 1-based.
    """
    qv = _as_quat(q)
    if i not in (1, 2, 3) or j not in (1, 2, 3):
        raise DomainError("frame indices are 1, 2, 3")
    if step <= 0:
        raise DomainError("need step > 0")

    def commutator(s):
        c = _flow(qv, i - 1, s)
        c = _flow(c, j - 1, s)
        c = _flow(c, i - 1, -s)
        c = _flow(c, j - 1, -s)
        return c

    # difference against q before summing to avoid losing the O(s^2) signal
    delta = (commutator(step) - qv) + (commutator(-step) - qv)
    approx = delta / (2.0 * (step * step))
    if i == j:
        expected = np.zeros(4)
    else:
        k, sign = _EPS_SIGN[(i - 1, j - 1)]
        expected = 2.0 * sign * quat_mul(qv, _E[k])
    return float(np.max(np.abs(approx - expected)))


@dataclass(frozen=True)
class BergerMetric:
    """Left-invariant metric diag(A, B, C) in the frame F_1, F_2, F_3."""
    A: float
    B: float
    C: float

    def __post_init__(self):
        if self.A <= 0 or self.B <= 0 or self.C <= 0:
            raise DomainError("Berger weights must be positive")


def berger_norm(metric: BergerMetric, q, v) -> float:
    """Norm of a tangent vector at q: sqrt(A c1^2 + B c2^2 + C c3^2) with
    c_i the frame coefficients.  v must be tangent (|<v, q>| <= 1e-8)."""
    qv = _as_quat(q)
    vv = np.asarray(v, dtype=float)
    if vv.shape != (4,):
        raise DomainError("tangent vector needs 4 components")
    if abs(float(vv @ qv)) > _TANGENT_TOL:
        raise TangencyError("vector is not tangent to the sphere at q")
    c = frame_at(qv) @ vv
    return math.sqrt(metric.A * (c[0] * c[0]) + metric.B * (c[1] * c[1])
                     + metric.C * (c[2] * c[2]))


def hopf_map(q) -> np.ndarray:
    """Unit 3-vector constant along the F_1 fiber through q."""
    x1, x2, x3, x4 = _as_quat(q)
    z = complex(x1, x2)
    w = complex(x3, x4)
    zw = z * w
    return np.array([2.0 * zw.real, 2.0 * zw.imag,
                     (x1 * x1 + x2 * x2) - (x3 * x3 + x4 * x4)])


def hopf_pushforward(q, v) -> np.ndarray:
    """Exact differential of hopf_map at q along v.

    The component of v along q is dropped first, so v is read as a tangent
    vector of S^3.  With dz = v1 + i v2 and dw = v3 + i v4 the image is
    (2 Re d(zw), 2 Im d(zw), 2 (x1 v1 + x2 v2 - x3 v3 - x4 v4)), where
    d(zw) = z dw + dz w.
    """
    qv = _as_quat(q)
    vv = np.asarray(v, dtype=float)
    x1, x2, x3, x4 = qv
    v1, v2, v3, v4 = vv - (vv @ qv) * qv
    dzw = complex(x1, x2) * complex(v3, v4) + complex(v1, v2) * complex(x3, x4)
    return np.array([2.0 * dzw.real, 2.0 * dzw.imag,
                     2.0 * (x1 * v1 + x2 * v2 - x3 * v3 - x4 * v4)])


def _pushforward_norms(metric: BergerMetric, count: int,
                       seed: int) -> np.ndarray:
    """Pushforward norms |dH(v)| of count seeded horizontal Berger-unit
    vectors v, in closed form from their frame coefficients (c2, c3).

    Each row of the draw is a base point (4 normals) and then (c1, c2, c3);
    c1 = 0 is Berger-orthogonality to F_1, and the norm does not depend on
    the base point.  All seven columns are drawn so that a seed gives the
    samples it always gave.
    """
    if count < 1:
        raise DomainError("need at least one sample")
    draw = np.random.default_rng(seed).normal(size=(count, 7))
    c2, c3 = draw[:, 5], draw[:, 6]
    return 2.0 * np.hypot(c2, c3) / np.sqrt(metric.B * (c2 * c2)
                                             + metric.C * (c3 * c3))


def _max_distortion(radii, norms):
    """max_i |R a_i - 1| for each radius R > 0 (a scalar radius gives a
    scalar), bit for bit from a_min and a_max: fl(R a) - 1 is monotone."""
    return np.maximum(np.abs(np.multiply(radii, np.min(norms)) - 1.0),
                      np.abs(np.multiply(radii, np.max(norms)) - 1.0))


def submersion_fit(metric: BergerMetric, radii, samples: int = 200,
                   seed: int = 0):
    """Submersion distortion max_i |R a_i - 1| at each radius R, the best
    radius and its distortion, from one draw of the samples.

    For the sampled pushforward norms a_i the distortion max_i |R a_i - 1|
    is convex piecewise linear in R, with the two outer pieces 1 - R a_min
    and R a_max - 1; they cross at the exact minimiser
    R* = 2 / (a_min + a_max), which may lie anywhere in (0, inf).
    """
    radii = np.asarray(radii, dtype=float)
    if np.any(radii <= 0):
        raise DomainError("radii must be positive")
    norms = _pushforward_norms(metric, samples, seed)
    best = 2.0 / (float(np.min(norms)) + float(np.max(norms)))
    return (_max_distortion(radii, norms), best,
            float(_max_distortion(best, norms)))


def slope_quotient_metric(xi: float) -> BergerMetric:
    """Berger family (sin^2 xi, 1, 1) from collapsing the slope-xi direction.

    xi is the slope angle in radians, any float: it is reduced mod 2 pi.
    The first weight is transform_killing's 1 / (kappa^2 + 1) with g = I_3,
    K = e_1, r = 1 and kappa = |cot xi|, taken in its closed form sin^2 xi,
    which does not cancel as xi -> 0.  Slope exactly 0 or pi collapses the
    quotient to two dimensions and raises QuotientCollapseError; a sin^2 xi
    that underflows to 0 raises DomainError.
    """
    angle = float(xi) % (2.0 * math.pi)
    if angle == 0.0 or angle == math.pi:
        raise QuotientCollapseError(
            "slope 0 or pi kills the F_1 direction entirely; the quotient "
            "is two-dimensional")
    s = math.sin(angle)
    a = s * s
    if a == 0.0:
        raise DomainError(f"the Berger weight A = sin^2 xi underflows to 0 "
                          f"(xi = {xi:g})")
    return BergerMetric(A=a, B=1.0, C=1.0)
