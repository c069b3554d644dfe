"""Rotationally symmetric metrics g = d rho^2 + f(rho)^2 d theta^2 and the
circle-quotient transformation that sends the warp f to

    f_new = r * f / sqrt(kappa^2 * f^2 + r^2).

The transformed metric is the one induced on the quotient of (surface) x S^1(r)
by the diagonal circle action of slope kappa = m1/m2.  The map is the identity
for kappa = 0, contracts every warp below the asymptote r/kappa for kappa > 0,
and has an explicit inverse on warps staying strictly below that asymptote:
the same map with kappa^2 negated.  transformed_warp and quotient_transform
therefore serve both directions through one argument, sign = +1 (forward)
or -1 (inverse).

Named warp families are normalized so that f(0) = 0 and f'(0) = 1 whenever the
family can cap off smoothly:

    sinh:   f = sinh(a rho)/a        (curvature -a^2)
    tanh:   f = tanh(a rho)/a        (curvature 2 a^2 sech^2(a rho))
    tan:    f = tan(a rho)/a         (curvature -2 a^2 sec^2(a rho))
    sin:    f = sin(a rho)/a         (curvature a^2)
    const:  f = c                    (flat cylinder)
    linear: f = rho                  (flat disk)

Closed-form families know their own Gauss curvature, so curvature stays exact
at the pole where -f''/f is 0/0 numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DomainError,
    InvalidMetricError,
    NoAsymptoteError,
    NotInRangeError,
    PoleProximityError,
)
from .schema import check_keys, read_number, read_str

# Shared pole tolerance: below this value of f, curvature by -f''/f is not
# trusted and only closed forms are served.  The soliton module imports this
# so both modules agree on what "too close to the pole" means.
DELTA_CAP = 1e-4

_CAP_TOL = 1e-10  # agreement required of f(0), f'(0) for a capped metric


# ---------------------------------------------------------------------------
# warp curves
# ---------------------------------------------------------------------------

class WarpCurve:
    """Profile f > 0 with two derivatives on an interval.

    Subclasses provide vectorized f, df, d2f.  Families with a closed-form
    Gauss curvature override ``curvature`` and set ``has_closed_curvature``.
    """

    kind = "abstract"
    has_closed_curvature = False

    #: natural (maximal) domain of the family; metrics must live inside it
    rho_min = 0.0
    rho_max = math.inf
    #: True when the right end of the natural domain is a blow-up, so a
    #: metric interval must stop strictly before it
    open_right = False

    def f(self, rho):
        raise NotImplementedError

    def df(self, rho):
        raise NotImplementedError

    def d2f(self, rho):
        raise NotImplementedError

    def argmax(self, lo, hi) -> float:
        """The rho in [lo, hi] where f is largest.  This default takes the
        larger end, which is exact for a monotone warp."""
        return hi if self.f(hi) >= self.f(lo) else lo

    def curvature(self, rho):
        """Gauss curvature -f''/f; only closed-form families implement it."""
        raise PoleProximityError(
            f"{self.kind} warp has no closed-form curvature; "
            "evaluate -d2f/f away from the pole instead")

    def caps_at_origin(self) -> bool:
        """True if f(0) = 0, f'(0) = 1 within tolerance (smooth pole)."""
        if self.rho_min > 0:
            return False
        return (abs(float(self.f(0.0))) <= _CAP_TOL
                and abs(float(self.df(0.0)) - 1.0) <= _CAP_TOL)


@dataclass(frozen=True)
class SinhWarp(WarpCurve):
    """f = sinh(a rho)/a, the constant-curvature -a^2 plane."""
    a: float = 1.0
    kind = "sinh"
    has_closed_curvature = True

    def __post_init__(self):
        if self.a <= 0:
            raise DomainError("sinh warp needs a > 0")

    def f(self, rho):
        return np.sinh(self.a * np.asarray(rho, dtype=float)) / self.a

    def df(self, rho):
        return np.cosh(self.a * np.asarray(rho, dtype=float))

    def d2f(self, rho):
        return self.a * np.sinh(self.a * np.asarray(rho, dtype=float))

    def curvature(self, rho):
        return np.full_like(np.asarray(rho, dtype=float), -self.a * self.a)[()]


@dataclass(frozen=True)
class TanhWarp(WarpCurve):
    """f = tanh(a rho)/a, the cigar profile with asymptote 1/a."""
    a: float = 1.0
    kind = "tanh"
    has_closed_curvature = True

    def __post_init__(self):
        if self.a <= 0:
            raise DomainError("tanh warp needs a > 0")

    def f(self, rho):
        return np.tanh(self.a * np.asarray(rho, dtype=float)) / self.a

    # Past a rho ~ 355, cosh^2 overflows to inf and each sech^2 quotient
    # below is its true limit 0, so numpy need not warn of the overflow.

    def df(self, rho):
        with np.errstate(over="ignore"):
            c = np.cosh(self.a * np.asarray(rho, dtype=float))
            return 1.0 / (c * c)

    def d2f(self, rho):
        x = self.a * np.asarray(rho, dtype=float)
        with np.errstate(over="ignore"):
            c = np.cosh(x)
            return -2.0 * self.a * np.tanh(x) / (c * c)

    def curvature(self, rho):
        with np.errstate(over="ignore"):
            c = np.cosh(self.a * np.asarray(rho, dtype=float))
            return (2.0 * self.a * self.a / (c * c))[()]


@dataclass(frozen=True)
class TanWarp(WarpCurve):
    """f = tan(a rho)/a on [0, pi/(2a)); blows up at the right endpoint."""
    a: float = 1.0
    kind = "tan"
    has_closed_curvature = True
    open_right = True

    def __post_init__(self):
        if self.a <= 0:
            raise DomainError("tan warp needs a > 0")

    @property
    def rho_max(self):
        return math.pi / (2.0 * self.a)

    def f(self, rho):
        return np.tan(self.a * np.asarray(rho, dtype=float)) / self.a

    def df(self, rho):
        c = np.cos(self.a * np.asarray(rho, dtype=float))
        return 1.0 / (c * c)

    def d2f(self, rho):
        x = self.a * np.asarray(rho, dtype=float)
        c = np.cos(x)
        return 2.0 * self.a * np.tan(x) / (c * c)

    def curvature(self, rho):
        c = np.cos(self.a * np.asarray(rho, dtype=float))
        return (-2.0 * self.a * self.a / (c * c))[()]


@dataclass(frozen=True)
class SinWarp(WarpCurve):
    """f = sin(a rho)/a on [0, pi/a], the round sphere of curvature a^2."""
    a: float = 1.0
    kind = "sin"
    has_closed_curvature = True

    def __post_init__(self):
        if self.a <= 0:
            raise DomainError("sin warp needs a > 0")

    @property
    def rho_max(self):
        return math.pi / self.a

    def f(self, rho):
        return np.sin(self.a * np.asarray(rho, dtype=float)) / self.a

    def df(self, rho):
        return np.cos(self.a * np.asarray(rho, dtype=float))

    def d2f(self, rho):
        return -self.a * np.sin(self.a * np.asarray(rho, dtype=float))

    def argmax(self, lo, hi) -> float:
        return min(max(math.pi / (2.0 * self.a), lo), hi)

    def curvature(self, rho):
        return np.full_like(np.asarray(rho, dtype=float), self.a * self.a)[()]


@dataclass(frozen=True)
class ConstWarp(WarpCurve):
    """f = c, a flat cylinder of circumference 2 pi c."""
    c: float = 1.0
    kind = "const"
    has_closed_curvature = True
    rho_min = -math.inf

    def __post_init__(self):
        if self.c <= 0:
            raise DomainError("const warp needs c > 0")

    def f(self, rho):
        return np.full_like(np.asarray(rho, dtype=float), self.c)[()]

    def df(self, rho):
        return np.zeros_like(np.asarray(rho, dtype=float))[()]

    def d2f(self, rho):
        return np.zeros_like(np.asarray(rho, dtype=float))[()]

    def curvature(self, rho):
        return np.zeros_like(np.asarray(rho, dtype=float))[()]


@dataclass(frozen=True)
class LinearWarp(WarpCurve):
    """f = rho, the flat plane in polar coordinates."""
    kind = "linear"
    has_closed_curvature = True

    def f(self, rho):
        return np.asarray(rho, dtype=float)[()]

    def df(self, rho):
        return np.ones_like(np.asarray(rho, dtype=float))[()]

    def d2f(self, rho):
        return np.zeros_like(np.asarray(rho, dtype=float))[()]

    def curvature(self, rho):
        return np.zeros_like(np.asarray(rho, dtype=float))[()]


def _not_a_knot_slopes(x: list, h: list, m: list) -> list:
    """Node slopes of the not-a-knot cubic spline through nodes x with
    interval widths h and secant slopes m (lists of floats, len(x) >= 4).

    This is the tridiagonal system scipy.interpolate.CubicSpline solves:
    interior rows

        h_i s_{i-1} + 2 (h_{i-1} + h_i) s_i + h_{i-1} s_{i+1}
            = 3 (h_i m_{i-1} + h_{i-1} m_i)

    and scipy's two not-a-knot end rows (third derivative continuous across
    the second and the second-to-last node), with its order of operations.
    A Thomas sweep solves it without pivoting: for increasing nodes every
    pivot is positive in exact arithmetic (the first is h_1, the second
    h_0 + h_1, each later interior one exceeds 2 h_{i-1} + h_i, which keeps
    the last one positive), so only a spacing in the subnormal range can
    round one to 0.  Where LAPACK's gtsv, which scipy calls, takes no row
    interchange -- on uniform nodes it takes none -- the sweep does its
    arithmetic in its order.  It runs on Python floats, several times
    faster than numpy scalars in a loop.
    """
    e0, e1 = x[2] - x[0], x[-1] - x[-3]
    # forward elimination; row 0 is h_1 s_0 + e0 s_1 = ...
    pivot = [h[1]]
    rhs = [((h[0] + 2.0 * e0) * h[1] * m[0] + h[0] * h[0] * m[1]) / e0]
    upper = e0
    for a, b, ma, mb in zip(h, h[1:], m, m[1:]):    # a = h_{i-1}, b = h_i
        fact = b / pivot[-1]
        pivot.append(2.0 * (a + b) - fact * upper)
        rhs.append(3.0 * (b * ma + a * mb) - fact * rhs[-1])
        upper = a
    # the last row is e1 s_{n-2} + h_{n-2} s_{n-1} = ...
    fact = e1 / pivot[-1]
    pivot.append(h[-2] - fact * upper)
    rhs.append((h[-1] * h[-1] * m[-2] + (2.0 * e1 + h[-1]) * h[-2] * m[-1])
               / e1 - fact * rhs[-1])
    # back substitution; the rows above the last have upper entries e0,
    # then h_0 .. h_{n-3}
    s = [rhs[-1] / pivot[-1]]
    for u, p, r in zip(reversed([e0] + h[:-1]), reversed(pivot[:-1]),
                       reversed(rhs[:-1])):
        s.append((r - u * s[-1]) / p)
    s.reverse()
    return s


class TabulatedWarp(WarpCurve):
    """Warp interpolated from samples with a not-a-knot cubic spline.

    The spline is the one scipy.interpolate.CubicSpline builds by default,
    built here with numpy (see _not_a_knot_slopes); each interval holds a
    cubic in rho - rho_i, and searchsorted finds the interval.  Points
    outside the nodes use the end cubics, so the warp extrapolates as
    CubicSpline does.  On uniform nodes every step repeats scipy's
    arithmetic in scipy's order, so the values can be bit-equal to
    CubicSpline's (they are with scipy 1.17 on x86-64).

    Derivatives come from the spline, so d2f is only second-order accurate
    in the sample spacing; accuracy is the caller's responsibility.  Nodes
    must be finite and increasing, interior sample values positive, and
    the spline coefficients finite (node spacing so fine against the
    values that a coefficient overflows raises DomainError).
    """

    kind = "tabulated"
    has_closed_curvature = False

    def __init__(self, rho_nodes, f_nodes):
        x = np.asarray(rho_nodes, dtype=float)
        y = np.asarray(f_nodes, dtype=float)
        if x.ndim != 1 or x.size < 4:
            raise DomainError("tabulated warp needs at least 4 nodes")
        if y.shape != x.shape:
            raise DomainError("tabulated warp needs one f value per node")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise DomainError("tabulated warp nodes must be finite")
        h = np.diff(x)
        if np.any(h <= 0):
            raise DomainError("tabulated warp nodes must increase")
        if np.any(y[1:-1] <= 0):
            raise DomainError("tabulated warp must be positive on the interior")
        with np.errstate(over="ignore", invalid="ignore"):
            m = np.diff(y) / h
            try:
                s = np.array(_not_a_knot_slopes(x.tolist(), h.tolist(),
                                                m.tolist()))
            except ZeroDivisionError:   # a pivot underflowed to 0
                raise DomainError("tabulated warp node spacing is too fine "
                                  "for the spline solve") from None
            t = (s[:-1] + s[1:] - 2.0 * m) / h
            # rows: the u^3, u^2, u and 1 coefficients of each interval
            coef = np.stack([t / h, (m - s[:-1]) / h - t, s[:-1], y[:-1]])
        if not np.all(np.isfinite(coef)):
            raise DomainError("tabulated warp spline coefficients overflow; "
                              "the node spacing is too fine for the values")
        self.rho_nodes = x
        self.f_nodes = y
        self.rho_min = float(x[0])
        self.rho_max = float(x[-1])
        self._coef = coef

    def _local(self, rho):
        """rho - rho_i and the coefficient rows of rho's interval i."""
        rho = np.asarray(rho, dtype=float)
        i = np.clip(np.searchsorted(self.rho_nodes, rho, side="right") - 1,
                    0, self.rho_nodes.size - 2)
        return rho - self.rho_nodes[i], self._coef[:, i]

    # The cubics are summed in ascending powers, the order scipy's PPoly
    # uses, so equal coefficients give bit-equal values.
    def f(self, rho):
        u, (c3, c2, c1, c0) = self._local(rho)
        u2 = u * u
        return (c0 + c1 * u + c2 * u2 + c3 * (u2 * u))[()]

    def df(self, rho):
        u, (c3, c2, c1, _) = self._local(rho)
        return (c1 + (2.0 * c2) * u + (3.0 * c3) * (u * u))[()]

    def d2f(self, rho):
        u, (c3, c2, _, _) = self._local(rho)
        return (2.0 * c2 + (6.0 * c3) * u)[()]

    def argmax(self, lo, hi) -> float:
        """The largest f among the ends, the nodes inside [lo, hi] and the
        critical points of each interval's cubic there: the roots u in
        [0, h_i] of 3 c3 u^2 + 2 c2 u + c1, taken in the cancellation-free
        form q = -(b + sign(b) sqrt(b^2 - 4 a c)) / 2, u = q / a and c / q."""
        c3, c2, c1, _ = self._coef
        a, b = 3.0 * c3, 2.0 * c2
        with np.errstate(all="ignore"):
            q = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * c1), b))
            u = np.stack((q / a, c1 / q))
        x = self.rho_nodes
        crit = (x[:-1] + u)[(u >= 0) & (u <= np.diff(x))]
        rho = np.concatenate(([lo, hi], x, crit))
        rho = rho[(rho >= lo) & (rho <= hi)]
        return float(rho[np.argmax(self.f(rho))])


def _chain_d(base, rho):
    rho = np.asarray(rho, dtype=float)
    return base.f(rho), base.df(rho), base.d2f(rho)


@dataclass(frozen=True)
class TransformedWarp(WarpCurve):
    """r f / sqrt(D), D = r^2 + sign kappa^2 f^2, with exact chain-rule
    derivatives.

    sign = +1 is the forward transform, used when the transform of a named
    family has no closed form; sign = -1 is its inverse, defined only while
    the base warp stays strictly below r/kappa (D <= 0 raises
    NotInRangeError).  Carries a closed-form curvature whenever the base
    warp does:

        K_new = r^2 (K_base * D + 3 sign kappa^2 f'^2) / D^2

    which stays finite at a capped pole.  It refuses the r and kappa that
    transformed_warp refuses (_check_transform, _check_squares).
    """
    base: WarpCurve
    r: float
    kappa: float
    sign: int = 1

    def __post_init__(self):
        _check_transform(self.r, self.kappa, self.sign)
        _check_squares(self.r, self.kappa)

    @property
    def kind(self):
        return "transformed" if self.sign > 0 else "inverse-transformed"

    @property
    def has_closed_curvature(self):
        return self.base.has_closed_curvature

    @property
    def rho_min(self):
        return self.base.rho_min

    @property
    def rho_max(self):
        return self.base.rho_max

    @property
    def open_right(self):
        return self.base.open_right

    def argmax(self, lo, hi) -> float:
        # r f / sqrt(r^2 + sign kappa^2 f^2) increases with f
        return self.base.argmax(lo, hi)

    def _denominator(self, fb):
        d = self.r * self.r + self.sign * (self.kappa * self.kappa) * (fb * fb)
        if self.sign < 0 and np.any(d <= 0):
            raise NotInRangeError(
                "warp reaches the asymptote r/kappa; inverse undefined")
        return d

    def f(self, rho):
        fb = self.base.f(np.asarray(rho, dtype=float))
        d = self._denominator(fb)
        return (self.r * fb / np.sqrt(d))[()]

    def df(self, rho):
        fb, dfb, _ = _chain_d(self.base, rho)
        self._denominator(fb)               # refuses f at or past r/kappa
        # r^3 d^-1.5 is the cube of r / sqrt(d) = 1 / sqrt(1 + sign t^2),
        # t = kappa f / r, which stays exact at f = 0 where r^3 underflows,
        # d^-1.5 overflows or r^2 is subnormal
        t = self.kappa * fb / self.r
        s = 1.0 / np.sqrt(1.0 + self.sign * (t * t))
        return (s * s * s * dfb)[()]

    def d2f(self, rho):
        fb, dfb, d2fb = _chain_d(self.base, rho)
        d = self._denominator(fb)
        return (self.r ** 3 * d ** -2.5
                * (d2fb * d - 3.0 * self.sign * (self.kappa * self.kappa)
                   * fb * (dfb * dfb)))[()]

    def curvature(self, rho):
        if not self.base.has_closed_curvature:
            return super().curvature(rho)
        fb, dfb, _ = _chain_d(self.base, rho)
        kb = self.base.curvature(rho)
        d = self._denominator(fb)
        return (self.r * self.r * (kb * d + 3.0 * self.sign
                                   * (self.kappa * self.kappa) * (dfb * dfb))
                / (d * d))[()]


_FAMILIES = {
    "sinh": lambda a: SinhWarp(a),
    "tanh": lambda a: TanhWarp(a),
    "tan": lambda a: TanWarp(a),
    "sin": lambda a: SinWarp(a),
    "const": lambda a: ConstWarp(a),
    "linear": lambda a: LinearWarp(),
}


def make_warp(family: str, a: float = 1.0) -> WarpCurve:
    """Build a named warp; `a` is the family parameter (the constant for
    const, ignored for linear)."""
    try:
        ctor = _FAMILIES[family]
    except KeyError:
        raise DomainError(f"unknown warp family {family!r}") from None
    return ctor(float(a))


def warp_from_json(obj) -> WarpCurve:
    """Decode {"family": ..., "a": ...} into a warp curve; a spec that is
    not an object, a missing family or one that is not a string, an `a`
    that is not a finite number or any other key raises ConfigError."""
    if not isinstance(obj, dict):
        raise ConfigError("warp spec must be an object with a 'family' key")
    check_keys(obj, ("family", "a"))
    return make_warp(read_str(obj, "family"), read_number(obj, "a", 1.0))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RotSymMetric:
    """Metric d rho^2 + f^2 d theta^2 on a finite rho interval.

    capped_at_origin means rho_min = 0 and the pole closes up smoothly,
    which requires f(0) = 0 and f'(0) = 1 within 1e-10.
    """
    warp: WarpCurve
    rho_min: float
    rho_max: float
    capped_at_origin: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.rho_min) and math.isfinite(self.rho_max)):
            raise DomainError("metric interval must be finite; truncate "
                              "noncompact warps explicitly")
        if not self.rho_min < self.rho_max:
            raise DomainError("need rho_min < rho_max")
        if self.rho_min < self.warp.rho_min - 1e-12:
            raise DomainError("rho_min below the warp's natural domain")
        if self.warp.open_right:
            if self.rho_max >= self.warp.rho_max:
                raise DomainError("rho_max must stay strictly below the "
                                  "warp's blow-up point")
        elif self.rho_max > self.warp.rho_max + 1e-12:
            raise DomainError("rho_max beyond the warp's natural domain")
        if self.capped_at_origin:
            if self.rho_min != 0.0:
                raise DomainError("capped metric must start at rho = 0")
            if not self.warp.caps_at_origin():
                raise InvalidMetricError(
                    "cap requires f(0) = 0 and f'(0) = 1 within 1e-10")

    def contains(self, rho) -> bool:
        rho = np.asarray(rho, dtype=float)
        return bool(np.all((rho >= self.rho_min - 1e-12)
                           & (rho <= self.rho_max + 1e-12)))


def metric_from_warp(warp: WarpCurve, rho_max: float,
                     rho_min: float = 0.0) -> RotSymMetric:
    """Convenience constructor; detects a smooth cap at rho_min = 0."""
    capped = rho_min == 0.0 and warp.caps_at_origin()
    return RotSymMetric(warp, rho_min, rho_max, capped)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def eval_warp(metric: RotSymMetric, rho):
    """Return (f, f', f'') at rho, raising DomainError outside the interval."""
    if not metric.contains(rho):
        raise DomainError(f"rho = {rho} outside "
                          f"[{metric.rho_min}, {metric.rho_max}]")
    w = metric.warp
    rho = np.asarray(rho, dtype=float)
    return w.f(rho), w.df(rho), w.d2f(rho)


def gauss_curvature(metric: RotSymMetric, rho):
    """Gauss curvature K = -f''/f.

    Closed-form families (and transforms of them) answer anywhere in the
    domain, including a capped pole.  Otherwise f must exceed DELTA_CAP.
    """
    if not metric.contains(rho):
        raise DomainError(f"rho = {rho} outside "
                          f"[{metric.rho_min}, {metric.rho_max}]")
    w = metric.warp
    if w.has_closed_curvature:
        return w.curvature(np.asarray(rho, dtype=float))
    fv = np.asarray(w.f(rho), dtype=float)
    if np.any(fv <= DELTA_CAP):
        raise PoleProximityError(
            f"f <= {DELTA_CAP} at rho = {rho}; too close to the pole for "
            "-f''/f without a closed form")
    return (-np.asarray(w.d2f(rho), dtype=float) / fv)[()]


def scalar_curvature(metric: RotSymMetric, rho):
    """Scalar curvature of the surface, R = 2K."""
    return 2.0 * gauss_curvature(metric, rho)


def _check_transform(r: float, kappa: float, sign: int = 1) -> None:
    """Refuse, with DomainError, a circle radius r <= 0, a slope
    kappa < 0 or a sign outside {+1, -1}."""
    if r <= 0:
        raise DomainError("need r > 0")
    if kappa < 0:
        raise DomainError("need kappa >= 0")
    if sign not in (1, -1):
        raise DomainError("transform sign must be +1 or -1")


def _check_squares(r: float, kappa: float) -> None:
    """Refuse, with DomainError, an r or kappa whose square overflows,
    and an r whose square underflows to 0, which drops r^2 from
    r^2 + kappa^2 f^2 (0 / 0 at f = 0)."""
    if not (math.isfinite(r * r) and math.isfinite(kappa * kappa)):
        raise DomainError(f"r^2 or kappa^2 overflows (r = {r:g}, "
                          f"kappa = {kappa:g})")
    if r * r == 0.0:
        raise DomainError(f"r^2 underflows to 0 (r = {r:g})")


def _slope(m1: int, m2: int) -> float:
    """kappa = m1 / m2 of the integer slope pair, refused with DomainError
    unless m1 >= 0 and m2 >= 1 or when the quotient is past the float
    range."""
    if m1 < 0 or m2 < 1:
        raise DomainError("need m1 >= 0 and m2 >= 1")
    try:
        return m1 / m2
    except OverflowError:
        size = math.log10(m1) - math.log10(m2)
        raise DomainError(f"m1 / m2 overflows a float (it is about "
                          f"10^{size:.0f})") from None


# (base, transform) pairs of named families when kappa = a r; sign = -1
# reads each pair backwards
_PROMOTIONS = ((SinhWarp, TanhWarp), (TanWarp, SinWarp))


def transformed_warp(warp: WarpCurve, r: float, kappa: float,
                     sign: int = 1) -> WarpCurve:
    """Warp-level transform r f / sqrt(D), D = r^2 + sign kappa^2 f^2.

    sign = +1 is the forward transform r f / sqrt(kappa^2 f^2 + r^2);
    sign = -1 is its inverse, which requires f < r/kappa wherever it is
    evaluated.  kappa = 0 returns the warp unchanged (identity, exactly).
    Known closed forms are promoted to named families, read right to left
    for sign = -1:

        sinh(a)  ->  tanh(a)   when kappa = a r
        tan(a)   ->  sin(a)    when kappa = a r
        const c  ->  const r c / sqrt(r^2 + sign kappa^2 c^2)

    everything else becomes a TransformedWarp with chain-rule derivatives.
    An r or kappa whose square overflows raises DomainError, and so do an r
    whose square underflows to 0, which drops r^2 from r^2 + kappa^2 f^2
    (0 / 0 at f = 0), and a constant warp whose r^2 + kappa^2 c^2
    overflows.
    """
    _check_transform(r, kappa, sign)
    if kappa == 0.0:
        return warp
    _check_squares(r, kappa)
    if isinstance(warp, ConstWarp):
        c = warp.c
        c2 = c * c
        # c^2 past the float range is an overflow whatever the sign
        d = r * r + sign * (kappa * kappa) * c2 if c2 < math.inf else math.inf
        # an overflowing kappa^2 c^2 gives d = -inf for sign = -1, c far
        # above r/kappa
        if d <= 0:
            raise NotInRangeError("constant warp at or above r/kappa")
        if d == math.inf:
            raise DomainError(f"r^2 + kappa^2 c^2 overflows (r = {r:g}, "
                              f"kappa = {kappa:g}, c = {c:g})")
        return ConstWarp(r * c / math.sqrt(d))
    for family, image in (p if sign > 0 else p[::-1] for p in _PROMOTIONS):
        if isinstance(warp, family) and kappa == warp.a * r:
            return image(warp.a)
    return TransformedWarp(warp, r, kappa, sign)


def quotient_transform(metric: RotSymMetric, r: float, kappa: float,
                       sign: int = 1) -> RotSymMetric:
    """Transform the metric by the quotient along the slope-kappa circle of
    radius r (sign = +1), or invert that transform (sign = -1).

    r > 0, kappa >= 0 and the sign are checked first, as in
    transformed_warp.  The rho interval and the cap flag are preserved: the
    pole stays a smooth pole (f'(0) = r^3/r^3 = 1) and the transform is the
    identity for kappa = 0.  The inverse raises NotInRangeError if the warp
    meets or exceeds the asymptote r/kappa anywhere on the interval
    (checked at the warp's exact maximum there, WarpCurve.argmax, and again
    at every later evaluation), and also if the inverse's natural domain
    ends at or before rho_max: the inverse blows up exactly where f reaches
    r/kappa, which the rounded maximum can miss by an ulp (sin with
    a = 0.7 at r = 1.3, kappa = a r peaks one ulp below r/kappa, and its
    inverse tan blows up at that peak, pi/(2a)).

    The result is the whole quotient only when kappa = m1 / m2 has m2' =
    m2 / gcd(m1, m2) = 1.  For m2' > 1 each orbit of the circle action
    meets the slice s = 0 m2' times, so the quotient is this surface with
    theta taken mod 2 pi / m2': a cone of angle 2 pi / m2' at the pole,
    not the smooth cap (collapse_experiment measures against that).
    """
    _check_transform(r, kappa, sign)
    if sign == -1 and kappa > 0:
        # a warp that overflows is inf there, past r/kappa
        with np.errstate(over="ignore"):
            peak = metric.warp.argmax(metric.rho_min, metric.rho_max)
            if metric.warp.f(peak) >= r / kappa:
                raise NotInRangeError(f"warp reaches r/kappa at rho = "
                                      f"{peak:g}; no preimage")
    new_warp = transformed_warp(metric.warp, r, kappa, sign)
    if sign == -1 and new_warp.open_right \
            and new_warp.rho_max <= metric.rho_max:
        raise NotInRangeError(f"warp reaches r/kappa at rho = "
                              f"{new_warp.rho_max:g}; no preimage")
    return RotSymMetric(new_warp, metric.rho_min, metric.rho_max,
                        metric.capped_at_origin)


def quotient_circle_radius(r1: float, r2: float, kappa: float) -> float:
    """Radius of the circle obtained by the slope-kappa quotient of the flat
    torus S^1(r1) x S^1(r2):  sqrt(r1^2 r2^2 / (kappa^2 r1^2 + r2^2)).
    A numerator or denominator past the float range raises DomainError."""
    if r1 <= 0 or r2 <= 0:
        raise DomainError("need r1, r2 > 0")
    if kappa < 0:
        raise DomainError("need kappa >= 0")
    r1s, r2s = r1 * r1, r2 * r2
    num, den = r1s * r2s, kappa * kappa * r1s + r2s
    if not (num < math.inf and den < math.inf):
        raise DomainError(f"r1^2 r2^2 or kappa^2 r1^2 + r2^2 overflows "
                          f"(r1 = {r1:g}, r2 = {r2:g}, kappa = {kappa:g})")
    return math.sqrt(num / den)


def asymptote_radius(r: float, kappa: float) -> float:
    """Upper bound r/kappa of any warp transformed with circle radius r > 0
    and slope kappa >= 0; kappa = 0 has none (NoAsymptoteError)."""
    _check_transform(r, kappa)
    if kappa == 0:
        raise NoAsymptoteError("identity transform has no asymptote")
    return r / kappa
