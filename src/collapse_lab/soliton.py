"""Rotationally symmetric gradient solitons from the first-order warp ODE

    f' + A f^2 = B,        f(0) = 0, f'(0) = B,

normalized to B = 1 so the metric caps off smoothly at the pole.  Closed
forms by sign of A (with a = sqrt(|A|)):

    A > 0:  f = tanh(a rho)/a,   potential  phi = 2 log cosh(a rho)
    A < 0:  f = tan(a rho)/a,    potential  phi = 2 log cos(a rho)
    A = 0:  f = rho,             flat; the potential is the constant 0

For other B > 0 the solution is sqrt(B/|A|) tanh(k rho) (tan for A < 0)
with k = sqrt(|A| B), and the potential is the same with k in place of a.
The flat potential is the k = 0 member of the cigar family.

The pair (f, phi) satisfies the pointwise identities

    -f''/f = phi''          (res1)
    phi''  = (f'/f) phi'    (res2)

which the residual helpers report, and the A < 0 geometry satisfies
Delta log(-R) + R = 0 for the scalar curvature R = 2K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError, DomainError, PoleProximityError
from .warped_metric import (
    DELTA_CAP,
    LinearWarp,
    TabulatedWarp,
    TanhWarp,
    TanWarp,
    WarpCurve,
)

BLOWUP_STEP_MARGIN = 10  # keep 10 steps clear of the tan blow-up
# the RK4 loop runs in Python: the cap keeps a solve to seconds and its
# tables to tens of MB
MAX_ODE_STEPS = 1_000_000
# Largest k h, k = sqrt(A B), of an accepted A > 0 step: the fixed point
# sqrt(B/A) of f' = B - A f^2 has rate -2k, and from k h ~ 1.367 on the RK4
# nodes settle on a spurious value short of the true limit (at k h = 1.35
# the last node is still on it to 2e-15).  A < 0 stays below pi/20 through
# BLOWUP_STEP_MARGIN.
MAX_RK4_KH = 1.35


@dataclass(frozen=True)
class SolitonParams:
    """Quadratic coefficient A of the warp ODE; B is kept at 1 so that the
    solution caps off with f'(0) = 1."""
    A: float
    B: float = 1.0

    def __post_init__(self):
        if self.B <= 0:
            raise DomainError("need B > 0")

    @property
    def a(self) -> float:
        """sqrt(|A|), the rate of the closed forms when B = 1."""
        return math.sqrt(abs(self.A))


class Potential:
    """Radial function with two analytic derivatives."""

    def phi(self, rho):
        raise NotImplementedError

    def dphi(self, rho):
        raise NotImplementedError

    def d2phi(self, rho):
        raise NotImplementedError


@dataclass(frozen=True)
class CigarPotential(Potential):
    """phi = 2 log cosh(a rho); evaluated in overflow-safe form.  a = 0 is
    the flat soliton's potential, +0.0 with both derivatives."""
    a: float

    def phi(self, rho):
        x = np.abs(self.a * np.asarray(rho, dtype=float))
        # log cosh x = x + log1p(exp(-2x)) - log 2, stable for large x
        return (2.0 * (x + np.log1p(np.exp(-2.0 * x)) - math.log(2.0)))[()]

    def dphi(self, rho):
        return (2.0 * self.a * np.tanh(self.a * np.asarray(rho, dtype=float)))[()]

    def d2phi(self, rho):
        # cosh^2 overflows past a rho ~ 355, where the quotient's true
        # limit is the 0 it gives
        with np.errstate(over="ignore"):
            c = np.cosh(self.a * np.asarray(rho, dtype=float))
            return (2.0 * self.a * self.a / (c * c))[()]


@dataclass(frozen=True)
class ExplodingPotential(Potential):
    """phi = 2 log cos(a rho) on [0, pi/(2a))."""
    a: float

    def phi(self, rho):
        return (2.0 * np.log(np.cos(self.a * np.asarray(rho, dtype=float))))[()]

    def dphi(self, rho):
        return (-2.0 * self.a * np.tan(self.a * np.asarray(rho, dtype=float)))[()]

    def d2phi(self, rho):
        c = np.cos(self.a * np.asarray(rho, dtype=float))
        return (-2.0 * self.a * self.a / (c * c))[()]


def solve_warp_ode(params: SolitonParams, rho_max: float,
                   step: float) -> TabulatedWarp:
    """Integrate f' = B - A f^2 from f(0) = 0 with classical fixed-step RK4.

    The step is adjusted to divide [0, rho_max] evenly, so halving the
    requested step exactly doubles the node count; against the closed forms
    the node values converge at fourth order.  For A < 0 the integration
    refuses to run closer than BLOWUP_STEP_MARGIN steps to the blow-up at
    pi/(2a); for A > 0 a step whose k h exceeds MAX_RK4_KH, k = sqrt(A B),
    is refused; and so is a step that needs more than MAX_ODE_STEPS steps,
    each before anything is allocated.

    Returns a TabulatedWarp through the RK4 nodes (not-a-knot cubic-spline
    evaluators in numpy; second derivatives of the spline are only
    second-order accurate).  Nodes or spline coefficients that overflow
    raise DomainError instead of giving a table of NaN.
    """
    if rho_max <= 0:
        raise DomainError("need rho_max > 0")
    if step <= 0 or step > rho_max:
        raise DomainError("need 0 < step <= rho_max")
    if params.A < 0:
        # the solution sqrt(B/|A|) tan(sqrt(|A| B) rho) blows up here
        blow_up = math.pi / (2.0 * math.sqrt(abs(params.A) * params.B))
        if rho_max > blow_up - BLOWUP_STEP_MARGIN * step:
            raise BlowUpError(
                f"rho_max = {rho_max} within {BLOWUP_STEP_MARGIN} steps of "
                f"the blow-up at {blow_up:.6g}")

    ratio = rho_max / step          # inf if the quotient overflows
    if not ratio < MAX_ODE_STEPS + 0.5:
        raise DomainError(f"step {step:g} on [0, {rho_max:g}] needs "
                          f"n = {ratio:.6g} steps, above the cap "
                          f"MAX_ODE_STEPS = {MAX_ODE_STEPS}")
    n = max(4, round(ratio))
    h = rho_max / n
    A, B = params.A, params.B
    if A > 0:
        k = math.sqrt(A) * math.sqrt(B)         # A B may overflow
        if k * h > MAX_RK4_KH:
            need = rho_max * k / MAX_RK4_KH     # fewest steps, as a float
            fix = (f"use step <= {rho_max / math.ceil(need):.6g}"
                   if need <= MAX_ODE_STEPS else "lower rho_max")
            raise DomainError(f"step {h:g} gives k h = {k * h:.6g}, k = "
                              f"sqrt(A B), past the RK4 stability bound "
                              f"MAX_RK4_KH = {MAX_RK4_KH}; {fix}")

    def rhs(f):
        return B - A * f * f

    fs = np.empty(n + 1)
    fs[0] = 0.0
    f = 0.0
    for i in range(n):
        k1 = rhs(f)
        k2 = rhs(f + 0.5 * h * k1)
        k3 = rhs(f + 0.5 * h * k2)
        k4 = rhs(f + h * k3)
        f = f + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        fs[i + 1] = f

    rhos = np.arange(n + 1) * h
    return TabulatedWarp(rhos, fs)


def closed_form_warp(params: SolitonParams) -> WarpCurve:
    """Exact solution of the warp ODE as a named family (B = 1 only)."""
    if params.B != 1.0:
        raise DomainError("closed forms are tabulated for B = 1")
    if params.A > 0:
        return TanhWarp(params.a)
    if params.A < 0:
        return TanWarp(params.a)
    return LinearWarp()


def soliton_potential(params: SolitonParams) -> Potential:
    """Potential paired with the exact warp sqrt(B/|A|) tanh(k rho) (tan for
    A < 0), k = sqrt(|A| B), for every B > 0.  A = 0 gives CigarPotential(0),
    the constant 0 paired with the flat warp f = sqrt(B) rho."""
    k = math.sqrt(abs(params.A) * params.B)     # params.a when B = 1
    if params.A < 0:
        return ExplodingPotential(k)
    return CigarPotential(k)


def soliton_residual(warp: WarpCurve, potential: Potential, rho):
    """Pointwise residuals of the two soliton identities.

    Returns (res1, res2) with

        res1 = | -f''/f - phi'' |
        res2 = | phi'' - (f'/f) phi' |

    Both vanish to rounding for matched (warp, potential) pairs and stay
    O(1) for mismatched ones.  Requires f > DELTA_CAP at rho.
    """
    rho = np.asarray(rho, dtype=float)
    fv = np.asarray(warp.f(rho), dtype=float)
    if np.any(fv <= DELTA_CAP):
        raise PoleProximityError("residuals need f > delta_cap")
    dfv = np.asarray(warp.df(rho), dtype=float)
    d2fv = np.asarray(warp.d2f(rho), dtype=float)
    d1p = np.asarray(potential.dphi(rho), dtype=float)
    d2p = np.asarray(potential.d2phi(rho), dtype=float)
    res1 = np.abs(-d2fv / fv - d2p)[()]
    res2 = np.abs(d2p - (dfv / fv) * d1p)[()]
    return res1, res2


def radial_laplacian(warp: WarpCurve, u: Potential, rho):
    """Laplace-Beltrami operator on radial functions:
    Delta u = u'' + (f'/f) u'.  Requires f > DELTA_CAP at rho."""
    rho = np.asarray(rho, dtype=float)
    fv = np.asarray(warp.f(rho), dtype=float)
    if np.any(fv <= DELTA_CAP):
        raise PoleProximityError("radial Laplacian needs f > delta_cap")
    dfv = np.asarray(warp.df(rho), dtype=float)
    return (np.asarray(u.d2phi(rho), dtype=float)
            + (dfv / fv) * np.asarray(u.dphi(rho), dtype=float))[()]


def exploding_identity_residual(rho):
    """| Delta log(-R) + R | for the A = -1 geometry (f = tan rho).

    R = 2K = -4 sec^2(rho) is negative on the whole domain, so log(-R) is a
    radial function; its derivatives are 2 tan(rho) and 2 sec^2(rho).  The
    identity holds exactly, so the returned value is rounding noise.
    Valid for DELTA_CAP <= rho <= pi/2 - DELTA_CAP.
    """
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < DELTA_CAP) or np.any(rho > math.pi / 2.0 - DELTA_CAP):
        raise DomainError("rho must stay delta_cap away from 0 and pi/2")
    warp = TanWarp(1.0)
    r_scalar = 2.0 * np.asarray(warp.curvature(rho), dtype=float)
    # log(-R) = log 4 - phi for phi = 2 log cos(rho), so Delta log(-R) is
    # -Delta phi
    return np.abs(r_scalar
                  - radial_laplacian(warp, ExplodingPotential(1.0), rho))[()]
