"""Warp ODE f' + A f^2 = 1, its closed forms, potentials, and the pointwise
soliton identities -f''/f = phi'' = (f'/f) phi'."""

import math
import re
import types

import numpy as np
import pytest

from collapse_lab import (
    BlowUpError,
    DomainError,
    LinearWarp,
    PoleProximityError,
    SinWarp,
    SolitonParams,
    TanWarp,
    TanhWarp,
    closed_form_warp,
    exploding_identity_residual,
    gauss_curvature,
    metric_from_warp,
    radial_laplacian,
    scalar_curvature,
    soliton_potential,
    soliton_residual,
    solve_warp_ode,
)
from collapse_lab.soliton import (MAX_RK4_KH, CigarPotential,
                                  ExplodingPotential)

# interior points clear of the pole and of the tan blow-up
CIGAR_PTS = np.linspace(0.1, 3.0, 50)
EXPLODING_PTS = np.linspace(0.1, math.pi / 2 - 0.1, 50)


# ---------------------------------------------------------------------------
# parameters and closed forms
# ---------------------------------------------------------------------------

def test_params_validation():
    assert SolitonParams(A=4.0).a == 2.0
    assert SolitonParams(A=-0.25).a == 0.5
    with pytest.raises(DomainError):
        SolitonParams(A=1.0, B=0.0)


def test_closed_form_warp_by_sign():
    w = closed_form_warp(SolitonParams(A=1.0))
    assert isinstance(w, TanhWarp) and w.a == 1.0
    w = closed_form_warp(SolitonParams(A=4.0))
    assert isinstance(w, TanhWarp) and w.a == 2.0
    w = closed_form_warp(SolitonParams(A=-0.25))
    assert isinstance(w, TanWarp) and w.a == 0.5
    assert isinstance(closed_form_warp(SolitonParams(A=0.0)), LinearWarp)
    with pytest.raises(DomainError):
        closed_form_warp(SolitonParams(A=1.0, B=2.0))


def test_closed_forms_satisfy_the_ode():
    """f' + A f^2 = 1 pointwise for each sign of A."""
    rho = np.linspace(0.0, 1.2, 25)
    for A in (1.0, 4.0, -0.25, 0.0):
        w = closed_form_warp(SolitonParams(A=A))
        resid = w.df(rho) + A * np.asarray(w.f(rho)) ** 2 - 1.0
        np.testing.assert_allclose(resid, 0.0, atol=1e-12)


def test_potential_selection():
    assert isinstance(soliton_potential(SolitonParams(A=1.0)), CigarPotential)
    assert isinstance(soliton_potential(SolitonParams(A=-1.0)),
                      ExplodingPotential)
    # A = 0 is the cigar at k = 0: the constant potential +0.0, with no -0.0
    flat = soliton_potential(SolitonParams(A=0.0))
    assert flat == CigarPotential(0.0)
    rho = np.linspace(0.0, 3.0, 301)
    for values in (flat.phi(rho), flat.dphi(rho), flat.d2phi(rho)):
        assert np.all(values == 0.0) and not np.any(np.signbit(values))
    # B != 1: the same families at k = sqrt(|A| B); B = 1 gives a exactly
    assert soliton_potential(SolitonParams(A=1.0, B=0.5)) \
        == CigarPotential(math.sqrt(0.5))
    assert soliton_potential(SolitonParams(A=-2.0, B=3.0)) \
        == ExplodingPotential(math.sqrt(6.0))
    assert soliton_potential(SolitonParams(A=0.3)).a == SolitonParams(A=0.3).a


def test_potential_values_at_origin():
    """phi(0) = 0, phi'(0) = 0, phi''(0) = +/- 2 a^2."""
    for A, sign in ((1.0, 1.0), (-1.0, -1.0), (4.0, 1.0), (-0.25, -1.0)):
        pot = soliton_potential(SolitonParams(A=A))
        a = math.sqrt(abs(A))
        assert float(pot.phi(0.0)) == pytest.approx(0.0, abs=1e-15)
        assert float(pot.dphi(0.0)) == pytest.approx(0.0, abs=1e-15)
        assert float(pot.d2phi(0.0)) == pytest.approx(sign * 2.0 * a * a,
                                                      rel=1e-14)


def test_cigar_potential_is_overflow_safe():
    """phi = 2 log cosh stays finite and linear-ish far out."""
    pot = CigarPotential(1.0)
    big = np.array([50.0, 300.0, 700.0])
    vals = np.asarray(pot.phi(big))
    assert np.all(np.isfinite(vals))
    np.testing.assert_allclose(vals, 2.0 * (big - math.log(2.0)), rtol=1e-14)
    # derivative saturates at 2a
    assert float(pot.dphi(700.0)) == pytest.approx(2.0, abs=1e-14)


def test_potential_derivatives_match_finite_differences():
    h = 1e-5
    rho = np.linspace(0.2, 1.2, 9)
    for pot in (CigarPotential(1.3), ExplodingPotential(0.7)):
        fd1 = (pot.phi(rho + h) - pot.phi(rho - h)) / (2 * h)
        fd2 = (pot.phi(rho + h) - 2.0 * pot.phi(rho) + pot.phi(rho - h)) / h ** 2
        np.testing.assert_allclose(pot.dphi(rho), fd1, atol=1e-8)
        np.testing.assert_allclose(pot.d2phi(rho), fd2, atol=1e-4)


# ---------------------------------------------------------------------------
# RK4 integration
# ---------------------------------------------------------------------------

def test_ode_solution_values():
    warp = solve_warp_ode(SolitonParams(A=1.0), rho_max=4.0, step=0.01)
    assert float(warp.f(1.0)) == pytest.approx(math.tanh(1.0), abs=1e-9)
    assert float(warp.f(4.0)) == pytest.approx(math.tanh(4.0), abs=1e-9)
    warp = solve_warp_ode(SolitonParams(A=-1.0), rho_max=1.4, step=1e-3)
    assert float(warp.f(math.pi / 4)) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("A", [1.0, -0.25, 0.0])
def test_ode_convergence_order(A):
    """Node error vs the closed form drops by >= 12x per step halving.

    A = 0 integrates the constant right-hand side exactly; both successive
    errors at rounding level counts as converged.  The baseline step starts
    at 0.05: the coarser 0.1 is still pre-asymptotic for A = -0.25 (measured
    ratio 10.7, not yet the fourth-order 16).
    """
    closed = closed_form_warp(SolitonParams(A=A))
    errors = []
    for step in (0.05, 0.025, 0.0125, 0.00625):
        warp = solve_warp_ode(SolitonParams(A=A), rho_max=2.0, step=step)
        exact = np.asarray(closed.f(warp.rho_nodes), dtype=float)
        errors.append(float(np.max(np.abs(warp.f_nodes - exact))))
    for coarse, fine in zip(errors, errors[1:]):
        if coarse <= 1e-12 and fine <= 1e-12:
            continue
        assert coarse / fine >= 12.0


def test_ode_blow_up_guard():
    # A = -1 blows up at pi/2; the margin is 10 steps
    with pytest.raises(BlowUpError):
        solve_warp_ode(SolitonParams(A=-1.0), rho_max=1.5, step=0.01)
    solve_warp_ode(SolitonParams(A=-1.0), rho_max=1.4, step=0.01)


@pytest.mark.parametrize("B", [1.0, 4.0])
def test_ode_stability_guard(B):
    """An A > 0 step is accepted while k h, k = sqrt(A B), stays within
    MAX_RK4_KH, and the last node lands on the fixed point sqrt(B / A);
    past the bound the step is refused before the solve, and the step the
    refusal names is accepted."""
    def last_node(A, step):
        warp = solve_warp_ode(SolitonParams(A=A, B=B), rho_max=3.0,
                              step=step)
        return warp.f_nodes[-1] / math.sqrt(B / A)

    # k h = 1.34996 with h = 0.01
    assert last_node(18224.0 / B, 0.01) == pytest.approx(1.0, rel=1e-14)
    # k h = 1.414: RK4 would settle 30% short of sqrt(B / A)
    with pytest.raises(DomainError, match=f"k h = 1.41421.*MAX_RK4_KH = "
                       f"{MAX_RK4_KH}; use step <= ") as info:
        solve_warp_ode(SolitonParams(A=20000.0 / B, B=B), 3.0, 0.01)
    step = float(re.search(r"use step <= (\S+)$", str(info.value))[1])
    assert last_node(20000.0 / B, step) == pytest.approx(1.0, rel=1e-14)


def test_ode_argument_validation():
    with pytest.raises(DomainError):
        solve_warp_ode(SolitonParams(A=1.0), rho_max=0.0, step=0.01)
    with pytest.raises(DomainError):
        solve_warp_ode(SolitonParams(A=1.0), rho_max=1.0, step=0.0)
    with pytest.raises(DomainError):
        solve_warp_ode(SolitonParams(A=1.0), rho_max=1.0, step=2.0)


def test_ode_caps_at_origin():
    warp = solve_warp_ode(SolitonParams(A=1.0), rho_max=2.0, step=0.01)
    assert float(warp.f(0.0)) == pytest.approx(0.0, abs=1e-14)
    assert float(warp.df(0.0)) == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# soliton identities
# ---------------------------------------------------------------------------

def test_matched_pairs_have_tiny_residuals():
    for A, pts in ((1.0, CIGAR_PTS), (4.0, CIGAR_PTS / 2.0),
                   (-1.0, EXPLODING_PTS), (-0.25, EXPLODING_PTS)):
        params = SolitonParams(A=A)
        res1, res2 = soliton_residual(closed_form_warp(params),
                                      soliton_potential(params), pts)
        assert float(np.max(res1)) <= 1e-10
        assert float(np.max(res2)) <= 1e-10


def test_mismatched_pair_has_large_residual():
    """Sphere warp against the cigar potential is not a soliton."""
    res1, res2 = soliton_residual(SinWarp(1.0), CigarPotential(1.0),
                                  np.linspace(0.1, 1.4, 50))
    assert float(np.max(res1)) > 0.1


def test_residual_rejects_pole_points():
    params = SolitonParams(A=1.0)
    with pytest.raises(PoleProximityError):
        soliton_residual(closed_form_warp(params), soliton_potential(params),
                         0.0)


def test_flat_soliton_residual_is_exactly_zero():
    """The matched A = 0 pair, f = rho with the zero potential, has both
    residuals exactly 0, not only to rounding."""
    rho = np.linspace(0.01, 3.0, 300)
    res1, res2 = soliton_residual(
        LinearWarp(), soliton_potential(SolitonParams(0.0)), rho)
    assert np.all(res1 == 0.0) and np.all(res2 == 0.0)


@pytest.mark.parametrize("x", [400.0, 800.0])
def test_cigar_curvature_past_cosh_overflow_is_zero(x):
    # cosh^2 overflows at a rho = 400, and cosh itself at 800; phi'' is its
    # limit 0 there, and the suite's warnings-as-errors sees no overflow
    pot = CigarPotential(200.0)
    rho = np.array([0.0, x / 200.0])
    assert pot.d2phi(rho).tolist() == [2.0 * 200.0 ** 2, 0.0]
    assert pot.d2phi(x / 200.0) == 0.0


def test_numeric_solution_passes_residual_check():
    """RK4 + spline derivatives satisfy the identities to spline accuracy."""
    params = SolitonParams(A=1.0)
    warp = solve_warp_ode(params, rho_max=3.5, step=0.002)
    pts = np.linspace(0.2, 3.0, 50)
    res1, res2 = soliton_residual(warp, soliton_potential(params), pts)
    # d2f of the spline is only second-order accurate
    assert float(np.max(res1)) <= 1e-4
    assert float(np.max(res2)) <= 1e-4


# ---------------------------------------------------------------------------
# Laplacian and the exploding-curvature identity
# ---------------------------------------------------------------------------

# radial_laplacian reads only u.dphi and u.d2phi of its radial function

def test_radial_laplacian_flat_quadratic():
    # f = rho, u = rho^2: u'' + u'/rho = 2 + 2 = 4
    u = types.SimpleNamespace(dphi=lambda t: 2.0 * np.asarray(t),
                              d2phi=lambda t: np.full_like(t, 2.0))
    got = radial_laplacian(LinearWarp(), u, np.linspace(0.3, 2.0, 7))
    np.testing.assert_allclose(got, 4.0, rtol=1e-14)


def test_radial_laplacian_sphere_eigenfunction():
    # f = sin, u = cos: Delta u = -2 cos (first spherical harmonic)
    u = types.SimpleNamespace(dphi=lambda t: -np.sin(t),
                              d2phi=lambda t: -np.cos(t))
    rho = np.linspace(0.2, 2.8, 11)
    np.testing.assert_allclose(radial_laplacian(SinWarp(1.0), u, rho),
                               -2.0 * np.cos(rho), rtol=1e-12)


def test_radial_laplacian_constant_function():
    u = types.SimpleNamespace(dphi=np.zeros_like, d2phi=np.zeros_like)
    got = radial_laplacian(TanhWarp(1.0), u, np.linspace(0.5, 2.0, 5))
    np.testing.assert_allclose(got, 0.0, atol=1e-15)
    with pytest.raises(PoleProximityError):
        radial_laplacian(LinearWarp(), u, 0.0)


def test_exploding_identity():
    """Delta log(-R) + R = 0 for the incomplete negative-curvature soliton."""
    res = exploding_identity_residual(EXPLODING_PTS)
    assert float(np.max(np.asarray(res))) <= 1e-8
    # scalar curvature there is -4 sec^2; at pi/4 that is -8
    metric = metric_from_warp(TanWarp(1.0), 1.5)
    rho = np.linspace(0.05, 1.5, 50)
    np.testing.assert_allclose(scalar_curvature(metric, rho),
                               -4.0 / np.cos(rho) ** 2, rtol=1e-12)
    with pytest.raises(DomainError):
        exploding_identity_residual(0.0)
    with pytest.raises(DomainError):
        exploding_identity_residual(math.pi / 2)


def test_scalar_curvature_is_twice_gauss():
    metric = metric_from_warp(TanhWarp(1.0), 3.0)
    rho = np.linspace(0.0, 3.0, 31)
    np.testing.assert_allclose(scalar_curvature(metric, rho),
                               2.0 * np.asarray(gauss_curvature(metric, rho)),
                               rtol=1e-15)


def test_cigar_curvature_positive_and_decaying():
    """K = 2 sech^2 stays positive and under 8 e^{-2 rho} beyond rho = 1."""
    metric = metric_from_warp(TanhWarp(1.0), 10.0)
    rho = np.linspace(1.0, 10.0, 200)
    k = np.asarray(gauss_curvature(metric, rho))
    assert np.all(k > 0)
    assert np.all(k < 8.0 * np.exp(-2.0 * rho))
    assert float(gauss_curvature(metric, 0.0)) == pytest.approx(2.0)
