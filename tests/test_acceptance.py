"""Acceptance gate: one test per shipped guarantee, one printed line each.

Each criterion states its own tolerance; nothing here is tuned per machine.
The slow entries also assert their runtime budgets.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from collapse_lab import (
    BergerMetric,
    ConstWarp,
    OrbitBasis,
    PointMetric,
    SinhWarp,
    TanWarp,
    TanhWarp,
    circle_distance,
    gauss_curvature,
    metric_from_warp,
    quotient_circle_radius,
    quotient_metric_form,
    scalar_curvature,
    slope_quotient_metric,
    submersion_fit,
    transform_killing,
    transformed_warp,
)
from collapse_lab import gh_collapse
from collapse_lab.gh_collapse import CollapseConfig, collapse_experiment
from collapse_lab.killing_quotient import circle_quotient_pushforward
from collapse_lab.soliton import (
    SolitonParams,
    closed_form_warp,
    exploding_identity_residual,
    soliton_potential,
    soliton_residual,
    solve_warp_ode,
)
from test_gh_collapse import _zp_distance

TWO_PI = 2.0 * math.pi


def report(num, text):
    print(f"[PASS] criterion {num:2d}: {text}")


# ---------------------------------------------------------------------------

def test_criterion_01_cigar_transform_identity():
    start = time.perf_counter()
    out = transformed_warp(SinhWarp(1.0), r=1.0, kappa=1.0)
    rho = np.linspace(0.0, 4.0, 200)
    err = float(np.max(np.abs(out.f(rho) - np.tanh(rho))))
    elapsed = time.perf_counter() - start
    assert err <= 1e-12
    assert elapsed < 1.0
    report(1, f"sinh -> tanh transform, max err {err:.2e}, {elapsed:.3f} s")


def test_criterion_02_exploding_transform_identity():
    out = transformed_warp(TanWarp(1.0), r=1.0, kappa=1.0)
    rho = np.linspace(0.0, math.pi / 2 - 0.05, 200)
    err = float(np.max(np.abs(out.f(rho) - np.sin(rho))))
    assert err <= 1e-12
    report(2, f"tan -> sin transform, max err {err:.2e}")


def test_criterion_03_cylinder_radius():
    out = transformed_warp(ConstWarp(1.0), r=1.0, kappa=1.0)
    rho = np.linspace(0.0, 3.0, 200)
    want = 1.0 / math.sqrt(2.0)
    err = float(np.max(np.abs(out.f(rho) - want)))
    assert err <= 1e-15
    assert abs(quotient_circle_radius(1.0, 1.0, 1.0) - want) <= 1e-15
    report(3, f"flat cylinder collapses to radius 1/sqrt(2), err {err:.2e}")


def test_criterion_04_curvature_values():
    cigar = metric_from_warp(TanhWarp(1.0), 4.0)
    k0 = float(gauss_curvature(cigar, 0.0))
    assert abs(k0 - 2.0) <= 1e-12
    expl = metric_from_warp(TanWarp(1.0), math.pi / 2 - 0.05)
    rho = np.linspace(0.05, math.pi / 2 - 0.05, 50)
    r_vals = np.asarray(scalar_curvature(expl, rho), dtype=float)
    err = float(np.max(np.abs(r_vals + 4.0 / np.cos(rho) ** 2)))
    assert err <= 1e-8
    report(4, f"cigar K(0) = 2 and tan-warp R = -4 sec^2, err {err:.2e}")


def test_criterion_05_soliton_residuals():
    worst = 0.0
    for a_coeff, pts in ((1.0, np.linspace(0.1, 3.0, 50)),
                         (-1.0, np.linspace(0.1, math.pi / 2 - 0.1, 50))):
        params = SolitonParams(A=a_coeff)
        warp = closed_form_warp(params)
        pot = soliton_potential(params)
        r1, r2 = soliton_residual(warp, pot, pts)
        worst = max(worst, float(np.max(np.abs(r1))),
                    float(np.max(np.abs(r2))))
    assert worst <= 1e-8
    rho = np.linspace(0.1, math.pi / 2 - 0.1, 50)
    ident = float(np.max(np.abs(exploding_identity_residual(rho))))
    assert ident <= 1e-8
    report(5, f"soliton identities, residuals {worst:.2e}, "
              f"log-curvature identity {ident:.2e}")


def test_criterion_06_ode_convergence_order():
    # baseline step 0.05: one coarser halving is still pre-asymptotic for
    # A = -0.25; A = 0 integrates exactly, so rounding-floor errors count
    # as converged
    for a_coeff in (1.0, -0.25, 0.0):
        closed = closed_form_warp(SolitonParams(A=a_coeff))
        errors = []
        for step in (0.05, 0.025, 0.0125, 0.00625):
            warp = solve_warp_ode(SolitonParams(A=a_coeff), rho_max=2.0,
                                  step=step)
            exact = np.asarray(closed.f(warp.rho_nodes), dtype=float)
            errors.append(float(np.max(np.abs(warp.f_nodes - exact))))
        for coarse, fine in zip(errors, errors[1:]):
            if coarse <= 1e-12 and fine <= 1e-12:
                continue
            assert coarse / fine >= 12.0, (a_coeff, errors)
    report(6, "fixed-step integrator gains >= 12x per halving "
              "for A in {1, -0.25, 0}")


def test_criterion_07_berger_diagonal_exact():
    for kappa in (0.5, 1.0, 2.0):
        h = transform_killing(np.eye(3), [1.0, 0.0, 0.0], 1.0, kappa).matrix
        want = 1.0 / (kappa ** 2 + 1.0)
        # "exact" here still allows the two arithmetic routes to land on
        # neighboring floats: the subtraction form can sit 2 ulp from the
        # direct quotient
        assert abs(h[0, 0] - want) <= 2.0 * math.ulp(want)
        assert h[0, 1] == h[0, 2] == h[1, 2] == 0.0
        assert h[1, 1] == 1.0 and h[2, 2] == 1.0
    round_metric = slope_quotient_metric(math.pi / 2)
    assert (round_metric.A, round_metric.B, round_metric.C) == (1.0, 1.0, 1.0)
    report(7, "unit-frame quotient gives diag(1/(kappa^2+1), 1, 1) "
              "to <= 2 ulp; right-angle slope gives the round metric")


def test_criterion_08_quotient_form_and_pushforwards():
    rng = np.random.default_rng(8)
    worst_h = 0.0
    worst_p = 0.0
    for _ in range(100):
        f = float(rng.uniform(0.05, 5.0))
        r = float(rng.uniform(0.05, 5.0))
        g = np.diag([1.0, f * f, r * r])
        basis = OrbitBasis([[0.0, 1.0, 1.0]])
        frame = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        h = quotient_metric_form(PointMetric(g), basis, frame)
        want = np.diag([1.0, r * r * f * f / (f * f + r * r)])
        worst_h = max(worst_h, float(np.max(np.abs(h.matrix - want))))

        denom = f * f + r * r
        p_rho, p_theta, p_s, h2 = circle_quotient_pushforward(f, r)
        worst_p = max(
            worst_p,
            float(np.max(np.abs(p_rho - [1.0, 0.0, 0.0]))),
            float(np.max(np.abs(p_theta - [0.0, r * r / denom,
                                           -f * f / denom]))),
            float(np.max(np.abs(p_s + p_theta))),
            float(np.max(np.abs(h2.matrix - want))))
    assert worst_h <= 1e-12
    assert worst_p <= 1e-12
    report(8, f"circle-quotient form and frame pushforwards, "
              f"err {max(worst_h, worst_p):.2e}")


def test_criterion_09_cross_module_consistency():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(100):
        f = float(rng.uniform(0.05, 5.0))
        r = float(rng.uniform(0.05, 5.0))
        kappa = float(rng.uniform(0.0, 5.0))
        g = np.diag([1.0, f * f])
        h = transform_killing(g, [0.0, 1.0], r, kappa).matrix
        rho = math.asinh(f)
        warp_out = transformed_warp(SinhWarp(1.0), r, kappa)
        worst = max(worst, abs(h[1, 1] - float(warp_out.f(rho)) ** 2))
    assert worst <= 1e-12
    report(9, f"pointwise quotient matches the warp transform, "
              f"err {worst:.2e}")


def test_criterion_10_spd_property():
    rng = np.random.default_rng(10)
    for _ in range(1000):
        dim = int(rng.integers(2, 7))
        a = rng.normal(size=(dim, dim))
        g = a @ a.T + 0.1 * np.eye(dim)
        k = rng.normal(size=dim)
        r = float(rng.uniform(0.1, 10.0))
        kappa = float(rng.uniform(0.0, 10.0))
        h = transform_killing(g, k, r, kappa).matrix
        eig_h = np.linalg.eigvalsh(h)
        norm2 = float(k @ g @ k)
        bound = (r * r / (kappa * kappa * norm2 + r * r)
                 * float(np.min(np.linalg.eigvalsh(g))))
        assert eig_h[0] > 0.0
        assert eig_h[0] >= bound - 1e-10
    report(10, "1000 random quotients stay SPD with the expected "
               "eigenvalue floor")


def test_criterion_11_hopf_submersion_radius():
    start = time.perf_counter()
    _, r_star, dist = submersion_fit(BergerMetric(0.2, 1.0, 1.0), (),
                                     samples=200, seed=0)
    elapsed = time.perf_counter() - start
    assert dist <= 1e-4
    assert elapsed < 10.0
    _, _, dist_bad = submersion_fit(BergerMetric(1.0, 1.0, 2.0), (),
                                    samples=200, seed=0)
    assert dist_bad >= 0.05
    # the doubled-fiber prediction would be 2B = 2; the measured best
    # radius sits at sqrt(B)/2 instead (0.5, 1.0, 1.5 for B = C = 1, 4, 9)
    report(11, f"submersion radius found at R* = {r_star:.6f} "
               f"(distortion {dist:.2e}; doubled-fiber prediction 2B = 2.0; "
               f"negative control {dist_bad:.3f}), {elapsed:.2f} s")


def test_criterion_12_collapse_convergence():
    config = CollapseConfig.from_json({
        "surface": {"family": "sinh", "a": 1.0},
        "rho_max": 2.0,
        "r": 1.0,
        "m1": 1,
        "m2": 1,
        "p_values": [2, 4, 8, 16, 32, 64],
        "grid": {"n_rho": 96, "n_theta": 96, "n_s": 64},
        "sample": {"n_rho": 10, "n_theta": 10, "n_s": 6},
    })
    start = time.perf_counter()
    rows = collapse_experiment(config)
    elapsed = time.perf_counter() - start
    dists = [row.distortion for row in rows]
    floor = rows[0].grid_floor_estimate
    assert all(b <= a + 1e-9 for a, b in zip(dists, dists[1:]))
    assert dists[-1] <= 2.0 * floor
    assert elapsed <= 300.0
    report(12, "distortion " +
           " ".join(f"{d:.4f}" for d in dists) +
           f" non-increasing, final <= 2x floor {floor:.4f}, "
           f"{elapsed:.1f} s")


def test_criterion_13_torus_quotient_circle():
    # flat torus S^1(1) x S^1(1), diagonal circle quotient approximated by
    # Z_512, against the exact circle of radius 1/sqrt(2)
    def dp_lookup(pa, pb, rot):
        return circle_distance(pa[1], pb[1] + rot, 1.0)

    worst = 0.0
    for dth in np.linspace(0.5, math.pi, 40):
        got = _zp_distance(1.0, 1, 1, 512, ((0, 0.0), 0.0),
                           ((0, float(dth)), 0.0), dp_lookup)
        want = min(dth, TWO_PI - dth) / math.sqrt(2.0)
        worst = max(worst, abs(got - want) / want)
    assert worst <= 0.01
    report(13, f"torus quotient matches circle of radius 1/sqrt(2), "
               f"worst rel err {worst:.2e}")


def test_criterion_14_cli_determinism(tmp_path):
    cfg = {
        "surface": {"family": "sinh", "a": 1.0},
        "rho_max": 1.2,
        "r": 1.0,
        "m1": 1,
        "m2": 1,
        "p_values": [2, 4],
        "grid": {"n_rho": 16, "n_theta": 16, "n_s": 8},
        "sample": {"n_rho": 3, "n_theta": 3, "n_s": 2},
    }
    path = tmp_path / "collapse.json"
    path.write_text(json.dumps(cfg))
    cmd = [sys.executable, "-m", "collapse_lab", "collapse",
           "--config", str(path), "--quiet"]
    runs = [subprocess.run(cmd, capture_output=True, check=True).stdout
            for _ in range(2)]
    assert runs[0] == runs[1] and len(runs[0]) > 0

    tcfg = {"family": "sinh", "a": 1.0, "r": 1.0, "kappa": 1.0,
            "rho_max": 2.0, "n": 101}
    tpath = tmp_path / "transform.json"
    tpath.write_text(json.dumps(tcfg))
    tcmd = [sys.executable, "-m", "collapse_lab", "transform",
            "--config", str(tpath), "--quiet"]
    truns = [subprocess.run(tcmd, capture_output=True, check=True).stdout
             for _ in range(2)]
    assert truns[0] == truns[1] and len(truns[0]) > 0
    report(14, "repeated CLI runs are byte-identical")


def test_criterion_15_orbifold_collapse_convergence():
    # for m2' = m2 / gcd(m1, m2) > 1 the limit is the transformed surface
    # with theta taken mod 2 pi / m2', a cone of angle 2 pi / m2' at the pole
    worst = []
    for m1, m2 in ((1, 2), (1, 3)):
        rows = collapse_experiment(CollapseConfig.from_json({
            "surface": {"family": "sinh", "a": 1.0},
            "rho_max": 2.0,
            "r": 1.0,
            "m1": m1,
            "m2": m2,
            "p_values": [4, 16, 64, 256],
            "grid": {"n_rho": 48, "n_theta": 48, "n_s": 32},
            "sample": {"n_rho": 6, "n_theta": 6, "n_s": 4},
        }))
        dists = [row.distortion for row in rows]
        floor = rows[0].grid_floor_estimate
        assert all(b <= a + 1e-9 for a, b in zip(dists, dists[1:]))
        assert dists[-1] <= 2.0 * floor
        worst.append(f"({m1}, {m2}) {dists[-1]:.4f} [floor {floor:.4f}]")
    report(15, "orbifold limits: distortion at p = 256 non-increasing and "
               "<= 2x floor, " + ", ".join(worst))


def test_criterion_16_collapse_rate_on_exact_distances(monkeypatch):
    # (M x S^1) / Z_p -> (M x S^1) / S^1 is a submetry whose fibers are
    # circle orbits mod 2 pi / p, of length at most 2 pi L / p with
    # L = hypot(m1 f, m2 r), so the slice map's distortion is at most
    # pi L / p (Burago-Burago-Ivanov, Ch. 7).  On a flat cylinder, a const
    # warp whose transform is again constant, the surface distances are
    # exact: a backend that returns them leaves only the collapse in the
    # distortion, and nothing to refine
    calls = []

    class FlatCylinders:
        def __init__(self, n_rho, rho_rows, floor_ring, rings):
            self.n_rho, self.rho_rows = n_rho, rho_rows

        def fields(self, metric, period, ring, refine=False):
            calls.append(ring)
            rho = np.linspace(metric.rho_min, metric.rho_max,
                              self.n_rho)[self.rho_rows]
            f = metric.warp.f(rho)
            assert np.all(f == f[0])
            c = np.arange(ring // 2 + 1)
            dist = np.hypot(rho[:, None, None] - rho[None, :, None],
                            f[0] * period * np.minimum(c, ring - c) / ring)
            return [gh_collapse.SurfaceDistanceField(ring, dist)] * (
                4 if refine else 1)

    monkeypatch.setattr(gh_collapse, "_GridSurfaces", FlatCylinders)
    worst, n_rows = 0.0, 0
    for m1, m2 in ((1, 1), (1, 2), (0, 1), (2, 1), (3, 2), (2, 2), (3, 7)):
        for r in (1.0, 0.5):
            for a in (1.0, 0.7):
                rows = collapse_experiment(CollapseConfig.from_json({
                    "surface": {"family": "const", "a": a},
                    "rho_max": 2.0,
                    "r": r,
                    "m1": m1,
                    "m2": m2,
                    "p_values": [2, 4, 8, 16, 32, 64, 3, 9, 27],
                    "grid": {"n_rho": 24, "n_theta": 24, "n_s": 12},
                    "sample": {"n_rho": 5, "n_theta": 6, "n_s": 4},
                }))
                for row in rows:
                    bound = math.pi * math.hypot(m1 * a, m2 * r) / row.p
                    assert row.grid_floor_estimate == 0.0
                    assert row.distortion <= bound * (1 + 1e-12)
                    worst = max(worst, row.distortion / bound)
                n_rows += len(rows)
    assert calls                    # the grid solved none of these rows
    assert worst >= 1 - 1e-12       # odd p reach the bound on (1, 1)
    report(16, f"flat cylinders, exact distances: distortion <= pi L / p "
               f"in all {n_rows} rows, worst ratio {worst:.16f}")
