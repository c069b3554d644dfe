"""Quaternion 3-sphere: left-invariant frame, bracket relations, Berger
norms, the fibration to the 2-sphere, and slope quotients."""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from collapse_lab import (
    BergerMetric,
    DomainError,
    QuotientCollapseError,
    TangencyError,
    berger_norm,
    bracket_check,
    frame_at,
    hopf_map,
    hopf_pushforward,
    quat_mul,
    slope_quotient_metric,
    submersion_fit,
    transform_killing,
)

E0 = np.array([1.0, 0.0, 0.0, 0.0])
E1 = np.array([0.0, 1.0, 0.0, 0.0])
E2 = np.array([0.0, 0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 0.0, 1.0])


def random_unit_quaternion(rng):
    v = rng.normal(size=4)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# quaternion algebra
# ---------------------------------------------------------------------------

def test_quat_multiplication_table():
    np.testing.assert_array_equal(quat_mul(E1, E2), E3)
    np.testing.assert_array_equal(quat_mul(E2, E3), E1)
    np.testing.assert_array_equal(quat_mul(E3, E1), E2)
    np.testing.assert_array_equal(quat_mul(E2, E1), -E3)
    for e in (E1, E2, E3):
        np.testing.assert_array_equal(quat_mul(e, e), -E0)
        np.testing.assert_array_equal(quat_mul(E0, e), e)
        np.testing.assert_array_equal(quat_mul(e, E0), e)


def test_quat_mul_norm_and_associativity():
    rng = np.random.default_rng(2)
    for _ in range(30):
        p, q, s = rng.normal(size=(3, 4))
        np.testing.assert_allclose(
            np.linalg.norm(quat_mul(p, q)),
            np.linalg.norm(p) * np.linalg.norm(q), rtol=1e-13)
        np.testing.assert_allclose(quat_mul(quat_mul(p, q), s),
                                   quat_mul(p, quat_mul(q, s)), atol=1e-12)


# ---------------------------------------------------------------------------
# the left-invariant frame
# ---------------------------------------------------------------------------

def test_frame_at_identity():
    fr = frame_at(E0)
    np.testing.assert_array_equal(fr, np.vstack([E1, E2, E3]))


def test_frame_orthonormal_and_tangent():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        fr = frame_at(q)
        gram = fr @ fr.T
        assert np.max(np.abs(gram - np.eye(3))) <= 1e-12
        assert np.max(np.abs(fr @ q)) <= 1e-12


def test_bracket_relations_small_deviation():
    rng = np.random.default_rng(12)
    assert bracket_check(E0, 1, 2, step=1e-4) <= 1e-7
    for _ in range(5):
        q = random_unit_quaternion(rng)
        assert bracket_check(q, 2, 3, step=1e-4) <= 1e-7
        assert bracket_check(q, 3, 1, step=1e-4) <= 1e-7
        assert bracket_check(q, 2, 1, step=1e-4) <= 1e-7   # reversed pair


def test_bracket_deviation_is_second_order():
    """Halving the step divides the deviation by ~4."""
    q = random_unit_quaternion(np.random.default_rng(16))
    devs = [bracket_check(q, 1, 2, step=s) for s in (1e-2, 5e-3, 2.5e-3)]
    for coarse, fine in zip(devs, devs[1:]):
        assert 3.5 <= coarse / fine <= 4.5


def test_bracket_same_index_vanishes():
    q = random_unit_quaternion(np.random.default_rng(20))
    for i in (1, 2, 3):
        assert bracket_check(q, i, i, step=1e-2) <= 1e-9


def test_bracket_argument_validation():
    with pytest.raises(DomainError):
        bracket_check(E0, 0, 1)
    with pytest.raises(DomainError):
        bracket_check(E0, 1, 4)
    with pytest.raises(DomainError):
        bracket_check(E0, 1, 2, step=0.0)
    with pytest.raises(DomainError):       # a quaternion has 4 components
        bracket_check(E0[:3], 1, 2)


# ---------------------------------------------------------------------------
# Berger norms
# ---------------------------------------------------------------------------

def test_berger_norm_round_metric():
    rng = np.random.default_rng(24)
    metric = BergerMetric(1.0, 1.0, 1.0)
    for _ in range(20):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        c = rng.normal(size=3)
        v = c @ frame_at(q)
        v /= np.linalg.norm(v)
        assert berger_norm(metric, q, v) == pytest.approx(1.0, abs=1e-12)


def test_berger_norm_weighted_directions():
    kappa = 1.3
    metric = BergerMetric(1.0 / (kappa ** 2 + 1.0), 1.0, 1.0)
    q = random_unit_quaternion(np.random.default_rng(28))
    f1, f2, _ = frame_at(q)
    assert berger_norm(metric, q, f1) == pytest.approx(
        1.0 / math.sqrt(kappa ** 2 + 1.0), rel=1e-13)
    assert berger_norm(BergerMetric(1.0, 4.0, 1.0), q, 2.0 * f2) \
        == pytest.approx(4.0, rel=1e-13)


def test_berger_norm_rejects_non_tangent():
    metric = BergerMetric(1.0, 1.0, 1.0)
    with pytest.raises(TangencyError):
        berger_norm(metric, E0, E0)
    with pytest.raises(DomainError):
        BergerMetric(0.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# the fibration to S^2
# ---------------------------------------------------------------------------

def test_hopf_map_reference_points():
    np.testing.assert_allclose(hopf_map(E0), [0.0, 0.0, 1.0], atol=1e-15)
    # z = w = 1/sqrt(2)
    q = np.array([1.0, 0.0, 1.0, 0.0]) / math.sqrt(2.0)
    np.testing.assert_allclose(hopf_map(q), [1.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(hopf_map(E3), [0.0, 0.0, -1.0], atol=1e-15)


def test_hopf_map_lands_on_unit_sphere():
    rng = np.random.default_rng(32)
    for _ in range(1000):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        img = hopf_map(q)
        assert abs(img @ img - 1.0) <= 1e-12


def test_hopf_map_constant_on_fibers():
    """Right flow by cos t + e_1 sin t preserves the image."""
    rng = np.random.default_rng(36)
    ts = np.linspace(0.0, 2.0 * math.pi, 17, endpoint=False)
    for _ in range(25):
        q = random_unit_quaternion(rng)
        img = hopf_map(q)
        for t in ts:
            moved = quat_mul(q, np.array([math.cos(t), math.sin(t), 0.0, 0.0]))
            assert np.max(np.abs(hopf_map(moved) - img)) <= 1e-10


def test_hopf_pushforward_directions():
    rng = np.random.default_rng(40)
    for _ in range(15):
        q = random_unit_quaternion(rng)
        f1, f2, f3 = frame_at(q)
        # fiber direction dies, horizontal frame doubles in length
        assert np.linalg.norm(hopf_pushforward(q, f1)) <= 1e-8
        assert np.linalg.norm(hopf_pushforward(q, f2)) \
            == pytest.approx(2.0, abs=1e-8)
        assert np.linalg.norm(hopf_pushforward(q, f3)) \
            == pytest.approx(2.0, abs=1e-8)
        np.testing.assert_array_equal(hopf_pushforward(q, np.zeros(4)),
                                      np.zeros(3))
        # image is tangent to the target sphere
        assert abs(hopf_pushforward(q, f2) @ hopf_map(q)) <= 1e-8


def _central_difference_pushforward(q, v, step=1e-5):
    """Central difference of hopf_map along v, with the curve points
    renormalized onto the sphere, so the truncation error is O(step^2)."""
    plus = q + step * v
    minus = q - step * v
    plus = plus / np.linalg.norm(plus)
    minus = minus / np.linalg.norm(minus)
    return (hopf_map(plus) - hopf_map(minus)) / (2.0 * step)


def test_hopf_pushforward_matches_central_difference():
    rng = np.random.default_rng(41)
    for _ in range(50):
        q = random_unit_quaternion(rng)
        tangent = rng.normal(size=3) @ frame_at(q)
        # a raw draw has a component along q, which both versions drop
        for v in (tangent, rng.normal(size=4)):
            np.testing.assert_allclose(hopf_pushforward(q, v),
                                       _central_difference_pushforward(q, v),
                                       rtol=0, atol=1e-8)


def test_hopf_pushforward_is_linear_in_v():
    rng = np.random.default_rng(42)
    for _ in range(25):
        q = random_unit_quaternion(rng)
        u, v = rng.normal(size=(2, 4))
        a, b = rng.normal(size=2)
        np.testing.assert_allclose(
            hopf_pushforward(q, a * u + b * v),
            a * hopf_pushforward(q, u) + b * hopf_pushforward(q, v),
            rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# submersion distortion scans
# ---------------------------------------------------------------------------

def test_submersion_radius_found_for_equal_bc():
    """B = C admits a submersion; the best radius is 1/2 and independent
    of the collapsing weight A."""
    for metric in (BergerMetric(0.2, 1.0, 1.0), BergerMetric(1.0, 1.0, 1.0)):
        _, radius, dist = submersion_fit(metric, (), samples=200, seed=0)
        assert radius == pytest.approx(0.5, abs=1e-6)
        assert dist <= 1e-5
    # the best radius is sqrt(B)/2, wherever that lies
    for b, expected in ((1.0, 0.5), (4.0, 1.0), (9.0, 1.5), (49.0, 3.5)):
        _, radius, dist = submersion_fit(BergerMetric(0.2, b, b), (),
                                         samples=200, seed=0)
        assert radius == pytest.approx(expected, abs=1e-12)
        assert dist <= 1e-12


def test_submersion_negative_control():
    """B != C is never a submersion onto a round sphere."""
    metric = BergerMetric(1.0, 1.0, 2.0)
    _, r_star, best = submersion_fit(metric, (), samples=200, seed=0)
    assert best >= 0.05
    # the closed form is the minimiser: moving off it never helps
    assert submersion_fit(metric, r_star, samples=200, seed=0)[0] == best
    for factor in (1.0 - 1e-6, 1.0 + 1e-6):
        assert submersion_fit(metric, r_star * factor, samples=200,
                              seed=0)[0] >= best
    for radius in (0.25, 0.5, 1.0, 2.0):
        assert submersion_fit(metric, radius, samples=200, seed=0)[0] \
            >= 0.1


def test_max_distortion_matches_full_table():
    """The extremes a_min and a_max give every radius's distortion bit for
    bit, as the radii x samples table they replace did."""
    from collapse_lab.su2_geometry import _max_distortion

    rng = np.random.default_rng(43)
    for _ in range(100):
        norms = rng.uniform(0.1, 3.0, size=int(rng.integers(1, 300)))
        radii = rng.uniform(1e-3, 5.0, size=57)
        table = np.max(np.abs(np.multiply.outer(radii, norms) - 1.0),
                       axis=-1)
        np.testing.assert_array_equal(_max_distortion(radii, norms), table)
        assert _max_distortion(radii[0], norms) == table[0]


def test_submersion_scan_shape_and_determinism():
    metric = BergerMetric(0.2, 1.0, 1.0)
    radii = np.linspace(0.1, 1.5, 29)
    scan1 = submersion_fit(metric, radii, samples=50, seed=3)[0]
    scan2 = submersion_fit(metric, radii, samples=50, seed=3)[0]
    np.testing.assert_array_equal(scan1, scan2)
    k = int(np.argmin(scan1))
    assert 0 < k < len(radii) - 1          # interior minimum
    assert np.all(np.diff(scan1[:k + 1]) <= 0)
    assert np.all(np.diff(scan1[k:]) >= 0)
    with pytest.raises(DomainError):
        submersion_fit(metric, [0.5, -1.0])
    with pytest.raises(DomainError):
        submersion_fit(metric, 0.0)
    with pytest.raises(DomainError):
        submersion_fit(metric, (), samples=0)


BERGER_WEIGHTS = [(0.2, 1.0, 2.0), (0.5, 3.0, 0.7), (1.0, 1.0, 1.0),
                  (2.0, 49.0, 49.0)]


def _reference_norms(metric, count, seed):
    """|dH(v)| sample by sample: each row of the (count, 7) draw is a base
    point and the frame coefficients of v, with c1 = 0 for horizontality;
    v is Berger-normalised and pushed forward by the exact differential."""
    norms = []
    for row in np.random.default_rng(seed).normal(size=(count, 7)):
        q = row[:4] / np.linalg.norm(row[:4])
        v = np.array([0.0, row[5], row[6]]) @ frame_at(q)
        v = v / berger_norm(metric, q, v)
        norms.append(np.linalg.norm(hopf_pushforward(q, v)))
    return np.array(norms)


@pytest.mark.parametrize("abc", BERGER_WEIGHTS)
def test_pushforward_norms_match_per_sample_reference(abc):
    from collapse_lab.su2_geometry import _pushforward_norms

    metric = BergerMetric(*abc)
    for count, seed in ((1, 0), (200, 0), (500, 7)):
        np.testing.assert_allclose(_pushforward_norms(metric, count, seed),
                                   _reference_norms(metric, count, seed),
                                   rtol=1e-14, atol=0)


@pytest.mark.parametrize("abc", BERGER_WEIGHTS)
def test_pushforward_norms_lie_in_closed_form_band(abc):
    """Every a_i lies in [2 / sqrt(max(B, C)), 2 / sqrt(min(B, C))]."""
    from collapse_lab.su2_geometry import _pushforward_norms

    metric = BergerMetric(*abc)
    lo = 2.0 / math.sqrt(max(metric.B, metric.C))
    hi = 2.0 / math.sqrt(min(metric.B, metric.C))
    norms = _pushforward_norms(metric, 20_000, 0)
    assert np.all(norms >= lo * (1.0 - 1e-15))
    assert np.all(norms <= hi * (1.0 + 1e-15))


def test_package_import_leaves_out_scipy_optimize(tmp_path):
    """The submersion radius is a closed form; no optimizer is imported.
    No subcommand loads scipy at all: neither the import nor a transform,
    curvature, soliton, quotient or berger (xi) run loads scipy.sparse, or
    scipy, and neither does a collapse run on the demo config, whose graph
    distances come from the numpy sweep solver.  The soliton spline is
    numpy.  The CLI imports each handler's modules inside the handler, so
    only the collapse run loads gh_collapse."""
    configs = {
        "transform": '{"family": "sinh", "a": 1.0, "r": 1.0, "kappa": 1.0}',
        "curvature": '{"family": "tanh", "a": 1.0, "rho_max": 4.0}',
        "soliton": '{"A": 1.0, "rho_max": 3.0, "step": 0.01}',
        "quotient": '{"metric": [[1.0, 0.0, 0.0], [0.0, 4.0, 0.0], '
                    '[0.0, 0.0, 1.0]], "h_vectors": [[0.0, 1.0, 1.0]], '
                    '"frame": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}',
        "berger": '{"xi": 0.7, "num": 5, "samples": 20}',
    }
    argv = []
    for command, text in configs.items():
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(text)
        argv += [command, str(cfg), str(tmp_path / f"{command}.csv")]
    demo = Path(__file__).resolve().parents[1] / "demos" / "configs"
    argv += ["collapse", str(demo / "collapse.json"),
             str(tmp_path / "collapse.csv")]
    code = ("import sys, collapse_lab, collapse_lab.cli\n"
            "loaded = lambda: [m in sys.modules for m in "
            "('scipy.optimize', 'scipy.sparse', 'scipy', "
            "'collapse_lab.gh_collapse')]\n"
            "print(*loaded())\n"
            "args = sys.argv[1:]\n"
            "for i in range(0, len(args), 3):\n"
            "    assert collapse_lab.cli.main([args[i], '--config', "
            "args[i + 1], '--out', args[i + 2], '--quiet']) == 0\n"
            "    print(*loaded())\n"
            "print(sorted(m for m in sys.modules "
            "if m.partition('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code, *argv],
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == (["False"] * 24 + ["False"] * 3 + ["True"]
                           + ["[]"])
    assert (tmp_path / "transform.csv").read_text().startswith("rho,f,")
    assert (tmp_path / "curvature.csv").read_text().startswith("rho,K\n")
    assert (tmp_path / "soliton.csv").read_text().startswith("rho,f,")
    assert (tmp_path / "quotient.csv").read_text().startswith("c0,c1\n")
    assert (tmp_path / "berger.csv").read_text().startswith("target_radius,")
    assert (tmp_path / "collapse.csv").read_text().startswith("p,distortion,")


# ---------------------------------------------------------------------------
# slope quotients
# ---------------------------------------------------------------------------

def test_slope_quotient_reference_values():
    m = slope_quotient_metric(math.pi / 2)
    assert (m.A, m.B, m.C) == (1.0, 1.0, 1.0)
    m = slope_quotient_metric(3.0 * math.pi / 2)
    assert m.A == pytest.approx(1.0, abs=1e-15)
    m = slope_quotient_metric(math.pi / 4)
    assert m.A == pytest.approx(0.5, abs=1e-12)
    assert m.B == 1.0 and m.C == 1.0


def test_slope_quotient_collapse_regime():
    # slope -> 0: the first weight shrinks to sin^2(xi)
    for xi in (0.3, 0.05, 1e-3):
        m = slope_quotient_metric(xi)
        assert m.A == pytest.approx(math.sin(xi) ** 2, rel=1e-9)
    with pytest.raises(QuotientCollapseError):
        slope_quotient_metric(0.0)
    with pytest.raises(QuotientCollapseError):
        slope_quotient_metric(math.pi)


def test_slope_quotient_agrees_with_rank_one_transform():
    for xi in np.linspace(0.05, math.pi / 2, 20):
        m = slope_quotient_metric(float(xi))
        kappa = abs(math.cos(xi) / math.sin(xi))
        h = transform_killing(np.eye(3), [1.0, 0.0, 0.0], 1.0, kappa)
        assert abs(m.A - h.matrix[0, 0]) <= 1e-12


def test_slope_angle_type():
    m = slope_quotient_metric(math.pi / 2)
    assert m.A == 1.0
