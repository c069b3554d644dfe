"""Warp families, Gauss curvature, and the circle-quotient transform.

The transform under test sends a warp f to r f / sqrt(kappa^2 f^2 + r^2).
Oracle values below are written out as inline formulas so the library is
never checked against itself.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from collapse_lab import (
    ConfigError,
    ConstWarp,
    DomainError,
    InvalidMetricError,
    LinearWarp,
    NoAsymptoteError,
    NotInRangeError,
    PoleProximityError,
    RotSymMetric,
    SinWarp,
    SinhWarp,
    TabulatedWarp,
    TanWarp,
    TanhWarp,
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
from collapse_lab.warped_metric import TransformedWarp, _slope


def exact_transform(f, r, kappa, sign=1):
    """r f / sqrt(r^2 + sign kappa^2 f^2) in 40-digit decimal arithmetic,
    whose exponent range holds every square of a float, rounded once."""
    with localcontext() as ctx:
        ctx.prec = 40
        f, r, kappa = (Decimal(x) for x in (f, r, kappa))
        return float(r * f / (r * r + sign * kappa * kappa * f * f).sqrt())


def fd_second(fun, x, h=1e-4):
    """Central second difference, O(h^2)."""
    return (fun(x + h) - 2.0 * fun(x) + fun(x - h)) / (h * h)


# ---------------------------------------------------------------------------
# warp families: values, derivatives, curvature
# ---------------------------------------------------------------------------

def test_family_values_match_inline_formulas():
    rho = np.linspace(0.05, 1.3, 23)
    a = 0.7
    cases = [
        (SinhWarp(a), np.sinh(a * rho) / a, np.cosh(a * rho),
         a * np.sinh(a * rho)),
        (TanhWarp(a), np.tanh(a * rho) / a, 1.0 / np.cosh(a * rho) ** 2,
         -2.0 * a * np.tanh(a * rho) / np.cosh(a * rho) ** 2),
        (TanWarp(a), np.tan(a * rho) / a, 1.0 / np.cos(a * rho) ** 2,
         2.0 * a * np.tan(a * rho) / np.cos(a * rho) ** 2),
        (SinWarp(a), np.sin(a * rho) / a, np.cos(a * rho),
         -a * np.sin(a * rho)),
        (ConstWarp(0.4), np.full_like(rho, 0.4), np.zeros_like(rho),
         np.zeros_like(rho)),
        (LinearWarp(), rho, np.ones_like(rho), np.zeros_like(rho)),
    ]
    for warp, f, df, d2f in cases:
        np.testing.assert_allclose(warp.f(rho), f, rtol=0, atol=1e-14)
        np.testing.assert_allclose(warp.df(rho), df, rtol=0, atol=1e-14)
        np.testing.assert_allclose(warp.d2f(rho), d2f, rtol=0, atol=1e-13)


def test_closed_form_curvature_equals_minus_d2f_over_f():
    rho = np.linspace(0.3, 1.2, 17)
    for warp in (SinhWarp(1.3), TanhWarp(0.8), TanWarp(0.9), SinWarp(1.1)):
        k = warp.curvature(rho)
        np.testing.assert_allclose(k, -warp.d2f(rho) / warp.f(rho),
                                   rtol=1e-12, atol=1e-12)


def test_curvature_against_finite_differences():
    """Closed forms vs -FD(f)''/f wherever f > 0.1, to 1e-6."""
    rho = np.linspace(0.2, 1.3, 9)
    for warp in (SinhWarp(1.0), TanhWarp(1.0), TanWarp(0.7), SinWarp(1.0),
                 ConstWarp(2.0), LinearWarp()):
        fv = np.asarray(warp.f(rho), dtype=float)
        mask = fv > 0.1
        assert mask.any()
        fd_k = -fd_second(warp.f, rho[mask]) / fv[mask]
        np.testing.assert_allclose(warp.curvature(rho[mask]), fd_k,
                                   rtol=0, atol=1e-6)


def test_specific_curvature_values():
    # hyperbolic plane / cigar / exploding / sphere at a = 1
    assert SinhWarp(1.0).curvature(0.5) == pytest.approx(-1.0, abs=1e-15)
    assert TanhWarp(1.0).curvature(0.0) == pytest.approx(2.0, abs=1e-15)
    assert TanWarp(1.0).curvature(0.0) == pytest.approx(-2.0, abs=1e-15)
    assert SinWarp(1.0).curvature(1.0) == pytest.approx(1.0, abs=1e-15)
    # R = 2K on the exploding geometry: -4 sec^2 at pi/4 is -8
    metric = metric_from_warp(TanWarp(1.0), 1.5)
    assert scalar_curvature(metric, math.pi / 4) == pytest.approx(-8.0,
                                                                  rel=1e-12)


@pytest.mark.parametrize("x", [400.0, 800.0])
def test_tanh_sech_squared_past_cosh_overflow_is_zero(x):
    # cosh^2 overflows at a rho = 400, and cosh itself at 800; f', f'' and
    # K take their limit 0 there, and the suite's warnings-as-errors sees
    # no overflow
    warp, rho = TanhWarp(200.0), x / 200.0
    assert warp.df(rho) == warp.d2f(rho) == warp.curvature(rho) == 0.0
    assert gauss_curvature(metric_from_warp(warp, rho), rho) == 0.0


def test_slope_refuses_bad_pair_before_dividing():
    assert _slope(3, 2) == 1.5
    for m1, m2 in ((1, 0), (-1, 1), (1, -2)):
        with pytest.raises(DomainError, match="need m1 >= 0 and m2 >= 1"):
            _slope(m1, m2)


def test_caps_at_origin():
    assert SinhWarp(2.0).caps_at_origin()
    assert TanhWarp(0.5).caps_at_origin()
    assert TanWarp(1.0).caps_at_origin()
    assert SinWarp(3.0).caps_at_origin()
    assert LinearWarp().caps_at_origin()
    assert not ConstWarp(1.0).caps_at_origin()


def test_family_parameter_validation():
    for cls in (SinhWarp, TanhWarp, TanWarp, SinWarp, ConstWarp):
        with pytest.raises(DomainError):
            cls(0.0)
        with pytest.raises(DomainError):
            cls(-1.0)


def test_make_warp_and_json_round():
    assert isinstance(make_warp("sinh", 2.0), SinhWarp)
    assert isinstance(make_warp("linear"), LinearWarp)
    assert isinstance(warp_from_json({"family": "tanh", "a": 0.5}), TanhWarp)
    assert warp_from_json({"family": "const", "a": 3.0}).c == 3.0
    # default parameter is 1
    assert warp_from_json({"family": "sin"}).a == 1.0
    with pytest.raises(DomainError):
        make_warp("spiral")
    with pytest.raises(ConfigError):
        warp_from_json(["sinh"])
    with pytest.raises(ConfigError):
        warp_from_json({"a": 1.0})


def test_tabulated_warp_tracks_samples():
    rho = np.linspace(0.0, 2.0, 81)
    warp = TabulatedWarp(rho, np.sin(rho))
    mid = np.linspace(0.1, 1.9, 37)
    np.testing.assert_allclose(warp.f(mid), np.sin(mid), atol=2e-7)
    np.testing.assert_allclose(warp.df(mid), np.cos(mid), atol=2e-5)
    np.testing.assert_allclose(warp.d2f(mid), -np.sin(mid), atol=2e-3)
    assert warp.rho_min == 0.0 and warp.rho_max == 2.0


def test_tabulated_warp_validation():
    with pytest.raises(DomainError):
        TabulatedWarp([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])       # < 4 nodes
    with pytest.raises(DomainError):
        TabulatedWarp([0.0, 1.0, 0.5, 2.0], [1.0, 1.0, 1.0, 1.0])
    with pytest.raises(DomainError):
        TabulatedWarp([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, -1.0, 1.0])
    with pytest.raises(DomainError, match="one f value per node"):
        TabulatedWarp([0.0, 1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
    for rho, f in (([0.0, 1.0, math.nan, 3.0], [1.0] * 4),
                   ([0.0, 1.0, 2.0, math.inf], [1.0] * 4),
                   ([0.0, 1.0, 2.0, 3.0], [1.0, math.inf, 1.0, 1.0])):
        with pytest.raises(DomainError, match="finite"):
            TabulatedWarp(rho, f)
    # finite nodes whose spline coefficients overflow: t / h at h = 1e-300
    with pytest.raises(DomainError, match="overflow"):
        TabulatedWarp(np.arange(5) * 1e-300, [1.0, 1e10, 1.0, 1e10, 1.0])
    # subnormal spacing rounds the last pivot of the slope solve to 0
    with pytest.raises(DomainError, match="too fine"):
        TabulatedWarp([0.0, 5e-324, 1e-323, 2e-323], [1.0] * 4)


# (rho nodes, f values): uniform and non-uniform, 4 and 5 nodes
_PARITY_CASES = [
    (np.linspace(0.0, 3.0, 4), [0.0, 0.9, 1.7, 1.2]),
    (np.linspace(-1.0, 1.0, 5), [2.0, 0.5, 1.0, 3.0, 0.25]),
    (np.array([0.0, 0.1, 0.5, 2.0]), [0.3, 0.4, 1.1, 0.9]),
    (np.array([0.0, 0.3, 0.4, 1.5, 4.0]), [0.0, 0.3, 0.35, 1.0, 4.5]),
]


@pytest.mark.parametrize("rho, f", _PARITY_CASES)
def test_tabulated_warp_matches_scipy_cubic_spline(rho, f):
    """The numpy spline is scipy's not-a-knot CubicSpline: f and df to
    1e-13 and d2f to 1e-9 of each one's scale, at the nodes, between them
    and beyond both ends."""
    from scipy.interpolate import CubicSpline

    warp, spline = TabulatedWarp(rho, f), CubicSpline(rho, f)
    span = rho[-1] - rho[0]
    mid = 0.5 * (rho[1:] + rho[:-1])
    outside = [rho[0] - 0.5 * span, rho[0] - 1e-3, rho[-1] + 1e-3,
               rho[-1] + 0.5 * span]
    x = np.concatenate([rho, mid, outside])
    for nu, (ours, tol) in enumerate(((warp.f, 1e-13), (warp.df, 1e-13),
                                      (warp.d2f, 1e-9))):
        want = spline(x, nu)
        scale = np.max(np.abs(want))
        np.testing.assert_allclose(ours(x), want, rtol=0, atol=tol * scale)
        assert ours(float(x[1])) == pytest.approx(want[1], rel=0,
                                                  abs=tol * scale)


# ---------------------------------------------------------------------------
# metric intervals
# ---------------------------------------------------------------------------

def test_metric_interval_validation():
    with pytest.raises(DomainError):
        RotSymMetric(SinhWarp(1.0), 0.0, math.inf)
    with pytest.raises(DomainError):
        RotSymMetric(SinhWarp(1.0), 1.0, 1.0)
    # tan blows up at pi/2: the interval must stop strictly before it
    with pytest.raises(DomainError):
        metric_from_warp(TanWarp(1.0), math.pi / 2)
    metric_from_warp(TanWarp(1.0), math.pi / 2 - 0.05)
    # sin's natural domain is closed: rho_max = pi is fine, beyond is not
    metric_from_warp(SinWarp(1.0), math.pi)
    with pytest.raises(DomainError):
        metric_from_warp(SinWarp(1.0), math.pi + 0.1)
    # const extends to negative rho
    metric_from_warp(ConstWarp(1.0), 1.0, rho_min=-1.0)
    with pytest.raises(DomainError):
        metric_from_warp(SinhWarp(1.0), 1.0, rho_min=-0.5)


def test_cap_detection_and_cap_errors():
    assert metric_from_warp(SinhWarp(1.0), 2.0).capped_at_origin
    assert not metric_from_warp(SinhWarp(1.0), 2.0, rho_min=0.5).capped_at_origin
    assert not metric_from_warp(ConstWarp(1.0), 2.0).capped_at_origin
    with pytest.raises(DomainError):
        RotSymMetric(SinhWarp(1.0), 0.5, 2.0, capped_at_origin=True)
    with pytest.raises(InvalidMetricError):
        RotSymMetric(ConstWarp(1.0), 0.0, 2.0, capped_at_origin=True)


def test_eval_warp_and_domain_errors():
    metric = metric_from_warp(SinhWarp(1.0), 2.0)
    f, df, d2f = eval_warp(metric, 1.0)
    assert f == pytest.approx(math.sinh(1.0), rel=1e-15)
    assert df == pytest.approx(math.cosh(1.0), rel=1e-15)
    assert d2f == pytest.approx(math.sinh(1.0), rel=1e-15)
    with pytest.raises(DomainError):
        eval_warp(metric, 2.5)
    with pytest.raises(DomainError):
        gauss_curvature(metric, -0.1)


def test_tabulated_curvature_needs_distance_from_pole():
    rho = np.linspace(0.0, 2.0, 201)
    metric = metric_from_warp(TabulatedWarp(rho, np.sin(rho)), 2.0)
    # fine away from the pole
    k = gauss_curvature(metric, 1.0)
    assert k == pytest.approx(1.0, abs=1e-3)
    with pytest.raises(PoleProximityError):
        gauss_curvature(metric, 0.0)


# ---------------------------------------------------------------------------
# the transform
# ---------------------------------------------------------------------------

def test_transform_matches_oracle_formula():
    rng = np.random.default_rng(7)
    rho = np.linspace(0.05, 1.8, 31)
    for _ in range(20):
        base = SinhWarp(float(rng.uniform(0.3, 2.0)))
        r = float(rng.uniform(0.5, 2.0))
        kappa = float(rng.uniform(0.1, 3.0))
        warp = transformed_warp(base, r, kappa)
        fb = base.f(rho)
        expected = r * fb / np.sqrt(kappa ** 2 * fb ** 2 + r ** 2)
        np.testing.assert_allclose(warp.f(rho), expected, rtol=1e-14)


def test_transform_derivatives_are_chain_rule_exact():
    base = SinhWarp(0.8)
    warp = transformed_warp(base, 1.3, 0.9)
    rho = np.linspace(0.1, 1.5, 11)
    h = 1e-5
    fd_df = (warp.f(rho + h) - warp.f(rho - h)) / (2 * h)
    np.testing.assert_allclose(warp.df(rho), fd_df, atol=1e-9)
    fd_d2f = fd_second(warp.f, rho, 1e-4)
    np.testing.assert_allclose(warp.d2f(rho), fd_d2f, atol=1e-6)


def test_transform_promotions():
    """Families whose transform has a closed form come back as that family."""
    w = transformed_warp(SinhWarp(1.0), 1.0, 1.0)
    assert isinstance(w, TanhWarp) and w.a == 1.0
    w = transformed_warp(SinhWarp(2.0), 0.5, 1.0)     # kappa = a r
    assert isinstance(w, TanhWarp) and w.a == 2.0
    w = transformed_warp(TanWarp(1.0), 1.0, 1.0)
    assert isinstance(w, SinWarp) and w.a == 1.0
    w = transformed_warp(ConstWarp(1.0), 1.0, 1.0)
    assert isinstance(w, ConstWarp)
    assert w.c == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
    # mismatched kappa stays a generic transform
    w = transformed_warp(SinhWarp(1.0), 1.0, 0.5)
    assert isinstance(w, TransformedWarp)


def test_transform_kappa_zero_is_identity():
    base = SinhWarp(1.0)
    assert transformed_warp(base, 1.0, 0.0) is base
    metric = metric_from_warp(base, 2.0)
    out = quotient_transform(metric, 1.0, 0.0)
    assert out.warp is base
    assert out.rho_min == metric.rho_min and out.rho_max == metric.rho_max


def test_transform_monotone_bound():
    """0 < f_new < min(f, r/kappa) wherever f > 0."""
    rng = np.random.default_rng(11)
    rho = np.linspace(0.05, 2.0, 41)
    for _ in range(30):
        base = SinhWarp(float(rng.uniform(0.3, 1.5)))
        r = float(rng.uniform(0.5, 2.0))
        kappa = float(rng.uniform(0.1, 3.0))
        fn = np.asarray(transformed_warp(base, r, kappa).f(rho))
        fb = np.asarray(base.f(rho))
        assert np.all(fn > 0)
        assert np.all(fn < fb)
        assert np.all(fn < r / kappa)


def test_transform_preserves_cap():
    for base in (SinhWarp(1.0), LinearWarp(), TanWarp(0.7)):
        metric = metric_from_warp(base, 1.2)
        assert metric.capped_at_origin
        out = quotient_transform(metric, 1.5, 0.8)
        assert out.capped_at_origin
        assert out.warp.caps_at_origin()
        assert float(out.warp.f(0.0)) == pytest.approx(0.0, abs=1e-12)
        assert float(out.warp.df(0.0)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("r", [1e-120, 1e-158])
def test_transform_cap_survives_tiny_r(r):
    """r^3 underflows to 0 and d^-1.5 overflows at r = 1e-120, and at
    r = 1e-158 r^2 is subnormal, so r / sqrt(r^2) is off by about 1e-5; the
    transform's f'(0) = 1 is still exact, and the cap holds."""
    metric = metric_from_warp(SinhWarp(1.0), 2.0)
    out = quotient_transform(metric, r, 1.0)
    assert out.capped_at_origin
    assert float(out.warp.df(0.0)) == 1.0


def test_roundtrip_inverse_then_forward():
    """transform then inverse is the identity to 1e-10 at random points."""
    rng = np.random.default_rng(23)
    kappas = [0.5, 1.0, 2.0, 1.5]
    pts = rng.uniform(0.05, 1.6, size=100)
    for i, kappa in enumerate(kappas):
        r = float(rng.uniform(0.5, 2.0))
        base = SinhWarp(1.0)
        fwd = transformed_warp(base, r, kappa)
        back = transformed_warp(fwd, r, kappa, sign=-1)
        np.testing.assert_allclose(back.f(pts), base.f(pts),
                                   rtol=0, atol=1e-10)
        np.testing.assert_allclose(back.df(pts), base.df(pts),
                                   rtol=0, atol=1e-8)


def test_roundtrip_at_metric_level():
    base = metric_from_warp(SinhWarp(1.0), 2.0)
    there = quotient_transform(base, 1.0, 1.0)
    back = quotient_transform(there, 1.0, 1.0, sign=-1)
    rho = np.linspace(0.0, 2.0, 101)
    np.testing.assert_allclose(back.warp.f(rho), base.warp.f(rho), atol=1e-10)
    assert back.capped_at_origin


def test_inverse_promotions_and_range_guard():
    w = transformed_warp(TanhWarp(1.0), 1.0, 1.0, sign=-1)
    assert isinstance(w, SinhWarp) and w.a == 1.0
    w = transformed_warp(SinWarp(1.0), 1.0, 1.0, sign=-1)
    assert isinstance(w, TanWarp)
    base = SinhWarp(1.0)
    assert transformed_warp(base, 1.0, 0.0, sign=-1) is base
    # sinh exceeds r/kappa = 1 at rho ~ 0.9: no preimage there
    w = transformed_warp(SinhWarp(1.0), 1.0, 1.0, sign=-1)
    assert isinstance(w, TransformedWarp) and w.kind == "inverse-transformed"
    with pytest.raises(NotInRangeError):
        w.f(2.0)
    metric = metric_from_warp(SinhWarp(1.0), 2.0)
    with pytest.raises(NotInRangeError):
        quotient_transform(metric, 1.0, 1.0, sign=-1)
    # sin a rho / a touches r/kappa = 1/a only at pi/(2a), where its
    # inverse tan blows up: refused past that point, kept below it
    for a, rho_max in ((1.0, 3.0), (2.0, 1.5)):
        metric = metric_from_warp(SinWarp(a), rho_max)
        with pytest.raises(NotInRangeError,
                           match=f"at rho = {0.5 * math.pi / a:g}; no pre"):
            quotient_transform(metric, 1.0, a, sign=-1)
    inverse = quotient_transform(metric_from_warp(SinWarp(1.0), 1.5), 1.0,
                                 1.0, sign=-1)
    assert isinstance(inverse.warp, TanWarp)
    # c at or above r/kappa has no preimage, however far past the float
    # range kappa^2 c^2 or c^2 is
    for c, r, kappa in ((2.0, 1.0, 1.0), (1e150, 1.0, 1e100),
                        (1e200, 1.0, 1.0), (1e-200, 1e-200, 1.0)):
        with pytest.raises(NotInRangeError):
            transformed_warp(ConstWarp(c), r, kappa, sign=-1)
    # the constant warp's transform is c s, with t = kappa c / r: exact
    # where r^2, kappa^2 c^2 or c^2 leave the float range
    for c, r, kappa in ((1e150, 1.0, 1e100), (1e200, 1.0, 1.0),
                        (1e160, 1.0, 1e-170), (1e-200, 1e-200, 1.0),
                        (1e-160, 1e-160, 1.0), (1.0, 1e-300, 1e-300)):
        got = transformed_warp(ConstWarp(c), r, kappa).c
        assert got == pytest.approx(exact_transform(c, r, kappa), rel=1e-15)
    assert transformed_warp(ConstWarp(1e-200), 1e-200, 0.5, sign=-1).c == \
        pytest.approx(exact_transform(1e-200, 1e-200, 0.5, -1), rel=1e-15)
    # so is the transform of any warp where r^2 underflows to 0
    for sign in (1, -1):
        warp = transformed_warp(SinhWarp(1.0), 1e-200, 1.0, sign)
        assert warp.f(0.0) == 0.0 and warp.df(0.0) == 1.0
        assert warp.f(1e-201) == pytest.approx(
            exact_transform(math.sinh(1e-201), 1e-200, 1.0, sign), rel=1e-15)


_TAB_RHO = np.linspace(0.0, 1.0, 11)
_ROUND_TRIP_BASES = {
    "sinh": lambda: SinhWarp(0.7),
    "tanh": lambda: TanhWarp(0.7),
    "tan": lambda: TanWarp(0.7),
    "sin": lambda: SinWarp(0.7),
    "const": lambda: ConstWarp(0.7),
    "linear": LinearWarp,
    "tabulated": lambda: TabulatedWarp(_TAB_RHO, 0.5 + 0.5 * _TAB_RHO ** 2),
}


@pytest.mark.parametrize("family", sorted(_ROUND_TRIP_BASES))
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("r, kappa", [(1.3, 0.4), (1.0, 0.7)])
def test_transform_round_trip_both_signs(family, sign, r, kappa):
    """sign then -sign is the identity; every base stays below r/kappa on
    [0, 1], so the inverse is defined whichever direction runs first.
    kappa = 0.7 = a r also runs the promotions."""
    warp = _ROUND_TRIP_BASES[family]()
    rho = np.linspace(0.0, 1.0, 41)
    assert np.all(warp.f(rho) < r / kappa)
    there = transformed_warp(warp, r, kappa, sign)
    back = transformed_warp(there, r, kappa, -sign)
    np.testing.assert_allclose(back.f(rho), warp.f(rho), rtol=0, atol=1e-12)


@pytest.mark.parametrize("sign", [0, 2, -2])
def test_transform_rejects_bad_sign(sign):
    with pytest.raises(DomainError):
        transformed_warp(SinhWarp(1.0), 1.0, 0.5, sign)
    with pytest.raises(DomainError):
        quotient_transform(metric_from_warp(SinhWarp(1.0), 1.0), 1.0, 0.5,
                           sign)


@pytest.mark.parametrize("base, image", [(SinhWarp(2.0), TanhWarp(2.0)),
                                         (TanWarp(2.0), SinWarp(2.0))])
def test_promotions_resolve_both_ways(base, image):
    # kappa = a r
    assert transformed_warp(base, 0.5, 1.0) == image
    assert transformed_warp(image, 0.5, 1.0, sign=-1) == base


def test_const_promotion_resolves_both_ways():
    c = 1.5
    there = transformed_warp(ConstWarp(c), 0.5, 1.0)
    assert isinstance(there, ConstWarp)
    assert there.c == pytest.approx(0.5 * c / math.sqrt(0.25 + c * c),
                                    rel=1e-15)
    back = transformed_warp(there, 0.5, 1.0, sign=-1)
    assert isinstance(back, ConstWarp)
    assert back.c == pytest.approx(c, rel=1e-14)


def test_transformed_curvature_closed_form():
    """K of the transform vs -f''/f from the exact chain-rule derivatives."""
    rho = np.linspace(0.2, 1.6, 25)
    for base in (SinhWarp(1.0), SinhWarp(0.6), LinearWarp()):
        for r, kappa in ((1.0, 0.5), (1.5, 2.0), (0.7, 1.0)):
            warp = transformed_warp(base, r, kappa)
            if isinstance(warp, TanhWarp):
                continue
            k = warp.curvature(rho)
            np.testing.assert_allclose(k, -warp.d2f(rho) / warp.f(rho),
                                       rtol=1e-10, atol=1e-12)


def test_transformed_curvature_at_the_pole():
    # capped base with curvature -a^2 gives K_new(0) = (3 kappa^2 - a^2 r^2)/r^2
    for a, r, kappa in ((1.0, 1.0, 0.5), (0.8, 1.4, 2.0)):
        warp = transformed_warp(SinhWarp(a), r, kappa)
        if isinstance(warp, TanhWarp):
            continue
        expected = (3.0 * kappa ** 2 - a ** 2 * r ** 2) / r ** 2
        assert float(warp.curvature(0.0)) == pytest.approx(expected, rel=1e-12)
    # flat base: K_new(0) = 3 kappa^2 / r^2
    warp = transformed_warp(LinearWarp(), 2.0, 1.5)
    assert float(warp.curvature(0.0)) == pytest.approx(3.0 * 1.5 ** 2 / 4.0,
                                                       rel=1e-12)


def test_transformed_derivatives_at_extreme_radii():
    """d2f and the curvature of the transform are written in t = kappa f / r
    and s^2 = 1 / (1 + t^2), so they stay finite and right where r^3,
    D^-2.5 or D^2 (D = r^2 + kappa^2 f^2) overflow or underflow.  At
    r = 1e110 the transform of sinh is sinh to 1e-220 of itself: K = -1
    and f'' = sinh.  At r = 1e-110 the pole curvature is 3 kappa^2 / r^2 +
    K_base = 3e220 and f''(0) = 0, as it is wherever f = 0, also when
    kappa / r overflows (kappa = 1e154, r = 1e-161)."""
    metric = quotient_transform(metric_from_warp(SinhWarp(1.0), 2.0),
                                1e110, 1.0)
    np.testing.assert_allclose(gauss_curvature(metric, [0.0, 1.0]),
                               [-1.0, -1.0], rtol=1e-15)
    wide = TransformedWarp(SinhWarp(1.0), 1e110, 1.0)
    assert wide.d2f(1.0) == pytest.approx(math.sinh(1.0), rel=1e-15)
    narrow = TransformedWarp(SinhWarp(1.0), 1e-110, 1.0)
    assert narrow.curvature(0.0) == pytest.approx(3e220, rel=1e-15)
    assert narrow.d2f(0.0) == 0.0
    assert TransformedWarp(SinhWarp(1.0), 1e-161, 1e154).d2f(0.0) == 0.0


def test_cigar_and_sphere_identities():
    """The two closed-form transform identities at kappa = a r."""
    rho = np.linspace(0.0, 4.0, 200)
    out = transformed_warp(SinhWarp(1.0), 1.0, 1.0)
    np.testing.assert_allclose(out.f(rho), np.tanh(rho), rtol=0, atol=1e-12)
    rho = np.linspace(0.0, math.pi / 2 - 0.05, 120)
    out = transformed_warp(TanWarp(1.0), 1.0, 1.0)
    np.testing.assert_allclose(out.f(rho), np.sin(rho), rtol=0, atol=1e-12)


def test_flat_cylinder_radius():
    out = transformed_warp(ConstWarp(1.0), 1.0, 1.0)
    rho = np.linspace(-1.0, 1.0, 9)
    np.testing.assert_allclose(out.f(rho), 1.0 / math.sqrt(2.0), atol=1e-15)
    assert quotient_circle_radius(1.0, 1.0, 1.0) == pytest.approx(
        1.0 / math.sqrt(2.0), abs=1e-15)


# ---------------------------------------------------------------------------
# parameters and small helpers
# ---------------------------------------------------------------------------

def test_quotient_circle_radius_formula():
    rng = np.random.default_rng(3)
    for _ in range(50):
        r1, r2 = rng.uniform(0.2, 3.0, size=2)
        kappa = float(rng.uniform(0.0, 4.0))
        got = quotient_circle_radius(float(r1), float(r2), kappa)
        want = math.sqrt(r1 * r1 * r2 * r2 / (kappa * kappa * r1 * r1 + r2 * r2))
        assert got == pytest.approx(want, rel=1e-15)
    with pytest.raises(DomainError):
        quotient_circle_radius(0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        quotient_circle_radius(1.0, 1.0, -1.0)
    # exact where r1^2 r2^2 or kappa^2 r1^2 leave the float range
    for r1, r2, kappa in ((1e200, 1.0, 1.0), (1.0, 1.0, 1e200),
                          (1e-200, 1e-200, 1.0), (1e200, 1e200, 1e-300)):
        assert quotient_circle_radius(r1, r2, kappa) == pytest.approx(
            exact_transform(r1, r2, kappa), rel=1e-15)


# floats whose pow(x, 2) is off by one ulp; x * x is correctly rounded
_POW_MISROUNDED = (0.5073711867288875, 0.5199819530763752, 3.8065733325547657)


def test_squares_are_correctly_rounded():
    """The curvatures square a with x * x, not pow; the constant warp's
    transform squares nothing: it is c / hypot(1, kappa c / r)."""
    def square(x):
        return float(Fraction(x) ** 2)

    for x in _POW_MISROUNDED:
        assert x ** 2 != square(x)
        assert SinWarp(x).curvature(0.0) == square(x)
        assert SinhWarp(x).curvature(0.0) == -square(x)
        want = 2.0 * (1.0 / np.hypot(1.0, 0.5 * 2.0 / x))
        assert transformed_warp(ConstWarp(2.0), x, 0.5).c == want


# (warp, methods, rho_max): the six named families with their closed-form
# curvature, and the transform both ways, with rho drawn from [0, rho_max)
_SCALAR_ARRAY_CASES = {
    "sinh": (SinhWarp(0.7), 3.0), "tanh": (TanhWarp(0.7), 3.0),
    "tan": (TanWarp(0.7), math.pi / 1.4), "sin": (SinWarp(0.7), math.pi / 0.7),
    "const": (ConstWarp(1.3), 3.0), "linear": (LinearWarp(), 3.0),
    "transformed": (TransformedWarp(SinhWarp(1.0), 1.3, 0.7), 3.0),
    "inverse-transformed": (TransformedWarp(SinWarp(1.0), 1.0, 0.5, -1),
                            math.pi),
}


@pytest.mark.parametrize("name", list(_SCALAR_ARRAY_CASES))
def test_scalar_and_array_evaluation_agree(name):
    """A warp gives the same bits for a scalar rho as for that rho inside an
    array.  numpy squares an array exactly but a numpy scalar with pow,
    which is not correctly rounded, so every square is written x * x."""
    warp, rho_max = _SCALAR_ARRAY_CASES[name]
    rho = np.random.default_rng(31).uniform(0.0, rho_max, 4000)
    for method in ("f", "df", "d2f", "curvature"):
        fn = getattr(warp, method)
        scalars = np.array([fn(x) for x in rho.tolist()])
        assert np.array_equal(scalars, fn(rho)), method


def test_warp_maxima_are_exact():
    """argmax is the rho of the warp's largest value on [lo, hi]: sin's
    interior peak pi/(2a) clipped to the interval, a transformed warp's
    base peak, the larger end of a monotone warp, and a tabulated warp's
    best node or cubic critical point, never below a dense sample."""
    sin = SinWarp(0.7)
    assert sin.argmax(0.0, 4.0) == math.pi / 1.4
    assert (sin.argmax(0.0, 1.0), sin.argmax(3.0, 4.0)) == (1.0, 3.0)
    assert TransformedWarp(sin, 1.3, 0.4).argmax(0.0, 4.0) == math.pi / 1.4
    assert TransformedWarp(sin, 1.3, 0.4, -1).argmax(0.0, 1.0) == 1.0
    assert SinhWarp(1.0).argmax(0.0, 2.0) == 2.0
    tab = TabulatedWarp(np.linspace(0.0, 4.0, 5), [0.2, 1.0, 1.0, 0.2, 0.1])
    for lo, hi in ((0.0, 4.0), (0.0, 1.2), (1.6, 3.9), (2.5, 4.0)):
        peak = tab.argmax(lo, hi)
        assert lo <= peak <= hi
        assert tab.f(peak) >= np.max(tab.f(np.linspace(lo, hi, 100001)))


def test_inverse_range_check_sees_peaks_between_scan_points():
    """The inverse's range check reads the warp at its exact maximum, so a
    peak past r/kappa that no point of a 257-point scan reaches is
    refused: sin passes r/kappa = 0.99999999 within 1.4e-4 of pi/2, a
    transformed sin peaks with it, and a spline overshoots its nodes."""
    scan = np.linspace(0.0, 2.0, 257)
    r = 0.99999999
    assert np.max(SinWarp(1.0).f(scan)) < r
    with pytest.raises(NotInRangeError, match="at rho = 1.5708; no pre"):
        quotient_transform(metric_from_warp(SinWarp(1.0), 2.0), r, 1.0, -1)
    there = quotient_transform(metric_from_warp(SinWarp(1.0), 2.0), 1.0, 0.5)
    assert isinstance(there.warp, TransformedWarp)
    bound = float(there.warp.f(math.pi / 2))
    assert np.max(there.warp.f(scan)) < bound
    with pytest.raises(NotInRangeError, match="at rho = 1.5708; no pre"):
        quotient_transform(there, bound, 1.0, -1)
    x = np.linspace(0.0, 4.0, 5)
    tab = TabulatedWarp(x, [0.2, 1.0, 1.0, 0.2, 0.1])
    r = 1.12356086          # between the scan's peak and the spline's
    assert np.max(tab.f(x)) < np.max(tab.f(np.linspace(0.0, 4.0, 257))) < r
    metric = RotSymMetric(tab, 0.0, 4.0)
    with pytest.raises(NotInRangeError, match="at rho = 1.51578; no pre"):
        quotient_transform(metric, r, 1.0, -1)
    assert quotient_transform(metric, 1.1236, 1.0, -1).warp.kind == \
        "inverse-transformed"
    # sin with a = 0.7 at r = 1.3, kappa = a r peaks one ulp below r/kappa,
    # so the inverse's natural domain, tan up to pi/(2a), refuses it
    a, r = 0.7, 1.3
    assert math.nextafter(float(SinWarp(a).f(math.pi / (2 * a))), 2.0) \
        == r / (a * r)
    with pytest.raises(NotInRangeError, match="at rho = 2.24399; no pre"):
        quotient_transform(metric_from_warp(SinWarp(a), 3.0), r, a * r, -1)


def test_asymptote_radius():
    assert asymptote_radius(3.0, 2.0) == 1.5
    # the transform approaches but never meets the asymptote
    warp = transformed_warp(SinhWarp(1.0), 3.0, 2.0)
    assert float(warp.f(8.0)) < 1.5
    assert float(warp.f(8.0)) == pytest.approx(1.5, abs=1e-3)


def test_transform_argument_validation():
    with pytest.raises(DomainError):
        transformed_warp(SinhWarp(1.0), 0.0, 1.0)
    with pytest.raises(DomainError):
        transformed_warp(SinhWarp(1.0), 1.0, -1.0)
    with pytest.raises(DomainError):
        transformed_warp(SinhWarp(1.0), -1.0, 1.0, sign=-1)
    # quotient_transform refuses them before the inverse's range check,
    # which would otherwise report r/kappa <= 0 as NotInRangeError
    metric = metric_from_warp(SinhWarp(1.0), 2.0)
    for sign in (1, -1):
        for r, kappa, message in ((0.0, 1.0, "need r > 0"),
                                  (-1.0, 1.0, "need r > 0"),
                                  (1.0, -0.5, "need kappa >= 0")):
            with pytest.raises(DomainError, match=message):
                quotient_transform(metric, r, kappa, sign)
    with pytest.raises(NoAsymptoteError):
        asymptote_radius(1.0, 0.0)
    # a TransformedWarp built directly refuses what transformed_warp does
    for r, kappa, message in ((0.0, 1.0, "need r > 0"),
                              (1.0, -1.0, "need kappa >= 0")):
        with pytest.raises(DomainError, match=message):
            TransformedWarp(SinhWarp(1.0), r, kappa)
    # kappa^2 past the float range or r^2 below it is no fault: f s is
    # exact, r/kappa = 1e-200 on both warps where f is far above it
    for r, kappa in ((1.0, 1e200), (1e-200, 1.0)):
        warp = TransformedWarp(SinhWarp(1.0), r, kappa)
        assert warp.f(0.0) == 0.0
        assert warp.f(1.0) == pytest.approx(1e-200, rel=1e-15)
    # only a t = kappa f / r past the float range is refused
    with pytest.raises(DomainError, match="kappa f / r overflows"):
        TransformedWarp(SinhWarp(1.0), 1e-300, 1e10).f(1.0)
