"""Every subcommand commutes with a change of the unit of length.

Rescaling every length of a config by s = 2^k is exact in binary floating
point until some value leaves the float range.  So the rescaled config must
give the base table with each column rescaled by its power of s, bit for
bit, or, where that table is not representable, exit 1 with one line on
stderr; it never exits 0 with another table.  The configs are the demo
configs and variants of them that reach the transform's general path
(TransformedWarp) rather than a named family, run through the CLI in
process with every warning an error.  No reference value is needed.

The soliton subcommand is left out: its spline overflows in the last
interval at large scales, and its residual cutoff DELTA_CAP is an absolute
length (ROADMAP item 6 removes both).
"""

import json
import math
from pathlib import Path

import pytest

from collapse_lab.cli import main

DEMO_DIR = Path(__file__).resolve().parents[1] / "demos" / "configs"

# exponents k of s = 2^k: every relation answers at NEAR; FAR also reaches
# tables past the float range
NEAR = (1, -1, 10, -10, 100, -100, 400, -400)
FAR = NEAR + (600, -600, 1000, -1000)


def _demo(command, **changes):
    return dict(json.loads((DEMO_DIR / f"{command}.json").read_text()),
                **changes)


def _run(tmp_path, capsys, command, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = main([command, "--config", str(path), "--quiet"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _table(text):
    header, *lines = text.splitlines()
    return header, [[float(x) for x in line.split(",")] for line in lines]


def _ldexp(x, e):
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


def _scale(value, e):
    """Each number of a nested list times 2^e."""
    if isinstance(value, list):
        return [_scale(v, e) for v in value]
    return _ldexp(value, e)


def check_covariant(tmp_path, capsys, command, base, scaled, k, powers,
                    answers):
    """The scaled config's table is the base table with column j times
    2^(k powers[j]), bit for bit, or, unless answers, a one-line exit 1."""
    code, out, err = _run(tmp_path, capsys, command, base)
    assert code == 0, err
    header, want = _table(out)
    code, out, err = _run(tmp_path, capsys, command, scaled)
    if code == 1 and not answers:
        assert out == "" and err.count("\n") == 1
        assert err.startswith("collapse-lab: error: ")
        return
    assert code == 0, err
    got_header, got = _table(out)
    assert got_header == header
    assert got == [[_ldexp(x, p * k) for x, p in zip(row, powers)]
                   for row in want]


def _scaled_a(warp, k):
    """The warp parameter a in units 2^k smaller: an inverse length, but
    the circle radius for const."""
    return _ldexp(warp["a"], k if warp["family"] == "const" else -k)


_TRANSFORMS = {
    # kappa = a r: the transform is the named family tanh
    "demo": _demo("transform"),
    # kappa = 1/2: the forward TransformedWarp
    "general": _demo("transform", m2=2),
    # the inverse TransformedWarp of sin, below r / kappa = 2
    "inverse": {"family": "sin", "a": 1.0, "r": 1.0, "m1": 1, "m2": 2,
                "direction": "inverse", "rho_max": 3.0, "n": 61},
    "const": {"family": "const", "a": 1.5, "r": 1.0, "kappa": 1.0,
              "rho_max": 2.0, "n": 5},
}


@pytest.mark.parametrize("k", FAR)
@pytest.mark.parametrize("name", list(_TRANSFORMS))
def test_transform_is_scale_covariant(tmp_path, capsys, name, k):
    # every rescaled table is representable, so every one is an answer:
    # r^2 left the float range at k = 600 and 1000 and was refused there
    base = _TRANSFORMS[name]
    scaled = dict(base, a=_scaled_a(base, k), r=_ldexp(base["r"], k),
                  rho_max=_ldexp(base["rho_max"], k))
    check_covariant(tmp_path, capsys, "transform", base, scaled, k,
                    (1, 1, 1), answers=True)


@pytest.mark.parametrize("k", NEAR)
def test_curvature_is_scale_covariant(tmp_path, capsys, k):
    base = _demo("curvature")
    scaled = dict(base, a=_ldexp(base["a"], -k),
                  rho_max=_ldexp(base["rho_max"], k))
    check_covariant(tmp_path, capsys, "curvature", base, scaled, k, (1, -2),
                    answers=True)


@pytest.mark.parametrize("k", FAR)
def test_quotient_is_orbit_basis_scale_invariant(tmp_path, capsys, k):
    # the orbit Gram of the raw rows underflowed or overflowed at k = 600
    # and 1000; the projection does not depend on the basis scale
    base = _demo("quotient")
    scaled = dict(base, h_vectors=_scale(base["h_vectors"], k))
    check_covariant(tmp_path, capsys, "quotient", base, scaled, k, (0, 0),
                    answers=True)


@pytest.mark.parametrize("k", NEAR)
def test_quotient_is_metric_scale_covariant(tmp_path, capsys, k):
    base = _demo("quotient")
    scaled = dict(base, metric=_scale(base["metric"], k))
    check_covariant(tmp_path, capsys, "quotient", base, scaled, k, (1, 1),
                    answers=True)


@pytest.mark.parametrize("k", FAR)
def test_quotient_is_frame_scale_covariant(tmp_path, capsys, k):
    # h times 2^(2k) leaves the float range at k = 600 and 1000: the form
    # overflows, or underflows to 0 and is not positive definite
    base = _demo("quotient")
    scaled = dict(base, frame=_scale(base["frame"], k))
    check_covariant(tmp_path, capsys, "quotient", base, scaled, k, (2, 2),
                    answers=abs(k) <= 400)


@pytest.mark.parametrize("k", NEAR)
def test_berger_is_scale_covariant(tmp_path, capsys, k):
    base = _demo("berger")
    scaled = dict(base, **{key: _ldexp(base[key], 2 * k)
                           for key in ("A", "B", "C")},
                  **{key: _ldexp(base[key], k)
                     for key in ("radius_min", "radius_max")})
    check_covariant(tmp_path, capsys, "berger", base, scaled, k, (1, 0),
                    answers=True)


_COLLAPSES = {
    # kappa = a r: the limit is the named family tanh
    "demo": _demo("collapse"),
    # kappa = 1 = 2 a r: the limit is a TransformedWarp
    "general": _demo("collapse", r=0.5),
}


@pytest.mark.parametrize("k", FAR + (-520, -530))
@pytest.mark.parametrize("name", list(_COLLAPSES))
def test_collapse_is_scale_covariant(tmp_path, capsys, name, k):
    # past k = 510 the squared distances overflow (an infinite distortion);
    # before k = -502 they are subnormal or 0 and the minimum over them is
    # wrong: at k = -520 and -530 the demo table was off by 8e-11 and 2e-4
    # of itself with exit 0, and at k = -600 by about 20% once r^2 was no
    # longer refused
    base = _COLLAPSES[name]
    surface = base["surface"]
    scaled = dict(base, surface=dict(surface, a=_scaled_a(surface, k)),
                  rho_max=_ldexp(base["rho_max"], k),
                  r=_ldexp(base["r"], k))
    check_covariant(tmp_path, capsys, "collapse", base, scaled, k,
                    (0, 1, 1, 1), answers=abs(k) <= 400)
