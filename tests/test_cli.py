"""End-to-end tests of the collapse-lab command line interface."""

import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from collapse_lab.cli import main


def run_cli(tmp_path, capsys, command, cfg, extra=None):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    argv = [command, "--config", str(path)] + (extra or [])
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    return header, data


# ---------------------------------------------------------------------------
# happy paths
# ---------------------------------------------------------------------------

def test_transform_table_matches_closed_form(tmp_path, capsys):
    cfg = {"family": "sinh", "a": 1.0, "r": 1.0, "m1": 1, "m2": 1,
           "rho_max": 2.0, "n": 41}
    code, out, err = run_cli(tmp_path, capsys, "transform", cfg)
    assert code == 0
    header, data = parse_csv(out)
    assert header == ["rho", "f", "f_transformed"]
    assert data.shape == (41, 3)
    rho = data[:, 0]
    # kappa = a r = 1, so sinh transforms to tanh exactly
    assert np.allclose(data[:, 1], np.sinh(rho), atol=1e-12)
    assert np.allclose(data[:, 2], np.tanh(rho), atol=1e-12)
    assert "sinh -> tanh" in err


def test_transform_inverse_direction(tmp_path, capsys):
    cfg = {"family": "tanh", "a": 1.0, "r": 1.0, "kappa": 1.0,
           "direction": "inverse", "rho_max": 1.5, "n": 31}
    code, out, err = run_cli(tmp_path, capsys, "transform", cfg)
    assert code == 0
    _, data = parse_csv(out)
    assert np.allclose(data[:, 2], np.sinh(data[:, 0]), atol=1e-12)
    assert "inverse" in err


def test_curvature_table(tmp_path, capsys):
    cfg = {"family": "tanh", "a": 1.0, "rho_max": 2.0, "n": 21}
    code, out, err = run_cli(tmp_path, capsys, "curvature", cfg)
    assert code == 0
    header, data = parse_csv(out)
    assert header == ["rho", "K"]
    want = 2.0 / np.cosh(data[:, 0]) ** 2
    assert np.allclose(data[:, 1], want, atol=1e-12)
    assert data[0, 1] == pytest.approx(2.0, abs=1e-12)


def test_soliton_table_and_pole_rows(tmp_path, capsys):
    cfg = {"A": 1.0, "B": 1.0, "rho_max": 2.0, "step": 0.01}
    code, out, err = run_cli(tmp_path, capsys, "soliton", cfg)
    assert code == 0
    header, data = parse_csv(out)
    assert header == ["rho", "f", "fprime", "K", "phi", "res1", "res2"]
    assert data.shape == (201, 7)
    rho, f = data[:, 0], data[:, 1]
    assert np.allclose(f, np.tanh(rho), atol=1e-8)
    # identity residuals are blanked out where f is inside the pole band
    assert np.isnan(data[0, 5]) and np.isnan(data[0, 6])
    body = data[1:]
    assert np.all(np.isfinite(body[:, 5:]))
    # -f''/f loses accuracy near the pole where f ~ rho divides the
    # second-order spline error
    assert np.max(np.abs(body[:, 5:])) <= 1e-3
    away = data[rho >= 0.5]
    assert np.max(np.abs(away[:, 5:])) <= 1e-4
    assert "rows=201" in err


def test_soliton_unnormalized_b_blanks_potential(tmp_path, capsys):
    cfg = {"A": 1.0, "B": 2.0, "rho_max": 1.0, "step": 0.01}
    code, out, err = run_cli(tmp_path, capsys, "soliton", cfg)
    assert code == 0
    _, data = parse_csv(out)
    # no closed-form potential is defined away from B = 1
    assert np.all(np.isnan(data[:, 4:]))
    # but the ODE columns are still live
    assert np.all(np.isfinite(data[:, :4]))


def test_quotient_matrix_euclidean(tmp_path, capsys):
    cfg = {"metric": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
           "h_vectors": [[0, 0, 1]],
           "frame": [[1, 0, 0], [0, 1, 0]]}
    code, out, err = run_cli(tmp_path, capsys, "quotient", cfg)
    assert code == 0
    header, data = parse_csv(out)
    assert header == ["c0", "c1"]
    assert np.allclose(data, np.eye(2), atol=1e-15)
    assert "2 x 2" in err


def test_berger_scan_round_metric(tmp_path, capsys):
    cfg = {"xi": math.pi / 2, "radius_min": 0.1, "radius_max": 0.9,
           "num": 5, "samples": 60, "seed": 1}
    code, out, err = run_cli(tmp_path, capsys, "berger", cfg)
    assert code == 0
    header, data = parse_csv(out)
    assert header == ["target_radius", "max_distortion"]
    assert data.shape == (5, 2)
    # the round metric submerses onto the half-radius sphere exactly
    assert int(np.argmin(data[:, 1])) == 2
    assert data[2, 0] == pytest.approx(0.5, rel=1e-12)
    assert data[2, 1] <= 1e-9
    assert "best radius" in err


def test_berger_draws_its_samples_once(capsys, monkeypatch):
    """The scan and the best radius share one draw of the samples."""
    from collapse_lab import su2_geometry

    calls = []
    draw = su2_geometry._pushforward_norms

    def counted(*args):
        calls.append(args)
        return draw(*args)

    monkeypatch.setattr(su2_geometry, "_pushforward_norms", counted)
    path = DEMO_DIR / "berger.json"
    assert main(["berger", "--config", str(path), "--quiet"]) == 0
    assert len(calls) == 1


def test_berger_best_radius_outside_scanned_range(tmp_path, capsys):
    """The best radius sqrt(B)/2 = 3.5 lies beyond the default scan table."""
    cfg = {"A": 0.2, "B": 49, "C": 49}
    code, out, err = run_cli(tmp_path, capsys, "berger", cfg)
    assert code == 0
    _, data = parse_csv(out)
    assert data.shape == (121, 2) and data[-1, 0] == 3.0
    assert "best radius 3.5 " in err


TINY_COLLAPSE = {
    "surface": {"family": "sinh", "a": 1.0},
    "rho_max": 1.2,
    "r": 1.0,
    "m1": 1,
    "m2": 1,
    "p_values": [2, 4],
    "grid": {"n_rho": 16, "n_theta": 16, "n_s": 8},
    "sample": {"n_rho": 3, "n_theta": 3, "n_s": 2},
}


def test_collapse_table(tmp_path, capsys):
    code, out, err = run_cli(tmp_path, capsys, "collapse", TINY_COLLAPSE)
    assert code == 0
    header, data = parse_csv(out)
    assert header == ["p", "distortion", "gh_upper_bound",
                      "grid_floor_estimate"]
    assert data[:, 0].tolist() == [2.0, 4.0]
    assert np.all(data[:, 1] > 0)
    assert np.allclose(data[:, 2], 0.5 * data[:, 1], rtol=1e-15)
    assert data[0, 3] == data[1, 3] > 0
    assert "p=2" in err and "p=4" in err


DEMO_DIR = Path(__file__).resolve().parents[1] / "demos" / "configs"
DEMO_CONFIGS = sorted(DEMO_DIR.glob("*.json"))

DOCUMENTED_HEADERS = {
    "transform": ["rho", "f", "f_transformed"],
    "curvature": ["rho", "K"],
    "soliton": ["rho", "f", "fprime", "K", "phi", "res1", "res2"],
    "quotient": ["c0", "c1"],
    "berger": ["target_radius", "max_distortion"],
    "collapse": ["p", "distortion", "gh_upper_bound", "grid_floor_estimate"],
}


def test_demo_configs_cover_every_subcommand():
    assert sorted(p.stem for p in DEMO_CONFIGS) == sorted(DOCUMENTED_HEADERS)


@pytest.mark.parametrize("path", DEMO_CONFIGS, ids=lambda p: p.stem)
def test_demo_config_runs(path, capsys):
    """Each demos/configs/<subcommand>.json runs through its subcommand."""
    code = main([path.stem, "--config", str(path), "--quiet"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    header, data = parse_csv(captured.out)
    assert header == DOCUMENTED_HEADERS[path.stem]
    assert data.shape[0] >= 1


# ---------------------------------------------------------------------------
# output modes
# ---------------------------------------------------------------------------

def test_out_file_and_quiet(tmp_path, capsys):
    cfg = {"family": "const", "a": 1.0, "rho_max": 1.0, "n": 11}
    out_path = tmp_path / "table.csv"
    code, out, err = run_cli(tmp_path, capsys, "curvature", cfg,
                             extra=["--out", str(out_path), "--quiet"])
    assert code == 0
    assert out == "" and err == ""
    header, data = parse_csv(out_path.read_text())
    assert header == ["rho", "K"]
    assert np.allclose(data[:, 1], 0.0, atol=1e-15)


def test_repeated_runs_byte_identical(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(TINY_COLLAPSE))
    cmd = [sys.executable, "-m", "collapse_lab", "collapse",
           "--config", str(path), "--quiet"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert len(first.stdout) > 0


# ---------------------------------------------------------------------------
# failure modes and exit codes
# ---------------------------------------------------------------------------

def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"family": "sinh",')
    code = main(["curvature", "--config", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "config error" in err
    assert "line" in err and "column" in err


def test_config_root_must_be_object(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]")
    code = main(["curvature", "--config", str(path)])
    assert code == 2
    assert "JSON object" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path, capsys):
    code = main(["curvature", "--config", str(tmp_path / "nope.json")])
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


def test_missing_key_exits_2(tmp_path, capsys):
    cfg = {"family": "sinh", "a": 1.0}          # transform needs r
    code, out, err = run_cli(tmp_path, capsys, "transform", cfg)
    assert code == 2
    assert "'r'" in err


def test_bad_direction_exits_2(tmp_path, capsys):
    cfg = {"family": "sinh", "a": 1.0, "r": 1.0, "kappa": 1.0,
           "direction": "sideways"}
    code, out, err = run_cli(tmp_path, capsys, "transform", cfg)
    assert code == 2
    assert "direction" in err


@pytest.mark.parametrize("key, value", [("r", math.nan),
                                        ("kappa", math.inf)])
def test_non_finite_config_value_exits_2(tmp_path, capsys, key, value):
    cfg = dict({"family": "sinh", "a": 1.0, "r": 1.0, "kappa": 1.0},
               **{key: value})
    code, out, err = run_cli(tmp_path, capsys, "transform", cfg)
    assert code == 2 and out == ""
    assert "not a finite number" in err


def test_overflowing_number_exits_2(tmp_path, capsys):
    # 1e400 is valid JSON but parses to inf
    path = tmp_path / "cfg.json"
    path.write_text('{"family": "tanh", "a": 1e400, "n": 5}')
    code = main(["curvature", "--config", str(path)])
    assert code == 2
    assert "'a' must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("m1", True),                                   # bool as an integer
    ("grid", {"n_rho": 24.9, "n_theta": 16, "n_s": 8}),   # fractional
    ("sample", {"n_rho": 3, "n_theta": "3", "n_s": 2}),   # string
    ("p_values", [2, 4.0]),                         # float list element
])
def test_collapse_rejects_non_integer_fields(tmp_path, capsys, field, value):
    cfg = dict(TINY_COLLAPSE, **{field: value})
    code, out, err = run_cli(tmp_path, capsys, "collapse", cfg)
    assert code == 2 and out == ""
    assert "must be" in err and "integer" in err


@pytest.mark.parametrize("a", ["wide", True])
def test_collapse_rejects_non_number_surface_parameter(tmp_path, capsys, a):
    cfg = dict(TINY_COLLAPSE, surface={"family": "sinh", "a": a})
    code, out, err = run_cli(tmp_path, capsys, "collapse", cfg)
    assert code == 2 and out == ""
    assert "'a' must be a number" in err


def test_quotient_rejects_overflowing_metric(tmp_path, capsys):
    # 1e400 is valid JSON but parses to inf, which np.linalg.cholesky
    # passes through without failing
    path = tmp_path / "cfg.json"
    path.write_text('{"metric": [[1e400, 0.0], [0.0, 1.0]], '
                    '"h_vectors": [[0.0, 1.0]], "frame": [[1.0, 0.0]]}')
    code = main(["quotient", "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "metric entries must be finite" in captured.err


@pytest.mark.parametrize("h_vectors, frame", [
    ("[[1e400, 1.0, 1.0]]", "[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]"),
    ("[[0.0, 1.0, 1.0]]", "[[1e400, 0.0, 0.0], [0.0, 1.0, 0.0]]"),
], ids=["h_vectors", "frame"])
def test_quotient_rejects_non_finite_basis_or_frame(tmp_path, capsys,
                                                    h_vectors, frame):
    # 1e400 parses to inf, which the rank test would report as a failure
    # to span
    path = tmp_path / "cfg.json"
    path.write_text('{"metric": [[1.0, 0.0, 0.0], [0.0, 4.0, 0.0], '
                    '[0.0, 0.0, 1.0]], "h_vectors": %s, "frame": %s}'
                    % (h_vectors, frame))
    code = main(["quotient", "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "non-finite" in captured.err


def test_quotient_rejects_bool_tables(tmp_path, capsys):
    # a bool is not a number: the tables must not be read as 1.0 and 0.0
    cfg = {"metric": [[True, False], [False, True]],
           "h_vectors": [[False, True]], "frame": [[True, False]]}
    code, out, err = run_cli(tmp_path, capsys, "quotient", cfg)
    assert code == 2 and out == ""
    assert "config error" in err and "'metric'" in err


@pytest.mark.parametrize("key, value", [
    ("metric", True), ("metric", [[1.0, 0.0], [0.0]]),
    ("h_vectors", [[0.0, "1"]]), ("frame", [])])
def test_quotient_rejects_malformed_table(tmp_path, capsys, key, value):
    cfg = {"metric": [[1.0, 0.0], [0.0, 1.0]], "h_vectors": [[0.0, 1.0]],
           "frame": [[1.0, 0.0]]}
    cfg[key] = value
    code, out, err = run_cli(tmp_path, capsys, "quotient", cfg)
    assert code == 2 and out == ""
    assert f"config key {key!r} must be a non-empty list" in err


@pytest.mark.parametrize("surface", ["sinh", {"a": 1.0}])
def test_collapse_rejects_malformed_surface(tmp_path, capsys, surface):
    cfg = dict(TINY_COLLAPSE, surface=surface)
    code, out, err = run_cli(tmp_path, capsys, "collapse", cfg)
    assert code == 2 and out == ""
    assert "config error" in err


def test_collapse_graph_beyond_cap_exits_1(tmp_path, capsys):
    # the doubly refined limit graph would have about 2e12 nodes
    cfg = json.loads((DEMO_DIR / "collapse.json").read_text())
    cfg["grid"].update(n_rho=1_000_000, n_theta=1_000_000)
    code, out, err = run_cli(tmp_path, capsys, "collapse", cfg)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "collapse-lab: error" in err and "MAX_GRAPH_NODES" in err


def test_collapse_chain_ring_beyond_cap_exits_1(tmp_path, capsys):
    # Z_9797 puts its rotations on a ring of lcm(48, 9797) = 470256
    # columns, 48 rows of which exceed the graph cap; nothing falls back
    cfg = json.loads((DEMO_DIR / "collapse.json").read_text())
    cfg["p_values"] = [9797]
    code, out, err = run_cli(tmp_path, capsys, "collapse", cfg)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "collapse-lab: error" in err and "MAX_GRAPH_NODES" in err
    assert f"{48 * 470256} nodes" in err


def test_collapse_fine_chain_rings_check_every_table(tmp_path, capsys,
                                                      monkeypatch):
    """Slopes 3 / 7 with the chains 97 and 101 on the demo grid: each chain
    gets its own exact ring, and the raw limit table and both quotient
    tables pass the metric check before they are averaged."""
    from collapse_lab import gh_collapse

    checked = []
    check = gh_collapse._check_metric

    def spy(d, d_transposed, diagonal):
        checked.append(d.shape)
        return check(d, d_transposed, diagonal)

    monkeypatch.setattr(gh_collapse, "_check_metric", spy)
    cfg = json.loads((DEMO_DIR / "collapse.json").read_text())
    cfg.update(m1=3, m2=7, p_values=[97, 101])
    code, out, err = run_cli(tmp_path, capsys, "collapse", cfg)
    assert code == 0
    header, data = parse_csv(out)
    assert data[:, 0].tolist() == [97.0, 101.0]
    assert np.all(np.isfinite(data))
    assert len(checked) == 3


@pytest.mark.parametrize("m1", [3_000_000_000, 10 ** 20])
def test_collapse_huge_slope_stays_exact(tmp_path, capsys, m1):
    """Group rotations are reduced in Python integers: a slope far beyond
    float precision, or beyond int64, still gives exact ring columns."""
    cfg = json.loads((DEMO_DIR / "collapse.json").read_text())
    cfg.update(m1=m1, p_values=[2, 4])
    code, out, err = run_cli(tmp_path, capsys, "collapse", cfg)
    assert code == 0, err
    header, data = parse_csv(out)
    assert data[:, 0].tolist() == [2.0, 4.0]
    assert np.all(np.isfinite(data))


def test_collapse_class_table_beyond_cap_exits_1(tmp_path, capsys):
    # p * S^2 * D_theta = 1e12 * 6^2 * 6 entries on the demo sample
    cfg = json.loads((DEMO_DIR / "collapse.json").read_text())
    cfg["p_values"] = [2, 1_000_000_000_000]
    code, out, err = run_cli(tmp_path, capsys, "collapse", cfg)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "collapse-lab: error" in err and "216000000000000 entries" in err
    assert "MAX_CLASS_ENTRIES = 4194304" in err


def test_collapse_label_table_beyond_cap_exits_1(tmp_path, capsys):
    # every graph and the class table are under their caps, but the 1023
    # sample rows off the pole, as sources on the 2047 x 1025 refined limit
    # strip, need 2.1e9 labels
    cfg = json.loads((DEMO_DIR / "collapse.json").read_text())
    cfg.update(grid={"n_rho": 1024, "n_theta": 1024, "n_s": 4},
               sample={"n_rho": 1024, "n_theta": 1, "n_s": 1}, p_values=[2])
    code, out, err = run_cli(tmp_path, capsys, "collapse", cfg)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "collapse-lab: error" in err and "2146433025 labels" in err
    assert "MAX_FIELD_LABELS = 8388608" in err


def test_soliton_spline_overflow_exits_1(tmp_path, capsys):
    # finite RK4 nodes (f up to 1e160) whose spline coefficients overflow
    cfg = {"A": -1e-300, "B": 1e300, "rho_max": 1e-140, "step": 1e-143}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(tmp_path, capsys, "soliton", cfg)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "collapse-lab: error" in err and "overflow" in err


def test_soliton_step_beyond_cap_exits_1(tmp_path, capsys):
    cfg = {"A": 1.0, "B": 1.0, "rho_max": 3.0, "step": 1e-9}
    code, out, err = run_cli(tmp_path, capsys, "soliton", cfg)
    assert code == 1 and out == ""
    assert "collapse-lab: error" in err and "Traceback" not in err
    assert "n = 3e+09" in err and "MAX_ODE_STEPS = 1000000" in err


@pytest.mark.parametrize("command, key", [
    ("transform", "n"), ("curvature", "n"), ("berger", "num"),
    ("berger", "samples")])
def test_table_size_beyond_cap_exits_1(tmp_path, capsys, command, key):
    # 1e10 rows or draws would allocate about 75 GiB or loop for days
    cfg = json.loads((DEMO_DIR / f"{command}.json").read_text())
    cfg[key] = 10_000_000_000
    code, out, err = run_cli(tmp_path, capsys, command, cfg)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert f"'{key}' = 10000000000" in err
    assert "MAX_TABLE_SIZE = 1000000" in err


def test_transform_zero_m2_exits_1(tmp_path, capsys):
    cfg = {"family": "sinh", "r": 1.0, "m1": 1, "m2": 0}
    code, out, err = run_cli(tmp_path, capsys, "transform", cfg)
    assert code == 1 and out == ""
    assert "Traceback" not in err and "need m1 >= 0 and m2 >= 1" in err


@pytest.mark.parametrize("command, where", [
    ("transform", None), ("curvature", None), ("soliton", None),
    ("quotient", None), ("berger", None), ("collapse", None),
    ("collapse", "grid"), ("collapse", "sample"), ("collapse", "surface")])
def test_unknown_config_key_exits_2(tmp_path, capsys, command, where):
    cfg = json.loads((DEMO_DIR / f"{command}.json").read_text())
    (cfg[where] if where else cfg)["stepp"] = 5
    code, out, err = run_cli(tmp_path, capsys, command, cfg)
    assert code == 2 and out == ""
    assert "unknown config key 'stepp'" in err


@pytest.mark.parametrize("command, cfg", [
    ("transform", {"family": "sinh", "r": 1.0, "kappa": 1.0, "m1": 1,
                   "m2": 1}),
    ("berger", {"xi": 0.7, "A": 0.2, "num": 5, "samples": 20}),
])
def test_alternative_parameter_sets_are_exclusive(tmp_path, capsys, command,
                                                  cfg):
    code, out, err = run_cli(tmp_path, capsys, command, cfg)
    assert code == 2 and out == ""
    assert "not both" in err


def test_domain_error_exits_1(tmp_path, capsys):
    # rho_min below the warp's natural domain
    cfg = {"family": "sinh", "a": 1.0, "rho_min": -1.0, "rho_max": 1.0}
    code, out, err = run_cli(tmp_path, capsys, "curvature", cfg)
    assert code == 1
    assert "collapse-lab: error" in err


def test_ode_blowup_exits_1(tmp_path, capsys):
    cfg = {"A": -1.0, "B": 1.0, "rho_max": 2.0, "step": 0.01}
    code, out, err = run_cli(tmp_path, capsys, "soliton", cfg)
    assert code == 1
    assert "collapse-lab: error" in err


def test_unknown_subcommand_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--config", "x.json"])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_no_arguments_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err
