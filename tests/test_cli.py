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
    # kappa = m1 / m2 = 1.5 = a r: sinh(1.5 rho) / 1.5 transforms to tanh
    cfg.update(a=1.5, m1=3, m2=2)
    code, out, err = run_cli(tmp_path, capsys, "transform", cfg)
    assert code == 0 and "sinh -> tanh" in err
    _, data = parse_csv(out)
    assert np.allclose(data[:, 2], np.tanh(1.5 * rho) / 1.5, atol=1e-12)


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


def test_soliton_unnormalized_b_matches_its_potential(tmp_path, capsys):
    """For B != 1 the potential is taken at k = sqrt(|A| B), and the
    residuals of the RK4 table against it are small off the pole row."""
    for A, B in ((1.0, 2.0), (-1.0, 0.5)):
        cfg = {"A": A, "B": B, "rho_max": 1.0, "step": 0.01}
        code, out, err = run_cli(tmp_path, capsys, "soliton", cfg)
        assert code == 0
        _, data = parse_csv(out)
        assert np.all(np.isfinite(data[:, :5]))
        # the pole row has f = 0, where the residuals are undefined
        assert np.all(np.isnan(data[0, 5:]))
        assert np.all(np.isfinite(data[1:, 5:]))
        assert np.max(data[1:, 5:]) <= 1e-3


def test_soliton_flat_table(tmp_path, capsys):
    """A = 0 is the flat plane, f = rho, with the zero potential: phi, K
    and res2 vanish on every row, and res1 is finite off the pole row."""
    cfg = {"A": 0, "rho_max": 2.0, "step": 0.01}
    code, out, err = _run_strict(tmp_path, capsys, "soliton", cfg)
    assert code == 0
    _, data = parse_csv(out)
    assert data.shape == (201, 7)
    assert np.all(data[:, 4] == 0.0)
    assert np.all(data[:, 2] == 1.0) and np.all(data[:, 3] == 0.0)
    assert np.all(np.isnan(data[0, 5:]))
    assert np.all(data[1:, 6] == 0.0) and np.all(np.isfinite(data[1:, 5]))


def test_soliton_large_a_prints_only_its_info_line(tmp_path, capsys):
    # a = sqrt(20000) ~ 141: cosh^2 of a rho overflows past rho ~ 2.5, where
    # phi'' is its limit 0, so numpy has no overflow to warn of; the step
    # keeps k h = 0.14 well inside RK4's stability bound
    cfg = {"A": 20000, "rho_max": 3, "step": 0.001}
    code, out, err = _run_strict(tmp_path, capsys, "soliton", cfg)
    assert code == 0
    assert err == "soliton: A=20000 B=1 step=0.001 rows=3001\n"
    _, data = parse_csv(out)
    assert np.all(np.isfinite(data[1:]))
    assert abs(data[-1, 1] - 1.0 / math.sqrt(20000)) <= 2e-16


def test_soliton_unstable_step_exits_1(tmp_path, capsys):
    # k h = 1.41 is past RK4's stability bound: the nodes would settle on
    # f = 0.00495 against the true 1 / sqrt(20000) = 0.00707
    cfg = {"A": 20000, "rho_max": 3, "step": 0.01}
    code, out, err = _run_strict(tmp_path, capsys, "soliton", cfg)
    assert code == 1 and out == ""
    assert err == ("collapse-lab: error: step 0.01 gives k h = 1.41421, "
                   "k = sqrt(A B), past the RK4 stability bound "
                   "MAX_RK4_KH = 1.35; use step <= 0.00952381\n")


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


def test_quotient_near_singular_gram_is_one_note(tmp_path, capsys):
    """A near-parallel orbit basis (Gram condition 4e14) is reported as one
    info line, not as a Python warning per frame row: under
    warnings-as-errors it still exits 0 with the unchanged table, and two
    frame rows, each solving the Gram system, still give one line."""
    note = ("quotient: warning: orbit-basis Gram condition 4.04e+14 "
            "exceeds 1e12\n")
    cfg = {"metric": np.eye(3).tolist(),
           "h_vectors": [[1, 0, 0], [1, 1e-7, 0]], "frame": [[0, 0, 1]]}
    code, out, err = _run_strict(tmp_path, capsys, "quotient", cfg)
    assert code == 0 and out == "c0\n1\n"
    assert err == "quotient: 1 x 1 matrix\n" + note
    cfg = {"metric": np.eye(4).tolist(),
           "h_vectors": [[1, 0, 0, 0], [1, 1e-7, 0, 0]],
           "frame": [[0, 0, 1, 0], [0, 0, 0, 1]]}
    code, out, err = _run_strict(tmp_path, capsys, "quotient", cfg)
    assert code == 0 and out == "c0,c1\n1,0\n0,1\n"
    assert err == "quotient: 2 x 2 matrix\n" + note


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


def test_berger_negative_seed_exits_2(tmp_path, capsys):
    cfg = {"A": 0.2, "B": 1, "C": 1, "num": 5, "samples": 10, "seed": -1}
    code, out, err = run_cli(tmp_path, capsys, "berger", cfg)
    assert code == 2 and out == ""
    assert "Traceback" not in err and "need seed >= 0" in err


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


@pytest.mark.parametrize("target", ["dir", "missing/table.csv"])
def test_unwritable_out_exits_2(tmp_path, capsys, target):
    """An --out that is a directory, or whose parent directory does not
    exist, is refused in one line naming the path."""
    (tmp_path / "dir").mkdir()
    out_path = str(tmp_path / target)
    cfg = {"family": "const", "a": 1.0, "rho_max": 1.0, "n": 11}
    code, out, err = run_cli(tmp_path, capsys, "curvature", cfg,
                             extra=["--out", out_path, "--quiet"])
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert f"cannot write output {out_path!r}" in err


@pytest.mark.skipif(not Path("/dev/full").exists(),
                    reason="needs the /dev/full device")
def test_unwritable_stdout_exits_2():
    """A stdout that cannot be written is refused in one line, like an
    unwritable --out, and the interpreter prints nothing more at exit."""
    cmd = [sys.executable, "-m", "collapse_lab", "curvature",
           "--config", str(DEMO_DIR / "curvature.json"), "--quiet"]
    with open("/dev/full", "w") as full:
        proc = subprocess.run(cmd, stdout=full, stderr=subprocess.PIPE,
                              text=True)
    assert proc.returncode == 2
    assert proc.stderr == ("collapse-lab: config error: cannot write output "
                           "'-': [Errno 28] No space left on device\n")


def test_demo_configs_run_without_scipy():
    """The runtime needs numpy only (scipy is a test dependency): with
    scipy made unimportable and warnings turned into errors, every demo
    config runs through the CLI and no scipy module is loaded."""
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "from pathlib import Path\n"
            "from collapse_lab.cli import main\n"
            "codes = [main([cfg.stem, '--config', str(cfg), '--out', "
            "'/dev/null', '--quiet']) for cfg in sorted("
            "Path(sys.argv[1]).glob('*.json'))]\n"
            "print(codes, sorted(m for m, mod in sys.modules.items() "
            "if m.partition('.')[0] == 'scipy' and mod is not None))")
    out = subprocess.run([sys.executable, "-W", "error", "-c", code,
                          str(DEMO_DIR)], capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == f"{[0] * len(DEMO_CONFIGS)} []"


def test_demo_collapse_leaves_numpy_ma_unimported():
    """The collapse path deduplicates its offsets without np.unique, which
    imports numpy.ma (numpy 2.4): a demo collapse run in a fresh process
    adds no numpy.ma to sys.modules.  numpy 1.x imports numpy.ma with
    numpy itself, so there the check has nothing to add to."""
    code = ("import sys\n"
            "import numpy\n"
            "had_ma = 'numpy.ma' in sys.modules\n"
            "from collapse_lab.cli import main\n"
            "code = main(['collapse', '--config', sys.argv[1], '--out', "
            "'/dev/null', '--quiet'])\n"
            "print(code, 'numpy.ma' in sys.modules and not had_ma)")
    out = subprocess.run([sys.executable, "-W", "error", "-c", code,
                          str(DEMO_DIR / "collapse.json")],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "0 False"


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
    # json.load's refusals that are not a JSONDecodeError: an integer
    # literal past Python's digit limit, and nesting past the recursion limit
    for name, text in (("digits.json", '{"a": ' + "1" * 5000 + "}"),
                       ("deep.json", "[" * 100000 + "]" * 100000)):
        path = tmp_path / name
        path.write_text(text)
        code = main(["curvature", "--config", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.count("\n") == 1
        assert f"config error: cannot parse config {str(path)!r}" \
            in captured.err


def test_non_utf8_config_exits_2(tmp_path, capsys):
    # a UTF-16 byte order mark is not UTF-8
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + '{"family": "sinh"}'.encode("utf-16-le"))
    code = main(["curvature", "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert "config error" in captured.err and "not UTF-8" in captured.err
    assert repr(str(path)) in captured.err


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
    # r and kappa are refused before the direction is read
    cfg["r"] = 0.0
    code, out, err = run_cli(tmp_path, capsys, "transform", cfg)
    assert code == 1 and "need r > 0" in err


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
    ("p_values", []),                               # no group at all
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


def _count_graph_builds(monkeypatch):
    """The list of the grid sizes of every surface graph built from now."""
    from collapse_lab import gh_collapse

    built = []
    build = gh_collapse.build_surface_graph

    def spy(metric, n_rho, n_theta):
        built.append((n_rho, n_theta))
        return build(metric, n_rho, n_theta)

    monkeypatch.setattr(gh_collapse, "build_surface_graph", spy)
    return built


def test_collapse_graph_beyond_cap_exits_1(tmp_path, capsys, monkeypatch):
    # the doubly refined limit field, 1999999 x 1000001 labels from each of
    # 6 sample rows, is refused before any graph is built
    built = _count_graph_builds(monkeypatch)
    cfg = json.loads((DEMO_DIR / "collapse.json").read_text())
    cfg["grid"].update(n_rho=1_000_000, n_theta=1_000_000)
    code, out, err = run_cli(tmp_path, capsys, "collapse", cfg)
    assert code == 1 and out == "" and built == []
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "collapse-lab: error" in err and "12000005999994 labels" in err
    assert "MAX_FIELD_LABELS = 8388608" in err


def test_collapse_chain_ring_beyond_cap_exits_1(tmp_path, capsys,
                                                monkeypatch):
    # Z_9797 puts its rotations on a ring of lcm(48, 9797) = 470256
    # columns, whose field from 6 sample rows over 48 rows exceeds the
    # label cap; it is refused before even the limit graph, which fits, is
    # built, and nothing falls back
    built = _count_graph_builds(monkeypatch)
    cfg = json.loads((DEMO_DIR / "collapse.json").read_text())
    cfg["p_values"] = [9797]
    code, out, err = run_cli(tmp_path, capsys, "collapse", cfg)
    assert code == 1 and out == "" and built == []
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "collapse-lab: error" in err and "MAX_FIELD_LABELS" in err
    assert f"{6 * 48 * 235129} labels" in err


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


def test_collapse_class_table_size_beyond_cap_exits_1(tmp_path, capsys,
                                                      monkeypatch):
    # 392 lookups of one group element on rings of 8 columns, but class
    # tables of 7^2 x 8 x 32767 entries, about 103 MB each: refused before
    # any graph is built
    built = _count_graph_builds(monkeypatch)
    cfg = json.loads((DEMO_DIR / "collapse.json").read_text())
    sizes = {"n_rho": 8, "n_theta": 8, "n_s": 16384}
    cfg.update(m1=0, m2=1, p_values=[1], grid=sizes, sample=dict(sizes))
    code, out, err = run_cli(tmp_path, capsys, "collapse", cfg)
    assert code == 1 and out == "" and built == []
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "collapse-lab: error" in err and "12844664 entries" in err
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


def _demo(command, **changes):
    return dict(json.loads((DEMO_DIR / f"{command}.json").read_text()),
                **changes)


def _run_strict(tmp_path, capsys, command, cfg):
    """run_cli with every warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run_cli(tmp_path, capsys, command, cfg)


@pytest.mark.parametrize("command, cfg, message", [
    # every squared distance of the quotient side overflows
    ("collapse", _demo("collapse", r=1e200), "distortion = inf in row 0"),
    # kappa = |cot xi| = 1e300, and A = sin^2 xi = 1e-600
    ("berger", {"xi": 1e-300}, "the Berger weight A = sin^2 xi underflows"),
    # kappa = m1 / m2 = 10^400 is past the float range
    ("transform", _demo("transform", m1=10 ** 400, m2=1), "m1 / m2 overflows"),
    ("collapse", _demo("collapse", m1=10 ** 400, m2=1), "m1 / m2 overflows"),
], ids=["collapse-r", "berger-xi", "transform-m1", "collapse-m1"])
def test_square_overflowing_transform_exits_1(tmp_path, capsys, command,
                                              cfg, message):
    code, out, err = _run_strict(tmp_path, capsys, command, cfg)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"collapse-lab: error: {message}")


@pytest.mark.parametrize("cfg, want", [
    (_demo("transform", r=1e200), lambda f: f),
    ({"family": "sinh", "r": 1.0, "kappa": 1e200},
     lambda f: 1e-200 if f > 0 else 0.0),
    ({"family": "const", "a": 1e200, "r": 1.0, "kappa": 1.0}, lambda f: 1.0),
    ({"family": "const", "a": 1e-200, "r": 1e-200, "kappa": 1.0},
     lambda f: 1e-200 * math.sqrt(0.5)),
    ({"family": "sinh", "a": 1.0, "r": 1e-200, "kappa": 1.0, "rho_max": 1.0,
      "n": 3}, lambda f: 1e-200 if f > 0 else 0.0),
], ids=["transform-r", "transform-kappa", "transform-const", "underflow-const",
        "underflow-sinh"])
def test_square_past_float_range_transform_answers(tmp_path, capsys, cfg,
                                                   want):
    # a square of r, kappa or c leaves the float range, and these were
    # refused; f / sqrt(1 + (kappa f / r)^2) is f to the last bit, or
    # r / kappa = 1e-200 where f is far above it, or the constant over
    # sqrt(2) at r = kappa c
    code, out, err = _run_strict(tmp_path, capsys, "transform", cfg)
    assert code == 0 and "Traceback" not in err
    for _, f, got in parse_csv(out)[1]:
        assert got == pytest.approx(want(f), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("value", [2 ** 63, 10 ** 30])
@pytest.mark.parametrize("key", ["n_rho", "n_theta", "n_s"])
def test_collapse_grid_size_past_int64_exits_1(tmp_path, capsys, key, value):
    """A grid size past int64 is refused by the cap on every grid size
    before any index array is built: n_theta and n_s overflowed the
    sample's grid indices, and n_rho reached numpy as an object array."""
    cfg = _demo("collapse")
    cfg["grid"] = dict(cfg["grid"], **{key: value})
    code, out, err = _run_strict(tmp_path, capsys, "collapse", cfg)
    assert code == 1 and out == ""
    assert err == (f"collapse-lab: error: grid {key} = {value} exceeds the "
                   f"cap on every grid size, MAX_FIELD_LABELS = 8388608\n")


def test_quotient_rejects_short_orbit_basis_row(tmp_path, capsys):
    # [[1]] against the 3 x 3 metric passed the count check and failed in
    # the concatenation with the frame
    code, out, err = _run_strict(tmp_path, capsys, "quotient",
                                 _demo("quotient", h_vectors=[[1.0]]))
    assert code == 1 and out == ""
    assert err == ("collapse-lab: error: orbit basis rows must have the "
                   "metric's dimension\n")


@pytest.mark.parametrize("scale", [1e-200, 1e-20, 1e100, 1e200])
def test_quotient_accepts_rescaled_orbit_basis(tmp_path, capsys, scale):
    # the demo's orbit direction (0, 1, 1) at another scale spans with the
    # frame as well; the rank on the raw rows lost it below its tolerance
    # and refused the basis as failing to span, and the orbit Gram of the
    # raw rows underflowed to 0 (Gram not SPD) or overflowed (not finite)
    want = _run_strict(tmp_path, capsys, "quotient", _demo("quotient"))
    got = _run_strict(tmp_path, capsys, "quotient",
                      _demo("quotient", h_vectors=[[0.0, scale, scale]]))
    assert want[0] == 0 and got == want


@pytest.mark.parametrize("row, col, entry", [
    (0, 0, 1e300), (1, 1, 1e300), (0, 0, 1.7e308), (1, 2, -1e300)])
def test_quotient_refuses_overflowing_form(tmp_path, capsys, row, col,
                                           entry):
    # the projected frame row is finite and its g-norm squared is not:
    # numpy's matmul warned of the overflow, and PointMetric then blamed
    # the input metric ("metric entries must be finite")
    cfg = _demo("quotient")
    cfg["frame"][row][col] = entry
    code, out, err = _run_strict(tmp_path, capsys, "quotient", cfg)
    assert (code, out) == (1, "")
    assert err == ("collapse-lab: error: quotient metric form h_ij = "
                   "g(Xi_perp, Xj_perp) overflows a float\n")


def test_quotient_rejects_frame_row_lost_to_cancellation(tmp_path, capsys):
    # in the g-norm of diag(1, 1e100, 1) the frame row (0, 1, 0) is nearly
    # the orbit direction (0, 1, 1): its projection keeps 1 / (1e100 + 1)
    # of its squared norm, and the rounded projection printed h11 = 4.9e68
    # where the exact value is about 1
    cfg = {"metric": [[1, 0, 0], [0, 1e100, 0], [0, 0, 1]],
           "h_vectors": [[0, 1, 1]], "frame": [[1, 0, 0], [0, 1, 0]]}
    code, out, err = _run_strict(tmp_path, capsys, "quotient", cfg)
    assert (code, out) == (1, "")
    assert err == ("collapse-lab: error: frame row 1 is nearly tangent to "
                   "the orbits: its projection keeps 4.93e-32 of its "
                   "squared norm\n")


@pytest.mark.parametrize("entry", [0, 1, 2])
def test_quotient_rejects_metric_whose_symmetrisation_overflows(
        tmp_path, capsys, entry):
    # a finite 1.7e308 on the diagonal doubles past the float range in
    # m + m^T; it is refused, not halved first into a wrong answer
    cfg = _demo("quotient")
    cfg["metric"][entry][entry] = 1.7e308
    code, out, err = _run_strict(tmp_path, capsys, "quotient", cfg)
    assert code == 1 and out == ""
    assert err == ("collapse-lab: error: metric entries overflow in the "
                   "symmetrisation 0.5 (m + m^T)\n")


def _collapse_small(surface, rho_max, r=1):
    return {"surface": surface, "rho_max": rho_max, "r": r, "m1": 0,
            "m2": 1, "p_values": [2],
            "grid": {"n_rho": 8, "n_theta": 8, "n_s": 4},
            "sample": {"n_rho": 2, "n_theta": 2, "n_s": 2}}


@pytest.mark.parametrize("command, cfg, column", [
    ("transform", _demo("transform", rho_max=800.0), "f = inf"),
    ("berger", _demo("berger", radius_max=1e308), "max_distortion = inf"),
    ("collapse", _demo("collapse", rho_max=800.0), "positive and finite"),
    ("curvature", {"family": "sinh", "a": 1e300}, "K = -inf in row 0"),
    ("curvature", {"family": "tanh", "a": 1e200}, "K = inf in row 0"),
    ("collapse", _collapse_small({"family": "const", "a": 1e200}, 2),
     "distortion = inf in row 0"),
    ("collapse", _collapse_small({"family": "const", "a": 1}, 1e308),
     "distortion = nan in row 0"),
    ("collapse", _collapse_small({"family": "const", "a": 1e308}, 2),
     "distortion = nan in row 0"),
    ("collapse", _collapse_small({"family": "linear"}, 1e160),
     "distortion = inf in row 0"),
], ids=["transform", "berger", "collapse", "curvature-sinh",
        "curvature-tanh", "collapse-ring-squared", "collapse-span",
        "collapse-ring-sum", "collapse-linear"])
def test_non_finite_table_exits_1(tmp_path, capsys, command, cfg, column):
    # the sinh warp overflows past rho = 710; R a_i overflows at 1e308;
    # the curvature's a^2 overflows at a = 1e300 and 1e200, and past the
    # first row tanh's 2 a^2 / cosh^2 is inf / inf; every collapse graph
    # weight below is finite, but a distance squares past the float range
    # (the ring of const a = 1e200, the linear warp up to 1e160) or a sum
    # of distances overflows (rho_max = 1e308, ring weights of 7.9e307)
    code, out, err = _run_strict(tmp_path, capsys, command, cfg)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("collapse-lab: error: ") and column in err


def test_collapse_overflow_past_the_minimum_is_exact(tmp_path, capsys):
    # with r = 1e154 every nonzero circle distance squares past the float
    # range, but for p = 2 each class has a group element at circle
    # distance 0, and with m1 = 0 both surfaces are the same: the terms
    # that overflow are never the minimum
    cfg = _collapse_small({"family": "sinh", "a": 1}, 2, r=1e154)
    code, out, err = _run_strict(tmp_path, capsys, "collapse", cfg)
    assert code == 0
    assert out == "p,distortion,gh_upper_bound,grid_floor_estimate\n2,0,0,0\n"
    assert err == "collapse: p=2 distortion=0\n"


@pytest.mark.parametrize("command, cfg", [
    ("transform", {"family": "const", "a": 1, "r": 1, "kappa": 1,
                   "rho_min": -1e308, "rho_max": 1e308, "n": 3}),
    ("curvature", {"family": "const", "a": 1, "rho_min": -1e308,
                   "rho_max": 1e308, "n": 3}),
], ids=["transform", "curvature"])
def test_overflowing_rho_span_exits_1(tmp_path, capsys, command, cfg):
    # both ends are finite, but the grid's span is not: np.linspace would
    # warn twice and fill the grid with nan
    code, out, err = _run_strict(tmp_path, capsys, command, cfg)
    assert code == 1 and out == ""
    assert err == "collapse-lab: error: rho_max - rho_min overflows a float\n"


def test_soliton_without_residual_rows_exits_1(tmp_path, capsys):
    # f stays below DELTA_CAP on every row, so res1 and res2 would be nan
    # on all of them
    cfg = {"A": 1, "rho_max": 1e-5, "step": 1e-6}
    code, out, err = _run_strict(tmp_path, capsys, "soliton", cfg)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("collapse-lab: error: ")
    assert "DELTA_CAP = 0.0001" in err


def test_curvature_past_warp_overflow_is_closed_form(tmp_path, capsys):
    # K = -1 needs no value of the overflowing sinh warp
    cfg = {"family": "sinh", "a": 1.0, "rho_max": 800.0, "n": 9}
    code, out, err = _run_strict(tmp_path, capsys, "curvature", cfg)
    assert code == 0
    _, data = parse_csv(out)
    assert np.array_equal(data[:, 1], np.full(9, -1.0))


@pytest.mark.parametrize("kappa, message", [
    (1.0, "warp reaches r/kappa at rho = 1.5708; no preimage"),
    (1.001, "warp reaches r/kappa at rho = 1.5708; no preimage"),
], ids=["kappa-1", "kappa-1.001"])
def test_transform_inverse_without_preimage_exits_1(tmp_path, capsys, kappa,
                                                    message):
    # sin reaches r / kappa between the grid points: at kappa = 1 exactly
    # at pi/2 inside [0, 3], where its inverse tan blows up, and at
    # kappa = 1.001 sin passes 1 / kappa near pi/2; either way the refusal
    # names the rho of sin's maximum
    cfg = {"family": "sin", "a": 1.0, "r": 1.0, "kappa": kappa,
           "direction": "inverse", "rho_max": 3.0, "n": 9}
    code, out, err = _run_strict(tmp_path, capsys, "transform", cfg)
    assert code == 1 and out == ""
    assert err == f"collapse-lab: error: {message}\n"


def test_transform_inverse_reaching_r_over_kappa_between_scan_points(
        tmp_path, capsys):
    """The config of the CI refusal step, with integer values and the
    default table size: sin touches r / kappa = 1 only at pi/2, between
    the table's points, and the refusal names r/kappa, not rho_max."""
    cfg = {"family": "sin", "a": 1, "r": 1, "kappa": 1,
           "direction": "inverse", "rho_max": 3}
    code, out, err = _run_strict(tmp_path, capsys, "transform", cfg)
    assert (code, out) == (1, "")
    assert err == ("collapse-lab: error: warp reaches r/kappa at rho = "
                   "1.5708; no preimage\n")


@pytest.mark.parametrize("cfg, rho", [
    ({"family": "sin", "a": 1, "r": 0.99999999, "kappa": 1,
      "direction": "inverse"}, "1.5708"),
    ({"family": "sin", "a": 0.7, "r": 1.3, "kappa": 0.7 * 1.3,
      "direction": "inverse", "rho_max": 3}, "2.24399"),
    ({"family": "sinh", "a": 1, "r": 1, "kappa": 1e-300,
      "direction": "inverse", "rho_max": 800, "n": 5}, "800"),
], ids=["sin-peak-past-r-over-kappa", "sin-peak-an-ulp-below",
        "sinh-overflow"])
def test_transform_inverse_refuses_warp_peak(tmp_path, capsys, cfg, rho):
    # sin passes r / kappa = 0.99999999 within 1.4e-4 of pi/2, between two
    # points of a 257-point scan of [0, 2]; at a = 0.7, r = 1.3 and
    # kappa = a r its peak is one ulp below r / kappa, and its inverse tan
    # blows up there; sinh overflows at rho = 800, past r / kappa = 1e300,
    # with no numpy warning
    code, out, err = _run_strict(tmp_path, capsys, "transform", cfg)
    assert (code, out) == (1, "")
    assert err == (f"collapse-lab: error: warp reaches r/kappa at rho = "
                   f"{rho}; no preimage\n")


@pytest.mark.parametrize("r", [1e-120, 1e-158])
def test_transform_tiny_r_keeps_its_table(tmp_path, capsys, r):
    # r^3 underflows at r = 1e-120, and r^2 is subnormal at r = 1e-158; the
    # transform's cap check at rho = 0 still sees f'(0) = 1, and the table
    # is r f / sqrt(f^2 + r^2), about r away from the pole
    cfg = {"family": "sinh", "a": 1.0, "r": r, "kappa": 1.0,
           "rho_max": 3.0, "n": 21}
    code, out, err = _run_strict(tmp_path, capsys, "transform", cfg)
    assert code == 0
    _, data = parse_csv(out)
    assert data[0, 2] == 0.0
    assert np.allclose(data[1:, 2], r, rtol=1e-15, atol=0.0)


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
