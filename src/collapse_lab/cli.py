"""Command line front end: JSON configs in, deterministic CSV out.

Every subcommand reads one JSON config (--config), writes one CSV table
(--out, default stdout) and prints progress notes to stderr unless --quiet.
Numbers are formatted with 17 significant digits so doubles round-trip and
repeated runs are byte-identical.

Exit codes: 0 on success, 1 on domain errors from the geometry modules,
2 on config parse or schema errors and on a config or output path that
cannot be read or written.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings

import numpy as np

from .errors import (ConfigError, DomainError, GeometryError,
                     GramConditionWarning)
from .schema import check_keys, read_int, read_number, read_rows, read_str

# Each handler imports the modules it runs, so a call loads only those.

# Largest transform or curvature n and berger num or samples; berger draws
# 7 normals a sample, about 56 MB at the cap.
MAX_TABLE_SIZE = 1_000_000


def _fmt(x) -> str:
    return "%.17g" % float(x)


def _csv(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    return "\n".join(lines) + "\n"


def _warp_of(cfg: dict):
    from .warped_metric import make_warp

    return make_warp(read_str(cfg, "family"), read_number(cfg, "a", 1.0))


def _params_of(cfg: dict):
    """(r, kappa) from either {"kappa": x} or the integer pair {"m1", "m2"}
    with kappa = m1 / m2."""
    from .warped_metric import _check_transform, _slope

    r = read_number(cfg, "r")
    if "m1" in cfg or "m2" in cfg:
        if "kappa" in cfg:
            raise ConfigError("give either 'kappa' or 'm1' and 'm2', "
                              "not both")
        kappa = _slope(read_int(cfg, "m1"), read_int(cfg, "m2"))
    else:
        kappa = read_number(cfg, "kappa")
    _check_transform(r, kappa)
    return r, kappa


def _table_size(cfg: dict, key: str, default: int) -> int:
    n = read_int(cfg, key, default)
    if n > MAX_TABLE_SIZE:
        raise DomainError(f"'{key}' = {n} exceeds the cap "
                          f"MAX_TABLE_SIZE = {MAX_TABLE_SIZE}")
    return n


def _finite_table(header, rows, hint: str) -> str:
    """The CSV of rows, refused with DomainError if any cell is inf or
    nan."""
    bad = np.argwhere(~np.isfinite(rows))
    if bad.size:
        i, j = bad[0]
        raise DomainError(f"{header[j]} = {rows[i, j]} in row {i}; {hint}")
    return _csv(header, rows)


def _rho_grid(cfg: dict, default_max: float = 2.0):
    rho_min = read_number(cfg, "rho_min", 0.0)
    rho_max = read_number(cfg, "rho_max", default_max)
    n = _table_size(cfg, "n", 201)
    if n < 2:
        raise ConfigError("need n >= 2 grid points")
    if not rho_max > rho_min:
        raise ConfigError("need rho_max > rho_min")
    if rho_max - rho_min == math.inf:
        raise DomainError("rho_max - rho_min overflows a float")
    return np.linspace(rho_min, rho_max, n)


# ---------------------------------------------------------------------------
# subcommand handlers: config dict -> (csv text, stderr info lines)
# ---------------------------------------------------------------------------

def _cmd_transform(cfg: dict):
    from .warped_metric import metric_from_warp, quotient_transform

    check_keys(cfg, ("family", "a", "r", "kappa", "m1", "m2", "direction",
                     "rho_min", "rho_max", "n"))
    warp = _warp_of(cfg)
    r, kappa = _params_of(cfg)
    direction = read_str(cfg, "direction", "forward")
    if direction not in ("forward", "inverse"):
        raise ConfigError("direction must be 'forward' or 'inverse'")
    rho = _rho_grid(cfg)
    metric = metric_from_warp(warp, float(rho[-1]), float(rho[0]))
    # the transformed metric refuses an inverse with no preimage anywhere on
    # the interval: it checks the warp at its exact maximum there, not at
    # the grid points
    out = quotient_transform(metric, r, kappa,
                             1 if direction == "forward" else -1).warp
    # an overflow is refused with the table, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        rows = np.column_stack([rho, warp.f(rho), out.f(rho)])
    info = [f"transform: {warp.kind} -> {out.kind} "
            f"(r={r:g}, kappa={kappa:g}, {direction})"]
    return _finite_table(["rho", "f", "f_transformed"], rows,
                         "the warp overflows; lower rho_max"), info


def _cmd_curvature(cfg: dict):
    from .warped_metric import gauss_curvature, metric_from_warp

    check_keys(cfg, ("family", "a", "rho_min", "rho_max", "n"))
    warp = _warp_of(cfg)
    rho = _rho_grid(cfg)
    metric = metric_from_warp(warp, float(rho[-1]), float(rho[0]))
    # an overflow is refused with the table, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        k = np.asarray(gauss_curvature(metric, rho), dtype=float)
    rows = np.column_stack([rho, np.broadcast_to(k, rho.shape)])
    return _finite_table(["rho", "K"], rows,
                         "the curvature overflows a float; lower a"), \
        [f"curvature: {warp.kind}"]


def _cmd_soliton(cfg: dict):
    from .soliton import (SolitonParams, soliton_potential, soliton_residual,
                          solve_warp_ode)
    from .warped_metric import DELTA_CAP

    check_keys(cfg, ("A", "B", "rho_max", "step"))
    params = SolitonParams(A=read_number(cfg, "A"),
                           B=read_number(cfg, "B", 1.0))
    rho_max = read_number(cfg, "rho_max", 4.0)
    step = read_number(cfg, "step", 0.01)
    warp = solve_warp_ode(params, rho_max, step)
    rho = warp.rho_nodes
    f = warp.f(rho)
    fp = params.B - params.A * f * f          # the ODE itself
    k = 2.0 * params.A * fp                   # K = -f''/f via the ODE
    pot = soliton_potential(params)
    phi = np.asarray(pot.phi(rho), dtype=float)
    res1 = np.full_like(f, np.nan)
    res2 = np.full_like(f, np.nan)
    ok = f > DELTA_CAP
    if not np.any(ok):
        raise DomainError(f"f <= DELTA_CAP = {DELTA_CAP} on every row, so "
                          f"res1 and res2 are undefined; raise rho_max")
    res1[ok], res2[ok] = soliton_residual(warp, pot, rho[ok])
    rows = np.column_stack([rho, f, fp, k, phi, res1, res2])
    info = [f"soliton: A={params.A:g} B={params.B:g} "
            f"step={step:g} rows={len(rho)}"]
    return _csv(["rho", "f", "fprime", "K", "phi", "res1", "res2"], rows), info


def _cmd_quotient(cfg: dict):
    from .killing_quotient import OrbitBasis, PointMetric, quotient_metric_form

    check_keys(cfg, ("metric", "h_vectors", "frame"))
    g, vectors, frame = (np.array(read_rows(cfg, key))
                         for key in ("metric", "h_vectors", "frame"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", GramConditionWarning)
        h = quotient_metric_form(PointMetric(g), OrbitBasis(vectors), frame)
    notes = [f"quotient: warning: {w.message}" for w in caught]
    n = h.dim
    header = [f"c{j}" for j in range(n)]
    return _csv(header, h.matrix), [f"quotient: {n} x {n} matrix", *notes]


def _berger_metric_of(cfg: dict):
    from .su2_geometry import BergerMetric, slope_quotient_metric

    if "xi" in cfg:
        if any(k in cfg for k in ("A", "B", "C")):
            raise ConfigError("give either 'xi' or 'A', 'B', 'C', not both")
        return slope_quotient_metric(read_number(cfg, "xi"))
    return BergerMetric(read_number(cfg, "A"), read_number(cfg, "B"),
                        read_number(cfg, "C"))


def _cmd_berger(cfg: dict):
    from .su2_geometry import submersion_fit

    check_keys(cfg, ("xi", "A", "B", "C", "radius_min", "radius_max", "num",
                     "samples", "seed"))
    metric = _berger_metric_of(cfg)
    r_min = read_number(cfg, "radius_min", 0.05)
    r_max = read_number(cfg, "radius_max", 3.0)
    num = _table_size(cfg, "num", 121)
    samples = _table_size(cfg, "samples", 200)
    seed = read_int(cfg, "seed", 0)
    if not (0 < r_min < r_max) or num < 2:
        raise ConfigError("need 0 < radius_min < radius_max and num >= 2")
    if seed < 0:
        raise ConfigError("need seed >= 0")
    radii = np.linspace(r_min, r_max, num)
    with np.errstate(over="ignore"):
        scan, best_r, best_d = submersion_fit(metric, radii, samples=samples,
                                              seed=seed)
    rows = np.column_stack([radii, scan])
    info = [f"berger: A={metric.A:g} B={metric.B:g} C={metric.C:g}",
            f"berger: best radius {best_r:.12g} "
            f"with distortion {best_d:.3e}"]
    return _finite_table(["target_radius", "max_distortion"], rows,
                         "the distortion overflows; lower radius_max"), info


def _cmd_collapse(cfg: dict):
    from .gh_collapse import CollapseConfig, collapse_experiment

    config = CollapseConfig.from_json(cfg)
    # an overflow is refused with the table, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        rows = collapse_experiment(config)
    table = np.array([(row.p, row.distortion, row.gh_upper_bound,
                       row.grid_floor_estimate) for row in rows])
    info = [f"collapse: p={row.p} distortion={row.distortion:.6g}"
            for row in rows]
    return _finite_table(["p", "distortion", "gh_upper_bound",
                          "grid_floor_estimate"], table,
                         "the distances overflow a float; lower a, rho_max "
                         "or r"), info


_HANDLERS = {
    "transform": _cmd_transform,
    "curvature": _cmd_curvature,
    "soliton": _cmd_soliton,
    "quotient": _cmd_quotient,
    "berger": _cmd_berger,
    "collapse": _cmd_collapse,
}

_HELP = {
    "transform": "warp transform table: rho,f,f_transformed",
    "curvature": "Gauss curvature table: rho,K",
    "soliton": "soliton ODE table: rho,f,fprime,K,phi,res1,res2",
    "quotient": "quotient metric matrix from {metric, h_vectors, frame}",
    "berger": "submersion distortion scan: target_radius,max_distortion",
    "collapse": "collapse experiment: p,distortion,gh_upper_bound,"
                "grid_floor_estimate",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collapse-lab",
        description="Numerical experiments with collapsing warped metrics.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{" + ",".join(_HANDLERS) + "}")
    for name, handler in _HANDLERS.items():
        p = sub.add_parser(name, help=_HELP[name])
        p.add_argument("--config", required=True,
                       help="path to the JSON config")
        p.add_argument("--out", default="-",
                       help="output CSV path (default: stdout)")
        p.add_argument("--quiet", action="store_true",
                       help="suppress progress notes on stderr")
    return parser


def _reject_constant(name: str):
    raise ConfigError(f"config holds {name}, which is not a finite number")


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path!r} is not UTF-8 text: {exc}") \
            from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: line "
                          f"{exc.lineno}, column {exc.colno}: {exc.msg}") \
            from exc
    # json.load's other refusals: an integer literal past Python's digit
    # limit (ValueError) and nesting past the recursion limit
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot parse config {path!r}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("config root must be a JSON object")
    return obj


def _write_output(path: str, text: str):
    # stdout is flushed here, so that a failed write is refused like a
    # failed --out; the flush at interpreter exit then has nothing left
    try:
        if path == "-":
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output {path!r}: {exc}") from exc


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        csv_text, info = _HANDLERS[args.command](cfg)
        if not args.quiet:
            for line in info:
                print(line, file=sys.stderr)
        _write_output(args.out, csv_text)
    except ConfigError as exc:
        print(f"collapse-lab: config error: {exc}", file=sys.stderr)
        return 2
    except GeometryError as exc:
        print(f"collapse-lab: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
