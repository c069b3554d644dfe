"""Correctness checks for every benchmarked operation.

Every output is a CSV table: the CLI writes one, and in-process collapse
rows are formatted the same way by collapse_csv.  check_table returns a list
of problems; an empty list means the operation passed.

For every seed a table must have the documented header and row count and
finite cells, and a collapse table must keep the invariants the code
documents: gh_upper_bound == distortion / 2, one grid floor shared by all
rows, and distortion non-increasing along the p chain.  For seed 0 every
cell is also compared with reference_seed0.json, captured by
capture_reference.py, within the per-table tolerance below.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from inputs import expected_shape

REFERENCE_PATH = Path(__file__).with_name("reference_seed0.json")

# (rel, abs) tolerance of a cell against the seed-0 reference
TOLERANCE = {
    "transform": (1e-9, 1e-12),
    "curvature": (1e-9, 1e-12),
    # res1/res2 are O(1e-8) differences of O(1) terms
    "soliton": (1e-9, 1e-9),
    "quotient": (1e-9, 1e-12),
    # hopf_pushforward is a central difference of step 1e-5; the exact
    # differential moves the scanned distortions by about 1e-10
    "berger": (1e-6, 1e-9),
    # the tolerance of the frozen values in the tests
    "collapse": (1e-9, 0.0),
}

# The soliton handler leaves res1/res2 NaN where f <= DELTA_CAP (1e-4):
# the residual is undefined at the pole row.
_SOLITON_POLE_F = 1e-4


def collapse_csv(rows) -> str:
    """CollapseRow list -> the CSV text the collapse subcommand prints."""
    lines = ["p,distortion,gh_upper_bound,grid_floor_estimate"]
    for row in rows:
        lines.append(",".join("%.17g" % float(x) for x in (
            row.p, row.distortion, row.gh_upper_bound,
            row.grid_floor_estimate)))
    return "\n".join(lines) + "\n"


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def parse_csv(text: str):
    """(header, rows of floats); raises ValueError on a malformed table."""
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty table")
    header = lines[0].split(",")
    rows = []
    for k, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"row {k} has {len(cells)} cells, "
                             f"header has {len(header)}")
        rows.append([float(c) for c in cells])
    return header, rows


def _may_be_nan(command: str, row, col: int) -> bool:
    return command == "soliton" and col >= 5 and row[1] <= _SOLITON_POLE_F


def _collapse_problems(rows, p_values) -> list:
    problems = []
    if [row[0] for row in rows] != [float(p) for p in p_values]:
        problems.append("p column does not match p_values")
    if len({row[3] for row in rows}) != 1:
        problems.append("grid floor is not shared by all rows")
    for p, dist, gh, _ in rows:
        if not math.isclose(gh, 0.5 * dist, rel_tol=1e-12, abs_tol=0.0):
            problems.append(f"p={p:g}: gh_upper_bound != distortion / 2")
    dists = [row[1] for row in rows]
    if any(b > a + 1e-9 for a, b in zip(dists, dists[1:])):
        problems.append("distortion increases along the p chain")
    return problems


def _reference_problems(command: str, rows, ref_text: str) -> list:
    _, want_rows = parse_csv(ref_text)
    if len(want_rows) != len(rows):
        return ["row count differs from the reference"]
    rel, abs_ = TOLERANCE[command]
    problems = []
    for k, (got, want) in enumerate(zip(rows, want_rows)):
        for col, (g, w) in enumerate(zip(got, want)):
            if math.isnan(g) and math.isnan(w):
                continue
            if not math.isclose(g, w, rel_tol=rel, abs_tol=abs_):
                problems.append(f"row {k} col {col}: {g!r} != reference "
                                f"{w!r}")
    return problems[:5]


def check_table(command: str, config: dict, text: str,
                reference: str | None = None) -> list:
    """Problems of one output table of the given subcommand and config."""
    try:
        header, rows = parse_csv(text)
    except ValueError as exc:
        return [f"{command}: {exc}"]
    want_header, want_rows = expected_shape(command, config)
    if header != want_header:
        return [f"{command}: header {header} != {want_header}"]
    if len(rows) != want_rows:
        return [f"{command}: {len(rows)} rows, want {want_rows}"]
    problems = [f"row {k} col {col} is not finite"
                for k, row in enumerate(rows)
                for col, x in enumerate(row)
                if not math.isfinite(x) and not _may_be_nan(command, row, col)]
    if command == "collapse":
        problems += _collapse_problems(rows, config["p_values"])
    if reference is not None:
        problems += _reference_problems(command, rows, reference)
    return [f"{command}: {p}" for p in problems]
