"""Seeded inputs for every workload.

The seed moves only continuous values (surface and circle parameters,
Berger weights, metric entries).  Every size stays fixed -- grids, samples,
p lists, table rows, sample counts -- so each seed does the same work and
timings from different seeds are comparable.

The configs carry only keys the program reads and hold no NaN or Infinity,
keep m2 = 1 and stay far below the ring-refinement cap, so that a stricter
config schema or an m2 > 1 guard in a later version still accepts them.
"""

from __future__ import annotations

import random

WORKLOADS = ("cli-sweep", "collapse-c12", "collapse-fine-grid")

# Round-robin order of the CLI sweep; the first one is also the warm-up call.
CLI_COMMANDS = ("transform", "curvature", "soliton", "quotient", "berger",
                "collapse")

# (grid, sample, p_values) of each collapse shape.
DEMO_SHAPE = ((48, 48, 32), (6, 6, 4), (2, 4, 8, 16, 32))
C12_SHAPE = ((96, 96, 64), (10, 10, 6), (2, 4, 8, 16, 32, 64))
FINE_GRID_SHAPE = ((192, 192, 16), (6, 6, 4), (2, 4))


def _rng(workload: str, seed: int) -> random.Random:
    # str seeds hash with SHA-512, so the stream is the same in every process
    return random.Random(f"{workload}:{seed}")


def _jitter(rng: random.Random, centre: float, spread: float = 0.2) -> float:
    return round(centre * rng.uniform(1.0 - spread, 1.0 + spread), 6)


def _grid(sizes) -> dict:
    return dict(zip(("n_rho", "n_theta", "n_s"), sizes))


def collapse_config(rng: random.Random, shape) -> dict:
    """A collapse config of the given shape with a jittered sinh surface."""
    grid, sample, p_values = shape
    return {
        "surface": {"family": "sinh", "a": _jitter(rng, 1.0)},
        "rho_max": 2.0,
        "r": _jitter(rng, 1.0),
        "m1": 1,
        "m2": 1,
        "p_values": list(p_values),
        "grid": _grid(grid),
        "sample": _grid(sample),
    }


def cli_configs(seed: int) -> dict:
    """One config per subcommand, shaped like demos/configs/*.json."""
    rng = _rng("cli-sweep", seed)
    return {
        "transform": {"family": "sinh", "a": _jitter(rng, 1.0),
                      "r": _jitter(rng, 1.0), "m1": 1, "m2": 1,
                      "rho_max": 3.0, "n": 61},
        "curvature": {"family": "tanh", "a": _jitter(rng, 1.0),
                      "rho_max": 4.0, "n": 81},
        # B = 1 keeps the closed-form potential, so the residual columns
        # are defined on every row away from the pole
        "soliton": {"A": _jitter(rng, 1.0), "B": 1.0, "rho_max": 3.0,
                    "step": 0.01},
        "quotient": {"metric": [[_jitter(rng, 1.0), 0.0, 0.0],
                                [0.0, _jitter(rng, 4.0), 0.0],
                                [0.0, 0.0, _jitter(rng, 1.0)]],
                     "h_vectors": [[0.0, 1.0, 1.0]],
                     "frame": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]},
        "berger": {"A": _jitter(rng, 0.2), "B": _jitter(rng, 1.0),
                   "C": _jitter(rng, 1.0), "radius_min": 0.1,
                   "radius_max": 1.5, "num": 57, "samples": 200, "seed": 0},
        "collapse": collapse_config(rng, DEMO_SHAPE),
    }


def collapse_inputs(workload: str, seed: int) -> dict:
    """{"warmup": demo-shaped config, "solve": the workload's config}."""
    rng = _rng(workload, seed)
    shape = {"collapse-c12": C12_SHAPE,
             "collapse-fine-grid": FINE_GRID_SHAPE}[workload]
    return {"warmup": collapse_config(rng, DEMO_SHAPE),
            "solve": collapse_config(rng, shape)}


def expected_shape(command: str, config: dict):
    """(header, row count) the CLI documents for this config."""
    if command == "transform":
        return ["rho", "f", "f_transformed"], config["n"]
    if command == "curvature":
        return ["rho", "K"], config["n"]
    if command == "soliton":
        # solve_warp_ode divides [0, rho_max] into round(rho_max/step) steps
        return (["rho", "f", "fprime", "K", "phi", "res1", "res2"],
                max(4, round(config["rho_max"] / config["step"])) + 1)
    if command == "quotient":
        n = len(config["frame"])
        return [f"c{j}" for j in range(n)], n
    if command == "berger":
        return ["target_radius", "max_distortion"], config["num"]
    if command == "collapse":
        return (["p", "distortion", "gh_upper_bound", "grid_floor_estimate"],
                len(config["p_values"]))
    raise ValueError(f"unknown command {command!r}")
