"""Watch a hyperbolic cap times a circle collapse onto its quotient surface.

For each cyclic group order p the script measures the distortion of the
natural correspondence between the quotient of (cap x circle) and the
transformed limit surface; halving it bounds the Gromov-Hausdorff distance
between the two sampled sets.

Run:  python3 demos/collapse_run.py
"""

import time

from collapse_lab import CollapseConfig, collapse_experiment

config = CollapseConfig.from_json({
    "surface": {"family": "sinh", "a": 1.0},
    "rho_max": 2.0,
    "r": 1.0,
    "m1": 1,
    "m2": 1,
    "p_values": [2, 4, 8, 16, 32, 64],
    "grid": {"n_rho": 64, "n_theta": 64, "n_s": 48},
    "sample": {"n_rho": 8, "n_theta": 8, "n_s": 5},
})

start = time.perf_counter()
rows = collapse_experiment(config)
elapsed = time.perf_counter() - start

print(f"{'p':>4s}  {'distortion':>12s}  {'GH bound':>12s}")
for row in rows:
    print(f"{row.p:4d}  {row.distortion:12.6f}  {row.gh_upper_bound:12.6f}")
print(f"\ngrid floor estimate: {rows[0].grid_floor_estimate:.6f}  "
      "(how much the limit distances move when the grid is refined; "
      "not a bound on the discretization error)")
print(f"elapsed: {elapsed:.1f} s")
print("\nthe distortion decays toward the floor: the spaces converge to "
      "the same limit surface")
