"""Tour of the circle-quotient warp transform on the named families.

Run:  python3 demos/transform_tour.py
"""

import math

import numpy as np

from collapse_lab import (
    ConstWarp,
    SinhWarp,
    TanWarp,
    gauss_curvature,
    metric_from_warp,
    quotient_circle_radius,
    transformed_warp,
)


def table(title, rho, *cols):
    print(f"\n{title}")
    header = ["rho"] + [name for name, _ in cols]
    print("  " + "  ".join(f"{h:>12s}" for h in header))
    for i, x in enumerate(rho):
        vals = [x] + [np.asarray(vals)[i] for _, vals in cols]
        print("  " + "  ".join(f"{v:12.6f}" for v in vals))


rho = np.linspace(0.0, 2.0, 9)

# hyperbolic plane -> cigar: the quotient trades exponential growth of the
# circle fibers for a bounded profile
sinh = SinhWarp(1.0)
cigar = transformed_warp(sinh, r=1.0, kappa=1.0)
print(f"sinh warp transforms to: {cigar.kind}")
table("hyperbolic cap vs its quotient", rho,
      ("f = sinh", sinh.f(rho)),
      ("f~ = tanh", cigar.f(rho)))

m = metric_from_warp(cigar, 4.0)
print(f"\nquotient curvature at 0: {float(gauss_curvature(m, 0.0)):+.6f}"
      f"   at 4: {float(gauss_curvature(m, 4.0)):+.6f}"
      "   (positive, decaying: a cigar)")

# tan -> sin: the incomplete exploding profile becomes a round cap
tan = TanWarp(1.0)
cap = transformed_warp(tan, r=1.0, kappa=1.0)
rho_cap = np.linspace(0.0, math.pi / 2 - 0.2, 8)
print(f"\ntan warp transforms to: {cap.kind}")
table("exploding profile vs its quotient", rho_cap,
      ("f = tan", tan.f(rho_cap)),
      ("f~ = sin", cap.f(rho_cap)))

# flat cylinder of radius 1: every fiber shrinks by the same factor
cyl = transformed_warp(ConstWarp(1.0), r=1.0, kappa=1.0)
print(f"\nconst warp transforms to: {cyl.kind}, "
      f"radius {float(cyl.f(0.0)):.12f}")
print(f"closed-form circle radius: {quotient_circle_radius(1.0, 1.0, 1.0):.12f}"
      f"  (1/sqrt(2) = {1 / math.sqrt(2):.12f})")

# the transform inverts cleanly below its range asymptote
back = transformed_warp(cigar, 1.0, 1.0, sign=-1)
err = float(np.max(np.abs(back.f(rho) - sinh.f(rho))))
print(f"\ninverse transform recovers sinh, max err {err:.2e}")
