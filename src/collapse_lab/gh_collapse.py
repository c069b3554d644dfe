"""Measured Gromov-Hausdorff collapse of [surface x S^1(r)] / Z_p.

The surface piece is discretized as an 8-neighbor grid graph in (rho, theta)
with edge weights sqrt(drho^2 + f(rho_mid)^2 dtheta^2); exact shortest paths
on that graph stand in for geodesic distance.  Product distances split as
sqrt(d_P^2 + d_S1^2) (exact for Riemannian products, with the circle factor
analytic), and the Z_p quotient distance minimizes over group translates.

Every weight of the graph depends only on the rho rows an edge joins, so the
graph is a few per-row weight tables (build_surface_graph), and rotations
theta -> theta + 2 pi k / n_theta and the reflection theta -> -theta are
weight-preserving automorphisms of it.  Every distance field is solved from
sources at theta = 0, which the reflection fixes, so only the half strip
theta in [0, pi] (grid columns 0 .. n_theta // 2) is solved, and the field
is that half-strip table: its lookup takes integer columns of any sign and
folds them into the strip.  The solver (distance_field) is a
label-correcting one in numpy: Gauss-Seidel sweeps in the four grid
directions, repeated until one relaxation of every edge lowers no label,
whose fixed point is Dijkstra's output to the last bit.  surface_distances
serves the full graph from the same fields, by the mirror and the
rotations.

collapse_experiment compares the quotient against the transformed limit
surface through the correspondence (rho, theta, s) -> (rho, theta - kappa s)
and reports, per p, the distortion, the implied upper bound distortion / 2
on the GH distance between the sampled sets (the quotient sample and its
image in the limit surface, not the whole spaces), and a grid-floor
estimate: the largest change of the sampled limit-surface distances when
the grid is refined.  The floor is the refinement sensitivity of the graph
distances, not a bound on their discretization error: the 8-neighbor
stencil's direction error does not shrink under refinement, and the floor
does not see it.  Every ring is refined so that each group rotation and
each slice angle is a node, so every distance is read off a field at a node.
Both spaces are invariant under the rotations of the sample grid, so every
distance between two sample points depends only on an offset class (source
rho slot, target rho slot, theta offset, s offset), keyed on integer
grid-index offsets: theta offsets mod n_theta, s offsets signed, because
theta - kappa s is not periodic in s for non-integer kappa.  The experiment
works on these S x S x D_theta x D_s tables and never builds an
n_pts x n_pts matrix; FiniteMetricSpace, natural_correspondence and
distortion are the same computation on explicit matrices, for small spaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConnectivityError, DomainError
from .schema import check_keys, is_int, read_int, read_number
from .warped_metric import (
    RotSymMetric,
    TransformParams,
    WarpCurve,
    metric_from_warp,
    quotient_transform,
    warp_from_json,
)

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# surface graphs
# ---------------------------------------------------------------------------

@dataclass
class SurfaceGraph:
    """8-neighbor grid graph over (rho, theta); theta wraps modulo 2 pi.

    Node (i, j) sits at rho_values[i] and theta = 2 pi j / n_theta.  Every
    edge weight depends only on the rows it joins, so the graph is held as
    per-row weight tables; an edge that does not exist weighs inf:
      ring[i]  the ring edges (i, j) - (i, j + 1), f(rho_i) dtheta;
      rad[i]   the radial edges (i - 1, j) - (i, j), drho (rad[0] = inf);
      diag[i]  the diagonal edges (i - 1, j) - (i, j +- 1) (diag[0] = inf),
               at least rad[i], which the fold of an odd ring relies on.

    When the metric caps at rho = 0 the whole first grid row is one pole
    node, connected to every node of the first ring by a spoke of weight
    rad[1]; then ring[0] = 0 (the pole has no ring arc) and diag[1] = inf.
    A distance field holds the pole in every column of row 0, and the zero
    ring weight joins those copies, so they agree once the field is solved.
    """
    rho_values: np.ndarray          # (n_rho,) including the pole row
    n_theta: int
    pole: bool
    ring: np.ndarray                # (n_rho,)
    rad: np.ndarray                 # (n_rho,)
    diag: np.ndarray                # (n_rho,)

    @property
    def n_rho(self) -> int:
        return self.rho_values.size

    @property
    def n_nodes(self) -> int:
        if self.pole:
            return 1 + (self.n_rho - 1) * self.n_theta
        return self.n_rho * self.n_theta

    def node_index(self, i_rho, j_theta):
        """Flat node index; every (0, j) maps to the single pole node."""
        i = np.asarray(i_rho)
        j = np.asarray(j_theta) % self.n_theta
        if self.pole:
            return np.where(i == 0, 0, 1 + (i - 1) * self.n_theta + j)[()]
        return (i * self.n_theta + j)[()]


# Largest surface graph, in nodes of the full ring, that build_surface_graph
# accepts.  The graph itself is three weights a row; what grows with its
# nodes is a solve: surface_distances returns 8 bytes a node per source, and
# distance_field holds 16 bytes a half-strip node per source (see
# MAX_FIELD_LABELS).
MAX_GRAPH_NODES = 2 ** 22


# Largest label table, sources x half-strip nodes (n_rho x (n_theta // 2 +
# 1)), that one distance field may hold.  The solver keeps the float64
# labels and a scratch table of the same size for its convergence check, 16
# bytes a label, so the cap bounds a solve near 128 MiB.
MAX_FIELD_LABELS = 2 ** 23


# Largest work of one group Z_p: p lookups of S x S x D_theta surface
# distances in a collapse solve (S sample rho rows, D_theta theta offsets),
# one group element at a time, so the cap bounds the lookups of a solve
# rather than a table held in memory.
MAX_CLASS_ENTRIES = 2 ** 22


def _check_graph_size(n_nodes: int) -> None:
    if n_nodes > MAX_GRAPH_NODES:
        raise DomainError(f"surface graph of {n_nodes} nodes exceeds the cap "
                          f"MAX_GRAPH_NODES = {MAX_GRAPH_NODES}; use a "
                          f"coarser grid")


def _check_field_size(n_labels: int) -> None:
    if n_labels > MAX_FIELD_LABELS:
        raise DomainError(f"distance field of {n_labels} labels (sources x "
                          f"half-strip nodes) exceeds the cap "
                          f"MAX_FIELD_LABELS = {MAX_FIELD_LABELS}; use a "
                          f"coarser grid or fewer sample rho rows")


def build_surface_graph(metric: RotSymMetric, n_rho: int,
                        n_theta: int) -> SurfaceGraph:
    """Discretize the surface of revolution on an n_rho x n_theta grid.

    Edge weights are sqrt(drho^2 + f(rho_mid)^2 dtheta^2) with f evaluated
    at segment midpoints for radial/diagonal edges and at the node row for
    ring edges.  All weights must be positive, so f may vanish only at a
    capped origin (where the row degenerates to the pole node); truncate
    before any other zero of f.  A graph above MAX_GRAPH_NODES nodes raises
    DomainError.
    """
    if n_rho < 8 or n_theta < 8:
        raise DomainError("need at least an 8 x 8 grid")
    pole = bool(metric.capped_at_origin)
    _check_graph_size(int(pole) + (n_rho - int(pole)) * n_theta)
    rho = np.linspace(metric.rho_min, metric.rho_max, n_rho)
    w = metric.warp
    f_nodes = np.asarray(w.f(rho), dtype=float)
    dtheta = TWO_PI / n_theta
    drho = np.diff(rho)
    mid_f = np.asarray(w.f(0.5 * (rho[:-1] + rho[1:])), dtype=float)
    if np.any(f_nodes[int(pole):] <= 0) or np.any(mid_f <= 0):
        raise DomainError("warp must be positive away from the capped pole; "
                          "truncate the interval before f vanishes")
    ring = f_nodes * dtheta
    rad = np.concatenate([[math.inf], drho])
    # math.hypot is correctly rounded where np.hypot can be off by one ulp
    diag = np.array([math.inf] + [math.hypot(x, y) for x, y in
                                  zip(drho, mid_f * dtheta)])
    if pole:
        ring[0] = 0.0
        diag[1] = math.inf
    return SurfaceGraph(rho_values=rho, n_theta=n_theta, pole=pole,
                        ring=ring, rad=rad, diag=diag)


def _sweep(graph: SurfaceGraph, d: np.ndarray) -> None:
    """One Gauss-Seidel pass in each direction over the padded labels d:
    rho descending, theta ascending, rho ascending, theta descending.

    A rho pass relaxes each row from the row before it in the pass (the
    radial and both diagonal in-edges), vectorised over sources x columns;
    a theta pass relaxes each column from the column before it (the ring
    and both diagonal in-edges), vectorised over rows x sources.  So
    either pass follows any mix of its straight steps with diagonal ones:
    on a flat stretch many such mixes have the same length, rounding
    decides which is shortest, and a pass that left the diagonals out
    would take several more sweeps to find it.  A node's two diagonal
    in-edges from one row share their weight, so they are relaxed at once
    as fl(min(a, b) + w), which equals min(fl(a + w), fl(b + w)) because
    rounding is monotone.
    """
    n_rho, width = d.shape[0], d.shape[2] - 2
    rad, diag = graph.rad, graph.diag
    ring_c, diag_c = graph.ring[:, None], diag[1:, None]
    row = np.empty_like(d[0, :, 1:-1])
    col = np.empty_like(d[:, :, 0])
    step = np.empty_like(col[1:])

    def from_row(i, k):
        """Relax row i from its neighbour row k."""
        w = max(i, k)               # the edges between rows i and k
        inner = d[i, :, 1:-1]
        np.add(d[k, :, 1:-1], rad[w], out=row)
        np.minimum(inner, row, out=inner)
        np.minimum(d[k, :, :-2], d[k, :, 2:], out=row)
        np.add(row, diag[w], out=row)
        np.minimum(inner, row, out=inner)

    def from_column(j, c):
        """Relax column j from its neighbour column c."""
        src = d[:, :, c]
        np.add(src, ring_c, out=col)
        np.add(src[:-1], diag_c, out=step)      # from row i - 1
        np.minimum(col[1:], step, out=col[1:])
        np.add(src[1:], diag_c, out=step)       # from row i + 1
        np.minimum(col[:-1], step, out=col[:-1])
        np.minimum(d[:, :, j], col, out=d[:, :, j])

    for i in range(n_rho - 2, -1, -1):
        from_row(i, i + 1)
    for j in range(2, width + 1):
        from_column(j, j - 1)
    for i in range(1, n_rho):
        from_row(i, i - 1)
    for j in range(width - 1, 0, -1):
        from_column(j, j + 1)


def _relaxation_lowers(graph: SurfaceGraph, d: np.ndarray,
                       cand: np.ndarray) -> bool:
    """Whether relaxing every in-edge of every node at once (the eight grid
    directions and the pole spokes) would lower any label of d.

    The edges go in five groups of one weight per target row; each group's
    candidates are written into cand, the size of the label table, and
    compared there, so the check allocates nothing of that size.  The pole,
    held in every column of row 0, is checked column by column against its
    spokes, which finds a lower label exactly when its best spoke does.
    """
    inner = d[:, :, 1:-1]
    ring, rad, diag = (w[:, None, None] for w in
                       (graph.ring, graph.rad, graph.diag))
    every, upper, lower = slice(None), slice(None, -1), slice(1, None)
    # (target rows, the rows their in-edges come from, the weights, whether
    # the in-edges come from the two neighbouring columns)
    for rows, src, w, sideways in ((every, every, ring, True),
                                   (lower, upper, rad[1:], False),
                                   (lower, upper, diag[1:], True),
                                   (upper, lower, rad[1:], False),
                                   (upper, lower, diag[1:], True)):
        c = cand[rows]
        if sideways:
            np.minimum(d[src, :, :-2], d[src, :, 2:], out=c)
            np.add(c, w, out=c)
        else:
            np.add(inner[src], w, out=c)
        # label - candidate > 0 exactly where the candidate is lower; an
        # unreached node with an unreached candidate gives nan, ignored
        with np.errstate(invalid="ignore"):
            np.subtract(inner[rows], c, out=c)
        if np.fmax.reduce(c, axis=None) > 0:
            return True
    return False


def surface_distances(graph: SurfaceGraph, sources) -> np.ndarray:
    """Exact shortest-path distances from the given node indices to all
    nodes, (len(sources), n_nodes); raises ConnectivityError if anything is
    unreachable.

    One half-strip field is solved per distinct source row; the field of a
    source in column c is that row's field unfolded by the mirror and
    rotated by c columns, exact because both maps are weight-preserving
    automorphisms of the graph.
    """
    sources = np.atleast_1d(np.asarray(sources, dtype=int))
    if np.any((sources < 0) | (sources >= graph.n_nodes)):
        raise DomainError(f"source nodes must lie in [0, {graph.n_nodes})")
    n, first = graph.n_theta, int(graph.pole)
    rows, cols = np.divmod(sources - first, n)
    rows += first
    cols[sources < first] = 0       # the pole, a pole graph's node 0
    source_rows, slot = np.unique(rows, return_inverse=True)
    fld = distance_field(graph, source_rows)
    i = np.arange(graph.n_rho)[:, None]
    out = np.empty((sources.size, graph.n_nodes))
    out[:, graph.node_index(i, np.arange(n))] = fld.lookup(
        slot.reshape(-1, 1, 1), i, np.arange(n) - cols[:, None, None])
    return out


@dataclass
class SurfaceDistanceField:
    """Distances from sources at (rho_row, theta = 0) to the nodes of a
    graph of n_theta columns.

    Rotational symmetry of the graph turns one field per source rho row into
    distances between any pair of nodes.  The field is its half-strip
    table: dist[i, k, j] is the distance from source k to node (i, j) for
    the columns j = 0 .. n_theta // 2 (a pole row holds the pole in every
    column); lookup folds every column into the strip by the reflection
    symmetry.
    """
    n_theta: int
    dist: np.ndarray                # (n_rho, S, n_theta // 2 + 1)

    def lookup(self, src_slot, rho_row, column):
        """Distance from source src_slot to node (rho_row, column), the
        integer column of any sign counted from the source's and taken mod
        n_theta."""
        n = self.n_theta
        j = np.asarray(column) % n
        return self.dist[rho_row, src_slot, np.minimum(j, n - j)][()]


def distance_field(graph: SurfaceGraph, rho_rows) -> SurfaceDistanceField:
    """Exact graph distances from (row, theta = 0) for each requested row.

    The reflection theta -> -theta fixes every source and maps the graph
    onto itself with identical edge weights, so each field satisfies
    d(i, j) = d(i, n_theta - j), and only the half strip is solved: the
    induced subgraph on columns 0 .. n_theta // 2, with the pole and its
    spokes to those columns.  The fold is exact: a shortest path from a
    theta = 0 source reflects into the half strip at the same length, and
    the only edges the half strip drops run between mirror columns (for odd
    n_theta a folded diagonal, parallel to a shorter radial edge).

    The labels start at inf, 0 at the sources, and every change lowers a
    label to some fl(d[u] + w_uv), so each label is the rounded length of
    a path and, rounding being monotone, never below Dijkstra's.  The
    solver repeats one sweep in each of the four grid directions (_sweep)
    until one relaxation of every in-edge of every node (the eight grid
    directions and the pole spokes) lowers no label (_relaxation_lowers).
    Then d[v] <= fl(d[u] + w_uv) on every edge, and by induction along
    Dijkstra's shortest-path tree no label is above Dijkstra's either: the
    fields are Dijkstra's output bit for bit, whatever the sweep order, and
    the half-strip values are the full graph's.  The label table is
    (n_rho, S, n_theta // 2 + 3), a column of inf on either side of the
    strip standing in for the edges the strip does not have; the solve
    refuses more than MAX_FIELD_LABELS labels before allocating.
    """
    rho_rows = np.atleast_1d(np.asarray(rho_rows, dtype=int))
    n_rho, width = graph.n_rho, graph.n_theta // 2 + 1
    if np.any((rho_rows < 0) | (rho_rows >= n_rho)):
        raise DomainError(f"source rows must lie in [0, {n_rho})")
    _check_field_size(rho_rows.size * n_rho * width)
    d = np.full((n_rho, rho_rows.size, width + 2), math.inf)
    d[rho_rows, np.arange(rho_rows.size), 1] = 0.0
    if graph.pole:
        d[0, rho_rows == 0, 1:-1] = 0.0
    cand = np.empty_like(d[:, :, 1:-1])
    _sweep(graph, d)
    while _relaxation_lowers(graph, d, cand):
        _sweep(graph, d)
    dist = d[:, :, 1:-1]
    if dist.max() == math.inf:
        raise ConnectivityError("surface graph is disconnected")
    return SurfaceDistanceField(n_theta=graph.n_theta, dist=dist)


# ---------------------------------------------------------------------------
# finite metric spaces, quotients, correspondences
# ---------------------------------------------------------------------------

def _check_metric(d, d_transposed, diagonal):
    """Cheap metric axioms on distances d whose swapped pairs are
    d_transposed: zero diagonal and symmetry to 1e-12 of the largest
    distance, and nonnegativity."""
    scale = max(1.0, float(d.max(initial=0.0)))
    if np.max(np.abs(diagonal), initial=0.0) > 1e-12 * scale:
        raise DomainError("diagonal must vanish")
    if np.max(np.abs(d - d_transposed), initial=0.0) > 1e-12 * scale:
        raise DomainError("distance matrix must be symmetric")
    if np.any(d < 0):
        raise DomainError("distances must be nonnegative")


@dataclass
class FiniteMetricSpace:
    """Point labels plus a distance matrix.

    Construction checks the cheap axioms (zero diagonal, symmetry to 1e-12);
    triangle_defect() reports the worst triangle violation for tests.
    """
    labels: list
    d: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.d, dtype=float)
        n = len(self.labels)
        if d.shape != (n, n):
            raise DomainError("distance matrix shape must match labels")
        _check_metric(d, d.T, np.diag(d))
        self.d = d

    @property
    def n(self) -> int:
        return len(self.labels)

    def triangle_defect(self) -> float:
        """max over (i,j,k) of d(i,k) - d(i,j) - d(j,k); <= 0 for a metric."""
        d = self.d
        worst = -math.inf
        for j in range(self.n):
            via = d[:, j][:, None] + d[j, :][None, :]
            worst = max(worst, float(np.max(d - via)))
        return worst


@dataclass(frozen=True)
class QuotientSpec:
    """Diagonal action of Z_p on (surface) x S^1(r): the group element
    tau = 2 pi k / p advances theta by m1 tau and the circle coordinate s by
    m2 tau."""
    r: float
    m1: int
    m2: int
    p: int = 2

    def __post_init__(self):
        if self.r <= 0:
            raise DomainError("need r > 0")
        if self.m1 < 0 or self.m2 < 1:
            raise DomainError("need m1 >= 0 and m2 >= 1")
        if self.p < 1:
            raise DomainError("need p >= 1")

    @property
    def kappa(self) -> float:
        return self.m1 / self.m2

    def group_angles(self) -> np.ndarray:
        return TWO_PI * np.arange(self.p) / self.p


def circle_distance(s_a, s_b, r: float):
    """Arc distance on S^1(r) between angular coordinates."""
    delta = np.abs(np.asarray(s_b, dtype=float) - np.asarray(s_a, dtype=float)) % TWO_PI
    return (r * np.minimum(delta, TWO_PI - delta))[()]


def product_distance(d_p, d_s1):
    """Distance in a Riemannian product: the factor distances add in
    quadrature."""
    return np.hypot(d_p, d_s1)[()]


def _check_class_table(p: int, entries: int) -> None:
    if p * entries > MAX_CLASS_ENTRIES:
        raise DomainError(f"class table of {p * entries} entries for a "
                          f"group of order {p} exceeds the cap "
                          f"MAX_CLASS_ENTRIES = {MAX_CLASS_ENTRIES}; use a "
                          f"smaller group or sample")


def quotient_distance(spec: QuotientSpec, a, b, dp_lookup) -> float:
    """Quotient pseudodistance between a = (p_a, s_a) and b = (p_b, s_b):
    the least product distance from a to a group translate of b.

    dp_lookup(p_a, p_b, rot) must return the surface distance from p_a to
    b's surface point rotated by the angle rot; it is called once, with
    the array of all rotations.  The group element tau acts by (m1 tau) on
    the surface angle and (m2 tau) on the circle coordinate.  A group of
    more than MAX_CLASS_ENTRIES elements raises DomainError before its
    angles are made.
    """
    (pa, sa), (pb, sb) = a, b
    _check_class_table(spec.p, 1)
    tau = spec.group_angles()
    return float(np.min(product_distance(
        dp_lookup(pa, pb, spec.m1 * tau),
        circle_distance(0.0, sb - sa + spec.m2 * tau, spec.r))))


@dataclass
class Correspondence:
    """Index pairs relating two finite metric spaces; surjective onto both
    index sets when validated."""
    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        self.left = np.asarray(self.left, dtype=int)
        self.right = np.asarray(self.right, dtype=int)
        if self.left.shape != self.right.shape or self.left.ndim != 1:
            raise DomainError("correspondence needs parallel index arrays")

    def validate(self, n_left: int, n_right: int):
        if set(self.left.tolist()) != set(range(n_left)):
            raise DomainError("correspondence misses left indices")
        if set(self.right.tolist()) != set(range(n_right)):
            raise DomainError("correspondence misses right indices")


def natural_correspondence(points, spec: QuotientSpec):
    """Slice correspondence (rho, theta, s) -> (rho, theta - kappa s).

    Returns (correspondence, limit_points) where limit_points deduplicates
    coincident images (keys rounded to 1e-12).  Because the s = 0 slice is
    expected among the samples, the correspondence covers the whole sampled
    limit grid.  Group translates of a sample map to the same image point
    whenever m2 = 1; for m2 > 1 residual identifications of the limit
    surface are deliberately ignored and the distortion stays an upper
    bound.
    """
    kappa = spec.kappa
    limit_points = []
    seen = {}
    left, right = [], []
    for i, (rho, theta, s) in enumerate(points):
        phi = (theta - kappa * s) % TWO_PI
        key_phi = round(phi, 12)
        if key_phi >= round(TWO_PI, 12):
            key_phi = 0.0
            phi = 0.0
        key = (round(float(rho), 12), key_phi)
        j = seen.get(key)
        if j is None:
            j = len(limit_points)
            seen[key] = j
            limit_points.append((float(rho), float(phi)))
        left.append(i)
        right.append(j)
    return Correspondence(np.array(left), np.array(right)), limit_points


def distortion(space_x: FiniteMetricSpace, space_y: FiniteMetricSpace,
               corr: Correspondence) -> float:
    """max |d_X(a, a') - d_Y(b, b')| over pairs of correspondence entries.
    Half of this bounds from above the Gromov-Hausdorff distance between
    the two finite sets, not between spaces they were sampled from."""
    corr.validate(space_x.n, space_y.n)
    dx = space_x.d[np.ix_(corr.left, corr.left)]
    dy = space_y.d[np.ix_(corr.right, corr.right)]
    return float(np.max(np.abs(dx - dy)))


# ---------------------------------------------------------------------------
# the collapse experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    n_rho: int
    n_theta: int
    n_s: int

    @classmethod
    def from_json(cls, obj, name):
        if not isinstance(obj, dict):
            raise ConfigError(f"'{name}' must be an object")
        try:
            check_keys(obj, ("n_rho", "n_theta", "n_s"))
            return cls(read_int(obj, "n_rho"), read_int(obj, "n_theta"),
                       read_int(obj, "n_s"))
        except ConfigError as exc:
            raise ConfigError(f"'{name}': {exc}") from exc


@dataclass(frozen=True)
class CollapseConfig:
    """Inputs of collapse_experiment; mirrors the JSON schema of the CLI."""
    surface: WarpCurve
    rho_max: float
    r: float
    m1: int
    m2: int
    p_values: tuple
    grid: GridSpec
    sample: GridSpec

    def __post_init__(self):
        if self.rho_max <= 0 or self.r <= 0:
            raise DomainError("need rho_max > 0 and r > 0")
        if self.m1 < 0 or self.m2 < 1:
            raise DomainError("need m1 >= 0 and m2 >= 1")
        if len(self.p_values) == 0 or any(p < 1 for p in self.p_values):
            raise DomainError("p_values must be positive")
        for want, have in (("rho", (self.sample.n_rho, self.grid.n_rho)),
                           ("theta", (self.sample.n_theta, self.grid.n_theta)),
                           ("s", (self.sample.n_s, self.grid.n_s))):
            if have[0] < 1 or have[0] > have[1]:
                raise DomainError(f"sample n_{want} must lie in [1, grid]")

    @classmethod
    def from_json(cls, obj) -> "CollapseConfig":
        if not isinstance(obj, dict):
            raise ConfigError("collapse config must be an object")
        required = ["surface", "rho_max", "r", "m1", "m2", "p_values",
                    "grid", "sample"]
        missing = [k for k in required if k not in obj]
        if missing:
            raise ConfigError(f"collapse config missing keys: {missing}")
        check_keys(obj, required)
        p_values = obj["p_values"]
        if not (isinstance(p_values, (list, tuple))
                and all(map(is_int, p_values))):
            raise ConfigError("config key 'p_values' must be a list of "
                              "integers")
        return cls(surface=warp_from_json(obj["surface"]),
                   rho_max=read_number(obj, "rho_max"),
                   r=read_number(obj, "r"),
                   m1=read_int(obj, "m1"),
                   m2=read_int(obj, "m2"),
                   p_values=tuple(p_values),
                   grid=GridSpec.from_json(obj["grid"], "grid"),
                   sample=GridSpec.from_json(obj["sample"], "sample"))


@dataclass(frozen=True)
class CollapseRow:
    p: int
    distortion: float
    gh_upper_bound: float
    grid_floor_estimate: float


def _subgrid_indices(lo: int, hi: int, count: int) -> np.ndarray:
    return np.unique(np.round(np.linspace(lo, hi, count)).astype(int))


def collapse_experiment(config: CollapseConfig) -> list[CollapseRow]:
    """Distortion of the natural correspondence for each p in the config.

    The surface and its transform are discretized on the same grid, with
    the rings refined so that every angle looked up is a node: the limit
    side's ring_y = lcm(n_theta, m2 n_s / gcd(m1, m2 n_s)) holds every slice
    angle theta - kappa s, and each divisibility chain (a maximal run of p
    values each dividing the next) gets one quotient-side field, whose ring
    lcm(n_theta, p / gcd(m1, p)) at the chain's last p holds every group
    rotation of the chain.  So every lookup is an integer-column gather, a
    row depends only on its own chain, and a ring too large for
    MAX_GRAPH_NODES or MAX_FIELD_LABELS raises DomainError before any build.

    The grid-floor estimate is the largest change of the sampled
    limit-surface distances across three refinements of the limit grid
    (radial, angular, both), shared by all rows: the refinement sensitivity
    of the graph distances, not a bound on their discretization error.
    Quotient distances are non-increasing along a chain by construction
    (larger groups minimize over more translates); the quotient table is
    one running minimum per chain that folds in only the group elements the
    previous p did not visit, so a chain visits each element once.

    Distances are computed once per offset class (source slot, target slot,
    theta offset mod n_theta, signed s offset) rather than per point pair.
    The symmetrisation 0.5 (d + d^T) pairs each class with
    (kb, ka, -dtheta, -ds); every table gets the FiniteMetricSpace checks
    before it is averaged.  The distortion is the largest |d_X - d_Y| over
    the classes.
    """
    base = metric_from_warp(config.surface, config.rho_max)
    params = TransformParams.from_slope_pair(config.m1, config.m2, config.r)
    limit = quotient_transform(base, params)

    g, smp = config.grid, config.sample
    m1, m2 = config.m1, config.m2
    lo = 1 if base.capped_at_origin else 0      # the pole row is one node
    rho_rows = _subgrid_indices(lo, g.n_rho - 1, smp.n_rho)
    th_idx = (np.arange(smp.n_theta) * g.n_theta) // smp.n_theta
    s_idx = (np.arange(smp.n_s) * g.n_s) // smp.n_s

    # Offset classes (source slot, target slot, theta offset, s offset) on
    # axes 0-3, keyed on grid-index offsets.  theta offsets are taken mod
    # n_theta; s offsets stay signed, since theta - kappa s is not periodic
    # in s for non-integer kappa.
    dth = np.unique((th_idx[None, :] - th_idx[:, None]) % g.n_theta)
    ds = np.unique(s_idx[None, :] - s_idx[:, None])
    entries = rho_rows.size ** 2 * dth.size     # per group element
    _check_class_table(max(config.p_values), entries)

    chains = [[]]
    for p in config.p_values:
        if chains[-1] and p % chains[-1][-1]:
            chains.append([])
        chains[-1].append(p)
    # gcd(0, n) = n, so m1 = 0 keeps the plain grid on both sides
    ring_y = math.lcm(g.n_theta, m2 * g.n_s // math.gcd(m1, m2 * g.n_s))
    rings_x = [math.lcm(g.n_theta, c[-1] // math.gcd(m1, c[-1]))
               for c in chains]
    # the largest graph is the doubly refined limit surface, or a quotient
    # side's if a chain's ring is finer; it and its largest field are
    # refused here, before any build
    finest_x = max(rings_x)
    _check_graph_size(max((2 * g.n_rho - 1) * 2 * ring_y, g.n_rho * finest_x))
    _check_field_size(rho_rows.size * max((2 * g.n_rho - 1) * (ring_y + 1),
                                          g.n_rho * (finest_x // 2 + 1)))

    neg_th = np.searchsorted(dth, -dth % g.n_theta)
    neg_s = ds.size - 1 - np.arange(ds.size)
    slots = np.arange(rho_rows.size)
    slot_a = slots[:, None, None, None]
    row_b = rho_rows[None, :, None, None]
    same_slot = slot_a == slots[None, :, None, None]
    # the correspondence (rho, theta, s) -> (rho, theta - kappa s) puts a
    # class at the limit column dtheta - kappa ds of ring_y; rotations are
    # reduced in Python integers, which do not overflow
    step_y = m1 * ring_y // (m2 * g.n_s) % ring_y
    col_y = (dth[:, None] * (ring_y // g.n_theta) - step_y * ds) % ring_y
    s_x = (TWO_PI * ds / g.n_s).reshape(1, 1, 1, -1)
    diag_x = same_slot & (dth == 0)[:, None] & (ds == 0)
    diag_y = same_slot & (col_y == 0)

    def symmetrised(table, diagonal):
        """Checks the raw table against its partner classes
        (kb, ka, -dtheta, -ds), then averages the two."""
        twin = table.transpose(1, 0, 2, 3)[:, :, neg_th][:, :, :, neg_s]
        _check_metric(table, twin, table[diagonal])
        return 0.5 * (table + twin)

    def limit_distances(n_rho, ring, rscale):
        """The class table of the limit surface on an n_rho x ring grid
        whose rows refine the base grid's by rscale; the field is dropped
        as soon as its lookup is taken."""
        fld = distance_field(build_surface_graph(limit, n_rho, ring),
                             rscale * rho_rows)
        return fld.lookup(slot_a, rscale * row_b, col_y * (ring // ring_y))

    # Grid floor: refinement study of the limit-surface distances.  The
    # radial-only and angular-only refinements change the cell aspect ratio
    # and so expose the direction-dependent part of the 8-neighbor
    # metrication error; the proportional refinement keeps the ratio.  The
    # floor is the largest observed change.
    d_y = limit_distances(g.n_rho, ring_y, 1)
    floor = max(float(np.max(np.abs(d_y - limit_distances(*ref))))
                for ref in ((2 * g.n_rho - 1, ring_y, 2),
                            (g.n_rho, 2 * ring_y, 1),
                            (2 * g.n_rho - 1, 2 * ring_y, 2)))
    sym_y = symmetrised(d_y, diag_y)

    rows = []
    for chain, ring_x in zip(chains, rings_x):
        fld_x = distance_field(build_surface_graph(base, g.n_rho, ring_x),
                               rho_rows)
        col_x = dth[:, None] * (ring_x // g.n_theta)
        d_x, prev = math.inf, 0
        for p in chain:
            for k in range(p):
                if prev and k % (p // prev) == 0:
                    continue            # visited by the previous p
                d_x = np.minimum(d_x, product_distance(
                    fld_x.lookup(slot_a, row_b,
                                 col_x + m1 * k * ring_x // p % ring_x),
                    circle_distance(0.0, s_x + TWO_PI * (m2 * k % p) / p,
                                    config.r)))
            prev = p
            dist = float(np.max(np.abs(symmetrised(d_x, diag_x) - sym_y)))
            rows.append(CollapseRow(p=p, distortion=dist,
                                    gh_upper_bound=0.5 * dist,
                                    grid_floor_estimate=floor))
    return rows
