"""Measured Gromov-Hausdorff collapse of [surface x S^1(r)] / Z_p.

The surface piece is discretized as an 8-neighbor grid graph in (rho, theta)
with edge weights sqrt(drho^2 + f(rho_mid)^2 dtheta^2); exact shortest paths
on that graph stand in for geodesic distance.  The solver's one caller is
_GridSurfaces, the backend of collapse_experiment; none is exported.  Product
distances split as sqrt(d_P^2 + d_S1^2) (exact for Riemannian products,
with the circle factor analytic), and the Z_p quotient distance minimizes
over group translates: collapse_experiment minimizes the squared sum
d_P^2 + d_S1^2 over blocks of group elements and takes one square root at
the end, since the square root is monotone.

Every weight of the graph depends only on the rho rows an edge joins, so the
graph is a few per-row weight tables (build_surface_graph), and the
rotations by whole columns and the reflection theta -> -theta are
weight-preserving automorphisms of it.  Every distance field is solved from
sources at theta = 0, which the reflection fixes, so only the half strip
(grid columns 0 .. n_theta // 2) is solved, and the field is that
half-strip table: its lookup takes integer columns of any sign and folds
them into the strip.  The solver (_distance_field) solves one graph in its
own row-major label table, the half strip between two wall columns of inf.
It is a label-correcting one in numpy: rounds of Gauss-Seidel passes rho
down, theta up and rho up, each round followed by a check that one
relaxation of every edge lowers no label, and by a theta-down pass only
when the check fails.  Each pass relaxes every grid line from the line
before it over the straight edge and both diagonals.  There is one kernel
per orientation, each running in one direction: a descending pass is the
ascending kernel on the reversed view.  The rho kernel (_rho_pass)
relaxes whole rows of the table, and the theta kernel (_theta_pass) runs
on column-major copies of blocks of columns in a small scratch block, so
both work on contiguous blocks.  The rho-up pass leaves every edge from
the row below relaxed, so the check relaxes the other edges only, block
after block of rows in the same scratch.  The fixed point is Dijkstra's
output to the last bit.

collapse_experiment compares the quotient against the transformed limit
surface, with theta taken mod 2 pi / m2' (m2' = m2 / gcd(m1, m2)), through
the correspondence (rho, theta, s) -> (rho, theta - kappa s) and reports,
per p, the distortion, the implied upper bound distortion / 2 on the GH
distance between the sampled sets (the quotient sample and its image in
the limit surface, not the whole spaces), and a grid-floor
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
n_pts x n_pts matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import ConfigError, DomainError
from .schema import check_keys, is_int, read_int, read_number
from .warped_metric import (
    RotSymMetric,
    WarpCurve,
    _slope,
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
    """8-neighbor grid graph over (rho, theta); theta wraps modulo the
    period of build_surface_graph.

    Node (i, j) sits at rho_values[i] and theta = period j / n_theta.  Every
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


# Largest label table, sources x half-strip nodes (n_rho x (n_theta // 2 +
# 1)), that one distance field may hold.  The solver keeps 8 bytes a label,
# the float64 labels with two wall columns, plus a scratch block of fixed
# size (_SCRATCH_LABELS), so the cap bounds every solve of _GridSurfaces
# near 64 MiB: each solves one field.  The graph itself is three weights a
# row, so the cap sizes graphs too: _GridSurfaces refuses the largest field
# of its solves before any build.
MAX_FIELD_LABELS = 2 ** 23


# Labels of the solver's scratch block (256 KiB of float64), or of two
# label columns or one label row of the strip if either is larger: a theta
# pass copies block after block of columns into it, and the convergence
# check writes its candidates there block after block of rows.  It also
# sizes the blocks of group elements that collapse_experiment folds at once.
_SCRATCH_LABELS = 2 ** 15


# Largest work of one group Z_p, and largest class table: p lookups of
# S x S x D_theta surface distances in a collapse solve (S sample rho rows,
# D_theta theta offsets), group elements taken in blocks, and the S x S x
# D_theta x D_s float64 entries (D_s signed s offsets) of each class table,
# several of which are held at once, so the cap bounds both the lookups of
# a solve and each table held in memory (32 MiB).
MAX_CLASS_ENTRIES = 2 ** 22


def build_surface_graph(metric: RotSymMetric, n_rho: int, n_theta: int,
                        period: float = TWO_PI) -> SurfaceGraph:
    """Discretize the surface of revolution on an n_rho x n_theta grid
    whose columns span one period of theta: 2 pi for the surface itself,
    2 pi / m for its quotient by the rotations Z_m, an orbifold whose
    capped pole is a cone point of angle 2 pi / m.

    Edge weights are sqrt(drho^2 + f(rho_mid)^2 dtheta^2), dtheta = period
    / n_theta, with f evaluated at segment midpoints for radial/diagonal
    edges and at the node row for ring edges.  All weights must be
    positive and finite, so f may vanish only at a capped origin (where
    the row degenerates to the pole node); truncate before any other zero
    of f, and before f overflows.  The grid size is not checked here:
    _GridSurfaces refuses its fields before any build.
    """
    if n_rho < 8 or n_theta < 8:
        raise DomainError("need at least an 8 x 8 grid")
    pole = bool(metric.capped_at_origin)
    rho = np.linspace(metric.rho_min, metric.rho_max, n_rho)
    w = metric.warp
    # an overflowing f is refused below, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        f_nodes = np.asarray(w.f(rho), dtype=float)
        mid_f = np.asarray(w.f(0.5 * (rho[:-1] + rho[1:])), dtype=float)
    dtheta = period / n_theta
    drho = np.diff(rho)
    for f in (f_nodes[int(pole):], mid_f):
        if not np.all((f > 0) & (f < math.inf)):
            raise DomainError("warp must be positive and finite away from "
                              "the capped pole; truncate the interval "
                              "before f vanishes or overflows")
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


def _rho_pass(d: np.ndarray, rad, diag) -> None:
    """One Gauss-Seidel pass over the rows of the labels d, (n_rho, width +
    2, sources), the half strip between two wall columns of inf, in row
    order: row i is relaxed from row i - 1 over three in-edges into each
    strip column, the radial edge, weight rad[i], and the diagonals from
    both side columns, weight diag[i].  The descending pass is this one on
    d[::-1], with both weight lists w reversed as [inf] + w[:0:-1].

    A row takes 5 ufunc calls.  The radial edge is one add over the whole
    row, walls included, which stay inf.  The diagonals are one candidate
    fl(min(left, right) + diag[i]), the lesser of the two because rounding
    is monotone, written into the strip's part of a step row whose wall
    entries stay inf.  Then one min merges the step row into the line and
    one the line into the target row.

    Each row is relaxed only after the row before it is final, so on
    return every in-edge from the row before satisfies d[v] <= fl(d[u] +
    w); _relaxation_lowers relies on this after a rho-ascending pass.
    """
    line = np.empty_like(d[0])
    step = np.full_like(d[0], math.inf)
    part = step[1:-1]
    before = d[:-1]
    for target, src, left, right, w_rad, w_diag in zip(
            d[1:], before, before[:, :-2], before[:, 2:], rad[1:], diag[1:]):
        np.add(src, w_rad, out=line)
        np.minimum(left, right, out=part)
        np.add(part, w_diag, out=part)
        np.minimum(line, step, out=line)
        np.minimum(target, line, out=target)


def _theta_pass(strip: np.ndarray, ring: np.ndarray, diag: np.ndarray,
                lines: np.ndarray) -> None:
    """One Gauss-Seidel pass over the columns of strip, (n_rho, width),
    each item a node's run of S labels, in column order: column j is
    relaxed from column j - 1, vectorised over rows x sources, over three
    in-edges into each row i: the ring edge from row i, weight ring[i],
    and the diagonals from rows i - 1 and i + 1, weights diag[i - 1] and
    diag[i], diag being the graph's diag[1:].  ring, (n_rho, S), and diag,
    (n_rho - 1, S), are the same for every column, so the descending pass
    is this one on strip[:, ::-1].

    The pass runs on column-major copies of blocks of columns in lines,
    (block, n_rho, S): each block after the first starts with the last
    column of the block before it, already final in the pass, so the
    blocks continue one pass.  Both copies move a node's run as one item
    of 8 S bytes, which numpy copies faster than a float copy of the
    transposed view.

    Each column is relaxed only after the column before it is final, so on
    return every in-edge from the column before satisfies d[v] <= fl(d[u]
    + w).
    """
    block = len(lines)
    runs = lines.view(strip.dtype)[:, :, 0]
    line = np.empty_like(lines[0])
    heads, tails = line[:-1], line[1:]
    step = np.empty_like(tails)
    width = strip.shape[1]
    for a in range(0, width - 1, block - 1):
        n = min(block, width - a)
        np.copyto(runs[:n], strip[:, a:a + n].T)
        for target, src, src_heads, src_tails in zip(
                lines[1:n], lines[:n - 1], lines[:n - 1, :-1],
                lines[:n - 1, 1:]):
            np.add(src, ring, out=line)
            np.add(src_heads, diag, out=step)       # from row i - 1
            np.minimum(tails, step, out=tails)
            np.add(src_tails, diag, out=step)       # from row i + 1
            np.minimum(heads, step, out=heads)
            np.minimum(target, line, out=target)
        np.copyto(strip[:, a:a + n], runs[:n].T)


def _sweep(graph: SurfaceGraph, d: np.ndarray) -> None:
    """Sweep the labels d, (n_rho, width + 2, sources), graph's half strip
    between two wall columns of inf, to the fixed point of relaxing every
    edge.

    Each round is a pass rho descending, theta ascending and rho ascending,
    then the check (_relaxation_lowers), and a pass theta descending only
    when the check finds a lower label; a descending pass is the ascending
    kernel on the reversed view.  A rho pass (_rho_pass) relaxes whole rows
    of the table, and a theta pass (_theta_pass) the strip's columns,
    through a scratch of about _SCRATCH_LABELS labels, every column weighed
    by the same blocks of ring and diag[1:], repeated across the sources.
    Either kind of pass follows any mix of its straight steps with
    diagonal ones: on a flat stretch many such mixes have the same length,
    rounding decides which is shortest, and a pass that left the diagonals
    out would take several more sweeps to find it: radial-only rho passes
    took 13 to 21 rounds, and a ring-only theta pass 3, on flat fields
    this sweep solves in one.

    The check runs right after the rho-ascending pass, which leaves every
    in-edge from the row below relaxed, so it relaxes only the in-edges
    from the side columns and from the row above, with its candidates in
    the same scratch.  A table whose labels are final after the first
    three passes never runs the fourth.
    """
    n_rho, width, n_src = d.shape
    column = n_rho * n_src
    scratch = np.empty(max(_SCRATCH_LABELS, 2 * column, (width - 2) * n_src))
    block = scratch.size // column
    lines = scratch[:block * column].reshape(block, n_rho, n_src)
    rad, diag = graph.rad.tolist(), graph.diag.tolist()
    down = [math.inf] + rad[:0:-1], [math.inf] + diag[:0:-1]
    run = np.dtype((np.void, 8 * n_src))        # a node's S labels
    strip = d.view(run)[:, 1:-1, 0]
    ring = np.repeat(graph.ring[:, None], n_src, axis=1)
    diag_theta = np.repeat(graph.diag[1:, None], n_src, axis=1)
    while True:
        _rho_pass(d[::-1], *down)
        _theta_pass(strip, ring, diag_theta, lines)
        _rho_pass(d, rad, diag)
        if not _relaxation_lowers(graph, d, scratch):
            return
        _theta_pass(strip[:, ::-1], ring, diag_theta, lines)


def _relaxation_lowers(graph: SurfaceGraph, d: np.ndarray,
                       scratch: np.ndarray) -> bool:
    """Whether relaxing every in-edge of every node at once (the eight grid
    directions and the pole spokes) would lower any label of d, the strip
    of graph with its two wall columns, (n_rho, width + 2, sources), given
    that a rho-ascending pass (_rho_pass) has just returned d.

    That pass leaves every in-edge from the row below relaxed (radial, both
    diagonals and the pole spokes: d[v] <= fl(d[u] + w) with the final
    d[u]), so three groups of one weight per target row are left: the ring
    edges from both side columns, the radial edges from the row above (the
    spokes into the pole among them), and the diagonals from the row above,
    from both side columns.  A sideways group's candidates are
    fl(min(a, b) + w), the least of its two in-edges because rounding is
    monotone.  Each group's candidates are written into the flat scratch
    block after block of rows, as many as it holds (at least one strip
    row), and compared there, so the check allocates nothing of the
    table's size.  The pole, held in every column of row 0, is checked
    column by column against its spokes, which finds a lower label exactly
    when its best spoke does.
    """
    inner = d[:, 1:-1]
    n_rho, width, n_src = inner.shape
    block = scratch.size // (width * n_src)
    # (the offset of the rows the in-edges come from, the weights by target
    # row, whether the in-edges come from both side columns)
    for offset, w, sideways in ((0, graph.ring, True),
                                (1, graph.rad[1:], False),
                                (1, graph.diag[1:], True)):
        for a in range(0, n_rho - offset, block):
            b = min(a + block, n_rho - offset)
            c = scratch[:(b - a) * width * n_src].reshape(b - a, width, n_src)
            src = d[a + offset:b + offset]
            if sideways:
                np.minimum(src[:, :-2], src[:, 2:], out=c)
                np.add(c, w[a:b, None, None], out=c)
            else:
                np.add(src[:, 1:-1], w[a:b, None, None], out=c)
            # an unreached node with an unreached candidate compares inf
            # with inf, which lowers nothing
            if np.less(c, inner[a:b]).any():
                return True
    return False


@dataclass
class SurfaceDistanceField:
    """Distances from sources at (rho_row, theta = 0) to the nodes of a
    graph of n_theta columns.

    Rotational symmetry of the graph turns one field per source rho row into
    distances between any pair of nodes.  The field is its half-strip
    table: dist[i, k, j] is the distance from source k to node (i, j) for
    the columns j = 0 .. n_theta // 2 (a pole row holds the pole in every
    column); lookup folds every column into the strip by the reflection
    symmetry.  Its rows are grid rows for a solved field and sample slots
    for the tables that _GridSurfaces.fields returns.
    """
    n_theta: int
    dist: np.ndarray                # (rows, S, n_theta // 2 + 1)

    def lookup(self, src_slot, rho_row, column):
        """Distance from source src_slot to node (rho_row, column), the
        integer column of any sign counted from the source's and taken mod
        n_theta."""
        n = self.n_theta
        j = np.asarray(column) % n
        return self.dist[rho_row, src_slot, np.minimum(j, n - j)][()]


def _distance_field(graph: SurfaceGraph, rho_rows,
                    labels=None) -> SurfaceDistanceField:
    """Exact graph distances from (row, theta = 0) for each of rho_rows on
    graph.  Nothing is checked again: the one caller, _GridSurfaces,
    refuses fields above MAX_FIELD_LABELS before any build and passes
    valid rows.  The graph is connected, so a label left at inf is a float
    overflow, which the caller's table refuses.

    The reflection theta -> -theta fixes every source and maps the graph
    onto itself with identical edge weights, so the field satisfies
    d(i, j) = d(i, n_theta - j), and only the half strip is solved: the
    induced subgraph on columns 0 .. n_theta // 2, with the pole and its
    spokes to those columns.  The fold is exact: a shortest path from a
    theta = 0 source reflects into the half strip at the same length, and
    the only edges the half strip drops run between mirror columns (for odd
    n_theta a folded diagonal, parallel to a shorter radial edge).

    The half strip is solved in a label table (n_rho, n_theta // 2 + 3,
    S), sources last so that a rho pass reads one contiguous block a row,
    the strip in columns 1 .. -2, between two wall columns of inf standing
    in for the edges the strip does not have.  Given labels, a flat
    float64 buffer of at least the table's size, the table is the head of
    it; the field's dist is the transposed view of the strip.

    The labels start at inf, 0 at the sources, and every change lowers a
    label to some fl(d[u] + w_uv), so each label is the rounded length of
    a path and, rounding being monotone, never below Dijkstra's.  The
    solver (_sweep) stops only when relaxing every in-edge of every node
    (the eight grid directions and the pole spokes) lowers no label.  Then
    d[v] <= fl(d[u] + w_uv) on every edge, and by induction along
    Dijkstra's shortest-path tree no label is above Dijkstra's either: the
    field is Dijkstra's output bit for bit, whatever the sweep order, and
    the half-strip values are the full graph's.
    """
    rho_rows = np.atleast_1d(np.asarray(rho_rows, dtype=int))
    shape = (graph.n_rho, graph.n_theta // 2 + 3, rho_rows.size)
    size = math.prod(shape)
    d = (np.empty(size) if labels is None else labels[:size]).reshape(shape)
    d.fill(math.inf)
    d[rho_rows, 1, np.arange(rho_rows.size)] = 0.0
    if graph.pole:
        d[0, 1:-1, rho_rows == 0] = 0.0
    _sweep(graph, d)
    return SurfaceDistanceField(n_theta=graph.n_theta,
                                dist=d[:, 1:-1].transpose(0, 2, 1))


# The solves of a field and its floor refinements, the field itself first,
# then its angular, radial and proportional refinement: (scale of the rows,
# scale of the ring) of each.
_REFINEMENTS = ((1, 1), (1, 2), (2, 1), (2, 2))


class _GridSurfaces:
    """The grid backend of collapse_experiment: fields from the sample rho
    rows of an n_rho-row grid, on the limit side's floor_ring with the
    floor's refinements, and on each quotient-side ring, one graph and one
    solve each.  It refuses the largest field above MAX_FIELD_LABELS
    before any build, and every solve fills its one label buffer, sized
    for the largest field of its run with its two walls: with a table per
    solve, freeing the largest (mmapped) raised glibc's mmap threshold, so
    the next call took the smaller tables from the heap, whose pages stay
    resident.  The buffer lives from the first solve to the last: fields
    returns copies, so the caller drops the backend, and the buffer with
    it, once it holds every field of its run."""

    def __init__(self, n_rho, rho_rows, floor_ring, rings):
        self.n_rho, self.rho_rows = n_rho, rho_rows
        # (n_rho, ring) of each solve: the floor's four, then each ring
        solves = ([(scale * (n_rho - 1) + 1, k * floor_ring)
                   for scale, k in _REFINEMENTS]
                  + [(n_rho, ring) for ring in rings])
        n_labels = rho_rows.size * max(n * (ring // 2 + 1)
                                       for n, ring in solves)
        if n_labels > MAX_FIELD_LABELS:
            raise DomainError(f"distance field of {n_labels} labels (sources "
                              f"x half-strip nodes) exceeds the cap "
                              f"MAX_FIELD_LABELS = {MAX_FIELD_LABELS}; use a "
                              f"coarser grid or fewer sample rho rows")
        self.labels = np.empty(rho_rows.size * max(n * (ring // 2 + 3)
                                                   for n, ring in solves))

    def fields(self, metric, period, ring, refine=False):
        """The field of metric on ring columns spanning period, then with
        refine its angular, radial and proportional refinements, each copied
        out of the buffer by sample slot and counted in columns of ring."""
        out = []
        for scale, k in _REFINEMENTS if refine else _REFINEMENTS[:1]:
            rows = scale * self.rho_rows
            graph = build_surface_graph(metric, scale * (self.n_rho - 1) + 1,
                                        k * ring, period)
            fld = _distance_field(graph, rows, self.labels)
            out.append(SurfaceDistanceField(ring, fld.dist[rows, :, ::k]))
        return out


# ---------------------------------------------------------------------------
# metric checks and quotients
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


def circle_distance(s_a, s_b, r: float):
    """Arc distance on S^1(r) between angular coordinates."""
    delta = np.abs(np.asarray(s_b, dtype=float) - np.asarray(s_a, dtype=float)) % TWO_PI
    return (r * np.minimum(delta, TWO_PI - delta))[()]


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
        _slope(self.m1, self.m2)            # refuses a bad slope pair
        if len(self.p_values) == 0 or any(p < 1 for p in self.p_values):
            raise DomainError("p_values must be non-empty and positive")
        for want, have in (("rho", (self.sample.n_rho, self.grid.n_rho)),
                           ("theta", (self.sample.n_theta, self.grid.n_theta)),
                           ("s", (self.sample.n_s, self.grid.n_s))):
            # no field within the cap has more rows or columns, and the
            # products that place the sample on such a grid fit in int64
            if have[1] > MAX_FIELD_LABELS:
                raise DomainError(f"grid n_{want} = {have[1]} exceeds the "
                                  f"cap on every grid size, MAX_FIELD_LABELS"
                                  f" = {MAX_FIELD_LABELS}")
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
        if not (isinstance(p_values, (list, tuple)) and p_values
                and all(map(is_int, p_values))):
            raise ConfigError("config key 'p_values' must be a non-empty "
                              "list of integers")
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


def _unique(values) -> np.ndarray:
    """np.unique of an integer array, without the import of numpy.ma that
    np.unique makes (numpy 2.4) and the first solve of a process would pay."""
    a = np.sort(values, axis=None)
    return np.concatenate((a[:1], a[1:][a[1:] != a[:-1]]))


def _subgrid_indices(lo: int, hi: int, count: int) -> np.ndarray:
    return _unique(np.round(np.linspace(lo, hi, count)).astype(int))


def _index_offsets(n: int, n_grid: int) -> np.ndarray:
    """The sorted signed offsets i_b - i_a between the grid indices
    i_k = floor(k n_grid / n), 0 <= a, b < n, in O(n).

    With d n_grid = q_d n + e_d, i_{k+d} - i_k is q_d + 1 exactly when
    e_k >= n - e_d, and otherwise q_d; so the offset d takes q_d + 1 for
    some k < n - d exactly when e_d > 0 and the running maximum of e_k up
    to k = n - d - 1 reaches n - e_d.
    """
    q, e = np.divmod(np.arange(n) * n_grid, n)
    top = np.maximum.accumulate(e)
    up = q[(e > 0) & (top[::-1] >= n - e)] + 1
    return _unique(np.concatenate((-q, -up, q, up)))


def collapse_experiment(config: CollapseConfig) -> list[CollapseRow]:
    """Distortion of the natural correspondence for each p in the config.

    The limit is the transformed surface (quotient_transform) with theta
    taken mod 2 pi / m2', m2' = m2 / gcd(m1, m2): the slice s = 0 meets
    every orbit of the circle action m2' times.  So for m2' = 1 the limit
    is the transformed surface itself, with its smooth cap, and for m2' > 1
    it is the orbifold quotient by Z_m2', whose pole is a cone point of
    angle 2 pi / m2'.

    The surface and its transform are discretized on the same grid, with
    the rings refined so that every angle looked up is a node: the limit
    side's ring_y = lcm(n_theta, m2 n_s / gcd(m1, m2 n_s)) holds every slice
    angle theta - kappa s on a full turn, and so on the period 2 pi / m2'
    that its columns span, and each divisibility chain (a maximal run of p
    values each dividing the next) gets one quotient-side field, whose ring
    lcm(n_theta, p / gcd(m1, p)) at the chain's last p holds every group
    rotation of the chain.  So every lookup is an integer-column gather, a
    row depends only on its own chain, and the grid backend (_GridSurfaces)
    refuses a field above MAX_FIELD_LABELS, on any grid, before any build.
    Every field of the run is taken from the backend first, the limit
    surface's with its refinements and then one per chain; the backend and
    its label buffer are dropped before the first lookup, so the class
    tables reuse the buffer's memory.

    The grid-floor estimate is the largest change of the sampled
    limit-surface distances across three refinements of the limit grid
    (radial, angular, both), shared by all rows: the refinement sensitivity
    of the graph distances, not a bound on their discretization error.
    Quotient distances are non-increasing along a chain by construction
    (larger groups minimize over more translates); the quotient table is
    one running minimum per chain that folds in only the group elements the
    previous p did not visit, so a chain visits each element once.  It
    takes them in blocks of _SCRATCH_LABELS // (S^2 D_theta), at least
    one: one lookup per block, then per s offset one add and one minimum
    over the block into the running minimum.  The minimum is taken over
    the squared product distances dp * dp + dc * dc (surface lookup dp,
    circle distance dc) and the square root once per p:
    the square root is monotone, so it commutes with the minimum, and only
    the rounding differs from minimizing np.hypot(dp, dc).

    Distances are computed once per offset class (source slot, target slot,
    theta offset mod n_theta, signed s offset) rather than per point pair;
    the offsets come from the sample and grid sizes in O(n)
    (_index_offsets), so a class table above MAX_CLASS_ENTRIES, like the
    lookups of a group above it, is refused before any solve and before
    any array of the squared sample size.  The symmetrisation 0.5 (d +
    d^T) pairs each class with (kb, ka, -dtheta, -ds); every table gets the
    metric checks (_check_metric) before it is averaged.  The distortion is
    the largest |d_X - d_Y| over the classes.
    """
    base = metric_from_warp(config.surface, config.rho_max)
    limit = quotient_transform(base, config.r, _slope(config.m1, config.m2))

    g, smp = config.grid, config.sample
    m1, m2 = config.m1, config.m2
    lo = 1 if base.capped_at_origin else 0      # the pole row is one node
    rho_rows = _subgrid_indices(lo, g.n_rho - 1, smp.n_rho)

    # Offset classes (source slot, target slot, theta offset, s offset) on
    # axes 0-3, keyed on grid-index offsets.  theta offsets are taken mod
    # n_theta; s offsets stay signed, since theta - kappa s is not periodic
    # in s for non-integer kappa.
    dth = _unique(_index_offsets(smp.n_theta, g.n_theta) % g.n_theta)
    ds = _index_offsets(smp.n_s, g.n_s)
    p_max = max(config.p_values)
    entries = p_max * rho_rows.size ** 2 * dth.size
    if entries > MAX_CLASS_ENTRIES:
        raise DomainError(f"class table of {entries} entries for a group "
                          f"of order {p_max} exceeds the cap "
                          f"MAX_CLASS_ENTRIES = {MAX_CLASS_ENTRIES}; use a "
                          f"smaller group or sample")
    entries = rho_rows.size ** 2 * dth.size * ds.size
    if entries > MAX_CLASS_ENTRIES:
        raise DomainError(f"class table of {entries} entries (sample rho "
                          f"rows^2 x theta offsets x s offsets) exceeds the "
                          f"cap MAX_CLASS_ENTRIES = {MAX_CLASS_ENTRIES}; use "
                          f"a smaller sample")

    chains = [[]]
    for p in config.p_values:
        if chains[-1] and p % chains[-1][-1]:
            chains.append([])
        chains[-1].append(p)
    # gcd(0, n) = n, so m1 = 0 keeps the plain grid on both sides
    ring_y = math.lcm(g.n_theta, m2 * g.n_s // math.gcd(m1, m2 * g.n_s))
    rings_x = [math.lcm(g.n_theta, c[-1] // math.gcd(m1, c[-1]))
               for c in chains]
    surfaces = _GridSurfaces(g.n_rho, rho_rows, ring_y, rings_x)
    # m2': the limit side's ring_y columns span 2 pi / m2'
    orbits = m2 // math.gcd(m1, m2)

    neg_th = np.searchsorted(dth, -dth % g.n_theta)
    neg_s = ds.size - 1 - np.arange(ds.size)
    slots = np.arange(rho_rows.size)
    slot_a = slots[:, None, None, None]
    slot_b = slots[None, :, None, None]
    same_slot = slot_a == slot_b
    # the correspondence (rho, theta, s) -> (rho, theta - kappa s) puts a
    # class at the angle dtheta - kappa ds: column c of a full turn of
    # ring_y columns, so column orbits * c of the orbifold's ring; rotations
    # are reduced in Python integers, which do not overflow
    step_y = m1 * ring_y // (m2 * g.n_s) % ring_y
    col_y = ((dth[:, None] * (ring_y // g.n_theta) - step_y * ds) * orbits
             % ring_y)
    s_x = TWO_PI * ds / g.n_s
    diag_x = same_slot & (dth == 0)[:, None] & (ds == 0)
    diag_y = same_slot & (col_y == 0)

    def symmetrised(table, diagonal):
        """Checks the raw table against its partner classes
        (kb, ka, -dtheta, -ds), then averages the two."""
        twin = table.transpose(1, 0, 2, 3)[:, :, neg_th][:, :, :, neg_s]
        _check_metric(table, twin, table[diagonal])
        return 0.5 * (table + twin)

    # the backend goes with its label buffer before the first lookup, so the
    # class tables reuse the buffer's memory
    fields_y = surfaces.fields(limit, TWO_PI / orbits, ring_y, refine=True)
    fields_x = [surfaces.fields(base, TWO_PI, ring_x)[0]
                for ring_x in rings_x]
    del surfaces

    # Grid floor: refinement study of the limit-surface distances.  The
    # radial-only and angular-only refinements change the cell aspect ratio
    # and so expose the direction-dependent part of the 8-neighbor
    # metrication error; the proportional refinement keeps the ratio.  The
    # floor is the largest observed change.
    d_y, *refs = (fld.lookup(slot_a, slot_b, col_y) for fld in fields_y)
    floor = max(float(np.max(np.abs(d_y - ref))) for ref in refs)
    del fields_y, refs
    sym_y = symmetrised(d_y, diag_y)

    # The quotient side folds the group elements in blocks of as many
    # S x S x D_theta lookups as the solver's scratch block holds; its
    # running minimum is held s offset first, (D_s, S, S, D_theta), so each
    # s offset's part of it is contiguous
    block = max(1, _SCRATCH_LABELS // (rho_rows.size ** 2 * dth.size))
    rows = []
    for chain, ring_x, fld_x in zip(chains, rings_x, fields_x):
        col_x = dth * (ring_x // g.n_theta)
        sq_x = np.full((ds.size, rho_rows.size, rho_rows.size, dth.size),
                       math.inf)
        prev = 0
        for p in chain:
            # the elements the previous p did not visit
            new = (k for k in range(p) if not prev or k % (p // prev))
            while ks := list(islice(new, block)):
                shifts = np.array([m1 * k * ring_x // p % ring_x for k in ks])
                dp = fld_x.lookup(slots[:, None, None], slots[:, None],
                                  col_x + shifts[:, None, None, None])
                np.multiply(dp, dp, out=dp)
                turns = np.array([TWO_PI * (m2 * k % p) / p for k in ks])
                dc = circle_distance(0.0, s_x + turns[:, None], config.r)
                dc *= dc
                work = np.empty_like(dp)
                for sq, dc_j in zip(sq_x, dc.T):
                    np.add(dp, dc_j[:, None, None, None], out=work)
                    np.minimum(sq, np.minimum.reduce(work), out=sq)
            prev = p
            dist = float(np.max(np.abs(
                symmetrised(np.sqrt(sq_x).transpose(1, 2, 3, 0), diag_x)
                - sym_y)))
            rows.append(CollapseRow(p=p, distortion=dist,
                                    gh_upper_bound=0.5 * dist,
                                    grid_floor_estimate=floor))
    return rows
