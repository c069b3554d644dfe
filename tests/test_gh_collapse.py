"""Tests for the graph discretization and the measured-collapse pipeline."""

import json
import math
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from collapse_lab import (
    CollapseConfig,
    SinWarp,
    SinhWarp,
    ConstWarp,
    LinearWarp,
    WarpCurve,
    circle_distance,
    collapse_experiment,
    metric_from_warp,
    quotient_transform,
)
from collapse_lab import gh_collapse
from collapse_lab.errors import ConfigError, DomainError
from collapse_lab.gh_collapse import (
    SurfaceGraph,
    _check_metric,
    _distance_field,
    _index_offsets,
    _subgrid_indices,
    build_surface_graph,
)

TWO_PI = 2.0 * math.pi


def _column(angle, n_theta, period=TWO_PI):
    """Node columns of angles that lie on the nodes of an n_theta ring
    spanning the period, to within 1e-9 of a column."""
    x = np.asarray(angle, dtype=float) * n_theta / period
    j = np.rint(x)
    assert np.max(np.abs(x - j), initial=0.0) <= 1e-9
    return j.astype(int)


# ---------------------------------------------------------------------------
# surface graph construction
# ---------------------------------------------------------------------------

def test_graph_rejects_small_grids():
    m = metric_from_warp(ConstWarp(1.0), 1.0)
    with pytest.raises(DomainError):
        build_surface_graph(m, 7, 16)
    with pytest.raises(DomainError):
        build_surface_graph(m, 16, 7)


class _PinchedWarp(WarpCurve):
    # shrinks through zero at rho = 1; only for exercising the guard below
    kind = "pinched"
    rho_max = 2.0

    def f(self, rho):
        return 1.0 - np.asarray(rho, dtype=float)

    def df(self, rho):
        return np.full_like(np.asarray(rho, dtype=float), -1.0)

    def d2f(self, rho):
        return np.zeros_like(np.asarray(rho, dtype=float))


def test_graph_rejects_vanishing_warp():
    # a profile that hits zero inside the grid would get zero-weight ring
    # edges, so construction must refuse and ask for truncation
    m = metric_from_warp(_PinchedWarp(), 2.0)
    with pytest.raises(DomainError):
        build_surface_graph(m, 16, 16)
    # truncated before the zero it is fine
    m_ok = metric_from_warp(_PinchedWarp(), 0.9)
    build_surface_graph(m_ok, 16, 16)


def test_graph_node_layout_with_pole():
    """A capped metric's first grid row is the single pole node: the
    reference numbering gives it id 0 in every column, and a field holds
    the same pole distance in every column of row 0."""
    m = metric_from_warp(SinhWarp(1.0), 1.0)
    assert m.capped_at_origin
    g = build_surface_graph(m, 9, 12)
    assert g.pole
    assert g.n_rho == 9 and g.rho_values[0] == 0.0
    ids = _node_ids(g, half=False)
    assert _coo_reference_csr(m, 9, 12, half=False).shape[0] == 1 + 8 * 12
    assert ids.max() == 8 * 12
    assert ids[0].tolist() == [0] * 12
    assert ids[1, 0] == 1
    assert ids[2, 5] == 1 + 12 + 5
    fld = _distance_field(g, [0, 4])
    assert np.all(fld.lookup(0, 0, np.arange(12)) == 0.0)
    pole = fld.lookup(1, 0, np.arange(12))
    assert np.all(pole == pole[0]) and pole[0] > 0


def test_graph_node_layout_without_pole():
    m = metric_from_warp(ConstWarp(1.0), 1.0)
    assert not m.capped_at_origin
    g = build_surface_graph(m, 8, 10)
    assert not g.pole
    assert g.n_rho == 8 and g.ring[0] > 0
    ids = _node_ids(g, half=False)
    assert _coo_reference_csr(m, 8, 10, half=False).shape[0] == 80
    assert ids[0, 0] == 0
    assert ids[3, 9] == 39
    assert ids[[0, 1], [2, 3]].tolist() == [2, 13]


def test_graph_edge_weights_match_formula():
    m = metric_from_warp(ConstWarp(2.0), 1.0)
    g = build_surface_graph(m, 9, 8)
    dtheta = TWO_PI / 8
    drho = 1.0 / 8
    # the edges (2, j) - (2, j + 1), (2, j) - (3, j) and (2, j) - (3, j +- 1)
    assert g.ring[2] == pytest.approx(2.0 * dtheta, rel=1e-15)
    assert g.rad[3] == pytest.approx(drho, rel=1e-15)
    assert g.diag[3] == pytest.approx(math.hypot(drho, 2.0 * dtheta),
                                      rel=1e-15)
    # nothing lies above the first row
    assert g.rad[0] == g.diag[0] == math.inf
    # a pole has no ring arc and reaches the first ring by its spokes alone
    p = build_surface_graph(metric_from_warp(SinhWarp(1.0), 1.0), 9, 8)
    assert p.pole and p.ring[0] == 0.0 and p.diag[1] == math.inf
    assert p.rad[1] == pytest.approx(drho, rel=1e-15)


@pytest.mark.parametrize("warp", [ConstWarp(1.0), SinhWarp(1.0)])
def test_graph_edge_count(warp):
    # per ring row: n_theta ring edges; per pair of ring rows: one radial
    # and two diagonal edges per node; the pole adds one spoke per node
    metric = metric_from_warp(warp, 1.0)
    g = build_surface_graph(metric, 11, 12)
    rings = 11 - int(g.pole)
    want = 12 * rings + 3 * 12 * (rings - 1) + 12 * int(g.pole)
    # one edge per column for each finite weight: the ring rows' ring
    # edges, the radial edges and spokes, and two diagonals
    finite = [np.isfinite(w).sum() for w in (g.ring[int(g.pole):], g.rad,
                                              g.diag)]
    assert 12 * (finite[0] + finite[1] + 2 * finite[2]) == want
    assert _coo_reference_csr(metric, 11, 12, half=False).nnz == 2 * want


def _coo_reference_csr(metric, n_rho, n_theta, half):
    """The edge-list construction of the surface graph, kept as the
    independent reference for the sweep solver: weights from the metric,
    every edge once as COO arrays, both directions concatenated, and
    scipy's COO to CSR conversion.  half=True builds only the columns
    0 .. n_theta // 2, with no wrap edges."""
    rho = np.linspace(metric.rho_min, metric.rho_max, n_rho)
    f_nodes = np.asarray(metric.warp.f(rho), dtype=float)
    mid_f = np.asarray(metric.warp.f(0.5 * (rho[:-1] + rho[1:])), dtype=float)
    first = int(metric.capped_at_origin)
    dtheta = TWO_PI / n_theta
    drho = np.diff(rho)
    diag_w = np.array([math.hypot(x, y) for x, y in
                       zip(drho[first:], mid_f[first:] * dtheta)])
    return _edge_list_csr(f_nodes[first:] * dtheta, drho[first:], diag_w,
                          drho[0] if first else None, n_theta, half)


def _edge_list_csr(ring_w, rad_w, diag_w, spoke, n_theta, half):
    """CSR of the grid graph with ring weight ring_w[r] on ring row r,
    radial and diagonal weights rad_w[r], diag_w[r] between ring rows r and
    r + 1, and, unless spoke is None, a pole node 0 joined to every node of
    ring row 0 by an edge of weight spoke."""
    first = int(spoke is not None)
    width = n_theta // 2 + 1 if half else n_theta
    ids = np.arange(first, first + len(ring_w) * width,
                    dtype=np.int32).reshape(-1, width)
    a, b = (ids[:, :-1], ids[:, 1:]) if half else (ids, np.roll(ids, -1, 1))
    edges = [(a, b, np.asarray(ring_w)[:, None]),
             (ids[:-1], ids[1:], np.asarray(rad_w)[:, None]),
             (a[:-1], b[1:], np.asarray(diag_w)[:, None]),
             (b[:-1], a[1:], np.asarray(diag_w)[:, None])]
    if first:
        edges.append((np.zeros(width, dtype=np.int32), ids[0], spoke))
    parts = [np.broadcast_arrays(*e) for e in edges]
    u, v, weight = (np.concatenate([part[k].ravel() for part in parts])
                    for k in range(3))
    n = first + ids.size
    return csr_matrix((np.concatenate([weight, weight]),
                       (np.concatenate([u, v]), np.concatenate([v, u]))),
                      shape=(n, n))


@pytest.mark.parametrize("warp, rho_max", [(SinhWarp(1.0), 1.2),
                                           (ConstWarp(1.5), 1.0)],
                         ids=["pole", "no-pole"])
@pytest.mark.parametrize("half", [False, True], ids=["full", "half"])
@pytest.mark.parametrize("n_theta", [8, 9, 12, 13, 25])
@pytest.mark.parametrize("n_rho", [8, 10, 17])
def test_graph_csr_matches_coo_reference(warp, rho_max, half, n_theta,
                                         n_rho):
    """The weight tables describe the edge-list reference graph: the sweep
    solver's distances equal scipy's Dijkstra on the reference CSR bit for
    bit, from every node of the full graph (the fields read at every
    rotation, _all_pairs) and from every row of the half strip
    (_distance_field)."""
    metric = metric_from_warp(warp, rho_max)
    g = build_surface_graph(metric, n_rho, n_theta)
    ref = _coo_reference_csr(metric, n_rho, n_theta, half)
    if half:
        ids = _node_ids(g, half=True)
        want = dijkstra(ref, indices=ids[:, 0])[:, ids]
        got = _distance_field(g, np.arange(n_rho)).dist
        got = got.transpose(1, 0, 2)
    else:
        want = dijkstra(ref, indices=np.arange(ref.shape[0]))
        got = _all_pairs(g)
    assert got.shape == want.shape and np.array_equal(got, want)


def _node_ids(g, half):
    """Node ids of the edge-list reference graph of g (_edge_list_csr) by
    (row, column): columns 0 .. n_theta - 1 of the full graph, or 0 ..
    n_theta // 2 of the half strip; a pole row repeats the pole's id."""
    width = g.n_theta // 2 + 1 if half else g.n_theta
    first = int(g.pole)
    ids = first + (np.arange(g.n_rho)[:, None] - first) * width + np.arange(
        width)
    if g.pole:
        ids[0] = 0
    return ids


def _all_pairs(g):
    """Distances between all nodes of g, indexed by the ids of the full
    reference graph, read from one field per row: the source in column c
    of row k is the field's source rotated by c columns, so its distance to
    node (i, j) is lookup(k, i, j - c), exact because rotations are
    weight-preserving automorphisms of the graph, as collapse_experiment
    assumes."""
    ids = _node_ids(g, half=False)
    fld = _distance_field(g, np.arange(g.n_rho))
    k, c, i, j = np.ix_(*map(np.arange, ids.shape * 2))
    d = np.empty((ids.max() + 1,) * 2)
    d[ids[k, c], ids[i, j]] = fld.lookup(k, i, j - c)
    return d


def test_graph_size_cap():
    """A graph is sized by the field it solves, which the grid backend
    (_GridSurfaces) caps at MAX_FIELD_LABELS: one whose full ring has more
    than 2^22 nodes builds and solves from one source row."""
    # 1 + 2048 x 2048 nodes over the full ring, one more than 2^22, in a
    # field of 2049 x 1025 labels from one source
    g = build_surface_graph(metric_from_warp(SinhWarp(1.0), 2.0), 2049, 2048)
    assert g.pole and 1 + (g.n_rho - 1) * g.n_theta > 2 ** 22
    fld = _distance_field(g, [1024])
    assert fld.dist.shape == (2049, 1, 1025)
    assert np.all(np.isfinite(fld.dist))
    assert fld.lookup(0, 1025, 0) == g.rad[1025]
    # the pole lies down the radial ray, in every column
    assert np.all(fld.dist[0] == fld.dist[0, 0, 0])
    assert fld.dist[0, 0, 0] == pytest.approx(g.rho_values[1024], rel=1e-12)


@pytest.mark.parametrize("warp, rho_max", [(SinhWarp(1.0), 1.2),
                                           (ConstWarp(1.5), 1.0)],
                         ids=["pole", "no-pole"])
@pytest.mark.parametrize("n_theta", [8, 9, 12, 13, 25])
def test_half_graph_is_induced_subgraph(warp, rho_max, n_theta):
    """The half strip the solver relaxes is the full reference graph
    restricted to columns 0 .. n_theta // 2: the solved field equals Dijkstra
    on that induced subgraph, sliced out of the full CSR."""
    metric = metric_from_warp(warp, rho_max)
    g = build_surface_graph(metric, 10, n_theta)
    # full-graph ids of the strip in row-major order; a pole graph's row 0
    # repeats the pole id, kept once
    ids = _node_ids(g, half=False)[:, :n_theta // 2 + 1]
    keep = ids.ravel()[g.pole * (n_theta // 2):]
    full = _coo_reference_csr(metric, 10, n_theta, half=False)
    strip = _node_ids(g, half=True)
    want = dijkstra(full[keep][:, keep], indices=strip[:, 0])[:, strip]
    got = _distance_field(g, np.arange(10)).dist
    assert np.array_equal(got.transpose(1, 0, 2), want)


@pytest.mark.parametrize("warp", [ConstWarp(1.0), SinhWarp(1.0)])
def test_half_graph_node_index_folds(warp):
    """The field's half-strip table serves every column of the full graph
    through the mirror column min(j, n_theta - j), at any integer j, and
    lookup is that gather."""
    metric = metric_from_warp(warp, 1.0)
    g = build_surface_graph(metric, 9, 13)
    fld = _distance_field(g, [0, 4, 8])
    assert fld.dist.shape == (9, 3, 7)
    ids = _node_ids(g, half=False)
    full = dijkstra(_coo_reference_csr(metric, 9, 13, half=False),
                    indices=ids[[0, 4, 8], 0])
    i = np.arange(9)[:, None]
    j = np.arange(-13, 26)[None, :]
    mirror = np.minimum(j % 13, 13 - j % 13)
    for k in range(3):
        assert np.array_equal(fld.dist[i, k, mirror], full[k, ids[i, j % 13]])
        assert np.array_equal(fld.lookup(k, i, j), full[k, ids[i, j % 13]])


def test_distance_field_sweeps_until_no_edge_lowers(monkeypatch):
    """On a sphere band the geodesics bend, so one sweep in each direction
    is not enough: the check rejects the labels at least once, and the
    fields still equal scipy's Dijkstra on the reference bit for bit."""
    checks = []

    def spy(*args):
        checks.append(check(*args))
        return checks[-1]

    check = gh_collapse._relaxation_lowers
    monkeypatch.setattr(gh_collapse, "_relaxation_lowers", spy)
    metric = metric_from_warp(SinWarp(1.0), math.pi - 0.3, rho_min=0.3)
    for n_rho, n_theta in ((17, 12), (24, 25)):
        checks.clear()
        g = build_surface_graph(metric, n_rho, n_theta)
        got = _distance_field(g, np.arange(n_rho)).dist
        assert checks[0] and not checks[-1]
        ids = _node_ids(g, half=True)
        ref = _coo_reference_csr(metric, n_rho, n_theta, half=True)
        want = dijkstra(ref, indices=ids[:, 0])[:, ids]
        assert np.array_equal(got.transpose(1, 0, 2), want)


@pytest.mark.parametrize("kind, row, column", [
    ("ring", 4, 1), ("rad", 8, 1), ("diag", 8, 1), ("spoke", 1, 1),
    ("ring", 4, 5), ("diag", 8, 5)],
    ids=["ring-4", "rad-8", "diag-8", "spoke-1", "ring-4-last", "diag-8-last"])
def test_relaxation_check_sees_every_edge_group(kind, row, column):
    """The convergence check relaxes every group of edges that the
    rho-ascending pass leaves unchecked: on a graph whose only edges are of
    one kind, the labels of a lone source (0 there, inf elsewhere) are
    refused when the source reaches the row above it (the spokes into the
    pole among those edges), or sideways the strip column on its right or
    on its left (column 1 or 5 of the padded strip, the first or last
    strip column).  The source sits in the right half of an array of two
    tables side by side: the check of the table that holds it, the strip
    with its two walls, refuses the labels, and the check of the table to
    its left, whose right wall is the shared column 6, finds nothing to
    lower, so the check reads no column outside the table it is given.  A
    scratch of one strip row checks one row at a time, one of the strip's
    size all rows at once."""
    weights = {name: np.full(9, math.inf) for name in ("ring", "rad", "diag")}
    weights["rad" if kind == "spoke" else kind][1:] = 1.0
    g = SurfaceGraph(rho_values=np.arange(9.0), n_theta=8,
                     pole=kind == "spoke", **weights)
    d = np.full((9, 13, 1), math.inf)
    d[row, 6 + column, 0] = 0.0
    check = gh_collapse._relaxation_lowers
    for scratch in (np.empty(5), np.empty(45)):
        assert check(g, d[:, 6:], scratch)
        assert not check(g, d[:, :7], scratch)


def test_rho_pass_relaxes_both_diagonals_within_each_strip():
    """_rho_pass relaxes a row from the row before it over the radial edge
    and both diagonals, and no label crosses a wall: lone sources in the
    first, a middle and the last column of the strip reach the next row at
    rad straight on and at diag on both sides within the strip, and
    nothing else, in row order and, on the reversed view with the weights
    of the later row, against it."""
    want = np.array([math.inf, 1.0, 2.0, 2.0, 1.0, 2.0, 1.0, math.inf])
    for reverse, src, dst in ((False, 0, 1), (True, 1, 0)):
        d = np.full((2, 8, 1), math.inf)
        d[src, [1, 4, 6], 0] = 0.0
        gh_collapse._rho_pass(d[::-1] if reverse else d, [math.inf, 1.0],
                              [math.inf, 2.0])
        assert np.array_equal(d[dst, :, 0], want)


def _certificate_graph(case):
    """The sphere band at 24 x 25, or random per-row weights with diag >=
    rad on n_theta 9 or 12 columns, with or without a pole ("12-pole")."""
    if case == "sphere-band":
        metric = metric_from_warp(SinWarp(1.0), math.pi - 0.3, rho_min=0.3)
        return build_surface_graph(metric, 24, 25)
    n_theta, kind = case.split("-", 1)
    n_theta, pole = int(n_theta), kind == "pole"
    rng = np.random.default_rng(11 + n_theta + pole)
    n_rho = 11 + pole
    rad = np.r_[math.inf, rng.uniform(0.05, 2.0, n_rho - 1)]
    diag = rad + np.r_[0.0, rng.uniform(0.0, 2.0, n_rho - 1)]
    ring = rng.uniform(0.05, 2.0, n_rho)
    if pole:
        ring[0], diag[1] = 0.0, math.inf
    return SurfaceGraph(rho_values=np.arange(n_rho, dtype=float),
                        n_theta=n_theta, pole=pole, ring=ring, rad=rad,
                        diag=diag)


def _half_csr(g):
    """The edge-list CSR of the half strip of g, from g's own weights."""
    first = int(g.pole)
    return _edge_list_csr(g.ring[first:], g.rad[first + 1:],
                          g.diag[first + 1:], g.rad[1] if g.pole else None,
                          g.n_theta, True)


@pytest.mark.parametrize("case", ["9-no-pole", "9-pole", "12-no-pole",
                                  "12-pole", "sphere-band"])
def test_check_runs_with_edges_from_row_below_relaxed(monkeypatch, case):
    """The certificate the convergence check rests on: whenever the check
    runs, every in-edge from the row below (radial, both diagonals, and the
    pole spokes) satisfies d[v] <= fl(d[u] + w), so the check need not
    relax them.  Random per-row weights, and the sphere band, which takes
    three rounds, so the certificate also holds after a theta-descending
    pass."""
    g = _certificate_graph(case)
    rad, diag = g.rad[1:, None, None], g.diag[1:, None, None]
    checks = []

    def spy(graph, d, cand):
        below, inner = d[:-1], d[1:, 1:-1]
        assert np.all(inner <= below[:, 1:-1] + rad)
        assert np.all(inner <= below[:, :-2] + diag)
        assert np.all(inner <= below[:, 2:] + diag)
        checks.append(check(graph, d, cand))
        return checks[-1]

    check = gh_collapse._relaxation_lowers
    monkeypatch.setattr(gh_collapse, "_relaxation_lowers", spy)
    _distance_field(g, np.arange(g.n_rho))
    assert checks and not checks[-1]
    if case == "sphere-band":
        assert len(checks) == 3


def _ascending(view, axis):
    """Whether a kernel call runs its lines in the table's order: a
    descending pass is the same kernel on the view reversed along the axis
    of its lines, which has a negative stride there."""
    return view.strides[axis] > 0


def _assert_fields_take_one_round(monkeypatch, cfg):
    """The five fields of a one-chain collapse solve come from five
    solves of one graph each: the limit field, its angular, radial and
    proportional refinement, and the chain's quotient side.  Each solve is
    final after its first round: two rho passes, theta passes only
    ascending, and one check, which finds nothing to lower, so no
    theta-descending pass runs."""
    solves = []

    def solve_spy(graph, rows, labels=None):
        solves.append({"rho": [], "theta": set(), "checks": []})
        return solve(graph, rows, labels)

    def check_spy(*args):
        solves[-1]["checks"].append(check(*args))
        return solves[-1]["checks"][-1]

    def rho_spy(d, rad, diag):
        solves[-1]["rho"].append(_ascending(d, 0))
        rho_kernel(d, rad, diag)

    def theta_spy(strip, ring, diag, lines):
        solves[-1]["theta"].add(_ascending(strip, 1))
        kernel(strip, ring, diag, lines)

    solve, check, rho_kernel, kernel = (gh_collapse._distance_field,
                                        gh_collapse._relaxation_lowers,
                                        gh_collapse._rho_pass,
                                        gh_collapse._theta_pass)
    monkeypatch.setattr(gh_collapse, "_distance_field", solve_spy)
    monkeypatch.setattr(gh_collapse, "_relaxation_lowers", check_spy)
    monkeypatch.setattr(gh_collapse, "_rho_pass", rho_spy)
    monkeypatch.setattr(gh_collapse, "_theta_pass", theta_spy)
    collapse_experiment(CollapseConfig.from_json(cfg))
    assert solves == [{"rho": [False, True], "theta": {True},
                       "checks": [False]}] * 5


def test_demo_fields_converge_without_theta_descending_pass(monkeypatch):
    """The demo collapse config's solves take one round each."""
    cfg = json.loads((Path(__file__).resolve().parents[1] / "demos"
                      / "configs" / "collapse.json").read_text())
    _assert_fields_take_one_round(monkeypatch, cfg)


@pytest.mark.parametrize("grid, sample, p_values", [
    ((96, 96, 64), (10, 10, 6), [2, 4, 8, 16, 32, 64]),
    ((192, 192, 16), (6, 6, 4), [2, 4]),
], ids=["c12", "fine-grid"])
def test_benchmark_fields_converge_without_theta_descending_pass(
        monkeypatch, grid, sample, p_values):
    """The solves of the two benchmark collapse shapes (sinh a = 1, r = 1,
    m1 = m2 = 1) take one round each, as the solve's speed assumes."""
    names = ("n_rho", "n_theta", "n_s")
    cfg = {"surface": {"family": "sinh", "a": 1.0}, "rho_max": 2.0,
           "r": 1.0, "m1": 1, "m2": 1, "p_values": p_values,
           "grid": dict(zip(names, grid)),
           "sample": dict(zip(names, sample))}
    _assert_fields_take_one_round(monkeypatch, cfg)


@pytest.mark.parametrize("n_rho, n_theta", [(48, 96), (96, 192), (192, 64)])
def test_flat_fields_converge_in_one_round(monkeypatch, n_rho, n_theta):
    """On the flat strip (f = 1, rho_max = 2), from six source rows spread
    from row 0 to the last, the first round's passes already give the
    fixed point: one check, which finds nothing to lower, and no
    theta-descending pass.  A sweep whose rho or theta passes dropped a
    diagonal group takes several rounds here, since on a flat field many
    mixes of straight and diagonal steps tie and rounding picks one."""
    g = build_surface_graph(metric_from_warp(ConstWarp(1.0), 2.0), n_rho,
                            n_theta)
    rows = np.round(np.linspace(0, n_rho - 1, 6)).astype(int)
    checks, theta = [], []

    def check_spy(*args):
        checks.append(check(*args))
        return checks[-1]

    def theta_spy(strip, ring, diag, lines):
        theta.append(_ascending(strip, 1))
        kernel(strip, ring, diag, lines)

    check, kernel = gh_collapse._relaxation_lowers, gh_collapse._theta_pass
    monkeypatch.setattr(gh_collapse, "_relaxation_lowers", check_spy)
    monkeypatch.setattr(gh_collapse, "_theta_pass", theta_spy)
    _distance_field(g, rows)
    assert checks == [False]
    assert theta == [True]


def _assert_certificate(src, dst, w, w_diag):
    """Every in-edge from the line src into the line dst, the straight edge
    and both diagonals, satisfies d[v] <= fl(d[u] + w)."""
    assert np.all(dst <= src + w)
    assert np.all(dst[:, 1:] <= src[:, :-1] + w_diag)
    assert np.all(dst[:, :-1] <= src[:, 1:] + w_diag)


def _certified_passes(monkeypatch, g, rows):
    """Solves the field of g from the source rows with spies on both
    kernels that check their certificate after every pass, rho or theta,
    ascending or descending: every in-edge from the line before in the pass
    (the straight edge and both diagonals) satisfies d[v] <= fl(d[u] + w)
    with the graph's own weights, not the reversed lists a descending pass
    receives, so a wrong reversal fails.  A rho pass (_rho_pass) runs on
    the rows of the label table, whose strip's in-edges from the row before
    weigh rad and diag of the later row; a theta pass (_theta_pass) on the
    strip's columns, whose in-edges from the column before weigh ring of
    their row and diag of the later row.  A descending pass is the kernel
    on a reversed view (_ascending), which the spies turn back to the
    table's order.  Returns the passes, (orientation, ascending) in order,
    and the field."""
    passes = []

    def lines_before(lines, ascending):
        return ((lines[:-1], lines[1:]) if ascending
                else (lines[1:], lines[:-1]))

    def rho_spy(d, rad, diag):
        rho_kernel(d, rad, diag)
        up = _ascending(d, 0)
        passes.append(("rho", up))
        table = d if up else d[::-1]
        _assert_certificate(*lines_before(table[:, 1:-1], up),
                            g.rad[1:, None, None], g.diag[1:, None, None])

    def theta_spy(strip, ring, diag, lines):
        kernel(strip, ring, diag, lines)
        up = _ascending(strip, 1)
        passes.append(("theta", up))
        # the strip's runs of S labels as floats, columns first
        runs = strip if up else strip[:, ::-1]
        labels = runs.view(float).reshape(len(runs), runs.shape[1], -1)
        _assert_certificate(*lines_before(labels.transpose(1, 0, 2), up),
                            g.ring[None, :, None], g.diag[None, 1:, None])

    rho_kernel, kernel = gh_collapse._rho_pass, gh_collapse._theta_pass
    monkeypatch.setattr(gh_collapse, "_rho_pass", rho_spy)
    monkeypatch.setattr(gh_collapse, "_theta_pass", theta_spy)
    return passes, _distance_field(g, rows).dist


def _certificate_rows(g, n_src):
    """A lone source in the middle row; seven from edge to edge, the pole
    among them."""
    if n_src == 1:
        return [g.n_rho // 2]
    return np.linspace(0, g.n_rho - 1, n_src).round().astype(int)


@pytest.mark.parametrize("n_src", [1, 7])
@pytest.mark.parametrize("case", ["9-no-pole", "9-pole", "12-no-pole",
                                  "12-pole", "sphere-band"])
def test_theta_pass_leaves_edges_from_previous_column_relaxed(monkeypatch,
                                                              case, n_src):
    """The certificate of the kernels after each pass (_certified_passes),
    with the theta passes, which run on column-major copies, in the order
    the sweep takes them, checked on the whole strip.  Random per-row
    weights with and without a pole, and the sphere band, which takes
    three rounds and so runs descending passes; one source row, whose
    source run is one 8-byte item of the copy, and seven.  At one source
    row the fields also equal scipy's Dijkstra bit for bit."""
    g = _certificate_graph(case)
    rows = _certificate_rows(g, n_src)
    passes, got = _certified_passes(monkeypatch, g, rows)
    theta = [up for kind, up in passes if kind == "theta"]
    if case == "sphere-band":
        assert theta == [True, False] * 2 + [True]
    else:
        assert theta and theta[0]
    if n_src == 1:
        ids = _node_ids(g, half=True)
        want = dijkstra(_half_csr(g), indices=ids[rows, 0])[:, ids]
        assert np.array_equal(got.transpose(1, 0, 2), want)


@pytest.mark.parametrize("case", ["9-no-pole", "9-pole", "12-no-pole",
                                  "12-pole", "sphere-band"])
def test_rho_pass_leaves_edges_from_previous_row_relaxed(monkeypatch, case):
    """The certificate of the kernels after each pass (_certified_passes),
    with the rho passes, which run on the label table in place and whose
    in-edges from row 0 include the pole spokes, in the sweep's order:
    rounds of rho descending, theta ascending and rho ascending, joined by
    a theta-descending pass.  Every case takes at least two rounds, so
    every kind of pass is checked."""
    g = _certificate_graph(case)
    passes, _ = _certified_passes(monkeypatch, g, _certificate_rows(g, 7))
    rounds = (len(passes) + 1) // 4
    assert rounds >= 2
    assert passes == ([("rho", False), ("theta", True), ("rho", True),
                       ("theta", False)] * rounds)[:-1]


@pytest.mark.parametrize("pole", [False, True], ids=["no-pole", "pole"])
@pytest.mark.parametrize("n_theta", [9, 12])
def test_distance_field_random_row_weights(pole, n_theta):
    """Any positive per-row weights with diag >= rad (the condition the
    fold of an odd ring needs): the fields equal scipy's Dijkstra on the
    edge-list graph of the same weights, bit for bit."""
    rng = np.random.default_rng(5 + n_theta + pole)
    n_ring = 11
    ring_w = rng.uniform(0.05, 2.0, n_ring)
    rad_w = rng.uniform(0.05, 2.0, n_ring - 1)
    diag_w = rad_w + rng.uniform(0.0, 2.0, n_ring - 1)
    spoke = float(rng.uniform(0.05, 2.0)) if pole else None
    inf = [math.inf]
    g = SurfaceGraph(
        rho_values=np.arange(n_ring + pole, dtype=float), n_theta=n_theta,
        pole=pole, ring=np.r_[[0.0] * pole, ring_w],
        rad=np.r_[inf, [spoke] * pole, rad_w],
        diag=np.r_[inf, inf * pole, diag_w])
    rows = np.arange(g.n_rho)
    ids = _node_ids(g, half=True)
    half = _edge_list_csr(ring_w, rad_w, diag_w, spoke, n_theta, True)
    want = dijkstra(half, indices=ids[:, 0])[:, ids]
    got = _distance_field(g, rows).dist
    assert np.array_equal(got.transpose(1, 0, 2), want)
    full = _edge_list_csr(ring_w, rad_w, diag_w, spoke, n_theta, False)
    assert np.array_equal(_all_pairs(g),
                          dijkstra(full, indices=np.arange(full.shape[0])))


def test_solve_in_a_given_buffer_equals_its_own_table():
    """Given a label buffer larger than the table and holding stale values,
    a solve refills the head of it and gives the field of a solve in a
    table of its own bit for bit, as a view of the buffer."""
    metric = metric_from_warp(SinhWarp(1.0), 1.2)
    g = build_surface_graph(metric, 10, 24)
    rows = [0, 4, 9]
    want = _distance_field(g, rows).dist
    size = len(rows) * 10 * (24 // 2 + 3)
    labels = np.full(size + 7, -1.0)
    got = _distance_field(g, rows, labels)
    assert np.shares_memory(got.dist, labels)
    assert np.array_equal(got.dist, want)
    assert np.all(labels[size:] == -1.0)


def test_solve_runs_rounds_until_its_check_passes(monkeypatch):
    """On the sphere band from one source in row 0, the 24-column graph is
    final after one round, while the 48-column graph needs a
    theta-descending pass and a second round: each solve checks until
    its check finds nothing to lower."""
    metric = metric_from_warp(SinWarp(1.0), math.pi - 0.3, rho_min=0.3)
    checks = []

    def spy(graph, d, scratch):
        checks.append((graph.n_theta, check(graph, d, scratch)))
        return checks[-1][1]

    check = gh_collapse._relaxation_lowers
    monkeypatch.setattr(gh_collapse, "_relaxation_lowers", spy)
    for n_theta in (24, 48):
        _distance_field(build_surface_graph(metric, 17, n_theta), [0])
    assert checks == [(24, False), (48, True), (48, False)]


def test_smallest_scratch_block_gives_the_same_fields(monkeypatch):
    """With the scratch at its floor, two label columns (_SCRATCH_LABELS
    = 1), a theta pass copies one new column a block and the check takes
    one or two strip rows a block; on the 48-column sphere band, which
    runs theta passes both ways, the field equals that of the default
    scratch bit for bit."""
    metric = metric_from_warp(SinWarp(1.0), math.pi - 0.3, rho_min=0.3)
    g = build_surface_graph(metric, 17, 48)
    rows = [0, 8, 16]
    want = _distance_field(g, rows).dist
    monkeypatch.setattr(gh_collapse, "_SCRATCH_LABELS", 1)
    blocks = []

    def spy(strip, ring, diag, lines):
        blocks.append((len(lines), _ascending(strip, 1)))
        kernel(strip, ring, diag, lines)

    kernel = gh_collapse._theta_pass
    monkeypatch.setattr(gh_collapse, "_theta_pass", spy)
    got = _distance_field(g, rows)
    assert set(blocks) == {(2, True), (2, False)}
    assert np.array_equal(got.dist, want)


def test_half_graph_build_peak_memory():
    """The graph is three weights a row: building it allocates below 16
    floats a grid row, however fine the angular grid."""
    metric = metric_from_warp(SinhWarp(1.0), 2.0)
    build_surface_graph(metric, 191, 192)       # imports and caches
    peaks = []
    for n_theta in (192, 19200):
        tracemalloc.start()
        try:
            build_surface_graph(metric, 191, n_theta)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 16 * 8 * 191
    assert abs(peaks[1] - peaks[0]) < 1024


def test_flat_cylinder_radial_distance():
    m = metric_from_warp(ConstWarp(1.0), 1.0)
    g = build_surface_graph(m, 9, 16)
    fld = _distance_field(g, [0])
    assert abs(fld.lookup(0, 8, 0) - 1.0) <= 1e-12


def test_flat_cylinder_half_circumference():
    # opposite points on one boundary ring: the ring path is optimal and
    # the graph carries it without any 8-neighbor direction error
    m = metric_from_warp(ConstWarp(1.0), 1.0)
    g = build_surface_graph(m, 9, 16)
    fld = _distance_field(g, [0])
    assert abs(fld.lookup(0, 0, 8) - math.pi) <= 1e-12


def test_sphere_meridian_distance():
    m = metric_from_warp(SinWarp(1.0), math.pi - 0.3, rho_min=0.3)
    g = build_surface_graph(m, 29, 16)
    fld = _distance_field(g, [0])
    want = math.pi - 0.6
    assert abs(fld.lookup(0, 28, 0) - want) <= 1e-12


def test_pole_to_rim_distance():
    m = metric_from_warp(SinhWarp(1.0), 1.0)
    g = build_surface_graph(m, 17, 16)
    rim = _distance_field(g, [0]).lookup(0, 16, np.arange(16))
    assert np.max(np.abs(rim - 1.0)) <= 1e-12


def test_diagonal_distance_overshoot_bounded():
    # near-square cells keep the 8-direction metrication error below the
    # octile worst case of about 8.2 percent
    m = metric_from_warp(ConstWarp(1.0), 1.0)
    n_rho, n_theta = 17, 101
    g = build_surface_graph(m, n_rho, n_theta)
    val = _distance_field(g, [0]).lookup(0, 16, 16)
    true = math.hypot(1.0, 16 * TWO_PI / n_theta)
    assert val >= true - 1e-12
    assert val <= 1.09 * true


def test_distance_field_lookup_symmetry():
    """d(u, v) = d(v, u) to rounding between every pair of nodes, read from
    the fields of their rows with the rotation by the source's column."""
    m = metric_from_warp(SinhWarp(1.0), 1.0)
    g = build_surface_graph(m, 9, 8)
    d = _all_pairs(g)
    assert np.max(np.abs(d - d.T)) <= 1e-12
    assert np.max(np.abs(np.diag(d))) == 0.0


# ---------------------------------------------------------------------------
# distance fields
# ---------------------------------------------------------------------------

def test_distance_field_matches_node_distances():
    m = metric_from_warp(SinhWarp(1.0), 1.2)
    g = build_surface_graph(m, 9, 12)
    fld = _distance_field(g, [1, 5])
    ids = _node_ids(g, half=False)
    d = dijkstra(_coo_reference_csr(m, 9, 12, half=False),
                 indices=ids[[1, 5], 0])
    for slot in (0, 1):
        for i in range(1, 9):
            for j in range(12):
                want = d[slot, ids[i, j]]
                assert fld.lookup(slot, i, j) == want
        # the pole row holds the pole in every column
        assert fld.lookup(slot, 0, 5) == d[slot, 0]


@pytest.mark.parametrize("warp, rho_max", [(SinhWarp(1.0), 1.2),
                                           (ConstWarp(1.5), 1.0)],
                         ids=["pole", "no-pole"])
@pytest.mark.parametrize("n_theta", [12, 13])
def test_distance_field_fold_is_exact(warp, rho_max, n_theta):
    """The half-strip solve mirrors to exactly the full-graph fields."""
    metric = metric_from_warp(warp, rho_max)
    g = build_surface_graph(metric, 10, n_theta)
    assert g.pole == (warp.kind == "sinh")
    rows = np.array([0, 3, 9])
    nodes = _node_ids(g, half=False)
    # scipy's undirected Dijkstra on the full edge-list reference
    ref = _coo_reference_csr(metric, 10, n_theta, half=False)
    d = dijkstra(ref, directed=False, indices=nodes[rows, 0])
    fld = _distance_field(g, rows)
    # the stored table is the full field at the strip nodes (a pole graph's
    # row 0 repeats the pole in every column), and lookup unfolds it to
    # every column
    strip = nodes[:, :n_theta // 2 + 1]
    assert np.array_equal(fld.dist, d[:, strip].transpose(1, 0, 2))
    k, i, j = np.ix_(range(3), range(10), range(n_theta))
    assert np.array_equal(fld.lookup(k, i, j), d[k, nodes[i, j]])


# ---------------------------------------------------------------------------
# metric checks on explicit matrices
# ---------------------------------------------------------------------------

def _metric(d):
    """An explicit distance matrix after the checks collapse_experiment runs
    on every raw table (_check_metric), averaged with its transpose."""
    d = np.asarray(d, dtype=float)
    _check_metric(d, d.T, np.diag(d))
    return 0.5 * (d + d.T)


def _triangle_defect(d):
    """max over (i, j, k) of d(i, k) - d(i, j) - d(j, k); <= 0 for a
    metric."""
    return max(float(np.max(d - (d[:, j][:, None] + d[j, :][None, :])))
               for j in range(len(d)))


@pytest.mark.parametrize("d, refusal", [
    ([[0.0, 1.0], [1.0, 0.0]], None),
    ([[1e-11, 1.0], [1.0, 0.0]], "diagonal"),
    # the symmetry tolerance is 1e-12 of the largest distance, here 1000
    ([[0.0, 1000.0], [1000.0 + 5e-10, 0.0]], None),
    ([[0.0, 1000.0], [1000.0 + 2e-9, 0.0]], "symmetric"),
    ([[0.0, 1.0], [2.0, 0.0]], "symmetric"),
    ([[0.0, -1.0], [-1.0, 0.0]], "nonnegative"),
], ids=["metric", "diagonal", "asymmetry-within-scale", "asymmetry-of-scale",
        "asymmetry", "negative"])
def test_check_metric_refusals(d, refusal):
    """The three refusals of the check collapse_experiment runs on every
    raw table: a nonzero diagonal, asymmetry beyond 1e-12 of the largest
    distance (at least 1), and a negative distance."""
    d = np.array(d)
    if refusal is None:
        _check_metric(d, d.T, np.diag(d))
    else:
        with pytest.raises(DomainError, match=refusal):
            _check_metric(d, d.T, np.diag(d))


def test_triangle_defect_reports_violation():
    bad = _metric([[0.0, 1.0, 3.0],
                   [1.0, 0.0, 1.0],
                   [3.0, 1.0, 0.0]])
    assert _triangle_defect(bad) == pytest.approx(1.0, abs=1e-15)
    good = _metric([[0.0, 1.0, 2.0],
                    [1.0, 0.0, 1.0],
                    [2.0, 1.0, 0.0]])
    assert _triangle_defect(good) <= 0.0


def test_graph_distance_matrix_is_metric():
    m = metric_from_warp(SinhWarp(1.0), 1.0)
    g = build_surface_graph(m, 9, 10)
    assert _triangle_defect(_metric(_all_pairs(g))) <= 1e-12


# ---------------------------------------------------------------------------
# quotient distances
# ---------------------------------------------------------------------------

def _zp_distance(r, m1, m2, p, a, b, dp_lookup):
    """The Z_p quotient pseudodistance of (surface) x S^1(r), pointwise:
    the least np.hypot of the surface and circle distances from a =
    (p_a, s_a) to the translates of b = (p_b, s_b).  The group element k
    advances theta by 2 pi (m1 k mod p) / p and s by 2 pi (m2 k mod p) / p,
    so only p / gcd(m1, m2, p) of the elements act differently.

    dp_lookup(p_a, p_b, rot) returns the surface distance from p_a to p_b
    rotated by the angles rot; it is called once, with all p of them."""
    (pa, sa), (pb, sb) = a, b
    k = np.arange(p)
    return float(np.min(np.hypot(
        dp_lookup(pa, pb, TWO_PI * (m1 * k % p) / p),
        circle_distance(0.0, sb - sa + TWO_PI * (m2 * k % p) / p, r))))


def test_circle_distance_wraparound():
    assert circle_distance(0.0, 3 * math.pi / 2, 1.0) == pytest.approx(
        math.pi / 2, rel=1e-15)
    assert circle_distance(0.0, math.pi, 2.0) == pytest.approx(
        2.0 * math.pi, rel=1e-15)
    vals = circle_distance(0.0, np.array([0.1, TWO_PI - 0.1]), 1.0)
    assert np.allclose(vals, [0.1, 0.1], atol=1e-14)


def _cylinder_lookup(n_theta=16):
    m = metric_from_warp(ConstWarp(1.0), 1.0)
    g = build_surface_graph(m, 9, n_theta)
    fld = _distance_field(g, [0, 4, 8])
    slot = {0: 0, 4: 1, 8: 2}

    def dp_lookup(pa, pb, rot):
        return fld.lookup(slot[pa[0]], pb[0],
                          _column((pb[1] + rot) - pa[1], n_theta))

    return dp_lookup


def test_quotient_distance_trivial_group_is_product():
    dp_lookup = _cylinder_lookup()
    a = ((0, 0.0), 0.0)
    b = ((8, math.pi / 4), 1.0)
    want = math.hypot(dp_lookup((0, 0.0), (8, math.pi / 4), 0.0),
                      circle_distance(0.0, 1.0, 1.0))
    assert _zp_distance(1.0, 1, 1, 1, a, b, dp_lookup) == pytest.approx(
        want, rel=1e-15)


def test_quotient_distance_same_orbit_vanishes():
    dp_lookup = _cylinder_lookup()
    a = ((4, 0.0), 0.0)
    # a translated by the group element tau = pi/2
    b = ((4, math.pi / 2), math.pi / 2)
    assert _zp_distance(1.0, 1, 1, 4, a, b, dp_lookup) <= 1e-12


def test_quotient_distance_monotone_in_group_size():
    # grid angles of the 16 ring, on which every rotation of Z_16 lands
    dp_lookup = _cylinder_lookup()
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = ((int(rng.choice([0, 4, 8])), TWO_PI * rng.integers(16) / 16),
             float(rng.uniform(0, TWO_PI)))
        b = ((int(rng.choice([0, 4, 8])), TWO_PI * rng.integers(16) / 16),
             float(rng.uniform(0, TWO_PI)))
        for p in (1, 2, 4, 8):
            d_p = _zp_distance(1.0, 1, 1, p, a, b, dp_lookup)
            d_2p = _zp_distance(1.0, 1, 1, 2 * p, a, b, dp_lookup)
            assert d_2p <= d_p + 1e-14


def test_torus_quotient_matches_circle_radius():
    # full-circle quotient of S^1(1) x S^1(1) along the diagonal is a circle
    # of radius 1/sqrt(2); on one flat boundary ring the graph distance is
    # exact, so pairs on a 512-column ring, aligned with Z_512, must match
    # to rounding
    dp_lookup = _cylinder_lookup(n_theta=512)
    for k in (8, 32, 100, 256):
        dth = TWO_PI * k / 512
        got = _zp_distance(1.0, 1, 1, 512, ((0, 0.0), 0.0), ((0, dth), 0.0),
                           dp_lookup)
        want = min(dth, TWO_PI - dth) / math.sqrt(2.0)
        assert abs(got - want) <= 1e-12


# ---------------------------------------------------------------------------
# the dense reference's slice correspondence and distortion
# ---------------------------------------------------------------------------

def _slice_map(points, kappa, period=TWO_PI):
    """The slice correspondence (rho, theta, s) -> (rho, theta - kappa s) of
    the sample points, the limit angle taken mod period: 2 pi / m2' on the
    orbifold limit, m2' = m2 / gcd(m1, m2).

    Returns (image, limit_points): limit_points are the distinct images,
    deduplicated on keys rounded to 1e-12 with an angle of one period taken
    as 0, and point i corresponds to limit_points[image[i]]."""
    limit_points, seen, image = [], {}, []
    for rho, theta, s in points:
        phi = (theta - kappa * s) % period
        key_phi = round(phi, 12)
        if key_phi >= round(period, 12):
            key_phi = phi = 0.0
        key = (round(float(rho), 12), key_phi)
        if key not in seen:
            seen[key] = len(limit_points)
            limit_points.append((float(rho), float(phi)))
        image.append(seen[key])
    return np.array(image), limit_points


def test_natural_correspondence_orbifold_identifies_translates():
    # slopes (1, 2): the slice s = 0 meets each orbit twice, at theta and
    # theta + pi, which the limit angle taken mod pi identifies
    pts = [(0.5, 0.0, 0.0), (0.5, math.pi, 0.0), (0.5, 0.25, 0.5)]
    image, limit_points = _slice_map(pts, 0.5, math.pi)
    assert image.tolist() == [0, 0, 0]
    assert limit_points == [(0.5, 0.0)]
    image, _ = _slice_map(pts, 0.5)
    assert image.tolist() == [0, 1, 0]


def _distortion(d_x, d_y, image):
    """max |d_X(a, a') - d_Y(b, b')| over the pairs of the correspondence
    that relates point a of X to point image[a] of Y; it must cover both
    index sets."""
    assert len(image) == len(d_x)
    assert set(np.asarray(image).tolist()) == set(range(len(d_y)))
    return float(np.max(np.abs(d_x - d_y[np.ix_(image, image)])))


def test_natural_correspondence_zero_slice_is_identity():
    pts = [(0.5, 0.0, 0.0), (0.5, 1.0, 0.0), (1.0, 2.0, 0.0)]
    image, limit_points = _slice_map(pts, 1.0)
    assert limit_points == [(0.5, 0.0), (0.5, 1.0), (1.0, 2.0)]
    assert image.tolist() == [0, 1, 2]


def test_natural_correspondence_collapses_orbits():
    # with kappa = 1 the points (rho, theta, s) and (rho, theta + tau,
    # s + tau) project to the same limit point; exact binary angles keep
    # the dedup keys identical
    tau = math.pi / 2
    pts = [(0.5, 0.25, 0.125), (0.5, 0.25 + tau, 0.125 + tau)]
    image, limit_points = _slice_map(pts, 1.0)
    assert len(limit_points) == 1
    assert image.tolist() == [0, 0]
    assert limit_points[0][1] == pytest.approx(0.125, abs=1e-15)


def test_natural_correspondence_wraps_to_zero():
    # theta - kappa s = 2 pi exactly, which must land on 0, not 2 pi
    pts = [(0.5, 0.0, 0.0), (0.5, math.pi, math.pi / 2 * 3)]
    image, limit_points = _slice_map(pts, 2.0)
    assert len(limit_points) == 1 and limit_points[0][1] == 0.0


def test_correspondence_validation():
    """The reference distortion refuses a correspondence that misses a
    point of either space."""
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert _distortion(np.zeros((3, 3)), d, [0, 0, 1]) == 1.0
    with pytest.raises(AssertionError):
        _distortion(d, d, [0, 0])               # misses Y's point 1
    with pytest.raises(AssertionError):
        _distortion(np.zeros((3, 3)), d, [0, 1])    # misses X's point 2


def test_distortion_reference_values():
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    y = np.array([[0.0, 2.0], [2.0, 0.0]])
    assert _distortion(x, x, [0, 1]) == 0.0
    assert _distortion(x, y, [0, 1]) == pytest.approx(1.0, rel=1e-15)
    assert _distortion(x, y, [1, 0]) == pytest.approx(1.0, rel=1e-15)


# ---------------------------------------------------------------------------
# quotient matrices are exactly metric on aligned grids
# ---------------------------------------------------------------------------

def test_quotient_matrix_triangle_defect_tiny():
    # flat disk; ring = 16 contains every group rotation (p = 4) and every
    # sampled angle, so the rotations are graph isometries and the quotient
    # matrix is an exact metric up to rounding
    m = metric_from_warp(LinearWarp(), 1.0)
    assert m.capped_at_origin
    g = build_surface_graph(m, 12, 16)
    rows = [1, 6, 11]
    fld = _distance_field(g, rows)
    slot = {r: k for k, r in enumerate(rows)}

    def dp_lookup(pa, pb, rot):
        return fld.lookup(slot[pa[0]], pb[0],
                          _column((pb[1] + rot) - pa[1], 16))

    pts = [((row, TWO_PI * j / 4), TWO_PI * k / 2)
           for row in rows for j in range(4) for k in range(2)]
    n = len(pts)
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = _zp_distance(1.0, 1, 1, 4, pts[i], pts[j],
                                             dp_lookup)
    assert _triangle_defect(_metric(d)) <= 1e-12


# ---------------------------------------------------------------------------
# consistency with the transformed limit surface
# ---------------------------------------------------------------------------

def test_limit_consistency_within_refinement_budget():
    """Quotient distances approach the transformed-surface graph distances.

    Both sides carry 8-neighbor metrication error that does not vanish under
    proportional refinement (it is O(1) in the cell aspect ratio), so the
    comparison budget is measured the same way the experiment floor is:
    largest change under radial-only, angular-only and proportional
    refinement, on each side.
    """
    base = metric_from_warp(SinhWarp(1.0), 1.2)
    limit = quotient_transform(base, 1.0, 1.0)
    th = TWO_PI / 3

    def d_limit(n_rho, ring):
        g = build_surface_graph(limit, n_rho, ring)
        src = round(0.32 / (1.2 / (n_rho - 1)))
        fld = _distance_field(g, [src])
        return float(fld.lookup(0, n_rho - 1, _column(th, ring)))

    def d_quot(n_rho, ring, p):
        g = build_surface_graph(base, n_rho, ring)
        src = round(0.32 / (1.2 / (n_rho - 1)))
        fld = _distance_field(g, [src])

        def dp_lookup(pa, pb, rot):
            return fld.lookup(0, pb[0], _column((pb[1] + rot) - pa[1], ring))

        return _zp_distance(1.0, 1, 1, p, ((src, 0.0), 0.0),
                            ((n_rho - 1, th), 0.0), dp_lookup)

    refinements = ((31, 480), (16, 960), (31, 960))

    dy = d_limit(16, 480)
    budget_y = max(abs(d_limit(nr, nt) - dy) for nr, nt in refinements)

    # Z_480 puts a group rotation on every node of the 480 ring
    dq = d_quot(16, 480, 480)
    budget_x = max(abs(d_quot(nr, nt, 480) - dq) for nr, nt in refinements)

    # regression anchor for the deterministic pipeline
    assert dq == pytest.approx(1.4499769557326505, abs=1e-9)

    # budgets are real but not vacuous
    assert 0.0 < budget_y < 0.1
    assert 0.0 < budget_x < 0.1
    assert abs(dq - dy) <= budget_x + budget_y

    # a coarser cyclic group is nearly indistinguishable from it
    dz = d_quot(16, 480, 120)
    assert abs(dz - dq) <= 1e-3


def test_orbifold_limit_matches_zp_quotient():
    """For slopes (1, 2) the slice s = 0 meets every orbit twice, so the
    limit is the transformed surface with theta taken mod pi, not the
    whole transformed surface.  Checked apart from collapse_experiment:
    the pointwise _zp_distance at p = 512 on the product agrees with the
    graph distance on that orbifold within the refinement budgets of both
    sides, on pairs where the full-turn limit is off by far more."""
    base = metric_from_warp(SinhWarp(1.0), 1.2)
    limit = quotient_transform(base, 1.0, 0.5)
    # radial, angular and proportional: (n_rho, the factor of the rings)
    refinements = ((31, 1), (16, 2), (31, 2))

    def source(n_rho):
        return round(0.32 / (1.2 / (n_rho - 1)))

    def d_limit(n_rho, ring, period, phi):
        g = build_surface_graph(limit, n_rho, ring, period)
        fld = _distance_field(g, [source(n_rho)])
        return float(fld.lookup(0, n_rho - 1,
                                _column(phi % period, ring, period)))

    def d_quot(n_rho, ring, theta, s):
        fld = _distance_field(
            build_surface_graph(base, n_rho, ring), [source(n_rho)])

        def dp_lookup(pa, pb, rot):
            return fld.lookup(0, pb[0], _column((pb[1] + rot) - pa[1], ring))

        return _zp_distance(1.0, 1, 2, 512, ((source(n_rho), 0.0), 0.0),
                            ((n_rho - 1, theta), s), dp_lookup)

    # (theta, s) of the rim point; the source sits at rho = 0.32, theta = 0
    # and s = 0.  Both sides take 512 columns a turn, which hold every angle
    # and every rotation of Z_512
    full_miss = 0.0
    for theta, s in ((math.pi, 0.0), (math.pi / 2, 0.0),
                     (3 * math.pi / 4, 0.0), (0.0, 3 * math.pi / 2),
                     (3 * math.pi / 8, math.pi / 2)):
        phi = theta - 0.5 * s
        dy = d_limit(16, 256, math.pi, phi)
        budget_y = max(abs(d_limit(n, 256 * k, math.pi, phi) - dy)
                       for n, k in refinements)
        dq = d_quot(16, 512, theta, s)
        budget_x = max(abs(d_quot(n, 512 * k, theta, s) - dq)
                       for n, k in refinements)
        assert budget_x + budget_y < 0.05
        assert abs(dq - dy) <= budget_x + budget_y + 1e-12
        full_miss = max(full_miss, abs(dq - d_limit(16, 512, TWO_PI, phi)))
    assert full_miss > 0.5


# ---------------------------------------------------------------------------
# the packaged experiment
# ---------------------------------------------------------------------------

SMALL_CONFIG = {
    "surface": {"family": "sinh", "a": 1.0},
    "rho_max": 1.2,
    "r": 1.0,
    "m1": 1,
    "m2": 1,
    "p_values": [2, 4, 8, 16],
    "grid": {"n_rho": 24, "n_theta": 24, "n_s": 12},
    "sample": {"n_rho": 5, "n_theta": 5, "n_s": 4},
}


def test_collapse_experiment_frozen_small_case():
    rows = collapse_experiment(CollapseConfig.from_json(SMALL_CONFIG))
    assert [r.p for r in rows] == [2, 4, 8, 16]
    want = [2.1391246466444698, 0.5764180442275872,
            0.3313758142682671, 0.17692579300165845]
    for row, w in zip(rows, want):
        assert row.distortion == pytest.approx(w, rel=1e-9)
        assert row.gh_upper_bound == 0.5 * row.distortion
    floors = {r.grid_floor_estimate for r in rows}
    assert len(floors) == 1                   # shared across rows
    assert floors.pop() == pytest.approx(0.08034455496973414, rel=1e-9)
    # deeper collapse never increases the distortion on this chain
    dists = [r.distortion for r in rows]
    assert all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))


def _dense_matrices(config, period=None):
    """The dense algorithm's matrices: for each p the n_pts x n_pts quotient
    matrix, the minimum over the group of one product-distance matrix per
    group element, the limit matrix on the images of the slice map
    (_slice_map), and the metric checks on the raw matrices.  Same
    discretization as collapse_experiment: the limit surface, theta taken
    mod period (by default 2 pi / m2', the orbifold limit), on the ring
    that holds every slice angle of a full turn, and one quotient-side
    field per divisibility chain, on the ring that holds every group
    rotation of the chain; the float angles of the points and rotations
    are snapped to those rings' nodes.

    Returns (d_y, image, floor, [(p, d_x) for each p]): the limit matrix,
    the slice map as indices into it, and the grid floor."""
    base = metric_from_warp(config.surface, config.rho_max)
    limit = quotient_transform(base, config.r, config.m1 / config.m2)
    g, smp = config.grid, config.sample
    m1, m2, p_values = config.m1, config.m2, config.p_values
    ring_y = math.lcm(g.n_theta, m2 * g.n_s // math.gcd(m1, m2 * g.n_s))
    # the last p of each p's chain, a maximal run of p values each dividing
    # the next
    last = list(p_values)
    for i in range(len(p_values) - 2, -1, -1):
        if p_values[i + 1] % p_values[i] == 0:
            last[i] = last[i + 1]
    rows = _subgrid_indices(int(base.capped_at_origin), g.n_rho - 1,
                            smp.n_rho)
    thetas = TWO_PI * ((np.arange(smp.n_theta) * g.n_theta)
                       // smp.n_theta) / g.n_theta
    svals = TWO_PI * ((np.arange(smp.n_s) * g.n_s) // smp.n_s) / g.n_s

    # the rho row index stands in for rho in the point labels
    slot, theta, s = (a.ravel() for a in np.meshgrid(
        np.arange(rows.size), thetas, svals, indexing="ij"))
    points = [(float(rows[k]), float(t), float(v))
              for k, t, v in zip(slot, theta, s)]
    if period is None:
        period = TWO_PI / (m2 // math.gcd(m1, m2))
    image, limit_points = _slice_map(points, m1 / m2, period)
    slot_of_rho = {p_[0]: k for p_, k in zip(points, slot)}
    lim_slot = np.array([slot_of_rho[rho] for rho, _ in limit_points])
    lim_phi = np.array([phi for _, phi in limit_points])
    dphi = lim_phi[None, :] - lim_phi[:, None]

    def limit_matrix(n_rho, n_theta, scale):
        fld = _distance_field(
            build_surface_graph(limit, n_rho, n_theta, period), scale * rows)
        return fld.lookup(lim_slot[:, None], scale * rows[lim_slot][None, :],
                          _column(dphi, n_theta, period))

    d_y = limit_matrix(g.n_rho, ring_y, 1)
    floor = max(float(np.max(np.abs(d_y - limit_matrix(*ref))))
                for ref in ((2 * g.n_rho - 1, ring_y, 2),
                            (g.n_rho, 2 * ring_y, 1),
                            (2 * g.n_rho - 1, 2 * ring_y, 2)))
    d_y = _metric(d_y)

    dth = theta[None, :] - theta[:, None]
    dsv = s[None, :] - s[:, None]
    fields = {}
    quotients = []
    for p, p_last in zip(p_values, last):
        ring_x = math.lcm(g.n_theta, p_last // math.gcd(m1, p_last))
        if ring_x not in fields:
            fields[ring_x] = _distance_field(
                build_surface_graph(base, g.n_rho, ring_x), rows)
        best = np.full(dth.shape, np.inf)
        for q in range(p):
            tau = TWO_PI * q / p
            dp = fields[ring_x].lookup(slot[:, None], rows[slot][None, :],
                                       _column(dth + m1 * tau, ring_x))
            d_s1 = circle_distance(0.0, dsv + m2 * tau, config.r)
            np.minimum(best, np.hypot(dp, d_s1), out=best)
        quotients.append((p, _metric(best)))
    return d_y, image, floor, quotients


def _dense_reference(config):
    """The dense algorithm as a reference: (p, distortion, floor) for each
    p, the distortion (_distortion) of the slice map between the matrices
    of _dense_matrices."""
    d_y, image, floor, quotients = _dense_matrices(config)
    return [(p, _distortion(d_x, d_y, image), floor) for p, d_x in quotients]


def _eccentricity_bound(d_x, d_y):
    """The eccentricity lower bound on the GH distance between the finite
    metric spaces of the matrices d_x and d_y (Memoli 2012): half the
    Hausdorff distance on the real line between their sets of
    eccentricities, each point's largest distance.  Any correspondence R
    moves an eccentricity by at most dis R, so the bound is at most the
    dis R / 2 of every R."""
    gaps = np.abs(d_x.max(axis=1)[:, None] - d_y.max(axis=1)[None, :])
    return 0.5 * max(float(gaps.min(axis=1).max()),
                     float(gaps.min(axis=0).max()))


REFERENCE_CASES = {
    "m1=0": dict(m1=0),
    "m1=1": dict(m1=1),
    "m1=2": dict(m1=2),
    "m2=2": dict(m1=1, m2=2),
    # p = 9 folds in only the six elements that p = 3 did not visit
    "chain-3-9": dict(p_values=[3, 9]),
    # two chains, on the rings lcm(24, 97) and lcm(24, 101); the slopes
    # 3 / 7 put the limit side on lcm(24, 7 * 12 / 3) = 168 columns
    "chains-97-101": dict(m1=3, m2=7, p_values=[97, 101],
                          grid={"n_rho": 24, "n_theta": 24, "n_s": 12},
                          sample={"n_rho": 5, "n_theta": 5, "n_s": 4}),
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_collapse_experiment_matches_dense_reference(case):
    # signed s offsets matter whenever kappa = m1 / m2 is not an integer
    cfg = dict(SMALL_CONFIG, p_values=[2, 4, 8],
               grid={"n_rho": 16, "n_theta": 16, "n_s": 8},
               sample={"n_rho": 4, "n_theta": 5, "n_s": 3})
    cfg.update(REFERENCE_CASES[case])
    config = CollapseConfig.from_json(cfg)
    rows = collapse_experiment(config)
    want = _dense_reference(config)
    assert [r.p for r in rows] == [p for p, _, _ in want]
    for row, (_, dist, floor) in zip(rows, want):
        assert row.distortion == pytest.approx(dist, rel=1e-12, abs=1e-15)
        assert row.grid_floor_estimate == pytest.approx(floor, rel=1e-12)


def _orbifold_demo_config():
    """The demo config with slopes (1, 2) on the chain 4, 16, 64."""
    cfg = json.loads((Path(__file__).resolve().parents[1] / "demos"
                      / "configs" / "collapse.json").read_text())
    return CollapseConfig.from_json(dict(cfg, m1=1, m2=2,
                                         p_values=[4, 16, 64]))


def test_eccentricity_bound_brackets_orbifold_collapse():
    """On the orbifold limit the eccentricity lower bound of the sampled
    GH distance stays at or below the slice map's upper bound dis / 2."""
    config = _orbifold_demo_config()
    rows = collapse_experiment(config)
    d_y, _, _, quotients = _dense_matrices(config)
    assert [r.p for r in rows] == [p for p, _ in quotients]
    for row, (_, d_x) in zip(rows, quotients):
        assert 0.0 <= _eccentricity_bound(d_x, d_y) <= row.gh_upper_bound


def test_eccentricity_bound_rises_against_full_turn_limit():
    """Against the wrong limit, the transformed surface with theta taken
    mod 2 pi, the eccentricity lower bound rises with p past 0.6 by
    p = 64: it certifies that the quotients do not converge to it, which
    the slice map's upper bound alone could not."""
    d_y, _, _, quotients = _dense_matrices(_orbifold_demo_config(),
                                           period=TWO_PI)
    bounds = [_eccentricity_bound(d_x, d_y) for _, d_x in quotients]
    assert bounds == sorted(bounds)
    assert bounds[-1] > 0.6


@pytest.mark.parametrize("p_values, x_elements", [
    ([2, 4, 8], 8), ([3, 4], 7), ([4, 4], 4), ([8, 4], 12)])
def test_collapse_chain_visits_each_group_element_once(monkeypatch, p_values,
                                                       x_elements):
    """Along a chain p | p' the quotient table folds in only the new group
    elements; a p that the previous one does not divide starts over.  A
    quotient-side lookup takes a block of group elements, one column table
    (elements, 1, 1, theta offsets) each, so the elements are counted
    through its columns.  The limit side takes one lookup per field of
    (theta offset, s offset) columns, four in all."""
    limit, elements = [], []
    lookup = gh_collapse.SurfaceDistanceField.lookup

    def counted(self, src_slot, rho_row, column):
        if np.ndim(column) == 4:
            elements.append(np.shape(column)[0])
        else:
            limit.append(np.ndim(column))
        return lookup(self, src_slot, rho_row, column)

    monkeypatch.setattr(gh_collapse.SurfaceDistanceField, "lookup", counted)
    cfg = dict(SMALL_CONFIG, p_values=p_values,
               grid={"n_rho": 16, "n_theta": 16, "n_s": 8},
               sample={"n_rho": 3, "n_theta": 3, "n_s": 2})
    collapse_experiment(CollapseConfig.from_json(cfg))
    assert sum(elements) == x_elements
    assert limit == [2] * 4


def _per_element_rows(config):
    """collapse_experiment with its quotient side folded one group element
    at a time, the loop as it was before the blocked fold, as a reference:
    (p, distortion, gh_upper_bound, grid_floor_estimate) for each p."""
    unique = gh_collapse._unique
    base = metric_from_warp(config.surface, config.rho_max)
    limit = quotient_transform(base, config.r, config.m1 / config.m2)
    g, smp = config.grid, config.sample
    m1, m2 = config.m1, config.m2
    rho_rows = _subgrid_indices(int(base.capped_at_origin), g.n_rho - 1,
                                smp.n_rho)
    th_idx = (np.arange(smp.n_theta) * g.n_theta) // smp.n_theta
    s_idx = (np.arange(smp.n_s) * g.n_s) // smp.n_s
    dth = unique((th_idx[None, :] - th_idx[:, None]) % g.n_theta)
    ds = unique(s_idx[None, :] - s_idx[:, None])
    chains = [[]]
    for p in config.p_values:
        if chains[-1] and p % chains[-1][-1]:
            chains.append([])
        chains[-1].append(p)
    ring_y = math.lcm(g.n_theta, m2 * g.n_s // math.gcd(m1, m2 * g.n_s))
    rings_x = [math.lcm(g.n_theta, c[-1] // math.gcd(m1, c[-1]))
               for c in chains]
    surfaces = gh_collapse._GridSurfaces(g.n_rho, rho_rows, ring_y, rings_x)
    orbits = m2 // math.gcd(m1, m2)
    neg_th = np.searchsorted(dth, -dth % g.n_theta)
    neg_s = ds.size - 1 - np.arange(ds.size)
    slots = np.arange(rho_rows.size)
    slot_a = slots[:, None, None, None]
    slot_b = slots[None, :, None, None]
    step_y = m1 * ring_y // (m2 * g.n_s) % ring_y
    col_y = ((dth[:, None] * (ring_y // g.n_theta) - step_y * ds) * orbits
             % ring_y)
    s_x = (TWO_PI * ds / g.n_s).reshape(1, 1, 1, -1)

    def symmetrised(table):
        twin = table.transpose(1, 0, 2, 3)[:, :, neg_th][:, :, :, neg_s]
        return 0.5 * (table + twin)

    d_y, *refs = (fld.lookup(slot_a, slot_b, col_y) for fld in
                  surfaces.fields(limit, TWO_PI / orbits, ring_y, True))
    floor = max(float(np.max(np.abs(d_y - ref))) for ref in refs)
    sym_y = symmetrised(d_y)
    rows = []
    for chain, ring_x in zip(chains, rings_x):
        fld_x, = surfaces.fields(base, TWO_PI, ring_x)
        col_x = dth[:, None] * (ring_x // g.n_theta)
        sq_x, prev = math.inf, 0
        for p in chain:
            for k in range(p):
                if prev and k % (p // prev) == 0:
                    continue            # visited by the previous p
                dp = fld_x.lookup(slot_a, slot_b,
                                  col_x + m1 * k * ring_x // p % ring_x)
                dc = circle_distance(0.0, s_x + TWO_PI * (m2 * k % p) / p,
                                     config.r)
                sq_x = np.minimum(sq_x, dp * dp + dc * dc)
            prev = p
            dist = float(np.max(np.abs(symmetrised(np.sqrt(sq_x)) - sym_y)))
            rows.append((p, dist, 0.5 * dist, floor))
    return rows


@pytest.mark.parametrize("p_values, new", [
    ([2, 4, 8], [2, 2, 4]), ([3, 4], [3, 4]), ([4, 4], [4, 0]),
    ([8, 4], [8, 4])], ids=["2-4-8", "3-4", "4-4", "8-4"])
@pytest.mark.parametrize("m1, m2", [(1, 1), (1, 2), (3, 2), (0, 1)])
def test_blocked_fold_equals_per_element_fold(monkeypatch, m1, m2,
                                              p_values, new):
    """The quotient side folds each p's new group elements in blocks of
    _SCRATCH_LABELS // (S^2 D_theta), one lookup a block: the rows are
    those of the per-element fold to the last bit, with blocks of one
    element, of three (which divides none of the new-element counts 2, 4
    and 8), and of the default size, which takes each p's new elements at
    once.  The sample (3 rho rows, 4 of 16 theta columns) has S^2 D_theta
    = 36."""
    cfg = dict(SMALL_CONFIG, m1=m1, m2=m2, p_values=p_values,
               grid={"n_rho": 16, "n_theta": 16, "n_s": 8},
               sample={"n_rho": 3, "n_theta": 4, "n_s": 2})
    config = CollapseConfig.from_json(cfg)
    want = [tuple(float(v).hex() for v in row)
            for row in _per_element_rows(config)]
    lookup = gh_collapse.SurfaceDistanceField.lookup
    for scratch, block in ((1, 1), (3 * 36, 3), (None, max(new))):
        if scratch is not None:
            monkeypatch.setattr(gh_collapse, "_SCRATCH_LABELS", scratch)
        blocks = []

        def spy(self, src_slot, rho_row, column):
            if np.ndim(column) == 4:
                blocks.append(np.shape(column)[0])
            return lookup(self, src_slot, rho_row, column)

        monkeypatch.setattr(gh_collapse.SurfaceDistanceField, "lookup", spy)
        got = [tuple(float(v).hex() for v in (r.p, r.distortion,
                                              r.gh_upper_bound,
                                              r.grid_floor_estimate))
               for r in collapse_experiment(config)]
        assert got == want
        assert blocks == [min(block, n - a) for n in new
                          for a in range(0, n, block)]
        monkeypatch.undo()


@pytest.mark.parametrize("ring, largest", [(48, "proportional"),
                                           (128, "chain")])
def test_grid_surfaces_buffer_is_its_largest_single_solve(monkeypatch, ring,
                                                          largest):
    """The label buffer of _GridSurfaces holds the largest table of its
    solves, no more: the limit field, its angular, radial and proportional
    refinement, and each ring's field, one graph a solve.  On 16 rows with
    the floor ring 24, the proportional refinement (31 rows, 25 + 2
    columns) outweighs a quotient ring of 48 (16 rows, 25 + 2 columns),
    and a ring of 128 (16 rows, 65 + 2 columns) outweighs it."""
    tables = {}
    solve = gh_collapse._distance_field
    names = ("limit", "angular", "radial", "proportional", "chain")

    def spy(graph, rows, labels=None):
        tables[names[len(tables)]] = (len(rows) * graph.n_rho
                                      * (graph.n_theta // 2 + 3))
        return solve(graph, rows, labels)

    monkeypatch.setattr(gh_collapse, "_distance_field", spy)
    metric = metric_from_warp(SinhWarp(1.0), 1.2)
    rows = np.array([1, 6, 15])
    surfaces = gh_collapse._GridSurfaces(16, rows, 24, [ring])
    surfaces.fields(metric, TWO_PI, 24, refine=True)
    surfaces.fields(metric, TWO_PI, ring)
    assert tables == {"limit": 3 * 16 * (12 + 3),
                      "angular": 3 * 16 * (24 + 3),
                      "radial": 3 * 31 * (12 + 3),
                      "proportional": 3 * 31 * (24 + 3),
                      "chain": 3 * 16 * (ring // 2 + 3)}
    assert surfaces.labels.size == max(tables.values()) == tables[largest]


def test_collapse_common_factor_of_slopes_reduces_group():
    """On the demo config, slopes (2, 2) make Z_p act through Z_(p / 2)
    with slopes (1, 1): the group element k advances theta and s by
    2 pi (2 k mod p) / p.  So (2, 2) at p = 4, 16, 64 gives the rows of
    (1, 1) at p = 2, 8, 32 to the last bit, floor included, and so do
    (2, 4) and (1, 2), whose limits are the same orbifold, theta taken
    mod pi."""
    cfg = json.loads((Path(__file__).resolve().parents[1] / "demos"
                      / "configs" / "collapse.json").read_text())

    def rows(m1, m2, p_values):
        config = CollapseConfig.from_json(dict(cfg, m1=m1, m2=m2,
                                               p_values=p_values))
        return [(r.distortion.hex(), r.gh_upper_bound.hex(),
                 r.grid_floor_estimate.hex())
                for r in collapse_experiment(config)]

    assert rows(2, 2, [4, 16, 64]) == rows(1, 1, [2, 8, 32])
    assert rows(2, 4, [4, 16, 64]) == rows(1, 2, [2, 8, 32])


def test_collapse_row_depends_only_on_its_chain():
    """p = 3 starts a chain of its own, on its own ring, so it leaves the
    rows of the chain 4 | 8 as they are without it."""
    cfg = dict(SMALL_CONFIG, rho_max=2.0,
               grid={"n_rho": 48, "n_theta": 32, "n_s": 32},
               sample={"n_rho": 6, "n_theta": 6, "n_s": 4})
    alone = collapse_experiment(CollapseConfig.from_json(
        dict(cfg, p_values=[4, 8])))
    after_3 = collapse_experiment(CollapseConfig.from_json(
        dict(cfg, p_values=[3, 4, 8])))
    assert [r.p for r in after_3] == [3, 4, 8]
    assert after_3[1:] == alone


def test_collapse_experiment_checks_raw_table_symmetry(monkeypatch):
    """The metric check sees the tables before they are averaged: a lookup
    skewed by 1e-6 sin(2 pi j / n_theta) keeps the diagonal at 0 but
    differs between the columns j and -j of partner classes, an asymmetry
    that the average would hide."""
    lookup = gh_collapse.SurfaceDistanceField.lookup

    def skewed(self, src_slot, rho_row, column):
        return (lookup(self, src_slot, rho_row, column)
                + 1e-6 * np.sin(TWO_PI * column / self.n_theta))

    monkeypatch.setattr(gh_collapse.SurfaceDistanceField, "lookup", skewed)
    cfg = dict(SMALL_CONFIG, p_values=[2],
               grid={"n_rho": 16, "n_theta": 16, "n_s": 8},
               sample={"n_rho": 3, "n_theta": 3, "n_s": 2})
    with pytest.raises(DomainError, match="symmetric"):
        collapse_experiment(CollapseConfig.from_json(cfg))


def test_collapse_experiment_memory_below_one_dense_matrix():
    # 16 x 16 x 8 = 2048 sample points: one n_pts x n_pts float64 matrix
    # alone would take 32 MiB
    cfg = dict(SMALL_CONFIG, p_values=[2, 4, 8],
               grid={"n_rho": 32, "n_theta": 32, "n_s": 16},
               sample={"n_rho": 16, "n_theta": 16, "n_s": 8})
    config = CollapseConfig.from_json(cfg)
    n_pts = 16 * 16 * 8
    tracemalloc.start()
    try:
        rows = collapse_experiment(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == 3
    assert peak < n_pts * n_pts * 8


def test_collapse_solves_share_one_label_buffer(monkeypatch):
    """Every solve of a collapse run fills the same label buffer, sized for
    its largest table, so a process that solves again allocates no table of
    another size: the limit field, its angular, radial and proportional
    refinement, and one field for each of the chains 2 | 4 and 3 | 9."""
    buffers = []

    def spy(graph, rows, labels=None):
        buffers.append((labels,
                        len(rows) * graph.n_rho * (graph.n_theta // 2 + 3)))
        return solve(graph, rows, labels)

    solve = gh_collapse._distance_field
    monkeypatch.setattr(gh_collapse, "_distance_field", spy)
    collapse_experiment(CollapseConfig.from_json(
        dict(SMALL_CONFIG, p_values=[2, 4, 3, 9])))
    labels = buffers[0][0]
    assert len(buffers) == 6
    assert all(buf is labels for buf, _ in buffers)
    assert labels.dtype == np.float64
    assert labels.size == max(size for _, size in buffers)


def test_grid_surfaces_return_copies_of_the_label_buffer():
    """The tables of _GridSurfaces.fields are copied out of the label
    buffer by sample slot, so a later call, which refills the buffer,
    leaves them as they are.  Each is its solved field at the sample rows,
    counted in columns of the ring: an angular refinement keeps every
    other column."""
    metric = metric_from_warp(SinhWarp(1.0), 1.2)
    rows = np.array([1, 6, 15])
    surfaces = gh_collapse._GridSurfaces(16, rows, 24, [48])
    tables = surfaces.fields(metric, TWO_PI, 24, refine=True)
    kept = [fld.dist.copy() for fld in tables]
    assert [fld.n_theta for fld in tables] == [24] * 4
    assert not any(np.shares_memory(fld.dist, surfaces.labels)
                   for fld in tables)
    for fld, (n_rho, ring, rscale) in zip(
            tables, ((16, 24, 1), (16, 48, 1), (31, 24, 2), (31, 48, 2))):
        want = _distance_field(
            build_surface_graph(metric, n_rho, ring), rscale * rows)
        assert np.array_equal(fld.dist,
                              want.dist[rscale * rows, :, ::ring // 24])
    quotient, = surfaces.fields(metric_from_warp(SinhWarp(2.0), 1.2),
                                TWO_PI, 48)
    assert not np.shares_memory(quotient.dist, surfaces.labels)
    for fld, dist in zip(tables, kept):
        assert np.array_equal(fld.dist, dist)


def test_collapse_frees_the_label_buffer_before_any_lookup(monkeypatch):
    """A collapse run takes every field from its backend, the limit
    surface's with its refinements and one per chain, before the first
    lookup, and drops the backend there, so no class table is built next
    to the label buffer."""
    buffers, alive = [], []

    class Spy(gh_collapse._GridSurfaces):
        def __init__(self, *args):
            super().__init__(*args)
            buffers.append(weakref.ref(self.labels))

    lookup = gh_collapse.SurfaceDistanceField.lookup

    def spy(self, *args):
        alive.append(buffers[0]() is not None)
        return lookup(self, *args)

    monkeypatch.setattr(gh_collapse, "_GridSurfaces", Spy)
    monkeypatch.setattr(gh_collapse.SurfaceDistanceField, "lookup", spy)
    collapse_experiment(CollapseConfig.from_json(
        dict(SMALL_CONFIG, p_values=[2, 4, 3, 9])))
    assert len(buffers) == 1
    assert alive and not any(alive)


def test_collapse_slope_0_1_meets_fiber_bound():
    """With slopes (0, 1) the group turns the circle factor alone, so two
    points of the demo config's sample a quarter turn apart on one circle
    fiber are pi r / 2 apart in the quotient at p = 2 and meet in the
    limit: the distortion is the fiber bound pi r / p = pi / 2 to the last
    bit, with no grid error in it."""
    cfg = json.loads((Path(__file__).resolve().parents[1] / "demos"
                      / "configs" / "collapse.json").read_text())
    row, = collapse_experiment(CollapseConfig.from_json(
        dict(cfg, m1=0, m2=1, p_values=[2])))
    assert row.distortion.hex() == (math.pi / 2).hex()


def test_collapse_solve_peak_memory():
    """A run holds one label buffer, sized for its largest single solve,
    from its first solve to its last, and the solver's scratch block:
    every solve fills the head of the buffer, and the sweeps and the check
    allocate nothing else of the table's size.  The bound is the sweep's
    own: the float64 labels of the largest field with its two walls, the
    scratch block, the O(n_rho S) row and column buffers of the passes,
    and a slack for numpy's fixed-size ufunc buffers (the check's strided
    operands take about 128 KiB) and the small fields copied out of the
    buffer; the class tables are built only after the buffer is freed.
    It is below the bound of a solve that also held a scratch table of the
    strip's size, and a table that stacked the radial and the proportional
    refinement fails it."""
    cfg = dict(SMALL_CONFIG, p_values=[2, 4],
               grid={"n_rho": 96, "n_theta": 96, "n_s": 16},
               sample={"n_rho": 6, "n_theta": 6, "n_s": 4})
    config = CollapseConfig.from_json(cfg)
    collapse_experiment(config)                 # imports and caches
    tracemalloc.start()
    try:
        collapse_experiment(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the largest table is the proportional refinement alone, the radially
    # refined limit surface's field on ring 192, 191 rows from 6 source
    # rows: a half strip of 97 columns and its two walls
    n_rho, width, n_src = 191, 97, 6
    columns = width + 2
    table = 8 * n_rho * columns * n_src
    scratch = 8 * gh_collapse._SCRATCH_LABELS
    # ring and diag repeated across the sources, a theta pass's column and
    # step, a rho pass's row and step
    buffers = 8 * n_src * (4 * n_rho + 2 * columns)
    slack = 256 * 1024
    bound = table + scratch + buffers + slack
    assert scratch + buffers + slack < table
    # the bound of a solve of the largest field alone that kept a scratch
    # table of its strip's size: labels of the strip and its two pads,
    # the scratch, and its buffers
    alone = (8 * n_rho * n_src * ((width + 2) + width)
             + 8 * n_src * (4 * n_rho + width) + slack)
    assert bound < alone
    # the radial pair stacked, half strips of 49 and 97 columns and three
    # walls, and the scratch block alone exceed the bound
    assert 8 * n_rho * (1 + 50 + 98) * n_src + scratch > bound
    assert peak < bound


@pytest.mark.parametrize("sizes", [
    [(n, n_grid) for n_grid in range(1, 80) for n in range(1, n_grid + 1)],
    [(10, 96), (999, 1000), (1000, 4096)],
], ids=["all-below-80", "large"])
def test_index_offsets_equal_the_difference_table(sizes):
    """The O(n) offsets are the entries of the n x n table of differences
    of the sample's grid indices floor(k n_grid / n), signed and mod
    n_grid."""
    for n, n_grid in sizes:
        idx = (np.arange(n) * n_grid) // n
        table = idx[None, :] - idx[:, None]
        offsets = _index_offsets(n, n_grid)
        assert np.array_equal(offsets, np.unique(table)), (n, n_grid)
        assert np.array_equal(np.unique(offsets % n_grid),
                              np.unique(table % n_grid)), (n, n_grid)


def test_collapse_offset_classes_peak_memory():
    """The offset classes come from the sample sizes in O(n): a run that
    samples all 4000 columns of a 4000-column grid peaks below 64 MiB,
    where one int64 4000 x 4000 difference table alone is 122 MiB."""
    cfg = json.loads((Path(__file__).resolve().parents[1] / "demos"
                      / "configs" / "collapse.json").read_text())
    cfg.update(p_values=[2, 4, 8, 16],
               grid=dict(cfg["grid"], n_theta=4000),
               sample=dict(cfg["sample"], n_theta=4000))
    config = CollapseConfig.from_json(cfg)
    tracemalloc.start()
    try:
        rows = collapse_experiment(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == 4
    assert peak < 64 * 2 ** 20


def test_collapse_class_cap_refuses_before_any_offset_table():
    """A sample of 20000 columns is refused by the class-table cap after
    O(n) work, a few int64 arrays of n entries, before any n x n array
    exists (3 GiB of int64)."""
    cfg = dict(SMALL_CONFIG, grid=dict(SMALL_CONFIG["grid"], n_theta=20000),
               sample=dict(SMALL_CONFIG["sample"], n_theta=20000))
    config = CollapseConfig.from_json(cfg)
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="class table of"):
            collapse_experiment(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_collapse_config_validation():
    with pytest.raises(ConfigError):
        CollapseConfig.from_json("not a dict")
    with pytest.raises(ConfigError, match="missing keys"):
        CollapseConfig.from_json({"surface": {"family": "sinh", "a": 1.0}})
    bad = dict(SMALL_CONFIG, rho_max="wide")
    with pytest.raises(ConfigError):
        CollapseConfig.from_json(bad)
    bad = dict(SMALL_CONFIG, grid=[1, 2, 3])
    with pytest.raises(ConfigError):
        CollapseConfig.from_json(bad)
    bad = dict(SMALL_CONFIG, sample={"n_rho": 50, "n_theta": 5, "n_s": 4})
    with pytest.raises(DomainError):
        CollapseConfig.from_json(bad)
    bad = dict(SMALL_CONFIG, p_values=[])
    with pytest.raises(ConfigError, match="non-empty list of integers"):
        CollapseConfig.from_json(bad)
    config = CollapseConfig.from_json(SMALL_CONFIG)
    with pytest.raises(DomainError, match="non-empty"):
        CollapseConfig(**dict(vars(config), p_values=()))
    for change, message in ((dict(r=0.0), "r > 0"), (dict(r=-1.0), "r > 0"),
                            (dict(m1=-1), "m1 >= 0"), (dict(m2=0), "m2 >= 1"),
                            (dict(p_values=(2, 0)), "positive")):
        with pytest.raises(DomainError, match=message):
            CollapseConfig(**dict(vars(config), **change))
