"""Tests for the graph discretization and the measured-collapse pipeline."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from collapse_lab import (
    CollapseConfig,
    Correspondence,
    FiniteMetricSpace,
    QuotientSpec,
    SinWarp,
    SinhWarp,
    ConstWarp,
    LinearWarp,
    TransformParams,
    WarpCurve,
    build_surface_graph,
    circle_distance,
    collapse_experiment,
    distance_field,
    distortion,
    metric_from_warp,
    natural_correspondence,
    product_distance,
    quotient_distance,
    quotient_transform,
    surface_distances,
)
from collapse_lab import gh_collapse
from collapse_lab.errors import ConfigError, ConnectivityError, DomainError
from collapse_lab.gh_collapse import (
    MAX_CLASS_ENTRIES,
    MAX_FIELD_LABELS,
    MAX_GRAPH_NODES,
    _subgrid_indices,
    SurfaceGraph,
)

TWO_PI = 2.0 * math.pi


def _column(angle, n_theta):
    """Node columns of angles that lie on the nodes of an n_theta ring, to
    within 1e-9 of a column."""
    x = np.asarray(angle, dtype=float) * n_theta / TWO_PI
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
    m = metric_from_warp(SinhWarp(1.0), 1.0)
    assert m.capped_at_origin
    g = build_surface_graph(m, 9, 12)
    assert g.pole
    assert g.n_rho == 9
    assert g.n_nodes == 1 + 8 * 12
    # the whole first row is the single pole node
    for j in (0, 3, 11, 12):
        assert g.node_index(0, j) == 0
    assert g.node_index(1, 0) == 1
    assert g.node_index(1, 12) == 1          # theta wraps
    assert g.node_index(2, 5) == 1 + 12 + 5


def test_graph_node_layout_without_pole():
    m = metric_from_warp(ConstWarp(1.0), 1.0)
    assert not m.capped_at_origin
    g = build_surface_graph(m, 8, 10)
    assert not g.pole
    assert g.n_nodes == 80
    assert g.node_index(0, 0) == 0
    assert g.node_index(3, 9) == 39
    assert g.node_index(3, 10) == 30
    idx = g.node_index(np.array([0, 1]), np.array([2, 3]))
    assert idx.tolist() == [2, 13]


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
    bit, from every node of the full graph (surface_distances) and from
    every row of the half strip (distance_field)."""
    metric = metric_from_warp(warp, rho_max)
    g = build_surface_graph(metric, n_rho, n_theta)
    ref = _coo_reference_csr(metric, n_rho, n_theta, half)
    if half:
        ids = _strip_ids(g)
        want = dijkstra(ref, indices=ids[:, 0])[:, ids]
        got = distance_field(g, np.arange(n_rho)).dist.transpose(1, 0, 2)
    else:
        want = dijkstra(ref, indices=np.arange(g.n_nodes))
        got = surface_distances(g, np.arange(g.n_nodes))
    assert got.shape == want.shape and np.array_equal(got, want)


def _strip_ids(g):
    """Node ids of the half-strip reference graph by (row, column 0 ..
    n_theta // 2); a pole row repeats the pole's id."""
    width = g.n_theta // 2 + 1
    first = int(g.pole)
    ids = first + (np.arange(g.n_rho)[:, None] - first) * width + np.arange(
        width)
    if g.pole:
        ids[0] = 0
    return ids


def test_graph_size_cap():
    metric = metric_from_warp(ConstWarp(1.0), 1.0)
    n_rho = MAX_GRAPH_NODES // 64 + 1
    # refused before anything of the graph's size is allocated
    with pytest.raises(DomainError, match="MAX_GRAPH_NODES"):
        build_surface_graph(metric, n_rho, 64)
    # the cap counts the nodes of the full ring
    with pytest.raises(DomainError, match=f"{n_rho * 126} nodes"):
        build_surface_graph(metric, n_rho, 126)


@pytest.mark.parametrize("warp, rho_max", [(SinhWarp(1.0), 1.2),
                                           (ConstWarp(1.5), 1.0)],
                         ids=["pole", "no-pole"])
@pytest.mark.parametrize("n_theta", [8, 9, 12, 13, 25])
def test_half_graph_is_induced_subgraph(warp, rho_max, n_theta):
    """The half strip the solver relaxes is the full reference graph
    restricted to columns 0 .. n_theta // 2: distance_field equals Dijkstra
    on that induced subgraph, sliced out of the full CSR."""
    metric = metric_from_warp(warp, rho_max)
    g = build_surface_graph(metric, 10, n_theta)
    # full-graph ids of the strip in row-major order; a pole graph's row 0
    # repeats the pole id, kept once
    ids = g.node_index(np.arange(10)[:, None], np.arange(n_theta // 2 + 1))
    keep = ids.ravel()[g.pole * (n_theta // 2):]
    full = _coo_reference_csr(metric, 10, n_theta, half=False)
    strip = _strip_ids(g)
    want = dijkstra(full[keep][:, keep], indices=strip[:, 0])[:, strip]
    got = distance_field(g, np.arange(10)).dist
    assert np.array_equal(got.transpose(1, 0, 2), want)


@pytest.mark.parametrize("warp", [ConstWarp(1.0), SinhWarp(1.0)])
def test_half_graph_node_index_folds(warp):
    """The field's half-strip table serves every column of the full graph
    through the mirror column min(j, n_theta - j), at any integer j, and
    lookup is that gather."""
    metric = metric_from_warp(warp, 1.0)
    g = build_surface_graph(metric, 9, 13)
    fld = distance_field(g, [0, 4, 8])
    assert fld.dist.shape == (9, 3, 7)
    full = dijkstra(_coo_reference_csr(metric, 9, 13, half=False),
                    indices=g.node_index([0, 4, 8], 0))
    i = np.arange(9)[:, None]
    j = np.arange(-13, 26)[None, :]
    mirror = np.minimum(j % 13, 13 - j % 13)
    for k in range(3):
        assert np.array_equal(fld.dist[i, k, mirror],
                              full[k, g.node_index(i, j)])
        assert np.array_equal(fld.lookup(k, i, j),
                              full[k, g.node_index(i, j)])


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
        got = distance_field(g, np.arange(n_rho)).dist
        assert checks[0] and not checks[-1]
        ids = _strip_ids(g)
        ref = _coo_reference_csr(metric, n_rho, n_theta, half=True)
        want = dijkstra(ref, indices=ids[:, 0])[:, ids]
        assert np.array_equal(got.transpose(1, 0, 2), want)


@pytest.mark.parametrize("kind, row", [("ring", 4), ("rad", 0), ("rad", 8),
                                       ("diag", 0), ("diag", 8),
                                       ("spoke", 1)])
def test_relaxation_check_sees_every_edge_group(kind, row):
    """The convergence check relaxes every group of edges: on a graph whose
    only edges are of one kind, the labels of a lone source (0 there, inf
    elsewhere) are refused, whichever way the source's row reaches the
    rest."""
    weights = {name: np.full(9, math.inf) for name in ("ring", "rad", "diag")}
    weights["rad" if kind == "spoke" else kind][1:] = 1.0
    g = SurfaceGraph(rho_values=np.arange(9.0), n_theta=8,
                     pole=kind == "spoke", **weights)
    d = np.full((9, 1, 7), math.inf)
    d[row, 0, 1] = 0.0
    assert gh_collapse._relaxation_lowers(g, d, np.empty((9, 1, 5)))


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
    ids = _strip_ids(g)
    half = _edge_list_csr(ring_w, rad_w, diag_w, spoke, n_theta, True)
    want = dijkstra(half, indices=ids[:, 0])[:, ids]
    assert np.array_equal(distance_field(g, rows).dist.transpose(1, 0, 2),
                          want)
    full = _edge_list_csr(ring_w, rad_w, diag_w, spoke, n_theta, False)
    assert np.array_equal(surface_distances(g, np.arange(g.n_nodes)),
                          dijkstra(full, indices=np.arange(g.n_nodes)))


def test_distance_field_checks_sources_and_size():
    g = build_surface_graph(metric_from_warp(ConstWarp(1.0), 1.0), 8, 12)
    for rows in ([8], [-1]):
        with pytest.raises(DomainError, match="source rows"):
            distance_field(g, rows)
    with pytest.raises(DomainError, match="source nodes"):
        surface_distances(g, g.n_nodes)
    # a graph at the node cap: four sources on its half strip are refused
    # before the label table is allocated
    big = build_surface_graph(metric_from_warp(ConstWarp(1.0), 1.0),
                              2048, 2048)
    assert big.n_nodes == MAX_GRAPH_NODES
    assert 4 * 2048 * 1025 > MAX_FIELD_LABELS
    with pytest.raises(DomainError, match="MAX_FIELD_LABELS"):
        distance_field(big, [0, 1, 2, 3])


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
    d = surface_distances(g, g.node_index(0, 0))
    assert abs(d[0, g.node_index(8, 0)] - 1.0) <= 1e-12


def test_flat_cylinder_half_circumference():
    # opposite points on one boundary ring: the ring path is optimal and
    # the graph carries it without any 8-neighbor direction error
    m = metric_from_warp(ConstWarp(1.0), 1.0)
    g = build_surface_graph(m, 9, 16)
    d = surface_distances(g, g.node_index(0, 0))
    assert abs(d[0, g.node_index(0, 8)] - math.pi) <= 1e-12


def test_sphere_meridian_distance():
    m = metric_from_warp(SinWarp(1.0), math.pi - 0.3, rho_min=0.3)
    g = build_surface_graph(m, 29, 16)
    d = surface_distances(g, g.node_index(0, 0))
    want = math.pi - 0.6
    assert abs(d[0, g.node_index(28, 0)] - want) <= 1e-12


def test_pole_to_rim_distance():
    m = metric_from_warp(SinhWarp(1.0), 1.0)
    g = build_surface_graph(m, 17, 16)
    d = surface_distances(g, 0)
    rim = [g.node_index(16, j) for j in range(16)]
    for node in rim:
        assert abs(d[0, node] - 1.0) <= 1e-12


def test_diagonal_distance_overshoot_bounded():
    # near-square cells keep the 8-direction metrication error below the
    # octile worst case of about 8.2 percent
    m = metric_from_warp(ConstWarp(1.0), 1.0)
    n_rho, n_theta = 17, 101
    g = build_surface_graph(m, n_rho, n_theta)
    d = surface_distances(g, g.node_index(0, 0))
    val = d[0, g.node_index(16, 16)]
    true = math.hypot(1.0, 16 * TWO_PI / n_theta)
    assert val >= true - 1e-12
    assert val <= 1.09 * true


def test_surface_distances_symmetry():
    m = metric_from_warp(SinhWarp(1.0), 1.0)
    g = build_surface_graph(m, 9, 8)
    d = surface_distances(g, np.arange(g.n_nodes))
    assert np.max(np.abs(d - d.T)) <= 1e-12
    assert np.max(np.abs(np.diag(d))) == 0.0


def test_surface_distances_disconnected_graph():
    # hand-built graph whose rows 0-3 and 4-8 share no edge
    cut = np.full(9, 0.1)
    cut[[0, 4]] = math.inf
    g = SurfaceGraph(rho_values=np.linspace(0.0, 1.0, 9), n_theta=8,
                     pole=False, ring=np.ones(9), rad=cut, diag=cut.copy())
    with pytest.raises(ConnectivityError):
        surface_distances(g, 0)
    with pytest.raises(ConnectivityError):
        distance_field(g, [0, 8])


# ---------------------------------------------------------------------------
# distance fields
# ---------------------------------------------------------------------------

def test_distance_field_matches_node_distances():
    m = metric_from_warp(SinhWarp(1.0), 1.2)
    g = build_surface_graph(m, 9, 12)
    fld = distance_field(g, [1, 5])
    d = surface_distances(g, [g.node_index(1, 0), g.node_index(5, 0)])
    for slot in (0, 1):
        for i in range(1, 9):
            for j in range(12):
                want = d[slot, g.node_index(i, j)]
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
    sources = g.node_index(rows, 0)
    d = surface_distances(g, sources)
    nodes = g.node_index(np.arange(10)[:, None], np.arange(n_theta)[None, :])
    fld = distance_field(g, rows)
    # the stored table is the full field at the strip nodes (a pole graph's
    # row 0 repeats the pole in every column)
    strip = nodes[:, :n_theta // 2 + 1]
    assert np.array_equal(fld.dist, d[:, strip].transpose(1, 0, 2))
    # both equal scipy's undirected Dijkstra on the edge-list reference
    ref = _coo_reference_csr(metric, 10, n_theta, half=False)
    assert np.array_equal(d, dijkstra(ref, directed=False, indices=sources))


# ---------------------------------------------------------------------------
# finite metric spaces
# ---------------------------------------------------------------------------

def test_finite_metric_space_validation():
    with pytest.raises(DomainError):
        FiniteMetricSpace(labels=[0, 1], d=np.zeros((3, 3)))
    with pytest.raises(DomainError):
        FiniteMetricSpace(labels=[0, 1], d=np.array([[0.1, 1], [1, 0]]))
    with pytest.raises(DomainError):
        FiniteMetricSpace(labels=[0, 1], d=np.array([[0, 1], [2, 0]]))
    with pytest.raises(DomainError):
        FiniteMetricSpace(labels=[0, 1], d=np.array([[0, -1], [-1, 0]]))


def test_triangle_defect_reports_violation():
    bad = FiniteMetricSpace(labels=list(range(3)),
                            d=np.array([[0.0, 1.0, 3.0],
                                        [1.0, 0.0, 1.0],
                                        [3.0, 1.0, 0.0]]))
    assert bad.triangle_defect() == pytest.approx(1.0, abs=1e-15)
    good = FiniteMetricSpace(labels=list(range(3)),
                             d=np.array([[0.0, 1.0, 2.0],
                                         [1.0, 0.0, 1.0],
                                         [2.0, 1.0, 0.0]]))
    assert good.triangle_defect() <= 0.0


def test_graph_distance_matrix_is_metric():
    m = metric_from_warp(SinhWarp(1.0), 1.0)
    g = build_surface_graph(m, 9, 10)
    d = surface_distances(g, np.arange(g.n_nodes))
    space = FiniteMetricSpace(labels=list(range(g.n_nodes)), d=d)
    assert space.triangle_defect() <= 1e-12


# ---------------------------------------------------------------------------
# quotient distances
# ---------------------------------------------------------------------------

def test_quotient_spec_validation():
    with pytest.raises(DomainError):
        QuotientSpec(r=0.0, m1=1, m2=1)
    with pytest.raises(DomainError):
        QuotientSpec(r=1.0, m1=-1, m2=1)
    with pytest.raises(DomainError):
        QuotientSpec(r=1.0, m1=1, m2=0)
    with pytest.raises(DomainError):
        QuotientSpec(r=1.0, m1=1, m2=1, p=0)
    spec = QuotientSpec(r=2.0, m1=3, m2=2, p=4)
    assert spec.kappa == pytest.approx(1.5)
    angles = spec.group_angles()
    assert np.allclose(angles, [0.0, math.pi / 2, math.pi, 3 * math.pi / 2])


def test_circle_distance_wraparound():
    assert circle_distance(0.0, 3 * math.pi / 2, 1.0) == pytest.approx(
        math.pi / 2, rel=1e-15)
    assert circle_distance(0.0, math.pi, 2.0) == pytest.approx(
        2.0 * math.pi, rel=1e-15)
    vals = circle_distance(0.0, np.array([0.1, TWO_PI - 0.1]), 1.0)
    assert np.allclose(vals, [0.1, 0.1], atol=1e-14)


def test_product_distance_pythagorean():
    assert product_distance(3.0, 4.0) == pytest.approx(5.0, rel=1e-15)
    assert product_distance(0.0, 2.0) == 2.0


def _cylinder_lookup(n_theta=16):
    m = metric_from_warp(ConstWarp(1.0), 1.0)
    g = build_surface_graph(m, 9, n_theta)
    fld = distance_field(g, [0, 4, 8])
    slot = {0: 0, 4: 1, 8: 2}

    def dp_lookup(pa, pb, rot):
        return fld.lookup(slot[pa[0]], pb[0],
                          _column((pb[1] + rot) - pa[1], n_theta))

    return dp_lookup


def test_quotient_distance_trivial_group_is_product():
    dp_lookup = _cylinder_lookup()
    spec = QuotientSpec(r=1.0, m1=1, m2=1, p=1)
    a = ((0, 0.0), 0.0)
    b = ((8, math.pi / 4), 1.0)
    want = product_distance(dp_lookup((0, 0.0), (8, math.pi / 4), 0.0),
                            circle_distance(0.0, 1.0, 1.0))
    assert quotient_distance(spec, a, b, dp_lookup) == pytest.approx(
        want, rel=1e-15)


def test_quotient_distance_same_orbit_vanishes():
    dp_lookup = _cylinder_lookup()
    spec = QuotientSpec(r=1.0, m1=1, m2=1, p=4)
    a = ((4, 0.0), 0.0)
    # a translated by the group element tau = pi/2
    b = ((4, math.pi / 2), math.pi / 2)
    assert quotient_distance(spec, a, b, dp_lookup) <= 1e-12


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
            d_p = quotient_distance(
                QuotientSpec(r=1.0, m1=1, m2=1, p=p),
                a, b, dp_lookup)
            d_2p = quotient_distance(
                QuotientSpec(r=1.0, m1=1, m2=1, p=2 * p),
                a, b, dp_lookup)
            assert d_2p <= d_p + 1e-14


def test_torus_quotient_matches_circle_radius():
    # full-circle quotient of S^1(1) x S^1(1) along the diagonal is a circle
    # of radius 1/sqrt(2); on one flat boundary ring the graph distance is
    # exact, so pairs on a 512-column ring, aligned with Z_512, must match
    # to rounding
    dp_lookup = _cylinder_lookup(n_theta=512)
    spec = QuotientSpec(r=1.0, m1=1, m2=1, p=512)
    for k in (8, 32, 100, 256):
        dth = TWO_PI * k / 512
        got = quotient_distance(spec, ((0, 0.0), 0.0), ((0, dth), 0.0),
                                dp_lookup)
        want = min(dth, TWO_PI - dth) / math.sqrt(2.0)
        assert abs(got - want) <= 1e-12


def test_quotient_distance_group_size_cap():
    """A group of more than MAX_CLASS_ENTRIES elements is refused before
    its angles are made."""
    dp_lookup = _cylinder_lookup()
    a, b = ((0, 0.0), 0.0), ((8, 1.0), 1.0)
    for spec in (QuotientSpec(r=1.0, m1=1, m2=1, p=10 ** 12),
                 QuotientSpec(r=1.0, m1=1, m2=1, p=MAX_CLASS_ENTRIES + 1)):
        with pytest.raises(DomainError, match="MAX_CLASS_ENTRIES"):
            quotient_distance(spec, a, b, dp_lookup)


# ---------------------------------------------------------------------------
# correspondences and distortion
# ---------------------------------------------------------------------------

def test_natural_correspondence_zero_slice_is_identity():
    spec = QuotientSpec(r=1.0, m1=1, m2=1, p=4)
    pts = [(0.5, 0.0, 0.0), (0.5, 1.0, 0.0), (1.0, 2.0, 0.0)]
    corr, limit_points = natural_correspondence(pts, spec)
    assert limit_points == [(0.5, 0.0), (0.5, 1.0), (1.0, 2.0)]
    assert corr.left.tolist() == [0, 1, 2]
    assert corr.right.tolist() == [0, 1, 2]


def test_natural_correspondence_collapses_orbits():
    # with kappa = 1 the points (rho, theta, s) and (rho, theta + tau,
    # s + tau) project to the same limit point; exact binary angles keep
    # the dedup keys identical
    spec = QuotientSpec(r=1.0, m1=1, m2=1, p=4)
    tau = math.pi / 2
    pts = [(0.5, 0.25, 0.125), (0.5, 0.25 + tau, 0.125 + tau)]
    corr, limit_points = natural_correspondence(pts, spec)
    assert len(limit_points) == 1
    assert corr.right.tolist() == [0, 0]
    assert limit_points[0][1] == pytest.approx(0.125, abs=1e-15)


def test_natural_correspondence_wraps_to_zero():
    spec = QuotientSpec(r=1.0, m1=2, m2=1, p=2)
    # theta - kappa s = 2 pi exactly, which must land on 0, not 2 pi
    pts = [(0.5, 0.0, 0.0), (0.5, math.pi, math.pi / 2 * 3)]
    corr, limit_points = natural_correspondence(pts, spec)
    assert len(limit_points) == 1


def test_correspondence_validation():
    with pytest.raises(DomainError):
        Correspondence(np.array([0, 1]), np.array([0]))
    corr = Correspondence(np.array([0, 1, 1]), np.array([0, 0, 1]))
    corr.validate(2, 2)
    with pytest.raises(DomainError):
        corr.validate(3, 2)
    with pytest.raises(DomainError):
        corr.validate(2, 3)


def test_distortion_reference_values():
    x = FiniteMetricSpace(labels=[0, 1], d=np.array([[0.0, 1.0], [1.0, 0.0]]))
    y = FiniteMetricSpace(labels=[0, 1], d=np.array([[0.0, 2.0], [2.0, 0.0]]))
    ident = Correspondence(np.array([0, 1]), np.array([0, 1]))
    assert distortion(x, x, ident) == 0.0
    assert distortion(x, y, ident) == pytest.approx(1.0, rel=1e-15)
    swapped = Correspondence(np.array([0, 1]), np.array([1, 0]))
    assert distortion(x, y, swapped) == pytest.approx(1.0, rel=1e-15)


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
    fld = distance_field(g, rows)
    slot = {r: k for k, r in enumerate(rows)}

    def dp_lookup(pa, pb, rot):
        return fld.lookup(slot[pa[0]], pb[0],
                          _column((pb[1] + rot) - pa[1], 16))

    spec = QuotientSpec(r=1.0, m1=1, m2=1, p=4)
    pts = [((row, TWO_PI * j / 4), TWO_PI * k / 2)
           for row in rows for j in range(4) for k in range(2)]
    n = len(pts)
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = quotient_distance(spec, pts[i], pts[j],
                                                  dp_lookup)
    space = FiniteMetricSpace(labels=pts, d=d)
    assert space.triangle_defect() <= 1e-12


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
    limit = quotient_transform(base,
                               TransformParams.from_slope_pair(1, 1, 1.0))
    th = TWO_PI / 3

    def d_limit(n_rho, ring):
        g = build_surface_graph(limit, n_rho, ring)
        src = round(0.32 / (1.2 / (n_rho - 1)))
        fld = distance_field(g, [src])
        return float(fld.lookup(0, n_rho - 1, _column(th, ring)))

    def d_quot(n_rho, ring, spec):
        g = build_surface_graph(base, n_rho, ring)
        src = round(0.32 / (1.2 / (n_rho - 1)))
        fld = distance_field(g, [src])

        def dp_lookup(pa, pb, rot):
            return fld.lookup(0, pb[0], _column((pb[1] + rot) - pa[1], ring))

        return quotient_distance(spec, ((src, 0.0), 0.0),
                                 ((n_rho - 1, th), 0.0), dp_lookup)

    # Z_480 puts a group rotation on every node of the 480 ring
    spec_fine = QuotientSpec(r=1.0, m1=1, m2=1, p=480)
    refinements = ((31, 480), (16, 960), (31, 960))

    dy = d_limit(16, 480)
    budget_y = max(abs(d_limit(nr, nt) - dy) for nr, nt in refinements)

    dq = d_quot(16, 480, spec_fine)
    budget_x = max(abs(d_quot(nr, nt, spec_fine) - dq) for nr, nt in
                   refinements)

    # regression anchor for the deterministic pipeline
    assert dq == pytest.approx(1.4499769557326505, abs=1e-9)

    # budgets are real but not vacuous
    assert 0.0 < budget_y < 0.1
    assert 0.0 < budget_x < 0.1
    assert abs(dq - dy) <= budget_x + budget_y

    # a coarser cyclic group is nearly indistinguishable from it
    spec_zp = QuotientSpec(r=1.0, m1=1, m2=1, p=120)
    dz = d_quot(16, 480, spec_zp)
    assert abs(dz - dq) <= 1e-3


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


def _dense_reference(config):
    """The dense algorithm as a reference: one n_pts x n_pts quotient
    matrix per group element, natural_correspondence, and distortion over
    FiniteMetricSpace.  Same discretization as collapse_experiment: the
    limit surface on the ring that holds every slice angle, and one
    quotient-side field per divisibility chain, on the ring that holds
    every group rotation of the chain; the float angles of the points and
    rotations are snapped to those rings' nodes."""
    base = metric_from_warp(config.surface, config.rho_max)
    limit = quotient_transform(base, TransformParams.from_slope_pair(
        config.m1, config.m2, config.r))
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
    spec0 = QuotientSpec(r=config.r, m1=m1, m2=m2, p=p_values[0])
    corr, limit_points = natural_correspondence(points, spec0)
    slot_of_rho = {p_[0]: k for p_, k in zip(points, slot)}
    lim_slot = np.array([slot_of_rho[rho] for rho, _ in limit_points])
    lim_phi = np.array([phi for _, phi in limit_points])
    dphi = lim_phi[None, :] - lim_phi[:, None]

    def limit_matrix(n_rho, n_theta, scale):
        fld = distance_field(build_surface_graph(limit, n_rho, n_theta),
                             scale * rows)
        return fld.lookup(lim_slot[:, None], scale * rows[lim_slot][None, :],
                          _column(dphi, n_theta))

    d_y = limit_matrix(g.n_rho, ring_y, 1)
    floor = max(float(np.max(np.abs(d_y - limit_matrix(*ref))))
                for ref in ((2 * g.n_rho - 1, ring_y, 2),
                            (g.n_rho, 2 * ring_y, 1),
                            (2 * g.n_rho - 1, 2 * ring_y, 2)))
    space_y = FiniteMetricSpace(limit_points, 0.5 * (d_y + d_y.T))

    dth = theta[None, :] - theta[:, None]
    dsv = s[None, :] - s[:, None]
    fields = {}
    out = []
    for p, p_last in zip(p_values, last):
        ring_x = math.lcm(g.n_theta, p_last // math.gcd(m1, p_last))
        if ring_x not in fields:
            fields[ring_x] = distance_field(
                build_surface_graph(base, g.n_rho, ring_x), rows)
        best = np.full(dth.shape, np.inf)
        for q in range(p):
            tau = TWO_PI * q / p
            dp = fields[ring_x].lookup(slot[:, None], rows[slot][None, :],
                                       _column(dth + m1 * tau, ring_x))
            d_s1 = circle_distance(0.0, dsv + m2 * tau, config.r)
            np.minimum(best, np.hypot(dp, d_s1), out=best)
        space_x = FiniteMetricSpace(points, 0.5 * (best + best.T))
        out.append((p, distortion(space_x, space_y, corr), floor))
    return out


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


@pytest.mark.parametrize("p_values, x_lookups", [
    ([2, 4, 8], 8), ([3, 4], 7), ([4, 4], 4), ([8, 4], 12)])
def test_collapse_chain_visits_each_group_element_once(monkeypatch, p_values,
                                                       x_lookups):
    """Along a chain p | p' the quotient table folds in only the new group
    elements; a p that the previous one does not divide starts over.  The
    limit side takes one lookup per field, four in all."""
    calls = []
    lookup = gh_collapse.SurfaceDistanceField.lookup

    def counted(self, *args):
        calls.append(None)
        return lookup(self, *args)

    monkeypatch.setattr(gh_collapse.SurfaceDistanceField, "lookup", counted)
    cfg = dict(SMALL_CONFIG, p_values=p_values,
               grid={"n_rho": 16, "n_theta": 16, "n_s": 8},
               sample={"n_rho": 3, "n_theta": 3, "n_s": 2})
    collapse_experiment(CollapseConfig.from_json(cfg))
    assert len(calls) == x_lookups + 4


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


def test_collapse_solve_peak_memory():
    """A solve holds at most one field's label table and the check's
    scratch table of the largest size at a time: each refinement field is
    dropped once its floor term is taken, and the sweeps and the check
    allocate nothing else of the table's size.  The bound is the one the
    CSR solver met: 1.8x the largest half strip's CSR plus its six float64
    labels a node, with the CSR sized from the stencil counts."""
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
    # the largest graph is the doubly refined limit surface, 191 x 192 with
    # a pole; its half strip has 97 columns and no wrap edges
    n_rho, width = 191, 97
    nodes = 1 + (n_rho - 1) * width
    edges = ((n_rho - 1) * (width - 1)              # ring
             + (n_rho - 2) * (3 * width - 2)        # radial and diagonal
             + width)                               # spokes
    limit = quotient_transform(metric_from_warp(config.surface,
                                                config.rho_max),
                               TransformParams.from_slope_pair(1, 1, 1.0))
    assert _coo_reference_csr(limit, 191, 192, half=True).nnz == 2 * edges
    # 8-byte weights and 4-byte column ids for both directions of every
    # edge, 4-byte row offsets, six 8-byte labels a node
    largest = 2 * edges * (8 + 4) + 4 * (nodes + 1) + 6 * nodes * 8
    assert peak < 1.8 * largest


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
    with pytest.raises(DomainError):
        CollapseConfig.from_json(bad)
