"""Pointwise quotient-metric linear algebra: the rank-one correction,
Gram-system projections, and the assembled quotient forms."""

import math

import numpy as np
import pytest

from collapse_lab import (
    DegenerateBasisError,
    DomainError,
    GramConditionWarning,
    InvalidMetricError,
    OrbitBasis,
    PointMetric,
    SinhWarp,
    TransversalityError,
    circle_quotient_pushforward,
    project_onto_complement,
    quotient_metric_form,
    transform_killing,
    transformed_warp,
)


def random_spd(rng, n):
    a = rng.normal(size=(n, n))
    return a @ a.T + n * np.eye(n)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

def test_point_metric_validation():
    m = PointMetric(np.diag([1.0, 2.0, 3.0]))
    assert m.dim == 3
    assert m.inner([1, 0, 0], [1, 0, 0]) == 1.0
    assert m.inner([0, 1, 0], [0, 1, 0]) == 2.0
    with pytest.raises(InvalidMetricError):
        PointMetric(np.ones((2, 3)))
    with pytest.raises(InvalidMetricError):
        PointMetric(np.array([[1.0, 0.5], [0.4999, 1.0]]))
    with pytest.raises(InvalidMetricError):
        PointMetric(np.diag([1.0, -1.0]))
    with pytest.raises(InvalidMetricError):
        PointMetric(np.zeros((2, 2)))


def test_killing_vector_and_basis_validation():
    OrbitBasis(np.array([[1.0, 0.0, 0.0]]))
    with pytest.raises(DomainError):
        OrbitBasis(np.array([1.0, 0.0]))
    with pytest.raises(DomainError):
        OrbitBasis(np.zeros((3, 2)))      # more vectors than dimensions


# ---------------------------------------------------------------------------
# the rank-one transform
# ---------------------------------------------------------------------------

def test_transform_matches_written_out_formula():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        g = random_spd(rng, n)
        k = rng.normal(size=n)
        r = float(rng.uniform(0.3, 3.0))
        kappa = float(rng.uniform(0.0, 3.0))
        gk = g @ k
        expected = g - (kappa ** 2 / (kappa ** 2 * (k @ gk) + r ** 2)) \
            * np.outer(gk, gk)
        got = transform_killing(g, k, r, kappa).matrix
        np.testing.assert_allclose(got, expected, atol=1e-13)


def test_transform_identity_cases():
    g = np.diag([2.0, 5.0])
    out = transform_killing(g, [0.0, 0.0], 1.0, 3.0)
    np.testing.assert_array_equal(out.matrix, g)
    out = transform_killing(g, [1.0, 1.0], 1.0, 0.0)
    np.testing.assert_array_equal(out.matrix, g)


def test_transform_berger_diagonal():
    """I_3 with K = e_1 shrinks only the first direction, to 1/(kappa^2+1).

    kappa in {1/2, 1} reproduces the target literally; kappa = 2 lands 2 ulp
    off because 1 - 4/5 and 1/5 round differently.
    """
    for kappa in (0.5, 1.0, 2.0):
        h = transform_killing(np.eye(3), [1.0, 0.0, 0.0], 1.0, kappa).matrix
        want = 1.0 / (kappa ** 2 + 1.0)
        assert abs(h[0, 0] - want) <= 2.0 * math.ulp(want)
        assert h[1, 1] == 1.0 and h[2, 2] == 1.0
        assert np.max(np.abs(h - np.diag(np.diag(h)))) == 0.0


def test_transform_positive_definite_bound():
    """lambda_min(h) >= r^2/(kappa^2 |K|^2 + r^2) lambda_min(g) - 1e-10."""
    rng = np.random.default_rng(17)
    for _ in range(250):
        n = int(rng.integers(2, 7))
        g = random_spd(rng, n)
        k = rng.normal(size=n) * rng.uniform(0.0, 3.0)
        r = float(rng.uniform(0.1, 10.0))
        kappa = float(rng.uniform(0.0, 10.0))
        h = transform_killing(g, k, r, kappa).matrix
        lam_g = float(np.linalg.eigvalsh(g)[0])
        lam_h = float(np.linalg.eigvalsh(h)[0])
        norm2 = float(k @ g @ k)
        bound = r ** 2 / (kappa ** 2 * norm2 + r ** 2) * lam_g
        assert lam_h >= bound - 1e-10


def test_transform_argument_validation():
    with pytest.raises(DomainError):
        transform_killing(np.eye(2), [1.0, 0.0, 0.0], 1.0, 1.0)
    with pytest.raises(DomainError):       # K must be one-dimensional
        transform_killing(np.eye(2), np.eye(2), 1.0, 1.0)
    with pytest.raises(DomainError):
        transform_killing(np.eye(2), [1.0, 0.0], 0.0, 1.0)
    with pytest.raises(DomainError):
        transform_killing(np.eye(2), [1.0, 0.0], 1.0, -1.0)
    with pytest.raises(InvalidMetricError):
        transform_killing(np.diag([1.0, -2.0]), [1.0, 0.0], 1.0, 1.0)


def test_transform_overflow_is_domain_error():
    """kappa^2 or r^2 past the float range, and a denominator kappa^2 g(K,K)
    + r^2 that overflows (which would give c = 0 and h = g silently)."""
    for r, kappa, k in ((1.0, 1e300, 1.0), (1e200, 1.0, 1.0),
                        (1.0, 1e5, 1e150)):
        with pytest.raises(DomainError, match="overflows"):
            transform_killing(np.eye(2), [k, 0.0], r, kappa)


def test_transform_agrees_with_warp_transform():
    """Surface data: the rank-one formula must reproduce the warp-level
    transform's squared angular entry."""
    rng = np.random.default_rng(29)
    for _ in range(100):
        f = float(rng.uniform(0.05, 4.0))
        r = float(rng.uniform(0.3, 3.0))
        kappa = float(rng.uniform(0.0, 3.0))
        h = transform_killing(np.diag([1.0, f * f]), [0.0, 1.0], r, kappa)
        warp = transformed_warp(SinhWarp(1.0), r, kappa)
        rho = float(np.arcsinh(f))          # place the warp value at f
        f_new = float(np.asarray(warp.f(rho)))
        assert h.matrix[0, 0] == pytest.approx(1.0, abs=1e-15)
        assert h.matrix[0, 1] == 0.0
        assert h.matrix[1, 1] == pytest.approx(f_new ** 2, abs=1e-12)


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------

def test_projection_euclidean_example():
    got = project_onto_complement(np.eye(3), OrbitBasis([[1.0, 0.0, 0.0]]),
                                  [1.0, 1.0, 0.0])
    np.testing.assert_allclose(got, [0.0, 1.0, 0.0], atol=1e-15)


def test_projection_diagonal_circle_direction():
    """g = diag(1, f^2, r^2), H = {d_theta + d_s}: d_theta projects to
    (r^2 d_theta - f^2 d_s)/(f^2 + r^2)."""
    rng = np.random.default_rng(31)
    for _ in range(25):
        f = float(rng.uniform(0.1, 3.0))
        r = float(rng.uniform(0.3, 3.0))
        g = np.diag([1.0, f * f, r * r])
        basis = OrbitBasis([[0.0, 1.0, 1.0]])
        got = project_onto_complement(g, basis, [0.0, 1.0, 0.0])
        denom = f * f + r * r
        np.testing.assert_allclose(
            got, [0.0, r * r / denom, -f * f / denom], atol=1e-14)


def test_projection_kills_basis_members_and_is_idempotent():
    rng = np.random.default_rng(37)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, n))
        g = random_spd(rng, n)
        basis = OrbitBasis(rng.normal(size=(m, n)))
        x = rng.normal(size=n)
        p1 = project_onto_complement(g, basis, x)
        p2 = project_onto_complement(g, basis, p1)
        np.testing.assert_allclose(p2, p1, atol=1e-12)
        # g-orthogonality to every basis vector
        for v in basis.vectors:
            assert abs(p1 @ g @ v) <= 1e-10
        # members map to zero
        zero = project_onto_complement(g, basis, basis.vectors[0])
        np.testing.assert_allclose(zero, 0.0, atol=1e-12)


def test_projection_degenerate_basis():
    basis = OrbitBasis([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    # the exactly singular Gram also trips the condition warning on the way
    with pytest.warns(GramConditionWarning):
        with pytest.raises(DegenerateBasisError):
            project_onto_complement(np.eye(3), basis, [0.0, 1.0, 0.0])


def test_projection_warns_on_bad_conditioning():
    # near-parallel rows: Gram condition ~4e13, still Cholesky-factorable
    basis = OrbitBasis([[1.0, 0.0, 0.0], [1.0, 3e-7, 0.0]])
    with pytest.warns(GramConditionWarning):
        project_onto_complement(np.eye(3), basis, [0.0, 0.0, 1.0])


def test_projection_of_rows_equals_per_row_calls():
    """A (k, n) array projects row by row with one Gram factor: each row
    equals the call on that row alone bit for bit, and a one-row array
    keeps its shape."""
    rng = np.random.default_rng(67)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, n))
        g = random_spd(rng, n)
        basis = OrbitBasis(rng.normal(size=(m, n)))
        xs = rng.normal(size=(int(rng.integers(1, 5)), n))
        got = project_onto_complement(g, basis, xs)
        assert got.shape == xs.shape
        for row, x in zip(got, xs):
            assert np.array_equal(row, project_onto_complement(g, basis, x))


def test_projection_of_rows_warns_once():
    """The Gram is checked once per call, so a near-singular basis warns
    once however many rows are projected."""
    basis = OrbitBasis([[1.0, 0.0, 0.0, 0.0], [1.0, 1e-7, 0.0, 0.0]])
    with pytest.warns(GramConditionWarning) as caught:
        project_onto_complement(np.eye(4), basis, np.eye(4)[2:])
    assert len(caught) == 1


def test_non_finite_input_is_rejected():
    # np.linalg.cholesky and solve pass inf through instead of failing
    with pytest.raises(InvalidMetricError):
        PointMetric(np.diag([np.inf, 1.0]))
    g = [[2.0, 1.0], [1.0, 2.0]]
    with pytest.raises(DomainError):
        project_onto_complement(g, OrbitBasis([[np.inf, 1.0]]), [1.0, 1.0])
    with pytest.raises(DomainError):
        project_onto_complement(g, OrbitBasis([[1.0, 0.0]]), [np.inf, 1.0])


def test_projection_dimension_mismatch():
    with pytest.raises(DomainError):
        project_onto_complement(np.eye(3), OrbitBasis([[1.0, 0.0]]),
                                [1.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# quotient metric form
# ---------------------------------------------------------------------------

def test_quotient_form_surface_block():
    """diag(1, f^2, r^2) mod the diagonal circle gives
    diag(1, r^2 f^2/(f^2 + r^2))."""
    rng = np.random.default_rng(41)
    frame = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    for _ in range(100):
        f = float(rng.uniform(0.05, 4.0))
        r = float(rng.uniform(0.3, 3.0))
        g = np.diag([1.0, f * f, r * r])
        h = quotient_metric_form(g, OrbitBasis([[0.0, 1.0, 1.0]]), frame)
        want = np.diag([1.0, r * r * f * f / (f * f + r * r)])
        np.testing.assert_allclose(h.matrix, want, atol=1e-12)


def test_quotient_form_torus_circle_radius():
    """Flat torus diag(r1^2, r2^2) mod the (m1, m2) direction leaves a
    circle of radius^2 = r1^2 r2^2 / (kappa^2 r1^2 + r2^2)."""
    rng = np.random.default_rng(43)
    for _ in range(30):
        r1, r2 = (float(v) for v in rng.uniform(0.3, 2.5, size=2))
        m1, m2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        g = np.diag([r1 * r1, r2 * r2])
        h = quotient_metric_form(g, OrbitBasis([[float(m1), float(m2)]]),
                                 [[1.0, 0.0]])
        kappa = m1 / m2
        want = r1 ** 2 * r2 ** 2 / (kappa ** 2 * r1 ** 2 + r2 ** 2)
        assert h.matrix[0, 0] == pytest.approx(want, rel=1e-12)


def test_quotient_form_orthogonal_case_is_plain_gram():
    g = np.diag([2.0, 3.0, 5.0])
    h = quotient_metric_form(g, OrbitBasis([[0.0, 0.0, 1.0]]),
                             [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    np.testing.assert_allclose(h.matrix, np.diag([2.0, 3.0]), atol=1e-15)


def test_quotient_form_basis_invariance():
    """Replacing the orbit basis by an invertible recombination changes
    nothing."""
    rng = np.random.default_rng(47)
    g = random_spd(rng, 4)
    basis = rng.normal(size=(2, 4))
    frame = rng.normal(size=(2, 4))
    h1 = quotient_metric_form(g, OrbitBasis(basis), frame).matrix
    for _ in range(10):
        m = rng.normal(size=(2, 2))
        while abs(np.linalg.det(m)) < 0.1:
            m = rng.normal(size=(2, 2))
        h2 = quotient_metric_form(g, OrbitBasis(m @ basis), frame).matrix
        np.testing.assert_allclose(h2, h1, atol=1e-10)


def test_quotient_form_transversality_errors():
    g = np.eye(3)
    with pytest.raises(TransversalityError):
        quotient_metric_form(g, OrbitBasis([[1.0, 0.0, 0.0]]),
                             [[0.0, 1.0, 0.0]])       # 1 + 1 != 3
    with pytest.raises(TransversalityError):
        quotient_metric_form(g, OrbitBasis([[1.0, 0.0, 0.0]]),
                             [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    # the rank is taken on rows scaled to unit size: a zero row is refused
    # before the scaling, with no division warning
    with pytest.raises(TransversalityError, match="fails to span"):
        quotient_metric_form(g, OrbitBasis([[0.0, 0.0, 0.0]]),
                             [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(TransversalityError, match="fails to span"):
        quotient_metric_form(g, OrbitBasis([[1.0, 0.0, 0.0]]),
                             [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def test_quotient_form_refuses_frame_row_lost_to_cancellation():
    """A frame row whose projection keeps less than 1e-12 of its squared
    g-norm is refused; one that keeps 1e-10 of it is not."""
    basis = OrbitBasis([[0.0, 1.0, 1.0]])
    frame = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    with pytest.raises(TransversalityError, match="frame row 1 is nearly"):
        quotient_metric_form(np.diag([1.0, 1e100, 1.0]), basis, frame)
    # a = 1e10: the row keeps 1 / (a + 1) of its norm a, so h11 is about 1
    h = quotient_metric_form(np.diag([1.0, 1e10, 1.0]), basis, frame)
    assert h.matrix[1, 1] == pytest.approx(1.0, rel=1e-5)


def test_quotient_form_refuses_empty_frame():
    """An orbit basis that spans the whole space leaves no quotient
    direction: the empty frame passes the dimension count and is refused
    as a DomainError, not a numpy reduction error."""
    with pytest.raises(DomainError, match="at least one row"):
        quotient_metric_form(np.eye(2), OrbitBasis([[1, 0], [0, 1]]),
                             np.zeros((0, 2)))


def test_quotient_form_near_singular_gram_warns_once():
    """Two frame rows against a near-parallel basis (Gram condition 4e14)
    give one GramConditionWarning: the frame is projected in one call."""
    with pytest.warns(GramConditionWarning) as caught:
        h = quotient_metric_form(np.eye(4), OrbitBasis([[1.0, 0.0, 0.0, 0.0],
                                                        [1.0, 1e-7, 0.0, 0.0]]),
                                 [[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    assert len(caught) == 1
    assert str(caught[0].message) == ("orbit-basis Gram condition 4.04e+14 "
                                      "exceeds 1e12")
    assert np.array_equal(h.matrix, np.eye(2))


def test_quotient_form_output_is_positive_definite():
    # PointMetric construction itself certifies SPD via factorization
    rng = np.random.default_rng(53)
    for _ in range(20):
        g = random_spd(rng, 5)
        basis = OrbitBasis(rng.normal(size=(2, 5)))
        frame = rng.normal(size=(3, 5))
        if np.linalg.matrix_rank(np.vstack([basis.vectors, frame])) < 5:
            continue
        h = quotient_metric_form(g, basis, frame)
        assert isinstance(h, PointMetric)


# ---------------------------------------------------------------------------
# coordinate-frame pushforwards of the circle quotient
# ---------------------------------------------------------------------------

def test_pushforward_reference_values():
    p_rho, p_theta, p_s, h = circle_quotient_pushforward(1.0, 1.0)
    np.testing.assert_allclose(p_rho, [1.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(p_theta, [0.0, 0.5, -0.5], atol=1e-15)
    np.testing.assert_allclose(p_s, [0.0, -0.5, 0.5], atol=1e-15)
    assert h.matrix[1, 1] == pytest.approx(0.5, abs=1e-15)


def test_pushforward_formulas_random():
    rng = np.random.default_rng(59)
    for _ in range(50):
        f = float(rng.uniform(0.05, 4.0))
        r = float(rng.uniform(0.3, 3.0))
        p_rho, p_theta, p_s, h = circle_quotient_pushforward(f, r)
        denom = f * f + r * r
        np.testing.assert_allclose(p_rho, [1.0, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(
            p_theta, [0.0, r * r / denom, -f * f / denom], atol=1e-12)
        np.testing.assert_allclose(p_s, -np.asarray(p_theta), atol=1e-12)
        assert h.matrix[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert h.matrix[0, 1] == pytest.approx(0.0, abs=1e-12)
        assert h.matrix[1, 1] == pytest.approx(r * r * f * f / denom,
                                               abs=1e-12)


def test_pushforward_limits():
    # tiny fiber: the quotient barely changes the angular length
    _, _, _, h = circle_quotient_pushforward(1e-3, 1.0)
    assert h.matrix[1, 1] == pytest.approx(1e-6, rel=2e-6)
    # huge circle: quotient leaves the surface alone
    _, _, _, h = circle_quotient_pushforward(1.0, 1e6)
    assert h.matrix[1, 1] == pytest.approx(1.0, abs=2e-12)
    # f^2 + r^2 past the float range would give w = 0 and an inf metric
    with pytest.raises(DomainError, match="overflows"):
        circle_quotient_pushforward(1e200, 1.0)
    with pytest.raises(DomainError):
        circle_quotient_pushforward(0.0, 1.0)
    with pytest.raises(DomainError):
        circle_quotient_pushforward(1.0, -1.0)


def test_pushforward_agrees_with_quotient_form():
    """The assembled 2x2 form equals quotient_metric_form on the same data."""
    rng = np.random.default_rng(61)
    frame = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    for _ in range(20):
        f = float(rng.uniform(0.1, 3.0))
        r = float(rng.uniform(0.3, 3.0))
        *_, h_push = circle_quotient_pushforward(f, r)
        g = np.diag([1.0, f * f, r * r])
        h_form = quotient_metric_form(g, OrbitBasis([[0.0, 1.0, 1.0]]), frame)
        np.testing.assert_allclose(h_push.matrix, h_form.matrix, atol=1e-13)


def test_pushforward_is_the_projector_on_the_coordinate_frame():
    """The pushforwards are project_onto_complement of the coordinate
    vectors against d_theta + d_s, and h is quotient_metric_form of the
    (rho, theta) frame, both bit for bit: one projector serves both."""
    rng = np.random.default_rng(71)
    basis = OrbitBasis([[0.0, 1.0, 1.0]])
    for _ in range(50):
        f = float(rng.uniform(0.05, 4.0))
        r = float(rng.uniform(0.3, 3.0))
        *push, h = circle_quotient_pushforward(f, r)
        g = np.diag([1.0, f * f, r * r])
        for p, e in zip(push, np.eye(3)):
            assert np.array_equal(p, project_onto_complement(g, basis, e))
        assert np.array_equal(
            h.matrix, quotient_metric_form(g, basis, np.eye(3)[:2]).matrix)
