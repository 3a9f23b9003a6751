import math

import numpy as np
import pytest

from walkdist import (
    DivergenceError,
    GraphInputError,
    IllConditionedError,
    ParamPoint,
    as_adjacency,
    forest_distance,
    log_forest_distance,
    log_forest_proximity,
    perron,
    plain_walk_distance,
    proximity_to_distance,
    gap_distance,
    walk_distance,
    walk_scale,
    walk_weight_matrix,
)


def _check_distance_shape(D, n):
    M = np.asarray(D)
    assert M.shape == (n, n)
    assert np.allclose(M, M.T)
    assert np.all(np.diag(M) == 0.0)
    off = M[~np.eye(n, dtype=bool)]
    assert (off > 0).all()


def test_walk_scale_at_one_is_continuous():
    base = walk_scale(1.0, 4)
    assert base == pytest.approx(math.log(math.e + 1.0))
    for eps in (1e-7, -1e-7):
        assert walk_scale(1.0 + eps, 4) == pytest.approx(base, rel=1e-5)
    with pytest.raises(GraphInputError):
        walk_scale(0.0, 4)


def test_param_point_roundtrip(p4):
    rho = perron(as_adjacency(p4)).rho
    for alpha in (0.1, 1.0, 7.5):
        pt = ParamPoint.from_alpha(rho, alpha, 4)
        back = ParamPoint.from_t(rho, pt.t, 4)
        assert back.alpha == pytest.approx(alpha, rel=1e-12)
        assert 0 < pt.t < 1.0 / rho
    with pytest.raises(DivergenceError):
        ParamPoint.from_t(rho, 1.0 / rho, 4)
    with pytest.raises(DivergenceError):
        ParamPoint.from_t(rho, -0.1, 4)


def _series(A, t, terms=200):
    total = np.zeros_like(A)
    term = np.eye(A.shape[0])
    for _ in range(terms):
        total += term
        term = term @ (t * A)
    return total


def test_walk_weight_matrix_sums_the_series(multi5):
    A = as_adjacency(multi5)
    t = 0.5 / perron(A).rho
    R = np.asarray(walk_weight_matrix(A, t))
    assert np.allclose(R, _series(A, t), rtol=1e-12, atol=1e-12)
    # On paths entry (i, j) is about t^|i-j|, down to 1e-78 on P40 at
    # t = 1e-2; each entry must keep its own relative accuracy.
    for n, t in ((12, 1e-3), (40, 1e-2)):
        P = np.diag(np.ones(n - 1), 1)
        P = P + P.T
        R = np.asarray(walk_weight_matrix(P, t))
        np.testing.assert_allclose(R, _series(P, t), rtol=1e-12, atol=0)


def test_walk_weight_matrix_diverges_at_rho(p4):
    A = as_adjacency(p4)
    rho = perron(A).rho
    # At 1/rho the factorization may succeed with a condition near 1e16,
    # just inside it the condition guard fires, and beyond it I - tA is
    # not positive definite: all three are divergence.
    for t in (1.0 / rho, (1.0 - 1e-15) / rho, 1.5 / rho, 0.0):
        with pytest.raises(DivergenceError):
            walk_weight_matrix(A, t)
    # The Cholesky solve reads one triangle, so bad bare matrices must be
    # rejected before it.
    nonsymmetric = np.array([[0.0, 1.0, 0.0], [2.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    negative = np.array([[0.0, 1.0, -1.0], [1.0, 0.0, 1.0], [-1.0, 1.0, 0.0]])
    for M in (nonsymmetric, negative):
        with pytest.raises(GraphInputError):
            walk_weight_matrix(M, 0.1)


def test_proximity_to_distance_by_hand():
    S = np.array([[2.0, 1.0], [1.0, 2.0]])
    D = np.asarray(proximity_to_distance(S, theta=3.0))
    expect = 3.0 * (math.log(2.0) - math.log(1.0))
    assert D[0, 1] == pytest.approx(expect)
    assert D[0, 0] == 0.0
    with pytest.raises(GraphInputError):
        proximity_to_distance(np.array([[1.0, 0.0], [0.0, 1.0]]))


def test_gap_distance_by_hand():
    S = np.array([[2.0, 0.5], [0.5, 4.0]])
    D = np.asarray(gap_distance(S, family="test"))
    assert D[0, 1] == pytest.approx((2.0 + 4.0) / 2.0 - 0.5)


def test_walk_distance_shape_and_labels(p4, multi5):
    for g in (p4, multi5):
        D = walk_distance(g, 1.0)
        _check_distance_shape(D, g.n)
        assert D.labels == g.labels
        assert D.family == "walk"


def test_walk_distance_graph_matches_matrix(multi5):
    D_g = np.asarray(walk_distance(multi5, 2.0))
    D_m = np.asarray(walk_distance(as_adjacency(multi5), 2.0))
    assert np.allclose(D_g, D_m)


def test_walk_distance_is_geodetic_on_path(p4):
    D = np.asarray(walk_distance(p4, 1.0))
    assert D[0, 1] + D[1, 2] == pytest.approx(D[0, 2], rel=1e-12)
    assert D[0, 1] + D[1, 3] == pytest.approx(D[0, 3], rel=1e-12)


def test_plain_walk_matches_gap_of_resolvent(p4):
    A = as_adjacency(p4)
    rho = perron(A).rho
    alpha = 1.5
    pt = ParamPoint.from_alpha(rho, alpha, 4)
    R = np.asarray(walk_weight_matrix(A, pt.t))
    D = np.asarray(plain_walk_distance(p4, alpha))
    s = np.diag(R)
    expect = 0.5 * (s[:, None] + s[None, :]) - R
    np.fill_diagonal(expect, 0.0)
    assert np.allclose(D, expect)


def test_forest_proximity_rows_sum_to_one(multi5):
    # (I + aL) has row sums 1, so its inverse is row-stochastic
    for alpha in (0.5, 1.0, 3.0):
        D = forest_distance(multi5, alpha)
        _check_distance_shape(D, multi5.n)
        L = np.diag(as_adjacency(multi5).sum(axis=1)) - as_adjacency(multi5)
        Q = np.linalg.inv(np.eye(multi5.n) + alpha * L)
        assert np.allclose(Q.sum(axis=1), 1.0)
        assert (Q > 0).all()


def test_forest_condition_guard(p4):
    # I + alpha*L is positive definite for every alpha, but at 1e15 its
    # condition is past CONDITION_LIMIT
    for fn in (forest_distance, log_forest_distance):
        with pytest.raises(IllConditionedError):
            fn(p4, 1e15)


def test_log_forest_proximity_definition(multi5):
    Q = np.asarray(log_forest_proximity(multi5, 2.0))
    L = np.diag(as_adjacency(multi5).sum(axis=1)) - as_adjacency(multi5)
    assert np.allclose(Q @ (np.eye(multi5.n) + 2.0 * L), np.eye(multi5.n))


def test_log_forest_graph_and_matrix_agree_for_linear_transform(multi5):
    # the default transform is linear, so aggregating first changes nothing
    D_g = np.asarray(log_forest_distance(multi5, 2.0))
    D_m = np.asarray(log_forest_distance(as_adjacency(multi5), 2.0))
    assert np.allclose(D_g, D_m, rtol=1e-12)


def test_log_forest_is_geodetic_on_path(p5):
    D = np.asarray(log_forest_distance(p5, 2.0))
    assert D[0, 2] == pytest.approx(D[0, 1] + D[1, 2], rel=1e-12)


def test_alpha_must_be_positive(p4):
    for fn in (walk_distance, plain_walk_distance, forest_distance, log_forest_distance):
        with pytest.raises(GraphInputError):
            fn(p4, -1.0)
