import numpy as np
import pytest
from conftest import random_multigraph

from walkdist import (
    GraphInputError,
    NumericalError,
    ThetaSchedule,
    as_adjacency,
    cycle_graph,
    epsilon_transform,
    ewalk_distance,
    ewalk_limit_sweep,
    long_ewalk_distance,
    long_walk_distance,
    path_graph,
    perron,
    theta_infinity,
    theta_schedule_for,
    weighted_shortest_path_matrix,
)
from walkdist.ewalk import (_log_proximity_float64, _log_proximity_longdouble,
                            epsilon_weight_matrix, indicator_matrix, long_ewalk_via_minors)


def neumann_proximity(W):
    """(I - W)^(-1) as the series sum_k W^k in extended precision (oracle, O(n^4)).

    Summed until at least n terms are in and the last term is below
    1e-25 of the sum in every entry.
    """
    W = np.asarray(W, dtype=np.longdouble)
    n = W.shape[0]
    R = np.eye(n, dtype=np.longdouble)
    term = np.eye(n, dtype=np.longdouble)
    with np.errstate(under="ignore"):
        for k in range(1, 10_000):
            term = term @ W
            R = R + term
            if k >= n and np.all(term <= np.longdouble(1e-25) * R):
                return R
    raise AssertionError("Neumann series did not settle")


def test_epsilon_transform_per_edge(multi5):
    rho = perron(as_adjacency(multi5)).rho
    alpha = 2.0
    out = epsilon_transform(multi5, alpha)
    assert out.labels == multi5.labels
    assert len(out.edges) == len(multi5.edges)
    for before, after in zip(multi5.edges, out.edges):
        expect = (before.weight / rho) * np.exp(-1.0 / (alpha * before.weight))
        assert after.weight == pytest.approx(expect, rel=1e-15)


def test_epsilon_weight_matrix_aggregates_after_transform(multi5):
    # sum of transformed weights, not transform of summed weights
    W = epsilon_weight_matrix(multi5, 2.0)
    assert np.allclose(W, as_adjacency(epsilon_transform(multi5, 2.0)))
    W_matrix = epsilon_weight_matrix(as_adjacency(multi5), 2.0)
    ia, ib = multi5.position("a"), multi5.position("b")
    assert W[ia, ib] != pytest.approx(W_matrix[ia, ib])


def test_transformed_radius_below_one(p4, c4, multi5):
    for g in (p4, c4, multi5):
        for alpha in (0.5, 1.0, 10.0, 1e3):
            W = epsilon_weight_matrix(g, alpha)
            assert np.linalg.eigvalsh(W)[-1] < 1.0


def test_indicator_matrix_counts_parallel_edges(multi5):
    C = indicator_matrix(multi5)
    ia, ib = multi5.position("a"), multi5.position("b")
    ic = multi5.position("c")
    assert C[ia, ib] == 2.0
    assert C[ic, ic] == 1.0
    assert C[multi5.position("d"), multi5.position("e")] == 1.0
    # a bare matrix has no multiplicity information: 0/1 pattern
    C_m = indicator_matrix(as_adjacency(multi5))
    assert C_m[ia, ib] == 1.0


def test_theta_infinity_regular_graph():
    # unit-weight k-regular: theta_inf = 2/(n*k)
    assert theta_infinity(cycle_graph(4)) == pytest.approx(0.25, rel=1e-12)
    assert theta_infinity(cycle_graph(6)) == pytest.approx(2.0 / 12.0, rel=1e-12)


def test_theta_infinity_sees_multiplicity(multi5):
    assert theta_infinity(multi5) != pytest.approx(
        theta_infinity(as_adjacency(multi5)))


def test_theta_schedule_endpoints():
    sched = ThetaSchedule(theta_inf=0.3, beta=1.0)
    assert sched(1e-9) == pytest.approx(1.0, rel=1e-6)
    assert sched(1e12) == pytest.approx(0.3, rel=1e-6)
    with pytest.raises(GraphInputError):
        ThetaSchedule(theta_inf=0.3, beta=0.0)
    with pytest.raises(GraphInputError):
        sched(0.0)


def test_ewalk_distance_is_geodetic_on_path(p4):
    D = np.asarray(ewalk_distance(p4, 1.0))
    assert D[0, 1] + D[1, 2] == pytest.approx(D[0, 2], rel=1e-12)
    assert np.allclose(D, D.T)
    assert np.all(np.diag(D) == 0.0)


def test_long_ewalk_equals_long_walk_at_tuned_scale(p4, c4, wp4, multi5):
    # the default theta_inf makes the two limit metrics coincide,
    # multigraphs included
    for g in (p4, c4, wp4, multi5):
        lew = np.asarray(long_ewalk_distance(g))
        lw = np.asarray(long_walk_distance(as_adjacency(g)))
        assert np.abs(lew - lw).max() <= 1e-11 * np.abs(lw).max()
        # the minor-solve oracle checks the claim on its own path
        oracle = np.asarray(long_ewalk_via_minors(g))
        assert np.abs(oracle - lw).max() <= 1e-11 * np.abs(lw).max()


def test_long_ewalk_scale_parameter_just_rescales(p4):
    base = np.asarray(long_ewalk_distance(p4))
    theta = theta_infinity(p4)
    doubled = np.asarray(long_ewalk_distance(p4, theta_inf=2.0 * theta))
    assert np.allclose(doubled, 2.0 * base)
    oracle = np.asarray(long_ewalk_via_minors(p4, theta_inf=2.0 * theta))
    assert np.allclose(oracle, doubled)


def test_ewalk_converges_to_count_based_limit(multi5):
    # parallel edges must enter the limit with their multiplicity
    ref = np.asarray(long_ewalk_distance(multi5))
    D = np.asarray(ewalk_distance(multi5, 1e5))
    assert np.abs(D - ref).max() <= 2e-3 * np.abs(ref).max()


def test_ewalk_small_alpha_approaches_weighted_shortest_path(p4):
    # alpha=1e-3 on unit weights exercises the extended-precision path
    ref = np.asarray(weighted_shortest_path_matrix(p4))
    D = np.asarray(ewalk_distance(p4, 1e-3))
    assert np.abs(D - ref).max() <= 1e-3 * np.abs(ref).max()


@pytest.mark.parametrize("alpha", [1e-2, 1e-3])
@pytest.mark.parametrize("graph", ["P60", "rand80"])
def test_longdouble_elimination_matches_neumann_series(graph, alpha):
    g = (path_graph(60) if graph == "P60"
         else random_multigraph(np.random.default_rng(0), 80, extra_edges=40))
    # float64 underflows on these inputs, so ewalk_distance takes the fallback
    assert _log_proximity_float64(epsilon_weight_matrix(g, alpha)) is None
    W = epsilon_weight_matrix(g, alpha, np.longdouble)
    R = neumann_proximity(W)
    if (R <= 0).any():
        # entries below the longdouble range: both paths must give up
        with pytest.raises(NumericalError):
            _log_proximity_longdouble(W)
        return
    with np.errstate(under="ignore"):
        expect = np.log(R).astype(np.float64)
    np.testing.assert_allclose(_log_proximity_longdouble(W), expect, rtol=1e-12, atol=0)


def test_longdouble_elimination_rejects_row_sum_one():
    W = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.longdouble)  # I - W singular
    with pytest.raises(NumericalError):
        _log_proximity_longdouble(W)


def test_ewalk_underflow_raises(p4):
    with pytest.raises(NumericalError):
        ewalk_distance(p4, 1e-4)


def test_ewalk_sweep_directions(wp4):
    small = ewalk_limit_sweep(wp4, (1e-1, 1e-2), "small-alpha")
    devs = [pt.deviation for pt in small]
    assert devs[1] < devs[0]
    large = ewalk_limit_sweep(wp4, (1e1, 1e3), "large-alpha")
    devs = [pt.deviation for pt in large]
    assert devs[1] < devs[0]
    with pytest.raises(GraphInputError):
        ewalk_limit_sweep(wp4, (1.0,), "sideways")


def test_schedule_for_graph_uses_counts(multi5):
    sched = theta_schedule_for(multi5)
    assert sched.theta_inf == pytest.approx(theta_infinity(multi5), rel=1e-15)


def test_ewalk_rejects_bad_alpha(p4):
    with pytest.raises(GraphInputError):
        ewalk_distance(p4, -2.0)
    with pytest.raises(GraphInputError):
        epsilon_transform(p4, 0.0)
