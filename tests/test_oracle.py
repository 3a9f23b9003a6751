import itertools
import tracemalloc

import numpy as np
import pytest
from conftest import random_multigraph
from numpy.testing import assert_allclose

from walkdist import (
    EnumerationBudgetError,
    GraphInputError,
    as_adjacency,
    check_geodetic,
    cycle_graph,
    check_metric,
    check_psd_centered,
    check_transition,
    enumerate_avoiding_cycles,
    enumerate_commute_cycle_weight,
    enumerate_hitting_weight,
    enumerate_walk_weight,
    forest_distance,
    hitting_weight,
    commute_cycle_weight,
    iter_walks,
    log_forest_proximity,
    long_ewalk_distance,
    long_walk_distance,
    path_graph,
    perron,
    plain_walk_distance,
    resistance_distance,
    separates,
    separates_by_enumeration,
    shortest_path_matrix,
    theta_infinity,
    walk_distance,
    walk_weight_matrix,
    walk_weights_by_length,
    walk_weights_by_powers,
)
from walkdist.oracle import (
    _separation_table,
    _walk_bins,
    commute_cycle_weights_by_length,
    hitting_weights_by_length,
    max_enumeration_depth,
)


def test_iter_walks_k2_explicitly(k2):
    walks = list(iter_walks(k2, "1", 3))
    # trivial, one step, back, and back-and-forth again
    assert [w.vertices for w in walks] == [(0,), (0, 1), (0, 1, 0), (0, 1, 0, 1)]
    trivial = walks[0]
    assert trivial.length == 0
    assert trivial.weight == 1.0
    assert trivial.weighted_length == 0.0
    assert walks[3].length == 3


def test_walk_record_weights_multiply(multi5):
    for w in iter_walks(multi5, "a", 3):
        weights = [multi5.edges[eid].weight for eid in w.edge_ids]
        assert w.weight == pytest.approx(float(np.prod(weights)) if weights else 1.0)
        assert w.weighted_length == pytest.approx(sum(1.0 / x for x in weights))


def test_parallel_edges_enumerate_separately(multi5):
    # two a-b edges: two distinct one-step walks to b
    one_step = [w for w in iter_walks(multi5, "a", 1) if w.length == 1]
    assert len(one_step) == 2
    assert {multi5.edges[w.edge_ids[0]].weight for w in one_step} == {1.2, 0.7}


def test_loops_enumerate_once(multi5):
    # the loop at c is one traversal choice, not two
    loops = [w for w in iter_walks(multi5, "c", 1)
             if w.length == 1 and w.vertices == (2, 2)]
    assert len(loops) == 1


def test_enumeration_matches_matrix_powers(p4, c4, multi5):
    for g in (p4, c4, multi5):
        A = as_adjacency(g)
        for src in range(g.n):
            bins = walk_weights_by_length(g, src, 8)
            powers = walk_weights_by_powers(A, src, 8)
            assert np.allclose(bins, powers, rtol=1e-12, atol=1e-12)


def test_hitting_bins_renewal_convolution(multi5):
    # walks i->j split at the first arrival in j:
    # w_ij[k] = sum_m f_ij[m] * w_jj[k-m]
    K = 9
    i, j = "a", "d"
    w_ij = walk_weights_by_length(multi5, multi5.position(i), K)[multi5.position(j)]
    f_ij = hitting_weights_by_length(multi5, i, j, K)
    w_jj = walk_weights_by_length(multi5, multi5.position(j), K)[multi5.position(j)]
    conv = np.array([sum(f_ij[m] * w_jj[k - m] for m in range(k + 1))
                     for k in range(K + 1)])
    assert np.allclose(w_ij, conv, rtol=1e-12)


def test_commute_bins_are_leg_convolutions(multi5):
    K = 9
    i, j = "b", "e"
    c = commute_cycle_weights_by_length(multi5, i, j, K)
    f_ij = hitting_weights_by_length(multi5, i, j, K)
    f_ji = hitting_weights_by_length(multi5, j, i, K)
    conv = np.array([sum(f_ij[m] * f_ji[k - m] for m in range(k + 1))
                     for k in range(K + 1)])
    assert np.allclose(c, conv, rtol=1e-12)


def test_hitting_trivial_walk_at_target(multi5):
    bins = hitting_weights_by_length(multi5, "c", "c", 5)
    assert bins[0] == 1.0
    assert np.all(bins[1:] == 0.0)


@pytest.mark.parametrize("name", ["multi5", "random6"])
def test_every_rule_matches_the_walk_definition(name, multi5):
    # each binning rule against the explicit walk records it filters
    g = multi5 if name == "multi5" else random_multigraph(
        np.random.default_rng(0), 6, extra_edges=3)
    n, K = g.n, 6
    walks = [list(iter_walks(g, s, K)) for s in range(n)]

    def binned(records, at=-1):
        out = np.zeros((n, K + 1))
        for w in records:
            out[w.vertices[at], w.length] += w.weight
        return out

    def hitting(records, j):
        return [w for w in records if w.vertices[-1] == j and j not in w.vertices[:-1]]

    for i in range(n):
        assert_allclose(walk_weights_by_length(g, i, K), binned(walks[i]), rtol=1e-12)
        into_i = hitting([w for ws in walks for w in ws], i)
        assert_allclose(_walk_bins(g, i, K, avoid=i), binned(into_i, at=0), rtol=1e-12)
        for j in range(n):
            assert_allclose(hitting_weights_by_length(g, i, j, K),
                            binned(hitting(walks[i], j))[j], rtol=1e-12)
            if j == i:
                continue
            avoiding = [w for w in walks[i] if j not in w.vertices]
            assert_allclose(_walk_bins(g, i, K, avoid=j), binned(avoiding), rtol=1e-12)
            commute = [w for w in walks[i] if w.vertices[-1] == i and j in w.vertices
                       and i not in w.vertices[w.vertices.index(j):-1]]
            assert_allclose(commute_cycle_weights_by_length(g, i, j, K),
                            binned(commute)[i], rtol=1e-12)


def test_enumeration_memory_stays_bounded(multi5):
    # 7.3M walks from b: extending a whole layer at once allocates ~250 MB
    tracemalloc.start()
    try:
        bins = walk_weights_by_length(multi5, "b", 14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert_allclose(bins, walk_weights_by_powers(multi5, "b", 14), rtol=1e-12)


def test_enumerate_walk_weight_brackets_resolvent(p4, multi5):
    for g in (p4, multi5):
        A = as_adjacency(g)
        rho = perron(A).rho
        for t in (0.3 / rho, 0.7 / rho):
            R = np.asarray(walk_weight_matrix(A, t))
            for (i, j) in ((0, g.n - 1), (1, 2)):
                value, bound = enumerate_walk_weight(g, t, i, j, 12)
                assert abs(R[i, j] - value) <= bound.tail


def test_enumerate_hitting_weight_brackets_closed_form(p4, multi5):
    for g, K in ((p4, 16), (multi5, 12)):
        A = as_adjacency(g)
        rho = perron(A).rho
        for t in (0.5 / rho, 1.0 / rho):
            for (i, j) in ((0, g.n - 1), (2, 1)):
                value, bound = enumerate_hitting_weight(g, t, i, j, K)
                closed = hitting_weight(A, t, i, j)
                assert abs(closed - value) <= bound.tail


def test_enumerate_commute_cycles_bracket_closed_form(p4):
    A = as_adjacency(p4)
    rho = perron(A).rho
    for t in (0.6 / rho, 1.0 / rho):
        value, bound = enumerate_commute_cycle_weight(p4, t, 1, 2, 24)
        closed = commute_cycle_weight(A, t, 1, 2)
        assert abs(closed - value) <= bound.tail


def test_avoiding_cycles_recover_long_walk(p4, multi5):
    for g, (i, j), K in ((p4, ("2", "3"), 20), (multi5, ("b", "d"), 12)):
        A = as_adjacency(g)
        sd = perron(A)
        D = np.asarray(long_walk_distance(A))
        cij, b1 = enumerate_avoiding_cycles(g, i, j, K)
        cji, b2 = enumerate_avoiding_cycles(g, j, i, K)
        est = (cij + cji) / (g.n * sd.rho)
        tail = (b1.tail + b2.tail) / (g.n * sd.rho)
        assert abs(est - D[g.position(i), g.position(j)]) <= tail


def test_jump_cycles_recover_long_ewalk(p4, multi5):
    # multiplicity matters here: multi5 has a parallel pair
    for g, (i, j), K in ((p4, ("2", "3"), 20), (multi5, ("b", "d"), 12)):
        sd = perron(as_adjacency(g))
        D = np.asarray(long_ewalk_distance(g))
        th = theta_infinity(g)
        cij, b1 = enumerate_avoiding_cycles(g, i, j, K, jump=True)
        cji, b2 = enumerate_avoiding_cycles(g, j, i, K, jump=True)
        est = (th / (2.0 * sd.rho)) * (cij + cji)
        tail = (th / (2.0 * sd.rho)) * (b1.tail + b2.tail)
        assert abs(est - D[g.position(i), g.position(j)]) <= tail


def test_budget_guard(multi5, p4):
    with pytest.raises(EnumerationBudgetError):
        walk_weights_by_length(multi5, 0, 30, budget=100)
    depth = max_enumeration_depth(multi5, 0, budget=100)
    assert 0 < depth < 30
    assert max_enumeration_depth(multi5, 0, budget=10_000) > depth
    for g in (multi5, p4):
        for budget in (100, 10_000, 200_000):
            depth = max_enumeration_depth(g, 0, budget=budget)
            walk_weights_by_length(g, 0, depth, budget=budget)
            with pytest.raises(EnumerationBudgetError):
                walk_weights_by_length(g, 0, depth + 1, budget=budget)


def test_budget_message_prints_the_budget_exactly(multi5):
    # about 1.9e5 walks; a budget printed as 2e+05 reads as not exceeded
    with pytest.raises(EnumerationBudgetError, match="budget is 150,000"):
        walk_weights_by_length(multi5, "a", 11, budget=150_000)


def test_check_metric_passes_and_fails(p4):
    good = check_metric(np.asarray(walk_distance(p4, 1.0)))
    assert good.passed and not good.failures
    bad = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    report = check_metric(bad)
    assert not report.passed
    assert any("triangle" in f for f in report.failures)
    asym = np.array([[0.0, 1.0], [2.0, 0.0]])
    assert not check_metric(asym).passed


def test_check_geodetic_two_sided(p4, c4):
    # walk distance: equality exactly on separated triples
    assert check_geodetic(np.asarray(walk_distance(p4, 1.0)), p4).passed
    assert check_geodetic(np.asarray(walk_distance(c4, 1.0)), c4).passed
    # shortest path on a cycle has equalities without separation
    report = check_geodetic(np.asarray(shortest_path_matrix(c4)), c4)
    assert not report.passed


def test_check_geodetic_reports_defect():
    wp = path_graph(4, [1.0, 2.0, 3.0])
    for D in (plain_walk_distance(wp, 1.0), forest_distance(wp, 1.0)):
        report = check_geodetic(np.asarray(D), wp, delta=1e-6)
        assert not report.passed
        assert report.failures


def test_check_transition(p4, multi5):
    for g in (p4, multi5):
        A = as_adjacency(g)
        rho = perron(A).rho
        R = np.asarray(walk_weight_matrix(A, 0.8 / rho))
        assert check_transition(R, g).passed
        Q = np.asarray(log_forest_proximity(g, 1.0))
        assert check_transition(Q, g).passed
    # perturbing one entry breaks the bottleneck identity
    R_bad = np.asarray(walk_weight_matrix(as_adjacency(p4), 0.5)).copy()
    R_bad[0, 2] *= 1.5
    R_bad[2, 0] = R_bad[0, 2]
    assert not check_transition(R_bad, p4).passed


def test_check_psd_centered(p4):
    assert check_psd_centered(np.asarray(long_walk_distance(as_adjacency(p4)))).passed
    assert check_psd_centered(np.asarray(resistance_distance(p4))).passed
    # hop metric of the complete bipartite graph on 2+3 vertices is the
    # classic failure: centered eigenvalue -0.2
    A = np.zeros((5, 5))
    A[np.ix_((0, 1), (2, 3, 4))] = 1.0
    A[np.ix_((2, 3, 4), (0, 1))] = 1.0
    report = check_psd_centered(np.asarray(shortest_path_matrix(A)))
    assert not report.passed


def test_separates_by_enumeration_agrees(p4, c4, multi5):
    for g in (p4, c4, multi5):
        for j in g.labels:
            for i in g.labels:
                for k in g.labels:
                    if i == k:
                        continue
                    assert separates_by_enumeration(g, j, i, k) == separates(g, j, i, k)


@pytest.mark.parametrize("name", ["p4", "c6", "multi5", "random10"])
def test_separation_table_matches_separates(name, p4, multi5):
    g = {"p4": p4, "c6": cycle_graph(6), "multi5": multi5,
         "random10": random_multigraph(np.random.default_rng(0), 10, extra_edges=3)}[name]
    comp = _separation_table(g, g.n)
    separated = 0
    for j, i, k in itertools.product(range(g.n), repeat=3):
        if i == k:
            continue
        expected = separates_by_enumeration(g, j, i, k)
        assert separates(g, j, i, k) == expected, (j, i, k)
        assert (comp[j][i] != comp[j][k]) == expected, (j, i, k)
        separated += expected and j not in (i, k)
    assert separated > 0 or name == "c6"


def test_property_checks_reject_a_graph_smaller_than_the_matrix(p4, p5):
    D = np.asarray(walk_distance(p5))
    with pytest.raises(GraphInputError):
        check_geodetic(D, p4)
    with pytest.raises(GraphInputError):
        check_transition(np.exp(-D), p4)
