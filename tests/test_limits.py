import numpy as np
import pytest

from conftest import random_multigraph
from walkdist import (
    DivergenceError,
    as_adjacency,
    as_laplacian,
    commute_cycle_matrix,
    commute_cycle_weight,
    ewalk_distance,
    hitting_weight,
    hitting_weight_matrix,
    laplacian_ginverse,
    limit_sweep,
    long_ewalk_distance,
    long_walk_all_formulas,
    long_walk_distance,
    path_graph,
    perron,
    resistance_all_formulas,
    resistance_distance,
    shortest_path_matrix,
    walk_distance,
    walk_weight_matrix,
    weighted_shortest_path_matrix,
)
from walkdist.limits import para_laplacian_ginverse, long_walk_via_reduced, resistance_via_reduced

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def test_shortest_path_counts_hops(p4):
    D = np.asarray(shortest_path_matrix(p4))
    expect = np.array([[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]], float)
    assert np.array_equal(D, expect)


def test_weighted_shortest_path_uses_reciprocal_lengths(wp4):
    D = np.asarray(weighted_shortest_path_matrix(wp4))
    step = 1.0 / np.sqrt(2.0)
    assert D[0, 1] == pytest.approx(step)
    assert D[0, 2] == pytest.approx(step + 1.0)
    assert D[0, 3] == pytest.approx(2.0 * step + 1.0)


def test_weighted_shortest_path_takes_heaviest_parallel(multi5):
    # two a-b edges with weights 1.2 and 0.7: the shorter length wins
    D = np.asarray(weighted_shortest_path_matrix(multi5))
    ia, ib = multi5.position("a"), multi5.position("b")
    assert D[ia, ib] == pytest.approx(1.0 / 1.2)


def test_hitting_weights_renewal_identity(multi5):
    # every i->j walk splits at the first visit of j: r = r1 * r_jj
    A = as_adjacency(multi5)
    t = 0.6 / perron(A).rho
    R = np.asarray(walk_weight_matrix(A, t))
    R1 = np.asarray(hitting_weight_matrix(A, t))
    for j in range(A.shape[0]):
        assert np.allclose(R[:, j], R1[:, j] * R[j, j], rtol=1e-10)


def test_hitting_weights_at_spectral_radius_are_perron_ratios(p4, c4, multi5):
    for g in (p4, c4, multi5):
        A = as_adjacency(g)
        sd = perron(A)
        hw = hitting_weight_matrix(A, 1.0 / sd.rho)
        assert hw.at_spectral_radius
        expect = sd.p[:, None] / sd.p[None, :]
        np.fill_diagonal(expect, 1.0)
        assert np.abs(hw.entries - expect).max() < 1e-10


def test_hitting_weight_diverges_past_minor_radius(p4):
    A = as_adjacency(p4)
    from walkdist import submatrix_spectral_radius
    limit = 1.0 / submatrix_spectral_radius(A, 0)
    with pytest.raises(DivergenceError):
        hitting_weight(A, limit, 2, 0)
    # strictly beyond 1/rho is fine for hitting walks
    assert hitting_weight(A, 0.999 * limit, 2, 0) > 0


def test_commute_cycles_factor_and_saturate(multi5):
    A = as_adjacency(multi5)
    rho = perron(A).rho
    t = 0.5 / rho
    assert commute_cycle_weight(A, t, 0, 3) == pytest.approx(
        hitting_weight(A, t, 0, 3) * hitting_weight(A, t, 3, 0))
    C = commute_cycle_matrix(A, t)
    off = ~np.eye(A.shape[0], dtype=bool)
    assert (C[off] < 1.0).all()
    C_star = commute_cycle_matrix(A, 1.0 / rho)
    assert np.abs(C_star[off] - 1.0).max() < 1e-10


def test_long_walk_formulas_agree(p4, c4, wp4, multi5):
    for g in (p4, c4, wp4, multi5):
        forms = long_walk_all_formulas(as_adjacency(g))
        assert len(forms) == 5
        mats = [np.asarray(D) for D in forms.values()]
        scale = np.abs(mats[0]).max()
        for M in mats[1:]:
            assert np.abs(M - mats[0]).max() <= 1e-11 * scale


def test_long_walk_golden_ratio_on_paths():
    D4 = np.asarray(long_walk_distance(as_adjacency(path_graph(4))))
    assert D4[0, 1] / D4[1, 2] == pytest.approx(GOLDEN, rel=1e-12)
    D5 = np.asarray(long_walk_distance(as_adjacency(path_graph(5))))
    assert D5[0, 1] / D5[1, 2] == pytest.approx(2.0, rel=1e-12)


def test_long_walk_compensated_path(wp4):
    D = np.asarray(long_walk_distance(as_adjacency(wp4)))
    for i in range(3):
        assert D[i, i + 1] == pytest.approx(0.75, rel=1e-12)


def test_resistance_series_and_cycle(p4, c4):
    D = np.asarray(resistance_distance(p4))
    assert D[0, 1] == pytest.approx(1.0)
    assert D[0, 2] == pytest.approx(2.0)
    assert D[0, 3] == pytest.approx(3.0)
    Dc = np.asarray(resistance_distance(c4))
    assert Dc[0, 1] == pytest.approx(0.75)
    assert Dc[0, 2] == pytest.approx(1.0)


def test_resistance_formulas_agree(p4, c4, multi5):
    for g in (p4, c4, multi5):
        forms = resistance_all_formulas(g)
        mats = [np.asarray(D) for D in forms.values()]
        scale = np.abs(mats[0]).max()
        for M in mats[1:]:
            assert np.abs(M - mats[0]).max() <= 1e-11 * scale


def test_resistance_ignores_loops(multi5):
    from walkdist import WeightedMultigraph
    stripped = WeightedMultigraph(
        labels=multi5.labels,
        edges=tuple(e for e in multi5.edges if not e.is_loop))
    assert np.allclose(np.asarray(resistance_distance(multi5)),
                       np.asarray(resistance_distance(stripped)))


def test_laplacian_ginverse_properties(multi5):
    L = as_laplacian(multi5)
    for kind in ("group", "shifted"):
        Z = laplacian_ginverse(L, kind)
        assert Z.is_ginverse_of(L)
    # the group inverse commutes with L and is reflexive
    Zg = np.asarray(laplacian_ginverse(L, "group"))
    assert np.allclose(L @ Zg, Zg @ L, atol=1e-10)
    assert np.allclose(Zg @ L @ Zg, Zg, atol=1e-10)


def test_laplacian_ginverse_rejects_non_laplacian(p4):
    with pytest.raises(Exception):
        laplacian_ginverse(as_adjacency(p4))


def test_para_laplacian_ginverse(multi5):
    A = as_adjacency(multi5)
    sd = perron(A)
    Lam = sd.rho * np.eye(A.shape[0]) - A
    for kind in ("group", "shifted"):
        Z = para_laplacian_ginverse(Lam, sd.p_tilde, kind)
        assert Z.is_ginverse_of(Lam)


def test_long_walk_reduced_any_pivot(multi5):
    A = as_adjacency(multi5)
    ref = np.asarray(long_walk_distance(A))
    ref_r = np.asarray(resistance_distance(multi5))
    for u, v in ((0, 0), (1, 3), (4, 2)):
        got = np.asarray(long_walk_via_reduced(A, u, v))
        assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()
        got_r = np.asarray(resistance_via_reduced(multi5, u, v))
        assert np.abs(got_r - ref_r).max() <= 1e-10 * np.abs(ref_r).max()


def _quadratic_form(Z, scale):
    """z'Zz for every z = e_i/scale_i - e_j/scale_j."""
    W = Z / np.outer(scale, scale)
    w = np.diag(W)
    return w[:, None] + w[None, :] - 2.0 * W


def test_limit_metrics_match_pseudoinverse_at_n150():
    # A random graph with a tiny Perron entry: per-vertex minor solves
    # lose digits there (off by 6e-8), one g-inverse solve does not. The
    # references are pseudoinverse quadratic forms, each from one eigh.
    g = random_multigraph(np.random.default_rng(0), 150, extra_edges=75)
    A = as_adjacency(g)
    n = A.shape[0]
    lam, V = np.linalg.eigh(A)
    lw_ref = _quadratic_form((V[:, :-1] / (lam[-1] - lam[:-1])) @ V[:, :-1].T,
                             np.sqrt(n) * np.abs(V[:, -1]))
    mu, U = np.linalg.eigh(as_laplacian(g))
    res_ref = _quadratic_form((U[:, 1:] / mu[1:]) @ U[:, 1:].T, np.ones(n))
    for D, ref in ((long_walk_distance(A), lw_ref), (long_ewalk_distance(g), lw_ref),
                   (resistance_distance(g), res_ref)):
        assert np.abs(np.asarray(D) - ref).max() <= 1e-11 * np.abs(ref).max()


def test_limit_sweep_monotone_toward_shortest_path(p4):
    pts = limit_sweep(walk_distance, p4, (1e-1, 1e-2, 1e-3),
                      shortest_path_matrix(p4))
    devs = [pt.deviation for pt in pts]
    assert all(pt.failure is None for pt in pts)
    assert devs == sorted(devs, reverse=True)


def test_limit_sweep_captures_failures(p4):
    # alpha=1e-4 underflows the e-walk transform even in extended precision
    pts = limit_sweep(lambda g, a: ewalk_distance(g, a), p4, (1e-1, 1e-4),
                      weighted_shortest_path_matrix(p4))
    assert pts[0].failure is None
    assert pts[1].failure is not None
    assert np.isnan(pts[1].deviation)
