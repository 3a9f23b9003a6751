import numpy as np
import pytest

from walkdist import (
    DisconnectedGraphError,
    GraphInputError,
    as_adjacency,
    cycle_graph,
    path_graph,
    perron,
    submatrix_spectral_radius,
)

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def test_perron_p4_root_is_golden_ratio(p4):
    sd = perron(as_adjacency(p4))
    assert sd.rho == pytest.approx(GOLDEN, rel=1e-12)


def test_perron_cycle_is_regular(c4):
    sd = perron(as_adjacency(c4))
    assert sd.rho == pytest.approx(2.0, rel=1e-12)
    assert np.allclose(sd.p, 0.25)


def test_perron_normalizations(multi5):
    sd = perron(as_adjacency(multi5))
    n = multi5.n
    assert sd.p.sum() == pytest.approx(1.0)
    assert np.linalg.norm(sd.p_tilde) == pytest.approx(1.0)
    assert np.allclose(sd.p_prime, np.sqrt(n) * sd.p_tilde)
    assert (sd.p > 0).all()


@pytest.mark.parametrize("n", [500, 1000])
def test_perron_long_path_matches_closed_form(n):
    # The spectral gap of P_n shrinks like 1/n^2, which is where an
    # iterative Perron solver stalls; the root is 2cos(pi/(n+1)).
    sd = perron(as_adjacency(path_graph(n)))
    assert abs(sd.rho - 2.0 * np.cos(np.pi / (n + 1))) <= 1e-12
    assert (sd.p > 0).all()


def test_perron_is_eigenpair(multi5):
    A = as_adjacency(multi5)
    sd = perron(A)
    assert np.abs(A @ sd.p - sd.rho * sd.p).max() < 1e-10


def test_perron_rejects_bad_input():
    with pytest.raises(GraphInputError):
        perron(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(GraphInputError):
        perron(np.array([[0.0, 1.0], [2.0, 0.0]]))
    for bad in (np.inf, np.nan):
        with pytest.raises(GraphInputError):
            perron(np.array([[0.0, bad], [bad, 0.0]]))


def test_perron_rejects_bare_block_diagonal_matrix():
    # two components: reducible, so the Perron vector is not unique
    A = np.zeros((5, 5))
    A[0, 1] = A[1, 0] = 1.0
    A[2, 3] = A[3, 2] = A[3, 4] = A[4, 3] = 2.0
    with pytest.raises(DisconnectedGraphError):
        perron(A)
    A[1, 2] = A[2, 1] = 0.5  # now connected
    assert (perron(A).p > 0).all()


def test_submatrix_radius_strictly_smaller(p4, c4, multi5):
    for g in (p4, c4, multi5):
        A = as_adjacency(g)
        rho = perron(A).rho
        for j in range(A.shape[0]):
            assert submatrix_spectral_radius(A, j) < rho


def test_submatrix_radius_known_value(p4):
    # dropping an end of P4 leaves P3, whose root is sqrt(2)
    A = as_adjacency(p4)
    assert submatrix_spectral_radius(A, 0) == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_paths_root_approaches_two():
    rhos = [perron(as_adjacency(path_graph(n))).rho for n in (3, 5, 9, 15)]
    assert all(b > a for a, b in zip(rhos, rhos[1:]))
    assert rhos[-1] < 2.0
