import warnings

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from walkdist import (
    DisconnectedGraphError,
    DisconnectedGraphWarning,
    EdgeListParseError,
    EdgeRecord,
    GraphInputError,
    WeightedMultigraph,
    as_adjacency,
    as_laplacian,
    build_adjacency,
    cycle_graph,
    from_adjacency,
    laplacian,
    map_edge_weights,
    para_laplacian,
    parse_edge_list,
    path_graph,
    perron,
    require_connected,
    separates,
    serialize_edge_list,
)


def test_edge_record_basics():
    e = EdgeRecord("a", "b", 2.0)
    assert not e.is_loop
    assert e.length == 0.5
    assert EdgeRecord("a", "a", 1.0).is_loop


def test_multigraph_validation():
    with pytest.raises(GraphInputError):
        WeightedMultigraph(labels=("a",), edges=())
    with pytest.raises(GraphInputError):
        WeightedMultigraph(labels=("a", "a"), edges=())
    with pytest.raises(GraphInputError):
        WeightedMultigraph(labels=("a", "b"), edges=(EdgeRecord("a", "z", 1.0),))
    with pytest.raises(GraphInputError):
        WeightedMultigraph(labels=("a", "b"), edges=(EdgeRecord("a", "b", -1.0),))
    with pytest.raises(GraphInputError):
        WeightedMultigraph(labels=("a", "b"), edges=(EdgeRecord("a", "b", float("nan")),))


def test_position_accepts_labels_and_indices(p4):
    assert p4.position("3") == 2
    assert p4.position(2) == 2
    with pytest.raises(GraphInputError):
        p4.position("zz")
    with pytest.raises(GraphInputError):
        p4.position(99)


def test_adjacency_aggregates_parallel_edges(multi5):
    A = as_adjacency(multi5)
    ia, ib = multi5.position("a"), multi5.position("b")
    assert A[ia, ib] == pytest.approx(1.2 + 0.7)
    assert A[ib, ia] == pytest.approx(1.2 + 0.7)
    ic = multi5.position("c")
    # a loop lands on the diagonal once, not doubled
    assert A[ic, ic] == pytest.approx(0.9)
    assert np.allclose(A, A.T)


def test_laplacian_rows_sum_to_zero_and_loops_cancel(multi5):
    L = np.asarray(laplacian(multi5))
    assert np.allclose(L.sum(axis=1), 0.0)
    no_loops = WeightedMultigraph(
        labels=multi5.labels,
        edges=tuple(e for e in multi5.edges if not e.is_loop),
    )
    assert np.allclose(L, np.asarray(laplacian(no_loops)))
    assert np.allclose(L, as_laplacian(multi5))


def test_para_laplacian_kernel_is_perron_vector(p4):
    A = as_adjacency(p4)
    sd = perron(A)
    Lam = np.asarray(para_laplacian(A, sd.rho))
    assert np.abs(Lam @ sd.p).max() < 1e-12
    vals = np.linalg.eigvalsh(Lam)
    assert vals.min() > -1e-12


def test_para_laplacian_rejects_wrong_rho(p4):
    with pytest.raises(GraphInputError):
        para_laplacian(as_adjacency(p4), 3.7)


def test_separates_on_path(p4):
    # interior vertices cut the path; endpoints only separate themselves
    assert separates(p4, "2", "1", "3")
    assert separates(p4, "2", "1", "4")
    assert not separates(p4, "3", "1", "2")
    assert separates(p4, "1", "1", "4")  # endpoint convention
    with pytest.raises(GraphInputError):
        separates(p4, "2", "1", "1")


def test_separates_on_cycle(c4):
    for j in c4.labels:
        for i in c4.labels:
            for k in c4.labels:
                if i == k:
                    continue
                expect = j in (i, k)
                assert separates(c4, j, i, k) == expect


def test_parse_edge_list_roundtrip(multi5):
    text = serialize_edge_list(multi5)
    g = parse_edge_list(text)
    assert g.labels == multi5.labels
    assert g.edges == multi5.edges


def test_parse_edge_list_comments_and_blanks():
    g = parse_edge_list("""
    # a tiny triangle
    x y 1.0
    y z 2.0   # trailing comment

    z x 0.5
    """)
    assert g.labels == ("x", "y", "z")
    assert len(g.edges) == 3


@pytest.mark.parametrize("bad", [
    "a b",             # missing weight
    "a b one",         # non-numeric weight
    "a b -2",          # nonpositive weight
    "a b 1 extra",     # too many fields
    "a a 1.0",         # only one vertex in the whole file
])
def test_parse_edge_list_rejects(bad):
    with pytest.raises(EdgeListParseError):
        parse_edge_list(bad)


def test_parse_disconnected_warns_then_operations_fail():
    with pytest.warns(DisconnectedGraphWarning):
        g = parse_edge_list("a b 1\nc d 1\n")
    assert not g.is_connected
    with pytest.raises(DisconnectedGraphError):
        require_connected(g)


def test_path_and_cycle_generators():
    p = path_graph(4, [1.0, 2.0, 3.0])
    assert p.labels == ("1", "2", "3", "4")
    A = as_adjacency(p)
    assert A[0, 1] == 1.0 and A[1, 2] == 2.0 and A[2, 3] == 3.0
    c = cycle_graph(5)
    assert len(c.edges) == 5
    assert as_adjacency(c).sum() == pytest.approx(10.0)
    with pytest.raises(GraphInputError):
        path_graph(4, [1.0])


def test_from_adjacency_inverse_of_build(multi5):
    A = np.asarray(build_adjacency(multi5))
    g = from_adjacency(A, multi5.labels)
    # parallel structure is flattened but the matrix comes back identical
    assert np.allclose(as_adjacency(g), A)
    with pytest.raises(GraphInputError):
        from_adjacency(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(GraphInputError):
        from_adjacency(np.array([[0.0, -1.0], [-1.0, 0.0]]))


def test_map_edge_weights_preserves_structure(multi5):
    doubled = map_edge_weights(multi5, lambda e: 2.0 * e.weight)
    assert doubled.labels == multi5.labels
    assert len(doubled.edges) == len(multi5.edges)
    assert np.allclose(as_adjacency(doubled), 2.0 * as_adjacency(multi5))


def test_labeled_matrix_addressing(multi5):
    M = build_adjacency(multi5)
    assert M.entry("a", "b") == pytest.approx(1.9)
    sub = M.drop("c")
    assert sub.labels == ("a", "b", "d", "e")
    assert sub.entry("a", "b") == pytest.approx(1.9)
    with pytest.raises(KeyError):
        sub.pos("c")


def test_as_adjacency_rejects_nonsquare():
    with pytest.raises(GraphInputError):
        as_adjacency(np.ones((2, 3)))


@given(st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4),
              st.floats(min_value=1e-6, max_value=1e6,
                        allow_nan=False, allow_infinity=False)),
    min_size=1, max_size=8))
def test_edge_list_serialize_is_parse_inverse(triples):
    assume(any(a != b for a, b, _ in triples))  # parser wants >= 2 vertices
    text = "".join(f"n{a} n{b} {w!r}\n" for a, b, w in triples)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        g = parse_edge_list(text)
        h = parse_edge_list(serialize_edge_list(g))
    # a disconnected graph warns once per parse, a connected one never
    expected = [] if g.is_connected else [DisconnectedGraphWarning] * 2
    assert [w.category for w in caught] == expected
    assert h.labels == g.labels
    assert h.edges == g.edges
