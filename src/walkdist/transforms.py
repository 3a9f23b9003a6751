"""Graph transformations behind the metric equivalences.

Three constructions connect the metric families to each other:

* balance_graph attaches loops until every weighted degree equals m.
  Loops cancel in the Laplacian, so the balanced graph keeps L(G) while
  gaining a trivial spectral structure (rho = m, uniform Perron vector).
  Consequence: log-forest distances of G are walk distances of the
  balanced graph, and the resistance of G is its long-walk distance.
* general_balance does the same at the matrix level for an arbitrary
  transformed Laplacian, producing an adjacency with row sums below 1
  whose walk weights are a scalar multiple of the forest proximity.
* similarity_transform conjugates the adjacency by diag(p'), which
  turns long-walk distances of G into resistances of the new graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GraphInputError
from .graph import (
    EdgeRecord,
    WeightedMultigraph,
    as_adjacency,
    as_laplacian,
    build_adjacency,
    from_adjacency,
    map_edge_weights,
    require_connected,
)
# perron stays importable here: bench/tracing.py wraps it in every module that imports it
from .spectral import perron
from .walk import _spectral

__all__ = [
    "BalanceGraph",
    "balance_graph",
    "general_balance",
    "similarity_transform",
]

# Degree deficits below this (relative to m) are treated as already
# balanced; adding loops of such weights would only inject noise.
BALANCE_TOL = 1e-12


@dataclass(frozen=True)
class BalanceGraph:
    """A graph plus the loop-augmented copy with uniform weighted degrees.

    result contains every edge of base unchanged, plus one loop per
    deficient vertex bringing its weighted degree (loops counted once)
    up to m. The Laplacians of base and result are identical.
    """

    base: WeightedMultigraph
    m: float
    result: WeightedMultigraph


def balance_graph(g: WeightedMultigraph, m: float | None = None) -> BalanceGraph:
    """Attach loops so every vertex has weighted degree exactly m.

    The weighted degree of i is the row sum of the adjacency matrix
    (each loop's weight counted once). m defaults to the maximum degree,
    the smallest admissible value; any larger m works too and changes
    none of the Laplacian-derived quantities. The result has spectral
    radius m with uniform Perron vector.
    """
    require_connected(g)
    A = np.asarray(build_adjacency(g))
    degrees = A.sum(axis=1)
    max_degree = float(degrees.max())
    if m is None:
        m = max_degree
    elif m < max_degree * (1.0 - BALANCE_TOL):
        raise GraphInputError(
            f"m={m!r} is below the maximum weighted degree {max_degree!r}"
        )
    loops = []
    for label, deg in zip(g.labels, degrees):
        deficit = m - float(deg)
        if deficit > BALANCE_TOL * max(1.0, m):
            loops.append(EdgeRecord(label, label, deficit))
    result = WeightedMultigraph(labels=g.labels, edges=g.edges + tuple(loops))
    return BalanceGraph(base=g, m=float(m), result=result)


def general_balance(g_or_laplacian, m_alpha: float | None = None) -> tuple[np.ndarray, float]:
    """Adjacency A = (m+1)^(-1) (m*I - L) with constant row sums m/(m+1).

    Accepts a graph (its Laplacian is built) or a Laplacian matrix
    directly (recognized by its zero row sums). m_alpha must be at least
    the largest diagonal entry of L so the result stays nonnegative; it
    defaults to exactly that. Returns the adjacency together with the
    m_alpha used, because (I - A)^(-1) = (m_alpha + 1) * (I + L)^(-1)
    and callers comparing against the forest proximity need the factor.
    """
    if isinstance(g_or_laplacian, WeightedMultigraph):
        L = as_laplacian(g_or_laplacian)
    else:
        L = np.asarray(g_or_laplacian, dtype=float)
        if L.ndim != 2 or L.shape[0] != L.shape[1]:
            raise GraphInputError("need a square Laplacian matrix or a graph")
        if np.abs(L.sum(axis=1)).max() > 1e-8 * max(1.0, np.abs(L).max()):
            raise GraphInputError("matrix rows must sum to zero (not a Laplacian)")
    max_diag = float(np.diag(L).max())
    if m_alpha is None:
        m_alpha = max_diag
    elif m_alpha < max_diag * (1.0 - BALANCE_TOL):
        raise GraphInputError(
            f"m_alpha={m_alpha!r} is below the largest Laplacian diagonal {max_diag!r}"
        )
    n = L.shape[0]
    A = (m_alpha * np.eye(n) - L) / (m_alpha + 1.0)
    return A, float(m_alpha)


def similarity_transform(g) -> WeightedMultigraph:
    """Graph with adjacency P'AP', P' = diag(sqrt(n) * unit Perron vector).

    Each edge weight picks up the factor p'_u * p'_v of its endpoints.
    Regular graphs are fixed points (p' is all ones). The transformed
    Laplacian still has zero row sums, and the resistance distance of
    the result equals the long-walk distance of the input.
    """
    if not isinstance(g, WeightedMultigraph):
        g = from_adjacency(as_adjacency(g), getattr(g, "labels", None))
    require_connected(g)
    sd = _spectral(g)[1]
    pos = {label: k for k, label in enumerate(g.labels)}
    return map_edge_weights(
        g, lambda e: sd.p_prime[pos[e.a]] * sd.p_prime[pos[e.b]] * e.weight
    )
