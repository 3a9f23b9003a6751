"""Weighted multigraph model, derived matrices, and edge-list I/O.

A graph is a sequence of vertex labels plus a sequence of edge records.
Parallel edges and loops are allowed; weights must be strictly positive.
Matrices derived from a graph are reported in vertex declaration order.

The edge-list text format is one edge per line, ``<label_a> <label_b>
<weight>``, with ``#`` starting a comment. Repeated lines create parallel
edges and ``a a w`` creates a loop. The vertex set is the union of the
labels, ordered by first appearance.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DisconnectedGraphError, EdgeListParseError, GraphInputError

__all__ = [
    "EdgeRecord",
    "WeightedMultigraph",
    "LabeledMatrix",
    "DisconnectedGraphWarning",
    "build_adjacency",
    "laplacian",
    "para_laplacian",
    "separates",
    "parse_edge_list",
    "serialize_edge_list",
    "as_adjacency",
    "as_laplacian",
    "map_edge_weights",
    "require_connected",
]


class DisconnectedGraphWarning(UserWarning):
    """Emitted when a parsed graph is disconnected.

    Parsing succeeds, but metric operations on the graph will raise
    DisconnectedGraphError.
    """


@dataclass(frozen=True)
class EdgeRecord:
    """One edge of a multigraph: two endpoints and a positive weight.

    Equal endpoints mean a loop. The weight is a conductance; its
    reciprocal is the weighted length of the edge.
    """

    a: str
    b: str
    weight: float

    @property
    def is_loop(self) -> bool:
        return self.a == self.b

    @property
    def length(self) -> float:
        """Weighted length 1/w of the edge."""
        return 1.0 / self.weight


@dataclass(frozen=True)
class WeightedMultigraph:
    """An undirected weighted multigraph with at least two vertices.

    Parameters
    ----------
    labels
        Distinct vertex labels in declaration order. All matrices derived
        from the graph use this order for rows and columns.
    edges
        Edge records. Parallel edges and loops are allowed.

    Connectivity is not required at construction time so that files can be
    inspected after parsing; metric operations reject disconnected graphs
    via `require_connected`.
    """

    labels: tuple[str, ...]
    edges: tuple[EdgeRecord, ...]

    def __post_init__(self) -> None:
        labels = tuple(str(v) for v in self.labels)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "edges", tuple(self.edges))
        if len(labels) < 2:
            raise GraphInputError(f"need at least 2 vertices, got {len(labels)}")
        if len(set(labels)) != len(labels):
            raise GraphInputError("vertex labels must be distinct")
        known = set(labels)
        for e in self.edges:
            if e.a not in known or e.b not in known:
                raise GraphInputError(f"edge ({e.a}, {e.b}) references unknown vertex")
            if not np.isfinite(e.weight) or e.weight <= 0:
                raise GraphInputError(
                    f"edge ({e.a}, {e.b}) has nonpositive or nonfinite weight {e.weight!r}"
                )

    @property
    def n(self) -> int:
        return len(self.labels)

    @cached_property
    def index(self) -> dict[str, int]:
        """Label to position map (declaration order)."""
        return {v: i for i, v in enumerate(self.labels)}

    @cached_property
    def is_connected(self) -> bool:
        return set(_components_without(self, -1)) == {0}

    def position(self, vertex: str | int) -> int:
        """Resolve a vertex given as a label or as a 0-based position."""
        if isinstance(vertex, str):
            try:
                return self.index[vertex]
            except KeyError:
                raise GraphInputError(f"unknown vertex {vertex!r}") from None
        pos = int(vertex)
        if not 0 <= pos < self.n:
            raise GraphInputError(f"vertex position {pos} out of range")
        return pos


@dataclass(frozen=True)
class LabeledMatrix:
    """A dense square matrix whose rows and columns are indexed by vertex.

    Submatrix extraction keeps the remaining labels attached to their rows
    and columns, so entries can always be addressed by vertex identity.
    """

    labels: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {values.shape}")
        if values.shape[0] != len(self.labels):
            raise ValueError("label count does not match matrix order")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def n(self) -> int:
        return len(self.labels)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.values, dtype=dtype)

    def pos(self, vertex: str) -> int:
        try:
            return self.labels.index(vertex)
        except ValueError:
            raise KeyError(f"no row/column for vertex {vertex!r}") from None

    def entry(self, a: str, b: str) -> float:
        return float(self.values[self.pos(a), self.pos(b)])

    def row(self, a: str) -> np.ndarray:
        return self.values[self.pos(a)].copy()

    def drop(self, *vertices: str) -> "LabeledMatrix":
        """Submatrix with the given vertices' rows and columns removed."""
        gone = {self.pos(v) for v in vertices}
        keep = [i for i in range(self.n) if i not in gone]
        return LabeledMatrix(
            labels=tuple(self.labels[i] for i in keep),
            values=self.values[np.ix_(keep, keep)],
        )


def as_adjacency(graph_or_matrix) -> np.ndarray:
    """Coerce a graph, LabeledMatrix, or array to a plain adjacency array."""
    if isinstance(graph_or_matrix, WeightedMultigraph):
        return _adjacency_array(graph_or_matrix)
    if isinstance(graph_or_matrix, LabeledMatrix):
        return np.array(graph_or_matrix.values, dtype=float)
    A = np.asarray(graph_or_matrix, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise GraphInputError(f"expected a square matrix, got shape {A.shape}")
    return A


def _adjacency_array(g: WeightedMultigraph) -> np.ndarray:
    A = np.zeros((g.n, g.n))
    for e in g.edges:
        ia, ib = g.index[e.a], g.index[e.b]
        if ia == ib:
            A[ia, ia] += e.weight
        else:
            A[ia, ib] += e.weight
            A[ib, ia] += e.weight
    return A


def build_adjacency(g: WeightedMultigraph) -> LabeledMatrix:
    """Symmetric weighted adjacency matrix.

    a_ij is the total weight of all (i, j) edges; a_ii is the total loop
    weight at i (each loop counted once).
    """
    return LabeledMatrix(labels=g.labels, values=_adjacency_array(g))


def laplacian(g: WeightedMultigraph) -> LabeledMatrix:
    """Laplacian L = diag(A 1) - A.

    Loops contribute equally to the degree diagonal and to A, so they
    cancel and L is loop-invariant. Rows sum to zero.
    """
    A = _adjacency_array(g)
    return LabeledMatrix(labels=g.labels, values=np.diag(A.sum(axis=1)) - A)


def as_laplacian(graph_or_matrix) -> np.ndarray:
    A = as_adjacency(graph_or_matrix)
    return np.diag(A.sum(axis=1)) - A


def para_laplacian(A, rho: float, tol: float = 1e-8) -> LabeledMatrix:
    """Spectral-shift Laplacian rho*I - A for the Perron root rho.

    The result is symmetric PSD with a one-dimensional kernel spanned by
    the Perron vector. `rho` is validated: it must be the top eigenvalue
    of A to within `tol` (relative), otherwise the kernel property fails.
    """
    labels = A.labels if isinstance(A, LabeledMatrix) else None
    M = as_adjacency(A)
    top = float(np.linalg.eigvalsh(M)[-1])
    scale = max(1.0, abs(top))
    if abs(rho - top) > tol * scale:
        raise GraphInputError(
            f"rho={rho!r} is not the Perron root of A (top eigenvalue {top!r})"
        )
    values = rho * np.eye(M.shape[0]) - M
    if labels is None:
        labels = tuple(str(i) for i in range(M.shape[0]))
    return LabeledMatrix(labels=labels, values=values)


def separates(g: WeightedMultigraph, j, i, k) -> bool:
    """True iff vertex j lies on every path from i to k.

    Equivalently: j is one of the endpoints, or removing j disconnects
    i from k.
    """
    pj, pi, pk = g.position(j), g.position(i), g.position(k)
    if pi == pk:
        raise GraphInputError("separates() requires i != k")
    comp = _components_without(g, pj)
    return comp[pi] != comp[pk]


def _components_without(g: WeightedMultigraph, j: int) -> list[int]:
    """comp[v] names the component of vertex v in g minus vertex j, and
    comp[j] is -1 (j = -1 removes nothing).

    So j separates i from k exactly when comp[i] != comp[k], an endpoint
    j included. One search per j answers every pair (i, k).
    """
    adj: list[set[int]] = [set() for _ in range(g.n)]
    for e in g.edges:
        ia, ib = g.index[e.a], g.index[e.b]
        adj[ia].add(ib)
        adj[ib].add(ia)
    comp = [-1] * g.n
    for root in range(g.n):
        if root == j or comp[root] >= 0:
            continue
        comp[root], stack = root, [root]
        while stack:
            for u in adj[stack.pop()]:
                if u != j and comp[u] < 0:
                    comp[u] = root
                    stack.append(u)
    return comp


def require_connected(g: WeightedMultigraph) -> None:
    """Fail fast on disconnected inputs to metric operations."""
    if not g.is_connected:
        raise DisconnectedGraphError(
            "graph is disconnected; walk and resistance metrics need a connected graph"
        )


def _require_usable(graph_or_matrix) -> None:
    """require_connected for a graph; a bare matrix is not checked here."""
    if isinstance(graph_or_matrix, WeightedMultigraph):
        require_connected(graph_or_matrix)


def _labels_of(graph_or_matrix) -> tuple[str, ...] | None:
    """Vertex labels of a graph or LabeledMatrix; None for a bare array."""
    return getattr(graph_or_matrix, "labels", None)


def map_edge_weights(
    g: WeightedMultigraph, fn: Callable[[EdgeRecord], float]
) -> WeightedMultigraph:
    """New graph with each edge's weight replaced by fn(edge).

    Structure (vertices, edge multiplicity, endpoints) is preserved;
    only weights change. Used by the parametric weight transforms.
    """
    edges = tuple(EdgeRecord(e.a, e.b, float(fn(e))) for e in g.edges)
    return WeightedMultigraph(labels=g.labels, edges=edges)


def parse_edge_list(text: str) -> WeightedMultigraph:
    """Parse edge-list text into a WeightedMultigraph.

    Disconnected graphs parse successfully but emit a
    DisconnectedGraphWarning; metric operations reject them later.
    """
    labels: list[str] = []
    seen: set[str] = set()
    edges: list[EdgeRecord] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise EdgeListParseError(
                f"expected '<label_a> <label_b> <weight>', got {raw.strip()!r}", lineno
            )
        a, b, wtext = parts
        try:
            w = float(wtext)
        except ValueError:
            raise EdgeListParseError(f"bad weight {wtext!r}", lineno) from None
        if not np.isfinite(w) or w <= 0:
            raise EdgeListParseError(f"weight must be positive, got {wtext}", lineno)
        for v in (a, b):
            if v not in seen:
                seen.add(v)
                labels.append(v)
        edges.append(EdgeRecord(a, b, w))
    if len(labels) < 2:
        raise EdgeListParseError(f"need at least 2 vertices, got {len(labels)}")
    g = WeightedMultigraph(labels=tuple(labels), edges=tuple(edges))
    if not g.is_connected:
        warnings.warn(
            "parsed graph is disconnected; metric operations will fail",
            DisconnectedGraphWarning,
            stacklevel=2,
        )
    return g


def serialize_edge_list(g: WeightedMultigraph) -> str:
    """Inverse of parse_edge_list: one `a b weight` line per edge."""
    lines = [f"{e.a} {e.b} {e.weight!r}" for e in g.edges]
    return "\n".join(lines) + "\n"


def path_graph(n: int, weights: Sequence[float] | None = None) -> WeightedMultigraph:
    """Path on vertices "1".."n" with optional per-edge weights."""
    if weights is None:
        weights = [1.0] * (n - 1)
    if len(weights) != n - 1:
        raise GraphInputError(f"path on {n} vertices needs {n - 1} weights")
    labels = tuple(str(i) for i in range(1, n + 1))
    edges = tuple(
        EdgeRecord(str(i), str(i + 1), float(w)) for i, w in enumerate(weights, start=1)
    )
    return WeightedMultigraph(labels=labels, edges=edges)


def cycle_graph(n: int, weights: Sequence[float] | None = None) -> WeightedMultigraph:
    """Cycle on vertices "1".."n"."""
    if weights is None:
        weights = [1.0] * n
    labels = tuple(str(i) for i in range(1, n + 1))
    edges = tuple(
        EdgeRecord(str(i + 1), str((i + 1) % n + 1), float(weights[i])) for i in range(n)
    )
    return WeightedMultigraph(labels=labels, edges=edges)


def from_adjacency(A, labels: Iterable[str] | None = None) -> WeightedMultigraph:
    """Simple-graph-plus-loops view of a symmetric nonnegative matrix.

    Each nonzero upper-triangle entry becomes one edge; diagonal entries
    become loops. Parallel-edge structure is not recoverable from a
    matrix, so the result has at most one edge per vertex pair.
    """
    M = as_adjacency(A)
    if not np.allclose(M, M.T):
        raise GraphInputError("adjacency matrix must be symmetric")
    if (M < 0).any():
        raise GraphInputError("adjacency matrix must be nonnegative")
    n = M.shape[0]
    if labels is None:
        labels = tuple(str(i) for i in range(1, n + 1))
    labels = tuple(labels)
    edges = []
    for i in range(n):
        if M[i, i] != 0:
            edges.append(EdgeRecord(labels[i], labels[i], float(M[i, i])))
        for j in range(i + 1, n):
            if M[i, j] != 0:
                edges.append(EdgeRecord(labels[i], labels[j], float(M[i, j])))
    return WeightedMultigraph(labels=labels, edges=tuple(edges))
