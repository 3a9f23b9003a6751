"""Brute-force walk enumeration and property-checking oracles.

Everything here is deliberately naive. Walks are enumerated one by one
over edge identities (so parallel edges count separately and a loop is
a single traversal choice), layer by layer: every walk is one array row
that is extended by each edge leaving its endpoint, and each walk's
weight is multiplied edge by edge in walk order. Walks are never merged
by endpoint, so the sums stay independent of the matrix powers they
check. Property checks scan every triple. The point is to validate the
closed-form linear algebra against computations that are simple enough
to be obviously faithful to the definitions.

Truncated sums come with explicit geometric tail bounds, so "oracle
agrees with closed form" always means "within the truncation bound",
never "equals a number we happened to compute".

Budget guards keep the exponential enumeration honest: counts are
estimated from edge-multiplicity matrix powers before any walk is
built, and an EnumerationBudgetError is raised instead of hanging.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import EnumerationBudgetError, GraphInputError, NumericalError
from .graph import (WeightedMultigraph, _components_without, as_adjacency, from_adjacency,
                    map_edge_weights)
# perron stays importable here: bench/tracing.py wraps it in every module that imports it
from .spectral import perron, submatrix_spectral_radius
from .walk import _spectral

__all__ = [
    "WalkRecord",
    "TruncationBound",
    "CheckReport",
    "DEFAULT_BUDGET",
    "iter_walks",
    "walk_weights_by_length",
    "walk_weights_by_powers",
    "hitting_weights_by_length",
    "commute_cycle_weights_by_length",
    "max_enumeration_depth",
    "enumerate_walk_weight",
    "enumerate_hitting_weight",
    "enumerate_commute_cycle_weight",
    "enumerate_avoiding_cycles",
    "check_metric",
    "check_geodetic",
    "check_transition",
    "check_psd_centered",
    "separates_by_enumeration",
]

DEFAULT_BUDGET = 10_000_000
SLICE_ROWS = 1 << 12


@dataclass(frozen=True)
class WalkRecord:
    """One explicit walk: vertices visited, edges traversed, and weights.

    vertices has one more entry than edge_ids. weight is the product of
    traversed edge weights (1.0 for the trivial walk); weighted_length
    is the sum of 1/w over the edge multiset (0.0 for the trivial walk).
    """

    vertices: tuple[int, ...]
    edge_ids: tuple[int, ...]
    weight: float
    weighted_length: float

    @property
    def length(self) -> int:
        return len(self.edge_ids)


@dataclass(frozen=True)
class TruncationBound:
    """Length cap K of a truncated walk sum and a bound on the dropped tail."""

    K: int
    tail: float


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a property scan.

    failures are hard property violations; notes record borderline
    observations (for example geodetic triples inside the dead zone
    between the equality tolerance and the defect threshold). Checks
    report rather than raise, so a failing property shows up as
    `not report.passed` in a test assertion, with the offending triples
    in the message.
    """

    name: str
    passed: bool
    checked: int
    failures: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()


def _as_multigraph(g) -> WeightedMultigraph:
    if isinstance(g, WeightedMultigraph):
        return g
    return from_adjacency(as_adjacency(g), getattr(g, "labels", None))


def _adjacency_lists(g: WeightedMultigraph) -> list[list[tuple[int, float, int]]]:
    """Per-vertex traversal options (neighbor position, weight, edge id).

    A loop appears once in its vertex's list: traversing it is a single
    choice, matching how a loop weight enters the adjacency matrix once.
    """
    nbrs: list[list[tuple[int, float, int]]] = [[] for _ in g.labels]
    for eid, e in enumerate(g.edges):
        u, v = g.position(e.a), g.position(e.b)
        if u == v:
            nbrs[u].append((u, e.weight, eid))
        else:
            nbrs[u].append((v, e.weight, eid))
            nbrs[v].append((u, e.weight, eid))
    return nbrs


def _count_matrix(g: WeightedMultigraph) -> np.ndarray:
    """Edge-multiplicity matrix: C[i, j] = number of i-j edges (loops once)."""
    return as_adjacency(map_edge_weights(g, lambda e: 1.0))


def _cumulative_walk_counts(g: WeightedMultigraph, source: int, K: int) -> np.ndarray:
    """Number of walks from source of length <= k, for k = 0..K."""
    C = _count_matrix(g)
    row = np.zeros(len(g.labels))
    row[source] = 1.0
    counts = np.ones(K + 1)
    for k in range(1, K + 1):
        row = row @ C
        counts[k] = row.sum()
    return np.cumsum(counts)


def _check_budget(g: WeightedMultigraph, source: int, K: int, budget: int) -> None:
    estimate = _cumulative_walk_counts(g, source, K)[-1]
    if estimate > budget:
        raise EnumerationBudgetError(
            f"about {estimate:.2e} walks of length <= {K} from vertex {source}; "
            f"budget is {budget:,}"
        )


def max_enumeration_depth(g, source, budget: int = DEFAULT_BUDGET,
                          hard_cap: int = 60) -> int:
    """Largest K whose estimated walk count from source fits the budget."""
    mg = _as_multigraph(g)
    counts = _cumulative_walk_counts(mg, mg.position(source), hard_cap)
    # cumulative counts never decrease, so the lengths that fit are 1..K
    return int(np.count_nonzero(counts[1:] <= budget))


def iter_walks(g, source, K: int, budget: int = DEFAULT_BUDGET) -> Iterator[WalkRecord]:
    """Yield every walk from source of length at most K, trivial walk first.

    Depth-first, so each walk of length < K is followed by its one-edge
    extensions. Exists for definitional tests; the summing oracles below
    enumerate the same walks layer by layer without building records.
    """
    mg = _as_multigraph(g)
    src = mg.position(source)
    _check_budget(mg, src, K, budget)
    nbrs = _adjacency_lists(mg)

    def dfs(v, vertices, edge_ids, weight, wlen):
        yield WalkRecord(vertices=tuple(vertices), edge_ids=tuple(edge_ids),
                         weight=weight, weighted_length=wlen)
        if len(edge_ids) == K:
            return
        for (u, w, eid) in nbrs[v]:
            vertices.append(u)
            edge_ids.append(eid)
            yield from dfs(u, vertices, edge_ids, weight * w, wlen + 1.0 / w)
            vertices.pop()
            edge_ids.pop()

    yield from dfs(src, [src], [], 1.0, 0.0)


def _grow_walks(mg: WeightedMultigraph, start: int, K: int,
                visit: Callable[[int, np.ndarray, np.ndarray, np.ndarray], np.ndarray],
                mark: int = -1) -> None:
    """Enumerate the walks from start of length <= K, layer by layer.

    Each walk is one row: its endpoint, its weight, and whether it has
    visited `mark`. visit(k, v, wt, flag) sees rows of length-k walks,
    bins them, and returns the mask of rows to extend by one more edge
    (ignored at k == K). The edges leaving each vertex come in
    _adjacency_lists order, so a row's weight is the same product, in
    the same order, that a depth-first search would form. A layer is
    extended SLICE_ROWS rows at a time, depth first, which bounds memory
    by K * SLICE_ROWS * (max degree) rows however many walks there are.
    """
    nbrs = _adjacency_lists(mg)
    offsets = np.cumsum([0] + [len(opts) for opts in nbrs])
    heads = np.array([u for opts in nbrs for (u, _, _) in opts], dtype=np.intp)
    weights = np.array([w for opts in nbrs for (_, w, _) in opts], dtype=float)
    stack = [(0, np.array([start]), np.ones(1), np.array([start == mark]))]
    while stack:
        k, v, wt, flag = stack.pop()
        grow = visit(k, v, wt, flag)
        if k == K:
            continue
        v, wt, flag = v[grow], wt[grow], flag[grow]
        degree = offsets[v + 1] - offsets[v]
        parent = np.repeat(np.arange(v.size), degree)
        # a child's edge slot is its parent's first slot plus its rank
        # among its siblings, which is its row minus the parent's first row
        shift = offsets[v] - (np.cumsum(degree) - degree)
        edge = shift[parent] + np.arange(parent.size)
        v = heads[edge]
        wt = wt[parent] * weights[edge]
        flag = flag[parent] | (v == mark)
        for lo in reversed(range(0, v.size, SLICE_ROWS)):
            hi = lo + SLICE_ROWS
            stack.append((k + 1, v[lo:hi], wt[lo:hi], flag[lo:hi]))


def _walk_bins(mg: WeightedMultigraph, start: int, K: int, avoid: int = -1) -> np.ndarray:
    """Weights of the walks from start that never step onto `avoid`,
    binned (endpoint, length) into an (n, K+1) array.

    With avoid == start, read backward, these are the hitting walks into
    start from every source, binned (source, length): edge weights do
    not care about direction.
    """
    out = np.zeros((len(mg.labels), K + 1))

    def visit(k, v, wt, flag):
        keep = (v != avoid) | (k == 0)
        out[:, k] += np.bincount(v[keep], wt[keep], minlength=out.shape[0])
        return keep

    _grow_walks(mg, start, K, visit)
    return out


def walk_weights_by_length(g, source, K: int, budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """Total walk weight from source, binned by (endpoint, length).

    Returns an (n, K+1) array whose [j, k] entry sums the weights of all
    length-k walks source -> j. Column 0 is the trivial walk indicator.
    Must agree with walk_weights_by_powers to rounding; the enumeration
    is the definition, the powers are the linear algebra.
    """
    mg = _as_multigraph(g)
    src = mg.position(source)
    _check_budget(mg, src, K, budget)
    return _walk_bins(mg, src, K)


def walk_weights_by_powers(g, source, K: int) -> np.ndarray:
    """Same binning as walk_weights_by_length, via adjacency-matrix powers."""
    A = np.asarray(as_adjacency(g), dtype=float)
    mg_source = (_as_multigraph(g).position(source)
                 if isinstance(g, WeightedMultigraph) or isinstance(source, str)
                 else int(source))
    out = np.zeros((A.shape[0], K + 1))
    row = np.zeros(A.shape[0])
    row[mg_source] = 1.0
    out[mg_source, 0] = 1.0
    for k in range(1, K + 1):
        row = row @ A
        out[:, k] = row
    return out


def hitting_weights_by_length(g, i, j, K: int, budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """Weights of hitting walks i -> j (single occurrence of j, at the end),
    binned by length into a (K+1,) array."""
    mg = _as_multigraph(g)
    src, tgt = mg.position(i), mg.position(j)
    _check_budget(mg, src, K, budget)
    out = np.zeros(K + 1)

    def visit(k, v, wt, flag):
        hit = v == tgt
        out[k] += wt[hit].sum()
        return ~hit

    _grow_walks(mg, src, K, visit)
    return out


def commute_cycle_weights_by_length(g, i, j, K: int,
                                    budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """Weights of commute cycles i -> j -> i, binned by total length.

    A commute cycle is a closed walk at i that contains j and has no
    occurrence of i strictly between the first j and the final i; it is
    exactly the concatenation of a hitting walk i -> j with a hitting
    walk j -> i, so this array must equal the convolution of the two
    hitting arrays up to length K.
    """
    mg = _as_multigraph(g)
    vi, vj = mg.position(i), mg.position(j)
    if vi == vj:
        raise GraphInputError("commute cycles need two distinct vertices")
    _check_budget(mg, vi, K, budget)
    out = np.zeros(K + 1)

    def visit(k, v, wt, seen_j):
        # The first return to i after j has been seen ends the cycle by
        # definition, so it is not extended further.
        done = seen_j & (v == vi)
        out[k] += wt[done].sum()
        return ~done

    _grow_walks(mg, vi, K, visit, mark=vj)
    return out


def _geometric_tail(x: float, K: int) -> float:
    """sum_{k > K} x^k for 0 <= x < 1."""
    if x >= 1.0:
        raise NumericalError(f"tail ratio {x} >= 1; truncated sum does not converge")
    return x ** (K + 1) / (1.0 - x)


def _poly_geometric_tail(x: float, K: int) -> float:
    """sum_{k > K} (k+1) x^k for 0 <= x < 1."""
    if x >= 1.0:
        raise NumericalError(f"tail ratio {x} >= 1; truncated sum does not converge")
    return x ** (K + 1) * ((K + 2) - (K + 1) * x) / (1.0 - x) ** 2


def _discount(bins: np.ndarray, t: float) -> float:
    powers = t ** np.arange(bins.shape[-1])
    return float(bins @ powers)


def enumerate_walk_weight(g, t: float, i, j, K: int,
                          budget: int = DEFAULT_BUDGET) -> tuple[float, TruncationBound]:
    """Truncated t-discounted walk weight from i to j, with tail bound.

    Sums t^k * (weight of length-k walks) for k <= K by enumeration
    when the walk count fits the budget (cross-checked against matrix
    powers) and by matrix powers alone otherwise. The tail bound
    n * (t*rho)^(K+1) / (1 - t*rho) dominates the dropped terms, so the
    closed-form resolvent entry must lie within it.
    """
    mg = _as_multigraph(g)
    A, sd = _spectral(mg)
    n, rho = A.shape[0], sd.rho
    if t <= 0 or t * rho >= 1.0:
        raise GraphInputError(f"need 0 < t < 1/rho; got t={t!r}, rho={rho!r}")
    src, tgt = mg.position(i), mg.position(j)
    by_powers = walk_weights_by_powers(A, src, K)
    try:
        bins = walk_weights_by_length(mg, src, K, budget)
    except EnumerationBudgetError:
        bins = by_powers
    else:
        scale = max(by_powers.max(), 1.0)
        if np.abs(bins - by_powers).max() > 1e-10 * scale:
            raise NumericalError(
                "walk enumeration disagrees with matrix powers; "
                "oracle self-check failed"
            )
    value = _discount(bins[tgt], t)
    tail = n * _geometric_tail(t * rho, K)
    return value, TruncationBound(K=K, tail=tail)


def _hitting_tail(A: np.ndarray, t: float, target: int, K: int) -> float:
    """Tail bound for hitting-walk sums toward `target`.

    A length-k hitting walk is a length-(k-1) walk in the graph minus
    the target followed by one edge into the target, so its weight is at
    most rho_minor^(k-1) * ||column of A into target||.
    """
    rho_minor = submatrix_spectral_radius(A, target)
    keep = [k for k in range(A.shape[0]) if k != target]
    col_norm = float(np.linalg.norm(A[keep, target]))
    if rho_minor == 0.0:
        return 0.0 if K >= 1 else col_norm * t
    return (col_norm / rho_minor) * _geometric_tail(t * rho_minor, K)


def enumerate_hitting_weight(g, t: float, i, j, K: int,
                             budget: int = DEFAULT_BUDGET) -> tuple[float, TruncationBound]:
    """Truncated t-discounted hitting-walk weight i -> j, with tail bound.

    Valid for t up to 1/rho(A minus j), beyond the plain walk radius."""
    mg = _as_multigraph(g)
    A = np.asarray(as_adjacency(mg), dtype=float)
    tgt = mg.position(j)
    rho_minor = submatrix_spectral_radius(A, tgt)
    if t <= 0 or t * rho_minor >= 1.0:
        raise GraphInputError(
            f"need 0 < t < 1/rho(minor); got t={t!r}, rho(minor)={rho_minor!r}"
        )
    bins = hitting_weights_by_length(mg, i, j, K, budget)
    return _discount(bins, t), TruncationBound(K=K, tail=_hitting_tail(A, t, tgt, K))


def enumerate_commute_cycle_weight(g, t: float, i, j, K: int,
                                   budget: int = DEFAULT_BUDGET) -> tuple[float, TruncationBound]:
    """Truncated t-discounted commute-cycle weight i <-> j, with tail bound.

    The tail estimate treats a length-m cycle as any split into two
    hitting legs and bounds the convolution with a (m+1) * q^m envelope,
    q = max of the two leg ratios.
    """
    mg = _as_multigraph(g)
    A = np.asarray(as_adjacency(mg), dtype=float)
    vi, vj = mg.position(i), mg.position(j)
    rho_i = submatrix_spectral_radius(A, vi)
    rho_j = submatrix_spectral_radius(A, vj)
    q = max(rho_i, rho_j)
    if t <= 0 or t * q >= 1.0:
        raise GraphInputError(f"need 0 < t < 1/max(leg ratios); got t={t!r}, q={q!r}")
    bins = commute_cycle_weights_by_length(mg, i, j, K, budget)
    keep_i = [k for k in range(A.shape[0]) if k != vi]
    keep_j = [k for k in range(A.shape[0]) if k != vj]
    s = float(np.linalg.norm(A[keep_j, vj]) * np.linalg.norm(A[keep_i, vi]))
    scale = s / (q * q) if q > 0 else 0.0
    tail = scale * _poly_geometric_tail(t * q, K)
    return _discount(bins, t), TruncationBound(K=K, tail=tail)


def enumerate_avoiding_cycles(g, i, j, K: int, jump: bool = False,
                              budget: int = DEFAULT_BUDGET) -> tuple[float, TruncationBound]:
    """Truncated weight of cycles at i avoiding j, evaluated at t = 1/rho.

    Each cycle splits as (walk 1: i -> k staying clear of j) followed by
    (walk 2: a hitting walk k -> i); the sum runs over all split
    endpoints k != j, and each (walk1, walk2) pair counts once. Both
    legs stay summable at t = 1/rho because each avoids a vertex. With
    jump=True the legs are joined through one unweighted edge step
    k -> q instead of meeting at k (a "cycle with a jump", parallel
    edges each contributing a jump of their own), which is the object
    behind the long-e-walk distance; without it the plain avoiding
    cycles recover the long-walk distance via
    d = (c(i,j) + c(j,i)) / (n * rho).
    """
    mg = _as_multigraph(g)
    A, sd = _spectral(mg)
    n = A.shape[0]
    t = 1.0 / sd.rho
    vi, vj = mg.position(i), mg.position(j)
    if vi == vj:
        raise GraphInputError("avoiding cycles need two distinct vertices")
    _check_budget(mg, vi, K, max(budget // 2, 1))
    w1_bins = _walk_bins(mg, vi, K, avoid=vj)
    w2_bins = _walk_bins(mg, vi, K, avoid=vi)
    leg1 = np.array([_discount(w1_bins[k], t) for k in range(n)])
    leg2 = np.array([_discount(w2_bins[k], t) for k in range(n)])

    rho_j = submatrix_spectral_radius(A, vj)
    tau1 = _geometric_tail(t * rho_j, K)
    tau2 = _hitting_tail(A, t, vi, K)

    if jump:
        counts = _count_matrix(mg)
        value = 0.0
        bound = 0.0
        for k in range(n):
            if k == vj:
                continue
            for q in range(n):
                c = counts[k, q]
                if c == 0.0:
                    continue
                value += c * leg1[k] * leg2[q]
                bound += c * (tau1 * (leg2[q] + tau2) + leg1[k] * tau2)
        return value, TruncationBound(K=K, tail=bound)

    value = 0.0
    bound = 0.0
    for k in range(n):
        if k == vj:
            continue
        value += leg1[k] * leg2[k]
        bound += tau1 * (leg2[k] + tau2) + leg1[k] * tau2
    return value, TruncationBound(K=K, tail=bound)


# ---------------------------------------------------------------------------
# property checks


def _separation_table(g, n: int) -> list[list[int]]:
    """comp[j] = graph._components_without(g, j): one search per vertex j
    answers whether j separates i from k for every triple of an order-n
    matrix."""
    mg = _as_multigraph(g)
    if mg.n < n:
        raise GraphInputError(f"matrix of order {n} for a graph of {mg.n} vertices")
    return [_components_without(mg, j) for j in range(mg.n)]


def _as_square(D) -> np.ndarray:
    M = np.asarray(D, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise GraphInputError("need a square matrix")
    return M


def check_metric(D, slack: float = 1e-10) -> CheckReport:
    """Symmetry, zero diagonal, positivity off the diagonal, and the
    triangle inequality with a small rounding allowance."""
    M = _as_square(D)
    n = M.shape[0]
    scale = max(1.0, float(np.abs(M).max()))
    failures = []
    if np.abs(M - M.T).max() > slack * scale:
        failures.append(f"not symmetric: max asymmetry {np.abs(M - M.T).max():.3e}")
    if np.abs(np.diag(M)).max() > slack * scale:
        failures.append(f"nonzero diagonal: max {np.abs(np.diag(M)).max():.3e}")
    off = M[~np.eye(n, dtype=bool)]
    if off.size and off.min() <= 0.0:
        failures.append(f"nonpositive off-diagonal entry: min {off.min():.3e}")
    allowance = slack * scale
    checked = 0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                checked += 1
                if M[i, k] > M[i, j] + M[j, k] + allowance:
                    failures.append(
                        f"triangle violated at ({i},{j},{k}): "
                        f"{M[i, k]:.12g} > {M[i, j]:.12g} + {M[j, k]:.12g}"
                    )
    return CheckReport(name="metric", passed=not failures, checked=checked,
                       failures=tuple(failures))


def check_geodetic(D, g, eps: float = 1e-9, delta: float = 1e-6) -> CheckReport:
    """Two-sided graph-geodetic test.

    For every triple of distinct vertices: if j separates i from k the
    triangle must be tight (relative defect <= eps); if it does not, the
    defect must exceed delta. Defects between the two thresholds are
    neither clear equalities nor clear inequalities; such triples are
    listed as notes and do not fail the check, but a strict two-sided
    claim should assert they are absent.
    """
    M = _as_square(D)
    n = M.shape[0]
    comp = _separation_table(g, n)
    failures = []
    dead_zone = []
    checked = 0
    for i in range(n):
        for k in range(n):
            if i == k:
                continue
            for j in range(n):
                if j == i or j == k:
                    continue
                checked += 1
                defect = M[i, j] + M[j, k] - M[i, k]
                tight = abs(defect) <= eps * abs(M[i, k])
                if comp[j][i] != comp[j][k]:
                    if not tight:
                        failures.append(
                            f"separator ({i},{j},{k}) not tight: defect {defect:.3e}"
                        )
                elif tight:
                    failures.append(
                        f"tight triple ({i},{j},{k}) without separator: "
                        f"defect {defect:.3e}"
                    )
                elif defect <= delta:
                    dead_zone.append(
                        f"triple ({i},{j},{k}) defect {defect:.3e} below delta"
                    )
    return CheckReport(name="geodetic", passed=not failures, checked=checked,
                       failures=tuple(failures), notes=tuple(dead_zone))


def check_transition(S, g=None, slack: float = 1e-12, eps: float = 1e-9) -> CheckReport:
    """Transition inequality s_ij*s_jk <= s_ik*s_jj over all triples.

    When the graph is supplied, additionally require equality exactly on
    the triples where j separates i from k (j equal to an endpoint
    counts as separating).
    """
    M = _as_square(S)
    n = M.shape[0]
    if (M <= 0).any():
        return CheckReport(name="transition", passed=False, checked=0,
                           failures=("matrix must be strictly positive",))
    comp = _separation_table(g, n) if g is not None else None
    failures = []
    checked = 0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                checked += 1
                lhs = M[i, j] * M[j, k]
                rhs = M[i, k] * M[j, j]
                if lhs > rhs + slack * max(1.0, rhs):
                    failures.append(
                        f"inequality violated at ({i},{j},{k}): "
                        f"{lhs:.12g} > {rhs:.12g}"
                    )
                    continue
                if comp is not None:
                    tight = abs(lhs - rhs) <= eps * rhs
                    # For i == k the "path" is a closed walk: the trivial
                    # walk at i visits only i, so j stands on every i-i
                    # walk exactly when j is i itself.
                    sep = (j == i) if i == k else comp[j][i] != comp[j][k]
                    if tight != sep:
                        failures.append(
                            f"bottleneck identity mismatch at ({i},{j},{k}): "
                            f"tight={tight}, gap {rhs - lhs:.3e}"
                        )
    return CheckReport(name="transition", passed=not failures, checked=checked,
                       failures=tuple(failures))


def check_psd_centered(D, floor: float = 1e-9) -> CheckReport:
    """Squared-Euclidean test: -1/2 * Jc D Jc must be PSD (Jc centers)."""
    M = _as_square(D)
    n = M.shape[0]
    Jc = np.eye(n) - np.full((n, n), 1.0 / n)
    B = -0.5 * (Jc @ M @ Jc)
    eigs = np.linalg.eigvalsh(B)
    tol = floor * max(1.0, float(np.abs(B).max()))
    passed = bool(eigs.min() >= -tol)
    failures = () if passed else (
        f"centered matrix has eigenvalue {eigs.min():.3e} below -{tol:.1e}",)
    return CheckReport(name="psd-centered", passed=passed, checked=n,
                       failures=failures,
                       notes=(f"min eigenvalue {eigs.min():.3e}",))


def separates_by_enumeration(g, j, i, k, budget: int = DEFAULT_BUDGET) -> bool:
    """Does every simple i-k path pass through j? Checked by listing paths.

    Cross-validates the reachability-based separates(); simple paths
    suffice because any walk avoiding j contains a path avoiding j.
    """
    mg = _as_multigraph(g)
    pj, pi, pk = mg.position(j), mg.position(i), mg.position(k)
    if pj == pi or pj == pk:
        return True
    nbrs = _adjacency_lists(mg)
    seen = [False] * len(mg.labels)
    seen[pi] = True
    steps = 0

    def dfs(v) -> bool:
        # True if some j-free simple path from v reaches k.
        nonlocal steps
        steps += 1
        if steps > budget:
            raise EnumerationBudgetError("path enumeration exceeded budget")
        if v == pk:
            return True
        for (u, _, _) in nbrs[v]:
            if u == pj or seen[u]:
                continue
            seen[u] = True
            if dfs(u):
                return True
            seen[u] = False
        return False

    return not dfs(pi)
