"""Walk distances after the exponential edge-weight transform.

Each edge weight w is mapped to (w/rho) * exp(-1/(alpha*w)) with rho the
Perron root of the original graph. The factor exp(-1/(alpha*w)) < 1 and
the division by rho force the transformed spectral radius below 1, so
the walk series converges for every alpha > 0 without reparameterizing.

Distances use the scale theta_alpha * alpha, where theta_alpha follows a
rational schedule between 1 (alpha -> 0) and theta_infinity
(alpha -> infinity). With that scaling the alpha -> 0 limit is the
weighted shortest-path metric (heavy edges short) and the
alpha -> infinity limit is a "long" distance that, for the right
theta_infinity, coincides exactly with the long-walk distance.

Small alpha makes the transformed weights underflow float64 (exp(-1000)
is zero); the proximity solve is then retried in extended precision by
elimination without pivoting, which keeps the tiny entries of the inverse
accurate because I - A(alpha) is a diagonally dominant M-matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GraphInputError, NumericalError
from .graph import (WeightedMultigraph, _labels_of, _require_usable, as_adjacency,
                    map_edge_weights, require_connected)
from .limits import (SweepPoint, _long_walk_form, _minor_solve_sums, _spectral, limit_sweep,
                     weighted_shortest_path_matrix)
from .spectral import SpectralData, perron
from .walk import DistanceMatrix, _fold, _require_positive, _spd_inverse, _symmetrized

__all__ = [
    "ThetaSchedule",
    "indicator_matrix",
    "epsilon_transform",
    "epsilon_weight_matrix",
    "theta_infinity",
    "theta_schedule_for",
    "ewalk_distance",
    "long_ewalk_distance",
    "long_ewalk_via_minors",
    "ewalk_limit_sweep",
]

# Escalate to extended precision when the float64 proximity solve left
# entries this small (or nonpositive): such values carry no usable
# precision for the logarithm.
UNDERFLOW_FLOOR = 1e-250


@dataclass(frozen=True)
class ThetaSchedule:
    """Scale schedule theta(alpha) = (theta_inf*alpha + beta)/(alpha + beta).

    Rational in alpha with theta -> 1 as alpha -> 0 and
    theta -> theta_inf as alpha -> infinity; beta > 0 sets where the
    crossover happens and nothing else.
    """

    theta_inf: float
    beta: float = 1.0

    def __post_init__(self) -> None:
        _require_positive(self.beta, "beta")
        _require_positive(self.theta_inf, "theta_inf")

    def __call__(self, alpha: float) -> float:
        _require_positive(alpha)
        return (self.theta_inf * alpha + self.beta) / (alpha + self.beta)


def indicator_matrix(A) -> np.ndarray:
    """Edge-count matrix: how many edges sit between each vertex pair.

    For a multigraph, parallel edges count individually and a loop
    counts once; for a bare matrix (a simple weighted graph, possibly
    with loops) this is the 0/1 nonzero pattern. This is the matrix the
    per-edge transform w -> (w/rho)e^(-1/(alpha w)) linearizes to at
    large alpha: each edge contributes its own e^(-1/(alpha w)) factor,
    so the first-order coefficient at a vertex pair is the number of
    edges there, not merely whether one exists. Using the plain 0/1
    pattern on a multigraph gives a limit the finite-alpha distances do
    not converge to.
    """
    if isinstance(A, WeightedMultigraph):
        n = len(A.labels)
        C = np.zeros((n, n))
        for e in A.edges:
            u, v = A.position(e.a), A.position(e.b)
            if u == v:
                C[u, u] += 1.0
            else:
                C[u, v] += 1.0
                C[v, u] += 1.0
        return C
    M = as_adjacency(A)
    return (M != 0).astype(float)


def epsilon_transform(g: WeightedMultigraph, alpha: float) -> WeightedMultigraph:
    """Graph with every edge weight mapped through w -> (w/rho)e^(-1/(alpha w)).

    rho is taken from the untransformed graph. Parallel edges are
    transformed individually (the transform is not additive, so the
    order matters) and re-aggregated only when an adjacency matrix is
    built from the result. Transformed weights can underflow to zero for
    tiny alpha, which the graph type rejects as an invalid weight; that
    is deliberate, the extended-precision path in ewalk_distance does
    not go through a graph object.
    """
    _require_positive(alpha)
    require_connected(g)
    rho = perron(as_adjacency(g)).rho
    return map_edge_weights(g, lambda e: e.weight / rho * float(np.exp(-1.0 / (alpha * e.weight))))


def epsilon_weight_matrix(g, alpha: float, dtype=np.float64) -> np.ndarray:
    """Aggregated adjacency matrix of the transformed graph, in `dtype`.

    For a multigraph each parallel edge is transformed on its own weight
    before summation; for a bare matrix the transform applies entrywise.
    Entries may underflow to exactly 0.0 for small alpha. In float64 that
    can lose edges entirely (exp(-1/(alpha*w)) underflows near
    alpha ~ 1e-3 on unit weights), so the extended-precision fallback
    rebuilds the matrix from the original weights with dtype=np.longdouble
    rather than upcasting an already-degraded one.
    """
    _require_positive(alpha)
    M = as_adjacency(g)
    return _epsilon_weights(g, M, perron(M).rho, alpha, dtype)


def _epsilon_weights(g, M: np.ndarray, rho: float, alpha: float, dtype) -> np.ndarray:
    """epsilon_weight_matrix for the adjacency M of g and its Perron root rho."""
    rho, a = dtype(rho), dtype(alpha)
    n = M.shape[0]
    with np.errstate(under="ignore"):
        if isinstance(g, WeightedMultigraph):
            W = np.zeros((n, n), dtype=dtype)
            for e in g.edges:
                u, v = g.position(e.a), g.position(e.b)
                w = dtype(e.weight)
                t = (w / rho) * np.exp(-1.0 / (a * w))
                W[u, v] += t
                if u != v:
                    W[v, u] += t
            return W
        Mt = M.astype(dtype)
        pos = Mt > 0
        safe = np.where(pos, Mt, dtype(1.0))
        return np.where(pos, (Mt / rho) * np.exp(-1.0 / (a * safe)), dtype(0.0))


def theta_infinity(A) -> float:
    """Limit scale theta_inf = (2/n) * (p'(A/rho)p) / (p'Cp), C the
    edge-count matrix of indicator_matrix().

    The ratio is a p-weighted average of the normalized weights a_ij/rho
    per edge; multiplying the long-e-walk distance by this particular
    value makes it equal the long-walk distance. Pass the multigraph
    itself (not its aggregated adjacency) when parallel edges exist, so
    C counts them.
    """
    M = as_adjacency(A)
    return _theta_infinity(M, perron(M), indicator_matrix(A))


def _theta_infinity(M: np.ndarray, sd: SpectralData, counts: np.ndarray) -> float:
    return float((2.0 / M.shape[0]) * (sd.p @ (M / sd.rho) @ sd.p)
                 / (sd.p @ counts @ sd.p))


def theta_schedule_for(A, beta: float = 1.0) -> ThetaSchedule:
    return ThetaSchedule(theta_inf=theta_infinity(A), beta=beta)


def _log_proximity_float64(W: np.ndarray) -> np.ndarray | None:
    """log((I - W)^(-1)) in float64, or None when precision ran out."""
    n = W.shape[0]
    R = _spd_inverse(np.eye(n) - W, "ewalk_distance")
    if R.min() <= 0.0:
        return None
    off = R[~np.eye(n, dtype=bool)]
    if off.size and off.min() < UNDERFLOW_FLOOR:
        return None
    return np.log(R)


def _log_proximity_longdouble(Wld: np.ndarray) -> np.ndarray:
    """log((I - W)^(-1)) by elimination without pivoting in extended precision.

    Used when float64 underflowed; LAPACK has no extended-precision
    solvers. With W >= 0 and every row sum below 1, I - W is a strictly
    diagonally dominant M-matrix: every pivot is positive, and every
    update of the trailing block and of the inverse adds terms of one
    sign, so the tiny entries of the inverse keep their relative accuracy.
    """
    n = Wld.shape[0]
    W = np.asarray(Wld, dtype=np.longdouble)
    row_sum = float(W.sum(axis=1).max())
    if row_sum >= 1.0:
        raise NumericalError(
            f"transformed weight matrix has row sums up to {row_sum}, not below 1"
        )
    U = np.eye(n, dtype=np.longdouble) - W
    R = np.eye(n, dtype=np.longdouble)
    with np.errstate(under="ignore"):
        for k in range(n - 1):  # forward: U upper triangular, R = L^(-1)
            f = U[k + 1:, k] / U[k, k]
            U[k + 1:, k + 1:] -= np.outer(f, U[k, k + 1:])
            R[k + 1:, :k + 1] -= np.outer(f, R[k, :k + 1])
        for k in range(n - 1, -1, -1):  # back substitution: R = U^(-1) L^(-1)
            R[k] /= U[k, k]
            R[:k] -= np.outer(U[:k, k], R[k])
        if (R <= 0).any():
            raise NumericalError(
                "transformed edge weights underflowed even extended precision; "
                "alpha is too small for this graph"
            )
        return np.log(R).astype(np.float64)


def ewalk_distance(g, alpha: float, schedule: ThetaSchedule | None = None) -> DistanceMatrix:
    """Walk distance of the transformed graph, scaled by theta_alpha*alpha.

    d(i, j) = -theta_alpha * alpha * ln( r_ij / sqrt(r_ii * r_jj) ) with
    r = (I - A(alpha))^(-1) of the transformed adjacency. Graph-geodetic
    for every alpha > 0. The default schedule uses theta_infinity of the
    input graph with beta = 1.

    The Cholesky solve of I - A(alpha) confirms rho(A(alpha)) < 1 and
    raises IllConditionedError if that or the condition guard fails.
    """
    _require_positive(alpha)
    _require_usable(g)
    M = as_adjacency(g)
    sd = perron(M)
    if schedule is None:
        schedule = ThetaSchedule(theta_inf=_theta_infinity(M, sd, indicator_matrix(g)))
    scale = schedule(alpha) * alpha
    logR = _log_proximity_float64(_epsilon_weights(g, M, sd.rho, alpha, np.float64))
    if logR is None:
        logR = _log_proximity_longdouble(_epsilon_weights(g, M, sd.rho, alpha, np.longdouble))
    return DistanceMatrix(entries=scale * _fold(logR), family="e-walk",
                          param=f"alpha={alpha!r}", labels=_labels_of(g))


def long_ewalk_distance(A, theta_inf: float | None = None) -> DistanceMatrix:
    """The alpha -> infinity limit of the e-walk distances, in closed form.

    long_ewalk_via_minors evaluates the paper's form: with C the edge-count
    matrix of indicator_matrix(A), b = C p and Lambda = rho*I - A,

        d(i, j) = (theta_inf/2) * (c_ij + c_ji),   c_ij = x_i / p_i,

    where x_j = 0 and (Lambda x)_k = b_k for every k != j. Then
    Lambda x = b - (p^T b/p_j) e_j (p^T Lambda = 0 fixes entry j), a
    vector orthogonal to p, so for any g-inverse Z of Lambda,
    x = Z b - (p^T b/p_j) Z e_j + gamma p with gamma chosen to make
    x_j = 0. That gives

        c_ij = (Zb)_i/p_i - (Zb)_j/p_j + (p^T b) (Z_jj/p_j^2 - Z_ij/(p_i p_j)).

    The (Zb) terms are antisymmetric in (i, j) and cancel in c_ij + c_ji,
    which leaves (p^T C p) z^T Z z with z = e_i/p_i - e_j/p_j. The long-walk
    distance is (p^T p / n) z^T Z z, so with p~ the unit Perron vector

        d = theta_inf * n * (p~^T C p~) / 2 * long-walk distance,

    one O(n^3) solve. At theta_inf = theta_infinity(A) the factor is
    p~^T A p~ / rho = 1 and this equals long_walk_distance(A); any other
    positive value just rescales the matrix.
    """
    M, sd = _spectral(A)
    counts = indicator_matrix(A)
    if theta_inf is None:
        theta_inf = _theta_infinity(M, sd, counts)
    scale = theta_inf * M.shape[0] * float(sd.p_tilde @ counts @ sd.p_tilde) / 2.0
    return DistanceMatrix(entries=scale * _long_walk_form(M, sd), family="long-ewalk",
                          param="limit", labels=_labels_of(A))


def long_ewalk_via_minors(A, theta_inf: float | None = None) -> DistanceMatrix:
    """long_ewalk_distance from indicator-weighted minor solves (oracle, O(n^4)).

    d(i, j) = (theta_inf/2) * [ (1/p_i) * row i of (Lambda minor at j)^(-1)
              applied to (edge-count rows without j) @ p  +  symmetric term ].
    """
    M, sd = _spectral(A)
    if theta_inf is None:
        theta_inf = theta_infinity(A)
    S = _minor_solve_sums(sd.rho * np.eye(M.shape[0]) - M, indicator_matrix(A) @ sd.p, sd.p)
    return DistanceMatrix(entries=_symmetrized((theta_inf / 2.0) * S), family="long-ewalk",
                          param="limit", labels=_labels_of(A))


def ewalk_limit_sweep(g, alphas, direction: str,
                      schedule: ThetaSchedule | None = None) -> tuple[SweepPoint, ...]:
    """Deviation of e-walk distances from the appropriate limit metric.

    direction="small-alpha" compares against the weighted shortest path
    metric; direction="large-alpha" against the long-e-walk closed form.
    """
    if direction == "small-alpha":
        reference = weighted_shortest_path_matrix(g)
    elif direction == "large-alpha":
        reference = long_ewalk_distance(g)
    else:
        raise GraphInputError(
            f"direction must be 'small-alpha' or 'large-alpha', got {direction!r}"
        )
    if schedule is None:
        schedule = theta_schedule_for(g)
    return limit_sweep(lambda graph, a: ewalk_distance(graph, a, schedule),
                       g, alphas, reference)
