"""Walk-sum proximity matrices and the distances derived from them.

The pipeline shared by all families in this module:

1. build a positive proximity matrix S (a walk-weight resolvent, a
   regularized-Laplacian inverse, or a transformed-graph variant);
2. either take elementwise logs scaled by theta and convert to distances
   (walk, logarithmic forest), or convert S directly without the log
   (plain walk, forest):

       d_ij = (s_ii + s_jj)/2 - s_ij            (no log)
       d_ij = theta * (h_ii + h_jj)/2 - theta*h_ij,  h = ln S

Both conversions symmetrize the result as (D + D^T)/2 at the end; the
formulas are symmetric analytically but floating-point rounding is not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import DivergenceError, GraphInputError, IllConditionedError, NumericalError
from .graph import (
    WeightedMultigraph,
    _labels_of,
    _require_usable,
    as_adjacency,
    as_laplacian,
    map_edge_weights,
)
from .spectral import SpectralData, _validate_input, perron

__all__ = [
    "ParamPoint",
    "ProximityMatrix",
    "DistanceMatrix",
    "walk_scale",
    "walk_weight_matrix",
    "proximity_to_distance",
    "gap_distance",
    "walk_distance",
    "plain_walk_distance",
    "forest_distance",
    "log_forest_distance",
]

CONDITION_LIMIT = 1e14


def _require_positive(value: float, name: str = "alpha") -> None:
    if not (math.isfinite(value) and value > 0):
        raise GraphInputError(f"{name} must be finite and positive, got {value!r}")


def walk_scale(alpha: float, n: int) -> float:
    """Normalizing factor theta(alpha) for the walk-distance family.

    theta = ln(e + alpha^(2/n)) * (alpha - 1) / ln(alpha), extended by
    continuity to ln(e + 1) at alpha = 1. The factor is chosen so that
    scaled walk distances interpolate between the shortest-path metric
    (alpha -> 0) and the long-walk metric (alpha -> infinity).
    """
    _require_positive(alpha)
    if alpha == 1.0:
        return math.log(math.e + 1.0)
    return math.log(math.e + alpha ** (2.0 / n)) * (alpha - 1.0) / math.log(alpha)


@dataclass(frozen=True)
class ParamPoint:
    """Linked parameters of one walk-metric evaluation.

    t and alpha determine each other through rho: alpha = 1/(1/t - rho),
    t = 1/(rho + 1/alpha). theta is the scale factor applied to the log
    proximity.
    """

    t: float
    alpha: float
    theta: float
    rho: float

    def __post_init__(self) -> None:
        if not 0 < self.t < 1.0 / self.rho:
            raise DivergenceError(
                f"t={self.t!r} outside (0, 1/rho) for rho={self.rho!r}"
            )
        _require_positive(self.alpha)

    @classmethod
    def from_alpha(cls, rho: float, alpha: float, n: int) -> "ParamPoint":
        t = 1.0 / (rho + 1.0 / alpha)
        return cls(t=t, alpha=alpha, theta=walk_scale(alpha, n), rho=rho)

    @classmethod
    def from_t(cls, rho: float, t: float, n: int) -> "ParamPoint":
        if not 0 < t < 1.0 / rho:
            raise DivergenceError(f"t={t!r} outside (0, 1/rho) for rho={rho!r}")
        alpha = 1.0 / (1.0 / t - rho)
        return cls(t=t, alpha=alpha, theta=walk_scale(alpha, n), rho=rho)


class _MatrixView:
    """Array access to the `entries` of a matrix result."""

    def __array__(self, dtype=None, copy=None):
        return np.array(self.entries, dtype=dtype)

    def __getitem__(self, key):
        return self.entries[key]

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class ProximityMatrix(_MatrixView):
    """Positive symmetric matrix of pairwise proximities, with a kind tag."""

    entries: np.ndarray
    kind: str


@dataclass(frozen=True)
class DistanceMatrix(_MatrixView):
    """Symmetric zero-diagonal matrix of pairwise distances.

    `family` names the metric family; `param` carries the ParamPoint for
    parametric families or a tag like "limit" for limiting metrics.
    `labels` is set when the matrix came from a labeled graph.
    """

    entries: np.ndarray
    family: str
    param: ParamPoint | str | None = None
    labels: tuple[str, ...] | None = None


def _symmetrized(D: np.ndarray) -> np.ndarray:
    """(D + D^T)/2 with an exactly zero diagonal."""
    D = 0.5 * (D + D.T)
    np.fill_diagonal(D, 0.0)
    return D


def _fold(H: np.ndarray) -> np.ndarray:
    """The fold d_ij = (h_ii + h_jj)/2 - h_ij, symmetrized, zero diagonal."""
    h = np.diag(H)
    return _symmetrized(0.5 * (h[:, None] + h[None, :]) - H)


def _spd_inverse(M: np.ndarray, context: str, error=IllConditionedError) -> np.ndarray:
    """Inverse of a symmetric positive definite M from one Cholesky solve.

    Raises `error` if M is not positive definite, or if ||M|| ||M^(-1)||
    (infinity norm; it bounds a symmetric M's 2-norm condition) exceeds
    CONDITION_LIMIT.
    """
    try:
        factor = cho_factor(M)
    except (np.linalg.LinAlgError, ValueError):  # ValueError: NaN or inf entries
        raise error(f"{context}: matrix is not finite and positive definite") from None
    inverse = cho_solve(factor, np.eye(M.shape[0]))
    condition = np.linalg.norm(M, np.inf) * np.linalg.norm(inverse, np.inf)
    if not condition <= CONDITION_LIMIT:
        raise error(f"{context}: condition {condition:.3e} exceeds {CONDITION_LIMIT:.0e}")
    return inverse


@dataclass(frozen=True)
class _PreparedGraph(WeightedMultigraph):
    """A connected multigraph carrying its adjacency and its Perron pair.

    Every function that takes a graph accepts one and reads `sd` instead
    of calling `perron` again, so a command computes the pair once.
    """

    adjacency: np.ndarray = field(compare=False, repr=False)
    sd: SpectralData = field(compare=False, repr=False)


def _prepare(g: WeightedMultigraph) -> _PreparedGraph:
    """Validate g and compute its Perron pair, once."""
    if isinstance(g, _PreparedGraph):
        return g
    M, sd = _spectral(g)
    M.setflags(write=False)
    return _PreparedGraph(g.labels, g.edges, M, sd)


def _spectral(A) -> tuple[np.ndarray, SpectralData]:
    """The adjacency of A and its Perron pair: a prepared graph's own, or
    computed by one `perron` call."""
    if isinstance(A, _PreparedGraph):
        return A.adjacency, A.sd
    M = as_adjacency(A)
    _require_usable(A)
    return M, perron(M)


def walk_weight_matrix(A, t: float) -> ProximityMatrix:
    """Walk-weight resolvent R_t = (I - tA)^(-1).

    Entry (i, j) is the total t-discounted weight of all i -> j walks:
    sum over k of t^k (A^k)_ij. It converges for 0 < t < 1/rho(A), exactly
    where I - tA is positive definite, so the Cholesky solve checks t: a t
    at 1/rho or within rounding of it raises DivergenceError.
    """
    if isinstance(A, _PreparedGraph):
        M = A.adjacency  # validated when it was prepared
    else:
        M = as_adjacency(A)
        _require_usable(A)
        _validate_input(M)  # the Cholesky solve reads one triangle only
    if t <= 0:
        raise DivergenceError(f"walk series needs t > 0, got t={t!r}")
    R = _spd_inverse(np.eye(M.shape[0]) - t * M, f"walk series at t={t!r} diverges",
                     error=DivergenceError)
    return ProximityMatrix(entries=R, kind="walk")


def proximity_to_distance(S, theta: float = 1.0, *, family: str = "walk",
                          param: ParamPoint | str | None = None,
                          labels=None) -> DistanceMatrix:
    """Distance matrix from the scaled elementwise log of a proximity matrix.

    H = theta * ln(S); d_ij = (h_ii + h_jj)/2 - h_ij, which equals
    theta * (-ln(s_ij / sqrt(s_ii s_jj))). The output is symmetrized and
    has an exactly zero diagonal.
    """
    M = np.asarray(S, dtype=float)
    if (M <= 0).any():
        raise GraphInputError("proximity matrix must be strictly positive to take logs")
    return DistanceMatrix(entries=_fold(theta * np.log(M)), family=family, param=param,
                          labels=tuple(labels) if labels is not None else None)


def gap_distance(S, *, family: str, param=None, labels=None) -> DistanceMatrix:
    """Distance matrix from a proximity matrix without the logarithm.

    d_ij = (s_ii + s_jj)/2 - s_ij. Metric for the proximity kinds used
    here, but not graph-geodetic.
    """
    return DistanceMatrix(entries=_fold(np.asarray(S, dtype=float)),
                          family=family, param=param,
                          labels=tuple(labels) if labels is not None else None)


def _point_at(A, alpha: float) -> ParamPoint:
    M, sd = _spectral(A)
    return ParamPoint.from_alpha(sd.rho, alpha, M.shape[0])


def walk_distance(A, alpha: float = 1.0) -> DistanceMatrix:
    """Walk distance with parameter alpha.

    Evaluates R_t at t = 1/(rho + 1/alpha) and scales the log-derived
    distances by theta = walk_scale(alpha, n).
    """
    return _walk_distance_at(A, _point_at(A, alpha))


def _walk_distance_at(A, point: ParamPoint) -> DistanceMatrix:
    """walk_distance at exactly point.t, scaled by point.theta."""
    R = walk_weight_matrix(A, point.t)
    if (R.entries <= 0).any():
        # Weights between vertices d hops apart scale like t^d; at tiny
        # alpha they leave the float64 range and the solve returns zeros
        # or rounding-negative entries. The input is fine, the log is not.
        raise NumericalError(
            f"walk weights underflowed at alpha={point.alpha!r} (t={point.t!r}); "
            "alpha is too small for this graph"
        )
    return proximity_to_distance(
        R, point.theta, family="walk", param=point, labels=_labels_of(A)
    )


def plain_walk_distance(A, alpha: float = 1.0) -> DistanceMatrix:
    """Distance from R_t without the logarithm (a metric, not geodetic)."""
    return _plain_walk_distance_at(A, _point_at(A, alpha))


def _plain_walk_distance_at(A, point: ParamPoint) -> DistanceMatrix:
    return gap_distance(walk_weight_matrix(A, point.t), family="plain-walk", param=point,
                        labels=_labels_of(A))


def forest_distance(g, alpha: float = 1.0) -> DistanceMatrix:
    """Distance from (I + alpha*L)^(-1) without the logarithm."""
    _require_positive(alpha)
    _require_usable(g)
    L = as_laplacian(g)
    Q = _spd_inverse(np.eye(L.shape[0]) + alpha * L, "forest_distance")
    return gap_distance(Q, family="forest", param=f"alpha={alpha!r}",
                        labels=_labels_of(g))


def log_forest_distance(
    g,
    alpha: float = 1.0,
    weight_transform: Callable[[float], float] | None = None,
    theta: float | None = None,
) -> DistanceMatrix:
    """Logarithmic forest distance.

    Distances come from theta * ln(Q) with Q = log_forest_proximity(g,
    alpha, weight_transform). theta defaults to walk_scale(alpha, n), the
    same convention the walk family uses.
    """
    Q = log_forest_proximity(g, alpha, weight_transform)
    if theta is None:
        theta = walk_scale(alpha, Q.n)
    return proximity_to_distance(
        Q, theta, family="log-forest", param=f"alpha={alpha!r}", labels=_labels_of(g)
    )


def log_forest_proximity(g, alpha: float = 1.0,
                         weight_transform: Callable[[float], float] | None = None) -> ProximityMatrix:
    """Q_alpha = (I + L_alpha)^(-1), the proximity behind log_forest_distance.

    The graph's edge weights are mapped through `weight_transform`
    (default w -> alpha*w, applied per edge before re-aggregation) to
    give the transformed Laplacian L_alpha.
    """
    _require_positive(alpha)
    _require_usable(g)
    if weight_transform is None:
        weight_transform = lambda w: alpha * w
    if isinstance(g, WeightedMultigraph):
        transformed = map_edge_weights(g, lambda e: weight_transform(e.weight))
        L = as_laplacian(transformed)
    else:
        # A bare matrix carries no multi-edge structure; apply the
        # transform entrywise, which matches for linear transforms.
        A = as_adjacency(g)
        At = np.where(A != 0, np.vectorize(weight_transform)(A), 0.0)
        L = np.diag(At.sum(axis=1)) - At
    Q = _spd_inverse(np.eye(L.shape[0]) + L, "log_forest_proximity")
    return ProximityMatrix(entries=Q, kind="log-forest")
