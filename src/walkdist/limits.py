"""Limiting metrics of the walk family and their classical relatives.

The two ends of the walk-distance parameter range are classical objects:
shortest-path metrics at one end and, at the other, a "long-walk"
distance expressible in closed form from the para-Laplacian
Lambda = rho*I - A. This module computes

* shortest path (hop count) and weighted shortest path (edge length 1/w),
* hitting-walk and commute-cycle weights, which turn walk distances into
  ratios of walk weights and stay finite at t = 1/rho,
* the long-walk and the resistance distance, each by one O(n^3) default:
  a quadratic form in a g-inverse of Lambda (resp. of the Laplacian L),
* the paper's other closed forms for both (minor solves, a stochastic
  similarity form, a row-scaled full-size form, determinant ratios and
  reduced-matrix solves), kept as oracles and collected by
  long_walk_all_formulas and resistance_all_formulas,
* a limit-sweep driver that measures how fast a parametric family
  approaches a reference metric.

Every oracle must agree with the default to high precision; each one
exercises a different numerical path, which is what makes the
agreement a check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path as _csgraph_shortest_path

from .errors import DivergenceError, GraphInputError, NumericalError
from .graph import WeightedMultigraph, _labels_of, _require_usable, as_adjacency, as_laplacian
from .spectral import SpectralData, _vertex_position, perron, submatrix_spectral_radius
from .walk import DistanceMatrix, _fold, _symmetrized

__all__ = [
    "HittingWeights",
    "GInverse",
    "SweepPoint",
    "shortest_path_matrix",
    "weighted_shortest_path_matrix",
    "hitting_weight",
    "hitting_weight_matrix",
    "commute_cycle_weight",
    "commute_cycle_matrix",
    "long_walk_distance",
    "long_walk_via_minors",
    "long_walk_via_stochastic",
    "long_walk_via_row_scaled",
    "long_walk_via_determinant",
    "long_walk_via_reduced",
    "long_walk_all_formulas",
    "laplacian_ginverse",
    "para_laplacian_ginverse",
    "resistance_distance",
    "resistance_via_minors",
    "resistance_via_determinant",
    "resistance_via_reduced",
    "resistance_all_formulas",
    "limit_sweep",
]


def _minor(M: np.ndarray, drop: tuple[int, ...]) -> np.ndarray:
    keep = [k for k in range(M.shape[0]) if k not in drop]
    return M[np.ix_(keep, keep)]


# ---------------------------------------------------------------------------
# shortest paths


def shortest_path_matrix(g) -> DistanceMatrix:
    """Hop-count shortest path distances.

    Edge weights, parallel edges and loops are all irrelevant here; only
    the adjacency pattern matters.
    """
    A = as_adjacency(g)
    _require_usable(g)
    pattern = csr_matrix((A > 0).astype(float))
    D = _csgraph_shortest_path(pattern, unweighted=True)
    if not np.isfinite(D).all():
        raise GraphInputError("graph is not connected")
    return DistanceMatrix(entries=_symmetrized(D), family="shortest-path",
                          labels=_labels_of(g))


def weighted_shortest_path_matrix(g) -> DistanceMatrix:
    """Shortest paths where an edge of weight w has length 1/w.

    Heavier edges are shorter. Among parallel edges only the heaviest
    (shortest) one can lie on a shortest path; loops never can.
    """
    _require_usable(g)
    if isinstance(g, WeightedMultigraph):
        n = len(g.labels)
        lengths = np.full((n, n), np.inf)
        for e in g.edges:
            if e.is_loop:
                continue
            u, v = g.position(e.a), g.position(e.b)
            lengths[u, v] = min(lengths[u, v], 1.0 / e.weight)
            lengths[v, u] = lengths[u, v]
        lengths[~np.isfinite(lengths)] = 0.0
    else:
        A = as_adjacency(g)
        lengths = np.where(A > 0, 1.0 / np.where(A > 0, A, 1.0), 0.0)
        np.fill_diagonal(lengths, 0.0)
    D = _csgraph_shortest_path(csr_matrix(lengths), method="D", directed=False)
    if not np.isfinite(D).all():
        raise GraphInputError("graph is not connected")
    return DistanceMatrix(entries=_symmetrized(D), family="weighted-shortest-path",
                          labels=_labels_of(g))


# ---------------------------------------------------------------------------
# hitting and commute weights


@dataclass(frozen=True)
class HittingWeights:
    """Matrix of hitting-walk weights r1[i, j] at a fixed t.

    r1[i, j] is the total t-discounted weight of walks from i to j whose
    only visit to j is the final vertex; r1[j, j] = 1 (the trivial walk
    has one occurrence of j and weight 1). Unlike the plain walk weights,
    these stay finite for t up to 1/rho(A with j removed), which is
    strictly beyond 1/rho(A). At t = 1/rho exactly, r1[i, j] = p_i/p_j
    and the round-trip products r1[i, j]*r1[j, i] are all 1.
    """

    entries: np.ndarray
    t: float
    at_spectral_radius: bool

    def __array__(self, dtype=None, copy=None):
        return np.array(self.entries, dtype=dtype)

    def __getitem__(self, key):
        return self.entries[key]


def hitting_weight(A, t: float, i, j) -> float:
    """Weight of hitting walks from i to j at parameter t.

    Solves (I/t - A_with_j_removed) x = (column j of A, row j removed)
    and reads off entry i. Requires 0 < t < 1/rho(A minor at j), which
    holds in particular at t = 1/rho(A). Returns 1.0 when i == j.
    """
    M = as_adjacency(A)
    n = M.shape[0]
    pi = _vertex_position(A, i, n)
    pj = _vertex_position(A, j, n)
    if pi == pj:
        return 1.0
    rho_minor = submatrix_spectral_radius(M, pj)
    t_max = math.inf if rho_minor == 0 else 1.0 / rho_minor
    if t <= 0 or t >= t_max:
        raise DivergenceError(
            f"hitting-walk series diverges: t={t!r} not in (0, {t_max!r})"
        )
    keep = [k for k in range(n) if k != pj]
    x = np.linalg.solve((1.0 / t) * np.eye(n - 1) - M[np.ix_(keep, keep)],
                        M[keep, pj])
    return float(x[keep.index(pi)])


def hitting_weight_matrix(A, t: float) -> HittingWeights:
    """All hitting weights r1[i, j] at parameter t (one solve per target j)."""
    M = as_adjacency(A)
    _require_usable(A)
    n = M.shape[0]
    sd = perron(M)
    R1 = np.ones((n, n))
    for j in range(n):
        rho_minor = submatrix_spectral_radius(M, j)
        t_max = math.inf if rho_minor == 0 else 1.0 / rho_minor
        if t <= 0 or t >= t_max:
            raise DivergenceError(
                f"hitting-walk series diverges at target {j}: "
                f"t={t!r} not in (0, {t_max!r})"
            )
        keep = [k for k in range(n) if k != j]
        x = np.linalg.solve((1.0 / t) * np.eye(n - 1) - M[np.ix_(keep, keep)],
                            M[keep, j])
        R1[keep, j] = x
    return HittingWeights(entries=R1, t=t,
                          at_spectral_radius=bool(abs(t * sd.rho - 1.0) <= 1e-12))


def commute_cycle_weight(A, t: float, i, j) -> float:
    """Weight c(i, j) of commute cycles through i and j at parameter t.

    A commute cycle is a closed walk at i that visits j and returns to i
    with no intermediate i after the first j; its weight factors into the
    two hitting legs, c = r1[i, j] * r1[j, i]. Strictly below 1 for
    t < 1/rho and exactly 1 at t = 1/rho.
    """
    return hitting_weight(A, t, i, j) * hitting_weight(A, t, j, i)


def commute_cycle_matrix(A, t: float) -> np.ndarray:
    R1 = hitting_weight_matrix(A, t).entries
    return R1 * R1.T


# ---------------------------------------------------------------------------
# long-walk distance: the default and its oracles


def _spectral(A) -> tuple[np.ndarray, SpectralData]:
    M = as_adjacency(A)
    _require_usable(A)
    return M, perron(M)


def _minor_solve_sums(X: np.ndarray, b: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """c_ij + c_ji with c_ij = x_i / scale_i, where x solves the system
    of X minus row and column j against b minus entry j (x_j = 0)."""
    n = X.shape[0]
    C = np.zeros((n, n))
    for j in range(n):
        keep = np.arange(n) != j
        C[keep, j] = np.linalg.solve(X[np.ix_(keep, keep)], b[keep]) / scale[keep]
    return C + C.T


def _long_walk_form(M: np.ndarray, sd: SpectralData,
                    ginverse: GInverse | None = None) -> np.ndarray:
    if ginverse is None:
        ginverse = para_laplacian_ginverse(sd.rho * np.eye(M.shape[0]) - M, sd.p_tilde)
    # d(i,j) = Z_ii/p'_i^2 + Z_jj/p'_j^2 - 2 Z_ij/(p'_i p'_j), twice the
    # fold of Z conjugated with diag(1/p').
    W = np.asarray(ginverse.matrix, dtype=float) / np.outer(sd.p_prime, sd.p_prime)
    return 2.0 * _fold(W)


def long_walk_distance(A, ginverse: GInverse | None = None) -> DistanceMatrix:
    """Long-walk distance as a quadratic form in a para-Laplacian g-inverse.

    d(i, j) = z' Z z with z = e_i/p'_i - e_j/p'_j and Z a g-inverse of
    Lambda = rho*I - A. The vector z is orthogonal to the Perron vector
    (p_k / p'_k is constant in k), so any g-inverse gives the same value;
    the default is the group inverse, one O(n^3) solve. This is the
    alpha -> infinity limit of the scaled walk distances; it is
    graph-geodetic and squared-Euclidean. long_walk_all_formulas adds the
    paper's other closed forms as cross-checks.
    """
    M, sd = _spectral(A)
    return DistanceMatrix(entries=_long_walk_form(M, sd, ginverse), family="long-walk",
                          param="limit", labels=_labels_of(A))


def long_walk_via_minors(A) -> DistanceMatrix:
    """Long-walk distance from para-Laplacian minors (oracle, O(n^4)).

    d(i, j) = (1/n) * [ (inverse of Lambda minor at j, row i) . p_without_j
                        / p_i  +  the same with i and j swapped ].
    """
    M, sd = _spectral(A)
    n = M.shape[0]
    S = _minor_solve_sums(sd.rho * np.eye(n) - M, sd.p, sd.p)
    return DistanceMatrix(entries=_symmetrized(S / n), family="long-walk",
                          param="limit", labels=_labels_of(A))


def long_walk_via_stochastic(A) -> DistanceMatrix:
    """Long-walk distance via the similarity form B = P^(-1) A P.

    d(i, j) = (1/n) * [ row sum i of (rho*I - B minor at j)^(-1)
                        + row sum j of (rho*I - B minor at i)^(-1) ].
    B is A conjugated by diag(p); rho*I - B has the all-ones right null
    vector, which turns the Perron-weighted solve of long_walk_via_minors
    into plain row sums.
    """
    M, sd = _spectral(A)
    n = M.shape[0]
    B = M * (sd.p[None, :] / sd.p[:, None])
    S = _minor_solve_sums(sd.rho * np.eye(n) - B, np.ones(n), np.ones(n))
    return DistanceMatrix(entries=_symmetrized(S / n), family="long-walk",
                          param="limit", labels=_labels_of(A))


def long_walk_via_row_scaled(A) -> DistanceMatrix:
    """Long-walk distance from full-size zeroed-row/column matrices.

    For each j, zero out row and column j of A (keeping size n), form
    M_j = (rho*I - zeroed A) @ diag(p), and take row sums of its inverse:

        d(i, j) = (||p||_2^2 / n) * [ (M_j^(-1) 1)_i + (M_i^(-1) 1)_j ].

    Index handling: M_j is block-diagonal (the Lambda minor times the
    diagonal weights, plus the isolated entry rho*p_j), so row i of the
    inverse has a structural zero in column j and the row sum over all n
    columns automatically sees only the minor block. No index shifting
    is needed, which is the point of this variant.
    """
    M, sd = _spectral(A)
    n = M.shape[0]
    C = np.zeros((n, n))
    for j in range(n):
        Z = M.copy()
        Z[j, :] = 0.0
        Z[:, j] = 0.0
        Mj = (sd.rho * np.eye(n) - Z) * sd.p[None, :]
        C[:, j] = np.linalg.solve(Mj, np.ones(n))
    pref = float(sd.p @ sd.p) / n
    D = pref * (C + C.T)
    return DistanceMatrix(entries=_symmetrized(D), family="long-walk",
                          param="limit", labels=_labels_of(A))


def _logdet_posdef(M: np.ndarray, context: str) -> float:
    if M.size == 0:
        return 0.0
    sign, logdet = np.linalg.slogdet(M)
    if sign <= 0:
        raise NumericalError(f"{context}: expected a positive determinant")
    return float(logdet)


def long_walk_via_determinant(A) -> DistanceMatrix:
    """Long-walk distance as a ratio of para-Laplacian minors.

    d(i, j) = det(Lambda with rows/cols i and j removed)
              / (p'_j^2 * det(Lambda with row/col i removed)),
    computed in log space. The 0x0 numerator at n = 2 has determinant 1.
    The expression looks asymmetric but is not: the principal minors of
    Lambda scale as p'_k^2, which cancels the choice of denominator index.
    """
    M, sd = _spectral(A)
    n = M.shape[0]
    Lam = sd.rho * np.eye(n) - M
    log_minor1 = np.array([
        _logdet_posdef(_minor(Lam, (i,)), "long_walk_via_determinant")
        for i in range(n)
    ])
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            log_num = _logdet_posdef(_minor(Lam, (i, j)), "long_walk_via_determinant")
            dij = math.exp(log_num - log_minor1[i]) / sd.p_prime[j] ** 2
            dji = math.exp(log_num - log_minor1[j]) / sd.p_prime[i] ** 2
            D[i, j] = D[j, i] = 0.5 * (dij + dji)
    return DistanceMatrix(entries=D, family="long-walk", param="limit",
                          labels=_labels_of(A))


# ---------------------------------------------------------------------------
# g-inverses


@dataclass(frozen=True)
class GInverse:
    """A generalized inverse Z of some singular symmetric matrix X.

    Z qualifies when X @ Z @ X = X. Quadratic forms v' Z v with v in the
    range of X do not depend on which g-inverse was chosen, which is what
    the distance formulas below rely on.
    """

    matrix: np.ndarray
    kind: str

    def __array__(self, dtype=None, copy=None):
        return np.array(self.matrix, dtype=dtype)

    def is_ginverse_of(self, X, rtol: float = 1e-9) -> bool:
        X = np.asarray(X, dtype=float)
        return bool(
            np.abs(X @ self.matrix @ X - X).max() <= rtol * max(np.abs(X).max(), 1e-30)
        )


def laplacian_ginverse(L, kind: str = "group") -> GInverse:
    """G-inverse of a graph Laplacian.

    kind="shifted": (L + Jbar)^(-1) where Jbar is the all-1/n matrix;
    kind="group":   (L + Jbar)^(-1) - Jbar, the group inverse L#.
    Both are g-inverses because Jbar projects onto the kernel of L.
    Takes the Laplacian matrix itself (build one with as_laplacian).
    """
    L = np.asarray(L, dtype=float)
    if np.abs(L.sum(axis=1)).max() > 1e-8 * max(1.0, np.abs(L).max()):
        raise GraphInputError("laplacian_ginverse needs a Laplacian (zero row sums)")
    n = L.shape[0]
    Jbar = np.full((n, n), 1.0 / n)
    Z = np.linalg.solve(L + Jbar, np.eye(n))
    if kind == "group":
        Z = Z - Jbar
    elif kind != "shifted":
        raise GraphInputError(f"unknown g-inverse kind {kind!r}")
    return GInverse(matrix=Z, kind=kind)


def para_laplacian_ginverse(Lam, p_tilde, kind: str = "group") -> GInverse:
    """G-inverse of the para-Laplacian Lambda = rho*I - A.

    The kernel of Lambda is spanned by the unit Perron vector p_tilde, so
    the shift matrix is the projector p_tilde p_tilde^T instead of Jbar.
    kind="shifted" gives (Lambda + proj)^(-1); kind="group" subtracts the
    projector again, giving the group inverse.
    """
    Lam = np.asarray(Lam, dtype=float)
    pt = np.asarray(p_tilde, dtype=float)
    proj = np.outer(pt, pt)
    Z = np.linalg.solve(Lam + proj, np.eye(Lam.shape[0]))
    if kind == "group":
        Z = Z - proj
    elif kind != "shifted":
        raise GraphInputError(f"unknown g-inverse kind {kind!r}")
    return GInverse(matrix=Z, kind=kind)


def _reduced_ginverse(X: np.ndarray, u: int, v: int) -> GInverse:
    """G-inverse of a corank-1 symmetric X from one reduced solve.

    Delete row v and column u of X and invert what is left. Put back into
    an n x n matrix, with zeros in row u and column v, that inverse is a
    g-inverse of X for every (u, v) where the reduced matrix is
    nonsingular.
    """
    n = X.shape[0]
    if not (0 <= u < n and 0 <= v < n):
        raise GraphInputError(f"(u, v)=({u}, {v}) out of range for order {n}")
    Z = np.zeros((n, n))
    Z[np.ix_(np.arange(n) != u, np.arange(n) != v)] = np.linalg.solve(
        np.delete(np.delete(X, v, axis=0), u, axis=1), np.eye(n - 1))
    return GInverse(matrix=Z, kind="reduced")


def long_walk_via_reduced(A, u: int = 0, v: int = 0) -> DistanceMatrix:
    """Long-walk distance from one reduced para-Laplacian solve.

    Delete row v and column u of Lambda and invert; embedded back into an
    n x n matrix (zero row u, zero column v) that inverse is a g-inverse
    of Lambda, so the result matches the other formulas for every
    admissible (u, v).
    """
    M, sd = _spectral(A)
    Z = _reduced_ginverse(sd.rho * np.eye(M.shape[0]) - M, u, v)
    return long_walk_distance(A, ginverse=Z)


def long_walk_all_formulas(A) -> dict[str, DistanceMatrix]:
    """All five independent long-walk computations, keyed by variant name."""
    return {
        "minor-solve": long_walk_via_minors(A),
        "stochastic": long_walk_via_stochastic(A),
        "row-scaled": long_walk_via_row_scaled(A),
        "determinant": long_walk_via_determinant(A),
        "ginverse": long_walk_distance(A),
    }


# ---------------------------------------------------------------------------
# resistance distance: the default and its oracles


def resistance_distance(g, ginverse: GInverse | None = None) -> DistanceMatrix:
    """Effective resistance with edge weights as conductances.

    d(i, j) = Z_ii + Z_jj - 2 Z_ij for any g-inverse Z of the Laplacian
    L; the default is the group inverse, one O(n^3) solve. On trees this
    coincides with the weighted shortest path metric.
    resistance_all_formulas adds the other closed forms as cross-checks.
    """
    _require_usable(g)
    if ginverse is None:
        ginverse = laplacian_ginverse(as_laplacian(g))
    Z = np.asarray(ginverse.matrix, dtype=float)
    return DistanceMatrix(entries=2.0 * _fold(Z), family="resistance",
                          param="limit", labels=_labels_of(g))


def resistance_via_minors(g) -> DistanceMatrix:
    """Resistance from Laplacian minors (oracle, O(n^4)).

    d(i, j) = (1/n) * [ row sum i of (L minor at j)^(-1)
                        + row sum j of (L minor at i)^(-1) ].
    """
    _require_usable(g)
    L = as_laplacian(g)
    n = L.shape[0]
    S = _minor_solve_sums(L, np.ones(n), np.ones(n))
    return DistanceMatrix(entries=_symmetrized(S / n), family="resistance",
                          param="limit", labels=_labels_of(g))


def resistance_via_determinant(g, u: int = 0, v: int = 0) -> DistanceMatrix:
    """Resistance as a cofactor ratio.

    d(i, j) = (-1)^(u+v) * det(L with rows/cols i, j removed)
              / det(L with row u and column v removed).
    Every (u, v) cofactor of L equals the weighted spanning-tree count up
    to the sign factor, which this function checks rather than trusts.
    """
    _require_usable(g)
    L = as_laplacian(g)
    n = L.shape[0]
    if not (0 <= u < n and 0 <= v < n):
        raise GraphInputError(f"(u, v)=({u}, {v}) out of range for order {n}")
    den = np.delete(np.delete(L, u, axis=0), v, axis=1)
    sign, log_den = np.linalg.slogdet(den)
    if sign != (-1.0) ** (u + v):
        raise NumericalError(
            "resistance_via_determinant: cofactor sign differs from (-1)^(u+v); "
            "graph may be disconnected or the matrix is numerically singular"
        )
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            log_num = _logdet_posdef(_minor(L, (i, j)), "resistance_via_determinant")
            D[i, j] = D[j, i] = math.exp(log_num - log_den)
    return DistanceMatrix(entries=D, family="resistance", param="limit",
                          labels=_labels_of(g))


def resistance_via_reduced(g, u: int = 0, v: int = 0) -> DistanceMatrix:
    """Resistance from one reduced Laplacian solve.

    Delete row v and column u of L and invert; as with the long-walk
    analogue, the embedded inverse is a g-inverse of L.
    """
    _require_usable(g)
    return resistance_distance(g, ginverse=_reduced_ginverse(as_laplacian(g), u, v))


def resistance_all_formulas(g) -> dict[str, DistanceMatrix]:
    return {
        "minor-solve": resistance_via_minors(g),
        "determinant": resistance_via_determinant(g),
        "ginverse-shifted": resistance_distance(
            g, ginverse=laplacian_ginverse(as_laplacian(g), kind="shifted")),
        "ginverse-group": resistance_distance(g),
        "reduced": resistance_via_reduced(g),
    }


# ---------------------------------------------------------------------------
# limit sweeps


@dataclass(frozen=True)
class SweepPoint:
    """One evaluation of a parametric metric against a reference.

    deviation is sup-norm relative: max |D_alpha - ref| / max |ref|, so a
    cap like 1e-2 means "within a percent of the largest reference
    distance" regardless of the graph's weight scale. failure holds the
    error message when the evaluation blew up; deviation is NaN then.
    """

    alpha: float
    deviation: float
    failure: str | None = None


def limit_sweep(metric: Callable[..., DistanceMatrix], g, alphas,
                reference) -> tuple[SweepPoint, ...]:
    """Evaluate metric(g, alpha) over a schedule and compare to a reference.

    Numerical failures at extreme alpha are captured per point instead of
    aborting the sweep. Convergence claims (monotone decrease, final cap)
    are left to the caller; this only measures.
    """
    ref = np.asarray(reference, dtype=float)
    scale = np.abs(ref).max()
    if scale == 0:
        raise GraphInputError("reference distance matrix is identically zero")
    points = []
    for alpha in np.atleast_1d(np.asarray(alphas, dtype=float)):
        try:
            D = metric(g, float(alpha))
        except (NumericalError, np.linalg.LinAlgError, FloatingPointError) as exc:
            points.append(SweepPoint(alpha=float(alpha), deviation=float("nan"),
                                     failure=f"{type(exc).__name__}: {exc}"))
            continue
        dev = float(np.abs(np.asarray(D) - ref).max() / scale)
        points.append(SweepPoint(alpha=float(alpha), deviation=dev))
    return tuple(points)
