"""Perron root and Perron vector of symmetric nonnegative matrices.

The Perron root rho is the largest eigenvalue; for a connected graph it is
simple and carries a strictly positive eigenvector. The Perron vector p is
normalized to sum 1 (a probability vector); derived scalings p_tilde
(unit 2-norm) and p_prime (sqrt(n) * p_tilde) are carried along because
the limit formulas use all three.

The spectrum is computed one way: a dense symmetric eigendecomposition
(`numpy.linalg.eigh`), whose top eigenpair is then refined by two steps
of Rayleigh-quotient iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DisconnectedGraphError, GraphInputError
from .graph import as_adjacency

__all__ = [
    "SpectralData",
    "perron",
    "submatrix_spectral_radius",
]

POLISH_STEPS = 2


@dataclass(frozen=True)
class SpectralData:
    """Perron root and the three normalizations of the Perron vector."""

    rho: float
    p: np.ndarray        # positive, sums to 1
    p_tilde: np.ndarray  # positive, unit 2-norm
    p_prime: np.ndarray  # sqrt(n) * p_tilde, so that ||p_prime||_2^2 = n


def _validate_input(A: np.ndarray) -> None:
    n = A.shape[0]
    if n < 2:
        raise GraphInputError("need a matrix of order >= 2")
    if not (np.isfinite(A).all() and (A >= 0).all()):
        raise GraphInputError("matrix entries must be finite and nonnegative")
    if np.abs(A - A.T).max() > 1e-12 * max(1.0, A.max()):
        raise GraphInputError("matrix must be symmetric")
    # Connectivity of the support pattern stands in for irreducibility.
    rows, cols = np.nonzero(A)
    start, cols = np.searchsorted(rows, np.arange(n + 1)).tolist(), cols.tolist()
    seen, stack = {0}, [0]
    while stack:
        v = stack.pop()
        for u in cols[start[v]:start[v + 1]]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    if len(seen) != n:
        raise DisconnectedGraphError(
            "adjacency pattern is reducible (graph disconnected); Perron vector undefined"
        )


def _polish(A: np.ndarray, rho0: float, v0: np.ndarray) -> tuple[float, np.ndarray]:
    # Rayleigh-quotient iteration from an already-good eigenpair. The raw
    # eigh pair carries residuals around 1e-15 * ||A||, which is not quite
    # enough for the identities evaluated at t = 1/rho: those divide by
    # rho - rho(minor) and amplify the last digits of rho. Two iterations
    # reach working precision (convergence is cubic from a good start);
    # if anything goes sideways, keep the unpolished pair.
    n = A.shape[0]
    x = v0 / np.linalg.norm(v0)
    if x[np.abs(x).argmax()] < 0:
        x = -x
    lam = float(x @ (A @ x))
    for _ in range(POLISH_STEPS):
        try:
            y = np.linalg.solve(A - lam * np.eye(n), x)
        except np.linalg.LinAlgError:
            break
        norm = np.linalg.norm(y)
        if not np.isfinite(norm) or norm == 0.0:
            break
        x = y / norm
        if x[np.abs(x).argmax()] < 0:
            x = -x
        lam = float(x @ (A @ x))
    if (x > 0).all() and abs(lam - rho0) <= 1e-8 * max(1.0, abs(rho0)):
        return lam, x
    return float(rho0), v0


def _finalize(rho: float, v: np.ndarray) -> SpectralData:
    if v[0] < 0:
        v = -v
    if (v <= 0).any():
        # Should not happen for an irreducible nonnegative matrix.
        raise ConvergenceError("computed Perron vector is not strictly positive")
    p = v / v.sum()
    p_tilde = p / np.linalg.norm(p)
    p_prime = np.sqrt(p.shape[0]) * p_tilde
    return SpectralData(rho=float(rho), p=p, p_tilde=p_tilde, p_prime=p_prime)


def perron(A) -> SpectralData:
    """Perron root and vector of a symmetric nonnegative irreducible matrix.

    A is a graph, LabeledMatrix, or array. One `eigh` gives the top
    eigenpair, which a Rayleigh-quotient polish brings to working
    precision; the vector is then normalized three ways (SpectralData).
    """
    M = as_adjacency(A)
    _validate_input(M)
    eigenvalues, vectors = np.linalg.eigh(M)
    return _finalize(*_polish(M, eigenvalues[-1], vectors[:, -1]))


def submatrix_spectral_radius(A, j) -> float:
    """Spectral radius of A with vertex j's row and column removed.

    Strictly smaller than rho(A) for irreducible A; the gap is what makes
    the hitting-weight formulas valid at t = 1/rho(A).
    """
    M = as_adjacency(A)
    if M.shape[0] < 2:
        raise GraphInputError("need a matrix of order >= 2")
    pos = _vertex_position(A, j, M.shape[0])
    keep = [i for i in range(M.shape[0]) if i != pos]
    sub = M[np.ix_(keep, keep)]
    return float(np.linalg.eigvalsh(sub)[-1])


def _vertex_position(A, j, n: int) -> int:
    if isinstance(j, str):
        labels = getattr(A, "labels", None)
        if labels is None:
            raise GraphInputError("string vertex ids need a labeled matrix or graph")
        return list(labels).index(j)
    pos = int(j)
    if not 0 <= pos < n:
        raise GraphInputError(f"vertex position {pos} out of range")
    return pos
