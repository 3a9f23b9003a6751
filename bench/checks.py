"""Reference results computed with numpy/scipy alone, and output checks.

Nothing here imports walkdist: each reference follows the paper's
definition by a different route than walkdist takes (explicit inverses,
pseudo-inverses from one eigendecomposition, scipy's csgraph, and a
longdouble Gauss-Jordan inverse where float64 underflows), so a check
that passes is independent evidence that the output is right.

check_sweep and check_verify return None when the output is right, or a
one-line reason why it is wrong; check_dist returns a (status, reason)
pair, because a distance matrix can also be right but inaccurate.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from workloads import SWEEP_ALPHAS, Graph

# Acceptance tolerance for distance matrices: sup-norm error relative to
# the largest reference distance.
DIST_RTOL = 1e-9
# A matrix that misses DIST_RTOL but stays within this has lost digits,
# not the answer: float64 rounding reaches 1e-4 only at a condition
# number near 1e12. Such an output is an inaccurate result, which fails
# its operation; beyond this the output is a wrong result.
DIST_GROSS_RTOL = 1e-4
# Sweep deviations are themselves relative sup-norm differences of two
# nearly equal matrices. Near alpha = 1e4 the solve of I - tA has
# condition ~1e5 and the log-fold cancels about four digits, so two
# correct float64 evaluations agree to ~1e-8 there, not to 1e-9.
SWEEP_ATOL = 1e-6


# ---------------------------------------------------------------------------
# reference matrices


def perron_root(A: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(A)[-1])


def walk_scale(alpha: float, n: int) -> float:
    if alpha == 1.0:
        return math.log(math.e + 1.0)
    return math.log(math.e + alpha ** (2.0 / n)) * (alpha - 1.0) / math.log(alpha)


def _log_fold(S: np.ndarray, theta: float) -> np.ndarray:
    with np.errstate(divide="ignore"):  # an underflowed 0 gives -inf, checked later
        H = theta * np.log(S)
    h = np.diag(H)
    D = 0.5 * (h[:, None] + h[None, :]) - H
    D = 0.5 * (D + D.T)
    np.fill_diagonal(D, 0.0)
    return D


def _gap_fold(S: np.ndarray) -> np.ndarray:
    s = np.diag(S)
    D = 0.5 * (s[:, None] + s[None, :]) - S
    D = 0.5 * (D + D.T)
    np.fill_diagonal(D, 0.0)
    return D


def _quadratic_form(Z: np.ndarray) -> np.ndarray:
    z = np.diag(Z)
    D = z[:, None] + z[None, :] - 2.0 * Z
    D = 0.5 * (D + D.T)
    np.fill_diagonal(D, 0.0)
    return D


def hop_distances(g: Graph) -> np.ndarray:
    A = g.adjacency()
    np.fill_diagonal(A, 0.0)
    return shortest_path(csr_matrix((A > 0).astype(float)), unweighted=True)


def weighted_hop_distances(g: Graph) -> np.ndarray:
    lengths = np.zeros((g.n, g.n))
    for a, b, w in g.edges:
        if a != b and (lengths[a, b] == 0.0 or 1.0 / w < lengths[a, b]):
            lengths[a, b] = lengths[b, a] = 1.0 / w
    return shortest_path(csr_matrix(lengths), method="D", directed=False)


def walk_reference(g: Graph, alpha: float, log: bool = True) -> np.ndarray:
    """Walk (log) or plain-walk (no log) distance from inv(I - tA)."""
    A = g.adjacency()
    t = 1.0 / (perron_root(A) + 1.0 / alpha)
    R = np.linalg.inv(np.eye(g.n) - t * A)
    return _log_fold(R, walk_scale(alpha, g.n)) if log else _gap_fold(R)


def forest_reference(g: Graph, alpha: float, log: bool) -> np.ndarray:
    A = g.adjacency()
    L = np.diag(A.sum(axis=1)) - A
    Q = np.linalg.inv(np.eye(g.n) + alpha * L)
    return _log_fold(Q, walk_scale(alpha, g.n)) if log else _gap_fold(Q)


def resistance_reference(g: Graph) -> np.ndarray:
    """Quadratic forms in pinv(L), built from one eigendecomposition."""
    A = g.adjacency()
    mu, U = np.linalg.eigh(np.diag(A.sum(axis=1)) - A)
    U = U[:, 1:]
    return _quadratic_form((U / mu[1:]) @ U.T)


def _perron_vector(A: np.ndarray) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    lam, V = np.linalg.eigh(A)
    p = V[:, -1] if V[:, -1].sum() > 0 else -V[:, -1]
    return float(lam[-1]), p / np.linalg.norm(p), lam, V


def long_walk_reference(g: Graph) -> np.ndarray:
    """z'Zz with Z = pinv(rho I - A) and z = e_i/p'_i - e_j/p'_j."""
    A = g.adjacency()
    rho, p_tilde, lam, V = _perron_vector(A)
    V = V[:, :-1]
    Z = (V / (rho - lam[:-1])) @ V.T
    p_prime = math.sqrt(g.n) * p_tilde
    return _quadratic_form(Z / np.outer(p_prime, p_prime))


def _edge_counts(g: Graph) -> np.ndarray:
    C = np.zeros((g.n, g.n))
    for a, b, _ in g.edges:
        C[a, b] += 1.0
        if a != b:
            C[b, a] += 1.0
    return C


def ewalk_theta(g: Graph, alpha: float) -> float:
    """theta(alpha) = (theta_inf * alpha + 1) / (alpha + 1), beta = 1."""
    A = g.adjacency()
    rho, p, _, _ = _perron_vector(A)
    theta_inf = (2.0 / g.n) * (p @ (A / rho) @ p) / (p @ _edge_counts(g) @ p)
    return (theta_inf * alpha + 1.0) / (alpha + 1.0)


def _mmatrix_inverse_longdouble(M: np.ndarray) -> np.ndarray:
    """Gauss-Jordan inverse without pivoting, in longdouble.

    For a nonsingular M-matrix every update adds terms of one sign, so
    the tiny entries of the inverse keep their relative accuracy where
    float64 would underflow to zero.
    """
    n = M.shape[0]
    A = np.array(M, dtype=np.longdouble)
    X = np.eye(n, dtype=np.longdouble)
    with np.errstate(under="ignore"):
        for k in range(n):
            pivot = A[k, k]
            A[k] /= pivot
            X[k] /= pivot
            f = A[:, k].copy()
            f[k] = 0.0
            A -= np.outer(f, A[k])
            X -= np.outer(f, X[k])
    return X


def ewalk_reference(g: Graph, alpha: float) -> np.ndarray:
    """e-walk distance: float64 inverse when it stays normal, else longdouble."""
    A = g.adjacency()
    rho = perron_root(A)
    with np.errstate(under="ignore"):
        W = np.zeros((g.n, g.n), dtype=np.longdouble)
        for a, b, w in g.edges:
            x = (np.longdouble(w) / np.longdouble(rho)) * np.exp(
                np.longdouble(-1.0) / (np.longdouble(alpha) * np.longdouble(w)))
            W[a, b] += x
            if a != b:
                W[b, a] += x
    R = np.linalg.inv(np.eye(g.n) - W.astype(float))
    if R.min() < 1e-250:
        R = _mmatrix_inverse_longdouble(np.eye(g.n, dtype=np.longdouble) - W)
    scale = ewalk_theta(g, alpha) * alpha
    return (scale * _log_fold(R, 1.0)).astype(float)


def dist_reference(g: Graph, metric: str) -> np.ndarray:
    """The `walkdist dist --metric <metric>` matrix at the default alpha 1."""
    if metric == "shortest-path":
        return hop_distances(g)
    if metric == "weighted-shortest-path":
        return weighted_hop_distances(g)
    if metric in ("walk", "plain-walk"):
        return walk_reference(g, 1.0, log=(metric == "walk"))
    if metric in ("forest", "log-forest"):
        return forest_reference(g, 1.0, log=(metric == "log-forest"))
    if metric == "e-walk":
        return ewalk_reference(g, 1.0)
    if metric in ("long-walk", "long-ewalk"):
        # the long-e-walk closed form with its tuned theta_inf equals
        # the long-walk distance exactly
        return long_walk_reference(g)
    if metric == "resistance":
        return resistance_reference(g)
    raise ValueError(f"unknown metric {metric!r}")


# ---------------------------------------------------------------------------
# output checks


def _rel_err(D: np.ndarray, ref: np.ndarray) -> float:
    return float(np.abs(D - ref).max() / np.abs(ref).max())


def _read_meta_and_rows(text: str) -> tuple[dict[str, str], list[list[str]]]:
    meta, rows = {}, []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, val = line[1:].strip().partition("=")
            meta[key] = val
        elif line:
            rows.append(line.split(","))
    return meta, rows


def check_dist(text: str, g: Graph, metric: str) -> tuple[str, str]:
    """("ok", ""), ("inaccurate", reason) or ("wrong", reason)."""
    meta, rows = _read_meta_and_rows(text)
    if not rows or rows[0][0] != "labels" or tuple(rows[0][1:]) != g.labels:
        return "wrong", "labels row missing or in the wrong vertex order"
    if [r[0] for r in rows[1:]] != list(g.labels):
        return "wrong", "row labels differ from the vertex order"
    try:
        D = np.array([[float(x) for x in r[1:]] for r in rows[1:]])
    except ValueError as exc:
        return "wrong", f"unparsable matrix entry: {exc}"
    if D.shape != (g.n, g.n):
        return "wrong", f"matrix is {D.shape}, expected {(g.n, g.n)}"
    if meta.get("metric") != metric:
        return "wrong", f"metadata names metric {meta.get('metric')!r}"
    err = _rel_err(D, dist_reference(g, metric))
    if err <= DIST_RTOL:
        return "ok", ""
    status = "inaccurate" if err <= DIST_GROSS_RTOL else "wrong"
    return status, f"relative error {err:.3e} exceeds {DIST_RTOL:g}"


def check_sweep(text: str, g: Graph, metric: str, direction: str) -> str | None:
    meta, rows = _read_meta_and_rows(text)
    alphas = SWEEP_ALPHAS[(metric, direction)]
    if not rows or rows[0] != ["alpha", "deviation", "theta", "failure"]:
        return "missing CSV header"
    if len(rows) - 1 != len(alphas):
        return f"{len(rows) - 1} sweep rows, expected {len(alphas)}"
    rho = perron_root(g.adjacency())
    try:
        if abs(float(meta["rho"]) - rho) > 1e-9 * rho or int(meta["n"]) != g.n:
            return "rho or n in the metadata is wrong"
    except (KeyError, ValueError):
        return "rho or n missing from the metadata"
    if direction == "large-alpha":
        ref = long_walk_reference(g)  # long-e-walk equals it at the tuned scale
    else:
        ref = hop_distances(g) if metric == "walk" else weighted_hop_distances(g)
    scale = np.abs(ref).max()
    for alpha, row in zip(alphas, rows[1:]):
        try:
            got_alpha, dev, theta = (float(x) for x in row[:3])
            failure = row[3]
        except (ValueError, IndexError):
            return f"malformed sweep row {row!r}"
        if got_alpha != alpha:
            return f"sweep row alpha {got_alpha!r}, expected {alpha!r}"
        want_theta = (walk_scale(alpha, g.n) if metric == "walk"
                      else ewalk_theta(g, alpha))
        if abs(theta - want_theta) > 1e-9 * abs(want_theta):
            return f"theta {theta!r} at alpha={alpha:g}, expected {want_theta!r}"
        D = (walk_reference(g, alpha) if metric == "walk" else ewalk_reference(g, alpha))
        if failure:
            # A typed failure is the right answer where even the longdouble
            # reference underflows; anywhere else it is a wrong result.
            if np.isfinite(D).all():
                return f"alpha={alpha:g} recorded as failed ({failure}); reference evaluates"
            continue
        want = float(np.abs(D - ref).max() / scale)
        if not abs(dev - want) <= SWEEP_ATOL:
            return f"deviation {dev!r} at alpha={alpha:g}, reference {want!r}"
    return None


def check_verify(text: str, suite: str, exit_code: int) -> str | None:
    """A well-formed report for one suite whose verdicts follow from its numbers."""
    try:
        doc = json.loads(text)
        (report,) = doc["suites"]
        assertions = report["assertions"]
        if report["suite"] != suite or not assertions:
            return f"report for suite {report['suite']!r} with {len(assertions)} assertions"
        failed = 0
        for a in assertions:
            dev, tol = float(a["deviation"]), float(a["tolerance"])
            ok = math.isfinite(dev) and dev <= tol
            if a["passed"] is not ok or not isinstance(a["name"], str):
                return f"assertion {a['name']!r} verdict disagrees with its numbers"
            failed += not ok
        if report["passed"] is not (failed == 0) or doc["passed"] is not (failed == 0):
            return "suite verdict disagrees with its assertions"
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"
    if exit_code != (1 if failed else 0):
        return f"exit code {exit_code} with {failed} failed assertions"
    return None
