"""Self-verification suites: every claim as a (deviation, tolerance) record.

Four suites, one per kind of claim:

* oracles       - closed forms sit within truncation bounds of brute-force
                  walk enumeration
* equivalences  - alternative formulas and graph transforms give the same
                  distances
* limits        - parametric families approach their limit references
                  monotonically
* properties    - metric axioms, geodetic/bottleneck characterizations,
                  PSD of the centered matrix

Each suite takes one connected graph and returns Assertion records that
the CLI serializes to JSON. Deviations are numeric so a report is useful
even when everything passes: you can see how much margin there was.

Bound-style assertions are normalized: deviation = |closed - estimate| /
truncation bound, tolerance = 1. A tiny floor stands in for the bound
when an enumeration terminates exactly (bound 0), so rounding noise is
not divided by zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import ewalk, limits, oracle, transforms, walk
from .graph import WeightedMultigraph, as_adjacency, from_adjacency, para_laplacian
# perron stays importable here: bench/tracing.py wraps it in every module that imports it
from .spectral import perron

__all__ = ["Assertion", "SuiteReport", "SUITES", "run_suite", "suite_names"]


@dataclass(frozen=True)
class Assertion:
    """One verified claim: measured deviation against its tolerance."""

    name: str
    deviation: float
    tolerance: float
    passed: bool

    @classmethod
    def check(cls, name: str, deviation: float, tolerance: float) -> "Assertion":
        dev = float(deviation)
        ok = bool(dev <= tolerance) and math.isfinite(dev)
        return cls(name=name, deviation=dev, tolerance=float(tolerance), passed=ok)


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    assertions: tuple[Assertion, ...]

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "assertions": [
                {"name": a.name, "deviation": a.deviation,
                 "tolerance": a.tolerance, "passed": a.passed}
                for a in self.assertions
            ],
        }


def _as_graph(g) -> walk._PreparedGraph:
    """g as a connected multigraph with its Perron pair, computed once."""
    return walk._prepare(g if isinstance(g, WeightedMultigraph)
                         else from_adjacency(as_adjacency(g)))


def _rel_dev(D, ref) -> float:
    ref = np.asarray(ref, dtype=float)
    return float(np.abs(np.asarray(D, dtype=float) - ref).max() / np.abs(ref).max())


def _bound_ratio(diff: float, bound: float, scale: float = 1.0) -> float:
    # The tails are attainable (a loop chain feeding one edge meets the
    # hitting-tail bound exactly), so equality must survive rounding:
    # pad the bound by a hair instead of comparing diff <= bound exactly.
    floor = 1e-13 * max(1.0, scale)
    return diff / (bound * (1.0 + 1e-9) + floor)


# ---------------------------------------------------------------------------
# oracles


def _select_pairs(n: int) -> list[tuple[int, int]]:
    if n <= 4:
        return [(i, j) for i in range(n) for j in range(n) if i != j]
    base = [(0, 1), (1, 0), (0, n - 1), (n - 1, 0), (1, 2), (2, 1)]
    return [(i, j) for (i, j) in base if i < n and j < n]


def suite_oracles(g) -> list[Assertion]:
    """Closed-form walk sums vs explicit enumeration, within tail bounds."""
    mg = _as_graph(g)
    A = mg.adjacency
    n = A.shape[0]
    rho = mg.sd.rho
    K = min(10, min(oracle.max_enumeration_depth(mg, i, budget=200_000)
                    for i in range(n)))
    out: list[Assertion] = []

    for frac in (0.3, 0.7):
        t = frac / rho
        R = np.asarray(walk.walk_weight_matrix(mg, t))
        powers_dev = 0.0
        bound_dev = 0.0
        for i in range(n):
            bins = oracle.walk_weights_by_length(mg, i, K)
            by_powers = oracle.walk_weights_by_powers(A, i, K)
            scale = max(1.0, by_powers.max())
            powers_dev = max(powers_dev,
                             float(np.abs(bins - by_powers).max() / scale))
            est = bins @ (t ** np.arange(K + 1))
            tail = n * (t * rho) ** (K + 1) / (1.0 - t * rho)
            diff = float(np.abs(R[i] - est).max())
            bound_dev = max(bound_dev, _bound_ratio(diff, tail))
        out.append(Assertion.check(
            f"walk sums: enumeration matches matrix powers (t={frac}/rho, K={K})",
            powers_dev, 1e-12))
        out.append(Assertion.check(
            f"resolvent within truncation bound (t={frac}/rho, K={K})",
            bound_dev, 1.0))

        H = limits.hitting_weight_matrix(mg, t).entries
        C = limits.commute_cycle_matrix(mg, t)
        hit_dev = 0.0
        com_dev = 0.0
        for (i, j) in _select_pairs(n):
            est, tb = oracle.enumerate_hitting_weight(mg, t, i, j, K)
            hit_dev = max(hit_dev,
                          _bound_ratio(abs(H[i, j] - est), tb.tail, abs(H[i, j])))
            if i < j:
                est_c, tb_c = oracle.enumerate_commute_cycle_weight(mg, t, i, j, K)
                com_dev = max(com_dev, _bound_ratio(abs(C[i, j] - est_c), tb_c.tail,
                                                    abs(C[i, j])))
        out.append(Assertion.check(
            f"hitting weights within truncation bound (t={frac}/rho, K={K})",
            hit_dev, 1.0))
        out.append(Assertion.check(
            f"commute cycles within truncation bound (t={frac}/rho, K={K})",
            com_dev, 1.0))

    D_lw = np.asarray(limits.long_walk_distance(mg))
    D_lew = np.asarray(ewalk.long_ewalk_distance(mg))
    theta_inf = ewalk.theta_infinity(mg)
    K_av = min(30, min(oracle.max_enumeration_depth(mg, i, budget=300_000)
                       for i in range(n)))
    lw_dev = 0.0
    lew_dev = 0.0
    for (i, j) in {(min(i, j), max(i, j)) for (i, j) in _select_pairs(n)}:
        c_ij, b_ij = oracle.enumerate_avoiding_cycles(mg, i, j, K_av)
        c_ji, b_ji = oracle.enumerate_avoiding_cycles(mg, j, i, K_av)
        est = (c_ij + c_ji) / (n * rho)
        bound = (b_ij.tail + b_ji.tail) / (n * rho)
        lw_dev = max(lw_dev, _bound_ratio(abs(D_lw[i, j] - est), bound, D_lw[i, j]))
        cj_ij, bj_ij = oracle.enumerate_avoiding_cycles(mg, i, j, K_av, jump=True)
        cj_ji, bj_ji = oracle.enumerate_avoiding_cycles(mg, j, i, K_av, jump=True)
        est_j = (theta_inf / (2.0 * rho)) * (cj_ij + cj_ji)
        bound_j = (theta_inf / (2.0 * rho)) * (bj_ij.tail + bj_ji.tail)
        lew_dev = max(lew_dev,
                      _bound_ratio(abs(D_lew[i, j] - est_j), bound_j, D_lew[i, j]))
    out.append(Assertion.check(
        f"long-walk distance within avoiding-cycle bound (K={K_av})", lw_dev, 1.0))
    out.append(Assertion.check(
        f"long-e-walk distance within jump-cycle bound (K={K_av})", lew_dev, 1.0))
    return out


# ---------------------------------------------------------------------------
# equivalences


def suite_equivalences(g) -> list[Assertion]:
    """Formula agreement, transform equivalences, spectral-radius identities."""
    mg = _as_graph(g)
    A = mg.adjacency
    n = A.shape[0]
    sd = mg.sd
    out: list[Assertion] = []

    lw = limits.long_walk_all_formulas(mg)
    names = sorted(lw)
    dev = max(_rel_dev(lw[a], lw[b]) for ai, a in enumerate(names)
              for b in names[ai + 1:])
    out.append(Assertion.check("long-walk formulas agree pairwise", dev, 1e-9))

    rs = limits.resistance_all_formulas(mg)
    names = sorted(rs)
    dev = max(_rel_dev(rs[a], rs[b]) for ai, a in enumerate(names)
              for b in names[ai + 1:])
    out.append(Assertion.check("resistance formulas agree pairwise", dev, 1e-9))

    m_min = float(A.sum(axis=1).max())
    # the first is also balance_graph's default, whose m is the largest degree
    balanced = [walk._prepare(transforms.balance_graph(mg, m).result)
                for m in (m_min, m_min + 3.0)]
    dev = 0.0
    for alpha in (0.5, 1.0, 2.0, 5.0):
        lf = walk.log_forest_distance(mg, alpha)
        for bal in balanced:
            dev = max(dev, _rel_dev(lf, walk.walk_distance(bal, alpha)))
    out.append(Assertion.check(
        "log-forest equals walk distance on the balance graph", dev, 1e-9))

    out.append(Assertion.check(
        "resistance equals long-walk on the balance graph",
        _rel_dev(limits.resistance_distance(mg), limits.long_walk_distance(balanced[0])), 1e-9))

    sim = transforms.similarity_transform(mg)
    D_lw = lw["ginverse"]
    out.append(Assertion.check(
        "long-walk equals resistance on the similarity-scaled graph",
        _rel_dev(D_lw, limits.resistance_distance(sim)), 1e-9))

    out.append(Assertion.check(
        "long-e-walk equals long-walk at the tuned large-alpha scale",
        max(_rel_dev(ewalk.long_ewalk_distance(mg), D_lw),
            _rel_dev(ewalk.long_ewalk_via_minors(mg), D_lw)),
        1e-9))

    hw = limits.hitting_weight_matrix(mg, 1.0 / sd.rho)
    ratio = sd.p[:, None] / sd.p[None, :]
    np.fill_diagonal(ratio, 1.0)
    out.append(Assertion.check(
        "hitting weights at the spectral radius equal Perron ratios",
        float(np.abs(hw.entries - ratio).max()), 1e-10))

    C = limits.commute_cycle_matrix(mg, 1.0 / sd.rho)
    off = ~np.eye(n, dtype=bool)
    out.append(Assertion.check(
        "commute cycle weights at the spectral radius equal one",
        float(np.abs(C[off] - 1.0).max()), 1e-10))

    Lam = np.asarray(para_laplacian(A, sd.rho))
    dev = 0.0
    for j in range(n):
        keep = [k for k in range(n) if k != j]
        x = np.linalg.solve(Lam[np.ix_(keep, keep)], A[keep, j])
        dev = max(dev, float(np.abs(x - sd.p[keep] / sd.p[j]).max()))
    out.append(Assertion.check(
        "para-Laplacian minor solves give Perron ratios", dev, 1e-10))
    return out


# ---------------------------------------------------------------------------
# limits


def _sweep_assertions(name: str, points, final_cap: float) -> list[Assertion]:
    devs = [pt.deviation for pt in points]
    failed = [pt for pt in points if pt.failure is not None]
    if failed:
        return [Assertion.check(f"{name}: all sweep points evaluate",
                                float("nan"), 0.0)]
    worst_increase = max(
        (devs[k + 1] - devs[k] for k in range(len(devs) - 1)), default=0.0)
    return [
        Assertion.check(f"{name}: deviation decreases monotonically",
                        worst_increase, 0.0),
        Assertion.check(f"{name}: final deviation small", devs[-1], final_cap),
    ]


def suite_limits(g) -> list[Assertion]:
    """Small- and large-alpha convergence of walk and e-walk distances."""
    mg = _as_graph(g)
    out: list[Assertion] = []

    small = (1e-1, 1e-2, 1e-3, 1e-4)
    large = (1e1, 1e2, 1e3, 1e4)
    pts = limits.limit_sweep(walk.walk_distance, mg, small,
                             limits.shortest_path_matrix(mg))
    out += _sweep_assertions("walk to shortest path (alpha down)", pts, 1e-2)
    pts = limits.limit_sweep(walk.walk_distance, mg, large,
                             limits.long_walk_distance(mg))
    out += _sweep_assertions("walk to long-walk (alpha up)", pts, 1e-2)

    pts = ewalk.ewalk_limit_sweep(mg, (1e-1, 1e-2, 1e-3), "small-alpha")
    out += _sweep_assertions(
        "e-walk to weighted shortest path (alpha down)", pts, 1e-2)
    pts = ewalk.ewalk_limit_sweep(mg, large, "large-alpha")
    out += _sweep_assertions("e-walk to long-e-walk (alpha up)", pts, 1e-2)
    return out


# ---------------------------------------------------------------------------
# properties


@dataclass(frozen=True)
class _Metric:
    """One distance family. compute(g, param, beta) gives the distances on
    the prepared graph g and their theta scale (or None); param is a
    walk.ParamPoint if t_capable, else alpha if parametric; beta shapes
    the e-walk schedule. geodetic > 0 orders the family's claim in the
    properties report."""

    compute: Callable
    parametric: bool = False
    t_capable: bool = False
    geodetic: int = 0

    def param(self, g: walk._PreparedGraph, alpha: float):
        """The param of compute at alpha."""
        if self.t_capable:
            return walk.ParamPoint.from_alpha(g.sd.rho, alpha, g.n)
        return alpha if self.parametric else None


def _ewalk(g, alpha: float, beta: float):
    schedule = ewalk.theta_schedule_for(g, beta=beta)
    return ewalk.ewalk_distance(g, alpha, schedule), schedule(alpha)


_METRICS = {
    "shortest-path": _Metric(lambda g, *_: (limits.shortest_path_matrix(g), None)),
    "weighted-shortest-path": _Metric(
        lambda g, *_: (limits.weighted_shortest_path_matrix(g), None)),
    "walk": _Metric(lambda g, pt, _: (walk._walk_distance_at(g, pt), pt.theta),
                    parametric=True, t_capable=True, geodetic=1),
    "plain-walk": _Metric(lambda g, pt, _: (walk._plain_walk_distance_at(g, pt), None),
                          parametric=True, t_capable=True),
    "forest": _Metric(lambda g, a, _: (walk.forest_distance(g, a), None), parametric=True),
    "log-forest": _Metric(
        lambda g, a, _: (walk.log_forest_distance(g, a), walk.walk_scale(a, g.n)),
        parametric=True, geodetic=3),
    "e-walk": _Metric(_ewalk, parametric=True, geodetic=2),
    "long-walk": _Metric(lambda g, *_: (limits.long_walk_distance(g), ewalk.theta_infinity(g)),
                         geodetic=4),
    "long-ewalk": _Metric(
        lambda g, *_: (ewalk.long_ewalk_distance(g), ewalk.theta_infinity(g))),
    "resistance": _Metric(lambda g, *_: (limits.resistance_distance(g), None), geodetic=5),
}

# the properties suite takes every parametric family at alpha = 1 but this one
_PROPERTY_ALPHA = {"log-forest": 2.0}


def suite_properties(g) -> list[Assertion]:
    """Metric axioms, geodetic characterization, bottleneck identity, PSD."""
    mg = _as_graph(g)
    fams = {}
    for name, m in _METRICS.items():
        D, _ = m.compute(mg, m.param(mg, _PROPERTY_ALPHA.get(name, 1.0)), 1.0)
        fams[name] = np.asarray(D)
    out: list[Assertion] = []

    for name, D in fams.items():
        rep = oracle.check_metric(D)
        out.append(Assertion.check(f"metric axioms: {name}",
                                   float(len(rep.failures)), 0.0))

    for _, name in sorted((m.geodetic, name) for name, m in _METRICS.items() if m.geodetic):
        rep = oracle.check_geodetic(fams[name], mg)
        out.append(Assertion.check(
            f"geodetic iff separator: {name}",
            float(len(rep.failures) + len(rep.notes)), 0.0))

    R = np.asarray(walk.walk_weight_matrix(mg, 0.8 / mg.sd.rho))
    rep = oracle.check_transition(R, mg)
    out.append(Assertion.check(
        "transition inequality and bottleneck identity: walk weights",
        float(len(rep.failures)), 0.0))
    Q = np.asarray(walk.log_forest_proximity(mg, 1.0))
    rep = oracle.check_transition(Q, mg)
    out.append(Assertion.check(
        "transition inequality and bottleneck identity: forest proximity",
        float(len(rep.failures)), 0.0))

    for name in ("long-walk", "resistance"):
        rep = oracle.check_psd_centered(fams[name])
        out.append(Assertion.check(f"centered matrix is PSD: {name}",
                                   float(len(rep.failures)), 0.0))
    return out


SUITES = {
    "oracles": suite_oracles,
    "equivalences": suite_equivalences,
    "limits": suite_limits,
    "properties": suite_properties,
}


def suite_names() -> tuple[str, ...]:
    return tuple(sorted(SUITES))


def run_suite(name: str, g) -> SuiteReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {suite_names()}")
    return SuiteReport(suite=name, assertions=tuple(SUITES[name](g)))
