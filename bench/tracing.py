"""Spans around walkdist's public functions, recorded from the benchmark side.

A traced operation is the same in-process `cli.main` call as an
untraced one. For the duration of that call, `instrumented` replaces
the functions the CLI and the modules under it call with wrappers that
record a span around each call; walkdist looks every one of them up as
a module global at call time, so nothing in src/walkdist changes. A
function imported by name into several modules (`perron`, for one) is
wrapped in each of them.

Spans nest by call order under one op span and share its op id. They
stay in memory; the run writes them out once, at exit.
"""

from __future__ import annotations

import inspect
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from walkdist import cli, ewalk, limits, oracle, transforms, verify, walk
from walkdist.graph import as_adjacency, as_laplacian

# All times are CPU time of this process: the host's interference shows
# up in wall time as stretches of seconds in which every call is slower.
CLOCK = time.process_time

# Computed floating-point work of one LAPACK floor call on an n x n
# matrix: a symmetric eigendecomposition with vectors (~9n^3, Golub and
# Van Loan), and an LU solve against n right-hand sides (2/3 n^3 + 2n^3).
EIGH_FLOPS = 9.0
SOLVE_FLOPS = 8.0 / 3.0


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    op_id: int
    name: str
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; `span` nests by call order within one operation."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op_id = -1
        self._next_id = 0
        self._stack: list[list] = []  # open spans as [span_id, name]

    @contextmanager
    def span(self, name: str):
        # A wrapped function that walkdist calls from inside itself (one
        # oracle enumerator calling another) would be counted twice.
        if any(active == name for _, active in self._stack):
            yield
            return
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        entry = [span_id, name]
        self._stack.append(entry)
        start = CLOCK()
        try:
            yield
        finally:
            end = CLOCK()
            self._stack.pop()
            self.spans.append(Span(span_id, parent, self.op_id, entry[1], start, end))

    def relabel_open(self, old: str, new: str) -> None:
        """Rename the innermost open span called `old`, if there is one."""
        for entry in reversed(self._stack):
            if entry[1] == old:
                entry[1] = new
                return

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")


class FloorJobs:
    """LAPACK floor calls on the same matrices the traced layers used.

    Each job builds its matrix when it runs, after the operation, so
    queuing one costs the traced call next to nothing.
    """

    def __init__(self) -> None:
        self.jobs: list[tuple[str, object, str]] = []

    def eigh(self, layer: str, matrix_fn) -> None:
        self.jobs.append((layer, matrix_fn, "eigh"))

    def solve(self, layer: str, matrix_fn) -> None:
        self.jobs.append((layer, matrix_fn, "solve"))

    def run(self) -> list[tuple[str, float, float]]:
        """Time each floor once: (layer, seconds, computed flops)."""
        out = []
        for layer, matrix_fn, kind in self.jobs:
            M = matrix_fn()
            n = M.shape[0]
            start = CLOCK()
            if kind == "eigh":
                np.linalg.eigh(M)
            else:
                np.linalg.solve(M, np.eye(n))
            out.append((layer, CLOCK() - start,
                        (EIGH_FLOPS if kind == "eigh" else SOLVE_FLOPS) * n ** 3))
        self.jobs.clear()
        return out


def shifted_para_laplacian(A) -> np.ndarray:
    """rho I - A + p~p~^T, the matrix whose inverse is the long-walk floor."""
    M = as_adjacency(A)
    lam, V = np.linalg.eigh(M)
    return lam[-1] * np.eye(M.shape[0]) - M + np.outer(V[:, -1], V[:, -1])


def shifted_laplacian(g) -> np.ndarray:
    """L + J/n, the matrix whose inverse is the resistance floor."""
    L = as_laplacian(g)
    n = L.shape[0]
    return L + np.full((n, n), 1.0 / n)


@dataclass
class Counts:
    """Per-run tallies taken from the return values of traced calls."""

    sweep_point_failures: int = 0
    assertions_failed: int = 0


@contextmanager
def instrumented(tracer: Tracer, floors: FloorJobs, counts: Counts):
    """Wrap walkdist's public functions in spans until the block exits.

    `span` is a span name, or a function of the call's arguments that
    returns one; `after(result, *args)` runs once the call returned,
    outside its span, to queue a floor or tally the result.
    """
    saved = []

    def patch(module, attr: str, span, after=None) -> None:
        fn = getattr(module, attr)
        saved.append((module, attr, fn))

        def traced(*args, **kwargs):
            with tracer.span(span(*args) if callable(span) else span):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, *args)
            return result

        setattr(module, attr, traced)

    def fallback_span(*_args) -> str:
        tracer.relabel_open("ewalk.distance", "ewalk.small_alpha")
        return "ewalk.longdouble"

    def sweep_failures(points, *_args) -> None:
        counts.sweep_point_failures += sum(pt.failure is not None for pt in points)

    def assertions_failed(report, *_args) -> None:
        counts.assertions_failed += sum(not a.passed for a in report.assertions)

    try:
        patch(cli, "parse_edge_list", "graph.parse")
        patch(cli, "require_connected", "graph.parse")
        for module in (cli, walk, limits, ewalk):
            patch(module, "as_adjacency", "graph.build")
        for module in (walk, limits):
            patch(module, "as_laplacian", "graph.build")
        for module in (cli, walk, limits, ewalk, transforms, verify, oracle):
            patch(module, "perron", "spectral.perron",
                  lambda _sd, A, *_: floors.eigh("spectral.perron", lambda: as_adjacency(A)))
        patch(walk, "walk_weight_matrix", "walk.resolvent",
              lambda _R, A, t: floors.solve(
                  "walk.resolvent", lambda: np.eye(len(as_adjacency(A))) - t * as_adjacency(A)))
        patch(walk, "proximity_to_distance", "walk.fold")
        patch(walk, "gap_distance", "walk.fold")
        patch(walk, "forest_distance", "walk.forest")
        patch(walk, "log_forest_distance", "walk.forest")
        patch(limits, "long_walk_distance", "limits.long_walk",
              lambda _D, A: floors.solve("limits.long_walk", lambda: shifted_para_laplacian(A)))
        patch(limits, "resistance_distance", "limits.resistance",
              lambda _D, g: floors.solve("limits.resistance", lambda: shifted_laplacian(g)))
        patch(limits, "shortest_path_matrix", "limits.shortest_path")
        for module in (limits, ewalk):
            patch(module, "weighted_shortest_path_matrix", "limits.shortest_path")
            patch(module, "limit_sweep", "limits.sweep", sweep_failures)
        # An ewalk_distance call is named for the path it takes: float64,
        # or (renamed when the fallback starts) the longdouble Neumann
        # series where the transformed weights underflow in float64.
        patch(ewalk, "ewalk_distance", "ewalk.distance")
        patch(ewalk, "_log_proximity_longdouble", fallback_span)
        patch(ewalk, "long_ewalk_distance", "ewalk.long_ewalk")
        patch(ewalk, "theta_schedule_for", "ewalk.schedule")
        patch(transforms, "balance_graph", "transforms.balance")
        patch(transforms, "similarity_transform", "transforms.balance")
        for name in oracle.__all__:
            fn = getattr(oracle, name)
            # a generator does its work while the caller iterates, outside any span
            if inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn):
                patch(oracle, name,
                      "oracle.check" if name.startswith("check_") else "oracle.enumerate")
        patch(verify, "run_suite", lambda suite, *_: f"verify.{suite}", assertions_failed)
        patch(cli, "format_matrix_csv", "cli.serialize")
        patch(cli, "write_text", "cli.serialize")
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)
