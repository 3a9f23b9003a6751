"""Seeded inputs and the fixed operation mix of each benchmark workload.

Every workload is a list of passes. A pass is a fixed mix of operations
(which graph sizes, which metrics, which suites); the seed decides the
graphs within it, as set out at SHAPE_SEED.
Because the mix is the same in every pass, a run that stops at a pass
boundary always measures the same proportions of cheap and expensive
operations, which keeps medians and percentiles steady from run to run.

walkdist receives nothing but the edge-list files written from these
graphs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("dist-oneshot", "sweep-reuse", "verify-small")

# The ten metric families of `walkdist dist`, in the CLI's order.
DIST_METRICS = (
    "shortest-path", "weighted-shortest-path", "walk", "plain-walk",
    "forest", "log-forest", "e-walk", "long-walk", "long-ewalk", "resistance",
)

SWEEP_ALPHAS = {
    ("walk", "small-alpha"): (1e-1, 1e-2, 1e-3, 1e-4),
    ("walk", "large-alpha"): (1e1, 1e2, 1e3, 1e4),
    ("e-walk", "small-alpha"): (1e-1, 1e-2, 1e-3),
    ("e-walk", "large-alpha"): (1e1, 1e2, 1e3, 1e4),
}

VERIFY_SUITES = ("equivalences", "limits", "oracles", "properties")

# Pass composition, per size. Paths P150-P200 and random graphs at
# n = 400 are left out of dist-oneshot: the ten metrics on P200 alone
# take about 32 s on one core, longer than a whole run. Paths of P500
# and above are left out everywhere: there `perron` raises
# ConvergenceError after 30-74 s per call.
FULL = {
    "dist-oneshot": {"random": (100, 200, 300), "paths": (100,)},
    # P100 stays: its walk small-alpha sweep exits with code 2 today
    # (resolvent entries underflow), a known failure counted in the result.
    "sweep-reuse": {"random": (80, 100), "paths": (60, 100)},
    "verify-small": {"random": 12},
}
TINY = {
    "dist-oneshot": {"random": (12,), "paths": (8,)},
    "sweep-reuse": {"random": (10,), "paths": (6,)},
    "verify-small": {"random": 2},
}

# In sweep-reuse and verify-small the graphs come from this fixed seed,
# per pass and size, the way acceptance criterion 4 draws its corpus from
# a fixed seed. --seed then draws the vertex labels and line order of
# the sweep-reuse graphs (a fresh permutation of each matrix) and the
# vertex labels of the verify-small graphs. Every pass still gets graphs
# of its own. The reason is steadiness: Perron power iteration and
# the longdouble e-walk series converge at a rate set by the spectrum,
# and the oracles' cost depends on the weights and the vertex order (see
# verify_corpus), so with graphs drawn per seed the median op of a
# sweep-reuse run moved by a third from seed to seed.
#
# dist-oneshot draws its random graphs from --seed: its figures were
# steady without that, and about one n = 300 graph in three trips the
# long-walk accuracy defect (README), which a fixed set of graphs would
# show in every run or in none.
SHAPE_SEED = 20260819


@dataclass(frozen=True)
class Graph:
    """A weighted multigraph as the benchmark wrote it.

    `labels` is in the order the edge list first mentions each vertex,
    which is the order walkdist uses for matrix rows; `edges` holds
    (row, column, weight) triples in that order, loops and parallel
    edges included.
    """

    name: str
    labels: tuple[str, ...]
    edges: tuple[tuple[int, int, float], ...]

    @property
    def n(self) -> int:
        return len(self.labels)

    def edge_list_text(self) -> str:
        return "".join(f"{self.labels[a]} {self.labels[b]} {w!r}\n"
                       for a, b, w in self.edges)

    def adjacency(self) -> np.ndarray:
        A = np.zeros((self.n, self.n))
        for a, b, w in self.edges:
            A[a, b] += w
            if a != b:
                A[b, a] += w
        return A


def _finish(name: str, pairs, rng: random.Random | None) -> Graph:
    """Label vertices by first mention in the (optionally shuffled) edge list."""
    pairs = list(pairs)
    if rng is not None:
        rng.shuffle(pairs)
        pairs = [(b, a, w) if rng.random() < 0.5 else (a, b, w) for a, b, w in pairs]
    order: dict[int, int] = {}
    for a, b, _ in pairs:
        for v in (a, b):
            order.setdefault(v, len(order))
    labels = tuple(f"v{v}" for v in sorted(order, key=order.get))
    edges = tuple((order[a], order[b], w) for a, b, w in pairs)
    return Graph(name=name, labels=labels, edges=edges)


def random_multigraph(n: int, shape_rng: random.Random, rng: random.Random) -> Graph:
    """Spanning tree plus n extra edges, with loops, parallel edges and
    weights in [0.5, 2], all drawn from `shape_rng`; `rng` shuffles the
    lines, so the labels and the vertex order are random too."""
    perm = list(range(n))
    shape_rng.shuffle(perm)
    pairs = [(perm[k], perm[shape_rng.randrange(k)]) for k in range(1, n)]
    for _ in range(n):
        a, b = shape_rng.randrange(n), shape_rng.randrange(n)
        if a != b:
            pairs.append((a, b))
    pairs += [(v, v) for v in (shape_rng.randrange(n) for _ in range(max(1, n // 25)))]
    pairs += [pairs[shape_rng.randrange(n - 1)] for _ in range(max(1, n // 25))]
    return _finish(f"rand{n}", [(a, b, shape_rng.uniform(0.5, 2.0)) for a, b in pairs], rng)


def unit_path(n: int, rng: random.Random | None) -> Graph:
    """The unit path P_n; with an rng its lines and labels are shuffled,
    so the adjacency matrix is a fresh permutation of the same graph."""
    return _finish(f"P{n}", [(k, k + 1, 1.0) for k in range(n - 1)], rng)


def _verify_shapes(count: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """Graph shapes drawn like acceptance criterion 4: n in 2..8, a
    spanning tree plus chords, loops and parallel edges."""
    rng = random.Random(SHAPE_SEED)
    shapes = []
    for _ in range(count):
        n = rng.randint(2, 8)
        pairs = [(k, rng.randrange(k)) for k in range(1, n)]
        for _ in range(rng.randrange(n)):
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                pairs.append((a, b))
        pairs += [(v, v) for v in (rng.randrange(n) for _ in range(rng.randrange(3)))]
        pairs += [pairs[rng.randrange(n - 1)] for _ in range(rng.randrange(3))]
        shapes.append((n, pairs))
    return shapes


def _renamed(g: Graph, rng: random.Random) -> Graph:
    """The same lines in the same order, with vertex labels drawn from rng."""
    return Graph(g.name, tuple(f"v{k}" for k in rng.sample(range(10**6), g.n)), g.edges)


def verify_corpus(count: int, weight_rng: random.Random, rng: random.Random) -> list[Graph]:
    """P4, P5, the sqrt(2)-weighted P4, and `count` shapes with weights
    from `weight_rng`; `rng` draws the vertex labels of every graph.

    Labels only: the oracles' cost depends on the vertex order (the
    oracle suite on P5 took 0.21 s to 0.43 s as its lines were shuffled),
    so the line order stays fixed."""
    r2 = math.sqrt(2.0)
    fixed = [
        _finish("P4", [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)], None),
        _finish("P5", [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)], None),
        _finish("wP4", [(0, 1, r2), (1, 2, 1.0), (2, 3, r2)], None),
    ]
    drawn = [_finish(f"small{n}", [(a, b, weight_rng.uniform(0.5, 2.0)) for a, b in pairs], None)
             for n, pairs in _verify_shapes(count)]
    return [_renamed(g, rng) for g in fixed + drawn]


@dataclass(frozen=True)
class Op:
    """One CLI invocation: `kind` is dist, sweep or verify; `param` is the
    metric, the (metric, direction) pair, or the suite name."""

    kind: str
    graph: Graph
    param: object

    def argv(self, input_path: str, output_path: str) -> list[str]:
        io = ["--input", input_path, "--output", output_path]
        if self.kind == "dist":
            return ["dist", "--metric", self.param, *io]
        if self.kind == "sweep":
            metric, direction = self.param
            return ["sweep", "--metric", metric, "--direction", direction, *io]
        return ["verify", "--suite", self.param, *io]

    @property
    def kind_label(self) -> str:
        param = "/".join(self.param) if isinstance(self.param, tuple) else self.param
        return f"{self.kind} {param}"

    @property
    def label(self) -> str:
        return f"{self.kind_label} {self.graph.name}"


def pass_ops(workload: str, seed: int, pass_index: int, tiny: bool = False) -> list[Op]:
    """The operations of one pass; new graphs every pass, same mix."""
    shape = (TINY if tiny else FULL)[workload]
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    if workload == "verify-small":
        corpus = verify_corpus(shape["random"], random.Random(f"{SHAPE_SEED}:{pass_index}"), rng)
        return [Op("verify", g, s) for g in corpus for s in VERIFY_SUITES]
    graphs = ([random_multigraph(n, rng if workload == "dist-oneshot"
                                 else random.Random(f"{SHAPE_SEED}:{pass_index}:{n}"), rng)
               for n in shape["random"]]
              + [unit_path(n, rng) for n in shape["paths"]])
    if workload == "dist-oneshot":
        return [Op("dist", g, m) for g in graphs for m in DIST_METRICS]
    return [Op("sweep", g, key) for g in graphs for key in SWEEP_ALPHAS]
