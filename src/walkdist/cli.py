"""Command-line front end.

Subcommands:

* dist      - compute one distance family on an edge-list graph
* table-p4  - the seven-family ratio table on the unit path P4, live
* verify    - run a self-verification suite, emit a JSON report
* sweep     - limit-convergence sweep, emit plot-ready CSV

Exit codes: 0 success, 1 verification failure, 2 invalid input
(parse error, disconnected graph, bad parameters), 3 numerical failure
(divergent t, ill-conditioned solve, underflow).

File outputs are written to a temporary file in the destination
directory and renamed into place, so a failed run never leaves a
partial file behind.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__, ewalk, limits, transforms, verify, walk
from .errors import GraphInputError, NumericalError
# perron and as_adjacency stay importable here: bench/tracing.py wraps them in this module
from .graph import (WeightedMultigraph, as_adjacency, parse_edge_list,
                    path_graph, require_connected)
from .spectral import perron

FLOAT_FMT = "%.17g"


# ---------------------------------------------------------------------------
# serialization


def _fmt(x: float) -> str:
    return FLOAT_FMT % float(x)


def _meta_lines(meta: dict) -> list[str]:
    return [f"# {key}={_fmt(val) if isinstance(val, float) else val}"
            for key, val in meta.items() if val is not None]


def format_matrix_csv(labels, matrix, meta: dict) -> str:
    """CSV text: '# key=value' metadata lines, then a labeled matrix.

    Values use 17 significant digits, so parse_matrix_csv returns the
    exact same floats.
    """
    rows = np.asarray(matrix, dtype=float).tolist()
    row_fmt = ",".join([FLOAT_FMT] * len(labels))
    lines = _meta_lines(meta)
    lines.append("labels," + ",".join(labels))
    lines += [lab + "," + row_fmt % tuple(row) for lab, row in zip(labels, rows)]
    return "\n".join(lines) + "\n"


def parse_matrix_csv(text: str) -> tuple[tuple[str, ...], np.ndarray, dict]:
    """Inverse of format_matrix_csv. Metadata values parse as float when
    they can, and stay strings otherwise."""
    meta: dict = {}
    rows = []
    labels: tuple[str, ...] | None = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if "=" in body:
                key, _, val = body.partition("=")
                try:
                    meta[key.strip()] = float(val.strip())
                except ValueError:
                    meta[key.strip()] = val.strip()
            continue
        cells = line.split(",")
        if labels is None:
            if cells[0] != "labels":
                raise GraphInputError("matrix CSV must start with a labels row")
            labels = tuple(cells[1:])
            continue
        rows.append([float(c) for c in cells[1:]])
    if labels is None:
        raise GraphInputError("no labels row found in matrix CSV")
    M = np.array(rows, dtype=float)
    if M.shape != (len(labels), len(labels)):
        raise GraphInputError(
            f"matrix CSV is {M.shape}, expected {(len(labels),) * 2}")
    return labels, M, meta


def format_matrix_json(labels, matrix, meta: dict) -> str:
    M = np.asarray(matrix, dtype=float)
    doc = {
        "labels": list(labels),
        "matrix": M.tolist(),
        "meta": {k: meta.get(k) for k in ("rho", "alpha", "t", "theta", "metric")},
    }
    return json.dumps(doc, indent=2) + "\n"


def format_pairs_csv(pairs, meta: dict) -> str:
    lines = _meta_lines(meta)
    lines.append("i,j,distance")
    for (a, b, d) in pairs:
        lines.append(f"{a},{b},{_fmt(d)}")
    return "\n".join(lines) + "\n"


def format_pairs_json(pairs, meta: dict) -> str:
    doc = {
        "pairs": [{"i": a, "j": b, "distance": float(d)} for (a, b, d) in pairs],
        "meta": {k: meta.get(k) for k in ("rho", "alpha", "t", "theta", "metric")},
    }
    return json.dumps(doc, indent=2) + "\n"


def write_text(path: str | None, text: str) -> None:
    """Write to path atomically (temp file + rename), or to stdout."""
    if path is None:
        sys.stdout.write(text)
        return
    target = os.path.abspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target),
                               prefix=".walkdist-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# graph + config plumbing


def _load_graph(path: str | None) -> WeightedMultigraph:
    if path is None:
        return path_graph(4)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise GraphInputError(f"cannot read {path}: {exc}") from exc
    g = parse_edge_list(text)
    require_connected(g)
    return g


def _parse_pairs(spec: str, g: WeightedMultigraph) -> list[tuple[str, str]]:
    pairs = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise GraphInputError(
                f"bad pair {chunk!r}: expected label:label (e.g. 1:2)")
        a, _, b = chunk.partition(":")
        a, b = a.strip(), b.strip()
        for lab in (a, b):
            if lab not in g.labels:
                raise GraphInputError(f"unknown vertex label {lab!r} in --pairs")
        pairs.append((a, b))
    if not pairs:
        raise GraphInputError("--pairs given but no pairs parsed")
    return pairs


def _compute_metric(g: walk._PreparedGraph, args) -> tuple[np.ndarray, dict]:
    """Evaluate one metric family; returns (matrix, metadata)."""
    metric = verify._METRICS[args.metric]
    if args.t is not None and args.alpha is not None:
        raise GraphInputError("--alpha and --t are mutually exclusive")
    if args.t is not None and not metric.t_capable:
        t_capable = sorted(name for name, m in verify._METRICS.items() if m.t_capable)
        raise GraphInputError(f"--t applies only to {t_capable}")
    if args.alpha is not None and not metric.parametric:
        raise GraphInputError(f"--alpha does not apply to metric {args.metric!r}")

    if args.t is not None:
        param = walk.ParamPoint.from_t(g.sd.rho, args.t, g.n)
    else:
        param = metric.param(g, args.alpha if args.alpha is not None else 1.0)
    D, theta = metric.compute(g, param, args.beta)
    point = isinstance(param, walk.ParamPoint)
    meta = {"metric": args.metric, "n": g.n, "rho": g.sd.rho,
            "alpha": param.alpha if point else param, "t": param.t if point else None,
            "theta": theta}
    return np.asarray(D, dtype=float), meta


# ---------------------------------------------------------------------------
# subcommands


def cmd_dist(args) -> int:
    g = _load_graph(args.input)
    if args.m is not None:
        g = transforms.balance_graph(g, args.m).result
    g = walk._prepare(g)
    M, meta = _compute_metric(g, args)
    if args.pairs:
        wanted = _parse_pairs(args.pairs, g)
        rows = [(a, b, M[g.position(a), g.position(b)]) for (a, b) in wanted]
        text = (format_pairs_json(rows, meta) if args.format == "json"
                else format_pairs_csv(rows, meta))
    else:
        text = (format_matrix_json(g.labels, M, meta) if args.format == "json"
                else format_matrix_csv(g.labels, M, meta))
    write_text(args.output, text)
    return 0


TABLE_P4_ROWS = (
    # (display name, compute, expected ratios, note)
    ("shortest path / resistance", "sp-resistance",
     (1.0, 1.0, 1.5), "coincide on trees"),
    ("walk (alpha=1)", "walk-1", (1.08, 1.0, 1.52), ""),
    ("long walk", "long-walk",
     ((1 + math.sqrt(5)) / 2, 1.0, (1 + math.sqrt(5)) / 2), "(1+sqrt(5))/2"),
    ("log-forest (alpha=2)", "log-forest-2", (0.89, 1.0, 1.47), ""),
    ("forest (alpha=1)", "forest-1", (1.08, 1.32, 1.26), ""),
    ("plain walk (alpha=4.5)", "plain-walk-4.5", (1.08, 1.28, 0.95), ""),
    ("plain walk (alpha=1)", "plain-walk-1", (0.96, 1.46, 1.03), ""),
)

TABLE_P4_TOL = 0.005


def _p4_ratios(D) -> tuple[float, float, float]:
    """The three shape ratios on the path 1-2-3-4:
    d12/d23, (d12+d23)/d13, d14/d13."""
    M = np.asarray(D, dtype=float)
    return (float(M[0, 1] / M[1, 2]),
            float((M[0, 1] + M[1, 2]) / M[0, 2]),
            float(M[0, 3] / M[0, 2]))


def table_p4_values() -> list[dict]:
    """Compute every table row live on the unit path P4."""
    g = walk._prepare(path_graph(4))
    computed = {
        "sp-resistance": _p4_ratios(limits.shortest_path_matrix(g)),
        "walk-1": _p4_ratios(walk.walk_distance(g, 1.0)),
        "long-walk": _p4_ratios(limits.long_walk_distance(g)),
        "log-forest-2": _p4_ratios(walk.log_forest_distance(g, 2.0)),
        "forest-1": _p4_ratios(walk.forest_distance(g, 1.0)),
        "plain-walk-4.5": _p4_ratios(walk.plain_walk_distance(g, 4.5)),
        "plain-walk-1": _p4_ratios(walk.plain_walk_distance(g, 1.0)),
    }
    # the combined first row must agree for both of its metrics
    res_ratios = _p4_ratios(limits.resistance_distance(g))
    rows = []
    for (name, key, expected, note) in TABLE_P4_ROWS:
        got = computed[key]
        ok = all(abs(gv - ev) <= TABLE_P4_TOL for gv, ev in zip(got, expected))
        if key == "sp-resistance":
            ok = ok and all(abs(rv - ev) <= TABLE_P4_TOL
                            for rv, ev in zip(res_ratios, expected))
        rows.append({"name": name, "key": key, "computed": got,
                     "expected": expected, "note": note, "passed": ok})
    return rows


def cmd_table_p4(args) -> int:
    rows = table_p4_values()
    header = (f"{'metric':28s} {'d12/d23':>8s} {'(d12+d23)/d13':>14s} "
              f"{'d14/d13':>8s}  result")
    print(header)
    print("-" * len(header))
    for row in rows:
        r1, r2, r3 = row["computed"]
        status = "pass" if row["passed"] else "FAIL"
        note = f"  [{row['note']}]" if row["note"] else ""
        print(f"{row['name']:28s} {r1:8.2f} {r2:14.2f} {r3:8.2f}  {status}{note}")
    if args.output:
        lines = ["metric,ratio_12_23,ratio_sum_13,ratio_14_13,"
                 "expected_12_23,expected_sum_13,expected_14_13,passed"]
        for row in rows:
            cells = [row["key"]]
            cells += [_fmt(x) for x in row["computed"]]
            cells += [_fmt(x) for x in row["expected"]]
            cells.append(str(row["passed"]).lower())
            lines.append(",".join(cells))
        write_text(args.output, "\n".join(lines) + "\n")
    return 0


def cmd_verify(args) -> int:
    g = walk._prepare(_load_graph(args.input))
    names = verify.suite_names() if args.suite == "all" else (args.suite,)
    reports = [verify.run_suite(name, g) for name in names]
    doc = {
        "input": args.input or "built-in path P4",
        "passed": all(r.passed for r in reports),
        "suites": [r.as_dict() for r in reports],
    }
    write_text(args.output, json.dumps(doc, indent=2) + "\n")
    if args.output is not None:
        total = sum(len(r.assertions) for r in reports)
        failed = sum(1 for r in reports for a in r.assertions if not a.passed)
        print(f"{total - failed}/{total} assertions passed; report in {args.output}")
    return 0 if doc["passed"] else 1


SWEEP_DEFAULTS = {
    ("walk", "small-alpha"): (1e-1, 1e-2, 1e-3, 1e-4),
    ("walk", "large-alpha"): (1e1, 1e2, 1e3, 1e4),
    ("e-walk", "small-alpha"): (1e-1, 1e-2, 1e-3),
    ("e-walk", "large-alpha"): (1e1, 1e2, 1e3, 1e4),
}


def cmd_sweep(args) -> int:
    g = walk._prepare(_load_graph(args.input))
    n = g.n
    if args.alphas:
        try:
            alphas = tuple(float(a) for a in args.alphas.split(","))
        except ValueError as exc:
            raise GraphInputError(f"bad --alphas list: {exc}") from exc
    else:
        alphas = SWEEP_DEFAULTS[(args.metric, args.direction)]

    if args.metric == "walk":
        reference = (limits.shortest_path_matrix(g)
                     if args.direction == "small-alpha"
                     else limits.long_walk_distance(g))
        ref_name = ("shortest-path" if args.direction == "small-alpha"
                    else "long-walk")
        points = limits.limit_sweep(walk.walk_distance, g, alphas, reference)
        thetas = [walk.walk_scale(a, n) for a in alphas]
    else:
        schedule = ewalk.theta_schedule_for(g, beta=args.beta)
        points = ewalk.ewalk_limit_sweep(g, alphas, args.direction, schedule)
        ref_name = ("weighted-shortest-path" if args.direction == "small-alpha"
                    else "long-ewalk")
        thetas = [schedule(a) for a in alphas]

    meta = {"metric": args.metric, "direction": args.direction,
            "reference": ref_name, "n": n, "rho": g.sd.rho}
    lines = _meta_lines(meta)
    lines.append("alpha,deviation,theta,failure")
    for pt, theta in zip(points, thetas):
        failure = pt.failure or ""
        lines.append(f"{_fmt(pt.alpha)},{_fmt(pt.deviation)},{_fmt(theta)},"
                     f"{failure}")
    write_text(args.output, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walkdist",
        description="Walk-based graph distances: compute, sweep, verify.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="compute a distance matrix")
    p.add_argument("--metric", required=True, choices=tuple(verify._METRICS))
    p.add_argument("--input", help="edge-list file (default: unit path P4)")
    p.add_argument("--alpha", type=float,
                   help="family parameter (default 1.0 where applicable)")
    p.add_argument("--t", type=float,
                   help="resolvent parameter, alternative to --alpha "
                        "(walk and plain-walk only)")
    p.add_argument("--m", type=float,
                   help="compute on the balance graph with uniform row sum M")
    p.add_argument("--beta", type=float, default=1.0,
                   help="theta-schedule shape for e-walk (default 1)")
    p.add_argument("--output", help="write here (atomic); default stdout")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--pairs", help="only these pairs, e.g. 1:2,2:3")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("table-p4",
                       help="seven-family ratio table on the unit path P4")
    p.add_argument("--output",
                   help="also write a full-precision CSV sidecar here")
    p.set_defaults(func=cmd_table_p4)

    p = sub.add_parser("verify", help="run a self-verification suite")
    p.add_argument("--suite", required=True,
                   choices=verify.suite_names() + ("all",))
    p.add_argument("--input", help="edge-list file (default: unit path P4)")
    p.add_argument("--output", help="write the JSON report here (atomic)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="limit-convergence sweep to CSV")
    p.add_argument("--metric", required=True, choices=("walk", "e-walk"))
    p.add_argument("--direction", required=True,
                   choices=("small-alpha", "large-alpha"))
    p.add_argument("--input", help="edge-list file (default: unit path P4)")
    p.add_argument("--alphas", help="comma-separated schedule override")
    p.add_argument("--beta", type=float, default=1.0,
                   help="theta-schedule shape for e-walk (default 1)")
    p.add_argument("--output", help="write CSV here (atomic); default stdout")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GraphInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
