"""walkdist benchmark: one seeded, closed-loop caller of the walkdist CLI.

    python3 bench/run.py --workload dist-oneshot --seed 1 --seconds 20 --trace 0

Everything runs in this one process, with BLAS pinned to one thread.
Each operation is one in-process `walkdist.cli.main([...])` call on an
edge-list file generated from the seed, sent only after the previous
one returned. The run measures whole passes of its workload's fixed
mix (see workloads.py) until the time spent inside the calls reaches
--seconds. Every output is read back and checked against a
numpy/scipy reference (checks.py) outside the timed region.

--trace 0 prints the end-to-end metrics of BENCHMARK.json. --trace 1
prints its per-layer metrics: each operation then runs twice, as the
plain CLI call and as the same call with walkdist's public functions
wrapped in spans (tracing.py); the pair gives trace.overhead_frac.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Lines before it, starting with
'#', record the environment, the sample counts and every failure.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy is imported anywhere in this process. The host
# has two cores; a second BLAS thread would contend with the caller.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# setup_s times SETUP_PAIRS fresh interpreters running SETUP_CODE, half
# before the timed loop and half after it, each beside one running
# REFERENCE_IMPORT_CODE (numpy and scipy as walkdist imports them), and
# reports the median ratio scaled to a host speed at which the reference
# takes REFERENCE_IMPORT_S. Unscaled, the set-up time of unchanged code
# moved by a third between stretches of a few minutes on the host the
# bounds were set on; the ratio follows walkdist's own imports.
SETUP_PAIRS = 4
SETUP_CODE = "import walkdist.cli as cli; cli.build_parser()"
REFERENCE_IMPORT_CODE = "import numpy, scipy.sparse.csgraph"
REFERENCE_IMPORT_S = 0.50
# End-to-end times are CPU times scaled to a host speed at which the
# calibration kernel takes this long (its typical time on the 2-vCPU
# host the bounds were set on). The host's speed drifts by a fifth or
# more over tens of seconds, in CPU time too; scaled times follow the
# program, not the host.
REFERENCE_KERNEL_S = 0.020
KERNEL_WINDOW_S = 2.0


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "walkdist" / "__init__.py").is_file():
    _fail(f"walkdist sources not found under {SRC}; run from a checkout of the repository")
if not (ROOT / "BENCHMARK.json").is_file():
    _fail(f"{ROOT / 'BENCHMARK.json'} not found")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from walkdist import cli  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Op, pass_ops, unit_path  # noqa: E402

def _max_rss_mb() -> float:
    """High-water resident memory of this process so far (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


RSS_AFTER_IMPORT_MB = _max_rss_mb()
CALIBRATION_MATRIX = np.random.default_rng(0).standard_normal((200, 200))
CALIBRATION_MATRIX += CALIBRATION_MATRIX.T


@dataclass
class OpResult:
    op: Op
    seconds: float
    exit_code: int | None
    # "ok"; "error" (exit 2/3 or a raise); "inaccurate" (a distance matrix
    # within checks.DIST_GROSS_RTOL of its reference but not DIST_RTOL);
    # "wrong" output. Every status but "ok" fails the operation.
    status: str
    reason: str = ""
    kernel_s: float = REFERENCE_KERNEL_S


# ---------------------------------------------------------------------------
# one operation


def _call_cli(argv: list[str]) -> tuple[int | None, str]:
    """cli.main with its console output captured; (exit code, message)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return cli.main(argv), err.getvalue().strip()
        except SystemExit as exc:  # argparse rejects its arguments this way
            return int(exc.code or 0), err.getvalue().strip()
        except Exception as exc:  # any raise is a failed operation, not a crash
            return None, f"raised {type(exc).__name__}: {exc}"


def _check(op: Op, exit_code: int | None, message: str, out_path: Path) -> tuple[str, str]:
    """Classify one finished operation: (status, reason)."""
    allowed = (0, 1) if op.kind == "verify" else (0,)
    if exit_code not in allowed:
        return "error", f"exit {exit_code}: {message}"
    try:
        text = out_path.read_text(encoding="utf-8")
    except OSError as exc:
        return "wrong", f"output not readable: {exc}"
    if op.kind == "dist":
        return checks.check_dist(text, op.graph, op.param)
    if op.kind == "sweep":
        reason = checks.check_sweep(text, op.graph, *op.param)
    else:
        reason = checks.check_verify(text, op.param, exit_code)
    return ("wrong", reason) if reason else ("ok", "")


def _output_path(workdir: Path, op: Op) -> Path:
    path = workdir / ("out.json" if op.kind == "verify" else "out.csv")
    path.unlink(missing_ok=True)
    return path


def execute(op: Op, input_path: Path, workdir: Path) -> OpResult:
    """Run one operation untraced, time it, then check its output."""
    out_path = _output_path(workdir, op)
    argv = op.argv(str(input_path), str(out_path))
    start = tracing.CLOCK()
    exit_code, message = _call_cli(argv)
    seconds = tracing.CLOCK() - start
    status, reason = _check(op, exit_code, message, out_path)
    return OpResult(op, seconds, exit_code, status, reason)


def write_inputs(ops: list[Op], workdir: Path, tag: str) -> dict[int, Path]:
    """One edge-list file per distinct graph of a pass."""
    paths: dict[int, Path] = {}
    for op in ops:
        key = id(op.graph)
        if key not in paths:
            paths[key] = workdir / f"{tag}-{len(paths)}.edges"
            paths[key].write_text(op.graph.edge_list_text(), encoding="utf-8")
    return paths


def warm_up(workload: str, workdir: Path) -> None:
    """Run the workload's op kinds once on a tiny graph, untimed, so lazy
    imports and first-call set-up do not land in the first timed op."""
    ops = [Op(op.kind, unit_path(6, None), op.param)
           for op in pass_ops(workload, 0, 0, tiny=True)]
    paths = write_inputs(ops, workdir, "warm")
    for op in {(op.kind, op.param): op for op in ops}.values():
        _call_cli(op.argv(str(paths[id(op.graph)]), str(_output_path(workdir, op))))


# ---------------------------------------------------------------------------
# end-to-end run


def _child_cpu_s(code: str) -> float:
    """CPU time (user + system) of a fresh interpreter running `code`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                   check=True, stdout=subprocess.DEVNULL)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime


def measure_setup(pairs: int) -> list[tuple[float, float]]:
    """(walkdist.cli set-up, reference import) CPU times of `pairs` pairs
    of fresh interpreters, alternating which of the two runs first."""
    times = []
    for k in range(pairs):
        if k % 2:
            ref = _child_cpu_s(REFERENCE_IMPORT_CODE)
            times.append((_child_cpu_s(SETUP_CODE), ref))
        else:
            times.append((_child_cpu_s(SETUP_CODE), _child_cpu_s(REFERENCE_IMPORT_CODE)))
    return times


def calibration_kernel() -> float:
    """CPU seconds of fixed interpreter, allocation and LAPACK work."""
    start = tracing.CLOCK()
    total = 0
    for i in range(30_000):
        total += i * i
    table = {(i, i & 7): [i] for i in range(10_000)}
    total += sum(len(v) for v in table.values())
    for _ in range(2):
        np.linalg.eigh(CALIBRATION_MATRIX)
    return tracing.CLOCK() - start


def run_untraced(workload: str, seed: int, seconds: float, tiny: bool,
                 workdir: Path) -> tuple[list[OpResult], float, int]:
    """Whole passes until the CPU time inside the calls reaches `seconds`.

    The calibration kernel runs before the first operation and after
    every one; each op keeps the median of the kernel times taken from
    KERNEL_WINDOW_S before it started to KERNEL_WINDOW_S after it ended.
    A single kernel time is noisy, and the one just after a long
    pure-Python op reads slow, so scaling by only the two kernels around
    each op made the p90 op of verify-small less steady than no scaling.
    """
    results: list[OpResult] = []
    kernels = [(time.monotonic(), calibration_kernel())]
    busy, passes = 0.0, 0
    while passes == 0 or busy < seconds:
        ops = pass_ops(workload, seed, passes, tiny)
        paths = write_inputs(ops, workdir, f"p{passes}")
        for op in ops:
            res = execute(op, paths[id(op.graph)], workdir)
            kernels.append((time.monotonic(), calibration_kernel()))
            busy += res.seconds
            results.append(res)
        passes += 1
    for k, res in enumerate(results):  # op k ran between kernels k and k + 1
        lo, hi = kernels[k][0] - KERNEL_WINDOW_S, kernels[k + 1][0] + KERNEL_WINDOW_S
        res.kernel_s = statistics.median(s for t, s in kernels if lo <= t <= hi)
    return results, busy, passes


def end_to_end(results: list[OpResult], setup_s: float, pass_size: int) -> dict[str, float]:
    """Throughput and latency in reference-speed CPU time (see README).

    Position k of every pass is the same kind of operation (same metric
    or suite, same graph size), so the latency percentiles are taken over
    the positions of one pass, each the median of its times over the
    passes; one slow stretch of the host then moves a single sample.
    """
    times = [r.seconds * REFERENCE_KERNEL_S / r.kernel_s for r in results]
    typical = [statistics.median(times[k::pass_size]) for k in range(pass_size)]
    failed = sum(r.status != "ok" for r in results)
    return {
        "setup_s": setup_s,
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": 1e3 * statistics.median(typical),
        "op_p90_ms": 1e3 * statistics.quantiles(typical, n=10)[8],
        "ok_frac": 1.0 - failed / len(results),
        "peak_rss_mb": _max_rss_mb(),
    }


# ---------------------------------------------------------------------------
# traced run


def run_traced_ops(workload: str, seed: int, seconds: float, tiny: bool, workdir: Path,
                   tracer: tracing.Tracer) -> tuple[list[OpResult], list[float], dict]:
    """Each op as the untraced call (timed and checked) and as the same
    cli.main call under `tracing.instrumented`, in alternating order so
    that neither always runs on warm caches. Returns the untraced
    results, the untraced time of each op, and the floors and counts."""
    results: list[OpResult] = []
    untraced_s: list[float] = []
    counts = tracing.Counts()
    floors: list[tuple[str, float, float]] = []
    busy, passes = 0.0, 0
    while passes == 0 or busy < seconds:
        ops = pass_ops(workload, seed, passes, tiny)
        paths = write_inputs(ops, workdir, f"p{passes}")
        for op in ops:
            path = paths[id(op.graph)]
            jobs = tracing.FloorJobs()
            tracer.op_id = len(untraced_s)
            if tracer.op_id % 2:
                traced_s = _traced_call(op, path, workdir, tracer, jobs, counts)
                res = execute(op, path, workdir)
            else:
                res = execute(op, path, workdir)
                traced_s = _traced_call(op, path, workdir, tracer, jobs, counts)
            results.append(res)
            untraced_s.append(res.seconds)
            floors += jobs.run()
            busy += res.seconds + traced_s
        passes += 1
    return results, untraced_s, {"counts": counts, "floors": floors}


def _traced_call(op: Op, input_path: Path, workdir: Path, tracer: tracing.Tracer,
                 jobs: tracing.FloorJobs, counts: tracing.Counts) -> float:
    """The op's cli.main call inside an op span, with walkdist instrumented."""
    argv = op.argv(str(input_path), str(_output_path(workdir, op)))
    with tracing.instrumented(tracer, jobs, counts), tracer.span("op"):
        _call_cli(argv)
    return tracer.spans[-1].seconds


def per_layer(tracer: tracing.Tracer, untraced_s: list[float], extra: dict,
              names: list[str]) -> dict[str, float]:
    ops = len(untraced_s)
    totals: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in tracer.spans:
        totals[s.name] = totals.get(s.name, 0.0) + s.seconds
        calls[s.name] = calls.get(s.name, 0) + 1
    op_spans = {s.span_id: s for s in tracer.spans if s.name == "op"}
    child_s = sum(s.seconds for s in tracer.spans if s.parent in op_spans)
    traced_s = sum(s.seconds for s in op_spans.values())
    floor_s: dict[str, float] = {}
    floor_flops: dict[str, list[float]] = {}
    for layer, seconds, flops in extra["floors"]:
        floor_s[layer] = floor_s.get(layer, 0.0) + seconds
        floor_flops.setdefault(layer, []).append(flops)
    out: dict[str, float] = {}
    for name in names:
        base, _, suffix = name.rpartition("_")
        if name.endswith("_floor_ms"):
            layer = name[: -len("_floor_ms")]
            out[name] = 1e3 * floor_s.get(layer, 0.0) / ops
        elif name.endswith("_floor_x"):
            layer = name[: -len("_floor_x")]
            out[name] = (totals.get(layer, 0.0) / floor_s[layer]) if floor_s.get(layer) else 0.0
        elif name.endswith("_floor_mflop_computed"):
            layer = name[: -len("_floor_mflop_computed")]
            flops = floor_flops.get(layer, [])
            out[name] = 1e-6 * sum(flops) / len(flops) if flops else 0.0
        elif suffix == "calls":
            out[name] = calls.get(base, 0) / ops
        elif suffix == "ms" and name != "cli.unattributed_ms":
            out[name] = 1e3 * totals.get(base, 0.0) / ops
    counts = extra["counts"]
    out["limits.sweep_point_failures"] = counts.sweep_point_failures / ops
    out["verify.assertions_failed"] = counts.assertions_failed / ops
    out["cli.unattributed_ms"] = 1e3 * (traced_s - child_s) / ops
    out["trace.overhead_frac"] = traced_s / sum(untraced_s) - 1.0
    return out


# ---------------------------------------------------------------------------
# entry point


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        **{var: os.environ[var] for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: one small graph per size class, for the smoke test")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    tiny = args.size == "tiny"

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        warm_up(args.workload, workdir)
        rss_after_warm_up_mb = _max_rss_mb()
        if args.trace:
            tracer = tracing.Tracer()
            results, untraced_s, extra = run_traced_ops(
                args.workload, args.seed, args.seconds, tiny, workdir, tracer)
            values = per_layer(tracer, untraced_s, extra, [m["name"] for m in wanted])
            tracer.write_jsonl(str(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"))
            print(f"# traced: {len(untraced_s)} ops, {len(tracer.spans)} spans")
        else:
            setup_times = measure_setup(SETUP_PAIRS // 2)
            results, busy, passes = run_untraced(
                args.workload, args.seed, args.seconds, tiny, workdir)
            setup_times += measure_setup(SETUP_PAIRS - SETUP_PAIRS // 2)
            setup_s = REFERENCE_IMPORT_S * statistics.median(a / b for a, b in setup_times)
            pass_size = len(results) // passes
            values = end_to_end(results, setup_s, pass_size)
            kernel = statistics.median(r.kernel_s for r in results)
            print(f"# samples: {len(results)} ops in {passes} passes; latency "
                  f"percentiles over the {pass_size} positions of a pass, each the "
                  f"median of {passes}; {busy:.3f} CPU s inside calls, "
                  f"{len(results) / busy!r} ops per raw CPU second; "
                  f"median calibration kernel {1e3 * kernel:.3f} ms against the "
                  f"reference {1e3 * REFERENCE_KERNEL_S:g} ms; setup_s is the median "
                  f"ratio of {SETUP_PAIRS} pairs of fresh interpreters; unscaled, "
                  f"walkdist.cli set-up took a median "
                  f"{statistics.median(a for a, _ in setup_times):.3f} CPU s and the "
                  f"reference import {statistics.median(b for _, b in setup_times):.3f} "
                  f"against the reference {REFERENCE_IMPORT_S:g} s")
            print(f"# failed_frac: {1.0 - values['ok_frac']!r}")
            print(f"# rss: peak {values['peak_rss_mb']:.1f} MB; high-water mark "
                  f"{RSS_AFTER_IMPORT_MB:.1f} MB after the imports, "
                  f"{rss_after_warm_up_mb:.1f} MB after the warm-up")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("# env: " + json.dumps(environment(args.seed)))
    by_kind: dict[str, list[int]] = {}
    for r in results:
        tally = by_kind.setdefault(r.op.kind_label, [0, 0])
        tally[0] += r.status != "ok"
        tally[1] += 1
        if r.status != "ok":
            print(f"# {r.status}: {r.op.label}: {r.reason}")
    print("# failed/attempted by kind: "
          + ", ".join(f"{kind} {f}/{n}" for kind, (f, n) in by_kind.items()))
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        _fail(f"metrics not computed: {missing}")
    for m in wanted:
        print(f"# {m['name']} = {values[m['name']]!r} {m['unit']}")
    doc = {
        "correct": not any(r.status == "wrong" for r in results),
        "attempted": len(results),
        "failed": sum(r.status != "ok" for r in results),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
