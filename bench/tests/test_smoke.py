"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest -q bench/tests

Each workload runs for one second on one small graph per size class;
the test checks the output contract, not the numbers.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int) -> list[str]:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    lines = _run(workload, trace)
    doc = json.loads(lines[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["attempted"] >= 1 and doc["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(doc["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = doc["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        assert f"# {m['name']} = {got['value']!r} {m['unit']}" in lines


@pytest.mark.filterwarnings("ignore:parsed graph is disconnected")
def test_disconnected_graph_counts_as_failed(tmp_path):
    sys.path.insert(0, str(BENCH))
    import run
    from workloads import Graph, Op, unit_path

    split = Graph("split4", ("a", "b", "c", "d"), ((0, 1, 1.0), (2, 3, 1.0)))
    ops = [Op("dist", unit_path(5, None), "walk"), Op("dist", split, "walk")]
    paths = run.write_inputs(ops, tmp_path, "smoke")
    results = [run.execute(op, paths[id(op.graph)], tmp_path) for op in ops]
    assert [r.status for r in results] == ["ok", "error"]
    assert results[1].exit_code == 2
    metrics = run.end_to_end(results, setup_s=0.5, pass_size=2)
    assert 1.0 - metrics["ok_frac"] == 0.5  # the failed fraction


def test_traced_call_spans_the_cli_and_restores_walkdist(tmp_path):
    sys.path.insert(0, str(BENCH))
    import run
    import tracing
    from walkdist import cli, ewalk, walk
    from workloads import Op, unit_path

    originals = (cli.perron, walk.perron, walk.walk_weight_matrix, ewalk.ewalk_distance)
    op = Op("dist", unit_path(6, None), "walk")
    paths = run.write_inputs([op], tmp_path, "smoke")
    tracer = tracing.Tracer()
    run._traced_call(op, paths[id(op.graph)], tmp_path, tracer,
                     tracing.FloorJobs(), tracing.Counts())
    assert (cli.perron, walk.perron, walk.walk_weight_matrix, ewalk.ewalk_distance) == originals
    names = {s.name for s in tracer.spans}
    assert {"op", "graph.parse", "graph.build", "spectral.perron", "walk.resolvent",
            "walk.fold", "cli.serialize"} <= names
    op_span = tracer.spans[-1]
    assert op_span.name == "op" and op_span.parent is None


def test_dist_check_separates_lost_digits_from_wrong_answers():
    sys.path.insert(0, str(BENCH))
    import checks
    from workloads import unit_path

    g = unit_path(5, None)
    ref = checks.dist_reference(g, "resistance")

    def csv(D):
        lines = ["# metric=resistance", "labels," + ",".join(g.labels)]
        lines += [f"{v}," + ",".join(repr(float(x)) for x in row) for v, row in zip(g.labels, D)]
        return "\n".join(lines) + "\n"

    scale = abs(ref).max()
    assert checks.check_dist(csv(ref), g, "resistance") == ("ok", "")
    assert checks.check_dist(csv(ref + 1e-7 * scale), g, "resistance")[0] == "inaccurate"
    assert checks.check_dist(csv(ref + 1e-2 * scale), g, "resistance")[0] == "wrong"
    assert checks.check_dist(csv(ref[:4]), g, "resistance")[0] == "wrong"
