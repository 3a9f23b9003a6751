import json
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from walkdist import as_adjacency, path_graph, perron, serialize_edge_list, walk_distance
from walkdist.cli import format_matrix_csv, main, parse_matrix_csv


@pytest.fixture
def graph_file(tmp_path, multi5):
    path = tmp_path / "multi5.edges"
    path.write_text(serialize_edge_list(multi5))
    return str(path)


def run(args):
    return main(args)


def test_dist_csv_roundtrip(tmp_path, graph_file, multi5):
    out = tmp_path / "d.csv"
    assert run(["dist", "--metric", "walk", "--alpha", "2.0",
                "--input", graph_file, "--output", str(out)]) == 0
    labels, M, meta = parse_matrix_csv(out.read_text())
    assert labels == multi5.labels
    assert np.allclose(M, np.asarray(walk_distance(multi5, 2.0)))
    assert meta["metric"] == "walk"
    assert float(meta["alpha"]) == 2.0
    # 17 significant digits survive a parse/format cycle bit-exactly
    again = format_matrix_csv(labels, M, meta)
    labels2, M2, meta2 = parse_matrix_csv(again)
    assert np.array_equal(M, M2)
    assert format_matrix_csv(labels2, M2, meta2) == again


def test_dist_json_shape(tmp_path, graph_file):
    out = tmp_path / "d.json"
    assert run(["dist", "--metric", "resistance", "--input", graph_file,
                "--format", "json", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"labels", "matrix", "meta"}
    M = np.array(doc["matrix"])
    assert np.allclose(M, M.T)
    assert doc["meta"]["metric"] == "resistance"


def test_dist_pairs(tmp_path, graph_file, multi5):
    out = tmp_path / "pairs.csv"
    assert run(["dist", "--metric", "long-walk", "--input", graph_file,
                "--pairs", "a:b,b:d", "--output", str(out)]) == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "i,j,distance"
    assert len(lines) == 3
    assert lines[1].startswith("a,b,")


def test_dist_pairs_validation(graph_file):
    assert run(["dist", "--metric", "walk", "--input", graph_file,
                "--pairs", "a:zz"]) == 2
    assert run(["dist", "--metric", "walk", "--input", graph_file,
                "--pairs", "ab"]) == 2


def test_dist_t_parameter(tmp_path, graph_file, multi5):
    rho = perron(as_adjacency(multi5)).rho
    alpha = 2.0
    t = 1.0 / (rho + 1.0 / alpha)
    out_a = tmp_path / "a.csv"
    out_t = tmp_path / "t.csv"
    assert run(["dist", "--metric", "walk", "--alpha", str(alpha),
                "--input", graph_file, "--output", str(out_a)]) == 0
    assert run(["dist", "--metric", "walk", "--t", repr(t),
                "--input", graph_file, "--output", str(out_t)]) == 0
    _, Ma, _ = parse_matrix_csv(out_a.read_text())
    _, Mt, _ = parse_matrix_csv(out_t.read_text())
    assert np.allclose(Ma, Mt, rtol=1e-12)


def test_dist_t_rejections(graph_file):
    # t is only meaningful for the resolvent families
    assert run(["dist", "--metric", "log-forest", "--t", "0.2",
                "--input", graph_file]) == 2
    # both parameters at once is ambiguous
    assert run(["dist", "--metric", "walk", "--alpha", "1.0", "--t", "0.2",
                "--input", graph_file]) == 2
    # past the spectral radius the series diverges
    assert run(["dist", "--metric", "walk", "--t", "5.0",
                "--input", graph_file]) == 3


def test_dist_input_errors(tmp_path):
    missing = str(tmp_path / "nope.edges")
    assert run(["dist", "--metric", "walk", "--input", missing]) == 2
    bad = tmp_path / "bad.edges"
    bad.write_text("a b not-a-number\n")
    assert run(["dist", "--metric", "walk", "--input", str(bad)]) == 2
    split = tmp_path / "split.edges"
    split.write_text("a b 1\nc d 1\n")
    with pytest.warns(Warning):
        assert run(["dist", "--metric", "walk", "--input", str(split)]) == 2


def test_dist_balance_flag_realizes_log_forest(tmp_path, graph_file, multi5):
    # computing the walk metric on the balance graph reproduces log-forest
    m = float(as_adjacency(multi5).sum(axis=1).max())
    out_w = tmp_path / "w.csv"
    out_f = tmp_path / "f.csv"
    assert run(["dist", "--metric", "walk", "--alpha", "2.0", "--m", repr(m),
                "--input", graph_file, "--output", str(out_w)]) == 0
    assert run(["dist", "--metric", "log-forest", "--alpha", "2.0",
                "--input", graph_file, "--output", str(out_f)]) == 0
    _, Mw, _ = parse_matrix_csv(out_w.read_text())
    _, Mf, _ = parse_matrix_csv(out_f.read_text())
    assert np.abs(Mw - Mf).max() <= 1e-9 * np.abs(Mf).max()


def test_dist_defaults_to_p4(capsys):
    assert run(["dist", "--metric", "shortest-path"]) == 0
    text = capsys.readouterr().out
    labels, M, meta = parse_matrix_csv(text)
    assert labels == ("1", "2", "3", "4")
    assert M[0, 3] == 3.0


def test_output_replaces_atomically(tmp_path, graph_file):
    out = tmp_path / "d.csv"
    out.write_text("stale")
    assert run(["dist", "--metric", "walk", "--input", graph_file,
                "--output", str(out)]) == 0
    assert "stale" not in out.read_text()
    leftovers = [p for p in os.listdir(tmp_path) if p not in
                 ("d.csv", os.path.basename(graph_file))]
    assert leftovers == []


def test_table_p4(tmp_path, capsys):
    out = tmp_path / "table.csv"
    assert run(["table-p4", "--output", str(out)]) == 0
    text = capsys.readouterr().out
    assert text.count(" pass") == 7
    assert "FAIL" not in text
    lines = out.read_text().splitlines()
    assert lines[0].startswith("metric,")
    assert len(lines) == 8
    assert all(line.endswith(",true") for line in lines[1:])


def test_verify_cli_default_graph(capsys):
    assert run(["verify", "--suite", "oracles"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert doc["suites"][0]["suite"] == "oracles"


def test_verify_cli_report_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(["verify", "--suite", "all", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert [s["suite"] for s in doc["suites"]] == list(
        ("equivalences", "limits", "oracles", "properties"))
    summary = capsys.readouterr().out
    assert "assertions passed" in summary


def test_sweep_csv(capsys):
    assert run(["sweep", "--metric", "walk", "--direction", "small-alpha"]) == 0
    lines = capsys.readouterr().out.splitlines()
    header_at = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_at] == "alpha,deviation,theta,failure"
    rows = [l.split(",") for l in lines[header_at + 1:] if l]
    devs = [float(r[1]) for r in rows]
    assert devs == sorted(devs, reverse=True)
    assert all(r[3] == "" for r in rows)


def test_walk_underflow_is_a_numerical_failure(tmp_path, capsys):
    # On P100 at alpha = 1e-4, t^99 underflows float64: the end-to-end
    # walk weight is 0, so its log is undefined. That is a numerical
    # failure (exit 3), and a sweep records it as a failed point.
    path = tmp_path / "p100.edges"
    path.write_text(serialize_edge_list(path_graph(100)))
    assert run(["dist", "--metric", "walk", "--alpha", "1e-4",
                "--input", str(path)]) == 3
    assert "underflow" in capsys.readouterr().err
    assert run(["sweep", "--metric", "walk", "--direction", "small-alpha",
                "--input", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    header_at = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    rows = {float(r[0]): r for r in
            (l.split(",", 3) for l in lines[header_at + 1:] if l)}
    assert sorted(rows) == [1e-4, 1e-3, 1e-2, 1e-1]
    assert rows[1e-4][3].startswith("NumericalError")
    assert all(rows[a][3] == "" for a in (1e-3, 1e-2, 1e-1))


@pytest.mark.parametrize("alpha", ["nan", "inf"])
@pytest.mark.parametrize("metric", ["walk", "forest", "e-walk"])
def test_dist_rejects_nonfinite_alpha(metric, alpha, capsys):
    # a non-finite parameter is bad input (exit 2), not a numerical failure
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["dist", "--metric", metric, "--alpha", alpha]) == 2
    assert caught == []
    assert "finite and positive" in capsys.readouterr().err


def test_sweep_rejects_bad_alphas():
    assert run(["sweep", "--metric", "walk", "--direction", "small-alpha",
                "--alphas", "0.1,zero"]) == 2


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64),
                min_size=4, max_size=4))
def test_matrix_csv_roundtrips_any_floats(values):
    M = np.array(values).reshape(2, 2)
    text = format_matrix_csv(("a", "b"), M, {"metric": "test"})
    labels, M2, _ = parse_matrix_csv(text)
    assert labels == ("a", "b")
    assert np.array_equal(M, M2)


def test_matrix_csv_bytes_match_per_entry_format():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((300, 300)) * 10.0 ** rng.integers(-300, 300, (300, 300))
    M[0, 0], M[1, 1], M[2, 2], M[0, 1] = 1e-310, -0.0, 1e300, 0.0
    labels = [f"v{i}" for i in range(300)]
    meta = {"metric": "walk", "n": 300, "rho": 2.5, "alpha": None}
    expect = ["# metric=walk", "# n=300", "# rho=2.5", "labels," + ",".join(labels)]
    expect += [lab + "," + ",".join("%.17g" % float(x) for x in M[i])
               for i, lab in enumerate(labels)]
    assert format_matrix_csv(labels, M, meta) == "\n".join(expect) + "\n"
