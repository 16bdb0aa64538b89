"""Tests of the benchmark harness itself, on 3x3 grids."""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from topogen import degree, graphs, trees  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = (3, 3)


@pytest.fixture(scope="module", autouse=True)
def work_dir(tmp_path_factory):
    saved = run.WORK
    run.WORK = tmp_path_factory.mktemp("work")
    yield
    run.WORK = saved


@pytest.fixture(scope="module")
def tiny_runs():
    return {
        (name, trace): run.run_workload(name, 5, 0, trace, grid=TINY, min_runs=1)
        for name in workloads.WORKLOADS
        for trace in (False, True)
    }


def test_definitions_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]] == [
        tuple(metric) for metric in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        tuple(metric) for metric in tracing.PER_LAYER
    ]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(tiny_runs, name, trace):
    summary = tiny_runs[name, trace]["summary"]
    section = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert summary["correct"] and summary["failed"] == 0
    assert summary["attempted"] == len(workloads.WORKLOADS[name].commands) * (2 if trace else 1)
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == {
        m["name"]: m["unit"] for m in section
    }
    for value in summary["metrics"].values():
        assert isinstance(value["value"], (int, float))
        assert value["value"] > 0 or trace


def test_traced_counts_follow_the_workload(tiny_runs):
    metrics = {
        name: {k: v["value"] for k, v in tiny_runs[name, True]["summary"]["metrics"].items()}
        for name in workloads.WORKLOADS
    }
    n = TINY[0] * TINY[1]
    rejected = len(workloads.MALFORMED)
    ingest = metrics["ingest-analyze"]
    assert ingest["measurements.parse_campaign_log.lines"] == n * (n - 1) * workloads.PACKETS + rejected
    assert ingest["measurements.parse_campaign_log.rejected"] == rejected
    assert ingest["ilp.solve.calls"] == 0 and ingest["trees.monitored_bfs.calls"] == 0
    assert metrics["tree-sweep"]["trees.monitored_bfs.calls"] == workloads.BOUNDS * n
    assert metrics["degree-sweep"]["ilp.solve.calls"] == workloads.BOUNDS
    for values in metrics.values():
        assert values["synth.grid_scenario.self_s"] > 0
        assert values["fail_ratio"] == 0
        assert values["trace.overhead_ratio"] > 0


def test_wrappers_reach_names_bound_at_import():
    original = graphs.neighborhood_graph
    tracer = tracing.Tracer()
    with tracer.installed():
        assert trees.neighborhood_graph.__wrapped__ is original
        assert degree.connected_components.__wrapped__ is graphs.connected_components.__wrapped__
        with tracer.span("cli.tree"):
            matrix = workloads.grid_matrix(TINY, 1)
            kappa = trees.KappaSpec.parse("linear")
            swept = trees.sweep_trees(matrix, kappa, 15.0, graphs.GraphFamily(matrix))
            trees.reduce_tree(swept[0], matrix, kappa)
    assert trees.neighborhood_graph is original
    names = [span[0] for span in tracer.spans]
    assert names.count("trees.monitored_bfs") == workloads.BOUNDS * 9
    assert names.count("ilp.solve") == 1 and names.count("trees.check_tree") == 1


def test_self_times_add_up_to_the_span_total():
    tracer = tracing.Tracer()
    with tracer.installed():
        with tracer.span("cli.degree"):
            matrix = workloads.grid_matrix(TINY, 2)
            degree.select_constant_degree(matrix, 3, graphs.GraphFamily(matrix))
    selfs = tracing.self_times(tracer.spans)
    total = sum(end - start for _, start, end, parent, _, _ in tracer.spans if parent < 0)
    excluded = sum(span[4] for span in tracer.spans)
    assert min(selfs) >= 0
    assert sum(selfs) <= total
    assert sum(selfs) == pytest.approx(total - excluded, abs=1e-9)
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["ilp.solve.calls"] == workloads.BOUNDS
    assert 0 < metrics["graphs.useful_ratio"] <= 1
    assert metrics["ilp.solve.max_s"] <= metrics["ilp.solve.self_s"]


def test_timeouts_count_as_failed_commands():
    result = run.run_workload(
        "degree-sweep", 5, 0, False, grid=TINY, min_runs=1, budget_scale=1e-4
    )
    assert result["fail_ratio"] == 1.0
    assert result["summary"]["failed"] == result["summary"]["attempted"] == 1
    assert not result["summary"]["correct"]


def test_changed_output_counts_as_a_failed_command(monkeypatch):
    digests = iter(f"digest-{k}" for k in range(100))
    monkeypatch.setattr(run, "_digest", lambda directory: next(digests))
    result = run.run_workload("degree-sweep", 5, 0, False, grid=TINY, min_runs=2)
    assert result["fail_ratio"] == 0.5
    assert result["runs"][1]["commands"][0]["failure"] == "output differs from the first run"


def test_missing_source_exits_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "tree-sweep", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
