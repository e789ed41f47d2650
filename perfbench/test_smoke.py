"""Smoke test of the benchmark's own code on tiny inputs.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""
import json
from pathlib import Path

import pytest

import run
from layers import PER_LAYER_UNITS
from workloads import City, Sizes

TINY = Sizes(
    offline_city=City(3, 3, 100.0, 12, 20.0),
    online_city=City(3, 3, 100.0, 12, 20.0),
    eval_topo=City(3, 3, 100.0, 12, (20.0, 60.0)),
    resparsify_interval=50,
    topo_samples=3,
)

# the per-workload metrics the untraced report adds, with their units
REPORTED = {
    "offline_city": {"offline_fixes_per_s": "fixes/s"},
    "online_city": {"online_pairs_per_s": "pairs/s",
                    "online_pair_p50_us": "us", "online_pair_p99_us": "us"},
    "eval_topo": {"eval_s": "s", "topo_f30": "ratio"},
}


@pytest.mark.parametrize("workload", sorted(REPORTED))
def test_untraced_run_prints_every_metric(workload, capsys, monkeypatch):
    monkeypatch.setattr(run, "FULL", TINY)
    assert run.main(["--workload", workload, "--seed", "1",
                     "--seconds", "0.01", "--trace", "0"]) == 0
    *_, report_line, result_line = capsys.readouterr().out.splitlines()
    result = json.loads(result_line)
    report = json.loads(report_line)["report"]

    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} \
        == run.END_TO_END_UNITS
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert report["error_rate"] == {"value": 0.0, "unit": "ratio"}
    for name, unit in REPORTED[workload].items():
        assert report[name]["unit"] == unit
        assert report[name]["value"] > 0
    assert report["environment"]["pinned_env"]["OMP_NUM_THREADS"] == "1"


@pytest.mark.parametrize("workload", sorted(REPORTED))
def test_traced_run_is_transparent(workload, capsys, monkeypatch):
    monkeypatch.setattr(run, "FULL", TINY)
    assert run.main(["--workload", workload, "--seed", "1",
                     "--seconds", "0.01", "--trace", "1"]) == 0
    *_, report_line, result_line = capsys.readouterr().out.splitlines()
    result = json.loads(result_line)
    report = json.loads(report_line)["report"]

    assert result["correct"] is True and result["failed"] == 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} \
        == PER_LAYER_UNITS
    # per input, one untraced and one traced pass, with identical bytes
    assert result["attempted"] == 2 * len(report["inputs"])
    if workload == "offline_city":
        assert report["stage_checks"] == len(report["inputs"]) == 2
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    layer_self = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    traced = report["traced_walls_s"]
    assert layer_self + metrics["trace.other_s"] == pytest.approx(
        sum(traced) / len(traced))
    assert metrics["trace.other_share"] < 0.5


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
