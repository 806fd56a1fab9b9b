"""The benchmark's own checks, at a tiny size.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

They check that every metric is emitted with its unit (and matches
``BENCHMARK.json``), that a tampered output fails the run, that a seed
always writes the same input bytes, that clean input has no failures,
and how the pace yardstick scales a timed section.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for entry in (ROOT, os.path.join(ROOT, "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import inputs, measure, run  # noqa: E402

#: Tiny versions of the three workloads.
TINY = {
    "log_repeat": {"nagano_scale": 0.02},
    "serve_churn": {"stream_events": 2500},
}


@pytest.fixture(autouse=True)
def _few_repeats(monkeypatch):
    monkeypatch.setattr(measure, "SETUP_REPEATS", 1)
    monkeypatch.setattr(measure, "RESTORES_PER_ROUND", 1)
    monkeypatch.setattr(measure, "MIN_ROUNDS", 1)


@pytest.fixture(scope="module")
def tiny_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    return {
        workload: (inputs.generate(workload, 5, str(root / workload), overrides), str(root / workload))
        for workload, overrides in TINY.items()
    }


def _run(tiny_inputs, tmp_path, workload, traced):
    _, directory = tiny_inputs[workload]
    return measure.run(workload, directory, str(tmp_path / "scratch"), 0.01, traced)


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_benchmark_json_lists_exactly_the_emitted_metrics():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    for workload in spec["workloads"]:
        assert workload["why"] == inputs.WORKLOADS[workload["name"]]["why"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", list(TINY))
@pytest.mark.parametrize("traced", [False, True])
def test_every_metric_is_emitted_with_its_unit(tiny_inputs, tmp_path, workload, traced):
    record = _run(tiny_inputs, tmp_path, workload, traced)
    assert record["correct"], record["error"]
    line = run.result_line(record)
    wanted = run.PER_LAYER if traced else run.END_TO_END
    assert line["correct"]
    assert set(line["metrics"]) == set(wanted)
    for name, entry in line["metrics"].items():
        assert entry["unit"] == wanted[name]
        assert isinstance(entry["value"], (int, float))
    if traced:
        assert line["metrics"]["trace.coverage_frac"]["value"] >= 0.90


@pytest.mark.parametrize("workload", list(TINY))
def test_clean_input_has_no_failures(tiny_inputs, tmp_path, workload):
    record = _run(tiny_inputs, tmp_path, workload, False)
    assert record["attempted"] > 0
    assert record["failed"] == 0
    assert record["absent_counters"] == []


def _drop_first_cluster(original):
    def tampered(self, *args, **kwargs):
        clusters = original(self, *args, **kwargs)
        clusters.clusters = clusters.clusters[1:]
        return clusters

    return tampered


def test_tampered_engine_snapshot_fails_the_run(tiny_inputs, tmp_path, monkeypatch):
    from repro.engine.shard import ShardedClusterEngine

    monkeypatch.setattr(
        ShardedClusterEngine, "snapshot", _drop_first_cluster(ShardedClusterEngine.snapshot)
    )
    record = _run(tiny_inputs, tmp_path, "log_repeat", False)
    assert not record["correct"]
    assert "paper path" in record["error"]
    line = run.result_line(record)
    assert line == {"correct": False, "attempted": line["attempted"], "failed": 0, "metrics": {}}


def test_tampered_recovery_fails_the_run(tiny_inputs, tmp_path, monkeypatch):
    from repro.serve.daemon import ServeDaemon

    original = ServeDaemon.recover

    def recover_then_drop(self):
        refed = original(self)
        self.snapshot = _drop_first_cluster(ServeDaemon.snapshot).__get__(self)
        return refed

    monkeypatch.setattr(ServeDaemon, "recover", recover_then_drop)
    record = _run(tiny_inputs, tmp_path, "serve_churn", False)
    assert not record["correct"]
    assert "recovered daemon" in record["error"]
    assert run.result_line(record)["metrics"] == {}


@pytest.mark.parametrize("workload", list(TINY))
def test_same_seed_writes_identical_inputs(tiny_inputs, tmp_path, workload):
    _, first = tiny_inputs[workload]
    second = str(tmp_path / "again")
    inputs.generate(workload, 5, second, TINY[workload])
    names = sorted(
        os.path.relpath(os.path.join(folder, name), first)
        for folder, _, files in os.walk(first)
        for name in files
    )
    assert names == sorted(
        os.path.relpath(os.path.join(folder, name), second)
        for folder, _, files in os.walk(second)
        for name in files
    )
    for name in names:
        with open(os.path.join(first, name), "rb") as a, open(os.path.join(second, name), "rb") as b:
            assert a.read() == b.read(), name


def test_missing_program_sources_exit_without_a_result(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    code = run.main(["--workload", "log_repeat", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_pace_scale_is_the_mean_of_the_bracketing_yardsticks():
    from perfbench import pace

    clock = pace.Pace()
    scale = clock.scale()
    before, after = clock.timings[-2:]
    assert scale == pytest.approx((before + after) / 2 / pace.REFERENCE_S)
    assert pace.FixedPace().scale() == 1.0
