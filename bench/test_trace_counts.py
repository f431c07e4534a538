"""The traced run's count metrics repeat exactly at a fixed seed, and BENCHMARK.json names what the benchmark emits."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import measure  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def traced_metrics(name: str, seed: int) -> dict:
    config, _ = workloads.build_config(name, seed)
    run = measure.Run(config)
    tracer, _ = measure.traced_experiment(run)
    assert run.failures == []
    return measure.layer_metrics(tracer)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_count_metrics_repeat_at_same_seed(name):
    counts = [
        {key: value for key, (value, unit) in traced_metrics(name, seed=7).items() if unit == "count"}
        for _ in range(2)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["operators.apply_batch.features"] > 0


def test_spec_matches_emitted_metrics():
    metrics = {**traced_metrics("certify-anchored", seed=7),
               **measure.timing_metrics(1.0, [(1.0, 1.0)], [(1.0, 1.0)])}
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [(k, u) for k, (_, u) in metrics.items()]
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (name, why) for name, (why, _) in workloads.WORKLOADS.items()
    ]
