"""Every shipped config under configs/ loads and runs, and the two seeded ones repeat byte for byte.

Every benchmark workload's config parses too, so no key range refuses what the benchmark runs.
"""

import sys
from pathlib import Path

import pytest

from lrip_lab.harness import ExperimentConfig, read_config, run

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.json"))
REPEATED = {"iop_linear.json", "decode_fourier.json"}


def test_configs_are_shipped():
    assert len(CONFIGS) >= 5


@pytest.mark.parametrize("path", CONFIGS, ids=[p.name for p in CONFIGS])
def test_config_runs(path):
    config = ExperimentConfig.from_dict(read_config(path))
    report = run(config)
    assert report.results
    if path.name in REPEATED:
        assert run(ExperimentConfig.from_dict(read_config(path))).results_bytes() == report.results_bytes()


def test_fourier_decode_config_is_certified_from_one_start():
    path = next(p for p in CONFIGS if p.name == "decode_fourier.json")
    results = run(ExperimentConfig.from_dict(read_config(path))).results
    assert 0.0 <= results["residual_certificate_gap"] <= 1e-6
    assert results["decode"]["converged"]


def test_benchmark_workloads_parse():
    # bench/workloads.py is imported as scripts/results_hashes.py imports it, without writing its bytecode cache
    dont_write, path = sys.dont_write_bytecode, list(sys.path)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.dont_write_bytecode, sys.path[:] = dont_write, path
    for name in workloads.WORKLOADS:
        for seed in range(10):
            ExperimentConfig.from_dict(workloads.build_config(name, seed)[0])
