"""Every shipped config under configs/ loads and runs, and the two seeded ones repeat byte for byte.

Every benchmark workload's config parses too, so no key range refuses what the benchmark runs, and every key an
experiment's table accepts is read when the shipped configs and the workloads run.
"""

import dataclasses
import sys
from collections.abc import Mapping
from pathlib import Path

import pytest

from lrip_lab import harness
from lrip_lab.harness import ExperimentConfig, read_config, run

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.json"))
REPEATED = {"iop_linear.json", "decode_fourier.json"}


def import_workloads():
    """bench/workloads.py, imported as scripts/results_hashes.py imports it, without writing its bytecode cache."""
    dont_write, path = sys.dont_write_bytecode, list(sys.path)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.dont_write_bytecode, sys.path[:] = dont_write, path
    return workloads


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
    workloads = import_workloads()
    for name in workloads.WORKLOADS:
        for seed in range(10):
            ExperimentConfig.from_dict(workloads.build_config(name, seed)[0])


class _Recording(dict):
    """A parsed config section that adds to reads the path of each key read from it."""

    def __init__(self, values: Mapping, path: str, reads: set):
        super().__init__({key: _Recording(v, f"{path}.{key}", reads) if isinstance(v, Mapping) else v
                          for key, v in values.items()})
        self.path, self.reads = path, reads

    def __getitem__(self, key):
        self.reads.add(f"{self.path}.{key}")
        return super().__getitem__(key)

    def get(self, key, default=None):
        return self[key] if key in self else default


def _paths(keys: dict, prefix: str = "") -> set:
    return {p for key, entry in keys.items()
            for p in (_paths(entry, f"{prefix}{key}.") if isinstance(entry, dict) else [prefix + key])}


# The keys an experiment's table accepts that no shipped config or workload reads.  sweep_draws is read only beside
# an m_sweep, and the benchmark's iop-fourier workload passes the keys of the multi-start decoder that is gone.
NOT_READ = {
    "certify": {"certifier.sweep_draws"},
    "decode": {"decoder.restarts", "decoder.grid_oracle.enabled"},
    "iop-experiment": {"decoder.restarts", "decoder.grid_oracle.enabled"},
}


@pytest.mark.parametrize("experiment", list(harness.EXPERIMENTS))
def test_every_accepted_key_is_read(experiment):
    # the experiment's shipped config and workloads run with sections that record each key the runner reads; a key
    # that no run reads, and that is not named in NOT_READ, belongs in no table
    workloads = import_workloads()
    configs = [read_config(path) for path in CONFIGS]
    configs += [workloads.build_config(name, 0)[0] for name in workloads.WORKLOADS]
    keys, reads = harness.EXPERIMENTS[experiment].keys, set()
    for obj in (obj for obj in configs if obj["experiment"] == experiment):
        config = ExperimentConfig.from_dict(obj)
        sections = {section: _Recording(getattr(config, section), section, reads) for section in keys}
        harness.EXPERIMENTS[experiment].runner(dataclasses.replace(config, **sections))
    assert sorted(_paths(keys) - reads) == sorted(NOT_READ.get(experiment, ()))
