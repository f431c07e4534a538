"""Every shipped config under configs/ loads and runs, and the two seeded ones repeat byte for byte."""

from pathlib import Path

import pytest

from lrip_lab.harness import ExperimentConfig, read_config, run

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))
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
