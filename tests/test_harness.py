import json
import os
from pathlib import Path

import pytest

from lrip_lab import seeding
from lrip_lab.cli import main
from lrip_lab.errors import ConfigError, InputError
from lrip_lab.decoder import DecoderOptions, GridOracleOptions
from lrip_lab.harness import ExperimentConfig, build_decoder_options, emit_plot_data, run, write_report

ROOT = Path(__file__).resolve().parent.parent


def base_config(**overrides):
    cfg = {
        "experiment": "recommend-m",
        "master_seed": 0,
        "model": {"d": 20, "s": 2, "N": 5, "M": 1.0},
        "operator": {"kind": "random-fourier", "m": 55, "sigma": 1.0},
        "metric": {"kind": "gaussian-kernel", "sigma": 1.0},
        "certifier": {"t": 0.5, "rho_target": 0.01, "c0_m": 1.0},
    }
    cfg.update(overrides)
    return cfg


class TestConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(base_config(bogus=1))

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(base_config(experiment="mystery"))

    def test_dimension_check(self):
        cfg = base_config(experiment="certify")
        cfg["model"]["s"] = 30  # s > d
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(cfg)

    def test_missing_operator_kind(self):
        cfg = base_config(experiment="certify")
        cfg["operator"] = {"m": 8}
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(cfg)

    def test_not_an_object(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict([1, 2])


class TestDecoderOptions:
    def test_defaults_come_from_the_options(self):
        cfg = ExperimentConfig.from_dict(base_config(experiment="decode"))
        assert build_decoder_options(cfg) == DecoderOptions()

    def test_values_are_read(self):
        cfg = ExperimentConfig.from_dict(base_config(
            experiment="decode", decoder={"max_iters": 40, "grid_oracle": {"resolution": 0.01}},
        ))
        assert build_decoder_options(cfg) == DecoderOptions(
            max_iters=40, grid_oracle=GridOracleOptions(resolution=0.01))

    def test_keys_of_the_multi_start_decoder_are_dropped(self):
        # the benchmark's iop-fourier workload still passes restarts and grid_oracle.enabled
        cfg = ExperimentConfig.from_dict(base_config(
            experiment="decode",
            decoder={"restarts": 8, "max_iters": 40, "grid_oracle": {"enabled": True, "resolution": 0.01}},
        ))
        assert build_decoder_options(cfg) == DecoderOptions(
            max_iters=40, grid_oracle=GridOracleOptions(resolution=0.01))

    @pytest.mark.parametrize("decoder", [{"gtol": 1e-10}, {"grid_oracle": {"resolutoin": 0.01}}])
    def test_unknown_keys_rejected(self, decoder):
        cfg = ExperimentConfig.from_dict(base_config(experiment="decode", decoder=decoder))
        with pytest.raises(ConfigError):
            build_decoder_options(cfg)


class TestRecommendMExperiment:
    def test_contains_frozen_m(self):
        report = run(ExperimentConfig.from_dict(base_config()))
        assert report.results["m"] == 55
        assert report.library_version
        assert report.config["experiment"] == "recommend-m"


class TestIopExperiment:
    def test_identity_fixture_zero_noise_all_satisfied(self):
        cfg = ExperimentConfig.from_dict(base_config(
            experiment="iop-experiment",
            model={"d": 2, "s": 1, "N": 2, "M": 1.0, "kind": "axes"},
            operator={"kind": "linear-gaussian", "m": 2, "identity": True},
            metric={"kind": "euclidean"},
            certifier={"trials": 25, "noise_scale": 0.0, "model_error_scale": 0.3,
                       "pairs": 300},
        ))
        report = run(cfg)
        assert report.results["all_satisfied"]
        assert report.results["satisfied"] == 25
        # the identity is an exact isometry, so the estimated constant is 1
        assert report.results["lrip_estimate"]["constants"]["alpha_hat"] == 1.0

    def test_gaussian_operator_with_noise(self):
        cfg = ExperimentConfig.from_dict(base_config(
            experiment="iop-experiment",
            master_seed=3,
            model={"d": 3, "s": 1, "N": 3, "M": 1.0, "seed": 21},
            operator={"kind": "linear-gaussian", "m": 3, "seed": 22},
            metric={"kind": "euclidean"},
            certifier={"trials": 50, "noise_scale": 0.1, "model_error_scale": 0.3,
                       "pairs": 500},
        ))
        report = run(cfg)
        assert report.results["all_satisfied"]

    def test_identity_requires_square(self):
        cfg = base_config(
            experiment="iop-experiment",
            model={"d": 2, "s": 1, "N": 2, "M": 1.0, "kind": "axes"},
            operator={"kind": "linear-gaussian", "m": 5, "identity": True},
            metric={"kind": "euclidean"},
        )
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(cfg)


class TestConcentrationSweep:
    def sweep_config(self, m_sweep, reps=2, draws=120):
        return ExperimentConfig.from_dict(base_config(
            experiment="concentration-sweep",
            master_seed=2,
            model={"d": 2, "s": 1, "N": 2, "M": 1.0, "kind": "axes"},
            operator={"kind": "random-fourier", "m": 16, "sigma": 1.0},
            metric={"kind": "gaussian-kernel", "sigma": 1.0},
            certifier={"m_sweep": m_sweep, "reps": reps, "draws": draws,
                       "t_grid": [0.1, 0.3]},
        ))

    def test_series_shapes(self):
        report = run(self.sweep_config([16, 64]))
        csv = emit_plot_data(report, "p_hat_vs_m")
        assert len(csv.strip().splitlines()) == 1 + 2  # header + sweep length
        csv_t = emit_plot_data(report, "c_hat_vs_t")
        assert len(csv_t.strip().splitlines()) == 1 + 2  # header + t-grid length

    def test_empty_sweep_header_only(self):
        report = run(self.sweep_config([]))
        csv = emit_plot_data(report, "p_hat_vs_m")
        assert len(csv.strip().splitlines()) == 1

    def test_unknown_series_rejected(self):
        report = run(self.sweep_config([16]))
        with pytest.raises(InputError):
            emit_plot_data(report, "no-such-series")


class TestReproducibility:
    def certify_config(self, workers):
        return ExperimentConfig.from_dict(base_config(
            experiment="certify",
            master_seed=5,
            workers=workers,
            model={"d": 5, "s": 1, "N": 3, "M": 1.0, "seed": 9},
            operator={"kind": "random-fourier", "m": 24, "sigma": 1.0},
            metric={"kind": "gaussian-kernel", "sigma": 1.0},
            certifier={"draws": 4, "pairs": 300, "bp_pairs": 300, "t": 0.5,
                       "estimate_concentration": False},
        ))

    def test_byte_identical_across_runs(self):
        a = run(self.certify_config(1)).payload_bytes()
        b = run(self.certify_config(1)).payload_bytes()
        assert a == b

    def test_byte_identical_across_worker_counts(self):
        a = run(self.certify_config(1)).results_bytes()
        b = run(self.certify_config(2)).results_bytes()
        assert a == b

    def test_rerun_from_config_echo(self):
        report = run(self.certify_config(1))
        echoed = ExperimentConfig.from_dict(report.config)
        again = run(echoed)
        assert report.payload_bytes() == again.payload_bytes()


LINEAGE_CONFIGS = {
    "recommend-m": {},
    "decode": dict(
        model={"d": 4, "s": 3, "N": 2, "M": 1.0},
        operator={"kind": "random-fourier", "m": 12, "sigma": 1.0},
        decoder={"max_iters": 20},
        certifier={"noise_scale": 0.05},
    ),
    "iop-experiment": dict(
        model={"d": 3, "s": 1, "N": 2, "M": 1.0},
        operator={"kind": "linear-gaussian", "m": 3},
        metric={"kind": "euclidean"},
        certifier={"trials": 3, "pairs": 50, "noise_scale": 0.1},
    ),
    "certify": dict(
        model={"d": 3, "s": 1, "N": 2, "M": 1.0},
        operator={"kind": "random-fourier", "m": 8, "sigma": 1.0},
        certifier={"draws": 2, "pairs": 50, "bp_pairs": 50, "t": 0.5,
                   "concentration_draws": 100},
    ),
    "concentration-sweep": dict(
        model={"d": 3, "s": 1, "N": 2, "M": 1.0},
        operator={"kind": "random-fourier", "m": 8, "sigma": 1.0},
        certifier={"m_sweep": [4, 8], "reps": 2, "draws": 100, "t_grid": [0.3]},
    ),
}


class TestCertifierKeys:
    @pytest.mark.parametrize("experiment", list(LINEAGE_CONFIGS))
    def test_a_key_no_runner_reads_is_refused(self, experiment):
        cfg = dict(LINEAGE_CONFIGS[experiment])
        cfg["certifier"] = dict(cfg.get("certifier", base_config()["certifier"]), bogus=1)
        with pytest.raises(ConfigError, match="bogus"):
            run(ExperimentConfig.from_dict(base_config(experiment=experiment, **cfg)))

    def test_recommend_m_reads_the_model_not_the_certifier(self):
        cfg = base_config()
        cfg["certifier"] = dict(cfg["certifier"], s=2)
        with pytest.raises(ConfigError, match="'s'"):
            run(ExperimentConfig.from_dict(cfg))

    def test_another_runners_key_is_refused(self):
        # rho_target belongs to recommend-m, not to certify
        cfg = dict(LINEAGE_CONFIGS["certify"])
        cfg["certifier"] = dict(cfg["certifier"], rho_target=0.01)
        with pytest.raises(ConfigError, match="rho_target"):
            run(ExperimentConfig.from_dict(base_config(experiment="certify", **cfg)))


class TestSeedLineage:
    """The lineage names exactly the streams a run derives from its master seed."""

    MASTER = 3

    def derived_paths(self, monkeypatch, cfg) -> tuple[dict, set]:
        derive, paths = seeding.derive, set()

        def recording(master_seed, *path):
            if master_seed == self.MASTER:
                paths.add(tuple(int(p) for p in path))
            return derive(master_seed, *path)

        monkeypatch.setattr(seeding, "derive", recording)
        report = run(ExperimentConfig.from_dict(base_config(experiment=cfg.pop("experiment"),
                                                            master_seed=self.MASTER, **cfg)))
        return report.seed_lineage, paths

    @staticmethod
    def matches(path, stream) -> bool:
        return len(path) == len(stream) and all(s in (-1, p) for p, s in zip(path, stream))

    @pytest.mark.parametrize("experiment", list(LINEAGE_CONFIGS))
    def test_streams_are_those_derived(self, monkeypatch, experiment):
        lineage, paths = self.derived_paths(monkeypatch, dict(LINEAGE_CONFIGS[experiment],
                                                              experiment=experiment))
        streams = [tuple(v) for v in lineage["streams"].values()]
        assert lineage["master_seed"] == self.MASTER
        assert all(any(self.matches(p, s) for s in streams) for p in paths)
        assert all(any(self.matches(p, s) for p in paths) for s in streams)
        assert (experiment == "recommend-m") == (streams == [])

    @pytest.mark.parametrize("experiment", ["decode", "iop-experiment"])
    def test_pinned_seeds_are_left_out(self, monkeypatch, experiment):
        cfg = LINEAGE_CONFIGS[experiment]
        cfg = dict(cfg, experiment=experiment, model=dict(cfg["model"], seed=8),
                   operator=dict(cfg["operator"], seed=9))
        lineage, paths = self.derived_paths(monkeypatch, cfg)
        assert "model" not in lineage["streams"] and "operator" not in lineage["streams"]
        assert {(10,), (20,), (30,)}.isdisjoint(paths)


class TestCli:
    def write_config(self, tmp_path, cfg):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_recommend_m_end_to_end(self, tmp_path):
        path = self.write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["recommend-m", "--config", path, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["m"] == 55

    def test_seed_override_changes_lineage(self, tmp_path):
        path = self.write_config(tmp_path, base_config())
        out = tmp_path / "o1"
        assert main(["recommend-m", "--config", path, "--seed", "77",
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["master_seed"] == 77

    def test_config_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["recommend-m", "--config", str(path)]) == 2

    def test_validation_error_exit_code(self, tmp_path):
        cfg = base_config(experiment="certify")
        cfg["model"]["s"] = 99
        path = self.write_config(tmp_path, cfg)
        assert main(["certify", "--config", path]) == 2

    @pytest.mark.parametrize("bad", [{"trials": 0}, {"noise_scale": -0.1}, {"uniform_candidates": -1}],
                             ids=["zero-trials", "negative-noise", "negative-candidates"])
    def test_bad_iop_input_exit_code(self, tmp_path, bad):
        cfg = base_config(
            experiment="iop-experiment",
            model={"d": 3, "s": 1, "N": 3, "M": 1.0, "seed": 21},
            operator={"kind": "linear-gaussian", "m": 3, "seed": 22},
            metric={"kind": "euclidean"},
            certifier={"B": 2.0, "trials": 5, "noise_scale": 0.1, "model_error_scale": 0.3, **bad},
        )
        path = self.write_config(tmp_path, cfg)
        assert main(["iop-experiment", "--config", path]) == 2

    @pytest.mark.parametrize("section, key, value", [
        (None, "master_seed", "x"),
        ("model", "d", "three"),
        ("certifier", "noise_scale", "lots"),
        ("decoder", "max_iters", 2.7),
        ("model", "d", 3.5),
        (None, "master_seed", True),
        ("certifier", "noise_scale", [1]),
    ], ids=["master-seed", "model-d", "certifier-noise-scale", "decoder-max-iters-float", "model-d-float",
            "master-seed-bool", "certifier-noise-scale-list"])
    def test_wrong_typed_value_exit_code(self, tmp_path, capsys, section, key, value):
        cfg = json.loads((ROOT / "configs" / "decode_fourier.json").read_text())
        (cfg if section is None else cfg.setdefault(section, {}))[key] = value
        assert main(["decode", "--config", self.write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err

    @pytest.mark.parametrize("config, key, value", [
        ("iop_linear", "trials", 2.7),
        ("iop_linear", "trials", True),
        ("iop_linear", "uniform_candidates", 64.5),
        ("iop_linear", "noise_scale", False),
        ("certify_fourier", "draws", 2.5),
        ("certify_fourier", "t", True),
        ("certify_fourier", "anchored", 1),
        ("certify_fourier", "m_sweep", [16.5]),
        ("certify_fourier", "m_sweep", 16),
        ("concentration_sweep", "reps", 1.5),
        ("concentration_sweep", "t_grid", ["0.3"]),
        ("recommend_m", "rho_target", True),
        ("certify_fourier", "draws", 0),
        ("certify_fourier", "sweep_draws", 0),
        ("concentration_sweep", "reps", 0),
        ("concentration_sweep", "t_grid", []),
    ])
    def test_bad_certifier_value_exit_code(self, tmp_path, capsys, config, key, value):
        # a bare int() ran 2 trials for 2.7 and 1 for true; medians over no draws or reps were NaN,
        # and an empty t_grid raised IndexError
        cfg = json.loads((ROOT / "configs" / f"{config}.json").read_text())
        cfg["certifier"][key] = value
        assert main([cfg["experiment"], "--config", self.write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"certifier.{key}" in err

    def test_unknown_certifier_key_exit_code(self, tmp_path):
        # a misspelt "trials" would otherwise run the default 100 trials
        cfg = json.loads((ROOT / "configs" / "iop_linear.json").read_text())
        cfg["certifier"]["trails"] = 5
        assert main(["iop-experiment", "--config", self.write_config(tmp_path, cfg)]) == 2

    def test_unwritable_output_exit_code(self, tmp_path):
        path = self.write_config(tmp_path, base_config())
        assert main(["recommend-m", "--config", path, "--out", "/dev/null/sub"]) == 4

    def test_positional_experiment_overrides_config(self, tmp_path):
        cfg = base_config()  # says recommend-m
        cfg["certifier"]["t"] = 0.5
        path = self.write_config(tmp_path, cfg)
        out = tmp_path / "o2"
        assert main(["recommend-m", "--config", path, "--out", str(out)]) == 0

    def test_series_csv_written(self, tmp_path):
        cfg = base_config(
            experiment="concentration-sweep",
            model={"d": 2, "s": 1, "N": 2, "M": 1.0, "kind": "axes"},
            operator={"kind": "random-fourier", "m": 16, "sigma": 1.0},
            metric={"kind": "gaussian-kernel", "sigma": 1.0},
            certifier={"m_sweep": [16], "reps": 1, "draws": 120, "t_grid": [0.3]},
            output={"series": ["p_hat_vs_m"]},
        )
        path = self.write_config(tmp_path, cfg)
        out = tmp_path / "o3"
        assert main(["concentration-sweep", "--config", path, "--out", str(out)]) == 0
        assert (out / "p_hat_vs_m.csv").exists()


def test_write_report_paths(tmp_path):
    report = run(ExperimentConfig.from_dict(base_config()))
    paths = write_report(report, tmp_path / "r")
    assert os.path.exists(paths["report"])


def test_decode_report_serializes_measurement():
    cfg = ExperimentConfig.from_dict(base_config(
        experiment="decode",
        master_seed=4,
        model={"d": 3, "s": 1, "N": 2, "M": 1.0, "seed": 8},
        operator={"kind": "random-fourier", "m": 12, "sigma": 1.0},
        metric={"kind": "gaussian-kernel", "sigma": 1.0},
        certifier={"noise_scale": 0.05},
    ))
    report = run(cfg)
    y = report.results["y"]
    assert len(y) == 12 and all(len(pair) == 2 for pair in y)
    assert report.results["decode"]["converged"]


def test_certify_alpha_vs_m_sweep_series():
    cfg = ExperimentConfig.from_dict(base_config(
        experiment="certify",
        master_seed=5,
        model={"d": 5, "s": 1, "N": 3, "M": 1.0, "seed": 9},
        operator={"kind": "random-fourier", "m": 24, "sigma": 1.0},
        metric={"kind": "gaussian-kernel", "sigma": 1.0},
        certifier={"draws": 3, "pairs": 200, "bp_pairs": 200, "t": 0.5,
                   "estimate_concentration": False,
                   "m_sweep": [8, 32], "sweep_draws": 3},
    ))
    report = run(cfg)
    csv = emit_plot_data(report, "alpha_hat_vs_m")
    assert len(csv.strip().splitlines()) == 1 + 2
    rows = report.results["series"]["alpha_hat_vs_m"]["rows"]
    # more measurements tighten the estimate toward isometry
    assert rows[1][1] <= rows[0][1]
