import dataclasses
import json
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from lrip_lab import harness, seeding
from lrip_lab.cli import main
from lrip_lab.errors import ConfigError, InputError
from lrip_lab.decoder import DecoderOptions
from lrip_lab.harness import ExperimentConfig, build_decoder_options, emit_plot_data, run, write_report
from reference import iop_trial

ROOT = Path(__file__).resolve().parent.parent


# the operator and metric of a config for another experiment than recommend-m, which reads neither
FOURIER = {"kind": "random-fourier", "m": 55, "sigma": 1.0}
KERNEL = {"kind": "gaussian-kernel", "sigma": 1.0}


def base_config(**overrides):
    """A recommend-m config with overrides; it gives only the sections recommend-m reads, and its certifier keys go
    only to that experiment."""
    cfg = {
        "experiment": "recommend-m",
        "master_seed": 0,
        "model": {"d": 20, "s": 2, "N": 5, "M": 1.0},
        "operator": {"sigma": 1.0},
    }
    cfg.update(overrides)
    if cfg["experiment"] == "recommend-m":
        cfg.setdefault("certifier", {"t": 0.5, "rho_target": 0.01, "c0_m": 1.0})
    return cfg


class TestConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(base_config(bogus=1))

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(base_config(experiment="mystery"))

    def test_dimension_check(self):
        cfg = base_config(experiment="certify", operator=FOURIER, metric=KERNEL)
        cfg["model"]["s"] = 30  # s > d
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(cfg)

    def test_series_the_run_cannot_write_is_refused(self):
        cfg = json.loads((ROOT / "configs" / "certify_fourier.json").read_text())
        cfg["output"]["series"].append("alpha_hat_vs_m")
        with pytest.raises(ConfigError, match="certifier.m_sweep"):
            ExperimentConfig.from_dict(cfg)
        cfg["certifier"]["m_sweep"] = [16]
        assert ExperimentConfig.from_dict(cfg).output["series"][-1] == "alpha_hat_vs_m"

    def test_sections_are_read_only(self):
        # an edited section would run a config that validate never saw, such as the repeated sweep it refuses
        config = ExperimentConfig.from_dict(json.loads((ROOT / "configs" / "certify_fourier.json").read_text()))
        with pytest.raises(TypeError):
            config.certifier["m_sweep"] = [8, 8]
        with pytest.raises(TypeError):
            config.output["dir"] = "elsewhere"
        dec = ExperimentConfig.from_dict(decode_config()).decoder
        with pytest.raises(TypeError):
            dec["grid_oracle"]["resolution"] = 1.0

    def test_missing_operator_kind(self):
        cfg = base_config(experiment="certify", metric=KERNEL)
        cfg["operator"] = {"m": 8}
        with pytest.raises(ConfigError, match="operator.kind is required"):
            ExperimentConfig.from_dict(cfg)

    def test_not_an_object(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict([1, 2])

    @pytest.mark.parametrize("key, value", [("trials", 0), ("noise_scale", -0.1), ("model_error_scale", -0.1),
                                            ("uniform_candidates", -1), ("A", -1.0), ("lambda", -1.0), ("B", -1.0)])
    def test_iop_range_refused_at_parse_time(self, key, value):
        # refused by the certifier too, but only after the LRIP estimate that sets B when B is not given
        cfg = json.loads((ROOT / "configs" / "iop_linear.json").read_text())
        cfg["certifier"][key] = value
        with pytest.raises(ConfigError, match=f"certifier.{key}"):
            ExperimentConfig.from_dict(cfg)


def decode_config(**overrides):
    return base_config(experiment="decode", operator=FOURIER, metric=KERNEL, **overrides)


class TestDecoderOptions:
    def test_defaults_come_from_the_options(self):
        cfg = ExperimentConfig.from_dict(decode_config())
        assert build_decoder_options(cfg) == DecoderOptions()

    def test_values_are_read(self):
        cfg = ExperimentConfig.from_dict(decode_config(decoder={"max_iters": 40, "grid_oracle": {"resolution": 0.01}}))
        assert build_decoder_options(cfg) == DecoderOptions(max_iters=40, target=0.01)

    def test_keys_of_the_multi_start_decoder_are_dropped(self):
        # the benchmark's iop-fourier workload still passes restarts and grid_oracle.enabled
        cfg = ExperimentConfig.from_dict(decode_config(
            decoder={"restarts": 8, "max_iters": 40, "grid_oracle": {"enabled": True, "resolution": 0.01}},
        ))
        assert build_decoder_options(cfg) == DecoderOptions(max_iters=40, target=0.01)

    @pytest.mark.parametrize("decoder", [{"gtol": 1e-10}, {"grid_oracle": {"resolutoin": 0.01}}])
    def test_unknown_keys_rejected(self, decoder):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(decode_config(decoder=decoder))


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


def strict_json(text):
    """text parsed as RFC 8259 JSON, which has no NaN or Infinity."""
    return json.loads(text, parse_constant=lambda name: pytest.fail(f"{name} is not JSON"))


class TestStrictJson:
    def test_eta_above_every_gap_writes_null_t_hat(self, tmp_path):
        # eta = 10 exceeds every metric gap, so alpha_hat = 0 and t_hat = -inf
        cfg = harness.read_config(ROOT / "configs" / "iop_linear.json")
        cfg["certifier"].update(eta=10.0, trials=5)
        report = run(ExperimentConfig.from_dict(cfg))
        constants = strict_json(report.results_bytes())["lrip_estimate"]["constants"]
        assert constants["alpha_hat"] == 0.0 and constants["t_hat"] is None
        strict_json(report.payload_bytes())
        strict_json(Path(write_report(report, tmp_path)["report"]).read_text())

    def test_unconverged_trials_write_null_lambda_eff(self, tmp_path, capsys):
        # one Gauss-Newton iteration leaves the decodes unconverged, and their lambda_eff infinite
        cfg = base_config(
            experiment="iop-experiment",
            model={"d": 4, "s": 2, "N": 3, "M": 1.0, "seed": 1},
            operator={"kind": "random-fourier", "m": 48, "sigma": 1.0, "seed": 2},
            metric=KERNEL,
            decoder={"max_iters": 1},
            certifier={"trials": 3, "noise_scale": 0.05, "model_error_scale": 0.3, "pairs": 100},
        )
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["iop-experiment", "--config", str(path)]) == 0
        worst = strict_json(capsys.readouterr().out)["results"]["iop"]["worst_cases"]
        assert worst and all(w["reason"] == "decoder did not converge" and w["lambda_eff"] is None for w in worst)


class TestConcentrationSweep:
    def sweep_config(self, m_sweep, reps=2, draws=120):
        return ExperimentConfig.from_dict(base_config(
            experiment="concentration-sweep",
            master_seed=2,
            model={"d": 2, "s": 1, "N": 2, "M": 1.0, "kind": "axes"},
            operator={"kind": "random-fourier", "sigma": 1.0},
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

    def test_operator_m_is_not_required(self):
        # the sweep builds its operators at the m_sweep entries only, so it takes no operator.m, and refuses one
        assert "m" not in self.sweep_config([16]).operator
        cfg = self.sweep_config([16]).to_dict()
        cfg["operator"]["m"] = 16
        with pytest.raises(ConfigError, match="unknown keys operator.m;"):
            ExperimentConfig.from_dict(cfg)

    def test_identity_operator_is_refused(self):
        # every draw of the identity is the same map, so there is no concentration over draws to estimate
        cfg = self.sweep_config([2]).to_dict()
        cfg["operator"] = {"kind": "linear-gaussian", "identity": True}
        with pytest.raises(ConfigError, match="unknown keys operator.identity;"):
            ExperimentConfig.from_dict(cfg)

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
        metric=KERNEL,
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
        metric=KERNEL,
        certifier={"draws": 2, "pairs": 50, "bp_pairs": 50, "t": 0.5,
                   "concentration_draws": 100},
    ),
    "concentration-sweep": dict(
        model={"d": 3, "s": 1, "N": 2, "M": 1.0},
        operator={"kind": "random-fourier", "sigma": 1.0},
        metric=KERNEL,
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
        with pytest.raises(ConfigError, match=r"certifier\.s\b"):
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
        report, paths = self.derived_report(monkeypatch, cfg)
        return report.seed_lineage, paths

    def derived_report(self, monkeypatch, cfg) -> tuple[harness.Report, set]:
        derive, paths = seeding.derive, set()

        def recording(master_seed, *path):
            if master_seed == self.MASTER:
                paths.add(tuple(int(p) for p in path))
            return derive(master_seed, *path)

        monkeypatch.setattr(seeding, "derive", recording)
        report = run(ExperimentConfig.from_dict(base_config(experiment=cfg.pop("experiment"),
                                                            master_seed=self.MASTER, **cfg)))
        return report, paths

    @staticmethod
    def matches(path, stream) -> bool:
        return len(path) == len(stream) and all(s in (-1, p) for p, s in zip(path, stream))

    def assert_streams_are_those_derived(self, lineage, paths):
        streams = [tuple(v) for v in lineage["streams"].values()]
        assert lineage["master_seed"] == self.MASTER
        assert all(any(self.matches(p, s) for s in streams) for p in paths)
        assert all(any(self.matches(p, s) for p in paths) for s in streams)

    @pytest.mark.parametrize("experiment", list(LINEAGE_CONFIGS))
    def test_streams_are_those_derived(self, monkeypatch, experiment):
        lineage, paths = self.derived_paths(monkeypatch, dict(LINEAGE_CONFIGS[experiment],
                                                              experiment=experiment))
        self.assert_streams_are_those_derived(lineage, paths)
        assert (experiment == "recommend-m") == (lineage["streams"] == {})

    @pytest.mark.parametrize("experiment, section, values, stream", [
        ("iop-experiment", "certifier", {"B": 2.0}, "lrip_pairs"),
        ("certify", "certifier", {"anchored": False}, "anchor"),
        ("certify", "operator", {"kind": "linear-gaussian"}, "concentration_pair"),
        ("certify", "certifier", {"c_of_half_t": 0.5}, "concentration_pair"),
        ("certify", "certifier", {"estimate_concentration": False}, "concentration_pair"),
        ("concentration-sweep", "certifier", {"pair": [[0.1, 0.2, 0.3], [0.3, 0.2, 0.1]]}, "pair"),
    ], ids=["B-given", "unanchored", "linear-map", "c-of-half-t-given", "concentration-not-estimated", "pair-given"])
    def test_a_stream_the_branch_skips_is_left_out(self, monkeypatch, experiment, section, values, stream):
        # each of these streams used to be listed though this branch of the run never derives it
        cfg = LINEAGE_CONFIGS[experiment]
        cfg = dict(cfg, experiment=experiment, **{section: dict(cfg[section], **values)})
        lineage, paths = self.derived_paths(monkeypatch, cfg)
        assert stream not in lineage["streams"]
        self.assert_streams_are_those_derived(lineage, paths)

    @pytest.mark.parametrize("experiment", ["decode", "iop-experiment"])
    def test_pinned_seeds_are_left_out(self, monkeypatch, experiment):
        cfg = LINEAGE_CONFIGS[experiment]
        cfg = dict(cfg, experiment=experiment, model=dict(cfg["model"], seed=8),
                   operator=dict(cfg["operator"], seed=9))
        lineage, paths = self.derived_paths(monkeypatch, cfg)
        assert "model" not in lineage["streams"] and "operator" not in lineage["streams"]
        assert {(10,), (20,), (30,)}.isdisjoint(paths)

    @pytest.mark.parametrize("experiment", ["decode", "iop-experiment", "certify"])
    def test_identity_operator_derives_no_operator_stream(self, monkeypatch, experiment):
        # the identity draws nothing, yet its runs used to derive an operator seed, list operator: [30] (or
        # operator_draw_k: [40, -1]) and report operator_seed 1000343104 for iop_linear.json
        cfg = LINEAGE_CONFIGS[experiment]
        cfg = dict(cfg, experiment=experiment, operator={"kind": "linear-gaussian", "identity": True})
        report, paths = self.derived_report(monkeypatch, cfg)
        streams = report.seed_lineage["streams"]
        assert "operator" not in streams and "operator_draw_k" not in streams
        assert {(20,), (30,)}.isdisjoint(paths) and not any(p[0] == 40 for p in paths)
        self.assert_streams_are_those_derived(report.seed_lineage, paths)
        assert report.results.get("operator_seed", None) is None

    def test_lineage_does_not_depend_on_workers(self):
        # the pool's threads note their streams into one record, which lists them in table order
        cfg = dict(LINEAGE_CONFIGS["certify"], certifier=dict(LINEAGE_CONFIGS["certify"]["certifier"], m_sweep=[4, 8]))
        lineages = [json.dumps(run(ExperimentConfig.from_dict(base_config(experiment="certify", workers=workers,
                                                                          **cfg))).seed_lineage).encode()
                    for workers in (1, 2)]
        assert lineages[0] == lineages[1]
        assert list(json.loads(lineages[0])["streams"]) == list(harness.EXPERIMENTS["certify"].streams)

    def test_threads_lose_no_stream(self):
        # eight threads on two cores, switching every microsecond, each note streams into one record; a lost note
        # would drop a name from the lineage
        table = {f"s{i}": (i, -1) for i in range(64)}
        streams, interval = harness._Streams(self.MASTER, table), sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                seeds = list(pool.map(lambda i: streams.seed(f"s{i % 64}", i), range(512), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert seeds == [seeding.child_seed(self.MASTER, i % 64, i) for i in range(512)]
        assert streams.lineage()["streams"] == {name: list(path) for name, path in table.items()}

    def test_each_run_lists_only_its_own_streams(self):
        # one config object run twice, the second time on a branch that derives fewer streams, records each run afresh
        config = ExperimentConfig.from_dict(base_config(experiment="iop-experiment",
                                                        **LINEAGE_CONFIGS["iop-experiment"]))
        assert "lrip_pairs" in run(config).seed_lineage["streams"]
        config = dataclasses.replace(config, certifier={**config.certifier, "B": 2.0})
        assert "lrip_pairs" not in run(config).seed_lineage["streams"]


# the shipped config of each experiment
SHIPPED = {"certify": "certify_fourier", "decode": "decode_fourier", "iop-experiment": "iop_linear",
           "recommend-m": "recommend_m", "concentration-sweep": "concentration_sweep"}


def _ends(interval: str) -> tuple:
    """(lo, lo is closed, hi, hi is closed) of an interval such as "(0, 1)" or "[1, inf)"."""
    lo, hi = map(float, interval[1:-1].split(","))
    return lo, interval[0] == "[", hi, interval[-1] == "]"


def _inside(value, interval: str) -> bool:
    if isinstance(value, list):
        return all(_inside(v, interval) for v in value)
    lo, lo_closed, hi, hi_closed = _ends(interval)
    return (lo < value or lo_closed and lo == value) and (value < hi or hi_closed and value == hi)


def _outside(kind, interval: str) -> list:
    """The values of kind just outside and far outside each finite end of interval.

    Far outside is 4 past the end, or half the width of a bounded interval.  A list kind gets each value as a
    one-entry list, and again as the second entry after one inside the interval.
    """
    lo, lo_closed, hi, hi_closed = _ends(interval)
    step = min(4.0, (hi - lo) / 2)
    if isinstance(kind, list):
        values = _outside(kind[0], interval)
        inside = kind[0](lo + step if math.isfinite(lo) else hi - step)
        return [[v] for v in values] + [[inside, v] for v in values]
    values = []
    if math.isfinite(lo):
        values += [lo if not lo_closed else lo - 1 if kind is int else math.nextafter(lo, -math.inf), lo - step]
    if math.isfinite(hi):
        values += [hi if not hi_closed else hi + 1 if kind is int else math.nextafter(hi, math.inf), hi + step]
    return [kind(v) for v in values]


def _valid(kind, default, interval="[1, inf)"):
    """A value of kind that lies in interval: the default, unless the key is unset or required by default."""
    if default not in (None, harness._REQUIRED):
        return default
    if isinstance(kind, tuple):
        return kind[0]
    if isinstance(kind, list):
        return [_valid(kind[0], None, interval)]
    return True if kind is bool else kind(_ends(interval)[0] + 1)


def _leaves(keys: dict, prefix: str = "") -> dict:
    """section.key -> (kind, default[, interval]) for every key of a key table, nested sections by their full path."""
    leaves = {}
    for key, entry in keys.items():
        leaves.update(_leaves(entry, f"{prefix}{key}.") if isinstance(entry, dict) else {prefix + key: entry})
    return leaves


# each experiment's own key table
TABLES = {name: _leaves({**harness._CONFIG_KEYS, **experiment.keys})
          for name, experiment in harness.EXPERIMENTS.items()}
# (experiment, section.key, default, interval, value) for every value outside a ranged key's range
RANGE_CASES = [(name, path, entry[1], entry[2], value) for name, table in TABLES.items()
               for path, entry in table.items() if len(entry) == 3 for value in _outside(entry[0], entry[2])]
# (experiment, section.key, value) for every key of model, operator, metric and decoder that another experiment reads
# and this one does not, with a value that one takes; the certifier keys were per experiment already
SECTION_KEYS = {path: entry for table in TABLES.values() for path, entry in table.items()
                if path.split(".")[0] in ("model", "operator", "metric", "decoder")}
UNREAD_CASES = [(name, path, _valid(*entry)) for name, table in TABLES.items()
                for path, entry in SECTION_KEYS.items() if path not in table]


def _set(cfg: dict, path: str, value):
    """cfg with value at the dotted path, its sections made as needed."""
    *sections, key = path.split(".")
    node = cfg
    for section in sections:
        node = node.setdefault(section, {})
    node[key] = value
    return cfg


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
        ("model", "M", float("nan")),
    ], ids=["master-seed", "model-d", "certifier-noise-scale", "decoder-max-iters-float", "model-d-float",
            "master-seed-bool", "certifier-noise-scale-list", "model-M-nan"])
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
        pytest.param("certify_fourier", "m_sweep", [16.5], id="certify_fourier-m_sweep-value7"),
        ("certify_fourier", "m_sweep", 16),
        ("concentration_sweep", "reps", 1.5),
        pytest.param("concentration_sweep", "t_grid", ["0.3"], id="concentration_sweep-t_grid-value10"),
        ("recommend_m", "rho_target", True),
        ("certify_fourier", "draws", 0),
        ("certify_fourier", "sweep_draws", 0),
        ("concentration_sweep", "reps", 0),
        pytest.param("concentration_sweep", "t_grid", [], id="concentration_sweep-t_grid-value15"),
        ("iop_linear", "noise_scale", float("nan")),
        ("iop_linear", "noise_scale", float("inf")),
        ("iop_linear", "B", float("inf")),
        ("iop_linear", "lambda", float("inf")),
        pytest.param("concentration_sweep", "t_grid", [float("nan")], id="concentration_sweep-t_grid-value20"),
        ("certify_fourier", "concentration_draws", 50),
        ("concentration_sweep", "draws", 50),
        pytest.param("concentration_sweep", "m_sweep", [], id="concentration_sweep-m_sweep-value23"),
        ("certify_fourier", "t", 1.0),
        ("certify_fourier", "t", 0.0),
        ("recommend_m", "t", 1.0),
        ("certify_fourier", "c0_cover", 2.5),
    ])
    def test_bad_certifier_value_exit_code(self, tmp_path, capsys, monkeypatch, config, key, value):
        # a bare int() ran 2 trials for 2.7 and 1 for true; medians over no draws or reps were NaN,
        # an empty t_grid raised IndexError, a NaN noise_scale passed every range check, fewer than 100
        # concentration draws failed only inside estimate_concentration, and an empty m_sweep ran no sweep;
        # certify's t = 1 ran every draw and then divided by zero in 1.5 / (1 - t) (exit 3), c0_cover = -1
        # reported prop2 rho 0.565 where c0_cover = 3 gives 1.0, and t_grid [0.0] gave a null slope and
        # [-0.5] a negative c_hat_median (both exit 0).  Each is refused before the experiment runs; the last
        # three, and certify's t = 1.5, are cases of test_out_of_range_value_exit_code.
        monkeypatch.setattr("lrip_lab.cli.run", lambda config: pytest.fail("the experiment ran"))
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

    @pytest.mark.parametrize("section, key", [("model", "sedd"), ("operator", "sede"), ("metric", "sigam"),
                                              ("output", "serie")])
    def test_misspelt_key_exit_code(self, tmp_path, capsys, section, key):
        # these sections used to ignore a key they did not read: "model": {"sedd": 5} ran an unpinned model
        cfg = json.loads((ROOT / "configs" / "iop_linear.json").read_text())
        cfg.setdefault(section, {})[key] = 5
        assert main(["iop-experiment", "--config", self.write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"{section}.{key}" in err

    def test_identity_given_as_string_exit_code(self, tmp_path, capsys):
        # "false" is a truthy string, and it used to run the identity operator
        cfg = json.loads((ROOT / "configs" / "iop_linear.json").read_text())
        cfg["operator"]["identity"] = "false"
        assert main(["iop-experiment", "--config", self.write_config(tmp_path, cfg)]) == 2
        assert "operator.identity" in capsys.readouterr().err

    @pytest.mark.parametrize("pair", [[[0.1] * 10], [[0.1] * 10] * 3, [[0.1], [0.2]]],
                             ids=["one-point", "three-points", "short-points"])
    def test_bad_pair_exit_code(self, tmp_path, capsys, pair):
        # one point ended in an IndexError, and a third point was silently dropped
        cfg = json.loads((ROOT / "configs" / "concentration_sweep.json").read_text())
        cfg["certifier"]["pair"] = pair
        assert main(["concentration-sweep", "--config", self.write_config(tmp_path, cfg)]) == 2
        assert "certifier.pair" in capsys.readouterr().err

    @pytest.mark.parametrize("output", [{"series": ["bogus"]}, {"series": "p_hat_vs_m"}, {"dir": 5}],
                             ids=["unknown-series", "series-not-a-list", "dir-not-a-string"])
    def test_bad_output_exit_code_writes_nothing(self, tmp_path, capsys, output):
        cfg = json.loads((ROOT / "configs" / "concentration_sweep.json").read_text())
        cfg["output"] = {"dir": str(tmp_path / "out"), **output}
        assert main(["concentration-sweep", "--config", self.write_config(tmp_path, cfg)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "out").exists() and not (tmp_path / "5").exists()

    def test_series_missing_from_results_writes_nothing(self, tmp_path, capsys, monkeypatch):
        # alpha_hat_vs_m is a certify series only when certifier.m_sweep is given; it was refused only after the run
        monkeypatch.setattr("lrip_lab.cli.run", lambda config: pytest.fail("the experiment ran"))
        cfg = base_config(
            experiment="certify",
            model={"d": 3, "s": 1, "N": 2, "M": 1.0},
            operator={"kind": "random-fourier", "m": 8, "sigma": 1.0},
            metric=KERNEL,
            certifier={"draws": 1, "pairs": 20, "estimate_concentration": False},
            output={"series": ["alpha_hat_vs_m"]},
        )
        out = tmp_path / "out"
        assert main(["certify", "--config", self.write_config(tmp_path, cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "alpha_hat_vs_m" in err and "certifier.m_sweep" in err
        assert not out.exists()

    @pytest.mark.parametrize("config, m_sweep", [("certify_fourier", [8, 8]), ("concentration_sweep", [16, 64, 16])])
    def test_repeated_m_sweep_entry_exit_code(self, tmp_path, capsys, monkeypatch, config, m_sweep):
        # a repeated m ran its estimates again from the same streams: certify computed the same alpha_hat_vs_m row
        # twice, and a sweep at [16, 16] reported m = 16 twice, each entry holding both copies of its estimates
        monkeypatch.setattr("lrip_lab.cli.run", lambda config: pytest.fail("the experiment ran"))
        cfg = json.loads((ROOT / "configs" / f"{config}.json").read_text())
        cfg["certifier"]["m_sweep"] = m_sweep
        assert main([cfg["experiment"], "--config", self.write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "certifier.m_sweep" in err

    def test_sweep_draws_without_m_sweep_exit_code(self, tmp_path, capsys, monkeypatch):
        # sweep_draws is the draw count of the m sweep, and without one it was accepted and never read
        monkeypatch.setattr("lrip_lab.cli.run", lambda config: pytest.fail("the experiment ran"))
        cfg = json.loads((ROOT / "configs" / "certify_fourier.json").read_text())
        cfg["certifier"]["sweep_draws"] = 7
        assert main(["certify", "--config", self.write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "certifier.sweep_draws" in err

    @pytest.mark.parametrize("experiment, path, default, interval, value", RANGE_CASES,
                             ids=[f"{case[0]}-{case[1]}={case[-1]}" for case in RANGE_CASES])
    def test_out_of_range_value_exit_code(self, tmp_path, capsys, monkeypatch, experiment, path, default, interval,
                                          value):
        # a value just or far outside a finite end of its key's range, in an experiment's shipped config, is refused
        # while the config is parsed, naming section.key; the key's own default lies in the range
        assert default in (None, harness._REQUIRED) or _inside(default, interval)
        monkeypatch.setattr("lrip_lab.cli.run", lambda config: pytest.fail("the experiment ran"))
        cfg = _set(json.loads((ROOT / "configs" / f"{SHIPPED[experiment]}.json").read_text()), path, value)
        out = tmp_path / "out"
        assert main([experiment, "--config", self.write_config(tmp_path, cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"{path} must be in {interval}" in err
        assert not out.exists()

    @pytest.mark.parametrize("experiment, path, value", UNREAD_CASES,
                             ids=[f"{case[0]}-{case[1]}" for case in UNREAD_CASES])
    def test_unread_key_exit_code(self, tmp_path, capsys, monkeypatch, experiment, path, value):
        # a key the experiment does not read, in its shipped config, is refused while the config is parsed; such keys
        # used to be parsed and ignored, so recommend-m with operator.m 7 printed m = 55
        monkeypatch.setattr("lrip_lab.cli.run", lambda config: pytest.fail("the experiment ran"))
        cfg = _set(json.loads((ROOT / "configs" / f"{SHIPPED[experiment]}.json").read_text()), path, value)
        out = tmp_path / "out"
        assert main([experiment, "--config", self.write_config(tmp_path, cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: unknown keys {path};")
        assert not out.exists()

    @pytest.mark.parametrize("model", [
        {"d": 3, "s": 1, "N": 2, "M": 1.0, "bases": [[1.0, 0.0, 0.0], [0.0, 1.0]]},
        {"d": 2, "s": 1, "N": 2, "M": 1.0, "kind": "axes", "bases": [[1.0, 0.0], [0.0, 1.0]]},
    ], ids=["entry-of-wrong-length", "axes-with-bases"])
    def test_bad_model_bases_exit_code(self, tmp_path, capsys, monkeypatch, model):
        # an entry of the wrong length ended in numpy's reshape error (exit 1), and kind axes was ignored beside bases
        monkeypatch.setattr("lrip_lab.cli.run", lambda config: pytest.fail("the experiment ran"))
        cfg = base_config(experiment="decode", model=model, operator={"kind": "random-fourier", "m": 8}, metric=KERNEL)
        assert main(["decode", "--config", self.write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "model.bases" in err and "Traceback" not in err

    @pytest.mark.parametrize("config, key, value", [("certify_fourier", "seed", 5), ("concentration_sweep", "seed", 5),
                                                    ("concentration_sweep", "m", 16)])
    def test_unread_operator_key_exit_code(self, tmp_path, capsys, monkeypatch, config, key, value):
        # certify draws operator k from the stream (40, k) and a sweep from the law at each m_sweep entry, so these
        # keys were parsed and never read: certify_fourier's results were the same without a seed and at seeds 5 and 6
        monkeypatch.setattr("lrip_lab.cli.run", lambda config: pytest.fail("the experiment ran"))
        cfg = json.loads((ROOT / "configs" / f"{config}.json").read_text())
        cfg["operator"][key] = value
        out = tmp_path / "out"
        assert main([cfg["experiment"], "--config", self.write_config(tmp_path, cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"operator.{key}" in err
        assert not out.exists()

    def test_negative_seed_on_the_command_line_exit_code(self):
        # a negative master seed reached numpy's SeedSequence, whose ValueError ended the run with a traceback (exit 1)
        config = ROOT / "configs" / "decode_fourier.json"
        proc = subprocess.run([sys.executable, "-m", "lrip_lab.cli", "decode", "--config", str(config), "--seed", "-1"],
                              capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        assert proc.returncode == 2
        assert "master_seed" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("section, key, value", [("model", "s", 21), ("model", "N", 0), ("model", "M", -1.0),
                                                     ("operator", "sigma", 0.0), ("operator", "sigma", -1.0),
                                                     ("certifier", "c0_m", 0.0)])
    def test_bad_recommend_m_value_exit_code(self, tmp_path, capsys, section, key, value):
        # these ran: a math domain error (exit 1), a division by zero (exit 3), or m = 1 for a negative s (exit 0),
        # which test_out_of_range_value_exit_code now tries as model.s = -3
        cfg = json.loads((ROOT / "configs" / "recommend_m.json").read_text())
        cfg[section][key] = value
        out = tmp_path / "out"
        assert main(["recommend-m", "--config", self.write_config(tmp_path, cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"{section}.{key}" in err
        assert not out.exists()

    def test_positional_experiment_reads_its_own_certifier_keys(self, tmp_path):
        # the config is parsed once, as the experiment named on the command line
        cfg = base_config(experiment="certify", certifier={"t": 0.5, "rho_target": 0.01})
        path = self.write_config(tmp_path, cfg)
        assert main(["recommend-m", "--config", path, "--out", str(tmp_path / "o")]) == 0

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
            operator={"kind": "random-fourier", "sigma": 1.0},
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


@pytest.mark.parametrize("noise_scale, model_error_scale", [(0.0, 0.0), (0.05, 0.0), (0.0, 0.3), (0.05, 0.3)])
@pytest.mark.parametrize("kind", ["linear-gaussian", "random-fourier"])
def test_decode_draws_an_iop_trial(kind, noise_scale, model_error_scale):
    # the signal and measurement are bitwise the per-trial recipe of the IOP check, from the stream (master_seed, 21);
    # with noise and no model error, the decode experiment used to draw its noise where a trial draws its perturbation
    cfg = ExperimentConfig.from_dict(base_config(
        experiment="decode",
        master_seed=6,
        model={"d": 3, "s": 1, "N": 2, "M": 1.0},
        operator={"kind": kind, "m": 5},
        metric=KERNEL,
        certifier={"noise_scale": noise_scale, "model_error_scale": model_error_scale},
    ))
    results = run(cfg).results
    op = harness.build_operator(cfg, results["operator_seed"])
    xstar, y, _ = iop_trial(op, harness.build_model(cfg), seeding.generator(6, 21), noise_scale, model_error_scale)
    assert np.array(results["x_true"]).tobytes() == xstar.tobytes()
    assert np.array(results["y"]).tobytes() == np.stack([y.real, y.imag], axis=1).tobytes()


def test_certify_m_sweep_estimates_only_lrip(monkeypatch):
    # the sweep reports only alpha_hat, so BP runs once per main draw and never per sweep draw
    calls = []
    estimate_bp = harness.estimate_bp
    monkeypatch.setattr(harness, "estimate_bp", lambda *args, **kw: calls.append(1) or estimate_bp(*args, **kw))
    run(ExperimentConfig.from_dict(base_config(
        experiment="certify",
        model={"d": 4, "s": 1, "N": 2, "M": 1.0, "seed": 3},
        operator={"kind": "linear-gaussian", "m": 4},
        metric={"kind": "euclidean"},
        certifier={"draws": 2, "pairs": 50, "m_sweep": [3, 6], "sweep_draws": 3},
    )))
    assert len(calls) == 2


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


def _kind_text(kind) -> str:
    if isinstance(kind, list):
        return "list of " + _kind_text(kind[0])
    if isinstance(kind, tuple):
        return " / ".join(kind)
    return "string" if kind is str else kind.__name__


def _default_matches(cell: str, default) -> bool:
    """A required key reads 'required', an unset one (None) reads as words, any other the default as JSON."""
    if default is harness._REQUIRED:
        return cell == "required"
    try:
        value = json.loads(cell)
    except ValueError:
        return default is None and cell != "required"
    return default is not None and value == default and type(value) is type(default)


def test_readme_quick_tour_runs(capsys):
    # the tour is the README's library example, so an API change must not leave it stale
    tour = (ROOT / "README.md").read_text().split("## Library quick tour", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md: Library quick tour", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2


def _read_by(names: list) -> str:
    """The README's "read by" cell of a key that the experiments named read alike."""
    missing = [name for name in harness.EXPERIMENTS if name not in names]
    return "all" if not missing else f"all but {missing[0]}" if len(missing) == 1 else ", ".join(names)


def test_readme_key_table_matches_the_schema():
    # the keys, readers, defaults and ranges live in the experiments' tables, and the README table is where users
    # read them; a key that two experiments read with different defaults or ranges has a row for each
    lines = (ROOT / "README.md").read_text().splitlines()
    start = lines.index("| section | key | read by | type | default | range |")
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip().replace("`", "") for cell in line.strip("|").split("|")])
    readme = {(section, key, by): (kind, default, interval) for section, key, by, kind, default, interval in rows}
    assert len(readme) == len(rows)

    readers = {}
    for name, table in TABLES.items():
        for path, entry in table.items():
            section, _, key = path.rpartition(".")
            row = (section or "top level", key, _kind_text(entry[0]), repr(entry[1:]))
            readers.setdefault(row, ([], entry))[0].append(name)
    expected = {(section, key, _read_by(names)): entry for (section, key, _, _), (names, entry) in readers.items()}
    assert readme.keys() == expected.keys()
    for row, (kind, default, *interval) in expected.items():
        assert readme[row][0] == _kind_text(kind), row
        assert _default_matches(readme[row][1], default), row
        assert readme[row][2] == "".join(interval), row
