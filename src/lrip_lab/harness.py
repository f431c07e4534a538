"""Batch experiment harness: structured config in, reproducible report out.

Experiments: certify, decode, iop-experiment, recommend-m,
concentration-sweep.  Every random quantity is keyed by a seed derived from
the master seed and the trial's index, so the results payload is
byte-identical across runs and across worker counts; trials may fan out to a
thread pool but are always reduced in index order.
"""

from __future__ import annotations

import copy
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, seeding
from .certifier import (
    _draw_trials,
    estimate_bp,
    estimate_concentration,
    estimate_lrip,
    check_iop_inequality,
    fit_concentration_slope,
    prop2_failure_bound,
    recommend_m,
)
from .decoder import DecoderOptions, decode
from .errors import ConfigError, InputError
from .models import UnionOfSubspaces, sample_model_points
from .operators import (
    OPERATOR_KINDS,
    LinearGaussianOperator,
    OperatorLaw,
    RandomFourierOperator,
    hypothesis_constants,
)
from .spaces import Pseudometric

_REQUIRED = object()  # the default of a key that a config must give


def _cast(kind, value, key: str, interval: str | None = None):
    """value as kind, refused as a ConfigError naming its key unless it is one exactly and lies in interval.

    kind is bool, str, int or float; a tuple, the strings allowed; or [kind], a list of kind.  Only kind bool takes a
    bool and only kind str a string, an int must be integral: 2.7 is refused, not truncated to 2, and a float must
    be finite: JSON's NaN and Infinity are refused.  interval, such as "(0, 1)" or "[1, inf)", is the range of a
    number, or of each entry of a list.
    """
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ConfigError(f"{key} must be a list, got {value!r}")
        return [_cast(kind[0], v, key, interval) for v in value]
    if isinstance(kind, tuple):
        if value not in kind:
            raise ConfigError(f"{key} must be one of {', '.join(kind)}, got {value!r}")
        return value
    message = f"{key} must be {kind.__name__}, got {value!r}"
    if kind in (bool, str):
        if not isinstance(value, kind):
            raise ConfigError(message)
        return value
    if isinstance(value, (bool, str)):
        raise ConfigError(message)
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(message) from exc
    if kind is int and isinstance(value, float) and out != value:
        raise ConfigError(message)
    if kind is float and not np.isfinite(out):
        raise ConfigError(f"{key} must be a finite float, got {value!r}")
    lo, hi = map(float, interval[1:-1].split(",")) if interval else (-np.inf, np.inf)
    if not (lo < out < hi or out == lo and interval[0] == "[" or out == hi and interval[-1] == "]"):
        raise ConfigError(f"{key} must be in {interval}, got {value!r}")
    return out


def _paths(value, path: str) -> list:
    """path, or the path of each value nested in value when value is a non-empty JSON object."""
    if isinstance(value, dict) and value:
        return [p for k, v in value.items() for p in _paths(v, f"{path}.{k}")]
    return [path]


def _section(spec, keys: dict, name: str) -> dict:
    """The values of config section name, or of the whole config when name is empty.

    keys maps each key to (kind, default) or (kind, default, interval), kind and interval as in _cast, or to the keys
    of a nested section.  Each given value is cast to its kind and checked against its interval, and each key not
    given takes its default, None included.  A missing key whose default is _REQUIRED is refused, and then an
    unknown key, named by the path of each value it holds.
    """
    path = lambda key: f"{name}.{key}" if name else key
    if not isinstance(spec, dict):
        raise ConfigError(f"{name or 'config'} must be a JSON object, got {spec!r}")
    values = {}
    for key, entry in keys.items():
        if isinstance(entry, dict):
            values[key] = _section(spec.get(key, {}), entry, path(key))
        elif key in spec:
            values[key] = _cast(entry[0], spec[key], path(key), *entry[2:])
        elif entry[1] is _REQUIRED:
            raise ConfigError(f"{path(key)} is required")
        else:
            values[key] = entry[1]
    unknown = [p for key in spec if key not in keys for p in _paths(spec[key], path(key))]
    if unknown:
        raise ConfigError(f"unknown keys {', '.join(unknown)}; {name or 'config'} takes {', '.join(keys) or 'no keys'}")
    return values


@dataclass(frozen=True)
class ExperimentConfig:
    """An experiment configuration parsed by from_dict: every section as typed values, defaults filled in.

    The keys, kinds and defaults are those of _CONFIG_KEYS and of the experiment's table in EXPERIMENTS, which lists
    only the keys it reads.  to_dict gives the config as it was given, which every report echoes.
    """

    experiment: str
    master_seed: int
    workers: int
    model: dict
    operator: dict
    metric: dict
    decoder: dict
    certifier: dict
    output: dict
    echo: dict = field(repr=False, compare=False)

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        # _section checks experiment, the first key, before it refuses the sections of an unknown experiment
        exp = obj.get("experiment") if isinstance(obj, dict) else None
        keys = {**_CONFIG_KEYS, **(EXPERIMENTS[exp].keys if isinstance(exp, str) and exp in EXPERIMENTS else {})}
        values = _section(obj, keys, "")
        echo = {key: dict(obj.get(key, {})) if isinstance(entry, dict) else values[key] for key, entry in keys.items()}
        cfg = cls(**values, echo=echo)
        cfg.validate()
        return cfg

    def validate(self):
        """The rules that span keys, run before any computation; _section has checked each value in its range."""
        model, op, c = self.model, self.operator, self.certifier
        if model["s"] > model["d"]:
            raise ConfigError(f"need model.s <= model.d, got model.s = {model['s']}, model.d = {model['d']}")
        lengths = None if model.get("bases") is None else [len(b) for b in model["bases"]]
        if lengths is not None and (model["kind"] == "axes" or lengths != [model["d"] * model["s"]] * model["N"]):
            raise ConfigError(f"model.bases must be model.N entries of length model.d * model.s, without model.kind "
                              f"axes; got lengths {lengths} with kind {model['kind']}")
        # the series start at the first t of t_grid, and a concentration sweep at its first m
        if c.get("t_grid") == []:
            raise ConfigError("certifier.t_grid must not be empty")
        if self.experiment == "concentration-sweep" and c["m_sweep"] == []:
            raise ConfigError("certifier.m_sweep must not be empty")
        if c.get("pair") is not None and [len(x) for x in c["pair"]] != [model["d"]] * 2:
            raise ConfigError(f"certifier.pair must be two points of length model.d = {model['d']}, got {c['pair']}")
        series = EXPERIMENTS[self.experiment].series
        unknown = [name for name in self.output["series"] if name not in series]
        if unknown:
            raise ConfigError(f"unknown output.series {unknown}; {self.experiment} writes {list(series)}")
        if "alpha_hat_vs_m" in self.output["series"] and not c["m_sweep"]:
            raise ConfigError("output.series alpha_hat_vs_m needs certifier.m_sweep")
        other_sizes = {op.get("m"), *c.get("m_sweep", [])} - {None, model["d"]}
        if op.get("identity") and (op["kind"] != "linear-gaussian" or other_sizes):
            raise ConfigError("operator.identity is the linear-gaussian identity, so operator.m and each m_sweep entry "
                              "must equal model.d")
        if "m" in op and not op["identity"] and op["m"] is None:
            raise ConfigError(f"operator.m is required for {self.experiment}")
        if self.metric.get("kind") == "gaussian-kernel" and self.metric["sigma"] is None:
            raise ConfigError("metric.sigma is required for the kernel metric")

    def to_dict(self) -> dict:
        return copy.deepcopy(self.echo)


def read_config(path) -> dict:
    """The JSON object in the file at path; an unreadable file or another JSON value is a ConfigError."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"config {path} is not a JSON object")
    return obj


@dataclass(frozen=True)
class Report:
    config: dict
    results: dict
    seed_lineage: dict
    library_version: str
    wall_clock_seconds: float

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "results": self.results,
            "seed_lineage": self.seed_lineage,
            "library_version": self.library_version,
            "wall_clock_seconds": self.wall_clock_seconds,
        }

    def payload_bytes(self) -> bytes:
        """Canonical bytes of the deterministic part (everything but wall clock)."""
        det = {k: v for k, v in self.to_dict().items() if k != "wall_clock_seconds"}
        return json.dumps(det, sort_keys=True, allow_nan=False).encode()

    def results_bytes(self) -> bytes:
        """Canonical bytes of the results payload alone.

        This is the object contracted to be byte-identical across runs and
        across worker counts (the config echo necessarily differs in its
        ``workers`` field).
        """
        return json.dumps(self.results, sort_keys=True, allow_nan=False).encode()


# --- builders -------------------------------------------------------------

def _config_seed(spec: dict, master_seed: int, stream: int) -> int:
    """spec["seed"] when the config pins it, else the child seed of the master at ``stream``."""
    return seeding.child_seed(master_seed, stream) if spec["seed"] is None else spec["seed"]


def build_model(cfg: ExperimentConfig) -> UnionOfSubspaces:
    m = cfg.model
    if m["bases"] is not None:
        return UnionOfSubspaces.from_json(m)
    if m["kind"] == "axes":
        model = UnionOfSubspaces.axes(m["d"], m["M"])
    else:
        model = UnionOfSubspaces.random(m["d"], m["s"], m["N"], m["M"], _config_seed(m, cfg.master_seed, 10))
    if model.num_subspaces != m["N"] or model.subspace_dim != m["s"]:
        raise ConfigError("model kind is inconsistent with (s, N)")
    return model


def build_law(cfg: ExperimentConfig, m: int) -> OperatorLaw:
    """The law of the configured random operator, with m measurements."""
    return OperatorLaw(cfg.operator["kind"], m, cfg.model["d"], cfg.operator["sigma"])


def build_operator(cfg: ExperimentConfig, seed: int, m: int | None = None):
    """The configured operator drawn from seed, with m measurements in place of operator.m when m is given."""
    if cfg.operator["identity"]:
        return LinearGaussianOperator(np.eye(cfg.model["d"]))
    return build_law(cfg, cfg.operator["m"] if m is None else m).sample(seed)


def build_metric(cfg: ExperimentConfig) -> Pseudometric:
    return Pseudometric(cfg.metric["kind"], cfg.metric["sigma"])


def build_decoder_options(cfg: ExperimentConfig) -> DecoderOptions:
    dec = cfg.decoder
    return DecoderOptions(max_iters=dec["max_iters"], target=dec["grid_oracle"]["resolution"])


def _map_indexed(fn, count: int, workers: int) -> list:
    """Apply fn(k) for k in range(count), reduced in index order regardless of workers."""
    if workers <= 1:
        return [fn(k) for k in range(count)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(count)))


# --- experiments ----------------------------------------------------------

def _run_recommend_m(cfg: ExperimentConfig) -> dict:
    c, m = cfg.certifier, cfg.model
    rec = recommend_m(t=c["t"], s=m["s"], N=m["N"], M=m["M"], d=m["d"], sigma=cfg.operator["sigma"],
                      rho_target=c["rho_target"], c0=c["c0_m"])
    return {"recommendation": rec.report_dict(), "m": rec.m, "series": {}}


def _run_decode(cfg: ExperimentConfig) -> dict:
    model = build_model(cfg)
    metric = build_metric(cfg)
    opts = build_decoder_options(cfg)
    op_seed = _config_seed(cfg.operator, cfg.master_seed, 20)
    op = build_operator(cfg, op_seed)
    c = cfg.certifier
    rngs = [seeding.generator(cfg.master_seed, 21)]
    (x_true,), y, _ = _draw_trials(op, model, rngs, 1, c["noise_scale"], c["model_error_scale"])
    dec = decode(op, model, y, opts)
    return {
        "decode": {f.name: getattr(dec, f.name)[0].tolist() for f in fields(dec) if f.name != "gap"},
        "x_true": x_true.tolist(),
        "y": [[v.real, v.imag] for v in y[0].tolist()],
        "metric_error": metric.dist(x_true - dec.xhat[0]),
        "residual_certificate_gap": float(dec.gap[0]),
        "operator_seed": op_seed,
        "series": {},
    }


def _run_iop(cfg: ExperimentConfig) -> dict:
    model = build_model(cfg)
    metric = build_metric(cfg)
    opts = build_decoder_options(cfg)
    c = cfg.certifier
    op_seed = _config_seed(cfg.operator, cfg.master_seed, 30)
    op = build_operator(cfg, op_seed)

    B = c["B"]
    alpha_report = None
    if B is None:
        est = estimate_lrip(
            op, model, metric,
            pairs=c["pairs"],
            rng_seed=seeding.child_seed(cfg.master_seed, 31),
            eta=c["eta"],
            near_eps=c["near_eps"],
        )
        B = 2.0 * est.alpha_hat
        alpha_report = est.report_dict()
    witness = check_iop_inequality(
        op, model, metric, opts,
        A=c["A"],
        B=B,
        lam=c["lambda"],
        trials=c["trials"],
        noise_scale=c["noise_scale"],
        model_error_scale=c["model_error_scale"],
        rng_seed=seeding.child_seed(cfg.master_seed, 32),
        uniform_candidates=c["uniform_candidates"],
    )
    return {
        "iop": witness.report_dict(),
        "satisfied": witness.satisfied_count,
        "trials": len(witness.satisfied),
        "all_satisfied": witness.all_satisfied,
        "lrip_estimate": alpha_report,
        "operator_seed": op_seed,
        "series": {},
    }


def _lrip_draw(cfg, model, metric, anchor, k, m=None):
    """Draw k's operator, with m measurements in place of operator.m when m is given, and its LRIP estimate."""
    c = cfg.certifier
    op = build_operator(cfg, seeding.child_seed(cfg.master_seed, 40, k), m)
    est = estimate_lrip(
        op, model, metric,
        pairs=c["pairs"],
        rng_seed=seeding.child_seed(cfg.master_seed, 42, k),
        anchor=anchor,
        eta=c["eta"],
        near_eps=c["near_eps"],
    )
    return op, est


def _certify_one_draw(cfg, model, metric, anchor, k):
    c = cfg.certifier
    op, est = _lrip_draw(cfg, model, metric, anchor, k)
    bp = estimate_bp(
        op, model, metric,
        pairs=c["pairs"] if c["bp_pairs"] is None else c["bp_pairs"],
        rng_seed=seeding.child_seed(cfg.master_seed, 43, k),
        perturbation_scale=c["perturbation_scale"],
    )
    hyp = hypothesis_constants(op, model) if isinstance(op, RandomFourierOperator) else None
    return est, bp, hyp


def _run_certify(cfg: ExperimentConfig) -> dict:
    model = build_model(cfg)
    metric = build_metric(cfg)
    c = cfg.certifier
    draws, t = c["draws"], c["t"]
    anchor = None
    if c["anchored"]:
        anchor = sample_model_points(model, 1, seeding.generator(cfg.master_seed, 41))[0]

    results = _map_indexed(lambda k: _certify_one_draw(cfg, model, metric, anchor, k), draws, cfg.workers)
    alphas = [est.alpha_hat for est, _, _ in results]
    betas = [bp.beta_hat for _, bp, _ in results]

    alpha_max = 1.5 / (1.0 - t) if c["alpha_max"] is None else c["alpha_max"]
    beta_max = 1.5 * (1.0 + t) if c["beta_max"] is None else c["beta_max"]
    payload = {
        "draws": draws,
        "alpha_hat": alphas,
        "beta_hat": betas,
        "alpha_median": float(np.median(alphas)),
        "beta_median": float(np.median(betas)),
        "alpha_max_threshold": alpha_max,
        "beta_max_threshold": beta_max,
        "alpha_success": int(sum(a <= alpha_max for a in alphas)),
        "beta_success": int(sum(b <= beta_max for b in betas)),
        "lrip_mode": results[0][0].mode,
        "series": {
            "alpha_hat_vs_draw": {
                "columns": ["draw", "alpha_hat"],
                "rows": [[k, a] for k, a in enumerate(alphas)],
            },
            "beta_hat_vs_draw": {
                "columns": ["draw", "beta_hat"],
                "rows": [[k, b] for k, b in enumerate(betas)],
            },
        },
    }

    if c["m_sweep"]:
        sweep_rows = []
        for m_val in c["m_sweep"]:
            sweep = _map_indexed(
                lambda k: _lrip_draw(cfg, model, metric, anchor, k, m_val)[1].alpha_hat,
                draws if c["sweep_draws"] is None else c["sweep_draws"],
                cfg.workers,
            )
            sweep_rows.append([m_val, float(np.median(sweep))])
        payload["series"]["alpha_hat_vs_m"] = {
            "columns": ["m", "alpha_hat_median"],
            "rows": sweep_rows,
        }

    hyps = [h for _, _, h in results if h is not None]
    if hyps:
        med = lambda vals: float(np.median(vals))
        consts_median = {
            "C1": med([h.C1 for h in hyps]),
            "C2": med([h.C2 for h in hyps]),
            "C3": med([h.C3 for h in hyps]),
            "M_S": hyps[0].M_S,
        }
        payload["hypothesis_constants_median"] = consts_median
        # theoretical side: covering bounds + failure probability at level t
        c_half_t = c["c_of_half_t"]
        if c_half_t is None and c["estimate_concentration"]:
            x, x2 = sample_model_points(model, 2, seeding.generator(cfg.master_seed, 44))
            conc = estimate_concentration(
                law=build_law(cfg, cfg.operator["m"]),
                pair=(x, x2),
                metric=metric,
                draws=c["concentration_draws"],
                t_grid=[t / 2.0],
                rng_seed=seeding.child_seed(cfg.master_seed, 45),
            )
            # use the Wilson lower confidence bound when no failures were seen
            c_half_t = float(conc.c_hat[0] if np.isfinite(conc.c_hat[0]) else conc.c_lower[0])
            payload["concentration_at_half_t"] = conc.report_dict()
        if c_half_t is not None:
            prop2 = prop2_failure_bound(model, metric, c_half_t, hyps[0], t, c0=c["c0_cover"])
            payload["prop2"] = prop2.report_dict()
    return payload


def _run_concentration_sweep(cfg: ExperimentConfig) -> dict:
    model = build_model(cfg)
    metric = build_metric(cfg)
    c = cfg.certifier
    m_sweep, t_grid = c["m_sweep"], c["t_grid"]
    if c["pair"] is not None:
        x, x2 = np.asarray(c["pair"], dtype=float)
    else:
        x, x2 = sample_model_points(model, 2, seeding.generator(cfg.master_seed, 50))

    def one(args):
        m, rep = args
        return estimate_concentration(
            law=build_law(cfg, m),
            pair=(x, x2),
            metric=metric,
            draws=c["draws"],
            t_grid=t_grid,
            rng_seed=seeding.child_seed(cfg.master_seed, 51, m, rep),
        )

    tasks = [(m, rep) for m in m_sweep for rep in range(c["reps"])]
    ests = _map_indexed(lambda k: one(tasks[k]), len(tasks), cfg.workers)
    by_m = {m: [ests[i] for i, (mm, _) in enumerate(tasks) if mm == m] for m in m_sweep}

    per_m = []
    for m in m_sweep:
        group = by_m[m]
        p_median = [float(np.median([e.p_hat[j] for e in group])) for j in range(len(t_grid))]
        c_median = [-np.log(p) if p > 0 else None for p in p_median]
        per_m.append({
            "m": m,
            "p_hat_median": p_median,
            "c_hat_median": c_median,
            "estimates": [e.report_dict() for e in group],
        })
    slopes = fit_concentration_slope([e for group in by_m.values() for e in group])
    payload = {
        "pair": [[float(v) for v in x], [float(v) for v in x2]],
        "t_grid": t_grid,
        "m_sweep": m_sweep,
        "per_m": per_m,
        "slope_fit": slopes,
        "series": {
            "p_hat_vs_m": {
                "columns": ["m", f"p_hat(t={t_grid[0]})"],
                "rows": [[m, per_m[i]["p_hat_median"][0]] for i, m in enumerate(m_sweep)],
            },
            "c_hat_vs_t": {
                "columns": ["t", "c_hat"],
                "rows": [[t_grid[j], per_m[-1]["c_hat_median"][j]] for j in range(len(t_grid))],
            },
        },
    }
    return payload


# --- schema -----------------------------------------------------------------

class _Experiment(NamedTuple):
    runner: Callable[[ExperimentConfig], dict]
    keys: dict  # section -> the keys the runner reads there, key -> (kind, default) or (kind, default, interval)
    streams: dict  # the streams derived from the master seed, by name
    series: tuple  # the CSV series its results can carry


# The one table of experiments, each with the keys it reads, built from these fragments.  A None default leaves a key
# unset: a seed then comes from the master seed, the identity operator takes m from model.d, and bp_pairs, sweep_draws,
# alpha_max and beta_max are worked out from pairs, draws or t.  estimate_concentration needs 100 draws, 3 is the
# proven ball-covering constant, and grid_oracle.resolution is DecoderOptions.target.  No runner reads decoder.restarts
# or grid_oracle.enabled, but the iop-fourier benchmark passes them.  In the streams, -1 is a draw, rep or sweep index.
_SHAPE = {"d": (int, _REQUIRED, "[1, inf)"), "s": (int, _REQUIRED, "[1, inf)"), "N": (int, _REQUIRED, "[1, inf)"),
          "M": (float, _REQUIRED, "(0, inf)")}
_MODEL = {**_SHAPE, "kind": (("random", "axes"), "random"), "seed": (int, None, "[0, inf)"), "bases": ([[float]], None)}
_SIGMA = {"sigma": (float, 1.0, "(0, inf)")}
_LAW = {"kind": (OPERATOR_KINDS, _REQUIRED), **_SIGMA}
_OPERATOR = {**_LAW, "m": (int, None, "[1, inf)"), "identity": (bool, False)}
_METRIC = {"kind": (("euclidean", "gaussian-kernel"), "euclidean"), "sigma": (float, None, "(0, inf)")}
_DECODE = {"model": _MODEL, "operator": {**_OPERATOR, "seed": (int, None, "[0, inf)")}, "metric": _METRIC, "decoder": {
    "max_iters": (int, DecoderOptions.max_iters, "[1, inf)"), "restarts": (int, None),
    "grid_oracle": {"resolution": (float, DecoderOptions.target, "(0, inf)"), "enabled": (bool, None)}}}
_LRIP = {"eta": (float, 0.0, "[0, inf)"), "near_eps": (float, 0.1, "(0, inf)")}
_SCALES = {"noise_scale": (float, 0.0, "[0, inf)"), "model_error_scale": (float, 0.0, "[0, inf)")}
EXPERIMENTS = {
    "certify": _Experiment(
        _run_certify,
        {"model": _MODEL, "operator": _OPERATOR, "metric": _METRIC, "decoder": {}, "certifier": {
            "draws": (int, 100, "[1, inf)"), "pairs": (int, 10000, "[1, inf)"), "bp_pairs": (int, None, "[1, inf)"),
            "anchored": (bool, True), **_LRIP, "perturbation_scale": (float, 1.0, "[0, inf)"),
            "t": (float, 0.5, "(0, 1)"), "alpha_max": (float, None, "(0, inf)"), "beta_max": (float, None, "(0, inf)"),
            "m_sweep": ([int], [], "[1, inf)"), "sweep_draws": (int, None, "[1, inf)"),
            "c_of_half_t": (float, None, "[0, inf)"), "estimate_concentration": (bool, True),
            "concentration_draws": (int, 200, "[100, inf)"), "c0_cover": (float, 3.0, "[3, inf)")}},
        {"model": (10,), "operator_draw_k": (40, -1), "anchor": (41,), "pairs_draw_k": (42, -1),
         "bp_pairs_draw_k": (43, -1), "concentration_pair": (44,), "concentration_draws": (45,)},
        ("alpha_hat_vs_draw", "beta_hat_vs_draw", "alpha_hat_vs_m")),
    "decode": _Experiment(_run_decode, {**_DECODE, "certifier": _SCALES},
                          {"model": (10,), "operator": (20,), "signal_and_noise": (21,)}, ()),
    "iop-experiment": _Experiment(
        _run_iop,
        {**_DECODE, "certifier": {
            "B": (float, None, "[0, inf)"), "pairs": (int, 2000, "[1, inf)"), **_LRIP, "A": (float, 1.0, "[0, inf)"),
            "lambda": (float, 0.0, "[0, inf)"), "trials": (int, 100, "[1, inf)"), **_SCALES,
            "uniform_candidates": (int, 64, "[0, inf)")}},
        {"model": (10,), "operator": (30,), "lrip_pairs": (31,), "iop_trials": (32,)}, ()),
    "recommend-m": _Experiment(_run_recommend_m, {"model": _SHAPE, "operator": _SIGMA, "metric": {}, "decoder": {},
                                                  "certifier": {"t": (float, _REQUIRED, "(0, 1)"),
                                                                "rho_target": (float, _REQUIRED, "(0, 1)"),
                                                                "c0_m": (float, 1.0, "(0, inf)")}}, {}, ()),
    "concentration-sweep": _Experiment(
        _run_concentration_sweep,
        {"model": _MODEL, "operator": _LAW, "metric": _METRIC, "decoder": {}, "certifier": {
            "m_sweep": ([int], [16, 64, 256], "[1, inf)"), "t_grid": ([float], [0.3], "(0, inf)"),
            "reps": (int, 5, "[1, inf)"), "draws": (int, 200, "[100, inf)"), "pair": ([[float]], None)}},
        {"model": (10,), "pair": (50,), "concentration_m_rep": (51, -1, -1)}, ("p_hat_vs_m", "c_hat_vs_t")),
}

# The keys of every experiment, as the CLI's --seed sets master_seed whatever the experiment.
_CONFIG_KEYS = {
    "experiment": (tuple(EXPERIMENTS), _REQUIRED), "master_seed": (int, 0, "[0, inf)"), "workers": (int, 1, "[1, inf)"),
    "output": {"dir": (str, None), "series": ([str], [])},
}


def _seed_streams(cfg: ExperimentConfig) -> dict:
    """The experiment's streams less those its config pins or skips: a pinned model or operator, a given B or pair, an
    unanchored certify, and certify's concentration estimate off the random Fourier map or when c_of_half_t is given."""
    model, op, c = cfg.model, cfg.operator, cfg.certifier
    estimated = op.get("kind") == "random-fourier" and c.get("c_of_half_t") is None and c.get("estimate_concentration")
    derived = {"model": model.get("seed") is None and model.get("bases") is None and model.get("kind") == "random",
               "operator": op.get("seed") is None, "lrip_pairs": c.get("B") is None, "anchor": c.get("anchored"),
               "concentration_pair": estimated, "concentration_draws": estimated, "pair": c.get("pair") is None}
    return {name: path for name, path in EXPERIMENTS[cfg.experiment].streams.items() if derived.get(name, True)}


def _strict_json(value):
    """value with each non-finite float in its dicts, lists and tuples replaced by None, which JSON writes as null."""
    if isinstance(value, dict):
        return {k: _strict_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(v) for v in value]
    return None if isinstance(value, float) and not np.isfinite(value) else value


def run(config: ExperimentConfig) -> Report:
    """Run the configured experiment and assemble the report; its results hold no NaN or infinity."""
    start = time.perf_counter()
    results = _strict_json(EXPERIMENTS[config.experiment].runner(config))
    wall = time.perf_counter() - start
    return Report(
        config=config.to_dict(),
        results=results,
        seed_lineage=seeding.lineage(config.master_seed, _seed_streams(config)),
        library_version=__version__,
        wall_clock_seconds=wall,
    )


def emit_plot_data(report: Report, series: str) -> str:
    """Two-column CSV stream for a named series of the report."""
    table = report.results.get("series", {}).get(series)
    if table is None:
        raise InputError(f"unknown series {series!r}; available: {sorted(report.results.get('series', {}))}")
    lines = [",".join(table["columns"])]
    for row in table["rows"]:
        lines.append(",".join("" if v is None else repr(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def write_report(report: Report, out_dir, series_names=()) -> dict:
    """Write report.json and the named CSV series; returns written paths.

    Every series is rendered first, so an unknown name raises InputError before any file is written.
    """
    tables = {name: emit_plot_data(report, name) for name in series_names}
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    report_path = out / "report.json"
    with open(report_path, "w") as fh:
        json.dump(report.to_dict(), fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")
    paths["report"] = str(report_path)
    for name, table in tables.items():
        csv_path = out / f"{name}.csv"
        csv_path.write_text(table)
        paths[name] = str(csv_path)
    return paths
