"""Batch experiment harness: structured config in, reproducible report out.

Experiments: certify, decode, iop-experiment, recommend-m,
concentration-sweep.  Every random quantity is keyed by a seed derived from
the master seed and the trial's index, so the results payload is
byte-identical across runs and across worker counts; trials may fan out to a
thread pool but are always reduced in index order.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__, seeding
from .certifier import (
    estimate_bp,
    estimate_concentration,
    estimate_lrip,
    check_iop_inequality,
    fit_concentration_slope,
    prop2_failure_bound,
    recommend_m,
)
from .decoder import DecoderOptions, GridOracleOptions, decode, noise_vector
from .errors import ConfigError, InputError
from .models import UnionOfSubspaces, sample_model_points
from .operators import (
    LinearGaussianOperator,
    RandomFourierOperator,
    hypothesis_constants,
)
from .spaces import Pseudometric, complex_vector_to_json

EXPERIMENTS = ("certify", "decode", "iop-experiment", "recommend-m", "concentration-sweep")


def _cast(kind, value, key: str):
    """kind(value), with a value that does not cast exactly refused as a ConfigError naming its key.

    Neither a bool nor a string is a number here, and an int must be integral: 2.7 is refused, not
    truncated to 2.  kind bool takes a bool only, and [kind] a list of kind.
    """
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ConfigError(f"{key} must be a list, got {value!r}")
        return [_cast(kind[0], v, key) for v in value]
    message = f"{key} must be {kind.__name__}, got {value!r}"
    if isinstance(value, str) or isinstance(value, bool) != (kind is bool):
        raise ConfigError(message)
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(message) from exc
    if kind is int and isinstance(value, float) and out != value:
        raise ConfigError(message)
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment configuration; echoed verbatim into every report."""

    experiment: str
    master_seed: int = 0
    workers: int = 1
    model: dict = field(default_factory=dict)
    operator: dict = field(default_factory=dict)
    metric: dict = field(default_factory=lambda: {"kind": "euclidean"})
    decoder: dict = field(default_factory=dict)
    certifier: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        if not isinstance(obj, dict):
            raise ConfigError("config must be a JSON object")
        exp = obj.get("experiment")
        if exp not in EXPERIMENTS:
            raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got {exp!r}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(obj) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(
            experiment=exp,
            master_seed=_cast(int, obj.get("master_seed", 0), "master_seed"),
            workers=_cast(int, obj.get("workers", 1), "workers"),
            model=dict(obj.get("model", {})),
            operator=dict(obj.get("operator", {})),
            metric=dict(obj.get("metric", {"kind": "euclidean"})),
            decoder=dict(obj.get("decoder", {})),
            certifier=dict(obj.get("certifier", {})),
            output=dict(obj.get("output", {})),
        )
        cfg.validate()
        return cfg

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                obj = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(obj)

    def validate(self):
        """Dimensional compatibility checks run before any computation."""
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.experiment == "recommend-m":
            return
        m = self.model
        for key in ("d", "s", "N", "M"):
            if key not in m:
                raise ConfigError(f"model.{key} is required for {self.experiment}")
        if not (1 <= _cast(int, m["s"], "model.s") <= _cast(int, m["d"], "model.d")):
            raise ConfigError("need 1 <= s <= d in model spec")
        op = self.operator
        if op.get("kind") not in ("linear-gaussian", "random-fourier"):
            raise ConfigError("operator.kind must be linear-gaussian or random-fourier")
        if op.get("identity"):
            if op.get("kind") != "linear-gaussian":
                raise ConfigError("operator.identity applies to linear-gaussian only")
            if _cast(int, op.get("m", m["d"]), "operator.m") != int(m["d"]):
                raise ConfigError("identity operator requires m == d")
        elif _cast(int, op.get("m", 0), "operator.m") < 1:
            raise ConfigError("operator.m must be >= 1")
        if op.get("kind") == "random-fourier" and not _cast(float, op.get("sigma", 0), "operator.sigma") > 0:
            raise ConfigError("operator.sigma must be > 0 for the Fourier operator")
        if self.metric.get("kind") not in ("euclidean", "gaussian-kernel"):
            raise ConfigError("metric.kind must be euclidean or gaussian-kernel")
        sigma = self.metric.get("sigma", 0)
        if self.metric.get("kind") == "gaussian-kernel" and not _cast(float, sigma, "metric.sigma") > 0:
            raise ConfigError("metric.sigma must be > 0 for the kernel metric")

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "master_seed": self.master_seed,
            "workers": self.workers,
            "model": dict(self.model),
            "operator": dict(self.operator),
            "metric": dict(self.metric),
            "decoder": dict(self.decoder),
            "certifier": dict(self.certifier),
            "output": dict(self.output),
        }


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
        return json.dumps(det, sort_keys=True).encode()

    def results_bytes(self) -> bytes:
        """Canonical bytes of the results payload alone.

        This is the object contracted to be byte-identical across runs and
        across worker counts (the config echo necessarily differs in its
        ``workers`` field).
        """
        return json.dumps(self.results, sort_keys=True).encode()


# --- builders -------------------------------------------------------------

def _config_seed(spec: dict, section: str, master_seed: int, stream: int) -> int:
    """spec["seed"] when the config pins it, else the child seed of the master at ``stream``."""
    if "seed" in spec:
        return _cast(int, spec["seed"], f"{section}.seed")
    return seeding.child_seed(master_seed, stream)


def build_model(cfg: ExperimentConfig) -> UnionOfSubspaces:
    m = cfg.model
    kind = m.get("kind", "random")
    d, s, N = (_cast(int, m[k], f"model.{k}") for k in "dsN")
    M = _cast(float, m["M"], "model.M")
    if "bases" in m:
        return UnionOfSubspaces.from_json({"d": d, "s": s, "N": N, "M": M, "bases": m["bases"]})
    if kind == "axes":
        model = UnionOfSubspaces.axes(d, M)
    elif kind == "random":
        model = UnionOfSubspaces.random(d, s, N, M, _config_seed(m, "model", cfg.master_seed, 10))
    else:
        raise ConfigError(f"unknown model kind {kind!r}")
    if model.num_subspaces != N or model.subspace_dim != s:
        raise ConfigError("model kind is inconsistent with (s, N)")
    return model


def build_operator(cfg: ExperimentConfig, seed: int):
    op = cfg.operator
    d = int(cfg.model["d"])
    if op["kind"] == "linear-gaussian":
        if op.get("identity"):
            return LinearGaussianOperator.from_matrix(np.eye(d))
        return LinearGaussianOperator.from_seed(int(op["m"]), d, seed)
    return RandomFourierOperator.from_seed(int(op["m"]), d, float(op["sigma"]), seed)


def build_metric(cfg: ExperimentConfig) -> Pseudometric:
    return Pseudometric(cfg.metric["kind"], cfg.metric.get("sigma"))


def _options(cls, spec: dict, section: str):
    """cls from a config section: the defaults of cls, values cast to their types, unknown keys refused."""
    unknown = set(spec) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {section} keys: {sorted(unknown)}")
    default = cls()
    cast = {k: _cast(type(getattr(default, k)), v, f"{section}.{k}") for k, v in spec.items()}
    return replace(default, **cast)


def build_decoder_options(cfg: ExperimentConfig) -> DecoderOptions:
    # decoder.restarts and decoder.grid_oracle.enabled served the multi-start decoder, which is gone;
    # the benchmark's iop-fourier workload still passes both, so they are dropped here, not refused
    dec = {k: v for k, v in cfg.decoder.items() if k != "restarts"}
    oracle = {k: v for k, v in dec.pop("grid_oracle", {}).items() if k != "enabled"}
    oracle = _options(GridOracleOptions, oracle, "decoder.grid_oracle")
    return replace(_options(DecoderOptions, dec, "decoder"), grid_oracle=oracle)


def _map_indexed(fn, count: int, workers: int) -> list:
    """Apply fn(k) for k in range(count), reduced in index order regardless of workers."""
    if workers <= 1:
        return [fn(k) for k in range(count)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(count)))


# --- experiments ----------------------------------------------------------

def _run_recommend_m(cfg: ExperimentConfig) -> dict:
    c, m = cfg.certifier, cfg.model
    try:
        rec = recommend_m(
            t=c["t"],
            s=_cast(int, m["s"], "model.s"),
            N=_cast(int, m["N"], "model.N"),
            M=_cast(float, m["M"], "model.M"),
            d=_cast(int, m["d"], "model.d"),
            sigma=_cast(float, cfg.operator.get("sigma", 1.0), "operator.sigma"),
            rho_target=c["rho_target"],
            c0=c.get("c0_m", 1.0),
        )
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"recommend-m needs t, rho_target and model (d, s, N, M): {exc}") from exc
    return {"recommendation": rec.report_dict(), "m": rec.m, "series": {}}


def _run_decode(cfg: ExperimentConfig) -> dict:
    model = build_model(cfg)
    metric = build_metric(cfg)
    opts = build_decoder_options(cfg)
    op_seed = _config_seed(cfg.operator, "operator", cfg.master_seed, 20)
    op = build_operator(cfg, op_seed)
    c = cfg.certifier
    rng = seeding.generator(cfg.master_seed, 21)
    x_true = sample_model_points(model, 1, rng)[0]
    pert = c.get("model_error_scale", 0.0)
    if pert:
        x_true = x_true + rng.normal(size=model.dim) * (pert / np.sqrt(model.dim))
    y = op.apply_batch(x_true)[0]
    noise = c.get("noise_scale", 0.0)
    if noise:
        y = y + noise_vector(op, noise, rng)
    result, gap = decode(op, model, y, opts)
    return {
        "decode": result.to_json(),
        "x_true": [float(v) for v in x_true],
        "y": complex_vector_to_json(np.asarray(y, dtype=complex)),
        "metric_error": metric.dist(x_true, result.xhat),
        "residual_certificate_gap": gap if np.isfinite(gap) else None,
        "operator_seed": op_seed,
        "series": {},
    }


def _run_iop(cfg: ExperimentConfig) -> dict:
    model = build_model(cfg)
    metric = build_metric(cfg)
    opts = build_decoder_options(cfg)
    c = cfg.certifier
    op_seed = _config_seed(cfg.operator, "operator", cfg.master_seed, 30)
    op = build_operator(cfg, op_seed)

    B = c.get("B")
    alpha_report = None
    if B is None:
        est = estimate_lrip(
            op, model, metric,
            pairs=c.get("pairs", 2000),
            rng_seed=seeding.child_seed(cfg.master_seed, 31),
            eta=c.get("eta", 0.0),
            near_eps=c.get("near_eps", 0.1),
        )
        B = 2.0 * est.alpha_hat
        alpha_report = est.report_dict()
    witness = check_iop_inequality(
        op, model, metric, opts,
        A=c.get("A", 1.0),
        B=float(B),
        lam=c.get("lambda", 0.0),
        trials=c.get("trials", 100),
        noise_scale=c.get("noise_scale", 0.0),
        model_error_scale=c.get("model_error_scale", 0.0),
        rng_seed=seeding.child_seed(cfg.master_seed, 32),
        uniform_candidates=c.get("uniform_candidates", 64),
    )
    return {
        "iop": witness.report_dict(),
        "satisfied": witness.satisfied_count,
        "trials": len(witness.trials),
        "all_satisfied": witness.all_satisfied,
        "lrip_estimate": alpha_report,
        "operator_seed": op_seed,
        "series": {},
    }


def _certify_one_draw(cfg, model, metric, anchor, k):
    c = cfg.certifier
    op = build_operator(cfg, seeding.child_seed(cfg.master_seed, 40, k))
    est = estimate_lrip(
        op, model, metric,
        pairs=c.get("pairs", 10000),
        rng_seed=seeding.child_seed(cfg.master_seed, 42, k),
        anchor=anchor,
        eta=c.get("eta", 0.0),
        near_eps=c.get("near_eps", 0.1),
    )
    bp = estimate_bp(
        op, model, metric,
        pairs=c.get("bp_pairs", c.get("pairs", 10000)),
        rng_seed=seeding.child_seed(cfg.master_seed, 43, k),
        perturbation_scale=c.get("perturbation_scale", 1.0),
    )
    hyp = hypothesis_constants(op, model) if isinstance(op, RandomFourierOperator) else None
    return est, bp, hyp


def _run_certify(cfg: ExperimentConfig) -> dict:
    model = build_model(cfg)
    metric = build_metric(cfg)
    c = cfg.certifier
    draws = c.get("draws", 100)
    t = c.get("t", 0.5)
    anchor = None
    if c.get("anchored", True):
        anchor = sample_model_points(model, 1, seeding.generator(cfg.master_seed, 41))[0]

    results = _map_indexed(lambda k: _certify_one_draw(cfg, model, metric, anchor, k), draws, cfg.workers)
    alphas = [est.alpha_hat for est, _, _ in results]
    betas = [bp.beta_hat for _, bp, _ in results]

    alpha_max = c.get("alpha_max", 1.5 / (1.0 - t))
    beta_max = c.get("beta_max", 1.5 * (1.0 + t))
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
        "lrip_mode": results[0][0].mode if results else None,
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

    m_sweep = c.get("m_sweep", [])
    if m_sweep:
        sweep_rows = []
        for m_val in m_sweep:
            sub = ExperimentConfig.from_dict(
                {**cfg.to_dict(), "operator": dict(cfg.operator, m=m_val)}
            )
            sweep = _map_indexed(
                lambda k: _certify_one_draw(sub, model, metric, anchor, k),
                c.get("sweep_draws", draws),
                cfg.workers,
            )
            sweep_rows.append([m_val, float(np.median([e.alpha_hat for e, _, _ in sweep]))])
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
        c_half_t = c.get("c_of_half_t")
        if c_half_t is None and c.get("estimate_concentration", True):
            x, x2 = sample_model_points(model, 2, seeding.generator(cfg.master_seed, 44))
            conc = estimate_concentration(
                op_factory=lambda s: build_operator(cfg, s),
                pair=(x, x2),
                metric=metric,
                draws=c.get("concentration_draws", 200),
                t_grid=[t / 2.0],
                rng_seed=seeding.child_seed(cfg.master_seed, 45),
            )
            # use the Wilson lower confidence bound when no failures were seen
            c_half_t = conc.c_hat[0] if np.isfinite(conc.c_hat[0]) else conc.c_lower[0]
            payload["concentration_at_half_t"] = conc.report_dict()
        if c_half_t is not None:
            prop2 = prop2_failure_bound(model, metric, float(c_half_t), hyps[0], t,
                                        c0=c.get("c0_cover", 3.0))
            payload["prop2"] = prop2.report_dict()
    return payload


def _run_concentration_sweep(cfg: ExperimentConfig) -> dict:
    model = build_model(cfg)
    metric = build_metric(cfg)
    c = cfg.certifier
    m_sweep = c.get("m_sweep", [16, 64, 256])
    t_grid = c.get("t_grid", [0.3])
    reps = c.get("reps", 5)
    draws = c.get("draws", 200)

    pair_cfg = c.get("pair")
    if pair_cfg is not None:
        x = np.asarray(pair_cfg[0], dtype=float)
        x2 = np.asarray(pair_cfg[1], dtype=float)
    else:
        x, x2 = sample_model_points(model, 2, seeding.generator(cfg.master_seed, 50))

    def one(args):
        m, rep = args
        op_cfg = dict(cfg.operator, m=m)
        sub = ExperimentConfig.from_dict({**cfg.to_dict(), "operator": op_cfg})
        return estimate_concentration(
            op_factory=lambda s: build_operator(sub, s),
            pair=(x, x2),
            metric=metric,
            draws=draws,
            t_grid=t_grid,
            rng_seed=seeding.child_seed(cfg.master_seed, 51, m, rep),
        )

    tasks = [(m, rep) for m in m_sweep for rep in range(reps)]
    ests = _map_indexed(lambda k: one(tasks[k]), len(tasks), cfg.workers)
    by_m = {m: [ests[i] for i, (mm, _) in enumerate(tasks) if mm == m] for m in m_sweep}

    per_m = []
    for m in m_sweep:
        group = by_m[m]
        p_median = [float(np.median([e.p_hat[j] for e in group])) for j in range(len(t_grid))]
        c_median = [
            (-np.log(p) if p > 0 else None) for p in p_median
        ]
        per_m.append({
            "m": m,
            "p_hat_median": p_median,
            "c_hat_median": c_median,
            "estimates": [e.report_dict() for e in group],
        })
    slopes = fit_concentration_slope([e for group in by_m.values() for e in group])
    t0 = t_grid[0] if t_grid else None
    payload = {
        "pair": [[float(v) for v in x], [float(v) for v in x2]],
        "t_grid": t_grid,
        "m_sweep": m_sweep,
        "per_m": per_m,
        "slope_fit": slopes,
        "series": {
            "p_hat_vs_m": {
                "columns": ["m", f"p_hat(t={t0})"],
                "rows": [[m, per_m[i]["p_hat_median"][0]] for i, m in enumerate(m_sweep)],
            },
            "c_hat_vs_t": {
                "columns": ["t", "c_hat"],
                "rows": [] if not per_m else [
                    [t_grid[j], per_m[-1]["c_hat_median"][j]] for j in range(len(t_grid))
                ],
            },
        },
    }
    return payload


# Streams each runner derives from the master seed; -1 stands for a draw,
# rep or sweep index.  Some are derived only on some branches (31 when B is
# not given, 41 in anchored mode, 44-45 for the Fourier map, 50 when no pair
# is given).
_SEED_STREAMS = {
    "recommend-m": {},
    "decode": {"model": (10,), "operator": (20,), "signal_and_noise": (21,)},
    "iop-experiment": {"model": (10,), "operator": (30,), "lrip_pairs": (31,), "iop_trials": (32,)},
    "certify": {"model": (10,), "operator_draw_k": (40, -1), "anchor": (41,), "pairs_draw_k": (42, -1),
                "bp_pairs_draw_k": (43, -1), "concentration_pair": (44,), "concentration_draws": (45,)},
    "concentration-sweep": {"model": (10,), "pair": (50,), "concentration_m_rep": (51, -1, -1)},
}


def _seed_streams(cfg: ExperimentConfig) -> dict:
    """The experiment's entry of _SEED_STREAMS, less the model and operator streams a config pins."""
    pinned = set()
    if "seed" in cfg.model or "bases" in cfg.model or cfg.model.get("kind", "random") != "random":
        pinned.add("model")
    if "seed" in cfg.operator:
        pinned.add("operator")
    return {name: path for name, path in _SEED_STREAMS[cfg.experiment].items() if name not in pinned}


# The certifier keys each runner reads, with their types (see _cast); run refuses any other.
_CERTIFIER_KEYS = {
    "recommend-m": {"t": float, "rho_target": float, "c0_m": float},
    "decode": {"model_error_scale": float, "noise_scale": float},
    "iop-experiment": {"B": float, "pairs": int, "eta": float, "near_eps": float, "A": float, "lambda": float,
                       "trials": int, "noise_scale": float, "model_error_scale": float, "uniform_candidates": int},
    "certify": {"anchored": bool, "pairs": int, "eta": float, "near_eps": float, "bp_pairs": int,
                "perturbation_scale": float, "draws": int, "t": float, "alpha_max": float, "beta_max": float,
                "m_sweep": [int], "sweep_draws": int, "c_of_half_t": float, "estimate_concentration": bool,
                "concentration_draws": int, "c0_cover": float},
    "concentration-sweep": {"m_sweep": [int], "t_grid": [float], "reps": int, "draws": int, "pair": [[float]]},
}

_RUNNERS = {
    "recommend-m": _run_recommend_m,
    "decode": _run_decode,
    "iop-experiment": _run_iop,
    "certify": _run_certify,
    "concentration-sweep": _run_concentration_sweep,
}


def run(config: ExperimentConfig) -> Report:
    """Dispatch the configured experiment and assemble the report."""
    kinds = _CERTIFIER_KEYS[config.experiment]
    unknown = set(config.certifier) - set(kinds)
    if unknown:
        raise ConfigError(f"unknown certifier keys for {config.experiment}: {sorted(unknown)}")
    certifier = {key: _cast(kinds[key], value, f"certifier.{key}") for key, value in config.certifier.items()}
    # a median over no draws or reps is NaN, and the series start at the first t of t_grid
    for key in ("draws", "sweep_draws", "reps"):
        if certifier.get(key, 1) < 1:
            raise ConfigError(f"certifier.{key} must be >= 1, got {certifier[key]}")
    if certifier.get("t_grid") == []:
        raise ConfigError("certifier.t_grid must not be empty")
    start = time.perf_counter()
    results = _RUNNERS[config.experiment](replace(config, certifier=certifier))
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


def write_report(report: Report, out_dir, series_names=None) -> dict:
    """Write report.json (and requested CSV series); returns written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    report_path = out / "report.json"
    with open(report_path, "w") as fh:
        json.dump(report.to_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
    paths["report"] = str(report_path)
    for name in series_names or []:
        csv_path = out / f"{name}.csv"
        with open(csv_path, "w") as fh:
            fh.write(emit_plot_data(report, name))
        paths[name] = str(csv_path)
    return paths
