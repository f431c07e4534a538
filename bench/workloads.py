"""Benchmark workloads: each is one lrip-lab experiment config built from the workload seed.

The seed of a run is the only input: ``master_seed``, the model seed and the
operator seed are derived from it (iop-fourier excepted, see ``FIXED_SEED``),
and the library sees only the config.  ``check_results`` holds the output
checks every experiment of a run must pass.
"""

from __future__ import annotations

import math

import numpy as np

CERTIFY_DRAWS = 2
IOP_FOURIER_TRIALS = 3
IOP_LINEAR_TRIALS = 250


def _certify(seeds: dict, anchored: bool) -> dict:
    return {
        "experiment": "certify",
        "master_seed": seeds["master_seed"],
        "workers": 2,
        "model": {"d": 20, "s": 2, "N": 5, "M": 1.0, "seed": seeds["model_seed"]},
        "operator": {"kind": "random-fourier", "m": 55, "sigma": 1.0},
        "metric": {"kind": "gaussian-kernel", "sigma": 1.0},
        "certifier": {
            "draws": CERTIFY_DRAWS,
            "pairs": 10000,
            "bp_pairs": 10000,
            "anchored": anchored,
            "near_eps": 0.1,
            "t": 0.5,
            "estimate_concentration": True,
            "concentration_draws": 200,
            "c0_cover": 3.0,
        },
    }


def _iop_fourier(seeds: dict) -> dict:
    return {
        "experiment": "iop-experiment",
        "master_seed": seeds["master_seed"],
        "model": {"d": 4, "s": 2, "N": 3, "M": 1.0, "seed": seeds["model_seed"]},
        "operator": {"kind": "random-fourier", "m": 48, "sigma": 1.0, "seed": seeds["operator_seed"]},
        "metric": {"kind": "gaussian-kernel", "sigma": 1.0},
        # resolution 5e-3, not the default 1e-3: at 1e-3 the oracle grid has
        # about 3.1M points per subspace and its intermediates need several GB.
        "decoder": {"restarts": 8, "max_iters": 500,
                    "grid_oracle": {"enabled": True, "resolution": 5e-3}},
        "certifier": {
            "trials": IOP_FOURIER_TRIALS,
            "noise_scale": 0.05,
            "model_error_scale": 0.3,
            "pairs": 1000,
            "uniform_candidates": 64,
        },
    }


def _iop_linear(seeds: dict) -> dict:
    # the configs/iop_linear.json instance with more trials
    return {
        "experiment": "iop-experiment",
        "master_seed": seeds["master_seed"],
        "model": {"d": 3, "s": 1, "N": 3, "M": 1.0, "seed": seeds["model_seed"]},
        "operator": {"kind": "linear-gaussian", "m": 3, "seed": seeds["operator_seed"]},
        "metric": {"kind": "euclidean"},
        "certifier": {
            "trials": IOP_LINEAR_TRIALS,
            "noise_scale": 0.1,
            "model_error_scale": 0.3,
            "pairs": 1000,
            "uniform_candidates": 64,
        },
    }


# name -> (why, config builder); the order fixes each workload's seed stream.
WORKLOADS = {
    "certify-anchored": (
        "the random-feature gap kernel does most of the work, the near sampler takes its "
        "batched path, and the two-thread pool shows its only real gain",
        lambda seeds: _certify(seeds, anchored=True),
    ),
    "certify-uniform": (
        "the same instance unanchored: the per-pair near-sampler loop dominates and the kernel "
        "is under 10%, so a sampler change shows here and a kernel change does not",
        lambda seeds: _certify(seeds, anchored=False),
    ),
    "iop-fourier": (
        "the only workload that runs Gauss-Newton decoding and the grid residual certificate, "
        "both large and single-threaded; one fixed instance, as its time varies too much by seed",
        _iop_fourier,
    ),
    "iop-linear": (
        "the only workload on the linear operator and exact decoder; its cost is per-call "
        "Python overhead, the opposite of the batched kernels",
        _iop_linear,
    ),
}


# iop-fourier runs one instance whatever the benchmark seed: its time depends
# on how many decodes converge, and across seeds that moved one experiment's
# wall time by -33%..+45% at 10 trials, more than any bound the benchmark may set.
FIXED_SEED = {"iop-fourier": 0}


def derive_seeds(name: str, seed: int) -> dict:
    """master, model and operator seeds of a workload at a benchmark seed."""
    stream = list(WORKLOADS).index(name)
    master, model, operator = np.random.SeedSequence([int(seed), stream]).generate_state(3)
    return {"master_seed": int(master), "model_seed": int(model), "operator_seed": int(operator)}


def build_config(name: str, seed: int) -> tuple[dict, dict]:
    """(config dict, derived seeds) of a workload at a benchmark seed."""
    seeds = derive_seeds(name, FIXED_SEED.get(name, seed))
    return WORKLOADS[name][1](seeds), seeds


def check_results(config: dict, results: dict) -> list[str]:
    """Problems with one experiment's results payload; empty when it passes."""
    problems = []
    if config["experiment"] == "certify":
        draws = config["certifier"]["draws"]
        for key in ("alpha_hat", "beta_hat"):
            values = results.get(key, [])
            if len(values) != draws:
                problems.append(f"{key} has {len(values)} entries for {draws} draws")
            if not all(isinstance(v, float) and math.isfinite(v) for v in values):
                problems.append(f"{key} is not finite: {values}")
    else:
        trials = config["certifier"]["trials"]
        if results.get("trials") != trials:
            problems.append(f"{results.get('trials')} trials reported for {trials} configured")
        satisfied = results.get("satisfied")
        if not isinstance(satisfied, int) or not 0 <= satisfied <= results.get("trials", 0):
            problems.append(f"satisfied={satisfied} is outside [0, trials]")
        alpha = (results.get("lrip_estimate") or {}).get("constants", {}).get("alpha_hat")
        if not (isinstance(alpha, float) and math.isfinite(alpha)):
            problems.append(f"alpha_hat of the LRIP estimate is not finite: {alpha}")
    return problems
