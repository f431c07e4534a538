"""Closed-loop measurement of one workload through ``lrip_lab.harness.run``.

One client: the next experiment starts when the previous one returns, all in
this process.  Every experiment is checked (``workloads.check_results``, and
its results bytes must equal those of the run's first experiment); one that
raises or fails a check counts as failed.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
from lrip_lab import harness

import spans
import workloads

SETUP_PROBES = 11

# (span name, stats) reported from the traced experiment; each stat is
# "calls", "self_s" (summed over calls) or a percentile of the span duration.
SPAN_STATS = (
    ("operators.apply_batch", ("calls", "self_s")),
    ("operators.apply", ("calls", "self_s")),
    ("operators.jacobian", ("calls", "self_s")),
    ("certifier.estimate_lrip", ("calls", "self_s")),
    ("certifier.estimate_bp", ("self_s",)),
    ("certifier.estimate_concentration", ("self_s",)),
    ("certifier.check_iop_inequality", ("self_s",)),
    ("spaces.dist", ("calls", "self_s")),
    ("spaces.dist_batch", ("calls", "self_s")),
    ("spaces.dist_pairs", ("self_s",)),
    ("spaces.meas_norm", ("calls", "self_s")),
    ("models.sample_model_points", ("calls", "self_s")),
    ("models.project_to_model", ("calls", "self_s")),
    ("harness.build_operator", ("calls", "self_s")),
    ("decoder.decode_nonlinear", ("calls", "self_s", "p50_ms", "max_ms")),
    ("decoder.decode_linear", ("calls", "self_s")),
    ("decoder.residual_certificate", ("calls", "self_s")),
    ("decoder.grid_minimum", ("calls", "self_s")),
)
# counters summed by the span hooks in spans.HOOKS
COUNTERS = (
    "operators.apply_batch.features",
    "decoder.grid_minimum.points",
    "decoder.gn_iters",
    "certifier.pairs_tested",
    "certifier.near_fallback",
)

UNITS = {"calls": "count", "self_s": "s", "p50_ms": "ms", "max_ms": "ms"}


class Run:
    """The experiments of one benchmark run; each counts toward attempted and failed."""

    def __init__(self, config: dict):
        self.config_dict = config
        self.config = harness.ExperimentConfig.from_dict(config)
        self.sha256 = None
        self.results = None
        self.attempted = 0
        self.failures: list[str] = []

    def experiment(self, config: harness.ExperimentConfig | None = None) -> tuple[float, float, bool]:
        """Run and check one experiment; returns (wall s, process CPU s, passed)."""
        self.attempted += 1
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            report = harness.run(config or self.config)
        except Exception:  # a raising experiment is a counted failure, not the end of the run
            self.failures.append(traceback.format_exc(limit=3))
            return time.perf_counter() - t0, time.process_time() - cpu0, False
        wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        sha = hashlib.sha256(report.results_bytes()).hexdigest()
        problems = workloads.check_results(self.config_dict, report.results)
        if self.sha256 is None:
            self.sha256, self.results = sha, report.results
        elif sha != self.sha256:
            problems.append(f"results sha256 {sha} differs from the first experiment's {self.sha256}")
        if problems:
            self.failures.append("; ".join(problems))
        return wall, cpu, not problems

    def loop(self, seconds: float, config: harness.ExperimentConfig | None = None) -> list[tuple[float, float]]:
        """Closed loop of experiments for about ``seconds``, at least one.

        Stops before an experiment that would likely end after the deadline.
        Returns (wall, cpu) of the experiments that passed.
        """
        done, durations = [], []
        start = time.perf_counter()
        while True:
            wall, cpu, ok = self.experiment(config)
            durations.append(wall)
            if ok:
                done.append((wall, cpu))
            if time.perf_counter() - start + statistics.median(durations) > seconds:
                return done

    def with_workers(self, workers: int) -> harness.ExperimentConfig:
        return harness.ExperimentConfig.from_dict({**self.config_dict, "workers": workers})

    @property
    def failed(self) -> int:
        return len(self.failures)


def setup_seconds(src: Path, config: dict, probes: int = SETUP_PROBES) -> list[float]:
    """Set-up time of ``probes`` fresh processes, each timed from its first statement."""
    probe = Path(__file__).with_name("setup_probe.py")
    times = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(probe), str(src), json.dumps(config)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    """What the numbers depend on besides the code: cores, versions, thread pins."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        **{var: value for var, value in sorted(os.environ.items()) if var.endswith("_NUM_THREADS")},
    }


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """The highest of p99/p95/p90/p75 with at least ten samples beyond it, if any."""
    for q in (99, 95, 90, 75):
        if len(samples) * (100 - q) / 100 >= 10:
            return q, float(np.percentile(samples, q))
    return None


def traced_experiment(run: Run) -> tuple[spans.Tracer, float]:
    """One experiment with every public lrip_lab callable wrapped in spans."""
    tracer = spans.Tracer()
    with tracer:
        wall, _, _ = run.experiment()
    return tracer, wall


def layer_metrics(tracer: spans.Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced experiment: name -> (value, unit)."""
    by_span, counts = tracer.summary()
    out = {}
    for name, stats in SPAN_STATS:
        entry = by_span.get(name, {"calls": 0, "self_s": 0.0, "durations": []})
        for stat in stats:
            if stat in ("calls", "self_s"):
                value = entry[stat]
            else:
                q = 50 if stat == "p50_ms" else 100
                value = 1e3 * float(np.percentile(entry["durations"], q)) if entry["durations"] else 0.0
            out[f"{name}.{stat}"] = (value, UNITS[stat])
    for key in COUNTERS:
        out[key] = (counts.get(key, 0), "count")
    decodes = by_span.get("decoder.decode_nonlinear", {}).get("calls", 0)
    out["decoder.converged_share"] = (counts.get("decoder.converged", 0) / decodes if decodes else 0.0, "ratio")
    trials = counts.get("certifier.iop_trials", 0)
    out["iop_satisfied_share"] = (counts.get("certifier.iop_satisfied", 0) / trials if trials else 0.0, "ratio")
    return out


def timing_metrics(traced_wall: float, untraced: list, single: list) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from (wall, cpu) of untraced experiments at the configured and at one worker."""
    base_s = statistics.median(wall for wall, _ in untraced)
    return {
        "harness.run.cpu_per_wall": (sum(c for _, c in untraced) / sum(w for w, _ in untraced), "ratio"),
        "harness.workers_speedup": (statistics.median(wall for wall, _ in single) / base_s, "ratio"),
        "trace.overhead_s": (traced_wall - base_s, "s"),
    }
