"""lrip-lab benchmark: one workload, measured for a fixed time, one JSON result line.

Run from the repository root:

    python3 bench/run.py --workload certify-anchored --seed 1 --seconds 25 --trace 0

The workload config is built from ``--seed`` (see workloads.py) and run
through ``lrip_lab.harness.run`` in a closed loop with one client, in this
process, with BLAS and OpenMP pinned to one thread.  Every experiment's
output is checked.

``--trace 0`` reports the end-to-end metrics: set-up time of a fresh process,
the median experiment wall time, and peak resident memory.  ``--trace 1``
reports per-layer metrics: it times untraced experiments (and, when the
config uses a thread pool, the same config at workers=1), then runs one
experiment with spans around every public lrip_lab callable.

Human-readable lines come first; the last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Records and spans go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def emit(run, metrics: dict) -> None:
    for failure in run.failures:
        print(f"# failed experiment: {failure.strip()}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def end_to_end(name, seed, seconds, config, seeds) -> int:
    import measure

    setup = measure.setup_seconds(SRC, config)
    run = measure.Run(config)
    timed = run.loop(seconds)
    if run.config.workers > 1:
        # criterion 7e: the results payload must not depend on the worker count
        run.experiment(run.with_workers(1))
    rss = measure.peak_rss_mb()
    walls = [wall for wall, _ in timed]
    if not walls:
        emit(run, {})
        return 1
    experiment_s = statistics.median(walls)
    tail = measure.tail_percentile(walls)
    tail_text = f", p{tail[0]} {tail[1]:.4f} s" if tail else ""
    print(f"setup_s       {statistics.median(setup):.4f} s      median of {len(setup)} fresh processes")
    print(f"experiment_s  {experiment_s:.4f} s      median of {len(walls)} experiments{tail_text}")
    print(f"peak_rss_mb   {rss:.1f} MB")
    print(f"failed_share  {run.failed / run.attempted:.4f} ratio  {run.failed} of {run.attempted} experiments")
    if "satisfied" in (run.results or {}):
        sat, trials = run.results["satisfied"], run.results["trials"]
        print(f"iop_satisfied_share {sat / trials:.4f} ratio  {sat} of {trials} trials")
    values = {"setup_s": setup, "experiment_s": walls, "peak_rss_mb": rss}
    record(name, seed, 0, config, seeds, run, values, measure.environment())
    emit(run, {
        "setup_s": (statistics.median(setup), "s"),
        "experiment_s": (experiment_s, "s"),
        "peak_rss_mb": (rss, "MB"),
    })
    return 0


def per_layer(name, seed, seconds, config, seeds) -> int:
    import measure

    run = measure.Run(config)
    base = run.loop(seconds / 2)
    if run.config.workers > 1:
        single = run.loop(seconds / 2, run.with_workers(1))
    else:
        single = base  # the config has no parallel path to compare
    tracer, traced_wall = measure.traced_experiment(run)
    if not base or not single:
        emit(run, {})
        return 1
    metrics = {**measure.layer_metrics(tracer), **measure.timing_metrics(traced_wall, base, single)}
    base_s = statistics.median(wall for wall, _ in base)

    by_span, _ = tracer.summary()
    print(f"traced experiment {traced_wall:.3f} s, untraced median {base_s:.3f} s "
          f"({len(base)} experiments), {tracer.span_count()} spans")
    print("largest self times, as a share of the traced experiment's wall time "
          "(harness.run's self time includes waiting for its worker threads):")
    for span, entry in sorted(by_span.items(), key=lambda kv: -kv[1]["self_s"])[:10]:
        print(f"  {span:36s} {entry['self_s']:9.4f} s  {entry['self_s'] / traced_wall:6.1%}"
              f"  {entry['calls']} calls")
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"spans-{name}-seed{seed}.npz")
    values = {key: value for key, (value, _) in metrics.items()}
    record(name, seed, 1, config, seeds, run, values, measure.environment())
    emit(run, metrics)
    return 0


def record(name, seed, trace, config, seeds, run, values, env: dict) -> None:
    """Keep what a later comparison needs: seeds, results hash, environment, raw values."""
    rec = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "derived_seeds": seeds,
        "results_sha256": run.sha256,
        "environment": env,
        "config": config,
        "values": values,
        "attempted": run.attempted,
        "failed": run.failed,
    }
    print(f"# derived seeds {json.dumps(seeds)}  results sha256 {run.sha256}")
    print(f"# environment {json.dumps(env)}")
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"record-{name}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump(rec, fh, indent=1)


def main(argv=None) -> int:
    args = parse_args(argv)
    # One BLAS thread, set before numpy loads here and inherited by the set-up
    # probes, so that the harness's worker threads are the only parallelism.
    # lrip_lab, measure and workloads load numpy, so they are imported after this.
    for var in THREAD_ENV:
        os.environ[var] = "1"
    if not (SRC / "lrip_lab" / "__init__.py").is_file():
        print(f"no lrip_lab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lrip_lab

    if Path(lrip_lab.__file__).resolve().parent != SRC / "lrip_lab":
        print(f"lrip_lab imported from {lrip_lab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {list(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    config, seeds = workloads.build_config(args.workload, args.seed)
    print(f"# workload {args.workload} seed {args.seed}: closed loop, one client, "
          f"workers={config.get('workers', 1)}, {args.seconds:g} s")
    step = per_layer if args.trace else end_to_end
    return step(args.workload, args.seed, args.seconds, config, seeds)


if __name__ == "__main__":
    sys.exit(main())
