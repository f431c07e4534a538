"""Print sha256(results_bytes())[:8] of every shipped config and of every benchmark workload.

Usage, from any directory:

    python scripts/results_hashes.py [--seeds 7 101]

Each config under configs/ runs without its output section, so no report is
written.  Each workload of bench/workloads.py runs at every seed given; that
module is only imported, without writing its bytecode cache.  The library is
the one in this checkout's src/, so two checkouts can be compared line by
line.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from lrip_lab import harness  # noqa: E402


def results_hash(config: dict) -> str:
    report = harness.run(harness.ExperimentConfig.from_dict(config))
    return hashlib.sha256(report.results_bytes()).hexdigest()[:8]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[7, 101], help="benchmark seeds of the workloads")
    args = parser.parse_args(argv)
    for path in sorted((ROOT / "configs").glob("*.json")):
        config = harness.read_config(path)
        config.pop("output", None)
        print(f"{path.stem}\t{results_hash(config)}", flush=True)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    for name in workloads.WORKLOADS:
        hashes = [results_hash(workloads.build_config(name, seed)[0]) for seed in args.seeds]
        print(f"{name} (seeds {' / '.join(map(str, args.seeds))})\t{' / '.join(hashes)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
