"""Command-line entry point: ``lrip-lab <experiment> --config <path> [--seed N] [--out DIR]``.

Exit codes: 0 success, 2 configuration or input error, 3 numeric failure,
4 unwritable output path.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigError, InputError
from .harness import EXPERIMENTS, ExperimentConfig, read_config, run, write_report

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_OUTPUT = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrip-lab",
        description="Run certification, decoding, and concentration experiments "
        "for instance-optimal decoding under a lower restricted isometry property.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS, help="experiment to run")
    parser.add_argument("--config", required=True, help="path to a JSON experiment config")
    parser.add_argument("--seed", type=int, default=None, help="override the master seed")
    parser.add_argument("--out", default=None, help="override the output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        obj = read_config(args.config)
        obj["experiment"] = args.experiment
        if args.seed is not None:
            obj["master_seed"] = args.seed
        output = obj.get("output", {})
        if args.out is not None and isinstance(output, dict):
            obj["output"] = {**output, "dir": args.out}
        config = ExperimentConfig.from_dict(obj)
        report = run(config)
        paths = write_report(report, config.output["dir"], config.output["series"]) if config.output["dir"] else None
    except (ConfigError, InputError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FloatingPointError, ZeroDivisionError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"unwritable output path: {exc}", file=sys.stderr)
        return EXIT_OUTPUT
    print(f"wrote {paths['report']}" if paths else
          json.dumps(report.to_dict(), sort_keys=True, indent=2, allow_nan=False))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
