"""Set-up of a fresh process: import lrip_lab, validate a workload config, build its model.

Usage: python3 setup_probe.py <src-dir> <config-json>
Prints the seconds from the first statement to the built model.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    sys.path.insert(0, sys.argv[1])
    from lrip_lab import harness

    config = harness.ExperimentConfig.from_dict(json.loads(sys.argv[2]))
    harness.build_model(config)
    print(repr(time.perf_counter() - START))
    return 0


if __name__ == "__main__":
    sys.exit(main())
