"""Deterministic seed derivation.

Every random quantity in the library is keyed by an explicit seed.  Parallel
or repeated trials derive child seeds from a master seed through a
counter-based scheme so that results are identical for a fixed master seed
regardless of execution order or worker count:

    child = SeedSequence(master_seed, spawn_key=(k1, k2, ...))

where the spawn key is the trial's position in the experiment tree, e.g.
``(stream, trial_index)``.  Streams are small fixed integers naming the
consumer (operator draws, pair sampling, noise, ...).
"""

from __future__ import annotations

import numpy as np

SCHEME = "numpy.random.SeedSequence(master_seed, spawn_key=path)"


def derive(master_seed: int, *path: int) -> np.random.SeedSequence:
    """Child seed sequence for the given position in the experiment tree."""
    return np.random.SeedSequence(master_seed, spawn_key=tuple(int(p) for p in path))


def child_seed(master_seed: int, *path: int) -> int:
    """Integer seed at the given position, for consumers that take an int seed."""
    return int(derive(master_seed, *path).generate_state(1)[0])


def generator(master_seed: int, *path: int) -> np.random.Generator:
    """PCG64 generator seeded at the given position."""
    return np.random.Generator(np.random.PCG64(derive(master_seed, *path)))


def lineage(master_seed: int, streams: dict[str, tuple[int, ...]]) -> dict:
    """Self-describing record of the derivation, embedded in reports."""
    return {
        "master_seed": int(master_seed),
        "scheme": SCHEME,
        "streams": {name: list(path) for name, path in streams.items()},
    }
