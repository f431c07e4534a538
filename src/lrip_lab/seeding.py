"""Deterministic seed derivation.

Every random quantity in the library is keyed by an explicit seed.  Parallel
or repeated trials derive child seeds from a master seed through a
counter-based scheme so that results are identical for a fixed master seed
regardless of execution order or worker count:

    child = SeedSequence(master_seed, spawn_key=(k1, k2, ...))

where the spawn key is the trial's position in the experiment tree, e.g.
``(stream, trial_index)``.  Streams are small fixed integers naming the
consumer (operator draws, pair sampling, noise, ...).

``derive``, ``child_seed`` and ``generator`` build numpy's objects for one
position and are the reference.  ``child_seeds`` and ``generators`` implement
the same SCHEME for a column of positions at once, with bitwise the same
seeds and PCG64 states: one position entry is a 1-D array of 32-bit values,
and ``_pool`` runs SeedSequence's entropy mixing (hashmix and mix on uint32
words, pool size 4) over that column in numpy arrays.  ``generators`` then
finishes each stream's 128-bit PCG64 ``srandom`` step with Python ints and
assigns the state to one reused Generator.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError

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


# numpy's SeedSequence and PCG64 constants (numpy/random/bit_generator.pyx and pcg64.h)
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341
_BLOCK = 4096  # streams whose state words are Python ints at once, out of a long column

# A word is a Python int or a uint32 array.  Every product is masked to 32 bits, so an int word stays below 2^32
# and may meet an array word; arrays wrap silently, and no numpy uint32 scalar, which warns on overflow, is formed.


def _hash(value, h: int, mult: int):
    """SeedSequence's hash step of value under the running constant h: the hashed value and the next h."""
    value = value ^ h  # not ^=, which would change a caller's array in place
    h = h * mult & _MASK32
    value = value * h & _MASK32
    return value ^ value >> 16, h


def _mix(x, y):
    """SeedSequence's mix of pool word x with hashed word y."""
    result = ((_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32)) & _MASK32
    return result ^ result >> 16


def _words(entry) -> list:
    """The uint32 words numpy makes of one seed entry: an int's little-endian words ([0] for 0), or one column."""
    if isinstance(entry, (int, np.integer)):
        value, words = int(entry), []
        if value < 0:
            raise InputError(f"seed entries must be nonnegative, got {value}")
        while True:
            words.append(value & _MASK32)
            value >>= 32
            if not value:
                return words
    col = np.asarray(entry)
    if col.ndim != 1 or col.dtype.kind not in "iu" or np.any(col < 0) or np.any(col > _MASK32):
        raise InputError("a column of positions must be a 1-D integer array with entries in [0, 2^32)")
    return [col.astype(np.uint32)]


def _pool(master_seed, path) -> list:
    """The 4-word entropy pool of SeedSequence(master_seed, spawn_key=path), word by word.

    One of master_seed and path may be a column; the pool words are then
    columns too.  The master seed's words are padded with zeros to the pool
    size, as numpy pads them under a spawn key; without one the padding
    hashes the same words numpy's loop hashes past the end of the entropy.
    """
    master = _words(master_seed)
    entropy = master + [0] * (_POOL_SIZE - len(master)) + [w for p in path for w in _words(p)]
    pool, h = [], _INIT_A
    for word in entropy[:_POOL_SIZE]:
        word, h = _hash(word, h, _MULT_A)
        pool.append(word)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                word, h = _hash(pool[src], h, _MULT_A)
                pool[dst] = _mix(pool[dst], word)
    for extra in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            word, h = _hash(extra, h, _MULT_A)
            pool[dst] = _mix(pool[dst], word)
    return pool


def _generate_state(pool, n_words: int) -> list:
    """SeedSequence.generate_state(n_words) of the pool, word by word."""
    out, h = [], _INIT_B
    for i in range(n_words):
        word, h = _hash(pool[i % _POOL_SIZE], h, _MULT_B)
        out.append(word)
    return out


def _check_one_column(master_seed, path):
    if sum(not isinstance(e, (int, np.integer)) for e in (master_seed, *path)) != 1:
        raise InputError("exactly one of master_seed and path must be a column of positions")


def child_seeds(master_seed, *path) -> np.ndarray:
    """child_seed at each position of the one column among master_seed and path, as a uint32 array."""
    _check_one_column(master_seed, path)
    return _generate_state(_pool(master_seed, path), 1)[0]


def generators(master_seed, *path):
    """generator(master_seed, *path) at each position of the one column among master_seed and path, in order.

    The states are derived at the call; the iterator then gives one
    Generator, local to the call, with each position's PCG64 state assigned
    in turn (has_uint32 and uinteger reset, as a new PCG64 has them): use
    each before taking the next.  PCG64 seeds from
    generate_state(4, uint64), words (seed_hi, seed_lo, inc_hi, inc_lo), and
    its srandom step is inc = 2 inc' + 1, state = (inc + seed) * MULT + inc,
    both mod 2^128.
    """
    _check_one_column(master_seed, path)
    return _assigned(np.stack(_generate_state(_pool(master_seed, path), 8), axis=1).astype("<u4").view("<u8"))


def _assigned(quads):
    """One Generator with the PCG64 state seeded from each row of quads, (n, 4) uint64 words, assigned in turn."""
    rng = np.random.Generator(np.random.PCG64(0))
    for block in range(0, len(quads), _BLOCK):
        for seed_hi, seed_lo, inc_hi, inc_lo in quads[block:block + _BLOCK].tolist():
            inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
            state = ((inc + (seed_hi << 64 | seed_lo)) * _PCG64_MULT + inc) & _MASK128
            rng.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                                       "has_uint32": 0, "uinteger": 0}
            yield rng


def lineage(master_seed: int, streams: dict[str, tuple[int, ...]]) -> dict:
    """Self-describing record of the derivation, embedded in reports."""
    return {
        "master_seed": int(master_seed),
        "scheme": SCHEME,
        "streams": {name: list(path) for name, path in streams.items()},
    }
