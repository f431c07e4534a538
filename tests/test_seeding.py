from pathlib import Path

import numpy as np
import pytest

from lrip_lab import InputError, seeding

SRC = Path(seeding.__file__).resolve().parent


@pytest.mark.parametrize("master, path", [
    (0, (10,)), (7, (40, 3)), (123456789, (51, 64, 2)), (2**40 + 5, (32,)), (3, ()),
])
def test_child_seed_equals_former_idioms(master, path):
    seed = seeding.child_seed(master, *path)
    assert isinstance(seed, int)
    assert seed == int(seeding.derive(master, *path).generate_state(1)[0])
    if len(path) == 1:
        # estimate_concentration drew its operator seeds from SeedSequence(master).spawn(draws)
        spawned = np.random.SeedSequence(master).spawn(path[0] + 1)[path[0]]
        assert seed == int(spawned.generate_state(1)[0])


def test_seed_idiom_lives_only_in_seeding():
    copies = [p.name for p in sorted(SRC.glob("*.py"))
              if p.name != "seeding.py" and "generate_state(" in p.read_text()]
    assert copies == []


MASTERS = [0, 2**32 - 1, 2**32, 2**64 + 5, 2**127 + 1, 2**160 + 9]  # one to four 32-bit words, then six
PREFIXES = [(), (2,), (2**40, 3), (51, 2**96 + 1)]  # the last two with multi-word entries


@pytest.mark.parametrize("prefix", PREFIXES, ids=str)
@pytest.mark.parametrize("master", MASTERS)
def test_kernel_states_equal_numpys(master, prefix):
    ks = np.arange(70)
    states = [rng.bit_generator.state for rng in seeding.generators(master, *prefix, ks)]
    assert states == [seeding.generator(master, *prefix, int(k)).bit_generator.state for k in ks]
    assert seeding.child_seeds(master, *prefix, ks).tolist() == [seeding.child_seed(master, *prefix, int(k))
                                                                  for k in ks]


def test_kernel_states_across_blocks(monkeypatch):
    monkeypatch.setattr(seeding, "_BLOCK", 7)
    ks = np.arange(20)
    states = [rng.bit_generator.state for rng in seeding.generators(11, 2, ks)]
    assert states == [seeding.generator(11, 2, int(k)).bit_generator.state for k in ks]


def test_kernel_column_in_master_position_is_default_rng():
    # estimate_concentration's second layer: np.random.default_rng(child) for a column of 32-bit child seeds
    seeds = np.concatenate([seeding.child_seeds(3, np.arange(100)), [0, 1, 2**32 - 1]])
    states = [rng.bit_generator.state for rng in seeding.generators(seeds)]
    assert states == [np.random.default_rng(int(s)).bit_generator.state for s in seeds]


def draws(rng) -> list:
    # an int32 draw first takes a 64-bit word and keeps its other half buffered (has_uint32, uinteger)
    return [rng.integers(0, 10, size=3, dtype=np.int32).tolist(), rng.normal(), rng.random(),
            rng.integers(0, 2**40), rng.normal(size=4).tobytes()]


def test_first_draws_after_each_assignment_equal_numpys():
    ks = np.arange(2**32 - 40, 2**32)
    got = [draws(rng) for rng in seeding.generators(7, 2, ks)]
    assert got == [draws(seeding.generator(7, 2, int(k))) for k in ks]


def test_two_kernel_calls_do_not_share_a_generator():
    ks = np.arange(20)
    got = [(draws(a), draws(b)) for a, b in zip(seeding.generators(1, 2, ks), seeding.generators(5, 2, ks))]
    assert got == [(draws(seeding.generator(1, 2, int(k))), draws(seeding.generator(5, 2, int(k)))) for k in ks]


@pytest.mark.parametrize("args", [
    (7, 2, np.array([2**32])),  # a column entry past one word
    (7, 2, np.array([-1])),
    (7, 2, np.array([0.5])),
    (7, 2, np.zeros((2, 2), dtype=int)),
    (-1, 2, np.arange(3)),
    (7, 2, 3),  # no column
    (np.arange(3), 2, np.arange(3)),  # two columns
], ids=["past-32-bits", "negative", "float", "2-d", "negative-master", "no-column", "two-columns"])
def test_kernel_refuses_what_it_cannot_derive(args):
    with pytest.raises(InputError):
        next(seeding.generators(*args))
    with pytest.raises(InputError):
        seeding.child_seeds(*args)
