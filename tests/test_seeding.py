from pathlib import Path

import numpy as np
import pytest

from lrip_lab import seeding

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
