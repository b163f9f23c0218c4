"""Seed derivation: generators built from seed parts."""

import numpy as np
import pytest

from opeci.seeding import as_generator, seed_parts


@pytest.mark.parametrize("seed", [
    0,
    (0, 0, "x", 0),
    2**32,
    (2**32 - 1, 2**32, 2**40 + 5, 2**63 - 1),
    2**70 + 3,
    -1,
    (-7, "dm-boot", 3),
    "interval",
    ("interval", 20240817, 3_735_928_559, 10, 3, "dm-boot", 999),
])
def test_generator_draws_the_seed_sequence_stream(seed):
    # as_generator hands SeedSequence the parts' uint32 words; the stream
    # must stay the one SeedSequence draws from the parts themselves.
    expected = np.random.default_rng(np.random.SeedSequence(seed_parts(seed)))
    rng = as_generator(seed)
    assert rng.integers(0, 2**62, size=64).tolist() == expected.integers(0, 2**62, size=64).tolist()
    assert rng.random(8).tolist() == expected.random(8).tolist()


def test_generator_passes_through():
    rng = np.random.default_rng(1)
    assert as_generator(rng) is rng
