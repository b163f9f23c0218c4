"""Deterministic, order-independent seed derivation.

All randomness in the package flows through ``numpy.random.Generator``
instances created from ``SeedSequence`` entropy tuples.  Derived streams are
keyed by value (master seed plus context labels such as trial index, method
tag, and "multinomial" or "indices" for a method's bootstrap replicas), never
by call order, so concurrent workers and re-runs produce identical draws.
"""

from __future__ import annotations

from zlib import crc32

import numpy as np

_MASK = (1 << 63) - 1


def seed_parts(seed) -> tuple[int, ...]:
    """Canonicalize a seed into a tuple of nonnegative ints.

    Strings hash via crc32 (stable across platforms and runs); ints are
    masked into the nonnegative range SeedSequence accepts.
    """
    if isinstance(seed, (tuple, list)):
        out: list[int] = []
        for part in seed:
            out.extend(seed_parts(part))
        return tuple(out)
    if isinstance(seed, str):
        return (crc32(seed.encode("utf-8")),)
    return (int(seed) & _MASK,)


def as_generator(seed) -> np.random.Generator:
    """Build a Generator from any seed ``seed_parts`` accepts; Generators pass through as-is."""
    if isinstance(seed, np.random.Generator):
        return seed
    # SeedSequence would split each part into these little-endian uint32 words, more slowly.
    words = []
    for part in seed_parts(seed):
        words.extend((part & 0xFFFFFFFF, part >> 32) if part >> 32 else (part,))
    return np.random.default_rng(np.random.SeedSequence(np.array(words, dtype=np.uint32)))
