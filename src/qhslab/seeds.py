"""Deterministic random streams derived from a single root seed.

Every stochastic step in a run draws from a generator produced by
:func:`derive`. The splitting scheme is a fixed counter path fed to
``numpy.random.SeedSequence`` as its spawn key, so the protocol (which
stream feeds which step) is reproducible across machines and the bit
streams are reproducible within one numpy version.
"""
from __future__ import annotations

import numpy as np

# spawn-path tags, one per purpose
SAMPLE_DRAW = 0
WEAK_LEARNER = 1
SWEEP_CELL = 2
VERIFY = 3


def _sequence(root_seed: int, path) -> np.random.SeedSequence:
    return np.random.SeedSequence(
        entropy=int(root_seed) & (2**64 - 1),
        spawn_key=tuple(int(p) for p in path),
    )


def derive(root_seed: int, *path: int) -> np.random.Generator:
    """PCG64 generator for the given purpose path under ``root_seed``."""
    return np.random.Generator(np.random.PCG64(_sequence(root_seed, path)))


def derive_int(root_seed: int, *path: int) -> int:
    """A single derived 64-bit integer, for seeding nested runs."""
    ss = _sequence(root_seed, path)
    return int(ss.generate_state(2, dtype=np.uint32).view(np.uint64)[0])
