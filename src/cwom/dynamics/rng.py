"""Reproducible per-trajectory random streams.

Streams are counter-based (Philox) and keyed by (base seed, trajectory
index), so each ensemble member's stream depends only on those two
numbers, not on the members run before it, and replays bit-identically.
"""

import numpy as np

MAX_SEED = 2**64 - 1  # one uint64 word of the Philox key


def trajectory_generator(base_seed: int, index: int = 0) -> np.random.Generator:
    """Independent generator for trajectory ``index`` of ensemble ``base_seed``."""
    if not (0 <= base_seed <= MAX_SEED and 0 <= index <= MAX_SEED):
        raise ValueError("seed and trajectory index must be in [0, 2**64 - 1]")
    key = np.array([base_seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
