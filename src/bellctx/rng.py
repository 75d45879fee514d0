"""Counter-based seed derivation for reproducible, parallel Monte Carlo.

Every chunk of trials gets its own PCG64 stream whose seed is a pure
function of (master_seed, chunk_id), so chunks may be generated in any
order, on any number of workers, and still produce identical output.

The mixing function is the SplitMix64 finalizer applied to
``master_seed + (chunk_id + 1) * GAMMA`` (all arithmetic mod 2^64),
where GAMMA is the 64-bit golden-ratio increment. The exact values are
frozen by golden tests; changing them is a breaking change to every
recorded event log.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

GAMMA = 0x9E3779B97F4A7C15


def mix64(value: int) -> int:
    """SplitMix64 finalizer: avalanching 64-bit hash of a 64-bit value."""
    z = value & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_stream_seed(master_seed: int, chunk_id: int) -> int:
    """Seed for the chunk's RNG stream; independent of all other chunks."""
    if chunk_id < 0:
        raise ValueError(f"chunk_id must be non-negative, got {chunk_id}")
    return mix64((master_seed + (chunk_id + 1) * GAMMA) & _MASK64)


def chunk_generator(master_seed: int, chunk_id: int) -> np.random.Generator:
    """Fresh PCG64 generator for one (master_seed, chunk_id) pair."""
    return np.random.Generator(np.random.PCG64(derive_stream_seed(master_seed, chunk_id)))
