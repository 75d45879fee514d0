"""Golden tests pinning the counter-based seed-derivation scheme.

These values freeze the mixing function: any change breaks replay of
every recorded event log, so a failure here is a compatibility break,
not a bug in the test.
"""

import numpy as np

from bellctx.rng import chunk_generator, derive_stream_seed, mix64

# mix64(0 + 1*GAMMA) is the first output of the reference SplitMix64
# sequence for seed 0.
GOLDEN_SEEDS = {
    (0, 0): 0xE220A8397B1DCDAF,
    (0, 1): 0x6E789E6AA1B965F4,
    (42, 0): 0xBDD732262FEB6E95,
    (42, 1): 0x28EFE333B266F103,
    (42, 2): 0x47526757130F9F52,
    (12345, 0): 0x22118258A9D111A0,
    (2**63, 7): 0x6250485B3CDEFBBD,
}


def test_derived_seeds_match_golden_values():
    for (master, chunk), expected in GOLDEN_SEEDS.items():
        assert derive_stream_seed(master, chunk) == expected


def test_mix64_is_a_64_bit_value():
    for value in (0, 1, 2**64 - 1, 2**64 + 5):
        assert 0 <= mix64(value) < 2**64


def test_negative_chunk_rejected():
    import pytest
    with pytest.raises(ValueError):
        derive_stream_seed(1, -1)


def test_streams_are_deterministic_and_distinct():
    first = chunk_generator(7, 0).random(8)
    again = chunk_generator(7, 0).random(8)
    other_chunk = chunk_generator(7, 1).random(8)
    other_master = chunk_generator(8, 0).random(8)
    assert np.array_equal(first, again)
    assert not np.array_equal(first, other_chunk)
    assert not np.array_equal(first, other_master)
