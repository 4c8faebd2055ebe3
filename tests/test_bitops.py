"""The shared bitmask helpers, against their per-bit definitions."""

import random

import pytest

from boolrep.bitops import transpose


def transpose_by_bits(masks, width):
    return [
        sum((masks[i] >> j & 1) << i for i in range(len(masks))) for j in range(width)
    ]


@pytest.mark.parametrize("width", [0, 1, 63, 64, 65, 200])
def test_transpose_matches_the_per_bit_definition(width):
    rng = random.Random(width)
    assert transpose([], width) == [0] * width
    full = (1 << width) - 1
    cases = [[0], [full], [0, full, 0], [1 << j for j in range(width)]]
    cases += [[rng.getrandbits(width) for _ in range(rng.randrange(1, 90))] for _ in range(20)]
    for masks in cases:
        assert transpose(masks, width) == transpose_by_bits(masks, width)
        assert transpose(tuple(masks), width) == transpose_by_bits(masks, width)
