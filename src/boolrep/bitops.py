"""Tiny bitmask helpers shared across modules."""

from itertools import repeat


def bits(mask: int):
    """Yield the set bit positions of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices) -> int:
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def transpose(masks, width: int) -> list[int]:
    """The bit matrix read the other way: bit i of result j is bit j of
    masks[i], for each j below width.  Every mask must be below 1 << width.

    The masks are written as width-bit strings, highest position first and
    the last mask first, end to end, after width zeros that stand for one
    more mask, 0, past the last (so an empty sequence reads as 0s).  Every
    width-th character from offset width - 1 - j is then bit j of one mask,
    the first mask last, so one int() per result reads them all.
    """
    fmt = f"0{width}b"
    rows = "0" * width + "".join(map(format, reversed(masks), repeat(fmt)))
    return [int(rows[width - 1 - j :: width], 2) for j in range(width)]
