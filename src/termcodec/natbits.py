"""The pairing cons(x, y) = 2^x * (2y + 1) between Nat^2 and positive naturals.

Python ints are already arbitrary-precision, so the two functions below are
thin wrappers whose value is the explicit domain checking: arguments outside
the domain (0 for decons, negatives for cons) fail loudly instead of wrapping.
"""

from __future__ import annotations

from .errors import CodecError


def cons(x: int, y: int) -> int:
    """Fuse two naturals into one positive natural: 2^x * (2y + 1)."""
    if x < 0 or y < 0:
        raise CodecError(f"cons: arguments must be >= 0 (got {x}, {y})")
    return ((y << 1) | 1) << x


def decons(z: int) -> tuple[int, int]:
    """Split a positive natural into the unique (x, y) with cons(x, y) == z."""
    if z < 1:
        raise CodecError(f"decons: argument must be >= 1 (got {z})")
    x = (z & -z).bit_length() - 1
    return x, z >> (x + 1)
