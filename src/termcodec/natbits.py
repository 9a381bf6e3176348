"""The pairing cons(x, y) = 2^x * (2y + 1) between Nat^2 and positive naturals.

Python ints are already arbitrary-precision, so the two functions below are
thin wrappers whose value is the explicit domain checking: arguments outside
the domain (0 for decons, negatives for cons) fail loudly instead of wrapping.
"""

from __future__ import annotations

from .errors import check_min

__all__ = ["cons", "decons"]


def cons(x: int, y: int) -> int:
    """Fuse two naturals into one positive natural: 2^x * (2y + 1)."""
    check_min("cons", "x", x, 0)
    check_min("cons", "y", y, 0)
    return ((y << 1) | 1) << x


def decons(z: int) -> tuple[int, int]:
    """Split a positive natural into the unique (x, y) with cons(x, y) == z."""
    check_min("decons", "argument", z, 1)
    x = (z & -z).bit_length() - 1
    return x, z >> (x + 1)
