"""Bijective base-k numeration, specialized to lowercase strings and atoms.

Digit sequences are least-significant-first with surface digits in
[0, base-1]; arithmetic uses the shifted digits 1..base, which is what makes
the map bijective (a leading zero digit is significant, so "a" and "aa" get
different codes where ordinary positional notation would collapse them).

Base 2 is the skeleton codecs' base, and its digit sequences are as long as
a term's skeleton, so it goes through binary strings in linear time: the
value of digits d_0..d_{L-1} is 2^L - 1 + sum d_i 2^i, i.e. the binary
number "1" d_{L-1} ... d_0 minus one. Other bases keep the digit loop, which
does one bigint multiply or divide per digit (quadratic); only the short
atom strings use them.
"""

from __future__ import annotations

from .errors import CodecError, check_iterable, check_min

_A = ord("a")
_Z = ord("z")
ALPHABET_BASE = _Z - _A + 1

_DIGIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")
_CHAR_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _as_bits(seq) -> bytes | None:
    """seq as bytes if every member is 0 or 1, else None."""
    try:
        raw = bytes(seq)
    except (TypeError, ValueError):  # a member outside [0, 255] or not an int
        return None
    return None if raw.translate(None, b"\x00\x01") else raw


def from_bbase(base: int, digits: list[int]) -> int:
    """Value of a least-significant-first digit sequence in bijective base-k."""
    check_min("from_bbase", "base", base, 2)
    digits = check_iterable("from_bbase", "digits", digits)
    if base == 2:
        raw = _as_bits(digits)
        if raw is not None:
            return int(b"1" + raw[::-1].translate(_DIGIT_CHARS), 2) - 1
    r = 0
    for d in reversed(digits):
        if not isinstance(d, int):
            raise CodecError(f"from_bbase: digit must be an integer (got {d!r})")
        if not 0 <= d < base:
            raise CodecError(f"from_bbase: digit {d} is outside [0, {base - 1}]")
        r = r * base + d + 1
    return r


def to_bbase(base: int, n: int) -> list[int]:
    """The unique digit sequence whose from_bbase value is n; empty iff n == 0."""
    check_min("to_bbase", "base", base, 2)
    check_min("to_bbase", "argument", n, 0)
    if base == 2:
        return list(bin(n + 1)[:2:-1].encode().translate(_CHAR_DIGITS))
    digits = []
    while n > 0:
        d = n % base
        if d == 0:
            digits.append(base - 1)
            n = n // base - 1
        else:
            digits.append(d - 1)
            n = n // base
    return digits


def string2nat(s: str) -> int:
    """Encode a string over 'a'..'z' (first character least significant)."""
    if not isinstance(s, str):
        raise CodecError(f"string2nat: argument must be a string (got {s!r})")
    digits = []
    for i, ch in enumerate(s):
        d = ord(ch) - _A
        if not 0 <= d < ALPHABET_BASE:
            raise CodecError(
                f"string2nat: character {ch!r} at index {i} is outside 'a'..'z'"
            )
        digits.append(d)
    return from_bbase(ALPHABET_BASE, digits)


def nat2string(n: int) -> str:
    check_min("nat2string", "argument", n, 0)
    return "".join(chr(_A + d) for d in to_bbase(ALPHABET_BASE, n))
