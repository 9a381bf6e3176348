"""Bijections between naturals and fixed-arity tuples of naturals.

A number is split into a k-tuple by dealing its binary digits round-robin
across k members (member j receives bits j, j+k, j+2k, ...), which is the
same thing as transposing the bit matrix of the number written in base 2^k.
Merging reverses the deal; the 2-tuple case is the classic Morton code.
Both directions slice bin(n)[2:], read most significant bit first: member j
is every k-th character from the string index of bit j, so nothing is
reversed. Strided slices and int<->binary-string conversions run at C
speed, which keeps million-bit operands linear-time.
"""

from __future__ import annotations

from .errors import CodecError, check_iterable, check_min


def k_deflate(k: int, n: int) -> int:
    """Member 0 of to_tuple(k, n): bit i of the result is bit k*i of n."""
    check_min("k_deflate", "stride", k, 1)
    check_min("k_deflate", "argument", n, 0)
    bits = bin(n)[2:]
    return int(bits[(len(bits) - 1) % k :: k], 2)


def k_inflate(k: int, n: int) -> int:
    """from_tuple of n and k - 1 zeros: bit i of n moves to bit k*i."""
    check_min("k_inflate", "stride", k, 1)
    check_min("k_inflate", "argument", n, 0)
    return int(("0" * (k - 1)).join(bin(n)[2:]), 2)


def _split(k: int, n: int) -> list[int]:
    """to_tuple without its checks: k >= 1 and n >= 0 must hold."""
    if k == 1:
        return [n]
    bits = bin(n)[2:]
    members = []
    for j in range(k):
        chunk = bits[(len(bits) - 1 - j) % k :: k]
        members.append(int(chunk, 2) if chunk else 0)
    return members


def _merge(ns: list[int]) -> int:
    """from_tuple without its checks: ns must be a non-empty list of naturals."""
    k = len(ns)
    if k == 1:
        return ns[0]
    width = max(ns).bit_length()  # shorter members get leading zeros
    if width == 0:
        return 0
    out = bytearray(b"0" * (k * width))
    for j, x in enumerate(ns):
        if x == 0:
            continue
        bits = bin(x)[2:].encode()
        out[k * (width - len(bits)) + k - 1 - j :: k] = bits
    return int(out, 2)


def to_tuple(k: int, n: int) -> list[int]:
    """Split n into a k-tuple; member j collects bits j, j+k, j+2k, ... of n."""
    check_min("to_tuple", "stride", k, 1)
    check_min("to_tuple", "argument", n, 0)
    return _split(k, n)


def from_tuple(ns: list[int]) -> int:
    """Merge a tuple back into one natural by interleaving members' bits."""
    ns = check_iterable("from_tuple", "tuple", ns)
    if len(ns) == 0:
        raise CodecError("from_tuple: tuple must have at least one member")
    for x in ns:
        check_min("from_tuple", "argument", x, 0)
    return _merge(ns)


def to_pair(n: int) -> tuple[int, int]:
    check_min("to_pair", "argument", n, 0)
    return tuple(_split(2, n))


def from_pair(a: int, b: int) -> int:
    check_min("from_pair", "a", a, 0)
    check_min("from_pair", "b", b, 0)
    return _merge([a, b])
