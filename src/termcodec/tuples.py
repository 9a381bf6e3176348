"""Bijections between naturals and fixed-arity tuples of naturals.

A number is split into a k-tuple by dealing its binary digits round-robin
across k members (member j receives bits j, j+k, j+2k, ...), which is the
same thing as transposing the bit matrix of the number written in base 2^k.
Merging reverses the deal. The 2-tuple case is the classic Morton code.

The stride gather/scatter is done on binary strings rather than per-bit
integer arithmetic so that million-bit operands stay linear-time; Python's
int<->binary-string conversions and strided slice assignments all run at
C speed.
"""

from __future__ import annotations

from .errors import CodecError


def _check_stride(op: str, k: int) -> None:
    if k < 1:
        raise CodecError(f"{op}: stride must be >= 1 (got {k})")


def _check_nat(op: str, n: int) -> None:
    if n < 0:
        raise CodecError(f"{op}: argument must be >= 0 (got {n})")


def k_deflate(k: int, n: int) -> int:
    """Collect every k-th bit of n (bit i of the result is bit k*i of n)."""
    _check_stride("k_deflate", k)
    _check_nat("k_deflate", n)
    if n == 0 or k == 1:
        return n
    bits = bin(n)[:1:-1]  # little-endian digit chars
    return int(bits[::k][::-1], 2)


def k_inflate(k: int, n: int) -> int:
    """Spread the bits of n to every k-th position (bit i moves to bit k*i)."""
    _check_stride("k_inflate", k)
    _check_nat("k_inflate", n)
    if n == 0 or k == 1:
        return n
    bits = bin(n)[:1:-1].encode()
    out = bytearray(b"0" * (k * (len(bits) - 1) + 1))
    out[::k] = bits
    out.reverse()
    return int(out, 2)


def _split(k: int, n: int) -> list[int]:
    """to_tuple without its checks: k >= 1 and n >= 0 must hold."""
    if k == 1:
        return [n]
    bits = bin(n)[:1:-1]
    members = []
    for j in range(k):
        chunk = bits[j::k]
        members.append(int(chunk[::-1], 2) if chunk else 0)
    return members


def _merge(ns: list[int]) -> int:
    """from_tuple without its checks: ns must be a non-empty list of naturals."""
    k = len(ns)
    if k == 1:
        return ns[0]
    width = 0
    for j, x in enumerate(ns):
        if x:
            width = max(width, k * (x.bit_length() - 1) + j + 1)
    if width == 0:
        return 0
    out = bytearray(b"0" * width)
    for j, x in enumerate(ns):
        if x == 0:
            continue
        bits = bin(x)[:1:-1].encode()
        out[j : j + k * (len(bits) - 1) + 1 : k] = bits
    out.reverse()
    return int(out, 2)


def to_tuple(k: int, n: int) -> list[int]:
    """Split n into a k-tuple; member j collects bits j, j+k, j+2k, ... of n."""
    _check_stride("to_tuple", k)
    _check_nat("to_tuple", n)
    return _split(k, n)


def from_tuple(ns: list[int]) -> int:
    """Merge a tuple back into one natural by interleaving members' bits."""
    if len(ns) == 0:
        raise CodecError("from_tuple: tuple must have at least one member")
    for x in ns:
        _check_nat("from_tuple", x)
    return _merge(ns)


def to_pair(n: int) -> tuple[int, int]:
    a, b = to_tuple(2, n)
    return a, b


def from_pair(a: int, b: int) -> int:
    return from_tuple([a, b])
