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

from .errors import CodecError, check_iterable, check_min


def k_deflate(k: int, n: int) -> int:
    """Member 0 of to_tuple(k, n): bit i of the result is bit k*i of n."""
    check_min("k_deflate", "stride", k, 1)
    check_min("k_deflate", "argument", n, 0)
    return _split(k, n)[0] if k < n.bit_length() else n & 1  # else only bit 0 is kept


def k_inflate(k: int, n: int) -> int:
    """from_tuple of n and k - 1 zeros: bit i of n moves to bit k*i."""
    check_min("k_inflate", "stride", k, 1)
    check_min("k_inflate", "argument", n, 0)
    return _merge([n] + [0] * (k - 1)) if n > 1 else n  # 0 and 1 stay, whatever k


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
    top = max(ns)
    if top == 0:
        return 0
    # Leading zeros do not change the value: size for the widest member.
    out = bytearray(b"0" * (k * top.bit_length()))
    for j, x in enumerate(ns):
        if x == 0:
            continue
        bits = bin(x)[:1:-1].encode()
        out[j : j + k * (len(bits) - 1) + 1 : k] = bits
    out.reverse()
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
    a, b = to_tuple(2, n)
    return a, b


def from_pair(a: int, b: int) -> int:
    return from_tuple([a, b])
