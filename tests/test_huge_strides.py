"""k_inflate and k_deflate touch one member of the k-tuple, so a huge stride
costs time in the size of the operand and the result, not in k."""

import time

from termcodec import k_deflate, k_inflate

from conftest import ref


def _timed(f, *args):
    start = time.perf_counter()
    result = f(*args)
    return result, time.perf_counter() - start


def test_inflate_huge_stride():
    got, seconds = _timed(k_inflate, 10**6, 3)
    assert seconds < 0.1
    assert got == 2**10**6 + 1
    assert got == ref.from_tuple([3] + [0] * (10**6 - 1))


def test_deflate_huge_stride():
    for n, member in ((2**2_000_001, 0), (2**2_000_001 - 1, 7), (2**2_000_000, 4)):
        got, seconds = _timed(k_deflate, 10**6, n)
        assert seconds < 0.1
        assert got == member
    # the reference's per-member bit loop is quadratic: check it at k = 10^4
    for n in (2**20_001, 2**20_001 - 1, 2**20_000 | 2**10_000 | 1, 3):
        assert k_deflate(10**4, n) == ref.to_tuple(10**4, n)[0]
