import random

from termcodec import from_tuple, k_deflate, k_inflate, to_tuple
from termcodec.tuples import _merge, _split

from conftest import ref


def test_stride_one_is_identity():
    for n in (0, 1, 42, 2**70 + 5):
        assert k_inflate(1, n) == n
        assert k_deflate(1, n) == n
        assert to_tuple(1, n) == [n]
        assert from_tuple([n]) == n


def test_stride_kernels_match_the_reference():
    rng = random.Random(59)
    codes = [*range(2**12), *(rng.getrandbits(rng.randint(1, 1024)) for _ in range(40))]
    for k in range(1, 8):
        for n in codes:
            assert k_deflate(k, n) == ref.to_tuple(k, n)[0]
            assert k_inflate(k, n) == ref.from_tuple([n] + [0] * (k - 1))


def test_pair_table_kernels_match_the_reference():
    """Every n < 2**18, which ref.to_tuple pairs with every (a, b) with
    a, b < 2**9: _split(2, n) takes the _DEAL table below 2**16 and the
    strided path above, and _merge([a, b]) the _SPREAD table when a and b
    are below 2**8 and the strided path else. _merge is checked as the
    inverse of ref.to_tuple, which costs a third of a ref.from_tuple call,
    and against ref.from_tuple itself on the members next to the bound."""
    for n in range(2**18):
        pair = ref.to_tuple(2, n)
        assert _split(2, n) == pair
        assert _merge(pair) == n
    for a in range(2**9):
        for b in (0, 2**8 - 1, 2**8, 2**9 - 1):
            assert _merge([a, b]) == ref.from_tuple([a, b])
            assert _merge([b, a]) == ref.from_tuple([b, a])


def test_member_bit_budget():
    "Interleaving k members never exceeds k times the widest member."
    for k in range(1, 5):
        for n in range(1, 2**10):
            members = to_tuple(k, n)
            widest = max(m.bit_length() for m in members)
            assert n.bit_length() <= k * widest
