import itertools

import pytest
from hypothesis import given
import hypothesis.strategies as st

from termcodec import CodecError, from_bbase, nat2string, string2nat, to_bbase
from termcodec.bbase import ALPHABET_BASE


def test_worked_example():
    assert to_bbase(7, 2012) == [2, 6, 4, 4]
    assert from_bbase(7, [2, 6, 4, 4]) == 2012


def test_small_values():
    assert from_bbase(2, []) == 0
    assert to_bbase(2, 0) == []
    assert from_bbase(2, [0, 1]) == 5
    assert to_bbase(2, 5) == [0, 1]
    assert to_bbase(2, 7) == [0, 0, 0]


def test_leading_zero_digits_are_significant():
    assert from_bbase(2, [0]) == 1
    assert from_bbase(2, [0, 0]) == 3
    assert from_bbase(2, [0, 0, 0]) == 7
    assert from_bbase(10, [0]) != from_bbase(10, [0, 0])


def test_domain_errors():
    with pytest.raises(CodecError):
        to_bbase(1, 5)
    with pytest.raises(CodecError):
        from_bbase(0, [0])
    with pytest.raises(CodecError):
        from_bbase(2, [2])
    with pytest.raises(CodecError):
        from_bbase(2, [-1])
    with pytest.raises(CodecError):
        to_bbase(7, -1)


@pytest.mark.parametrize("base", [2, 7, 26])
def test_roundtrip_exhaustive(base):
    for n in range(100_000):
        assert from_bbase(base, to_bbase(base, n)) == n


@pytest.mark.parametrize("base,max_len", [(2, 8), (3, 8)])
def test_digit_sequences_exhaustive(base, max_len):
    "Every digit string denotes a distinct number and survives the roundtrip."
    seen = set()
    for length in range(max_len + 1):
        for digits in itertools.product(range(base), repeat=length):
            n = from_bbase(base, list(digits))
            assert to_bbase(base, n) == list(digits)
            seen.add(n)
    count = sum(base**length for length in range(max_len + 1))
    assert len(seen) == count


def test_string_worked_example():
    assert string2nat("hello") == 7073802
    assert nat2string(7073802) == "hello"
    assert nat2string(2012) == "jyb"


def test_string_small_values():
    assert ALPHABET_BASE == 26
    assert string2nat("") == 0
    assert nat2string(0) == ""
    assert string2nat("a") == 1
    assert nat2string(1) == "a"
    assert string2nat("z") == 26
    assert string2nat("aa") == 27


def test_string_rejects_non_lowercase():
    for bad in ("Hello", "he llo", "h3llo", "hé", "a!"):
        with pytest.raises(CodecError):
            string2nat(bad)


def test_repeated_letter_is_monotonic():
    values = [string2nat("a" * m) for m in range(1, 12)]
    assert values == sorted(values)
    assert len(set(values)) == len(values)


def test_string_roundtrip_exhaustive():
    for n in range(50_000):
        assert string2nat(nat2string(n)) == n


@given(st.integers(2, 40), st.integers(0, 2**256))
def test_roundtrip_big(base, n):
    assert from_bbase(base, to_bbase(base, n)) == n


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", max_size=60))
def test_string_roundtrip_big(s):
    assert nat2string(string2nat(s)) == s
