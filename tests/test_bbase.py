import pytest

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
