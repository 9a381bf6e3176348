from termcodec import from_bbase, string2nat


def test_leading_zero_digits_are_significant():
    assert from_bbase(2, [0]) == 1
    assert from_bbase(2, [0, 0]) == 3
    assert from_bbase(2, [0, 0, 0]) == 7
    assert from_bbase(10, [0]) != from_bbase(10, [0, 0])


def test_repeated_letter_is_monotonic():
    values = [string2nat("a" * m) for m in range(1, 12)]
    assert values == sorted(values)
    assert len(set(values)) == len(values)
