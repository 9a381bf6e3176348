"""Differential tests of the skeleton-layer kernels against the code they
replaced, kept verbatim here (codec_table.py checks them against
bench/reference.py): the digit loop, one multiply or divide per digit, that
bbase used for every base before base 2 moved to binary strings, and the
earlier nat2pars and pars2nat loops, which wrote each group first symbol
first and read the sequence by index, with the public nat2nats/nats2nat in
place of the unchecked kernels they called.
"""

import itertools
import random

import pytest

from termcodec import (
    CodecError,
    from_bbase,
    nat2nats,
    nat2pars,
    nats2nat,
    pars2nat,
    to_bbase,
)

from conftest import random_codes, ref


def loop_from_bbase(base, digits):
    r = 0
    for d in reversed(digits):
        if not 0 <= d < base:
            raise CodecError(f"from_bbase: digit {d} is outside [0, {base - 1}]")
        r = r * base + d + 1
    return r


def loop_to_bbase(base, n):
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


def loop_nat2pars(n):
    out = []
    work = [n]  # -1 stands for the close of a group
    while work:
        x = work.pop()
        if x < 0:
            out.append(1)
            continue
        out.append(0)
        work.append(-1)
        if x:
            members = nat2nats(x)
            members.reverse()
            work += members
    return out


def loop_pars2nat(ps):
    if not ps:
        raise CodecError("pars2nat: empty sequence")
    if ps[0] != 0:
        raise CodecError("pars2nat: sequence must open with 0")
    n = len(ps)
    stack = [[]]
    for i in range(1, n):
        if ps[i] == 0:
            stack.append([])
            continue
        kids = stack.pop()
        value = nats2nat(kids) if kids else 0
        if not stack:
            if i + 1 != n:
                raise CodecError(f"pars2nat: {n - i - 1} trailing symbols after the closing 1")
            return value
        stack[-1].append(value)
    raise CodecError("pars2nat: unbalanced sequence, a group is never closed")


def value_or_message(function, *args):
    try:
        return function(*args)
    except CodecError as e:
        return str(e)


def test_references_agree_with_the_worked_examples():
    assert ref.nat2nats(2012) == [7, 7, 2]  # C10
    assert ref.nats2nat([7, 7, 2]) == 2012
    c11 = [0, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 1, 0, 1, 1, 1]
    assert ref.nat2pars(2012) == c11
    assert ref.pars2nat(c11) == 2012
    assert loop_to_bbase(7, 2012) == [2, 6, 4, 4]  # C6


def test_nat2pars_matches_the_loop_below_2_pow_16():
    for n in range(2**16):
        assert nat2pars(n) == loop_nat2pars(n)


def test_pars2nat_matches_the_loop_on_short_sequences():
    """Every 0/1 sequence of at most 14 symbols: the same value, or the same
    message."""
    for length in range(15):
        for ps in itertools.product((0, 1), repeat=length):
            assert value_or_message(pars2nat, ps) == value_or_message(loop_pars2nat, ps)


def test_base2_exhaustive_below_2_pow_12():
    for n in range(2**12):
        digits = loop_to_bbase(2, n)
        assert to_bbase(2, n) == digits
        assert from_bbase(2, digits) == n
        assert from_bbase(2, tuple(digits)) == n


def test_base2_random_codes_up_to_2_pow_4096():
    rng = random.Random(47)
    for n in random_codes(seed=45, count=150):
        assert to_bbase(2, n) == loop_to_bbase(2, n)
        digits = [rng.randint(0, 1) for _ in range(rng.randint(0, 4096))]
        assert from_bbase(2, digits) == loop_from_bbase(2, digits)


@pytest.mark.parametrize("base", [3, 7, 26, 255, 256, 10**6])
def test_other_bases_keep_the_loop(base):
    for n in [*range(2**12), *random_codes(seed=base, count=50, max_bits=512)]:
        assert to_bbase(base, n) == loop_to_bbase(base, n)
        assert from_bbase(base, loop_to_bbase(base, n)) == n


def test_base2_pinned_digit_handling():
    with pytest.raises(CodecError, match=r"digit 2 is outside \[0, 1\]"):
        from_bbase(2, [0, 2, 1])
    with pytest.raises(CodecError, match=r"digit -1 is outside \[0, 1\]"):
        from_bbase(2, [-1])
    assert from_bbase(2, [True, 0]) == 4
    assert from_bbase(2, [False, True]) == 5


def test_base2_bad_digits_match_the_loop():
    """Whatever the loop reports for a bad sequence, base 2 reports too: the
    first bad digit from the most significant end."""
    rng = random.Random(53)
    bad = [2, 3, -1, 255, 256, 10**30, -(10**30)]
    for _ in range(500):
        digits = [rng.randint(0, 1) for _ in range(rng.randint(1, 40))]
        for _ in range(rng.randint(1, 3)):
            digits[rng.randrange(len(digits))] = rng.choice(bad)
        with pytest.raises(CodecError) as expected:
            loop_from_bbase(2, digits)
        with pytest.raises(CodecError) as got:
            from_bbase(2, digits)
        assert str(got.value) == str(expected.value)


def test_pars_pinned_symbol_handling():
    assert pars2nat([0, True]) == 0
    with pytest.raises(CodecError) as info:
        pars2nat([0.0, 1.0])
    assert str(info.value) == "pars2nat: symbol 0.0 is not 0 or 1"
    assert pars2nat((0, 0, 1, 1)) == 1
    with pytest.raises(CodecError, match="symbol 2 is not 0 or 1"):
        pars2nat([0, 2, 1])
    with pytest.raises(CodecError, match=r"symbol \[1\] is not 0 or 1"):
        pars2nat([0, [1], 1])
    with pytest.raises(CodecError, match="2 trailing symbols"):
        pars2nat([0, 1, 0, 1])
    with pytest.raises(CodecError, match="never closed"):
        pars2nat([0, 0, 1])
    with pytest.raises(CodecError, match="must open with 0"):
        pars2nat([1, 0])
    with pytest.raises(CodecError, match="empty"):
        pars2nat([])
