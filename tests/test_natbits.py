import pytest
from hypothesis import given
import hypothesis.strategies as st

from termcodec import CodecError, cons, decons


def test_cons_examples():
    assert cons(0, 0) == 1
    assert cons(3, 0) == 8
    assert cons(2, 251) == 2012


def test_decons_examples():
    assert decons(1) == (0, 0)
    assert decons(12) == (2, 1)
    assert decons(2012) == (2, 251)


def test_cons_decons_errors():
    with pytest.raises(CodecError):
        decons(0)
    with pytest.raises(CodecError):
        cons(-1, 0)
    with pytest.raises(CodecError):
        cons(0, -1)


def test_cons_decons_exhaustive():
    "cons is a bijection Nat^2 <-> Nat+ on a small grid, both directions."
    seen = set()
    for x in range(64):
        for y in range(64):
            z = cons(x, y)
            assert z >= 1
            assert decons(z) == (x, y)
            seen.add(z)
    assert len(seen) == 64 * 64
    for z in range(1, 10000):
        x, y = decons(z)
        assert cons(x, y) == z


# x is an exponent (the result carries x trailing zero bits), so it stays
# small while y exercises the arbitrary-precision path
@given(st.integers(0, 2**16), st.integers(0, 2**256))
def test_cons_decons_roundtrip_big(x, y):
    assert decons(cons(x, y)) == (x, y)
