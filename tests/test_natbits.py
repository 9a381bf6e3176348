import pytest

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
