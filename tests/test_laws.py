"""The laws that every row of the codec table holds (see codec_table.py)."""

import hypothesis.strategies as st
import pytest
from hypothesis import given

import termcodec

from codec_table import BIJECTIONS, INJECTIONS, NOT_CODECS


@pytest.mark.parametrize("row", BIJECTIONS, ids=lambda row: row.id)
def test_left_inverse_and_reference_on_small_codes(row):
    for n in row.codes():
        assert row.encode(row.decode(n)) == n
    for n in set(row.ref_codes()):
        assert row.encode(x := row.decode(n)) == n
        assert x == row.ref[0](n)


@pytest.mark.parametrize("row", BIJECTIONS, ids=lambda row: row.id)
def test_right_inverse_and_reference_on_small_values(row):
    cheap = set(row.ref_codes())
    for x in row.values():
        assert row.decode(n := row.encode(x)) == x
        assert n not in cheap or n == row.ref[1](x)


@pytest.mark.parametrize("row", BIJECTIONS, ids=lambda row: row.id)
@given(data=st.data())
def test_inverses_on_large_draws(row, data):
    assert row.encode(row.decode(n := data.draw(row.big_codes))) == n
    assert row.decode(row.encode(x := data.draw(row.big_values))) == x


@pytest.mark.parametrize("row", INJECTIONS, ids=lambda row: row.names[0])
def test_injection_inverse_and_reference(row):
    for t, text in row.corpus():
        assert row.decode(x := row.encode(t)) == t
        assert x == row.ref(text)


def test_every_export_is_a_row_or_not_a_codec():
    names = {name for row in BIJECTIONS + INJECTIONS for name in row.names}
    assert not names & NOT_CODECS
    assert set(termcodec.__all__) == names | NOT_CODECS
