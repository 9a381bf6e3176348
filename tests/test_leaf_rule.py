"""The one leaf rule of term text: [A-Z]... is a variable, [a-z]... a symbol
and an integer >= 0 a constant. Parsing and the skeleton decoders build
leaves by it, so printing and every encoder must reject any leaf that would
read back as a different one."""

from functools import partial

import pytest
from hypothesis import given
import hypothesis.strategies as st

from termcodec import (
    CodecError,
    Compound,
    Const,
    Signature,
    Var,
    code2term,
    inj_code2term,
    parse_term,
    print_term,
    term2bitpars,
    term2code,
    term2inj_code,
    term2nat,
)

BAD_LEAVES = [
    (Const("X"), "Const(symbol='X') reads back as Var(name='X')"),
    (Var("a"), "Var(name='a') reads back as Const(symbol='a')"),
    (Const("a b"), "'a b' is not a variable, symbol, or integer"),
    (Const(-1), "negative integer leaf -1"),
    (Var(["x"]), "['x'] is not a variable, symbol, or integer"),
    (Const(True), "True is not a variable, symbol, or integer"),
]

# Every symbol of the well-formed terms below is declared, so term2nat fails
# only where the walk it shares with the other encoders does.
SIG = Signature(("X",), ("a",), (("f", 1), ("f", 2), ("g", 1)))

ENCODERS = [
    (print_term, "print_term"),
    (term2code, "term2bitpars"),
    (term2inj_code, "term2bitpars"),
    (partial(term2nat, SIG), "term2nat"),
]


def nested(leaf):
    return Compound("f", (Const("a"), Compound("g", (leaf,))))


@pytest.mark.parametrize("place", [lambda leaf: leaf, nested], ids=["top", "nested"])
@pytest.mark.parametrize("leaf,message", BAD_LEAVES)
@pytest.mark.parametrize("encode,op", ENCODERS)
def test_encoders_reject_leaves_that_read_back_differently(encode, op, leaf, message, place):
    with pytest.raises(CodecError) as info:
        encode(place(leaf))
    assert str(info.value) == f"{op}: {message}"


@pytest.mark.parametrize("encode,op", ENCODERS)
def test_one_unshared_bad_leaf_among_shared_good_ones(encode, op):
    """Leaves are checked once per distinct object, never once per value:
    the last leaf holds the same atom as the 10^4 shared ones before it."""
    good = Var("X")
    t = Compound("f", (good,) * 10_000 + (Const("X"),))
    with pytest.raises(CodecError, match=f"^{op}: Const.symbol='X'. reads back as Var"):
        encode(t)


VAR_NAMES = st.from_regex(r"[A-Z][A-Za-z0-9_]{0,3}", fullmatch=True)
SYMBOLS = st.from_regex(r"[a-z][a-z0-9_]{0,3}", fullmatch=True)
SHARED_LEAVES = [Var("X"), Var("Y"), Const("a"), Const(0), Const(10**30)]
LEAVES = st.one_of(
    VAR_NAMES.map(Var),
    SYMBOLS.map(Const),
    st.integers(0, 2**80).map(Const),
    st.sampled_from(SHARED_LEAVES),  # the same objects, as decoders return them
)
# Well-formed terms, arities 1 to 4. Few leaves keep the nesting shallow, as
# the skeleton code grows with the product of group sizes down a path.
TERMS = st.recursive(
    LEAVES,
    lambda kids: st.builds(Compound, SYMBOLS, st.lists(kids, min_size=1, max_size=4).map(tuple)),
    max_leaves=20,
)


@given(TERMS)
def test_print_parse_identity(t):
    assert parse_term(print_term(t)) == t


@given(TERMS)
def test_skeleton_encode_decode_identity(t):
    assert code2term(*term2code(t)) == t
    assert inj_code2term(*term2inj_code(t)) == t


# The functor slot takes the symbol branch of the same rule, and a
# compound's arguments must be a non-empty tuple, as parsing builds them.
BAD_FUNCTORS = [
    ("F", "functor 'F' is not a symbol"),
    ("a b", "functor 'a b' is not a symbol"),
    (3, "functor 3 is not a symbol"),
    (["f"], "functor ['f'] is not a symbol"),
]

ALL_ENCODERS = ENCODERS + [(term2bitpars, "term2bitpars")]


@pytest.mark.parametrize("place", [lambda t: t, nested], ids=["top", "nested"])
@pytest.mark.parametrize("functor,message", BAD_FUNCTORS)
@pytest.mark.parametrize("encode,op", ALL_ENCODERS)
def test_encoders_reject_functors_that_are_not_symbols(encode, op, functor, message, place):
    with pytest.raises(CodecError) as info:
        encode(place(Compound(functor, (Const("a"),))))
    assert str(info.value) == f"{op}: {message}"


@pytest.mark.parametrize("place", [lambda t: t, nested], ids=["top", "nested"])
@pytest.mark.parametrize("encode,op", ALL_ENCODERS)
def test_encoders_reject_arguments_outside_a_tuple(encode, op, place):
    "f's list of arguments would read back as a tuple, an unequal term."
    with pytest.raises(CodecError) as info:
        encode(place(Compound("f", [Const("a")])))
    assert str(info.value) == f"{op}: arguments of f are not a tuple"


def test_term2nat_rejects_arguments_outside_a_tuple():
    sig = Signature(("X",), ("a",), (("f", 1),))
    with pytest.raises(CodecError) as info:
        term2nat(sig, Compound("f", (Compound("f", [Const("a")]),)))
    assert str(info.value) == "term2nat: arguments of f are not a tuple"
