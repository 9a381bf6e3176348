"""Every numeric minimum of the library reports the same message shape:
"<op>: <what> must be >= <least> (got <value>)", and an argument that is
not an int "<op>: <what> must be an integer (got <value>)". A sequence
argument that is not iterable reads "<op>: <what> must be iterable (got
<value>)", a sequence or text outside a decoder's domain gets that
decoder's own message, and a signature that is not one raises
SignatureError."""

import random
from fractions import Fraction

import pytest

from termcodec import (
    CodecError,
    Const,
    Signature,
    SignatureError,
    bitpars2term,
    code2term,
    cons,
    decons,
    from_bbase,
    from_pair,
    from_tuple,
    inj_code2term,
    k_deflate,
    k_inflate,
    load_signature,
    nat2nats,
    nat2pars,
    nat2string,
    nat2term,
    nats2nat,
    parse_signature,
    parse_term,
    pars2nat,
    ranterm,
    string2nat,
    term2nat,
    to_bbase,
    to_pair,
    to_tuple,
)

from conftest import NOT_UTF8_SIG, SIG_FG_AB


PS_FAB = [0, 0, 1, 0, 1, 0, 1, 1]  # the skeleton of f(a,b)


class Index:
    """Not an int, but bytes() and int() take it through __index__."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value

    def __repr__(self):
        return f"Index({self.value})"


@pytest.mark.parametrize(
    "function,args,message",
    [
        (k_deflate, (0, 5), "k_deflate: stride must be >= 1 (got 0)"),
        (k_deflate, (2, -1), "k_deflate: argument must be >= 0 (got -1)"),
        (k_inflate, (0, 5), "k_inflate: stride must be >= 1 (got 0)"),
        (k_inflate, (3, -2), "k_inflate: argument must be >= 0 (got -2)"),
        (to_tuple, (0, 5), "to_tuple: stride must be >= 1 (got 0)"),
        (to_tuple, (2, -1), "to_tuple: argument must be >= 0 (got -1)"),
        (to_tuple, (-1, -1), "to_tuple: stride must be >= 1 (got -1)"),
        (from_tuple, ([1, -3, 2],), "from_tuple: argument must be >= 0 (got -3)"),
        (to_pair, (-1,), "to_pair: argument must be >= 0 (got -1)"),
        (from_pair, (-1, 0), "from_pair: a must be >= 0 (got -1)"),
        (from_pair, (0, -2), "from_pair: b must be >= 0 (got -2)"),
        (from_bbase, (1, [0]), "from_bbase: base must be >= 2 (got 1)"),
        (to_bbase, (1, 5), "to_bbase: base must be >= 2 (got 1)"),
        (to_bbase, (2, -1), "to_bbase: argument must be >= 0 (got -1)"),
        (to_bbase, (26, -7), "to_bbase: argument must be >= 0 (got -7)"),
        (nat2string, (-1,), "nat2string: argument must be >= 0 (got -1)"),
        (cons, (-1, 0), "cons: x must be >= 0 (got -1)"),
        (cons, (0, -2), "cons: y must be >= 0 (got -2)"),
        (cons, (-1, -2), "cons: x must be >= 0 (got -1)"),
        (decons, (0,), "decons: argument must be >= 1 (got 0)"),
        (nat2nats, (-1,), "nat2nats: argument must be >= 0 (got -1)"),
        (nats2nat, ([-1],), "nats2nat: item must be >= 0 (got -1)"),
        (nat2pars, (-1,), "nat2pars: argument must be >= 0 (got -1)"),
        (nat2term, (SIG_FG_AB, -1), "nat2term: code must be >= 0 (got -1)"),
        (ranterm, (SIG_FG_AB, 0, random.Random(0)), "ranterm: bits must be >= 1 (got 0)"),
        (ranterm, (SIG_FG_AB, -3, random.Random(0)), "ranterm: bits must be >= 1 (got -3)"),
    ],
)
def test_numeric_minimum_messages(function, args, message):
    with pytest.raises(CodecError) as info:
        function(*args)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "function,args,message",
    [
        (nat2term, (SIG_FG_AB, 7.0), "nat2term: code must be an integer (got 7.0)"),
        (cons, ("a", 1), "cons: x must be an integer (got 'a')"),
        (cons, (1, 2.5), "cons: y must be an integer (got 2.5)"),
        (to_bbase, (2, 5.0), "to_bbase: argument must be an integer (got 5.0)"),
        (to_bbase, (2.0, 5), "to_bbase: base must be an integer (got 2.0)"),
        (to_tuple, (2, 5.0), "to_tuple: argument must be an integer (got 5.0)"),
        (from_tuple, ([1.5, 2],), "from_tuple: argument must be an integer (got 1.5)"),
        (to_pair, (2.0,), "to_pair: argument must be an integer (got 2.0)"),
        (from_pair, (1, 1.5), "from_pair: b must be an integer (got 1.5)"),
        (nat2string, (1.5,), "nat2string: argument must be an integer (got 1.5)"),
        (nat2pars, (3.0,), "nat2pars: argument must be an integer (got 3.0)"),
        (nat2nats, ("7",), "nat2nats: argument must be an integer (got '7')"),
        (nats2nat, ([1.5],), "nats2nat: item must be an integer (got 1.5)"),
        (ranterm, (SIG_FG_AB, 8.0, random.Random(0)),
         "ranterm: bits must be an integer (got 8.0)"),
    ],
)
def test_numeric_type_messages(function, args, message):
    with pytest.raises(CodecError) as info:
        function(*args)
    assert str(info.value) == message


def test_bool_counts_as_an_integer():
    assert from_bbase(2, [True, 0]) == 4
    assert to_bbase(2, True) == [0]
    assert cons(True, False) == 2
    assert bitpars2term((False, True), ["a"]) == Const("a")


def test_int_subclasses_count_as_integers():
    class Bit(int):
        pass

    assert from_bbase(2, [Bit(1), Bit(0)]) == 4
    assert pars2nat([Bit(0), Bit(0), Bit(1), Bit(1)]) == 1
    assert bitpars2term([Bit(0), Bit(1)], ["a"]) == Const("a")


@pytest.mark.parametrize(
    "function,args,message",
    [
        (from_bbase, (3, [0.5]), "from_bbase: digit must be an integer (got 0.5)"),
        (from_bbase, (2, [1.0, 0]), "from_bbase: digit must be an integer (got 1.0)"),
        (from_bbase, (2, None), "from_bbase: digits must be iterable (got None)"),
        (from_tuple, (None,), "from_tuple: tuple must be iterable (got None)"),
        (from_tuple, (5,), "from_tuple: tuple must be iterable (got 5)"),
        (nats2nat, (None,), "nats2nat: list must be iterable (got None)"),
        (pars2nat, (None,), "pars2nat: sequence must be iterable (got None)"),
        (bitpars2term, (None, []), "bitpars2term: skeleton must be iterable (got None)"),
        (bitpars2term, ([0, 1], None), "bitpars2term: atoms must be iterable (got None)"),
        (pars2nat, ([0, Fraction(1)],), "pars2nat: symbol Fraction(1, 1) is not 0 or 1"),
        (bitpars2term, ([0.0, 1], ["a"]), "bitpars2term: skeleton symbol 0.0 is not 0 or 1"),
        # an __index__ object is not an int, even where it holds a valid 0 or 1
        (pars2nat, ([0, Index(1)],), "pars2nat: symbol Index(1) is not 0 or 1"),
        (from_bbase, (2, [Index(1)]), "from_bbase: digit must be an integer (got Index(1))"),
        (bitpars2term, ([0, Index(1)], ["a"]), "bitpars2term: skeleton symbol Index(1) is not 0 or 1"),
        (string2nat, (5,), "string2nat: argument must be a string (got 5)"),
        (parse_term, (None,), "parse_term: text must be a string (got None)"),
        (ranterm, (SIG_FG_AB, 8, None), "ranterm: rng must have a getrandbits method (got None)"),
        (ranterm, (SIG_FG_AB, 8, 7), "ranterm: rng must have a getrandbits method (got 7)"),
        *[(string2nat, (word,), f"string2nat: character {word[i]!r} at index {i} is outside 'a'..'z'")
          for word, i in [("Hello", 0), ("he llo", 2), ("h3llo", 1), ("hé", 1), ("a!", 1)]],
        (from_tuple, ([],), "from_tuple: tuple must have at least one member"),
        (bitpars2term, ([0, 0, 1, 1], ["a"]),
         "bitpars2term: a group must hold a functor and at least one argument"),
        (bitpars2term, ([0, 1], ["a", "b"]), "bitpars2term: leaf skeleton names 1 atom but 2 were given"),
        (bitpars2term, ([0, 1], []), "bitpars2term: leaf skeleton names 1 atom but 0 were given"),
        (bitpars2term, (PS_FAB, ["f", "a"]), "bitpars2term: skeleton holds more leaves than the 2 atoms given"),
        (bitpars2term, (PS_FAB, ["f", "a", "b", "c"]),
         "bitpars2term: skeleton holds 3 leaves but 4 atoms were given"),
        (bitpars2term, (PS_FAB, ["X", "a", "b"]), "bitpars2term: variable X cannot fill a functor slot"),
        (bitpars2term, (PS_FAB, [7, "a", "b"]), "bitpars2term: integer 7 cannot fill a functor slot"),
        # the first member of the outer group is itself a group
        (bitpars2term, ([0, 0, *PS_FAB, 1, 0, 1, 1], ["f", "a", "b", "c"]),
         "bitpars2term: a nested group cannot fill a functor slot"),
        (bitpars2term, ([0, 0, 1], ["a"]), "bitpars2term: skeleton ends inside an open group"),
        (bitpars2term, ([0, 2, 1], ["a"]), "bitpars2term: skeleton symbol 2 is not 0 or 1"),
        (bitpars2term, ([0, 1], ["not a name"]),
         "bitpars2term: 'not a name' is not a variable, symbol, or integer"),
        (bitpars2term, ([0, 1], [-3]), "bitpars2term: negative integer leaf -3"),
        # the skeleton codes decode through bitpars2term, whose message they keep
        (inj_code2term, (7, ["a"]), "bitpars2term: skeleton ends inside an open group"),
        (inj_code2term, (0, []), "bitpars2term: skeleton must be a single group opened by 0"),
        (code2term, (1, ["a"]), "bitpars2term: a group must hold a functor and at least one argument"),
    ],
)
def test_sequence_and_text_messages(function, args, message):
    with pytest.raises(CodecError) as info:
        function(*args)
    assert str(info.value) == message


def test_iterables_are_listed_once():
    assert from_bbase(2, (d for d in [0, 1])) == 5
    assert from_tuple(iter([2, 1, 2])) == 42
    assert nats2nat(iter([7, 7, 2])) == 2012


@pytest.mark.parametrize(
    "function,args,message",
    [
        (nat2term, (Signature(["X"], [], []), 0),
         "expected a Signature of tuples (got Signature(vars=['X'], consts=[], funs=[]))"),
        (nat2term, (Signature(("X",), ("a",), [("f", 1)]), 0),
         "expected a Signature of tuples "
         "(got Signature(vars=('X',), consts=('a',), funs=[('f', 1)]))"),
        (term2nat, (None, Const("a")), "expected a Signature of tuples (got None)"),
        # more digits than the interpreter's int() limit: the arity bound, not a ValueError
        pytest.param(parse_signature, ("vars: X\nfuns: f/" + "1" * 5000,),
                     f"functor f has arity {'1' * 5000}; arity must be <= 65536",
                     id="parse_signature-5000-digit-arity"),
        (parse_signature, (None,), "parse_signature: text must be a string (got None)"),
        (parse_signature, (b"vars: X",),
         "parse_signature: text must be a string (got b'vars: X')"),
        pytest.param(load_signature, (NOT_UTF8_SIG,), f"{NOT_UTF8_SIG}: invalid UTF-8 at byte offset 7 (0xff)",
                     id="load_signature-not-utf8"),
        # an int is not opened as a file descriptor, which open() would read and close
        (load_signature, (3,), "load_signature: path must be a string or path (got 3)"),
    ],
)
def test_signature_messages(function, args, message):
    with pytest.raises(SignatureError) as info:
        function(*args)
    assert str(info.value) == message
