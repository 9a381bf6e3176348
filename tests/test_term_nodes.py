"""The term classes and Signature are slotted immutable classes. These tests
pin what they keep of the frozen dataclasses they replaced: the repr,
field-wise == and hash per class, refused assignment and deletion, keyword
construction and defaults, positional match patterns, copy, deepcopy and
pickle, and a TypeError on a wrong argument count. The last test checks that
importing the CLI no longer loads dataclasses and what it pulled in."""

import copy
import pickle

import pytest

from termcodec import Compound, Const, Signature, Var, parse_term

from conftest import loaded_by_import

T = parse_term("f(X,g(a,7))")
SIG = Signature(("X",), ("a",), (("f", 2),))
VALUES = [Var("X"), Const("a"), Const(7), T, SIG]


def test_repr():
    assert repr(Var("X")) == "Var(name='X')"
    assert repr(Const("a")) == "Const(symbol='a')"
    assert repr(Const(7)) == "Const(symbol=7)"
    assert repr(T) == (
        "Compound(functor='f', args=(Var(name='X'), "
        "Compound(functor='g', args=(Const(symbol='a'), Const(symbol=7)))))"
    )
    assert repr(SIG) == "Signature(vars=('X',), consts=('a',), funs=(('f', 2),))"
    assert repr(Signature(["X"], [], [])) == "Signature(vars=['X'], consts=[], funs=[])"


def test_equality_is_field_wise_within_one_class():
    assert Var("a") != Const("a")
    assert not Const("a") == Var("a")
    assert Var("X") != "X" and Var("X") != ("X",)
    assert Const(7) == Const(7) != Const(8)
    assert T == parse_term("f( X , g(a,7) )")
    assert T != parse_term("f(X,g(a,8))")
    assert T != Compound("h", T.args)
    assert SIG == Signature(vars=("X",), consts=("a",), funs=(("f", 2),))
    assert SIG != Signature(("X",), ("a",))
    assert SIG != (SIG.vars, SIG.consts, SIG.funs)  # a plain tuple of its fields


@pytest.mark.parametrize("value", VALUES, ids=repr)
def test_equal_values_hash_equal(value):
    other = copy.copy(value)
    assert other == value and other is not value
    assert hash(other) == hash(value)


def test_hash_tells_the_classes_apart_in_a_set():
    assert len({Var("a"), Const("a"), Var("a"), parse_term("a")}) == 2


@pytest.mark.parametrize(
    "value,field",
    [(Var("X"), "name"), (Const(7), "symbol"), (T, "functor"), (T, "args"),
     (SIG, "vars"), (SIG, "funs")],
    ids=str,
)
def test_fields_cannot_be_assigned_or_deleted(value, field):
    before = getattr(value, field)
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
        setattr(value, field, before)
    with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
        delattr(value, field)
    with pytest.raises(AttributeError, match="^cannot assign to field 'extra'$"):
        value.extra = 1
    assert getattr(value, field) is before
    assert not hasattr(value, "__dict__")


def test_signature_keywords_and_defaults():
    sig = Signature(vars=("X",))
    assert (sig.vars, sig.consts, sig.funs) == (("X",), (), ())
    assert (sig.lv, sig.lc, sig.lf, sig.lvc) == (1, 0, 0, 1)
    assert Signature() == Signature((), (), ())
    assert Signature(funs=(("f", 2),), consts=("a",)) == Signature((), ("a",), (("f", 2),))
    assert (SIG.lv, SIG.lc, SIG.lf, SIG.lvc) == (1, 1, 1, 2)


def describe(t) -> str:
    match t:
        case Var(name):
            return f"variable {name}"
        case Const(int(n)):
            return f"integer {n}"
        case Const(symbol):
            return f"symbol {symbol}"
        case Compound(functor, (first, *rest)):
            return f"{functor}/{1 + len(rest)} from {describe(first)}"
    return "not a term"


def test_match_with_positional_patterns():
    assert describe(T) == "f/2 from variable X"
    assert describe(T.args[1]) == "g/2 from symbol a"
    assert describe(Const(7)) == "integer 7"
    assert describe("X") == "not a term"
    match SIG:
        case Signature(vars_, consts, ((name, arity),)):
            assert (vars_, consts, name, arity) == (("X",), ("a",), "f", 2)
        case _:
            pytest.fail("Signature did not match its positional pattern")


@pytest.mark.parametrize("value", VALUES, ids=repr)
def test_copy_deepcopy_and_pickle_round_trip(value):
    backs = [copy.copy(value), copy.deepcopy(value)]
    backs += [pickle.loads(pickle.dumps(value, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for back in backs:
        assert type(back) is type(value)
        assert back == value and back is not value


def test_deepcopy_and_pickle_keep_shared_leaves():
    t = parse_term("f(X,X)")
    assert t.args[0] is t.args[1]
    for back in (copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert back == t and back.args[0] is back.args[1]


@pytest.mark.parametrize(
    "make",
    [
        lambda: Var(),
        lambda: Var("X", "Y"),
        lambda: Var(nam="X"),
        lambda: Const(),
        lambda: Compound("f"),
        lambda: Compound("f", (Var("X"),), ()),
        lambda: Signature((), (), (), ()),
        lambda: Signature(var=("X",)),
    ],
)
def test_wrong_arguments_are_a_type_error(make):
    with pytest.raises(TypeError):
        make()


def test_cli_import_loads_no_dataclasses():
    assert loaded_by_import("termcodec.cli", ("dataclasses", "inspect", "ast", "dis", "tokenize")) == []
