import os
import sys
import time

import pytest
from hypothesis import given
import hypothesis.strategies as st

from termcodec import (
    Compound,
    Const,
    CodecError,
    ParseError,
    Signature,
    SignatureError,
    Var,
    load_signature,
    parse_signature,
    parse_term,
    print_term,
    validate_signature,
)
from termcodec.terms import MAX_ARITY

from conftest import BOM_SIG


def test_parse_leaves():
    assert parse_term("X") == Var("X")
    assert parse_term("Xs_1") == Var("Xs_1")
    assert parse_term("a") == Const("a")
    assert parse_term("ab_c1") == Const("ab_c1")
    assert parse_term("42") == Const(42)
    assert parse_term("0") == Const(0)


def test_parse_compound():
    t = parse_term("f(a,f(X,g(Y)))")
    assert t == Compound(
        "f",
        (Const("a"), Compound("f", (Var("X"), Compound("g", (Var("Y"),))))),
    )


def test_parse_ignores_whitespace():
    assert parse_term(" f( a ,\tX , 42 ) ") == parse_term("f(a,X,42)")


def test_print_canonical():
    t = parse_term("f( g( a , X ), X , 42 )")
    assert print_term(t) == "f(g(a,X),X,42)"
    assert print_term(Var("X")) == "X"
    assert print_term(Const(7)) == "7"


@pytest.mark.parametrize(
    "term",
    [
        Compound("f", ()),
        Compound("g", (Const("a"), Compound("f", ()))),
        Compound("g", (Compound("g", (Compound("f", ()), Var("X"))), Const("a"))),
    ],
)
def test_print_rejects_compounds_without_arguments(term):
    """f() is not term text (parse_term rejects it), so print_term must not
    produce it, at the top or nested."""
    with pytest.raises(CodecError, match=r"print_term: compound f\(\) has no arguments"):
        print_term(term)


@pytest.mark.parametrize(
    "term,item",
    [
        (Compound("f", ("X",)), "'X'"),
        (Compound("f", (Const("a"), "a")), "'a'"),
        (Compound("f", (Compound("g", (",",)),)), "','"),
        ("X", "'X'"),
    ],
)
def test_print_rejects_bare_strings(term, item):
    """A string is not a term: print_term must not emit it verbatim, where
    f(X) would re-parse as f(Var('X'))."""
    with pytest.raises(CodecError) as info:
        print_term(term)
    assert str(info.value) == f"print_term: not a term: {item}"


def test_parse_print_deeply_nested():
    "The walker must survive nesting far past the interpreter stack limit."
    depth = 50_000
    text = "g(" * depth + "a" + ")" * depth
    t = parse_term(text)
    assert print_term(t) == text


@pytest.mark.parametrize(
    "bad,position",
    [
        ("", 0),
        ("f(", 2),
        ("f()", 2),
        ("f(a", 3),
        ("f(a,,b)", 4),
        ("f(a))", 4),
        ("f(a) x", 5),
        (")", 0),
        (",", 0),
        ("f(a,)", 4),
    ],
)
def test_parse_errors_carry_position(bad, position):
    with pytest.raises(ParseError) as exc:
        parse_term(bad)
    assert exc.value.position == position
    assert f"position {position}" in str(exc.value)


def test_parse_rejects_unknown_characters():
    with pytest.raises(ParseError):
        parse_term("f(a-b)")
    with pytest.raises(ParseError):
        parse_term("f(@)")


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit"
)
def test_int_digit_limit_is_a_codec_error():
    "Past the interpreter's int<->str digit limit, both directions say so."
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ParseError, match=r"limit \(4300 digits\)") as exc:
            parse_term("f(" + "1" * 5000 + ")")
        assert exc.value.position == 2
        with pytest.raises(CodecError, match=r"limit \(4300 digits\)"):
            print_term(Const(10**5000))
    finally:
        sys.set_int_max_str_digits(old)


def test_uppercase_functor_rejected():
    with pytest.raises(ParseError):
        parse_term("F(a)")


def test_signature_counts():
    sig = Signature(("X", "Y"), ("a",), (("f", 2), ("g", 1)))
    assert (sig.lv, sig.lc, sig.lf, sig.lvc) == (2, 1, 2, 3)


def test_parse_signature_text():
    sig = parse_signature(
        """
        # propositional implication fragment
        vars: A B
        consts: z
        funs: imp/2
        """
    )
    assert sig == Signature(("A", "B"), ("z",), (("imp", 2),))


def test_parse_signature_repeated_lines_extend():
    sig = parse_signature("vars: X\nvars: Y\nconsts: a b\nfuns: f/2\nfuns: g/1")
    assert sig == Signature(("X", "Y"), ("a", "b"), (("f", 2), ("g", 1)))


def test_parse_signature_order_preserved():
    sig = parse_signature("vars: Y X\nconsts: b a\nfuns: g/1 f/2")
    assert sig.vars == ("Y", "X")
    assert sig.consts == ("b", "a")
    assert sig.funs == (("g", 1), ("f", 2))


@pytest.mark.parametrize(
    "text",
    [
        "vars: X X\nconsts: a",            # duplicate variable
        "vars: X\nconsts: a a",            # duplicate constant
        "funs: f/2",                       # no variable or constant at all
        "vars: x\nconsts: a",              # lowercase variable
        "consts: A",                       # uppercase constant
        "consts: a\nfuns: f/0",            # nullary functor
        "consts: a\nfuns: f",              # missing arity
        "consts: a\nfuns: f/two",          # non-numeric arity
        "consts: a\nfuns: f/2 f/2",        # duplicate functor/arity
        "constants: a",                    # unknown section key
    ],
)
def test_signature_errors(text):
    with pytest.raises(SignatureError):
        parse_signature(text)


@pytest.mark.parametrize(
    "check,arg,message",
    [
        (validate_signature, Signature(("X",), (), (("f", 2, 3),)),
         "invalid functor entry ('f', 2, 3)"),
        (parse_signature, "vars: X\nfuns: F/2",
         "invalid functor name 'F' (expected [a-z][a-z0-9_]*)"),
        (parse_signature, "vars: X\nfuns: f/65537",
         "functor f has arity 65537; arity must be <= 65536"),
        # a digit to str.isdigit, but not to int
        (parse_signature, "vars: X\nfuns: f/\u00b2",
         "line 2: functor 'f/\u00b2' must be written name/arity"),
    ],
)
def test_signature_error_messages(check, arg, message):
    with pytest.raises(SignatureError) as info:
        check(arg)
    assert str(info.value) == message


def test_arity_is_bounded(tmp_path):
    assert MAX_ARITY == 65_536
    assert parse_signature("vars: X\nfuns: f/65536").funs == (("f", 65_536),)
    path = tmp_path / "huge.sig"
    path.write_text("vars: X\nfuns: f/1000000000\n")
    start = time.perf_counter()
    with pytest.raises(SignatureError) as info:
        load_signature(str(path))
    assert time.perf_counter() - start < 0.01
    assert str(info.value) == "functor f has arity 1000000000; arity must be <= 65536"
    # leading zeros do not count towards the bound
    assert parse_signature("vars: X\nfuns: f/00001 g/0065536").funs == (("f", 1), ("g", 65_536))
    with pytest.raises(SignatureError) as info:
        parse_signature("vars: X\nfuns: f/000000")
    assert str(info.value) == "functor f has arity 0; arity must be >= 1"


def test_same_functor_at_two_arities_is_allowed():
    sig = parse_signature("consts: a\nfuns: f/1 f/2")
    validate_signature(sig)
    assert sig.funs == (("f", 1), ("f", 2))


def test_load_signature(tmp_path):
    path = tmp_path / "ex.sig"
    path.write_text("vars: X Y # two variables\nconsts: a\nfuns: f/2 g/1\n")
    assert load_signature(str(path)) == Signature(
        ("X", "Y"), ("a",), (("f", 2), ("g", 1))
    )


def test_load_signature_leaves_a_descriptor_open(tmp_path):
    path = tmp_path / "x.sig"
    path.write_text("vars: X\n")
    with open(path, "rb") as fh:
        with pytest.raises(SignatureError) as info:
            load_signature(fh.fileno())
        assert str(info.value) == f"load_signature: path must be a string or path (got {fh.fileno()})"
        assert fh.read() == b"vars: X\n"  # neither closed nor read
    assert load_signature(path) == load_signature(os.fsencode(path)) == Signature(("X",))


def test_load_signature_drops_a_byte_order_mark():
    assert load_signature(BOM_SIG) == Signature(("X",), ("a",), (("f", 2),))


def test_byte_order_mark_keeps_the_files_own_offsets(tmp_path):
    path = tmp_path / "bom_bad.sig"
    path.write_bytes(b"\xef\xbb\xbfvars: X\xff")  # 0xff is byte 10 of the file
    with pytest.raises(SignatureError) as info:
        load_signature(str(path))
    assert str(info.value) == f"{path}: invalid UTF-8 at byte offset 10 (0xff)"


# Text over the term alphabet, whole tokens among it so that some of it
# parses, plus characters the grammar rejects.
TERM_TEXT = st.one_of(
    st.text(st.sampled_from("fgXY_0123456789(),abZ \t\n-$é @")),
    st.lists(st.sampled_from(["f(", "g(", "a", "X", "42", ",", ")", " ", "é", "F("])).map("".join),
)


@given(TERM_TEXT)
def test_text_parses_to_a_fixed_point_or_fails_inside_it(text):
    try:
        t = parse_term(text)
    except ParseError as exc:
        assert 0 <= exc.position <= len(text)
        return
    printed = print_term(t)
    assert parse_term(printed) == t
    assert print_term(parse_term(printed)) == printed
