import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from termcodec import (
    CodecError,
    Compound,
    Const,
    Signature,
    SignatureError,
    Var,
    nat2term,
    parse_term,
    print_term,
    ranterm,
    term2nat,
)

from conftest import SIG_FG_A, SIG_FG_AB, SIG_IMP, random_terms


def test_encode_worked_example(sig_fg_a):
    t = parse_term("f(a,f(X,g(Y)))")
    assert term2nat(sig_fg_a, t) == 17439
    assert nat2term(sig_fg_a, 17439) == t


def test_decode_worked_example_two_constants(sig_fg_ab):
    t = nat2term(sig_fg_ab, 2012)
    assert print_term(t) == "f(f(Y,b),f(b,a))"
    assert term2nat(sig_fg_ab, t) == 2012


def test_decode_worked_example_implication(sig_imp):
    t = nat2term(sig_imp, 2012)
    assert print_term(t) == "imp(imp(imp(B,A),imp(z,A)),imp(imp(z,A),B))"
    assert term2nat(sig_imp, t) == 2012


def test_leaf_band_order(sig_fg_ab):
    "Codes below lvc enumerate variables first, then constants, in order."
    assert nat2term(sig_fg_ab, 0) == Var("X")
    assert nat2term(sig_fg_ab, 1) == Var("Y")
    assert nat2term(sig_fg_ab, 2) == Const("a")
    assert nat2term(sig_fg_ab, 3) == Const("b")
    assert term2nat(sig_fg_ab, Var("X")) == 0
    assert term2nat(sig_fg_ab, Const("b")) == 3


@pytest.mark.parametrize("sig", [SIG_FG_A, SIG_FG_AB, SIG_IMP])
def test_decode_encode_identity(sig):
    for n in range(3000):
        assert term2nat(sig, nat2term(sig, n)) == n


def test_encode_decode_identity_on_random_corpus(sig_fg_ab):
    for t in random_terms(SIG_FG_AB, 500, seed=11):
        assert nat2term(sig_fg_ab, term2nat(sig_fg_ab, t)) == t


def test_unranking_is_injective(sig_imp):
    terms = {nat2term(sig_imp, n) for n in range(2000)}
    assert len(terms) == 2000


@pytest.mark.parametrize("sig", [SIG_FG_A, SIG_IMP])
@given(n=st.integers(0, 2**256))
@settings(max_examples=60)
def test_decode_encode_identity_big(sig, n):
    assert term2nat(sig, nat2term(sig, n)) == n


def test_deep_unary_chain():
    "A unary-only signature decodes to chains; depth equals the code."
    sig = Signature((), ("a",), (("g", 1),))
    depth = 100_000
    t = nat2term(sig, depth)
    count = 0
    while isinstance(t, Compound):
        count += 1
        (t,) = t.args
    assert t == Const("a")
    assert count == depth
    assert term2nat(sig, nat2term(sig, depth)) == depth


def test_signature_without_functors_is_finite():
    sig = Signature(("X",), ("a", "b"), ())
    assert [nat2term(sig, n) for n in range(3)] == [Var("X"), Const("a"), Const("b")]
    with pytest.raises(CodecError):
        nat2term(sig, 3)


def test_encode_rejects_foreign_symbols(sig_fg_a):
    with pytest.raises(CodecError, match="variable Z"):
        term2nat(sig_fg_a, Var("Z"))
    with pytest.raises(CodecError, match="constant 'b'"):
        term2nat(sig_fg_a, Const("b"))
    with pytest.raises(CodecError, match="functor h/1"):
        term2nat(sig_fg_a, Compound("h", (Const("a"),)))
    with pytest.raises(CodecError, match="functor f/3"):
        term2nat(sig_fg_a, Compound("f", (Const("a"),) * 3))
    with pytest.raises(CodecError, match="constant 42"):
        term2nat(sig_fg_a, Const(42))


@pytest.mark.parametrize(
    "term,message",
    [
        (parse_term("f(a,g(Z))"), "variable Z"),
        (parse_term("f(h(a),b)"), "functor h/1"),
        (Compound("f", (Const("a"), Compound("g", ("a",)))), "not a term"),
    ],
)
def test_encode_rejects_nested_foreign_symbols(sig_fg_ab, term, message):
    with pytest.raises(CodecError, match=message):
        term2nat(sig_fg_ab, term)


@pytest.mark.parametrize(
    "leaf,message",
    [
        (Const([1]), r"^term2nat: \[1\] is not a variable, symbol, or integer$"),
        (Var(["x"]), r"^term2nat: \['x'\] is not a variable, symbol, or integer$"),
        (Compound(["f"], (Const("a"), Var("X"))), r"^term2nat: functor \['f'\] is not a symbol$"),
    ],
)
@pytest.mark.parametrize("nested", [False, True])
def test_encode_rejects_unhashable_symbols(sig_fg_ab, leaf, message, nested):
    term = Compound("f", (Const("a"), Compound("g", (leaf,)))) if nested else leaf
    with pytest.raises(CodecError, match=message):
        term2nat(sig_fg_ab, term)


def test_decoded_and_parsed_terms_share_equal_leaves(sig_fg_ab):
    t = nat2term(sig_fg_ab, random.Random(5).getrandbits(10**5))
    text = print_term(t)
    parsed = parse_term(text)
    assert parsed == t
    for term in (t, parsed):
        ids = {}
        work = [term]
        while work:
            node = work.pop()
            if isinstance(node, Compound):
                work.extend(node.args)
            else:
                ids.setdefault(node, set()).add(id(node))
        assert len(ids) == 4  # X, Y, a and b all occur
        assert all(len(s) == 1 for s in ids.values())


def test_decode_rejects_negative(sig_fg_a):
    with pytest.raises(CodecError):
        nat2term(sig_fg_a, -1)


def test_invalid_signature_rejected_on_use():
    bad = Signature(("X", "X"), ("a",), ())
    with pytest.raises(SignatureError):
        nat2term(bad, 0)
    with pytest.raises(SignatureError):
        term2nat(bad, Const("a"))


def test_ranterm_deterministic(sig_fg_ab):
    a = [print_term(ranterm(sig_fg_ab, 64, random.Random(9))) for _ in range(5)]
    b = [print_term(ranterm(sig_fg_ab, 64, random.Random(9))) for _ in range(5)]
    assert a == b


def test_ranterm_draws_distinct_terms(sig_fg_ab):
    rng = random.Random(3)
    seen = {print_term(ranterm(sig_fg_ab, 128, rng)) for _ in range(50)}
    assert len(seen) > 1


def test_ranterm_domain_errors(sig_fg_ab):
    with pytest.raises(CodecError):
        ranterm(sig_fg_ab, 0, random.Random(0))
    with pytest.raises(CodecError):
        ranterm(Signature(("X",), (), ()), 8, random.Random(0))
