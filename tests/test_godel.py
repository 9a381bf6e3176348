import math
import random

import pytest

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

from conftest import SIG_FG_A, SIG_FG_AB, SIG_IMP


def test_encode_worked_example():
    t = parse_term("f(a,f(X,g(Y)))")
    assert term2nat(SIG_FG_A, t) == 17439
    assert nat2term(SIG_FG_A, 17439) == t


def test_decode_worked_example_two_constants():
    t = nat2term(SIG_FG_AB, 2012)
    assert print_term(t) == "f(f(Y,b),f(b,a))"
    assert term2nat(SIG_FG_AB, t) == 2012


def test_decode_worked_example_implication():
    t = nat2term(SIG_IMP, 2012)
    assert print_term(t) == "imp(imp(imp(B,A),imp(z,A)),imp(imp(z,A),B))"
    assert term2nat(SIG_IMP, t) == 2012


def test_leaf_band_order():
    "Codes below lvc enumerate variables first, then constants, in order."
    assert nat2term(SIG_FG_AB, 0) == Var("X")
    assert nat2term(SIG_FG_AB, 1) == Var("Y")
    assert nat2term(SIG_FG_AB, 2) == Const("a")
    assert nat2term(SIG_FG_AB, 3) == Const("b")
    assert term2nat(SIG_FG_AB, Var("X")) == 0
    assert term2nat(SIG_FG_AB, Const("b")) == 3


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


def test_encode_rejects_foreign_symbols():
    with pytest.raises(CodecError, match="variable Z"):
        term2nat(SIG_FG_A, Var("Z"))
    with pytest.raises(CodecError, match="constant 'b'"):
        term2nat(SIG_FG_A, Const("b"))
    with pytest.raises(CodecError, match="functor h/1"):
        term2nat(SIG_FG_A, Compound("h", (Const("a"),)))
    with pytest.raises(CodecError, match="functor f/3"):
        term2nat(SIG_FG_A, Compound("f", (Const("a"),) * 3))
    with pytest.raises(CodecError, match="constant 42"):
        term2nat(SIG_FG_A, Const(42))


@pytest.mark.parametrize(
    "term,message",
    [
        (parse_term("f(a,g(Z))"), "variable Z"),
        (parse_term("f(h(a),b)"), "functor h/1"),
        (Compound("f", (Const("a"), Compound("g", ("a",)))), "not a term"),
    ],
)
def test_encode_rejects_nested_foreign_symbols(term, message):
    with pytest.raises(CodecError, match=message):
        term2nat(SIG_FG_AB, term)


@pytest.mark.parametrize(
    "leaf,message",
    [
        (Const([1]), r"^term2nat: \[1\] is not a variable, symbol, or integer$"),
        (Var(["x"]), r"^term2nat: \['x'\] is not a variable, symbol, or integer$"),
        (Compound(["f"], (Const("a"), Var("X"))), r"^term2nat: functor \['f'\] is not a symbol$"),
    ],
)
@pytest.mark.parametrize("nested", [False, True])
def test_encode_rejects_unhashable_symbols(leaf, message, nested):
    term = Compound("f", (Const("a"), Compound("g", (leaf,)))) if nested else leaf
    with pytest.raises(CodecError, match=message):
        term2nat(SIG_FG_AB, term)


def test_decoded_and_parsed_terms_share_equal_leaves():
    t = nat2term(SIG_FG_AB, random.Random(5).getrandbits(10**5))
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


def test_decode_rejects_negative():
    with pytest.raises(CodecError):
        nat2term(SIG_FG_A, -1)


def test_invalid_signature_rejected_on_use():
    bad = Signature(("X", "X"), ("a",), ())
    with pytest.raises(SignatureError):
        nat2term(bad, 0)
    with pytest.raises(SignatureError):
        term2nat(bad, Const("a"))


def test_ranterm_deterministic():
    a = [print_term(ranterm(SIG_FG_AB, 64, random.Random(9))) for _ in range(5)]
    b = [print_term(ranterm(SIG_FG_AB, 64, random.Random(9))) for _ in range(5)]
    assert a == b


def test_ranterm_draws_distinct_terms():
    rng = random.Random(3)
    seen = {print_term(ranterm(SIG_FG_AB, 128, rng)) for _ in range(50)}
    assert len(seen) > 1


def test_ranterm_domain_errors():
    with pytest.raises(CodecError):
        ranterm(SIG_FG_AB, 0, random.Random(0))
    with pytest.raises(CodecError):
        ranterm(Signature(("X",), (), ()), 8, random.Random(0))


def test_information_floor_from_exact_counts():
    "README's floor: SIG_FG_AB has about 5^n terms of n nodes, so a code needs log2 5 bits/node."
    t = [0, 4]  # t[n] terms of n nodes: the 4 leaves, then g of n - 1 nodes or f of n - 1 in all
    for n in range(2, 1001):
        t.append(t[n - 1] + sum(a * b for a, b in zip(t[1 : n - 1], reversed(t[1 : n - 1]))))
    assert abs(math.log2(t[1000]) / 1000 / math.log2(5) - 1) < 0.02
