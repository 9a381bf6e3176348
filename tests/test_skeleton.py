import random

import pytest

from termcodec import (
    CodecError,
    Compound,
    Const,
    Var,
    bitpars2term,
    code2term,
    inj_code2term,
    nat2pars,
    parse_term,
    print_term,
    term2bitpars,
    term2code,
    term2inj_code,
)

from conftest import SIG_FG_AB, random_terms, subterms


def test_bitpars_leaf_and_flat_compound():
    assert bitpars2term([0, 1], [42]) == Const(42)
    assert term2bitpars(parse_term("f(a,b)")) == (
        [0, 0, 1, 0, 1, 0, 1, 1],
        ["f", "a", "b"],
    )


@pytest.mark.parametrize(
    "ps,atoms,message",
    [
        ([0, 0, 1, 0], ["f"], "skeleton ends inside an open group"),
        ([0, 0, 1, 0, 0, 0, 1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1], ["f", "g", "a", "g", "b"],
         "unbalanced skeleton"),
        ([0, 0, 1, 0, 1, 1, 0, 1], ["f", "a"], "2 trailing symbols after the skeleton"),
    ],
)
def test_bitpars_decode_error_messages(ps, atoms, message):
    with pytest.raises(CodecError) as info:
        bitpars2term(ps, atoms)
    assert str(info.value) == f"bitpars2term: {message}"


@pytest.mark.parametrize(
    "term",
    [
        Compound("f", ()),
        Compound("g", (Const("a"), Compound("f", ()))),
        Compound("g", (Compound("g", (Compound("f", ()), Var("X"))), Const("a"))),
    ],
)
@pytest.mark.parametrize("encode", [term2bitpars, term2code, term2inj_code])
def test_encoders_reject_compounds_without_arguments(encode, term):
    """A compound needs a functor and at least one argument: the decoders
    reject a group without one, so the encoders must not emit it."""
    with pytest.raises(CodecError, match=r"term2bitpars: compound f\(\) has no arguments"):
        encode(term)


def test_term_code_roundtrip_on_corpus():
    """10^4 random terms; the skeleton code re-inflates to the same skeleton.

    Source codes are capped at 48 bits: the composite code's bitsize grows
    with the product of group sizes down the deepest path, so terms from
    deep codes get skeleton codes of hundreds of kilobits and the corpus
    stops being a unit-scale check.
    """
    for t in random_terms(SIG_FG_AB, 10_000, seed=41, max_bits=48):
        ps, atoms = term2bitpars(t)
        code, atoms2 = term2code(t)
        assert atoms2 == atoms
        assert nat2pars(code) == ps
        assert code2term(code, atoms) == t


def binary_trees(leaves: int):
    if leaves == 1:
        return [Const("a")]
    out = []
    for left in range(1, leaves):
        for lt in binary_trees(left):
            for rt in binary_trees(leaves - left):
                out.append(Compound("f", (lt, rt)))
    return out


def test_structure_code_injective_on_small_trees():
    "Distinct shapes get distinct skeleton codes, atoms aside."
    trees = [t for leaves in range(1, 5) for t in binary_trees(leaves)]
    assert len(trees) == 1 + 1 + 2 + 5
    codes = [term2code(t)[0] for t in trees]
    assert len(set(codes)) == len(trees)
    pairs = {(code, tuple(term2code(t)[1])) for code, t in zip(codes, trees)}
    assert len(pairs) == len(trees)


def test_bitpars_decode_shares_equal_leaves():
    t = parse_term("f(g(a,X),X,42,h(a,42,Y,X))")
    for decoded in (
        bitpars2term(*term2bitpars(t)),
        code2term(*term2code(t)),
        inj_code2term(*term2inj_code(t)),
    ):
        assert decoded == t
        leaves = [x for x in subterms(decoded) if not isinstance(x, Compound)]
        assert len(set(leaves)) == len({id(x) for x in leaves}) == 4  # a, X, 42 and Y, one object each


def test_bitpars_decode_keeps_true_and_1_apart():
    "True is no leaf (it would print as the variable True); 1 stays an int."
    with pytest.raises(CodecError) as info:
        bitpars2term([0, 0, 1, 0, 1, 0, 1, 1], ["f", 1, True])
    assert str(info.value) == "bitpars2term: True is not a variable, symbol, or integer"
    t = bitpars2term([0, 0, 1, 0, 1, 1], ["f", 1])
    assert type(t.args[0].symbol) is int


@pytest.mark.parametrize("atom", [[1], -3, "a b", 1.5, None])
@pytest.mark.parametrize("slot", [0, 1])
def test_bitpars_decode_rejects_bad_atoms(atom, slot):
    ps = [0, 0, 1, 0, 1, 0, 0, 0, 1, 0, 1, 1, 1, 1]  # f(a, g(b))
    atoms = ["f", "a", "g", "b"]
    atoms[[1, 3][slot]] = atom
    with pytest.raises(CodecError):
        bitpars2term(ps, atoms)
    with pytest.raises(CodecError):
        bitpars2term([0, 1], [atom])


def balanced_term(rng, depth):
    """A complete tree whose arity cycles 2, 3, 4 with depth."""
    if depth == 0:
        return rng.choice([Var("X"), Var("Y"), Const("a"), Const("b"), Const(0), Const(42)])
    k = 2 + depth % 3
    return Compound(rng.choice("fgh"), tuple(balanced_term(rng, depth - 1) for _ in range(k)))


def test_term_code_roundtrip_at_10_pow_5_bits():
    t = balanced_term(random.Random(7), 8)
    text = print_term(t)
    code, atoms = term2code(t)
    assert code.bit_length() >= 10**5
    assert print_term(code2term(code, atoms)) == text
    inj, atoms = term2inj_code(t)
    assert print_term(inj_code2term(inj, atoms)) == text
