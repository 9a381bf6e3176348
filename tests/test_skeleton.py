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
    nat2nats,
    nat2pars,
    nats2nat,
    pars2nat,
    parse_term,
    print_term,
    term2bitpars,
    term2code,
    term2inj_code,
)

from conftest import SIG_FG_AB, random_terms

PS_18 = [0, 0, 1, 0, 0, 0, 1, 0, 1, 0, 1, 1, 1, 0, 1, 0, 1, 1]
PS_2012 = [0, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 1, 0, 1, 1, 1]


def test_bitpars_worked_example():
    t = parse_term("f(g(a,X),X,42)")
    ps, atoms = term2bitpars(t)
    assert ps == PS_18
    assert atoms == ["f", "g", "a", "X", "X", 42]
    assert bitpars2term(ps, atoms) == t


def test_bitpars_leaf_and_flat_compound():
    assert term2bitpars(Const("a")) == ([0, 1], ["a"])
    assert term2bitpars(Var("X")) == ([0, 1], ["X"])
    assert bitpars2term([0, 1], ["X"]) == Var("X")
    assert bitpars2term([0, 1], [42]) == Const(42)
    assert term2bitpars(parse_term("f(a,b)")) == (
        [0, 0, 1, 0, 1, 0, 1, 1],
        ["f", "a", "b"],
    )


def test_bitpars_decode_errors():
    ps_fab = [0, 0, 1, 0, 1, 0, 1, 1]
    with pytest.raises(CodecError, match="functor and at least one argument"):
        bitpars2term([0, 0, 1, 1], ["a"])
    with pytest.raises(CodecError, match="1 atom"):
        bitpars2term([0, 1], ["a", "b"])
    with pytest.raises(CodecError, match="1 atom"):
        bitpars2term([0, 1], [])
    with pytest.raises(CodecError, match="more leaves"):
        bitpars2term(ps_fab, ["f", "a"])
    with pytest.raises(CodecError, match="atoms were given"):
        bitpars2term(ps_fab, ["f", "a", "b", "c"])
    with pytest.raises(CodecError, match="functor slot"):
        bitpars2term(ps_fab, ["X", "a", "b"])
    with pytest.raises(CodecError, match="functor slot"):
        bitpars2term(ps_fab, [7, "a", "b"])
    with pytest.raises(CodecError, match="functor slot"):
        # first member of the outer group is itself a group
        bitpars2term([0, 0] + ps_fab + [1, 0, 1, 1], ["f", "a", "b", "c"])
    with pytest.raises(CodecError, match="open group"):
        bitpars2term([0, 0, 1], ["a"])
    with pytest.raises(CodecError, match="not 0 or 1"):
        bitpars2term([0, 2, 1], ["a"])
    with pytest.raises(CodecError, match="is not a variable"):
        bitpars2term([0, 1], ["not a name"])
    with pytest.raises(CodecError, match="negative"):
        bitpars2term([0, 1], [-3])


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


def test_inj_code_worked_example():
    t = parse_term("f(a,g(X,Y),g(Y,X))")
    code, atoms = term2inj_code(t)
    assert code == 131364115
    assert atoms == ["f", "a", "g", "X", "Y", "g", "Y", "X"]
    assert inj_code2term(code, atoms) == t


def test_inj_code_leaf():
    assert term2inj_code(Const("a")) == (5, ["a"])
    assert inj_code2term(5, ["a"]) == Const("a")


def test_inj_code_rejects_unbalanced_digits():
    with pytest.raises(CodecError):
        inj_code2term(7, ["a"])
    with pytest.raises(CodecError):
        inj_code2term(0, [])


def test_nats_worked_example():
    assert nat2nats(2012) == [7, 7, 2]
    assert nats2nat([7, 7, 2]) == 2012


def test_nats_small_values():
    assert nat2nats(0) == []
    assert nats2nat([]) == 0
    assert nat2nats(1) == [0]
    assert nats2nat([0]) == 1


def test_nats_domain_errors():
    with pytest.raises(CodecError):
        nat2nats(-1)
    with pytest.raises(CodecError):
        nats2nat([1, -2])


def test_pars_worked_example():
    assert nat2pars(2012) == PS_2012
    assert pars2nat(PS_2012) == 2012


def test_pars_small_values():
    assert nat2pars(0) == [0, 1]
    assert nat2pars(1) == [0, 0, 1, 1]
    assert pars2nat([0, 1]) == 0
    assert pars2nat([0, 0, 1, 1]) == 1


def test_pars_domain_errors():
    with pytest.raises(CodecError, match="empty"):
        pars2nat([])
    with pytest.raises(CodecError, match="open with 0"):
        pars2nat([1, 0])
    with pytest.raises(CodecError, match="never closed"):
        pars2nat([0, 0, 1])
    with pytest.raises(CodecError, match="trailing"):
        pars2nat([0, 1, 0, 1])
    with pytest.raises(CodecError, match="not 0 or 1"):
        pars2nat([0, 2, 1])
    with pytest.raises(CodecError):
        nat2pars(-1)


def test_term_code_worked_example():
    t = parse_term("f(a,g(X,Y),g(Y,X))")
    code, atoms = term2code(t)
    assert code == 786632
    assert atoms == ["f", "a", "g", "X", "Y", "g", "Y", "X"]
    assert code2term(code, atoms) == t


def test_term_code_leaf():
    assert term2code(Const("a")) == (0, ["a"])
    assert code2term(0, ["a"]) == Const("a")


def test_term_code_rejects_non_term_skeletons():
    # nat2pars(1) is a single-child group, outside the term image
    with pytest.raises(CodecError):
        code2term(1, ["a"])


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


def leaf_nodes(t):
    work, leaves = [t], []
    while work:
        node = work.pop()
        if isinstance(node, Compound):
            work.extend(node.args)
        else:
            leaves.append(node)
    return leaves


def test_bitpars_decode_shares_equal_leaves():
    t = parse_term("f(g(a,X),X,42,h(a,42,Y,X))")
    for decoded in (
        bitpars2term(*term2bitpars(t)),
        code2term(*term2code(t)),
        inj_code2term(*term2inj_code(t)),
    ):
        assert decoded == t
        ids = {}
        for leaf in leaf_nodes(decoded):
            ids.setdefault(leaf, set()).add(id(leaf))
        assert len(ids) == 4  # a, X, 42 and Y
        assert all(len(s) == 1 for s in ids.values())


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
