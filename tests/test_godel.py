import math
import random
import time
import tracemalloc

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
from termcodec.godel import CACHED_SIGNATURES, TABLE_SLOTS, _index, _nodes

from conftest import SIG_FG_A, SIG_FG_AB, SIG_H3, SIG_IMP, loaded_by_import, plain, ref, subterms


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


@pytest.mark.parametrize("levels,chars,bits", [
    (10, 51, 3_071), (15, 76, 98_303), (20, 101, 3_145_727), (22, 111, 12_582_911),
])
def test_right_comb_code_doubles_with_each_level(levels, chars, bits):
    "README's combs: f(a,f(a,...f(a,a)...)) gets 3 * 2^levels - 1 bits, so not 0.53 bit/char."
    text = "f(a," * levels + "a" + ")" * levels
    assert len(text) == chars
    assert term2nat(SIG_FG_AB, parse_term(text)).bit_length() == bits


def test_signature_without_functors_is_finite():
    sig = Signature(("X",), ("a", "b"), ())
    assert [nat2term(sig, n) for n in range(3)] == [Var("X"), Const("a"), Const("b")]
    assert _nodes(sig) == (Var("X"), Const("a"), Const("b"))
    with pytest.raises(CodecError, match=r"^nat2term: code 3 requires a function symbol but "
                       r"the signature declares none \(codes beyond 2 are undecodable\)$"):
        nat2term(sig, 3)
    with pytest.raises(CodecError, match=r"^ranterm: signature declares no function symbols$"):
        ranterm(Signature(("X",), (), ()), 8, random.Random(0))


WIDE = Signature(("X",), ("a",), (("f", 65_536),))
MANY_VARS = Signature(tuple(f"V{i}" for i in range(2_000)), ("a",), (("f", 2), ("g", 1)))


@pytest.mark.parametrize("sig", [SIG_FG_AB, SIG_IMP, SIG_H3, MANY_VARS],
                         ids=["fg_ab", "imp", "h3", "many_vars"])
def test_small_codes_decode_to_their_shared_table_nodes(sig):
    table = _nodes(sig)
    for c in range(len(table) + 64):
        t = nat2term(sig, c)
        assert print_term(t) == ref.nat2term(plain(sig), c)
        if c < len(table):
            assert t is table[c]


@pytest.mark.parametrize("sig", [SIG_FG_AB, SIG_IMP, SIG_H3, MANY_VARS, WIDE],
                         ids=["fg_ab", "imp", "h3", "many_vars", "wide"])
def test_node_table_holds_at_most_its_slot_bound(sig):
    table = _nodes(sig)
    slots = sum(len(t.args) for t in table[sig.lvc:])
    assert len(table) <= sig.lvc + TABLE_SLOTS and slots <= TABLE_SLOTS
    next_arity = sig.funs[(len(table) - sig.lvc) % sig.lf][1]
    assert slots + next_arity > TABLE_SLOTS  # the next compound would pass the bound


def test_node_table_size_for_the_example_signature():
    "341 f/g pairs take 1023 slots; the next f would take two more."
    assert len(_nodes(SIG_FG_AB)) == 4 + 682


def test_a_wide_functor_leaves_a_table_of_leaves():
    start = time.perf_counter()
    table = _nodes.__wrapped__(WIDE)  # built afresh, not read from the cache
    assert time.perf_counter() - start < 0.01
    assert table == _nodes(WIDE) == (Var("X"), Const("a"))
    assert print_term(nat2term(WIDE, 5)) == ref.nat2term(plain(WIDE), 5)


def test_small_subterms_of_a_large_decoded_term_are_table_nodes():
    table = _nodes(SIG_FG_AB)
    n = random.Random(24).getrandbits(10**4)
    work = [(nat2term(SIG_FG_AB, n), n)]  # each subterm with its code
    shared = 0
    while work:
        t, c = work.pop()
        if c < len(table):
            assert t is table[c]
            shared += 1
        if isinstance(t, Compound):
            payload = (c - SIG_FG_AB.lvc) // SIG_FG_AB.lf
            work.extend(zip(t.args, ref.to_tuple(len(t.args), payload)))
    assert shared > 1000


def test_encoding_builds_no_node_table():
    sig = Signature(("X",), ("a",), (("enc", 2),))  # no other test decodes under it
    before = _nodes.cache_info().misses  # a full bounded cache keeps its currsize
    text = "enc(a,enc(X,a))"
    assert term2nat(sig, parse_term(text)) == ref.term2nat(plain(sig), text)
    assert _nodes.cache_info().misses == before


def test_per_signature_caches_stay_bounded():
    """Decodes under 300 signatures keep at most CACHED_SIGNATURES indexes and
    node tables. f/1024 fills each table's slots with one compound, so a
    table holds about 9 KB and builds fast; the last 100 decodes are traced."""
    sigs = [Signature(("X",), (f"bound{i}",), (("f", 1024),)) for i in range(300)]
    for sig in sigs[:200]:
        nat2term(sig, 1)
    tracemalloc.start()
    try:
        for sig in sigs[200:]:
            nat2term(sig, 1)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert _index.cache_info().currsize <= CACHED_SIGNATURES
    assert _nodes.cache_info().currsize <= CACHED_SIGNATURES
    assert held < 500_000  # 32 tables hold about 300 KB; 100 would hold about 900 KB


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
        leaves = [x for x in subterms(term) if not isinstance(x, Compound)]
        assert len(set(leaves)) == len({id(x) for x in leaves}) == 4  # X, Y, a and b, one object each


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


def test_package_import_loads_no_random():
    """ranterm takes any rng with getrandbits, so only the CLI, which seeds
    one for random-term and stats, imports random."""
    assert loaded_by_import("termcodec", ("random",)) == []
    assert loaded_by_import("termcodec.cli", ("random",)) == ["random"]


def test_information_floor_from_exact_counts():
    "README's floor: SIG_FG_AB has about 5^n terms of n nodes, so a code needs log2 5 bits/node."
    t = [0, 4]  # t[n] terms of n nodes: the 4 leaves, then g of n - 1 nodes or f of n - 1 in all
    for n in range(2, 1001):
        t.append(t[n - 1] + sum(a * b for a, b in zip(t[1 : n - 1], reversed(t[1 : n - 1]))))
    assert abs(math.log2(t[1000]) / 1000 / math.log2(5) - 1) < 0.02
