"""One row per public codec pair; tests/test_laws.py checks every row, so a new
codec pair is one more row. A Bijection gives decode and encode, small codes
and values (exhaustive, plus fixed samples; functions, built when a law runs),
strategies for large ones, the decode and encode of bench/reference.py, and
the codes where they are cheap, on which both run. A codec with a parameter
carries it, as to_tuple decodes (k, n). An Injection gives encode and its
partial inverse, a corpus of terms decoded from uniform codes under SIG_FG_AB,
each with the text the reference decodes its code to, and a reference from it."""

import random
from collections import namedtuple
from functools import partial
from itertools import accumulate, chain, product
from string import ascii_lowercase as AZ

import hypothesis.strategies as st

import termcodec as tc

from conftest import SIG_FG_A, SIG_FG_AB, SIG_H3, SIG_IMP, plain, random_codes, random_terms, ref

Bijection = namedtuple("Bijection", "id names decode encode codes big_codes values big_values ref ref_codes")
Injection = namedtuple("Injection", "names encode decode corpus ref")


def single_groups(max_len):
    """Every balanced sequence of at most max_len symbols that is one group."""
    return [[0, *b, 1] for size in range(0, max_len - 1, 2) for b in product((0, 1), repeat=size)
            if b.count(1) * 2 == size and min(accumulate(1 - 2 * s for s in b), default=0) >= 0]


def random_lists(seed, count):
    rng = random.Random(seed)
    return [[rng.getrandbits(rng.randint(0, 300)) for _ in range(rng.randint(0, 9))] for _ in range(count)]


def godel(tag, sig, corpus_size):
    small = leaves = [*map(tc.Var, sig.vars), *map(tc.Const, sig.consts)]
    for _ in range(2):  # then every term with at most two levels of compounds
        small = leaves + [tc.Compound(f, a) for f, k in sig.funs for a in product(small, repeat=k)]
    big = st.recursive(st.sampled_from(leaves), lambda kids: st.one_of(  # at most 16 leaves: codes double per level
        [st.tuples(*[kids] * k).map(partial(tc.Compound, f)) for f, k in sig.funs]), max_leaves=16)
    return Bijection(
        f"nat2term[{tag}]", ("nat2term", "term2nat"), partial(tc.nat2term, sig), partial(tc.term2nat, sig),
        lambda: range(2**12), st.integers(0, 2**256), lambda: [*small, *random_terms(sig, corpus_size, seed=11)], big,
        (lambda n: tc.parse_term(ref.nat2term(plain(sig), n)), lambda t: ref.term2nat(plain(sig), tc.print_term(t))),
        lambda: range(2**8))


BIJECTIONS = [
    Bijection("to_tuple", ("to_tuple", "from_tuple"), lambda c: tc.to_tuple(*c), lambda x: (len(x), tc.from_tuple(x)),
              lambda: product(range(1, 7), range(2**14)), st.tuples(st.integers(1, 6), st.integers(0, 2**512)),
              lambda: (list(x) for k in range(1, 8) for x in product(range(16 if k < 5 else 2), repeat=k)),
              st.lists(st.integers(0, 2**128), min_size=1, max_size=6),
              (lambda c: ref.to_tuple(*c), lambda x: (len(x), ref.from_tuple(x))),
              lambda: product(range(1, 8), range(2**10))),
    Bijection("to_pair", ("to_pair", "from_pair"), tc.to_pair, lambda x: tc.from_pair(*x), lambda: range(2**14),
              st.integers(0, 2**512), lambda: product(range(16), repeat=2), st.tuples(*[st.integers(0, 2**512)] * 2),
              (lambda n: tuple(ref.to_tuple(2, n)), lambda x: ref.from_tuple(list(x))), lambda: range(2**10)),
    Bijection("decons", ("decons", "cons"), tc.decons, lambda x: tc.cons(*x), lambda: range(1, 10_000),  # Nat+ -> Nat^2
              st.integers(1, 2**256), lambda: product(range(64), repeat=2),
              st.tuples(st.integers(0, 2**16), st.integers(0, 2**256)),  # x is an exponent, so it stays small
              (ref.decons, lambda x: ref.cons(*x)), lambda: range(1, 2**12)),
    Bijection("nat2nats", ("nat2nats", "nats2nat"), tc.nat2nats, tc.nats2nat, lambda: range(100_000),
              st.integers(0, 2**256),
              lambda: [*(list(x) for k in range(4) for x in product(range(16), repeat=k)), *random_lists(43, 300)],
              st.lists(st.integers(0, 2**64), max_size=8), (ref.nat2nats, ref.nats2nat),
              lambda: [*range(2**12), *random_codes(41, 150), *map(tc.nats2nat, random_lists(43, 300))]),
    Bijection("nat2pars", ("nat2pars", "pars2nat"), tc.nat2pars, tc.pars2nat, lambda: range(10_000),
              st.integers(0, 2**64), lambda: [*single_groups(18), *map(tc.nat2pars, range(2**12))],  # for ref.pars2nat
              st.recursive(st.just([0, 1]), lambda groups: st.lists(groups, min_size=1, max_size=4).map(
                  lambda gs: [0, *chain.from_iterable(gs), 1]), max_leaves=16),
              (ref.nat2pars, ref.pars2nat), lambda: [*range(2**12), *random_codes(41, 150)]),
    Bijection("to_bbase", ("to_bbase", "from_bbase"), lambda c: (c[0], tc.to_bbase(*c)),
              lambda x: (x[0], tc.from_bbase(*x)), lambda: product((2, 7, 26), range(100_000)),
              st.tuples(st.integers(2, 40), st.integers(0, 2**256)),
              lambda: ((b, list(x)) for b in (2, 3) for k in range(9) for x in product(range(b), repeat=k)),
              st.integers(2, 40).flatmap(lambda b: st.tuples(st.just(b), st.lists(st.integers(0, b - 1)))),
              (lambda c: (c[0], ref.to_bbase(*c)), lambda x: (x[0], ref.from_bbase(*x))),
              lambda: product((2, 3, 7, 26), range(2**10))),
    Bijection("nat2string", ("nat2string", "string2nat"), tc.nat2string, tc.string2nat, lambda: range(50_000),
              st.integers(0, 2**256), lambda: ("".join(x) for k in range(4) for x in product(AZ, repeat=k)),
              st.text(alphabet=AZ, max_size=60),
              (lambda n: "".join(AZ[d] for d in ref.to_bbase(26, n)), lambda x: ref.from_bbase(26, map(AZ.index, x))),
              lambda: range(2**12)),
    *map(godel, ("fg_a", "fg_ab", "imp", "h3"), (SIG_FG_A, SIG_FG_AB, SIG_IMP, SIG_H3), (0, 500, 0, 0)),
]


def corpus(count, max_bits, *seeds):
    codes = [n for seed in seeds for n in random_codes(seed, count, max_bits)]
    return [(tc.nat2term(SIG_FG_AB, n), ref.nat2term(plain(SIG_FG_AB), n)) for n in codes]


INJECTIONS = [  # ref.term2bitpars builds balanced groups, so term2bitpars agreeing with it does too
    Injection(("term2bitpars", "bitpars2term"), tc.term2bitpars, lambda x: tc.bitpars2term(*x),
              lambda: corpus(400, 120, 23, 29), ref.term2bitpars),
    Injection(("term2code", "code2term"), tc.term2code, lambda x: tc.code2term(*x),
              lambda: corpus(300, 24, 31), ref.term2code),  # 24 bits: ref.pars2nat pads members to the widest
    Injection(("term2inj_code", "inj_code2term"), tc.term2inj_code, lambda x: tc.inj_code2term(*x),
              lambda: corpus(300, 24, 31), ref.term2inj_code),
    Injection(("print_term", "parse_term"), tc.print_term, tc.parse_term, lambda: corpus(300, 120, 5), str),
]

# the rest of __all__; k_deflate is only a left inverse of k_inflate (test_tuples checks both)
NOT_CODECS = {"CodecError", "ParseError", "SignatureError", "Term", "Var", "Const", "Compound", "Signature",
              "parse_signature", "load_signature", "validate_signature", "ranterm", "k_deflate", "k_inflate"}
