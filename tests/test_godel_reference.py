"""Differential tests of term2nat/nat2term against the plain recursive
reference in bench/reference.py, which reads codes in three bands and splits
a functor's payload through the base-2^k digit matrix, sharing nothing with
the library's godel or tuples modules. The reference keeps terms as text, so
the library's terms are compared through print_term."""

import random
import sys

import pytest

from termcodec import Compound, Const, Var, nat2term, print_term, term2nat

from conftest import SIG_FG_A, SIG_FG_AB, SIG_H3, SIG_IMP, plain, ref


def fresh_leaves(t):
    """t rebuilt with a new node per leaf; decoded terms share their leaves."""
    if isinstance(t, Compound):
        return Compound(t.functor, tuple(fresh_leaves(a) for a in t.args))
    return Var(t.name) if isinstance(t, Var) else Const(t.symbol)


@pytest.fixture
def deep_recursion():
    """Room for the recursion on long unary chains, for one test."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, 20_000))
    yield
    sys.setrecursionlimit(old)


def test_reference_agrees_with_the_worked_examples():
    assert ref.to_tuple(2, 0b1101) == [0b11, 0b10]
    assert ref.to_tuple(3, 0b101_110) == [0b10, 0b01, 0b11]
    assert ref.from_tuple([0b10, 0b01, 0b11]) == 0b101_110
    assert ref.term2nat(plain(SIG_FG_A), "f(a,f(X,g(Y)))") == 17439
    assert ref.nat2term(plain(SIG_FG_AB), 2012) == "f(f(Y,b),f(b,a))"
    imp = "imp(imp(imp(B,A),imp(z,A)),imp(imp(z,A),B))"
    assert ref.nat2term(plain(SIG_IMP), 2012) == imp


def check_code(sig, n):
    """The library decodes n as the reference does, and both encode the
    result, with a fresh node per leaf for the library, back to n."""
    text = ref.nat2term(plain(sig), n)
    t = nat2term(sig, n)
    assert print_term(t) == text
    assert term2nat(sig, fresh_leaves(t)) == n
    assert ref.term2nat(plain(sig), text) == n


@pytest.mark.parametrize("sig", [SIG_FG_AB, SIG_IMP, SIG_H3], ids=["fg_ab", "imp", "h3"])
def test_every_code_below_2_pow_12(sig):
    for n in range(2**12):
        check_code(sig, n)


@pytest.mark.parametrize("sig", [SIG_FG_AB, SIG_IMP, SIG_H3], ids=["fg_ab", "imp", "h3"])
def test_random_codes_up_to_4096_bits(sig, deep_recursion):
    rng = random.Random(47)
    for _ in range(40):
        check_code(sig, rng.getrandbits(rng.randint(1, 4096)))
